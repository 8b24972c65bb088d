//! Prime implicant generation.
//!
//! Two independent engines:
//!
//! * [`prime_implicants`] — the implicit Coudert–Madre recursion over BDDs,
//!   collecting the primes into a ZDD over *literal* variables (positive
//!   literal of input `v` = ZDD var `2v`, negative = `2v + 1`). This is the
//!   technology the paper's pipeline (and Scherzo before it) relies on.
//! * [`primes_by_consensus`] — Quine's iterated consensus + absorption on an
//!   explicit cube list. Exponentially slower but independent, used to
//!   cross-validate the implicit engine in tests.
//!
//! The recursion (Coudert–Madre 1992): with `x` the top variable and
//! `f0`, `f1` its cofactors,
//!
//! ```text
//! P(f) = P(f0 ∧ f1)  ∪  x̄·(P(f0) ∖ P(f0 ∧ f1))  ∪  x·(P(f1) ∖ P(f0 ∧ f1))
//! ```

use crate::cube::Cube;
use bdd::{Bdd, BddId};
use std::collections::HashMap;
use zdd::{NodeId, Var, Zdd};

/// ZDD literal variable for the positive literal of input `v`.
fn pos_lit(v: u32) -> Var {
    Var(2 * v)
}

/// ZDD literal variable for the negative literal of input `v`.
fn neg_lit(v: u32) -> Var {
    Var(2 * v + 1)
}

/// Generates all prime implicants of `f` (a BDD in `mgr`) as a ZDD of
/// literal sets in `zdd`.
///
/// The empty set member represents the universal cube (only for `f = 1`).
///
/// # Example
///
/// ```
/// use bdd::Bdd;
/// use logic::primes::{prime_implicants, decode_primes};
/// use zdd::Zdd;
///
/// let mut mgr = Bdd::default();
/// let x = mgr.var(0);
/// let y = mgr.var(1);
/// let f = mgr.or(x, y);
/// let mut z = Zdd::default();
/// let p = prime_implicants(&mut mgr, &mut z, f);
/// let cubes = decode_primes(&z, p);
/// assert_eq!(cubes.len(), 2); // x and y are the only primes of x ∨ y
/// ```
pub fn prime_implicants(mgr: &mut Bdd, zdd: &mut Zdd, f: BddId) -> NodeId {
    let mut memo: HashMap<BddId, NodeId> = HashMap::new();
    primes_rec(mgr, zdd, f, &mut memo)
}

fn primes_rec(mgr: &mut Bdd, zdd: &mut Zdd, f: BddId, memo: &mut HashMap<BddId, NodeId>) -> NodeId {
    if f.is_false() {
        return NodeId::EMPTY;
    }
    if f.is_true() {
        return NodeId::BASE;
    }
    if let Some(&r) = memo.get(&f) {
        return r;
    }
    let v = mgr.var_of(f);
    let (f0, f1) = (mgr.lo(f), mgr.hi(f));
    let g = mgr.and(f0, f1);
    let pg = primes_rec(mgr, zdd, g, memo);
    let p0 = primes_rec(mgr, zdd, f0, memo);
    let p1 = primes_rec(mgr, zdd, f1, memo);
    let d0 = zdd.difference(p0, pg);
    let d1 = zdd.difference(p1, pg);
    let with_neg = zdd.change(d0, neg_lit(v));
    let with_pos = zdd.change(d1, pos_lit(v));
    let u = zdd.union(pg, with_neg);
    let r = zdd.union(u, with_pos);
    memo.insert(f, r);
    r
}

/// The BDD variable of a ZDD literal variable and whether the literal is
/// positive.
pub(crate) fn literal(lit: Var) -> (u32, bool) {
    (lit.0 / 2, lit.0 & 1 == 0)
}

/// Decodes a ZDD of literal sets into explicit [`Cube`]s.
pub fn decode_primes(zdd: &Zdd, primes: NodeId) -> Vec<Cube> {
    zdd.sets(primes)
        .map(|lits| {
            let mut pos = 0u64;
            let mut neg = 0u64;
            for lit in lits {
                match literal(lit) {
                    (v, true) => pos |= 1 << v,
                    (v, false) => neg |= 1 << v,
                }
            }
            Cube::new(pos, neg)
        })
        .collect()
}

/// Convenience: primes of `f` directly as sorted cubes.
pub fn prime_cubes(mgr: &mut Bdd, f: BddId) -> Vec<Cube> {
    let mut zdd = Zdd::default();
    let p = prime_implicants(mgr, &mut zdd, f);
    let mut cubes = decode_primes(&zdd, p);
    cubes.sort();
    cubes
}

/// Quine's iterated consensus: expands the cube list with all consensus
/// terms, absorbing contained cubes, until a fixpoint. The survivors are
/// exactly the prime implicants of the disjunction.
///
/// Exponential in the worst case; intended for cross-validation and small
/// covers.
pub fn primes_by_consensus(cubes: &[Cube]) -> Vec<Cube> {
    let mut set: Vec<Cube> = Vec::new();
    // Absorption-insert helper.
    fn insert(set: &mut Vec<Cube>, c: Cube) -> bool {
        if set.iter().any(|k| k.contains(&c)) {
            return false;
        }
        set.retain(|k| !c.contains(k));
        set.push(c);
        true
    }
    for &c in cubes {
        insert(&mut set, c);
    }
    loop {
        let mut added = false;
        let snapshot = set.clone();
        for i in 0..snapshot.len() {
            for j in (i + 1)..snapshot.len() {
                if let Some(cons) = snapshot[i].consensus(&snapshot[j]) {
                    if insert(&mut set, cons) {
                        added = true;
                    }
                }
            }
        }
        if !added {
            break;
        }
    }
    set.sort();
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cubelist::CubeList;

    /// Brute-force primality check over `n` variables.
    fn is_prime(c: &Cube, f: &dyn Fn(u64) -> bool, n: usize) -> bool {
        // Implicant: every minterm of c satisfies f.
        for a in 0..1u64 << n {
            if c.eval(a) && !f(a) {
                return false;
            }
        }
        // Maximal: dropping any literal breaks implicancy.
        for v in 0..n {
            if c.is_dont_care(v) {
                continue;
            }
            let wider = Cube::new(c.pos() & !(1 << v), c.neg() & !(1 << v));
            let still = (0..1u64 << n).all(|a| !wider.eval(a) || f(a));
            if still {
                return false;
            }
        }
        true
    }

    fn all_primes_brute(f: &dyn Fn(u64) -> bool, n: usize) -> Vec<Cube> {
        let mut out = Vec::new();
        // Enumerate all 3^n cubes.
        fn rec(
            v: usize,
            n: usize,
            pos: u64,
            neg: u64,
            f: &dyn Fn(u64) -> bool,
            out: &mut Vec<Cube>,
        ) {
            if v == n {
                let c = Cube::new(pos, neg);
                if is_prime(&c, f, n) {
                    out.push(c);
                }
                return;
            }
            rec(v + 1, n, pos, neg, f, out);
            rec(v + 1, n, pos | (1 << v), neg, f, out);
            rec(v + 1, n, pos, neg | (1 << v), f, out);
        }
        rec(0, n, 0, 0, f, &mut out);
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn primes_of_or() {
        let mut mgr = Bdd::default();
        let x = mgr.var(0);
        let y = mgr.var(1);
        let f = mgr.or(x, y);
        let primes = prime_cubes(&mut mgr, f);
        assert_eq!(primes.len(), 2);
        assert!(primes.contains(&"1-".parse().unwrap()));
        assert!(primes.contains(&"-1".parse().unwrap()));
    }

    #[test]
    fn primes_of_xor_are_the_minterm_pairs() {
        let mut mgr = Bdd::default();
        let x = mgr.var(0);
        let y = mgr.var(1);
        let f = mgr.xor(x, y);
        let primes = prime_cubes(&mut mgr, f);
        assert_eq!(primes.len(), 2);
        assert!(primes.contains(&"10".parse().unwrap()));
        assert!(primes.contains(&"01".parse().unwrap()));
    }

    #[test]
    fn tautology_has_universal_prime() {
        let mut mgr = Bdd::default();
        let primes = prime_cubes(&mut mgr, BddId::TRUE);
        assert_eq!(primes, vec![Cube::UNIVERSE]);
        let none = prime_cubes(&mut mgr, BddId::FALSE);
        assert!(none.is_empty());
    }

    #[test]
    fn classic_consensus_example() {
        // f = ab + a'c: primes are ab, a'c and the consensus bc.
        let cover = CubeList::parse(3, &["11-", "0-1"]).unwrap();
        let primes = primes_by_consensus(cover.cubes());
        assert_eq!(primes.len(), 3);
        assert!(primes.contains(&"-11".parse().unwrap()));
    }

    #[test]
    fn implicit_matches_consensus_and_brute_force() {
        let covers = [
            vec!["11-", "0-1"],
            vec!["1-0", "01-", "001"],
            vec!["111", "000"],
            vec!["1--", "-1-", "--1"],
        ];
        for cubes in covers {
            let cover = CubeList::parse(3, &cubes).unwrap();
            let mut mgr = Bdd::default();
            let f_bdd = cover.to_bdd(&mut mgr);
            let implicit = prime_cubes(&mut mgr, f_bdd);
            let consensus = primes_by_consensus(cover.cubes());
            let cl = cover.clone();
            let brute = all_primes_brute(&move |a| cl.eval(a), 3);
            assert_eq!(implicit, consensus, "cover {cubes:?}");
            assert_eq!(implicit, brute, "cover {cubes:?}");
        }
    }

    #[test]
    fn primes_cover_the_function() {
        // Every ON-minterm is covered by at least one prime, and every prime
        // is an implicant.
        let cover = CubeList::parse(4, &["1--0", "01-1", "--11", "0000"]).unwrap();
        let mut mgr = Bdd::default();
        let f_bdd = cover.to_bdd(&mut mgr);
        let primes = prime_cubes(&mut mgr, f_bdd);
        for a in 0..16u64 {
            let on = cover.eval(a);
            let covered = primes.iter().any(|p| p.eval(a));
            if on {
                assert!(covered, "minterm {a:04b} uncovered");
            }
        }
        for p in &primes {
            for a in 0..16u64 {
                if p.eval(a) {
                    assert!(cover.eval(a), "prime {p} not an implicant");
                }
            }
        }
    }
}
