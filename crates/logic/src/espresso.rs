//! A cube-level heuristic minimiser in the style of Espresso's
//! EXPAND → IRREDUNDANT → REDUCE loop.
//!
//! Unlike the exact Quine–McCluskey pipeline ([`crate::covering`]), this
//! works directly on the product terms of a [`Pla`] without ever building
//! the covering matrix — the strategy of the tool the paper benchmarks
//! `ZDD_SCG` against. The loop:
//!
//! 1. **EXPAND** — greedily drop literals from each term while it remains an
//!    implicant of `ON ∪ DC` for every output it asserts, then grow its
//!    output set to every output that accepts it;
//! 2. **IRREDUNDANT** — delete terms whose removal leaves every output's
//!    ON-set covered;
//! 3. **REDUCE** — shrink each term to the smallest cube containing the part
//!    of the ON-set only it covers, giving the next EXPAND room to move in a
//!    different direction;
//!
//! iterated until the cover stops improving.

use crate::cube::Cube;
use crate::pla::Pla;
use bdd::{Bdd, BddId};

/// Options for [`minimize`].
#[derive(Clone, Copy, Debug)]
pub struct EspressoOptions {
    /// Maximum EXPAND/IRREDUNDANT/REDUCE sweeps.
    pub max_sweeps: usize,
}

impl Default for EspressoOptions {
    fn default() -> Self {
        EspressoOptions { max_sweeps: 4 }
    }
}

/// Minimises a PLA heuristically; the result is verified to realise the
/// original specification before being returned.
///
/// # Panics
///
/// Panics if internal verification fails (a bug, not a user error).
///
/// # Example
///
/// ```
/// use logic::espresso::minimize;
/// use logic::Pla;
///
/// // Three minterm-rows of x0 ∨ x1 collapse to two products.
/// let pla: Pla = ".i 2\n.o 1\n11 1\n10 1\n01 1\n.e\n".parse()?;
/// let min = minimize(&pla, &Default::default());
/// assert_eq!(min.terms().len(), 2);
/// # Ok::<(), logic::ParsePlaError>(())
/// ```
pub fn minimize(pla: &Pla, opts: &EspressoOptions) -> Pla {
    let n = pla.num_inputs();
    let mut mgr = Bdd::default();
    let funcs = pla.output_functions(&mut mgr);
    let uppers: Vec<BddId> = funcs
        .iter()
        .map(|f| {
            let dc = f.dc;
            mgr.or(f.on, dc)
        })
        .collect();
    let ons: Vec<BddId> = funcs.iter().map(|f| f.on).collect();

    // Working cover: ON-terms only (DC terms guide expansion via `uppers`).
    let mut terms: Vec<(Cube, u64)> = pla
        .terms()
        .iter()
        .filter(|(_, on, _)| *on != 0)
        .map(|&(c, on, _)| (c, on))
        .collect();

    let mut best_len = usize::MAX;
    for _ in 0..opts.max_sweeps {
        expand(&mgr, &uppers, n, &mut terms);
        irredundant(&mut mgr, &ons, &mut terms);
        if terms.len() >= best_len {
            break;
        }
        best_len = terms.len();
        reduce(&mut mgr, &ons, n, &mut terms);
    }
    // Finish on an expanded, irredundant cover.
    expand(&mgr, &uppers, n, &mut terms);
    irredundant(&mut mgr, &ons, &mut terms);

    let mut out = Pla::new(n, pla.num_outputs());
    for (c, mask) in terms {
        out.push_term(c, mask, 0);
    }
    assert!(
        realizes(pla, &out),
        "espresso-style minimisation produced a non-equivalent cover"
    );
    out
}

/// `candidate` realises `original`: for every output,
/// `ON ⊆ candidate ⊆ ON ∪ DC`.
pub fn realizes(original: &Pla, candidate: &Pla) -> bool {
    if original.num_inputs() != candidate.num_inputs()
        || original.num_outputs() != candidate.num_outputs()
    {
        return false;
    }
    let mut mgr = Bdd::default();
    let spec = original.output_functions(&mut mgr);
    let got = candidate.output_functions(&mut mgr);
    for (s, g) in spec.iter().zip(&got) {
        let dc = s.dc;
        let upper = mgr.or(s.on, dc);
        if !mgr.implies_check(s.on, g.on) || !mgr.implies_check(g.on, upper) {
            return false;
        }
    }
    true
}

/// EXPAND: drop literals greedily, then widen output masks.
fn expand(mgr: &Bdd, uppers: &[BddId], n: usize, terms: &mut [(Cube, u64)]) {
    for (c, mask) in terms.iter_mut() {
        // Try removing each literal, most recently kept first.
        let mut changed = true;
        while changed {
            changed = false;
            for v in 0..n {
                if c.is_dont_care(v) {
                    continue;
                }
                let wider = Cube::new(c.pos() & !(1 << v), c.neg() & !(1 << v));
                let ok = (0..uppers.len())
                    .filter(|&o| *mask >> o & 1 == 1)
                    .all(|o| wider.implies(mgr, uppers[o]));
                if ok {
                    *c = wider;
                    changed = true;
                }
            }
        }
        // Output expansion: assert every output that accepts the cube.
        for (o, &upper) in uppers.iter().enumerate() {
            if *mask >> o & 1 == 0 && c.implies(mgr, upper) {
                *mask |= 1 << o;
            }
        }
    }
}

/// IRREDUNDANT: greedy removal, widest terms first (they are most likely
/// covered by the rest after expansion of the others).
fn irredundant(mgr: &mut Bdd, ons: &[BddId], terms: &mut Vec<(Cube, u64)>) {
    let mut order: Vec<usize> = (0..terms.len()).collect();
    order.sort_by_key(|&i| terms[i].0.literal_count());
    let mut alive: Vec<bool> = vec![true; terms.len()];
    for &i in &order {
        alive[i] = false;
        let redundant = (0..ons.len()).all(|o| {
            // ON_o ⊆ union of remaining terms asserting o.
            let mut cover = BddId::FALSE;
            for (k, &(c, mask)) in terms.iter().enumerate() {
                if alive[k] && mask >> o & 1 == 1 {
                    let cb = c.to_bdd(mgr);
                    cover = mgr.or(cover, cb);
                }
            }
            mgr.implies_check(ons[o], cover)
        });
        if !redundant {
            alive[i] = true;
        }
    }
    let mut k = 0;
    terms.retain(|_| {
        let keep = alive[k];
        k += 1;
        keep
    });
}

/// REDUCE: shrink each term to the smallest cube containing what only it
/// covers of the ON-sets it serves.
fn reduce(mgr: &mut Bdd, ons: &[BddId], n: usize, terms: &mut [(Cube, u64)]) {
    let snapshot: Vec<(Cube, u64)> = terms.to_vec();
    for (i, (c, mask)) in terms.iter_mut().enumerate() {
        let cbdd = c.to_bdd(mgr);
        // What this term alone must keep covering.
        let mut essential = BddId::FALSE;
        for (o, &on) in ons.iter().enumerate() {
            if *mask >> o & 1 == 0 {
                continue;
            }
            let mut others = BddId::FALSE;
            for (k, &(oc, omask)) in snapshot.iter().enumerate() {
                if k != i && omask >> o & 1 == 1 {
                    let ob = oc.to_bdd(mgr);
                    others = mgr.or(others, ob);
                }
            }
            let nothers = mgr.not(others);
            let only_mine = mgr.and(on, nothers);
            let mine = mgr.and(only_mine, cbdd);
            essential = mgr.or(essential, mine);
        }
        if essential.is_false() {
            continue; // irredundant pass will deal with it
        }
        *c = smallest_cube_containing(mgr, essential, n);
    }
}

/// The smallest cube whose BDD contains `f` (the supercube of `f`'s onset).
fn smallest_cube_containing(mgr: &mut Bdd, f: BddId, n: usize) -> Cube {
    let mut pos = 0u64;
    let mut neg = 0u64;
    for v in 0..n {
        let f0 = mgr.restrict(f, v as u32, false);
        let f1 = mgr.restrict(f, v as u32, true);
        if f0.is_false() {
            pos |= 1 << v; // f lives entirely in v = 1
        } else if f1.is_false() {
            neg |= 1 << v;
        }
    }
    Cube::new(pos, neg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term_count(src: &str) -> usize {
        let pla: Pla = src.parse().unwrap();
        minimize(&pla, &EspressoOptions::default()).terms().len()
    }

    #[test]
    fn collapses_adjacent_minterms() {
        assert_eq!(term_count(".i 2\n.o 1\n11 1\n10 1\n01 1\n.e\n"), 2);
        assert_eq!(term_count(".i 2\n.o 1\n11 1\n10 1\n.e\n"), 1);
    }

    #[test]
    fn uses_dont_cares() {
        // ON {11,00}, DC {10,01}: a single universal cube works.
        assert_eq!(term_count(".i 2\n.o 1\n11 1\n00 1\n10 -\n01 -\n.e\n"), 1);
    }

    #[test]
    fn multi_output_sharing_via_output_expansion() {
        // Identical outputs: one shared term after output expansion.
        assert_eq!(term_count(".i 2\n.o 2\n11 10\n11 01\n.e\n"), 1);
    }

    #[test]
    fn result_always_realizes_spec() {
        let cases = [
            ".i 3\n.o 1\n110 1\n111 1\n011 1\n001 1\n.e\n",
            ".i 3\n.o 2\n11- 10\n1-1 01\n--1 1-\n.e\n",
            ".i 4\n.o 1\n1100 1\n1111 1\n0000 1\n10-0 -\n.e\n",
        ];
        for src in cases {
            let pla: Pla = src.parse().unwrap();
            let min = minimize(&pla, &EspressoOptions::default());
            assert!(realizes(&pla, &min), "case {src:?}");
            assert!(min.terms().len() <= pla.terms().len());
        }
    }

    #[test]
    fn smallest_cube_helper() {
        let mut mgr = Bdd::default();
        let x = mgr.var(0);
        let y = mgr.var(1);
        // f = x ∧ (y ∨ ¬y) restricted… onset {10, 11}: smallest cube is "1-".
        let f = {
            let ny = mgr.not(y);
            let a = mgr.and(x, y);
            let b = mgr.and(x, ny);
            mgr.or(a, b)
        };
        let c = smallest_cube_containing(&mut mgr, f, 2);
        assert_eq!(c, "1-".parse().unwrap());
    }

    #[test]
    fn reduce_expand_cycle_improves_bad_covers() {
        // A deliberately clumsy cover of x0 (split plus overlap).
        let pla: Pla = ".i 3\n.o 1\n1-0 1\n1-1 1\n11- 1\n.e\n".parse().unwrap();
        let min = minimize(&pla, &EspressoOptions::default());
        assert_eq!(min.terms().len(), 1);
        assert_eq!(min.terms()[0].0, "1--".parse().unwrap());
    }

    #[test]
    fn realizes_rejects_wrong_candidates() {
        let spec: Pla = ".i 2\n.o 1\n11 1\n.e\n".parse().unwrap();
        let wrong: Pla = ".i 2\n.o 1\n10 1\n.e\n".parse().unwrap();
        assert!(!realizes(&spec, &wrong));
        let too_big: Pla = ".i 2\n.o 1\n1- 1\n.e\n".parse().unwrap();
        assert!(!realizes(&spec, &too_big));
        let different_shape: Pla = ".i 3\n.o 1\n111 1\n.e\n".parse().unwrap();
        assert!(!realizes(&spec, &different_shape));
    }
}
