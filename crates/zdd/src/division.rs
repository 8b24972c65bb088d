//! Minato's weak-division algebra: quotient and remainder of unate cube
//! set expressions.
//!
//! For families `f` and `g`, the quotient `f / g` is the largest family `h`
//! with `g ⋈ h ⊆ f` (where `⋈` is [`Zdd::product`]); the remainder is
//! `f ∖ (g ⋈ (f / g))`. These complete the unate cube-set calculus of
//! Minato's DAC'93 paper that introduced ZDDs.

use crate::manager::{Op, Zdd};
use crate::node::{NodeId, Var};

impl Zdd {
    /// Weak division `f / g`: `⋂_{t ∈ g} { s ∖ t : s ∈ f, s ⊇ t }`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is the empty family (division by zero).
    ///
    /// # Example
    ///
    /// ```
    /// use zdd::{Var, Zdd};
    /// let mut z = Zdd::default();
    /// let f = z.from_sets([vec![Var(0), Var(2)], vec![Var(1), Var(2)], vec![Var(0)]]);
    /// let g = z.from_sets([vec![Var(2)]]);
    /// let q = z.quotient(f, g);
    /// // {0,2}/{2} = {0}, {1,2}/{2} = {1}; {0} has no 2.
    /// assert!(z.contains_set(q, &[Var(0)]));
    /// assert!(z.contains_set(q, &[Var(1)]));
    /// assert_eq!(z.count(q), 2);
    /// ```
    pub fn quotient(&mut self, f: NodeId, g: NodeId) -> NodeId {
        assert_ne!(g, NodeId::EMPTY, "division by the empty family");
        self.quot_rec(f, g)
    }

    fn quot_rec(&mut self, f: NodeId, g: NodeId) -> NodeId {
        if g == NodeId::BASE {
            return f;
        }
        if f == NodeId::EMPTY || f == NodeId::BASE {
            return NodeId::EMPTY;
        }
        if f == g {
            return NodeId::BASE;
        }
        if let Some(r) = self.cache_get((Op::Quotient, f, g)) {
            return r;
        }
        let v = self.raw_var(g);
        let (g0, g1) = (self.lo(g), self.hi(g));
        // The divisor's top variable may lie below the dividend's root, so
        // take full (not top-only) cofactors of f.
        let f0 = self.subset0(f, Var(v));
        let f1 = self.subset1(f, Var(v));
        // Members of g with v demand s ∋ v: quotient against f1.
        let mut q = self.quot_rec(f1, g1);
        if q != NodeId::EMPTY && g0 != NodeId::EMPTY {
            let q0 = self.quot_rec(f0, g0);
            q = self.intersect(q, q0);
        }
        self.cache_put((Op::Quotient, f, g), q);
        q
    }

    /// Weak-division remainder `f % g = f ∖ (g ⋈ (f / g))`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is the empty family.
    pub(crate) fn remainder(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let q = self.quotient(f, g);
        let p = self.product(g, q);
        self.difference(f, p)
    }

    /// The divisor identity `f = g ⋈ (f/g) ∪ (f % g)` holds by construction;
    /// this helper checks it (useful in debug assertions).
    pub fn check_division(&mut self, f: NodeId, g: NodeId) -> bool {
        let q = self.quotient(f, g);
        let p = self.product(g, q);
        let r = self.remainder(f, g);
        let back = self.union(p, r);
        back == f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family(z: &mut Zdd, sets: &[&[u32]]) -> NodeId {
        let sets: Vec<Vec<Var>> = sets
            .iter()
            .map(|s| s.iter().map(|&v| Var(v)).collect())
            .collect();
        z.from_sets(sets)
    }

    #[test]
    fn quotient_by_single_variable() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[0, 2], &[1, 2], &[0]]);
        let g = family(&mut z, &[&[2]]);
        let q = z.quotient(f, g);
        assert_eq!(z.count(q), 2);
        let r = z.remainder(f, g);
        assert_eq!(z.count(r), 1);
        assert!(z.contains_set(r, &[Var(0)]));
        assert!(z.check_division(f, g));
    }

    #[test]
    fn quotient_by_base_is_identity() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[0], &[1, 2]]);
        let b = z.base();
        assert_eq!(z.quotient(f, b), f);
        assert_eq!(z.remainder(f, b), NodeId::EMPTY);
    }

    #[test]
    fn quotient_by_multi_member_divisor() {
        // f = {ab, ac, bb?}: divide {a·x, b·x} patterns.
        let mut z = Zdd::default();
        // f = {0,2},{1,2},{0,3},{1,3}: (x0+x1)(x2+x3) expanded.
        let f = family(&mut z, &[&[0, 2], &[1, 2], &[0, 3], &[1, 3]]);
        let g = family(&mut z, &[&[0], &[1]]);
        let q = z.quotient(f, g);
        // q must be {2},{3}: the common cofactor.
        assert_eq!(z.count(q), 2);
        assert!(z.contains_set(q, &[Var(2)]));
        assert!(z.contains_set(q, &[Var(3)]));
        assert_eq!(z.remainder(f, g), NodeId::EMPTY);
    }

    #[test]
    fn remainder_collects_unmatched() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[0, 2], &[1]]);
        let g = family(&mut z, &[&[0]]);
        let q = z.quotient(f, g);
        assert_eq!(z.count(q), 1);
        assert!(z.contains_set(q, &[Var(2)]));
        let r = z.remainder(f, g);
        assert!(z.contains_set(r, &[Var(1)]));
        assert!(z.check_division(f, g));
    }

    #[test]
    #[should_panic(expected = "division by the empty family")]
    fn division_by_empty_panics() {
        let mut z = Zdd::default();
        let f = z.base();
        let _ = z.quotient(f, NodeId::EMPTY);
    }
}
