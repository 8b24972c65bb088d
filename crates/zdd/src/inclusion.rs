//! Set-inclusion operators: the engine of implicit dominance reductions.
//!
//! In the unate covering problem, a row whose column-set is a superset of
//! another row's is *dominated* (automatically covered) and can be removed:
//! keeping only [`Zdd::minimal`] members of the row family performs implicit
//! row dominance in one traversal. Dually, [`Zdd::maximal`] on the transposed
//! (column → covered-rows) family performs uniform-cost column dominance.

use crate::manager::{Op, Zdd};
use crate::node::{NodeId, Var};

impl Zdd {
    /// Members of `f` that are **not** supersets (or duplicates) of any
    /// member of `g`: `{s ∈ f : ∄ h ∈ g, h ⊆ s}`.
    pub fn nonsupersets(&mut self, f: NodeId, g: NodeId) -> NodeId {
        if f == NodeId::EMPTY || f == g {
            return NodeId::EMPTY;
        }
        if g == NodeId::EMPTY {
            return f;
        }
        if g == NodeId::BASE {
            // ∅ ⊆ every set.
            return NodeId::EMPTY;
        }
        if f == NodeId::BASE {
            // Only ∅ can be contained in ∅.
            return if self.contains_empty(g) {
                NodeId::EMPTY
            } else {
                NodeId::BASE
            };
        }
        if let Some(r) = self.cache_get((Op::NonSupersets, f, g)) {
            return r;
        }
        let v = self.raw_var(f).min(self.raw_var(g));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let lo = self.nonsupersets(f0, g0);
        let h1 = self.nonsupersets(f1, g1);
        let hi = self.nonsupersets(h1, g0);
        let r = self.node(Var(v), lo, hi);
        self.cache_put((Op::NonSupersets, f, g), r);
        r
    }

    /// Members of `f` that are **not** subsets (or duplicates) of any member
    /// of `g`: `{s ∈ f : ∄ h ∈ g, s ⊆ h}`.
    pub fn nonsubsets(&mut self, f: NodeId, g: NodeId) -> NodeId {
        if f == NodeId::EMPTY || f == g {
            return NodeId::EMPTY;
        }
        if g == NodeId::EMPTY {
            return f;
        }
        if f == NodeId::BASE {
            // ∅ is a subset of any member; g is non-empty here.
            return NodeId::EMPTY;
        }
        if g == NodeId::BASE {
            // Only ∅ fits inside ∅; f has no ∅-only shortcut, recurse cheaply:
            // members of f that are ⊆ ∅ are just ∅ itself.
            return if self.contains_empty(f) {
                // remove ∅ from f
                self.difference(f, NodeId::BASE)
            } else {
                f
            };
        }
        if let Some(r) = self.cache_get((Op::NonSubsets, f, g)) {
            return r;
        }
        let v = self.raw_var(f).min(self.raw_var(g));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let l0 = self.nonsubsets(f0, g0);
        let lo = self.nonsubsets(l0, g1);
        let hi = self.nonsubsets(f1, g1);
        let r = self.node(Var(v), lo, hi);
        self.cache_put((Op::NonSubsets, f, g), r);
        r
    }

    /// The inclusion-minimal members of `f`.
    ///
    /// Applied to the row family of a covering matrix this removes every
    /// dominated row in a single implicit pass.
    pub fn minimal(&mut self, f: NodeId) -> NodeId {
        if f.is_terminal() {
            return f;
        }
        if let Some(r) = self.cache_get((Op::Minimal, f, f)) {
            return r;
        }
        let v = self.raw_var(f);
        let (lo, hi) = (self.lo(f), self.hi(f));
        let m0 = self.minimal(lo);
        let m1 = self.minimal(hi);
        // A member t∪{v} survives only if no member u (without v) has u ⊆ t.
        let h = self.nonsupersets(m1, m0);
        let r = self.node(Var(v), m0, h);
        self.cache_put((Op::Minimal, f, f), r);
        r
    }

    /// The inclusion-maximal members of `f`.
    pub fn maximal(&mut self, f: NodeId) -> NodeId {
        if f.is_terminal() {
            return f;
        }
        if let Some(r) = self.cache_get((Op::Maximal, f, f)) {
            return r;
        }
        let v = self.raw_var(f);
        let (lo, hi) = (self.lo(f), self.hi(f));
        let m0 = self.maximal(lo);
        let m1 = self.maximal(hi);
        // A member s (without v) survives only if no member t∪{v} has s ⊆ t.
        let l = self.nonsubsets(m0, m1);
        let r = self.node(Var(v), l, m1);
        self.cache_put((Op::Maximal, f, f), r);
        r
    }

    /// The members of `f` that are singletons `{v}`, returned as the family
    /// of those singletons.
    ///
    /// In the covering encoding, a singleton row means its unique covering
    /// column is *essential*.
    pub fn singletons(&mut self, f: NodeId) -> NodeId {
        if f.is_terminal() {
            return NodeId::EMPTY;
        }
        let v = self.raw_var(f);
        let (lo, hi) = (self.lo(f), self.hi(f));
        let l = self.singletons(lo);
        let h = if self.contains_empty(hi) {
            NodeId::BASE
        } else {
            NodeId::EMPTY
        };
        self.node(Var(v), l, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Zdd;

    fn family(z: &mut Zdd, sets: &[&[u32]]) -> NodeId {
        let sets: Vec<Vec<Var>> = sets
            .iter()
            .map(|s| s.iter().map(|&v| Var(v)).collect())
            .collect();
        z.from_sets(sets)
    }

    #[test]
    fn minimal_removes_supersets() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[0], &[0, 1], &[1, 2], &[2]]);
        let m = z.minimal(f);
        assert_eq!(z.count(m), 2);
        assert!(z.contains_set(m, &[Var(0)]));
        assert!(z.contains_set(m, &[Var(2)]));
    }

    #[test]
    fn minimal_with_empty_set_collapses() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[], &[0], &[1, 2]]);
        let m = z.minimal(f);
        assert_eq!(m, NodeId::BASE);
    }

    #[test]
    fn maximal_removes_subsets() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[0], &[0, 1], &[1, 2], &[2]]);
        let m = z.maximal(f);
        assert_eq!(z.count(m), 2);
        assert!(z.contains_set(m, &[Var(0), Var(1)]));
        assert!(z.contains_set(m, &[Var(1), Var(2)]));
    }

    #[test]
    fn nonsupersets_filters() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[0, 1], &[2], &[0, 2]]);
        let g = family(&mut z, &[&[0]]);
        let r = z.nonsupersets(f, g);
        assert_eq!(z.count(r), 1);
        assert!(z.contains_set(r, &[Var(2)]));
    }

    #[test]
    fn nonsupersets_removes_duplicates() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[0, 1], &[2]]);
        let g = family(&mut z, &[&[0, 1]]);
        let r = z.nonsupersets(f, g);
        assert_eq!(z.count(r), 1);
    }

    #[test]
    fn nonsubsets_filters() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[0], &[1, 2], &[3]]);
        let g = family(&mut z, &[&[0, 1], &[3]]);
        let r = z.nonsubsets(f, g);
        // {0} ⊆ {0,1}: removed. {3} ⊆ {3}: removed. {1,2} survives.
        assert_eq!(z.count(r), 1);
        assert!(z.contains_set(r, &[Var(1), Var(2)]));
    }

    #[test]
    fn singletons_extraction() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[0], &[1, 2], &[3], &[]]);
        let s = z.singletons(f);
        assert_eq!(z.count(s), 2);
        assert!(z.contains_set(s, &[Var(0)]));
        assert!(z.contains_set(s, &[Var(3)]));
    }

    #[test]
    fn minimal_idempotent() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[0, 1, 2], &[1], &[2, 3], &[0, 3]]);
        let m = z.minimal(f);
        assert_eq!(z.minimal(m), m);
        let x = z.maximal(f);
        assert_eq!(z.maximal(x), x);
    }
}

impl Zdd {
    /// Members of `f` that are supersets (or duplicates) of some member of
    /// `g` — the complement of [`Zdd::nonsupersets`] within `f` (Coudert's
    /// `SupSet` operator).
    pub fn supersets(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let ns = self.nonsupersets(f, g);
        self.difference(f, ns)
    }

    /// Members of `f` that are subsets (or duplicates) of some member of
    /// `g` — the complement of [`Zdd::nonsubsets`] within `f` (Coudert's
    /// `SubSet` operator).
    pub fn subsets(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let ns = self.nonsubsets(f, g);
        self.difference(f, ns)
    }
}

#[cfg(test)]
mod supsub_tests {
    use super::*;
    use crate::Zdd;

    #[test]
    fn supersets_and_subsets_partition_f() {
        let mut z = Zdd::default();
        let f = z.from_sets([
            vec![Var(0)],
            vec![Var(0), Var(1)],
            vec![Var(2)],
            vec![Var(1), Var(2), Var(3)],
        ]);
        let g = z.from_sets([vec![Var(0)], vec![Var(1), Var(2)]]);
        let sup = z.supersets(f, g);
        let nsup = z.nonsupersets(f, g);
        let back = z.union(sup, nsup);
        assert_eq!(back, f);
        assert_eq!(z.intersect(sup, nsup), NodeId::EMPTY);
        // {0} and {0,1} contain {0}; {1,2,3} contains {1,2}.
        assert_eq!(z.count(sup), 3);

        let sub = z.subsets(f, g);
        // {0} ⊆ {0}; {2} ⊆ {1,2}.
        assert_eq!(z.count(sub), 2);
    }
}
