//! Variable-indexed subfamily operations: `subset0`, `subset1`, `change`.

use crate::manager::{Op, Zdd};
use crate::node::{NodeId, Var};

impl Zdd {
    /// The members of `f` that do **not** contain `v`.
    pub fn subset0(&mut self, f: NodeId, v: Var) -> NodeId {
        if f.is_terminal() {
            return f;
        }
        let top = self.raw_var(f);
        if top > v.0 {
            return f;
        }
        if top == v.0 {
            return self.lo(f);
        }
        let key = (Op::Subset0, f, NodeId(v.0));
        if let Some(r) = self.cache_get(key) {
            return r;
        }
        let (lo, hi) = (self.lo(f), self.hi(f));
        let nlo = self.subset0(lo, v);
        let nhi = self.subset0(hi, v);
        let r = self.node(Var(top), nlo, nhi);
        self.cache_put(key, r);
        r
    }

    /// The members of `f` that contain `v`, with `v` removed from each.
    pub fn subset1(&mut self, f: NodeId, v: Var) -> NodeId {
        if f.is_terminal() {
            return NodeId::EMPTY;
        }
        let top = self.raw_var(f);
        if top > v.0 {
            return NodeId::EMPTY;
        }
        if top == v.0 {
            return self.hi(f);
        }
        let key = (Op::Subset1, f, NodeId(v.0));
        if let Some(r) = self.cache_get(key) {
            return r;
        }
        let (lo, hi) = (self.lo(f), self.hi(f));
        let nlo = self.subset1(lo, v);
        let nhi = self.subset1(hi, v);
        let r = self.node(Var(top), nlo, nhi);
        self.cache_put(key, r);
        r
    }

    /// Toggles `v` in every member of `f` (symmetric difference with `{v}`).
    pub fn change(&mut self, f: NodeId, v: Var) -> NodeId {
        if f == NodeId::EMPTY {
            return NodeId::EMPTY;
        }
        let top = self.raw_var(f);
        if top > v.0 {
            return self.node(v, NodeId::EMPTY, f);
        }
        if top == v.0 {
            let (lo, hi) = (self.lo(f), self.hi(f));
            return self.node(v, hi, lo);
        }
        let key = (Op::Change, f, NodeId(v.0));
        if let Some(r) = self.cache_get(key) {
            return r;
        }
        let (lo, hi) = (self.lo(f), self.hi(f));
        let nlo = self.change(lo, v);
        let nhi = self.change(hi, v);
        let r = self.node(Var(top), nlo, nhi);
        self.cache_put(key, r);
        r
    }

    /// The set of variables occurring in at least one member of `f`,
    /// in increasing order.
    pub fn support(&self, f: NodeId) -> Vec<Var> {
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![f];
        let mut visited = std::collections::HashSet::new();
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !visited.insert(n) {
                continue;
            }
            seen.insert(self.raw_var(n));
            stack.push(self.lo(n));
            stack.push(self.hi(n));
        }
        seen.into_iter().map(Var).collect()
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
    fn subset0_keeps_members_without_var() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[0, 1], &[1], &[2]]);
        let s = z.subset0(f, Var(1));
        assert_eq!(z.count(s), 1);
        assert!(z.contains_set(s, &[Var(2)]));
    }

    #[test]
    fn subset1_strips_the_var() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[0, 1], &[1], &[2]]);
        let s = z.subset1(f, Var(1));
        assert_eq!(z.count(s), 2);
        assert!(z.contains_set(s, &[Var(0)]));
        assert!(z.contains_empty(s));
    }

    #[test]
    fn subset_on_var_above_root() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[3]]);
        assert_eq!(z.subset0(f, Var(1)), f);
        assert_eq!(z.subset1(f, Var(1)), NodeId::EMPTY);
    }

    #[test]
    fn change_toggles() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[0], &[1]]);
        let c = z.change(f, Var(0));
        assert!(z.contains_empty(c));
        assert!(z.contains_set(c, &[Var(0), Var(1)]));
        // change is an involution
        let back = z.change(c, Var(0));
        assert_eq!(back, f);
    }

    #[test]
    fn change_below_support() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[1], &[2]]);
        let c = z.change(f, Var(5));
        assert!(z.contains_set(c, &[Var(1), Var(5)]));
        assert!(z.contains_set(c, &[Var(2), Var(5)]));
    }

    #[test]
    fn support_collects_vars() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[0, 3], &[1]]);
        assert_eq!(z.support(f), vec![Var(0), Var(1), Var(3)]);
        assert!(z.support(NodeId::BASE).is_empty());
    }

    #[test]
    fn decomposition_identity() {
        // f = subset0(f,v) ∪ change(subset1(f,v), v) for every v.
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[0, 1], &[1, 2], &[0], &[]]);
        for v in 0..4 {
            let s0 = z.subset0(f, Var(v));
            let s1 = z.subset1(f, Var(v));
            let s1v = z.change(s1, Var(v));
            let u = z.union(s0, s1v);
            assert_eq!(u, f, "failed at var {v}");
        }
    }
}
