//! The family operations the prime generator calls: union, difference
//! and change.

use crate::manager::{Op, Zdd};
use crate::node::{NodeId, Var};

impl Zdd {
    /// Family union `f ∪ g`.
    pub fn union(&mut self, f: NodeId, g: NodeId) -> NodeId {
        if f == g || g == NodeId::EMPTY {
            return f;
        }
        if f == NodeId::EMPTY {
            return g;
        }
        // Commutative: canonicalise the cache key.
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if let Some(r) = self.cache_get((Op::Union, a, b)) {
            return r;
        }
        let (vf, vg) = (self.raw_var(f), self.raw_var(g));
        let v = vf.min(vg);
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let lo = self.union(f0, g0);
        let hi = self.union(f1, g1);
        let r = self.node(Var(v), lo, hi);
        self.cache_put((Op::Union, a, b), r);
        r
    }

    /// Family difference `f ∖ g`.
    pub fn difference(&mut self, f: NodeId, g: NodeId) -> NodeId {
        if f == NodeId::EMPTY || f == g {
            return NodeId::EMPTY;
        }
        if g == NodeId::EMPTY {
            return f;
        }
        if let Some(r) = self.cache_get((Op::Difference, f, g)) {
            return r;
        }
        let (vf, vg) = (self.raw_var(f), self.raw_var(g));
        let v = vf.min(vg);
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let lo = self.difference(f0, g0);
        let hi = self.difference(f1, g1);
        let r = self.node(Var(v), lo, hi);
        self.cache_put((Op::Difference, f, g), r);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family(z: &mut Zdd, sets: &[&[u32]]) -> NodeId {
        z.from_sets(sets.iter().map(|s| s.iter().map(|&v| Var(v))))
    }

    /// The members of `f` as sorted raw-variable lists, sorted.
    fn members(z: &Zdd, f: NodeId) -> Vec<Vec<u32>> {
        let mut sets: Vec<Vec<u32>> = z
            .sets(f)
            .map(|s| s.into_iter().map(|v| v.0).collect())
            .collect();
        sets.sort();
        sets
    }

    #[test]
    fn union_basic() {
        let mut z = Zdd::default();
        let a = family(&mut z, &[&[0], &[1, 2]]);
        let b = family(&mut z, &[&[1, 2], &[3]]);
        let u = z.union(a, b);
        assert_eq!(members(&z, u), [vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn difference_basic() {
        let mut z = Zdd::default();
        let a = family(&mut z, &[&[0], &[1, 2], &[4]]);
        let b = family(&mut z, &[&[1, 2]]);
        let d = z.difference(a, b);
        assert_eq!(members(&z, d), [vec![0], vec![4]]);
    }

    #[test]
    fn union_idempotent_and_commutative() {
        let mut z = Zdd::default();
        let a = family(&mut z, &[&[0, 3], &[2]]);
        let b = family(&mut z, &[&[1]]);
        assert_eq!(z.union(a, a), a);
        let ab = z.union(a, b);
        let ba = z.union(b, a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn change_toggles() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[0], &[1]]);
        let c = z.change(f, Var(0));
        assert_eq!(members(&z, c), [vec![], vec![0, 1]]);
        // change is an involution
        let back = z.change(c, Var(0));
        assert_eq!(back, f);
    }

    #[test]
    fn change_below_support() {
        let mut z = Zdd::default();
        let f = family(&mut z, &[&[1], &[2]]);
        let c = z.change(f, Var(5));
        assert_eq!(members(&z, c), [vec![1, 5], vec![2, 5]]);
    }
}
