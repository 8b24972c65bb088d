//! The classical ZDD family algebra: union, intersection, difference and
//! unate product.

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

    /// Family intersection `f ∩ g`.
    pub fn intersect(&mut self, f: NodeId, g: NodeId) -> NodeId {
        if f == g {
            return f;
        }
        if f == NodeId::EMPTY || g == NodeId::EMPTY {
            return NodeId::EMPTY;
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if let Some(r) = self.cache_get((Op::Intersect, a, b)) {
            return r;
        }
        let (vf, vg) = (self.raw_var(f), self.raw_var(g));
        let v = vf.min(vg);
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let lo = self.intersect(f0, g0);
        let hi = self.intersect(f1, g1);
        let r = self.node(Var(v), lo, hi);
        self.cache_put((Op::Intersect, a, b), r);
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

    /// Unate product (join): `{a ∪ b : a ∈ f, b ∈ g}`.
    ///
    /// This is Minato's multiplication of unate cube set expressions; it is
    /// commutative and distributes over [`Zdd::union`].
    pub fn product(&mut self, f: NodeId, g: NodeId) -> NodeId {
        if f == NodeId::EMPTY || g == NodeId::EMPTY {
            return NodeId::EMPTY;
        }
        if f == NodeId::BASE {
            return g;
        }
        if g == NodeId::BASE {
            return f;
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if let Some(r) = self.cache_get((Op::Product, a, b)) {
            return r;
        }
        let (vf, vg) = (self.raw_var(f), self.raw_var(g));
        let v = vf.min(vg);
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        // Members with v: f1*g1 ∪ f1*g0 ∪ f0*g1; without: f0*g0.
        let p11 = self.product(f1, g1);
        let p10 = self.product(f1, g0);
        let p01 = self.product(f0, g1);
        let u1 = self.union(p11, p10);
        let hi = self.union(u1, p01);
        let lo = self.product(f0, g0);
        let r = self.node(Var(v), lo, hi);
        self.cache_put((Op::Product, a, b), r);
        r
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
    fn union_basic() {
        let mut z = Zdd::default();
        let a = family(&mut z, &[&[0], &[1, 2]]);
        let b = family(&mut z, &[&[1, 2], &[3]]);
        let u = z.union(a, b);
        assert_eq!(z.count(u), 3);
        assert!(z.contains_set(u, &[Var(0)]));
        assert!(z.contains_set(u, &[Var(1), Var(2)]));
        assert!(z.contains_set(u, &[Var(3)]));
    }

    #[test]
    fn intersect_basic() {
        let mut z = Zdd::default();
        let a = family(&mut z, &[&[0], &[1, 2], &[]]);
        let b = family(&mut z, &[&[1, 2], &[3], &[]]);
        let i = z.intersect(a, b);
        assert_eq!(z.count(i), 2);
        assert!(z.contains_set(i, &[Var(1), Var(2)]));
        assert!(z.contains_empty(i));
    }

    #[test]
    fn difference_basic() {
        let mut z = Zdd::default();
        let a = family(&mut z, &[&[0], &[1, 2], &[4]]);
        let b = family(&mut z, &[&[1, 2]]);
        let d = z.difference(a, b);
        assert_eq!(z.count(d), 2);
        assert!(!z.contains_set(d, &[Var(1), Var(2)]));
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
    fn product_joins_members() {
        let mut z = Zdd::default();
        let a = family(&mut z, &[&[0], &[1]]);
        let b = family(&mut z, &[&[2], &[3]]);
        let p = z.product(a, b);
        assert_eq!(z.count(p), 4);
        assert!(z.contains_set(p, &[Var(0), Var(2)]));
        assert!(z.contains_set(p, &[Var(1), Var(3)]));
    }

    #[test]
    fn product_with_overlap_collapses_duplicates() {
        let mut z = Zdd::default();
        let a = family(&mut z, &[&[0], &[0, 1]]);
        let b = family(&mut z, &[&[0]]);
        let p = z.product(a, b);
        // {0}∪{0} = {0}, {0,1}∪{0} = {0,1}
        assert_eq!(z.count(p), 2);
    }

    #[test]
    fn product_base_is_identity() {
        let mut z = Zdd::default();
        let a = family(&mut z, &[&[0, 2], &[1]]);
        let b = z.base();
        assert_eq!(z.product(a, b), a);
        assert_eq!(z.product(b, a), a);
    }
}
