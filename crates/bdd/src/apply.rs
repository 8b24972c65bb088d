//! Boolean connectives via the `apply` recursion, and restriction.

use crate::manager::{BOp, Bdd};
use crate::node::BddId;

impl Bdd {
    /// Conjunction `f ∧ g`.
    pub fn and(&mut self, f: BddId, g: BddId) -> BddId {
        if f == g || g.is_true() {
            return f;
        }
        if f.is_true() {
            return g;
        }
        if f.is_false() || g.is_false() {
            return BddId::FALSE;
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if let Some(&r) = self.cache.get(&(BOp::And, a, b)) {
            return r;
        }
        let v = self.raw_var(f).min(self.raw_var(g));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let lo = self.and(f0, g0);
        let hi = self.and(f1, g1);
        let r = self.mk(v, lo, hi);
        self.cache.insert((BOp::And, a, b), r);
        r
    }

    /// Disjunction `f ∨ g`.
    pub fn or(&mut self, f: BddId, g: BddId) -> BddId {
        if f == g || g.is_false() {
            return f;
        }
        if f.is_false() {
            return g;
        }
        if f.is_true() || g.is_true() {
            return BddId::TRUE;
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if let Some(&r) = self.cache.get(&(BOp::Or, a, b)) {
            return r;
        }
        let v = self.raw_var(f).min(self.raw_var(g));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let lo = self.or(f0, g0);
        let hi = self.or(f1, g1);
        let r = self.mk(v, lo, hi);
        self.cache.insert((BOp::Or, a, b), r);
        r
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: BddId, g: BddId) -> BddId {
        if f == g {
            return BddId::FALSE;
        }
        if f.is_false() {
            return g;
        }
        if g.is_false() {
            return f;
        }
        if f.is_true() {
            return self.not(g);
        }
        if g.is_true() {
            return self.not(f);
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if let Some(&r) = self.cache.get(&(BOp::Xor, a, b)) {
            return r;
        }
        let v = self.raw_var(f).min(self.raw_var(g));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let lo = self.xor(f0, g0);
        let hi = self.xor(f1, g1);
        let r = self.mk(v, lo, hi);
        self.cache.insert((BOp::Xor, a, b), r);
        r
    }

    /// Negation `¬f`.
    pub fn not(&mut self, f: BddId) -> BddId {
        match f {
            BddId::FALSE => BddId::TRUE,
            BddId::TRUE => BddId::FALSE,
            _ => {
                if let Some(&r) = self.cache.get(&(BOp::Not, f, f)) {
                    return r;
                }
                let v = self.raw_var(f);
                let (lo, hi) = (self.lo(f), self.hi(f));
                let nlo = self.not(lo);
                let nhi = self.not(hi);
                let r = self.mk(v, nlo, nhi);
                self.cache.insert((BOp::Not, f, f), r);
                r
            }
        }
    }

    /// Decides whether `f ≤ g` (i.e. `f → g` is a tautology).
    ///
    /// Splits both functions on their top variable and stops at constants;
    /// results are memoised in the computed cache. No node is created, so
    /// [`len`](Bdd::len) is the same before and after the call.
    pub fn implies_check(&mut self, f: BddId, g: BddId) -> bool {
        if f == g || f.is_false() || g.is_true() {
            return true;
        }
        if f.is_true() || g.is_false() {
            return false;
        }
        if let Some(&r) = self.cache.get(&(BOp::Leq, f, g)) {
            return r.is_true();
        }
        let v = self.raw_var(f).min(self.raw_var(g));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let r = self.implies_check(f0, g0) && self.implies_check(f1, g1);
        let id = if r { BddId::TRUE } else { BddId::FALSE };
        self.cache.insert((BOp::Leq, f, g), id);
        r
    }

    /// The cofactor `f|v=val`.
    pub fn restrict(&mut self, f: BddId, v: u32, val: bool) -> BddId {
        if f.is_const() {
            return f;
        }
        let top = self.raw_var(f);
        if top > v {
            return f;
        }
        if top == v {
            return if val { self.hi(f) } else { self.lo(f) };
        }
        let op = if val { BOp::Restrict1 } else { BOp::Restrict0 };
        let key = (op, f, BddId(v));
        if let Some(&r) = self.cache.get(&key) {
            return r;
        }
        let (lo, hi) = (self.lo(f), self.hi(f));
        let nlo = self.restrict(lo, v, val);
        let nhi = self.restrict(hi, v, val);
        let r = self.mk(top, nlo, nhi);
        self.cache.insert(key, r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_identities() {
        let mut b = Bdd::default();
        let x = b.var(0);
        let y = b.var(1);
        let nx = b.not(x);
        assert_eq!(b.and(x, nx), BddId::FALSE);
        assert_eq!(b.or(x, nx), BddId::TRUE);
        assert_eq!(b.xor(x, x), BddId::FALSE);
        let xy = b.and(x, y);
        let yx = b.and(y, x);
        assert_eq!(xy, yx);
    }

    #[test]
    fn double_negation() {
        let mut b = Bdd::default();
        let x = b.var(0);
        let y = b.var(1);
        let f = b.xor(x, y);
        let nf = b.not(f);
        assert_eq!(b.not(nf), f);
    }

    #[test]
    fn implication_order() {
        let mut b = Bdd::default();
        let x = b.var(0);
        let y = b.var(1);
        let xy = b.and(x, y);
        let xoy = b.or(x, y);
        assert!(b.implies_check(xy, x));
        assert!(b.implies_check(x, xoy));
        assert!(!b.implies_check(xoy, xy));
    }

    #[test]
    fn restrict_fixes_variable() {
        let mut b = Bdd::default();
        let x = b.var(0);
        let y = b.var(1);
        let f = b.and(x, y);
        assert_eq!(b.restrict(f, 0, true), y);
        assert_eq!(b.restrict(f, 0, false), BddId::FALSE);
        // Restricting a variable not in the support is the identity.
        assert_eq!(b.restrict(f, 9, true), f);
    }
}
