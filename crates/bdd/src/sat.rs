//! Satisfying-assignment queries: evaluation and minterm enumeration.

use crate::manager::Bdd;
use crate::node::BddId;

impl Bdd {
    /// Evaluates `f` under a total assignment (`assignment[v]` is the value
    /// of variable `v`; variables beyond the slice are taken as `false`).
    pub fn eval(&self, f: BddId, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let v = self.raw_var(cur) as usize;
            let val = assignment.get(v).copied().unwrap_or(false);
            cur = if val { self.hi(cur) } else { self.lo(cur) };
        }
        cur.is_true()
    }

    /// Enumerates every minterm (total assignment over `0..num_vars`) that
    /// satisfies `f`, as bit-vectors packed into `u64` (variable `v` is bit
    /// `v`).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 63` (use sampling for larger universes) or if
    /// `f` depends on a variable outside the universe.
    pub fn minterms(&self, f: BddId, num_vars: u32) -> Vec<u64> {
        assert!(
            num_vars <= 63,
            "explicit minterm expansion limited to 63 vars"
        );
        let mut out = Vec::new();
        self.minterms_rec(f, 0, num_vars, 0, &mut out);
        out
    }

    fn minterms_rec(&self, f: BddId, next_var: u32, num_vars: u32, acc: u64, out: &mut Vec<u64>) {
        if f.is_false() {
            return;
        }
        if next_var == num_vars {
            assert!(f.is_true(), "variable outside universe");
            out.push(acc);
            return;
        }
        let (f0, f1) = if !f.is_const() && self.raw_var(f) == next_var {
            (self.lo(f), self.hi(f))
        } else {
            (f, f)
        };
        self.minterms_rec(f0, next_var + 1, num_vars, acc, out);
        self.minterms_rec(f1, next_var + 1, num_vars, acc | (1 << next_var), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_basic() {
        let mut b = Bdd::default();
        let x = b.var(0);
        let y = b.var(1);
        let f = b.xor(x, y);
        assert!(!b.eval(f, &[false, false]));
        assert!(b.eval(f, &[true, false]));
        assert!(b.eval(f, &[false, true]));
        assert!(!b.eval(f, &[true, true]));
    }

    #[test]
    fn minterms_enumeration() {
        let mut b = Bdd::default();
        let x = b.var(0);
        let y = b.var(1);
        let f = b.or(x, y);
        let mut ms = b.minterms(f, 2);
        ms.sort_unstable();
        assert_eq!(ms, vec![0b01, 0b10, 0b11]);
        // A variable outside the function's support doubles the count.
        assert_eq!(b.minterms(f, 3).len(), 6);
    }
}
