//! Property tests: BDD operations against a 32-row truth-table model
//! (5 variables, each function a `u32` bitmask).

use bdd::{Bdd, BddId};
use proptest::prelude::*;

const VARS: u32 = 5;
const ROWS: u32 = 1 << VARS;

/// A random Boolean expression tree.
#[derive(Clone, Debug)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = (0u32..VARS).prop_map(Expr::Var);
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
        ]
    })
}

fn truth_table(e: &Expr) -> u32 {
    match e {
        Expr::Var(v) => {
            let mut t = 0u32;
            for row in 0..ROWS {
                if row >> v & 1 == 1 {
                    t |= 1 << row;
                }
            }
            t
        }
        Expr::Not(a) => !truth_table(a),
        Expr::And(a, b) => truth_table(a) & truth_table(b),
        Expr::Or(a, b) => truth_table(a) | truth_table(b),
        Expr::Xor(a, b) => truth_table(a) ^ truth_table(b),
    }
}

fn build(b: &mut Bdd, e: &Expr) -> BddId {
    match e {
        Expr::Var(v) => b.var(*v),
        Expr::Not(a) => {
            let f = build(b, a);
            b.not(f)
        }
        Expr::And(a, c) => {
            let f = build(b, a);
            let g = build(b, c);
            b.and(f, g)
        }
        Expr::Or(a, c) => {
            let f = build(b, a);
            let g = build(b, c);
            b.or(f, g)
        }
        Expr::Xor(a, c) => {
            let f = build(b, a);
            let g = build(b, c);
            b.xor(f, g)
        }
    }
}

fn table_of_bdd(b: &Bdd, f: BddId) -> u32 {
    let mut t = 0u32;
    for row in 0..ROWS {
        let assignment: Vec<bool> = (0..VARS).map(|v| row >> v & 1 == 1).collect();
        if b.eval(f, &assignment) {
            t |= 1 << row;
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn semantics_match_truth_table(e in expr_strategy()) {
        let mut b = Bdd::default();
        let f = build(&mut b, &e);
        prop_assert_eq!(table_of_bdd(&b, f), truth_table(&e));
    }

    #[test]
    fn canonical_equality(a in expr_strategy(), c in expr_strategy()) {
        let mut b = Bdd::default();
        let fa = build(&mut b, &a);
        let fc = build(&mut b, &c);
        prop_assert_eq!(fa == fc, truth_table(&a) == truth_table(&c));
    }

    #[test]
    fn sat_count_matches(e in expr_strategy()) {
        let mut b = Bdd::default();
        let f = build(&mut b, &e);
        prop_assert_eq!(b.sat_count(f, VARS), truth_table(&e).count_ones() as u128);
        prop_assert_eq!(b.minterms(f, VARS).len(), truth_table(&e).count_ones() as usize);
    }

    #[test]
    fn exists_matches(e in expr_strategy(), v in 0u32..VARS) {
        let mut b = Bdd::default();
        let f = build(&mut b, &e);
        let ex = b.exists(f, v);
        let r0 = b.restrict(f, v, false);
        let r1 = b.restrict(f, v, true);
        let expect = b.or(r0, r1);
        prop_assert_eq!(ex, expect);
        let fa = b.forall(f, v);
        let expect_fa = b.and(r0, r1);
        prop_assert_eq!(fa, expect_fa);
    }

    #[test]
    fn implies_check_builds_nothing(a in expr_strategy(), c in expr_strategy()) {
        let mut b = Bdd::default();
        let f = build(&mut b, &a);
        let h = build(&mut b, &c);
        let f_or_h = b.or(f, h);
        let mut reference = Bdd::default();
        let rf = build(&mut reference, &a);
        let rh = build(&mut reference, &c);
        let rf_or_h = reference.or(rf, rh);
        let pairs = [
            ((f, h), (rf, rh)),
            ((h, f), (rh, rf)),
            ((f, f_or_h), (rf, rf_or_h)),
        ];
        for ((x, y), (rx, ry)) in pairs {
            let len = b.len();
            let leq = b.implies_check(x, y);
            prop_assert_eq!(b.len(), len);
            let imp = reference.implies(rx, ry);
            prop_assert_eq!(leq, imp.is_true());
        }
    }

    #[test]
    fn one_sat_is_satisfying(e in expr_strategy()) {
        let mut b = Bdd::default();
        let f = build(&mut b, &e);
        if let Some(path) = b.one_sat(f) {
            let mut assignment = vec![false; VARS as usize];
            for (v, val) in path {
                assignment[v as usize] = val;
            }
            prop_assert!(b.eval(f, &assignment));
        } else {
            prop_assert!(f.is_false());
        }
    }
}
