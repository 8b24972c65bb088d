//! Property tests of the Lagrangian machinery against independent oracles:
//! the LP relaxation (exact simplex) and brute-force integer optima.

use cover::CoverMatrix;
use lp::DenseLp;
use proptest::prelude::*;
use ucp_core::dual::{dual_ascent, is_dual_feasible};
use ucp_core::penalty::{dual_penalties, lagrangian_penalties};
use ucp_core::relax::eval_primal;
use ucp_core::{subgradient_ascent, Constraints, SubgradientOptions};
use ucp_telemetry::NoopProbe;

fn brute(m: &CoverMatrix) -> f64 {
    let n = m.num_cols();
    let mut best = f64::INFINITY;
    'mask: for mask in 0u32..(1 << n) {
        for row in m.rows() {
            if !row.iter().any(|&j| mask >> j & 1 == 1) {
                continue 'mask;
            }
        }
        let c: f64 = (0..n)
            .filter(|&j| mask >> j & 1 == 1)
            .map(|j| m.cost(j))
            .sum();
        best = best.min(c);
    }
    best
}

/// Brute force with forced inclusions/exclusions.
fn brute_restricted(m: &CoverMatrix, fix_in: &[usize], fix_out: &[usize]) -> f64 {
    let n = m.num_cols();
    let mut best = f64::INFINITY;
    'mask: for mask in 0u32..(1 << n) {
        for &j in fix_in {
            if mask >> j & 1 == 0 {
                continue 'mask;
            }
        }
        for &j in fix_out {
            if mask >> j & 1 == 1 {
                continue 'mask;
            }
        }
        for row in m.rows() {
            if !row.iter().any(|&j| mask >> j & 1 == 1) {
                continue 'mask;
            }
        }
        let c: f64 = (0..n)
            .filter(|&j| mask >> j & 1 == 1)
            .map(|j| m.cost(j))
            .sum();
        best = best.min(c);
    }
    best
}

fn instance_strategy() -> impl Strategy<Value = CoverMatrix> {
    (3usize..=9).prop_flat_map(|cols| {
        let row = prop::collection::btree_set(0..cols, 1..=cols.min(4));
        let rows = prop::collection::vec(row, 2..=10);
        let costs = prop::collection::vec(1u8..=4, cols);
        (rows, costs).prop_map(move |(rows, costs)| {
            CoverMatrix::with_costs(
                cols,
                rows.into_iter().map(|r| r.into_iter().collect()).collect(),
                costs.into_iter().map(f64::from).collect(),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lagrangian_bound_below_lp_optimum(m in instance_strategy()) {
        let r = subgradient_ascent(&m, &SubgradientOptions::default(), &Constraints::unate(), None, None, &mut NoopProbe);
        let lp = DenseLp::covering(m.num_cols(), m.rows(), m.costs())
            .solve()
            .expect("coverable");
        prop_assert!(r.lb <= lp.objective + 1e-5,
            "Lagrangian LB {} exceeds LP optimum {}", r.lb, lp.objective);
        // And the heuristic solution is integer-feasible above the LP.
        prop_assert!(r.best_cost >= lp.objective - 1e-6);
    }

    #[test]
    fn lagrangian_value_valid_for_any_multipliers(
        m in instance_strategy(),
        raw in prop::collection::vec(0.0f64..3.0, 10)
    ) {
        // z_LP(λ) ≤ z* for arbitrary non-negative λ — not just optimised ones.
        let lambda: Vec<f64> = (0..m.num_rows()).map(|i| raw[i % raw.len()]).collect();
        let eval = eval_primal(&m, &lambda);
        let opt = brute(&m);
        prop_assert!(eval.value <= opt + 1e-9,
            "z_LP(λ) = {} exceeds optimum {}", eval.value, opt);
    }

    #[test]
    fn dual_ascent_always_feasible_and_valid(m in instance_strategy()) {
        let d = dual_ascent(&m, m.costs(), None);
        prop_assert!(is_dual_feasible(&m, m.costs(), &d.m));
        let opt = brute(&m);
        prop_assert!(d.value <= opt + 1e-9,
            "dual value {} exceeds optimum {}", d.value, opt);
    }

    #[test]
    fn lagrangian_penalties_preserve_strictly_better_solutions(m in instance_strategy()) {
        // The contract of eqs. (3)-(4): every solution *strictly better than
        // the incumbent value ub* survives the fixes. With ub = opt + 1 the
        // optimum itself must survive; with ub = opt only ties may be lost,
        // so the restricted optimum can only grow.
        let opt = brute(&m);
        let r = subgradient_ascent(&m, &SubgradientOptions::default(), &Constraints::unate(), None, None, &mut NoopProbe);
        let pen = lagrangian_penalties(&r.c_tilde, r.lb, opt + 1.0);
        let restricted = brute_restricted(&m, &pen.fix_in, &pen.fix_out);
        prop_assert_eq!(restricted, opt,
            "penalties destroyed a strictly-better solution: fix_in {:?}, fix_out {:?}",
            pen.fix_in, pen.fix_out);

        let pen_tight = lagrangian_penalties(&r.c_tilde, r.lb, opt);
        let restricted_tight = brute_restricted(&m, &pen_tight.fix_in, &pen_tight.fix_out);
        prop_assert!(restricted_tight >= opt - 1e-9,
            "restricted problem beat the optimum?!");
    }

    #[test]
    fn dual_penalties_preserve_strictly_better_solutions(m in instance_strategy()) {
        let opt = brute(&m);
        let base = dual_ascent(&m, m.costs(), None).m;
        let pen = dual_penalties(&m, &base, opt + 1.0);
        if pen.no_improvement_possible {
            // Would mean even opt+1 is unreachable — impossible since the
            // optimum costs opt < opt + 1.
            prop_assert!(false, "no_improvement_possible against ub = opt + 1");
        }
        let restricted = brute_restricted(&m, &pen.fix_in, &pen.fix_out);
        prop_assert_eq!(restricted, opt,
            "dual penalties destroyed a strictly-better solution: fix_in {:?}, fix_out {:?}",
            pen.fix_in, pen.fix_out);
    }

    #[test]
    fn warm_start_never_invalidates_bound(m in instance_strategy()) {
        // A warm start from garbage multipliers must still give a valid LB.
        let garbage: Vec<f64> = (0..m.num_rows()).map(|i| (i % 7) as f64).collect();
        let r = subgradient_ascent(&m, &SubgradientOptions::default(), &Constraints::unate(), Some(&garbage), None, &mut NoopProbe);
        let opt = brute(&m);
        prop_assert!(r.lb <= opt + 1e-9);
        if let Some(sol) = &r.best_solution {
            prop_assert!(sol.is_feasible(&m));
        }
    }
}
