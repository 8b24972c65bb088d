//! Equivalence suite for the sparse CSR/CSC subgradient rework: the live
//! inner loop (`subgradient_ascent`, incremental reduced costs, reusable
//! scratch buffers) must reproduce the preserved dense reference
//! implementations (`ucp_core::reference`) **bit for bit** — every float
//! equal down to its representation, every cover identical, every
//! iteration count the same.
//!
//! The `b_i ≡ 1` proof for the constrained loop lives in ucp-core's own
//! tests (`subgradient::unit_demand_tests`): the public entry point sends
//! all-ones coverage to the unate loop, so only the internal loop can
//! witness it. Here the constrained ascent is checked for a valid bound
//! under real multicover demand.

use proptest::prelude::*;
use ucp::cover::CoverMatrix;
use ucp::ucp_core::reference::{
    eval_dual_lagrangian_dense, eval_primal_dense, subgradient_ascent_dense,
};
use ucp::ucp_core::relax::eval_primal;
use ucp::ucp_core::{subgradient_ascent, SubgradientOptions};
use ucp::ucp_core::{Constraints, GubGroup};
use ucp::ucp_telemetry::NoopProbe;
use ucp::workloads::suite;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs both paths and asserts the full results are bit-identical.
fn assert_equiv(
    name: &str,
    m: &CoverMatrix,
    opts: &SubgradientOptions,
    lambda0: Option<&[f64]>,
    ub_hint: Option<f64>,
) {
    let live = subgradient_ascent(
        m,
        opts,
        &Constraints::unate(),
        lambda0,
        ub_hint,
        &mut NoopProbe,
    );
    let dense = subgradient_ascent_dense(m, opts, lambda0, ub_hint);
    assert_eq!(live.iterations, dense.iterations, "{name}: iterations");
    assert_eq!(live.lb.to_bits(), dense.lb.to_bits(), "{name}: lb");
    assert_eq!(live.ub_ld.to_bits(), dense.ub_ld.to_bits(), "{name}: ub_ld");
    assert_eq!(
        live.best_cost.to_bits(),
        dense.best_cost.to_bits(),
        "{name}: best_cost"
    );
    assert_eq!(live.proven_optimal, dense.proven_optimal, "{name}: flag");
    assert_eq!(bits(&live.lambda), bits(&dense.lambda), "{name}: lambda");
    assert_eq!(bits(&live.mu), bits(&dense.mu), "{name}: mu");
    assert_eq!(bits(&live.c_tilde), bits(&dense.c_tilde), "{name}: c_tilde");
    assert_eq!(
        live.best_solution.as_ref().map(|s| s.cols().to_vec()),
        dense.best_solution.as_ref().map(|s| s.cols().to_vec()),
        "{name}: cover"
    );
    assert_eq!(live.history, dense.history, "{name}: history");
}

fn cycle(n: usize) -> CoverMatrix {
    CoverMatrix::from_rows(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
}

#[test]
fn cycles_match_dense_bit_for_bit() {
    let opts = SubgradientOptions {
        record_history: true,
        ..SubgradientOptions::default()
    };
    for n in [5usize, 7, 9, 11, 15] {
        assert_equiv(&format!("C{n}"), &cycle(n), &opts, None, None);
    }
}

#[test]
fn suite_instances_match_dense_bit_for_bit() {
    let opts = SubgradientOptions::default();
    for inst in suite::easy_cyclic() {
        assert_equiv(&inst.name, &inst.matrix, &opts, None, None);
    }
    // A few of the difficult cores too (the dense oracle is the slow
    // side, so not all seven).
    for inst in suite::difficult_cyclic().into_iter().take(3) {
        assert_equiv(&inst.name, &inst.matrix, &opts, None, None);
    }
}

#[test]
fn occurrence_rule_and_options_match_dense() {
    let m = cycle(9);
    assert_equiv(
        "occurrence",
        &m,
        &SubgradientOptions {
            occurrence_heuristic: true,
            ..SubgradientOptions::default()
        },
        None,
        None,
    );
    // The default schedule (every 20th and every bound-improving
    // iteration) runs above; period 1 is the every-iteration greedy.
    assert_equiv(
        "period-1",
        &m,
        &SubgradientOptions {
            heuristic_period: 1,
            ..SubgradientOptions::default()
        },
        None,
        None,
    );
    assert_equiv(
        "period-3",
        &m,
        &SubgradientOptions {
            heuristic_period: 3,
            ..SubgradientOptions::default()
        },
        None,
        None,
    );
    assert_equiv(
        "period-0",
        &m,
        &SubgradientOptions {
            heuristic_period: 0,
            ..SubgradientOptions::default()
        },
        None,
        None,
    );
    assert_equiv(
        "capped",
        &m,
        &SubgradientOptions {
            max_iters: 7,
            ..SubgradientOptions::default()
        },
        None,
        None,
    );
}

#[test]
fn warm_start_and_ub_hint_match_dense() {
    let m = cycle(11);
    let lambda0: Vec<f64> = (0..11).map(|i| 0.25 + 0.1 * (i % 3) as f64).collect();
    let opts = SubgradientOptions {
        record_history: true,
        ..SubgradientOptions::default()
    };
    assert_equiv("warm", &m, &opts, Some(&lambda0), None);
    assert_equiv("hint", &m, &opts, None, Some(6.0));
    assert_equiv("warm+hint", &m, &opts, Some(&lambda0), Some(6.0));
}

#[test]
fn one_shot_evaluations_match_dense() {
    let m = CoverMatrix::with_costs(
        5,
        vec![vec![0, 1, 4], vec![2], vec![1, 3], vec![], vec![0, 2, 3]],
        vec![1.0, 3.0, 2.0, 5.0, 1.0],
    );
    let lambda = [0.5, 0.0, 1.25, 0.75, 2.0];
    let live = eval_primal(&m, &lambda);
    let dense = eval_primal_dense(&m, &lambda);
    assert_eq!(live.value.to_bits(), dense.value.to_bits());
    assert_eq!(bits(&live.c_tilde), bits(&dense.c_tilde));
    assert_eq!(live.p, dense.p);
    assert_eq!(bits(&live.subgradient), bits(&dense.subgradient));
    assert_eq!(live.subgradient_norm2, dense.subgradient_norm2);
    assert_eq!(live.violated, dense.violated);

    let mu = [0.0, 0.4, 1.0, 0.9, 0.1];
    let live_d = ucp::ucp_core::dual::eval_dual_lagrangian(&m, m.costs(), &mu);
    let dense_d = eval_dual_lagrangian_dense(&m, m.costs(), &mu);
    assert_eq!(live_d.value.to_bits(), dense_d.value.to_bits());
    assert_eq!(bits(&live_d.m), bits(&dense_d.m));
    assert_eq!(bits(&live_d.gradient), bits(&dense_d.gradient));
    assert_eq!(live_d.gradient_norm2, dense_d.gradient_norm2);
}

#[test]
fn multicover_relaxation_stays_a_valid_bound() {
    // With real multicover demands the constrained ascent is a different
    // problem; its LB must still never exceed the optimum. On C(n,2)
    // with b ≡ 2 the unique cover is all n columns.
    for n in [5usize, 9, 13] {
        let m = cycle(n);
        let cons = Constraints::new().coverage(vec![2; n]);
        let r = subgradient_ascent(
            &m,
            &SubgradientOptions::default(),
            &cons,
            None,
            None,
            &mut NoopProbe,
        );
        assert!(
            r.lb <= n as f64 + 1e-9,
            "C{n}: LB {} above optimum {n}",
            r.lb
        );
        let sol = r.best_solution.expect("the full column set is feasible");
        assert!(cons.is_satisfied(&m, &sol), "C{n}: cover violates demand");
        assert_eq!(
            r.best_cost, n as f64,
            "C{n}: only the full set covers twice"
        );
    }
    // GUB groups are ignored by the relaxation but enforced in the
    // greedy: the returned cover must honour them.
    let m = cycle(9);
    let cons = Constraints::new().gub_groups(vec![GubGroup::new(vec![0, 1, 2], 1)]);
    let r = subgradient_ascent(
        &m,
        &SubgradientOptions::default(),
        &cons,
        None,
        None,
        &mut NoopProbe,
    );
    if let Some(sol) = &r.best_solution {
        assert!(cons.is_satisfied(&m, sol), "cover violates the GUB bound");
    }
}

/// Random instances with empty rows (uncoverable), empty columns,
/// single-column rows and non-uniform costs.
fn instance_strategy() -> impl Strategy<Value = CoverMatrix> {
    (3usize..=9).prop_flat_map(move |cols| {
        let row = prop::collection::btree_set(0..cols, 0..=cols.min(4));
        let rows = prop::collection::vec(row, 1..=10);
        let costs = prop::collection::vec(1u8..=5, cols);
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_instances_match_dense(m in instance_strategy()) {
        let opts = SubgradientOptions {
            max_iters: 60,
            record_history: true,
            ..SubgradientOptions::default()
        };
        assert_equiv("random", &m, &opts, None, None);
    }

    #[test]
    fn random_warm_starts_match_dense(
        m in instance_strategy(),
        seeds in prop::collection::vec(0u8..=8, 10),
    ) {
        let lambda0: Vec<f64> = (0..m.num_rows())
            .map(|i| f64::from(seeds[i % seeds.len()]) / 4.0)
            .collect();
        let opts = SubgradientOptions {
            max_iters: 40,
            ..SubgradientOptions::default()
        };
        assert_equiv("random-warm", &m, &opts, Some(&lambda0), None);
    }

}
