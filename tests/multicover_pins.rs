//! Pinned multicover behaviour: exact outcomes of four crew-scheduling
//! instances at the Paper preset, and the halt contract of the
//! multicover path.
//!
//! The outcome pins record the constrained solver as it stands — a
//! jittered-ascent chain without fixing, penalties or repair — so any
//! change to that chain shows up here. A change that improves it on
//! purpose moves these values and updates them in the same commit.

use std::time::Duration;
use ucp::ucp_core::{CancelFlag, Preset, Scg, SolveError, SolveRequest};
use ucp::workloads::{crew_schedule, CostModel, CrewScheduleConfig, MulticoverInstance};

/// The crew shape `ucpbench`'s `cyclic-paper` workload solves.
fn bench_config() -> CrewScheduleConfig {
    CrewScheduleConfig {
        periods: 96,
        crews: 20,
        rosters_per_crew: 4,
        max_demand: 2,
        costs: CostModel::Uniform { max: 5 },
    }
}

fn request(inst: &MulticoverInstance) -> SolveRequest<'_> {
    SolveRequest::for_matrix(&inst.matrix)
        .preset(Preset::Paper)
        .constraints(inst.constraints.clone())
}

/// The hidden assignment: every crew's first roster.
fn first_rosters(crews: usize) -> Vec<usize> {
    (0..crews).map(|k| 4 * k).collect()
}

#[test]
fn crew_outcomes_are_pinned() {
    // (config, seed, cost, lower bound, iterations, subgradient iterations)
    let cases = [
        (bench_config(), 0, 224.0, 224.0, 1, 38),
        (CrewScheduleConfig::default(), 0, 123.0, 122.0, 4, 603),
        (CrewScheduleConfig::default(), 2, 122.0, 121.0, 4, 618),
        (CrewScheduleConfig::default(), 3, 112.0, 110.0, 4, 626),
    ];
    for (cfg, seed, cost, lb, iterations, sub_iters) in cases {
        let inst = crew_schedule(&cfg, seed);
        let name = format!("{} crews, seed {seed}", cfg.crews);
        let out = Scg::run(request(&inst)).expect("no deadline or cancel flag");
        assert!(!out.infeasible, "{name}");
        assert!(
            inst.constraints.is_satisfied(&inst.matrix, &out.solution),
            "{name}: cover violates its constraints"
        );
        assert_eq!(out.cost.to_bits(), f64::to_bits(cost), "{name}: cost");
        assert_eq!(out.lower_bound.to_bits(), f64::to_bits(lb), "{name}: LB");
        assert_eq!(out.proven_optimal, cost == lb, "{name}: certificate");
        assert_eq!(out.solution.cols(), first_rosters(cfg.crews), "{name}");
        assert_eq!(out.iterations, iterations, "{name}: iterations");
        assert_eq!(out.subgradient_iterations, sub_iters, "{name}: ascent");
        assert_eq!(
            (out.core_rows, out.core_cols),
            (inst.matrix.num_rows(), inst.matrix.num_cols()),
            "{name}: a multicover solve works on the whole instance"
        );
        assert_eq!(out.restart_workers, 1, "{name}");
    }
}

#[test]
fn multicover_solves_honour_deadline_and_cancellation() {
    let inst = crew_schedule(&CrewScheduleConfig::default(), 0);
    let expired = Scg::run(request(&inst).deadline(Duration::ZERO));
    assert_eq!(expired.unwrap_err(), SolveError::Expired);

    let flag = CancelFlag::new();
    flag.cancel();
    let cancelled = Scg::run(request(&inst).cancel(&flag));
    assert_eq!(cancelled.unwrap_err(), SolveError::Cancelled);
}
