//! Integration tests for the restart scheduler: the answer must be
//! byte-identical for every worker count, the reduce stage must run
//! exactly once per solve, telemetry must merge cleanly across workers,
//! and one `time_limit` deadline must span all partition blocks.

use std::time::{Duration, Instant};
use ucp::cover::CoverMatrix;
use ucp::ucp_core::{Preset, Scg, ScgOptions, SolveRequest};
use ucp::ucp_telemetry::{Event, Phase, RecordingProbe};
use ucp::workloads::suite;

/// Worker counts every scheduler test runs at: inline, a pool smaller
/// than, close to and larger than the task count.
const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// The Steiner triple system STS(9) as a point-cover problem. Its
/// Lagrangian bound (3) sits strictly below the optimum cover (5), so
/// no restart can certify at the bound floor and the whole `NumIter`
/// schedule runs — the right fixture for exercising worker pools.
fn sts9_rows() -> Vec<Vec<usize>> {
    vec![
        vec![0, 1, 2],
        vec![3, 4, 5],
        vec![6, 7, 8],
        vec![0, 3, 6],
        vec![1, 4, 7],
        vec![2, 5, 8],
        vec![0, 4, 8],
        vec![1, 5, 6],
        vec![2, 3, 7],
        vec![0, 5, 7],
        vec![1, 3, 8],
        vec![2, 4, 6],
    ]
}

fn sts9() -> CoverMatrix {
    CoverMatrix::from_rows(9, sts9_rows())
}

/// `k` disjoint copies of STS(9): reduction-stable (no rule crosses
/// components), so the cyclic core partitions into `k` blocks that the
/// engine solves independently.
fn sts9_blocks(k: usize) -> CoverMatrix {
    let mut rows = Vec::new();
    for b in 0..k {
        for line in sts9_rows() {
            rows.push(line.into_iter().map(|j| j + 9 * b).collect());
        }
    }
    CoverMatrix::from_rows(9 * k, rows)
}

fn opts_with(workers: usize, num_iter: usize) -> ScgOptions {
    ScgOptions {
        workers,
        num_iter,
        ..ScgOptions::default()
    }
}

fn run_with(m: &CoverMatrix, workers: usize, num_iter: usize) -> ucp::ucp_core::ScgOutcome {
    Scg::run(SolveRequest::for_matrix(m).options(opts_with(workers, num_iter))).unwrap()
}

#[test]
fn worker_count_never_changes_the_answer() {
    // The tasks are the 12 restarts of the connected core, or the three
    // blocks of the partitioned one.
    for (m, tasks) in [(sts9(), 12), (sts9_blocks(3), 3)] {
        let base = run_with(&m, 1, 12);
        assert!(base.solution.is_feasible(&m));
        for workers in WORKER_COUNTS {
            let par = run_with(&m, workers, 12);
            assert_eq!(base.cost, par.cost, "cost diverged at {workers} workers");
            assert_eq!(
                base.solution.cols(),
                par.solution.cols(),
                "solution diverged at {workers} workers"
            );
            assert_eq!(base.lower_bound, par.lower_bound);
            assert_eq!(base.iterations, par.iterations);
            assert_eq!(par.restart_workers, workers.min(tasks));
        }
    }
}

/// A difficult core at the Paper preset: two workers get a pool of two,
/// whatever the core's size, and return the inline answer.
#[test]
fn two_workers_pool_the_paper_restarts_on_exam() {
    let exam = suite::difficult_cyclic()
        .into_iter()
        .find(|inst| inst.name == "exam")
        .expect("exam is a difficult core");
    let run = |workers| {
        Scg::run(
            SolveRequest::for_matrix(&exam.matrix)
                .preset(Preset::Paper)
                .workers(workers),
        )
        .unwrap()
    };
    let (serial, pooled) = (run(1), run(2));
    assert_eq!(serial.restart_workers, 1);
    assert_eq!(pooled.restart_workers, 2);
    assert_eq!(pooled.cost, serial.cost);
    assert_eq!(pooled.solution.cols(), serial.solution.cols());
    assert_eq!(pooled.lower_bound, serial.lower_bound);
    assert_eq!(pooled.iterations, serial.iterations);
}

#[test]
fn reduce_stage_runs_exactly_once_with_a_worker_pool() {
    let m = sts9_blocks(3);
    let mut probe = RecordingProbe::new();
    let par = Scg::run(
        SolveRequest::for_matrix(&m)
            .options(opts_with(8, 8))
            .probe(&mut probe),
    )
    .unwrap();
    let (mut implicit, mut explicit) = (0usize, 0usize);
    for te in probe.events() {
        if let Event::PhaseBegin { phase } = te.event {
            match phase {
                Phase::ImplicitReduction => implicit += 1,
                Phase::ExplicitReduction => explicit += 1,
                _ => {}
            }
        }
    }
    assert_eq!(implicit, 1, "implicit reduction must run once per solve");
    assert_eq!(explicit, 1, "explicit reduction must run once per solve");
    // The ZDD counters describe that single reduction, so they cannot
    // depend on the worker count.
    let serial = run_with(&m, 1, 8);
    assert_eq!(par.zdd_stats, serial.zdd_stats);
}

#[test]
fn parallel_trace_is_ordered_and_worker_tagged() {
    let m = sts9();
    for workers in WORKER_COUNTS {
        let mut probe = RecordingProbe::new();
        let out = Scg::run(
            SolveRequest::for_matrix(&m)
                .options(opts_with(workers, 10))
                .probe(&mut probe),
        )
        .unwrap();
        let mut expected_run = 1usize;
        let mut last_best = f64::INFINITY;
        let mut ends = 0usize;
        for te in probe.events() {
            match te.event {
                Event::RestartBegin { run, worker } => {
                    assert_eq!(run, expected_run, "restarts must replay in run order");
                    assert!(worker < workers, "worker tag {worker} outside the pool");
                }
                Event::RestartEnd {
                    run,
                    cost,
                    best_cost,
                    ..
                } => {
                    assert_eq!(run, expected_run);
                    expected_run += 1;
                    ends += 1;
                    assert!(best_cost <= cost, "incumbent worse than the run's cover");
                    assert!(best_cost <= last_best, "merged best_cost not monotone");
                    last_best = best_cost;
                }
                _ => {}
            }
        }
        assert_eq!(ends, out.iterations, "one begin/end pair per restart");
        assert_eq!(last_best, out.cost, "final incumbent matches the outcome");
    }
}

#[test]
fn recording_a_parallel_solve_does_not_perturb_it() {
    let m = sts9_blocks(2);
    let plain = run_with(&m, 4, 8);
    let mut probe = RecordingProbe::new();
    let recorded = Scg::run(
        SolveRequest::for_matrix(&m)
            .options(opts_with(4, 8))
            .probe(&mut probe),
    )
    .unwrap();
    assert_eq!(plain.cost, recorded.cost);
    assert_eq!(plain.solution.cols(), recorded.solution.cols());
    assert_eq!(plain.lower_bound, recorded.lower_bound);
    assert_eq!(plain.iterations, recorded.iterations);
    assert!(
        !probe.events().is_empty(),
        "recorded trace must not be empty"
    );
}

#[test]
fn one_deadline_spans_all_partition_blocks() {
    // Six gap blocks and a restart schedule far too long for the budget.
    // The old per-block accounting gave every block its own full budget
    // (≥ 6 × limit in the worst case); the shared deadline must finish in
    // roughly one budget plus a restart's slack, and still return the
    // feasible cover built from each block's initial ascent.
    let m = sts9_blocks(6);
    let budget = Duration::from_millis(500);
    for workers in WORKER_COUNTS {
        let opts = ScgOptions {
            time_limit: Some(budget),
            ..opts_with(workers, 50_000)
        };
        let start = Instant::now();
        let out = Scg::run(SolveRequest::for_matrix(&m).options(opts)).unwrap();
        let elapsed = start.elapsed();
        assert!(out.solution.is_feasible(&m));
        assert!(
            elapsed < budget * 3,
            "solve took {elapsed:?} against a {budget:?} shared budget at {workers} workers"
        );
    }
}

/// The connected-core variant: one core, the restarts themselves are the
/// pooled tasks, and the deadline still ends the stage.
#[test]
fn one_deadline_spans_all_pooled_restarts() {
    let m = sts9();
    let budget = Duration::from_millis(300);
    for workers in WORKER_COUNTS {
        let opts = ScgOptions {
            time_limit: Some(budget),
            ..opts_with(workers, 5_000_000)
        };
        let start = Instant::now();
        let out = Scg::run(SolveRequest::for_matrix(&m).options(opts)).unwrap();
        let elapsed = start.elapsed();
        assert!(out.solution.is_feasible(&m));
        assert!(
            elapsed < budget * 3,
            "solve took {elapsed:?} against a {budget:?} budget at {workers} workers"
        );
    }
}
