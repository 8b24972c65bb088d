//! Integration tests for the solver's telemetry stream: the event
//! sequence a [`RecordingProbe`] captures from a full `ZDD_SCG` solve
//! must be structurally well-formed (LIFO-balanced phases, per-ascent
//! monotone lower bounds) and the phase wall-clock breakdown must
//! account for essentially all of the solve time.

use cover::CoverMatrix;
use ucp_core::{Scg, SolveRequest};
use ucp_telemetry::{Event, Phase, RecordingProbe};

/// An odd cycle `C_n` as a covering matrix: row `i` is covered by
/// columns `i` and `i+1 (mod n)`, all costs 1. Irreducible, but the
/// Lagrangian bound is tight (`⌈n/2⌉`), so the solve usually certifies
/// optimality right after the initial ascent.
fn odd_cycle(n: usize) -> CoverMatrix {
    assert!(n % 2 == 1);
    CoverMatrix::from_rows(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
}

/// The Steiner triple system STS(9) (the 12 lines of AG(2,3)) as a
/// point-cover problem: hit every line with as few of the 9 points as
/// possible. The matrix is a pure cyclic core (no dominance, no
/// essentials) with a real duality gap — the LP/Lagrangian bound is 3
/// but the optimum cover needs 5 points — so the solver cannot certify
/// optimality at the bound and every constructive restart runs. This
/// makes it the right fixture for asserting on the full event stream.
fn sts9() -> CoverMatrix {
    let lines = vec![
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
    ];
    CoverMatrix::from_rows(9, lines)
}

/// `C_n` with a chord to `i + 3` in every row: unit costs, a duality gap
/// at `n = 30` (bound 10, cover 12), so all four Paper restarts run.
fn chorded_cycle(n: usize) -> CoverMatrix {
    CoverMatrix::from_rows(
        n,
        (0..n).map(|i| vec![i, (i + 1) % n, (i + 3) % n]).collect(),
    )
}

fn solve_recorded(m: &CoverMatrix) -> (RecordingProbe, ucp_core::ScgOutcome) {
    solve_recorded_on(m, 0)
}

fn solve_recorded_on(m: &CoverMatrix, workers: usize) -> (RecordingProbe, ucp_core::ScgOutcome) {
    let mut probe = RecordingProbe::new();
    let out = Scg::run(
        SolveRequest::for_matrix(m)
            .workers(workers)
            .probe(&mut probe),
    )
    .unwrap();
    (probe, out)
}

#[test]
fn phases_are_lifo_balanced() {
    let (probe, out) = solve_recorded(&sts9());
    assert!(!out.infeasible);
    let mut stack: Vec<Phase> = Vec::new();
    let mut pairs = 0usize;
    for te in probe.events() {
        match te.event {
            Event::PhaseBegin { phase } => stack.push(phase),
            Event::PhaseEnd { phase, .. } => {
                let open = stack
                    .pop()
                    .unwrap_or_else(|| panic!("PhaseEnd({phase:?}) with no open phase"));
                assert_eq!(open, phase, "phases must close in LIFO order");
                pairs += 1;
            }
            _ => {}
        }
    }
    assert!(
        stack.is_empty(),
        "unclosed phases at end of solve: {stack:?}"
    );
    assert!(pairs >= Phase::ALL.len(), "expected every phase to appear");
}

#[test]
fn lower_bound_is_monotone_within_each_ascent() {
    let (probe, _) = solve_recorded(&sts9());
    // Each subgradient ascent (the initial one and the per-run nested
    // ones, which work on different reduced subproblems) reports its own
    // running-best lower bound; within one ascent it never decreases.
    let mut prev: Option<f64> = None;
    let mut ascents = 0usize;
    let mut iters = 0usize;
    for te in probe.events() {
        match te.event {
            Event::PhaseBegin {
                phase: Phase::Subgradient,
            } => {
                prev = None;
                ascents += 1;
            }
            Event::SubgradientIter { lb, .. } => {
                if let Some(p) = prev {
                    assert!(
                        lb >= p,
                        "lower bound regressed within an ascent: {p} -> {lb}"
                    );
                }
                prev = Some(lb);
                iters += 1;
            }
            _ => {}
        }
    }
    assert!(ascents >= 1, "no subgradient phase recorded");
    assert!(iters > 0, "no subgradient iterations recorded");
}

#[test]
fn restarts_bracket_and_track_the_incumbent() {
    let (probe, out) = solve_recorded(&sts9());
    let mut open: Option<usize> = None;
    let mut runs = 0usize;
    let mut last_best = f64::INFINITY;
    for te in probe.events() {
        match te.event {
            Event::RestartBegin { run, .. } => {
                assert!(open.is_none(), "restart {run} began inside another");
                open = Some(run);
            }
            Event::RestartEnd {
                run,
                cost,
                best_cost,
                ..
            } => {
                assert_eq!(open.take(), Some(run), "unmatched RestartEnd");
                assert!(best_cost <= cost, "incumbent worse than the run's cover");
                assert!(best_cost <= last_best, "incumbent cost increased");
                last_best = best_cost;
                runs += 1;
            }
            _ => {}
        }
    }
    assert!(open.is_none());
    assert_eq!(runs, out.iterations, "one begin/end pair per restart");
    assert_eq!(last_best, out.cost, "final incumbent matches the outcome");
}

#[test]
fn phase_breakdown_accounts_for_the_solve() {
    for (name, m, workers) in [
        ("inline C101", odd_cycle(101), 1),
        ("pooled", chorded_cycle(30), 2),
    ] {
        let (probe, out) = solve_recorded_on(&m, workers);
        if name == "pooled" {
            assert_eq!(out.restart_workers, 2, "the restarts ran pooled");
            assert!(out.iterations > 1);
        }
        let total = out.total_time.as_secs_f64();
        let sum = out.phase_times.total();
        // Acceptance bar from the telemetry design: the six phases tile
        // the solve, so their sum stays within 5% of the measured wall
        // clock — pooled tasks included, whose seconds are wall shares.
        assert!(
            (sum - total).abs() <= 0.05 * total.max(1e-6),
            "{name}: phase sum {sum}s vs solve total {total}s"
        );
        // The probe's reconstruction from PhaseEnd events agrees with the
        // breakdown the outcome carries (nested ascent seconds are
        // *moved* between phases in the outcome, so totals — not slots —
        // match).
        let rebuilt = probe.phase_times();
        assert!(
            (rebuilt.total() - sum).abs() <= 0.05 * total.max(1e-6),
            "{name}: probe-rebuilt total {} vs outcome total {sum}",
            rebuilt.total()
        );
    }
}

#[test]
fn noop_and_recording_solves_agree() {
    let m = odd_cycle(21);
    let plain = Scg::run(SolveRequest::for_matrix(&m)).unwrap();
    let (_, recorded) = solve_recorded(&m);
    // Instrumentation must not perturb the algorithm: same seed, same
    // deterministic trajectory, same answer.
    assert_eq!(plain.cost, recorded.cost);
    assert_eq!(plain.lower_bound, recorded.lower_bound);
    assert_eq!(plain.iterations, recorded.iterations);
    assert_eq!(
        plain.subgradient_iterations,
        recorded.subgradient_iterations
    );
    assert_eq!(plain.solution.cols(), recorded.solution.cols());
}
