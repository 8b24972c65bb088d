//! End-to-end trace analytics: a solve streamed through [`JsonlSink`]
//! must round-trip through `parse_trace` + [`TraceSummary`] into exactly
//! the numbers the solve itself reported in [`ScgOutcome`] — the offline
//! `ucp trace` profile and the live `--stats` report are two views of the
//! same data and may never disagree.

use ucp::cover::CoverMatrix;
use ucp::ucp_core::{Preset, Scg, SolveRequest};
use ucp::ucp_telemetry::{folded_stacks, parse_trace, JsonlSink, Phase, TraceSummary};

fn cyclic(n: usize) -> CoverMatrix {
    CoverMatrix::from_rows(
        n,
        (0..n).map(|i| vec![i, (i + 1) % n, (i + 3) % n]).collect(),
    )
}

/// Solves with a JSONL sink wired exactly like `ucp solve --trace`
/// (run_header + events + result line) and returns the raw trace bytes
/// alongside the outcome.
fn traced_solve(m: &CoverMatrix) -> (Vec<u8>, ucp::ucp_core::ScgOutcome) {
    traced_solve_with(m, Preset::Fast, 0)
}

/// [`traced_solve`] at any preset and worker count.
fn traced_solve_with(
    m: &CoverMatrix,
    preset: Preset,
    workers: usize,
) -> (Vec<u8>, ucp::ucp_core::ScgOutcome) {
    let mut buf = Vec::new();
    let mut sink = JsonlSink::new(&mut buf);
    sink.write_line("run_header", |o| {
        o.field_str("instance", "cyclic");
        o.field_u64("rows", m.num_rows() as u64);
        o.field_u64("cols", m.num_cols() as u64);
    });
    let out = Scg::run(
        SolveRequest::for_matrix(m)
            .preset(preset)
            .workers(workers)
            .seed(7)
            .probe(&mut sink),
    )
    .expect("no cancel flag");
    sink.write_line("result", |o| {
        o.field_f64("cost", out.cost);
        o.field_f64("lower_bound", out.lower_bound);
        o.field_bool("proven_optimal", out.proven_optimal);
        o.field_bool("infeasible", out.infeasible);
        o.field_f64("total_seconds", out.total_time.as_secs_f64());
        o.field_raw("phase_times", &out.phase_times.to_json());
    });
    sink.finish().expect("in-memory sink never fails");
    (buf, out)
}

/// Asserts that the trace's `phase_end` seconds add up to the outcome's
/// phase breakdown, phase by phase. Summation order may differ (the
/// outcome merges per-block/per-worker accumulators, and pooled tasks'
/// seconds are rescaled to wall-clock shares on both sides), so agreement
/// is to float round-off, far below the 0.1ms the `--stats` table prints.
fn assert_phases_agree(summary: &TraceSummary, out: &ucp::ucp_core::ScgOutcome) {
    for phase in Phase::ALL {
        let (traced, lived) = (summary.phase_times.get(phase), out.phase_times.get(phase));
        assert!(
            (traced - lived).abs() < 1e-9,
            "phase {} diverged between trace ({traced}) and outcome ({lived})",
            phase.name()
        );
    }
}

#[test]
fn trace_summary_reconciles_with_the_outcome() {
    let m = cyclic(14);
    let (bytes, out) = traced_solve(&m);
    let events = parse_trace(bytes.as_slice()).expect("trace parses");
    let summary = TraceSummary::from_events(&events);
    assert_phases_agree(&summary, &out);

    // A pooled solve's trace replays rescaled `phase_end` events: it
    // agrees with its outcome too.
    let (bytes, pooled) = traced_solve_with(&cyclic(30), Preset::Paper, 2);
    assert_eq!(pooled.restart_workers, 2, "the restarts ran pooled");
    let events = parse_trace(bytes.as_slice()).expect("pooled trace parses");
    assert_phases_agree(&TraceSummary::from_events(&events), &pooled);

    // Subgradient work: the ascent-delimited count in the trace is the
    // exact number of iterations the solve reported.
    let sub = summary.subgradient.expect("solve ran the ascent");
    assert_eq!(sub.iterations, out.subgradient_iterations);
    assert_eq!(sub.events, out.subgradient_iterations, "dense trace");

    // The result line round-trips the outcome.
    let r = summary.result.expect("result line present");
    assert_eq!(r.cost, out.cost);
    assert_eq!(r.lower_bound, out.lower_bound);
    assert_eq!(r.proven_optimal, out.proven_optimal);
    assert_eq!(r.total_seconds, out.total_time.as_secs_f64());

    assert_eq!(summary.restarts, out.iterations);
}

#[test]
fn sampled_trace_keeps_exact_iteration_counts() {
    let m = cyclic(14);
    // Dense reference run, then a sampled run with the same seed: the
    // trace thins but the derived iteration count must not change.
    let (_, dense) = traced_solve(&m);
    let mut buf = Vec::new();
    let mut sink = JsonlSink::new(&mut buf);
    let out = Scg::run(
        SolveRequest::for_matrix(&m)
            .preset(Preset::Fast)
            .seed(7)
            .trace_every(25)
            .probe(&mut sink),
    )
    .expect("no cancel flag");
    sink.finish().expect("in-memory sink never fails");
    assert_eq!(out.cost, dense.cost, "sampling must not change the solve");

    let events = parse_trace(buf.as_slice()).expect("sampled trace parses");
    let sub = TraceSummary::from_events(&events)
        .subgradient
        .expect("iteration events present");
    assert_eq!(sub.iterations, out.subgradient_iterations);
    assert!(
        sub.events < sub.iterations,
        "trace_every(25) should thin the {} iterations, kept {}",
        sub.iterations,
        sub.events
    );
}

#[test]
fn folded_stacks_cover_the_whole_solve() {
    let m = cyclic(14);
    let (bytes, out) = traced_solve(&m);
    let events = parse_trace(bytes.as_slice()).expect("trace parses");
    let folded = folded_stacks(&events);
    assert!(!folded.is_empty());
    // Every line is flamegraph input: a semicolon-joined stack rooted at
    // `solve`, a space, an integer count.
    let mut total_us = 0u64;
    for (path, us) in &folded {
        assert!(path == "solve" || path.starts_with("solve;"), "{path}");
        assert!(!path.contains(' '));
        total_us += us;
    }
    // Exclusive frames cover at least the solve's wall clock: the root
    // absorbs time outside any phase, so the sum can't undershoot. It
    // *can* overshoot — nested re-ascents inside constructive runs are
    // CPU seconds, which exceed the wall clock exactly as repeated
    // calls do in a real profile — so there is no upper bound to check.
    let total = out.total_time.as_secs_f64();
    let sum = total_us as f64 / 1e6;
    assert!(
        sum >= total - 1e-3,
        "folded frames sum to {sum}s, below the solve's {total}s"
    );
    // The ascent dominates this instance; its frame must be present.
    assert!(folded
        .iter()
        .any(|(p, us)| p.ends_with(";subgradient") && *us > 0));
}
