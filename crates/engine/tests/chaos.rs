//! Engine chaos: a mixed batch of healthy, panicking, pre-cancelled and
//! already-expired jobs, with a failpoint stalling the reduction passes
//! to shuffle worker timing. Every job must resolve
//! to its own failure mode without contaminating a neighbour, and
//! [`EngineStats`] must reconcile exactly with the batch composition.

#![cfg(feature = "failpoints")]

use std::sync::Arc;
use std::time::Duration;

use ucp_core::{CancelFlag, Scg, ScgOptions, SolveRequest};
use ucp_engine::{Engine, EngineConfig, JobError, JobHandle};
use ucp_failpoints::{configure, FailConfig, FailScenario};
use ucp_telemetry::{Event, Probe};

/// A trace sink that detonates on the first event it sees.
struct PanicProbe;

impl Probe for PanicProbe {
    fn record(&mut self, _event: Event) {
        panic!("chaos probe detonated");
    }
}

fn cycle(n: usize) -> cover::CoverMatrix {
    cover::CoverMatrix::from_rows(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
}

/// 12-cycle plus chords: a core the reductions leave cyclic.
fn hard_matrix() -> cover::CoverMatrix {
    let n = 12usize;
    let mut rows: Vec<Vec<usize>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
    rows.push((0..n).step_by(2).collect());
    rows.push((0..n).step_by(3).collect());
    cover::CoverMatrix::from_rows(n, rows)
}

#[test]
fn mixed_chaos_batch_reconciles_exactly() {
    let _scenario = FailScenario::setup();
    let plain_m = Arc::new(cycle(9));
    let hard_m = Arc::new(hard_matrix());
    let opts = ScgOptions {
        num_iter: 20,
        ..ScgOptions::default()
    };
    let baseline = Scg::run(SolveRequest::for_shared(Arc::clone(&hard_m)).options(opts))
        .expect("unstalled baseline solves");
    // Stall the first 16 reduction passes by a millisecond each: perturbs
    // worker interleaving without changing any outcome.
    configure("cover::reduce_pass", FailConfig::sleep_ms(1).times(16));

    let engine = Engine::start(EngineConfig {
        workers: 4,
        queue_capacity: 32,
    });
    let mut plain: Vec<JobHandle> = Vec::new();
    let mut hard: Vec<JobHandle> = Vec::new();
    let mut panicking: Vec<JobHandle> = Vec::new();
    let mut cancelled: Vec<JobHandle> = Vec::new();
    let mut expired: Vec<JobHandle> = Vec::new();
    // Round-robin submission so the failure modes interleave in the
    // queue instead of arriving in tidy blocks.
    for i in 0..8 {
        plain.push(
            engine
                .submit(SolveRequest::for_shared(Arc::clone(&plain_m)).options(opts))
                .unwrap(),
        );
        if i >= 6 {
            continue;
        }
        hard.push(
            engine
                .submit(SolveRequest::for_shared(Arc::clone(&hard_m)).options(opts))
                .unwrap(),
        );
        panicking.push(
            engine
                .submit(
                    SolveRequest::for_shared(Arc::clone(&plain_m))
                        .options(opts)
                        .trace_sink(Box::new(PanicProbe)),
                )
                .unwrap(),
        );
        let pre_tripped = CancelFlag::new();
        pre_tripped.cancel();
        cancelled.push(
            engine
                .submit(
                    SolveRequest::for_shared(Arc::clone(&plain_m))
                        .options(opts)
                        .cancel(&pre_tripped),
                )
                .unwrap(),
        );
        expired.push(
            engine
                .submit(
                    SolveRequest::for_shared(Arc::clone(&plain_m))
                        .options(opts)
                        .deadline(Duration::from_nanos(1)),
                )
                .unwrap(),
        );
    }

    for job in plain {
        let out = job.wait().expect("plain job completes");
        assert!(out.solution.is_feasible(&plain_m));
    }
    for job in hard {
        let out = job.wait().expect("hard job completes");
        assert_eq!(out.cost, baseline.cost, "the stalls changed the cover cost");
        assert_eq!(out.solution.cols(), baseline.solution.cols());
    }
    for job in panicking {
        match job.wait() {
            Err(JobError::Panicked(msg)) => {
                assert!(msg.contains("detonated"), "got: {msg}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
    for job in cancelled {
        assert_eq!(job.wait().unwrap_err(), JobError::Cancelled);
    }
    for job in expired {
        assert_eq!(job.wait().unwrap_err(), JobError::Expired);
    }

    // Every handle has resolved, so the registry is quiescent: the
    // metric families must reconcile exactly with the flat stats.
    let stats_before = engine.stats();
    let snap = engine.metrics_snapshot();
    let counter = |name: &str| -> u64 {
        snap.iter()
            .find(|s| s.name == name)
            .and_then(|s| s.as_counter())
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    let histogram = |name: &str| {
        snap.iter()
            .find(|s| s.name == name)
            .and_then(|s| s.as_histogram())
            .unwrap_or_else(|| panic!("missing histogram {name}"))
            .clone()
    };
    assert_eq!(
        counter("ucp_engine_jobs_submitted_total"),
        stats_before.submitted
    );
    assert_eq!(
        counter("ucp_engine_jobs_completed_total"),
        stats_before.completed
    );
    assert_eq!(
        counter("ucp_engine_jobs_cancelled_total"),
        stats_before.cancelled
    );
    assert_eq!(
        counter("ucp_engine_jobs_expired_total"),
        stats_before.expired
    );
    assert_eq!(
        counter("ucp_engine_jobs_panicked_total"),
        stats_before.panicked
    );
    // Every submitted job was dequeued exactly once (the queue drained),
    // and every dequeued job ran to a terminal verdict exactly once.
    let queue_wait = histogram("ucp_engine_queue_wait_seconds");
    assert_eq!(queue_wait.count(), stats_before.submitted);
    let run = histogram("ucp_engine_run_seconds");
    assert_eq!(
        run.count(),
        stats_before.completed
            + stats_before.cancelled
            + stats_before.expired
            + stats_before.panicked
    );
    // Solver families record one observation per *completed* solve.
    assert_eq!(counter("ucp_core_solves_total"), stats_before.completed);
    // The Prometheus rendering of the same registry parses line by line.
    let text = engine.registry().render_prometheus();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
            "unparseable exposition line: {line:?}"
        );
    }

    let stats = engine.shutdown();
    assert_eq!(stats.submitted, 32);
    assert_eq!(stats.completed, 14, "8 plain + 6 hard");
    assert_eq!(stats.panicked, 6);
    assert_eq!(stats.cancelled, 6);
    assert_eq!(stats.expired, 6);
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.running, 0);
}
