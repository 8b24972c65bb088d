//! Integration tests for the batch solve engine: `ucp batch` semantics.
//!
//! The contract under test:
//! * a batch over a suite is **bit-identical** to a serial `Scg::run`
//!   loop — same cost, lower bound and chosen columns — for 1 and 4
//!   engine workers;
//! * a job cancelled mid-suite resolves to `JobError::Cancelled` and
//!   leaves every other job's result unchanged;
//! * a panicking job is contained the same way.

use std::sync::Arc;
use ucp::cover::CoverMatrix;
use ucp::ucp_core::{Preset, Scg, ScgOptions, ScgOutcome, SolveRequest};
use ucp::ucp_engine::{Engine, EngineConfig, JobError};
use ucp::ucp_telemetry::{Event, Probe};
use ucp::workloads::suite;

/// The first `n` instances of a suite, shared so requests are `'static`.
fn shared(suite: Vec<suite::Instance>, n: usize) -> Vec<(String, Arc<CoverMatrix>)> {
    suite
        .into_iter()
        .take(n)
        .map(|i| (i.name, Arc::new(i.matrix)))
        .collect()
}

/// A slice of the easy-cyclic suite.
fn instances() -> Vec<(String, Arc<CoverMatrix>)> {
    shared(suite::easy_cyclic(), 10)
}

fn request(m: &Arc<CoverMatrix>) -> SolveRequest<'static> {
    SolveRequest::for_shared(Arc::clone(m)).preset(Preset::Fast)
}

fn serial_outcomes(insts: &[(String, Arc<CoverMatrix>)]) -> Vec<ScgOutcome> {
    insts
        .iter()
        .map(|(_, m)| Scg::run(request(m)).expect("no cancel flag"))
        .collect()
}

fn batch_outcomes(insts: &[(String, Arc<CoverMatrix>)], workers: usize) -> Vec<ScgOutcome> {
    let engine = Engine::start(EngineConfig {
        workers,
        queue_capacity: insts.len(),
    });
    let jobs: Vec<_> = insts
        .iter()
        .map(|(_, m)| engine.submit(request(m)).expect("engine accepts the suite"))
        .collect();
    let outs = jobs
        .into_iter()
        .map(|j| j.wait().expect("job completed"))
        .collect();
    let stats = engine.shutdown();
    assert_eq!(stats.completed, insts.len() as u64);
    outs
}

#[test]
fn batch_is_bit_identical_to_the_serial_loop() {
    let insts = instances();
    let serial = serial_outcomes(&insts);
    for workers in [1, 4] {
        let batch = batch_outcomes(&insts, workers);
        for ((name, _), (s, b)) in insts.iter().zip(serial.iter().zip(&batch)) {
            assert_eq!(s.cost, b.cost, "{name}: cost diverged at {workers} workers");
            assert_eq!(
                s.lower_bound, b.lower_bound,
                "{name}: bound diverged at {workers} workers"
            );
            assert_eq!(
                s.solution.cols(),
                b.solution.cols(),
                "{name}: solution diverged at {workers} workers"
            );
        }
    }
}

/// STS(9) with a huge restart schedule: its Lagrangian bound never
/// certifies, so the job runs until cancelled — a worker-parking fixture.
fn blocker_request() -> SolveRequest<'static> {
    let m = Arc::new(CoverMatrix::from_rows(
        9,
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
        ],
    ));
    SolveRequest::for_shared(m).options(ScgOptions {
        num_iter: 5_000_000,
        ..ScgOptions::default()
    })
}

#[test]
fn cancelled_job_does_not_poison_later_jobs() {
    let insts = instances();
    let serial = serial_outcomes(&insts);
    // One worker, so the victim is guaranteed still queued when cancelled.
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: insts.len() + 2,
    });
    let blocker = engine.submit(blocker_request()).unwrap();
    let victim = engine.submit(blocker_request()).unwrap();
    let rest: Vec<_> = insts
        .iter()
        .map(|(_, m)| engine.submit(request(m)).unwrap())
        .collect();
    victim.cancel();
    blocker.cancel();
    assert!(matches!(blocker.wait(), Err(JobError::Cancelled)));
    assert!(matches!(victim.wait(), Err(JobError::Cancelled)));
    for ((name, _), (job, want)) in insts.iter().zip(rest.into_iter().zip(&serial)) {
        let got = job.wait().expect("later job unaffected by cancellation");
        assert_eq!(
            got.cost, want.cost,
            "{name}: cost changed after a cancellation"
        );
        assert_eq!(
            got.solution.cols(),
            want.solution.cols(),
            "{name}: solution changed after a cancellation"
        );
    }
    engine.shutdown();
}

struct PanicProbe;

impl Probe for PanicProbe {
    fn record(&mut self, _: Event) {
        panic!("engine_batch test probe panic");
    }
}

#[test]
fn panicking_job_does_not_poison_later_jobs() {
    let insts = instances();
    let serial = serial_outcomes(&insts);
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: insts.len() + 1,
    });
    let (_, m0) = &insts[0];
    let bomb = engine
        .submit(request(m0).trace_sink(Box::new(PanicProbe)))
        .unwrap();
    let rest: Vec<_> = insts
        .iter()
        .map(|(_, m)| engine.submit(request(m)).unwrap())
        .collect();
    assert!(matches!(bomb.wait(), Err(JobError::Panicked(_))));
    for ((name, _), (job, want)) in insts.iter().zip(rest.into_iter().zip(&serial)) {
        let got = job.wait().expect("later job unaffected by the panic");
        assert_eq!(got.cost, want.cost, "{name}: cost changed after a panic");
        assert_eq!(
            got.solution.cols(),
            want.solution.cols(),
            "{name}: solution changed after a panic"
        );
    }
    let stats = engine.shutdown();
    assert_eq!(stats.panicked, 1);
    assert_eq!(stats.completed, insts.len() as u64);
}
