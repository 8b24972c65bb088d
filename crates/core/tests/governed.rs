//! Governed-mode halt latency: with a failpoint stalling every pass of
//! the reductions, a deadline or a cancel raised mid-reduction must
//! surface as [`SolveError::Expired`] / [`SolveError::Cancelled`] within
//! one pass — the solve never ploughs on through a dead budget.

#![cfg(feature = "failpoints")]

use std::time::{Duration, Instant};

use ucp_core::{CancelFlag, Scg, SolveError, SolveRequest};
use ucp_failpoints::{configure, FailConfig, FailScenario};

fn cyclic(n: usize) -> cover::CoverMatrix {
    let mut rows: Vec<Vec<usize>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
    rows.push((0..n).step_by(2).collect());
    rows.push((0..n).step_by(3).collect());
    cover::CoverMatrix::from_rows(n, rows)
}

#[test]
fn deadline_mid_reduction_expires_within_one_pass() {
    let _scenario = FailScenario::setup();
    configure("cover::reduce_pass", FailConfig::sleep_ms(100));
    let m = cyclic(12);
    let started = Instant::now();
    let res = Scg::run(SolveRequest::for_matrix(&m).deadline(Duration::from_millis(30)));
    let elapsed = started.elapsed();
    assert_eq!(res.unwrap_err(), SolveError::Expired);
    // Budget (30ms) + at most one stalled pass (100ms) + slack. If halt
    // checks were skipped between passes this would run for seconds.
    assert!(
        elapsed < Duration::from_millis(1500),
        "expiry took {elapsed:?}; halt not checked between passes?"
    );
}

#[test]
fn cancel_mid_reduction_aborts_within_one_pass() {
    let _scenario = FailScenario::setup();
    configure("cover::reduce_pass", FailConfig::sleep_ms(50));
    let m = cyclic(12);
    let flag = CancelFlag::new();
    let canceller = {
        let flag = flag.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            flag.cancel();
        })
    };
    let started = Instant::now();
    let res = Scg::run(SolveRequest::for_matrix(&m).cancel(&flag));
    let elapsed = started.elapsed();
    canceller.join().unwrap();
    assert_eq!(res.unwrap_err(), SolveError::Cancelled);
    assert!(
        elapsed < Duration::from_millis(1500),
        "cancel took {elapsed:?}; halt not checked between passes?"
    );
}
