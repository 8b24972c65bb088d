//! Load generator for the wire API: drives many concurrent jobs through
//! a running server over plain keep-alive connections and reports
//! sustained throughput and tail latency.
//!
//! Used two ways, through the same code path: the `crates/workloads`
//! `ucp-loadgen` binary (manual load tests) and the CI server-smoke
//! step.

use crate::client::HttpClient;
use cover::CoverMatrix;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use ucp_core::wire::{JobSpec, SubmitBody, WireCode};
use ucp_core::Preset;

/// What the generator drives.
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Total jobs to push through the server.
    pub jobs: usize,
    /// Concurrent client connections (threads), each submitting and
    /// polling its share.
    pub connections: usize,
    /// Cycle-cover instance size per job (`n` rows over `n` columns —
    /// small and fast, the point is engine/wire throughput).
    pub rows: usize,
    /// Preset requested in each spec.
    pub preset: Preset,
    /// Tenant stamped on the jobs.
    pub tenant: Option<String>,
    /// Ask for a live trace on every k-th job (`0` = never) —
    /// exercises the trace path under load.
    pub trace_every: usize,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            jobs: 1000,
            connections: 8,
            rows: 9,
            preset: Preset::Fast,
            tenant: None,
            trace_every: 0,
        }
    }
}

/// What the run measured. "Lost" is the acceptance-criterion number:
/// accepted jobs that never reached a terminal state.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// Jobs accepted by the server (`201`).
    pub submitted: u64,
    /// Accepted jobs that reached `done`.
    pub completed: u64,
    /// Accepted jobs that reached `failed` (still terminal).
    pub failed: u64,
    /// Accepted jobs that never turned terminal — must be 0.
    pub lost: u64,
    /// `429` responses absorbed (each was retried until accepted).
    pub rejected_429: u64,
    /// Accepted jobs the server degraded to Fast under pressure.
    pub shed: u64,
    /// Wall clock of the whole run.
    pub elapsed_seconds: f64,
    /// Terminal jobs per wall-clock second.
    pub jobs_per_sec: f64,
    /// Submit→terminal-observed latency percentiles.
    pub p50_ms: f64,
    pub p99_ms: f64,
}

struct WorkerTally {
    completed: u64,
    failed: u64,
    lost: u64,
    rejected: u64,
    shed: u64,
    latencies_ms: Vec<f64>,
}

/// Runs the generator against `addr` and collects the report. Each
/// connection submits its whole share first (retrying `429`s with a
/// short backoff), then polls round-robin until every job is terminal —
/// so the server genuinely holds `jobs / connections`-deep in-flight
/// work per client while the queue drains.
pub fn run(addr: &str, opts: &LoadgenOptions) -> io::Result<LoadgenReport> {
    let connections = opts.connections.max(1);
    let seed = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut tallies = Vec::new();
    thread::scope(|scope| -> io::Result<()> {
        let mut handles = Vec::new();
        for c in 0..connections {
            let share = per_worker_share(opts.jobs, connections, c);
            if share == 0 {
                continue;
            }
            let seed = Arc::clone(&seed);
            handles.push(scope.spawn(move || drive_connection(addr, opts, share, &seed)));
        }
        for handle in handles {
            tallies.push(handle.join().expect("loadgen worker panicked")?);
        }
        Ok(())
    })?;
    let elapsed = started.elapsed();
    let mut report = LoadgenReport {
        elapsed_seconds: elapsed.as_secs_f64(),
        ..LoadgenReport::default()
    };
    let mut latencies: Vec<f64> = Vec::new();
    for tally in tallies {
        report.completed += tally.completed;
        report.failed += tally.failed;
        report.lost += tally.lost;
        report.rejected_429 += tally.rejected;
        report.shed += tally.shed;
        latencies.extend(tally.latencies_ms);
    }
    report.submitted = report.completed + report.failed + report.lost;
    let terminal = report.completed + report.failed;
    report.jobs_per_sec = if report.elapsed_seconds > 0.0 {
        terminal as f64 / report.elapsed_seconds
    } else {
        0.0
    };
    latencies.sort_by(|a, b| a.total_cmp(b));
    report.p50_ms = percentile(&latencies, 0.50);
    report.p99_ms = percentile(&latencies, 0.99);
    Ok(report)
}

fn per_worker_share(jobs: usize, connections: usize, index: usize) -> usize {
    jobs / connections + usize::from(index < jobs % connections)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn drive_connection(
    addr: &str,
    opts: &LoadgenOptions,
    share: usize,
    seed: &AtomicU64,
) -> io::Result<WorkerTally> {
    let mut client = HttpClient::new(addr)?;
    let matrix = cycle(opts.rows.max(3));
    let mut pending: Vec<(String, Instant)> = Vec::with_capacity(share);
    let mut tally = WorkerTally {
        completed: 0,
        failed: 0,
        lost: 0,
        rejected: 0,
        shed: 0,
        latencies_ms: Vec::with_capacity(share),
    };
    for _ in 0..share {
        let n = seed.fetch_add(1, Ordering::Relaxed);
        let mut spec = JobSpec::new(opts.preset);
        spec.seed = Some(n);
        let body = SubmitBody {
            matrix: matrix.clone(),
            spec,
            tenant: opts.tenant.clone(),
            trace: opts.trace_every > 0 && n.is_multiple_of(opts.trace_every as u64),
        };
        // Submit until accepted: 429s are the server doing its job
        // (backpressure), so absorb them with a short backoff.
        loop {
            match client.submit(&body)? {
                Ok(status) => {
                    if status.shed {
                        tally.shed += 1;
                    }
                    pending.push((status.id, Instant::now()));
                    break;
                }
                Err((429, _)) => {
                    tally.rejected += 1;
                    thread::sleep(Duration::from_millis(5));
                }
                Err((status, err)) => {
                    return Err(io::Error::other(format!(
                        "submit refused with {status}: {err}"
                    )));
                }
            }
        }
    }
    // Poll round-robin until every accepted job is terminal. A bounded
    // overall deadline turns a hung server into `lost` counts instead
    // of a hung generator.
    let deadline = Instant::now() + Duration::from_secs(600);
    while !pending.is_empty() {
        let mut still_pending = Vec::with_capacity(pending.len());
        for (id, submitted_at) in pending {
            match client.poll(&id)? {
                Ok(status) if status.state.is_terminal() => {
                    tally
                        .latencies_ms
                        .push(submitted_at.elapsed().as_secs_f64() * 1e3);
                    if status.error.is_none() {
                        tally.completed += 1;
                    } else {
                        tally.failed += 1;
                    }
                }
                Ok(_) => still_pending.push((id, submitted_at)),
                Err((_, err)) if err.code == WireCode::NotFound => {
                    // Evicted before we observed it terminal — that is a
                    // lost handle from the client's point of view.
                    tally.lost += 1;
                }
                Err((status, err)) => {
                    return Err(io::Error::other(format!(
                        "poll failed with {status}: {err}"
                    )));
                }
            }
        }
        pending = still_pending;
        if Instant::now() > deadline {
            tally.lost += pending.len() as u64;
            break;
        }
        if !pending.is_empty() {
            thread::sleep(Duration::from_millis(2));
        }
    }
    Ok(tally)
}

fn cycle(n: usize) -> CoverMatrix {
    CoverMatrix::from_rows(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
}
