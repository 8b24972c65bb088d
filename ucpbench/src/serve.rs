//! `serve-journaled`: an in-process `ucp_server::Server` journaling to a
//! directory on the real filesystem, driven over `HttpClient` with small
//! seeded instances. HTTP parsing, admission, the journal's fsynced
//! appends, queue wait and polling do nearly all the work; each job's
//! solve is a small share of its latency.
//!
//! Two phases:
//! * open loop — one connection submits at a fixed rate below saturation,
//!   a second polls; each job is timed from when it was due;
//! * closed loop — one connection keeps a window of jobs in flight,
//!   cycling through the pool, giving sustained throughput.
//!
//! Every served answer is checked on its own and against a direct
//! `Scg::run` of the same spec. A lost or failed job fails the run.

use crate::check;
use crate::cyclic::shuffled;
use crate::outcome::{json_num, mix, scratch_dir, Outcome};
use crate::prom::{Histogram, Scrape};
use crate::solve::{phase_stages, timed, JOB_SPAN};
use crate::stats;
use crate::trace::Tracer;
use cover::{Constraints, CoverMatrix};
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};
use ucp_core::wire::{JobResultDto, JobSpec, JobStatusDto, SubmitBody, WireCode, WireError};
use ucp_core::{Preset, Scg};
use ucp_durability::{Journal, Record};
use ucp_server::{parse_wire_error, HttpClient, Server, ServerConfig};
use ucp_telemetry::JsonObj;
use workloads::{random_ucp, CostModel, RandomUcpConfig};

/// Distinct instances. Job `i` of a phase submits instance `i % POOL`.
const POOL: usize = 256;
/// Open-loop submission rate, jobs per second: well below what the
/// closed loop sustains on a 2-core machine.
const OPEN_RATE: f64 = 200.0;
/// Share of the run spent in the open loop.
const OPEN_SHARE: f64 = 0.25;
/// Jobs the closed-loop connection keeps in flight.
const WINDOW: usize = 16;
/// Closed-loop throughput is measured over blocks of this many jobs
/// finishing one after another.
const BLOCK: usize = 64;
/// Closed-loop throughput is taken at this quantile of the block walls.
/// Other tenants of a shared machine only ever slow a block down, by CPU
/// or by fsync stalls, so the fast blocks are the closer measure of the
/// server itself.
const FAST_BLOCKS: f64 = 0.1;
/// Server starts measured for `setup_s`; the last one serves the run.
const SETUPS: usize = 11;
/// Pause after polling that found nothing finished.
const POLL_PAUSE: Duration = Duration::from_micros(200);
/// How long a phase may wait for its pending jobs (the open loop, after
/// its last send; the closed loop, since a job last finished) before they
/// are lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);
/// Standalone journal appends timed for `durability.append_p50_ms`.
const APPENDS: usize = 200;

/// One pool entry: what is submitted and what it must come back as.
struct Instance {
    matrix: Arc<CoverMatrix>,
    spec: JobSpec,
    body: Vec<u8>,
}

/// Small instances: `random_ucp` at generator seeds `0..POOL`, 20–40
/// rows, half as many columns again, costs 1–3, each with its own solver
/// seed, and each with its rows and columns shuffled by the run's seed.
/// A shuffled instance has the same optimum and nearly the same work, so
/// the seed changes the inputs without changing what a pass over the pool
/// costs. Freshly drawn pools moved `certified` by about 3% from seed to
/// seed.
fn pool(seed: u64) -> Vec<Instance> {
    (0..POOL as u64)
        .map(|k| {
            let rows = 20 + (mix(0, k) % 21) as usize;
            let cfg = RandomUcpConfig {
                rows,
                cols: rows * 3 / 2,
                min_row_degree: 2,
                max_row_degree: 5,
                costs: CostModel::Uniform { max: 3 },
            };
            let matrix = shuffled(&random_ucp(&cfg, k), mix(seed, k));
            let mut spec = JobSpec::new(Preset::Paper);
            // The wire carries integers up to 2^53.
            spec.seed = Some(mix(0, POOL as u64 + k) >> 11);
            let body = SubmitBody {
                matrix: matrix.clone(),
                spec: spec.clone(),
                tenant: None,
                trace: false,
            }
            .to_json()
            .into_bytes();
            Instance {
                matrix: Arc::new(matrix),
                spec,
                body,
            }
        })
        .collect()
}

type Reply = Result<JobStatusDto, (u16, WireError)>;

fn reply(resp: ucp_server::Response) -> Reply {
    match parse_wire_error(&resp) {
        Some(err) => Err((resp.status, err)),
        None => JobStatusDto::parse(resp.body_str()).map_err(|e| (resp.status, e)),
    }
}

fn submit(client: &mut HttpClient, body: &[u8]) -> io::Result<Reply> {
    Ok(reply(client.post("/v1/jobs", body)?))
}

fn poll(client: &mut HttpClient, id: &str) -> io::Result<Reply> {
    Ok(reply(client.get(&format!("/v1/jobs/{id}"))?))
}

fn scrape(addr: SocketAddr) -> io::Result<Scrape> {
    let resp = HttpClient::new(addr)?.get("/metrics")?;
    Ok(Scrape::parse(resp.body_str()))
}

/// A job the client has seen accepted.
struct Accepted {
    /// Pool index.
    k: usize,
    id: String,
    due: Instant,
    sent: Instant,
    acked: Instant,
    polls: Vec<(Instant, Instant)>,
}

/// How an accepted job ended.
struct Finished {
    job: Accepted,
    end: Instant,
    result: Result<JobResultDto, String>,
}

/// Counts of one phase, for the run's details.
#[derive(Default)]
struct Tally {
    sent: u64,
    accepted: u64,
    refused_429: u64,
    failed: u64,
    lost: u64,
    errors: Vec<String>,
}

impl Tally {
    fn json(&self) -> String {
        let mut o = JsonObj::new();
        o.field_u64("sent", self.sent)
            .field_u64("accepted", self.accepted)
            .field_u64("refused_429", self.refused_429)
            .field_u64("failed", self.failed)
            .field_u64("lost", self.lost);
        o.finish()
    }

    fn absorb(&mut self, other: Tally) {
        self.sent += other.sent;
        self.accepted += other.accepted;
        self.refused_429 += other.refused_429;
        self.failed += other.failed;
        self.lost += other.lost;
        self.errors.extend(other.errors);
    }
}

/// Polls `job` once: `Err(job)` while it is still running, otherwise how
/// it ended (terminal, lost or failed).
fn poll_job(
    client: &mut HttpClient,
    mut job: Accepted,
    tally: &mut Tally,
) -> io::Result<Result<Finished, Accepted>> {
    let t0 = Instant::now();
    let r = poll(client, &job.id)?;
    let end = Instant::now();
    job.polls.push((t0, end));
    let result = match r {
        Ok(status) if status.state.is_terminal() => match (status.result, status.error) {
            (Some(result), None) => Ok(result),
            (_, Some(err)) => Err(format!("job {} failed: {err}", job.id)),
            (None, None) => Err(format!("job {} terminal without a result", job.id)),
        },
        Ok(_) => return Ok(Err(job)),
        Err((_, err)) if err.code == WireCode::NotFound => {
            tally.lost += 1;
            let result = Err(format!("job {} lost: {err}", job.id));
            return Ok(Ok(Finished { job, end, result }));
        }
        Err((status, err)) => Err(format!("poll of {} refused with {status}: {err}", job.id)),
    };
    if result.is_err() {
        tally.failed += 1;
    }
    Ok(Ok(Finished { job, end, result }))
}

/// Polls `pending` once each; moves terminal, lost and failed jobs to
/// `done`. Returns whether any job left `pending`.
fn sweep(
    client: &mut HttpClient,
    pending: &mut Vec<Accepted>,
    done: &mut Vec<Finished>,
    tally: &mut Tally,
) -> io::Result<bool> {
    let before = pending.len();
    for job in std::mem::take(pending) {
        match poll_job(client, job, tally)? {
            Ok(finished) => done.push(finished),
            Err(job) => pending.push(job),
        }
    }
    Ok(pending.len() < before)
}

/// Gives up on whatever is still pending once the drain limit passes.
fn abandon(
    pending: impl IntoIterator<Item = Accepted>,
    done: &mut Vec<Finished>,
    tally: &mut Tally,
) {
    for job in pending {
        tally.lost += 1;
        let result = Err(format!("job {} never turned terminal", job.id));
        done.push(Finished {
            end: Instant::now(),
            job,
            result,
        });
    }
}

/// Records a refused or failed submission.
fn refused(tally: &mut Tally, status: u16, err: &WireError) {
    if status == 429 {
        tally.refused_429 += 1;
    } else {
        tally.failed += 1;
        tally
            .errors
            .push(format!("submit refused with {status}: {err}"));
    }
}

/// What the open-loop phase observed.
struct OpenLoop {
    done: Vec<Finished>,
    lag_ms: Vec<f64>,
    tally: Tally,
}

/// Submits `n` jobs at `OPEN_RATE` from one connection while a second
/// polls. Each job is due at `start + i / OPEN_RATE`.
fn open_loop(addr: SocketAddr, pool: &[Instance], n: usize) -> io::Result<OpenLoop> {
    let (tx, rx) = mpsc::channel::<Accepted>();
    let start = Instant::now() + Duration::from_millis(5);
    thread::scope(|s| {
        let sender = s.spawn(move || -> io::Result<(Tally, Vec<f64>)> {
            let mut client = HttpClient::new(addr)?;
            let mut tally = Tally::default();
            let mut lag_ms = Vec::with_capacity(n);
            for i in 0..n {
                let due = start + Duration::from_secs_f64(i as f64 / OPEN_RATE);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                let sent = Instant::now();
                lag_ms.push((sent - due).as_secs_f64() * 1e3);
                tally.sent += 1;
                match submit(&mut client, &pool[i % POOL].body)? {
                    Ok(status) => {
                        tally.accepted += 1;
                        let job = Accepted {
                            k: i % POOL,
                            id: status.id,
                            due,
                            sent,
                            acked: Instant::now(),
                            polls: Vec::new(),
                        };
                        if tx.send(job).is_err() {
                            break;
                        }
                    }
                    Err((status, err)) => refused(&mut tally, status, &err),
                }
            }
            Ok((tally, lag_ms))
        });
        let poller = s.spawn(move || -> io::Result<(Tally, Vec<Finished>)> {
            let mut client = HttpClient::new(addr)?;
            let mut tally = Tally::default();
            let (mut pending, mut done) = (Vec::new(), Vec::with_capacity(n));
            let deadline = start + Duration::from_secs_f64(n as f64 / OPEN_RATE) + DRAIN_LIMIT;
            let mut sending = true;
            while sending || !pending.is_empty() {
                while let Ok(job) = rx.try_recv() {
                    pending.push(job);
                }
                if pending.is_empty() {
                    match rx.recv_timeout(Duration::from_millis(1)) {
                        Ok(job) => pending.push(job),
                        Err(mpsc::RecvTimeoutError::Disconnected) => sending = false,
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                    }
                    continue;
                }
                if !sweep(&mut client, &mut pending, &mut done, &mut tally)? {
                    thread::sleep(POLL_PAUSE);
                }
                if Instant::now() > deadline {
                    abandon(pending.drain(..), &mut done, &mut tally);
                    break;
                }
            }
            Ok((tally, done))
        });
        let (mut tally, lag_ms) = sender.join().expect("open-loop sender panicked")?;
        let (polled, done) = poller.join().expect("open-loop poller panicked")?;
        tally.absorb(polled);
        Ok(OpenLoop {
            done,
            lag_ms,
            tally,
        })
    })
}

/// What the closed-loop phase observed.
struct ClosedLoop {
    /// Jobs in the order they finished.
    done: Vec<Finished>,
    /// When submission stopped; jobs finishing later only drain the window.
    stop: Instant,
    tally: Tally,
}

impl ClosedLoop {
    /// Wall time, in seconds, of each block of `BLOCK` jobs finishing one
    /// after another before submission stopped.
    fn block_walls(&self) -> Vec<f64> {
        let ends: Vec<Instant> = self
            .done
            .iter()
            .map(|f| f.end)
            .filter(|&end| end <= self.stop)
            .collect();
        (BLOCK..ends.len())
            .step_by(BLOCK)
            .map(|k| (ends[k] - ends[k - BLOCK]).as_secs_f64())
            .collect()
    }

    /// Jobs per second in the fast blocks: `BLOCK` jobs over the
    /// `FAST_BLOCKS` quantile of the block walls.
    fn jobs_per_s(&self) -> f64 {
        BLOCK as f64 / stats::percentile(&stats::sorted(&self.block_walls()), FAST_BLOCKS)
    }
}

/// Submits jobs through `client` while `more(n)` holds for the `n`-th,
/// which is pool instance `n % POOL`, keeping `WINDOW` in flight; then
/// drains. Jobs still pending once nothing has finished for `DRAIN_LIMIT`
/// are lost. Only the oldest job is polled: the engine runs jobs in the
/// order they came, so a younger one is rarely done first. Polling them
/// all would spend more CPU on polls the slower the server runs, and
/// amplify any slow-down.
fn stream(
    client: &mut HttpClient,
    pool: &[Instance],
    mut more: impl FnMut(usize) -> bool,
    done: &mut Vec<Finished>,
    tally: &mut Tally,
) -> io::Result<()> {
    let mut pending = VecDeque::with_capacity(WINDOW);
    let mut next = 0;
    let mut submitting = true;
    let mut progress = Instant::now();
    loop {
        while submitting && pending.len() < WINDOW {
            if !more(next) {
                submitting = false;
                break;
            }
            let k = next % POOL;
            next += 1;
            let sent = Instant::now();
            tally.sent += 1;
            match submit(client, &pool[k].body)? {
                Ok(status) => {
                    tally.accepted += 1;
                    pending.push_back(Accepted {
                        k,
                        id: status.id,
                        due: sent,
                        sent,
                        acked: Instant::now(),
                        polls: Vec::new(),
                    });
                }
                Err((status, err)) => {
                    refused(tally, status, &err);
                    break;
                }
            }
        }
        let Some(oldest) = pending.pop_front() else {
            if !submitting {
                return Ok(());
            }
            thread::sleep(POLL_PAUSE);
            continue;
        };
        match poll_job(client, oldest, tally)? {
            Ok(finished) => {
                progress = finished.end;
                done.push(finished);
            }
            Err(oldest) => {
                pending.push_front(oldest);
                if progress.elapsed() > DRAIN_LIMIT {
                    abandon(pending.drain(..), done, tally);
                    return Ok(());
                }
                thread::sleep(POLL_PAUSE);
            }
        }
    }
}

/// Keeps `WINDOW` jobs in flight through one connection, cycling through
/// the pool, until `seconds` have passed.
fn closed_loop(addr: SocketAddr, pool: &[Instance], seconds: f64) -> io::Result<ClosedLoop> {
    let mut client = HttpClient::new(addr)?;
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    let mut closed = ClosedLoop {
        done: Vec::new(),
        stop,
        tally: Tally::default(),
    };
    stream(
        &mut client,
        pool,
        |_| Instant::now() < stop,
        &mut closed.done,
        &mut closed.tally,
    )?;
    Ok(closed)
}

/// A fresh journaled server, warmed up.
struct Started {
    server: Server,
    dir: PathBuf,
}

/// Starts a server journaling to `dir` and warms it up with one pass over
/// the pool; every warm-up job must come back done.
fn start_server(dir: PathBuf, pool: &[Instance]) -> io::Result<Started> {
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })?;
    let started = Started { server, dir };
    let mut tally = Tally::default();
    let mut done = Vec::new();
    let warm = HttpClient::new(started.server.addr())
        .and_then(|mut client| stream(&mut client, pool, |n| n < POOL, &mut done, &mut tally));
    let first_error = warm.err().map(|e| e.to_string()).or_else(|| {
        tally
            .errors
            .into_iter()
            .chain(done.into_iter().filter_map(|f| f.result.err()))
            .next()
    });
    let error = match first_error {
        Some(e) => e,
        None if tally.refused_429 > 0 => "submissions refused".into(),
        None => return Ok(started),
    };
    started.stop();
    Err(io::Error::other(format!("warm-up: {error}")))
}

impl Started {
    fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(self.dir);
    }
}

/// Median time of a standalone `Journal::append` of a representative
/// `Submitted` record, in ms, on the filesystem the server journals to.
fn append_p50_ms(dir: &Path, inst: &Instance) -> io::Result<f64> {
    let _ = std::fs::remove_dir_all(dir);
    let journal = Journal::open(dir)?.journal;
    let mut ms = Vec::with_capacity(APPENDS);
    for job in 0..APPENDS as u64 {
        let record = Record::Submitted {
            job,
            t_ms: 0,
            spec: Some(inst.spec.clone()),
            matrix: Some((*inst.matrix).clone()),
            tenant: None,
            deadline_ms: None,
        };
        let start = Instant::now();
        journal.append(&record)?;
        ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(dir);
    Ok(stats::median(&ms))
}

/// The answer each pool instance must come back as: a direct `Scg::run`
/// of the same matrix and spec. Traced as solver jobs.
fn direct_answers(
    pool: &[Instance],
    tracer: &mut Tracer,
) -> Vec<Result<(f64, Vec<usize>), String>> {
    pool.iter()
        .enumerate()
        .map(|(k, inst)| {
            let request = inst.spec.to_request(Arc::clone(&inst.matrix));
            let (solved, start, end) = timed(|| Scg::run(request));
            let job = 1_000_000 + k as u64;
            let root = tracer.record(JOB_SPAN, None, job, start, end);
            let run = tracer.record("core.run", root, job, start, end);
            let out = solved.map_err(|e| format!("direct solve of instance {k}: {e}"))?;
            tracer.stages(run, &phase_stages(&out));
            Ok((out.cost, out.solution.cols().to_vec()))
        })
        .collect()
}

/// Checks every finished job: its own cover checks plus equality with the
/// direct answer. Returns total cost, total lower bound and certified
/// count over the jobs that passed.
fn verify(
    done: &[Finished],
    pool: &[Instance],
    direct: &[Result<(f64, Vec<usize>), String>],
    outcome: &mut Outcome,
) -> (f64, f64, u64) {
    let (mut cost, mut lb, mut certified) = (0.0, 0.0, 0);
    for f in done {
        outcome.attempted += 1;
        let checked = f.result.clone().and_then(|r| {
            let inst = &pool[f.job.k];
            let c = check::cover(
                &inst.matrix,
                &Constraints::unate(),
                &r.columns,
                r.cost,
                r.lower_bound,
            )?;
            match &direct[f.job.k] {
                Ok(answer) if *answer == (r.cost, r.columns.clone()) => Ok((c, r.lower_bound)),
                Ok(answer) => Err(format!(
                    "served answer {:?} differs from direct Scg::run {answer:?}",
                    (r.cost, &r.columns)
                )),
                Err(e) => Err(e.clone()),
            }
        });
        match checked {
            Ok((c, bound)) => {
                cost += c.cost;
                lb += bound;
                certified += u64::from(c.certified);
            }
            Err(e) => outcome.fail(format!("job {}: {e}", f.job.id)),
        }
    }
    (cost, lb, certified)
}

/// Records each open-loop job as a `job.serve` span from its due time to
/// the poll that saw it terminal, with its submit and polls as children.
fn record_spans(tracer: &mut Tracer, done: &[Finished]) {
    for (n, f) in done.iter().enumerate() {
        let job = n as u64;
        let root = tracer.record("job.serve", None, job, f.job.due, f.end);
        tracer.record("client.submit", root, job, f.job.sent, f.job.acked);
        for &(a, b) in &f.job.polls {
            tracer.record("client.poll", root, job, a, b);
        }
    }
}

/// One untraced or traced measurement against a running server.
struct Measured {
    open: OpenLoop,
    closed: ClosedLoop,
    /// `/metrics` before and after the open-loop phase.
    before: Scrape,
    after_open: Scrape,
}

/// The open loop for `OPEN_SHARE` of `seconds`, the closed loop for the
/// rest: throughput, CPU-bound on a shared machine, needs more of the
/// run.
fn measure(addr: SocketAddr, pool: &[Instance], seconds: f64) -> io::Result<Measured> {
    let n = (OPEN_RATE * seconds * OPEN_SHARE).round().max(1.0) as usize;
    let before = scrape(addr)?;
    let open = open_loop(addr, pool, n)?;
    let after_open = scrape(addr)?;
    let closed = closed_loop(addr, pool, seconds * (1.0 - OPEN_SHARE))?;
    Ok(Measured {
        open,
        closed,
        before,
        after_open,
    })
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// Runs the workload: `SETUPS` timed set-ups (inputs, server start,
/// warm-up), then the phases against the last server.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer, outcome: &mut Outcome) -> io::Result<()> {
    let scratch = scratch_dir().join(format!("serve-{}", std::process::id()));
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live: Option<(Started, Vec<Instance>)> = None;
    for k in 0..SETUPS {
        if let Some((old, _)) = live.take() {
            old.stop();
        }
        let t0 = Instant::now();
        let pool = pool(seed);
        let started = start_server(scratch.join(format!("journal-{k}")), &pool)?;
        setups.push(t0.elapsed().as_secs_f64());
        live = Some((started, pool));
    }
    let (started, pool) = live.expect("at least one set-up");
    outcome.set("setup_s", stats::median(&setups));
    let result = phases(
        started.server.addr(),
        &pool,
        seconds,
        tracer,
        outcome,
        &scratch,
    );
    started.stop();
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn phases(
    addr: SocketAddr,
    pool: &[Instance],
    seconds: f64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    scratch: &Path,
) -> io::Result<()> {
    let (direct, start, end) = timed(|| direct_answers(pool, tracer));
    outcome.detail_num("direct_pass_s", (end - start).as_secs_f64());
    let mut runs = Vec::new();
    if tracer.is_on() {
        runs.push(measure(addr, pool, seconds / 2.0)?);
        runs.push(measure(addr, pool, seconds / 2.0)?);
    } else {
        runs.push(measure(addr, pool, seconds)?);
    }
    let mut open_tally = Tally::default();
    let mut closed_tally = Tally::default();
    let mut totals = (0.0, 0.0, 0);
    for m in &mut runs {
        totals = verify(&m.open.done, pool, &direct, outcome);
        verify(&m.closed.done, pool, &direct, outcome);
        for tally in [&mut m.open.tally, &mut m.closed.tally] {
            outcome.attempted += tally.refused_429;
            for e in tally.errors.drain(..) {
                outcome.attempted += 1;
                outcome.fail(e);
            }
        }
        open_tally.absorb(std::mem::take(&mut m.open.tally));
        closed_tally.absorb(std::mem::take(&mut m.closed.tally));
    }
    let m = runs.last().expect("at least one measurement");
    outcome.detail("open_loop", open_tally.json());
    outcome.detail("closed_loop", closed_tally.json());
    outcome.detail_num("open_loop_rate_per_s", OPEN_RATE);
    let sent = open_tally.sent + closed_tally.sent;
    let rejected_frac = (open_tally.refused_429 + closed_tally.refused_429) as f64 / sent as f64;
    outcome.detail_num("rejected_frac", rejected_frac);

    let lag = stats::sorted(&m.open.lag_ms);
    let sender_lag_p99 = stats::percentile(&lag, 0.99);
    outcome.detail_num("sender_lag_p99_ms", sender_lag_p99);
    let latency: Vec<f64> = m
        .open
        .done
        .iter()
        .map(|f| ms((f.end - f.job.due).as_secs_f64()))
        .collect();
    let latency = stats::sorted(&latency);
    let tail: Vec<String> = [0.5, 0.9, 0.99, 0.999, 1.0]
        .iter()
        .map(|&q| json_num(stats::percentile(&latency, q)))
        .collect();
    outcome.detail(
        "latency_p50_p90_p99_p999_max_ms",
        format!("[{}]", tail.join(",")),
    );
    let blocks = m.closed.block_walls();
    outcome.detail_num("closed_loop_blocks", blocks.len() as f64);
    let closed_polls: usize = m.closed.done.iter().map(|f| f.job.polls.len()).sum();
    outcome.detail_num(
        "closed_loop_polls_per_job",
        closed_polls as f64 / m.closed.done.len().max(1) as f64,
    );
    if let Some(q) = stats::quartiles(&blocks) {
        outcome.detail(
            "closed_loop_block_quartiles_s",
            format!("[{},{},{}]", q[0], q[1], q[2]),
        );
    }
    outcome.detail_num("latency_samples", latency.len() as f64);
    outcome.detail(
        "latency_highest_supported_quantile",
        json_num(stats::highest_supported(latency.len()).unwrap_or(f64::NAN)),
    );

    if !tracer.is_on() {
        outcome.set("jobs_per_s", m.closed.jobs_per_s());
        outcome.set("latency_p50_ms", stats::percentile(&latency, 0.5));
        outcome.set("total_cost", totals.0);
        outcome.set("total_lower_bound", totals.1);
        outcome.set("certified", totals.2 as f64);
        return Ok(());
    }

    outcome.set(
        "trace.overhead_pct",
        100.0 * (runs[0].closed.jobs_per_s() / m.closed.jobs_per_s() - 1.0),
    );
    crate::solve::stage_gap(tracer, outcome);
    record_spans(tracer, &m.open.done);
    outcome.set("job.latency_p99_ms", stats::percentile(&latency, 0.99));
    let submit_ms: Vec<f64> = m
        .open
        .done
        .iter()
        .map(|f| ms((f.job.acked - f.job.sent).as_secs_f64()))
        .collect();
    let poll_ms: Vec<f64> = m
        .open
        .done
        .iter()
        .flat_map(|f| f.job.polls.iter().map(|&(a, b)| ms((b - a).as_secs_f64())))
        .collect();
    let (submit_ms, poll_ms) = (stats::sorted(&submit_ms), stats::sorted(&poll_ms));
    let jobs = m.open.done.len().max(1) as f64;
    let delta = |name: &str| m.after_open.total(name) - m.before.total(name);
    let hist = |name: &str| -> Histogram {
        m.after_open
            .histogram(name)
            .since(&m.before.histogram(name))
    };
    let wait = hist("ucp_engine_queue_wait_seconds");
    let solve = hist("ucp_engine_run_seconds");
    outcome.set(
        "server.submit_rtt_p50_ms",
        stats::percentile(&submit_ms, 0.5),
    );
    outcome.set(
        "server.submit_rtt_p99_ms",
        stats::percentile(&submit_ms, 0.99),
    );
    outcome.set("server.poll_rtt_p50_ms", stats::percentile(&poll_ms, 0.5));
    outcome.set("server.polls_per_job", poll_ms.len() as f64 / jobs);
    outcome.set("server.rejected_frac", rejected_frac);
    outcome.set(
        "durability.fsyncs_per_job",
        delta("ucp_durability_fsyncs_total") / jobs,
    );
    outcome.set(
        "durability.bytes_per_job",
        delta("ucp_durability_bytes_written_total") / jobs,
    );
    outcome.set(
        "durability.append_p50_ms",
        append_p50_ms(&scratch.join("append"), &pool[0])?,
    );
    outcome.set("engine.queue_wait_p50_ms", ms(wait.quantile(0.5)));
    outcome.set("engine.queue_wait_p99_ms", ms(wait.quantile(0.99)));
    outcome.set("engine.run_p50_ms", ms(solve.quantile(0.5)));
    outcome.set("client.sender_lag_p99_ms", sender_lag_p99);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished_at(end: Instant) -> Finished {
        Finished {
            job: Accepted {
                k: 0,
                id: String::new(),
                due: end,
                sent: end,
                acked: end,
                polls: Vec::new(),
            },
            end,
            result: Err(String::new()),
        }
    }

    #[test]
    fn blocks_cover_jobs_finished_before_submission_stopped() {
        let t0 = Instant::now();
        let at = |ms: usize| t0 + Duration::from_millis(ms as u64);
        // One job a millisecond for three blocks and a few more, then a
        // late one draining the window after submission stopped.
        let n = 3 * BLOCK + 5;
        let mut done: Vec<Finished> = (0..n).map(|i| finished_at(at(i))).collect();
        done.push(finished_at(at(10 * n)));
        let closed = ClosedLoop {
            done,
            stop: at(n),
            tally: Tally::default(),
        };
        let walls = closed.block_walls();
        assert_eq!(walls.len(), 3);
        assert!(walls.iter().all(|&w| (w - BLOCK as f64 / 1e3).abs() < 1e-9));
        assert!((closed.jobs_per_s() - 1e3).abs() < 1e-6);
    }
}
