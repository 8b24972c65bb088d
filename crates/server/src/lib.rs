//! `ucp-server`: the HTTP front-end that turns the batch engine into a
//! long-lived solve service speaking the versioned `ucp-api/2` wire API
//! (see `ucp_core::wire` for the DTO layer and error taxonomy).
//!
//! # Endpoints
//!
//! | Method   | Path                  | Purpose                                   |
//! |----------|-----------------------|-------------------------------------------|
//! | `POST`   | `/v1/jobs`            | Submit a job (matrix + [`JobSpec`]) → id  |
//! | `GET`    | `/v1/jobs/{id}`       | Poll status / result                      |
//! | `DELETE` | `/v1/jobs/{id}`       | Cancel via the job's `CancelFlag`         |
//! | `GET`    | `/v1/jobs/{id}/trace` | Live `ucp-trace/1` JSONL stream (chunked) |
//! | `GET`    | `/v1/stats`           | Server + engine counters as JSON          |
//! | `GET`    | `/metrics`            | Prometheus exposition                     |
//!
//! # Admission control and load shedding
//!
//! Two independent backpressure layers sit in front of
//! [`Engine::try_submit`]:
//!
//! * **Per-tenant quotas** — each tenant (from the body's `tenant`
//!   field, the `x-ucp-tenant` header, or `"anonymous"`) may hold at
//!   most [`ServerConfig::tenant_inflight_cap`] unresolved jobs. At
//!   the cap the server first sweeps that tenant's jobs to reclaim
//!   finished slots; if still saturated, `429` + `Retry-After` with
//!   wire code `tenant_quota`. One tenant can never starve the rest.
//! * **Queue backpressure** — the engine's own bounded queue; a refused
//!   `try_submit` is `429` + `Retry-After` with code `queue_full`.
//!
//! Between the two, a **shedding policy** watches queue depth at every
//! submission: [`ServerConfig::shed_after`] consecutive sightings at or
//! above the high-water mark engage shedding, and every admitted job is
//! degraded to [`Preset::Fast`] effort (its seed, deadline, workers and
//! trace sampling are kept) with `"shed": true` on its status and a
//! `ucp_server_jobs_shed_total` tick, until depth falls back to the
//! low-water mark. The service keeps answering cheaply instead of
//! collapsing expensively.
//!
//! # Example
//!
//! ```
//! use cover::CoverMatrix;
//! use ucp_core::wire::{JobSpec, JobState, SubmitBody};
//! use ucp_core::Preset;
//! use ucp_server::{HttpClient, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! let mut client = HttpClient::new(server.addr()).unwrap();
//! let submitted = client
//!     .submit(&SubmitBody {
//!         matrix: CoverMatrix::from_rows(3, vec![vec![0, 1], vec![1, 2], vec![2, 0]]),
//!         spec: JobSpec::new(Preset::Fast),
//!         tenant: None,
//!         trace: false,
//!     })
//!     .unwrap()
//!     .unwrap();
//! let done = loop {
//!     let status = client.poll(&submitted.id).unwrap().unwrap();
//!     if status.state.is_terminal() {
//!         break status;
//!     }
//! };
//! assert_eq!(done.state, JobState::Done);
//! assert_eq!(done.result.unwrap().cost, 2.0);
//! server.shutdown();
//! ```

mod api;
pub mod client;
pub mod http;
pub mod jobs;
pub mod loadgen;

pub use client::{parse_wire_error, HttpClient, Response};
pub use jobs::{JobTable, TraceBuf, TraceWriter};
pub use loadgen::{LoadgenOptions, LoadgenReport};

use jobs::wire_id;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use ucp_core::wire::{JobSpec, JobState, JobStatusDto, SubmitBody, WireCode, WireError};
use ucp_core::Preset;
use ucp_durability::{Journal, RecoverySet};
use ucp_engine::{Engine, EngineConfig, EngineStats};
use ucp_metrics::{Counter, Gauge};
use ucp_telemetry::JsonlSink;

/// How a [`Server`] is sized and where it listens.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`Server::addr`] for the resolved one).
    pub addr: String,
    /// Engine worker threads (`0` = one per core).
    pub workers: usize,
    /// Engine queue capacity — the global backpressure knob.
    pub queue_capacity: usize,
    /// Max unresolved jobs per tenant before `429 tenant_quota`.
    pub tenant_inflight_cap: usize,
    /// Request-body size cap (`413` beyond it).
    pub max_body_bytes: usize,
    /// Consecutive submissions that must observe queue depth ≥ ¾·cap
    /// before shedding engages (it disengages at ≤ ½·cap).
    pub shed_after: u32,
    /// Terminal jobs kept pollable before the oldest are evicted.
    pub retain_terminal: usize,
    /// Directory of the write-ahead job journal (`ucp serve
    /// --journal`). `None` (the default) runs without durability —
    /// byte-identical behaviour to a pre-journal server. With a
    /// directory set, every accepted job is journaled before its `201`
    /// acknowledgement, solver checkpoints and terminal transitions are
    /// journaled as they happen, and a restarted server re-enqueues
    /// whatever the previous process left unresolved — polling the
    /// original job id keeps working across the crash.
    pub journal_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 256,
            tenant_inflight_cap: 1024,
            max_body_bytes: 8 * 1024 * 1024,
            shed_after: 3,
            retain_terminal: 100_000,
            journal_dir: None,
        }
    }
}

/// `ucp_server_*` metric families, registered into the engine's own
/// registry so one `/metrics` scrape covers the whole stack.
struct ServerMetrics {
    http_requests: Arc<Counter>,
    accepted: Arc<Counter>,
    rejected_queue_full: Arc<Counter>,
    rejected_tenant_quota: Arc<Counter>,
    rejected_invalid: Arc<Counter>,
    shed: Arc<Counter>,
    trace_streams: Arc<Counter>,
    recovered: Arc<Counter>,
    jobs_tracked: Arc<Gauge>,
    shedding: Arc<Gauge>,
}

impl ServerMetrics {
    fn register(registry: &ucp_metrics::Registry) -> ServerMetrics {
        let rejected = |reason: &str| {
            registry.counter_with(
                "ucp_server_jobs_rejected_total",
                "Submissions refused by admission control",
                &[("reason", reason)],
            )
        };
        ServerMetrics {
            http_requests: registry.counter(
                "ucp_server_http_requests_total",
                "HTTP requests handled (any route, any verdict)",
            ),
            accepted: registry.counter(
                "ucp_server_jobs_accepted_total",
                "Jobs admitted and submitted to the engine",
            ),
            rejected_queue_full: rejected("queue_full"),
            rejected_tenant_quota: rejected("tenant_quota"),
            rejected_invalid: rejected("invalid"),
            shed: registry.counter(
                "ucp_server_jobs_shed_total",
                "Jobs degraded to the Fast preset under queue pressure",
            ),
            trace_streams: registry.counter(
                "ucp_server_trace_streams_total",
                "Live trace streams served",
            ),
            recovered: registry.counter(
                "ucp_server_jobs_recovered_total",
                "Jobs restored from the durability journal at startup",
            ),
            jobs_tracked: registry.gauge(
                "ucp_server_jobs_tracked",
                "Jobs in the server's table (terminal retained included)",
            ),
            shedding: registry.gauge(
                "ucp_server_shedding",
                "1 while the load-shedding policy is engaged",
            ),
        }
    }
}

/// Hysteresis state of the shedding policy (see the crate docs).
#[derive(Default)]
struct ShedState {
    streak: u32,
    engaged: bool,
}

/// Derives `Retry-After` seconds for 429 responses from the observed
/// queue drain rate. Every refusal records a `(when, terminal_total)`
/// sample; the drain rate over the trailing window divides the current
/// queue depth into an expected wait. With no observable drain yet the
/// estimator stays optimistic (1 s) — a queue that has provably not
/// moved for the whole window earns the pessimistic cap instead.
pub(crate) struct RetryAfterEstimator {
    samples: Mutex<VecDeque<(Instant, u64)>>,
}

/// Trailing window the drain rate is measured over.
const RETRY_AFTER_WINDOW: Duration = Duration::from_secs(60);

impl RetryAfterEstimator {
    pub(crate) fn new() -> RetryAfterEstimator {
        RetryAfterEstimator {
            samples: Mutex::new(VecDeque::new()),
        }
    }

    /// Records one observation and suggests a bounded `Retry-After`.
    /// `terminal_total` is the engine's monotone count of resolved
    /// jobs; `depth` is the current queue length.
    pub(crate) fn suggest(&self, now: Instant, terminal_total: u64, depth: u64) -> u32 {
        let mut samples = self.samples.lock().unwrap();
        while let Some(&(t, _)) = samples.front() {
            if now.duration_since(t) > RETRY_AFTER_WINDOW {
                samples.pop_front();
            } else {
                break;
            }
        }
        let oldest = samples.front().copied();
        samples.push_back((now, terminal_total));
        let Some((t0, done0)) = oldest else {
            return 1; // first pressure event: nothing measured yet
        };
        let span = now.duration_since(t0).as_secs_f64();
        let drained = terminal_total.saturating_sub(done0);
        if drained == 0 {
            // No job finished across the observed span. A short span
            // proves nothing; a stuck full window earns the cap.
            return if span >= RETRY_AFTER_WINDOW.as_secs_f64() * 0.9 {
                60
            } else {
                1
            };
        }
        if span <= 0.0 {
            return 1;
        }
        let rate = drained as f64 / span; // jobs per second
        (depth as f64 / rate).ceil().clamp(1.0, 60.0) as u32
    }
}

/// Everything a connection thread needs, shared behind one `Arc`.
pub(crate) struct ServerState {
    engine: Engine,
    table: JobTable,
    tenants: Mutex<HashMap<String, Arc<AtomicUsize>>>,
    shed: Mutex<ShedState>,
    metrics: ServerMetrics,
    config: ServerConfig,
    stopping: AtomicBool,
    started: Instant,
    retry_after: RetryAfterEstimator,
}

/// Outcome of one submission attempt, HTTP-ready.
pub(crate) enum SubmitVerdict {
    Accepted(JobStatusDto),
    Refused {
        error: WireError,
        /// `Retry-After` seconds, for the 429 family.
        retry_after: Option<u32>,
    },
}

impl ServerState {
    fn tenant_slots(&self, tenant: &str) -> Arc<AtomicUsize> {
        let mut tenants = self.tenants.lock().unwrap();
        Arc::clone(
            tenants
                .entry(tenant.to_string())
                .or_insert_with(|| Arc::new(AtomicUsize::new(0))),
        )
    }

    /// Claims one in-flight slot for `tenant`, sweeping its finished
    /// jobs first if the quota looks spent.
    fn claim_slot(&self, tenant: &str) -> Result<Arc<AtomicUsize>, WireError> {
        let cap = self.config.tenant_inflight_cap.max(1);
        let slots = self.tenant_slots(tenant);
        let claim = |slots: &AtomicUsize| {
            slots
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                    (n < cap).then_some(n + 1)
                })
                .is_ok()
        };
        if claim(&slots) {
            return Ok(slots);
        }
        // Saturated — maybe only because nobody polled lately. Drive
        // this tenant's transitions, then try once more.
        self.table.sweep_tenant(tenant);
        if claim(&slots) {
            return Ok(slots);
        }
        Err(WireError::new(
            WireCode::TenantQuota,
            format!("tenant {tenant:?} already has {cap} unresolved jobs"),
        ))
    }

    /// One observation of queue depth for the shedding policy; returns
    /// whether shedding is engaged for this submission.
    fn observe_pressure(&self) -> bool {
        let cap = self.config.queue_capacity.max(1);
        let high = (cap * 3).div_ceil(4);
        let low = cap / 2;
        let depth = self.engine.stats().queued as usize;
        let mut shed = self.shed.lock().unwrap();
        if depth >= high {
            shed.streak = shed.streak.saturating_add(1);
            if shed.streak >= self.config.shed_after.max(1) {
                shed.engaged = true;
            }
        } else {
            shed.streak = 0;
            if depth <= low {
                shed.engaged = false;
            }
        }
        self.metrics
            .shedding
            .set(if shed.engaged { 1.0 } else { 0.0 });
        shed.engaged
    }

    /// One `Retry-After` suggestion from current engine stats (see
    /// [`RetryAfterEstimator`]).
    fn suggest_retry_after(&self) -> u32 {
        let stats = self.engine.stats();
        let terminal =
            stats.completed + stats.cancelled + stats.expired + stats.panicked + stats.aborted;
        self.retry_after
            .suggest(Instant::now(), terminal, stats.queued)
    }

    /// Full submission pipeline: tenant quota → shed policy → engine
    /// admission → job table. `header_tenant` is the transport-level
    /// fallback; the body's `tenant` field wins.
    pub(crate) fn submit(&self, body: SubmitBody, header_tenant: Option<&str>) -> SubmitVerdict {
        if self.stopping.load(Ordering::Acquire) {
            return SubmitVerdict::Refused {
                error: WireError::new(WireCode::EngineClosed, "server is shutting down"),
                retry_after: None,
            };
        }
        let tenant = body
            .tenant
            .clone()
            .or_else(|| header_tenant.map(str::to_string))
            .unwrap_or_else(|| "anonymous".to_string());
        let slots = match self.claim_slot(&tenant) {
            Ok(slots) => slots,
            Err(error) => {
                self.metrics.rejected_tenant_quota.inc();
                return SubmitVerdict::Refused {
                    error,
                    retry_after: Some(self.suggest_retry_after()),
                };
            }
        };
        let (spec, shed) = self.apply_shed_policy(body.spec);
        let mut request = spec.to_request(Arc::new(body.matrix));
        let trace = body.trace.then(TraceBuf::new);
        if let Some(buf) = &trace {
            request = request.trace_sink(Box::new(JsonlSink::new(TraceWriter(Arc::clone(buf)))));
        }
        let handle = match self.engine.try_submit_tagged(request, Some(&tenant)) {
            Ok(handle) => handle,
            Err(err) => {
                // The job never existed; give the quota slot back.
                slots.fetch_sub(1, Ordering::AcqRel);
                let code = err.wire_code();
                let retry_after = (code == WireCode::QueueFull).then(|| self.suggest_retry_after());
                if code == WireCode::QueueFull {
                    self.metrics.rejected_queue_full.inc();
                }
                return SubmitVerdict::Refused {
                    error: WireError::new(code, err.to_string()),
                    retry_after,
                };
            }
        };
        let id = handle.id().0;
        self.table
            .insert(id, handle, tenant.clone(), slots, shed, trace);
        self.metrics.accepted.inc();
        if shed {
            self.metrics.shed.inc();
        }
        self.metrics.jobs_tracked.set(self.table.len() as f64);
        SubmitVerdict::Accepted(JobStatusDto {
            id: wire_id(id),
            state: JobState::Pending,
            tenant,
            shed,
            cancel_requested: false,
            recovered: false,
            result: None,
            error: None,
        })
    }

    /// Degrades `spec` to Fast-preset effort when shedding is engaged.
    /// Identity-preserving knobs (seed, deadline, workers, trace
    /// sampling) and the constraint fields — they define *which*
    /// problem is solved, not how hard — survive; effort overrides are
    /// dropped with the preset. Returns the effective spec and whether
    /// it was changed.
    fn apply_shed_policy(&self, spec: JobSpec) -> (JobSpec, bool) {
        if !self.observe_pressure() {
            return (spec, false);
        }
        let mut fast = JobSpec::new(Preset::Fast);
        fast.workers = spec.workers;
        fast.seed = spec.seed;
        fast.deadline = spec.deadline;
        fast.trace_every = spec.trace_every;
        fast.coverage = spec.coverage.clone();
        fast.gub_groups = spec.gub_groups.clone();
        let changed = fast != spec;
        (fast, changed)
    }

    pub(crate) fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }

    pub(crate) fn table(&self) -> &JobTable {
        &self.table
    }

    pub(crate) fn max_body(&self) -> usize {
        self.config.max_body_bytes
    }

    pub(crate) fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// A running `ucp-api/2` server: an acceptor thread plus one thread per
/// live connection, all sharing one [`Engine`].
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, starts the engine and the acceptor, and returns
    /// immediately; the server runs until [`Server::shutdown`] (or
    /// drop).
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(
            config
                .addr
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| io::Error::other("bind address resolved to nothing"))?,
        )?;
        let addr = listener.local_addr()?;
        let engine_config = EngineConfig {
            workers: config.workers,
            queue_capacity: config.queue_capacity,
        };
        // Open the journal and replay its surviving prefix *before* the
        // engine starts: recovered jobs must be re-enqueued (and their
        // terminal records re-published) before any new connection can
        // race a submission against them.
        let mut recovery = None;
        let engine = match &config.journal_dir {
            Some(dir) => {
                let opened = Journal::open(dir)?;
                recovery = Some(RecoverySet::from_records(&opened.replay.records));
                Engine::start_journaled(engine_config, Arc::new(opened.journal))
            }
            None => Engine::start(engine_config),
        };
        let metrics = ServerMetrics::register(&engine.registry());
        let state = Arc::new(ServerState {
            table: JobTable::new(config.retain_terminal),
            tenants: Mutex::new(HashMap::new()),
            shed: Mutex::new(ShedState::default()),
            metrics,
            config,
            engine,
            stopping: AtomicBool::new(false),
            started: Instant::now(),
            retry_after: RetryAfterEstimator::new(),
        });
        if let Some(set) = recovery {
            // Jobs the previous process already resolved stay pollable
            // at their original ids...
            for job in set.terminal() {
                let tenant = job
                    .tenant
                    .clone()
                    .unwrap_or_else(|| "anonymous".to_string());
                let terminal = job
                    .terminal
                    .as_ref()
                    .expect("terminal() yields resolved jobs");
                state
                    .table
                    .insert_recovered_terminal(job.job, tenant, terminal);
                state.metrics.recovered.inc();
            }
            // ...and unresolved ones go back through the engine, resumed
            // from their newest valid checkpoint. Recovered jobs claim
            // tenant slots unconditionally — admission control already
            // happened in the previous life.
            let recovered_jobs = state.engine.recover(&set);
            for rec in recovered_jobs {
                let tenant = rec
                    .tenant
                    .clone()
                    .unwrap_or_else(|| "anonymous".to_string());
                let slots = state.tenant_slots(&tenant);
                slots.fetch_add(1, Ordering::AcqRel);
                state
                    .table
                    .insert_recovered(rec.id, rec.handle, tenant, slots);
                state.metrics.recovered.inc();
            }
            state.metrics.jobs_tracked.set(state.table.len() as f64);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("ucp-server-accept".into())
                .spawn(move || accept_loop(&listener, &state, &stop))
                .expect("spawn acceptor")
        };
        Ok(Server {
            state,
            addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The resolved listen address (the actual port when `addr` asked
    /// for an ephemeral one).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine's final counters without stopping anything.
    pub fn engine_stats(&self) -> EngineStats {
        self.state.engine.stats()
    }

    /// Stops accepting, cancels every in-flight job, aborts the queued
    /// ones (each resolves to the `shutdown` wire code — no handle is
    /// lost), waits briefly for the cancellations to land and returns
    /// the engine's final counters.
    pub fn shutdown(mut self) -> EngineStats {
        self.begin_stop();
        self.state.table.cancel_all();
        self.state.engine.abort_queued();
        // Cancelled jobs resolve at their next round boundary; give
        // them a bounded window to do so for a tidy exit.
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.state.engine.stats().running > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        self.state.table.cancel_all();
        self.state.engine.stats()
    }

    fn begin_stop(&mut self) {
        self.state.stopping.store(true, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        // Unblock the acceptor with one last connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_stop();
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let state = Arc::clone(state);
        let _ = thread::Builder::new()
            .name("ucp-server-conn".into())
            .spawn(move || {
                let _ = handle_connection(&state, stream);
            });
    }
}

fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    loop {
        match http::read_request(&mut reader, state.max_body()) {
            Ok(req) => {
                state.metrics.http_requests.inc();
                let close = req.wants_close();
                api::handle(state, &req, &mut stream)?;
                if close || state.stopping.load(Ordering::Acquire) {
                    return Ok(());
                }
            }
            Err(http::RecvError::Closed) => return Ok(()),
            Err(http::RecvError::TooLarge { limit }) => {
                state.metrics.http_requests.inc();
                api::respond_error(
                    &mut stream,
                    &WireError::new(
                        WireCode::PayloadTooLarge,
                        format!("request body exceeds {limit} bytes"),
                    ),
                    &[("Connection", "close")],
                )?;
                return Ok(());
            }
            Err(http::RecvError::Malformed(msg)) => {
                state.metrics.http_requests.inc();
                api::respond_error(
                    &mut stream,
                    &WireError::new(WireCode::BadRequest, msg),
                    &[("Connection", "close")],
                )?;
                return Ok(());
            }
            Err(http::RecvError::Io(_)) => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_tracks_drain_rate() {
        let est = RetryAfterEstimator::new();
        let t0 = Instant::now();
        // First pressure event: no history, optimistic floor.
        assert_eq!(est.suggest(t0, 100, 40), 1);
        // 10 s later 20 jobs drained → 2 jobs/s; 40 queued → 20 s wait.
        assert_eq!(est.suggest(t0 + Duration::from_secs(10), 120, 40), 20);
        // Faster drain shortens the suggestion (vs the oldest sample):
        // 80 drained over 20 s → 4 jobs/s; 40 queued → 10 s.
        assert_eq!(est.suggest(t0 + Duration::from_secs(20), 180, 40), 10);
    }

    #[test]
    fn retry_after_is_bounded() {
        let est = RetryAfterEstimator::new();
        let t0 = Instant::now();
        est.suggest(t0, 0, 1000);
        // Tiny drain over a long span with a deep queue: capped at 60.
        assert_eq!(est.suggest(t0 + Duration::from_secs(50), 1, 1000), 60);
        // Huge drain with a shallow queue: floored at 1.
        let est = RetryAfterEstimator::new();
        est.suggest(t0, 0, 1);
        assert_eq!(est.suggest(t0 + Duration::from_secs(10), 10_000, 1), 1);
    }

    #[test]
    fn retry_after_stuck_queue_earns_the_cap() {
        let est = RetryAfterEstimator::new();
        let t0 = Instant::now();
        est.suggest(t0, 50, 10);
        // Nothing drained, but the span is short — stay optimistic.
        assert_eq!(est.suggest(t0 + Duration::from_secs(5), 50, 10), 1);
        // Nothing drained across (nearly) the whole window — pessimistic.
        assert_eq!(est.suggest(t0 + Duration::from_secs(58), 50, 10), 60);
    }

    #[test]
    fn retry_after_drops_expired_samples() {
        let est = RetryAfterEstimator::new();
        let t0 = Instant::now();
        est.suggest(t0, 0, 10);
        // 90 s later the first sample is outside the 60 s window, so
        // this acts like a fresh first observation.
        assert_eq!(est.suggest(t0 + Duration::from_secs(90), 500, 10), 1);
    }
}
