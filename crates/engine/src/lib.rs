//! Batch solve engine: a long-lived worker pool scheduling many
//! concurrent [`SolveRequest`] jobs.
//!
//! Where `ucp_core::restart` parallelises *one* solve across threads,
//! this crate parallelises *many* solves: an [`Engine`] owns a fixed
//! pool of workers and a bounded job queue, and callers stream
//! [`SolveRequest`]s through it. Each request keeps its own options,
//! seed, deadline and trace sink, so every job reproduces exactly what
//! a standalone [`Scg::run`] call would compute — the batch integration
//! test pins that bit-for-bit.
//!
//! The scheduling contract:
//!
//! * **Backpressure** — [`Engine::submit`] blocks while the queue is at
//!   capacity; [`Engine::try_submit`] refuses instead
//!   ([`SubmitError::QueueFull`]), for callers doing their own
//!   admission control.
//! * **Cancellation** — every job carries a [`CancelFlag`];
//!   [`JobHandle::cancel`] aborts a queued job before it starts and a
//!   running job at its next round boundary, yielding
//!   [`JobError::Cancelled`] without disturbing any other job.
//! * **Deadlines** — a request's [`SolveRequest::deadline`] budget is
//!   measured from *submission*: queue wait counts against it, and a
//!   budget fully spent in the queue resolves to [`JobError::Expired`]
//!   without starting the solve.
//! * **Panic isolation** — a panicking solve (or probe) is caught per
//!   job ([`JobError::Panicked`]); the worker thread survives and the
//!   engine keeps serving.
//!
//! ```
//! use std::sync::Arc;
//! use cover::CoverMatrix;
//! use ucp_core::{Preset, SolveRequest};
//! use ucp_engine::{Engine, EngineConfig};
//!
//! let engine = Engine::start(EngineConfig {
//!     workers: 2,
//!     queue_capacity: 8,
//! });
//! let m = Arc::new(CoverMatrix::from_rows(
//!     5,
//!     vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
//! ));
//! let jobs: Vec<_> = (0..4)
//!     .map(|seed| {
//!         let req = SolveRequest::for_shared(Arc::clone(&m))
//!             .preset(Preset::Fast)
//!             .seed(seed);
//!         engine.submit(req).unwrap()
//!     })
//!     .collect();
//! for job in jobs {
//!     assert_eq!(job.wait().unwrap().cost, 3.0);
//! }
//! engine.shutdown();
//! ```

mod job;

pub use job::{JobError, JobHandle, JobId, JobResult, SubmitError};

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use ucp_core::wire::{JobResultDto, JobSpec, WireError};
use ucp_core::{CancelFlag, Scg, SolveError, SolveMetrics, SolveRequest};
use ucp_durability::{Journal, JournalMetrics, Record, RecoverySet};
use ucp_metrics::{Counter, Gauge, Histogram, MetricSnapshot, Registry};

/// Milliseconds since the Unix epoch — the timestamp journal records
/// carry (wall-clock absolute, so replay after a restart can honour the
/// original deadlines).
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// How an [`Engine`] is sized.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads draining the queue; `0` means one per available
    /// core.
    pub workers: usize,
    /// Bounded queue capacity — the backpressure knob. [`Engine::submit`]
    /// blocks and [`Engine::try_submit`] refuses once this many jobs
    /// are waiting (running jobs don't count).
    pub queue_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            queue_capacity: 64,
        }
    }
}

impl EngineConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            ucp_core::available_cores()
        }
    }
}

/// A point-in-time snapshot of the engine's counters (see
/// [`Engine::stats`]).
///
/// The numbers are read from the engine's metrics registry
/// ([`Engine::registry`]), so this summary and a Prometheus scrape of
/// the same engine always agree; [`Engine::metrics_snapshot`] adds the
/// latency histograms this flat struct cannot carry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Jobs accepted by `submit`/`try_submit` since start.
    pub submitted: u64,
    /// Jobs that resolved to an [`ScgOutcome`](ucp_core::ScgOutcome).
    pub completed: u64,
    /// Jobs that resolved to [`JobError::Cancelled`].
    pub cancelled: u64,
    /// Jobs that resolved to [`JobError::Expired`].
    pub expired: u64,
    /// Jobs that resolved to [`JobError::Panicked`].
    pub panicked: u64,
    /// Queued jobs aborted to [`JobError::Shutdown`] by
    /// [`Engine::shutdown_now`] / [`Engine::abort_queued`] without
    /// running.
    pub aborted: u64,
    /// Completed jobs that warm-started from a journaled checkpoint
    /// (their outcome's `resumed` count was non-zero).
    pub resumed: u64,
    /// Jobs currently waiting in the queue.
    pub queued: u64,
    /// Jobs currently running on a worker.
    pub running: u64,
}

/// One queued unit of work. The id lives on the [`JobHandle`] side;
/// workers identify jobs only by queue position.
///
/// Both slots are `Option` so the drop guard can tell "resolved" from
/// "discarded": a job dropped with its sender still in place (an
/// aborted queue, a discarded engine) resolves its handle to
/// [`JobError::Shutdown`] instead of leaving the submitter hanging on a
/// channel that silently disconnects.
struct Job {
    id: JobId,
    request: Option<SolveRequest<'static>>,
    cancel: CancelFlag,
    submitted_at: Instant,
    /// Wall-clock-absolute deadline (from the request's budget at
    /// submission, or the journaled original for recovered jobs).
    /// Wall-clock so a crash + replay can never extend the budget.
    deadline_at: Option<SystemTime>,
    tx: Option<mpsc::Sender<JobResult>>,
}

impl Job {
    /// Delivers the job's terminal verdict (at most once; the drop
    /// guard becomes a no-op afterwards). A submitter that dropped its
    /// handle abandons the result, never the accounting around it.
    fn resolve(&mut self, result: JobResult) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(result);
        }
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        self.resolve(Err(JobError::Shutdown));
    }
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Registry-backed engine counters: every field is an `Arc` handle into
/// the engine's [`Registry`], so the scheduler's hot-path increments
/// (one relaxed `fetch_add` each, same cost as the plain `AtomicU64`s
/// they replaced) accumulate directly into the exposed metric families.
struct Counters {
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    cancelled: Arc<Counter>,
    expired: Arc<Counter>,
    panicked: Arc<Counter>,
    /// Queued jobs aborted to [`JobError::Shutdown`] without running.
    aborted: Arc<Counter>,
    /// Completed jobs that warm-started from a journaled checkpoint.
    resumed: Arc<Counter>,
    running: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    /// Submission-to-dequeue wait per job. Every accepted job is
    /// eventually dequeued (shutdown drains the queue), so this
    /// histogram's count reconciles exactly with `submitted`.
    queue_wait: Arc<Histogram>,
    /// Worker-side wall clock per job, queue wait excluded. Every
    /// dequeued job records exactly one observation whatever its
    /// verdict, so the count reconciles with the terminal counters.
    run_latency: Arc<Histogram>,
    uptime: Arc<Gauge>,
    jobs_per_second: Arc<Gauge>,
    solve: SolveMetrics,
}

impl Counters {
    fn register(registry: &Registry) -> Self {
        Counters {
            submitted: registry.counter(
                "ucp_engine_jobs_submitted_total",
                "Jobs accepted by submit/try_submit",
            ),
            completed: registry.counter(
                "ucp_engine_jobs_completed_total",
                "Jobs that resolved to an outcome",
            ),
            cancelled: registry.counter(
                "ucp_engine_jobs_cancelled_total",
                "Jobs that resolved to Cancelled",
            ),
            expired: registry.counter(
                "ucp_engine_jobs_expired_total",
                "Jobs whose deadline budget ran out",
            ),
            panicked: registry.counter(
                "ucp_engine_jobs_panicked_total",
                "Jobs whose solve panicked (isolated per job)",
            ),
            aborted: registry.counter(
                "ucp_engine_jobs_aborted_total",
                "Queued jobs aborted to Shutdown without running",
            ),
            resumed: registry.counter(
                "ucp_engine_jobs_resumed_total",
                "Completed jobs that warm-started from a journaled checkpoint",
            ),
            running: registry.gauge("ucp_engine_jobs_running", "Jobs currently on a worker"),
            queue_depth: registry.gauge("ucp_engine_queue_depth", "Jobs waiting in the queue"),
            queue_wait: registry.histogram(
                "ucp_engine_queue_wait_seconds",
                "Submission-to-dequeue wait per job",
                &Histogram::latency_buckets(),
            ),
            run_latency: registry.histogram(
                "ucp_engine_run_seconds",
                "Worker-side wall clock per job (queue wait excluded)",
                &Histogram::latency_buckets(),
            ),
            uptime: registry.gauge(
                "ucp_engine_uptime_seconds",
                "Seconds since the engine started",
            ),
            jobs_per_second: registry.gauge(
                "ucp_engine_jobs_per_second",
                "Terminal jobs per second of uptime",
            ),
            solve: SolveMetrics::register(registry),
        }
    }

    fn terminal(&self) -> u64 {
        self.completed.get()
            + self.cancelled.get()
            + self.expired.get()
            + self.panicked.get()
            + self.aborted.get()
    }
}

struct Shared {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    counters: Counters,
    registry: Arc<Registry>,
    started: Instant,
    /// The write-ahead job journal, when this engine is durable (see
    /// [`Engine::start_journaled`]). Append failures are reported to
    /// stderr and the job proceeds: the engine favours availability
    /// over durability once the journal's disk misbehaves.
    journal: Option<Arc<Journal>>,
}

impl Shared {
    /// Appends `record`, surfacing (but not propagating) IO errors.
    fn journal_append(&self, record: &Record) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.append(record) {
                eprintln!("ucp-engine: journal append failed ({}): {e}", record.kind());
            }
        }
    }
}

/// One job re-enqueued from the journal by [`Engine::recover`].
pub struct RecoveredJob {
    /// The job's original engine id, preserved across the restart.
    pub id: u64,
    /// A fresh handle to the re-enqueued job.
    pub handle: JobHandle,
    /// The tenant recorded at original submission, if any.
    pub tenant: Option<String>,
    /// `true` when the job warm-starts from a journaled checkpoint
    /// rather than solving from scratch.
    pub resumed: bool,
}

/// A long-lived batch solve engine (see the crate docs for the
/// scheduling contract).
///
/// Dropping the engine performs the same graceful [`Engine::shutdown`]:
/// already-queued jobs still run to completion.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Engine {
    /// Starts the worker pool. Workers idle until jobs arrive and live
    /// until [`Engine::shutdown`] (or drop).
    pub fn start(config: EngineConfig) -> Self {
        Self::start_inner(config, None)
    }

    /// [`Engine::start`] with a write-ahead job journal attached: every
    /// accepted job is journaled before its submitter is acknowledged,
    /// workers journal `started`, per-run solver checkpoints and the
    /// terminal transition (before the handle resolves), and
    /// [`Engine::recover`] re-enqueues whatever a previous process left
    /// incomplete. `ucp_durability_*` metric families register into
    /// this engine's registry.
    pub fn start_journaled(config: EngineConfig, journal: Arc<Journal>) -> Self {
        Self::start_inner(config, Some(journal))
    }

    fn start_inner(config: EngineConfig, journal: Option<Arc<Journal>>) -> Self {
        let registry = Arc::new(Registry::new());
        if let Some(journal) = &journal {
            journal.attach_metrics(JournalMetrics::register(&registry));
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            counters: Counters::register(&registry),
            registry,
            started: Instant::now(),
            journal,
        });
        let workers = (0..config.resolved_workers())
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ucp-engine-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn engine worker")
            })
            .collect();
        Engine {
            shared,
            workers,
            next_id: AtomicU64::new(1),
        }
    }

    /// Submits a job, blocking while the queue is at capacity — the
    /// backpressure path for bulk producers that should simply run at
    /// the engine's pace.
    ///
    /// The request must be `'static` (build it with
    /// [`SolveRequest::for_shared`]); its deadline budget, if any,
    /// starts counting now, queue wait included.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] once [`Engine::shutdown`] has begun.
    ///
    /// # Example
    ///
    /// ```
    /// use std::sync::Arc;
    /// use cover::CoverMatrix;
    /// use ucp_core::{Preset, SolveRequest};
    /// use ucp_engine::Engine;
    ///
    /// let engine = Engine::start(Default::default());
    /// let m = Arc::new(CoverMatrix::from_rows(
    ///     3,
    ///     vec![vec![0, 1], vec![1, 2], vec![2, 0]],
    /// ));
    /// let job = engine
    ///     .submit(SolveRequest::for_shared(m).preset(Preset::Fast))
    ///     .unwrap();
    /// assert_eq!(job.wait().unwrap().cost, 2.0);
    /// ```
    pub fn submit(&self, request: SolveRequest<'static>) -> Result<JobHandle, SubmitError> {
        self.submit_tagged(request, None)
    }

    /// [`Engine::submit`] with a tenant label for the journal's
    /// `submitted` record — how a front-end's admission identity
    /// survives a crash. The label has no scheduling effect.
    pub fn submit_tagged(
        &self,
        request: SolveRequest<'static>,
        tenant: Option<&str>,
    ) -> Result<JobHandle, SubmitError> {
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if state.closed {
                return Err(SubmitError::Closed);
            }
            if state.jobs.len() < self.shared.capacity {
                return Ok(self.enqueue(state, request, tenant));
            }
            state = self.shared.not_full.wait(state).unwrap();
        }
    }

    /// Non-blocking [`Engine::submit`]: refuses with
    /// [`SubmitError::QueueFull`] instead of waiting, so callers can
    /// shed or defer load themselves.
    pub fn try_submit(&self, request: SolveRequest<'static>) -> Result<JobHandle, SubmitError> {
        self.try_submit_tagged(request, None)
    }

    /// [`Engine::try_submit`] with a journal tenant label (see
    /// [`Engine::submit_tagged`]).
    pub fn try_submit_tagged(
        &self,
        request: SolveRequest<'static>,
        tenant: Option<&str>,
    ) -> Result<JobHandle, SubmitError> {
        let state = self.shared.state.lock().unwrap();
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.jobs.len() >= self.shared.capacity {
            return Err(SubmitError::QueueFull);
        }
        Ok(self.enqueue(state, request, tenant))
    }

    fn enqueue(
        &self,
        state: std::sync::MutexGuard<'_, QueueState>,
        request: SolveRequest<'static>,
        tenant: Option<&str>,
    ) -> JobHandle {
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let deadline_at = request
            .opts()
            .time_limit
            .map(|budget| SystemTime::now() + budget);
        // Journaled before the submitter is acknowledged: once the
        // handle exists, a crash cannot lose the job. The fsync happens
        // under the queue lock — durability is part of admission.
        if self.shared.journal.is_some() {
            let deadline_ms = deadline_at.and_then(|d| {
                d.duration_since(UNIX_EPOCH)
                    .ok()
                    .map(|d| d.as_millis() as u64)
            });
            self.shared.journal_append(&Record::Submitted {
                job: id.0,
                t_ms: now_ms(),
                spec: JobSpec::from_request(&request).ok(),
                matrix: request.shared_matrix().map(|m| (*m).clone()),
                tenant: tenant.map(str::to_string),
                deadline_ms,
            });
        }
        self.push_job(state, request, id, deadline_at)
    }

    fn push_job(
        &self,
        mut state: std::sync::MutexGuard<'_, QueueState>,
        mut request: SolveRequest<'static>,
        id: JobId,
        deadline_at: Option<SystemTime>,
    ) -> JobHandle {
        let cancel = request.cancel_flag();
        let (tx, rx) = mpsc::channel();
        state.jobs.push_back(Job {
            id,
            request: Some(request),
            cancel: cancel.clone(),
            submitted_at: Instant::now(),
            deadline_at,
            tx: Some(tx),
        });
        self.shared.counters.submitted.inc();
        self.shared
            .counters
            .queue_depth
            .set(state.jobs.len() as f64);
        drop(state);
        self.shared.not_empty.notify_one();
        JobHandle { id, cancel, rx }
    }

    /// Re-enqueues every recoverable job a journal replay found
    /// incomplete: jobs whose `submitted` record carries a spec and
    /// matrix but that never reached a terminal record. Each job keeps
    /// its original id (the id counter jumps past the journal's
    /// highest) and its original wall-clock deadline — a job whose
    /// budget expired while the process was down resolves to
    /// [`JobError::Expired`] without re-running. Jobs with a valid
    /// journaled checkpoint warm-start from it instead of solving from
    /// scratch.
    ///
    /// Recovery bypasses queue-capacity backpressure (the work was
    /// already admitted once) and does not re-journal `submitted`
    /// records.
    pub fn recover(&self, set: &RecoverySet) -> Vec<RecoveredJob> {
        self.next_id
            .fetch_max(set.max_job_id + 1, Ordering::Relaxed);
        let mut out = Vec::new();
        for job in set.incomplete() {
            let (Some(spec), Some(matrix)) = (&job.spec, &job.matrix) else {
                continue;
            };
            let matrix = Arc::new(matrix.clone());
            let mut request = spec.to_request(Arc::clone(&matrix));
            let mut resumed = false;
            if let Some(ckpt) = &job.checkpoint {
                let multicover = !request.constraint_set().is_unate();
                if ckpt.matches(&matrix, multicover) {
                    request = request.resume_from(ckpt.clone());
                    resumed = true;
                }
            }
            let deadline_at = job
                .deadline_ms
                .map(|ms| UNIX_EPOCH + Duration::from_millis(ms));
            let id = JobId(job.job);
            let state = self.shared.state.lock().unwrap();
            let handle = self.push_job(state, request, id, deadline_at);
            out.push(RecoveredJob {
                id: job.job,
                handle,
                tenant: job.tenant.clone(),
                resumed,
            });
        }
        out
    }

    /// A snapshot of the engine's counters.
    pub fn stats(&self) -> EngineStats {
        let queued = self.shared.state.lock().unwrap().jobs.len() as u64;
        let c = &self.shared.counters;
        EngineStats {
            submitted: c.submitted.get(),
            completed: c.completed.get(),
            cancelled: c.cancelled.get(),
            expired: c.expired.get(),
            panicked: c.panicked.get(),
            aborted: c.aborted.get(),
            resumed: c.resumed.get(),
            queued,
            running: c.running.get() as u64,
        }
    }

    /// The engine's metrics registry. Live for the engine's whole life,
    /// so a `/metrics` endpoint can hold the `Arc` and render
    /// [`Registry::render_prometheus`] on every scrape — engine
    /// scheduling families (`ucp_engine_*`) and per-solve solver families
    /// (`ucp_core_*`) included.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// A point-in-time snapshot of every metric series, with the derived
    /// gauges (`ucp_engine_uptime_seconds`, `ucp_engine_jobs_per_second`
    /// and `ucp_engine_queue_depth`) refreshed first.
    ///
    /// The histograms reconcile exactly with [`Engine::stats`]:
    /// `ucp_engine_queue_wait_seconds` counts every *dequeued* job (==
    /// `submitted` once the queue is empty — [`Engine::abort_queued`]
    /// records the wait of the jobs it drains too) and
    /// `ucp_engine_run_seconds` every job that ran to a verdict (==
    /// `completed + cancelled + expired + panicked`;
    /// aborted jobs never ran). The chaos test pins both identities.
    pub fn metrics_snapshot(&self) -> Vec<MetricSnapshot> {
        let c = &self.shared.counters;
        let uptime = self.shared.started.elapsed().as_secs_f64();
        c.uptime.set(uptime);
        c.jobs_per_second.set(if uptime > 0.0 {
            c.terminal() as f64 / uptime
        } else {
            0.0
        });
        c.queue_depth
            .set(self.shared.state.lock().unwrap().jobs.len() as f64);
        self.shared.registry.snapshot()
    }

    /// The pool size this engine resolved to.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Graceful shutdown: stops accepting new jobs, lets the workers
    /// drain everything already queued, joins them, and returns the
    /// final counters.
    pub fn shutdown(mut self) -> EngineStats {
        self.close_and_join();
        self.stats()
    }

    /// Aborts every job still waiting in the queue: each one resolves
    /// to [`JobError::Shutdown`] (no handle is left hanging) and counts
    /// into `ucp_engine_jobs_aborted_total`. Running jobs are
    /// untouched. Returns how many jobs were aborted.
    pub fn abort_queued(&self) -> u64 {
        let drained: Vec<Job> = {
            let mut state = self.shared.state.lock().unwrap();
            let drained: Vec<Job> = state.jobs.drain(..).collect();
            self.shared.counters.queue_depth.set(0.0);
            drained
        };
        // Blocked submitters can take the freed slots (or observe
        // `closed` during a shutdown).
        self.shared.not_full.notify_all();
        let n = drained.len() as u64;
        for mut job in drained {
            // Aborted jobs still record their queue wait, keeping the
            // histogram's count reconciled with `submitted` (every
            // accepted job leaves the queue exactly once, whichever way).
            self.shared
                .counters
                .queue_wait
                .observe_duration(job.submitted_at.elapsed());
            job.resolve(Err(JobError::Shutdown));
        }
        self.shared.counters.aborted.add(n);
        n
    }

    /// Fast shutdown: stops accepting new jobs, aborts everything still
    /// queued (each handle resolves to [`JobError::Shutdown`]), lets
    /// in-flight jobs finish, joins the workers and returns the final
    /// counters. Cancel running jobs through their handles first if
    /// they should stop too.
    pub fn shutdown_now(mut self) -> EngineStats {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.closed = true;
        }
        self.abort_queued();
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.closed = true;
        }
        // Wake idle workers so they observe `closed`, and blocked
        // submitters so they fail with `Closed`.
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let mut job = {
            let mut state = shared.state.lock().unwrap();
            let job = loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.closed {
                    return;
                }
                state = shared.not_empty.wait(state).unwrap();
            };
            shared.counters.queue_depth.set(state.jobs.len() as f64);
            job
        };
        shared.not_full.notify_one();
        // Every dequeued job records its queue wait — cancelled and
        // expired ones included — so the histogram count reconciles
        // with the `submitted` counter once the queue drains.
        shared
            .counters
            .queue_wait
            .observe_duration(job.submitted_at.elapsed());
        shared.counters.running.add(1.0);
        let run_started = Instant::now();
        let request = job.request.take().expect("queued job carries its request");
        shared.journal_append(&Record::Started {
            job: job.id.0,
            t_ms: now_ms(),
        });
        let result = run_job(
            request,
            &job.cancel,
            job.deadline_at,
            shared.journal.as_ref().map(|j| (Arc::clone(j), job.id.0)),
        );
        shared
            .counters
            .run_latency
            .observe_duration(run_started.elapsed());
        shared.counters.running.add(-1.0);
        // The terminal record lands before the handle resolves: a
        // caller that observed a result can never see the job re-run
        // after a crash (exactly-once resolution). Shutdown verdicts
        // are not journaled — those jobs stay incomplete and recover.
        let t_ms = now_ms();
        match &result {
            Ok(outcome) => shared.journal_append(&Record::Done {
                job: job.id.0,
                t_ms,
                result: JobResultDto::from_outcome(outcome),
            }),
            Err(JobError::Cancelled) => shared.journal_append(&Record::Cancelled {
                job: job.id.0,
                t_ms,
            }),
            Err(JobError::Shutdown | JobError::EngineClosed) => {}
            Err(err) => shared.journal_append(&Record::Failed {
                job: job.id.0,
                t_ms,
                error: WireError::new(err.wire_code(), err.to_string()),
            }),
        }
        let counter = match &result {
            Ok(outcome) => {
                shared.counters.solve.record(outcome);
                if outcome.resumed > 0 {
                    shared.counters.resumed.inc();
                }
                &shared.counters.completed
            }
            Err(JobError::Cancelled) => &shared.counters.cancelled,
            Err(JobError::Expired) => &shared.counters.expired,
            Err(JobError::Panicked(_)) => &shared.counters.panicked,
            Err(_) => &shared.counters.completed,
        };
        counter.inc();
        job.resolve(result);
    }
}

fn run_job(
    mut request: SolveRequest<'static>,
    cancel: &CancelFlag,
    deadline_at: Option<SystemTime>,
    journal: Option<(Arc<Journal>, u64)>,
) -> JobResult {
    ucp_failpoints::fail_point!("engine::job", |payload: String| Err(JobError::Panicked(
        payload
    )));
    if cancel.is_cancelled() {
        return Err(JobError::Cancelled);
    }
    // The deadline is wall-clock absolute, fixed at submission (or at
    // the job's *original* submission for recovered jobs): queue wait
    // and process downtime both count against it, and a budget that
    // expired while the process was down resolves here without
    // re-running the solve.
    if let Some(deadline) = deadline_at {
        match deadline.duration_since(SystemTime::now()) {
            Ok(remaining) => request = request.deadline(remaining),
            Err(_) => return Err(JobError::Expired),
        }
    }
    // Durable engines checkpoint every constructive run (unless the
    // request asked for a sparser stride) and append each checkpoint to
    // the journal, so a crash mid-solve resumes instead of restarting.
    if let Some((journal, job_id)) = journal {
        if request.opts().checkpoint_every == 0 {
            request = request.checkpoint_every(1);
        }
        request = request.checkpoint_sink(move |ckpt| {
            ucp_failpoints::fail_point!("engine::checkpoint");
            let record = Record::Checkpoint {
                job: job_id,
                t_ms: now_ms(),
                ckpt: ckpt.clone(),
            };
            if let Err(e) = journal.append(&record) {
                eprintln!("ucp-engine: checkpoint append failed: {e}");
            }
        });
    }
    match catch_unwind(AssertUnwindSafe(move || Scg::run(request))) {
        Ok(Ok(outcome)) => Ok(outcome),
        Ok(Err(SolveError::Cancelled)) => Err(JobError::Cancelled),
        Ok(Err(SolveError::Expired)) => Err(JobError::Expired),
        Ok(Err(SolveError::InvalidConstraints(e))) => Err(JobError::InvalidConstraints(e)),
        Ok(Err(other)) => Err(JobError::Panicked(format!(
            "unexpected solve error: {other}"
        ))),
        Err(payload) => Err(JobError::Panicked(panic_message(&payload))),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(inner) = payload.downcast_ref::<Box<dyn std::any::Any + Send>>() {
        // A panic that crossed `std::thread::scope` (the restart pool)
        // arrives re-boxed; unwrap to the original payload.
        panic_message(&**inner)
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cover::CoverMatrix;
    use std::time::Duration;
    use ucp_core::Preset;
    use ucp_telemetry::{Event, Probe};

    fn cycle(n: usize) -> Arc<CoverMatrix> {
        Arc::new(CoverMatrix::from_rows(
            n,
            (0..n).map(|i| vec![i, (i + 1) % n]).collect(),
        ))
    }

    fn fast_request(m: &Arc<CoverMatrix>) -> SolveRequest<'static> {
        SolveRequest::for_shared(Arc::clone(m)).preset(Preset::Fast)
    }

    /// A job that runs until cancelled: on STS(9) the Lagrangian bound
    /// sits strictly below the optimum, so the huge restart schedule
    /// never certifies and never stops early. (A cycle instance would
    /// certify instantly and finish, which is useless for parking a
    /// worker.)
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
        SolveRequest::for_shared(m).options(ucp_core::ScgOptions {
            num_iter: 5_000_000,
            ..ucp_core::ScgOptions::default()
        })
    }

    /// A trace sink that panics on the first event — the panic-injection
    /// vehicle for isolation tests, since probes run inside the solve.
    struct PanicProbe;

    impl Probe for PanicProbe {
        fn record(&mut self, _: Event) {
            panic!("probe detonated on purpose");
        }
    }

    #[test]
    fn jobs_resolve_to_the_standalone_answer() {
        let engine = Engine::start(EngineConfig {
            workers: 2,
            queue_capacity: 4,
        });
        let m = cycle(9);
        let serial = Scg::run(fast_request(&m)).unwrap();
        let jobs: Vec<_> = (0..6)
            .map(|_| engine.submit(fast_request(&m)).unwrap())
            .collect();
        for job in jobs {
            let out = job.wait().expect("job failed");
            assert_eq!(out.cost, serial.cost);
            assert_eq!(out.solution.cols(), serial.solution.cols());
        }
        let stats = engine.shutdown();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn job_ids_are_unique_and_ordered() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let m = cycle(5);
        let a = engine.submit(fast_request(&m)).unwrap();
        let b = engine.submit(fast_request(&m)).unwrap();
        assert!(a.id() < b.id());
    }

    #[test]
    fn try_submit_refuses_when_full() {
        // No workers drain the queue while we probe capacity: park the
        // single worker on a cancelled-later blocker job first.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 2,
        });
        let m = cycle(5);
        let blocker = engine.submit(blocker_request()).unwrap();
        // Wait until the worker has actually dequeued the blocker.
        while engine.stats().running == 0 {
            thread::yield_now();
        }
        let q1 = engine.try_submit(fast_request(&m)).unwrap();
        let q2 = engine.try_submit(fast_request(&m)).unwrap();
        assert_eq!(
            engine.try_submit(fast_request(&m)).unwrap_err(),
            SubmitError::QueueFull
        );
        blocker.cancel();
        assert_eq!(blocker.wait().unwrap_err(), JobError::Cancelled);
        assert!(q1.wait().is_ok());
        assert!(q2.wait().is_ok());
        engine.shutdown();
    }

    #[test]
    fn submit_blocks_until_a_slot_frees() {
        let engine = Arc::new(Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 1,
        }));
        let m = cycle(5);
        let blocker = engine.submit(blocker_request()).unwrap();
        while engine.stats().running == 0 {
            thread::yield_now();
        }
        let filler = engine.submit(fast_request(&m)).unwrap();
        // Queue is now full; a second submit must block until the
        // blocker is cancelled and the filler drains.
        let submitter = {
            let engine = Arc::clone(&engine);
            let req = fast_request(&m);
            thread::spawn(move || engine.submit(req).unwrap().wait())
        };
        thread::sleep(Duration::from_millis(50));
        assert_eq!(engine.stats().queued, 1, "submit should still be blocked");
        blocker.cancel();
        assert_eq!(blocker.wait().unwrap_err(), JobError::Cancelled);
        assert!(filler.wait().is_ok());
        assert!(submitter.join().unwrap().is_ok());
        Arc::try_unwrap(engine).ok().unwrap().shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 2,
        });
        let m = cycle(5);
        let stats = engine.shutdown();
        assert_eq!(stats.submitted, 0);
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 2,
        });
        {
            let mut state = engine.shared.state.lock().unwrap();
            state.closed = true;
        }
        assert_eq!(
            engine.try_submit(fast_request(&m)).unwrap_err(),
            SubmitError::Closed
        );
        assert_eq!(
            engine.submit(fast_request(&m)).unwrap_err(),
            SubmitError::Closed
        );
    }

    #[test]
    fn queue_spent_deadline_expires_without_solving() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 4,
        });
        let m = cycle(5);
        let blocker = engine.submit(blocker_request()).unwrap();
        while engine.stats().running == 0 {
            thread::yield_now();
        }
        // 1ns of budget cannot survive any queue wait.
        let doomed = engine
            .submit(fast_request(&m).deadline(Duration::from_nanos(1)))
            .unwrap();
        thread::sleep(Duration::from_millis(20));
        blocker.cancel();
        assert_eq!(blocker.wait().unwrap_err(), JobError::Cancelled);
        assert_eq!(doomed.wait().unwrap_err(), JobError::Expired);
        let stats = engine.shutdown();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.cancelled, 1);
    }

    #[test]
    fn panicking_job_is_isolated() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 4,
        });
        let m = cycle(9);
        let bomb = engine
            .submit(fast_request(&m).trace_sink(Box::new(PanicProbe)))
            .unwrap();
        let healthy = engine.submit(fast_request(&m)).unwrap();
        match bomb.wait() {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("detonated"), "got: {msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Same worker thread — the panic must not have killed it.
        assert!(healthy.wait().is_ok());
        let stats = engine.shutdown();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn cancelled_queued_job_never_starts() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 4,
        });
        let m = cycle(9);
        let blocker = engine.submit(blocker_request()).unwrap();
        while engine.stats().running == 0 {
            thread::yield_now();
        }
        let victim = engine.submit(fast_request(&m)).unwrap();
        let survivor = engine.submit(fast_request(&m)).unwrap();
        victim.cancel();
        blocker.cancel();
        assert_eq!(blocker.wait().unwrap_err(), JobError::Cancelled);
        assert_eq!(victim.wait().unwrap_err(), JobError::Cancelled);
        assert!(
            survivor.wait().is_ok(),
            "cancellation must not poison later jobs"
        );
        engine.shutdown();
    }

    #[test]
    fn shutdown_now_resolves_every_queued_handle() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let blocker = engine.submit(blocker_request()).unwrap();
        while engine.stats().running == 0 {
            thread::yield_now();
        }
        let m = cycle(5);
        let queued: Vec<_> = (0..3)
            .map(|_| engine.submit(fast_request(&m)).unwrap())
            .collect();
        // Let the parked worker finish promptly once shutdown begins.
        blocker.cancel();
        let stats = engine.shutdown_now();
        assert_eq!(stats.aborted, 3);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.queued, 0);
        // The regression this pins: every handle to an aborted job gets
        // an explicit terminal verdict, not a silent disconnect.
        for job in queued {
            assert_eq!(job.wait().unwrap_err(), JobError::Shutdown);
        }
        assert_eq!(blocker.wait().unwrap_err(), JobError::Cancelled);
    }

    #[test]
    fn abort_queued_frees_slots_and_counts() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 2,
        });
        let blocker = engine.submit(blocker_request()).unwrap();
        while engine.stats().running == 0 {
            thread::yield_now();
        }
        let m = cycle(5);
        let a = engine.submit(fast_request(&m)).unwrap();
        let b = engine.submit(fast_request(&m)).unwrap();
        assert_eq!(
            engine.try_submit(fast_request(&m)).unwrap_err(),
            SubmitError::QueueFull
        );
        assert_eq!(engine.abort_queued(), 2);
        assert_eq!(a.wait().unwrap_err(), JobError::Shutdown);
        assert_eq!(b.wait().unwrap_err(), JobError::Shutdown);
        // The engine stays open for business after an abort.
        let c = engine.try_submit(fast_request(&m)).unwrap();
        blocker.cancel();
        assert_eq!(blocker.wait().unwrap_err(), JobError::Cancelled);
        assert!(c.wait().is_ok());
        let stats = engine.shutdown();
        assert_eq!(stats.aborted, 2);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let engine = Engine::start(EngineConfig {
            workers: 2,
            queue_capacity: 8,
        });
        let m = cycle(7);
        let jobs: Vec<_> = (0..5)
            .map(|_| engine.submit(fast_request(&m)).unwrap())
            .collect();
        drop(engine);
        for job in jobs {
            assert!(
                job.wait().is_ok(),
                "drop must drain, not abandon, the queue"
            );
        }
    }
}
