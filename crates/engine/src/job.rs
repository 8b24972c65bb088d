//! Job-side types: [`JobId`], [`JobHandle`], [`JobError`] and
//! [`SubmitError`].

use std::sync::mpsc;
use ucp_core::{CancelFlag, ConstraintError, ScgOutcome, WireCode};

/// Engine-unique job identifier, in submission order starting at 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Why a job produced no [`ScgOutcome`].
///
/// Every variant is job-local: the engine itself keeps serving, and no
/// variant affects any other job's result (there is a CI-enforced test
/// for that).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum JobError {
    /// The job's [`JobHandle::cancel`] (or its request's own
    /// [`CancelFlag`]) tripped before or during the solve.
    Cancelled,
    /// The request's deadline budget was already spent waiting in the
    /// queue, so the solve never started.
    Expired,
    /// The solve panicked; the payload message is preserved. The worker
    /// thread survives and moves on to the next job.
    Panicked(String),
    /// The job's `coverage`/`gub_groups` constraints do not fit the
    /// instance (rejected before the solve proper started).
    InvalidConstraints(ConstraintError),
    /// The engine shut down before the job could report a result.
    EngineClosed,
    /// The engine shut down and aborted this job while it was still
    /// queued ([`Engine::shutdown_now`](crate::Engine::shutdown_now) /
    /// [`Engine::abort_queued`](crate::Engine::abort_queued)). Unlike
    /// [`JobError::EngineClosed`] — the handle-side fallback when the
    /// result channel is gone — this is an explicit terminal verdict
    /// sent for the job itself: every handle resolves, none hang.
    Shutdown,
}

impl JobError {
    /// This error's stable wire code (see
    /// [`WireCode`] for the one code ↔ HTTP status table). The match is
    /// exhaustive on purpose: adding a [`JobError`] variant without
    /// mapping it into the taxonomy is a compile error here.
    pub fn wire_code(&self) -> WireCode {
        match self {
            JobError::Cancelled => WireCode::Cancelled,
            JobError::Expired => WireCode::Expired,
            JobError::Panicked(_) => WireCode::Panicked,
            JobError::InvalidConstraints(_) => WireCode::UnsupportedConstraints,
            JobError::EngineClosed => WireCode::EngineClosed,
            JobError::Shutdown => WireCode::Shutdown,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Cancelled => f.write_str("job cancelled"),
            JobError::Expired => f.write_str("deadline budget spent before the job started"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::InvalidConstraints(e) => {
                write!(f, "job constraints do not fit the instance: {e}")
            }
            JobError::EngineClosed => f.write_str("engine shut down before the job finished"),
            JobError::Shutdown => {
                f.write_str("engine shut down and aborted the job while it was queued")
            }
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::InvalidConstraints(e) => Some(e),
            _ => None,
        }
    }
}

/// Why [`Engine::submit`](crate::Engine::submit) refused a request —
/// the admission-control half of the API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubmitError {
    /// The bounded queue is at capacity (only from
    /// [`Engine::try_submit`](crate::Engine::try_submit); `submit`
    /// blocks instead).
    QueueFull,
    /// The engine is shutting down and accepts no new jobs.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("job queue is full"),
            SubmitError::Closed => f.write_str("engine is shut down"),
        }
    }
}

impl SubmitError {
    /// This error's stable wire code (exhaustive on purpose, like
    /// [`JobError::wire_code`]).
    pub fn wire_code(&self) -> WireCode {
        match self {
            SubmitError::QueueFull => WireCode::QueueFull,
            SubmitError::Closed => WireCode::EngineClosed,
        }
    }
}

impl std::error::Error for SubmitError {}

/// What one job resolves to.
pub type JobResult = Result<ScgOutcome, JobError>;

/// The submitter's half of one queued job: cancel it, or wait for its
/// result. Dropping the handle abandons the result but never the job —
/// cancel first if the work itself should stop.
#[derive(Debug)]
pub struct JobHandle {
    pub(crate) id: JobId,
    pub(crate) cancel: CancelFlag,
    pub(crate) rx: mpsc::Receiver<JobResult>,
}

impl JobHandle {
    /// This job's engine-unique id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Requests cancellation. Queued jobs resolve to
    /// [`JobError::Cancelled`] without starting; a running job aborts
    /// at its next constructive round boundary. Idempotent, never
    /// blocks, and never disturbs any other job.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clone of the job's cancel flag, for controllers that outlive
    /// the handle.
    pub fn cancel_flag(&self) -> CancelFlag {
        self.cancel.clone()
    }

    /// Blocks until the job resolves.
    pub fn wait(self) -> JobResult {
        self.rx.recv().unwrap_or(Err(JobError::EngineClosed))
    }

    /// Non-blocking poll: `None` while the job is still queued or
    /// running, the result once it resolved.
    pub fn try_wait(&self) -> Option<JobResult> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(JobError::EngineClosed)),
        }
    }
}
