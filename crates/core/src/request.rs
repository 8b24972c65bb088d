//! The unified solve API: [`SolveRequest`], [`Preset`], [`CancelFlag`]
//! and [`SolveError`].
//!
//! Every solve — inline or pooled, probed or not — is one call:
//!
//! ```
//! use cover::CoverMatrix;
//! use ucp_core::{Scg, SolveRequest};
//!
//! let m = CoverMatrix::from_rows(
//!     5,
//!     vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
//! );
//! let out = Scg::run(SolveRequest::for_matrix(&m).workers(4)).unwrap();
//! assert_eq!(out.cost, 3.0);
//! ```
//!
//! A request describes *everything* about one solve: the instance, the
//! tunables (usually via a [`Preset`]), the worker count, an optional
//! wall-clock deadline, the RNG seed, an optional telemetry probe, and
//! an optional [`CancelFlag`] that aborts the solve cooperatively from
//! another thread. Requests built from an owned matrix
//! ([`SolveRequest::for_shared`]) are `Send + 'static`, which is what
//! lets `ucp-engine` queue them across a long-lived worker pool.

use crate::checkpoint::SolverCheckpoint;
use crate::restart::CoreBudget;
use crate::scg::{Scg, ScgOptions, ScgOutcome};
use crate::subgradient::SubgradientOptions;
use cover::{ConstraintError, Constraints, CoverMatrix, GubGroup};
use std::sync::Arc;
use std::time::Duration;
use ucp_telemetry::{Event, NoopProbe, Probe};

// The cancellation primitive lives in `cover` (it is polled between the
// reduction passes), re-exported here so the solve API stays one import.
pub use cover::CancelFlag;

/// Named option presets.
///
/// Each preset pins the paper's headline knobs — `NumIter` (number of
/// constructive runs), the `BestCol` randomisation width growth, and
/// the rating weight `α` in `σ_j = c̃_j − α·μ_j` — plus the subgradient
/// iteration cap and greedy period
/// ([`SubgradientOptions::heuristic_period`]; multicover solves clamp it
/// to 1):
///
/// | preset | `NumIter` | `BestCol` growth | `α` | subgradient iters | greedy period |
/// |---|---|---|---|---|---|
/// | [`Preset::Paper`] | 4 | 1 (width `min(k, 16)`) | 2.0 | 300 | 20 |
/// | [`Preset::Fast`] | 1 | 1 (deterministic run only) | 2.0 | 120 | 20 |
/// | [`Preset::Thorough`] | 12 | 2 (width `min(2k−1, 16)`) | 2.0 | 600 | 20 |
///
/// `Paper` is the published configuration (and `ScgOptions::default()`).
/// `Fast` is for tests and large sweeps: the single deterministic run,
/// shorter ascents. `Thorough` spends ~3× the paper's restart schedule
/// with wider randomisation and longer ascents for hard instances where
/// the certificate does not close early. All other fields (`ĉ`, `μ̂`,
/// `DualPen`, seed, partitioning) keep their paper defaults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Preset {
    /// The paper's published parameters (`ScgOptions::default()`).
    #[default]
    Paper,
    /// Single deterministic run, short ascents: tests and sweeps.
    Fast,
    /// Triple restart schedule, wider `BestCol`, longer ascents.
    Thorough,
}

impl Preset {
    /// All presets, in increasing effort order.
    pub const ALL: [Preset; 3] = [Preset::Fast, Preset::Paper, Preset::Thorough];

    /// The full option set this preset names.
    pub fn options(self) -> ScgOptions {
        match self {
            Preset::Paper => ScgOptions::default(),
            Preset::Fast => ScgOptions {
                num_iter: 1,
                subgradient: SubgradientOptions {
                    max_iters: 120,
                    ..SubgradientOptions::default()
                },
                ..ScgOptions::default()
            },
            Preset::Thorough => ScgOptions {
                num_iter: 12,
                best_col_growth: 2,
                subgradient: SubgradientOptions {
                    max_iters: 600,
                    ..SubgradientOptions::default()
                },
                ..ScgOptions::default()
            },
        }
    }

    /// The CLI-facing name (`paper`, `fast`, `thorough`).
    pub fn name(self) -> &'static str {
        match self {
            Preset::Paper => "paper",
            Preset::Fast => "fast",
            Preset::Thorough => "thorough",
        }
    }
}

impl std::fmt::Display for Preset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Preset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "paper" | "default" => Ok(Preset::Paper),
            "fast" => Ok(Preset::Fast),
            "thorough" => Ok(Preset::Thorough),
            other => Err(format!(
                "unknown preset {other:?} (expected paper, fast or thorough)"
            )),
        }
    }
}

/// Why [`Scg::run`] returned no outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// The request's [`CancelFlag`] tripped before or during the solve.
    /// Whatever partial work was done is discarded.
    Cancelled,
    /// The request's deadline passed before the solve produced any
    /// feasible cover — the budget ran out inside the reduction stage.
    /// (A deadline reached *after* reduction degrades gracefully instead:
    /// the restarts stop and the best cover so far is returned.)
    Expired,
    /// The request's [`Constraints`] do not fit the instance — a
    /// malformed coverage vector or group set, or a demand no column
    /// subset can meet. Caught before any solving starts; the carried
    /// [`ConstraintError`] says which row/group and why.
    InvalidConstraints(ConstraintError),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Cancelled => f.write_str("solve cancelled"),
            SolveError::Expired => f.write_str("solve deadline expired before a cover was found"),
            SolveError::InvalidConstraints(_) => {
                f.write_str("solve constraints do not fit the instance")
            }
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::InvalidConstraints(e) => Some(e),
            SolveError::Cancelled | SolveError::Expired => None,
        }
    }
}

impl From<ConstraintError> for SolveError {
    fn from(e: ConstraintError) -> Self {
        SolveError::InvalidConstraints(e)
    }
}

/// The instance a request solves: borrowed for inline calls, shared
/// (`Arc`) for requests that outlive their builder, e.g. engine jobs.
enum MatrixSource<'a> {
    Borrowed(&'a CoverMatrix),
    Shared(Arc<CoverMatrix>),
}

impl MatrixSource<'_> {
    fn get(&self) -> &CoverMatrix {
        match self {
            MatrixSource::Borrowed(m) => m,
            MatrixSource::Shared(m) => m,
        }
    }
}

/// Where a request's telemetry goes. Probes are `Send` in both forms so
/// a `SolveRequest<'static>` can cross threads whole.
enum ProbeSlot<'a> {
    Borrowed(&'a mut (dyn Probe + Send)),
    Boxed(Box<dyn Probe + Send + 'a>),
}

impl ProbeSlot<'_> {
    fn get(&mut self) -> &mut (dyn Probe + Send) {
        match self {
            ProbeSlot::Borrowed(p) => *p,
            ProbeSlot::Boxed(p) => &mut **p,
        }
    }
}

/// Adapter running the monomorphised solver over a dynamic probe.
struct DynProbe<'a>(&'a mut (dyn Probe + Send));

impl Probe for DynProbe<'_> {
    #[inline]
    fn record(&mut self, event: Event) {
        self.0.record(event);
    }

    #[inline]
    fn enabled(&self) -> bool {
        self.0.enabled()
    }

    #[inline]
    fn events_dropped(&self) -> u64 {
        self.0.events_dropped()
    }
}

/// A boxed checkpoint sink as stored by [`SolveRequest::checkpoint_sink`].
type CheckpointSink<'a> = Box<dyn FnMut(&SolverCheckpoint) + Send + 'a>;

/// Probe wrapper materialising [`Event::Checkpoint`] into
/// [`SolverCheckpoint`]s for the request's checkpoint sink. Everything
/// else — including the checkpoint event itself — flows through to the
/// inner probe unchanged, and `enabled()` defers to the inner probe so
/// wrapping never turns on event assembly elsewhere in the solver.
struct CheckpointTap<'s, P: Probe> {
    inner: P,
    sink: &'s mut (dyn FnMut(&SolverCheckpoint) + Send),
    rows: usize,
    cols: usize,
    nnz: usize,
}

impl<P: Probe> Probe for CheckpointTap<'_, P> {
    fn record(&mut self, event: Event) {
        if let Event::Checkpoint {
            next_run,
            core_rows,
            core_cols,
            lower_bound,
            incumbent_cost,
            elapsed_seconds,
            lambda,
            incumbent,
            multicover,
        } = &event
        {
            let ckpt = SolverCheckpoint {
                rows: self.rows,
                cols: self.cols,
                nnz: self.nnz,
                multicover: *multicover,
                core_rows: *core_rows,
                core_cols: *core_cols,
                lambda: lambda.clone(),
                lower_bound: *lower_bound,
                incumbent: incumbent
                    .as_ref()
                    .map(|cols| cols.iter().map(|&c| c as usize).collect()),
                incumbent_cost: *incumbent_cost,
                next_run: *next_run,
                elapsed_seconds: *elapsed_seconds,
            };
            (self.sink)(&ckpt);
        }
        self.inner.record(event);
    }

    #[inline]
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    #[inline]
    fn events_dropped(&self) -> u64 {
        self.inner.events_dropped()
    }
}

/// One fully-described solve: instance, options, deadline, seed, probe
/// and cancellation — the single argument of [`Scg::run`].
///
/// Build with [`SolveRequest::for_matrix`] (borrowing) or
/// [`SolveRequest::for_shared`] (owning, `Send + 'static`), then chain
/// the builder methods:
///
/// ```
/// use cover::CoverMatrix;
/// use std::time::Duration;
/// use ucp_core::{Preset, Scg, SolveRequest};
/// use ucp_telemetry::RecordingProbe;
///
/// let m = CoverMatrix::from_rows(3, vec![vec![0, 1], vec![1, 2], vec![2, 0]]);
/// let mut probe = RecordingProbe::new();
/// let req = SolveRequest::for_matrix(&m)
///     .preset(Preset::Fast)
///     .workers(2)
///     .seed(7)
///     .deadline(Duration::from_secs(5))
///     .probe(&mut probe);
/// let out = Scg::run(req).unwrap();
/// assert_eq!(out.cost, 2.0);
/// assert!(!probe.events().is_empty());
/// ```
pub struct SolveRequest<'a> {
    matrix: MatrixSource<'a>,
    options: ScgOptions,
    constraints: Constraints,
    cancel: Option<CancelFlag>,
    probe: Option<ProbeSlot<'a>>,
    resume: Option<Box<SolverCheckpoint>>,
    ckpt_sink: Option<CheckpointSink<'a>>,
}

impl<'a> SolveRequest<'a> {
    /// A request borrowing `m`, with [`Preset::Paper`] options.
    pub fn for_matrix(m: &'a CoverMatrix) -> Self {
        SolveRequest {
            matrix: MatrixSource::Borrowed(m),
            options: ScgOptions::default(),
            constraints: Constraints::new(),
            cancel: None,
            probe: None,
            resume: None,
            ckpt_sink: None,
        }
    }

    /// A request owning its matrix through an `Arc`. With a boxed (or
    /// no) probe the result is `Send + 'static` — the form
    /// `ucp_engine::Engine::submit` requires.
    pub fn for_shared(m: Arc<CoverMatrix>) -> Self {
        SolveRequest {
            matrix: MatrixSource::Shared(m),
            options: ScgOptions::default(),
            constraints: Constraints::new(),
            cancel: None,
            probe: None,
            resume: None,
            ckpt_sink: None,
        }
    }

    /// Replaces the whole option set. Call before the per-field
    /// builders below, which edit the current set.
    pub fn options(mut self, options: ScgOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the option set with a named [`Preset`]'s.
    pub fn preset(self, preset: Preset) -> Self {
        self.options(preset.options())
    }

    /// Per-row coverage requirements `b_i` (set multicover, `Ap ≥ b`):
    /// one entry per row, each `≥ 1`. Unset — or all ones — is the unate
    /// problem and solves bit-identically to a request without coverage.
    /// Validated against the instance by [`Scg::run`] before any solving
    /// starts; a malformed or unmeetable vector fails the request with
    /// [`SolveError::InvalidConstraints`].
    pub fn coverage(mut self, coverage: Vec<u32>) -> Self {
        self.constraints = self.constraints.coverage(coverage);
        self
    }

    /// GUB constraints: disjoint column groups with an at-most-`k`
    /// selection bound each. Validated against the instance by
    /// [`Scg::run`] — overlapping groups, empty groups, zero bounds and
    /// out-of-range columns fail with
    /// [`SolveError::InvalidConstraints`].
    pub fn gub_groups(mut self, groups: Vec<GubGroup>) -> Self {
        self.constraints = self.constraints.gub_groups(groups);
        self
    }

    /// Replaces the whole constraint set (coverage and groups together).
    pub fn constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// The request's constraint set.
    pub fn constraint_set(&self) -> &Constraints {
        &self.constraints
    }

    /// Worker threads for the restarts stage (`0`, the default, = the
    /// idle cores; see [`ScgOptions::workers`]). The answer is identical
    /// for every value — see [`crate::restart`].
    pub fn workers(mut self, workers: usize) -> Self {
        self.options.workers = workers;
        self
    }

    /// RNG seed for the stochastic restarts.
    pub fn seed(mut self, seed: u64) -> Self {
        self.options.seed = seed;
        self
    }

    /// Trace-sampling stride for `SubgradientIter` events: emit one event
    /// every `n` ascent iterations instead of all of them (`0`/`1` =
    /// every iteration, the historical behaviour). Sampled ascents still
    /// emit the first, every lower-bound-improving and the final
    /// iteration, so convergence plots and iteration counts derived from
    /// the trace stay exact. Long subgradient phases emit thousands of
    /// iteration events per solve; a stride of 10–100 shrinks traces by
    /// roughly that factor without losing the envelope.
    pub fn trace_every(mut self, n: usize) -> Self {
        self.options.subgradient.trace_every = n;
        self
    }

    /// Wall-clock budget for the whole solve (one deadline spanning all
    /// partition blocks and restarts). `ucp-engine` measures this
    /// budget from *submission*, so queue time counts against it.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.options.time_limit = Some(budget);
        self
    }

    /// Attaches a borrowed telemetry probe.
    ///
    /// The probe receives `PhaseBegin`/`PhaseEnd` pairs for every phase
    /// of Fig. 2, one `SubgradientIter` per ascent iteration, and —
    /// inside the constructive runs — `RestartBegin`/`RestartEnd`,
    /// `ColumnFix` and `PenaltyElim` events. When the restarts are
    /// pooled, per-task buffers are replayed into this probe in restart
    /// order, their `PhaseEnd` seconds rescaled to wall-clock shares, so
    /// a parallel trace reads like a sequential one apart from the
    /// `worker` tags and timings.
    pub fn probe<P: Probe + Send>(mut self, probe: &'a mut P) -> Self {
        self.probe = Some(ProbeSlot::Borrowed(probe));
        self
    }

    /// Attaches an owned telemetry sink — the form engine jobs use,
    /// since their requests outlive the submitting scope.
    pub fn trace_sink(mut self, sink: Box<dyn Probe + Send + 'a>) -> Self {
        self.probe = Some(ProbeSlot::Boxed(sink));
        self
    }

    /// Emits a [`SolverCheckpoint`] after the initial subgradient ascent
    /// and then after every `n`th constructive run (`0` = never, the
    /// default). Checkpoints travel as [`Event::Checkpoint`] through the
    /// request's probe and, when set, the
    /// [`checkpoint_sink`](Self::checkpoint_sink) callback. With `n = 0` the solve is
    /// bit-identical to one without checkpointing.
    ///
    /// Every unpartitioned solve emits them, unate or multicover, pooled
    /// or inline; partitioned solves run without them.
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.options.checkpoint_every = n;
        self
    }

    /// Receives every emitted [`SolverCheckpoint`] as a typed value —
    /// the form durable schedulers persist. Requires
    /// [`checkpoint_every`](Self::checkpoint_every) to be non-zero for
    /// anything to arrive.
    pub fn checkpoint_sink<F>(mut self, sink: F) -> Self
    where
        F: FnMut(&SolverCheckpoint) + Send + 'a,
    {
        self.ckpt_sink = Some(Box::new(sink));
        self
    }

    /// Warm-starts the solve from a previously captured checkpoint.
    ///
    /// The checkpoint must [`match`](SolverCheckpoint::matches) the
    /// request's instance and constraint path, and its core shape must
    /// agree with what the deterministic reductions reproduce; a
    /// non-matching checkpoint is ignored and the solve runs cold (the
    /// outcome's [`resumed`](crate::ScgOutcome::resumed) count stays 0).
    /// A valid resume skips the already-executed constructive runs and
    /// reaches a final cost no worse than the uninterrupted solve.
    pub fn resume_from(mut self, ckpt: SolverCheckpoint) -> Self {
        self.resume = Some(Box::new(ckpt));
        self
    }

    /// Attaches a cancellation flag (a clone of `flag`; trip any clone
    /// to abort).
    pub fn cancel(mut self, flag: &CancelFlag) -> Self {
        self.cancel = Some(flag.clone());
        self
    }

    /// The request's cancellation flag, creating one if absent — how
    /// the engine guarantees every queued job is cancellable.
    pub fn cancel_flag(&mut self) -> CancelFlag {
        self.cancel.get_or_insert_with(CancelFlag::new).clone()
    }

    /// The instance this request solves.
    pub fn matrix(&self) -> &CoverMatrix {
        self.matrix.get()
    }

    /// The shared handle behind a [`SolveRequest::for_shared`] request
    /// (`None` for borrowing requests) — lets a scheduler rebuild a
    /// follow-up request for the same instance without cloning it.
    pub fn shared_matrix(&self) -> Option<Arc<CoverMatrix>> {
        match &self.matrix {
            MatrixSource::Borrowed(_) => None,
            MatrixSource::Shared(m) => Some(Arc::clone(m)),
        }
    }

    /// The current option set.
    pub fn opts(&self) -> &ScgOptions {
        &self.options
    }

    /// `true` once the request's cancel flag (if any) has tripped.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled)
    }
}

impl std::fmt::Debug for SolveRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveRequest")
            .field("rows", &self.matrix().num_rows())
            .field("cols", &self.matrix().num_cols())
            .field("options", &self.options)
            .field("kind", &self.constraints.kind())
            .field("cancellable", &self.cancel.is_some())
            .field("probed", &self.probe.is_some())
            .field("resumed", &self.resume.is_some())
            .finish()
    }
}

impl Scg {
    /// Runs the solve described by `req` — the solver's one entrypoint.
    ///
    /// The request's options are authoritative: presets, worker count,
    /// seed and deadline all travel inside it, so a request fully
    /// reproduces its solve.
    ///
    /// # Errors
    ///
    /// * [`SolveError::Cancelled`] when the request carries a
    ///   [`CancelFlag`] that tripped before or during the solve.
    /// * [`SolveError::Expired`] when the deadline passed before the
    ///   reduction stage produced anything to return.
    /// * [`SolveError::InvalidConstraints`] when the request's
    ///   constraints do not fit the instance.
    ///
    /// A request without a flag, deadline or constraints cannot fail.
    ///
    /// # Example
    ///
    /// ```
    /// use cover::CoverMatrix;
    /// use ucp_core::{Preset, Scg, SolveRequest};
    ///
    /// let m = CoverMatrix::from_rows(
    ///     5,
    ///     vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
    /// );
    /// let out = Scg::run(SolveRequest::for_matrix(&m).preset(Preset::Paper)).unwrap();
    /// assert_eq!(out.cost, 3.0);
    /// assert!(out.proven_optimal);
    /// ```
    pub fn run(req: SolveRequest<'_>) -> Result<ScgOutcome, SolveError> {
        let SolveRequest {
            matrix,
            options,
            constraints,
            cancel,
            mut probe,
            resume,
            mut ckpt_sink,
        } = req;
        let solver = Scg::new(options);
        let m = matrix.get();
        // This solve occupies a core: auto-sized pools, its own included,
        // count only the cores no running solve holds.
        let _core = CoreBudget::global().hold(1);
        let cancel_ref = cancel.as_ref();
        // Refuse cancelled requests up front so a job cancelled while
        // queued never starts reducing at all.
        if cancel_ref.is_some_and(CancelFlag::is_cancelled) {
            return Err(SolveError::Cancelled);
        }
        // Constraints are checked once, before any solving: a malformed or
        // infeasible-by-construction spec fails typed, not mid-solve, and
        // the solve builds its constraint context without re-checking.
        // All-ones coverage with no groups is the unate problem and takes
        // the unate path bit-for-bit: only its shape is checked, so an
        // uncoverable row reports `infeasible` exactly as without it.
        if constraints.is_unate() {
            constraints.validate_dims(m.num_rows(), m.num_cols())?;
        } else {
            constraints.validate_for(m)?;
        }
        let resume_ref = resume.as_deref();
        // Monomorphised over one generic probe: requests without a probe
        // or sink keep the zero-cost NoopProbe path.
        let (out, dropped) = match (probe.as_mut(), ckpt_sink.as_mut()) {
            (Some(slot), Some(sink)) => {
                let mut tap = CheckpointTap {
                    inner: DynProbe(slot.get()),
                    sink: &mut **sink,
                    rows: m.num_rows(),
                    cols: m.num_cols(),
                    nnz: m.nnz(),
                };
                let out = solver.solve_impl(m, &constraints, cancel_ref, resume_ref, &mut tap);
                (out, slot.get().events_dropped())
            }
            (Some(slot), None) => {
                let mut dyn_probe = DynProbe(slot.get());
                let out =
                    solver.solve_impl(m, &constraints, cancel_ref, resume_ref, &mut dyn_probe);
                (out, slot.get().events_dropped())
            }
            (None, Some(sink)) => {
                let mut tap = CheckpointTap {
                    inner: NoopProbe,
                    sink: &mut **sink,
                    rows: m.num_rows(),
                    cols: m.num_cols(),
                    nnz: m.nnz(),
                };
                let out = solver.solve_impl(m, &constraints, cancel_ref, resume_ref, &mut tap);
                (out, 0)
            }
            (None, None) => {
                let out =
                    solver.solve_impl(m, &constraints, cancel_ref, resume_ref, &mut NoopProbe);
                (out, 0)
            }
        };
        let mut out = out?;
        if cancel_ref.is_some_and(CancelFlag::is_cancelled) {
            return Err(SolveError::Cancelled);
        }
        out.dropped_events = dropped;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use ucp_telemetry::RecordingProbe;

    fn cycle(n: usize) -> CoverMatrix {
        CoverMatrix::from_rows(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
    }

    #[test]
    fn preset_paper_is_the_default_options() {
        let paper = Preset::Paper.options();
        let dflt = ScgOptions::default();
        assert_eq!(paper.num_iter, dflt.num_iter);
        assert_eq!(paper.alpha, dflt.alpha);
        assert_eq!(paper.subgradient.max_iters, dflt.subgradient.max_iters);
    }

    #[test]
    fn every_preset_inherits_the_greedy_period() {
        for p in Preset::ALL {
            assert_eq!(p.options().subgradient.heuristic_period, 20, "{p:?}");
        }
    }

    #[test]
    fn presets_parse_and_roundtrip() {
        for p in Preset::ALL {
            assert_eq!(p.name().parse::<Preset>().unwrap(), p);
        }
        assert!("warp".parse::<Preset>().is_err());
        assert_eq!("default".parse::<Preset>().unwrap(), Preset::Paper);
    }

    #[test]
    fn preset_effort_is_ordered() {
        assert!(Preset::Fast.options().num_iter < Preset::Paper.options().num_iter);
        assert!(Preset::Paper.options().num_iter < Preset::Thorough.options().num_iter);
        assert!(
            Preset::Fast.options().subgradient.max_iters
                < Preset::Thorough.options().subgradient.max_iters
        );
    }

    #[test]
    fn builder_fields_reach_the_options() {
        let m = cycle(5);
        let req = SolveRequest::for_matrix(&m)
            .preset(Preset::Fast)
            .workers(3)
            .seed(99)
            .deadline(Duration::from_secs(9));
        assert_eq!(req.opts().workers, 3);
        assert_eq!(req.opts().seed, 99);
        assert_eq!(req.opts().time_limit, Some(Duration::from_secs(9)));
        assert_eq!(req.opts().num_iter, Preset::Fast.options().num_iter);
    }

    #[test]
    fn trace_every_reaches_the_subgradient_options() {
        let m = cycle(5);
        let req = SolveRequest::for_matrix(&m)
            .preset(Preset::Fast)
            .trace_every(50);
        assert_eq!(req.opts().subgradient.trace_every, 50);
        assert_eq!(
            SolveRequest::for_matrix(&m).opts().subgradient.trace_every,
            1,
            "default stays dense"
        );
    }

    #[test]
    fn pre_cancelled_request_never_solves() {
        let m = cycle(7);
        let flag = CancelFlag::new();
        flag.cancel();
        let err = Scg::run(SolveRequest::for_matrix(&m).cancel(&flag)).unwrap_err();
        assert_eq!(err, SolveError::Cancelled);
    }

    #[test]
    fn mid_run_cancellation_aborts_the_solve() {
        // STS(9): the Lagrangian bound (3) sits strictly below the
        // optimum (5), so restarts never certify and this schedule
        // would otherwise grind through millions of runs.
        let m = CoverMatrix::from_rows(
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
        );
        let flag = CancelFlag::new();
        let tripper = flag.clone();
        let start = std::time::Instant::now();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            tripper.cancel();
        });
        let opts = ScgOptions {
            num_iter: 5_000_000,
            ..ScgOptions::default()
        };
        let err = Scg::run(SolveRequest::for_matrix(&m).options(opts).cancel(&flag)).unwrap_err();
        canceller.join().unwrap();
        assert_eq!(err, SolveError::Cancelled);
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "cancellation failed to interrupt the restart schedule"
        );
    }

    #[test]
    fn uncancelled_flag_does_not_interfere() {
        let m = cycle(7);
        let flag = CancelFlag::new();
        let out = Scg::run(SolveRequest::for_matrix(&m).cancel(&flag)).unwrap();
        assert!(out.solution.is_feasible(&m));
    }

    #[test]
    fn probed_run_records_events() {
        let m = cycle(7);
        let mut probe = RecordingProbe::new();
        let out = Scg::run(SolveRequest::for_matrix(&m).probe(&mut probe)).unwrap();
        assert!(out.solution.is_feasible(&m));
        assert!(!probe.events().is_empty());
        assert!(probe.unbalanced_phases().is_empty());
    }

    #[test]
    fn shared_matrix_request_is_send_and_static() {
        fn assert_send<T: Send + 'static>(_: &T) {}
        let m = Arc::new(cycle(5));
        let req = SolveRequest::for_shared(Arc::clone(&m)).preset(Preset::Fast);
        assert_send(&req);
        let out = Scg::run(req).unwrap();
        assert_eq!(out.cost, 3.0);
    }

    #[test]
    fn explicit_all_ones_coverage_matches_the_default_on_an_uncoverable_row() {
        // Row 1 has no covering column.
        let m = CoverMatrix::from_rows(2, vec![vec![0, 1], vec![]]);
        let dflt = Scg::run(SolveRequest::for_matrix(&m)).unwrap();
        assert!(dflt.infeasible);
        let ones = Scg::run(SolveRequest::for_matrix(&m).coverage(vec![1, 1])).unwrap();
        assert!(ones.infeasible);
        assert_eq!(ones.cost, dflt.cost);
        assert_eq!(ones.solution.cols(), dflt.solution.cols());
        let err = Scg::run(SolveRequest::for_matrix(&m).coverage(vec![1, 1, 1])).unwrap_err();
        assert_eq!(
            err,
            SolveError::InvalidConstraints(ConstraintError::CoverageLength {
                expected: 2,
                got: 3
            })
        );
    }

    #[test]
    fn trace_sink_receives_events() {
        struct CountProbe(Arc<std::sync::atomic::AtomicUsize>);
        impl Probe for CountProbe {
            fn record(&mut self, _: Event) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let m = cycle(7);
        let n = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let sink = Box::new(CountProbe(Arc::clone(&n)));
        Scg::run(SolveRequest::for_shared(Arc::new(m)).trace_sink(sink)).unwrap();
        assert!(n.load(Ordering::Relaxed) > 0);
    }
}
