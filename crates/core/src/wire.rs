//! The `ucp-api/2` wire layer: serializable DTOs mirroring the
//! in-process solve API, plus the wire-error taxonomy.
//!
//! [`SolveRequest`] is a borrow-heavy in-process builder — it can hold a
//! `&CoverMatrix`, a `&mut dyn Probe` and a live [`CancelFlag`](crate::CancelFlag), none of
//! which can cross a network boundary. This module is the owned,
//! serializable mirror that the CLI, the batch engine and the HTTP
//! server (`ucp-server`) all share, so there is exactly one public
//! contract for describing a solve:
//!
//! * [`JobSpec`] — everything about one job *except* the instance:
//!   preset, option overrides, workers, seed, deadline, node budget and
//!   trace sampling. Converts losslessly to and from a request
//!   ([`JobSpec::to_request`] / [`JobSpec::from_request`]).
//! * [`JobResultDto`] / [`JobStatusDto`] / [`JobState`] — the poll-side
//!   DTOs a server returns and a client parses.
//! * [`WireCode`] — the single machine-readable error taxonomy: every
//!   public error in the solve stack maps to a stable code with a fixed
//!   HTTP status ([`WireCode::entry`] is the one table).
//! * [`matrix_to_json`] / [`matrix_from_json`] — the instance itself on
//!   the wire.
//!
//! Serialization is serde-free by design (the workspace builds without
//! registry access): emission uses [`ucp_telemetry::JsonObj`] and
//! parsing the same recursive-descent [`JsonValue`] parser the trace
//! analytics use — one JSON dialect across traces, metrics and the wire
//! API.
//!
//! # Versioning
//!
//! Every envelope carries `"api": "ucp-api/2"` ([`WIRE_API`]). Parsers
//! accept a missing tag (current version implied) and the previous
//! [`WIRE_API_V1`] tag — `ucp-api/2` is a strict superset of `/1`: the
//! new `coverage`/`gub_groups` fields are optional and their absence
//! means the unate problem, so every valid `/1` body is a valid `/2`
//! body with the same meaning. Any other tag is refused, so
//! incompatible future revisions fail loudly instead of misinterpreting
//! fields.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use cover::CoverMatrix;
//! use ucp_core::wire::JobSpec;
//! use ucp_core::{Preset, Scg};
//!
//! let mut spec = JobSpec::new(Preset::Fast);
//! spec.seed = Some(7);
//! let parsed = JobSpec::parse(&spec.to_json()).unwrap();
//! assert_eq!(parsed, spec);
//! let m = Arc::new(CoverMatrix::from_rows(
//!     3,
//!     vec![vec![0, 1], vec![1, 2], vec![2, 0]],
//! ));
//! let out = Scg::run(parsed.to_request(m)).unwrap();
//! assert_eq!(out.cost, 2.0);
//! ```

use crate::request::{Preset, SolveError};
use crate::scg::{ScgOptions, ScgOutcome};
use cover::{Constraints, CoverMatrix, GubGroup};
use std::sync::Arc;
use std::time::Duration;
use ucp_telemetry::trace::parse_json;
use ucp_telemetry::{JsonObj, JsonValue};

use crate::SolveRequest;

/// The wire API version tag stamped on every envelope.
pub const WIRE_API: &str = "ucp-api/2";

/// The previous wire version, still accepted on input: `/2` only adds
/// optional fields (`coverage`, `gub_groups`), so `/1` bodies parse
/// unchanged with unate meaning.
pub const WIRE_API_V1: &str = "ucp-api/1";

/// Stable machine-readable error codes — the single taxonomy every
/// error in the solve stack maps onto.
///
/// [`WireCode::entry`] is the one table pairing each code with its
/// string form and HTTP status; the mapping *onto* the taxonomy lives
/// next to each error enum ([`SolveError::wire_code`],
/// `JobError::wire_code`, `SubmitError::wire_code` in `ucp-engine`) as a
/// compile-time-exhaustive match, so a new error variant cannot ship
/// unmapped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WireCode {
    /// The HTTP envelope or JSON document itself is malformed.
    BadRequest,
    /// Well-formed JSON that does not describe a valid job (unknown
    /// field, bad matrix, out-of-range value, version mismatch).
    InvalidSpec,
    /// The request body exceeds the server's size cap.
    PayloadTooLarge,
    /// No such job (or endpoint).
    NotFound,
    /// The engine's bounded queue is full — retry after a backoff.
    QueueFull,
    /// The tenant's in-flight job quota is exhausted — retry later.
    TenantQuota,
    /// The engine no longer accepts jobs (shutting down).
    EngineClosed,
    /// The job was aborted by an engine shutdown before it ran.
    Shutdown,
    /// The job was cancelled (by `DELETE` or its own `CancelFlag`).
    Cancelled,
    /// The job's deadline budget ran out (queue wait included).
    Expired,
    /// The solve panicked; the job is isolated and the engine healthy.
    Panicked,
    /// The ZDD node budget was exhausted. No error maps here any more:
    /// an exhausted budget degrades in-process. The code stays so that
    /// journals written before that still decode.
    ResourceExhausted,
    /// The instance has a row no column covers.
    Infeasible,
    /// The job's `coverage`/`gub_groups` constraints do not fit the
    /// instance (wrong length, overlapping groups, or a row whose
    /// demand no feasible selection can supply).
    UnsupportedConstraints,
    /// Any other server-side failure.
    Internal,
}

impl WireCode {
    /// Every code, in taxonomy order (the README table's order).
    pub const ALL: [WireCode; 15] = [
        WireCode::BadRequest,
        WireCode::InvalidSpec,
        WireCode::PayloadTooLarge,
        WireCode::NotFound,
        WireCode::QueueFull,
        WireCode::TenantQuota,
        WireCode::EngineClosed,
        WireCode::Shutdown,
        WireCode::Cancelled,
        WireCode::Expired,
        WireCode::Panicked,
        WireCode::ResourceExhausted,
        WireCode::Infeasible,
        WireCode::UnsupportedConstraints,
        WireCode::Internal,
    ];

    /// **The** taxonomy table: wire string and HTTP status for every
    /// code. All other accessors index this one match.
    pub const fn entry(self) -> (&'static str, u16) {
        match self {
            WireCode::BadRequest => ("bad_request", 400),
            WireCode::InvalidSpec => ("invalid_spec", 400),
            WireCode::PayloadTooLarge => ("payload_too_large", 413),
            WireCode::NotFound => ("not_found", 404),
            WireCode::QueueFull => ("queue_full", 429),
            WireCode::TenantQuota => ("tenant_quota", 429),
            WireCode::EngineClosed => ("engine_closed", 503),
            WireCode::Shutdown => ("shutdown", 503),
            WireCode::Cancelled => ("cancelled", 409),
            WireCode::Expired => ("expired", 504),
            WireCode::Panicked => ("panicked", 500),
            WireCode::ResourceExhausted => ("resource_exhausted", 503),
            WireCode::Infeasible => ("infeasible", 422),
            WireCode::UnsupportedConstraints => ("unsupported_constraints", 422),
            WireCode::Internal => ("internal", 500),
        }
    }

    /// The stable wire string (`"queue_full"`, …).
    pub const fn as_str(self) -> &'static str {
        self.entry().0
    }

    /// The HTTP status this code travels under when it is the response.
    pub const fn http_status(self) -> u16 {
        self.entry().1
    }

    /// Parses a wire string back into its code (clients' direction).
    pub fn parse(s: &str) -> Option<WireCode> {
        WireCode::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

impl std::fmt::Display for WireCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl SolveError {
    /// This error's wire code. The match is exhaustive on purpose: a
    /// new [`SolveError`] variant fails compilation here until it is
    /// mapped into the taxonomy.
    pub fn wire_code(&self) -> WireCode {
        match self {
            SolveError::Cancelled => WireCode::Cancelled,
            SolveError::Expired => WireCode::Expired,
            SolveError::InvalidConstraints(_) => WireCode::UnsupportedConstraints,
        }
    }
}

/// A wire-level failure: a taxonomy code plus a human-readable message.
/// This is both the parse-error type of this module and the `"error"`
/// object of `ucp-api/2` responses.
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    pub code: WireCode,
    pub message: String,
}

impl WireError {
    pub fn new(code: WireCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }

    fn invalid(message: impl Into<String>) -> Self {
        WireError::new(WireCode::InvalidSpec, message)
    }

    /// Serialises as the `{"code":…,"message":…}` error object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.field_str("code", self.code.as_str());
        o.field_str("message", &self.message);
        o.finish()
    }

    /// Parses the `{"code":…,"message":…}` error object.
    pub fn from_json_value(v: &JsonValue) -> Result<WireError, WireError> {
        let code = v
            .get("code")
            .and_then(JsonValue::as_str)
            .and_then(WireCode::parse)
            .ok_or_else(|| WireError::invalid("error object needs a known code"))?;
        let message = v
            .get("message")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string();
        Ok(WireError { code, message })
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// Why a [`SolveRequest`]'s options cannot be represented as a
/// [`JobSpec`] (the request uses a knob the wire format does not
/// carry).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecUnrepresentable {
    /// The option field that diverges from every preset's value.
    pub field: &'static str,
}

impl std::fmt::Display for SpecUnrepresentable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "option {:?} diverges from every preset and has no JobSpec field",
            self.field
        )
    }
}

impl std::error::Error for SpecUnrepresentable {}

/// Owned, serializable mirror of a [`SolveRequest`]'s tunables: the one
/// ingestion path shared by `ucp batch`, the HTTP server and any future
/// front end.
///
/// A spec is a [`Preset`] plus optional overrides; `None` means "the
/// preset's value". [`JobSpec::to_request`] applies it to a matrix;
/// [`JobSpec::from_request`] recovers the spec from a request
/// losslessly (the round-trip `spec → request → spec → request` is
/// options-identical, pinned by tests).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobSpec {
    /// Base option set ([`Preset::Paper`] by default).
    pub preset: Preset,
    /// Restart-stage worker threads (`0`, the preset's value, = the
    /// cores no running solve holds; see [`ScgOptions::workers`]).
    pub workers: Option<usize>,
    /// RNG seed for the stochastic restarts.
    pub seed: Option<u64>,
    /// Wall-clock budget for the whole job (queue wait included when it
    /// runs through the engine). Millisecond precision on the wire.
    pub deadline: Option<Duration>,
    /// Trace-sampling stride for `subgradient_iter` events.
    pub trace_every: Option<usize>,
    /// `NumIter` override: constructive runs.
    pub num_iter: Option<usize>,
    /// `BestCol` randomisation-width growth override.
    pub best_col_growth: Option<usize>,
    /// Rating weight `α` override.
    pub alpha: Option<f64>,
    /// Subgradient iteration-cap override.
    pub max_ascent_iters: Option<usize>,
    /// Apply the partitioning reduction.
    pub partition: Option<bool>,
    /// Per-row coverage requirements `b_i` (set multicover). Absent =
    /// all ones, the unate problem — every `ucp-api/1` body keeps its
    /// meaning. New in `ucp-api/2`.
    pub coverage: Option<Vec<u32>>,
    /// Disjoint GUB column groups (at most `bound` columns of each
    /// group selected). Absent = no groups. New in `ucp-api/2`.
    pub gub_groups: Option<Vec<GubGroup>>,
}

impl JobSpec {
    /// A spec with no overrides: exactly the preset's options.
    pub fn new(preset: Preset) -> Self {
        JobSpec {
            preset,
            ..JobSpec::default()
        }
    }

    /// The full option set this spec describes: the preset's options
    /// with every `Some` override applied.
    pub fn options(&self) -> ScgOptions {
        let mut opts = self.preset.options();
        if let Some(w) = self.workers {
            opts.workers = w;
        }
        if let Some(s) = self.seed {
            opts.seed = s;
        }
        if let Some(d) = self.deadline {
            opts.time_limit = Some(d);
        }
        if let Some(n) = self.trace_every {
            opts.subgradient.trace_every = n;
        }
        if let Some(n) = self.num_iter {
            opts.num_iter = n;
        }
        if let Some(g) = self.best_col_growth {
            opts.best_col_growth = g;
        }
        if let Some(a) = self.alpha {
            opts.alpha = a;
        }
        if let Some(n) = self.max_ascent_iters {
            opts.subgradient.max_iters = n;
        }
        if let Some(b) = self.partition {
            opts.partition = b;
        }
        opts
    }

    /// The constraint set this spec describes (unate when both fields
    /// are absent).
    pub fn constraints(&self) -> Constraints {
        let mut cons = Constraints::new();
        if let Some(c) = &self.coverage {
            cons = cons.coverage(c.clone());
        }
        if let Some(g) = &self.gub_groups {
            cons = cons.gub_groups(g.clone());
        }
        cons
    }

    /// Builds the ready-to-run request for `m` — `Send + 'static`, the
    /// form [`ucp_engine::Engine::submit`](crate::Scg) consumers need.
    pub fn to_request(&self, m: Arc<CoverMatrix>) -> SolveRequest<'static> {
        SolveRequest::for_shared(m)
            .options(self.options())
            .constraints(self.constraints())
    }

    /// Recovers the spec describing `req`'s options *and constraints* —
    /// the inverse of [`JobSpec::to_request`], in *canonical* form
    /// (every covered field explicit, so `from_request(to_request(s)) ==
    /// from_request(to_request(from_request(to_request(s))))`).
    ///
    /// The constraint fields are copied independently of the preset
    /// detection: a multicover request never round-trips into a
    /// silently-unate spec.
    ///
    /// # Errors
    ///
    /// [`SpecUnrepresentable`] when the request tunes a knob the wire
    /// format does not carry (e.g. a non-default `t0`): refusing loudly
    /// beats silently dropping the
    /// setting on the floor.
    pub fn from_request(req: &SolveRequest<'_>) -> Result<JobSpec, SpecUnrepresentable> {
        let mut spec = Self::from_options(req.opts())?;
        let cons = req.constraint_set();
        spec.coverage = cons.coverage_vec().map(<[u32]>::to_vec);
        let groups = cons.groups();
        spec.gub_groups = (!groups.is_empty()).then(|| groups.to_vec());
        Ok(spec)
    }

    /// [`JobSpec::from_request`] on a bare option set.
    ///
    /// The spec names the preset whose options equal `opts` exactly, and
    /// [`Preset::Paper`] otherwise; every covered field is explicit
    /// either way, so the options round-trip identically and each
    /// preset's own options round-trip to that preset.
    pub fn from_options(opts: &ScgOptions) -> Result<JobSpec, SpecUnrepresentable> {
        let preset = Preset::ALL
            .into_iter()
            .find(|p| p.options() == *opts)
            .unwrap_or(Preset::Paper);
        // Every field the spec does not carry must sit at the preset's
        // value (presets only vary the covered knobs, so comparing
        // against any preset is exact).
        let base = preset.options();
        let check = |same: bool, field: &'static str| {
            if same {
                Ok(())
            } else {
                Err(SpecUnrepresentable { field })
            }
        };
        check(
            opts.fix_cost_threshold == base.fix_cost_threshold,
            "fix_cost_threshold",
        )?;
        check(
            opts.fix_mu_threshold == base.fix_mu_threshold,
            "fix_mu_threshold",
        )?;
        check(opts.dual_pen_limit == base.dual_pen_limit, "dual_pen_limit")?;
        let (s, b) = (&opts.subgradient, &base.subgradient);
        check(s.t0 == b.t0, "subgradient.t0")?;
        check(
            s.halving_patience == b.halving_patience,
            "subgradient.halving_patience",
        )?;
        check(s.t_min == b.t_min, "subgradient.t_min")?;
        check(s.delta == b.delta, "subgradient.delta")?;
        check(
            s.occurrence_heuristic == b.occurrence_heuristic,
            "subgradient.occurrence_heuristic",
        )?;
        check(
            s.heuristic_period == b.heuristic_period,
            "subgradient.heuristic_period",
        )?;
        check(
            s.record_history == b.record_history,
            "subgradient.record_history",
        )?;
        // `checkpoint_every` is not wire-carried: durable schedulers
        // inject it at run time, so a spec can only represent the
        // default (disabled) setting.
        check(
            opts.checkpoint_every == base.checkpoint_every,
            "checkpoint_every",
        )?;
        Ok(JobSpec {
            preset,
            workers: Some(opts.workers),
            seed: Some(opts.seed),
            deadline: opts.time_limit,
            trace_every: Some(opts.subgradient.trace_every),
            num_iter: Some(opts.num_iter),
            best_col_growth: Some(opts.best_col_growth),
            alpha: Some(opts.alpha),
            max_ascent_iters: Some(opts.subgradient.max_iters),
            partition: Some(opts.partition),
            // Constraints are not options; from_request copies them.
            coverage: None,
            gub_groups: None,
        })
    }

    /// The canonical (every-field-explicit) form of this spec: same
    /// options and constraints, normalised representation.
    pub fn canonical(&self) -> JobSpec {
        let mut c =
            Self::from_options(&self.options()).expect("a spec's own options are representable");
        c.coverage = self.coverage.clone();
        c.gub_groups = self.gub_groups.clone();
        c
    }

    /// Serialises the spec; `None` fields are omitted, so the JSON is
    /// minimal and `parse` round-trips exactly.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.field_str("preset", self.preset.name());
        if let Some(v) = self.workers {
            o.field_u64("workers", v as u64);
        }
        if let Some(v) = self.seed {
            o.field_u64("seed", v);
        }
        if let Some(v) = self.deadline {
            o.field_u64("deadline_ms", v.as_millis() as u64);
        }
        if let Some(v) = self.trace_every {
            o.field_u64("trace_every", v as u64);
        }
        if let Some(v) = self.num_iter {
            o.field_u64("num_iter", v as u64);
        }
        if let Some(v) = self.best_col_growth {
            o.field_u64("best_col_growth", v as u64);
        }
        if let Some(v) = self.alpha {
            o.field_f64("alpha", v);
        }
        if let Some(v) = self.max_ascent_iters {
            o.field_u64("max_ascent_iters", v as u64);
        }
        if let Some(v) = self.partition {
            o.field_bool("partition", v);
        }
        if let Some(c) = &self.coverage {
            o.field_raw("coverage", &coverage_to_json(c));
        }
        if let Some(g) = &self.gub_groups {
            o.field_raw("gub_groups", &gub_groups_to_json(g));
        }
        o.finish()
    }

    /// Parses a spec object. Unknown fields are refused (a typo'd knob
    /// silently ignored would be a debugging trap), as are non-integral
    /// or out-of-range numbers.
    ///
    /// Retired keys are accepted and ignored, so every `Submitted` record
    /// an older journal holds still replays: the booleans `use_implicit`
    /// and `degrade`, and the non-negative integer `node_budget` (the
    /// reductions build no ZDD any more).
    pub fn from_json_value(v: &JsonValue) -> Result<JobSpec, WireError> {
        let JsonValue::Obj(members) = v else {
            return Err(WireError::invalid("spec must be a JSON object"));
        };
        let mut spec = JobSpec::default();
        for (key, value) in members {
            match key.as_str() {
                "preset" => {
                    spec.preset = value
                        .as_str()
                        .ok_or_else(|| WireError::invalid("preset must be a string"))?
                        .parse::<Preset>()
                        .map_err(WireError::invalid)?;
                }
                "workers" => spec.workers = Some(as_usize(value, "workers")?),
                "seed" => spec.seed = Some(as_u64(value, "seed")?),
                "deadline_ms" => {
                    spec.deadline = Some(Duration::from_millis(as_u64(value, "deadline_ms")?));
                }
                "trace_every" => spec.trace_every = Some(as_usize(value, "trace_every")?),
                "num_iter" => spec.num_iter = Some(as_usize(value, "num_iter")?),
                "best_col_growth" => {
                    spec.best_col_growth = Some(as_usize(value, "best_col_growth")?);
                }
                "alpha" => {
                    let a = value
                        .as_f64()
                        .filter(|a| a.is_finite())
                        .ok_or_else(|| WireError::invalid("alpha must be a finite number"))?;
                    spec.alpha = Some(a);
                }
                "max_ascent_iters" => {
                    spec.max_ascent_iters = Some(as_usize(value, "max_ascent_iters")?);
                }
                "use_implicit" | "degrade" => {
                    as_bool(value, key)?;
                }
                "node_budget" => {
                    as_u64(value, key)?;
                }
                "partition" => spec.partition = Some(as_bool(value, "partition")?),
                "coverage" => spec.coverage = Some(coverage_from_json(value)?),
                "gub_groups" => spec.gub_groups = Some(gub_groups_from_json(value)?),
                other => {
                    return Err(WireError::invalid(format!("unknown spec field {other:?}")));
                }
            }
        }
        Ok(spec)
    }

    /// Parses a spec from a JSON string.
    pub fn parse(json: &str) -> Result<JobSpec, WireError> {
        let v = parse_json(json).map_err(|e| WireError::new(WireCode::BadRequest, e))?;
        Self::from_json_value(&v)
    }
}

/// JSON-integer extraction: numbers must be integral, non-negative and
/// exactly representable in an `f64` (≤ 2⁵³).
fn as_u64(v: &JsonValue, field: &str) -> Result<u64, WireError> {
    const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    match v.as_f64() {
        Some(n) if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= MAX_EXACT => Ok(n as u64),
        _ => Err(WireError::invalid(format!(
            "{field} must be a non-negative integer"
        ))),
    }
}

fn as_usize(v: &JsonValue, field: &str) -> Result<usize, WireError> {
    usize::try_from(as_u64(v, field)?)
        .map_err(|_| WireError::invalid(format!("{field} out of range")))
}

fn as_bool(v: &JsonValue, field: &str) -> Result<bool, WireError> {
    v.as_bool()
        .ok_or_else(|| WireError::invalid(format!("{field} must be a boolean")))
}

/// Serialises a coverage vector as a plain JSON array of integers.
fn coverage_to_json(coverage: &[u32]) -> String {
    let mut s = String::from("[");
    for (i, b) in coverage.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&b.to_string());
    }
    s.push(']');
    s
}

/// Parses a `coverage` array: non-negative integers, one per row.
/// Structural only — length and positivity are checked against the
/// instance at solve time (`unsupported_constraints`).
fn coverage_from_json(v: &JsonValue) -> Result<Vec<u32>, WireError> {
    let JsonValue::Arr(items) = v else {
        return Err(WireError::invalid("coverage must be an array of integers"));
    };
    items
        .iter()
        .map(|e| {
            u32::try_from(as_u64(e, "coverage entry")?)
                .map_err(|_| WireError::invalid("coverage entry out of range"))
        })
        .collect()
}

/// Serialises GUB groups as `[{"cols":[…],"bound":k},…]`.
fn gub_groups_to_json(groups: &[GubGroup]) -> String {
    let mut s = String::from("[");
    for (i, g) in groups.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let mut cols = String::from("[");
        for (k, j) in g.cols().iter().enumerate() {
            if k > 0 {
                cols.push(',');
            }
            cols.push_str(&j.to_string());
        }
        cols.push(']');
        let mut o = JsonObj::new();
        o.field_raw("cols", &cols);
        o.field_u64("bound", g.bound() as u64);
        s.push_str(&o.finish());
    }
    s.push(']');
    s
}

/// Parses a `gub_groups` array of `{"cols":…,"bound":…}` objects.
/// Unknown group fields are refused like unknown spec fields;
/// disjointness and range checks happen against the instance at solve
/// time (`unsupported_constraints`).
fn gub_groups_from_json(v: &JsonValue) -> Result<Vec<GubGroup>, WireError> {
    let JsonValue::Arr(items) = v else {
        return Err(WireError::invalid(
            "gub_groups must be an array of group objects",
        ));
    };
    items
        .iter()
        .map(|g| {
            let JsonValue::Obj(members) = g else {
                return Err(WireError::invalid(
                    "each GUB group must be a {\"cols\":…,\"bound\":…} object",
                ));
            };
            for (key, _) in members {
                if key != "cols" && key != "bound" {
                    return Err(WireError::invalid(format!(
                        "unknown GUB group field {key:?}"
                    )));
                }
            }
            let Some(JsonValue::Arr(cols_json)) = g.get("cols") else {
                return Err(WireError::invalid("GUB group needs a cols array"));
            };
            let cols = cols_json
                .iter()
                .map(|e| as_usize(e, "GUB group column"))
                .collect::<Result<Vec<_>, _>>()?;
            let bound = g
                .get("bound")
                .ok_or_else(|| WireError::invalid("GUB group needs a bound"))
                .and_then(|b| as_u64(b, "GUB group bound"))?;
            let bound = u32::try_from(bound)
                .map_err(|_| WireError::invalid("GUB group bound out of range"))?;
            Ok(GubGroup::new(cols, bound))
        })
        .collect()
}

/// Caps on wire-submitted instances, so a single request cannot balloon
/// server memory: 1M rows, 1M columns, 20M nonzeros.
pub const MAX_WIRE_ROWS: usize = 1_000_000;
/// See [`MAX_WIRE_ROWS`].
pub const MAX_WIRE_COLS: usize = 1_000_000;
/// See [`MAX_WIRE_ROWS`].
pub const MAX_WIRE_NNZ: usize = 20_000_000;

/// Serialises a matrix as `{"cols":…,"rows":[[…]],"costs":[…]}` (costs
/// omitted when uniformly 1, the cardinality objective).
pub fn matrix_to_json(m: &CoverMatrix) -> String {
    let mut rows = String::from("[");
    for (i, row) in m.rows().iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        rows.push('[');
        for (k, &j) in row.iter().enumerate() {
            if k > 0 {
                rows.push(',');
            }
            rows.push_str(&j.to_string());
        }
        rows.push(']');
    }
    rows.push(']');
    let mut o = JsonObj::new();
    o.field_u64("cols", m.num_cols() as u64);
    o.field_raw("rows", &rows);
    if m.costs().iter().any(|&c| c != 1.0) {
        let mut costs = String::from("[");
        for (j, &c) in m.costs().iter().enumerate() {
            if j > 0 {
                costs.push(',');
            }
            costs.push_str(&format!("{c}"));
        }
        costs.push(']');
        o.field_raw("costs", &costs);
    }
    o.finish()
}

/// Parses and validates a wire matrix. All structural constraints are
/// checked *before* construction so a hostile body gets a clean
/// [`WireCode::InvalidSpec`] instead of tripping `CoverMatrix`'s
/// panicking invariants.
pub fn matrix_from_json(v: &JsonValue) -> Result<CoverMatrix, WireError> {
    let JsonValue::Obj(_) = v else {
        return Err(WireError::invalid("matrix must be a JSON object"));
    };
    let cols = as_usize(
        v.get("cols")
            .ok_or_else(|| WireError::invalid("matrix needs a cols field"))?,
        "matrix.cols",
    )?;
    if cols == 0 || cols > MAX_WIRE_COLS {
        return Err(WireError::invalid(format!(
            "matrix.cols must be in 1..={MAX_WIRE_COLS}"
        )));
    }
    let Some(JsonValue::Arr(rows)) = v.get("rows") else {
        return Err(WireError::invalid("matrix needs a rows array"));
    };
    if rows.len() > MAX_WIRE_ROWS {
        return Err(WireError::invalid(format!(
            "matrix has more than {MAX_WIRE_ROWS} rows"
        )));
    }
    let mut nnz = 0usize;
    let mut parsed_rows = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let JsonValue::Arr(entries) = row else {
            return Err(WireError::invalid(format!("row {i} must be an array")));
        };
        nnz += entries.len();
        if nnz > MAX_WIRE_NNZ {
            return Err(WireError::invalid(format!(
                "matrix has more than {MAX_WIRE_NNZ} nonzeros"
            )));
        }
        let mut cols_of_row = Vec::with_capacity(entries.len());
        for e in entries {
            let j = as_usize(e, "matrix row entry")?;
            if j >= cols {
                return Err(WireError::invalid(format!(
                    "row {i} references column {j} >= cols ({cols})"
                )));
            }
            cols_of_row.push(j);
        }
        parsed_rows.push(cols_of_row);
    }
    let costs = match v.get("costs") {
        None => vec![1.0; cols],
        Some(JsonValue::Arr(items)) => {
            if items.len() != cols {
                return Err(WireError::invalid(format!(
                    "costs has {} entries, cols is {cols}",
                    items.len()
                )));
            }
            let mut costs = Vec::with_capacity(cols);
            for (j, item) in items.iter().enumerate() {
                match item.as_f64() {
                    Some(c) if c.is_finite() && c >= 0.0 => costs.push(c),
                    _ => {
                        return Err(WireError::invalid(format!(
                            "cost {j} must be finite and non-negative"
                        )))
                    }
                }
            }
            costs
        }
        Some(_) => return Err(WireError::invalid("costs must be an array")),
    };
    Ok(CoverMatrix::with_costs(cols, parsed_rows, costs))
}

/// A parsed `POST /v1/jobs` body: instance + spec + submission options.
#[derive(Clone, Debug)]
pub struct SubmitBody {
    /// The instance to solve.
    pub matrix: CoverMatrix,
    /// The job's tunables.
    pub spec: JobSpec,
    /// Tenant for admission control (falls back to the transport-level
    /// tenant header, then to `"anonymous"`, at the server).
    pub tenant: Option<String>,
    /// Capture a `ucp-trace/1` stream for `GET /v1/jobs/{id}/trace`.
    pub trace: bool,
}

impl SubmitBody {
    /// Serialises the body (the client's direction).
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.field_str("api", WIRE_API);
        if let Some(t) = &self.tenant {
            o.field_str("tenant", t);
        }
        if self.trace {
            o.field_bool("trace", true);
        }
        o.field_raw("spec", &self.spec.to_json());
        o.field_raw("matrix", &matrix_to_json(&self.matrix));
        o.finish()
    }

    /// Parses and validates a submission body.
    pub fn parse(body: &str) -> Result<SubmitBody, WireError> {
        let v = parse_json(body)
            .map_err(|e| WireError::new(WireCode::BadRequest, format!("invalid JSON: {e}")))?;
        let JsonValue::Obj(_) = v else {
            return Err(WireError::new(
                WireCode::BadRequest,
                "body must be a JSON object",
            ));
        };
        check_api_tag(&v)?;
        let mut spec = match v.get("spec") {
            Some(s) => JobSpec::from_json_value(s)?,
            None => JobSpec::default(),
        };
        let matrix_json = v
            .get("matrix")
            .ok_or_else(|| WireError::invalid("body needs a matrix"))?;
        let matrix = matrix_from_json(matrix_json)?;
        // Constraints may ride on the matrix object instead of the spec
        // (they describe the instance as much as the job), but only one
        // of the two places — a silent override would be a trap.
        if let Some(c) = matrix_json.get("coverage") {
            if spec.coverage.is_some() {
                return Err(WireError::invalid(
                    "coverage given on both the matrix and the spec",
                ));
            }
            spec.coverage = Some(coverage_from_json(c)?);
        }
        if let Some(g) = matrix_json.get("gub_groups") {
            if spec.gub_groups.is_some() {
                return Err(WireError::invalid(
                    "gub_groups given on both the matrix and the spec",
                ));
            }
            spec.gub_groups = Some(gub_groups_from_json(g)?);
        }
        let tenant = match v.get("tenant") {
            None => None,
            Some(t) => Some(
                t.as_str()
                    .filter(|t| !t.is_empty() && t.len() <= 64)
                    .ok_or_else(|| {
                        WireError::invalid("tenant must be a non-empty string (max 64 bytes)")
                    })?
                    .to_string(),
            ),
        };
        let trace = match v.get("trace") {
            None => false,
            Some(t) => as_bool(t, "trace")?,
        };
        Ok(SubmitBody {
            matrix,
            spec,
            tenant,
            trace,
        })
    }
}

/// Envelope version check: absent tag = current version; the previous
/// [`WIRE_API_V1`] is accepted too (the `/2` additions are optional
/// fields, so `/1` bodies keep their meaning); anything else is refused.
pub fn check_api_tag(v: &JsonValue) -> Result<(), WireError> {
    match v.get("api") {
        None => Ok(()),
        Some(tag) if tag.as_str() == Some(WIRE_API) || tag.as_str() == Some(WIRE_API_V1) => Ok(()),
        Some(tag) => Err(WireError::invalid(format!(
            "unsupported api version {tag:?} (this server speaks {WIRE_API} \
             and accepts {WIRE_API_V1})"
        ))),
    }
}

/// Wire-visible lifecycle of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted; queued or running.
    Pending,
    /// Resolved with a feasible cover ([`JobStatusDto::result`] set).
    Done,
    /// Resolved without one ([`JobStatusDto::error`] set).
    Failed,
}

impl JobState {
    pub const fn as_str(self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    pub fn parse(s: &str) -> Option<JobState> {
        [JobState::Pending, JobState::Done, JobState::Failed]
            .into_iter()
            .find(|j| j.as_str() == s)
    }

    /// Terminal states never change on a later poll.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Pending)
    }
}

/// Serializable mirror of the interesting [`ScgOutcome`] fields — what
/// `GET /v1/jobs/{id}` returns for a finished job.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobResultDto {
    pub cost: f64,
    pub lower_bound: f64,
    pub proven_optimal: bool,
    pub infeasible: bool,
    /// Chosen columns, original indices.
    pub columns: Vec<usize>,
    pub iterations: usize,
    pub subgradient_iterations: usize,
    pub total_seconds: f64,
    pub core_rows: usize,
    pub core_cols: usize,
}

impl JobResultDto {
    /// Projects an outcome onto the wire shape.
    pub fn from_outcome(out: &ScgOutcome) -> Self {
        JobResultDto {
            cost: out.cost,
            lower_bound: out.lower_bound,
            proven_optimal: out.proven_optimal,
            infeasible: out.infeasible,
            columns: out.solution.cols().to_vec(),
            iterations: out.iterations,
            subgradient_iterations: out.subgradient_iterations,
            total_seconds: out.total_time.as_secs_f64(),
            core_rows: out.core_rows,
            core_cols: out.core_cols,
        }
    }

    pub fn to_json(&self) -> String {
        let mut cols = String::from("[");
        for (k, j) in self.columns.iter().enumerate() {
            if k > 0 {
                cols.push(',');
            }
            cols.push_str(&j.to_string());
        }
        cols.push(']');
        let mut o = JsonObj::new();
        o.field_f64("cost", self.cost);
        o.field_f64("lower_bound", self.lower_bound);
        o.field_bool("proven_optimal", self.proven_optimal);
        o.field_bool("infeasible", self.infeasible);
        o.field_raw("columns", &cols);
        o.field_u64("iterations", self.iterations as u64);
        o.field_u64("subgradient_iterations", self.subgradient_iterations as u64);
        o.field_f64("total_seconds", self.total_seconds);
        o.field_u64("core_rows", self.core_rows as u64);
        o.field_u64("core_cols", self.core_cols as u64);
        o.finish()
    }

    /// Decodes a result object. Keys it does not know are ignored, so
    /// results written by older versions still decode: among them the
    /// retired `degraded` flag.
    pub fn from_json_value(v: &JsonValue) -> Result<JobResultDto, WireError> {
        let num = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| WireError::invalid(format!("result needs numeric {k}")))
        };
        let flag = |k: &str| v.get(k).and_then(JsonValue::as_bool).unwrap_or(false);
        let columns = match v.get("columns") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|e| as_usize(e, "result column"))
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(WireError::invalid("result needs a columns array")),
        };
        Ok(JobResultDto {
            cost: num("cost")?,
            lower_bound: num("lower_bound")?,
            proven_optimal: flag("proven_optimal"),
            infeasible: flag("infeasible"),
            columns,
            iterations: num("iterations").unwrap_or(0.0) as usize,
            subgradient_iterations: num("subgradient_iterations").unwrap_or(0.0) as usize,
            total_seconds: num("total_seconds").unwrap_or(0.0),
            core_rows: num("core_rows").unwrap_or(0.0) as usize,
            core_cols: num("core_cols").unwrap_or(0.0) as usize,
        })
    }
}

/// The `GET /v1/jobs/{id}` (and `POST /v1/jobs` acknowledgement)
/// response: one job's wire-visible state.
#[derive(Clone, Debug, PartialEq)]
pub struct JobStatusDto {
    /// Server-assigned id (`"j-17"`).
    pub id: String,
    pub state: JobState,
    pub tenant: String,
    /// `true` when admission control degraded this job to the Fast
    /// preset under queue pressure.
    pub shed: bool,
    /// `true` once `DELETE` (or the engine) requested cancellation; the
    /// state turns terminal when the worker observes it.
    pub cancel_requested: bool,
    /// Set for [`JobState::Done`] — and for a [`JobState::Failed`]
    /// infeasible solve, where the partial outcome is still returned.
    pub result: Option<JobResultDto>,
    /// Set for [`JobState::Failed`].
    pub error: Option<WireError>,
    /// `true` when this job was re-enqueued from the durability journal
    /// after a server restart (see `ucp_durability`). Recovered jobs
    /// keep their original id and deadline.
    pub recovered: bool,
}

impl JobStatusDto {
    /// Serialises the full response document (with the `api` tag).
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.field_str("api", WIRE_API);
        o.field_str("id", &self.id);
        o.field_str("state", self.state.as_str());
        o.field_str("tenant", &self.tenant);
        o.field_bool("shed", self.shed);
        o.field_bool("cancel_requested", self.cancel_requested);
        // Emitted only when set, keeping pre-durability responses
        // byte-identical.
        if self.recovered {
            o.field_bool("recovered", true);
        }
        if let Some(r) = &self.result {
            o.field_raw("result", &r.to_json());
        }
        if let Some(e) = &self.error {
            o.field_raw("error", &e.to_json());
        }
        o.finish()
    }

    /// Parses a status document (the client's direction).
    pub fn parse(json: &str) -> Result<JobStatusDto, WireError> {
        let v = parse_json(json).map_err(|e| WireError::new(WireCode::BadRequest, e))?;
        check_api_tag(&v)?;
        let id = v
            .get("id")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| WireError::invalid("status needs an id"))?
            .to_string();
        let state = v
            .get("state")
            .and_then(JsonValue::as_str)
            .and_then(JobState::parse)
            .ok_or_else(|| WireError::invalid("status needs a known state"))?;
        let tenant = v
            .get("tenant")
            .and_then(JsonValue::as_str)
            .unwrap_or("anonymous")
            .to_string();
        let flag = |k: &str| v.get(k).and_then(JsonValue::as_bool).unwrap_or(false);
        let result = match v.get("result") {
            Some(r) => Some(JobResultDto::from_json_value(r)?),
            None => None,
        };
        let error = match v.get("error") {
            Some(e) => Some(WireError::from_json_value(e)?),
            None => None,
        };
        Ok(JobStatusDto {
            id,
            state,
            tenant,
            shed: flag("shed"),
            cancel_requested: flag("cancel_requested"),
            result,
            error,
            recovered: flag("recovered"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scg;

    fn cycle(n: usize) -> CoverMatrix {
        CoverMatrix::from_rows(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
    }

    fn sample_specs() -> Vec<JobSpec> {
        let mut specs = vec![
            JobSpec::default(),
            JobSpec::new(Preset::Fast),
            JobSpec::new(Preset::Thorough),
        ];
        let mut rich = JobSpec::new(Preset::Fast);
        rich.workers = Some(3);
        rich.seed = Some(42);
        rich.deadline = Some(Duration::from_millis(1500));
        rich.trace_every = Some(25);
        rich.num_iter = Some(2);
        rich.best_col_growth = Some(3);
        rich.alpha = Some(1.5);
        rich.max_ascent_iters = Some(77);
        rich.partition = Some(false);
        specs.push(rich);
        let mut partial = JobSpec::new(Preset::Paper);
        partial.seed = Some(9);
        specs.push(partial);
        let mut multicover = JobSpec::new(Preset::Fast);
        multicover.coverage = Some(vec![2, 1, 1, 2, 1]);
        multicover.gub_groups = Some(vec![
            GubGroup::new(vec![0, 2], 1),
            GubGroup::new(vec![1, 3], 2),
        ]);
        specs.push(multicover);
        specs
    }

    #[test]
    fn spec_round_trips_through_request_losslessly() {
        let m = Arc::new(cycle(5));
        for spec in sample_specs() {
            let req = spec.to_request(Arc::clone(&m));
            let recovered = JobSpec::from_request(&req).expect("representable");
            // Request-level losslessness: identical options bit for bit.
            assert_eq!(
                recovered.options(),
                *req.opts(),
                "options drifted for {spec:?}"
            );
            // Canonical-form idempotence.
            assert_eq!(recovered, spec.canonical(), "canonical drift for {spec:?}");
            assert_eq!(recovered.canonical(), recovered);
        }
    }

    #[test]
    fn each_preset_round_trips_to_itself() {
        for preset in Preset::ALL {
            let spec = JobSpec::from_options(&preset.options()).unwrap();
            assert_eq!(spec.preset, preset);
            assert_eq!(spec.options(), preset.options());
        }
    }

    #[test]
    fn every_spec_field_survives_the_round_trip() {
        let mut spec = JobSpec::new(Preset::Thorough);
        spec.workers = Some(2);
        spec.seed = Some(7);
        spec.deadline = Some(Duration::from_secs(3));
        spec.trace_every = Some(10);
        spec.num_iter = Some(5);
        spec.best_col_growth = Some(4);
        spec.alpha = Some(2.5);
        spec.max_ascent_iters = Some(123);
        spec.partition = Some(true);
        let r = JobSpec::from_options(&spec.options()).unwrap();
        // Overridden options equal no preset's, so they are named as
        // Paper plus explicit overrides.
        assert_eq!(r.preset, Preset::Paper);
        assert_eq!(r.options(), spec.options());
        assert_eq!(r.workers, Some(2));
        assert_eq!(r.seed, Some(7));
        assert_eq!(r.deadline, Some(Duration::from_secs(3)));
        assert_eq!(r.trace_every, Some(10));
        assert_eq!(r.num_iter, Some(5));
        assert_eq!(r.best_col_growth, Some(4));
        assert_eq!(r.alpha, Some(2.5));
        assert_eq!(r.max_ascent_iters, Some(123));
        assert_eq!(r.partition, Some(true));
    }

    #[test]
    fn spec_json_round_trips() {
        for spec in sample_specs() {
            let json = spec.to_json();
            let parsed = JobSpec::parse(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
            assert_eq!(parsed, spec);
        }
    }

    #[test]
    fn unknown_spec_fields_are_refused() {
        let err = JobSpec::parse(r#"{"preset":"fast","warp_factor":9}"#).unwrap_err();
        assert_eq!(err.code, WireCode::InvalidSpec);
        assert!(err.message.contains("warp_factor"), "{err}");
        // Only the retired keys are let through, not their neighbours.
        for key in [
            "implicit",
            "use_implicit_phase",
            "degraded",
            "Degrade",
            "node_budgets",
            "kernel",
        ] {
            let err = JobSpec::parse(&format!(r#"{{"{key}":false}}"#)).unwrap_err();
            assert_eq!(err.code, WireCode::InvalidSpec, "{key}");
            assert!(err.message.contains(key), "{err}");
        }
    }

    #[test]
    fn retired_implicit_keys_are_accepted_and_ignored() {
        // The canonical Paper spec exactly as `to_json` wrote it while
        // `use_implicit` and `degrade` were options, and as it writes it
        // now.
        let legacy = r#"{"preset":"paper","workers":0,"seed":3665698816,"trace_every":1,"num_iter":4,"best_col_growth":1,"alpha":2,"max_ascent_iters":300,"use_implicit":false,"degrade":false,"partition":true}"#;
        let current = r#"{"preset":"paper","workers":0,"seed":3665698816,"trace_every":1,"num_iter":4,"best_col_growth":1,"alpha":2,"max_ascent_iters":300,"partition":true}"#;
        let spec = JobSpec::parse(legacy).unwrap();
        assert_eq!(spec, JobSpec::parse(current).unwrap());
        assert_eq!(spec.to_json(), current);
        assert_eq!(spec.options(), Preset::Paper.options());
        // As `to_json` wrote a spec with a node budget; the budget is
        // ignored too.
        let budgeted = r#"{"preset":"paper","workers":0,"seed":3665698816,"node_budget":4096,"trace_every":1,"num_iter":4,"best_col_growth":1,"alpha":2,"max_ascent_iters":300,"partition":true}"#;
        let spec = JobSpec::parse(budgeted).unwrap();
        assert_eq!(spec, JobSpec::parse(current).unwrap());
        assert_eq!(spec.to_json(), current);
        // A retired key must still hold a value of its old type.
        for body in [
            r#"{"degrade":"no"}"#,
            r#"{"node_budget":-1}"#,
            r#"{"node_budget":1.5}"#,
            r#"{"node_budget":true}"#,
        ] {
            let err = JobSpec::parse(body).unwrap_err();
            assert_eq!(err.code, WireCode::InvalidSpec, "{body}");
        }
        // A result as the old encoder wrote it, `degraded` flag included,
        // decodes to the result the current encoder writes without it.
        let old = r#"{"cost":2,"lower_bound":2,"proven_optimal":true,"infeasible":false,"columns":[0,1],"iterations":0,"subgradient_iterations":32,"degraded":true,"total_seconds":0.000125,"core_rows":3,"core_cols":3}"#;
        let new = r#"{"cost":2,"lower_bound":2,"proven_optimal":true,"infeasible":false,"columns":[0,1],"iterations":0,"subgradient_iterations":32,"total_seconds":0.000125,"core_rows":3,"core_cols":3}"#;
        let decoded = JobResultDto::from_json_value(&parse_json(old).unwrap()).unwrap();
        assert_eq!(decoded.to_json(), new);
    }

    #[test]
    fn non_integral_numbers_are_refused() {
        for body in [
            r#"{"workers":1.5}"#,
            r#"{"seed":-3}"#,
            r#"{"num_iter":1e300}"#,
            r#"{"alpha":"two"}"#,
        ] {
            let err = JobSpec::parse(body).unwrap_err();
            assert_eq!(err.code, WireCode::InvalidSpec, "{body}");
        }
    }

    #[test]
    fn unrepresentable_options_are_refused_loudly() {
        let mut custom_t0 = ScgOptions::default();
        custom_t0.subgradient.t0 = 17.0;
        assert_eq!(
            JobSpec::from_options(&custom_t0).unwrap_err().field,
            "subgradient.t0"
        );
    }

    #[test]
    fn matrix_json_round_trips_with_and_without_costs() {
        let unit = cycle(5);
        let v = parse_json(&matrix_to_json(&unit)).unwrap();
        assert_eq!(matrix_from_json(&v).unwrap(), unit);
        let weighted =
            CoverMatrix::with_costs(3, vec![vec![0, 1], vec![1, 2]], vec![1.0, 2.5, 0.0]);
        let v = parse_json(&matrix_to_json(&weighted)).unwrap();
        assert_eq!(matrix_from_json(&v).unwrap(), weighted);
    }

    #[test]
    fn hostile_matrices_get_clean_errors_not_panics() {
        for body in [
            r#"{"cols":0,"rows":[]}"#,
            r#"{"cols":3,"rows":[[3]]}"#,
            r#"{"cols":3,"rows":[[-1]]}"#,
            r#"{"cols":3,"rows":[[0.5]]}"#,
            r#"{"cols":3,"rows":"x"}"#,
            r#"{"cols":3}"#,
            r#"{"rows":[[0]]}"#,
            r#"{"cols":3,"rows":[[0]],"costs":[1,2]}"#,
            r#"{"cols":2,"rows":[[0]],"costs":[1,-2]}"#,
            r#"{"cols":2000000,"rows":[]}"#,
        ] {
            let v = parse_json(body).unwrap();
            let err = matrix_from_json(&v).unwrap_err();
            assert_eq!(err.code, WireCode::InvalidSpec, "{body}");
        }
    }

    #[test]
    fn submit_body_round_trips() {
        let body = SubmitBody {
            matrix: cycle(7),
            spec: JobSpec::new(Preset::Fast),
            tenant: Some("acme".into()),
            trace: true,
        };
        let parsed = SubmitBody::parse(&body.to_json()).unwrap();
        assert_eq!(parsed.matrix, body.matrix);
        assert_eq!(parsed.spec, body.spec);
        assert_eq!(parsed.tenant.as_deref(), Some("acme"));
        assert!(parsed.trace);
    }

    #[test]
    fn api_version_mismatch_is_refused() {
        let err = SubmitBody::parse(r#"{"api":"ucp-api/9","matrix":{"cols":1,"rows":[[0]]}}"#)
            .unwrap_err();
        assert_eq!(err.code, WireCode::InvalidSpec);
        assert!(err.message.contains("ucp-api/2"), "{err}");
        assert!(err.message.contains("ucp-api/1"), "{err}");
    }

    #[test]
    fn legacy_v1_bodies_still_parse() {
        let body = SubmitBody::parse(
            r#"{"api":"ucp-api/1","matrix":{"cols":2,"rows":[[0],[1]]},"spec":{"preset":"fast"}}"#,
        )
        .unwrap();
        assert_eq!(body.spec.preset, Preset::Fast);
        assert!(body.spec.constraints().is_unate(), "absent fields = unate");
    }

    #[test]
    fn constraints_ride_on_the_matrix_but_not_both_places() {
        let body = SubmitBody::parse(
            r#"{"matrix":{"cols":2,"rows":[[0,1],[0,1]],"coverage":[2,1],
                "gub_groups":[{"cols":[0,1],"bound":2}]}}"#,
        )
        .unwrap();
        assert_eq!(body.spec.coverage, Some(vec![2, 1]));
        assert_eq!(
            body.spec.gub_groups,
            Some(vec![GubGroup::new(vec![0, 1], 2)])
        );
        let err = SubmitBody::parse(
            r#"{"matrix":{"cols":2,"rows":[[0,1]],"coverage":[2]},
                "spec":{"coverage":[1]}}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, WireCode::InvalidSpec);
        assert!(err.message.contains("both"), "{err}");
    }

    #[test]
    fn hostile_constraint_fields_get_clean_errors() {
        for body in [
            r#"{"coverage":7}"#,
            r#"{"coverage":[-1]}"#,
            r#"{"coverage":[1.5]}"#,
            r#"{"gub_groups":{}}"#,
            r#"{"gub_groups":[7]}"#,
            r#"{"gub_groups":[{"cols":[0]}]}"#,
            r#"{"gub_groups":[{"bound":1}]}"#,
            r#"{"gub_groups":[{"cols":[0],"bound":-1}]}"#,
            r#"{"gub_groups":[{"cols":[0],"bound":1,"warp":9}]}"#,
        ] {
            let err = JobSpec::parse(body).unwrap_err();
            assert_eq!(err.code, WireCode::InvalidSpec, "{body}");
        }
    }

    #[test]
    fn multicover_spec_never_round_trips_as_unate() {
        let m = Arc::new(cycle(5));
        let mut spec = JobSpec::new(Preset::Paper);
        spec.coverage = Some(vec![2; 5]);
        let req = spec.to_request(Arc::clone(&m));
        assert!(!req.constraint_set().is_unate());
        let recovered = JobSpec::from_request(&req).expect("representable");
        // The constraint fields must survive independently of the
        // preset detection.
        assert_eq!(recovered.preset, Preset::Paper);
        assert_eq!(recovered.coverage, Some(vec![2; 5]));
        assert!(!recovered.constraints().is_unate());
    }

    #[test]
    fn wire_codes_are_unique_and_statuses_sane() {
        let mut seen = std::collections::HashSet::new();
        for code in WireCode::ALL {
            let (s, status) = code.entry();
            assert!(seen.insert(s), "duplicate wire code {s}");
            assert!((400..600).contains(&status), "{s}: bad status {status}");
            assert_eq!(WireCode::parse(s), Some(code));
        }
        assert_eq!(WireCode::parse("no_such_code"), None);
    }

    #[test]
    fn solve_errors_map_into_the_taxonomy() {
        assert_eq!(SolveError::Cancelled.wire_code(), WireCode::Cancelled);
        assert_eq!(SolveError::Expired.wire_code(), WireCode::Expired);
        assert_eq!(
            SolveError::InvalidConstraints(cover::ConstraintError::ZeroCoverage { row: 0 })
                .wire_code(),
            WireCode::UnsupportedConstraints
        );
    }

    #[test]
    fn status_dto_round_trips() {
        let m = cycle(9);
        let out = Scg::run(SolveRequest::for_matrix(&m).preset(Preset::Fast)).unwrap();
        let status = JobStatusDto {
            id: "j-3".into(),
            state: JobState::Done,
            tenant: "acme".into(),
            shed: true,
            cancel_requested: false,
            recovered: true,
            result: Some(JobResultDto::from_outcome(&out)),
            error: None,
        };
        let parsed = JobStatusDto::parse(&status.to_json()).unwrap();
        assert_eq!(parsed, status);
        assert_eq!(parsed.result.unwrap().cost, out.cost);

        let failed = JobStatusDto {
            id: "j-4".into(),
            state: JobState::Failed,
            tenant: "anonymous".into(),
            shed: false,
            cancel_requested: true,
            recovered: false,
            result: None,
            error: Some(WireError::new(WireCode::Cancelled, "job cancelled")),
        };
        let parsed = JobStatusDto::parse(&failed.to_json()).unwrap();
        assert_eq!(parsed, failed);
        assert_eq!(parsed.error.unwrap().code, WireCode::Cancelled);
    }

    #[test]
    fn spec_to_request_solves_like_the_builder_path() {
        let m = Arc::new(cycle(9));
        let mut spec = JobSpec::new(Preset::Fast);
        spec.seed = Some(11);
        let via_spec = Scg::run(spec.to_request(Arc::clone(&m))).unwrap();
        let via_builder = Scg::run(
            SolveRequest::for_shared(Arc::clone(&m))
                .preset(Preset::Fast)
                .seed(11),
        )
        .unwrap();
        assert_eq!(via_spec.cost, via_builder.cost);
        assert_eq!(via_spec.solution.cols(), via_builder.solution.cols());
    }
}
