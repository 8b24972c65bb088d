//! Solver telemetry: structured trace events with zero cost when disabled.
//!
//! The ZDD_SCG pipeline is a sequence of qualitatively different phases —
//! duplicate-row merge, explicit reduction, block partitioning,
//! subgradient ascent and the stochastic constructive runs. Understanding
//! why an instance is slow, or why the lower bound stalls, requires seeing
//! *inside* those phases without paying for the observation on the hot path.
//!
//! The design is the classic generic-probe pattern:
//!
//! * [`Probe`] is the instrumentation trait. Solver entry points take a
//!   `&mut P where P: Probe` and call [`Probe::record`] at interesting
//!   moments. Event payloads are plain numbers, cheap to build.
//! * [`NoopProbe`] is the default. Its `record` is an empty `#[inline]`
//!   body and [`Probe::enabled`] returns `false`, so monomorphised solver
//!   code compiles the instrumentation away entirely. Call sites that
//!   would do extra work to *assemble* an event guard on `probe.enabled()`.
//! * [`RecordingProbe`] buffers timestamped events in memory — used by
//!   tests and by callers that post-process a trace.
//! * [`JsonlSink`] streams events as schema-versioned JSON Lines to any
//!   `io::Write` — used by `ucp --trace` and the bench binaries.
//!
//! There is no global state, no feature flag and no `dyn` on the solver
//! path; a probe is just a value threaded through the call tree.

mod event;
mod json;
mod phase;
mod probe;
mod sink;
pub mod trace;

pub use event::{Event, FixReason, PenaltyKind};
pub use json::{escape_json, f64_array, u64_array, JsonObj};
pub use phase::{Phase, PhaseTimes};
pub use probe::{NoopProbe, Probe, RecordingProbe, TimedEvent};
pub use sink::{JsonlSink, TRACE_SCHEMA};
pub use trace::{
    folded_stacks, parse_trace, JsonValue, SubgradientTrace, TraceEvent, TraceResult, TraceSummary,
};
