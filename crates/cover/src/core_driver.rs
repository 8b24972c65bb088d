//! The cyclic-core driver: merge, implicit phase, decode, explicit phase.
//!
//! This is the front half of `ZDD_SCG` (Fig. 2): run implicit reductions on
//! the ZDD pair until they stabilise or the explicit size is manageable,
//! decode into a sparse matrix, then run the classical explicit reductions to
//! a fixpoint. What is left is the (possibly empty) cyclic core. A matrix
//! whose merged rows are manageable from the start skips the implicit
//! phase: merging duplicate rows is all its encode and decode would do.

use crate::halt::{Halt, HaltReason};
use crate::implicit::{canonical_rows, ImplicitMatrix, ReduceAbort, ReduceInterrupt};
use crate::matrix::CoverMatrix;
use crate::reduce::Reducer;
use std::time::{Duration, Instant};
use ucp_telemetry::{DegradeReason, Event, NoopProbe, Phase, Probe};

/// Tunables for the cyclic-core computation.
///
/// Input size alone picks the route: a matrix whose merged rows fit
/// `max_rows`/`max_cols` goes straight to the explicit reductions, a
/// larger one runs the implicit (ZDD) phase first. When that phase
/// exhausts `kernel`'s node budget, the computation always falls back to
/// the explicit reductions in-process and reports
/// [`CoreResult::degraded`]; there is no failing mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoreOptions {
    /// `MaxR` of the paper: the implicit phase runs only while the row
    /// family, duplicate rows merged, has more rows than this or more live
    /// columns than `max_cols`. A matrix within both bounds from the start
    /// goes straight to the explicit phase and builds no ZDD. `0` (with
    /// `max_cols: 0`) runs the implicit phase to its fixpoint on any
    /// nonempty family.
    pub max_rows: u128,
    /// `MaxC` of the paper: the companion bound on live columns.
    pub max_cols: usize,
    /// ZDD kernel tunables (table/cache sizing, GC schedule, node budget)
    /// for the implicit phase's manager. Kernel settings never change
    /// results, only speed and memory. A node budget that trips sends
    /// the computation to the explicit reductions, with the same core.
    pub kernel: zdd::ZddOptions,
}

impl Default for CoreOptions {
    fn default() -> Self {
        // The paper's values: MaxR = 5000, MaxC = 10000.
        CoreOptions {
            max_rows: 5000,
            max_cols: 10_000,
            kernel: zdd::ZddOptions::default(),
        }
    }
}

/// Result of [`cyclic_core`].
#[derive(Clone, Debug)]
pub struct CoreResult {
    /// The stable residual matrix (empty when reductions solve the problem).
    pub core: CoverMatrix,
    /// Columns fixed into the solution (original indices, essentials of all
    /// phases), sorted ascending.
    pub fixed_cols: Vec<usize>,
    /// Original column index of each core column.
    pub col_map: Vec<usize>,
    /// Wall-clock time of the whole core computation (the `CC(s)` column of
    /// the paper's tables): exactly `implicit_time + explicit_time`.
    pub cc_time: Duration,
    /// Portion of `cc_time` spent in the implicit phase: the coverability
    /// check, the duplicate-row merge and, above `MaxR`/`MaxC`, the ZDD
    /// reductions.
    pub implicit_time: Duration,
    /// Portion of `cc_time` spent in the explicit reduction phase.
    pub explicit_time: Duration,
    /// Counters of the ZDD manager used by the implicit phase. All zero
    /// when no manager was built: the merged matrix was already within
    /// `MaxR`/`MaxC`, or the encoding overflowed its node budget.
    pub zdd_stats: zdd::ZddStats,
    /// `true` if some row cannot be covered at all.
    pub infeasible: bool,
    /// `true` if the implicit phase exhausted its node budget and the
    /// computation fell back to the explicit representation.
    pub degraded: bool,
}

impl CoreResult {
    /// Returns `true` when reductions alone solved the instance (the fixed
    /// columns are a minimum cover).
    pub fn is_solved(&self) -> bool {
        !self.infeasible && self.core.num_rows() == 0
    }
}

/// Computes the cyclic core of `m`.
///
/// # Example
///
/// ```
/// use cover::{cyclic_core, CoreOptions, CoverMatrix};
/// let m = CoverMatrix::from_rows(
///     5,
///     vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
/// );
/// let core = cyclic_core(&m, &CoreOptions::default());
/// assert_eq!(core.core.num_rows(), 5); // the 5-cycle is already cyclic
/// assert!(core.fixed_cols.is_empty());
/// ```
pub fn cyclic_core(m: &CoverMatrix, opts: &CoreOptions) -> CoreResult {
    cyclic_core_halted(m, opts, &Halt::none(), &mut NoopProbe).expect("Halt::none never fires")
}

/// [`cyclic_core`] with cooperative halting and a telemetry probe
/// observing the two reduction phases (begin/end events and wall-clock
/// split).
///
/// Duplicate rows are merged first, into the matrix a ZDD encode and
/// decode would give. If that matrix is already within
/// [`CoreOptions::max_rows`]/[`CoreOptions::max_cols`], it goes straight
/// to the explicit phase: no ZDD manager is built and no
/// [`Event::ZddKernel`] is recorded. Otherwise the implicit phase reduces
/// the ZDD row family until it fits.
///
/// The [`Halt`] is polled at every implicit-operation boundary and once
/// more before the explicit phase, so a deadline or a cancellation stops
/// the computation within one ZDD operation. If the kernel's node budget
/// trips, the partially-reduced family is salvaged (implicit reductions
/// only shrink the family, so it is always enumerable) — or, when the
/// encoding itself overflowed, the merged rows are used — and the
/// explicit phase takes over; exactly one [`Event::Degraded`] is recorded
/// per such fallback and the returned [`CoreResult::degraded`] flag is
/// set.
///
/// The two phases tile the call: one clock reading ends the implicit
/// phase and begins the explicit one, and the setup and teardown of each
/// phase fall inside it.
pub fn cyclic_core_halted<P: Probe>(
    m: &CoverMatrix,
    opts: &CoreOptions,
    halt: &Halt,
    probe: &mut P,
) -> Result<CoreResult, HaltReason> {
    let start = Instant::now();
    probe.record(Event::PhaseBegin {
        phase: Phase::ImplicitReduction,
    });
    if !m.is_coverable() {
        let core = m.clone();
        let implicit_time = start.elapsed();
        probe.record(Event::PhaseEnd {
            phase: Phase::ImplicitReduction,
            seconds: implicit_time.as_secs_f64(),
        });
        return Ok(CoreResult {
            core,
            fixed_cols: Vec::new(),
            col_map: (0..m.num_cols()).collect(),
            cc_time: implicit_time,
            implicit_time,
            explicit_time: Duration::ZERO,
            zdd_stats: zdd::ZddStats::default(),
            infeasible: true,
            degraded: false,
        });
    }

    // Phase 1: merge duplicate rows, then reduce implicitly on the ZDD row
    // family only while the merged matrix exceeds MaxR/MaxC.
    let implicit =
        implicit_phase(m, opts, halt, probe).and_then(|out| halt.check().map_or(Ok(out), Err));
    let explicit_start = Instant::now();
    let implicit_time = explicit_start - start;
    probe.record(Event::PhaseEnd {
        phase: Phase::ImplicitReduction,
        seconds: implicit_time.as_secs_f64(),
    });
    let Implicit {
        matrix,
        col_map: col_map_a,
        fixed: mut fixed_cols,
        zdd_stats,
        degraded,
    } = implicit?;

    // Phase 2: explicit reductions to the fixpoint. Its clock started
    // where the implicit phase's stopped.
    if let Some(z) = &zdd_stats {
        probe.record(Event::ZddKernel {
            cache_hits: z.cache_hits,
            cache_misses: z.cache_misses,
            cache_evictions: z.cache_evictions,
            unique_relocations: z.unique_relocations,
            peak_nodes: z.peak_nodes as u64,
            live_nodes: z.live_nodes as u64,
            gc_runs: z.gc_runs,
            gc_reclaimed: z.gc_reclaimed,
            gc_pause_nanos: u64::try_from(z.gc_pause.total().as_nanos()).unwrap_or(u64::MAX),
            gc_max_pause_nanos: u64::try_from(z.gc_pause.max().as_nanos()).unwrap_or(u64::MAX),
        });
    }
    probe.record(Event::PhaseBegin {
        phase: Phase::ExplicitReduction,
    });
    let mut red = Reducer::new(&matrix);
    red.reduce_to_fixpoint();
    let infeasible = red.infeasible();
    let (core, _, col_map_b) = red.extract_core();

    // Compose maps back to original indices.
    fixed_cols.extend(red.fixed().iter().map(|&j| col_map_a[j]));
    fixed_cols.sort_unstable();
    fixed_cols.dedup();
    let col_map: Vec<usize> = col_map_b.iter().map(|&j| col_map_a[j]).collect();
    drop(red);
    drop((matrix, col_map_a, col_map_b));
    let end = Instant::now();
    let explicit_time = end - explicit_start;
    probe.record(Event::PhaseEnd {
        phase: Phase::ExplicitReduction,
        seconds: explicit_time.as_secs_f64(),
    });

    Ok(CoreResult {
        core,
        fixed_cols,
        col_map,
        cc_time: end - start,
        implicit_time,
        explicit_time,
        zdd_stats: zdd_stats.unwrap_or_default(),
        infeasible,
        degraded,
    })
}

/// What the implicit phase hands the explicit one.
struct Implicit {
    /// The merged (or decoded) row family over its live columns.
    matrix: CoverMatrix,
    /// Original index of each column of `matrix`.
    col_map: Vec<usize>,
    /// Essential columns fixed implicitly (original indices).
    fixed: Vec<usize>,
    /// Counters of the ZDD manager, when one was built.
    zdd_stats: Option<zdd::ZddStats>,
    /// `true` when the node budget sent the phase to the merged or
    /// salvaged rows.
    degraded: bool,
}

/// The implicit phase of [`cyclic_core_halted`], up to its halt.
fn implicit_phase<P: Probe>(
    m: &CoverMatrix,
    opts: &CoreOptions,
    halt: &Halt,
    probe: &mut P,
) -> Result<Implicit, HaltReason> {
    let (matrix, col_map) = canonical_rows(m);
    let merged = Implicit {
        matrix,
        col_map,
        fixed: Vec::new(),
        zdd_stats: None,
        degraded: false,
    };
    if merged.matrix.num_rows() as u128 <= opts.max_rows
        && merged.matrix.num_cols() <= opts.max_cols
    {
        return Ok(merged);
    }
    let record_degraded = |probe: &mut P| {
        probe.record(Event::Degraded {
            reason: DegradeReason::NodeBudget,
            phase: Phase::ImplicitReduction,
        })
    };
    let Ok(mut im) = ImplicitMatrix::try_encode_with(m, opts.kernel) else {
        // The family never fit: hand the explicit phase the merged rows,
        // which are what a decode would have emitted.
        record_degraded(probe);
        return Ok(Implicit {
            degraded: true,
            ..merged
        });
    };
    // Only an encode overflow falls back to the merged rows.
    drop(merged);
    let (fixed, degraded) = match im.try_reduce_until_small(opts.max_rows, opts.max_cols, halt) {
        Ok(fixed) => (fixed, false),
        Err(ReduceAbort {
            interrupt: ReduceInterrupt::Halted(reason),
            ..
        }) => return Err(reason),
        Err(ReduceAbort {
            fixed,
            interrupt: ReduceInterrupt::Overflow(_),
        }) => {
            // Salvage the partially-reduced family: the reductions only
            // ever shrink it, so decoding is no larger than decoding the
            // input.
            record_degraded(probe);
            (fixed, true)
        }
    };
    let (matrix, col_map) = im.decode();
    Ok(Implicit {
        matrix,
        col_map,
        fixed,
        zdd_stats: Some(im.zdd_stats()),
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reductions_solve_easy_instance() {
        let m = CoverMatrix::from_rows(3, vec![vec![0], vec![0, 1], vec![1, 2], vec![2]]);
        let res = cyclic_core(&m, &CoreOptions::default());
        assert!(res.is_solved());
        assert_eq!(res.fixed_cols, vec![0, 2]);
    }

    #[test]
    fn cyclic_instance_survives() {
        let m = CoverMatrix::from_rows(
            5,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
        );
        let res = cyclic_core(&m, &CoreOptions::default());
        assert!(!res.is_solved());
        assert_eq!(res.core.num_rows(), 5);
        assert_eq!(res.core.num_cols(), 5);
        assert_eq!(res.col_map.len(), 5);
    }

    #[test]
    fn implicit_and_explicit_agree() {
        let m = CoverMatrix::from_rows(
            6,
            vec![
                vec![0],
                vec![0, 1, 2],
                vec![2, 3],
                vec![3, 4, 5],
                vec![4, 5],
                vec![1, 5],
            ],
        );
        let with = cyclic_core(&m, &implicit());
        // Within MaxR/MaxC the default options take the explicit route.
        let without = cyclic_core(&m, &CoreOptions::default());
        assert_eq!(with.fixed_cols, without.fixed_cols);
        assert_eq!(with.core.num_rows(), without.core.num_rows());
        assert_eq!(with.core.num_cols(), without.core.num_cols());
    }

    #[test]
    fn infeasible_reported() {
        let m = CoverMatrix::from_rows(2, vec![vec![], vec![0]]);
        let res = cyclic_core(&m, &CoreOptions::default());
        assert!(res.infeasible);
        assert!(!res.is_solved());
    }

    /// MaxR = MaxC = 0: the implicit phase runs even on a small matrix.
    fn implicit() -> CoreOptions {
        CoreOptions {
            max_rows: 0,
            max_cols: 0,
            ..CoreOptions::default()
        }
    }

    fn hard_instance() -> CoverMatrix {
        // A cyclic instance plus chords: enough structure that encoding
        // and reducing need well over 16 nodes.
        let n = 12usize;
        let mut rows: Vec<Vec<usize>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
        rows.push((0..n).step_by(2).collect());
        rows.push((0..n).step_by(3).collect());
        CoverMatrix::from_rows(n, rows)
    }

    #[test]
    fn budget_exhaustion_degrades_to_explicit() {
        use ucp_telemetry::RecordingProbe;
        let m = hard_instance();
        let tiny = CoreOptions {
            kernel: zdd::ZddOptions::new().node_budget(16),
            ..implicit()
        };
        let mut probe = RecordingProbe::new();
        let res = cyclic_core_halted(&m, &tiny, &Halt::none(), &mut probe)
            .expect("an overflow degrades, it never aborts");
        assert!(res.degraded);
        let degraded_events = probe
            .events()
            .iter()
            .filter(|e| matches!(e.event, Event::Degraded { .. }))
            .count();
        assert_eq!(degraded_events, 1, "exactly one Degraded per fallback");
        assert!(probe.unbalanced_phases().is_empty());
        // The degraded result matches the explicit route, which the
        // default options take on this small matrix.
        let explicit_only = cyclic_core(&m, &CoreOptions::default());
        assert_eq!(res.fixed_cols, explicit_only.fixed_cols);
        assert_eq!(res.core.num_rows(), explicit_only.core.num_rows());
        assert_eq!(res.core.num_cols(), explicit_only.core.num_cols());
    }

    #[test]
    fn cancelled_halt_aborts_the_core() {
        use crate::halt::CancelFlag;
        let m = hard_instance();
        let flag = CancelFlag::new();
        flag.cancel();
        let halt = Halt {
            deadline: None,
            cancel: Some(flag),
        };
        let err = cyclic_core_halted(&m, &implicit(), &halt, &mut NoopProbe).unwrap_err();
        assert_eq!(err, HaltReason::Cancelled);
    }

    #[test]
    fn small_matrix_builds_no_zdd_under_any_budget() {
        use ucp_telemetry::RecordingProbe;
        let m = hard_instance();
        let starved = CoreOptions {
            kernel: zdd::ZddOptions::new().node_budget(16),
            ..CoreOptions::default()
        };
        let mut probe = RecordingProbe::new();
        let res = cyclic_core_halted(&m, &starved, &Halt::none(), &mut probe)
            .expect("a matrix within MaxR/MaxC never touches the budget");
        assert!(!res.degraded);
        assert_eq!(res.zdd_stats, zdd::ZddStats::default());
        assert!(!probe
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::ZddKernel { .. } | Event::Degraded { .. })));
        // The same core as the implicit route.
        let implicit = cyclic_core(&m, &implicit());
        assert_eq!(res.fixed_cols, implicit.fixed_cols);
        assert_eq!(res.core, implicit.core);
        assert_eq!(res.col_map, implicit.col_map);
    }
}
