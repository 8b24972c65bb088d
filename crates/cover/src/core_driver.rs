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
use zdd::ZddOverflow;

/// Tunables for the cyclic-core computation.
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
    /// Skip the implicit phase entirely (for ablation benchmarks).
    pub use_implicit: bool,
    /// When the implicit phase exhausts the kernel's node budget, fall
    /// back to the explicit representation (salvaging whatever the
    /// implicit reductions achieved) instead of failing. Default `true`;
    /// with `false`, [`cyclic_core_halted`] reports
    /// [`CoreAbort::Exhausted`] and the infallible entry points panic.
    pub degrade: bool,
    /// ZDD kernel tunables (table/cache sizing, GC schedule, node budget)
    /// for the implicit phase's manager. Kernel settings never change
    /// results, only speed and memory — unless a node budget trips, in
    /// which case `degrade` decides what happens.
    pub kernel: zdd::ZddOptions,
}

impl Default for CoreOptions {
    fn default() -> Self {
        // The paper's values: MaxR = 5000, MaxC = 10000.
        CoreOptions {
            max_rows: 5000,
            max_cols: 10_000,
            use_implicit: true,
            degrade: true,
            kernel: zdd::ZddOptions::default(),
        }
    }
}

/// Why [`cyclic_core_halted`] stopped without producing a core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreAbort {
    /// The [`Halt`] fired (deadline or cancellation).
    Halted(HaltReason),
    /// The kernel's node budget was exhausted and
    /// [`CoreOptions::degrade`] is `false`.
    Exhausted(ZddOverflow),
}

impl std::fmt::Display for CoreAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreAbort::Halted(r) => write!(f, "cyclic-core computation halted: {r}"),
            CoreAbort::Exhausted(e) => write!(f, "cyclic-core computation failed: {e}"),
        }
    }
}

impl std::error::Error for CoreAbort {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreAbort::Halted(_) => None,
            CoreAbort::Exhausted(e) => Some(e),
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
    /// the paper's tables).
    pub cc_time: Duration,
    /// Portion of `cc_time` spent in the implicit (ZDD) phase.
    pub implicit_time: Duration,
    /// Portion of `cc_time` spent in the explicit reduction phase.
    pub explicit_time: Duration,
    /// Counters of the ZDD manager used by the implicit phase. All zero
    /// when no manager was built: the merged matrix was already within
    /// `MaxR`/`MaxC`, `use_implicit` was off, or the encoding overflowed
    /// its node budget.
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
    cyclic_core_probed(m, opts, &mut NoopProbe)
}

/// [`cyclic_core`] with a telemetry probe observing the two reduction
/// phases (begin/end events and wall-clock split).
///
/// # Panics
///
/// Panics if the kernel's node budget is exhausted while
/// [`CoreOptions::degrade`] is `false` — use [`cyclic_core_halted`] to
/// recover instead.
pub fn cyclic_core_probed<P: Probe>(
    m: &CoverMatrix,
    opts: &CoreOptions,
    probe: &mut P,
) -> CoreResult {
    match cyclic_core_halted(m, opts, &Halt::none(), probe) {
        Ok(res) => res,
        Err(abort @ CoreAbort::Exhausted(_)) => {
            panic!("{abort} (enable CoreOptions::degrade or raise the node budget)")
        }
        Err(CoreAbort::Halted(_)) => unreachable!("Halt::none never fires"),
    }
}

/// [`cyclic_core_probed`] with cooperative halting and graceful
/// degradation.
///
/// Duplicate rows are merged first, into the matrix a ZDD encode and
/// decode would give. If that matrix is already within
/// [`CoreOptions::max_rows`]/[`CoreOptions::max_cols`] (or
/// [`CoreOptions::use_implicit`] is off), it goes straight to the explicit
/// phase: no ZDD manager is built and no [`Event::ZddKernel`] is recorded.
/// Otherwise the implicit phase reduces the ZDD row family until it fits.
///
/// The [`Halt`] is polled at every implicit-operation boundary, so a
/// deadline or a cancellation stops the computation within one ZDD
/// operation. If the kernel's node budget trips and
/// [`CoreOptions::degrade`] is on, the partially-reduced family is
/// salvaged (implicit reductions only shrink the family, so it is always
/// enumerable) — or, when the encoding itself overflowed, the merged rows
/// are used — and the explicit phase takes over; exactly one
/// [`Event::Degraded`] is recorded per such fallback and the returned
/// [`CoreResult::degraded`] flag is set.
pub fn cyclic_core_halted<P: Probe>(
    m: &CoverMatrix,
    opts: &CoreOptions,
    halt: &Halt,
    probe: &mut P,
) -> Result<CoreResult, CoreAbort> {
    let start = Instant::now();
    if !m.is_coverable() {
        return Ok(CoreResult {
            core: m.clone(),
            fixed_cols: Vec::new(),
            col_map: (0..m.num_cols()).collect(),
            cc_time: start.elapsed(),
            implicit_time: Duration::ZERO,
            explicit_time: Duration::ZERO,
            zdd_stats: zdd::ZddStats::default(),
            infeasible: true,
            degraded: false,
        });
    }

    // Phase 1: merge duplicate rows, then reduce implicitly on the ZDD row
    // family only while the merged matrix exceeds MaxR/MaxC.
    probe.record(Event::PhaseBegin {
        phase: Phase::ImplicitReduction,
    });
    let implicit_start = Instant::now();
    let merged = canonical_rows(m);
    let small =
        merged.0.num_rows() as u128 <= opts.max_rows && merged.0.num_cols() <= opts.max_cols;
    let mut zdd_stats = None;
    let mut degraded = false;
    let implicit_outcome = if small || !opts.use_implicit {
        Ok((merged, Vec::new()))
    } else {
        match ImplicitMatrix::try_encode_with(m, opts.kernel) {
            Ok(mut im) => {
                // Only an encode overflow falls back to the merged rows.
                drop(merged);
                let outcome = match im.try_reduce_until_small(opts.max_rows, opts.max_cols, halt) {
                    Ok(fixed) => Ok((im.decode(), fixed)),
                    Err(ReduceAbort {
                        interrupt: ReduceInterrupt::Halted(reason),
                        ..
                    }) => Err(CoreAbort::Halted(reason)),
                    Err(ReduceAbort {
                        fixed,
                        interrupt: ReduceInterrupt::Overflow(e),
                    }) => {
                        if opts.degrade {
                            // Salvage the partially-reduced family: the
                            // reductions only ever shrink it, so decoding
                            // is no larger than decoding the input.
                            degraded = true;
                            probe.record(Event::Degraded {
                                reason: DegradeReason::NodeBudget,
                                phase: Phase::ImplicitReduction,
                            });
                            Ok((im.decode(), fixed))
                        } else {
                            Err(CoreAbort::Exhausted(e))
                        }
                    }
                };
                zdd_stats = Some(im.zdd_stats());
                outcome
            }
            Err(e) => {
                if opts.degrade {
                    // The family never fit: skip the implicit phase
                    // and hand the explicit one the merged rows, which
                    // are what a decode would have emitted.
                    degraded = true;
                    probe.record(Event::Degraded {
                        reason: DegradeReason::NodeBudget,
                        phase: Phase::ImplicitReduction,
                    });
                    Ok((merged, Vec::new()))
                } else {
                    Err(CoreAbort::Exhausted(e))
                }
            }
        }
    };
    let implicit_time = implicit_start.elapsed();
    probe.record(Event::PhaseEnd {
        phase: Phase::ImplicitReduction,
        seconds: implicit_time.as_secs_f64(),
    });
    let ((explicit, col_map_a), implicit_fixed) = implicit_outcome?;
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

    // Phase 2: explicit reductions to the fixpoint.
    if let Some(reason) = halt.check() {
        return Err(CoreAbort::Halted(reason));
    }
    probe.record(Event::PhaseBegin {
        phase: Phase::ExplicitReduction,
    });
    let explicit_start = Instant::now();
    let mut red = Reducer::new(&explicit);
    red.reduce_to_fixpoint();
    let infeasible = red.infeasible();
    let (core, _, col_map_b) = red.extract_core();

    // Compose maps back to original indices.
    let mut fixed_cols = implicit_fixed;
    fixed_cols.extend(red.fixed().iter().map(|&j| col_map_a[j]));
    fixed_cols.sort_unstable();
    fixed_cols.dedup();
    let col_map: Vec<usize> = col_map_b.iter().map(|&j| col_map_a[j]).collect();
    let explicit_time = explicit_start.elapsed();
    probe.record(Event::PhaseEnd {
        phase: Phase::ExplicitReduction,
        seconds: explicit_time.as_secs_f64(),
    });

    Ok(CoreResult {
        core,
        fixed_cols,
        col_map,
        cc_time: start.elapsed(),
        implicit_time,
        explicit_time,
        zdd_stats: zdd_stats.unwrap_or_default(),
        infeasible,
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
        let without = cyclic_core(
            &m,
            &CoreOptions {
                use_implicit: false,
                ..CoreOptions::default()
            },
        );
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
            .expect("degrade=true never aborts on overflow");
        assert!(res.degraded);
        let degraded_events = probe
            .events()
            .iter()
            .filter(|e| matches!(e.event, Event::Degraded { .. }))
            .count();
        assert_eq!(degraded_events, 1, "exactly one Degraded per fallback");
        assert!(probe.unbalanced_phases().is_empty());
        // The degraded result matches the pure-explicit ablation.
        let explicit_only = cyclic_core(
            &m,
            &CoreOptions {
                use_implicit: false,
                ..CoreOptions::default()
            },
        );
        assert_eq!(res.fixed_cols, explicit_only.fixed_cols);
        assert_eq!(res.core.num_rows(), explicit_only.core.num_rows());
        assert_eq!(res.core.num_cols(), explicit_only.core.num_cols());
    }

    #[test]
    fn degrade_off_reports_exhaustion() {
        let m = hard_instance();
        let opts = CoreOptions {
            kernel: zdd::ZddOptions::new().node_budget(16),
            degrade: false,
            ..implicit()
        };
        let err = cyclic_core_halted(&m, &opts, &Halt::none(), &mut NoopProbe).unwrap_err();
        assert!(matches!(err, CoreAbort::Exhausted(_)), "{err}");
        // The infallible wrapper turns the same condition into a panic.
        let panicked = std::panic::catch_unwind(|| cyclic_core(&m, &opts)).unwrap_err();
        let msg = panicked.downcast_ref::<String>().unwrap();
        assert!(msg.contains("node budget"), "{msg}");
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
        assert_eq!(err, CoreAbort::Halted(HaltReason::Cancelled));
    }

    #[test]
    fn small_matrix_builds_no_zdd_under_any_budget() {
        use ucp_telemetry::RecordingProbe;
        let m = hard_instance();
        let starved = CoreOptions {
            kernel: zdd::ZddOptions::new().node_budget(16),
            degrade: false,
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
