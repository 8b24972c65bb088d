//! The cyclic-core driver: coverability check, duplicate-row merge, then
//! the explicit reductions to a fixpoint.
//!
//! This is the front half of `ZDD_SCG` (Fig. 2) without its implicit
//! phase: the merged rows are exactly what the ZDD encode and decode of
//! the paper's `ZDD_Reductions` step would hand the explicit reductions,
//! and what is left after them is the (possibly empty) cyclic core.

use crate::halt::{Halt, HaltReason};
use crate::matrix::CoverMatrix;
use crate::merge::canonical_rows;
use crate::reduce::Reducer;
use std::time::{Duration, Instant};
use ucp_telemetry::{Event, NoopProbe, Phase, Probe};

/// Result of [`cyclic_core`].
#[derive(Clone, Debug)]
pub struct CoreResult {
    /// The stable residual matrix (empty when reductions solve the problem).
    pub core: CoverMatrix,
    /// Columns fixed into the solution (original indices), sorted
    /// ascending.
    pub fixed_cols: Vec<usize>,
    /// Original column index of each core column.
    pub col_map: Vec<usize>,
    /// Wall-clock time of the whole core computation (the `CC(s)` column of
    /// the paper's tables): exactly `implicit_time + explicit_time`.
    pub cc_time: Duration,
    /// Portion of `cc_time` spent in the [`Phase::ImplicitReduction`]
    /// phase: the coverability check and the duplicate-row merge.
    pub implicit_time: Duration,
    /// Portion of `cc_time` spent in the explicit reductions.
    pub explicit_time: Duration,
    /// `true` if some row cannot be covered at all.
    pub infeasible: bool,
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
/// use cover::{cyclic_core, CoverMatrix};
/// let m = CoverMatrix::from_rows(
///     5,
///     vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
/// );
/// let core = cyclic_core(&m);
/// assert_eq!(core.core.num_rows(), 5); // the 5-cycle is already cyclic
/// assert!(core.fixed_cols.is_empty());
/// ```
pub fn cyclic_core(m: &CoverMatrix) -> CoreResult {
    cyclic_core_halted(m, &Halt::none(), &mut NoopProbe).expect("Halt::none never fires")
}

/// [`cyclic_core`] with cooperative halting and a telemetry probe
/// observing the two phases (begin/end events and wall-clock split).
///
/// The [`Phase::ImplicitReduction`] phase checks that every row can be
/// covered and merges the duplicate rows; the
/// [`Phase::ExplicitReduction`] phase runs the [`Reducer`] to its
/// fixpoint on the merged rows. The [`Halt`] is polled before each
/// reduction pass, so a deadline or a cancellation stops the computation
/// within one pass.
///
/// The two phases tile the call: one clock reading ends the first phase
/// and begins the second, and the setup and teardown of each phase fall
/// inside it.
pub fn cyclic_core_halted<P: Probe>(
    m: &CoverMatrix,
    halt: &Halt,
    probe: &mut P,
) -> Result<CoreResult, HaltReason> {
    let start = Instant::now();
    probe.record(Event::PhaseBegin {
        phase: Phase::ImplicitReduction,
    });
    // An uncoverable row ends the computation here, with the whole
    // matrix as its core.
    let merged = if m.is_coverable() {
        Ok(canonical_rows(m))
    } else {
        Err(m.clone())
    };
    let explicit_start = Instant::now();
    let implicit_time = explicit_start - start;
    probe.record(Event::PhaseEnd {
        phase: Phase::ImplicitReduction,
        seconds: implicit_time.as_secs_f64(),
    });
    let (matrix, col_map_a) = match merged {
        Ok(merged) => merged,
        Err(core) => {
            return Ok(CoreResult {
                core,
                fixed_cols: Vec::new(),
                col_map: (0..m.num_cols()).collect(),
                cc_time: implicit_time,
                implicit_time,
                explicit_time: Duration::ZERO,
                infeasible: true,
            })
        }
    };

    // Explicit reductions to the fixpoint. Its clock started where the
    // merge's stopped.
    probe.record(Event::PhaseBegin {
        phase: Phase::ExplicitReduction,
    });
    let mut red = Reducer::new(&matrix);
    let reduced = red.reduce_to_fixpoint(halt);
    let infeasible = red.infeasible();
    let (core, _, col_map_b) = red.extract_core();

    // Compose maps back to original indices.
    let mut fixed_cols: Vec<usize> = red.fixed().iter().map(|&j| col_map_a[j]).collect();
    fixed_cols.sort_unstable();
    let col_map: Vec<usize> = col_map_b.iter().map(|&j| col_map_a[j]).collect();
    drop(red);
    drop((matrix, col_map_a, col_map_b));
    let end = Instant::now();
    let explicit_time = end - explicit_start;
    probe.record(Event::PhaseEnd {
        phase: Phase::ExplicitReduction,
        seconds: explicit_time.as_secs_f64(),
    });
    reduced?;

    Ok(CoreResult {
        core,
        fixed_cols,
        col_map,
        cc_time: end - start,
        implicit_time,
        explicit_time,
        infeasible,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucp_telemetry::RecordingProbe;

    #[test]
    fn reductions_solve_easy_instance() {
        let m = CoverMatrix::from_rows(3, vec![vec![0], vec![0, 1], vec![1, 2], vec![2]]);
        let res = cyclic_core(&m);
        assert!(res.is_solved());
        assert_eq!(res.fixed_cols, vec![0, 2]);
    }

    #[test]
    fn cyclic_instance_survives() {
        let m = CoverMatrix::from_rows(
            5,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
        );
        let res = cyclic_core(&m);
        assert!(!res.is_solved());
        assert_eq!(res.core.num_rows(), 5);
        assert_eq!(res.core.num_cols(), 5);
        assert_eq!(res.col_map.len(), 5);
    }

    #[test]
    fn duplicate_rows_reduce_like_one() {
        let m = CoverMatrix::from_rows(
            4,
            vec![vec![0, 1], vec![1, 2], vec![0, 1], vec![2, 0], vec![1, 2]],
        );
        let merged = CoverMatrix::from_rows(4, vec![vec![0, 1], vec![1, 2], vec![2, 0]]);
        let (a, b) = (cyclic_core(&m), cyclic_core(&merged));
        assert_eq!(a.core, b.core);
        assert_eq!(a.col_map, b.col_map);
        assert_eq!(a.fixed_cols, b.fixed_cols);
        // Column 3 covers nothing, so it never reaches the core.
        assert_eq!(a.col_map, vec![0, 1, 2]);
    }

    #[test]
    fn infeasible_reported() {
        let m = CoverMatrix::from_rows(2, vec![vec![], vec![0]]);
        let res = cyclic_core(&m);
        assert!(res.infeasible);
        assert!(!res.is_solved());
    }

    #[test]
    fn cancelled_halt_aborts_the_core_with_balanced_phases() {
        use crate::halt::CancelFlag;
        let m = CoverMatrix::from_rows(3, vec![vec![0], vec![0, 1], vec![1, 2]]);
        let flag = CancelFlag::new();
        flag.cancel();
        let halt = Halt {
            deadline: None,
            cancel: Some(flag),
        };
        let mut probe = RecordingProbe::new();
        let err = cyclic_core_halted(&m, &halt, &mut probe).unwrap_err();
        assert_eq!(err, HaltReason::Cancelled);
        assert!(probe.unbalanced_phases().is_empty());
    }

    #[test]
    fn phases_tile_the_core_computation() {
        let m = CoverMatrix::from_rows(
            5,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
        );
        let mut probe = RecordingProbe::new();
        let res = cyclic_core_halted(&m, &Halt::none(), &mut probe).unwrap();
        assert_eq!(res.cc_time, res.implicit_time + res.explicit_time);
        assert!(probe.unbalanced_phases().is_empty());
    }
}
