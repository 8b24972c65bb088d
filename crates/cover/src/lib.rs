//! Covering matrices, reductions and cyclic cores for the unate covering
//! problem (UCP).
//!
//! A UCP instance `(M, P, R, c)` is a 0/1 matrix `A` (rows `M` = objects to
//! cover, columns `P` = candidate covers, `R` = the covering relation) plus a
//! column cost vector `c`; the goal is a minimum-cost set of columns hitting
//! every row. This crate provides:
//!
//! * [`CoverMatrix`] — the sparse instance representation, and [`Solution`],
//! * [`Reducer`] — the classical *explicit* reductions (essential columns,
//!   row dominance, column dominance) iterated to a fixpoint, polling a
//!   [`Halt`] between passes,
//! * [`cyclic_core`] — the front half of `ZDD_SCG` (Fig. 2 of the paper):
//!   merge the duplicate rows, run the [`Reducer`] on them and return the
//!   cyclic core plus the essential columns found along the way.
//!
//! The paper reduces row families above `MaxR`/`MaxC` implicitly, as a
//! ZDD, before decoding them for the explicit reductions. This crate has
//! no implicit phase: on every input measured, the merged rows reduce
//! faster explicitly (DESIGN.md, "Why the implicit phase went"). The
//! ZDD manager counters ([`ZddStats`]) stay re-exported for the prime
//! generator's callers.
//!
//! # Example
//!
//! ```
//! use cover::{cyclic_core, CoverMatrix};
//!
//! // Row 0 is covered only by column 0, so column 0 is essential; the
//! // cascade of reductions then solves the rest outright.
//! let m = CoverMatrix::from_rows(3, vec![vec![0], vec![0, 1], vec![1, 2]]);
//! let core = cyclic_core(&m);
//! assert_eq!(core.fixed_cols, vec![0, 1]);
//! assert!(core.is_solved());
//! ```

mod constraints;
mod core_driver;
mod halt;
mod io;
mod matrix;
mod merge;
mod partition;
mod reduce;

pub use constraints::{ConstraintError, ConstraintKind, Constraints, GubGroup};
pub use core_driver::{cyclic_core, cyclic_core_halted, CoreResult};
pub use halt::{CancelFlag, Halt, HaltReason};
pub use io::ParseMatrixError;
pub use matrix::{CoverMatrix, Solution, SparseView};
pub use partition::{is_partitionable, partition, partition_count, Block};
pub use reduce::{Reducer, ReductionStats};
pub use zdd::ZddStats;
