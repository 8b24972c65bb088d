//! Zero-suppressed binary decision diagrams (ZDDs) for combinatorial set
//! families.
//!
//! A ZDD is a canonical, compressed representation of a *family of sets* over
//! a totally ordered universe of [`Var`]s. This crate provides the substrate
//! the `ZDD_SCG` unate-covering heuristic (Cordone et al., DATE 2000) uses to
//! represent covering matrices implicitly: every row of the matrix is the set
//! of columns covering it, and the whole matrix is a family of such sets.
//!
//! The crate implements:
//!
//! * hash-consed node storage behind an open-addressing unique table with
//!   incremental rehashing ([`Zdd`]), constructed through the
//!   [`ZddOptions`] builder,
//! * a fixed-size, generational computed cache (bounded memory, O(1)
//!   invalidation on GC),
//! * mark-and-compact garbage collection with registered root slots
//!   ([`Zdd::register_root`], [`Zdd::maybe_gc`]),
//! * the classical family algebra — [`Zdd::union`], [`Zdd::intersect`],
//!   [`Zdd::difference`], [`Zdd::product`], [`Zdd::subset0`],
//!   [`Zdd::subset1`], [`Zdd::change`],
//! * the set-inclusion operators at the heart of implicit dominance
//!   reductions — [`Zdd::minimal`], [`Zdd::maximal`],
//!   [`Zdd::nonsupersets`], [`Zdd::nonsubsets`],
//! * counting, enumeration and DOT export,
//! * performance counters — unique-table and computed-cache hit rates,
//!   evictions, node high-water mark and GC reclamation ([`Zdd::stats`]).
//!
//! # Example
//!
//! ```
//! use zdd::{Var, ZddOptions};
//!
//! let mut z = ZddOptions::new().build();
//! let family = z.from_sets([vec![Var(0), Var(1)], vec![Var(0)], vec![Var(2)]]);
//! // Row dominance: `{0,1}` is a superset of `{0}`, so it is not minimal.
//! let minimal = z.minimal(family);
//! assert_eq!(z.count(minimal), 2);
//! ```

mod algebra;
mod cache;
mod count;
mod division;
mod dot;
mod gc;
pub mod hash;
mod inclusion;
mod iter;
mod manager;
mod node;
mod options;
mod stats;
mod subset;
mod table;

pub use gc::GcStats;
pub use iter::SetsIter;
pub use manager::{RootId, Zdd};
pub use node::{NodeId, Var};
pub use options::ZddOptions;
pub use stats::{GcPauseHistogram, ZddStats, GC_PAUSE_BOUNDS_NANOS, GC_PAUSE_BUCKETS};
