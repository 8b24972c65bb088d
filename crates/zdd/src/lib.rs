//! Zero-suppressed binary decision diagrams (ZDDs) for combinatorial set
//! families.
//!
//! A ZDD is a canonical, compressed representation of a *family of sets* over
//! a totally ordered universe of [`Var`]s. In this workspace it holds the
//! prime implicants the Coudert–Madre recursion generates (`ucp-logic`'s
//! `primes` module): each prime is the set of its literals, and the primes
//! of a function are one family.
//!
//! The crate implements what that recursion calls:
//!
//! * hash-consed node storage behind an open-addressing unique table with
//!   incremental rehashing ([`Zdd`], built with [`Zdd::default`]),
//! * a fixed-size, direct-mapped computed cache (bounded memory),
//! * the family operations [`Zdd::union`], [`Zdd::difference`] and
//!   [`Zdd::change`],
//! * bottom-up construction ([`Zdd::from_sets`]), enumeration
//!   ([`Zdd::sets`]) and the support of a family ([`Zdd::support`]),
//! * performance counters — unique-table and computed-cache hit rates,
//!   evictions and the node count ([`Zdd::stats`]).
//!
//! # Example
//!
//! ```
//! use zdd::{Var, Zdd};
//!
//! let mut z = Zdd::default();
//! let family = z.from_sets([vec![Var(0), Var(1)], vec![Var(2)]]);
//! // Toggle variable 1 in every member: {0,1} → {0}, {2} → {1,2}.
//! let toggled = z.change(family, Var(1));
//! let mut sets = z.to_sets(toggled);
//! sets.sort();
//! assert_eq!(sets, vec![vec![Var(0)], vec![Var(1), Var(2)]]);
//! ```

mod algebra;
mod cache;
mod iter;
mod manager;
mod node;
mod stats;
mod table;

pub use iter::SetsIter;
pub use manager::Zdd;
pub use node::{NodeId, Var};
pub use stats::{GcPauseHistogram, ZddStats};
