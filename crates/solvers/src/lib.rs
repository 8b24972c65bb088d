//! Baseline unate-covering solvers: the comparators of the paper's
//! experimental section.
//!
//! * [`chvatal_greedy`] — the classical greedy set-covering heuristic
//!   (Johnson/Lovász/Chvátal), the common ancestor of every heuristic
//!   covering step;
//! * [`espresso_like`] — stand-ins for *Espresso*'s heuristic covering in
//!   normal and strong mode (see `DESIGN.md` for the substitution note):
//!   greedy + irredundant, and multi-start randomised greedy with
//!   1-exchange local improvement respectively;
//! * [`branch_and_bound`] — a *scherzo-like* exact search with reductions at
//!   every node, the maximal-independent-set lower bound and limit-bound
//!   pruning (Coudert), used to obtain proven optima for Tables 3–4.
//!
//! # Example
//!
//! ```
//! use cover::CoverMatrix;
//! use solvers::{branch_and_bound, chvatal_greedy, BnbOptions};
//!
//! let m = CoverMatrix::from_rows(
//!     5,
//!     vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
//! );
//! let greedy = chvatal_greedy(&m).unwrap();
//! let exact = branch_and_bound(&m, &BnbOptions::default());
//! assert!(exact.optimal);
//! assert_eq!(exact.cost, 3.0);
//! assert!(greedy.cost(&m) >= exact.cost);
//! ```

mod bnb;
mod chvatal;
mod espresso_like;
mod incremental;

pub use bnb::{branch_and_bound, BnbOptions, BnbResult, BoundKind};
pub use chvatal::{chvatal_greedy, mis_lower_bound};
pub use espresso_like::{espresso_like, EspressoMode};
pub use incremental::{incremental_mis_bound, IncrementalOptions};
