//! Binary decision diagrams (BDDs) for Boolean function manipulation.
//!
//! This crate is the Boolean-function substrate of the two-level logic
//! minimisation pipeline: ON/DC/OFF-set representation, implicant checks,
//! minterm expansion, and the function algebra needed to generate prime
//! implicants implicitly (Coudert–Madre recursion, implemented in the
//! `ucp-logic` crate on top of this one and `ucp-zdd`).
//!
//! The manager ([`Bdd`], built with [`Bdd::default`]) is a hash-consed
//! node store in the style of [Bryant 1986]; diagrams are reduced and
//! ordered, so equality of [`BddId`]s is semantic equality of functions.
//!
//! # Example
//!
//! ```
//! use bdd::Bdd;
//!
//! let mut b = Bdd::default();
//! let x = b.var(0);
//! let y = b.var(1);
//! let f = b.and(x, y);
//! let g = b.or(x, y);
//! assert!(b.implies_check(f, g));
//! assert_eq!(b.minterms(f, 2), vec![0b11]);
//! ```
//!
//! [Bryant 1986]: https://doi.org/10.1109/TC.1986.1676819

mod apply;
mod manager;
mod node;
mod sat;

pub use manager::Bdd;
pub use node::BddId;
