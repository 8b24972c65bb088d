//! `ZDD_SCG`: the Lagrangian constructive heuristic for unate covering from
//! *"An Efficient Heuristic Approach to Solve the Unate Covering Problem"*
//! (Cordone, Ferrandi, Sciuto, Wolfler Calvo — DATE 2000).
//!
//! The solver combines:
//!
//! * [`relax`] — the primal Lagrangian relaxation `(LP)` of the covering ILP:
//!   Lagrangian costs `c̃ = c − A'λ`, its trivial integer optimum and the
//!   covering-violation subgradient (§3.1–3.2 of the paper);
//! * [`dual`] — the dual problem `(D)`, the **dual ascent** heuristic and the
//!   dual Lagrangian relaxation `(LD)` whose value upper-bounds `z*_P`
//!   (§3.3);
//! * [`greedy`] — four Lagrangian-cost-driven greedy primal heuristics
//!   (§3.5);
//! * [`subgradient`] — the two-sided subgradient scheme tightening `λ` and
//!   `μ` against each other (§3.2–3.3, eq. 2), behind one entry point
//!   ([`subgradient_ascent`]) for unate and constrained instances;
//! * [`penalty`] — Lagrangian penalties (eqs. 3–4) and dual penalties
//!   (eqs. 5–6), the generalisation of the limit-bound theorem (§3.6);
//! * [`bounds`] — the four lower bounds of Proposition 1 side by side;
//! * [`scg`] — the full constructive driver of Fig. 2 with its stochastic
//!   restarts ([`Scg`]): one solve driver for every constraint kind, whose
//!   core stage is the restarts on the cyclic core for unate solves and a
//!   jittered-ascent chain for set-multicover/GUB solves;
//! * [`restart`] — the restart scheduler running those runs (or partition
//!   blocks) on the idle cores, or on `min(workers, tasks)` threads when
//!   asked, without changing the answer;
//! * [`request`] — the unified solve API: build a [`SolveRequest`]
//!   (instance + [`Preset`]/options + deadline + seed + probe +
//!   [`CancelFlag`]) and pass it to [`Scg::run`].
//!
//! # Example
//!
//! ```
//! use cover::CoverMatrix;
//! use ucp_core::{Scg, SolveRequest};
//!
//! let m = CoverMatrix::from_rows(5, vec![
//!     vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0],
//! ]);
//! let outcome = Scg::run(SolveRequest::for_matrix(&m)).unwrap();
//! assert!(outcome.solution.is_feasible(&m));
//! assert_eq!(outcome.cost, 3.0);
//! assert!(outcome.proven_optimal); // ⌈2.5⌉ = 3 certificate
//! ```

mod ascent;
pub mod bounds;
pub mod checkpoint;
pub mod dual;
pub mod greedy;
pub mod metrics;
pub mod penalty;
#[doc(hidden)]
pub mod reference;
pub mod relax;
pub mod request;
pub mod restart;
pub mod scg;
pub mod subgradient;
pub mod wire;

pub use checkpoint::{SolverCheckpoint, CHECKPOINT_SCHEMA};
pub use cover::{ConstraintError, ConstraintKind, Constraints, GubGroup, Halt, HaltReason};
pub use metrics::SolveMetrics;
pub use request::{CancelFlag, Preset, SolveError, SolveRequest};
pub use restart::{available_cores, restart_seed, splitmix64};
pub use scg::{Scg, ScgOptions, ScgOutcome};
pub use subgradient::{subgradient_ascent, HistoryPoint, SubgradientOptions, SubgradientResult};
pub use wire::{
    JobResultDto, JobSpec, JobState, JobStatusDto, SubmitBody, WireCode, WireError, WIRE_API,
    WIRE_API_V1,
};
