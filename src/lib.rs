//! `ucp` — a complete Rust reproduction of *"An Efficient Heuristic Approach
//! to Solve the Unate Covering Problem"* (Cordone, Ferrandi, Sciuto,
//! Wolfler Calvo — DATE 2000).
//!
//! The crate bundles the whole system the paper describes:
//!
//! * [`zdd`] — zero-suppressed decision diagrams (the implicit covering
//!   matrix representation),
//! * [`bdd`] — binary decision diagrams (Boolean function substrate),
//! * [`logic`] — cube algebra, PLA parsing, prime-implicant generation, and
//!   the Quine–McCluskey reduction of two-level minimisation to unate
//!   covering,
//! * [`cover`] — covering matrices, explicit/implicit reductions, cyclic
//!   cores,
//! * [`lp`] — a dense simplex solver for the linear-programming relaxation
//!   bound,
//! * [`ucp_core`] — the paper's contribution: Lagrangian subgradient ascent
//!   on the primal and dual relaxations, dual ascent, penalty tests, and the
//!   `ZDD_SCG` constructive heuristic,
//! * [`ucp_engine`] — the batch solve engine: a long-lived worker pool
//!   scheduling many concurrent solve jobs with cancellation, deadlines
//!   and panic isolation (behind `ucp batch`),
//! * [`ucp_server`] — the solve service: an HTTP front-end on the engine
//!   speaking the versioned `ucp-api/2` wire API with per-tenant
//!   admission control, load shedding and live trace streaming (behind
//!   `ucp serve`),
//! * [`ucp_durability`] — the write-ahead job journal (`ucp-journal/1`)
//!   and crash-recovery replay behind `ucp serve --journal` and
//!   `ucp journal`,
//! * [`solvers`] — baselines: Chvátal greedy, espresso-like heuristics, and
//!   an exact scherzo-like branch-and-bound,
//! * [`workloads`] — seeded synthetic benchmark instances standing in for
//!   the (unavailable) Berkeley PLA test set,
//! * [`ucp_telemetry`] — the observability layer: probes, structured trace
//!   events, the JSONL sink behind `ucp solve --trace`, and the trace
//!   analytics behind `ucp trace`,
//! * [`ucp_metrics`] — lock-free metrics registry (counters, gauges,
//!   log-bucketed histograms) with Prometheus text exposition, fed by the
//!   solver, the engine and the ZDD kernel.
//!
//! # Quickstart
//!
//! ```
//! use ucp::cover::CoverMatrix;
//! use ucp::ucp_core::{Scg, SolveRequest};
//!
//! // Rows are the sets of columns covering them; all columns cost 1.
//! let matrix = CoverMatrix::from_rows(5, vec![
//!     vec![0, 1],
//!     vec![1, 2],
//!     vec![2, 3],
//!     vec![3, 4],
//!     vec![4, 0],
//! ]);
//! let outcome = Scg::run(SolveRequest::for_matrix(&matrix)).unwrap();
//! assert!(outcome.solution.is_feasible(&matrix));
//! assert_eq!(outcome.solution.cost(&matrix), 3.0);
//! ```

pub use bdd;
pub use cover;
pub use logic;
pub use lp;
pub use solvers;
pub use ucp_core;
pub use ucp_durability;
pub use ucp_engine;
pub use ucp_failpoints;
pub use ucp_metrics;
pub use ucp_server;
pub use ucp_telemetry;
pub use workloads;
pub use zdd;
