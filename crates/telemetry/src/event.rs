//! Trace event payloads emitted by the solver.

use crate::json::JsonObj;
use crate::phase::Phase;

/// Which penalty test eliminated columns during a constructive run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PenaltyKind {
    /// Lagrangian cost test: `c̃_j > ub - lb` excludes column j (§3.6).
    Lagrangian,
    /// Dual (row-surplus) test on small cores (§3.6).
    Dual,
}

impl PenaltyKind {
    pub fn name(self) -> &'static str {
        match self {
            PenaltyKind::Lagrangian => "lagrangian",
            PenaltyKind::Dual => "dual",
        }
    }
}

/// Why a column entered the partial solution during a constructive run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FixReason {
    /// Promising column committed before the run (§3.7 fixing rule).
    Promising,
    /// Rated pick by minimum σ_j = c̃_j − α·μ_j during construction.
    RatedPick,
    /// Column proven into the solution inside the run — by a penalty test
    /// or as an essential column surfaced by re-reduction.
    Essential,
}

impl FixReason {
    pub fn name(self) -> &'static str {
        match self {
            FixReason::Promising => "promising",
            FixReason::RatedPick => "rated_pick",
            FixReason::Essential => "essential",
        }
    }
}

/// One structured trace event.
///
/// Payloads are plain numbers so that building an event is cheap; sites
/// that would do real work to assemble one guard on [`crate::Probe::enabled`].
/// Column and row indices refer to the matrix the emitting phase works on
/// (the cyclic core during subgradient/constructive phases).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A pipeline phase started.
    PhaseBegin { phase: Phase },
    /// A pipeline phase finished after `seconds`.
    PhaseEnd { phase: Phase, seconds: f64 },
    /// One iteration of subgradient ascent.
    SubgradientIter {
        /// Iteration index within this ascent (0-based).
        iter: usize,
        /// Lagrangian value z(λ) at this iterate.
        z_lambda: f64,
        /// Best lower bound so far (monotone non-decreasing).
        lb: f64,
        /// Best Lagrangian-heuristic upper bound so far.
        ub: f64,
        /// Current step size t.
        step: f64,
        /// Squared Euclidean norm of the subgradient (violation) vector.
        violation_norm2: f64,
    },
    /// A penalty test removed `removed` columns from the current core.
    PenaltyElim { kind: PenaltyKind, removed: usize },
    /// A column was fixed into the partial solution.
    ColumnFix {
        col: usize,
        /// Rating σ_j = c̃_j − α·μ_j at the moment of fixing, when the
        /// fix came from a rated pick; the fixing threshold value for
        /// promising-column fixes.
        sigma: f64,
        /// Dual multiplier μ_j of the column (0 when not applicable).
        mu: f64,
        reason: FixReason,
    },
    /// A constructive run (restart) began on worker `worker`.
    RestartBegin { run: usize, worker: usize },
    /// A constructive run finished with `cost`; `best_cost` is the
    /// shared incumbent after accounting for runs up to this one
    /// (restart-order prefix, so it is monotone in merged traces even
    /// when runs executed concurrently on several workers).
    RestartEnd {
        run: usize,
        worker: usize,
        cost: f64,
        best_cost: f64,
    },
    /// Resumable solver state at a restart boundary: everything a
    /// `SolverCheckpoint` needs to warm-start an interrupted solve.
    /// Emitted only when checkpointing is requested
    /// (`ScgOptions::checkpoint_every > 0`), so the payload may carry
    /// vectors without taxing ordinary traces.
    Checkpoint {
        /// The next constructive run a resumed solve would execute
        /// (1-based; runs below it are already accounted for).
        next_run: usize,
        /// Rows/columns of the matrix the ascent state refers to (the
        /// cyclic core for unate solves, the full instance for
        /// multicover).
        core_rows: usize,
        core_cols: usize,
        /// Best lower bound proven so far.
        lower_bound: f64,
        /// Cost of `incumbent` (`+∞` when none exists yet).
        incumbent_cost: f64,
        /// Wall-clock seconds consumed by the solve so far.
        elapsed_seconds: f64,
        /// Lagrangian multipliers, one per core row.
        lambda: Vec<f64>,
        /// Best cover found so far, column indices in core space.
        incumbent: Option<Vec<u32>>,
        /// `true` when the state belongs to the constrained
        /// (multicover) path rather than the unate core path.
        multicover: bool,
    },
}

impl Event {
    /// Stable event-type tag used in JSONL traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::PhaseBegin { .. } => "phase_begin",
            Event::PhaseEnd { .. } => "phase_end",
            Event::SubgradientIter { .. } => "subgradient_iter",
            Event::PenaltyElim { .. } => "penalty_elim",
            Event::ColumnFix { .. } => "column_fix",
            Event::RestartBegin { .. } => "restart_begin",
            Event::RestartEnd { .. } => "restart_end",
            Event::Checkpoint { .. } => "checkpoint",
        }
    }

    /// Appends this event's payload fields to a JSON object under
    /// construction (the sink has already written `schema`/`t`/`event`).
    pub fn write_fields(&self, obj: &mut JsonObj) {
        match self {
            Event::PhaseBegin { phase } => {
                obj.field_str("phase", phase.name());
            }
            Event::PhaseEnd { phase, seconds } => {
                obj.field_str("phase", phase.name());
                obj.field_f64("seconds", *seconds);
            }
            Event::SubgradientIter {
                iter,
                z_lambda,
                lb,
                ub,
                step,
                violation_norm2,
            } => {
                obj.field_u64("iter", *iter as u64);
                obj.field_f64("z_lambda", *z_lambda);
                obj.field_f64("lb", *lb);
                obj.field_f64("ub", *ub);
                obj.field_f64("step", *step);
                obj.field_f64("violation_norm2", *violation_norm2);
            }
            Event::PenaltyElim { kind, removed } => {
                obj.field_str("kind", kind.name());
                obj.field_u64("removed", *removed as u64);
            }
            Event::ColumnFix {
                col,
                sigma,
                mu,
                reason,
            } => {
                obj.field_u64("col", *col as u64);
                obj.field_f64("sigma", *sigma);
                obj.field_f64("mu", *mu);
                obj.field_str("reason", reason.name());
            }
            Event::RestartBegin { run, worker } => {
                obj.field_u64("run", *run as u64);
                obj.field_u64("worker", *worker as u64);
            }
            Event::RestartEnd {
                run,
                worker,
                cost,
                best_cost,
            } => {
                obj.field_u64("run", *run as u64);
                obj.field_u64("worker", *worker as u64);
                obj.field_f64("cost", *cost);
                obj.field_f64("best_cost", *best_cost);
            }
            Event::Checkpoint {
                next_run,
                core_rows,
                core_cols,
                lower_bound,
                incumbent_cost,
                elapsed_seconds,
                lambda,
                incumbent,
                multicover,
            } => {
                obj.field_u64("next_run", *next_run as u64);
                obj.field_u64("core_rows", *core_rows as u64);
                obj.field_u64("core_cols", *core_cols as u64);
                obj.field_f64("lower_bound", *lower_bound);
                obj.field_f64("incumbent_cost", *incumbent_cost);
                obj.field_f64("elapsed_seconds", *elapsed_seconds);
                obj.field_raw("lambda", &crate::json::f64_array(lambda));
                if let Some(cols) = incumbent {
                    let cols: Vec<u64> = cols.iter().map(|&c| u64::from(c)).collect();
                    obj.field_raw("incumbent", &crate::json::u64_array(&cols));
                }
                obj.field_bool("multicover", *multicover);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let events = [
            Event::PhaseBegin {
                phase: Phase::Subgradient,
            },
            Event::PhaseEnd {
                phase: Phase::Subgradient,
                seconds: 0.0,
            },
            Event::SubgradientIter {
                iter: 0,
                z_lambda: 0.0,
                lb: 0.0,
                ub: 0.0,
                step: 0.0,
                violation_norm2: 0.0,
            },
            Event::PenaltyElim {
                kind: PenaltyKind::Lagrangian,
                removed: 0,
            },
            Event::ColumnFix {
                col: 0,
                sigma: 0.0,
                mu: 0.0,
                reason: FixReason::RatedPick,
            },
            Event::RestartBegin { run: 0, worker: 0 },
            Event::RestartEnd {
                run: 0,
                worker: 0,
                cost: 0.0,
                best_cost: 0.0,
            },
            Event::Checkpoint {
                next_run: 1,
                core_rows: 0,
                core_cols: 0,
                lower_bound: 0.0,
                incumbent_cost: 0.0,
                elapsed_seconds: 0.0,
                lambda: Vec::new(),
                incumbent: None,
                multicover: false,
            },
        ];
        let mut kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len());
    }
}
