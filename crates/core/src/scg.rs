//! The `ZDD_SCG` constructive driver (Fig. 2 of the paper).
//!
//! One driver solves every constraint kind: it sets up one halt
//! condition, runs the kind's core stage, and shares the checkpoint
//! resume filter, the checkpoint emitter and the postprocess phase.
//! Unate covering is the `b ≡ 1`, no-GUB case of set multicover; only its
//! core stage differs. A set-multicover/GUB solve skips the reductions
//! (they are theorems about `b ≡ 1` covers) and runs a chain of
//! generalized ascents from jittered multipliers on the whole instance.
//!
//! A unate solve runs in two stages. The *reduce* stage — the duplicate-row
//! merge and the explicit reductions to the cyclic core, partitioning, and
//! the initial subgradient ascent — is deterministic and runs exactly once
//! per solve. The *restarts*
//! stage then executes the `NumIter` constructive runs, each repeatedly
//! *fixing* columns — the provably-optimal ones from penalty tests, the
//! "promising" ones from the §3.7 thresholds, and always one best-rated
//! column by `σ_j = c̃_j − α·μ_j` (randomised among the top `BestCol` in
//! the restarts) — then re-reducing and re-running the subgradient, until
//! the residual matrix empties or the local bound proves no improvement is
//! possible. Finally redundant columns are stripped.
//!
//! The restarts stage runs restarts (or disconnected partition blocks) on
//! a scoped thread pool sized by [`ScgOptions::workers`] — by default,
//! on the cores no other solve is using. See [`crate::restart`] for the
//! scheduler and its determinism contract: the answer is identical for
//! every worker count.

use crate::checkpoint::SolverCheckpoint;
use crate::dual::dual_ascent;
use crate::greedy::MulticoverCtx;
use crate::penalty::{dual_penalties, lagrangian_penalties};
use crate::request::{CancelFlag, SolveError};
#[cfg(test)]
use crate::request::{Preset, SolveRequest};
use crate::restart::{
    restart_seed, run_in_order, CertifiedAt, CoreBudget, Incumbent, RestartCtx, Share,
};
use crate::subgradient::{
    ascent_impl, certified, lb_ceil_of, SubgradientOptions, SubgradientResult,
};
use cover::{
    cyclic_core_halted, Constraints, CoreResult, CoverMatrix, Halt, HaltReason, Reducer, Solution,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::{Duration, Instant};
use ucp_telemetry::{Event, FixReason, PenaltyKind, Phase, PhaseTimes, Probe};

/// All tunables of the `ZDD_SCG` solver. Field defaults are the paper's
/// published values where given.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScgOptions {
    /// Subgradient-phase tunables.
    pub subgradient: SubgradientOptions,
    /// `NumIter`: number of constructive runs (first deterministic, rest
    /// randomised).
    pub num_iter: usize,
    /// `BestCol` for restart `k` (1-based, `k ≥ 2`) is
    /// `min(1 + (k − 1) · best_col_growth, 16)`.
    pub best_col_growth: usize,
    /// `α` in the rating `σ_j = c̃_j − α·μ_j` (paper: 2).
    pub alpha: f64,
    /// `ĉ`: fix columns with Lagrangian cost at most this (paper: 0.001)…
    pub fix_cost_threshold: f64,
    /// …and dual-Lagrangian multiplier at least this (`μ̂`, paper: 0.999).
    pub fix_mu_threshold: f64,
    /// `DualPen`: run dual penalties only when the matrix has at most this
    /// many columns (paper: 100).
    pub dual_pen_limit: usize,
    /// RNG seed for the stochastic restarts. Each restart draws its own
    /// generator seed via [`restart_seed`], so the restart set — and
    /// therefore the answer — does not depend on scheduling.
    pub seed: u64,
    /// Optional overall wall-clock budget, shared by the whole solve: one
    /// deadline spans all partition blocks and all restarts. Once it
    /// passes, no further constructive work starts and in-flight runs
    /// abort at their next round boundary.
    pub time_limit: Option<std::time::Duration>,
    /// Apply the partitioning reduction (§2): disconnected blocks of the
    /// cyclic core are solved independently and their bounds added.
    pub partition: bool,
    /// Worker threads for the restarts stage: the constructive runs of a
    /// connected core, or the blocks of a partitioned one. `0` (the
    /// default) means "idle cores": the calling thread plus one helper
    /// per core that no running solve or pool holds, so a solve alone on
    /// the machine uses every core and one among busy solves runs inline.
    /// An explicit `N` pools exactly `min(N, tasks pending)` — no size
    /// cutoff — so `1` solves inline on the calling thread. The answer is
    /// the same for every value — see [`crate::restart`].
    pub workers: usize,
    /// Emit an [`Event::Checkpoint`] (resumable solver state) after the
    /// initial subgradient ascent and after every `checkpoint_every`-th
    /// run of the core stage: a constructive run for unate solves, a
    /// jittered ascent for multicover ones. One emitter serves both kinds
    /// and stamps the checkpoint with the kind. `0` (the default)
    /// disables emission entirely — the solve is bit-identical to one
    /// without the field. Pooled and inline restarts emit the same
    /// checkpoints: the one after run `k` waits for runs up to `k` and
    /// carries their best. Only partition blocks skip checkpoints.
    pub checkpoint_every: usize,
}

impl Default for ScgOptions {
    fn default() -> Self {
        ScgOptions {
            subgradient: SubgradientOptions::default(),
            num_iter: 4,
            best_col_growth: 1,
            alpha: 2.0,
            fix_cost_threshold: 1e-3,
            fix_mu_threshold: 0.999,
            dual_pen_limit: 100,
            seed: 0xDA7E_2000,
            time_limit: None,
            partition: true,
            workers: 0,
            checkpoint_every: 0,
        }
    }
}

/// The result of a [`Scg::run`](crate::Scg::run) call.
#[derive(Clone, Debug)]
pub struct ScgOutcome {
    /// Best cover found, in original column indices.
    pub solution: Solution,
    /// Its cost (`+∞` when `infeasible`).
    pub cost: f64,
    /// Global lower bound: fixed-column cost plus the core's Lagrangian
    /// bound (rounded up under integer costs).
    pub lower_bound: f64,
    /// `true` when `cost == lower_bound` — the solution is certified optimal.
    pub proven_optimal: bool,
    /// `true` when some row cannot be covered at all.
    pub infeasible: bool,
    /// Constructive runs actually executed (`MaxIter` column of Tables 3–4).
    pub iterations: usize,
    /// Total subgradient iterations across all phases and workers.
    pub subgradient_iterations: usize,
    /// Pool size the restarts stage ran on: `min(workers, tasks pending)`
    /// for an explicit `workers`, and for `0` the calling thread plus the
    /// cores that were idle when the stage started (at most one per
    /// pending task). The tasks are the constructive runs still to go, or
    /// the blocks of a partitioned core. `1` means the stage ran inline:
    /// requested serially, no idle core, one task left, or the solve
    /// finished before any restart.
    pub restart_workers: usize,
    /// Cyclic-core computation time (`CC(s)` column of Tables 1–2).
    pub cc_time: Duration,
    /// End-to-end solve time (`T(s)` column).
    pub total_time: Duration,
    /// Cyclic-core dimensions after all reductions.
    pub core_rows: usize,
    /// See [`ScgOutcome::core_rows`].
    pub core_cols: usize,
    /// Per-phase wall-clock breakdown. A pooled task's seconds are
    /// rescaled to its share of the calling thread's clock (see
    /// [`crate::restart`]), so for every pool size `phase_times.total()`
    /// closely tracks `total_time`, and the `PhaseEnd` events of a trace
    /// add up to the same numbers.
    pub phase_times: PhaseTimes,
    /// ZDD manager counters of the solve. The reductions build no ZDD,
    /// so these are always zero; the field stays for callers that
    /// aggregate them next to the prime generator's counters.
    pub zdd_stats: cover::ZddStats,
    /// Telemetry events the request's trace sink failed to persist (0
    /// for in-memory probes and unprobed solves). Filled by
    /// [`Scg::run`](crate::Scg::run) from the probe after the solve.
    pub dropped_events: u64,
    /// Constructive runs (ascents, for multicover solves) *skipped*
    /// because the request resumed from a [`crate::SolverCheckpoint`]
    /// that already accounted for them. `0` for cold solves and for
    /// requests whose checkpoint failed validation (those re-run from
    /// scratch).
    pub resumed: usize,
}

impl ScgOutcome {
    /// The relative optimality gap `(cost − LB) / LB` (0 when certified;
    /// `NaN` for infeasible outcomes).
    pub fn gap(&self) -> f64 {
        if self.infeasible {
            f64::NAN
        } else if self.lower_bound <= 0.0 {
            0.0
        } else {
            (self.cost - self.lower_bound).max(0.0) / self.lower_bound
        }
    }
}

/// The `ZDD_SCG` solver.
///
/// # Example
///
/// ```
/// use cover::CoverMatrix;
/// use ucp_core::{Scg, SolveRequest};
///
/// let m = CoverMatrix::from_rows(
///     5,
///     vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
/// );
/// let out = Scg::run(SolveRequest::for_matrix(&m)).unwrap();
/// assert_eq!(out.cost, 3.0);
/// assert!(out.proven_optimal);
/// ```
#[derive(Clone, Debug)]
pub struct Scg {
    opts: ScgOptions,
}

/// What one constructive run spent and produced.
struct RunReport {
    /// Subgradient iterations executed by the run's nested ascents.
    sub_iters: usize,
    /// Wall-clock seconds of those ascents (credited to the subgradient
    /// phase in the breakdown, not to the constructive phase).
    sub_seconds: f64,
    /// Best complete cover the run produced (cost `+∞` if it aborted
    /// without completing one). Its cost doubles as the run's own pruning
    /// bound.
    best: Incumbent,
}

/// What the restarts stage of one core solve spent.
#[derive(Default)]
struct RestartsResult {
    /// Restarts actually executed.
    iterations: usize,
    sub_iters: usize,
    /// The runs' ascent seconds, each rescaled to its run's wall-clock
    /// share.
    sub_seconds: f64,
}

impl RestartsResult {
    fn absorb(&mut self, report: &RunReport, share: Share) {
        self.iterations += 1;
        self.sub_iters += report.sub_iters;
        self.sub_seconds += share.scale(report.sub_seconds);
    }
}

/// The search effort an outcome reports.
struct Effort {
    /// Constructive runs (ascents, for multicover solves) executed.
    iterations: usize,
    sub_iters: usize,
    /// Pool size of the restarts stage (`1` when it ran inline or not at
    /// all).
    workers: usize,
    /// Runs skipped because a checkpoint accounted for them.
    resumed: usize,
}

/// Everything a core stage learned about the matrix it solved: one
/// connected cyclic core, or a whole multicover instance.
struct CoreOutcome {
    /// Best cover of that matrix found (`None` only if no ascent
    /// produced a heuristic cover).
    solution: Option<Solution>,
    /// Its lower bound (rounded up under integer costs).
    lb: f64,
    effort: Effort,
    sub_seconds: f64,
    constructive_seconds: f64,
}

/// Checkpoint context for the core stage of an unpartitioned solve:
/// emission cadence, the solve's start instant (checkpoints carry
/// elapsed wall clock), the constraint kind and a validated checkpoint
/// to resume from.
///
/// Partition blocks pass `None` and neither emit nor resume, keeping the
/// checkpoint's core fingerprint unambiguous.
struct CkptCtx<'c> {
    /// Emit after every `every`-th run (`0` = never).
    every: usize,
    /// When the solve started (for `elapsed_seconds`).
    start: Instant,
    /// `true` for the multicover core stage.
    multicover: bool,
    /// Validated checkpoint whose runs are already accounted for.
    resume: Option<&'c SolverCheckpoint>,
}

impl CkptCtx<'_> {
    /// Emits one [`Event::Checkpoint`] snapshot of the core stage's
    /// state on `ae`, the matrix it solves. Callers gate on the cadence;
    /// this only assembles the payload.
    fn emit<P: Probe>(
        &self,
        ae: &CoverMatrix,
        core_lb: f64,
        best: &Incumbent,
        next_run: usize,
        lambda: &[f64],
        probe: &mut P,
    ) {
        probe.record(Event::Checkpoint {
            next_run,
            core_rows: ae.num_rows(),
            core_cols: ae.num_cols(),
            lower_bound: core_lb,
            incumbent_cost: best.cost,
            elapsed_seconds: self.start.elapsed().as_secs_f64(),
            lambda: lambda.to_vec(),
            incumbent: best
                .solution
                .as_ref()
                .map(|s| s.cols().iter().map(|&c| c as u32).collect()),
            multicover: self.multicover,
        });
    }
}

impl Scg {
    /// Creates a solver with the given options.
    pub fn new(opts: ScgOptions) -> Self {
        Scg { opts }
    }

    /// The solve pipeline behind [`Scg::run`], for every constraint
    /// kind: one [`Halt`] (deadline + cancellation) spanning everything,
    /// the kind's core stage, then one postprocess. Only the core stage
    /// differs by kind. A unate solve reduces once, partitions and runs
    /// [`Scg::solve_core`] on the cyclic core; a multicover solve runs
    /// [`Scg::multicover_core`] on the whole instance. The resume filter,
    /// the checkpoint emitter and the outcome are shared.
    pub(crate) fn solve_impl<P: Probe>(
        &self,
        m: &CoverMatrix,
        cons: &Constraints,
        cancel: Option<&CancelFlag>,
        resume: Option<&SolverCheckpoint>,
        probe: &mut P,
    ) -> Result<ScgOutcome, SolveError> {
        let start = Instant::now();
        // One halt condition for the whole solve: every block and every
        // restart races the same clock and watches the same cancel flag.
        // The reductions poll it between their passes, so a deadline or
        // cancellation lands mid-phase.
        let halt = Halt {
            deadline: self.opts.time_limit.map(|budget| start + budget),
            cancel: cancel.cloned(),
        };
        let multicover = !cons.is_unate();
        let mut phases = PhaseTimes::default();
        // Each phase runs from the instant the previous one ended (see
        // `lap`), so the phases tile the solve.
        let mut clock = start;

        // ---- Reduce stage: reductions to the cyclic core (run once). ----
        // Essential-column, dominance and partitioning rules (and the
        // penalty-driven fixing built on them) are theorems about `b ≡ 1`
        // covers, so a multicover solve skips the stage and works on the
        // whole instance.
        let reduced = if multicover {
            if let Some(reason) = halt.check() {
                return Err(halted(reason));
            }
            None
        } else {
            let core_res = cyclic_core_halted(m, &halt, &mut *probe).map_err(halted)?;
            // The core computation times itself; the next phase starts
            // where its clock stopped.
            clock += core_res.cc_time;
            phases.add(
                Phase::ImplicitReduction,
                core_res.implicit_time.as_secs_f64(),
            );
            phases.add(
                Phase::ExplicitReduction,
                core_res.explicit_time.as_secs_f64(),
            );
            if core_res.infeasible {
                return Ok(ScgOutcome {
                    solution: Solution::new(),
                    cost: f64::INFINITY,
                    lower_bound: f64::INFINITY,
                    proven_optimal: false,
                    infeasible: true,
                    iterations: 0,
                    subgradient_iterations: 0,
                    restart_workers: 1,
                    cc_time: core_res.cc_time,
                    total_time: start.elapsed(),
                    core_rows: core_res.core.num_rows(),
                    core_cols: core_res.core.num_cols(),
                    phase_times: phases,
                    zdd_stats: cover::ZddStats::default(),
                    dropped_events: 0,
                    resumed: 0,
                });
            }
            if core_res.is_solved() {
                let fixed_cost: f64 = core_res.fixed_cols.iter().map(|&j| m.cost(j)).sum();
                return Ok(ScgOutcome {
                    solution: Solution::from_cols(core_res.fixed_cols.clone()),
                    cost: fixed_cost,
                    lower_bound: fixed_cost,
                    proven_optimal: true,
                    infeasible: false,
                    iterations: 0,
                    subgradient_iterations: 0,
                    restart_workers: 1,
                    cc_time: core_res.cc_time,
                    total_time: start.elapsed(),
                    core_rows: 0,
                    core_cols: 0,
                    phase_times: phases,
                    zdd_stats: cover::ZddStats::default(),
                    dropped_events: 0,
                    resumed: 0,
                });
            }

            // ---- Partitioning (§2): independent blocks solve independently. ----
            if self.opts.partition {
                probe.record(Event::PhaseBegin {
                    phase: Phase::Partition,
                });
                let blocks = cover::partition(&core_res.core);
                let partition_time = lap(&mut clock);
                phases.add(Phase::Partition, partition_time);
                probe.record(Event::PhaseEnd {
                    phase: Phase::Partition,
                    seconds: partition_time,
                });
                if blocks.len() > 1 {
                    return Ok(self.solve_blocks(m, &core_res, blocks, start, &halt, phases, probe));
                }
            }
            Some(core_res)
        };
        let core = reduced.as_ref().map_or(m, |r| &r.core);

        // ---- Core stage on the single connected core. ----
        // A checkpoint resumes only when it was taken on the same kind of
        // solve and the deterministic reductions reproduced the exact
        // matrix it was taken on; anything else (or a partitioned
        // checkpoint) re-runs from scratch, which is always correct —
        // just slower.
        let resume = resume.filter(|ck| {
            ck.matches(m, multicover)
                && ck.core_rows == core.num_rows()
                && ck.core_cols == core.num_cols()
                && ck.lambda.len() == core.num_rows()
                && ck.next_run >= 1
        });
        let ckpt = CkptCtx {
            every: self.opts.checkpoint_every,
            start,
            multicover,
            resume,
        };
        let co = if multicover {
            let mctx = MulticoverCtx::new(m, cons);
            self.multicover_core(m, &mctx, &halt, &ckpt, &mut clock, &mut *probe)
        } else {
            self.solve_core(
                core,
                m.integer_costs(),
                &halt,
                0,
                self.opts.workers,
                Some(&ckpt),
                &mut clock,
                &mut *probe,
            )
        };
        phases.add(Phase::Subgradient, co.sub_seconds);
        phases.add(Phase::Constructive, co.constructive_seconds);
        let (solution, lower_bound) = match &reduced {
            Some(r) => {
                let fixed_cost: f64 = r.fixed_cols.iter().map(|&j| m.cost(j)).sum();
                let solution = match co.solution {
                    Some(core_sol) => core_sol.lift(&r.col_map, &r.fixed_cols),
                    None => Solution::from_cols(r.fixed_cols.clone()),
                };
                (Some(solution), fixed_cost + co.lb.max(0.0))
            }
            None => (co.solution, co.lb),
        };
        debug_assert!(solution.as_ref().is_none_or(|s| cons.is_satisfied(m, s)));
        Ok(postprocess(
            m,
            reduced.as_ref(),
            solution,
            lower_bound,
            co.effort,
            start,
            clock,
            phases,
            probe,
        ))
    }

    /// The multicover core stage on the whole instance `m`, under the
    /// constraint context `mctx` built once per solve: one generalized
    /// two-sided ascent, then up to `NumIter − 1` ascents from jittered
    /// multipliers sharing the incumbent — the role the randomised
    /// constructive runs play for unate solves. It checkpoints after
    /// every `every`-th ascent; the checkpoint restores the loop's whole
    /// state (best bound, multipliers and cover), so a resumed solve
    /// continues as if never interrupted.
    ///
    /// The lower bound relaxes the group bounds (valid: dropping an
    /// at-most constraint can only lower the optimum), so the integer
    /// certificate keeps its meaning and `proven_optimal` stays honest.
    /// When no ascent finds a cover satisfying the constraints (the
    /// greedy can paint itself into a saturated group on a feasible
    /// instance), the outcome reports `cost = +∞` with an empty solution
    /// and `infeasible: false` — unlike the unate path, "no cover found"
    /// is not a proof of infeasibility here.
    fn multicover_core<P: Probe>(
        &self,
        m: &CoverMatrix,
        mctx: &MulticoverCtx,
        halt: &Halt,
        ckpt: &CkptCtx,
        clock: &mut Instant,
        probe: &mut P,
    ) -> CoreOutcome {
        let integer_costs = m.integer_costs();
        // The constrained greedy is the only place these ascents find a
        // cover, so they keep a pass every iteration (period 0 stays off):
        // sparser passes leave feasible crew instances without a cover
        // until a repair step for saturated GUB groups lands (ROADMAP,
        // "Multicover never comes back empty").
        let sub_opts = SubgradientOptions {
            heuristic_period: self.opts.subgradient.heuristic_period.min(1),
            ..self.opts.subgradient
        };
        probe.record(Event::PhaseBegin {
            phase: Phase::Subgradient,
        });
        let (mut sub_iters, mut best_lb, mut best_lambda, mut best, first_k);
        if let Some(ck) = ckpt.resume {
            sub_iters = 0;
            best_lb = ck.lower_bound;
            best_lambda = ck.lambda.clone();
            best = Incumbent {
                cost: ck.incumbent_cost,
                solution: ck
                    .incumbent
                    .as_ref()
                    .map(|cols| Solution::from_cols(cols.clone())),
            };
            first_k = ck.next_run.clamp(1, self.opts.num_iter.max(1));
        } else {
            // Initial ascent: occurrence heuristic on, like the unate
            // initial problem (§3.5 applies rule 4 to the initial problem
            // only).
            let initial_opts = SubgradientOptions {
                occurrence_heuristic: true,
                ..sub_opts
            };
            let res = ascent_impl(m, &initial_opts, None, None, Some(mctx), probe);
            sub_iters = res.iterations;
            best_lb = res.lb;
            best_lambda = res.lambda;
            best = Incumbent {
                cost: res.best_cost,
                solution: res.best_solution,
            };
            first_k = 1;
        }
        let resumed = if ckpt.resume.is_some() { first_k } else { 0 };
        if ckpt.every > 0 {
            ckpt.emit(m, best_lb, &best, first_k, &best_lambda, probe);
        }

        let mut iterations = first_k;
        for k in first_k..self.opts.num_iter.max(1) {
            if halt.check().is_some() || certified(integer_costs, best_lb, best.cost) {
                break;
            }
            // Jitter the best multipliers by ±20% — enough to land the
            // ascent in a different greedy trajectory, small enough to
            // keep the warm start useful. Deterministic per (seed, k),
            // like the unate restart schedule.
            let mut rng = StdRng::seed_from_u64(restart_seed(self.opts.seed, k));
            let lambda0: Vec<f64> = best_lambda
                .iter()
                .map(|&l| l * rng.random_range(0.8..1.2))
                .collect();
            let ub_hint = best.cost.is_finite().then_some(best.cost);
            let r = ascent_impl(m, &sub_opts, Some(&lambda0), ub_hint, Some(mctx), probe);
            sub_iters += r.iterations;
            iterations = k + 1;
            if r.lb > best_lb {
                best_lb = r.lb;
                best_lambda = r.lambda;
            }
            best.merge(Incumbent {
                cost: r.best_cost,
                solution: r.best_solution,
            });
            if ckpt.every > 0 && k % ckpt.every == 0 {
                ckpt.emit(m, best_lb, &best, k + 1, &best_lambda, probe);
            }
        }
        let sub_seconds = lap(clock);
        probe.record(Event::PhaseEnd {
            phase: Phase::Subgradient,
            seconds: sub_seconds,
        });

        CoreOutcome {
            solution: best.solution,
            // Same rounding as the unate core: integer costs admit ⌈LB⌉.
            lb: if integer_costs && best_lb.is_finite() {
                lb_ceil_of(best_lb).max(0.0)
            } else {
                best_lb.max(0.0)
            },
            effort: Effort {
                iterations,
                sub_iters,
                workers: 1,
                resumed,
            },
            sub_seconds,
            constructive_seconds: 0.0,
        }
    }

    /// Solves the disconnected blocks of an already-reduced cyclic core
    /// and recombines.
    ///
    /// Blocks of a matrix at the reduction fixpoint are themselves at the
    /// fixpoint (no reduction rule crosses disjoint components), so each
    /// block goes straight to its ascent + restarts — the cyclic core is
    /// computed exactly once per solve and the ZDD counters describe that
    /// single computation. The blocks are the scheduled tasks (restarts
    /// inside each block then run inline), merged in block order; a pooled
    /// block's stage seconds are rescaled to its wall-clock share.
    #[allow(clippy::too_many_arguments)]
    fn solve_blocks<P: Probe>(
        &self,
        m: &CoverMatrix,
        core_res: &CoreResult,
        blocks: Vec<cover::Block>,
        start: Instant,
        halt: &Halt,
        mut phases: PhaseTimes,
        probe: &mut P,
    ) -> ScgOutcome {
        let fixed_cost: f64 = core_res.fixed_cols.iter().map(|&j| m.cost(j)).sum();
        let mut solution = Solution::from_cols(core_res.fixed_cols.clone());
        let mut lower_bound = fixed_cost;
        let mut iterations = 0usize;
        let mut sub_iters = 0usize;
        let mut outcomes = Vec::with_capacity(blocks.len());
        let workers = run_in_order(
            self.opts.workers,
            CoreBudget::global(),
            0..blocks.len(),
            probe,
            |b, worker, probe| {
                let block = &blocks[b].matrix;
                let mut clock = Instant::now();
                Some(self.solve_core(
                    block,
                    block.integer_costs(),
                    halt,
                    worker,
                    1,
                    None,
                    &mut clock,
                    probe,
                ))
            },
            |_, mut co: CoreOutcome, events, share, probe| {
                for event in events {
                    probe.record(event);
                }
                co.sub_seconds = share.scale(co.sub_seconds);
                co.constructive_seconds = share.scale(co.constructive_seconds);
                outcomes.push(co);
                true
            },
        );
        // The recombination below is postprocess work.
        let post_start = Instant::now();

        for (block, co) in blocks.iter().zip(&outcomes) {
            phases.add(Phase::Subgradient, co.sub_seconds);
            phases.add(Phase::Constructive, co.constructive_seconds);
            sub_iters += co.effort.sub_iters;
            iterations = iterations.max(co.effort.iterations);
            lower_bound += co.lb.max(0.0);
            if let Some(sol) = &co.solution {
                solution.extend(
                    sol.cols()
                        .iter()
                        .map(|&j| core_res.col_map[block.col_map[j]]),
                );
            }
        }
        let effort = Effort {
            iterations,
            sub_iters,
            workers,
            resumed: 0,
        };
        postprocess(
            m,
            Some(core_res),
            Some(solution),
            lower_bound,
            effort,
            start,
            post_start,
            phases,
            probe,
        )
    }

    /// Restarts stage for one connected, fully-reduced core: the initial
    /// subgradient ascent (run once) followed by the `NumIter` restarts on
    /// a pool sized by `workers` (see [`ScgOptions::workers`]).
    ///
    /// `worker_tag` is added to the pool slot in this core's restart
    /// events (a partition block passes the slot it runs on).
    #[allow(clippy::too_many_arguments)]
    fn solve_core<P: Probe>(
        &self,
        ae: &CoverMatrix,
        integer_costs: bool,
        halt: &Halt,
        worker_tag: usize,
        workers: usize,
        ckpt: Option<&CkptCtx>,
        clock: &mut Instant,
        probe: &mut P,
    ) -> CoreOutcome {
        // ---- Initial subgradient ascent (deterministic, run once). ----
        let mut sub_opts = self.opts.subgradient;
        sub_opts.occurrence_heuristic = true;
        probe.record(Event::PhaseBegin {
            phase: Phase::Subgradient,
        });
        let sub0 = ascent_impl(ae, &sub_opts, None, None, None, &mut *probe);
        let sub_time = lap(clock);
        probe.record(Event::PhaseEnd {
            phase: Phase::Subgradient,
            seconds: sub_time,
        });

        let core_lb = if integer_costs {
            sub0.lb_ceil()
        } else {
            sub0.lb
        };
        let mut best = Incumbent::new();
        let mut base_ub = f64::INFINITY;
        if let Some(sol) = sub0.best_solution.clone() {
            // Offered first, so every restart loses ties against it.
            // `offer` returns the *offered* cover's irredundant cost, so
            // base_ub stays the initial ascent's value even when a resumed
            // checkpoint inserts a better incumbent below — the restarts'
            // deterministic pruning bound must not depend on how often
            // the solve was interrupted.
            base_ub = best.offer(ae, sol);
        }
        let mut first_run = 1usize;
        let mut resumed = 0usize;
        if let Some(ck) = ckpt.and_then(|c| c.resume) {
            if let Some(cols) = &ck.incumbent {
                // Also ahead of every remaining run: ties against them
                // resolve exactly as if this cover predated all of them —
                // which it does.
                best.offer(ae, Solution::from_cols(cols.clone()));
            }
            first_run = ck.next_run.clamp(1, self.opts.num_iter + 1);
            resumed = first_run - 1;
        }
        if let Some(c) = ckpt.filter(|c| c.every > 0) {
            c.emit(ae, core_lb, &best, first_run, &sub0.lambda, probe);
        }

        let mut restarts = RestartsResult::default();
        let mut pool = 1;
        let mut constructive_seconds = 0.0;
        // A cover at the bound floor cannot be improved: skip the restarts.
        if base_ub > core_lb + 1e-9 {
            probe.record(Event::PhaseBegin {
                phase: Phase::Constructive,
            });
            pool = self.run_restarts(
                ae,
                &sub0,
                core_lb,
                base_ub,
                first_run..self.opts.num_iter + 1,
                halt,
                worker_tag,
                workers,
                ckpt,
                &mut best,
                &mut restarts,
                probe,
            );
            // The stage's wall clock net of the runs' ascents: the
            // incumbent set-up above, the constructive work, the in-order
            // hand-backs (merging, trace replay, checkpoints) and, when
            // pooled, spawn and join.
            constructive_seconds = (lap(clock) - restarts.sub_seconds).max(0.0);
            probe.record(Event::PhaseEnd {
                phase: Phase::Constructive,
                seconds: constructive_seconds,
            });
        }

        CoreOutcome {
            solution: best.solution,
            lb: core_lb,
            effort: Effort {
                iterations: restarts.iterations,
                sub_iters: sub0.iterations + restarts.sub_iters,
                workers: pool,
                resumed,
            },
            sub_seconds: sub_time + restarts.sub_seconds,
            constructive_seconds,
        }
    }

    /// Schedules the constructive `runs` on [`run_in_order`] and merges
    /// them in run order into `best` and `result`; returns the pool size.
    /// Restart `k` runs with the seed `restart_seed(opts.seed, k)` and the
    /// deterministic pruning bound described in [`crate::restart`], so
    /// every pool size sees the same runs. The first run that does not
    /// start (the solve halted, or a lower run certified) or that a lower
    /// run's certificate supersedes ends the stage, as it would end an
    /// inline loop.
    #[allow(clippy::too_many_arguments)]
    fn run_restarts<P: Probe>(
        &self,
        ae: &CoverMatrix,
        sub0: &SubgradientResult,
        core_lb: f64,
        base_ub: f64,
        runs: std::ops::Range<usize>,
        halt: &Halt,
        worker_tag: usize,
        workers: usize,
        ckpt: Option<&CkptCtx>,
        best: &mut Incumbent,
        result: &mut RestartsResult,
        probe: &mut P,
    ) -> usize {
        let certified = CertifiedAt::new();
        run_in_order(
            workers,
            CoreBudget::global(),
            runs,
            probe,
            |run, worker, probe| {
                if halt.reached() || certified.superseded(run) {
                    return None;
                }
                let worker = worker_tag + worker;
                probe.record(Event::RestartBegin { run, worker });
                let report =
                    self.restart_run(ae, sub0, run, core_lb, base_ub, halt, &certified, probe);
                Some((report, worker))
            },
            |run, (report, worker), events, share, probe| {
                if certified.superseded(run) {
                    return false;
                }
                for event in events {
                    probe.record(event);
                }
                result.absorb(&report, share);
                let cost = report.best.cost;
                best.merge(report.best);
                if probe.enabled() {
                    probe.record(Event::RestartEnd {
                        run,
                        worker,
                        cost,
                        best_cost: best.cost,
                    });
                }
                if let Some(c) = ckpt.filter(|c| c.every > 0 && run % c.every == 0) {
                    c.emit(ae, core_lb, best, run + 1, &sub0.lambda, probe);
                }
                true
            },
        )
    }

    /// Runs constructive restart `run` (1-based) with its derived seed and
    /// `BestCol` width.
    #[allow(clippy::too_many_arguments)]
    fn restart_run<P: Probe>(
        &self,
        ae: &CoverMatrix,
        sub0: &SubgradientResult,
        run: usize,
        core_lb: f64,
        base_ub: f64,
        halt: &Halt,
        certified: &CertifiedAt,
        probe: &mut P,
    ) -> RunReport {
        let best_col = if run == 1 {
            1
        } else {
            (1 + (run - 1) * self.opts.best_col_growth).min(16)
        };
        let mut rng = StdRng::seed_from_u64(restart_seed(self.opts.seed, run));
        let ctx = RestartCtx {
            certified,
            restart: run,
            base_ub,
            core_lb,
            halt,
        };
        self.constructive_run(ae, sub0, best_col, &mut rng, &ctx, probe)
    }

    /// One constructive run over the saved cyclic core `ae`. Reports the
    /// subgradient effort spent and the best cover this run produced.
    fn constructive_run<P: Probe>(
        &self,
        ae: &CoverMatrix,
        sub0: &SubgradientResult,
        best_col: usize,
        rng: &mut StdRng,
        ctx: &RestartCtx<'_>,
        probe: &mut P,
    ) -> RunReport {
        let mut cur = ae.clone();
        // cur column j corresponds to core column cur_to_core[j].
        let mut cur_to_core: Vec<usize> = (0..ae.num_cols()).collect();
        let mut chosen: Vec<usize> = Vec::new(); // core ids
        let mut chosen_cost = 0.0f64;
        let mut lambda = sub0.lambda.clone();
        let mut sub: SubgradientResult = sub0.clone();
        let mut report = RunReport {
            sub_iters: 0,
            sub_seconds: 0.0,
            best: Incumbent::new(),
        };
        let max_rounds = ae.num_cols() + 2;

        for _round in 0..max_rounds {
            // A sibling certified at the bound floor, or the deadline
            // passed: this run's offers can no longer matter.
            if ctx.should_abort() {
                return report;
            }
            // The pruning bound is deterministic — the initial incumbent
            // and this run's own offers, never a sibling's (see
            // crate::restart for why that distinction is load-bearing).
            let local_ub = ctx.path_ub(report.best.cost) - chosen_cost;
            // This branch cannot beat the bound: stop (the pseudocode's
            // `z_best ≤ ⌈LB⌉` exit).
            if sub.lb >= local_ub - 1e-9 {
                return report;
            }

            // §3.7 promising columns + §3.6 penalties.
            let mut take: Vec<usize> = (0..cur.num_cols())
                .filter(|&j| {
                    sub.c_tilde[j] <= self.opts.fix_cost_threshold
                        && sub.mu[j] >= self.opts.fix_mu_threshold
                })
                .collect();
            // Columns whose fixes were already announced to the probe, in
            // `cur` indices; red.fixed() minus these are Essential events.
            let mut announced = if probe.enabled() {
                for &j in &take {
                    probe.record(Event::ColumnFix {
                        col: cur_to_core[j],
                        sigma: sub.c_tilde[j],
                        mu: sub.mu[j],
                        reason: FixReason::Promising,
                    });
                }
                let mut seen = vec![false; cur.num_cols()];
                for &j in &take {
                    seen[j] = true;
                }
                seen
            } else {
                Vec::new()
            };
            let pen = lagrangian_penalties(&sub.c_tilde, sub.lb, local_ub);
            take.extend(pen.fix_in.iter().copied());
            let mut exclude = pen.fix_out;
            if probe.enabled() && !exclude.is_empty() {
                probe.record(Event::PenaltyElim {
                    kind: PenaltyKind::Lagrangian,
                    removed: exclude.len(),
                });
            }
            if cur.num_cols() <= self.opts.dual_pen_limit {
                let base = dual_ascent(&cur, cur.costs(), Some(&sub.lambda)).m;
                let dpen = dual_penalties(&cur, &base, local_ub);
                if dpen.no_improvement_possible {
                    return report;
                }
                if probe.enabled() && !dpen.fix_out.is_empty() {
                    probe.record(Event::PenaltyElim {
                        kind: PenaltyKind::Dual,
                        removed: dpen.fix_out.len(),
                    });
                }
                take.extend(dpen.fix_in);
                exclude.extend(dpen.fix_out);
            }
            take.sort_unstable();
            take.dedup();
            exclude.sort_unstable();
            exclude.dedup();
            // A column proven both ways means no improvement below the
            // incumbent exists on this branch.
            if take.iter().any(|j| exclude.binary_search(j).is_ok()) {
                return report;
            }

            // The mandatory σ-rated pick (guarantees progress).
            let mut rated: Vec<(f64, usize)> = (0..cur.num_cols())
                .filter(|j| take.binary_search(j).is_err() && exclude.binary_search(j).is_err())
                .map(|j| (sub.c_tilde[j] - self.opts.alpha * sub.mu[j], j))
                .collect();
            rated.sort_by(|a, b| a.partial_cmp(b).expect("σ ratings are finite"));
            if take.is_empty() && rated.is_empty() {
                return report; // everything excluded: dead branch
            }
            if let Some(&(sigma, pick)) = rated.get(if best_col <= 1 || rated.len() <= 1 {
                0
            } else {
                rng.random_range(0..best_col.min(rated.len()))
            }) {
                if probe.enabled() {
                    probe.record(Event::ColumnFix {
                        col: cur_to_core[pick],
                        sigma,
                        mu: sub.mu[pick],
                        reason: FixReason::RatedPick,
                    });
                    announced[pick] = true;
                }
                take.push(pick);
            }

            // Re-reduce with the fixes applied.
            let mut red = Reducer::with_state(&cur, &take, &exclude);
            if red.reduce_to_fixpoint(ctx.halt).is_err() {
                return report; // the solve halted mid-reduction: incumbent stands
            }
            if red.infeasible() {
                return report; // exclusions killed the branch: incumbent stands
            }
            for &j in red.fixed() {
                if probe.enabled() && !announced[j] {
                    probe.record(Event::ColumnFix {
                        col: cur_to_core[j],
                        sigma: sub.c_tilde[j],
                        mu: sub.mu[j],
                        reason: FixReason::Essential,
                    });
                }
                chosen.push(cur_to_core[j]);
                chosen_cost += cur.cost(j);
            }
            let (next, row_map, col_map) = red.extract_core();
            lambda = row_map.iter().map(|&i| lambda[i]).collect();
            cur_to_core = col_map.iter().map(|&j| cur_to_core[j]).collect();
            cur = next;

            if cur.num_rows() == 0 {
                ctx.offer(ae, Solution::from_cols(chosen), &mut report.best);
                return report;
            }

            // Subgradient on the reduced matrix, warm-started. The ascent
            // reports its own begin/end pair so traces show nested phases;
            // its seconds are credited to Subgradient, not Constructive.
            let mut sopts = self.opts.subgradient;
            sopts.occurrence_heuristic = false;
            probe.record(Event::PhaseBegin {
                phase: Phase::Subgradient,
            });
            let ascent_start = Instant::now();
            sub = ascent_impl(
                &cur,
                &sopts,
                Some(&lambda),
                Some(local_ub),
                None,
                &mut *probe,
            );
            let ascent_seconds = ascent_start.elapsed().as_secs_f64();
            report.sub_seconds += ascent_seconds;
            probe.record(Event::PhaseEnd {
                phase: Phase::Subgradient,
                seconds: ascent_seconds,
            });
            report.sub_iters += sub.iterations;
            lambda = sub.lambda.clone();
            if let Some(part) = &sub.best_solution {
                let mut full = Solution::from_cols(chosen.clone());
                full.extend(part.cols().iter().map(|&j| cur_to_core[j]));
                ctx.offer(ae, full, &mut report.best);
            }
        }
        report
    }
}

/// Seconds from `*clock` to now, moving `*clock` to now. Phases timed
/// this way tile the wall clock: each starts at the instant the previous
/// one ended, and the set-up between them counts toward the phase that
/// ends next.
fn lap(clock: &mut Instant) -> f64 {
    let now = Instant::now();
    let seconds = (now - *clock).as_secs_f64();
    *clock = now;
    seconds
}

/// The solve error for a halt that fired before there was anything to
/// return.
fn halted(reason: HaltReason) -> SolveError {
    match reason {
        HaltReason::Cancelled => SolveError::Cancelled,
        HaltReason::Expired => SolveError::Expired,
    }
}

/// The postprocess phase and outcome shared by every solve that reached
/// a core stage: costs `solution`, the cover in original indices
/// (`None`: no cover found, reported as `cost = +∞` with an empty
/// solution), and certifies it against `lower_bound` under integer
/// costs. `reduced` is the reduce stage's result; a multicover solve
/// skips that stage and reports the whole instance as its core.
///
/// The phase runs from `post_start`, the instant the core stage ended,
/// so the caller's assembly of `solution` (lifting it to original
/// indices) counts as postprocess too; the solve's `total_time` ends
/// with it.
#[allow(clippy::too_many_arguments)]
fn postprocess<P: Probe>(
    m: &CoverMatrix,
    reduced: Option<&CoreResult>,
    solution: Option<Solution>,
    lower_bound: f64,
    effort: Effort,
    start: Instant,
    post_start: Instant,
    mut phases: PhaseTimes,
    probe: &mut P,
) -> ScgOutcome {
    probe.record(Event::PhaseBegin {
        phase: Phase::Postprocess,
    });
    let (solution, cost) = match solution {
        Some(sol) => {
            let cost = sol.cost(m);
            (sol, cost)
        }
        None => (Solution::new(), f64::INFINITY),
    };
    let proven_optimal = m.integer_costs() && cost <= lower_bound + 1e-9;
    let end = Instant::now();
    let post_time = (end - post_start).as_secs_f64();
    phases.add(Phase::Postprocess, post_time);
    probe.record(Event::PhaseEnd {
        phase: Phase::Postprocess,
        seconds: post_time,
    });
    let core = reduced.map_or(m, |r| &r.core);
    ScgOutcome {
        solution,
        cost,
        lower_bound,
        proven_optimal,
        infeasible: false,
        iterations: effort.iterations,
        subgradient_iterations: effort.sub_iters,
        restart_workers: effort.workers,
        cc_time: reduced.map_or(Duration::ZERO, |r| r.cc_time),
        total_time: end - start,
        core_rows: core.num_rows(),
        core_cols: core.num_cols(),
        phase_times: phases,
        zdd_stats: cover::ZddStats::default(),
        dropped_events: 0,
        resumed: effort.resumed,
    }
}

/// Test shorthand: [`Scg::run`] with default options (a request with no
/// cancel flag cannot fail).
#[cfg(test)]
fn run_default(m: &CoverMatrix) -> ScgOutcome {
    Scg::run(SolveRequest::for_matrix(m)).expect("no cancel flag")
}

/// Test shorthand: [`Scg::run`] with explicit options.
#[cfg(test)]
fn run_opts(m: &CoverMatrix, opts: ScgOptions) -> ScgOutcome {
    Scg::run(SolveRequest::for_matrix(m).options(opts)).expect("no cancel flag")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> CoverMatrix {
        CoverMatrix::from_rows(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
    }

    #[test]
    fn solves_cycles_optimally() {
        for n in [5usize, 7, 9, 11] {
            let m = cycle(n);
            let out = run_default(&m);
            assert!(out.solution.is_feasible(&m));
            assert_eq!(out.cost, (n / 2 + 1) as f64, "C{n}");
            assert!(out.proven_optimal, "C{n} not certified");
        }
    }

    #[test]
    fn reductions_alone_solve_trees() {
        // An "interval" instance collapses entirely under reductions.
        let m = CoverMatrix::from_rows(4, vec![vec![0], vec![0, 1], vec![1, 2], vec![3]]);
        let out = run_default(&m);
        assert!(out.proven_optimal);
        assert_eq!(out.iterations, 0);
        assert!(out.solution.is_feasible(&m));
    }

    #[test]
    fn infeasible_instance_reported() {
        let m = CoverMatrix::from_rows(2, vec![vec![0], vec![]]);
        let out = run_default(&m);
        assert!(out.infeasible);
        assert!(out.cost.is_infinite());
    }

    #[test]
    fn empty_instance_trivially_optimal() {
        let m = CoverMatrix::from_rows(3, vec![]);
        let out = run_default(&m);
        assert!(out.proven_optimal);
        assert_eq!(out.cost, 0.0);
        assert!(out.solution.is_empty());
    }

    #[test]
    fn cost_at_least_lower_bound() {
        let m = cycle(13);
        let out = run_default(&m);
        assert!(out.cost >= out.lower_bound - 1e-9);
        assert!(out.solution.is_feasible(&m));
    }

    #[test]
    fn deterministic_given_seed() {
        let m = cycle(9);
        let a = run_default(&m);
        let b = run_default(&m);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.solution.cols(), b.solution.cols());
    }

    #[test]
    fn fast_preset_still_feasible() {
        let m = cycle(15);
        let out = run_opts(&m, Preset::Fast.options());
        assert!(out.solution.is_feasible(&m));
        assert!(out.cost >= 8.0); // optimum of C15
    }

    #[test]
    fn non_uniform_costs_respected() {
        // Two disjoint rows with a cheap and an expensive option each.
        let m = CoverMatrix::with_costs(4, vec![vec![0, 1], vec![2, 3]], vec![1.0, 9.0, 9.0, 1.0]);
        let out = run_default(&m);
        assert_eq!(out.cost, 2.0);
        assert_eq!(out.solution.cols(), &[0, 3]);
        assert!(out.proven_optimal);
    }

    /// A small crew schedule: rows are periods, each crew has rosters
    /// (windows of consecutive periods) of which at most one is taken,
    /// and a period demands as many crews as the first rosters put on it.
    fn small_crew() -> (CoverMatrix, Constraints) {
        use cover::GubGroup;
        let (periods, crews, rosters, len) = (48usize, 10usize, 4usize, 8usize);
        let mut cols: Vec<Vec<usize>> = Vec::new();
        let mut costs = Vec::new();
        let mut groups = Vec::new();
        for k in 0..crews {
            let first = cols.len();
            for r in 0..rosters {
                let start = (k * periods / crews + 7 * r) % periods;
                cols.push((0..len).map(|d| (start + d) % periods).collect());
                costs.push((len + (2 * k + 2 * r + k * r) % 5) as f64);
            }
            groups.push(GubGroup::new((first..first + rosters).collect(), 1));
        }
        let mut rows = vec![Vec::new(); periods];
        for (j, col) in cols.iter().enumerate() {
            for &i in col {
                rows[i].push(j);
            }
        }
        let demand = (0..periods)
            .map(|i| {
                (0..crews)
                    .filter(|&k| cols[k * rosters].contains(&i))
                    .count() as u32
            })
            .collect();
        let m = CoverMatrix::with_costs(cols.len(), rows, costs);
        (m, Constraints::new().coverage(demand).gub_groups(groups))
    }

    #[test]
    fn multicover_ascents_keep_the_every_iteration_greedy() {
        // The multicover solver clamps the greedy period to 1, so the
        // default schedule and an explicit period 1 give the same outcome.
        let (m, cons) = small_crew();
        let run = |period: usize| {
            let mut opts = ScgOptions::default();
            opts.subgradient.heuristic_period = period;
            Scg::run(
                SolveRequest::for_matrix(&m)
                    .options(opts)
                    .constraints(cons.clone()),
            )
            .expect("no cancel flag")
        };
        let dflt = run(ScgOptions::default().subgradient.heuristic_period);
        let every = run(1);
        assert!(cons.is_satisfied(&m, &dflt.solution));
        // Restarts run, and the unclamped schedule would change their
        // ascents' trajectories.
        assert!(dflt.iterations > 1 && !dflt.proven_optimal);
        assert_eq!(dflt.cost.to_bits(), every.cost.to_bits());
        assert_eq!(dflt.lower_bound.to_bits(), every.lower_bound.to_bits());
        assert_eq!(dflt.solution, every.solution);
        assert_eq!(dflt.proven_optimal, every.proven_optimal);
        assert_eq!(dflt.iterations, every.iterations);
        assert_eq!(dflt.subgradient_iterations, every.subgradient_iterations);
    }
}

#[cfg(test)]
mod partition_tests {
    use super::*;

    /// Two disjoint odd cycles: partitioning must split and certify.
    fn two_cycles(n: usize) -> CoverMatrix {
        let mut rows: Vec<Vec<usize>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
        rows.extend((0..n).map(|i| vec![n + i, n + (i + 1) % n]));
        CoverMatrix::from_rows(2 * n, rows)
    }

    #[test]
    fn partitioned_solve_is_optimal_and_certified() {
        let m = two_cycles(7);
        let out = run_default(&m);
        assert!(out.solution.is_feasible(&m));
        assert_eq!(out.cost, 2.0 * (7 / 2 + 1) as f64);
        assert!(out.proven_optimal);
    }

    #[test]
    fn partitioning_agrees_with_monolithic_solve() {
        let m = two_cycles(5);
        let with = run_default(&m);
        let without = run_opts(
            &m,
            ScgOptions {
                partition: false,
                ..ScgOptions::default()
            },
        );
        assert_eq!(with.cost, without.cost);
        assert!(with.solution.is_feasible(&m));
        assert!(without.solution.is_feasible(&m));
    }

    #[test]
    fn partitioned_infeasible_block_detected() {
        // Second block has an uncoverable row.
        let m = CoverMatrix::from_rows(3, vec![vec![0, 1], vec![1, 0], vec![2], vec![]]);
        let out = run_default(&m);
        assert!(out.infeasible);
    }

    #[test]
    fn expired_deadline_before_reduction_reports_expired() {
        // A 0ms budget expires before the implicit reduction reaches its
        // first op boundary, so the solve reports `Expired` instead of
        // silently returning a weaker cover.
        let m = two_cycles(9);
        let out = Scg::new(ScgOptions {
            num_iter: 50,
            time_limit: Some(Duration::from_millis(0)),
            ..ScgOptions::default()
        })
        .solve_impl(
            &m,
            &Constraints::unate(),
            None,
            None,
            &mut ucp_telemetry::NoopProbe,
        );
        assert_eq!(out.unwrap_err(), SolveError::Expired);
    }

    #[test]
    fn generous_time_limit_still_solves() {
        // A deadline that outlives the reduce stage degrades gracefully:
        // restarts stop at the budget but the cover stays feasible.
        let m = two_cycles(9);
        let out = run_opts(
            &m,
            ScgOptions {
                num_iter: 50,
                time_limit: Some(Duration::from_secs(30)),
                ..ScgOptions::default()
            },
        );
        assert!(out.solution.is_feasible(&m));
    }

    #[test]
    fn concurrent_blocks_match_serial_blocks() {
        let m = two_cycles(9);
        let serial = run_opts(
            &m,
            ScgOptions {
                workers: 1,
                ..ScgOptions::default()
            },
        );
        let parallel = run_opts(
            &m,
            ScgOptions {
                workers: 4,
                ..ScgOptions::default()
            },
        );
        assert_eq!(serial.cost, parallel.cost);
        assert_eq!(serial.solution.cols(), parallel.solution.cols());
        assert_eq!(serial.lower_bound, parallel.lower_bound);
        assert_eq!(parallel.restart_workers, 2, "one worker per block");
        assert_eq!(serial.restart_workers, 1);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;

    fn run_workers(m: &CoverMatrix, workers: usize) -> ScgOutcome {
        run_opts(
            m,
            ScgOptions {
                workers,
                ..ScgOptions::default()
            },
        )
    }

    #[test]
    fn parallel_matches_serial_quality() {
        let m = CoverMatrix::from_rows(9, (0..9).map(|i| vec![i, (i + 1) % 9]).collect());
        let serial = run_default(&m);
        let parallel = run_workers(&m, 4);
        assert!(parallel.cost <= serial.cost);
        assert!(parallel.solution.is_feasible(&m));
        assert!(parallel.lower_bound >= serial.lower_bound - 1e-9);
    }

    #[test]
    fn single_worker_is_plain_solve() {
        let m = CoverMatrix::from_rows(5, (0..5).map(|i| vec![i, (i + 1) % 5]).collect());
        let a = run_default(&m);
        let b = run_workers(&m, 1);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.solution.cols(), b.solution.cols());
    }

    #[test]
    fn worker_count_does_not_change_the_answer() {
        // Bit-exact determinism across worker counts is the engine's core
        // contract; the integration suite exercises harder instances.
        let m = CoverMatrix::from_rows(11, (0..11).map(|i| vec![i, (i + 1) % 11]).collect());
        let base = run_default(&m);
        for workers in [2usize, 3, 8] {
            let out = run_workers(&m, workers);
            assert_eq!(out.cost, base.cost, "workers = {workers}");
            assert_eq!(
                out.solution.cols(),
                base.solution.cols(),
                "workers = {workers}"
            );
            assert_eq!(out.lower_bound, base.lower_bound, "workers = {workers}");
        }
    }

    #[test]
    fn idle_core_default_matches_the_inline_solve() {
        // The default pool size depends on what else runs (tests share
        // the process-wide core budget), so only the answer is pinned.
        let m = CoverMatrix::from_rows(7, (0..7).map(|i| vec![i, (i + 1) % 7]).collect());
        assert_eq!(ScgOptions::default().workers, 0);
        let out = run_default(&m);
        let base = run_workers(&m, 1);
        assert_eq!(out.cost, base.cost);
        assert_eq!(out.solution.cols(), base.solution.cols());
        assert!(out.restart_workers >= 1);
    }
}
