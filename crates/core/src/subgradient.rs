//! The two-sided subgradient scheme (§3.2–3.3): ascent on the primal
//! Lagrangian multipliers `λ`, descent on the dual Lagrangian multipliers
//! `μ`, each feeding the other the bound it needs.
//!
//! The inner loop runs on a per-ascent `AscentWorkspace` over the
//! matrix's flat CSR/CSC [`cover::SparseView`]: reduced costs are
//! maintained incrementally (a λ step only touches columns of rows whose
//! multiplier moved), the greedy heuristics reuse one
//! `GreedyScratch`, and no vectors are cloned per iteration. Results
//! are bit-identical to the dense implementations preserved in
//! [`crate::reference`].

use crate::ascent::AscentWorkspace;
use crate::dual::dual_ascent;

use crate::greedy::{
    best_greedy, greedy_pass, greedy_pass_constrained, GammaRule, GreedyScratch, MulticoverCtx,
};
use cover::{Constraints, CoverMatrix, Solution};
use ucp_telemetry::{Event, Probe};

/// Tunables of one subgradient phase. Defaults follow the paper where it
/// gives values and common Held–Karp practice where it does not.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubgradientOptions {
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Initial step coefficient `t_0`.
    pub t0: f64,
    /// `N_t`: halve `t` after this many consecutive non-improving steps.
    pub halving_patience: usize,
    /// Stop when `t` falls below this.
    pub t_min: f64,
    /// Stop when the relative gap `UB − z_λ` drops under `δ · max(1, UB)`.
    pub delta: f64,
    /// Run the expensive occurrence-weighted greedy (rule 4) once at the
    /// start — the paper enables it on the initial problem only.
    pub occurrence_heuristic: bool,
    /// Schedule of the cheap Lagrangian greedy inside the loop. With
    /// period `p > 0`, iteration `k` runs one greedy pass iff `k % p == 0`
    /// or the lower bound rose at `k`; the passes cycle through
    /// [`GammaRule::FAST`] in the order they run. `1` runs a pass every
    /// iteration, and `0` disables the periodic heuristic entirely (the
    /// initial greedy that seeds the incumbent and `μ0` still runs).
    ///
    /// The default is 20: passes only find incumbents, and on the
    /// difficult cores about one in 150 improves one, many of them early
    /// in an ascent or where the bound rose. The multicover/GUB solver
    /// ([`crate::Scg`]) clamps the period to at most 1 for its ascents:
    /// the constrained greedy is the only place those ascents find a
    /// cover, and with sparser passes some feasible crew instances come
    /// back with none, until a repair step for saturated GUB groups
    /// lands.
    pub heuristic_period: usize,
    /// Record a per-iteration [`HistoryPoint`] trace (off by default; the
    /// trace is for convergence plots and diagnostics).
    pub record_history: bool,
    /// Emit one `subgradient_iter` trace event every this many iterations.
    /// `0` and `1` keep the historical every-iteration behaviour. With
    /// `n > 1`, iterations `0, n, 2n, …` are emitted, plus — regardless of
    /// the stride — every iteration that improved the lower bound and the
    /// final iteration of the ascent, so sampled traces still carry the
    /// full convergence envelope and an exact iteration count.
    pub trace_every: usize,
}

impl Default for SubgradientOptions {
    fn default() -> Self {
        SubgradientOptions {
            max_iters: 300,
            t0: 2.0,
            halving_patience: 15,
            t_min: 5e-3,
            delta: 1e-4,
            occurrence_heuristic: false,
            heuristic_period: 20,
            record_history: false,
            trace_every: 1,
        }
    }
}

/// One iteration of the subgradient trace (see
/// [`SubgradientOptions::record_history`]).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct HistoryPoint {
    /// Current Lagrangian value `z_λ` (oscillates).
    pub z_lambda: f64,
    /// Best lower bound so far (monotone).
    pub lb: f64,
    /// Best dual-Lagrangian upper bound so far (monotone).
    pub ub_ld: f64,
    /// Step coefficient `t_k`.
    pub t: f64,
}

/// What a subgradient phase learned about one covering matrix.
#[derive(Clone, Debug)]
pub struct SubgradientResult {
    /// Best multipliers found (argmax of the Lagrangian bound).
    pub lambda: Vec<f64>,
    /// Final dual-Lagrangian multipliers `μ ∈ [0,1]ⁿ` (≈ LP primal values).
    pub mu: Vec<f64>,
    /// Best Lagrangian lower bound `LB ≤ z*` for this matrix.
    pub lb: f64,
    /// Best dual-Lagrangian upper bound on `z*_P` seen.
    pub ub_ld: f64,
    /// Lagrangian costs at the best multipliers.
    pub c_tilde: Vec<f64>,
    /// Best feasible cover of this matrix found by the auxiliary heuristics.
    pub best_solution: Option<Solution>,
    /// Its cost (`+∞` if none).
    pub best_cost: f64,
    /// Iterations actually executed.
    pub iterations: usize,
    /// `true` when `⌈LB⌉ = best_cost` under integer costs — the heuristic
    /// solution is optimal for this matrix. Always equals
    /// `certified``(integer_costs, lb, best_cost)`, the same predicate
    /// that stops the loop early.
    pub proven_optimal: bool,
    /// Per-iteration trace (empty unless
    /// [`SubgradientOptions::record_history`] was set).
    pub history: Vec<HistoryPoint>,
}

impl SubgradientResult {
    /// The rounded-up bound `⌈LB⌉`, valid for integer-cost instances.
    pub fn lb_ceil(&self) -> f64 {
        lb_ceil_of(self.lb)
    }
}

/// The rounded-up bound `⌈lb⌉` with the tolerance used everywhere the
/// crate compares a bound against an integer incumbent.
pub(crate) fn lb_ceil_of(lb: f64) -> f64 {
    (lb - 1e-6).ceil()
}

/// The optimality certificate of §3.2: under integer costs, an incumbent
/// matching `⌈LB⌉` is optimal. Single source of truth for both the
/// mid-loop early stop and the reported `proven_optimal` flag (these were
/// once two hand-expanded copies that could — and briefly did — drift).
/// An infinite `best_cost` never certifies: `∞ ≤ ⌈LB⌉ + ε` is false.
pub(crate) fn certified(integer_costs: bool, lb: f64, best_cost: f64) -> bool {
    integer_costs && lb.is_finite() && best_cost <= lb_ceil_of(lb) + 1e-9
}

/// When the loop runs its greedy and with which rule (see
/// [`SubgradientOptions::heuristic_period`]).
struct GreedySchedule {
    period: usize,
    /// Passes run so far: the rule rotates on this, not on the iteration,
    /// so a period that is a multiple of 3 still uses all three rules.
    passes: usize,
}

impl GreedySchedule {
    fn new(period: usize) -> Self {
        GreedySchedule { period, passes: 0 }
    }

    /// The rule of iteration `k`'s pass, or `None` when `k` runs none
    /// (period 0 = off, even on a bound-improving iteration).
    fn next(&mut self, k: usize, improved: bool) -> Option<GammaRule> {
        if self.period == 0 || !(improved || k.is_multiple_of(self.period)) {
            return None;
        }
        let rule = GammaRule::FAST[self.passes % GammaRule::FAST.len()];
        self.passes += 1;
        Some(rule)
    }
}

/// Runs subgradient ascent on `a` under the constraint set `cons`.
///
/// Unate constraints (`cons.is_unate()`, which includes an explicit
/// all-ones coverage) run the historical unate loop. Anything else runs
/// the same loop generalized to set-multicover demand and GUB group
/// bounds: the relaxation value/step arithmetic carries the per-row
/// demand `b_i`, the primal heuristics run the constrained greedy, and
/// `best_solution`/`best_cost` describe covers satisfying `cons` in
/// full. That lower bound relaxes the group bounds (dropping an
/// *at-most* constraint can only lower the optimum, so `lb` stays
/// valid), and the optimality certificate compares it against the
/// constrained incumbent — `proven_optimal` keeps its meaning.
///
/// * `lambda0` — warm-start multipliers (e.g. from the previous, larger
///   matrix); when absent, dual ascent provides `λ_0` (§3.3).
/// * `ub_hint` — an externally known upper bound on this matrix's optimum
///   (the incumbent minus already-fixed cost); used for step scaling and
///   early termination, *not* reported as a solution.
/// * `probe` — receives one [`Event::SubgradientIter`] per iteration
///   (current `z_λ`, monotone LB, best UB, step size `t` and the
///   violation norm `‖s‖²`). With [`ucp_telemetry::NoopProbe`] this
///   monomorphises to exactly the uninstrumented loop.
///
/// # Panics
///
/// Panics if `lambda0` has the wrong length, or if non-unate `cons` does
/// not validate against `a` — validate with [`Constraints::validate_for`]
/// and surface the typed error before calling.
///
/// # Example
///
/// ```
/// use cover::{Constraints, CoverMatrix};
/// use ucp_core::{subgradient_ascent, SubgradientOptions};
/// use ucp_telemetry::NoopProbe;
///
/// let m = CoverMatrix::from_rows(
///     5,
///     vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
/// );
/// let opts = SubgradientOptions::default();
/// let r = subgradient_ascent(&m, &opts, &Constraints::unate(), None, None, &mut NoopProbe);
/// assert!(r.lb > 2.4999); // converges to z*_P = 2.5
/// assert_eq!(r.best_cost, 3.0);
/// assert!(r.proven_optimal); // ⌈2.5⌉ = 3
/// ```
pub fn subgradient_ascent<P: Probe>(
    a: &CoverMatrix,
    opts: &SubgradientOptions,
    cons: &Constraints,
    lambda0: Option<&[f64]>,
    ub_hint: Option<f64>,
    probe: &mut P,
) -> SubgradientResult {
    let mctx = MulticoverCtx::checked(a, cons);
    ascent_impl(a, opts, lambda0, ub_hint, mctx.as_ref(), probe)
}

/// The shared two-sided loop behind [`subgradient_ascent`], which the
/// solver calls directly with the context it built once per solve.
/// `mctx = None` is the historical unate ascent, byte-for-byte; `Some`
/// switches the demand arithmetic and the greedy passes to their
/// constrained forms at the three call sites that differ.
pub(crate) fn ascent_impl<P: Probe>(
    a: &CoverMatrix,
    opts: &SubgradientOptions,
    lambda0: Option<&[f64]>,
    ub_hint: Option<f64>,
    mctx: Option<&MulticoverCtx>,
    probe: &mut P,
) -> SubgradientResult {
    let integer_costs = a.integer_costs();
    let view = a.sparse();

    // λ0: warm start or dual ascent (§3.3).
    let lambda: Vec<f64> = match lambda0 {
        Some(l) => {
            assert_eq!(l.len(), a.num_rows(), "warm-start λ has wrong length");
            l.to_vec()
        }
        None => dual_ascent(a, a.costs(), None).m,
    };

    // Initial heuristic run (rule 4 included when requested) to seed μ0 and
    // the incumbent. One greedy scratch serves this and every later pass.
    let mut scratch = GreedyScratch::new(a);
    let mut best_solution: Option<Solution> = None;
    let mut best_cost = f64::INFINITY;
    let rules: &[GammaRule] = if opts.occurrence_heuristic {
        &[
            GammaRule::Linear,
            GammaRule::Log,
            GammaRule::LinearLog,
            GammaRule::Occurrence,
        ]
    } else {
        &GammaRule::FAST
    };
    if let Some((sol, cost)) = best_greedy(a, view, a.costs(), rules, mctx, &mut scratch) {
        best_cost = cost;
        best_solution = Some(sol);
    }

    let mut ws = match mctx {
        None => AscentWorkspace::new(a, lambda),
        Some(ctx) => AscentWorkspace::with_demand(a, lambda, Some(&ctx.demand)),
    };
    // μ0 from the primal heuristic (§3.3: "the initial estimate for μ0 is
    // determined by a primal heuristic").
    if let Some(sol) = &best_solution {
        ws.seed_mu(sol.cols());
    }

    let mut lb = f64::NEG_INFINITY;
    let mut ub_ld = f64::INFINITY;
    let mut t = opts.t0;
    let mut since_improve = 0usize;
    let mut iterations = 0usize;
    let mut schedule = GreedySchedule::new(opts.heuristic_period);
    let mut history: Vec<HistoryPoint> = Vec::new();

    let target_ub = |best_cost: f64, ub_ld: f64| -> f64 {
        let hint = ub_hint.unwrap_or(f64::INFINITY);
        best_cost.min(hint).min(ub_ld)
    };

    for k in 0..opts.max_iters {
        iterations = k + 1;
        let value = ws.refresh_primal();
        let improved = value > lb + 1e-12;
        if improved {
            lb = value;
            ws.save_best();
            since_improve = 0;
        } else {
            since_improve += 1;
            if since_improve >= opts.halving_patience {
                t *= 0.5;
                since_improve = 0;
            }
        }

        // Auxiliary primal heuristic on the current Lagrangian costs.
        if let Some(rule) = schedule.next(k, improved) {
            let pass = match mctx {
                None => greedy_pass(a, view, &ws.c_tilde, rule, &mut scratch),
                Some(ctx) => greedy_pass_constrained(a, view, &ws.c_tilde, rule, ctx, &mut scratch),
            };
            if let Some(cost) = pass {
                if cost < best_cost {
                    best_cost = cost;
                    best_solution = Some(scratch.extract_solution());
                }
            }
        }

        // Dual side: evaluate (LD), tighten the upper bound, step μ.
        let d_value = ws.eval_dual();
        ub_ld = ub_ld.min(d_value);
        let ub = target_ub(best_cost, ub_ld);
        if opts.record_history {
            history.push(HistoryPoint {
                z_lambda: value,
                lb,
                ub_ld,
                t,
            });
        }
        // Stop predicates, hoisted so the trace sampler below can tell
        // whether this is the ascent's final iteration before breaking.
        // Optimality certificate for integer costs.
        let certificate = certified(integer_costs, lb, best_cost);
        // Gap stop.
        let gap_closed = ub.is_finite() && ub - value < opts.delta * ub.abs().max(1.0);
        // Step-size exhaustion.
        let step_exhausted = t < opts.t_min;
        // Stationary (feasible Lagrangian solution): nothing to update.
        let stationary = ws.subgradient_norm2() <= 0.0 && ws.gradient_norm2() <= 0.0;
        let last_iter =
            certificate || gap_closed || step_exhausted || stationary || k + 1 == opts.max_iters;

        if probe.enabled() {
            // Sampling keeps first, improving and final iterations so a
            // sampled trace preserves the convergence envelope and the
            // exact iteration count (the last event's `iter` is exact).
            let n = opts.trace_every;
            if n <= 1 || k == 0 || improved || last_iter || k % n == 0 {
                probe.record(Event::SubgradientIter {
                    iter: k,
                    z_lambda: value,
                    lb,
                    ub,
                    step: t,
                    violation_norm2: ws.subgradient_norm2(),
                });
            }
        }

        if certificate || gap_closed || step_exhausted || stationary {
            break;
        }

        let ub_for_step = if ub.is_finite() { ub } else { value + 1.0 };
        ws.step_lambda(t, ub_for_step, value);
        let lb_for_step = if lb.is_finite() { lb } else { 0.0 };
        ws.step_mu(t, lb_for_step, d_value);
    }

    let proven_optimal = certified(integer_costs, lb, best_cost);
    let (best_lambda, best_c_tilde, mu) = ws.into_result_parts();

    SubgradientResult {
        lambda: best_lambda,
        mu,
        lb,
        ub_ld,
        c_tilde: best_c_tilde,
        best_solution,
        best_cost,
        iterations,
        proven_optimal,
        history,
    }
}

/// Test shorthand: the unate ascent through the public entry, unprobed.
#[cfg(test)]
fn unate(
    m: &CoverMatrix,
    opts: &SubgradientOptions,
    lambda0: Option<&[f64]>,
    ub_hint: Option<f64>,
) -> SubgradientResult {
    subgradient_ascent(
        m,
        opts,
        &Constraints::unate(),
        lambda0,
        ub_hint,
        &mut ucp_telemetry::NoopProbe,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cover::GubGroup;
    use ucp_telemetry::NoopProbe;

    fn cycle(n: usize) -> CoverMatrix {
        CoverMatrix::from_rows(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
    }

    #[test]
    fn five_cycle_converges_and_certifies() {
        let m = cycle(5);
        let r = unate(&m, &SubgradientOptions::default(), None, None);
        assert!(r.lb > 2.4, "LB too weak: {}", r.lb);
        assert!(r.lb <= 3.0 + 1e-9);
        assert_eq!(r.best_cost, 3.0);
        assert!(r.proven_optimal);
        assert!(r.best_solution.unwrap().is_feasible(&m));
    }

    #[test]
    fn seven_cycle() {
        let m = cycle(7);
        let r = unate(&m, &SubgradientOptions::default(), None, None);
        // z*_P = 3.5, optimum 4.
        assert!(r.lb > 3.4, "LB {}", r.lb);
        assert_eq!(r.best_cost, 4.0);
        assert!(r.proven_optimal);
    }

    #[test]
    fn lb_below_ub_always() {
        let m = cycle(9);
        let r = unate(&m, &SubgradientOptions::default(), None, None);
        assert!(r.lb <= r.best_cost + 1e-9);
        assert!(r.lb <= r.ub_ld + 1e-6, "lb {} vs ub_ld {}", r.lb, r.ub_ld);
    }

    #[test]
    fn warm_start_with_good_lambda_converges_fast() {
        let m = cycle(5);
        let r = unate(&m, &SubgradientOptions::default(), Some(&[0.5; 5]), None);
        assert!((r.lb - 2.5).abs() < 1e-9);
        assert!(r.iterations <= 5, "took {} iterations", r.iterations);
    }

    #[test]
    fn respects_iteration_cap() {
        let m = cycle(11);
        let opts = SubgradientOptions {
            max_iters: 3,
            ..SubgradientOptions::default()
        };
        let r = unate(&m, &opts, None, None);
        assert!(r.iterations <= 3);
        assert!(r.best_solution.is_some());
    }

    #[test]
    fn non_uniform_costs() {
        // Two rows, the shared column cheap: optimum = 1 column of cost 2.
        let m = CoverMatrix::with_costs(3, vec![vec![0, 2], vec![1, 2]], vec![2.0, 2.0, 2.0]);
        let r = unate(&m, &SubgradientOptions::default(), None, None);
        assert_eq!(r.best_cost, 2.0);
        assert!(r.proven_optimal);
    }

    #[test]
    fn mu_stays_in_unit_box() {
        let m = cycle(7);
        let r = unate(&m, &SubgradientOptions::default(), None, None);
        assert!(r.mu.iter().all(|&u| (-1e-12..=1.0 + 1e-12).contains(&u)));
    }

    #[test]
    fn zero_heuristic_period_means_off() {
        // Regression: `heuristic_period: 0` used to hit `k % 0` and panic
        // on the very first iteration. It now means "periodic heuristic
        // disabled" — the ascent still runs, still bounds, and still keeps
        // the incumbent from the initial greedy.
        let m = cycle(7);
        let opts = SubgradientOptions {
            heuristic_period: 0,
            ..SubgradientOptions::default()
        };
        let r = unate(&m, &opts, None, None);
        assert!(r.lb > 3.4, "LB {}", r.lb);
        let sol = r.best_solution.expect("initial greedy still seeds");
        assert!(sol.is_feasible(&m));
        assert_eq!(r.best_cost, 4.0);
    }

    #[test]
    fn greedy_schedule_runs_on_the_period_and_on_improvements() {
        let mut every = GreedySchedule::new(1);
        // Period 1 passes every iteration with the rule of index `k`.
        for k in 0..7 {
            assert_eq!(every.next(k, false), Some(GammaRule::FAST[k % 3]));
        }
        let mut off = GreedySchedule::new(0);
        assert_eq!(off.next(0, true), None);

        // Period 3 without improvements passes on k = 0, 3, 6, … and
        // still cycles through all three rules (rotating on `k` would
        // pick Linear every time).
        let mut third = GreedySchedule::new(3);
        let rules: Vec<(usize, GammaRule)> = (0..9)
            .filter_map(|k| third.next(k, false).map(|r| (k, r)))
            .collect();
        assert_eq!(
            rules,
            vec![
                (0, GammaRule::Linear),
                (3, GammaRule::Log),
                (6, GammaRule::LinearLog)
            ]
        );
        // A bound-improving iteration off the period passes too, and
        // takes the next rule in turn.
        assert_eq!(third.next(10, true), Some(GammaRule::Linear));
        assert_eq!(third.next(11, false), None);
    }

    #[test]
    fn constrained_unate_is_bit_identical() {
        // All-ones coverage through the constrained loop must reproduce
        // the unate loop exactly: bounds, iterations, multipliers. The
        // public entry routes all-ones coverage to the unate loop, so
        // this drives the loop with an explicit unit-demand context.
        let m = cycle(9);
        let opts = SubgradientOptions::default();
        let unate = ascent_impl(&m, &opts, None, None, None, &mut NoopProbe);
        let ctx = MulticoverCtx::new(&m, &Constraints::new().coverage(vec![1; 9]));
        let multi = ascent_impl(&m, &opts, None, None, Some(&ctx), &mut NoopProbe);
        assert_eq!(unate.lb.to_bits(), multi.lb.to_bits());
        assert_eq!(unate.ub_ld.to_bits(), multi.ub_ld.to_bits());
        assert_eq!(unate.best_cost.to_bits(), multi.best_cost.to_bits());
        assert_eq!(unate.iterations, multi.iterations);
        assert_eq!(unate.lambda, multi.lambda);
        assert_eq!(unate.mu, multi.mu);
        assert_eq!(unate.best_solution, multi.best_solution);
        assert_eq!(unate.proven_optimal, multi.proven_optimal);
    }

    #[test]
    fn constrained_multicover_solves_and_bounds() {
        // Each cycle row demands 2 distinct covering columns: the optimum
        // doubles relative to unate (every column must be taken on a
        // 5-cycle: each covers 2 rows, 5 rows × demand 2 = 10 = 5 × 2).
        let m = cycle(5);
        let cons = Constraints::new().coverage(vec![2; 5]);
        let r = subgradient_ascent(
            &m,
            &SubgradientOptions::default(),
            &cons,
            None,
            None,
            &mut NoopProbe,
        );
        let sol = r.best_solution.expect("feasible multicover exists");
        assert!(cons.is_satisfied(&m, &sol));
        assert_eq!(r.best_cost, 5.0);
        assert!(
            r.lb <= r.best_cost + 1e-9,
            "lb {} vs ub {}",
            r.lb,
            r.best_cost
        );
        assert!(
            r.lb > 4.0,
            "demand-aware relaxation should push past the unate bound"
        );
    }

    #[test]
    fn constrained_gub_respected_by_incumbent() {
        // Two parallel columns per row; group the cheap ones at bound 1
        // so at least one expensive column is forced in.
        let m =
            CoverMatrix::with_costs(4, vec![vec![0, 2], vec![1, 3]], vec![1.0, 1.0, 10.0, 10.0]);
        let cons = Constraints::new().gub_groups(vec![GubGroup::new(vec![0, 1], 1)]);
        let r = subgradient_ascent(
            &m,
            &SubgradientOptions::default(),
            &cons,
            None,
            None,
            &mut NoopProbe,
        );
        let sol = r.best_solution.expect("feasible under the bound");
        assert!(cons.is_satisfied(&m, &sol));
        assert_eq!(r.best_cost, 11.0);
        // The relaxation drops the group bound, so the bound may sit at
        // the unate optimum (2.0) — but never above the incumbent.
        assert!(r.lb <= r.best_cost + 1e-9);
    }

    #[test]
    fn constrained_infeasible_demand_yields_no_solution() {
        // Row 0 demands 2 covers but is touched by one column. The
        // necessary-condition validator catches this; the ascent itself
        // is only reached with validated constraints, so check the
        // validation contract here.
        let m = CoverMatrix::from_rows(2, vec![vec![0], vec![0, 1]]);
        let cons = Constraints::new().coverage(vec![2, 1]);
        assert!(cons.validate_for(&m).is_err());
    }

    #[test]
    fn certificate_early_stop_agrees_with_final_flag() {
        // Regression: the mid-loop certificate and the reported
        // `proven_optimal` were two hand-expanded copies of the same
        // predicate. Both now route through `certified`, so a run that
        // stops on the certificate must report it, and the flag must
        // always equal what the result's own fields imply.
        let m = cycle(5);
        let opts = SubgradientOptions::default();
        let r = unate(&m, &opts, None, None);
        assert!(r.iterations < opts.max_iters, "should certify mid-loop");
        assert!(r.proven_optimal);
        assert!(r.best_cost <= r.lb_ceil() + 1e-9);

        // A run capped before it can certify reports the same predicate.
        let capped = SubgradientOptions {
            max_iters: 2,
            ..SubgradientOptions::default()
        };
        let r2 = unate(&cycle(9), &capped, None, None);
        assert_eq!(
            r2.proven_optimal,
            r2.lb.is_finite() && r2.best_cost <= r2.lb_ceil() + 1e-9
        );
    }
}

#[cfg(test)]
mod sampling_tests {
    use super::*;
    use ucp_telemetry::RecordingProbe;

    fn cycle(n: usize) -> CoverMatrix {
        CoverMatrix::from_rows(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
    }

    fn iter_events(probe: &RecordingProbe) -> Vec<(usize, f64)> {
        probe
            .events()
            .iter()
            .filter_map(|te| match te.event {
                Event::SubgradientIter { iter, lb, .. } => Some((iter, lb)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn default_stride_emits_every_iteration() {
        let m = cycle(9);
        let mut probe = RecordingProbe::new();
        let r = subgradient_ascent(
            &m,
            &SubgradientOptions::default(),
            &Constraints::unate(),
            None,
            None,
            &mut probe,
        );
        let iters = iter_events(&probe);
        assert_eq!(iters.len(), r.iterations);
        assert!(iters.iter().enumerate().all(|(i, &(k, _))| i == k));
    }

    #[test]
    fn sampling_thins_the_trace_but_keeps_the_envelope() {
        let m = cycle(9);
        let mut dense = RecordingProbe::new();
        let r_dense = subgradient_ascent(
            &m,
            &SubgradientOptions::default(),
            &Constraints::unate(),
            None,
            None,
            &mut dense,
        );
        let opts = SubgradientOptions {
            trace_every: 25,
            ..SubgradientOptions::default()
        };
        let mut sampled = RecordingProbe::new();
        let r = subgradient_ascent(&m, &opts, &Constraints::unate(), None, None, &mut sampled);

        // Sampling must not change the solve itself.
        assert_eq!(r.iterations, r_dense.iterations);
        assert_eq!(r.lb, r_dense.lb);

        let dense_iters = iter_events(&dense);
        let iters = iter_events(&sampled);
        assert!(
            iters.len() < dense_iters.len(),
            "stride 25 should thin {} events, got {}",
            dense_iters.len(),
            iters.len()
        );
        // First and last iterations always present; the last event's index
        // pins the exact iteration count.
        assert_eq!(iters.first().unwrap().0, 0);
        assert_eq!(iters.last().unwrap().0, r.iterations - 1);
        // Every improving iteration survives: the sampled LB trajectory
        // reaches the same final bound.
        assert_eq!(iters.last().unwrap().1, r.lb);
        // Stride iterations are present.
        for &(k, _) in &iters {
            // every kept index is a stride multiple, an improvement, or
            // the final iteration — spot-check monotone ordering instead
            // of re-deriving the predicate.
            assert!(k < r.iterations);
        }
        assert!(iters.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn zero_stride_means_dense() {
        let m = cycle(5);
        let opts = SubgradientOptions {
            trace_every: 0,
            ..SubgradientOptions::default()
        };
        let mut probe = RecordingProbe::new();
        let r = subgradient_ascent(&m, &opts, &Constraints::unate(), None, None, &mut probe);
        assert_eq!(iter_events(&probe).len(), r.iterations);
    }
}

#[cfg(test)]
mod history_tests {
    use super::*;

    #[test]
    fn history_recorded_when_requested() {
        let m = CoverMatrix::from_rows(7, (0..7).map(|i| vec![i, (i + 1) % 7]).collect());
        let opts = SubgradientOptions {
            record_history: true,
            max_iters: 60,
            ..SubgradientOptions::default()
        };
        let r = unate(&m, &opts, None, None);
        assert!(!r.history.is_empty());
        // LB is monotone non-decreasing and UB_LD monotone non-increasing.
        for w in r.history.windows(2) {
            assert!(w[1].lb >= w[0].lb - 1e-12);
            assert!(w[1].ub_ld <= w[0].ub_ld + 1e-12);
        }
        // The recorded trajectory ends at the reported bound.
        let last = r.history.last().unwrap();
        assert!(last.lb <= r.lb + 1e-12);
    }

    #[test]
    fn history_empty_by_default() {
        let m = CoverMatrix::from_rows(5, (0..5).map(|i| vec![i, (i + 1) % 5]).collect());
        let r = unate(&m, &SubgradientOptions::default(), None, None);
        assert!(r.history.is_empty());
    }
}

/// The `b ≡ 1` constrained-loop proof: the generalized loop driven with
/// an explicit unit-demand [`MulticoverCtx`] reproduces the unate loop
/// bit for bit. [`subgradient_ascent`] routes all-ones coverage to the
/// unate loop, so only the internal loop can witness this.
#[cfg(test)]
mod unit_demand_tests {
    use super::*;
    use proptest::prelude::*;
    use ucp_telemetry::NoopProbe;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs the unate loop and the constrained loop with unit demand and
    /// asserts bit-identity of every field.
    fn assert_unit_demand_matches_unate(
        name: &str,
        m: &CoverMatrix,
        opts: &SubgradientOptions,
        lambda0: Option<&[f64]>,
        ub_hint: Option<f64>,
    ) {
        let unate = ascent_impl(m, opts, lambda0, ub_hint, None, &mut NoopProbe);
        let ctx = MulticoverCtx::new(m, &Constraints::new().coverage(vec![1; m.num_rows()]));
        let multi = ascent_impl(m, opts, lambda0, ub_hint, Some(&ctx), &mut NoopProbe);
        assert_eq!(multi.iterations, unate.iterations, "{name}: iterations");
        assert_eq!(multi.lb.to_bits(), unate.lb.to_bits(), "{name}: lb");
        assert_eq!(
            multi.ub_ld.to_bits(),
            unate.ub_ld.to_bits(),
            "{name}: ub_ld"
        );
        assert_eq!(
            multi.best_cost.to_bits(),
            unate.best_cost.to_bits(),
            "{name}: best_cost"
        );
        assert_eq!(multi.proven_optimal, unate.proven_optimal, "{name}: flag");
        assert_eq!(bits(&multi.lambda), bits(&unate.lambda), "{name}: lambda");
        assert_eq!(bits(&multi.mu), bits(&unate.mu), "{name}: mu");
        assert_eq!(
            bits(&multi.c_tilde),
            bits(&unate.c_tilde),
            "{name}: c_tilde"
        );
        assert_eq!(multi.best_solution, unate.best_solution, "{name}: cover");
        assert_eq!(multi.history, unate.history, "{name}: history");
    }

    /// The circulant `C(n, k)`: row `i` is covered by columns
    /// `i, …, i + k − 1 (mod n)`.
    fn circulant(n: usize, k: usize) -> CoverMatrix {
        CoverMatrix::from_rows(
            n,
            (0..n)
                .map(|i| (0..k).map(|d| (i + d) % n).collect())
                .collect(),
        )
    }

    #[test]
    fn unit_demand_constrained_loop_matches_unate_bit_for_bit() {
        let opts = SubgradientOptions {
            record_history: true,
            ..SubgradientOptions::default()
        };
        for n in [5usize, 7, 9, 11, 15] {
            assert_unit_demand_matches_unate(&format!("C{n}"), &circulant(n, 2), &opts, None, None);
        }
        let lambda0: Vec<f64> = (0..11).map(|i| 0.25 + 0.1 * (i % 3) as f64).collect();
        assert_unit_demand_matches_unate(
            "warm",
            &circulant(11, 2),
            &opts,
            Some(&lambda0),
            Some(6.0),
        );
        // The first 20 instances of the easy cyclic suite: the odd
        // circulants C(9..=37, 2), then the first five wider ones.
        let wide = [12usize, 16, 20, 24, 28].map(|n| (n, if n % 3 == 0 { 3 } else { 4 }));
        for (n, k) in (0..15).map(|i| (9 + 2 * i, 2)).chain(wide) {
            assert_unit_demand_matches_unate(
                &format!("C({n},{k})"),
                &circulant(n, k),
                &SubgradientOptions::default(),
                None,
                None,
            );
        }
    }

    /// Random instances with empty rows (uncoverable), empty columns,
    /// single-column rows and non-uniform costs. The loop takes the
    /// context unvalidated, so uncoverable rows are in scope here too.
    fn instance_strategy() -> impl Strategy<Value = CoverMatrix> {
        (3usize..=9).prop_flat_map(move |cols| {
            let row = prop::collection::btree_set(0..cols, 0..=cols.min(4));
            let rows = prop::collection::vec(row, 1..=10);
            let costs = prop::collection::vec(1u8..=5, cols);
            (rows, costs).prop_map(move |(rows, costs)| {
                CoverMatrix::with_costs(
                    cols,
                    rows.into_iter().map(|r| r.into_iter().collect()).collect(),
                    costs.into_iter().map(f64::from).collect(),
                )
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_unit_demand_constrained_loop_matches_unate(m in instance_strategy()) {
            let opts = SubgradientOptions {
                max_iters: 60,
                record_history: true,
                ..SubgradientOptions::default()
            };
            assert_unit_demand_matches_unate("random-unit-demand", &m, &opts, None, None);
        }
    }
}
