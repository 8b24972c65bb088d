//! The pre-CSR **dense reference implementations** of the subgradient
//! phase, kept verbatim as the oracle for the equivalence suite
//! (`tests/subgradient_equivalence.rs`).
//!
//! The live inner loop ([`crate::subgradient`]) iterates flat CSR/CSC
//! `u32` index slices with reusable scratch buffers and incremental
//! reduced-cost maintenance; these functions are the straightforward
//! `Vec<Vec<usize>>`-walking versions they replaced. The rework's
//! contract is *bit-identical* results — every float here is produced by
//! the same operations in the same order as in the live path — so the
//! suite compares entire [`SubgradientResult`]s with exact `f64`
//! equality.
//!
//! Semantics intentionally shared with the live loop (not historical):
//! the greedy schedule of [`SubgradientOptions::heuristic_period`] (a
//! pass on the period and on every bound-improving iteration, the rule
//! rotating over the passes run, `0` = off), kept here as its own copy
//! so the suite cross-checks it, and the optimality certificate, which
//! goes through [`crate::subgradient`]'s single `certified` predicate.
//!
//! Not part of the supported API (`#[doc(hidden)]`): only the test suite
//! should call these.

use crate::dual::{dual_ascent, step_mu, DualLagEval, BIG_CAP};
use crate::greedy::GammaRule;
use crate::relax::{step_lambda, PrimalEval};
use crate::subgradient::{certified, HistoryPoint, SubgradientOptions, SubgradientResult};
use cover::{CoverMatrix, Solution};

/// Dense [`crate::relax::eval_primal`]: rebuilds all `n` reduced costs
/// from scratch by walking the row lists.
pub fn eval_primal_dense(a: &CoverMatrix, lambda: &[f64]) -> PrimalEval {
    assert_eq!(lambda.len(), a.num_rows(), "one multiplier per row");
    let n = a.num_cols();
    let mut c_tilde: Vec<f64> = a.costs().to_vec();
    for (i, row) in a.rows().iter().enumerate() {
        let l = lambda[i];
        if l != 0.0 {
            for &j in row {
                c_tilde[j] -= l;
            }
        }
    }
    let p: Vec<bool> = c_tilde.iter().map(|&c| c <= 0.0).collect();
    let mut value: f64 = lambda.iter().sum();
    for j in 0..n {
        if p[j] {
            value += c_tilde[j];
        }
    }
    let mut subgradient = vec![0.0f64; a.num_rows()];
    let mut violated = 0usize;
    let mut norm2 = 0.0f64;
    for (i, row) in a.rows().iter().enumerate() {
        let covered = row.iter().filter(|&&j| p[j]).count() as f64;
        let s = 1.0 - covered;
        if s > 0.0 {
            violated += 1;
        }
        subgradient[i] = s;
        norm2 += s * s;
    }
    PrimalEval {
        value,
        c_tilde,
        p,
        subgradient,
        subgradient_norm2: norm2,
        violated,
    }
}

/// Dense per-call row caps `c̄_i = min_{j ∋ i} c_j`, clamped to the
/// shared [`BIG_CAP`].
fn row_caps_dense(a: &CoverMatrix, costs: &[f64]) -> Vec<f64> {
    (0..a.num_rows())
        .map(|i| {
            a.row(i)
                .iter()
                .map(|&j| costs[j])
                .fold(f64::INFINITY, f64::min)
                .min(BIG_CAP)
        })
        .collect()
}

/// Dense [`crate::dual::eval_dual_lagrangian`]: recomputes the caps and
/// the full gradient every call.
pub fn eval_dual_lagrangian_dense(a: &CoverMatrix, costs: &[f64], mu: &[f64]) -> DualLagEval {
    assert_eq!(mu.len(), a.num_cols(), "one multiplier per column");
    let caps = row_caps_dense(a, costs);
    let mut value: f64 = mu.iter().zip(costs).map(|(&u, &c)| u * c).sum();
    let mut m = vec![0.0f64; a.num_rows()];
    for (i, row) in a.rows().iter().enumerate() {
        let e_tilde = 1.0 - row.iter().map(|&j| mu[j]).sum::<f64>();
        if e_tilde > 0.0 && caps[i].is_finite() {
            m[i] = caps[i];
            value += e_tilde * caps[i];
        }
    }
    let mut gradient: Vec<f64> = costs.to_vec();
    for (i, row) in a.rows().iter().enumerate() {
        if m[i] != 0.0 {
            for &j in row {
                gradient[j] -= m[i];
            }
        }
    }
    let gradient_norm2 = gradient.iter().map(|g| g * g).sum();
    DualLagEval {
        value,
        m,
        gradient,
        gradient_norm2,
    }
}

/// Dense [`crate::greedy::lagrangian_greedy`]: recomputes every
/// column's uncovered count `n_j` from the column lists on every pick.
#[allow(clippy::needless_range_loop)] // mirrors the original scan shape
pub fn lagrangian_greedy_dense(
    a: &CoverMatrix,
    c_tilde: &[f64],
    rule: GammaRule,
) -> Option<Solution> {
    assert_eq!(c_tilde.len(), a.num_cols(), "one rating cost per column");
    let n = a.num_cols();
    let mut selected = vec![false; n];
    let mut covered = vec![false; a.num_rows()];
    let mut uncovered = a.num_rows();

    // Seed with the Lagrangian relaxation's solution.
    for j in 0..n {
        if c_tilde[j] <= 0.0 {
            selected[j] = true;
            for &i in a.col_rows(j) {
                if !covered[i] {
                    covered[i] = true;
                    uncovered -= 1;
                }
            }
        }
    }

    while uncovered > 0 {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..n {
            if selected[j] {
                continue;
            }
            let n_j = a.col_rows(j).iter().filter(|&&i| !covered[i]).count();
            if n_j == 0 {
                continue;
            }
            let gamma = rate_dense(a, c_tilde, j, n_j, &covered, rule);
            let better = match best {
                None => true,
                Some((bj, bg)) => {
                    gamma < bg - 1e-12
                        || ((gamma - bg).abs() <= 1e-12 && (a.cost(j), j) < (a.cost(bj), bj))
                }
            };
            if better {
                best = Some((j, gamma));
            }
        }
        let (j, _) = best?; // no column covers a remaining row: infeasible
        selected[j] = true;
        for &i in a.col_rows(j) {
            if !covered[i] {
                covered[i] = true;
                uncovered -= 1;
            }
        }
    }

    let mut sol: Solution = (0..n).filter(|&j| selected[j]).collect();
    sol.make_irredundant(a);
    Some(sol)
}

fn rate_dense(
    a: &CoverMatrix,
    c_tilde: &[f64],
    j: usize,
    n_j: usize,
    covered: &[bool],
    rule: GammaRule,
) -> f64 {
    let c = c_tilde[j].max(0.0);
    let nf = n_j as f64;
    match rule {
        GammaRule::Linear => c / nf,
        GammaRule::Log => c / (nf + 1.0).log2(),
        GammaRule::LinearLog => c / (nf * (nf + 1.0).log2()),
        GammaRule::Occurrence => {
            let mut weight = 0.0f64;
            for &i in a.col_rows(j) {
                if covered[i] {
                    continue;
                }
                let occ = a.row(i).len();
                weight += if occ > 1 {
                    1.0 / (occ as f64 - 1.0)
                } else {
                    // Essential row: make its column irresistible.
                    1e9
                };
            }
            c / weight
        }
    }
}

/// Dense best-of-rules unate greedy: the cheapest cover over `rules`.
pub fn best_greedy_dense(
    a: &CoverMatrix,
    c_tilde: &[f64],
    rules: &[GammaRule],
) -> Option<(Solution, f64)> {
    let mut best: Option<(Solution, f64)> = None;
    for &rule in rules {
        if let Some(sol) = lagrangian_greedy_dense(a, c_tilde, rule) {
            let cost = sol.cost(a);
            match &best {
                Some((_, bc)) if *bc <= cost => {}
                _ => best = Some((sol, cost)),
            }
        }
    }
    best
}

/// Dense [`crate::subgradient_ascent`]: the pre-rework loop, cloning
/// `lambda`/`c_tilde` on every improving iteration and re-deriving all
/// reduced costs per iteration through [`eval_primal_dense`].
pub fn subgradient_ascent_dense(
    a: &CoverMatrix,
    opts: &SubgradientOptions,
    lambda0: Option<&[f64]>,
    ub_hint: Option<f64>,
) -> SubgradientResult {
    let integer_costs = a.integer_costs();

    // λ0: warm start or dual ascent (§3.3).
    let mut lambda: Vec<f64> = match lambda0 {
        Some(l) => {
            assert_eq!(l.len(), a.num_rows(), "warm-start λ has wrong length");
            l.to_vec()
        }
        None => dual_ascent(a, a.costs(), None).m,
    };

    // Initial heuristic run (rule 4 included when requested) to seed μ0
    // and the incumbent.
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
    if let Some((sol, cost)) = best_greedy_dense(a, a.costs(), rules) {
        best_cost = cost;
        best_solution = Some(sol);
    }
    let mut mu = vec![0.0f64; a.num_cols()];
    if let Some(sol) = &best_solution {
        for &j in sol.cols() {
            mu[j] = 1.0;
        }
    }

    let mut lb = f64::NEG_INFINITY;
    let mut best_lambda = lambda.clone();
    let mut best_c_tilde: Vec<f64> = a.costs().to_vec();
    let mut ub_ld = f64::INFINITY;
    let mut t = opts.t0;
    let mut since_improve = 0usize;
    let mut iterations = 0usize;
    let mut passes = 0usize;
    let mut history: Vec<HistoryPoint> = Vec::new();

    let target_ub = |best_cost: f64, ub_ld: f64| -> f64 {
        let hint = ub_hint.unwrap_or(f64::INFINITY);
        best_cost.min(hint).min(ub_ld)
    };

    for k in 0..opts.max_iters {
        iterations = k + 1;
        let p_eval = eval_primal_dense(a, &lambda);
        let improved = p_eval.value > lb + 1e-12;
        if improved {
            lb = p_eval.value;
            best_lambda = lambda.clone();
            best_c_tilde = p_eval.c_tilde.clone();
            since_improve = 0;
        } else {
            since_improve += 1;
            if since_improve >= opts.halving_patience {
                t *= 0.5;
                since_improve = 0;
            }
        }

        // Auxiliary primal heuristic on the current Lagrangian costs: on
        // the period and on bound-improving iterations, rotating the rule
        // over the passes run.
        let period = opts.heuristic_period;
        if period != 0 && (k % period == 0 || improved) {
            let rule = GammaRule::FAST[passes % GammaRule::FAST.len()];
            passes += 1;
            if let Some(sol) = lagrangian_greedy_dense(a, &p_eval.c_tilde, rule) {
                let cost = sol.cost(a);
                if cost < best_cost {
                    best_cost = cost;
                    best_solution = Some(sol);
                }
            }
        }

        // Dual side: evaluate (LD), tighten the upper bound, step μ.
        let d_eval = eval_dual_lagrangian_dense(a, a.costs(), &mu);
        ub_ld = ub_ld.min(d_eval.value);
        let ub = target_ub(best_cost, ub_ld);
        if opts.record_history {
            history.push(HistoryPoint {
                z_lambda: p_eval.value,
                lb,
                ub_ld,
                t,
            });
        }
        let certificate = certified(integer_costs, lb, best_cost);
        let gap_closed = ub.is_finite() && ub - p_eval.value < opts.delta * ub.abs().max(1.0);
        let step_exhausted = t < opts.t_min;
        let stationary = p_eval.subgradient_norm2 <= 0.0 && d_eval.gradient_norm2 <= 0.0;

        if certificate || gap_closed || step_exhausted || stationary {
            break;
        }

        let ub_for_step = if ub.is_finite() {
            ub
        } else {
            p_eval.value + 1.0
        };
        lambda = step_lambda(lambda, &p_eval, t, ub_for_step);
        let lb_for_step = if lb.is_finite() { lb } else { 0.0 };
        mu = step_mu(mu, &d_eval, t, lb_for_step);
    }

    let proven_optimal = certified(integer_costs, lb, best_cost);

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
