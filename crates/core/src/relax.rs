//! The primal Lagrangian relaxation `(LP)` of the covering ILP (§3.1–3.2).
//!
//! Dualising the covering constraints `Ap ≥ e` with multipliers `λ ≥ 0`
//! yields
//!
//! ```text
//! min  c̃'p + λ'e      s.t.  0 ≤ p ≤ e,      c̃ = c − A'λ
//! ```
//!
//! whose optimum is reached by setting `p_j = 1` exactly when `c̃_j ≤ 0`.
//! Its value is a lower bound on `z*_P` (and thus on `z*_UCP`) for every
//! `λ ≥ 0`; the covering violations `s = e − A p*` are a subgradient used to
//! steer `λ`.

use cover::CoverMatrix;

/// The outcome of evaluating `(LP)` at a fixed multiplier vector `λ`.
#[derive(Clone, Debug)]
pub struct PrimalEval {
    /// The Lagrangian bound `z*_LP(λ) ≤ z*_P`.
    pub value: f64,
    /// Lagrangian costs `c̃_j = c_j − Σ_{i ∋ j} λ_i`.
    pub c_tilde: Vec<f64>,
    /// The relaxation's optimal (integer, usually infeasible) solution:
    /// `p_j = 1 ⇔ c̃_j ≤ 0`.
    pub p: Vec<bool>,
    /// The subgradient `s = e − A p*` (per row; positive = still uncovered).
    pub subgradient: Vec<f64>,
    /// Squared norm `‖s‖²`, precomputed for the update formula.
    pub subgradient_norm2: f64,
    /// Number of violated covering constraints (`s_i > 0`).
    pub violated: usize,
}

impl PrimalEval {
    /// Returns `true` when `p*` already covers every row — then `p*` is an
    /// optimal solution of the *unrelaxed* problem restricted to `λ`'s
    /// support and the subgradient step is stationary.
    pub fn is_feasible(&self) -> bool {
        self.violated == 0
    }
}

/// Evaluates the primal Lagrangian relaxation of `a` at `λ`.
///
/// # Panics
///
/// Panics if `lambda.len() != a.num_rows()`.
///
/// # Example
///
/// ```
/// use cover::CoverMatrix;
/// use ucp_core::relax::eval_primal;
///
/// let m = CoverMatrix::from_rows(2, vec![vec![0], vec![0, 1]]);
/// // λ = 0: nothing is selected and the bound is 0.
/// let at_zero = eval_primal(&m, &[0.0, 0.0]);
/// assert_eq!(at_zero.value, 0.0);
/// assert_eq!(at_zero.violated, 2);
/// // λ = (1, 0): column 0 becomes free, the bound rises to 1.
/// let at_one = eval_primal(&m, &[1.0, 0.0]);
/// assert_eq!(at_one.value, 1.0);
/// assert!(at_one.p[0]);
/// ```
pub fn eval_primal(a: &CoverMatrix, lambda: &[f64]) -> PrimalEval {
    assert_eq!(lambda.len(), a.num_rows(), "one multiplier per row");
    let view = a.sparse();
    let n = a.num_cols();
    // Each reduced cost is rebuilt over the CSC column slice in ascending
    // row order — the same subtraction sequence per column as the
    // historical dense row-major walk, so the floats are bit-identical
    // (checked by the equivalence suite against `crate::reference`).
    let mut c_tilde: Vec<f64> = a.costs().to_vec();
    for (j, c) in c_tilde.iter_mut().enumerate() {
        for &i in view.col(j) {
            let l = lambda[i as usize];
            if l != 0.0 {
                *c -= l;
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
    for (i, s_out) in subgradient.iter_mut().enumerate() {
        let covered = view.row(i).iter().filter(|&&j| p[j as usize]).count() as f64;
        let s = 1.0 - covered;
        if s > 0.0 {
            violated += 1;
        }
        *s_out = s;
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

/// One subgradient ascent step (eq. 2 of the paper):
///
/// ```text
/// λ_{k+1} = max(λ_k + t_k · s · |UB − z_λ| / ‖s‖², 0)
/// ```
///
/// Returns the updated multipliers; `lambda` is consumed and reused.
pub fn step_lambda(mut lambda: Vec<f64>, eval: &PrimalEval, t: f64, ub: f64) -> Vec<f64> {
    if eval.subgradient_norm2 <= 0.0 {
        return lambda;
    }
    let scale = t * (ub - eval.value).abs() / eval.subgradient_norm2;
    for (l, &s) in lambda.iter_mut().zip(&eval.subgradient) {
        *l = (*l + scale * s).max(0.0);
    }
    lambda
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle5() -> CoverMatrix {
        CoverMatrix::from_rows(
            5,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
        )
    }

    #[test]
    fn zero_multipliers_give_zero_bound() {
        let m = cycle5();
        let e = eval_primal(&m, &[0.0; 5]);
        assert_eq!(e.value, 0.0);
        assert_eq!(e.violated, 5);
        assert!(!e.is_feasible());
        assert_eq!(e.subgradient_norm2, 5.0);
    }

    #[test]
    fn uniform_half_multipliers_reach_lp_bound() {
        // λ = ½ on every row of the 5-cycle: c̃_j = 1 − 2·½ = 0 ⇒ all
        // selected at reduced cost 0, bound = Σλ = 2.5 = z*_P.
        let m = cycle5();
        let e = eval_primal(&m, &[0.5; 5]);
        assert!((e.value - 2.5).abs() < 1e-12);
        assert!(e.is_feasible());
        assert!(e.p.iter().all(|&b| b));
    }

    #[test]
    fn overshooting_multipliers_lower_the_bound() {
        // λ = 1 everywhere: c̃_j = −1, value = Σ c̃(selected) + Σλ = −5 + 5 = 0.
        let m = cycle5();
        let e = eval_primal(&m, &[1.0; 5]);
        assert!((e.value - 0.0).abs() < 1e-12);
        // All constraints over-covered: subgradient negative.
        assert_eq!(e.violated, 0);
        assert!(e.subgradient.iter().all(|&s| s < 0.0));
    }

    #[test]
    fn step_moves_towards_violated_rows() {
        let m = cycle5();
        let e = eval_primal(&m, &[0.0; 5]);
        let l2 = step_lambda(vec![0.0; 5], &e, 1.0, 2.5);
        // All rows equally violated: uniform increase of 2.5/5 = 0.5.
        for l in &l2 {
            assert!((l - 0.5).abs() < 1e-12);
        }
        // And that step lands exactly on the LP optimum for this instance.
        let e2 = eval_primal(&m, &l2);
        assert!((e2.value - 2.5).abs() < 1e-12);
    }

    #[test]
    fn step_never_goes_negative() {
        let m = cycle5();
        let e = eval_primal(&m, &[1.0; 5]); // negative subgradient
        let l2 = step_lambda(vec![1.0; 5], &e, 10.0, 5.0);
        assert!(l2.iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn bound_respects_costs() {
        let m = CoverMatrix::with_costs(2, vec![vec![0, 1]], vec![4.0, 7.0]);
        let e = eval_primal(&m, &[4.0]);
        // c̃ = (0, 3): select col 0 at 0, bound = 4 = cheapest cover.
        assert!((e.value - 4.0).abs() < 1e-12);
        assert!(e.is_feasible());
    }
}
