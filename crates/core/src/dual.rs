//! The dual problem `(D)`, dual ascent, and the dual Lagrangian relaxation
//! `(LD)` (§3.3 and §3.5 of the paper).
//!
//! The LP dual of the covering relaxation is
//!
//! ```text
//! max  e'm     s.t.   A'm ≤ c,   0 ≤ m ≤ c̄,    c̄_i = min_{j ∋ i} c_j
//! ```
//!
//! Any feasible `m` is simultaneously a lower bound `w(m) ≤ z*_P` **and** an
//! excellent Lagrangian multiplier vector (using it as `λ` reproduces the
//! same bound), which is why [`dual_ascent`] seeds the subgradient scheme.
//! Relaxing the dual constraints with multipliers `μ ≥ 0` gives `(LD)`,
//! whose value *upper*-bounds `z*_P` and serves as the `UB` in the primal
//! update formula.

use cover::CoverMatrix;

/// A feasible dual solution together with its value.
#[derive(Clone, Debug)]
pub struct DualSolution {
    /// Row variables `m`, feasible for `(D)`.
    pub m: Vec<f64>,
    /// Objective `w = e'm`, a lower bound on `z*_P`.
    pub value: f64,
}

/// Cap substituted for `+∞` row bounds so `∞ − ∞` never appears in the
/// ascent arithmetic. Any bound above every realistic `z_best` works: the
/// penalty tests only compare against finite incumbents.
pub(crate) const BIG_CAP: f64 = 1e12;

/// Per-row upper bounds `c̄_i = min_{j ∋ i} c_j` under an overridable cost
/// vector, with infinite caps clamped to [`BIG_CAP`]. A pure function of
/// the costs, which is why the ascent workspace hoists it out of the
/// iteration loop.
pub(crate) fn row_caps(a: &CoverMatrix, costs: &[f64]) -> Vec<f64> {
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

/// The two-phase **dual ascent** heuristic of §3.5.
///
/// Phase 1 starts from `init` (or from the caps `c̄`) and *decreases* row
/// variables — most-covered rows first — until every dual constraint holds.
/// Phase 2 *increases* them — least-covered rows first — by each row's
/// smallest remaining slack.
///
/// `costs` may differ from `a.costs()` (the dual penalty tests of §3.6 call
/// this with `c_j := 0` or `c_j := +∞`).
///
/// # Panics
///
/// Panics if `costs.len() != a.num_cols()` or if `init` is provided with the
/// wrong length.
///
/// # Example
///
/// ```
/// use cover::CoverMatrix;
/// use ucp_core::dual::dual_ascent;
///
/// let m = CoverMatrix::from_rows(
///     5,
///     vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
/// );
/// let d = dual_ascent(&m, m.costs(), None);
/// assert!(d.value >= 2.0); // the 5-cycle dual optimum is 2.5
/// assert!(d.value <= 2.5 + 1e-9);
/// ```
pub fn dual_ascent(a: &CoverMatrix, costs: &[f64], init: Option<&[f64]>) -> DualSolution {
    assert_eq!(costs.len(), a.num_cols(), "one cost per column");
    let caps = row_caps(a, costs);
    let mut m: Vec<f64> = match init {
        Some(v) => {
            assert_eq!(v.len(), a.num_rows(), "one dual variable per row");
            v.iter()
                .zip(&caps)
                .map(|(&x, &cap)| x.max(0.0).min(cap))
                .collect()
        }
        None => caps.clone(),
    };
    // Column loads Σ_{i ∋ j} m_i, maintained incrementally.
    let mut load = vec![0.0f64; a.num_cols()];
    for (i, row) in a.rows().iter().enumerate() {
        for &j in row {
            load[j] += m[i];
        }
    }

    // Phase 1: repair feasibility, most-covered rows first.
    let mut order: Vec<usize> = (0..a.num_rows()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(a.row(i).len()));
    for &i in &order {
        if m[i] <= 0.0 {
            continue;
        }
        let worst = a
            .row(i)
            .iter()
            .map(|&j| load[j] - costs[j])
            .fold(f64::NEG_INFINITY, f64::max);
        let dec = worst.max(0.0).min(m[i]);
        if dec > 0.0 {
            m[i] -= dec;
            for &j in a.row(i) {
                load[j] -= dec;
            }
        }
    }

    // Phase 2: improve, least-covered rows first.
    order.sort_by_key(|&i| a.row(i).len());
    for &i in &order {
        let slack = a
            .row(i)
            .iter()
            .map(|&j| costs[j] - load[j])
            .fold(f64::INFINITY, f64::min);
        let room = (caps[i] - m[i]).max(0.0);
        let inc = slack.min(room);
        if inc > 0.0 && inc.is_finite() {
            m[i] += inc;
            for &j in a.row(i) {
                load[j] += inc;
            }
        }
    }

    let value = m.iter().sum();
    DualSolution { m, value }
}

/// Checks dual feasibility `A'm ≤ c`, `0 ≤ m` (within tolerance).
pub fn is_dual_feasible(a: &CoverMatrix, costs: &[f64], m: &[f64]) -> bool {
    if m.iter().any(|&x| x < -1e-9) {
        return false;
    }
    let mut load = vec![0.0f64; a.num_cols()];
    for (i, row) in a.rows().iter().enumerate() {
        for &j in row {
            load[j] += m[i];
        }
    }
    load.iter().zip(costs).all(|(&l, &c)| l <= c + 1e-6)
}

/// The outcome of evaluating the dual Lagrangian relaxation `(LD)` at `μ`.
#[derive(Clone, Debug)]
pub struct DualLagEval {
    /// `w*_LD(μ) ≥ z*_P` — an upper bound on the LP optimum.
    pub value: f64,
    /// The relaxation's optimal row variables `m*` (`c̄_i` where profitable).
    pub m: Vec<f64>,
    /// The subgradient with respect to `μ`: `g_j = c_j − Σ_{i ∋ j} m*_i`
    /// (the Lagrangian cost of column `j` under `m*`).
    pub gradient: Vec<f64>,
    /// `‖g‖²`.
    pub gradient_norm2: f64,
}

/// Evaluates `(LD)` at `μ ≥ 0`:
///
/// ```text
/// max  ẽ'm + μ'c   s.t. 0 ≤ m ≤ c̄,    ẽ = e − Aμ
/// ```
///
/// Iterates the matrix's flat CSR view with the same fold orders as the
/// historical dense walk, so results are bit-identical to it (checked by
/// the equivalence suite against [`crate::reference`]).
///
/// # Panics
///
/// Panics if `mu.len() != a.num_cols()`.
pub fn eval_dual_lagrangian(a: &CoverMatrix, costs: &[f64], mu: &[f64]) -> DualLagEval {
    assert_eq!(mu.len(), a.num_cols(), "one multiplier per column");
    let view = a.sparse();
    let caps = row_caps(a, costs);
    let mut value: f64 = mu.iter().zip(costs).map(|(&u, &c)| u * c).sum();
    let mut m = vec![0.0f64; a.num_rows()];
    for (i, cap) in caps.iter().enumerate() {
        let mut sum = 0.0f64;
        for &j in view.row(i) {
            sum += mu[j as usize];
        }
        let e_tilde = 1.0 - sum;
        if e_tilde > 0.0 && cap.is_finite() {
            m[i] = *cap;
            value += e_tilde * cap;
        }
    }
    let mut gradient: Vec<f64> = costs.to_vec();
    for (i, &mi) in m.iter().enumerate() {
        if mi != 0.0 {
            for &j in view.row(i) {
                gradient[j as usize] -= mi;
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

/// One subgradient *descent* step on `μ` (mirror of eq. 2): since `w_LD` is
/// to be minimised, move against the gradient towards the best known lower
/// bound `lb`, clamping to `[0, 1]`.
pub fn step_mu(mut mu: Vec<f64>, eval: &DualLagEval, t: f64, lb: f64) -> Vec<f64> {
    if eval.gradient_norm2 <= 0.0 {
        return mu;
    }
    let scale = t * (eval.value - lb).abs() / eval.gradient_norm2;
    for (u, &g) in mu.iter_mut().zip(&eval.gradient) {
        *u = (*u - scale * g).clamp(0.0, 1.0);
    }
    mu
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
    fn ascent_produces_feasible_dual() {
        let m = cycle5();
        let d = dual_ascent(&m, m.costs(), None);
        assert!(is_dual_feasible(&m, m.costs(), &d.m));
        assert!(d.value > 0.0);
    }

    #[test]
    fn ascent_value_bounded_by_lp() {
        let m = cycle5();
        let d = dual_ascent(&m, m.costs(), None);
        assert!(d.value <= 2.5 + 1e-9, "weak duality violated: {}", d.value);
        // On the uniform 5-cycle, dual ascent reaches the MIS bound = 2.
        assert!(d.value >= 2.0 - 1e-9, "too weak: {}", d.value);
    }

    #[test]
    fn warm_start_is_respected_and_repaired() {
        let m = cycle5();
        // Grossly infeasible warm start: every row at 10.
        let d = dual_ascent(&m, m.costs(), Some(&[10.0; 5]));
        assert!(is_dual_feasible(&m, m.costs(), &d.m));
    }

    #[test]
    fn override_costs_for_penalties() {
        let m = CoverMatrix::from_rows(2, vec![vec![0, 1], vec![1]]);
        // Forcing column 1 out (c_1 = ∞) leaves column 0 as the only cover
        // of row 0 — the dual can charge row 1 nothing (its only column is 1
        // with infinite cap... it can charge up to c_0? no: row 1 ∋ only col 1).
        let costs = [1.0, f64::INFINITY];
        let d = dual_ascent(&m, &costs, None);
        assert!(is_dual_feasible(&m, &costs, &d.m));
        assert!(d.value.is_infinite() || d.value >= 1.0);
    }

    #[test]
    fn dual_lagrangian_upper_bounds_lp() {
        let m = cycle5();
        // μ = 0: w = Σ c̄_i = 5 ≥ z*_P = 2.5.
        let e = eval_dual_lagrangian(&m, m.costs(), &[0.0; 5]);
        assert!((e.value - 5.0).abs() < 1e-12);
        // μ = ½ everywhere: ẽ_i = 0, w = Σ μc = 2.5 — tight.
        let e2 = eval_dual_lagrangian(&m, m.costs(), &[0.5; 5]);
        assert!((e2.value - 2.5).abs() < 1e-12);
    }

    #[test]
    fn step_mu_descends() {
        let m = cycle5();
        let mu = vec![0.0; 5];
        let e = eval_dual_lagrangian(&m, m.costs(), &mu);
        let mu2 = step_mu(mu, &e, 1.0, 2.5);
        let e2 = eval_dual_lagrangian(&m, m.costs(), &mu2);
        assert!(e2.value <= e.value + 1e-9, "{} vs {}", e2.value, e.value);
        assert!(mu2.iter().all(|&u| (0.0..=1.0).contains(&u)));
    }

    #[test]
    fn dual_solution_value_is_lagrangian_bound() {
        // §3.3: using a feasible dual m as λ gives z_LP(λ) = w(m).
        use crate::relax::eval_primal;
        let m = cycle5();
        let d = dual_ascent(&m, m.costs(), None);
        let p = eval_primal(&m, &d.m);
        assert!((p.value - d.value).abs() < 1e-9);
    }
}
