//! Penalty conditions (§3.6): cost-driven column fixing that generalises the
//! limit-bound theorem.
//!
//! Both families perform an implicit branch on a column and prune one side
//! with a lower bound:
//!
//! * **Lagrangian penalties** (eqs. 3–4) read the pruning bound directly off
//!   the Lagrangian costs: excluding a cheap column (`c̃_j ≤ 0`) costs at
//!   least `z*_LP − c̃_j`; including an expensive one costs at least
//!   `z*_LP + c̃_j`.
//! * **Dual penalties** (eqs. 5–6) re-run dual ascent with the column's cost
//!   forced to `+∞` (to prove `p_j = 1`) or `0` (to prove `p_j = 0`). They
//!   are stronger but cost a dual-ascent run per column, so the driver skips
//!   them above `DualPen` columns.

use crate::dual::dual_ascent;
use cover::CoverMatrix;

/// Columns proven in or out of some optimal solution no worse than the
/// incumbent.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PenaltyOutcome {
    /// Columns that must be taken (`p_j = 1`).
    pub fix_in: Vec<usize>,
    /// Columns that can be discarded (`p_j = 0`).
    pub fix_out: Vec<usize>,
    /// `true` when some column was provable both ways — no solution beats
    /// the incumbent, so the caller can stop refining this subproblem.
    pub no_improvement_possible: bool,
}

const EPS: f64 = 1e-9;

/// Lagrangian penalties (eqs. 3–4) at a multiplier vector with bound
/// `lb = z*_LP(λ)` against the incumbent value `ub` (both for the *current*
/// submatrix).
///
/// # Example
///
/// ```
/// use ucp_core::penalty::lagrangian_penalties;
///
/// // lb = 4, incumbent 5: a column with c̃ = +2 would push past 5 → out.
/// let out = lagrangian_penalties(&[2.0, 0.5, -0.5], 4.0, 5.0);
/// assert_eq!(out.fix_out, vec![0]);
/// assert!(out.fix_in.is_empty()); // 4 − (−0.5) = 4.5 < 5
/// ```
pub fn lagrangian_penalties(c_tilde: &[f64], lb: f64, ub: f64) -> PenaltyOutcome {
    let mut out = PenaltyOutcome::default();
    if !ub.is_finite() {
        return out;
    }
    for (j, &ct) in c_tilde.iter().enumerate() {
        if ct <= 0.0 {
            if lb - ct >= ub - EPS {
                out.fix_in.push(j);
            }
        } else if lb + ct >= ub - EPS {
            out.fix_out.push(j);
        }
    }
    out
}

/// Dual penalties (eqs. 5–6): for every column, rerun dual ascent with its
/// cost overridden and compare against `ub`.
///
/// `base_m` warm-starts the ascent (any dual-feasible or even infeasible
/// vector; phase 1 repairs it). Cost overrides: `c_j := +∞` proves
/// `p_j = 1`; `c_j := 0` (value then re-increased by `c_j`) proves
/// `p_j = 0`.
pub fn dual_penalties(a: &CoverMatrix, base_m: &[f64], ub: f64) -> PenaltyOutcome {
    let mut out = PenaltyOutcome::default();
    if !ub.is_finite() {
        return out;
    }
    let mut costs: Vec<f64> = a.costs().to_vec();
    let mut in_set = vec![false; a.num_cols()];
    let mut out_set = vec![false; a.num_cols()];
    for j in 0..a.num_cols() {
        let orig = costs[j];
        // (5): no solution without j beats ub ⇒ take j.
        costs[j] = f64::INFINITY;
        let w0 = dual_ascent(a, &costs, Some(base_m)).value;
        if w0 >= ub - EPS {
            in_set[j] = true;
        }
        // (6): every solution with j costs ≥ w(D)|c_j=0 + c_j.
        costs[j] = 0.0;
        let w1 = dual_ascent(a, &costs, Some(base_m)).value + orig;
        if w1 >= ub - EPS {
            out_set[j] = true;
        }
        costs[j] = orig;
    }
    for j in 0..a.num_cols() {
        match (in_set[j], out_set[j]) {
            (true, true) => out.no_improvement_possible = true,
            (true, false) => out.fix_in.push(j),
            (false, true) => out.fix_out.push(j),
            (false, false) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classical **limit-bound theorem** (Theorem 2; Coudert's form): given
    /// an independent set of rows with bound `lb_mis`, any column covering none
    /// of those rows and with `lb_mis + c_j ≥ ub` can be removed.
    ///
    /// The baseline of Proposition 3: every column it removes, the dual
    /// penalties remove too.
    fn limit_bound_removals(
        a: &CoverMatrix,
        independent_rows: &[usize],
        lb_mis: f64,
        ub: f64,
    ) -> Vec<usize> {
        if !ub.is_finite() {
            return Vec::new();
        }
        let mut in_mis = vec![false; a.num_rows()];
        for &i in independent_rows {
            in_mis[i] = true;
        }
        (0..a.num_cols())
            .filter(|&j| {
                a.col_rows(j).iter().all(|&i| !in_mis[i]) && lb_mis + a.cost(j) >= ub - EPS
            })
            .collect()
    }

    #[test]
    fn lagrangian_fixes_cheap_columns_in() {
        // lb = 10, ub = 10.5: a column with c̃ = −1 ⇒ excluding it costs
        // ≥ 11 > ub ⇒ it is in.
        let out = lagrangian_penalties(&[-1.0, 0.2, 1.0], 10.0, 10.5);
        assert_eq!(out.fix_in, vec![0]);
        assert_eq!(out.fix_out, vec![2]);
        assert!(!out.no_improvement_possible);
    }

    #[test]
    fn no_ub_no_penalties() {
        let out = lagrangian_penalties(&[-5.0, 5.0], 0.0, f64::INFINITY);
        assert!(out.fix_in.is_empty() && out.fix_out.is_empty());
    }

    #[test]
    fn dual_penalty_detects_essential_column() {
        // Row 1 is covered only by column 1: setting c_1 = ∞ makes the dual
        // unbounded (capped huge) ⇒ p_1 = 1 for any finite incumbent.
        let a = CoverMatrix::from_rows(2, vec![vec![0, 1], vec![1]]);
        let base = vec![0.0; 2];
        let out = dual_penalties(&a, &base, 2.0);
        assert!(out.fix_in.contains(&1));
    }

    #[test]
    fn dual_penalty_discards_useless_expensive_column() {
        // Column 0 costs 5 and covers one row that column 1 (cost 1) also
        // covers; with incumbent 2 the dual proves p_0 = 0:
        // w|c_0=0 ≥ 0 and + 5 ≥ 2.
        let a = CoverMatrix::with_costs(2, vec![vec![0, 1]], vec![5.0, 1.0]);
        let out = dual_penalties(&a, &[0.0], 2.0);
        assert!(out.fix_out.contains(&0));
        assert!(!out.fix_out.contains(&1));
    }

    #[test]
    fn limit_bound_matches_theorem() {
        // Rows 0 and 1 are disjoint: MIS = {0, 1}, bound = 2 with unit costs.
        // Column 2 covers neither and costs 1: 2 + 1 ≥ 3 = ub ⇒ removable.
        let a = CoverMatrix::from_rows(3, vec![vec![0], vec![1], vec![2]]);
        let removed = limit_bound_removals(&a, &[0, 1], 2.0, 3.0);
        assert_eq!(removed, vec![2]);
    }

    #[test]
    fn proposition_3_dual_subsumes_limit_bound() {
        // Every limit-bound removal must also be a dual-penalty removal
        // (Proposition 3 of the paper).
        let a = CoverMatrix::from_rows(3, vec![vec![0], vec![1], vec![2]]);
        let ub = 3.0;
        let lb_removed = limit_bound_removals(&a, &[0, 1], 2.0, ub);
        let dual_removed = dual_penalties(&a, &[1.0, 1.0, 0.0], ub);
        for j in lb_removed {
            assert!(
                dual_removed.fix_out.contains(&j) || dual_removed.no_improvement_possible,
                "column {j} removed by limit bound but not by dual penalties"
            );
        }
    }
}
