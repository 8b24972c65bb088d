//! The four lower bounds of §3.4 (Proposition 1) side by side.
//!
//! Ordering (for a properly initialised Lagrangian process):
//!
//! ```text
//! LB_MIS ≤ LB_DA ≤ LB_Lagr ≤ z*_P (= LB_LR) ≤ z*_UCP
//! ```
//!
//! and under uniform costs `LB_MIS = LB_DA`. The LP-relaxation bound itself
//! lives in the `ucp-lp` crate (exact simplex); here we provide the three
//! combinatorial bounds plus a convenience report.

use crate::dual::dual_ascent;
use crate::subgradient::{ascent_impl, SubgradientOptions};
use cover::CoverMatrix;
use ucp_telemetry::NoopProbe;

/// A greedy maximal independent set of rows (pairwise column-disjoint),
/// picked in ascending row-size order — the classical seed of the MIS bound.
///
/// # Example
///
/// ```
/// use cover::CoverMatrix;
/// use ucp_core::bounds::independent_rows;
///
/// let m = CoverMatrix::from_rows(3, vec![vec![0], vec![1], vec![0, 1, 2]]);
/// assert_eq!(independent_rows(&m), vec![0, 1]);
/// ```
pub fn independent_rows(a: &CoverMatrix) -> Vec<usize> {
    let mut order: Vec<usize> = (0..a.num_rows()).collect();
    order.sort_by_key(|&i| (a.row(i).len(), i));
    let mut used_col = vec![false; a.num_cols()];
    let mut picked = Vec::new();
    for i in order {
        if a.row(i).iter().any(|&j| used_col[j]) {
            continue;
        }
        picked.push(i);
        for &j in a.row(i) {
            used_col[j] = true;
        }
    }
    picked.sort_unstable();
    picked
}

/// The maximal-independent-set lower bound:
/// `LB_MIS = Σ_{i ∈ MIS} min_{j ∋ i} c_j`.
pub fn mis_bound(a: &CoverMatrix) -> f64 {
    independent_rows(a).iter().map(|&i| a.min_row_cost(i)).sum()
}

/// The dual-ascent lower bound `LB_DA = w(m)` for the heuristic dual
/// solution of §3.5.
///
/// Proposition 1 guarantees `LB_DA ≥ LB_MIS` only for a *properly
/// initialised* ascent (the paper's wording): every independent set of rows
/// is a feasible dual solution, so seeding phase 2 with the MIS witness and
/// taking the better of that run and the default (cap-initialised) run
/// restores the dominance unconditionally.
pub fn dual_ascent_bound(a: &CoverMatrix) -> f64 {
    let plain = dual_ascent(a, a.costs(), None).value;
    // MIS-seeded: m_i = c̄_i on the independent rows, 0 elsewhere — feasible
    // by construction, so phase 1 is a no-op and phase 2 only improves.
    let mut seed = vec![0.0f64; a.num_rows()];
    for i in independent_rows(a) {
        seed[i] = a.min_row_cost(i);
    }
    let seeded = dual_ascent(a, a.costs(), Some(&seed)).value;
    plain.max(seeded)
}

/// The Lagrangian lower bound after a (default-length) subgradient phase,
/// initialised from dual ascent so that Proposition 1's dominance holds.
pub fn lagrangian_bound(a: &CoverMatrix) -> f64 {
    let opts = SubgradientOptions::default();
    let r = ascent_impl(a, &opts, None, None, None, &mut NoopProbe);
    r.lb.max(dual_ascent_bound(a))
}

/// All three combinatorial bounds of Proposition 1 (the LP bound is computed
/// separately with `ucp-lp`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BoundsReport {
    /// Maximal-independent-set bound.
    pub mis: f64,
    /// Dual-ascent bound.
    pub dual_ascent: f64,
    /// Lagrangian (subgradient) bound.
    pub lagrangian: f64,
}

/// Computes the three bounds on one matrix.
pub fn bounds_report(a: &CoverMatrix) -> BoundsReport {
    BoundsReport {
        mis: mis_bound(a),
        dual_ascent: dual_ascent_bound(a),
        lagrangian: lagrangian_bound(a),
    }
}

impl BoundsReport {
    /// Checks the dominance chain of Proposition 1 (within tolerance).
    pub fn satisfies_proposition_1(&self) -> bool {
        self.mis <= self.dual_ascent + 1e-6 && self.dual_ascent <= self.lagrangian + 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> CoverMatrix {
        CoverMatrix::from_rows(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
    }

    #[test]
    fn independent_rows_are_disjoint() {
        let m = cycle(7);
        let mis = independent_rows(&m);
        let mut used = [false; 7];
        for &i in &mis {
            for &j in m.row(i) {
                assert!(!used[j], "rows share column {j}");
                used[j] = true;
            }
        }
        assert_eq!(mis.len(), 3); // ⌊7/2⌋ disjoint edges of C7
    }

    #[test]
    fn chain_on_odd_cycles() {
        for n in [5usize, 7, 9] {
            let m = cycle(n);
            let r = bounds_report(&m);
            assert!(r.satisfies_proposition_1(), "chain broken on C{n}: {r:?}");
            // Uniform costs: MIS = floor(n/2); Lagrangian ≈ n/2 > MIS.
            assert_eq!(r.mis, (n / 2) as f64);
            assert!(r.lagrangian > r.mis + 0.4, "lagrangian not stronger: {r:?}");
        }
    }

    #[test]
    fn uniform_costs_mis_equals_dual_ascent_on_intersecting_rows() {
        // All rows pairwise intersect through column 0-ish structure:
        // MIS has a single row, bound 1; integer dual solutions are exactly
        // independent sets (Prop. 1), so dual ascent cannot exceed... it can
        // exceed via fractional values; on this instance it stays 1.
        let m = CoverMatrix::from_rows(3, vec![vec![0, 1], vec![0, 2], vec![0, 1, 2]]);
        let r = bounds_report(&m);
        assert_eq!(r.mis, 1.0);
        assert!(r.satisfies_proposition_1());
    }

    #[test]
    fn bounds_never_exceed_optimum() {
        // Optimum of C5 is 3.
        let m = cycle(5);
        let r = bounds_report(&m);
        assert!(r.lagrangian <= 3.0 + 1e-9);
        assert!(r.mis <= 3.0);
        assert!(r.dual_ascent <= 3.0 + 1e-9);
    }
}
