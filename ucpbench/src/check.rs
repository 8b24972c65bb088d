//! Independent answer checks: nothing here trusts the solver's own
//! report of cost, feasibility or optimality.

use cover::{Constraints, CoverMatrix, Solution};

/// What the checks established about one returned cover.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Checked {
    /// Cost recomputed from the returned columns.
    pub cost: f64,
    /// The bound proves the cost optimal (recomputed, not read from the
    /// solver's `proven_optimal`).
    pub certified: bool,
}

/// Checks a cover returned for `m` under `constraints`: columns in range
/// and distinct, every row covered as often as it demands, every GUB
/// group within its bound, the reported cost equal to the columns' cost,
/// and `lower_bound ≤ cost`.
pub fn cover(
    m: &CoverMatrix,
    constraints: &Constraints,
    cols: &[usize],
    reported_cost: f64,
    lower_bound: f64,
) -> Result<Checked, String> {
    let mut chosen = vec![false; m.num_cols()];
    for &j in cols {
        if j >= m.num_cols() {
            return Err(format!(
                "column {j} out of range ({} columns)",
                m.num_cols()
            ));
        }
        if std::mem::replace(&mut chosen[j], true) {
            return Err(format!("column {j} chosen twice"));
        }
    }
    let mut covered = vec![0u32; m.num_rows()];
    for &j in cols {
        for &i in m.col_rows(j) {
            covered[i] += 1;
        }
    }
    if let Some(i) = (0..m.num_rows()).find(|&i| covered[i] < constraints.demand_of(i)) {
        return Err(format!(
            "row {i} covered {} times, demands {}",
            covered[i],
            constraints.demand_of(i)
        ));
    }
    for (g, group) in constraints.groups().iter().enumerate() {
        let used = group.cols().iter().filter(|&&j| chosen[j]).count();
        if used > group.bound() as usize {
            return Err(format!(
                "GUB group {g} uses {used} columns, bound {}",
                group.bound()
            ));
        }
    }
    let solution = Solution::from_cols(cols.to_vec());
    if !constraints.is_satisfied(m, &solution) {
        return Err("Constraints::is_satisfied rejects a cover the recount accepts".into());
    }
    let cost: f64 = cols.iter().map(|&j| m.cost(j)).sum();
    if (cost - reported_cost).abs() > 1e-6 * cost.abs().max(1.0) {
        return Err(format!(
            "reported cost {reported_cost}, columns cost {cost}"
        ));
    }
    if !lower_bound.is_finite() || lower_bound > cost + 1e-6 {
        return Err(format!("lower bound {lower_bound} above cost {cost}"));
    }
    Ok(Checked {
        cost,
        certified: certified(m.costs(), cost, lower_bound),
    })
}

/// Whether `lower_bound` proves `cost` optimal. With integer costs every
/// cover costs an integer, so a bound within one of the cost proves it.
pub fn certified(costs: &[f64], cost: f64, lower_bound: f64) -> bool {
    let integral = costs.iter().all(|c| c.fract() == 0.0);
    if integral {
        cost <= (lower_bound - 1e-6).ceil() + 1e-9
    } else {
        cost <= lower_bound + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cover::GubGroup;

    fn triangle() -> CoverMatrix {
        CoverMatrix::from_rows(3, vec![vec![0, 1], vec![1, 2], vec![2, 0]])
    }

    #[test]
    fn accepts_a_valid_cover_and_recomputes_certification() {
        let m = triangle();
        let ok = cover(&m, &Constraints::unate(), &[0, 1], 2.0, 1.5).unwrap();
        assert_eq!(ok.cost, 2.0);
        assert!(ok.certified, "⌈1.5⌉ = 2 proves cost 2 optimal");
        let loose = cover(&m, &Constraints::unate(), &[0, 1, 2], 3.0, 1.5).unwrap();
        assert!(!loose.certified);
    }

    #[test]
    fn rejects_uncovered_rows_wrong_costs_and_high_bounds() {
        let m = triangle();
        let unate = Constraints::unate();
        assert!(cover(&m, &unate, &[0], 1.0, 1.0)
            .unwrap_err()
            .contains("row 1"));
        assert!(cover(&m, &unate, &[0, 1], 1.0, 1.0)
            .unwrap_err()
            .contains("reported cost"));
        assert!(cover(&m, &unate, &[0, 1], 2.0, 2.5)
            .unwrap_err()
            .contains("lower bound"));
        assert!(cover(&m, &unate, &[0, 0, 1], 2.0, 1.0)
            .unwrap_err()
            .contains("twice"));
        assert!(cover(&m, &unate, &[0, 7], 2.0, 1.0)
            .unwrap_err()
            .contains("range"));
    }

    #[test]
    fn checks_multicover_demands_and_gub_bounds() {
        let m = triangle();
        let demand_two = Constraints::new().coverage(vec![2, 1, 1]);
        assert!(cover(&m, &demand_two, &[0, 2], 2.0, 1.0)
            .unwrap_err()
            .contains("row 0"));
        assert!(cover(&m, &demand_two, &[0, 1], 2.0, 1.0).is_ok());
        let one_of = Constraints::new().gub_groups(vec![GubGroup::new(vec![0, 1], 1)]);
        assert!(cover(&m, &one_of, &[0, 1], 2.0, 1.0)
            .unwrap_err()
            .contains("GUB"));
    }

    #[test]
    fn fractional_costs_certify_only_on_equality() {
        assert!(certified(&[1.5, 2.0], 3.5, 3.5));
        assert!(!certified(&[1.5, 2.0], 3.5, 3.2));
    }
}
