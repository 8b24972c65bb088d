//! Reduction soundness: the cyclic core plus its fixed columns preserves the
//! optimal cost of the original instance (checked against brute force).

use cover::{cyclic_core, CoverMatrix, Halt, Reducer, Solution};
use proptest::prelude::*;

/// Exhaustive optimum for tiny instances (≤ 16 columns).
fn brute_force(m: &CoverMatrix) -> Option<f64> {
    let n = m.num_cols();
    assert!(n <= 16);
    let mut best: Option<f64> = None;
    'mask: for mask in 0u32..(1 << n) {
        for row in m.rows() {
            if !row.iter().any(|&j| mask >> j & 1 == 1) {
                continue 'mask;
            }
        }
        let cost: f64 = (0..n)
            .filter(|&j| mask >> j & 1 == 1)
            .map(|j| m.cost(j))
            .sum();
        best = Some(match best {
            Some(b) if b <= cost => b,
            _ => cost,
        });
    }
    best
}

fn instance_strategy() -> impl Strategy<Value = CoverMatrix> {
    // 1..=10 columns; 1..=10 rows, each a non-empty subset.
    (1usize..=10).prop_flat_map(|cols| {
        let row = prop::collection::btree_set(0..cols, 1..=cols.min(4));
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
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn core_preserves_optimum(m in instance_strategy()) {
        let orig = brute_force(&m).expect("instances are coverable");
        let res = cyclic_core(&m);
        prop_assert!(!res.infeasible);
        let fixed_cost: f64 = res.fixed_cols.iter().map(|&j| m.cost(j)).sum();
        let core_opt = if res.core.num_rows() == 0 {
            0.0
        } else {
            brute_force(&res.core).expect("core stays coverable")
        };
        prop_assert_eq!(orig, fixed_cost + core_opt);
    }

    #[test]
    fn explicit_reducer_preserves_optimum(m in instance_strategy()) {
        let orig = brute_force(&m).expect("coverable");
        let mut r = Reducer::new(&m);
        r.reduce_to_fixpoint(&Halt::none()).unwrap();
        prop_assert!(!r.infeasible());
        let (core, _rm, col_map) = r.extract_core();
        let fixed_cost: f64 = r.fixed().iter().map(|&j| m.cost(j)).sum();
        let core_opt = if core.num_rows() == 0 {
            0.0
        } else {
            brute_force(&core).expect("coverable core")
        };
        prop_assert_eq!(orig, fixed_cost + core_opt);
        // And a witness can be lifted back to a feasible original solution.
        if core.num_rows() == 0 {
            let lifted = Solution::new().lift(&col_map, r.fixed());
            prop_assert!(lifted.is_feasible(&m));
            prop_assert_eq!(lifted.cost(&m), orig);
        }
    }

    #[test]
    fn fixed_columns_are_part_of_some_optimum(m in instance_strategy()) {
        // Weaker but direct: solving the core then adding fixed columns is
        // feasible for the original problem.
        let res = cyclic_core(&m);
        prop_assume!(!res.infeasible);
        // Cover the core greedily (any feasible core cover suffices here).
        let mut core_sol = Solution::new();
        for i in 0..res.core.num_rows() {
            let row = res.core.row(i);
            if !row.iter().any(|&j| core_sol.contains(j)) {
                core_sol.insert(row[0]);
            }
        }
        let lifted = core_sol.lift(&res.col_map, &res.fixed_cols);
        prop_assert!(lifted.is_feasible(&m));
    }
}
