//! The duplicate-row merge that hands the explicit reductions their
//! input.
//!
//! The paper's `ZDD_SCG` (Fig. 2) encodes the row family of a covering
//! matrix as a ZDD and reduces it implicitly while it is larger than
//! `MaxR`/`MaxC`. On every input this repository can build, merging the
//! distinct rows and reducing them explicitly is faster (see DESIGN.md,
//! "Why the implicit phase went"), so the ZDD round trip is gone and only
//! its one effect on the matrix remains: duplicate rows collapse, and the
//! rows come in the family's enumeration order.

use crate::matrix::CoverMatrix;
use std::cmp::Reverse;
use std::collections::HashSet;

/// Merges the duplicate rows of `m`: the `(matrix, col_map)` a ZDD
/// encode and decode of the row family would give. Distinct rows come in
/// the family's enumeration order (at the first differing position the
/// row with the larger column comes first, and a prefix comes before its
/// extensions), and the columns are compacted to those occurring in some
/// row.
pub(crate) fn canonical_rows(m: &CoverMatrix) -> (CoverMatrix, Vec<usize>) {
    // `CoverMatrix` keeps each row sorted and deduplicated, so equal rows
    // are equal slices. Rows can come from outside the program, so they
    // keep std's collision-resistant hasher.
    let distinct: HashSet<&[usize]> = m.rows().iter().map(Vec::as_slice).collect();
    let mut rows: Vec<&[usize]> = distinct.into_iter().collect();
    rows.sort_unstable_by(|a, b| a.iter().map(Reverse).cmp(b.iter().map(Reverse)));
    let mut live = vec![false; m.num_cols()];
    for &j in rows.iter().copied().flatten() {
        live[j] = true;
    }
    let col_map = (0..m.num_cols()).filter(|&j| live[j]).collect();
    compact(
        col_map,
        m.costs(),
        rows.into_iter().map(|r| r.iter().copied()),
    )
}

/// The matrix over the live columns `col_map` (ascending original
/// indices) with `rows` given in original indices, and `col_map` itself.
fn compact<R: IntoIterator<Item = usize>>(
    col_map: Vec<usize>,
    costs: &[f64],
    rows: impl Iterator<Item = R>,
) -> (CoverMatrix, Vec<usize>) {
    let mut col_inv = vec![usize::MAX; costs.len()];
    for (new, &old) in col_map.iter().enumerate() {
        col_inv[old] = new;
    }
    let rows = rows
        .map(|row| row.into_iter().map(|j| col_inv[j]).collect())
        .collect();
    let costs = col_map.iter().map(|&j| costs[j]).collect();
    (CoverMatrix::with_costs(col_map.len(), rows, costs), col_map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use zdd::{Var, Zdd};

    /// The ZDD round trip `canonical_rows` stands in for: encode the row
    /// family, enumerate it, and compact the columns to its support.
    fn zdd_round_trip(m: &CoverMatrix) -> (CoverMatrix, Vec<usize>) {
        let mut z = Zdd::default();
        let rows = z.from_sets(m.rows().iter().map(|row| row.iter().map(|&j| Var::from(j))));
        let live = z.support(rows).into_iter().map(|v| v.index()).collect();
        let sets = z.to_sets(rows);
        compact(
            live,
            m.costs(),
            sets.iter().map(|s| s.iter().map(|v| v.index())),
        )
    }

    #[test]
    fn canonical_order_puts_larger_columns_and_prefixes_first() {
        let m = CoverMatrix::from_rows(
            4,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 1, 3],
                vec![2, 3],
                vec![0, 2],
                vec![1],
            ],
        );
        let (c, col_map) = canonical_rows(&m);
        assert_eq!(
            c.rows(),
            [vec![2, 3], vec![1], vec![0, 2], vec![0, 1], vec![0, 1, 3]]
        );
        assert_eq!(col_map, [0, 1, 2, 3]);
        assert_eq!((c, col_map), zdd_round_trip(&m));
    }

    fn instance_strategy() -> impl Strategy<Value = CoverMatrix> {
        (1usize..=8).prop_flat_map(|cols| {
            let row = prop::collection::vec(0..cols, 0..=cols + 1);
            let rows = prop::collection::vec(row, 0..=12);
            let costs = prop::collection::vec(1u8..=4, cols);
            (rows, costs).prop_map(move |(rows, costs)| {
                CoverMatrix::with_costs(cols, rows, costs.into_iter().map(f64::from).collect())
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Duplicate columns in a row, duplicate rows, the empty row and
        /// unused columns all included: rows, compacted columns, their
        /// costs and the column map all equal the ZDD round trip's.
        #[test]
        fn canonical_rows_equal_the_decoded_family(m in instance_strategy()) {
            prop_assert_eq!(canonical_rows(&m), zdd_round_trip(&m));
        }
    }
}
