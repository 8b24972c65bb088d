//! The sparse covering-matrix representation and solutions.

use std::fmt;
use std::sync::OnceLock;

/// A unate covering instance: a sparse 0/1 matrix with column costs.
///
/// Rows are stored as sorted lists of the column indices covering them.
/// Costs default to 1 for every column (the cardinality objective of
/// two-level minimisation).
///
/// # Example
///
/// ```
/// use cover::CoverMatrix;
/// let m = CoverMatrix::from_rows(3, vec![vec![0, 1], vec![1, 2]]);
/// assert_eq!(m.num_rows(), 2);
/// assert_eq!(m.num_cols(), 3);
/// assert_eq!(m.col_rows(1), &[0, 1]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CoverMatrix {
    num_cols: usize,
    rows: Vec<Vec<usize>>,
    cols: Vec<Vec<usize>>,
    costs: Vec<f64>,
    /// Lazily-built flat CSR/CSC index arrays (see [`SparseView`]). A
    /// cache, not part of the matrix's identity: `PartialEq` ignores it.
    view: OnceLock<SparseView>,
}

// The derived impl would compare the lazily-built `view` cache, making
// two equal matrices compare unequal depending on which of them has been
// solved already.
impl PartialEq for CoverMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.num_cols == other.num_cols && self.rows == other.rows && self.costs == other.costs
    }
}

/// Flat CSR + CSC index arrays over a [`CoverMatrix`], the cache-linear
/// form the subgradient inner loop iterates.
///
/// `row(i)` is the sorted column list of row `i` and `col(j)` the sorted
/// row list of column `j`, both as contiguous `u32` slices: one pointer
/// array plus one index array per orientation instead of a `Vec` per
/// row/column. Built once per matrix on first use via
/// [`CoverMatrix::sparse`] and immutable afterwards (the matrix has no
/// mutators).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SparseView {
    row_ptr: Vec<u32>,
    row_idx: Vec<u32>,
    col_ptr: Vec<u32>,
    col_idx: Vec<u32>,
}

impl SparseView {
    fn build(m: &CoverMatrix) -> Self {
        let nnz = m.nnz();
        assert!(
            nnz <= u32::MAX as usize
                && m.num_rows() <= u32::MAX as usize
                && m.num_cols() <= u32::MAX as usize,
            "matrix too large for u32 index arrays"
        );
        let mut row_ptr = Vec::with_capacity(m.num_rows() + 1);
        let mut row_idx = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for row in &m.rows {
            row_idx.extend(row.iter().map(|&j| j as u32));
            row_ptr.push(row_idx.len() as u32);
        }
        let mut col_ptr = Vec::with_capacity(m.num_cols() + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        col_ptr.push(0);
        for col in &m.cols {
            col_idx.extend(col.iter().map(|&i| i as u32));
            col_ptr.push(col_idx.len() as u32);
        }
        SparseView {
            row_ptr,
            row_idx,
            col_ptr,
            col_idx,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of columns.
    #[inline]
    pub fn num_cols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Number of nonzero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// The sorted column indices of row `i` (CSR).
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.row_idx[self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize]
    }

    /// The sorted row indices of column `j` (CSC).
    #[inline]
    pub fn col(&self, j: usize) -> &[u32] {
        &self.col_idx[self.col_ptr[j] as usize..self.col_ptr[j + 1] as usize]
    }
}

impl CoverMatrix {
    /// Builds an instance with unit costs from row lists.
    ///
    /// Column indices are deduplicated and sorted; they must be below
    /// `num_cols`.
    ///
    /// # Panics
    ///
    /// Panics if a row references a column `≥ num_cols`.
    pub fn from_rows(num_cols: usize, rows: Vec<Vec<usize>>) -> Self {
        Self::with_costs(num_cols, rows, vec![1.0; num_cols])
    }

    /// Builds an instance with explicit column costs.
    ///
    /// # Panics
    ///
    /// Panics if `costs.len() != num_cols`, if any cost is negative or
    /// non-finite, or if a row references a column `≥ num_cols`.
    pub fn with_costs(num_cols: usize, mut rows: Vec<Vec<usize>>, costs: Vec<f64>) -> Self {
        assert_eq!(costs.len(), num_cols, "one cost per column required");
        assert!(
            costs.iter().all(|c| c.is_finite() && *c >= 0.0),
            "costs must be finite and non-negative"
        );
        let mut cols = vec![Vec::new(); num_cols];
        for (i, row) in rows.iter_mut().enumerate() {
            row.sort_unstable();
            row.dedup();
            for &j in row.iter() {
                assert!(j < num_cols, "row {i} references column {j} ≥ {num_cols}");
                cols[j].push(i);
            }
        }
        CoverMatrix {
            num_cols,
            rows,
            cols,
            costs,
            view: OnceLock::new(),
        }
    }

    /// The flat CSR/CSC view of this matrix, built on first use and
    /// cached (cloning the matrix clones the cache).
    pub fn sparse(&self) -> &SparseView {
        self.view.get_or_init(|| SparseView::build(self))
    }

    /// Number of rows (objects to cover).
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns (candidate covers).
    #[inline]
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of nonzero entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// The sorted column list of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[usize] {
        &self.rows[i]
    }

    /// All rows.
    #[inline]
    pub fn rows(&self) -> &[Vec<usize>] {
        &self.rows
    }

    /// The sorted row list of column `j` (transpose access).
    #[inline]
    pub fn col_rows(&self, j: usize) -> &[usize] {
        &self.cols[j]
    }

    /// Cost of column `j`.
    #[inline]
    pub fn cost(&self, j: usize) -> f64 {
        self.costs[j]
    }

    /// The full cost vector.
    #[inline]
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// Returns `true` if all costs are integral (the paper's standing
    /// assumption, enabling the `⌈LB⌉ = z_best` optimality certificate).
    pub fn integer_costs(&self) -> bool {
        self.costs.iter().all(|c| c.fract() == 0.0)
    }

    /// Returns `true` if every row can be covered (no empty rows).
    pub fn is_coverable(&self) -> bool {
        self.rows.iter().all(|r| !r.is_empty())
    }

    /// Entry test `a[i][j] == 1`.
    pub fn covers(&self, i: usize, j: usize) -> bool {
        self.rows[i].binary_search(&j).is_ok()
    }

    /// The minimum cost among columns covering row `i` (`c̄_i` in the paper).
    ///
    /// Returns `f64::INFINITY` for an uncoverable row.
    pub fn min_row_cost(&self, i: usize) -> f64 {
        self.rows[i]
            .iter()
            .map(|&j| self.costs[j])
            .fold(f64::INFINITY, f64::min)
    }
}

impl fmt::Display for CoverMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "CoverMatrix {}×{} (nnz {})",
            self.num_rows(),
            self.num_cols(),
            self.nnz()
        )?;
        for (i, row) in self.rows.iter().enumerate() {
            write!(f, "  r{i}:")?;
            for j in row {
                write!(f, " {j}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A (not necessarily feasible) selection of columns.
///
/// # Example
///
/// ```
/// use cover::{CoverMatrix, Solution};
/// let m = CoverMatrix::from_rows(3, vec![vec![0, 1], vec![1, 2]]);
/// let s = Solution::from_cols(vec![1]);
/// assert!(s.is_feasible(&m));
/// assert_eq!(s.cost(&m), 1.0);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Solution {
    cols: Vec<usize>,
}

impl Solution {
    /// Creates an empty selection.
    pub fn new() -> Self {
        Solution::default()
    }

    /// Creates a selection from explicit column indices (deduplicated).
    pub fn from_cols(mut cols: Vec<usize>) -> Self {
        cols.sort_unstable();
        cols.dedup();
        Solution { cols }
    }

    /// The selected columns, sorted ascending.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Number of selected columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Returns `true` if no column is selected.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Adds a column (keeps the list sorted and unique).
    pub fn insert(&mut self, j: usize) {
        if let Err(pos) = self.cols.binary_search(&j) {
            self.cols.insert(pos, j);
        }
    }

    /// Removes a column if present; reports whether it was selected.
    pub fn remove(&mut self, j: usize) -> bool {
        if let Ok(pos) = self.cols.binary_search(&j) {
            self.cols.remove(pos);
            true
        } else {
            false
        }
    }

    /// Membership test.
    pub fn contains(&self, j: usize) -> bool {
        self.cols.binary_search(&j).is_ok()
    }

    /// Total cost under the instance's cost vector.
    pub fn cost(&self, m: &CoverMatrix) -> f64 {
        self.cols.iter().map(|&j| m.cost(j)).sum()
    }

    /// Checks whether every row of `m` is covered.
    pub fn is_feasible(&self, m: &CoverMatrix) -> bool {
        m.rows()
            .iter()
            .all(|row| row.iter().any(|j| self.contains(*j)))
    }

    /// Removes redundant columns greedily, highest cost first (the paper's
    /// final clean-up: *"Remove the highest cost redundant column"*).
    ///
    /// A column is redundant if every row it covers is covered by another
    /// selected column. The result is an irredundant cover whenever the
    /// input was feasible.
    pub fn make_irredundant(&mut self, m: &CoverMatrix) {
        // cover_count[i] = how many selected columns cover row i.
        let mut cover_count = vec![0usize; m.num_rows()];
        for &j in &self.cols {
            for &i in m.col_rows(j) {
                cover_count[i] += 1;
            }
        }
        loop {
            // Find the highest-cost redundant column.
            let mut candidate: Option<usize> = None;
            for &j in &self.cols {
                let redundant = m.col_rows(j).iter().all(|&i| cover_count[i] >= 2);
                if redundant {
                    match candidate {
                        Some(best) if m.cost(best) >= m.cost(j) => {}
                        _ => candidate = Some(j),
                    }
                }
            }
            match candidate {
                Some(j) => {
                    self.remove(j);
                    for &i in m.col_rows(j) {
                        cover_count[i] -= 1;
                    }
                }
                None => break,
            }
        }
    }

    /// Remaps the columns through `col_map` (e.g. core-local indices back to
    /// the original instance) and merges with already-fixed columns.
    pub fn lift(&self, col_map: &[usize], fixed: &[usize]) -> Solution {
        let mut cols: Vec<usize> = self.cols.iter().map(|&j| col_map[j]).collect();
        cols.extend_from_slice(fixed);
        Solution::from_cols(cols)
    }
}

impl FromIterator<usize> for Solution {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        Solution::from_cols(iter.into_iter().collect())
    }
}

impl Extend<usize> for Solution {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for j in iter {
            self.insert(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoverMatrix {
        CoverMatrix::from_rows(4, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]])
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.num_rows(), 4);
        assert_eq!(m.num_cols(), 4);
        assert_eq!(m.nnz(), 8);
        assert_eq!(m.row(0), &[0, 1]);
        assert_eq!(m.col_rows(0), &[0, 3]);
        assert!(m.covers(1, 2));
        assert!(!m.covers(1, 0));
        assert!(m.integer_costs());
        assert!(m.is_coverable());
    }

    #[test]
    fn sparse_view_mirrors_row_and_col_lists() {
        let m = sample();
        let v = m.sparse();
        assert_eq!(v.num_rows(), m.num_rows());
        assert_eq!(v.num_cols(), m.num_cols());
        assert_eq!(v.nnz(), m.nnz());
        for i in 0..m.num_rows() {
            let flat: Vec<usize> = v.row(i).iter().map(|&j| j as usize).collect();
            assert_eq!(flat, m.row(i));
        }
        for j in 0..m.num_cols() {
            let flat: Vec<usize> = v.col(j).iter().map(|&i| i as usize).collect();
            assert_eq!(flat, m.col_rows(j));
        }
    }

    #[test]
    fn sparse_view_handles_empty_rows_and_cols() {
        let m = CoverMatrix::from_rows(3, vec![vec![], vec![2]]);
        let v = m.sparse();
        assert_eq!(v.row(0), &[] as &[u32]);
        assert_eq!(v.row(1), &[2]);
        assert_eq!(v.col(0), &[] as &[u32]);
        assert_eq!(v.col(2), &[1]);
        let empty = CoverMatrix::default();
        assert_eq!(empty.sparse().nnz(), 0);
    }

    #[test]
    fn equality_ignores_the_view_cache() {
        let a = sample();
        let b = sample();
        let _ = a.sparse(); // build a's cache only
        assert_eq!(a, b);
    }

    #[test]
    fn rows_are_sorted_and_deduped() {
        let m = CoverMatrix::from_rows(3, vec![vec![2, 0, 2]]);
        assert_eq!(m.row(0), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "references column")]
    fn out_of_range_column_panics() {
        let _ = CoverMatrix::from_rows(2, vec![vec![2]]);
    }

    #[test]
    fn min_row_cost_uses_costs() {
        let m = CoverMatrix::with_costs(2, vec![vec![0, 1]], vec![3.0, 2.0]);
        assert_eq!(m.min_row_cost(0), 2.0);
        let empty = CoverMatrix::from_rows(2, vec![vec![]]);
        assert!(empty.min_row_cost(0).is_infinite());
        assert!(!empty.is_coverable());
    }

    #[test]
    fn solution_feasibility_and_cost() {
        let m = sample();
        let s = Solution::from_cols(vec![1, 3]);
        assert!(s.is_feasible(&m));
        assert_eq!(s.cost(&m), 2.0);
        let t = Solution::from_cols(vec![0]);
        assert!(!t.is_feasible(&m));
    }

    #[test]
    fn irredundant_removal() {
        let m = sample();
        let mut s = Solution::from_cols(vec![0, 1, 2, 3]);
        s.make_irredundant(&m);
        assert!(s.is_feasible(&m));
        assert_eq!(s.len(), 2, "diagonal pairs suffice: {:?}", s.cols());
    }

    #[test]
    fn irredundant_respects_cost_order() {
        // Column 0 covers both rows at cost 3; columns 1 and 2 cover one row
        // each at cost 1. Starting from all three, the expensive redundant
        // column is dropped first, leaving the cheap pair.
        let m = CoverMatrix::with_costs(3, vec![vec![0, 1], vec![0, 2]], vec![3.0, 1.0, 1.0]);
        let mut s = Solution::from_cols(vec![0, 1, 2]);
        s.make_irredundant(&m);
        assert_eq!(s.cols(), &[1, 2]);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = Solution::new();
        assert!(s.is_empty());
        s.insert(5);
        s.insert(2);
        s.insert(5);
        assert_eq!(s.cols(), &[2, 5]);
        assert!(s.contains(5));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn lift_remaps_and_merges() {
        let s = Solution::from_cols(vec![0, 2]);
        let lifted = s.lift(&[10, 11, 12], &[7]);
        assert_eq!(lifted.cols(), &[7, 10, 12]);
    }

    #[test]
    fn from_iterator() {
        let s: Solution = [3usize, 1, 3].into_iter().collect();
        assert_eq!(s.cols(), &[1, 3]);
    }
}
