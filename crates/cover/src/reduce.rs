//! Explicit reductions: essential columns, row dominance, column dominance,
//! iterated to a fixpoint (the `Explicit_Reductions` step of Fig. 2).

use crate::halt::{Halt, HaltReason};
use crate::matrix::CoverMatrix;

/// Counters describing what a reduction pass achieved.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReductionStats {
    /// Columns fixed because some row had no alternative.
    pub essential_cols: usize,
    /// Rows removed because they were supersets of other rows.
    pub dominated_rows: usize,
    /// Columns removed because a cheaper-or-equal column covered a superset
    /// of their rows.
    pub dominated_cols: usize,
    /// Number of fixpoint iterations executed.
    pub passes: usize,
}

/// An in-place reduction engine over a [`CoverMatrix`].
///
/// The engine keeps activity masks over rows and columns; reductions
/// deactivate entries without rebuilding the matrix. Call
/// [`Reducer::reduce_to_fixpoint`] and then [`Reducer::extract_core`].
///
/// # Example
///
/// ```
/// use cover::{CoverMatrix, Halt, Reducer};
/// let m = CoverMatrix::from_rows(3, vec![vec![0], vec![0, 1], vec![1, 2]]);
/// let mut r = Reducer::new(&m);
/// r.reduce_to_fixpoint(&Halt::none()).unwrap();
/// assert_eq!(r.fixed(), &[0, 1]); // col 0 essential, then col 1 by cascade
/// ```
#[derive(Clone, Debug)]
pub struct Reducer<'a> {
    m: &'a CoverMatrix,
    row_active: Vec<bool>,
    col_active: Vec<bool>,
    row_deg: Vec<usize>,
    col_deg: Vec<usize>,
    fixed: Vec<usize>,
    stats: ReductionStats,
}

impl<'a> Reducer<'a> {
    /// Starts a reduction over `m` with everything active.
    pub fn new(m: &'a CoverMatrix) -> Self {
        let row_deg: Vec<usize> = (0..m.num_rows()).map(|i| m.row(i).len()).collect();
        let col_deg: Vec<usize> = (0..m.num_cols()).map(|j| m.col_rows(j).len()).collect();
        Reducer {
            m,
            row_active: vec![true; m.num_rows()],
            col_active: vec![true; m.num_cols()],
            row_deg,
            col_deg,
            fixed: Vec::new(),
            stats: ReductionStats::default(),
        }
    }

    /// Starts a reduction with some columns already chosen (their rows are
    /// pre-covered) and some columns excluded.
    pub fn with_state(m: &'a CoverMatrix, chosen: &[usize], excluded: &[usize]) -> Self {
        let mut r = Reducer::new(m);
        for &j in excluded {
            r.deactivate_col(j);
        }
        for &j in chosen {
            r.fix_column(j);
        }
        r
    }

    /// Columns fixed into the solution so far (in fixing order).
    pub fn fixed(&self) -> &[usize] {
        &self.fixed
    }

    /// Reduction statistics.
    pub fn stats(&self) -> ReductionStats {
        self.stats
    }

    /// Returns `true` if the row is still active (uncovered, not dominated).
    pub fn row_active(&self, i: usize) -> bool {
        self.row_active[i]
    }

    /// Returns `true` if the column is still active.
    pub fn col_active(&self, j: usize) -> bool {
        self.col_active[j]
    }

    /// Active row count.
    pub fn active_rows(&self) -> usize {
        self.row_active.iter().filter(|&&a| a).count()
    }

    /// Active column count.
    pub fn active_cols(&self) -> usize {
        self.col_active.iter().filter(|&&a| a).count()
    }

    /// Returns `true` if some active row has no active column left —
    /// the residual problem is infeasible.
    pub fn infeasible(&self) -> bool {
        (0..self.m.num_rows()).any(|i| self.row_active[i] && self.row_deg[i] == 0)
    }

    fn deactivate_col(&mut self, j: usize) {
        if !self.col_active[j] {
            return;
        }
        self.col_active[j] = false;
        for &i in self.m.col_rows(j) {
            if self.row_active[i] {
                self.row_deg[i] -= 1;
            }
        }
    }

    fn deactivate_row(&mut self, i: usize) {
        if !self.row_active[i] {
            return;
        }
        self.row_active[i] = false;
        for &j in self.m.row(i) {
            if self.col_active[j] {
                self.col_deg[j] -= 1;
            }
        }
    }

    /// Fixes column `j` into the solution: all rows it covers are satisfied
    /// and removed, and the column itself is deactivated.
    pub fn fix_column(&mut self, j: usize) {
        if !self.col_active[j] {
            return;
        }
        self.fixed.push(j);
        let rows: Vec<usize> = self
            .m
            .col_rows(j)
            .iter()
            .copied()
            .filter(|&i| self.row_active[i])
            .collect();
        for i in rows {
            self.deactivate_row(i);
        }
        self.deactivate_col(j);
    }

    /// Permanently discards column `j` (e.g. proven non-optimal by a penalty
    /// test).
    pub fn exclude_column(&mut self, j: usize) {
        self.deactivate_col(j);
    }

    /// One essential-column pass. Returns the number of columns fixed.
    pub fn essential_pass(&mut self) -> usize {
        let mut fixed = 0;
        loop {
            let mut found = None;
            for i in 0..self.m.num_rows() {
                if self.row_active[i] && self.row_deg[i] == 1 {
                    let j = self
                        .m
                        .row(i)
                        .iter()
                        .copied()
                        .find(|&j| self.col_active[j])
                        .expect("degree-1 row must have an active column");
                    found = Some(j);
                    break;
                }
            }
            match found {
                Some(j) => {
                    self.fix_column(j);
                    fixed += 1;
                }
                None => break,
            }
        }
        self.stats.essential_cols += fixed;
        fixed
    }

    /// Active columns of row `i`, sorted.
    fn active_row(&self, i: usize) -> Vec<usize> {
        self.m
            .row(i)
            .iter()
            .copied()
            .filter(|&j| self.col_active[j])
            .collect()
    }

    /// Active rows of column `j`, sorted.
    fn active_col(&self, j: usize) -> Vec<usize> {
        self.m
            .col_rows(j)
            .iter()
            .copied()
            .filter(|&i| self.row_active[i])
            .collect()
    }

    /// One row-dominance pass: removes every active row whose active column
    /// set is a (possibly equal) superset of another active row's. Returns
    /// the number of rows removed.
    pub fn row_dominance_pass(&mut self) -> usize {
        let mut order: Vec<usize> = (0..self.m.num_rows())
            .filter(|&i| self.row_active[i])
            .collect();
        // Ascending degree: small rows dominate.
        order.sort_by_key(|&i| self.row_deg[i]);
        let mut removed = 0;
        for &i in &order {
            if !self.row_active[i] {
                continue;
            }
            let cols_i = self.active_row(i);
            // Candidates = active rows sharing the rarest column of i.
            let pivot = match cols_i.iter().copied().min_by_key(|&j| self.col_deg[j]) {
                Some(p) => p,
                None => continue,
            };
            let candidates: Vec<usize> = self.active_col(pivot);
            for k in candidates {
                if k == i || !self.row_active[k] || self.row_deg[k] < self.row_deg[i] {
                    continue;
                }
                if self.row_deg[k] == self.row_deg[i] && k < i {
                    // Equal rows: keep the smaller index, handled when k is i's
                    // dominator from the other side.
                    continue;
                }
                if is_subset(&cols_i, &self.active_row(k)) {
                    self.deactivate_row(k);
                    removed += 1;
                }
            }
        }
        self.stats.dominated_rows += removed;
        removed
    }

    /// One column-dominance pass: removes every active column `k` such that
    /// some other active column `j` covers a superset of `k`'s active rows
    /// at no greater cost. Returns the number of columns removed.
    pub fn col_dominance_pass(&mut self) -> usize {
        let mut order: Vec<usize> = (0..self.m.num_cols())
            .filter(|&j| self.col_active[j])
            .collect();
        // Ascending degree: small columns are the candidates for removal.
        order.sort_by_key(|&j| self.col_deg[j]);
        let mut removed = 0;
        for &k in &order {
            if !self.col_active[k] {
                continue;
            }
            let rows_k = self.active_col(k);
            if rows_k.is_empty() {
                // Covers nothing: useless column.
                self.deactivate_col(k);
                removed += 1;
                continue;
            }
            // Any dominator of k covers all of k's rows, in particular k's
            // rarest row — so that row's columns are the only candidates.
            let pivot = rows_k
                .iter()
                .copied()
                .min_by_key(|&i| self.row_deg[i])
                .expect("non-empty rows_k");
            let candidates = self.active_row(pivot);
            for j in candidates {
                if j == k || !self.col_active[j] || self.col_deg[j] < self.col_deg[k] {
                    continue;
                }
                if self.m.cost(j) > self.m.cost(k) {
                    continue;
                }
                if self.col_deg[j] == self.col_deg[k] && self.m.cost(j) == self.m.cost(k) && j > k {
                    // Possibly identical columns: deterministic tie-break,
                    // keep the smaller index.
                    continue;
                }
                if is_subset(&rows_k, &self.active_col(j)) {
                    self.deactivate_col(k);
                    removed += 1;
                    break;
                }
            }
        }
        self.stats.dominated_cols += removed;
        removed
    }

    /// Iterates essential / row-dominance / column-dominance passes until
    /// none of them changes the matrix.
    ///
    /// `halt` is polled before every pass, so a deadline or a
    /// cancellation stops the reduction within one pass; the matrix is
    /// then left partly reduced. Callers without a deadline pass
    /// [`Halt::none`], which never fires.
    pub fn reduce_to_fixpoint(&mut self, halt: &Halt) -> Result<ReductionStats, HaltReason> {
        loop {
            // Lets tests stall here to prove a halt lands within one pass.
            ucp_failpoints::fail_point!("cover::reduce_pass");
            if let Some(reason) = halt.check() {
                return Err(reason);
            }
            self.stats.passes += 1;
            let changed =
                self.essential_pass() + self.row_dominance_pass() + self.col_dominance_pass();
            if changed == 0 {
                return Ok(self.stats);
            }
        }
    }

    /// Extracts the residual active submatrix (the cyclic core when called
    /// after [`Reducer::reduce_to_fixpoint`]).
    ///
    /// Returns `(core, row_map, col_map)` where `row_map[i']`/`col_map[j']`
    /// give the original indices of core row `i'` / core column `j'`.
    pub fn extract_core(&self) -> (CoverMatrix, Vec<usize>, Vec<usize>) {
        let col_map: Vec<usize> = (0..self.m.num_cols())
            .filter(|&j| self.col_active[j])
            .collect();
        let mut col_inv = vec![usize::MAX; self.m.num_cols()];
        for (new, &old) in col_map.iter().enumerate() {
            col_inv[old] = new;
        }
        let row_map: Vec<usize> = (0..self.m.num_rows())
            .filter(|&i| self.row_active[i])
            .collect();
        let rows: Vec<Vec<usize>> = row_map
            .iter()
            .map(|&i| {
                self.m
                    .row(i)
                    .iter()
                    .copied()
                    .filter(|&j| self.col_active[j])
                    .map(|j| col_inv[j])
                    .collect()
            })
            .collect();
        let costs: Vec<f64> = col_map.iter().map(|&j| self.m.cost(j)).collect();
        (
            CoverMatrix::with_costs(col_map.len(), rows, costs),
            row_map,
            col_map,
        )
    }
}

/// `a ⊆ b` for sorted slices.
fn is_subset(a: &[usize], b: &[usize]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut bi = b.iter();
    'outer: for x in a {
        for y in bi.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_helper() {
        assert!(is_subset(&[1, 3], &[0, 1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[0, 1, 2, 3]));
        assert!(is_subset(&[], &[0]));
        assert!(is_subset(&[2], &[2]));
        assert!(!is_subset(&[0, 1], &[1]));
    }

    #[test]
    fn essential_fixes_and_covers() {
        let m = CoverMatrix::from_rows(3, vec![vec![0], vec![0, 1], vec![1, 2]]);
        let mut r = Reducer::new(&m);
        let fixed = r.essential_pass();
        assert_eq!(fixed, 1);
        assert_eq!(r.fixed(), &[0]);
        assert!(!r.row_active(0));
        assert!(!r.row_active(1)); // covered by column 0 too
        assert!(r.row_active(2));
    }

    #[test]
    fn cascading_essentials() {
        // Fixing col 0 covers row 1, leaving row 2 covered only by col 2.
        let m = CoverMatrix::from_rows(3, vec![vec![0], vec![0, 1], vec![1, 2]]);
        let mut r = Reducer::new(&m);
        r.reduce_to_fixpoint(&Halt::none()).unwrap();
        // After col 0 fixed, row 2 has cols {1,2}; col 1 covers {2}, col 2
        // covers {2} — they dominate each other, one remains, becomes
        // essential.
        assert!(r.fixed().len() == 2);
        assert_eq!(r.active_rows(), 0);
    }

    #[test]
    fn row_dominance_removes_superset_rows() {
        let m = CoverMatrix::from_rows(3, vec![vec![0], vec![0, 1, 2]]);
        let mut r = Reducer::new(&m);
        let removed = r.row_dominance_pass();
        assert_eq!(removed, 1);
        assert!(r.row_active(0));
        assert!(!r.row_active(1));
    }

    #[test]
    fn equal_rows_keep_exactly_one() {
        let m = CoverMatrix::from_rows(2, vec![vec![0, 1], vec![0, 1], vec![0, 1]]);
        let mut r = Reducer::new(&m);
        r.row_dominance_pass();
        assert_eq!(r.active_rows(), 1);
    }

    #[test]
    fn col_dominance_respects_cost() {
        // Column 1 covers a superset of column 0's rows but costs more:
        // with unit costs 0 is dominated, with higher cost on 1 it is not.
        let rows = vec![vec![0, 1], vec![1]];
        let m = CoverMatrix::from_rows(2, rows.clone());
        let mut r = Reducer::new(&m);
        r.col_dominance_pass();
        assert!(!r.col_active(0));
        assert!(r.col_active(1));

        let m2 = CoverMatrix::with_costs(2, rows, vec![1.0, 5.0]);
        let mut r2 = Reducer::new(&m2);
        r2.col_dominance_pass();
        assert!(r2.col_active(0));
        assert!(r2.col_active(1));
    }

    #[test]
    fn identical_columns_keep_exactly_one() {
        let m = CoverMatrix::from_rows(3, vec![vec![0, 1, 2], vec![0, 1, 2]]);
        let mut r = Reducer::new(&m);
        r.col_dominance_pass();
        assert_eq!(r.active_cols(), 1);
    }

    #[test]
    fn cyclic_core_is_stable() {
        // The 5-cycle: every row has 2 columns, every column 2 rows,
        // no dominance, no essentials — a classic cyclic core.
        let m = CoverMatrix::from_rows(
            5,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
        );
        let mut r = Reducer::new(&m);
        let stats = r.reduce_to_fixpoint(&Halt::none()).unwrap();
        assert_eq!(stats.essential_cols, 0);
        assert_eq!(stats.dominated_rows, 0);
        assert_eq!(stats.dominated_cols, 0);
        let (core, row_map, col_map) = r.extract_core();
        assert_eq!(core.num_rows(), 5);
        assert_eq!(core.num_cols(), 5);
        assert_eq!(row_map.len(), 5);
        assert_eq!(col_map.len(), 5);
    }

    #[test]
    fn extract_core_remaps_indices() {
        let m = CoverMatrix::from_rows(4, vec![vec![0], vec![1, 2, 3], vec![2, 3]]);
        let mut r = Reducer::new(&m);
        r.essential_pass(); // fixes col 0, removes row 0
        r.row_dominance_pass(); // row 1 ⊇ row 2 → removed
        let (core, row_map, col_map) = r.extract_core();
        assert_eq!(row_map, vec![2]);
        assert_eq!(core.num_rows(), 1);
        // Core row refers to remapped columns of {2,3}.
        let orig: Vec<usize> = core.row(0).iter().map(|&j| col_map[j]).collect();
        assert_eq!(orig, vec![2, 3]);
    }

    #[test]
    fn with_state_applies_choices() {
        let m = CoverMatrix::from_rows(3, vec![vec![0, 1], vec![1, 2]]);
        let r = Reducer::with_state(&m, &[1], &[]);
        assert_eq!(r.active_rows(), 0);
        let r2 = Reducer::with_state(&m, &[], &[1]);
        assert_eq!(r2.active_cols(), 2);
        assert!(!r2.infeasible());
        let r3 = Reducer::with_state(&m, &[], &[0, 1]);
        assert!(r3.infeasible());
    }

    #[test]
    fn exclude_then_essential() {
        let m = CoverMatrix::from_rows(3, vec![vec![0, 1], vec![1, 2]]);
        let mut r = Reducer::new(&m);
        r.exclude_column(1);
        r.essential_pass();
        assert_eq!(r.fixed(), &[0, 2]);
    }
}
