//! Implicit (ZDD-encoded) covering matrices and implicit reductions.
//!
//! The row family of a covering matrix is encoded as a ZDD over column
//! variables: one member set per row, holding the columns covering it. On
//! this representation,
//!
//! * row dominance is a single [`Zdd::minimal`] call,
//! * essential columns are the [`Zdd::singletons`] of the family,
//! * covering by a fixed column `j` is `subset0` (rows containing `j`
//!   disappear),
//!
//! independent of how many rows the family has — the point of the implicit
//! phase of `ZDD_SCG` (and of Coudert's implicit two-level minimisation
//! before it). Column dominance needs the transposed view, which this module
//! performs on the decoded explicit matrix (see `DESIGN.md` for the fidelity
//! note).

use crate::halt::{Halt, HaltReason};
use crate::matrix::CoverMatrix;
use std::cmp::Reverse;
use std::collections::HashSet;
use zdd::{NodeId, RootId, Var, Zdd, ZddOptions, ZddOverflow};

/// Why a fallible implicit reduction stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceInterrupt {
    /// The ZDD kernel exhausted its node budget (even after a recovery
    /// collection). The row family is intact at its last checkpoint.
    Overflow(ZddOverflow),
    /// The [`Halt`] fired at an operation boundary.
    Halted(HaltReason),
}

/// An aborted implicit reduction: what was fixed before the interrupt.
///
/// The matrix itself remains valid — the row family holds the last
/// completed operation's result, so callers can salvage it with
/// [`ImplicitMatrix::decode`] and continue explicitly.
#[derive(Debug)]
pub struct ReduceAbort {
    /// Essential columns fixed before the interrupt, ascending.
    pub fixed: Vec<usize>,
    /// Why the reduction stopped.
    pub interrupt: ReduceInterrupt,
}

impl std::fmt::Display for ReduceAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.interrupt {
            ReduceInterrupt::Overflow(e) => write!(f, "implicit reduction overflowed: {e}"),
            ReduceInterrupt::Halted(r) => write!(f, "implicit reduction halted: {r}"),
        }
    }
}

impl std::error::Error for ReduceAbort {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.interrupt {
            ReduceInterrupt::Overflow(e) => Some(e),
            ReduceInterrupt::Halted(_) => None,
        }
    }
}

/// A covering matrix held implicitly as a ZDD row family.
///
/// # Example
///
/// ```
/// use cover::{CoverMatrix, ImplicitMatrix};
/// let m = CoverMatrix::from_rows(3, vec![vec![0], vec![0, 1], vec![1, 2]]);
/// let mut im = ImplicitMatrix::encode(&m);
/// let essentials = im.reduce();
/// // Column 0 is essential; the cascade (column dominance, then another
/// // essential) then fixes column 1 and empties the matrix.
/// assert_eq!(essentials, vec![0, 1]);
/// assert!(im.is_done());
/// ```
#[derive(Debug)]
pub struct ImplicitMatrix {
    zdd: Zdd,
    rows: NodeId,
    /// Registered GC root pinning `rows`, so mid-solve collections can
    /// reclaim every intermediate family while keeping the matrix alive.
    root: RootId,
    costs: Vec<f64>,
}

impl ImplicitMatrix {
    /// Encodes an explicit matrix into a ZDD row family using default
    /// kernel options.
    pub fn encode(m: &CoverMatrix) -> Self {
        Self::encode_with(m, ZddOptions::default())
    }

    /// Encodes an explicit matrix into a ZDD row family, constructing the
    /// manager from the given kernel options.
    ///
    /// # Panics
    ///
    /// Panics if the manager's node budget is exhausted while encoding
    /// (see [`ImplicitMatrix::try_encode_with`]).
    pub fn encode_with(m: &CoverMatrix, opts: ZddOptions) -> Self {
        Self::try_encode_with(m, opts).unwrap_or_else(|e| {
            panic!("{e} while encoding the row family (use try_encode_with to recover)")
        })
    }

    /// Fallible [`ImplicitMatrix::encode_with`] for budgeted managers.
    ///
    /// Builds the row family in one bottom-up pass
    /// ([`Zdd::try_from_sets`]), which allocates only the family's own
    /// nodes: it fails exactly when the deduplicated row family does not
    /// fit the node budget, and the partially-built manager is dropped.
    pub fn try_encode_with(m: &CoverMatrix, opts: ZddOptions) -> Result<Self, ZddOverflow> {
        let mut zdd = opts.build();
        let rows =
            zdd.try_from_sets(m.rows().iter().map(|row| row.iter().map(|&j| Var::from(j))))?;
        let root = zdd.register_root(rows);
        Ok(ImplicitMatrix {
            zdd,
            rows,
            root,
            costs: m.costs().to_vec(),
        })
    }

    /// Operation-boundary checkpoint: publishes the current row family to
    /// the registered root and gives the manager a safe point to collect
    /// (no temporary [`NodeId`]s are live here).
    fn checkpoint(&mut self) {
        self.zdd.set_root(self.root, self.rows);
        if self.zdd.maybe_gc().is_some() {
            self.rows = self.zdd.root(self.root);
        }
    }

    /// Runs one composite ZDD operation whose only live input is the row
    /// family. On overflow, forces a collection down to the rooted family
    /// and retries once — the recovery half of the kernel's
    /// Healthy → Exhausted → recovered-after-GC protocol.
    fn op_retry(
        &mut self,
        op: impl Fn(&mut Zdd, NodeId) -> Result<NodeId, ZddOverflow>,
    ) -> Result<NodeId, ZddOverflow> {
        match op(&mut self.zdd, self.rows) {
            Ok(r) => Ok(r),
            Err(_) => {
                self.zdd.set_root(self.root, self.rows);
                self.zdd.collect();
                self.rows = self.zdd.root(self.root);
                op(&mut self.zdd, self.rows)
            }
        }
    }

    /// Halt poll at an implicit-operation boundary. The failpoint lets
    /// tests stall here to prove a deadline or cancellation lands within
    /// one operation boundary.
    fn halt_boundary(&self, halt: &Halt) -> Option<HaltReason> {
        ucp_failpoints::fail_point!("cover::implicit_op");
        halt.check()
    }

    /// Number of (implicit) rows currently in the family.
    pub fn num_rows(&self) -> u128 {
        self.zdd.count(self.rows)
    }

    /// Number of ZDD nodes representing the family — the implicit size.
    pub fn node_count(&self) -> usize {
        self.zdd.node_count(self.rows)
    }

    /// Counters of the underlying ZDD manager (unique-table and memo-cache
    /// hit/miss, node high-water mark, GC activity) accumulated over all
    /// implicit operations on this matrix.
    pub fn zdd_stats(&self) -> zdd::ZddStats {
        self.zdd.stats()
    }

    /// Columns still occurring in some row.
    pub fn live_cols(&self) -> Vec<usize> {
        self.zdd
            .support(self.rows)
            .into_iter()
            .map(|v| v.index())
            .collect()
    }

    /// One implicit row-dominance pass ([`Zdd::minimal`]). Returns `true`
    /// if the family shrank.
    ///
    /// # Panics
    ///
    /// Panics on node-budget exhaustion (see
    /// [`ImplicitMatrix::try_reduce_until_small`] for the fallible path).
    pub fn row_dominance(&mut self) -> bool {
        self.row_dominance_f().unwrap_or_else(overflow_panic)
    }

    fn row_dominance_f(&mut self) -> Result<bool, ZddOverflow> {
        let before = self.rows;
        self.rows = self.op_retry(|z, rows| z.try_minimal(rows))?;
        let shrank = self.rows != before;
        self.checkpoint();
        Ok(shrank)
    }

    /// Extracts essential columns (singleton rows), fixes them — removing
    /// every row they cover — and returns their indices, ascending.
    ///
    /// # Panics
    ///
    /// Panics on node-budget exhaustion (see
    /// [`ImplicitMatrix::try_reduce_until_small`] for the fallible path).
    pub fn essential_pass(&mut self) -> Vec<usize> {
        let mut fixed = Vec::new();
        match self.essential_pass_f(&mut fixed, &Halt::none()) {
            Ok(_) => {}
            Err(ReduceInterrupt::Overflow(e)) => overflow_panic(e),
            Err(ReduceInterrupt::Halted(_)) => unreachable!("Halt::none never fires"),
        }
        fixed.sort_unstable();
        fixed
    }

    /// Fallible essential-column extraction. Appends fixed columns to
    /// `fixed` (unsorted) as each one's rows are removed, so an interrupt
    /// loses no completed work; returns whether anything was fixed.
    fn essential_pass_f(
        &mut self,
        fixed: &mut Vec<usize>,
        halt: &Halt,
    ) -> Result<bool, ReduceInterrupt> {
        let mut progressed = false;
        loop {
            if let Some(reason) = self.halt_boundary(halt) {
                return Err(ReduceInterrupt::Halted(reason));
            }
            let singles = self
                .op_retry(|z, rows| z.try_singletons(rows))
                .map_err(ReduceInterrupt::Overflow)?;
            if singles == NodeId::EMPTY {
                break;
            }
            let cols: Vec<usize> = self
                .zdd
                .to_sets(singles)
                .into_iter()
                .map(|s| s[0].index())
                .collect();
            for &j in &cols {
                // Rows containing j are covered; keep only the others. A
                // column only counts as fixed once its rows are removed —
                // on overflow the unapplied essentials stay in the family
                // for the explicit phase to rediscover.
                self.rows = self
                    .op_retry(|z, rows| z.try_subset0(rows, Var::from(j)))
                    .map_err(ReduceInterrupt::Overflow)?;
                fixed.push(j);
                progressed = true;
            }
            self.checkpoint();
        }
        Ok(progressed)
    }

    fn col_dominates_f(&mut self, j: usize, k: usize) -> Result<bool, ZddOverflow> {
        if j == k {
            return Ok(true);
        }
        let without_j = self.op_retry(|z, rows| {
            let with_k = z.try_subset1(rows, Var::from(k))?;
            z.try_subset0(with_k, Var::from(j))
        })?;
        Ok(without_j == NodeId::EMPTY)
    }

    /// One implicit column-dominance pass (cost-aware): removes every live
    /// column `k` for which some column `j` with `c_j ≤ c_k` covers a
    /// superset of `k`'s rows. Returns the removed columns, ascending.
    ///
    /// # Panics
    ///
    /// Panics on node-budget exhaustion.
    pub fn column_dominance_pass(&mut self) -> Vec<usize> {
        self.column_dominance_pass_f()
            .unwrap_or_else(overflow_panic)
    }

    fn column_dominance_pass_f(&mut self) -> Result<Vec<usize>, ZddOverflow> {
        let mut removed: Vec<usize> = Vec::new();
        let support = self.live_cols();
        for &k in &support {
            let candidates: Vec<usize> = support
                .iter()
                .copied()
                .filter(|&j| j != k && !removed.contains(&j) && self.costs[j] <= self.costs[k])
                .collect();
            let mut dominated = false;
            for j in candidates {
                if !self.col_dominates_f(j, k)? {
                    continue;
                }
                // Identical columns at equal cost: keep the smaller index.
                if self.costs[j] == self.costs[k] && j > k && self.col_dominates_f(k, j)? {
                    continue;
                }
                dominated = true;
                break;
            }
            if dominated {
                // Drop k from every row that contains it.
                self.rows = self.op_retry(|z, rows| {
                    let with_k = z.try_subset1(rows, Var::from(k))?;
                    let without_k = z.try_subset0(rows, Var::from(k))?;
                    z.try_union(without_k, with_k)
                })?;
                removed.push(k);
                self.checkpoint();
            }
        }
        Ok(removed)
    }

    /// Runs implicit reductions (row dominance + essentials + column
    /// dominance) to a fixpoint. Returns all essential columns fixed,
    /// ascending.
    ///
    /// # Panics
    ///
    /// Panics on node-budget exhaustion (see
    /// [`ImplicitMatrix::try_reduce_until_small`] for the fallible path).
    pub fn reduce(&mut self) -> Vec<usize> {
        let mut fixed = Vec::new();
        loop {
            let shrank = self.row_dominance();
            let ess = self.essential_pass();
            let dom = self.column_dominance_pass();
            let progressed = shrank || !ess.is_empty() || !dom.is_empty();
            fixed.extend(ess);
            if !progressed {
                break;
            }
        }
        fixed.sort_unstable();
        fixed
    }

    /// Runs implicit reductions until stable **or** until the explicit size
    /// drops under `(max_rows, max_cols)` — the `MaxR`/`MaxC` early exit of
    /// Fig. 2. Returns the essential columns fixed.
    ///
    /// Polls `halt` at every operation boundary, so a deadline or a
    /// cancellation lands within one implicit operation; on node-budget
    /// exhaustion each operation is retried once after a forced collection
    /// before giving up. On interrupt the returned [`ReduceAbort`] carries
    /// the columns already fixed, and the matrix stays valid at its last
    /// completed operation — [`ImplicitMatrix::decode`] salvages it.
    pub fn try_reduce_until_small(
        &mut self,
        max_rows: u128,
        max_cols: usize,
        halt: &Halt,
    ) -> Result<Vec<usize>, ReduceAbort> {
        let mut fixed = Vec::new();
        let abort = |fixed: &mut Vec<usize>, interrupt: ReduceInterrupt| {
            let mut fixed = std::mem::take(fixed);
            fixed.sort_unstable();
            ReduceAbort { fixed, interrupt }
        };
        loop {
            if let Some(reason) = self.halt_boundary(halt) {
                return Err(abort(&mut fixed, ReduceInterrupt::Halted(reason)));
            }
            if self.num_rows() <= max_rows && self.live_cols().len() <= max_cols {
                break;
            }
            let shrank = match self.row_dominance_f() {
                Ok(s) => s,
                Err(e) => return Err(abort(&mut fixed, ReduceInterrupt::Overflow(e))),
            };
            let progressed = match self.essential_pass_f(&mut fixed, halt) {
                Ok(p) => p,
                Err(interrupt) => return Err(abort(&mut fixed, interrupt)),
            };
            if !shrank && !progressed {
                break;
            }
        }
        fixed.sort_unstable();
        Ok(fixed)
    }

    /// Decodes the residual family into an explicit matrix.
    ///
    /// Returns `(matrix, col_map)` where `col_map[j']` is the original index
    /// of decoded column `j'`. Rows come out in enumeration order.
    pub fn decode(&self) -> (CoverMatrix, Vec<usize>) {
        let rows = self.zdd.to_sets(self.rows);
        compact(
            self.live_cols(),
            &self.costs,
            rows.iter().map(|s| s.iter().map(|v| v.index())),
        )
    }

    /// Returns `true` if the family is empty (every row covered).
    pub fn is_done(&self) -> bool {
        self.rows == NodeId::EMPTY
    }

    /// Returns `true` if some row became uncoverable (the empty set is a
    /// member — no column can cover it).
    pub fn infeasible(&self) -> bool {
        self.zdd.contains_empty(self.rows)
    }
}

/// Merges the duplicate rows of `m` without building a ZDD: the same
/// `(matrix, col_map)` as `ImplicitMatrix::encode(m).decode()`. Distinct
/// rows come in the family's enumeration order (at the first differing
/// position the row with the larger column comes first, and a prefix
/// comes before its extensions), and the columns are compacted to those
/// occurring in some row. The explicit phase gets its input in this one
/// form whichever route produced it, so a solve that skips the implicit
/// phase reduces the same matrix.
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

fn overflow_panic<T>(e: ZddOverflow) -> T {
    panic!("{e} during implicit reduction (use try_reduce_until_small to recover)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_roundtrip() {
        let m = CoverMatrix::from_rows(4, vec![vec![0, 2], vec![1, 3], vec![0, 2]]);
        let im = ImplicitMatrix::encode(&m);
        // Duplicate rows collapse in the set representation.
        assert_eq!(im.num_rows(), 2);
        let (dec, col_map) = im.decode();
        assert_eq!(dec.num_rows(), 2);
        assert_eq!(col_map, vec![0, 1, 2, 3]);
    }

    #[test]
    fn implicit_row_dominance() {
        let m = CoverMatrix::from_rows(3, vec![vec![0], vec![0, 1], vec![1, 2]]);
        let mut im = ImplicitMatrix::encode(&m);
        assert!(im.row_dominance());
        assert_eq!(im.num_rows(), 2); // {0} dominates {0,1}
    }

    #[test]
    fn essential_extraction_covers_rows() {
        let m = CoverMatrix::from_rows(3, vec![vec![0], vec![0, 1], vec![1, 2]]);
        let mut im = ImplicitMatrix::encode(&m);
        let ess = im.essential_pass();
        assert_eq!(ess, vec![0]);
        // Rows {0} and {0,1} are covered; {1,2} remains.
        assert_eq!(im.num_rows(), 1);
    }

    #[test]
    fn full_reduce_matches_explicit_reducer() {
        use crate::reduce::Reducer;
        let m = CoverMatrix::from_rows(
            5,
            vec![vec![0], vec![0, 1, 2], vec![2, 3], vec![3], vec![1, 4]],
        );
        let mut im = ImplicitMatrix::encode(&m);
        let ess = im.reduce();
        let mut r = Reducer::new(&m);
        r.reduce_to_fixpoint();
        let mut explicit_fixed = r.fixed().to_vec();
        explicit_fixed.sort_unstable();
        assert_eq!(ess, explicit_fixed);
        // Both engines should leave cores of the same size.
        assert_eq!(im.num_rows(), r.active_rows() as u128);
    }

    #[test]
    fn cyclic_family_is_stable() {
        let m = CoverMatrix::from_rows(
            5,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
        );
        let mut im = ImplicitMatrix::encode(&m);
        let ess = im.reduce();
        assert!(ess.is_empty());
        assert_eq!(im.num_rows(), 5);
        assert!(!im.is_done());
        assert!(!im.infeasible());
    }

    #[test]
    fn reduce_until_small_stops_early() {
        let m = CoverMatrix::from_rows(3, vec![vec![0], vec![0, 1], vec![1, 2]]);
        let mut im = ImplicitMatrix::encode(&m);
        // Already below the bound: nothing happens.
        let ess = im.try_reduce_until_small(100, 100, &Halt::none()).unwrap();
        assert!(ess.is_empty());
        assert_eq!(im.num_rows(), 3);
    }

    #[test]
    fn reduce_with_aggressive_gc_matches_default_kernel() {
        let m = CoverMatrix::from_rows(
            6,
            vec![
                vec![0, 1],
                vec![1, 2],
                vec![2, 3],
                vec![3, 4],
                vec![4, 5],
                vec![5, 0],
                vec![0, 2, 4],
                vec![1, 3, 5],
            ],
        );
        let mut plain = ImplicitMatrix::encode(&m);
        let ess_plain = plain.reduce();
        let gc_opts = zdd::ZddOptions::new().gc_threshold(8).gc_ratio(1.1);
        let mut gcd = ImplicitMatrix::encode_with(&m, gc_opts);
        let ess_gcd = gcd.reduce();
        assert_eq!(ess_plain, ess_gcd);
        assert_eq!(plain.num_rows(), gcd.num_rows());
        let (dp, _) = plain.decode();
        let (dg, _) = gcd.decode();
        assert_eq!(dp.rows(), dg.rows());
        assert!(
            gcd.zdd_stats().gc_runs > 0,
            "tiny threshold never collected"
        );
    }

    #[test]
    fn infeasible_detected() {
        let m = CoverMatrix::from_rows(2, vec![vec![], vec![0]]);
        let im = ImplicitMatrix::encode(&m);
        assert!(im.infeasible());
    }
}

#[cfg(test)]
mod canonical_tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!((c, col_map), ImplicitMatrix::encode(&m).decode());
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
            prop_assert_eq!(canonical_rows(&m), ImplicitMatrix::encode(&m).decode());
        }
    }
}
