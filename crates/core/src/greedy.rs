//! The four Lagrangian greedy primal heuristics of §3.5.
//!
//! Starting from the (usually infeasible) Lagrangian solution
//! `{j : c̃_j ≤ 0}`, columns are added one at a time, each chosen to
//! minimise a rating `γ_j` combining its Lagrangian cost `c̃_j` with the
//! number `n_j` of still-uncovered rows it covers; finally redundant columns
//! are removed. Using Lagrangian instead of original costs lets the
//! multipliers weigh row importance — the paper's observed improvement over
//! plain Chvátal greedy.
//!
//! The scans run on the matrix's flat CSR/CSC [`SparseView`] with a
//! reusable `GreedyScratch`: uncovered counts `n_j` are derived from
//! the rows still uncovered after seeding (and skipped entirely when the
//! seed already covers everything), the `lg₂` factors of the rating
//! rules come from a per-matrix lookup table (`n_j` is a small integer),
//! the pick loop scans a candidate list that compacts as columns drop
//! out, and the final redundancy elimination is a single pass in removal
//! priority order over the scratch's cover counts. A pass reports only
//! the cover's cost (`greedy_pass`); the `Solution` vector is
//! materialised just when a caller keeps the cover. All of it is exact:
//! the ratings, tie-breaks, removal sequence and cost fold are
//! bit-identical to the historical recompute-everything pass preserved
//! in [`crate::reference`], which the equivalence suite checks.

use cover::{Constraints, CoverMatrix, Solution, SparseView};
use std::cmp::Ordering;

/// Precomputed constraint context for the multicover greedy passes and
/// the constrained subgradient driver: per-row demand `b_i`, per-column
/// group membership and per-group at-most bounds, flattened once per
/// solve.
pub(crate) struct MulticoverCtx {
    /// Coverage requirement per row (`b_i ≥ 1`).
    pub demand: Vec<u32>,
    /// Group index per column; `usize::MAX` = ungrouped.
    pub group_of: Vec<usize>,
    /// At-most selection bound per group.
    pub bounds: Vec<u32>,
}

impl MulticoverCtx {
    /// Flattens a validated [`Constraints`] against `a`.
    pub fn new(a: &CoverMatrix, cons: &Constraints) -> Self {
        let demand = match cons.coverage_vec() {
            Some(c) => c.to_vec(),
            None => vec![1; a.num_rows()],
        };
        MulticoverCtx {
            demand,
            group_of: cons.group_index(a.num_cols()),
            bounds: cons.groups().iter().map(|g| g.bound()).collect(),
        }
    }

    /// The context a public entry point runs under: `None` for unate
    /// constraints (the unate kernels), otherwise the flattened `cons`
    /// after validating it against `a`.
    ///
    /// # Panics
    ///
    /// Panics if non-unate `cons` does not validate against `a`.
    pub fn checked(a: &CoverMatrix, cons: &Constraints) -> Option<Self> {
        (!cons.is_unate()).then(|| {
            cons.validate_for(a).expect("constraints fit the instance");
            MulticoverCtx::new(a, cons)
        })
    }
}

/// The rating rule for the next column.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GammaRule {
    /// `γ_j = c̃_j / n_j` (Chvátal's ratio with Lagrangian costs).
    Linear,
    /// `γ_j = c̃_j / lg₂(n_j + 1)`.
    Log,
    /// `γ_j = c̃_j / (n_j · lg₂(n_j + 1))`.
    LinearLog,
    /// The occurrence-weighted fourth rule: uncovered rows count inversely
    /// to how many columns could still cover them (`rows covered by few
    /// columns are more important`). Slower; the paper applies it to the
    /// initial problem only.
    Occurrence,
}

impl GammaRule {
    /// The three cheap rules, in the paper's order.
    pub const FAST: [GammaRule; 3] = [GammaRule::Linear, GammaRule::Log, GammaRule::LinearLog];
}

/// Reusable buffers for `greedy_pass`, allocated once per matrix and
/// reset (never reallocated) on every pass.
pub(crate) struct GreedyScratch {
    selected: Vec<bool>,
    covered: Vec<bool>,
    /// `n_j`: uncovered rows covered by column `j`, kept exact as rows
    /// become covered. Built on demand when the seed leaves rows
    /// uncovered.
    n_uncov: Vec<u32>,
    /// `lg₂(k + 1)` for every possible uncovered count `k` (bounded by
    /// the maximum column degree): the Log/LinearLog rules look the
    /// factor up instead of re-deriving the same transcendental millions
    /// of times per ascent.
    log2_table: Vec<f64>,
    /// Candidate columns for the pick loop (ascending; compacted in
    /// place as columns are selected or run out of uncovered rows).
    candidates: Vec<u32>,
    /// Per row: how many selected columns cover it (redundancy pass).
    cover_count: Vec<u32>,
    /// Cached rating per column, valid while `!gamma_stale[j]`. Within a
    /// pass a column's rating changes only when one of its rows becomes
    /// covered (that flips `n_j` for every rule and the covered terms of
    /// the occurrence rule), so `cover_col` marks exactly those columns
    /// stale and the scan recomputes lazily.
    gamma: Vec<f64>,
    gamma_stale: Vec<bool>,
    /// Selected columns in removal priority order (highest cost first,
    /// lowest index among ties) — only used when costs are not uniform.
    by_priority: Vec<u32>,
    /// The pass's selected columns; after the redundancy pass, the
    /// irredundant cover in ascending order.
    sol_cols: Vec<u32>,
    /// All costs equal: the removal priority degenerates to ascending
    /// index and the per-pass priority sort can be skipped.
    uniform_costs: bool,
    /// Bitmask of the current pass's seed set `{j : c̃_j ≤ 0}`.
    seed_mask: Vec<u64>,
    /// Memo of the last pass whose seed already covered every row. Such a
    /// pass never picks, so its outcome is a pure function of the seed
    /// set and the original costs — the rule and the `c̃` magnitudes are
    /// irrelevant. `cached_mask`/`cached_cost`/`cached_sol` replay it
    /// when the sign pattern recurs (λ moves slowly late in an ascent,
    /// so it usually does).
    cache_valid: bool,
    cached_mask: Vec<u64>,
    cached_cost: f64,
    cached_sol: Vec<u32>,
    /// Selected-columns-per-group counters for the constrained pass
    /// (sized on first constrained use; untouched by the unate pass).
    group_used: Vec<u32>,
}

impl GreedyScratch {
    pub fn new(a: &CoverMatrix) -> Self {
        let view = a.sparse();
        let max_degree = (0..a.num_cols())
            .map(|j| view.col(j).len())
            .max()
            .unwrap_or(0);
        GreedyScratch {
            selected: vec![false; a.num_cols()],
            covered: vec![false; a.num_rows()],
            n_uncov: vec![0; a.num_cols()],
            log2_table: (0..=max_degree).map(|k| (k as f64 + 1.0).log2()).collect(),
            candidates: Vec::with_capacity(a.num_cols()),
            cover_count: vec![0; a.num_rows()],
            gamma: vec![0.0; a.num_cols()],
            gamma_stale: vec![false; a.num_cols()],
            by_priority: Vec::new(),
            sol_cols: Vec::new(),
            uniform_costs: a.costs().windows(2).all(|w| w[0] == w[1]),
            seed_mask: vec![0; a.num_cols().div_ceil(64)],
            cache_valid: false,
            cached_mask: vec![0; a.num_cols().div_ceil(64)],
            cached_cost: f64::INFINITY,
            cached_sol: Vec::new(),
            group_used: Vec::new(),
        }
    }

    /// Materialises the last `greedy_pass`'s irredundant cover.
    pub fn extract_solution(&self) -> Solution {
        Solution::from_cols(self.sol_cols.iter().map(|&j| j as usize).collect())
    }
}

/// Marks every row of column `j` covered, maintaining the uncovered
/// count of every column touching a newly-covered row.
fn cover_col(
    view: &SparseView,
    j: usize,
    covered: &mut [bool],
    n_uncov: &mut [u32],
    gamma_stale: &mut [bool],
    uncovered: &mut usize,
) {
    for &i in view.col(j) {
        let i = i as usize;
        if !covered[i] {
            covered[i] = true;
            *uncovered -= 1;
            for &jj in view.row(i) {
                n_uncov[jj as usize] -= 1;
                gamma_stale[jj as usize] = true;
            }
        }
    }
}

/// One Lagrangian greedy pass over `scratch`'s buffers: seeds from the
/// relaxation solution, picks by rating until feasible, removes
/// redundant columns, and returns the cover's cost (the same fold as
/// [`Solution::cost`] on the extracted cover). The irredundant cover
/// stays in the scratch; [`GreedyScratch::extract_solution`] materialises
/// it when the caller keeps it. Returns `None` on an uncoverable row.
#[allow(clippy::needless_range_loop)] // scanning all columns by index is the clearest form
pub(crate) fn greedy_pass(
    a: &CoverMatrix,
    view: &SparseView,
    c_tilde: &[f64],
    rule: GammaRule,
    ws: &mut GreedyScratch,
) -> Option<f64> {
    let m_rows = a.num_rows();
    let costs = a.costs();

    // Sign mask of the seed set {j : c̃_j ≤ 0}. Built branchless (the
    // comparison against zero vectorises) so the memo check below costs
    // one compare of a handful of words.
    for w in ws.seed_mask.iter_mut() {
        *w = 0;
    }
    for (j, &c) in c_tilde.iter().enumerate() {
        ws.seed_mask[j >> 6] |= u64::from(c <= 0.0) << (j & 63);
    }
    if ws.cache_valid && ws.seed_mask == ws.cached_mask {
        // Same seed set as the memoised full-seed pass: that pass
        // covered every row from the seed alone, so this one does too,
        // takes no picks, and reduces to the identical irredundant
        // cover and cost.
        ws.sol_cols.clone_from(&ws.cached_sol);
        return Some(ws.cached_cost);
    }

    ws.selected.fill(false);
    ws.covered.fill(false);
    ws.sol_cols.clear();
    let mut uncovered = m_rows;

    // Seed with the Lagrangian relaxation's solution (ascending — the
    // mask replays the `c̃_j ≤ 0` scan). The uncovered counts are not
    // maintained here: most passes cover everything in the seed, and
    // the pick loop rebuilds them cheaply from the rows that remain.
    for (w, &word) in ws.seed_mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let j = (w << 6) + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            ws.selected[j] = true;
            ws.sol_cols.push(j as u32);
            for &i in view.col(j) {
                let i = i as usize;
                uncovered -= usize::from(!ws.covered[i]);
                ws.covered[i] = true;
            }
        }
    }
    let seeded_full = uncovered == 0;

    if uncovered > 0 {
        // `n_j` = uncovered rows in column `j`, derived from the
        // uncovered rows alone (identical integers to seeding full
        // degrees and decrementing along the way). The candidates are
        // exactly the columns touching an uncovered row, ascending after
        // the sort: a column with `n_j = 0` never reaches a comparison
        // in the reference scan, and a selected column has no uncovered
        // rows, so this is the same comparison sequence as scanning all
        // of `0..n`. A column leaves the list for good once selected or
        // out of uncovered rows (`n_uncov` only decreases), so each
        // scan compacts the list in place; the surviving subsequence
        // keeps the ascending order, and with it every pick under the
        // ε-tie-break.
        ws.n_uncov.fill(0);
        for i in 0..m_rows {
            if !ws.covered[i] {
                for &j in view.row(i) {
                    ws.n_uncov[j as usize] += 1;
                }
            }
        }
        // Ascending by construction — a sequential scan of the counts
        // beats collecting during the row sweep and sorting afterwards.
        ws.candidates.clear();
        for (j, &c) in ws.n_uncov.iter().enumerate() {
            if c > 0 {
                ws.candidates.push(j as u32);
                ws.gamma_stale[j] = true;
            }
        }
        while uncovered > 0 {
            let mut best: Option<(usize, f64)> = None;
            let mut kept = 0usize;
            if ws.uniform_costs {
                // Equal costs collapse the ε-tie-break: the scan is
                // ascending, so the incumbent's index is always smaller
                // than the challenger's and a tie can never prefer the
                // challenger — the update test is the strict compare
                // alone. `(MAX, ∞)` stands in for `None` (any finite
                // rating beats `∞ − ε = ∞`).
                let (mut bj, mut bg) = (usize::MAX, f64::INFINITY);
                for r in 0..ws.candidates.len() {
                    let j = ws.candidates[r] as usize;
                    let n_j = ws.n_uncov[j] as usize;
                    if n_j == 0 {
                        continue;
                    }
                    ws.candidates[kept] = j as u32;
                    kept += 1;
                    let gamma = if ws.gamma_stale[j] {
                        let g = rate(view, c_tilde, j, n_j, &ws.covered, &ws.log2_table, rule);
                        ws.gamma[j] = g;
                        ws.gamma_stale[j] = false;
                        g
                    } else {
                        ws.gamma[j]
                    };
                    if gamma < bg - 1e-12 {
                        bj = j;
                        bg = gamma;
                    }
                }
                if bj != usize::MAX {
                    best = Some((bj, bg));
                }
            } else {
                for r in 0..ws.candidates.len() {
                    let j = ws.candidates[r] as usize;
                    let n_j = ws.n_uncov[j] as usize;
                    if n_j == 0 {
                        continue;
                    }
                    ws.candidates[kept] = j as u32;
                    kept += 1;
                    let gamma = if ws.gamma_stale[j] {
                        let g = rate(view, c_tilde, j, n_j, &ws.covered, &ws.log2_table, rule);
                        ws.gamma[j] = g;
                        ws.gamma_stale[j] = false;
                        g
                    } else {
                        ws.gamma[j]
                    };
                    let better = match best {
                        None => true,
                        Some((bj, bg)) => {
                            gamma < bg - 1e-12
                                || ((gamma - bg).abs() <= 1e-12 && (costs[j], j) < (costs[bj], bj))
                        }
                    };
                    if better {
                        best = Some((j, gamma));
                    }
                }
            }
            ws.candidates.truncate(kept);
            let Some((j, _)) = best else {
                // No column covers a remaining row: infeasible.
                return None;
            };
            ws.selected[j] = true;
            ws.sol_cols.push(j as u32);
            // The picked column leaves the candidate list here (instead
            // of a per-step `selected` test in the scan: seeded columns
            // have no uncovered rows, so picked ones are the only
            // selected columns the list can contain).
            if let Ok(slot) = ws.candidates.binary_search(&(j as u32)) {
                ws.candidates.remove(slot);
            }
            cover_col(
                view,
                j,
                &mut ws.covered,
                &mut ws.n_uncov,
                &mut ws.gamma_stale,
                &mut uncovered,
            );
        }
    }

    // Remove redundant columns — same removal sequence as
    // [`Solution::make_irredundant`] (highest original cost first,
    // lowest index among ties): one pass in that priority order is
    // exact, because removals only decrease cover counts, so a column
    // observed non-redundant can never become redundant later.
    if !seeded_full {
        // The seed prefix is already ascending; only picked columns can
        // be out of place.
        ws.sol_cols.sort_unstable();
    }
    ws.cover_count.fill(0);
    for &j in &ws.sol_cols {
        for &i in view.col(j as usize) {
            ws.cover_count[i as usize] += 1;
        }
    }
    if ws.uniform_costs {
        // Equal costs: priority order is plain ascending index.
        for idx in 0..ws.sol_cols.len() {
            let j = ws.sol_cols[idx] as usize;
            if view.col(j).iter().all(|&i| ws.cover_count[i as usize] >= 2) {
                ws.selected[j] = false;
                for &i in view.col(j) {
                    ws.cover_count[i as usize] -= 1;
                }
            }
        }
    } else {
        ws.by_priority.clone_from(&ws.sol_cols);
        ws.by_priority.sort_unstable_by(|&x, &y| {
            costs[y as usize]
                .partial_cmp(&costs[x as usize])
                .unwrap_or(Ordering::Equal)
                .then(x.cmp(&y))
        });
        for idx in 0..ws.by_priority.len() {
            let j = ws.by_priority[idx] as usize;
            if view.col(j).iter().all(|&i| ws.cover_count[i as usize] >= 2) {
                ws.selected[j] = false;
                for &i in view.col(j) {
                    ws.cover_count[i as usize] -= 1;
                }
            }
        }
    }
    ws.sol_cols.retain(|&j| ws.selected[j as usize]);
    // The cover's cost, in [`Solution::cost`]'s ascending fold order.
    let mut cost = 0.0f64;
    for &j in &ws.sol_cols {
        cost += costs[j as usize];
    }
    if seeded_full {
        ws.cache_valid = true;
        ws.cached_mask.clone_from(&ws.seed_mask);
        ws.cached_cost = cost;
        ws.cached_sol.clone_from(&ws.sol_cols);
    }
    Some(cost)
}

/// The constrained generalization of [`greedy_pass`]: set-multicover
/// demand `b_i` per row plus at-most-`k` GUB group bounds. The unate
/// pass is the `b ≡ 1`, no-groups specialization (and keeps its own
/// hand-tuned loop above — the seed memo and the uniform-cost tie-break
/// collapse rely on unate invariants). Differences:
///
/// * a row is *satisfied* once `b_i` distinct selected columns cover it;
///   `n_j` counts a column's not-yet-satisfied rows (each selection adds
///   one unit of supply per row);
/// * seeding and picking skip columns whose GUB group is saturated, and
///   the candidate scan skips already-selected columns — with `b_i ≥ 2`
///   a selected column can still touch unsatisfied rows, an invariant
///   break the unate pass never sees;
/// * redundancy removal drops a column only when every row it covers
///   retains `> b_i` covers (removals can never violate an at-most
///   group bound).
///
/// Returns the cover's cost, or `None` when demand cannot be met under
/// the group bounds (multicover feasibility under GUB is NP-hard; the
/// structural pre-checks in [`Constraints::validate_for`] are necessary,
/// not sufficient).
#[allow(clippy::needless_range_loop)] // mirrors the unate pass's index scans
pub(crate) fn greedy_pass_constrained(
    a: &CoverMatrix,
    view: &SparseView,
    c_tilde: &[f64],
    rule: GammaRule,
    ctx: &MulticoverCtx,
    ws: &mut GreedyScratch,
) -> Option<f64> {
    let m_rows = a.num_rows();
    let costs = a.costs();
    // The unate seed memo keys on the seed sign pattern alone, which is
    // not sufficient under demand/groups: never reuse it across kinds.
    ws.cache_valid = false;

    ws.selected.fill(false);
    ws.covered.fill(false);
    ws.cover_count.fill(0);
    ws.sol_cols.clear();
    ws.group_used.clear();
    ws.group_used.resize(ctx.bounds.len(), 0);
    let mut uncovered = 0usize;
    for i in 0..m_rows {
        if ctx.demand[i] == 0 {
            // Validation rejects b_i = 0, but treat it as "already
            // satisfied" so this pass is locally safe regardless.
            ws.covered[i] = true;
        } else {
            uncovered += 1;
        }
    }

    // Seed with the relaxation solution, ascending, honouring the group
    // bounds as we go (first-fit within each group).
    for (j, &c) in c_tilde.iter().enumerate() {
        if c > 0.0 {
            continue;
        }
        let g = ctx.group_of[j];
        if g != usize::MAX && ws.group_used[g] >= ctx.bounds[g] {
            continue;
        }
        if g != usize::MAX {
            ws.group_used[g] += 1;
        }
        ws.selected[j] = true;
        ws.sol_cols.push(j as u32);
        for &i in view.col(j) {
            let i = i as usize;
            ws.cover_count[i] += 1;
            if ws.cover_count[i] == ctx.demand[i] {
                ws.covered[i] = true;
                uncovered -= 1;
            }
        }
    }

    if uncovered > 0 {
        // `n_j` = unsatisfied rows covered by column `j`; candidates are
        // the unselected columns that still help some row and whose
        // group has capacity.
        ws.n_uncov.fill(0);
        for i in 0..m_rows {
            if !ws.covered[i] {
                for &j in view.row(i) {
                    ws.n_uncov[j as usize] += 1;
                }
            }
        }
        ws.candidates.clear();
        for (j, &c) in ws.n_uncov.iter().enumerate() {
            // Skip selected columns: under `b_i ≥ 2` a selected column
            // can still touch unsatisfied rows, but re-picking it adds
            // no supply. (A no-op in the unate pass, where a selected
            // column never retains uncovered rows.)
            if c > 0 && !ws.selected[j] {
                ws.candidates.push(j as u32);
                ws.gamma_stale[j] = true;
            }
        }
        while uncovered > 0 {
            let mut best: Option<(usize, f64)> = None;
            let mut kept = 0usize;
            for r in 0..ws.candidates.len() {
                let j = ws.candidates[r] as usize;
                let n_j = ws.n_uncov[j] as usize;
                if n_j == 0 {
                    continue;
                }
                let g = ctx.group_of[j];
                if g != usize::MAX && ws.group_used[g] >= ctx.bounds[g] {
                    // Saturated group: out for the rest of the pass
                    // (selections only grow `group_used`).
                    continue;
                }
                ws.candidates[kept] = j as u32;
                kept += 1;
                let gamma = if ws.gamma_stale[j] {
                    let g = rate(view, c_tilde, j, n_j, &ws.covered, &ws.log2_table, rule);
                    ws.gamma[j] = g;
                    ws.gamma_stale[j] = false;
                    g
                } else {
                    ws.gamma[j]
                };
                let better = match best {
                    None => true,
                    Some((bj, bg)) => {
                        gamma < bg - 1e-12
                            || ((gamma - bg).abs() <= 1e-12 && (costs[j], j) < (costs[bj], bj))
                    }
                };
                if better {
                    best = Some((j, gamma));
                }
            }
            ws.candidates.truncate(kept);
            let Some((j, _)) = best else {
                // No admissible column helps a remaining row: demand
                // cannot be met under the group bounds.
                return None;
            };
            ws.selected[j] = true;
            ws.sol_cols.push(j as u32);
            let g = ctx.group_of[j];
            if g != usize::MAX {
                ws.group_used[g] += 1;
            }
            if let Ok(slot) = ws.candidates.binary_search(&(j as u32)) {
                ws.candidates.remove(slot);
            }
            for &i in view.col(j) {
                let i = i as usize;
                ws.cover_count[i] += 1;
                if ws.cover_count[i] == ctx.demand[i] {
                    ws.covered[i] = true;
                    uncovered -= 1;
                    for &jj in view.row(i) {
                        ws.n_uncov[jj as usize] -= 1;
                        ws.gamma_stale[jj as usize] = true;
                    }
                }
            }
        }
    }

    // Redundancy elimination, highest original cost first (lowest index
    // among ties): a column is redundant when every row it covers keeps
    // strictly more covers than its demand. Removing columns only frees
    // group capacity, so the at-most bounds stay satisfied.
    ws.sol_cols.sort_unstable();
    ws.by_priority.clone_from(&ws.sol_cols);
    ws.by_priority.sort_unstable_by(|&x, &y| {
        costs[y as usize]
            .partial_cmp(&costs[x as usize])
            .unwrap_or(Ordering::Equal)
            .then(x.cmp(&y))
    });
    for idx in 0..ws.by_priority.len() {
        let j = ws.by_priority[idx] as usize;
        if view
            .col(j)
            .iter()
            .all(|&i| ws.cover_count[i as usize] > ctx.demand[i as usize])
        {
            ws.selected[j] = false;
            for &i in view.col(j) {
                ws.cover_count[i as usize] -= 1;
            }
        }
    }
    ws.sol_cols.retain(|&j| ws.selected[j as usize]);
    let mut cost = 0.0f64;
    for &j in &ws.sol_cols {
        cost += costs[j as usize];
    }
    Some(cost)
}

/// Runs one Lagrangian greedy pass with the given rule under `cons` and
/// returns the cover, or `None` when no cover exists: an uncoverable row,
/// or — for multicover demand and GUB groups — a pass that cannot meet
/// demand under the group bounds. Unate constraints run the unate pass,
/// anything else the constrained one.
///
/// `c_tilde` are the Lagrangian costs steering the choice; the returned
/// cover is made irredundant under the matrix's *original* costs.
///
/// # Panics
///
/// Panics if `c_tilde.len() != a.num_cols()`, or if non-unate `cons`
/// does not validate against `a` (validate with
/// [`Constraints::validate_for`] first).
///
/// # Example
///
/// ```
/// use cover::{Constraints, CoverMatrix};
/// use ucp_core::greedy::{lagrangian_greedy, GammaRule};
///
/// let m = CoverMatrix::from_rows(3, vec![vec![0, 1], vec![1, 2]]);
/// let sol = lagrangian_greedy(&m, m.costs(), GammaRule::Linear, &Constraints::unate()).unwrap();
/// assert_eq!(sol.cols(), &[1]); // the middle column covers everything
///
/// let cons = Constraints::new().coverage(vec![2, 1]);
/// let sol = lagrangian_greedy(&m, m.costs(), GammaRule::Linear, &cons).unwrap();
/// assert!(cons.is_satisfied(&m, &sol));
/// ```
pub fn lagrangian_greedy(
    a: &CoverMatrix,
    c_tilde: &[f64],
    rule: GammaRule,
    cons: &Constraints,
) -> Option<Solution> {
    assert_eq!(c_tilde.len(), a.num_cols(), "one rating cost per column");
    let mctx = MulticoverCtx::checked(a, cons);
    let mut ws = GreedyScratch::new(a);
    best_greedy(a, a.sparse(), c_tilde, &[rule], mctx.as_ref(), &mut ws).map(|(sol, _)| sol)
}

fn rate(
    view: &SparseView,
    c_tilde: &[f64],
    j: usize,
    n_j: usize,
    covered: &[bool],
    log2_table: &[f64],
    rule: GammaRule,
) -> f64 {
    let c = c_tilde[j].max(0.0);
    let nf = n_j as f64;
    match rule {
        GammaRule::Linear => c / nf,
        GammaRule::Log => c / log2_table[n_j],
        GammaRule::LinearLog => c / (nf * log2_table[n_j]),
        GammaRule::Occurrence => {
            let mut weight = 0.0f64;
            for &i in view.col(j) {
                let i = i as usize;
                if covered[i] {
                    continue;
                }
                let occ = view.row(i).len();
                weight += if occ > 1 {
                    1.0 / (occ as f64 - 1.0)
                } else {
                    // Essential row: make its column irresistible.
                    1e9
                };
            }
            c / weight
        }
    }
}

/// Runs every rule in `rules` over a caller-provided scratch — the
/// constrained pass under `mctx`, the unate pass without — and returns
/// the cheapest cover found (by original cost), materialising a
/// `Solution` only when a pass improves on the covers seen so far.
pub(crate) fn best_greedy(
    a: &CoverMatrix,
    view: &SparseView,
    c_tilde: &[f64],
    rules: &[GammaRule],
    mctx: Option<&MulticoverCtx>,
    ws: &mut GreedyScratch,
) -> Option<(Solution, f64)> {
    let mut best: Option<(Solution, f64)> = None;
    for &rule in rules {
        let pass = match mctx {
            None => greedy_pass(a, view, c_tilde, rule, ws),
            Some(ctx) => greedy_pass_constrained(a, view, c_tilde, rule, ctx, ws),
        };
        if let Some(cost) = pass {
            match &best {
                Some((_, bc)) if *bc <= cost => {}
                _ => best = Some((ws.extract_solution(), cost)),
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cover::GubGroup;

    fn cycle5() -> CoverMatrix {
        CoverMatrix::from_rows(
            5,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
        )
    }

    #[test]
    fn greedy_covers_cycle() {
        let m = cycle5();
        for rule in [
            GammaRule::Linear,
            GammaRule::Log,
            GammaRule::LinearLog,
            GammaRule::Occurrence,
        ] {
            let sol =
                lagrangian_greedy(&m, m.costs(), rule, &Constraints::unate()).expect("coverable");
            assert!(sol.is_feasible(&m), "rule {rule:?}");
            assert_eq!(sol.cost(&m), 3.0, "rule {rule:?} should hit the optimum");
        }
    }

    #[test]
    fn negative_lagrangian_costs_seed_the_solution() {
        let m = cycle5();
        // λ large makes all columns free: everything selected, then the
        // irredundant pass thins it back to a minimal cover.
        let c_tilde = vec![-1.0; 5];
        let sol =
            lagrangian_greedy(&m, &c_tilde, GammaRule::Linear, &Constraints::unate()).unwrap();
        assert!(sol.is_feasible(&m));
        assert_eq!(sol.cost(&m), 3.0);
    }

    #[test]
    fn infeasible_matrix_returns_none() {
        let m = CoverMatrix::from_rows(1, vec![vec![0], vec![]]);
        assert!(
            lagrangian_greedy(&m, m.costs(), GammaRule::Linear, &Constraints::unate()).is_none()
        );
    }

    #[test]
    fn greedy_prefers_cheap_wide_columns() {
        // Column 2 covers both rows; columns 0, 1 cover one each.
        let m = CoverMatrix::from_rows(3, vec![vec![0, 2], vec![1, 2]]);
        let sol =
            lagrangian_greedy(&m, m.costs(), GammaRule::Linear, &Constraints::unate()).unwrap();
        assert_eq!(sol.cols(), &[2]);
    }

    #[test]
    fn occurrence_rule_prioritises_rare_rows() {
        // Row 1 is covered by a single column (1): rule 4 must pick it first
        // even though column 0 covers more rows.
        let m = CoverMatrix::from_rows(3, vec![vec![0, 1], vec![1], vec![0, 2], vec![0, 2]]);
        let sol =
            lagrangian_greedy(&m, m.costs(), GammaRule::Occurrence, &Constraints::unate()).unwrap();
        assert!(sol.contains(1));
        assert!(sol.is_feasible(&m));
    }

    #[test]
    fn pass_cost_matches_the_extracted_cover() {
        let m = CoverMatrix::with_costs(
            4,
            vec![vec![0, 1, 2], vec![1, 3], vec![0, 3], vec![2]],
            vec![3.0, 1.0, 2.0, 2.0],
        );
        let mut ws = GreedyScratch::new(&m);
        let cost = greedy_pass(&m, m.sparse(), m.costs(), GammaRule::Linear, &mut ws).unwrap();
        let sol = ws.extract_solution();
        assert_eq!(cost.to_bits(), sol.cost(&m).to_bits());
        assert!(sol.is_feasible(&m));
    }

    #[test]
    fn best_of_rules_never_worse_than_each() {
        let m = cycle5();
        let mut ws = GreedyScratch::new(&m);
        let (best, cost) =
            best_greedy(&m, m.sparse(), m.costs(), &GammaRule::FAST, None, &mut ws).unwrap();
        assert!(best.is_feasible(&m));
        for rule in GammaRule::FAST {
            let sol = lagrangian_greedy(&m, m.costs(), rule, &Constraints::unate()).unwrap();
            assert!(cost <= sol.cost(&m));
        }
    }

    #[test]
    fn scratch_reuse_is_stateless_across_passes() {
        // A pass that covers everything must not leak state into the
        // next pass on the same scratch.
        let m = cycle5();
        let view = m.sparse();
        let mut ws = GreedyScratch::new(&m);
        greedy_pass(&m, view, &[-1.0; 5], GammaRule::Linear, &mut ws).unwrap();
        let first = ws.extract_solution();
        greedy_pass(&m, view, m.costs(), GammaRule::Log, &mut ws).unwrap();
        let second = ws.extract_solution();
        let fresh =
            lagrangian_greedy(&m, m.costs(), GammaRule::Log, &Constraints::unate()).unwrap();
        assert_eq!(second, fresh);
        assert!(first.is_feasible(&m));
    }

    #[test]
    fn constrained_pass_with_unit_demand_matches_unate() {
        // b ≡ 1, no groups: the constrained pass must yield the same
        // cover as the unate pass (same picks, same redundancy order).
        let matrices = [
            cycle5(),
            CoverMatrix::with_costs(
                4,
                vec![vec![0, 1, 2], vec![1, 3], vec![0, 3], vec![2]],
                vec![3.0, 1.0, 2.0, 2.0],
            ),
        ];
        let cons = Constraints::new();
        for m in &matrices {
            let ctx = MulticoverCtx::new(m, &cons);
            for rule in GammaRule::FAST {
                let c_tilde: Vec<f64> = (0..m.num_cols())
                    .map(|j| m.cost(j) - 0.7 * (j % 3) as f64)
                    .collect();
                let mut ws = GreedyScratch::new(m);
                let unate_cost = greedy_pass(m, m.sparse(), &c_tilde, rule, &mut ws).unwrap();
                let unate = ws.extract_solution();
                let cons_cost =
                    greedy_pass_constrained(m, m.sparse(), &c_tilde, rule, &ctx, &mut ws).unwrap();
                let constrained = ws.extract_solution();
                assert_eq!(unate, constrained, "rule {rule:?}");
                assert_eq!(unate_cost.to_bits(), cons_cost.to_bits(), "rule {rule:?}");
            }
        }
    }

    #[test]
    fn constrained_pass_meets_multicover_demand() {
        // Row 0 needs two distinct columns; a single wide column is not
        // enough.
        let m = CoverMatrix::from_rows(3, vec![vec![0, 1, 2], vec![2]]);
        let cons = Constraints::new().coverage(vec![2, 1]);
        let sol = lagrangian_greedy(&m, m.costs(), GammaRule::Linear, &cons).unwrap();
        assert!(sol.len() >= 2);
        assert!(cons.is_satisfied(&m, &sol));
    }

    #[test]
    fn constrained_pass_honours_group_bounds() {
        // Both rows coverable by group {0, 1} alone, but at most one of
        // those columns may be picked: the cover must use column 2.
        let m = CoverMatrix::from_rows(3, vec![vec![0, 1], vec![0, 1, 2]]);
        let cons = Constraints::new().gub_groups(vec![GubGroup::new(vec![0, 1], 1)]);
        let cheap: Vec<f64> = vec![-1.0, -1.0, 5.0];
        let sol = lagrangian_greedy(&m, &cheap, GammaRule::Linear, &cons).unwrap();
        assert!(cons.is_satisfied(&m, &sol));
        let in_group = sol.cols().iter().filter(|&&j| j < 2).count();
        assert!(in_group <= 1);
    }

    #[test]
    fn constrained_pass_reports_unmeetable_demand() {
        // Row 0 demands two covers but only one column touches it.
        let m = CoverMatrix::from_rows(2, vec![vec![0], vec![0, 1]]);
        let cons = Constraints::new().coverage(vec![2, 1]);
        let ctx = MulticoverCtx::new(&m, &cons);
        let mut ws = GreedyScratch::new(&m);
        assert!(greedy_pass_constrained(
            &m,
            m.sparse(),
            m.costs(),
            GammaRule::Linear,
            &ctx,
            &mut ws
        )
        .is_none());
    }

    #[test]
    fn constrained_redundancy_keeps_demand_satisfied() {
        // Seed everything (all c̃ ≤ 0): the redundancy pass must keep at
        // least b_i covers per row while thinning the rest.
        let m = CoverMatrix::with_costs(
            4,
            vec![vec![0, 1, 2, 3], vec![1, 2], vec![0, 3]],
            vec![1.0, 2.0, 3.0, 4.0],
        );
        let cons = Constraints::new().coverage(vec![2, 1, 1]);
        let sol = lagrangian_greedy(&m, &[-1.0; 4], GammaRule::Linear, &cons).unwrap();
        assert!(cons.is_satisfied(&m, &sol));
    }

    #[test]
    fn scratch_pass_matches_the_dense_reference() {
        // The lookup-table ratings, compacting candidate list,
        // on-demand uncovered counts and single-pass redundancy
        // elimination must reproduce the recompute-everything reference
        // exactly — covers included — on uniform and non-uniform costs.
        use crate::reference::lagrangian_greedy_dense;
        let matrices = [
            cycle5(),
            CoverMatrix::from_rows(
                6,
                (0..6).map(|i| vec![i, (i + 1) % 6, (i + 3) % 6]).collect(),
            ),
            CoverMatrix::with_costs(
                4,
                vec![vec![0, 1, 2], vec![1, 3], vec![0, 3], vec![2]],
                vec![3.0, 1.0, 2.0, 2.0],
            ),
        ];
        for (mi, m) in matrices.iter().enumerate() {
            for rule in [
                GammaRule::Linear,
                GammaRule::Log,
                GammaRule::LinearLog,
                GammaRule::Occurrence,
            ] {
                // Lagrangian costs with negatives to exercise seeding and
                // the redundancy pass.
                let c_tilde: Vec<f64> = (0..m.num_cols())
                    .map(|j| m.cost(j) - 0.7 * (j % 3) as f64)
                    .collect();
                let live = lagrangian_greedy(m, &c_tilde, rule, &Constraints::unate());
                let dense = lagrangian_greedy_dense(m, &c_tilde, rule);
                assert_eq!(live, dense, "matrix {mi}, rule {rule:?}");
            }
        }
    }
}
