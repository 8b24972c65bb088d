//! A scherzo-like exact branch-and-bound for unate covering.
//!
//! The reference exact solvers of the paper's tables (*Scherzo*, *Aura*)
//! follow the classical recipe this module reproduces: reduce to a fixpoint
//! at every node, bound with a maximal independent set of rows, prune
//! columns with the limit-bound theorem, branch on a column of a
//! most-constrained row (include first for early incumbents).

use crate::chvatal::{chvatal_greedy, mis_lower_bound};
use cover::{CoverMatrix, Halt, Reducer, Solution};
use std::time::{Duration, Instant};

/// Runs `red` to its fixpoint. The search polls its own deadline between
/// nodes, so the reductions inside a node run unhalted.
fn fixpoint(red: &mut Reducer<'_>) {
    red.reduce_to_fixpoint(&Halt::none())
        .expect("Halt::none never fires");
}

/// Which lower bound prunes the search tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BoundKind {
    /// The classical maximal-independent-set bound (Scherzo's choice):
    /// cheap, adequate on sparse cores.
    #[default]
    Mis,
    /// The linear-programming relaxation bound (Liao–Devadas): tighter but
    /// costs a simplex solve per node; applied only while the node's core
    /// has at most `max_cols` columns (MIS is used beyond, and as a floor).
    Lpr {
        /// Column cap for the per-node LP solve.
        max_cols: usize,
    },
}

/// Search limits for [`branch_and_bound`].
#[derive(Clone, Copy, Debug)]
pub struct BnbOptions {
    /// Abort (returning the incumbent, `optimal = false`) after this many
    /// nodes.
    pub node_limit: u64,
    /// Optional wall-clock budget.
    pub time_limit: Option<Duration>,
    /// Lower-bounding strategy.
    pub bound: BoundKind,
}

impl Default for BnbOptions {
    fn default() -> Self {
        BnbOptions {
            node_limit: 2_000_000,
            time_limit: None,
            bound: BoundKind::Mis,
        }
    }
}

/// The outcome of an exact (or budget-truncated) search.
#[derive(Clone, Debug)]
pub struct BnbResult {
    /// Best cover found (`None` only for infeasible instances).
    pub solution: Option<Solution>,
    /// Its cost (`+∞` if infeasible).
    pub cost: f64,
    /// A valid global lower bound (equals `cost` when `optimal`).
    pub lower_bound: f64,
    /// `true` when the search completed and `solution` is a proven optimum.
    pub optimal: bool,
    /// Nodes expanded.
    pub nodes: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

struct SearchCtx {
    best: Option<Solution>,
    best_cost: f64,
    nodes: u64,
    node_limit: u64,
    deadline: Option<Instant>,
    aborted: bool,
    /// Smallest lower bound among pruned-by-budget subtrees (∞ when the
    /// search is exact); the global bound is min(best_cost, this).
    open_bound: f64,
    bound: BoundKind,
    integer_costs: bool,
}

impl SearchCtx {
    /// The node lower bound for `core`: MIS always, strengthened by the LP
    /// relaxation under [`BoundKind::Lpr`].
    fn node_bound(&self, core: &CoverMatrix, mis: f64) -> f64 {
        let mut lb = mis;
        if let BoundKind::Lpr { max_cols } = self.bound {
            if core.num_cols() <= max_cols {
                if let Ok(sol) =
                    lp::DenseLp::covering(core.num_cols(), core.rows(), core.costs()).solve()
                {
                    let lpr = if self.integer_costs {
                        (sol.objective - 1e-6).ceil()
                    } else {
                        sol.objective
                    };
                    lb = lb.max(lpr);
                }
            }
        }
        lb
    }
}

/// Solves `m` exactly by branch-and-bound (within the given budget).
///
/// # Example
///
/// ```
/// use cover::CoverMatrix;
/// use solvers::{branch_and_bound, BnbOptions};
///
/// let m = CoverMatrix::from_rows(
///     5,
///     vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
/// );
/// let r = branch_and_bound(&m, &BnbOptions::default());
/// assert!(r.optimal);
/// assert_eq!(r.cost, 3.0);
/// ```
pub fn branch_and_bound(m: &CoverMatrix, opts: &BnbOptions) -> BnbResult {
    let start = Instant::now();
    let mut ctx = SearchCtx {
        best: None,
        best_cost: f64::INFINITY,
        nodes: 0,
        node_limit: opts.node_limit,
        deadline: opts.time_limit.map(|d| start + d),
        aborted: false,
        open_bound: f64::INFINITY,
        bound: opts.bound,
        integer_costs: m.integer_costs(),
    };
    // Seed the incumbent with greedy so pruning bites immediately.
    if let Some(g) = chvatal_greedy(m) {
        ctx.best_cost = g.cost(m);
        ctx.best = Some(g);
    }
    let ids: Vec<usize> = (0..m.num_cols()).collect();
    recurse(m, &ids, Vec::new(), 0.0, &mut ctx);
    let optimal = !ctx.aborted && ctx.best.is_some();
    let lower_bound = if optimal {
        ctx.best_cost
    } else {
        ctx.open_bound.min(ctx.best_cost)
    };
    BnbResult {
        cost: if ctx.best.is_some() {
            ctx.best_cost
        } else {
            f64::INFINITY
        },
        solution: ctx.best,
        lower_bound,
        optimal,
        nodes: ctx.nodes,
        elapsed: start.elapsed(),
    }
}

/// Expands one node: `cur` with `cur→orig` map, columns `chosen` (orig ids)
/// already costing `chosen_cost`.
fn recurse(
    cur: &CoverMatrix,
    to_orig: &[usize],
    chosen: Vec<usize>,
    chosen_cost: f64,
    ctx: &mut SearchCtx,
) {
    ctx.nodes += 1;
    if ctx.nodes > ctx.node_limit || ctx.deadline.is_some_and(|d| Instant::now() > d) {
        ctx.aborted = true;
        ctx.open_bound = ctx.open_bound.min(chosen_cost);
        return;
    }

    // Reduce this node to its fixpoint.
    let mut red = Reducer::new(cur);
    fixpoint(&mut red);
    if red.infeasible() {
        return;
    }
    let mut chosen = chosen;
    let mut chosen_cost = chosen_cost;
    for &j in red.fixed() {
        chosen.push(to_orig[j]);
        chosen_cost += cur.cost(j);
    }
    if chosen_cost >= ctx.best_cost - 1e-9 {
        return;
    }
    let (core, _rows, col_map) = red.extract_core();
    let to_orig: Vec<usize> = col_map.iter().map(|&j| to_orig[j]).collect();

    if core.num_rows() == 0 {
        // Feasible leaf.
        if chosen_cost < ctx.best_cost - 1e-9 {
            ctx.best_cost = chosen_cost;
            ctx.best = Some(Solution::from_cols(chosen));
        }
        return;
    }

    // Lower bound + limit-bound pruning.
    let (mis, mis_rows) = mis_lower_bound(&core);
    let node_lb = ctx.node_bound(&core, mis);
    if chosen_cost + node_lb >= ctx.best_cost - 1e-9 {
        return;
    }
    let mut removable: Vec<usize> = Vec::new();
    if ctx.best_cost.is_finite() {
        let mut in_mis = vec![false; core.num_rows()];
        for &i in &mis_rows {
            in_mis[i] = true;
        }
        for j in 0..core.num_cols() {
            let outside = core.col_rows(j).iter().all(|&i| !in_mis[i]);
            if outside && chosen_cost + mis + core.cost(j) >= ctx.best_cost - 1e-9 {
                removable.push(j);
            }
        }
    }
    if !removable.is_empty() {
        // Re-reduce after the removals by recursing on the pruned matrix.
        let mut red2 = Reducer::with_state(&core, &[], &removable);
        fixpoint(&mut red2);
        if red2.infeasible() {
            return;
        }
        let mut chosen2 = chosen.clone();
        let mut cost2 = chosen_cost;
        for &j in red2.fixed() {
            chosen2.push(to_orig[j]);
            cost2 += core.cost(j);
        }
        let (core2, _r, cmap2) = red2.extract_core();
        let to_orig2: Vec<usize> = cmap2.iter().map(|&j| to_orig[j]).collect();
        if core2.num_rows() == 0 {
            if cost2 < ctx.best_cost - 1e-9 {
                ctx.best_cost = cost2;
                ctx.best = Some(Solution::from_cols(chosen2));
            }
            return;
        }
        branch(&core2, &to_orig2, chosen2, cost2, ctx);
        return;
    }

    branch(&core, &to_orig, chosen, chosen_cost, ctx);
}

/// Branches on the widest column of a most-constrained row.
fn branch(
    core: &CoverMatrix,
    to_orig: &[usize],
    chosen: Vec<usize>,
    chosen_cost: f64,
    ctx: &mut SearchCtx,
) {
    let row = (0..core.num_rows())
        .min_by_key(|&i| (core.row(i).len(), i))
        .expect("non-empty core");
    let &j = core
        .row(row)
        .iter()
        .max_by_key(|&&j| (core.col_rows(j).len(), std::cmp::Reverse(j)))
        .expect("reduced rows are non-empty");

    // Include j.
    {
        let mut red = Reducer::with_state(core, &[j], &[]);
        fixpoint(&mut red);
        if red.infeasible() {
            // dead branch
        } else {
            let mut c2 = chosen.clone();
            let mut cost2 = chosen_cost;
            for &f in red.fixed() {
                c2.push(to_orig[f]);
                cost2 += core.cost(f);
            }
            let (next, _r, cmap) = red.extract_core();
            let to2: Vec<usize> = cmap.iter().map(|&x| to_orig[x]).collect();
            if next.num_rows() == 0 {
                if cost2 < ctx.best_cost - 1e-9 {
                    ctx.best_cost = cost2;
                    ctx.best = Some(Solution::from_cols(c2));
                }
            } else {
                recurse(&next, &to2, c2, cost2, ctx);
            }
        }
    }

    // Exclude j.
    {
        let mut red = Reducer::with_state(core, &[], &[j]);
        fixpoint(&mut red);
        if red.infeasible() {
            return;
        }
        let mut c2 = chosen;
        let mut cost2 = chosen_cost;
        for &f in red.fixed() {
            c2.push(to_orig[f]);
            cost2 += core.cost(f);
        }
        if cost2 >= ctx.best_cost - 1e-9 {
            return;
        }
        let (next, _r, cmap) = red.extract_core();
        let to2: Vec<usize> = cmap.iter().map(|&x| to_orig[x]).collect();
        if next.num_rows() == 0 {
            if cost2 < ctx.best_cost - 1e-9 {
                ctx.best_cost = cost2;
                ctx.best = Some(Solution::from_cols(c2));
            }
        } else {
            recurse(&next, &to2, c2, cost2, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> CoverMatrix {
        CoverMatrix::from_rows(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
    }

    /// Exhaustive reference for tiny instances.
    fn brute(m: &CoverMatrix) -> Option<f64> {
        let n = m.num_cols();
        assert!(n <= 20);
        let mut best: Option<f64> = None;
        'mask: for mask in 0u32..(1 << n) {
            for row in m.rows() {
                if !row.iter().any(|&j| mask >> j & 1 == 1) {
                    continue 'mask;
                }
            }
            let c: f64 = (0..n)
                .filter(|&j| mask >> j & 1 == 1)
                .map(|j| m.cost(j))
                .sum();
            best = Some(best.map_or(c, |b: f64| b.min(c)));
        }
        best
    }

    #[test]
    fn exact_on_odd_cycles() {
        for n in [5usize, 7, 9, 11] {
            let m = cycle(n);
            let r = branch_and_bound(&m, &BnbOptions::default());
            assert!(r.optimal);
            assert_eq!(r.cost, (n / 2 + 1) as f64, "C{n}");
            assert!(r.solution.unwrap().is_feasible(&m));
        }
    }

    #[test]
    fn matches_brute_force_on_fixed_instances() {
        let cases: Vec<CoverMatrix> = vec![
            CoverMatrix::from_rows(
                6,
                vec![
                    vec![0, 3],
                    vec![1, 3, 4],
                    vec![2, 4],
                    vec![0, 5],
                    vec![1, 5],
                ],
            ),
            CoverMatrix::with_costs(
                5,
                vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![0, 4]],
                vec![1.0, 2.0, 1.0, 2.0, 1.0],
            ),
            CoverMatrix::from_rows(4, vec![vec![0, 1, 2, 3]]),
        ];
        for (k, m) in cases.into_iter().enumerate() {
            let r = branch_and_bound(&m, &BnbOptions::default());
            assert!(r.optimal, "case {k}");
            assert_eq!(Some(r.cost), brute(&m), "case {k}");
        }
    }

    #[test]
    fn infeasible_has_no_solution() {
        let m = CoverMatrix::from_rows(1, vec![vec![]]);
        let r = branch_and_bound(&m, &BnbOptions::default());
        assert!(r.solution.is_none());
        assert!(r.cost.is_infinite());
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        let m = cycle(15);
        let r = branch_and_bound(
            &m,
            &BnbOptions {
                node_limit: 1,
                ..BnbOptions::default()
            },
        );
        // Greedy incumbent still present and feasible.
        let sol = r.solution.expect("greedy incumbent");
        assert!(sol.is_feasible(&m));
        assert!(r.lower_bound <= r.cost);
    }

    #[test]
    fn lower_bound_equals_cost_when_optimal() {
        let m = cycle(7);
        let r = branch_and_bound(&m, &BnbOptions::default());
        assert!(r.optimal);
        assert_eq!(r.lower_bound, r.cost);
    }
}

#[cfg(test)]
mod lpr_tests {
    use super::*;

    fn cycle(n: usize) -> CoverMatrix {
        CoverMatrix::from_rows(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
    }

    #[test]
    fn lpr_bound_agrees_with_mis_bound_on_optimum() {
        for n in [7usize, 9, 11] {
            let m = cycle(n);
            let mis = branch_and_bound(&m, &BnbOptions::default());
            let lpr = branch_and_bound(
                &m,
                &BnbOptions {
                    bound: BoundKind::Lpr { max_cols: 64 },
                    ..BnbOptions::default()
                },
            );
            assert!(mis.optimal && lpr.optimal, "C{n}");
            assert_eq!(mis.cost, lpr.cost, "C{n}");
        }
    }

    #[test]
    fn lpr_prunes_odd_cycles_harder() {
        // On C_n the LP bound n/2 rounds to the optimum, so the LPR search
        // closes at (or very near) the root; the MIS bound ⌊n/2⌋ cannot.
        let m = cycle(13);
        let mis = branch_and_bound(&m, &BnbOptions::default());
        let lpr = branch_and_bound(
            &m,
            &BnbOptions {
                bound: BoundKind::Lpr { max_cols: 64 },
                ..BnbOptions::default()
            },
        );
        assert!(
            lpr.nodes <= mis.nodes,
            "LPR {} vs MIS {}",
            lpr.nodes,
            mis.nodes
        );
        assert!(
            lpr.nodes <= 3,
            "LPR should close at the root, took {}",
            lpr.nodes
        );
    }

    #[test]
    fn lpr_respects_column_cap() {
        // With max_cols = 0 the LP never runs: identical behaviour to MIS.
        let m = cycle(9);
        let capped = branch_and_bound(
            &m,
            &BnbOptions {
                bound: BoundKind::Lpr { max_cols: 0 },
                ..BnbOptions::default()
            },
        );
        let mis = branch_and_bound(&m, &BnbOptions::default());
        assert_eq!(capped.nodes, mis.nodes);
        assert_eq!(capped.cost, mis.cost);
    }
}
