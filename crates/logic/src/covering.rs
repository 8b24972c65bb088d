//! The Quine–McCluskey reduction: PLA → unate covering instance → minimised
//! PLA.
//!
//! Rows are `(ON-minterm, output)` pairs; columns are candidate product
//! terms `(cube, output set)` where the cube is an implicant of `ON ∪ DC`
//! for every output in the set. Column costs are 1 (the paper's objective:
//! number of products, literals only a secondary concern).
//!
//! **Multi-output fidelity.** The columns are exactly the multi-output
//! primes: every cube with its *maximal* output set that no single-literal
//! widening keeps implicant for that set. Terms shared between outputs
//! whose input part is prime for no single output are among them. All are
//! generated in one implicit prime computation; see `DESIGN.md`.

use crate::cube::Cube;
use crate::pla::Pla;
use crate::primes::{literal, prime_implicants};
use bdd::{Bdd, BddId};
use cover::{CoverMatrix, Solution};
use std::fmt;
use zdd::Zdd;

/// Guard on explicit minterm expansion.
const MAX_EXPANSION_INPUTS: usize = 24;

/// A unate covering instance derived from a PLA.
#[derive(Clone, Debug)]
pub struct UcpInstance {
    /// The covering matrix (rows: ON-minterm/output pairs; columns: terms).
    pub matrix: CoverMatrix,
    /// Column meanings: `(input cube, output mask)`.
    pub columns: Vec<(Cube, u64)>,
    /// Row meanings: `(minterm assignment, output index)`.
    pub rows: Vec<(u64, usize)>,
    num_inputs: usize,
    num_outputs: usize,
}

/// Why a covering instance could not be built.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildCoveringError {
    /// Explicit minterm expansion would exceed the supported input count.
    TooManyInputs(usize),
}

impl fmt::Display for BuildCoveringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildCoveringError::TooManyInputs(n) => {
                write!(
                    f,
                    "explicit minterm rows need ≤ {MAX_EXPANSION_INPUTS} inputs, got {n}"
                )
            }
        }
    }
}

impl std::error::Error for BuildCoveringError {}

impl UcpInstance {
    /// Number of PLA inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of PLA outputs.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Rebuilds a PLA from a covering solution: one product line per chosen
    /// column, asserting every output in the column's mask.
    ///
    /// # Panics
    ///
    /// Panics if the solution references a column out of range.
    pub fn solution_to_pla(&self, solution: &Solution) -> Pla {
        let mut pla = Pla::new(self.num_inputs, self.num_outputs);
        for &j in solution.cols() {
            let (cube, mask) = self.columns[j];
            pla.push_term(cube, mask, 0);
        }
        pla
    }
}

/// The column-cost objective.
///
/// The paper's cost function "is assumed to be the number of products …
/// with only a secondary concern given to the number of literals" —
/// [`TermCost::ProductsThenLiterals`] realises exactly that lexicographic
/// objective by pricing each term `1 + ε·literals` with `ε` small enough
/// that literal savings can never outweigh a whole product.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TermCost {
    /// Unit cost per product term (the primary objective alone). Integer
    /// costs keep the `⌈LB⌉` optimality certificate available.
    #[default]
    Products,
    /// `1 + ε·literal_count` per term: minimise products first, literals
    /// second. Costs become fractional, so the integer rounding certificate
    /// is unavailable.
    ProductsThenLiterals,
}

/// Builds the unate covering instance of a PLA with unit term costs.
///
/// # Errors
///
/// Returns [`BuildCoveringError::TooManyInputs`] when the PLA has more than
/// 24 inputs (explicit row enumeration guard).
///
/// # Example
///
/// ```
/// use logic::{build_covering, Pla};
/// let pla: Pla = ".i 2\n.o 1\n11 1\n10 1\n01 1\n.e\n".parse()?;
/// let inst = build_covering(&pla)?;
/// assert_eq!(inst.rows.len(), 3);
/// // Primes of (x0 ∧ x1) ∨ (x0 ∧ ¬x1) ∨ (¬x0 ∧ x1) = x0 ∨ x1: two columns.
/// assert_eq!(inst.columns.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn build_covering(pla: &Pla) -> Result<UcpInstance, BuildCoveringError> {
    build_covering_with(pla, TermCost::Products)
}

/// Builds the unate covering instance of a PLA under the chosen objective.
///
/// # Errors
///
/// See [`build_covering`].
pub fn build_covering_with(pla: &Pla, cost: TermCost) -> Result<UcpInstance, BuildCoveringError> {
    let n = pla.num_inputs();
    if n > MAX_EXPANSION_INPUTS {
        return Err(BuildCoveringError::TooManyInputs(n));
    }
    let candidates = candidate_columns(pla);
    let mut mgr = Bdd::default();

    // Rows: each output's ON-minterms in BDD order. Per output, the same
    // minterms paired with their rows and sorted, as the row index.
    let mut rows_meta: Vec<(u64, usize)> = Vec::new();
    let mut on_rows: Vec<Vec<(u64, usize)>> = Vec::with_capacity(pla.num_outputs());
    for o in 0..pla.num_outputs() {
        let on = pla.on_cover(o).to_bdd(&mut mgr);
        let ms = mgr.minterms(on, n as u32);
        let first = rows_meta.len();
        rows_meta.extend(ms.iter().map(|&m| (m, o)));
        let mut index: Vec<(u64, usize)> = ms.into_iter().zip(first..).collect();
        index.sort_unstable();
        on_rows.push(index);
    }

    // Incidence, column by column: a column's rows are the ON-minterms of
    // its outputs inside its cube. Enumerate the cube's minterms, or scan
    // the output's ON-minterms when those are fewer. Columns that cover no
    // row (pure don't-care terms) are dropped, and every row list comes out
    // ascending.
    let universe = (1u64 << n) - 1;
    let mut columns: Vec<(Cube, u64)> = Vec::new();
    let mut sparse_rows: Vec<Vec<usize>> = vec![Vec::new(); rows_meta.len()];
    let mut hits: Vec<usize> = Vec::new();
    for (cube, mask) in candidates {
        hits.clear();
        let free = universe & !(cube.pos() | cube.neg());
        for index in (0..on_rows.len())
            .filter(|o| mask >> o & 1 == 1)
            .map(|o| &on_rows[o])
        {
            if 1u64 << free.count_ones() > index.len() as u64 {
                hits.extend(
                    index
                        .iter()
                        .filter(|&&(m, _)| cube.eval(m))
                        .map(|&(_, r)| r),
                );
            } else {
                // Subsets of the free inputs, in increasing order.
                let mut s = 0u64;
                loop {
                    let m = cube.pos() | s;
                    if let Ok(k) = index.binary_search_by_key(&m, |&(m, _)| m) {
                        hits.push(index[k].1);
                    }
                    s = s.wrapping_sub(free) & free;
                    if s == 0 {
                        break;
                    }
                }
            }
        }
        if !hits.is_empty() {
            for &r in &hits {
                sparse_rows[r].push(columns.len());
            }
            columns.push((cube, mask));
        }
    }

    let costs: Vec<f64> = match cost {
        TermCost::Products => vec![1.0; columns.len()],
        TermCost::ProductsThenLiterals => {
            // ε small enough that even every column paying the maximum
            // literal premium sums below one whole product.
            let eps = 1.0 / ((columns.len().max(1) * (n + 1) * 2) as f64);
            columns
                .iter()
                .map(|(cube, _)| 1.0 + eps * f64::from(cube.literal_count()))
                .collect()
        }
    };
    let matrix = CoverMatrix::with_costs(columns.len(), sparse_rows, costs);
    Ok(UcpInstance {
        matrix,
        columns,
        rows: rows_meta,
        num_inputs: n,
        num_outputs: pla.num_outputs(),
    })
}

/// Candidate columns, sorted: the multi-output primes, each input cube
/// with its maximal output set. They are the primes of
/// `χ(x, y) = ∧ₒ (¬yₒ ∨ (onₒ ∨ dcₒ)(x))`. `χ` is negative unate in `y`, so
/// a prime's output set is the outputs whose `¬yₒ` it lacks; the one prime
/// with an empty set is dropped. `yₒ` = variable `o` sits above `xᵥ` =
/// variable `m + v`: every `y` node then has cofactors `χ₁ ≤ χ₀`, so the
/// recursion's `χ₀ ∧ χ₁` is `χ₁`, already memoised, and the build takes
/// half the time it takes with `y` below `x`.
fn candidate_columns(pla: &Pla) -> Vec<(Cube, u64)> {
    let m = pla.num_outputs();
    let mut mgr = Bdd::default();
    let terms: Vec<(BddId, u64)> = pla
        .terms()
        .iter()
        .map(|&(cube, on, dc)| (cube.bdd_at(&mut mgr, m as u32), on | dc))
        .collect();
    let mut chi = BddId::TRUE;
    for o in (0..m).rev() {
        let mut upper = BddId::FALSE;
        for &(term, outputs) in &terms {
            if outputs >> o & 1 == 1 {
                upper = mgr.or(upper, term);
            }
        }
        let not_y = mgr.nvar(o as u32);
        let clause = mgr.or(not_y, upper);
        chi = mgr.and(clause, chi);
    }

    let mut zdd = Zdd::default();
    let primes = prime_implicants(&mut mgr, &mut zdd, chi);
    let every_output = if m == 64 { u64::MAX } else { (1 << m) - 1 };
    let mut cols: Vec<(Cube, u64)> = zdd
        .sets(primes)
        .filter_map(|lits| {
            let (mut mask, mut pos, mut neg) = (every_output, 0u64, 0u64);
            for lit in lits {
                match literal(lit) {
                    (v, _) if (v as usize) < m => mask &= !(1 << v),
                    (v, true) => pos |= 1 << (v as usize - m),
                    (v, false) => neg |= 1 << (v as usize - m),
                }
            }
            (mask != 0).then(|| (Cube::new(pos, neg), mask))
        })
        .collect();
    cols.sort_unstable();
    cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::espresso::realizes;

    fn solve_brute(inst: &UcpInstance) -> Solution {
        let n = inst.matrix.num_cols();
        assert!(n <= 20);
        let mut best: Option<(u32, u32)> = None; // (popcount, mask)
        'mask: for mask in 0u32..(1 << n) {
            for row in inst.matrix.rows() {
                if !row.iter().any(|&j| mask >> j & 1 == 1) {
                    continue 'mask;
                }
            }
            let pc = mask.count_ones();
            if best.is_none_or(|(bpc, _)| pc < bpc) {
                best = Some((pc, mask));
            }
        }
        let (_, mask) = best.expect("coverable");
        Solution::from_cols((0..n).filter(|&j| mask >> j & 1 == 1).collect())
    }

    #[test]
    fn single_output_end_to_end() {
        // f = x0x1 + x0x1' + x0'x1 = x0 + x1: minimised cover is 2 terms.
        let pla: Pla = ".i 2\n.o 1\n11 1\n10 1\n01 1\n.e\n".parse().unwrap();
        let inst = build_covering(&pla).unwrap();
        let sol = solve_brute(&inst);
        assert_eq!(sol.len(), 2);
        let min = inst.solution_to_pla(&sol);
        assert!(realizes(&pla, &min));
    }

    #[test]
    fn dont_cares_enable_wider_primes() {
        // ON = {11}, DC = {10, 01}: the single prime x0∨... covering 11 with
        // DC help can be 1- or -1 (2^2 grid) — one term suffices.
        let pla: Pla = ".i 2\n.o 1\n11 1\n10 -\n01 -\n.e\n".parse().unwrap();
        let inst = build_covering(&pla).unwrap();
        let sol = solve_brute(&inst);
        assert_eq!(sol.len(), 1);
        let min = inst.solution_to_pla(&sol);
        assert!(realizes(&pla, &min));
    }

    #[test]
    fn multi_output_sharing() {
        // f0 = x0x1, f1 = x0x1: identical outputs share the single term.
        let pla: Pla = ".i 2\n.o 2\n11 11\n.e\n".parse().unwrap();
        let inst = build_covering(&pla).unwrap();
        let sol = solve_brute(&inst);
        assert_eq!(sol.len(), 1, "one shared term must suffice");
        let min = inst.solution_to_pla(&sol);
        assert!(realizes(&pla, &min));
    }

    #[test]
    fn shared_intersection_term_is_generated() {
        // f0 = x0x1 (on {11x}), f1 = x0x2: true multi-output prime x0x1x2
        // serves both outputs though it is prime for neither alone.
        let pla: Pla = ".i 3\n.o 2\n11- 10\n1-1 01\n.e\n".parse().unwrap();
        let inst = build_covering(&pla).unwrap();
        let shared = inst
            .columns
            .iter()
            .any(|&(c, mask)| mask == 0b11 && c == "111".parse().unwrap());
        assert!(
            shared,
            "the shared term is a multi-output prime: {:?}",
            inst.columns
        );
    }

    #[test]
    fn rows_are_on_minterms_only() {
        let pla: Pla = ".i 2\n.o 1\n11 1\n10 -\n.e\n".parse().unwrap();
        let inst = build_covering(&pla).unwrap();
        assert_eq!(inst.rows, vec![(0b11, 0)]);
    }

    #[test]
    fn too_many_inputs_rejected() {
        let pla = Pla::new(30, 1);
        assert_eq!(
            build_covering(&pla).unwrap_err(),
            BuildCoveringError::TooManyInputs(30)
        );
    }

    #[test]
    fn outputs_beyond_cube_width_decode() {
        // 2 inputs and 64 outputs: χ has 66 variables, more than a Cube
        // holds. Output o is the 2-input function with truth table o % 16.
        let (n, m) = (2, 64);
        let on = |o: usize, a: u64| (o % 16) >> a & 1 == 1;
        let mut pla = Pla::new(n, m);
        for a in 0..4u64 {
            let outputs = (0..m).filter(|&o| on(o, a)).map(|o| 1 << o);
            pla.push_term(Cube::minterm(a, n), outputs.sum(), 0);
        }
        let inst = build_covering(&pla).unwrap();

        // Brute force: every cube with its maximal output set, prime for
        // that set and covering some ON-minterm of it.
        let implicant = |c: &Cube, o: usize| (0..4).all(|a| !c.eval(a) || on(o, a));
        let mask_of =
            |c: &Cube| -> u64 { (0..m).filter(|&o| implicant(c, o)).map(|o| 1 << o).sum() };
        let mut want: Vec<(Cube, u64)> = (0..16u64)
            .filter(|&lits| lits & 3 & lits >> 2 == 0)
            .map(|lits| Cube::new(lits & 3, lits >> 2))
            .map(|c| (c, mask_of(&c)))
            .filter(|&(c, mask)| {
                let prime = (0..n).filter(|&v| !c.is_dont_care(v)).all(|v| {
                    let wider = Cube::new(c.pos() & !(1 << v), c.neg() & !(1 << v));
                    mask_of(&wider) & mask != mask
                });
                let useful =
                    (0..m).any(|o| mask >> o & 1 == 1 && (0..4).any(|a| c.eval(a) && on(o, a)));
                prime && useful
            })
            .collect();
        want.sort_unstable();
        assert_eq!(inst.columns, want);
        let min = inst.solution_to_pla(&solve_brute(&inst));
        assert!(realizes(&pla, &min));
    }

    #[test]
    fn empty_function_yields_empty_instance() {
        let pla: Pla = ".i 2\n.o 1\n.e\n".parse().unwrap();
        let inst = build_covering(&pla).unwrap();
        assert_eq!(inst.rows.len(), 0);
        assert_eq!(inst.matrix.num_rows(), 0);
    }
}

#[cfg(test)]
mod literal_cost_tests {
    use super::*;
    use crate::pla::Pla;

    #[test]
    fn literal_objective_breaks_ties_by_literals() {
        // ON = {11, 10}: both "1-" (1 literal) and the pair {11,10} cover it;
        // the one-product optimum is "1-"; with literal costs its column is
        // strictly cheaper than any narrower prime.
        let pla: Pla = ".i 2\n.o 1\n11 1\n10 1\n.e\n".parse().unwrap();
        let inst = build_covering_with(&pla, TermCost::ProductsThenLiterals).unwrap();
        assert!(!inst.matrix.integer_costs());
        // Every cost is in (1, 2): a product still dominates any literal sum.
        for &c in inst.matrix.costs() {
            assert!(c > 1.0 && c < 2.0, "cost {c}");
        }
        // Wider cubes (fewer literals) are cheaper.
        let mut by_literals: Vec<(u32, f64)> = inst
            .columns
            .iter()
            .zip(inst.matrix.costs())
            .map(|((cube, _), &c)| (cube.literal_count(), c))
            .collect();
        by_literals.sort_by_key(|&(lits, _)| lits);
        for pair in by_literals.windows(2) {
            assert!(pair[0].1 <= pair[1].1 + 1e-12);
        }
    }

    #[test]
    fn product_count_remains_primary() {
        use solvers_free_brute::brute_cover;
        let pla: Pla = ".i 3\n.o 1\n11- 1\n1-1 1\n011 1\n.e\n".parse().unwrap();
        let unit = build_covering(&pla).unwrap();
        let lex = build_covering_with(&pla, TermCost::ProductsThenLiterals).unwrap();
        let unit_opt = brute_cover(&unit.matrix);
        let lex_opt = brute_cover(&lex.matrix);
        // Same number of products in both optima.
        assert_eq!(unit_opt.len(), lex_opt.len());
    }

    /// Tiny local brute-force (kept here to avoid a dev-dependency cycle).
    mod solvers_free_brute {
        use cover::CoverMatrix;

        pub fn brute_cover(m: &CoverMatrix) -> Vec<usize> {
            let n = m.num_cols();
            assert!(n <= 20);
            let mut best: Option<(f64, u32)> = None;
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
                if best.is_none_or(|(b, _)| cost < b) {
                    best = Some((cost, mask));
                }
            }
            let (_, mask) = best.expect("coverable");
            (0..n).filter(|&j| mask >> j & 1 == 1).collect()
        }
    }
}
