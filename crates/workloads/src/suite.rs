//! The named benchmark suite mirroring the paper's three categories.
//!
//! Every instance is deterministic given its name, so tables are exactly
//! reproducible run to run. Names echo the paper's instances (`bench1`,
//! `ex5`, `test2`, …) to make the regenerated tables easy to read next to
//! the originals, but the matrices are synthetic — see `DESIGN.md`.

use crate::generators::{
    circulant, random_pla, random_ucp, steiner_triple, CostModel, RandomUcpConfig,
};
use cover::CoverMatrix;
use logic::covering::build_covering;

/// The paper's difficulty taxonomy (§5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Category {
    /// Cyclic core non-empty, covering problem solved at the time.
    EasyCyclic,
    /// Cyclic core non-empty, covering problem unsolved at the time.
    DifficultCyclic,
    /// Prime enumeration itself was the obstacle.
    Challenging,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Category::EasyCyclic => write!(f, "easy cyclic"),
            Category::DifficultCyclic => write!(f, "difficult cyclic"),
            Category::Challenging => write!(f, "challenging"),
        }
    }
}

/// A named benchmark instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Display name (echoes the paper's instance names).
    pub name: String,
    /// Difficulty category.
    pub category: Category,
    /// The covering matrix.
    pub matrix: CoverMatrix,
    /// How it was generated.
    pub description: String,
}

impl Instance {
    fn new(name: &str, category: Category, matrix: CoverMatrix, description: &str) -> Self {
        Instance {
            name: name.to_string(),
            category,
            matrix,
            description: description.to_string(),
        }
    }
}

/// The 49 *easy cyclic* instances: small cyclic cores that an exact solver
/// handles quickly, so heuristic quality can be judged against proven
/// optima (the paper reports total cost 5225 vs Espresso's 5330).
pub fn easy_cyclic() -> Vec<Instance> {
    let mut out = Vec::new();
    // 15 odd circulants with k = 2 (the archetypal cyclic core).
    for (idx, n) in (0..15).map(|i| (i, 9 + 2 * i)).collect::<Vec<_>>() {
        out.push(Instance::new(
            &format!("cyc{n}"),
            Category::EasyCyclic,
            circulant(n, 2),
            &format!("circulant C({n},2), instance {idx}"),
        ));
    }
    // 10 wider circulants.
    for n in [12usize, 16, 20, 24, 28, 15, 21, 27, 33, 39] {
        let k = if n % 3 == 0 { 3 } else { 4 };
        out.push(Instance::new(
            &format!("cyc{n}k{k}"),
            Category::EasyCyclic,
            circulant(n, k),
            &format!("circulant C({n},{k})"),
        ));
    }
    // 16 random sparse matrices.
    for i in 0..16u64 {
        let cfg = RandomUcpConfig {
            rows: 30 + 4 * i as usize,
            cols: 40 + 5 * i as usize,
            min_row_degree: 2,
            max_row_degree: 5,
            costs: CostModel::Unit,
        };
        out.push(Instance::new(
            &format!("rnd{i:02}"),
            Category::EasyCyclic,
            random_ucp(&cfg, 1000 + i),
            &format!("random {}×{} deg 2–5", cfg.rows, cfg.cols),
        ));
    }
    // 4 random matrices with non-uniform costs.
    for i in 0..4u64 {
        let cfg = RandomUcpConfig {
            rows: 40,
            cols: 60,
            min_row_degree: 2,
            max_row_degree: 6,
            costs: CostModel::Uniform { max: 4 },
        };
        out.push(Instance::new(
            &format!("wrnd{i}"),
            Category::EasyCyclic,
            random_ucp(&cfg, 2000 + i),
            "random 40×60 with costs 1–4",
        ));
    }
    // 4 small Quine–McCluskey instances from random PLAs.
    for (i, (ni, terms)) in [(7usize, 18usize), (8, 22), (8, 26), (9, 30)]
        .iter()
        .enumerate()
    {
        let pla = random_pla(*ni, 1, *terms, 150, 3000 + i as u64);
        let inst = build_covering(&pla).expect("small PLA");
        out.push(Instance::new(
            &format!("qm{i}"),
            Category::EasyCyclic,
            inst.matrix,
            &format!("QM matrix of random {ni}-input PLA with {terms} terms"),
        ));
    }
    debug_assert_eq!(out.len(), 49);
    out
}

/// The 7 *difficult cyclic* instances (named after the paper's Table 1).
pub fn difficult_cyclic() -> Vec<Instance> {
    let mut out = Vec::new();
    let specs: [(&str, RandomUcpConfig, u64); 5] = [
        (
            "bench1",
            RandomUcpConfig {
                rows: 140,
                cols: 220,
                min_row_degree: 3,
                max_row_degree: 8,
                costs: CostModel::Unit,
            },
            11,
        ),
        (
            "ex5",
            RandomUcpConfig {
                rows: 180,
                cols: 260,
                min_row_degree: 4,
                max_row_degree: 10,
                costs: CostModel::Unit,
            },
            12,
        ),
        (
            "exam",
            RandomUcpConfig {
                rows: 120,
                cols: 180,
                min_row_degree: 3,
                max_row_degree: 7,
                costs: CostModel::Unit,
            },
            13,
        ),
        (
            "max1024",
            RandomUcpConfig {
                rows: 200,
                cols: 320,
                min_row_degree: 3,
                max_row_degree: 9,
                costs: CostModel::Unit,
            },
            14,
        ),
        (
            "prom2",
            RandomUcpConfig {
                rows: 160,
                cols: 240,
                min_row_degree: 3,
                max_row_degree: 8,
                costs: CostModel::Unit,
            },
            15,
        ),
    ];
    for (name, cfg, seed) in specs {
        out.push(Instance::new(
            name,
            Category::DifficultCyclic,
            random_ucp(&cfg, seed),
            &format!(
                "random {}×{} deg {}–{}",
                cfg.rows, cfg.cols, cfg.min_row_degree, cfg.max_row_degree
            ),
        ));
    }
    out.push(Instance::new(
        "t1",
        Category::DifficultCyclic,
        steiner_triple(27),
        "Steiner triple covering STS(27): 117×27",
    ));
    out.push(Instance::new(
        "test4",
        Category::DifficultCyclic,
        steiner_triple(45),
        "Steiner triple covering STS(45): 330×45",
    ));
    out
}

/// The 16 *challenging* instances (named after the paper's Table 2).
pub fn challenging() -> Vec<Instance> {
    let mut out = Vec::new();
    // Large randoms standing in for the big PLA cores.
    let big: [(&str, usize, usize, usize, usize, u64); 8] = [
        ("ex1010", 400, 600, 3, 10, 21),
        ("ibm", 300, 450, 2, 6, 22),
        ("jbp", 260, 420, 2, 7, 23),
        ("pdc", 350, 520, 3, 9, 24),
        ("shift", 240, 400, 2, 5, 25),
        ("soar.pla", 480, 700, 3, 10, 26),
        ("test2", 600, 900, 3, 12, 27),
        ("test3", 500, 750, 3, 11, 28),
    ];
    for (name, rows, cols, lo, hi, seed) in big {
        let cfg = RandomUcpConfig {
            rows,
            cols,
            min_row_degree: lo,
            max_row_degree: hi,
            costs: CostModel::Unit,
        };
        out.push(Instance::new(
            name,
            Category::Challenging,
            random_ucp(&cfg, seed),
            &format!("random {rows}×{cols} deg {lo}–{hi}"),
        ));
    }
    // Steiner systems.
    for (name, n) in [("misg", 33usize), ("mish", 39), ("misj", 21)] {
        out.push(Instance::new(
            name,
            Category::Challenging,
            steiner_triple(n),
            &format!("Steiner triple covering STS({n})"),
        ));
    }
    // Wide circulants (hard fractional gaps).
    for (name, n, k) in [("ti", 60usize, 7usize), ("ts10", 80, 9), ("x2dn", 100, 11)] {
        out.push(Instance::new(
            name,
            Category::Challenging,
            circulant(n, k),
            &format!("circulant C({n},{k})"),
        ));
    }
    // Quine–McCluskey matrices of larger random PLAs.
    for (name, ni, terms, seed) in [("ex4", 10usize, 40usize, 31u64), ("xparc", 11, 48, 32)] {
        let pla = random_pla(ni, 2, terms, 120, seed);
        let inst = build_covering(&pla).expect("PLA within limits");
        out.push(Instance::new(
            name,
            Category::Challenging,
            inst.matrix,
            &format!("QM matrix of random {ni}-input 2-output PLA, {terms} terms"),
        ));
    }
    debug_assert_eq!(out.len(), 16);
    out
}

/// The Figure-1 instance: a 4×5 matrix on which the bound chain of the
/// paper's example holds *exactly*: `LB_MIS = 1 < LB_DA = 2 < LB_LR = 2.5`,
/// raised to 3 by integrality, with integer optimum 3 — and, with all costs
/// set to 1, `LB_MIS = LB_DA = 1` (the uniform-cost collapse of
/// Proposition 1).
///
/// The paper's own matrix survives only as an image; this reconstruction
/// satisfies every numeric fact quoted in §3.4: rows pairwise intersect
/// (MIS = one row), each row has a unit-cost cover, the dual solution
/// `m = (1,1,0,0)` is feasible with value 2, and the LP optimum is
/// `p = (½,½,½,½,0)` of value 2.5.
pub fn figure1() -> CoverMatrix {
    CoverMatrix::with_costs(
        5,
        vec![
            vec![0, 3],    // r1: cheap p1, shared expensive p4
            vec![1, 3],    // r2
            vec![0, 1, 4], // r3
            vec![2, 3, 4], // r4
        ],
        vec![1.0, 1.0, 1.0, 2.0, 2.0],
    )
}

/// The uniform-cost variant of [`figure1`] (all columns cost 1), on which
/// the MIS and dual-ascent bounds coincide.
pub fn figure1_uniform() -> CoverMatrix {
    CoverMatrix::from_rows(
        5,
        vec![vec![0, 3], vec![1, 3], vec![0, 1, 4], vec![2, 3, 4]],
    )
}

/// Everything, in paper order.
pub fn all() -> Vec<Instance> {
    let mut out = easy_cyclic();
    out.extend(difficult_cyclic());
    out.extend(challenging());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_sizes_match_the_paper() {
        assert_eq!(easy_cyclic().len(), 49);
        assert_eq!(difficult_cyclic().len(), 7);
        assert_eq!(challenging().len(), 16);
        assert_eq!(all().len(), 72);
    }

    #[test]
    fn names_are_unique() {
        let all = all();
        let mut names: Vec<&str> = all.iter().map(|i| i.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn all_instances_coverable() {
        for inst in all() {
            assert!(inst.matrix.is_coverable(), "{} uncoverable", inst.name);
            assert!(inst.matrix.num_rows() > 0, "{} empty", inst.name);
        }
    }

    #[test]
    fn deterministic_regeneration() {
        let a = difficult_cyclic();
        let b = difficult_cyclic();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.matrix, y.matrix, "{}", x.name);
        }
    }

    #[test]
    fn figure1_instance_shape() {
        let m = figure1();
        assert_eq!(m.num_rows(), 4);
        assert_eq!(m.num_cols(), 5);
        assert!(m.integer_costs());
        // All rows pairwise intersect (so the MIS has a single row) and each
        // row has a unit-cost cover (so LB_MIS = 1).
        for i in 0..4 {
            assert_eq!(m.min_row_cost(i), 1.0, "row {i}");
            for k in (i + 1)..4 {
                let shares = m.row(i).iter().any(|j| m.row(k).contains(j));
                assert!(shares, "rows {i},{k} disjoint");
            }
        }
        // The paper's dual witness m = (1,1,0,0) is feasible with value 2.
        for j in 0..5 {
            let load: f64 = [0usize, 1]
                .iter()
                .filter(|&&i| m.row(i).contains(&j))
                .count() as f64;
            assert!(load <= m.cost(j) + 1e-12, "column {j} violated");
        }
        // Integer optimum is 3 (e.g. columns {0,1,2}).
        let opt = cover::Solution::from_cols(vec![0, 1, 2]);
        assert!(opt.is_feasible(&m));
        assert_eq!(opt.cost(&m), 3.0);
    }
}
