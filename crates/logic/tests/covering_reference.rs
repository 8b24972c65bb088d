//! `build_covering_with` against a naive reference built from truth
//! tables: the multi-output primes by enumerating every cube, and the
//! incidence by testing every column against every row. The older column
//! set, each output's primes closed under pairwise intersection to a
//! fixpoint, stays as an oracle for the optimal cover cost.

use cover::CoverMatrix;
use logic::covering::{build_covering_with, TermCost};
use logic::{Cube, Pla};
use proptest::prelude::*;
use solvers::{branch_and_bound, BnbOptions};
use std::collections::BTreeMap;

/// The cube with base-3 code `code` over `n` inputs: per input, 0 is
/// free, 1 positive, 2 negative.
fn cube_of(mut code: u32, n: usize) -> Cube {
    let (mut pos, mut neg) = (0u64, 0u64);
    for v in 0..n {
        match code % 3 {
            0 => {}
            1 => pos |= 1 << v,
            _ => neg |= 1 << v,
        }
        code /= 3;
    }
    Cube::new(pos, neg)
}

/// Random multi-output PLAs with up to 6 inputs; some terms assert
/// don't-cares instead of ON outputs.
fn pla_strategy() -> impl Strategy<Value = Pla> {
    (2usize..=6, 1usize..=4).prop_flat_map(|(n, outputs)| {
        let term = (0u32..3u32.pow(n as u32), 1u64..1 << outputs, 0u8..4);
        prop::collection::vec(term, 1..12).prop_map(move |terms| {
            let mut pla = Pla::new(n, outputs);
            for (code, mask, kind) in terms {
                let cube = cube_of(code, n);
                if kind == 0 {
                    pla.push_term(cube, 0, mask);
                } else {
                    pla.push_term(cube, mask, 0);
                }
            }
            pla
        })
    })
}

/// A PLA's truth tables as bitsets over its (≤ 64) minterms.
struct Tables {
    n: usize,
    on: Vec<u64>,
    upper: Vec<u64>,
}

impl Tables {
    fn new(pla: &Pla) -> Self {
        let n = pla.num_inputs();
        let table = |f: &dyn Fn(u64) -> bool| -> u64 {
            (0..1u64 << n).filter(|&a| f(a)).map(|a| 1u64 << a).sum()
        };
        let outputs = 0..pla.num_outputs();
        let on: Vec<u64> = outputs
            .clone()
            .map(|o| table(&|a| pla.on_cover(o).eval(a)))
            .collect();
        let upper = outputs
            .map(|o| on[o] | table(&|a| pla.dc_cover(o).eval(a)))
            .collect();
        Tables { n, on, upper }
    }

    fn inside(&self, c: &Cube) -> u64 {
        (0..1u64 << self.n)
            .filter(|&a| c.eval(a))
            .map(|a| 1u64 << a)
            .sum()
    }

    /// The outputs for which `c` is an implicant of `ON ∪ DC`.
    fn mask_of(&self, c: &Cube) -> u64 {
        let cells = self.inside(c);
        (0..self.upper.len())
            .filter(|&o| cells & !self.upper[o] == 0)
            .map(|o| 1u64 << o)
            .sum()
    }

    /// `c` with each of its literals dropped in turn.
    fn widenings(&self, c: Cube) -> impl Iterator<Item = Cube> {
        (0..self.n)
            .filter(move |&v| !c.is_dont_care(v))
            .map(move |v| Cube::new(c.pos() & !(1 << v), c.neg() & !(1 << v)))
    }

    fn cubes(&self) -> impl Iterator<Item = Cube> + '_ {
        (0..3u32.pow(self.n as u32)).map(|code| cube_of(code, self.n))
    }

    /// Keeps the columns that cover some ON row.
    fn useful(&self, cols: BTreeMap<Cube, u64>) -> Vec<(Cube, u64)> {
        cols.into_iter()
            .filter(|(c, mask)| {
                (0..self.on.len()).any(|o| mask >> o & 1 == 1 && self.inside(c) & self.on[o] != 0)
            })
            .collect()
    }

    /// Rows in the order a BDD enumerates minterms: input 0 decides first,
    /// 0 before 1.
    fn rows(&self) -> Vec<(u64, usize)> {
        let mut rows = Vec::new();
        for (o, &cells) in self.on.iter().enumerate() {
            let mut ms: Vec<u64> = (0..1u64 << self.n)
                .filter(|&a| cells >> a & 1 == 1)
                .collect();
            ms.sort_by_key(|&a| a.reverse_bits());
            rows.extend(ms.into_iter().map(|a| (a, o)));
        }
        rows
    }
}

/// The row lists of `columns` over `rows`.
fn incidence(columns: &[(Cube, u64)], rows: &[(u64, usize)]) -> Vec<Vec<usize>> {
    rows.iter()
        .map(|&(a, o)| {
            (0..columns.len())
                .filter(|&j| columns[j].1 >> o & 1 == 1 && columns[j].0.eval(a))
                .collect()
        })
        .collect()
}

/// The multi-output primes: cubes `c` with `S = mask_of(c) ≠ ∅` such that
/// no single-literal widening of `c` keeps `S` in its mask.
fn multi_output_primes(t: &Tables) -> BTreeMap<Cube, u64> {
    t.cubes()
        .map(|c| (c, t.mask_of(&c)))
        .filter(|&(c, mask)| mask != 0 && t.widenings(c).all(|w| t.mask_of(&w) & mask != mask))
        .collect()
}

/// Every output's primes with their maximal output sets, closed under
/// pairwise intersection to a fixpoint.
fn intersection_closure(t: &Tables) -> BTreeMap<Cube, u64> {
    let mut cols: BTreeMap<Cube, u64> = BTreeMap::new();
    for c in t.cubes() {
        let mask = t.mask_of(&c);
        for o in (0..t.upper.len()).filter(|&o| mask >> o & 1 == 1) {
            if t.widenings(c).all(|w| t.mask_of(&w) >> o & 1 == 0) {
                cols.insert(c, mask);
            }
        }
    }
    loop {
        let snapshot: Vec<(Cube, u64)> = cols.iter().map(|(&c, &m)| (c, m)).collect();
        let mut grew = false;
        for &(a, mask_a) in &snapshot {
            for &(b, mask_b) in &snapshot {
                if mask_a == mask_b {
                    continue;
                }
                let Some(c) = a.intersect(&b) else { continue };
                if cols.contains_key(&c) {
                    continue;
                }
                let mask_c = t.mask_of(&c);
                if mask_c & !(mask_a | mask_b) != 0 || (mask_c != mask_a && mask_c != mask_b) {
                    cols.insert(c, mask_c);
                    grew = true;
                }
            }
        }
        if !grew {
            return cols;
        }
    }
}

/// The instance's parts, built the slow way.
struct Reference {
    columns: Vec<(Cube, u64)>,
    rows: Vec<(u64, usize)>,
    incidence: Vec<Vec<usize>>,
    costs: Vec<f64>,
}

fn reference(t: &Tables, cost: TermCost) -> Reference {
    let columns = t.useful(multi_output_primes(t));
    let rows = t.rows();
    let incidence = incidence(&columns, &rows);
    let costs = match cost {
        TermCost::Products => vec![1.0; columns.len()],
        TermCost::ProductsThenLiterals => {
            let eps = 1.0 / ((columns.len().max(1) * (t.n + 1) * 2) as f64);
            columns
                .iter()
                .map(|(c, _)| 1.0 + eps * f64::from(c.literal_count()))
                .collect()
        }
    };
    Reference {
        columns,
        rows,
        incidence,
        costs,
    }
}

/// The proven optimal cost of a unit-cost cover.
fn optimum(m: &CoverMatrix) -> f64 {
    let r = branch_and_bound(m, &BnbOptions::default());
    assert!(r.optimal);
    r.cost
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn build_covering_matches_the_naive_reference(pla in pla_strategy()) {
        let t = Tables::new(&pla);
        for cost in [TermCost::Products, TermCost::ProductsThenLiterals] {
            let inst = build_covering_with(&pla, cost).unwrap();
            let want = reference(&t, cost);
            prop_assert_eq!(&inst.columns, &want.columns);
            prop_assert_eq!(&inst.rows, &want.rows);
            prop_assert_eq!(inst.matrix.num_cols(), want.columns.len());
            prop_assert_eq!(inst.matrix.rows(), &want.incidence[..]);
            let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(inst.matrix.costs()), bits(&want.costs));
        }
        // The intersection closure's columns admit no cheaper cover.
        let inst = build_covering_with(&pla, TermCost::Products).unwrap();
        let closure = t.useful(intersection_closure(&t));
        let closure = CoverMatrix::from_rows(closure.len(), incidence(&closure, &t.rows()));
        prop_assert_eq!(optimum(&inst.matrix), optimum(&closure));
    }
}
