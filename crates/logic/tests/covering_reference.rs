//! `build_covering_with` against a naive reference built from truth
//! tables: primes by enumerating every cube, the intersection closure run
//! to a fixpoint over all pairs, and the incidence by testing every
//! column against every row.

use logic::covering::{build_covering_with, TermCost};
use logic::{Cube, Pla};
use proptest::prelude::*;
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

/// The instance's parts, built the slow way.
struct Reference {
    columns: Vec<(Cube, u64)>,
    rows: Vec<(u64, usize)>,
    incidence: Vec<Vec<usize>>,
    costs: Vec<f64>,
}

fn reference(pla: &Pla, cost: TermCost) -> Reference {
    let n = pla.num_inputs();
    let outputs = pla.num_outputs();
    let minterms = 1u64 << n;
    // Per output, truth tables as bitsets over the (≤ 64) minterms.
    let table = |f: &dyn Fn(u64) -> bool| -> u64 {
        (0..minterms).filter(|&a| f(a)).map(|a| 1u64 << a).sum()
    };
    let on: Vec<u64> = (0..outputs)
        .map(|o| table(&|a| pla.on_cover(o).eval(a)))
        .collect();
    let upper: Vec<u64> = (0..outputs)
        .map(|o| on[o] | table(&|a| pla.dc_cover(o).eval(a)))
        .collect();
    let inside = |c: &Cube| table(&|a| c.eval(a));
    let mask_of = |c: &Cube| -> u64 {
        let cells = inside(c);
        (0..outputs)
            .filter(|&o| cells & !upper[o] == 0)
            .map(|o| 1u64 << o)
            .sum()
    };

    // Every output's primes: implicants that lose that property when any
    // one literal is dropped.
    let mut cols: BTreeMap<Cube, u64> = BTreeMap::new();
    for code in 0..3u32.pow(n as u32) {
        let c = cube_of(code, n);
        let mask = mask_of(&c);
        for o in (0..outputs).filter(|&o| mask >> o & 1 == 1) {
            let prime = (0..n).filter(|&v| !c.is_dont_care(v)).all(|v| {
                let wider = Cube::new(c.pos() & !(1 << v), c.neg() & !(1 << v));
                mask_of(&wider) >> o & 1 == 0
            });
            if prime {
                cols.insert(c, mask);
            }
        }
    }

    if outputs > 1 {
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
                    let mask_c = mask_of(&c);
                    if mask_c & !(mask_a | mask_b) != 0 || (mask_c != mask_a && mask_c != mask_b) {
                        cols.insert(c, mask_c);
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
    }

    let columns: Vec<(Cube, u64)> = cols
        .into_iter()
        .filter(|(c, mask)| (0..outputs).any(|o| mask >> o & 1 == 1 && inside(c) & on[o] != 0))
        .collect();
    // Rows in the order a BDD enumerates minterms: input 0 decides first,
    // 0 before 1.
    let mut rows = Vec::new();
    for (o, &cells) in on.iter().enumerate() {
        let mut ms: Vec<u64> = (0..minterms).filter(|&a| cells >> a & 1 == 1).collect();
        ms.sort_by_key(|&a| a.reverse_bits());
        rows.extend(ms.into_iter().map(|a| (a, o)));
    }
    let incidence = rows
        .iter()
        .map(|&(a, o)| {
            (0..columns.len())
                .filter(|&j| columns[j].1 >> o & 1 == 1 && columns[j].0.eval(a))
                .collect()
        })
        .collect();
    let costs = match cost {
        TermCost::Products => vec![1.0; columns.len()],
        TermCost::ProductsThenLiterals => {
            let eps = 1.0 / ((columns.len().max(1) * (n + 1) * 2) as f64);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn build_covering_matches_the_naive_reference(pla in pla_strategy()) {
        for cost in [TermCost::Products, TermCost::ProductsThenLiterals] {
            let inst = build_covering_with(&pla, cost).unwrap();
            let want = reference(&pla, cost);
            prop_assert_eq!(&inst.columns, &want.columns);
            prop_assert_eq!(&inst.rows, &want.rows);
            prop_assert_eq!(inst.matrix.num_cols(), want.columns.len());
            prop_assert_eq!(inst.matrix.rows(), &want.incidence[..]);
            let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(inst.matrix.costs()), bits(&want.costs));
        }
    }
}
