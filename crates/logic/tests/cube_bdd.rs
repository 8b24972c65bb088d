//! Property tests for the cube ↔ BDD bridge: `Cube::implies` against brute
//! force, and `Cube::to_bdd` against the literal-by-literal construction.

use bdd::{Bdd, BddId};
use logic::{Cube, CubeList};
use proptest::prelude::*;

const MAX_VARS: usize = 8;

/// A cube over `n` variables: the all-don't-care cube, a full minterm, or
/// a random mix of literals and don't-cares.
fn cube(n: usize) -> impl Strategy<Value = Cube> {
    let rows = 1u64 << n;
    prop_oneof![
        Just(Cube::UNIVERSE),
        (0..rows).prop_map(move |m| Cube::minterm(m, n)),
        (0..rows, 0..rows).prop_map(|(care, phase)| Cube::new(phase & care, !phase & care)),
    ]
}

/// A function over `n` variables as a cover: constant false, constant
/// true, a random truth table (one minterm cube per true row), or a few
/// random cubes.
fn function(n: usize) -> impl Strategy<Value = CubeList> {
    prop_oneof![
        Just(CubeList::new(n)),
        Just(CubeList::from_cubes(n, vec![Cube::UNIVERSE])),
        prop::collection::vec(0u8..2, 1 << n).prop_map(move |table| {
            let rows = (0..1u64 << n).filter(|&m| table[m as usize] == 1);
            CubeList::from_cubes(n, rows.map(|m| Cube::minterm(m, n)).collect())
        }),
        prop::collection::vec(cube(n), 1..6).prop_map(move |cs| CubeList::from_cubes(n, cs)),
    ]
}

fn bits(m: u64, n: usize) -> Vec<bool> {
    (0..n).map(|v| m >> v & 1 == 1).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn implies_matches_brute_force(
        case in (1..=MAX_VARS).prop_flat_map(|n| (Just(n), function(n), cube(n)))
    ) {
        let (n, f, c) = case;
        let mut mgr = Bdd::default();
        let g = f.to_bdd(&mut mgr);
        let expected = (0..1u64 << n)
            .filter(|&m| c.eval(m))
            .all(|m| mgr.eval(g, &bits(m, n)));
        prop_assert_eq!(c.implies(&mgr, g), expected);
        prop_assert!(c.implies(&mgr, BddId::TRUE));
        prop_assert!(!c.implies(&mgr, BddId::FALSE));
    }

    #[test]
    fn to_bdd_matches_literal_construction(
        case in (1..=MAX_VARS).prop_flat_map(|n| (Just(n), cube(n)))
    ) {
        let (n, c) = case;
        let mut mgr = Bdd::default();
        let got = c.to_bdd(&mut mgr);
        for m in 0..1u64 << n {
            prop_assert_eq!(mgr.eval(got, &bits(m, n)), c.eval(m));
        }
        // Highest variable first, one conjunction per literal: the same
        // node ids as conjoining the literals in that order by hand.
        let mut by_hand = Bdd::default();
        let mut acc = BddId::TRUE;
        for v in (0..n).rev() {
            if c.has_pos(v) {
                let lit = by_hand.var(v as u32);
                acc = by_hand.and(lit, acc);
            } else if c.has_neg(v) {
                let lit = by_hand.nvar(v as u32);
                acc = by_hand.and(lit, acc);
            }
        }
        prop_assert_eq!(got, acc);
        prop_assert_eq!(mgr.len(), by_hand.len());
    }
}
