//! Property tests over random small functions: prime generation agrees with
//! brute force, and end-to-end minimisation preserves the specification.

use logic::covering::build_covering;
use logic::espresso::realizes;
use logic::primes::{prime_cubes, primes_by_consensus};
use logic::{Cube, CubeList, Pla};
use proptest::prelude::*;

const N: usize = 4;

fn random_cover() -> impl Strategy<Value = CubeList> {
    let cube = (0u64..81).prop_map(|mut code| {
        // Base-3 encoding of a 4-var cube.
        let mut pos = 0u64;
        let mut neg = 0u64;
        for v in 0..N {
            match code % 3 {
                0 => {}
                1 => pos |= 1 << v,
                _ => neg |= 1 << v,
            }
            code /= 3;
        }
        Cube::new(pos, neg)
    });
    prop::collection::vec(cube, 1..6).prop_map(|cubes| CubeList::from_cubes(N, cubes))
}

fn truth_table(f: &CubeList) -> u16 {
    let mut t = 0u16;
    for a in 0..1u64 << N {
        if f.eval(a) {
            t |= 1 << a;
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn implicit_primes_match_consensus(f in random_cover()) {
        let mut mgr = bdd::Bdd::default();
        let b = f.to_bdd(&mut mgr);
        let implicit = prime_cubes(&mut mgr, b);
        let consensus = primes_by_consensus(f.cubes());
        prop_assert_eq!(implicit, consensus);
    }

    #[test]
    fn primes_are_implicants_and_maximal(f in random_cover()) {
        let mut mgr = bdd::Bdd::default();
        let b = f.to_bdd(&mut mgr);
        let primes = prime_cubes(&mut mgr, b);
        let tt = truth_table(&f);
        for p in &primes {
            // Implicant.
            for a in 0..1u64 << N {
                if p.eval(a) {
                    prop_assert!(tt >> a & 1 == 1, "prime {p} outside f");
                }
            }
            // Maximal: dropping any literal leaves f.
            for v in 0..N {
                if p.is_dont_care(v) {
                    continue;
                }
                let wider = Cube::new(p.pos() & !(1 << v), p.neg() & !(1 << v));
                let escapes = (0..1u64 << N).any(|a| wider.eval(a) && tt >> a & 1 == 0);
                prop_assert!(escapes, "prime {p} not maximal at var {v}");
            }
        }
    }

    #[test]
    fn tautology_agrees_with_truth_table(f in random_cover()) {
        prop_assert_eq!(f.is_tautology(), truth_table(&f) == 0xFFFF);
    }

    #[test]
    fn covering_solution_realises_function(f in random_cover()) {
        // Build a single-output PLA from the cover, minimise by greedy over
        // the UCP, and check the result realises the same function.
        let mut pla = Pla::new(N, 1);
        for &c in f.cubes() {
            pla.push_term(c, 1, 0);
        }
        let inst = build_covering(&pla).unwrap();
        // Quick feasible solution: for each row pick its first column.
        let mut sol = cover::Solution::new();
        for i in 0..inst.matrix.num_rows() {
            let row = inst.matrix.row(i);
            if !row.iter().any(|&j| sol.contains(j)) {
                sol.insert(row[0]);
            }
        }
        sol.make_irredundant(&inst.matrix);
        let min = inst.solution_to_pla(&sol);
        prop_assert!(realizes(&pla, &min));
        // And it never uses more terms than the original cover had primes.
        prop_assert!(min.terms().len() <= inst.columns.len());
    }
}
