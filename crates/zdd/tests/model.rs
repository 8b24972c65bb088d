//! Property tests: every ZDD operation is checked against a naive
//! `BTreeSet<BTreeSet<u32>>` model of a set family: `from_sets`/`sets`
//! round trips, `union`, `difference` and `change`.

use proptest::prelude::*;
use std::collections::BTreeSet;
use zdd::{NodeId, Var, Zdd};

type Model = BTreeSet<BTreeSet<u32>>;

fn build(z: &mut Zdd, m: &Model) -> NodeId {
    let sets: Vec<Vec<Var>> = m
        .iter()
        .map(|s| s.iter().map(|&v| Var(v)).collect())
        .collect();
    z.from_sets(sets)
}

fn read(z: &Zdd, f: NodeId) -> Model {
    z.to_sets(f)
        .into_iter()
        .map(|s| s.into_iter().map(|v| v.0).collect())
        .collect()
}

fn family_strategy() -> impl Strategy<Value = Model> {
    prop::collection::btree_set(prop::collection::btree_set(0u32..8, 0..5), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip(m in family_strategy()) {
        let mut z = Zdd::default();
        let f = build(&mut z, &m);
        prop_assert_eq!(read(&z, f), m.clone());
        prop_assert_eq!(z.sets(f).count(), m.len());
    }

    #[test]
    fn union_matches_model(a in family_strategy(), b in family_strategy()) {
        let mut z = Zdd::default();
        let fa = build(&mut z, &a);
        let fb = build(&mut z, &b);
        let u = z.union(fa, fb);
        let expect: Model = a.union(&b).cloned().collect();
        prop_assert_eq!(read(&z, u), expect);
    }

    #[test]
    fn difference_matches_model(a in family_strategy(), b in family_strategy()) {
        let mut z = Zdd::default();
        let fa = build(&mut z, &a);
        let fb = build(&mut z, &b);
        let d = z.difference(fa, fb);
        let expect: Model = a.difference(&b).cloned().collect();
        prop_assert_eq!(read(&z, d), expect);
    }

    #[test]
    fn change_matches_model(a in family_strategy(), v in 0u32..8) {
        let mut z = Zdd::default();
        let fa = build(&mut z, &a);
        let c = z.change(fa, Var(v));
        let expect: Model = a
            .iter()
            .map(|s| {
                let mut t = s.clone();
                if !t.remove(&v) {
                    t.insert(v);
                }
                t
            })
            .collect();
        prop_assert_eq!(read(&z, c), expect);
    }

    #[test]
    fn canonicity_equal_families_equal_ids(a in family_strategy(), b in family_strategy()) {
        let mut z = Zdd::default();
        let fa = build(&mut z, &a);
        let fb = build(&mut z, &b);
        prop_assert_eq!(fa == fb, a == b);
    }
}
