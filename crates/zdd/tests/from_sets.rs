//! Bottom-up family construction against a union fold of single sets.

use proptest::prelude::*;
use zdd::{NodeId, Var, Zdd, ZddOptions};

/// Raw input: unsorted sets with repeated variables, the empty set and
/// duplicate sets all allowed, as is an empty list.
fn input_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    (
        prop::collection::vec(prop::collection::vec(0u32..10, 0..6), 0..16),
        prop::collection::vec(0usize..64, 0..6),
        0u8..2,
    )
        .prop_map(|(mut sets, dups, with_empty)| {
            if !sets.is_empty() {
                let copies: Vec<Vec<u32>> = dups
                    .iter()
                    .map(|&i| {
                        let mut s = sets[i % sets.len()].clone();
                        s.reverse();
                        s
                    })
                    .collect();
                sets.extend(copies);
            }
            if with_empty == 1 {
                sets.push(Vec::new());
            }
            sets
        })
}

fn vars(sets: &[Vec<u32>]) -> impl Iterator<Item = Vec<Var>> + '_ {
    sets.iter().map(|s| s.iter().map(|&v| Var(v)).collect())
}

fn union_fold(z: &mut Zdd, sets: &[Vec<u32>]) -> NodeId {
    let mut acc = NodeId::EMPTY;
    for s in vars(sets) {
        let one = z.set(s);
        acc = z.union(acc, one);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn from_sets_equals_a_union_fold(sets in input_strategy()) {
        let mut z = ZddOptions::new().auto_gc(false).build();
        let folded = union_fold(&mut z, &sets);
        let built = z.from_sets(vars(&sets));
        prop_assert_eq!(built, folded);
        prop_assert_eq!(
            z.contains_empty(built),
            sets.iter().any(|s| s.is_empty())
        );
    }

    #[test]
    fn from_sets_allocates_only_the_family(sets in input_strategy()) {
        let mut z = ZddOptions::new().auto_gc(false).build();
        let f = z.from_sets(vars(&sets));
        prop_assert_eq!(z.len(), 2 + z.node_count(f));
        prop_assert_eq!(z.stats().cache_lookups(), 0);
    }

}

#[test]
fn empty_input_is_the_empty_family() {
    let mut z = Zdd::default();
    let f = z.from_sets(Vec::<Vec<Var>>::new());
    assert_eq!(f, NodeId::EMPTY);
    assert_eq!(z.from_sets([Vec::<Var>::new()]), NodeId::BASE);
}
