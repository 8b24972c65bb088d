//! Accounting invariants of the manager's performance counters.

use zdd::{Var, Zdd};

/// Builds a family of `n` staircase sets {i, i+1, i+2} over a small universe.
fn staircase(z: &mut Zdd, n: u32) -> zdd::NodeId {
    let sets: Vec<Vec<Var>> = (0..n)
        .map(|i| vec![Var(i), Var(i + 1), Var(i + 2)])
        .collect();
    z.from_sets(sets)
}

#[test]
fn cache_hits_plus_misses_equals_lookups_on_scripted_sequence() {
    let mut z = Zdd::default();
    let f = staircase(&mut z, 12);
    let g = staircase(&mut z, 8);

    // A scripted mix of cached recursive operations, including repeats
    // that must hit the memo cache.
    let u = z.union(f, g);
    let _ = z.union(f, g); // repeat: top-level cache hit
    let c = z.change(u, Var(5));
    let d = z.difference(c, g);
    let _ = z.change(d, Var(3));

    let s = z.stats();
    assert_eq!(
        s.cache_hits + s.cache_misses,
        s.cache_lookups(),
        "lookup identity must hold by construction"
    );
    assert!(
        s.cache_lookups() > 0,
        "scripted sequence must probe the cache"
    );
    assert!(
        s.cache_hits > 0,
        "repeated identical operation must hit the memo cache"
    );
    assert_eq!(
        s.unique_lookups(),
        s.unique_hits + s.unique_misses,
        "unique-table identity"
    );
    // Every interned node is live in the store: misses created exactly the
    // non-terminal nodes present.
    assert_eq!(s.unique_misses as usize, s.live_nodes - 2);
    assert_eq!(s.peak_nodes, s.live_nodes);
    assert!(s.cache_hit_rate() > 0.0 && s.cache_hit_rate() < 1.0);
    assert_eq!((s.gc_runs, s.gc_reclaimed), (0, 0));
}

#[test]
fn repeat_of_cached_op_is_pure_hit() {
    let mut z = Zdd::default();
    let f = staircase(&mut z, 10);
    let g = staircase(&mut z, 6);
    let _ = z.union(f, g);
    let before = z.stats();
    let _ = z.union(f, g);
    let after = z.stats();
    assert_eq!(after.cache_hits, before.cache_hits + 1);
    assert_eq!(after.cache_misses, before.cache_misses);
    assert_eq!(after.unique_lookups(), before.unique_lookups());
}
