//! Manager-level performance counters.

use std::time::Duration;

/// Garbage-collection pause total. The kernel never collects, so it
/// always reads zero; it stays so that [`ZddStats`] keeps the shape the
/// benchmark reports read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcPauseHistogram {
    total_nanos: u64,
}

impl GcPauseHistogram {
    /// Total time spent collecting.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_nanos)
    }

    /// Accumulates another histogram.
    pub fn merge(&mut self, other: &GcPauseHistogram) {
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
    }
}

/// A snapshot of the manager's internal counters.
///
/// Counters accumulate from manager creation and are cheap plain-field
/// increments on the hot paths they observe:
///
/// * **unique table** — every non-trivial call to `node()` is either a hit
///   (structural sharing found an existing node) or a miss (a fresh node
///   was interned). Zero-suppressed shortcuts (`hi = ∅`) never reach the
///   table and are not counted.
/// * **computed cache** — every memo lookup performed by the recursive
///   operations (union, difference, change) is either a hit or a miss,
///   counted at a single choke point, so `cache_hits + cache_misses`
///   equals the total number of lookups by construction.
/// * **node store** — `live_nodes` is the store size at snapshot time,
///   terminals included; the store never shrinks, so `peak_nodes` equals
///   it.
/// * **GC** — `gc_runs`, `gc_reclaimed` and `gc_pause` always read 0: the
///   kernel never collects.
/// * **kernel structures** — `cache_evictions` counts memoised results
///   overwritten by colliding entries in the fixed-size computed cache;
///   `unique_relocations` counts entries moved by the unique table's
///   incremental rehashing.
///
/// # Example
///
/// ```
/// use zdd::{Var, Zdd};
/// let mut z = Zdd::default();
/// let a = z.from_sets([vec![Var(0)], vec![Var(1)]]);
/// let b = z.from_sets([vec![Var(1)], vec![Var(2)]]);
/// let _ = z.union(a, b);
/// let s = z.stats();
/// assert_eq!(s.cache_lookups(), s.cache_hits + s.cache_misses);
/// assert_eq!(s.peak_nodes, s.live_nodes);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ZddStats {
    /// Unique-table lookups that found an existing node.
    pub unique_hits: u64,
    /// Unique-table lookups that interned a fresh node.
    pub unique_misses: u64,
    /// Computed-cache lookups that found a memoised result.
    pub cache_hits: u64,
    /// Computed-cache lookups that missed (and will memoise).
    pub cache_misses: u64,
    /// High-water mark of nodes in the store, terminals included.
    pub peak_nodes: usize,
    /// Nodes in the store when the snapshot was taken.
    pub live_nodes: usize,
    /// Garbage collections performed: always 0.
    pub gc_runs: u64,
    /// Nodes reclaimed by garbage collection: always 0.
    pub gc_reclaimed: u64,
    /// Memoised results overwritten by colliding keys in the fixed-size
    /// computed cache (each costs at most one recomputation).
    pub cache_evictions: u64,
    /// Entries moved between tables by incremental unique-table rehashing.
    pub unique_relocations: u64,
    /// Garbage-collection pause time: always zero.
    pub gc_pause: GcPauseHistogram,
}

impl ZddStats {
    /// Total unique-table lookups (`hits + misses`).
    pub fn unique_lookups(&self) -> u64 {
        self.unique_hits + self.unique_misses
    }

    /// Total computed-cache lookups (`hits + misses`).
    pub fn cache_lookups(&self) -> u64 {
        self.cache_hits + self.cache_misses
    }

    /// Computed-cache hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_lookups();
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Unique-table hit (sharing) rate in `[0, 1]`; 0 when no lookups.
    pub fn unique_hit_rate(&self) -> f64 {
        let total = self.unique_lookups();
        if total == 0 {
            0.0
        } else {
            self.unique_hits as f64 / total as f64
        }
    }

    /// Accumulates another snapshot into this one: counters add, the node
    /// high-water mark takes the maximum. Used to aggregate the managers of
    /// independent solves into one report.
    pub fn merge(&mut self, other: &ZddStats) {
        self.unique_hits += other.unique_hits;
        self.unique_misses += other.unique_misses;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.peak_nodes = self.peak_nodes.max(other.peak_nodes);
        self.live_nodes = self.live_nodes.max(other.live_nodes);
        self.gc_runs += other.gc_runs;
        self.gc_reclaimed += other.gc_reclaimed;
        self.cache_evictions += other.cache_evictions;
        self.unique_relocations += other.unique_relocations;
        self.gc_pause.merge(&other.gc_pause);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_lookups() {
        let s = ZddStats::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.unique_hit_rate(), 0.0);
    }

    #[test]
    fn rates_and_totals() {
        let s = ZddStats {
            unique_hits: 3,
            unique_misses: 1,
            cache_hits: 1,
            cache_misses: 3,
            ..ZddStats::default()
        };
        assert_eq!(s.unique_lookups(), 4);
        assert_eq!(s.cache_lookups(), 4);
        assert!((s.unique_hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.cache_hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let mut a = ZddStats {
            cache_evictions: 2,
            unique_relocations: 5,
            peak_nodes: 10,
            live_nodes: 4,
            ..ZddStats::default()
        };
        let b = ZddStats {
            cache_evictions: 3,
            unique_relocations: 1,
            peak_nodes: 7,
            live_nodes: 6,
            ..ZddStats::default()
        };
        a.merge(&b);
        assert_eq!(a.cache_evictions, 5);
        assert_eq!(a.unique_relocations, 6);
        assert_eq!(a.peak_nodes, 10);
        assert_eq!(a.live_nodes, 6);
        assert_eq!(a.gc_pause.total(), Duration::ZERO);
    }
}
