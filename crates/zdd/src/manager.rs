//! The ZDD manager: hash-consed node storage and structural queries.

use crate::cache::ComputedCache;
use crate::node::{Node, NodeId, Var, TERMINAL_VAR};
use crate::stats::ZddStats;
use crate::table::UniqueTable;

/// Initial slot count of the unique table. The table grows by doubling
/// with incremental rehashing, so this only sets where that starts.
const UNIQUE_CAPACITY: usize = 1 << 12;

/// Entry count of the computed cache, fixed for the manager's lifetime:
/// 16 bytes per entry, colliding results overwrite.
const CACHE_CAPACITY: usize = 1 << 15;

/// Operation tags for the binary-operation cache. The discriminant is
/// packed into the computed cache's per-slot metadata word and feeds its
/// slot hash, so each value is fixed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub(crate) enum Op {
    Union = 0,
    Difference = 2,
    Change = 11,
}

/// A hash-consed store of ZDD nodes.
///
/// All families live inside one manager and are referenced by [`NodeId`];
/// structural sharing makes equality testing O(1). The manager is the
/// receiver of every operation (the functional style of CUDD's ZDD API, which
/// the paper's implementation used).
///
/// # Example
///
/// ```
/// use zdd::{Var, Zdd};
///
/// let mut z = Zdd::default();
/// let a = z.from_sets([vec![Var(0)], vec![Var(1)]]);
/// let b = z.from_sets([vec![Var(1)], vec![Var(2)]]);
/// let u = z.union(a, b);
/// assert_eq!(z.sets(u).count(), 3);
/// ```
#[derive(Debug)]
pub struct Zdd {
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: UniqueTable,
    pub(crate) cache: ComputedCache,
    /// Unique-table and computed-cache hit/miss counters; the rest of a
    /// [`ZddStats`] snapshot is sampled by [`Zdd::stats`].
    pub(crate) stats: ZddStats,
}

impl Default for Zdd {
    fn default() -> Self {
        let terminal = |_| Node {
            var: TERMINAL_VAR,
            lo: NodeId::EMPTY,
            hi: NodeId::EMPTY,
        };
        Zdd {
            nodes: vec![terminal(0), terminal(1)],
            unique: UniqueTable::with_capacity(UNIQUE_CAPACITY),
            cache: ComputedCache::with_capacity(CACHE_CAPACITY),
            stats: ZddStats::default(),
        }
    }
}

impl Zdd {
    /// A snapshot of the manager's performance counters.
    ///
    /// The store never shrinks, so `live_nodes` and `peak_nodes` are both
    /// its current size. See [`ZddStats`] for what is counted; by
    /// construction `stats().cache_lookups()` equals the number of
    /// memo-cache probes the recursive operations performed.
    #[inline]
    pub fn stats(&self) -> ZddStats {
        ZddStats {
            peak_nodes: self.nodes.len(),
            live_nodes: self.nodes.len(),
            cache_evictions: self.cache.evictions(),
            unique_relocations: self.unique.migrations(),
            ..self.stats
        }
    }

    /// Memo-cache lookup: the single choke point through which every
    /// recursive operation probes the computed cache, so hit/miss counters
    /// account for every lookup.
    #[inline]
    pub(crate) fn cache_get(&mut self, key: (Op, NodeId, NodeId)) -> Option<NodeId> {
        let r = self.cache.get(key.0 as u8, key.1, key.2);
        if r.is_some() {
            self.stats.cache_hits += 1;
        } else {
            self.stats.cache_misses += 1;
        }
        r
    }

    /// Memoises the result of `key`.
    #[inline]
    pub(crate) fn cache_put(&mut self, key: (Op, NodeId, NodeId), r: NodeId) {
        self.cache.put(key.0 as u8, key.1, key.2, r);
    }

    /// Raw variable index with terminals mapping to `u32::MAX`, so that the
    /// top variable of two nodes is simply the minimum.
    #[inline]
    pub(crate) fn raw_var(&self, f: NodeId) -> u32 {
        self.nodes[f.index()].var
    }

    /// The `lo` child (subfamily of sets *not* containing the top variable).
    #[inline]
    pub(crate) fn lo(&self, f: NodeId) -> NodeId {
        debug_assert!(!f.is_terminal());
        self.nodes[f.index()].lo
    }

    /// The `hi` child (subfamily of sets containing the top variable, with
    /// the variable stripped).
    #[inline]
    pub(crate) fn hi(&self, f: NodeId) -> NodeId {
        debug_assert!(!f.is_terminal());
        self.nodes[f.index()].hi
    }

    /// Creates (or retrieves) the node `(var, lo, hi)`, applying the
    /// zero-suppression rule: if `hi` is the empty family the node reduces to
    /// `lo`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lo` or `hi` has a top variable that is not
    /// strictly below `var` in the order (i.e. not strictly greater index).
    #[inline]
    pub(crate) fn node(&mut self, var: Var, lo: NodeId, hi: NodeId) -> NodeId {
        if hi == NodeId::EMPTY {
            return lo;
        }
        debug_assert!(self.raw_var(lo) > var.0, "variable order violated (lo)");
        debug_assert!(self.raw_var(hi) > var.0, "variable order violated (hi)");
        let key = Node { var: var.0, lo, hi };
        if let Some(id) = self.unique.find(&self.nodes, &key) {
            self.stats.unique_hits += 1;
            return id;
        }
        self.stats.unique_misses += 1;
        let id = NodeId(u32::try_from(self.nodes.len()).expect("ZDD node store overflow"));
        self.nodes.push(key);
        self.unique.insert(&self.nodes, id);
        id
    }

    /// Builds a family from an iterator of sets.
    ///
    /// Set order, duplicate sets and repeated variables are all tolerated.
    /// The diagram is built bottom-up from the sorted, deduplicated member
    /// list: each node of the result is interned once through the unique
    /// table, no intermediate family is allocated and the computed cache
    /// is never probed.
    pub fn from_sets<I, S>(&mut self, sets: I) -> NodeId
    where
        I: IntoIterator<Item = S>,
        S: IntoIterator<Item = Var>,
    {
        let members = sorted_members(sets);
        self.build_sorted(&members, 0)
    }

    /// The family of the suffixes `s[depth..]` of `sets`, which are sorted,
    /// distinct and share their first `depth` variables. Recursion follows
    /// hi edges only, so its depth is bounded by the longest set; the lo
    /// chain of each level is a loop, built from its last variable up.
    fn build_sorted(&mut self, sets: &[Vec<u32>], depth: usize) -> NodeId {
        // The empty suffix, if present, sorts first.
        let (mut acc, rest) = match sets.split_first() {
            Some((s, rest)) if s.len() == depth => (NodeId::BASE, rest),
            _ => (NodeId::EMPTY, sets),
        };
        let mut end = rest.len();
        while end > 0 {
            let v = rest[end - 1][depth];
            let mut start = end - 1;
            while start > 0 && rest[start - 1][depth] == v {
                start -= 1;
            }
            let hi = self.build_sorted(&rest[start..end], depth + 1);
            acc = self.node(Var(v), acc, hi);
            end = start;
        }
        acc
    }

    /// Cofactors of `f` with respect to `v`: the pair `(f0, f1)` where `f0`
    /// are the members without `v` and `f1` the members with `v` (stripped).
    #[inline]
    pub(crate) fn cofactors(&self, f: NodeId, v: u32) -> (NodeId, NodeId) {
        if !f.is_terminal() && self.raw_var(f) == v {
            (self.lo(f), self.hi(f))
        } else {
            (f, NodeId::EMPTY)
        }
    }
}

/// Each set as its sorted, distinct raw variables; the sets themselves
/// sorted lexicographically and deduplicated.
fn sorted_members<I, S>(sets: I) -> Vec<Vec<u32>>
where
    I: IntoIterator<Item = S>,
    S: IntoIterator<Item = Var>,
{
    let mut members: Vec<Vec<u32>> = sets
        .into_iter()
        .map(|s| {
            let mut vars: Vec<u32> = s.into_iter().map(|v| v.0).collect();
            vars.sort_unstable();
            vars.dedup();
            vars
        })
        .collect();
    members.sort_unstable();
    members.dedup();
    members
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_exist() {
        let z = Zdd::default();
        assert_eq!(z.nodes.len(), 2);
        assert_eq!(z.to_sets(NodeId::BASE), vec![Vec::<Var>::new()]);
        assert!(z.to_sets(NodeId::EMPTY).is_empty());
    }

    #[test]
    fn zero_suppression() {
        let mut z = Zdd::default();
        let n = z.node(Var(3), NodeId::BASE, NodeId::EMPTY);
        assert_eq!(n, NodeId::BASE);
    }

    #[test]
    fn hash_consing_gives_equal_ids() {
        let mut z = Zdd::default();
        let a = z.from_sets([[Var(1), Var(4)]]);
        let b = z.from_sets([[Var(4), Var(1)]]);
        assert_eq!(a, b);
    }

    #[test]
    fn from_sets_dedups_variables() {
        let mut z = Zdd::default();
        let a = z.from_sets([[Var(2), Var(2), Var(5)]]);
        assert_eq!(z.to_sets(a), vec![vec![Var(2), Var(5)]]);
    }

    #[test]
    fn stats_sample_live_and_peak() {
        let mut z = Zdd::default();
        let _ = z.from_sets([vec![Var(0), Var(1)], vec![Var(2), Var(3)]]);
        let s = z.stats();
        assert_eq!(s.live_nodes, z.nodes.len());
        assert_eq!(s.peak_nodes, s.live_nodes);
    }
}
