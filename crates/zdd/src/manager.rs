//! The ZDD manager: hash-consed node storage and structural queries.

use crate::cache::ComputedCache;
use crate::node::{Node, NodeId, Var, TERMINAL_VAR};
use crate::options::ZddOptions;
use crate::stats::ZddStats;
use crate::table::UniqueTable;

/// Operation tags for the binary-operation cache. The discriminant is
/// packed into the computed cache's per-slot metadata word.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub(crate) enum Op {
    Union,
    Intersect,
    Difference,
    Product,
    NonSupersets,
    NonSubsets,
    Minimal,
    Maximal,
    Subset0,
    Quotient,
    Subset1,
    Change,
}

/// A registered GC root slot: a handle the manager updates in place when
/// a collection remaps node ids.
///
/// Obtained from [`Zdd::register_root`]; read the current (possibly
/// remapped) id back with [`Zdd::root`]. Registered roots survive both
/// explicit [`Zdd::gc`] calls and automatic collections.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RootId(pub(crate) usize);

/// A hash-consed store of ZDD nodes.
///
/// All families live inside one manager and are referenced by [`NodeId`];
/// structural sharing makes equality testing O(1). The manager is the
/// receiver of every operation (the functional style of CUDD's ZDD API, which
/// the paper's implementation used).
///
/// Managers are constructed through the [`ZddOptions`] builder
/// (`Zdd::default()` is shorthand for `ZddOptions::default().build()`).
///
/// # Example
///
/// ```
/// use zdd::{Var, ZddOptions};
///
/// let mut z = ZddOptions::new().build();
/// let a = z.from_sets([vec![Var(0)], vec![Var(1)]]);
/// let b = z.from_sets([vec![Var(1)], vec![Var(2)]]);
/// let u = z.union(a, b);
/// assert_eq!(z.count(u), 3);
/// ```
#[derive(Debug)]
pub struct Zdd {
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: UniqueTable,
    pub(crate) cache: ComputedCache,
    /// Registered root slots; `None` marks a released slot.
    pub(crate) roots: Vec<Option<NodeId>>,
    pub(crate) opts: ZddOptions,
    /// Store size at which the next automatic collection triggers.
    pub(crate) gc_at: usize,
    pub(crate) stats: ZddStats,
}

impl Default for Zdd {
    /// Equivalent to `ZddOptions::default().build()`.
    fn default() -> Self {
        ZddOptions::default().build()
    }
}

impl Zdd {
    /// Constructs a manager from validated options ([`ZddOptions::build`]
    /// is the public entry).
    pub(crate) fn with_options(opts: ZddOptions) -> Self {
        let terminal = |_| Node {
            var: TERMINAL_VAR,
            lo: NodeId::EMPTY,
            hi: NodeId::EMPTY,
        };
        Zdd {
            nodes: vec![terminal(0), terminal(1)],
            unique: UniqueTable::with_capacity(opts.unique_capacity),
            cache: ComputedCache::with_capacity(opts.cache_capacity),
            roots: Vec::new(),
            gc_at: opts.gc_threshold.max(4),
            opts,
            stats: ZddStats {
                peak_nodes: 2,
                ..ZddStats::default()
            },
        }
    }

    /// The options this manager was built with.
    pub fn options(&self) -> ZddOptions {
        self.opts
    }

    /// A snapshot of the manager's performance counters.
    ///
    /// The snapshot samples the store at call time: `live_nodes` is the
    /// current store size and `peak_nodes` is the high-water mark, which
    /// the manager also samples at every GC boundary — a collection
    /// between probes cannot hide the true peak.
    ///
    /// See [`ZddStats`] for what is counted; by construction
    /// `stats().cache_lookups()` equals the number of memo-cache probes the
    /// recursive operations performed.
    #[inline]
    pub fn stats(&self) -> ZddStats {
        ZddStats {
            peak_nodes: self.stats.peak_nodes.max(self.nodes.len()),
            live_nodes: self.nodes.len(),
            cache_evictions: self.cache.evictions() - self.stats.cache_evictions,
            unique_relocations: self.unique.migrations() - self.stats.unique_relocations,
            ..self.stats
        }
    }

    /// Resets all counters to zero (the node high-water mark restarts from
    /// the current store size).
    pub fn reset_stats(&mut self) {
        self.stats = ZddStats {
            peak_nodes: self.nodes.len(),
            live_nodes: self.nodes.len(),
            // Baselines subtracted by `stats()`, so the snapshot restarts
            // from zero without touching the monotone internal counters.
            cache_evictions: self.cache.evictions(),
            unique_relocations: self.unique.migrations(),
            ..ZddStats::default()
        };
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

    /// The empty family `∅`.
    #[inline]
    pub fn empty(&self) -> NodeId {
        NodeId::EMPTY
    }

    /// The unit family `{∅}`.
    #[inline]
    pub fn base(&self) -> NodeId {
        NodeId::BASE
    }

    /// Returns the decision variable of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal node.
    #[inline]
    pub fn var_of(&self, f: NodeId) -> Var {
        debug_assert!(!f.is_terminal(), "terminals have no variable");
        Var(self.nodes[f.index()].var)
    }

    /// Raw variable index with terminals mapping to `u32::MAX`, so that the
    /// top variable of two nodes is simply the minimum.
    #[inline]
    pub(crate) fn raw_var(&self, f: NodeId) -> u32 {
        self.nodes[f.index()].var
    }

    /// The `lo` child (subfamily of sets *not* containing `var_of(f)`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `f` is a terminal.
    #[inline]
    pub fn lo(&self, f: NodeId) -> NodeId {
        debug_assert!(!f.is_terminal());
        self.nodes[f.index()].lo
    }

    /// The `hi` child (subfamily of sets containing `var_of(f)`, with the
    /// variable stripped).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `f` is a terminal.
    #[inline]
    pub fn hi(&self, f: NodeId) -> NodeId {
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
    pub fn node(&mut self, var: Var, lo: NodeId, hi: NodeId) -> NodeId {
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

    /// The family `{{var}}` containing the single singleton set.
    pub fn single(&mut self, var: Var) -> NodeId {
        self.node(var, NodeId::EMPTY, NodeId::BASE)
    }

    /// Builds the family containing exactly the given set.
    ///
    /// Duplicate variables in `set` are tolerated.
    pub fn set<I>(&mut self, set: I) -> NodeId
    where
        I: IntoIterator<Item = Var>,
    {
        let mut vars: Vec<Var> = set.into_iter().collect();
        vars.sort_unstable();
        vars.dedup();
        let mut acc = NodeId::BASE;
        for v in vars.into_iter().rev() {
            acc = self.node(v, NodeId::EMPTY, acc);
        }
        acc
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

    /// Returns `true` if the empty set `∅` is a member of `f`.
    pub fn contains_empty(&self, mut f: NodeId) -> bool {
        while !f.is_terminal() {
            f = self.lo(f);
        }
        f == NodeId::BASE
    }

    /// Membership test for an explicit set.
    ///
    /// # Example
    ///
    /// ```
    /// use zdd::{Var, ZddOptions};
    /// let mut z = ZddOptions::new().build();
    /// let f = z.from_sets([vec![Var(0), Var(2)]]);
    /// assert!(z.contains_set(f, &[Var(0), Var(2)]));
    /// assert!(!z.contains_set(f, &[Var(0)]));
    /// ```
    pub fn contains_set(&self, f: NodeId, set: &[Var]) -> bool {
        let mut vars: Vec<u32> = set.iter().map(|v| v.0).collect();
        vars.sort_unstable();
        vars.dedup();
        let mut cur = f;
        let mut idx = 0;
        loop {
            if cur.is_terminal() {
                return cur == NodeId::BASE && idx == vars.len();
            }
            let v = self.raw_var(cur);
            if idx < vars.len() && vars[idx] == v {
                cur = self.hi(cur);
                idx += 1;
            } else if idx < vars.len() && vars[idx] < v {
                // The set demands a variable the diagram can no longer offer.
                return false;
            } else {
                cur = self.lo(cur);
            }
        }
    }

    /// Number of live nodes in the whole store (including terminals).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the store holds only the two terminals.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 2
    }

    /// Registers `id` as a GC root and returns its slot handle.
    ///
    /// Registered roots are kept alive — and remapped in place — by every
    /// collection, so a long-lived family can survive GCs without its
    /// owner re-threading ids through [`Zdd::gc`]'s return value.
    pub fn register_root(&mut self, id: NodeId) -> RootId {
        // Reuse a released slot if one exists; the registry stays tiny.
        if let Some(free) = self.roots.iter().position(Option::is_none) {
            self.roots[free] = Some(id);
            RootId(free)
        } else {
            self.roots.push(Some(id));
            RootId(self.roots.len() - 1)
        }
    }

    /// Updates the node id held by a registered root slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was released.
    pub fn set_root(&mut self, slot: RootId, id: NodeId) {
        let r = self.roots[slot.0].as_mut().expect("released root slot");
        *r = id;
    }

    /// Reads the current (possibly GC-remapped) id of a registered root.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was released.
    pub fn root(&self, slot: RootId) -> NodeId {
        self.roots[slot.0].expect("released root slot")
    }

    /// Releases a root slot; the family it pinned becomes collectable.
    pub fn release_root(&mut self, slot: RootId) {
        self.roots[slot.0] = None;
    }

    /// Runs a collection now if auto-GC is enabled and the store has
    /// grown past the trigger point. Only registered roots (and their
    /// descendants) survive; **all other outstanding [`NodeId`]s are
    /// invalidated**, so call this only at points where every live family
    /// is held in a registered root.
    ///
    /// Returns the collection's statistics if one ran.
    pub fn maybe_gc(&mut self) -> Option<crate::GcStats> {
        if self.opts.auto_gc && self.nodes.len() >= self.gc_at {
            Some(self.collect())
        } else {
            None
        }
    }

    /// Unconditionally collects, keeping only registered roots.
    ///
    /// See [`Zdd::maybe_gc`] for the invalidation caveat.
    pub fn collect(&mut self) -> crate::GcStats {
        let (_, stats) = self.gc(&[]);
        stats
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
        assert_eq!(z.len(), 2);
        assert!(z.is_empty());
        assert!(z.contains_empty(NodeId::BASE));
        assert!(!z.contains_empty(NodeId::EMPTY));
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
        let a = z.set([Var(1), Var(4)]);
        let b = z.set([Var(4), Var(1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn set_dedups_variables() {
        let mut z = Zdd::default();
        let a = z.set([Var(2), Var(2), Var(5)]);
        assert!(z.contains_set(a, &[Var(2), Var(5)]));
        assert_eq!(z.count(a), 1);
    }

    #[test]
    fn membership() {
        let mut z = Zdd::default();
        let f = z.from_sets([vec![Var(0), Var(1)], vec![Var(2)], vec![]]);
        assert!(z.contains_set(f, &[Var(0), Var(1)]));
        assert!(z.contains_set(f, &[Var(2)]));
        assert!(z.contains_set(f, &[]));
        assert!(!z.contains_set(f, &[Var(0)]));
        assert!(!z.contains_set(f, &[Var(0), Var(1), Var(2)]));
        assert!(z.contains_empty(f));
    }

    #[test]
    fn single_is_singleton_family() {
        let mut z = Zdd::default();
        let s = z.single(Var(7));
        assert_eq!(z.count(s), 1);
        assert!(z.contains_set(s, &[Var(7)]));
    }

    #[test]
    fn registered_roots_survive_collection() {
        let mut z = ZddOptions::new().auto_gc(false).build();
        let keep = z.from_sets([vec![Var(0), Var(2)], vec![Var(1)]]);
        let sets = z.to_sets(keep);
        let slot = z.register_root(keep);
        for i in 0..20 {
            let _ = z.from_sets([vec![Var(i), Var(i + 1), Var(i + 2)]]);
        }
        let stats = z.collect();
        assert!(stats.freed() > 0);
        assert_eq!(z.to_sets(z.root(slot)), sets);
    }

    #[test]
    fn released_roots_are_collected() {
        let mut z = ZddOptions::new().auto_gc(false).build();
        let f = z.from_sets([vec![Var(0), Var(1), Var(2)]]);
        let slot = z.register_root(f);
        z.release_root(slot);
        let stats = z.collect();
        assert_eq!(stats.after, 2);
        // The slot is reusable.
        let g = z.from_sets([vec![Var(3)]]);
        let slot2 = z.register_root(g);
        assert_eq!(slot, slot2);
    }

    #[test]
    fn auto_gc_triggers_at_threshold() {
        let mut z = ZddOptions::new().gc_threshold(64).build();
        let keep = z.from_sets([vec![Var(0)], vec![Var(1)]]);
        let slot = z.register_root(keep);
        let mut collected = false;
        for i in 0..200u32 {
            let _ = z.from_sets([vec![Var(i), Var(i + 1)]]);
            if z.maybe_gc().is_some() {
                collected = true;
                break;
            }
        }
        assert!(collected, "auto GC never triggered past the threshold");
        assert!(z.stats().gc_runs >= 1);
        assert_eq!(z.count(z.root(slot)), 2);
    }

    #[test]
    fn stats_sample_live_and_peak() {
        let mut z = Zdd::default();
        let _ = z.from_sets([vec![Var(0), Var(1)], vec![Var(2), Var(3)]]);
        let s = z.stats();
        assert_eq!(s.live_nodes, z.len());
        assert!(s.peak_nodes >= s.live_nodes);
    }
}
