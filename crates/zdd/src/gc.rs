//! Mark-and-compact garbage collection for the node store.
//!
//! The covering pipeline builds many intermediate families (reduction
//! rounds, prime generation); long runs benefit from reclaiming dead nodes.
//! Because node ids are dense indices, collection *remaps* surviving ids:
//! callers either pass their live roots explicitly and receive the remapped
//! handles back, or register long-lived families as roots
//! ([`Zdd::register_root`](crate::Zdd::register_root)) and let every
//! collection update the registered slots in place.
//!
//! After compaction the unique table is rebuilt over the surviving store
//! and the computed cache is invalidated in O(1) by a generation bump.

use crate::node::{Node, NodeId};
use crate::table::UniqueTable;
use crate::Zdd;
use std::time::Instant;

/// What a collection accomplished.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GcStats {
    /// Nodes in the store before collection (terminals included).
    pub before: usize,
    /// Nodes after collection.
    pub after: usize,
}

impl GcStats {
    /// Nodes reclaimed.
    pub fn freed(&self) -> usize {
        self.before - self.after
    }
}

impl Zdd {
    /// Collects all nodes unreachable from `roots` (plus any registered
    /// root slots), compacting the store.
    ///
    /// Returns the remapped roots (same order) and statistics. Registered
    /// root slots are remapped in place; all other outstanding
    /// [`NodeId`]s are invalidated and the computed cache is dropped.
    ///
    /// # Example
    ///
    /// ```
    /// use zdd::{Var, ZddOptions};
    /// let mut z = ZddOptions::new().build();
    /// let keep = z.from_sets([vec![Var(0), Var(1)]]);
    /// let _dead = z.from_sets([vec![Var(2), Var(3)], vec![Var(4)]]);
    /// let before = z.len();
    /// let (roots, stats) = z.gc(&[keep]);
    /// assert_eq!(stats.before, before);
    /// assert!(stats.after < before);
    /// assert!(z.contains_set(roots[0], &[Var(0), Var(1)]));
    /// ```
    pub fn gc(&mut self, roots: &[NodeId]) -> (Vec<NodeId>, GcStats) {
        ucp_failpoints::fail_point!("zdd::gc");
        let pause_started = Instant::now();
        let before = self.nodes.len();
        // A collection is a peak-sampling boundary: the store is about to
        // shrink, so record the high-water mark it reached first.
        self.stats.peak_nodes = self.stats.peak_nodes.max(before);
        // Mark from the explicit roots and every registered slot.
        let mut reachable = vec![false; self.nodes.len()];
        reachable[0] = true;
        reachable[1] = true;
        let mut stack: Vec<NodeId> = roots.to_vec();
        stack.extend(self.roots.iter().flatten());
        while let Some(n) = stack.pop() {
            let i = n.index();
            if reachable[i] {
                continue;
            }
            reachable[i] = true;
            stack.push(self.nodes[i].lo);
            stack.push(self.nodes[i].hi);
        }
        // Compact, children-first thanks to construction order (a node's
        // children always have smaller indices).
        let mut remap: Vec<NodeId> = vec![NodeId::EMPTY; self.nodes.len()];
        remap[0] = NodeId::EMPTY;
        remap[1] = NodeId::BASE;
        let mut new_nodes: Vec<Node> = Vec::with_capacity(self.nodes.len());
        new_nodes.push(self.nodes[0]);
        new_nodes.push(self.nodes[1]);
        for i in 2..self.nodes.len() {
            if !reachable[i] {
                continue;
            }
            let old = self.nodes[i];
            let node = Node {
                var: old.var,
                lo: remap[old.lo.index()],
                hi: remap[old.hi.index()],
            };
            let id = NodeId(u32::try_from(new_nodes.len()).expect("store overflow"));
            new_nodes.push(node);
            remap[i] = id;
        }
        self.nodes = new_nodes;
        self.unique = UniqueTable::rebuild(&self.nodes, self.opts.unique_capacity);
        self.cache.invalidate_all();
        for slot in self.roots.iter_mut().flatten() {
            *slot = remap[slot.index()];
        }
        let after = self.nodes.len();
        // Geometric re-arm: don't collect again until the live set grows
        // by the configured ratio (never below the floor threshold).
        self.gc_at = self
            .opts
            .gc_threshold
            .max((after as f64 * self.opts.gc_ratio) as usize)
            .max(4);
        self.stats.gc_runs += 1;
        self.stats.gc_reclaimed += (before - after) as u64;
        self.stats.gc_pause.record(pause_started.elapsed());
        (
            roots.iter().map(|r| remap[r.index()]).collect(),
            GcStats { before, after },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Var, ZddOptions};

    fn manager() -> Zdd {
        ZddOptions::new().auto_gc(false).build()
    }

    #[test]
    fn gc_preserves_root_semantics() {
        let mut z = manager();
        let keep = z.from_sets([vec![Var(0), Var(2)], vec![Var(1)], vec![]]);
        let sets_before = z.to_sets(keep);
        for i in 0..20 {
            let _ = z.from_sets([vec![Var(i), Var(i + 1), Var(i + 2)]]);
        }
        let (roots, stats) = z.gc(&[keep]);
        assert!(stats.freed() > 0);
        assert_eq!(z.to_sets(roots[0]), sets_before);
    }

    #[test]
    fn gc_keeps_hash_consing_working() {
        let mut z = manager();
        let a = z.from_sets([vec![Var(0)], vec![Var(1)]]);
        let (roots, _) = z.gc(&[a]);
        // Rebuilding the same family must alias the surviving nodes.
        let b = z.from_sets([vec![Var(0)], vec![Var(1)]]);
        assert_eq!(roots[0], b);
    }

    #[test]
    fn gc_with_multiple_roots() {
        let mut z = manager();
        let a = z.from_sets([vec![Var(0), Var(1)]]);
        let b = z.from_sets([vec![Var(1), Var(2)]]);
        let _dead = z.from_sets([vec![Var(5), Var(6), Var(7)]]);
        let (roots, _) = z.gc(&[a, b]);
        assert!(z.contains_set(roots[0], &[Var(0), Var(1)]));
        assert!(z.contains_set(roots[1], &[Var(1), Var(2)]));
    }

    #[test]
    fn gc_of_terminals_only() {
        let mut z = manager();
        let _dead = z.from_sets([vec![Var(0)]]);
        let (roots, stats) = z.gc(&[NodeId::BASE, NodeId::EMPTY]);
        assert_eq!(roots, vec![NodeId::BASE, NodeId::EMPTY]);
        assert_eq!(stats.after, 2);
    }

    #[test]
    fn operations_work_after_gc() {
        let mut z = manager();
        let a = z.from_sets([vec![Var(0)], vec![Var(1), Var(2)]]);
        let _garbage = z.from_sets([vec![Var(9)]]);
        let (roots, _) = z.gc(&[a]);
        let a = roots[0];
        let b = z.from_sets([vec![Var(1), Var(2)], vec![Var(3)]]);
        let u = z.union(a, b);
        assert_eq!(z.count(u), 3);
        let m = z.minimal(u);
        assert_eq!(z.count(m), 3);
    }

    #[test]
    fn gc_samples_peak_at_the_boundary() {
        let mut z = manager();
        let keep = z.from_sets([vec![Var(0)]]);
        for i in 0..50 {
            let _ = z.from_sets([vec![Var(i), Var(i + 1)]]);
        }
        let high = z.len();
        let (_, _) = z.gc(&[keep]);
        // The store shrank, but the stats must still report the pre-GC
        // high-water mark.
        assert!(z.len() < high);
        assert!(z.stats().peak_nodes >= high);
    }
}
