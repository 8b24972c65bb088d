//! The unique table: an open-addressing index over the node store.
//!
//! Decision-diagram kernels live and die by `node()` throughput, and the
//! seed implementation paid for a `HashMap<Node, NodeId>` that stored
//! every key twice (once in the map, once in the store) and rehashed the
//! whole table in one stop-the-world burst. This table stores only the
//! 4-byte node index per slot — the node store itself is the key storage
//! — probes linearly from an FxHash start slot (consecutive probes stay
//! in the same cache line), and grows with *incremental* rehashing:
//! a doubling moves the full table aside and migrates a bounded chunk of
//! entries per subsequent insert, so no single `node()` call stalls on a
//! full rebuild.
//!
//! Nodes are never deleted, so the probe sequences never need
//! tombstones.

use crate::node::Node;
use crate::node::NodeId;

/// Slot marker for "no entry".
const EMPTY_SLOT: u32 = u32::MAX;

/// Entries migrated from a retired table per insert. High enough that a
/// retired table of `n` entries drains within `n / CHUNK` inserts —
/// long before the next doubling (which needs ~`n` fresh inserts).
const MIGRATE_CHUNK: usize = 32;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash of a node's three words.
#[inline]
pub(crate) fn node_hash(n: &Node) -> u64 {
    let mut h = (n.var as u64).wrapping_mul(SEED);
    h = (h.rotate_left(5) ^ n.lo.0 as u64).wrapping_mul(SEED);
    h = (h.rotate_left(5) ^ n.hi.0 as u64).wrapping_mul(SEED);
    h
}

/// A retired table still being drained into the current one.
struct Retired {
    slots: Box<[u32]>,
    /// Next slot index to migrate.
    drain: usize,
    /// Occupied slots not yet migrated.
    remaining: usize,
}

/// Open-addressing unique table mapping node contents to [`NodeId`]s.
pub(crate) struct UniqueTable {
    slots: Box<[u32]>,
    /// Entries in `slots` (migrated duplicates included exactly once).
    len: usize,
    retired: Option<Retired>,
    /// Total entries moved by incremental rehashing (for stats).
    migrations: u64,
}

impl std::fmt::Debug for UniqueTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UniqueTable")
            .field("slots", &self.slots.len())
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl UniqueTable {
    /// An empty table with `capacity` slots, rounded up to a power of
    /// two ≥ 16.
    pub fn with_capacity(capacity: usize) -> Self {
        UniqueTable {
            slots: vec![EMPTY_SLOT; capacity.next_power_of_two().max(16)].into_boxed_slice(),
            len: 0,
            retired: None,
            migrations: 0,
        }
    }

    /// Entries moved by incremental rehashing so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Looks up the id of a node with `key`'s contents, if interned.
    #[inline]
    pub fn find(&self, nodes: &[Node], key: &Node) -> Option<NodeId> {
        let h = node_hash(key);
        if let Some(id) = probe(&self.slots, nodes, key, h) {
            return Some(id);
        }
        match &self.retired {
            Some(old) => probe(&old.slots, nodes, key, h),
            None => None,
        }
    }

    /// Records that `nodes[id]` was appended to the store. The caller
    /// guarantees [`UniqueTable::find`] just returned `None` for its
    /// contents.
    pub fn insert(&mut self, nodes: &[Node], id: NodeId) {
        self.migrate_chunk(nodes);
        if self.should_grow() {
            self.grow(nodes);
        }
        insert_raw_into(&mut self.slots, node_hash(&nodes[id.index()]), id.0);
        self.len += 1;
    }

    /// Live entries counting both the current and any retired table.
    fn total_entries(&self) -> usize {
        self.len + self.retired.as_ref().map_or(0, |r| r.remaining)
    }

    /// Grow once the current table would pass 7/8 occupancy if every
    /// retired entry landed in it.
    fn should_grow(&self) -> bool {
        (self.total_entries() + 1) * 8 > self.slots.len() * 7
    }

    /// Migrates up to [`MIGRATE_CHUNK`] entries from the retired table.
    /// Migrated entries are *copied*, not removed — probe chains in the
    /// retired table stay intact for lookups — and the whole retired
    /// allocation is dropped once its scan completes.
    fn migrate_chunk(&mut self, nodes: &[Node]) {
        let Some(old) = &mut self.retired else {
            return;
        };
        let mut moved = 0u64;
        while old.remaining > 0 && moved < MIGRATE_CHUNK as u64 {
            let id = old.slots[old.drain];
            old.drain += 1;
            if id != EMPTY_SLOT {
                old.remaining -= 1;
                moved += 1;
                let h = node_hash(&nodes[id as usize]);
                insert_raw_into(&mut self.slots, h, id);
                self.len += 1;
            }
        }
        if old.remaining == 0 {
            self.retired = None;
        }
        self.migrations += moved;
    }

    /// Doubles the table. Any in-flight drain is finished first so at
    /// most one retired table exists at a time.
    fn grow(&mut self, nodes: &[Node]) {
        while self.retired.is_some() {
            self.migrate_chunk(nodes);
        }
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(
            &mut self.slots,
            vec![EMPTY_SLOT; new_cap].into_boxed_slice(),
        );
        let remaining = self.len;
        self.len = 0;
        self.retired = Some(Retired {
            slots: old,
            drain: 0,
            remaining,
        });
    }
}

/// Linear-probe search of one table.
#[inline]
fn probe(slots: &[u32], nodes: &[Node], key: &Node, hash: u64) -> Option<NodeId> {
    let mask = slots.len() - 1;
    let mut i = (hash as usize) & mask;
    loop {
        let s = slots[i];
        if s == EMPTY_SLOT {
            return None;
        }
        if nodes[s as usize] == *key {
            return Some(NodeId(s));
        }
        i = (i + 1) & mask;
    }
}

/// Linear-probe insert into the first empty slot. The caller guarantees
/// the table has a free slot and the key is absent.
#[inline]
fn insert_raw_into(slots: &mut [u32], hash: u64, id: u32) {
    let mask = slots.len() - 1;
    let mut i = (hash as usize) & mask;
    while slots[i] != EMPTY_SLOT {
        i = (i + 1) & mask;
    }
    slots[i] = id;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TERMINAL_VAR;

    fn terminal() -> Node {
        Node {
            var: TERMINAL_VAR,
            lo: NodeId::EMPTY,
            hi: NodeId::EMPTY,
        }
    }

    /// Builds a store of `n` distinct nodes through the table, checking
    /// every prior node stays findable (exercises growth + migration).
    #[test]
    fn growth_keeps_all_entries_findable() {
        let mut nodes = vec![terminal(), terminal()];
        let mut table = UniqueTable::with_capacity(4);
        for k in 0..2000u32 {
            let key = Node {
                var: k,
                lo: NodeId::EMPTY,
                hi: NodeId::BASE,
            };
            assert!(table.find(&nodes, &key).is_none());
            let id = NodeId(nodes.len() as u32);
            nodes.push(key);
            table.insert(&nodes, id);
            assert_eq!(table.find(&nodes, &key), Some(id));
        }
        // After heavy growth, every one of the 2000 entries resolves.
        for (i, node) in nodes.iter().enumerate().skip(2) {
            assert_eq!(table.find(&nodes, node), Some(NodeId(i as u32)));
        }
        assert!(table.migrations() > 0, "incremental rehash never engaged");
    }
}
