//! The computed cache: a fixed-size, direct-mapped memo table for binary
//! ZDD operations.
//!
//! A flat array of 16-byte slots, sized once at construction, so memory
//! stays bounded however long a manager runs:
//!
//! * **direct-mapped** — a colliding entry overwrites (an *eviction*);
//!   losing a memo entry only costs recomputation, never correctness,
//!   because recomputation interns identical canonical nodes.
//! * **tagged** — each slot's `meta` word packs the operation tag with a
//!   valid bit, so a zeroed (never written) slot matches no key.

use crate::node::NodeId;

/// Bit of `meta` marking a written slot.
const VALID: u32 = 1 << 31;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One cache line entry: operands, result, and op-tag + valid bit.
#[derive(Clone, Copy, Default)]
struct Slot {
    a: u32,
    b: u32,
    r: u32,
    meta: u32,
}

/// Fixed-size direct-mapped memo table keyed by `(op, a, b)`.
pub(crate) struct ComputedCache {
    slots: Box<[Slot]>,
    mask: usize,
    /// Written-slot overwrites by a different key (for stats).
    evictions: u64,
}

impl std::fmt::Debug for ComputedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputedCache")
            .field("capacity", &self.slots.len())
            .finish_non_exhaustive()
    }
}

#[inline]
fn slot_index(op: u8, a: u32, b: u32, mask: usize) -> usize {
    let mut h = (op as u64).wrapping_mul(SEED);
    h = (h.rotate_left(5) ^ a as u64).wrapping_mul(SEED);
    h = (h.rotate_left(5) ^ b as u64).wrapping_mul(SEED);
    (h as usize) & mask
}

impl ComputedCache {
    /// A cache with `capacity` slots, rounded up to a power of two ≥ 16.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(16);
        ComputedCache {
            slots: vec![Slot::default(); cap].into_boxed_slice(),
            mask: cap - 1,
            evictions: 0,
        }
    }

    /// Written-slot overwrites since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up the memoised result of `op(a, b)`.
    #[inline]
    pub fn get(&self, op: u8, a: NodeId, b: NodeId) -> Option<NodeId> {
        let s = &self.slots[slot_index(op, a.0, b.0, self.mask)];
        if s.meta == VALID | op as u32 && s.a == a.0 && s.b == b.0 {
            Some(NodeId(s.r))
        } else {
            None
        }
    }

    /// Memoises `op(a, b) = r`, overwriting whatever occupied the slot.
    #[inline]
    pub fn put(&mut self, op: u8, a: NodeId, b: NodeId, r: NodeId) {
        let s = &mut self.slots[slot_index(op, a.0, b.0, self.mask)];
        let meta = VALID | op as u32;
        if s.meta & VALID != 0 && (s.meta != meta || s.a != a.0 || s.b != b.0) {
            self.evictions += 1;
        }
        *s = Slot {
            a: a.0,
            b: b.0,
            r: r.0,
            meta,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_roundtrip_per_op() {
        let mut c = ComputedCache::with_capacity(64);
        let (a, b) = (NodeId(7), NodeId(9));
        c.put(3, a, b, NodeId(42));
        assert_eq!(c.get(3, a, b), Some(NodeId(42)));
        // Same operands under a different op tag miss.
        assert_eq!(c.get(4, a, b), None);
    }

    #[test]
    fn zeroed_slots_never_match() {
        // Op 0 with operands 0, 0 is what a zeroed slot would spell
        // without the valid bit.
        let c = ComputedCache::with_capacity(16);
        assert_eq!(c.get(0, NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn collisions_evict_and_are_counted() {
        // Capacity 16 (minimum): flood with distinct keys; with only 16
        // slots some must collide and evict.
        let mut c = ComputedCache::with_capacity(1);
        assert_eq!(c.slots.len(), 16);
        for i in 0..64u32 {
            c.put(1, NodeId(i), NodeId(i + 1), NodeId(i + 2));
        }
        assert!(c.evictions() > 0);
    }
}
