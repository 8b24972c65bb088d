//! The BDD manager: hash-consed storage and node construction.

use crate::node::{BddId, BddNode, TERMINAL_VAR};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

// A tiny FxHash copy; kept local so this crate stays dependency-free.
#[derive(Default)]
pub(crate) struct FxHasher {
    state: u64,
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.state = (self.state.rotate_left(5) ^ u64::from_le_bytes(buf))
                .wrapping_mul(0x517cc1b727220a95);
        }
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.state = (self.state.rotate_left(5) ^ n as u64).wrapping_mul(0x517cc1b727220a95);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = (self.state.rotate_left(5) ^ n).wrapping_mul(0x517cc1b727220a95);
    }
}

pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Operation tags for the binary cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum BOp {
    And,
    Or,
    Xor,
    Not,
    Exists,
    Forall,
    Restrict1,
    Restrict0,
    Leq,
}

/// A hash-consed store of reduced ordered BDD nodes.
///
/// Variables are `u32` indices ordered by value (smaller = nearer the root).
/// Managers are constructed through the [`BddOptions`](crate::BddOptions)
/// builder (`Bdd::default()` is shorthand for
/// `BddOptions::default().build()`), the same construction idiom as the
/// ZDD manager.
///
/// # Example
///
/// ```
/// use bdd::BddOptions;
/// let mut b = BddOptions::new().build();
/// let x0 = b.var(0);
/// let nx0 = b.not(x0);
/// let t = b.or(x0, nx0);
/// assert!(t.is_true());
/// ```
#[derive(Debug)]
pub struct Bdd {
    pub(crate) nodes: Vec<BddNode>,
    unique: FxMap<BddNode, BddId>,
    pub(crate) cache: FxMap<(BOp, BddId, BddId), BddId>,
}

impl Default for Bdd {
    /// Equivalent to `BddOptions::default().build()`.
    ///
    /// (The previous derived `Default` produced a store with *no*
    /// constant nodes — any use would have indexed out of bounds.)
    fn default() -> Self {
        crate::BddOptions::default().build()
    }
}

impl Bdd {
    /// Constructs a manager from validated options
    /// ([`BddOptions::build`](crate::BddOptions::build) is the public
    /// entry).
    pub(crate) fn with_options(opts: crate::BddOptions) -> Self {
        let t = |_| BddNode {
            var: TERMINAL_VAR,
            lo: BddId::FALSE,
            hi: BddId::FALSE,
        };
        Bdd {
            nodes: vec![t(0), t(1)],
            unique: FxMap::with_capacity_and_hasher(opts.unique_capacity, Default::default()),
            cache: FxMap::with_capacity_and_hasher(opts.cache_capacity, Default::default()),
        }
    }

    /// The constant false function.
    #[inline]
    pub fn zero(&self) -> BddId {
        BddId::FALSE
    }

    /// The constant true function.
    #[inline]
    pub fn one(&self) -> BddId {
        BddId::TRUE
    }

    /// The projection function of variable `v`.
    pub fn var(&mut self, v: u32) -> BddId {
        self.mk(v, BddId::FALSE, BddId::TRUE)
    }

    /// The negated projection function of variable `v`.
    pub fn nvar(&mut self, v: u32) -> BddId {
        self.mk(v, BddId::TRUE, BddId::FALSE)
    }

    /// Creates (or retrieves) the node for the Shannon decomposition
    /// `v ? hi : lo`, applying the reduction rule `lo == hi ⇒ lo`.
    pub(crate) fn mk(&mut self, var: u32, lo: BddId, hi: BddId) -> BddId {
        if lo == hi {
            return lo;
        }
        debug_assert!(self.raw_var(lo) > var && self.raw_var(hi) > var);
        let key = BddNode { var, lo, hi };
        if let Some(&id) = self.unique.get(&key) {
            return id;
        }
        let id = BddId(u32::try_from(self.nodes.len()).expect("BDD node store overflow"));
        self.nodes.push(key);
        self.unique.insert(key, id);
        id
    }

    /// Returns the decision variable of a non-constant function.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `f` is constant.
    #[inline]
    pub fn var_of(&self, f: BddId) -> u32 {
        debug_assert!(!f.is_const());
        self.nodes[f.index()].var
    }

    #[inline]
    pub(crate) fn raw_var(&self, f: BddId) -> u32 {
        self.nodes[f.index()].var
    }

    /// The negative cofactor with respect to the top variable.
    #[inline]
    pub fn lo(&self, f: BddId) -> BddId {
        debug_assert!(!f.is_const());
        self.nodes[f.index()].lo
    }

    /// The positive cofactor with respect to the top variable.
    #[inline]
    pub fn hi(&self, f: BddId) -> BddId {
        debug_assert!(!f.is_const());
        self.nodes[f.index()].hi
    }

    /// Cofactors of `f` with respect to variable `v` (which need not be the
    /// top variable): `(f|v=0, f|v=1)`.
    #[inline]
    pub fn cofactors(&self, f: BddId, v: u32) -> (BddId, BddId) {
        if !f.is_const() && self.raw_var(f) == v {
            (self.lo(f), self.hi(f))
        } else {
            (f, f)
        }
    }

    /// Total number of nodes in the store.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the store holds only constants.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 2
    }

    /// Number of distinct internal nodes reachable from `f`.
    pub fn node_count(&self, f: BddId) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_const() || !seen.insert(n) {
                continue;
            }
            stack.push(self.lo(n));
            stack.push(self.hi(n));
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_rule() {
        let mut b = Bdd::default();
        let f = b.mk(0, BddId::TRUE, BddId::TRUE);
        assert!(f.is_true());
    }

    #[test]
    fn hash_consing() {
        let mut b = Bdd::default();
        let x = b.var(3);
        let y = b.var(3);
        assert_eq!(x, y);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn cofactors_of_var() {
        let mut b = Bdd::default();
        let x = b.var(2);
        assert_eq!(b.cofactors(x, 2), (BddId::FALSE, BddId::TRUE));
        assert_eq!(b.cofactors(x, 0), (x, x));
    }
}
