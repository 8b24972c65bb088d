//! [`ZddOptions`]: the builder that constructs every [`Zdd`] manager.
//!
//! The kernel's throughput and memory behaviour are governed by three
//! structures — the open-addressing unique table, the fixed-size
//! generational computed cache, and the mark-and-compact garbage
//! collector. `ZddOptions` names their tunables and is the only way to
//! construct a manager (`Zdd::default()` is `ZddOptions::default().build()`).
//!
//! None of the tunables affect *what* a manager computes — families,
//! counts and enumeration orders are identical at every setting — only
//! how fast it computes and how much memory it holds onto.

use crate::Zdd;

/// Construction-time tunables of a [`Zdd`] manager.
///
/// # Example
///
/// ```
/// use zdd::{Var, ZddOptions};
///
/// let mut z = ZddOptions::new()
///     .unique_capacity(1 << 10)
///     .cache_capacity(1 << 12)
///     .gc_threshold(1 << 14)
///     .build();
/// let f = z.from_sets([vec![Var(0)], vec![Var(1)]]);
/// assert_eq!(z.count(f), 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZddOptions {
    pub(crate) unique_capacity: usize,
    pub(crate) cache_capacity: usize,
    pub(crate) gc_threshold: usize,
    pub(crate) gc_ratio: f64,
    pub(crate) auto_gc: bool,
}

impl Default for ZddOptions {
    fn default() -> Self {
        ZddOptions {
            unique_capacity: 1 << 12,
            cache_capacity: 1 << 15,
            gc_threshold: 1 << 16,
            gc_ratio: 2.0,
            auto_gc: true,
        }
    }
}

impl ZddOptions {
    /// Default options — identical to [`ZddOptions::default`].
    pub fn new() -> Self {
        ZddOptions::default()
    }

    /// Initial slot count of the unique table (rounded up to a power of
    /// two, minimum 16). The table grows by doubling with *incremental*
    /// rehashing — resizes never stall a single `node()` call — so this
    /// only sets where that doubling schedule starts.
    pub fn unique_capacity(mut self, slots: usize) -> Self {
        self.unique_capacity = slots;
        self
    }

    /// Entry count of the computed (memo) cache — rounded up to a power
    /// of two, minimum 16, **fixed for the manager's lifetime**. The
    /// cache is direct-mapped: colliding results overwrite (counted in
    /// [`ZddStats::cache_evictions`](crate::ZddStats::cache_evictions)),
    /// so memory stays bounded at 16 bytes per entry no matter how long
    /// the manager runs.
    pub fn cache_capacity(mut self, entries: usize) -> Self {
        self.cache_capacity = entries;
        self
    }

    /// Node-store size below which [`Zdd::maybe_gc`] never collects.
    /// Raise it to trade memory for fewer collections (each collection
    /// invalidates the computed cache); lower it to bound peak live
    /// nodes tightly, e.g. for many concurrent managers.
    pub fn gc_threshold(mut self, nodes: usize) -> Self {
        self.gc_threshold = nodes;
        self
    }

    /// Growth factor between automatic collections: after a collection
    /// leaves `live` nodes, the next one triggers once the store reaches
    /// `live * ratio` (clamped below by the threshold). Values are
    /// clamped to at least 1.1 so collections stay geometric and cannot
    /// thrash. Default 2.0.
    pub fn gc_ratio(mut self, ratio: f64) -> Self {
        self.gc_ratio = if ratio.is_finite() {
            ratio.max(1.1)
        } else {
            2.0
        };
        self
    }

    /// Enables or disables automatic collection entirely. When off,
    /// [`Zdd::maybe_gc`] is a no-op and only explicit [`Zdd::gc`] /
    /// [`Zdd::collect`] calls reclaim nodes. Default on.
    pub fn auto_gc(mut self, on: bool) -> Self {
        self.auto_gc = on;
        self
    }

    /// Constructs the manager.
    pub fn build(self) -> Zdd {
        Zdd::with_options(self)
    }

    /// The configured initial unique-table slot count.
    pub fn get_unique_capacity(&self) -> usize {
        self.unique_capacity
    }

    /// The configured computed-cache entry count.
    pub fn get_cache_capacity(&self) -> usize {
        self.cache_capacity
    }

    /// The configured auto-GC node threshold.
    pub fn get_gc_threshold(&self) -> usize {
        self.gc_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    #[test]
    fn builder_roundtrips_fields() {
        let o = ZddOptions::new()
            .unique_capacity(128)
            .cache_capacity(256)
            .gc_threshold(512)
            .gc_ratio(3.0)
            .auto_gc(false);
        assert_eq!(o.get_unique_capacity(), 128);
        assert_eq!(o.get_cache_capacity(), 256);
        assert_eq!(o.get_gc_threshold(), 512);
        assert_eq!(o.gc_ratio, 3.0);
        assert!(!o.auto_gc);
    }

    #[test]
    fn gc_ratio_is_clamped() {
        assert_eq!(ZddOptions::new().gc_ratio(0.5).gc_ratio, 1.1);
        assert_eq!(ZddOptions::new().gc_ratio(f64::NAN).gc_ratio, 2.0);
    }

    #[test]
    fn tiny_capacities_still_work() {
        // Capacities round up internally; a degenerate config must not
        // break correctness, only performance.
        let mut z = ZddOptions::new()
            .unique_capacity(0)
            .cache_capacity(0)
            .build();
        let f = z.from_sets([vec![Var(0), Var(1)], vec![Var(2)]]);
        assert_eq!(z.count(f), 2);
    }
}
