//! [`BddOptions`]: the builder that constructs every [`Bdd`] manager.
//!
//! Mirrors the `ZddOptions` builder in `ucp-zdd` so both decision-diagram
//! crates share one construction idiom: name the tunables, then `build()`.
//! The BDD kernel keeps its map-based tables (it is not on the solver's
//! hot path), so the options here only pre-size them.

use crate::Bdd;

/// Construction-time tunables of a [`Bdd`] manager.
///
/// # Example
///
/// ```
/// use bdd::BddOptions;
///
/// let mut b = BddOptions::new()
///     .unique_capacity(1 << 10)
///     .cache_capacity(1 << 12)
///     .build();
/// let x = b.var(0);
/// let nx = b.not(x);
/// assert!(b.or(x, nx).is_true());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BddOptions {
    pub(crate) unique_capacity: usize,
    pub(crate) cache_capacity: usize,
}

impl Default for BddOptions {
    fn default() -> Self {
        BddOptions {
            unique_capacity: 1 << 10,
            cache_capacity: 1 << 12,
        }
    }
}

impl BddOptions {
    /// Default options — identical to [`BddOptions::default`].
    pub fn new() -> Self {
        BddOptions::default()
    }

    /// Initial capacity of the unique (hash-consing) table.
    pub fn unique_capacity(mut self, entries: usize) -> Self {
        self.unique_capacity = entries;
        self
    }

    /// Initial capacity of the computed (memo) cache.
    pub fn cache_capacity(mut self, entries: usize) -> Self {
        self.cache_capacity = entries;
        self
    }

    /// Constructs the manager.
    pub fn build(self) -> Bdd {
        Bdd::with_options(self)
    }

    /// The configured unique-table capacity.
    pub fn get_unique_capacity(&self) -> usize {
        self.unique_capacity
    }

    /// The configured computed-cache capacity.
    pub fn get_cache_capacity(&self) -> usize {
        self.cache_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrips_fields() {
        let o = BddOptions::new().unique_capacity(64).cache_capacity(128);
        assert_eq!(o.get_unique_capacity(), 64);
        assert_eq!(o.get_cache_capacity(), 128);
    }

    #[test]
    fn zero_capacities_still_work() {
        let mut b = BddOptions::new()
            .unique_capacity(0)
            .cache_capacity(0)
            .build();
        let x = b.var(1);
        let y = b.var(2);
        assert!(!b.and(x, y).is_const());
    }
}
