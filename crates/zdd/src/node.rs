//! Node identifiers and variables for the ZDD store.

/// A variable (element of the universe) in a ZDD.
///
/// Variables are ordered by their index: smaller indices appear closer to the
/// root of every diagram.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Var(pub u32);

impl Var {
    /// Returns the raw index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for Var {
    fn from(v: usize) -> Self {
        Var(u32::try_from(v).expect("variable index exceeds u32"))
    }
}

/// A handle to a node (and thus to the family it roots) in a [`Zdd`] store.
///
/// Two `NodeId`s obtained from the *same* manager are equal if and only if
/// they represent the same family — ZDDs are canonical.
///
/// [`Zdd`]: crate::Zdd
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The empty family `∅` (no sets at all).
    pub const EMPTY: NodeId = NodeId(0);
    /// The unit family `{∅}` containing exactly the empty set.
    pub const BASE: NodeId = NodeId(1);

    /// Returns `true` for the two terminal nodes.
    #[inline]
    pub(crate) fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Internal node representation: a decision on `var` with `lo` (var absent)
/// and `hi` (var present) children. Zero-suppression guarantees `hi` is never
/// [`NodeId::EMPTY`] for stored nodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Node {
    pub var: u32,
    pub lo: NodeId,
    pub hi: NodeId,
}

/// Sentinel variable index used by terminal nodes so that the raw variable
/// of a terminal compares greater than every real variable.
pub(crate) const TERMINAL_VAR: u32 = u32::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_ordering_follows_index() {
        assert!(Var(0) < Var(1));
        assert!(Var(7) > Var(3));
        assert_eq!(Var::from(5usize), Var(5));
        assert_eq!(Var(4).index(), 4);
    }

    #[test]
    fn terminals_are_terminal() {
        assert!(NodeId::EMPTY.is_terminal());
        assert!(NodeId::BASE.is_terminal());
        assert!(!NodeId(2).is_terminal());
    }
}
