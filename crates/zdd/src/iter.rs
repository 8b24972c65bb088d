//! Enumeration of the sets in a family, and its support.

use crate::node::{NodeId, Var};
use crate::Zdd;

/// Streaming iterator over the member sets of a family, produced by
/// [`Zdd::sets`]. Each item is the sorted list of variables of one member.
#[derive(Debug)]
pub struct SetsIter<'a> {
    zdd: &'a Zdd,
    /// Stack of (node, path-so-far) pairs still to expand.
    stack: Vec<(NodeId, Vec<Var>)>,
}

impl Iterator for SetsIter<'_> {
    type Item = Vec<Var>;

    fn next(&mut self) -> Option<Vec<Var>> {
        while let Some((node, path)) = self.stack.pop() {
            match node {
                NodeId::EMPTY => continue,
                NodeId::BASE => return Some(path),
                _ => {
                    let mut hi_path = path.clone();
                    hi_path.push(Var(self.zdd.raw_var(node)));
                    // Push hi first so lo (sets without the smaller var)
                    // come out after: order is stable, not semantic.
                    self.stack.push((self.zdd.hi(node), hi_path));
                    self.stack.push((self.zdd.lo(node), path));
                }
            }
        }
        None
    }
}

impl Zdd {
    /// Iterates over every member set of `f`.
    ///
    /// # Example
    ///
    /// ```
    /// use zdd::{Var, Zdd};
    /// let mut z = Zdd::default();
    /// let f = z.from_sets([vec![Var(0)], vec![Var(1), Var(2)]]);
    /// let mut sets: Vec<Vec<Var>> = z.sets(f).collect();
    /// sets.sort();
    /// assert_eq!(sets, vec![vec![Var(0)], vec![Var(1), Var(2)]]);
    /// ```
    pub fn sets(&self, f: NodeId) -> SetsIter<'_> {
        SetsIter {
            zdd: self,
            stack: vec![(f, Vec::new())],
        }
    }

    /// Collects every member of `f` into a vector of sorted variable lists.
    pub fn to_sets(&self, f: NodeId) -> Vec<Vec<Var>> {
        self.sets(f).collect()
    }

    /// The set of variables occurring in at least one member of `f`,
    /// in increasing order.
    pub fn support(&self, f: NodeId) -> Vec<Var> {
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![f];
        let mut visited = std::collections::HashSet::new();
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !visited.insert(n) {
                continue;
            }
            seen.insert(self.raw_var(n));
            stack.push(self.lo(n));
            stack.push(self.hi(n));
        }
        seen.into_iter().map(Var).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{NodeId, Var, Zdd};

    #[test]
    fn enumerates_all_members() {
        let mut z = Zdd::default();
        let input: Vec<Vec<Var>> = vec![
            vec![],
            vec![Var(0)],
            vec![Var(1), Var(3)],
            vec![Var(0), Var(2), Var(3)],
        ];
        let f = z.from_sets(input.clone());
        let mut out = z.to_sets(f);
        out.sort();
        let mut expected = input;
        expected.sort();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_family_yields_nothing() {
        let z = Zdd::default();
        assert_eq!(z.sets(NodeId::EMPTY).count(), 0);
        assert_eq!(z.sets(NodeId::BASE).count(), 1);
    }

    #[test]
    fn shared_nodes_enumerate_every_path() {
        // Fully shared chain: 6 internal nodes, 2^6 members.
        let mut z = Zdd::default();
        let mut f = NodeId::BASE;
        for v in (0..6).rev() {
            f = z.node(Var(v), f, f);
        }
        assert_eq!(z.sets(f).count(), 64);
    }

    #[test]
    fn support_collects_vars() {
        let mut z = Zdd::default();
        let f = z.from_sets([vec![Var(0), Var(3)], vec![Var(1)]]);
        assert_eq!(z.support(f), vec![Var(0), Var(1), Var(3)]);
        assert!(z.support(NodeId::BASE).is_empty());
    }
}
