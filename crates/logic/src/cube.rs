//! Cubes (product terms) over up to 63 input variables.
//!
//! A cube is a conjunction of literals, stored as two bitmasks: `pos` for
//! positive literals, `neg` for negated ones. A variable in neither mask is
//! a don't-care. The masks are disjoint by construction (a variable in both
//! would make the cube empty).

use bdd::{Bdd, BddId};
use std::collections::HashSet;
use std::fmt;
use std::str::FromStr;

/// Maximum number of input variables a [`Cube`] can carry.
pub const MAX_INPUTS: usize = 63;

/// A product term over input variables `0..n ≤ 63`.
///
/// # Example
///
/// ```
/// use logic::Cube;
/// let c: Cube = "1-0".parse()?;
/// assert!(c.has_pos(0));
/// assert!(c.is_dont_care(1));
/// assert!(c.has_neg(2));
/// assert_eq!(c.to_string_width(3), "1-0");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Cube {
    pos: u64,
    neg: u64,
}

impl Cube {
    /// The universal cube (no literals; covers every minterm).
    pub const UNIVERSE: Cube = Cube { pos: 0, neg: 0 };

    /// Builds a cube from literal masks.
    ///
    /// # Panics
    ///
    /// Panics if the masks overlap (the cube would be empty) or touch bit 63.
    pub fn new(pos: u64, neg: u64) -> Self {
        assert_eq!(pos & neg, 0, "contradictory literals");
        assert_eq!((pos | neg) >> MAX_INPUTS, 0, "variable index out of range");
        Cube { pos, neg }
    }

    /// The cube of a single minterm (all `n` variables assigned).
    pub fn minterm(assignment: u64, n: usize) -> Self {
        assert!(n <= MAX_INPUTS);
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        Cube {
            pos: assignment & mask,
            neg: !assignment & mask,
        }
    }

    /// Positive-literal mask.
    #[inline]
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Negative-literal mask.
    #[inline]
    pub fn neg(&self) -> u64 {
        self.neg
    }

    /// Returns `true` if variable `v` appears positively.
    #[inline]
    pub fn has_pos(&self, v: usize) -> bool {
        self.pos >> v & 1 == 1
    }

    /// Returns `true` if variable `v` appears negated.
    #[inline]
    pub fn has_neg(&self, v: usize) -> bool {
        self.neg >> v & 1 == 1
    }

    /// Returns `true` if variable `v` is free in this cube.
    #[inline]
    pub fn is_dont_care(&self, v: usize) -> bool {
        !self.has_pos(v) && !self.has_neg(v)
    }

    /// Number of literals.
    pub fn literal_count(&self) -> u32 {
        (self.pos | self.neg).count_ones()
    }

    /// Set-containment: `self ⊇ other` as sets of minterms — every literal
    /// of `self` appears in `other`.
    ///
    /// # Example
    ///
    /// ```
    /// use logic::Cube;
    /// let wide: Cube = "1--".parse().unwrap();
    /// let narrow: Cube = "10-".parse().unwrap();
    /// assert!(wide.contains(&narrow));
    /// assert!(!narrow.contains(&wide));
    /// ```
    pub fn contains(&self, other: &Cube) -> bool {
        self.pos & other.pos == self.pos && self.neg & other.neg == self.neg
    }

    /// Intersection (conjunction), `None` when contradictory.
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        let pos = self.pos | other.pos;
        let neg = self.neg | other.neg;
        if pos & neg != 0 {
            None
        } else {
            Some(Cube { pos, neg })
        }
    }

    /// Hamming-style distance: number of variables on which the cubes take
    /// opposite literals.
    pub fn distance(&self, other: &Cube) -> u32 {
        ((self.pos & other.neg) | (self.neg & other.pos)).count_ones()
    }

    /// Quine consensus: defined when the distance is exactly 1; merges the
    /// two cubes across the conflicting variable.
    ///
    /// # Example
    ///
    /// ```
    /// use logic::Cube;
    /// let a: Cube = "10-".parse().unwrap();
    /// let b: Cube = "11-".parse().unwrap();
    /// // a ∪ b collapse to 1-- via consensus on variable 1.
    /// assert_eq!(a.consensus(&b), Some("1--".parse().unwrap()));
    /// ```
    pub fn consensus(&self, other: &Cube) -> Option<Cube> {
        if self.distance(other) != 1 {
            return None;
        }
        let conflict = (self.pos & other.neg) | (self.neg & other.pos);
        let pos = (self.pos | other.pos) & !conflict;
        let neg = (self.neg | other.neg) & !conflict;
        if pos & neg != 0 {
            return None;
        }
        Some(Cube { pos, neg })
    }

    /// The smallest cube containing both (drop every conflicting or
    /// one-sided literal).
    pub fn supercube(&self, other: &Cube) -> Cube {
        Cube {
            pos: self.pos & other.pos,
            neg: self.neg & other.neg,
        }
    }

    /// Evaluates the cube on a full assignment (bit `v` = value of var `v`).
    pub fn eval(&self, assignment: u64) -> bool {
        (self.pos & !assignment) == 0 && (self.neg & assignment) == 0
    }

    /// Cofactor with respect to `v = val`: `None` if the cube is false
    /// there; otherwise the cube with the literal removed.
    pub fn cofactor(&self, v: usize, val: bool) -> Option<Cube> {
        if val && self.has_neg(v) || !val && self.has_pos(v) {
            return None;
        }
        let bit = 1u64 << v;
        Some(Cube {
            pos: self.pos & !bit,
            neg: self.neg & !bit,
        })
    }

    /// Builds this cube's BDD in `mgr`, one literal at a time from the
    /// highest variable down, so each conjunction puts one node on top of
    /// the part already built.
    ///
    /// # Example
    ///
    /// ```
    /// use logic::Cube;
    /// let mut mgr = bdd::BddOptions::new().build();
    /// let c: Cube = "1-0".parse().unwrap();
    /// let f = c.to_bdd(&mut mgr);
    /// assert!(mgr.eval(f, &[true, false, false]));
    /// assert!(!mgr.eval(f, &[true, false, true]));
    /// ```
    pub fn to_bdd(&self, mgr: &mut Bdd) -> BddId {
        self.bdd_at(mgr, 0)
    }

    /// [`Cube::to_bdd`] with input `v` as BDD variable `first + v`.
    pub(crate) fn bdd_at(&self, mgr: &mut Bdd, first: u32) -> BddId {
        let mut acc = BddId::TRUE;
        let mut lits = self.pos | self.neg;
        while lits != 0 {
            let v = 63 - lits.leading_zeros();
            lits &= !(1 << v);
            let lit = if self.has_pos(v as usize) {
                mgr.var(first + v)
            } else {
                mgr.nvar(first + v)
            };
            acc = mgr.and(lit, acc);
        }
        acc
    }

    /// Is every minterm of this cube in `f`?
    ///
    /// Walks `f` from the root: a variable the cube fixes follows one edge,
    /// a free variable follows both (a shared node is split only once), and
    /// reaching `FALSE` fails at once. The manager is only read, so no node
    /// or cache entry is created.
    ///
    /// # Example
    ///
    /// ```
    /// use logic::Cube;
    /// let mut mgr = bdd::BddOptions::new().build();
    /// let x0 = mgr.var(0);
    /// let x1 = mgr.var(1);
    /// let f = mgr.or(x0, x1);
    /// assert!("1-".parse::<Cube>()?.implies(&mgr, f));
    /// assert!(!"0-".parse::<Cube>()?.implies(&mgr, f));
    /// # Ok::<(), logic::cube::ParseCubeError>(())
    /// ```
    pub fn implies(&self, mgr: &Bdd, f: BddId) -> bool {
        let mut stack = vec![f];
        let mut seen: HashSet<BddId> = HashSet::new();
        while let Some(g) = stack.pop() {
            if g.is_true() {
                continue;
            }
            if g.is_false() {
                return false;
            }
            let v = mgr.var_of(g) as usize;
            if self.has_pos(v) {
                stack.push(mgr.hi(g));
            } else if self.has_neg(v) {
                stack.push(mgr.lo(g));
            } else if seen.insert(g) {
                stack.push(mgr.hi(g));
                stack.push(mgr.lo(g));
            }
        }
        true
    }

    /// Number of minterms over `n` variables.
    pub fn minterm_count(&self, n: usize) -> u64 {
        1u64 << (n as u32 - self.literal_count())
    }

    /// Renders with explicit width (one char per variable: `0`, `1`, `-`).
    pub fn to_string_width(&self, n: usize) -> String {
        (0..n)
            .map(|v| {
                if self.has_pos(v) {
                    '1'
                } else if self.has_neg(v) {
                    '0'
                } else {
                    '-'
                }
            })
            .collect()
    }
}

impl Default for Cube {
    fn default() -> Self {
        Cube::UNIVERSE
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = 64 - (self.pos | self.neg).leading_zeros() as usize;
        write!(f, "{}", self.to_string_width(width.max(1)))
    }
}

/// Error from parsing a cube string.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ParseCubeError {
    /// Offending character.
    pub ch: char,
    /// Its position.
    pub index: usize,
}

impl fmt::Display for ParseCubeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid cube character {:?} at index {}",
            self.ch, self.index
        )
    }
}

impl std::error::Error for ParseCubeError {}

impl FromStr for Cube {
    type Err = ParseCubeError;

    /// Parses espresso input-plane notation: `0`, `1`, `-` (or `~`/`2` as
    /// don't-care synonyms).
    fn from_str(s: &str) -> Result<Self, ParseCubeError> {
        let mut pos = 0u64;
        let mut neg = 0u64;
        for (i, ch) in s.chars().enumerate() {
            if i >= MAX_INPUTS {
                return Err(ParseCubeError { ch, index: i });
            }
            match ch {
                '1' => pos |= 1 << i,
                '0' => neg |= 1 << i,
                '-' | '~' | '2' => {}
                _ => return Err(ParseCubeError { ch, index: i }),
            }
        }
        Ok(Cube { pos, neg })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["1-0", "---", "0101", "1"] {
            let c: Cube = s.parse().unwrap();
            assert_eq!(c.to_string_width(s.len()), s);
        }
        assert!("1x0".parse::<Cube>().is_err());
    }

    #[test]
    fn containment_is_literal_subset() {
        let a: Cube = "1--".parse().unwrap();
        let b: Cube = "1-0".parse().unwrap();
        assert!(a.contains(&b));
        assert!(a.contains(&a));
        assert!(!b.contains(&a));
        assert!(Cube::UNIVERSE.contains(&a));
    }

    #[test]
    fn intersection_and_conflict() {
        let a: Cube = "1--".parse().unwrap();
        let b: Cube = "-0-".parse().unwrap();
        assert_eq!(a.intersect(&b), Some("10-".parse().unwrap()));
        let c: Cube = "0--".parse().unwrap();
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn consensus_at_distance_one_only() {
        let a: Cube = "10-".parse().unwrap();
        let b: Cube = "11-".parse().unwrap();
        assert_eq!(a.consensus(&b), Some("1--".parse().unwrap()));
        let far: Cube = "011".parse().unwrap();
        assert_eq!(a.distance(&far), 2);
        assert_eq!(a.consensus(&far), None);
        // Distance 0 → no consensus.
        assert_eq!(a.consensus(&a), None);
    }

    #[test]
    fn consensus_generates_crossing_term() {
        // Classic: ab + a'c ⇒ consensus bc.
        let ab: Cube = "11-".parse().unwrap();
        let a_c: Cube = "0-1".parse().unwrap();
        assert_eq!(ab.consensus(&a_c), Some("-11".parse().unwrap()));
    }

    #[test]
    fn minterm_helpers() {
        let m = Cube::minterm(0b101, 3);
        assert_eq!(m.to_string_width(3), "101");
        assert!(m.eval(0b101));
        assert!(!m.eval(0b100));
        assert_eq!(m.minterm_count(3), 1);
        assert_eq!(Cube::UNIVERSE.minterm_count(3), 8);
    }

    #[test]
    fn eval_semantics() {
        let c: Cube = "1-0".parse().unwrap();
        assert!(c.eval(0b001));
        assert!(c.eval(0b011));
        assert!(!c.eval(0b000)); // needs x0=1
        assert!(!c.eval(0b101)); // needs x2=0
    }

    #[test]
    fn cofactor_removes_literal() {
        let c: Cube = "1-0".parse().unwrap();
        assert_eq!(c.cofactor(0, true), Some("--0".parse().unwrap()));
        assert_eq!(c.cofactor(0, false), None);
        assert_eq!(c.cofactor(1, true), Some("1-0".parse().unwrap()));
    }

    #[test]
    fn supercube_is_smallest_container() {
        let a: Cube = "10-".parse().unwrap();
        let b: Cube = "11-".parse().unwrap();
        let s = a.supercube(&b);
        assert!(s.contains(&a) && s.contains(&b));
        assert_eq!(s, "1--".parse().unwrap());
    }

    #[test]
    #[should_panic(expected = "contradictory")]
    fn overlapping_masks_panic() {
        let _ = Cube::new(0b1, 0b1);
    }
}
