//! Lists of cubes (sums of products) with the classical cover operations.

use crate::cube::Cube;
use bdd::{Bdd, BddId};

/// A sum of products over `num_inputs` variables.
///
/// # Example
///
/// ```
/// use logic::CubeList;
/// let f = CubeList::parse(3, &["11-", "0-1"])?;
/// assert!(f.eval(0b011)); // 110 pattern? bit0=1,bit1=1 ⇒ covered by "11-"
/// assert_eq!(f.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CubeList {
    num_inputs: usize,
    cubes: Vec<Cube>,
}

impl CubeList {
    /// Creates an empty (constant-false) cover.
    pub fn new(num_inputs: usize) -> Self {
        assert!(num_inputs <= crate::cube::MAX_INPUTS);
        CubeList {
            num_inputs,
            cubes: Vec::new(),
        }
    }

    /// Builds a cover from cubes.
    pub fn from_cubes(num_inputs: usize, cubes: Vec<Cube>) -> Self {
        assert!(num_inputs <= crate::cube::MAX_INPUTS);
        CubeList { num_inputs, cubes }
    }

    /// Parses a list of espresso-style cube strings.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ParseCubeError`](crate::cube::ParseCubeError)
    /// for a malformed string.
    pub fn parse(num_inputs: usize, cubes: &[&str]) -> Result<Self, crate::cube::ParseCubeError> {
        let cubes: Result<Vec<Cube>, _> = cubes.iter().map(|s| s.parse()).collect();
        Ok(CubeList::from_cubes(num_inputs, cubes?))
    }

    /// Number of input variables.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// Returns `true` when the cover is empty (constant false).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// The cubes.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Adds a cube.
    pub fn push(&mut self, c: Cube) {
        self.cubes.push(c);
    }

    /// Evaluates the disjunction on a full assignment.
    pub fn eval(&self, assignment: u64) -> bool {
        self.cubes.iter().any(|c| c.eval(assignment))
    }

    /// Removes cubes contained in other cubes (single-cube absorption).
    pub fn absorb(&mut self) {
        let mut keep: Vec<Cube> = Vec::with_capacity(self.cubes.len());
        let mut cubes = self.cubes.clone();
        // Wider cubes first so narrow ones get absorbed.
        cubes.sort_by_key(|c| c.literal_count());
        for c in cubes {
            if !keep.iter().any(|k| k.contains(&c)) {
                keep.push(c);
            }
        }
        self.cubes = keep;
    }

    /// Builds the BDD of this cover in `mgr`.
    pub fn to_bdd(&self, mgr: &mut Bdd) -> BddId {
        let mut acc = BddId::FALSE;
        for c in &self.cubes {
            let cube_bdd = c.to_bdd(mgr);
            acc = mgr.or(acc, cube_bdd);
        }
        acc
    }

    /// Tautology check by Shannon expansion with unate shortcuts.
    ///
    /// # Example
    ///
    /// ```
    /// use logic::CubeList;
    /// let t = CubeList::parse(2, &["1-", "0-"]).unwrap();
    /// assert!(t.is_tautology());
    /// let f = CubeList::parse(2, &["1-"]).unwrap();
    /// assert!(!f.is_tautology());
    /// ```
    pub fn is_tautology(&self) -> bool {
        taut_rec(&self.cubes, self.num_inputs)
    }

    /// Checks whether a cube is contained in (implied by) the cover:
    /// `c ⊆ Σ cubes` iff the cofactor of the cover by `c` is a tautology.
    pub fn contains_cube(&self, c: &Cube) -> bool {
        let mut cof: Vec<Cube> = Vec::new();
        for k in &self.cubes {
            if let Some(r) = cofactor_by_cube(k, c) {
                cof.push(r);
            }
        }
        taut_rec(&cof, self.num_inputs)
    }

    /// Enumerates all satisfying minterms (assignments) of the cover.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > 24` (explicit expansion guard).
    pub fn minterms(&self) -> Vec<u64> {
        assert!(
            self.num_inputs <= 24,
            "explicit minterm expansion too large"
        );
        (0..1u64 << self.num_inputs)
            .filter(|&a| self.eval(a))
            .collect()
    }
}

/// Cofactor of cube `k` with respect to cube `c` (restrict `k` to the
/// subspace where `c` holds): `None` if they conflict.
fn cofactor_by_cube(k: &Cube, c: &Cube) -> Option<Cube> {
    k.intersect(c)?;
    // Drop from k every literal fixed by c.
    let fixed = c.pos() | c.neg();
    Some(Cube::new(k.pos() & !fixed, k.neg() & !fixed))
}

/// Recursive tautology with the standard shortcuts.
fn taut_rec(cubes: &[Cube], n: usize) -> bool {
    // A universal cube makes it a tautology.
    if cubes.iter().any(|c| c.literal_count() == 0) {
        return true;
    }
    if cubes.is_empty() {
        return false;
    }
    // Unate reduction: if some variable appears in only one phase across all
    // cubes, the cover is a tautology iff the cubes free of that variable
    // form one (setting the variable against the phase kills the others).
    let mut any_pos = 0u64;
    let mut any_neg = 0u64;
    for c in cubes {
        any_pos |= c.pos();
        any_neg |= c.neg();
    }
    let unate = (any_pos ^ any_neg) & (any_pos | any_neg);
    if unate != 0 {
        let v = unate.trailing_zeros() as usize;
        let reduced: Vec<Cube> = cubes
            .iter()
            .filter(|c| c.is_dont_care(v))
            .copied()
            .collect();
        return taut_rec(&reduced, n);
    }
    // Branch on the most frequent binate variable.
    let mut counts = vec![0usize; n];
    for c in cubes {
        for (v, count) in counts.iter_mut().enumerate() {
            if !c.is_dont_care(v) {
                *count += 1;
            }
        }
    }
    let v = match counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .max_by_key(|&(_, &c)| c)
    {
        Some((v, _)) => v,
        None => return false, // no literals at all and no universal cube
    };
    for val in [false, true] {
        let cof: Vec<Cube> = cubes.iter().filter_map(|c| c.cofactor(v, val)).collect();
        if !taut_rec(&cof, n) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_and_minterms() {
        let f = CubeList::parse(3, &["11-", "0-1"]).unwrap();
        let ms = f.minterms();
        // 11-: {011,111}; 0-1: {100,110}. Bit v of the assignment is var v.
        let expected: Vec<u64> = vec![0b011, 0b100, 0b110, 0b111];
        assert_eq!(ms, expected);
    }

    #[test]
    fn absorb_removes_contained() {
        let mut f = CubeList::parse(3, &["1--", "10-", "011"]).unwrap();
        f.absorb();
        assert_eq!(f.len(), 2);
        assert!(f.cubes().contains(&"1--".parse().unwrap()));
    }

    #[test]
    fn tautology_cases() {
        assert!(CubeList::parse(1, &["-"]).unwrap().is_tautology());
        assert!(CubeList::parse(2, &["1-", "0-"]).unwrap().is_tautology());
        assert!(CubeList::parse(2, &["11", "10", "0-"])
            .unwrap()
            .is_tautology());
        assert!(!CubeList::parse(2, &["11", "00"]).unwrap().is_tautology());
        assert!(!CubeList::new(2).is_tautology());
    }

    #[test]
    fn tautology_matches_bdd() {
        // Cross-check on a handful of covers.
        let covers = [
            vec!["1--", "01-", "001", "000"],
            vec!["1-1", "0--", "1-0"],
            vec!["11-", "1-1", "-11"],
        ];
        for cubes in covers {
            let f = CubeList::parse(3, &cubes).unwrap();
            let mut mgr = Bdd::default();
            let b = f.to_bdd(&mut mgr);
            assert_eq!(f.is_tautology(), b.is_true(), "cover {cubes:?}");
        }
    }

    #[test]
    fn contains_cube_matches_semantics() {
        let f = CubeList::parse(3, &["11-", "0-1"]).unwrap();
        assert!(f.contains_cube(&"111".parse().unwrap()));
        assert!(f.contains_cube(&"11-".parse().unwrap()));
        assert!(!f.contains_cube(&"1--".parse().unwrap()));
        assert!(!f.contains_cube(&"--1".parse().unwrap()));
    }

    #[test]
    fn to_bdd_matches_eval() {
        let f = CubeList::parse(4, &["1--0", "01-1", "--11"]).unwrap();
        let mut mgr = Bdd::default();
        let b = f.to_bdd(&mut mgr);
        for a in 0..16u64 {
            let bits: Vec<bool> = (0..4).map(|v| a >> v & 1 == 1).collect();
            assert_eq!(mgr.eval(b, &bits), f.eval(a), "assignment {a:04b}");
        }
    }
}
