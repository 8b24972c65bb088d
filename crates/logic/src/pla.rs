//! Berkeley PLA format: parser, writer, and per-output function extraction.

use crate::cube::Cube;
use crate::cubelist::CubeList;
use bdd::{Bdd, BddId};
use std::fmt;
use std::str::FromStr;

/// The PLA logic-type directive, governing how the output plane is read.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PlaType {
    /// `.type fd` (the default): `1` = ON, `-`/`2` = DC, `0` = no meaning.
    #[default]
    Fd,
    /// `.type fr`: `1` = ON, `0` = OFF, `-` = no meaning.
    Fr,
    /// `.type f`: `1` = ON, everything else no meaning (OFF is the
    /// complement).
    F,
}

/// A parsed PLA: input cubes with per-output ON/DC membership.
///
/// # Example
///
/// ```
/// use logic::Pla;
/// let pla: Pla = ".i 2\n.o 1\n11 1\n0- 1\n.e\n".parse()?;
/// assert_eq!(pla.num_inputs(), 2);
/// assert_eq!(pla.num_outputs(), 1);
/// assert_eq!(pla.terms().len(), 2);
/// # Ok::<(), logic::ParsePlaError>(())
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Pla {
    num_inputs: usize,
    num_outputs: usize,
    pla_type: PlaType,
    /// `(input cube, ON mask, DC mask)` per product line.
    terms: Vec<(Cube, u64, u64)>,
    input_labels: Option<Vec<String>>,
    output_labels: Option<Vec<String>>,
}

/// One output's ON and DC sets as BDDs in a shared manager.
#[derive(Clone, Copy, Debug)]
pub struct OutputFunction {
    /// The ON-set.
    pub on: BddId,
    /// The don't-care set.
    pub dc: BddId,
}

impl Pla {
    /// Creates an empty PLA with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > 63` or `num_outputs > 64`.
    pub fn new(num_inputs: usize, num_outputs: usize) -> Self {
        assert!(num_inputs <= crate::cube::MAX_INPUTS, "too many inputs");
        assert!(num_outputs <= 64, "too many outputs");
        Pla {
            num_inputs,
            num_outputs,
            pla_type: PlaType::default(),
            terms: Vec::new(),
            input_labels: None,
            output_labels: None,
        }
    }

    /// Number of input variables.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output functions.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// The logic type in effect.
    pub fn pla_type(&self) -> PlaType {
        self.pla_type
    }

    /// The product terms: `(input cube, on mask, dc mask)`.
    pub fn terms(&self) -> &[(Cube, u64, u64)] {
        &self.terms
    }

    /// Appends a product term.
    ///
    /// # Panics
    ///
    /// Panics if the masks use bits `≥ num_outputs` or overlap.
    pub fn push_term(&mut self, cube: Cube, on: u64, dc: u64) {
        let limit = if self.num_outputs == 64 {
            u64::MAX
        } else {
            (1u64 << self.num_outputs) - 1
        };
        assert_eq!(on & !limit, 0, "on mask out of range");
        assert_eq!(dc & !limit, 0, "dc mask out of range");
        assert_eq!(on & dc, 0, "a term cannot be both ON and DC");
        self.terms.push((cube, on, dc));
    }

    /// The ON-set cubes of output `o` as a [`CubeList`].
    pub fn on_cover(&self, o: usize) -> CubeList {
        CubeList::from_cubes(
            self.num_inputs,
            self.terms
                .iter()
                .filter(|(_, on, _)| on >> o & 1 == 1)
                .map(|(c, _, _)| *c)
                .collect(),
        )
    }

    /// The DC-set cubes of output `o`.
    pub fn dc_cover(&self, o: usize) -> CubeList {
        CubeList::from_cubes(
            self.num_inputs,
            self.terms
                .iter()
                .filter(|(_, _, dc)| dc >> o & 1 == 1)
                .map(|(c, _, _)| *c)
                .collect(),
        )
    }

    /// Builds ON/DC BDDs for every output in one shared manager.
    pub fn output_functions(&self, mgr: &mut Bdd) -> Vec<OutputFunction> {
        (0..self.num_outputs)
            .map(|o| OutputFunction {
                on: self.on_cover(o).to_bdd(mgr),
                dc: self.dc_cover(o).to_bdd(mgr),
            })
            .collect()
    }

    /// The `.ilb` input labels, if any were declared.
    pub fn input_labels(&self) -> Option<&[String]> {
        self.input_labels.as_deref()
    }

    /// The `.ob` output labels, if any were declared.
    pub fn output_labels(&self) -> Option<&[String]> {
        self.output_labels.as_deref()
    }

    /// Serialises back to `.pla` text.
    pub fn to_pla_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            ".i {}\n.o {}\n",
            self.num_inputs, self.num_outputs
        ));
        if let Some(labels) = &self.input_labels {
            out.push_str(&format!(".ilb {}\n", labels.join(" ")));
        }
        if let Some(labels) = &self.output_labels {
            out.push_str(&format!(".ob {}\n", labels.join(" ")));
        }
        match self.pla_type {
            PlaType::Fd => {}
            PlaType::Fr => out.push_str(".type fr\n"),
            PlaType::F => out.push_str(".type f\n"),
        }
        out.push_str(&format!(".p {}\n", self.terms.len()));
        for (cube, on, dc) in &self.terms {
            out.push_str(&cube.to_string_width(self.num_inputs));
            out.push(' ');
            for o in 0..self.num_outputs {
                out.push(if on >> o & 1 == 1 {
                    '1'
                } else if dc >> o & 1 == 1 {
                    '-'
                } else {
                    '0'
                });
            }
            out.push('\n');
        }
        out.push_str(".e\n");
        out
    }
}

impl fmt::Display for Pla {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_pla_string())
    }
}

/// Error from [`Pla::from_str`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParsePlaError {
    /// `.i`/`.o` directive missing before the first cube line.
    MissingHeader,
    /// A directive had a malformed argument.
    BadDirective(String),
    /// A cube line had the wrong width or bad characters.
    BadCube { line: usize, reason: String },
    /// Inputs/outputs exceed the supported 63/64 limits.
    TooLarge,
}

impl fmt::Display for ParsePlaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePlaError::MissingHeader => write!(f, "missing .i/.o header"),
            ParsePlaError::BadDirective(d) => write!(f, "malformed directive: {d}"),
            ParsePlaError::BadCube { line, reason } => {
                write!(f, "bad cube on line {line}: {reason}")
            }
            ParsePlaError::TooLarge => write!(f, "PLA exceeds 63 inputs / 64 outputs"),
        }
    }
}

impl std::error::Error for ParsePlaError {}

impl FromStr for Pla {
    type Err = ParsePlaError;

    fn from_str(s: &str) -> Result<Self, ParsePlaError> {
        ucp_failpoints::fail_point!("logic::parse_pla", |payload: String| Err(
            ParsePlaError::BadDirective(payload)
        ));
        let mut ni: Option<usize> = None;
        let mut no: Option<usize> = None;
        let mut pla_type = PlaType::default();
        let mut terms: Vec<(Cube, u64, u64)> = Vec::new();
        let mut input_labels = None;
        let mut output_labels = None;

        for (lineno, raw) in s.lines().enumerate() {
            let line = match raw.find('#') {
                Some(p) => &raw[..p],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('.') {
                let mut it = rest.split_whitespace();
                match it.next() {
                    Some("i") => {
                        ni = Some(parse_num(it.next(), line)?);
                    }
                    Some("o") => {
                        no = Some(parse_num(it.next(), line)?);
                    }
                    Some("p") => {
                        let _ = parse_num(it.next(), line)?; // advisory count
                    }
                    Some("type") => {
                        pla_type = match it.next() {
                            Some("fd") => PlaType::Fd,
                            Some("fr") => PlaType::Fr,
                            Some("f") => PlaType::F,
                            other => {
                                return Err(ParsePlaError::BadDirective(format!(".type {other:?}")))
                            }
                        };
                    }
                    Some("ilb") => {
                        input_labels = Some(it.map(String::from).collect());
                    }
                    Some("ob") => {
                        output_labels = Some(it.map(String::from).collect());
                    }
                    Some("e") | Some("end") => break,
                    _ => {
                        // Unknown directives are skipped (espresso does too).
                    }
                }
                continue;
            }
            // Cube line.
            let (ni, no) = match (ni, no) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(ParsePlaError::MissingHeader),
            };
            if ni > crate::cube::MAX_INPUTS || no > 64 {
                return Err(ParsePlaError::TooLarge);
            }
            let compact: String = line.split_whitespace().collect();
            if compact.len() != ni + no {
                return Err(ParsePlaError::BadCube {
                    line: lineno + 1,
                    reason: format!("expected {} characters, got {}", ni + no, compact.len()),
                });
            }
            let (inp, outp) = compact.split_at(ni);
            let cube: Cube = inp.parse().map_err(|e| ParsePlaError::BadCube {
                line: lineno + 1,
                reason: format!("{e}"),
            })?;
            let mut on = 0u64;
            let mut dc = 0u64;
            for (o, ch) in outp.chars().enumerate() {
                match (pla_type, ch) {
                    (_, '1') | (PlaType::F, '4') => on |= 1 << o,
                    (PlaType::Fd, '-') | (PlaType::Fd, '~') | (PlaType::Fd, '2') => dc |= 1 << o,
                    (PlaType::Fr, '-') | (PlaType::Fr, '~') => {}
                    (_, '0') => {}
                    (_, '2') | (_, '-') | (_, '~') => {}
                    (_, bad) => {
                        return Err(ParsePlaError::BadCube {
                            line: lineno + 1,
                            reason: format!("bad output character {bad:?}"),
                        })
                    }
                }
            }
            terms.push((cube, on, dc));
        }

        let (ni, no) = match (ni, no) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(ParsePlaError::MissingHeader),
        };
        if ni > crate::cube::MAX_INPUTS || no > 64 {
            return Err(ParsePlaError::TooLarge);
        }
        let mut pla = Pla::new(ni, no);
        pla.pla_type = pla_type;
        pla.input_labels = input_labels;
        pla.output_labels = output_labels;
        for (c, on, dc) in terms {
            pla.push_term(c, on, dc & !on);
        }
        Ok(pla)
    }
}

fn parse_num(tok: Option<&str>, line: &str) -> Result<usize, ParsePlaError> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| ParsePlaError::BadDirective(line.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# two-output sample
.i 3
.o 2
.p 3
11- 10
0-1 1-
--0 01
.e
";

    #[test]
    fn parse_dimensions_and_terms() {
        let pla: Pla = SAMPLE.parse().unwrap();
        assert_eq!(pla.num_inputs(), 3);
        assert_eq!(pla.num_outputs(), 2);
        assert_eq!(pla.terms().len(), 3);
        // Second term: output 0 ON, output 1 DC.
        let (_, on, dc) = pla.terms()[1];
        assert_eq!(on, 0b01);
        assert_eq!(dc, 0b10);
    }

    #[test]
    fn on_and_dc_covers() {
        let pla: Pla = SAMPLE.parse().unwrap();
        assert_eq!(pla.on_cover(0).len(), 2);
        assert_eq!(pla.on_cover(1).len(), 1);
        assert_eq!(pla.dc_cover(1).len(), 1);
        assert_eq!(pla.dc_cover(0).len(), 0);
    }

    #[test]
    fn roundtrip_through_text() {
        let pla: Pla = SAMPLE.parse().unwrap();
        let text = pla.to_pla_string();
        let again: Pla = text.parse().unwrap();
        assert_eq!(pla, again);
    }

    #[test]
    fn fr_type_zero_is_off_not_dc() {
        let src = ".i 2\n.o 1\n.type fr\n11 1\n00 0\n.e\n";
        let pla: Pla = src.parse().unwrap();
        assert_eq!(pla.pla_type(), PlaType::Fr);
        assert_eq!(pla.dc_cover(0).len(), 0);
        assert_eq!(pla.on_cover(0).len(), 1);
    }

    #[test]
    fn errors_are_informative() {
        assert_eq!(
            "11 1".parse::<Pla>().unwrap_err(),
            ParsePlaError::MissingHeader
        );
        let bad = ".i 2\n.o 1\n111 1\n.e\n";
        assert!(matches!(
            bad.parse::<Pla>().unwrap_err(),
            ParsePlaError::BadCube { .. }
        ));
        let badtype = ".i 1\n.o 1\n.type xyz\n";
        assert!(matches!(
            badtype.parse::<Pla>().unwrap_err(),
            ParsePlaError::BadDirective(_)
        ));
    }

    #[test]
    fn output_functions_agree_with_covers() {
        let pla: Pla = SAMPLE.parse().unwrap();
        let mut mgr = Bdd::default();
        let fs = pla.output_functions(&mut mgr);
        assert_eq!(fs.len(), 2);
        for a in 0..8u64 {
            let bits: Vec<bool> = (0..3).map(|v| a >> v & 1 == 1).collect();
            assert_eq!(mgr.eval(fs[0].on, &bits), pla.on_cover(0).eval(a));
            assert_eq!(mgr.eval(fs[1].dc, &bits), pla.dc_cover(1).eval(a));
        }
    }

    #[test]
    fn labels_roundtrip() {
        let src = ".i 2\n.o 1\n.ilb a b\n.ob f\n11 1\n.e\n";
        let pla: Pla = src.parse().unwrap();
        assert_eq!(
            pla.input_labels(),
            Some(&["a".to_string(), "b".to_string()][..])
        );
        assert_eq!(pla.output_labels(), Some(&["f".to_string()][..]));
        let again: Pla = pla.to_pla_string().parse().unwrap();
        assert_eq!(pla, again);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let src = "# header\n\n.i 1\n.o 1\n# mid\n1 1\n.e\n";
        let pla: Pla = src.parse().unwrap();
        assert_eq!(pla.terms().len(), 1);
    }
}
