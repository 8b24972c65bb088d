//! Shared harness for the `paper` binary, which regenerates the paper's
//! tables and figures and records their answers in the committed root
//! `PAPER_RESULTS.jsonl` (see `DESIGN.md` → per-experiment index):
//!
//! | experiment | `paper` argument |
//! |---|---|
//! | Figure 1 (bound chain) | `figure1` |
//! | §5 experiment 1 (easy cyclic aggregate) | `easy_cyclic` |
//! | Table 1 (difficult cyclic vs Espresso) | `table1` |
//! | Table 2 (challenging vs Espresso) | `table2` |
//! | Table 3 (difficult cyclic vs exact) | `table3` |
//! | Table 4 (challenging vs exact) | `table4` |
//! | §3.4 bound sweep (Proposition 1) | `bounds_sweep` |
//! | design-choice ablations | `ablation` |
//! | §3.2 subgradient convergence | `convergence` |
//! | classic Berkeley functions | `classic` |
//!
//! The `parallel` binary checks that pooled restarts return the serial
//! answer on the difficult cores. Throughput, latency and per-layer costs
//! are measured by the repository benchmark under `ucpbench/`, not here.

use cover::CoverMatrix;
use solvers::{branch_and_bound, espresso_like, BnbOptions, EspressoMode};
use std::fmt;
use std::time::{Duration, Instant};
use ucp_core::{Scg, ScgOptions, ScgOutcome, SolveRequest};
use ucp_telemetry::JsonObj;

/// The exact solver's budget in branch-and-bound nodes, the same for every
/// experiment. There is no wall-clock limit, so where a truncated search
/// stops (and its `H` incumbent) does not depend on the machine.
pub const EXACT_NODES: u64 = 300_000;

/// Formats seconds with two decimals (the tables' `T(s)` style).
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Runs `ZDD_SCG` with the given options and returns the outcome.
pub fn run_scg(m: &CoverMatrix, opts: ScgOptions) -> ScgOutcome {
    Scg::run(SolveRequest::for_matrix(m).options(opts)).expect("no cancel flag")
}

/// The espresso-like baseline produced no cover (some row is uncoverable).
#[derive(Clone, Copy, Debug)]
pub struct EspressoFailed;

impl fmt::Display for EspressoFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("espresso-like baseline found no cover (instance infeasible?)")
    }
}

impl std::error::Error for EspressoFailed {}

/// Runs the espresso-like baseline; returns `(cost, wall time)`.
///
/// # Errors
///
/// Fails when the baseline cannot build a cover at all. Earlier versions
/// folded that case into a silent `f64::INFINITY` cost, which made a broken
/// baseline look like a (spectacularly bad) result in the tables; callers
/// must now surface it.
pub fn run_espresso(
    m: &CoverMatrix,
    mode: EspressoMode,
) -> Result<(f64, Duration), EspressoFailed> {
    let t = Instant::now();
    let solution = espresso_like(m, mode).ok_or(EspressoFailed)?;
    Ok((solution.cost(m), t.elapsed()))
}

/// Runs the exact branch-and-bound for at most [`EXACT_NODES`] nodes.
pub fn run_exact(m: &CoverMatrix) -> solvers::BnbResult {
    branch_and_bound(
        m,
        &BnbOptions {
            node_limit: EXACT_NODES,
            time_limit: None,
            ..BnbOptions::default()
        },
    )
}

/// A table printed as aligned Markdown.
///
/// Columns whose header ends in `(s)` hold wall-clock seconds: they are
/// printed but left out of [`Table::jsonl`], which records answers only.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders as a Markdown table with right-aligned, padded columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(&widths) {
                line.push_str(&format!(" {c:>w$} |"));
            }
            line + "\n"
        };
        let mut out = fmt_row(&self.header);
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}:|", "-".repeat(w + 1)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// One JSON object per row, `{"experiment":…}` first, then every
    /// column but the `(s)` timings, keyed by header, valued as printed.
    pub fn jsonl<'a>(&'a self, experiment: &'a str) -> impl Iterator<Item = String> + 'a {
        self.rows.iter().map(move |row| {
            let mut o = JsonObj::new();
            o.field_str("experiment", experiment);
            for (h, c) in self.header.iter().zip(row) {
                if !h.ends_with("(s)") {
                    o.field_str(h, c);
                }
            }
            o.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(["Name", "Sol"]);
        t.row(["bench1", "121"]);
        t.row(["x", "9"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "|   Name | Sol |");
        assert_eq!(lines[1], "|-------:|----:|");
        assert_eq!(lines[2], "| bench1 | 121 |");
        assert_eq!(lines[3], "|      x |   9 |");
    }

    #[test]
    fn jsonl_records_answers_not_timings() {
        let mut t = Table::new(["Name", "Sol", "T(s)"]);
        t.row(["bench1", "32*", "0.18"]);
        let lines: Vec<String> = t.jsonl("table1").collect();
        assert_eq!(
            lines,
            [r#"{"experiment":"table1","Name":"bench1","Sol":"32*"}"#]
        );
    }

    #[test]
    fn harness_wrappers_run() {
        let m = CoverMatrix::from_rows(
            5,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
        );
        let scg = run_scg(&m, ucp_core::Preset::Fast.options());
        assert_eq!(scg.cost, 3.0);
        let (e, _) = run_espresso(&m, EspressoMode::Normal).expect("feasible instance");
        assert!(e >= 3.0);
        let exact = run_exact(&m);
        assert!(exact.optimal);
        assert_eq!(exact.cost, 3.0);
    }

    #[test]
    fn espresso_failure_is_surfaced() {
        // An uncoverable row must be an error, not a silent infinite cost.
        let m = CoverMatrix::from_rows(1, vec![vec![]]);
        assert!(run_espresso(&m, EspressoMode::Normal).is_err());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }
}
