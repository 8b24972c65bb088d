//! Shared harness utilities for regenerating the paper's tables and
//! figures.
//!
//! One binary per experiment (see `DESIGN.md` → per-experiment index):
//!
//! | experiment | binary |
//! |---|---|
//! | §5 experiment 1 (easy cyclic aggregate) | `easy_cyclic` |
//! | Table 1 (difficult cyclic vs Espresso) | `table1` |
//! | Table 2 (challenging vs Espresso) | `table2` |
//! | Table 3 (difficult cyclic vs exact) | `table3` |
//! | Table 4 (challenging vs exact) | `table4` |
//! | Figure 1 (bound chain) | `figure1` |
//! | design-choice ablations | `ablation` |
//! | pooled restarts == serial (difficult cores, Paper) | `parallel` |
//!
//! Throughput, latency and per-layer costs are measured by the repository
//! benchmark under `ucpbench/`, not here.

use cover::CoverMatrix;
use solvers::{branch_and_bound, espresso_like, BnbOptions, EspressoMode};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use ucp_core::{Scg, ScgOptions, ScgOutcome, SolveRequest};
use ucp_telemetry::{JsonObj, JsonlSink};

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

/// Runs the exact branch-and-bound under a budget; returns the result.
pub fn run_exact(m: &CoverMatrix, node_limit: u64, time_limit: Duration) -> solvers::BnbResult {
    branch_and_bound(
        m,
        &BnbOptions {
            node_limit,
            time_limit: Some(time_limit),
            ..BnbOptions::default()
        },
    )
}

/// Machine-readable results writer for the table/figure binaries.
///
/// Each experiment gets `results/<name>.jsonl` (relative to the working
/// directory — the workspace root under `cargo run`), one schema-versioned
/// JSON line per instance, opened with a `bench_header` line naming the
/// experiment. Write errors are sticky inside the sink and surface from
/// [`BenchLog::finish`] — a bench run cannot silently produce a truncated
/// results file.
pub struct BenchLog {
    sink: JsonlSink<BufWriter<File>>,
    path: PathBuf,
}

impl BenchLog {
    /// Creates (or truncates) `results/<name>.jsonl`.
    pub fn create(name: &str) -> io::Result<BenchLog> {
        let dir = Path::new("results");
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.jsonl"));
        let file = File::create(&path)?;
        let mut sink = JsonlSink::new(BufWriter::new(file));
        sink.write_line("bench_header", |o| {
            o.field_str("bench", name);
        });
        Ok(BenchLog { sink, path })
    }

    /// The file this log writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one result row with the given event kind.
    pub fn row(&mut self, kind: &str, fill: impl FnOnce(&mut JsonObj)) {
        self.sink.write_line(kind, fill);
    }

    /// Flushes and reports where the results landed; propagates the first
    /// write error if any row was lost.
    pub fn finish(self) -> io::Result<PathBuf> {
        self.sink.finish()?;
        Ok(self.path)
    }
}

/// Convenience: finish a log and print where it wrote, aborting the bench
/// binary with a clear message when the results file could not be written.
pub fn finish_log(log: BenchLog) {
    match log.finish() {
        Ok(path) => eprintln!("results: {}", path.display()),
        Err(e) => {
            eprintln!("error: failed to write results file: {e}");
            std::process::exit(1);
        }
    }
}

/// Appends the standard `ZDD_SCG` outcome fields to a results row.
pub fn scg_fields(o: &mut JsonObj, out: &ScgOutcome) {
    o.field_f64("cost", out.cost);
    o.field_f64("lower_bound", out.lower_bound);
    o.field_bool("proven_optimal", out.proven_optimal);
    o.field_bool("infeasible", out.infeasible);
    o.field_u64("iterations", out.iterations as u64);
    o.field_u64("subgradient_iterations", out.subgradient_iterations as u64);
    o.field_u64("restart_workers", out.restart_workers as u64);
    o.field_f64("cc_seconds", out.cc_time.as_secs_f64());
    o.field_f64("total_seconds", out.total_time.as_secs_f64());
    o.field_u64("core_rows", out.core_rows as u64);
    o.field_u64("core_cols", out.core_cols as u64);
    o.field_raw("phase_times", &out.phase_times.to_json());
    o.field_u64("zdd_cache_hits", out.zdd_stats.cache_hits);
    o.field_u64("zdd_cache_misses", out.zdd_stats.cache_misses);
    o.field_u64("zdd_cache_evictions", out.zdd_stats.cache_evictions);
    o.field_u64("zdd_peak_nodes", out.zdd_stats.peak_nodes as u64);
    o.field_u64("zdd_live_nodes", out.zdd_stats.live_nodes as u64);
    o.field_u64("zdd_unique_relocations", out.zdd_stats.unique_relocations);
    o.field_u64("zdd_gc_runs", out.zdd_stats.gc_runs);
    o.field_u64("zdd_gc_reclaimed", out.zdd_stats.gc_reclaimed);
}

/// A minimal fixed-width table printer.
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

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
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
        assert!(lines[0].contains("Name"));
        assert!(lines[2].ends_with("121"));
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
        let exact = run_exact(&m, 10_000, Duration::from_secs(5));
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
