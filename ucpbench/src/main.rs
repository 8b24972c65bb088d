//! `ucpbench` — the repository benchmark: one named workload, inputs made
//! from a seed, every answer checked, every metric printed by name and
//! unit.
//!
//! ```text
//! cargo run --release --manifest-path ucpbench/Cargo.toml -- \
//!     --workload cyclic-paper --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is the result: `{"correct": …,
//! "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) records spans around the benchmark's calls into each
//! layer and reports the per-layer metrics. The lines before it give the
//! run's provenance and details (phase tallies, self time per layer).

mod check;
mod cyclic;
mod outcome;
mod pla;
mod prom;
mod serve;
mod solve;
mod stats;
mod trace;

use outcome::{json_num, peak_rss_mb, scratch_dir, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;
use ucp_telemetry::{escape_json, JsonObj};

/// Solver-job stages must account for the job's wall time within this.
pub const STAGE_GAP_LIMIT_PCT: f64 = 5.0;

/// The seed kept out of tuning, for confirming a claimed gain.
const HELD_OUT_SEED: u64 = 9001;

const WORKLOADS: [&str; 3] = ["cyclic-paper", "pla-minimize", "serve-journaled"];

/// End-to-end metrics, reported by untraced runs: name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("total_cost", "cost"),
    ("total_lower_bound", "cost"),
    ("certified", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs; a layer a workload does not
/// reach reports 0.
const PER_LAYER: [(&str, &str); 32] = [
    ("zdd.cache_hit_rate", "ratio"),
    ("zdd.cache_lookups", "count"),
    ("zdd.unique_hit_rate", "ratio"),
    ("zdd.peak_nodes", "count"),
    ("zdd.gc_runs", "count"),
    ("zdd.gc_pause_s", "s"),
    ("logic.build_covering_s", "s"),
    ("logic.primes_s", "s"),
    ("cover.implicit_reduce_s", "s"),
    ("cover.explicit_reduce_s", "s"),
    ("cover.partition_s", "s"),
    ("cover.core_rows", "count"),
    ("cover.core_cols", "count"),
    ("core.subgradient_s", "s"),
    ("core.subgradient_iters", "count"),
    ("core.constructive_s", "s"),
    ("core.restarts", "count"),
    ("server.submit_rtt_p50_ms", "ms"),
    ("server.submit_rtt_p99_ms", "ms"),
    ("server.poll_rtt_p50_ms", "ms"),
    ("server.polls_per_job", "count"),
    ("server.rejected_frac", "ratio"),
    ("durability.fsyncs_per_job", "count"),
    ("durability.bytes_per_job", "B"),
    ("durability.append_p50_ms", "ms"),
    ("engine.queue_wait_p50_ms", "ms"),
    ("engine.queue_wait_p99_ms", "ms"),
    ("engine.run_p50_ms", "ms"),
    ("client.sender_lag_p99_ms", "ms"),
    ("job.latency_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.stage_gap_pct", "%"),
];

const USAGE: &str = "usage: ucpbench --workload <cyclic-paper|pla-minimize|serve-journaled> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "",
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                parsed.workload = WORKLOADS
                    .into_iter()
                    .find(|w| w == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// The repository root: the benchmark's package sits one level below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The checked-out commit, when the root is a git work tree.
fn git_commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and contents of every file under `crates/`, so
/// runs of the same code line up even where no git metadata exists.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let base = root.join("crates");
    let mut files = Vec::new();
    walk(&base, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let rel = path.strip_prefix(&base).unwrap_or(&path);
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args) -> String {
    let root = repo_root();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut o = JsonObj::new();
    o.field_str("workload", args.workload)
        .field_u64("seed", args.seed)
        .field_f64("seconds", args.seconds)
        .field_bool("trace", args.trace)
        .field_u64("nproc", nproc as u64)
        .field_str("cpu_model", &cpu_model())
        .field_str("git_commit", &git_commit(&root))
        .field_str("source_digest", &source_digest(&root))
        .field_u64("held_out_seed", HELD_OUT_SEED);
    o.finish()
}

/// The result line: every metric of the run's kind, in declared order.
fn result_line(outcome: &mut Outcome, trace: bool) -> String {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = JsonObj::new();
    for &(name, unit) in names {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            // A layer the workload never reaches did no work.
            None if trace => 0.0,
            other => {
                outcome.fail(format!("metric {name} not measured ({other:?})"));
                0.0
            }
        };
        let mut m = JsonObj::new();
        m.field_f64("value", value).field_str("unit", unit);
        metrics.field_raw(name, &m.finish());
    }
    let mut o = JsonObj::new();
    o.field_bool("correct", outcome.failed == 0)
        .field_u64("attempted", outcome.attempted.max(1))
        .field_u64("failed", outcome.failed)
        .field_raw("metrics", &metrics.finish());
    o.finish()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ucpbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let mut outcome = Outcome::default();
    let ran = match args.workload {
        "cyclic-paper" => {
            solve::run(
                || cyclic::inputs(args.seed),
                args.seconds,
                &mut tracer,
                &mut outcome,
            );
            Ok(())
        }
        "pla-minimize" => {
            solve::run(
                || pla::inputs(args.seed),
                args.seconds,
                &mut tracer,
                &mut outcome,
            );
            Ok(())
        }
        _ => serve::run(args.seed, args.seconds, &mut tracer, &mut outcome),
    };
    if let Err(e) = ran {
        eprintln!("ucpbench: {} could not run: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    outcome.set("peak_rss_mb", peak_rss_mb());
    if args.trace {
        let selfs: Vec<String> = tracer
            .self_times()
            .into_iter()
            .map(|(layer, s)| format!("\"{}\":{}", escape_json(layer), json_num(s)))
            .collect();
        outcome.detail("self_time_s", format!("{{{}}}", selfs.join(",")));
        let dir = scratch_dir();
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_jsonl(&path)) {
            Ok(()) => outcome.detail(
                "spans",
                format!("\"{}\"", escape_json(&path.to_string_lossy())),
            ),
            Err(e) => eprintln!("ucpbench: could not write spans to {}: {e}", path.display()),
        }
        outcome.detail_num("span_count", tracer.spans().len() as f64);
    }
    println!("provenance {}", provenance(&args));
    let result = result_line(&mut outcome, args.trace);
    let details: Vec<String> = outcome
        .details
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", escape_json(k)))
        .collect();
    println!("details {{{}}}", details.join(","));
    for f in &outcome.failures {
        eprintln!("ucpbench: check failed: {f}");
    }
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucp_telemetry::trace::{parse_json, JsonValue};

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload pla-minimize --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "pla-minimize",
                seed: 7,
                seconds: 20.0,
                trace: true
            }
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload cyclic-paper --trace 2").is_err());
        assert!(args("--workload cyclic-paper --seconds").is_err());
        assert!(args("--workload cyclic-paper --seconds -1").is_err());
    }

    /// The metric names, units and workloads declared in `BENCHMARK.json`
    /// are exactly the ones this program prints.
    #[test]
    fn benchmark_json_declares_what_is_printed() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let doc = parse_json(&text).unwrap();
        let pairs = |key: &str| -> Vec<(String, String)> {
            let Some(JsonValue::Arr(items)) = doc.get(key) else {
                panic!("{key} is not an array")
            };
            items
                .iter()
                .map(|m| {
                    let s = |k| match m.get(k) {
                        Some(JsonValue::Str(s)) => s.clone(),
                        _ => String::new(),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let mut declared = pairs("end_to_end");
        let mut printed = own(&END_TO_END);
        declared.sort();
        printed.sort();
        assert_eq!(declared, printed);
        assert_eq!(pairs("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = pairs("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn unreached_layers_report_zero_but_missing_end_to_end_metrics_fail() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        let line = result_line(&mut o, true);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0"));
        assert!(line.contains("\"zdd.gc_runs\":{\"value\":0,\"unit\":\"count\"}"));
        let line = result_line(&mut o, false);
        assert!(line.starts_with("{\"correct\":false"));
        assert_eq!(o.failed, END_TO_END.len() as u64);
    }
}
