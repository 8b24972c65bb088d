//! `ucp-loadgen` — drives a running `ucp serve` instance with many
//! concurrent jobs over the `ucp-api/2` wire protocol and reports
//! sustained throughput and tail latency.
//!
//! ```text
//! ucp-loadgen <addr> [--jobs N] [--connections N] [--rows N]
//!             [--preset P] [--tenant T] [--trace-every K] [--json]
//! ```
//!
//! The same generator (`ucp_server::loadgen`) backs the CI server-smoke
//! step, so the numbers printed here are directly comparable to it.

use std::process::ExitCode;
use ucp_core::Preset;
use ucp_server::loadgen::{run, LoadgenOptions};
use ucp_telemetry::JsonObj;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }
    match parse(&args).and_then(|(addr, opts, json)| {
        let report = run(&addr, &opts).map_err(|e| format!("loadgen failed: {e}"))?;
        if json {
            let mut o = JsonObj::new();
            o.field_u64("submitted", report.submitted);
            o.field_u64("completed", report.completed);
            o.field_u64("failed", report.failed);
            o.field_u64("lost", report.lost);
            o.field_u64("rejected_429", report.rejected_429);
            o.field_u64("shed", report.shed);
            o.field_f64("elapsed_seconds", report.elapsed_seconds);
            o.field_f64("jobs_per_sec", report.jobs_per_sec);
            o.field_f64("p50_ms", report.p50_ms);
            o.field_f64("p99_ms", report.p99_ms);
            println!("{}", o.finish());
        } else {
            println!(
                "{} jobs in {:.3}s: {:.1} jobs/s, p50 {:.2}ms, p99 {:.2}ms",
                report.submitted,
                report.elapsed_seconds,
                report.jobs_per_sec,
                report.p50_ms,
                report.p99_ms
            );
            println!(
                "completed {}, failed {}, lost {}, 429s absorbed {}, shed {}",
                report.completed, report.failed, report.lost, report.rejected_429, report.shed
            );
        }
        if report.lost > 0 {
            return Err(format!("{} jobs lost (never turned terminal)", report.lost));
        }
        Ok(())
    }) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "usage: ucp-loadgen <addr> [--jobs N] [--connections N] [--rows N] \
         [--preset paper|fast|thorough] [--tenant T] [--trace-every K] [--json]"
    );
}

fn parse(args: &[String]) -> Result<(String, LoadgenOptions, bool), String> {
    let mut opts = LoadgenOptions::default();
    let mut addr: Option<String> = None;
    let mut json = false;
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => {
                opts.jobs = value(args, i, "--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                i += 2;
            }
            "--connections" => {
                opts.connections = value(args, i, "--connections")?
                    .parse()
                    .map_err(|e| format!("--connections: {e}"))?;
                i += 2;
            }
            "--rows" => {
                opts.rows = value(args, i, "--rows")?
                    .parse()
                    .map_err(|e| format!("--rows: {e}"))?;
                i += 2;
            }
            "--preset" => {
                opts.preset = value(args, i, "--preset")?.parse::<Preset>()?;
                i += 2;
            }
            "--tenant" => {
                opts.tenant = Some(value(args, i, "--tenant")?);
                i += 2;
            }
            "--trace-every" => {
                opts.trace_every = value(args, i, "--trace-every")?
                    .parse()
                    .map_err(|e| format!("--trace-every: {e}"))?;
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            positional => {
                if addr.replace(positional.to_string()).is_some() {
                    return Err("more than one server address given".into());
                }
                i += 1;
            }
        }
    }
    let addr = addr.ok_or("a server address is required (e.g. 127.0.0.1:7171)")?;
    Ok((addr, opts, json))
}
