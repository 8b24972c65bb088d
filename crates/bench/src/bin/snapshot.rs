//! `snapshot` — one-shot performance snapshot of the `ZDD_SCG` solver.
//!
//! Runs the difficult-cyclic suite and writes `results/BENCH_scg.json`, a
//! single JSON document with per-instance cost / lower bound / wall time /
//! phase breakdown plus aggregate totals — the file a CI job can archive or
//! diff to track solver performance over time. Each instance is also
//! solved at the Paper preset serially and on a restart pool, so the
//! snapshot carries a `parallel` speedup row (the two solves return the
//! identical answer by construction; the snapshot asserts it). That pair
//! runs at Paper even under `--quick`: Fast has one restart, so a Fast
//! pool would have nothing to parallelise.
//! A third pass re-runs the whole suite through the `ucp-engine` batch
//! scheduler at 1 and N workers and records an `engine` throughput row
//! (jobs/sec and batch speedup), again asserting identical outcomes.
//! A further `zdd_kernel` row times full implicit reductions over the
//! challenging suite — the manager-level regression signal CI greps for.
//! A `multicover` row solves the crew-scheduling set-multicover
//! mini-suite through the constrained core (coverage demands + GUB
//! groups), asserting every cover satisfies its constraints — the
//! regression signal for the non-unate path. A `durability` row solves
//! part of the suite plain and again with per-restart checkpoints
//! journaled (fsync included) to measure the write-ahead overhead a
//! `ucp serve --journal` job pays, asserting identical answers and a
//! lossless replay round trip. Finally a `server` row
//! starts an in-process `ucp-server` on an ephemeral port and pushes a
//! load-generator burst through the whole `ucp-api/2` wire path (HTTP
//! parse → DTO → admission → engine → poll), recording jobs/sec and
//! p50/p99 submit→terminal latency; the pass asserts that no accepted
//! job is ever lost.
//!
//! Usage: `cargo run -p ucp-bench --release --bin snapshot [--quick]
//! [--node-budget N]` — the budget applies to the `zdd_kernel` pass only
//! and switches it to the fallible governed entry points, recording how
//! many instances overflowed.

use std::fs;
use std::sync::Arc;
use std::time::Instant;
use ucp_bench::{run_scg, scg_fields};
use ucp_core::{Preset, Scg, ScgOptions, ScgOutcome, SolveRequest};
use ucp_engine::{Engine, EngineConfig};
use ucp_telemetry::{JsonObj, Phase};
use workloads::suite;

/// The commit the snapshot was taken at, so archived `BENCH_scg.json`
/// files can be lined up against history. `"unknown"` outside a git
/// checkout (e.g. a source tarball).
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs every instance as one engine job; returns outcomes in
/// submission order plus the batch wall time.
fn engine_pass(
    instances: &[Arc<cover::CoverMatrix>],
    opts: ScgOptions,
    workers: usize,
) -> (Vec<ScgOutcome>, f64) {
    let engine = Engine::start(EngineConfig {
        workers,
        queue_capacity: instances.len().max(1),
    });
    let start = Instant::now();
    let jobs: Vec<_> = instances
        .iter()
        .map(|m| {
            engine
                .submit(SolveRequest::for_shared(Arc::clone(m)).options(opts))
                .expect("engine accepts the suite")
        })
        .collect();
    let outs: Vec<ScgOutcome> = jobs
        .into_iter()
        .map(|j| j.wait().expect("engine job completed"))
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    engine.shutdown();
    (outs, elapsed)
}

/// Kernel microbench: full implicit reduction (`reduce()`, no MaxR/MaxC
/// early exit) over the challenging suite. This is the row CI
/// smoke-checks for — it tracks the ZDD manager itself (unique-table
/// probing, computed-cache hit rate, GC) independent of the subgradient
/// heuristic. With `--node-budget N` the pass runs on a capped kernel
/// via the fallible entry points, recording how many instances
/// overflowed — the governed-mode smoke signal.
fn kernel_pass(quick: bool, node_budget: Option<usize>) -> String {
    let mut insts = suite::challenging();
    if quick {
        insts.truncate(4);
    }
    let mut stats = cover::ZddStats::default();
    let mut overflowed = 0u64;
    let start = Instant::now();
    for inst in &insts {
        match node_budget {
            // The unbudgeted pass is the historical benchmark workload:
            // keep it byte-identical so snapshots stay comparable.
            None => {
                let mut im = cover::ImplicitMatrix::encode(&inst.matrix);
                let _fixed = im.reduce();
                stats.merge(&im.zdd_stats());
            }
            Some(n) => {
                let kernel = cover::ZddOptions::new().node_budget(n);
                match cover::ImplicitMatrix::try_encode_with(&inst.matrix, kernel) {
                    Ok(mut im) => {
                        if im
                            .try_reduce_until_small(0, 0, &cover::Halt::none())
                            .is_err()
                        {
                            overflowed += 1;
                        }
                        stats.merge(&im.zdd_stats());
                    }
                    Err(_) => overflowed += 1,
                }
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let mut row = JsonObj::new();
    row.field_str("suite", "challenging");
    row.field_u64("instances", insts.len() as u64);
    row.field_f64("implicit_reduce_seconds", secs);
    row.field_f64("cache_hit_rate", stats.cache_hit_rate());
    row.field_f64("unique_hit_rate", stats.unique_hit_rate());
    row.field_u64("peak_live_nodes", stats.peak_nodes as u64);
    row.field_u64("gc_runs", stats.gc_runs);
    row.field_u64("gc_reclaimed", stats.gc_reclaimed);
    if let Some(n) = node_budget {
        row.field_u64("node_budget", n as u64);
        row.field_u64("overflowed", overflowed);
    }
    println!(
        "zdd_kernel: {secs:.3}s implicit reduce over {} instances, cache {:.2}% hit, unique {:.2}% hit, peak {} nodes{}",
        insts.len(),
        100.0 * stats.cache_hit_rate(),
        100.0 * stats.unique_hit_rate(),
        stats.peak_nodes,
        match node_budget {
            Some(n) => format!(", budget {n} ({overflowed} overflowed)"),
            None => String::new(),
        }
    );
    row.finish()
}

/// Constrained-core pass: the crew-scheduling set-multicover mini-suite
/// (per-period staffing demands plus one GUB group per crew) through the
/// full constrained solver. Every instance is feasible by construction,
/// so the pass asserts a finite cover that satisfies its constraints
/// with `lower_bound ≤ cost` — the regression signal for the non-unate
/// path, which the unate rows above never touch.
fn multicover_pass(opts: ScgOptions) -> String {
    let insts = suite::multicover();
    let start = Instant::now();
    let mut total_cost = 0.0f64;
    let mut total_lb = 0.0f64;
    for (name, inst) in &insts {
        let req = SolveRequest::for_matrix(&inst.matrix)
            .options(opts)
            .constraints(inst.constraints.clone());
        let out = Scg::run(req).expect("multicover suite instances solve");
        assert!(
            out.cost.is_finite(),
            "{name}: no cover found for a feasible-by-construction instance"
        );
        assert!(
            inst.constraints.is_satisfied(&inst.matrix, &out.solution),
            "{name}: returned cover violates its constraints"
        );
        assert!(
            out.lower_bound <= out.cost + 1e-9,
            "{name}: lower bound {} exceeds cost {}",
            out.lower_bound,
            out.cost
        );
        total_cost += out.cost;
        total_lb += out.lower_bound;
    }
    let secs = start.elapsed().as_secs_f64();
    let mut row = JsonObj::new();
    row.field_str("suite", "multicover");
    row.field_u64("instances", insts.len() as u64);
    row.field_f64("total_seconds", secs);
    row.field_f64("total_cost", total_cost);
    row.field_f64("total_lower_bound", total_lb);
    println!(
        "multicover: {} crew-schedule instances in {secs:.3}s, total cost {total_cost}, total lb {total_lb:.2}",
        insts.len()
    );
    row.finish()
}

/// Durability overhead: the difficult suite solved plain and then with
/// per-restart checkpoints journaled (with fsync) to a scratch journal —
/// the write-ahead path a `ucp serve --journal` job rides. Outcomes must
/// be identical (the checkpoint tap only observes), the journal must
/// replay to exactly the records written, and the newest checkpoint of
/// every instance must resume to a cost no worse than the plain answer.
fn durability_pass(opts: ScgOptions) -> String {
    use ucp_durability::{read_journal, Journal, Record, RecoverySet};
    let mut insts = suite::difficult_cyclic();
    insts.truncate(4);
    let dir = std::env::temp_dir().join(format!("ucp-bench-durability-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let journal = Journal::open(&dir).expect("open scratch journal").journal;

    let mut plain_seconds = 0.0f64;
    let mut journaled_seconds = 0.0f64;
    let mut checkpoints = 0u64;
    for (i, inst) in insts.iter().enumerate() {
        let start = Instant::now();
        let plain =
            Scg::run(SolveRequest::for_matrix(&inst.matrix).options(opts)).expect("plain solve");
        plain_seconds += start.elapsed().as_secs_f64();

        let journal_ref = &journal;
        let start = Instant::now();
        let journaled = Scg::run(
            SolveRequest::for_matrix(&inst.matrix)
                .options(opts)
                .checkpoint_every(1)
                .checkpoint_sink(move |ckpt| {
                    journal_ref
                        .append(&Record::Checkpoint {
                            job: i as u64,
                            t_ms: 0,
                            ckpt: ckpt.clone(),
                        })
                        .expect("journal append");
                }),
        )
        .expect("journaled solve");
        journaled_seconds += start.elapsed().as_secs_f64();
        assert_eq!(
            (plain.cost, plain.solution.cols()),
            (journaled.cost, journaled.solution.cols()),
            "{}: journaled solve diverged from plain",
            inst.name
        );

        // Round trip: the newest journaled checkpoint resumes to a cost
        // no worse than the uninterrupted answer.
        let replay = read_journal(&dir).expect("replay scratch journal");
        let set = RecoverySet::from_records(&replay.records);
        let newest = set.jobs[&(i as u64)]
            .checkpoint
            .clone()
            .expect("solve journaled at least one checkpoint");
        let resumed = Scg::run(
            SolveRequest::for_matrix(&inst.matrix)
                .options(opts)
                .resume_from(newest),
        )
        .expect("resumed solve");
        assert!(
            resumed.cost <= plain.cost,
            "{}: resume lost ground ({} > {})",
            inst.name,
            resumed.cost,
            plain.cost
        );
    }
    let replay = read_journal(&dir).expect("replay scratch journal");
    for r in &replay.records {
        assert!(matches!(r, Record::Checkpoint { .. }));
        checkpoints += 1;
    }
    assert_eq!(replay.torn_bytes, 0, "append path wrote a torn frame");
    let journal_bytes = replay.valid_bytes;
    let _ = fs::remove_dir_all(&dir);

    let overhead_pct = if plain_seconds > 0.0 {
        100.0 * (journaled_seconds - plain_seconds) / plain_seconds
    } else {
        0.0
    };
    let mut row = JsonObj::new();
    row.field_u64("instances", insts.len() as u64);
    row.field_f64("plain_seconds", plain_seconds);
    row.field_f64("journaled_seconds", journaled_seconds);
    row.field_f64("overhead_pct", overhead_pct);
    row.field_u64("checkpoints", checkpoints);
    row.field_u64("journal_bytes", journal_bytes);
    println!(
        "durability: {} instances, plain {plain_seconds:.3}s vs journaled {journaled_seconds:.3}s \
         ({overhead_pct:+.2}% overhead), {checkpoints} checkpoints / {journal_bytes} journal bytes",
        insts.len()
    );
    row.finish()
}

/// Wire-path throughput: an in-process server on an ephemeral port,
/// saturated by the shared load generator (the same one behind
/// `ucp-loadgen` and the CI smoke). Zero lost handles is asserted, not
/// just reported — a dropped job is a bug, not a slow run.
fn server_pass(quick: bool) -> String {
    let jobs = if quick { 200 } else { 2000 };
    let server = ucp_server::Server::start(ucp_server::ServerConfig {
        queue_capacity: 1024,
        ..ucp_server::ServerConfig::default()
    })
    .expect("server binds an ephemeral port");
    let opts = ucp_server::LoadgenOptions {
        jobs,
        connections: 8,
        ..ucp_server::LoadgenOptions::default()
    };
    let report =
        ucp_server::loadgen::run(&server.addr().to_string(), &opts).expect("loadgen run completes");
    assert_eq!(report.lost, 0, "server lost job handles: {report:?}");
    assert_eq!(
        report.completed + report.failed,
        jobs as u64,
        "not every job turned terminal: {report:?}"
    );
    server.shutdown();
    let mut row = JsonObj::new();
    row.field_u64("jobs", report.submitted);
    row.field_u64("connections", opts.connections as u64);
    row.field_u64("completed", report.completed);
    row.field_u64("rejected_429", report.rejected_429);
    row.field_u64("shed", report.shed);
    row.field_f64("jobs_per_sec", report.jobs_per_sec);
    row.field_f64("p50_ms", report.p50_ms);
    row.field_f64("p99_ms", report.p99_ms);
    println!(
        "server: {} jobs over {} connections, {:.1} jobs/s, p50 {:.2}ms, p99 {:.2}ms ({} shed, {} 429s absorbed)",
        report.submitted,
        opts.connections,
        report.jobs_per_sec,
        report.p50_ms,
        report.p99_ms,
        report.shed,
        report.rejected_429
    );
    row.finish()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let node_budget = args.iter().position(|a| a == "--node-budget").map(|i| {
        args.get(i + 1)
            .and_then(|n| n.parse::<usize>().ok())
            .expect("--node-budget needs a node count")
    });
    let opts = if quick {
        Preset::Fast.options()
    } else {
        ScgOptions::default()
    };
    // The `parallel` row's pair (see the module docs).
    let paper = Preset::Paper.options();
    // At least 2 so the pooled path is exercised even on one-core boxes
    // (where the speedup honestly reports ~1.0).
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(2, 8);
    let mut runs: Vec<String> = Vec::new();
    let mut total_seconds = 0.0f64;
    let mut paper_serial_seconds = 0.0f64;
    let mut parallel_seconds = 0.0f64;
    let mut subgradient_seconds = 0.0f64;
    let mut subgradient_iters = 0u64;
    let mut certified = 0usize;
    let mut serial_outcomes: Vec<ScgOutcome> = Vec::new();
    let instances = suite::difficult_cyclic();
    for inst in &instances {
        let out = run_scg(&inst.matrix, opts);
        let serial = if quick {
            run_scg(&inst.matrix, paper)
        } else {
            out.clone()
        };
        let par = run_scg(&inst.matrix, ScgOptions { workers, ..paper });
        assert_eq!(
            (serial.cost, serial.solution.cols(), serial.iterations),
            (par.cost, par.solution.cols(), par.iterations),
            "{}: pooled solve diverged from serial",
            inst.name
        );
        total_seconds += out.total_time.as_secs_f64();
        paper_serial_seconds += serial.total_time.as_secs_f64();
        parallel_seconds += par.total_time.as_secs_f64();
        subgradient_seconds += out.phase_times.get(Phase::Subgradient);
        subgradient_iters += out.subgradient_iterations as u64;
        if out.proven_optimal {
            certified += 1;
        }
        let mut o = JsonObj::new();
        o.field_str("instance", &inst.name);
        o.field_u64("rows", inst.matrix.num_rows() as u64);
        o.field_u64("cols", inst.matrix.num_cols() as u64);
        scg_fields(&mut o, &out);
        o.field_f64("parallel_seconds", par.total_time.as_secs_f64());
        runs.push(o.finish());
        println!(
            "{:>10}  cost {:>6}  lb {:>8.2}  {:>7.3}s  (paper: {:>7.3}s serial, {:>7.3}s with {workers} workers)",
            inst.name,
            out.cost,
            out.lower_bound,
            out.total_time.as_secs_f64(),
            serial.total_time.as_secs_f64(),
            par.total_time.as_secs_f64()
        );
        serial_outcomes.push(out);
    }
    let speedup = if parallel_seconds > 0.0 {
        paper_serial_seconds / parallel_seconds
    } else {
        1.0
    };

    // Engine throughput: the same suite as a batch of jobs, once on a
    // single engine worker and once on the full pool. Outcomes must
    // match the serial loop exactly — the batch determinism contract.
    let shared: Vec<Arc<cover::CoverMatrix>> = instances
        .iter()
        .map(|i| Arc::new(i.matrix.clone()))
        .collect();
    let (engine_serial, secs_1w) = engine_pass(&shared, opts, 1);
    let (engine_pooled, secs_nw) = engine_pass(&shared, opts, workers);
    for (i, inst) in instances.iter().enumerate() {
        for outs in [&engine_serial, &engine_pooled] {
            assert_eq!(
                (serial_outcomes[i].cost, serial_outcomes[i].solution.cols()),
                (outs[i].cost, outs[i].solution.cols()),
                "{}: engine batch diverged from serial",
                inst.name
            );
        }
    }
    let jobs = instances.len() as f64;
    let (jps_1w, jps_nw) = (jobs / secs_1w.max(1e-9), jobs / secs_nw.max(1e-9));
    let engine_speedup = if secs_nw > 0.0 {
        secs_1w / secs_nw
    } else {
        1.0
    };
    let mut doc = JsonObj::new();
    doc.field_str("schema", "ucp-bench-snapshot/6");
    doc.field_u64("schema_version", 6);
    doc.field_str("git_commit", &git_commit());
    doc.field_str("preset", if quick { "fast" } else { "default" });
    doc.field_u64("instances", runs.len() as u64);
    doc.field_u64("certified_optimal", certified as u64);
    doc.field_f64("total_seconds", total_seconds);
    // The CI perf-smoke row: CPU seconds inside the subgradient phase of
    // the serial pass (summed over all ascents), plus the iteration count
    // that contextualises it.
    let mut sub_row = JsonObj::new();
    sub_row.field_f64("phase_seconds", subgradient_seconds);
    sub_row.field_u64("iterations", subgradient_iters);
    doc.field_raw("subgradient", &sub_row.finish());
    let mut par_row = JsonObj::new();
    par_row.field_str("preset", "paper");
    par_row.field_u64("workers", workers as u64);
    par_row.field_f64("serial_seconds", paper_serial_seconds);
    par_row.field_f64("total_seconds", parallel_seconds);
    par_row.field_f64("speedup", speedup);
    doc.field_raw("parallel", &par_row.finish());
    let mut eng_row = JsonObj::new();
    eng_row.field_u64("workers", workers as u64);
    eng_row.field_f64("jobs_per_sec_1_worker", jps_1w);
    eng_row.field_f64("jobs_per_sec_pooled", jps_nw);
    eng_row.field_f64("batch_speedup", engine_speedup);
    doc.field_raw("engine", &eng_row.finish());
    doc.field_raw("zdd_kernel", &kernel_pass(quick, node_budget));
    doc.field_raw("multicover", &multicover_pass(opts));
    doc.field_raw("durability", &durability_pass(opts));
    doc.field_raw("server", &server_pass(quick));
    doc.field_raw("runs", &format!("[{}]", runs.join(",")));
    fs::create_dir_all("results").expect("create results/");
    fs::write("results/BENCH_scg.json", doc.finish() + "\n").expect("write results/BENCH_scg.json");
    println!(
        "snapshot: {} instances, {certified} certified optimal, {total_seconds:.2}s serial; paper preset {paper_serial_seconds:.2}s serial / {parallel_seconds:.2}s with {workers} workers ({speedup:.2}x) -> results/BENCH_scg.json",
        runs.len()
    );
    println!("subgradient: {subgradient_seconds:.3}s in phase over {subgradient_iters} iterations");
    println!(
        "engine: {jps_1w:.2} jobs/s at 1 worker, {jps_nw:.2} jobs/s at {workers} workers ({engine_speedup:.2}x batch speedup)"
    );
}
