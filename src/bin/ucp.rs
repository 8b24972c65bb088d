//! `ucp` — command-line front end to the covering solver suite.
//!
//! ```text
//! ucp minimize <file.pla> [-o out.pla] [--exact]   two-level minimisation
//! ucp solve <instance> [--exact] [--preset P] [-j N|--workers N] [--coverage B]
//!           [--gub cols:bound]… [--trace <path>] [--stats] [--metrics <path>]
//! ucp batch <suite> [-j N] [--preset P] [--seed S] [--coverage B]
//! ucp serve [--addr A] [-j N] [--queue-cap N] [--journal <dir>]
//! ucp journal <dir>                                summarise a job journal
//! ucp trace <file.jsonl> [--folded <out>]          profile a recorded trace
//! ucp bounds <file.ucp>                            print the bound chain
//! ucp suite [easy|difficult|challenging]           describe the benchmark suite
//! ```
//!
//! `<instance>` is a matrix file in the `p ucp R C` text format (see
//! `cover::ParseMatrixError` docs) or the name of a built-in suite instance
//! (see `ucp suite`); PLA files use the Berkeley format. The `solve`
//! subcommand may be omitted: `ucp --trace out.jsonl file.ucp` solves.
//!
//! `--preset <paper|fast|thorough>` picks a named option set (the paper's
//! published parameters by default — see `ucp_core::Preset`).
//!
//! `--trace <path>` streams the solver's telemetry events (phase begin/end,
//! per-iteration subgradient state, penalty eliminations, column fixes,
//! restarts) as schema-versioned JSON lines; `--stats` prints the phase
//! breakdown after the solve; `--metrics <path>` writes the solve's metric
//! families (solver counters, per-phase latency histograms) in Prometheus
//! text exposition format (`-` = stdout).
//!
//! `ucp trace <file.jsonl>` profiles a recorded trace offline: event-kind
//! counts, the per-phase wall-clock breakdown, subgradient convergence
//! statistics (ascents, exact iteration counts even for sampled traces,
//! first/final bounds) and the solve's result line. `--folded <out>`
//! additionally writes folded-stack lines (`solve;subgradient 123456`)
//! consumable by standard flamegraph tooling.
//!
//! `-j N` / `--workers N` runs the constructive restarts (or the
//! disconnected partition blocks) on `min(N, restarts)` threads, whatever
//! the instance's size. The default, `-j 0`, uses the cores no other solve
//! in the process holds — all of them for a lone `ucp solve`. The answer is
//! identical for every `N` — only the wall clock changes. Traces and
//! checkpoints stay complete: restart events carry a `worker` tag and are
//! merged in restart order, and phase seconds stay wall-clock seconds.
//!
//! `ucp batch <easy|difficult|challenging|all>` runs every instance of a
//! suite as one job each through the `ucp_engine` worker pool: `-j N` sets
//! the number of *engine workers* (concurrent solves), each job prints a
//! live completion line, and the footer reports throughput. Per-job results
//! are identical to a serial `solve` loop for every `-j`.
//!
//! `ucp serve` turns the engine into a long-lived solve service speaking
//! the versioned `ucp-api/2` wire protocol: `POST /v1/jobs` submits a
//! matrix + `JobSpec` and returns a job id, `GET /v1/jobs/{id}` polls,
//! `DELETE` cancels, `GET /v1/jobs/{id}/trace` streams the live
//! `ucp-trace/1` JSONL and `GET /metrics` serves the Prometheus
//! exposition. `--addr` sets the bind address (default
//! `127.0.0.1:7171`, port `0` picks one), `-j N` the engine workers and
//! `--queue-cap N` the admission queue. See the README's "Serving"
//! section for the wire format and the error-code taxonomy.
//!
//! `--journal <dir>` makes the service durable: every accepted job is
//! recorded in a write-ahead journal under `<dir>` before it is
//! acknowledged, solver checkpoints and terminal verdicts follow, and a
//! restart after a crash replays the journal — resolved jobs stay
//! pollable at their original ids and unresolved ones are re-enqueued,
//! resuming from their newest checkpoint. `ucp journal <dir>` prints a
//! human-readable summary of such a journal (it shares the replay
//! parser with recovery, so what it reports is what a restart would
//! do). See the README's "Durability" section.
//!
//! `--coverage B` demands `B` distinct covering columns per row (set
//! multicover); a comma list (`2,1,3,…`) sets one demand per row.
//! `--gub c1,c2,…:k` (repeatable) bounds a disjoint column group at `k`
//! selections. Either flag switches the solve to the multicover driver;
//! neither is compatible with `--exact`.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use ucp::cover::CoverMatrix;
use ucp::logic::{build_covering, Pla};
use ucp::lp::DenseLp;
use ucp::solvers::{branch_and_bound, BnbOptions};
use ucp::ucp_core::bounds::bounds_report;
use ucp::ucp_core::wire::JobSpec;
use ucp::ucp_core::{GubGroup, Preset, Scg, ScgOutcome, SolveMetrics, SolveRequest};
use ucp::ucp_engine::{Engine, EngineConfig, JobError};
use ucp::ucp_metrics::Registry;
use ucp::ucp_server::{Server, ServerConfig};
use ucp::ucp_telemetry::{folded_stacks, parse_trace, JsonlSink, TraceSummary};
use ucp::workloads::suite;

fn main() -> ExitCode {
    // Failpoints are compiled out of release builds; in failpoint builds
    // this arms whatever UCP_FAILPOINTS requests (the kill harness).
    ucp::ucp_failpoints::arm_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("minimize") => cmd_minimize(&args[1..]),
        Some("solve") => cmd_solve(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("journal") => cmd_journal(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("bounds") => cmd_bounds(&args[1..]),
        Some("suite") => cmd_suite(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("classic") => cmd_classic(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print_usage(&mut std::io::stdout().lock());
            return ExitCode::SUCCESS;
        }
        // Anything else that still carries arguments is an implicit `solve`
        // (so `ucp --trace out.jsonl instance.ucp` works as documented).
        Some(_) => cmd_solve(&args),
        None => Err(usage("no command given")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // One error path for everything: argument mistakes print the usage
        // hint and exit 2; runtime failures exit 1.
        Err(e) if e.is::<UsageError>() => {
            eprintln!("error: {e}");
            eprintln!();
            print_usage(&mut std::io::stderr().lock());
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage(w: &mut dyn Write) {
    let _ = writeln!(
        w,
        "usage: ucp <minimize|solve|batch|serve|journal|trace|bounds|suite> …"
    );
    let _ = writeln!(w, "  minimize <file.pla> [-o out.pla] [--exact]");
    let _ = writeln!(
        w,
        "  solve    <instance> [--exact] [--preset P] [-j N|--workers N] [--coverage B] \
         [--gub cols:bound]… [--trace <path>] [--stats] [--metrics <path>]"
    );
    let _ = writeln!(
        w,
        "  batch    <easy|difficult|challenging|all> [-j N] [--preset P] [--seed S] \
         [--coverage B]"
    );
    let _ = writeln!(
        w,
        "  serve    [--addr host:port] [-j N|--workers N] [--queue-cap N] [--journal <dir>]"
    );
    let _ = writeln!(w, "  journal  <dir>");
    let _ = writeln!(w, "  trace    <file.jsonl> [--folded <out>]");
    let _ = writeln!(w, "  bounds   <file.ucp>");
    let _ = writeln!(w, "  suite    [easy|difficult|challenging]");
    let _ = writeln!(w, "  generate <instance-name> [-o out.ucp]");
    let _ = writeln!(
        w,
        "  classic  <rd53|rd73|rd84|9sym|xor5|maj5|maj7> [-o out.pla]"
    );
    let _ = writeln!(w, "  help");
    let _ = writeln!(w, "presets: paper (default), fast, thorough");
    let _ = writeln!(
        w,
        "-j: solve restart threads (default 0 = idle cores); batch/serve engine workers \
         (default 0 = one per core)"
    );
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// An argument mistake, as opposed to a runtime failure. `main`
/// downcasts to pick the exit code and whether to print the usage hint.
#[derive(Debug)]
struct UsageError(String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

fn usage(msg: impl Into<String>) -> Box<dyn std::error::Error> {
    Box::new(UsageError(msg.into()))
}

/// Parses `--preset <name>`, defaulting to the paper's parameters.
fn parse_preset(args: &[String]) -> Result<Preset, Box<dyn std::error::Error>> {
    match args.iter().position(|a| a == "--preset") {
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| usage("--preset needs a name (paper, fast or thorough)"))?
            .parse::<Preset>()
            .map_err(usage),
        None => Ok(Preset::Paper),
    }
}

/// Parses `-j N` / `--workers N` (`0` = sized to the cores), defaulting to
/// `default`.
fn parse_workers(args: &[String], default: usize) -> Result<usize, Box<dyn std::error::Error>> {
    match args.iter().position(|a| a == "-j" || a == "--workers") {
        Some(i) => args
            .get(i + 1)
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(|| usage("-j/--workers needs a thread count (0 = sized to the cores)")),
        None => Ok(default),
    }
}

/// `--coverage B`: uniform per-row demand, or one demand per row as a
/// comma list.
enum CoverageArg {
    Uniform(u32),
    PerRow(Vec<u32>),
}

impl CoverageArg {
    /// The explicit per-row vector for an instance with `rows` rows.
    fn for_rows(&self, rows: usize) -> Vec<u32> {
        match self {
            CoverageArg::Uniform(b) => vec![*b; rows],
            CoverageArg::PerRow(v) => v.clone(),
        }
    }
}

/// Parses `--coverage <B | b1,b2,…>` (set-multicover demand).
fn parse_coverage(args: &[String]) -> Result<Option<CoverageArg>, Box<dyn std::error::Error>> {
    let Some(i) = args.iter().position(|a| a == "--coverage") else {
        return Ok(None);
    };
    let v = args
        .get(i + 1)
        .filter(|p| !p.starts_with("--"))
        .ok_or_else(|| usage("--coverage needs a demand (an integer or a comma list)"))?;
    let parts = v
        .split(',')
        .map(|s| s.trim().parse::<u32>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| usage("--coverage entries must be unsigned integers"))?;
    Ok(Some(if v.contains(',') {
        CoverageArg::PerRow(parts)
    } else {
        CoverageArg::Uniform(parts[0])
    }))
}

/// Parses every `--gub c1,c2,…:k` occurrence into a GUB group list.
fn parse_gub_groups(args: &[String]) -> Result<Option<Vec<GubGroup>>, Box<dyn std::error::Error>> {
    let mut groups = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a != "--gub" {
            continue;
        }
        let v = args
            .get(i + 1)
            .filter(|p| !p.starts_with("--"))
            .ok_or_else(|| usage("--gub needs cols:bound (e.g. 0,1,2:1)"))?;
        let (cols_s, bound_s) = v
            .split_once(':')
            .ok_or_else(|| usage("--gub needs cols:bound (e.g. 0,1,2:1)"))?;
        let cols = cols_s
            .split(',')
            .map(|s| s.trim().parse::<usize>())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| usage("--gub columns must be unsigned integers"))?;
        let bound = bound_s
            .trim()
            .parse::<u32>()
            .map_err(|_| usage("--gub bound must be an unsigned integer"))?;
        groups.push(GubGroup::new(cols, bound));
    }
    Ok((!groups.is_empty()).then_some(groups))
}

fn cmd_minimize(args: &[String]) -> CliResult {
    let path = args
        .first()
        .ok_or_else(|| usage("minimize needs a .pla file"))?;
    let exact = args.iter().any(|a| a == "--exact");
    let espresso = args.iter().any(|a| a == "--espresso");
    let out_path = args
        .iter()
        .position(|a| a == "-o")
        .and_then(|i| args.get(i + 1));
    let src = std::fs::read_to_string(path)?;
    let pla: Pla = src.parse()?;
    eprintln!(
        "parsed {path}: {} inputs, {} outputs, {} terms",
        pla.num_inputs(),
        pla.num_outputs(),
        pla.terms().len()
    );
    if espresso {
        // Cube-level EXPAND/IRREDUNDANT/REDUCE, no covering matrix at all.
        let minimised = ucp::logic::espresso::minimize(&pla, &Default::default());
        eprintln!(
            "minimised to {} products (espresso-style heuristic, verified)",
            minimised.terms().len()
        );
        match out_path {
            Some(p) => std::fs::write(p, minimised.to_pla_string())?,
            None => print!("{minimised}"),
        }
        return Ok(());
    }
    let inst = build_covering(&pla)?;
    eprintln!(
        "covering matrix: {} rows × {} columns",
        inst.matrix.num_rows(),
        inst.matrix.num_cols()
    );
    let (solution, cost, certified) = if exact {
        let r = branch_and_bound(&inst.matrix, &BnbOptions::default());
        let sol = r.solution.ok_or("instance is infeasible")?;
        (sol, r.cost, r.optimal)
    } else {
        let out = Scg::run(SolveRequest::for_matrix(&inst.matrix)).expect("no cancel flag");
        if out.infeasible {
            return Err("instance is infeasible".into());
        }
        (out.solution, out.cost, out.proven_optimal)
    };
    let minimised = inst.solution_to_pla(&solution);
    if !ucp::logic::espresso::realizes(&pla, &minimised) {
        return Err("internal error: minimised PLA failed verification".into());
    }
    eprintln!(
        "minimised to {cost} products ({}, verified against the spec)",
        if certified {
            "certified optimal"
        } else {
            "heuristic"
        }
    );
    match out_path {
        Some(p) => std::fs::write(p, minimised.to_pla_string())?,
        None => print!("{minimised}"),
    }
    Ok(())
}

/// Renders a local solve failure with its cause chain (the constraint
/// detail for `InvalidConstraints`) for the CLI error line.
fn solve_error(e: ucp::ucp_core::SolveError) -> Box<dyn std::error::Error> {
    use std::error::Error as _;
    match e.source() {
        Some(cause) => format!("{e}: {cause}").into(),
        None => format!("{e}").into(),
    }
}

/// Loads an instance from a matrix file, falling back to the built-in
/// suite when the argument names a suite instance instead of a file.
fn read_matrix(path: &str) -> Result<CoverMatrix, Box<dyn std::error::Error>> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(text.parse::<CoverMatrix>()?),
        Err(io_err) => match suite::all().into_iter().find(|i| i.name == path) {
            Some(inst) => Ok(inst.matrix),
            None => Err(format!("{path}: {io_err} (and no suite instance has that name)").into()),
        },
    }
}

fn cmd_solve(args: &[String]) -> CliResult {
    let exact = args.iter().any(|a| a == "--exact");
    let stats = args.iter().any(|a| a == "--stats");
    let trace_path = match args.iter().position(|a| a == "--trace") {
        Some(i) => Some(
            args.get(i + 1)
                .filter(|p| !p.starts_with("--"))
                .ok_or_else(|| usage("--trace needs a file path"))?,
        ),
        None => None,
    };
    let metrics_path = match args.iter().position(|a| a == "--metrics") {
        Some(i) => Some(
            args.get(i + 1)
                .filter(|p| !p.starts_with("--"))
                .ok_or_else(|| usage("--metrics needs a file path (or - for stdout)"))?,
        ),
        None => None,
    };
    let workers = parse_workers(args, 0)?;
    let preset = parse_preset(args)?;
    let coverage = parse_coverage(args)?;
    let gub_groups = parse_gub_groups(args)?;
    // The instance is the first positional argument (skipping flag values).
    let mut path: Option<&String> = None;
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--trace"
            || a == "--metrics"
            || a == "-j"
            || a == "--workers"
            || a == "--preset"
            || a == "--coverage"
            || a == "--gub"
        {
            skip_next = true;
            continue;
        }
        if a.starts_with("--") {
            continue;
        }
        path = Some(a);
        break;
    }
    let path = path.ok_or_else(|| usage("solve needs a matrix file or suite instance name"))?;
    let m = read_matrix(path)?;
    if exact && (coverage.is_some() || gub_groups.is_some()) {
        return Err(usage(
            "--exact supports only the unate problem (drop --coverage/--gub)",
        ));
    }
    if exact {
        let r = branch_and_bound(&m, &BnbOptions::default());
        match r.solution {
            Some(sol) if r.optimal => {
                println!("optimal cost {} with columns {:?}", r.cost, sol.cols());
                println!("nodes: {}, time: {:.3}s", r.nodes, r.elapsed.as_secs_f64());
            }
            Some(sol) => {
                println!(
                    "budget exhausted: best {} (lower bound {}), columns {:?}",
                    r.cost,
                    r.lower_bound,
                    sol.cols()
                );
            }
            None => return Err("instance is infeasible".into()),
        }
        return Ok(());
    }

    let mut request = SolveRequest::for_matrix(&m).preset(preset).workers(workers);
    if let Some(c) = &coverage {
        request = request.coverage(c.for_rows(m.num_rows()));
    }
    if let Some(g) = gub_groups {
        request = request.gub_groups(g);
    }
    let out = match trace_path {
        Some(trace) => {
            let file = std::fs::File::create(trace)
                .map_err(|e| format!("cannot create trace file {trace}: {e}"))?;
            let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
            sink.write_line("run_header", |o| {
                o.field_str("instance", path);
                o.field_u64("rows", m.num_rows() as u64);
                o.field_u64("cols", m.num_cols() as u64);
            });
            let out = Scg::run(request.probe(&mut sink)).map_err(solve_error)?;
            sink.write_line("result", |o| {
                o.field_f64("cost", out.cost);
                o.field_f64("lower_bound", out.lower_bound);
                o.field_bool("proven_optimal", out.proven_optimal);
                o.field_bool("infeasible", out.infeasible);
                o.field_f64("total_seconds", out.total_time.as_secs_f64());
                o.field_raw("phase_times", &out.phase_times.to_json());
            });
            let lines = sink.lines_written();
            sink.finish()
                .map_err(|e| format!("failed writing trace {trace}: {e}"))?;
            eprintln!("trace: {lines} events -> {trace}");
            out
        }
        None => Scg::run(request).map_err(solve_error)?,
    };
    if out.infeasible {
        return Err("instance is infeasible".into());
    }
    if !out.cost.is_finite() {
        return Err("no cover satisfying the constraints was found".into());
    }
    println!(
        "cost {} (lower bound {}, {}), columns {:?}",
        out.cost,
        out.lower_bound,
        if out.proven_optimal {
            "certified optimal"
        } else {
            "heuristic"
        },
        out.solution.cols()
    );
    println!(
        "core {}×{}, {} restarts, {} subgradient iterations, {:.3}s",
        out.core_rows,
        out.core_cols,
        out.iterations,
        out.subgradient_iterations,
        out.total_time.as_secs_f64()
    );
    if stats {
        print_stats(&out)?;
    }
    if let Some(path) = metrics_path {
        write_metrics(&out, path)?;
    }
    Ok(())
}

/// Renders the solve's metric families (`ucp_core_*`) in
/// Prometheus text exposition format to `path` (`-` = stdout).
fn write_metrics(out: &ScgOutcome, path: &str) -> CliResult {
    let registry = Registry::new();
    SolveMetrics::register(&registry).record(out);
    let text = registry.render_prometheus();
    if path == "-" {
        print!("{text}");
    } else {
        std::fs::write(path, &text)
            .map_err(|e| format!("cannot write metrics file {path}: {e}"))?;
        let families = text.lines().filter(|l| l.starts_with("# TYPE")).count();
        eprintln!("metrics: {families} families -> {path}");
    }
    Ok(())
}

/// `ucp batch <suite> [-j N] [--preset P] [--seed S]`: one engine job per
/// suite instance, a live completion line per job, and a throughput
/// footer. Results are identical to a serial `solve` loop regardless of
/// the worker count.
fn cmd_batch(args: &[String]) -> CliResult {
    // The suite is the first positional argument (skipping flag values).
    let mut category: Option<&String> = None;
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "-j" || a == "--workers" || a == "--preset" || a == "--seed" || a == "--coverage" {
            skip_next = true;
            continue;
        }
        if a.starts_with('-') {
            continue;
        }
        category = Some(a);
        break;
    }
    let category = category
        .ok_or_else(|| usage("batch needs a suite (easy, difficult, challenging or all)"))?;
    let instances = match category.as_str() {
        "easy" => suite::easy_cyclic(),
        "difficult" => suite::difficult_cyclic(),
        "challenging" => suite::challenging(),
        "all" => suite::all(),
        other => return Err(usage(format!("unknown suite {other:?}"))),
    };
    let workers = parse_workers(args, 0)?;
    let preset = parse_preset(args)?;
    let coverage = match parse_coverage(args)? {
        Some(CoverageArg::PerRow(_)) => {
            return Err(usage(
                "batch --coverage must be a single uniform demand (row counts vary per instance)",
            ));
        }
        other => other,
    };
    let seed = match args.iter().position(|a| a == "--seed") {
        Some(i) => Some(
            args.get(i + 1)
                .and_then(|n| n.parse::<u64>().ok())
                .ok_or_else(|| usage("--seed needs an unsigned integer"))?,
        ),
        None => None,
    };

    let total = instances.len();
    let engine = Engine::start(EngineConfig {
        workers,
        queue_capacity: total.max(1),
    });
    println!(
        "batch: {total} jobs ({category} suite) on {} engine workers, preset {preset}",
        engine.workers()
    );
    let start = Instant::now();
    // Every batch job goes through the same `JobSpec` DTO the wire API
    // uses, so the CLI and the server build byte-identical requests.
    let mut spec = JobSpec::new(preset);
    spec.seed = seed;
    let jobs: Vec<_> = instances
        .iter()
        .map(|inst| {
            let mut job_spec = spec.clone();
            if let Some(c) = &coverage {
                job_spec.coverage = Some(c.for_rows(inst.matrix.num_rows()));
            }
            let req = job_spec.to_request(Arc::new(inst.matrix.clone()));
            engine
                .submit(req)
                .map_err(|e| format!("submit failed: {e}"))
        })
        .collect::<Result<_, _>>()?;

    let mut done = 0usize;
    let mut failed = 0usize;
    let mut cost_sum = 0.0f64;
    let mut optimal = 0usize;
    for (inst, job) in instances.iter().zip(jobs) {
        match job.wait() {
            Ok(out) => {
                done += 1;
                cost_sum += out.cost;
                optimal += usize::from(out.proven_optimal);
                println!(
                    "[{done}/{total}] {:<12} cost {:>6} (lb {:>8.2}, {}) {:>8.3}s",
                    inst.name,
                    out.cost,
                    out.lower_bound,
                    if out.proven_optimal {
                        "optimal"
                    } else {
                        "heuristic"
                    },
                    out.total_time.as_secs_f64()
                );
            }
            Err(JobError::Cancelled) => {
                failed += 1;
                println!("[-/{total}] {:<12} cancelled", inst.name);
            }
            Err(e) => {
                failed += 1;
                println!("[-/{total}] {:<12} failed: {e}", inst.name);
            }
        }
    }
    let elapsed = start.elapsed();
    let stats = engine.shutdown();
    println!(
        "{done}/{total} jobs in {:.3}s ({:.2} jobs/s), {optimal} certified optimal, total cost {cost_sum}",
        elapsed.as_secs_f64(),
        done as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    if failed > 0 {
        return Err(format!("{failed} of {total} jobs failed (stats: {stats:?})").into());
    }
    Ok(())
}

/// `ucp serve [--addr A] [-j N] [--queue-cap N]`: runs the `ucp-api/2`
/// HTTP solve service until the process is killed. Jobs arrive as
/// matrix + `JobSpec` bodies on `POST /v1/jobs`; admission control,
/// load shedding and the wire-code taxonomy are documented on
/// `ucp_server` and in the README's "Serving" section.
fn cmd_serve(args: &[String]) -> CliResult {
    let addr = match args.iter().position(|a| a == "--addr") {
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| usage("--addr needs a host:port bind address"))?
            .clone(),
        None => "127.0.0.1:7171".to_string(),
    };
    let workers = parse_workers(args, 0)?;
    let queue_capacity = match args.iter().position(|a| a == "--queue-cap") {
        Some(i) => args
            .get(i + 1)
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|n| *n > 0)
            .ok_or_else(|| usage("--queue-cap needs a positive job count"))?,
        None => ServerConfig::default().queue_capacity,
    };
    let journal_dir = match args.iter().position(|a| a == "--journal") {
        Some(i) => Some(
            args.get(i + 1)
                .filter(|p| !p.starts_with("--"))
                .map(std::path::PathBuf::from)
                .ok_or_else(|| usage("--journal needs a directory path"))?,
        ),
        None => None,
    };
    let server = Server::start(ServerConfig {
        addr,
        workers,
        queue_capacity,
        journal_dir: journal_dir.clone(),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("cannot start server: {e}"))?;
    println!("serving ucp-api/2 on http://{}", server.addr());
    if let Some(dir) = &journal_dir {
        println!("  journaling jobs to {}", dir.display());
    }
    println!("  POST /v1/jobs  GET /v1/jobs/{{id}}[/trace]  DELETE /v1/jobs/{{id}}  GET /metrics");
    // The service runs until the process is killed; `park` has no
    // wake-up guarantee either way, hence the loop.
    loop {
        std::thread::park();
    }
}

/// `ucp journal <dir>`: human-readable summary of a job journal. Uses
/// the same replay parser as server recovery, so the jobs it reports as
/// recoverable are exactly the ones a restart would re-enqueue.
fn cmd_journal(args: &[String]) -> CliResult {
    use ucp::ucp_durability::{read_journal, RecoverySet, Terminal};
    let dir = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| usage("journal needs a directory path"))?;
    // `read_journal` treats a missing file as an empty journal (what a
    // fresh server wants), but for the inspector a typo'd path should
    // fail loudly rather than report "no jobs".
    if !std::path::Path::new(dir).is_dir() {
        return Err(format!("no such journal directory: {dir}").into());
    }
    let replay = read_journal(std::path::Path::new(dir))
        .map_err(|e| format!("cannot read journal under {dir}: {e}"))?;
    let set = RecoverySet::from_records(&replay.records);

    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    writeln!(
        w,
        "journal: {} records in {} bytes{}",
        replay.records.len(),
        replay.valid_bytes,
        if replay.torn_bytes > 0 {
            format!(" (+{} torn tail bytes, ignored)", replay.torn_bytes)
        } else {
            String::new()
        }
    )?;
    if set.jobs.is_empty() {
        writeln!(w, "no jobs")?;
        return Ok(());
    }
    let (mut done, mut failed, mut cancelled, mut incomplete) = (0u64, 0u64, 0u64, 0u64);
    for job in set.jobs.values() {
        match &job.terminal {
            Some(Terminal::Done(_)) => done += 1,
            Some(Terminal::Failed(_)) => failed += 1,
            Some(Terminal::Cancelled) => cancelled += 1,
            None => incomplete += 1,
        }
    }
    writeln!(
        w,
        "jobs: {} total — {done} done, {failed} failed, {cancelled} cancelled, {incomplete} incomplete",
        set.jobs.len()
    )?;
    writeln!(
        w,
        "{:>8}  {:<12} {:<10} {:>6} {:>12}  detail",
        "job", "tenant", "state", "ckpts", "next-run"
    )?;
    for job in set.jobs.values() {
        let tenant = job.tenant.as_deref().unwrap_or("-");
        let (state, detail) = match &job.terminal {
            Some(Terminal::Done(result)) => ("done", format!("cost {}", result.cost)),
            Some(Terminal::Failed(err)) => ("failed", err.message.clone()),
            Some(Terminal::Cancelled) => ("cancelled", String::new()),
            None if job.recoverable() => (
                "incomplete",
                if job.started {
                    "recoverable, was running".to_string()
                } else {
                    "recoverable, still queued".to_string()
                },
            ),
            None => (
                "incomplete",
                "not recoverable (spec or matrix missing)".into(),
            ),
        };
        let next_run = match &job.checkpoint {
            Some(ckpt) => ckpt.next_run.to_string(),
            None => "-".to_string(),
        };
        writeln!(
            w,
            "{:>8}  {:<12} {:<10} {:>6} {:>12}  {detail}",
            format!("j-{}", job.job),
            tenant,
            state,
            job.checkpoints,
            next_run
        )?;
    }
    Ok(())
}

/// `ucp trace <file.jsonl> [--folded <out>]`: offline profile of a
/// recorded trace — event-kind counts, per-phase breakdown (same table as
/// `solve --stats`), subgradient convergence and the result line, plus an
/// optional folded-stack dump for flamegraph tooling.
fn cmd_trace(args: &[String]) -> CliResult {
    let folded_path = match args.iter().position(|a| a == "--folded") {
        Some(i) => Some(
            args.get(i + 1)
                .filter(|p| !p.starts_with("--"))
                .ok_or_else(|| usage("--folded needs a file path"))?,
        ),
        None => None,
    };
    // The trace file is the first positional argument (skipping flag values).
    let mut path: Option<&String> = None;
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--folded" {
            skip_next = true;
            continue;
        }
        if a.starts_with("--") {
            continue;
        }
        path = Some(a);
        break;
    }
    let path = path.ok_or_else(|| usage("trace needs a .jsonl trace file"))?;
    let file =
        std::fs::File::open(path).map_err(|e| format!("cannot open trace file {path}: {e}"))?;
    let events = parse_trace(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    let summary = TraceSummary::from_events(&events);

    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    writeln!(w, "trace: {path} ({} events)", summary.events)?;
    writeln!(w, "event kinds:")?;
    for (kind, n) in &summary.kind_counts {
        writeln!(w, "  {kind:<20} {n:>9}")?;
    }
    // The same table `solve --stats` prints, reconstructed offline from
    // the `phase_end` events alone.
    let total = summary
        .result
        .map(|r| r.total_seconds)
        .unwrap_or_else(|| summary.phase_times.total());
    writeln!(w, "phase breakdown:")?;
    for phase in ucp::ucp_telemetry::Phase::ALL {
        let secs = summary.phase_times.get(phase);
        let share = if total > 0.0 {
            100.0 * secs / total
        } else {
            0.0
        };
        writeln!(w, "  {:<20} {secs:>9.4}s  {share:>5.1}%", phase.name())?;
    }
    writeln!(
        w,
        "  {:<20} {:>9.4}s  (solve total {total:.4}s)",
        "sum",
        summary.phase_times.total()
    )?;
    if let Some(sub) = summary.subgradient {
        writeln!(w, "subgradient:")?;
        writeln!(
            w,
            "  {} iterations across {} ascents ({} trace events{})",
            sub.iterations,
            sub.ascents,
            sub.events,
            if sub.events < sub.iterations {
                ", sampled"
            } else {
                ""
            }
        )?;
        writeln!(
            w,
            "  lower bound {:.4} -> {:.4}, final upper bound {:.4}",
            sub.first_lb, sub.final_lb, sub.final_ub
        )?;
    }
    if summary.restarts > 0 {
        writeln!(w, "restarts: {}", summary.restarts)?;
    }
    match summary.result {
        Some(r) => writeln!(
            w,
            "result: cost {} (lower bound {}, {}), {:.3}s",
            r.cost,
            r.lower_bound,
            if r.proven_optimal {
                "certified optimal"
            } else {
                "heuristic"
            },
            r.total_seconds
        )?,
        None => writeln!(w, "result: none (trace has no result line)")?,
    }

    if let Some(out_path) = folded_path {
        let folded = folded_stacks(&events);
        let mut text = String::new();
        for (stack, micros) in &folded {
            text.push_str(stack);
            text.push(' ');
            text.push_str(&micros.to_string());
            text.push('\n');
        }
        std::fs::write(out_path, text)
            .map_err(|e| format!("cannot write folded stacks to {out_path}: {e}"))?;
        writeln!(w, "folded stacks: {} frames -> {out_path}", folded.len())?;
    }
    Ok(())
}

/// Renders the `--stats` report: the phase wall-clock breakdown and the
/// trace robustness counters.
fn print_stats(out: &ScgOutcome) -> CliResult {
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    let total = out.total_time.as_secs_f64();
    writeln!(w, "phase breakdown:")?;
    for phase in ucp::ucp_telemetry::Phase::ALL {
        let secs = out.phase_times.get(phase);
        let share = if total > 0.0 {
            100.0 * secs / total
        } else {
            0.0
        };
        writeln!(w, "  {:<20} {secs:>9.4}s  {share:>5.1}%", phase.name())?;
    }
    writeln!(
        w,
        "  {:<20} {:>9.4}s  (solve total {total:.4}s)",
        "sum",
        out.phase_times.total()
    )?;
    writeln!(w, "robustness:")?;
    writeln!(
        w,
        "  dropped events{:>12}   (trace lines the sink failed to persist)",
        out.dropped_events
    )?;
    if out.resumed > 0 {
        writeln!(
            w,
            "  resumed       {:>12}   (restarts skipped by checkpoint resume)",
            out.resumed
        )?;
    }
    Ok(())
}

fn cmd_bounds(args: &[String]) -> CliResult {
    let path = args
        .first()
        .ok_or_else(|| usage("bounds needs a matrix file"))?;
    let m = read_matrix(path)?;
    let b = bounds_report(&m);
    println!("LB_MIS  = {}", b.mis);
    println!("LB_DA   = {}", b.dual_ascent);
    println!("LB_Lagr = {:.4}", b.lagrangian);
    match DenseLp::covering(m.num_cols(), m.rows(), m.costs()).solve() {
        Ok(lp) => println!("LB_LR   = {:.4}", lp.objective),
        Err(e) => println!("LB_LR   unavailable: {e}"),
    }
    Ok(())
}

fn cmd_suite(args: &[String]) -> CliResult {
    let instances = match args.first().map(String::as_str) {
        Some("easy") => suite::easy_cyclic(),
        Some("challenging") => suite::challenging(),
        Some("difficult") | None => suite::difficult_cyclic(),
        Some(other) => return Err(usage(format!("unknown category {other:?}"))),
    };
    println!(
        "{:>10}  {:>6}  {:>6}  {:>8}  description",
        "name", "rows", "cols", "nnz"
    );
    for inst in instances {
        println!(
            "{:>10}  {:>6}  {:>6}  {:>8}  {}",
            inst.name,
            inst.matrix.num_rows(),
            inst.matrix.num_cols(),
            inst.matrix.nnz(),
            inst.description
        );
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> CliResult {
    let name = args
        .first()
        .ok_or_else(|| usage("generate needs an instance name (see `ucp suite`)"))?;
    let out_path = args
        .iter()
        .position(|a| a == "-o")
        .and_then(|i| args.get(i + 1));
    let all = suite::all();
    let inst = all.iter().find(|i| &i.name == name).ok_or_else(|| {
        usage(format!(
            "unknown instance {name:?}; see `ucp suite <category>`"
        ))
    })?;
    let text = format!(
        "# {} ({}): {}\n{}",
        inst.name,
        inst.category,
        inst.description,
        inst.matrix.to_text()
    );
    match out_path {
        Some(p) => std::fs::write(p, text)?,
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_classic(args: &[String]) -> CliResult {
    let name = args.first().ok_or_else(|| {
        usage("classic needs a function name (rd53, rd73, rd84, 9sym, xor5, maj5, maj7)")
    })?;
    let out_path = args
        .iter()
        .position(|a| a == "-o")
        .and_then(|i| args.get(i + 1));
    use ucp::workloads::classic;
    let pla = match name.as_str() {
        "rd53" => classic::rd53(),
        "rd73" => classic::rd73(),
        "rd84" => classic::rd84(),
        "9sym" => classic::nine_sym(),
        "xor5" => classic::xor5(),
        "maj5" => classic::majority(5),
        "maj7" => classic::majority(7),
        other => return Err(usage(format!("unknown classic function {other:?}"))),
    };
    match out_path {
        Some(p) => std::fs::write(p, pla.to_pla_string())?,
        None => print!("{pla}"),
    }
    Ok(())
}
