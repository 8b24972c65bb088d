//! `paper` — regenerates the paper's evaluation and records its answers.
//!
//! Each experiment prints a Markdown table and a verdict on the paper's
//! claim, computed from the run, then rewrites its own lines of the
//! committed root `PAPER_RESULTS.jsonl`: one line per table row (every
//! column but the `(s)` wall-clock timings) and one verdict line. Lines of
//! experiments not run are kept byte for byte and the file is always in
//! [`EXPERIMENTS`] order, so a changed answer shows up as a one-line
//! `git diff`.
//!
//! Usage: `cargo run -p ucp-bench --release --bin paper [EXPERIMENT…]`
//! (no names: every experiment). `convergence` may be followed by a suite
//! instance name to trace that instance instead of `bench1`. An unknown
//! experiment or instance name exits 2 with the usage text.

use cover::CoverMatrix;
use lp::DenseLp;
use solvers::{incremental_mis_bound, EspressoMode, IncrementalOptions};
use std::cmp::Ordering;
use std::io::ErrorKind;
use std::time::Duration;
use ucp_bench::{run_espresso, run_exact, run_scg, secs, Table, EXACT_NODES};
use ucp_core::bounds::bounds_report;
use ucp_core::{subgradient_ascent, Constraints, Preset, ScgOptions, ScgOutcome};
use ucp_core::{SubgradientOptions, SubgradientResult};
use ucp_telemetry::{JsonObj, NoopProbe};
use workloads::{circulant, classic::all_classics, suite, Instance};

/// An experiment's name, printed title and runner, which gets the name of
/// the instance `convergence` traces.
type Experiment = (&'static str, &'static str, fn(&str) -> Outcome);

/// Every experiment, in file and run order.
const EXPERIMENTS: [Experiment; 10] = [
    (
        "figure1",
        "Figure 1 — lower-bound chain (paper example: 1 < 2 < 2.5 → 3)",
        |_| figure1(),
    ),
    (
        "easy_cyclic",
        "§5 Experiment 1 — easy cyclic aggregate (paper: 5225 vs LB 5213, \
         gap 0.22%; Espresso 5330 / strong 5281)",
        |_| easy_cyclic(),
    ),
    (
        "table1",
        "Table 1 — difficult cyclic vs espresso-like (`*` = certified optimum)",
        |_| vs_espresso(&suite::difficult_cyclic()),
    ),
    (
        "table2",
        "Table 2 — challenging vs espresso-like (`*` = certified optimum)",
        |_| vs_espresso(&suite::challenging()),
    ),
    (
        "table3",
        "Table 3 — difficult cyclic vs exact (`*` = certified by SCG's own \
         bound, `H` = node budget exhausted)",
        |_| vs_exact(&suite::difficult_cyclic()),
    ),
    (
        "table4",
        "Table 4 — challenging vs exact (paper: 11/16 certified by ZDD_SCG alone)",
        |_| vs_exact(&suite::challenging()),
    ),
    (
        "bounds_sweep",
        "Lower-bound sweep — difficult cyclic (§3.4, Proposition 1)",
        |_| bounds_sweep(),
    ),
    (
        "ablation",
        "Ablations over the difficult-cyclic suite",
        |_| ablation(),
    ),
    (
        "convergence",
        "Subgradient convergence trace (§3.2)",
        convergence,
    ),
    (
        "classic",
        "Classic semantically-defined Berkeley functions, full pipeline",
        |_| classic(),
    ),
];

/// The committed answers file at the workspace root.
const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../PAPER_RESULTS.jsonl");

/// The instance `convergence` traces unless another is named.
const DEFAULT_TRACE: &str = "bench1";

/// An experiment's table and its verdict: the claim and whether it holds.
type Outcome = (Table, String, bool);

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    format!(
        "usage: paper [EXPERIMENT…]\n\
         experiments (default: all): {}\n\
         `convergence INSTANCE` traces a suite instance (default {DEFAULT_TRACE})",
        names.join(" ")
    )
}

/// Parses `[EXPERIMENT…]` into indices of [`EXPERIMENTS`], in its order,
/// and the name of the instance `convergence` traces.
fn parse(args: &[String]) -> Result<(Vec<usize>, String), String> {
    let known = |arg: &str| EXPERIMENTS.iter().position(|e| e.0 == arg);
    let mut picked = Vec::new();
    let mut trace = DEFAULT_TRACE.to_string();
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let i = known(arg).ok_or_else(|| format!("unknown experiment {arg:?}"))?;
        if EXPERIMENTS[i].0 == "convergence" {
            if let Some(inst) = args.next_if(|a| known(a).is_none()) {
                if !suite::all().iter().any(|i| &i.name == inst) {
                    return Err(format!("unknown instance {inst:?}"));
                }
                trace.clone_from(inst);
            }
        }
        picked.push(i);
    }
    if picked.is_empty() {
        picked = (0..EXPERIMENTS.len()).collect();
    }
    picked.sort_unstable();
    picked.dedup();
    Ok((picked, trace))
}

/// The experiment a results line belongs to.
fn experiment_of(line: &str) -> Option<&str> {
    line.strip_prefix(r#"{"experiment":""#)?.split('"').next()
}

/// Replaces the lines of the experiments in `fresh` and keeps every other
/// experiment's lines of `old` as they are, all in [`EXPERIMENTS`] order.
fn merge(old: &str, fresh: &[(&str, Vec<String>)]) -> String {
    let mut out = String::new();
    for (name, ..) in EXPERIMENTS {
        let lines: Vec<&str> = match fresh.iter().find(|(n, _)| *n == name) {
            Some((_, lines)) => lines.iter().map(String::as_str).collect(),
            None => old
                .lines()
                .filter(|l| experiment_of(l) == Some(name))
                .collect(),
        };
        for line in lines {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (picked, trace) = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", usage());
        std::process::exit(2);
    });
    let fail = |what: &str, e: std::io::Error| -> ! {
        eprintln!("error: cannot {what} {RESULTS}: {e}");
        std::process::exit(1);
    };
    let old = match std::fs::read_to_string(RESULTS) {
        Err(e) if e.kind() == ErrorKind::NotFound => String::new(),
        read => read.unwrap_or_else(|e| fail("read", e)),
    };
    let mut fresh = Vec::new();
    for (name, title, experiment) in picked.into_iter().map(|i| EXPERIMENTS[i]) {
        println!("### {title}\n");
        let (table, claim, holds) = experiment(&trace);
        let verdict = if holds { "HOLDS" } else { "VIOLATED" };
        println!("{}\n{claim}: **{verdict}**\n", table.render());
        let mut lines: Vec<String> = table.jsonl(name).collect();
        let mut o = JsonObj::new();
        o.field_str("experiment", name)
            .field_str("claim", &claim)
            .field_str("verdict", verdict);
        lines.push(o.finish());
        fresh.push((name, lines));
        // Written after every experiment, so an interrupted run keeps
        // what it finished.
        std::fs::write(RESULTS, merge(&old, &fresh)).unwrap_or_else(|e| fail("write", e));
    }
    println!("answers: {RESULTS} (exact budget {EXACT_NODES} nodes)");
}

/// Runs the espresso-like baseline, panicking with the instance name when
/// it finds no cover.
fn espresso(name: &str, m: &CoverMatrix, mode: EspressoMode) -> (f64, Duration) {
    run_espresso(m, mode).unwrap_or_else(|e| panic!("espresso ({mode:?}) failed on {name}: {e}"))
}

/// `cost`, with a `*` when SCG certified it optimal.
fn sol(scg: &ScgOutcome) -> String {
    format!("{}{}", scg.cost, if scg.proven_optimal { "*" } else { "" })
}

/// The exact cost, with an `H` when the node budget ran out first.
fn exact_sol(exact: &solvers::BnbResult) -> String {
    format!("{}{}", exact.cost, if exact.optimal { "" } else { "H" })
}

/// The LP relaxation's optimum, `None` when the simplex fails.
fn lp_bound(m: &CoverMatrix) -> Option<f64> {
    DenseLp::covering(m.num_cols(), m.rows(), m.costs())
        .solve()
        .map(|s| s.objective)
        .ok()
}

/// Figure 1: `LB_MIS ≤ LB_DA ≤ LB_Lagr ≤ LB_LR ≤ z*` on the reconstructed
/// example, its uniform-cost variant and a family of circulants.
fn figure1() -> Outcome {
    let mut t = Table::new([
        "instance", "LB_MIS", "LB_DA", "LB_Lagr", "LB_LR", "ceil", "z*",
    ]);
    let mut instances = vec![
        ("figure1".to_string(), suite::figure1()),
        ("figure1-uniform".to_string(), suite::figure1_uniform()),
    ];
    for (n, k) in [(5, 2), (9, 2), (13, 2), (12, 3), (20, 4)] {
        instances.push((format!("C({n},{k})"), circulant(n, k)));
    }
    let mut chains = Vec::new();
    for (name, m) in &instances {
        let b = bounds_report(m);
        let lr = lp_bound(m).unwrap_or(f64::NAN);
        let exact = run_exact(m);
        let opt = if exact.optimal { exact.cost } else { f64::NAN };
        t.row([
            name.clone(),
            format!("{:.2}", b.mis),
            format!("{:.2}", b.dual_ascent),
            format!("{:.2}", b.lagrangian),
            format!("{lr:.2}"),
            format!("{:.0}", (lr - 1e-9).ceil()),
            format!("{opt:.0}"),
        ]);
        chains.push((b, lr, opt));
    }
    let (b, lr, opt) = &chains[0];
    let uniform = &chains[1].0;
    let holds = b.mis < b.dual_ascent
        && b.dual_ascent < *lr
        && (lr - 1e-9).ceil() == *opt
        && (uniform.mis - uniform.dual_ascent).abs() < 1e-9;
    let claim = "strict chain on figure1 (MIS < DA < LR, ceil(LR) = z*) and \
                 uniform-cost collapse on figure1-uniform (MIS = DA)";
    (t, claim.to_string(), holds)
}

/// §5 Experiment 1: the 49 easy cyclic instances in aggregate.
fn easy_cyclic() -> Outcome {
    let instances = suite::easy_cyclic();
    let n = instances.len();
    // Totals of ZDD_SCG, espresso-like, espresso-like strong and the
    // exact optima B&B closes, in that order.
    let mut cost = [0.0; 4];
    let mut time = [Duration::ZERO; 4];
    let (mut lb, mut certified, mut closed, mut matched) = (0.0, 0, 0, 0);
    for inst in &instances {
        let m = &inst.matrix;
        let scg = run_scg(m, ScgOptions::default());
        let (en, tn) = espresso(&inst.name, m, EspressoMode::Normal);
        let (es, ts) = espresso(&inst.name, m, EspressoMode::Strong);
        let exact = run_exact(m);
        lb += scg.lower_bound;
        certified += usize::from(scg.proven_optimal);
        closed += usize::from(exact.optimal);
        matched += usize::from(exact.optimal && scg.cost == exact.cost);
        let opt = if exact.optimal { exact.cost } else { 0.0 };
        let runs = [
            (scg.cost, scg.total_time),
            (en, tn),
            (es, ts),
            (opt, exact.elapsed),
        ];
        for (k, (c, t)) in runs.into_iter().enumerate() {
            cost[k] += c;
            time[k] += t;
        }
    }
    let mut t = Table::new(["solver", "total cost", "total LB", "certified", "T(s)"]);
    let gap = 100.0 * (cost[0] - lb) / lb.max(1.0);
    let scg_lb = format!("{lb:.0} (gap {gap:.2}%)");
    let rows = [
        ("ZDD_SCG", scg_lb, format!("{certified}/{n}")),
        ("espresso-like", "-".into(), "-".into()),
        ("espresso-like strong", "-".into(), "-".into()),
        (
            "exact B&B (closed only)",
            "-".into(),
            format!("{closed}/{n}"),
        ),
    ];
    for (k, (solver, lb, certified)) in rows.into_iter().enumerate() {
        t.row([
            solver.to_string(),
            format!("{:.0}", cost[k]),
            lb,
            certified,
            secs(time[k]),
        ]);
    }
    let [scg, normal, strong, _] = cost;
    let claim = format!(
        "SCG ≤ strong ≤ normal ({scg:.0} ≤ {strong:.0} ≤ {normal:.0}) and \
         SCG matches every exact optimum B&B closes ({matched}/{closed})"
    );
    let holds = scg <= strong && strong <= normal && matched == closed;
    (t, claim, holds)
}

/// Tables 1 and 2: per-instance ZDD_SCG against both espresso-like modes.
fn vs_espresso(instances: &[Instance]) -> Outcome {
    let mut t = Table::new([
        "Name",
        "Sol",
        "CC(s)",
        "T(s)",
        "Core",
        "Espr Sol",
        "Espr T(s)",
        "Strong Sol",
        "Strong T(s)",
    ]);
    let (mut better, mut equal, mut worse) = (0, 0, 0);
    for inst in instances {
        let scg = run_scg(&inst.matrix, ScgOptions::default());
        let (en, tn) = espresso(&inst.name, &inst.matrix, EspressoMode::Normal);
        let (es, ts) = espresso(&inst.name, &inst.matrix, EspressoMode::Strong);
        match scg.cost.partial_cmp(&en.min(es)) {
            Some(Ordering::Less) => better += 1,
            Some(Ordering::Equal) => equal += 1,
            _ => worse += 1,
        }
        t.row([
            inst.name.clone(),
            sol(&scg),
            secs(scg.cc_time),
            secs(scg.total_time),
            format!("{}x{}", scg.core_rows, scg.core_cols),
            en.to_string(),
            secs(tn),
            es.to_string(),
            secs(ts),
        ]);
    }
    let claim = format!(
        "ZDD_SCG never worse than the best espresso-like cover \
         ({better} better, {equal} equal, {worse} worse)"
    );
    (t, claim, worse == 0)
}

/// Tables 3 and 4: per-instance ZDD_SCG against the exact solver.
fn vs_exact(instances: &[Instance]) -> Outcome {
    let mut t = Table::new([
        "Name",
        "SCG Sol(LB)",
        "SCG T(s)",
        "MaxIter",
        "Gap",
        "Exact Sol",
        "Exact nodes",
        "Exact T(s)",
    ]);
    let (mut certified, mut closed, mut matched) = (0, 0, 0);
    for inst in instances {
        let scg = run_scg(&inst.matrix, ScgOptions::default());
        let exact = run_exact(&inst.matrix);
        certified += usize::from(scg.proven_optimal);
        if exact.optimal {
            closed += 1;
            matched += usize::from(scg.cost == exact.cost);
        }
        let sol = if scg.proven_optimal {
            format!("{}*", scg.cost)
        } else {
            format!("{}({})", scg.cost, scg.lower_bound)
        };
        let gap = if scg.lower_bound > 0.0 {
            format!(
                "{:.1}%",
                100.0 * (scg.cost - scg.lower_bound) / scg.lower_bound
            )
        } else {
            "-".to_string()
        };
        t.row([
            inst.name.clone(),
            sol,
            secs(scg.total_time),
            scg.iterations.to_string(),
            gap,
            exact_sol(&exact),
            exact.nodes.to_string(),
            secs(exact.elapsed),
        ]);
    }
    let claim = format!(
        "ZDD_SCG matches every exact optimum B&B closes ({matched}/{closed}); \
         {certified}/{} certified by its own bound",
        instances.len()
    );
    (t, claim, matched == closed)
}

/// §3.4 as a table: five lower-bounding techniques on the difficult
/// cyclic suite against ZDD_SCG's cover (Fast preset).
fn bounds_sweep() -> Outcome {
    let mut t = Table::new([
        "Name", "LB_MIS", "LB_DA", "LB_Lagr", "LB_MIS+", "LB_LR", "UB(SCG)",
    ]);
    let mut chain = true;
    for inst in suite::difficult_cyclic() {
        let m = &inst.matrix;
        let b = bounds_report(m);
        let inc = incremental_mis_bound(m, &IncrementalOptions::default());
        let lr = if m.num_rows() <= 400 {
            lp_bound(m)
        } else {
            None
        };
        let scg = run_scg(m, Preset::Fast.options());
        chain &= b.satisfies_proposition_1() && lr.is_none_or(|lr| b.lagrangian <= lr + 1e-5);
        t.row([
            inst.name.clone(),
            format!("{:.0}", b.mis),
            format!("{:.1}", b.dual_ascent),
            format!("{:.1}", b.lagrangian),
            format!("{inc:.0}"),
            lr.map_or("-".into(), |v| format!("{v:.1}")),
            scg.cost.to_string(),
        ]);
    }
    let claim = "Proposition 1 chain (MIS ≤ DA ≤ Lagr ≤ LR) on every instance";
    (t, claim.to_string(), chain)
}

/// Ablations over `DESIGN.md`'s design choices: the rating weight `α`, the
/// restart count `NumIter`, the dual-penalty budget and the subgradient
/// length, each over the whole difficult cyclic suite.
fn ablation() -> Outcome {
    let base = ScgOptions::default();
    let mut configs = vec![("baseline (α=2, NumIter=4, DualPen=100)".to_string(), base)];
    for alpha in [0.0, 1.0, 4.0] {
        configs.push((format!("α={alpha}"), ScgOptions { alpha, ..base }));
    }
    for num_iter in [1, 2, 8] {
        configs.push((
            format!("NumIter={num_iter}"),
            ScgOptions { num_iter, ..base },
        ));
    }
    configs.push((
        "dual penalties off".into(),
        ScgOptions {
            dual_pen_limit: 0,
            ..base
        },
    ));
    configs.push((
        "short subgradient (60 iters)".into(),
        ScgOptions {
            subgradient: SubgradientOptions {
                max_iters: 60,
                ..base.subgradient
            },
            ..base
        },
    ));
    let instances = suite::difficult_cyclic();
    let mut t = Table::new([
        "configuration",
        "total cost",
        "total LB",
        "certified",
        "T(s)",
    ]);
    let mut totals = Vec::new();
    for (label, opts) in configs {
        let (mut cost, mut lb, mut certified, mut time) = (0.0, 0.0, 0, Duration::ZERO);
        for inst in &instances {
            let out = run_scg(&inst.matrix, opts);
            cost += out.cost;
            lb += out.lower_bound;
            certified += usize::from(out.proven_optimal);
            time += out.total_time;
        }
        totals.push(cost);
        t.row([
            label,
            format!("{cost:.0}"),
            format!("{lb:.0}"),
            format!("{certified}/{}", instances.len()),
            secs(time),
        ]);
    }
    let holds = totals.iter().all(|&c| totals[0] <= c);
    let claim = "no ablated configuration beats the baseline's total cost";
    (t, claim.to_string(), holds)
}

/// §3.2's narrative as a text figure: `z_λ` oscillates while the best
/// bound `LB` only rises and the dual-Lagrangian bound `UB_LD` only falls.
fn convergence(trace: &str) -> Outcome {
    let inst = suite::all()
        .into_iter()
        .find(|i| i.name == trace)
        .expect("parse checked the instance");
    let opts = SubgradientOptions {
        record_history: true,
        max_iters: 200,
        ..SubgradientOptions::default()
    };
    let m = &inst.matrix;
    let r = subgradient_ascent(m, &opts, &Constraints::unate(), None, None, &mut NoopProbe);
    print_trace(&r);
    let lb_rises = r.history.windows(2).all(|w| w[1].lb >= w[0].lb - 1e-12);
    let ub_falls = r
        .history
        .windows(2)
        .all(|w| w[1].ub_ld <= w[0].ub_ld + 1e-12);
    let mut t = Table::new(["instance", "rows", "cols", "iterations", "LB", "incumbent"]);
    t.row([
        inst.name,
        m.num_rows().to_string(),
        m.num_cols().to_string(),
        r.iterations.to_string(),
        r.lb.to_string(),
        r.best_cost.to_string(),
    ]);
    let claim = "LB never falls and UB_LD never rises along the ascent";
    (t, claim.to_string(), lb_rises && ub_falls)
}

/// Plots every fifth point of the ascent (`·` = `z_λ`, `#` = LB,
/// `|` = UB_LD capped at the incumbent) in a code block.
fn print_trace(r: &SubgradientResult) {
    let lo = r
        .history
        .iter()
        .map(|h| h.z_lambda)
        .fold(f64::INFINITY, f64::min);
    let hi = r
        .history
        .iter()
        .map(|h| h.ub_ld.min(r.best_cost))
        .fold(r.lb, f64::max);
    let width = 56usize;
    let col = |v: f64| -> usize {
        (((v - lo) / (hi - lo).max(1e-9)) * (width as f64 - 1.0))
            .round()
            .clamp(0.0, width as f64 - 1.0) as usize
    };
    println!("```");
    println!(
        "{:>5}  {:<width$}  {:>8} {:>8} {:>8}",
        "iter", "z=· LB=# UB=|", "z_λ", "LB", "UB_LD"
    );
    for (k, h) in r.history.iter().enumerate() {
        if k % 5 != 0 && k + 1 != r.history.len() {
            continue;
        }
        let mut line = vec![' '; width];
        line[col(h.lb)] = '#';
        let ub = h.ub_ld.min(r.best_cost);
        if ub.is_finite() {
            line[col(ub)] = '|';
        }
        line[col(h.z_lambda)] = '·';
        println!(
            "{k:>5}  {}  {:>8.2} {:>8.2} {:>8.2}",
            line.iter().collect::<String>(),
            h.z_lambda,
            h.lb,
            h.ub_ld
        );
    }
    println!("```\n");
}

/// The semantically regenerable classic Berkeley functions through the
/// full pipeline: PLA → implicit primes → covering matrix → ZDD_SCG,
/// against the espresso-like heuristic and the exact solver. Every
/// minimised PLA is checked against its specification.
fn classic() -> Outcome {
    let mut t = Table::new([
        "Name", "ins", "outs", "rows", "cols", "SCG", "T(s)", "Espr", "Strong", "Exact",
    ]);
    let (mut closed, mut matched) = (0, 0);
    for (name, pla) in all_classics() {
        let inst = match logic::build_covering(&pla) {
            Ok(i) => i,
            Err(e) => {
                eprintln!("{name}: {e}");
                continue;
            }
        };
        let m = &inst.matrix;
        let scg = run_scg(m, ScgOptions::default());
        let (en, _) = espresso(name, m, EspressoMode::Normal);
        let (es, _) = espresso(name, m, EspressoMode::Strong);
        let exact = run_exact(m);
        if exact.optimal {
            closed += 1;
            matched += usize::from(scg.cost == exact.cost);
        }
        assert!(
            logic::espresso::realizes(&pla, &inst.solution_to_pla(&scg.solution)),
            "{name}: cover does not realise the function"
        );
        t.row([
            name.to_string(),
            pla.num_inputs().to_string(),
            pla.num_outputs().to_string(),
            m.num_rows().to_string(),
            m.num_cols().to_string(),
            sol(&scg),
            secs(scg.total_time),
            en.to_string(),
            es.to_string(),
            exact_sol(&exact),
        ]);
    }
    let claim = format!(
        "every minimised PLA realises its function and ZDD_SCG matches every \
         exact optimum B&B closes ({matched}/{closed})"
    );
    (t, claim, matched == closed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn lines(name: &str, answers: &[&str]) -> Vec<String> {
        answers
            .iter()
            .map(|a| format!(r#"{{"experiment":"{name}","Sol":"{a}"}}"#))
            .collect()
    }

    #[test]
    fn rewriting_one_experiment_keeps_every_other_line() {
        let all: Vec<(&str, Vec<String>)> = EXPERIMENTS
            .iter()
            .map(|e| (e.0, lines(e.0, &["1", "2"])))
            .collect();
        let old = merge("", &all);
        let new = merge(&old, &[("table3", lines("table3", &["1", "3H", "4"]))]);
        let kept = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| experiment_of(l) != Some("table3"))
                .map(String::from)
                .collect()
        };
        assert_eq!(kept(&old), kept(&new));
        let table3: Vec<&str> = new
            .lines()
            .filter(|l| experiment_of(l) == Some("table3"))
            .collect();
        assert_eq!(table3, lines("table3", &["1", "3H", "4"]));
    }

    #[test]
    fn line_order_is_fixed() {
        // Fresh results given out of order, an old file out of order with
        // an unknown experiment: the output follows EXPERIMENTS.
        let old = [
            lines("classic", &["9"]),
            lines("retired", &["0"]),
            lines("figure1", &["3"]),
        ]
        .concat()
        .join("\n");
        let new = merge(
            &old,
            &[
                ("table2", lines("table2", &["2"])),
                ("ablation", lines("ablation", &["8"])),
            ],
        );
        let order: Vec<&str> = new.lines().filter_map(experiment_of).collect();
        assert_eq!(order, ["figure1", "table2", "ablation", "classic"]);
        assert_eq!(merge(&new, &[]), new);
    }

    #[test]
    fn arguments_select_experiments_in_file_order() {
        let names = |list: &[&str]| -> (Vec<&str>, String) {
            let (picked, trace) = parse(&args(list)).unwrap();
            (
                picked.into_iter().map(|i| EXPERIMENTS[i].0).collect(),
                trace,
            )
        };
        assert_eq!(
            names(&["table2", "figure1", "table2"]),
            (vec!["figure1", "table2"], DEFAULT_TRACE.to_string())
        );
        assert_eq!(names(&[]).0.len(), EXPERIMENTS.len());
        assert_eq!(
            names(&["convergence", "ex5", "table1"]),
            (vec!["table1", "convergence"], "ex5".to_string())
        );
    }

    #[test]
    fn unknown_experiment_or_instance_is_a_usage_error() {
        assert!(parse(&args(&["table5"])).unwrap_err().contains("table5"));
        assert!(parse(&args(&["--quick"])).is_err());
        assert!(parse(&args(&["convergence", "nosuch"]))
            .unwrap_err()
            .contains("nosuch"));
        // An instance name only follows `convergence`.
        assert!(parse(&args(&["table1", "ex5"])).is_err());
    }
}
