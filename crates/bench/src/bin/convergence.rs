//! Subgradient convergence trace (§3.2's narrative rendered as a text
//! figure): `z_λ` oscillates while the best bound `LB` only rises and the
//! dual-Lagrangian upper bound `UB_LD` only falls, squeezing `z*_P`.
//!
//! Usage: `cargo run -p ucp-bench --release --bin convergence [instance]`

use std::fs::{self, File};
use std::io::BufWriter;
use ucp_core::{subgradient_ascent, Constraints, SubgradientOptions};
use ucp_telemetry::JsonlSink;
use workloads::suite;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "bench1".into());
    let instances = suite::all();
    let inst = instances
        .iter()
        .find(|i| i.name == which)
        .unwrap_or_else(|| {
            eprintln!("unknown instance {which:?}; defaulting to bench1");
            instances
                .iter()
                .find(|i| i.name == "bench1")
                .expect("suite")
        });
    let opts = SubgradientOptions {
        record_history: true,
        max_iters: 200,
        ..SubgradientOptions::default()
    };
    // The JSONL trace is the solver's own event stream (one
    // `subgradient_iter` line per iteration), not a rendering of `history`.
    fs::create_dir_all("results").expect("create results/");
    let file = File::create("results/convergence.jsonl").expect("create results/convergence.jsonl");
    let mut sink = JsonlSink::new(BufWriter::new(file));
    sink.write_line("bench_header", |o| {
        o.field_str("bench", "convergence");
        o.field_str("instance", &inst.name);
        o.field_u64("rows", inst.matrix.num_rows() as u64);
        o.field_u64("cols", inst.matrix.num_cols() as u64);
    });
    let r = subgradient_ascent(
        &inst.matrix,
        &opts,
        &Constraints::unate(),
        None,
        None,
        &mut sink,
    );
    sink.write_line("result", |o| {
        o.field_f64("lb", r.lb);
        o.field_f64("best_cost", r.best_cost);
        o.field_u64("iterations", r.iterations as u64);
    });
    sink.finish().expect("write results/convergence.jsonl");
    eprintln!("results: results/convergence.jsonl");

    println!(
        "subgradient trace on {} ({}×{}), final LB {:.2}, incumbent {}",
        inst.name,
        inst.matrix.num_rows(),
        inst.matrix.num_cols(),
        r.lb,
        r.best_cost
    );
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
            "{:>5}  {}  {:>8.2} {:>8.2} {:>8.2}",
            k,
            line.iter().collect::<String>(),
            h.z_lambda,
            h.lb,
            h.ub_ld
        );
    }
    // The monotonicity the paper describes.
    let lb_monotone = r.history.windows(2).all(|w| w[1].lb >= w[0].lb - 1e-12);
    let ub_monotone = r
        .history
        .windows(2)
        .all(|w| w[1].ub_ld <= w[0].ub_ld + 1e-12);
    println!(
        "LB monotone non-decreasing: {}; UB_LD monotone non-increasing: {}",
        if lb_monotone { "YES" } else { "NO" },
        if ub_monotone { "YES" } else { "NO" }
    );
}
