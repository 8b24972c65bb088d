//! `parallel` — pooled restarts against the serial solve on the difficult
//! cyclic cores.
//!
//! Solves each of the 7 difficult cores at the Paper preset three times:
//! on the calling thread (`workers: 1`), with its restarts pooled over
//! `available_parallelism().clamp(2, 8)` workers (at least 2, so the pool
//! runs even on a one-core machine), and at the default options, whose
//! pool takes the idle cores. Pooling must not change the answer: the run
//! panics unless all three solves return the same cost, cover, lower
//! bound, constructive runs and subgradient iterations. It prints the
//! serial and pooled wall times per core and in total.
//!
//! Usage: `cargo run -p ucp-bench --release --bin parallel`

use ucp_bench::run_scg;
use ucp_core::{Preset, ScgOptions, ScgOutcome};
use workloads::suite;

/// Everything pooling must leave unchanged.
fn answer(o: &ScgOutcome) -> (f64, &[usize], f64, usize, usize) {
    (
        o.cost,
        o.solution.cols(),
        o.lower_bound,
        o.iterations,
        o.subgradient_iterations,
    )
}

fn main() {
    let paper = Preset::Paper.options();
    let serial_opts = ScgOptions {
        workers: 1,
        ..paper
    };
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(2, 8);
    let insts = suite::difficult_cyclic();
    let (mut serial_total, mut pooled_total) = (0.0f64, 0.0f64);
    for inst in &insts {
        let serial = run_scg(&inst.matrix, serial_opts);
        let pooled = run_scg(&inst.matrix, ScgOptions { workers, ..paper });
        let auto = run_scg(&inst.matrix, paper);
        assert_eq!(
            serial.restart_workers, 1,
            "{}: serial solve pooled",
            inst.name
        );
        assert_eq!(
            answer(&serial),
            answer(&pooled),
            "{}: pooled solve diverged from serial",
            inst.name
        );
        assert_eq!(
            answer(&serial),
            answer(&auto),
            "{}: idle-core solve diverged from serial",
            inst.name
        );
        let (s, p) = (
            serial.total_time.as_secs_f64(),
            pooled.total_time.as_secs_f64(),
        );
        serial_total += s;
        pooled_total += p;
        println!(
            "{:>10}  cost {:>6}  subgradient iters {:>6}  serial {s:>7.3}s  {workers} workers {p:>7.3}s  ({:.2}x)",
            inst.name,
            serial.cost,
            serial.subgradient_iterations,
            s / p.max(1e-9)
        );
    }
    println!(
        "parallel: {} cores identical at {workers} workers; serial {serial_total:.2}s, pooled {pooled_total:.2}s ({:.2}x)",
        insts.len(),
        serial_total / pooled_total.max(1e-9)
    );
}
