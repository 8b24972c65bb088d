//! The harness shared by the two in-process solver workloads
//! (`cyclic-paper`, `pla-minimize`): a fixed, seeded set of jobs solved
//! in rounds until the run's time is up.
//!
//! Round 0 fixes each job's answer; every later round must return the
//! same cost and columns. Quality totals come from round 0, throughput
//! and median latency from each job's fastest round, and per-layer
//! numbers from the layer counters the solver returns (`ScgOutcome`) and
//! from the benchmark's spans.

use crate::check::Checked;
use crate::outcome::Outcome;
use crate::stats;
use crate::trace::Tracer;
use std::time::Instant;
use ucp_core::ScgOutcome;
use ucp_telemetry::Phase;

/// Root span of one solver job.
pub const JOB_SPAN: &str = "job.solve";

/// The solver's stage timings under the span names the benchmark uses.
pub fn phase_stages(out: &ScgOutcome) -> [(&'static str, f64); 6] {
    let t = &out.phase_times;
    [
        ("cover.implicit_reduce", t.get(Phase::ImplicitReduction)),
        ("cover.explicit_reduce", t.get(Phase::ExplicitReduction)),
        ("cover.partition", t.get(Phase::Partition)),
        ("core.subgradient", t.get(Phase::Subgradient)),
        ("core.constructive", t.get(Phase::Constructive)),
        ("core.postprocess", t.get(Phase::Postprocess)),
    ]
}

/// Runs `f`, returning its value and when it started and ended.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
    let start = Instant::now();
    let value = f();
    (value, start, Instant::now())
}

/// Layer counters summed over one pass of the job set.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub phases: [f64; 6],
    pub subgradient_iters: u64,
    pub restarts: u64,
    pub core_rows: u64,
    pub core_cols: u64,
    pub zdd: cover::ZddStats,
    pub build_covering_s: f64,
    pub primes_s: f64,
}

impl Layers {
    pub fn add(&mut self, out: &ScgOutcome) {
        for (slot, (_, secs)) in self.phases.iter_mut().zip(phase_stages(out)) {
            *slot += secs;
        }
        self.subgradient_iters += out.subgradient_iterations as u64;
        self.restarts += out.iterations as u64;
        self.core_rows += out.core_rows as u64;
        self.core_cols += out.core_cols as u64;
        self.zdd.merge(&out.zdd_stats);
    }
}

/// What one job returned, reduced to what the harness compares.
pub struct JobResult {
    /// Wall time of the job's timed calls.
    pub wall_s: f64,
    /// The checks' verdict.
    pub checked: Result<Checked, String>,
    pub lower_bound: f64,
    /// Cost and columns: must repeat exactly in every round.
    pub answer: (f64, Vec<usize>),
}

/// A fixed set of jobs the harness can run in rounds.
pub trait JobSet {
    fn len(&self) -> usize;
    /// Runs job `i` as job id `job`: times it, records its spans under a
    /// root `job.solve` span, adds its layer counters to `layers` and
    /// checks its answer (the check is not timed).
    fn run(&self, i: usize, job: u64, tracer: &mut Tracer, layers: &mut Layers) -> JobResult;
}

/// Everything the rounds measured.
pub struct Rounds {
    pub round_walls: Vec<f64>,
    pub job_walls_ms: Vec<f64>,
    pub layers: Vec<Layers>,
}

impl Rounds {
    /// Each job's fastest wall time over the rounds, in ms. `job_walls_ms`
    /// holds the rounds one after another.
    pub fn best_job_ms(&self, jobs: usize) -> Vec<f64> {
        let mut best = vec![f64::INFINITY; jobs];
        for (k, &ms) in self.job_walls_ms.iter().enumerate() {
            best[k % jobs] = best[k % jobs].min(ms);
        }
        best
    }

    /// Median over rounds of one layer number.
    pub fn median_of(&self, f: impl Fn(&Layers) -> f64) -> f64 {
        stats::median(&self.layers.iter().map(f).collect::<Vec<_>>())
    }
}

/// Solves the whole set at least once and then round after round until
/// `seconds` have passed, calling `between` after each round. Round 0's
/// answers are checked and totalled into `outcome`; later rounds must
/// reproduce them exactly.
pub fn rounds(
    set: &dyn JobSet,
    seconds: f64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    between: &mut dyn FnMut(),
) -> Rounds {
    let n = set.len();
    let started = Instant::now();
    let mut first: Vec<(f64, Vec<usize>)> = Vec::with_capacity(n);
    let mut measured = Rounds {
        round_walls: Vec::new(),
        job_walls_ms: Vec::new(),
        layers: Vec::new(),
    };
    let (mut total_cost, mut total_lb, mut certified) = (0.0, 0.0, 0u64);
    while measured.round_walls.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let round = measured.round_walls.len();
        let mut layers = Layers::default();
        let mut wall = 0.0;
        for i in 0..n {
            let job = (round * n + i) as u64;
            let r = set.run(i, job, tracer, &mut layers);
            outcome.attempted += 1;
            wall += r.wall_s;
            measured.job_walls_ms.push(r.wall_s * 1e3);
            if let Err(why) = &r.checked {
                outcome.fail(format!("job {i}: {why}"));
            } else if round == 0 {
                let checked = r.checked.as_ref().expect("checked above");
                total_cost += checked.cost;
                total_lb += r.lower_bound;
                certified += u64::from(checked.certified);
            } else if first[i] != r.answer {
                outcome.fail(format!(
                    "job {i}: round {round} answer differs from round 0"
                ));
            }
            if round == 0 {
                first.push(r.answer);
            }
        }
        measured.round_walls.push(wall);
        measured.layers.push(layers);
        between();
    }
    outcome.set("total_cost", total_cost);
    outcome.set("total_lower_bound", total_lb);
    outcome.set("certified", certified as f64);
    measured
}

/// The end-to-end metrics of a round-based run. Throughput and median
/// latency take each job's fastest round: on a shared machine other
/// tenants only ever slow a job down, and a job's minimum over about ten
/// rounds moved half as much between runs of the same code as its median
/// did.
pub fn end_to_end(measured: &Rounds, jobs: usize, outcome: &mut Outcome) {
    let walls = stats::sorted(&measured.job_walls_ms);
    let best = measured.best_job_ms(jobs);
    outcome.set("jobs_per_s", jobs as f64 * 1e3 / best.iter().sum::<f64>());
    outcome.set("latency_p50_ms", stats::median(&best));
    outcome.detail_num("latency_p99_ms", stats::percentile(&walls, 0.99));
    outcome.detail_num("rounds", measured.round_walls.len() as f64);
    if let Some(q) = stats::quartiles(&measured.round_walls) {
        outcome.detail(
            "round_wall_quartiles_s",
            format!("[{},{},{}]", q[0], q[1], q[2]),
        );
    }
    outcome.detail_num("latency_samples", walls.len() as f64);
    outcome.detail_num(
        "latency_highest_supported_quantile",
        stats::highest_supported(walls.len()).unwrap_or(f64::NAN),
    );
}

/// The per-layer metrics of a traced round-based run: stage times as the
/// median over rounds (seconds per pass over the job set), counts from
/// the first round (they repeat exactly).
pub fn per_layer(measured: &Rounds, outcome: &mut Outcome) {
    let first = &measured.layers[0];
    let names = [
        "cover.implicit_reduce_s",
        "cover.explicit_reduce_s",
        "cover.partition_s",
        "core.subgradient_s",
        "core.constructive_s",
    ];
    for (k, name) in names.into_iter().enumerate() {
        outcome.set(name, measured.median_of(|l| l.phases[k]));
    }
    outcome.set(
        "logic.build_covering_s",
        measured.median_of(|l| l.build_covering_s),
    );
    outcome.set("logic.primes_s", measured.median_of(|l| l.primes_s));
    outcome.set(
        "zdd.gc_pause_s",
        measured.median_of(|l| l.zdd.gc_pause.total().as_secs_f64()),
    );
    outcome.set("core.subgradient_iters", first.subgradient_iters as f64);
    outcome.set("core.restarts", first.restarts as f64);
    outcome.set("cover.core_rows", first.core_rows as f64);
    outcome.set("cover.core_cols", first.core_cols as f64);
    outcome.set("zdd.cache_hit_rate", first.zdd.cache_hit_rate());
    outcome.set("zdd.cache_lookups", first.zdd.cache_lookups() as f64);
    outcome.set("zdd.unique_hit_rate", first.zdd.unique_hit_rate());
    outcome.set("zdd.peak_nodes", first.zdd.peak_nodes as f64);
    outcome.set("zdd.gc_runs", first.zdd.gc_runs as f64);
}

/// Runs a round-based workload. Set-up (making the inputs and warming up
/// by solving the first job once) is timed before the first round and, in
/// an untraced run, again after every round, and `setup_s` is the median.
/// A set-up takes a fraction of a second, so set-ups made back to back
/// sample the machine at one moment; these sample it over the whole run,
/// as the rounds do. The rounds run untraced for the end-to-end metrics,
/// or as an untraced and a traced half for the per-layer metrics and the
/// tracing overhead.
pub fn run<S: JobSet>(
    make: impl Fn() -> S,
    seconds: f64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) {
    let set_up = || {
        let start = Instant::now();
        let set = make();
        set.run(0, u64::MAX, &mut Tracer::new(false), &mut Layers::default());
        (set, start.elapsed().as_secs_f64())
    };
    let (set, first) = set_up();
    let mut setups = vec![first];
    measure(&set, seconds, tracer, outcome, &mut || {
        setups.push(set_up().1)
    });
    outcome.set("setup_s", stats::median(&setups));
}

fn measure(
    set: &dyn JobSet,
    seconds: f64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    set_up_again: &mut dyn FnMut(),
) {
    if !tracer.is_on() {
        let measured = rounds(set, seconds, tracer, outcome, set_up_again);
        end_to_end(&measured, set.len(), outcome);
        return;
    }
    let mut off = Tracer::new(false);
    let untraced = rounds(set, seconds / 2.0, &mut off, outcome, &mut || {});
    let traced = rounds(set, seconds / 2.0, tracer, outcome, &mut || {});
    per_layer(&traced, outcome);
    let walls = stats::sorted(&traced.job_walls_ms);
    outcome.set("job.latency_p99_ms", stats::percentile(&walls, 0.99));
    let (off_wall, on_wall) = (
        stats::median(&untraced.round_walls),
        stats::median(&traced.round_walls),
    );
    outcome.set(
        "trace.overhead_pct",
        100.0 * (on_wall - off_wall) / off_wall,
    );
    stage_gap(tracer, outcome);
}

/// Reports how far the traced solver jobs' stages fall from their wall
/// time, and fails the run beyond `STAGE_GAP_LIMIT_PCT`.
pub fn stage_gap(tracer: &Tracer, outcome: &mut Outcome) {
    let sum = tracer.stage_sum(JOB_SPAN);
    outcome.set("trace.stage_gap_pct", sum.gap_pct());
    outcome.detail_num("stage_sum_jobs", sum.jobs as f64);
    if !sum.within(crate::STAGE_GAP_LIMIT_PCT) {
        outcome.fail(format!(
            "stages sum to {:.6}s of {:.6}s solver-job wall time ({:.2}% gap)",
            sum.stages_s,
            sum.wall_s,
            sum.gap_pct()
        ));
    }
}
