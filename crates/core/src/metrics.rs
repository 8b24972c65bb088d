//! Registry-backed solver metrics: the bridge from one-shot
//! [`ScgOutcome`] snapshots to the accumulating counters, gauges and
//! histograms a long-lived process exposes.
//!
//! The solver itself stays metrics-free — phases and the ZDD kernel keep
//! their cheap plain-field counters ([`ucp_telemetry::PhaseTimes`],
//! `ZddStats`) so a
//! bare `Scg::run` pays nothing. A [`SolveMetrics`] value holds `Arc`
//! handles into a `ucp_metrics::Registry`; calling
//! [`SolveMetrics::record`] once per finished solve folds that solve's
//! outcome into the registry: per-phase duration histograms, the
//! subgradient iteration distribution, kernel cache/unique-table
//! traffic and the GC pause histogram (bridged bucket-for-bucket from
//! `GcPauseHistogram`). `ucp-engine` embeds one per worker pool;
//! `ucp solve --metrics` uses a throwaway registry for a single solve.

use crate::scg::ScgOutcome;
use cover::GcPauseHistogram;
use std::sync::Arc;
use ucp_metrics::{Counter, Gauge, Histogram, Registry};
use ucp_telemetry::Phase;

/// Handles for every solver-level metric family, resolved once at
/// registration so [`SolveMetrics::record`] is lock-free.
#[derive(Clone)]
pub struct SolveMetrics {
    solves: Arc<Counter>,
    proven_optimal: Arc<Counter>,
    degraded: Arc<Counter>,
    infeasible: Arc<Counter>,
    dropped_events: Arc<Counter>,
    solve_seconds: Arc<Histogram>,
    phase_seconds: Vec<(Phase, Arc<Histogram>)>,
    subgradient_iterations: Arc<Histogram>,
    last_lower_bound: Arc<Gauge>,
    last_cost: Arc<Gauge>,
    zdd_unique_hits: Arc<Counter>,
    zdd_unique_misses: Arc<Counter>,
    zdd_cache_hits: Arc<Counter>,
    zdd_cache_misses: Arc<Counter>,
    zdd_cache_evictions: Arc<Counter>,
    zdd_unique_relocations: Arc<Counter>,
    zdd_gc_runs: Arc<Counter>,
    zdd_gc_reclaimed: Arc<Counter>,
    zdd_live_nodes: Arc<Gauge>,
    zdd_peak_nodes: Arc<Gauge>,
    zdd_gc_pause_seconds: Arc<Histogram>,
}

impl SolveMetrics {
    /// Registers (or re-resolves — registration is idempotent) the
    /// solver metric families on `registry`.
    pub fn register(registry: &Registry) -> Self {
        let phase_seconds = Phase::ALL
            .iter()
            .map(|&phase| {
                (
                    phase,
                    registry.histogram_with(
                        "ucp_core_phase_seconds",
                        "Wall-clock time per solve in each pipeline phase",
                        &Histogram::latency_buckets(),
                        &[("phase", phase.name())],
                    ),
                )
            })
            .collect();
        SolveMetrics {
            solves: registry.counter("ucp_core_solves_total", "Solves recorded"),
            proven_optimal: registry.counter(
                "ucp_core_proven_optimal_total",
                "Solves that closed the optimality certificate",
            ),
            degraded: registry.counter(
                "ucp_core_degraded_total",
                "Solves that fell back from the implicit to the explicit path",
            ),
            infeasible: registry.counter(
                "ucp_core_infeasible_total",
                "Solves whose instance had no cover",
            ),
            dropped_events: registry.counter(
                "ucp_core_dropped_events_total",
                "Trace events dropped by bounded telemetry sinks",
            ),
            solve_seconds: registry.histogram(
                "ucp_core_solve_seconds",
                "End-to-end solve wall-clock time",
                &Histogram::latency_buckets(),
            ),
            phase_seconds,
            subgradient_iterations: registry.histogram(
                "ucp_core_subgradient_iterations",
                "Subgradient ascent iterations per solve (all ascents summed)",
                &Histogram::log_buckets(1.0, 2.0, 17),
            ),
            last_lower_bound: registry.gauge(
                "ucp_core_last_lower_bound",
                "Lagrangian lower bound of the most recent solve",
            ),
            last_cost: registry.gauge("ucp_core_last_cost", "Cover cost of the most recent solve"),
            zdd_unique_hits: registry.counter(
                "ucp_zdd_unique_hits_total",
                "Unique-table lookups that found an existing node",
            ),
            zdd_unique_misses: registry.counter(
                "ucp_zdd_unique_misses_total",
                "Unique-table lookups that interned a fresh node",
            ),
            zdd_cache_hits: registry.counter(
                "ucp_zdd_cache_hits_total",
                "Computed-cache lookups that found a memoised result",
            ),
            zdd_cache_misses: registry.counter(
                "ucp_zdd_cache_misses_total",
                "Computed-cache lookups that missed",
            ),
            zdd_cache_evictions: registry.counter(
                "ucp_zdd_cache_evictions_total",
                "Memoised results overwritten by colliding cache entries",
            ),
            zdd_unique_relocations: registry.counter(
                "ucp_zdd_unique_relocations_total",
                "Entries moved by incremental unique-table rehashing",
            ),
            zdd_gc_runs: registry.counter("ucp_zdd_gc_runs_total", "Garbage collections performed"),
            zdd_gc_reclaimed: registry.counter(
                "ucp_zdd_gc_reclaimed_nodes_total",
                "Nodes reclaimed across all collections",
            ),
            zdd_live_nodes: registry.gauge(
                "ucp_zdd_live_nodes",
                "Live nodes in the most recent solve's manager at snapshot time",
            ),
            zdd_peak_nodes: registry.gauge(
                "ucp_zdd_peak_nodes",
                "High-water mark of live nodes across recorded solves",
            ),
            zdd_gc_pause_seconds: registry.histogram(
                "ucp_zdd_gc_pause_seconds",
                "Garbage-collection pause times",
                &GcPauseHistogram::bounds_seconds(),
            ),
        }
    }

    /// Folds one finished solve into the registry.
    pub fn record(&self, out: &ScgOutcome) {
        self.solves.inc();
        if out.proven_optimal {
            self.proven_optimal.inc();
        }
        if out.degraded {
            self.degraded.inc();
        }
        if out.infeasible {
            self.infeasible.inc();
        }
        self.dropped_events.add(out.dropped_events);
        self.solve_seconds.observe_duration(out.total_time);
        for (phase, hist) in &self.phase_seconds {
            let secs = out.phase_times.get(*phase);
            if secs > 0.0 {
                hist.observe(secs);
            }
        }
        self.subgradient_iterations
            .observe(out.subgradient_iterations as f64);
        self.last_lower_bound.set(out.lower_bound);
        self.last_cost.set(out.cost);

        let z = &out.zdd_stats;
        self.zdd_unique_hits.add(z.unique_hits);
        self.zdd_unique_misses.add(z.unique_misses);
        self.zdd_cache_hits.add(z.cache_hits);
        self.zdd_cache_misses.add(z.cache_misses);
        self.zdd_cache_evictions.add(z.cache_evictions);
        self.zdd_unique_relocations.add(z.unique_relocations);
        self.zdd_gc_runs.add(z.gc_runs);
        self.zdd_gc_reclaimed.add(z.gc_reclaimed);
        self.zdd_live_nodes.set(z.live_nodes as f64);
        self.zdd_peak_nodes.set_max(z.peak_nodes as f64);
        self.zdd_gc_pause_seconds
            .absorb(&z.gc_pause.counts(), z.gc_pause.total().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SolveRequest;
    use crate::scg::Scg;
    use cover::CoverMatrix;

    fn cycle(n: usize) -> CoverMatrix {
        CoverMatrix::from_rows(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
    }

    #[test]
    fn recording_a_solve_populates_the_families() {
        let registry = Registry::new();
        let metrics = SolveMetrics::register(&registry);
        let m = cycle(9);
        // cycle(9) is within MaxR/MaxC, which skips the ZDD; MaxR = MaxC
        // = 0 sends it through the implicit phase.
        let mut opts = crate::ScgOptions::default();
        opts.core.max_rows = 0;
        opts.core.max_cols = 0;
        let out = Scg::run(SolveRequest::for_matrix(&m).options(opts)).unwrap();
        metrics.record(&out);

        let text = registry.render_prometheus();
        assert!(text.contains("ucp_core_solves_total 1"));
        assert!(text.contains("ucp_core_solve_seconds_count 1"));
        assert!(text.contains("ucp_core_last_cost 5"));
        assert!(text.contains("phase=\"subgradient\""));
        // Kernel counters flow through from ZddStats. Encoding the row
        // family interns nodes without probing the memo cache, so the
        // unique-table misses are the witness that the kernel ran.
        assert!(out.zdd_stats.unique_misses > 0);
        let snap = registry.snapshot();
        let counter = |name: &str| {
            snap.iter()
                .find(|s| s.name == name)
                .and_then(|s| s.as_counter())
                .unwrap()
        };
        assert_eq!(
            counter("ucp_zdd_unique_misses_total"),
            out.zdd_stats.unique_misses
        );
        assert_eq!(
            counter("ucp_zdd_cache_hits_total"),
            out.zdd_stats.cache_hits
        );
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let registry = Registry::new();
        let a = SolveMetrics::register(&registry);
        let b = SolveMetrics::register(&registry);
        a.solves.inc();
        b.solves.inc();
        assert_eq!(a.solves.get(), 2, "both handles hit the same series");
    }

    #[test]
    fn iteration_histogram_reconciles_with_outcomes() {
        let registry = Registry::new();
        let metrics = SolveMetrics::register(&registry);
        let m = cycle(7);
        let mut total = 0u64;
        for _ in 0..3 {
            let out = Scg::run(SolveRequest::for_matrix(&m)).unwrap();
            total += out.subgradient_iterations as u64;
            metrics.record(&out);
        }
        let snap = registry.snapshot();
        let iters = snap
            .iter()
            .find(|s| s.name == "ucp_core_subgradient_iterations")
            .and_then(|s| s.as_histogram().cloned())
            .unwrap();
        assert_eq!(iters.count(), 3);
        assert_eq!(iters.sum, total as f64);
    }
}
