//! Registry-backed solver metrics: the bridge from one-shot
//! [`ScgOutcome`] snapshots to the accumulating counters, gauges and
//! histograms a long-lived process exposes.
//!
//! The solver itself stays metrics-free — phases keep their cheap
//! plain-field counters ([`ucp_telemetry::PhaseTimes`]) so a bare
//! `Scg::run` pays nothing. A [`SolveMetrics`] value holds `Arc` handles
//! into a `ucp_metrics::Registry`; calling [`SolveMetrics::record`] once
//! per finished solve folds that solve's outcome into the registry:
//! per-phase duration histograms and the subgradient iteration
//! distribution. `ucp-engine` embeds one per worker pool; `ucp solve
//! --metrics` uses a throwaway registry for a single solve.

use crate::scg::ScgOutcome;
use std::sync::Arc;
use ucp_metrics::{Counter, Gauge, Histogram, Registry};
use ucp_telemetry::Phase;

/// Handles for every solver-level metric family, resolved once at
/// registration so [`SolveMetrics::record`] is lock-free.
#[derive(Clone)]
pub struct SolveMetrics {
    solves: Arc<Counter>,
    proven_optimal: Arc<Counter>,
    infeasible: Arc<Counter>,
    dropped_events: Arc<Counter>,
    solve_seconds: Arc<Histogram>,
    phase_seconds: Vec<(Phase, Arc<Histogram>)>,
    subgradient_iterations: Arc<Histogram>,
    last_lower_bound: Arc<Gauge>,
    last_cost: Arc<Gauge>,
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
        }
    }

    /// Folds one finished solve into the registry.
    pub fn record(&self, out: &ScgOutcome) {
        self.solves.inc();
        if out.proven_optimal {
            self.proven_optimal.inc();
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
        let out = Scg::run(SolveRequest::for_matrix(&m)).unwrap();
        metrics.record(&out);

        let text = registry.render_prometheus();
        assert!(text.contains("ucp_core_solves_total 1"));
        assert!(text.contains("ucp_core_solve_seconds_count 1"));
        assert!(text.contains("ucp_core_last_cost 5"));
        assert!(text.contains("phase=\"subgradient\""));
        assert!(!text.contains("ucp_zdd_"), "no ZDD family is registered");
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
