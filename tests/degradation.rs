//! Governed-mode degradation: a starved ZDD node budget must not change
//! the answer. The solve falls back to the explicit reductions, reports
//! the fallback exactly once through telemetry, and lands on the same
//! cover cost as the unbudgeted route.

use ucp::ucp_core::{Preset, Scg, SolveRequest};
use ucp::ucp_telemetry::{Event, RecordingProbe};
use ucp::workloads::suite;

#[test]
fn starved_budget_degrades_without_changing_the_cost() {
    let instances = suite::difficult_cyclic();
    assert!(instances.len() >= 3, "suite shrank under the test's feet");
    for inst in instances.iter().take(3) {
        let base = Preset::Fast.options();
        let unbudgeted =
            Scg::run(SolveRequest::for_matrix(&inst.matrix).options(base)).expect("no cancel flag");

        // The difficult cores are within MaxR/MaxC, which skips the ZDD;
        // MaxR = MaxC = 0 sends them through the implicit phase.
        let mut starved = base;
        starved.core.max_rows = 0;
        starved.core.max_cols = 0;
        starved.core.kernel = starved.core.kernel.node_budget(16);
        let mut probe = RecordingProbe::new();
        let out = Scg::run(
            SolveRequest::for_matrix(&inst.matrix)
                .options(starved)
                .probe(&mut probe),
        )
        .expect("no cancel flag");

        assert!(
            out.degraded,
            "{}: a 16-node budget must trip the explicit fallback",
            inst.name
        );
        assert!(
            out.solution.is_feasible(&inst.matrix),
            "{}: degraded cover infeasible",
            inst.name
        );
        assert_eq!(
            out.cost, unbudgeted.cost,
            "{}: the degraded route changed the cover cost",
            inst.name
        );
        let degraded_events = probe
            .events()
            .iter()
            .filter(|e| matches!(e.event, Event::Degraded { .. }))
            .count();
        assert_eq!(
            degraded_events, 1,
            "{}: exactly one Degraded event per fallback",
            inst.name
        );
        assert!(
            probe.unbalanced_phases().is_empty(),
            "{}: degradation unbalanced the phase trace: {:?}",
            inst.name,
            probe.unbalanced_phases()
        );
    }
}

#[test]
fn unbudgeted_solves_never_degrade() {
    let inst = &suite::difficult_cyclic()[0];
    let out = Scg::run(SolveRequest::for_matrix(&inst.matrix).options(Preset::Fast.options()))
        .expect("no cancel flag");
    assert!(!out.degraded);
    assert_eq!(out.dropped_events, 0);
}
