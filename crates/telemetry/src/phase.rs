//! Pipeline phases and the wall-clock breakdown reported per solve.

/// The phases of the ZDD_SCG pipeline, in execution order.
///
/// `PhaseBegin`/`PhaseEnd` events carry one of these; [`PhaseTimes`] keys
/// its per-phase accumulators by the same variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The paper's implicit (ZDD) reduction step; its slot now times the
    /// coverability check and the duplicate-row merge that stand in for
    /// the ZDD encode and decode.
    ImplicitReduction,
    /// Explicit essential/dominance reduction to the cyclic core.
    ExplicitReduction,
    /// Splitting the cyclic core into independent blocks.
    Partition,
    /// Two-sided subgradient ascent on the Lagrangian dual.
    Subgradient,
    /// Constructive runs: penalty tests, column fixing, rated picks.
    Constructive,
    /// Solution lifting, verification and outcome assembly.
    Postprocess,
}

impl Phase {
    /// Stable lowercase identifier used in JSONL traces.
    pub fn name(self) -> &'static str {
        match self {
            Phase::ImplicitReduction => "implicit_reduction",
            Phase::ExplicitReduction => "explicit_reduction",
            Phase::Partition => "partition",
            Phase::Subgradient => "subgradient",
            Phase::Constructive => "constructive",
            Phase::Postprocess => "postprocess",
        }
    }

    /// All phases in execution order.
    pub const ALL: [Phase; 6] = [
        Phase::ImplicitReduction,
        Phase::ExplicitReduction,
        Phase::Partition,
        Phase::Subgradient,
        Phase::Constructive,
        Phase::Postprocess,
    ];
}

/// Wall-clock seconds spent in each phase of one solve.
///
/// Partitioned solves accumulate the per-block breakdowns, so the sum can
/// reflect more than elapsed time only when blocks run in parallel; for
/// sequential solves `total()` tracks the overall solve time closely.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    pub implicit_reduction: f64,
    pub explicit_reduction: f64,
    pub partition: f64,
    pub subgradient: f64,
    pub constructive: f64,
    pub postprocess: f64,
}

impl PhaseTimes {
    /// Mutable accumulator for `phase`.
    pub fn slot(&mut self, phase: Phase) -> &mut f64 {
        match phase {
            Phase::ImplicitReduction => &mut self.implicit_reduction,
            Phase::ExplicitReduction => &mut self.explicit_reduction,
            Phase::Partition => &mut self.partition,
            Phase::Subgradient => &mut self.subgradient,
            Phase::Constructive => &mut self.constructive,
            Phase::Postprocess => &mut self.postprocess,
        }
    }

    /// Seconds recorded for `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        match phase {
            Phase::ImplicitReduction => self.implicit_reduction,
            Phase::ExplicitReduction => self.explicit_reduction,
            Phase::Partition => self.partition,
            Phase::Subgradient => self.subgradient,
            Phase::Constructive => self.constructive,
            Phase::Postprocess => self.postprocess,
        }
    }

    /// Adds `seconds` to the accumulator for `phase`.
    pub fn add(&mut self, phase: Phase, seconds: f64) {
        *self.slot(phase) += seconds;
    }

    /// Element-wise merge of another breakdown (used when aggregating
    /// partition blocks into the outcome of the whole solve).
    pub fn merge(&mut self, other: &PhaseTimes) {
        for phase in Phase::ALL {
            self.add(phase, other.get(phase));
        }
    }

    /// Total seconds across all phases.
    pub fn total(&self) -> f64 {
        Phase::ALL.iter().map(|&p| self.get(p)).sum()
    }

    /// Serialises the breakdown as a JSON object string.
    pub fn to_json(&self) -> String {
        let mut obj = crate::json::JsonObj::new();
        for phase in Phase::ALL {
            obj.field_f64(phase.name(), self.get(phase));
        }
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_total_agree() {
        let mut a = PhaseTimes::default();
        a.add(Phase::Subgradient, 1.5);
        a.add(Phase::Constructive, 0.5);
        let mut b = PhaseTimes::default();
        b.add(Phase::Subgradient, 0.25);
        b.add(Phase::ImplicitReduction, 1.0);
        a.merge(&b);
        assert_eq!(a.subgradient, 1.75);
        assert_eq!(a.implicit_reduction, 1.0);
        assert!((a.total() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn json_names_every_phase() {
        let t = PhaseTimes::default();
        let json = t.to_json();
        for phase in Phase::ALL {
            assert!(
                json.contains(phase.name()),
                "{json} missing {}",
                phase.name()
            );
        }
    }
}
