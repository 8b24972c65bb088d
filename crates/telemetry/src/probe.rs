//! The `Probe` trait and its in-memory implementations.

use std::time::Instant;

use crate::event::Event;
use crate::phase::{Phase, PhaseTimes};

/// Instrumentation hook threaded through the solver.
///
/// Solver entry points are generic over `P: Probe` and call [`record`]
/// at interesting moments (phase boundaries, subgradient iterations,
/// penalty eliminations, column fixes, restarts). With [`NoopProbe`] —
/// the default — every call monomorphises to an empty inlined body, so
/// uninstrumented solves pay nothing.
///
/// Call sites that would do extra work just to *assemble* an event (for
/// example computing a violation norm that the solver itself does not
/// need) should guard on [`enabled`]:
///
/// ```
/// # use ucp_telemetry::{Probe, NoopProbe, Event, Phase};
/// # fn expensive_norm() -> f64 { 0.0 }
/// # let mut probe = NoopProbe;
/// # let (iter, z, lb, ub, step) = (0, 0.0, 0.0, 0.0, 1.0);
/// if probe.enabled() {
///     probe.record(Event::SubgradientIter {
///         iter, z_lambda: z, lb, ub, step,
///         violation_norm2: expensive_norm(),
///     });
/// }
/// ```
///
/// [`record`]: Probe::record
/// [`enabled`]: Probe::enabled
pub trait Probe {
    /// Receives one trace event.
    fn record(&mut self, event: Event);

    /// Whether this probe actually consumes events. `false` lets call
    /// sites skip expensive event assembly; `record` must still be safe
    /// to call regardless.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Number of events this probe failed to persist (e.g. a JSONL sink
    /// dropping lines after a sticky write error). In-memory probes never
    /// drop, so the default is 0.
    #[inline]
    fn events_dropped(&self) -> u64 {
        0
    }
}

/// Forwarding impl so helpers can take `&mut P` and hand it onward.
impl<P: Probe + ?Sized> Probe for &mut P {
    #[inline]
    fn record(&mut self, event: Event) {
        (**self).record(event);
    }

    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn events_dropped(&self) -> u64 {
        (**self).events_dropped()
    }
}

/// The do-nothing probe: instrumented code paths compile down to the
/// uninstrumented ones when monomorphised with this type.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    #[inline(always)]
    fn record(&mut self, _event: Event) {}

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// An event plus seconds elapsed since the probe was created.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedEvent {
    pub t: f64,
    pub event: Event,
}

/// Buffers timestamped events in memory.
///
/// Used by tests (assert on the event stream) and by callers that
/// post-process a solve's trace, e.g. to plot convergence.
#[derive(Debug)]
pub struct RecordingProbe {
    start: Instant,
    events: Vec<TimedEvent>,
}

impl Default for RecordingProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordingProbe {
    pub fn new() -> Self {
        RecordingProbe {
            start: Instant::now(),
            events: Vec::new(),
        }
    }

    /// All events recorded so far, in arrival order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// The lower-bound sequence carried by `SubgradientIter` events.
    pub fn lb_history(&self) -> Vec<f64> {
        self.events
            .iter()
            .filter_map(|e| match e.event {
                Event::SubgradientIter { lb, .. } => Some(lb),
                _ => None,
            })
            .collect()
    }

    /// Reconstructs the per-phase time breakdown from `PhaseEnd` events.
    pub fn phase_times(&self) -> PhaseTimes {
        let mut times = PhaseTimes::default();
        for e in &self.events {
            if let Event::PhaseEnd { phase, seconds } = e.event {
                times.add(phase, seconds);
            }
        }
        times
    }

    /// Checks that every `PhaseBegin` is closed by a matching `PhaseEnd`
    /// in LIFO order and nothing ends that never began. Returns the list
    /// of violations (empty when balanced).
    pub fn unbalanced_phases(&self) -> Vec<String> {
        let mut stack: Vec<Phase> = Vec::new();
        let mut problems = Vec::new();
        for e in &self.events {
            match e.event {
                Event::PhaseBegin { phase } => stack.push(phase),
                Event::PhaseEnd { phase, .. } => match stack.pop() {
                    Some(open) if open == phase => {}
                    Some(open) => problems.push(format!(
                        "phase_end {} while {} was open",
                        phase.name(),
                        open.name()
                    )),
                    None => problems.push(format!("phase_end {} with no open phase", phase.name())),
                },
                _ => {}
            }
        }
        for open in stack {
            problems.push(format!("phase {} never ended", open.name()));
        }
        problems
    }
}

impl Probe for RecordingProbe {
    fn record(&mut self, event: Event) {
        self.events.push(TimedEvent {
            t: self.start.elapsed().as_secs_f64(),
            event,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled() {
        let mut p = NoopProbe;
        assert!(!p.enabled());
        p.record(Event::RestartBegin { run: 0, worker: 0 }); // must be a no-op, not a panic
    }

    #[test]
    fn recording_probe_buffers_in_order() {
        let mut p = RecordingProbe::new();
        p.record(Event::PhaseBegin {
            phase: Phase::Subgradient,
        });
        p.record(Event::SubgradientIter {
            iter: 0,
            z_lambda: 1.0,
            lb: 1.0,
            ub: 5.0,
            step: 2.0,
            violation_norm2: 3.0,
        });
        p.record(Event::PhaseEnd {
            phase: Phase::Subgradient,
            seconds: 0.5,
        });
        assert_eq!(p.events().len(), 3);
        assert_eq!(p.lb_history(), vec![1.0]);
        assert!(p.unbalanced_phases().is_empty());
        assert_eq!(p.phase_times().subgradient, 0.5);
    }

    #[test]
    fn unbalanced_phases_detected() {
        let mut p = RecordingProbe::new();
        p.record(Event::PhaseBegin {
            phase: Phase::Partition,
        });
        p.record(Event::PhaseBegin {
            phase: Phase::Subgradient,
        });
        p.record(Event::PhaseEnd {
            phase: Phase::Partition,
            seconds: 0.0,
        });
        let problems = p.unbalanced_phases();
        // Out-of-order end (pops subgradient) + partition left open.
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("while"), "{problems:?}");
        assert!(problems[1].contains("never ended"), "{problems:?}");
    }

    #[test]
    fn probe_usable_through_mut_ref() {
        fn takes_probe<P: Probe>(p: &mut P) {
            p.record(Event::RestartBegin { run: 1, worker: 0 });
        }
        let mut rec = RecordingProbe::new();
        takes_probe(&mut &mut rec);
        assert_eq!(rec.events().len(), 1);
    }
}
