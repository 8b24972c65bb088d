//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is named `layer.call`, carries its start and end (seconds from
//! the tracer's origin), its parent and the job it belongs to. Spans are
//! kept in memory and written out as JSON lines when the run ends. Stage
//! timings a layer returns as counters (the solver's `phase_times`) are
//! laid out end to end inside the span of the call that returned them.
//!
//! With tracing off every method is a no-op, so workload code records
//! spans unconditionally.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;
use ucp_telemetry::JsonObj;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `core.run` or `logic.build_covering`.
    pub name: &'static str,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin.
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The job the span belongs to.
    pub job: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when on; does nothing when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records a span that ran from `start` to `end`. `None` when off.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            job,
        })
    }

    /// Lays `stages` (name, seconds) end to end from the start of
    /// `parent`, as its children.
    pub fn stages(&mut self, parent: Option<SpanId>, stages: &[(&'static str, f64)]) {
        let Some(p) = parent else { return };
        let (mut t, job) = (self.spans[p].start, self.spans[p].job);
        for &(name, secs) in stages {
            self.push(Span {
                name,
                start: t,
                end: t + secs,
                parent: Some(p),
                job,
            });
            t += secs;
        }
    }

    fn push(&mut self, span: Span) -> Option<SpanId> {
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Self time per layer: each span's duration minus the part of it
    /// that its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let children = self.children();
        let mut out = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let mut kids: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        self.spans[c].start.max(span.start),
                        self.spans[c].end.min(span.end),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, span.start);
            for (a, b) in kids {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            *out.entry(span.layer()).or_insert(0.0) += span.secs() - covered;
        }
        out
    }

    /// Wall time of every root span named `root` against the summed
    /// durations of the leaf spans under it.
    pub fn stage_sum(&self, root: &str) -> StageSum {
        let children = self.children();
        let mut sum = StageSum::default();
        for (i, span) in self.spans.iter().enumerate() {
            if span.parent.is_some() || span.name != root {
                continue;
            }
            let mut stages = 0.0;
            let mut stack = children[i].clone();
            while let Some(c) = stack.pop() {
                if children[c].is_empty() {
                    stages += self.spans[c].secs();
                } else {
                    stack.extend_from_slice(&children[c]);
                }
            }
            sum.add(span.secs(), stages);
        }
        sum
    }

    fn children(&self) -> Vec<Vec<SpanId>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        children
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let mut o = JsonObj::new();
            o.field_u64("id", i as u64)
                .field_str("name", s.name)
                .field_f64("start", s.start)
                .field_f64("end", s.end)
                .field_u64("job", s.job);
            if let Some(p) = s.parent {
                o.field_u64("parent", p as u64);
            }
            writeln!(out, "{}", o.finish())?;
        }
        out.flush()
    }
}

/// Measured job wall time against the sum of its stages.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageSum {
    pub jobs: u64,
    pub wall_s: f64,
    pub stages_s: f64,
}

impl StageSum {
    pub fn add(&mut self, wall_s: f64, stages_s: f64) {
        self.jobs += 1;
        self.wall_s += wall_s;
        self.stages_s += stages_s;
    }

    /// `|wall − stages| / wall`, in percent.
    pub fn gap_pct(&self) -> f64 {
        if self.wall_s > 0.0 {
            100.0 * (self.wall_s - self.stages_s).abs() / self.wall_s
        } else {
            0.0
        }
    }

    /// Whether the stages account for the wall time within `pct` percent.
    pub fn within(&self, pct: f64) -> bool {
        self.jobs > 0 && self.gap_pct() <= pct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A job of `wall` seconds with one call holding `stages` as children.
    fn job(t: &mut Tracer, origin: Instant, wall: f64, stages: &[(&'static str, f64)]) {
        let end = origin + Duration::from_secs_f64(wall);
        let root = t.record("job.solve", None, 1, origin, end);
        let call = t.record("core.run", root, 1, origin, end);
        t.stages(call, stages);
    }

    #[test]
    fn stages_that_cover_the_wall_pass() {
        let mut t = Tracer::new(true);
        let origin = t.origin;
        job(
            &mut t,
            origin,
            1.0,
            &[("cover.reduce", 0.3), ("core.subgradient", 0.68)],
        );
        let sum = t.stage_sum("job.solve");
        assert_eq!(sum.jobs, 1);
        assert!((sum.gap_pct() - 2.0).abs() < 1e-9);
        assert!(sum.within(5.0));
    }

    #[test]
    fn stages_that_miss_the_wall_fail() {
        // The stages account for 0.8 s of a 1 s job: a 20% gap.
        let mut t = Tracer::new(true);
        let origin = t.origin;
        job(
            &mut t,
            origin,
            1.0,
            &[("cover.reduce", 0.3), ("core.subgradient", 0.5)],
        );
        let sum = t.stage_sum("job.solve");
        assert!((sum.gap_pct() - 20.0).abs() < 1e-9);
        assert!(!sum.within(5.0));
        // Stages that overshoot the wall miss it too.
        let mut over = StageSum::default();
        over.add(1.0, 1.2);
        assert!(!over.within(5.0));
        assert!(!StageSum::default().within(5.0), "no jobs proves nothing");
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new(true);
        let origin = t.origin;
        job(
            &mut t,
            origin,
            1.0,
            &[("cover.reduce", 0.25), ("core.subgradient", 0.5)],
        );
        let selfs = t.self_times();
        // `job` is fully covered by `core.run`; `core.run` keeps the 0.25 s
        // its stages leave uncovered plus the subgradient's 0.5 s.
        assert!(selfs["job"].abs() < 1e-9);
        assert!((selfs["core"] - 0.75).abs() < 1e-9);
        assert!((selfs["cover"] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        let id = t.record("core.run", None, 0, now, now);
        assert_eq!(id, None);
        t.stages(id, &[("core.subgradient", 1.0)]);
        assert!(t.spans().is_empty());
    }
}
