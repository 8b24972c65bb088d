//! Reading the server's `/metrics` page (Prometheus text exposition).

/// One scrape of `/metrics`.
pub struct Scrape {
    samples: Vec<(String, f64)>,
}

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let samples = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.to_string(), value.parse().ok()?))
            })
            .collect();
        Scrape { samples }
    }

    /// Sum of every series of the family `name` (all label sets).
    pub fn total(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(s, _)| s == name || s.strip_prefix(name).is_some_and(|r| r.starts_with('{')))
            .map(|(_, v)| v)
            .sum()
    }

    /// The histogram family `name` (label sets other than `le` summed).
    pub fn histogram(&self, name: &str) -> Histogram {
        let prefix = format!("{name}_bucket{{");
        let mut buckets: Vec<(f64, f64)> = Vec::new();
        for (series, value) in &self.samples {
            let Some(labels) = series.strip_prefix(&prefix) else {
                continue;
            };
            let Some(le) = labels
                .split(',')
                .find_map(|kv| kv.trim_end_matches('}').strip_prefix("le=\""))
                .map(|v| v.trim_end_matches('"'))
            else {
                continue;
            };
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                match le.parse() {
                    Ok(b) => b,
                    Err(_) => continue,
                }
            };
            match buckets.iter_mut().find(|(b, _)| *b == bound) {
                Some((_, c)) => *c += value,
                None => buckets.push((bound, *value)),
            }
        }
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        Histogram { buckets }
    }
}

/// Cumulative bucket counts by upper bound, `+Inf` last.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    buckets: Vec<(f64, f64)>,
}

impl Histogram {
    pub fn count(&self) -> f64 {
        self.buckets.last().map_or(0.0, |b| b.1)
    }

    /// Observations made between `earlier` and this scrape.
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        let buckets = self
            .buckets
            .iter()
            .map(|&(b, c)| {
                let before = earlier
                    .buckets
                    .iter()
                    .find(|e| e.0 == b)
                    .map_or(0.0, |e| e.1);
                (b, c - before)
            })
            .collect();
        Histogram { buckets }
    }

    /// The `q`-quantile, interpolated geometrically inside its bucket (the
    /// buckets are log-spaced). `NaN` when empty; the largest finite bound
    /// when the rank falls in `+Inf`.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total <= 0.0 {
            return f64::NAN;
        }
        let rank = q * total;
        let mut lower = (0.0f64, 0.0f64);
        for &(bound, cum) in &self.buckets {
            if cum >= rank && cum > lower.1 {
                if bound.is_infinite() {
                    return lower.0;
                }
                let frac = (rank - lower.1) / (cum - lower.1);
                return if lower.0 > 0.0 {
                    lower.0 * (bound / lower.0).powf(frac)
                } else {
                    bound * frac
                };
            }
            lower = (bound, cum);
        }
        lower.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = "\
# HELP ucp_wait_seconds Wait
# TYPE ucp_wait_seconds histogram
ucp_wait_seconds_bucket{le=\"0.001\"} 2
ucp_wait_seconds_bucket{le=\"0.004\"} 6
ucp_wait_seconds_bucket{le=\"0.016\"} 10
ucp_wait_seconds_bucket{le=\"+Inf\"} 10
ucp_wait_seconds_sum 0.05
ucp_wait_seconds_count 10
ucp_fsyncs_total 30
ucp_rejected_total{reason=\"queue_full\"} 2
ucp_rejected_total{reason=\"tenant_quota\"} 1
";

    #[test]
    fn counters_sum_their_label_sets() {
        let s = Scrape::parse(PAGE);
        assert_eq!(s.total("ucp_fsyncs_total"), 30.0);
        assert_eq!(s.total("ucp_rejected_total"), 3.0);
        assert_eq!(s.total("ucp_missing_total"), 0.0);
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_buckets() {
        let h = Scrape::parse(PAGE).histogram("ucp_wait_seconds");
        assert_eq!(h.count(), 10.0);
        // Rank 5 sits 3/4 of the way through the (0.001, 0.004] bucket.
        let p50 = h.quantile(0.5);
        assert!((p50 - 0.001 * 4f64.powf(0.75)).abs() < 1e-12, "{p50}");
        assert!(h.quantile(0.99) <= 0.016);
        // Rank 1 of 2 in the first bucket, interpolated from zero.
        assert!((h.quantile(0.1) - 0.0005).abs() < 1e-12);
    }

    #[test]
    fn differences_isolate_a_phase() {
        let before = Scrape::parse(PAGE).histogram("ucp_wait_seconds");
        let after = Scrape::parse(&PAGE.replace("} 10\n", "} 14\n")).histogram("ucp_wait_seconds");
        let phase = after.since(&before);
        assert_eq!(phase.count(), 4.0);
        // All four new observations landed in (0.004, 0.016].
        assert!(phase.quantile(0.5) > 0.004 && phase.quantile(0.5) <= 0.016);
        assert!(Histogram { buckets: vec![] }.quantile(0.5).is_nan());
    }
}
