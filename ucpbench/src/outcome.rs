//! What one run reports, and the small helpers every workload shares.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Failures are counted in full but only the first few are kept.
const KEPT_FAILURES: usize = 20;

/// A run's tally: jobs attempted and failed, metric values by name, and
/// detail fields (raw JSON values) printed ahead of the result line.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub details: Vec<(String, String)>,
}

impl Outcome {
    /// Counts one failed job (or failed check) and keeps its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(reason);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn detail(&mut self, key: &str, raw_json: String) {
        self.details.push((key.to_string(), raw_json));
    }

    pub fn detail_num(&mut self, key: &str, value: f64) {
        self.detail(key, json_num(value));
    }
}

/// A finite number as JSON (`null` otherwise).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// SplitMix64 over `seed` and a stream index: a well-mixed generator
/// seed for the `k`-th input drawn from a run's seed.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// Peak resident set size of this process in MB (`VmHWM`), or `NaN`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Scratch directory for journals and trace files, inside the directory
/// the benchmark runs from.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".ucpbench")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_are_seeded_and_complete() {
        let p = permutation(50, 7);
        assert_eq!(p, permutation(50, 7));
        assert_ne!(p, permutation(50, 8));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn failures_are_counted_past_the_kept_reasons() {
        let mut o = Outcome::default();
        for i in 0..30 {
            o.fail(format!("job {i}"));
        }
        assert_eq!(o.failed, 30);
        assert_eq!(o.failures.len(), KEPT_FAILURES);
    }
}
