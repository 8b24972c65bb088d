//! Order statistics over timing samples.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (its default `exclusive` method), so a spread computed here matches a
//! spread computed from the printed results.

/// Sorted copy of `values` (total order, so NaN cannot poison a sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `NaN` for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, as `statistics.quantiles(values,
/// n=4)` computes them. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank `q`-quantile (0 < q ≤ 1) of already sorted samples;
/// `NaN` for no samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q`-quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil().max(1.0) as usize;
    n.saturating_sub(rank.min(n))
}

/// The highest of the usual tail percentiles (p99.9, p99, p90, p50)
/// that has at least ten samples beyond it, as its fraction; `None` when
/// even the median lacks ten.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| beyond(n, q) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some([2.0, 5.0, 8.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond it.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(19), None);
    }
}
