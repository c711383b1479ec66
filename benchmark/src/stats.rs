//! Order statistics: nearest-rank percentiles, medians, the quartiles the
//! comparison reports, and the windowed estimators the serve workloads
//! use.

use std::collections::BTreeMap;

/// `values` sorted ascending (total order; NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least a `p` share of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0, 1]");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, averaging the two middle samples of an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method), with the median taken
/// as [`median`] does. A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let s = sorted(values);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), median(values), cut(3))
}

/// The median over fixed time windows of each window's nearest-rank `q`
/// quantile.
///
/// `samples` pairs a window index with a value. Windows with fewer than
/// `min_per_window` samples are skipped; for a p99 a floor of 10 000 keeps
/// 100 samples beyond every window's p99. A host stall that wrecks one
/// window then moves one of many window quantiles, not the result. `None`
/// when no window qualifies.
pub fn windowed(samples: &[(u32, f32)], q: f64, min_per_window: usize) -> Option<f64> {
    let mut windows: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for &(w, v) in samples {
        windows.entry(w).or_default().push(f64::from(v));
    }
    let per_window: Vec<f64> = windows
        .values()
        .filter(|v| !v.is_empty() && v.len() >= min_per_window)
        .map(|v| percentile(&sorted(v), q))
        .collect();
    (!per_window.is_empty()).then(|| median(&per_window))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rank_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // Ten samples: p99 is the largest, p50 the fifth.
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), 10.0);
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_averages_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn windowed_quantiles_ignore_one_stalled_window() {
        // Nine windows of steady 100 µs latencies with a 1% tail at 300 µs,
        // and one window in which a host stall pushed a fifth of the
        // samples to 60 ms.
        let mut samples = Vec::new();
        for w in 0..10u32 {
            for i in 0..1000 {
                let v = if w == 4 && i % 5 == 0 {
                    60_000.0
                } else if i % 100 == 99 {
                    300.0
                } else {
                    100.0
                };
                samples.push((w, v));
            }
        }
        let whole = percentile(
            &sorted(&samples.iter().map(|s| f64::from(s.1)).collect::<Vec<_>>()),
            0.99,
        );
        assert_eq!(whole, 60_000.0, "the raw p99 is wrecked by the stall");
        assert_eq!(windowed(&samples, 0.99, 1000), Some(100.0));
        assert_eq!(windowed(&samples, 0.5, 1000), Some(100.0));
        // A window below the sample floor does not count at all.
        samples.push((11, 1e9));
        assert_eq!(windowed(&samples, 0.99, 1000), Some(100.0));
        assert_eq!(windowed(&samples, 0.99, 2000), None);
    }
}
