//! Order statistics over latency samples.

/// The nearest-rank `p`-th percentile of ascending `sorted` samples: the
/// smallest sample with at least `p`% of all samples at or below it.
///
/// # Panics
/// Panics on an empty slice or a `p` outside `(0, 100]`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // `p * n` first: exact for whole-number percentiles, so p99 of 1000
    // samples is rank 990, not 991 through a rounding error in 0.99.
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the `p`-th percentile's rank. A percentile is
/// reported only when at least ten samples lie beyond it, so that it is not
/// set by one or two outliers.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The fewest samples for which the `p`-th percentile has ten beyond it.
pub fn min_samples(p: f64) -> usize {
    (1..).find(|&n| samples_beyond(n, p) >= 10).expect("finite")
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        assert_eq!(percentile(&samples, 99.0), 99);
        assert_eq!(percentile(&samples, 100.0), 100);
        // Nearest rank never interpolates: 4 samples, p50 is the 2nd.
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 51.0), 30);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn reported_percentiles_have_ten_samples_beyond() {
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(min_samples(50.0), 20);
        assert_eq!(samples_beyond(20, 50.0), 10);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
