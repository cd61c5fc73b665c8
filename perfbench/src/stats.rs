//! Order statistics for the benchmark's timings.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_TAIL: usize = 10;

/// Percentiles the benchmark may report, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Nearest-rank position (1-based) of percentile `p` among `n` samples,
/// in integer per-mille so that e.g. p99.9 of 10 000 is exactly rank 9990.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of the ladder with at least [`MIN_TAIL`] samples
/// beyond it, or `None` when even the median has too few.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| samples_beyond(n, p) >= MIN_TAIL)
}

/// The smallest sample count at which percentile `p` has [`MIN_TAIL`]
/// samples beyond it.
pub fn samples_needed(p: f64) -> usize {
    (1..).find(|&n| samples_beyond(n, p) >= MIN_TAIL).expect("some count suffices")
}

/// Percentile `p` of unsorted `values`, interpolating linearly between
/// the two nearest order statistics.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        for n in 0..3000 {
            if let Some(p) = highest_percentile(n) {
                assert!(samples_beyond(n, p) >= MIN_TAIL, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn interpolated_quantile_and_median() {
        let v: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 90.0), 90.0);
        assert_eq!(quantile(&v, 50.0), 50.0);
        assert_eq!(quantile(&[10.0, 0.0], 25.0), 2.5);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
