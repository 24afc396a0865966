//! Order statistics over latency samples.

/// The `p`-th percentile (0 < p ≤ 100) of `samples` by the nearest-rank
/// rule: the smallest sample with at least `p` % of the samples at or
/// below it. Panics on an empty slice — a phase that completed nothing
/// has already failed its correctness check.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile out of range");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail percentile this benchmark reports for `n` samples: 99 when
/// at least ten samples lie beyond it, otherwise the highest percentile
/// that still has ten beyond it, and the maximum when `n` ≤ 10.
pub fn tail_percentile(n: usize) -> f64 {
    if n <= 10 {
        return 100.0;
    }
    (100.0 * (n - 10) as f64 / n as f64).min(99.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.5), 1.0);
        // Order of the input does not matter.
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&shuffled, 50.0), 3.0);
        assert_eq!(percentile(&shuffled, 90.0), 5.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(7), 100.0);
        assert_eq!(tail_percentile(10), 100.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(80_000), 99.0);
    }
}
