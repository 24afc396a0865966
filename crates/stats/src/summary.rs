//! Percentiles and summary statistics over f64 samples.

/// Summary statistics of a sample set.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Builds a summary from samples (NaNs are dropped).
    pub fn from(samples: impl IntoIterator<Item = f64>) -> Summary {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Summary { sorted }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean (0 for empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Minimum (0 for empty).
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Maximum (0 for empty).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// The `p`-th percentile (0–100), nearest-rank method.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        let idx = rank.max(1).min(self.sorted.len()) - 1;
        self.sorted[idx]
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let s = Summary::from((1..=100).map(|x| x as f64));
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(1.0), 1.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
        assert_eq!(s.median(), 50.0);
    }

    #[test]
    fn empty_is_zeroes() {
        let s = Summary::from([]);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(90.0), 0.0);
    }

    #[test]
    fn nan_dropped() {
        let s = Summary::from([1.0, f64::NAN, 3.0]);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::from([7.0]);
        assert_eq!(s.percentile(1.0), 7.0);
        assert_eq!(s.percentile(99.0), 7.0);
    }
}
