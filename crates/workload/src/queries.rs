//! Query arrival processes.

use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;

/// A Poisson arrival process (exponential inter-arrivals).
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    /// Mean arrivals per second.
    pub rate_per_sec: f64,
}

impl PoissonArrivals {
    /// Creates a process with `rate_per_sec` mean arrivals per second.
    pub fn new(rate_per_sec: f64) -> PoissonArrivals {
        PoissonArrivals { rate_per_sec }
    }

    /// Draws the next inter-arrival gap.
    pub fn next_gap(&self, rng: &mut StdRng) -> Duration {
        let u: f64 = rng.random::<f64>().max(1e-12);
        let secs = -u.ln() / self.rate_per_sec;
        Duration::from_secs_f64(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_rate() {
        let p = PoissonArrivals::new(10.0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut arrivals = Vec::new();
        let mut t = p.next_gap(&mut rng);
        while t < Duration::from_secs(1000) {
            arrivals.push(t);
            t += p.next_gap(&mut rng);
        }
        // Expect ~10_000 arrivals; ±5%.
        assert!(
            (9_500..=10_500).contains(&arrivals.len()),
            "{}",
            arrivals.len()
        );
        // Strictly increasing offsets.
        for w in arrivals.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
