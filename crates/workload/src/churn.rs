//! Record-change (churn) processes (paper §2, Fig 1b).
//!
//! The paper observed each record for 300 consecutive TTL intervals and
//! counted changes between lexicographically ordered samples (countering
//! round-robin reordering):
//!
//! > "the lower the TTL the more changes are performed: while TTLs of
//! > 300 s and below show a high change rate with at least 71 changes in
//! > the 90th percentile over 300 subsequent observations, TTLs of 600 s
//! > and above show no changes at all up to the same percentile."
//!
//! [`ChurnModel`] assigns each domain a per-observation change probability
//! drawn from a TTL-dependent mixture: low-TTL records are a mix of static
//! domains and highly dynamic (CDN load-balanced) domains; high-TTL
//! records are almost all static.

use moqdns_dns::rdata::RData;
use moqdns_dns::rr::Record;
use rand::rngs::StdRng;
use rand::Rng;
use std::net::Ipv4Addr;

/// Per-TTL-cluster churn mixture.
#[derive(Debug, Clone, Copy)]
pub struct ChurnModel {
    /// Fraction of low-TTL (≤ 300 s) domains that are dynamic.
    pub low_ttl_dynamic_fraction: f64,
    /// Per-observation change probability range for dynamic domains.
    pub dynamic_rate: (f64, f64),
    /// Fraction of high-TTL (≥ 600 s) domains that ever change.
    pub high_ttl_dynamic_fraction: f64,
    /// Per-observation change probability for the rare high-TTL changers.
    pub high_ttl_rate: f64,
}

impl Default for ChurnModel {
    fn default() -> ChurnModel {
        ChurnModel {
            // Calibrated so the p90 of changes over 300 observations for
            // TTL ≤ 300 lands at ≥ 71 (Fig 1b) while the median stays low.
            low_ttl_dynamic_fraction: 0.35,
            dynamic_rate: (0.25, 0.95),
            high_ttl_dynamic_fraction: 0.02,
            high_ttl_rate: 0.01,
        }
    }
}

impl ChurnModel {
    /// Draws the per-observation change probability for a domain whose
    /// record has the given TTL.
    pub fn sample_rate(&self, ttl: u32, rng: &mut StdRng) -> f64 {
        if ttl <= 300 {
            if rng.random::<f64>() < self.low_ttl_dynamic_fraction {
                rng.random_range(self.dynamic_rate.0..self.dynamic_rate.1)
            } else {
                0.0
            }
        } else if rng.random::<f64>() < self.high_ttl_dynamic_fraction {
            self.high_ttl_rate
        } else {
            0.0
        }
    }

    /// Simulates the paper's §2 methodology for one domain: `observations`
    /// samples spaced one TTL apart, returning the number of changes
    /// between lexicographically ordered consecutive samples.
    pub fn simulate_observations(&self, ttl: u32, observations: usize, rng: &mut StdRng) -> usize {
        let rate = self.sample_rate(ttl, rng);
        let mut churner = RecordChurner::new(rng.random(), rate);
        let mut changes = 0;
        let mut prev = churner.canonical();
        for _ in 1..observations {
            churner.step(rng);
            let cur = churner.canonical();
            if cur != prev {
                changes += 1;
            }
            prev = cur;
        }
        changes
    }
}

/// Evolves one domain's A record set over time; used both by the Fig 1b
/// analysis and by the live experiments that mutate zones.
#[derive(Debug, Clone)]
pub struct RecordChurner {
    /// Current addresses (the record set).
    addrs: Vec<Ipv4Addr>,
    /// Per-step change probability.
    rate: f64,
    /// Counter for generating fresh addresses.
    counter: u32,
}

impl RecordChurner {
    /// Creates a churner with a seed-derived initial record set.
    pub fn new(seed: u32, rate: f64) -> RecordChurner {
        let base = Ipv4Addr::from(0xC633_0000 | (seed & 0xFFFF)); // 198.51.x.y
        RecordChurner {
            addrs: vec![base],
            rate,
            counter: seed,
        }
    }

    /// Advances one observation interval; the record set may change.
    /// Returns true if it did.
    pub fn step(&mut self, rng: &mut StdRng) -> bool {
        if rng.random::<f64>() >= self.rate {
            // Round-robin reorder without content change (the bias the
            // paper's lexicographic comparison cancels out).
            self.addrs.rotate_left(1);
            return false;
        }
        self.counter = self.counter.wrapping_add(1);
        let fresh = Ipv4Addr::from(0xC633_0000 | (self.counter & 0xFFFF));
        self.addrs = vec![fresh];
        true
    }

    /// Lexicographically ordered sample (the paper's comparison key).
    pub fn canonical(&self) -> Vec<String> {
        let mut v: Vec<String> = self.addrs.iter().map(|a| a.to_string()).collect();
        v.sort();
        v
    }

    /// Current record set as DNS records.
    pub fn records(&self, name: &moqdns_dns::name::Name, ttl: u32) -> Vec<Record> {
        self.addrs
            .iter()
            .map(|a| Record::new(name.clone(), ttl, RData::A(*a)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Reproduce Fig 1b's headline numbers from the synthetic model.
    #[test]
    fn fig1b_percentiles_match_paper_shape() {
        let model = ChurnModel::default();
        let mut rng = StdRng::seed_from_u64(11);
        let mut low: Vec<usize> = Vec::new();
        let mut high: Vec<usize> = Vec::new();
        for _ in 0..500 {
            low.push(model.simulate_observations(300, 300, &mut rng));
            high.push(model.simulate_observations(600, 300, &mut rng));
        }
        low.sort_unstable();
        high.sort_unstable();
        let p90_low = low[(0.9 * low.len() as f64) as usize];
        let p90_high = high[(0.9 * high.len() as f64) as usize];
        assert!(
            p90_low >= 71,
            "TTL ≤ 300: ≥71 changes at p90 (got {p90_low})"
        );
        assert_eq!(
            p90_high, 0,
            "TTL ≥ 600: no changes up to p90 (got {p90_high})"
        );
    }

    #[test]
    fn low_ttl_has_static_majority() {
        // The paper's median change count for low TTLs is modest: only a
        // minority of domains are highly dynamic.
        let model = ChurnModel::default();
        let mut rng = StdRng::seed_from_u64(12);
        let zeros = (0..500)
            .filter(|_| model.simulate_observations(60, 300, &mut rng) == 0)
            .count();
        assert!(zeros > 250, "most low-TTL domains are static ({zeros}/500)");
    }

    #[test]
    fn rotation_does_not_count_as_change() {
        // Round-robin reordering must not register as churn (the paper's
        // lexicographic-comparison methodology).
        let mut churner = RecordChurner::new(7, 0.0);
        churner.addrs = vec![Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2)];
        let mut rng = StdRng::seed_from_u64(0);
        let before = churner.canonical();
        let changed = churner.step(&mut rng);
        assert!(!changed);
        assert_eq!(churner.canonical(), before);
        // But the raw order did rotate.
        assert_eq!(churner.addrs[0], Ipv4Addr::new(2, 2, 2, 2));
    }

    #[test]
    fn full_rate_changes_every_step() {
        let mut churner = RecordChurner::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut changes = 0;
        let mut prev = churner.canonical();
        for _ in 0..50 {
            churner.step(&mut rng);
            let cur = churner.canonical();
            if cur != prev {
                changes += 1;
            }
            prev = cur;
        }
        assert_eq!(changes, 50);
    }

    #[test]
    fn records_materialize() {
        let churner = RecordChurner::new(9, 0.5);
        let name: moqdns_dns::name::Name = "x.com".parse().unwrap();
        let recs = churner.records(&name, 300);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].ttl, 300);
    }
}
