//! TTL assignment (paper §2, Fig 1a).
//!
//! Observed TTLs "naturally cluster in the TTLs [20, 60, 300, 600, 1200,
//! 3600] s for A and AAAA records; notably, HTTPS records are observed
//! almost exclusively with a TTL of 300 s". The per-cluster weights below
//! are calibrated to reproduce the qualitative shape of Fig 1a: 300 s
//! dominating, meaningful mass at 20/60 s (CDN-style low TTLs), and a
//! long-TTL tail.

use moqdns_dns::rr::RecordType;
use rand::rngs::StdRng;
use rand::Rng;

/// The observed TTL clusters, seconds.
pub const TTL_CLUSTERS: [u32; 6] = [20, 60, 300, 600, 1200, 3600];

/// Per-type TTL distribution over [`TTL_CLUSTERS`].
#[derive(Debug, Clone)]
pub struct TtlModel {
    /// Weights per cluster for A records.
    pub a_weights: [f64; 6],
    /// Weights per cluster for AAAA records.
    pub aaaa_weights: [f64; 6],
    /// Weights per cluster for HTTPS records.
    pub https_weights: [f64; 6],
}

impl Default for TtlModel {
    fn default() -> TtlModel {
        TtlModel {
            // A: low-TTL mass from CDN-backed domains, 300 s default bulge,
            // long tail up to an hour.
            a_weights: [0.10, 0.15, 0.40, 0.12, 0.05, 0.18],
            // AAAA: similar shape (the paper observes the same clusters).
            aaaa_weights: [0.08, 0.13, 0.42, 0.13, 0.05, 0.19],
            // HTTPS: "almost exclusively" 300 s.
            https_weights: [0.005, 0.015, 0.95, 0.02, 0.005, 0.005],
        }
    }
}

impl TtlModel {
    fn weights_for(&self, t: RecordType) -> &[f64; 6] {
        match t {
            RecordType::AAAA => &self.aaaa_weights,
            RecordType::HTTPS => &self.https_weights,
            _ => &self.a_weights,
        }
    }

    /// Samples a TTL for a record of type `t`.
    pub fn sample(&self, t: RecordType, rng: &mut StdRng) -> u32 {
        let w = self.weights_for(t);
        let total: f64 = w.iter().sum();
        let mut x = rng.random::<f64>() * total;
        for (i, wi) in w.iter().enumerate() {
            if x < *wi {
                return TTL_CLUSTERS[i];
            }
            x -= wi;
        }
        *TTL_CLUSTERS.last().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample_many(t: RecordType, n: usize) -> Vec<u32> {
        let model = TtlModel::default();
        let mut rng = StdRng::seed_from_u64(5);
        (0..n).map(|_| model.sample(t, &mut rng)).collect()
    }

    #[test]
    fn samples_stay_in_clusters() {
        for t in [RecordType::A, RecordType::AAAA, RecordType::HTTPS] {
            for ttl in sample_many(t, 1000) {
                assert!(TTL_CLUSTERS.contains(&ttl));
            }
        }
    }

    #[test]
    fn https_concentrates_at_300() {
        let samples = sample_many(RecordType::HTTPS, 2000);
        let at_300 = samples.iter().filter(|t| **t == 300).count();
        assert!(
            at_300 as f64 / samples.len() as f64 > 0.9,
            "HTTPS almost exclusively 300 s (paper §2)"
        );
    }

    #[test]
    fn a_records_have_dominant_300_and_low_ttl_mass() {
        let samples = sample_many(RecordType::A, 5000);
        let frac =
            |ttl: u32| samples.iter().filter(|t| **t == ttl).count() as f64 / samples.len() as f64;
        assert!(frac(300) > 0.3, "300 s is the biggest cluster");
        assert!(frac(20) + frac(60) > 0.15, "CDN-style low TTLs present");
        assert!(frac(3600) > 0.1, "long-TTL tail present");
    }
}
