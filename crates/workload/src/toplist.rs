//! Synthetic Tranco-like toplist (paper §2, Fig 1a counts).

use moqdns_dns::name::Name;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fig 1a record counts for the top 10 000 domains.
pub const TOP_N: usize = 10_000;
/// Domains with an A record (8435/10 000).
pub const A_COUNT: usize = 8_435;
/// Domains with an AAAA record (2870/10 000).
pub const AAAA_COUNT: usize = 2_870;
/// Domains with an HTTPS record (1835/10 000).
pub const HTTPS_COUNT: usize = 1_835;

/// One toplist entry.
#[derive(Debug, Clone)]
pub struct ToplistDomain {
    /// Popularity rank (1 = most popular).
    pub rank: usize,
    /// The domain name.
    pub name: Name,
    /// Which record types this domain serves.
    pub has_a: bool,
    /// Serves AAAA.
    pub has_aaaa: bool,
    /// Serves HTTPS (RFC 9460).
    pub has_https: bool,
}

/// A synthetic toplist with Zipf popularity.
#[derive(Debug, Clone)]
pub struct Toplist {
    domains: Vec<ToplistDomain>,
    /// Zipf exponent (s ≈ 1 matches web popularity well).
    zipf_s: f64,
    /// Cumulative Zipf weights for sampling.
    cum_weights: Vec<f64>,
}

impl Toplist {
    /// Generates a toplist of `n` domains seeded by `seed`. Record-type
    /// presence matches the Fig 1a proportions; AAAA/HTTPS presence skews
    /// toward popular domains (big sites deploy new record types first —
    /// consistent with the paper's HTTPS-uptake observation).
    pub fn generate(n: usize, seed: u64) -> Toplist {
        let mut rng = StdRng::seed_from_u64(seed);
        let p_a = A_COUNT as f64 / TOP_N as f64;
        let p_aaaa = AAAA_COUNT as f64 / TOP_N as f64;
        let p_https = HTTPS_COUNT as f64 / TOP_N as f64;
        let tlds = ["com", "net", "org", "io", "dev"];
        let mut domains = Vec::with_capacity(n);
        for rank in 1..=n {
            let tld = tlds[rng.random_range(0..tlds.len())];
            let name: Name = format!("site{rank:05}.{tld}").parse().expect("valid name");
            // Popularity bias: scale presence probability by rank position.
            let pop_boost = 1.5 - (rank as f64 / n as f64); // 1.5 → 0.5
            let has_a = rng.random::<f64>() < p_a;
            // AAAA/HTTPS exist only alongside A, so use the conditional
            // probability P(type | A) = p_type / p_a to hit Fig 1a's
            // unconditional counts.
            let has_aaaa = has_a && rng.random::<f64>() < (p_aaaa / p_a * pop_boost).min(1.0);
            let has_https = has_a && rng.random::<f64>() < (p_https / p_a * pop_boost).min(1.0);
            domains.push(ToplistDomain {
                rank,
                name,
                has_a,
                has_aaaa,
                has_https,
            });
        }
        let zipf_s = 1.0;
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(zipf_s);
            cum.push(acc);
        }
        Toplist {
            domains,
            zipf_s,
            cum_weights: cum,
        }
    }

    /// The Fig 1a-sized toplist (10 000 domains).
    pub fn top10k(seed: u64) -> Toplist {
        Toplist::generate(TOP_N, seed)
    }

    /// All domains, rank order.
    pub fn domains(&self) -> &[ToplistDomain] {
        &self.domains
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// The Zipf exponent used for popularity sampling.
    pub fn zipf_exponent(&self) -> f64 {
        self.zipf_s
    }

    /// Counts of domains per record type — the Fig 1a bars.
    pub fn type_counts(&self) -> (usize, usize, usize) {
        let a = self.domains.iter().filter(|d| d.has_a).count();
        let aaaa = self.domains.iter().filter(|d| d.has_aaaa).count();
        let https = self.domains.iter().filter(|d| d.has_https).count();
        (a, aaaa, https)
    }

    /// Samples a domain index by Zipf popularity.
    pub fn sample_zipf(&self, rng: &mut StdRng) -> &ToplistDomain {
        let total = *self.cum_weights.last().expect("non-empty toplist");
        let x = rng.random::<f64>() * total;
        let idx = self.cum_weights.partition_point(|w| *w < x);
        &self.domains[idx.min(self.domains.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_fig1a_proportions() {
        let t = Toplist::top10k(1);
        let (a, aaaa, https) = t.type_counts();
        // Binomial sampling: within ±3σ of the published counts.
        assert!((a as i64 - A_COUNT as i64).abs() < 150, "A={a}");
        assert!((aaaa as i64 - AAAA_COUNT as i64).abs() < 200, "AAAA={aaaa}");
        assert!(
            (https as i64 - HTTPS_COUNT as i64).abs() < 200,
            "HTTPS={https}"
        );
        // Ordering from the paper: A >> AAAA > HTTPS.
        assert!(a > aaaa && aaaa > https);
    }

    #[test]
    fn aaaa_and_https_imply_a() {
        let t = Toplist::top10k(2);
        for d in t.domains() {
            if d.has_aaaa || d.has_https {
                assert!(d.has_a, "{}", d.name);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Toplist::generate(100, 7);
        let b = Toplist::generate(100, 7);
        for (x, y) in a.domains().iter().zip(b.domains()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.has_https, y.has_https);
        }
        let c = Toplist::generate(100, 8);
        let same = a
            .domains()
            .iter()
            .zip(c.domains())
            .all(|(x, y)| x.has_a == y.has_a && x.has_aaaa == y.has_aaaa);
        assert!(!same, "different seeds differ");
    }

    #[test]
    fn zipf_sampling_favours_low_ranks() {
        let t = Toplist::generate(1000, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let mut top10 = 0;
        const DRAWS: usize = 10_000;
        for _ in 0..DRAWS {
            if t.sample_zipf(&mut rng).rank <= 10 {
                top10 += 1;
            }
        }
        // Under Zipf(1, n=1000), ranks 1..10 hold ~39% of the mass.
        let frac = top10 as f64 / DRAWS as f64;
        assert!(frac > 0.3, "top-10 fraction {frac}");
    }

    #[test]
    fn names_parse_and_are_unique() {
        let t = Toplist::generate(500, 4);
        let mut seen = std::collections::HashSet::new();
        for d in t.domains() {
            assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
        }
    }
}
