//! The §5.3 use-case parameter sets, with the paper's back-of-envelope
//! arithmetic reproduced exactly (experiments E6–E8), plus
//! [`MetroScenario`]: the parameters of the metro-scale relay world, kept
//! here because the benchmark's `sim_metro` workload builds that world
//! from them. The other relay worlds are plans in `moqdns-bench`.

use std::time::Duration;

/// Dynamic DNS (paper §5.3, first scenario).
///
/// "Let us assume 100M users worldwide with 1,000 other users each
/// interested in their hosted services and involving 5 MoQ relays on
/// average. At two IP address updates per day and 300 B update size, this
/// would yield a globally distributed application layer update traffic of
/// some 5.5 Gbps."
#[derive(Debug, Clone, Copy)]
pub struct DdnsScenario {
    /// DDNS users hosting services.
    pub users: u64,
    /// Subscribers interested in each user's records.
    pub interested_per_user: u64,
    /// Average MoQ relays on each distribution path.
    pub relays_per_path: u64,
    /// Record updates per user per day.
    pub updates_per_day: f64,
    /// Bytes per pushed update.
    pub update_size: u64,
}

impl Default for DdnsScenario {
    fn default() -> DdnsScenario {
        DdnsScenario {
            users: 100_000_000,
            interested_per_user: 1_000,
            relays_per_path: 5,
            updates_per_day: 2.0,
            update_size: 300,
        }
    }
}

impl DdnsScenario {
    /// Deliveries per day across the system: each update reaches every
    /// interested party once (the relay tree aggregates the distribution,
    /// so intermediate hops do not multiply delivered copies — this is the
    /// paper's arithmetic, which lands at ≈5.5 Gbps).
    pub fn messages_per_day(&self) -> f64 {
        self.users as f64 * self.updates_per_day * self.interested_per_user as f64
    }

    /// Global application-layer update traffic in bits per second — the
    /// paper's ≈5.5 Gbps figure.
    pub fn global_bps(&self) -> f64 {
        self.messages_per_day() * self.update_size as f64 * 8.0 / 86_400.0
    }
}

/// CDN load balancing via short-TTL records (paper §5.3, second scenario).
///
/// "Conservatively assuming that a stub resolver subscribes to 1,000
/// different domains and all domains are updated at the lowest observed
/// clustered TTL of 10 s with 300 B per update, we obtain a downstream
/// update traffic of 240 kbps."
#[derive(Debug, Clone, Copy)]
pub struct CdnScenario {
    /// Domains a stub resolver is subscribed to.
    pub subscribed_domains: u64,
    /// Update interval (the lowest observed clustered TTL).
    pub update_interval: Duration,
    /// Bytes per pushed update.
    pub update_size: u64,
}

impl Default for CdnScenario {
    fn default() -> CdnScenario {
        CdnScenario {
            subscribed_domains: 1_000,
            update_interval: Duration::from_secs(10),
            update_size: 300,
        }
    }
}

impl CdnScenario {
    /// Downstream update traffic at one stub, bits per second — the
    /// paper's 240 kbps figure.
    pub fn stub_downstream_bps(&self) -> f64 {
        self.subscribed_domains as f64 * self.update_size as f64 * 8.0
            / self.update_interval.as_secs_f64()
    }
}

/// Deep space DNS replication (paper §5.3, third scenario; TIPTOP WG).
#[derive(Debug, Clone, Copy)]
pub struct DeepSpaceScenario {
    /// Domains replicated to the remote resolver.
    pub replicated_domains: u64,
    /// Update rate cap after throttling high-churn (load-balancing) records
    /// (§5.3: "forwarding of records for domains observed to provide high
    /// update rates could be throttled").
    pub max_updates_per_domain_per_hour: f64,
    /// Bytes per pushed update.
    pub update_size: u64,
}

impl Default for DeepSpaceScenario {
    fn default() -> DeepSpaceScenario {
        DeepSpaceScenario {
            replicated_domains: 10_000,
            max_updates_per_domain_per_hour: 1.0,
            update_size: 300,
        }
    }
}

impl DeepSpaceScenario {
    /// Throttled update traffic on the deep-space link, bits per second.
    pub fn link_bps(&self) -> f64 {
        self.replicated_domains as f64
            * self.max_updates_per_domain_per_hour
            * self.update_size as f64
            * 8.0
            / 3600.0
    }
}

/// A **metro-scale** cross-region federation: 1 origin → K federated
/// cores (full-mesh peer links, one hash shard each) → K regions of
/// region-local edges → **~10,000 stubs** subscribing across **~64
/// tracks** — two orders of magnitude past anything else in the CI matrix.
///
/// At this scale no stub subscribes to *every* track (a metro population
/// doesn't): the track space is cut into `tracks / tracks_per_stub`
/// equal **slices** and stub `j` takes slice `(j / edge_count) %
/// slices`, so consecutive stubs under one edge walk all slices and
/// every edge aggregates demand for the *full* track set whenever
/// `stubs_per_edge >= slices`.
///
/// The scenario exists to measure the *simulator* as much as the
/// protocol: its full-size run is the wall-clock benchmark the sim
/// data-plane (zero-copy delivery, timing-wheel scheduler) is graded on.
#[derive(Debug, Clone, Copy)]
pub struct MetroScenario {
    /// Scenario label.
    pub name: &'static str,
    /// Federated cores (= regions = hash shards).
    pub cores: usize,
    /// Edge relays per region (each attaches only to its region's core).
    pub edges_per_region: usize,
    /// Stub subscribers per edge relay.
    pub stubs_per_edge: usize,
    /// Distinct records (tracks) across the whole metro.
    pub tracks: usize,
    /// Tracks each stub subscribes to (one contiguous slice).
    pub tracks_per_stub: usize,
    /// Updates pushed per track during each measured round.
    pub updates_per_track: u64,
    /// Gap between update rounds.
    pub update_interval: Duration,
    /// One-way delay of intra-region links (core→edge, edge→stub).
    pub link_delay: Duration,
    /// One-way delay of inter-region links (origin→core, core↔core).
    pub peer_delay: Duration,
}

impl MetroScenario {
    /// The standing metro drill: 3 regions × 4 edges × 833 stubs =
    /// 9,996 subscribers over 64 tracks (8 per stub).
    pub fn metro() -> MetroScenario {
        MetroScenario {
            name: "metro",
            cores: 3,
            edges_per_region: 4,
            stubs_per_edge: 833,
            tracks: 64,
            tracks_per_stub: 8,
            updates_per_track: 2,
            update_interval: Duration::from_secs(2),
            link_delay: Duration::from_millis(5),
            peer_delay: Duration::from_millis(30),
        }
    }

    /// A tiny variant for CI smoke runs: the federation shape and the
    /// slice machinery are preserved (cores and slice count stay put),
    /// only the population shrinks.
    pub fn smoke(self) -> MetroScenario {
        MetroScenario {
            edges_per_region: self.edges_per_region.min(2),
            stubs_per_edge: self.stubs_per_edge.min(8),
            tracks: self.tracks.min(16),
            tracks_per_stub: self.tracks_per_stub.min(2),
            ..self
        }
    }

    /// Total stub subscribers.
    pub fn stub_count(&self) -> usize {
        self.cores * self.edges_per_region * self.stubs_per_edge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddns_matches_paper_5_5_gbps() {
        let s = DdnsScenario::default();
        let gbps = s.global_bps() / 1e9;
        // 100e6 * 2 * 1000 * 5 * 300 B * 8 / 86400 s = 5.55… Gbps.
        assert!((5.0..6.0).contains(&gbps), "{gbps} Gbps");
        assert!((gbps - 5.555).abs() < 0.1);
    }

    #[test]
    fn cdn_matches_paper_240_kbps() {
        let s = CdnScenario::default();
        let kbps = s.stub_downstream_bps() / 1e3;
        // 1000 * 300 B * 8 / 10 s = 240 kbps exactly.
        assert!((kbps - 240.0).abs() < 1e-9, "{kbps} kbps");
    }

    #[test]
    fn deep_space_round_trip_vs_replicated() {
        let s = DeepSpaceScenario::default();
        // Throttled updates keep the link load tiny.
        assert!(s.link_bps() < 10_000.0, "{} bps", s.link_bps());
    }

    #[test]
    fn scaling_behaviour() {
        let mut s = DdnsScenario::default();
        let base = s.global_bps();
        s.users *= 2;
        assert!(
            (s.global_bps() / base - 2.0).abs() < 1e-9,
            "linear in users"
        );
    }
}
