//! Measurement hooks the experiments read.
//!
//! Nodes record raw observations here; `moqdns-bench` aggregates them into
//! the tables of EXPERIMENTS.md.

use moqdns_dns::message::Question;
use moqdns_moqt::relay::RelayStats;
use moqdns_netsim::SimTime;
use std::time::Duration;

/// How a lookup was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerSource {
    /// Served from a local cache.
    Cache,
    /// Resolved over classic DNS (UDP).
    ClassicUdp,
    /// Resolved over MoQT (fetch + subscribe).
    Moqt,
    /// A pushed MoQT update (no lookup occurred at all).
    Push,
}

/// One completed lookup.
#[derive(Debug, Clone)]
pub struct LookupSample {
    /// What was asked.
    pub question: Question,
    /// When the application asked.
    pub started: SimTime,
    /// When the answer was available.
    pub finished: SimTime,
    /// Where the answer came from.
    pub source: AnswerSource,
    /// Whether the lookup succeeded.
    pub ok: bool,
    /// The record version (MoQT group id), when known.
    pub version: Option<u64>,
}

impl LookupSample {
    /// Lookup latency.
    pub fn latency(&self) -> Duration {
        self.finished - self.started
    }
}

/// One observed record update at a subscriber.
#[derive(Debug, Clone)]
pub struct UpdateSample {
    /// The track's question.
    pub question: Question,
    /// Version received (group id).
    pub version: u64,
    /// When the update arrived at this node.
    pub received: SimTime,
}

/// One staleness observation: how long a node served an outdated record
/// after the authoritative copy changed (the paper's headline metric).
#[derive(Debug, Clone)]
pub struct StalenessSample {
    /// The record's question.
    pub question: Question,
    /// When the authoritative record changed.
    pub changed_at: SimTime,
    /// When this node first had the new version.
    pub fresh_at: SimTime,
}

impl StalenessSample {
    /// The staleness window: time between the authoritative change and
    /// this node holding the new version.
    pub fn staleness(&self) -> Duration {
        self.fresh_at - self.changed_at
    }
}

/// Aggregated relay counters for one tier of a distribution tree
/// (§3 aggregation, §5.3 relay paths). The tree-scenario binaries fold
/// every relay's [`RelayStats`] into its tier and print the result as a
/// `moqdns_stats::Table`.
#[derive(Debug, Clone, Default)]
pub struct TierRelayStats {
    /// Tier label ("tier1", "edge", …).
    pub tier: String,
    /// Relays folded into this row.
    pub relays: usize,
    /// Summed relay counters.
    pub totals: RelayStats,
    /// Live upstream subscriptions summed across the tier's relays.
    pub upstream_subscriptions: usize,
}

impl TierRelayStats {
    /// An empty accumulator for `tier`.
    pub fn new(tier: impl Into<String>) -> TierRelayStats {
        TierRelayStats {
            tier: tier.into(),
            ..TierRelayStats::default()
        }
    }

    /// Folds one relay's counters into the tier.
    pub fn accumulate(&mut self, stats: RelayStats, live_upstream_subs: usize) {
        self.relays += 1;
        // Exhaustive destructuring: adding a field to RelayStats refuses
        // to compile until it is folded here too.
        let RelayStats {
            downstream_subscribes,
            upstream_subscribes,
            objects_forwarded,
            fetch_cache_hits,
            fetch_cache_misses,
            fetch_coalesced,
            upstream_fetches,
            fetch_waiters_served,
            reroutes,
            rebalances,
            peer_fetches,
            peer_objects,
            origin_offload,
            violations,
            dropped_datagrams,
            throttled_fetches,
            evicted_sessions,
            redials,
            failed_dials,
        } = stats;
        self.totals.downstream_subscribes += downstream_subscribes;
        self.totals.upstream_subscribes += upstream_subscribes;
        self.totals.objects_forwarded += objects_forwarded;
        self.totals.fetch_cache_hits += fetch_cache_hits;
        self.totals.fetch_cache_misses += fetch_cache_misses;
        self.totals.fetch_coalesced += fetch_coalesced;
        self.totals.upstream_fetches += upstream_fetches;
        self.totals.fetch_waiters_served += fetch_waiters_served;
        self.totals.reroutes += reroutes;
        self.totals.rebalances += rebalances;
        self.totals.peer_fetches += peer_fetches;
        self.totals.peer_objects += peer_objects;
        self.totals.origin_offload += origin_offload;
        self.totals.violations += violations;
        self.totals.dropped_datagrams += dropped_datagrams;
        self.totals.throttled_fetches += throttled_fetches;
        self.totals.evicted_sessions += evicted_sessions;
        self.totals.redials += redials;
        self.totals.failed_dials += failed_dials;
        self.upstream_subscriptions += live_upstream_subs;
    }

    /// Tier-wide aggregation factor: downstream subscriptions per
    /// upstream subscription opened.
    pub fn aggregation_factor(&self) -> f64 {
        if self.totals.upstream_subscribes == 0 {
            0.0
        } else {
            self.totals.downstream_subscribes as f64 / self.totals.upstream_subscribes as f64
        }
    }
}

/// Raw observation store embedded in measuring nodes.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Completed lookups.
    pub lookups: Vec<LookupSample>,
    /// Updates received via push.
    pub updates: Vec<UpdateSample>,
    /// Staleness observations.
    pub staleness: Vec<StalenessSample>,
    /// Classic DNS queries sent upstream.
    pub classic_queries_sent: u64,
    /// Classic DNS responses received.
    pub classic_responses_received: u64,
    /// MoQT subscriptions opened.
    pub subscribes_sent: u64,
    /// MoQT fetches issued.
    pub fetches_sent: u64,
    /// Objects received via subscriptions.
    pub objects_received: u64,
    /// Objects not applied because a newer version of their track had
    /// already arrived (a retransmitted stream overtaken by its successor).
    pub stale_objects_dropped: u64,
}

impl Metrics {
    /// Mean lookup latency over successful lookups.
    pub fn mean_lookup_latency(&self) -> Option<Duration> {
        let ok: Vec<&LookupSample> = self.lookups.iter().filter(|l| l.ok).collect();
        if ok.is_empty() {
            return None;
        }
        let total: Duration = ok.iter().map(|l| l.latency()).sum();
        Some(total / ok.len() as u32)
    }

    /// Mean staleness across observations.
    pub fn mean_staleness(&self) -> Option<Duration> {
        if self.staleness.is_empty() {
            return None;
        }
        let total: Duration = self.staleness.iter().map(|s| s.staleness()).sum();
        Some(total / self.staleness.len() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqdns_dns::rr::RecordType;

    fn q() -> Question {
        Question::new("x.com".parse().unwrap(), RecordType::A)
    }

    #[test]
    fn latency_and_staleness_math() {
        let l = LookupSample {
            question: q(),
            started: SimTime::from_millis(100),
            finished: SimTime::from_millis(150),
            source: AnswerSource::ClassicUdp,
            ok: true,
            version: None,
        };
        assert_eq!(l.latency(), Duration::from_millis(50));

        let s = StalenessSample {
            question: q(),
            changed_at: SimTime::from_secs(10),
            fresh_at: SimTime::from_secs(70),
        };
        assert_eq!(s.staleness(), Duration::from_secs(60));
    }

    #[test]
    fn tier_relay_stats_fold() {
        let mut tier = TierRelayStats::new("edge");
        let a = RelayStats {
            downstream_subscribes: 16,
            upstream_subscribes: 1,
            objects_forwarded: 32,
            fetch_cache_hits: 3,
            fetch_cache_misses: 1,
            fetch_coalesced: 1,
            upstream_fetches: 0,
            fetch_waiters_served: 1,
            reroutes: 0,
            rebalances: 0,
            peer_fetches: 1,
            peer_objects: 4,
            origin_offload: 1,
            violations: 2,
            dropped_datagrams: 5,
            throttled_fetches: 7,
            evicted_sessions: 1,
            redials: 3,
            failed_dials: 2,
        };
        let b = RelayStats {
            downstream_subscribes: 16,
            upstream_subscribes: 1,
            objects_forwarded: 32,
            fetch_cache_hits: 0,
            fetch_cache_misses: 0,
            fetch_coalesced: 0,
            upstream_fetches: 0,
            fetch_waiters_served: 0,
            reroutes: 1,
            rebalances: 1,
            peer_fetches: 0,
            peer_objects: 2,
            origin_offload: 0,
            violations: 1,
            dropped_datagrams: 0,
            throttled_fetches: 0,
            evicted_sessions: 1,
            redials: 1,
            failed_dials: 0,
        };
        tier.accumulate(a, 1);
        tier.accumulate(b, 1);
        assert_eq!(tier.relays, 2);
        assert_eq!(tier.totals.objects_forwarded, 64);
        assert_eq!(tier.upstream_subscriptions, 2);
        assert_eq!(tier.totals.peer_fetches, 1);
        assert_eq!(tier.totals.peer_objects, 6);
        assert_eq!(tier.totals.origin_offload, 1);
        assert_eq!(tier.totals.violations, 3);
        assert_eq!(tier.totals.dropped_datagrams, 5);
        assert_eq!(tier.totals.throttled_fetches, 7);
        assert_eq!(tier.totals.evicted_sessions, 2);
        assert_eq!(tier.totals.redials, 4);
        assert_eq!(tier.totals.failed_dials, 2);
        assert!((tier.aggregation_factor() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn aggregates() {
        let mut m = Metrics::default();
        assert!(m.mean_lookup_latency().is_none());
        assert!(m.mean_staleness().is_none());
        for ms in [10u64, 20, 30] {
            m.lookups.push(LookupSample {
                question: q(),
                started: SimTime::ZERO,
                finished: SimTime::from_millis(ms),
                source: AnswerSource::Moqt,
                ok: true,
                version: Some(1),
            });
        }
        // Failed lookups excluded from the mean.
        m.lookups.push(LookupSample {
            question: q(),
            started: SimTime::ZERO,
            finished: SimTime::from_secs(5),
            source: AnswerSource::ClassicUdp,
            ok: false,
            version: None,
        });
        assert_eq!(m.mean_lookup_latency(), Some(Duration::from_millis(20)));
    }
}
