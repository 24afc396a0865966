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
        self.totals.add(&stats);
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

    proptest::proptest! {
        /// A tier's totals are the element-wise sum of its relays, for
        /// every counter any family under `RelayStats` declares.
        #[test]
        fn tier_totals_are_the_sum_of_the_relays(seeds in proptest::collection::vec(0u64..1 << 40, 0..6)) {
            let relays: Vec<RelayStats> = seeds
                .iter()
                .map(|seed| {
                    let mut i = 0;
                    RelayStats::from_fn(&mut |_| {
                        i += 1;
                        moqdns_netsim::splitmix64(seed + i) >> 24
                    })
                })
                .collect();
            let mut tier = TierRelayStats::new("edge");
            for stats in &relays {
                tier.accumulate(*stats, 1);
            }
            proptest::prop_assert_eq!(tier.relays, relays.len());
            proptest::prop_assert_eq!(tier.upstream_subscriptions, relays.len());
            let declared = RelayStats::default().rows().len();
            proptest::prop_assert!(declared >= 19 + moqdns_moqt::Reason::ALL.len());
            for (at, (name, _, total)) in tier.totals.rows().into_iter().enumerate() {
                let sum: u64 = relays.iter().map(|r| r.rows()[at].2).sum();
                proptest::prop_assert_eq!(total, sum, "{}", name);
                proptest::prop_assert_eq!(
                    tier.totals.get(name),
                    Some(total),
                    "two counters are called {}",
                    name
                );
            }
        }
    }

    #[test]
    fn aggregation_factor_is_down_per_up() {
        let mut tier = TierRelayStats::new("edge");
        assert_eq!(tier.aggregation_factor(), 0.0);
        for _ in 0..2 {
            let stats = RelayStats {
                downstream_subscribes: 16,
                upstream_subscribes: 1,
                ..RelayStats::default()
            };
            tier.accumulate(stats, 1);
        }
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
