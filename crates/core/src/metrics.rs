//! Measurement hooks the experiments read.
//!
//! Nodes record raw observations here; `moqdns-bench` aggregates them into
//! the tables of EXPERIMENTS.md.

use moqdns_dns::message::Question;
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

/// Raw observation store embedded in measuring nodes.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Completed lookups.
    pub lookups: Vec<LookupSample>,
    /// Updates received via push.
    pub updates: Vec<UpdateSample>,
    /// What the node asked upstream and what came back, counted.
    pub counts: ResolverCounts,
}

moqdns_wire::counters! {
    /// What a resolving node — stub, forwarder or recursive — asked its
    /// upstream and what came back.
    pub struct ResolverCounts {
        /// Classic DNS queries sent upstream.
        classic_queries_sent = "resolver.classic.queries_sent",
        /// MoQT subscriptions opened.
        subscribes_sent = "resolver.moqt.subscribes_sent",
        /// MoQT fetches issued.
        fetches_sent = "resolver.moqt.fetches_sent",
        /// Objects received via subscriptions.
        objects_received = "resolver.moqt.objects_received",
        /// Objects not applied because a newer version of their track had
        /// already arrived (a retransmitted stream overtaken by its
        /// successor).
        stale_objects_dropped = "resolver.moqt.stale_objects_dropped",
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
    fn lookup_latency_math() {
        let l = LookupSample {
            question: q(),
            started: SimTime::from_millis(100),
            finished: SimTime::from_millis(150),
            source: AnswerSource::ClassicUdp,
            ok: true,
            version: None,
        };
        assert_eq!(l.latency(), Duration::from_millis(50));
    }
}
