//! Live replay plans: the workload models compiled into a pure-data
//! schedule a real-socket load generator can execute.
//!
//! The simulator binaries sample the toplist/query/churn models *inline*
//! while virtual time advances. A live run cannot: `moqdns-loadgen` drives
//! wall-clock sockets, so every sampling decision is made up front —
//! deterministically from a seed — and the io loop merely executes the
//! resulting [`LivePlan`]. The plan composes three models from this crate:
//!
//! * **toplist** ([`Toplist`]): which tracks each client subscribes to,
//!   sampled Zipf so popular tracks get the fan-out the paper's relay
//!   coalescing argument is about;
//! * **queries** ([`PoissonArrivals`]): staggered client join offsets, so
//!   subscribes arrive as a Poisson process instead of a thundering herd;
//! * **churn**: a fraction of clients bounce (unsubscribe, then resubscribe
//!   after a pause), exercising the PR 6 session teardown paths against a
//!   live daemon.
//!
//! Determinism matters even live: the same `(spec, seed)` produces the same
//! plan, so invariants phrased as *final-state* properties ("every planned
//! subscription reaches the final zone version") are checkable despite
//! nondeterministic wall-clock interleaving.

use crate::queries::PoissonArrivals;
use crate::toplist::Toplist;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Parameters for a live replay plan.
#[derive(Debug, Clone)]
pub struct LiveSpec {
    /// DNS zone the daemon serves (e.g. `live.moqdns.test`).
    pub zone: String,
    /// Distinct published names (`t<i>.<zone>` for `i < tracks`).
    pub tracks: usize,
    /// Number of generator clients.
    pub clients: usize,
    /// Distinct track subscriptions per client (Zipf-sampled).
    pub subs_per_client: usize,
    /// Client join rate (Poisson arrivals per second).
    pub join_rate_per_sec: f64,
    /// Fraction of clients that bounce a subscription (churn).
    pub bounce_fraction: f64,
    /// How long after joining a bouncing client tears down and rejoins.
    pub bounce_after: Duration,
    /// Plan RNG seed.
    pub seed: u64,
}

impl LiveSpec {
    /// The CI smoke profile: small enough to finish inside a 30 s budget
    /// on a loaded runner, large enough that fan-out coalescing and churn
    /// paths are actually exercised.
    pub fn smoke() -> LiveSpec {
        LiveSpec {
            zone: "live.moqdns.test".into(),
            tracks: 8,
            clients: 12,
            subs_per_client: 2,
            join_rate_per_sec: 20.0,
            bounce_fraction: 0.25,
            bounce_after: Duration::from_millis(900),
            seed: 92,
        }
    }
}

/// One client's schedule.
#[derive(Debug, Clone)]
pub struct ClientPlan {
    /// When this client connects + subscribes, relative to run start.
    pub join_at: Duration,
    /// Distinct track indices (each `< spec.tracks`), Zipf-popular.
    pub tracks: Vec<usize>,
    /// When set, the client unsubscribes its first track at this offset
    /// and resubscribes [`LiveSpec::bounce_after`] later.
    pub bounce_at: Option<Duration>,
}

/// A fully-sampled live replay schedule (pure data; no io).
#[derive(Debug, Clone)]
pub struct LivePlan {
    /// The generating parameters.
    pub spec: LiveSpec,
    /// Per-client schedules, join-ordered.
    pub clients: Vec<ClientPlan>,
}

impl LivePlan {
    /// Compiles `spec` into a concrete schedule. Pure function of the
    /// spec (including its seed).
    pub fn generate(spec: LiveSpec) -> LivePlan {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        // Zipf popularity over track indices via the toplist model: a
        // sampled domain's rank-1 maps onto track index.
        let pop = Toplist::generate(spec.tracks, spec.seed ^ 0x746f70);
        let joins = PoissonArrivals::new(spec.join_rate_per_sec);
        let mut at = Duration::ZERO;
        let mut clients = Vec::with_capacity(spec.clients);
        let bouncers = (spec.clients as f64 * spec.bounce_fraction).round() as usize;
        for c in 0..spec.clients {
            at += joins.next_gap(&mut rng);
            let mut tracks = Vec::with_capacity(spec.subs_per_client);
            while tracks.len() < spec.subs_per_client && tracks.len() < spec.tracks {
                let idx = pop.sample_zipf(&mut rng).rank - 1;
                if !tracks.contains(&idx) {
                    tracks.push(idx);
                }
            }
            // Spread bouncers across the join order (every k-th client)
            // so churn is not concentrated on the earliest joiners.
            let bounce_at = if bouncers > 0 && c % spec.clients.div_ceil(bouncers) == 0 {
                Some(at + spec.bounce_after)
            } else {
                None
            };
            clients.push(ClientPlan {
                join_at: at,
                tracks,
                bounce_at,
            });
        }
        LivePlan { spec, clients }
    }

    /// The published name for track `idx` (`t<idx>.<zone>`).
    pub fn track_name(&self, idx: usize) -> String {
        format!("t{idx}.{}", self.spec.zone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic() {
        let a = LivePlan::generate(LiveSpec::smoke());
        let b = LivePlan::generate(LiveSpec::smoke());
        assert_eq!(a.clients.len(), b.clients.len());
        for (x, y) in a.clients.iter().zip(&b.clients) {
            assert_eq!(x.join_at, y.join_at);
            assert_eq!(x.tracks, y.tracks);
            assert_eq!(x.bounce_at, y.bounce_at);
        }
    }

    #[test]
    fn plan_shape_matches_spec() {
        let spec = LiveSpec::smoke();
        let plan = LivePlan::generate(spec.clone());
        assert_eq!(plan.clients.len(), spec.clients);
        for c in &plan.clients {
            assert_eq!(c.tracks.len(), spec.subs_per_client);
            assert!(c.tracks.iter().all(|&t| t < spec.tracks));
            let mut dedup = c.tracks.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), c.tracks.len(), "tracks are distinct");
        }
        let bouncers = plan
            .clients
            .iter()
            .filter(|c| c.bounce_at.is_some())
            .count();
        assert!(bouncers >= 1, "smoke plan exercises churn");
        assert_eq!(
            plan.clients.iter().map(|c| c.tracks.len()).sum::<usize>(),
            spec.clients * spec.subs_per_client
        );
    }

    #[test]
    fn joins_are_staggered_and_ordered() {
        let plan = LivePlan::generate(LiveSpec::smoke());
        let mut prev = Duration::ZERO;
        for c in &plan.clients {
            assert!(c.join_at > prev, "strictly increasing join offsets");
            prev = c.join_at;
        }
    }

    #[test]
    fn track_names_live_under_the_zone() {
        let plan = LivePlan::generate(LiveSpec::smoke());
        assert_eq!(plan.track_name(3), "t3.live.moqdns.test");
    }
}
