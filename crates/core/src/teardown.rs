//! Subscription teardown policies (paper §4.4).
//!
//! "The timescale at which resolvers can drop unused subscriptions depends
//! on a trade-off between the acceptable overhead of managing the MoQT
//! session and subscription state, and the risk of having to re-establish
//! a new session and subscription if the record is requested again. …
//! which could also be dynamically adapted based on the history of how
//! frequently a domain had to be resolved in the past."
//!
//! [`TeardownPolicy`] captures the three natural points in that space;
//! [`SubscriptionTracker`] applies a policy to a set of live subscriptions
//! and decides which to drop at each sweep.

use moqdns_netsim::SimTime;
use std::collections::BTreeMap;
use std::hash::Hash;
use std::time::Duration;

/// When to drop idle subscriptions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TeardownPolicy {
    /// Keep every subscription forever (maximum state, zero re-setup).
    Never,
    /// Drop a subscription unused for this long.
    IdleTimeout(Duration),
    /// Keep at most `n` subscriptions; evict least-recently-used.
    LruCap(usize),
    /// Frequency-adaptive: keep a subscription while its observed lookup
    /// rate exceeds `min_rate_per_hour`, measured over a sliding window;
    /// rarely-used domains fall back to fetch-on-demand.
    Adaptive {
        /// Minimum lookups per hour to justify keeping the subscription.
        min_rate_per_hour: f64,
        /// Sliding window for the rate estimate.
        window: Duration,
    },
}

/// Per-subscription usage record.
#[derive(Debug, Clone)]
struct Usage {
    last_used: SimTime,
    /// Lookup timestamps within the adaptive window.
    hits: Vec<SimTime>,
    created: SimTime,
}

/// Applies a [`TeardownPolicy`] over keyed subscriptions.
#[derive(Debug)]
pub struct SubscriptionTracker<K> {
    policy: TeardownPolicy,
    usage: BTreeMap<K, Usage>,
}

impl<K: Clone + Eq + Hash + Ord> SubscriptionTracker<K> {
    /// Creates a tracker with the given policy.
    pub fn new(policy: TeardownPolicy) -> SubscriptionTracker<K> {
        SubscriptionTracker {
            policy,
            usage: BTreeMap::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> TeardownPolicy {
        self.policy
    }

    /// Number of tracked subscriptions.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.usage.len()
    }

    /// True if nothing is tracked.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.usage.is_empty()
    }

    /// Registers a new subscription at `now`.
    pub fn insert(&mut self, key: K, now: SimTime) {
        self.usage.insert(
            key,
            Usage {
                last_used: now,
                hits: vec![now],
                created: now,
            },
        );
    }

    /// Records a lookup served by subscription `key`.
    pub fn touch(&mut self, key: &K, now: SimTime) {
        if let Some(u) = self.usage.get_mut(key) {
            u.last_used = now;
            u.hits.push(now);
            // Bound history: the adaptive window never needs more.
            if u.hits.len() > 4096 {
                u.hits.drain(..2048);
            }
        }
    }

    /// Removes a subscription explicitly (e.g. publisher sent
    /// SUBSCRIBE_DONE).
    pub fn remove(&mut self, key: &K) {
        self.usage.remove(key);
    }

    /// True if `key` is tracked.
    #[cfg(test)]
    pub fn contains(&self, key: &K) -> bool {
        self.usage.contains_key(key)
    }

    /// Runs a sweep at `now`; returns the keys whose subscriptions should
    /// be torn down (they are removed from the tracker).
    pub fn sweep(&mut self, now: SimTime) -> Vec<K> {
        let victims: Vec<K> = match self.policy {
            TeardownPolicy::Never => Vec::new(),
            TeardownPolicy::IdleTimeout(idle) => self
                .usage
                .iter()
                .filter(|(_, u)| now.saturating_duration_since(u.last_used) >= idle)
                .map(|(k, _)| k.clone())
                .collect(),
            TeardownPolicy::LruCap(cap) => {
                if self.usage.len() <= cap {
                    Vec::new()
                } else {
                    let mut by_age: Vec<(K, SimTime)> = self
                        .usage
                        .iter()
                        .map(|(k, u)| (k.clone(), u.last_used))
                        .collect();
                    by_age.sort_by_key(|(_, t)| *t);
                    by_age
                        .into_iter()
                        .take(self.usage.len() - cap)
                        .map(|(k, _)| k)
                        .collect()
                }
            }
            TeardownPolicy::Adaptive {
                min_rate_per_hour,
                window,
            } => self
                .usage
                .iter()
                .filter(|(_, u)| {
                    // Grace period: a subscription younger than the window
                    // is judged on its age so new domains are not evicted
                    // before they can accumulate history.
                    let span = now
                        .saturating_duration_since(u.created)
                        .min(window)
                        .as_secs_f64()
                        .max(1.0);
                    let cutoff = SimTime::from_nanos(
                        now.as_nanos().saturating_sub(window.as_nanos() as u64),
                    );
                    let recent = u.hits.iter().filter(|t| **t >= cutoff).count();
                    let rate_per_hour = recent as f64 / span * 3600.0;
                    rate_per_hour < min_rate_per_hour
                })
                .map(|(k, _)| k.clone())
                .collect(),
        };
        for k in &victims {
            self.usage.remove(k);
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn never_keeps_everything() {
        let mut tr: SubscriptionTracker<u32> = SubscriptionTracker::new(TeardownPolicy::Never);
        for k in 0..100 {
            tr.insert(k, t(0));
        }
        assert!(tr.sweep(t(1_000_000)).is_empty());
        assert_eq!(tr.len(), 100);
    }

    #[test]
    fn idle_timeout_drops_only_stale() {
        let mut tr: SubscriptionTracker<u32> =
            SubscriptionTracker::new(TeardownPolicy::IdleTimeout(Duration::from_secs(60)));
        tr.insert(1, t(0));
        tr.insert(2, t(0));
        tr.touch(&2, t(50));
        let victims = tr.sweep(t(70));
        assert_eq!(victims, vec![1]);
        assert!(tr.contains(&2));
        // 2 goes stale later.
        let victims = tr.sweep(t(111));
        assert_eq!(victims, vec![2]);
        assert!(tr.is_empty());
    }

    #[test]
    fn lru_cap_evicts_least_recent() {
        let mut tr: SubscriptionTracker<u32> = SubscriptionTracker::new(TeardownPolicy::LruCap(2));
        tr.insert(1, t(0));
        tr.insert(2, t(1));
        tr.insert(3, t(2));
        tr.touch(&1, t(10)); // 1 is now most recent
        let victims = tr.sweep(t(11));
        assert_eq!(victims, vec![2]);
        assert_eq!(tr.len(), 2);
        assert!(tr.contains(&1) && tr.contains(&3));
    }

    #[test]
    fn adaptive_keeps_hot_domains() {
        let policy = TeardownPolicy::Adaptive {
            min_rate_per_hour: 10.0,
            window: Duration::from_secs(3600),
        };
        let mut tr: SubscriptionTracker<&'static str> = SubscriptionTracker::new(policy);
        tr.insert("hot", t(0));
        tr.insert("cold", t(0));
        // 60 lookups of "hot" over the hour; one for "cold".
        for i in 0..60 {
            tr.touch(&"hot", t(i * 60));
        }
        let victims = tr.sweep(t(3600));
        assert_eq!(victims, vec!["cold"]);
        assert!(tr.contains(&"hot"));
    }

    #[test]
    fn adaptive_grace_for_new_subscriptions() {
        let policy = TeardownPolicy::Adaptive {
            min_rate_per_hour: 10.0,
            window: Duration::from_secs(3600),
        };
        let mut tr: SubscriptionTracker<u32> = SubscriptionTracker::new(policy);
        // Inserted 2 minutes ago with 1 hit: rate over its short life is
        // 1 per 120 s = 30/hour > 10/hour → kept.
        tr.insert(1, t(0));
        assert!(tr.sweep(t(120)).is_empty());
    }

    #[test]
    fn explicit_remove() {
        let mut tr: SubscriptionTracker<u32> = SubscriptionTracker::new(TeardownPolicy::Never);
        tr.insert(1, t(0));
        tr.remove(&1);
        assert!(tr.is_empty());
    }

    #[test]
    fn touch_unknown_is_noop() {
        let mut tr: SubscriptionTracker<u32> = SubscriptionTracker::new(TeardownPolicy::Never);
        tr.touch(&9, t(0));
        assert!(tr.is_empty());
    }
}
