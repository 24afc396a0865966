//! Relay core: subscription aggregation, newest-version caching, and
//! topology-aware upstream routing.
//!
//! Paper §3: "Relays are MoQT endpoints that do not publish or consume
//! media but forward and route objects from publishers to subscribers.
//! Relays can aggregate subscriptions of multiple subscribers to a single
//! upstream subscription and cache objects without accessing the object
//! payload."
//!
//! [`RelayCore`] is the pure logic of such a relay: it maps downstream
//! subscriptions onto (at most) one upstream subscription per track,
//! holds each track's newest object, and computes fan-out lists. A group
//! id is a zone version (§4.2), so a subscriber only ever wants the
//! newest one. It never parses payloads — there is no DNS dependency in
//! this crate at all, which *proves* payload agnosticism at the type
//! level. The surrounding node (in `moqdns-core`) owns the actual sessions
//! and executes the actions this core emits.
//!
//! ## Routing
//!
//! The paper's §5.3 scenarios assume distribution paths of several relays
//! ("involving 5 MoQ relays on average"), so a relay is not limited to one
//! upstream parent: it holds an ordered set of *links* and a [`Route`]
//! that picks, per track, which parent serves the upstream subscription.
//! The route only ever sees the track identity and which parents are up —
//! never payloads — so routing stays payload-agnostic too. [`Route`] is
//! one closed enum, a variant per §5.3 topology:
//!
//! * [`Route::Static`] — the classic single-parent chain (parent 0 always);
//! * [`Route::HashShard`] — deterministic track-hash sharding across K
//!   parents, spreading distinct tracks over a multi-relay mesh;
//! * [`Route::Failover`] — primary-first with fail-over to the next
//!   parent that is up when the upstream connection closes.
//!
//! Every [`RelayAction::SubscribeUpstream`] carries the chosen [`LinkId`];
//! when a link dies the owning node reports it via
//! [`RelayCore::on_uplink_closed`] and executes the re-subscribe actions
//! the core emits (the re-route is where fail-over actually happens).
//!
//! ## Federation
//!
//! Parents are not the only upstream direction: a core relay may join a
//! **cross-region federation** ([`RelayCore::federate`]) in which every
//! core is the shard-home of part of the track space and the cores serve
//! *each other* over **peer links** ([`FederationConfig`]). A peer link is
//! a link past the parents: link `i` is a parent when `i` is below the
//! parent count and a peer otherwise, and one health vector covers both.
//! A cache miss for a track homed on a peer core emits the same
//! [`RelayAction::FetchUpstream`] / [`RelayAction::SubscribeUpstream`] on
//! that peer's link instead of escalating to the origin; only the home
//! core of a track ever contacts the origin for it. A fetch over a peer
//! link carries a **hop budget** (`hop_budget: Some(_)`) so rerouted
//! requests can never cycle, and peer traffic is tallied in
//! [`RelayStats::peer_fetches`], [`RelayStats::peer_objects`], and
//! [`RelayStats::origin_offload`].

use crate::data::Object;
use crate::reason::ReasonCounts;
use crate::session::SessionStats;
use crate::track::FullTrackName;
use moqdns_quic::Faults;
use moqdns_wire::btree_heap_bytes;
use std::collections::btree_map::{BTreeMap, Entry};
use std::mem::size_of;

/// Identifies one downstream session at the owning node.
pub type SessionKey = u64;

/// Index of one upstream link in the relay's ordered link set: indices
/// below the parent count are **parents** (routed by the [`Route`]), the
/// rest are **peer** links toward federated sibling cores (routed by the
/// [`FederationConfig`] shard map).
pub type LinkId = usize;

/// Cross-region core federation: this relay is one shard-home among
/// `shards` peered cores. Tracks whose [`track_hash`] shard differs from
/// `my_shard` are resolved over the **peer link** toward their home core
/// (subscribe and fetch alike) instead of escalating to the origin; only
/// the home core of a track ever talks to the origin for it.
///
/// Peer links are ordered by shard index with `my_shard` omitted, so the
/// peer link for shard `s` is `parents + s - (s > my_shard)`. A fetch a
/// core originates starts with a hop budget of `shards` (any loop-free
/// path is shorter); each core-to-core forward spends one, and a fetch
/// with none left that would need another peer hop is rejected instead,
/// which makes federation routing loop-free by construction.
#[derive(Debug, Clone, Copy)]
pub struct FederationConfig {
    /// This core's own shard index in `0..shards`.
    pub my_shard: usize,
    /// Total number of federated cores (= shards).
    pub shards: usize,
}

impl FederationConfig {
    /// Federation among `shards` cores as shard `my_shard`.
    pub fn new(my_shard: usize, shards: usize) -> FederationConfig {
        assert!(shards >= 1 && my_shard < shards, "shard out of range");
        FederationConfig { my_shard, shards }
    }

    /// The home shard of `track` (the same arithmetic [`Route::HashShard`]
    /// uses at the edges, so edge sharding and core federation agree).
    pub fn home_shard(&self, track: &FullTrackName) -> usize {
        (track_hash(track) % self.shards as u64) as usize
    }
}

/// Per-track choice among the parents. Deterministic: the same track and
/// the same health view always yield the same parent, so a simulation
/// replays identically from its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The classic single-parent chain: every track routes to parent 0,
    /// even when it is marked down (routing to a down parent makes the
    /// owning node redial it — the reconnect semantics a single-parent
    /// relay needs).
    Static,
    /// Deterministic track-hash sharding across K parents: a track's home
    /// shard is `track_hash % K`; when the home shard is down the route
    /// walks the ring to the next parent that is up, and when every
    /// parent is down it returns the home shard (forcing a redial there).
    HashShard,
    /// Primary-first with fail-over: tracks ride the lowest-index parent
    /// that is up; when the primary's connection closes everything
    /// re-routes to the next one. With every parent down, parent 0.
    Failover,
}

impl Route {
    /// The parent that should carry `track`'s upstream subscription, given
    /// which parents are `up`. `None` when there are no parents.
    pub fn route(self, track: &FullTrackName, up: &[bool]) -> Option<LinkId> {
        let k = up.len();
        if k == 0 {
            return None;
        }
        Some(match self {
            Route::Static => 0,
            Route::HashShard => {
                let home = (track_hash(track) % k as u64) as usize;
                let mut ring = (0..k).map(|step| (home + step) % k);
                ring.find(|&l| up[l]).unwrap_or(home)
            }
            Route::Failover => up.iter().position(|&u| u).unwrap_or(0),
        })
    }

    /// Short label for stats tables.
    pub fn name(self) -> &'static str {
        match self {
            Route::Static => "static",
            Route::HashShard => "hash-shard",
            Route::Failover => "failover",
        }
    }
}

/// Stable 64-bit FNV-1a hash of a track identity (namespace tuple +
/// name, length-delimited so distinct tuples never collide by
/// concatenation). Independent of process, seed, and run — the property
/// the sharding determinism tests pin down.
pub fn track_hash(track: &FullTrackName) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    fn eat(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h
    }
    let mut h = OFFSET;
    for part in track.namespace().chain([track.name()]) {
        h = eat(h, &(part.len() as u64).to_le_bytes());
        h = eat(h, part);
    }
    h
}

/// What the owning node must do after feeding the core an input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayAction {
    /// Open (or reuse) the upstream session on `link` and subscribe to
    /// `track`; associate the upstream subscription with `track`.
    SubscribeUpstream {
        /// Track to subscribe to upstream.
        track: FullTrackName,
        /// The parent the route chose, or the peer link toward the
        /// track's home core.
        link: LinkId,
    },
    /// Accept the downstream subscription with our current largest version.
    AcceptDownstream {
        /// Downstream session.
        session: SessionKey,
        /// Downstream request id.
        request_id: u64,
        /// Largest cached (group, object), if any.
        largest: Option<(u64, u64)>,
        /// The track table's own handle of the subscribed track, for
        /// `Session::share_subscribed_track`.
        track: FullTrackName,
    },
    /// Forward an object to a downstream subscriber.
    Forward {
        /// Downstream session.
        session: SessionKey,
        /// Downstream request id.
        request_id: u64,
        /// The object (payload untouched).
        object: Object,
    },
    /// Answer a downstream fetch from cache.
    ServeFetch {
        /// Downstream session.
        session: SessionKey,
        /// Downstream fetch request id.
        request_id: u64,
        /// Largest cached (group, object).
        largest: (u64, u64),
        /// The newest object, when the fetch's range holds it.
        object: Option<Object>,
    },
    /// Cache miss with no fetch already in flight: the node must fetch on
    /// `link` and then call [`RelayCore::on_upstream_fetch_result`] (or
    /// [`RelayCore::on_upstream_fetch_failed`]). The waiting downstream
    /// fetches live in the core's pending-fetch table, not in the action:
    /// any number of concurrent same-track fetches collapse into one
    /// upstream fetch whose result fans out to every waiter.
    FetchUpstream {
        /// Track to fetch.
        track: FullTrackName,
        /// Which link to fetch over.
        link: LinkId,
        /// Start group requested.
        start_group: u64,
        /// End group requested (inclusive).
        end_group: u64,
        /// Over a peer link, the core-to-core forwards the fetch may
        /// still take; `None` over a parent.
        hop_budget: Option<u64>,
    },
    /// Reject a downstream fetch (upstream unavailable or fetch failed).
    RejectFetch {
        /// Downstream session.
        session: SessionKey,
        /// Downstream fetch request id.
        request_id: u64,
    },
    /// Evict an abusive downstream session: close its connection. Emitted
    /// when a session exceeds [`RelayLimits::evict_after_throttles`]; the
    /// node also follows up with [`RelayCore::on_session_closed`] when
    /// the close lands.
    CloseSession {
        /// Downstream session to evict.
        session: SessionKey,
    },
    /// No downstream subscribers remain: drop the upstream subscription.
    UnsubscribeUpstream {
        /// Track to drop.
        track: FullTrackName,
        /// Link (parent or peer) that carried the subscription.
        link: LinkId,
    },
}

/// Per-track relay state. An entry lives while it has a subscriber, an
/// upstream subscription or (at a core with links) a newest object: a
/// throttled, rejected or failed fetch leaves nothing behind.
#[derive(Debug, Default)]
struct TrackState {
    /// Downstream subscribers: (session, request_id).
    subscribers: Vec<(SessionKey, u64)>,
    /// Link carrying the upstream subscription, when one exists (or is
    /// being set up).
    upstream: Option<LinkId>,
    /// The newest object carried, by `(group, object)`: the only version
    /// a fetch is ever served. Holding the [`Object`] shares the
    /// publisher's bytes instead of copying them.
    newest: Option<Object>,
}

impl TrackState {
    fn largest(&self) -> Option<(u64, u64)> {
        self.newest.as_ref().map(|o| (o.group_id, o.object_id))
    }

    /// Keeps `object` unless the one held is newer.
    fn hold(&mut self, object: Object) {
        if self.largest() <= Some((object.group_id, object.object_id)) {
            self.newest = Some(object);
        }
    }

    /// The serve rule, for cache hits and waiters alike: a fetch of
    /// groups `[start, end]` is served the newest object when its range
    /// holds it, and nothing otherwise.
    fn serve(&self, start: u64, end: u64) -> Option<Object> {
        let held = self.newest.as_ref();
        held.filter(|o| (start..=end).contains(&o.group_id))
            .cloned()
    }

    fn forward(&self, object: &Object) -> Vec<RelayAction> {
        let forward = |&(session, request_id): &(SessionKey, u64)| RelayAction::Forward {
            session,
            request_id,
            object: object.clone(),
        };
        self.subscribers.iter().map(forward).collect()
    }

    fn is_idle(&self, origin: bool) -> bool {
        self.subscribers.is_empty() && self.upstream.is_none() && (origin || self.newest.is_none())
    }
}

/// One in-flight upstream fetch and the downstream fetches blocked on it.
///
/// The §3 stampede problem: when N downstreams issue a joining fetch for
/// the same (cold) track at once, a naive relay escalates N upstream
/// fetches — `fetch_cache_misses` multiplies up the tree exactly the way
/// aggregation is supposed to prevent. The pending-fetch table collapses
/// them: the first miss opens the upstream fetch, every later one joins
/// the waiter list, and the single result fans out to all of them.
#[derive(Debug)]
struct PendingFetch {
    /// Link carrying the in-flight upstream fetch(es).
    link: LinkId,
    /// Start group of the in-flight request (union of all issued).
    start_group: u64,
    /// End group (inclusive) of the in-flight request (union).
    end_group: u64,
    /// Upstream fetches currently in flight for this track. Usually 1;
    /// becomes 2 when a wider request arrives while a narrower fetch is
    /// in flight (the widened union is re-issued). Results serve only
    /// the waiters they cover until the last fetch lands.
    outstanding: u32,
    /// Downstream fetches blocked on a result.
    waiters: Vec<Waiter>,
}

/// One downstream fetch blocked on an in-flight upstream fetch. The
/// requested range is kept per waiter so the fan-out serves each waiter
/// only the groups it asked for, exactly like the cache-hit path.
#[derive(Debug)]
struct Waiter {
    session: SessionKey,
    request_id: u64,
    start_group: u64,
    end_group: u64,
}

moqdns_wire::counters! {
    /// Recovery counters of a relay's link layer (`moqdns_core::links`).
    pub struct DialStats {
        /// Recovery-probe redial attempts against uplinks believed down
        /// (each abandons any stalled previous dial and starts a fresh
        /// handshake). Chaos drills gate on this staying bounded instead
        /// of eyeballing logs.
        redials = "link.dial.redials",
        /// Dial attempts (initial or redial) that could not even create a
        /// connection — the remote address was unreachable at the
        /// endpoint layer.
        failed_dials = "link.dial.failed",
    }
}

moqdns_wire::counters! {
    /// Counters for relay effectiveness (ablation A3, §3 aggregation).
    pub struct RelayStats {
        /// Downstream subscription requests seen.
        downstream_subscribes = "relay.subscribe.downstream",
        /// Upstream subscriptions opened (including re-subscribes after an
        /// uplink loss).
        upstream_subscribes = "relay.subscribe.upstream",
        /// Objects received from upstream, over any link: the copy gates
        /// count these, since several may share one datagram.
        upstream_objects = "relay.objects.upstream",
        /// Objects forwarded downstream.
        objects_forwarded = "relay.objects.forwarded",
        /// Fetches served from cache.
        fetch_cache_hits = "relay.fetch.cache_hits",
        /// Fetches requiring upstream data (whether they opened a new
        /// upstream fetch or joined one already in flight).
        fetch_cache_misses = "relay.fetch.cache_misses",
        /// Cache-missing fetches absorbed by an in-flight upstream fetch
        /// for the same track (no extra upstream fetch was opened).
        fetch_coalesced = "relay.fetch.coalesced",
        /// Upstream fetches actually opened
        /// (`fetch_cache_misses - fetch_coalesced`, plus re-issues after an
        /// uplink died with the fetch in flight).
        upstream_fetches = "relay.fetch.upstream",
        /// Downstream fetches answered from an upstream fetch result
        /// fanning out through the waiter list.
        fetch_waiters_served = "relay.fetch.waiters_served",
        /// Tracks moved to a *different* uplink after their uplink closed.
        reroutes = "relay.route.reroutes",
        /// Tracks moved back onto a recovered uplink (its hash shard or
        /// failover priority reclaimed) by [`RelayCore::on_uplink_up`].
        rebalances = "relay.route.rebalances",
        /// Upstream fetches that rode a **peer link** to a federated
        /// sibling core instead of a parent uplink (subset of
        /// `upstream_fetches`).
        peer_fetches = "relay.peer.fetches",
        /// Objects that arrived over a peer link (federated distribution:
        /// region-to-region traffic that never touched the origin).
        peer_objects = "relay.peer.objects",
        /// Upstream actions (subscribes + fetches) the federation map
        /// served over a peer link that a non-federated relay would have
        /// escalated to the origin — the §5.3 origin-offload headline
        /// counter.
        origin_offload = "relay.peer.origin_offload",
        /// Downstream fetches rejected because the session was over its
        /// [`RelayLimits::max_outstanding_fetches_per_session`] budget —
        /// the fetch-bomb backpressure counter.
        throttled_fetches = "relay.fetch.throttled",
        /// Sessions the relay decided to evict: fetch-bombers past
        /// [`RelayLimits::evict_after_throttles`] (counted here) plus
        /// slow-loris sessions the node closed over backlog (reported via
        /// [`RelayCore::note_session_evicted`]).
        evicted_sessions = "relay.session.evicted",
    }
    with {
        /// Hardening counters of every session the relay ever hosted
        /// (each violation poisoned the offending session). Filled in by
        /// the owning node; the pure core never sees wire bytes.
        session: SessionStats,
        /// The link layer's recovery counters. Filled in by the owning
        /// node.
        dials: DialStats,
        /// What the node's sessions raised, by [`Reason`](crate::Reason):
        /// poisons, data streams refused while a window of them waited
        /// for the peer's stream credit, and data streams the peer's
        /// flow-control window cut short. Filled in by the owning node.
        reasons: ReasonCounts,
        /// What the node's QUIC endpoint counted of its peers' faults:
        /// connections it closed over what the peer sent, and datagrams
        /// it dropped whole. Filled in by the owning node.
        faults: Faults,
    }
}

/// Per-session abuse limits a relay enforces on its downstreams.
///
/// The defaults are deliberately permissive — far above anything the
/// honest scenarios produce — so enabling enforcement changes no honest
/// baseline; adversarial worlds tighten them explicitly.
#[derive(Debug, Clone, Copy)]
pub struct RelayLimits {
    /// Cache-missing fetches one downstream session may have parked in
    /// the pending-fetch table at once. Requests past the cap are
    /// rejected ([`RelayStats::throttled_fetches`]).
    pub max_outstanding_fetches_per_session: u32,
    /// Throttled fetches after which the session is evicted outright
    /// ([`RelayAction::CloseSession`], [`RelayStats::evicted_sessions`]).
    pub evict_after_throttles: u32,
}

impl Default for RelayLimits {
    fn default() -> RelayLimits {
        RelayLimits {
            max_outstanding_fetches_per_session: 1024,
            evict_after_throttles: 4096,
        }
    }
}

/// Per-session fetch accounting against [`RelayLimits`].
#[derive(Debug, Default)]
struct FetchBudget {
    /// Waiters this session currently has parked in the pending table.
    outstanding: u32,
    /// Fetches throttled so far (monotone; triggers eviction at the cap).
    throttles: u32,
}

/// The relay's track/subscription/cache bookkeeping.
#[derive(Debug)]
pub struct RelayCore {
    tracks: BTreeMap<FullTrackName, TrackState>,
    /// In-flight upstream fetches with their blocked downstreams.
    pending: BTreeMap<FullTrackName, PendingFetch>,
    /// How a track picks among the parents.
    policy: Route,
    /// Whether each link is believed up: the parents, then the peer links
    /// in federation shard order (self omitted).
    up: Vec<bool>,
    /// Links `0..parents` are parents; the rest are peers.
    parents: usize,
    /// Cross-region federation shard map, when this core participates.
    federation: Option<FederationConfig>,
    /// Per-session fetch budgets against `limits`.
    budgets: BTreeMap<SessionKey, FetchBudget>,
    limits: RelayLimits,
    stats: RelayStats,
}

impl RelayCore {
    /// Creates a single-parent relay core — the classic single-parent
    /// chain. The argument is ignored: a track holds its newest object,
    /// whatever a caller asks.
    pub fn new(_cache_per_track: usize) -> RelayCore {
        RelayCore::with_policy(1, Route::Static)
    }

    /// Creates a relay core routing across `parents` upstream parents
    /// according to `policy`.
    pub fn with_policy(parents: usize, policy: Route) -> RelayCore {
        RelayCore {
            tracks: BTreeMap::new(),
            pending: BTreeMap::new(),
            policy,
            up: vec![true; parents],
            parents,
            federation: None,
            budgets: BTreeMap::new(),
            limits: RelayLimits::default(),
            stats: RelayStats::default(),
        }
    }

    /// Replaces the per-session abuse limits (builder style).
    pub fn with_limits(mut self, limits: RelayLimits) -> RelayCore {
        self.limits = limits;
        self
    }

    /// The owning node evicted a session itself (e.g. a slow-loris
    /// subscriber whose connection backlog crossed the node's bound):
    /// record it in [`RelayStats::evicted_sessions`].
    pub fn note_session_evicted(&mut self) {
        self.stats.evicted_sessions += 1;
    }

    /// Joins a cross-region core federation: adds `fed.shards - 1` peer
    /// links (shard order, self omitted) after the parents and activates
    /// the shard map of [`FederationConfig`].
    pub fn federate(mut self, fed: FederationConfig) -> RelayCore {
        self.up.resize(self.parents + fed.shards - 1, true);
        self.federation = Some(fed);
        self
    }

    /// The federation config, when this core is federated.
    #[cfg(test)]
    pub fn federation(&self) -> Option<&FederationConfig> {
        self.federation.as_ref()
    }

    fn is_peer(&self, link: LinkId) -> bool {
        link >= self.parents
    }

    /// Whether link `link` (parent or peer) is currently believed healthy.
    pub fn is_link_up(&self, link: LinkId) -> bool {
        self.up.get(link).copied().unwrap_or(false)
    }

    /// The peer link carrying traffic toward shard `shard`'s home core.
    /// `None` for this core's own shard or without federation.
    pub fn peer_link_for_shard(&self, shard: usize) -> Option<LinkId> {
        let fed = self.federation.as_ref()?;
        if shard == fed.my_shard || shard >= fed.shards {
            return None;
        }
        Some(self.parents + shard - usize::from(shard > fed.my_shard))
    }

    /// The shard whose home core sits behind peer link `link` (inverse of
    /// [`RelayCore::peer_link_for_shard`]).
    #[cfg(test)]
    fn shard_for_peer_link(&self, link: LinkId) -> Option<usize> {
        let fed = self.federation.as_ref()?;
        let peer = link.checked_sub(self.parents)?;
        if peer >= fed.shards - 1 {
            return None;
        }
        Some(peer + usize::from(peer >= fed.my_shard))
    }

    fn set_link_health(&mut self, link: LinkId, up: bool) {
        if let Some(slot) = self.up.get_mut(link) {
            *slot = up;
        }
    }

    /// Per-track link choice: a track homed on a peer shard rides the
    /// peer link to its home core while that link is up; otherwise (and
    /// without federation) the route picks a parent, which degrades a
    /// federated track to the classic origin escalation until the peer
    /// recovers.
    fn route_link(&self, track: &FullTrackName) -> Option<LinkId> {
        let home = self.federation.as_ref().map(|fed| fed.home_shard(track));
        match home.and_then(|shard| self.peer_link_for_shard(shard)) {
            Some(peer) if self.up[peer] => Some(peer),
            _ => self.policy.route(track, &self.up[..self.parents]),
        }
    }

    /// The subscribe action for `track` on `link`, counted as a new
    /// upstream subscription (and as origin offload over a peer link).
    fn subscribe_on(&mut self, track: FullTrackName, link: LinkId) -> RelayAction {
        self.stats.upstream_subscribes += 1;
        if self.is_peer(link) {
            self.stats.origin_offload += 1;
        }
        RelayAction::SubscribeUpstream { track, link }
    }

    /// Drops all track, cache, and pending-fetch state and marks every
    /// link healthy again, keeping the cumulative counters. Used when
    /// the owning node is revived after a mid-run shutdown: downstream
    /// sessions and upstream connections are gone, so the bookkeeping
    /// must start over.
    pub fn reset(&mut self) {
        self.tracks.clear();
        self.pending.clear();
        self.budgets.clear();
        self.up.fill(true);
    }

    /// Number of in-flight upstream fetches (pending-fetch table size).
    pub fn pending_fetch_count(&self) -> usize {
        self.pending.len()
    }

    /// Relay effectiveness counters.
    pub fn stats(&self) -> RelayStats {
        self.stats
    }

    /// The route's label (for stats tables).
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Bytes the core holds: its track entries with their subscriber
    /// lists and newest payloads, the pending fetches with their waiters,
    /// the fetch budgets and the link health vector. A name buffer is
    /// charged as a share of what its holders share.
    pub fn state_size_estimate(&self) -> usize {
        let track = |(name, st): (&FullTrackName, &TrackState)| {
            name.heap_bytes()
                + st.subscribers.capacity() * size_of::<(SessionKey, u64)>()
                + st.newest.as_ref().map_or(0, |o| o.payload.heap_bytes())
        };
        let pending = |(name, p): (&FullTrackName, &PendingFetch)| {
            name.heap_bytes() + p.waiters.capacity() * size_of::<Waiter>()
        };
        size_of::<RelayCore>()
            + btree_heap_bytes::<FullTrackName, TrackState>(self.tracks.len())
            + self.tracks.iter().map(track).sum::<usize>()
            + btree_heap_bytes::<FullTrackName, PendingFetch>(self.pending.len())
            + self.pending.iter().map(pending).sum::<usize>()
            + btree_heap_bytes::<SessionKey, FetchBudget>(self.budgets.len())
            + self.up.capacity()
    }

    /// Total downstream subscriptions across tracks.
    pub fn subscriber_count(&self) -> usize {
        self.tracks.values().map(|t| t.subscribers.len()).sum()
    }

    /// Number of live upstream subscriptions.
    pub fn upstream_count(&self) -> usize {
        self.tracks
            .values()
            .filter(|t| t.upstream.is_some())
            .count()
    }

    /// Upstream aggregation factor: downstream subs per upstream sub
    /// (the relay's whole point — N downstream cost 1 upstream).
    pub fn aggregation_factor(&self) -> f64 {
        let up = self.upstream_count();
        if up == 0 {
            0.0
        } else {
            self.subscriber_count() as f64 / up as f64
        }
    }

    /// A downstream session subscribed to `track`.
    pub fn on_downstream_subscribe(
        &mut self,
        session: SessionKey,
        request_id: u64,
        track: FullTrackName,
    ) -> Vec<RelayAction> {
        self.stats.downstream_subscribes += 1;
        // Requests go on with the table's own handle of the name and drop
        // the one they came with (decoded from a SUBSCRIBE or FETCH), so a
        // relay holds one name buffer per track however many named it.
        let (track, st) = match self.tracks.entry(track) {
            Entry::Occupied(e) => (e.key().clone(), e.into_mut()),
            Entry::Vacant(e) => (e.key().clone(), e.insert(TrackState::default())),
        };
        st.subscribers.push((session, request_id));
        let mut actions = vec![RelayAction::AcceptDownstream {
            session,
            request_id,
            largest: st.largest(),
            track: track.clone(),
        }];
        if st.upstream.is_some() {
            return actions;
        }
        if let Some(link) = self.route_link(&track) {
            let st = self.tracks.get_mut(&track).expect("entry made above");
            st.upstream = Some(link);
            actions.insert(0, self.subscribe_on(track, link));
        }
        actions
    }

    /// A downstream session unsubscribed.
    pub fn on_downstream_unsubscribe(
        &mut self,
        session: SessionKey,
        request_id: u64,
    ) -> Vec<RelayAction> {
        self.drop_subscribers(|s, r| s == session && r == request_id)
    }

    /// A whole downstream session died: drop all its subscriptions, its
    /// fetch budget, and any waiters it still had parked.
    pub fn on_session_closed(&mut self, session: SessionKey) -> Vec<RelayAction> {
        self.budgets.remove(&session);
        for p in self.pending.values_mut() {
            p.waiters.retain(|w| w.session != session);
        }
        self.drop_subscribers(|s, _| s == session)
    }

    /// At a core with no links: `track`'s answer can no longer be kept
    /// current, so its entry goes, and its downstream subscriptions are
    /// handed back in subscribe order for the node to end.
    pub fn end_subscribers(&mut self, track: &FullTrackName) -> Vec<(SessionKey, u64)> {
        self.tracks
            .remove(track)
            .map_or_else(Vec::new, |st| st.subscribers)
    }

    /// Drops the downstream subscriptions `gone` names; a track left with
    /// none drops its upstream subscription too, and its entry when it
    /// holds no object either — at an origin, whatever it holds: the
    /// answer there is the zone's, not a cache.
    fn drop_subscribers(&mut self, gone: impl Fn(SessionKey, u64) -> bool) -> Vec<RelayAction> {
        let mut actions = Vec::new();
        let origin = self.up.is_empty();
        self.tracks.retain(|track, st| {
            st.subscribers.retain(|&(s, r)| !gone(s, r));
            if st.subscribers.is_empty() {
                if let Some(link) = st.upstream.take() {
                    actions.push(RelayAction::UnsubscribeUpstream {
                        track: track.clone(),
                        link,
                    });
                }
            }
            !st.is_idle(origin)
        });
        actions
    }

    /// The connection behind link `link` (parent *or* peer) closed.
    /// Marks it down and re-routes every track whose upstream
    /// subscription lived there: each gets a fresh subscribe action on
    /// the link the routing now picks (possibly the same one — that makes
    /// the node redial; a track homed on a dead peer degrades to the
    /// route's parent until the peer recovers).
    pub fn on_uplink_closed(&mut self, link: LinkId) -> Vec<RelayAction> {
        self.set_link_health(link, false);
        let mut actions = Vec::new();
        // Out of `self` while it is walked, so routing can read the rest.
        let mut tracks = std::mem::take(&mut self.tracks);
        for (track, st) in tracks.iter_mut() {
            if st.upstream != Some(link) {
                continue;
            }
            st.upstream = None;
            if st.subscribers.is_empty() {
                continue;
            }
            if let Some(new) = self.route_link(track) {
                if new != link {
                    self.stats.reroutes += 1;
                }
                st.upstream = Some(new);
                actions.push(self.subscribe_on(track.clone(), new));
            }
        }
        self.tracks = tracks;
        // Pending upstream fetches that rode the dead link: re-issue on
        // the link the routing now picks (the waiter list survives), or
        // reject every waiter when no other link can serve the track.
        let stranded: Vec<FullTrackName> = self
            .pending
            .iter()
            .filter(|(_, p)| p.link == link)
            .map(|(t, _)| t.clone())
            .collect();
        for track in stranded {
            match self.route_link(&track) {
                Some(new) if new != link => {
                    let p = self.pending.get_mut(&track).unwrap();
                    p.link = new;
                    // Everything in flight rode the dead link; one fresh
                    // fetch for the whole recorded union replaces it.
                    p.outstanding = 1;
                    let groups = (p.start_group, p.end_group);
                    let stamp = self.fresh_budget().saturating_sub(1);
                    actions.push(self.fetch_action(track, new, groups, stamp));
                }
                _ => {
                    let p = self.pending.remove(&track).unwrap();
                    for w in p.waiters {
                        self.release_fetch_budget(w.session);
                        actions.push(RelayAction::RejectFetch {
                            session: w.session,
                            request_id: w.request_id,
                        });
                    }
                }
            }
        }
        actions
    }

    /// A connection on link `link` (parent *or* peer) is live again:
    /// mark it healthy and *rebalance* — every track whose current link
    /// differs from what the routing now picks moves back (a recovered
    /// parent reclaims its hash shard; a recovered failover primary
    /// reclaims everything; a recovered peer reclaims the federated
    /// tracks homed on it). Each move is an `UnsubscribeUpstream` on the
    /// old link plus a fresh subscribe on the recovered one, counted in
    /// [`RelayStats::rebalances`].
    pub fn on_uplink_up(&mut self, link: LinkId) -> Vec<RelayAction> {
        self.set_link_health(link, true);
        let mut actions = Vec::new();
        let mut tracks = std::mem::take(&mut self.tracks);
        for (track, st) in tracks.iter_mut() {
            let Some(cur) = st.upstream else { continue };
            if st.subscribers.is_empty() {
                continue;
            }
            let Some(new) = self.route_link(track).filter(|&new| new != cur) else {
                continue;
            };
            st.upstream = Some(new);
            self.stats.rebalances += 1;
            actions.push(RelayAction::UnsubscribeUpstream {
                track: track.clone(),
                link: cur,
            });
            actions.push(self.subscribe_on(track.clone(), new));
        }
        self.tracks = tracks;
        actions
    }

    /// An object arrived over link `link` on `track`: counts it in
    /// [`RelayStats::upstream_objects`] and federated (peer-link) traffic
    /// in [`RelayStats::peer_objects`], then caches and fans out exactly
    /// like [`RelayCore::on_upstream_object`].
    pub fn on_link_object(
        &mut self,
        link: LinkId,
        track: &FullTrackName,
        object: Object,
    ) -> Vec<RelayAction> {
        self.stats.upstream_objects += 1;
        if self.is_peer(link) {
            self.stats.peer_objects += 1;
        }
        self.on_upstream_object(track, object)
    }

    /// An object arrived from upstream on `track`: hold it unless a newer
    /// one is held, and fan it out. The payload is moved through
    /// untouched, and *shared*: holding it and every per-subscriber
    /// [`RelayAction::Forward`] clone the payload handle (a refcount
    /// bump), so publish cost is O(1) in subscriber count for payload
    /// bytes copied.
    pub fn on_upstream_object(
        &mut self,
        track: &FullTrackName,
        object: Object,
    ) -> Vec<RelayAction> {
        let Some(st) = self.tracks.get_mut(track) else {
            return Vec::new();
        };
        st.hold(object.clone());
        self.stats.objects_forwarded += st.subscribers.len() as u64;
        st.forward(&object)
    }

    /// At a core with no links (an origin): `object` is `track`'s answer as
    /// of now, held as its newest and forwarded to each subscriber when
    /// its bytes differ from the answer held before. The node hands the
    /// core the SUBSCRIBE it resolved this for right after.
    pub fn on_origin_object(&mut self, track: FullTrackName, object: Object) -> Vec<RelayAction> {
        let st = self.tracks.entry(track).or_default();
        let held = st.newest.replace(object.clone());
        if held.is_some_and(|held| held.payload == object.payload) {
            return Vec::new();
        }
        self.stats.objects_forwarded += st.subscribers.len() as u64;
        st.forward(&object)
    }

    /// The tracks that have a subscriber.
    pub fn subscribed_tracks(&self) -> impl Iterator<Item = &FullTrackName> {
        let tracks = self.tracks.iter();
        tracks.filter_map(|(track, st)| (!st.subscribers.is_empty()).then_some(track))
    }

    /// Opens an upstream fetch of `groups` of `track` on `link`. One over
    /// a peer link is stamped with `stamp`, the hops the receiving core
    /// may still spend, and counted as peer traffic.
    fn fetch_action(
        &mut self,
        track: FullTrackName,
        link: LinkId,
        (start_group, end_group): (u64, u64),
        stamp: u64,
    ) -> RelayAction {
        self.stats.upstream_fetches += 1;
        let hop_budget = self.is_peer(link).then_some(stamp);
        if hop_budget.is_some() {
            self.stats.peer_fetches += 1;
            self.stats.origin_offload += 1;
        }
        RelayAction::FetchUpstream {
            track,
            link,
            start_group,
            end_group,
            hop_budget,
        }
    }

    /// The hop budget of a fetch this core originates (see
    /// [`FederationConfig`]).
    fn fresh_budget(&self) -> u64 {
        self.federation.map_or(0, |fed| fed.shards as u64)
    }

    /// A downstream fetch for groups `[start_group, end_group]` of
    /// `track`: [`RelayCore::on_fetch`] with no hop budget of its own.
    pub fn on_downstream_fetch(
        &mut self,
        session: SessionKey,
        request_id: u64,
        track: FullTrackName,
        start_group: u64,
        end_group: u64,
    ) -> Vec<RelayAction> {
        self.on_fetch(session, request_id, track, start_group, end_group, None)
    }

    /// A fetch for groups `[start_group, end_group]` of `track`, from a
    /// downstream (`hop_budget: None`) or from a peer core carrying the
    /// hops it may still spend. Served from cache when the range holds
    /// the newest object; coalesced into an in-flight upstream fetch for
    /// the same track when one covers the range; otherwise escalated on the
    /// track's current link (or the routing's pick for it — a peer link
    /// when the track is federated and homed elsewhere). Forwarding to a
    /// peer spends budget: a fetch that would need a peer hop with none
    /// left is rejected instead, so a rerouted request can never cycle
    /// through the core graph.
    pub fn on_fetch(
        &mut self,
        session: SessionKey,
        request_id: u64,
        track: FullTrackName,
        start_group: u64,
        end_group: u64,
        hop_budget: Option<u64>,
    ) -> Vec<RelayAction> {
        let held = self.tracks.get_key_value(&track);
        if let Some(object) = held.and_then(|(_, st)| st.serve(start_group, end_group)) {
            self.stats.fetch_cache_hits += 1;
            return vec![RelayAction::ServeFetch {
                session,
                request_id,
                largest: (object.group_id, object.object_id),
                object: Some(object),
            }];
        }
        // A miss parks under the table's handle of the name when it has
        // one, and makes no entry when it has none.
        let upstream = held.and_then(|(_, st)| st.upstream);
        let track = held.map_or(track, |(key, _)| key.clone());
        // Cache miss: this fetch will occupy upstream capacity, so it
        // spends the session's budget. A fetch-bomber issuing cold-track
        // fetches faster than answers return saturates its budget, gets
        // throttled, and past the throttle cap is evicted outright.
        {
            let b = self.budgets.entry(session).or_default();
            if b.outstanding >= self.limits.max_outstanding_fetches_per_session {
                b.throttles += 1;
                self.stats.throttled_fetches += 1;
                let evict = b.throttles >= self.limits.evict_after_throttles;
                let mut actions = vec![RelayAction::RejectFetch {
                    session,
                    request_id,
                }];
                if evict {
                    self.budgets.remove(&session);
                    self.stats.evicted_sessions += 1;
                    actions.push(RelayAction::CloseSession { session });
                }
                return actions;
            }
            b.outstanding += 1;
        }
        self.stats.fetch_cache_misses += 1;
        let waiter = Waiter {
            session,
            request_id,
            start_group,
            end_group,
        };
        if let Some(p) = self.pending.get_mut(&track) {
            if p.start_group <= start_group && end_group <= p.end_group {
                // The stampede case: an upstream fetch covering this range
                // is already in flight — join its waiter list. A budgeted
                // peer fetch may always coalesce: joining spends no hop.
                p.waiters.push(waiter);
                self.stats.fetch_coalesced += 1;
                return Vec::new();
            }
        }
        let link = upstream.or_else(|| self.route_link(&track)).unwrap_or(0);
        let budget = hop_budget.unwrap_or_else(|| self.fresh_budget());
        if self.is_peer(link) && budget == 0 {
            // Forwarding to another peer would exceed the hop budget:
            // reject rather than risk a routing cycle. Nothing was
            // parked, so the budget charge above is refunded.
            self.release_fetch_budget(session);
            return vec![RelayAction::RejectFetch {
                session,
                request_id,
            }];
        }
        // New upstream fetch. If a narrower one was in flight, widen the
        // recorded range to the union, re-issue for the union, and keep
        // its waiters: each result serves exactly the waiters it covers
        // (relay fetches are whole-track in practice, so the two-fetch
        // case is a correctness backstop).
        let entry = self.pending.entry(track.clone()).or_insert(PendingFetch {
            link,
            start_group,
            end_group,
            outstanding: 0,
            waiters: Vec::new(),
        });
        entry.start_group = entry.start_group.min(start_group);
        entry.end_group = entry.end_group.max(end_group);
        entry.outstanding += 1;
        let groups = (entry.start_group, entry.end_group);
        entry.waiters.push(waiter);
        vec![self.fetch_action(track, link, groups, budget.saturating_sub(1))]
    }

    /// The node completed an upstream fetch triggered by
    /// [`RelayAction::FetchUpstream`], answering a whole-track request:
    /// hold the newest object and fan the result out to every downstream
    /// fetch blocked in the waiter list (each served exactly once).
    pub fn on_upstream_fetch_result(
        &mut self,
        track: &FullTrackName,
        objects: Vec<Object>,
    ) -> Vec<RelayAction> {
        self.on_upstream_fetch_result_range(track, objects, 0, u64::MAX)
    }

    /// Like [`RelayCore::on_upstream_fetch_result`], but the answer is
    /// known to cover only groups `[ans_start, ans_end]` (the range the
    /// fetch requested). Waiters whose requested range that answer covers
    /// are served now (by the serve rule, from the newest object); waiters
    /// blocked on a wider re-issued fetch stay pending until it lands — a
    /// narrow result must never short-serve a whole-track waiter.
    pub fn on_upstream_fetch_result_range(
        &mut self,
        track: &FullTrackName,
        objects: Vec<Object>,
        ans_start: u64,
        ans_end: u64,
    ) -> Vec<RelayAction> {
        if !objects.is_empty() {
            let st = self.tracks.entry(track.clone()).or_default();
            for o in objects {
                st.hold(o);
            }
        }
        let Some(p) = self.pending.get_mut(track) else {
            return Vec::new();
        };
        p.outstanding = p.outstanding.saturating_sub(1);
        let exhausted = p.outstanding == 0;
        let (ready, kept): (Vec<Waiter>, Vec<Waiter>) = std::mem::take(&mut p.waiters)
            .into_iter()
            // When nothing remains in flight, everything that will
            // arrive has arrived: serve everyone left.
            .partition(|w| exhausted || (ans_start <= w.start_group && w.end_group <= ans_end));
        if kept.is_empty() && exhausted {
            self.pending.remove(track);
        } else {
            p.waiters = kept;
        }
        for w in &ready {
            self.release_fetch_budget(w.session);
        }
        let st = self.tracks.get(track);
        let largest = st.and_then(TrackState::largest).unwrap_or((0, 0));
        self.stats.fetch_waiters_served += ready.len() as u64;
        ready
            .into_iter()
            .map(|w| RelayAction::ServeFetch {
                session: w.session,
                request_id: w.request_id,
                largest,
                object: st.and_then(|st| st.serve(w.start_group, w.end_group)),
            })
            .collect()
    }

    /// Returns one unit of fetch budget to `session` (its waiter left the
    /// pending table: served, rejected, or purged).
    fn release_fetch_budget(&mut self, session: SessionKey) {
        if let Some(b) = self.budgets.get_mut(&session) {
            b.outstanding = b.outstanding.saturating_sub(1);
        }
    }

    /// An upstream fetch for `track` failed (rejected or its link could
    /// not be dialed). If a wider re-issued fetch is still in flight the
    /// waiters keep waiting on it; otherwise every blocked waiter is
    /// rejected.
    pub fn on_upstream_fetch_failed(&mut self, track: &FullTrackName) -> Vec<RelayAction> {
        let Some(p) = self.pending.get_mut(track) else {
            return Vec::new();
        };
        p.outstanding = p.outstanding.saturating_sub(1);
        if p.outstanding > 0 {
            return Vec::new();
        }
        let p = self.pending.remove(track).unwrap();
        for w in &p.waiters {
            self.release_fetch_budget(w.session);
        }
        p.waiters
            .into_iter()
            .map(|w| RelayAction::RejectFetch {
                session: w.session,
                request_id: w.request_id,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn track(n: u8) -> FullTrackName {
        FullTrackName::new(vec![vec![n]], vec![n, n]).unwrap()
    }

    fn obj(group: u64, payload: &[u8]) -> Object {
        Object {
            group_id: group,
            object_id: 0,
            payload: payload.into(),
        }
    }

    #[test]
    fn first_subscriber_triggers_upstream() {
        let mut r = RelayCore::new(0);
        let a = r.on_downstream_subscribe(1, 2, track(1));
        assert_eq!(a.len(), 2);
        assert!(matches!(
            a[0],
            RelayAction::SubscribeUpstream { link: 0, .. }
        ));
        assert!(matches!(
            a[1],
            RelayAction::AcceptDownstream { largest: None, .. }
        ));
    }

    #[test]
    fn aggregation_single_upstream_for_many_downstream() {
        let mut r = RelayCore::new(0);
        r.on_downstream_subscribe(1, 2, track(1));
        let a2 = r.on_downstream_subscribe(2, 2, track(1));
        let a3 = r.on_downstream_subscribe(3, 4, track(1));
        // Only accepts; no further upstream subscribes.
        assert!(a2
            .iter()
            .all(|a| !matches!(a, RelayAction::SubscribeUpstream { .. })));
        assert!(a3
            .iter()
            .all(|a| !matches!(a, RelayAction::SubscribeUpstream { .. })));
        assert_eq!(r.stats().upstream_subscribes, 1);
        assert_eq!(r.stats().downstream_subscribes, 3);
        assert!((r.aggregation_factor() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn later_requests_are_handed_the_tables_handle_of_the_track() {
        let mut r = RelayCore::new(0);
        r.on_downstream_subscribe(1, 2, track(1));
        let unshared = track(1).heap_bytes();
        // A second SUBSCRIBE arrives in a buffer of its own and leaves
        // holding the table's.
        let a = r.on_downstream_subscribe(2, 2, track(1));
        let [RelayAction::AcceptDownstream { track: t, .. }] = &a[..] else {
            panic!("{a:?}");
        };
        assert_eq!(*t, track(1));
        assert!(t.heap_bytes() < unshared, "one buffer, two holders");
        // So does a cache-missing FETCH, in the action and the pending table.
        let a = r.on_downstream_fetch(3, 4, track(1), 0, u64::MAX);
        let [RelayAction::FetchUpstream { track: t, .. }] = &a[..] else {
            panic!("{a:?}");
        };
        assert!(t.heap_bytes() < unshared / 2, "key, pending key, action");
    }

    #[test]
    fn objects_fan_out_to_all_subscribers() {
        let mut r = RelayCore::new(0);
        r.on_downstream_subscribe(1, 2, track(1));
        r.on_downstream_subscribe(2, 2, track(1));
        let acts = r.on_upstream_object(&track(1), obj(7, b"payload"));
        assert_eq!(acts.len(), 2);
        for a in &acts {
            match a {
                RelayAction::Forward { object, .. } => {
                    assert_eq!(object.group_id, 7);
                    assert_eq!(object.payload, b"payload");
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(r.stats().objects_forwarded, 2);
    }

    #[test]
    fn late_subscriber_sees_cached_largest() {
        let mut r = RelayCore::new(0);
        r.on_downstream_subscribe(1, 2, track(1));
        r.on_upstream_object(&track(1), obj(9, b"v9"));
        let a = r.on_downstream_subscribe(2, 2, track(1));
        assert!(a.iter().any(|a| matches!(
            a,
            RelayAction::AcceptDownstream {
                largest: Some((9, 0)),
                ..
            }
        )));
    }

    #[test]
    fn fetch_served_from_cache() {
        let mut r = RelayCore::new(0);
        r.on_downstream_subscribe(1, 2, track(1));
        r.on_upstream_object(&track(1), obj(5, b"v5"));
        let a = r.on_downstream_fetch(2, 8, track(1), 5, 5);
        match &a[0] {
            RelayAction::ServeFetch {
                object, largest, ..
            } => {
                assert!(object.is_some());
                assert_eq!(*largest, (5, 0));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(r.stats().fetch_cache_hits, 1);
    }

    #[test]
    fn fetch_miss_escalates_upstream_then_serves() {
        let mut r = RelayCore::new(0);
        let a = r.on_downstream_fetch(2, 8, track(1), 5, 5);
        assert!(matches!(a[0], RelayAction::FetchUpstream { link: 0, .. }));
        assert_eq!(r.stats().fetch_cache_misses, 1);
        assert_eq!(r.stats().upstream_fetches, 1);
        assert_eq!(r.pending_fetch_count(), 1);
        let a = r.on_upstream_fetch_result(&track(1), vec![obj(5, b"v5")]);
        assert_eq!(a.len(), 1, "one waiter, one ServeFetch");
        match &a[0] {
            RelayAction::ServeFetch {
                session,
                request_id,
                object,
                ..
            } => {
                assert_eq!((*session, *request_id), (2, 8));
                assert!(object.is_some());
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(r.pending_fetch_count(), 0);
        // Now cached for the next fetch.
        let a = r.on_downstream_fetch(3, 2, track(1), 5, 5);
        assert!(matches!(a[0], RelayAction::ServeFetch { .. }));
    }

    #[test]
    fn fetch_stampede_coalesces_to_one_upstream_fetch() {
        // N concurrent same-track joining fetches -> ONE FetchUpstream;
        // the single result fans out to every blocked downstream.
        let mut r = RelayCore::new(0);
        let a = r.on_downstream_fetch(1, 10, track(1), 0, u64::MAX);
        assert!(matches!(a[0], RelayAction::FetchUpstream { .. }));
        for s in 2..=8u64 {
            let a = r.on_downstream_fetch(s, 10 + s, track(1), 0, u64::MAX);
            assert!(a.is_empty(), "coalesced into the in-flight fetch");
        }
        assert_eq!(r.stats().fetch_cache_misses, 8);
        assert_eq!(r.stats().fetch_coalesced, 7);
        assert_eq!(r.stats().upstream_fetches, 1);

        let acts = r.on_upstream_fetch_result(&track(1), vec![obj(3, b"v3")]);
        assert_eq!(acts.len(), 8, "every waiter served");
        let mut served: Vec<(u64, u64)> = acts
            .iter()
            .map(|a| match a {
                RelayAction::ServeFetch {
                    session,
                    request_id,
                    object,
                    largest,
                } => {
                    assert!(object.is_some());
                    assert_eq!(*largest, (3, 0));
                    (*session, *request_id)
                }
                other => panic!("{other:?}"),
            })
            .collect();
        served.sort_unstable();
        served.dedup();
        assert_eq!(served.len(), 8, "each downstream served exactly once");
        assert_eq!(r.stats().fetch_waiters_served, 8);
        // The result is cached: a late fetch is a plain hit.
        let a = r.on_downstream_fetch(99, 1, track(1), 0, u64::MAX);
        assert!(matches!(a[0], RelayAction::ServeFetch { .. }));
    }

    /// The session a fetch answer goes to and the group it carries.
    fn served_group(action: &RelayAction) -> (SessionKey, Option<u64>) {
        match action {
            RelayAction::ServeFetch {
                session, object, ..
            } => (*session, object.as_ref().map(|o| o.group_id)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn waiter_fanout_filters_objects_to_each_requested_range() {
        // A wide fetch opens the upstream fetch; a narrower one coalesces.
        // The fan-out serves each waiter the newest object only when its
        // range holds it, like the cache-hit path would.
        let mut r = RelayCore::new(0);
        let a = r.on_downstream_fetch(1, 10, track(1), 0, 10);
        assert!(matches!(a[0], RelayAction::FetchUpstream { .. }));
        assert!(r.on_downstream_fetch(2, 20, track(1), 2, 3).is_empty());
        let acts = r.on_upstream_fetch_result(&track(1), (0..=5).map(|g| obj(g, b"x")).collect());
        let served: Vec<_> = acts.iter().map(served_group).collect();
        assert_eq!(served, [(1, Some(5)), (2, None)], "narrow waiter filtered");
    }

    #[test]
    fn narrow_result_does_not_short_serve_widened_waiter() {
        // Reverse order of the stampede: a narrow fetch is in flight when
        // a whole-track fetch arrives. The union is re-issued; the narrow
        // result must serve ONLY the narrow waiter, and the wide waiter
        // is served when the union result lands — with its newest object.
        let mut r = RelayCore::new(0);
        let a = r.on_downstream_fetch(1, 10, track(1), 0, 2);
        assert!(matches!(
            a[0],
            RelayAction::FetchUpstream {
                start_group: 0,
                end_group: 2,
                ..
            }
        ));
        let a = r.on_downstream_fetch(2, 20, track(1), 0, u64::MAX);
        assert!(
            matches!(
                a[0],
                RelayAction::FetchUpstream {
                    end_group: u64::MAX,
                    ..
                }
            ),
            "union re-issued: {a:?}"
        );
        assert_eq!(r.stats().upstream_fetches, 2);
        // The narrow answer arrives first: only session 1 is served.
        let acts = r.on_upstream_fetch_result_range(&track(1), vec![obj(1, b"v1")], 0, 2);
        let served: Vec<_> = acts.iter().map(served_group).collect();
        assert_eq!(served, [(1, Some(1))]);
        assert_eq!(r.pending_fetch_count(), 1, "wide waiter still pending");
        // The union answer lands: the wide waiter gets the newest.
        let acts = r.on_upstream_fetch_result_range(&track(1), vec![obj(5, b"v5")], 0, u64::MAX);
        let served: Vec<_> = acts.iter().map(served_group).collect();
        assert_eq!(served, [(2, Some(5))]);
        assert_eq!(r.pending_fetch_count(), 0);
        assert_eq!(r.stats().fetch_waiters_served, 2);
    }

    #[test]
    fn an_older_fetch_result_does_not_displace_a_newer_push() {
        let mut r = RelayCore::new(0);
        let a = r.on_downstream_fetch(2, 8, track(1), 0, u64::MAX);
        assert!(matches!(a[0], RelayAction::FetchUpstream { .. }));
        // v5 is pushed while the fetch is in flight; its answer carries v3.
        r.on_downstream_subscribe(1, 2, track(1));
        r.on_upstream_object(&track(1), obj(5, b"v5"));
        let served_v5 = |acts: &[RelayAction]| {
            matches!(
                acts,
                [RelayAction::ServeFetch {
                    largest: (5, 0),
                    object: Some(Object { group_id: 5, .. }),
                    ..
                }]
            )
        };
        let acts = r.on_upstream_fetch_result(&track(1), vec![obj(3, b"v3")]);
        assert!(served_v5(&acts), "{acts:?}");
        let acts = r.on_downstream_fetch(3, 8, track(1), 0, u64::MAX);
        assert!(served_v5(&acts), "{acts:?}");
    }

    #[test]
    fn a_fetch_ending_below_the_newest_goes_upstream() {
        let mut r = RelayCore::new(0);
        r.on_downstream_subscribe(1, 2, track(1));
        for g in 1..=5 {
            r.on_upstream_object(&track(1), obj(g, b"x"));
        }
        let a = r.on_downstream_fetch(2, 10, track(1), 1, 3);
        assert!(
            matches!(a[..], [RelayAction::FetchUpstream { .. }]),
            "{a:?}"
        );
        assert_eq!(r.stats().fetch_cache_misses, 1);
        assert_eq!(r.stats().fetch_cache_hits, 0);
    }

    #[test]
    fn a_thousand_pushes_leave_one_object() {
        let mut r = RelayCore::new(0);
        r.on_downstream_subscribe(1, 2, track(1));
        r.on_upstream_object(&track(1), obj(1, b"x"));
        let after_one = r.state_size_estimate();
        for g in 2..=1_000 {
            r.on_upstream_object(&track(1), obj(g, b"x"));
        }
        assert_eq!(r.state_size_estimate(), after_one);
        let a = r.on_downstream_fetch(2, 10, track(1), 0, u64::MAX);
        let served: Vec<_> = a.iter().map(served_group).collect();
        assert_eq!(served, [(2, Some(1_000))]);
        let a = r.on_downstream_fetch(2, 12, track(1), 1, 999);
        assert!(
            matches!(a[..], [RelayAction::FetchUpstream { .. }]),
            "{a:?}"
        );
    }

    #[test]
    fn refused_fetches_leave_no_track_behind() {
        let limits = RelayLimits {
            max_outstanding_fetches_per_session: 16,
            evict_after_throttles: u32::MAX,
        };
        let mut r = RelayCore::new(0).with_limits(limits);
        let mut parked = Vec::new();
        for i in 0..1_000u32 {
            let t = FullTrackName::new(vec![b"ns".to_vec()], i.to_be_bytes().to_vec()).unwrap();
            match &r.on_downstream_fetch(1, u64::from(i), t.clone(), 0, u64::MAX)[..] {
                [RelayAction::FetchUpstream { .. }] => parked.push(t),
                [RelayAction::RejectFetch { .. }] => {}
                other => panic!("{other:?}"),
            }
        }
        assert_eq!((parked.len(), r.stats().throttled_fetches), (16, 984));
        // The parked ones fail upstream: rejected, and gone too.
        for t in &parked {
            assert!(matches!(
                r.on_upstream_fetch_failed(t)[..],
                [RelayAction::RejectFetch { .. }]
            ));
        }
        assert_eq!((r.tracks.len(), r.pending_fetch_count()), (0, 0));
    }

    #[test]
    fn narrow_failure_keeps_waiters_on_inflight_union_fetch() {
        let mut r = RelayCore::new(0);
        r.on_downstream_fetch(1, 10, track(1), 0, 2);
        r.on_downstream_fetch(2, 20, track(1), 0, u64::MAX);
        // The narrow fetch fails, but the union fetch is still in
        // flight: nobody is rejected yet.
        assert!(r.on_upstream_fetch_failed(&track(1)).is_empty());
        assert_eq!(r.pending_fetch_count(), 1);
        // The union result serves BOTH waiters.
        let acts = r.on_upstream_fetch_result_range(&track(1), vec![obj(1, b"v")], 0, u64::MAX);
        assert_eq!(acts.len(), 2);
        assert!(acts
            .iter()
            .all(|a| matches!(a, RelayAction::ServeFetch { .. })));
        // And if every in-flight fetch fails, waiters are rejected.
        r.on_downstream_fetch(3, 30, track(2), 0, 2);
        r.on_downstream_fetch(4, 40, track(2), 0, u64::MAX);
        assert!(r.on_upstream_fetch_failed(&track(2)).is_empty());
        let acts = r.on_upstream_fetch_failed(&track(2));
        assert_eq!(acts.len(), 2);
        assert!(acts
            .iter()
            .all(|a| matches!(a, RelayAction::RejectFetch { .. })));
    }

    #[test]
    fn failed_upstream_fetch_rejects_all_waiters() {
        let mut r = RelayCore::new(0);
        r.on_downstream_fetch(1, 10, track(1), 0, u64::MAX);
        r.on_downstream_fetch(2, 20, track(1), 0, u64::MAX);
        let acts = r.on_upstream_fetch_failed(&track(1));
        assert_eq!(acts.len(), 2);
        assert!(acts
            .iter()
            .all(|a| matches!(a, RelayAction::RejectFetch { .. })));
        assert_eq!(r.pending_fetch_count(), 0);
        // A later fetch opens a fresh upstream fetch.
        let a = r.on_downstream_fetch(3, 30, track(1), 0, u64::MAX);
        assert!(matches!(a[0], RelayAction::FetchUpstream { .. }));
    }

    #[test]
    fn pending_fetch_reissued_when_uplink_dies() {
        let mut r = RelayCore::with_policy(2, Route::Failover);
        let a = r.on_downstream_fetch(1, 10, track(1), 0, u64::MAX);
        let died = match a[0] {
            RelayAction::FetchUpstream { link, .. } => link,
            ref other => panic!("{other:?}"),
        };
        let acts = r.on_uplink_closed(died);
        // The in-flight fetch moves to the surviving uplink, waiters kept.
        let refetched = acts.iter().find_map(|a| match a {
            RelayAction::FetchUpstream { link, .. } => Some(*link),
            _ => None,
        });
        assert_eq!(refetched, Some(1 - died));
        assert_eq!(r.pending_fetch_count(), 1);
        let served = r.on_upstream_fetch_result(&track(1), vec![obj(1, b"x")]);
        assert_eq!(served.len(), 1);
    }

    #[test]
    fn pending_fetch_rejected_when_no_uplink_left() {
        let mut r = RelayCore::new(0); // Route::Static: only parent 0.
        r.on_downstream_fetch(1, 10, track(1), 0, u64::MAX);
        let acts = r.on_uplink_closed(0);
        // Route::Static routes back to the dead parent 0: the fetch cannot
        // move, so the waiter is rejected (the node would redial for the
        // *subscription*, but an in-flight fetch has no result coming).
        assert!(acts.iter().any(|a| matches!(
            a,
            RelayAction::RejectFetch {
                session: 1,
                request_id: 10
            }
        )));
        assert_eq!(r.pending_fetch_count(), 0);
    }

    #[test]
    fn last_unsubscribe_drops_upstream() {
        let mut r = RelayCore::new(0);
        r.on_downstream_subscribe(1, 2, track(1));
        r.on_downstream_subscribe(2, 4, track(1));
        assert!(r.on_downstream_unsubscribe(1, 2).is_empty());
        let a = r.on_downstream_unsubscribe(2, 4);
        assert!(matches!(a[0], RelayAction::UnsubscribeUpstream { .. }));
        assert_eq!(r.upstream_count(), 0);
    }

    #[test]
    fn session_close_drops_all_its_subscriptions() {
        let mut r = RelayCore::new(0);
        r.on_downstream_subscribe(1, 2, track(1));
        r.on_downstream_subscribe(1, 4, track(2));
        r.on_downstream_subscribe(2, 2, track(1));
        let a = r.on_session_closed(1);
        // track(2) loses its last subscriber; track(1) still has session 2.
        assert_eq!(a.len(), 1);
        assert!(matches!(
            &a[0],
            RelayAction::UnsubscribeUpstream { track: t, .. } if *t == track(2)
        ));
        assert_eq!(r.subscriber_count(), 1);
    }

    #[test]
    fn payload_is_passed_through_byte_identical() {
        // The relay never interprets payloads: any bytes survive intact.
        let mut r = RelayCore::new(0);
        r.on_downstream_subscribe(1, 2, track(1));
        let weird: Vec<u8> = (0..=255).collect();
        let acts = r.on_upstream_object(&track(1), obj(1, &weird));
        match &acts[0] {
            RelayAction::Forward { object, .. } => assert_eq!(object.payload, weird),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fanout_shares_payload_storage() {
        // Zero-copy invariant: every Forward action and the cache entry
        // reference the published object's backing bytes — no
        // per-subscriber payload copies.
        let mut r = RelayCore::new(0);
        for s in 0..32 {
            r.on_downstream_subscribe(s, 2, track(1));
        }
        let object = obj(3, &[0x5A; 600]);
        let original = object.payload.clone();
        let acts = r.on_upstream_object(&track(1), object);
        assert_eq!(acts.len(), 32);
        for a in &acts {
            match a {
                RelayAction::Forward { object, .. } => {
                    assert!(object.payload.shares_storage_with(&original));
                }
                other => panic!("{other:?}"),
            }
        }
        // Cached fetch responses share it too.
        let a = r.on_downstream_fetch(99, 1, track(1), 3, 3);
        match &a[0] {
            RelayAction::ServeFetch {
                object: Some(object),
                ..
            } => {
                assert!(object.payload.shares_storage_with(&original));
            }
            other => panic!("{other:?}"),
        }
    }

    // ---- routing ----

    fn subscribed_uplink(actions: &[RelayAction]) -> Option<LinkId> {
        actions.iter().find_map(|a| match a {
            RelayAction::SubscribeUpstream { link, .. } => Some(*link),
            _ => None,
        })
    }

    #[test]
    fn hash_shard_spreads_tracks_across_uplinks() {
        let mut r = RelayCore::with_policy(4, Route::HashShard);
        let mut used = [false; 4];
        for t in 0..32u8 {
            let a = r.on_downstream_subscribe(t as u64, 2, track(t));
            let u = subscribed_uplink(&a).expect("routed");
            assert!(u < 4);
            used[u] = true;
        }
        // 32 distinct tracks over 4 shards: every shard sees traffic.
        assert!(used.iter().all(|&u| u), "all shards used: {used:?}");
    }

    #[test]
    fn hash_shard_same_track_same_uplink() {
        let route = |r: &mut RelayCore, t: u8| {
            let a = r.on_downstream_subscribe(t as u64, 2, track(t));
            subscribed_uplink(&a).unwrap()
        };
        let mut r1 = RelayCore::with_policy(3, Route::HashShard);
        let mut r2 = RelayCore::with_policy(3, Route::HashShard);
        for t in 0..16u8 {
            assert_eq!(route(&mut r1, t), route(&mut r2, t), "track {t}");
        }
    }

    #[test]
    fn failover_moves_tracks_to_surviving_uplink() {
        let mut r = RelayCore::with_policy(2, Route::Failover);
        let a = r.on_downstream_subscribe(1, 2, track(1));
        assert_eq!(subscribed_uplink(&a), Some(0), "primary first");
        let a = r.on_uplink_closed(0);
        assert_eq!(a.len(), 1, "one re-subscribe per affected track");
        assert_eq!(subscribed_uplink(&a), Some(1), "failed over");
        assert_eq!(r.stats().reroutes, 1);
        // Upstream objects keep flowing to the same downstream set.
        let acts = r.on_upstream_object(&track(1), obj(3, b"x"));
        assert_eq!(acts.len(), 1);
    }

    #[test]
    fn failover_back_pressure_when_all_down() {
        let mut r = RelayCore::with_policy(2, Route::Failover);
        r.on_downstream_subscribe(1, 2, track(1));
        r.on_uplink_closed(0);
        let a = r.on_uplink_closed(1);
        // Everything down: policy falls back to uplink 0 (redial).
        assert_eq!(subscribed_uplink(&a), Some(0));
        // Recovery marks it healthy — and rebalances the track onto the
        // recovered uplink (better than a dead fallback).
        let a = r.on_uplink_up(1);
        assert!(r.is_link_up(1));
        assert_eq!(subscribed_uplink(&a), Some(1));
        assert_eq!(r.stats().rebalances, 1);
    }

    #[test]
    fn recovered_uplink_reclaims_its_hash_shard() {
        let mut r = RelayCore::with_policy(2, Route::HashShard);
        // Subscribe tracks until both shards carry at least one.
        let mut home = [Vec::new(), Vec::new()];
        for t in 0..8u8 {
            let a = r.on_downstream_subscribe(t as u64, 2, track(t));
            home[subscribed_uplink(&a).unwrap()].push(t);
        }
        assert!(!home[0].is_empty() && !home[1].is_empty());
        // Uplink 0 dies: its tracks ring-walk to uplink 1.
        let a = r.on_uplink_closed(0);
        assert_eq!(a.len(), home[0].len());
        assert_eq!(r.stats().reroutes, home[0].len() as u64);
        // Uplink 0 recovers: exactly its home tracks move back.
        let acts = r.on_uplink_up(0);
        let resubs: Vec<&RelayAction> = acts
            .iter()
            .filter(|a| matches!(a, RelayAction::SubscribeUpstream { link: 0, .. }))
            .collect();
        assert_eq!(resubs.len(), home[0].len(), "shard reclaimed");
        // Every move pairs an unsubscribe on the temporary uplink.
        let unsubs = acts
            .iter()
            .filter(|a| matches!(a, RelayAction::UnsubscribeUpstream { link: 1, .. }))
            .count();
        assert_eq!(unsubs, home[0].len());
        assert_eq!(r.stats().rebalances, home[0].len() as u64);
        // Tracks already home stay put: recovering uplink 1 moves nothing.
        assert!(r.on_uplink_up(1).is_empty());
    }

    #[test]
    fn reset_clears_state_keeps_counters() {
        let mut r = RelayCore::with_policy(2, Route::HashShard);
        r.on_downstream_subscribe(1, 2, track(1));
        r.on_downstream_fetch(2, 8, track(2), 0, u64::MAX);
        r.on_uplink_closed(0);
        let before = r.stats();
        r.reset();
        assert_eq!(r.tracks.len(), 0);
        assert_eq!(r.pending_fetch_count(), 0);
        assert!(r.is_link_up(0), "health restarts optimistic");
        assert_eq!(r.stats(), before, "cumulative counters survive");
    }

    #[test]
    fn static_parent_redials_same_uplink() {
        let mut r = RelayCore::new(0);
        r.on_downstream_subscribe(1, 2, track(1));
        let a = r.on_uplink_closed(0);
        // Single parent: re-subscribe on uplink 0 (the node reconnects).
        assert_eq!(subscribed_uplink(&a), Some(0));
        assert_eq!(r.stats().reroutes, 0, "same uplink is not a reroute");
    }

    #[test]
    fn uplink_close_skips_subscriberless_tracks() {
        let mut r = RelayCore::with_policy(2, Route::Failover);
        r.on_downstream_subscribe(1, 2, track(1));
        r.on_downstream_unsubscribe(1, 2);
        // Nothing re-subscribes, and the track holding nothing is gone.
        assert_eq!(r.tracks.len(), 0);
        assert!(r.on_uplink_closed(0).is_empty());
    }

    #[test]
    fn hash_shard_walks_ring_past_down_uplink() {
        let mut r = RelayCore::with_policy(2, Route::HashShard);
        // Find a track whose home shard is 0.
        let t_home0 = (0..64u8)
            .find(|&t| track_hash(&track(t)).is_multiple_of(2))
            .expect("some track hashes to shard 0");
        let a = r.on_downstream_subscribe(1, 2, track(t_home0));
        assert_eq!(subscribed_uplink(&a), Some(0));
        let a = r.on_uplink_closed(0);
        assert_eq!(subscribed_uplink(&a), Some(1), "ring walk to healthy");
    }

    proptest::proptest! {
        /// Waiter fan-out is exact: for ANY interleaving of cache-missing
        /// same-track fetches (distinct (session, request) pairs), one
        /// upstream fetch is opened and its result serves every blocked
        /// downstream exactly once — no drops, no duplicates.
        #[test]
        fn prop_waiter_fanout_serves_each_exactly_once(
            n_waiters in 1usize..40,
            track_byte in 0u8..255,
        ) {
            let mut r = RelayCore::new(0);
            let t = track(track_byte);
            let mut expected = Vec::new();
            let mut upstream_fetches = 0;
            for i in 0..n_waiters {
                let (session, request_id) = (i as u64, (i * 7 + 3) as u64);
                expected.push((session, request_id));
                let acts = r.on_downstream_fetch(session, request_id, t.clone(), 0, u64::MAX);
                upstream_fetches +=
                    acts.iter()
                        .filter(|a| matches!(a, RelayAction::FetchUpstream { .. }))
                        .count();
            }
            proptest::prop_assert_eq!(upstream_fetches, 1);
            proptest::prop_assert_eq!(r.stats().fetch_coalesced, n_waiters as u64 - 1);

            let acts = r.on_upstream_fetch_result(&t, vec![obj(1, b"v")]);
            let mut served: Vec<(u64, u64)> = acts
                .iter()
                .map(|a| match a {
                    RelayAction::ServeFetch { session, request_id, .. } => {
                        (*session, *request_id)
                    }
                    other => panic!("{other:?}"),
                })
                .collect();
            served.sort_unstable();
            expected.sort_unstable();
            proptest::prop_assert_eq!(served, expected);
            proptest::prop_assert_eq!(r.stats().fetch_waiters_served, n_waiters as u64);
            proptest::prop_assert_eq!(r.pending_fetch_count(), 0);
        }
    }

    // ---- federation ----

    /// A federated core: one parent uplink (the origin) + peers.
    fn fed_core(my_shard: usize, shards: usize) -> RelayCore {
        RelayCore::with_policy(1, Route::Static).federate(FederationConfig::new(my_shard, shards))
    }

    /// A track whose home shard (mod `shards`) is `want`.
    fn track_homed(want: usize, shards: usize) -> FullTrackName {
        (0..=255u8)
            .map(track)
            .find(|t| track_hash(t) % shards as u64 == want as u64)
            .expect("some track hashes to the wanted shard")
    }

    #[test]
    fn peer_link_shard_maps_are_inverse() {
        for shards in 2..6 {
            for my in 0..shards {
                let r = fed_core(my, shards);
                assert_eq!(r.parents, 1);
                assert_eq!(r.up.len() - r.parents, shards - 1);
                for s in 0..shards {
                    match r.peer_link_for_shard(s) {
                        Some(link) => {
                            assert_ne!(s, my);
                            assert!(link >= r.parents, "a peer link is past the parents");
                            assert_eq!(r.shard_for_peer_link(link), Some(s));
                        }
                        None => assert_eq!(s, my, "only the own shard has no peer link"),
                    }
                }
            }
        }
    }

    #[test]
    fn federated_subscribe_splits_home_and_peer_tracks() {
        let shards = 3;
        let mut r = fed_core(1, shards);
        // Home track rides the parent uplink to the origin.
        let home = track_homed(1, shards);
        let a = r.on_downstream_subscribe(1, 2, home);
        assert!(matches!(
            a[0],
            RelayAction::SubscribeUpstream { link: 0, .. }
        ));
        // A track homed on shard 2 rides the peer link to that core.
        let remote = track_homed(2, shards);
        let a = r.on_downstream_subscribe(2, 2, remote);
        let expect_link = r.peer_link_for_shard(2).unwrap();
        assert!(matches!(
            a[0],
            RelayAction::SubscribeUpstream { link, .. } if link == expect_link
        ));
        assert_eq!(r.stats().origin_offload, 1);
    }

    #[test]
    fn federated_fetch_miss_goes_to_peer_with_budget() {
        let shards = 3;
        let mut r = fed_core(0, shards);
        let remote = track_homed(2, shards);
        let a = r.on_downstream_fetch(1, 10, remote.clone(), 0, u64::MAX);
        match &a[0] {
            RelayAction::FetchUpstream {
                link, hop_budget, ..
            } => {
                assert_eq!(*link, r.peer_link_for_shard(2).unwrap());
                // Fresh budget minus the hop being taken.
                assert_eq!(*hop_budget, Some(shards as u64 - 1));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(r.stats().peer_fetches, 1);
        assert_eq!(r.stats().upstream_fetches, 1, "peer fetches are upstream");
        assert_eq!(r.stats().origin_offload, 1);
        // The result fans out through the same waiter machinery.
        let served = r.on_upstream_fetch_result(&remote, vec![obj(1, b"x")]);
        assert_eq!(served.len(), 1);
        // A home-shard miss still escalates to the origin parent, and a
        // fetch over a parent carries no budget.
        let home = track_homed(0, shards);
        let a = r.on_downstream_fetch(2, 20, home, 0, u64::MAX);
        assert!(matches!(
            a[0],
            RelayAction::FetchUpstream {
                link: 0,
                hop_budget: None,
                ..
            }
        ));
        assert_eq!(r.stats().peer_fetches, 1, "home fetch is not peer");
    }

    #[test]
    fn peer_fetch_with_exhausted_budget_is_rejected_not_forwarded() {
        let shards = 3;
        // Core 0 receives a peer fetch for a track homed on shard 2 —
        // misdirected, so serving it needs another peer hop.
        let mut r = fed_core(0, shards);
        let remote = track_homed(2, shards);
        let a = r.on_fetch(7, 70, remote.clone(), 0, u64::MAX, Some(0));
        assert!(
            matches!(
                a[0],
                RelayAction::RejectFetch {
                    session: 7,
                    request_id: 70
                }
            ),
            "budget 0 + needed peer hop must reject: {a:?}"
        );
        assert_eq!(r.pending_fetch_count(), 0);
        // With budget left the same fetch forwards, spending one hop.
        let a = r.on_fetch(7, 71, remote, 0, u64::MAX, Some(2));
        assert!(matches!(
            a[0],
            RelayAction::FetchUpstream {
                hop_budget: Some(1),
                ..
            }
        ));
    }

    #[test]
    fn dead_peer_falls_back_to_origin_and_rebalances_home() {
        let shards = 3;
        let mut r = fed_core(0, shards);
        let remote = track_homed(1, shards);
        let peer = r.peer_link_for_shard(1).unwrap();
        let a = r.on_downstream_subscribe(1, 2, remote.clone());
        assert!(matches!(a[0], RelayAction::SubscribeUpstream { link, .. } if link == peer));
        // The peer core dies: the track degrades to the origin parent.
        let a = r.on_uplink_closed(peer);
        assert!(!r.is_link_up(peer));
        assert!(matches!(
            a[0],
            RelayAction::SubscribeUpstream { link: 0, .. }
        ));
        assert_eq!(r.stats().reroutes, 1);
        // While the peer is down, a cache miss escalates to the origin.
        let a = r.on_downstream_fetch(2, 20, remote.clone(), 0, u64::MAX);
        assert!(matches!(a[0], RelayAction::FetchUpstream { link: 0, .. }));
        // Peer recovery rebalances the federated track home.
        let a = r.on_uplink_up(peer);
        assert!(r.is_link_up(peer));
        assert!(a
            .iter()
            .any(|x| matches!(x, RelayAction::UnsubscribeUpstream { link: 0, .. })));
        assert!(a
            .iter()
            .any(|x| matches!(x, RelayAction::SubscribeUpstream { link, .. } if *link == peer)));
        assert_eq!(r.stats().rebalances, 1);
    }

    #[test]
    fn peer_objects_counted_on_link_ingress() {
        let shards = 2;
        let mut r = fed_core(0, shards);
        let remote = track_homed(1, shards);
        r.on_downstream_subscribe(1, 2, remote.clone());
        let peer = r.peer_link_for_shard(1).unwrap();
        let acts = r.on_link_object(peer, &remote, obj(3, b"x"));
        assert_eq!(acts.len(), 1, "fans out to the subscriber");
        assert_eq!(r.stats().peer_objects, 1);
        // Parent-link ingress does not count as peer traffic.
        let home = track_homed(0, shards);
        r.on_downstream_subscribe(1, 4, home.clone());
        r.on_link_object(0, &home, obj(3, b"y"));
        assert_eq!(r.stats().peer_objects, 1);
        // Every link's ingress counts as an upstream object.
        assert_eq!(r.stats().upstream_objects, 2);
    }

    #[test]
    fn reset_restores_peer_health() {
        let mut r = fed_core(0, 3);
        let peer = r.peer_link_for_shard(1).unwrap();
        r.on_uplink_closed(peer);
        assert!(!r.is_link_up(peer));
        r.reset();
        assert!(r.is_link_up(peer), "peers restart optimistic");
    }

    proptest::proptest! {
        /// Satellite: federation routing is loop-free. For random core
        /// counts, shard assignments (via the fetched track), and any
        /// single dead core or dead directed peer link, following a fetch
        /// through the core graph never revisits a core, and in the
        /// healthy case the hop budget is never exhausted (the chain
        /// terminates at the origin or in a bounded refusal).
        #[test]
        fn prop_federation_routing_is_loop_free(
            cores in 2usize..7,
            track_byte in 0u8..255,
            start_sel in 0usize..64,
            mode in 0u8..3,
            kill_sel in 0usize..64,
        ) {
            let k = cores;
            let mut nodes: Vec<RelayCore> = (0..k).map(|c| fed_core(c, k)).collect();
            // mode 0: healthy. mode 1: one dead core (every other core's
            // peer link toward it is down). mode 2: one dead directed
            // peer link.
            let dead_core = (mode == 1).then(|| kill_sel % k);
            if let Some(d) = dead_core {
                for (c, node) in nodes.iter_mut().enumerate() {
                    if c == d { continue; }
                    let l = node.peer_link_for_shard(d).unwrap();
                    node.on_uplink_closed(l);
                }
            }
            if mode == 2 {
                let a = kill_sel % k;
                let b = (a + 1 + kill_sel / k % (k - 1)) % k;
                let l = nodes[a].peer_link_for_shard(b).unwrap();
                nodes[a].on_uplink_closed(l);
            }
            let healthy = mode == 0;
            let t = track(track_byte);
            let mut cur = start_sel % k;
            if Some(cur) == dead_core {
                cur = (cur + 1) % k;
            }
            let mut visited = vec![cur];
            let mut actions = nodes[cur].on_downstream_fetch(1, 1, t.clone(), 0, u64::MAX);
            let mut hops = 0usize;
            loop {
                hops += 1;
                proptest::prop_assert!(hops <= k + 1, "unbounded chain");
                proptest::prop_assert_eq!(actions.len(), 1);
                match actions[0].clone() {
                    RelayAction::FetchUpstream { link, hop_budget: Some(hop_budget), .. } => {
                        let target = nodes[cur].shard_for_peer_link(link)
                            .expect("peer link maps to a shard");
                        proptest::prop_assert!(
                            !visited.contains(&target),
                            "fetch revisited core {} (path {:?})", target, visited
                        );
                        if healthy {
                            proptest::prop_assert!(hop_budget > 0, "budget exhausted while healthy");
                        }
                        visited.push(target);
                        cur = target;
                        actions = nodes[cur].on_fetch(9, 9, t.clone(), 0, u64::MAX, Some(hop_budget));
                    }
                    // Terminal outcomes: escalated to the origin parent,
                    // refused (budget/dead upstream), or coalesced into a
                    // previous in-flight fetch at this core.
                    RelayAction::FetchUpstream { link, hop_budget: None, .. } => {
                        proptest::prop_assert_eq!(link, 0);
                        if healthy {
                            // With all links healthy only the home core
                            // contacts the origin.
                            let fed = nodes[cur].federation().unwrap();
                            proptest::prop_assert_eq!(fed.home_shard(&t), fed.my_shard);
                        }
                        break;
                    }
                    RelayAction::RejectFetch { .. } => {
                        proptest::prop_assert!(!healthy, "healthy fetch must not be refused");
                        break;
                    }
                    other => proptest::prop_assert!(false, "unexpected action {:?}", other),
                }
            }
            proptest::prop_assert!(visited.len() <= k);
            if healthy {
                proptest::prop_assert!(visited.len() <= 2, "healthy path is one peer hop at most");
            }
        }
    }

    #[test]
    fn track_hash_is_stable() {
        // Pin the hash so accidental algorithm changes (which would
        // re-shard every deployed track) fail loudly.
        let t = FullTrackName::new(vec![b"ns".to_vec()], b"name".to_vec()).unwrap();
        assert_eq!(track_hash(&t), track_hash(&t));
        let t2 = FullTrackName::new(vec![b"ns2".to_vec()], b"name".to_vec()).unwrap();
        assert_ne!(track_hash(&t), track_hash(&t2));
        // Length-delimited: ["ab","c"] and ["a","bc"] must differ.
        let ab_c = FullTrackName::new(vec![b"ab".to_vec(), b"c".to_vec()], vec![]).unwrap();
        let a_bc = FullTrackName::new(vec![b"a".to_vec(), b"bc".to_vec()], vec![]).unwrap();
        assert_ne!(track_hash(&ab_c), track_hash(&a_bc));
    }
}
