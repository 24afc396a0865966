//! Relay core: subscription aggregation, object caching, and
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
//! caches objects by `(track, group, object)` identity, and computes
//! fan-out lists. It never parses payloads — there is no DNS dependency in
//! this crate at all, which *proves* payload agnosticism at the type
//! level. The surrounding node (in `moqdns-core`) owns the actual sessions
//! and executes the actions this core emits.
//!
//! ## Routing
//!
//! The paper's §5.3 scenarios assume distribution paths of several relays
//! ("involving 5 MoQ relays on average"), so a relay is not limited to one
//! upstream parent: it holds an ordered set of *uplinks* and a
//! [`RoutePolicy`] that picks, per track, which uplink serves the upstream
//! subscription. The policy only ever sees the track identity and the
//! current uplink health — never payloads — so routing stays
//! payload-agnostic too. Three policies cover the §5.3 topologies:
//!
//! * [`StaticParent`] — the classic single-parent chain (uplink 0 always);
//! * [`HashShard`] — deterministic track-hash sharding across K parents,
//!   spreading distinct tracks over a multi-relay mesh;
//! * [`Failover`] — primary-first with fail-over to the next healthy
//!   uplink when the upstream connection closes.
//!
//! Every [`RelayAction::SubscribeUpstream`] carries the chosen
//! [`UplinkId`]; when an uplink dies the owning node reports it via
//! [`RelayCore::on_uplink_closed`] and executes the re-subscribe actions
//! the core emits (the re-route is where fail-over actually happens).
//!
//! ## Federation
//!
//! Parents are not the only upstream direction: a core relay may join a
//! **cross-region federation** ([`RelayCore::federate`]) in which every
//! core is the shard-home of part of the track space and the cores serve
//! *each other* over dedicated **peer links** ([`LinkClass`],
//! [`FederationConfig`]). A cache miss for a track homed on a peer core
//! emits [`RelayAction::FetchPeer`] / [`RelayAction::SubscribePeer`]
//! toward that peer instead of escalating to the origin; only the home
//! core of a track ever contacts the origin for it. Peer fetches carry a
//! **hop budget** so rerouted requests can never cycle, and peer traffic
//! is tallied in [`RelayStats::peer_fetches`],
//! [`RelayStats::peer_objects`], and [`RelayStats::origin_offload`].

use crate::data::Object;
use crate::reason::ReasonCounts;
use crate::session::SessionStats;
use crate::track::FullTrackName;
use moqdns_wire::Payload;
use std::collections::btree_map::{BTreeMap, Entry};

/// Identifies one downstream session at the owning node.
pub type SessionKey = u64;

/// Index of one upstream link in the relay's ordered link set.
///
/// Links come in two classes (see [`LinkClass`]): indices
/// `0..n_parents` are **parent** uplinks (routed by the [`RoutePolicy`]),
/// and indices `n_parents..` are **peer** links toward federated sibling
/// cores (routed by the [`FederationConfig`] shard map).
pub type LinkId = usize;

/// Backwards-compatible alias from the pre-federation, parents-only era.
pub type UplinkId = LinkId;

/// The class of one upstream link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// A parent uplink toward the origin side of the hierarchy.
    Parent,
    /// A peer link toward a federated sibling core.
    Peer,
}

/// Cross-region core federation: this relay is one shard-home among
/// `shards` peered cores. Tracks whose [`track_hash`] shard differs from
/// `my_shard` are resolved over the **peer link** toward their home core
/// (subscribe and fetch alike) instead of escalating to the origin; only
/// the home core of a track ever talks to the origin for it.
///
/// Peer links are ordered by shard index with `my_shard` omitted, so the
/// peer link for shard `s` is `n_parents + s - (s > my_shard)`.
#[derive(Debug, Clone, Copy)]
pub struct FederationConfig {
    /// This core's own shard index in `0..shards`.
    pub my_shard: usize,
    /// Total number of federated cores (= shards).
    pub shards: usize,
    /// Initial hop budget stamped on outgoing peer fetches. Each
    /// core-to-core re-forward decrements it; a fetch arriving with
    /// budget 0 that would need another peer hop is rejected instead,
    /// which makes federation routing loop-free by construction.
    pub hop_budget: u64,
}

impl FederationConfig {
    /// Federation among `shards` cores as shard `my_shard`, with the
    /// default hop budget of `shards` (any loop-free path is shorter).
    pub fn new(my_shard: usize, shards: usize) -> FederationConfig {
        assert!(shards >= 1 && my_shard < shards, "shard out of range");
        FederationConfig {
            my_shard,
            shards,
            hop_budget: shards as u64,
        }
    }

    /// The home shard of `track` (the same arithmetic [`HashShard`] uses
    /// at the edges, so edge sharding and core federation agree).
    pub fn home_shard(&self, track: &FullTrackName) -> usize {
        (track_hash(track) % self.shards as u64) as usize
    }
}

/// Liveness of each uplink, as reported by the owning node.
///
/// The core marks an uplink down in [`RelayCore::on_uplink_closed`] and up
/// again in [`RelayCore::on_uplink_up`]; policies consult this view when
/// choosing where a track's upstream subscription should live.
#[derive(Debug, Clone)]
pub struct UplinkHealth {
    up: Vec<bool>,
}

impl UplinkHealth {
    /// All `n` uplinks start healthy.
    pub fn new(n: usize) -> UplinkHealth {
        UplinkHealth { up: vec![true; n] }
    }

    /// Number of configured uplinks.
    pub fn len(&self) -> usize {
        self.up.len()
    }

    /// True when no uplinks are configured.
    pub fn is_empty(&self) -> bool {
        self.up.is_empty()
    }

    /// Whether uplink `i` is currently believed healthy.
    pub fn is_up(&self, i: UplinkId) -> bool {
        self.up.get(i).copied().unwrap_or(false)
    }

    fn set(&mut self, i: UplinkId, up: bool) {
        if let Some(slot) = self.up.get_mut(i) {
            *slot = up;
        }
    }

    /// First healthy uplink in index order, if any.
    pub fn first_up(&self) -> Option<UplinkId> {
        self.up.iter().position(|&u| u)
    }
}

/// Per-track upstream selection. Implementations must be deterministic:
/// the same track and the same health view always yield the same uplink,
/// so a simulation replays identically from its seed. `Send` because a
/// relay node (and thus its policy) may live on a parallel-sim worker
/// thread.
pub trait RoutePolicy: std::fmt::Debug + Send {
    /// Chooses the uplink that should carry `track`'s upstream
    /// subscription. `None` means no uplink can serve it (e.g. zero
    /// uplinks configured).
    fn route(&self, track: &FullTrackName, health: &UplinkHealth) -> Option<UplinkId>;

    /// Short label for stats tables.
    fn name(&self) -> &'static str;
}

/// The classic single-parent chain: every track routes to uplink 0, even
/// when it is marked down (routing to a down uplink makes the owning node
/// redial it — the reconnect semantics a single-parent relay needs).
#[derive(Debug, Default, Clone, Copy)]
pub struct StaticParent;

impl RoutePolicy for StaticParent {
    fn route(&self, _track: &FullTrackName, health: &UplinkHealth) -> Option<UplinkId> {
        (!health.is_empty()).then_some(0)
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

/// Deterministic track-hash sharding across K uplinks: a track's home
/// shard is `track_hash % K`; when the home shard is down the policy walks
/// the ring to the next healthy uplink, and when everything is down it
/// returns the home shard (forcing a redial there).
#[derive(Debug, Default, Clone, Copy)]
pub struct HashShard;

impl RoutePolicy for HashShard {
    fn route(&self, track: &FullTrackName, health: &UplinkHealth) -> Option<UplinkId> {
        let k = health.len();
        if k == 0 {
            return None;
        }
        let home = (track_hash(track) % k as u64) as usize;
        for step in 0..k {
            let cand = (home + step) % k;
            if health.is_up(cand) {
                return Some(cand);
            }
        }
        Some(home)
    }

    fn name(&self) -> &'static str {
        "hash-shard"
    }
}

/// Primary-first with fail-over: tracks ride the lowest-index healthy
/// uplink; when the primary's connection closes everything re-routes to
/// the next healthy one. With all uplinks down it falls back to uplink 0.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failover;

impl RoutePolicy for Failover {
    fn route(&self, _track: &FullTrackName, health: &UplinkHealth) -> Option<UplinkId> {
        if health.is_empty() {
            return None;
        }
        Some(health.first_up().unwrap_or(0))
    }

    fn name(&self) -> &'static str {
        "failover"
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
    /// Open (or reuse) the upstream session on `uplink` and subscribe to
    /// `track`; associate the upstream subscription with `track`.
    SubscribeUpstream {
        /// Track to subscribe to upstream.
        track: FullTrackName,
        /// Which uplink the route policy chose.
        uplink: UplinkId,
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
        /// Cached objects in range.
        objects: Vec<Object>,
    },
    /// Cache miss with no fetch already in flight: the node must fetch on
    /// `uplink` and then call [`RelayCore::on_upstream_fetch_result`] (or
    /// [`RelayCore::on_upstream_fetch_failed`]). The waiting downstream
    /// fetches live in the core's pending-fetch table, not in the action:
    /// any number of concurrent same-track fetches collapse into one
    /// upstream fetch whose result fans out to every waiter.
    FetchUpstream {
        /// Track to fetch.
        track: FullTrackName,
        /// Which uplink to fetch from.
        uplink: UplinkId,
        /// Start group requested.
        start_group: u64,
        /// End group requested (inclusive).
        end_group: u64,
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
        uplink: LinkId,
    },
    /// Federation: open (or reuse) the session on peer link `link` and
    /// subscribe to `track` there — the track is homed on that peer core,
    /// so the subscription must not ride a parent uplink to the origin.
    SubscribePeer {
        /// Track to subscribe to at the peer core.
        track: FullTrackName,
        /// Which peer link the federation map chose.
        link: LinkId,
    },
    /// Federation: cache miss for a track homed on a peer core — fetch it
    /// over `link` instead of escalating to the origin. Carries the
    /// remaining hop budget; the waiting downstream fetches live in the
    /// pending-fetch table exactly like [`RelayAction::FetchUpstream`].
    FetchPeer {
        /// Track to fetch.
        track: FullTrackName,
        /// Which peer link to fetch over.
        link: LinkId,
        /// Start group requested.
        start_group: u64,
        /// End group requested (inclusive).
        end_group: u64,
        /// Core-to-core forwards the fetch may still take.
        hop_budget: u64,
    },
}

/// Per-track relay state.
#[derive(Debug, Default)]
struct TrackState {
    /// Downstream subscribers: (session, request_id).
    subscribers: Vec<(SessionKey, u64)>,
    /// Uplink carrying the upstream subscription, when one exists (or is
    /// being set up).
    upstream: Option<UplinkId>,
    /// Object cache: (group, object) -> payload handle. BTreeMap gives
    /// range queries for fetches; storing [`Payload`] means caching an
    /// object shares the publisher's bytes instead of copying them.
    cache: BTreeMap<(u64, u64), Payload>,
}

impl TrackState {
    fn largest(&self) -> Option<(u64, u64)> {
        self.cache.keys().next_back().copied()
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
    uplink: LinkId,
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

counters! {
    /// Recovery counters of a relay's link layer (`moqdns_core::links`).
    pub struct DialStats {
        /// Recovery-probe redial attempts against uplinks believed down
        /// (each abandons any stalled previous dial and starts a fresh
        /// handshake). Chaos drills gate on this staying bounded instead
        /// of eyeballing logs.
        redials = "redials",
        /// Dial attempts (initial or redial) that could not even create a
        /// connection — the remote address was unreachable at the
        /// endpoint layer.
        failed_dials = "failed dials",
    }
}

counters! {
    /// Counters for relay effectiveness (ablation A3, §3 aggregation).
    pub struct RelayStats {
        /// Downstream subscription requests seen.
        downstream_subscribes = "down subs",
        /// Upstream subscriptions opened (including re-subscribes after an
        /// uplink loss).
        upstream_subscribes = "up subs",
        /// Objects forwarded downstream.
        objects_forwarded = "objects fwd",
        /// Fetches served from cache.
        fetch_cache_hits = "cache hit",
        /// Fetches requiring upstream data (whether they opened a new
        /// upstream fetch or joined one already in flight).
        fetch_cache_misses = "fetch miss",
        /// Cache-missing fetches absorbed by an in-flight upstream fetch
        /// for the same track (no extra upstream fetch was opened).
        fetch_coalesced = "coalesced",
        /// Upstream fetches actually opened
        /// (`fetch_cache_misses - fetch_coalesced`, plus re-issues after an
        /// uplink died with the fetch in flight).
        upstream_fetches = "up fetches",
        /// Downstream fetches answered from an upstream fetch result
        /// fanning out through the waiter list.
        fetch_waiters_served = "waiters served",
        /// Tracks moved to a *different* uplink after their uplink closed.
        reroutes = "reroutes",
        /// Tracks moved back onto a recovered uplink (its hash shard or
        /// failover priority reclaimed) by [`RelayCore::on_uplink_up`].
        rebalances = "rebalances",
        /// Upstream fetches that rode a **peer link** to a federated
        /// sibling core instead of a parent uplink (subset of
        /// `upstream_fetches`).
        peer_fetches = "peer fetches",
        /// Objects that arrived over a peer link (federated distribution:
        /// region-to-region traffic that never touched the origin).
        peer_objects = "peer objects",
        /// Upstream actions (subscribes + fetches) the federation map
        /// served over a peer link that a non-federated relay would have
        /// escalated to the origin — the §5.3 origin-offload headline
        /// counter.
        origin_offload = "origin offload",
        /// Downstream fetches rejected because the session was over its
        /// [`RelayLimits::max_outstanding_fetches_per_session`] budget —
        /// the fetch-bomb backpressure counter.
        throttled_fetches = "throttled",
        /// Sessions the relay decided to evict: fetch-bombers past
        /// [`RelayLimits::evict_after_throttles`] (counted here) plus
        /// slow-loris sessions the node closed over backlog (reported via
        /// [`RelayCore::note_session_evicted`]).
        evicted_sessions = "evicted",
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
    /// Cap on cached objects per track (oldest groups evicted first).
    cache_per_track: usize,
    policy: Box<dyn RoutePolicy>,
    /// Health of the **parent** uplinks (what the route policy sees).
    health: UplinkHealth,
    /// Health of the peer links, in federation shard order (self
    /// omitted). Empty unless [`RelayCore::federate`] was called.
    peers_up: Vec<bool>,
    /// Cross-region federation shard map, when this core participates.
    federation: Option<FederationConfig>,
    /// Per-session fetch budgets against `limits`.
    budgets: BTreeMap<SessionKey, FetchBudget>,
    limits: RelayLimits,
    stats: RelayStats,
}

/// Per-track link choice with the federation map layered over the parent
/// route policy. A free function over disjoint fields so the re-route
/// loops can call it while iterating `tracks` mutably.
///
/// Tracks homed on a *peer* shard ride the peer link to their home core
/// while that link is healthy; when it is down (or no federation is
/// configured) the parent policy decides, which degrades a federated
/// track to the classic origin escalation until the peer recovers.
fn route_link(
    federation: Option<&FederationConfig>,
    peers_up: &[bool],
    policy: &dyn RoutePolicy,
    health: &UplinkHealth,
    track: &FullTrackName,
) -> Option<LinkId> {
    if let Some(fed) = federation {
        let home = fed.home_shard(track);
        if home != fed.my_shard {
            let peer = home - usize::from(home > fed.my_shard);
            if peers_up.get(peer).copied().unwrap_or(false) {
                return Some(health.len() + peer);
            }
        }
    }
    policy.route(track, health)
}

/// The state of `track`, created if absent, together with the table's own
/// handle of the key. Callers keep that handle and drop the one they
/// came with (decoded from a SUBSCRIBE or FETCH), so a relay holds one
/// name buffer per track however many requests have named it.
fn track_entry(
    tracks: &mut BTreeMap<FullTrackName, TrackState>,
    track: FullTrackName,
) -> (FullTrackName, &mut TrackState) {
    match tracks.entry(track) {
        Entry::Occupied(e) => (e.key().clone(), e.into_mut()),
        Entry::Vacant(e) => (e.key().clone(), e.insert(TrackState::default())),
    }
}

impl RelayCore {
    /// Creates a single-uplink relay core caching up to `cache_per_track`
    /// objects per track (0 = unlimited) — the classic single-parent chain.
    pub fn new(cache_per_track: usize) -> RelayCore {
        RelayCore::with_policy(cache_per_track, 1, Box::new(StaticParent))
    }

    /// Creates a relay core routing across `n_uplinks` upstream parents
    /// according to `policy`.
    pub fn with_policy(
        cache_per_track: usize,
        n_uplinks: usize,
        policy: Box<dyn RoutePolicy>,
    ) -> RelayCore {
        RelayCore {
            tracks: BTreeMap::new(),
            pending: BTreeMap::new(),
            cache_per_track,
            policy,
            health: UplinkHealth::new(n_uplinks),
            peers_up: Vec::new(),
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

    /// The per-session abuse limits in force.
    pub fn limits(&self) -> RelayLimits {
        self.limits
    }

    /// The owning node evicted a session itself (e.g. a slow-loris
    /// subscriber whose connection backlog crossed the node's bound):
    /// record it in [`RelayStats::evicted_sessions`].
    pub fn note_session_evicted(&mut self) {
        self.stats.evicted_sessions += 1;
    }

    /// Joins a cross-region core federation: adds `fed.shards - 1` peer
    /// links (shard order, self omitted) after the parent uplinks and
    /// activates the shard map of [`FederationConfig`].
    pub fn federate(mut self, fed: FederationConfig) -> RelayCore {
        self.peers_up = vec![true; fed.shards - 1];
        self.federation = Some(fed);
        self
    }

    /// The federation config, when this core is federated.
    pub fn federation(&self) -> Option<&FederationConfig> {
        self.federation.as_ref()
    }

    /// Number of parent uplinks (links `0..n` are parents).
    pub fn parent_count(&self) -> usize {
        self.health.len()
    }

    /// Number of peer links (links `parent_count()..`).
    pub fn peer_count(&self) -> usize {
        self.peers_up.len()
    }

    /// The class of link `link`.
    pub fn link_class(&self, link: LinkId) -> LinkClass {
        if link < self.health.len() {
            LinkClass::Parent
        } else {
            LinkClass::Peer
        }
    }

    /// Whether link `link` (parent or peer) is currently believed healthy.
    pub fn is_link_up(&self, link: LinkId) -> bool {
        match self.link_class(link) {
            LinkClass::Parent => self.health.is_up(link),
            LinkClass::Peer => self
                .peers_up
                .get(link - self.health.len())
                .copied()
                .unwrap_or(false),
        }
    }

    /// The peer link carrying traffic toward shard `shard`'s home core.
    /// `None` for this core's own shard or without federation.
    pub fn peer_link_for_shard(&self, shard: usize) -> Option<LinkId> {
        let fed = self.federation.as_ref()?;
        if shard == fed.my_shard || shard >= fed.shards {
            return None;
        }
        Some(self.health.len() + shard - usize::from(shard > fed.my_shard))
    }

    /// The shard whose home core sits behind peer link `link` (inverse of
    /// [`RelayCore::peer_link_for_shard`]).
    pub fn shard_for_peer_link(&self, link: LinkId) -> Option<usize> {
        let fed = self.federation.as_ref()?;
        let peer = link.checked_sub(self.health.len())?;
        if peer >= fed.shards - 1 {
            return None;
        }
        Some(peer + usize::from(peer >= fed.my_shard))
    }

    fn set_link_health(&mut self, link: LinkId, up: bool) {
        let parents = self.health.len();
        if link < parents {
            self.health.set(link, up);
        } else if let Some(slot) = self.peers_up.get_mut(link - parents) {
            *slot = up;
        }
    }

    /// The subscribe action for `track` on `link`, typed by link class.
    fn subscribe_action(&self, track: FullTrackName, link: LinkId) -> RelayAction {
        match self.link_class(link) {
            LinkClass::Parent => RelayAction::SubscribeUpstream {
                track,
                uplink: link,
            },
            LinkClass::Peer => RelayAction::SubscribePeer { track, link },
        }
    }

    /// Drops all track, cache, and pending-fetch state and marks every
    /// uplink healthy again, keeping the cumulative counters. Used when
    /// the owning node is revived after a mid-run shutdown: downstream
    /// sessions and upstream connections are gone, so the bookkeeping
    /// must start over.
    pub fn reset(&mut self) {
        self.tracks.clear();
        self.pending.clear();
        self.budgets.clear();
        self.health = UplinkHealth::new(self.health.len());
        self.peers_up = vec![true; self.peers_up.len()];
    }

    /// Number of in-flight upstream fetches (pending-fetch table size).
    pub fn pending_fetch_count(&self) -> usize {
        self.pending.len()
    }

    /// Relay effectiveness counters.
    pub fn stats(&self) -> RelayStats {
        self.stats
    }

    /// The route policy's label (for stats tables).
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Current uplink health view.
    pub fn health(&self) -> &UplinkHealth {
        &self.health
    }

    /// Number of tracks with any state.
    pub fn track_count(&self) -> usize {
        self.tracks.len()
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
        let (track, st) = track_entry(&mut self.tracks, track);
        st.subscribers.push((session, request_id));
        let mut actions = vec![RelayAction::AcceptDownstream {
            session,
            request_id,
            largest: st.largest(),
            track: track.clone(),
        }];
        if st.upstream.is_none() {
            if let Some(link) = route_link(
                self.federation.as_ref(),
                &self.peers_up,
                self.policy.as_ref(),
                &self.health,
                &track,
            ) {
                st.upstream = Some(link);
                self.stats.upstream_subscribes += 1;
                if self.link_class(link) == LinkClass::Peer {
                    self.stats.origin_offload += 1;
                }
                actions.insert(0, self.subscribe_action(track, link));
            }
        }
        actions
    }

    /// A downstream session unsubscribed.
    pub fn on_downstream_unsubscribe(
        &mut self,
        session: SessionKey,
        request_id: u64,
    ) -> Vec<RelayAction> {
        let mut actions = Vec::new();
        for (track, st) in self.tracks.iter_mut() {
            st.subscribers
                .retain(|&(s, r)| !(s == session && r == request_id));
            if st.subscribers.is_empty() {
                if let Some(uplink) = st.upstream.take() {
                    actions.push(RelayAction::UnsubscribeUpstream {
                        track: track.clone(),
                        uplink,
                    });
                }
            }
        }
        actions
    }

    /// A whole downstream session died: drop all its subscriptions, its
    /// fetch budget, and any waiters it still had parked.
    pub fn on_session_closed(&mut self, session: SessionKey) -> Vec<RelayAction> {
        self.budgets.remove(&session);
        for p in self.pending.values_mut() {
            p.waiters.retain(|w| w.session != session);
        }
        let mut actions = Vec::new();
        for (track, st) in self.tracks.iter_mut() {
            st.subscribers.retain(|&(s, _)| s != session);
            if st.subscribers.is_empty() {
                if let Some(uplink) = st.upstream.take() {
                    actions.push(RelayAction::UnsubscribeUpstream {
                        track: track.clone(),
                        uplink,
                    });
                }
            }
        }
        actions
    }

    /// The connection behind link `uplink` (parent *or* peer) closed.
    /// Marks it down and re-routes every track whose upstream
    /// subscription lived there: each gets a fresh subscribe action on
    /// the link the routing now picks (possibly the same one — that makes
    /// the node redial; a track homed on a dead peer degrades to the
    /// parent policy's pick until the peer recovers).
    pub fn on_uplink_closed(&mut self, uplink: LinkId) -> Vec<RelayAction> {
        self.set_link_health(uplink, false);
        let mut actions = Vec::new();
        let mut resubs: Vec<(FullTrackName, LinkId)> = Vec::new();
        for (track, st) in self.tracks.iter_mut() {
            if st.upstream != Some(uplink) {
                continue;
            }
            if st.subscribers.is_empty() {
                st.upstream = None;
                continue;
            }
            match route_link(
                self.federation.as_ref(),
                &self.peers_up,
                self.policy.as_ref(),
                &self.health,
                track,
            ) {
                Some(new) => {
                    if new != uplink {
                        self.stats.reroutes += 1;
                    }
                    self.stats.upstream_subscribes += 1;
                    if new >= self.health.len() {
                        self.stats.origin_offload += 1;
                    }
                    st.upstream = Some(new);
                    resubs.push((track.clone(), new));
                }
                None => st.upstream = None,
            }
        }
        for (track, link) in resubs {
            actions.push(self.subscribe_action(track, link));
        }
        // Pending upstream fetches that rode the dead link: re-issue on
        // the link the routing now picks (the waiter list survives), or
        // reject every waiter when no other link can serve the track.
        let stranded: Vec<FullTrackName> = self
            .pending
            .iter()
            .filter(|(_, p)| p.uplink == uplink)
            .map(|(t, _)| t.clone())
            .collect();
        for track in stranded {
            let new = route_link(
                self.federation.as_ref(),
                &self.peers_up,
                self.policy.as_ref(),
                &self.health,
                &track,
            );
            match new {
                Some(new) if new != uplink => {
                    let p = self.pending.get_mut(&track).unwrap();
                    p.uplink = new;
                    // Everything in flight rode the dead link; one fresh
                    // fetch for the whole recorded union replaces it.
                    p.outstanding = 1;
                    let (start_group, end_group) = (p.start_group, p.end_group);
                    self.stats.upstream_fetches += 1;
                    let stamp = self.fresh_peer_budget();
                    actions.push(self.fetch_action(track, new, start_group, end_group, stamp));
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

    /// A connection on link `uplink` (parent *or* peer) is live again:
    /// mark it healthy and *rebalance* — every track whose current link
    /// differs from what the routing now picks moves back (a recovered
    /// uplink reclaims its hash shard; a recovered failover primary
    /// reclaims everything; a recovered peer reclaims the federated
    /// tracks homed on it). Each move is an `UnsubscribeUpstream` on the
    /// old link plus a fresh subscribe on the recovered one, counted in
    /// [`RelayStats::rebalances`].
    pub fn on_uplink_up(&mut self, uplink: LinkId) -> Vec<RelayAction> {
        self.set_link_health(uplink, true);
        let mut actions = Vec::new();
        let mut moves: Vec<(FullTrackName, LinkId, LinkId)> = Vec::new();
        for (track, st) in self.tracks.iter_mut() {
            let Some(cur) = st.upstream else { continue };
            if st.subscribers.is_empty() {
                continue;
            }
            let Some(new) = route_link(
                self.federation.as_ref(),
                &self.peers_up,
                self.policy.as_ref(),
                &self.health,
                track,
            ) else {
                continue;
            };
            if new == cur {
                continue;
            }
            st.upstream = Some(new);
            self.stats.rebalances += 1;
            self.stats.upstream_subscribes += 1;
            if new >= self.health.len() {
                self.stats.origin_offload += 1;
            }
            moves.push((track.clone(), cur, new));
        }
        for (track, cur, new) in moves {
            actions.push(RelayAction::UnsubscribeUpstream {
                track: track.clone(),
                uplink: cur,
            });
            actions.push(self.subscribe_action(track, new));
        }
        actions
    }

    /// An object arrived over link `link` on `track`: counts federated
    /// (peer-link) traffic in [`RelayStats::peer_objects`], then caches
    /// and fans out exactly like [`RelayCore::on_upstream_object`].
    pub fn on_link_object(
        &mut self,
        link: LinkId,
        track: &FullTrackName,
        object: Object,
    ) -> Vec<RelayAction> {
        if self.link_class(link) == LinkClass::Peer {
            self.stats.peer_objects += 1;
        }
        self.on_upstream_object(track, object)
    }

    /// An object arrived from upstream on `track`: cache + fan out.
    /// The payload is moved through untouched, and *shared*: caching and
    /// every per-subscriber [`RelayAction::Forward`] clone the payload
    /// handle (a refcount bump), so publish cost is O(1) in subscriber
    /// count for payload bytes copied.
    pub fn on_upstream_object(
        &mut self,
        track: &FullTrackName,
        object: Object,
    ) -> Vec<RelayAction> {
        let Some(st) = self.tracks.get_mut(track) else {
            return Vec::new();
        };
        st.cache
            .insert((object.group_id, object.object_id), object.payload.clone());
        if self.cache_per_track > 0 {
            while st.cache.len() > self.cache_per_track {
                let oldest = *st.cache.keys().next().unwrap();
                st.cache.remove(&oldest);
            }
        }
        let mut actions = Vec::with_capacity(st.subscribers.len());
        for &(session, request_id) in &st.subscribers {
            self.stats.objects_forwarded += 1;
            actions.push(RelayAction::Forward {
                session,
                request_id,
                object: object.clone(),
            });
        }
        actions
    }

    /// The fetch action for `track` on `link`, typed by link class, with
    /// peer-traffic counters applied. A peer fetch is stamped with
    /// `stamp_budget`, the hops the *receiver* may still spend.
    fn fetch_action(
        &mut self,
        track: FullTrackName,
        link: LinkId,
        start_group: u64,
        end_group: u64,
        stamp_budget: u64,
    ) -> RelayAction {
        match self.link_class(link) {
            LinkClass::Parent => RelayAction::FetchUpstream {
                track,
                uplink: link,
                start_group,
                end_group,
            },
            LinkClass::Peer => {
                self.stats.peer_fetches += 1;
                self.stats.origin_offload += 1;
                RelayAction::FetchPeer {
                    track,
                    link,
                    start_group,
                    end_group,
                    hop_budget: stamp_budget,
                }
            }
        }
    }

    /// Budget stamped on a freshly originated peer fetch (the hop being
    /// taken is already spent).
    fn fresh_peer_budget(&self) -> u64 {
        self.federation
            .as_ref()
            .map(|f| f.hop_budget.saturating_sub(1))
            .unwrap_or(0)
    }

    /// A downstream fetch for groups `[start_group, end_group]` of `track`.
    /// Served from cache when the range is present; coalesced into an
    /// in-flight upstream fetch for the same track when one covers the
    /// range; otherwise escalated on the track's current link (or the
    /// routing's pick for it — a peer link when the track is federated
    /// and homed elsewhere).
    pub fn on_downstream_fetch(
        &mut self,
        session: SessionKey,
        request_id: u64,
        track: FullTrackName,
        start_group: u64,
        end_group: u64,
    ) -> Vec<RelayAction> {
        let budget = self
            .federation
            .as_ref()
            .map(|f| f.hop_budget)
            .unwrap_or(u64::MAX);
        self.fetch_inner(session, request_id, track, start_group, end_group, budget)
    }

    /// A federation fetch arrived from a peer core carrying `hop_budget`.
    /// Identical to a downstream fetch except that re-forwarding it to
    /// *another* peer spends budget: a fetch that would need a peer hop
    /// with budget 0 is rejected instead of forwarded, so a rerouted
    /// request can never cycle through the core graph.
    pub fn on_peer_fetch(
        &mut self,
        session: SessionKey,
        request_id: u64,
        track: FullTrackName,
        start_group: u64,
        end_group: u64,
        hop_budget: u64,
    ) -> Vec<RelayAction> {
        self.fetch_inner(
            session,
            request_id,
            track,
            start_group,
            end_group,
            hop_budget,
        )
    }

    fn fetch_inner(
        &mut self,
        session: SessionKey,
        request_id: u64,
        track: FullTrackName,
        start_group: u64,
        end_group: u64,
        budget: u64,
    ) -> Vec<RelayAction> {
        let (track, st) = track_entry(&mut self.tracks, track);
        let objects: Vec<Object> = st
            .cache
            .range((start_group, 0)..=(end_group, u64::MAX))
            .map(|(&(g, o), payload)| Object {
                group_id: g,
                object_id: o,
                payload: payload.clone(),
            })
            .collect();
        if let (Some(largest), false) = (st.largest(), objects.is_empty()) {
            self.stats.fetch_cache_hits += 1;
            return vec![RelayAction::ServeFetch {
                session,
                request_id,
                largest,
                objects,
            }];
        }
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
        let uplink = st
            .upstream
            .or_else(|| {
                route_link(
                    self.federation.as_ref(),
                    &self.peers_up,
                    self.policy.as_ref(),
                    &self.health,
                    &track,
                )
            })
            .unwrap_or(0);
        if self.link_class(uplink) == LinkClass::Peer && budget == 0 {
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
            uplink,
            start_group,
            end_group,
            outstanding: 0,
            waiters: Vec::new(),
        });
        entry.start_group = entry.start_group.min(start_group);
        entry.end_group = entry.end_group.max(end_group);
        entry.outstanding += 1;
        let (start_group, end_group) = (entry.start_group, entry.end_group);
        entry.waiters.push(waiter);
        self.stats.upstream_fetches += 1;
        let stamp = budget.saturating_sub(1);
        vec![self.fetch_action(track, uplink, start_group, end_group, stamp)]
    }

    /// The node completed an upstream fetch triggered by
    /// [`RelayAction::FetchUpstream`] / [`RelayAction::FetchPeer`],
    /// answering a whole-track request: cache the objects and fan the
    /// result out to every downstream fetch blocked in the waiter list
    /// (each served exactly once).
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
    /// are served now (from the updated cache); waiters blocked on a
    /// wider re-issued fetch stay pending until it lands — a narrow
    /// result must never short-serve a whole-track waiter.
    pub fn on_upstream_fetch_result_range(
        &mut self,
        track: &FullTrackName,
        objects: Vec<Object>,
        ans_start: u64,
        ans_end: u64,
    ) -> Vec<RelayAction> {
        let st = self.tracks.entry(track.clone()).or_default();
        for o in &objects {
            st.cache
                .insert((o.group_id, o.object_id), o.payload.clone());
        }
        let largest = st.largest().unwrap_or((0, 0));
        let Some(p) = self.pending.get_mut(track) else {
            self.evict(track);
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
        // Serve waiters from the cache *before* eviction trims it: the
        // pre-eviction cache holds this whole result plus every earlier
        // partial answer, so a bounded cache never truncates what a
        // waiter receives.
        let st = self.tracks.get(track).expect("entry created above");
        self.stats.fetch_waiters_served += ready.len() as u64;
        let actions: Vec<RelayAction> = ready
            .into_iter()
            .map(|w| RelayAction::ServeFetch {
                session: w.session,
                request_id: w.request_id,
                largest,
                // Each waiter gets only the groups it asked for — the
                // same filter the cache-hit path applies.
                objects: st
                    .cache
                    .range((w.start_group, 0)..=(w.end_group, u64::MAX))
                    .map(|(&(g, o), payload)| Object {
                        group_id: g,
                        object_id: o,
                        payload: payload.clone(),
                    })
                    .collect(),
            })
            .collect();
        self.evict(track);
        actions
    }

    /// Returns one unit of fetch budget to `session` (its waiter left the
    /// pending table: served, rejected, or purged).
    fn release_fetch_budget(&mut self, session: SessionKey) {
        if let Some(b) = self.budgets.get_mut(&session) {
            b.outstanding = b.outstanding.saturating_sub(1);
        }
    }

    /// Trims `track`'s cache to the per-track cap (oldest groups first).
    fn evict(&mut self, track: &FullTrackName) {
        if self.cache_per_track == 0 {
            return;
        }
        let Some(st) = self.tracks.get_mut(track) else {
            return;
        };
        while st.cache.len() > self.cache_per_track {
            let oldest = *st.cache.keys().next().unwrap();
            st.cache.remove(&oldest);
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
            RelayAction::SubscribeUpstream { uplink: 0, .. }
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
                objects, largest, ..
            } => {
                assert_eq!(objects.len(), 1);
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
        assert!(matches!(a[0], RelayAction::FetchUpstream { uplink: 0, .. }));
        assert_eq!(r.stats().fetch_cache_misses, 1);
        assert_eq!(r.stats().upstream_fetches, 1);
        assert_eq!(r.pending_fetch_count(), 1);
        let a = r.on_upstream_fetch_result(&track(1), vec![obj(5, b"v5")]);
        assert_eq!(a.len(), 1, "one waiter, one ServeFetch");
        match &a[0] {
            RelayAction::ServeFetch {
                session,
                request_id,
                objects,
                ..
            } => {
                assert_eq!((*session, *request_id), (2, 8));
                assert_eq!(objects.len(), 1);
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
                    objects,
                    largest,
                } => {
                    assert_eq!(objects.len(), 1);
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

    #[test]
    fn waiter_fanout_filters_objects_to_each_requested_range() {
        // A wide fetch opens the upstream fetch; a narrower one coalesces.
        // The fan-out must serve each waiter only the groups it asked for,
        // like the cache-hit path would.
        let mut r = RelayCore::new(0);
        let a = r.on_downstream_fetch(1, 10, track(1), 0, 10);
        assert!(matches!(a[0], RelayAction::FetchUpstream { .. }));
        assert!(r.on_downstream_fetch(2, 20, track(1), 2, 3).is_empty());
        let acts = r.on_upstream_fetch_result(&track(1), (0..=5).map(|g| obj(g, b"x")).collect());
        assert_eq!(acts.len(), 2);
        for a in &acts {
            match a {
                RelayAction::ServeFetch {
                    session, objects, ..
                } => {
                    let groups: Vec<u64> = objects.iter().map(|o| o.group_id).collect();
                    match session {
                        1 => assert_eq!(groups, vec![0, 1, 2, 3, 4, 5]),
                        2 => assert_eq!(groups, vec![2, 3], "narrow waiter filtered"),
                        other => panic!("unexpected session {other}"),
                    }
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn narrow_result_does_not_short_serve_widened_waiter() {
        // Reverse order of the stampede: a narrow fetch is in flight when
        // a whole-track fetch arrives. The union is re-issued; the narrow
        // result must serve ONLY the narrow waiter, and the wide waiter
        // is served when the union result lands — with everything.
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
        assert_eq!(acts.len(), 1);
        assert!(matches!(
            acts[0],
            RelayAction::ServeFetch { session: 1, .. }
        ));
        assert_eq!(r.pending_fetch_count(), 1, "wide waiter still pending");
        // The union answer lands: the wide waiter gets the full range
        // (including the earlier narrow result, via the cache).
        let acts = r.on_upstream_fetch_result_range(&track(1), vec![obj(5, b"v5")], 0, u64::MAX);
        assert_eq!(acts.len(), 1);
        match &acts[0] {
            RelayAction::ServeFetch {
                session, objects, ..
            } => {
                assert_eq!(*session, 2);
                let groups: Vec<u64> = objects.iter().map(|o| o.group_id).collect();
                assert_eq!(groups, vec![1, 5], "full range, both results");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(r.pending_fetch_count(), 0);
        assert_eq!(r.stats().fetch_waiters_served, 2);
    }

    #[test]
    fn bounded_cache_does_not_truncate_fetch_results_to_waiters() {
        // cache cap 2, upstream result of 5 groups: the waiter must see
        // all 5 (served before eviction); the cache keeps the 2 newest.
        let mut r = RelayCore::new(2);
        let a = r.on_downstream_fetch(1, 10, track(1), 0, u64::MAX);
        assert!(matches!(a[0], RelayAction::FetchUpstream { .. }));
        let acts = r.on_upstream_fetch_result(&track(1), (1..=5).map(|g| obj(g, b"x")).collect());
        match &acts[0] {
            RelayAction::ServeFetch { objects, .. } => {
                let groups: Vec<u64> = objects.iter().map(|o| o.group_id).collect();
                assert_eq!(groups, vec![1, 2, 3, 4, 5], "full result served");
            }
            other => panic!("{other:?}"),
        }
        // Eviction still applied afterwards: only groups 4, 5 remain.
        let a = r.on_downstream_fetch(2, 20, track(1), 4, 5);
        assert!(matches!(a[0], RelayAction::ServeFetch { .. }));
        let a = r.on_downstream_fetch(2, 30, track(1), 1, 3);
        assert!(
            matches!(a[0], RelayAction::FetchUpstream { .. }),
            "older groups evicted: {a:?}"
        );
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
        let mut r = RelayCore::with_policy(0, 2, Box::new(Failover));
        let a = r.on_downstream_fetch(1, 10, track(1), 0, u64::MAX);
        let died = match a[0] {
            RelayAction::FetchUpstream { uplink, .. } => uplink,
            ref other => panic!("{other:?}"),
        };
        let acts = r.on_uplink_closed(died);
        // The in-flight fetch moves to the surviving uplink, waiters kept.
        let refetched = acts.iter().find_map(|a| match a {
            RelayAction::FetchUpstream { uplink, .. } => Some(*uplink),
            _ => None,
        });
        assert_eq!(refetched, Some(1 - died));
        assert_eq!(r.pending_fetch_count(), 1);
        let served = r.on_upstream_fetch_result(&track(1), vec![obj(1, b"x")]);
        assert_eq!(served.len(), 1);
    }

    #[test]
    fn pending_fetch_rejected_when_no_uplink_left() {
        let mut r = RelayCore::new(0); // StaticParent: only uplink 0.
        r.on_downstream_fetch(1, 10, track(1), 0, u64::MAX);
        let acts = r.on_uplink_closed(0);
        // StaticParent routes back to the dead uplink 0: the fetch cannot
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
    fn cache_eviction_keeps_newest_groups() {
        let mut r = RelayCore::new(2);
        r.on_downstream_subscribe(1, 2, track(1));
        for g in 1..=5 {
            r.on_upstream_object(&track(1), obj(g, b"x"));
        }
        // Only groups 4 and 5 remain.
        let a = r.on_downstream_fetch(2, 8, track(1), 4, 5);
        match &a[0] {
            RelayAction::ServeFetch { objects, .. } => {
                assert_eq!(
                    objects.iter().map(|o| o.group_id).collect::<Vec<_>>(),
                    vec![4, 5]
                );
            }
            other => panic!("{other:?}"),
        }
        let a = r.on_downstream_fetch(2, 10, track(1), 1, 3);
        assert!(matches!(a[0], RelayAction::FetchUpstream { .. }));
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
            RelayAction::ServeFetch { objects, .. } => {
                assert!(objects[0].payload.shares_storage_with(&original));
            }
            other => panic!("{other:?}"),
        }
    }

    // ---- routing ----

    fn subscribed_uplink(actions: &[RelayAction]) -> Option<UplinkId> {
        actions.iter().find_map(|a| match a {
            RelayAction::SubscribeUpstream { uplink, .. } => Some(*uplink),
            _ => None,
        })
    }

    #[test]
    fn hash_shard_spreads_tracks_across_uplinks() {
        let mut r = RelayCore::with_policy(0, 4, Box::new(HashShard));
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
        let mut r1 = RelayCore::with_policy(0, 3, Box::new(HashShard));
        let mut r2 = RelayCore::with_policy(0, 3, Box::new(HashShard));
        for t in 0..16u8 {
            assert_eq!(route(&mut r1, t), route(&mut r2, t), "track {t}");
        }
    }

    #[test]
    fn failover_moves_tracks_to_surviving_uplink() {
        let mut r = RelayCore::with_policy(0, 2, Box::new(Failover));
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
        let mut r = RelayCore::with_policy(0, 2, Box::new(Failover));
        r.on_downstream_subscribe(1, 2, track(1));
        r.on_uplink_closed(0);
        let a = r.on_uplink_closed(1);
        // Everything down: policy falls back to uplink 0 (redial).
        assert_eq!(subscribed_uplink(&a), Some(0));
        // Recovery marks it healthy — and rebalances the track onto the
        // recovered uplink (better than a dead fallback).
        let a = r.on_uplink_up(1);
        assert!(r.health().is_up(1));
        assert_eq!(subscribed_uplink(&a), Some(1));
        assert_eq!(r.stats().rebalances, 1);
    }

    #[test]
    fn recovered_uplink_reclaims_its_hash_shard() {
        let mut r = RelayCore::with_policy(0, 2, Box::new(HashShard));
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
            .filter(|a| matches!(a, RelayAction::SubscribeUpstream { uplink: 0, .. }))
            .collect();
        assert_eq!(resubs.len(), home[0].len(), "shard reclaimed");
        // Every move pairs an unsubscribe on the temporary uplink.
        let unsubs = acts
            .iter()
            .filter(|a| matches!(a, RelayAction::UnsubscribeUpstream { uplink: 1, .. }))
            .count();
        assert_eq!(unsubs, home[0].len());
        assert_eq!(r.stats().rebalances, home[0].len() as u64);
        // Tracks already home stay put: recovering uplink 1 moves nothing.
        assert!(r.on_uplink_up(1).is_empty());
    }

    #[test]
    fn reset_clears_state_keeps_counters() {
        let mut r = RelayCore::with_policy(0, 2, Box::new(HashShard));
        r.on_downstream_subscribe(1, 2, track(1));
        r.on_downstream_fetch(2, 8, track(2), 0, u64::MAX);
        r.on_uplink_closed(0);
        let before = r.stats();
        r.reset();
        assert_eq!(r.track_count(), 0);
        assert_eq!(r.pending_fetch_count(), 0);
        assert!(r.health().is_up(0), "health restarts optimistic");
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
        let mut r = RelayCore::with_policy(0, 2, Box::new(Failover));
        r.on_downstream_subscribe(1, 2, track(1));
        r.on_downstream_unsubscribe(1, 2);
        // Cache/track state may remain, but nothing re-subscribes.
        assert!(r.on_uplink_closed(0).is_empty());
    }

    #[test]
    fn hash_shard_walks_ring_past_down_uplink() {
        let mut r = RelayCore::with_policy(0, 2, Box::new(HashShard));
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
        RelayCore::with_policy(0, 1, Box::new(StaticParent))
            .federate(FederationConfig::new(my_shard, shards))
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
                assert_eq!(r.parent_count(), 1);
                assert_eq!(r.peer_count(), shards - 1);
                for s in 0..shards {
                    match r.peer_link_for_shard(s) {
                        Some(link) => {
                            assert_ne!(s, my);
                            assert_eq!(r.link_class(link), LinkClass::Peer);
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
            RelayAction::SubscribeUpstream { uplink: 0, .. }
        ));
        // A track homed on shard 2 rides the peer link to that core.
        let remote = track_homed(2, shards);
        let a = r.on_downstream_subscribe(2, 2, remote);
        let expect_link = r.peer_link_for_shard(2).unwrap();
        assert!(matches!(
            a[0],
            RelayAction::SubscribePeer { link, .. } if link == expect_link
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
            RelayAction::FetchPeer {
                link, hop_budget, ..
            } => {
                assert_eq!(*link, r.peer_link_for_shard(2).unwrap());
                // Fresh budget minus the hop being taken.
                assert_eq!(*hop_budget, shards as u64 - 1);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(r.stats().peer_fetches, 1);
        assert_eq!(r.stats().upstream_fetches, 1, "peer fetches are upstream");
        assert_eq!(r.stats().origin_offload, 1);
        // The result fans out through the same waiter machinery.
        let served = r.on_upstream_fetch_result(&remote, vec![obj(1, b"x")]);
        assert_eq!(served.len(), 1);
        // A home-shard miss still escalates to the origin parent.
        let home = track_homed(0, shards);
        let a = r.on_downstream_fetch(2, 20, home, 0, u64::MAX);
        assert!(matches!(a[0], RelayAction::FetchUpstream { uplink: 0, .. }));
        assert_eq!(r.stats().peer_fetches, 1, "home fetch is not peer");
    }

    #[test]
    fn peer_fetch_with_exhausted_budget_is_rejected_not_forwarded() {
        let shards = 3;
        // Core 0 receives a peer fetch for a track homed on shard 2 —
        // misdirected, so serving it needs another peer hop.
        let mut r = fed_core(0, shards);
        let remote = track_homed(2, shards);
        let a = r.on_peer_fetch(7, 70, remote.clone(), 0, u64::MAX, 0);
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
        let a = r.on_peer_fetch(7, 71, remote, 0, u64::MAX, 2);
        assert!(matches!(a[0], RelayAction::FetchPeer { hop_budget: 1, .. }));
    }

    #[test]
    fn dead_peer_falls_back_to_origin_and_rebalances_home() {
        let shards = 3;
        let mut r = fed_core(0, shards);
        let remote = track_homed(1, shards);
        let peer = r.peer_link_for_shard(1).unwrap();
        let a = r.on_downstream_subscribe(1, 2, remote.clone());
        assert!(matches!(a[0], RelayAction::SubscribePeer { link, .. } if link == peer));
        // The peer core dies: the track degrades to the origin parent.
        let a = r.on_uplink_closed(peer);
        assert!(!r.is_link_up(peer));
        assert!(matches!(
            a[0],
            RelayAction::SubscribeUpstream { uplink: 0, .. }
        ));
        assert_eq!(r.stats().reroutes, 1);
        // While the peer is down, a cache miss escalates to the origin.
        let a = r.on_downstream_fetch(2, 20, remote.clone(), 0, u64::MAX);
        assert!(matches!(a[0], RelayAction::FetchUpstream { uplink: 0, .. }));
        // Peer recovery rebalances the federated track home.
        let a = r.on_uplink_up(peer);
        assert!(r.is_link_up(peer));
        assert!(a
            .iter()
            .any(|x| matches!(x, RelayAction::UnsubscribeUpstream { uplink: 0, .. })));
        assert!(a
            .iter()
            .any(|x| matches!(x, RelayAction::SubscribePeer { link, .. } if *link == peer)));
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
                    RelayAction::FetchPeer { link, hop_budget, .. } => {
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
                        actions = nodes[cur].on_peer_fetch(9, 9, t.clone(), 0, u64::MAX, hop_budget);
                    }
                    // Terminal outcomes: escalated to the origin parent,
                    // refused (budget/dead upstream), or coalesced into a
                    // previous in-flight fetch at this core.
                    RelayAction::FetchUpstream { uplink, .. } => {
                        proptest::prop_assert_eq!(uplink, 0);
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
