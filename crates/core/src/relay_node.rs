//! A MoQT relay wired into the simulator (paper §3, §5.3, ablation A3).
//!
//! Downstream it is a MoQT server; upstream it is a MoQT client of one or
//! more parents (authoritative servers or other relays) **and**, when
//! federated, of its peer cores in other regions. All routing decisions
//! come from [`moqdns_moqt::relay::RelayCore`], which never inspects
//! object payloads — the relay works for DNS objects because it works for
//! *any* objects. The upstream link plumbing (dialing, request ids,
//! redial, replay) lives in [`crate::links`]; the per-track link
//! choice comes from the core's [`moqdns_moqt::relay::RoutePolicy`] plus
//! its federation shard map, so the same node serves single-parent
//! chains, hash-sharded meshes, failover pairs, and cross-region core
//! federations ([`RelayNode::peers`]).

use crate::links::Links;
use crate::stack::{MoqtStack, StackEvent, StackNode, TOKEN_QUIC};
use crate::MOQT_PORT;
use moqdns_moqt::data::Object;
use moqdns_moqt::relay::{
    FederationConfig, RelayAction, RelayCore, RelayLimits, RelayStats, RoutePolicy, StaticParent,
};
use moqdns_moqt::session::{IncomingFetchKind, Session, SessionEvent};
use moqdns_moqt::track::FullTrackName;
use moqdns_netsim::{splitmix64, Addr, Ctx, Node, Payload};
use moqdns_quic::{ConnHandle, Connection, TransportConfig};
use std::any::Any;
use std::time::Duration;

/// Timer token for the uplink recovery probe (distinct from
/// [`TOKEN_QUIC`]).
pub const TOKEN_UPLINK_PROBE: u64 = (1 << 56) + 1;

/// Ceiling on the probe backoff multiplier: consecutive unanswered probes
/// double the interval up to `PROBE_MAX_BACKOFF ×` the base (16 s with
/// the 2 s default) — long outages cost a bounded, sparse redial cadence
/// instead of a fixed-rate redial storm, yet recovery detection stays
/// prompt.
pub const PROBE_MAX_BACKOFF: u32 = 8;

/// The relay node.
pub struct RelayNode {
    stack: MoqtStack,
    core: RelayCore,
    links: Links,
    /// Tier label for stats tables ("tier1", "edge", …).
    tier: String,
    /// Base interval for redialing uplinks the core believes down. When a
    /// probe dial completes, the `Ready` event marks the uplink healthy
    /// and the core rebalances tracks back onto it. Consecutive
    /// unanswered probes back off exponentially (capped at
    /// [`PROBE_MAX_BACKOFF`]× this base, plus deterministic jitter) so a
    /// fleet of relays facing a long outage does not redial in lockstep
    /// at a fixed rate forever.
    probe_interval: Duration,
    /// A probe timer is currently armed.
    probe_armed: bool,
    /// Consecutive probes that left at least one uplink down (drives the
    /// backoff exponent; reset when everything recovers or a fresh
    /// failure episode starts).
    probe_attempt: u32,
    /// Per-node jitter seed for the backed-off probe schedule. A pure
    /// hash of this and the attempt number desynchronizes sibling relays
    /// without touching the simulator's seeded RNG (determinism holds).
    probe_seed: u64,
    /// Per-connection send backlog (estimated connection state bytes)
    /// past which a downstream session is evicted as a slow-loris: a
    /// subscriber that never drains its streams grows unacked state
    /// without bound otherwise.
    max_session_backlog: usize,
    /// Taken down mid-run: ignore all further events.
    dead: bool,
}

impl RelayNode {
    /// Creates a single-parent relay forwarding to `parent`, caching up
    /// to `cache_per_track` objects per track — the classic chain shape.
    pub fn new(parent: Addr, cache_per_track: usize, seed: u64) -> RelayNode {
        RelayNode::with_policy(vec![parent], Box::new(StaticParent), cache_per_track, seed)
    }

    /// Creates a relay with `parents` as its ordered uplink set and
    /// `policy` choosing the uplink per track.
    pub fn with_policy(
        parents: Vec<Addr>,
        policy: Box<dyn RoutePolicy>,
        cache_per_track: usize,
        seed: u64,
    ) -> RelayNode {
        let transport = TransportConfig::patient();
        let n = parents.len();
        RelayNode {
            stack: MoqtStack::server(transport, seed),
            core: RelayCore::with_policy(cache_per_track, n, policy),
            links: Links::new(parents),
            tier: String::new(),
            probe_interval: Duration::from_secs(2),
            probe_armed: false,
            probe_attempt: 0,
            probe_seed: seed,
            max_session_backlog: 1 << 20,
            dead: false,
        }
    }

    /// Replaces the transport configuration of every connection, up and
    /// down (builder style; the default is an hour of idle timeout and a
    /// 25 s keep-alive).
    ///
    /// `max_streams` must equal every peer's
    /// (`moqdns_quic::TransportConfig::max_streams`): it is never
    /// negotiated, each side assumes the other's.
    pub fn transport(mut self, transport: TransportConfig) -> RelayNode {
        self.stack = MoqtStack::server(transport, self.probe_seed);
        self
    }

    /// Replaces the per-session fetch abuse limits (builder style). The
    /// defaults are permissive; adversarial worlds tighten them.
    pub fn limits(mut self, limits: RelayLimits) -> RelayNode {
        self.core = self.core.with_limits(limits);
        self
    }

    /// Overrides the slow-loris eviction threshold: downstream sessions
    /// whose estimated connection state exceeds `bytes` after a forward
    /// are closed (builder style; default 1 MiB).
    pub fn session_backlog(mut self, bytes: usize) -> RelayNode {
        self.max_session_backlog = bytes;
        self
    }

    /// Joins a cross-region core federation (builder style): `peers` are
    /// the other cores' addresses in global shard order with this core
    /// omitted, and `my_shard` is this core's shard index among
    /// `peers.len() + 1` shards. Tracks homed on a peer shard are then
    /// subscribed and fetched over the peer link to their home core
    /// instead of escalating to the origin; the recovery probe and
    /// rebalance machinery cover peer links exactly like parents.
    pub fn peers(mut self, peers: Vec<Addr>, my_shard: usize) -> RelayNode {
        let shards = peers.len() + 1;
        self.links.add_peers(peers);
        self.core = self.core.federate(FederationConfig::new(my_shard, shards));
        self
    }

    /// Labels this relay's tier for per-tier stats aggregation.
    pub fn tier(mut self, label: impl Into<String>) -> RelayNode {
        self.tier = label.into();
        self
    }

    /// Overrides the uplink recovery probe interval (builder style).
    pub fn probe_interval(mut self, interval: Duration) -> RelayNode {
        self.probe_interval = interval;
        self
    }

    /// The route policy's label.
    pub fn policy_name(&self) -> &'static str {
        self.core.policy_name()
    }

    /// Relay effectiveness counters (ablation A3), with what only the node
    /// sees filled in: the hardening counters of every session it ever
    /// hosted, what those sessions raised by [`Reason`](moqdns_moqt::Reason)
    /// (poisons, refused data streams) and the link layer's recovery
    /// counters.
    pub fn stats(&self) -> RelayStats {
        RelayStats {
            session: self.stack.session_stats_total(),
            dials: self.links.stats(),
            reasons: self.stack.reason_counts(),
            ..self.core.stats()
        }
    }

    /// Aggregation factor: downstream subscriptions per upstream one.
    pub fn aggregation_factor(&self) -> f64 {
        self.core.aggregation_factor()
    }

    /// Live upstream subscriptions across all links (parents + peers).
    pub fn upstream_subscription_count(&self) -> usize {
        self.links.total_subs()
    }

    /// Live upstream subscriptions riding federated peer links.
    pub fn peer_subscription_count(&self) -> usize {
        self.links.peer_subs()
    }

    /// In-flight upstream fetches (the coalescing table's size).
    pub fn pending_fetch_count(&self) -> usize {
        self.core.pending_fetch_count()
    }

    /// Live sessions hosted by this relay (downstream + uplinks).
    pub fn session_count(&self) -> usize {
        self.stack.session_count()
    }

    /// Estimated bytes of session + connection state held right now —
    /// the quantity the adversarial drills bound: evictions must actually
    /// reclaim what an attacker made the relay hold.
    pub fn state_size_estimate(&self) -> usize {
        self.stack.state_size_estimate()
    }

    /// Connection-by-connection state composition (see
    /// [`MoqtStack::state_breakdown`]) — used by the adversarial drills to
    /// attribute state growth to the connection that caused it.
    pub fn state_breakdown(&self) -> (usize, Vec<moqdns_quic::ConnStateRow>) {
        self.stack.state_breakdown()
    }

    /// Takes the relay out of service: closes every connection (peers see
    /// a CONNECTION_CLOSE, not an idle timeout) and drops all state. Used
    /// by the failover experiments to kill a tier mid-run.
    pub fn shutdown(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.close_all(ctx, 0x0, "relay shutdown");
        self.dead = true;
    }

    /// Whether [`RelayNode::shutdown`] was called.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Brings a [`RelayNode::shutdown`] relay back into service with empty
    /// session/subscription state (cumulative stats survive). Downstream
    /// peers re-attach via their own recovery probes; upstream
    /// subscriptions are re-opened as downstream demand returns.
    pub fn revive(&mut self) {
        self.dead = false;
        self.core.reset();
        self.links.reset();
        // A probe timer that fired while we were dead was swallowed by the
        // dead-check without clearing this flag; leaving it set would keep
        // arm_probe() a no-op forever after revival.
        self.probe_armed = false;
        self.probe_attempt = 0;
    }

    /// Current probe delay: the base interval for the first attempt of a
    /// failure episode, then capped exponential backoff with
    /// deterministic per-node jitter. The jitter is a pure hash of
    /// `(probe_seed, attempt)` — no RNG draw, so the simulator's
    /// determinism contract is untouched, but sibling relays dialing the
    /// same dead parent spread out instead of redialing in lockstep.
    fn probe_delay(&self) -> Duration {
        if self.probe_attempt == 0 {
            return self.probe_interval;
        }
        let exp = self.probe_attempt.min(PROBE_MAX_BACKOFF.ilog2());
        let backed = self
            .probe_interval
            .saturating_mul(1 << exp)
            .min(self.probe_interval.saturating_mul(PROBE_MAX_BACKOFF));
        // Up to backed/8 of jitter (250 ms at the 2 s base, 2 s at the
        // 16 s cap).
        let span = (backed.as_nanos() as u64 / 8).max(1);
        let jitter = splitmix64(self.probe_seed ^ u64::from(self.probe_attempt)) % span;
        backed + Duration::from_nanos(jitter)
    }

    fn arm_probe(&mut self, ctx: &mut Ctx<'_>) {
        if !self.probe_armed && !self.probe_interval.is_zero() {
            ctx.set_timer(self.probe_delay(), TOKEN_UPLINK_PROBE);
            self.probe_armed = true;
        }
    }

    /// Redials every link (parent or peer) the core currently believes
    /// down; re-arms the probe (backing off) while any remain down.
    fn probe_uplinks(&mut self, ctx: &mut Ctx<'_>) {
        self.probe_armed = false;
        let down: Vec<usize> = (0..self.links.len())
            .filter(|&u| !self.core.is_link_up(u))
            .collect();
        if down.is_empty() {
            self.probe_attempt = 0;
            return;
        }
        for u in down {
            self.links.redial(ctx, &mut self.stack, u);
        }
        // No dial completes within the turn that started it.
        self.probe_attempt = self.probe_attempt.saturating_add(1);
        self.arm_probe(ctx);
    }

    /// Fetches `groups` of `track` over `link` (a budgeted federation
    /// fetch when `hop_budget` is given).
    fn fetch_upstream(
        &mut self,
        ctx: &mut Ctx<'_>,
        link: usize,
        track: FullTrackName,
        groups: (u64, u64),
        hop_budget: Option<u64>,
    ) {
        let what = (track.clone(), groups.0, groups.1);
        let stack = &mut self.stack;
        if !self.links[link].fetch(ctx, stack, track.clone(), groups, hop_budget, what) {
            // Could not even dial: fail the pending fetch so every
            // coalesced waiter gets rejected.
            let acts = self.core.on_upstream_fetch_failed(&track);
            self.run_actions(ctx, acts);
        }
    }

    fn run_actions(&mut self, ctx: &mut Ctx<'_>, actions: Vec<RelayAction>) {
        for a in actions {
            match a {
                RelayAction::SubscribeUpstream { track, uplink } => {
                    self.links.subscribe(ctx, &mut self.stack, uplink, track);
                }
                RelayAction::SubscribePeer { track, link } => {
                    // Same dial/queue/replay machine — a peer link is
                    // just an upstream slot past the parents.
                    self.links.subscribe(ctx, &mut self.stack, link, track);
                }
                RelayAction::AcceptDownstream {
                    session,
                    request_id,
                    largest,
                    track,
                } => {
                    if let Some((sess, conn)) = self.stack.session_conn(ConnHandle(session)) {
                        sess.share_subscribed_track(request_id, &track);
                        sess.accept_subscribe(conn, request_id, largest);
                    }
                }
                RelayAction::Forward {
                    session,
                    request_id,
                    object,
                } => {
                    if let Some((sess, conn)) = self.stack.session_conn(ConnHandle(session)) {
                        sess.publish(conn, request_id, object);
                        evict_if_backlogged(sess, conn, self.max_session_backlog, &mut self.core);
                    }
                }
                RelayAction::ServeFetch {
                    session,
                    request_id,
                    largest,
                    objects,
                } => {
                    if let Some((sess, conn)) = self.stack.session_conn(ConnHandle(session)) {
                        // DNS tracks: only the newest version matters.
                        let newest: Vec<Object> = objects.into_iter().rev().take(1).collect();
                        sess.respond_fetch(conn, request_id, largest, newest);
                        evict_if_backlogged(sess, conn, self.max_session_backlog, &mut self.core);
                    }
                }
                RelayAction::FetchUpstream {
                    track,
                    uplink,
                    start_group,
                    end_group,
                } => self.fetch_upstream(ctx, uplink, track, (start_group, end_group), None),
                RelayAction::FetchPeer {
                    track,
                    link,
                    start_group,
                    end_group,
                    hop_budget,
                } => {
                    let groups = (start_group, end_group);
                    self.fetch_upstream(ctx, link, track, groups, Some(hop_budget));
                }
                RelayAction::RejectFetch {
                    session,
                    request_id,
                } => {
                    if let Some((sess, conn)) = self.stack.session_conn(ConnHandle(session)) {
                        sess.reject_fetch(conn, request_id, 0x5, "upstream unavailable");
                    }
                }
                RelayAction::CloseSession { session } => {
                    // Fetch-bomb eviction: the core already counted it;
                    // the close lands as a StackEvent::Closed later in
                    // this turn, which runs the normal session teardown.
                    if let Some((_sess, conn)) = self.stack.session_conn(ConnHandle(session)) {
                        conn.close(0x10, "session evicted");
                    }
                }
                RelayAction::UnsubscribeUpstream { track, uplink } => {
                    self.links[uplink].unsubscribe(&mut self.stack, &track);
                }
            }
        }
    }
}

/// Slow-loris defense: a downstream peer that never drains accumulates
/// unacknowledged stream state on our side of the connection and, while
/// it withholds stream credit, streams waiting in the session (which
/// holds at most one window of them). Past `bound`, evict instead of
/// buffering. Checked after the two actions that send a peer a data
/// stream — a forward and a fetch answer — the only paths where a slow
/// peer grows our state, so idle sessions cost no sweep. The backlog
/// counts only bytes the peer has not acknowledged, so a healthy reader
/// stays near zero no matter how long it lives.
fn evict_if_backlogged(sess: &Session, conn: &mut Connection, bound: usize, core: &mut RelayCore) {
    if sess.send_backlog_bytes(conn) > bound {
        conn.close(0x10, "session backlog exceeded");
        core.note_session_evicted();
    }
}

impl StackNode for RelayNode {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }

    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        for ev in events {
            match ev {
                StackEvent::Session(h, sev) => {
                    let uplink = self.links.classify(h);
                    match (uplink, sev) {
                        (Some(u), SessionEvent::Ready { .. }) => {
                            // A recovered uplink reclaims the tracks the
                            // policy homes on it (rebalancing).
                            let actions = self.core.on_uplink_up(u);
                            self.run_actions(ctx, actions);
                            // What an abandoned attempt had swallowed.
                            self.links[u].replay(ctx, &mut self.stack, |t| (t.clone(), None));
                        }
                        (Some(u), SessionEvent::SubscriptionObject { request_id, object }) => {
                            if let Some(track) = self.links[u].key_of(h, request_id).cloned() {
                                let actions = self.core.on_link_object(u, &track, object);
                                self.run_actions(ctx, actions);
                            }
                        }
                        (
                            Some(u),
                            SessionEvent::FetchObjects {
                                request_id,
                                objects,
                            },
                        ) => {
                            if let Some((track, start, end)) =
                                self.links[u].take_fetch(h, request_id)
                            {
                                // The answer covers only the range the
                                // fetch requested; waiters beyond it keep
                                // waiting on their re-issued wider fetch.
                                let actions = self
                                    .core
                                    .on_upstream_fetch_result_range(&track, objects, start, end);
                                self.run_actions(ctx, actions);
                            }
                        }
                        (Some(u), SessionEvent::FetchRejected { request_id, .. }) => {
                            if let Some((track, _, _)) = self.links[u].take_fetch(h, request_id) {
                                let actions = self.core.on_upstream_fetch_failed(&track);
                                self.run_actions(ctx, actions);
                            }
                        }
                        (None, SessionEvent::IncomingSubscribe { request_id, track }) => {
                            let actions = self.core.on_downstream_subscribe(h.0, request_id, track);
                            self.run_actions(ctx, actions);
                        }
                        (None, SessionEvent::IncomingFetch { request_id, kind }) => {
                            let actions = match kind {
                                // A standalone fetch names an explicit group
                                // range; honor it so a subset request can be
                                // served from (or coalesced into) a wider
                                // in-flight whole-track fetch. An end group
                                // at the varint ceiling is the wire clamp of
                                // "whole track" — widen it back to u64::MAX
                                // so it coalesces with joining fetches.
                                IncomingFetchKind::StandAlone {
                                    track,
                                    start_group,
                                    end_group,
                                } => {
                                    let end_group = if end_group >= moqdns_wire::varint::MAX_VARINT
                                    {
                                        u64::MAX
                                    } else {
                                        end_group
                                    };
                                    self.core.on_downstream_fetch(
                                        h.0,
                                        request_id,
                                        track,
                                        start_group,
                                        end_group,
                                    )
                                }
                                IncomingFetchKind::Joining { track, .. } => self
                                    .core
                                    .on_downstream_fetch(h.0, request_id, track, 0, u64::MAX),
                                IncomingFetchKind::Peer {
                                    track,
                                    start_group,
                                    end_group,
                                    hop_budget,
                                } => {
                                    // Same whole-track widening as above so
                                    // peer and local whole-track fetches
                                    // coalesce into one pending entry.
                                    let end_group = if end_group >= moqdns_wire::varint::MAX_VARINT
                                    {
                                        u64::MAX
                                    } else {
                                        end_group
                                    };
                                    self.core.on_peer_fetch(
                                        h.0,
                                        request_id,
                                        track,
                                        start_group,
                                        end_group,
                                        hop_budget,
                                    )
                                }
                            };
                            self.run_actions(ctx, actions);
                        }
                        (None, SessionEvent::PeerUnsubscribed { request_id }) => {
                            let actions = self.core.on_downstream_unsubscribe(h.0, request_id);
                            self.run_actions(ctx, actions);
                        }
                        _ => {}
                    }
                }
                StackEvent::Closed(h) => {
                    if let Some(u) = self.links.classify(h) {
                        // Forget the uplink's connection state — its queue
                        // too: the core may re-route a track onto another
                        // link — then let the core re-route its tracks and
                        // re-issue (or reject) the in-flight fetches
                        // stranded on it.
                        self.links[u].reset();
                        let actions = self.core.on_uplink_closed(u);
                        self.run_actions(ctx, actions);
                        // Keep probing until the uplink recovers. A fresh
                        // failure is a new episode: probe promptly at the
                        // base interval rather than inheriting an old
                        // episode's backoff.
                        self.probe_attempt = 0;
                        self.arm_probe(ctx);
                    } else {
                        let actions = self.core.on_session_closed(h.0);
                        self.run_actions(ctx, actions);
                    }
                }
                _ => {}
            }
        }
    }
}

impl Node for RelayNode {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, to_port: u16, payload: Payload) {
        if self.dead {
            return;
        }
        if to_port == MOQT_PORT {
            self.stack.on_datagram(ctx.now(), from, &payload);
            self.end_turn(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.dead {
            return;
        }
        if token == TOKEN_QUIC {
            self.stack.on_timer(ctx.now());
        } else if token == TOKEN_UPLINK_PROBE {
            self.probe_uplinks(ctx);
        }
        self.end_turn(ctx);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}
