//! A MoQT relay wired into the simulator (paper §3, §5.3, ablation A3).
//!
//! Downstream it is a MoQT server; upstream it is a MoQT client of one or
//! more parents (authoritative servers or other relays) **and**, when
//! federated, of its peer cores in other regions. All routing decisions
//! come from [`moqdns_moqt::relay::RelayCore`], which never inspects
//! object payloads. The upstream link plumbing (dialing, request ids,
//! redial, replay) lives in [`crate::links`]; the per-track link choice
//! comes from the core's [`Route`] plus its federation shard map, so the
//! same node serves chains, hash-sharded meshes, failover pairs and core
//! federations ([`RelayNode::peers`]); a fetch over a peer link carries
//! its hop budget on the wire. What the node does for its downstream
//! sessions (`Downstream`) the origin and the recursive resolver run too:
//! each is a relay with no links ([`crate::auth`], [`crate::recursive`]).

use crate::links::Links;
use crate::stack::{MoqtStack, StackEvent, StackNode, TOKEN_QUIC};
use crate::MOQT_PORT;
use moqdns_moqt::relay::{
    FederationConfig, RelayAction, RelayCore, RelayLimits, RelayStats, Route,
};
use moqdns_moqt::session::{IncomingFetchKind, Session, SessionEvent};
use moqdns_moqt::Reason;
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
    /// What the node does for its downstream sessions.
    downstream: Downstream,
    /// Taken down mid-run: ignore all further events.
    dead: bool,
}

impl RelayNode {
    /// Creates a single-parent relay forwarding to `parent` — the classic
    /// chain shape. The second argument is ignored: the relay holds each
    /// track's newest object, whatever a caller asks.
    pub fn new(parent: Addr, _cache_per_track: usize, seed: u64) -> RelayNode {
        RelayNode::with_policy(vec![parent], Route::Static, seed)
    }

    /// Creates a relay with `parents` as its ordered uplink set and
    /// `policy` choosing the parent per track.
    pub fn with_policy(parents: Vec<Addr>, policy: Route, seed: u64) -> RelayNode {
        let transport = TransportConfig::patient();
        let n = parents.len();
        RelayNode {
            stack: MoqtStack::server(transport, seed),
            core: RelayCore::with_policy(n, policy),
            links: Links::new(parents),
            probe_interval: Duration::from_secs(2),
            probe_armed: false,
            probe_attempt: 0,
            probe_seed: seed,
            downstream: Downstream::default(),
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
        self.downstream.max_session_backlog = bytes;
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

    /// Overrides the uplink recovery probe interval (builder style).
    ///
    /// Kept public for: `crates/core/tests/fetch_coalescing.rs`, whose relays
    /// probe a lost uplink every second.
    pub fn probe_interval(mut self, interval: Duration) -> RelayNode {
        self.probe_interval = interval;
        self
    }

    /// The route policy's label.
    pub fn policy_name(&self) -> &'static str {
        self.core.policy_name()
    }

    /// Relay effectiveness counters (ablation A3), with what only the node
    /// sees filled in: its sessions' counters, what was raised over them
    /// by [`Reason`], its endpoint's faults and its links' recoveries.
    pub fn stats(&self) -> RelayStats {
        RelayStats {
            dials: self.links.stats(),
            ..Downstream::stats(&self.stack, &self.core)
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
    ///
    /// Kept public for: `crates/core/tests/fetch_coalescing.rs`, which checks
    /// that concurrent fetches of one track wait on one upstream fetch.
    pub fn pending_fetch_count(&self) -> usize {
        self.core.pending_fetch_count()
    }

    /// Live sessions hosted by this relay (downstream + uplinks).
    pub fn session_count(&self) -> usize {
        self.stack.session_count()
    }

    /// Estimated bytes of session + connection state held right now, and
    /// of the core's tracks, pending fetches and budgets — the quantity
    /// the adversarial drills bound: evictions must actually reclaim what
    /// an attacker made the relay hold.
    pub fn state_size_estimate(&self) -> usize {
        self.stack.state_size_estimate() + self.core.state_size_estimate()
    }

    /// Takes the relay out of service: closes every connection (peers see
    /// a CONNECTION_CLOSE, not an idle timeout) and drops all state. Used
    /// by the failover experiments to kill a tier mid-run.
    pub fn shutdown(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.close_all(ctx, 0x0, "relay shutdown");
        self.dead = true;
    }

    /// Whether [`RelayNode::shutdown`] was called.
    ///
    /// Kept public for: `crates/core/tests/relay_tree.rs`, which checks
    /// that the failover drill's victim went dark.
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

    fn run_actions(&mut self, ctx: &mut Ctx<'_>, actions: Vec<RelayAction>) {
        for a in actions {
            match self.downstream.run(&mut self.stack, &mut self.core, a) {
                Some(RelayAction::SubscribeUpstream { track, link }) => {
                    self.links.subscribe(ctx, &mut self.stack, link, track);
                }
                Some(RelayAction::FetchUpstream {
                    track,
                    link,
                    start_group,
                    end_group,
                    hop_budget,
                }) => {
                    // A budgeted federation fetch when `hop_budget` is given.
                    let what = (track.clone(), start_group, end_group);
                    let (up, stack) = (&mut self.links[link], &mut self.stack);
                    let groups = (start_group, end_group);
                    if !up.fetch(ctx, stack, track.clone(), groups, hop_budget, what) {
                        // Could not even dial: fail the pending fetch so
                        // every coalesced waiter gets rejected.
                        let acts = self.core.on_upstream_fetch_failed(&track);
                        self.run_actions(ctx, acts);
                    }
                }
                Some(RelayAction::UnsubscribeUpstream { track, link }) => {
                    self.links[link].unsubscribe(&mut self.stack, &track);
                }
                _ => {}
            }
        }
    }
}

/// What a node publishing through a [`RelayCore`] does with the actions
/// that name a downstream session. Relay, origin and recursive (the last
/// two a core with no links) run this one piece: all evict a slow loris.
pub(crate) struct Downstream {
    /// Per-connection send backlog (estimated connection state bytes)
    /// past which a downstream session is evicted as a slow-loris: a
    /// subscriber that never drains its streams grows unacked state
    /// without bound otherwise.
    pub(crate) max_session_backlog: usize,
    /// Forward objects as unreliable datagrams instead of streams
    /// (ablation A2 only; the paper's design always uses streams, §4.1).
    pub(crate) use_datagrams: bool,
}

impl Default for Downstream {
    fn default() -> Downstream {
        Downstream {
            max_session_backlog: 1 << 20,
            use_datagrams: false,
        }
    }
}

impl Downstream {
    /// Runs `action` when it names a downstream session (one already gone
    /// is skipped); hands back one that names an upstream link.
    pub(crate) fn run(
        &self,
        stack: &mut MoqtStack,
        core: &mut RelayCore,
        action: RelayAction,
    ) -> Option<RelayAction> {
        let why = match action {
            RelayAction::AcceptDownstream {
                session,
                request_id,
                largest,
                track,
            } => {
                let (sess, conn) = stack.session_conn(ConnHandle(session))?;
                sess.share_subscribed_track(request_id, &track);
                sess.accept_subscribe(conn, request_id, largest);
                None
            }
            RelayAction::Forward {
                session,
                request_id,
                object,
            } => {
                let (sess, conn) = stack.session_conn(ConnHandle(session))?;
                if self.use_datagrams {
                    sess.publish_datagram(conn, request_id, object);
                } else {
                    sess.publish(conn, request_id, object);
                }
                self.evict_if_backlogged(sess, conn, core)
            }
            RelayAction::ServeFetch {
                session,
                request_id,
                largest,
                object,
            } => {
                let (sess, conn) = stack.session_conn(ConnHandle(session))?;
                sess.respond_fetch(conn, request_id, largest, object.into_iter().collect());
                self.evict_if_backlogged(sess, conn, core)
            }
            RelayAction::RejectFetch {
                session,
                request_id,
            } => {
                let (sess, conn) = stack.session_conn(ConnHandle(session))?;
                let why = Reason::UpstreamUnavailable;
                sess.reject_fetch(conn, request_id, 0x5, why.as_str());
                Some(why)
            }
            RelayAction::CloseSession { session } => {
                // Fetch-bomb eviction: the core already counted it; the
                // close lands as a StackEvent::Closed later in this turn,
                // which runs the normal session teardown.
                let (_, conn) = stack.session_conn(ConnHandle(session))?;
                let why = Reason::SessionEvicted;
                conn.close(0x10, why.as_str());
                Some(why)
            }
            upstream => return Some(upstream),
        };
        if let Some(why) = why {
            stack.count(why);
        }
        None
    }

    /// Slow-loris defense: a peer that never drains accumulates unacked
    /// stream state on our side and, while it withholds stream credit,
    /// streams waiting in the session (at most one window of them). Past
    /// the bound, evict instead of buffering. Checked after a forward and
    /// a fetch answer, the only paths where a slow peer grows our state,
    /// so idle sessions cost no sweep; a healthy reader's backlog stays
    /// near zero however long it lives. Returns the reason of an eviction,
    /// for the node to count once per connection: one turn may forward
    /// several objects to a session it has already closed.
    fn evict_if_backlogged(
        &self,
        sess: &Session,
        conn: &mut Connection,
        core: &mut RelayCore,
    ) -> Option<Reason> {
        if conn.is_closed() || sess.send_backlog_bytes(conn) <= self.max_session_backlog {
            return None;
        }
        let why = Reason::SessionBacklogExceeded;
        conn.close(0x10, why.as_str());
        core.note_session_evicted();
        Some(why)
    }

    /// A publishing node's counters: its core's, and what its sessions and
    /// its endpoint counted.
    pub(crate) fn stats(stack: &MoqtStack, core: &RelayCore) -> RelayStats {
        RelayStats {
            session: stack.session_stats_total(),
            reasons: stack.reason_counts(),
            faults: stack.endpoint.faults(),
            ..core.stats()
        }
    }
}

impl StackNode for RelayNode {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }

    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        for ev in events {
            let actions = match ev {
                StackEvent::Session(h, sev) => match (self.links.classify(h), sev) {
                    (Some(u), SessionEvent::Ready { .. }) => {
                        // A recovered uplink reclaims the tracks the policy
                        // homes on it (rebalancing).
                        let actions = self.core.on_uplink_up(u);
                        self.run_actions(ctx, actions);
                        // What an abandoned attempt had swallowed.
                        self.links[u].replay(ctx, &mut self.stack, |t| (t.clone(), None));
                        continue;
                    }
                    (Some(u), SessionEvent::SubscriptionObject { request_id, object }) => {
                        match self.links[u].key_of(h, request_id).cloned() {
                            Some(track) => self.core.on_link_object(u, &track, object),
                            None => continue,
                        }
                    }
                    (
                        Some(u),
                        SessionEvent::FetchObjects {
                            request_id,
                            objects,
                        },
                    ) => {
                        // The answer covers only the range the fetch
                        // requested; waiters beyond it keep waiting on
                        // their re-issued wider fetch.
                        match self.links[u].take_fetch(h, request_id) {
                            Some((track, start, end)) => (self.core)
                                .on_upstream_fetch_result_range(&track, objects, start, end),
                            None => continue,
                        }
                    }
                    (Some(u), SessionEvent::FetchRejected { request_id, .. }) => {
                        match self.links[u].take_fetch(h, request_id) {
                            Some((track, _, _)) => self.core.on_upstream_fetch_failed(&track),
                            None => continue,
                        }
                    }
                    (None, SessionEvent::IncomingSubscribe { request_id, track }) => {
                        self.core.on_downstream_subscribe(h.0, request_id, track)
                    }
                    // A standalone fetch keeps its group range (a subset
                    // request can then be served from, or coalesced into, a
                    // wider in-flight fetch) and hop budget; a joining one
                    // is for the whole track.
                    (None, SessionEvent::IncomingFetch { request_id, kind }) => match kind {
                        IncomingFetchKind::StandAlone {
                            track,
                            start_group: start,
                            end_group: end,
                            hop_budget,
                        } => (self.core).on_fetch(h.0, request_id, track, start, end, hop_budget),
                        IncomingFetchKind::Joining { track, .. } => {
                            (self.core).on_downstream_fetch(h.0, request_id, track, 0, u64::MAX)
                        }
                    },
                    (None, SessionEvent::PeerUnsubscribed { request_id }) => {
                        self.core.on_downstream_unsubscribe(h.0, request_id)
                    }
                    _ => continue,
                },
                StackEvent::Closed(h) => match self.links.classify(h) {
                    None => self.core.on_session_closed(h.0),
                    Some(u) => {
                        // Forget the uplink's connection state — its queue too:
                        // the core may re-route a track onto another link —
                        // then let the core re-route its tracks and re-issue (or
                        // reject) the in-flight fetches stranded on it.
                        self.links[u].reset();
                        let actions = self.core.on_uplink_closed(u);
                        self.run_actions(ctx, actions);
                        // Keep probing until the uplink recovers. A fresh
                        // failure is a new episode: probe promptly at the base
                        // interval rather than inheriting an old episode's
                        // backoff.
                        self.probe_attempt = 0;
                        self.arm_probe(ctx);
                        continue;
                    }
                },
                _ => continue,
            };
            self.run_actions(ctx, actions);
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

    fn on_flush(&mut self, ctx: &mut Ctx<'_>) {
        self.flush(ctx);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}
