//! The stub resolver (paper §4.1, §5.2).
//!
//! Either speaks traditional DNS-over-UDP to its recursive resolver
//! ([`StubMode::Classic`]) or DNS-over-MoQT ([`StubMode::Moqt`]): it
//! subscribes to every name it looks up and receives pushed updates
//! thereafter — "a bigger advantage can be achieved if the stub resolver
//! automatically receives updates for frequently used domains via MoQT. In
//! this case, the application does not have to make any lookup via the
//! network at all" (§5.2).
//!
//! Every lookup and every received update is recorded in [`Metrics`] for
//! the experiments; a [`TeardownPolicy`] governs how long subscriptions
//! are retained (§4.4).

use crate::mapping::{response_from_object, track_from_question, RequestFlags};
use crate::metrics::{AnswerSource, LookupSample, Metrics, UpdateSample};
use crate::stack::{MoqtStack, StackEvent, StackNode, TOKEN_QUIC};
use crate::teardown::{SubscriptionTracker, TeardownPolicy};
use crate::{DNS_PORT, MOQT_PORT};
use moqdns_dns::message::{Message, Question, Rcode};
use moqdns_dns::rr::Record;
use moqdns_dns::transport::{UdpAction, UdpExchange};
use moqdns_moqt::session::SessionEvent;
use moqdns_netsim::{Addr, Ctx, Node, Payload, SimTime};
use moqdns_quic::{ConnHandle, TransportConfig};
use moqdns_wire::VecMap;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Transport the stub uses toward its recursive resolver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StubMode {
    /// Traditional DNS over UDP.
    Classic,
    /// DNS over MoQT (subscribe + joining fetch).
    Moqt,
}

const K_UDP: u64 = 2 << 56;
const K_SWEEP: u64 = 4 << 56;
const K_REDIAL: u64 = 8 << 56;
const K_MASK: u64 = 0xFF << 56;

/// A pending classic exchange.
struct ClassicPending {
    exchange: UdpExchange,
    question: Question,
    started: SimTime,
}

/// A live MoQT subscription held by the stub.
struct StubSub {
    question: Question,
    /// Latest version received (stored for §4.4 reconnection fetches).
    last_group: u64,
}

/// The stub resolver node.
pub struct StubResolver {
    mode: StubMode,
    /// The recursive resolver's node address (port is derived per mode).
    server: Addr,
    stack: MoqtStack,
    conn: Option<ConnHandle>,
    /// Lookups queued while the MoQT session establishes.
    queued: Vec<(Question, SimTime)>,
    /// Classic in-flight exchanges keyed by transaction id.
    classic: BTreeMap<u16, ClassicPending>,
    next_id: u16,
    /// Our subscriptions by our subscribe request id. This table and the
    /// two below hold what this stub's own application asked for — a
    /// handful of entries on a device — so they are [`VecMap`]s: a
    /// one-entry `BTreeMap` is an eleven-slot node.
    subs: VecMap<u64, StubSub>,
    /// fetch request id -> (question, started).
    fetches: VecMap<u64, (Question, SimTime)>,
    /// Lookups of a name whose joining fetch was already in flight:
    /// (that fetch's request id, started). They share its answer.
    joined: Vec<(u64, SimTime)>,
    /// Latest answers per question (what the application would read).
    answers: VecMap<Question, Vec<Record>>,
    tracker: SubscriptionTracker<u64>,
    sweep_interval: Duration,
    /// Initial RTO for classic exchanges (raise on long-delay paths).
    udp_rto: Duration,
    /// When set, a lost MoQT connection re-dials this long after the
    /// close and re-subscribes everything that was live, instead of
    /// staying dark until the next application lookup. `None` (the
    /// default) keeps the historical lookup-driven-only reconnect.
    redial_delay: Option<Duration>,
    /// Questions to re-subscribe on the next redial (captured from the
    /// live subscriptions when the connection closed).
    redial_questions: BTreeSet<Question>,
    /// Times the stub re-dialed after a connection loss (only counted
    /// when [`StubResolver::redial_after`] is configured).
    pub redials: u64,
    /// Raw measurements.
    pub metrics: Metrics,
}

impl StubResolver {
    /// Creates a stub talking to `server` (a node address; ports derived).
    pub fn new(mode: StubMode, server: Addr, seed: u64) -> StubResolver {
        StubResolver::with_policy(mode, server, seed, TeardownPolicy::Never)
    }

    /// Creates a stub with an explicit subscription teardown policy.
    pub fn with_policy(
        mode: StubMode,
        server: Addr,
        seed: u64,
        policy: TeardownPolicy,
    ) -> StubResolver {
        let transport = TransportConfig::default()
            .idle_timeout(Duration::from_secs(3600))
            .keep_alive(Duration::from_secs(25));
        StubResolver::with_transport(mode, server, seed, policy, transport)
    }

    /// Creates a stub with an explicit QUIC transport config. The chaos
    /// drills use a short idle timeout so a SIGKILLed (silently dead)
    /// resolver is detected in seconds instead of the patient hour-long
    /// default, which only suits stable paths.
    pub fn with_transport(
        mode: StubMode,
        server: Addr,
        seed: u64,
        policy: TeardownPolicy,
        transport: TransportConfig,
    ) -> StubResolver {
        StubResolver {
            mode,
            server,
            stack: MoqtStack::client(transport, seed),
            conn: None,
            queued: Vec::new(),
            classic: BTreeMap::new(),
            next_id: 1,
            subs: VecMap::new(),
            fetches: VecMap::new(),
            joined: Vec::new(),
            answers: VecMap::new(),
            tracker: SubscriptionTracker::new(policy),
            sweep_interval: Duration::from_secs(60),
            udp_rto: Duration::from_secs(1),
            redial_delay: None,
            redial_questions: BTreeSet::new(),
            redials: 0,
            metrics: Metrics::default(),
        }
    }

    /// Makes the stub re-dial its resolver `delay` after a connection
    /// loss and re-subscribe everything that was live (retrying at that
    /// cadence until a session sticks). Pair with a short idle timeout
    /// via [`StubResolver::with_transport`] so a dead resolver is
    /// noticed fast — the crash/restart drills rely on both.
    pub fn redial_after(mut self, delay: Duration) -> StubResolver {
        self.redial_delay = Some(delay);
        self
    }

    /// Sets the classic retransmission timeout (deep-space paths).
    pub fn set_udp_rto(&mut self, rto: Duration) {
        self.udp_rto = rto;
    }

    /// Latest known answer for `question`, if any.
    pub fn answer(&self, question: &Question) -> Option<&[Record]> {
        self.answers.get(question).map(Vec::as_slice)
    }

    /// Number of live subscriptions (§5.1 state overhead).
    pub fn subscription_count(&self) -> usize {
        self.subs.len()
    }

    /// Estimated protocol state bytes (E9).
    pub fn state_size_estimate(&self) -> usize {
        self.stack.state_size_estimate() + self.subs.len() * 96
    }

    /// Experiment hook: simulates a device suspension (§4.4) — the QUIC
    /// connection is silently dropped so the next lookup reconnects (and,
    /// with a stored ticket, attempts 0-RTT).
    pub fn debug_drop_connection(&mut self) {
        if let Some(h) = self.conn.take() {
            self.stack.abandon(h);
        }
    }

    /// Experiment hook: forgets local subscription/answer state so the
    /// next lookup must go to the network again.
    pub fn debug_forget_subscriptions(&mut self) {
        self.subs.clear();
        self.answers.clear();
        self.fetches.clear();
        self.joined.clear();
    }

    /// Issues a lookup for `question`. Call via `Simulator::with_node`: a
    /// turn of its own, on the wire when it returns.
    pub fn lookup(&mut self, ctx: &mut Ctx<'_>, question: Question) {
        match self.mode {
            StubMode::Classic => self.lookup_classic(ctx, question),
            StubMode::Moqt => self.lookup_moqt(ctx, question),
        }
        self.end_turn(ctx);
    }

    fn lookup_classic(&mut self, ctx: &mut Ctx<'_>, question: Question) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let query = Message::query(id, question.clone());
        let mut exchange = UdpExchange::with_policy(query, self.udp_rto, 3);
        if let UdpAction::Transmit { datagram, timeout } = exchange.start() {
            self.metrics.classic_queries_sent += 1;
            ctx.send(DNS_PORT, Addr::new(self.server.node, DNS_PORT), datagram);
            ctx.set_timer(timeout, K_UDP | id as u64);
        }
        self.classic.insert(
            id,
            ClassicPending {
                exchange,
                question,
                started: ctx.now(),
            },
        );
    }

    fn lookup_moqt(&mut self, ctx: &mut Ctx<'_>, question: Question) {
        // Already subscribed? The answer is local — zero network lookups,
        // the §5.2 endgame.
        let held = self
            .subs
            .iter()
            .find(|(_, s)| s.question == question)
            .map(|(&id, s)| (id, s.last_group));
        if let Some((sub_id, last_group)) = held {
            self.tracker.touch(&sub_id, ctx.now());
            if self.answers.contains_key(&question) {
                self.metrics.lookups.push(LookupSample {
                    question,
                    started: ctx.now(),
                    finished: ctx.now(),
                    source: AnswerSource::Cache,
                    ok: true,
                    version: Some(last_group),
                });
                return;
            }
            // Subscribed but not answered yet: the first lookup's joining
            // fetch is still in flight. Wait on it — a second SUBSCRIBE of
            // the track would have every later push delivered twice.
            if let Some((&fetch_id, _)) = self.fetches.iter().find(|(_, (q, _))| *q == question) {
                self.joined.push((fetch_id, ctx.now()));
                return;
            }
            // Nothing in flight (that fetch was refused): fetch again on
            // the subscription we hold.
            if self
                .conn
                .is_some_and(|h| self.fetch_latest(h, question.clone(), ctx.now()))
            {
                return;
            }
        }
        let started = ctx.now();
        if self.conn.is_none() || self.stack.session(self.conn.unwrap()).is_none() {
            let peer = Addr::new(self.server.node, MOQT_PORT);
            self.conn = self.stack.connect(ctx.now(), peer, true);
        }
        let Some(h) = self.conn else {
            // Connect failed: record the lookup as failed instead of
            // leaving it silently unaccounted.
            self.metrics.lookups.push(LookupSample {
                question,
                started,
                finished: ctx.now(),
                source: AnswerSource::Moqt,
                ok: false,
                version: None,
            });
            return;
        };
        // Always safe to issue immediately: the session holds the request
        // until it knows its version — no time at all with a ticket from a
        // versioned-token peer, when it rides the 0-RTT flight (§5.2).
        self.issue_subscribe(ctx, h, question, started);
    }

    fn issue_subscribe(
        &mut self,
        ctx: &mut Ctx<'_>,
        h: ConnHandle,
        question: Question,
        started: SimTime,
    ) {
        let track =
            track_from_question(&question, RequestFlags::recursive()).expect("valid dns track");
        let Some((session, conn)) = self.stack.session_conn(h) else {
            self.queued.push((question, started));
            return;
        };
        let (sub_id, fetch_id) = session.subscribe_with_joining_fetch(conn, track, 1);
        self.metrics.subscribes_sent += 1;
        self.metrics.fetches_sent += 1;
        self.subs.insert(
            sub_id,
            StubSub {
                question: question.clone(),
                last_group: 0,
            },
        );
        self.tracker.insert(sub_id, ctx.now());
        self.fetches.insert(fetch_id, (question, started));
    }

    /// Saturation hook: issues a standalone MoQT FETCH for `question`,
    /// costing one full network round-trip even when a live subscription
    /// already holds the answer locally (where [`StubResolver::lookup`]
    /// short-circuits, the §5.2 endgame). The reply lands in the ordinary
    /// lookup metrics as an [`AnswerSource::Moqt`] sample, so rate and
    /// latency accounting need no separate plumbing. Returns `false`
    /// (probe not issued) while the connection or session is still
    /// coming up.
    pub fn probe(&mut self, ctx: &mut Ctx<'_>, question: Question) -> bool {
        let issued = self
            .conn
            .is_some_and(|h| self.fetch_latest(h, question, ctx.now()));
        if issued {
            self.end_turn(ctx);
        }
        issued
    }

    /// Issues a standalone FETCH for the newest object of `question`'s
    /// track on `h`; false when the session is gone.
    fn fetch_latest(&mut self, h: ConnHandle, question: Question, started: SimTime) -> bool {
        let track =
            track_from_question(&question, RequestFlags::recursive()).expect("valid dns track");
        // Fetch from the newest group this stub has seen, so the reply is
        // the latest object — never an answer-regressing old version.
        let from = self
            .subs
            .values()
            .find(|s| s.question == question)
            .map(|s| s.last_group)
            .unwrap_or(0);
        let Some((session, conn)) = self.stack.session_conn(h) else {
            return false;
        };
        let fetch_id = session.fetch(conn, track, from, u64::MAX);
        self.metrics.fetches_sent += 1;
        self.fetches.insert(fetch_id, (question, started));
        true
    }

    /// Records the outcome of fetch `fetch_id`: one sample for the lookup
    /// that issued it and one for each lookup that joined it meanwhile.
    fn record_fetch_outcome(
        &mut self,
        fetch_id: u64,
        (question, started): (Question, SimTime),
        finished: SimTime,
        ok: bool,
        version: Option<u64>,
    ) {
        let first = LookupSample {
            question,
            started,
            finished,
            source: AnswerSource::Moqt,
            ok,
            version,
        };
        let lookups = &mut self.metrics.lookups;
        self.joined.retain(|&(id, started)| {
            if id == fetch_id {
                lookups.push(LookupSample {
                    started,
                    ..first.clone()
                });
            }
            id != fetch_id
        });
        // Pushed last so that the usual case, nobody joined, moves the
        // question instead of cloning it.
        lookups.push(first);
    }
}

impl StackNode for StubResolver {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }

    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        for ev in events {
            match ev {
                StackEvent::Session(_, SessionEvent::Ready { .. }) => {
                    let queued = std::mem::take(&mut self.queued);
                    if let Some(h) = self.conn {
                        for (q, started) in queued {
                            self.issue_subscribe(ctx, h, q, started);
                        }
                    }
                }
                StackEvent::Session(
                    _,
                    SessionEvent::FetchObjects {
                        request_id,
                        objects,
                    },
                ) => {
                    if let Some(lookup) = self.fetches.remove(&request_id) {
                        let question = &lookup.0;
                        let decoded = objects
                            .first()
                            .and_then(|o| Some((o.group_id, response_from_object(o).ok()?)));
                        if let Some((group, msg)) = &decoded {
                            // A fetch overtaken by a newer push must not regress it.
                            let sub = self.subs.values_mut().find(|s| s.question == *question);
                            if sub.as_ref().is_some_and(|s| *group < s.last_group) {
                                self.metrics.stale_objects_dropped += 1;
                            } else {
                                if let Some(s) = sub {
                                    s.last_group = *group;
                                }
                                self.answers.insert(question.clone(), msg.answers.clone());
                            }
                        }
                        let ok =
                            matches!(&decoded, Some((_, m)) if m.header.rcode == Rcode::NoError);
                        let version = decoded.map(|(group, _)| group);
                        self.record_fetch_outcome(request_id, lookup, ctx.now(), ok, version);
                    }
                }
                StackEvent::Session(_, SessionEvent::FetchRejected { request_id, .. }) => {
                    if let Some(lookup) = self.fetches.remove(&request_id) {
                        self.record_fetch_outcome(request_id, lookup, ctx.now(), false, None);
                    }
                }
                StackEvent::Session(_, SessionEvent::SubscribeRejected { request_id, .. }) => {
                    // §4.5: the recursive cannot provide updates; the fetch
                    // still answers the lookup.
                    self.subs.remove(&request_id);
                    self.tracker.remove(&request_id);
                }
                StackEvent::Session(_, SessionEvent::SubscriptionObject { request_id, object }) => {
                    if let Some(sub) = self.subs.get_mut(&request_id) {
                        let question = sub.question.clone();
                        // Each push rides its own uni stream: a retransmitted
                        // one can arrive after its successor and must lose.
                        if object.group_id > sub.last_group {
                            sub.last_group = object.group_id;
                            if let Ok(msg) = response_from_object(&object) {
                                self.answers.insert(question.clone(), msg.answers.clone());
                            }
                        } else {
                            self.metrics.stale_objects_dropped += 1;
                        }
                        self.metrics.objects_received += 1;
                        self.metrics.updates.push(UpdateSample {
                            question,
                            version: object.group_id,
                            received: ctx.now(),
                        });
                    }
                }
                StackEvent::Session(_, SessionEvent::SubscriptionEnded { request_id, .. }) => {
                    self.subs.remove(&request_id);
                    self.tracker.remove(&request_id);
                }
                StackEvent::Closed(h) => {
                    // §4.4: after a connection loss, subscriptions are gone;
                    // the next lookup re-establishes with fetch-from-last. A
                    // stale handle closing (an abandoned earlier attempt)
                    // must not clobber the live connection's state.
                    if self.conn != Some(h) {
                        continue;
                    }
                    self.conn = None;
                    if let Some(delay) = self.redial_delay {
                        for s in self.subs.values() {
                            self.redial_questions.insert(s.question.clone());
                        }
                        ctx.set_timer(delay, K_REDIAL);
                    }
                    self.subs.clear();
                }
                _ => {}
            }
        }
    }
}

impl StubResolver {
    fn on_udp_timer(&mut self, ctx: &mut Ctx<'_>, id: u16) {
        let Some(p) = self.classic.get_mut(&id) else {
            return;
        };
        match p.exchange.on_timeout() {
            UdpAction::Transmit { datagram, timeout } => {
                self.metrics.classic_queries_sent += 1;
                ctx.send(DNS_PORT, Addr::new(self.server.node, DNS_PORT), datagram);
                ctx.set_timer(timeout, K_UDP | id as u64);
            }
            UdpAction::Failed => {
                let p = self.classic.remove(&id).unwrap();
                self.metrics.lookups.push(LookupSample {
                    question: p.question,
                    started: p.started,
                    finished: ctx.now(),
                    source: AnswerSource::ClassicUdp,
                    ok: false,
                    version: None,
                });
            }
            _ => {}
        }
    }

    fn on_udp_response(&mut self, ctx: &mut Ctx<'_>, data: &[u8]) {
        let Ok(msg) = Message::decode(data) else {
            return;
        };
        let id = msg.header.id;
        let Some(p) = self.classic.get_mut(&id) else {
            return;
        };
        if let UdpAction::Complete(resp) = p.exchange.on_datagram(data) {
            let p = self.classic.remove(&id).unwrap();
            self.metrics.classic_responses_received += 1;
            self.answers
                .insert(p.question.clone(), resp.answers.clone());
            self.metrics.lookups.push(LookupSample {
                question: p.question,
                started: p.started,
                finished: ctx.now(),
                source: AnswerSource::ClassicUdp,
                ok: resp.header.rcode == Rcode::NoError,
                version: None,
            });
        }
    }

    fn on_sweep(&mut self, ctx: &mut Ctx<'_>) {
        let victims = self.tracker.sweep(ctx.now());
        if let Some(h) = self.conn {
            for sub_id in victims {
                if self.subs.remove(&sub_id).is_some() {
                    if let Some((session, conn)) = self.stack.session_conn(h) {
                        session.unsubscribe(conn, sub_id);
                    }
                }
            }
        }
        if self.tracker.policy() != TeardownPolicy::Never {
            ctx.set_timer(self.sweep_interval, K_SWEEP);
        }
    }

    fn on_redial(&mut self, ctx: &mut Ctx<'_>) {
        let Some(delay) = self.redial_delay else {
            return;
        };
        if let Some(h) = self.conn.take() {
            if self.stack.session(h).is_some() {
                self.conn = Some(h);
                return; // already reconnected (e.g. a fresh lookup)
            }
            // A dead handle with no session: drop it silently so its
            // handshake stops retransmitting into the void.
            self.stack.abandon(h);
        }
        self.redials += 1;
        let peer = Addr::new(self.server.node, MOQT_PORT);
        self.conn = self.stack.connect(ctx.now(), peer, true);
        let Some(h) = self.conn else {
            ctx.set_timer(delay, K_REDIAL);
            return;
        };
        // Re-subscribe with joining fetches: each brings the track
        // current immediately, so even a round published while we were
        // dark is recovered without waiting for the next push. If this
        // dial also stalls (resolver still down), its own idle timeout
        // raises `Closed`, which recaptures the questions and re-arms.
        let questions: Vec<Question> = std::mem::take(&mut self.redial_questions)
            .into_iter()
            .collect();
        let started = ctx.now();
        for q in questions {
            self.issue_subscribe(ctx, h, q, started);
        }
    }

    /// Questions of active subscriptions.
    pub fn subscribed_questions(&self) -> Vec<Question> {
        self.subs.values().map(|s| s.question.clone()).collect()
    }
}

impl Node for StubResolver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.tracker.policy() != TeardownPolicy::Never {
            ctx.set_timer(self.sweep_interval, K_SWEEP);
        }
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, to_port: u16, payload: Payload) {
        match to_port {
            DNS_PORT => self.on_udp_response(ctx, &payload),
            MOQT_PORT => self.stack.on_datagram(ctx.now(), from, &payload),
            _ => {}
        }
        self.end_turn(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token & K_MASK {
            TOKEN_QUIC => self.stack.on_timer(ctx.now()),
            K_UDP => self.on_udp_timer(ctx, (token & 0xFFFF) as u16),
            K_SWEEP => self.on_sweep(ctx),
            K_REDIAL => self.on_redial(ctx),
            _ => {}
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
