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

use crate::links::{Link, Newest, Subscribed};
use crate::mapping::{response_from_object, track_from_question, RequestFlags};
use crate::metrics::{AnswerSource, LookupSample, Metrics, UpdateSample};
use crate::stack::{MoqtStack, StackEvent, StackNode, TOKEN_QUIC};
use crate::teardown::{SubscriptionTracker, TeardownPolicy};
use crate::{DNS_PORT, MOQT_PORT};
use moqdns_dns::message::{Message, Question, Rcode};
use moqdns_dns::rr::Record;
use moqdns_dns::transport::{UdpAction, UdpExchange};
use moqdns_moqt::session::SessionEvent;
use moqdns_moqt::track::FullTrackName;
use moqdns_netsim::{Addr, Ctx, Node, Payload, SimTime};
use moqdns_quic::TransportConfig;
use moqdns_wire::VecMap;
use std::any::Any;
use std::collections::BTreeMap;
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

/// What the application would read for a question.
#[derive(Default)]
struct Answer {
    /// The version the subscription held now has delivered (stored for
    /// §4.4 reconnection fetches). A new subscription starts from nothing
    /// — a restarted resolver may number from 1 again — and a classic
    /// answer has none.
    newest: Newest,
    records: Vec<Record>,
}

/// The track a stub asks its recursive resolver for `question` on.
fn track_of(question: &Question) -> FullTrackName {
    track_from_question(question, RequestFlags::recursive()).expect("valid dns track")
}

/// The stub resolver node.
pub struct StubResolver {
    mode: StubMode,
    /// The recursive resolver's node address (port is derived per mode).
    server: Addr,
    stack: MoqtStack,
    /// The link to the resolver: our subscriptions by question, and each
    /// fetch in flight with the (question, started) of the lookup that
    /// issued it.
    link: Link<Question, (Question, SimTime)>,
    /// Classic in-flight exchanges keyed by transaction id.
    classic: BTreeMap<u16, ClassicPending>,
    next_id: u16,
    /// Lookups waiting for the next answer to their question — another
    /// lookup's fetch, or the redial's: (question, started).
    joined: Vec<(Question, SimTime)>,
    /// Latest answers per question. Like the link's tables it holds what
    /// this stub's own application asked for — a handful of entries on a
    /// device — so it is a [`VecMap`]: a one-entry `BTreeMap` is an
    /// eleven-slot node.
    answers: VecMap<Question, Answer>,
    tracker: SubscriptionTracker<u64>,
    sweep_interval: Duration,
    /// Initial RTO for classic exchanges (raise on long-delay paths).
    udp_rto: Duration,
    /// When set, a lost MoQT connection re-dials this long after the
    /// close and re-subscribes everything that was live, instead of
    /// staying dark until the next application lookup. `None` (the
    /// default) keeps the historical lookup-driven-only reconnect.
    redial_delay: Option<Duration>,
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
        let transport = TransportConfig::patient();
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
            link: Link::new(server, true),
            classic: BTreeMap::new(),
            next_id: 1,
            joined: Vec::new(),
            answers: VecMap::new(),
            tracker: SubscriptionTracker::new(policy),
            sweep_interval: Duration::from_secs(60),
            udp_rto: Duration::from_secs(1),
            redial_delay: None,
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

    /// Times the stub re-dialed after a connection loss (only counted
    /// when [`StubResolver::redial_after`] is configured).
    pub fn redials(&self) -> u64 {
        self.link.stats().redials
    }

    /// Latest known answer for `question`, if any.
    pub fn answer(&self, question: &Question) -> Option<&[Record]> {
        self.answers.get(question).map(|a| a.records.as_slice())
    }

    /// Number of live subscriptions (§5.1 state overhead).
    pub fn subscription_count(&self) -> usize {
        self.link.sub_count()
    }

    /// Estimated protocol state bytes (E9).
    pub fn state_size_estimate(&self) -> usize {
        self.stack.state_size_estimate() + self.link.sub_count() * 96
    }

    /// Experiment hook: simulates a device suspension (§4.4) — the QUIC
    /// connection and what rode on it are silently dropped so the next
    /// lookup reconnects (and, with a stored ticket, attempts 0-RTT). A
    /// lookup still in flight goes unrecorded: call this between lookups.
    pub fn debug_drop_connection(&mut self) {
        self.link.abandon(&mut self.stack);
    }

    /// Experiment hook: forgets local subscription/answer state so the
    /// next lookup must go to the network again.
    pub fn debug_forget_subscriptions(&mut self) {
        self.link.reset();
        self.answers.clear();
        self.joined.clear();
    }

    /// Issues a lookup for `question`. Call via `with_node`: an instant of
    /// its own, on the wire when it returns.
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
            self.metrics.counts.classic_queries_sent += 1;
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
        let started = ctx.now();
        // Already subscribed? The answer is local — zero network lookups,
        // the §5.2 endgame.
        if let Some(sub_id) = self.link.holds(&question) {
            self.tracker.touch(&sub_id, started);
            if let Some(answer) = self.answers.get(&question) {
                self.metrics.lookups.push(LookupSample {
                    version: answer.newest.version(),
                    question,
                    started,
                    finished: started,
                    source: AnswerSource::Cache,
                    ok: true,
                });
                return;
            }
            // Subscribed but not answered yet: the first lookup's joining
            // fetch is still in flight. Wait on it — a second SUBSCRIBE of
            // the track would have every later push delivered twice.
            if self.link.fetching(|(q, _)| *q == question).is_some() {
                self.joined.push((question, started));
                return;
            }
            // Nothing in flight (that fetch was refused): fetch again on
            // the subscription we hold.
            if self.fetch_latest(ctx, question.clone(), started) {
                return;
            }
        }
        // Always safe to issue immediately: the session holds the request
        // until it knows its version — no time at all with a ticket from a
        // versioned-token peer, when it rides the 0-RTT flight (§5.2).
        let (track, joining) = Self::joining(&mut self.answers, &question, started);
        match self
            .link
            .subscribe(ctx, &mut self.stack, &question, track, joining)
        {
            Subscribed::Issued(sub_id) => {
                self.metrics.counts.subscribes_sent += 1;
                self.metrics.counts.fetches_sent += 1;
                self.tracker.insert(sub_id, started);
            }
            // Connect failed: record the lookup as failed instead of
            // leaving it silently unaccounted.
            _ => self.metrics.lookups.push(LookupSample {
                question,
                started,
                finished: ctx.now(),
                source: AnswerSource::Moqt,
                ok: false,
                version: None,
            }),
        }
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
        let issued = self.fetch_latest(ctx, question, ctx.now());
        if issued {
            self.end_turn(ctx);
        }
        issued
    }

    /// Issues a standalone FETCH for the newest object of `question`'s
    /// track; false when no session is up (a probe never dials).
    fn fetch_latest(&mut self, ctx: &mut Ctx<'_>, question: Question, started: SimTime) -> bool {
        if !self.link.has_session(&self.stack) {
            return false;
        }
        // Fetch from the newest group this stub has seen, so the reply is
        // the latest object — never an answer-regressing old version.
        let held = self.answers.get(&question);
        let from = held.and_then(|a| a.newest.version()).unwrap_or(0);
        let (track, groups) = (track_of(&question), (from, u64::MAX));
        let what = (question, started);
        let issued = self
            .link
            .fetch(ctx, &mut self.stack, track, groups, None, what);
        self.metrics.counts.fetches_sent += u64::from(issued);
        issued
    }

    /// What a fresh subscription to `question` asks for: its track and
    /// what the joining fetch resolves to. Whatever that fetch brings is
    /// the subscription's first version, so the held one is forgotten.
    fn joining(
        answers: &mut VecMap<Question, Answer>,
        question: &Question,
        started: SimTime,
    ) -> (FullTrackName, Option<(Question, SimTime)>) {
        if let Some(answer) = answers.get_mut(question) {
            answer.newest = Newest::default();
        }
        (track_of(question), Some((question.clone(), started)))
    }

    /// The held answer to `question`, empty and versionless if there was
    /// none.
    fn answer_mut(&mut self, question: &Question) -> &mut Answer {
        if !self.answers.contains_key(question) {
            self.answers.insert(question.clone(), Answer::default());
        }
        self.answers.get_mut(question).expect("just inserted")
    }

    /// Records the outcome of a fetch: one sample for the lookup that
    /// issued it and one for each lookup waiting on its question.
    fn record_fetch_outcome(
        &mut self,
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
        self.joined.retain(|(question, started)| {
            if *question == first.question {
                lookups.push(LookupSample {
                    started: *started,
                    ..first.clone()
                });
            }
            *question != first.question
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
                StackEvent::Session(
                    h,
                    SessionEvent::FetchObjects {
                        request_id,
                        objects,
                    },
                ) => {
                    if let Some(lookup) = self.link.take_fetch(h, request_id) {
                        let decoded = objects
                            .first()
                            .and_then(|o| Some((o.group_id, response_from_object(o).ok()?)));
                        if let Some((group, msg)) = &decoded {
                            let answer = self.answer_mut(&lookup.0);
                            if answer.newest.admit_fetch(*group) {
                                answer.records = msg.answers.clone();
                            } else {
                                self.metrics.counts.stale_objects_dropped += 1;
                            }
                        }
                        let ok =
                            matches!(&decoded, Some((_, m)) if m.header.rcode == Rcode::NoError);
                        let version = decoded.map(|(group, _)| group);
                        self.record_fetch_outcome(lookup, ctx.now(), ok, version);
                    }
                }
                StackEvent::Session(h, SessionEvent::FetchRejected { request_id, .. }) => {
                    if let Some(lookup) = self.link.take_fetch(h, request_id) {
                        self.record_fetch_outcome(lookup, ctx.now(), false, None);
                    }
                }
                // §4.5: the recursive cannot provide updates (the fetch
                // still answers the lookup) — or it ended the subscription.
                StackEvent::Session(
                    h,
                    SessionEvent::SubscribeRejected { request_id, .. }
                    | SessionEvent::SubscriptionEnded { request_id, .. },
                ) => {
                    self.link.forget(h, request_id);
                    self.tracker.remove(&request_id);
                }
                StackEvent::Session(h, SessionEvent::SubscriptionObject { request_id, object }) => {
                    if let Some(question) = self.link.key_of(h, request_id).cloned() {
                        if let Ok(msg) = response_from_object(&object) {
                            let answer = self.answer_mut(&question);
                            if answer.newest.admit_push(object.group_id) {
                                answer.records = msg.answers;
                            } else {
                                self.metrics.counts.stale_objects_dropped += 1;
                            }
                        }
                        self.metrics.counts.objects_received += 1;
                        self.metrics.updates.push(UpdateSample {
                            question,
                            version: object.group_id,
                            received: ctx.now(),
                        });
                    }
                }
                // §4.4: after a connection loss, subscriptions are gone;
                // the next lookup re-establishes with fetch-from-last — or
                // the redial does, and a lookup in flight rides it.
                StackEvent::Closed(h) if self.link.owns(h) => {
                    let lost = self.link.on_closed();
                    let redials = self.redial_delay.is_some();
                    for lookup in lost.fetches {
                        if redials && lost.held.contains(&lookup.0) {
                            self.joined.push(lookup);
                        } else {
                            self.record_fetch_outcome(lookup, ctx.now(), false, None);
                        }
                    }
                    if let Some(delay) = self.redial_delay {
                        self.link.queue(lost.held);
                        ctx.set_timer(delay, K_REDIAL);
                    }
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
                self.metrics.counts.classic_queries_sent += 1;
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
            // A server that did not recurse (RA=0) and does not hold the
            // zone (AA=0) answers with a referral at best, which a stub
            // does not follow (RFC 1034 §5.3.1): nothing was resolved.
            let h = &resp.header;
            let resolved = h.ra || h.aa || !resp.answers.is_empty();
            let ok = resolved && h.rcode == Rcode::NoError;
            if resolved {
                self.answer_mut(&p.question).records = resp.answers;
            }
            self.metrics.lookups.push(LookupSample {
                question: p.question,
                started: p.started,
                finished: ctx.now(),
                source: AnswerSource::ClassicUdp,
                ok,
                version: None,
            });
        }
    }

    fn on_sweep(&mut self, ctx: &mut Ctx<'_>) {
        for sub_id in self.tracker.sweep(ctx.now()) {
            self.link.unsubscribe_id(&mut self.stack, sub_id);
        }
        if self.tracker.policy() != TeardownPolicy::Never {
            ctx.set_timer(self.sweep_interval, K_SWEEP);
        }
    }

    fn on_redial(&mut self, ctx: &mut Ctx<'_>) {
        let Some(delay) = self.redial_delay else {
            return;
        };
        // Already reconnecting (e.g. a fresh lookup): the replay rides it.
        if !self.link.has_session(&self.stack) {
            let (dialed, lost) = self.link.redial(ctx, &mut self.stack);
            self.joined.extend(lost);
            if !dialed {
                ctx.set_timer(delay, K_REDIAL);
                return;
            }
        }
        // Re-subscribe with joining fetches: each brings the track
        // current immediately, so even a round published while we were
        // dark is recovered without waiting for the next push. If this
        // dial also stalls (resolver still down), its own idle timeout
        // raises `Closed`, which hands the questions back and re-arms.
        let started = ctx.now();
        let answers = &mut self.answers;
        let request = |q: &Question| Self::joining(answers, q, started);
        let issued = self.link.replay(ctx, &mut self.stack, request);
        self.metrics.counts.subscribes_sent += issued.len() as u64;
        self.metrics.counts.fetches_sent += issued.len() as u64;
        for sub_id in issued {
            self.tracker.insert(sub_id, started);
        }
    }

    /// Questions of active subscriptions.
    pub fn subscribed_questions(&self) -> Vec<Question> {
        self.link.held().cloned().collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use moqdns_dns::rdata::RData;
    use moqdns_dns::rr::RecordType;
    use moqdns_netsim::{LinkConfig, Simulator};
    use std::net::Ipv4Addr;

    /// A classic server that holds no zone. Recursing (RA=1), it answers
    /// with an address; not recursing, with a referral to the zone's
    /// name server: no answer, RA=0 and AA=0.
    struct ClassicServer {
        recurses: bool,
        queries: Vec<Message>,
    }

    impl Node for ClassicServer {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, _to: u16, data: Payload) {
            let query = Message::decode(&data).expect("a query");
            self.queries.push(query.clone());
            let mut reply = Message::response(query);
            reply.header.ra = self.recurses;
            if self.recurses {
                let a = RData::A(Ipv4Addr::LOCALHOST);
                let www = "www.example.com".parse().unwrap();
                reply.answers.push(Record::new(www, 300, a));
            } else {
                let ns = RData::NS("ns1.example.com".parse().unwrap());
                let zone = "example.com".parse().unwrap();
                reply.authorities.push(Record::new(zone, 300, ns));
            }
            ctx.send(DNS_PORT, from, reply.encode());
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any_ref(&self) -> &dyn Any {
            self
        }
    }

    /// A classic stub asks with RD=1 and CD=0: it wants recursion, and
    /// leaves DNSSEC checks to its resolver. A referral back is no answer:
    /// the lookup fails and the stub holds nothing for the name. The same
    /// lookup answered by a server that recursed succeeds.
    #[test]
    fn a_classic_referral_is_no_answer() {
        let question = Question::new("www.example.com".parse().unwrap(), RecordType::A);
        for recurses in [false, true] {
            let mut sim = Simulator::new(1);
            sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(10)));
            let server = ClassicServer {
                recurses,
                queries: Vec::new(),
            };
            let server = sim.add_node("server", Box::new(server));
            let stub = StubResolver::new(StubMode::Classic, Addr::new(server, 0), 1);
            let stub = sim.add_node("stub", Box::new(stub));
            sim.with_node::<StubResolver, _>(stub, |s, ctx| s.lookup(ctx, question.clone()));
            sim.run_for(Duration::from_secs(1));

            let [query] = &sim.node_ref::<ClassicServer>(server).queries[..] else {
                panic!("one query");
            };
            assert_eq!((query.header.rd, query.header.cd), (true, false));
            let stub = sim.node_ref::<StubResolver>(stub);
            let [lookup] = &stub.metrics.lookups[..] else {
                panic!("one lookup: {:?}", stub.metrics.lookups);
            };
            assert_eq!(lookup.ok, recurses, "RA={recurses}");
            assert_eq!(stub.answer(&question).is_some(), recurses, "RA={recurses}");
        }
    }
}
