//! The forwarder (paper §5).
//!
//! "The forwarder only forwards DNS requests to recursive resolvers using
//! MoQT. … the forwarder can provide DNS over MoQT functionality directly
//! at the client when being operated on the same device, thereby also
//! enabling backwards compatibility with traditional DNS stub resolvers."
//!
//! Front: classic DNS-over-UDP on port 53. Back: DNS-over-MoQT to the
//! recursive resolver, with subscriptions retained so repeated queries for
//! the same name are answered locally from pushed state.
//!
//! Header-flag handling (RFC 1035 §4.1.1): the client's OPCODE, RD and CD
//! bits are propagated into the upstream track (they are part of the Fig 3
//! namespace byte, so queries differing in RD land on different tracks),
//! and responses echo the client's RD with RA set — the forwarder's
//! upstream is a recursive resolver, so recursion *is* available.

use crate::mapping::{response_from_object, track_from_question, RequestFlags};
use crate::metrics::{AnswerSource, LookupSample, Metrics, UpdateSample};
use crate::stack::{MoqtStack, StackEvent, StackNode, TOKEN_QUIC};
use crate::{DNS_PORT, MOQT_PORT};
use moqdns_dns::message::Opcode;
use moqdns_dns::message::{Message, Question, Rcode};
use moqdns_moqt::session::SessionEvent;
use moqdns_netsim::{Addr, Ctx, Node, Payload, SimTime};
use moqdns_quic::{ConnHandle, TransportConfig};
use std::any::Any;
use std::collections::BTreeMap;
use std::time::Duration;

/// A classic client waiting for an answer.
struct ClientWaiter {
    from: Addr,
    query_id: u16,
    started: SimTime,
}

/// Key of forwarder-side track state: the question plus the header flags
/// that participate in the Fig 3 mapping.
type TrackKey = (Question, RequestFlags);

/// Per-track forwarder state.
#[derive(Default)]
struct TrackState {
    /// Latest pushed/fetched response (id canonicalized to 0).
    latest: Option<Message>,
    /// Latest version (group id).
    version: u64,
    /// Whether a subscription is live for this question.
    live: bool,
    /// Waiters to answer once the first response arrives.
    waiters: Vec<ClientWaiter>,
}

impl TrackState {
    /// Holds `response` as the track's answer if `version` is newer than
    /// what is held. Every object rides its own uni stream: a
    /// retransmitted one can arrive after its successor and must lose.
    fn apply(&mut self, version: u64, response: Message) -> bool {
        let newer = self.latest.is_none() || version > self.version;
        if newer {
            self.latest = Some(response);
            self.version = version;
        }
        newer
    }
}

/// The forwarder node.
pub struct Forwarder {
    /// Recursive resolver node address.
    upstream: Addr,
    stack: MoqtStack,
    conn: Option<ConnHandle>,
    /// (question, flags) -> state.
    tracks: BTreeMap<TrackKey, TrackState>,
    /// Our subscribe request id -> track key.
    subs: BTreeMap<u64, TrackKey>,
    /// Our fetch request id -> track key.
    fetches: BTreeMap<u64, TrackKey>,
    /// Lookups queued until the session is ready.
    queued: Vec<TrackKey>,
    /// Raw measurements.
    pub metrics: Metrics,
}

impl Forwarder {
    /// Creates a forwarder using the recursive resolver at `upstream`.
    pub fn new(upstream: Addr, seed: u64) -> Forwarder {
        let transport = TransportConfig::default()
            .idle_timeout(Duration::from_secs(3600))
            .keep_alive(Duration::from_secs(25));
        Forwarder {
            upstream,
            stack: MoqtStack::client(transport, seed),
            conn: None,
            tracks: BTreeMap::new(),
            subs: BTreeMap::new(),
            fetches: BTreeMap::new(),
            queued: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    /// Number of live upstream subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subs.len()
    }

    fn on_classic_query(&mut self, ctx: &mut Ctx<'_>, from: Addr, data: &[u8]) {
        let Ok(query) = Message::decode(data) else {
            return;
        };
        let Some(q) = query.question().cloned() else {
            return;
        };
        // RFC 1035 §4.1.1: propagate the client's OPCODE/RD/CD upstream
        // instead of assuming a recursion-desired QUERY.
        let flags = RequestFlags::from_query(&query);
        if flags.opcode != Opcode::Query {
            // Only QUERY maps onto pub/sub tracks; anything else is
            // NOTIMP rather than silently treated as a standard query.
            let mut resp = Message::response(query);
            resp.header.rcode = Rcode::NotImp;
            ctx.send(DNS_PORT, from, resp.encode());
            return;
        }
        let key = (q, flags);
        let started = ctx.now();

        // Answer from pushed state when we have it (zero upstream traffic).
        if let Some(state) = self.tracks.get(&key) {
            if let Some(latest) = &state.latest {
                let mut resp = latest.clone();
                resp.header.id = query.header.id;
                resp.header.rd = flags.rd;
                resp.header.ra = true;
                ctx.send(DNS_PORT, from, resp.encode());
                self.metrics.lookups.push(LookupSample {
                    question: key.0,
                    started,
                    finished: ctx.now(),
                    source: AnswerSource::Cache,
                    ok: true,
                    version: Some(state.version),
                });
                return;
            }
        }

        // Otherwise subscribe+fetch upstream (or join an in-flight one).
        let state = self.tracks.entry(key.clone()).or_default();
        state.waiters.push(ClientWaiter {
            from,
            query_id: query.header.id,
            started,
        });
        let in_flight = state.live || self.fetches.values().any(|k| *k == key);
        if !in_flight {
            self.subscribe_upstream(ctx, key);
        }
    }

    fn subscribe_upstream(&mut self, ctx: &mut Ctx<'_>, key: TrackKey) {
        // A key already subscribed or already queued must not be issued
        // twice (a queued key could otherwise race a later direct
        // subscribe and double the upstream subscription).
        if self.subs.values().any(|k| *k == key) || self.queued.contains(&key) {
            return;
        }
        if self.conn.is_none() || self.stack.session(self.conn.unwrap()).is_none() {
            self.conn =
                self.stack
                    .connect(ctx.now(), Addr::new(self.upstream.node, MOQT_PORT), true);
        }
        let Some(h) = self.conn else {
            // Connect failed: keep the key queued; the next query retries.
            self.queued.push(key);
            return;
        };
        let track = track_from_question(&key.0, key.1).expect("valid dns track");
        let Some((session, conn)) = self.stack.session_conn(h) else {
            self.queued.push(key);
            return;
        };
        let (sub_id, fetch_id) = session.subscribe_with_joining_fetch(conn, track, 1);
        self.metrics.subscribes_sent += 1;
        self.metrics.fetches_sent += 1;
        self.subs.insert(sub_id, key.clone());
        self.fetches.insert(fetch_id, key);
    }

    fn answer_waiters(&mut self, ctx: &mut Ctx<'_>, key: &TrackKey) {
        let Some(state) = self.tracks.get_mut(key) else {
            return;
        };
        let Some(latest) = state.latest.clone() else {
            return;
        };
        let version = state.version;
        let waiters = std::mem::take(&mut state.waiters);
        for w in waiters {
            let mut resp = latest.clone();
            resp.header.id = w.query_id;
            resp.header.rd = key.1.rd;
            resp.header.ra = true;
            ctx.send(DNS_PORT, w.from, resp.encode());
            self.metrics.lookups.push(LookupSample {
                question: key.0.clone(),
                started: w.started,
                finished: ctx.now(),
                source: AnswerSource::Moqt,
                ok: latest.header.rcode == Rcode::NoError,
                version: Some(version),
            });
        }
    }
}

impl StackNode for Forwarder {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }

    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        for ev in events {
            match ev {
                StackEvent::Session(_, SessionEvent::Ready { .. }) => {
                    let queued = std::mem::take(&mut self.queued);
                    for key in queued {
                        self.subscribe_upstream(ctx, key);
                    }
                }
                StackEvent::Session(_, SessionEvent::SubscribeAccepted { request_id, .. }) => {
                    if let Some(key) = self.subs.get(&request_id) {
                        if let Some(state) = self.tracks.get_mut(key) {
                            state.live = true;
                        }
                    }
                }
                StackEvent::Session(_, SessionEvent::SubscribeRejected { request_id, .. }) => {
                    if let Some(key) = self.subs.remove(&request_id) {
                        if let Some(state) = self.tracks.get_mut(&key) {
                            state.live = false;
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
                    if let Some(key) = self.fetches.remove(&request_id) {
                        if let Some(object) = objects.first() {
                            if let Ok(msg) = response_from_object(object) {
                                let state = self.tracks.entry(key.clone()).or_default();
                                // A fetch overtaken by a newer push must
                                // not regress it; its waiters get the push.
                                if !state.apply(object.group_id, msg) {
                                    self.metrics.stale_objects_dropped += 1;
                                }
                                self.answer_waiters(ctx, &key);
                            }
                        }
                    }
                }
                StackEvent::Session(_, SessionEvent::FetchRejected { request_id, .. }) => {
                    if let Some(key) = self.fetches.remove(&request_id) {
                        // Fail pending waiters with SERVFAIL.
                        if let Some(state) = self.tracks.get_mut(&key) {
                            let waiters = std::mem::take(&mut state.waiters);
                            for w in waiters {
                                let mut resp =
                                    Message::response(Message::query(w.query_id, key.0.clone()));
                                resp.header.rcode = Rcode::ServFail;
                                resp.header.rd = key.1.rd;
                                resp.header.ra = true;
                                ctx.send(DNS_PORT, w.from, resp.encode());
                            }
                        }
                    }
                }
                StackEvent::Session(_, SessionEvent::SubscriptionObject { request_id, object }) => {
                    if let Some(key) = self.subs.get(&request_id).cloned() {
                        if let Ok(msg) = response_from_object(&object) {
                            if let Some(state) = self.tracks.get_mut(&key) {
                                if !state.apply(object.group_id, msg) {
                                    self.metrics.stale_objects_dropped += 1;
                                }
                            }
                            self.metrics.objects_received += 1;
                            self.metrics.updates.push(UpdateSample {
                                question: key.0,
                                version: object.group_id,
                                received: ctx.now(),
                            });
                        }
                    }
                }
                StackEvent::Session(_, SessionEvent::SubscriptionEnded { request_id, .. }) => {
                    if let Some(key) = self.subs.remove(&request_id) {
                        if let Some(state) = self.tracks.get_mut(&key) {
                            state.live = false;
                        }
                    }
                }
                StackEvent::Closed(_) => {
                    self.conn = None;
                    self.subs.clear();
                    for state in self.tracks.values_mut() {
                        state.live = false;
                    }
                }
                _ => {}
            }
        }
    }
}

impl Node for Forwarder {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, to_port: u16, payload: Payload) {
        match to_port {
            DNS_PORT => self.on_classic_query(ctx, from, &payload),
            MOQT_PORT => self.stack.on_datagram(ctx.now(), from, &payload),
            _ => {}
        }
        self.end_turn(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOKEN_QUIC {
            self.stack.on_timer(ctx.now());
            self.end_turn(ctx);
        }
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
    use crate::mapping::object_from_response;
    use moqdns_dns::rdata::RData;
    use moqdns_dns::rr::{Record, RecordType};
    use moqdns_netsim::Simulator;
    use std::net::Ipv4Addr;

    /// Version 3, then a retransmitted version 2 — as a pushed object and
    /// as a fetch answer: the forwarder keeps serving version 3.
    #[test]
    fn an_object_older_than_the_one_held_is_dropped() {
        let name: moqdns_dns::name::Name = "www.example.com".parse().unwrap();
        let key = (
            Question::new(name.clone(), RecordType::A),
            RequestFlags::recursive(),
        );
        let object = |version: u64| {
            let mut response = Message::response(Message::query(0, key.0.clone()));
            let addr = Ipv4Addr::new(192, 0, 2, version as u8);
            response
                .answers
                .push(Record::new(name.clone(), 60, RData::A(addr)));
            object_from_response(&response, version)
        };
        let mut sim = Simulator::new(1);
        // Its own address stands in for the upstream: nothing is dialled.
        let unused = Addr::new(moqdns_netsim::NodeId::from_index(0), MOQT_PORT);
        let id = sim.add_node("forwarder", Box::new(Forwarder::new(unused, 2)));
        sim.with_node::<Forwarder, _>(id, |f, ctx| {
            f.tracks.insert(key.clone(), TrackState::default());
            f.subs.insert(7, key.clone());
            f.fetches.insert(9, key.clone());
            let h = ConnHandle(0);
            let pushed = |v| SessionEvent::SubscriptionObject {
                request_id: 7,
                object: object(v),
            };
            let fetched = SessionEvent::FetchObjects {
                request_id: 9,
                objects: vec![object(2)],
            };
            let events = [pushed(3), pushed(2), fetched];
            f.handle_events(ctx, events.map(|e| StackEvent::Session(h, e)).into());
            let state = &f.tracks[&key];
            assert_eq!(state.version, 3);
            let held = state.latest.as_ref().expect("version 3 is held");
            assert_eq!(held.answers[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 3)));
            assert_eq!(f.metrics.stale_objects_dropped, 2);
            assert_eq!(f.metrics.objects_received, 2);
        });
    }
}
