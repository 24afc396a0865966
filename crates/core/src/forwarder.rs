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
//! and every answer — waiting on the upstream, from pushed state, SERVFAIL
//! or NOTIMP — echoes the client's RD and CD (RFC 4035 §3.2.2) with RA
//! set: the forwarder's upstream is a recursive resolver, so recursion
//! *is* available (`docs/deviations/17-…`). A query waits on the upstream
//! at most [`CLASSIC_WAIT`]; then it is answered SERVFAIL, before its
//! client gives up on the forwarder.

use crate::links::{Link, Newest, Subscribed};
use crate::mapping::{response_from_object, track_from_question, RequestFlags};
use crate::metrics::{AnswerSource, LookupSample, Metrics, UpdateSample};
use crate::stack::{MoqtStack, StackEvent, StackNode, TOKEN_QUIC};
use crate::{DNS_PORT, MOQT_PORT};
use moqdns_dns::message::Opcode;
use moqdns_dns::message::{Message, Question, Rcode};
use moqdns_moqt::session::SessionEvent;
use moqdns_netsim::{Addr, Ctx, Node, Payload, SimTime};
use moqdns_quic::TransportConfig;
use std::any::Any;
use std::collections::BTreeMap;
use std::time::Duration;

/// How long a classic query waits on the upstream before it is answered
/// SERVFAIL: under the 5 s after which a classic stub gives up on a
/// server (`resolv.conf`'s default timeout), so the client hears the
/// failure instead of a silence. Without it, a query waiting on an
/// upstream whose handshake never completes is failed only when the
/// patient transport idles out, after an hour.
pub const CLASSIC_WAIT: Duration = Duration::from_secs(4);

/// The timer token of [`CLASSIC_WAIT`]: one timer at a time, due when the
/// oldest waiting query's wait ends.
const TOKEN_CLASSIC_WAIT: u64 = TOKEN_QUIC + 1;

/// A classic client waiting for an answer: the id and question its
/// answer echoes (the question as asked, in its own case — a track is
/// joined by any case of its question).
struct ClientWaiter {
    from: Addr,
    query_id: u16,
    question: Question,
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
    /// Its version (group id), as long as the subscription that delivered
    /// it is held: a new subscription starts from nothing (a restarted
    /// resolver may number from 1 again).
    newest: Newest,
    /// Waiters to answer once the first response arrives.
    waiters: Vec<ClientWaiter>,
}

/// The forwarder node.
pub struct Forwarder {
    stack: MoqtStack,
    /// The link to the recursive resolver; a fetch resolves to the track
    /// key whose waiters it answers.
    link: Link<TrackKey, TrackKey>,
    /// (question, flags) -> state.
    tracks: BTreeMap<TrackKey, TrackState>,
    /// Whether the [`CLASSIC_WAIT`] timer is armed.
    wait_armed: bool,
    /// Raw measurements.
    pub metrics: Metrics,
}

impl Forwarder {
    /// Creates a forwarder using the recursive resolver at `upstream`.
    pub fn new(upstream: Addr, seed: u64) -> Forwarder {
        Forwarder {
            stack: MoqtStack::client(TransportConfig::patient(), seed),
            link: Link::new(upstream, true),
            tracks: BTreeMap::new(),
            wait_armed: false,
            metrics: Metrics::default(),
        }
    }

    /// Number of live upstream subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.link.sub_count()
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
            echo_flags(&mut resp, flags);
            ctx.send(DNS_PORT, from, resp.encode());
            return;
        }
        let key = (q, flags);
        let started = ctx.now();

        // Answer from pushed state while the subscription that keeps it
        // current is held (zero upstream traffic). What an ended
        // subscription left behind is not an answer: nothing updates it.
        let held = self.link.holds(&key).is_some();
        let state = self.tracks.entry(key.clone()).or_default();
        if let (true, Some(latest)) = (held, &state.latest) {
            let mut resp = latest.clone();
            resp.header.id = query.header.id;
            resp.questions = query.questions;
            echo_flags(&mut resp, flags);
            ctx.send(DNS_PORT, from, resp.encode());
            self.metrics.lookups.push(LookupSample {
                question: key.0,
                started,
                finished: ctx.now(),
                source: AnswerSource::Cache,
                ok: true,
                version: state.newest.version(),
            });
            return;
        }

        // Otherwise wait for an upstream answer: the one in flight, or a
        // new subscribe + joining fetch (a plain fetch if the subscription
        // is held and only its joining fetch was refused).
        state.waiters.push(ClientWaiter {
            from,
            query_id: query.header.id,
            question: query.questions.into_iter().next().expect("a question"),
            started,
        });
        if !self.wait_armed {
            self.wait_armed = true;
            ctx.set_timer(CLASSIC_WAIT, TOKEN_CLASSIC_WAIT);
        }
        if self.link.fetching(|k| *k == key).is_some() {
            return;
        }
        let track = track_from_question(&key.0, key.1).expect("valid dns track");
        let (link, stack) = (&mut self.link, &mut self.stack);
        let issued = if held {
            link.fetch(ctx, stack, track, (0, u64::MAX), None, key.clone())
        } else {
            state.newest = Newest::default();
            let joining = Some(key.clone());
            let subscribed = link.subscribe(ctx, stack, &key, track, joining);
            let subscribed = matches!(subscribed, Subscribed::Issued(_));
            self.metrics.counts.subscribes_sent += u64::from(subscribed);
            subscribed
        };
        self.metrics.counts.fetches_sent += u64::from(issued);
        if !issued {
            self.fail_waiters(ctx, &key);
        }
    }

    /// Fails `key`'s pending waiters with SERVFAIL.
    fn fail_waiters(&mut self, ctx: &mut Ctx<'_>, key: &TrackKey) {
        let Some(state) = self.tracks.get_mut(key) else {
            return;
        };
        for w in std::mem::take(&mut state.waiters) {
            servfail(ctx, w, key.1);
        }
    }

    fn answer_waiters(&mut self, ctx: &mut Ctx<'_>, key: &TrackKey) {
        let Some(state) = self.tracks.get_mut(key) else {
            return;
        };
        let Some(latest) = state.latest.clone() else {
            return;
        };
        let version = state.newest.version();
        let waiters = std::mem::take(&mut state.waiters);
        for w in waiters {
            let mut resp = latest.clone();
            resp.header.id = w.query_id;
            resp.questions = vec![w.question];
            echo_flags(&mut resp, key.1);
            ctx.send(DNS_PORT, w.from, resp.encode());
            self.metrics.lookups.push(LookupSample {
                question: key.0.clone(),
                started: w.started,
                finished: ctx.now(),
                source: AnswerSource::Moqt,
                ok: latest.header.rcode == Rcode::NoError,
                version,
            });
        }
    }
}

/// Answers `w` SERVFAIL.
fn servfail(ctx: &mut Ctx<'_>, w: ClientWaiter, flags: RequestFlags) {
    let mut resp = Message::response(Message::query(w.query_id, w.question));
    resp.header.rcode = Rcode::ServFail;
    echo_flags(&mut resp, flags);
    ctx.send(DNS_PORT, w.from, resp.encode());
}

/// Sets the header flags every answer to a client carries: its query's RD
/// and CD, and RA.
fn echo_flags(resp: &mut Message, flags: RequestFlags) {
    resp.header.rd = flags.rd;
    resp.header.cd = flags.cd;
    resp.header.ra = true;
}

impl StackNode for Forwarder {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }

    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        for ev in events {
            match ev {
                StackEvent::Session(
                    h,
                    SessionEvent::SubscribeRejected { request_id, .. }
                    | SessionEvent::SubscriptionEnded { request_id, .. },
                ) => {
                    self.link.forget(h, request_id);
                }
                StackEvent::Session(
                    h,
                    SessionEvent::FetchObjects {
                        request_id,
                        objects,
                    },
                ) => {
                    if let Some(key) = self.link.take_fetch(h, request_id) {
                        if let Some(object) = objects.first() {
                            if let Ok(msg) = response_from_object(object) {
                                let state = self.tracks.entry(key.clone()).or_default();
                                // A fetch overtaken by a newer push must
                                // not regress it; its waiters get the push.
                                if state.newest.admit_fetch(object.group_id) {
                                    state.latest = Some(msg);
                                } else {
                                    self.metrics.counts.stale_objects_dropped += 1;
                                }
                                self.answer_waiters(ctx, &key);
                            }
                        }
                    }
                }
                StackEvent::Session(h, SessionEvent::FetchRejected { request_id, .. }) => {
                    if let Some(key) = self.link.take_fetch(h, request_id) {
                        self.fail_waiters(ctx, &key);
                    }
                }
                StackEvent::Session(h, SessionEvent::SubscriptionObject { request_id, object }) => {
                    if let Some(key) = self.link.key_of(h, request_id).cloned() {
                        if let Ok(msg) = response_from_object(&object) {
                            let state = self.tracks.entry(key.clone()).or_default();
                            if state.newest.admit_push(object.group_id) {
                                state.latest = Some(msg);
                            } else {
                                self.metrics.counts.stale_objects_dropped += 1;
                            }
                            self.metrics.counts.objects_received += 1;
                            self.metrics.updates.push(UpdateSample {
                                question: key.0,
                                version: object.group_id,
                                received: ctx.now(),
                            });
                        }
                    }
                }
                // The next query re-subscribes; one waiting gets SERVFAIL.
                StackEvent::Closed(h) if self.link.owns(h) => {
                    for key in self.link.on_closed().fetches {
                        self.fail_waiters(ctx, &key);
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
            MOQT_PORT => self.stack.on_datagram(ctx, from, &payload),
            _ => {}
        }
        self.end_turn(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_QUIC => {
                self.stack.on_timer(ctx.now());
                self.end_turn(ctx);
            }
            TOKEN_CLASSIC_WAIT => {
                let now = ctx.now();
                for ((_, flags), state) in &mut self.tracks {
                    let expired = |w: &mut ClientWaiter| w.started + CLASSIC_WAIT <= now;
                    for w in state.waiters.extract_if(.., expired) {
                        servfail(ctx, w, *flags);
                    }
                }
                let waiters = self.tracks.values().flat_map(|s| &s.waiters);
                let oldest = waiters.map(|w| w.started).min();
                self.wait_armed = oldest.is_some();
                if let Some(started) = oldest {
                    ctx.set_timer(started + CLASSIC_WAIT - now, TOKEN_CLASSIC_WAIT);
                }
            }
            _ => {}
        }
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
    use crate::mapping::object_from_response;
    use moqdns_dns::rdata::RData;
    use moqdns_dns::rr::{Record, RecordType};
    use moqdns_netsim::Simulator;
    use moqdns_quic::ConnHandle;
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
            let h = ConnHandle(0);
            f.link.pretend(h, (7, key.clone()), (9, key.clone()));
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
            assert_eq!(state.newest.version(), Some(3));
            let held = state.latest.as_ref().expect("version 3 is held");
            assert_eq!(held.answers[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 3)));
            assert_eq!(f.metrics.counts.stale_objects_dropped, 2);
            assert_eq!(f.metrics.counts.objects_received, 2);
        });
    }
}
