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
            resp.header.rd = flags.rd;
            resp.header.ra = true;
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
            started,
        });
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
            self.metrics.subscribes_sent += u64::from(subscribed);
            subscribed
        };
        self.metrics.fetches_sent += u64::from(issued);
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
            let mut resp = Message::response(Message::query(w.query_id, key.0.clone()));
            resp.header.rcode = Rcode::ServFail;
            resp.header.rd = key.1.rd;
            resp.header.ra = true;
            ctx.send(DNS_PORT, w.from, resp.encode());
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
            resp.header.rd = key.1.rd;
            resp.header.ra = true;
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
                                    self.metrics.stale_objects_dropped += 1;
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
                                self.metrics.stale_objects_dropped += 1;
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
                StackEvent::Closed(h) if self.link.owns(h) => {
                    self.link.on_closed().for_each(drop);
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
            assert_eq!(f.metrics.stale_objects_dropped, 2);
            assert_eq!(f.metrics.objects_received, 2);
        });
    }
}
