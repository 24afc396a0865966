//! The MoQT-enabled authoritative nameserver (paper §4.2, §5).
//!
//! Serves its zones over classic DNS-on-UDP *and* DNS-over-MoQT:
//!
//! * SUBSCRIBE for a question in one of its zones is accepted with
//!   `largest = (zone version, 0)`;
//! * a joining FETCH (offset 1) is answered with the current response
//!   wrapped in an object whose group id is the zone version (Fig 4);
//! * whenever a zone changes, the server regenerates the answer for every
//!   subscribed track and pushes the new version to every subscriber whose
//!   answer actually changed — "an update is sent to all subscribers who
//!   are subscribed to a track that includes the updated record in its
//!   answer message" (§4.2).

use crate::mapping::{object_from_response, question_from_track};
use crate::stack::{MoqtStack, StackEvent, StackNode, TOKEN_QUIC};
use crate::{DNS_PORT, MOQT_PORT};
use moqdns_dns::message::Question;
use moqdns_dns::server::Authority;
use moqdns_dns::transport::serve_datagram;
use moqdns_moqt::data::Object;
use moqdns_moqt::session::{IncomingFetchKind, SessionEvent};
use moqdns_moqt::track::FullTrackName;
use moqdns_netsim::{Addr, Ctx, Node};
use moqdns_quic::{ConnHandle, Faults, TransportConfig};
use moqdns_wire::Payload;
use std::any::Any;
use std::collections::BTreeMap;

/// Counters exposed to experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct AuthStats {
    /// Classic UDP queries answered.
    pub classic_queries: u64,
    /// MoQT subscriptions accepted.
    pub subscriptions_accepted: u64,
    /// MoQT subscriptions rejected.
    pub subscriptions_rejected: u64,
    /// Joining/standalone fetches served.
    pub fetches_served: u64,
    /// Update objects pushed to subscribers.
    pub updates_pushed: u64,
}

/// One live peer subscription.
struct SubEntry {
    question: Question,
    /// Last object payload pushed/advertised (suppresses no-op pushes).
    /// A shared handle: comparing against the current object is a pointer
    /// check when nothing changed since the last push.
    last_payload: Payload,
}

/// Authoritative nameserver node: zones + classic UDP + MoQT publisher.
pub struct AuthServer {
    authority: Authority,
    stack: MoqtStack,
    /// Push updates as unreliable datagrams instead of streams (ablation
    /// A2 only; the paper's design always uses streams, §4.1).
    use_datagrams: bool,
    /// (connection, peer request id) -> subscription entry.
    subs: BTreeMap<(ConnHandle, u64), SubEntry>,
    /// Taken down mid-run: ignore all further traffic.
    dead: bool,
    /// Counters.
    pub stats: AuthStats,
}

impl AuthServer {
    /// Creates a server for `authority`'s zones.
    pub fn new(authority: Authority, transport: TransportConfig, seed: u64) -> AuthServer {
        AuthServer {
            authority,
            stack: MoqtStack::server(transport, seed),
            use_datagrams: false,
            subs: BTreeMap::new(),
            dead: false,
            stats: AuthStats::default(),
        }
    }

    /// Ablation A2: push updates as unreliable datagrams (RFC 9221)
    /// instead of streams. Loss then silently drops updates — exactly the
    /// failure mode §4.1 avoids by using streams.
    pub fn set_use_datagrams(&mut self, on: bool) {
        self.use_datagrams = on;
    }

    /// Number of live peer subscriptions (state overhead, §5.1).
    pub fn subscription_count(&self) -> usize {
        self.subs.len()
    }

    /// What its QUIC endpoint counted of its peers' faults.
    pub fn faults(&self) -> Faults {
        self.stack.endpoint.faults()
    }

    /// Estimated MoQT/QUIC state bytes (E9).
    pub fn state_size_estimate(&self) -> usize {
        self.stack.state_size_estimate()
            + self
                .subs
                .values()
                .map(|s| 64 + s.last_payload.len())
                .sum::<usize>()
    }

    /// Takes the origin out of service: closes every connection (peers
    /// see a CONNECTION_CLOSE, not an idle timeout) and drops all
    /// subscription state. Used by the federation drill to prove
    /// already-published tracks keep flowing core-to-core after the
    /// origin dies.
    pub fn shutdown(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.close_all(ctx, 0x0, "origin shutdown");
        self.subs.clear();
        self.dead = true;
    }

    /// Applies a zone mutation and pushes resulting updates to subscribers
    /// (§4.2). Call through `with_node`: an instant of its own, so every
    /// track the mutation changed leaves for a subscriber together.
    pub fn update_zone(&mut self, ctx: &mut Ctx<'_>, f: impl FnOnce(&mut Authority)) {
        f(&mut self.authority);
        self.push_updates();
        self.end_turn(ctx);
    }

    fn push_updates(&mut self) {
        let keys: Vec<(ConnHandle, u64)> = self.subs.keys().copied().collect();
        // §4.2 fan-out, encoded once per track: subscribers to the same
        // question share one object whose payload is cloned by reference,
        // so push cost is O(1) in subscriber count for bytes copied.
        let mut current: BTreeMap<Question, Option<Object>> = BTreeMap::new();
        for (h, req) in keys {
            let question = self.subs.get(&(h, req)).unwrap().question.clone();
            let object = current
                .entry(question)
                .or_insert_with_key(|q| self.current_object(q).map(|(o, _)| o));
            let Some(object) = object else { continue };
            let changed = self.subs.get(&(h, req)).unwrap().last_payload != object.payload;
            if changed {
                let use_dg = self.use_datagrams;
                if let Some((session, conn)) = self.stack.session_conn(h) {
                    let sent = if use_dg {
                        session.publish_datagram(conn, req, object.clone())
                    } else {
                        session.publish(conn, req, object.clone())
                    };
                    if sent {
                        self.stats.updates_pushed += 1;
                        self.subs.get_mut(&(h, req)).unwrap().last_payload = object.payload.clone();
                    }
                }
            }
        }
    }

    fn current_object(&self, question: &Question) -> Option<(moqdns_moqt::data::Object, u64)> {
        let version = self.authority.zone_version_for(&question.qname)?;
        let response = self.authority.answer_question(question);
        Some((object_from_response(&response, version), version))
    }
}

impl StackNode for AuthServer {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }

    fn handle_events(&mut self, _ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        for ev in events {
            match ev {
                StackEvent::Session(h, SessionEvent::IncomingSubscribe { request_id, track }) => {
                    self.on_subscribe(h, request_id, &track);
                }
                StackEvent::Session(h, SessionEvent::IncomingFetch { request_id, kind }) => {
                    self.on_fetch(h, request_id, kind);
                }
                StackEvent::Session(h, SessionEvent::PeerUnsubscribed { request_id }) => {
                    self.subs.remove(&(h, request_id));
                }
                StackEvent::Closed(h) => {
                    self.subs.retain(|(hh, _), _| *hh != h);
                }
                _ => {}
            }
        }
    }
}

impl AuthServer {
    fn on_subscribe(&mut self, h: ConnHandle, request_id: u64, track: &FullTrackName) {
        let parsed = question_from_track(track);
        let Ok((question, _flags)) = parsed else {
            if let Some((session, conn)) = self.stack.session_conn(h) {
                session.reject_subscribe(conn, request_id, 0x1, "malformed dns track");
            }
            self.stats.subscriptions_rejected += 1;
            return;
        };
        match self.current_object(&question) {
            Some((object, version)) => {
                if let Some((session, conn)) = self.stack.session_conn(h) {
                    session.accept_subscribe(conn, request_id, Some((version, 0)));
                }
                self.stats.subscriptions_accepted += 1;
                self.subs.insert(
                    (h, request_id),
                    SubEntry {
                        question,
                        last_payload: object.payload,
                    },
                );
            }
            None => {
                if let Some((session, conn)) = self.stack.session_conn(h) {
                    session.reject_subscribe(conn, request_id, 0x4, "not authoritative");
                }
                self.stats.subscriptions_rejected += 1;
            }
        }
    }

    fn on_fetch(&mut self, h: ConnHandle, request_id: u64, kind: IncomingFetchKind) {
        // A federation fetch that escalated all the way to the origin is
        // served like any other (the hop budget only constrains
        // core-to-core forwards).
        let (IncomingFetchKind::StandAlone { track, .. }
        | IncomingFetchKind::Joining { track, .. }) = kind;
        let Ok((question, _)) = question_from_track(&track) else {
            if let Some((session, conn)) = self.stack.session_conn(h) {
                session.reject_fetch(conn, request_id, 0x1, "malformed dns track");
            }
            return;
        };
        match self.current_object(&question) {
            Some((object, version)) => {
                if let Some((session, conn)) = self.stack.session_conn(h) {
                    session.respond_fetch(conn, request_id, (version, 0), vec![object]);
                }
                self.stats.fetches_served += 1;
            }
            None => {
                if let Some((session, conn)) = self.stack.session_conn(h) {
                    session.reject_fetch(conn, request_id, 0x4, "not authoritative");
                }
            }
        }
    }
}

impl Node for AuthServer {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, to_port: u16, payload: Payload) {
        if self.dead {
            return;
        }
        match to_port {
            DNS_PORT => {
                if let Ok(reply) = serve_datagram(&self.authority, &payload) {
                    self.stats.classic_queries += 1;
                    ctx.send(DNS_PORT, from, reply);
                }
            }
            MOQT_PORT => {
                self.stack.on_datagram(ctx.now(), from, &payload);
                self.end_turn(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.dead {
            return;
        }
        if token == TOKEN_QUIC {
            self.stack.on_timer(ctx.now());
            self.end_turn(ctx);
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
    use crate::mapping::{track_from_question, RequestFlags};
    use moqdns_dns::message::Message;
    use moqdns_dns::name::Name;
    use moqdns_dns::rdata::RData;
    use moqdns_dns::rr::{Record, RecordType};
    use moqdns_dns::zone::Zone;
    use moqdns_netsim::{LinkConfig, SimTime, Simulator};
    use moqdns_quic::TransportConfig;
    use std::net::Ipv4Addr;
    use std::time::Duration;

    /// The track for a recursive-resolver-style question against this
    /// server (iterative flags).
    fn auth_track(question: &Question) -> FullTrackName {
        track_from_question(question, RequestFlags::iterative()).expect("valid dns track")
    }

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn zone() -> Zone {
        let mut z = Zone::with_default_soa(n("example.com"));
        z.add_record(Record::new(
            n("www.example.com"),
            30,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        z
    }

    /// Test client node: a MoqtStack that records events.
    struct Client {
        stack: MoqtStack,
        events: Vec<StackEvent>,
    }

    impl StackNode for Client {
        fn stack(&mut self) -> &mut MoqtStack {
            &mut self.stack
        }
        fn handle_events(&mut self, _ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
            self.events.extend(events);
        }
    }

    impl Node for Client {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, _to: u16, d: Payload) {
            self.stack.on_datagram(ctx.now(), from, &d);
            self.end_turn(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
            self.stack.on_timer(ctx.now());
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

    fn setup() -> (Simulator, moqdns_netsim::NodeId, moqdns_netsim::NodeId) {
        let mut sim = Simulator::new(5);
        sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(10)));
        let auth = sim.add_node(
            "auth",
            Box::new(AuthServer::new(
                Authority::single(zone()),
                TransportConfig::default(),
                1,
            )),
        );
        let client = sim.add_node(
            "client",
            Box::new(Client {
                stack: MoqtStack::client(TransportConfig::default(), 2),
                events: Vec::new(),
            }),
        );
        sim.run_until_idle();
        (sim, auth, client)
    }

    #[test]
    fn classic_udp_still_served() {
        let (mut sim, auth, client) = setup();
        let q = Message::query(7, Question::new(n("www.example.com"), RecordType::A));
        sim.with_node::<Client, _>(client, |_, ctx| {
            ctx.send(5353, Addr::new(auth, DNS_PORT), q.encode());
        });
        sim.run_until_idle();
        // The reply came back to the client node (datagram recorded by sim).
        let delivered = sim.stats().between(auth, client);
        assert_eq!(delivered.delivered, 1);
        let served = sim.node_ref::<AuthServer>(auth).stats.classic_queries;
        assert_eq!(served, 1);
    }

    #[test]
    fn lookup_via_subscribe_and_joining_fetch() {
        let (mut sim, auth, client) = setup();
        let question = Question::new(n("www.example.com"), RecordType::A);
        let track = auth_track(&question);

        let h = sim.with_node::<Client, _>(client, |c, ctx| {
            let h = c
                .stack
                .connect(ctx.now(), Addr::new(auth, MOQT_PORT), false)
                .expect("connect");
            c.end_turn(ctx);
            h
        });
        sim.run_until(SimTime::from_millis(200));
        sim.with_node::<Client, _>(client, |c, ctx| {
            let (sess, conn) = c.stack.session_conn(h).unwrap();
            sess.subscribe_with_joining_fetch(conn, track.clone(), 1);
            c.end_turn(ctx);
        });
        sim.run_until(SimTime::from_millis(500));

        let client_ref = sim.node_ref::<Client>(client);
        // SUBSCRIBE_OK with the current zone version.
        let accepted = client_ref.events.iter().find_map(|e| match e {
            StackEvent::Session(_, SessionEvent::SubscribeAccepted { largest, .. }) => *largest,
            _ => None,
        });
        let zone_version = zone().version();
        assert_eq!(accepted, Some((zone_version, 0)));
        // Fetch returned the current record.
        let fetched = client_ref.events.iter().find_map(|e| match e {
            StackEvent::Session(_, SessionEvent::FetchObjects { objects, .. }) => {
                Some(objects.clone())
            }
            _ => None,
        });
        let objects = fetched.expect("joining fetch answered");
        assert_eq!(objects.len(), 1);
        assert_eq!(objects[0].group_id, zone_version);
        let resp = crate::mapping::response_from_object(&objects[0]).unwrap();
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(resp.answers[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
    }

    #[test]
    fn zone_update_pushes_to_subscriber() {
        let (mut sim, auth, client) = setup();
        let question = Question::new(n("www.example.com"), RecordType::A);
        let track = auth_track(&question);

        let h = sim.with_node::<Client, _>(client, |c, ctx| {
            let h = c
                .stack
                .connect(ctx.now(), Addr::new(auth, MOQT_PORT), false)
                .expect("connect");
            c.end_turn(ctx);
            h
        });
        sim.run_until(SimTime::from_millis(200));
        sim.with_node::<Client, _>(client, |c, ctx| {
            let (sess, conn) = c.stack.session_conn(h).unwrap();
            sess.subscribe_with_joining_fetch(conn, track.clone(), 1);
            c.end_turn(ctx);
        });
        sim.run_until(SimTime::from_millis(500));

        // Update the record at the authoritative server.
        sim.with_node::<AuthServer, _>(auth, |a, ctx| {
            a.update_zone(ctx, |auth| {
                auth.find_zone_mut(&n("www.example.com"))
                    .unwrap()
                    .set_records(
                        &n("www.example.com"),
                        RecordType::A,
                        vec![Record::new(
                            n("www.example.com"),
                            30,
                            RData::A(Ipv4Addr::new(192, 0, 2, 99)),
                        )],
                    );
            });
        });
        sim.run_until(SimTime::from_millis(1000));

        let client_ref = sim.node_ref::<Client>(client);
        let pushed = client_ref.events.iter().find_map(|e| match e {
            StackEvent::Session(_, SessionEvent::SubscriptionObject { object, .. }) => {
                Some(object.clone())
            }
            _ => None,
        });
        let object = pushed.expect("update pushed");
        let resp = crate::mapping::response_from_object(&object).unwrap();
        assert_eq!(
            resp.answers[0].rdata,
            RData::A(Ipv4Addr::new(192, 0, 2, 99))
        );
        assert_eq!(sim.node_ref::<AuthServer>(auth).stats.updates_pushed, 1);
    }

    #[test]
    fn unrelated_zone_update_not_pushed() {
        let (mut sim, auth, client) = setup();
        let question = Question::new(n("www.example.com"), RecordType::A);
        let track = auth_track(&question);
        let h = sim.with_node::<Client, _>(client, |c, ctx| {
            let h = c
                .stack
                .connect(ctx.now(), Addr::new(auth, MOQT_PORT), false)
                .expect("connect");
            c.end_turn(ctx);
            h
        });
        sim.run_until(SimTime::from_millis(200));
        sim.with_node::<Client, _>(client, |c, ctx| {
            let (sess, conn) = c.stack.session_conn(h).unwrap();
            sess.subscribe_with_joining_fetch(conn, track, 1);
            c.end_turn(ctx);
        });
        sim.run_until(SimTime::from_millis(500));

        // Change a *different* name: subscriber's answer is unchanged, so
        // nothing must be pushed even though the zone version bumped.
        sim.with_node::<AuthServer, _>(auth, |a, ctx| {
            a.update_zone(ctx, |auth| {
                auth.find_zone_mut(&n("example.com"))
                    .unwrap()
                    .add_record(Record::new(
                        n("other.example.com"),
                        30,
                        RData::A(Ipv4Addr::new(192, 0, 2, 50)),
                    ));
            });
        });
        sim.run_until(SimTime::from_millis(1000));
        assert_eq!(sim.node_ref::<AuthServer>(auth).stats.updates_pushed, 0);
    }

    #[test]
    fn subscribe_out_of_zone_rejected() {
        let (mut sim, auth, client) = setup();
        let question = Question::new(n("www.other.org"), RecordType::A);
        let track = auth_track(&question);
        let h = sim.with_node::<Client, _>(client, |c, ctx| {
            let h = c
                .stack
                .connect(ctx.now(), Addr::new(auth, MOQT_PORT), false)
                .expect("connect");
            c.end_turn(ctx);
            h
        });
        sim.run_until(SimTime::from_millis(200));
        sim.with_node::<Client, _>(client, |c, ctx| {
            let (sess, conn) = c.stack.session_conn(h).unwrap();
            sess.subscribe(conn, track);
            c.end_turn(ctx);
        });
        sim.run_until(SimTime::from_millis(500));
        let rejected = sim.node_ref::<Client>(client).events.iter().any(|e| {
            matches!(
                e,
                StackEvent::Session(_, SessionEvent::SubscribeRejected { .. })
            )
        });
        assert!(rejected);
        assert_eq!(
            sim.node_ref::<AuthServer>(auth)
                .stats
                .subscriptions_rejected,
            1
        );
    }

    #[test]
    fn disconnect_cleans_subscriptions() {
        let (mut sim, auth, client) = setup();
        let question = Question::new(n("www.example.com"), RecordType::A);
        let track = auth_track(&question);
        let h = sim.with_node::<Client, _>(client, |c, ctx| {
            let h = c
                .stack
                .connect(ctx.now(), Addr::new(auth, MOQT_PORT), false)
                .expect("connect");
            c.end_turn(ctx);
            h
        });
        sim.run_until(SimTime::from_millis(200));
        let sub_id = sim.with_node::<Client, _>(client, |c, ctx| {
            let (sess, conn) = c.stack.session_conn(h).unwrap();
            let id = sess.subscribe(conn, track);
            c.end_turn(ctx);
            id
        });
        sim.run_until(SimTime::from_millis(500));
        assert_eq!(sim.node_ref::<AuthServer>(auth).subscription_count(), 1);

        sim.with_node::<Client, _>(client, |c, ctx| {
            let (sess, conn) = c.stack.session_conn(h).unwrap();
            sess.unsubscribe(conn, sub_id);
            c.end_turn(ctx);
        });
        sim.run_until(SimTime::from_millis(800));
        assert_eq!(sim.node_ref::<AuthServer>(auth).subscription_count(), 0);
    }
}
