//! The MoQT-enabled authoritative nameserver (paper §4.2, §5).
//!
//! Serves its zones over classic DNS-on-UDP *and* DNS-over-MoQT. Its MoQT
//! side is a relay with no links — a [`RelayCore`] run by the relay's own
//! downstream half, so origin and relay speak one protocol (§3) — whose
//! every track is answered from the zone:
//!
//! * a request is resolved first into an object whose group id is the
//!   zone version (Fig 4): a SUBSCRIBE's answer is held in the core
//!   ([`RelayCore::on_origin_object`]) before the core accepts it with
//!   `largest = (zone version, 0)`; a FETCH is answered with it at once,
//!   when its range holds the version, and leaves nothing behind;
//! * whenever a zone changes, each subscribed track is answered afresh and
//!   pushed when its answer changed — "an update is sent to all
//!   subscribers who are subscribed to a track that includes the updated
//!   record in its answer message" (§4.2).

use crate::mapping::{object_from_response, question_from_track, RequestFlags};
use crate::relay_node::Downstream;
use crate::stack::{MoqtStack, StackEvent, StackNode, TOKEN_QUIC};
use crate::{DNS_PORT, MOQT_PORT};
use moqdns_dns::message::Message;
use moqdns_dns::server::Authority;
use moqdns_dns::transport::serve_datagram;
use moqdns_moqt::data::Object;
use moqdns_moqt::relay::{RelayAction, RelayCore, RelayStats, Route};
use moqdns_moqt::session::{IncomingFetchKind, SessionEvent};
use moqdns_moqt::track::FullTrackName;
use moqdns_netsim::{Addr, Ctx, Node};
use moqdns_quic::{ConnHandle, TransportConfig};
use moqdns_wire::Payload;
use std::any::Any;

/// Authoritative nameserver node: zones + classic UDP + MoQT publisher.
pub struct AuthServer {
    authority: Authority,
    stack: MoqtStack,
    /// The subscriptions: a core with no links, fed by the zone.
    core: RelayCore,
    /// What the node does for its subscribers' sessions.
    downstream: Downstream,
    /// FETCHes answered, counted as the relay counts its cache hits.
    fetches_served: u64,
    /// Taken down mid-run: ignore all further traffic.
    dead: bool,
}

impl AuthServer {
    /// Creates a server for `authority`'s zones.
    pub fn new(authority: Authority, transport: TransportConfig, seed: u64) -> AuthServer {
        AuthServer {
            authority,
            stack: MoqtStack::server(transport, seed),
            core: RelayCore::with_policy(0, Route::Static),
            downstream: Downstream::default(),
            fetches_served: 0,
            dead: false,
        }
    }

    /// Ablation A2: push updates as unreliable datagrams (RFC 9221)
    /// instead of streams. Loss then silently drops updates — exactly the
    /// failure mode §4.1 avoids by using streams.
    pub fn set_use_datagrams(&mut self, on: bool) {
        self.downstream.use_datagrams = on;
    }

    /// Number of live peer subscriptions (state overhead, §5.1).
    pub fn subscription_count(&self) -> usize {
        self.core.subscriber_count()
    }

    /// The relay family's counters, filled the way a relay's are.
    pub fn stats(&self) -> RelayStats {
        let stats = Downstream::stats(&self.stack, &self.core);
        RelayStats {
            fetch_cache_hits: self.fetches_served,
            ..stats
        }
    }

    /// Estimated MoQT/QUIC state bytes (E9), the core's included.
    pub fn state_size_estimate(&self) -> usize {
        self.stack.state_size_estimate() + self.core.state_size_estimate()
    }

    /// Takes the origin out of service: closes every connection (peers
    /// see a CONNECTION_CLOSE, not an idle timeout) and drops all
    /// subscription state. Used by the federation drill to prove
    /// already-published tracks keep flowing core-to-core after the
    /// origin dies.
    pub fn shutdown(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.close_all(ctx, 0x0, "origin shutdown");
        self.core.reset();
        self.dead = true;
    }

    /// Applies a zone mutation and pushes resulting updates to subscribers
    /// (§4.2). Call through `with_node`: an instant of its own, so every
    /// track the mutation changed leaves for a subscriber together.
    pub fn update_zone(&mut self, ctx: &mut Ctx<'_>, f: impl FnOnce(&mut Authority)) {
        f(&mut self.authority);
        let tracks: Vec<FullTrackName> = self.core.subscribed_tracks().cloned().collect();
        let mut forwards = Vec::new();
        for track in tracks {
            if let Ok(object) = self.answer(&track) {
                let mut more = self.core.on_origin_object(track, object);
                // The first track's forwards are the list: no allocation.
                if forwards.is_empty() {
                    forwards = more;
                } else {
                    forwards.append(&mut more);
                }
            }
        }
        // Subscriber by subscriber, each in request order.
        forwards.sort_unstable_by_key(|a| match a {
            RelayAction::Forward {
                session,
                request_id,
                ..
            } => (*session, *request_id),
            _ => unreachable!("a publisher's answer only forwards"),
        });
        self.run_actions(forwards);
        self.end_turn(ctx);
    }

    /// `track`'s answer from the zone, as the object its subscribers are
    /// sent; or why a request for it is refused (code, reason).
    fn answer(&self, track: &FullTrackName) -> Result<Object, (u64, &'static str)> {
        let (question, RequestFlags { opcode, rd, cd }) =
            question_from_track(track).map_err(|_| (0x1, "malformed dns track"))?;
        let version =
            (self.authority.zone_version_for(&question.qname)).ok_or((0x4, "not authoritative"))?;
        // Asked with the track's flags, which the answer copies (RFC 1035).
        let mut query = Message::query(0, question);
        (query.header.opcode, query.header.rd, query.header.cd) = (opcode, rd, cd);
        let response = self.authority.respond(query);
        Ok(object_from_response(&response, version))
    }

    /// `track`'s answer; or none, with the request for it refused.
    fn answer_or_refuse(
        &mut self,
        h: ConnHandle,
        request_id: u64,
        track: &FullTrackName,
        fetch: bool,
    ) -> Option<Object> {
        let (code, why) = match self.answer(track) {
            Ok(object) => return Some(object),
            Err(refusal) => refusal,
        };
        match self.stack.session_conn(h) {
            Some((sess, conn)) if fetch => sess.reject_fetch(conn, request_id, code, why),
            Some((sess, conn)) => sess.reject_subscribe(conn, request_id, code, why),
            None => {}
        }
        None
    }

    fn run_actions(&mut self, actions: Vec<RelayAction>) {
        for a in actions {
            self.downstream.run(&mut self.stack, &mut self.core, a);
        }
    }
}

impl StackNode for AuthServer {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }

    fn handle_events(&mut self, _ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        for ev in events {
            let actions = match ev {
                StackEvent::Session(h, SessionEvent::IncomingSubscribe { request_id, track }) => {
                    let Some(object) = self.answer_or_refuse(h, request_id, &track, false) else {
                        continue;
                    };
                    // Held first: the core accepts with the zone's version.
                    let held = self.core.on_origin_object(track.clone(), object);
                    self.run_actions(held);
                    self.core.on_downstream_subscribe(h.0, request_id, track)
                }
                StackEvent::Session(h, SessionEvent::IncomingFetch { request_id, kind }) => {
                    // One that escalated from a federation is served like
                    // any other: its hop budget is never spent here.
                    let (track, groups) = match kind {
                        IncomingFetchKind::StandAlone {
                            track,
                            start_group,
                            end_group,
                            ..
                        } => (track, start_group..=end_group),
                        IncomingFetchKind::Joining { track, .. } => (track, 0..=u64::MAX),
                    };
                    let Some(object) = self.answer_or_refuse(h, request_id, &track, true) else {
                        continue;
                    };
                    // The serve rule: a range without the version gets no object.
                    self.fetches_served += 1;
                    vec![RelayAction::ServeFetch {
                        session: h.0,
                        request_id,
                        largest: (object.group_id, object.object_id),
                        object: groups.contains(&object.group_id).then_some(object),
                    }]
                }
                StackEvent::Session(h, SessionEvent::PeerUnsubscribed { request_id }) => {
                    self.core.on_downstream_unsubscribe(h.0, request_id)
                }
                StackEvent::Closed(h) => self.core.on_session_closed(h.0),
                _ => continue,
            };
            self.run_actions(actions);
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
        if !self.dead && token == TOKEN_QUIC {
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
    use crate::adversary::SlowLorisNode;
    use crate::mapping::track_from_question;
    use moqdns_dns::message::{Question, Rcode};
    use moqdns_dns::name::Name;
    use moqdns_dns::rdata::RData;
    use moqdns_dns::rr::{Record, RecordType};
    use moqdns_dns::zone::Zone;
    use moqdns_netsim::{LinkConfig, NodeId, SimTime, Simulator};
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
    }

    /// A classic client that keeps what it is sent.
    #[derive(Default)]
    struct UdpClient {
        replies: Vec<Message>,
    }

    impl Node for UdpClient {
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: Addr, _to: u16, data: Payload) {
            self.replies.extend(Message::decode(&data));
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any_ref(&self) -> &dyn Any {
            self
        }
    }

    /// Each classic answer echoes its query's id and its question as
    /// asked, 0x20 case included: an answer, a name the zone does not
    /// hold and a name outside it.
    #[test]
    fn a_classic_answer_echoes_the_querys_id_and_question() {
        let (mut sim, auth, _) = setup();
        let client = sim.add_node("udp", Box::new(UdpClient::default()));
        let asked = [
            (0x0101, "wWw.ExAmPlE.cOm", Rcode::NoError),
            (0x0202, "NoNe.example.COM", Rcode::NxDomain),
            (0x0303, "WWW.example.ORG", Rcode::Refused),
        ];
        for (id, name, _) in asked {
            let query = Message::query(id, Question::new(n(name), RecordType::A));
            sim.with_node::<UdpClient, _>(client, |_, ctx| {
                ctx.send(5353, Addr::new(auth, DNS_PORT), query.encode());
            });
        }
        sim.run_until_idle();
        let replies = &sim.node_ref::<UdpClient>(client).replies;
        assert_eq!(replies.len(), asked.len(), "{replies:?}");
        for (id, name, rcode) in asked {
            let reply = replies.iter().find(|m| m.header.id == id);
            let reply = reply.unwrap_or_else(|| panic!("no reply with id {id:#06x}"));
            assert_eq!(reply.header.rcode, rcode, "{name}");
            let [echoed] = &reply.questions[..] else {
                panic!("{name}: {:?}", reply.questions);
            };
            assert_eq!(echoed.qname.as_wire(), n(name).as_wire(), "{name}");
            assert_eq!(echoed.qtype, RecordType::A, "{name}");
        }
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
        // The iterative track's RD=0 is copied into the answer.
        assert!(!resp.header.rd);
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
        assert_eq!(
            sim.node_ref::<AuthServer>(auth).stats().objects_forwarded,
            1
        );
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
        assert_eq!(
            sim.node_ref::<AuthServer>(auth).stats().objects_forwarded,
            0
        );
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

    /// Connects the client to the auth; the session is up on return.
    fn connect(sim: &mut Simulator, auth: NodeId, client: NodeId) -> ConnHandle {
        let h = sim.with_node::<Client, _>(client, |c, ctx| {
            let h = c
                .stack
                .connect(ctx.now(), Addr::new(auth, MOQT_PORT), false);
            c.end_turn(ctx);
            h.expect("connect")
        });
        sim.run_for(Duration::from_millis(200));
        h
    }

    /// Standalone fetches of `names`, a turn each, from the client.
    fn fetch_each(sim: &mut Simulator, client: NodeId, h: ConnHandle, names: &[String]) {
        for name in names {
            let track = auth_track(&Question::new(n(name), RecordType::A));
            sim.with_node::<Client, _>(client, |c, ctx| {
                let (sess, conn) = c.stack.session_conn(h).unwrap();
                sess.fetch(conn, track, 0, u64::MAX);
                c.end_turn(ctx);
            });
            sim.run_for(Duration::from_millis(30));
        }
    }

    fn fetch_answers(client: &Client) -> Vec<&[Object]> {
        let answers = client.events.iter().filter_map(|e| match e {
            StackEvent::Session(_, SessionEvent::FetchObjects { objects, .. }) => {
                Some(&objects[..])
            }
            _ => None,
        });
        answers.collect()
    }

    /// A track entry at a core with no links lives only while it has a
    /// subscriber: the answer it holds is the zone's, not a cache. So a
    /// thousand fetches of distinct names nobody subscribes to, half of
    /// them NXDOMAIN, are all answered and leave the origin's state where
    /// it started.
    #[test]
    fn the_origin_holds_nothing_for_names_nobody_subscribes_to() {
        let (mut sim, auth, client) = setup();
        sim.with_node::<AuthServer, _>(auth, |a, ctx| {
            a.update_zone(ctx, |authority| {
                let zone = authority.find_zone_mut(&n("example.com")).unwrap();
                for i in 0..500u32 {
                    let ip = Ipv4Addr::from(0xC000_0200 + i);
                    zone.add_record(Record::new(
                        n(&format!("h{i}.example.com")),
                        30,
                        RData::A(ip),
                    ));
                }
            });
        });
        let h = connect(&mut sim, auth, client);
        let names: Vec<String> = (0..1000)
            .map(|i| format!("h{}.example.com", i * 7 % 1000))
            .collect();
        let started = sim.node_ref::<AuthServer>(auth).state_size_estimate();
        fetch_each(&mut sim, client, h, &names);

        let a = sim.node_ref::<AuthServer>(auth);
        assert_eq!(a.state_size_estimate(), started);
        assert_eq!(a.stats().fetch_cache_hits, 1000);
        let answers = fetch_answers(sim.node_ref::<Client>(client));
        assert_eq!(answers.len(), 1000);
        let nxdomain = answers.iter().filter(|objects| {
            let resp = crate::mapping::response_from_object(&objects[0]).unwrap();
            resp.header.rcode == moqdns_dns::message::Rcode::NxDomain
        });
        assert_eq!(nxdomain.count(), 500);
    }

    /// A fetch whose range excludes the zone's version is served by the
    /// serve rule — no object — rather than refused as if an upstream
    /// were missing; and it leaves nothing behind either.
    #[test]
    fn a_fetch_past_the_zone_version_is_answered_without_an_object() {
        let (mut sim, auth, client) = setup();
        let h = connect(&mut sim, auth, client);
        let started = sim.node_ref::<AuthServer>(auth).state_size_estimate();
        let track = auth_track(&Question::new(n("www.example.com"), RecordType::A));
        let version = zone().version();
        sim.with_node::<Client, _>(client, |c, ctx| {
            let (sess, conn) = c.stack.session_conn(h).unwrap();
            sess.fetch(conn, track, version + 1, u64::MAX);
            c.end_turn(ctx);
        });
        sim.run_for(Duration::from_millis(100));

        let answers = fetch_answers(sim.node_ref::<Client>(client));
        assert_eq!(answers, [&[][..]]);
        let a = sim.node_ref::<AuthServer>(auth);
        assert_eq!(
            a.stats().reasons[moqdns_moqt::Reason::UpstreamUnavailable],
            0
        );
        assert_eq!(a.state_size_estimate(), started);
    }

    fn www_a(last: u8) -> Record {
        let ip = Ipv4Addr::new(192, 0, 2, last);
        Record::new(n("www.example.com"), 30, RData::A(ip))
    }

    /// The origin runs the relay's downstream half: a slow loris aimed
    /// straight at it is evicted over the same backlog bound, counted
    /// once, and what it made the origin hold is given back.
    #[test]
    fn the_origin_evicts_a_slow_loris_too() {
        let (mut sim, auth, _) = setup();
        sim.with_node::<AuthServer, _>(auth, |a, _| a.downstream.max_session_backlog = 4 * 1024);
        let idle = sim.node_ref::<AuthServer>(auth).state_size_estimate();
        let question = Question::new(n("www.example.com"), RecordType::A);
        let loris = SlowLorisNode::new(Addr::new(auth, MOQT_PORT), vec![question], 7);
        let loris = sim.add_node("loris", Box::new(loris));
        sim.run_for(Duration::from_secs(1));
        assert!(sim.node_ref::<SlowLorisNode>(loris).blackholed);
        let joined = sim.node_ref::<AuthServer>(auth).state_size_estimate();
        let mut peak = 0;
        for octet in 2..=64u8 {
            sim.with_node::<AuthServer, _>(auth, |a, ctx| {
                a.update_zone(ctx, |authority| {
                    let www = n("www.example.com");
                    let zone = authority.find_zone_mut(&www).unwrap();
                    zone.set_records(&www, RecordType::A, vec![www_a(octet)]);
                });
            });
            sim.run_for(Duration::from_millis(20));
            peak = peak.max(sim.node_ref::<AuthServer>(auth).state_size_estimate());
        }
        sim.run_for(Duration::from_secs(5));

        let a = sim.node_ref::<AuthServer>(auth);
        let stats = a.stats();
        assert_eq!(stats.evicted_sessions, 1, "{stats:?}");
        assert_eq!(
            stats.reasons[moqdns_moqt::Reason::SessionBacklogExceeded],
            1
        );
        assert_eq!(a.subscription_count(), 0);
        // Back where it started, but for the capacity the endpoint keeps in
        // its connection tables for the next connection.
        let after = a.state_size_estimate();
        let sizes = format!("idle {idle}, joined {joined}, peak {peak}, after {after}");
        assert!(
            peak > joined && after < joined && after - idle < 256,
            "{sizes}"
        );
    }
}
