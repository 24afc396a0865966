//! Workspace integration tests: cross-crate behaviours that no single
//! crate's tests can cover — the forwarder chain, teardown + resubscribe,
//! poll-proxy fallback, loss resilience, and reconnection with 0-RTT.

use moqdns::core::auth::AuthServer;
use moqdns::core::forwarder::Forwarder;
use moqdns::core::metrics::AnswerSource;
use moqdns::core::recursive::{RecursiveConfig, RecursiveResolver, UpstreamMode};
use moqdns::core::stack::StackNode;
use moqdns::core::stub::{StubMode, StubResolver};
use moqdns::core::teardown::TeardownPolicy;
use moqdns::core::{node_ip, DNS_PORT};
use moqdns::dns::message::{Message, Question};
use moqdns::dns::name::Name;
use moqdns::dns::rdata::RData;
use moqdns::dns::resolver::RootHint;
use moqdns::dns::rr::{Record, RecordType};
use moqdns::dns::server::Authority;
use moqdns::dns::zone::Zone;
use moqdns::netsim::{Addr, Ctx, LinkConfig, Node, NodeId, Payload, Simulator};
use moqdns::quic::{ConnHandle, TransportConfig};
use moqdns_bench::worlds::{World, WorldSpec, ZoneSpec};
use std::any::Any;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Duration;

fn question(host: &str) -> Question {
    Question::new(
        format!("{host}.example.com").parse().unwrap(),
        RecordType::A,
    )
}

/// A bare UDP client.
struct Client {
    replies: Vec<Message>,
}

impl Node for Client {
    fn on_datagram(&mut self, _c: &mut Ctx<'_>, _f: Addr, _p: u16, d: Payload) {
        if let Ok(m) = Message::decode(&d) {
            self.replies.push(m);
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

/// Classic client → forwarder → recursive (MoQT) → one authoritative
/// zone (doubling as the root) holding `www.example.com A 192.0.2.1`.
struct ForwarderChain {
    sim: Simulator,
    name: Name,
    auth: NodeId,
    recursive: NodeId,
    forwarder: NodeId,
    client: NodeId,
}

impl ForwarderChain {
    fn build(seed: u64) -> ForwarderChain {
        let mut sim = Simulator::new(seed);
        sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(10)));
        let name: Name = "www.example.com".parse().unwrap();
        let mut zone = Zone::with_default_soa("example.com".parse().unwrap());
        zone.add_record(Record::new(
            name.clone(),
            300,
            RData::A("192.0.2.1".parse().unwrap()),
        ));
        let auth = AuthServer::new(Authority::single(zone), TransportConfig::default(), 1);
        let auth = sim.add_node("auth", Box::new(auth));
        let roots = vec![RootHint {
            name: "ns1.example.com".parse().unwrap(),
            addr: IpAddr::V4(node_ip(auth)),
        }];
        let config = RecursiveConfig::new(UpstreamMode::Moqt, roots, 2);
        let recursive = sim.add_node("recursive", Box::new(RecursiveResolver::new(config)));
        let forwarder = Forwarder::new(Addr::new(recursive, 0), 3);
        let forwarder = sim.add_node("forwarder", Box::new(forwarder));
        let client = sim.add_node("client", Box::new(Client { replies: vec![] }));
        sim.run_until_idle();
        ForwarderChain {
            sim,
            name,
            auth,
            recursive,
            forwarder,
            client,
        }
    }

    /// The client sends `query` to the forwarder; the world runs `settle`.
    fn send(&mut self, query: Message, settle: Duration) {
        let to = Addr::new(self.forwarder, DNS_PORT);
        self.sim
            .with_node::<Client, _>(self.client, |_, ctx| ctx.send(5353, to, query.encode()));
        self.sim.run_for(settle);
    }

    /// The client asks for the A record under transaction id `id`.
    fn query(&mut self, id: u16, settle: Duration) {
        let question = Question::new(self.name.clone(), RecordType::A);
        self.send(Message::query(id, question), settle);
    }

    /// The zone's A record becomes `addr`; the push propagates.
    fn set_a(&mut self, addr: &str) {
        let name = self.name.clone();
        let record = Record::new(name.clone(), 300, RData::A(addr.parse().unwrap()));
        self.sim.with_node::<AuthServer, _>(self.auth, |a, ctx| {
            a.update_zone(ctx, |authority| {
                let zone = authority.find_zone_mut(&name).expect("the zone");
                zone.set_records(&name, RecordType::A, vec![record]);
            });
        });
        self.sim.run_for(Duration::from_secs(2));
    }

    /// The address in the client's reply number `i`.
    fn reply_addr(&self, i: usize) -> RData {
        let client = self.sim.node_ref::<Client>(self.client);
        client.replies[i].answers[0].rdata.clone()
    }
}

#[test]
fn forwarder_bridges_legacy_clients_into_pubsub() {
    let mut w = ForwarderChain::build(3);
    w.query(7, Duration::from_secs(5));
    {
        let c = w.sim.node_ref::<Client>(w.client);
        assert_eq!(c.replies.len(), 1);
        assert_eq!(c.replies[0].header.id, 7);
    }
    assert_eq!(w.reply_addr(0), RData::A("192.0.2.1".parse().unwrap()));

    // Update the record; the forwarder absorbs the push; a second classic
    // query is answered fresh, on-device, with the new address.
    w.set_a("192.0.2.77");
    w.query(8, Duration::from_secs(2));
    assert_eq!(w.sim.node_ref::<Client>(w.client).replies.len(), 2);
    assert_eq!(
        w.reply_addr(1),
        RData::A("192.0.2.77".parse().unwrap()),
        "legacy client sees the pushed update without any TTL expiry"
    );
}

/// §4.4 at the forwarder: when its upstream connection is closed under
/// it, what the dead subscription left behind is not an answer any more —
/// the next query re-subscribes and is answered from the fresh joining
/// fetch, and pushes flow again.
#[test]
fn forwarder_resubscribes_after_its_upstream_connection_closed() {
    let mut w = ForwarderChain::build(5);
    w.query(1, Duration::from_secs(5));
    assert_eq!(w.reply_addr(0), RData::A("192.0.2.1".parse().unwrap()));
    let subscriptions = |w: &ForwarderChain| {
        w.sim
            .node_ref::<Forwarder>(w.forwarder)
            .subscription_count()
    };
    assert_eq!(subscriptions(&w), 1);

    // The recursive closes the forwarder's connection (a restart, seen
    // from below); its own subscription at the authority lives on.
    let forwarder = w.forwarder;
    w.sim
        .with_node::<RecursiveResolver, _>(w.recursive, |r, ctx| {
            let endpoint = &mut r.stack().endpoint;
            let mut handles = (0..16).map(ConnHandle);
            let h = handles
                .find(|&h| endpoint.peer_of(h).is_some_and(|p| p.node == forwarder))
                .expect("the forwarder's connection");
            endpoint
                .conn_mut(h)
                .expect("open")
                .close(0, "resolver restart");
            r.end_turn(ctx);
        });
    w.sim.run_for(Duration::from_secs(1));
    assert_eq!(subscriptions(&w), 0, "the close took the subscription");

    // The record changes while nothing is held: no push reaches the
    // forwarder, so its last answer is stale — and must not be served.
    w.set_a("192.0.2.77");
    w.query(2, Duration::from_secs(2));
    assert_eq!(w.reply_addr(1), RData::A("192.0.2.77".parse().unwrap()));
    assert_eq!(subscriptions(&w), 1, "one fresh subscription, not two");
    {
        let f = w.sim.node_ref::<Forwarder>(w.forwarder);
        let sources: Vec<AnswerSource> = f.metrics.lookups.iter().map(|l| l.source).collect();
        assert_eq!(sources, [AnswerSource::Moqt, AnswerSource::Moqt]);
        assert_eq!(f.metrics.counts.subscribes_sent, 2);
    }

    // The fresh subscription carries updates again.
    w.set_a("192.0.2.99");
    w.query(3, Duration::from_secs(1));
    assert_eq!(w.reply_addr(2), RData::A("192.0.2.99".parse().unwrap()));
    let f = w.sim.node_ref::<Forwarder>(w.forwarder);
    assert_eq!(f.metrics.lookups[2].source, AnswerSource::Cache);
    assert_eq!(f.metrics.counts.stale_objects_dropped, 0);
}

#[test]
fn forwarder_propagates_client_header_flags() {
    // RFC 1035 §4.1.1: the forwarder must carry the client's RD (and
    // OPCODE/CD) upstream — RD is part of the Fig 3 namespace byte, so
    // rd=0 and rd=1 queries must land on *different* tracks — and echo
    // the client's RD with RA set in responses.
    let mut w = ForwarderChain::build(31);

    // rd=1 then rd=0 for the same question.
    w.query(7, Duration::from_secs(5));
    let mut q_nord = Message::query(8, Question::new(w.name.clone(), RecordType::A));
    q_nord.header.rd = false;
    w.send(q_nord, Duration::from_secs(5));
    {
        let c = w.sim.node_ref::<Client>(w.client);
        assert_eq!(c.replies.len(), 2);
        let rd_reply = c.replies.iter().find(|m| m.header.id == 7).unwrap();
        let nord_reply = c.replies.iter().find(|m| m.header.id == 8).unwrap();
        assert!(rd_reply.header.rd, "rd=1 echoed");
        assert!(!nord_reply.header.rd, "rd=0 echoed, not forced to 1");
        assert!(rd_reply.header.ra && nord_reply.header.ra, "RA set");
    }
    // Distinct tracks → two upstream subscriptions at the forwarder.
    assert_eq!(
        w.sim
            .node_ref::<Forwarder>(w.forwarder)
            .subscription_count(),
        2,
        "rd=0 and rd=1 map onto different tracks"
    );

    // Non-QUERY opcodes are answered NOTIMP, not silently forwarded.
    let mut notify = Message::query(9, Question::new(w.name.clone(), RecordType::A));
    notify.header.opcode = moqdns::dns::message::Opcode::Notify;
    w.send(notify, Duration::from_secs(2));
    let c = w.sim.node_ref::<Client>(w.client);
    let notimp = c.replies.iter().find(|m| m.header.id == 9).unwrap();
    assert_eq!(notimp.header.rcode, moqdns::dns::message::Rcode::NotImp);
}

/// Every answer the forwarder gives echoes the query's RD and CD and sets
/// RA (RFC 1035 §4.1.1; RFC 4035 §3.2.2 has a server copy CD), whatever
/// the path: an answer to a query waiting on the upstream, one from
/// pushed state, NOTIMP, and SERVFAIL when the upstream cannot be
/// reached, which arrives before a classic client gives up. Each path is
/// asked under all four RD/CD combinations.
#[test]
fn forwarder_answers_echo_rd_and_cd_with_ra_set() {
    let flags = [(true, true), (false, true), (true, false), (false, false)];
    let ask = |w: &ForwarderChain, id: u16, (rd, cd): (bool, bool)| {
        let mut q = Message::query(id, Question::new(w.name.clone(), RecordType::A));
        (q.header.rd, q.header.cd) = (rd, cd);
        q
    };
    let check = |replies: &[Message], id: u16, (rd, cd): (bool, bool), path: &str| {
        let reply = replies.iter().find(|m| m.header.id == id);
        let reply = reply.unwrap_or_else(|| panic!("{path}: no reply to {id:#06x}"));
        let h = &reply.header;
        assert_eq!((h.rd, h.cd, h.ra), (rd, cd, true), "{path} (RD, CD, RA)");
    };

    let mut w = ForwarderChain::build(41);
    for (i, &f) in flags.iter().enumerate() {
        let id = 0x100 * (i as u16 + 1);
        let waiting = ask(&w, id, f);
        w.send(waiting, Duration::from_secs(5));
        let pushed = ask(&w, id + 1, f);
        w.send(pushed, Duration::from_secs(2));
        let mut refused = ask(&w, id + 2, f);
        refused.header.opcode = moqdns::dns::message::Opcode::Notify;
        w.send(refused, Duration::from_secs(2));
        let replies = &w.sim.node_ref::<Client>(w.client).replies;
        check(replies, id, f, "waiting");
        check(replies, id + 1, f, "pushed state");
        check(replies, id + 2, f, "NOTIMP");
    }

    // An upstream whose handshake never completes: each waiting query is
    // failed CLASSIC_WAIT after it came, within the 5 s after which a
    // classic client gives up — not when the patient transport idles
    // out, an hour later. The queries come a second apart, so each
    // deadline is the one timer's next.
    let mut w = ForwarderChain::build(43);
    let dead = LinkConfig::with_delay(Duration::from_millis(10)).loss(1.0);
    w.sim.set_link(w.forwarder, w.recursive, dead);
    let ids = (0..flags.len()).map(|i| 0x500 + i as u16);
    for (id, &f) in ids.clone().zip(&flags) {
        let query = ask(&w, id, f);
        w.send(query, Duration::from_secs(1));
    }
    // Query `i` came at `i` s and is failed by `i + 4.1` s, not by
    // `i + 3.1` s.
    w.sim.run_for(Duration::from_millis(100));
    for (i, (id, &f)) in ids.zip(&flags).enumerate() {
        let replies = &w.sim.node_ref::<Client>(w.client).replies;
        check(replies, id, f, "SERVFAIL");
        let rcode = replies
            .iter()
            .find(|m| m.header.id == id)
            .map(|m| m.header.rcode);
        assert_eq!(rcode, Some(moqdns::dns::message::Rcode::ServFail));
        assert_eq!(replies.len(), i + 1, "a query failed early");
        w.sim.run_for(Duration::from_secs(1));
    }
}

/// Every answer the forwarder gives echoes the query's id and its
/// question as asked, 0x20 case included: two queries waiting on one
/// upstream answer, one answered from pushed state, and one refused
/// (NOTIMP). All ask the one track, in four spellings.
#[test]
fn forwarder_echoes_each_querys_id_and_question() {
    let mut w = ForwarderChain::build(37);
    let asked = |id: u16, name: &str| {
        Message::query(id, Question::new(name.parse().unwrap(), RecordType::A))
    };
    let waiting = [
        asked(0x0101, "www.EXAMPLE.com"),
        asked(0x0202, "WWW.example.COM"),
    ];
    for q in &waiting {
        w.send(q.clone(), Duration::ZERO);
    }
    w.sim.run_for(Duration::from_secs(5));
    let pushed = asked(0x0303, "wWw.ExAmPlE.cOm");
    w.send(pushed.clone(), Duration::from_secs(2));
    let mut refused = asked(0x0404, "WwW.eXaMpLe.CoM");
    refused.header.opcode = moqdns::dns::message::Opcode::Notify;
    w.send(refused.clone(), Duration::from_secs(2));

    let c = w.sim.node_ref::<Client>(w.client);
    assert_eq!(c.replies.len(), 4, "{:?}", c.replies);
    for q in waiting.iter().chain([&pushed, &refused]) {
        let id = q.header.id;
        let reply = c.replies.iter().find(|m| m.header.id == id);
        let reply = reply.unwrap_or_else(|| panic!("no reply with id {id:#06x}"));
        assert_eq!(reply.questions.len(), 1, "{id:#06x}");
        let (echoed, asked) = (&reply.questions[0], &q.questions[0]);
        assert_eq!(echoed.qname.as_wire(), asked.qname.as_wire(), "{id:#06x}");
        assert_eq!((echoed.qtype, echoed.qclass), (asked.qtype, asked.qclass));
    }
    let answered = c.replies.iter().filter(|m| !m.answers.is_empty()).count();
    assert_eq!(answered, 3, "all but the NOTIMP carry the record");
}

#[test]
fn teardown_then_resubscribe_on_next_lookup() {
    let spec = WorldSpec {
        seed: 11,
        stub_policy: TeardownPolicy::IdleTimeout(Duration::from_secs(60)),
        ..WorldSpec::default()
    };
    let mut w = World::build(&spec);
    w.lookup(0, "www.example.com", Duration::from_secs(5));
    assert_eq!(
        w.sim
            .node_ref::<StubResolver>(w.stubs[0])
            .subscription_count(),
        1
    );
    // Idle long enough for the sweep to tear the subscription down (§4.4).
    w.sim.run_for(Duration::from_secs(180));
    assert_eq!(
        w.sim
            .node_ref::<StubResolver>(w.stubs[0])
            .subscription_count(),
        0,
        "idle subscription torn down"
    );
    // The next lookup transparently re-subscribes.
    w.lookup(0, "www.example.com", Duration::from_secs(5));
    let stub = w.sim.node_ref::<StubResolver>(w.stubs[0]);
    assert_eq!(stub.subscription_count(), 1, "re-established");
    assert!(stub.metrics.lookups.iter().all(|l| l.ok));
}

#[test]
fn poll_proxy_synthesizes_updates_for_subscribers() {
    // The recursive uses classic upstream but poll-proxies at the TTL
    // (§4.5 last paragraph): stub subscriptions still receive updates.
    let spec = WorldSpec {
        seed: 13,
        mode: UpstreamMode::Classic,
        stub_mode: StubMode::Moqt,
        poll_proxy: true,
        zones: vec![ZoneSpec::example(vec![("www".into(), 20)])],
        ..WorldSpec::default()
    };
    let mut w = World::build(&spec);
    w.lookup(0, "www.example.com", Duration::from_secs(5));
    assert_eq!(
        w.sim
            .node_ref::<StubResolver>(w.stubs[0])
            .subscription_count(),
        1,
        "poll-proxy mode accepts the subscription"
    );
    // Change the record; within ~a TTL the poll notices and pushes.
    w.set_a("www.example.com", 300, Ipv4Addr::new(198, 51, 100, 99));
    w.sim.run_for(Duration::from_secs(60));
    let stub = w.sim.node_ref::<StubResolver>(w.stubs[0]);
    // One change, one push: a re-poll whose answer did not change sends
    // nothing.
    assert_eq!(
        stub.metrics.updates.len(),
        1,
        "synthesized update pushed to the stub once"
    );
    assert_eq!(stub.metrics.counts.stale_objects_dropped, 0);
    let ans = stub.answer(&question("www")).unwrap();
    assert_eq!(ans[0].rdata, RData::A("198.51.100.99".parse().unwrap()));
}

#[test]
fn pushes_survive_a_lossy_last_mile() {
    let spec = WorldSpec {
        seed: 17,
        ..WorldSpec::default()
    };
    let mut w = World::build(&spec);
    // 20% loss between stub and recursive.
    let lossy = LinkConfig::with_delay(Duration::from_millis(10)).loss(0.2);
    w.sim.set_link(w.stubs[0], w.recursive, lossy);
    w.lookup(0, "www.example.com", Duration::from_secs(20));
    for i in 0..10u8 {
        w.set_a("www.example.com", 300, Ipv4Addr::new(198, 51, 100, 50 + i));
        w.sim.run_for(Duration::from_secs(15));
    }
    let stub = w.sim.node_ref::<StubResolver>(w.stubs[0]);
    // Streams + QUIC recovery: every version eventually arrives.
    assert!(
        stub.metrics.updates.len() >= 10,
        "all {} updates delivered despite loss (got {})",
        10,
        stub.metrics.updates.len()
    );
    let ans = stub.answer(&question("www")).unwrap();
    assert_eq!(ans[0].rdata, RData::A("198.51.100.59".parse().unwrap()));
}

#[test]
fn suspension_reconnect_uses_ticket() {
    let spec = WorldSpec {
        seed: 19,
        ..WorldSpec::default()
    };
    let mut w = World::build(&spec);
    w.lookup(0, "www.example.com", Duration::from_secs(5));
    let first_latency = w.sim.node_ref::<StubResolver>(w.stubs[0]).metrics.lookups[0].latency();

    // Device suspends (§4.4): connection state vanishes silently.
    let stub_id = w.stubs[0];
    w.sim.with_node::<StubResolver, _>(stub_id, |s, _| {
        s.debug_drop_connection();
        s.debug_forget_subscriptions();
    });
    // Reconnect: the stored ticket makes the new lookup cheaper than the
    // first (0-RTT: no separate QUIC round trip).
    w.lookup(0, "www.example.com", Duration::from_secs(5));
    let stub = w.sim.node_ref::<StubResolver>(w.stubs[0]);
    let second_latency = stub.metrics.lookups[1].latency();
    assert!(stub.metrics.lookups[1].ok);
    assert!(
        second_latency < first_latency,
        "0-RTT reconnect ({second_latency:?}) beats the cold lookup ({first_latency:?})"
    );
    assert_eq!(stub.subscription_count(), 1, "re-subscribed after suspend");
}

#[test]
fn many_stubs_share_one_upstream_subscription() {
    let spec = WorldSpec {
        seed: 23,
        n_stubs: 8,
        ..WorldSpec::default()
    };
    let mut w = World::build(&spec);
    for i in 0..8 {
        w.lookup(i, "www.example.com", Duration::from_secs(2));
    }
    w.sim.run_for(Duration::from_secs(5));
    let rec = w.sim.node_ref::<RecursiveResolver>(w.recursive);
    assert_eq!(rec.downstream_subscriber_count(), 8);
    // The recursive aggregates: per lookup step at most one upstream
    // subscription per track (3 steps: root, TLD, auth).
    assert!(
        rec.upstream_subscription_count() <= 3,
        "upstream subs: {} (aggregation at the recursive)",
        rec.upstream_subscription_count()
    );
    // One update fans out to all 8 stubs.
    w.set_a("www.example.com", 300, Ipv4Addr::new(198, 51, 100, 200));
    w.sim.run_for(Duration::from_secs(3));
    for i in 0..8 {
        let stub = w.sim.node_ref::<StubResolver>(w.stubs[i]);
        assert!(
            !stub.metrics.updates.is_empty(),
            "stub {i} received the push"
        );
    }
}
