//! Workspace integration tests: cross-crate behaviours that no single
//! crate's tests can cover — the forwarder chain, teardown + resubscribe,
//! poll-proxy fallback, loss resilience, and reconnection with 0-RTT.

use moqdns::core::auth::AuthServer;
use moqdns::core::forwarder::Forwarder;
use moqdns::core::recursive::{RecursiveConfig, RecursiveResolver, UpstreamMode};
use moqdns::core::stub::{StubMode, StubResolver};
use moqdns::core::teardown::TeardownPolicy;
use moqdns::core::{node_ip, DNS_PORT};
use moqdns::dns::message::{Message, Question};
use moqdns::dns::rdata::RData;
use moqdns::dns::resolver::RootHint;
use moqdns::dns::rr::{Record, RecordType};
use moqdns::dns::server::Authority;
use moqdns::dns::zone::Zone;
use moqdns::netsim::{Addr, Ctx, LinkConfig, Node, Payload, Simulator};
use moqdns::quic::TransportConfig;
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

#[test]
fn forwarder_bridges_legacy_clients_into_pubsub() {
    // Classic client → forwarder → recursive (MoQT) → hierarchy.
    let mut sim = Simulator::new(3);
    sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(10)));

    let name: moqdns::dns::name::Name = "www.example.com".parse().unwrap();
    let mut zone = Zone::with_default_soa("example.com".parse().unwrap());
    zone.add_record(Record::new(
        name.clone(),
        300,
        RData::A("192.0.2.1".parse().unwrap()),
    ));
    let auth = sim.add_node(
        "auth",
        Box::new(AuthServer::new(
            Authority::single(zone),
            TransportConfig::default(),
            1,
        )),
    );
    let roots = vec![RootHint {
        name: "ns1.example.com".parse().unwrap(),
        addr: IpAddr::V4(node_ip(auth)),
    }];
    let recursive = sim.add_node(
        "recursive",
        Box::new(RecursiveResolver::new(RecursiveConfig::new(
            UpstreamMode::Moqt,
            roots,
            2,
        ))),
    );
    let forwarder = sim.add_node(
        "forwarder",
        Box::new(Forwarder::new(Addr::new(recursive, 0), 3)),
    );

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
    let client = sim.add_node("client", Box::new(Client { replies: vec![] }));
    sim.run_until_idle();

    let q = Message::query(7, Question::new(name.clone(), RecordType::A));
    sim.with_node::<Client, _>(client, |_, ctx| {
        ctx.send(5353, Addr::new(forwarder, DNS_PORT), q.encode());
    });
    sim.run_for(Duration::from_secs(5));
    {
        let c = sim.node_ref::<Client>(client);
        assert_eq!(c.replies.len(), 1);
        assert_eq!(c.replies[0].header.id, 7);
        assert_eq!(
            c.replies[0].answers[0].rdata,
            RData::A("192.0.2.1".parse().unwrap())
        );
    }

    // Update the record; the forwarder absorbs the push; a second classic
    // query is answered fresh, on-device, with the new address.
    sim.with_node::<AuthServer, _>(auth, |a, ctx| {
        a.update_zone(ctx, |authority| {
            if let Some(z) = authority.find_zone_mut(&name) {
                z.set_records(
                    &name,
                    RecordType::A,
                    vec![Record::new(
                        name.clone(),
                        300,
                        RData::A("192.0.2.77".parse().unwrap()),
                    )],
                );
            }
        });
    });
    sim.run_for(Duration::from_secs(2));
    let q2 = Message::query(8, Question::new(name.clone(), RecordType::A));
    sim.with_node::<Client, _>(client, |_, ctx| {
        ctx.send(5353, Addr::new(forwarder, DNS_PORT), q2.encode());
    });
    sim.run_for(Duration::from_secs(2));
    let c = sim.node_ref::<Client>(client);
    assert_eq!(c.replies.len(), 2);
    assert_eq!(
        c.replies[1].answers[0].rdata,
        RData::A("192.0.2.77".parse().unwrap()),
        "legacy client sees the pushed update without any TTL expiry"
    );
}

#[test]
fn forwarder_propagates_client_header_flags() {
    // RFC 1035 §4.1.1: the forwarder must carry the client's RD (and
    // OPCODE/CD) upstream — RD is part of the Fig 3 namespace byte, so
    // rd=0 and rd=1 queries must land on *different* tracks — and echo
    // the client's RD with RA set in responses.
    let mut sim = Simulator::new(31);
    sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(10)));

    let name: moqdns::dns::name::Name = "www.example.com".parse().unwrap();
    let mut zone = Zone::with_default_soa("example.com".parse().unwrap());
    zone.add_record(Record::new(
        name.clone(),
        300,
        RData::A("192.0.2.1".parse().unwrap()),
    ));
    let auth = sim.add_node(
        "auth",
        Box::new(AuthServer::new(
            Authority::single(zone),
            TransportConfig::default(),
            1,
        )),
    );
    let roots = vec![RootHint {
        name: "ns1.example.com".parse().unwrap(),
        addr: IpAddr::V4(node_ip(auth)),
    }];
    let recursive = sim.add_node(
        "recursive",
        Box::new(RecursiveResolver::new(RecursiveConfig::new(
            UpstreamMode::Moqt,
            roots,
            2,
        ))),
    );
    let forwarder = sim.add_node(
        "forwarder",
        Box::new(Forwarder::new(Addr::new(recursive, 0), 3)),
    );

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
    let client = sim.add_node("client", Box::new(Client { replies: vec![] }));
    sim.run_until_idle();

    // rd=1 then rd=0 for the same question.
    let q_rd = Message::query(7, Question::new(name.clone(), RecordType::A));
    let mut q_nord = Message::query(8, Question::new(name.clone(), RecordType::A));
    q_nord.header.rd = false;
    sim.with_node::<Client, _>(client, |_, ctx| {
        ctx.send(5353, Addr::new(forwarder, DNS_PORT), q_rd.encode());
    });
    sim.run_for(Duration::from_secs(5));
    sim.with_node::<Client, _>(client, |_, ctx| {
        ctx.send(5353, Addr::new(forwarder, DNS_PORT), q_nord.encode());
    });
    sim.run_for(Duration::from_secs(5));

    {
        let c = sim.node_ref::<Client>(client);
        assert_eq!(c.replies.len(), 2);
        let rd_reply = c.replies.iter().find(|m| m.header.id == 7).unwrap();
        let nord_reply = c.replies.iter().find(|m| m.header.id == 8).unwrap();
        assert!(rd_reply.header.rd, "rd=1 echoed");
        assert!(!nord_reply.header.rd, "rd=0 echoed, not forced to 1");
        assert!(rd_reply.header.ra && nord_reply.header.ra, "RA set");
    }
    // Distinct tracks → two upstream subscriptions at the forwarder.
    assert_eq!(
        sim.node_ref::<Forwarder>(forwarder).subscription_count(),
        2,
        "rd=0 and rd=1 map onto different tracks"
    );

    // Non-QUERY opcodes are answered NOTIMP, not silently forwarded.
    let mut notify = Message::query(9, Question::new(name.clone(), RecordType::A));
    notify.header.opcode = moqdns::dns::message::Opcode::Notify;
    sim.with_node::<Client, _>(client, |_, ctx| {
        ctx.send(5353, Addr::new(forwarder, DNS_PORT), notify.encode());
    });
    sim.run_for(Duration::from_secs(2));
    let c = sim.node_ref::<Client>(client);
    let notimp = c.replies.iter().find(|m| m.header.id == 9).unwrap();
    assert_eq!(notimp.header.rcode, moqdns::dns::message::Rcode::NotImp);
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
    w.set_a(
        None,
        "www.example.com",
        300,
        Ipv4Addr::new(198, 51, 100, 99),
    );
    w.sim.run_for(Duration::from_secs(60));
    let stub = w.sim.node_ref::<StubResolver>(w.stubs[0]);
    assert!(
        !stub.metrics.updates.is_empty(),
        "synthesized update pushed to the stub"
    );
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
        w.set_a(
            None,
            "www.example.com",
            300,
            Ipv4Addr::new(198, 51, 100, 50 + i),
        );
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
    w.set_a(
        None,
        "www.example.com",
        300,
        Ipv4Addr::new(198, 51, 100, 200),
    );
    w.sim.run_for(Duration::from_secs(3));
    for i in 0..8 {
        let stub = w.sim.node_ref::<StubResolver>(w.stubs[i]);
        assert!(
            !stub.metrics.updates.is_empty(),
            "stub {i} received the push"
        );
    }
}
