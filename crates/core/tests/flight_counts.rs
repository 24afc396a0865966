//! Flight counts, pinned: a node transmits once per turn, after it has
//! reacted (`moqdns_core::stack` module docs), so an ACK rides with the
//! answer it provoked and everything a turn produced for one connection
//! leaves in one datagram. Zero-loss simulator, counted from link stats;
//! every node sits behind a [`Tap`] that logs what reaches it, so the
//! "no bare ACK beside data" property is checked on the datagrams
//! themselves.

use moqdns_core::auth::AuthServer;
use moqdns_core::relay_node::RelayNode;
use moqdns_core::stub::{StubMode, StubResolver};
use moqdns_core::MOQT_PORT;
use moqdns_dns::message::Question;
use moqdns_dns::name::Name;
use moqdns_dns::rdata::RData;
use moqdns_dns::rr::{Record, RecordType};
use moqdns_dns::server::Authority;
use moqdns_dns::zone::Zone;
use moqdns_netsim::{Addr, Ctx, LinkConfig, Node, NodeId, Payload, SimTime, Simulator};
use moqdns_quic::frame::Frame;
use moqdns_quic::packet::decode_datagram_payload;
use moqdns_quic::TransportConfig;
use std::any::Any;
use std::net::Ipv4Addr;
use std::time::Duration;

/// Passes everything through to `inner`, logging each arriving MoQT
/// datagram with its arrival time. On a fixed-delay link, datagrams one
/// sender emitted in one turn arrive in one instant.
struct Tap<N: Node> {
    inner: N,
    log: Vec<(SimTime, Addr, Payload)>,
}

impl<N: Node> Tap<N> {
    fn new(inner: N) -> Box<Tap<N>> {
        Box::new(Tap {
            inner,
            log: Vec::new(),
        })
    }
}

impl<N: Node> Node for Tap<N> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, to: u16, d: Payload) {
        if to == MOQT_PORT {
            self.log.push((ctx.now(), from, d.clone()));
        }
        self.inner.on_datagram(ctx, from, to, d);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.inner.on_timer(ctx, token);
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

fn name(host: &str) -> Name {
    format!("{host}.example.com").parse().unwrap()
}

fn question(host: &str) -> Question {
    Question::new(name(host), RecordType::A)
}

fn a_record(host: &str, last: u8) -> Record {
    Record::new(name(host), 30, RData::A(Ipv4Addr::new(192, 0, 2, last)))
}

struct World {
    sim: Simulator,
    auth: NodeId,
    relay: NodeId,
}

impl World {
    /// auth ← relay, two names in the zone, nobody subscribed yet.
    fn new() -> World {
        let mut sim = Simulator::new(11);
        sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(5)));
        let mut zone = Zone::with_default_soa("example.com".parse().unwrap());
        zone.add_record(a_record("a", 1));
        zone.add_record(a_record("b", 1));
        let auth = sim.add_node(
            "auth",
            Tap::new(AuthServer::new(
                Authority::single(zone),
                TransportConfig::default(),
                1,
            )),
        );
        let relay = sim.add_node(
            "relay",
            Tap::new(RelayNode::new(Addr::new(auth, MOQT_PORT), 4, 2)),
        );
        World { sim, auth, relay }
    }

    fn add_stub(&mut self, label: &str, seed: u64) -> NodeId {
        let relay = Addr::new(self.relay, MOQT_PORT);
        self.sim.add_node(
            label,
            Tap::new(StubResolver::new(StubMode::Moqt, relay, seed)),
        )
    }

    fn settle(&mut self) {
        self.sim.run_for(Duration::from_millis(500));
    }

    fn lookup(&mut self, stub: NodeId, host: &str) {
        self.sim
            .with_node::<Tap<StubResolver>, _>(stub, |t, ctx| t.inner.lookup(ctx, question(host)));
        self.settle();
    }

    /// Sets `hosts`' A records to 192.0.2.`last` in one zone mutation.
    fn update(&mut self, hosts: &[&str], last: u8) {
        self.sim
            .with_node::<Tap<AuthServer>, _>(self.auth, |t, ctx| {
                t.inner.update_zone(ctx, |authority| {
                    let zone = authority.find_zone_mut(&name("a")).unwrap();
                    for h in hosts {
                        zone.set_records(&name(h), RecordType::A, vec![a_record(h, last)]);
                    }
                });
            });
        self.settle();
    }

    /// Datagrams handed to the `a`↔`b` link, both directions.
    fn datagrams(&self, a: NodeId, b: NodeId) -> u64 {
        let stats = self.sim.stats();
        stats.between(a, b).datagrams + stats.between(b, a).datagrams
    }

    fn answer(&self, stub: NodeId, host: &str) -> Option<RData> {
        let records = self
            .sim
            .node_ref::<Tap<StubResolver>>(stub)
            .inner
            .answer(&question(host))?;
        Some(records[0].rdata.clone())
    }
}

#[test]
fn first_lookup_through_a_warm_relay_is_seven_datagrams() {
    let mut w = World::new();
    let warm = w.add_stub("warm", 10);
    let cold = w.add_stub("cold", 11);
    w.settle();
    w.lookup(warm, "a");
    let upstream = w.datagrams(w.relay, w.auth);

    // CH · SH · ACK+CLIENT_SETUP · ACK+SERVER_SETUP · ACK+SUBSCRIBE+FETCH
    // · ACK+SUBSCRIBE_OK+FETCH_OK+object · ACK.
    w.lookup(cold, "a");
    assert_eq!(w.datagrams(cold, w.relay), 7);
    assert_eq!(
        w.datagrams(w.relay, w.auth),
        upstream,
        "the relay answered from its cache"
    );
    assert_eq!(
        w.answer(cold, "a"),
        Some(RData::A(Ipv4Addr::new(192, 0, 2, 1)))
    );
}

#[test]
fn probe_is_three_datagrams() {
    let mut w = World::new();
    let stub = w.add_stub("stub", 10);
    w.settle();
    w.lookup(stub, "a");
    let before = w.datagrams(stub, w.relay);

    // FETCH · ACK+FETCH_OK+object · ACK.
    let issued = w
        .sim
        .with_node::<Tap<StubResolver>, _>(stub, |t, ctx| t.inner.probe(ctx, question("a")));
    assert!(issued);
    w.settle();
    assert_eq!(w.datagrams(stub, w.relay) - before, 3);
}

#[test]
fn an_update_reaches_a_subscriber_in_one_datagram_however_many_tracks_it_touched() {
    let mut w = World::new();
    let stub = w.add_stub("stub", 10);
    w.settle();
    w.lookup(stub, "a");
    w.lookup(stub, "b");

    // Two tracks changed by one mutation: both objects in one datagram
    // on every hop, one ACK back.
    let (before_up, before_down) = (w.datagrams(w.auth, w.relay), w.datagrams(w.relay, stub));
    w.update(&["a", "b"], 2);
    assert_eq!(w.datagrams(w.auth, w.relay) - before_up, 2);
    assert_eq!(w.datagrams(w.relay, stub) - before_down, 2);
    for host in ["a", "b"] {
        assert_eq!(
            w.answer(stub, host),
            Some(RData::A(Ipv4Addr::new(192, 0, 2, 2)))
        );
    }

    // One track changed: the same two datagrams carry half as much.
    let before_down = w.datagrams(w.relay, stub);
    w.update(&["a"], 3);
    assert_eq!(w.datagrams(w.relay, stub) - before_down, 2);
    assert_eq!(
        w.answer(stub, "a"),
        Some(RData::A(Ipv4Addr::new(192, 0, 2, 3)))
    );
}

/// True when the datagram carries nothing but ACK frames.
fn bare_ack(d: &Payload) -> bool {
    let packets = decode_datagram_payload(d).expect("own datagrams decode");
    packets
        .iter()
        .flat_map(|p| &p.frames)
        .all(|f| matches!(f, Frame::Ack { .. }))
}

fn dcid(d: &Payload) -> u64 {
    decode_datagram_payload(d).unwrap()[0].dcid
}

#[test]
fn no_bare_ack_leaves_in_a_turn_that_also_produced_data() {
    let mut w = World::new();
    let first = w.add_stub("first", 10);
    let second = w.add_stub("second", 11);
    w.settle();
    w.lookup(first, "a");
    w.lookup(first, "b");
    w.lookup(second, "a");
    w.sim
        .with_node::<Tap<StubResolver>, _>(second, |t, ctx| t.inner.probe(ctx, question("a")));
    w.settle();
    w.update(&["a", "b"], 2);
    w.update(&["b"], 3);

    fn check<N: Node>(sim: &Simulator, id: NodeId) -> usize {
        let log = &sim.node_ref::<Tap<N>>(id).log;
        for (i, (at, from, d)) in log.iter().enumerate() {
            if !bare_ack(d) {
                continue;
            }
            // Same instant, same sender, same connection: same turn.
            let sibling = log.iter().enumerate().find(|(j, (at2, from2, d2))| {
                *j != i && at2 == at && from2 == from && dcid(d2) == dcid(d) && !bare_ack(d2)
            });
            assert!(
                sibling.is_none(),
                "{}: a bare ACK and data for one connection left in one turn at {at:?}",
                sim.node_name(id)
            );
        }
        log.len()
    }
    let seen = check::<AuthServer>(&w.sim, w.auth)
        + check::<RelayNode>(&w.sim, w.relay)
        + check::<StubResolver>(&w.sim, first)
        + check::<StubResolver>(&w.sim, second);
    assert!(seen > 30, "the taps saw the traffic ({seen} datagrams)");
}
