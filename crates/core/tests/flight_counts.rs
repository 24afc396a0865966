//! Flight counts, pinned: a node transmits once per instant, after it has
//! reacted to everything that reached it in that instant (the instant
//! contract, `moqdns_core::stack` module docs), so an ACK rides with the
//! answer it provoked, everything an instant produced for one connection
//! leaves in one datagram, and objects that reach a relay together leave
//! it together. Zero-loss simulator, counted from link stats;
//! every node sits behind a [`Tap`] that logs what reaches it, so the
//! "no bare ACK beside data" property is checked on the datagrams
//! themselves — and so is which control message rode in which flight.
//!
//! The first-lookup counts come in three, all the same stub code: 5
//! datagrams when both ends speak the versioned ALPN token (requests ride
//! with CLIENT_SETUP), 3 when the stub also holds a ticket (the whole
//! flight rides 0-RTT), 7 against a relay that only speaks the draft-12
//! token (requests wait for SERVER_SETUP).
//!
//! Beside each count sit the flight's exact wire bytes, so that a framing
//! change shows here and not only in the benchmark. Before STREAM frames
//! took their OFF/LEN/FIN bits in the type and a packet's last frame and a
//! datagram's last packet went without a length, these read 300 (cold
//! first lookup), 298 (resumed), 153 (probe) and 86 (one-update push).
//! Before a contiguous run of a stream left as one STREAM frame and an
//! ACK owed rode in the Initial leaving with it, the first two read 281
//! and 281: each control message had a frame of its own, and the server
//! acknowledged the ClientHello in a 1-RTT packet of its own beside the
//! Initial carrying its ServerHello. Truncated packet numbers move none
//! of these, as every packet in them is below packet 64; they show on a
//! probe 100 probes into its connection (151 B, 154 before).

use moqdns_core::auth::AuthServer;
use moqdns_core::relay_node::RelayNode;
use moqdns_core::stack::StackNode;
use moqdns_core::stub::{StubMode, StubResolver};
use moqdns_core::MOQT_PORT;
use moqdns_dns::message::Question;
use moqdns_dns::name::Name;
use moqdns_dns::rdata::RData;
use moqdns_dns::rr::{Record, RecordType};
use moqdns_dns::server::Authority;
use moqdns_dns::zone::Zone;
use moqdns_moqt::{ControlMessage, MOQT_ALPN_UNVERSIONED};
use moqdns_netsim::{Addr, Ctx, LinkConfig, Node, NodeId, Payload, SimTime, Simulator};
use moqdns_quic::frame::Frame;
use moqdns_quic::packet::{decode_datagram_payload, PacketType};
use moqdns_quic::{alpn_list, Dir, StreamId, TransportConfig};
use std::any::Any;
use std::net::Ipv4Addr;
use std::time::Duration;

/// Passes everything through to `inner`, flushes included, logging each
/// arriving MoQT datagram with its arrival time. On a fixed-delay link,
/// datagrams one sender emitted in one flush arrive in one instant.
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
    fn on_flush(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_flush(ctx);
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
        World::build(false)
    }

    /// The same, with a relay from before the versioned ALPN token: it
    /// accepts (and offers upstream) only the draft-12 one.
    fn with_legacy_relay() -> World {
        World::build(true)
    }

    fn build(legacy_relay: bool) -> World {
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
        let mut relay = RelayNode::new(Addr::new(auth, MOQT_PORT), 4, 2);
        if legacy_relay {
            relay
                .stack()
                .speak_only(alpn_list(&[MOQT_ALPN_UNVERSIONED]));
        }
        let relay = sim.add_node("relay", Tap::new(relay));
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

    /// Payload bytes handed to the `a`↔`b` link, both directions.
    fn bytes(&self, a: NodeId, b: NodeId) -> u64 {
        let stats = self.sim.stats();
        stats.between(a, b).bytes + stats.between(b, a).bytes
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

/// One control-stream flight as a tap saw it: arrival time, the type of
/// the packet that carried it, the control messages by name, the STREAM
/// frames they rode in.
type Flight = (SimTime, PacketType, Vec<&'static str>, usize);

/// The control-stream flights in `log` that `from` sent, in arrival
/// order. Every flight here holds whole messages.
fn control_flights(log: &[(SimTime, Addr, Payload)], from: NodeId) -> Vec<Flight> {
    let control = StreamId::new(true, Dir::Bi, 0);
    let mut flights = Vec::new();
    for (at, _, d) in log.iter().filter(|(_, sender, _)| sender.node == from) {
        for p in decode_datagram_payload(d).expect("own datagrams decode") {
            let mut bytes = Vec::new();
            let mut frames = 0;
            for f in p.frames() {
                if let Frame::Stream { id, data, .. } = f {
                    if id == control {
                        bytes.extend_from_slice(&data);
                        frames += 1;
                    }
                }
            }
            let mut names = Vec::new();
            while let Ok(Some((msg, used))) = ControlMessage::decode(&bytes) {
                names.push(match msg {
                    ControlMessage::ClientSetup { .. } => "CLIENT_SETUP",
                    ControlMessage::ServerSetup { .. } => "SERVER_SETUP",
                    ControlMessage::Subscribe { .. } => "SUBSCRIBE",
                    ControlMessage::SubscribeOk { .. } => "SUBSCRIBE_OK",
                    ControlMessage::Fetch { .. } => "FETCH",
                    ControlMessage::FetchOk { .. } => "FETCH_OK",
                    _ => "other",
                });
                bytes.drain(..used);
            }
            assert!(bytes.is_empty(), "a control message split across flights");
            if !names.is_empty() {
                flights.push((*at, p.ty, names, frames));
            }
        }
    }
    flights
}

impl World {
    /// Control flights `from` → `to`, from `to`'s tap.
    fn flights<N: Node>(&self, from: NodeId, to: NodeId) -> Vec<Flight> {
        control_flights(&self.sim.node_ref::<Tap<N>>(to).log, from)
    }

    /// A stub's first lookup of `a` through a relay another stub already
    /// warmed: the datagrams and bytes it cost, with the relay's upstream
    /// untouched.
    fn cold_lookup_through_warm_relay(&mut self) -> (NodeId, u64, u64) {
        let warm = self.add_stub("warm", 10);
        let cold = self.add_stub("cold", 11);
        self.settle();
        self.lookup(warm, "a");
        let upstream = self.datagrams(self.relay, self.auth);
        self.lookup(cold, "a");
        assert_eq!(
            self.datagrams(self.relay, self.auth),
            upstream,
            "the relay answered from its cache"
        );
        assert_eq!(
            self.answer(cold, "a"),
            Some(RData::A(Ipv4Addr::new(192, 0, 2, 1)))
        );
        (
            cold,
            self.datagrams(cold, self.relay),
            self.bytes(cold, self.relay),
        )
    }
}

#[test]
fn first_lookup_through_a_warm_relay_is_five_datagrams() {
    let mut w = World::new();
    // CH · ACK+SH in one Initial · ACK+CLIENT_SETUP+SUBSCRIBE+FETCH
    // · ACK+SERVER_SETUP+SUBSCRIBE_OK+FETCH_OK+object · ACK.
    let (cold, datagrams, bytes) = w.cold_lookup_through_warm_relay();
    assert_eq!(datagrams, 5);
    assert_eq!(bytes, 254);
    let up = w.flights::<RelayNode>(cold, w.relay);
    let down = w.flights::<StubResolver>(w.relay, cold);
    assert_eq!(
        up.iter().map(|f| &f.2[..]).collect::<Vec<_>>(),
        [["CLIENT_SETUP", "SUBSCRIBE", "FETCH"]]
    );
    assert_eq!(
        down.iter().map(|f| &f.2[..]).collect::<Vec<_>>(),
        [["SERVER_SETUP", "SUBSCRIBE_OK", "FETCH_OK"]]
    );
    // Each control flight is one STREAM frame on the control stream.
    assert!(up.iter().chain(&down).all(|f| f.3 == 1));
    // The relay's reply to the ClientHello is one Initial packet: the
    // ACK of the ClientHello, then the ServerHello.
    let log = &w.sim.node_ref::<Tap<StubResolver>>(cold).log;
    let reply: Vec<_> = decode_datagram_payload(&log[0].2)
        .unwrap()
        .packets()
        .collect();
    assert_eq!(reply.len(), 1);
    assert_eq!(reply[0].ty, PacketType::Initial);
    assert!(matches!(
        reply[0].frames().collect::<Vec<_>>()[..],
        [Frame::Ack { .. }, Frame::Crypto { .. }]
    ));
}

#[test]
fn a_resumed_lookup_is_three_datagrams_with_the_requests_in_the_zero_rtt_flight() {
    let mut w = World::new();
    let stub = w.add_stub("stub", 10);
    w.settle();
    w.lookup(stub, "a"); // leaves a ticket behind
    let (before, bytes_before) = (w.datagrams(stub, w.relay), w.bytes(stub, w.relay));
    let seen = w.flights::<RelayNode>(stub, w.relay).len();

    // The device suspends (connection and subscriptions silently gone)
    // and asks again: CH+0-RTT[CLIENT_SETUP+SUBSCRIBE+FETCH]
    // · Initial[ACK+SH]+1-RTT[SERVER_SETUP+SUBSCRIBE_OK+FETCH_OK+object]
    // · ACK.
    w.sim.with_node::<Tap<StubResolver>, _>(stub, |t, _| {
        t.inner.debug_drop_connection();
        t.inner.debug_forget_subscriptions();
    });
    w.lookup(stub, "a");
    assert_eq!(w.datagrams(stub, w.relay) - before, 3);
    assert_eq!(w.bytes(stub, w.relay) - bytes_before, 265);
    assert_eq!(
        w.answer(stub, "a"),
        Some(RData::A(Ipv4Addr::new(192, 0, 2, 1)))
    );
    let up = w.flights::<RelayNode>(stub, w.relay);
    assert_eq!(up.len(), seen + 1, "one control flight");
    let (_, ty, names, frames) = &up[seen];
    assert_eq!(*ty, PacketType::ZeroRtt);
    assert_eq!(names[..], ["CLIENT_SETUP", "SUBSCRIBE", "FETCH"]);
    assert_eq!(*frames, 1, "in one STREAM frame");
}

#[test]
fn a_relay_that_only_speaks_the_unversioned_token_gets_the_strict_order() {
    let mut w = World::with_legacy_relay();
    // CH · ACK+SH · ACK+CLIENT_SETUP · ACK+SERVER_SETUP · ACK+SUBSCRIBE+FETCH
    // · ACK+SUBSCRIBE_OK+FETCH_OK+object · ACK.
    let (cold, datagrams, _) = w.cold_lookup_through_warm_relay();
    assert_eq!(datagrams, 7);
    let up = w.flights::<RelayNode>(cold, w.relay);
    let down = w.flights::<StubResolver>(w.relay, cold);
    assert_eq!(
        up.iter().map(|f| &f.2[..]).collect::<Vec<_>>(),
        [&["CLIENT_SETUP"][..], &["SUBSCRIBE", "FETCH"]]
    );
    assert_eq!(
        down.iter().map(|f| &f.2[..]).collect::<Vec<_>>(),
        [&["SERVER_SETUP"][..], &["SUBSCRIBE_OK", "FETCH_OK"]]
    );
    // No request was on the wire before SERVER_SETUP had arrived: the
    // flight carrying them reached the relay a link delay or more after
    // SERVER_SETUP reached the stub.
    let (server_setup_at_stub, requests_at_relay) = (down[0].0, up[1].0);
    assert!(requests_at_relay > server_setup_at_stub);
}

#[test]
fn probe_is_three_datagrams() {
    let mut w = World::new();
    let stub = w.add_stub("stub", 10);
    w.settle();
    w.lookup(stub, "a");
    let (before, bytes_before) = (w.datagrams(stub, w.relay), w.bytes(stub, w.relay));

    // FETCH · ACK+FETCH_OK+object · ACK.
    let issued = w
        .sim
        .with_node::<Tap<StubResolver>, _>(stub, |t, ctx| t.inner.probe(ctx, question("a")));
    assert!(issued);
    w.settle();
    assert_eq!(w.datagrams(stub, w.relay) - before, 3);
    assert_eq!(w.bytes(stub, w.relay) - bytes_before, 143);
}

#[test]
fn a_probe_on_an_aged_connection_pays_one_byte_per_packet_number() {
    let mut w = World::new();
    let stub = w.add_stub("stub", 10);
    w.settle();
    w.lookup(stub, "a");
    let probe = |w: &mut World| {
        let issued = w
            .sim
            .with_node::<Tap<StubResolver>, _>(stub, |t, ctx| t.inner.probe(ctx, question("a")));
        assert!(issued);
        w.settle();
    };
    for _ in 0..100 {
        probe(&mut w);
    }
    // Each side has sent well past packet 63 by now.
    assert!(w.datagrams(stub, w.relay) > 300);
    let (before, bytes_before) = (w.datagrams(stub, w.relay), w.bytes(stub, w.relay));
    probe(&mut w);
    assert_eq!(w.datagrams(stub, w.relay) - before, 3);
    // 143 on a fresh connection: the numbers the frames carry (stream
    // offsets, request ids, ACK ranges) have grown since. Before packet
    // numbers were truncated this read 154, each of the three packet
    // numbers a 2-byte varint.
    assert_eq!(w.bytes(stub, w.relay) - bytes_before, 151);
    // FETCH · ACK+FETCH_OK+object · ACK, each number in one byte.
    let up: Vec<_> = w
        .sim
        .node_ref::<Tap<RelayNode>>(w.relay)
        .log
        .iter()
        .filter(|(_, from, _)| from.node == stub)
        .collect();
    let down = &w.sim.node_ref::<Tap<StubResolver>>(stub).log;
    let flight = up[up.len() - 2..]
        .iter()
        .copied()
        .chain(&down[down.len() - 1..]);
    for (_, _, d) in flight {
        let dg = decode_datagram_payload(d).unwrap();
        assert!(dg.packets().all(|p| p.pn_len() == 1));
    }
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
    let (before_down, bytes_before) = (w.datagrams(w.relay, stub), w.bytes(w.relay, stub));
    w.update(&["a"], 3);
    assert_eq!(w.datagrams(w.relay, stub) - before_down, 2);
    assert_eq!(
        w.bytes(w.relay, stub) - bytes_before,
        80,
        "the push and its ACK"
    );
    assert_eq!(
        w.answer(stub, "a"),
        Some(RData::A(Ipv4Addr::new(192, 0, 2, 3)))
    );
}

#[test]
fn updates_that_reach_the_relay_in_one_instant_leave_it_in_one_datagram() {
    let mut w = World::new();
    let stub = w.add_stub("stub", 10);
    w.settle();
    w.lookup(stub, "a");
    w.lookup(stub, "b");

    // Two mutations, one track each: two datagrams leave the auth and
    // reach the relay in one instant. The relay forwards both objects in
    // one datagram, and the stub acknowledges them with one.
    let (before_up, before_down) = (w.datagrams(w.auth, w.relay), w.datagrams(w.relay, stub));
    for host in ["a", "b"] {
        w.sim.with_node::<Tap<AuthServer>, _>(w.auth, |t, ctx| {
            t.inner.update_zone(ctx, |authority| {
                let zone = authority.find_zone_mut(&name(host)).unwrap();
                zone.set_records(&name(host), RecordType::A, vec![a_record(host, 4)]);
            });
        });
    }
    w.settle();
    let up = w.datagrams(w.auth, w.relay) - before_up;
    assert_eq!(up, 3, "two pushes, one ACK");
    let down = w.datagrams(w.relay, stub) - before_down;
    assert_eq!(down, 2, "one push, one ACK");
    for host in ["a", "b"] {
        assert_eq!(
            w.answer(stub, host),
            Some(RData::A(Ipv4Addr::new(192, 0, 2, 4)))
        );
    }
}

/// True when the datagram carries nothing but ACK frames.
fn bare_ack(d: &Payload) -> bool {
    let packets = decode_datagram_payload(d).expect("own datagrams decode");
    packets
        .packets()
        .flat_map(|p| p.frames())
        .all(|f| matches!(f, Frame::Ack { .. }))
}

fn dcid(d: &Payload) -> u64 {
    decode_datagram_payload(d)
        .unwrap()
        .packets()
        .next()
        .unwrap()
        .dcid
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
            // Same instant, same sender, same connection: same flush.
            let sibling = log.iter().enumerate().find(|(j, (at2, from2, d2))| {
                *j != i && at2 == at && from2 == from && dcid(d2) == dcid(d) && !bare_ack(d2)
            });
            assert!(
                sibling.is_none(),
                "{}: a bare ACK and data for one connection left in one flush at {at:?}",
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
