//! The reasons a node raises over its sessions, not a session itself: a
//! relay refusing a fetch it cannot take upstream, evicting a fetch
//! bomber, evicting a subscriber whose backlog passed its bound. Each is
//! a `moqdns_moqt::Reason` with the text that rides in the request error
//! or the CONNECTION_CLOSE (`moqt`'s `session_model` pins the texts),
//! counted in the node's `ReasonCounts` beside what its sessions raised —
//! and, under the sessions, what its QUIC endpoint dropped whole.

use moqdns_core::adversary::{FetchBombNode, SlowLorisNode};
use moqdns_core::auth::AuthServer;
use moqdns_core::relay_node::RelayNode;
use moqdns_core::MOQT_PORT;
use moqdns_dns::message::Question;
use moqdns_dns::name::Name;
use moqdns_dns::rdata::RData;
use moqdns_dns::rr::{Record, RecordType};
use moqdns_dns::server::Authority;
use moqdns_dns::zone::Zone;
use moqdns_moqt::relay::RelayLimits;
use moqdns_moqt::Reason;
use moqdns_netsim::{Addr, Ctx, LinkConfig, Node, NodeId, Payload, Simulator};
use moqdns_quic::frame::Frame;
use moqdns_quic::packet::{Packet, PacketType};
use moqdns_quic::{DropReason, Faults, TransportConfig};
use std::any::Any;
use std::net::Ipv4Addr;
use std::time::Duration;

fn www() -> Name {
    "www.example.com".parse().unwrap()
}

fn a_record(last: u8) -> Record {
    Record::new(www(), 30, RData::A(Ipv4Addr::new(192, 0, 2, last)))
}

/// An auth serving `www.example.com` and `relay` in front of it, over
/// 5 ms links.
fn world(relay: impl FnOnce(Addr) -> RelayNode) -> (Simulator, NodeId, NodeId) {
    let mut sim = Simulator::new(5);
    sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(5)));
    let mut zone = Zone::with_default_soa("example.com".parse().unwrap());
    zone.add_record(a_record(1));
    let auth = AuthServer::new(Authority::single(zone), TransportConfig::default(), 1);
    let auth = sim.add_node("auth", Box::new(auth));
    let relay = sim.add_node("relay", Box::new(relay(Addr::new(auth, MOQT_PORT))));
    (sim, auth, relay)
}

/// A fetch bomber's cold fetches past its budget are refused, each with
/// `UpstreamUnavailable`, and the third refusal evicts it with
/// `SessionEvicted`; it reconnects and is evicted again.
#[test]
fn a_fetch_bomber_is_refused_and_evicted_and_both_are_counted() {
    let limits = RelayLimits {
        max_outstanding_fetches_per_session: 1,
        evict_after_throttles: 3,
    };
    let (mut sim, _, relay) = world(|up| RelayNode::new(up, 0, 2).limits(limits));
    let target = Addr::new(relay, MOQT_PORT);
    let bomber = FetchBombNode::new(target, Duration::from_millis(200), 4, 9);
    let bomber = sim.add_node("bomber", Box::new(bomber));
    sim.run_for(Duration::from_secs(2));

    let stats = sim.node_ref::<RelayNode>(relay).stats();
    let reasons = stats.reasons;
    let b = sim.node_ref::<FetchBombNode>(bomber);
    assert!(stats.evicted_sessions >= 2, "{stats:?}");
    assert_eq!(b.closed_by_peer, stats.evicted_sessions);
    assert_eq!(reasons[Reason::SessionEvicted], stats.evicted_sessions);
    assert_eq!(reasons[Reason::SessionBacklogExceeded], 0);
    // Every throttled fetch is refused, and so is every fetch the auth
    // cannot answer (nobody publishes the bomber's names).
    assert!(reasons[Reason::UpstreamUnavailable] >= stats.throttled_fetches);
    assert!(stats.throttled_fetches >= 3 * stats.evicted_sessions);
    assert!(b.fetches_rejected <= reasons[Reason::UpstreamUnavailable]);
}

/// A subscriber that stops reading while updates are pushed to it passes
/// the relay's backlog bound and is evicted with
/// `SessionBacklogExceeded`, once: it never comes back.
#[test]
fn a_slow_loris_is_evicted_over_its_backlog_and_counted() {
    let (mut sim, auth, relay) = world(|up| RelayNode::new(up, 0, 2).session_backlog(4 * 1024));
    let target = Addr::new(relay, MOQT_PORT);
    let question = Question::new(www(), RecordType::A);
    let loris = SlowLorisNode::new(target, vec![question], 7);
    let loris = sim.add_node("loris", Box::new(loris));
    sim.run_for(Duration::from_secs(1));
    assert!(sim.node_ref::<SlowLorisNode>(loris).blackholed);
    for octet in 2..=64u8 {
        sim.with_node::<AuthServer, _>(auth, |a, ctx| {
            a.update_zone(ctx, |authority| {
                let zone = authority.find_zone_mut(&www()).unwrap();
                zone.set_records(&www(), RecordType::A, vec![a_record(octet)]);
            });
        });
        sim.run_for(Duration::from_millis(20));
    }

    let stats = sim.node_ref::<RelayNode>(relay).stats();
    assert_eq!(stats.evicted_sessions, 1, "{stats:?}");
    assert_eq!(stats.reasons[Reason::SessionBacklogExceeded], 1);
    assert_eq!(stats.reasons[Reason::SessionEvicted], 0);
    assert_eq!(stats.reasons[Reason::UpstreamUnavailable], 0);
}

/// One turn forwards two objects to a subscriber that stopped reading:
/// the first pushes it past the bound and evicts it, the second finds its
/// connection closed and counts nothing.
#[test]
fn a_slow_loris_is_evicted_once_however_many_objects_one_turn_forwards() {
    let (mut sim, auth, relay) = world(|up| RelayNode::new(up, 0, 2).session_backlog(1));
    let api: Name = "api.example.com".parse().unwrap();
    let api_record = |last| Record::new(api.clone(), 30, RData::A(Ipv4Addr::new(192, 0, 2, last)));
    let set = |sim: &mut Simulator, last: u8| {
        sim.with_node::<AuthServer, _>(auth, |a, ctx| {
            a.update_zone(ctx, |authority| {
                let zone = authority.find_zone_mut(&www()).unwrap();
                zone.set_records(&www(), RecordType::A, vec![a_record(last)]);
                zone.set_records(&api, RecordType::A, vec![api_record(last)]);
            });
        });
    };
    set(&mut sim, 1);
    let target = Addr::new(relay, MOQT_PORT);
    let questions = [www(), api.clone()].map(|n| Question::new(n, RecordType::A));
    let loris = SlowLorisNode::new(target, questions.to_vec(), 7);
    let loris = sim.add_node("loris", Box::new(loris));
    sim.run_for(Duration::from_secs(1));
    assert!(sim.node_ref::<SlowLorisNode>(loris).blackholed);
    let relay_node = sim.node_ref::<RelayNode>(relay);
    assert_eq!(relay_node.upstream_subscription_count(), 2);

    // One mutation of both tracks: one datagram into the relay, one turn.
    set(&mut sim, 2);
    sim.run_for(Duration::from_millis(100));
    let stats = sim.node_ref::<RelayNode>(relay).stats();
    assert_eq!(stats.upstream_objects, 2);
    assert_eq!(stats.evicted_sessions, 1, "{stats:?}");
    assert_eq!(stats.reasons[Reason::SessionBacklogExceeded], 1);
}

/// Sends a relay what no QUIC endpoint can take: three datagrams too
/// short to name a connection, and two 1-RTT packets for a connection
/// nobody opened.
struct Garbage {
    to: Addr,
}

impl Node for Garbage {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..3 {
            ctx.send(MOQT_PORT, self.to, vec![0x40]);
        }
        let stray = Packet {
            ty: PacketType::OneRtt,
            dcid: 4_242,
            pn: 0,
            pn_len: 1,
            frames: vec![Frame::Ping],
        };
        for _ in 0..2 {
            ctx.send(MOQT_PORT, self.to, stray.encode());
        }
    }
    fn on_datagram(&mut self, _: &mut Ctx<'_>, _: Addr, _: u16, _: Payload) {}
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

/// What a relay's endpoint drops whole reaches the relay's stats, each
/// datagram under what was wrong with it, and nothing else is counted.
#[test]
fn a_relay_counts_the_datagrams_it_drops() {
    let (mut sim, _, relay) = world(|up| RelayNode::new(up, 0, 2));
    let target = Addr::new(relay, MOQT_PORT);
    sim.add_node("garbage", Box::new(Garbage { to: target }));
    sim.run_for(Duration::from_secs(1));

    let faults = sim.node_ref::<RelayNode>(relay).stats().faults;
    let mut drops = Faults::default().drops;
    drops[DropReason::MalformedHeader] = 3;
    drops[DropReason::NotAnInitial] = 2;
    assert_eq!(faults.drops, drops);
    assert_eq!(faults.transport_errors, Faults::default().transport_errors);
    assert_eq!(
        faults.to_string(),
        "quic.endpoint.dropped.malformed_header=3 \
         quic.endpoint.dropped.unknown_connection_without_an_initial_packet=2"
    );
}
