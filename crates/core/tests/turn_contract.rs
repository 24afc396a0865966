//! Two behaviours the instant contract (`moqdns_core::stack` module docs)
//! fixes: a connection a node closes is torn down in the turn that closed
//! it, and a stub never installs an answer older than the one it holds.
//! And two it makes easy to get wrong: a lookup issued while the same
//! name's first lookup is in flight must not subscribe a second time, and
//! a stack that re-arms its protocol timer every instant must not leave
//! the superseded ones behind.

use moqdns_bench::worlds::{World, WorldSpec, ZoneSpec};
use moqdns_core::adversary::FetchBombNode;
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
use moqdns_moqt::relay::RelayLimits;
use moqdns_netsim::faults::{play, FaultPlanBuilder};
use moqdns_netsim::{Addr, LinkConfig, NodeId, ParSim, SimTime, Simulator};
use moqdns_quic::TransportConfig;
use std::net::Ipv4Addr;
use std::time::Duration;

fn www() -> Name {
    "www.example.com".parse().unwrap()
}

fn a_record(last: u8) -> Record {
    Record::new(www(), 30, RData::A(Ipv4Addr::new(192, 0, 2, last)))
}

/// The authority of `www.example.com`, answering `192.0.2.1`.
fn auth() -> Box<AuthServer> {
    let mut zone = Zone::with_default_soa("example.com".parse().unwrap());
    zone.add_record(a_record(1));
    Box::new(AuthServer::new(
        Authority::single(zone),
        TransportConfig::default(),
        1,
    ))
}

fn set_a(sim: &mut ParSim, auth: NodeId, last: u8) {
    sim.with_node::<AuthServer, _>(auth, |a, ctx| {
        a.update_zone(ctx, |authority| {
            let zone = authority.find_zone_mut(&www()).unwrap();
            zone.set_records(&www(), RecordType::A, vec![a_record(last)]);
        });
    });
}

/// The relay evicts a fetch-bomber on the last request of a burst. The
/// eviction closes the bomber's connection; the `Closed` that close
/// raises must reach the relay's teardown (stack session dropped,
/// `RelayCore::on_session_closed` run from the same handler) before the
/// turn ends — not when some later datagram or timer happens to pump
/// the stack again.
#[test]
fn an_evicted_session_is_torn_down_in_the_turn_that_evicted_it() {
    let link = Duration::from_millis(5);
    let mut sim = Simulator::new(5);
    sim.set_default_link(LinkConfig::with_delay(link));
    let auth = sim.add_node("auth", auth());
    // One parked fetch per session, evicted at the third throttle: a
    // burst of four cold fetches evicts on its last request.
    let relay = sim.add_node(
        "relay",
        Box::new(
            RelayNode::new(Addr::new(auth, MOQT_PORT), 4, 2).limits(RelayLimits {
                max_outstanding_fetches_per_session: 1,
                evict_after_throttles: 3,
            }),
        ),
    );
    // An honest lookup first, so the uplink to the origin is already up
    // and the only session that comes or goes below is the bomber's.
    let stub = sim.add_node(
        "stub",
        Box::new(StubResolver::new(
            StubMode::Moqt,
            Addr::new(relay, MOQT_PORT),
            3,
        )),
    );
    sim.run_for(Duration::from_millis(10));
    sim.with_node::<StubResolver, _>(stub, |s, ctx| {
        s.lookup(ctx, Question::new(www(), RecordType::A))
    });
    sim.run_for(Duration::from_millis(500));
    assert_eq!(sim.node_ref::<RelayNode>(relay).session_count(), 2);
    sim.add_node(
        "bomber",
        Box::new(FetchBombNode::new(
            Addr::new(relay, MOQT_PORT),
            Duration::from_millis(200),
            4,
            9,
        )),
    );

    let deadline = sim.now() + Duration::from_secs(5);
    let mut sessions_before = 0;
    while sim.now() < deadline {
        let r = sim.node_ref::<RelayNode>(relay);
        if r.stats().evicted_sessions == 1 {
            // This is the state right after the one turn that evicted.
            assert_eq!(
                r.session_count(),
                sessions_before - 1,
                "the evicted session outlived the turn that evicted it"
            );
            return;
        }
        sessions_before = r.session_count();
        assert!(sim.step(), "the bomber keeps the world busy");
    }
    panic!("the bomber was never evicted");
}

/// Every pushed object rides its own uni stream. When the datagram that
/// carried version 2 is lost, version 3 arrives first and the
/// retransmission of 2 after it; the stub must keep 3.
#[test]
fn a_reordered_push_does_not_regress_the_answer() {
    let up = LinkConfig::with_delay(Duration::from_millis(5));
    let mut sim = ParSim::new(7, 1);
    sim.set_default_link(up);
    let auth = sim.add_node(0, "auth", auth());
    let stub = sim.add_node(
        0,
        "stub",
        Box::new(StubResolver::new(
            StubMode::Moqt,
            Addr::new(auth, MOQT_PORT),
            3,
        )),
    );
    let question = Question::new(www(), RecordType::A);
    sim.run_for(Duration::from_millis(10));
    let q = question.clone();
    sim.with_node::<StubResolver, _>(stub, |s, ctx| s.lookup(ctx, q));
    sim.run_until(SimTime::from_millis(900));
    assert_eq!(sim.node_ref::<StubResolver>(stub).subscription_count(), 1);

    // The burst swallows the second version's only datagram; the third
    // is published just after the link heals. One list in time order:
    // the burst's two edges and the two changes.
    let ms = SimTime::from_millis;
    let burst = FaultPlanBuilder::new(1)
        .loss_burst(auth, stub, up, 1.0, ms(990), ms(1010))
        .build();
    let edges = burst.events().iter().map(|&(at, edge)| (at, Err(edge)));
    let mut script: Vec<_> = edges
        .chain([(ms(1000), Ok(2)), (ms(1012), Ok(3))])
        .collect();
    script.sort_by_key(|&(at, _)| at);
    play(
        &mut sim,
        script,
        SimTime::from_secs(3),
        |sim, step| match step {
            Ok(version) => set_a(sim, auth, version),
            Err(edge) => edge.apply(sim, |_, _, _| {}),
        },
    );

    let s = sim.node_ref::<StubResolver>(stub);
    let versions: Vec<u64> = s.metrics.updates.iter().map(|u| u.version).collect();
    assert_eq!(versions.len(), 2, "both pushes arrived: {versions:?}");
    assert!(
        versions[0] > versions[1],
        "the older one arrived last: {versions:?}"
    );
    assert_eq!(
        s.metrics.counts.objects_received, 2,
        "arrivals are still counted"
    );
    assert_eq!(s.metrics.counts.stale_objects_dropped, 1);
    assert_eq!(
        s.answer(&question).unwrap()[0].rdata,
        RData::A(Ipv4Addr::new(192, 0, 2, 3)),
        "the stub kept the newer answer"
    );
}

/// A second lookup of a name whose first lookup is still in flight (a
/// subscription, no answer yet) waits on that lookup's joining fetch: one
/// SUBSCRIBE, one FETCH, two samples. A second SUBSCRIBE of the track on
/// the same session would have every later push delivered, and counted,
/// twice.
#[test]
fn a_lookup_of_a_name_already_in_flight_joins_it() {
    let mut sim = ParSim::new(7, 1);
    sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(5)));
    let auth = sim.add_node(0, "auth", auth());
    let stub = sim.add_node(
        0,
        "stub",
        Box::new(StubResolver::new(
            StubMode::Moqt,
            Addr::new(auth, MOQT_PORT),
            3,
        )),
    );
    let question = Question::new(www(), RecordType::A);
    sim.run_for(Duration::from_millis(10));
    for _ in 0..2 {
        let q = question.clone();
        sim.with_node::<StubResolver, _>(stub, |s, ctx| s.lookup(ctx, q));
        sim.run_for(Duration::from_millis(1));
    }
    sim.run_for(Duration::from_millis(500));

    let s = sim.node_ref::<StubResolver>(stub);
    assert_eq!(
        (
            s.metrics.counts.subscribes_sent,
            s.metrics.counts.fetches_sent
        ),
        (1, 1)
    );
    assert_eq!(s.subscription_count(), 1);
    let lookups = &s.metrics.lookups;
    assert_eq!(lookups.len(), 2, "each lookup got its sample");
    assert!(lookups.iter().all(|l| l.ok && l.version.is_some()));
    assert_eq!(lookups[0].finished, lookups[1].finished, "one answer");
    assert_eq!(
        lookups[1].latency() - lookups[0].latency(),
        Duration::from_millis(1),
        "each measured from its own start"
    );
    assert_eq!(sim.node_ref::<AuthServer>(auth).subscription_count(), 1);

    set_a(&mut sim, auth, 2);
    sim.run_for(Duration::from_millis(500));
    let s = sim.node_ref::<StubResolver>(stub);
    assert_eq!(
        s.metrics.counts.objects_received, 1,
        "the push arrived once"
    );
    assert_eq!(s.metrics.updates.len(), 1);
    assert_eq!(
        s.answer(&question).unwrap()[0].rdata,
        RData::A(Ipv4Addr::new(192, 0, 2, 2))
    );
}

/// `transmit` arms a timer for the endpoint's next deadline at the end of
/// every turn, and most turns move that deadline earlier (a PTO under an
/// idle timeout). The superseded timer must be cancelled, not left to
/// fire: a stale one that fires finds the stack re-armed, re-arms again,
/// and the pending timers only ever grow — 306 pending events here and
/// 19,421 over the idle ten minutes when they were left, enough on a
/// 16-minute round trip that the deep-space experiment never finished.
#[test]
fn a_stack_keeps_one_protocol_timer() {
    let hosts: Vec<String> = (0..60).map(|i| format!("h{i}")).collect();
    let mut w = World::build(&WorldSpec {
        zones: vec![ZoneSpec::example(
            hosts.iter().map(|h| (h.clone(), 300)).collect(),
        )],
        ..WorldSpec::default()
    });
    for host in &hosts {
        w.lookup(0, &format!("{host}.example.com"), Duration::from_secs(1));
    }
    w.sim.run_for(Duration::from_secs(60));
    // Root, TLD, auth, recursive, stub.
    let nodes = 5;
    let queued = w.sim.history().armed;
    let pending = queued.total() + queued.cancelled;
    assert!(
        pending <= nodes && queued.timers_at_busiest <= 1,
        "{pending} pending events for {nodes} nodes: {queued:?}"
    );
    let events = w.sim.run_for(Duration::from_secs(600));
    assert!(events < 1_000, "{events} events in ten idle minutes");
}
