//! Integration: simulated multi-relay distribution trees (paper §3 +
//! §5.3).
//!
//! A 3-tier tree — authoritative server → tier-1 relays → edge relays →
//! stub subscribers — built declaratively with `netsim::topo`, checking:
//!
//! * the §3 aggregation invariant: each update crosses every
//!   auth→tier1 and tier1→edge link exactly once while every stub still
//!   receives every update;
//! * failover: killing a tier-1 relay mid-run re-routes its edge relays
//!   to the surviving tier-1 without losing subsequent updates;
//! * upstream unsubscribe hygiene: when a relay's last downstream
//!   subscriber leaves, the relay drops its own upstream subscription;
//! * determinism of track-hash routing (property test).

use moqdns_core::auth::AuthServer;
use moqdns_core::mapping::{track_from_question, RequestFlags};
use moqdns_core::relay_node::RelayNode;
use moqdns_core::stack::{MoqtStack, StackEvent, StackNode};
use moqdns_core::tree_stub::TreeStub;
use moqdns_core::MOQT_PORT;
use moqdns_dns::message::Question;
use moqdns_dns::name::Name;
use moqdns_dns::rdata::RData;
use moqdns_dns::rr::{Record, RecordType};
use moqdns_dns::server::Authority;
use moqdns_dns::zone::Zone;
use moqdns_moqt::relay::{Failover, HashShard, RoutePolicy, UplinkHealth};
use moqdns_moqt::track::FullTrackName;
use moqdns_moqt::Reason;
use moqdns_netsim::topo::TopoBuilder;
use moqdns_netsim::{Addr, Ctx, LinkConfig, Node, NodeId, Payload, Simulator, Topology};
use moqdns_quic::{ConnHandle, TransportConfig};
use proptest::prelude::*;
use std::any::Any;
use std::net::Ipv4Addr;
use std::time::Duration;

fn record_name() -> Name {
    "www.tree.example".parse().unwrap()
}

fn question() -> Question {
    Question::new(record_name(), RecordType::A)
}

struct Tree {
    sim: Simulator,
    topo: Topology,
    auth: NodeId,
    tier1: Vec<NodeId>,
    edges: Vec<NodeId>,
    stubs: Vec<NodeId>,
}

/// 1 auth, 2 tier-1 relays (static parent → auth), 4 edge relays
/// (failover across both tier-1s), `stubs_per_edge` stubs per edge.
fn build_tree(stubs_per_edge: usize, seed: u64) -> Tree {
    let mut sim = Simulator::new(seed);
    let link = LinkConfig::with_delay(Duration::from_millis(10));
    sim.set_default_link(link);

    let mut zone = Zone::with_default_soa("tree.example".parse().unwrap());
    zone.add_record(Record::new(
        record_name(),
        60,
        RData::A(Ipv4Addr::new(192, 0, 2, 1)),
    ));

    let topo = TopoBuilder::new()
        .tier("auth", 1, 0, link)
        .tier("tier1", 2, 1, link)
        .tier("edge", 4, 2, link)
        .tier("stub", 4 * stubs_per_edge, 1, link)
        .build(&mut sim, |sim, ctx| match ctx.tier_name {
            "auth" => sim.add_node(
                ctx.name.clone(),
                Box::new(AuthServer::new(
                    Authority::single(zone.clone()),
                    TransportConfig::patient(),
                    11,
                )),
            ),
            "tier1" => sim.add_node(
                ctx.name.clone(),
                Box::new(
                    RelayNode::new(
                        Addr::new(ctx.parents[0], MOQT_PORT),
                        0,
                        40 + ctx.index as u64,
                    )
                    .tier("tier1"),
                ),
            ),
            "edge" => {
                let parents: Vec<Addr> = ctx
                    .parents
                    .iter()
                    .map(|&p| Addr::new(p, MOQT_PORT))
                    .collect();
                sim.add_node(
                    ctx.name.clone(),
                    Box::new(
                        RelayNode::with_policy(
                            parents,
                            Box::new(Failover),
                            0,
                            60 + ctx.index as u64,
                        )
                        .tier("edge"),
                    ),
                )
            }
            _ => sim.add_node(
                ctx.name.clone(),
                Box::new(TreeStub::new(
                    Addr::new(ctx.parents[0], MOQT_PORT),
                    vec![question()],
                    100 + ctx.index as u64,
                )),
            ),
        });

    let tree = Tree {
        auth: topo.tier_named("auth")[0],
        tier1: topo.tier_named("tier1").to_vec(),
        edges: topo.tier_named("edge").to_vec(),
        stubs: topo.tier_named("stub").to_vec(),
        topo,
        sim,
    };
    tree
}

fn settle(tree: &mut Tree) {
    let deadline = tree.sim.now() + Duration::from_secs(5);
    tree.sim.run_until(deadline);
}

fn update_record(sim: &mut Simulator, auth: NodeId, octet: u8) {
    sim.with_node::<AuthServer, _>(auth, |a, ctx| {
        a.update_zone(ctx, |authority| {
            let name = record_name();
            if let Some(z) = authority.find_zone_mut(&name) {
                z.set_records(
                    &name,
                    RecordType::A,
                    vec![Record::new(
                        name.clone(),
                        60,
                        RData::A(Ipv4Addr::new(198, 51, 100, octet)),
                    )],
                );
            }
        });
    });
}

fn delivered(tree: &Tree) -> u64 {
    tree.stubs
        .iter()
        .map(|&s| tree.sim.node_ref::<TreeStub>(s).updates)
        .sum()
}

/// The acceptance topology: 1 auth, 2 tier-1, 4 edge, 64 stubs. Every
/// auth→relay and relay→relay link must see exactly one copy of each
/// update while all 64 stubs receive every update.
#[test]
fn aggregation_one_copy_per_link() {
    let mut tree = build_tree(16, 5);
    assert_eq!(tree.stubs.len(), 64);
    settle(&mut tree);

    // All joining fetches answered through two relay tiers.
    for &s in &tree.stubs {
        assert_eq!(
            tree.sim.node_ref::<TreeStub>(s).fetched,
            1,
            "joining fetch served"
        );
    }

    tree.sim.stats_mut().reset();
    const UPDATES: u64 = 3;
    for i in 0..UPDATES {
        update_record(&mut tree.sim, tree.auth, 50 + i as u8);
        let deadline = tree.sim.now() + Duration::from_secs(2);
        tree.sim.run_until(deadline);
    }
    settle(&mut tree);

    // Complete delivery: every stub saw every update.
    for &s in &tree.stubs {
        assert_eq!(tree.sim.node_ref::<TreeStub>(s).updates, UPDATES);
    }
    assert_eq!(delivered(&tree), UPDATES * 64);

    // One copy per upstream link: the auth pushed each update once per
    // tier-1 relay, and each tier-1 forwarded once per attached edge —
    // exactly one datagram per update on every such link, no
    // multiplication by the 64 subscribers below.
    let upstream_links: Vec<(NodeId, NodeId)> = tree
        .topo
        .primary_edges()
        .filter(|(_, child)| tree.tier1.contains(child) || tree.edges.contains(child))
        .collect();
    assert_eq!(upstream_links.len(), 6);
    for (parent, child) in upstream_links {
        let s = tree.sim.stats().between(parent, child);
        assert_eq!(
            s.delivered,
            UPDATES,
            "{} -> {}: exactly one copy of each update",
            tree.sim.node_name(parent),
            tree.sim.node_name(child)
        );
    }

    // The relay layer agrees: one upstream subscription per relay, and
    // per-tier forward counts match tree arithmetic.
    for &id in tree.tier1.iter().chain(&tree.edges) {
        let r = tree.sim.node_ref::<RelayNode>(id);
        assert_eq!(r.upstream_subscription_count(), 1);
    }
    for &id in &tree.tier1 {
        let r = tree.sim.node_ref::<RelayNode>(id);
        assert_eq!(r.stats().objects_forwarded, UPDATES * 2, "2 edges each");
    }
    for &id in &tree.edges {
        let r = tree.sim.node_ref::<RelayNode>(id);
        assert_eq!(r.stats().objects_forwarded, UPDATES * 16, "16 stubs each");
    }
}

/// Killing one tier-1 relay mid-run: its edge relays fail over to the
/// surviving tier-1 and stubs keep receiving updates.
#[test]
fn failover_survives_tier1_kill() {
    let mut tree = build_tree(2, 6);
    settle(&mut tree);

    update_record(&mut tree.sim, tree.auth, 77);
    settle(&mut tree);
    let after_phase1 = delivered(&tree);
    assert_eq!(after_phase1, 8, "all 8 stubs got the pre-kill update");

    // Take tier1[0] down; edges 0 and 2 (its children) must re-route.
    let victim = tree.tier1[0];
    tree.sim.with_node::<RelayNode, _>(victim, |r, ctx| {
        r.shutdown(ctx);
    });
    settle(&mut tree);

    update_record(&mut tree.sim, tree.auth, 78);
    let deadline = tree.sim.now() + Duration::from_secs(10);
    tree.sim.run_until(deadline);

    assert_eq!(
        delivered(&tree) - after_phase1,
        8,
        "all stubs converged on the surviving path"
    );
    let reroutes: u64 = tree
        .edges
        .iter()
        .map(|&e| tree.sim.node_ref::<RelayNode>(e).stats().reroutes)
        .sum();
    assert_eq!(reroutes, 2, "edge0 and edge2 re-routed their track");
    // The surviving tier-1 now carries the whole tree.
    let survivor = tree.sim.node_ref::<RelayNode>(tree.tier1[1]);
    assert_eq!(survivor.upstream_subscription_count(), 1);
    assert!(tree.sim.node_ref::<RelayNode>(victim).is_dead());
}

/// Upstream unsubscribe hygiene (§3): when the last downstream subscriber
/// of a track unsubscribes, the relay drops its upstream subscription —
/// observable at the authoritative server.
#[test]
fn relay_drops_upstream_sub_when_last_downstream_leaves() {
    let mut sim = Simulator::new(9);
    sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(10)));
    let mut zone = Zone::with_default_soa("tree.example".parse().unwrap());
    zone.add_record(Record::new(
        record_name(),
        60,
        RData::A(Ipv4Addr::new(192, 0, 2, 1)),
    ));
    let auth = sim.add_node(
        "auth",
        Box::new(AuthServer::new(
            Authority::single(zone),
            TransportConfig::default(),
            1,
        )),
    );
    let relay = sim.add_node(
        "relay",
        Box::new(RelayNode::new(Addr::new(auth, MOQT_PORT), 0, 2)),
    );

    /// Driveable client: subscribes/unsubscribes on demand.
    struct Client {
        stack: MoqtStack,
    }
    impl StackNode for Client {
        fn stack(&mut self) -> &mut MoqtStack {
            &mut self.stack
        }
        fn handle_events(&mut self, _ctx: &mut Ctx<'_>, _events: Vec<StackEvent>) {}
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
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any_ref(&self) -> &dyn Any {
            self
        }
    }
    let client = sim.add_node(
        "client",
        Box::new(Client {
            stack: MoqtStack::client(TransportConfig::default(), 3),
        }),
    );
    sim.run_until(sim.now() + Duration::from_millis(100));

    let relay_addr = Addr::new(relay, MOQT_PORT);
    let (h, sub_id) = sim.with_node::<Client, _>(client, |c, ctx| {
        let h = c.stack.connect(ctx.now(), relay_addr, false).unwrap();
        let track = track_from_question(&question(), RequestFlags::iterative()).unwrap();
        let (sess, conn) = c.stack.session_conn(h).unwrap();
        let id = sess.subscribe(conn, track);
        c.end_turn(ctx);
        (h, id)
    });
    sim.run_until(sim.now() + Duration::from_secs(2));

    // One downstream sub at the relay, one aggregated upstream sub at the
    // authoritative server.
    assert_eq!(
        sim.node_ref::<RelayNode>(relay)
            .upstream_subscription_count(),
        1
    );
    assert_eq!(sim.node_ref::<AuthServer>(auth).subscription_count(), 1);

    // The last (only) downstream subscriber leaves…
    sim.with_node::<Client, _>(client, |c, ctx| {
        let (sess, conn) = c.stack.session_conn(h).unwrap();
        sess.unsubscribe(conn, sub_id);
        c.end_turn(ctx);
    });
    sim.run_until(sim.now() + Duration::from_secs(2));

    // …and the relay's upstream subscription is gone, all the way up.
    assert_eq!(
        sim.node_ref::<RelayNode>(relay)
            .upstream_subscription_count(),
        0,
        "relay dropped its aggregated upstream subscription"
    );
    assert_eq!(
        sim.node_ref::<AuthServer>(auth).subscription_count(),
        0,
        "authoritative server no longer carries the relay's subscription"
    );
}

/// Whole-session teardown has the same hygiene as explicit unsubscribe.
#[test]
fn relay_drops_upstream_sub_when_downstream_session_dies() {
    let mut tree = build_tree(1, 12);
    settle(&mut tree);
    for &e in &tree.edges {
        assert_eq!(
            tree.sim
                .node_ref::<RelayNode>(e)
                .upstream_subscription_count(),
            1
        );
    }
    // Every stub leaves (the edge sees the peer vanish via QUIC
    // teardown, forced with a close).
    for &s in tree.stubs.clone().iter() {
        tree.sim.with_node::<TreeStub, _>(s, |n, ctx| n.leave(ctx));
    }
    let deadline = tree.sim.now() + Duration::from_secs(5);
    tree.sim.run_until(deadline);
    for &e in &tree.edges {
        assert_eq!(
            tree.sim
                .node_ref::<RelayNode>(e)
                .upstream_subscription_count(),
            0,
            "edge relay dropped upstream subs after losing all stubs"
        );
    }
}

/// A relay and a stub whose connections allow two data streams at once,
/// and four fetches issued together on top of the joining one: the
/// cache answers every one, the answers past the window wait for the
/// credit the stub earns by reading (`docs/deviations/01`), and every
/// answer arrives with nothing refused.
#[test]
fn fetch_answers_past_the_stream_window_are_all_delivered() {
    let mut sim = Simulator::new(21);
    sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(10)));
    // Each side grants the peer its own limit: the window is everyone's.
    let capped = TransportConfig {
        max_streams: 2,
        ..TransportConfig::patient()
    };
    let mut zone = Zone::with_default_soa("tree.example".parse().unwrap());
    zone.add_record(Record::new(
        record_name(),
        60,
        RData::A(Ipv4Addr::new(192, 0, 2, 1)),
    ));
    let authority = Authority::single(zone);
    let auth = sim.add_node(
        "auth",
        Box::new(AuthServer::new(authority, capped.clone(), 11)),
    );
    let relay = RelayNode::new(Addr::new(auth, MOQT_PORT), 0, 40).transport(capped.clone());
    let relay = sim.add_node("relay", Box::new(relay));
    let server = Addr::new(relay, MOQT_PORT);
    let stub = TreeStub::with_transport(server, vec![question()], 100, capped);
    let stub = sim.add_node("stub", Box::new(stub));
    sim.run_until(sim.now() + Duration::from_secs(5));
    assert_eq!(
        sim.node_ref::<TreeStub>(stub).fetched,
        1,
        "the joining fetch"
    );

    const FETCHES: u64 = 4;
    for _ in 0..FETCHES {
        let issued = sim.with_node::<TreeStub, _>(stub, |n, ctx| n.fetch(ctx, 0));
        assert!(issued, "still open");
    }
    sim.run_until(sim.now() + Duration::from_secs(1));
    let stats = sim.node_ref::<RelayNode>(relay).stats();
    assert_eq!(stats.fetch_cache_hits, FETCHES, "the core served each");
    assert_eq!(
        sim.node_ref::<TreeStub>(stub).fetched,
        1 + FETCHES,
        "and each answer arrived"
    );
    assert_eq!(stats.reasons, Default::default(), "nothing refused");
    assert_eq!(stats.session.violations, 0);
}

/// A client that keeps fetching and reads nothing it is sent: its
/// connection acknowledges every packet, but no stream reaches its
/// session, so it never grants stream credit.
struct Withholder {
    stack: MoqtStack,
    server: Addr,
    conn: Option<ConnHandle>,
}

impl Withholder {
    fn fetch(&mut self, ctx: &mut Ctx<'_>) {
        let track = track_from_question(&question(), RequestFlags::iterative()).unwrap();
        let h = self.conn.expect("dialled");
        let (sess, conn) = self.stack.session_conn(h).expect("still open");
        sess.fetch(conn, track, 0, u64::MAX);
        self.end_turn(ctx);
    }
}

impl StackNode for Withholder {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }

    fn handle_events(&mut self, _ctx: &mut Ctx<'_>, _events: Vec<StackEvent>) {}
}

impl Node for Withholder {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.conn = self.stack.connect(ctx.now(), self.server, false);
        self.end_turn(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, _to: u16, data: Payload) {
        self.stack.on_datagram(ctx.now(), from, &data);
        let ready = self.conn.and_then(|h| self.stack.session(h));
        if ready.is_some_and(|s| s.is_ready()) {
            // Past SETUP nothing reaches the session: no stream is read.
            while self.stack.endpoint.poll_event().is_some() {}
        }
        self.end_turn(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        self.stack.on_timer(ctx.now());
        self.end_turn(ctx);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

/// A client that withholds stream credit while it fetches a cached
/// record over and over costs the relay two windows of streams: one
/// window of answers goes out (and is acknowledged), one waits for
/// credit, and every later answer is refused and counted. What the relay
/// holds stops growing.
#[test]
fn a_client_withholding_stream_credit_costs_the_relay_two_windows() {
    const WINDOW: u64 = 4;
    let mut sim = Simulator::new(23);
    sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(10)));
    let capped = TransportConfig {
        max_streams: WINDOW,
        ..TransportConfig::patient()
    };
    let mut zone = Zone::with_default_soa("tree.example".parse().unwrap());
    zone.add_record(Record::new(
        record_name(),
        60,
        RData::A(Ipv4Addr::new(192, 0, 2, 1)),
    ));
    let authority = Authority::single(zone);
    let auth = sim.add_node(
        "auth",
        Box::new(AuthServer::new(authority, capped.clone(), 11)),
    );
    let relay = RelayNode::new(Addr::new(auth, MOQT_PORT), 0, 40).transport(capped.clone());
    let relay = sim.add_node("relay", Box::new(relay));
    let server = Addr::new(relay, MOQT_PORT);
    // An honest subscriber puts the record in the relay's cache.
    let stub = TreeStub::with_transport(server, vec![question()], 100, capped.clone());
    let stub = sim.add_node("stub", Box::new(stub));
    let withholder = Withholder {
        stack: MoqtStack::client(capped, 5),
        server,
        conn: None,
    };
    let withholder = sim.add_node("withholder", Box::new(withholder));
    sim.run_until(sim.now() + Duration::from_secs(5));
    assert_eq!(sim.node_ref::<TreeStub>(stub).fetched, 1, "cached");

    const FETCHES: u64 = 80;
    let mut held = Vec::new();
    for _ in 0..FETCHES {
        sim.with_node::<Withholder, _>(withholder, |n, ctx| n.fetch(ctx));
        sim.run_until(sim.now() + Duration::from_millis(100));
        let bytes = sim.with_node::<RelayNode, _>(relay, |n, _| n.stack().state_size_estimate());
        held.push(bytes);
    }
    let stats = sim.node_ref::<RelayNode>(relay).stats();
    assert_eq!(stats.fetch_cache_hits, FETCHES, "the core served each");
    assert_eq!(stats.reasons[Reason::StreamLimit], FETCHES - 2 * WINDOW);
    assert_eq!(stats.session.violations, 0);
    // Past a window waiting only warm-up growth is left (a one-time step
    // around fetch 32); the second half is flat.
    let half = held.len() / 2;
    assert!(
        held[half..].iter().all(|&b| b == held[half]),
        "flat: {held:?}"
    );
}

proptest! {
    /// Track-hash routing is a pure function of (track, shard count,
    /// health): fresh policy instances agree, regardless of any
    /// simulation seed or construction order.
    #[test]
    fn prop_hash_routing_deterministic(
        ns in proptest::collection::vec(any::<u8>(), 1..16),
        name in proptest::collection::vec(any::<u8>(), 0..16),
        k in 1u64..8,
    ) {
        let track = FullTrackName::new(vec![ns], name).unwrap();
        let k = k as usize;
        let h1 = UplinkHealth::new(k);
        let h2 = UplinkHealth::new(k);
        let r1 = HashShard.route(&track, &h1);
        let r2 = HashShard.route(&track, &h2);
        prop_assert_eq!(r1, r2);
        let u = r1.unwrap();
        prop_assert!(u < k);
        // Stable under repetition.
        for _ in 0..3 {
            prop_assert_eq!(HashShard.route(&track, &h1), Some(u));
        }
    }
}
