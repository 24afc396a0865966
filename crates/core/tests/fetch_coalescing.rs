//! Integration: relay fetch coalescing and uplink recovery rebalancing
//! (paper §3 — relays aggregate *all* downstream demand, fetches
//! included).
//!
//! * A joining-fetch stampede — N stubs subscribing to the same track at
//!   the same instant through a 2-tier relay chain — must produce exactly
//!   ONE upstream fetch per relay tier (the pending-fetch table coalesces
//!   the rest and fans the single result out to every waiter).
//! * A killed-and-revived uplink must get its hash shard back: edges
//!   ring-walk tracks away when it dies and *rebalance* them home when
//!   the recovery probe re-attaches, with updates flowing throughout.

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
use moqdns_moqt::relay::{track_hash, Route};
use moqdns_moqt::session::SessionEvent;
use moqdns_netsim::topo::TopoBuilder;
use moqdns_netsim::{Addr, Ctx, LinkConfig, Node, NodeId, Payload, Simulator};
use moqdns_quic::TransportConfig;
use std::any::Any;
use std::net::Ipv4Addr;
use std::time::Duration;

fn record_name(i: usize) -> Name {
    format!("r{i}.coalesce.example").parse().unwrap()
}

fn question(i: usize) -> Question {
    Question::new(record_name(i), RecordType::A)
}

fn zone_with(tracks: usize) -> Zone {
    let mut zone = Zone::with_default_soa("coalesce.example".parse().unwrap());
    for i in 0..tracks {
        zone.add_record(Record::new(
            record_name(i),
            60,
            RData::A(Ipv4Addr::new(192, 0, 2, i as u8 + 1)),
        ));
    }
    zone
}

/// N stubs join the same track simultaneously through a 2-tier relay
/// chain (auth → hop1 → hop2): exactly one upstream fetch per tier.
#[test]
fn stampede_coalesces_to_one_fetch_per_tier() {
    const N_STUBS: usize = 12;
    let mut sim = Simulator::new(31);
    let link = LinkConfig::with_delay(Duration::from_millis(10));
    sim.set_default_link(link);
    let zone = zone_with(1);

    let topo = TopoBuilder::chain("auth", 2, link)
        .tier("stub", N_STUBS, 1, link)
        .build(&mut sim, |sim, ctx| match ctx.tier_name {
            "auth" => sim.add_node(
                ctx.name.clone(),
                Box::new(AuthServer::new(
                    Authority::single(zone.clone()),
                    TransportConfig::patient(),
                    11,
                )),
            ),
            // Both hops share seed 40 deliberately: equal seeds make the
            // two relays generate identical client cid sequences, which
            // used to let hop1's dial to auth *overwrite* its accepted
            // downstream connection from hop2 (handle = cid). This test
            // doubles as the regression test for that endpoint fix.
            "hop1" | "hop2" => sim.add_node(
                ctx.name.clone(),
                Box::new(RelayNode::new(
                    Addr::new(ctx.parents[0], MOQT_PORT),
                    0,
                    40 + ctx.index as u64,
                )),
            ),
            _ => sim.add_node(
                ctx.name.clone(),
                Box::new(TreeStub::new(
                    Addr::new(ctx.parents[0], MOQT_PORT),
                    vec![question(0)],
                    100 + ctx.index as u64,
                )),
            ),
        });

    sim.run_until(sim.now() + Duration::from_secs(5));

    // Every stub's joining fetch was answered…
    let stubs: Vec<NodeId> = topo.tier_named("stub").to_vec();
    for &s in &stubs {
        assert_eq!(
            sim.node_ref::<TreeStub>(s).fetched,
            1,
            "joining fetch served"
        );
    }

    // …yet each relay tier escalated exactly ONE upstream fetch: the
    // stampede of 12 concurrent fetches collapsed at the first tier, and
    // the single hop2→hop1 fetch trivially stayed single at the next.
    let hop2 = sim.node_ref::<RelayNode>(topo.tier_named("hop2")[0]);
    assert_eq!(hop2.stats().fetch_cache_misses, N_STUBS as u64);
    assert_eq!(hop2.stats().fetch_coalesced, N_STUBS as u64 - 1);
    assert_eq!(hop2.stats().upstream_fetches, 1, "one fetch left hop2");
    assert_eq!(hop2.stats().fetch_waiters_served, N_STUBS as u64);
    assert_eq!(hop2.pending_fetch_count(), 0, "table drained");

    let hop1 = sim.node_ref::<RelayNode>(topo.tier_named("hop1")[0]);
    assert_eq!(hop1.stats().fetch_cache_misses, 1);
    assert_eq!(hop1.stats().upstream_fetches, 1, "one fetch reached auth");
    assert_eq!(hop1.stats().fetch_waiters_served, 1);

    // The coalesced result must not break live distribution: an update
    // still reaches every stub exactly once.
    let auth = topo.tier_named("auth")[0];
    sim.with_node::<AuthServer, _>(auth, |a, ctx| {
        a.update_zone(ctx, |authority| {
            let name = record_name(0);
            if let Some(z) = authority.find_zone_mut(&name) {
                z.set_records(
                    &name,
                    RecordType::A,
                    vec![Record::new(
                        name.clone(),
                        60,
                        RData::A(Ipv4Addr::new(198, 51, 100, 7)),
                    )],
                );
            }
        });
    });
    sim.run_until(sim.now() + Duration::from_secs(5));
    for &s in &stubs {
        assert_eq!(sim.node_ref::<TreeStub>(s).updates, 1);
    }
}

/// A leaf that issues one *standalone* fetch for an explicit group range
/// (no subscription), for the range-reuse drill below.
struct RangeFetcher {
    stack: MoqtStack,
    server: Addr,
    range: (u64, u64),
    /// Objects returned for the fetch (None until answered).
    got: Option<Vec<u64>>,
}

impl RangeFetcher {
    fn new(server: Addr, range: (u64, u64), seed: u64) -> RangeFetcher {
        RangeFetcher {
            stack: MoqtStack::client(TransportConfig::patient(), seed),
            server,
            range,
            got: None,
        }
    }
}

impl StackNode for RangeFetcher {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }
    fn handle_events(&mut self, _ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        for e in events {
            if let StackEvent::Session(_, SessionEvent::FetchObjects { objects, .. }) = e {
                self.got = Some(objects.iter().map(|o| o.group_id).collect());
            }
        }
    }
}

impl Node for RangeFetcher {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let Some(h) = self.stack.connect(ctx.now(), self.server, false) else {
            return;
        };
        let track = track_from_question(&question(0), RequestFlags::iterative()).unwrap();
        if let Some((sess, conn)) = self.stack.session_conn(h) {
            sess.fetch(conn, track, self.range.0, self.range.1);
        }
        self.end_turn(ctx);
    }
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

/// Fetch-result range reuse: a whole-track joining fetch opens the one
/// upstream fetch; a concurrent standalone fetch for a group-range
/// *subset* must be served from that in-flight result — `upstream_fetches`
/// stays 1 under mixed whole-track + subset waiters, and the subset
/// waiter receives only the groups it asked for.
#[test]
fn subset_fetch_reuses_inflight_whole_track_fetch() {
    let mut sim = Simulator::new(37);
    let link = LinkConfig::with_delay(Duration::from_millis(10));
    sim.set_default_link(link);
    let zone = zone_with(1);

    // auth → one relay → {whole-track subscriber, subset fetcher}.
    let topo =
        TopoBuilder::chain("auth", 1, link).build(&mut sim, |sim, ctx| match ctx.tier_name {
            "auth" => sim.add_node(
                ctx.name.clone(),
                Box::new(AuthServer::new(
                    Authority::single(zone.clone()),
                    TransportConfig::patient(),
                    11,
                )),
            ),
            _ => sim.add_node(
                ctx.name.clone(),
                Box::new(RelayNode::new(Addr::new(ctx.parents[0], MOQT_PORT), 0, 40)),
            ),
        });
    let relay = topo.tier_named("hop1")[0];
    // Both leaves start at t=0: their fetches race into the relay's cold
    // cache within the same RTT window.
    let whole = sim.add_node(
        "whole-track",
        Box::new(TreeStub::new(
            Addr::new(relay, MOQT_PORT),
            vec![question(0)],
            100,
        )),
    );
    // The zone currently holds version 1 of the record; ask for exactly
    // the group range covering it (a strict subset of the whole track).
    let subset = sim.add_node(
        "subset",
        Box::new(RangeFetcher::new(Addr::new(relay, MOQT_PORT), (0, 2), 101)),
    );
    sim.set_link(whole, relay, link);
    sim.set_link(subset, relay, link);
    sim.run_until(sim.now() + Duration::from_secs(5));

    // Both waiters served...
    assert_eq!(
        sim.node_ref::<TreeStub>(whole).fetched,
        1,
        "joining fetch served"
    );
    let got = sim
        .node_ref::<RangeFetcher>(subset)
        .got
        .clone()
        .expect("subset fetch answered");
    assert!(!got.is_empty(), "subset waiter got its groups");
    assert!(
        got.iter().all(|&g| g <= 2),
        "subset waiter only got requested groups: {got:?}"
    );
    // ...from ONE upstream fetch: the subset request coalesced into the
    // in-flight whole-track fetch instead of opening a second one.
    let r = sim.node_ref::<RelayNode>(relay);
    assert_eq!(r.stats().fetch_cache_misses, 2, "both fetches missed cold");
    assert_eq!(r.stats().upstream_fetches, 1, "one upstream fetch total");
    assert_eq!(
        r.stats().fetch_coalesced,
        1,
        "subset joined the waiter list"
    );
    assert_eq!(r.stats().fetch_waiters_served, 2);
    assert_eq!(r.pending_fetch_count(), 0, "table drained");
}

/// A hash-shard edge whose uplink dies and comes back: tracks ring-walk
/// away (reroutes), the recovery probe re-attaches, and the shard moves
/// home again (rebalances) — updates delivered in every phase.
#[test]
fn revived_uplink_reclaims_shard_through_probe() {
    const TRACKS: usize = 4;
    let mut sim = Simulator::new(33);
    let link = LinkConfig::with_delay(Duration::from_millis(10));
    sim.set_default_link(link);
    let zone = zone_with(TRACKS);
    let questions: Vec<Question> = (0..TRACKS).map(question).collect();
    let qs = questions.clone();

    // auth → 2 cores → 1 hash-shard edge → 2 stubs.
    let topo = TopoBuilder::new()
        .tier("auth", 1, 0, link)
        .tier("core", 2, 1, link)
        .tier("edge", 1, 2, link)
        .tier("stub", 2, 1, link)
        .build(&mut sim, |sim, ctx| match ctx.tier_name {
            "auth" => sim.add_node(
                ctx.name.clone(),
                Box::new(AuthServer::new(
                    Authority::single(zone.clone()),
                    TransportConfig::patient(),
                    11,
                )),
            ),
            "core" => sim.add_node(
                ctx.name.clone(),
                Box::new(RelayNode::new(
                    Addr::new(ctx.parents[0], MOQT_PORT),
                    0,
                    40 + ctx.index as u64,
                )),
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
                        RelayNode::with_policy(parents, Route::HashShard, 60)
                            .probe_interval(Duration::from_secs(1)),
                    ),
                )
            }
            _ => sim.add_node(
                ctx.name.clone(),
                Box::new(TreeStub::new(
                    Addr::new(ctx.parents[0], MOQT_PORT),
                    qs.clone(),
                    100 + ctx.index as u64,
                )),
            ),
        });
    sim.run_until(sim.now() + Duration::from_secs(5));

    let cores = topo.tier_named("core").to_vec();
    let edge = topo.tier_named("edge")[0];
    let stubs = topo.tier_named("stub").to_vec();
    let auth = topo.tier_named("auth")[0];

    // Shard arithmetic: which uplink is home per track. (The edge's
    // uplink order equals `cores` order — one edge, rotation starts at 0.)
    let home = |i: usize| {
        let t = track_from_question(&questions[i], RequestFlags::iterative()).unwrap();
        (track_hash(&t) % 2) as usize
    };
    let victim = home(0);
    let victim_shard = (0..TRACKS).filter(|&i| home(i) == victim).count() as u64;

    let update_all = |sim: &mut Simulator, octet: u8| {
        for i in 0..TRACKS {
            let name = record_name(i);
            sim.with_node::<AuthServer, _>(auth, |a, ctx| {
                a.update_zone(ctx, |authority| {
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
        sim.run_until(sim.now() + Duration::from_secs(5));
    };
    let delivered = |sim: &Simulator| -> u64 {
        stubs
            .iter()
            .map(|&s| sim.node_ref::<TreeStub>(s).updates)
            .sum()
    };

    // Phase 1: healthy mesh.
    update_all(&mut sim, 50);
    assert_eq!(delivered(&sim), (TRACKS * stubs.len()) as u64);

    // Kill the victim core: the edge ring-walks its shard to the other.
    sim.with_node::<RelayNode, _>(cores[victim], |r, ctx| r.shutdown(ctx));
    sim.run_until(sim.now() + Duration::from_secs(3));
    {
        let e = sim.node_ref::<RelayNode>(edge);
        assert_eq!(e.stats().reroutes, victim_shard);
        assert_eq!(e.stats().rebalances, 0);
    }
    let before = delivered(&sim);
    update_all(&mut sim, 51);
    assert_eq!(
        delivered(&sim) - before,
        (TRACKS * stubs.len()) as u64,
        "zero post-kill loss"
    );

    // Revive: the edge's 1 s probe re-dials, the Ready event marks the
    // uplink healthy, and the shard rebalances home.
    sim.with_node::<RelayNode, _>(cores[victim], |r, _| r.revive());
    sim.run_until(sim.now() + Duration::from_secs(10));
    {
        let e = sim.node_ref::<RelayNode>(edge);
        assert_eq!(e.stats().rebalances, victim_shard, "shard reclaimed");
        assert_eq!(e.upstream_subscription_count(), TRACKS);
    }
    assert_eq!(
        sim.node_ref::<RelayNode>(cores[victim])
            .upstream_subscription_count() as u64,
        victim_shard,
        "revived core re-aggregates its shard upstream"
    );
    let before = delivered(&sim);
    update_all(&mut sim, 52);
    assert_eq!(
        delivered(&sim) - before,
        (TRACKS * stubs.len()) as u64,
        "zero post-recovery loss"
    );
}

/// A relay facing a long uplink outage must redial on a *bounded,
/// counted* schedule: capped exponential backoff (base, 2×, 4×, then
/// flat at [`moqdns_core::relay_node::PROBE_MAX_BACKOFF`]× + jitter)
/// instead of a fixed-rate storm, with every attempt visible in
/// `RelayStats::redials` — and it must still reclaim the uplink promptly
/// after revival, after which the counter stops moving.
#[test]
fn redial_storm_is_counted_and_bounded_by_backoff() {
    const TRACKS: usize = 4;
    let mut sim = Simulator::new(44);
    let link = LinkConfig::with_delay(Duration::from_millis(10));
    sim.set_default_link(link);
    let zone = zone_with(TRACKS);
    let questions: Vec<Question> = (0..TRACKS).map(question).collect();
    let qs = questions.clone();

    // A straight chain: auth → core → edge (1 s probe base) → 2 stubs.
    let topo = TopoBuilder::new()
        .tier("auth", 1, 0, link)
        .tier("core", 1, 1, link)
        .tier("edge", 1, 1, link)
        .tier("stub", 2, 1, link)
        .build(&mut sim, |sim, ctx| match ctx.tier_name {
            "auth" => sim.add_node(
                ctx.name.clone(),
                Box::new(AuthServer::new(
                    Authority::single(zone.clone()),
                    TransportConfig::patient(),
                    11,
                )),
            ),
            "core" | "edge" => {
                let r = RelayNode::new(
                    Addr::new(ctx.parents[0], MOQT_PORT),
                    0,
                    40 + ctx.index as u64,
                );
                let r = if ctx.tier_name == "edge" {
                    r.probe_interval(Duration::from_secs(1))
                } else {
                    r
                };
                sim.add_node(ctx.name.clone(), Box::new(r))
            }
            _ => sim.add_node(
                ctx.name.clone(),
                Box::new(TreeStub::new(
                    Addr::new(ctx.parents[0], MOQT_PORT),
                    qs.clone(),
                    100 + ctx.index as u64,
                )),
            ),
        });
    sim.run_until(sim.now() + Duration::from_secs(5));

    let auth = topo.tier_named("auth")[0];
    let core = topo.tier_named("core")[0];
    let edge = topo.tier_named("edge")[0];
    let stubs = topo.tier_named("stub").to_vec();

    let update_all = |sim: &mut Simulator, octet: u8| {
        for i in 0..TRACKS {
            let name = record_name(i);
            sim.with_node::<AuthServer, _>(auth, |a, ctx| {
                a.update_zone(ctx, |authority| {
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
        sim.run_until(sim.now() + Duration::from_secs(5));
    };
    let delivered = |sim: &Simulator| -> u64 {
        stubs
            .iter()
            .map(|&s| sim.node_ref::<TreeStub>(s).updates)
            .sum()
    };
    let edge_redials = |sim: &Simulator| sim.node_ref::<RelayNode>(edge).stats().dials.redials;

    // Healthy baseline: full delivery, no redials anywhere.
    update_all(&mut sim, 50);
    assert_eq!(delivered(&sim), (TRACKS * stubs.len()) as u64);
    assert_eq!(edge_redials(&sim), 0);

    // Kill the core and hold the outage for 30 s. The edge's probe
    // schedule from the close is ~1, +2, +4, +8, +8, +8 … (jittered), so
    // a 30 s outage costs a handful of redials — a fixed 1 s cadence
    // would burn ~30.
    sim.with_node::<RelayNode, _>(core, |r, ctx| r.shutdown(ctx));
    sim.run_until(sim.now() + Duration::from_secs(30));
    let storm = edge_redials(&sim);
    assert!(
        (3..=8).contains(&storm),
        "capped backoff should cost 3..=8 redials over 30 s, got {storm}"
    );
    assert_eq!(
        sim.node_ref::<RelayNode>(edge).stats().dials.failed_dials,
        0,
        "dials into a dark peer hang on the handshake, they don't error"
    );

    // Revive: the next (capped) probe lands within ~9 s and reclaims the
    // uplink; the counter stops moving once healthy.
    sim.with_node::<RelayNode, _>(core, |r, _| r.revive());
    sim.run_until(sim.now() + Duration::from_secs(15));
    assert_eq!(
        sim.node_ref::<RelayNode>(edge)
            .upstream_subscription_count(),
        TRACKS,
        "uplink reclaimed and every track resubscribed"
    );
    let after_recovery = edge_redials(&sim);
    assert!(
        after_recovery <= storm + 2,
        "recovery costs at most the in-flight probe plus one: {storm} -> {after_recovery}"
    );
    let before = delivered(&sim);
    update_all(&mut sim, 51);
    assert_eq!(
        delivered(&sim) - before,
        (TRACKS * stubs.len()) as u64,
        "zero post-recovery loss"
    );
    assert_eq!(
        edge_redials(&sim),
        after_recovery,
        "a healthy uplink never redials"
    );
}
