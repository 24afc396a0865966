//! The gated scenarios: each a function from the shared flags to a filled
//! [`InvariantGate`], listed in [`SCENARIOS`], driven by the one
//! `exp_scenario` binary and replayed against the committed baselines by
//! `tests/baselines_replay.rs`. The ten here build a [`RelayWorld`] from
//! a plan in [`crate::plans`] and compose the phase blocks below —
//! stampede fetch routing, one-copy update rounds, origin-kill +
//! cold-join drill, per-tier table — around it; the paper's own figures
//! are [`crate::paper`]'s. Each prints its tables and writes their CSVs
//! into `results/`.

use crate::cli::BenchOpts;
use crate::gate::InvariantGate;
use crate::paper;
use crate::plans::{self, AttackKind};
use crate::report;
use crate::worlds::{apply_relay_fault, Cohort, RelayWorld, TreeStub};
use moqdns_core::adversary::{ByzantineNode, FetchBombNode, SlowLorisNode};
use moqdns_core::auth::AuthServer;
use moqdns_core::relay_node::RelayNode;
use moqdns_core::stack::{MoqtStack, StackNode};
use moqdns_netsim::{FaultPlan, FaultPlanBuilder, LinkConfig, NodeId, SimTime};
use moqdns_stats::{format_bps, Table};
use moqdns_workload::scenarios::{
    AdversarialScenario, ChainScenario, ChaosScenario, DdnsScenario, FederationScenario,
    MeshScenario, MetroScenario, PlanetScenario, TreeScenario,
};
use std::time::{Duration, Instant};

/// A gated scenario: runs under the given flags and returns its gate
/// (the caller decides whether to [`InvariantGate::finish`] it).
pub type ScenarioFn = fn(&BenchOpts) -> InvariantGate;

/// Every gated scenario by name — the `exp_scenario` argument, the
/// `results/ci_<name>.json` / `ci_baseline_<name>.json` stem, and the CI
/// matrix entry.
pub const SCENARIOS: &[(&str, ScenarioFn)] = &[
    ("tree", tree),
    ("mesh", mesh),
    ("ddns", ddns),
    ("federation", federation),
    ("chain", chain),
    ("relay_fanout", relay_fanout),
    ("metro", metro),
    ("adversarial", adversarial),
    ("planet", planet),
    ("chaos", chaos),
    ("endurance", endurance),
    ("ttl_model", paper::ttl_model),
    ("query_latency", paper::query_latency),
    ("update_latency", paper::update_latency),
    ("update_traffic", paper::update_traffic),
    ("cdn", paper::cdn),
    ("deep_space", paper::deep_space),
    ("state_overhead", paper::state_overhead),
    ("fallback", paper::fallback),
    ("teardown", paper::teardown),
    ("streams_vs_datagrams", paper::streams_vs_datagrams),
];

pub(crate) fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

/// One cell of a per-tier stats table, selected by its column header: a
/// tier fact, or any counter `RelayStats` declares, by its table label.
fn tier_cell(w: &RelayWorld, t: &moqdns_core::metrics::TierRelayStats, head: &str) -> String {
    match head {
        "tier" | "hop" => t.tier.clone(),
        "policy" => w.relay(w.tier(&t.tier)[0]).policy_name().to_string(),
        "agg factor" => format!("{:.1}", t.aggregation_factor()),
        "relays" => t.relays.to_string(),
        "up subs (live)" => t.upstream_subscriptions.to_string(),
        counter => tier_counter(t, counter).to_string(),
    }
}

fn tier_counter(t: &moqdns_core::metrics::TierRelayStats, name: &str) -> u64 {
    let declared = t.totals.get(name);
    declared.unwrap_or_else(|| panic!("no relay counter is called {name:?}"))
}

/// Every per-tier table a scenario prints: `(shape, columns, metrics)`.
/// A column is a tier fact or a relay counter by its table label; a
/// metric is a relay counter by field name, recorded per tier as
/// `<tier>_<metric>`.
const TIER_TABLES: &[(&str, &[&str], &[&str])] = &[
    (
        "tree",
        &[
            "tier",
            "relays",
            "policy",
            "down subs",
            "up subs (live)",
            "objects fwd",
            "cache hit",
            "fetch miss",
            "coalesced",
            "up fetches",
            "reroutes",
            "agg factor",
        ],
        &[],
    ),
    (
        "mesh",
        &[
            "tier",
            "relays",
            "down subs",
            "up subs (live)",
            "objects fwd",
            "fetch miss",
            "coalesced",
            "up fetches",
            "waiters served",
            "reroutes",
            "rebalances",
        ],
        &["objects_forwarded"],
    ),
    (
        "federation",
        &[
            "tier",
            "relays",
            "down subs",
            "up subs (live)",
            "objects fwd",
            "up fetches",
            "peer fetches",
            "peer objects",
            "origin offload",
            "reroutes",
            "rebalances",
        ],
        &["objects_forwarded", "peer_objects"],
    ),
    (
        "chain",
        &[
            "hop",
            "fetch miss",
            "coalesced",
            "up fetches",
            "objects fwd",
        ],
        &[],
    ),
    // Metro and planet.
    (
        "at_scale",
        &[
            "tier",
            "relays",
            "down subs",
            "up subs (live)",
            "objects fwd",
            "up fetches",
            "peer fetches",
            "peer objects",
        ],
        &["objects_forwarded"],
    ),
    (
        "chaos",
        &[
            "tier",
            "relays",
            "down subs",
            "objects fwd",
            "up fetches",
            "redials",
            "failed dials",
        ],
        &[],
    ),
];

/// Prints the per-tier relay stats table of `shape` (a row of
/// [`TIER_TABLES`]), writes `results/<csv>.csv` and records the shape's
/// metrics.
fn tier_table(gate: &mut InvariantGate, w: &RelayWorld, title: String, csv: &str, shape: &str) {
    let &(_, columns, metrics) = TIER_TABLES
        .iter()
        .find(|(name, ..)| *name == shape)
        .unwrap_or_else(|| panic!("no per-tier table shape is called {shape:?}"));
    let tiers = w.tier_stats();
    let mut t = Table::new(title, columns);
    for tier in &tiers {
        let row: Vec<String> = columns.iter().map(|c| tier_cell(w, tier, c)).collect();
        t.push(&row);
    }
    report::emit(&t, csv);
    for tier in &tiers {
        for m in metrics {
            gate.metric(&format!("{}_{m}", tier.tier), tier_counter(tier, m));
        }
    }
}

/// The measured window: resets the link counters, pushes `rounds` full
/// update rounds (round `r` with octet base `start + r * step`), settles
/// `tail`. Returns the resident stubs' deliveries and each core's
/// peer-link object ingress over the window.
fn update_rounds(
    w: &mut RelayWorld,
    rounds: u64,
    (start, step): (u8, u8),
    tail: Duration,
) -> (u64, Vec<u64>) {
    let cores = w.tier(&w.plan.tiers[0].name).to_vec();
    let peer_objects = |w: &RelayWorld| -> Vec<u64> {
        cores
            .iter()
            .map(|&c| w.relay(c).stats().peer_objects)
            .collect()
    };
    w.sim.stats_mut().reset();
    let (delivered, peers) = (w.delivered_updates(), peer_objects(w));
    for round in 0..rounds {
        w.update_round(start.wrapping_add((round as u8).wrapping_mul(step)));
    }
    w.sim.run_for(tail);
    let after = peer_objects(w);
    (
        w.delivered_updates() - delivered,
        after.iter().zip(&peers).map(|(a, b)| a - b).collect(),
    )
}

/// Stampede fetch routing under federation: each core fetched every
/// track homed on a peer shard from that peer exactly once, and only its
/// own shard's tracks from the origin. Returns `(peer, origin)` fetch
/// totals.
fn core_fetch_routing(gate: &mut InvariantGate, w: &RelayWorld, tracks: usize) -> (u64, u64) {
    let (mut peer_total, mut origin_total) = (0, 0);
    for (c, &core) in w.tier("core").iter().enumerate() {
        let s = w.relay(core).stats();
        let origin_fetches = s.upstream_fetches - s.peer_fetches;
        gate.check_eq(
            &format!("core{c}_peer_fetches"),
            (tracks - w.shard_size(c)) as u64,
            s.peer_fetches,
        );
        gate.check_eq(
            &format!("core{c}_origin_fetches"),
            w.shard_size(c) as u64,
            origin_fetches,
        );
        peer_total += s.peer_fetches;
        origin_total += origin_fetches;
    }
    (peer_total, origin_total)
}

/// One copy per inter-region link: each update left the origin once,
/// toward its home core, and (when `peer_ingress` is given) entered
/// every other core exactly once, over the peer link from its home.
fn one_copy_per_core(
    gate: &mut InvariantGate,
    w: &RelayWorld,
    updates_per_track: u64,
    peer_ingress: Option<&[u64]>,
) {
    let tracks = w.questions.len();
    for (c, &core) in w.tier("core").iter().enumerate() {
        gate.check_eq(
            &format!("origin_to_core{c}_one_copy"),
            updates_per_track * w.shard_size(c) as u64,
            w.delivered_between(&[w.auth], &[core]),
        );
        if let Some(peer) = peer_ingress {
            gate.check_eq(
                &format!("core{c}_peer_ingress_one_copy"),
                updates_per_track * (tracks - w.shard_size(c)) as u64,
                peer[c],
            );
        }
    }
}

/// The cold-join half of the origin-kill drill: with the origin already
/// dead, a brand-new edge with fresh stubs joins every region; all
/// `expected` joining fetches for already-published tracks must be
/// answered from the core tier — any loss here would be real loss.
fn cold_join(
    gate: &mut InvariantGate,
    w: &mut RelayWorld,
    late_edge: impl Fn(usize) -> [Cohort; 2],
    expected: u64,
) -> u64 {
    let mut late_stubs = Vec::new();
    for region in 0..w.tier("core").len() {
        late_stubs.extend(w.add_late_edge(region, late_edge(region)));
    }
    w.sim.run_for(secs(5));
    let late_fetched = w.fetched(&late_stubs);
    gate.check_eq(
        "post_kill_zero_loss_for_published_tracks",
        expected,
        late_fetched,
    );
    gate.metric("post_kill_late_fetches_answered", late_fetched);
    late_fetched
}

/// E10 — §3 + §5.3: the paper's relay distribution trees, *simulated*.
///
/// §5.3's DDNS/CDN arithmetic assumes "5 MoQ relays on average" per
/// distribution path and relays that aggregate subscriptions so an
/// update crosses each link once. This instantiates the scaled-down
/// tree worlds (auth → tier-1 relays → edge relays → stubs) and
/// *measures* what the arithmetic assumes: complete delivery, one copy
/// per relay-to-relay link, a joining-fetch stampede coalesced to one
/// upstream fetch per relay per track, and failover to the surviving
/// tier-1 relay without losing later updates.
pub fn tree(opts: &BenchOpts) -> InvariantGate {
    report::heading("E10 / §3+§5.3 — simulated relay distribution trees");
    let mut gate = InvariantGate::new("tree", opts);
    for base in [TreeScenario::ddns_tree(), TreeScenario::cdn_tree()] {
        tree_run(&opts.sized(base, TreeScenario::smoke), &mut gate);
    }
    let spec = opts.sized(TreeScenario::ddns_tree(), TreeScenario::smoke);
    tree_failover(&spec, &mut gate);
    gate
}

fn tree_run(spec: &TreeScenario, gate: &mut InvariantGate) {
    let mut w = RelayWorld::build(spec, 71).digested();
    let name = spec.name;
    let (tier1, edges) = (w.tier("tier1").to_vec(), w.tier("edge").to_vec());

    // Settled: every stub's joining fetch was answered through the tree,
    // and the stampede coalesced to one upstream fetch per relay per
    // track (instead of one per stub).
    gate.check_ge(
        &format!("{name}_joining_fetches_answered"),
        w.stubs.len() as u64,
        w.fetched_total(),
    );
    for tier in w.tier_stats() {
        let label = &tier.tier;
        gate.check_le(
            &format!("{name}_{label}_stampede_fetch_bound"),
            tier.relays as u64 * spec.tracks as u64,
            tier.totals.upstream_fetches,
        );
        gate.metric(
            &format!("{name}_{label}_upstream_fetches"),
            tier.totals.upstream_fetches,
        );
    }

    // Measured window: only update traffic from here on.
    let (delivered, _) = update_rounds(
        &mut w,
        spec.updates_per_track,
        (1, spec.tracks as u8),
        secs(5),
    );

    // (1) Complete delivery.
    gate.check_eq(
        &format!("{name}_complete_delivery"),
        spec.expected_deliveries(),
        delivered,
    );
    gate.metric(&format!("{name}_deliveries"), delivered);

    // (2) One copy per upstream link: each relay-to-relay link (primary
    // attachments only; stub links carry the fan-out, which legitimately
    // scales with subscribers) carried the same number of update
    // datagrams, and the per-link payload is in the single-copy range.
    let mut t_links = Table::new(
        format!(
            "{}: per-link update traffic ({} updates, {} stubs)",
            name,
            spec.total_updates(),
            spec.stub_count()
        ),
        &[
            "link",
            "delivered dgrams",
            "delivered bytes",
            "bytes/update",
        ],
    );
    let mut per_link_bytes = Vec::new();
    for (parent, child) in w.topo.primary_edges() {
        if !tier1.contains(&child) && !edges.contains(&child) {
            continue;
        }
        let s = w.sim.stats().between(parent, child);
        per_link_bytes.push(s.delivered_bytes);
        t_links.push(&[
            format!("{} -> {}", w.sim.node_name(parent), w.sim.node_name(child)),
            s.delivered.to_string(),
            s.delivered_bytes.to_string(),
            format!(
                "{:.0}",
                s.delivered_bytes as f64 / spec.total_updates() as f64
            ),
        ]);
    }
    report::emit(&t_links, &format!("exp_tree_{name}_links"));
    let min = *per_link_bytes.iter().min().unwrap();
    let max = *per_link_bytes.iter().max().unwrap();
    gate.check_true(
        &format!("{name}_one_copy_per_link"),
        max < 2 * min,
        format!("per-link bytes min={min} max={max}"),
    );

    // The §3 invariant at the object level: relays opened exactly one
    // upstream subscription per track, and forwarded exactly one copy per
    // downstream subscriber.
    for &id in &tier1 {
        gate.check_eq(
            &format!("{name}_tier1_upstream_subs"),
            spec.tracks as u64,
            w.relay(id).upstream_subscription_count() as u64,
        );
    }
    for &id in &edges {
        gate.check_eq(
            &format!("{name}_edge_upstream_subs"),
            spec.tracks as u64,
            w.relay(id).upstream_subscription_count() as u64,
        );
        gate.check_eq(
            &format!("{name}_edge_forwards"),
            spec.edge_forwards(),
            w.relay(id).stats().objects_forwarded,
        );
    }
    gate.metric(
        &format!("{name}_edge_objects_forwarded"),
        w.tier_totals("edge").totals.objects_forwarded,
    );

    // (3) Per-tier stats table (cache hits, aggregated subs, forwards).
    tier_table(
        gate,
        &w,
        format!("{name}: per-tier relay stats"),
        &format!("exp_tree_{name}_tiers"),
        "tree",
    );
    gate.digest(name, w.sim.delivery_digest());

    println!(
        "{}: {} updates crossed every upstream link once; origin egress is {}x \
         below per-stub unicast (the §5.3 aggregation saving).\n",
        name,
        spec.total_updates(),
        spec.origin_saving()
    );
}

fn tree_failover(spec: &TreeScenario, gate: &mut InvariantGate) {
    report::heading("Failover: killing tier1[0] mid-run");
    let mut w = RelayWorld::build(spec, 72).digested();
    let tier1 = w.tier("tier1").to_vec();
    let round = |w: &mut RelayWorld, octet: u8, settle: u64| {
        for track in 0..spec.tracks {
            w.update_track(track, octet);
        }
        w.sim.run_for(secs(settle));
    };

    // Phase 1: one update round with both tier-1 relays alive.
    round(&mut w, 211, 5);
    let after_phase1 = w.delivered_updates();

    // Kill the first tier-1 relay; its edge children must fail over.
    w.shutdown(tier1[0]);
    w.sim.run_for(secs(5));

    // Phase 2: another round, now on the degraded tree.
    round(&mut w, 212, 10);

    let phase2 = w.delivered_updates() - after_phase1;
    let expected = spec.tracks as u64 * w.stubs.len() as u64;
    gate.check_eq("failover_zero_post_kill_loss", expected, phase2);

    let reroutes = w.tier_totals("edge").totals.reroutes;
    // Half the edge relays had tier1[0] as primary; each re-routed every
    // track.
    let expected_reroutes = (w.tier("edge").len() as u64 / 2) * spec.tracks as u64;
    gate.check_eq("failover_edge_reroutes", expected_reroutes, reroutes);
    gate.metric("failover_post_kill_deliveries", phase2);
    gate.metric("failover_reroutes", reroutes);

    let mut t = Table::new(
        "Failover drill (1 tier-1 relay killed mid-run)",
        &["metric", "value"],
    );
    t.push(&[
        "updates delivered post-kill".to_string(),
        format!("{phase2} (expected {expected})"),
    ]);
    t.push(&["edge reroutes".to_string(), reroutes.to_string()]);
    t.push(&[
        "surviving tier1 upstream subs".to_string(),
        w.relay(tier1[1]).upstream_subscription_count().to_string(),
    ]);
    report::emit(&t, "exp_tree_failover");
    gate.digest("failover", w.sim.delivery_digest());
    println!("Stubs converged on the surviving path; no update was lost after the kill.\n");
}

/// E11 — §3 + §5.3: the standing multi-region hash-shard mesh (origin →
/// K core relays, one hash shard each → per-region edge relays sharding
/// tracks across all cores → stubs). Machine-checks stampede coalescing
/// (one upstream fetch per track per edge, one per track across the
/// whole core tier), one copy per link under sharding, and a core
/// kill + revive drill: the shard ring-walks to surviving cores, then
/// every edge rebalances it back home — both with zero loss.
pub fn mesh(opts: &BenchOpts) -> InvariantGate {
    report::heading("E11 / §3+§5.3 — multi-region hash-shard relay mesh");
    let spec = opts.sized(MeshScenario::mesh(), MeshScenario::smoke);
    let mut gate = InvariantGate::new("mesh", opts);
    let all_pairs = spec.tracks as u64 * spec.stub_count() as u64;

    // ---- Build + joining-fetch stampede ------------------------------
    // Every stub subscribes to every track with a joining fetch at t=0:
    // stubs × tracks concurrent fetches slam into cold caches.
    let mut w = RelayWorld::build(&spec, 81).digested();
    let (cores, edges) = (w.tier("core").to_vec(), w.tier("edge").to_vec());
    gate.check_eq("stampede_fetches_answered", all_pairs, w.fetched_total());
    for (i, &e) in edges.iter().enumerate() {
        gate.check_eq(
            &format!("edge{i}_upstream_fetches"),
            spec.edge_fetch_bound(),
            w.relay(e).stats().upstream_fetches,
        );
    }
    let (core_tier, edge_tier) = (w.tier_totals("core").totals, w.tier_totals("edge").totals);
    gate.check_eq(
        "core_tier_upstream_fetches",
        spec.core_tier_fetch_bound(),
        core_tier.upstream_fetches,
    );
    gate.check_eq(
        "edge_tier_waiters_served",
        edge_tier.fetch_cache_misses - edge_tier.upstream_fetches,
        edge_tier.fetch_coalesced,
    );
    gate.metric("stampede_edge_misses", edge_tier.fetch_cache_misses);
    gate.metric("stampede_edge_coalesced", edge_tier.fetch_coalesced);
    gate.metric("stampede_edge_upstream_fetches", edge_tier.upstream_fetches);
    gate.metric("stampede_core_upstream_fetches", core_tier.upstream_fetches);
    gate.metric("stampede_naive_edge_fetches", spec.naive_edge_fetches());
    println!(
        "Stampede: {} joining fetches entered the edge tier; coalescing opened \
         only {} edge-upstream fetches and {} origin fetches (naive: {}).\n",
        edge_tier.fetch_cache_misses,
        edge_tier.upstream_fetches,
        core_tier.upstream_fetches,
        spec.naive_edge_fetches()
    );

    // ---- Measured update rounds: one copy per link under sharding ----
    let (delivered, _) = update_rounds(&mut w, spec.updates_per_track, (10, 16), secs(5));
    gate.check_eq("complete_delivery", spec.expected_deliveries(), delivered);
    // Origin egress: each update leaves the origin once, toward the home
    // core of its track's shard — per core, its shard's share exactly.
    one_copy_per_core(&mut gate, &w, spec.updates_per_track, None);
    // Edge ingress: each update enters each edge exactly once, over the
    // single core→edge link its shard selects.
    for (i, &e) in edges.iter().enumerate() {
        gate.check_eq(
            &format!("into_edge{i}_one_copy"),
            spec.total_updates(),
            w.delivered_between(&cores, &[e]),
        );
    }
    for (c, &core) in cores.iter().enumerate() {
        gate.check_eq(
            &format!("core{c}_upstream_subs"),
            w.shard_size(c) as u64,
            w.relay(core).upstream_subscription_count() as u64,
        );
    }
    gate.metric("update_deliveries", delivered);
    gate.metric(
        "origin_egress_copies",
        w.delivered_between(&[w.auth], &cores),
    );

    // ---- Kill + revive drill -----------------------------------------
    // The victim: the home core of track 0 (guaranteed non-empty shard).
    let victim = w.home_core(0);
    let victim_shard = w.shard_size(victim) as u64;
    report::heading(&format!(
        "Drill: killing core{victim} (shard of {victim_shard} tracks), then reviving it"
    ));
    let before_kill = w.delivered_updates();
    w.shutdown(cores[victim]);
    w.sim.run_for(secs(5));
    let reroutes = w.tier_totals("edge").totals.reroutes;
    gate.check_eq("kill_reroutes", edges.len() as u64 * victim_shard, reroutes);
    w.update_round(200);
    w.sim.run_for(secs(5));
    gate.check_eq(
        "zero_post_kill_loss",
        all_pairs,
        w.delivered_updates() - before_kill,
    );

    // Revive: edge recovery probes re-attach and every edge rebalances
    // the victim's shard back onto it.
    let before_revive = w.delivered_updates();
    w.revive(cores[victim]);
    w.sim.run_for(secs(20));
    let rebalances = w.tier_totals("edge").totals.rebalances;
    gate.check_eq(
        "recovery_rebalances",
        edges.len() as u64 * victim_shard,
        rebalances,
    );
    gate.check_eq(
        "revived_core_reclaimed_shard",
        victim_shard,
        w.relay(cores[victim]).upstream_subscription_count() as u64,
    );
    for (i, &e) in edges.iter().enumerate() {
        gate.check_eq(
            &format!("edge{i}_upstream_subs_after_recovery"),
            spec.tracks as u64,
            w.relay(e).upstream_subscription_count() as u64,
        );
    }
    w.update_round(230);
    w.sim.run_for(secs(5));
    gate.check_eq(
        "zero_post_recovery_loss",
        all_pairs,
        w.delivered_updates() - before_revive,
    );
    gate.metric("drill_reroutes", reroutes);
    gate.metric("drill_rebalances", rebalances);

    tier_table(
        &mut gate,
        &w,
        format!(
            "{}: per-tier relay stats ({} cores, {} regions x {} edges, {} stubs)",
            spec.name,
            spec.cores,
            spec.regions,
            spec.edges_per_region,
            spec.stub_count()
        ),
        "exp_mesh_tiers",
        "mesh",
    );

    gate.digest("mesh", w.sim.delivery_digest());
    println!(
        "Mesh survived a core kill (ring-walk reroutes) and a revival \
         (shard rebalanced home) with zero update loss.\n"
    );
    gate
}

/// E6 — §5.3 DDNS: "this would yield a globally distributed application
/// layer update traffic of some 5.5 Gbps, which is negligible at global
/// scale." Two parts: the paper's analytic estimate, reproduced from
/// [`DdnsScenario`], and a scaled micro-simulation — one DDNS
/// authoritative server, one relay, S subscribers — validating the
/// per-update byte count and the relay fan-out the analytic model
/// assumes. (The full 3-tier tree version is [`tree`].)
pub fn ddns(opts: &BenchOpts) -> InvariantGate {
    let mut gate = InvariantGate::new("ddns", opts);
    report::heading("E6 / §5.3 — Dynamic DNS update traffic");

    // (a) The paper's arithmetic.
    let s = DdnsScenario::default();
    let mut t = Table::new(
        "Analytic estimate (paper parameters)",
        &["parameter", "value"],
    );
    t.push(&["DDNS users".to_string(), s.users.to_string()]);
    t.push(&[
        "interested users each".to_string(),
        s.interested_per_user.to_string(),
    ]);
    t.push(&["relays per path".to_string(), s.relays_per_path.to_string()]);
    t.push(&[
        "updates per day".to_string(),
        format!("{}", s.updates_per_day),
    ]);
    t.push(&["update size".to_string(), format!("{} B", s.update_size)]);
    t.push(&[
        "global update traffic".to_string(),
        format!("{} (paper: ~5.5 Gbps)", format_bps(s.global_bps())),
    ]);
    report::emit(&t, "exp_ddns_analytic");

    // (b) Micro-simulation: 1 DDNS zone behind a relay, S interested
    // subscribers, 2 updates (the per-day rate, compressed).
    let subs_n: usize = if opts.smoke { 5 } else { 20 };
    let mut w = RelayWorld::from_plan(plans::ddns(subs_n), 61, 0).digested();
    let relay = w.tier("relay")[0];
    w.sim.stats_mut().reset();
    for octet in [50u8, 51] {
        w.sim.run_for(secs(10));
        w.update_track(0, octet);
    }
    w.sim.run_for(secs(20));

    let delivered = w.delivered_updates();
    let auth_egress = w.sim.stats().between(w.auth, relay);
    let relay_fanout: u64 = w
        .stubs
        .iter()
        .map(|&s| w.sim.stats().between(relay, s).bytes)
        .sum();
    let agg = w.relay(relay).aggregation_factor();

    let mut t2 = Table::new(
        format!("Micro-simulation: 1 DDNS record, 1 relay, {subs_n} subscribers, 2 updates"),
        &["metric", "value"],
    );
    t2.push(&[
        format!("updates delivered (expect 2 × {subs_n} = {})", 2 * subs_n),
        delivered.to_string(),
    ]);
    t2.push(&[
        format!("relay aggregation factor (expect {subs_n})"),
        format!("{agg:.0}"),
    ]);
    t2.push(&[
        "auth→relay bytes (1 upstream copy per update)".to_string(),
        auth_egress.bytes.to_string(),
    ]);
    t2.push(&[
        "relay→subscribers bytes (fan-out)".to_string(),
        relay_fanout.to_string(),
    ]);
    report::emit(&t2, "exp_ddns_sim");

    gate.check_eq("complete_delivery", 2 * subs_n as u64, delivered);
    gate.check_true(
        "relay_aggregates_to_one_upstream_sub",
        (agg - subs_n as f64).abs() < 1e-9,
        format!("aggregation factor {agg:.0}"),
    );
    // Forwarded-copy accounting for the CI baseline diff: the relay turns
    // one upstream copy per update into exactly one copy per subscriber.
    let forwarded = w.relay(relay).stats().objects_forwarded;
    gate.check_eq("relay_forwarded_copies", 2 * subs_n as u64, forwarded);
    gate.metric("deliveries", delivered);
    gate.metric("relay_objects_forwarded", forwarded);
    gate.metric("auth_to_relay_datagrams", auth_egress.delivered);
    gate.digest("ddns", w.sim.delivery_digest());
    println!(
        "The relay turns 1 upstream update into {subs_n} downstream copies — the \
         aggregation the paper's 5.5 Gbps estimate assumes."
    );
    gate
}

/// E12 — §3 + §5.3: cross-region core federation — cores serve each
/// other, not just the origin. Edges attach *regionally* and the core
/// tier itself resolves non-home tracks over full-mesh peer links.
/// Machine-checks origin offload under the all-stubs-join-all-tracks
/// stampede, one copy per inter-region link (with the remote regions
/// lagging by the slower peer hop), and origin independence: after the
/// origin dies, a brand-new edge + stubs in every region still get every
/// published track.
pub fn federation(opts: &BenchOpts) -> InvariantGate {
    report::heading("E12 / §3+§5.3 — cross-region core federation");
    let spec = opts.sized(FederationScenario::federation(), FederationScenario::smoke);
    let mut gate = InvariantGate::new("federation", opts);

    // ---- Build + joining-fetch stampede ------------------------------
    // Every stub subscribes to every track through its regional edge at
    // t=0. Each core must resolve non-home tracks over peer links.
    let mut w = RelayWorld::build(&spec, 91).digested();
    let (cores, edges) = (w.tier("core").to_vec(), w.tier("edge").to_vec());
    gate.check_eq(
        "stampede_fetches_answered",
        spec.stub_count() as u64 * spec.tracks as u64,
        w.fetched_total(),
    );
    let (peer_fetch_total, origin_fetch_total) = core_fetch_routing(&mut gate, &w, spec.tracks);
    gate.check_eq(
        "peer_fetch_total",
        spec.peer_fetch_total(),
        peer_fetch_total,
    );
    gate.check_eq(
        "origin_fetch_total",
        spec.origin_fetch_bound(),
        origin_fetch_total,
    );
    for (i, &e) in edges.iter().enumerate() {
        gate.check_eq(
            &format!("edge{i}_upstream_fetches"),
            spec.tracks as u64,
            w.relay(e).stats().upstream_fetches,
        );
    }
    let measured_offload = 100 * peer_fetch_total / (peer_fetch_total + origin_fetch_total);
    gate.check_eq(
        "origin_offload_percent",
        spec.offload_percent(),
        measured_offload,
    );
    gate.metric("stampede_peer_fetches", peer_fetch_total);
    gate.metric("stampede_origin_fetches", origin_fetch_total);
    gate.metric("stampede_naive_origin_fetches", spec.naive_origin_fetches());
    gate.metric("origin_offload_percent", measured_offload);
    println!(
        "Stampede: {} origin fetches (naive regional escalation: {}); \
         {} shard fetches served core-to-core — {}% origin offload.\n",
        origin_fetch_total,
        spec.naive_origin_fetches(),
        peer_fetch_total,
        measured_offload
    );

    // ---- Measured update rounds: one copy per link under federation --
    let (delivered, peer_ingress) =
        update_rounds(&mut w, spec.updates_per_track, (10, 16), secs(5));
    gate.check_eq("complete_delivery", spec.expected_deliveries(), delivered);
    one_copy_per_core(&mut gate, &w, spec.updates_per_track, Some(&peer_ingress));
    gate.metric("update_deliveries", delivered);
    gate.metric(
        "origin_egress_copies",
        w.delivered_between(&[w.auth], &cores),
    );

    // ---- Latency asymmetry: remote regions lag by the peer hop -------
    // One update of track 0: its home region receives it straight off
    // the origin→home-core path; every other region pays the extra
    // (slower) core→core peer hop.
    let home = w.home_core(0);
    let remote = (home + 1) % spec.cores;
    let t0 = w.sim.now();
    w.update_track(0, 199);
    w.sim.run_for(secs(3));
    // Stub `j` hangs off edge `j % edges`, which serves region
    // `(j % edges) % cores` (round-robin parent assignment).
    let region_latency = |region: usize| -> u64 {
        (w.stubs.iter().enumerate())
            .filter(|(j, _)| (j % edges.len()) % spec.cores == region)
            .filter_map(|(_, &s)| w.sim.node_ref::<TreeStub>(s).last_update_at)
            .map(|at| (at - t0).as_micros() as u64)
            .max()
            .unwrap_or(0)
    };
    let (home_us, remote_us) = (region_latency(home), region_latency(remote));
    gate.check_true(
        "remote_region_lags_home_region",
        remote_us > home_us,
        format!("home {home_us}us < remote {remote_us}us"),
    );
    gate.metric("home_region_delivery_us", home_us);
    gate.metric("remote_region_delivery_us", remote_us);
    println!(
        "Latency asymmetry: home region {:.1} ms, remote region {:.1} ms \
         (inter-region links {:?} vs intra {:?}).\n",
        home_us as f64 / 1000.0,
        remote_us as f64 / 1000.0,
        spec.peer_delay,
        spec.link_delay
    );

    // ---- Origin-kill drill: published tracks keep flowing ------------
    report::heading("Drill: killing the origin, then cold-joining every region");
    w.shutdown(w.auth);
    w.sim.run_for(secs(3));
    // The core tier keeps its region-to-region subscriptions: only the
    // origin-bound parent subscriptions are gone.
    for (c, &core) in cores.iter().enumerate() {
        gate.check_eq(
            &format!("core{c}_peer_subs_survive_origin_death"),
            (spec.tracks - w.shard_size(c)) as u64,
            w.relay(core).peer_subscription_count() as u64,
        );
    }
    let late_per_edge = 2usize;
    let late_fetched = cold_join(
        &mut gate,
        &mut w,
        |n| plans::federation_late_edge(n, late_per_edge),
        (spec.cores * late_per_edge * spec.tracks) as u64,
    );
    println!(
        "Origin died; {} cold joining fetches across {} regions were all \
         served from the federated core tier.\n",
        late_fetched, spec.cores
    );

    tier_table(
        &mut gate,
        &w,
        format!(
            "{}: per-tier relay stats ({} federated cores/regions x {} edges, {} stubs)",
            spec.name,
            spec.cores,
            spec.edges_per_region,
            spec.stub_count()
        ),
        "exp_federation_tiers",
        "federation",
    );

    gate.digest("federation", w.sim.delivery_digest());
    println!(
        "Federation held: origin offloaded, one copy per inter-region link, \
         and full region-to-region service after the origin died.\n"
    );
    gate
}

/// E13 — §5.3: the paper's depth-5 relay chain. The tree and the mesh
/// check aggregation at breadth; this checks it at **depth**: a straight
/// origin → hop1 → … → hop5 → stubs chain, where any relay that failed
/// to aggregate would multiply traffic at *every* following hop. ONE
/// upstream fetch per track at every hop, each update crossing every hop
/// link exactly once, complete end-to-end delivery.
pub fn chain(opts: &BenchOpts) -> InvariantGate {
    report::heading("E13 / §5.3 — depth-5 relay chain");
    let spec = opts.sized(ChainScenario::chain(), ChainScenario::smoke);
    let mut gate = InvariantGate::new("chain", opts);
    let mut w = RelayWorld::build(&spec, 51).digested();
    let hops: Vec<NodeId> = (1..=spec.hops)
        .map(|i| w.tier(&format!("hop{i}"))[0])
        .collect();

    // ---- Stampede at depth -------------------------------------------
    gate.check_eq(
        "stampede_fetches_answered",
        (spec.stubs * spec.tracks) as u64,
        w.fetched_total(),
    );
    for (i, &h) in hops.iter().enumerate() {
        // One upstream fetch per track per hop: the deepest hop coalesces
        // the stub stampede; each hop above sees exactly one per track.
        gate.check_eq(
            &format!("hop{}_upstream_fetches", i + 1),
            spec.tracks as u64,
            w.relay(h).stats().upstream_fetches,
        );
    }
    let deepest = w.relay(*hops.last().unwrap()).stats();
    gate.check_eq(
        "deepest_hop_coalesced",
        (spec.stubs * spec.tracks - spec.tracks) as u64,
        deepest.fetch_coalesced,
    );
    gate.metric("stampede_deepest_misses", deepest.fetch_cache_misses);
    gate.metric("stampede_deepest_coalesced", deepest.fetch_coalesced);

    // ---- Update rounds: one copy per hop link ------------------------
    let (delivered, _) = update_rounds(&mut w, spec.updates_per_track, (10, 16), secs(5));
    gate.check_eq("complete_delivery", spec.expected_deliveries(), delivered);
    // One datagram per update per hop link, at every depth.
    let mut upstream = w.auth;
    for (i, &h) in hops.iter().enumerate() {
        let got = w.delivered_between(&[upstream], &[h]);
        gate.check_eq(
            &format!("into_hop{}_one_copy_per_update", i + 1),
            spec.total_updates() * spec.copies_per_link(),
            got,
        );
        gate.metric(&format!("hop{}_link_datagrams", i + 1), got);
        upstream = h;
    }
    gate.metric("update_deliveries", delivered);

    tier_table(
        &mut gate,
        &w,
        format!(
            "{}: depth-{} chain, {} tracks x {} updates to {} stubs",
            spec.name, spec.hops, spec.tracks, spec.updates_per_track, spec.stubs
        ),
        "exp_chain_hops",
        "chain",
    );

    gate.digest("chain", w.sim.delivery_digest());
    println!(
        "Depth-{} chain: one fetch per track per hop, one copy per update \
         per link, {}/{} deliveries.\n",
        spec.hops,
        delivered,
        spec.expected_deliveries()
    );
    gate
}

/// A3 — ablation (§3): relay aggregation and caching. S subscribers of
/// the same record, once connected directly to the authoritative server
/// and once through a MoQT relay. The relay must aggregate S downstream
/// subscriptions into one upstream subscription, keep the authoritative
/// server's egress constant in S, and serve late joiners' fetches from
/// its object cache.
pub fn relay_fanout(opts: &BenchOpts) -> InvariantGate {
    report::heading("A3 / §3 — relay fan-out: aggregation and caching");
    let mut gate = InvariantGate::new("relay_fanout", opts);

    /// Builds the world, then pushes `n` updates one second apart over a
    /// fresh link-counter window.
    fn run(subs: usize, via_relay: bool, seed: u64, n: u64) -> RelayWorld {
        let plan = plans::relay_fanout(subs, via_relay);
        let mut w = RelayWorld::from_plan(plan, seed, 0).digested();
        w.sim.stats_mut().reset();
        for i in 0..n {
            w.sim.run_for(secs(1));
            w.update_track(0, (i % 200) as u8 + 1);
        }
        w.sim.run_for(secs(10));
        w
    }

    let updates: u64 = if opts.smoke { 3 } else { 10 };
    let sub_counts: &[usize] = if opts.smoke { &[1, 5] } else { &[1, 5, 20] };
    let mut t = Table::new(
        format!("{updates} updates to S subscribers: authoritative egress bytes"),
        &[
            "S",
            "direct: auth egress",
            "via relay: auth egress",
            "relay egress",
            "agg factor",
        ],
    );
    for (i, &s) in sub_counts.iter().enumerate() {
        let direct = run(s, false, 300 + i as u64, updates);
        let direct_egress = direct.sim.stats().bytes_out_of(direct.auth);
        gate.check_eq(
            &format!("s{s}_direct_delivery"),
            updates * s as u64,
            direct.delivered_updates(),
        );

        let relayed = run(s, true, 400 + i as u64, updates);
        let relay_id = relayed.tier("relay")[0];
        let auth_egress = relayed.sim.stats().bytes_out_of(relayed.auth);
        let relay_egress = relayed.sim.stats().bytes_out_of(relay_id);
        gate.check_eq(
            &format!("s{s}_relayed_delivery"),
            updates * s as u64,
            relayed.delivered_updates(),
        );
        // The relay's whole point: S downstream subscriptions cost ONE
        // upstream subscription, so the origin pushes each update once.
        let relay = relayed.relay(relay_id);
        gate.check_eq(
            &format!("s{s}_single_upstream_subscription"),
            1,
            relay.upstream_subscription_count() as u64,
        );
        let agg = relay.aggregation_factor();
        gate.check_eq(&format!("s{s}_aggregation_factor"), s as u64, agg as u64);
        if s > 1 {
            // Aggregation keeps the origin cheaper than direct fan-out.
            gate.check_true(
                &format!("s{s}_origin_egress_shrinks"),
                auth_egress < direct_egress,
                format!("relayed {auth_egress} B < direct {direct_egress} B"),
            );
        }
        gate.metric(&format!("s{s}_direct_auth_egress_bytes"), direct_egress);
        gate.metric(&format!("s{s}_relayed_auth_egress_bytes"), auth_egress);
        gate.metric(&format!("s{s}_relay_egress_bytes"), relay_egress);
        gate.digest(&format!("s{s}_direct"), direct.sim.delivery_digest());
        gate.digest(&format!("s{s}_relayed"), relayed.sim.delivery_digest());

        t.push(&[
            s.to_string(),
            direct_egress.to_string(),
            auth_egress.to_string(),
            relay_egress.to_string(),
            format!("{agg:.0}"),
        ]);
    }
    report::emit(&t, "abl_relay_fanout");

    // Cache: a late joiner's fetch is served by the relay without touching
    // the authoritative server.
    let mut w = run(3, true, 777, 3);
    let relay_id = w.tier("relay")[0];
    w.sim.stats_mut().reset();
    let late = w.attach(relay_id, &plans::late_joiner());
    w.sim.run_for(secs(5));
    let fetched = w.fetched(&late) > 0;
    let auth_touched = w.sim.stats().between(relay_id, w.auth).datagrams;
    let hits = w.relay(relay_id).stats().fetch_cache_hits;
    println!(
        "Late joiner: fetch answered = {fetched}, relay cache hits = {hits}, \
         relay→auth datagrams during join = {auth_touched} (cache absorbed the fetch)."
    );
    gate.check_true(
        "late_joiner_served_from_cache",
        fetched,
        format!("fetch answered = {fetched}"),
    );
    gate.check_ge("late_joiner_cache_hits", 1, hits);
    gate.check_eq("late_join_auth_datagrams", 0, auth_touched);
    gate.metric("late_joiner_cache_hits", hits);
    gate.digest("late_joiner", w.sim.delivery_digest());
    gate
}

/// E13 — the metro-scale federation: the [`federation`] shape grown two
/// orders of magnitude (1 origin → 3 federated cores → 12 region-local
/// edges → 9,996 stubs, each subscribing to an 8-track slice of the
/// 64-track space), re-checking stampede coalescing (~80k concurrent
/// joining fetches collapse to 64 upstream fetches per edge and 64 at
/// the origin), one copy per link and origin independence at that scale.
///
/// The full-size run doubles as the wall-clock benchmark the simulator's
/// data plane is graded on (`BENCH_PR5.json` holds the first numbers;
/// `benchmark/`'s `sim_metro` workload the current ones); it prints its
/// own phase timings.
pub fn metro(opts: &BenchOpts) -> InvariantGate {
    report::heading("E13 / §3+§5.3 — metro-scale federation (~10k stubs)");
    let spec = opts.sized(MetroScenario::metro(), MetroScenario::smoke);
    let mut gate = InvariantGate::new("metro", opts);
    let wall_start = Instant::now();

    // ---- Build + joining-fetch stampede ------------------------------
    // Every stub subscribes to its track slice through its regional edge
    // at t=0: the largest coalescing stampede in the matrix.
    let t_build = Instant::now();
    let mut w = RelayWorld::build_with_workers(&spec, 92, opts.par).digested();
    let build_ms = t_build.elapsed().as_millis();
    gate.check_eq(
        "stampede_fetches_answered",
        spec.subscription_count(),
        w.fetched_total(),
    );
    let (peer_fetch_total, origin_fetch_total) = core_fetch_routing(&mut gate, &w, spec.tracks);
    gate.check_eq(
        "origin_fetch_total",
        spec.origin_fetch_bound(),
        origin_fetch_total,
    );
    // Edge-tier coalescing, aggregated (12 × 64 checks would drown the
    // summary): every edge opens exactly one fetch per track.
    let edge_fetches = w.tier_totals("edge").totals.upstream_fetches;
    gate.check_eq(
        "edge_tier_upstream_fetches",
        spec.edge_fetch_bound() * spec.edge_count() as u64,
        edge_fetches,
    );
    gate.metric("stampede_naive_fetches", spec.naive_fetches());
    gate.metric("stampede_edge_fetches", edge_fetches);
    gate.metric("stampede_peer_fetches", peer_fetch_total);
    gate.metric("stampede_origin_fetches", origin_fetch_total);
    println!(
        "Stampede: {} naive joining fetches coalesced to {} edge fetches, \
         {} peer fetches, {} origin fetches ({} stubs; build+stampede {} ms).\n",
        spec.naive_fetches(),
        edge_fetches,
        peer_fetch_total,
        origin_fetch_total,
        spec.stub_count(),
        build_ms,
    );

    // ---- Measured update rounds: one copy per link at metro scale ----
    let t_rounds = Instant::now();
    let (delivered, peer_ingress) =
        update_rounds(&mut w, spec.updates_per_track, (10, 16), secs(2));
    let rounds_ms = t_rounds.elapsed().as_millis();
    gate.check_eq("complete_delivery", spec.expected_deliveries(), delivered);
    one_copy_per_core(&mut gate, &w, spec.updates_per_track, Some(&peer_ingress));
    gate.metric("update_deliveries", delivered);
    println!(
        "Update rounds: {} deliveries to {} stubs with one copy per \
         inter-region link ({} ms).\n",
        delivered,
        spec.stub_count(),
        rounds_ms,
    );

    // ---- Origin-kill drill: published tracks keep flowing ------------
    report::heading("Drill: killing the origin, then cold-joining every region");
    let t_drill = Instant::now();
    w.shutdown(w.auth);
    w.sim.run_for(secs(2));
    let late_per_edge = 4usize;
    let late_fetched = cold_join(
        &mut gate,
        &mut w,
        |n| plans::metro_late_edge(&spec, n, late_per_edge),
        (spec.cores * late_per_edge * spec.tracks_per_stub) as u64,
    );
    let drill_ms = t_drill.elapsed().as_millis();
    println!(
        "Origin died; {} cold joining fetches across {} regions were all \
         served from the federated core tier ({} ms).\n",
        late_fetched, spec.cores, drill_ms,
    );

    tier_table(
        &mut gate,
        &w,
        format!(
            "{}: per-tier relay stats ({} cores x {} edges, {} stubs over {} tracks)",
            spec.name,
            spec.cores,
            spec.edges_per_region,
            spec.stub_count(),
            spec.tracks,
        ),
        "exp_metro_tiers",
        "at_scale",
    );

    // Wall clock is printed, not a gate metric: the baseline diff must
    // stay machine-independent (CI enforces the budget with `timeout`).
    gate.digest("metro", w.sim.delivery_digest());
    println!(
        "Metro run complete in {:.2} s wall clock (build {} ms, rounds {} ms, drill {} ms).\n",
        wall_start.elapsed().as_secs_f64(),
        build_ms,
        rounds_ms,
        drill_ms,
    );
    gate
}

/// E14 — protocol-hardening drill: honest tiers must survive attack.
///
/// Three hostile clients from `moqdns_core::adversary` take turns
/// attacking one edge relay of a small origin → core → edge → stub tree
/// (fresh world per attack, same scenario): a **byzantine** client (the
/// session state machine must poison and close, never resynchronize or
/// crash), a **slow-loris** subscriber (the per-session backlog bound
/// must evict it) and a **fetch bomber** (the per-session fetch budget
/// must throttle, then evict). Machine-checked per attack: zero honest
/// loss, the attacked edge ending no bigger than its untargeted twin
/// plus one session-backlog allowance, and the attack showing up in its
/// hardening counter rather than in honest-path metrics.
pub fn adversarial(opts: &BenchOpts) -> InvariantGate {
    report::heading("E14 — adversarial survival drill");
    let spec = opts.sized(
        AdversarialScenario::adversarial(),
        AdversarialScenario::smoke,
    );
    let mut gate = InvariantGate::new("adversarial", opts);

    let mut table = Table::new(
        format!(
            "{}: {} tracks x {} updates to {} honest stubs, one attacker per run",
            spec.name,
            spec.tracks,
            spec.updates_per_track,
            spec.stub_count()
        ),
        &[
            "attack",
            "delivered",
            "violations",
            "dropped dg",
            "throttled",
            "evicted",
            "edge state B",
        ],
    );

    for (i, attack) in [
        AttackKind::Byzantine,
        AttackKind::SlowLoris,
        AttackKind::FetchBomb,
    ]
    .into_iter()
    .enumerate()
    {
        let label = attack.label();
        let (w, attacker) = adversarial_world(&spec, attack, 71 + i as u64, 0);
        let mut w = w.digested();
        let edges = w.tier("edge").to_vec();
        let (delivered, _) = update_rounds(&mut w, spec.updates_per_track, (10, 13), secs(5));
        let stats = w.relay(edges[0]).stats();
        let state = w.relay(edges[0]).state_size_estimate();
        let twin_state = w.relay(edges[1]).state_size_estimate();

        // 1. Zero honest loss: the attacked tree still delivers every
        //    update to every honest stub.
        gate.check_eq(
            &format!("{label}_honest_delivery"),
            spec.expected_deliveries(),
            delivered,
        );
        // 2. Bounded state: whatever the attacker made the edge hold has
        //    been reclaimed — the attacked edge ends within one backlog
        //    allowance of its untargeted twin.
        gate.check_le(
            &format!("{label}_edge_state_bounded"),
            twin_state as u64 + spec.session_backlog as u64,
            state as u64,
        );

        // 3. The attack left its fingerprint in the right counter.
        match attack {
            AttackKind::Byzantine => {
                gate.check_ge("byzantine_violations", 1, stats.session.violations);
                gate.check_ge(
                    "byzantine_dropped_datagrams",
                    1,
                    stats.session.dropped_datagrams,
                );
                let a = w.sim.node_ref::<ByzantineNode>(attacker);
                gate.check_ge("byzantine_sessions_closed", 1, a.closed_by_peer);
                gate.metric("byzantine_garbage_bursts", a.garbage_bursts);
                gate.metric("byzantine_bogus_datagrams", a.bogus_datagrams);
                gate.metric("byzantine_duplicate_requests", a.duplicate_requests);
                gate.metric("byzantine_sessions_closed", a.closed_by_peer);
            }
            AttackKind::SlowLoris => {
                gate.check_ge("slow_loris_evictions", 1, stats.evicted_sessions);
                let a = w.sim.node_ref::<SlowLorisNode>(attacker);
                gate.check_ge("slow_loris_subscribed", spec.tracks as u64, a.subs_sent);
                gate.metric("slow_loris_swallowed", a.swallowed);
            }
            AttackKind::FetchBomb => {
                gate.check_ge("fetch_bomb_throttled", 1, stats.throttled_fetches);
                gate.check_ge("fetch_bomb_evictions", 1, stats.evicted_sessions);
                let a = w.sim.node_ref::<FetchBombNode>(attacker);
                gate.check_ge(
                    "fetch_bomb_rejections_observed",
                    spec.throttles_per_burst(),
                    a.fetches_rejected,
                );
                gate.metric("fetch_bomb_fetches_sent", a.fetches_sent);
                gate.metric("fetch_bomb_sessions_closed", a.closed_by_peer);
            }
        }

        gate.metric(&format!("{label}_delivered"), delivered);
        gate.metric(&format!("{label}_violations"), stats.session.violations);
        gate.metric(
            &format!("{label}_dropped_datagrams"),
            stats.session.dropped_datagrams,
        );
        gate.metric(
            &format!("{label}_throttled_fetches"),
            stats.throttled_fetches,
        );
        gate.metric(&format!("{label}_evicted_sessions"), stats.evicted_sessions);
        gate.metric(&format!("{label}_edge_state_bytes"), state as u64);
        gate.digest(label, w.sim.delivery_digest());

        table.push(&[
            label.to_string(),
            format!("{}/{}", delivered, spec.expected_deliveries()),
            stats.session.violations.to_string(),
            stats.session.dropped_datagrams.to_string(),
            stats.throttled_fetches.to_string(),
            stats.evicted_sessions.to_string(),
            state.to_string(),
        ]);
    }

    report::emit(&table, "exp_adversarial_attacks");
    println!(
        "Survival drill: honest tiers kept full delivery under all three \
         attacks; attackers isolated via poison/throttle/evict.\n"
    );
    gate
}

/// The hardening-drill world: the honest tree settled first, so the
/// baseline subscriptions are in place, then ONE attacker connected to
/// the first edge and given a second to reach its target. Returns the
/// world and the attacker node.
pub fn adversarial_world(
    spec: &AdversarialScenario,
    attack: AttackKind,
    seed: u64,
    workers: usize,
) -> (RelayWorld, NodeId) {
    let mut w = RelayWorld::build_with_workers(spec, seed, workers);
    let target = w.tier("edge")[0];
    let attacker = w.attach(target, &plans::attacker(spec, attack))[0];
    w.sim.run_for(secs(1));
    (w, attacker)
}

/// A diurnal wave dawns: [`PlanetScenario::wave_stubs_per_edge`]
/// transient stubs join under *every* edge. Returns the cohort (run the
/// sim to let their joins settle; [`RelayWorld::leave`] is its dusk).
pub fn add_wave(w: &mut RelayWorld, spec: &PlanetScenario, wave: usize) -> Vec<NodeId> {
    let mut cohort = Vec::new();
    for (e, edge) in w.tier("edge").to_vec().into_iter().enumerate() {
        cohort.extend(w.attach(edge, &plans::wave_cohort(spec, wave, e)));
    }
    cohort
}

/// E14 — the planet-scale federation: ~100,000 resident stubs across 24
/// regions with Zipf-popular demand and diurnal join/leave waves.
///
/// [`metro`] proved the federation invariants at ~10k stubs with *flat*
/// demand. This grows the population another order of magnitude and adds
/// **Zipf popularity** — stub demand concentrates on head-ranked tracks,
/// so tail slices are absent under many edges and every expectation is
/// *computed* from the spec's quantile assignment, never assumed dense —
/// and **diurnal waves**: transient cohorts join every edge, subscribe
/// popular slices, receive a round of updates, and leave; departed stubs
/// must receive nothing further and the edge tier must give the session
/// state back.
///
/// The full-size run doubles as the wall-clock benchmark for the
/// parallel simulator: `--par N` runs one region-group per worker with a
/// bit-identical event history, so the gate and baseline are the same no
/// matter the worker count.
pub fn planet(opts: &BenchOpts) -> InvariantGate {
    report::heading("E14 / §3+§5.3 — planet-scale federation (Zipf demand, diurnal waves)");
    let spec = opts.sized(PlanetScenario::planet(), PlanetScenario::smoke);
    let mut gate = InvariantGate::new("planet", opts);
    let wall_start = Instant::now();

    // ---- Build + joining-fetch stampede ------------------------------
    let t_build = Instant::now();
    let mut w = RelayWorld::build_with_workers(&spec, 92, opts.par).digested();
    let build_ms = t_build.elapsed().as_millis();
    let (cores, edges) = (w.tier("core").to_vec(), w.tier("edge").to_vec());
    let edge_fetch_sum = |w: &RelayWorld| w.tier_totals("edge").totals.upstream_fetches;
    // Live sessions across the whole edge tier (downstream + uplinks) —
    // the state the diurnal drill requires waves to give back.
    let edge_session_sum = |w: &RelayWorld| -> u64 {
        edges
            .iter()
            .map(|&e| w.relay(e).session_count() as u64)
            .sum()
    };

    // Demand maps: which tracks each region wants (Zipf-thinned) and
    // where each track is homed. All invariants derive from these.
    let home: Vec<usize> = (0..spec.tracks).map(|t| w.home_core(t)).collect();
    let demanded = spec.demanded_tracks();
    let region_tracks: Vec<Vec<bool>> = (0..spec.cores).map(|r| spec.region_tracks(r)).collect();
    let origin_fetch_expected = |c: usize| -> u64 {
        (0..spec.tracks)
            .filter(|&t| home[t] == c && demanded[t])
            .count() as u64
    };
    let peer_fetch_expected = |c: usize| -> u64 {
        (0..spec.tracks)
            .filter(|&t| region_tracks[c][t] && home[t] != c)
            .count() as u64
    };

    gate.check_eq(
        "stampede_fetches_answered",
        spec.subscription_count(),
        w.fetched_total(),
    );
    gate.check_eq(
        "edge_tier_upstream_fetches",
        spec.edge_fetch_total(),
        edge_fetch_sum(&w),
    );
    // Core-tier fetch routing, exact per core but summarized as one
    // mismatch count (24 regions × 2 checks would drown the gate).
    let mut origin_fetch_total = 0;
    let mut peer_fetch_total = 0;
    let mut fetch_mismatches = 0u64;
    for (c, &core) in cores.iter().enumerate() {
        let s = w.relay(core).stats();
        let origin_fetches = s.upstream_fetches - s.peer_fetches;
        if origin_fetches != origin_fetch_expected(c) || s.peer_fetches != peer_fetch_expected(c) {
            fetch_mismatches += 1;
        }
        origin_fetch_total += origin_fetches;
        peer_fetch_total += s.peer_fetches;
    }
    gate.check_eq("per_core_fetch_mismatches", 0, fetch_mismatches);
    gate.check_eq(
        "origin_fetch_total",
        (0..spec.cores).map(origin_fetch_expected).sum::<u64>(),
        origin_fetch_total,
    );
    gate.check_eq(
        "peer_fetch_total",
        (0..spec.cores).map(peer_fetch_expected).sum::<u64>(),
        peer_fetch_total,
    );
    // The Zipf skew is real: the head slice holds an outsized share of
    // the resident population, the tail slice a sliver.
    let head = spec.slice_population(0) as u64;
    let tail = spec.slice_population(spec.slices() - 1) as u64;
    gate.check_true(
        "zipf_head_dominates_tail",
        head > 2 * tail,
        format!("head slice {head} stubs vs tail slice {tail}"),
    );
    gate.metric("stampede_naive_fetches", spec.naive_fetches());
    gate.metric("stampede_edge_fetches", edge_fetch_sum(&w));
    gate.metric("stampede_peer_fetches", peer_fetch_total);
    gate.metric("stampede_origin_fetches", origin_fetch_total);
    gate.metric("zipf_head_slice_population", head);
    gate.metric("zipf_tail_slice_population", tail);
    println!(
        "Stampede: {} naive joining fetches coalesced to {} edge fetches, \
         {} peer fetches, {} origin fetches ({} stubs; build+stampede {} ms).\n",
        spec.naive_fetches(),
        edge_fetch_sum(&w),
        peer_fetch_total,
        origin_fetch_total,
        spec.stub_count(),
        build_ms,
    );

    // ---- Measured update rounds: one copy per link at planet scale ---
    let t_rounds = Instant::now();
    let (delivered, peer_ingress) =
        update_rounds(&mut w, spec.updates_per_track, (10, 16), secs(2));
    let rounds_ms = t_rounds.elapsed().as_millis();
    gate.check_eq("complete_delivery", spec.expected_deliveries(), delivered);
    // One copy per inter-region link, Zipf-aware: origin→core carries
    // only the tracks homed there that anyone demands; peer ingress only
    // the tracks the region demands from elsewhere.
    let copy_mismatches = (0..spec.cores)
        .filter(|&c| {
            let got = w.delivered_between(&[w.auth], &[cores[c]]);
            got != spec.updates_per_track * origin_fetch_expected(c)
                || peer_ingress[c] != spec.updates_per_track * peer_fetch_expected(c)
        })
        .count() as u64;
    gate.check_eq("per_core_one_copy_mismatches", 0, copy_mismatches);
    gate.metric("update_deliveries", delivered);
    println!(
        "Update rounds: {} deliveries to {} stubs with one copy per \
         inter-region link ({} ms).\n",
        delivered,
        spec.stub_count(),
        rounds_ms,
    );

    // ---- Diurnal join/leave waves ------------------------------------
    report::heading("Diurnal waves: transient cohorts join, receive, leave");
    let t_waves = Instant::now();
    for wave in 0..spec.waves {
        // Dawn: the cohort joins every edge and its joining fetches must
        // all be answered (from edge caches/aggregation — only slices no
        // resident covers escalate upstream).
        let pre_sessions = edge_session_sum(&w);
        let pre_edge_fetches = edge_fetch_sum(&w);
        let cohort = add_wave(&mut w, &spec, wave);
        w.sim.run_for(spec.update_interval * 2);
        gate.check_eq(
            &format!("wave{wave}_fetches_answered"),
            spec.wave_subscription_count(),
            w.fetched(&cohort),
        );
        let fetch_delta = edge_fetch_sum(&w) - pre_edge_fetches;
        // First dawn against the resident-only edge state: the delta is
        // exactly the Zipf-novel slices, computed from the spec. Later
        // dawns re-demand tracks the first wave already pulled: the edge
        // cache still holds their groups after the dusk prune, so a
        // rejoining wave costs zero upstream fetches.
        let novel = if wave == 0 {
            spec.wave_edge_fetch_delta()
        } else {
            0
        };
        gate.check_eq(&format!("wave{wave}_edge_fetch_delta"), novel, fetch_delta);

        // Midday: one update round must reach residents AND the wave,
        // each exactly once per subscription.
        let resident_before = w.delivered_updates();
        let wave_before = w.delivered(&cohort);
        w.update_round(100 + (wave as u8) * 16);
        w.sim.run_for(secs(2));
        gate.check_eq(
            &format!("wave{wave}_round_resident_delivery"),
            spec.subscription_count(),
            w.delivered_updates() - resident_before,
        );
        gate.check_eq(
            &format!("wave{wave}_round_wave_delivery"),
            spec.wave_subscription_count(),
            w.delivered(&cohort) - wave_before,
        );

        // Dusk: the cohort leaves; the edge tier must reclaim exactly
        // the sessions the wave added, and a further round must deliver
        // to residents only — departed stubs receive nothing.
        w.leave(&cohort);
        w.sim.run_for(spec.update_interval);
        gate.check_eq(
            &format!("wave{wave}_sessions_reclaimed"),
            pre_sessions,
            edge_session_sum(&w),
        );
        let frozen = w.delivered(&cohort);
        let resident_before = w.delivered_updates();
        w.update_round(140 + (wave as u8) * 16);
        w.sim.run_for(secs(2));
        gate.check_eq(
            &format!("wave{wave}_post_leave_resident_delivery"),
            spec.subscription_count(),
            w.delivered_updates() - resident_before,
        );
        gate.check_eq(
            &format!("wave{wave}_departed_receive_nothing"),
            frozen,
            w.delivered(&cohort),
        );
        println!(
            "Wave {wave}: {} transient stubs joined ({} novel edge fetches), \
             received their round, left; edge sessions back to {}.",
            cohort.len(),
            fetch_delta,
            pre_sessions,
        );
    }
    let waves_ms = t_waves.elapsed().as_millis();
    println!();

    tier_table(
        &mut gate,
        &w,
        format!(
            "{}: per-tier relay stats ({} cores x {} edges, {} stubs over {} tracks)",
            spec.name,
            spec.cores,
            spec.edges_per_region,
            spec.stub_count(),
            spec.tracks,
        ),
        "exp_planet_tiers",
        "at_scale",
    );

    // Wall clock is printed, not a gate metric: the baseline diff must
    // stay machine-independent (CI enforces the budget with `timeout`).
    gate.digest("planet", w.sim.delivery_digest());
    println!(
        "Planet run complete in {:.2} s wall clock, {} workers \
         (build {} ms, rounds {} ms, waves {} ms).\n",
        wall_start.elapsed().as_secs_f64(),
        w.sim.workers(),
        build_ms,
        rounds_ms,
        waves_ms,
    );
    gate
}

/// The chaos drill's rig: the metro world plus one extra *chaos edge* in
/// region 0 carrying a small cohort of short-idle, auto-redialing stubs —
/// the crash target — and the three fault drills. Each drill composes a
/// seeded [`FaultPlan`] and drives it in segments (run into the fault
/// window, push an update round mid-window, run through heal + settle);
/// every fault applies at a simulation barrier and all loss draws are
/// per-link deterministic, so the whole sequence replays bit-identically
/// single-threaded and sharded (pinned by `parallel_parity`).
pub struct ChaosDrill {
    /// The metro world (region-sharded when built with workers; the
    /// chaos edge and its cohort live on region 0's shard).
    pub w: RelayWorld,
    /// The scenario being drilled.
    pub spec: ChaosScenario,
    /// The crash-target edge relay.
    pub edge: NodeId,
    /// The redial cohort hanging off [`ChaosDrill::edge`].
    pub cohort: Vec<NodeId>,
}

impl ChaosDrill {
    /// Builds the metro world on `workers` shards (`0` =
    /// single-threaded), attaches the chaos edge and cohort, settles.
    pub fn build(spec: &ChaosScenario, seed: u64, workers: usize) -> ChaosDrill {
        let mut w = RelayWorld::build_with_workers(&spec.metro, seed, workers);
        let [edge, cohort] = plans::chaos_cohorts(spec);
        let core = w.tier("core")[0];
        let edge = w.attach(core, &edge)[0];
        let cohort = w.attach(edge, &cohort);
        w.sim.run_for(spec.settle);
        ChaosDrill {
            w,
            spec: *spec,
            edge,
            cohort,
        }
    }

    /// The core carrying the most hash-homed tracks — its origin uplink
    /// is the highest-impact link to flap.
    pub fn busiest_core(&self) -> usize {
        (0..self.spec.metro.cores)
            .max_by_key(|&c| self.w.shard_size(c))
            .unwrap_or(0)
    }

    fn inter(&self) -> LinkConfig {
        LinkConfig::with_delay(self.spec.metro.peer_delay)
    }

    /// **Drill 1 — uplink flap.** Flaps the busiest core's origin uplink
    /// (loss → 1.0 both ways, delay untouched so the sharded lookahead
    /// bound holds) for [`ChaosScenario::flap_len`], pushing one full
    /// update round mid-flap. The round's objects ride reliable streams,
    /// so they retransmit and deliver completely after the heal.
    pub fn flap_drill(&mut self, octet: u8) {
        let core = self.w.tier("core")[self.busiest_core()];
        let t0 = self.w.sim.now() + secs(1);
        let t1 = t0 + self.spec.flap_len;
        let plan = FaultPlanBuilder::new(self.spec.fault_seed)
            .window_jitter(Duration::from_millis(50))
            .flap(self.w.auth, core, self.inter(), t0, t1)
            .build();
        self.drive_segmented(
            &plan,
            t0 + self.spec.flap_len / 2,
            octet,
            t1 + self.spec.settle,
        );
    }

    /// **Drill 2 — region partition.** Cuts every link into
    /// [`ChaosScenario::partition_region`] (origin uplink + all core
    /// peer links; intra-region links stay up) for
    /// [`ChaosScenario::partition_len`], pushing one round mid-partition.
    /// The isolated region drains completely on reunion.
    pub fn partition_drill(&mut self, octet: u8) {
        let r = self.spec.partition_region.min(self.spec.metro.cores - 1);
        let cores = self.w.tier("core");
        let mut cut = vec![(self.w.auth, cores[r], self.inter())];
        for (o, &c) in cores.iter().enumerate() {
            if o != r {
                cut.push((c, cores[r], self.inter()));
            }
        }
        let t0 = self.w.sim.now() + secs(1);
        let t1 = t0 + self.spec.partition_len;
        let plan = FaultPlanBuilder::new(self.spec.fault_seed ^ 0x2)
            .window_jitter(Duration::from_millis(50))
            .partition(&cut, t0, t1)
            .build();
        self.drive_segmented(
            &plan,
            t0 + self.spec.partition_len / 2,
            octet,
            t1 + self.spec.settle,
        );
    }

    /// **Drill 3 — edge crash/restart.** Crashes the chaos edge
    /// (CONNECTION_CLOSE to every peer, then dark) for
    /// [`ChaosScenario::edge_downtime`], pushing one round mid-downtime
    /// (the cohort is disconnected and must *not* receive it as a push —
    /// the rejoin fetch brings them current instead), restarting it, and
    /// settling long enough for every cohort stub to redial, re-handshake
    /// and resubscribe. Then pushes a post-recovery round that must reach
    /// the whole cohort.
    pub fn crash_drill(&mut self, mid_octet: u8, post_octet: u8) {
        let t0 = self.w.sim.now() + secs(1);
        let t1 = t0 + self.spec.edge_downtime;
        let plan = FaultPlanBuilder::new(self.spec.fault_seed ^ 0x3)
            .crash(self.edge, t0)
            .restart(self.edge, t1)
            .build();
        // Reconnect slack: a redial can land just before the restart and
        // only complete on a capped PTO retransmit of its ClientHello —
        // give the stragglers one idle-timeout cycle plus settle.
        let end = t1 + self.spec.stub_idle + self.spec.stub_redial + self.spec.settle;
        self.drive_segmented(&plan, t0 + self.spec.edge_downtime / 2, mid_octet, end);
        self.w.push_round(post_octet);
        self.w.sim.run_for(self.spec.settle);
    }

    /// Drives `plan` to `mid`, pushes one update round, then drives it to
    /// `end`. The second segment re-applies the plan's already-applied
    /// prefix — safe: set-link events are idempotent config writes and
    /// [`apply_relay_fault`] guards crash/restart on the relay's state.
    fn drive_segmented(&mut self, plan: &FaultPlan, mid: SimTime, octet: u8, end: SimTime) {
        moqdns_netsim::run_plan(&mut self.w.sim, plan, mid, apply_relay_fault);
        self.w.push_round(octet);
        moqdns_netsim::run_plan(&mut self.w.sim, plan, end, apply_relay_fault);
    }

    /// Duplicate / out-of-order deliveries across the cohort **and** the
    /// resident metro stubs — the no-duplicate-across-faults invariant.
    pub fn total_regressions(&self) -> u64 {
        (self.cohort.iter().chain(&self.w.stubs))
            .map(|&s| self.w.sim.node_ref::<TreeStub>(s).regressions)
            .sum()
    }

    /// Per-stub redial counts for the cohort.
    pub fn redials(&self) -> Vec<u64> {
        (self.cohort.iter())
            .map(|&s| self.w.sim.node_ref::<TreeStub>(s).redials())
            .collect()
    }
}

/// E14 — the chaos drill: a composed, seeded fault plan on the
/// metro-scale federation, gating the recovery invariants the paper's
/// always-on distribution tree depends on. Four phases, each pushing a
/// full update round: a **clean round** (baseline), an **uplink flap**
/// (the busiest core's origin uplink at 100 % loss through the middle of
/// a round — it must deliver *completely* after the heal, no duplicate),
/// a **region partition** (10 s, drains completely on reunion) and an
/// **edge crash/restart** (the cohort must redial a *bounded* number of
/// times, rejoin with a joining fetch that brings it current, and see
/// the post-recovery round in full; the edge's session count and state
/// size must return to their steady-state envelope).
pub fn chaos(opts: &BenchOpts) -> InvariantGate {
    report::heading("E14 / robustness — composed fault plan on the metro federation");
    let spec = opts.sized(ChaosScenario::chaos(), ChaosScenario::smoke);
    let metro = spec.metro;
    let mut gate = InvariantGate::new("chaos", opts);
    let wall = Instant::now();

    // ---- Build + joining-fetch stampede ------------------------------
    let t_build = Instant::now();
    let mut d = ChaosDrill::build(&spec, 93, opts.par);
    d.w.sim.enable_delivery_digest();
    let build_ms = t_build.elapsed().as_millis();
    gate.check_eq(
        "stampede_fetches_answered",
        metro.subscription_count(),
        d.w.fetched_total(),
    );
    gate.check_eq(
        "chaos_cohort_joining_fetches",
        spec.chaos_subscriptions(),
        d.w.fetched(&d.cohort),
    );
    println!(
        "Built metro + chaos edge: {} stubs plus a {}-stub redial cohort \
         (idle {:?}, redial {:?}; build {} ms).\n",
        metro.stub_count(),
        spec.chaos_stubs,
        spec.stub_idle,
        spec.stub_redial,
        build_ms,
    );
    // After `rounds` rounds the residents saw them all; the cohort all
    // but the `missed` it was disconnected for. No version ever repeats.
    let delivery = |gate: &mut InvariantGate, d: &ChaosDrill, names: [&str; 3], rounds, missed| {
        gate.check_eq(
            names[0],
            rounds * metro.subscription_count(),
            d.w.delivered_updates(),
        );
        gate.check_eq(
            names[1],
            (rounds - missed) * spec.chaos_subscriptions(),
            d.w.delivered(&d.cohort),
        );
        gate.check_eq(names[2], 0, d.total_regressions());
    };

    // ---- Phase 1: clean round ----------------------------------------
    let t1 = Instant::now();
    d.w.update_round(10);
    d.w.sim.run_for(secs(2));
    let names = [
        "clean_round_delivery",
        "clean_chaos_delivery",
        "clean_regressions",
    ];
    delivery(&mut gate, &d, names, 1, 0);
    // Steady-state envelope for the crash drill's high-water gate.
    let steady_sessions = d.w.relay(d.edge).session_count() as u64;
    let steady_state = d.w.relay(d.edge).state_size_estimate() as u64;
    gate.metric("edge_steady_sessions", steady_sessions);
    gate.metric("edge_steady_state", steady_state);
    println!(
        "Clean round: complete delivery incl. chaos cohort ({} ms).\n",
        t1.elapsed().as_millis()
    );

    // ---- Phase 2: flap the busiest core's origin uplink --------------
    report::heading("Drill: flapping the busiest origin uplink through a round");
    let t2 = Instant::now();
    let busiest = d.busiest_core();
    d.flap_drill(30);
    let names = [
        "flap_eventual_delivery",
        "flap_chaos_delivery",
        "flap_no_duplicates",
    ];
    delivery(&mut gate, &d, names, 2, 0);
    println!(
        "Flapped auth<->core{busiest} ({:?} at 100% loss) across a round: \
         every object delivered exactly once after the heal ({} ms).\n",
        spec.flap_len,
        t2.elapsed().as_millis(),
    );

    // ---- Phase 3: partition one region -------------------------------
    report::heading("Drill: partitioning a region for 10 s mid-round");
    let t3 = Instant::now();
    d.partition_drill(50);
    let names = [
        "partition_eventual_delivery",
        "partition_chaos_delivery",
        "partition_no_duplicates",
    ];
    delivery(&mut gate, &d, names, 3, 0);
    println!(
        "Partitioned region {} for {:?} across a round: the isolated \
         region drained completely on reunion ({} ms).\n",
        spec.partition_region,
        spec.partition_len,
        t3.elapsed().as_millis(),
    );

    // ---- Phase 4: crash + restart the chaos edge ---------------------
    report::heading("Drill: crashing the chaos edge, restarting, reconverging");
    let t4 = Instant::now();
    d.crash_drill(70, 90);
    // Original stubs saw all 5 rounds; the cohort was disconnected for
    // the mid-downtime round (its rejoin fetch brings it current) and
    // must see the post-recovery round in full.
    let names = [
        "crash_bystander_delivery",
        "crash_chaos_post_recovery_delivery",
        "crash_no_duplicates",
    ];
    delivery(&mut gate, &d, names, 5, 1);
    // Rejoin: one fresh joining fetch per (stub, track) on top of the
    // stampede ones.
    gate.check_eq(
        "crash_rejoin_fetches",
        2 * spec.chaos_subscriptions(),
        d.w.fetched(&d.cohort),
    );
    let redials = d.redials();
    let redialed = redials.iter().filter(|&&r| r >= 1).count();
    gate.check_eq("crash_every_stub_redialed", spec.chaos_stubs, redialed);
    gate.check_le(
        "crash_redials_bounded",
        spec.chaos_stubs as u64 * spec.redials_per_stub_bound(),
        redials.iter().sum(),
    );
    gate.metric("crash_total_redials", redials.iter().sum());
    // State high-water: the recovered edge returns to its steady-state
    // envelope — same cohort, same subscriptions, no leaked sessions.
    let recovered_state = d.w.relay(d.edge).state_size_estimate() as u64;
    gate.check_eq(
        "crash_edge_sessions_recovered",
        steady_sessions,
        d.w.relay(d.edge).session_count() as u64,
    );
    gate.check_le(
        "crash_edge_state_high_water",
        steady_state.saturating_mul(3) / 2,
        recovered_state,
    );
    gate.metric("edge_recovered_state", recovered_state);
    println!(
        "Crashed the chaos edge for {:?}: {} total redials across {} \
         stubs, all re-attached and current after restart ({} ms).\n",
        spec.edge_downtime,
        redials.iter().sum::<u64>(),
        spec.chaos_stubs,
        t4.elapsed().as_millis(),
    );

    tier_table(
        &mut gate,
        &d.w,
        format!(
            "{}: per-tier relay stats after the full fault sequence",
            spec.name
        ),
        "exp_chaos_tiers",
        "chaos",
    );
    // Relay-tier uplink redials: none of these faults severs a relay's
    // established uplink long enough to close it (long-idle transports),
    // so the tier stays quiet — the bounded redial *storm* behavior is
    // pinned by `fetch_coalescing::redial_storm_is_counted_and_bounded`.
    let relay_redials =
        d.w.tier_stats()
            .iter()
            .map(|t| t.totals.dials.redials)
            .sum();
    gate.check_le("relay_tier_redials", 4, relay_redials);
    gate.metric("relay_tier_redials", relay_redials);
    gate.digest("chaos", d.w.sim.delivery_digest());

    println!(
        "Chaos run complete in {:.2} s wall clock.\n",
        wall.elapsed().as_secs_f64()
    );
    gate
}

/// What one node of the endurance tree holds: its stack's estimate, its
/// stream-table entries (send and receive) and its ledger entries.
fn held(w: &mut RelayWorld, id: NodeId) -> [u64; 3] {
    fn of(stack: &mut MoqtStack) -> [u64; 3] {
        let rows = stack.state_breakdown().1;
        let streams = rows.iter().map(|&(_, _, s, r, _)| s + r).sum::<usize>();
        let ledger = rows.iter().map(|&(.., tracked)| tracked).sum::<usize>();
        [stack.state_size_estimate(), streams, ledger].map(|n| n as u64)
    }
    if id == w.auth {
        w.sim.with_node::<AuthServer, _>(id, |n, _| of(n.stack()))
    } else if w.stubs.contains(&id) {
        w.sim.with_node::<TreeStub, _>(id, |n, _| of(n.stack()))
    } else {
        w.sim.with_node::<RelayNode, _>(id, |n, _| of(n.stack()))
    }
}

/// A subscription outlives its 1,024th update (`docs/deviations/01`,
/// fixed). One record, held by two stubs behind one edge, is updated
/// 5,000 times on a compressed clock while each stub also fetches it
/// 5,000 times: every connection in the tree carries thousands of
/// one-shot streams, several times the `max_streams` window. Gated: every
/// update delivered, the last round's included; every fetch answered; no
/// node raises a refusal or a poison of any reason; and what every node
/// holds — stack estimate, stream-table and ledger entries — the same at
/// 20 % of the run as at its end.
pub fn endurance(opts: &BenchOpts) -> InvariantGate {
    report::heading("Endurance — 5,000 updates and 5,000 fetches over each connection");
    const ROUNDS: u64 = 5_000;
    let mut gate = InvariantGate::new("endurance", opts);
    let mut w = RelayWorld::from_plan(plans::endurance(), 17, 0).digested();
    let edge = w.tier("edge")[0];
    let stubs = w.stubs.clone();
    let nodes: Vec<(String, NodeId)> = [("auth".to_string(), w.auth), ("edge".into(), edge)]
        .into_iter()
        .chain(
            stubs
                .iter()
                .enumerate()
                .map(|(i, &s)| (format!("stub{i}"), s)),
        )
        .collect();
    let (delivered, fetched) = (w.delivered_updates(), w.fetched_total());
    let mut snapshots = Vec::new();
    let mut last_push = w.sim.now();
    for round in 1..=ROUNDS {
        last_push = w.sim.now();
        w.update_track(0, (round % 250) as u8 + 1);
        for &s in &stubs {
            w.sim.with_node::<TreeStub, _>(s, |n, ctx| n.fetch(ctx, 0));
        }
        w.sim.run_for(w.plan.update_interval);
        if round == ROUNDS / 5 || round == ROUNDS {
            let held: Vec<[u64; 3]> = nodes.iter().map(|&(_, id)| held(&mut w, id)).collect();
            snapshots.push(held);
        }
    }

    let subscriptions = stubs.len() as u64;
    gate.check_eq(
        "complete_delivery",
        ROUNDS * subscriptions,
        w.delivered_updates() - delivered,
    );
    let last_round = stubs.iter().all(|&s| {
        let stub = w.sim.node_ref::<TreeStub>(s);
        stub.updates == ROUNDS && stub.last_update_at.is_some_and(|at| at > last_push)
    });
    gate.check_true(
        "last_round_delivered",
        last_round,
        format!(
            "every stub saw {ROUNDS} updates, the last after {} ms",
            last_push.as_millis()
        ),
    );
    gate.check_eq(
        "standalone_fetches_answered",
        ROUNDS * subscriptions,
        w.fetched_total() - fetched,
    );
    let mut reasons = w.relay(edge).stats().reasons;
    for &s in &stubs {
        let raised = w
            .sim
            .with_node::<TreeStub, _>(s, |n, _| n.stack().reason_counts());
        reasons.add(&raised);
    }
    let raised: u64 = reasons.rows().iter().map(|&(.., n)| n).sum();
    gate.check_eq("reasons_raised", 0, raised);

    let mut t = Table::new(
        format!("{ROUNDS} rounds: what each node holds at 20 % and at 100 % of the run"),
        &["node", "state B", "stream entries", "ledger entries"],
    );
    for (i, (name, _)) in nodes.iter().enumerate() {
        let (at_fifth, at_end) = (snapshots[0][i], snapshots[1][i]);
        for (j, what) in ["state_bytes", "stream_entries", "ledger_entries"]
            .iter()
            .enumerate()
        {
            gate.check_eq(&format!("{name}_{what}_flat"), at_fifth[j], at_end[j]);
            gate.metric(&format!("{name}_{what}"), at_end[j]);
        }
        t.push(&[
            name.clone(),
            format!("{} / {}", at_fifth[0], at_end[0]),
            format!("{} / {}", at_fifth[1], at_end[1]),
            format!("{} / {}", at_fifth[2], at_end[2]),
        ]);
    }
    report::emit(&t, "exp_endurance");
    gate.metric("rounds", ROUNDS);
    gate.digest("endurance", w.sim.delivery_digest());
    println!(
        "Endurance: {} updates and {} fetches over each stub connection, \
         nothing refused, every table flat.\n",
        ROUNDS, ROUNDS
    );
    gate
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A typo in a column header or metric name fails here, not in the
    /// middle of a scenario.
    #[test]
    fn every_tier_table_column_and_metric_resolves() {
        let w = RelayWorld::from_plan(plans::relay_fanout(2, true), 1, 0);
        let tier = &w.tier_stats()[0];
        for (_, columns, metrics) in TIER_TABLES {
            for column in *columns {
                tier_cell(&w, tier, column);
            }
            for metric in *metrics {
                tier_counter(tier, metric);
            }
        }
    }
}
