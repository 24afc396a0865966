//! Parallel-simulation parity: the sharded builds of the multi-region
//! worlds must be *indistinguishable* from their one-shard builds —
//! identical delivery digests and identical gate metrics — at 2 and N
//! workers. (`tests/baselines_replay.rs` holds the same rows at three
//! shards to their committed baselines byte for byte.)
//!
//! This is the end-to-end check of the conservative-lookahead contract
//! (`moqdns_netsim::par`): within a shard execution order is exactly the
//! one-shard order, and cross-shard datagrams carry sender-composed
//! scheduler keys, so the merged event history is the same history the
//! global scheduler would have produced.

use moqdns_bench::plans;
use moqdns_bench::scenarios::{add_wave, ChaosDrill};
use moqdns_bench::worlds::RelayWorld;
use moqdns_workload::scenarios::MetroScenario;

/// Everything we compare between a one-shard and a sharded run.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    delivered_updates: u64,
    fetched_or_cores: u64,
    total_datagrams: u64,
    total_bytes: u64,
    digest: u64,
    now_nanos: u64,
}

/// The resident stubs' counters plus the world-wide traffic totals.
fn observe(w: &RelayWorld) -> Observed {
    Observed {
        delivered_updates: w.delivered_updates(),
        fetched_or_cores: w.fetched_total(),
        total_datagrams: w.sim.stats().total_datagrams(),
        total_bytes: w.sim.stats().total_bytes(),
        digest: w.sim.delivery_digest(),
        now_nanos: w.sim.now().as_nanos(),
    }
}

fn run_federation(workers: usize) -> Observed {
    let mut w = RelayWorld::from_plan(plans::federation(true), 7, workers);
    // The digest is enabled post-settle in every variant, so it covers
    // the same (dynamic) phase of the run: three update rounds plus an
    // origin kill and a late joiner.
    w.sim.enable_delivery_digest();
    w.update_round(10);
    w.update_round(20);
    w.shutdown(w.auth);
    w.add_late_edge(1, plans::federation_late_edge(0, 2));
    w.update_round(30);
    Observed {
        delivered_updates: w.delivered_updates(),
        fetched_or_cores: w.delivered_between(&[w.auth], w.tier("core")),
        ..observe(&w)
    }
}

fn run_metro(workers: usize) -> Observed {
    let plan = plans::metro(&MetroScenario::metro().smoke());
    let mut w = RelayWorld::from_plan(plan, 7, workers);
    w.sim.enable_delivery_digest();
    w.update_round(10);
    w.update_round(20);
    observe(&w)
}

#[test]
fn federation_parallel_matches_single() {
    let single = run_federation(1);
    assert!(single.delivered_updates > 0, "world must actually deliver");
    assert!(single.digest != 0, "digest must cover the dynamic phase");
    for workers in [2, 3] {
        let par = run_federation(workers);
        assert_eq!(single, par, "federation diverged at W={workers}");
    }
}

#[test]
fn metro_parallel_matches_single() {
    let single = run_metro(1);
    assert!(single.delivered_updates > 0, "world must actually deliver");
    assert!(single.digest != 0, "digest must cover the dynamic phase");
    for workers in [2, 3] {
        let par = run_metro(workers);
        assert_eq!(single, par, "metro diverged at W={workers}");
    }
}

/// The full four-phase chaos drill (clean round, uplink flap, region
/// partition, edge crash/restart) with an *active fault plan* — the
/// end-to-end pin that faults applied at barriers plus per-link loss
/// draws keep the sharded event history bit-identical.
fn run_chaos(workers: usize) -> (Observed, u64, u64) {
    let mut d = ChaosDrill::build(true, 7, workers);
    d.w.sim.enable_delivery_digest();
    d.w.update_round(10);
    d.flap_drill(30);
    d.partition_drill(50);
    d.crash_drill(70, 90);
    let obs = Observed {
        delivered_updates: d.w.delivered_updates() + d.w.delivered(&d.cohort),
        fetched_or_cores: d.w.fetched_total() + d.w.fetched(&d.cohort),
        ..observe(&d.w)
    };
    (obs, d.redials().iter().sum(), d.total_regressions())
}

#[test]
fn chaos_drill_parallel_matches_single() {
    let single = run_chaos(1);
    assert!(
        single.0.delivered_updates > 0,
        "world must actually deliver"
    );
    assert!(single.1 > 0, "the crash drill must force redials");
    assert_eq!(single.2, 0, "no duplicate delivery under faults");
    for workers in [2, 3] {
        let par = run_chaos(workers);
        assert_eq!(single, par, "chaos drill diverged at W={workers}");
    }
}

fn run_planet(workers: usize) -> Observed {
    let (plan, zipf) = plans::planet(true, 7);
    let mut w = RelayWorld::from_plan(plan, 7, workers);
    w.sim.enable_delivery_digest();
    // One resident round, then a full diurnal wave (dawn → midday round
    // → dusk) — the wave path adds nodes and closes connections mid-run,
    // which must also be bit-identical under sharding.
    w.update_round(10);
    let cohort = add_wave(&mut w, &zipf, 0, 2);
    w.sim.run_for(w.plan.update_interval * 2);
    w.update_round(20);
    w.leave(&cohort);
    w.sim.run_for(w.plan.update_interval);
    w.update_round(30);
    Observed {
        delivered_updates: w.delivered_updates() + w.delivered(&cohort),
        fetched_or_cores: w.fetched_total() + w.fetched(&cohort),
        ..observe(&w)
    }
}

#[test]
fn planet_parallel_matches_single() {
    let single = run_planet(1);
    assert!(single.delivered_updates > 0, "world must actually deliver");
    assert!(single.digest != 0, "digest must cover the dynamic phase");
    let par = run_planet(4);
    assert_eq!(single, par, "planet diverged at W=4");
}

#[test]
fn worker_count_is_clamped_to_regions() {
    // Requesting more shards than regions must not leave empty shards
    // (an empty shard would register no cross-shard link and poison the
    // lookahead bound) — the builder clamps to the region count; and
    // `0` means one shard, like `1`.
    let w = RelayWorld::from_plan(plans::federation(true), 7, 64);
    assert_eq!(w.sim.workers(), w.tier("core").len());
    let w = RelayWorld::from_plan(plans::federation(true), 7, 0);
    assert_eq!(w.sim.workers(), 1);
}
