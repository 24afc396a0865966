//! Parallel-simulation parity: the sharded ([`ParSim`]-backed) builds of
//! the standing worlds must be *indistinguishable* from the
//! single-threaded CI-baseline builds — identical delivery digests and
//! identical gate metrics — for 1, 2, and N workers (the single-region
//! plans for the one shard they clamp to).
//!
//! This is the end-to-end check of the conservative-lookahead contract
//! (`moqdns_netsim::par`): within a shard execution order is exactly the
//! single-threaded order, and cross-shard datagrams carry sender-composed
//! scheduler keys, so the merged event history is the same history the
//! global scheduler would have produced.

use moqdns_bench::plans::{self, AttackKind};
use moqdns_bench::scenarios::{add_wave, adversarial_world, ChaosDrill};
use moqdns_bench::worlds::{RelayWorld, SimHandle};
use moqdns_workload::scenarios::{
    AdversarialScenario, ChaosScenario, FederationScenario, MeshScenario, MetroScenario,
    PlanetScenario, TreeScenario,
};

/// Everything we compare between a single-threaded and a sharded run.
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
    let spec = FederationScenario::federation().smoke();
    let mut w = RelayWorld::build_with_workers(&spec, 7, workers);
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
    let spec = MetroScenario::metro().smoke();
    let mut w = RelayWorld::build_with_workers(&spec, 7, workers);
    w.sim.enable_delivery_digest();
    w.update_round(10);
    w.update_round(20);
    observe(&w)
}

#[test]
fn federation_parallel_matches_single() {
    let single = run_federation(0);
    assert!(single.delivered_updates > 0, "world must actually deliver");
    assert!(single.digest != 0, "digest must cover the dynamic phase");
    for workers in [1, 2, 3] {
        let par = run_federation(workers);
        assert_eq!(single, par, "federation diverged at W={workers}");
    }
}

#[test]
fn metro_parallel_matches_single() {
    let single = run_metro(0);
    assert!(single.delivered_updates > 0, "world must actually deliver");
    assert!(single.digest != 0, "digest must cover the dynamic phase");
    for workers in [1, 2, 3] {
        let par = run_metro(workers);
        assert_eq!(single, par, "metro diverged at W={workers}");
    }
}

/// The full four-phase chaos drill (clean round, uplink flap, region
/// partition, edge crash/restart) with an *active fault plan* — the
/// end-to-end pin that faults applied at barriers plus per-link loss
/// draws keep the sharded event history bit-identical.
fn run_chaos(workers: usize) -> (Observed, u64, u64) {
    let spec = ChaosScenario::chaos().smoke();
    let mut d = ChaosDrill::build(&spec, 7, workers);
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
    let single = run_chaos(0);
    assert!(
        single.0.delivered_updates > 0,
        "world must actually deliver"
    );
    assert!(single.1 > 0, "the crash drill must force redials");
    assert_eq!(single.2, 0, "no duplicate delivery under faults");
    for workers in [1, 2, 3] {
        let par = run_chaos(workers);
        assert_eq!(single, par, "chaos drill diverged at W={workers}");
    }
}

fn run_planet(workers: usize) -> Observed {
    let spec = PlanetScenario::planet().smoke();
    let mut w = RelayWorld::build_with_workers(&spec, 7, workers);
    w.sim.enable_delivery_digest();
    // One resident round, then a full diurnal wave (dawn → midday round
    // → dusk) — the wave path adds nodes and closes connections mid-run,
    // which must also be bit-identical under sharding.
    w.update_round(10);
    let cohort = add_wave(&mut w, &spec, 0);
    w.sim.run_for(spec.update_interval * 2);
    w.update_round(20);
    w.leave(&cohort);
    w.sim.run_for(spec.update_interval);
    w.update_round(30);
    Observed {
        delivered_updates: w.delivered_updates() + w.delivered(&cohort),
        fetched_or_cores: w.fetched_total() + w.fetched(&cohort),
        ..observe(&w)
    }
}

#[test]
fn planet_parallel_matches_single() {
    let single = run_planet(0);
    assert!(single.delivered_updates > 0, "world must actually deliver");
    assert!(single.digest != 0, "digest must cover the dynamic phase");
    for workers in [1, 4] {
        let par = run_planet(workers);
        assert_eq!(single, par, "planet diverged at W={workers}");
    }
}

#[test]
fn worker_count_is_clamped_to_regions() {
    // Requesting more shards than regions must not leave empty shards
    // (an empty shard would register no cross-shard link and poison the
    // lookahead bound) — the builder clamps to the region count.
    let spec = FederationScenario::federation().smoke();
    let w = RelayWorld::build_with_workers(&spec, 7, 64);
    assert_eq!(w.sim.workers(), spec.cores);
    match &w.sim {
        SimHandle::Par(p) => assert_eq!(p.workers(), spec.cores),
        SimHandle::Single(_) => panic!("expected the sharded variant"),
    }
}

/// The single-region plans (tree, mesh, adversarial) have no region cut,
/// so every worker count clamps to one shard: the whole world replayed
/// through the `ParSim` plumbing must match the plain simulator.
fn run_single_region(workers: usize) -> [Observed; 3] {
    let mut tree = RelayWorld::build_with_workers(&TreeScenario::ddns_tree().smoke(), 7, workers);
    tree.sim.enable_delivery_digest();
    tree.update_round(10);
    tree.shutdown(tree.tier("tier1")[0]);
    tree.update_round(20);
    tree.update_round(30);

    let mut mesh = RelayWorld::build_with_workers(&MeshScenario::mesh().smoke(), 7, workers);
    mesh.sim.enable_delivery_digest();
    mesh.update_round(10);
    let victim = mesh.tier("core")[mesh.home_core(0)];
    mesh.shutdown(victim);
    mesh.update_round(20);
    mesh.revive(victim);
    mesh.update_round(30);

    let spec = AdversarialScenario::adversarial().smoke();
    let (mut adv, _) = adversarial_world(&spec, AttackKind::FetchBomb, 7, workers);
    adv.sim.enable_delivery_digest();
    adv.update_round(10);
    adv.update_round(20);

    [observe(&tree), observe(&mesh), observe(&adv)]
}

#[test]
fn single_region_plans_match_through_one_shard() {
    let single = run_single_region(0);
    for (name, obs) in ["tree", "mesh", "adversarial"].iter().zip(&single) {
        assert!(obs.delivered_updates > 0, "{name} must actually deliver");
        assert!(
            obs.digest != 0,
            "{name} digest must cover the dynamic phase"
        );
    }
    let par = run_single_region(1);
    for ((name, s), p) in ["tree", "mesh", "adversarial"]
        .iter()
        .zip(&single)
        .zip(&par)
    {
        assert_eq!(s, p, "{name} diverged at W=1");
    }
}
