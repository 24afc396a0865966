//! Determinism parity under loss and active fault plans.
//!
//! Two contracts pinned end-to-end at the netsim layer:
//!
//! 1. **Lossy-link determinism** (property test): a seeded world whose
//!    links drop (`loss > 0`) produces the *identical*
//!    delivery digest on every run, on one shard and on two — loss
//!    draws come from per-link deterministic streams, never the shard
//!    RNG, so sharding cannot move them.
//! 2. **Fault-plan parity**: applying the same seeded [`FaultPlan`]
//!    (flaps, partition windows, crash/restart callbacks) leaves the
//!    merged event history bit-identical for W ∈ {1, 2, N}.
//!
//! The reference is always one shard, which replays a single-threaded
//! `Simulator` exactly (`par`'s `one_worker_is_bit_identical`).

use moqdns_netsim::faults::{run_plan, FaultPlan, FaultPlanBuilder, NodeFault};
use moqdns_netsim::{Addr, Ctx, LinkConfig, Node, NodeId, ParSim, Payload, SimTime};
use proptest::prelude::*;
use std::any::Any;
use std::time::Duration;

const REGIONS: usize = 3;
const NODES_PER_REGION: usize = 3;

/// A chatty node: every 7 ms it sends a sequenced datagram to each of
/// its peers, and every third tick it also consumes node RNG — which
/// must never shift any link's loss pattern.
struct Chatter {
    peers: Vec<Addr>,
    seq: u64,
    ticks: u64,
    /// Dead nodes drop everything and stop ticking (the crash drill).
    alive: bool,
    heard: u64,
}

impl Chatter {
    fn new(peers: Vec<Addr>) -> Chatter {
        Chatter {
            peers,
            seq: 0,
            ticks: 0,
            alive: true,
            heard: 0,
        }
    }
}

impl Node for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Duration::from_millis(7), 1);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if !self.alive {
            return;
        }
        self.ticks += 1;
        if self.ticks.is_multiple_of(3) {
            // Node-level randomness interleaved with lossy traffic.
            ctx.random_u64();
        }
        for &peer in &self.peers {
            ctx.send(1, peer, self.seq.to_be_bytes().to_vec());
        }
        self.seq += 1;
        ctx.set_timer(Duration::from_millis(7), 1);
    }
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: Addr, _port: u16, _payload: Payload) {
        if self.alive {
            self.heard += 1;
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

/// Total datagrams the `nodes` heard while alive.
fn heard_total(sim: &ParSim, nodes: &[NodeId]) -> u64 {
    nodes
        .iter()
        .map(|&id| sim.node_ref::<Chatter>(id).heard)
        .sum()
}

fn intra_link() -> LinkConfig {
    LinkConfig::with_delay(Duration::from_millis(2))
}

fn cross_link(loss: f64) -> LinkConfig {
    LinkConfig::with_delay(Duration::from_millis(20)).loss(loss)
}

/// Builds a 3-region full-mesh world: every node peers with one node in
/// each other region (lossy cross links) and its regional neighbours
/// (clean links), region `r` on shard `r` or the last one. Node ids are
/// identical across worker counts because creation order is identical.
fn build_world(seed: u64, loss: f64, workers: usize) -> (ParSim, Vec<NodeId>) {
    let mut sim = ParSim::new(seed, workers);
    let mut ids: Vec<Vec<NodeId>> = vec![Vec::new(); REGIONS];
    let total = REGIONS * NODES_PER_REGION;
    // Peers are computed from the (deterministic) global index grid.
    let id_at = |r: usize, n: usize| NodeId::from_index(r * NODES_PER_REGION + n);
    for (r, region_ids) in ids.iter_mut().enumerate() {
        for n in 0..NODES_PER_REGION {
            let mut peers = Vec::new();
            // One cross-region peer in every other region (same slot).
            for o in 0..REGIONS {
                if o != r {
                    peers.push(Addr::new(id_at(o, n), 1));
                }
            }
            // The next node in the same region.
            peers.push(Addr::new(id_at(r, (n + 1) % NODES_PER_REGION), 1));
            let node = Box::new(Chatter::new(peers));
            let id = sim.add_node(r.min(workers - 1), format!("r{r}n{n}"), node);
            assert_eq!(id.index(), r * NODES_PER_REGION + n);
            region_ids.push(id);
        }
    }
    for a in 0..total {
        for b in (a + 1)..total {
            let (ra, rb) = (a / NODES_PER_REGION, b / NODES_PER_REGION);
            let cfg = if ra == rb {
                intra_link()
            } else {
                cross_link(loss)
            };
            sim.set_link(NodeId::from_index(a), NodeId::from_index(b), cfg);
        }
    }
    sim.enable_delivery_digest();
    (sim, ids.concat())
}

/// A plan exercising every fault kind: flap one cross link through the
/// middle of the run, partition region 2 for a window, crash one node
/// and restart it later.
fn chaos_plan(loss: f64) -> FaultPlan {
    let id_at = |r: usize, n: usize| NodeId::from_index(r * NODES_PER_REGION + n);
    let mut cut = Vec::new();
    for n in 0..NODES_PER_REGION {
        for o in 0..REGIONS - 1 {
            for m in 0..NODES_PER_REGION {
                cut.push((id_at(o, m), id_at(REGIONS - 1, n), cross_link(loss)));
            }
        }
    }
    FaultPlanBuilder::new(0xC4A05)
        .window_jitter(Duration::from_millis(4))
        .flap(
            id_at(0, 0),
            id_at(1, 0),
            cross_link(loss),
            SimTime::from_millis(100),
            SimTime::from_millis(220),
        )
        .partition(&cut, SimTime::from_millis(300), SimTime::from_millis(380))
        .crash(id_at(1, 1), SimTime::from_millis(150))
        .restart(id_at(1, 1), SimTime::from_millis(400))
        .build()
}

fn run_chaos(seed: u64, loss: f64, workers: usize) -> (u64, u64) {
    let (mut sim, ids) = build_world(seed, loss, workers);
    let plan = chaos_plan(loss);
    run_plan(
        &mut sim,
        &plan,
        SimTime::from_millis(600),
        |sim, node, fault| {
            let alive = fault == NodeFault::Restart;
            sim.with_node::<Chatter, _>(node, |c, ctx| {
                c.alive = alive;
                if alive {
                    ctx.set_timer(Duration::from_millis(7), 1);
                }
            });
        },
    );
    (sim.history().digest, heard_total(&sim, &ids))
}

fn run_plain(seed: u64, loss: f64, workers: usize) -> (u64, u64) {
    let (mut sim, ids) = build_world(seed, loss, workers);
    sim.run_until(SimTime::from_millis(600));
    (sim.history().digest, heard_total(&sim, &ids))
}

#[test]
fn fault_plan_parity_across_worker_counts() {
    let single = run_chaos(42, 0.15, 1);
    assert!(single.1 > 0, "world must deliver something");
    for workers in [2, REGIONS] {
        let par = run_chaos(42, 0.15, workers);
        assert_eq!(single, par, "fault-plan run diverged at {workers} workers");
    }
}

#[test]
fn crash_window_suppresses_and_restart_resumes() {
    // Sanity on the drill itself: the crashed node hears nothing while
    // down, and the fleet keeps delivering after every fault heals.
    let chaotic = run_chaos(42, 0.0, 1);
    let calm = run_plain(42, 0.0, 1);
    assert!(
        chaotic.1 < calm.1,
        "faults must suppress some deliveries: {} !< {}",
        chaotic.1,
        calm.1
    );
}

proptest! {
    // Task-7 property: lossy worlds are reproducible — same seed, same
    // digest — on repeated runs and across shardings (incl. --par 2).
    #[test]
    fn prop_lossy_world_digest_is_sharding_invariant(seed in any::<u64>(), loss_pct in 1u32..60) {
        let loss = f64::from(loss_pct) / 100.0;
        let first = run_plain(seed, loss, 1);
        prop_assert!(first.1 > 0);
        prop_assert_eq!(first, run_plain(seed, loss, 1));
        prop_assert_eq!(first, run_plain(seed, loss, 2));
    }

    // Same property with an active fault plan on top.
    #[test]
    fn prop_chaos_digest_is_sharding_invariant(seed in any::<u64>(), loss_pct in 1u32..40) {
        let loss = f64::from(loss_pct) / 100.0;
        let first = run_chaos(seed, loss, 1);
        prop_assert_eq!(first, run_chaos(seed, loss, 1));
        prop_assert_eq!(first, run_chaos(seed, loss, 2));
    }
}
