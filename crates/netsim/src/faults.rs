//! Declarative, seeded fault plans: the chaos plane.
//!
//! A [`FaultPlan`] is an ordered list of `(time, action)` pairs built
//! once by a [`FaultPlanBuilder`] and then *applied* to a running world
//! by [`run_plan`]: a script like any other [`play`] takes. Supported
//! actions:
//!
//! * **link flaps** — a window during which a link drops every datagram
//!   (`loss = 1.0`, delay unchanged), then restores the original config;
//! * **region partitions** — cut every listed cross-region link for a
//!   window (a flap over a set of links sharing one window);
//! * **loss bursts** — degrade a link to a given loss probability for a
//!   window instead of cutting it outright;
//! * **node crash / restart** — delegated to the driver's callback, because
//!   only the application layer knows how to shut down and revive its
//!   concrete node types (e.g. `RelayNode::shutdown` / `revive`).
//!
//! ## Determinism contract
//!
//! Faults are applied at **barrier points**, the one way any driver acts
//! on a running world. Every world a script drives is a [`ParSim`]: the
//! paper's on one shard, a relay world on one or one per region. [`play`]
//! runs it with `run_until(at)`, which executes, and flushes, every
//! simulation event at or before that instant on every shard, and only
//! then acts: mutates link state, invokes the node callback, or runs
//! whatever else a script holds (a record change, a stub's lookup), each
//! `with_node` an instant of its own. A driver action due inside a
//! plan's window is merged into the plan's list, so every fault is
//! applied once. Link configs are read at *transmit* time on the sending
//! shard, so a change at the barrier affects exactly the transmits
//! scheduled after it, on one shard or many. Combined with the per-link
//! deterministic loss draws (see `Simulator`), a plan replays
//! bit-identically for any worker count — pinned by the parity test
//! below and end-to-end by `moqdns-bench`'s parallel parity suite.
//!
//! Flap windows keep each link's **delay** unchanged (only `loss` moves
//! to 1.0), so [`ParSim`]'s lookahead bound — the minimum cross-shard
//! link delay — is never invalidated mid-run.
//!
//! Window boundaries can be jittered deterministically from the plan
//! seed ([`FaultPlanBuilder::window_jitter`]): each boundary shifts by
//! `splitmix64(seed, event-seq) % span`, so "roughly every 5 s" chaos
//! schedules stay reproducible.

use crate::link::LinkConfig;
use crate::node::NodeId;
use crate::par::ParSim;
use crate::sim::splitmix64;
use crate::time::SimTime;
use std::time::Duration;

/// A node-lifecycle fault, delegated to the [`run_plan`] callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFault {
    /// Abruptly kill the node: it loses all volatile state and stops
    /// responding (application layer: `shutdown()`).
    Crash,
    /// Bring a crashed node back cold (application layer: `revive()` /
    /// `reset()` + re-dial).
    Restart,
}

/// One fault to apply at an instant.
#[derive(Debug, Clone, Copy)]
pub enum FaultAction {
    /// Set both directions of `a <-> b` to `cfg`.
    SetLink {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Config to install (both directions).
        cfg: LinkConfig,
    },
    /// Set only the directed link `src -> dst` to `cfg`.
    SetLinkDirected {
        /// Transmitting side.
        src: NodeId,
        /// Receiving side.
        dst: NodeId,
        /// Config to install.
        cfg: LinkConfig,
    },
    /// Crash or restart `node` via the [`run_plan`] callback.
    Node {
        /// The affected node.
        node: NodeId,
        /// What happens to it.
        fault: NodeFault,
    },
}

/// An immutable, time-ordered fault schedule: each fault with the
/// instant it applies at (a barrier point). Build with
/// [`FaultPlanBuilder`]; apply with [`run_plan`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<(SimTime, FaultAction)>,
}

impl FaultAction {
    /// Applies the fault to `sim`; a node fault goes to `on_node`.
    pub fn apply(&self, sim: &mut ParSim, on_node: impl FnOnce(&mut ParSim, NodeId, NodeFault)) {
        match *self {
            FaultAction::SetLink { a, b, cfg } => sim.set_link(a, b, cfg),
            FaultAction::SetLinkDirected { src, dst, cfg } => sim.set_link_directed(src, dst, cfg),
            FaultAction::Node { node, fault } => on_node(sim, node, fault),
        }
    }
}

impl FaultPlan {
    /// The scheduled events in ascending time order (ties keep build
    /// order).
    pub fn events(&self) -> &[(SimTime, FaultAction)] {
        &self.events
    }
}

/// Builder for [`FaultPlan`]: compose flaps, partitions, loss bursts and
/// crash/restart events, each optionally jittered from the plan seed.
#[derive(Debug)]
pub struct FaultPlanBuilder {
    seed: u64,
    jitter: Duration,
    events: Vec<(SimTime, FaultAction)>,
}

impl FaultPlanBuilder {
    /// A builder whose window jitter (if enabled) derives from `seed`.
    pub fn new(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed,
            jitter: Duration::ZERO,
            events: Vec::new(),
        }
    }

    /// Jitters every subsequent window boundary forward by a
    /// deterministic amount in `[0, span)` drawn from the plan seed and
    /// the event's position. Call with `Duration::ZERO` to disable
    /// again.
    pub fn window_jitter(mut self, span: Duration) -> FaultPlanBuilder {
        self.jitter = span;
        self
    }

    fn jittered(&self, at: SimTime) -> SimTime {
        if self.jitter.is_zero() {
            return at;
        }
        let span = self.jitter.as_nanos() as u64;
        let draw =
            splitmix64(self.seed ^ (self.events.len() as u64).wrapping_mul(0xD134_2543_DE82_EF95));
        at + Duration::from_nanos(draw % span)
    }

    fn push(&mut self, at: SimTime, action: FaultAction) {
        let at = self.jittered(at);
        self.events.push((at, action));
    }

    /// Cuts `a <-> b` (loss 1.0, delay and rate unchanged) from `from`
    /// until `until`, then restores `up`.
    pub fn flap(
        mut self,
        a: NodeId,
        b: NodeId,
        up: LinkConfig,
        from: SimTime,
        until: SimTime,
    ) -> FaultPlanBuilder {
        assert!(until > from, "flap window must not be empty");
        self.push(
            from,
            FaultAction::SetLink {
                a,
                b,
                cfg: up.loss(1.0),
            },
        );
        self.push(until, FaultAction::SetLink { a, b, cfg: up });
        self
    }

    /// Degrades `a <-> b` to loss probability `loss` for the window,
    /// then restores `up`.
    ///
    /// Kept public for: the seeded fault-plan generator ROADMAP.md plans,
    /// which draws loss bursts beside partitions and node faults.
    pub fn loss_burst(
        mut self,
        a: NodeId,
        b: NodeId,
        up: LinkConfig,
        loss: f64,
        from: SimTime,
        until: SimTime,
    ) -> FaultPlanBuilder {
        assert!(until > from, "loss-burst window must not be empty");
        self.push(
            from,
            FaultAction::SetLink {
                a,
                b,
                cfg: up.loss(loss),
            },
        );
        self.push(until, FaultAction::SetLink { a, b, cfg: up });
        self
    }

    /// Partitions: cuts every listed link `(a, b, up-config)` at `from`
    /// and restores each at `until`. Used to isolate a region by listing
    /// all of its cross-region links.
    pub fn partition(
        mut self,
        links: &[(NodeId, NodeId, LinkConfig)],
        from: SimTime,
        until: SimTime,
    ) -> FaultPlanBuilder {
        assert!(until > from, "partition window must not be empty");
        for &(a, b, up) in links {
            self.push(
                from,
                FaultAction::SetLink {
                    a,
                    b,
                    cfg: up.loss(1.0),
                },
            );
        }
        for &(a, b, up) in links {
            self.push(until, FaultAction::SetLink { a, b, cfg: up });
        }
        self
    }

    /// Crashes `node` at `at` (the [`run_plan`] callback decides what
    /// that means).
    pub fn crash(mut self, node: NodeId, at: SimTime) -> FaultPlanBuilder {
        self.push(
            at,
            FaultAction::Node {
                node,
                fault: NodeFault::Crash,
            },
        );
        self
    }

    /// Restarts `node` at `at`.
    pub fn restart(mut self, node: NodeId, at: SimTime) -> FaultPlanBuilder {
        self.push(
            at,
            FaultAction::Node {
                node,
                fault: NodeFault::Restart,
            },
        );
        self
    }

    /// Finalizes the plan: stable-sorts by time (ties keep build order,
    /// so "cut then restore at the same instant" keeps its meaning).
    pub fn build(mut self) -> FaultPlan {
        self.events.sort_by_key(|&(at, _)| at);
        FaultPlan {
            events: self.events,
        }
    }
}

/// Drives `sim` to `end` through `script`, `(at, action)` pairs in
/// time order: runs to each action's instant — a barrier point — and
/// hands the action to `act` with the simulator. One shard or many, the
/// script is the same. Actions due after `end` are skipped.
pub fn play<A>(
    sim: &mut ParSim,
    script: impl IntoIterator<Item = (SimTime, A)>,
    end: SimTime,
    mut act: impl FnMut(&mut ParSim, A),
) {
    for (at, action) in script.into_iter().take_while(|(at, _)| *at <= end) {
        let at = at.max(sim.now());
        sim.run_until(at);
        act(sim, action);
    }
    sim.run_until(end);
}

/// [`play`]s `plan` on `sim` to `end`. Node faults are handed to
/// `on_node`, which crashes or revives the concrete node type (the
/// simulator is passed back so the callback can use `with_node`).
pub fn run_plan(
    sim: &mut ParSim,
    plan: &FaultPlan,
    end: SimTime,
    mut on_node: impl FnMut(&mut ParSim, NodeId, NodeFault),
) {
    let apply = |sim: &mut ParSim, fault: FaultAction| fault.apply(sim, &mut on_node);
    play(sim, plan.events.iter().copied(), end, apply);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Addr, Ctx, Node};
    use crate::Payload;
    use std::any::Any;

    /// Sends one sequenced datagram to a peer every 10 ms and records
    /// what it hears.
    #[derive(Default)]
    struct Ticker {
        peer: Option<Addr>,
        next_seq: u64,
        heard: Vec<(SimTime, u64)>,
    }

    impl Node for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if self.peer.is_some() {
                ctx.set_timer(Duration::from_millis(10), 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if let Some(peer) = self.peer {
                ctx.send(1, peer, self.next_seq.to_be_bytes().to_vec());
                self.next_seq += 1;
                ctx.set_timer(Duration::from_millis(10), 1);
            }
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, _from: Addr, _port: u16, payload: Payload) {
            let mut b = [0u8; 8];
            b.copy_from_slice(&payload);
            self.heard.push((ctx.now(), u64::from_be_bytes(b)));
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any_ref(&self) -> &dyn Any {
            self
        }
    }

    fn up() -> LinkConfig {
        LinkConfig::with_delay(Duration::from_millis(5))
    }

    /// A ticker on shard 0 sending to a sink on the last shard.
    fn build_world(sim: &mut ParSim) -> (NodeId, NodeId) {
        let b = sim.add_node(sim.workers() - 1, "sink", Box::<Ticker>::default());
        let a = sim.add_node(
            0,
            "ticker",
            Box::new(Ticker {
                peer: Some(Addr::new(b, 1)),
                ..Ticker::default()
            }),
        );
        sim.set_link(a, b, up());
        (a, b)
    }

    fn plan() -> FaultPlan {
        FaultPlanBuilder::new(9)
            .flap(
                NodeId::from_index(0),
                NodeId::from_index(1),
                up(),
                SimTime::from_millis(100),
                SimTime::from_millis(200),
            )
            .build()
    }

    #[test]
    fn flap_window_drops_then_recovers() {
        let mut sim = ParSim::new(7, 1);
        let (_a, b) = build_world(&mut sim);
        run_plan(&mut sim, &plan(), SimTime::from_millis(400), |_, _, _| {
            panic!("no node faults in this plan")
        });
        let heard = &sim.node_ref::<Ticker>(b).heard;
        assert!(!heard.is_empty());
        // Nothing lands inside the cut window. The flap applies at the
        // barrier *after* events at 100 ms, so the send fired at exactly
        // 100 ms still uses the up config and lands at 105 ms; the first
        // dropped send is 110 ms, the first post-recovery one 200 ms
        // (landing 205 ms).
        for (t, _) in heard {
            assert!(
                t.as_millis() <= 105 || t.as_millis() >= 205,
                "delivery at {t:?} inside the flap window"
            );
        }
        // Sequences resume after the window: the post-flap tail is
        // contiguous (no duplicates, no reordering).
        let tail: Vec<u64> = heard
            .iter()
            .filter(|(t, _)| t.as_millis() > 105)
            .map(|&(_, s)| s)
            .collect();
        assert!(!tail.is_empty(), "link never recovered");
        for w in tail.windows(2) {
            assert_eq!(w[1], w[0] + 1, "gap or duplicate after recovery");
        }
    }

    #[test]
    fn a_driver_action_inside_a_window_leaves_each_fault_applied_once() {
        let ms = SimTime::from_millis;
        let mut sim = ParSim::new(3, 1);
        let (a, b) = build_world(&mut sim);
        let plan = FaultPlanBuilder::new(0)
            .crash(a, ms(100))
            .restart(a, ms(300))
            .build();
        // One list: the driver's action goes after every fault due by its
        // instant, and nothing is played twice.
        let faults = plan.events().iter().map(|&(at, fault)| (at, Some(fault)));
        let script = faults
            .clone()
            .take(1)
            .chain([(ms(200), None)])
            .chain(faults.skip(1));
        let mut seen = Vec::new();
        play(&mut sim, script, ms(400), |sim, step| match step {
            Some(fault) => fault.apply(sim, |sim, node, fault| {
                seen.push((sim.now(), Some((node, fault))));
            }),
            None => seen.push((sim.with_node::<Ticker, _>(b, |_, ctx| ctx.now()), None)),
        });
        let (crash, restart) = (Some((a, NodeFault::Crash)), Some((a, NodeFault::Restart)));
        assert_eq!(
            seen,
            [(ms(100), crash), (ms(200), None), (ms(300), restart)]
        );
        assert_eq!(sim.now(), ms(400));
    }

    #[test]
    fn plan_parity_across_shardings() {
        // The same seeded world under the same plan produces identical
        // delivery digests on one shard and on two.
        let digest = |workers| {
            let mut sim = ParSim::new(11, workers);
            sim.enable_delivery_digest();
            build_world(&mut sim);
            run_plan(&mut sim, &plan(), SimTime::from_millis(400), |_, _, _| {});
            sim.history().digest
        };
        assert_eq!(digest(2), digest(1), "digest diverged with an active plan");
    }

    #[test]
    fn window_jitter_is_deterministic_and_bounded() {
        let build = |seed| {
            FaultPlanBuilder::new(seed)
                .window_jitter(Duration::from_millis(50))
                .flap(
                    NodeId::from_index(0),
                    NodeId::from_index(1),
                    up(),
                    SimTime::from_millis(100),
                    SimTime::from_millis(200),
                )
                .build()
        };
        let p1 = build(1);
        let p2 = build(1);
        for (a, b) in p1.events().iter().zip(p2.events()) {
            assert_eq!(a.0, b.0, "same seed must give the same schedule");
        }
        for (e, base) in p1.events().iter().zip([100u64, 200]) {
            let shift = e.0.as_millis() - base;
            assert!(shift < 50, "jitter {shift} ms exceeds the 50 ms span");
        }
        // A different seed moves at least one boundary.
        let p3 = build(2);
        assert!(
            p1.events().iter().zip(p3.events()).any(|(a, b)| a.0 != b.0),
            "jitter ignored the seed"
        );
    }

    #[test]
    fn partition_and_node_faults_schedule_in_order() {
        let n = |i| NodeId::from_index(i);
        let plan = FaultPlanBuilder::new(0)
            .partition(
                &[(n(0), n(2), up()), (n(1), n(2), up())],
                SimTime::from_secs(2),
                SimTime::from_secs(4),
            )
            .crash(n(3), SimTime::from_secs(1))
            .restart(n(3), SimTime::from_secs(3))
            .build();
        assert_eq!(plan.events().len(), 6);
        let times: Vec<u64> = plan.events().iter().map(|e| e.0.as_millis()).collect();
        assert_eq!(times, vec![1000, 2000, 2000, 3000, 4000, 4000]);
        assert!(matches!(
            plan.events()[0].1,
            FaultAction::Node {
                fault: NodeFault::Crash,
                ..
            }
        ));
    }
}
