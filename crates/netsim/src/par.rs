//! Parallel, shard-per-region simulation with conservative lookahead.
//!
//! [`ParSim`] runs one [`Simulator`] *shard* per worker: each shard owns
//! its region's nodes, links, seeded RNG, and timing wheel, and runs on
//! its own thread inside each synchronization window.
//!
//! ## Lookahead / barrier determinism contract
//!
//! The synchronization is classic conservative (Chandy–Misra style)
//! parallel discrete-event simulation, with barriers instead of null
//! messages:
//!
//! * The **lookahead bound** `L` is the minimum propagation delay over
//!   all cross-shard links (tracked as links are registered; every
//!   cross-shard link must have positive delay). A datagram sent at time
//!   `t` toward another shard cannot arrive before `t + L`.
//! * Time advances in **windows** `[T, T + L)`: every shard executes all
//!   of its events strictly before the window end *without any
//!   communication* — safe, because no event another shard executes in
//!   the same window can affect it earlier than `T + L`.
//! * At the **barrier** ending a window, shards exchange the datagrams
//!   parked in their outboxes; each is injected into the destination
//!   shard's wheel carrying the key its *sender* composed —
//!   `(schedule-time, source node, per-source seq)` — so it sorts exactly
//!   where a single global scheduler would have placed it (see the `sim`
//!   module docs for the key contract next to the timing-wheel contract).
//! * A `run_until(deadline)` finishes with one inclusive pass over the
//!   events *at* the deadline plus a final exchange; cross-shard sends
//!   made at the deadline arrive strictly later (delay ≥ L > 0) and wait
//!   for the next call.
//!
//! Because the scheduler key is a pure function of each source's local
//! history (never of global execution order), the merged event history
//! of a sharded run is **bit-identical** to the single-threaded run of
//! the same world: per-node delivery traces, times, and payload bytes
//! all match. The tests below pin this on delivery traces and digests;
//! the parity tests in `moqdns-bench` pin it end-to-end on the standing
//! multi-region worlds (digests and gate metrics) for 1, 2, and N
//! workers.

use crate::link::LinkConfig;
use crate::node::{Ctx, Node, NodeId};
use crate::sim::Simulator;
use crate::stats::{TrafficStats, TrafficStatsMut};
use crate::time::SimTime;
use std::time::Duration;

/// A parallel simulator: one shard (worker) per region, synchronized at
/// conservative-lookahead barriers. The API mirrors [`Simulator`] except
/// that node creation names the owning shard.
pub struct ParSim {
    shards: Vec<Simulator>,
    /// Global node id → owning shard.
    owner: Vec<u16>,
    /// Global node names (shard-local tables only name their own nodes).
    names: Vec<String>,
    /// Minimum cross-shard link delay registered so far.
    lookahead: Duration,
    now: SimTime,
}

impl ParSim {
    /// Creates a parallel simulator with `workers` shards. Shard 0 uses
    /// `seed` verbatim (a 1-worker `ParSim` replays the exact event
    /// stream of `Simulator::new(seed)`); further shards derive their
    /// own independent streams from it.
    pub fn new(seed: u64, workers: usize) -> ParSim {
        assert!(workers >= 1, "need at least one worker");
        assert!(workers <= u16::MAX as usize, "shard index is 16 bits");
        let shards = (0..workers)
            .map(|i| {
                let shard_seed = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut shard = Simulator::new_shard(shard_seed, i as u16);
                // Per-link loss/jitter draws use the *base* seed on every
                // shard: link randomness is a function of the world, not
                // of which shard happens to run the transmit.
                shard.set_link_seed(seed);
                shard
            })
            .collect();
        ParSim {
            shards,
            owner: Vec::new(),
            names: Vec::new(),
            lookahead: Duration::MAX,
            now: SimTime::ZERO,
        }
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Adds a node owned by `shard`; its `on_start` runs at the current
    /// simulation time when that shard's event loop next executes.
    pub fn add_node(
        &mut self,
        shard: usize,
        name: impl Into<String>,
        node: Box<dyn Node>,
    ) -> NodeId {
        assert!(shard < self.shards.len(), "no such shard: {shard}");
        let name = name.into();
        let id = NodeId::from_index(self.names.len());
        let mut node = Some(node);
        for (si, sim) in self.shards.iter_mut().enumerate() {
            if si == shard {
                let got = sim.add_node(name.clone(), node.take().unwrap());
                debug_assert_eq!(got, id, "shard node tables out of lockstep");
            } else {
                sim.add_foreign_slot();
            }
            sim.push_owner(shard as u16);
        }
        self.owner.push(shard as u16);
        self.names.push(name);
        id
    }

    /// Human-readable node name (for traces and experiment output).
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// Sets the link configuration used for pairs without an override
    /// (applied to every shard).
    pub fn set_default_link(&mut self, cfg: LinkConfig) {
        for s in &mut self.shards {
            s.set_default_link(cfg);
        }
    }

    /// Sets the directed link `src -> dst` (stored on the shard owning
    /// `src`, which runs the transmit). A cross-shard link's delay feeds
    /// the lookahead bound and must be positive.
    pub fn set_link_directed(&mut self, src: NodeId, dst: NodeId, cfg: LinkConfig) {
        let so = self.owner[src.index()];
        let dst_shard = self.owner[dst.index()];
        if so != dst_shard {
            assert!(
                cfg.delay > Duration::ZERO,
                "cross-shard link {src} -> {dst} needs positive delay: \
                 the lookahead bound is the minimum cross-shard latency"
            );
            self.lookahead = self.lookahead.min(cfg.delay);
        }
        self.shards[so as usize].set_link_directed(src, dst, cfg);
    }

    /// Sets both directions between `a` and `b`.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        self.set_link_directed(a, b, cfg);
        self.set_link_directed(b, a, cfg);
    }

    /// Current simulated time (the barrier front; every shard has
    /// executed everything before it).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently scheduled across all shards.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.pending_events()).sum()
    }

    /// Traffic counters merged across shards.
    pub fn stats(&self) -> TrafficStats<'_> {
        TrafficStats {
            cores: self.shards.iter().map(|s| s.core_ref()).collect(),
        }
    }

    /// Mutable traffic counters (e.g. to reset after warm-up).
    pub fn stats_mut(&mut self) -> TrafficStatsMut<'_> {
        TrafficStatsMut {
            cores: self.shards.iter_mut().map(|s| s.core_mut()).collect(),
        }
    }

    /// Enables the order-independent delivery digest on every shard.
    pub fn enable_delivery_digest(&mut self) {
        for s in &mut self.shards {
            s.enable_delivery_digest();
        }
    }

    /// The combined delivery digest: the wrapping sum over all shards,
    /// i.e. over all deliveries — directly comparable to a
    /// single-threaded [`Simulator::delivery_digest`] of the same world.
    pub fn delivery_digest(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.delivery_digest()))
    }

    /// Runs `f` with mutable access to the concrete node `T` at `id`
    /// (routed to its owning shard) plus a [`Ctx`]. Datagrams the call
    /// sends toward other shards are exchanged immediately afterwards.
    pub fn with_node<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let s = self.owner[id.index()] as usize;
        let r = self.shards[s].with_node(id, f);
        self.exchange();
        r
    }

    /// Immutable access to the concrete node `T` at `id`.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        self.shards[self.owner[id.index()] as usize].node_ref(id)
    }

    /// Runs events until `deadline`, advancing in lookahead windows with
    /// barrier exchanges, one worker thread per shard per window (shards
    /// with nothing to do in a window skip the thread). Returns the
    /// number of events executed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        assert!(deadline >= self.now, "deadline is in the past");
        let mut total = 0;

        if self.shards.len() == 1 {
            // Degenerate parallel run: the single shard needs no windows
            // (and no lookahead), making it the exact event stream of a
            // single-threaded run — the anchor of the parity tests.
            total += self.shards[0].run_until(deadline);
            self.now = deadline;
            self.exchange();
            return total;
        }

        let lookahead = self.lookahead;
        assert!(
            lookahead > Duration::ZERO && lookahead < Duration::MAX,
            "parallel run requires a registered cross-shard link (its \
             minimum delay is the lookahead bound)"
        );

        while self.now < deadline {
            let end = (self.now + lookahead).min(deadline);
            total += self.run_shards_window(end);
            self.now = end;
            self.exchange();
        }

        // Inclusive tail: events exactly at the deadline (the windows
        // above are half-open). Any cross-shard sends they make arrive
        // at ≥ deadline + L and wait in the destination wheel.
        let mut counts = vec![0u64; self.shards.len()];
        std::thread::scope(|scope| {
            for (sim, cnt) in self.shards.iter_mut().zip(counts.iter_mut()) {
                if sim.has_event_at_or_before(deadline) {
                    scope.spawn(move || *cnt = sim.run_until(deadline));
                } else {
                    sim.run_until(deadline); // just advances the clock
                }
            }
        });
        total += counts.iter().sum::<u64>();
        self.exchange();
        total
    }

    /// Runs for `d` of simulated time from now.
    pub fn run_for(&mut self, d: Duration) -> u64 {
        let deadline = self.now + d;
        self.run_until(deadline)
    }

    /// One half-open window `[now, end)`: every shard with work runs on
    /// its own thread; idle shards just advance their clocks.
    fn run_shards_window(&mut self, end: SimTime) -> u64 {
        let mut counts = vec![0u64; self.shards.len()];
        std::thread::scope(|scope| {
            for (sim, cnt) in self.shards.iter_mut().zip(counts.iter_mut()) {
                if sim.has_event_before(end) {
                    scope.spawn(move || *cnt = sim.run_window(end));
                } else {
                    sim.run_window(end); // just advances the clock
                }
            }
        });
        counts.iter().sum()
    }

    /// Barrier exchange: drain every shard's outbox, then inject each
    /// datagram into its destination shard's wheel. Injection order is
    /// irrelevant — the sender-composed keys are globally unique and the
    /// wheel orders purely by `(at, key)`.
    fn exchange(&mut self) {
        let mut all = Vec::new();
        for sim in &mut self.shards {
            let mut box_ = sim.take_outbox();
            all.append(&mut box_);
        }
        for msg in all {
            let dest = self.owner[msg.to.node.index()] as usize;
            self.shards[dest].inject(msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Addr;
    use moqdns_wire::Payload;
    use std::any::Any;

    /// Ping-pong node: replies to every datagram, records arrival times.
    struct Pinger {
        peer: Option<Addr>,
        serve: bool,
        heard: Vec<(SimTime, Addr, usize)>,
        rounds: u32,
    }

    impl Pinger {
        fn client(peer: Addr, rounds: u32) -> Box<Pinger> {
            Box::new(Pinger {
                peer: Some(peer),
                serve: false,
                heard: Vec::new(),
                rounds,
            })
        }
        fn server() -> Box<Pinger> {
            Box::new(Pinger {
                peer: None,
                serve: true,
                heard: Vec::new(),
                rounds: 0,
            })
        }
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(peer) = self.peer {
                ctx.send(1, peer, vec![self.rounds as u8]);
            }
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, _port: u16, p: Payload) {
            self.heard.push((ctx.now(), from, p.len()));
            if self.serve {
                ctx.send(1, from, p); // echo
            } else if self.rounds > 1 {
                self.rounds -= 1;
                ctx.send(1, from, vec![self.rounds as u8]);
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any_ref(&self) -> &dyn Any {
            self
        }
    }

    /// Builds the same 2-region world single-threaded and sharded:
    /// a server per region, clients in each region ping the *other*
    /// region's server across a 10 ms link.
    fn trace_single(regions: usize, clients: usize, horizon: SimTime) -> (Vec<Vec<SimTime>>, u64) {
        let mut sim = Simulator::new(42);
        sim.enable_delivery_digest();
        let link = LinkConfig::with_delay(Duration::from_millis(10));
        let servers: Vec<NodeId> = (0..regions)
            .map(|r| sim.add_node(format!("srv{r}"), Pinger::server()))
            .collect();
        let mut cl = Vec::new();
        for r in 0..regions {
            for c in 0..clients {
                let target = Addr::new(servers[(r + 1) % regions], 1);
                let id = sim.add_node(format!("cl{r}-{c}"), Pinger::client(target, 3));
                sim.set_link(id, servers[(r + 1) % regions], link);
                cl.push(id);
            }
        }
        sim.run_until(horizon);
        let traces = cl
            .iter()
            .map(|&c| {
                sim.node_ref::<Pinger>(c)
                    .heard
                    .iter()
                    .map(|(t, ..)| *t)
                    .collect()
            })
            .collect();
        (traces, sim.delivery_digest())
    }

    fn trace_par(
        regions: usize,
        clients: usize,
        workers: usize,
        horizon: SimTime,
    ) -> (Vec<Vec<SimTime>>, u64) {
        let mut sim = ParSim::new(42, workers);
        sim.enable_delivery_digest();
        let link = LinkConfig::with_delay(Duration::from_millis(10));
        let servers: Vec<NodeId> = (0..regions)
            .map(|r| sim.add_node(r % workers, format!("srv{r}"), Pinger::server()))
            .collect();
        let mut cl = Vec::new();
        for r in 0..regions {
            for c in 0..clients {
                let target = Addr::new(servers[(r + 1) % regions], 1);
                let id = sim.add_node(r % workers, format!("cl{r}-{c}"), Pinger::client(target, 3));
                sim.set_link(id, servers[(r + 1) % regions], link);
                cl.push(id);
            }
        }
        sim.run_until(horizon);
        let traces = cl
            .iter()
            .map(|&c| {
                sim.node_ref::<Pinger>(c)
                    .heard
                    .iter()
                    .map(|(t, ..)| *t)
                    .collect()
            })
            .collect();
        (traces, sim.delivery_digest())
    }

    #[test]
    fn parallel_matches_single_threaded_traces() {
        let horizon = SimTime::from_secs(2);
        let single = trace_single(4, 3, horizon);
        for workers in [1, 2, 4] {
            let par = trace_par(4, 3, workers, horizon);
            assert_eq!(single.0, par.0, "delivery traces diverged at W={workers}");
            assert_eq!(single.1, par.1, "digest diverged at W={workers}");
        }
    }

    #[test]
    fn one_worker_is_bit_identical() {
        // W=1 takes the degenerate path: no windows, exact event stream.
        let horizon = SimTime::from_secs(1);
        assert_eq!(trace_single(2, 2, horizon), trace_par(2, 2, 1, horizon));
    }

    #[test]
    fn stats_merge_across_shards() {
        let horizon = SimTime::from_secs(1);
        let build = |workers: usize| {
            let mut sim = ParSim::new(7, workers);
            let link = LinkConfig::with_delay(Duration::from_millis(10));
            let srv = sim.add_node(0, "srv", Pinger::server());
            let cl = sim.add_node(workers - 1, "cl", Pinger::client(Addr::new(srv, 1), 2));
            sim.set_link(cl, srv, link);
            sim.run_until(horizon);
            (sim, srv, cl)
        };
        let (par, srv, cl) = build(2);
        let (single, srv1, cl1) = build(1);
        let p = par.stats().between(cl, srv);
        let s = single.stats().between(cl1, srv1);
        assert_eq!(p, s, "cross-shard pair stats must merge to the single view");
        assert!(p.delivered >= 2);
        assert_eq!(
            par.stats().total_datagrams(),
            single.stats().total_datagrams()
        );
    }

    #[test]
    fn cross_shard_timers_and_with_node_flush() {
        // with_node on a sharded sim must flush cross-shard sends made
        // during the call so they are not stranded in an outbox.
        let mut sim = ParSim::new(1, 2);
        let link = LinkConfig::with_delay(Duration::from_millis(20));
        let srv = sim.add_node(0, "srv", Pinger::server());
        let cl = sim.add_node(1, "cl", Pinger::client(Addr::new(srv, 1), 1));
        sim.set_link(cl, srv, link);
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.node_ref::<Pinger>(cl).heard.len(), 1);

        sim.with_node::<Pinger, _>(cl, |_, ctx| {
            ctx.send(1, Addr::new(srv, 1), vec![9]);
        });
        sim.run_for(Duration::from_millis(100));
        assert_eq!(sim.node_ref::<Pinger>(srv).heard.len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive delay")]
    fn zero_delay_cross_shard_link_is_rejected() {
        let mut sim = ParSim::new(1, 2);
        let a = sim.add_node(0, "a", Pinger::server());
        let b = sim.add_node(1, "b", Pinger::server());
        sim.set_link(a, b, LinkConfig::instant());
    }
}
