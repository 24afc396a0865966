//! The event loop: scheduler, link emulation, node dispatch.
//!
//! ## Scheduler determinism contract
//!
//! Events execute in strictly ascending `(at, key)` order, where `key` is
//! the composed tiebreaker `(schedule-time, source, per-source seq)`: two
//! events due at the same instant fire in the order their causes ran —
//! first by when they were scheduled, then by the node that scheduled
//! them (the *source*; every event has one), then by that source's own
//! scheduling order. The composition is a pure function of each source's
//! local history, never of global execution order — which
//! is exactly what makes a parallel run ([`crate::par::ParSim`])
//! bit-identical to a single-threaded one: any shard can compose the same
//! key the global scheduler would have, without seeing other shards'
//! events. Within one source the key is monotone in push order, so
//! single-source streams keep plain FIFO semantics. The scheduler is one
//! binary heap ordered by `(at, key)` (the crate-internal `sched`
//! module), so identical seeds keep producing identical runs, datagram
//! for datagram.
//!
//! A transmit schedules its delivery exactly one link delay after the
//! send ([`LinkConfig`]). Only a lossy link draws, from its directed
//! pair's own stream: lossless transmits touch no RNG, and no transmit
//! touches the shard's.
//!
//! ## Instants
//!
//! A node that handled an event gets its [`Node::on_flush`] when the
//! instant ends — after the step whose next event lies later than now —
//! in ascending node id (the `node` module's instant contract). Each
//! flush is a pure function of the node's own history, and every event
//! that can join an instant is local to its shard (a cross-shard arrival
//! is at least one lookahead away), so instants end identically
//! single-threaded and sharded.
//!
//! A driver acts on a running world only between events: `run_until(at)`
//! handles and flushes everything due at `at`, and a
//! [`Simulator::with_node`] then is an instant of its own, with its own
//! flush — the barrier point every [`crate::faults::play`] script acts
//! at, on the shards of a [`crate::par::ParSim`].

use crate::link::LinkConfig;
use crate::node::{Addr, Ctx, Node, NodeId};
use crate::sched::{EventQueue, TimerSlots, Touched};
use crate::stats::{LinkStats, TrafficStats, TrafficStatsMut};
use crate::time::SimTime;
use moqdns_wire::counters::Counters;
use moqdns_wire::Payload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Duration;

/// SplitMix64 finalizer: a strong, cheap, allocation-free 64-bit mixer.
/// The simulator derives every per-link loss draw from it (see
/// `SimCore::link_draw`); other deterministic schedules in the
/// workspace (probe-backoff jitter, fault-plan window jitter) reuse it so
/// "random-looking but replayable" always means the same thing.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Sentinel adjacency index for deliveries whose transmit happened on a
/// different shard (the sender's row is not in this core's tables).
const FOREIGN_LINK: u32 = u32::MAX;

/// Sentinel config index of a link without an override: it runs with the
/// simulator's default, whatever that is when it carries a datagram.
const DEFAULT_LINK: u32 = u32::MAX;

/// What a scheduled event does when it fires. The node it concerns — the
/// sender of a datagram, the owner of a timer, the node to start — is the
/// source its key was composed for ([`source`]), so no variant repeats
/// it, and an entry of the queue is 64 bytes.
enum EventKind {
    /// Deliver a datagram from the key's source to `to`. `link` is the
    /// index of the sender's adjacency entry in its row, recorded at
    /// transmit time so the delivered-side counters need no lookup — or
    /// [`FOREIGN_LINK`] for cross-shard injections.
    Deliver {
        payload: Payload,
        to: NodeId,
        from_port: u16,
        to_port: u16,
        link: u32,
    },
    /// Fire a timer on the key's source.
    Timer { token: u64, timer_id: u64 },
    /// Run the key's source's `on_start` ([`Simulator::add_node`]).
    Start,
}

const _: () = assert!(std::mem::size_of::<crate::sched::Entry<EventKind>>() <= 64);

/// The node an event key was composed for (`SimCore::next_key`).
fn source(key: u128) -> NodeId {
    NodeId((key >> 32) as u32)
}

/// One directed out-edge in a node's adjacency table: the link override
/// (if any), the loss-draw count and the traffic counters, folded into
/// one entry so a transmit touches exactly one slot.
struct LinkEntry {
    dst: u32,
    /// The override's index in the core's table of distinct configs, or
    /// [`DEFAULT_LINK`]: the simulator's default config (the default may
    /// still be changed after this entry was created).
    cfg: u32,
    stats: LinkStats,
    /// Count of loss draws taken on this directed pair. Each draw
    /// is `splitmix64(link_seed, src, dst, draw_seq)` — a pure function
    /// of the pair's own transmit history, so lossy links are
    /// bit-identical across any sharding (the same anchor as the event
    /// key: source-local history only).
    draw_seq: u64,
}

const _: () = assert!(std::mem::size_of::<LinkEntry>() <= 56);

/// A datagram crossing a shard boundary, parked in the sender's outbox
/// until the next barrier. It carries the key composed by the *sender*
/// (schedule time, source node, per-source seq) so injected events slot
/// into the destination queue exactly where a global scheduler would have
/// put them.
pub(crate) struct CrossMsg {
    pub(crate) from: Addr,
    pub(crate) to: Addr,
    pub(crate) payload: Payload,
    pub(crate) arrival: SimTime,
    pub(crate) key: u128,
}

/// Everything the simulator owns except the nodes themselves. Nodes receive
/// `&mut SimCore` through [`Ctx`] while they are temporarily detached from
/// the node table, which is what makes mutable re-entrancy safe.
pub(crate) struct SimCore {
    pub(crate) now: SimTime,
    queue: EventQueue<EventKind>,
    /// This core's shard index (0 in a single-threaded run).
    shard: u16,
    /// Per-source scheduling sequence numbers (index = node id; the key
    /// is `(schedule-time, source, seq)` — see the module docs). Grown in
    /// lockstep with node creation, including foreign slots.
    node_seq: Vec<u32>,
    rng: StdRng,
    /// Seed for the per-link loss draw streams. Always the *base*
    /// world seed — [`crate::par::ParSim`] sets it identically on every
    /// shard even though each shard's `rng` stream is distinct — so link
    /// randomness never depends on which shard runs the transmit.
    link_seed: u64,
    default_link: LinkConfig,
    /// Every distinct config a link was set to, in first-set order: what
    /// a [`LinkEntry`]'s `cfg` indexes. A world sets a handful — one per
    /// tier, one per fault — over tens of thousands of links.
    link_configs: Vec<LinkConfig>,
    /// Flat per-node adjacency (indexed by source node id; NodeIds are
    /// dense). Entries are sorted by `dst` for binary search.
    links: Vec<Vec<LinkEntry>>,
    /// Cancellation state of the timer events in `queue`.
    timers: TimerSlots,
    /// Delivered-side counters for cross-shard pairs (the sender's row
    /// lives on another shard). Empty in a single-threaded run.
    foreign_delivered: HashMap<(u32, u32), LinkStats>,
    /// Global node → shard map (empty = single-shard, everything local).
    owner: Vec<u16>,
    /// Datagrams bound for other shards, drained at barriers.
    outbox: Vec<CrossMsg>,
    /// Order-independent delivery digest (opt-in; see
    /// [`Simulator::enable_delivery_digest`]).
    digest_enabled: bool,
    digest: u64,
}

impl SimCore {
    fn new(seed: u64, shard: u16) -> SimCore {
        SimCore {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            shard,
            node_seq: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            link_seed: seed,
            default_link: LinkConfig::default(),
            link_configs: Vec::new(),
            links: Vec::new(),
            timers: TimerSlots::default(),
            foreign_delivered: HashMap::new(),
            owner: Vec::new(),
            outbox: Vec::new(),
            digest_enabled: false,
            digest: 0,
        }
    }

    /// Composes the next event key for an event caused by `src`:
    /// `(schedule-time, source, per-source seq)`. Monotone in push order
    /// within one source, globally unique, and — because it depends only
    /// on the source's own history — identical whether the run is
    /// single-threaded or sharded (the parallel determinism anchor).
    fn next_key(&mut self, src: u32) -> u128 {
        let slot = &mut self.node_seq[src as usize];
        let seq = *slot;
        *slot = seq
            .checked_add(1)
            .expect("per-source event seq overflowed 32 bits");
        ((self.now.as_nanos() as u128) << 64) | ((src as u128) << 32) | seq as u128
    }

    fn push(&mut self, src: u32, at: SimTime, kind: EventKind) {
        let key = self.next_key(src);
        self.queue.push(at, key, kind);
    }

    /// The adjacency slot for `src -> dst`, created on first use.
    /// Returns `(row, index)` so callers can re-index without another
    /// search across an intervening borrow.
    fn link_slot(&mut self, src: NodeId, dst: NodeId) -> (usize, usize) {
        let s = src.index();
        if self.links.len() <= s {
            self.links.resize_with(s + 1, Vec::new);
        }
        let row = &mut self.links[s];
        let d = dst.0;
        let i = match row.binary_search_by_key(&d, |e| e.dst) {
            Ok(i) => i,
            Err(i) => {
                // Most rows hold one link (a stub's to its server), so the
                // first entry reserves one, not the four a push would.
                if row.capacity() == 0 {
                    row.reserve_exact(1);
                }
                row.insert(
                    i,
                    LinkEntry {
                        dst: d,
                        cfg: DEFAULT_LINK,
                        stats: LinkStats::default(),
                        draw_seq: 0,
                    },
                );
                i
            }
        };
        (s, i)
    }

    pub(crate) fn set_link_directed(&mut self, src: NodeId, dst: NodeId, cfg: LinkConfig) {
        let index = match self.link_configs.iter().position(|c| *c == cfg) {
            Some(index) => index,
            None => {
                self.link_configs.push(cfg);
                self.link_configs.len() - 1
            }
        };
        let (s, i) = self.link_slot(src, dst);
        self.links[s][i].cfg = u32::try_from(index).expect("fewer than 2^32 link configs");
    }

    /// Next deterministic loss draw for the adjacency entry at
    /// `(row, idx)`: `splitmix64` over `(link_seed, src, dst, draw_seq)`.
    /// A pure function of the directed pair's own draw history — never of
    /// the shard's RNG, other links' traffic, or global execution order —
    /// so lossy-link outcomes are bit-identical single-threaded and under
    /// any `--par` sharding, and node-level RNG consumption cannot shift
    /// them.
    fn link_draw(&mut self, row: usize, idx: usize) -> u64 {
        let e = &mut self.links[row][idx];
        let seq = e.draw_seq;
        e.draw_seq += 1;
        let pair = ((row as u64) << 32) | e.dst as u64;
        splitmix64(
            self.link_seed
                .wrapping_add(splitmix64(pair))
                .wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }

    pub(crate) fn transmit(&mut self, from: Addr, to: Addr, payload: Payload) {
        let default_link = self.default_link;
        let len = payload.len();

        let (s, i) = self.link_slot(from.node, to.node);
        let cfg = {
            let e = &mut self.links[s][i];
            e.stats.datagrams += 1;
            e.stats.bytes += len as u64;
            match e.cfg {
                DEFAULT_LINK => default_link,
                index => self.link_configs[index as usize],
            }
        };
        // Loss draws from the per-link deterministic stream (`link_draw`),
        // never from the shard RNG: lossless links take no draws at all,
        // and lossy links land identically regardless of sharding or of
        // what else consumed the seeded RNG.
        if cfg.loss > 0.0 {
            let u = self.link_draw(s, i);
            // 53-bit mantissa → uniform in [0, 1).
            if (u >> 11) as f64 / ((1u64 << 53) as f64) < cfg.loss {
                self.links[s][i].stats.dropped_loss += 1;
                return;
            }
        }
        let arrival = self.now + cfg.delay;

        let dest_shard = self
            .owner
            .get(to.node.index())
            .copied()
            .unwrap_or(self.shard);
        if dest_shard == self.shard {
            self.push(
                from.node.0,
                arrival,
                EventKind::Deliver {
                    payload,
                    to: to.node,
                    from_port: from.port,
                    to_port: to.port,
                    link: i as u32,
                },
            );
        } else {
            // Cross-shard: park in the outbox with a sender-composed key;
            // the parallel driver injects it at the next barrier.
            let key = self.next_key(from.node.0);
            self.outbox.push(CrossMsg {
                from,
                to,
                payload,
                arrival,
                key,
            });
        }
    }

    fn record_delivered(&mut self, from: NodeId, to: NodeId, bytes: usize, link: u32) {
        let e = if link != FOREIGN_LINK {
            &mut self.links[from.index()][link as usize].stats
        } else {
            self.foreign_delivered.entry((from.0, to.0)).or_default()
        };
        e.delivered += 1;
        e.delivered_bytes += bytes as u64;
    }

    /// Folds one delivery into the order-independent digest: a wrapping
    /// sum of per-delivery FNV-1a hashes over `(at, from, to, payload)`,
    /// so two runs delivering the same multiset of datagrams at the same
    /// times agree regardless of same-instant processing order.
    fn fold_digest(&mut self, from: Addr, to: Addr, payload: &Payload) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let step = |h: &mut u64, b: u64| {
            *h ^= b;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        step(&mut h, self.now.as_nanos());
        step(&mut h, from.node.0 as u64);
        step(&mut h, from.port as u64);
        step(&mut h, to.node.0 as u64);
        step(&mut h, to.port as u64);
        step(&mut h, payload.len() as u64);
        for &b in payload.iter() {
            step(&mut h, b as u64);
        }
        self.digest = self.digest.wrapping_add(h);
    }

    /// Sums stats for `src -> dst` held by this core into `out` (the
    /// local row entry plus any foreign-delivery counters).
    pub(crate) fn pair_stats_into(&self, src: NodeId, dst: NodeId, out: &mut LinkStats) {
        if let Some(row) = self.links.get(src.index()) {
            if let Ok(i) = row.binary_search_by_key(&dst.0, |e| e.dst) {
                out.add(&row[i].stats);
            }
        }
        if let Some(f) = self.foreign_delivered.get(&(src.0, dst.0)) {
            out.add(f);
        }
    }

    /// Visits every directed pair this core holds counters for.
    pub(crate) fn for_each_pair_stats(&self, mut f: impl FnMut((NodeId, NodeId), LinkStats)) {
        for (s, row) in self.links.iter().enumerate() {
            for e in row {
                if e.stats != LinkStats::default() {
                    f((NodeId(s as u32), NodeId(e.dst)), e.stats);
                }
            }
        }
        for (&(s, d), st) in &self.foreign_delivered {
            f((NodeId(s), NodeId(d)), *st);
        }
    }

    pub(crate) fn reset_stats(&mut self) {
        for row in &mut self.links {
            for e in row {
                e.stats = LinkStats::default();
            }
        }
        self.foreign_delivered.clear();
    }

    pub(crate) fn set_timer(&mut self, node: NodeId, after: Duration, token: u64) -> u64 {
        let timer_id = self.timers.arm();
        let at = self.now + after;
        self.push(node.0, at, EventKind::Timer { token, timer_id });
        timer_id
    }

    pub(crate) fn cancel_timer(&mut self, timer_id: u64) {
        self.timers.cancel(timer_id);
    }

    pub(crate) fn random_u64(&mut self) -> u64 {
        self.rng.random()
    }
}

/// What a world's queue holds at one point, by what each entry will do
/// when it falls due. A settled world has no datagram in flight and a
/// timer or two per node: its protocol timer and, at most, one of the
/// node's own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Armed {
    /// Timers that will fire.
    pub timers: u64,
    /// The most timers that will fire at any one node.
    pub timers_at_busiest: u64,
    /// Datagrams in flight.
    pub deliveries: u64,
    /// Node starts not run yet.
    pub starts: u64,
    /// Timers cancelled and still queued: they run nothing when they
    /// fall due.
    pub cancelled: u64,
}

impl Armed {
    /// Entries that will do something: timers, deliveries and starts.
    pub fn total(&self) -> u64 {
        self.timers + self.deliveries + self.starts
    }
}

impl std::ops::Add for Armed {
    type Output = Armed;

    /// Two queues' contents, as one; the busiest node is the busier.
    fn add(self, other: Armed) -> Armed {
        Armed {
            timers: self.timers + other.timers,
            timers_at_busiest: self.timers_at_busiest.max(other.timers_at_busiest),
            deliveries: self.deliveries + other.deliveries,
            starts: self.starts + other.starts,
            cancelled: self.cancelled + other.cancelled,
        }
    }
}

/// What a replayed baseline pins of a run beside its figures: the
/// delivery digest, the number of events executed and what the queue
/// still held when it was taken. Two runs with one history delivered the
/// same datagrams at the same times and did the same work to get there:
/// a timer leak or a flush loop moves `events` even where it moves
/// nothing on the wire, and a world that has not settled shows in
/// `armed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct History {
    /// The order-independent delivery digest: a wrapping sum of
    /// per-delivery hashes over `(time, from, to, payload)`. Two runs that
    /// deliver the same multiset of datagrams at the same times have
    /// equal digests regardless of same-instant processing order — the
    /// equality the parallel-vs-single-threaded parity tests assert.
    pub digest: u64,
    /// Events executed: node starts, deliveries and timers (cancelled
    /// ones included).
    pub events: u64,
    /// The queue when the history was taken ([`Simulator::armed_events`]).
    pub armed: Armed,
}

impl std::ops::Add for History {
    type Output = History;

    /// Two runs' histories summed, as one (the digest wraps).
    fn add(self, other: History) -> History {
        History {
            digest: self.digest.wrapping_add(other.digest),
            events: self.events + other.events,
            armed: self.armed + other.armed,
        }
    }
}

/// The deterministic discrete-event simulator.
///
/// ```
/// use moqdns_netsim::{Simulator, Node, Ctx, Addr, LinkConfig};
/// use std::any::Any;
/// use std::time::Duration;
///
/// use moqdns_netsim::Payload;
///
/// /// Replies to every datagram with its payload reversed.
/// struct Echo;
/// impl Node for Echo {
///     fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, to_port: u16, p: Payload) {
///         let mut bytes = p.to_vec();
///         bytes.reverse();
///         ctx.send(to_port, from, bytes);
///     }
///     fn as_any(&mut self) -> &mut dyn Any { self }
///     fn as_any_ref(&self) -> &dyn Any { self }
/// }
///
/// /// Sends one probe and remembers the reply.
/// struct Probe { peer: Option<Addr>, reply: Option<Payload> }
/// impl Node for Probe {
///     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
///         let peer = self.peer.unwrap();
///         ctx.send(1000, peer, b"ping".to_vec());
///     }
///     fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: Addr, _to: u16, p: Payload) {
///         self.reply = Some(p);
///     }
///     fn as_any(&mut self) -> &mut dyn Any { self }
///     fn as_any_ref(&self) -> &dyn Any { self }
/// }
///
/// let mut sim = Simulator::new(7);
/// sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(10)));
/// let echo = sim.add_node("echo", Box::new(Echo));
/// let probe = sim.add_node("probe", Box::new(Probe {
///     peer: Some(Addr::new(echo, 53)), reply: None,
/// }));
/// sim.run_until_idle();
/// assert_eq!(sim.now().as_millis(), 20); // one round trip
/// let reply = sim.node_ref::<Probe>(probe).reply.clone();
/// assert_eq!(reply.unwrap(), b"gnip");
/// ```
pub struct Simulator {
    core: SimCore,
    nodes: Vec<Option<Box<dyn Node>>>,
    names: Vec<String>,
    /// Nodes that handled a callback in the current instant.
    touched: Touched,
    /// Events executed so far.
    events: u64,
}

impl Simulator {
    /// Creates a simulator seeded with `seed`. Identical seeds and identical
    /// event sequences produce bit-identical runs.
    pub fn new(seed: u64) -> Simulator {
        Simulator::new_shard(seed, 0)
    }

    /// Creates a shard-`shard` simulator (used by [`crate::par::ParSim`];
    /// shard 0 with an empty owner map is the ordinary single-threaded
    /// simulator).
    pub(crate) fn new_shard(seed: u64, shard: u16) -> Simulator {
        Simulator {
            core: SimCore::new(seed, shard),
            nodes: Vec::new(),
            names: Vec::new(),
            touched: Touched::default(),
            events: 0,
        }
    }

    /// Enables the order-independent delivery digest (off by default: it
    /// hashes every delivered payload). See [`History::digest`].
    pub fn enable_delivery_digest(&mut self) {
        self.core.digest_enabled = true;
    }

    /// The run's [`History`] so far: the delivery digest (zero unless
    /// enabled), the events executed and the queue now.
    pub fn history(&self) -> History {
        History {
            digest: self.core.digest,
            events: self.events,
            armed: self.armed_events(),
        }
    }

    /// What the queue holds now, by what it will do: armed timers (and
    /// the most at one node), datagrams in flight — queued here or
    /// parked for another shard — node starts, and the cancelled timers
    /// still waiting to fall due. One pass over the queue.
    pub fn armed_events(&self) -> Armed {
        let mut timers_at = vec![0u64; self.core.node_seq.len()];
        let mut armed = Armed {
            deliveries: self.core.outbox.len() as u64,
            ..Armed::default()
        };
        for entry in self.core.queue.iter() {
            match entry.item {
                EventKind::Deliver { .. } => armed.deliveries += 1,
                EventKind::Start => armed.starts += 1,
                EventKind::Timer { timer_id, .. } => {
                    if self.core.timers.is_armed(timer_id) {
                        armed.timers += 1;
                        timers_at[source(entry.seq()).index()] += 1;
                    } else {
                        armed.cancelled += 1;
                    }
                }
            }
        }
        armed.timers_at_busiest = timers_at.into_iter().max().unwrap_or(0);
        armed
    }

    /// Adds a node; its `on_start` runs at the current simulation time when
    /// the event loop next executes.
    pub fn add_node(&mut self, name: impl Into<String>, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(node));
        self.names.push(name.into());
        self.touched.grow(self.nodes.len());
        self.core.node_seq.push(0);
        // Defer on_start through the queue so ordering is deterministic;
        // the new node itself is the key source.
        self.core.push(id.0, self.core.now, EventKind::Start);
        id
    }

    /// Reserves a node id owned by another shard: the local tables keep
    /// an empty slot so global ids stay dense everywhere.
    pub(crate) fn add_foreign_slot(&mut self) {
        self.nodes.push(None);
        self.names.push(String::new());
        self.touched.grow(self.nodes.len());
        self.core.node_seq.push(0);
    }

    /// Appends one entry to the node→shard owner map (kept in lockstep
    /// with node creation by the parallel driver).
    pub(crate) fn push_owner(&mut self, shard: u16) {
        self.core.owner.push(shard);
    }

    /// Overrides the per-link draw-stream seed. The parallel driver sets
    /// the *base* world seed on every shard (shard RNG seeds differ) so
    /// lossy-link outcomes are sharding-independent.
    pub(crate) fn set_link_seed(&mut self, seed: u64) {
        self.core.link_seed = seed;
    }

    /// Drains the cross-shard outbox (empty in single-threaded runs).
    pub(crate) fn take_outbox(&mut self) -> Vec<CrossMsg> {
        std::mem::take(&mut self.core.outbox)
    }

    /// Injects a cross-shard datagram parked by another shard's transmit.
    /// The sender-composed key slots it exactly where a global scheduler
    /// would have; the lookahead bound guarantees `arrival` has not been
    /// overtaken by this shard's clock.
    pub(crate) fn inject(&mut self, msg: CrossMsg) {
        assert!(
            msg.arrival >= self.core.now,
            "cross-shard datagram arrived in this shard's past \
             (lookahead bound violated: arrival {:?} < now {:?})",
            msg.arrival,
            self.core.now
        );
        self.core.queue.push(
            msg.arrival,
            msg.key,
            EventKind::Deliver {
                payload: msg.payload,
                to: msg.to.node,
                from_port: msg.from.port,
                to_port: msg.to.port,
                link: FOREIGN_LINK,
            },
        );
    }

    /// Human-readable node name (for traces and experiment output).
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// Sets the link configuration used for pairs without an override.
    pub fn set_default_link(&mut self, cfg: LinkConfig) {
        self.core.default_link = cfg;
    }

    /// Sets the directed link `src -> dst`.
    pub fn set_link_directed(&mut self, src: NodeId, dst: NodeId, cfg: LinkConfig) {
        self.core.set_link_directed(src, dst, cfg);
    }

    /// Timer bookkeeping size: `(slots allocated, slots free)`. Slots are
    /// recycled when their event pops, so `allocated - free` equals the
    /// timer events still pending — cancellations never leak entries.
    #[cfg(test)]
    fn timer_bookkeeping(&self) -> (usize, usize) {
        self.core.timers.bookkeeping()
    }

    /// Sets both directions between `a` and `b`.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        self.set_link_directed(a, b, cfg);
        self.set_link_directed(b, a, cfg);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Traffic counters for the run so far.
    ///
    /// Kept public for: the hand-built test worlds on a bare `Simulator`
    /// (`moqdns-core`'s `tests/full_chain.rs`, `tests/relay_tree.rs` and
    /// unit tests), which read what crossed a link.
    pub fn stats(&self) -> TrafficStats<'_> {
        TrafficStats {
            cores: vec![&self.core],
        }
    }

    /// Mutable traffic counters (e.g. to reset after warm-up).
    ///
    /// Kept public for: `moqdns-core`'s `tests/relay_tree.rs`, whose
    /// hand-built tree resets its counters once the stubs have joined.
    pub fn stats_mut(&mut self) -> TrafficStatsMut<'_> {
        TrafficStatsMut {
            cores: vec![&mut self.core],
        }
    }

    pub(crate) fn core_ref(&self) -> &SimCore {
        &self.core
    }

    pub(crate) fn core_mut(&mut self) -> &mut SimCore {
        &mut self.core
    }

    /// Runs `f` with mutable access to the concrete node `T` at `id` plus a
    /// [`Ctx`], letting experiments call directly into a node's API ("issue
    /// this query now") as if an event had been delivered. The call is an
    /// instant of its own, as in [`crate::LiveRuntime::with_node`]: the
    /// node's [`Node::on_flush`] has run when it returns.
    ///
    /// Panics if `id` does not refer to a `T` or the node is mid-dispatch.
    pub fn with_node<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let mut node = self.nodes[id.index()]
            .take()
            .expect("node is mid-dispatch or removed");
        let result = {
            let mut ctx = Ctx::sim(&mut self.core, id);
            let t = node
                .as_any()
                .downcast_mut::<T>()
                .expect("node type mismatch");
            f(t, &mut ctx)
        };
        self.nodes[id.index()] = Some(node);
        self.touched.mark(id.index());
        self.flush();
        result
    }

    /// Immutable access to the concrete node `T` at `id`.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        self.nodes[id.index()]
            .as_ref()
            .expect("node is mid-dispatch or removed")
            .as_any_ref()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Ends the instant: every node that handled a callback in it gets its
    /// [`Node::on_flush`], in ascending node id. A flush is no callback,
    /// so it marks nothing.
    fn flush(&mut self) {
        while let Some(i) = self.touched.pop_lowest() {
            if let Some(mut node) = self.nodes[i].take() {
                node.on_flush(&mut Ctx::sim(&mut self.core, NodeId(i as u32)));
                self.nodes[i] = Some(node);
            }
        }
    }

    /// Executes the next pending event, and ends the instant when the
    /// event after it lies later (module docs). Returns `false` if the
    /// queue was empty (time does not advance in that case).
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.core.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.core.now, "time went backwards");
        self.core.now = ev.at;
        self.events += 1;
        let src = source(ev.seq());
        match ev.item {
            EventKind::Deliver {
                payload,
                to,
                from_port,
                to_port,
                link,
            } => {
                let (from, to) = (Addr::new(src, from_port), Addr::new(to, to_port));
                if let Some(mut node) = self.nodes[to.node.index()].take() {
                    self.core
                        .record_delivered(from.node, to.node, payload.len(), link);
                    if self.core.digest_enabled {
                        self.core.fold_digest(from, to, &payload);
                    }
                    let mut ctx = Ctx::sim(&mut self.core, to.node);
                    node.on_datagram(&mut ctx, from, to.port, payload);
                    self.nodes[to.node.index()] = Some(node);
                    self.touched.mark(to.node.index());
                }
            }
            EventKind::Timer { token, timer_id } => {
                // A timer cancelled before firing runs nothing.
                if self.core.timers.take(timer_id) {
                    if let Some(mut node) = self.nodes[src.index()].take() {
                        let mut ctx = Ctx::sim(&mut self.core, src);
                        node.on_timer(&mut ctx, token);
                        self.nodes[src.index()] = Some(node);
                        self.touched.mark(src.index());
                    }
                }
            }
            EventKind::Start => {
                if let Some(mut node) = self.nodes[src.index()].take() {
                    node.on_start(&mut Ctx::sim(&mut self.core, src));
                    self.nodes[src.index()] = Some(node);
                    self.touched.mark(src.index());
                }
            }
        }
        // Nothing is ever queued before the clock, so the instant ends
        // unless the head is due now.
        if !self.touched.is_empty() && self.core.queue.next_at() != Some(self.core.now) {
            self.flush();
        }
        true
    }

    /// Runs events until the queue is empty or `deadline` is reached; the
    /// clock ends at the last executed event (or `deadline` if given and
    /// reached). Returns the number of events executed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some(at) = self.core.queue.next_at() {
            if at > deadline {
                break;
            }
            self.step();
            n += 1;
        }
        self.core.now = self.core.now.max(deadline.min(SimTime::MAX));
        n
    }

    /// Runs every event strictly before `end`, then advances the clock to
    /// `end`. The exclusive bound is the conservative-lookahead window of
    /// the parallel simulator: events *at* the window end may still be
    /// joined by cross-shard arrivals injected at the barrier, so they
    /// belong to the next window.
    pub(crate) fn run_window(&mut self, end: SimTime) -> u64 {
        let mut n = 0;
        while let Some(at) = self.core.queue.next_at() {
            if at >= end {
                break;
            }
            self.step();
            n += 1;
        }
        self.core.now = self.core.now.max(end);
        n
    }

    /// Whether any event is scheduled strictly before `end` (the parallel
    /// driver uses this to skip spawning a worker thread for an idle
    /// window).
    pub(crate) fn has_event_before(&self, end: SimTime) -> bool {
        self.core.queue.next_at().is_some_and(|at| at < end)
    }

    /// Whether any event is scheduled at or before `deadline`.
    pub(crate) fn has_event_at_or_before(&self, deadline: SimTime) -> bool {
        self.core.queue.next_at().is_some_and(|at| at <= deadline)
    }

    /// Runs until no events remain. Returns the number executed. Protocols
    /// with periodic timers (keep-alives) never go idle — use
    /// [`Simulator::run_until`] for those.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut n = 0;
        while self.step() {
            n += 1;
        }
        n
    }

    /// Runs for `d` of simulated time from now.
    pub fn run_for(&mut self, d: Duration) -> u64 {
        let deadline = self.core.now + d;
        self.run_until(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    /// Test node that records everything it hears and can send on demand.
    #[derive(Default)]
    struct Recorder {
        heard: Vec<(SimTime, Addr, u16, Payload)>,
        timer_tokens: Vec<(SimTime, u64)>,
    }

    impl Node for Recorder {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, to_port: u16, payload: Payload) {
            self.heard.push((ctx.now(), from, to_port, payload));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.timer_tokens.push((ctx.now(), token));
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any_ref(&self) -> &dyn Any {
            self
        }
    }

    fn two_recorders(seed: u64, link: LinkConfig) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(seed);
        sim.set_default_link(link);
        let a = sim.add_node("a", Box::<Recorder>::default());
        let b = sim.add_node("b", Box::<Recorder>::default());
        (sim, a, b)
    }

    #[test]
    fn datagram_arrives_after_delay() {
        let (mut sim, a, b) = two_recorders(1, LinkConfig::with_delay(Duration::from_millis(30)));
        sim.with_node::<Recorder, _>(a, |_, ctx| {
            ctx.send(5, Addr::new(b, 9), vec![1, 2, 3]);
        });
        sim.run_until_idle();
        let heard = &sim.node_ref::<Recorder>(b).heard;
        assert_eq!(heard.len(), 1);
        let (t, from, port, data) = &heard[0];
        assert_eq!(t.as_millis(), 30);
        assert_eq!(*from, Addr::new(a, 5));
        assert_eq!(*port, 9);
        assert_eq!(*data, [1, 2, 3]);
    }

    #[test]
    fn full_loss_drops_everything() {
        let link = LinkConfig::instant().loss(1.0);
        let (mut sim, a, b) = two_recorders(1, link);
        sim.with_node::<Recorder, _>(a, |_, ctx| {
            for _ in 0..10 {
                ctx.send(1, Addr::new(b, 1), vec![0; 10]);
            }
        });
        sim.run_until_idle();
        assert!(sim.node_ref::<Recorder>(b).heard.is_empty());
        assert_eq!(sim.stats().between(a, b).dropped_loss, 10);
    }

    #[test]
    fn partial_loss_statistics() {
        let link = LinkConfig::instant().loss(0.5);
        let (mut sim, a, b) = two_recorders(42, link);
        for _ in 0..1000 {
            sim.with_node::<Recorder, _>(a, |_, ctx| {
                ctx.send(1, Addr::new(b, 1), vec![0; 10]);
            });
        }
        sim.run_until_idle();
        let got = sim.node_ref::<Recorder>(b).heard.len();
        // With p=0.5 and n=1000 the delivered count is within [400, 600]
        // except with negligible probability; the seed makes it exact anyway.
        assert!((400..=600).contains(&got), "got {got}");
    }

    #[test]
    fn timers_fire_in_order_with_tokens() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Box::<Recorder>::default());
        sim.with_node::<Recorder, _>(a, |_, ctx| {
            ctx.set_timer(Duration::from_millis(20), 2);
            ctx.set_timer(Duration::from_millis(10), 1);
            ctx.set_timer(Duration::from_millis(30), 3);
        });
        sim.run_until_idle();
        let toks = &sim.node_ref::<Recorder>(a).timer_tokens;
        assert_eq!(
            toks.iter().map(|(_, t)| *t).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(toks[0].0.as_millis(), 10);
        assert_eq!(toks[2].0.as_millis(), 30);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Box::<Recorder>::default());
        let id =
            sim.with_node::<Recorder, _>(a, |_, ctx| ctx.set_timer(Duration::from_millis(10), 7));
        sim.with_node::<Recorder, _>(a, |_, ctx| ctx.cancel_timer(id));
        sim.run_until_idle();
        assert!(sim.node_ref::<Recorder>(a).timer_tokens.is_empty());
    }

    #[test]
    fn timer_bookkeeping_is_bounded() {
        // The old tombstone set kept an entry per cancelled timer until
        // that timer's event happened to fire — and *forever* for ids
        // cancelled after firing. Generation-tagged slots recycle on pop
        // and ignore stale ids, so bookkeeping is bounded by the events
        // actually in flight.
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Box::<Recorder>::default());
        sim.run_until_idle();

        // Set-then-cancel-before-fire, many times over.
        for round in 0..100 {
            let ids: Vec<u64> = sim.with_node::<Recorder, _>(a, |_, ctx| {
                (0..10)
                    .map(|i| ctx.set_timer(Duration::from_millis(5 + i), round * 16 + i))
                    .collect()
            });
            sim.with_node::<Recorder, _>(a, |_, ctx| {
                for id in ids {
                    ctx.cancel_timer(id);
                }
            });
            sim.run_for(Duration::from_millis(50));
        }
        assert!(sim.node_ref::<Recorder>(a).timer_tokens.is_empty());
        let (slots, free) = sim.timer_bookkeeping();
        assert_eq!(slots - free, 0, "no timer events in flight");
        assert!(slots <= 10, "slots are recycled, not accumulated: {slots}");

        // Cancel-after-fire (the forever leak in the tombstone set): a
        // stale id must be a no-op and must not grow any bookkeeping.
        for _ in 0..100 {
            let id = sim
                .with_node::<Recorder, _>(a, |_, ctx| ctx.set_timer(Duration::from_millis(1), 1));
            sim.run_for(Duration::from_millis(5));
            sim.with_node::<Recorder, _>(a, |_, ctx| ctx.cancel_timer(id));
        }
        let (slots, free) = sim.timer_bookkeeping();
        assert_eq!(slots - free, 0);
        assert!(slots <= 10, "stale cancels must not leak: {slots}");

        // A recycled slot must not be killable through a stale id: the
        // old id's generation no longer matches.
        let stale =
            sim.with_node::<Recorder, _>(a, |_, ctx| ctx.set_timer(Duration::from_millis(1), 2));
        sim.run_for(Duration::from_millis(5));
        let fresh =
            sim.with_node::<Recorder, _>(a, |_, ctx| ctx.set_timer(Duration::from_millis(1), 3));
        assert_ne!(stale, fresh, "generation changes the id");
        sim.with_node::<Recorder, _>(a, |_, ctx| ctx.cancel_timer(stale));
        let fired_before = sim.node_ref::<Recorder>(a).timer_tokens.len();
        sim.run_for(Duration::from_millis(5));
        assert_eq!(
            sim.node_ref::<Recorder>(a).timer_tokens.len(),
            fired_before + 1,
            "stale cancel must not kill the recycled slot's live timer"
        );
    }

    #[test]
    fn transmit_never_touches_the_rng() {
        // Invariant: *no* transmit — lossless or lossy — consumes the
        // shard's seeded RNG. Loss draws from per-link deterministic
        // streams instead, so link traffic cannot shift node-level
        // randomness and vice versa (committed CI baselines and the
        // parallel parity contract depend on it).
        let drain = |sim: &mut Simulator, a: NodeId| -> Vec<u64> {
            sim.with_node::<Recorder, _>(a, |_, ctx| (0..8).map(|_| ctx.random_u64()).collect())
        };
        let run = |link: LinkConfig, traffic: usize| -> Vec<u64> {
            let (mut sim, a, b) = two_recorders(77, link);
            sim.run_until_idle();
            for _ in 0..traffic {
                sim.with_node::<Recorder, _>(a, |_, ctx| {
                    ctx.send(1, Addr::new(b, 1), vec![0; 100]);
                });
            }
            sim.run_until_idle();
            drain(&mut sim, a)
        };
        let lossless = LinkConfig::with_delay(Duration::from_millis(1));
        let hostile = LinkConfig::with_delay(Duration::from_millis(1)).loss(0.5);
        let baseline = run(lossless, 0);
        assert_eq!(
            baseline,
            run(lossless, 1000),
            "lossless traffic perturbed the RNG"
        );
        assert_eq!(
            baseline,
            run(hostile, 1000),
            "lossy traffic perturbed the RNG"
        );
    }

    #[test]
    fn link_draws_are_independent_of_node_rng_use() {
        // The converse direction: consuming the node-level RNG mid-run
        // must not move any lossy link's drop pattern — per-link
        // draws depend only on the pair's own transmit history.
        let run = |rng_noise: bool| -> Vec<u64> {
            let link = LinkConfig::with_delay(Duration::from_millis(1)).loss(0.4);
            let (mut sim, a, b) = two_recorders(7, link);
            sim.run_until_idle();
            for i in 0..200 {
                if rng_noise && i % 3 == 0 {
                    sim.with_node::<Recorder, _>(a, |_, ctx| {
                        ctx.random_u64();
                    });
                }
                sim.with_node::<Recorder, _>(a, |_, ctx| {
                    ctx.send(1, Addr::new(b, 1), vec![0; 10]);
                });
            }
            sim.run_until_idle();
            sim.node_ref::<Recorder>(b)
                .heard
                .iter()
                .map(|(t, ..)| t.as_nanos())
                .collect()
        };
        assert_eq!(
            run(false),
            run(true),
            "node RNG consumption moved a lossy link's deliveries"
        );
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Box::<Recorder>::default());
        sim.with_node::<Recorder, _>(a, |_, ctx| {
            ctx.set_timer(Duration::from_millis(10), 1);
            ctx.set_timer(Duration::from_millis(50), 2);
        });
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.now(), SimTime::from_millis(20));
        assert_eq!(sim.node_ref::<Recorder>(a).timer_tokens.len(), 1);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Recorder>(a).timer_tokens.len(), 2);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        fn run(seed: u64) -> Vec<u64> {
            let link = LinkConfig::with_delay(Duration::from_millis(5)).loss(0.3);
            let (mut sim, a, b) = two_recorders(seed, link);
            for _ in 0..100 {
                sim.with_node::<Recorder, _>(a, |_, ctx| {
                    ctx.send(1, Addr::new(b, 1), vec![0; 10]);
                });
            }
            sim.run_until_idle();
            sim.node_ref::<Recorder>(b)
                .heard
                .iter()
                .map(|(t, ..)| t.as_nanos())
                .collect()
        }
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn node_names() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("alpha", Box::<Recorder>::default());
        assert_eq!(sim.node_name(a), "alpha");
    }

    /// One entry of a [`Batcher`]'s log.
    #[derive(Debug, Clone, PartialEq)]
    enum Seen {
        Datagram(SimTime),
        Flush(SimTime),
    }

    /// Logs datagrams and flushes; when `echo`, answers each datagram of
    /// an instant from its flush, the way a stack node transmits.
    #[derive(Default)]
    struct Batcher {
        log: Vec<Seen>,
        echo: bool,
        owed: Vec<Addr>,
    }

    impl Node for Batcher {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, _to: u16, _p: Payload) {
            self.log.push(Seen::Datagram(ctx.now()));
            if self.echo {
                self.owed.push(from);
            }
        }
        fn on_flush(&mut self, ctx: &mut Ctx<'_>) {
            self.log.push(Seen::Flush(ctx.now()));
            for to in self.owed.drain(..) {
                ctx.send(1, to, vec![0]);
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any_ref(&self) -> &dyn Any {
            self
        }
    }

    /// `a` and a `b` that echoes iff `echo`, over `link`, both started.
    fn batchers(link: LinkConfig, echo: bool) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        sim.set_default_link(link);
        let a = sim.add_node("a", Box::<Batcher>::default());
        let b = sim.add_node(
            "b",
            Box::new(Batcher {
                echo,
                ..Batcher::default()
            }),
        );
        sim.run_until_idle();
        (sim, a, b)
    }

    fn send_to(sim: &mut Simulator, from: NodeId, to: NodeId, k: usize) {
        sim.with_node::<Batcher, _>(from, |_, ctx| {
            for _ in 0..k {
                ctx.send(1, Addr::new(to, 1), vec![0]);
            }
        });
    }

    #[test]
    fn datagrams_of_one_instant_end_in_one_flush() {
        use Seen::*;
        let ms = SimTime::from_millis;
        let (mut sim, a, b) = batchers(LinkConfig::with_delay(Duration::from_millis(10)), false);
        // The start is a callback like any other; `with_node` has flushed
        // when it returns.
        send_to(&mut sim, a, b, 3);
        assert_eq!(sim.node_ref::<Batcher>(a).log, [Flush(ms(0)), Flush(ms(0))]);
        // `run_until(at)` handles and flushes what is due at `at`; a verb
        // at that same clock reading is then an instant of its own.
        sim.run_until(ms(10));
        sim.with_node::<Batcher, _>(b, |_, _| {});
        let b_log = &sim.node_ref::<Batcher>(b).log;
        let at10 = [
            Datagram(ms(10)),
            Datagram(ms(10)),
            Datagram(ms(10)),
            Flush(ms(10)),
            Flush(ms(10)),
        ];
        assert_eq!(b_log[..], [&[Flush(ms(0))][..], &at10].concat());
        // The events: two starts and three deliveries; flushes and verbs
        // are none.
        assert_eq!(sim.history().events, 5);
    }

    #[test]
    fn a_reply_over_an_instant_link_is_a_second_wave_of_the_instant() {
        use Seen::*;
        let zero = SimTime::ZERO;
        let (mut sim, a, b) = batchers(LinkConfig::instant(), true);
        send_to(&mut sim, a, b, 2);
        sim.run_until_idle();
        let wave = [Datagram(zero), Datagram(zero), Flush(zero)];
        let b_log = &sim.node_ref::<Batcher>(b).log;
        assert_eq!(b_log[..], [&[Flush(zero)][..], &wave].concat());
        let a_log = &sim.node_ref::<Batcher>(a).log;
        assert_eq!(a_log[..], [&[Flush(zero), Flush(zero)][..], &wave].concat());
        assert_eq!(sim.now(), zero);
    }

    #[test]
    fn a_one_link_row_holds_one_entry() {
        let (mut sim, a, b) = two_recorders(1, LinkConfig::with_delay(Duration::from_millis(1)));
        let c = sim.add_node("c", Box::<Recorder>::default());
        sim.with_node::<Recorder, _>(a, |_, ctx| ctx.send(1, Addr::new(b, 1), vec![0; 10]));
        sim.run_until_idle();
        assert_eq!(sim.core.links[a.index()].capacity(), 1, "a stub's row");
        // A second link grows the row as before.
        sim.with_node::<Recorder, _>(a, |_, ctx| ctx.send(1, Addr::new(c, 1), vec![0; 10]));
        sim.run_until_idle();
        assert_eq!(sim.core.links[a.index()].len(), 2);
        assert_eq!(sim.node_ref::<Recorder>(c).heard.len(), 1);
    }
}
