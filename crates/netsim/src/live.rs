//! The live runtime: run [`Node`]s against **real io** and the wall clock.
//!
//! Every protocol node in this workspace is a sans-io state machine driven
//! through [`Node::on_datagram`] / [`Node::on_timer`] and a [`Ctx`]. The
//! simulator is one world behind that handle; this module is the other,
//! and it is not a simulator: a [`LiveRuntime`] is a table of local nodes,
//! one timer queue, an inbox, an outbox and a clock. It has no links, no
//! scheduler keys and no shards — and nothing in it is keyed by a remote
//! peer, so a daemon that hears from a million source addresses holds
//! exactly what it held after the first.
//!
//! `moqdns-relayd` runs the *same* `RelayNode` / `AuthServer` types that
//! every simulated invariant was proven on (`core/tests/runtime_parity.rs`
//! runs one script on both worlds and compares the bytes). The io driver
//! owns the sockets and the wall clock; the contract between the two:
//!
//! * **Ids.** Local nodes ([`LiveRuntime::add_node`]) and remote peers
//!   ([`LiveRuntime::add_remote`]) draw [`NodeId`]s from one dense counter.
//!   A remote id is only a name the driver maps to a socket address; the
//!   runtime keeps nothing for it. A driver that names remotes on demand
//!   hands back the ids no node keeps anything with any more
//!   ([`LiveRuntime::forget_remote`]), and the next remote takes the
//!   last one handed back: what the nodes say they keep
//!   ([`Ctx::tell`]) waits for the driver as [`PeerNotice`]s
//!   ([`LiveRuntime::take_notices_into`]), once it asked for them
//!   ([`LiveRuntime::keep_notices`]).
//! * **Clock.** [`SimTime`] is nanoseconds since an epoch the driver
//!   chooses (process start). The clock moves only in
//!   [`LiveRuntime::run_until`]; a verb entered through
//!   [`LiveRuntime::with_node`] sees the time of the last `run_until`.
//! * **Order.** `run_until(now)` runs the `on_start` of nodes added since
//!   the last call, then every timer due at or before `now` in `(deadline,
//!   arm order)` order — each with `ctx.now()` equal to its *deadline*, as
//!   in the simulator — then the datagrams queued by
//!   [`LiveRuntime::inject`], first in first out, at `now`; timers those
//!   datagrams made due fire before it returns. `inject` only queues.
//!   Each phase ends an instant (the `node` module's instant contract):
//!   the nodes it ran get their [`Node::on_flush`], in ascending id, after
//!   the starts, after the due timers of each deadline and after the
//!   inbox — and at the end of every [`LiveRuntime::with_node`], so a
//!   verb has sent what it owes when the call returns.
//!   [`LiveRuntime::next_event_at`] is the earliest armed timer, which is
//!   what the driver's socket read timeout is derived from.
//! * **Sends.** Every [`Ctx::send`] parks in the outbox until the driver
//!   drains it to a socket ([`LiveRuntime::take_outbound_into`]). There is
//!   no link model because there is nothing to model: delay, loss and
//!   reordering come from the real network. And there is no local → local
//!   path: every live deployment (a daemon and its peers, a load
//!   generator's stubs and their server) sends to remotes only, so a send
//!   addressed to a local node is a bug and panics.

use crate::node::{Addr, Ctx, Node, NodeId};
use crate::sched::{EventQueue, TimerSlots, Touched};
use crate::sim::splitmix64;
use crate::time::SimTime;
use moqdns_wire::Payload;
use std::time::Duration;

/// A datagram leaving the local nodes for a remote peer, drained via
/// [`LiveRuntime::take_outbound_into`]. The driver maps `to.node` back to a real
/// socket address and writes `payload` to the wire.
#[derive(Debug, Clone)]
pub struct OutboundDatagram {
    /// Local source (node + virtual port).
    pub from: Addr,
    /// Remote destination (a [`LiveRuntime::add_remote`] id + virtual port).
    pub to: Addr,
    /// The bytes to put on the wire (shared handle; zero-copy).
    pub payload: Payload,
}

/// What a node said it keeps with a remote peer ([`Ctx::tell`]), waiting
/// for the driver. Each of a node's connections is `Held` once, then
/// `Moved` as often as its peer's address changes, then `Released` once:
/// a driver that adds and takes away one per notice keeps, for every
/// remote, the number of connections whose traffic goes to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerNotice {
    /// The node now keeps a connection with this remote.
    Held(NodeId),
    /// One of the node's connections now sends to `to`, no longer to
    /// `from`: its peer spoke from a new address.
    Moved {
        /// The remote it sent to.
        from: NodeId,
        /// The remote it sends to now.
        to: NodeId,
    },
    /// The node's connection with this remote, named by the id, is gone.
    Released(NodeId, u64),
}

/// An armed timer waiting in the queue.
struct Timer {
    node: NodeId,
    token: u64,
    id: u64,
}

/// Everything the runtime owns except the nodes themselves: what a node
/// reaches through its [`Ctx`].
pub(crate) struct LiveCore {
    pub(crate) now: SimTime,
    /// Armed timers, ordered by `(deadline, arm order)`.
    timers: EventQueue<Timer>,
    /// Arm order: the queue's tiebreaker.
    armed: u64,
    slots: TimerSlots,
    outbox: Vec<OutboundDatagram>,
    /// What the nodes said they keep with remotes, for a driver that
    /// takes it ([`LiveRuntime::keep_notices`]); `None` for one that does not.
    pub(crate) notices: Option<Vec<PeerNotice>>,
    /// Ids of the local nodes, ascending (ids are handed out in order).
    local_ids: Vec<u32>,
    /// Counter behind [`Ctx::random_u64`].
    rng: u64,
}

impl LiveCore {
    pub(crate) fn send(&mut self, from: Addr, to: Addr, payload: Payload) {
        assert!(
            self.local_ids.binary_search(&to.node.0).is_err(),
            "live runtime: {from} sent to local node {to}; there is no local delivery path"
        );
        self.outbox.push(OutboundDatagram { from, to, payload });
    }

    pub(crate) fn set_timer(&mut self, node: NodeId, after: Duration, token: u64) -> u64 {
        let id = self.slots.arm();
        self.timers.push(
            self.now + after,
            self.armed as u128,
            Timer { node, token, id },
        );
        self.armed += 1;
        id
    }

    pub(crate) fn cancel_timer(&mut self, timer_id: u64) {
        self.slots.cancel(timer_id);
    }

    pub(crate) fn random_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(1);
        splitmix64(self.rng)
    }
}

/// Local nodes on real io. See the module docs for the driver contract.
pub struct LiveRuntime {
    core: LiveCore,
    /// The local nodes, parallel to `core.local_ids`.
    nodes: Vec<Box<dyn Node>>,
    /// Ids handed out so far, local and remote.
    ids: u32,
    /// Remote ids handed back, the last one first to be named again.
    free_remotes: Vec<NodeId>,
    /// How many of `nodes`, in order, have had their `on_start`.
    started: usize,
    /// Injected datagrams awaiting the next [`LiveRuntime::run_until`].
    inbox: Vec<(Addr, Addr, Payload)>,
    /// Slots of the nodes that handled a callback in the current instant.
    touched: Touched,
}

/// The name the benchmark compiles against.
pub type LiveSim = LiveRuntime;

impl LiveRuntime {
    /// Creates an empty runtime. `seed` feeds [`Ctx::random_u64`] (io
    /// order comes from the wire, not from here).
    pub fn new(seed: u64) -> LiveRuntime {
        LiveRuntime {
            core: LiveCore {
                now: SimTime::ZERO,
                timers: EventQueue::new(),
                armed: 0,
                slots: TimerSlots::default(),
                outbox: Vec::new(),
                notices: None,
                local_ids: Vec::new(),
                rng: seed,
            },
            nodes: Vec::new(),
            ids: 0,
            free_remotes: Vec::new(),
            started: 0,
            inbox: Vec::new(),
            touched: Touched::default(),
        }
    }

    fn next_id(&mut self) -> NodeId {
        let id = NodeId(self.ids);
        self.ids = self.ids.checked_add(1).expect("node ids exhausted");
        id
    }

    /// Adds a local protocol node; its `on_start` runs at the next
    /// [`LiveRuntime::run_until`]. The name is for the caller's benefit
    /// only (the runtime keeps no name table).
    pub fn add_node(&mut self, _name: impl Into<String>, node: Box<dyn Node>) -> NodeId {
        let id = self.next_id();
        self.core.local_ids.push(id.0);
        self.nodes.push(node);
        self.touched.grow(self.nodes.len());
        id
    }

    /// Names a remote peer: an id the local nodes can send to and the
    /// driver can inject from. One per remote socket address; costs the
    /// runtime nothing. The last id handed back is named first.
    pub fn add_remote(&mut self) -> NodeId {
        self.free_remotes.pop().unwrap_or_else(|| self.next_id())
    }

    /// Hands back a remote id no node keeps anything with (module docs):
    /// the next [`LiveRuntime::add_remote`] names another peer with it.
    pub fn forget_remote(&mut self, remote: NodeId) {
        debug_assert!(
            self.core.local_ids.binary_search(&remote.0).is_err(),
            "{remote} is a local node"
        );
        self.free_remotes.push(remote);
    }

    /// Keeps what the nodes say they keep with remotes, from now on, for
    /// [`LiveRuntime::take_notices_into`]. A runtime whose driver names
    /// no remote on demand keeps none: nothing would ever take them.
    pub fn keep_notices(&mut self) {
        self.core.notices.get_or_insert_default();
    }

    /// Moves what the nodes said they keep with remotes since the last
    /// call into `out`, in the order they said it.
    pub fn take_notices_into(&mut self, out: &mut Vec<PeerNotice>) {
        if let Some(notices) = &mut self.core.notices {
            out.append(notices);
        }
    }

    /// Current runtime time (nanoseconds since the driver's epoch).
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// When the earliest armed timer is due, if any — the driver derives
    /// its socket read timeout from this.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.core.timers.next_at()
    }

    /// Advances the clock to `now`: pending `on_start`s, due timers,
    /// then injected datagrams, each phase flushed (the order contract is
    /// in the module docs). Returns the number of callbacks executed.
    pub fn run_until(&mut self, now: SimTime) -> u64 {
        let now = now.max(self.core.now);
        let mut n = 0;
        while self.started < self.nodes.len() {
            self.dispatch(self.started, |node, ctx| node.on_start(ctx));
            self.started += 1;
            n += 1;
        }
        self.flush();
        loop {
            while self.core.timers.next_at().is_some_and(|at| at <= now) {
                let due = self.core.timers.pop().expect("peeked");
                self.core.now = due.at;
                let Timer { node, token, id } = due.item;
                if self.core.slots.take(id) {
                    self.dispatch(self.slot_of(node), |n, ctx| n.on_timer(ctx, token));
                    n += 1;
                }
                // The last timer of its deadline ends the instant.
                if self.core.timers.next_at() != Some(self.core.now) {
                    self.flush();
                }
            }
            self.core.now = now;
            if self.inbox.is_empty() {
                return n;
            }
            // Nothing can inject while a node runs, so the batch is the
            // whole inbox; it goes back empty with its allocation.
            let mut batch = std::mem::take(&mut self.inbox);
            for (from, to, payload) in batch.drain(..) {
                self.dispatch(self.slot_of(to.node), |n, ctx| {
                    n.on_datagram(ctx, from, to.port, payload)
                });
                n += 1;
            }
            self.inbox = batch;
            self.flush();
        }
    }

    /// Queues a datagram received from the wire for `to.node`; it is
    /// dispatched by the next [`LiveRuntime::run_until`].
    pub fn inject(&mut self, from: Addr, to: Addr, payload: Payload) {
        self.inbox.push((from, to, payload));
    }

    /// Drains every datagram local nodes sent since the last call into a
    /// caller-owned vector, keeping the outbox's allocation, so a hot io
    /// loop allocates nothing per burst. The driver writes these to the
    /// real socket(s). Returns the number appended.
    pub fn take_outbound_into(&mut self, out: &mut Vec<OutboundDatagram>) -> usize {
        let n = self.core.outbox.len();
        out.append(&mut self.core.outbox);
        n
    }

    /// Direct access to a local node: call verbs on it between io events.
    /// Advance the clock with [`LiveRuntime::run_until`] first so
    /// `ctx.now()` is current. The call is an instant of its own: the
    /// node's [`Node::on_flush`] has run when it returns.
    ///
    /// Panics if `id` does not refer to a local `T`.
    pub fn with_node<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let r = self.dispatch(self.slot_of(id), |node, ctx| {
            let t = node
                .as_any()
                .downcast_mut::<T>()
                .expect("node type mismatch");
            f(t, ctx)
        });
        self.flush();
        r
    }

    /// Immutable access to a local node's concrete state.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        self.nodes[self.slot_of(id)]
            .as_any_ref()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Position of local node `id` in the node table.
    fn slot_of(&self, id: NodeId) -> usize {
        self.core
            .local_ids
            .binary_search(&id.0)
            .unwrap_or_else(|_| panic!("{id} is not a local node of this runtime"))
    }

    /// Runs `f` on the node at `slot` with a [`Ctx`] over the core, and
    /// notes the node for the instant's flush.
    fn dispatch<R>(&mut self, slot: usize, f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>) -> R) -> R {
        let id = NodeId(self.core.local_ids[slot]);
        self.touched.mark(slot);
        f(
            self.nodes[slot].as_mut(),
            &mut Ctx::live(&mut self.core, id),
        )
    }

    /// Ends the instant: every node that handled a callback in it gets its
    /// [`Node::on_flush`], in ascending id (slots ascend with ids).
    fn flush(&mut self) {
        while let Some(slot) = self.touched.pop_lowest() {
            let id = NodeId(self.core.local_ids[slot]);
            self.nodes[slot].on_flush(&mut Ctx::live(&mut self.core, id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Ctx;
    use std::any::Any;

    /// Echoes every datagram back to its sender and counts timer fires.
    struct Echo {
        timer_fires: u32,
        heard: Vec<(Addr, Payload)>,
    }

    impl Node for Echo {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, to_port: u16, payload: Payload) {
            self.heard.push((from, payload.clone()));
            ctx.send(to_port, from, payload);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {
            self.timer_fires += 1;
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any_ref(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn remote_sends_park_in_outbound() {
        let mut live = LiveSim::new(1);
        let echo = live.add_node(
            "echo",
            Box::new(Echo {
                timer_fires: 0,
                heard: Vec::new(),
            }),
        );
        let remote = live.add_remote();
        live.run_until(SimTime::from_millis(1));

        // A wire datagram arrives from the remote; the echo's reply must
        // surface in the outbound queue instead of dispatching locally.
        live.inject(
            Addr::new(remote, 7),
            Addr::new(echo, 7),
            Payload::from(&b"ping"[..]),
        );
        live.run_until(SimTime::from_millis(2));
        let mut out = Vec::new();
        assert_eq!(live.take_outbound_into(&mut out), 1);
        assert_eq!(out[0].to.node, remote);
        assert_eq!(&out[0].payload[..], b"ping");
        assert_eq!(live.node_ref::<Echo>(echo).heard.len(), 1);
    }

    #[test]
    fn timers_fire_as_the_clock_advances() {
        let mut live = LiveSim::new(2);
        let echo = live.add_node(
            "echo",
            Box::new(Echo {
                timer_fires: 0,
                heard: Vec::new(),
            }),
        );
        live.run_until(SimTime::from_millis(1));
        live.with_node::<Echo, _>(echo, |_, ctx| {
            ctx.set_timer(Duration::from_millis(5), 42);
        });
        let next = live.next_event_at().expect("timer scheduled");
        assert_eq!(next, SimTime::from_millis(6));
        live.run_until(SimTime::from_millis(4));
        assert_eq!(live.node_ref::<Echo>(echo).timer_fires, 0);
        live.run_until(SimTime::from_millis(10));
        assert_eq!(live.node_ref::<Echo>(echo).timer_fires, 1);
    }

    #[test]
    fn remote_ids_are_dense_with_local_ids() {
        let mut live = LiveSim::new(3);
        let a = live.add_node(
            "a",
            Box::new(Echo {
                timer_fires: 0,
                heard: Vec::new(),
            }),
        );
        let r1 = live.add_remote();
        let r2 = live.add_remote();
        assert_eq!(a.index(), 0);
        assert_eq!(r1.index(), 1);
        assert_eq!(r2.index(), 2);
    }

    #[test]
    fn a_forgotten_remote_id_names_the_next_remote() {
        let mut live = LiveSim::new(3);
        let echo = live.add_node(
            "echo",
            Box::new(Echo {
                timer_fires: 0,
                heard: Vec::new(),
            }),
        );
        let (r1, r2) = (live.add_remote(), live.add_remote());
        let notices = [
            PeerNotice::Held(r1),
            PeerNotice::Moved { from: r1, to: r2 },
            PeerNotice::Released(r2, 9),
        ];
        let tell = |live: &mut LiveSim| {
            live.with_node::<Echo, _>(echo, |_, ctx| notices.into_iter().for_each(|n| ctx.tell(n)));
            let mut told = Vec::new();
            live.take_notices_into(&mut told);
            told
        };
        assert_eq!(tell(&mut live), [], "kept for no one");
        live.keep_notices();
        assert_eq!(tell(&mut live), notices, "in the order they were told");
        live.forget_remote(r2);
        live.forget_remote(r1);
        assert_eq!(live.add_remote(), r1, "the last one handed back");
        assert_eq!(live.add_remote(), r2);
        assert_eq!(live.add_remote().index(), 3, "then a new one");
    }

    /// What a [`Scribe`] saw, in order.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Start,
        Timer(u64, SimTime),
        Datagram(u8, SimTime),
    }

    /// Logs every callback with the clock it ran at.
    #[derive(Default)]
    struct Scribe(Vec<Seen>);

    impl Node for Scribe {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
            self.0.push(Seen::Start);
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, _from: Addr, _port: u16, payload: Payload) {
            self.0.push(Seen::Datagram(payload[0], ctx.now()));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.0.push(Seen::Timer(token, ctx.now()));
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any_ref(&self) -> &dyn Any {
            self
        }
    }

    fn scribe_and_remote() -> (LiveRuntime, NodeId, NodeId) {
        let mut live = LiveRuntime::new(4);
        let scribe = live.add_node("scribe", Box::<Scribe>::default());
        let remote = live.add_remote();
        (live, scribe, remote)
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn timers_fire_in_deadline_order_at_their_deadline_before_datagrams() {
        let (mut live, scribe, remote) = scribe_and_remote();
        live.run_until(ms(1));
        live.with_node::<Scribe, _>(scribe, |_, ctx| {
            ctx.set_timer(Duration::from_millis(7), 70);
            ctx.set_timer(Duration::from_millis(3), 30);
            ctx.set_timer(Duration::from_millis(3), 31); // same deadline: arm order
            ctx.set_timer(Duration::from_millis(50), 500); // not due
        });
        // Injected before the clock moves, dispatched after the timers.
        for b in [1u8, 2, 3] {
            live.inject(Addr::new(remote, 7), Addr::new(scribe, 7), vec![b].into());
        }
        assert_eq!(live.run_until(ms(10)), 6);
        assert_eq!(
            live.node_ref::<Scribe>(scribe).0,
            [
                Seen::Start,
                Seen::Timer(30, ms(4)),
                Seen::Timer(31, ms(4)),
                Seen::Timer(70, ms(8)),
                Seen::Datagram(1, ms(10)),
                Seen::Datagram(2, ms(10)),
                Seen::Datagram(3, ms(10)),
            ]
        );
        assert_eq!(live.now(), ms(10));
        assert_eq!(live.next_event_at(), Some(ms(51)));
    }

    #[test]
    fn a_cancelled_timer_neither_fires_nor_lingers() {
        let (mut live, scribe, _) = scribe_and_remote();
        live.run_until(ms(1));
        for round in 0..100 {
            let id = live.with_node::<Scribe, _>(scribe, |_, ctx| {
                ctx.set_timer(Duration::from_millis(2), round)
            });
            live.with_node::<Scribe, _>(scribe, |_, ctx| ctx.cancel_timer(id));
            let now = live.now() + Duration::from_millis(5);
            assert_eq!(live.run_until(now), 0);
            // A stale id must not grow anything either.
            live.with_node::<Scribe, _>(scribe, |_, ctx| ctx.cancel_timer(id));
        }
        assert_eq!(live.node_ref::<Scribe>(scribe).0, [Seen::Start]);
        assert_eq!(live.core.slots.bookkeeping(), (1, 1), "one slot, recycled");
        assert_eq!(live.core.timers.len(), 0);
        assert_eq!(live.next_event_at(), None);
    }

    #[test]
    fn on_start_runs_once_before_the_first_datagram() {
        let (mut live, scribe, remote) = scribe_and_remote();
        live.inject(Addr::new(remote, 7), Addr::new(scribe, 7), vec![9u8].into());
        live.run_until(ms(1));
        live.run_until(ms(2));
        assert_eq!(
            live.node_ref::<Scribe>(scribe).0,
            [Seen::Start, Seen::Datagram(9, ms(1))]
        );
    }

    #[test]
    fn an_idle_runtime_has_no_next_event() {
        let (mut live, _, _) = scribe_and_remote();
        assert_eq!(live.next_event_at(), None);
        assert_eq!(live.run_until(ms(1)), 1, "the start");
        assert_eq!(live.next_event_at(), None);
        assert_eq!(live.run_until(ms(2)), 0);
    }

    /// Logs datagrams, timers and flushes with the clock they ran at.
    #[derive(Default)]
    struct Flushes(Vec<(&'static str, SimTime)>);

    impl Node for Flushes {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, _from: Addr, _port: u16, _p: Payload) {
            self.0.push(("datagram", ctx.now()));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.0.push(("timer", ctx.now()));
        }
        fn on_flush(&mut self, ctx: &mut Ctx<'_>) {
            self.0.push(("flush", ctx.now()));
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any_ref(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn each_phase_of_a_run_ends_in_one_flush() {
        let mut live = LiveRuntime::new(5);
        let node = live.add_node("flushes", Box::<Flushes>::default());
        let remote = live.add_remote();
        live.run_until(ms(1));
        // A verb is an instant of its own.
        live.with_node::<Flushes, _>(node, |_, ctx| {
            ctx.set_timer(Duration::from_millis(2), 1);
            ctx.set_timer(Duration::from_millis(2), 2);
        });
        for b in [1u8, 2, 3] {
            live.inject(Addr::new(remote, 7), Addr::new(node, 7), vec![b].into());
        }
        assert_eq!(live.run_until(ms(5)), 5);
        assert_eq!(
            live.node_ref::<Flushes>(node).0,
            [
                ("flush", ms(0)), // the start, before the clock moved
                ("flush", ms(1)), // the verb
                ("timer", ms(3)),
                ("timer", ms(3)),
                ("flush", ms(3)),
                ("datagram", ms(5)),
                ("datagram", ms(5)),
                ("datagram", ms(5)),
                ("flush", ms(5)),
            ]
        );
        // Timers of two deadlines due in one call: an instant each.
        live.with_node::<Flushes, _>(node, |_, ctx| {
            ctx.set_timer(Duration::from_millis(1), 3);
            ctx.set_timer(Duration::from_millis(2), 4);
        });
        live.run_until(ms(9));
        assert_eq!(
            live.node_ref::<Flushes>(node).0[9..],
            [
                ("flush", ms(5)),
                ("timer", ms(6)),
                ("flush", ms(6)),
                ("timer", ms(7)),
                ("flush", ms(7)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "no local delivery path")]
    fn a_send_to_a_local_node_is_a_bug() {
        let (mut live, scribe, _) = scribe_and_remote();
        let other = live.add_node("other", Box::<Scribe>::default());
        live.with_node::<Scribe, _>(scribe, |_, ctx| {
            ctx.send(7, Addr::new(other, 7), vec![0u8]);
        });
    }
}
