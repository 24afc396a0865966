//! Node trait, addressing, and the per-event context handle.

use crate::live::{LiveCore, PeerNotice};
use crate::sim::SimCore;
use crate::time::SimTime;
use moqdns_wire::Payload;
use std::any::Any;
use std::fmt;
use std::time::Duration;

/// Identifier of a node in the simulation (index into the node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a `NodeId` from its raw index. Ids are dense indices handed
    /// out by [`Simulator::add_node`](crate::Simulator::add_node); this
    /// exists so higher layers can derive ids from synthetic IP addresses.
    pub fn from_index(i: usize) -> NodeId {
        NodeId(i as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A network address: node plus a 16-bit port.
///
/// Ports let one node host several independent endpoints (e.g. a resolver
/// that speaks classic DNS on port 53 and MoQT-over-QUIC on port 853).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr {
    /// Destination node.
    pub node: NodeId,
    /// Port on that node.
    pub port: u16,
}

impl Addr {
    /// Convenience constructor.
    pub fn new(node: NodeId, port: u16) -> Addr {
        Addr { node, port }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}:{}", self.node.0, self.port)
    }
}

/// A simulated host. Implementations are event-driven state machines.
///
/// The simulator owns the node and calls it back with datagrams and timers;
/// the node reacts through the supplied [`Ctx`].
///
/// # The instant contract
///
/// Callbacks come in **instants**: every `on_start`, `on_datagram` and
/// `on_timer` a node handles at one clock reading, plus every verb a
/// driver runs on it through `with_node`. When an instant ends, each node
/// that handled a callback in it gets exactly one [`Node::on_flush`],
/// in ascending node id — the place to put on the wire what the whole
/// instant produced, so what reached a node together can leave it
/// together. The simulator ends an instant when the next event lies
/// later than now (a datagram the flushes sent over an instant link
/// opens a second wave at the same clock, flushed in turn); the live
/// runtime after the starts, after each timer deadline and after the
/// inbox phase of `run_until`; either runtime at the end of every
/// `with_node`, which a driver calls between events: a verb is an instant
/// of its own, even at a clock reading that already had one. A flush is
/// not a callback: it opens no instant of its own.
///
/// Nodes must also expose themselves as `Any` so experiments can reach
/// their concrete state between or after events (see
/// [`Simulator::with_node`](crate::Simulator::with_node)), and be `Send`
/// so the parallel simulator can run a region's nodes on a worker thread.
pub trait Node: Any + Send {
    /// Called once when the simulation starts running.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A datagram arrived, addressed to `to_port` on this node. The
    /// payload is a shared handle ([`Payload`]) — when one send fans out
    /// to several receivers, every receiver sees the same backing bytes
    /// with zero per-receiver copies. Parse in place; `to_vec` only when
    /// an owned buffer is genuinely required.
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, to_port: u16, payload: Payload);

    /// A timer armed via [`Ctx::set_timer`] fired. `token` is the caller's
    /// value; spurious wakeups after re-arming are possible and must be
    /// tolerated (check your own deadlines — the sans-io idiom).
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// The instant this node handled callbacks in is over (see the
    /// instant contract above): called once, after the last of them. A
    /// node that sends as it goes needs nothing here; a wrapper node
    /// forwards it to what it wraps.
    fn on_flush(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Upcast for experiment access to concrete node state.
    fn as_any(&mut self) -> &mut dyn Any;
    /// Shared upcast.
    fn as_any_ref(&self) -> &dyn Any;
}

/// Handle given to a node while it processes an event.
///
/// All interaction with the world goes through this: sending datagrams,
/// arming timers, reading the clock, drawing randomness. The world behind
/// it is either the simulator or the live runtime ([`crate::live`]); a
/// node cannot tell which, and that is the point.
pub struct Ctx<'a> {
    world: World<'a>,
    node: NodeId,
}

/// The two worlds a [`Ctx`] can front.
enum World<'a> {
    Sim(&'a mut SimCore),
    Live(&'a mut LiveCore),
}

impl<'a> Ctx<'a> {
    pub(crate) fn sim(core: &'a mut SimCore, node: NodeId) -> Ctx<'a> {
        Ctx {
            world: World::Sim(core),
            node,
        }
    }

    pub(crate) fn live(core: &'a mut LiveCore, node: NodeId) -> Ctx<'a> {
        Ctx {
            world: World::Live(core),
            node,
        }
    }

    /// Current time: simulated, or the live runtime's clock.
    pub fn now(&self) -> SimTime {
        match &self.world {
            World::Sim(c) => c.now,
            World::Live(c) => c.now,
        }
    }

    /// Sends a datagram from `from_port` on this node to `to`.
    ///
    /// In the simulator, delivery (or loss) is governed by the link
    /// configuration between the two nodes; see
    /// [`LinkConfig`](crate::LinkConfig). On the live runtime the datagram
    /// is handed to the io driver as is. Accepts anything convertible into
    /// a [`Payload`]; passing a `Payload` (e.g. one that arrived via
    /// [`Node::on_datagram`] or came out of an encode pool) forwards the
    /// bytes without copying them.
    pub fn send(&mut self, from_port: u16, to: Addr, payload: impl Into<Payload>) {
        let from = Addr::new(self.node, from_port);
        match &mut self.world {
            World::Sim(c) => c.transmit(from, to, payload.into()),
            World::Live(c) => c.send(from, to, payload.into()),
        }
    }

    /// Arms a timer to fire on this node after `after`, delivering `token`
    /// to [`Node::on_timer`]. Returns an id usable with [`Ctx::cancel_timer`].
    pub fn set_timer(&mut self, after: Duration, token: u64) -> u64 {
        match &mut self.world {
            World::Sim(c) => c.set_timer(self.node, after, token),
            World::Live(c) => c.set_timer(self.node, after, token),
        }
    }

    /// Cancels a previously armed timer. Cancelling an already-fired timer
    /// is a no-op.
    pub fn cancel_timer(&mut self, timer_id: u64) {
        match &mut self.world {
            World::Sim(c) => c.cancel_timer(timer_id),
            World::Live(c) => c.cancel_timer(timer_id),
        }
    }

    /// Tells the io driver what the node now keeps with a remote peer: a
    /// connection with it begun, moved to another, or gone. The live
    /// runtime hands it on ([`PeerNotice`]) to a driver that asked for
    /// them ([`crate::LiveRuntime::keep_notices`]) to count what each
    /// remote it named on demand is still kept for; the simulator names
    /// no remote on demand and keeps nothing for it.
    pub fn tell(&mut self, notice: PeerNotice) {
        if let World::Live(LiveCore {
            notices: Some(notices),
            ..
        }) = &mut self.world
        {
            notices.push(notice);
        }
    }

    /// Draws a uniformly distributed `u64` from the world's seeded RNG.
    pub fn random_u64(&mut self) -> u64 {
        match &mut self.world {
            World::Sim(c) => c.random_u64(),
            World::Live(c) => c.random_u64(),
        }
    }
}
