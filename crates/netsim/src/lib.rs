//! # moqdns-netsim
//!
//! A deterministic discrete-event network simulator.
//!
//! Every protocol component in this workspace (QUIC-like transport, MoQT,
//! DNS) is a sans-io state machine; this crate supplies the virtual world
//! they run in for experiments and integration tests:
//!
//! * virtual time ([`SimTime`]) as nanoseconds since simulation start — no
//!   wall-clock reads anywhere, so runs are exactly reproducible from a seed;
//! * an event scheduler — a hierarchical bucketed **timing wheel**
//!   (near-term ~1 ms buckets plus an overflow heap for far-future
//!   timers) with timers and arbitrary scheduled closures. Its
//!   determinism contract: events fire in strictly ascending
//!   `(time, key)` order, the key composing `(schedule-time, source,
//!   per-source seq)` — a pure function of the scheduling source's own
//!   history, so one source's events keep FIFO order and a sharded run
//!   composes exactly the keys a global scheduler would
//!   (property-tested in `sched`, pinned end-to-end by the parity tests);
//! * a parallel driver ([`ParSim`]): one simulator shard per region
//!   running on its own thread under conservative-lookahead
//!   (Chandy–Misra) synchronization. The **lookahead bound** is the
//!   minimum cross-shard link delay; shards run lock-free inside each
//!   half-open window `[T, T + L)` and exchange cross-shard datagrams at
//!   the barrier, each carrying its sender-composed scheduler key so it
//!   lands exactly where a global scheduler would have put it — the
//!   merged event history is bit-identical to a single-threaded run. See
//!   the [`par`] module docs for the full determinism contract;
//! * nodes ([`Node`]) exchanging datagrams over configurable links
//!   ([`LinkConfig`]: propagation delay, jitter, random loss, serialization
//!   rate, MTU). Datagram payloads are shared [`Payload`] handles: a
//!   fan-out of one buffer to N receivers clones a refcount, never the
//!   bytes;
//! * per-directed-pair traffic accounting ([`TrafficStats`]) used by the
//!   update-traffic experiments;
//! * a declarative chaos plane ([`faults`]): seeded [`FaultPlan`]s of
//!   link flaps, region partitions, loss bursts, and node
//!   crash/restart events, applied at barrier points so the same plan
//!   replays bit-identically single-threaded and under any sharding;
//! * declarative tiered topologies ([`topo`]): k-ary relay trees and
//!   multi-parent meshes with per-tier link configs, built once and
//!   reused by every experiment binary.
//!
//! The design follows the event-driven idiom of stacks like smoltcp: nodes
//! are polled with events (`on_datagram`, `on_timer`) and react by calling
//! back into their [`Ctx`] to transmit or arm timers.
//!
//! Hostile participants are ordinary [`Node`] implementations too: the
//! adversarial fleet in `moqdns-core::adversary` (a byzantine client that
//! injects malformed control frames, a slow-loris subscriber that joins
//! and never drains, a fetch-bomb client that stampedes a cold relay)
//! rides on the same `on_datagram`/`on_timer` surface as the honest
//! stubs, so attack drills compose with any topology built here.
//!
//! The same node types also run against **real sockets**, on the
//! [`live`] runtime ([`LiveRuntime`]) — which is not a simulator: a
//! table of local nodes, one timer queue, an inbox, an outbox and a clock
//! the io driver sets from the wall. No shard, no scheduler key, no link
//! model (the real network supplies delay and loss), and nothing kept per
//! remote peer. `run_until(now)` fires due timers in `(deadline, arm
//! order)` order, each at its deadline, then dispatches the datagrams the
//! driver injected, first in first out — the order the simulator gives
//! the same events, which `core/tests/runtime_parity.rs` checks byte for
//! byte. It is what `moqdns-relayd` is built on.

pub mod faults;
pub mod link;
pub mod live;
pub mod node;
pub mod par;
mod sched;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topo;

pub use faults::{
    run_plan, FaultAction, FaultEvent, FaultHost, FaultPlan, FaultPlanBuilder, NodeFault,
};
pub use link::LinkConfig;
pub use live::{LiveRuntime, LiveSim, OutboundDatagram};
pub use node::{Addr, Ctx, Node, NodeId};
pub use par::ParSim;
pub use sim::{splitmix64, Simulator};
pub use stats::{LinkStats, TrafficStats, TrafficStatsMut};
pub use time::SimTime;
pub use topo::{TopoBuilder, TopoHost, Topology};

/// Re-export of [`moqdns_wire::Payload`]: the shared, zero-copy datagram
/// payload handle every [`Node`] receives and sends.
pub use moqdns_wire::Payload;
