//! # moqdns-relayd
//!
//! The production shape of the stack: the sans-io `RelayNode` /
//! `AuthServer` / `StubResolver` state machines — byte-identical to the
//! ones every simulated invariant was proven on — run over **real UDP
//! sockets** on the wall clock.
//!
//! * [`netio`] — sharded socket io: N `SO_REUSEPORT` sockets, one worker
//!   thread each, batched recv/inject/drain around one shared
//!   [`LiveRuntime`](moqdns_netsim::LiveRuntime);
//! * [`daemon`] — the `moqdns-relayd` binary's core: auth/relay modes,
//!   the TXT publish schedule, and the SIGTERM drain path;
//! * [`engine`] — the `moqdns-loadgen` binary's core: replays a
//!   [`LivePlan`](moqdns_workload::live::LivePlan) of staggered joins and
//!   churn bounces, then gates zero-loss/convergence invariants through
//!   [`InvariantGate`](moqdns_bench::gate::InvariantGate) — the
//!   `BENCH_live` family;
//! * [`signal`] — an async-signal-safe SIGTERM latch (no `libc` crate).
//!
//! The CI `live` job builds both binaries and runs three loopback
//! drills: `ci/live_smoke.sh` (auth daemon → relay daemon → loadgen,
//! 30 s budget), `ci/live_saturation.sh` (open-loop sustained-rate probe
//! through the mmsg + DCID-demux path), and `ci/live_chaos.sh` (SIGKILL
//! the relay mid-run, restart it, gate that every short-idle client
//! redials and reconverges on the final TXT version). Each uploads its
//! `results/live_<profile>.json` and enforces the hard invariants.

pub mod daemon;
pub mod engine;
pub mod netio;
pub mod signal;

pub use daemon::{DaemonOpts, Mode};
pub use engine::LoadgenOpts;
pub use netio::{bind_sharded, HostCore, LiveHost};
