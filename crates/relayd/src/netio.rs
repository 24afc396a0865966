//! Sharded UDP io for live protocol nodes.
//!
//! A [`LiveHost`] owns N real sockets, one worker thread per socket, all
//! feeding one shared [`LiveRuntime`] behind a mutex. The hot path
//! batches whole syscalls and keeps the lock off the wire, per the
//! saturation design:
//!
//! * a worker blocks in `recvmmsg` ([`RecvBatcher`]) with a timeout
//!   derived from the runtime's next protocol deadline, re-arming
//!   `SO_RCVTIMEO` **only when the computed wait changes** (the kernel
//!   keeps the last value); one syscall returns the first datagram plus
//!   everything already queued behind it;
//! * it then takes the core lock **once** for the whole burst: advance
//!   the clock, inject every frame, pump events, and stage the parked
//!   outbound datagrams onto per-socket send queues — appended *under*
//!   the lock, so queue order is protocol order. The burst is one instant
//!   of the runtime (its inbox phase), so a node answers it with one
//!   flight per connection: every frame it received acknowledged at once;
//! * the wire write happens *after* the lock is released: each touched
//!   socket's queue is drained through a [`SendBatcher`] (`sendmmsg`)
//!   under a per-socket flush mutex. Only the flush-mutex holder
//!   dequeues, so per-socket wire order matches protocol order even when
//!   several workers staged frames; sockets with nothing staged are
//!   never touched.
//!
//! Outbound frames are steered by peeked DCID ([`peek_dcid`]) when the
//! source node fronts several sockets (the `SO_REUSEPORT` daemon case),
//! pinning a connection's packets to one socket so reordering cannot
//! regress the deterministic gates. Inbound, a socket fronting several
//! local nodes (the load generator's `--clients-per-socket` mode)
//! demuxes by the same DCID, learned from each connection's *outbound*
//! first flight — the client always transmits first, so the mapping
//! exists before any reply arrives.
//!
//! For a daemon, the N sockets are `SO_REUSEPORT` shards of one listen
//! address ([`bind_sharded`]): the kernel hashes each peer flow to one
//! socket, every worker replies from its own shard (the bound address is
//! identical), and cross-worker hand-off rides the send queues.

use moqdns_core::MOQT_PORT;
use moqdns_netsim::{Addr, LiveRuntime, NodeId, OutboundDatagram, Payload, SimTime};
use moqdns_quic::packet::peek_dcid;
use moqdns_quic::udp_batch::{RecvBatcher, SendBatcher, MAX_BATCH};
use std::collections::BTreeMap;
use std::net::{SocketAddr, UdpSocket};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Ceiling on a worker's sleep: bounds how late an action armed by the
/// control thread (publish round, plan step) can fire.
const MAX_WAIT: Duration = Duration::from_millis(25);
/// Floor: `SO_RCVTIMEO` of zero would mean "block forever".
const MIN_WAIT: Duration = Duration::from_millis(1);

moqdns_wire::counters! {
    /// Wire-level datagram counts of a host, both directions, as
    /// [`LiveHost::stats`] reads them off its workers' atomics.
    pub struct HostStats {
        /// Datagrams read off the wire.
        rx = "host.datagrams.received",
        /// Datagrams written to the wire.
        tx = "host.datagrams.sent",
        /// Inbound datagrams dropped because a shared socket could not map
        /// their DCID to a local node (never the socket's fault: the peer
        /// spoke before the fronted client did, which the protocol
        /// forbids).
        unrouted = "host.datagrams.unrouted",
    }
}

/// [`HostStats`] as the workers add to it.
#[derive(Debug, Default)]
struct Tally {
    rx: AtomicU64,
    tx: AtomicU64,
    unrouted: AtomicU64,
}

/// The mutable heart of a [`LiveHost`]: the live runtime plus the
/// `NodeId ↔ SocketAddr` registry for remote peers and the learned
/// `DCID → local node` demux table.
pub struct HostCore {
    live: LiveRuntime,
    /// Allocate remote ids for unknown senders on demand (a daemon
    /// accepts anyone; a load generator talks only to registered peers).
    learn_remotes: bool,
    by_addr: BTreeMap<SocketAddr, NodeId>,
    by_node: BTreeMap<u32, SocketAddr>,
    /// DCID → owning local node, learned from outbound datagrams. Only
    /// populated when some socket fronts more than one node.
    dcid_owner: BTreeMap<u64, NodeId>,
    /// Whether any socket needs DCID demux (set by [`LiveHost::start`]).
    demux: bool,
}

impl HostCore {
    /// A fresh core around an empty runtime.
    pub fn new(seed: u64, learn_remotes: bool) -> HostCore {
        HostCore {
            live: LiveRuntime::new(seed),
            learn_remotes,
            by_addr: BTreeMap::new(),
            by_node: BTreeMap::new(),
            dcid_owner: BTreeMap::new(),
            demux: false,
        }
    }

    /// The underlying runtime (add nodes before [`LiveHost::start`]).
    pub fn live(&mut self) -> &mut LiveRuntime {
        &mut self.live
    }

    /// Registers (or looks up) the remote id for a peer socket address.
    pub fn register_remote(&mut self, peer: SocketAddr) -> NodeId {
        if let Some(&id) = self.by_addr.get(&peer) {
            return id;
        }
        let id = self.live.add_remote();
        self.by_addr.insert(peer, id);
        self.by_node.insert(id.index() as u32, peer);
        id
    }

    fn remote_for(&mut self, peer: SocketAddr) -> Option<NodeId> {
        match self.by_addr.get(&peer) {
            Some(&id) => Some(id),
            None if self.learn_remotes => Some(self.register_remote(peer)),
            None => None,
        }
    }

    fn peer_of(&self, node: NodeId) -> Option<SocketAddr> {
        self.by_node.get(&(node.index() as u32)).copied()
    }

    /// Inbound routing for one datagram arriving on socket `k`.
    fn route_inbound(&self, fronts_k: &[NodeId], payload: &Payload) -> Option<NodeId> {
        if fronts_k.len() == 1 {
            return Some(fronts_k[0]);
        }
        // Shared socket: the DCID names the connection, and the owning
        // node was learned when that connection's first outbound flight
        // was staged. Delivery only needs the right *node* — which
        // socket carried the datagram is irrelevant to the state machine.
        self.dcid_owner.get(&peek_dcid(payload)?).copied()
    }
}

/// One socket's outbound lane: a staging queue appended under the core
/// lock (so order is protocol order) and a flusher that drains it to the
/// wire outside the lock. Only the flush-mutex holder dequeues, which
/// keeps per-socket wire order intact across workers.
struct SendShard {
    queue: Mutex<Vec<(SocketAddr, Payload)>>,
    flusher: Mutex<SendBatcher>,
}

/// Takes `m`'s lock, poisoned or not. A worker that panicked while
/// holding it has already set `failed`; the data stays reachable, so the
/// daemon can still drain.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    core: Mutex<HostCore>,
    /// One outbound lane per socket.
    sends: Vec<SendShard>,
    /// Local node index → sockets fronting it (egress candidates).
    egress_of: BTreeMap<u32, Vec<usize>>,
    /// `fronts[k]` = local nodes whose inbound traffic socket `k` carries.
    fronts: Vec<Vec<NodeId>>,
    stop: AtomicBool,
    stats: Tally,
    /// Set when a worker dies — a socket error, or a panic out of a node
    /// (drain is then unclean).
    failed: AtomicBool,
}

/// Reusable per-caller scratch for the stage-then-flush outbound path,
/// so the steady state allocates nothing.
struct OutboundScratch {
    /// Parked datagrams drained from the runtime.
    parked: Vec<OutboundDatagram>,
    /// Frames grouped by egress socket before the queue append.
    staged: Vec<Vec<(SocketAddr, Payload)>>,
    /// Egress indices with non-empty staging this round.
    touched: Vec<usize>,
}

impl OutboundScratch {
    fn new(sockets: usize) -> OutboundScratch {
        OutboundScratch {
            parked: Vec::with_capacity(MAX_BATCH),
            staged: (0..sockets).map(|_| Vec::new()).collect(),
            touched: Vec::with_capacity(sockets),
        }
    }
}

/// N sockets + N workers around one shared [`HostCore`].
pub struct LiveHost {
    shared: Arc<Shared>,
    sockets: Vec<Arc<UdpSocket>>,
    epoch: Instant,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl LiveHost {
    /// Starts one worker per socket. `fronts[i]` lists the local nodes
    /// whose traffic `sockets[i]` carries: inbound datagrams are routed
    /// to the single entry directly, or demuxed by DCID when a socket
    /// fronts several nodes; outbound frames from a node go out one of
    /// the sockets fronting it (DCID-steered when there are several).
    pub fn start(
        mut core: HostCore,
        sockets: Vec<UdpSocket>,
        fronts: Vec<Vec<NodeId>>,
    ) -> LiveHost {
        assert_eq!(sockets.len(), fronts.len(), "one front list per socket");
        assert!(!sockets.is_empty(), "need at least one socket");
        assert!(
            fronts.iter().all(|f| !f.is_empty()),
            "every socket must front at least one node"
        );
        core.demux = fronts.iter().any(|f| f.len() > 1);
        let mut egress_of: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (k, list) in fronts.iter().enumerate() {
            for node in list {
                let lanes = egress_of.entry(node.index() as u32).or_default();
                if !lanes.contains(&k) {
                    lanes.push(k);
                }
            }
        }
        let sockets: Vec<Arc<UdpSocket>> = sockets.into_iter().map(Arc::new).collect();
        let shared = Arc::new(Shared {
            core: Mutex::new(core),
            sends: (0..sockets.len())
                .map(|_| SendShard {
                    queue: Mutex::new(Vec::new()),
                    flusher: Mutex::new(SendBatcher::new()),
                })
                .collect(),
            egress_of,
            fronts,
            stop: AtomicBool::new(false),
            stats: Tally::default(),
            failed: AtomicBool::new(false),
        });
        let epoch = Instant::now();
        let handles = (0..sockets.len())
            .map(|k| {
                let shared = Arc::clone(&shared);
                let sockets = sockets.clone();
                std::thread::Builder::new()
                    .name(format!("udp-worker-{k}"))
                    .spawn(move || {
                        // Anything but a requested stop is a failure: the
                        // socket this worker owned is deaf from here on.
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            worker_loop(k, &shared, &sockets, epoch)
                        }));
                        if !matches!(run, Ok(Ok(()))) {
                            if let Ok(Err(e)) = run {
                                eprintln!("udp-worker-{k}: {e}"); // a panic printed itself
                            }
                            shared.failed.store(true, Ordering::Relaxed);
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        LiveHost {
            shared,
            sockets,
            epoch,
            handles,
        }
    }

    /// Wall-clock time on the runtime's clock.
    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// The host's datagram counts so far.
    pub fn stats(&self) -> HostStats {
        let read = |n: &AtomicU64| n.load(Ordering::Relaxed);
        let tally = &self.shared.stats;
        HostStats {
            rx: read(&tally.rx),
            tx: read(&tally.tx),
            unrouted: read(&tally.unrouted),
        }
    }

    /// Whether a worker has died (socket error or panic); its socket is
    /// no longer served and [`LiveHost::stop`] will report an unclean
    /// drain.
    pub fn failed(&self) -> bool {
        self.shared.failed.load(Ordering::Relaxed)
    }

    /// Runs `f` against the core with the clock advanced to wall time,
    /// then flushes any outbound datagrams the action generated. This is
    /// how control threads (publisher, plan driver) call node verbs.
    pub fn with_core<R>(&self, f: impl FnOnce(&mut HostCore) -> R) -> R {
        // Control path: a fresh scratch per call is fine (not hot).
        let mut scratch = OutboundScratch::new(self.sockets.len());
        let r = {
            let mut core = lock(&self.shared.core);
            let now = SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64);
            core.live.run_until(now);
            let r = f(&mut core);
            core.live.run_until(now);
            stage_outbound(&mut core, &self.shared, &mut scratch, 0);
            r
        };
        flush_touched(&self.shared, &self.sockets, &scratch.touched);
        r
    }

    /// Stops and joins every worker. Returns `true` when all workers ran
    /// until asked to stop (no socket error, no panic — a clean drain).
    pub fn stop(mut self) -> bool {
        self.join_workers();
        !self.failed()
    }

    fn join_workers(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            // A dead worker has already set `failed` (its closure catches
            // the panic), so `join` has nothing more to say.
            let _ = h.join();
        }
    }
}

impl Drop for LiveHost {
    fn drop(&mut self) {
        self.join_workers();
    }
}

/// Drains the runtime's parked outbound datagrams onto per-socket send
/// queues. Must run with the core lock held — the append order *is* the
/// per-socket wire order. `me` is the caller's socket index, the egress
/// of last resort for a source node no socket claims to front.
///
/// Fills `scratch.touched` with the egress indices that received frames;
/// untouched sockets are skipped entirely by the flush.
fn stage_outbound(core: &mut HostCore, shared: &Shared, scratch: &mut OutboundScratch, me: usize) {
    scratch.touched.clear();
    scratch.parked.clear();
    if core.live.take_outbound_into(&mut scratch.parked) == 0 {
        return; // empty batch: no queue locks, no flush
    }
    for dg in scratch.parked.drain(..) {
        let Some(peer) = core.peer_of(dg.to.node) else {
            continue; // remote vanished (never registered); drop
        };
        if core.demux {
            // Learn the demux table from the first outbound flight: the
            // client transmits before the server can reply, so the entry
            // exists before any inbound datagram needs it.
            if let Some(dcid) = peek_dcid(&dg.payload) {
                core.dcid_owner.entry(dcid).or_insert(dg.from.node);
            }
        }
        let egress = match shared.egress_of.get(&(dg.from.node.index() as u32)) {
            Some(lanes) if lanes.len() == 1 => lanes[0],
            Some(lanes) => {
                // Several shards front this node (the daemon): pin the
                // connection to one socket by its DCID so its packets
                // never interleave across send queues.
                let dcid = peek_dcid(&dg.payload).unwrap_or(0);
                lanes[(dcid % lanes.len() as u64) as usize]
            }
            None => me,
        };
        scratch.staged[egress].push((peer, dg.payload));
    }
    for (k, frames) in scratch.staged.iter_mut().enumerate() {
        if frames.is_empty() {
            continue;
        }
        lock(&shared.sends[k].queue).append(frames);
        scratch.touched.push(k);
    }
}

/// Flushes the touched sockets' queues to the wire. Runs *without* the
/// core lock. The per-socket flush mutex serializes drains so wire order
/// matches queue order; the drain loop re-checks the queue after each
/// burst, so frames staged by another worker mid-flush are still sent by
/// whoever holds the mutex (or by their own blocking acquisition next).
fn flush_touched(shared: &Shared, sockets: &[Arc<UdpSocket>], touched: &[usize]) {
    let mut burst: Vec<(SocketAddr, Payload)> = Vec::new();
    for &k in touched {
        let shard = &shared.sends[k];
        let mut flusher = lock(&shard.flusher);
        loop {
            {
                let mut queue = lock(&shard.queue);
                std::mem::swap(&mut *queue, &mut burst);
            }
            if burst.is_empty() {
                break;
            }
            let sent = flusher.send_burst(&sockets[k], &burst);
            shared.stats.tx.fetch_add(sent, Ordering::Relaxed);
            burst.clear();
        }
    }
}

fn worker_loop(
    k: usize,
    shared: &Shared,
    sockets: &[Arc<UdpSocket>],
    epoch: Instant,
) -> std::io::Result<()> {
    let socket = &sockets[k];
    let fronts_k = &shared.fronts[k];
    let mut recv = RecvBatcher::new();
    let mut inbox: Vec<(SocketAddr, Payload)> = Vec::with_capacity(MAX_BATCH);
    let mut scratch = OutboundScratch::new(sockets.len());
    let mut armed: Option<Duration> = None;
    // Arm the initial wait before the first blocking read.
    let mut wait = MIN_WAIT;
    while !shared.stop.load(Ordering::Relaxed) {
        if armed != Some(wait) {
            socket.set_read_timeout(Some(wait))?;
            armed = Some(wait);
        }
        // One recvmmsg returns the first datagram plus the queue behind
        // it (or times out); the fallback path drains non-blocking.
        recv.recv_burst(socket, &mut inbox)?;
        shared
            .stats
            .rx
            .fetch_add(inbox.len() as u64, Ordering::Relaxed);

        // One lock for the whole burst: clock, injects, pump, staging.
        let next = {
            let mut core = lock(&shared.core);
            let now = SimTime::from_nanos(epoch.elapsed().as_nanos() as u64);
            core.live.run_until(now);
            for (from, payload) in inbox.drain(..) {
                let Some(remote) = core.remote_for(from) else {
                    continue;
                };
                let Some(target) = core.route_inbound(fronts_k, &payload) else {
                    shared.stats.unrouted.fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                core.live.inject(
                    Addr::new(remote, MOQT_PORT),
                    Addr::new(target, MOQT_PORT),
                    payload,
                );
            }
            core.live.run_until(now);
            stage_outbound(&mut core, shared, &mut scratch, k);
            core.live.next_event_at()
        };
        // Wire writes happen outside the lock; untouched sockets (and
        // entirely empty batches) cost nothing.
        flush_touched(shared, sockets, &scratch.touched);

        // Sleep until the next protocol deadline (bounded both ways).
        let now = epoch.elapsed();
        wait = next
            .map(|at| Duration::from_nanos(at.as_nanos()).saturating_sub(now))
            .unwrap_or(MAX_WAIT)
            .clamp(MIN_WAIT, MAX_WAIT);
    }
    Ok(())
}

/// Binds `workers` sockets to one `addr:port` via `SO_REUSEPORT`, so the
/// kernel shards inbound flows across them. With `workers == 1` this is a
/// plain bind. Returns the sockets plus the (single) bound address.
pub fn bind_sharded(addr: &str, workers: usize) -> std::io::Result<(Vec<UdpSocket>, SocketAddr)> {
    assert!(workers >= 1, "need at least one worker");
    if workers == 1 {
        let s = UdpSocket::bind(addr)?;
        let local = s.local_addr()?;
        return Ok((vec![s], local));
    }
    let first = bind_reuseport(addr)?;
    let local = first.local_addr()?;
    let mut sockets = vec![first];
    for _ in 1..workers {
        // Re-bind the *resolved* address: with an ephemeral request
        // (`:0`) every shard must land on the port the first bind got.
        sockets.push(bind_reuseport(&local.to_string())?);
    }
    Ok((sockets, local))
}

/// Binds a UDP socket with `SO_REUSEPORT` set before `bind` (std has no
/// API for this ordering, so the socket is created with raw syscalls and
/// then adopted). IPv4 only — the daemon's listeners are loopback/LAN
/// addresses.
#[cfg(target_os = "linux")]
fn bind_reuseport(addr: &str) -> std::io::Result<UdpSocket> {
    use std::os::fd::FromRawFd;

    let parsed: SocketAddr = addr
        .parse()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("{e}")))?;
    let SocketAddr::V4(v4) = parsed else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "SO_REUSEPORT sharding supports IPv4 listen addresses only",
        ));
    };

    const AF_INET: i32 = 2;
    const SOCK_DGRAM: i32 = 2;
    const SOCK_CLOEXEC: i32 = 0x80000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEPORT: i32 = 15;

    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        /// Network byte order.
        port: u16,
        /// Network byte order.
        addr: u32,
        zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn close(fd: i32) -> i32;
    }

    unsafe {
        let fd = socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let one: i32 = 1;
        if setsockopt(
            fd,
            SOL_SOCKET,
            SO_REUSEPORT,
            &one,
            std::mem::size_of::<i32>() as u32,
        ) != 0
        {
            let e = std::io::Error::last_os_error();
            close(fd);
            return Err(e);
        }
        let sa = SockaddrIn {
            family: AF_INET as u16,
            port: v4.port().to_be(),
            addr: u32::from(*v4.ip()).to_be(),
            zero: [0; 8],
        };
        if bind(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32) != 0 {
            let e = std::io::Error::last_os_error();
            close(fd);
            return Err(e);
        }
        Ok(UdpSocket::from_raw_fd(fd))
    }
}

#[cfg(not(target_os = "linux"))]
fn bind_reuseport(_addr: &str) -> std::io::Result<UdpSocket> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "SO_REUSEPORT sharding is implemented for Linux only; use --workers 1",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn reuseport_shards_share_one_port() {
        let (sockets, local) = bind_sharded("127.0.0.1:0", 3).expect("bind shards");
        assert_eq!(sockets.len(), 3);
        for s in &sockets {
            assert_eq!(s.local_addr().unwrap(), local);
        }
    }

    /// Panics on the first datagram it hears.
    struct Bomb;

    impl moqdns_netsim::Node for Bomb {
        fn on_datagram(&mut self, _: &mut moqdns_netsim::Ctx<'_>, _: Addr, _: u16, _: Payload) {
            panic!("bomb node went off (this panic is the test)");
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn as_any_ref(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn a_dead_worker_is_not_a_clean_drain() {
        let mut core = HostCore::new(1, true);
        let bomb = core.live().add_node("bomb", Box::new(Bomb));
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = socket.local_addr().unwrap();
        let host = LiveHost::start(core, vec![socket], vec![vec![bomb]]);
        assert!(!host.failed());

        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        peer.send_to(b"boom", addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !host.failed() {
            assert!(Instant::now() < deadline, "the worker's death went unseen");
            std::thread::sleep(Duration::from_millis(2));
        }
        // The control path still works (the poisoned lock is recovered)...
        host.with_core(|_| {});
        // ...and the drain says what happened.
        assert!(!host.stop(), "a panicked worker is an unclean drain");
    }

    #[test]
    fn single_worker_needs_no_reuseport() {
        let (sockets, local) = bind_sharded("127.0.0.1:0", 1).expect("bind");
        assert_eq!(sockets.len(), 1);
        assert_ne!(local.port(), 0);
    }
}
