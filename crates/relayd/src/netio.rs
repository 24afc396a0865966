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
use moqdns_netsim::{Addr, LiveRuntime, NodeId, OutboundDatagram, Payload, PeerNotice, SimTime};
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
///
/// # A remote learned on demand is kept while a connection sends to it
///
/// A daemon names every new source address a remote of its own
/// (`learn_remotes`), and a peer that dials from a fresh port every time
/// would grow its tables for good. So it counts, per learned remote, the
/// connections whose traffic goes to it, as its nodes tell it
/// ([`PeerNotice`]): one more for a connection held (dialed or accepted)
/// or moved to it — its peer spoke from a new address, as after a NAT
/// rebinding — one less for one moved away from it or reaped. Once the
/// count is back to zero after a burst, the remote's `by_addr`, `by_node`
/// and count entries go and the runtime takes the id back to name the
/// next new peer with ([`LiveRuntime::forget_remote`]): no connection
/// sends to it, so none can send to the next tenant by it. A learned
/// remote that no connection came of (a datagram nothing accepted) goes
/// after its burst the same way. A reaped connection's `dcid_owner` entry
/// goes with it. Remotes registered by the caller
/// ([`HostCore::register_remote`]: a relay's parent, a load generator's
/// server) are kept for good.
///
/// The count is per remote, not per connection: a connection costs the
/// core nothing, where a table from connection id to remote would cost
/// each of tens of thousands of held connections a map entry.
pub struct HostCore {
    live: LiveRuntime,
    /// Allocate remote ids for unknown senders on demand (a daemon
    /// accepts anyone; a load generator talks only to registered peers).
    learn_remotes: bool,
    by_addr: BTreeMap<SocketAddr, NodeId>,
    by_node: BTreeMap<u32, SocketAddr>,
    /// How many of the nodes' connections send to each learned remote
    /// (type docs); a registered remote has no entry.
    held: BTreeMap<u32, u32>,
    /// Learned remotes whose count may be zero after this burst: new ones
    /// and those a reap brought to zero.
    unheld: Vec<NodeId>,
    /// The runtime's notices, drained after every burst.
    notices: Vec<PeerNotice>,
    /// DCID → owning local node, learned from outbound datagrams. Only
    /// populated when some socket fronts more than one node.
    dcid_owner: BTreeMap<u64, NodeId>,
    /// Whether any socket needs DCID demux (set by [`LiveHost::start`]).
    demux: bool,
}

impl HostCore {
    /// A fresh core around an empty runtime.
    pub fn new(seed: u64, learn_remotes: bool) -> HostCore {
        let mut live = LiveRuntime::new(seed);
        live.keep_notices();
        HostCore {
            live,
            learn_remotes,
            by_addr: BTreeMap::new(),
            by_node: BTreeMap::new(),
            held: BTreeMap::new(),
            unheld: Vec::new(),
            notices: Vec::new(),
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
            None if self.learn_remotes => {
                let id = self.register_remote(peer);
                self.held.insert(id.index() as u32, 0);
                self.unheld.push(id);
                Some(id)
            }
            None => None,
        }
    }

    /// Runs a burst read off the socket that carries `fronts_k`'s
    /// traffic: the clock to `now`, every datagram injected from its
    /// remote (learned if new) into the node it is for, and the runtime
    /// run again at `now`, so the burst is one instant of its inbox
    /// phase. Returns how many datagrams no local node could be found for.
    fn take_in(
        &mut self,
        now: SimTime,
        fronts_k: &[NodeId],
        inbox: &mut Vec<(SocketAddr, Payload)>,
    ) -> u64 {
        let mut unrouted = 0;
        self.live.run_until(now);
        for (from, payload) in inbox.drain(..) {
            let Some(remote) = self.remote_for(from) else {
                continue;
            };
            let Some(target) = self.route_inbound(fronts_k, &payload) else {
                unrouted += 1;
                continue;
            };
            self.live.inject(
                Addr::new(remote, MOQT_PORT),
                Addr::new(target, MOQT_PORT),
                payload,
            );
        }
        self.live.run_until(now);
        unrouted
    }

    /// Drains the runtime's parked datagrams, in protocol order, handing
    /// each with its destination's address to `each` — one for a remote
    /// with no address is dropped — and learning the demux table from
    /// them; then settles the learned remotes (type docs). `parked` is
    /// the caller's scratch.
    fn take_out(
        &mut self,
        parked: &mut Vec<OutboundDatagram>,
        mut each: impl FnMut(OutboundDatagram, SocketAddr),
    ) {
        parked.clear();
        self.live.take_outbound_into(parked);
        for dg in parked.drain(..) {
            let Some(peer) = self.peer_of(dg.to.node) else {
                continue; // remote vanished (never registered); drop
            };
            if self.demux {
                // Learn the demux table from the first outbound flight:
                // the client transmits before the server can reply, so
                // the entry exists before any inbound datagram needs it.
                if let Some(dcid) = peek_dcid(&dg.payload) {
                    self.dcid_owner.entry(dcid).or_insert(dg.from.node);
                }
            }
            each(dg, peer);
        }
        self.settle_remotes();
    }

    /// Counts what the nodes said they keep with remotes since the last
    /// call, and lets go of every learned remote no connection sends to
    /// any more (type docs). Call with the burst's outbound datagrams
    /// staged: they were addressed by the remotes this lets go.
    fn settle_remotes(&mut self) {
        let mut notices = std::mem::take(&mut self.notices);
        self.live.take_notices_into(&mut notices);
        for notice in notices.drain(..) {
            match notice {
                PeerNotice::Held(peer) => self.recount(peer, true),
                PeerNotice::Moved { from, to } => {
                    self.recount(to, true);
                    self.recount(from, false);
                }
                PeerNotice::Released(peer, cid) => {
                    self.dcid_owner.remove(&cid);
                    self.recount(peer, false);
                }
            }
        }
        self.notices = notices;
        for peer in self.unheld.drain(..) {
            let index = peer.index() as u32;
            if self.held.get(&index) != Some(&0) {
                continue; // sent to again, or let go already
            }
            self.held.remove(&index);
            if let Some(addr) = self.by_node.remove(&index) {
                self.by_addr.remove(&addr);
            }
            self.live.forget_remote(peer);
        }
    }

    /// One connection more (`up`) or less sends to `peer`, if it is a
    /// learned remote; one brought to zero waits for the end of the burst.
    fn recount(&mut self, peer: NodeId, up: bool) {
        let Some(n) = self.held.get_mut(&(peer.index() as u32)) else {
            return; // registered: kept for good
        };
        if up {
            *n += 1;
            return;
        }
        debug_assert!(*n > 0, "{peer} let go by more connections than sent to it");
        *n = n.saturating_sub(1);
        if *n == 0 {
            self.unheld.push(peer);
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
    let staged = &mut scratch.staged;
    core.take_out(&mut scratch.parked, |dg, peer| {
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
        staged[egress].push((peer, dg.payload));
    });
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
            let unrouted = core.take_in(now, fronts_k, &mut inbox);
            shared.stats.unrouted.fetch_add(unrouted, Ordering::Relaxed);
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
    use moqdns_quic::{ConnHandle, Endpoint};

    #[cfg(target_os = "linux")]
    #[test]
    fn reuseport_shards_share_one_port() {
        let (sockets, local) = bind_sharded("127.0.0.1:0", 3).expect("bind shards");
        assert_eq!(sockets.len(), 3);
        for s in &sockets {
            assert_eq!(s.local_addr().unwrap(), local);
        }
    }

    /// A daemon's core fronting one `AuthServer`, and clients the test
    /// drives by hand, each an endpoint at a source address it may change.
    struct Daemon {
        core: HostCore,
        server: NodeId,
        clients: Vec<(SocketAddr, Endpoint<u8>)>,
        now: SimTime,
        /// Every datagram the daemon sent: where to, and its connection id.
        sent: Vec<(SocketAddr, u64)>,
    }

    /// The `i`th client source address.
    fn port(i: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], 20_000 + i))
    }

    impl Daemon {
        fn new() -> Daemon {
            use moqdns_core::AuthServer;
            use moqdns_dns::server::Authority;
            use moqdns_dns::zone::Zone;
            use moqdns_quic::TransportConfig;

            let mut core = HostCore::new(1, true);
            // The demux table is learned as a load generator's shared
            // socket learns it, so a reaped connection's entry must go too.
            core.demux = true;
            let zone = Zone::with_default_soa("example.com".parse().unwrap());
            let auth = AuthServer::new(Authority::single(zone), TransportConfig::default(), 7);
            let server = core.live().add_node("auth", Box::new(auth));
            Daemon {
                core,
                server,
                clients: Vec::new(),
                now: SimTime::ZERO,
                sent: Vec::new(),
            }
        }

        /// A client at `at` dialing the daemon.
        fn dial(&mut self, at: SocketAddr, seed: u64) -> ConnHandle {
            use moqdns_quic::{alpn_list, TransportConfig};
            let mut client = Endpoint::client(TransportConfig::default(), seed);
            let alpns = alpn_list(&[moqdns_moqt::MOQT_ALPN]);
            let h = client.connect(self.now, 0, alpns, false);
            self.clients.push((at, client));
            h
        }

        /// The daemon's datagrams, each to the client at its address now.
        fn deliver(&mut self) -> bool {
            let mut replies = Vec::new();
            self.core
                .take_out(&mut Vec::new(), |dg, to| replies.push((to, dg.payload)));
            for (to, dg) in &replies {
                self.sent
                    .push((*to, peek_dcid(dg).expect("a connection id")));
                if let Some((_, c)) = self.clients.iter_mut().find(|(at, _)| at == to) {
                    c.handle_datagram(self.now, 0, dg);
                }
            }
            !replies.is_empty()
        }

        /// Datagrams both ways until neither side has more to say.
        fn shuttle(&mut self) {
            for _ in 0..16 {
                self.now += Duration::from_millis(1);
                let mut inbox = Vec::new();
                for (at, c) in &mut self.clients {
                    while let Some((_, dg)) = c.poll_transmit(self.now) {
                        inbox.push((*at, dg));
                    }
                }
                let quiet = inbox.is_empty();
                let routed = self.core.take_in(self.now, &[self.server], &mut inbox);
                assert_eq!(routed, 0);
                if !self.deliver() && quiet {
                    return;
                }
            }
            panic!("the clients and the daemon never went quiet");
        }

        /// The daemon writes `data` on a stream of the one connection it
        /// holds from a client at `from`, and sends it.
        fn push(&mut self, from: NodeId, data: &[u8]) {
            use moqdns_core::stack::StackNode;
            use moqdns_core::AuthServer;
            use moqdns_quic::Dir;
            self.core
                .live()
                .with_node::<AuthServer, _>(self.server, |auth, ctx| {
                    let stack = auth.stack();
                    let held: Vec<ConnHandle> = stack.endpoint.apps().map(|(h, _)| h).collect();
                    let h = held
                        .into_iter()
                        .find(|&h| stack.endpoint.peer_of(h).map(|p| p.node) == Some(from))
                        .expect("a connection from the client");
                    let (_, conn) = stack.session_conn(h).expect("a session");
                    let id = conn.open_stream(Dir::Uni).expect("a stream");
                    conn.send_stream(id, data).expect("room");
                    conn.finish_stream(id).expect("finished");
                    auth.end_turn(ctx);
                });
            self.deliver();
        }
    }

    /// A thousand clients on as many source ports connect to a daemon's
    /// core and close again: every remote it learned is let go, with its
    /// demux entry, and the next client takes a freed id — one its
    /// previous tenant left no slot, ticket or demux entry under.
    #[test]
    fn a_closed_remote_leaves_the_tables_and_its_id_is_named_again() {
        use moqdns_core::stack::StackNode;
        use moqdns_core::AuthServer;

        let mut d = Daemon::new();
        let sizes = |c: &HostCore| (c.by_addr.len(), c.by_node.len(), c.dcid_owner.len());
        let start = sizes(&d.core);
        let handles: Vec<_> = (0..1_000)
            .map(|i| d.dial(port(i), 100 + u64::from(i)))
            .collect();
        d.shuttle();
        assert_eq!(d.core.by_addr.len(), 1_000, "one learned remote per client");
        assert_eq!(
            d.core.dcid_owner.len(),
            1_000,
            "one demux entry per connection"
        );
        let named: Vec<NodeId> = d.core.by_addr.values().copied().collect();
        for ((_, c), h) in d.clients.iter_mut().zip(&handles) {
            c.conn_mut(*h).expect("connected").close(0, "bye");
        }
        d.shuttle();
        assert_eq!(sizes(&d.core), start, "every remote let go");
        assert!(d.core.held.is_empty());
        d.core
            .live()
            .with_node::<AuthServer, _>(d.server, |auth, _| {
                let endpoint = &auth.stack().endpoint;
                assert_eq!(endpoint.connection_count(), 0, "no slot left");
                for id in &named {
                    let peer = Addr::new(*id, MOQT_PORT);
                    assert!(!endpoint.has_ticket(peer, moqdns_moqt::MOQT_ALPN));
                }
            });

        // The next client, on a port no one used, is named by a freed id.
        d.clients.clear();
        d.dial(port(5_000), 5_000);
        d.shuttle();
        let id = d.core.by_addr[&port(5_000)];
        assert!(named.contains(&id), "{id} is a new id");
        assert_eq!(
            (d.core.by_addr.len(), d.core.held[&(id.index() as u32)]),
            (1, 1)
        );
    }

    /// A client's NAT rebinds it to a new port mid-subscription, and the
    /// first it sends from there is an acknowledgement, which the daemon
    /// answers with nothing. Its connection now sends to the new port:
    /// that remote is kept, the old one let go, and a second client
    /// dialing next is named by the freed id — so the next push reaches
    /// the first client, and none of its datagrams reach the second.
    #[test]
    fn a_rebound_client_keeps_its_pushes_and_a_new_client_gets_none() {
        let mut d = Daemon::new();
        let first = d.dial(port(0), 100);
        d.shuttle();
        let old = d.core.by_addr[&port(0)];
        let cid = d.clients[0].1.conn_mut(first).expect("connected").cid();

        // A push the client hears at its old port; it acknowledges it
        // from the new one, and nothing comes back.
        d.push(old, b"one");
        d.clients[0].0 = port(1);
        let sent = d.sent.len();
        d.shuttle();
        assert_eq!(d.sent.len(), sent, "a bare acknowledgement goes unanswered");
        let new = d.core.by_addr[&port(1)];
        assert!(
            !d.core.by_addr.contains_key(&port(0)),
            "the old port let go"
        );
        assert_eq!(d.core.held[&(new.index() as u32)], 1);

        // A second client takes the freed id.
        d.dial(port(2), 200);
        d.shuttle();
        assert_eq!(d.core.by_addr[&port(2)], old, "the freed id named again");

        let sent = d.sent.len();
        d.push(new, b"two");
        d.shuttle();
        let pushed = &d.sent[sent..];
        assert!(pushed.iter().any(|&(to, c)| (to, c) == (port(1), cid)));
        assert!(
            pushed.iter().all(|&(to, c)| c != cid || to == port(1)),
            "{pushed:?}"
        );
        assert!(d.sent.iter().all(|&(to, c)| to != port(2) || c != cid));
        let mut got = Vec::new();
        while let Some((h, ev)) = d.clients[0].1.poll_event() {
            if let moqdns_quic::Event::StreamOpened { .. } = ev {
                got.push(h);
            }
        }
        assert_eq!(got, [first, first], "both pushes reached the first client");
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
