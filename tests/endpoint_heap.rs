//! The per-endpoint heap budget, measured with a byte-counting allocator.
//!
//! The paper's price for pub/sub DNS is endpoint state (§5.1); a relay
//! holds one `Connection` + `Session` per stub for as long as the stub
//! stays subscribed, and the stub holds the other half. These tests pin
//! how many heap bytes each side is, that the relay's share does not
//! depend on how many stubs there are, that the encode buffers belong
//! to the thread and not to the connection, and that
//! `state_size_estimate` — what the simulator's `*_state_bytes` gates
//! read — tells the truth about it.
//!
//! The allocator wraps `System` in this test binary only. Its counters
//! — live bytes and blocks, the glibc malloc chunks those blocks are,
//! and the live bytes' high-water mark — are thread-local so the tests,
//! which `cargo test` runs on parallel threads, do not see each other;
//! every world here is single-threaded. A process's resident set follows
//! chunks, not bytes: a block is a chunk of its size plus an 8-byte
//! header, rounded up to 16 bytes, and never under 32 ([`chunk`]).

use moqdns::core::auth::AuthServer;
use moqdns::core::relay_node::RelayNode;
use moqdns::core::stack::{MoqtStack, StackNode};
use moqdns::core::stub::{StubMode, StubResolver};
use moqdns::core::MOQT_PORT;
use moqdns::dns::message::Question;
use moqdns::dns::name::Name;
use moqdns::dns::rdata::RData;
use moqdns::dns::rr::{Record, RecordType};
use moqdns::dns::server::Authority;
use moqdns::dns::zone::Zone;
use moqdns::moqt::data::Object;
use moqdns::moqt::relay::RelayCore;
use moqdns::moqt::session::{Session, SessionConfig, SessionEvent};
use moqdns::moqt::track::FullTrackName;
use moqdns::netsim::{Addr, LinkConfig, NodeId, SimTime, Simulator};
use moqdns::quic::frame::Frame;
use moqdns::quic::packet::decode_datagram_payload;
use moqdns::quic::streams::{Dir, StreamId};
use moqdns::quic::{alpn_list, AlpnList, Connection, Side, TransportConfig};
use moqdns::wire::pool::scratch_retained;
use moqdns::workload::scenarios::MetroScenario;
use moqdns_bench::worlds::{MetroWorld, TreeStub};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Blocks this thread has allocated and not yet freed.
    static LIVE_BLOCKS: Cell<isize> = const { Cell::new(0) };
    /// The glibc malloc chunk bytes of those blocks.
    static LIVE_CHUNKS: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`reset_peak`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

struct ByteCounting;

/// The glibc malloc chunk a block of `size` bytes takes: the block and an
/// 8-byte header, rounded up to 16 bytes, at least 32.
fn chunk(size: usize) -> isize {
    ((size + 8 + 15) & !15).max(32) as isize
}

fn account(bytes: isize, blocks: isize, chunks: isize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down, when the counters are no longer there to update.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    let _ = LIVE_BLOCKS.try_with(|live| live.set(live.get() + blocks));
    let _ = LIVE_CHUNKS.try_with(|live| live.set(live.get() + chunks));
}

/// Starts a new high-water mark at the bytes live now; returns them.
fn reset_peak() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

/// The most bytes live since the last [`reset_peak`].
fn peak() -> isize {
    PEAK.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// that publish no other data.
unsafe impl GlobalAlloc for ByteCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as isize, 1, chunk(layout.size()));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as isize), -1, -chunk(layout.size()));
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as isize, 1, chunk(layout.size()));
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let (old, new) = (layout.size(), new_size);
        account(new as isize - old as isize, 0, chunk(new) - chunk(old));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: ByteCounting = ByteCounting;

/// What dropping a value gives back.
#[derive(Debug, Clone, Copy)]
struct Freed {
    /// Heap bytes.
    bytes: usize,
    /// Heap blocks.
    blocks: usize,
    /// The glibc malloc chunk bytes of those blocks ([`chunk`]).
    chunks: usize,
}

/// The heap `value` owns: what dropping it gives back.
fn freed_by<T>(value: T) -> Freed {
    let counters = [&LIVE, &LIVE_BLOCKS, &LIVE_CHUNKS];
    let before = counters.map(|c| c.with(Cell::get));
    drop(value);
    let [bytes, blocks, chunks] = [0, 1, 2].map(|i| {
        let is = counters[i].with(Cell::get);
        usize::try_from(before[i] - is).expect("a drop frees, never allocates")
    });
    Freed {
        bytes,
        blocks,
        chunks,
    }
}

/// Heap bytes `value` owns.
fn heap_of<T>(value: T) -> usize {
    freed_by(value).bytes
}

fn question() -> Question {
    Question::new("www.example.com".parse().unwrap(), RecordType::A)
}

/// An auth serving an A record for each of `names` and a relay in front
/// of it, over zero-delay links.
struct World {
    sim: Simulator,
    auth: NodeId,
    upstream: Addr,
    relay: NodeId,
}

impl World {
    fn new(names: &[Name]) -> World {
        let mut sim = Simulator::new(12);
        sim.set_default_link(LinkConfig::with_delay(Duration::ZERO));
        let mut zone = Zone::with_default_soa("example.com".parse().unwrap());
        for name in names {
            zone.add_record(Record::new(
                name.clone(),
                300,
                RData::A("192.0.2.1".parse().unwrap()),
            ));
        }
        let transport = TransportConfig::default()
            .idle_timeout(Duration::from_secs(3600))
            .keep_alive(Duration::from_secs(25));
        let auth = sim.add_node(
            "auth",
            Box::new(AuthServer::new(Authority::single(zone), transport, 1)),
        );
        let upstream = Addr::new(auth, MOQT_PORT);
        let relay = sim.add_node("relay", Box::new(RelayNode::new(upstream, 0, 2)));
        World {
            sim,
            auth,
            upstream,
            relay,
        }
    }

    /// Gives `name` a new address at the auth, which pushes it to its
    /// subscribers, and lets the push and its acknowledgements land.
    fn update(&mut self, name: &Name, octet: u8) {
        self.sim.with_node::<AuthServer, _>(self.auth, |a, ctx| {
            a.update_zone(ctx, |authority| {
                let zone = authority
                    .find_zone_mut(&"example.com".parse().unwrap())
                    .expect("the zone");
                let record = Record::new(name.clone(), 300, RData::A([192, 0, 2, octet].into()));
                zone.set_records(name, RecordType::A, vec![record]);
            });
        });
        self.sim.run_for(Duration::from_millis(1));
    }

    /// Where stubs dial.
    fn server(&self) -> Addr {
        Addr::new(self.relay, MOQT_PORT)
    }

    /// Takes the relay out of the simulator.
    fn take_relay(&mut self) -> RelayNode {
        let upstream = self.upstream;
        self.sim.with_node::<RelayNode, _>(self.relay, |r, _| {
            std::mem::replace(r, RelayNode::new(upstream, 0, 2))
        })
    }
}

/// Auth → relay ← `stubs` stubs, every stub subscribed to one name
/// (SUBSCRIBE + joining FETCH, answered) and the world idle. Returns the
/// relay and the last stub, taken out of the simulator.
fn relay_serving(stubs: usize) -> (RelayNode, StubResolver) {
    let mut w = World::new(&[question().qname]);
    let server = w.server();
    let mut last = None;
    for i in 0..stubs {
        let stub = w.sim.add_node(
            format!("stub{i}"),
            Box::new(StubResolver::new(StubMode::Moqt, server, 1000 + i as u64)),
        );
        // Links are zero-delay: a millisecond settles everything in
        // flight and is far below any protocol timer.
        w.sim.run_for(Duration::from_millis(1));
        w.sim
            .with_node::<StubResolver, _>(stub, |s, ctx| s.lookup(ctx, question()));
        w.sim.run_for(Duration::from_millis(1));
        let s = w.sim.node_ref::<StubResolver>(stub);
        assert!(s.metrics.lookups.last().is_some_and(|l| l.ok), "join {i}");
        last = Some(stub);
    }
    // One session per stub plus the uplink to the auth.
    assert_eq!(
        w.sim.node_ref::<RelayNode>(w.relay).session_count(),
        stubs + 1
    );
    let stub = w
        .sim
        .with_node::<StubResolver, _>(last.expect("a stub"), |s, _| {
            std::mem::replace(s, StubResolver::new(StubMode::Moqt, server, 1))
        });
    (w.take_relay(), stub)
}

/// The metro shape: auth → relay ← `stubs` bench `TreeStub`s, each
/// subscribed to the same eight names with joining fetches, then
/// `rounds` update rounds (every name once, pushed to every stub), the
/// world idle. Returns the relay and the last stub.
fn metro_relay_serving(stubs: usize, rounds: usize) -> (RelayNode, TreeStub) {
    const TRACKS: usize = 8;
    let names: Vec<Name> = (0..TRACKS)
        .map(|i| format!("t{i}.example.com").parse().unwrap())
        .collect();
    let mut w = World::new(&names);
    let server = w.server();
    let questions: Vec<Question> = names
        .iter()
        .map(|n| Question::new(n.clone(), RecordType::A))
        .collect();
    let mut last = None;
    for i in 0..stubs {
        let stub = TreeStub::new(server, questions.clone(), 1000 + i as u64);
        last = Some(w.sim.add_node(format!("stub{i}"), Box::new(stub)));
        w.sim.run_for(Duration::from_millis(1));
    }
    w.sim.run_for(Duration::from_millis(1));
    let last = last.expect("a stub");
    assert_eq!(w.sim.node_ref::<TreeStub>(last).fetched, TRACKS as u64);
    let node = w.sim.node_ref::<RelayNode>(w.relay);
    assert_eq!(node.session_count(), stubs + 1);
    assert_eq!(node.stats().downstream_subscribes, (stubs * TRACKS) as u64);
    for round in 0..rounds {
        for name in &names {
            w.update(name, 2u8.wrapping_add(round as u8));
        }
    }
    let pushed = (rounds * TRACKS) as u64;
    assert_eq!(w.sim.node_ref::<TreeStub>(last).updates, pushed);
    let stub = w.sim.with_node::<TreeStub, _>(last, |s, _| {
        std::mem::replace(s, TreeStub::new(server, Vec::new(), 1))
    });
    (w.take_relay(), stub)
}

#[test]
fn metro_endpoint_pair_is_within_budget() {
    // 1.15x what the pair reads (1,536 B in 21 blocks; 1,008 B in 2) since
    // a held endpoint's slot is 440 B; 1,592 B and 1,064 B while it was
    // 496 B. 1,648 B in 22 blocks and 1,120 B in 3 while the control
    // stream's offsets were a block of their own.
    // While the stub's endpoint indexed its connection in two B-tree
    // leaves, kept a private copy of the transport config and four slots
    // of transmit queue for its one connection, it read 2,016 B in 23
    // blocks and 1,122 B in 3. While a connection kept its creation time,
    // it read 2,024 B in 23 blocks and 1,130 B in 3 (2,040 B in 24 when
    // first held at 1.15x).
    // While a connection and its session were two boxes, the estimator's
    // times `Duration`s and the absent values `Option`s, it read 2,168 B
    // in 26 blocks and 1,242 B in 4.
    // While an idle control stream kept both halves' buffers and offsets
    // in its 216-byte entry instead of 48, it read 2,328 B and 1,402 B.
    // While a connection and a session kept the empty headers of what
    // only an exchange fills — queues, sets, stream tables, the packet
    // ledger — instead of one in-flight record, it read 2,864 B in 29
    // blocks and 1,818 B in 4.
    // While each connection kept its own copy of the transport config and
    // its handshake state, a peer's subscriptions were a B-tree of boxes,
    // and the ledger, the control stream's send storage and the control
    // bytes kept what their last exchange left them, it read 3,182 B in 36
    // blocks and 2,562 B in 20. While the stream tables kept the 16-slot
    // floor a join left them,
    // holding one entry, and each subscription of the stub's session
    // kept its own copy of its track name, it read 5,238 B in 46 blocks
    // and 4,570 B in 21. While the endpoint's event queue and the
    // connection's readable set kept a join burst's storage, a drained
    // retransmit list kept its ranges' and a gapless run of packet
    // numbers took a B-tree leaf, 7,566 B in 50 blocks and 5,122 B in
    // 24. While a name was a `Vec` per label and per namespace element —
    // five blocks a track name, one set per subscriber at the relay — the
    // stub held 9,126 B in 106 blocks and the relay 6,433 B in 65 for it.
    const STUB_BUDGET: (usize, usize) = (1_767, 26);
    const RELAY_BUDGET: (usize, usize) = (1_160, 4);
    let Freed {
        bytes: stub_bytes,
        blocks: stub_blocks,
        ..
    } = freed_by(metro_relay_serving(1, 0).1);
    // The stub's whole stack — endpoint, connection, session — against
    // what its `state_size_estimate` says it is.
    let mut stub = metro_relay_serving(1, 0).1;
    let stack = std::mem::replace(
        stub.stack(),
        MoqtStack::client(TransportConfig::default(), 1),
    );
    let estimate = stack.state_size_estimate();
    let held = heap_of(stack);
    let ratio = estimate as f64 / held as f64;
    println!("metro stub stack: estimate {estimate} B, allocator {held} B");
    assert!(
        (0.9..=1.1).contains(&ratio),
        "stub stack estimate {estimate} B vs {held} B held ({ratio:.2}x)"
    );
    // What one more stub costs the relay: the eight tracks, their cache
    // and the uplink are there at 32 stubs as at 64.
    let at_32 = freed_by(metro_relay_serving(32, 0).0);
    let relay = metro_relay_serving(64, 0).0;
    let estimate = relay.state_size_estimate();
    let at_64 = freed_by(relay);
    // 512 subscriptions share eight name buffers with the track table;
    // the estimator charges each buffer once, across its holders.
    let ratio = estimate as f64 / at_64.bytes as f64;
    println!(
        "64-stub metro relay: estimate {estimate} B, allocator {} B",
        at_64.bytes
    );
    assert!(
        (0.9..=1.1).contains(&ratio),
        "relay estimate {estimate} B vs {} B held ({ratio:.2}x)",
        at_64.bytes
    );
    let (relay_bytes, relay_blocks) = (
        (at_64.bytes - at_32.bytes) / 32,
        (at_64.blocks - at_32.blocks) / 32,
    );
    println!(
        "metro stub (8 subscriptions): {stub_bytes} B in {stub_blocks} blocks; \
         its relay-side endpoint: {relay_bytes} B in {relay_blocks} blocks"
    );
    assert!(
        stub_bytes <= STUB_BUDGET.0 && stub_blocks <= STUB_BUDGET.1,
        "a metro stub holds {stub_bytes} B in {stub_blocks} blocks, over {STUB_BUDGET:?}"
    );
    assert!(
        relay_bytes <= RELAY_BUDGET.0 && relay_blocks <= RELAY_BUDGET.1,
        "its relay side holds {relay_bytes} B in {relay_blocks} blocks, over {RELAY_BUDGET:?}"
    );
}

#[test]
fn held_subscription_is_flat_across_pushes() {
    // What the paper trades TTL expiry for: a subscription that is held
    // and only listens. Eight rounds of eight pushes, far inside the
    // 25 s keep-alive, so nothing the stub sends is ever acknowledged:
    // all it sends is ACKs. Ledgered, those 64 packets were 7 KB here.
    let joined = heap_of(metro_relay_serving(1, 0).1);
    let (mut relay, mut stub) = metro_relay_serving(1, 8);
    // The relay's uplink only listens too, and its pushes are acked.
    let tracked: Vec<usize> = [stub.stack(), relay.stack()]
        .iter()
        .flat_map(|stack| stack.state_breakdown().1)
        .map(|(_, _, _, _, tracked)| tracked)
        .collect();
    let held = heap_of(stub);
    println!(
        "metro stub heap bytes: {joined} joined, {held} after 64 pushes; \
         packets tracked (the stub's connection, the relay's two): {tracked:?}"
    );
    assert!(
        held.abs_diff(joined) <= 256,
        "a stub that only listened went from {joined} B to {held} B"
    );
    assert_eq!(tracked, [0, 0, 0]);
}

#[test]
fn a_relay_holds_one_version_per_track_however_many_rounds() {
    // Eight names pushed 1,000 times each through a relay built as the
    // relay worlds build theirs. While a relay kept every version it had
    // carried, each round added eight cached objects to its heap.
    const ROUNDS: usize = 1_000;
    let at_fifth = heap_of(metro_relay_serving(1, ROUNDS / 5).0);
    let at_end = heap_of(metro_relay_serving(1, ROUNDS).0);
    println!(
        "relay heap bytes: {at_fifth} after {} rounds, {at_end} after {ROUNDS}",
        ROUNDS / 5
    );
    assert_eq!(at_fifth, at_end, "the relay's heap grew with the rounds");
}

#[test]
fn relay_heap_per_endpoint_is_within_budget_and_flat() {
    // 1.15x what it reads (525 B in 1.07 blocks, 534 B of chunks at 256
    // stubs: a held endpoint is one 448-B chunk; 581 B and 598 B of chunks
    // while its slot kept a word for its dirty flag, its session's
    // counters, its ALPN and transport config handles and its ACK flag in
    // a 512-B chunk; 685 B in 3.08 blocks while the control stream's offsets and
    // the session's one subscription were each a block of their own and a
    // connection kept traffic counters; 706 B in 3.41 while the
    // endpoint's demux and deadline indexes were B-trees; 714 B
    // while a connection kept its creation time; 827 B in 4.42 while a
    // connection and its session were two boxes in two slabs
    // indexed by the same handle, the estimator's times were `Duration`s
    // and the absent values `Option`s; 987 B while an idle
    // control stream kept both halves' buffers in its table entry; 1,406 B
    // while a connection and a session kept the empty headers of their in-flight
    // queues and tables instead of one in-flight record; 2,129 B while each
    // connection kept its own transport config, its handshake state and
    // what its last exchange left its ledger and control stream, and a
    // peer's subscriptions were a B-tree of boxes; 2,234 B while the send
    // table kept the slots of the join's streams, 2,387 B while a
    // connection's retransmit lists and ACK ranges kept a join's storage).
    // Each block is a malloc chunk, with its 8-16 B of overhead that no
    // byte count sees: what a held endpoint is made of is gated too, and
    // so are the chunks, which are what the relay's resident set follows.
    const BUDGET: f64 = 604.0;
    const BLOCKS: f64 = 1.24;
    const CHUNKS: f64 = 615.0;
    let per_endpoint = |stubs: usize| {
        let freed = freed_by(relay_serving(stubs).0);
        let per = |n: usize| n as f64 / stubs as f64;
        (per(freed.bytes), per(freed.blocks), per(freed.chunks))
    };
    let (at_256, blocks_256, chunks_256) = per_endpoint(256);
    let (at_1024, blocks_1024, chunks_1024) = per_endpoint(1024);
    println!(
        "relay heap per endpoint: {at_256:.0} B in {blocks_256:.3} blocks ({chunks_256:.0} B of \
         chunks) at 256 stubs, {at_1024:.0} B in {blocks_1024:.3} ({chunks_1024:.0} B) at 1024"
    );
    assert!(
        at_256 <= BUDGET && at_1024 <= BUDGET,
        "over the {BUDGET} B budget: {at_256:.0} B at 256 stubs, {at_1024:.0} B at 1024"
    );
    assert!(
        blocks_256 <= BLOCKS && blocks_1024 <= BLOCKS,
        "over {BLOCKS} blocks: {blocks_256:.2} at 256 stubs, {blocks_1024:.2} at 1024"
    );
    assert!(
        chunks_256 <= CHUNKS && chunks_1024 <= CHUNKS,
        "over {CHUNKS} B of chunks: {chunks_256:.0} B at 256 stubs, {chunks_1024:.0} B at 1024"
    );
    let drift = (at_1024 / at_256 - 1.0).abs();
    assert!(
        drift <= 0.05,
        "per-endpoint bytes move with N: {at_256:.0} at 256, {at_1024:.0} at 1024"
    );
    // 1,280 connections encoded on this thread; the buffers they used
    // are the thread's, and there are a pool's worth of them.
    let retained = scratch_retained();
    assert!(
        (1..=8).contains(&retained),
        "scratch pool retains {retained} buffers"
    );
}

#[test]
fn joined_stub_heap_is_within_budget() {
    // 1.15x what a stub that has joined one name reads (1,744 B; 1,800 B
    // while its slot was 496 B, 1,856 B while its control stream's offsets
    // were a block of their own):
    // one connection slot, one session, tables of one entry. 2,240 B while
    // its endpoint indexed the connection in two B-tree leaves and kept a
    // private transport config and four slots of transmit queue;
    // 2,248 B while
    // its connection kept its creation time (2,392 B when first held at
    // 1.15x); 2,552 B while
    // its idle control stream kept both halves' buffers in its table
    // entry; 3,032 B while
    // its connection and session kept the empty headers of their
    // in-flight queues and tables instead of one in-flight record; 3,473 B while
    // its connection kept its own transport config and handshake state
    // and the storage of its last exchange; 3,625 B while
    // its receive table and its subscription's own name copy stayed;
    // 3,985 B while its event queues, retransmit lists and ACK ranges
    // kept the join's storage; the endpoint's and the stack's own B-trees
    // made it 18,738 B.
    const BUDGET: usize = 2_006;
    let held = heap_of(relay_serving(1).1);
    println!("joined stub heap bytes: {held}");
    assert!(
        held <= BUDGET,
        "a joined stub holds {held} B, over {BUDGET}"
    );

    // Nothing is sized ahead: no dial, no table, no queue record — and
    // the transport config it holds from construction is a place in the
    // process's table, no block at all. It reads 0 B.
    let idle = heap_of(MoqtStack::client(TransportConfig::default(), 1));
    println!("idle stack heap bytes: {idle}");
    assert!(idle <= 16, "a stack that never connected holds {idle} B");
}

/// A 60-byte object of group 17, what the relay side answers and pushes.
fn object() -> Object {
    object_of(60)
}

/// An object of group 17 with a `len`-byte payload.
fn object_of(len: usize) -> Object {
    Object {
        group_id: 17,
        object_id: 0,
        payload: vec![0xAB; len].into(),
    }
}

/// One stub's endpoint and its relay side, driven by hand: the relay side
/// accepts every SUBSCRIBE and answers every FETCH with [`object`].
struct HandDriven {
    c_conn: Connection,
    s_conn: Connection,
    client: Session,
    server: Session,
    now: SimTime,
    /// The peer's subscriptions at the relay side.
    subscriptions: Vec<u64>,
    /// FETCHes the relay side answered.
    fetches: usize,
}

/// The block of `cfg` and the ALPN list a hand-driven pair shares, kept
/// for the thread's life as the endpoint keeps its list: a connection
/// measured here is never the last holder of either, as no connection in
/// an endpoint is.
fn shared(cfg: TransportConfig) -> (Arc<TransportConfig>, AlpnList) {
    thread_local! {
        static KEPT: RefCell<Vec<(Arc<TransportConfig>, AlpnList)>> =
            const { RefCell::new(Vec::new()) };
    }
    KEPT.with_borrow_mut(|kept| {
        if let Some(held) = kept.iter().find(|(c, _)| **c == cfg) {
            return held.clone();
        }
        let held = (Arc::new(cfg), alpn_list(&[moqdns::moqt::MOQT_ALPN]));
        kept.push(held.clone());
        held
    })
}

impl HandDriven {
    /// Handshake, SETUP, `tracks` SUBSCRIBEs accepted, their joining
    /// FETCHes answered, everything acked.
    fn joined(tracks: usize, cfg: TransportConfig) -> HandDriven {
        let (cfg, alpn) = shared(cfg);
        let t0 = SimTime::ZERO;
        let mut h = HandDriven {
            c_conn: Connection::client(7, Arc::clone(&cfg), alpn.clone(), None, t0),
            s_conn: Connection::server(7, cfg, alpn, 9, t0),
            client: Session::client(SessionConfig::default()),
            server: Session::server(SessionConfig::default()),
            now: t0,
            subscriptions: Vec::new(),
            fetches: 0,
        };
        h.client.start(&mut h.c_conn);
        for i in 0..tracks {
            let track = FullTrackName::new(
                vec![vec![0x01], vec![0x00, 0x01], vec![0x00, 0x01]],
                format!("\x02t{i}\x07example\x03com\x00").into_bytes(),
            )
            .unwrap();
            h.client
                .subscribe_with_joining_fetch(&mut h.c_conn, track, 1);
        }
        h.run();
        assert!(h.s_conn.is_established() && h.server.is_ready());
        assert_eq!(h.server.peer_subscription_count(), tracks);
        h
    }

    /// Carries datagrams and events both ways until neither side moves.
    fn run(&mut self) {
        loop {
            let mut moved = false;
            while let Some(d) = self.c_conn.poll_transmit(self.now) {
                moved = true;
                self.s_conn.handle_datagram(self.now, &d);
            }
            while let Some(d) = self.s_conn.poll_transmit(self.now) {
                moved = true;
                self.c_conn.handle_datagram(self.now, &d);
            }
            moved |= self.react();
            self.now += Duration::from_micros(10);
            if !moved {
                break;
            }
        }
    }

    /// Both sessions take their connections' events; the relay side
    /// answers what it was asked. True if it had anything to answer.
    fn react(&mut self) -> bool {
        let mut moved = false;
        while let Some(ev) = self.c_conn.poll_event() {
            self.client.on_conn_event(&mut self.c_conn, &ev);
        }
        while let Some(ev) = self.s_conn.poll_event() {
            self.server.on_conn_event(&mut self.s_conn, &ev);
        }
        while let Some(ev) = self.server.poll_event() {
            moved = true;
            match ev {
                SessionEvent::IncomingSubscribe { request_id, .. } => {
                    self.server
                        .accept_subscribe(&mut self.s_conn, request_id, Some((17, 0)));
                    self.subscriptions.push(request_id);
                }
                SessionEvent::IncomingFetch { request_id, .. } => {
                    let objects = vec![object()];
                    self.server
                        .respond_fetch(&mut self.s_conn, request_id, (17, 0), objects);
                    self.fetches += 1;
                }
                _ => {}
            }
        }
        while self.client.poll_event().is_some() {}
        moved
    }

    /// Runs, firing the connections' loss and probe timers, until no
    /// packet is left in flight either way.
    fn run_to_quiet(&mut self) {
        for _ in 0..100 {
            self.run();
            if self.c_conn.state_breakdown().2 + self.s_conn.state_breakdown().2 == 0 {
                return;
            }
            let due = [self.c_conn.poll_timeout(), self.s_conn.poll_timeout()];
            self.now = due
                .into_iter()
                .flatten()
                .min()
                .expect("a timer")
                .max(self.now);
            self.c_conn.handle_timeout(self.now);
            self.s_conn.handle_timeout(self.now);
        }
        panic!("the endpoint pair never went quiet");
    }

    /// Pushes one object on the first subscription; false if it did not
    /// go out.
    fn push(&mut self) -> bool {
        let request_id = self.subscriptions[0];
        self.server.publish(&mut self.s_conn, request_id, object())
    }
}

/// The relay-side half of one stub's endpoint, driven by hand: handshake,
/// SETUP, `tracks` SUBSCRIBEs accepted, their joining FETCHes answered,
/// everything acked. Returns the endpoint and the peer's subscriptions.
fn idle_relay_side_endpoint(tracks: usize) -> (Connection, Session, Vec<u64>) {
    let h = HandDriven::joined(tracks, TransportConfig::default());
    (h.s_conn, h.server, h.subscriptions)
}

/// What a held relay-side endpoint can have been through since its join.
#[derive(Debug, Clone, Copy)]
enum Since {
    Join,
    KeepAlive,
    AckedPush,
    /// A keep-alive, then 64 FETCHes in one burst, answered in one burst
    /// on the relay side's control stream (and 64 data streams): the
    /// answer's first datagram lost and resent, the next two delivered in
    /// reverse order.
    ControlBurst,
}

/// A held relay-side endpoint after `since`, on a keep-alive transport;
/// asserts it holds no in-flight record.
fn held_relay_side(since: Since) -> (Connection, Session) {
    let cfg = TransportConfig::default()
        .idle_timeout(Duration::from_secs(3600))
        .keep_alive(Duration::from_secs(25));
    let mut h = HandDriven::joined(1, cfg);
    match since {
        Since::Join => {}
        Since::KeepAlive => {
            h.now += Duration::from_secs(25);
            h.s_conn.handle_timeout(h.now);
            h.c_conn.handle_timeout(h.now);
            // `run`'s first round, watching what the relay side sends.
            while let Some(d) = h.c_conn.poll_transmit(h.now) {
                h.s_conn.handle_datagram(h.now, &d);
            }
            let mut pinged = false;
            while let Some(d) = h.s_conn.poll_transmit(h.now) {
                let packets = decode_datagram_payload(&d).unwrap();
                pinged |= packets
                    .packets()
                    .flat_map(|p| p.frames())
                    .any(|f| matches!(f, Frame::Ping));
                h.c_conn.handle_datagram(h.now, &d);
            }
            assert!(pinged, "the relay side pinged");
            h.run();
        }
        Since::AckedPush => {
            assert!(h.push());
            h.run();
        }
        Since::ControlBurst => {
            h.now += Duration::from_secs(25);
            h.s_conn.handle_timeout(h.now);
            h.c_conn.handle_timeout(h.now);
            h.run();
            let track = FullTrackName::new(
                vec![vec![0x01], vec![0x00, 0x01], vec![0x00, 0x01]],
                b"\x02t0\x07example\x03com\x00".to_vec(),
            )
            .unwrap();
            let answered = h.fetches;
            for _ in 0..64 {
                h.client.fetch(&mut h.c_conn, track.clone(), 17, 17);
            }
            while let Some(d) = h.c_conn.poll_transmit(h.now) {
                h.s_conn.handle_datagram(h.now, &d);
            }
            h.react();
            let mut answer: Vec<_> = std::iter::from_fn(|| h.s_conn.poll_transmit(h.now)).collect();
            assert!(
                answer.len() >= 3,
                "the answer fills {} datagrams",
                answer.len()
            );
            let lost = answer.remove(0);
            let control = StreamId::new(true, Dir::Bi, 0);
            let packets = decode_datagram_payload(&lost).unwrap();
            assert!(
                packets
                    .packets()
                    .flat_map(|p| p.frames())
                    .any(|f| matches!(f, Frame::Stream { id, .. } if id == control)),
                "the lost datagram carries control messages"
            );
            answer.swap(0, 1);
            for d in &answer {
                h.c_conn.handle_datagram(h.now, d);
            }
            h.run_to_quiet();
            assert_eq!(
                h.fetches - answered,
                64,
                "every FETCH arrived, the lost ones resent"
            );
        }
    }
    assert_eq!(
        h.s_conn.state_breakdown(),
        (1, 1, 0),
        "{since:?}: all acked"
    );
    assert!(
        !h.s_conn.holds_in_flight_record() && !h.server.holds_in_flight_record(),
        "{since:?}: a held endpoint holds no in-flight record"
    );
    (h.s_conn, h.server)
}

#[test]
fn a_held_endpoint_is_its_counters_whatever_it_carried() {
    // What a relay holds per subscriber between exchanges: after the
    // join, after a keep-alive PING and its ACK, after an acknowledged
    // push, after a burst of control messages with a loss and a
    // reordering — the same heap, to the byte, and no in-flight record:
    // the control stream back to its offsets. It reads 144 B: 272 B while
    // the connection was the last holder of its transport config and ALPN
    // token, as no connection in an endpoint is, and 440 B while an idle
    // control stream kept both halves' buffers and offsets in a 216-byte
    // entry.
    let joined = heap_of(held_relay_side(Since::Join));
    for since in [Since::KeepAlive, Since::AckedPush, Since::ControlBurst] {
        let held = heap_of(held_relay_side(since));
        assert_eq!(held, joined, "after {since:?}");
    }
    println!("held relay-side endpoint: {joined} B of heap");

    // A fan-out wider than the thread keeps spares for: every server
    // connection holds a record at once, and once all is acknowledged
    // the thread keeps no more than its cap.
    let cap = moqdns::wire::queue::SPARE_RECORDS;
    let spares = || Connection::spare_records(Side::Server);
    let mut pairs: Vec<HandDriven> = (0..cap + 8)
        .map(|_| HandDriven::joined(1, TransportConfig::default()))
        .collect();
    assert!(spares() <= cap);
    let pushes: Vec<_> = pairs
        .iter_mut()
        .map(|h| {
            assert!(h.push());
            let push = h.s_conn.poll_transmit(h.now).expect("the push");
            assert!(h.s_conn.holds_in_flight_record());
            push
        })
        .collect();
    assert_eq!(spares(), 0, "every spare is in flight");
    for (h, push) in pairs.iter_mut().zip(pushes) {
        h.c_conn.handle_datagram(h.now, &push);
        h.run();
        assert!(!h.s_conn.holds_in_flight_record());
        assert!(spares() <= cap);
    }
    assert_eq!(spares(), cap, "the records past the cap were dropped");
}

#[test]
fn state_size_estimate_matches_the_allocator() {
    // Idle, with a push sent and not acknowledged, and with control
    // messages sent and not acknowledged: the in-flight record and what
    // it holds — the control stream's halves among it — are counted while
    // it is held. A push's stream holds its object by reference, and is
    // charged its share of the object's block, as every shared payload
    // is (`Payload::heap_bytes`): all of it when the stream is its only
    // holder, half when a cache holds it too — so the holders' estimates
    // sum to the block, once.
    for in_flight in [
        "nothing",
        "a push",
        "a cached object's push",
        "control bytes",
    ] {
        let (mut conn, mut session, subscriptions) = idle_relay_side_endpoint(1);
        let cached = (in_flight == "a cached object's push").then(object);
        match (in_flight, &cached) {
            ("a push", _) => assert!(session.publish(&mut conn, subscriptions[0], object())),
            (_, Some(cached)) => {
                assert!(session.publish(&mut conn, subscriptions[0], cached.clone()))
            }
            ("control bytes", _) => {
                for _ in 0..8 {
                    session.reject_fetch(&mut conn, 1_000, 0x5, "not here");
                }
            }
            _ => {}
        }
        if in_flight != "nothing" {
            assert!(conn.poll_transmit(SimTime::from_secs(1)).is_some());
            assert!(conn.holds_in_flight_record());
        }
        let estimate = conn.state_size_estimate()
            + session.state_size_estimate()
            + cached.as_ref().map_or(0, |c| c.payload.heap_bytes());
        let structs = std::mem::size_of::<Connection>() + std::mem::size_of::<Session>();
        let measured = structs + heap_of((conn, session)) + heap_of(cached);
        println!(
            "relay-side endpoint ({in_flight} in flight): \
             estimate {estimate} B, allocator {measured} B"
        );
        let ratio = estimate as f64 / measured as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "estimate {estimate} B vs {measured} B held ({ratio:.2}x)"
        );
    }
}

#[test]
fn relay_core_estimate_matches_the_allocator() {
    // 64 tracks, each with a subscriber and its newest object held.
    let mut core = RelayCore::new(0);
    for i in 0..64 {
        let track = FullTrackName::new(
            vec![vec![0x01], vec![0x00, 0x01], vec![0x00, 0x01]],
            format!("\x02t{i}\x07example\x03com\x00").into_bytes(),
        )
        .unwrap();
        core.on_downstream_subscribe(i, 2, track.clone());
        core.on_upstream_object(&track, object());
    }
    let estimate = core.state_size_estimate();
    let measured = std::mem::size_of::<RelayCore>() + heap_of(core);
    println!("relay core, 64 tracks: estimate {estimate} B, allocator {measured} B");
    let ratio = estimate as f64 / measured as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "estimate {estimate} B vs {measured} B held ({ratio:.2}x)"
    );
}

#[test]
fn an_in_flight_push_holds_what_it_carries() {
    // What an update round's peak is made of, per delivery: the metro
    // relay side with one push per subscription sent and not yet
    // acknowledged — the stream, its bytes and its pending range, the
    // packet's retransmit list and ledger entry. Measured against the
    // same endpoint idle.
    const TRACKS: usize = 8;
    let idle = heap_of(idle_relay_side_endpoint(TRACKS));
    let (mut conn, mut session, subscriptions) = idle_relay_side_endpoint(TRACKS);
    // The object is the relay's, held once in its cache.
    let cached = object();
    let mut sent = 0;
    for &request_id in &subscriptions {
        // Each update reaches the relay in an instant of its own, so each
        // push leaves in a packet of its own — sent, and lost: nothing
        // comes back to acknowledge it.
        assert!(session.publish(&mut conn, request_id, cached.clone()));
        sent += std::iter::from_fn(|| conn.poll_transmit(SimTime::from_secs(1))).count();
    }
    let (send_streams, _, in_flight) = conn.state_breakdown();
    assert_eq!(
        (sent, send_streams, in_flight),
        (TRACKS, 1 + TRACKS, TRACKS)
    );
    let busy = heap_of((conn, session));
    let per_delivery = (busy - idle) / TRACKS;
    println!(
        "metro relay side: {idle} B idle, {busy} B with a push per subscription \
         in flight: {per_delivery} B per delivery"
    );
    // Held at 1.15x what it reads: 165 B over 880 B idle — an 80-byte
    // slot in the send table (the stream's one pending range and its
    // six-byte header inline, the object held by reference), the
    // packet's ledger slot with its one retransmit entry inline, and
    // an eighth of the connection's in-flight record: its 160-byte box
    // and the turn storage a warm record brings along (the pending set of
    // the exchanges it served before; the event queue's goes back to the
    // thread once drained). That is the price of the 576 B every held
    // endpoint no longer keeps. It read 231 B while each stream held a
    // copy of the object, its 60 bytes (1,008 B idle while the pair's
    // connection was the last holder of its transport config and ALPN
    // token). It read 337 B while a send half kept its
    // write and FIN offsets, three flags and a sparse-ack table in a
    // 136-byte slot and its one pending range in a list of its own, and
    // the record kept its drained event queue's storage and four
    // containers that almost never fill in a 264-byte box. The control
    // stream's halves go to a record of their own while they hold something: in
    // this one, with their slots and buffers and the box grown to 320
    // bytes, it read 393 B. It read 337 B over 1,176 B idle while the
    // control stream kept its halves in a 216-byte entry. While each
    // container was lent from the thread on its own, it read 267 B over
    // 1,192 B idle, and was held at 1.15x the 285 B over 1,616 B it read
    // while the packet's retransmit entry was a block of its own and an
    // idle endpoint kept a ledger slot. While the send table kept
    // its sixteen slots between pushes (the idle endpoint paid for them),
    // and a fresh stream's pending list and a packet's retransmit list
    // were built with room for four, it read 3,664 B idle and 293 B more
    // per delivery.
    const BUDGET: usize = 190;
    assert!(
        per_delivery <= BUDGET,
        "an in-flight delivery holds {per_delivery} B, over {BUDGET}"
    );
}

#[test]
fn an_in_flight_delivery_holds_its_object_by_reference() {
    // The relay side with an answer and a push per subscription sent and
    // not acknowledged, of an object the relay holds once, as its cache
    // does: each delivery's stream keeps its few header bytes inline and
    // a reference to the object, so a 400-byte payload costs a delivery
    // what a 40-byte one does: 193 B. While each stream held a copy of
    // it, a delivery held 239 B at 40 bytes and 600 B at 400.
    const TRACKS: usize = 8;
    let per_delivery = |len: usize| {
        let cached = object_of(len);
        let idle = heap_of(idle_relay_side_endpoint(TRACKS));
        let (mut conn, mut session, subscriptions) = idle_relay_side_endpoint(TRACKS);
        for (i, &request_id) in subscriptions.iter().enumerate() {
            assert!(session.publish(&mut conn, request_id, cached.clone()));
            let fetch = 1_000 + 2 * i as u64;
            session.respond_fetch(&mut conn, fetch, (17, 0), vec![cached.clone()]);
            std::iter::from_fn(|| conn.poll_transmit(SimTime::from_secs(1))).count();
        }
        assert_eq!(conn.state_breakdown().0, 1 + 2 * TRACKS);
        (heap_of((conn, session)) - idle) / (2 * TRACKS)
    };
    let (small, large) = (per_delivery(40), per_delivery(400));
    println!("an in-flight delivery of a held object: {small} B at 40 B, {large} B at 400 B");
    assert_eq!(small, large, "a delivery holds its object's bytes");
}

/// Bytes per stub, from bytes over a baseline.
fn per_stub(bytes: isize, stubs: usize) -> usize {
    usize::try_from(bytes).expect("above the baseline") / stubs
}

/// The metro world `spec` built on one shard, then one update round: per
/// stub, the heap's build peak, what is held once it settled, and the
/// round's peak, each over what was live before the build.
fn metro_per_stub(spec: &MetroScenario) -> [usize; 3] {
    let stubs = spec.stub_count();
    let base = reset_peak();
    let mut world = MetroWorld::build(spec, 92);
    let build_peak = per_stub(peak() - base, stubs);
    let settled = per_stub(LIVE.with(Cell::get) - base, stubs);
    assert_eq!(world.fetched_total(), (stubs * spec.tracks_per_stub) as u64);
    reset_peak();
    world.update_round(2);
    let round_peak = per_stub(peak() - base, stubs);
    assert_eq!(
        world.delivered_updates(),
        (stubs * spec.tracks_per_stub) as u64
    );
    println!(
        "metro at {stubs} stubs, per stub: build peak {build_peak} B, settled {settled} B, \
         update round peak {round_peak} B"
    );
    [build_peak, settled, round_peak]
}

/// Holds each of [`metro_per_stub`]'s figures to its ceiling.
fn assert_within(figures: [usize; 3], ceilings: [usize; 3]) {
    let what = ["build peak", "settled heap", "update round peak"];
    for ((what, bytes), ceiling) in what.into_iter().zip(figures).zip(ceilings) {
        assert!(
            bytes <= ceiling,
            "the metro {what} is {bytes} B per stub, over {ceiling}"
        );
    }
}

#[test]
fn a_metro_stampede_peaks_within_budget_per_stub() {
    // The metro world's shape — three regions, four edges each, eight of
    // 64 tracks per stub, the same links and timers — at 64 stubs per
    // edge instead of 833, on one shard. Its build is one stampede of 768
    // joins; its heap peaks while handshakes, SETUPs and their requests
    // are in flight, and again while the joining fetches' answers wait
    // for their ACKs. Both peaks are mostly what a connection sends and
    // has not had acknowledged, per stub: so is an update round's.
    let figures = metro_per_stub(&MetroScenario {
        stubs_per_edge: 64,
        ..MetroScenario::metro()
    });
    // 1.05x what it reads: 6,307 B, 4,653 B and 5,871 B since a held
    // endpoint's slot is 440 B. 6,422 B, 4,768 B and 5,986 B while it was
    // 496 B; 6,537 B, 4,883 B and 6,101 B before every held endpoint
    // became one heap block. While each data
    // stream held a copy of its object instead of a reference, it read
    // 6,888 B, 4,883 B and 6,459 B. While every
    // endpoint kept the empty headers of its accept, event and reap queues
    // and a copy of its transport config, a queue entry was 96 bytes and
    // a link entry 80, it read 7,354 B, 5,348 B and 6,924 B. While every
    // endpoint indexed its one connection in two B-tree leaves (144 B and
    // 192 B), kept a private copy of the transport config and four slots
    // of transmit queue, and every stub its own copy of its
    // slice's eight questions, it read 7,937 B, 5,931 B and 7,506 B. On
    // a scheduler that kept its timers in 256 one-millisecond buckets
    // beside two heaps, it read 7,948 B, 5,814 B and 7,392 B. While a
    // send half kept its write and FIN offsets, three flags, a sparse-ack
    // table and a list of ranges of its own (136 B a table entry, and a
    // 16 B list per push), a stub grew its control stream's buffer
    // message by message, and an in-flight record kept its drained event
    // queue's storage and four containers that almost never fill, it
    // read 9,122 B, 6,334 B and 8,442 B.
    assert_within(figures, [6_623, 4_886, 6_165]);
}

#[test]
#[ignore = "the full-scale metro world: run with --release -- --ignored"]
fn full_metro_peaks_within_budget_per_stub() {
    // The world `sim_metro` builds — 9,996 stubs, one shard — so the
    // full-scale figures come from a command, not a scratch probe. Its
    // figures sit under the 768-stub ones: the relays' and the scheduler's
    // tables are shared by thirteen times the stubs.
    let figures = metro_per_stub(&MetroScenario::metro());
    // 1.05x what it reads: 5,170 B, 3,264 B and 4,612 B since a held
    // endpoint's slot is 440 B. 5,282 B, 3,377 B and 4,724 B while it was
    // 496 B; 5,395 B, 3,489 B and 4,837 B before every held endpoint
    // became one heap block. While each data
    // stream held a copy of its object instead of a reference — 45,052
    // joining-fetch answers wait for ACKs at the build's second peak — it
    // read 5,701 B, 3,489 B and 5,149 B. While an
    // endpoint kept its idle queue headers and a config copy inline and
    // the queue and link entries were 96 and 80 bytes, it read 6,069 B,
    // 3,856 B and 5,517 B. Before the flat endpoint indexes, the shared
    // config and question lists, and the one-slot transmit queue, it read
    // 6,649 B, 4,436 B and 6,096 B.
    assert_within(figures, [5_429, 3_428, 4_843]);
}

/// `btree_heap_bytes` against the allocator, for the tables that stay
/// B-trees, at 1, 8, 64 and 200 entries: against the mean of sixteen
/// shuffled insertion orders, within 10 % at every size, and against a
/// tree built in key order — whose leaves each split leaves half full —
/// within 10 % up to 64 entries and 12 % short at 200 (the function's
/// docs: there the key order's tree is 1.23 times the random mean, and
/// no estimate from the length alone is within 10 % of both).
#[test]
fn btree_heap_bytes_matches_the_allocator() {
    use moqdns::netsim::splitmix64;
    use moqdns::wire::btree_heap_bytes;
    use std::collections::BTreeMap;

    fn built<V: Default>(keys: impl IntoIterator<Item = u64>) -> usize {
        let mut tree = BTreeMap::new();
        for k in keys {
            tree.insert(k, V::default());
        }
        heap_of(tree)
    }
    fn check<V: Default>(what: &str) {
        const ORDERS: u64 = 16;
        for len in [1u64, 8, 64, 200] {
            let estimate = btree_heap_bytes::<u64, V>(len as usize) as f64;
            let in_order = built::<V>(0..len) as f64;
            let shuffled = (0..ORDERS).map(|seed| {
                let mut keys: Vec<u64> = (0..len).collect();
                keys.sort_by_key(|&k| splitmix64(k ^ seed << 32));
                built::<V>(keys)
            });
            let random = shuffled.sum::<usize>() as f64 / ORDERS as f64;
            let (to_order, to_random) = (estimate / in_order, estimate / random);
            println!(
                "{what}, {len} entries: estimate {estimate} B; key order {in_order} B \
                 ({to_order:.3}x), random orders' mean {random:.0} B ({to_random:.3}x)"
            );
            assert!(
                (0.9..=1.1).contains(&to_random),
                "{what}, {len}: {to_random:.3}x"
            );
            let floor = if len < 200 { 0.9 } else { 0.88 };
            assert!(
                (floor..=1.1).contains(&to_order),
                "{what}, {len}: {to_order:.3}x"
            );
        }
    }
    check::<u64>("u64 -> u64");
    check::<[u64; 5]>("u64 -> 40 B");
}
