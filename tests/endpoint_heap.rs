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
//! — live bytes and blocks, and the live bytes' high-water mark — are
//! thread-local so the tests, which `cargo test` runs on parallel
//! threads, do not see each other; every world here is single-threaded.

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
use moqdns::quic::{alpn_list, Connection, Side, TransportConfig};
use moqdns::wire::pool::scratch_retained;
use moqdns::workload::scenarios::MetroScenario;
use moqdns_bench::worlds::{MetroWorld, TreeStub};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

thread_local! {
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Blocks this thread has allocated and not yet freed.
    static LIVE_BLOCKS: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`reset_peak`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

struct ByteCounting;

fn account(bytes: isize, blocks: isize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down, when the counters are no longer there to update.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    let _ = LIVE_BLOCKS.try_with(|live| live.set(live.get() + blocks));
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
        account(layout.size() as isize, 1);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as isize), -1);
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as isize, 1);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as isize - layout.size() as isize, 0);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: ByteCounting = ByteCounting;

/// Heap blocks `value` owns and the bytes in them: what dropping it
/// gives back.
fn heap_and_blocks_of<T>(value: T) -> (usize, usize) {
    let before = (LIVE.with(Cell::get), LIVE_BLOCKS.with(Cell::get));
    drop(value);
    let freed =
        |was: isize, is: isize| usize::try_from(was - is).expect("a drop frees, never allocates");
    (
        freed(before.0, LIVE.with(Cell::get)),
        freed(before.1, LIVE_BLOCKS.with(Cell::get)),
    )
}

/// Heap bytes `value` owns.
fn heap_of<T>(value: T) -> usize {
    heap_and_blocks_of(value).0
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
    // 1.15x what the pair reads (2,016 B in 23 blocks; 1,122 B in 3).
    // While a connection kept its creation time, it read 2,024 B in 23
    // blocks and 1,130 B in 3 (2,040 B in 24 when first held at 1.15x).
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
    const STUB_BUDGET: (usize, usize) = (2_319, 27);
    const RELAY_BUDGET: (usize, usize) = (1_291, 4);
    let (stub_bytes, stub_blocks) = heap_and_blocks_of(metro_relay_serving(1, 0).1);
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
        (0.75..=1.25).contains(&ratio),
        "stub stack estimate {estimate} B vs {held} B held ({ratio:.2}x)"
    );
    // What one more stub costs the relay: the eight tracks, their cache
    // and the uplink are there at 32 stubs as at 64.
    let at_32 = heap_and_blocks_of(metro_relay_serving(32, 0).0);
    let relay = metro_relay_serving(64, 0).0;
    let estimate = relay.state_size_estimate();
    let at_64 = heap_and_blocks_of(relay);
    // 512 subscriptions share eight name buffers with the track table;
    // the estimator charges each buffer once, across its holders.
    let ratio = estimate as f64 / at_64.0 as f64;
    assert!(
        (0.75..=1.25).contains(&ratio),
        "relay estimate {estimate} B vs {} B held ({ratio:.2}x)",
        at_64.0
    );
    let (relay_bytes, relay_blocks) = ((at_64.0 - at_32.0) / 32, (at_64.1 - at_32.1) / 32);
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
    // 1.15x what it reads (706 B in 3.41 blocks at 256 stubs; 714 B
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
    // byte count sees: what a held endpoint is made of is gated too.
    const BUDGET: f64 = 812.0;
    const BLOCKS: f64 = 3.92;
    let per_endpoint = |stubs: usize| {
        let (bytes, blocks) = heap_and_blocks_of(relay_serving(stubs).0);
        (bytes as f64 / stubs as f64, blocks as f64 / stubs as f64)
    };
    let (at_256, blocks_256) = per_endpoint(256);
    let (at_1024, blocks_1024) = per_endpoint(1024);
    println!(
        "relay heap per endpoint: {at_256:.0} B in {blocks_256:.2} blocks at 256 stubs, \
         {at_1024:.0} B in {blocks_1024:.2} at 1024"
    );
    assert!(
        at_256 <= BUDGET && at_1024 <= BUDGET,
        "over the {BUDGET} B budget: {at_256:.0} B at 256 stubs, {at_1024:.0} B at 1024"
    );
    assert!(
        blocks_256 <= BLOCKS && blocks_1024 <= BLOCKS,
        "over {BLOCKS} blocks: {blocks_256:.2} at 256 stubs, {blocks_1024:.2} at 1024"
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
    // 1.15x what a stub that has joined one name reads (2,240 B): one
    // connection slot, one session, tables of one entry. 2,248 B while
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
    const BUDGET: usize = 2576;
    let held = heap_of(relay_serving(1).1);
    println!("joined stub heap bytes: {held}");
    assert!(
        held <= BUDGET,
        "a joined stub holds {held} B, over {BUDGET}"
    );

    // Nothing is sized ahead: no dial, no table, no shared transport
    // config — only the 16-byte header of the (empty) list of ALPNs a
    // client endpoint accepts.
    let idle = heap_of(MoqtStack::client(TransportConfig::default(), 1));
    assert!(idle <= 16, "a stack that never connected holds {idle} B");
}

/// A 60-byte object of group 17, what the relay side answers and pushes.
fn object() -> Object {
    Object {
        group_id: 17,
        object_id: 0,
        payload: vec![0xAB; 60].into(),
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

impl HandDriven {
    /// Handshake, SETUP, `tracks` SUBSCRIBEs accepted, their joining
    /// FETCHes answered, everything acked.
    fn joined(tracks: usize, cfg: TransportConfig) -> HandDriven {
        let alpn = alpn_list(&[moqdns::moqt::MOQT_ALPN]);
        let t0 = SimTime::ZERO;
        let mut h = HandDriven {
            c_conn: Connection::client(7, cfg.clone(), alpn.clone(), None, t0),
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
            h.run();
            assert!(h.s_conn.stats().pings_sent > 0, "the relay side pinged");
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
    // the control stream back to its offsets. It reads 272 B (440 B while
    // an idle control stream kept both halves' buffers and offsets in a
    // 216-byte entry).
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
    // it is held.
    for in_flight in ["nothing", "a push", "control bytes"] {
        let (mut conn, mut session, subscriptions) = idle_relay_side_endpoint(1);
        match in_flight {
            "a push" => assert!(session.publish(&mut conn, subscriptions[0], object())),
            "control bytes" => {
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
        let estimate = conn.state_size_estimate() + session.state_size_estimate();
        let structs = std::mem::size_of::<Connection>() + std::mem::size_of::<Session>();
        let measured = structs + heap_of((conn, session));
        println!(
            "relay-side endpoint ({in_flight} in flight): \
             estimate {estimate} B, allocator {measured} B"
        );
        let ratio = estimate as f64 / measured as f64;
        assert!(
            (0.75..=1.25).contains(&ratio),
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
        (0.75..=1.25).contains(&ratio),
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
    let mut sent = 0;
    for &request_id in &subscriptions {
        // Each update reaches the relay in an instant of its own, so each
        // push leaves in a packet of its own — sent, and lost: nothing
        // comes back to acknowledge it.
        assert!(session.publish(&mut conn, request_id, object()));
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
    // Held at 1.15x what it reads: 231 B over 1,008 B idle — an 80-byte slot in the send
    // table (the stream's one pending range inline), the stream's bytes,
    // the packet's ledger slot with its one retransmit entry inline, and
    // an eighth of the connection's in-flight record: its 160-byte box
    // and the turn storage a warm record brings along (the pending set of
    // the exchanges it served before; the event queue's goes back to the
    // thread once drained). That is the price of the 576 B every held
    // endpoint no longer keeps. It read 337 B while a send half kept its
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
    const BUDGET: usize = 266;
    assert!(
        per_delivery <= BUDGET,
        "an in-flight delivery holds {per_delivery} B, over {BUDGET}"
    );
}

/// Bytes per stub, from bytes over a baseline.
fn per_stub(bytes: isize, stubs: usize) -> usize {
    usize::try_from(bytes).expect("above the baseline") / stubs
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
    let spec = MetroScenario {
        stubs_per_edge: 64,
        ..MetroScenario::metro()
    };
    let stubs = spec.stub_count();
    let base = reset_peak();
    let mut world = MetroWorld::build(&spec, 92);
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
    // 1.05x what it reads: 7,937 B, 5,931 B and 7,506 B. On a scheduler
    // that kept its timers in 256 one-millisecond buckets beside two
    // heaps, it read 7,948 B, 5,814 B and 7,392 B. While a send
    // half kept its write and FIN offsets, three flags, a sparse-ack
    // table and a list of ranges of its own (136 B a table entry, and a
    // 16 B list per push), a stub grew its control stream's buffer
    // message by message, and an in-flight record kept its drained event
    // queue's storage and four containers that almost never fill, it
    // read 9,122 B, 6,334 B and 8,442 B.
    const BUILD_PEAK: usize = 8_334;
    const SETTLED: usize = 6_228;
    const ROUND_PEAK: usize = 7_881;
    for (what, bytes, ceiling) in [
        ("build peak", build_peak, BUILD_PEAK),
        ("settled heap", settled, SETTLED),
        ("update round peak", round_peak, ROUND_PEAK),
    ] {
        assert!(
            bytes <= ceiling,
            "the metro {what} is {bytes} B per stub, over {ceiling}"
        );
    }
}
