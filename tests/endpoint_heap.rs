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
//! The allocator wraps `System` in this test binary only. Its counter is
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
use moqdns::moqt::session::{Session, SessionConfig, SessionEvent};
use moqdns::moqt::track::FullTrackName;
use moqdns::netsim::{Addr, LinkConfig, NodeId, SimTime, Simulator};
use moqdns::quic::{alpn_list, Connection, TransportConfig};
use moqdns::wire::pool::scratch_retained;
use moqdns_bench::worlds::TreeStub;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

thread_local! {
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Blocks this thread has allocated and not yet freed.
    static LIVE_BLOCKS: Cell<isize> = const { Cell::new(0) };
}

struct ByteCounting;

fn account(bytes: isize, blocks: isize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down, when the counters are no longer there to update.
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
    let _ = LIVE_BLOCKS.try_with(|live| live.set(live.get() + blocks));
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
        let relay = sim.add_node("relay", Box::new(RelayNode::new(upstream, 4, 2)));
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
            std::mem::replace(r, RelayNode::new(upstream, 4, 2))
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
            w.update(name, 2 + round as u8);
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
    // 1.15x what the pair reads (3,182 B in 36 blocks; 2,562 B in 20).
    // While the stream tables kept the 16-slot floor a join left them,
    // holding one entry, and each subscription of the stub's session
    // kept its own copy of its track name, it read 5,238 B in 46 blocks
    // and 4,570 B in 21. While the endpoint's event queue and the
    // connection's readable set kept a join burst's storage, a drained
    // retransmit list kept its ranges' and a gapless run of packet
    // numbers took a B-tree leaf, 7,566 B in 50 blocks and 5,122 B in
    // 24. While a name was a `Vec` per label and per namespace element —
    // five blocks a track name, one set per subscriber at the relay — the
    // stub held 9,126 B in 106 blocks and the relay 6,433 B in 65 for it.
    const STUB_BUDGET: (usize, usize) = (3_660, 42);
    const RELAY_BUDGET: (usize, usize) = (2_947, 23);
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
fn relay_heap_per_endpoint_is_within_budget_and_flat() {
    // 1.15x what it reads (2,129 B at 256 stubs; 2,234 B while the send
    // table kept the slots of the join's streams, 2,387 B while a
    // connection's retransmit lists and ACK ranges kept a join's storage).
    const BUDGET: f64 = 2449.0;
    let per_endpoint = |stubs: usize| heap_of(relay_serving(stubs).0) as f64 / stubs as f64;
    let at_256 = per_endpoint(256);
    let at_1024 = per_endpoint(1024);
    println!("relay heap bytes per endpoint: {at_256:.0} at 256 stubs, {at_1024:.0} at 1024");
    assert!(
        at_256 <= BUDGET && at_1024 <= BUDGET,
        "over the {BUDGET} B budget: {at_256:.0} B at 256 stubs, {at_1024:.0} B at 1024"
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
    // 1.15x what a stub that has joined one name reads (3,473 B): one
    // connection slot, one session, tables of one entry. 3,625 B while
    // its receive table and its subscription's own name copy stayed;
    // 3,985 B while its event queues, retransmit lists and ACK ranges
    // kept the join's storage; the endpoint's and the stack's own B-trees
    // made it 18,738 B.
    const BUDGET: usize = 3994;
    let held = heap_of(relay_serving(1).1);
    println!("joined stub heap bytes: {held}");
    assert!(
        held <= BUDGET,
        "a joined stub holds {held} B, over {BUDGET}"
    );

    // Nothing is sized ahead: no dial, no table — only the 16-byte
    // header of the (empty) list of ALPNs a client endpoint accepts.
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

/// The relay-side half of one stub's endpoint, driven by hand: handshake,
/// SETUP, `tracks` SUBSCRIBEs accepted, their joining FETCHes answered,
/// everything acked. Returns the endpoint and the peer's subscriptions.
fn idle_relay_side_endpoint(tracks: usize) -> (Connection, Session, Vec<u64>) {
    let alpn = alpn_list(&[moqdns::moqt::MOQT_ALPN]);
    let t0 = SimTime::ZERO;
    let cfg = TransportConfig::default();
    let mut c_conn = Connection::client(7, cfg.clone(), alpn.clone(), None, t0);
    let mut s_conn = Connection::server(7, cfg, alpn, 9, t0);
    let mut client = Session::client(SessionConfig::default());
    let mut server = Session::server(SessionConfig::default());
    client.start(&mut c_conn);
    for i in 0..tracks {
        let track = FullTrackName::new(
            vec![vec![0x01], vec![0x00, 0x01], vec![0x00, 0x01]],
            format!("\x02t{i}\x07example\x03com\x00").into_bytes(),
        )
        .unwrap();
        client.subscribe_with_joining_fetch(&mut c_conn, track, 1);
    }

    let mut subscriptions = Vec::new();
    let mut now = t0;
    loop {
        let mut moved = false;
        while let Some(d) = c_conn.poll_transmit(now) {
            moved = true;
            s_conn.handle_datagram(now, &d);
        }
        while let Some(d) = s_conn.poll_transmit(now) {
            moved = true;
            c_conn.handle_datagram(now, &d);
        }
        while let Some(ev) = c_conn.poll_event() {
            client.on_conn_event(&mut c_conn, &ev);
        }
        while let Some(ev) = s_conn.poll_event() {
            server.on_conn_event(&mut s_conn, &ev);
        }
        while let Some(ev) = server.poll_event() {
            moved = true;
            match ev {
                SessionEvent::IncomingSubscribe { request_id, .. } => {
                    server.accept_subscribe(&mut s_conn, request_id, Some((17, 0)));
                    subscriptions.push(request_id);
                }
                SessionEvent::IncomingFetch { request_id, .. } => {
                    server.respond_fetch(&mut s_conn, request_id, (17, 0), vec![object()]);
                }
                _ => {}
            }
        }
        while client.poll_event().is_some() {}
        now += Duration::from_micros(10);
        if !moved {
            break;
        }
    }
    assert!(s_conn.is_established() && server.is_ready());
    assert_eq!(server.peer_subscription_count(), tracks);
    (s_conn, server, subscriptions)
}

#[test]
fn state_size_estimate_matches_the_allocator() {
    let (conn, session, _) = idle_relay_side_endpoint(1);
    let endpoint = (conn, session);
    let estimate = endpoint.0.state_size_estimate() + endpoint.1.state_size_estimate();
    let structs = std::mem::size_of::<Connection>() + std::mem::size_of::<Session>();
    let measured = structs + heap_of(endpoint);
    println!("idle relay-side endpoint: estimate {estimate} B, allocator {measured} B");
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
        // Each update reaches the relay in a turn of its own, so each
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
    // 1.15x what it reads: 285 B over 1,616 B idle — a slot in the send
    // table, the stream's bytes and its one pending range, the packet's
    // one retransmit entry and its ledger slot. While the send table kept
    // its sixteen slots between pushes (the idle endpoint paid for them),
    // and a fresh stream's pending list and a packet's retransmit list
    // were built with room for four, it read 3,664 B idle and 293 B more
    // per delivery.
    const BUDGET: usize = 328;
    assert!(
        per_delivery <= BUDGET,
        "an in-flight delivery holds {per_delivery} B, over {BUDGET}"
    );
}
