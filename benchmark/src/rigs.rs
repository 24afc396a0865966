//! The layer rigs: each layer's public calls timed alone, in-process, on
//! inputs made from the seed. They are the rows of the cost ledger — ns
//! per op and allocations per op — and run only in a traced run.
//!
//! Every rig runs [`CHUNKS`] chunks of a *fixed* number of ops on freshly
//! built state. The reported time is the median chunk (ns per op); the
//! allocation count comes from the first chunk, and because state and op
//! count are fixed it repeats exactly from run to run. Chunks exist for a
//! second reason: a connection carries at most 1024 server-opened streams
//! (README "Known limits"), so any rig that opens a stream per op must
//! rebuild its connection pair every few hundred ops anyway. A span per
//! chunk goes to the trace (a span per call would time the clock, not the
//! call, for ops of a few nanoseconds).

use crate::alloc;
use crate::gen::{question, ZONE};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;
use moqdns_core::auth::AuthServer;
use moqdns_core::mapping::{object_from_response, track_from_question, RequestFlags};
use moqdns_core::relay_node::RelayNode;
use moqdns_core::stub::{StubMode, StubResolver};
use moqdns_core::MOQT_PORT;
use moqdns_dns::message::Message;
use moqdns_dns::rdata::RData;
use moqdns_dns::rr::{Record, RecordType};
use moqdns_dns::server::Authority;
use moqdns_dns::zone::Zone;
use moqdns_moqt::data::Object;
use moqdns_moqt::message::{ControlMessage, FetchType, FilterType};
use moqdns_moqt::relay::{RelayAction, RelayCore};
use moqdns_moqt::session::{Session, SessionConfig, SessionEvent};
use moqdns_moqt::track::FullTrackName;
use moqdns_netsim::{Addr, Ctx, LinkConfig, LiveSim, Node, NodeId, Payload, SimTime, Simulator};
use moqdns_quic::packet::{decode_datagram_payload, peek_dcid};
use moqdns_quic::udp_batch::{RecvBatcher, SendBatcher, MAX_BATCH};
use moqdns_quic::{Connection, Dir, Endpoint, Event, TransportConfig};
use moqdns_relayd::netio::{HostCore, LiveHost};
use moqdns_wire::pool::BufPool;
use moqdns_wire::{varint, Reader, Writer};
use std::any::Any;
use std::hint::black_box;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// Timed chunks per rig.
const CHUNKS: usize = 5;

struct Rigs<'a> {
    tr: &'a mut Tracer,
    out: &'a mut Outcome,
}

impl Rigs<'_> {
    /// Times `op` over [`CHUNKS`] chunks of `chunk` calls, each on a fresh
    /// `setup()`. Reports `ns_row` (and `allocs_row`) per *unit*, where one
    /// call does `units` of them (64 deliveries, five varints, …).
    fn measure<S>(
        &mut self,
        ns_row: &'static str,
        allocs_row: Option<&'static str>,
        chunk: usize,
        units: f64,
        mut setup: impl FnMut() -> S,
        mut op: impl FnMut(&mut S),
    ) {
        self.measure_inner(ns_row, allocs_row, chunk, units, &mut setup, |s| {
            let a0 = alloc::count();
            let t0 = Instant::now();
            op(s);
            (t0.elapsed().as_nanos() as u64, alloc::count() - a0)
        });
    }

    /// Like [`Rigs::measure`], but `op` itself reports the nanoseconds and
    /// allocations of the part of it that counts (the rest is scaffolding
    /// the measured call needs, such as the peer producing its input).
    fn measure_inner<S>(
        &mut self,
        ns_row: &'static str,
        allocs_row: Option<&'static str>,
        chunk: usize,
        units: f64,
        mut setup: impl FnMut() -> S,
        mut op: impl FnMut(&mut S) -> (u64, u64),
    ) {
        let mut ns_per_unit = Vec::with_capacity(CHUNKS);
        let mut first_allocs = 0.0;
        for c in 0..CHUNKS {
            let mut state = setup();
            let span = self.tr.enter(ns_row, c as u64 + 1);
            let (mut ns, mut allocs) = (0u64, 0u64);
            for _ in 0..chunk {
                let (n, a) = op(&mut state);
                ns += n;
                allocs += a;
            }
            self.tr.exit(span);
            ns_per_unit.push(ns as f64 / (chunk as f64 * units));
            if c == 0 {
                first_allocs = allocs as f64 / (chunk as f64 * units);
            }
        }
        self.out.layer(ns_row, median(&ns_per_unit));
        if let Some(row) = allocs_row {
            self.out.layer(row, first_allocs);
        }
    }

    /// For ops of a few nanoseconds: one clock read per `batch` calls.
    fn measure_tight(
        &mut self,
        ns_row: &'static str,
        allocs_row: Option<&'static str>,
        batch: usize,
        units: f64,
        mut op: impl FnMut(),
    ) {
        self.measure(
            ns_row,
            allocs_row,
            20,
            batch as f64 * units,
            || (),
            |_| {
                for _ in 0..batch {
                    op();
                }
            },
        );
    }
}

// ---------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------

fn track_name(i: usize) -> moqdns_dns::name::Name {
    moqdns_relayd::daemon::track_name(ZONE, i)
}

fn txt_record(i: usize, v: u64) -> Record {
    Record::new(
        track_name(i),
        60,
        RData::TXT(vec![
            format!("v={v}").into_bytes(),
            b"ts=1700000000123456789".to_vec(),
        ]),
    )
}

/// The benchmark's TXT answer: the message a fetch of `t<i>` returns.
fn txt_answer(i: usize) -> Message {
    let mut m = Message::query(0, question(i));
    m.header.qr = true;
    m.header.aa = true;
    m.answers.push(txt_record(i, 17));
    m
}

fn zone(tracks: usize) -> Zone {
    let mut z = Zone::with_default_soa(ZONE.parse().expect("valid origin"));
    for i in 0..tracks {
        z.add_record(txt_record(i, 0));
    }
    z
}

fn dns_track(i: usize) -> FullTrackName {
    track_from_question(&question(i), RequestFlags::recursive()).expect("valid dns track")
}

fn object(group: u64) -> Object {
    object_from_response(&txt_answer(0), group)
}

fn alpn() -> moqdns_quic::AlpnList {
    moqdns_quic::alpn_list(&[moqdns_moqt::MOQT_ALPN])
}

/// An established client/server [`Connection`] pair on a virtual clock.
struct ConnPair {
    client: Connection,
    server: Connection,
    now: SimTime,
}

impl ConnPair {
    fn new(cid: u64) -> ConnPair {
        let t0 = SimTime::ZERO;
        let mut pair = ConnPair {
            client: Connection::client(cid, TransportConfig::default(), alpn(), None, t0),
            server: Connection::server(cid, TransportConfig::default(), alpn(), 9, t0),
            now: t0,
        };
        pair.shuttle();
        assert!(pair.client.is_established() && pair.server.is_established());
        while pair.client.poll_event().is_some() {}
        while pair.server.poll_event().is_some() {}
        pair
    }

    /// Moves datagrams both ways until neither side has more to say.
    fn shuttle(&mut self) {
        loop {
            let mut moved = false;
            while let Some(d) = self.client.poll_transmit(self.now) {
                moved = true;
                self.server.handle_datagram(self.now, &d);
            }
            while let Some(d) = self.server.poll_transmit(self.now) {
                moved = true;
                self.client.handle_datagram(self.now, &d);
            }
            self.now += Duration::from_micros(10);
            if !moved {
                return;
            }
        }
    }
}

/// Two [`Session`]s over a [`ConnPair`], set up and ready.
struct SessionPair {
    conns: ConnPair,
    client: Session,
    server: Session,
    /// Server-opened uni streams the client has seen.
    server_uni_streams: u64,
}

impl SessionPair {
    fn new() -> SessionPair {
        let mut conns = ConnPair::new(1);
        let mut client = Session::client(SessionConfig::default());
        client.start(&mut conns.client);
        let mut pair = SessionPair {
            conns,
            client,
            server: Session::server(SessionConfig::default()),
            server_uni_streams: 0,
        };
        pair.run();
        assert!(pair.client.is_ready() && pair.server.is_ready());
        while pair.client.poll_event().is_some() {}
        while pair.server.poll_event().is_some() {}
        pair
    }

    /// Shuttles datagrams and pumps connection events into the sessions
    /// until both are quiet.
    fn run(&mut self) {
        loop {
            let mut moved = false;
            while let Some(d) = self.conns.client.poll_transmit(self.conns.now) {
                moved = true;
                self.conns.server.handle_datagram(self.conns.now, &d);
            }
            while let Some(d) = self.conns.server.poll_transmit(self.conns.now) {
                moved = true;
                self.conns.client.handle_datagram(self.conns.now, &d);
            }
            while let Some(ev) = self.conns.client.poll_event() {
                if let Event::StreamOpened { id } = &ev {
                    if id.dir() == Dir::Uni && !id.initiated_by_client() {
                        self.server_uni_streams += 1;
                    }
                }
                self.client.on_conn_event(&mut self.conns.client, &ev);
            }
            while let Some(ev) = self.conns.server.poll_event() {
                self.server.on_conn_event(&mut self.conns.server, &ev);
            }
            self.conns.now += Duration::from_micros(10);
            if !moved {
                return;
            }
        }
    }

    /// One fetch: FETCH → `respond_fetch` → FETCH_OK + the object event.
    fn fetch(&mut self, track: &FullTrackName) {
        self.client
            .fetch(&mut self.conns.client, track.clone(), 0, u64::MAX);
        self.run();
        let mut request = None;
        while let Some(e) = self.server.poll_event() {
            if let SessionEvent::IncomingFetch { request_id, .. } = e {
                request = Some(request_id);
            }
        }
        let request = request.expect("server saw the fetch");
        self.server
            .respond_fetch(&mut self.conns.server, request, (17, 0), vec![object(17)]);
        self.run();
        let mut got = false;
        while let Some(e) = self.client.poll_event() {
            got |= matches!(e, SessionEvent::FetchObjects { .. });
        }
        assert!(got, "client got the fetched object");
    }

    /// Subscribes the client to `n` tracks; returns the server-side
    /// request ids to publish on.
    fn subscribe(&mut self, n: usize) -> Vec<u64> {
        for i in 0..n {
            self.client.subscribe(&mut self.conns.client, dns_track(i));
        }
        self.run();
        let mut ids = Vec::new();
        while let Some(e) = self.server.poll_event() {
            if let SessionEvent::IncomingSubscribe { request_id, .. } = e {
                ids.push(request_id);
            }
        }
        assert_eq!(ids.len(), n);
        for &id in &ids {
            self.server
                .accept_subscribe(&mut self.conns.server, id, Some((0, 0)));
        }
        self.run();
        while self.client.poll_event().is_some() {}
        ids
    }

    /// Publishes one object on each of `ids`, delivered to the client.
    fn publish(&mut self, ids: &[u64], group: u64) {
        for &id in ids {
            assert!(self
                .server
                .publish(&mut self.conns.server, id, object(group)));
        }
        self.run();
        let mut got = 0;
        while let Some(e) = self.client.poll_event() {
            got += matches!(e, SessionEvent::SubscriptionObject { .. }) as usize;
        }
        assert_eq!(got, ids.len());
    }
}

/// A node that echoes every datagram back (and otherwise does nothing).
struct Echo;

impl Node for Echo {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, to_port: u16, payload: Payload) {
        ctx.send(to_port, from, payload);
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

/// Forwards every datagram to the next node of a ring, `remaining` times.
struct RingHop {
    next: Option<Addr>,
    remaining: u64,
}

impl Node for RingHop {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, _from: Addr, to_port: u16, p: Payload) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(to_port, self.next.expect("ring is closed"), p);
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

/// stub(s) → `RelayNode` → `AuthServer` in a zero-delay [`Simulator`]:
/// the whole protocol stack on both ends, no sockets.
struct SimChain {
    sim: Simulator,
    auth: NodeId,
    relay: NodeId,
    stubs: Vec<NodeId>,
    version: u64,
}

impl SimChain {
    /// `stubs` stubs, all subscribed (via `lookup`) to track 0.
    fn new(seed: u64, stubs: usize) -> SimChain {
        let mut sim = Simulator::new(seed);
        sim.set_default_link(LinkConfig::with_delay(Duration::ZERO));
        let transport = TransportConfig::default()
            .idle_timeout(Duration::from_secs(3600))
            .keep_alive(Duration::from_secs(25));
        let auth = sim.add_node(
            "auth",
            Box::new(AuthServer::new(Authority::single(zone(8)), transport, seed)),
        );
        let relay = sim.add_node(
            "relay",
            Box::new(RelayNode::new(Addr::new(auth, MOQT_PORT), 4, seed + 1)),
        );
        let mut chain = SimChain {
            sim,
            auth,
            relay,
            stubs: Vec::new(),
            version: 0,
        };
        for _ in 0..stubs {
            chain.join(0);
        }
        chain
    }

    /// Everything in flight completes at the current instant (links are
    /// zero-delay); a millisecond is far below any protocol timer.
    fn settle(&mut self) {
        self.sim.run_for(Duration::from_millis(1));
    }

    /// Adds a stub and has it `lookup` track `t`: handshake, SETUP,
    /// SUBSCRIBE, joining FETCH, answered.
    fn join(&mut self, t: usize) {
        let i = self.stubs.len();
        let stub = self.sim.add_node(
            format!("stub{i}"),
            Box::new(StubResolver::new(
                StubMode::Moqt,
                Addr::new(self.relay, MOQT_PORT),
                1000 + i as u64,
            )),
        );
        self.stubs.push(stub);
        self.settle();
        self.sim
            .with_node::<StubResolver, _>(stub, |s, ctx| s.lookup(ctx, question(t)));
        self.settle();
        let s = self.sim.node_ref::<StubResolver>(stub);
        assert!(
            s.metrics.lookups.last().is_some_and(|l| l.ok),
            "join answered"
        );
    }

    /// One standalone fetch from stub 0: a relay cache hit.
    fn probe(&mut self) {
        let stub = self.stubs[0];
        let before = self
            .sim
            .node_ref::<StubResolver>(stub)
            .metrics
            .lookups
            .len();
        let issued = self
            .sim
            .with_node::<StubResolver, _>(stub, |s, ctx| s.probe(ctx, question(0)));
        assert!(issued);
        self.settle();
        let s = self.sim.node_ref::<StubResolver>(stub);
        assert_eq!(s.metrics.lookups.len(), before + 1, "probe answered");
    }

    /// One zone update at the auth, pushed to every subscribed stub.
    fn push(&mut self) {
        self.version += 1;
        let v = self.version;
        self.sim.with_node::<AuthServer, _>(self.auth, |a, ctx| {
            a.update_zone(ctx, |authority| {
                let name = track_name(0);
                if let Some(z) = authority.find_zone_mut(&name) {
                    z.set_records(&name, RecordType::TXT, vec![txt_record(0, v)]);
                }
            });
        });
        self.settle();
        let last = *self.stubs.last().expect("at least one stub");
        let got = self
            .sim
            .node_ref::<StubResolver>(last)
            .metrics
            .updates
            .len();
        assert_eq!(got as u64, v, "push {v} delivered");
    }
}

// ---------------------------------------------------------------------
// The rigs, by layer
// ---------------------------------------------------------------------

fn wire(r: &mut Rigs<'_>, seed: u64) {
    // Five varints covering every encoded length, seeded low bits.
    let values = [
        seed & 0x3f,
        16_000 | (seed & 0xff),
        (1 << 29) | (seed & 0xffff),
        (1 << 61) | (seed & 0xffff),
        0,
    ];
    r.measure_tight("wire.varint_rt_ns", None, 2_000, 5.0, || {
        let mut w = Writer::with_capacity(64);
        for v in values {
            varint::put_varint(&mut w, black_box(v));
        }
        let buf = w.into_vec();
        let mut rd = Reader::new(&buf);
        let mut sum = 0u64;
        while !rd.is_empty() {
            sum = sum.wrapping_add(varint::get_varint(&mut rd).expect("own encoding"));
        }
        black_box(sum);
    });

    let payload = Payload::new(vec![0xAB; 1200]);
    r.measure_tight("wire.payload_slice_ns", None, 10_000, 1.0, || {
        black_box(black_box(&payload).slice(100..200));
    });

    let mut pool = BufPool::default();
    let body = [0x5A; 100];
    r.measure_tight(
        "wire.pool_writer_cycle_ns",
        Some("wire.pool_writer_cycle_allocs"),
        10_000,
        1.0,
        || {
            let mut w = pool.writer();
            w.put_slice(black_box(&body));
            pool.recycle_writer(w);
        },
    );
}

fn dns(r: &mut Rigs<'_>) {
    let msg = txt_answer(3);
    let wire = msg.encode();
    r.measure_tight(
        "dns.msg_decode_ns",
        Some("dns.msg_decode_allocs"),
        1_000,
        1.0,
        || {
            black_box(Message::decode(black_box(&wire)).expect("own encoding"));
        },
    );
    r.measure_tight(
        "dns.msg_encode_ns",
        Some("dns.msg_encode_allocs"),
        1_000,
        1.0,
        || {
            black_box(black_box(&msg).encode());
        },
    );
    let authority = Authority::single(zone(8));
    let q = question(3);
    r.measure_tight("dns.zone_answer_ns", None, 1_000, 1.0, || {
        black_box(authority.answer_question(black_box(&q)));
    });
}

/// A short-header datagram carrying one 100-byte stream frame.
fn sample_datagram() -> Payload {
    let mut pair = ConnPair::new(7);
    let id = pair.client.open_stream(Dir::Uni).expect("stream budget");
    pair.client.send_stream(id, &[0xAB; 100]).expect("open");
    pair.client.finish_stream(id).expect("open");
    pair.client
        .poll_transmit(pair.now)
        .expect("a datagram is due")
}

fn quic(r: &mut Rigs<'_>) {
    let dgram = sample_datagram();
    r.measure_tight("quic.peek_dcid_ns", None, 10_000, 1.0, || {
        black_box(peek_dcid(black_box(&dgram)));
    });
    r.measure_tight(
        "quic.datagram_decode_ns",
        Some("quic.datagram_decode_allocs"),
        2_000,
        1.0,
        || {
            black_box(decode_datagram_payload(black_box(&dgram)).expect("own encoding"));
        },
    );

    // Open a uni stream, 100 bytes, fin, shuttle, read, acks.
    let body = [0xAB; 100];
    r.measure(
        "quic.stream_rt_ns",
        Some("quic.stream_rt_allocs"),
        512,
        1.0,
        || ConnPair::new(1),
        |p| {
            let id = p.client.open_stream(Dir::Uni).expect("stream budget");
            p.client.send_stream(id, &body).expect("open");
            p.client.finish_stream(id).expect("open");
            p.shuttle();
            while p.server.poll_event().is_some() {}
            let (data, _fin) = p.server.read_stream(id, usize::MAX).expect("readable");
            assert_eq!(data.len(), body.len());
        },
    );

    // The same exchange, counting only the sender's `poll_transmit`.
    r.measure_inner(
        "quic.poll_transmit_ns",
        Some("quic.poll_transmit_allocs"),
        512,
        1.0,
        || ConnPair::new(1),
        |p| {
            let id = p.client.open_stream(Dir::Uni).expect("stream budget");
            p.client.send_stream(id, &body).expect("open");
            p.client.finish_stream(id).expect("open");
            let a0 = alloc::count();
            let t0 = Instant::now();
            let d = p.client.poll_transmit(p.now);
            let cost = (t0.elapsed().as_nanos() as u64, alloc::count() - a0);
            p.server
                .handle_datagram(p.now, &d.expect("a datagram is due"));
            p.shuttle();
            while p.server.poll_event().is_some() {}
            p.server.read_stream(id, usize::MAX).expect("readable");
            cost
        },
    );

    for (row, conns) in [
        ("quic.endpoint_rx_ns_1conn", 1usize),
        ("quic.endpoint_rx_ns_1kconn", 1000),
    ] {
        endpoint_rx(r, row, conns);
    }

    r.measure(
        "quic.handshake_pair_ns",
        Some("quic.handshake_pair_allocs"),
        100,
        1.0,
        || (),
        |_| {
            black_box(ConnPair::new(1));
        },
    );
}

/// `Endpoint::handle_datagram` with `conns` established connections:
/// DCID demux + one connection's ingest of a 100-byte DATAGRAM frame
/// (DATAGRAM frames spend no stream budget). Rotates over the
/// connections so the lookup is not always the same warm entry.
fn endpoint_rx(r: &mut Rigs<'_>, row: &'static str, conns: usize) {
    struct State {
        server: Endpoint<u32>,
        clients: Vec<Connection>,
        next: usize,
        now: SimTime,
    }
    let body = Payload::new(vec![0xCD; 100]);
    r.measure_inner(
        row,
        None,
        2_000,
        1.0,
        || {
            let now = SimTime::ZERO;
            let mut server = Endpoint::<u32>::server(TransportConfig::default(), alpn(), 5);
            let mut clients = Vec::with_capacity(conns);
            for i in 0..conns {
                let mut c = Connection::client(
                    1000 + i as u64,
                    TransportConfig::default(),
                    alpn(),
                    None,
                    now,
                );
                for _ in 0..8 {
                    while let Some(d) = c.poll_transmit(now) {
                        server.handle_datagram(now, i as u32, &d);
                    }
                    while let Some((peer, d)) = server.poll_transmit(now) {
                        assert_eq!(peer, i as u32);
                        c.handle_datagram(now, &d);
                    }
                }
                assert!(c.is_established());
                while c.poll_event().is_some() {}
                clients.push(c);
            }
            while server.poll_event().is_some() {}
            while server.poll_incoming().is_some() {}
            State {
                server,
                clients,
                next: 0,
                now,
            }
        },
        |s| {
            let i = s.next;
            s.next = (s.next + 1) % s.clients.len();
            s.now += Duration::from_micros(10);
            s.clients[i].send_datagram(body.clone()).expect("open");
            let d = s.clients[i]
                .poll_transmit(s.now)
                .expect("a datagram is due");
            let t0 = Instant::now();
            s.server.handle_datagram(s.now, i as u32, &d);
            let ns = t0.elapsed().as_nanos() as u64;
            while s.server.poll_event().is_some() {}
            while let Some((peer, d)) = s.server.poll_transmit(s.now) {
                s.clients[peer as usize].handle_datagram(s.now, &d);
            }
            (ns, 0)
        },
    );
}

/// Loopback self-send in 64-bursts: per-datagram cost of `sendmmsg` and
/// `recvmmsg` at the smallest payload (where per-packet cost dominates)
/// and near the MTU.
fn udp_batch(r: &mut Rigs<'_>) -> Result<(), String> {
    const BURSTS: usize = 40;
    for (bytes, send_row, recv_row) in [
        (
            100usize,
            "udp_batch.send_ns_per_dgram_100b",
            "udp_batch.recv_ns_per_dgram_100b",
        ),
        (
            1200,
            "udp_batch.send_ns_per_dgram_1200b",
            "udp_batch.recv_ns_per_dgram_1200b",
        ),
    ] {
        let sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        sock.set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| format!("timeout: {e}"))?;
        let dst = sock.local_addr().map_err(|e| format!("addr: {e}"))?;
        let frames: Vec<(SocketAddr, Vec<u8>)> = (0..MAX_BATCH)
            .map(|i| (dst, vec![i as u8; bytes]))
            .collect();
        let mut send = SendBatcher::new();
        let mut recv = RecvBatcher::new();
        let mut burst = Vec::with_capacity(MAX_BATCH);
        let (mut send_ns, mut recv_ns) = (Vec::new(), Vec::new());
        for c in 0..CHUNKS {
            let span = r.tr.enter(send_row, c as u64 + 1);
            let (mut s_ns, mut r_ns, mut moved) = (0u64, 0u64, 0u64);
            for _ in 0..BURSTS {
                let t0 = Instant::now();
                let sent = send.send_burst(&sock, &frames);
                s_ns += t0.elapsed().as_nanos() as u64;
                let mut got = 0u64;
                let t0 = Instant::now();
                while got < sent {
                    burst.clear();
                    match recv.recv_burst(&sock, &mut burst) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => got += n as u64,
                    }
                }
                r_ns += t0.elapsed().as_nanos() as u64;
                if got != MAX_BATCH as u64 {
                    return Err(format!("udp_batch rig: {got} of {MAX_BATCH} looped back"));
                }
                moved += got;
            }
            r.tr.exit(span);
            send_ns.push(s_ns as f64 / moved as f64);
            recv_ns.push(r_ns as f64 / moved as f64);
        }
        r.out.layer(send_row, median(&send_ns));
        r.out.layer(recv_row, median(&recv_ns));
    }
    Ok(())
}

fn moqt(r: &mut Rigs<'_>) {
    let fetch = ControlMessage::Fetch {
        request_id: 6,
        fetch: FetchType::StandAlone {
            track: dns_track(3),
            start_group: 17,
            start_object: 0,
            end_group: varint::MAX_VARINT,
        },
    };
    let subscribe = ControlMessage::Subscribe {
        request_id: 2,
        track_alias: 2,
        track: dns_track(3),
        filter: FilterType::LatestObject,
    };
    for (msg, decode_row, encode_row) in [
        (
            &fetch,
            "moqt.ctrl_decode_fetch_ns",
            "moqt.ctrl_encode_fetch_ns",
        ),
        (
            &subscribe,
            "moqt.ctrl_decode_subscribe_ns",
            "moqt.ctrl_encode_subscribe_ns",
        ),
    ] {
        let wire = msg.encode();
        r.measure_tight(decode_row, None, 2_000, 1.0, || {
            black_box(ControlMessage::decode(black_box(&wire)).expect("own encoding"));
        });
        r.measure_tight(encode_row, None, 2_000, 1.0, || {
            black_box(black_box(msg).encode());
        });
    }

    let track = dns_track(0);
    r.measure(
        "moqt.session_fetch_rt_ns",
        Some("moqt.session_fetch_rt_allocs"),
        400,
        1.0,
        SessionPair::new,
        |p| p.fetch(&track),
    );

    // Stream-budget burn, counted on a fresh pair.
    let mut p = SessionPair::new();
    let before = p.server_uni_streams;
    for _ in 0..8 {
        p.fetch(&track);
    }
    r.out.layer(
        "quic.uni_streams_per_fetch",
        (p.server_uni_streams - before) as f64 / 8.0,
    );
    let ids = p.subscribe(8);
    let before = p.server_uni_streams;
    p.publish(&ids, 1);
    r.out.layer(
        "quic.uni_streams_per_push",
        (p.server_uni_streams - before) as f64 / 8.0,
    );

    // `Session::publish` to 8 subscriptions of one connection per op.
    r.measure(
        "moqt.session_publish_ns_per_sub",
        Some("moqt.session_publish_allocs_per_sub"),
        100,
        8.0,
        || {
            let mut p = SessionPair::new();
            let ids = p.subscribe(8);
            (p, ids, 0u64)
        },
        |(p, ids, group)| {
            *group += 1;
            p.publish(ids, *group);
        },
    );

    relay_core(r);
}

fn relay_core(r: &mut Rigs<'_>) {
    /// A relay serving `subs` subscribers of track 0, object 17 cached.
    fn warm(subs: usize) -> RelayCore {
        let mut relay = RelayCore::new(4);
        for s in 0..subs {
            relay.on_downstream_subscribe(s as u64, 2, dns_track(0));
        }
        relay.on_upstream_object(&dns_track(0), object(17));
        relay
    }
    let track = dns_track(0);

    r.measure(
        "moqt.relay_fetch_hit_ns",
        None,
        2_000,
        1.0,
        || (warm(1), 0u64),
        |(relay, n)| {
            *n += 2;
            let actions = relay.on_downstream_fetch(7, *n, track.clone(), 0, u64::MAX);
            assert!(matches!(actions[..], [RelayAction::ServeFetch { .. }]));
            black_box(actions);
        },
    );

    // A miss: escalate upstream, then serve the waiter from the result.
    // Each op takes a track the relay has never seen.
    r.measure(
        "moqt.relay_fetch_miss_ns",
        None,
        500,
        1.0,
        || {
            let tracks: Vec<FullTrackName> = (0..500).map(dns_track).collect();
            (RelayCore::new(4), tracks, 0usize)
        },
        |(relay, tracks, n)| {
            let t = &tracks[*n];
            *n += 1;
            let up = relay.on_downstream_fetch(7, 2 * *n as u64, t.clone(), 0, u64::MAX);
            assert!(matches!(up[..], [RelayAction::FetchUpstream { .. }]));
            let served = relay.on_upstream_fetch_result(t, vec![object(17)]);
            assert!(matches!(served[..], [RelayAction::ServeFetch { .. }]));
            black_box((up, served));
        },
    );

    // Coalesced: an upstream fetch is already in flight for the track.
    r.measure(
        "moqt.relay_fetch_coalesced_ns",
        None,
        500,
        1.0,
        || {
            let mut relay = RelayCore::new(4);
            let first = relay.on_downstream_fetch(0, 0, dns_track(1), 0, u64::MAX);
            assert!(matches!(first[..], [RelayAction::FetchUpstream { .. }]));
            (relay, 0u64)
        },
        |(relay, n)| {
            *n += 1;
            let actions = relay.on_downstream_fetch(*n, 2, dns_track(1), 0, u64::MAX);
            assert!(actions.is_empty(), "parked behind the in-flight fetch");
        },
    );

    r.measure(
        "moqt.relay_subscribe_ns",
        None,
        500,
        1.0,
        || (warm(1), 0u64),
        |(relay, n)| {
            *n += 1;
            let actions = relay.on_downstream_subscribe(100 + *n, 2, track.clone());
            assert!(matches!(
                actions[..],
                [RelayAction::AcceptDownstream { .. }]
            ));
            black_box(actions);
        },
    );

    for (row, subs) in [
        ("moqt.relay_fanout_ns_per_sub_64", 64usize),
        ("moqt.relay_fanout_ns_per_sub_512", 512),
    ] {
        r.measure(
            row,
            None,
            200,
            subs as f64,
            || (warm(subs), 17u64),
            |(relay, group)| {
                *group += 1;
                let actions = relay.on_upstream_object(&track, object(*group));
                assert_eq!(actions.len(), subs);
                black_box(actions);
            },
        );
    }
}

fn core(r: &mut Rigs<'_>, seed: u64) {
    let q = question(3);
    r.measure_tight("core.track_from_question_ns", None, 2_000, 1.0, || {
        black_box(track_from_question(black_box(&q), RequestFlags::recursive()).expect("valid"));
    });
    let answer = txt_answer(3);
    r.measure_tight("core.object_from_response_ns", None, 2_000, 1.0, || {
        black_box(object_from_response(black_box(&answer), 42));
    });

    r.measure(
        "core.sim_fetch_rt_ns",
        Some("core.sim_fetch_rt_allocs"),
        400,
        1.0,
        || SimChain::new(seed, 1),
        SimChain::probe,
    );

    const SUBSCRIBERS: usize = 64;
    r.measure(
        "core.sim_push_ns_per_delivery",
        Some("core.sim_push_allocs_per_delivery"),
        100,
        SUBSCRIBERS as f64,
        || SimChain::new(seed, SUBSCRIBERS),
        SimChain::push,
    );
    let chain = SimChain::new(seed, SUBSCRIBERS);
    let relay = chain.sim.node_ref::<RelayNode>(chain.relay);
    r.out.layer(
        "core.relay_state_bytes_per_sub",
        relay.state_size_estimate() as f64 / SUBSCRIBERS as f64,
    );

    r.measure(
        "core.sim_join_ns",
        Some("core.sim_join_allocs"),
        100,
        1.0,
        || SimChain::new(seed, 1),
        |c| c.join(0),
    );
}

fn netsim(r: &mut Rigs<'_>, seed: u64) {
    // The bare event loop: a token circulating a 64-node ring.
    const NODES: usize = 64;
    const HOPS: u64 = 500;
    let mut rates = Vec::new();
    for c in 0..CHUNKS {
        let mut sim = Simulator::new(seed);
        sim.set_default_link(LinkConfig::with_delay(Duration::from_micros(50)));
        let ids: Vec<NodeId> = (0..NODES)
            .map(|i| {
                sim.add_node(
                    format!("n{i}"),
                    Box::new(RingHop {
                        next: None,
                        remaining: HOPS,
                    }),
                )
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            let next = Addr::new(ids[(i + 1) % NODES], 1);
            sim.with_node::<RingHop, _>(id, |n, _| n.next = Some(next));
        }
        sim.with_node::<RingHop, _>(ids[0], |_, ctx| {
            ctx.send(1, Addr::new(ids[1], 1), vec![0u8; 300]);
        });
        let span = r.tr.enter("netsim.event_loop_events_per_s", c as u64 + 1);
        let t0 = Instant::now();
        let events = sim.run_until_idle();
        let secs = t0.elapsed().as_secs_f64();
        r.tr.exit(span);
        rates.push(events as f64 / secs);
    }
    r.out
        .layer("netsim.event_loop_events_per_s", median(&rates));

    // Arm far out, cancel, run: the keep-alive re-arm pattern.
    const TIMERS: u64 = 1_000;
    r.measure(
        "netsim.timer_churn_ns",
        None,
        20,
        TIMERS as f64,
        || {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node("a", Box::new(Echo));
            sim.run_until_idle();
            (sim, a)
        },
        |(sim, a)| {
            let ids: Vec<u64> = sim.with_node::<Echo, _>(*a, |_, ctx| {
                (0..TIMERS)
                    .map(|i| ctx.set_timer(Duration::from_millis(10 + (i % 97)), i))
                    .collect()
            });
            sim.with_node::<Echo, _>(*a, |_, ctx| {
                for id in ids {
                    ctx.cancel_timer(id);
                }
            });
            black_box(sim.run_for(Duration::from_millis(200)));
        },
    );

    // The live bridge: a 64-datagram burst injected and run (an echo node
    // answers each), then the replies drained from the outbox.
    let payload = Payload::new(vec![0xEE; 100]);
    let (mut inject_ns, mut outbound_ns) = (Vec::new(), Vec::new());
    for c in 0..CHUNKS {
        let mut live = LiveSim::new(seed);
        let echo = live.add_node("echo", Box::new(Echo));
        let remote = live.add_remote();
        let mut out = Vec::with_capacity(MAX_BATCH);
        let mut now = SimTime::from_millis(1);
        live.run_until(now);
        let span =
            r.tr.enter("netsim.live_inject_run_ns_per_dgram", c as u64 + 1);
        let (mut i_ns, mut o_ns) = (0u64, 0u64);
        const BURSTS: u64 = 200;
        for _ in 0..BURSTS {
            now += Duration::from_micros(100);
            let t0 = Instant::now();
            live.run_until(now);
            for _ in 0..MAX_BATCH {
                live.inject(
                    Addr::new(remote, MOQT_PORT),
                    Addr::new(echo, MOQT_PORT),
                    payload.clone(),
                );
            }
            live.run_until(now);
            i_ns += t0.elapsed().as_nanos() as u64;
            out.clear();
            let t0 = Instant::now();
            let n = live.take_outbound_into(&mut out);
            o_ns += t0.elapsed().as_nanos() as u64;
            assert_eq!(n, MAX_BATCH);
        }
        r.tr.exit(span);
        let dgrams = (BURSTS * MAX_BATCH as u64) as f64;
        inject_ns.push(i_ns as f64 / dgrams);
        outbound_ns.push(o_ns as f64 / dgrams);
    }
    r.out
        .layer("netsim.live_inject_run_ns_per_dgram", median(&inject_ns));
    r.out.layer(
        "netsim.live_take_outbound_ns_per_dgram",
        median(&outbound_ns),
    );
}

/// `LiveHost::with_core(|_| {})` on an idle host: the core lock, two
/// `run_until`s and the outbound staging a control-thread call pays.
fn netio(r: &mut Rigs<'_>, seed: u64) -> Result<(), String> {
    let mut core = HostCore::new(seed, false);
    let node = core.live().add_node("idle", Box::new(Echo));
    let sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let host = LiveHost::start(core, vec![sock], vec![vec![node]]);
    r.measure_tight("netio.with_core_idle_ns", None, 2_000, 1.0, || {
        host.with_core(|_| {});
    });
    if !host.stop() {
        return Err("netio rig: worker did not stop cleanly".into());
    }
    Ok(())
}

/// Runs every rig, adding its rows to `out`.
pub fn run_all(seed: u64, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut r = Rigs { tr, out };
    wire(&mut r, seed);
    dns(&mut r);
    quic(&mut r);
    udp_batch(&mut r)?;
    moqt(&mut r);
    core(&mut r, seed);
    netsim(&mut r, seed);
    netio(&mut r, seed)
}
