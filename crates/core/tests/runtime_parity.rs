//! Sim and live are the same system — shown, not assumed.
//!
//! One script (a stub's `lookup` through a `RelayNode` to an `AuthServer`,
//! one `update_zone` round, a quiet half-minute in which only keep-alive
//! timers put anything on the wire, one `probe`) runs twice with the same
//! seeds: on a [`Simulator`] whose links are instant and unlimited, and on
//! three [`LiveRuntime`]s — one node each, as three daemons would be —
//! shuttled back to back in process with a hand-stepped clock and no
//! sockets. Every node sits behind a [`Tap`] in both worlds. Per directed
//! pair (here: per connection and direction) the datagrams must be the
//! same bytes at the same instants, and the stub must end with the same
//! answer, versions and latencies.
//!
//! The live driver below moves a runtime's clock the way an io driver
//! does — `inject`, then `run_until` — and only when that runtime has
//! something to do, so a node's due timer and a datagram for it meet in
//! one `run_until` call (both ends of a connection arm their keep-alive
//! off the same instant). The two worlds then agree only while both fire
//! due timers before same-instant datagrams.

use moqdns_core::{AuthServer, RelayNode, StubMode, StubResolver, MOQT_PORT};
use moqdns_dns::message::Question;
use moqdns_dns::name::Name;
use moqdns_dns::rdata::RData;
use moqdns_dns::rr::{Record, RecordType};
use moqdns_dns::server::Authority;
use moqdns_dns::zone::Zone;
use moqdns_netsim::{
    Addr, Ctx, LinkConfig, LiveRuntime, Node, NodeId, OutboundDatagram, Payload, SimTime, Simulator,
};
use moqdns_quic::TransportConfig;
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;

/// Node ids, the same in both worlds.
const AUTH: usize = 0;
const RELAY: usize = 1;
const STUB: usize = 2;

/// Passes everything through to `inner`, flushes included, logging each
/// arriving datagram with the clock it arrived at.
struct Tap<N: Node> {
    inner: N,
    log: Vec<(SimTime, NodeId, Payload)>,
}

impl<N: Node> Node for Tap<N> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, to: u16, d: Payload) {
        self.log.push((ctx.now(), from.node, d.clone()));
        self.inner.on_datagram(ctx, from, to, d);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.inner.on_timer(ctx, token);
    }
    fn on_flush(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_flush(ctx);
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

fn tap<N: Node>(inner: N) -> Box<dyn Node> {
    Box::new(Tap {
        inner,
        log: Vec::new(),
    })
}

fn name() -> Name {
    "www.example.com".parse().unwrap()
}

fn question() -> Question {
    Question::new(name(), RecordType::A)
}

fn record(last: u8) -> Record {
    Record::new(name(), 30, RData::A(Ipv4Addr::new(192, 0, 2, last)))
}

/// The node with id `id`, built the same way for either world.
fn node(id: usize) -> Box<dyn Node> {
    let peer = |id: usize| Addr::new(NodeId::from_index(id), MOQT_PORT);
    match id {
        AUTH => {
            let mut zone = Zone::with_default_soa("example.com".parse().unwrap());
            zone.add_record(record(1));
            let transport = TransportConfig::default();
            tap(AuthServer::new(Authority::single(zone), transport, 1))
        }
        RELAY => tap(RelayNode::new(peer(AUTH), 4, 2)),
        STUB => tap(StubResolver::new(StubMode::Moqt, peer(RELAY), 3)),
        _ => unreachable!(),
    }
}

/// What the script needs from a world.
trait World {
    /// Runs everything up to and including `to`.
    fn advance(&mut self, to: SimTime);
    /// Calls a verb on node `id` at the current time.
    fn verb<N: Node, R>(&mut self, id: usize, f: impl FnOnce(&mut N, &mut Ctx<'_>) -> R) -> R;
    fn tap<N: Node>(&self, id: usize) -> &Tap<N>;
}

impl World for Simulator {
    fn advance(&mut self, to: SimTime) {
        self.run_until(to);
    }
    fn verb<N: Node, R>(&mut self, id: usize, f: impl FnOnce(&mut N, &mut Ctx<'_>) -> R) -> R {
        self.with_node::<Tap<N>, _>(NodeId::from_index(id), |t, ctx| f(&mut t.inner, ctx))
    }
    fn tap<N: Node>(&self, id: usize) -> &Tap<N> {
        self.node_ref(NodeId::from_index(id))
    }
}

/// Three live runtimes, one node each, and the wires between them: what a
/// node sent waits in its queue until the driver carries it over.
struct Live {
    rt: Vec<LiveRuntime>,
    wires: Vec<VecDeque<OutboundDatagram>>,
    now: SimTime,
    scratch: Vec<OutboundDatagram>,
}

impl Live {
    fn new() -> Live {
        let rt = (0..3)
            .map(|local| {
                let mut rt = LiveRuntime::new(7);
                for id in 0..3 {
                    let got = if id == local {
                        rt.add_node(format!("n{id}"), node(id))
                    } else {
                        rt.add_remote()
                    };
                    assert_eq!(got.index(), id);
                }
                assert_eq!(rt.run_until(SimTime::ZERO), 1, "on_start, at time zero");
                rt
            })
            .collect();
        Live {
            rt,
            wires: vec![VecDeque::new(); 3],
            now: SimTime::ZERO,
            scratch: Vec::new(),
        }
    }

    /// Moves what runtime `k` parked onto its wire.
    fn collect(&mut self, k: usize) {
        self.rt[k].take_outbound_into(&mut self.scratch);
        self.wires[k].extend(self.scratch.drain(..));
    }

    /// Links are instant: carries datagrams until the wires are empty,
    /// lowest sender first and in order per sender (the simulator's
    /// tie-break among same-instant deliveries). A receiver is driven the
    /// way an io driver drives it: `inject`, then `run_until`.
    fn carry(&mut self, t: SimTime) {
        while let Some(dg) = self.wires.iter_mut().find_map(VecDeque::pop_front) {
            let k = dg.to.node.index();
            self.rt[k].inject(dg.from, dg.to, dg.payload);
            self.rt[k].run_until(t);
            self.collect(k);
        }
    }

    /// Everything that happens at instant `t`: what a verb just sent,
    /// then each runtime with a timer due — highest id first, carrying
    /// what it sent before the next one's clock moves, so the stub's
    /// keep-alive reaches the relay while the relay's own is still due.
    fn instant(&mut self, t: SimTime) {
        self.carry(t);
        for k in (0..3).rev() {
            if self.rt[k].next_event_at().is_some_and(|at| at <= t) {
                self.rt[k].run_until(t);
                self.collect(k);
                self.carry(t);
            }
        }
    }
}

impl World for Live {
    fn advance(&mut self, to: SimTime) {
        let mut t = self.now;
        loop {
            self.instant(t);
            let next = self.rt.iter().filter_map(|r| r.next_event_at()).min();
            match next {
                Some(at) if at <= to => t = at,
                _ => break,
            }
        }
        for rt in &mut self.rt {
            assert_eq!(rt.run_until(to), 0, "nothing was left to do before {to:?}");
        }
        self.now = to;
    }
    fn verb<N: Node, R>(&mut self, id: usize, f: impl FnOnce(&mut N, &mut Ctx<'_>) -> R) -> R {
        let r = self.rt[id]
            .with_node::<Tap<N>, _>(NodeId::from_index(id), |t, ctx| f(&mut t.inner, ctx));
        self.collect(id);
        r
    }
    fn tap<N: Node>(&self, id: usize) -> &Tap<N> {
        self.rt[id].node_ref(NodeId::from_index(id))
    }
}

/// `(arrival, bytes)` per directed pair `(from, to)`, in arrival order.
type Wire = BTreeMap<(usize, usize), Vec<(SimTime, Vec<u8>)>>;

#[derive(Debug, PartialEq)]
struct Outcome {
    wire: Wire,
    answer: Vec<Record>,
    /// Per completed lookup: ok, version, started, finished.
    lookups: Vec<(bool, Option<u64>, SimTime, SimTime)>,
    /// Per pushed update: version, arrival.
    updates: Vec<(u64, SimTime)>,
}

fn run(w: &mut impl World) -> Outcome {
    let ms = SimTime::from_millis;
    w.advance(ms(10));
    w.verb::<StubResolver, _>(STUB, |s, ctx| s.lookup(ctx, question()));
    w.advance(ms(20));
    w.verb::<AuthServer, _>(AUTH, |a, ctx| {
        a.update_zone(ctx, |authority| {
            let zone = authority.find_zone_mut(&name()).unwrap();
            zone.set_records(&name(), RecordType::A, vec![record(2)]);
        })
    });
    // Past the 25 s keep-alives of both connections.
    w.advance(SimTime::from_secs(40));
    let probed = w.verb::<StubResolver, _>(STUB, |s, ctx| s.probe(ctx, question()));
    assert!(probed, "the stub's session is up");
    w.advance(SimTime::from_secs(41));

    let mut wire = Wire::new();
    let mut read = |to: usize, log: &[(SimTime, NodeId, Payload)]| {
        for (at, from, d) in log {
            let pair = wire.entry((from.index(), to)).or_default();
            pair.push((*at, d.to_vec()));
        }
    };
    read(AUTH, &w.tap::<AuthServer>(AUTH).log);
    read(RELAY, &w.tap::<RelayNode>(RELAY).log);
    read(STUB, &w.tap::<StubResolver>(STUB).log);
    let stub = &w.tap::<StubResolver>(STUB).inner;
    Outcome {
        wire,
        answer: stub.answer(&question()).expect("answered").to_vec(),
        lookups: (stub.metrics.lookups.iter())
            .map(|l| (l.ok, l.version, l.started, l.finished))
            .collect(),
        updates: (stub.metrics.updates.iter())
            .map(|u| (u.version, u.received))
            .collect(),
    }
}

#[test]
fn one_script_two_worlds_same_bytes() {
    let mut sim = Simulator::new(7);
    sim.set_default_link(LinkConfig::instant());
    for id in 0..3 {
        assert_eq!(sim.add_node(format!("n{id}"), node(id)).index(), id);
    }
    let on_sim = run(&mut sim);
    let on_live = run(&mut Live::new());

    // The script did what it says before the comparison means anything.
    assert_eq!(
        on_sim.answer,
        [record(2)],
        "the pushed update is the answer"
    );
    assert_eq!(on_sim.lookups.len(), 2, "the lookup and the probe");
    assert!(on_sim.lookups.iter().all(|l| l.0));
    assert_eq!(on_sim.updates.len(), 1);
    for pair in [(STUB, RELAY), (RELAY, STUB), (RELAY, AUTH), (AUTH, RELAY)] {
        let flights = &on_sim.wire[&pair];
        assert!(
            flights.iter().any(|(at, _)| *at > SimTime::from_secs(20))
                && flights.iter().any(|(at, _)| *at < SimTime::from_secs(1)),
            "{pair:?} carried the script and a keep-alive"
        );
    }
    assert_eq!(on_sim.wire.len(), 4, "two connections, two directions each");

    for (pair, flights) in &on_sim.wire {
        assert_eq!(
            Some(flights),
            on_live.wire.get(pair),
            "datagrams {pair:?} differ between the simulator and the live runtime"
        );
    }
    assert_eq!(on_sim, on_live);
}
