//! The load generator: one thread, at most two UDP sockets, many
//! [`StubResolver`]s behind them.
//!
//! It is a single-threaded copy of what `relayd::netio::worker_loop`
//! does, built from the same public calls — [`RecvBatcher`] /
//! [`SendBatcher`] for the sockets, [`peek_dcid`] to demux inbound
//! datagrams to the stub that owns the connection, and a [`LiveSim`]
//! hosting the stubs — but with no lock and no worker threads, so every
//! completion is seen exactly once, in the iteration that produced it,
//! and no generator-side contention leaks into the latencies.
//!
//! One [`Generator::pump`] is one iteration: flush what the stubs want to
//! send, wait for the sockets (bounded by the next protocol timer), read
//! one burst per ready socket, inject it, run the stubs, flush again and
//! collect what completed. Each of those calls is wrapped in a span
//! (`wait`, `recv_burst`, `run_until`, `inject`, `take_outbound_into`,
//! `send_burst`, `complete`, all under `pump`) when tracing is on.

use crate::trace::Tracer;
use moqdns_core::metrics::{LookupSample, UpdateSample};
use moqdns_core::stub::{StubMode, StubResolver};
use moqdns_core::teardown::TeardownPolicy;
use moqdns_core::MOQT_PORT;
use moqdns_dns::message::Question;
use moqdns_dns::rdata::RData;
use moqdns_dns::rr::{Record, RecordType};
use moqdns_netsim::{Addr, Ctx, LiveSim, NodeId, OutboundDatagram, Payload, SimTime};
use moqdns_quic::packet::peek_dcid;
use moqdns_quic::udp_batch::{RecvBatcher, SendBatcher};
use moqdns_quic::TransportConfig;
use moqdns_relayd::daemon::{track_name, unix_nanos};
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Server-opened uni streams a connection may carry in a benchmark run.
/// A connection stops carrying objects after its 1024th
/// (`TransportConfig::max_streams`, never replenished — see README
/// "Known limits"); the run aborts above this instead of hanging there.
pub const STREAM_BUDGET: u32 = 900;

/// Sockets the generator opens (the box has two hardware threads).
pub const SOCKETS: usize = 2;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 1;

const SOL_SOCKET: i32 = 1;
const SO_RCVBUF: i32 = 8;
/// Receive buffer asked for on each generator socket (the kernel doubles
/// it and caps it at `net.core.rmem_max`).
const RCVBUF_BYTES: i32 = 2 << 20;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

/// Asks for a receive buffer that holds whole fan-out bursts. With the
/// default (208 KB) a 256-datagram burst overflows the socket whenever
/// this process is descheduled for a few milliseconds mid-burst; the
/// retransmitted stream then arrives after its successor, and the run
/// measures the box's stalls instead of the relay. Best effort.
fn grow_rcvbuf(socket: &UdpSocket) {
    // SAFETY: the fd belongs to `socket`, which outlives the call; the
    // kernel reads one `i32` from the pointer, whose size is passed along.
    unsafe {
        setsockopt(
            socket.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            &RCVBUF_BYTES,
            std::mem::size_of::<i32>() as u32,
        );
    }
}

/// The auth's published payload `["v=<round>", "ts=<unix nanos>"]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Txt {
    pub v: u64,
    pub ts_ns: u128,
}

/// Parses the TXT strings the auth daemon publishes out of an answer.
pub fn parse_txt(records: &[Record]) -> Option<Txt> {
    records.iter().find_map(|r| {
        let RData::TXT(strings) = &r.rdata else {
            return None;
        };
        let field = |prefix: &str| {
            strings.iter().find_map(|s| {
                std::str::from_utf8(s)
                    .ok()?
                    .strip_prefix(prefix)?
                    .parse::<u128>()
                    .ok()
            })
        };
        Some(Txt {
            v: field("v=")? as u64,
            ts_ns: field("ts=")?,
        })
    })
}

/// The daemons' default zone; the auth publishes `t<i>.<ZONE>`.
pub const ZONE: &str = "live.moqdns.test";

/// The TXT question for track `i` (the daemon's own naming).
pub fn question(track: usize) -> Question {
    Question::new(track_name(ZONE, track), RecordType::TXT)
}

/// Something a stub finished, seen by the pump that produced it.
pub enum Done {
    /// A `lookup`/`probe` was answered (or refused).
    Lookup {
        stub: usize,
        sample: LookupSample,
        /// The stub's answer for the question, as parsed TXT.
        txt: Option<Txt>,
    },
    /// A pushed update arrived on a subscription.
    Push {
        stub: usize,
        sample: UpdateSample,
        /// The stub's answer after the push, as parsed TXT.
        txt: Option<Txt>,
        /// A later push of the same question was harvested in the same
        /// pump, so this one's payload can no longer be read (`txt` is
        /// `None`).
        superseded: bool,
    },
}

/// Wire and loop counters, both directions, whole generator lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub rx_dgrams: u64,
    pub tx_dgrams: u64,
    pub rx_bytes: u64,
    pub tx_bytes: u64,
    /// Inbound datagrams no stub owns (must stay 0).
    pub unrouted: u64,
    /// `recv_burst` calls that returned at least one datagram.
    pub recv_calls: u64,
    /// Events the generator's own `LiveSim` executed.
    pub sim_events: u64,
}

impl Counters {
    pub fn dgrams(&self) -> u64 {
        self.rx_dgrams + self.tx_dgrams
    }
    pub fn bytes(&self) -> u64 {
        self.rx_bytes + self.tx_bytes
    }
}

/// See the module docs.
pub struct Generator {
    live: LiveSim,
    epoch: Instant,
    /// Unix time at `epoch`, to place stub receipt times on the auth's clock.
    epoch_unix_ns: u128,
    sockets: Vec<UdpSocket>,
    pollfds: Vec<PollFd>,
    recv: RecvBatcher,
    send: SendBatcher,
    server: Addr,
    server_sa: SocketAddr,
    transport: TransportConfig,
    seed: u64,
    stubs: Vec<NodeId>,
    /// Server-opened uni streams charged to each stub's connection.
    streams: Vec<u32>,
    dcid_owner: HashMap<u64, usize>,
    inbox: Vec<(SocketAddr, Payload)>,
    outbound: Vec<OutboundDatagram>,
    staged: Vec<Vec<(SocketAddr, Payload)>>,
    /// Stubs that received a datagram in the current pump.
    touched: Vec<usize>,
    touched_in: Vec<u64>,
    pumps: u64,
    /// Completions of the last pump (cleared by the next).
    pub done: Vec<Done>,
    pub c: Counters,
}

impl Generator {
    /// A generator aimed at the daemon listening on `server`.
    pub fn new(seed: u64, server: SocketAddr) -> Result<Generator, String> {
        let mut live = LiveSim::new(seed);
        // Slot 0 is the daemon; stub `i` is node `i + 1`.
        let remote = live.add_remote();
        let mut sockets = Vec::new();
        let mut pollfds = Vec::new();
        for _ in 0..SOCKETS {
            let s = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
            s.set_nonblocking(true)
                .map_err(|e| format!("nonblocking: {e}"))?;
            grow_rcvbuf(&s);
            pollfds.push(PollFd {
                fd: s.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            sockets.push(s);
        }
        Ok(Generator {
            live,
            epoch: Instant::now(),
            epoch_unix_ns: unix_nanos(),
            sockets,
            pollfds,
            recv: RecvBatcher::new(),
            send: SendBatcher::new(),
            server: Addr::new(remote, MOQT_PORT),
            server_sa: server,
            // The loadgen's client transport: patient idle, 25 s keep-alive.
            transport: TransportConfig::default()
                .idle_timeout(Duration::from_secs(3600))
                .keep_alive(Duration::from_secs(25)),
            seed,
            stubs: Vec::new(),
            streams: Vec::new(),
            dcid_owner: HashMap::new(),
            inbox: Vec::new(),
            outbound: Vec::new(),
            staged: (0..SOCKETS).map(|_| Vec::new()).collect(),
            touched: Vec::new(),
            touched_in: Vec::new(),
            pumps: 0,
            done: Vec::new(),
            c: Counters::default(),
        })
    }

    /// Adds one stub (its own QUIC connection once it looks something up)
    /// and returns its index. The stack seed — and so its connection ids
    /// — derives from the generator seed.
    pub fn add_stub(&mut self) -> usize {
        let i = self.stubs.len();
        let stub = StubResolver::with_transport(
            StubMode::Moqt,
            self.server,
            moqdns_netsim::splitmix64(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            TeardownPolicy::Never,
            self.transport.clone(),
        );
        let id = self.live.add_node(format!("stub{i}"), Box::new(stub));
        assert_eq!(id.index(), i + 1, "stub i is node i + 1");
        self.stubs.push(id);
        self.streams.push(0);
        self.touched_in.push(0);
        i
    }

    pub fn stub_count(&self) -> usize {
        self.stubs.len()
    }

    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    fn sim_now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Unix nanoseconds at the stubs' time zero: add a stub-side timestamp
    /// to place it on the auth's clock.
    pub fn epoch_unix_ns(&self) -> u128 {
        self.epoch_unix_ns
    }

    /// Brings the stubs' clock to wall time and returns it; call before
    /// issuing (ops issued next are stamped with this time).
    pub fn sync_clock(&mut self) -> SimTime {
        let now = self.sim_now();
        self.c.sim_events += self.live.run_until(now);
        self.live.now()
    }

    fn charge(&mut self, stub: usize) -> Result<(), String> {
        self.streams[stub] += 1;
        if self.streams[stub] > STREAM_BUDGET {
            return Err(format!(
                "stream budget: stub {stub} would exceed {STREAM_BUDGET} server-opened uni streams"
            ));
        }
        Ok(())
    }

    fn with_stub<R>(
        &mut self,
        stub: usize,
        f: impl FnOnce(&mut StubResolver, &mut Ctx<'_>) -> R,
    ) -> R {
        self.live.with_node(self.stubs[stub], f)
    }

    /// A question `stub` is subscribed to (the one with the lowest id).
    pub fn a_subscription(&self, stub: usize) -> Option<Question> {
        let node: &StubResolver = self.live.node_ref(self.stubs[stub]);
        node.subscribed_questions().into_iter().next()
    }

    /// `StubResolver::lookup`: connect if needed, SUBSCRIBE + joining FETCH.
    pub fn lookup(&mut self, stub: usize, q: &Question) -> Result<(), String> {
        self.charge(stub)?;
        self.with_stub(stub, |s, ctx| s.lookup(ctx, q.clone()));
        Ok(())
    }

    /// `StubResolver::probe`: one standalone FETCH, a full round-trip.
    /// `Ok(false)` when the stub's session is not up.
    pub fn probe(&mut self, stub: usize, q: &Question) -> Result<bool, String> {
        self.charge(stub)?;
        Ok(self.with_stub(stub, |s, ctx| s.probe(ctx, q.clone())))
    }

    /// Drains the stubs' parked datagrams to the sockets.
    fn flush(&mut self, tr: &mut Tracer) {
        let span = tr.enter("take_outbound_into", 0);
        self.outbound.clear();
        let n = self.live.take_outbound_into(&mut self.outbound);
        tr.exit(span);
        if n == 0 {
            return;
        }
        for dg in self.outbound.drain(..) {
            let stub = dg.from.node.index() - 1;
            // The connection id is the same in both directions and the
            // client speaks first, so the entry exists before any reply.
            if let Some(dcid) = peek_dcid(&dg.payload) {
                self.dcid_owner.entry(dcid).or_insert(stub);
            }
            self.c.tx_bytes += dg.payload.len() as u64;
            self.staged[stub % SOCKETS].push((self.server_sa, dg.payload));
        }
        let span = tr.enter("send_burst", 0);
        for (k, frames) in self.staged.iter_mut().enumerate() {
            if !frames.is_empty() {
                self.c.tx_dgrams += self.send.send_burst(&self.sockets[k], frames);
                frames.clear();
            }
        }
        tr.exit(span);
    }

    /// How long the sockets may be waited on: `max_wait`, cut short by the
    /// next protocol timer. `poll` counts in milliseconds, so a timer less
    /// than a millisecond away still waits one.
    fn wait_ms(&mut self, max_wait: Duration) -> i32 {
        let now = self.sim_now();
        let wait = match self.live.next_event_at() {
            Some(at) => {
                Duration::from_nanos(at.as_nanos().saturating_sub(now.as_nanos())).min(max_wait)
            }
            None => max_wait,
        };
        wait.as_nanos().div_ceil(1_000_000) as i32
    }

    /// One loop iteration (see the module docs). Afterwards `self.done`
    /// holds what completed in it.
    pub fn pump(&mut self, max_wait: Duration, tr: &mut Tracer) -> Result<(), String> {
        let pump = tr.enter("pump", 0);
        self.pumps += 1;
        self.done.clear();
        self.flush(tr);

        let timeout_ms = self.wait_ms(max_wait);
        let span = tr.enter("wait", 0);
        // SAFETY: `pollfds` is a live Vec of `SOCKETS` initialised `PollFd`s
        // whose layout matches `struct pollfd`; the fds belong to sockets
        // this struct owns; the kernel writes only `revents`.
        let ready = unsafe {
            poll(
                self.pollfds.as_mut_ptr(),
                self.pollfds.len() as std::ffi::c_ulong,
                timeout_ms,
            )
        };
        tr.exit(span);

        self.inbox.clear();
        if ready > 0 {
            for k in 0..self.sockets.len() {
                if self.pollfds[k].revents & POLLIN == 0 {
                    continue;
                }
                let span = tr.enter("recv_burst", 0);
                let got = self.recv.recv_burst(&self.sockets[k], &mut self.inbox);
                tr.exit(span);
                let got = got.map_err(|e| format!("recv on socket {k}: {e}"))?;
                if got > 0 {
                    self.c.recv_calls += 1;
                    self.c.rx_dgrams += got as u64;
                }
            }
        }

        let now = self.sim_now();
        let span = tr.enter("run_until", 0);
        self.c.sim_events += self.live.run_until(now);
        tr.exit(span);

        self.touched.clear();
        if !self.inbox.is_empty() {
            let span = tr.enter("inject", 0);
            for (from, payload) in self.inbox.drain(..) {
                self.c.rx_bytes += payload.len() as u64;
                let owner = if from == self.server_sa {
                    peek_dcid(&payload).and_then(|d| self.dcid_owner.get(&d).copied())
                } else {
                    None
                };
                let Some(stub) = owner else {
                    self.c.unrouted += 1;
                    continue;
                };
                if self.touched_in[stub] != self.pumps {
                    self.touched_in[stub] = self.pumps;
                    self.touched.push(stub);
                }
                self.live
                    .inject(self.server, Addr::new(self.stubs[stub], MOQT_PORT), payload);
            }
            tr.exit(span);
            let span = tr.enter("run_until", 0);
            self.c.sim_events += self.live.run_until(now);
            tr.exit(span);
        }

        self.flush(tr);

        let span = tr.enter("complete", 0);
        let harvested = self.harvest();
        tr.exit(span);
        tr.exit(pump);
        harvested
    }

    /// Moves the touched stubs' new samples into `self.done`.
    fn harvest(&mut self) -> Result<(), String> {
        for i in 0..self.touched.len() {
            let stub = self.touched[i];
            let done = &mut self.done;
            let pushes = self
                .live
                .with_node(self.stubs[stub], |s: &mut StubResolver, _| {
                    if s.metrics.lookups.is_empty() && s.metrics.updates.is_empty() {
                        return 0;
                    }
                    let lookups: Vec<LookupSample> = s.metrics.lookups.drain(..).collect();
                    for sample in lookups {
                        let txt = s.answer(&sample.question).and_then(parse_txt);
                        done.push(Done::Lookup { stub, sample, txt });
                    }
                    let updates: Vec<UpdateSample> = s.metrics.updates.drain(..).collect();
                    let pushes = updates.len();
                    // The stub keeps only the newest answer per question: when
                    // a stall let two pushes of one question pile up, only the
                    // last of them can still be read back.
                    let superseded: Vec<bool> = (0..pushes)
                        .map(|i| {
                            updates[i + 1..]
                                .iter()
                                .any(|later| later.question == updates[i].question)
                        })
                        .collect();
                    for (sample, superseded) in updates.into_iter().zip(superseded) {
                        let txt = if superseded {
                            None
                        } else {
                            s.answer(&sample.question).and_then(parse_txt)
                        };
                        done.push(Done::Push {
                            stub,
                            sample,
                            txt,
                            superseded,
                        });
                    }
                    pushes
                });
            // Each pushed object arrived on its own server-opened stream.
            for _ in 0..pushes {
                self.charge(stub)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txt(strings: &[&str]) -> Record {
        Record::new(
            "t0.live.moqdns.test".parse().unwrap(),
            60,
            RData::TXT(strings.iter().map(|s| s.as_bytes().to_vec()).collect()),
        )
    }

    #[test]
    fn parses_the_auths_txt_payload() {
        let r = [txt(&["v=17", "ts=1700000000123456789"])];
        assert_eq!(
            parse_txt(&r),
            Some(Txt {
                v: 17,
                ts_ns: 1_700_000_000_123_456_789
            })
        );
        // Order of the strings does not matter; a missing one does.
        assert!(parse_txt(&[txt(&["ts=5", "v=2"])]).is_some());
        assert_eq!(parse_txt(&[txt(&["v=2"])]), None);
        assert_eq!(parse_txt(&[]), None);
    }

    #[test]
    fn stream_budget_aborts_instead_of_hanging() {
        let mut g = Generator::new(1, "127.0.0.1:9".parse().unwrap()).unwrap();
        let s = g.add_stub();
        for _ in 0..STREAM_BUDGET {
            g.charge(s).unwrap();
        }
        assert_eq!(g.streams[s], STREAM_BUDGET);
        assert!(g.charge(s).unwrap_err().contains("stream budget"));
    }
}
