//! Adversarial drill nodes (ISSUE 6 hardening fleet).
//!
//! Three deliberately hostile [`Node`] implementations that attack a relay
//! from the *outside*, through the same QUIC+MoQT stack honest nodes use:
//!
//! - [`ByzantineNode`] — speaks just enough MoQT to handshake, then feeds
//!   the relay garbage control bytes, object datagrams with bogus track
//!   aliases, and duplicate request ids. The relay must poison the session
//!   (counting a violation) and close it; the byzantine node reconnects and
//!   starts over.
//! - [`SlowLorisNode`] — subscribes to every track, then blackholes: it
//!   stops processing (or acking) anything the relay sends. The relay's
//!   per-session send state grows with every pushed update until the
//!   backlog bound evicts the session.
//! - [`FetchBombNode`] — stampedes the relay with standalone FETCHes for
//!   distinct cold tracks, blowing through the per-session fetch budget.
//!   The relay must throttle (REQUEST_BLOCKED-style rejection) and finally
//!   evict the session.
//!
//! All three are deterministic: attack cadence comes from sim timers, not
//! RNG, so the adversarial scenario's counters are baseline-able in CI.
//! None of them touch relay internals — every attack travels the wire.

use crate::stack::{MoqtStack, StackEvent, StackNode};
use moqdns_dns::message::Question;
use moqdns_moqt::data::{Object, ObjectDatagram};
use moqdns_moqt::message::{ControlMessage, FilterType};
use moqdns_moqt::session::SessionEvent;
use moqdns_moqt::track::FullTrackName;
use moqdns_netsim::{Addr, Ctx, Node, Payload};
use moqdns_quic::{ConnHandle, TransportConfig};
use std::any::Any;
use std::time::Duration;

/// Timer token the drill nodes use for their attack cadence (distinct from
/// [`crate::stack::TOKEN_QUIC`], which is routed into the stack).
pub const TOKEN_ATTACK: u64 = (1 << 56) + 1;

fn adversary_transport() -> TransportConfig {
    TransportConfig::patient()
}

/// Builds the track an adversary targets from a DNS question, the same way
/// honest stubs do, so hostile requests traverse identical relay code.
fn track_for(q: &Question) -> FullTrackName {
    crate::mapping::track_from_question(q, crate::mapping::RequestFlags::iterative())
        .expect("adversary question maps to a track")
}

// ---------------------------------------------------------------------
// Byzantine
// ---------------------------------------------------------------------

/// A protocol liar: handshakes honestly, then cycles through three attacks
/// per tick — garbage control bytes, bogus-alias datagrams, and duplicate
/// request ids. Reconnects whenever the relay (correctly) closes it.
pub struct ByzantineNode {
    stack: MoqtStack,
    target: Addr,
    interval: Duration,
    conn: Option<ConnHandle>,
    tick: u64,
    /// Garbage control-byte bursts injected.
    pub garbage_bursts: u64,
    /// Datagrams sent with a track alias the relay never granted.
    pub bogus_datagrams: u64,
    /// Duplicate-request-id SUBSCRIBEs injected.
    pub duplicate_requests: u64,
    /// Times the relay closed our session (poisoned it).
    pub closed_by_peer: u64,
    /// Reconnect attempts after a close.
    pub reconnects: u64,
}

impl ByzantineNode {
    /// A byzantine client attacking `target` every `interval`.
    pub fn new(target: Addr, interval: Duration, seed: u64) -> ByzantineNode {
        ByzantineNode {
            stack: MoqtStack::client(adversary_transport(), seed),
            target,
            interval,
            conn: None,
            tick: 0,
            garbage_bursts: 0,
            bogus_datagrams: 0,
            duplicate_requests: 0,
            closed_by_peer: 0,
            reconnects: 0,
        }
    }

    fn attack(&mut self, ctx: &mut Ctx<'_>) {
        let Some(h) = self.conn else {
            self.conn = self.stack.connect(ctx.now(), self.target, false);
            self.reconnects += 1;
            return;
        };
        let ready = self.stack.session(h).is_some_and(|s| s.is_ready());
        if ready {
            let step = self.tick % 3;
            self.tick += 1;
            let (sess, conn) = self.stack.session_conn(h).expect("live session");
            match step {
                0 => {
                    // A complete frame (type 0x3f, 4-byte body) carrying a
                    // message type that does not exist: the relay must
                    // poison, never resynchronize. The frame is complete on
                    // arrival so the decoder cannot sidestep it by waiting
                    // for more bytes.
                    let mut junk = vec![0x3f, 0x04];
                    junk.extend_from_slice(&[0xaa; 4]);
                    sess.inject_raw_control(conn, &junk);
                    self.garbage_bursts += 1;
                }
                1 => {
                    // An object on a track alias no SUBSCRIBE established.
                    // Unauthenticated noise: dropped and counted, not fatal.
                    let dg = ObjectDatagram {
                        track_alias: 0xbadd,
                        object: Object {
                            group_id: self.tick,
                            object_id: 0,
                            payload: b"forged".to_vec().into(),
                        },
                    };
                    let _ = conn.send_datagram(dg.encode());
                    self.bogus_datagrams += 1;
                }
                _ => {
                    // The same request id twice: a well-formed lie the
                    // state machine must catch as a violation.
                    let q = Question::new(
                        "dup.adv.example".parse().expect("name"),
                        moqdns_dns::rr::RecordType::A,
                    );
                    let sub = ControlMessage::Subscribe {
                        request_id: 2,
                        track_alias: 2,
                        track: track_for(&q),
                        filter: FilterType::LatestObject,
                    };
                    let mut bytes = sub.encode();
                    bytes.extend(sub.encode());
                    sess.inject_raw_control(conn, &bytes);
                    self.duplicate_requests += 1;
                }
            }
        }
    }
}

impl StackNode for ByzantineNode {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }

    fn handle_events(&mut self, _ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        for ev in events {
            if let StackEvent::Closed(h) = ev {
                if self.conn == Some(h) {
                    self.conn = None;
                    self.closed_by_peer += 1;
                }
            }
        }
    }
}

impl Node for ByzantineNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.conn = self.stack.connect(ctx.now(), self.target, false);
        ctx.set_timer(self.interval, TOKEN_ATTACK);
        self.end_turn(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, _to: u16, data: Payload) {
        self.stack.on_datagram(ctx.now(), from, &data);
        self.end_turn(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOKEN_ATTACK {
            self.attack(ctx);
            ctx.set_timer(self.interval, TOKEN_ATTACK);
        } else {
            self.stack.on_timer(ctx.now());
        }
        self.end_turn(ctx);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// Slow loris
// ---------------------------------------------------------------------

/// A subscriber that never drains: it subscribes to every track, then goes
/// silent — incoming datagrams are swallowed without reaching the QUIC
/// stack, so nothing is ever acknowledged. The relay's per-session send
/// state grows with each pushed update until the backlog bound evicts it.
pub struct SlowLorisNode {
    stack: MoqtStack,
    target: Addr,
    questions: Vec<Question>,
    interval: Duration,
    conn: Option<ConnHandle>,
    subscribed: bool,
    /// True once the node has gone silent.
    pub blackholed: bool,
    /// Subscriptions opened before going silent.
    pub subs_sent: u64,
    /// Datagrams swallowed after going silent.
    pub swallowed: u64,
}

impl SlowLorisNode {
    /// A slow-loris subscriber of `questions` attacking `target`.
    pub fn new(target: Addr, questions: Vec<Question>, seed: u64) -> SlowLorisNode {
        SlowLorisNode {
            stack: MoqtStack::client(adversary_transport(), seed),
            target,
            questions,
            interval: Duration::from_millis(200),
            conn: None,
            subscribed: false,
            blackholed: false,
            subs_sent: 0,
            swallowed: 0,
        }
    }
}

impl StackNode for SlowLorisNode {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }

    fn handle_events(&mut self, _ctx: &mut Ctx<'_>, _events: Vec<StackEvent>) {}
}

impl Node for SlowLorisNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.conn = self.stack.connect(ctx.now(), self.target, false);
        ctx.set_timer(self.interval, TOKEN_ATTACK);
        self.end_turn(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, _to: u16, data: Payload) {
        if self.blackholed {
            self.swallowed += 1;
            return;
        }
        self.stack.on_datagram(ctx.now(), from, &data);
        self.end_turn(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.blackholed {
            return;
        }
        if token == TOKEN_ATTACK {
            let ready = self
                .conn
                .and_then(|h| self.stack.session(h))
                .is_some_and(|s| s.is_ready());
            if !self.subscribed && ready {
                let h = self.conn.expect("conn present when ready");
                let questions = self.questions.clone();
                let (sess, conn) = self.stack.session_conn(h).expect("live session");
                for q in &questions {
                    sess.subscribe(conn, track_for(q));
                    self.subs_sent += 1;
                }
                self.subscribed = true;
                // After this turn's flight carries the SUBSCRIBEs: silence.
                self.blackholed = true;
            } else {
                ctx.set_timer(self.interval, TOKEN_ATTACK);
            }
        } else {
            self.stack.on_timer(ctx.now());
        }
        self.end_turn(ctx);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// Fetch bomb
// ---------------------------------------------------------------------

/// A cold-track stampeder: every tick it fires a burst of standalone
/// FETCHes, each for a track nobody publishes, so none can be answered
/// from cache and every one would otherwise become upstream work. The
/// relay's per-session budget must throttle, then evict it; it reconnects
/// and resumes.
pub struct FetchBombNode {
    stack: MoqtStack,
    target: Addr,
    interval: Duration,
    burst: u32,
    conn: Option<ConnHandle>,
    serial: u64,
    /// FETCH requests issued.
    pub fetches_sent: u64,
    /// FETCHes the relay rejected.
    pub fetches_rejected: u64,
    /// Times the relay evicted (closed) our session.
    pub closed_by_peer: u64,
    /// Reconnect attempts after an eviction.
    pub reconnects: u64,
}

impl FetchBombNode {
    /// A fetch-bomber sending `burst` cold fetches every `interval` at
    /// `target`.
    pub fn new(target: Addr, interval: Duration, burst: u32, seed: u64) -> FetchBombNode {
        FetchBombNode {
            stack: MoqtStack::client(adversary_transport(), seed),
            target,
            interval,
            burst,
            conn: None,
            serial: 0,
            fetches_sent: 0,
            fetches_rejected: 0,
            closed_by_peer: 0,
            reconnects: 0,
        }
    }

    fn attack(&mut self, ctx: &mut Ctx<'_>) {
        let Some(h) = self.conn else {
            self.conn = self.stack.connect(ctx.now(), self.target, false);
            self.reconnects += 1;
            return;
        };
        let ready = self.stack.session(h).is_some_and(|s| s.is_ready());
        if ready {
            let burst = self.burst;
            let (sess, conn) = self.stack.session_conn(h).expect("live session");
            for _ in 0..burst {
                let q = Question::new(
                    format!("b{}.bomb.example", self.serial)
                        .parse()
                        .expect("name"),
                    moqdns_dns::rr::RecordType::A,
                );
                sess.fetch(conn, track_for(&q), 0, 0);
                self.serial += 1;
                self.fetches_sent += 1;
            }
        }
    }
}

impl StackNode for FetchBombNode {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }

    fn handle_events(&mut self, _ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        for ev in events {
            match ev {
                StackEvent::Session(_, SessionEvent::FetchRejected { .. }) => {
                    self.fetches_rejected += 1;
                }
                StackEvent::Closed(h) if self.conn == Some(h) => {
                    self.conn = None;
                    self.closed_by_peer += 1;
                }
                _ => {}
            }
        }
    }
}

impl Node for FetchBombNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.conn = self.stack.connect(ctx.now(), self.target, false);
        ctx.set_timer(self.interval, TOKEN_ATTACK);
        self.end_turn(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, _to: u16, data: Payload) {
        self.stack.on_datagram(ctx.now(), from, &data);
        self.end_turn(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOKEN_ATTACK {
            self.attack(ctx);
            ctx.set_timer(self.interval, TOKEN_ATTACK);
        } else {
            self.stack.on_timer(ctx.now());
        }
        self.end_turn(ctx);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}
