//! Glue: a QUIC endpoint plus its MoQT sessions living inside a simulator
//! node.
//!
//! Every DNS-over-MoQT role (authoritative server, recursive resolver,
//! stub, forwarder, relay) embeds a [`MoqtStack`]: it owns the
//! `moqdns_quic::Endpoint`, one `moqdns_moqt::Session` per connection, and
//! the plumbing between simulator events and protocol state machines.
//!
//! # The turn contract
//!
//! A **turn** is one `Node::on_datagram` / `on_timer` / `on_start`
//! callback, or one public verb entered through `Simulator::with_node`
//! (`lookup`, `probe`, `update_zone`, `shutdown`). It is the unit of
//! transmission — events in, actions out, I/O once. Inside a turn the
//! stack only ingests and the node only calls session verbs; the turn ends
//! with exactly one [`StackNode::end_turn`], which hands the node its
//! events until its reactions raise no more (the `Closed` of a connection
//! it just closed included), then transmits, re-arms the protocol timer
//! and reaps. The packetizer therefore sees the whole turn: an ACK rides
//! with the answer it provoked, SUBSCRIBE_OK with FETCH_OK and the
//! object, every track that arrived together leaves together.
//!
//! A verb called through `with_node` is a turn of its own and has
//! transmitted when it returns (the live drivers and the benchmark's
//! generator rely on it), so a node's own handlers call the helpers under
//! a verb, never the verb. Nothing but the closing step may
//! `ctx.send(MOQT_PORT, …)`: the transmit function is private here.

use crate::MOQT_PORT;
use moqdns_moqt::session::{Session, SessionConfig, SessionEvent, SessionStats};
use moqdns_moqt::{ReasonCounts, MOQT_ALPN, MOQT_ALPN_UNVERSIONED};
use moqdns_netsim::{Addr, Ctx, Payload, SimTime};
use moqdns_quic::{
    alpn_list, AlpnList, ConnHandle, ConnStateRow, Connection, Endpoint, Event as QuicEvent,
    TransportConfig,
};
use moqdns_wire::queue;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// The MoQT ALPN offer/support list, built once per process: every
/// connect/accept clones the shared handle instead of allocating a
/// `Vec<Vec<u8>>` per call. The versioned token first — what two current
/// peers always land on — then the draft-12 token, so a peer from before
/// the versioned one still connects, in the strict order.
fn moqt_alpns() -> AlpnList {
    static ALPNS: OnceLock<AlpnList> = OnceLock::new();
    ALPNS
        .get_or_init(|| alpn_list(&[MOQT_ALPN, MOQT_ALPN_UNVERSIONED]))
        .clone()
}

thread_local! {
    /// The warm queue a session raises into while the stack feeds it a
    /// QUIC event. The stack empties it before the call returns, so it
    /// belongs to the thread, like the endpoint's lent connection queue
    /// (`moqdns_quic::endpoint` module docs): a session driven only by a
    /// stack holds no event queue of its own between turns.
    static LENT_EVENTS: RefCell<VecDeque<SessionEvent>> = const { RefCell::new(VecDeque::new()) };
}

/// Timer token the stack uses; nodes route this token's timers back into
/// [`MoqtStack::on_timer`].
pub const TOKEN_QUIC: u64 = 1 << 56;

/// An event surfaced to the owning node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackEvent {
    /// A MoQT session event on a connection.
    Session(ConnHandle, SessionEvent),
    /// A new incoming connection was accepted (server side).
    Accepted(ConnHandle),
    /// The QUIC connection finished its handshake.
    Connected(ConnHandle),
    /// The connection closed (any reason); its session is gone.
    Closed(ConnHandle),
}

/// The sessions of a stack, stored by their connection's slab slot
/// ([`ConnHandle::slot`]): one index, no search. Boxed like the endpoint's
/// slots, so growing the table copies pointers, and a slot that was
/// reused answers only to the handle it holds now.
#[derive(Default)]
struct Sessions {
    slots: Vec<Option<Box<(ConnHandle, Session)>>>,
    live: usize,
}

impl Sessions {
    fn get(&self, h: ConnHandle) -> Option<&Session> {
        let (held, session) = self.slots.get(h.slot())?.as_deref()?;
        (*held == h).then_some(session)
    }

    fn get_mut(&mut self, h: ConnHandle) -> Option<&mut Session> {
        let (held, session) = self.slots.get_mut(h.slot())?.as_deref_mut()?;
        (*held == h).then_some(session)
    }

    /// Stores `h`'s session. A session still parked in the slot belonged
    /// to a connection the endpoint has already let go; its counters are
    /// returned for the retired total.
    fn insert(&mut self, h: ConnHandle, session: Session) -> Option<Session> {
        if self.slots.len() <= h.slot() {
            self.slots.resize_with(h.slot() + 1, || None);
        }
        let old = self.slots[h.slot()].replace(Box::new((h, session)));
        self.live += usize::from(old.is_none());
        old.map(|b| b.1)
    }

    fn remove(&mut self, h: ConnHandle) -> Option<Session> {
        self.get(h)?;
        self.live -= 1;
        self.slots[h.slot()].take().map(|b| b.1)
    }

    /// Live sessions in slot order.
    fn iter(&self) -> impl Iterator<Item = &(ConnHandle, Session)> {
        self.slots.iter().flatten().map(|b| &**b)
    }
}

/// A QUIC endpoint + MoQT sessions, drivable from a netsim node.
pub struct MoqtStack {
    /// The QUIC endpoint (exposed for direct inspection in tests).
    pub endpoint: Endpoint<Addr>,
    /// The ALPN tokens offered on every dial (and accepted by a server
    /// stack), in preference order.
    alpns: AlpnList,
    sessions: Sessions,
    /// The one protocol timer this stack has pending: its deadline and the
    /// id `Ctx::set_timer` gave it. [`MoqtStack::transmit`] cancels it
    /// before arming an earlier one, so no superseded timer ever fires.
    armed: Option<(SimTime, u64)>,
    /// Sessions touched since the last poll (verb calls, routed QUIC
    /// events): only these are polled for session events, so a relay
    /// with hundreds of downstream sessions doesn't scan them all on
    /// every datagram.
    touched: Vec<ConnHandle>,
    /// Hardening counters folded out of sessions as they are retired, so
    /// [`MoqtStack::session_stats_total`] survives session removal.
    retired_stats: SessionStats,
    /// How often this stack's sessions raised each
    /// [`Reason`](moqdns_moqt::Reason) — poisons and refused data
    /// streams. Allocated by the first one: a stack sits inside every
    /// stub, and an honest stub never raises any.
    reasons: Option<Box<ReasonCounts>>,
}

/// Hands a session's event on to the node, counted if it names a
/// [`Reason`](moqdns_moqt::Reason): the one place every poison and every
/// refusal passes.
fn surface(
    reasons: &mut Option<Box<ReasonCounts>>,
    out: &mut Vec<StackEvent>,
    h: ConnHandle,
    ev: SessionEvent,
) {
    if let SessionEvent::ProtocolViolation(why) | SessionEvent::Refused(why) = ev {
        reasons.get_or_insert_default()[why] += 1;
    }
    out.push(StackEvent::Session(h, ev));
}

impl MoqtStack {
    /// Creates a stack that accepts incoming MoQT connections.
    pub fn server(transport: TransportConfig, seed: u64) -> MoqtStack {
        MoqtStack::over(Endpoint::server(transport, moqt_alpns(), seed))
    }

    /// Creates a client-only stack.
    pub fn client(transport: TransportConfig, seed: u64) -> MoqtStack {
        MoqtStack::over(Endpoint::client(transport, seed))
    }

    fn over(endpoint: Endpoint<Addr>) -> MoqtStack {
        MoqtStack {
            endpoint,
            alpns: moqt_alpns(),
            sessions: Sessions::default(),
            armed: None,
            touched: Vec::new(),
            retired_stats: SessionStats::default(),
            reasons: None,
        }
    }

    /// Makes this stack a peer from before the versioned token: from now on
    /// it offers, and as a server accepts, only `alpns`. Nothing in
    /// production calls this — whether requests may ride with CLIENT_SETUP
    /// is negotiated, not set. It exists so the strict draft-12 order can
    /// still be measured (the `query_latency` scenario's strict rows) and
    /// tested against (`tests/flight_counts.rs`), as the same code meeting
    /// an old peer.
    pub fn speak_only(&mut self, alpns: AlpnList) {
        self.endpoint.accept_only(alpns.clone());
        self.alpns = alpns;
    }

    /// Opens a MoQT connection to `peer` and starts the session, offering
    /// the versioned ALPN token ahead of the draft-12 one.
    ///
    /// What leaves in the first flights follows from what the handshake
    /// settles, not from anything the caller sets: verbs may be called on
    /// the new session at once, and it holds requests back exactly as long
    /// as it does not know its version. With the versioned token that is
    /// until the ServerHello — CLIENT_SETUP and the requests leave together
    /// in the next flight, 2 RTT to the first answer — or not at all when
    /// `use_ticket` finds a ticket issued under that token: CLIENT_SETUP
    /// and the requests ride 0-RTT with the ClientHello, 1 RTT. Against a
    /// peer that only speaks the draft-12 token the same session waits for
    /// SERVER_SETUP (3 RTT, 2 with a ticket).
    ///
    /// Returns `None` when the endpoint cannot produce a usable
    /// connection; no session entry is kept in that case (a session that
    /// never `start`ed would otherwise sit dead in the map forever).
    pub fn connect(&mut self, now: SimTime, peer: Addr, use_ticket: bool) -> Option<ConnHandle> {
        let h = self
            .endpoint
            .connect(now, peer, self.alpns.clone(), use_ticket);
        let Some(conn) = self.endpoint.conn_mut(h) else {
            self.endpoint.abandon(h);
            return None;
        };
        let mut session = Session::client(SessionConfig::default());
        session.start(conn);
        self.adopt(h, session);
        Some(h)
    }

    /// Takes the node down mid-run, ending the turn here: every live
    /// connection is closed with `error_code`/`reason` (peers observe a
    /// close, not an hours-long idle timeout), the closes' events are
    /// discarded — the owner is going away, it must not re-route around
    /// itself — and every session is retired.
    pub fn close_all(&mut self, ctx: &mut Ctx<'_>, error_code: u64, reason: &str) {
        let mut handles: Vec<ConnHandle> = self.sessions.iter().map(|(h, _)| *h).collect();
        handles.sort_unstable();
        for h in handles {
            if let Some(conn) = self.endpoint.conn_mut(h) {
                conn.close(error_code, reason);
            }
            self.touched.push(h);
        }
        let _ = self.poll_events();
        self.transmit(ctx);
        for (_, s) in std::mem::take(&mut self.sessions).iter() {
            self.retired_stats.add(&s.stats());
        }
    }

    /// True if a 0-RTT ticket is stored for `peer`.
    pub fn has_ticket(&self, peer: Addr) -> bool {
        self.alpns.iter().any(|a| self.endpoint.has_ticket(peer, a))
    }

    /// Mutable session + connection access for issuing verbs. Marks the
    /// session touched so the closing step polls its events.
    pub fn session_conn(&mut self, h: ConnHandle) -> Option<(&mut Session, &mut Connection)> {
        let conn = self.endpoint.conn_mut(h)?;
        let session = self.sessions.get_mut(h)?;
        self.touched.push(h);
        Some((session, conn))
    }

    /// The session for a handle.
    pub fn session(&self, h: ConnHandle) -> Option<&Session> {
        self.sessions.get(h)
    }

    /// Number of live sessions (state-overhead accounting, §5.1).
    pub fn session_count(&self) -> usize {
        self.sessions.live
    }

    /// Hardening counters summed over every session this stack ever
    /// hosted: live sessions plus those retired by close/abandon.
    pub fn session_stats_total(&self) -> SessionStats {
        let mut total = self.retired_stats;
        for (_, s) in self.sessions.iter() {
            total.add(&s.stats());
        }
        total
    }

    /// How often this stack's sessions raised each
    /// [`Reason`](moqdns_moqt::Reason).
    pub fn reason_counts(&self) -> ReasonCounts {
        self.reasons.as_deref().copied().unwrap_or_default()
    }

    /// Total estimated session + connection state in bytes (E9).
    pub fn state_size_estimate(&self) -> usize {
        self.sessions
            .iter()
            .map(|(_, s)| s.state_size_estimate())
            .sum::<usize>()
            + self.endpoint.state_size_estimate()
    }

    /// Where the state lives, connection by connection (diagnostics for
    /// the adversarial drills): summed session bytes plus one
    /// [`ConnStateRow`] per live connection.
    pub fn state_breakdown(&self) -> (usize, Vec<ConnStateRow>) {
        let sessions = self
            .sessions
            .iter()
            .map(|(_, s)| s.state_size_estimate())
            .sum::<usize>();
        (sessions, self.endpoint.state_breakdown())
    }

    /// Silently discards a connection and its session (suspension model,
    /// §4.4). No packets are sent; the peer sees an idle timeout later.
    pub fn abandon(&mut self, h: ConnHandle) {
        self.endpoint.abandon(h);
        self.retire(h);
    }

    /// Stores the session of connection `h` and queues it for polling.
    fn adopt(&mut self, h: ConnHandle, session: Session) {
        // A session found in the slot outlived its connection unseen.
        if let Some(s) = self.sessions.insert(h, session) {
            self.retired_stats.add(&s.stats());
        }
        self.touched.push(h);
    }

    /// Drops `h`'s session, keeping its hardening counters.
    fn retire(&mut self, h: ConnHandle) {
        if let Some(s) = self.sessions.remove(h) {
            self.retired_stats.add(&s.stats());
        }
    }

    /// Ingests an incoming datagram (the shared payload handle keeps the
    /// QUIC parse zero-copy); its events wait for [`StackNode::end_turn`].
    pub fn on_datagram(&mut self, now: SimTime, from: Addr, data: &Payload) {
        self.endpoint.handle_datagram(now, from, data);
    }

    /// Handles a timer tick (token [`TOKEN_QUIC`]), likewise ingest only.
    pub fn on_timer(&mut self, now: SimTime) {
        self.endpoint.handle_timeout(now);
    }

    /// Everything the turn has raised so far: accepts, QUIC events routed
    /// into their sessions, session events — until the stack is quiet, so
    /// the `Closed` of a connection a session or the node just closed is
    /// seen in this turn, not after some later datagram. No I/O.
    ///
    /// Each round reports `Connected`/`Closed` in arrival order, then the
    /// session events by ascending handle. A session fed a QUIC event
    /// raises into the thread's lent queue ([`LENT_EVENTS`]), emptied
    /// here at once; the round's closing sort puts them in that order.
    fn poll_events(&mut self) -> Vec<StackEvent> {
        let mut out = Vec::new();
        loop {
            // Accept new connections.
            while let Some(h) = self.endpoint.poll_incoming() {
                self.adopt(h, Session::server(SessionConfig::default()));
                out.push(StackEvent::Accepted(h));
            }
            let round = out.len();
            // Route QUIC events into sessions.
            while let Some((h, ev)) = self.endpoint.poll_event() {
                match &ev {
                    QuicEvent::Connected { .. } => out.push(StackEvent::Connected(h)),
                    QuicEvent::Closed { .. } => {
                        // The session goes, and with it whatever it
                        // raised this round that nobody has seen yet.
                        self.retire(h);
                        let mut at = 0;
                        out.retain(|e| {
                            at += 1;
                            at <= round || !matches!(e, StackEvent::Session(of, _) if *of == h)
                        });
                        out.push(StackEvent::Closed(h));
                        continue;
                    }
                    _ => {}
                }
                if let (Some(session), Some(conn)) =
                    (self.sessions.get_mut(h), self.endpoint.conn_mut(h))
                {
                    // What verbs left in the session's own queue is older.
                    while let Some(ev) = session.poll_event() {
                        surface(&mut self.reasons, &mut out, h, ev);
                    }
                    LENT_EVENTS.with_borrow_mut(|lent| {
                        session.on_conn_event_into(conn, &ev, lent);
                        while let Some(ev) = queue::pop_front(lent) {
                            surface(&mut self.reasons, &mut out, h, ev);
                        }
                    });
                    self.touched.push(h);
                }
            }
            if self.touched.is_empty() {
                return out;
            }
            // Only sessions touched since the last poll can have events,
            // or a connection a verb made raise one.
            let mut touched = std::mem::take(&mut self.touched);
            touched.sort_unstable();
            touched.dedup();
            for h in touched {
                if let Some(session) = self.sessions.get_mut(h) {
                    while let Some(ev) = session.poll_event() {
                        surface(&mut self.reasons, &mut out, h, ev);
                    }
                }
                self.endpoint.surface_events(h);
            }
            // Stable: a session's events stay in the order it raised them.
            out[round..].sort_by_key(|e| match e {
                StackEvent::Session(h, _) => Some(*h),
                _ => None,
            });
        }
    }

    /// The only place a MoQT datagram leaves a node: drains the endpoint,
    /// re-arms the protocol timer, reaps closed connections.
    fn transmit(&mut self, ctx: &mut Ctx<'_>) {
        while let Some((peer, dg)) = self.endpoint.poll_transmit(ctx.now()) {
            ctx.send(MOQT_PORT, peer, dg);
        }
        if let Some(deadline) = self.endpoint.poll_timeout() {
            // A timer whose deadline has come has fired, or does at this
            // instant: only a later one is still pending.
            let pending = self.armed.filter(|&(at, _)| at > ctx.now());
            if pending.is_none_or(|(at, _)| deadline < at) {
                if let Some((_, superseded)) = pending {
                    ctx.cancel_timer(superseded);
                }
                let delay = deadline.saturating_duration_since(ctx.now());
                let id = ctx.set_timer(delay.max(std::time::Duration::from_micros(1)), TOKEN_QUIC);
                self.armed = Some((deadline, id));
            }
        }
        self.endpoint.reap_closed();
    }
}

/// A node that owns a [`MoqtStack`] and ends its turns through it (see
/// the module docs).
pub trait StackNode {
    /// The node's stack.
    fn stack(&mut self) -> &mut MoqtStack;

    /// Reacts to `events`: state changes and session verbs, no I/O.
    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<StackEvent>);

    /// Closes the turn: events until quiescence, then one transmit.
    fn end_turn(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let events = self.stack().poll_events();
            if events.is_empty() {
                break;
            }
            self.handle_events(ctx, events);
        }
        self.stack().transmit(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqdns_moqt::track::FullTrackName;
    use moqdns_netsim::{LinkConfig, Node, Simulator};
    use std::any::Any;
    use std::time::Duration;

    /// Minimal node owning a stack, recording events.
    struct Recorder {
        stack: MoqtStack,
        events: Vec<StackEvent>,
    }

    impl Recorder {
        fn server(seed: u64) -> Recorder {
            Recorder {
                stack: MoqtStack::server(TransportConfig::default(), seed),
                events: Vec::new(),
            }
        }
        fn client(seed: u64) -> Recorder {
            Recorder {
                stack: MoqtStack::client(TransportConfig::default(), seed),
                events: Vec::new(),
            }
        }
    }

    impl StackNode for Recorder {
        fn stack(&mut self) -> &mut MoqtStack {
            &mut self.stack
        }
        fn handle_events(&mut self, _ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
            self.events.extend(events);
        }
    }

    impl Node for Recorder {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, _to: u16, data: Payload) {
            self.stack.on_datagram(ctx.now(), from, &data);
            self.end_turn(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.stack.on_timer(ctx.now());
            self.end_turn(ctx);
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any_ref(&self) -> &dyn Any {
            self
        }
    }

    fn track() -> FullTrackName {
        FullTrackName::new(vec![vec![1]], b"t".to_vec()).unwrap()
    }

    #[test]
    fn end_to_end_subscribe_over_simulator() {
        let mut sim = Simulator::new(3);
        sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(20)));
        let server = sim.add_node("server", Box::new(Recorder::server(1)));
        let client = sim.add_node("client", Box::new(Recorder::client(2)));
        sim.run_until_idle();

        // Client connects and subscribes.
        let h = sim.with_node::<Recorder, _>(client, |n, ctx| {
            let h = n
                .stack
                .connect(ctx.now(), Addr::new(server, MOQT_PORT), false)
                .expect("connect");
            n.end_turn(ctx);
            h
        });
        sim.run_until(SimTime::from_millis(200));

        let sub_id = sim.with_node::<Recorder, _>(client, |n, ctx| {
            assert!(n.stack.session(h).unwrap().is_ready(), "session ready");
            let (sess, conn) = n.stack.session_conn(h).unwrap();
            let id = sess.subscribe(conn, track());
            n.end_turn(ctx);
            id
        });
        sim.run_until(SimTime::from_millis(400));

        // Server sees the subscribe; accept and publish.
        let (sh, req) = sim.with_node::<Recorder, _>(server, |n, _| {
            n.events
                .iter()
                .find_map(|e| match e {
                    StackEvent::Session(h, SessionEvent::IncomingSubscribe { request_id, .. }) => {
                        Some((*h, *request_id))
                    }
                    _ => None,
                })
                .expect("incoming subscribe")
        });
        sim.with_node::<Recorder, _>(server, |n, ctx| {
            let (sess, conn) = n.stack.session_conn(sh).unwrap();
            sess.accept_subscribe(conn, req, Some((1, 0)));
            sess.publish(
                conn,
                req,
                moqdns_moqt::data::Object {
                    group_id: 2,
                    object_id: 0,
                    payload: b"pushed".to_vec().into(),
                },
            );
            n.end_turn(ctx);
        });
        sim.run_until(SimTime::from_millis(800));

        let got = sim.with_node::<Recorder, _>(client, |n, _| {
            n.events.iter().any(|e| {
                matches!(e,
                    StackEvent::Session(hh, SessionEvent::SubscriptionObject { request_id, object })
                    if *hh == h && *request_id == sub_id && object.payload == b"pushed")
            })
        });
        assert!(got, "pushed object delivered through the simulator");
    }

    #[test]
    fn zero_rtt_reconnect_through_stack() {
        let mut sim = Simulator::new(3);
        sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(20)));
        let server = sim.add_node("server", Box::new(Recorder::server(1)));
        let client = sim.add_node("client", Box::new(Recorder::client(2)));
        sim.run_until_idle();
        let server_addr = Addr::new(server, MOQT_PORT);

        // First connection establishes + stores a ticket.
        sim.with_node::<Recorder, _>(client, |n, ctx| {
            n.stack
                .connect(ctx.now(), server_addr, true)
                .expect("connect");
            n.end_turn(ctx);
        });
        sim.run_until(SimTime::from_millis(300));
        let has_ticket =
            sim.with_node::<Recorder, _>(client, |n, _| n.stack.has_ticket(server_addr));
        assert!(has_ticket);

        // Second connection: the ticket was issued under the versioned
        // token, so session setup + subscribe ride the first flight.
        let t0 = sim.now();
        sim.with_node::<Recorder, _>(client, |n, ctx| {
            let h2 = n
                .stack
                .connect(ctx.now(), server_addr, true)
                .expect("connect");
            let (sess, conn) = n.stack.session_conn(h2).unwrap();
            sess.subscribe(conn, track());
            n.end_turn(ctx);
        });
        sim.run_until(t0 + Duration::from_millis(25));
        // After one half RTT the server has already seen the SUBSCRIBE.
        let seen = sim.with_node::<Recorder, _>(server, |n, _| {
            n.events.iter().any(|e| {
                matches!(
                    e,
                    StackEvent::Session(_, SessionEvent::IncomingSubscribe { .. })
                )
            })
        });
        assert!(seen, "0-RTT carried CLIENT_SETUP + SUBSCRIBE in one flight");
    }

    /// Five pushes in one turn into a connection whose window allows two
    /// data streams at once: the first two go out, two wait for the
    /// credit reading them earns and arrive after them, in order, and the
    /// fifth — a window already waits — is refused and counted by reason.
    #[test]
    fn publishes_past_the_stream_window_wait_for_credit_up_to_a_window() {
        let capped = TransportConfig {
            max_streams: 2,
            ..TransportConfig::default()
        };
        let mut sim = Simulator::new(3);
        sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(20)));
        let recorder = |stack| Recorder {
            stack,
            events: Vec::new(),
        };
        let server = recorder(MoqtStack::server(capped.clone(), 1));
        let server = sim.add_node("server", Box::new(server));
        let client = sim.add_node("client", Box::new(recorder(MoqtStack::client(capped, 2))));
        sim.with_node::<Recorder, _>(client, |n, ctx| {
            let peer = Addr::new(server, MOQT_PORT);
            let h = n.stack.connect(ctx.now(), peer, false).expect("connect");
            let (sess, conn) = n.stack.session_conn(h).unwrap();
            sess.subscribe(conn, track());
            n.end_turn(ctx);
        });
        sim.run_until(SimTime::from_millis(400));
        sim.with_node::<Recorder, _>(server, |n, ctx| {
            let (sh, req) = n
                .events
                .iter()
                .find_map(|e| match e {
                    StackEvent::Session(h, SessionEvent::IncomingSubscribe { request_id, .. }) => {
                        Some((*h, *request_id))
                    }
                    _ => None,
                })
                .expect("incoming subscribe");
            assert_eq!(n.stack.reason_counts(), Default::default());
            let (sess, conn) = n.stack.session_conn(sh).unwrap();
            sess.accept_subscribe(conn, req, None);
            let sent = (1..=5).filter(|&group_id| {
                let object = moqdns_moqt::data::Object {
                    group_id,
                    object_id: 0,
                    payload: b"pushed".to_vec().into(),
                };
                sess.publish(conn, req, object)
            });
            assert_eq!(sent.count(), 4, "two sent, two queued");
            assert_eq!(
                conn.state_breakdown().0,
                1 + 2,
                "the control stream and two"
            );
            n.end_turn(ctx);
        });
        sim.run_until(SimTime::from_millis(800));
        let delivered = sim.with_node::<Recorder, _>(client, |n, _| {
            n.events
                .iter()
                .filter_map(|e| match e {
                    StackEvent::Session(_, SessionEvent::SubscriptionObject { object, .. }) => {
                        Some(object.group_id)
                    }
                    _ => None,
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(delivered, [1, 2, 3, 4], "every push but the last, in order");
        let mut refused = ReasonCounts::default();
        refused[moqdns_moqt::Reason::StreamLimit] = 1;
        sim.with_node::<Recorder, _>(server, |n, _| {
            assert_eq!(n.stack.reason_counts(), refused);
        });
    }

    #[test]
    fn stale_handle_finds_no_session_after_slot_reuse() {
        let mut stack = MoqtStack::client(TransportConfig::default(), 1);
        let peer = Addr::new(
            Simulator::new(1).add_node("x", Box::new(Recorder::client(9))),
            7,
        );
        let old = stack.connect(SimTime::ZERO, peer, false).expect("connect");
        stack.abandon(old);
        assert_eq!(stack.session_count(), 0);
        let new = stack.connect(SimTime::ZERO, peer, false).expect("connect");
        assert_eq!(new.slot(), old.slot(), "the slot was reused");
        assert!(stack.session(old).is_none());
        assert!(stack.session_conn(old).is_none());
        assert!(stack.session(new).is_some());
        assert!(stack.session_conn(new).is_some());
        stack.abandon(old); // stale: must not take the new session down
        assert_eq!(stack.session_count(), 1);
    }

    #[test]
    fn state_size_accounting() {
        let mut stack = MoqtStack::client(TransportConfig::default(), 1);
        assert_eq!(stack.session_count(), 0);
        let base = stack.state_size_estimate();
        // Fabricate connections without a peer (no traffic flows).
        let mut sim = Simulator::new(1);
        let peer = sim.add_node("x", Box::new(Recorder::client(9)));
        stack
            .connect(SimTime::ZERO, Addr::new(peer, MOQT_PORT), false)
            .expect("connect");
        assert_eq!(stack.session_count(), 1);
        assert!(stack.state_size_estimate() > base);
    }
}
