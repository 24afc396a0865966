//! Glue: a QUIC endpoint plus its MoQT sessions living inside a simulator
//! node.
//!
//! Every DNS-over-MoQT role (authoritative server, recursive resolver,
//! stub, forwarder, relay) embeds a [`MoqtStack`]: it owns the
//! `moqdns_quic::Endpoint`, one `moqdns_moqt::Session` per connection, and
//! the plumbing between simulator events and protocol state machines.
//!
//! # A session lives in its connection's slot
//!
//! The endpoint keeps one application value beside each connection
//! (`moqdns_quic::endpoint` module docs), and the stack's is the
//! connection's session: `Option<Session>`, `None` from the accept until
//! the stack adopts it and again once the connection's `Closed` is seen.
//! A held connection and its session are one allocation, found by one
//! lookup that has already checked the handle's generation — a stale
//! handle reaches no session, neither the old one nor the slot's next
//! tenant's. Whatever way a session goes — its connection's `Closed`,
//! [`MoqtStack::abandon`], [`MoqtStack::close_all`], or a slot the
//! endpoint reaps with its session still in it — what its unread events
//! say about its peer is counted first: the stack counts a session's
//! poisons and dropped datagrams from its events ([`SessionStats`]), as
//! they surface.
//!
//! The stack tells its runtime which peer each of its connections sends
//! to ([`Ctx::tell`]): a connection it dials or accepts is held, one whose
//! peer spoke from a new address moves there ([`PeerChange`]), and one it
//! reaps is released with its connection id — so a live driver that names
//! remotes on demand can let one go once no connection sends to it
//! (`moqdns_relayd::netio::HostCore`). The simulator ignores them. A
//! connection [`MoqtStack::abandon`]s is not released: its remote stays
//! held, kept by the driver for good rather than let go while it may be
//! sent to.
//!
//! # The instant contract
//!
//! A **turn** is one `Node::on_datagram` / `on_timer` / `on_start`
//! callback, or one public verb entered through `with_node` (`lookup`,
//! `probe`, `update_zone`, `shutdown`). Inside a turn the stack only
//! ingests and the node only calls session verbs; the turn ends with
//! exactly one [`StackNode::end_turn`], which hands the node its events
//! until its reactions raise no more (the `Closed` of a connection it just
//! closed included). No turn transmits.
//!
//! An **instant** is every turn a node takes at one clock reading (the
//! `moqdns_netsim::Node` docs), and it is the unit of transmission: the
//! runtime ends it with one `Node::on_flush`, which a stack node hands to
//! [`StackNode::flush`] — one transmit, timer re-arm and reap, if any turn
//! of the instant ended through `end_turn`. The packetizer therefore sees
//! the whole instant: an ACK rides with the answer it provoked,
//! SUBSCRIBE_OK with FETCH_OK and the object, every object that reached
//! the node together leaves it together, and a burst of datagrams from one
//! peer is acknowledged once (RFC 9000 §13.2.1 lets a receiver process
//! what it has before it acknowledges). A node whose turn returns before
//! `end_turn` — a relay shut down, a subscriber gone silent — owes its
//! peers nothing for it, and its flush sends nothing on its account.
//!
//! A verb called through `with_node` from outside the event loop is an
//! instant of its own and has transmitted when it returns (the live
//! drivers and the benchmark's generator rely on it), so a node's own
//! handlers call the helpers under a verb, never the verb. Nothing but
//! the flush — and [`MoqtStack::close_all`], which takes the node down at
//! once — may `ctx.send(MOQT_PORT, …)`: the transmit function is private
//! here.

use crate::MOQT_PORT;
use moqdns_moqt::session::{Session, SessionConfig, SessionEvent, SessionStats};
use moqdns_moqt::{Reason, ReasonCounts, MOQT_ALPN, MOQT_ALPN_UNVERSIONED};
use moqdns_netsim::{Addr, Ctx, Payload, PeerNotice, SimTime};
use moqdns_quic::{
    alpn_list, AlpnList, ConnHandle, ConnStateRow, Connection, Endpoint, Event as QuicEvent,
    PeerChange, TransportConfig,
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
    /// The list of sessions a turn touched, lent the same way: a turn
    /// fills it and the turn's poll empties it.
    static LENT_TOUCHED: RefCell<Vec<ConnHandle>> = const { RefCell::new(Vec::new()) };
}

/// Notes `h` for the turn's poll, in the thread's lent list.
fn touch(touched: &mut Vec<ConnHandle>, h: ConnHandle) {
    queue::borrow(&LENT_TOUCHED, touched);
    touched.push(h);
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

/// A QUIC endpoint + MoQT sessions, drivable from a netsim node.
pub struct MoqtStack {
    /// The QUIC endpoint, each connection's session in its slot (see the
    /// module docs; exposed for direct inspection in tests).
    pub endpoint: Endpoint<Addr, Option<Session>>,
    /// The ALPN tokens offered on every dial (and accepted by a server
    /// stack), in preference order.
    alpns: AlpnList,
    /// The one protocol timer this stack has pending: its deadline and the
    /// id `Ctx::set_timer` gave it. [`MoqtStack::transmit`] cancels it
    /// before arming an earlier one, so no superseded timer ever fires.
    armed: Option<(SimTime, u64)>,
    /// Sessions touched since the last poll (verb calls, routed QUIC
    /// events): only these are polled for session events, so a relay
    /// with hundreds of downstream sessions doesn't scan them all on
    /// every datagram. Its storage is the thread's ([`LENT_TOUCHED`]).
    touched: Vec<ConnHandle>,
    /// Hardening counters of every session this stack hosted, counted
    /// from the events each raised (module docs).
    session_stats: SessionStats,
    /// A turn of the current instant ended through
    /// [`StackNode::end_turn`]: the instant's flush transmits.
    owed: bool,
    /// How often this stack's sessions, or the node over them, raised
    /// each [`Reason`] — poisons, refused data streams, evictions.
    /// Allocated by the first one: a stack sits inside every stub, and an
    /// honest stub never raises any.
    reasons: Option<Box<ReasonCounts>>,
}

// What every stub holds beside its connection: the endpoint is its slab,
// its indexes, its ticket store and a pointer each for what it holds only
// within a turn or now and then (`moqdns_quic::endpoint`).
const _: () = assert!(std::mem::size_of::<Endpoint<Addr, Option<Session>>>() <= 176);
// What a relay holds per subscriber: the connection's slot, its session in
// it, one 448-byte malloc chunk (glibc rounds a block of n bytes up to
// `(n + 8 + 15) & !15`). A slot past 440 bytes is a chunk size up.
const _: () = assert!(Endpoint::<Addr, Option<Session>>::SLOT_BYTES <= 440);
const _: () = assert!(std::mem::size_of::<MoqtStack>() <= 272);

/// Counts in `stats` what `ev` says about a session's peer: a poison, a
/// dropped datagram.
fn tally(stats: &mut SessionStats, ev: &SessionEvent) {
    match ev {
        SessionEvent::ProtocolViolation(why) if why.poisons() => stats.violations += 1,
        SessionEvent::DatagramDropped => stats.dropped_datagrams += 1,
        _ => {}
    }
}

/// Drops a session that leaves its slot, counting what the events no
/// node will read say about its peer.
fn retire(stats: &mut SessionStats, session: Option<Session>) {
    if let Some(mut s) = session {
        while let Some(ev) = s.poll_event() {
            tally(stats, &ev);
        }
    }
}

/// Hands a session's event on to the node, counted if it names a
/// [`Reason`] or says something about the peer: the one place every
/// poison, every refusal and every dropped datagram a session raises
/// passes. A dropped datagram is counted only; no node is told.
fn surface(
    reasons: &mut Option<Box<ReasonCounts>>,
    stats: &mut SessionStats,
    out: &mut Vec<StackEvent>,
    h: ConnHandle,
    ev: SessionEvent,
) {
    tally(stats, &ev);
    match ev {
        SessionEvent::ProtocolViolation(why) | SessionEvent::Refused(why) => {
            reasons.get_or_insert_default()[why] += 1;
        }
        SessionEvent::DatagramDropped => return,
        _ => {}
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

    fn over(endpoint: Endpoint<Addr, Option<Session>>) -> MoqtStack {
        MoqtStack {
            endpoint,
            alpns: moqt_alpns(),
            armed: None,
            touched: Vec::new(),
            session_stats: SessionStats::default(),
            owed: false,
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
    pub fn connect(
        &mut self,
        ctx: &mut Ctx<'_>,
        peer: Addr,
        use_ticket: bool,
    ) -> Option<ConnHandle> {
        let h = self
            .endpoint
            .connect(ctx.now(), peer, self.alpns.clone(), use_ticket);
        let Some((slot, conn)) = self.endpoint.app_conn_mut(h) else {
            self.endpoint.abandon(h);
            return None;
        };
        slot.insert(Session::client(SessionConfig::default()))
            .start(conn);
        touch(&mut self.touched, h);
        ctx.tell(PeerNotice::Held(peer.node));
        Some(h)
    }

    /// Takes the node down mid-run, ending the turn here and transmitting
    /// at once, what the instant owed included: every live connection is
    /// closed with `error_code`/`reason` (peers observe a close, not an
    /// hours-long idle timeout), the closes' events are discarded — the
    /// owner is going away, it must not re-route around itself — and
    /// every session is retired.
    pub fn close_all(&mut self, ctx: &mut Ctx<'_>, error_code: u64, reason: &str) {
        let mut handles: Vec<ConnHandle> = self.sessions().map(|(h, _)| h).collect();
        handles.sort_unstable();
        for &h in &handles {
            if let Some(conn) = self.endpoint.conn_mut(h) {
                conn.close(error_code, reason);
            }
            touch(&mut self.touched, h);
        }
        let _ = self.poll_events();
        self.transmit(ctx);
        self.owed = false;
        for h in handles {
            let slot = self.endpoint.app_mut(h).and_then(Option::take);
            retire(&mut self.session_stats, slot);
        }
    }

    /// True if a 0-RTT ticket is stored for `peer`.
    #[cfg(test)]
    pub fn has_ticket(&self, peer: Addr) -> bool {
        self.alpns.iter().any(|a| self.endpoint.has_ticket(peer, a))
    }

    /// Mutable session + connection access for issuing verbs. Marks the
    /// session touched so the closing step polls its events.
    pub fn session_conn(&mut self, h: ConnHandle) -> Option<(&mut Session, &mut Connection)> {
        let (slot, conn) = self.endpoint.app_conn_mut(h)?;
        let session = slot.as_mut()?;
        touch(&mut self.touched, h);
        Some((session, conn))
    }

    /// The session for a handle.
    pub fn session(&self, h: ConnHandle) -> Option<&Session> {
        self.endpoint.app(h)?.as_ref()
    }

    /// The live sessions, in slot order.
    fn sessions(&self) -> impl Iterator<Item = (ConnHandle, &Session)> {
        self.endpoint
            .apps()
            .filter_map(|(h, slot)| Some((h, slot.as_ref()?)))
    }

    /// Number of live sessions (state-overhead accounting, §5.1).
    pub fn session_count(&self) -> usize {
        self.sessions().count()
    }

    /// Hardening counters summed over every session this stack ever
    /// hosted, live or retired: each poison and each dropped datagram,
    /// counted as its event surfaces or as its session goes with it
    /// unread (module docs).
    pub fn session_stats_total(&self) -> SessionStats {
        self.session_stats
    }

    /// How often this stack's sessions, or the node over them, raised
    /// each [`Reason`].
    pub fn reason_counts(&self) -> ReasonCounts {
        self.reasons.as_deref().copied().unwrap_or_default()
    }

    /// Counts a [`Reason`] the node raised itself over one of its
    /// sessions — an eviction, a request it could not serve — beside
    /// those the sessions raised.
    pub fn count(&mut self, why: Reason) {
        self.reasons.get_or_insert_default()[why] += 1;
    }

    /// Total estimated session + connection state in bytes (E9).
    pub fn state_size_estimate(&self) -> usize {
        self.sessions()
            .map(|(_, s)| s.state_size_estimate())
            .sum::<usize>()
            + self.endpoint.state_size_estimate()
    }

    /// Where the state lives, connection by connection (diagnostics for
    /// the adversarial drills): summed session bytes plus one
    /// [`ConnStateRow`] per live connection.
    pub fn state_breakdown(&self) -> (usize, Vec<ConnStateRow>) {
        let sessions = self
            .sessions()
            .map(|(_, s)| s.state_size_estimate())
            .sum::<usize>();
        (sessions, self.endpoint.state_breakdown())
    }

    /// Silently discards a connection and its session (suspension model,
    /// §4.4). No packets are sent; the peer sees an idle timeout later.
    pub fn abandon(&mut self, h: ConnHandle) {
        retire(&mut self.session_stats, self.endpoint.abandon(h).flatten());
    }

    /// Ingests an incoming datagram (the shared payload handle keeps the
    /// QUIC parse zero-copy); its events wait for [`StackNode::end_turn`],
    /// what it makes the stack owe for [`StackNode::flush`].
    pub fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, data: &Payload) {
        match self.endpoint.handle_datagram(ctx.now(), from, data) {
            Some(PeerChange::Accepted) => ctx.tell(PeerNotice::Held(from.node)),
            Some(PeerChange::Moved(old)) => ctx.tell(PeerNotice::Moved {
                from: old.node,
                to: from.node,
            }),
            None => {}
        }
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
                if let Some(slot) = self.endpoint.app_mut(h) {
                    *slot = Some(Session::server(SessionConfig::default()));
                    touch(&mut self.touched, h);
                }
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
                        let slot = self.endpoint.app_mut(h).and_then(Option::take);
                        retire(&mut self.session_stats, slot);
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
                if let Some((Some(session), conn)) = self.endpoint.app_conn_mut(h) {
                    // What verbs left in the session's own queue is older.
                    while let Some(ev) = session.poll_event() {
                        surface(&mut self.reasons, &mut self.session_stats, &mut out, h, ev);
                    }
                    LENT_EVENTS.with_borrow_mut(|lent| {
                        session.on_conn_event_into(conn, &ev, lent);
                        while let Some(ev) = queue::pop_front(lent) {
                            surface(&mut self.reasons, &mut self.session_stats, &mut out, h, ev);
                        }
                    });
                    touch(&mut self.touched, h);
                }
            }
            if self.touched.is_empty() {
                return out;
            }
            // Only sessions touched since the last poll can have events,
            // or a connection a verb made raise one.
            self.touched.sort_unstable();
            self.touched.dedup();
            for &h in &self.touched {
                if let Some(Some(session)) = self.endpoint.app_mut(h) {
                    while let Some(ev) = session.poll_event() {
                        surface(&mut self.reasons, &mut self.session_stats, &mut out, h, ev);
                    }
                }
                self.endpoint.surface_events(h);
            }
            self.touched.clear();
            queue::give_back(&LENT_TOUCHED, &mut self.touched);
            // Stable: a session's events stay in the order it raised them.
            out[round..].sort_by_key(|e| match e {
                StackEvent::Session(h, _) => Some(*h),
                _ => None,
            });
        }
    }

    /// The only place a MoQT datagram leaves a node: drains the endpoint —
    /// one flight per connection for everything the instant made it owe —
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
        // A slot reaped with its session still in it: its connection's
        // `Closed` was never surfaced.
        let stats = &mut self.session_stats;
        self.endpoint.reap_closed(|peer, cid, slot| {
            ctx.tell(PeerNotice::Released(peer.node, cid));
            retire(stats, slot);
        });
    }
}

/// A node that owns a [`MoqtStack`], ends its turns through it and
/// transmits once per instant (see the module docs). Its
/// `Node::on_flush` calls [`StackNode::flush`].
pub trait StackNode {
    /// The node's stack.
    fn stack(&mut self) -> &mut MoqtStack;

    /// Reacts to `events`: state changes and session verbs, no I/O.
    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<StackEvent>);

    /// Closes the turn: events until quiescence. What it made the stack
    /// owe leaves with the instant's flush.
    fn end_turn(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let events = self.stack().poll_events();
            if events.is_empty() {
                break;
            }
            self.handle_events(ctx, events);
        }
        self.stack().owed = true;
    }

    /// Ends the instant: one transmit, if a turn of it ended through
    /// [`StackNode::end_turn`].
    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        let stack = self.stack();
        if std::mem::take(&mut stack.owed) {
            stack.transmit(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqdns_moqt::track::FullTrackName;
    use moqdns_netsim::{LinkConfig, Node, NodeId, Simulator};
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
            self.stack.on_datagram(ctx, from, &data);
            self.end_turn(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.stack.on_timer(ctx.now());
            self.end_turn(ctx);
        }
        fn on_flush(&mut self, ctx: &mut Ctx<'_>) {
            self.flush(ctx);
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
                .connect(ctx, Addr::new(server, MOQT_PORT), false)
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
            n.stack.connect(ctx, server_addr, true).expect("connect");
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
            let h2 = n.stack.connect(ctx, server_addr, true).expect("connect");
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
            let h = n.stack.connect(ctx, peer, false).expect("connect");
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

    /// A client and a server recorder 5 ms apart under `transport`,
    /// connected, the server's session having dropped three malformed
    /// datagrams the client sent: counters to lose. Returns the world,
    /// the two nodes and the client's and the server's handle.
    fn counted_pair(
        transport: TransportConfig,
    ) -> (Simulator, NodeId, NodeId, ConnHandle, ConnHandle) {
        let mut sim = Simulator::new(3);
        sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(5)));
        let recorder = |stack| Recorder {
            stack,
            events: Vec::new(),
        };
        let server = recorder(MoqtStack::server(transport.clone(), 1));
        let server = sim.add_node("server", Box::new(server));
        let client = recorder(MoqtStack::client(transport, 2));
        let client = sim.add_node("client", Box::new(client));
        let ch = sim.with_node::<Recorder, _>(client, |n, ctx| {
            let peer = Addr::new(server, MOQT_PORT);
            let h = n.stack.connect(ctx, peer, false).expect("connect");
            n.end_turn(ctx);
            h
        });
        sim.run_for(Duration::from_millis(100));
        sim.with_node::<Recorder, _>(client, |n, ctx| {
            let conn = n.stack.endpoint.conn_mut(ch).expect("connected");
            for _ in 0..3 {
                conn.send_datagram(vec![0xFF]).expect("sent");
            }
            n.end_turn(ctx);
        });
        sim.run_for(Duration::from_millis(100));
        let sh = sim.with_node::<Recorder, _>(server, |n, _| {
            let dropped = n.stack.session_stats_total().dropped_datagrams;
            assert_eq!(dropped, 3, "the counters the slot must not lose");
            n.events
                .iter()
                .find_map(|e| match e {
                    StackEvent::Accepted(h) => Some(*h),
                    _ => None,
                })
                .expect("accepted")
        });
        (sim, client, server, ch, sh)
    }

    /// The server's session leaves its slot every way one can — its
    /// peer's close, its own, `abandon`, an idle timeout — and its
    /// counters stay in the stack's total: the same before the slot goes,
    /// after its `Closed` is seen and after the reap.
    #[test]
    fn a_vacated_slot_keeps_its_sessions_counters() {
        let idle = TransportConfig::default().idle_timeout(Duration::from_secs(2));
        for way in ["peer close", "own close", "abandon", "idle timeout"] {
            let (mut sim, client, server, ch, sh) = counted_pair(idle.clone());
            let total = |sim: &mut Simulator| {
                sim.with_node::<Recorder, _>(server, |n, _| {
                    let s = &n.stack;
                    (
                        s.session_stats_total(),
                        s.session_count(),
                        s.endpoint.connection_count(),
                    )
                })
            };
            let (counted, ..) = total(&mut sim);
            match way {
                "peer close" => sim.with_node::<Recorder, _>(client, |n, ctx| {
                    n.stack.endpoint.conn_mut(ch).unwrap().close(0, "bye");
                    n.end_turn(ctx);
                }),
                "own close" => sim.with_node::<Recorder, _>(server, |n, ctx| {
                    n.stack.session_conn(sh).unwrap().1.close(0, "bye");
                    // The session goes with its `Closed`, in this turn;
                    // the slot with the transmit that ends the instant.
                    assert!(n.stack.poll_events().contains(&StackEvent::Closed(sh)));
                    assert!(n.stack.session(sh).is_none());
                    assert_eq!(n.stack.endpoint.connection_count(), 1, "not reaped yet");
                    assert_eq!(n.stack.session_stats_total(), counted, "{way}: at Closed");
                    n.stack.transmit(ctx);
                }),
                "abandon" => sim.with_node::<Recorder, _>(server, |n, _| n.stack.abandon(sh)),
                _ => sim.with_node::<Recorder, _>(client, |n, _| n.stack.abandon(ch)),
            }
            sim.run_for(Duration::from_secs(3));
            assert_eq!(total(&mut sim), (counted, 0, 0), "{way}: reaped");
        }
    }

    /// A flush transmits what a turn that ended through `end_turn` left
    /// owed, and nothing for a turn that returned before it — the way a
    /// shut-down relay or a silent subscriber ignores what reaches it.
    #[test]
    fn only_a_turn_that_ended_is_owed_a_transmit() {
        let (mut sim, client, server, ch, _) = counted_pair(TransportConfig::default());
        let sent = |sim: &Simulator| sim.stats().between(client, server).datagrams;
        let before = sent(&sim);
        sim.with_node::<Recorder, _>(client, |n, _| {
            let conn = n.stack.endpoint.conn_mut(ch).expect("connected");
            conn.send_datagram(vec![0xFF]).expect("queued");
        });
        assert_eq!(sent(&sim), before, "no turn ended: nothing owed");
        sim.with_node::<Recorder, _>(client, |n, ctx| n.end_turn(ctx));
        assert_eq!(sent(&sim), before + 1, "the next turn's flush sends it");
    }

    #[test]
    fn stale_handle_finds_no_session_after_slot_reuse() {
        let mut sim = Simulator::new(1);
        let peer = Addr::new(sim.add_node("x", Box::new(Recorder::client(9))), 7);
        let me = sim.add_node("me", Box::new(Recorder::client(1)));
        sim.with_node::<Recorder, _>(me, |n, ctx| {
            let stack = &mut n.stack;
            let old = stack.connect(ctx, peer, false).expect("connect");
            stack.abandon(old);
            assert_eq!(stack.session_count(), 0);
            let new = stack.connect(ctx, peer, false).expect("connect");
            assert_eq!(new.slot(), old.slot(), "the slot was reused");
            assert!(stack.session(old).is_none());
            assert!(stack.session_conn(old).is_none());
            assert!(stack.session(new).is_some());
            assert!(stack.session_conn(new).is_some());
            stack.abandon(old); // stale: must not take the new session down
            assert_eq!(stack.session_count(), 1);
        });

        // A server's slot, vacated by its peer's close and reaped, then
        // taken by the next accept: the old handle reaches neither the
        // old session's counters nor the new session.
        let (mut sim, client, server, ch, old) = counted_pair(TransportConfig::default());
        sim.with_node::<Recorder, _>(client, |n, ctx| {
            n.stack.endpoint.conn_mut(ch).unwrap().close(0, "bye");
            n.end_turn(ctx);
        });
        sim.run_for(Duration::from_millis(100));
        let peer = Addr::new(server, MOQT_PORT);
        let client = sim.add_node("second", Box::new(Recorder::client(4)));
        sim.with_node::<Recorder, _>(client, |n, ctx| {
            n.stack.connect(ctx, peer, false).expect("connect");
            n.end_turn(ctx);
        });
        sim.run_for(Duration::from_millis(100));
        sim.with_node::<Recorder, _>(server, |n, _| {
            let accepted = n.events.iter().rev().find_map(|e| match e {
                StackEvent::Accepted(h) => Some(*h),
                _ => None,
            });
            let new = accepted.expect("the second accept");
            assert_eq!((new.slot(), n.stack.session_count()), (old.slot(), 1));
            let counted = n.stack.session_stats_total();
            assert_eq!(counted.dropped_datagrams, 3, "the first session's");
            assert!(n.stack.session(old).is_none() && n.stack.session_conn(old).is_none());
            n.stack.abandon(old);
            assert!(n.stack.session(new).is_some(), "a stale abandon");
            assert_eq!(n.stack.session_stats_total(), counted);
        });
    }

    #[test]
    fn state_size_accounting() {
        // Fabricate connections without a peer (no traffic flows).
        let mut sim = Simulator::new(1);
        let peer = sim.add_node("x", Box::new(Recorder::client(9)));
        let me = sim.add_node("me", Box::new(Recorder::client(1)));
        sim.with_node::<Recorder, _>(me, |n, ctx| {
            let stack = &mut n.stack;
            assert_eq!(stack.session_count(), 0);
            let base = stack.state_size_estimate();
            stack
                .connect(ctx, Addr::new(peer, MOQT_PORT), false)
                .expect("connect");
            assert_eq!(stack.session_count(), 1);
            assert!(stack.state_size_estimate() > base);
        });
    }
}
