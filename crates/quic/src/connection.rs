//! The connection state machine.
//!
//! Sans-io, quinn-proto style: the driver feeds `handle_datagram` /
//! `handle_timeout`, drains `poll_transmit` (each call yields one UDP
//! datagram, possibly with coalesced packets), arms the timer returned by
//! `poll_timeout`, and consumes application-visible [`Event`]s from
//! `poll_event`.
//!
//! Coalescing: one `poll_transmit` packs everything pending — the
//! handshake flight, the ACK, flow-control credit, DATAGRAM frames, then
//! STREAM frames of every pending stream in ascending id order — into one
//! datagram up to `max_udp_payload`. There is no delayed-ACK timer and no
//! send timer: what shares a datagram is decided only by what the driver
//! let accumulate before it polled. A driver that polls after every write
//! gets one frame per datagram and a bare ACK ahead of every answer;
//! `moqdns_core::stack` polls once per turn, after the owner has reacted
//! to whatever started the turn, so the ACK rides with the answer and
//! every object a turn produced for this connection leaves together.
//!
//! The lifecycle is an explicit one-way machine — `Handshaking →
//! Established → Draining → Closed` (see the internal `State` docs for the
//! full edge set and the idle-timeout/keep-alive liveness contract).
//! Every transition funnels through a single checked helper, and the
//! machine is observable via [`Connection::conn_state`]; the property test
//! in `tests/conn_model.rs` pins the legal-transition contract against
//! arbitrary event interleavings.
//!
//! Handshake latency semantics (the properties the paper's §5.2 depends on):
//!
//! * fresh connection: ClientHello flies in an Initial packet; application
//!   data waits for the ServerHello → exactly one RTT of setup;
//! * resumption with 0-RTT: stream data written before the handshake
//!   completes is sent in ZeroRtt packets coalesced with the ClientHello —
//!   the server reads it in the same flight. If the server rejects early
//!   data it simply never ACKs those packets; normal loss recovery
//!   retransmits the data as 1-RTT after establishment;
//! * keep-alives and idle timeout implement §5.1's liveness requirements.
//!
//! Transport parameters are not negotiated on the wire: both endpoints are
//! assumed to run the same [`TransportConfig`] (true everywhere in this
//! workspace), so each side grants the peer its own configured limits.
//!
//! # Stream credit (RFC 9000 §4.6, §19.11)
//!
//! `max_streams` is a concurrency window on unidirectional streams, not a
//! lifetime count. The receiver grants the peer stream indexes below
//! `retired + max_streams`, where `retired` is the watermark below which
//! every peer stream has been read to its end (or reset) and released;
//! once that limit can move by half a window it queues a MAX_STREAMS,
//! which rides the turn's one flight and is resent on loss like
//! MAX_DATA. A peer that opens past the limit it was advertised is closed
//! with "stream limit violated". The sender tracks the limit the peer
//! advertised: at it, `open_stream(Dir::Uni)` fails with
//! [`ConnectionError::StreamLimit`] until a MAX_STREAMS raises it, and
//! then [`Event::StreamsAvailable`] says so — a stall, not a cap.
//! Bidirectional streams keep a fixed cap of `max_streams` each way: a
//! MoQT session opens exactly one, its control stream.
//!
//! # Stream state is held while something is in flight
//!
//! The one long-lived stream — the bidirectional control stream — lives
//! in a table of its own. The unidirectional tables then hold only what
//! is in flight: a peer stream from the frame that opens it to the read
//! that reaches its end, one of ours from `open_stream` to the ACK that
//! covers all of it. Both tables are the thread's storage, lent while
//! they hold something (`moqdns_wire::queue`), so a connection that is
//! only held — a subscription between updates — holds no stream table.

use crate::config::TransportConfig;
use crate::frame::Frame;
use crate::handshake::{select_alpn, HandshakeMessage, Ticket};
use crate::packet::{decode_datagram_payload, encode_datagram_into, Packet, PacketType};
use crate::recovery::{AckTracker, Recovery, RetxInfo, SentPacket};
use crate::streams::{Dir, RecvStream, SendStream, StreamId};
use moqdns_netsim::SimTime;
use moqdns_wire::pool::with_scratch;
use moqdns_wire::{queue, Payload, VecMap, VecSet};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

/// One ALPN protocol name. A shared handle: cloning an offer list into a
/// connection, a ticket-store key, or a `Connected` event bumps a
/// refcount instead of copying strings.
pub type Alpn = Arc<[u8]>;

/// An ordered ALPN offer/support list, shared the same way — endpoints
/// build one list at startup and every `connect` clones the handle.
pub type AlpnList = Arc<[Alpn]>;

/// Builds an [`AlpnList`] from protocol name slices.
pub fn alpn_list(protos: &[&[u8]]) -> AlpnList {
    protos.iter().map(|p| Alpn::from(*p)).collect()
}

/// Which end of the connection we are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Initiator.
    Client,
    /// Acceptor.
    Server,
}

/// Application-visible connection events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Handshake complete; application data may flow (client: ServerHello
    /// processed; server: ClientHello processed).
    Connected {
        /// Negotiated ALPN protocol.
        alpn: Alpn,
        /// For clients that attempted 0-RTT: whether the server accepted.
        early_data_accepted: Option<bool>,
    },
    /// The peer opened a new stream.
    StreamOpened {
        /// The new stream's id.
        id: StreamId,
    },
    /// A stream has data (or FIN, or a reset) available to read.
    StreamReadable {
        /// The readable stream.
        id: StreamId,
    },
    /// The peer raised its limit on our unidirectional streams after
    /// `open_stream(Dir::Uni)` had found it used up: streams may be
    /// opened again.
    StreamsAvailable,
    /// An unreliable datagram arrived (RFC 9221). The payload is a
    /// shared handle into the decoded packet's storage.
    DatagramReceived(Payload),
    /// The server issued a resumption ticket (client side).
    TicketIssued(Ticket),
    /// The connection terminated.
    Closed {
        /// Error code (0 = clean).
        error_code: u64,
        /// Reason phrase.
        reason: String,
        /// True if the peer initiated (or the idle timer fired remotely).
        by_peer: bool,
    },
}

/// Errors from application calls into the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionError {
    /// The connection is closed.
    Closed,
    /// Peer's stream-count limit reached: for unidirectional streams,
    /// until its next MAX_STREAMS ([`Event::StreamsAvailable`]).
    StreamLimit,
    /// Unknown stream id.
    UnknownStream,
    /// The peer reset the stream; whatever it had sent is discarded.
    Reset,
    /// Datagrams are disabled or the payload exceeds the MTU budget.
    DatagramUnsupported,
}

impl std::fmt::Display for ConnectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectionError::Closed => write!(f, "connection closed"),
            ConnectionError::StreamLimit => write!(f, "stream limit reached"),
            ConnectionError::UnknownStream => write!(f, "unknown stream"),
            ConnectionError::Reset => write!(f, "stream reset by peer"),
            ConnectionError::DatagramUnsupported => write!(f, "datagram unsupported"),
        }
    }
}

impl std::error::Error for ConnectionError {}

/// Connection lifecycle. Transitions are one-way and go through
/// [`Connection::transition`], which asserts edge legality:
///
/// ```text
/// Handshaking ──→ Established ──→ Draining ──→ Closed
///      │                │                        ▲
///      └────────────────┴────────────────────────┘
/// ```
///
/// * `Handshaking` — waiting for the peer's handshake flight. No 1-RTT
///   application data is accepted (clients may send 0-RTT).
/// * `Established` — handshake complete; the liveness contract is active:
///   we close after `max_idle_timeout` without receiving anything, and (if
///   configured) send a keep-alive PING once `keep_alive_interval` passes
///   without transmitting, so an idle-but-healthy connection never trips
///   the peer's idle timer.
/// * `Draining` — we initiated termination and the CONNECTION_CLOSE frame
///   is queued but not yet flushed; the next `poll_transmit` emits it and
///   moves to `Closed`. Incoming datagrams are still parsed (a crossing
///   peer close is absorbed without a duplicate event), the application
///   API already rejects with [`ConnectionError::Closed`], and all timers
///   are off.
/// * `Closed` — terminal and inert: nothing is sent, received datagrams
///   are dropped, timers are off. Reached directly (skipping `Draining`)
///   when there is nothing to say on the wire: peer-initiated close, idle
///   timeout (QUIC closes silently), or a handshake refusal from the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum State {
    Handshaking,
    Established,
    Draining,
    Closed,
}

/// Externally observable connection lifecycle phase (see the state diagram
/// on the internal `State`). Exposed for drills and model tests that pin
/// the state machine's legal-transition contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConnState {
    /// Waiting for the peer's handshake flight.
    Handshaking,
    /// Handshake complete; idle-timeout/keep-alive contract active.
    Established,
    /// Locally closed; terminal CONNECTION_CLOSE not yet flushed.
    Draining,
    /// Terminal and inert.
    Closed,
}

/// Traffic counters for a connection (used by the overhead experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Packets transmitted.
    pub packets_sent: u64,
    /// Packets received (valid ones).
    pub packets_received: u64,
    /// UDP payload bytes transmitted.
    pub bytes_sent: u64,
    /// UDP payload bytes received.
    pub bytes_received: u64,
    /// PING frames sent (keep-alive traffic, §5.1).
    pub pings_sent: u64,
}

/// A QUIC-like connection.
pub struct Connection {
    side: Side,
    cid: u64,
    config: TransportConfig,
    state: State,
    created_at: SimTime,

    // --- handshake ---
    /// Outbound handshake message (CH for clients, SH/Retry for servers).
    crypto_out: Option<Vec<u8>>,
    crypto_pending: bool,
    handshake_processed: bool,
    alpn_offer: AlpnList,
    alpn_supported: AlpnList,
    selected_alpn: Option<Alpn>,
    ticket: Option<Ticket>,
    ticket_nonce: u64,
    attempted_early_data: bool,
    /// ZeroRtt packets that arrived before the ClientHello.
    early_buffer: Vec<Packet>,
    accept_early_data: bool,

    // --- packet machinery ---
    next_pn: u64,
    recovery: Recovery,
    acks: AckTracker,

    // --- streams (module docs: held while something is in flight) ---
    /// Bidirectional streams, both halves: the control stream.
    bidi_streams: VecMap<StreamId, Bidi>,
    /// Our unidirectional streams not yet fully acknowledged.
    uni_send: VecMap<StreamId, SendStream>,
    /// The peer's unidirectional streams not yet read to their end.
    uni_recv: VecMap<StreamId, RecvStream>,
    /// Streams that may have data or FIN waiting to transmit. Kept as a
    /// queue so `poll_transmit` visits only these instead of scanning the
    /// stream tables (a relay uplink holds hundreds of one-shot streams
    /// awaiting final ACKs). Ordered, so packetization visits streams in
    /// ascending id order. May briefly hold streams with nothing pending;
    /// pruned lazily.
    pending_streams: VecSet<StreamId>,
    next_bi_index: u64,
    next_uni_index: u64,
    /// Peer-initiated uni streams read to FIN (or reset) and released.
    /// Tracked as a dense watermark (`index < retired_uni_recv_below`)
    /// plus a sparse overflow set, so late retransmissions for a pruned
    /// stream are not mistaken for new peer streams. The watermark is
    /// where the peer's stream credit starts (module docs).
    retired_uni_recv_below: u64,
    retired_uni_recv: VecSet<u64>,

    // --- stream credit (module docs) ---
    /// The limit on the peer's uni stream indexes we last advertised.
    local_max_uni: u64,
    pending_max_streams: bool,
    /// The peer's limit on our uni stream indexes.
    peer_max_uni: u64,
    /// `open_stream(Dir::Uni)` found `peer_max_uni` used up since the
    /// last MAX_STREAMS raised it.
    uni_blocked: bool,

    // --- flow control ---
    /// Peer's connection-level credit for us.
    peer_max_data: u64,
    /// Stream bytes we have sent (connection level).
    data_sent: u64,
    /// Credit we granted the peer.
    local_max_data: u64,
    /// Bytes received (connection level, by highest offsets).
    data_received: u64,
    /// Bytes consumed by our application.
    data_consumed: u64,
    pending_max_data: bool,
    pending_max_stream_data: VecSet<StreamId>,

    // --- datagrams ---
    datagram_queue_out: VecDeque<Payload>,

    // --- liveness ---
    last_rx: SimTime,
    last_tx: SimTime,
    ping_pending: bool,

    // --- closing ---
    /// Terminal CONNECTION_CLOSE queued while `Draining`; taken by the
    /// flush in `poll_transmit`.
    close_frame: Option<(u64, Vec<u8>)>,

    /// Events for the driver, and the streams announced readable and not
    /// read since. Both are filled and emptied within one turn, so both
    /// are the thread's storage, lent while they hold something
    /// (`moqdns_wire::queue`; [`crate::endpoint`] module docs).
    events: VecDeque<Event>,
    readable_notified: VecSet<StreamId>,
    stats: ConnStats,
}

thread_local! {
    /// The warm storage lent to a connection's event queue.
    static LENT_EVENTS: RefCell<VecDeque<Event>> = const { RefCell::new(VecDeque::new()) };
    /// The warm storage lent to a connection's readable-stream set.
    static LENT_READABLE: RefCell<VecSet<StreamId>> = const { RefCell::new(VecSet::new()) };
    /// The warm storage lent to a connection's table of the peer's uni
    /// streams.
    static LENT_UNI_RECV: RefCell<VecMap<StreamId, RecvStream>> =
        const { RefCell::new(VecMap::new()) };
    /// The warm storage lent to a connection's table of its own uni
    /// streams.
    static LENT_UNI_SEND: RefCell<VecMap<StreamId, SendStream>> =
        const { RefCell::new(VecMap::new()) };
    /// Where a packet's retransmit list is built; the packet keeps a copy
    /// of exactly its length.
    static RETX: RefCell<Vec<RetxInfo>> = const { RefCell::new(Vec::new()) };
}

/// MAX_STREAMS goes out once the peer's uni stream limit can move by
/// `max_streams / CREDIT_STEP`: half a window, so an honest peer never
/// waits for credit while one frame per half window is all it costs.
const CREDIT_STEP: u64 = 2;

/// What a stream costs in [`Connection::send_backlog_bytes`] on top of
/// its unacknowledged bytes, and what a stream waiting for the peer's
/// credit costs in a session's backlog: stream count is state too.
pub const STREAM_BACKLOG_CHARGE: usize = 64;

/// Both halves of a bidirectional stream.
struct Bidi {
    send: SendStream,
    recv: RecvStream,
}

impl Bidi {
    fn new(window: u64) -> Bidi {
        Bidi {
            send: SendStream::new(window),
            recv: RecvStream::new(window),
        }
    }
}

impl Connection {
    /// Creates a client connection; its first `poll_transmit` emits the
    /// ClientHello (plus any 0-RTT data written before that call).
    pub fn client(
        cid: u64,
        config: TransportConfig,
        alpn: AlpnList,
        ticket: Option<Ticket>,
        now: SimTime,
    ) -> Connection {
        let attempted_early = ticket.is_some();
        let ch = HandshakeMessage::ClientHello {
            alpn: alpn.to_vec(),
            ticket: ticket.clone(),
            early_data: attempted_early,
        };
        let mut c = Connection::new(Side::Client, cid, config, now);
        c.alpn_offer = alpn;
        c.ticket = ticket;
        c.attempted_early_data = attempted_early;
        c.crypto_out = Some(ch.encode());
        c.crypto_pending = true;
        c
    }

    /// Creates a server connection for an incoming Initial packet's cid.
    /// `ticket_nonce` seeds the resumption ticket this server will issue.
    pub fn server(
        cid: u64,
        config: TransportConfig,
        supported_alpn: AlpnList,
        ticket_nonce: u64,
        now: SimTime,
    ) -> Connection {
        let mut c = Connection::new(Side::Server, cid, config, now);
        c.alpn_supported = supported_alpn;
        c.ticket_nonce = ticket_nonce;
        c
    }

    fn new(side: Side, cid: u64, config: TransportConfig, now: SimTime) -> Connection {
        let recovery = Recovery::new(
            config.initial_rtt,
            config.initial_cwnd,
            config.packet_threshold,
        )
        .with_max_ack_delay(config.max_ack_delay_ms);
        Connection {
            side,
            cid,
            state: State::Handshaking,
            created_at: now,
            crypto_out: None,
            crypto_pending: false,
            handshake_processed: false,
            alpn_offer: AlpnList::from([]),
            alpn_supported: AlpnList::from([]),
            selected_alpn: None,
            ticket: None,
            ticket_nonce: 0,
            attempted_early_data: false,
            early_buffer: Vec::new(),
            accept_early_data: true,
            next_pn: 0,
            recovery,
            acks: AckTracker::default(),
            bidi_streams: VecMap::new(),
            uni_send: VecMap::new(),
            uni_recv: VecMap::new(),
            pending_streams: VecSet::new(),
            next_bi_index: 0,
            next_uni_index: 0,
            retired_uni_recv_below: 0,
            retired_uni_recv: VecSet::new(),
            local_max_uni: config.max_streams,
            pending_max_streams: false,
            peer_max_uni: config.max_streams,
            uni_blocked: false,
            peer_max_data: config.max_data,
            data_sent: 0,
            local_max_data: config.max_data,
            data_received: 0,
            data_consumed: 0,
            pending_max_data: false,
            pending_max_stream_data: VecSet::new(),
            datagram_queue_out: VecDeque::new(),
            last_rx: now,
            last_tx: now,
            ping_pending: false,
            close_frame: None,
            events: VecDeque::new(),
            readable_notified: VecSet::new(),
            stats: ConnStats::default(),
            config,
        }
    }

    /// This connection's id.
    pub fn cid(&self) -> u64 {
        self.cid
    }

    /// Which side we are.
    pub fn side(&self) -> Side {
        self.side
    }

    /// True once the handshake completed.
    pub fn is_established(&self) -> bool {
        self.state == State::Established
    }

    /// True once the connection is terminating or terminated (`Draining`
    /// or `Closed`): the application API rejects, timers are off, and at
    /// most one more datagram (the terminal close flush) will be emitted.
    pub fn is_closed(&self) -> bool {
        self.state >= State::Draining
    }

    /// Current lifecycle phase (for drills and model tests).
    pub fn conn_state(&self) -> ConnState {
        match self.state {
            State::Handshaking => ConnState::Handshaking,
            State::Established => ConnState::Established,
            State::Draining => ConnState::Draining,
            State::Closed => ConnState::Closed,
        }
    }

    /// Moves the machine to `next`, asserting the edge is one of the legal
    /// one-way transitions in the `State` diagram. Every state change goes
    /// through here so an illegal edge is a loud bug in debug builds, not
    /// a silent wedge.
    fn transition(&mut self, next: State) {
        debug_assert!(
            Self::legal_edge(self.state, next),
            "illegal connection state transition {:?} -> {next:?}",
            self.state,
        );
        self.state = next;
    }

    fn legal_edge(from: State, to: State) -> bool {
        use State::*;
        matches!(
            (from, to),
            (Handshaking, Established)
                | (Handshaking, Draining)
                | (Handshaking, Closed)
                | (Established, Draining)
                | (Established, Closed)
                | (Draining, Closed)
        )
    }

    /// The ALPN application data is written under: the negotiated protocol
    /// once established; before that, on a client resuming with a ticket,
    /// the protocol the ticket was issued under (0-RTT data is bound to
    /// it), if the owner named it with [`Connection::resume_under`].
    pub fn alpn(&self) -> Option<&[u8]> {
        self.selected_alpn.as_deref()
    }

    /// Names the protocol this client's resumption ticket was issued
    /// under — [`crate::Endpoint`] keys its ticket store by it — so
    /// [`Connection::alpn`] can answer before the ServerHello does.
    /// Ignored without a ticket and once the handshake has been answered.
    pub fn resume_under(&mut self, alpn: Alpn) {
        if self.ticket.is_some() && !self.handshake_processed {
            self.selected_alpn = Some(alpn);
        }
    }

    /// Negotiated ALPN as a cheap shared handle (ticket-store keys).
    pub fn alpn_handle(&self) -> Option<&Alpn> {
        self.selected_alpn.as_ref()
    }

    /// Traffic counters.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }

    /// Smoothed RTT estimate.
    pub fn rtt(&self) -> std::time::Duration {
        self.recovery.rtt.srtt()
    }

    /// Server-side policy switch: refuse 0-RTT data (clients then fall back
    /// to retransmitting it as 1-RTT data — used in tests and ablations).
    pub fn set_accept_early_data(&mut self, accept: bool) {
        self.accept_early_data = accept;
    }

    /// Bytes of connection state held (E9 state-overhead experiment): the
    /// struct plus the backing storage — capacity, not length — of every
    /// table, buffer and queue it owns.
    pub fn state_size_estimate(&self) -> usize {
        std::mem::size_of::<Connection>()
            + self.bidi_streams.heap_bytes()
            + self
                .bidi_streams
                .values()
                .map(|b| b.send.heap_bytes() + b.recv.heap_bytes())
                .sum::<usize>()
            + self.uni_send.heap_bytes()
            + self
                .uni_send
                .values()
                .map(SendStream::heap_bytes)
                .sum::<usize>()
            + self.uni_recv.heap_bytes()
            + self
                .uni_recv
                .values()
                .map(RecvStream::heap_bytes)
                .sum::<usize>()
            + self.recovery.heap_bytes()
            + self.acks.heap_bytes()
            + self.pending_streams.heap_bytes()
            + self.retired_uni_recv.heap_bytes()
            + self.pending_max_stream_data.heap_bytes()
            + self.readable_notified.heap_bytes()
            + self.events.capacity() * std::mem::size_of::<Event>()
            + self.datagram_queue_out.capacity() * std::mem::size_of::<Payload>()
            + self.crypto_out.as_ref().map_or(0, Vec::capacity)
            + self.ticket.as_ref().map_or(0, |t| t.0.capacity())
            + self.early_buffer.capacity() * std::mem::size_of::<Packet>()
    }

    /// Per-connection state composition (diagnostics for the adversarial
    /// drills): `(send streams, receive streams, ack-eliciting packets in
    /// flight)`; a bidirectional stream counts as one of each.
    pub fn state_breakdown(&self) -> (usize, usize, usize) {
        let bidi = self.bidi_streams.len();
        (
            bidi + self.uni_send.len(),
            bidi + self.uni_recv.len(),
            self.recovery.tracked(),
        )
    }

    /// Bytes of send-side backlog: stream data written but not yet
    /// acknowledged by the peer, plus queued datagrams. This is the state
    /// an unresponsive peer forces us to hold, so relays bound it per
    /// session (a per-stream charge, [`STREAM_BACKLOG_CHARGE`], keeps
    /// stream-count abuse visible too).
    pub fn send_backlog_bytes(&self) -> usize {
        let bidi = self.bidi_streams.values().map(|b| &b.send);
        let streams: usize = bidi
            .chain(self.uni_send.values())
            .map(|s| STREAM_BACKLOG_CHARGE + s.buffered_bytes())
            .sum();
        let dgrams: usize = self.datagram_queue_out.iter().map(|d| d.len()).sum();
        streams + dgrams
    }

    /// The `max_streams` this connection runs with: how many
    /// unidirectional streams each side lets the other have open at once
    /// (module docs).
    pub fn max_streams(&self) -> u64 {
        self.config.max_streams
    }

    /// Time since creation (diagnostics).
    pub fn age(&self, now: SimTime) -> std::time::Duration {
        now - self.created_at
    }

    // ------------------------------------------------------------------
    // Application API
    // ------------------------------------------------------------------

    /// Opens a new locally-initiated stream. A unidirectional stream past
    /// the peer's current limit fails with [`ConnectionError::StreamLimit`]
    /// until [`Event::StreamsAvailable`]; bidirectional streams have a
    /// fixed cap (module docs).
    pub fn open_stream(&mut self, dir: Dir) -> Result<StreamId, ConnectionError> {
        if self.is_closed() {
            return Err(ConnectionError::Closed);
        }
        let (index, limit) = match dir {
            Dir::Bi => (&mut self.next_bi_index, self.config.max_streams),
            Dir::Uni => (&mut self.next_uni_index, self.peer_max_uni),
        };
        if *index >= limit {
            self.uni_blocked |= dir == Dir::Uni;
            return Err(ConnectionError::StreamLimit);
        }
        let id = StreamId::new(self.side == Side::Client, dir, *index);
        *index += 1;
        let window = self.config.max_stream_data;
        match dir {
            Dir::Bi => {
                self.bidi_streams.insert(id, Bidi::new(window));
            }
            Dir::Uni => {
                queue::borrow(&LENT_UNI_SEND, &mut self.uni_send);
                self.uni_send.insert(id, SendStream::new(window));
            }
        }
        Ok(id)
    }

    /// The send half of stream `id`, if we may still send on it.
    fn send_half(&mut self, id: StreamId) -> Option<&mut SendStream> {
        match id.dir() {
            Dir::Bi => self.bidi_streams.get_mut(&id).map(|b| &mut b.send),
            Dir::Uni => self.uni_send.get_mut(&id),
        }
    }

    /// The receive half of stream `id`, if it is open for reading.
    fn recv_half(&mut self, id: StreamId) -> Option<&mut RecvStream> {
        match id.dir() {
            Dir::Bi => self.bidi_streams.get_mut(&id).map(|b| &mut b.recv),
            Dir::Uni => self.uni_recv.get_mut(&id),
        }
    }

    fn peer_initiated(&self, id: StreamId) -> bool {
        id.initiated_by_client() != (self.side == Side::Client)
    }

    /// Writes application data to a stream; returns bytes accepted (may be
    /// short under flow control).
    pub fn send_stream(&mut self, id: StreamId, data: &[u8]) -> Result<usize, ConnectionError> {
        if self.is_closed() {
            return Err(ConnectionError::Closed);
        }
        // Connection-level flow control caps total outstanding writes.
        let conn_budget = self.peer_max_data.saturating_sub(self.data_sent) as usize;
        let s = self.send_half(id).ok_or(ConnectionError::UnknownStream)?;
        let n = s.write(&data[..data.len().min(conn_budget)]);
        self.data_sent += n as u64;
        if n > 0 {
            self.pending_streams.insert(id);
        }
        Ok(n)
    }

    /// Marks a stream finished (FIN).
    pub fn finish_stream(&mut self, id: StreamId) -> Result<(), ConnectionError> {
        self.send_half(id)
            .ok_or(ConnectionError::UnknownStream)?
            .finish();
        self.pending_streams.insert(id);
        Ok(())
    }

    /// Reads up to `max` bytes from a stream. Returns `(data, finished)`,
    /// or [`ConnectionError::Reset`] once the peer has reset it. A peer's
    /// unidirectional stream read to its end or to its reset is released
    /// (module docs): reading it again is an unknown stream.
    pub fn read_stream(
        &mut self,
        id: StreamId,
        max: usize,
    ) -> Result<(Vec<u8>, bool), ConnectionError> {
        let window = self.config.max_stream_data;
        let peer_uni = id.dir() == Dir::Uni && self.peer_initiated(id);
        let s = self.recv_half(id).ok_or(ConnectionError::UnknownStream)?;
        let reset = s.reset.is_some();
        let before = s.consumed();
        let (data, fin) = if reset {
            (Vec::new(), false)
        } else {
            s.read(max)
        };
        let done = peer_uni && (fin || reset);
        // A released stream's unread bytes (a reset's) count as consumed,
        // or the connection's window would shrink by them for good.
        let consumed = if done { s.highest_seen() } else { s.consumed() };
        // Replenish the per-stream flow-control window when half-consumed.
        let replenish = !done && s.max_stream_data - consumed < window / 2;
        if replenish {
            s.max_stream_data = consumed + window;
        }
        self.data_consumed += consumed - before;
        self.readable_notified.remove(&id);
        queue::give_back(&LENT_READABLE, &mut self.readable_notified);
        if done {
            self.release_uni_recv(id);
        } else if replenish {
            self.pending_max_stream_data.insert(id);
        }
        if self.local_max_data - self.data_consumed < self.config.max_data / 2 {
            self.local_max_data = self.data_consumed + self.config.max_data;
            self.pending_max_data = true;
        }
        if reset {
            return Err(ConnectionError::Reset);
        }
        Ok((data, fin))
    }

    /// Queues an unreliable datagram (RFC 9221). Accepts anything
    /// convertible to a [`Payload`]; passing a `Payload` (e.g. when
    /// fanning one object out over many connections) shares the bytes
    /// instead of copying them.
    pub fn send_datagram(&mut self, data: impl Into<Payload>) -> Result<(), ConnectionError> {
        let data = data.into();
        if self.is_closed() {
            return Err(ConnectionError::Closed);
        }
        if !self.config.datagrams_enabled || data.len() + 32 > self.config.max_udp_payload {
            return Err(ConnectionError::DatagramUnsupported);
        }
        self.datagram_queue_out.push_back(data);
        Ok(())
    }

    /// Closes the connection with an error code and reason. The machine
    /// enters `Draining`; the next `poll_transmit` flushes the terminal
    /// CONNECTION_CLOSE and completes the move to `Closed`.
    pub fn close(&mut self, error_code: u64, reason: &str) {
        if self.is_closed() {
            return;
        }
        self.close_frame = Some((error_code, reason.as_bytes().to_vec()));
        self.transition(State::Draining);
        self.raise(Event::Closed {
            error_code,
            reason: reason.to_string(),
            by_peer: false,
        });
    }

    /// Next application event, if any. The one that drains the queue
    /// hands its storage back to the thread.
    pub fn poll_event(&mut self) -> Option<Event> {
        let ev = self.events.pop_front();
        queue::give_back(&LENT_EVENTS, &mut self.events);
        ev
    }

    /// Queues an event for the driver, in the thread's storage if the
    /// queue holds none.
    fn raise(&mut self, ev: Event) {
        queue::borrow(&LENT_EVENTS, &mut self.events);
        self.events.push_back(ev);
    }

    /// Announces stream `id` readable, once until the application reads
    /// it.
    fn notify_readable(&mut self, id: StreamId) {
        queue::borrow(&LENT_READABLE, &mut self.readable_notified);
        if self.readable_notified.insert(id) {
            self.raise(Event::StreamReadable { id });
        }
    }

    // ------------------------------------------------------------------
    // Datagram ingest
    // ------------------------------------------------------------------

    /// Processes one incoming UDP datagram. The payload handle makes the
    /// parse zero-copy: DATAGRAM frames become sub-views of `data`, so a
    /// relay fanning an object out never copies payload bytes on receive.
    pub fn handle_datagram(&mut self, now: SimTime, data: &Payload) {
        // Closed is inert; Draining still parses (a crossing peer close or
        // late ACK in the pre-flush window must not wedge the machine).
        if self.state == State::Closed {
            return;
        }
        let Ok(packets) = decode_datagram_payload(data) else {
            return; // garbage is dropped silently
        };
        self.stats.bytes_received += data.len() as u64;
        self.last_rx = now;
        for p in packets {
            self.handle_packet(now, p);
        }
    }

    fn handle_packet(&mut self, now: SimTime, p: Packet) {
        if p.dcid != self.cid {
            return;
        }
        // 0-RTT before the ClientHello: buffer (loss/reorder of the CH).
        if self.side == Side::Server && p.ty == PacketType::ZeroRtt && !self.handshake_processed {
            self.early_buffer.push(p);
            return;
        }
        if !self.acks.on_packet(p.pn) {
            return; // duplicate packet
        }
        self.stats.packets_received += 1;
        let mut ack_eliciting = false;
        for f in p.frames {
            if f.is_ack_eliciting() {
                ack_eliciting = true;
            }
            self.handle_frame(now, f, p.ty);
        }
        if ack_eliciting {
            self.acks.ack_pending = true;
        }
        // A freshly processed ClientHello unlocks buffered early data.
        if self.handshake_processed && !self.early_buffer.is_empty() {
            let buffered = std::mem::take(&mut self.early_buffer);
            for p in buffered {
                self.handle_packet(now, p);
            }
        }
    }

    fn handle_frame(&mut self, now: SimTime, f: Frame, pty: PacketType) {
        match f {
            Frame::Padding | Frame::Ping => {}
            Frame::Ack { ranges } => {
                let ev = self.recovery.on_ack_received(now, &ranges);
                self.handle_acked(ev.acked);
                self.requeue_lost(ev.lost);
            }
            Frame::Crypto { data, .. } => self.handle_crypto(&data),
            Frame::Stream {
                id,
                offset,
                fin,
                data,
            } => self.handle_stream_frame(id, offset, fin, data, pty),
            Frame::ResetStream { id, .. } => {
                // A reset can be all that arrives of a stream: it opens
                // it like data would, so its index is retired once read.
                if !self.accept_peer_stream(id) {
                    return;
                }
                if let Some(s) = self.recv_half(id) {
                    s.reset = Some(0);
                    self.notify_readable(id);
                }
            }
            Frame::StopSending { id, .. } => {
                if let Some(s) = self.send_half(id) {
                    s.reset = true;
                }
            }
            Frame::MaxData { max } => {
                self.peer_max_data = self.peer_max_data.max(max);
            }
            Frame::MaxStreamData { id, max } => {
                if let Some(s) = self.send_half(id) {
                    s.max_stream_data = s.max_stream_data.max(max);
                }
            }
            Frame::MaxStreams { bidi: false, max } => {
                if max > self.peer_max_uni {
                    self.peer_max_uni = max;
                    if std::mem::take(&mut self.uni_blocked) {
                        self.raise(Event::StreamsAvailable);
                    }
                }
            }
            // Bidirectional streams keep their fixed cap (module docs).
            Frame::MaxStreams { bidi: true, .. } => {}
            Frame::HandshakeDone => {}
            Frame::Datagram { data } => {
                if self.config.datagrams_enabled {
                    self.raise(Event::DatagramReceived(data));
                }
            }
            Frame::ConnectionClose { error_code, reason } => {
                // Peer close goes straight to Closed (drain: do not
                // reply). A crossing close while we are Draining is
                // absorbed — our own Closed event already fired.
                if !self.is_closed() {
                    self.transition(State::Closed);
                    self.raise(Event::Closed {
                        error_code,
                        reason: String::from_utf8_lossy(&reason).into_owned(),
                        by_peer: true,
                    });
                }
            }
        }
    }

    fn handle_crypto(&mut self, data: &[u8]) {
        if self.handshake_processed {
            return; // retransmitted flight
        }
        if self.is_closed() {
            // A handshake flight landing in the Draining window (e.g. a
            // retransmit after we refused the first copy) must not
            // resurrect the connection.
            return;
        }
        let Ok(msg) = HandshakeMessage::decode(data) else {
            self.close(0x1, "malformed handshake");
            return;
        };
        match (self.side, msg) {
            (
                Side::Server,
                HandshakeMessage::ClientHello {
                    alpn,
                    ticket,
                    early_data,
                },
            ) => {
                self.handshake_processed = true;
                let Some(selected) = select_alpn(&alpn, &self.alpn_supported) else {
                    self.crypto_out = Some(HandshakeMessage::HelloRetry { code: 0x178 }.encode());
                    self.crypto_pending = true;
                    // Drain: emit the retry + terminal close, then die.
                    self.transition(State::Draining);
                    self.close_frame = Some((0x178, b"no ALPN overlap".to_vec()));
                    self.raise(Event::Closed {
                        error_code: 0x178,
                        reason: "no ALPN overlap".into(),
                        by_peer: false,
                    });
                    return;
                };
                let early_ok = early_data
                    && ticket.as_ref().is_some_and(|t| !t.0.is_empty())
                    && self.accept_early_data;
                if !early_ok {
                    self.early_buffer.clear(); // reject any buffered 0-RTT
                }
                let mut ticket_bytes = self.ticket_nonce.to_be_bytes().to_vec();
                ticket_bytes.extend_from_slice(&self.cid.to_be_bytes());
                let sh = HandshakeMessage::ServerHello {
                    alpn: selected.clone(),
                    early_data_accepted: early_ok,
                    new_ticket: Ticket(ticket_bytes),
                };
                self.crypto_out = Some(sh.encode());
                self.crypto_pending = true;
                self.selected_alpn = Some(selected.clone());
                self.transition(State::Established);
                // If early data was rejected, drop it (never ACKed — the
                // client's recovery will resend as 1-RTT).
                if !early_ok {
                    self.early_buffer.clear();
                }
                self.raise(Event::Connected {
                    alpn: selected,
                    early_data_accepted: None,
                });
            }
            (
                Side::Client,
                HandshakeMessage::ServerHello {
                    alpn,
                    early_data_accepted,
                    new_ticket,
                },
            ) => {
                self.handshake_processed = true;
                self.selected_alpn = Some(alpn.clone());
                self.transition(State::Established);
                self.raise(Event::Connected {
                    alpn,
                    early_data_accepted: if self.attempted_early_data {
                        Some(early_data_accepted)
                    } else {
                        None
                    },
                });
                self.raise(Event::TicketIssued(new_ticket));
            }
            (Side::Client, HandshakeMessage::HelloRetry { code }) => {
                self.handshake_processed = true;
                // Refused by the peer: nothing to say back, go straight
                // to Closed.
                self.transition(State::Closed);
                self.raise(Event::Closed {
                    error_code: code,
                    reason: "handshake refused".into(),
                    by_peer: true,
                });
            }
            _ => self.close(0x1, "unexpected handshake message"),
        }
    }

    fn handle_stream_frame(
        &mut self,
        id: StreamId,
        offset: u64,
        fin: bool,
        data: Payload,
        pty: PacketType,
    ) {
        // Server must not act on 1-RTT-style app data while handshaking
        // (cannot happen with well-behaved peers; drop defensively).
        if self.state == State::Handshaking
            && self.side == Side::Server
            && pty == PacketType::OneRtt
        {
            return;
        }
        if !self.accept_peer_stream(id) {
            return;
        }
        let Some(s) = self.recv_half(id) else {
            return; // data for one of our own uni streams
        };
        let before = s.highest_seen();
        if !s.on_stream_frame(offset, data, fin) {
            self.close(0x3, "flow control violation");
            return;
        }
        let (grown, readable) = (s.highest_seen() - before, s.is_readable());
        self.data_received += grown;
        if self.data_received > self.local_max_data {
            self.close(0x3, "connection flow control violation");
            return;
        }
        if readable {
            self.notify_readable(id);
        }
    }

    /// Makes sure the peer's stream `id` exists before one of its frames
    /// is applied, opening it if it is new and inside the limit we
    /// advertised. False when the frame is to be dropped: a stream we
    /// released (a late retransmission must not resurrect it as a new
    /// peer stream), or one past the limit, which closes the connection.
    /// True for a stream that is not the peer's to open: its frame finds
    /// no receive half.
    fn accept_peer_stream(&mut self, id: StreamId) -> bool {
        let known = match id.dir() {
            Dir::Bi => self.bidi_streams.contains_key(&id),
            Dir::Uni => self.uni_recv.contains_key(&id),
        };
        if known || !self.peer_initiated(id) {
            return true;
        }
        let limit = match id.dir() {
            Dir::Bi => self.config.max_streams,
            Dir::Uni if self.uni_recv_retired(id.index()) => return false,
            Dir::Uni => self.local_max_uni,
        };
        if id.index() >= limit {
            self.close(0x4, "stream limit violated");
            return false;
        }
        let window = self.config.max_stream_data;
        match id.dir() {
            Dir::Bi => {
                self.bidi_streams.insert(id, Bidi::new(window));
            }
            Dir::Uni => {
                queue::borrow(&LENT_UNI_RECV, &mut self.uni_recv);
                self.uni_recv.insert(id, RecvStream::new(window));
            }
        }
        self.raise(Event::StreamOpened { id });
        true
    }

    /// Releases a peer uni stream read to its end or to its reset, and
    /// retires its index so a late retransmission cannot resurrect it.
    fn release_uni_recv(&mut self, id: StreamId) {
        self.uni_recv.remove(&id);
        queue::give_back(&LENT_UNI_RECV, &mut self.uni_recv);
        self.pending_max_stream_data.remove(&id);
        self.retire_uni_recv(id.index());
    }

    /// Marks a peer-initiated uni stream index as retired. Contiguous
    /// indices fold into the watermark so the overflow set stays small,
    /// and the peer's credit follows the watermark: once the limit can
    /// move by half a window, a MAX_STREAMS is queued.
    fn retire_uni_recv(&mut self, index: u64) {
        if index < self.retired_uni_recv_below {
            return;
        }
        self.retired_uni_recv.insert(index);
        while self.retired_uni_recv.remove(&self.retired_uni_recv_below) {
            self.retired_uni_recv_below += 1;
        }
        let window = self.config.max_streams;
        let limit = self.retired_uni_recv_below + window;
        if limit - self.local_max_uni >= (window / CREDIT_STEP).max(1) {
            self.local_max_uni = limit;
            self.pending_max_streams = true;
        }
    }

    fn uni_recv_retired(&self, index: u64) -> bool {
        index < self.retired_uni_recv_below || self.retired_uni_recv.contains(&index)
    }

    /// Feeds newly-acked stream ranges back to their send streams so the
    /// retransmission buffers drain. One-shot uni streams whose data and
    /// FIN are fully acknowledged are released entirely — without this,
    /// every byte ever written would stay buffered for the connection's
    /// lifetime — and the ACK that releases the last gives the table's
    /// storage to the thread.
    fn handle_acked(&mut self, acked: Vec<RetxInfo>) {
        for r in acked {
            if let RetxInfo::Stream {
                id,
                offset,
                len,
                fin,
            } = r
            {
                let id = StreamId(id);
                let Some(s) = self.send_half(id) else {
                    continue;
                };
                s.on_ack(offset, len, fin);
                if id.dir() == Dir::Uni && s.is_fully_acked() {
                    self.uni_send.remove(&id);
                    self.pending_streams.remove(&id);
                }
            }
        }
        queue::give_back(&LENT_UNI_SEND, &mut self.uni_send);
    }

    fn requeue_lost(&mut self, lost: Vec<RetxInfo>) {
        for r in lost {
            match r {
                RetxInfo::Crypto { .. } | RetxInfo::ServerHello => {
                    if !self.handshake_acked() {
                        self.crypto_pending = true;
                    }
                }
                RetxInfo::Stream {
                    id,
                    offset,
                    len,
                    fin,
                } => {
                    if let Some(s) = self.send_half(StreamId(id)) {
                        s.on_loss(offset, len, fin);
                        if s.has_pending() {
                            self.pending_streams.insert(StreamId(id));
                        }
                    }
                }
                RetxInfo::MaxData => self.pending_max_data = true,
                RetxInfo::MaxStreams => self.pending_max_streams = true,
                RetxInfo::MaxStreamData { id } => {
                    self.pending_max_stream_data.insert(StreamId(id));
                }
                RetxInfo::HandshakeDone => {}
            }
        }
    }

    fn handshake_acked(&self) -> bool {
        // Once established and our flight isn't pending, peer clearly has it;
        // this only suppresses useless retransmits after establishment.
        self.state == State::Established && self.handshake_processed && self.side == Side::Client
    }

    // ------------------------------------------------------------------
    // Transmission
    // ------------------------------------------------------------------

    /// Builds the next outgoing UDP datagram, or `None` if there is nothing
    /// to send right now. Call repeatedly until `None`. The datagram is
    /// encoded once into the thread's scratch buffer and returned as a
    /// shared [`Payload`].
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<Payload> {
        // Draining: flush the terminal close frame (exactly once), then
        // the machine completes its move to Closed. Closed is inert.
        if self.state == State::Draining {
            self.transition(State::Closed);
            if let Some((code, reason)) = self.close_frame.take() {
                let mut frames = Vec::new();
                if self.crypto_pending {
                    // A HelloRetry rides along with the close.
                    if let Some(c) = &self.crypto_out {
                        frames.push(Frame::Crypto {
                            offset: 0,
                            data: c.clone(),
                        });
                    }
                    self.crypto_pending = false;
                }
                frames.push(Frame::ConnectionClose {
                    error_code: code,
                    reason,
                });
                let pkt = self.seal(now, PacketType::OneRtt, frames, &[], false);
                return Some(self.finish_datagram(now, vec![pkt]));
            }
            return None;
        }
        if self.state == State::Closed {
            return None;
        }

        let mut packets: Vec<Packet> = Vec::new();
        let mut budget = self.config.max_udp_payload.saturating_sub(16);

        // 1. Handshake flight (Initial packet).
        if self.crypto_pending {
            if let Some(c) = self.crypto_out.clone() {
                let retx = if self.side == Side::Client {
                    RetxInfo::Crypto {
                        offset: 0,
                        len: c.len() as u64,
                    }
                } else {
                    RetxInfo::ServerHello
                };
                let frames = vec![Frame::Crypto { offset: 0, data: c }];
                let pkt = self.seal(now, PacketType::Initial, frames, &[retx], true);
                budget = budget.saturating_sub(pkt.encoded_len() + 4);
                packets.push(pkt);
                self.crypto_pending = false;
            }
        }

        // 2. Application packet(s).
        let can_send_app = self.state == State::Established
            || (self.side == Side::Client && self.attempted_early_data);
        let app_type = if self.state == State::Established {
            PacketType::OneRtt
        } else {
            PacketType::ZeroRtt
        };

        let mut frames: Vec<Frame> = Vec::new();
        let mut retx = RETX.take();
        let mut ack_eliciting = false;

        if self.acks.ack_pending && self.acks.any() {
            frames.push(Frame::Ack {
                ranges: self.acks.ack_ranges(),
            });
            self.acks.ack_pending = false;
        }
        if self.ping_pending {
            frames.push(Frame::Ping);
            self.ping_pending = false;
            self.stats.pings_sent += 1;
            ack_eliciting = true;
        }
        if can_send_app {
            if self.pending_max_data {
                frames.push(Frame::MaxData {
                    max: self.local_max_data,
                });
                retx.push(RetxInfo::MaxData);
                self.pending_max_data = false;
                ack_eliciting = true;
            }
            if self.pending_max_streams {
                frames.push(Frame::MaxStreams {
                    bidi: false,
                    max: self.local_max_uni,
                });
                retx.push(RetxInfo::MaxStreams);
                self.pending_max_streams = false;
                ack_eliciting = true;
            }
            for id in std::mem::take(&mut self.pending_max_stream_data) {
                if let Some(s) = self.recv_half(id) {
                    frames.push(Frame::MaxStreamData {
                        id,
                        max: s.max_stream_data,
                    });
                    retx.push(RetxInfo::MaxStreamData { id: id.0 });
                    ack_eliciting = true;
                }
            }
            // Unreliable datagrams (not retransmitted, not flow controlled).
            while let Some(d) = self.datagram_queue_out.front() {
                if d.len() + 8 > budget {
                    break;
                }
                let d = self.datagram_queue_out.pop_front().unwrap();
                budget -= d.len() + 8;
                frames.push(Frame::Datagram { data: d });
                ack_eliciting = true;
            }
            // Stream data, congestion + budget permitting. Only streams
            // in the pending queue are visited — never the stream tables;
            // ascending id order matches a full scan's packetization.
            if self.recovery.can_send(256) && !self.pending_streams.is_empty() {
                let mut pending = std::mem::take(&mut self.pending_streams);
                pending.retain(|&id| {
                    while budget > 32 && self.recovery.can_send(budget.min(1200)) {
                        let Some(s) = self.send_half(id) else {
                            break;
                        };
                        let Some((offset, data, fin)) = s.pop_transmit(budget - 32) else {
                            break;
                        };
                        budget = budget.saturating_sub(data.len() + 16);
                        retx.push(RetxInfo::Stream {
                            id: id.0,
                            offset,
                            len: data.len() as u64,
                            fin,
                        });
                        frames.push(Frame::Stream {
                            id,
                            offset,
                            fin,
                            data,
                        });
                        ack_eliciting = true;
                    }
                    // Lazy prune: drained (or stale) entries leave the
                    // queue; budget-limited streams stay for next time.
                    self.send_half(id).is_some_and(|s| s.has_pending())
                });
                self.pending_streams = pending;
            }
        }

        if !frames.is_empty() {
            let pkt = self.seal(now, app_type, frames, &retx, ack_eliciting);
            packets.push(pkt);
        }
        retx.clear();
        RETX.set(retx);

        if packets.is_empty() {
            return None;
        }
        Some(self.finish_datagram(now, packets))
    }

    /// Numbers a packet leaving at `now`. Only an ack-eliciting one
    /// enters the sent-packet ledger, with a copy of `retx` at exactly
    /// its length: nothing acknowledges an ack-only packet on its own,
    /// and nothing in it can be retransmitted.
    fn seal(
        &mut self,
        now: SimTime,
        ty: PacketType,
        frames: Vec<Frame>,
        retx: &[RetxInfo],
        ack_eliciting: bool,
    ) -> Packet {
        let pn = self.next_pn;
        self.next_pn += 1;
        let pkt = Packet {
            ty,
            dcid: self.cid,
            pn,
            frames,
        };
        if ack_eliciting {
            self.recovery.on_packet_sent(
                pn,
                SentPacket {
                    time_sent: now,
                    size: pkt.encoded_len(),
                    retx: retx.to_vec(),
                },
            );
        } else {
            debug_assert!(retx.is_empty(), "an ack-only packet has nothing to resend");
        }
        self.stats.packets_sent += 1;
        pkt
    }

    fn finish_datagram(&mut self, now: SimTime, packets: Vec<Packet>) -> Payload {
        // Encode once into the thread's scratch buffer, hand out a
        // shared view.
        let dg = with_scratch(|w| {
            encode_datagram_into(&packets, w);
            Payload::from(w.as_slice())
        });
        self.stats.bytes_sent += dg.len() as u64;
        self.last_tx = now;
        dg
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// The next instant `handle_timeout` should be called, if any.
    ///
    /// The liveness contract: while `Established`, the idle deadline is
    /// `last_rx + max_idle_timeout` and (if configured) a keep-alive PING
    /// is due at `last_tx + keep_alive_interval`; a conforming peer's
    /// keep-alives therefore hold off our idle timer indefinitely. Once
    /// closing (`Draining`/`Closed`) all timers are off.
    pub fn poll_timeout(&self) -> Option<SimTime> {
        if self.is_closed() {
            return None;
        }
        let mut deadline: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            deadline = Some(match deadline {
                Some(d) => d.min(t),
                None => t,
            });
        };
        if let Some(t) = self.recovery.next_timeout() {
            consider(t);
        }
        consider(self.last_rx + self.config.max_idle_timeout);
        if let Some(ka) = self.config.keep_alive_interval {
            if self.state == State::Established {
                consider(self.last_tx + ka);
            }
        }
        deadline
    }

    /// Processes timer expiry at `now`: loss detection / PTO, idle timeout,
    /// keep-alive. Spurious calls are harmless.
    pub fn handle_timeout(&mut self, now: SimTime) {
        if self.is_closed() {
            return;
        }
        // Idle timeout: silent death (QUIC does not signal it on the
        // wire), so skip Draining and go straight to Closed.
        if now >= self.last_rx + self.config.max_idle_timeout {
            self.transition(State::Closed);
            self.raise(Event::Closed {
                error_code: 0,
                reason: "idle timeout".into(),
                by_peer: true,
            });
            return;
        }
        // Loss / PTO.
        if let Some(t) = self.recovery.next_timeout() {
            if now >= t {
                let ev = self.recovery.on_timeout(now);
                self.requeue_lost(ev.lost);
            }
        }
        // Keep-alive.
        if let Some(ka) = self.config.keep_alive_interval {
            if self.state == State::Established && now >= self.last_tx + ka {
                self.ping_pending = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::decode_datagram;
    use std::time::Duration;

    const ALPN: &[u8] = b"moq-dns/1";

    fn alpns() -> AlpnList {
        crate::connection::alpn_list(&[ALPN])
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Shuttles datagrams between two connections with a fixed one-way
    /// delay until both are quiet. Returns the virtual completion time.
    fn shuttle(a: &mut Connection, b: &mut Connection, start: SimTime, owd_ms: u64) -> SimTime {
        let mut now = start;
        for _ in 0..64 {
            let mut any = false;
            let mut a2b = Vec::new();
            while let Some(d) = a.poll_transmit(now) {
                a2b.push(d);
            }
            let mut b2a = Vec::new();
            while let Some(d) = b.poll_transmit(now) {
                b2a.push(d);
            }
            if !a2b.is_empty() || !b2a.is_empty() {
                any = true;
                now += Duration::from_millis(owd_ms);
                for d in a2b {
                    b.handle_datagram(now, &d);
                }
                for d in b2a {
                    a.handle_datagram(now, &d);
                }
            }
            if !any {
                break;
            }
        }
        now
    }

    fn pair(now: SimTime) -> (Connection, Connection) {
        let client = Connection::client(7, TransportConfig::default(), alpns(), None, now);
        let server = Connection::server(7, TransportConfig::default(), alpns(), 99, now);
        (client, server)
    }

    fn drain_events(c: &mut Connection) -> Vec<Event> {
        let mut out = Vec::new();
        while let Some(e) = c.poll_event() {
            out.push(e);
        }
        out
    }

    #[test]
    fn fresh_handshake_takes_one_rtt() {
        let (mut c, mut s) = pair(t(0));
        // Client's first flight.
        let flight1 = c.poll_transmit(t(0)).expect("client hello");
        assert!(c.poll_transmit(t(0)).is_none(), "nothing else to send");
        // Arrives at server at 50ms (OWD).
        s.handle_datagram(t(50), &flight1);
        let sev = drain_events(&mut s);
        assert!(matches!(sev[0], Event::Connected { .. }));
        assert!(s.is_established());
        // Server flight back; client established at 100ms = 1 RTT.
        let flight2 = s.poll_transmit(t(50)).expect("server hello");
        c.handle_datagram(t(100), &flight2);
        assert!(c.is_established());
        let cev = drain_events(&mut c);
        assert!(matches!(
            &cev[0],
            Event::Connected { alpn, early_data_accepted: None } if alpn.as_ref() == ALPN
        ));
        assert!(matches!(&cev[1], Event::TicketIssued(_)));
    }

    #[test]
    fn ack_only_packets_are_not_tracked() {
        // The server writes, the client only reads: every packet the
        // client sends after the handshake is an ACK, none is ledgered and
        // no probe timer is armed for them.
        let (mut c, mut s) = pair(t(0));
        let mut now = shuttle(&mut c, &mut s, t(0), 1);
        let id = s.open_stream(Dir::Uni).unwrap();
        for _ in 0..20 {
            let sent = c.stats().packets_sent;
            s.send_stream(id, b"an update").unwrap();
            now = shuttle(&mut c, &mut s, now, 1);
            assert_eq!(c.read_stream(id, 64).unwrap().0, b"an update");
            assert_eq!(c.stats().packets_sent, sent + 1, "one ACK per update");
            assert_eq!(c.state_breakdown().2, 0, "and it is not in the ledger");
            assert_eq!(s.state_breakdown().2, 0, "the update itself was acked");
        }
        let idle = TransportConfig::default().max_idle_timeout;
        assert!(c.poll_timeout().is_some_and(|at| at >= t(0) + idle));
    }

    #[test]
    fn a_long_lived_stream_costs_the_same_at_message_100_and_10_000() {
        // One stream held open, the server writing, the client reading
        // and acknowledging: what either side holds must not know how
        // long that has gone on. (One stream; many are
        // `five_thousand_one_shot_streams_ride_one_connection`.)
        let (mut c, mut s) = pair(t(0));
        let mut now = shuttle(&mut c, &mut s, t(0), 1);
        let id = s.open_stream(Dir::Uni).unwrap();
        let mut held_at_100 = None;
        for n in 1..=10_000u32 {
            let message = [n as u8; 120];
            assert_eq!(s.send_stream(id, &message).unwrap(), message.len());
            now = shuttle(&mut c, &mut s, now, 1);
            assert_eq!(c.read_stream(id, 4096).unwrap().0, message);
            // The read may have moved a flow-control window.
            now = shuttle(&mut c, &mut s, now, 1);
            drain_events(&mut c);
            let held = [&c, &s].map(|x| (x.state_size_estimate(), x.state_breakdown()));
            match (n, held_at_100) {
                (100, _) => held_at_100 = Some(held),
                (10_000, at_100) => assert_eq!(Some(held), at_100),
                _ => {}
            }
        }
        // The stream's window did move, and each update was acknowledged.
        assert!(10_000 * 120 > TransportConfig::default().max_stream_data);
        assert_eq!(c.state_breakdown(), (0, 1, 0));
        assert_eq!(s.state_breakdown(), (1, 0, 0));
    }

    #[test]
    fn client_app_data_waits_for_handshake_without_ticket() {
        let (mut c, _s) = pair(t(0));
        let id = c.open_stream(Dir::Bi).unwrap();
        c.send_stream(id, b"too early").unwrap();
        let flight = c.poll_transmit(t(0)).unwrap();
        // Only the Initial packet — no 0-RTT without a ticket.
        let pkts = decode_datagram(&flight).unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].ty, PacketType::Initial);
    }

    #[test]
    fn zero_rtt_data_rides_first_flight() {
        let now = t(0);
        let mut c = Connection::client(
            8,
            TransportConfig::default(),
            alpns(),
            Some(Ticket(vec![1; 16])),
            now,
        );
        let mut s = Connection::server(8, TransportConfig::default(), alpns(), 99, now);
        let id = c.open_stream(Dir::Bi).unwrap();
        c.send_stream(id, b"early dns query").unwrap();
        c.finish_stream(id).unwrap();

        let flight = c.poll_transmit(now).unwrap();
        let pkts = decode_datagram(&flight).unwrap();
        assert_eq!(pkts[0].ty, PacketType::Initial);
        assert!(pkts.iter().any(|p| p.ty == PacketType::ZeroRtt));

        // Server receives the whole flight at 0.5 RTT and can read data.
        s.handle_datagram(t(50), &flight);
        let ev = drain_events(&mut s);
        assert!(matches!(ev[0], Event::Connected { .. }));
        assert!(ev.iter().any(|e| matches!(e, Event::StreamOpened { .. })));
        let (data, fin) = s.read_stream(id, 1024).unwrap();
        assert_eq!(data, b"early dns query");
        assert!(fin);
    }

    #[test]
    fn zero_rtt_rejection_falls_back_to_one_rtt() {
        let now = t(0);
        let mut c = Connection::client(
            9,
            TransportConfig::default(),
            alpns(),
            Some(Ticket(vec![1; 16])),
            now,
        );
        let mut s = Connection::server(9, TransportConfig::default(), alpns(), 99, now);
        s.set_accept_early_data(false);
        let id = c.open_stream(Dir::Bi).unwrap();
        c.send_stream(id, b"early").unwrap();
        c.finish_stream(id).unwrap();

        let end = shuttle(&mut c, &mut s, now, 50);
        // Client learned rejection…
        let cev = drain_events(&mut c);
        assert!(cev.iter().any(|e| matches!(
            e,
            Event::Connected {
                early_data_accepted: Some(false),
                ..
            }
        )));
        // …but the data still arrives via retransmission.
        let (data, fin) = s.read_stream(id, 1024).unwrap();
        assert_eq!(data, b"early");
        assert!(fin);
        assert!(end > t(100), "needed more than one round trip");
    }

    #[test]
    fn bidirectional_stream_exchange() {
        let (mut c, mut s) = pair(t(0));
        shuttle(&mut c, &mut s, t(0), 10);
        drain_events(&mut c);
        drain_events(&mut s);

        let id = c.open_stream(Dir::Bi).unwrap();
        assert_eq!(c.send_stream(id, b"question").unwrap(), 8);
        c.finish_stream(id).unwrap();
        shuttle(&mut c, &mut s, t(100), 10);

        let sev = drain_events(&mut s);
        assert!(sev
            .iter()
            .any(|e| matches!(e, Event::StreamOpened { id: i } if *i == id)));
        let (q, fin) = s.read_stream(id, 100).unwrap();
        assert_eq!(q, b"question");
        assert!(fin);

        s.send_stream(id, b"answer").unwrap();
        s.finish_stream(id).unwrap();
        shuttle(&mut c, &mut s, t(200), 10);
        let (a, fin) = c.read_stream(id, 100).unwrap();
        assert_eq!(a, b"answer");
        assert!(fin);
    }

    #[test]
    fn server_opens_unidirectional_stream() {
        let (mut c, mut s) = pair(t(0));
        shuttle(&mut c, &mut s, t(0), 10);
        drain_events(&mut c);
        drain_events(&mut s);

        let id = s.open_stream(Dir::Uni).unwrap();
        assert_eq!(id, StreamId::new(false, Dir::Uni, 0));
        s.send_stream(id, b"pushed update").unwrap();
        shuttle(&mut c, &mut s, t(100), 10);
        let cev = drain_events(&mut c);
        assert!(cev.iter().any(|e| matches!(e, Event::StreamOpened { .. })));
        let (data, _) = c.read_stream(id, 100).unwrap();
        assert_eq!(data, b"pushed update");
    }

    #[test]
    fn datagrams_flow_after_establishment() {
        let (mut c, mut s) = pair(t(0));
        shuttle(&mut c, &mut s, t(0), 10);
        drain_events(&mut c);
        drain_events(&mut s);
        c.send_datagram(b"unreliable".to_vec()).unwrap();
        shuttle(&mut c, &mut s, t(100), 10);
        let ev = drain_events(&mut s);
        assert!(ev
            .iter()
            .any(|e| matches!(e, Event::DatagramReceived(d) if d == b"unreliable")));
    }

    #[test]
    fn oversized_datagram_rejected() {
        let (mut c, _) = pair(t(0));
        assert_eq!(
            c.send_datagram(vec![0; 5000]),
            Err(ConnectionError::DatagramUnsupported)
        );
    }

    #[test]
    fn alpn_mismatch_refuses_connection() {
        let now = t(0);
        let mut c = Connection::client(
            1,
            TransportConfig::default(),
            crate::connection::alpn_list(&[b"foo"]),
            None,
            now,
        );
        let mut s = Connection::server(
            1,
            TransportConfig::default(),
            crate::connection::alpn_list(&[b"bar"]),
            99,
            now,
        );
        shuttle(&mut c, &mut s, now, 10);
        assert!(c.is_closed());
        let cev = drain_events(&mut c);
        assert!(cev
            .iter()
            .any(|e| matches!(e, Event::Closed { by_peer: true, .. })));
    }

    #[test]
    fn close_notifies_peer() {
        let (mut c, mut s) = pair(t(0));
        shuttle(&mut c, &mut s, t(0), 10);
        drain_events(&mut c);
        drain_events(&mut s);
        c.close(0, "done");
        shuttle(&mut c, &mut s, t(100), 10);
        let sev = drain_events(&mut s);
        assert!(sev.iter().any(|e| matches!(
            e,
            Event::Closed {
                by_peer: true,
                reason,
                ..
            } if reason == "done"
        )));
        assert!(s.is_closed());
    }

    #[test]
    fn lost_client_hello_is_retransmitted() {
        let (mut c, mut s) = pair(t(0));
        // First flight vanishes.
        let _lost = c.poll_transmit(t(0)).unwrap();
        // PTO fires; retransmission reaches the server.
        let deadline = c.poll_timeout().unwrap();
        c.handle_timeout(deadline);
        let flight = c.poll_transmit(deadline).expect("retransmit");
        s.handle_datagram(deadline + Duration::from_millis(10), &flight);
        assert!(s.is_established());
    }

    #[test]
    fn lost_stream_data_recovers() {
        let (mut c, mut s) = pair(t(0));
        shuttle(&mut c, &mut s, t(0), 10);
        drain_events(&mut c);
        drain_events(&mut s);
        let id = c.open_stream(Dir::Bi).unwrap();
        c.send_stream(id, b"will be lost").unwrap();
        c.finish_stream(id).unwrap();
        let _lost = c.poll_transmit(t(100)).unwrap();
        // PTO recovers it.
        let deadline = c.poll_timeout().unwrap();
        c.handle_timeout(deadline);
        shuttle(&mut c, &mut s, deadline, 10);
        let (data, fin) = s.read_stream(id, 100).unwrap();
        assert_eq!(data, b"will be lost");
        assert!(fin);
    }

    #[test]
    fn idle_timeout_closes_silently() {
        let cfg = TransportConfig::default().idle_timeout(Duration::from_secs(5));
        let mut c = Connection::client(1, cfg.clone(), alpns(), None, t(0));
        let mut s = Connection::server(1, cfg, alpns(), 99, t(0));
        let end = shuttle(&mut c, &mut s, t(0), 10);
        drain_events(&mut c);
        let deadline = c.poll_timeout().unwrap();
        assert!(deadline <= end + Duration::from_secs(5));
        c.handle_timeout(t(6000));
        assert!(c.is_closed());
        let ev = drain_events(&mut c);
        assert!(ev
            .iter()
            .any(|e| matches!(e, Event::Closed { reason, .. } if reason == "idle timeout")));
    }

    #[test]
    fn keepalive_pings_prevent_idle_death() {
        let cfg = TransportConfig::default()
            .idle_timeout(Duration::from_secs(10))
            .keep_alive(Duration::from_secs(2));
        let mut c = Connection::client(1, cfg.clone(), alpns(), None, t(0));
        let mut s = Connection::server(1, cfg, alpns(), 99, t(0));
        let mut now = shuttle(&mut c, &mut s, t(0), 10);
        drain_events(&mut c);
        drain_events(&mut s);
        // Run 30 virtual seconds of keep-alive cycles.
        let end = now + Duration::from_secs(30);
        let mut guard = 0;
        while now < end && guard < 200 {
            guard += 1;
            let next = c
                .poll_timeout()
                .into_iter()
                .chain(s.poll_timeout())
                .min()
                .unwrap();
            now = next.max(now + Duration::from_millis(1));
            c.handle_timeout(now);
            s.handle_timeout(now);
            now = shuttle(&mut c, &mut s, now, 10);
        }
        assert!(!c.is_closed());
        assert!(!s.is_closed());
        // At least one side pings; an endpoint whose ACK traffic keeps
        // resetting its own keep-alive clock legitimately stays quiet.
        assert!(
            c.stats().pings_sent + s.stats().pings_sent > 0,
            "keep-alives were sent"
        );
    }

    #[test]
    fn stream_limit_enforced() {
        let cfg = TransportConfig {
            max_streams: 2,
            ..TransportConfig::default()
        };
        let mut c = Connection::client(1, cfg, alpns(), None, t(0));
        c.open_stream(Dir::Bi).unwrap();
        c.open_stream(Dir::Bi).unwrap();
        assert_eq!(c.open_stream(Dir::Bi), Err(ConnectionError::StreamLimit));
        // Different direction has its own counter.
        c.open_stream(Dir::Uni).unwrap();
    }

    #[test]
    fn large_transfer_with_flow_control_updates() {
        let cfg = TransportConfig {
            max_stream_data: 4096,
            max_data: 8192,
            ..TransportConfig::default()
        };
        let mut c = Connection::client(1, cfg.clone(), alpns(), None, t(0));
        let mut s = Connection::server(1, cfg, alpns(), 99, t(0));
        let mut now = shuttle(&mut c, &mut s, t(0), 5);
        drain_events(&mut c);
        drain_events(&mut s);

        let id = c.open_stream(Dir::Bi).unwrap();
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let mut written = 0;
        let mut received = Vec::new();
        let mut guard = 0;
        while received.len() < payload.len() && guard < 500 {
            guard += 1;
            if written < payload.len() {
                written += c.send_stream(id, &payload[written..]).unwrap();
                if written == payload.len() {
                    c.finish_stream(id).unwrap();
                }
            }
            now = shuttle(&mut c, &mut s, now, 5);
            loop {
                let (chunk, _fin) = s.read_stream(id, 65536).unwrap();
                if chunk.is_empty() {
                    break;
                }
                received.extend_from_slice(&chunk);
            }
        }
        assert_eq!(received, payload, "after {guard} rounds");
    }

    #[test]
    fn duplicate_datagrams_are_idempotent() {
        let (mut c, mut s) = pair(t(0));
        let flight = c.poll_transmit(t(0)).unwrap();
        s.handle_datagram(t(10), &flight);
        s.handle_datagram(t(11), &flight); // replay
        let ev = drain_events(&mut s);
        let connected = ev
            .iter()
            .filter(|e| matches!(e, Event::Connected { .. }))
            .count();
        assert_eq!(connected, 1);
    }

    #[test]
    fn garbage_datagrams_ignored() {
        let (mut c, _) = pair(t(0));
        c.handle_datagram(t(0), &Payload::from(&b"\xFF\xFF\xFF"[..]));
        c.handle_datagram(t(0), &Payload::empty());
        assert!(!c.is_closed());
    }

    #[test]
    fn state_size_grows_with_streams() {
        let (mut c, _) = pair(t(0));
        let base = c.state_size_estimate();
        for _ in 0..10 {
            c.open_stream(Dir::Bi).unwrap();
        }
        assert!(c.state_size_estimate() > base);
    }

    #[test]
    fn peer_streams_opened_highest_first_stay_cheap() {
        // The stream tables are sorted vectors, and the peer picks the
        // order its streams appear in — but the `max_streams` window
        // bounds how many are open at once, so the worst case is this
        // one: every stream the window allows, one datagram each,
        // delivered last to first. Each new stream lands in front of all
        // the others (a 90 KB move at the end).
        let config = TransportConfig {
            initial_cwnd: 1 << 20,
            ..TransportConfig::default()
        };
        let streams = config.max_streams;
        let mut c = Connection::client(7, config, alpns(), None, t(0));
        let mut s = Connection::server(7, TransportConfig::default(), alpns(), 99, t(0));
        shuttle(&mut c, &mut s, t(0), 1);
        assert!(c.is_established() && s.is_established());
        drain_events(&mut s);
        let mut flights = Vec::new();
        for _ in 0..streams {
            let id = c.open_stream(Dir::Uni).unwrap();
            c.send_stream(id, b"x").unwrap();
            flights.push(c.poll_transmit(t(10)).expect("one datagram per stream"));
        }
        let started = std::time::Instant::now();
        for d in flights.iter().rev() {
            s.handle_datagram(t(20), d);
        }
        let took = started.elapsed();
        assert!(!s.is_closed());
        let readable = drain_events(&mut s)
            .iter()
            .filter(|e| matches!(e, Event::StreamReadable { .. }))
            .count();
        assert_eq!(readable as u64, streams);
        assert!(
            took < Duration::from_millis(500),
            "{streams} streams in descending order took {took:?}"
        );
    }

    /// A link between two connections that drops a seeded share of the
    /// datagrams each way — and, when it drops any, the first datagram
    /// that carries a MAX_STREAMS — delivering the rest after 1 ms.
    struct Link {
        now: SimTime,
        loss_percent: u64,
        seed: u64,
        dropped: u64,
        dropped_credit: bool,
    }

    impl Link {
        fn new(loss_percent: u64, now: SimTime) -> Link {
            Link {
                now,
                loss_percent,
                seed: 0x5EED,
                dropped: 0,
                dropped_credit: false,
            }
        }

        fn drops(&mut self, d: &Payload) -> bool {
            if self.loss_percent == 0 {
                return false;
            }
            let credit = decode_datagram(d).unwrap().iter().any(|p| {
                p.frames
                    .iter()
                    .any(|f| matches!(f, Frame::MaxStreams { .. }))
            });
            self.seed = moqdns_netsim::splitmix64(self.seed);
            let drop = (credit && !self.dropped_credit) || self.seed % 100 < self.loss_percent;
            self.dropped_credit |= credit && drop;
            self.dropped += u64::from(drop);
            drop
        }

        /// Carries one flight each way; with none, fires the earlier of
        /// the two timers (the caller steps only while a packet is in
        /// flight, so that is a loss or probe timer, never idleness).
        fn step(&mut self, a: &mut Connection, b: &mut Connection) {
            let (a_sent, b_sent) = (self.carry(a, b), self.carry(b, a));
            if a_sent || b_sent {
                self.now += Duration::from_millis(1);
                return;
            }
            let due = a.poll_timeout().into_iter().chain(b.poll_timeout()).min();
            self.now = due.unwrap().max(self.now + Duration::from_millis(1));
            a.handle_timeout(self.now);
            b.handle_timeout(self.now);
        }

        /// Carries `from`'s flight to `to`, less what it drops; true if
        /// `from` sent anything.
        fn carry(&mut self, from: &mut Connection, to: &mut Connection) -> bool {
            let mut sent = false;
            while let Some(d) = from.poll_transmit(self.now) {
                sent = true;
                if !self.drops(&d) {
                    to.handle_datagram(self.now + Duration::from_millis(1), &d);
                }
            }
            sent
        }

        /// Steps until neither side has a packet in flight or anything to
        /// send.
        fn settle(&mut self, a: &mut Connection, b: &mut Connection) {
            for _ in 0..10_000 {
                if a.state_breakdown().2 + b.state_breakdown().2 > 0 {
                    self.step(a, b);
                } else if self.carry(a, b) | self.carry(b, a) {
                    self.now += Duration::from_millis(1);
                } else {
                    return;
                }
            }
            panic!("the link never settled");
        }
    }

    /// The server sends `streams` one-shot uni streams, one at a time,
    /// each read by the client as it lands, over a link losing
    /// `loss_percent` of its datagrams. Returns what both sides hold —
    /// estimate and stream tables — after stream 1,000 and after the
    /// last, each once the link has settled.
    fn one_shot_streams(streams: u32, loss_percent: u64) -> [(usize, (usize, usize, usize)); 2] {
        let (mut c, mut s) = pair(t(0));
        let mut link = Link::new(0, t(0));
        link.settle(&mut c, &mut s);
        link.loss_percent = loss_percent;
        let mut held = Vec::new();
        for n in 1..=streams {
            let id = loop {
                match s.open_stream(Dir::Uni) {
                    Ok(id) => break id,
                    // Its MAX_STREAMS was lost: the retransmission comes.
                    Err(ConnectionError::StreamLimit) => link.step(&mut c, &mut s),
                    Err(e) => panic!("stream {n}: {e}"),
                }
            };
            let message = n.to_be_bytes();
            s.send_stream(id, &message).unwrap();
            s.finish_stream(id).unwrap();
            let mut read = false;
            for _ in 0..10_000 {
                link.step(&mut c, &mut s);
                if let Ok((data, true)) = c.read_stream(id, 64) {
                    assert_eq!(data, message, "stream {n}");
                    read = true;
                    break;
                }
            }
            assert!(read, "stream {n} was never read");
            drain_events(&mut c);
            drain_events(&mut s);
            if n == 1_000 || n == streams {
                link.settle(&mut c, &mut s);
                drain_events(&mut c);
                held.push([&c, &s].map(|x| (x.state_size_estimate(), x.state_breakdown())));
            }
        }
        assert!(!c.is_closed() && !s.is_closed());
        assert_eq!(c.retired_uni_recv_below, u64::from(streams), "all retired");
        assert_eq!(link.dropped > 0, loss_percent > 0);
        assert_eq!(link.dropped_credit, loss_percent > 0);
        assert_eq!(held[0], held[1], "{loss_percent}% loss");
        held[1]
    }

    #[test]
    fn five_thousand_one_shot_streams_ride_one_connection() {
        // A lifetime cap of `max_streams` stopped this at 1,024. With
        // stream credit the window moves as streams are read, and what
        // either side holds does not know how many went before.
        for loss_percent in [0, 10] {
            let held = one_shot_streams(5_000, loss_percent);
            // The client holds no peer stream, the server none of its
            // own: each was released when read, or when acknowledged.
            assert_eq!(held.map(|(_, (send, recv, _))| (send, recv)), [(0, 0); 2]);
        }
    }

    #[test]
    fn a_peer_opening_past_the_advertised_limit_is_closed() {
        // The client grants four streams at once; the server, believing
        // it may open sixty-four, opens past that.
        let narrow = TransportConfig {
            max_streams: 4,
            ..TransportConfig::default()
        };
        let wide = TransportConfig {
            max_streams: 64,
            ..TransportConfig::default()
        };
        let mut c = Connection::client(3, narrow, alpns(), None, t(0));
        let mut s = Connection::server(3, wide, alpns(), 99, t(0));
        let mut now = shuttle(&mut c, &mut s, t(0), 1);
        let send = |s: &mut Connection, n: usize| -> Vec<StreamId> {
            (0..n)
                .map(|_| {
                    let id = s.open_stream(Dir::Uni).unwrap();
                    s.send_stream(id, b"x").unwrap();
                    s.finish_stream(id).unwrap();
                    id
                })
                .collect()
        };
        // Four, read: the limit the client advertises moves to eight.
        for id in send(&mut s, 4) {
            now = shuttle(&mut c, &mut s, now, 1);
            assert_eq!(c.read_stream(id, 8).unwrap(), (b"x".to_vec(), true));
        }
        now = shuttle(&mut c, &mut s, now, 1);
        assert_eq!(c.local_max_uni, 8);
        // Four more are inside it, past the limit it started with.
        send(&mut s, 4);
        now = shuttle(&mut c, &mut s, now, 1);
        assert!(!c.is_closed());
        // The ninth is past what was advertised.
        send(&mut s, 1);
        shuttle(&mut c, &mut s, now, 1);
        assert!(c.is_closed() && s.is_closed());
        assert!(drain_events(&mut c).iter().any(|e| matches!(
            e,
            Event::Closed { reason, by_peer: false, .. } if reason == "stream limit violated"
        )));
    }

    /// Resets stream `id` the way its sender will: its send state goes,
    /// and a RESET_STREAM leaves in a datagram of its own.
    fn reset_by_sender(s: &mut Connection, id: StreamId, now: SimTime) -> Payload {
        s.uni_send.remove(&id);
        s.pending_streams.remove(&id);
        let frames = vec![Frame::ResetStream { id, error_code: 0 }];
        let pkt = s.seal(now, PacketType::OneRtt, frames, &[], false);
        s.finish_datagram(now, vec![pkt])
    }

    #[test]
    fn a_reset_stream_is_released_and_the_window_keeps_moving() {
        // Every tenth of 2,000 streams is reset by its sender — every
        // other one of those after its data arrived, the rest before
        // anything of it did. A reset stream that stayed in the table
        // would pin the retired watermark, and with it the window, at
        // its index: the sender could then open no more than 1,024.
        let (mut c, mut s) = pair(t(0));
        let mut now = shuttle(&mut c, &mut s, t(0), 1);
        for n in 0..2_000u32 {
            let id = s.open_stream(Dir::Uni).expect("the window moved");
            let reset = n % 10 == 0;
            if !reset || n % 20 == 0 {
                s.send_stream(id, b"data").unwrap();
                if !reset {
                    s.finish_stream(id).unwrap();
                }
                now = shuttle(&mut c, &mut s, now, 1);
            }
            if reset {
                let dg = reset_by_sender(&mut s, id, now);
                c.handle_datagram(now, &dg);
                assert_eq!(c.read_stream(id, 64), Err(ConnectionError::Reset));
            } else {
                assert_eq!(c.read_stream(id, 64).unwrap(), (b"data".to_vec(), true));
            }
            assert_eq!(
                c.read_stream(id, 64),
                Err(ConnectionError::UnknownStream),
                "stream {n} released"
            );
            drain_events(&mut c);
        }
        assert_eq!(c.retired_uni_recv_below, 2_000, "all retired");
        assert!(c.retired_uni_recv.is_empty() && c.uni_recv.is_empty());
        assert_eq!(
            c.uni_recv.heap_bytes(),
            0,
            "the table went back to the thread"
        );
        assert_eq!(
            c.data_consumed, c.data_received,
            "what a reset left unread shrinks no window"
        );
    }
}
