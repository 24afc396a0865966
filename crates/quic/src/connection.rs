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
//! datagram up to [`MAX_UDP_PAYLOAD`]. An ACK owed when the handshake
//! flight leaves rides in its Initial packet (RFC 9000 §12.4 allows ACK
//! frames there), so a server answers a ClientHello with one packet, and
//! each contiguous run of a stream's queued bytes is one STREAM frame
//! ([`crate::streams`]). There is no delayed-ACK timer and no
//! send timer: what shares a datagram is decided only by what the driver
//! let accumulate before it polled. A driver that polls after every write
//! gets one frame per datagram and a bare ACK ahead of every answer;
//! `moqdns_core::stack` polls once per instant, after the owner has
//! reacted to everything that reached it at that clock reading, so the
//! ACK rides with the answer, a burst of datagrams is acknowledged once
//! and every object an instant produced for this connection leaves
//! together.
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
//! A stream write goes whole or not at all ([`Connection::send_stream`]):
//! one that finds the connection's window short of it is held back by
//! its caller; the MAX_DATA that raises the window raises
//! [`Event::StreamsAvailable`].
//!
//! # Stream credit (RFC 9000 §4.6, §19.11)
//!
//! `max_streams` is a concurrency window on unidirectional streams, not a
//! lifetime count. The receiver grants the peer stream indexes below
//! `retired + max_streams`, where `retired` is the watermark below which
//! every peer stream has been read to its end (or reset) and released;
//! once that limit can move by half a window it queues a MAX_STREAMS,
//! which rides the instant's one flight and is resent on loss like
//! MAX_DATA. A peer that opens past the limit it was advertised is closed
//! with [`TransportError::StreamLimit`]. The sender tracks the limit the peer
//! advertised: at it, `open_stream(Dir::Uni)` fails with
//! [`ConnectionError::StreamLimit`] until a MAX_STREAMS raises it, and
//! then [`Event::StreamsAvailable`] says so — a stall, not a cap.
//! Bidirectional streams keep a fixed cap of `max_streams` each way: a
//! MoQT session opens exactly one, its control stream.
//!
//! # What a held connection keeps
//!
//! A connection held for days between exchanges keeps what it needs to
//! go on — its state, packet numbers, ACK ranges, stream watermarks and
//! credit, the control stream — and nothing that served only its
//! handshake or one exchange:
//!
//! * **The transport config is shared.** An [`crate::Endpoint`] makes
//!   one handle at its first connection and every connection holds it.
//! * **The handshake state goes with the handshake.** The flight kept
//!   for retransmission, the ALPN list, the ticket nonce, the 0-RTT
//!   flags and buffer live in one box, released on a client when the
//!   ServerHello is processed and on a server when the packet that
//!   carried the ServerHello is acknowledged — the last moment a lost
//!   copy would need resending. The flight is a shared [`Payload`]: each
//!   (re)transmission is a view of it, not a copy.
//! * **What is in flight or queued is one record.** The packet ledger,
//!   the uni stream tables (a peer's stream until read to its end, ours
//!   until all of it is acknowledged), the queues for the wire and the
//!   driver: one box, taken from the thread when the first of them holds
//!   something and handed back by the call that empties them all
//!   (`moqdns_wire::queue`).
//! * **A record waiting on the peer holds only that, at its size.** A
//!   relay's join stampede and its update rounds hold one record per
//!   connection with a push or an answer unacknowledged, for a round
//!   trip. What almost never fills — the datagram queue, the close
//!   frame, stream credit owed, peer streams released out of order — is
//!   a record of its own behind one pointer in it; the event queue's
//!   storage is lent from the thread and goes back when the driver
//!   drains it; and each unacknowledged stream's send half is packed
//!   (`crate::streams`: 72 bytes, its one pending range inline). A
//!   `const` assertion below the struct holds these sizes.
//! * **A data stream holds its object by reference.** A stream written
//!   whole ([`Connection::send_whole_stream`]: a MoQT data stream, one
//!   object and its FIN) keeps the few bytes its session encodes per
//!   stream inline in its send half and the object's payload as the
//!   [`Payload`] its writer holds — a relay's cached object, an origin's
//!   answer: a reference, not a copy per subscriber. Frames, offsets,
//!   retransmissions and [`Connection::send_backlog_bytes`] are what a
//!   copy gives; the payload's share of its block is what
//!   [`Connection::state_size_estimate`] charges for it.
//! * **A bidirectional stream at rest is its offsets.** The control
//!   stream is held for as long as the session, and between exchanges
//!   it holds nothing: everything written is acknowledged, everything
//!   received is read. Its table entry is then an [`AtRest`] — sent and
//!   received offsets, the two windows, FIN and reset flags — and no
//!   heap; and the table keeps its one entry in place, in the struct
//!   (`moqdns_wire::SmallMap`), so that entry is no block of its own
//!   either. The first write that gives its send half something to hold
//!   resumes that half, with the buffers the last one to rest left
//!   behind, and the first frame does the same for its receive half; the
//!   end of the call that leaves a half acknowledged, or read, puts it
//!   back to rest. The halves that hold something are a record of their
//!   own, pooled like the in-flight one: a fan-out's push takes an
//!   in-flight record and never a control exchange's storage with it. A
//!   burst of control messages — a join's CLIENT_SETUP and requests — is
//!   written as one (`moqdns_moqt::session`), so the send half's buffer
//!   is allocated at the burst's size, not grown to twice it.
//!   The halves go separately: in a join every connection writes at
//!   once, and a receive half already read would cost each of them 80
//!   bytes.
//!
//! * **What it keeps for days is packed.** A value that may be absent —
//!   the largest packet acknowledged, a pending loss time, the newest
//!   range of packets received — is a sentinel, not an `Option` and its
//!   tag, and the RTT estimator's times are `u64` nanoseconds, turned back
//!   into `Duration`s for every computation (`crate::recovery`). The
//!   ACK ranges below a gap, which only a peer's loss or reordering
//!   leaves, are a box of their own ([`crate::recovery::AckTracker`]). A
//!   `const` assertion below the struct holds its size. It keeps no
//!   traffic counters: what a connection sent is on the wire, and the one
//!   thing the endpoint asks of a received datagram — did it bring a new
//!   packet, so the peer is where it came from — is what
//!   [`Connection::handle_datagram`] returns ([`Ingest`]).
//!
//! An idle joined connection is then its struct, the control stream's
//! entry in it, and its slot at the endpoint — which also holds what the
//! application keeps with it, a stack's session and that session's one
//! subscription: one heap block.

use crate::config::{TransportConfig, MAX_UDP_PAYLOAD};
use crate::endpoint::DropReason;
use crate::frame::{AckRanges, Frame};
use crate::handshake::{
    encode_client_hello, encode_server_hello, select_alpn, ticket_bytes, HandshakeMessage, Issuer,
    Ticket,
};
use crate::packet::{
    decode_datagram_payload, encode_datagram_into, pn_len, Datagram, Packet, PacketType, PacketView,
};
use crate::recovery::{AckTracker, Ledger, Recovery, RetxInfo, RetxList, SentPacket};
use crate::streams::{AtRest, Dir, RecvStream, SendStream, StreamId};
use moqdns_netsim::SimTime;
use moqdns_wire::pool::with_scratch;
use moqdns_wire::{queue, Payload, SmallMap, VecMap, VecSet, Writer};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::LocalKey;

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
    /// The peer raised a limit a write had found used up: its limit on
    /// our unidirectional streams, after `open_stream(Dir::Uni)` failed —
    /// streams may be opened again — or its connection-level window,
    /// after `send_stream` held a write back — it may be written again.
    StreamsAvailable,
    /// An unreliable datagram arrived (RFC 9221). The payload is a
    /// shared handle into the decoded packet's storage.
    DatagramReceived(Payload),
    /// The server issued a resumption ticket (client side).
    TicketIssued(Ticket),
    /// The server refused the early data of the ticket this client
    /// presented for the token (client side): a ticket store drops it.
    /// Raised only for a token named by [`Connection::resume_under`], and
    /// before the same handshake's `TicketIssued`.
    TicketRefused(Alpn),
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
    /// The stream's flow-control window cannot take the write whole, or
    /// the stream is finished.
    FlowControl,
    /// The datagram payload exceeds the MTU budget.
    DatagramUnsupported,
}

impl std::fmt::Display for ConnectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectionError::Closed => write!(f, "connection closed"),
            ConnectionError::StreamLimit => write!(f, "stream limit reached"),
            ConnectionError::UnknownStream => write!(f, "unknown stream"),
            ConnectionError::Reset => write!(f, "stream reset by peer"),
            ConnectionError::FlowControl => write!(f, "stream window too small"),
            ConnectionError::DatagramUnsupported => write!(f, "datagram unsupported"),
        }
    }
}

impl std::error::Error for ConnectionError {}

/// Why this end closed a connection over something its peer sent: each
/// of the transport's own closes, with the error code and the reason text
/// its CONNECTION_CLOSE carries. The [`crate::Endpoint`] counts them per
/// variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportError {
    /// A handshake flight that does not decode.
    MalformedHandshake,
    /// A handshake message this side never receives: a ServerHello at a
    /// server, a ClientHello at a client.
    UnexpectedHandshakeMessage,
    /// Stream data past the stream's window.
    FlowControl,
    /// Stream data past the connection's window.
    ConnectionFlowControl,
    /// A peer stream past the stream limit this end advertised.
    StreamLimit,
}

impl TransportError {
    /// Every variant, in declaration order.
    pub const ALL: [TransportError; 5] = [
        TransportError::MalformedHandshake,
        TransportError::UnexpectedHandshakeMessage,
        TransportError::FlowControl,
        TransportError::ConnectionFlowControl,
        TransportError::StreamLimit,
    ];

    /// The CONNECTION_CLOSE error code.
    pub const fn code(self) -> u64 {
        match self {
            TransportError::MalformedHandshake | TransportError::UnexpectedHandshakeMessage => 0x1,
            TransportError::FlowControl | TransportError::ConnectionFlowControl => 0x3,
            TransportError::StreamLimit => 0x4,
        }
    }

    /// The CONNECTION_CLOSE reason text.
    pub const fn as_str(self) -> &'static str {
        match self {
            TransportError::MalformedHandshake => "malformed handshake",
            TransportError::UnexpectedHandshakeMessage => "unexpected handshake message",
            TransportError::FlowControl => "flow control violation",
            TransportError::ConnectionFlowControl => "connection flow control violation",
            TransportError::StreamLimit => "stream limit violated",
        }
    }

    /// The variant a close with `code` and `reason` was raised for.
    pub fn of_close(code: u64, reason: &str) -> Option<TransportError> {
        TransportError::ALL
            .into_iter()
            .find(|e| e.code() == code && e.as_str() == reason)
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

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

/// What [`Connection::handle_datagram`] made of a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// It decoded whole and at least one of its packets was new: the
    /// peer sent it, from wherever it came.
    Accepted,
    /// It decoded whole and brought nothing new — every packet a
    /// duplicate, a replay or another connection's — or the connection
    /// is closed.
    Ignored,
    /// It did not decode whole and was dropped whole.
    Dropped(DropReason),
}

/// A QUIC-like connection.
pub struct Connection {
    side: Side,
    cid: u64,
    /// The endpoint's transport, shared by every connection it holds.
    config: Arc<TransportConfig>,
    state: State,

    // --- handshake (module docs: what a held connection keeps) ---
    /// What only the handshake needs, for as long as it can be needed.
    handshake: Option<Box<Handshake>>,
    handshake_processed: bool,
    selected_alpn: Option<Alpn>,

    // --- packet machinery ---
    next_pn: u64,
    recovery: Recovery,
    acks: AckTracker,

    /// What is in flight or queued, while anything is (module docs).
    in_flight: Option<Box<InFlight>>,

    // --- streams (module docs: held while something is in flight) ---
    /// Bidirectional streams — the control stream — as their offsets. A
    /// half that holds something lives in [`Connection::bidi_halves`]
    /// meanwhile, and its entry here waits for it to rest.
    bidi_streams: SmallMap<StreamId, AtRest>,
    /// Bidirectional streams' halves that hold something, while any does
    /// (module docs).
    bidi_halves: Option<Box<BidiHalves>>,
    next_bi_index: u64,
    next_uni_index: u64,
    /// Peer-initiated uni streams read to FIN (or reset) and released lie
    /// below this watermark, or in [`Rare::retired_uni_recv`]. It is
    /// where the peer's stream credit starts (module docs).
    retired_uni_recv_below: u64,

    // --- stream credit (module docs) ---
    /// The limit on the peer's uni stream indexes we last advertised.
    local_max_uni: u64,
    pending_max_streams: bool,
    /// The peer's limit on our uni stream indexes.
    peer_max_uni: u64,
    /// `open_stream(Dir::Uni)` found `peer_max_uni` used up since the
    /// last MAX_STREAMS raised it.
    uni_blocked: bool,
    /// `send_stream` held a write back for the connection's window since
    /// the last MAX_DATA raised it.
    data_blocked: bool,

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

    // --- liveness ---
    last_rx: SimTime,
    last_tx: SimTime,
    ping_pending: bool,
}

// What a held connection keeps (module docs) is its struct first: a relay
// holds one per subscriber, in a slot at the endpoint. What it holds while
// something is in flight is the in-flight record and a send half per stream
// not yet acknowledged: a relay holds one of each per push in flight.
const _: () = assert!(std::mem::size_of::<Connection>() <= 328);
const _: () = assert!(std::mem::size_of::<InFlight>() <= 160);
const _: () = assert!(std::mem::size_of::<SendStream>() <= 72);

moqdns_wire::record! {
    /// What a connection holds only while something is in flight or
    /// queued (module docs).
    struct InFlight {
        /// The packet ledger: ack-eliciting packets not yet acknowledged.
        sent: Ledger,
        /// Our unidirectional streams not yet fully acknowledged.
        uni_send: VecMap<StreamId, SendStream>,
        /// The peer's unidirectional streams not yet read to their end.
        uni_recv: VecMap<StreamId, RecvStream>,
        /// Streams that may have data or FIN to send, in ascending id
        /// order: `poll_transmit` visits these, not the stream tables.
        /// Pruned lazily.
        pending_streams: VecSet<StreamId>,
        /// Events for the driver: storage lent from the thread while it
        /// holds any (`Connection::lent_events`), so a record held between
        /// turns keeps none.
        events: VecDeque<Event>,
        /// Streams announced readable and not read since.
        readable_notified: VecSet<StreamId>,
        /// What almost never fills, while it holds anything.
        rare: Option<Box<Rare>>,
    }
}

moqdns_wire::record! {
    /// What an in-flight record holds only now and then — out-of-order
    /// stream releases, stream credit owed, datagrams, a close — behind
    /// one pointer: a push in flight pays eight bytes for it, not 112.
    struct Rare {
        /// Peer uni streams released above `retired_uni_recv_below`, so a
        /// late retransmission is not taken for a new stream.
        retired_uni_recv: VecSet<u64>,
        /// Streams whose receive window grew since it was last advertised.
        pending_max_stream_data: VecSet<StreamId>,
        /// Unreliable datagrams waiting for the wire.
        datagram_queue_out: VecDeque<Payload>,
        /// Terminal CONNECTION_CLOSE queued while `Draining`; taken by the
        /// flush in `poll_transmit`.
        close_frame: Option<(u64, Vec<u8>)>,
    }
}

moqdns_wire::record! {
    /// What a connection holds of its bidirectional streams only while a
    /// half holds something (module docs).
    struct BidiHalves {
        /// Send halves with anything unacknowledged or queued.
        send: VecMap<StreamId, SendStream>,
        /// Receive halves with anything unread.
        recv: VecMap<StreamId, RecvStream>,
        /// The buffer of unacknowledged bytes the last send half to rest
        /// left, emptied, for the next one resumed.
        spare_buf: Vec<u8>,
    }
}

thread_local! {
    /// Where a packet's retransmit list is built; the packet keeps a copy
    /// of exactly its length.
    static RETX: RefCell<Vec<RetxInfo>> = const { RefCell::new(Vec::new()) };
    /// The warm storage lent to a client connection's event queue, which
    /// its driver drains in the call that filled it (`moqdns_wire::queue`).
    static CLIENT_EVENTS: RefCell<VecDeque<Event>> = const { RefCell::new(VecDeque::new()) };
    /// A server connection's, likewise: a driver of both sides in one
    /// thread may hold one of each undrained at once.
    static SERVER_EVENTS: RefCell<VecDeque<Event>> = const { RefCell::new(VecDeque::new()) };
}

/// MAX_STREAMS goes out once the peer's uni stream limit can move by
/// `max_streams / CREDIT_STEP`: half a window, so an honest peer never
/// waits for credit while one frame per half window is all it costs.
const CREDIT_STEP: u64 = 2;

/// What a stream costs in [`Connection::send_backlog_bytes`] on top of
/// its unacknowledged bytes, and what a stream waiting for the peer's
/// credit costs in a session's backlog: stream count is state too.
pub const STREAM_BACKLOG_CHARGE: usize = 64;

/// What a connection needs only until its handshake is over: released on
/// a client when the ServerHello is processed, on a server when the
/// packet that carried the ServerHello is acknowledged (module docs).
struct Handshake {
    /// The ALPNs a client offers, or a server accepts: the endpoint's
    /// list, shared.
    alpns: AlpnList,
    /// Our flight — ClientHello, ServerHello or HelloRetry — kept until
    /// the peer has it, so a lost copy can be resent.
    flight: Option<Payload>,
    /// The flight is waiting to be (re)sent.
    flight_pending: bool,
    /// The nonce of the resumption ticket a server issues.
    ticket_nonce: u64,
    /// How a server tells the tickets its endpoint issued; `None` for a
    /// server made on its own, which knows only tickets with its own
    /// nonce.
    issuer: Option<Issuer>,
    /// A client presented a ticket: it may send 0-RTT data.
    attempted_early_data: bool,
    /// A server accepts 0-RTT data.
    accept_early_data: bool,
    /// ZeroRtt packets that reached a server before the ClientHello:
    /// each a view of the datagram it came in, read again once the
    /// ClientHello is processed.
    early_buffer: Vec<Payload>,
}

impl Handshake {
    fn new(alpns: AlpnList) -> Handshake {
        Handshake {
            alpns,
            flight: None,
            flight_pending: false,
            ticket_nonce: 0,
            issuer: None,
            attempted_early_data: false,
            accept_early_data: true,
            early_buffer: Vec::new(),
        }
    }

    /// Makes `flight` the one to send next.
    fn send(&mut self, flight: Payload) {
        self.flight = Some(flight);
        self.flight_pending = true;
    }
}

/// What `encode` writes, as a handshake flight: encoded in the thread's
/// scratch buffer, copied once into the handle frames share.
fn flight(encode: impl FnOnce(&mut Writer)) -> Payload {
    with_scratch(|w| {
        encode(w);
        Payload::from(w.as_slice())
    })
}

impl Connection {
    /// Creates a client connection; its first `poll_transmit` emits the
    /// ClientHello (plus any 0-RTT data written before that call). The
    /// config is a shared handle: an [`crate::Endpoint`] passes every
    /// connection the same one, and a `TransportConfig` given by value
    /// becomes a handle of its own.
    pub fn client(
        cid: u64,
        config: impl Into<Arc<TransportConfig>>,
        alpn: AlpnList,
        ticket: Option<Ticket>,
        now: SimTime,
    ) -> Connection {
        let early = ticket.is_some();
        let hello = flight(|w| encode_client_hello(w, &alpn, ticket.as_ref(), early));
        let mut hs = Handshake::new(alpn);
        hs.attempted_early_data = early;
        hs.send(hello);
        Connection::new(Side::Client, cid, config.into(), now, hs)
    }

    /// Creates a server connection for an incoming Initial packet's cid.
    /// `ticket_nonce` is the nonce of the resumption ticket this server
    /// will issue, and — on its own — the only one whose tickets it takes
    /// early data on. The config is shared as [`Connection::client`]'s is.
    pub fn server(
        cid: u64,
        config: impl Into<Arc<TransportConfig>>,
        supported_alpn: AlpnList,
        ticket_nonce: u64,
        now: SimTime,
    ) -> Connection {
        let mut hs = Handshake::new(supported_alpn);
        hs.ticket_nonce = ticket_nonce;
        Connection::new(Side::Server, cid, config.into(), now, hs)
    }

    fn new(
        side: Side,
        cid: u64,
        config: Arc<TransportConfig>,
        now: SimTime,
        handshake: Handshake,
    ) -> Connection {
        let recovery = Recovery::new(config.initial_rtt, config.initial_cwnd)
            .with_max_ack_delay(config.max_ack_delay_ms);
        Connection {
            side,
            cid,
            state: State::Handshaking,
            handshake: Some(Box::new(handshake)),
            handshake_processed: false,
            selected_alpn: None,
            next_pn: 0,
            recovery,
            acks: AckTracker::default(),
            in_flight: None,
            bidi_streams: SmallMap::new(),
            bidi_halves: None,
            next_bi_index: 0,
            next_uni_index: 0,
            retired_uni_recv_below: 0,
            local_max_uni: config.max_streams,
            pending_max_streams: false,
            peer_max_uni: config.max_streams,
            uni_blocked: false,
            data_blocked: false,
            peer_max_data: config.max_data,
            data_sent: 0,
            local_max_data: config.max_data,
            data_received: 0,
            data_consumed: 0,
            pending_max_data: false,
            last_rx: now,
            last_tx: now,
            ping_pending: false,
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

    /// Current lifecycle phase.
    ///
    /// Kept public for: `crates/quic/tests/conn_model.rs`, which pins the
    /// lifecycle contract, `Draining` and `Closed` apart.
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
        if self.early_data_attempted() {
            self.selected_alpn = Some(alpn);
        }
    }

    /// True for a client that presented a ticket and has not had its
    /// ServerHello yet: it may send 0-RTT data.
    fn early_data_attempted(&self) -> bool {
        self.handshake
            .as_ref()
            .is_some_and(|hs| hs.attempted_early_data)
    }

    /// Negotiated ALPN as a cheap shared handle (ticket-store keys).
    pub fn alpn_handle(&self) -> Option<&Alpn> {
        self.selected_alpn.as_ref()
    }

    /// Server-side policy switch: refuse 0-RTT data (clients then fall back
    /// to retransmitting it as 1-RTT data). Inert once the ClientHello has
    /// been answered.
    ///
    /// Kept public for: `crates/moqt/tests/session_model.rs`, whose wire
    /// model runs a resumed session against a server that refuses 0-RTT.
    pub fn set_accept_early_data(&mut self, accept: bool) {
        if let Some(hs) = &mut self.handshake {
            hs.accept_early_data = accept;
        }
    }

    /// Makes a server take early data on the tickets `issuer`'s endpoint
    /// issued (`handshake::Issuer`), not only on its own nonce's. Inert
    /// once the ClientHello has been answered.
    pub(crate) fn issued_by(&mut self, issuer: Issuer) {
        if let Some(hs) = &mut self.handshake {
            hs.issuer = Some(issuer);
        }
    }

    /// Bytes of connection state held (E9 state-overhead experiment): the
    /// struct plus the backing storage — capacity, not length — of every
    /// table, buffer and queue it owns, its in-flight record and the
    /// record's containers while it holds one. The transport config is
    /// shared and not counted here: [`crate::Endpoint`] charges it once.
    pub fn state_size_estimate(&self) -> usize {
        let flight = self.flight();
        let retx = flight.sent.values().map(|p| p.retx.heap_bytes());
        let halves = self.halves();
        let streams = flight.uni_send.values().chain(halves.send.values());
        let peer_streams = flight.uni_recv.values().chain(halves.recv.values());
        let streams = streams.map(SendStream::heap_bytes);
        let peer_streams = peer_streams.map(RecvStream::heap_bytes);
        let close = self
            .rare()
            .close_frame
            .as_ref()
            .map_or(0, |(_, r)| r.capacity());
        std::mem::size_of::<Connection>()
            + InFlight::bytes(&self.in_flight)
            + Rare::bytes(&flight.rare)
            + BidiHalves::bytes(&self.bidi_halves)
            + retx.sum::<usize>()
            + streams.sum::<usize>()
            + peer_streams.sum::<usize>()
            + close
            + self.bidi_streams.heap_bytes()
            + self.acks.heap_bytes()
            + self.handshake.as_ref().map_or(0, |hs| {
                std::mem::size_of::<Handshake>()
                    + hs.flight.as_ref().map_or(0, Payload::len)
                    + hs.early_buffer.capacity() * std::mem::size_of::<Payload>()
            })
    }

    /// Per-connection state composition (diagnostics for the adversarial
    /// drills): `(send streams, receive streams, ack-eliciting packets in
    /// flight)`; a bidirectional stream counts as one of each.
    pub fn state_breakdown(&self) -> (usize, usize, usize) {
        let (bidi, flight) = (self.bidi_streams.len(), self.flight());
        (
            bidi + flight.uni_send.len(),
            bidi + flight.uni_recv.len(),
            flight.sent.len(),
        )
    }

    /// Bytes of send-side backlog: stream data written but not yet
    /// acknowledged by the peer, plus queued datagrams. This is the state
    /// an unresponsive peer forces us to hold, so relays bound it per
    /// session (a per-stream charge, [`STREAM_BACKLOG_CHARGE`], keeps
    /// stream-count abuse visible too).
    pub fn send_backlog_bytes(&self) -> usize {
        let flight = self.flight();
        // A bidirectional stream at rest buffers nothing.
        let streams = self.bidi_streams.len() + flight.uni_send.len();
        let buffered: usize = flight
            .uni_send
            .values()
            .chain(self.halves().send.values())
            .map(SendStream::buffered_bytes)
            .sum();
        let queued = self.rare().datagram_queue_out.iter();
        let dgrams: usize = queued.map(|d| d.len()).sum();
        streams * STREAM_BACKLOG_CHARGE + buffered + dgrams
    }

    /// The `max_streams` this connection runs with: how many
    /// unidirectional streams each side lets the other have open at once
    /// (module docs).
    pub fn max_streams(&self) -> u64 {
        self.config.max_streams
    }

    /// True while the connection holds its in-flight record or its
    /// bidirectional halves' one: something is in flight, queued or
    /// unread (module docs).
    ///
    /// Kept public for: `tests/endpoint_heap.rs`, which checks that a held
    /// endpoint holds no in-flight record.
    pub fn holds_in_flight_record(&self) -> bool {
        self.in_flight.is_some() || self.bidi_halves.is_some()
    }

    /// In-flight records this thread keeps for the next connections of
    /// `side` that need one; never more than [`moqdns_wire::queue::SPARE_RECORDS`].
    ///
    /// Kept public for: `tests/endpoint_heap.rs`, which pins that cap across
    /// a fan-out wider than it.
    pub fn spare_records(side: Side) -> usize {
        InFlight::spares(side == Side::Client)
    }

    /// What is in flight or queued; an empty record if nothing is.
    fn flight(&self) -> &InFlight {
        InFlight::of(&self.in_flight)
    }

    /// The in-flight record, taken if none is held (`InFlight::held`).
    fn held(&mut self) -> &mut InFlight {
        InFlight::held(&mut self.in_flight, self.side == Side::Client)
    }

    /// What the in-flight record holds now and then; an empty one if it
    /// holds none.
    fn rare(&self) -> &Rare {
        Rare::of(&self.flight().rare)
    }

    /// The in-flight record's now-and-then part, taken if none is held.
    fn rare_held(&mut self) -> &mut Rare {
        let client = self.side == Side::Client;
        Rare::held(&mut self.held().rare, client)
    }

    /// The bidirectional streams' halves that hold something; an empty
    /// record if none does.
    fn halves(&self) -> &BidiHalves {
        BidiHalves::of(&self.bidi_halves)
    }

    /// Puts every bidirectional stream half that holds nothing back to
    /// rest — a send half's buffers kept for the next one resumed — then
    /// hands the halves' record and the in-flight record back if they
    /// hold nothing: the last step of a call that can leave any so.
    fn settle(&mut self) {
        let client = self.side == Side::Client;
        if let Some(halves) = self.bidi_halves.as_deref_mut() {
            for (id, rest) in self.bidi_streams.iter_mut() {
                if halves.send.get(id).is_some_and(|s| s.rest(rest)) {
                    let send = halves.send.remove(id).expect("the half");
                    halves.spare_buf = send.into_storage();
                }
                if halves.recv.get(id).is_some_and(|r| r.rest(rest)) {
                    halves.recv.remove(id);
                }
            }
            BidiHalves::settle(&mut self.bidi_halves, client);
        }
        if let Some(flight) = self.in_flight.as_deref_mut() {
            Rare::settle(&mut flight.rare, client);
        }
        InFlight::settle(&mut self.in_flight, client);
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
                self.bidi_streams.insert(id, AtRest::new(window));
            }
            Dir::Uni => {
                self.held().uni_send.insert(id, SendStream::new(window));
            }
        }
        Ok(id)
    }

    /// The send half of stream `id` that holds something: what an ACK,
    /// a loss or a transmission acts on. A bidirectional stream at rest
    /// has nothing any of them could change.
    fn sending(&mut self, id: StreamId) -> Option<&mut SendStream> {
        match id.dir() {
            Dir::Bi => self.bidi_halves.as_mut()?.send.get_mut(&id),
            Dir::Uni => self.in_flight.as_mut()?.uni_send.get_mut(&id),
        }
    }

    /// The send half of stream `id`, if we may still send on it; a
    /// bidirectional stream's is resumed from rest, with the buffers the
    /// last one to rest left behind.
    fn send_half(&mut self, id: StreamId) -> Option<&mut SendStream> {
        let rest = match id.dir() {
            Dir::Bi => self.bidi_streams.get(&id)?,
            Dir::Uni => return self.sending(id),
        };
        let halves = BidiHalves::held(&mut self.bidi_halves, self.side == Side::Client);
        if !halves.send.contains_key(&id) {
            let storage = std::mem::take(&mut halves.spare_buf);
            halves.send.insert(id, SendStream::resume(rest, storage));
        }
        halves.send.get_mut(&id)
    }

    /// The receive half of stream `id`, if it is open for reading; a
    /// bidirectional stream's is resumed from rest.
    fn recv_half(&mut self, id: StreamId) -> Option<&mut RecvStream> {
        let rest = match id.dir() {
            Dir::Bi => self.bidi_streams.get(&id)?,
            Dir::Uni => return self.in_flight.as_mut()?.uni_recv.get_mut(&id),
        };
        let halves = BidiHalves::held(&mut self.bidi_halves, self.side == Side::Client);
        if !halves.recv.contains_key(&id) {
            halves.recv.insert(id, RecvStream::resume(rest));
        }
        halves.recv.get_mut(&id)
    }

    /// The flow-control limit advertised for stream `id`'s receive half.
    fn recv_window(&self, id: StreamId) -> Option<u64> {
        let table = match id.dir() {
            Dir::Bi => &self.halves().recv,
            Dir::Uni => &self.flight().uni_recv,
        };
        match table.get(&id) {
            Some(r) => Some(r.max_stream_data),
            None => self.bidi_streams.get(&id).map(AtRest::recv_window),
        }
    }

    fn peer_initiated(&self, id: StreamId) -> bool {
        id.initiated_by_client() != (self.side == Side::Client)
    }

    /// Writes `data` to stream `id` whole, or not at all. `Ok(false)`
    /// when the connection's window is short of it: nothing is written,
    /// and the MAX_DATA that raises the window raises
    /// [`Event::StreamsAvailable`]. [`ConnectionError::FlowControl`] when
    /// the stream's own window is short of it or the stream is finished,
    /// [`ConnectionError::Reset`] once the peer has stopped it.
    pub fn send_stream(&mut self, id: StreamId, data: &[u8]) -> Result<bool, ConnectionError> {
        self.write_if_room(id, data.len(), |s| s.write(data))
    }

    /// Writes `prefix` then `body` to stream `id` and finishes it, whole
    /// or not at all, as [`Connection::send_stream`] writes. A fresh stream
    /// keeps `body` as it is handed in — shared, not copied — and a short
    /// `prefix` inline (module docs, "What a held connection keeps").
    pub fn send_whole_stream(
        &mut self,
        id: StreamId,
        prefix: &[u8],
        body: Payload,
    ) -> Result<bool, ConnectionError> {
        self.write_if_room(id, prefix.len() + body.len(), |s| {
            s.write_whole(prefix, body)
        })
    }

    /// Has `write` put `len` bytes on stream `id` if both windows take
    /// them, as [`Connection::send_stream`] says.
    fn write_if_room(
        &mut self,
        id: StreamId,
        len: usize,
        write: impl FnOnce(&mut SendStream),
    ) -> Result<bool, ConnectionError> {
        if self.is_closed() {
            return Err(ConnectionError::Closed);
        }
        let credit = self.peer_max_data.saturating_sub(self.data_sent);
        let s = self.send_half(id).ok_or(ConnectionError::UnknownStream)?;
        let len = len as u64;
        let fits = match s.room() {
            None => Err(ConnectionError::Reset),
            Some(room) if room < len => Err(ConnectionError::FlowControl),
            Some(_) => Ok(credit >= len),
        };
        if fits == Ok(true) {
            write(s);
            self.data_sent += len;
            self.mark_pending(id);
        } else {
            self.data_blocked |= fits == Ok(false);
            // Resumed for nothing: back to rest.
            self.settle();
        }
        fits
    }

    /// Marks a stream finished (FIN).
    pub fn finish_stream(&mut self, id: StreamId) -> Result<(), ConnectionError> {
        self.send_half(id)
            .ok_or(ConnectionError::UnknownStream)?
            .finish();
        self.mark_pending(id);
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
        self.held().readable_notified.remove(&id);
        if done {
            self.release_uni_recv(id);
        } else if replenish {
            self.rare_held().pending_max_stream_data.insert(id);
        }
        if self.local_max_data - self.data_consumed < self.config.max_data / 2 {
            self.local_max_data = self.data_consumed + self.config.max_data;
            self.pending_max_data = true;
        }
        self.settle();
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
        if data.len() + 32 > MAX_UDP_PAYLOAD {
            return Err(ConnectionError::DatagramUnsupported);
        }
        self.rare_held().datagram_queue_out.push_back(data);
        Ok(())
    }

    /// Closes the connection with an error code and reason. The machine
    /// enters `Draining`; the next `poll_transmit` flushes the terminal
    /// CONNECTION_CLOSE and completes the move to `Closed`.
    pub fn close(&mut self, error_code: u64, reason: &str) {
        if self.is_closed() {
            return;
        }
        self.rare_held().close_frame = Some((error_code, reason.as_bytes().to_vec()));
        self.transition(State::Draining);
        self.raise(Event::Closed {
            error_code,
            reason: reason.to_string(),
            by_peer: false,
        });
    }

    /// Closes the connection over what the peer sent (see [`Connection::close`]).
    fn close_for(&mut self, error: TransportError) {
        self.close(error.code(), error.as_str());
    }

    /// Next application event, if any. The one that drains the queue
    /// hands its storage back to the thread, and may hand the in-flight
    /// record back too.
    pub fn poll_event(&mut self) -> Option<Event> {
        let lent = self.lent_events();
        let events = &mut self.in_flight.as_mut()?.events;
        let ev = events.pop_front();
        queue::give_back(lent, events);
        self.settle();
        ev
    }

    /// Queues an event for the driver.
    fn raise(&mut self, ev: Event) {
        let lent = self.lent_events();
        let events = &mut self.held().events;
        queue::borrow(lent, events);
        events.push_back(ev);
    }

    /// Where this side's event queue storage is lent from.
    fn lent_events(&self) -> &'static LocalKey<RefCell<VecDeque<Event>>> {
        match self.side {
            Side::Client => &CLIENT_EVENTS,
            Side::Server => &SERVER_EVENTS,
        }
    }

    /// Announces stream `id` readable, once until the application reads
    /// it.
    fn notify_readable(&mut self, id: StreamId) {
        if self.held().readable_notified.insert(id) {
            self.raise(Event::StreamReadable { id });
        }
    }

    // ------------------------------------------------------------------
    // Datagram ingest
    // ------------------------------------------------------------------

    /// Processes one incoming UDP datagram. The payload handle makes the
    /// parse zero-copy: DATAGRAM frames become sub-views of `data`, so a
    /// relay fanning an object out never copies payload bytes on receive.
    /// A datagram that does not decode whole is dropped whole, and its
    /// reason returned for the endpoint to count; a closed connection
    /// takes nothing and drops nothing. Whether a packet in it was new is
    /// what tells the endpoint the peer sent it ([`Ingest::Accepted`]).
    pub fn handle_datagram(&mut self, now: SimTime, data: &Payload) -> Ingest {
        // Closed is inert; Draining still parses (a crossing peer close or
        // late ACK in the pre-flush window must not wedge the machine).
        if self.state == State::Closed {
            return Ingest::Ignored;
        }
        let Ok(datagram) = decode_datagram_payload(data) else {
            return Ingest::Dropped(DropReason::MalformedPacket);
        };
        self.handle_decoded(now, datagram)
    }

    /// Processes a datagram already checked to decode whole, at a
    /// connection that is not closed — by [`Connection::handle_datagram`],
    /// or by the endpoint before it made this connection for it.
    /// Only a new packet restarts the idle timer (RFC 9000 §10.1): a
    /// replayed or duplicated datagram keeps no connection alive.
    pub(crate) fn handle_decoded(&mut self, now: SimTime, datagram: Datagram<'_>) -> Ingest {
        let mut accepted = false;
        for p in datagram {
            accepted |= self.handle_packet(now, p);
        }
        self.settle();
        if accepted {
            self.last_rx = now;
            Ingest::Accepted
        } else {
            Ingest::Ignored
        }
    }

    /// Processes one packet; true if it was new to the connection.
    fn handle_packet(&mut self, now: SimTime, p: PacketView<'_>) -> bool {
        if p.dcid != self.cid {
            return false;
        }
        // 0-RTT before the ClientHello: buffer (loss/reorder of the CH).
        if self.side == Side::Server && p.ty == PacketType::ZeroRtt && !self.handshake_processed {
            if let Some(hs) = &mut self.handshake {
                hs.early_buffer.push(p.bytes());
            }
            return false;
        }
        if !self.acks.on_packet(p.pn(self.acks.largest())) {
            return false; // duplicate packet
        }
        let mut ack_eliciting = false;
        for f in p.frames() {
            if f.is_ack_eliciting() {
                ack_eliciting = true;
            }
            self.handle_frame(now, f, p.ty);
        }
        if ack_eliciting {
            self.acks.ack_pending = true;
        }
        // A freshly processed ClientHello unlocks buffered early data.
        if !self.handshake_processed {
            return true;
        }
        let buffered = self
            .handshake
            .as_mut()
            .map(|hs| std::mem::take(&mut hs.early_buffer));
        for bytes in buffered.into_iter().flatten() {
            // Checked whole when its datagram arrived.
            for p in decode_datagram_payload(&bytes).into_iter().flatten() {
                self.handle_packet(now, p);
            }
        }
        true
    }

    fn handle_frame(&mut self, now: SimTime, f: Frame<'_>, pty: PacketType) {
        match f {
            Frame::Padding | Frame::Ping => {}
            Frame::Ack { ranges } => {
                let mut idle = Ledger::new();
                let sent = self.in_flight.as_mut().map_or(&mut idle, |f| &mut f.sent);
                let mut ev = self.recovery.on_ack_received(sent, now, ranges.iter());
                self.handle_acked(&ev.acked);
                self.requeue_lost(std::mem::take(&mut ev.lost));
                ev.recycle();
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
                    s.stop();
                }
            }
            Frame::MaxData { max } => {
                if max > self.peer_max_data && std::mem::take(&mut self.data_blocked) {
                    self.raise(Event::StreamsAvailable);
                }
                self.peer_max_data = self.peer_max_data.max(max);
            }
            Frame::MaxStreamData { id, max } => {
                if let Some(s) = self.sending(id) {
                    s.raise_window(max);
                } else if let Some(rest) = self.bidi_streams.get_mut(&id) {
                    rest.raise_send_window(max);
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
            Frame::Datagram { data } => self.raise(Event::DatagramReceived(data)),
            Frame::ConnectionClose { error_code, reason } => {
                // Peer close goes straight to Closed (drain: do not
                // reply). A crossing close while we are Draining is
                // absorbed — our own Closed event already fired.
                if !self.is_closed() {
                    self.transition(State::Closed);
                    self.raise(Event::Closed {
                        error_code,
                        reason: String::from_utf8_lossy(reason).into_owned(),
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
            self.close_for(TransportError::MalformedHandshake);
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
                let Some(hs) = self.handshake.as_deref_mut() else {
                    return;
                };
                let Some(selected) = select_alpn(&alpn, &hs.alpns) else {
                    hs.send(flight(|w| {
                        HandshakeMessage::HelloRetry { code: 0x178 }.encode_into(w)
                    }));
                    // Drain: emit the retry + terminal close, then die.
                    self.transition(State::Draining);
                    self.rare_held().close_frame = Some((0x178, b"no ALPN overlap".to_vec()));
                    self.raise(Event::Closed {
                        error_code: 0x178,
                        reason: "no ALPN overlap".into(),
                        by_peer: false,
                    });
                    return;
                };
                // Early data only on a ticket this server issued, presented
                // for the token it selected (RFC 8446 §4.2.10).
                let own = |(nonce, cid)| match hs.issuer {
                    Some(issuer) => issuer.issued(nonce, cid),
                    None => nonce == hs.ticket_nonce,
                };
                let early_ok = early_data
                    && hs.accept_early_data
                    && ticket
                        .and_then(|t| t.folded(&selected, &alpn[0]))
                        .is_some_and(own);
                if !early_ok {
                    // Rejected early data is dropped, never ACKed: the
                    // client's recovery resends it as 1-RTT.
                    hs.early_buffer = Vec::new();
                }
                let ticket = ticket_bytes(hs.ticket_nonce, self.cid);
                hs.send(flight(|w| {
                    encode_server_hello(w, &selected, early_ok, &ticket)
                }));
                self.selected_alpn = Some(selected.clone());
                self.transition(State::Established);
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
                // All a client's handshake needed is over (module docs).
                let hs = self.handshake.take();
                let attempted_early_data = hs.as_ref().is_some_and(|hs| hs.attempted_early_data);
                // The endpoint's handle for the protocol, if it offered it.
                let offered = hs.and_then(|hs| hs.alpns.iter().find(|a| **a == alpn).cloned());
                let alpn = offered.unwrap_or(alpn);
                // Until now, the token the ticket was presented for.
                let presented = self.selected_alpn.replace(alpn.clone());
                self.transition(State::Established);
                self.raise(Event::Connected {
                    alpn,
                    early_data_accepted: attempted_early_data.then_some(early_data_accepted),
                });
                if let Some(token) = presented.filter(|_| !early_data_accepted) {
                    self.raise(Event::TicketRefused(token));
                }
                self.raise(Event::TicketIssued(new_ticket));
            }
            (Side::Client, HandshakeMessage::HelloRetry { code }) => {
                self.handshake_processed = true;
                self.handshake = None;
                // Refused by the peer: nothing to say back, go straight
                // to Closed.
                self.transition(State::Closed);
                self.raise(Event::Closed {
                    error_code: code,
                    reason: "handshake refused".into(),
                    by_peer: true,
                });
            }
            _ => self.close_for(TransportError::UnexpectedHandshakeMessage),
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
            self.close_for(TransportError::FlowControl);
            return;
        }
        let (grown, readable) = (s.highest_seen() - before, s.is_readable());
        self.data_received += grown;
        if self.data_received > self.local_max_data {
            self.close_for(TransportError::ConnectionFlowControl);
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
            Dir::Uni => self.flight().uni_recv.contains_key(&id),
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
            self.close_for(TransportError::StreamLimit);
            return false;
        }
        let window = self.config.max_stream_data;
        match id.dir() {
            Dir::Bi => {
                self.bidi_streams.insert(id, AtRest::new(window));
            }
            Dir::Uni => {
                self.held().uni_recv.insert(id, RecvStream::new(window));
            }
        }
        self.raise(Event::StreamOpened { id });
        true
    }

    /// Releases a peer uni stream read to its end or to its reset, and
    /// retires its index so a late retransmission cannot resurrect it.
    fn release_uni_recv(&mut self, id: StreamId) {
        self.held().uni_recv.remove(&id);
        if let Some(rare) = self.held().rare.as_deref_mut() {
            rare.pending_max_stream_data.remove(&id);
        }
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
        let below = &mut self.retired_uni_recv_below;
        if index == *below {
            // In order, as honest streams mostly are: the watermark moves
            // over it and over whatever was retired out of order above.
            *below += 1;
            let rare = self
                .in_flight
                .as_deref_mut()
                .and_then(|f| f.rare.as_deref_mut());
            if let Some(rare) = rare {
                while rare.retired_uni_recv.remove(below) {
                    *below += 1;
                }
            }
        } else {
            self.rare_held().retired_uni_recv.insert(index);
        }
        let window = self.config.max_streams;
        let limit = self.retired_uni_recv_below + window;
        if limit - self.local_max_uni >= (window / CREDIT_STEP).max(1) {
            self.local_max_uni = limit;
            self.pending_max_streams = true;
        }
    }

    fn uni_recv_retired(&self, index: u64) -> bool {
        index < self.retired_uni_recv_below || self.rare().retired_uni_recv.contains(&index)
    }

    /// Feeds newly-acked stream ranges back to their send streams so the
    /// retransmission buffers drain. One-shot uni streams whose data and
    /// FIN are fully acknowledged are released entirely — without this,
    /// every byte ever written would stay buffered for the connection's
    /// lifetime; a bidirectional stream's half comes to rest at the end
    /// of the call. An acknowledged ServerHello ends a server's handshake
    /// (module docs).
    fn handle_acked(&mut self, acked: &[RetxInfo]) {
        for r in acked {
            match *r {
                RetxInfo::Stream {
                    id,
                    offset,
                    len,
                    fin,
                } => {
                    let id = StreamId(id);
                    let Some(s) = self.sending(id) else {
                        continue;
                    };
                    s.on_ack(offset, len, fin);
                    if id.dir() == Dir::Uni && s.is_fully_acked() {
                        let flight = self.held();
                        flight.uni_send.remove(&id);
                        flight.pending_streams.remove(&id);
                    }
                }
                RetxInfo::ServerHello => self.handshake = None,
                _ => {}
            }
        }
    }

    /// Marks stream `id` as having data or a FIN to send.
    fn mark_pending(&mut self, id: StreamId) {
        self.held().pending_streams.insert(id);
    }

    fn requeue_lost(&mut self, lost: Vec<RetxInfo>) {
        for r in lost {
            match r {
                // While the handshake state is held, the flight is still
                // needed: a client's until the ServerHello arrived, a
                // server's until the ServerHello was acknowledged.
                RetxInfo::Crypto { .. } | RetxInfo::ServerHello => {
                    if let Some(hs) = &mut self.handshake {
                        hs.flight_pending = true;
                    }
                }
                RetxInfo::Stream {
                    id,
                    offset,
                    len,
                    fin,
                } => {
                    if let Some(s) = self.sending(StreamId(id)) {
                        s.on_loss(offset, len, fin);
                        if s.has_pending() {
                            self.mark_pending(StreamId(id));
                        }
                    }
                }
                RetxInfo::MaxData => self.pending_max_data = true,
                RetxInfo::MaxStreams => self.pending_max_streams = true,
                RetxInfo::MaxStreamData { id } => {
                    self.rare_held()
                        .pending_max_stream_data
                        .insert(StreamId(id));
                }
                RetxInfo::HandshakeDone => {}
            }
        }
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
            let rare = self.in_flight.as_mut().and_then(|f| f.rare.as_mut());
            let close = rare.and_then(|r| r.close_frame.take());
            self.settle();
            if let Some((code, reason)) = close {
                let mut frames = Vec::new();
                // A HelloRetry rides along with the close.
                let hs = self.handshake.take().filter(|hs| hs.flight_pending);
                if let Some(data) = hs.and_then(|hs| hs.flight) {
                    frames.push(Frame::Crypto { offset: 0, data });
                }
                frames.push(Frame::ConnectionClose {
                    error_code: code,
                    reason: &reason,
                });
                let pkt = self.seal(now, PacketType::OneRtt, frames, &[], false);
                return Some(self.finish_datagram(now, &[pkt]));
            }
            return None;
        }
        if self.state == State::Closed {
            return None;
        }
        // The ACK owed is written straight from the tracker, lent out of
        // the connection while the datagram is built.
        let mut acks = std::mem::take(&mut self.acks);
        let owed = acks.ack_pending && acks.any();
        acks.ack_pending &= !owed;
        let ack = owed.then_some(Frame::Ack {
            ranges: AckRanges::from(&acks),
        });
        let dg = self.transmit(now, ack);
        self.acks = acks;
        self.settle();
        dg
    }

    /// [`Connection::poll_transmit`] once nothing is closing: the
    /// handshake flight's Initial, then one packet of application frames,
    /// `ack` in the first of them.
    fn transmit(&mut self, now: SimTime, mut ack: Option<Frame<'_>>) -> Option<Payload> {
        let mut budget = MAX_UDP_PAYLOAD - 16;

        // 1. Handshake flight (Initial packet): a shared view of the
        // bytes the handshake state keeps, not a copy.
        let flight = self.handshake.as_deref_mut().and_then(|hs| {
            std::mem::take(&mut hs.flight_pending)
                .then(|| hs.flight.clone())
                .flatten()
        });
        let initial = flight.map(|c| {
            let retx = if self.side == Side::Client {
                RetxInfo::Crypto {
                    offset: 0,
                    len: c.len() as u64,
                }
            } else {
                RetxInfo::ServerHello
            };
            // An ACK owed rides in the Initial (RFC 9000 §12.4): a
            // server's reply to a ClientHello is one packet.
            let mut frames = Vec::with_capacity(2);
            frames.extend(ack.take());
            frames.push(Frame::Crypto { offset: 0, data: c });
            let pkt = self.seal(now, PacketType::Initial, frames, &[retx], true);
            budget = budget.saturating_sub(pkt.encoded_len() + 4);
            pkt
        });

        // 2. Application packet(s).
        let can_send_app = self.state == State::Established || self.early_data_attempted();
        let app_type = if self.state == State::Established {
            PacketType::OneRtt
        } else {
            PacketType::ZeroRtt
        };

        let mut frames: Vec<Frame> = Vec::new();
        let mut retx = RETX.take();
        let mut ack_eliciting = false;

        frames.extend(ack);
        if self.ping_pending {
            frames.push(Frame::Ping);
            self.ping_pending = false;
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
            let rare = self.in_flight.as_mut().and_then(|f| f.rare.as_mut());
            let credit = rare.map(|r| std::mem::take(&mut r.pending_max_stream_data));
            for id in credit.into_iter().flatten() {
                if let Some(max) = self.recv_window(id) {
                    frames.push(Frame::MaxStreamData { id, max });
                    retx.push(RetxInfo::MaxStreamData { id: id.0 });
                    ack_eliciting = true;
                }
            }
            // Unreliable datagrams (not retransmitted, not flow controlled).
            if let Some(rare) = self.in_flight.as_mut().and_then(|f| f.rare.as_mut()) {
                let queued = &mut rare.datagram_queue_out;
                while let Some(d) = queued.pop_front_if(|d| d.len() + 8 <= budget) {
                    budget -= d.len() + 8;
                    frames.push(Frame::Datagram { data: d });
                    ack_eliciting = true;
                }
            }
            // Stream data, congestion + budget permitting. Only streams
            // in the pending queue are visited — never the stream tables;
            // ascending id order matches a full scan's packetization.
            if self.recovery.can_send(256) && !self.flight().pending_streams.is_empty() {
                let mut pending = std::mem::take(&mut self.held().pending_streams);
                pending.retain(|&id| {
                    while budget > 32 && self.recovery.can_send(budget.min(1200)) {
                        let Some(s) = self.sending(id) else {
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
                    self.sending(id).is_some_and(|s| s.has_pending())
                });
                self.held().pending_streams = pending;
            }
        }

        let app =
            (!frames.is_empty()).then(|| self.seal(now, app_type, frames, &retx, ack_eliciting));
        retx.clear();
        RETX.set(retx);

        match (initial, app) {
            (Some(initial), Some(app)) => Some(self.finish_datagram(now, &[initial, app])),
            (Some(one), None) | (None, Some(one)) => Some(self.finish_datagram(now, &[one])),
            (None, None) => None,
        }
    }

    /// Numbers a packet leaving at `now`, truncating its number against
    /// the largest the peer has acknowledged. Only an ack-eliciting one
    /// enters the sent-packet ledger, with a copy of `retx` (one entry
    /// inline, more at exactly their number): nothing acknowledges an
    /// ack-only packet on its own,
    /// and nothing in it can be retransmitted.
    fn seal<'a>(
        &mut self,
        now: SimTime,
        ty: PacketType,
        frames: Vec<Frame<'a>>,
        retx: &[RetxInfo],
        ack_eliciting: bool,
    ) -> Packet<'a> {
        let pn = self.next_pn;
        self.next_pn += 1;
        let pkt = Packet {
            ty,
            dcid: self.cid,
            pn,
            pn_len: pn_len(pn, self.recovery.largest_acked()),
            frames,
        };
        if ack_eliciting {
            let sent = &mut InFlight::held(&mut self.in_flight, self.side == Side::Client).sent;
            self.recovery.on_packet_sent(
                sent,
                pn,
                SentPacket {
                    time_sent: now,
                    size: pkt.encoded_len(),
                    retx: RetxList::from(retx),
                },
            );
        } else {
            debug_assert!(retx.is_empty(), "an ack-only packet has nothing to resend");
        }
        pkt
    }

    fn finish_datagram(&mut self, now: SimTime, packets: &[Packet<'_>]) -> Payload {
        // Encode once into the thread's scratch buffer, hand out a
        // shared view.
        let dg = with_scratch(|w| {
            encode_datagram_into(packets, w);
            Payload::from(w.as_slice())
        });
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
        if let Some(t) = self.recovery.next_timeout(&self.flight().sent) {
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
        let mut idle = Ledger::new();
        let sent = self.in_flight.as_mut().map_or(&mut idle, |f| &mut f.sent);
        if self.recovery.next_timeout(sent).is_some_and(|t| now >= t) {
            let ev = self.recovery.on_timeout(sent, now);
            self.requeue_lost(ev.lost);
            self.settle();
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
    use std::time::Duration;

    /// A datagram's packets, each as its type and its frames.
    fn packets(d: &Payload) -> Vec<(PacketType, Vec<Frame<'_>>)> {
        decode_datagram_payload(d)
            .unwrap()
            .packets()
            .map(|p| (p.ty, p.frames().collect()))
            .collect()
    }

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
        shuttle_logged(a, b, start, owd_ms).0
    }

    /// [`shuttle`], also returning the datagrams each side sent: `a`'s,
    /// then `b`'s.
    fn shuttle_logged(
        a: &mut Connection,
        b: &mut Connection,
        start: SimTime,
        owd_ms: u64,
    ) -> (SimTime, [Vec<Payload>; 2]) {
        let mut now = start;
        let mut sent = [Vec::new(), Vec::new()];
        for _ in 0..64 {
            let a2b: Vec<Payload> = std::iter::from_fn(|| a.poll_transmit(now)).collect();
            let b2a: Vec<Payload> = std::iter::from_fn(|| b.poll_transmit(now)).collect();
            if a2b.is_empty() && b2a.is_empty() {
                break;
            }
            now += Duration::from_millis(owd_ms);
            for d in &a2b {
                b.handle_datagram(now, d);
            }
            for d in &b2a {
                a.handle_datagram(now, d);
            }
            sent[0].extend(a2b);
            sent[1].extend(b2a);
        }
        (now, sent)
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
    fn a_stream_written_whole_puts_on_the_wire_what_its_copy_does() {
        // Twelve data streams of a 7-byte prefix and a 1,000-byte body,
        // written whole — the prefix inline, the body shared — or as the
        // same bytes and a FIN, then carried with every third of the
        // server's first thirty datagrams lost: the same datagrams, byte
        // for byte, and the same backlog after every step, until it is 0.
        let run = |whole: bool| {
            let (mut c, mut s) = pair(t(0));
            let mut now = shuttle(&mut c, &mut s, t(0), 0);
            let body = Payload::new((0..1000).map(|i| i as u8).collect());
            for i in 0..12u8 {
                let id = s.open_stream(Dir::Uni).unwrap();
                let prefix = [0x08, i, 3, 128, 0, 0x43, 0xE8];
                if whole {
                    assert_eq!(s.send_whole_stream(id, &prefix, body.clone()), Ok(true));
                } else {
                    let bytes = [&prefix[..], &body].concat();
                    assert_eq!(s.send_stream(id, &bytes), Ok(true));
                    s.finish_stream(id).unwrap();
                }
            }
            let (mut wire, mut backlog) = (Vec::new(), Vec::new());
            while s.send_backlog_bytes() > 0 && backlog.len() < 2_000 {
                now += Duration::from_millis(5);
                for conn in [&mut c, &mut s] {
                    if conn.poll_timeout().is_some_and(|at| at <= now) {
                        conn.handle_timeout(now);
                    }
                }
                while let Some(d) = s.poll_transmit(now) {
                    if wire.len() >= 30 || wire.len() % 3 != 2 {
                        c.handle_datagram(now, &d);
                    }
                    wire.push(d);
                }
                while let Some(d) = c.poll_transmit(now) {
                    s.handle_datagram(now, &d);
                }
                backlog.push(s.send_backlog_bytes());
            }
            (wire, backlog)
        };
        let (whole, copy) = (run(true), run(false));
        assert!(whole.0.len() > 12, "{} datagrams", whole.0.len());
        assert_eq!(whole.1.last(), Some(&0), "all acknowledged");
        assert!(whole == copy, "the wire or the backlog differs");
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
    fn the_reply_to_a_client_hello_is_one_initial_carrying_its_ack() {
        let (mut c, mut s) = pair(t(0));
        s.handle_datagram(t(50), &c.poll_transmit(t(0)).unwrap());
        let reply = s.poll_transmit(t(50)).expect("server hello");
        assert!(s.poll_transmit(t(50)).is_none(), "one datagram");
        let pkts = packets(&reply);
        assert_eq!(pkts.len(), 1, "one packet");
        assert_eq!(pkts[0].0, PacketType::Initial);
        assert!(matches!(
            &pkts[0].1[..],
            [Frame::Ack { .. }, Frame::Crypto { .. }]
        ));
        // The client's ClientHello is acknowledged by it.
        c.handle_datagram(t(100), &reply);
        assert!(c.is_established());
        assert_eq!(c.state_breakdown().2, 0, "nothing left in flight");
    }

    #[test]
    fn a_contiguous_run_leaves_as_one_stream_frame() {
        let (mut c, mut s) = pair(t(0));
        let now = shuttle(&mut c, &mut s, t(0), 1);
        let id = c.open_stream(Dir::Bi).unwrap();
        for message in [&b"SETUP"[..], b"SUBSCRIBE", b"FETCH"] {
            c.send_stream(id, message).unwrap();
        }
        let dg = c.poll_transmit(now).expect("the writes");
        let frames: Vec<Frame> = packets(&dg)
            .into_iter()
            .flat_map(|p| p.1)
            .filter(|f| matches!(f, Frame::Stream { .. }))
            .collect();
        assert_eq!(
            frames,
            [Frame::Stream {
                id,
                offset: 0,
                fin: false,
                data: Payload::from(&b"SETUPSUBSCRIBEFETCH"[..]),
            }]
        );
        // One frame, one entry in the packet's ledger.
        let ledgered: Vec<RetxInfo> = c
            .flight()
            .sent
            .values()
            .flat_map(|p| p.retx.as_slice().to_vec())
            .collect();
        assert_eq!(
            ledgered,
            [RetxInfo::Stream {
                id: id.0,
                offset: 0,
                len: 19,
                fin: false,
            }]
        );
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
            s.send_stream(id, b"an update").unwrap();
            let [sent, _];
            (now, [sent, _]) = shuttle_logged(&mut c, &mut s, now, 1);
            assert_eq!(c.read_stream(id, 64).unwrap().0, b"an update");
            assert_eq!(sent.len(), 1, "one ACK per update");
            let only_acks = |(_, frames): &(PacketType, Vec<Frame>)| {
                frames.iter().all(|f| matches!(f, Frame::Ack { .. }))
            };
            assert!(packets(&sent[0]).iter().all(only_acks));
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
            assert_eq!(s.send_stream(id, &message), Ok(true));
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
        let pkts = packets(&flight);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].0, PacketType::Initial);
    }

    #[test]
    fn zero_rtt_data_rides_first_flight() {
        let now = t(0);
        let mut c = Connection::client(
            8,
            TransportConfig::default(),
            alpns(),
            Some(Ticket::new(99, 8)),
            now,
        );
        let mut s = Connection::server(8, TransportConfig::default(), alpns(), 99, now);
        let id = c.open_stream(Dir::Bi).unwrap();
        c.send_stream(id, b"early dns query").unwrap();
        c.finish_stream(id).unwrap();

        let flight = c.poll_transmit(now).unwrap();
        let pkts = packets(&flight);
        assert_eq!(pkts[0].0, PacketType::Initial);
        assert!(pkts.iter().any(|p| p.0 == PacketType::ZeroRtt));

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
            Some(Ticket::new(99, 9)),
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
        assert_eq!(c.send_stream(id, b"question"), Ok(true));
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

    /// RFC 9000 §10.1: only a packet the connection takes in restarts its
    /// idle timer. A peer gone silent whose last datagram an attacker
    /// replays every second is closed on time.
    #[test]
    fn replays_of_an_old_datagram_keep_no_connection_alive() {
        let cfg = TransportConfig::default().idle_timeout(Duration::from_secs(5));
        let mut c = Connection::client(1, cfg.clone(), alpns(), None, t(0));
        let mut s = Connection::server(1, cfg, alpns(), 99, t(0));
        let (end, sent) = shuttle_logged(&mut c, &mut s, t(0), 10);
        drain_events(&mut c);
        let old = sent[1].last().expect("the server sent a datagram").clone();
        let mut now = end;
        while !c.is_closed() && now < end + Duration::from_secs(30) {
            now += Duration::from_secs(1);
            c.handle_timeout(now);
            if !c.is_closed() {
                assert_eq!(c.handle_datagram(now, &old), Ingest::Ignored);
            }
        }
        assert!(c.is_closed(), "30 s of replays kept the connection open");
        assert!(now <= end + Duration::from_secs(6), "closed at {now:?}");
        assert!(drain_events(&mut c)
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
        let mut pings = 0;
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
            let sent;
            (now, sent) = shuttle_logged(&mut c, &mut s, now, 10);
            let frames = sent.iter().flatten().flat_map(|d| packets(d));
            pings += frames
                .flat_map(|(_, frames)| frames)
                .filter(|f| matches!(f, Frame::Ping))
                .count();
        }
        assert!(!c.is_closed());
        assert!(!s.is_closed());
        // At least one side pings; an endpoint whose ACK traffic keeps
        // resetting its own keep-alive clock legitimately stays quiet.
        assert!(pings > 0, "keep-alives were sent");
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

    /// Bytes a write to stream `id` may take now: the smaller of its own
    /// window and the connection's.
    fn open_window(c: &mut Connection, id: StreamId) -> usize {
        let credit = c.peer_max_data - c.data_sent;
        let room = c.send_half(id).and_then(|s| s.room()).unwrap_or(0);
        c.settle();
        credit.min(room) as usize
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
            // A chunk sized to the open window goes whole; a byte past it
            // is refused, and nothing of it is written.
            let chunk = open_window(&mut c, id).min(payload.len() - written);
            if chunk > 0 {
                let end = written + chunk;
                assert_eq!(c.send_stream(id, &payload[written..end]), Ok(true));
                written = end;
                if written == payload.len() {
                    c.finish_stream(id).unwrap();
                } else {
                    assert_ne!(c.send_stream(id, &payload[written..=written]), Ok(true));
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
        let garbage = Payload::from(&b"\xFF\xFF\xFF"[..]);
        assert_eq!(
            c.handle_datagram(t(0), &garbage),
            Ingest::Dropped(DropReason::MalformedPacket)
        );
        assert_eq!(c.handle_datagram(t(0), &Payload::empty()), Ingest::Ignored);
        assert!(!c.is_closed());
        // Nothing was taken: the client sends what a twin that saw
        // nothing sends.
        let (mut twin, _) = pair(t(0));
        assert_eq!(c.poll_transmit(t(0)), twin.poll_transmit(t(0)));
    }

    #[test]
    fn a_packet_number_stays_one_byte_however_old_the_connection() {
        // 20,000 request/answer round trips, each a request, an answer
        // and an ACK: past packet 63 a full varint took 2 bytes, past
        // 16,383 it took 4. Truncated against the largest acknowledged,
        // every packet number is one byte, and each side expands the
        // other's back in full.
        let (mut c, mut s) = pair(t(0));
        let mut now = shuttle(&mut c, &mut s, t(0), 1);
        let id = c.open_stream(Dir::Bi).unwrap();
        let one_byte = |d: &Payload| {
            let dg = decode_datagram_payload(d).unwrap();
            dg.packets().all(|p| p.pn_len() == 1)
        };
        for round in 0..20_000u32 {
            c.send_stream(id, &round.to_be_bytes()).unwrap();
            loop {
                let mut moved = false;
                while let Some(d) = c.poll_transmit(now) {
                    assert!(one_byte(&d), "round {round}");
                    s.handle_datagram(now, &d);
                    moved = true;
                }
                while s.poll_event().is_some() {}
                if let Ok((data, _)) = s.read_stream(id, usize::MAX) {
                    s.send_stream(id, &data).unwrap();
                }
                while let Some(d) = s.poll_transmit(now) {
                    assert!(one_byte(&d), "round {round}");
                    c.handle_datagram(now, &d);
                    moved = true;
                }
                while c.poll_event().is_some() {}
                let _ = c.read_stream(id, usize::MAX);
                if !moved {
                    break;
                }
                now += Duration::from_millis(1);
            }
        }
        assert!(c.next_pn > 16_384 && s.next_pn > 16_384);
        assert_eq!(s.acks.largest(), Some(c.next_pn - 1));
        assert_eq!(c.acks.largest(), Some(s.next_pn - 1));
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

    #[test]
    fn the_handshake_state_goes_with_the_handshake() {
        let (mut c, mut s) = pair(t(0));
        let hello = c.poll_transmit(t(0)).unwrap();
        s.handle_datagram(t(1), &hello);
        // The first ServerHello is lost: the flight the server kept is
        // what its probe resends.
        let _lost = s.poll_transmit(t(1)).unwrap();
        let probe = s.poll_timeout().unwrap();
        s.handle_timeout(probe);
        let reply = s.poll_transmit(probe).expect("the ServerHello again");
        assert!(
            s.handshake.is_some(),
            "a server keeps its ServerHello until it is acknowledged"
        );
        c.handle_datagram(probe, &reply);
        assert!(c.is_established());
        assert!(
            c.handshake.is_none(),
            "a client's handshake ends with the ServerHello"
        );
        let ack = c.poll_transmit(probe).expect("the ACK");
        s.handle_datagram(probe, &ack);
        assert!(s.handshake.is_none(), "acknowledged, the server's goes too");
        assert_eq!(s.alpn(), Some(ALPN));
        assert_eq!(c.alpn(), Some(ALPN));
    }

    /// The thread's spare in-flight records and bidirectional halves'
    /// records, both sides.
    fn spares() -> (usize, usize) {
        (
            Connection::spare_records(Side::Client) + Connection::spare_records(Side::Server),
            BidiHalves::spares(true) + BidiHalves::spares(false),
        )
    }

    /// One join-shaped exchange: the client writes a request on the
    /// control stream and sends a uni stream; the server answers on the
    /// control stream and on a uni stream of its own; each side reads
    /// what it got, and everything is acknowledged.
    fn join_shaped(c: &mut Connection, s: &mut Connection, now: SimTime) -> SimTime {
        let control = StreamId::new(true, Dir::Bi, 0);
        if c.bidi_streams.is_empty() {
            assert_eq!(c.open_stream(Dir::Bi), Ok(control));
        }
        c.send_stream(control, b"SUBSCRIBE, FETCH").unwrap();
        let up = c.open_stream(Dir::Uni).unwrap();
        c.send_stream(up, b"an object").unwrap();
        c.finish_stream(up).unwrap();
        let now = shuttle(c, s, now, 1);
        assert_eq!(s.read_stream(control, 64).unwrap().0, b"SUBSCRIBE, FETCH");
        assert_eq!(
            s.read_stream(up, 64).unwrap(),
            (b"an object".to_vec(), true)
        );
        s.send_stream(control, b"SUBSCRIBE_OK, FETCH_OK").unwrap();
        let down = s.open_stream(Dir::Uni).unwrap();
        s.send_stream(down, b"the record").unwrap();
        s.finish_stream(down).unwrap();
        let now = shuttle(c, s, now, 1);
        assert_eq!(
            c.read_stream(control, 64).unwrap().0,
            b"SUBSCRIBE_OK, FETCH_OK"
        );
        assert_eq!(
            c.read_stream(down, 64).unwrap(),
            (b"the record".to_vec(), true)
        );
        let now = shuttle(c, s, now, 1);
        drain_events(c);
        drain_events(s);
        now
    }

    #[test]
    fn a_held_connection_keeps_nothing_lent() {
        let (mut c, mut s) = pair(t(0));
        let now = shuttle(&mut c, &mut s, t(0), 1);
        let now = join_shaped(&mut c, &mut s, now);
        let control = StreamId::new(true, Dir::Bi, 0);
        let held = [&c, &s].map(|x| {
            assert_eq!(x.state_breakdown(), (1, 1, 0), "all acknowledged");
            assert!(!x.holds_in_flight_record(), "{:?}", x.side());
            // The control stream is its offsets, in place: no heap.
            assert_eq!(x.bidi_streams.heap_bytes(), 0);
            x.state_size_estimate()
        });
        let warm = spares();
        assert!(warm.0 > 0 && warm.1 > 0, "the thread keeps records");

        // The next exchange finds the spares warm: the client's request
        // in flight holds a record, its ledger warm, and the control
        // stream's send half holds one of its own, its buffers warm,
        // until the request is acknowledged.
        c.send_stream(control, b"FETCH").unwrap();
        let request = c.poll_transmit(now).expect("the request");
        assert_eq!(spares(), (warm.0 - 1, warm.1 - 1));
        assert!(c.flight().sent.heap_bytes() > 0, "a warm ledger");
        let half = c.halves().send.get(&control).expect("the send half");
        assert!(half.heap_bytes() > 0, "warm buffers");
        s.handle_datagram(now, &request);
        assert!(s.halves().recv.contains_key(&control), "unread");
        assert_eq!(s.read_stream(control, 64).unwrap().0, b"FETCH");
        assert!(s.bidi_halves.is_none(), "read, at rest");
        let now = shuttle(&mut c, &mut s, now, 1);
        assert!(!c.holds_in_flight_record(), "acknowledged, at rest");
        let now = join_shaped(&mut c, &mut s, now);
        shuttle(&mut c, &mut s, now, 1);
        for x in [&c, &s] {
            assert!(!x.holds_in_flight_record(), "{:?}", x.side());
        }
        assert_eq!([&c, &s].map(Connection::state_size_estimate), held);
        assert_eq!(spares(), warm, "nothing grew");
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
            let credit = packets(d)
                .iter()
                .any(|p| p.1.iter().any(|f| matches!(f, Frame::MaxStreams { .. })));
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
        let flight = s.held();
        flight.uni_send.remove(&id);
        flight.pending_streams.remove(&id);
        let frames = vec![Frame::ResetStream { id, error_code: 0 }];
        let pkt = s.seal(now, PacketType::OneRtt, frames, &[], false);
        s.finish_datagram(now, &[pkt])
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
        assert!(
            !c.holds_in_flight_record(),
            "the table went back to the thread with the record"
        );
        assert_eq!(
            c.data_consumed, c.data_received,
            "what a reset left unread shrinks no window"
        );
    }
}
