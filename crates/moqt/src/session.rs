//! The MoQT session state machine.
//!
//! A [`Session`] rides on exactly one `moqdns_quic::Connection` (which the
//! caller owns — typically inside an `Endpoint`): the session never does io
//! of its own. Drivers forward the connection's events into
//! [`Session::on_conn_event`] and call the session's verbs (subscribe,
//! fetch, publish, …) with a `&mut Connection` to write into.
//!
//! # The explicit state machine
//!
//! Inbound processing is an *explicit* state machine, in the rax25 idiom
//! (SNIPPETS.md snippet 1, `state.rs`): an input enum in, an output enum
//! out, and an error enum whose variants carry their texts.
//!
//! * **In:** every wire-level occurrence is a [`SessionInput`]. Eleven
//!   variants are the transport's — a stream opened, a data stream
//!   completed (decoded or not), a datagram, undecodable or overflowing
//!   control bytes, the drain timer, the ALPN token's version — and one,
//!   [`SessionInput::Control`], *wraps* the decoded [`ControlMessage`] as
//!   it is, the way rax25's `Event::Sabm(Sabm, Addr)` wraps the packet.
//!   Which control messages exist is said once, in `message.rs`.
//! * **Out:** [`Session::transition`] is a pure function of
//!   `(SessionState, SessionInput)` returning [`SessionOutput`]s: events
//!   for the application, control messages to send, a close.
//! * **Why:** a [`Reason`] — rax25's `DlError` — names every way a session
//!   poisons itself, is closed or has a data stream refused; its
//!   [`Reason::as_str`] is the text that rides in CONNECTION_CLOSE.
//!
//! Each state matches the input enum exhaustively, and the live states
//! (`Ready`, `Draining`) also match the [`ControlMessage`] inside
//! `Control(_)` variant by variant with no wildcard arm: a new input, or a
//! new control message, refuses to compile until a live session says what
//! it does with it. `Init` and `Handshaking` answer "any other control
//! message" in one arm each, because there the answer does not
//! depend on which one it is; `Closed` ignores everything.
//!
//! ```text
//!            start() [client]            SETUP done
//!   Init ─────────────────────► Handshaking ───────► Ready
//!    │  ControlStreamOpened [server] ▲                 │ GOAWAY
//!    │                               │                 ▼
//!    │                               │              Draining ── DrainTimeout ──► Closed
//!    └── any violation ──────────────┴──────────────────┴───── any violation ──► Closed
//! ```
//!
//! Legal inputs per state. Everything else **poisons** the session — the
//! transition emits [`SessionEvent::ProtocolViolation`] and a
//! [`SessionOutput::Close`], both carrying the [`Reason`] in the last
//! column, and the state latches `Closed`; never a clear-the-buffer-and-
//! hope resync:
//!
//! | state         | legal inputs                                                        | any other `Control(_)` poisons with |
//! |---------------|---------------------------------------------------------------------|-------------------------------------|
//! | `Init`        | `AlpnVersion`, `ControlStreamOpened` (server), `DataStreamOpened`, datagrams | [`Reason::ControlBeforeHandshake`] |
//! | `Handshaking` | `AlpnVersion`, `Control(ClientSetup)` (server) / `Control(ServerSetup)` (client), data streams, datagrams | [`Reason::RequestBeforeSetup`] |
//! | `Ready`       | `Control(_)` of every request and response, data streams, datagrams; a late `AlpnVersion` is inert | [`Reason::DuplicateSetup`] (a second SETUP), [`Reason::DuplicateSubscribeId`] |
//! | `Draining`    | as `Ready`, but a new `Control(Subscribe)` / `Control(Fetch)` is politely refused; `DrainTimeout` closes with [`Reason::Drained`] | as `Ready`, and [`Reason::DuplicateGoAway`] |
//! | `Closed`      | everything is inert (the poisoned/terminal state)                   | —                                   |
//!
//! A SETUP at the wrong side, or one that disagrees with the ALPN token or
//! the offered versions, poisons with a reason of its own (the six
//! `Reason`s that name SETUP). Malformed control bytes
//! ([`SessionInput::MalformedControl`]), a control buffer past
//! [`SessionConfig::max_control_buffer`]
//! ([`SessionInput::ControlOverflow`]), a lost control stream
//! ([`SessionInput::ControlStreamLost`]), a second bidirectional stream
//! and malformed data streams poison in every live state. Malformed or
//! unknown-alias *datagrams* never poison (they are unauthenticated noise
//! and an honest unsubscribe race produces them) — each raises
//! [`SessionEvent::DatagramDropped`] instead, which a driver counts in
//! [`SessionStats::dropped_datagrams`]. A data stream refused on
//! the *sending* side poisons nothing either, nor does a SUBSCRIBE past
//! the peer's bound: each surfaces as [`SessionEvent::Refused`]
//! ([`Reason::StreamLimit`], [`Reason::FlowControl`],
//! [`Reason::SubscriptionLimit`]) for the driver to count.
//!
//! # A peer's subscriptions are bounded
//!
//! A peer may hold at most [`MAX_PEER_SUBSCRIPTIONS`] subscriptions on a
//! session at once. A SUBSCRIBE past that is answered with a
//! SUBSCRIBE_ERROR ([`ERR_TOO_MANY_SUBSCRIPTIONS`], the reason's text as
//! its phrase) and raises [`Reason::SubscriptionLimit`] — a refusal, like
//! a data stream refused at [`Reason::StreamLimit`]; the session goes on.
//! The bound is far above any honest peer's (the relay uplink of the
//! benchmark's join storm holds 512; the `state_overhead` row's recursive
//! holds 200), and it is what lets the table be a sorted vector: a peer
//! that subscribes in the costliest order moves at most one bound's worth
//! of entries per SUBSCRIBE.
//!
//! # What a held session keeps
//!
//! A session that is only held — a subscription between updates — keeps
//! its tables and nothing that served only to set it up or to carry one
//! exchange. The versions and MAX_REQUEST_ID of the [`SessionConfig`] are
//! what SETUP says, and go once SETUP completes. What an exchange fills —
//! control bytes not yet decoded, fetches and data streams under way,
//! requests held back, events, the stall queue — is one record, taken
//! from the thread when the first of it is stored and handed back at the
//! end of the call that empties it (`moqdns_wire::queue`). What is
//! absent only at the start — the control stream before it is opened,
//! the version before it is known — is a sentinel, not an `Option`'s tag.
//! It keeps no counters: each poison and each dropped datagram is an
//! event ([`SessionEvent::ProtocolViolation`],
//! [`SessionEvent::DatagramDropped`]), and the driver that routes events
//! counts them ([`SessionStats`]). A stack keeps the session in its connection's slot at the
//! endpoint: a held endpoint is one allocation. A relay's session almost
//! always holds one subscription for its peer; that one lives in place in
//! the session (`moqdns_wire::SmallMap`), a second moves them to a block.
//!
//! # Data streams wait for stream credit
//!
//! One object is one unidirectional stream, and the peer grants those a
//! window at a time (`moqdns_quic::connection` module docs). A stream the
//! window has no room for is not refused: it waits in the session's
//! stall queue — the header bytes this session encoded for it and the
//! object's payload, shared — in the order they were published, each
//! entry tagged with the subscription it carries an object of, and goes
//! out when the connection raises `StreamsAvailable`. Whatever is queued
//! behind a stalled stream queues too, so the peer sees objects in
//! publish order.
//! An entry whose subscription the peer drops is dropped with it.
//!
//! The queue holds at most one window (the connection's `max_streams`):
//! a stream that finds it full is refused with [`Reason::StreamLimit`].
//! So a peer that never grants credit — it acknowledges every packet and
//! reads no stream — makes this side hold two windows of streams, one in
//! flight and one waiting, however often it asks; an honest peer's
//! credit comes back within a round trip. [`Session::send_backlog_bytes`]
//! counts the queue with the connection's unacknowledged bytes, so the
//! bound a relay puts on a slow subscriber covers both.
//!
//! # Control messages go whole
//!
//! A control message is written whole or not at all. One the
//! connection's window is short of waits, with every message after it,
//! in the record's `queued_control` until the peer's MAX_DATA raises the
//! window (the connection raises `StreamsAvailable`). A control stream
//! the peer stopped or reset, or whose own window cannot take the
//! message, is lost: the session poisons itself with
//! [`Reason::ControlStreamLost`].
//!
//! What one transition sends — a client's CLIENT_SETUP and the requests
//! the ALPN token releases behind it, a server's SERVER_SETUP and what
//! waited for it — is encoded once and written at once, so the control
//! stream's buffer is allocated at the run's size rather than grown
//! message by message to twice it. The rule does not change: a run the
//! connection cannot take whole goes message by message.
//!
//! What a state may **send** on the control stream. Whether requests may
//! precede SERVER_SETUP is not an option anyone sets: it is what the QUIC
//! handshake negotiated. An ALPN token that names a version
//! ([`crate::MOQT_ALPN`], read by [`crate::alpn_version`]) tells both ends
//! the version before SETUP; the draft-12 token
//! ([`crate::MOQT_ALPN_UNVERSIONED`]) does not.
//!
//! | state, version    | client sends                            | server sends          |
//! |-------------------|-----------------------------------------|-----------------------|
//! | `Init`            | nothing (requests are held back)        | nothing (likewise)    |
//! | `Handshaking`, token not yet known | nothing: requests are held back, CLIENT_SETUP waits for the token | nothing |
//! | `Handshaking`, the token names no version | CLIENT_SETUP listing the versions; requests are held back until SERVER_SETUP (strict draft-12: the paper's 3 RTT) | nothing |
//! | `Handshaking`, known from the token | CLIENT_SETUP without a version list, then requests straight behind it — same flight | nothing: SERVER_SETUP, without a version, is its first message, and takes it to `Ready` |
//! | `Ready`/`Draining` | everything                             | everything; what it asked for before CLIENT_SETUP arrived goes out right behind SERVER_SETUP |
//!
//! A client writes CLIENT_SETUP when it learns the connection's ALPN
//! token, since the token decides its shape: in [`Session::start`] when
//! the connection already has one (it is established, or it resumes with
//! a ticket issued under one, and CLIENT_SETUP rides 0-RTT), otherwise
//! when [`Session::on_conn_event`] sees `Connected { alpn, .. }`. A cold
//! connection carries no stream byte before its handshake completes
//! anyway, so this moves no flight. The version becomes known from
//! [`SessionInput::AlpnVersion`], raised right behind CLIENT_SETUP when
//! the token names one, or, failing that, from SERVER_SETUP. The
//! held-back queue is released by whichever comes first. The stream is
//! ordered, so a server always reads CLIENT_SETUP before the requests
//! behind it and answers SERVER_SETUP before their replies: the receive
//! side of the table above is the same under either token, and a reply
//! that overtakes SERVER_SETUP still poisons.
//!
//! **SETUP says the version once.** Under a token that names the version,
//! neither SETUP repeats it: CLIENT_SETUP has no version list and
//! SERVER_SETUP no selected version (`message` module docs). A SETUP that
//! names one anyway must agree with the token: a CLIENT_SETUP that lists
//! versions but not the token's, or a SERVER_SETUP that selects another,
//! poisons with a reason that says so. Under the unversioned token SETUP
//! is draft-12's, and one that names no version poisons as naming none
//! in common: [`Reason::NoCommonVersion`] at the server,
//! [`Reason::UnofferedVersion`] at the client.
//!
//! Protocol shape (after draft-12; `docs/deviations/10` says where the
//! wire differs):
//!
//! * all control messages flow on the **first client-initiated
//!   bidirectional stream** (the control stream, paper §3);
//! * the version rides in the **ALPN token**, and only there, so a cold
//!   first lookup is QUIC handshake + one flight carrying CLIENT_SETUP,
//!   SUBSCRIBE and the joining FETCH — 2 RTT, not the 3 of handshake +
//!   SETUP + request (the third optimization of paper §5.2) — and its
//!   SETUPs are 17 B shorter than draft-12's;
//! * with a resumption ticket that whole flight rides **0-RTT** — 1 RTT
//!   (the second optimization of §5.2 on top of the third). Rejected
//!   early data is retransmitted as 1-RTT data by the connection; stream
//!   offsets make the peer read each request once;
//! * objects travel on unidirectional subgroup/fetch streams, one group per
//!   stream (or datagrams, for the ablation); a subgroup stream's type
//!   says its subgroup is 0 (`data` module docs);
//! * **joining fetch** (§4.1): SUBSCRIBE with the latest-object filter plus
//!   a relative FETCH with offset 1 retrieves the current record version
//!   while future updates arrive via the subscription.

use crate::data::{
    decode_data_stream, encode_fetch_stream_head, encode_subgroup_stream_head, DataStream, Object,
    ObjectDatagram, SubgroupHeader,
};
use crate::message::{ControlMessage, FetchType, FilterType};
use crate::reason::Reason;
use crate::track::FullTrackName;
use moqdns_quic::connection::STREAM_BACKLOG_CHARGE;
use moqdns_quic::{Connection, ConnectionError, Dir, Event as QuicEvent, StreamId};
use moqdns_wire::pool::with_scratch;
use moqdns_wire::varint::MAX_VARINT;
use moqdns_wire::{queue, Payload, SmallMap, VecMap, VecSet};
use std::collections::VecDeque;

/// QUIC close code used when a session is poisoned by a violation.
pub const CLOSE_PROTOCOL_VIOLATION: u64 = 0x3;
/// QUIC close code used when a draining session's timer expires.
pub const CLOSE_DRAINED: u64 = 0x0;
/// SUBSCRIBE_ERROR / FETCH_ERROR code for requests refused while draining.
pub const ERR_DRAINING: u64 = 0x6;
/// SUBSCRIBE_ERROR code for a SUBSCRIBE past [`MAX_PEER_SUBSCRIPTIONS`].
pub const ERR_TOO_MANY_SUBSCRIPTIONS: u64 = 0x7;

/// How many subscriptions a peer may hold on one session at once (module
/// docs, "A peer's subscriptions are bounded"). Not a setting.
pub const MAX_PEER_SUBSCRIPTIONS: usize = 4096;

/// Session-level configuration. The versions and MAX_REQUEST_ID are
/// what SETUP says; a session lets them go once SETUP is done (module
/// docs, "What a held session keeps").
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Versions offered (client) / supported (server), preference order.
    pub versions: Vec<u64>,
    /// MAX_REQUEST_ID granted to the peer.
    pub max_request_id: u64,
    /// Upper bound on buffered, not-yet-decodable control-stream bytes.
    /// A peer that sends a length prefix and never completes the message
    /// would otherwise grow `control_rx` without bound; crossing this cap
    /// is a protocol violation that poisons the session.
    pub max_control_buffer: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            versions: vec![crate::MOQT_VERSION],
            max_request_id: 1 << 20,
            max_control_buffer: 64 * 1024,
        }
    }
}

/// The session's lifecycle state (see the module docs for the diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionState {
    /// Created; the control stream does not exist yet.
    Init,
    /// Control stream open, SETUP exchange in flight.
    Handshaking,
    /// SETUP completed in both directions; all verbs usable.
    Ready,
    /// A GOAWAY was received: existing flows drain, new requests are
    /// refused, [`SessionInput::DrainTimeout`] closes.
    Draining,
    /// Terminal. Reached by connection close, drain expiry, or poisoning
    /// on a protocol violation. Every input is inert here.
    Closed,
}

/// Everything that can happen *to* a session, normalized for the
/// transition function: the transport-level occurrences (streams,
/// datagrams, decode failures), the drain timer, and
/// [`SessionInput::Control`] wrapping the decoded [`ControlMessage`] as it
/// is — which control messages exist is `message.rs`'s to say, once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionInput {
    /// The peer opened a bidirectional stream (only ever legal as the
    /// server adopting the client's control stream, once).
    ControlStreamOpened(StreamId),
    /// The peer opened a unidirectional (data) stream.
    DataStreamOpened(StreamId),
    /// A complete subgroup data stream arrived and decoded.
    DataSubgroup {
        /// The stream header (alias, group, …).
        header: SubgroupHeader,
        /// The objects it carried.
        objects: Vec<Object>,
    },
    /// A complete fetch data stream arrived and decoded.
    DataFetch {
        /// Our fetch request id.
        request_id: u64,
        /// The returned objects.
        objects: Vec<Object>,
    },
    /// A complete data stream failed to decode.
    MalformedData,
    /// An object datagram arrived and decoded (ablation A2 path).
    Datagram(ObjectDatagram),
    /// A datagram arrived that does not decode as an object datagram.
    MalformedDatagram,
    /// Control-stream bytes failed to decode as a control message —
    /// framing is desynchronized and cannot be trusted again.
    MalformedControl,
    /// Buffered control bytes exceeded [`SessionConfig::max_control_buffer`].
    ControlOverflow,
    /// The control stream can no longer carry a control message whole:
    /// the peer stopped or reset it, or its own flow-control window cannot
    /// take the next message. MoQT treats losing the control stream as a
    /// protocol violation.
    ControlStreamLost,
    /// The driver's drain deadline fired (only meaningful in `Draining`;
    /// spurious fires in other states are tolerated, the sans-io idiom).
    DrainTimeout,
    /// The connection's ALPN token names this MoQT version, one this
    /// session speaks (see the module docs, "what a state may send").
    AlpnVersion(u64),
    /// A control message arrived on the control stream and decoded.
    Control(ControlMessage),
}

/// What a transition wants done. The driver ([`Session::on_conn_event`])
/// applies these against the connection; tests can inspect them directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOutput {
    /// Surface an event to the application.
    Event(SessionEvent),
    /// Send a control message on the control stream.
    Send(ControlMessage),
    /// Close the connection (the session is already `Closed`).
    Close {
        /// QUIC application close code.
        code: u64,
        /// Why; its text is the close's reason phrase.
        reason: Reason,
    },
}

moqdns_wire::counters! {
    /// Hardening counters a driver keeps about its sessions' peers, from
    /// the events the sessions raise: a session keeps none itself.
    pub struct SessionStats {
        /// Protocol violations observed (each one poisons the session).
        violations = "moqt.session.violations",
        /// Datagrams dropped: malformed, or carrying an unknown track alias.
        dropped_datagrams = "moqt.session.dropped_datagrams",
    }
}

/// How an incoming FETCH names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncomingFetchKind {
    /// Standalone: explicit track + absolute range.
    StandAlone {
        /// The fetched track.
        track: FullTrackName,
        /// First group.
        start_group: u64,
        /// Last group (inclusive); `u64::MAX` for an open end.
        end_group: u64,
        /// From a peer relay core ([`crate::message::FetchType::Peer`]):
        /// the core-to-core forwards it may still take.
        hop_budget: Option<u64>,
    },
    /// Joining: relative to one of *our* granted subscriptions.
    Joining {
        /// The peer's subscription this fetch joins.
        joining_request_id: u64,
        /// Groups before the subscription start to return (1 = latest
        /// existing version, per the DNS mapping).
        offset: u64,
        /// The resolved track of that subscription.
        track: FullTrackName,
    },
}

/// Events a session surfaces to its application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent {
    /// Setup handshake finished; the session is usable.
    Ready {
        /// Negotiated MoQT version.
        version: u64,
    },
    /// The peer wants to subscribe to a track (we are the publisher).
    /// Answer with [`Session::accept_subscribe`] or
    /// [`Session::reject_subscribe`].
    IncomingSubscribe {
        /// Peer's request id.
        request_id: u64,
        /// The track.
        track: FullTrackName,
    },
    /// The peer wants past objects. Answer with [`Session::respond_fetch`]
    /// or [`Session::reject_fetch`].
    IncomingFetch {
        /// Peer's request id.
        request_id: u64,
        /// What is being fetched.
        kind: IncomingFetchKind,
    },
    /// Our SUBSCRIBE was accepted.
    SubscribeAccepted {
        /// Our request id.
        request_id: u64,
        /// Publisher's largest (group, object), if the track has content.
        largest: Option<(u64, u64)>,
    },
    /// Our SUBSCRIBE was refused (also the §4.5 fallback signal).
    SubscribeRejected {
        /// Our request id.
        request_id: u64,
        /// Error code.
        code: u64,
        /// Reason phrase.
        reason: String,
    },
    /// Our FETCH was accepted; objects will arrive in [`SessionEvent::FetchObjects`].
    FetchAccepted {
        /// Our request id.
        request_id: u64,
        /// Publisher's largest (group, object).
        largest: (u64, u64),
    },
    /// Our FETCH was refused.
    FetchRejected {
        /// Our request id.
        request_id: u64,
        /// Error code.
        code: u64,
        /// Reason phrase.
        reason: String,
    },
    /// A complete fetch response stream arrived.
    FetchObjects {
        /// Our fetch request id.
        request_id: u64,
        /// The returned objects.
        objects: Vec<Object>,
    },
    /// An object arrived on one of our subscriptions (a pushed update).
    SubscriptionObject {
        /// Our subscribe request id.
        request_id: u64,
        /// The object.
        object: Object,
    },
    /// The publisher ended one of our subscriptions.
    SubscriptionEnded {
        /// Our subscribe request id.
        request_id: u64,
        /// Status code.
        code: u64,
        /// Reason phrase.
        reason: String,
    },
    /// The peer dropped one of its subscriptions to us (stop publishing).
    PeerUnsubscribed {
        /// The peer's request id.
        request_id: u64,
    },
    /// The peer asked us to move to another session.
    GoAway {
        /// Redirect URI.
        uri: String,
    },
    /// The peer violated the protocol; the session is poisoned into
    /// [`SessionState::Closed`] and the connection close is already on
    /// its way out. ([`Reason::NoControlStream`] is the one exception: a
    /// verb called too early, nothing poisoned.)
    ProtocolViolation(Reason),
    /// Something was refused without poisoning the session: a data stream
    /// this side would have sent — a window of streams already waits for
    /// the peer's credit ([`Reason::StreamLimit`]) — or one the
    /// connection's window has no room for ([`Reason::FlowControl`]), so
    /// the object a [`Session::publish`] or [`Session::respond_fetch`]
    /// carried is lost to the peer; or a peer's
    /// SUBSCRIBE past [`MAX_PEER_SUBSCRIPTIONS`]
    /// ([`Reason::SubscriptionLimit`]), answered with a SUBSCRIBE_ERROR.
    Refused(Reason),
    /// A datagram was dropped: malformed, before SETUP completed, or
    /// carrying a track alias none of our subscriptions has. Nothing is
    /// poisoned; a driver counts it (`moqdns_core::stack` counts it in
    /// [`SessionStats::dropped_datagrams`] and hands it to no node).
    DatagramDropped,
}

/// What only SETUP needs, held until SETUP completes.
struct Setup {
    versions: Vec<u64>,
    max_request_id: u64,
}

/// Publisher-side record of a peer's subscription.
#[derive(Debug, Clone)]
struct PeerSub {
    track: FullTrackName,
    track_alias: u64,
    accepted: bool,
}

/// A data stream waiting for the peer's stream credit (module docs).
struct Stalled {
    /// The peer subscription whose object it carries — its track on this
    /// session — or `None` for a fetch answer.
    subscription: Option<u64>,
    /// The stream as this session encoded it, all but its last payload.
    prefix: Vec<u8>,
    /// The last payload, shared with whoever else holds it.
    body: Payload,
}

impl Stalled {
    /// The stream's length.
    fn len(&self) -> usize {
        self.prefix.len() + self.body.len()
    }
}

/// Group ids live in varint space (≤ 2^62-1): clamps the open-ended
/// ranges callers express with `u64::MAX`.
fn in_varint_space(group: u64) -> u64 {
    group.min(MAX_VARINT)
}

/// The inverse of [`in_varint_space`]: the ceiling is an open end again.
fn open_end(group: u64) -> u64 {
    if group == MAX_VARINT {
        u64::MAX
    } else {
        group
    }
}

moqdns_wire::record! {
    /// What a session holds only while an exchange is under way (module
    /// docs, "What a held session keeps").
    struct InFlight {
        /// Control bytes read and not yet decoded.
        control_rx: Vec<u8>,
        /// Our fetches not yet answered.
        my_fetches: VecSet<u64>,
        /// Data streams being read, with their bytes so far.
        data_rx: VecMap<StreamId, Vec<u8>>,
        /// Requests held back until the version is known; control
        /// messages held back for the connection's window.
        queued_control: Vec<ControlMessage>,
        events: VecDeque<SessionEvent>,
        /// Data streams waiting for stream credit, in publish order.
        stalled: VecDeque<Stalled>,
    }
}

/// A MoQT session over one QUIC connection.
pub struct Session {
    is_client: bool,
    /// The SETUP-only part of the [`SessionConfig`]; `None` once SETUP
    /// completed.
    setup: Option<Box<Setup>>,
    /// [`SessionConfig::max_control_buffer`], held as 32 bits (a cap
    /// past 4 GiB is 4 GiB).
    max_control_buffer: u32,
    state: SessionState,
    /// The control stream, or `NO_STREAM` before it is opened (read
    /// through `Session::control_stream`).
    control_stream: StreamId,
    /// Control messages wait in [`InFlight::queued_control`] for the
    /// connection's window (`send_control`).
    control_held: bool,
    /// What is under way, while anything is.
    in_flight: Option<Box<InFlight>>,
    /// The version, or `NO_VERSION` while unknown (read through
    /// [`Session::version`]).
    version: u64,
    next_request_id: u64,
    /// Our subscriptions, by request id — which is also the track alias
    /// each asked the publisher to stamp on its objects.
    my_subs: VecSet<u64>,
    /// The peer picks the request ids, but [`MAX_PEER_SUBSCRIPTIONS`]
    /// bounds how many: a local limit, so a vector (the
    /// `moqdns_wire::vecmap` rule). A relay's session almost always
    /// holds one, so the first lives in place ([`SmallMap`]).
    peer_subs: SmallMap<u64, PeerSub>,
}

/// `Session::control_stream` before the control stream is opened: no
/// stream id reaches it (they end at 2^62 - 1).
const NO_STREAM: StreamId = StreamId(u64::MAX);

/// `Session::version` while no version is known: not a varint, so no
/// token and no SETUP names it.
const NO_VERSION: u64 = u64::MAX;

// What a held session keeps (module docs) is its struct first: a relay
// holds one per subscriber, in its connection's slot at the endpoint, and
// that subscriber's one subscription in place in it (`peer_subs`).
const _: () = assert!(std::mem::size_of::<Session>() <= 120);

impl Session {
    /// Creates the client side of a session.
    pub fn client(config: SessionConfig) -> Session {
        Session::new(true, config)
    }

    /// Creates the server side of a session.
    pub fn server(config: SessionConfig) -> Session {
        Session::new(false, config)
    }

    fn new(is_client: bool, config: SessionConfig) -> Session {
        let setup = Setup {
            versions: config.versions,
            max_request_id: config.max_request_id,
        };
        Session {
            is_client,
            setup: Some(Box::new(setup)),
            max_control_buffer: u32::try_from(config.max_control_buffer).unwrap_or(u32::MAX),
            state: SessionState::Init,
            control_stream: NO_STREAM,
            control_held: false,
            in_flight: None,
            version: NO_VERSION,
            next_request_id: if is_client { 0 } else { 1 },
            my_subs: VecSet::new(),
            peer_subs: SmallMap::new(),
        }
    }

    /// Current lifecycle state.
    ///
    /// Kept public for: `crates/moqt/tests/session_model.rs`, which checks each
    /// script's session ends ready or closed.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// True once SETUP completed in both directions (and the session has
    /// not been closed or poisoned). A draining session is still usable.
    pub fn is_ready(&self) -> bool {
        matches!(self.state, SessionState::Ready | SessionState::Draining)
    }

    /// The session's version, once known: from the ALPN token before
    /// SETUP completes, from SETUP otherwise.
    pub fn version(&self) -> Option<u64> {
        (self.version != NO_VERSION).then_some(self.version)
    }

    /// Takes `v` as the version unless one is known already: the first
    /// source wins.
    fn learn_version(&mut self, v: u64) {
        if self.version == NO_VERSION {
            self.version = v;
        }
    }

    /// The control stream, once opened.
    fn control_stream(&self) -> Option<StreamId> {
        (self.control_stream != NO_STREAM).then_some(self.control_stream)
    }

    /// Number of live subscriptions we hold (subscriber side).
    #[cfg(test)]
    pub fn subscription_count(&self) -> usize {
        self.my_subs.len()
    }

    /// Number of live subscriptions peers hold on us (publisher side).
    ///
    /// Kept public for: `tests/endpoint_heap.rs`, which checks the relay side
    /// holds every subscription it measures.
    pub fn peer_subscription_count(&self) -> usize {
        self.peer_subs.len()
    }

    /// True while an exchange is under way: it holds its in-flight record.
    ///
    /// Kept public for: `tests/endpoint_heap.rs`, which checks that a held
    /// endpoint holds no in-flight record.
    pub fn holds_in_flight_record(&self) -> bool {
        self.in_flight.is_some()
    }

    /// What is under way; an empty record if nothing is.
    fn flight(&self) -> &InFlight {
        InFlight::of(&self.in_flight)
    }

    /// The in-flight record, taken if none is held (`InFlight::held`).
    fn held(&mut self) -> &mut InFlight {
        InFlight::held(&mut self.in_flight, self.is_client)
    }

    /// Hands the in-flight record back if it holds nothing.
    fn settle(&mut self) {
        InFlight::settle(&mut self.in_flight, self.is_client);
    }

    /// Queues an event for the driver.
    fn raise(&mut self, ev: SessionEvent) {
        self.held().events.push_back(ev);
    }

    /// Bytes of session state held (paper §5.1 overhead accounting): the
    /// struct plus the backing storage — capacity, not length — of every
    /// table, buffer and queue it owns, its in-flight record and the
    /// record's containers while it holds one.
    pub fn state_size_estimate(&self) -> usize {
        let tracks = self
            .peer_subs
            .values()
            .map(|s| s.track.heap_bytes())
            .sum::<usize>();
        let setup = self.setup.as_ref().map_or(0, |s| {
            std::mem::size_of::<Setup>() + s.versions.capacity() * std::mem::size_of::<u64>()
        });
        let reading = self.flight().data_rx.values().map(Vec::capacity);
        let waiting = self
            .flight()
            .stalled
            .iter()
            .map(|s| s.prefix.capacity() + s.body.heap_bytes());
        std::mem::size_of::<Session>()
            + setup
            + InFlight::bytes(&self.in_flight)
            + reading.sum::<usize>()
            + waiting.sum::<usize>()
            + self.my_subs.heap_bytes()
            + self.peer_subs.heap_bytes()
            + tracks
    }

    /// Bytes this side holds for the peer and has not had acknowledged:
    /// the connection's send backlog plus the streams waiting for credit,
    /// each charged like a stream in flight. What a relay bounds per
    /// session.
    pub fn send_backlog_bytes(&self, conn: &Connection) -> usize {
        let stalled: usize = self
            .flight()
            .stalled
            .iter()
            .map(|s| STREAM_BACKLOG_CHARGE + s.len())
            .sum();
        conn.send_backlog_bytes() + stalled
    }

    fn alloc_request_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 2;
        id
    }

    /// Starts the session. A client writes CLIENT_SETUP as soon as it
    /// knows the connection's ALPN token, because the token decides
    /// whether SETUP names the version: at once when the connection has
    /// one already — it is established, or it resumes with a ticket
    /// issued under one, and then CLIENT_SETUP rides 0-RTT, with the
    /// requests behind it under a versioned token — and otherwise at
    /// `Connected`.
    pub fn start(&mut self, conn: &mut Connection) {
        if self.is_client && self.state == SessionState::Init {
            self.state = SessionState::Handshaking;
            if let Some(alpn) = conn.alpn() {
                let version = self.token_version(alpn);
                self.token_known(conn, version);
            }
        }
    }

    /// The version an ALPN token names, if this session speaks it: none
    /// when it names no version, or one this session does not speak (then
    /// SETUP decides, as before the token carried anything), or once
    /// SETUP has decided.
    fn token_version(&self, alpn: &[u8]) -> Option<u64> {
        crate::alpn_version(alpn).filter(|v| self.speaks(*v))
    }

    /// The connection's ALPN token is known, naming `version` (see
    /// [`Session::token_version`]): a started client that has not written
    /// CLIENT_SETUP writes it, then a named version is learned — and the
    /// requests it releases go in the same write as CLIENT_SETUP.
    fn token_known(&mut self, conn: &mut Connection, version: Option<u64>) {
        let setup = if self.is_client
            && self.state == SessionState::Handshaking
            && self.control_stream().is_none()
        {
            self.open_control_stream(conn, version)
        } else {
            None
        };
        let mut outs = match version {
            Some(v) => self.transition(SessionInput::AlpnVersion(v)),
            None => Vec::new(),
        };
        if let Some(msg) = setup {
            outs.insert(0, SessionOutput::Send(msg));
        }
        self.apply(conn, outs);
    }

    /// Opens the control stream and returns the CLIENT_SETUP to open it
    /// with. It lists the versions only when the token names none this
    /// session speaks (module docs, "what a state may send").
    fn open_control_stream(
        &mut self,
        conn: &mut Connection,
        token_version: Option<u64>,
    ) -> Option<ControlMessage> {
        let setup = self.setup.as_ref()?;
        let versions = match token_version {
            Some(_) => Vec::new(),
            None => setup.versions.clone(),
        };
        let msg = ControlMessage::ClientSetup {
            versions,
            max_request_id: setup.max_request_id,
        };
        // A closed connection's own `Closed` event says why not.
        self.control_stream = conn.open_stream(Dir::Bi).ok()?;
        Some(msg)
    }

    /// True if version `v` is one SETUP may agree on.
    fn speaks(&self, v: u64) -> bool {
        self.setup.as_ref().is_some_and(|s| s.versions.contains(&v))
    }

    /// Sends a request message, holding it back while the version is not
    /// yet known (module docs, "what a state may send"). A closed (or
    /// poisoned) session drops requests on the floor.
    fn send_request(&mut self, conn: &mut Connection, msg: ControlMessage) {
        match self.state {
            SessionState::Ready | SessionState::Draining => self.send_control(conn, &msg),
            SessionState::Handshaking if self.is_client && self.version().is_some() => {
                self.send_control(conn, &msg)
            }
            SessionState::Init | SessionState::Handshaking => self.held().queued_control.push(msg),
            SessionState::Closed => {}
        }
    }

    /// Writes a control message whole, or not at all. A control stream
    /// that cannot take it whole — stopped by the peer, or its own window
    /// short of it — is lost, and poisons the session. A connection whose
    /// window is short of it holds it back, with every message after it,
    /// until the peer's MAX_DATA raises the window
    /// ([`Session::send_held_control`]). (A closed connection's own
    /// `Closed` event says why nothing goes out.)
    fn send_control(&mut self, conn: &mut Connection, msg: &ControlMessage) {
        let Some(cs) = self.control_stream() else {
            self.raise(SessionEvent::ProtocolViolation(Reason::NoControlStream));
            return;
        };
        if self.control_held {
            self.held().queued_control.push(msg.clone());
            return;
        }
        let sent = with_scratch(|w| {
            with_scratch(|body| msg.encode_into(w, body));
            conn.send_stream(cs, w.as_slice())
        });
        match sent {
            Ok(true) | Err(ConnectionError::Closed) => {}
            Ok(false) => {
                self.control_held = true;
                self.held().queued_control.push(msg.clone());
            }
            Err(_) => {
                let outs = self.transition(SessionInput::ControlStreamLost);
                self.apply(conn, outs);
            }
        }
    }

    /// Writes the control messages of `run` — what one transition, or one
    /// release, sends — encoded once into the thread's scratch buffer and
    /// written at once: the control stream's buffer is then allocated at
    /// the run's size, not grown message by message. A run the connection
    /// cannot take whole goes message by message ([`Session::send_control`]):
    /// the messages that fit, whole, and the rest held back, or the stream
    /// lost — what writing them one by one does.
    fn send_controls<'a>(
        &mut self,
        conn: &mut Connection,
        run: impl Iterator<Item = &'a ControlMessage> + Clone,
    ) {
        let several = run.clone().nth(1).is_some();
        if let Some(cs) = self.control_stream().filter(|_| several) {
            if !self.control_held {
                let sent = with_scratch(|w| {
                    with_scratch(|body| run.clone().for_each(|msg| msg.encode_into(w, body)));
                    conn.send_stream(cs, w.as_slice())
                });
                if sent == Ok(true) {
                    return;
                }
            }
        }
        for msg in run {
            self.send_control(conn, msg);
        }
    }

    /// Sends the control messages held back for the connection's window,
    /// in order, for as long as it has room.
    fn send_held_control(&mut self, conn: &mut Connection) {
        if std::mem::take(&mut self.control_held) {
            for msg in std::mem::take(&mut self.held().queued_control) {
                self.send_control(conn, &msg);
            }
        }
    }

    /// Adversarial-drill hook: writes raw bytes straight onto the control
    /// stream, bypassing message framing entirely. Honest code never calls
    /// this — the byzantine netsim nodes use it to feed peers garbage and
    /// verify they poison the session rather than resynchronize. The
    /// bytes go whole or not at all, as every stream write does.
    pub fn inject_raw_control(&mut self, conn: &mut Connection, bytes: &[u8]) {
        if let Some(cs) = self.control_stream() {
            let _ = conn.send_stream(cs, bytes);
        }
    }

    // ------------------------------------------------------------------
    // Subscriber-side verbs
    // ------------------------------------------------------------------

    /// SUBSCRIBEs to a track from the next group onward. Returns our
    /// request id.
    pub fn subscribe(&mut self, conn: &mut Connection, track: FullTrackName) -> u64 {
        let request_id = self.alloc_request_id();
        self.my_subs.insert(request_id);
        let msg = ControlMessage::Subscribe {
            request_id,
            track_alias: request_id,
            track,
            filter: FilterType::LatestObject,
        };
        self.send_request(conn, msg);
        request_id
    }

    /// The paper's lookup operation (§4.1): SUBSCRIBE plus a joining FETCH
    /// with `offset` (1 = the version immediately before the subscription).
    /// Returns `(subscribe_request_id, fetch_request_id)`.
    pub fn subscribe_with_joining_fetch(
        &mut self,
        conn: &mut Connection,
        track: FullTrackName,
        offset: u64,
    ) -> (u64, u64) {
        let sub_id = self.subscribe(conn, track);
        let fetch = FetchType::RelativeJoining {
            joining_request_id: sub_id,
            joining_start: offset,
        };
        (sub_id, self.send_fetch(conn, fetch))
    }

    /// Standalone FETCH of an absolute group range (used on reconnection to
    /// recover updates missed since a stored group id, §4.4).
    pub fn fetch(
        &mut self,
        conn: &mut Connection,
        track: FullTrackName,
        start_group: u64,
        end_group: u64,
    ) -> u64 {
        let fetch = FetchType::StandAlone {
            track,
            start_group: in_varint_space(start_group),
            start_object: 0,
            end_group: in_varint_space(end_group),
        };
        self.send_fetch(conn, fetch)
    }

    /// Federation FETCH toward a peer relay core: a standalone fetch that
    /// carries the remaining hop budget so a rerouted request can never
    /// cycle through the core graph.
    pub fn fetch_peer(
        &mut self,
        conn: &mut Connection,
        track: FullTrackName,
        start_group: u64,
        end_group: u64,
        hop_budget: u64,
    ) -> u64 {
        let fetch = FetchType::Peer {
            track,
            start_group: in_varint_space(start_group),
            end_group: in_varint_space(end_group),
            hop_budget,
        };
        self.send_fetch(conn, fetch)
    }

    /// Issues FETCH `fetch`; returns its request id.
    fn send_fetch(&mut self, conn: &mut Connection, fetch: FetchType) -> u64 {
        let request_id = self.alloc_request_id();
        self.held().my_fetches.insert(request_id);
        self.send_request(conn, ControlMessage::Fetch { request_id, fetch });
        request_id
    }

    /// Drops one of our subscriptions (§4.4 teardown). Held back like the
    /// SUBSCRIBE it cancels while that is held back: sent at once it would
    /// overtake it, and the peer would keep a subscription we forgot.
    pub fn unsubscribe(&mut self, conn: &mut Connection, request_id: u64) {
        if self.my_subs.remove(&request_id) {
            self.send_request(conn, ControlMessage::Unsubscribe { request_id });
        }
    }

    // ------------------------------------------------------------------
    // Publisher-side verbs
    // ------------------------------------------------------------------

    /// Accepts a peer's subscription, advertising our largest version.
    pub fn accept_subscribe(
        &mut self,
        conn: &mut Connection,
        request_id: u64,
        largest: Option<(u64, u64)>,
    ) {
        if let Some(sub) = self.peer_subs.get_mut(&request_id) {
            sub.accepted = true;
            let msg = ControlMessage::SubscribeOk {
                request_id,
                expires_ms: 0,
                largest,
            };
            self.send_control(conn, &msg);
        }
    }

    /// Makes a peer's subscription hold `track`, a handle its owner keeps
    /// anyway (a relay's track table), in place of the equal name the
    /// SUBSCRIBE was decoded into: N subscribers of one track then share
    /// one buffer. Does nothing unless the two are the same track.
    pub fn share_subscribed_track(&mut self, request_id: u64, track: &FullTrackName) {
        if let Some(sub) = self.peer_subs.get_mut(&request_id) {
            if sub.track == *track {
                sub.track = track.clone();
            }
        }
    }

    /// Declines a peer's subscription — the §4.5 fallback path.
    pub fn reject_subscribe(
        &mut self,
        conn: &mut Connection,
        request_id: u64,
        code: u64,
        reason: &str,
    ) {
        self.peer_subs.remove(&request_id);
        let msg = ControlMessage::SubscribeError {
            request_id,
            code,
            reason: reason.to_string(),
        };
        self.send_control(conn, &msg);
    }

    /// Pushes an object to one accepted peer subscription: opens a fresh
    /// unidirectional subgroup stream, writes the object, finishes the
    /// stream (§4.1: streams, never datagrams, for reliability). Only the
    /// stream's header is encoded here; the payload goes to the stream as
    /// it is, shared, not copied. True if it went out or waits for stream
    /// credit (module docs).
    pub fn publish(&mut self, conn: &mut Connection, request_id: u64, object: Object) -> bool {
        let Some(sub) = self.peer_subs.get(&request_id) else {
            return false;
        };
        if !sub.accepted {
            return false;
        }
        let header = SubgroupHeader {
            track_alias: sub.track_alias,
            group_id: object.group_id,
            subgroup_id: 0,
            priority: 128,
        };
        with_scratch(|w| {
            let body = encode_subgroup_stream_head(w, &header, std::slice::from_ref(&object));
            self.send_on_new_uni_stream(conn, Some(request_id), w.as_slice(), body)
        })
    }

    /// Pushes an object as an unreliable datagram (ablation A2 only).
    pub fn publish_datagram(
        &mut self,
        conn: &mut Connection,
        request_id: u64,
        object: Object,
    ) -> bool {
        let Some(sub) = self.peer_subs.get(&request_id) else {
            return false;
        };
        if !sub.accepted {
            return false;
        }
        let dg = ObjectDatagram {
            track_alias: sub.track_alias,
            object,
        };
        conn.send_datagram(dg.encode()).is_ok()
    }

    /// Ends a peer's subscription from the publisher side.
    pub fn subscribe_done(
        &mut self,
        conn: &mut Connection,
        request_id: u64,
        code: u64,
        reason: &str,
    ) {
        if self.peer_subs.remove(&request_id).is_some() {
            self.forget_stalled(request_id);
            let msg = ControlMessage::SubscribeDone {
                request_id,
                code,
                reason: reason.to_string(),
            };
            self.send_control(conn, &msg);
            self.settle();
        }
    }

    /// Answers a peer's FETCH: FETCH_OK on the control stream plus a fetch
    /// data stream carrying `objects`.
    pub fn respond_fetch(
        &mut self,
        conn: &mut Connection,
        request_id: u64,
        largest: (u64, u64),
        objects: Vec<Object>,
    ) {
        let msg = ControlMessage::FetchOk {
            request_id,
            largest,
        };
        self.send_control(conn, &msg);
        with_scratch(|w| {
            let body = encode_fetch_stream_head(w, request_id, &objects);
            self.send_on_new_uni_stream(conn, None, w.as_slice(), body);
        });
    }

    /// Sends `prefix` then `body` as one data stream — one group, or one
    /// fetch response — or, when the peer's stream window has no room or
    /// streams already wait for it, queues them behind those (module
    /// docs). False if the stream was refused, or the connection is
    /// closed.
    fn send_on_new_uni_stream(
        &mut self,
        conn: &mut Connection,
        subscription: Option<u64>,
        prefix: &[u8],
        body: Payload,
    ) -> bool {
        let waiting = self.flight().stalled.len();
        if waiting == 0 {
            match conn.open_stream(Dir::Uni) {
                Ok(sid) => return self.write_data_stream(conn, sid, prefix, body),
                Err(ConnectionError::StreamLimit) => {}
                // Closed: the connection's own `Closed` event says so.
                Err(_) => return false,
            }
        } else if conn.is_closed() {
            return false;
        }
        if waiting as u64 >= conn.max_streams() {
            // A window waits already: the peer is not granting credit.
            self.raise(SessionEvent::Refused(Reason::StreamLimit));
            return false;
        }
        let prefix = prefix.to_vec();
        self.held().stalled.push_back(Stalled {
            subscription,
            prefix,
            body,
        });
        true
    }

    /// Writes one data stream whole and finishes it
    /// ([`Connection::send_whole_stream`]). One the peer's flow-control
    /// window has no room for raises [`SessionEvent::Refused`] and
    /// returns false.
    fn write_data_stream(
        &mut self,
        conn: &mut Connection,
        sid: StreamId,
        prefix: &[u8],
        body: Payload,
    ) -> bool {
        if conn.send_whole_stream(sid, prefix, body) == Ok(true) {
            return true;
        }
        // The connection was open a line ago: the window is what is full.
        self.raise(SessionEvent::Refused(Reason::FlowControl));
        false
    }

    /// Sends the data streams that waited for credit, in order, for as
    /// long as the peer's window has room.
    fn send_stalled(&mut self, conn: &mut Connection) {
        while !self.flight().stalled.is_empty() {
            let Ok(sid) = conn.open_stream(Dir::Uni) else {
                return;
            };
            let next = queue::pop_front(&mut self.held().stalled).expect("not empty");
            self.write_data_stream(conn, sid, &next.prefix, next.body);
        }
    }

    /// Drops the waiting objects of a peer subscription that ended.
    fn forget_stalled(&mut self, request_id: u64) {
        let waiting = &mut self.held().stalled;
        waiting.retain(|s| s.subscription != Some(request_id));
    }

    /// Declines a peer's FETCH.
    pub fn reject_fetch(
        &mut self,
        conn: &mut Connection,
        request_id: u64,
        code: u64,
        reason: &str,
    ) {
        let msg = ControlMessage::FetchError {
            request_id,
            code,
            reason: reason.to_string(),
        };
        self.send_control(conn, &msg);
    }

    // ------------------------------------------------------------------
    // Event plumbing
    // ------------------------------------------------------------------

    /// Next session event, if any.
    pub fn poll_event(&mut self) -> Option<SessionEvent> {
        let ev = queue::pop_front(&mut self.in_flight.as_mut()?.events);
        self.settle();
        ev
    }

    /// Feeds a connection event into the session: io-level pumping plus
    /// normalization into [`SessionInput`]s for [`Session::transition`].
    pub fn on_conn_event(&mut self, conn: &mut Connection, ev: &QuicEvent) {
        if self.state == SessionState::Closed {
            return;
        }
        match ev {
            QuicEvent::StreamOpened { id } => {
                let input = if id.dir() == Dir::Bi {
                    if !self.is_client {
                        // A server session made after `Connected` went by
                        // reads the token here, before CLIENT_SETUP.
                        if let Some(alpn) = conn.alpn() {
                            let version = self.token_version(alpn);
                            self.token_known(conn, version);
                        }
                    }
                    SessionInput::ControlStreamOpened(*id)
                } else {
                    SessionInput::DataStreamOpened(*id)
                };
                let outs = self.transition(input);
                self.apply(conn, outs);
            }
            QuicEvent::StreamReadable { id } => {
                if *id == self.control_stream {
                    self.pump_control(conn);
                } else if self.flight().data_rx.contains_key(id) {
                    self.pump_data(conn, *id);
                }
            }
            QuicEvent::DatagramReceived(d) => {
                let input = match ObjectDatagram::decode(d) {
                    Ok(dg) => SessionInput::Datagram(dg),
                    Err(_) => SessionInput::MalformedDatagram,
                };
                let outs = self.transition(input);
                self.apply(conn, outs);
            }
            QuicEvent::Closed { .. } => {
                self.state = SessionState::Closed;
            }
            QuicEvent::Connected { alpn, .. } => {
                let version = self.token_version(alpn);
                self.token_known(conn, version);
            }
            QuicEvent::StreamsAvailable => {
                self.send_held_control(conn);
                self.send_stalled(conn);
            }
            QuicEvent::TicketIssued(_) | QuicEvent::TicketRefused(_) => {}
        }
        self.settle();
    }

    /// [`Session::on_conn_event`] with the events it raises appended to
    /// `sink`, for a driver that takes them at once: a record held across
    /// turns (a fetch awaiting its answer) then keeps no event storage.
    pub fn on_conn_event_into(
        &mut self,
        conn: &mut Connection,
        ev: &QuicEvent,
        sink: &mut VecDeque<SessionEvent>,
    ) {
        let own = std::mem::replace(&mut self.held().events, std::mem::take(sink));
        self.on_conn_event(conn, ev);
        *sink = std::mem::replace(&mut self.held().events, own);
        self.settle();
    }

    /// Applies a transition's outputs against the connection, in order;
    /// each run of messages to send is one write ([`Session::send_controls`]).
    fn apply(&mut self, conn: &mut Connection, outputs: Vec<SessionOutput>) {
        let mut outputs = outputs.into_iter();
        loop {
            let sends = outputs.as_slice().iter().map_while(|out| match out {
                SessionOutput::Send(msg) => Some(msg),
                _ => None,
            });
            let run = sends.clone().count();
            if run > 0 {
                self.send_controls(conn, sends);
                outputs.by_ref().take(run).for_each(drop);
            }
            match outputs.next() {
                Some(SessionOutput::Event(e)) => self.raise(e),
                Some(SessionOutput::Close { code, reason }) => conn.close(code, reason.as_str()),
                // Sent with the run it starts.
                Some(SessionOutput::Send(_)) => {}
                None => return,
            }
        }
    }

    fn pump_control(&mut self, conn: &mut Connection) {
        let Some(cs) = self.control_stream() else {
            return;
        };
        loop {
            if self.state == SessionState::Closed {
                return;
            }
            match conn.read_stream(cs, 65_536) {
                Err(ConnectionError::Reset) => {
                    let outs = self.transition(SessionInput::ControlStreamLost);
                    self.apply(conn, outs);
                    return;
                }
                Ok((data, _fin)) if !data.is_empty() => {
                    let cap = self.max_control_buffer as usize;
                    if self.flight().control_rx.len() + data.len() > cap {
                        let outs = self.transition(SessionInput::ControlOverflow);
                        self.apply(conn, outs);
                        return;
                    }
                    self.held().control_rx.extend_from_slice(&data);
                }
                _ => break,
            }
        }
        loop {
            if self.state == SessionState::Closed {
                return;
            }
            match ControlMessage::decode(&self.flight().control_rx) {
                Ok(Some((msg, used))) => {
                    queue::drain_front(&mut self.held().control_rx, used);
                    let outs = self.transition(SessionInput::Control(msg));
                    self.apply(conn, outs);
                }
                Ok(None) => break,
                Err(_) => {
                    // Desynchronized framing can never be trusted again:
                    // poison, don't resynchronize by luck.
                    let outs = self.transition(SessionInput::MalformedControl);
                    self.apply(conn, outs);
                    return;
                }
            }
        }
    }

    fn pump_data(&mut self, conn: &mut Connection, id: StreamId) {
        let finished = loop {
            match conn.read_stream(id, 65_536) {
                Ok((data, fin)) => {
                    if let Some(buf) = self.held().data_rx.get_mut(&id) {
                        buf.extend_from_slice(&data);
                    }
                    if fin {
                        break true;
                    }
                    if data.is_empty() {
                        break false;
                    }
                }
                // The publisher gave the stream up: so does the reader
                // (the connection has already released it).
                Err(ConnectionError::Reset) => {
                    self.held().data_rx.remove(&id);
                    return;
                }
                Err(_) => break false,
            }
        };
        if !finished {
            return;
        }
        let Some(buf) = self.held().data_rx.remove(&id) else {
            return;
        };
        // The owned receive buffer becomes shared storage: every decoded
        // object's payload is a zero-copy sub-view of it.
        let input = match decode_data_stream(buf) {
            Ok(DataStream::Subgroup { header, objects }) => {
                SessionInput::DataSubgroup { header, objects }
            }
            Ok(DataStream::Fetch {
                request_id,
                objects,
            }) => SessionInput::DataFetch {
                request_id,
                objects,
            },
            Err(_) => SessionInput::MalformedData,
        };
        let outs = self.transition(input);
        self.apply(conn, outs);
    }

    // ------------------------------------------------------------------
    // The transition function
    // ------------------------------------------------------------------

    /// Poisons the session: the state latches `Closed`, the violation is
    /// counted, and the outputs carry both the application event and the
    /// connection close.
    fn poison(&mut self, reason: Reason) -> Vec<SessionOutput> {
        self.state = SessionState::Closed;
        vec![
            SessionOutput::Event(SessionEvent::ProtocolViolation(reason)),
            SessionOutput::Close {
                code: CLOSE_PROTOCOL_VIOLATION,
                reason,
            },
        ]
    }

    /// SETUP agreed on `version`: the session is `Ready`, and what only
    /// SETUP needed goes. Returns the MAX_REQUEST_ID this side grants,
    /// for a SERVER_SETUP to carry.
    fn setup_done(&mut self, version: u64) -> u64 {
        self.state = SessionState::Ready;
        self.version = version;
        self.setup.take().map_or(0, |s| s.max_request_id)
    }

    /// The held-back requests, in the order they were issued.
    fn release_queued(&mut self) -> Vec<SessionOutput> {
        std::mem::take(&mut self.held().queued_control)
            .into_iter()
            .map(SessionOutput::Send)
            .collect()
    }

    /// The pure transition function: `(state, input) -> outputs`, with
    /// state updated in place. Every `(SessionState, SessionInput)` pair
    /// is handled explicitly — each per-state handler matches the input
    /// enum exhaustively, and the live states the [`ControlMessage`]
    /// inside [`SessionInput::Control`] too, with no wildcard arm — so
    /// illegal inputs are deterministic
    /// [`SessionEvent::ProtocolViolation`]s that poison the session rather
    /// than silently falling through.
    pub fn transition(&mut self, input: SessionInput) -> Vec<SessionOutput> {
        let outs = match self.state {
            SessionState::Init => self.on_input_init(input),
            SessionState::Handshaking => self.on_input_handshaking(input),
            SessionState::Ready => self.on_input_live(input, false),
            SessionState::Draining => self.on_input_live(input, true),
            // Terminal and inert, whatever arrives.
            SessionState::Closed => Vec::new(),
        };
        self.settle();
        outs
    }

    fn on_input_init(&mut self, input: SessionInput) -> Vec<SessionOutput> {
        match input {
            SessionInput::ControlStreamOpened(id) => {
                if self.is_client {
                    // Servers never open bidirectional streams in MoQT.
                    return self.poison(Reason::UnexpectedBidiStream);
                }
                self.control_stream = id;
                self.state = SessionState::Handshaking;
                Vec::new()
            }
            SessionInput::DataStreamOpened(id) => {
                self.held().data_rx.insert(id, Vec::new());
                Vec::new()
            }
            SessionInput::DataSubgroup { .. }
            | SessionInput::DataFetch { .. }
            | SessionInput::MalformedData => self.poison(Reason::DataBeforeHandshake),
            SessionInput::Datagram(_) | SessionInput::MalformedDatagram => {
                vec![SessionOutput::Event(SessionEvent::DatagramDropped)]
            }
            SessionInput::MalformedControl => self.poison(Reason::BadControlMessage),
            SessionInput::ControlOverflow => self.poison(Reason::ControlOverflow),
            SessionInput::ControlStreamLost => self.poison(Reason::ControlStreamLost),
            SessionInput::DrainTimeout => Vec::new(),
            SessionInput::AlpnVersion(v) => {
                self.learn_version(v);
                Vec::new()
            }
            SessionInput::Control(_) => self.poison(Reason::ControlBeforeHandshake),
        }
    }

    fn on_input_handshaking(&mut self, input: SessionInput) -> Vec<SessionOutput> {
        match input {
            SessionInput::ControlStreamOpened(_) => self.poison(Reason::DuplicateControlStream),
            SessionInput::DataStreamOpened(id) => {
                self.held().data_rx.insert(id, Vec::new());
                Vec::new()
            }
            // Packet reordering can complete a data stream before the
            // SETUP answer is processed: deliver rather than punish.
            SessionInput::DataSubgroup { header, objects } => {
                self.deliver_subgroup(header, objects)
            }
            SessionInput::DataFetch {
                request_id,
                objects,
            } => self.deliver_fetch(request_id, objects),
            SessionInput::MalformedData => self.poison(Reason::BadDataStream),
            SessionInput::Datagram(dg) => self.deliver_datagram(dg),
            SessionInput::MalformedDatagram => {
                vec![SessionOutput::Event(SessionEvent::DatagramDropped)]
            }
            SessionInput::MalformedControl => self.poison(Reason::BadControlMessage),
            SessionInput::ControlOverflow => self.poison(Reason::ControlOverflow),
            SessionInput::ControlStreamLost => self.poison(Reason::ControlStreamLost),
            SessionInput::DrainTimeout => Vec::new(),
            SessionInput::AlpnVersion(v) => {
                // The first source wins; a SETUP that disagrees poisons.
                self.learn_version(v);
                if self.is_client {
                    self.release_queued()
                } else {
                    Vec::new()
                }
            }
            SessionInput::Control(ControlMessage::ClientSetup {
                versions,
                max_request_id: _,
            }) => {
                if self.is_client {
                    return self.poison(Reason::UnexpectedClientSetup);
                }
                let token = self.version();
                let v = match token {
                    // The token already chose; a SETUP that names
                    // versions has to agree.
                    Some(v) if versions.is_empty() || versions.contains(&v) => v,
                    Some(_) => return self.poison(Reason::SetupOmitsAlpnVersion),
                    // Select the highest version both sides support; an
                    // empty list has none in common with anything.
                    None => match versions.iter().filter(|v| self.speaks(**v)).max() {
                        Some(&v) => v,
                        None => return self.poison(Reason::NoCommonVersion),
                    },
                };
                let max_request_id = self.setup_done(v);
                // Requests this side issued while it waited go out behind
                // SERVER_SETUP, in the same flight.
                let queued = self.release_queued();
                let mut outs = Vec::with_capacity(2 + queued.len());
                outs.push(SessionOutput::Send(ControlMessage::ServerSetup {
                    // Named only when the token did not name it.
                    version: token.is_none().then_some(v),
                    max_request_id,
                }));
                outs.extend(queued);
                outs.push(SessionOutput::Event(SessionEvent::Ready { version: v }));
                outs
            }
            SessionInput::Control(ControlMessage::ServerSetup {
                version,
                max_request_id: _,
            }) => {
                if !self.is_client {
                    return self.poison(Reason::UnexpectedServerSetup);
                }
                let version = match (version, self.version()) {
                    // The token's.
                    (None, Some(v)) => v,
                    // No version at all: none this side offered.
                    (None, None) => return self.poison(Reason::UnofferedVersion),
                    (Some(v), _) if !self.speaks(v) => {
                        return self.poison(Reason::UnofferedVersion)
                    }
                    (Some(v), Some(token)) if v != token => {
                        return self.poison(Reason::SetupContradictsAlpn)
                    }
                    (Some(v), _) => v,
                };
                self.setup_done(version);
                let mut outs = self.release_queued();
                outs.push(SessionOutput::Event(SessionEvent::Ready { version }));
                outs
            }
            SessionInput::Control(_) => self.poison(Reason::RequestBeforeSetup),
        }
    }

    /// `Ready` and `Draining` share almost all behavior; `draining`
    /// selects the differences (new requests refused, second GOAWAY is a
    /// violation, the drain timer closes). The control messages are
    /// matched one by one: a new [`ControlMessage`] variant refuses to
    /// compile until this says what a live session does with it.
    fn on_input_live(&mut self, input: SessionInput, draining: bool) -> Vec<SessionOutput> {
        use ControlMessage as Msg;
        match input {
            SessionInput::ControlStreamOpened(_) => self.poison(Reason::DuplicateControlStream),
            SessionInput::DataStreamOpened(id) => {
                self.held().data_rx.insert(id, Vec::new());
                Vec::new()
            }
            SessionInput::DataSubgroup { header, objects } => {
                self.deliver_subgroup(header, objects)
            }
            SessionInput::DataFetch {
                request_id,
                objects,
            } => self.deliver_fetch(request_id, objects),
            SessionInput::MalformedData => self.poison(Reason::BadDataStream),
            SessionInput::Datagram(dg) => self.deliver_datagram(dg),
            SessionInput::MalformedDatagram => {
                vec![SessionOutput::Event(SessionEvent::DatagramDropped)]
            }
            SessionInput::MalformedControl => self.poison(Reason::BadControlMessage),
            SessionInput::ControlOverflow => self.poison(Reason::ControlOverflow),
            SessionInput::ControlStreamLost => self.poison(Reason::ControlStreamLost),
            SessionInput::DrainTimeout => {
                if draining {
                    self.state = SessionState::Closed;
                    vec![SessionOutput::Close {
                        code: CLOSE_DRAINED,
                        reason: Reason::Drained,
                    }]
                } else {
                    // Spurious wakeup after re-arming: tolerated.
                    Vec::new()
                }
            }
            // SETUP already agreed the version (a driver that starts a
            // session on an established connection feeds `Connected` late).
            SessionInput::AlpnVersion(_) => Vec::new(),
            SessionInput::Control(Msg::ClientSetup { .. } | Msg::ServerSetup { .. }) => {
                self.poison(Reason::DuplicateSetup)
            }
            SessionInput::Control(Msg::Subscribe {
                request_id,
                track_alias,
                track,
                filter: _,
            }) => {
                if draining {
                    return vec![SessionOutput::Send(Msg::SubscribeError {
                        request_id,
                        code: ERR_DRAINING,
                        reason: "draining".to_string(),
                    })];
                }
                if self.peer_subs.contains_key(&request_id) {
                    return self.poison(Reason::DuplicateSubscribeId);
                }
                if self.peer_subs.len() >= MAX_PEER_SUBSCRIPTIONS {
                    let refused = Reason::SubscriptionLimit;
                    return vec![
                        SessionOutput::Send(Msg::SubscribeError {
                            request_id,
                            code: ERR_TOO_MANY_SUBSCRIPTIONS,
                            reason: refused.as_str().to_string(),
                        }),
                        SessionOutput::Event(SessionEvent::Refused(refused)),
                    ];
                }
                self.peer_subs.insert(
                    request_id,
                    PeerSub {
                        track: track.clone(),
                        track_alias,
                        accepted: false,
                    },
                );
                vec![SessionOutput::Event(SessionEvent::IncomingSubscribe {
                    request_id,
                    track,
                })]
            }
            SessionInput::Control(Msg::SubscribeOk {
                request_id,
                expires_ms: _,
                largest,
            }) => vec![SessionOutput::Event(SessionEvent::SubscribeAccepted {
                request_id,
                largest,
            })],
            SessionInput::Control(Msg::SubscribeError {
                request_id,
                code,
                reason,
            }) => {
                self.my_subs.remove(&request_id);
                vec![SessionOutput::Event(SessionEvent::SubscribeRejected {
                    request_id,
                    code,
                    reason,
                })]
            }
            SessionInput::Control(Msg::Unsubscribe { request_id }) => {
                self.peer_subs.remove(&request_id);
                self.forget_stalled(request_id);
                vec![SessionOutput::Event(SessionEvent::PeerUnsubscribed {
                    request_id,
                })]
            }
            SessionInput::Control(Msg::SubscribeDone {
                request_id,
                code,
                reason,
            }) => {
                self.my_subs.remove(&request_id);
                vec![SessionOutput::Event(SessionEvent::SubscriptionEnded {
                    request_id,
                    code,
                    reason,
                })]
            }
            SessionInput::Control(Msg::Fetch { request_id, fetch }) => {
                if draining {
                    return vec![SessionOutput::Send(Msg::FetchError {
                        request_id,
                        code: ERR_DRAINING,
                        reason: "draining".to_string(),
                    })];
                }
                let kind = match fetch {
                    FetchType::StandAlone {
                        track,
                        start_group,
                        end_group,
                        ..
                    } => IncomingFetchKind::StandAlone {
                        track,
                        start_group,
                        end_group: open_end(end_group),
                        hop_budget: None,
                    },
                    FetchType::Peer {
                        track,
                        start_group,
                        end_group,
                        hop_budget,
                    } => IncomingFetchKind::StandAlone {
                        track,
                        start_group,
                        end_group: open_end(end_group),
                        hop_budget: Some(hop_budget),
                    },
                    FetchType::RelativeJoining {
                        joining_request_id,
                        joining_start,
                    } => {
                        let Some(sub) = self.peer_subs.get(&joining_request_id) else {
                            return vec![SessionOutput::Send(Msg::FetchError {
                                request_id,
                                code: 0x8,
                                reason: "unknown joining subscription".to_string(),
                            })];
                        };
                        IncomingFetchKind::Joining {
                            joining_request_id,
                            offset: joining_start,
                            track: sub.track.clone(),
                        }
                    }
                };
                vec![SessionOutput::Event(SessionEvent::IncomingFetch {
                    request_id,
                    kind,
                })]
            }
            SessionInput::Control(Msg::FetchOk {
                request_id,
                largest,
            }) => vec![SessionOutput::Event(SessionEvent::FetchAccepted {
                request_id,
                largest,
            })],
            SessionInput::Control(Msg::FetchError {
                request_id,
                code,
                reason,
            }) => {
                self.held().my_fetches.remove(&request_id);
                vec![SessionOutput::Event(SessionEvent::FetchRejected {
                    request_id,
                    code,
                    reason,
                })]
            }
            // Minimal handling: acknowledge (relays use this upstream).
            SessionInput::Control(Msg::Announce { request_id, .. }) => {
                vec![SessionOutput::Send(Msg::AnnounceOk { request_id })]
            }
            SessionInput::Control(
                Msg::FetchCancel { .. }
                | Msg::AnnounceOk { .. }
                | Msg::AnnounceError { .. }
                | Msg::Unannounce { .. }
                | Msg::MaxRequestId { .. },
            ) => Vec::new(),
            SessionInput::Control(Msg::GoAway { uri }) => {
                if draining {
                    return self.poison(Reason::DuplicateGoAway);
                }
                self.state = SessionState::Draining;
                vec![SessionOutput::Event(SessionEvent::GoAway { uri })]
            }
        }
    }

    // ------------------------------------------------------------------
    // Shared delivery helpers (Handshaking / Ready / Draining)
    // ------------------------------------------------------------------

    fn deliver_subgroup(
        &mut self,
        header: SubgroupHeader,
        objects: Vec<Object>,
    ) -> Vec<SessionOutput> {
        // Our track alias is our request id. An unknown alias on a
        // *stream* is the honest unsubscribe race (objects in flight when
        // the UNSUBSCRIBE crossed them): ignore.
        let request_id = header.track_alias;
        if !self.my_subs.contains(&request_id) {
            return Vec::new();
        }
        objects
            .into_iter()
            .map(|object| {
                SessionOutput::Event(SessionEvent::SubscriptionObject { request_id, object })
            })
            .collect()
    }

    fn deliver_fetch(&mut self, request_id: u64, objects: Vec<Object>) -> Vec<SessionOutput> {
        if !self.held().my_fetches.remove(&request_id) {
            return Vec::new();
        }
        vec![SessionOutput::Event(SessionEvent::FetchObjects {
            request_id,
            objects,
        })]
    }

    fn deliver_datagram(&mut self, dg: ObjectDatagram) -> Vec<SessionOutput> {
        let request_id = dg.track_alias;
        if !self.my_subs.contains(&request_id) {
            return vec![SessionOutput::Event(SessionEvent::DatagramDropped)];
        }
        vec![SessionOutput::Event(SessionEvent::SubscriptionObject {
            request_id,
            object: dg.object,
        })]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqdns_netsim::SimTime;
    use moqdns_quic::TransportConfig;
    use std::time::Duration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn track() -> FullTrackName {
        FullTrackName::new(
            vec![vec![0x01], vec![0x00, 0x01], vec![0x00, 0x01]],
            b"\x07example\x03com\x00".to_vec(),
        )
        .unwrap()
    }

    /// A test rig: two connections + two sessions shuttling datagrams.
    struct Rig {
        c_conn: Connection,
        s_conn: Connection,
        pub client: Session,
        pub server: Session,
        now: SimTime,
        /// Whether the client's connection events reach its session.
        /// Without them the client acknowledges every packet but reads
        /// no stream, so it never grants stream credit.
        client_reads: bool,
    }

    impl Rig {
        fn new() -> Rig {
            Rig::with_transport(TransportConfig::default())
        }

        fn with_transport(transport: TransportConfig) -> Rig {
            let alpn = moqdns_quic::alpn_list(&[crate::MOQT_ALPN]);
            let mut c_conn = Connection::client(1, transport.clone(), alpn.clone(), None, t(0));
            let s_conn = Connection::server(1, transport, alpn, 7, t(0));
            let mut client = Session::client(SessionConfig::default());
            client.start(&mut c_conn);
            let mut rig = Rig {
                c_conn,
                s_conn,
                client,
                server: Session::server(SessionConfig::default()),
                now: t(0),
                client_reads: true,
            };
            rig.run();
            rig
        }

        /// Shuttles until both quiet, pumping events through the sessions.
        fn run(&mut self) {
            for _ in 0..64 {
                let mut moved = false;
                let mut c2s = Vec::new();
                while let Some(d) = self.c_conn.poll_transmit(self.now) {
                    c2s.push(d);
                }
                let mut s2c = Vec::new();
                while let Some(d) = self.s_conn.poll_transmit(self.now) {
                    s2c.push(d);
                }
                if !c2s.is_empty() || !s2c.is_empty() {
                    moved = true;
                    self.now += Duration::from_millis(10);
                    for d in c2s {
                        self.s_conn.handle_datagram(self.now, &d);
                    }
                    for d in s2c {
                        self.c_conn.handle_datagram(self.now, &d);
                    }
                }
                // Pump connection events into sessions.
                while let Some(ev) = self.c_conn.poll_event() {
                    if self.client_reads {
                        self.client.on_conn_event(&mut self.c_conn, &ev);
                    }
                }
                while let Some(ev) = self.s_conn.poll_event() {
                    self.server.on_conn_event(&mut self.s_conn, &ev);
                }
                if !moved {
                    break;
                }
            }
        }

        fn client_events(&mut self) -> Vec<SessionEvent> {
            let mut out = Vec::new();
            while let Some(e) = self.client.poll_event() {
                out.push(e);
            }
            out
        }

        fn server_events(&mut self) -> Vec<SessionEvent> {
            let mut out = Vec::new();
            while let Some(e) = self.server.poll_event() {
                out.push(e);
            }
            out
        }
    }

    #[test]
    fn setup_negotiates_version() {
        let mut rig = Rig::new();
        assert!(rig.client.is_ready());
        assert!(rig.server.is_ready());
        assert_eq!(rig.client.state(), SessionState::Ready);
        assert_eq!(rig.server.state(), SessionState::Ready);
        assert_eq!(rig.client.version(), Some(crate::MOQT_VERSION));
        let cev = rig.client_events();
        assert!(cev.iter().any(|e| matches!(e, SessionEvent::Ready { .. })));
        let sev = rig.server_events();
        assert!(sev.iter().any(|e| matches!(e, SessionEvent::Ready { .. })));
    }

    /// Sessions made on a connection whose `Connected` already went by
    /// read the token from the connection: the client when it starts, the
    /// server when the control stream opens. Without that the server
    /// would read the client's versionless CLIENT_SETUP under no token.
    #[test]
    fn sessions_made_after_the_handshake_read_the_token_from_the_connection() {
        let transport = TransportConfig::default();
        let alpn = moqdns_quic::alpn_list(&[crate::MOQT_ALPN]);
        let mut c_conn = Connection::client(1, transport.clone(), alpn.clone(), None, t(0));
        let mut s_conn = Connection::server(1, transport, alpn, 7, t(0));
        for _ in 0..8 {
            while let Some(d) = c_conn.poll_transmit(t(0)) {
                s_conn.handle_datagram(t(0), &d);
            }
            while let Some(d) = s_conn.poll_transmit(t(0)) {
                c_conn.handle_datagram(t(0), &d);
            }
        }
        assert!(c_conn.is_established() && s_conn.is_established());
        while c_conn.poll_event().is_some() {}
        while s_conn.poll_event().is_some() {}
        let mut client = Session::client(SessionConfig::default());
        client.start(&mut c_conn);
        let mut rig = Rig {
            c_conn,
            s_conn,
            client,
            server: Session::server(SessionConfig::default()),
            now: t(0),
            client_reads: true,
        };
        rig.run();
        assert!(rig.client.is_ready() && rig.server.is_ready());
        assert_eq!(rig.server.version(), Some(crate::MOQT_VERSION));
        let events = [rig.client_events(), rig.server_events()].concat();
        assert!(!events
            .iter()
            .any(|e| matches!(e, SessionEvent::ProtocolViolation(_))));
    }

    #[test]
    fn control_bytes_read_dry_go_back_to_the_thread() {
        // The thread's spare records: each one's control byte buffer.
        let spares = || {
            let mut held: Vec<_> = InFlight::pool().with(|spares| {
                let kept = spares.of(false).borrow();
                kept.iter()
                    .map(|r| (r.control_rx.as_ptr(), r.control_rx.capacity()))
                    .collect()
            });
            held.sort();
            held
        };
        let mut rig = Rig::new();
        // A join's worth of requests lands in one flight: read and
        // decoded in one turn, its bytes are not the session's to keep.
        for _ in 0..32 {
            rig.client.fetch(&mut rig.c_conn, track(), 0, 1);
        }
        rig.run();
        assert_eq!(rig.server_events().len(), 1 + 32, "Ready, then each FETCH");
        assert!(
            !rig.server.holds_in_flight_record(),
            "the session holds none"
        );
        assert!(
            spares().iter().all(|&(_, cap)| cap <= queue::KEEP_BYTES),
            "nor does the thread keep a burst's bytes"
        );
        // One request at a time: a spare record is lent and comes back.
        rig.client.fetch(&mut rig.c_conn, track(), 0, 1);
        rig.run();
        assert_eq!(rig.server_events().len(), 1);
        assert!(!rig.server.holds_in_flight_record());
        let warm = spares();
        assert!(
            warm.iter()
                .any(|&(_, cap)| (1..=queue::KEEP_BYTES).contains(&cap)),
            "the thread holds it: {warm:?}"
        );
        // The next exchange finds it warm: the same storage, not a new one.
        rig.client.fetch(&mut rig.c_conn, track(), 0, 1);
        rig.run();
        assert_eq!(rig.server_events().len(), 1);
        assert!(!rig.server.holds_in_flight_record());
        assert_eq!(spares(), warm);
    }

    #[test]
    fn subscribe_accept_publish_flow() {
        let mut rig = Rig::new();
        rig.client_events();
        rig.server_events();

        let sub_id = rig.client.subscribe(&mut rig.c_conn, track());
        rig.run();
        let sev = rig.server_events();
        let req = sev
            .iter()
            .find_map(|e| match e {
                SessionEvent::IncomingSubscribe {
                    request_id,
                    track: tr,
                } => {
                    assert_eq!(*tr, track());
                    Some(*request_id)
                }
                _ => None,
            })
            .expect("incoming subscribe");

        rig.server
            .accept_subscribe(&mut rig.s_conn, req, Some((17, 0)));
        rig.run();
        let cev = rig.client_events();
        assert!(cev.iter().any(|e| matches!(
            e,
            SessionEvent::SubscribeAccepted { request_id, largest: Some((17, 0)) }
            if *request_id == sub_id
        )));

        // Publish an update (a new group = new zone version).
        let ok = rig.server.publish(
            &mut rig.s_conn,
            req,
            Object {
                group_id: 18,
                object_id: 0,
                payload: b"new dns response".to_vec().into(),
            },
        );
        assert!(ok);
        rig.run();
        let cev = rig.client_events();
        let got = cev
            .iter()
            .find_map(|e| match e {
                SessionEvent::SubscriptionObject { request_id, object }
                    if *request_id == sub_id =>
                {
                    Some(object.clone())
                }
                _ => None,
            })
            .expect("pushed object");
        assert_eq!(got.group_id, 18);
        assert_eq!(got.object_id, 0);
        assert_eq!(got.payload, b"new dns response");
    }

    #[test]
    fn a_stalled_session_delivers_its_queued_objects_in_order_once_credit_arrives() {
        // The peer grants two data streams at once; four updates are
        // published in one turn.
        let mut rig = Rig::with_transport(TransportConfig {
            max_streams: 2,
            ..TransportConfig::default()
        });
        let sub_id = rig.client.subscribe(&mut rig.c_conn, track());
        rig.run();
        let req = rig
            .server_events()
            .iter()
            .find_map(|e| match e {
                SessionEvent::IncomingSubscribe { request_id, .. } => Some(*request_id),
                _ => None,
            })
            .expect("incoming subscribe");
        rig.server.accept_subscribe(&mut rig.s_conn, req, None);
        rig.run();
        rig.client_events();
        let idle = rig.server.send_backlog_bytes(&rig.s_conn);
        let update = |group_id: u64| Object {
            group_id,
            object_id: 0,
            payload: vec![group_id as u8; 40].into(),
        };
        for group_id in 1..=4 {
            assert!(rig.server.publish(&mut rig.s_conn, req, update(group_id)));
        }
        assert_eq!(
            rig.server.flight().stalled.len(),
            2,
            "two went out, two wait"
        );
        let waiting = rig.server.send_backlog_bytes(&rig.s_conn) - rig.s_conn.send_backlog_bytes();
        assert_eq!(
            waiting,
            2 * (STREAM_BACKLOG_CHARGE + rig.server.flight().stalled[0].len()),
            "and count"
        );
        rig.run();
        let delivered: Vec<u64> = rig
            .client_events()
            .into_iter()
            .filter_map(|e| match e {
                SessionEvent::SubscriptionObject { request_id, object } if request_id == sub_id => {
                    Some(object.group_id)
                }
                _ => None,
            })
            .collect();
        assert_eq!(delivered, [1, 2, 3, 4], "every update, in order");
        assert!(rig.server.flight().stalled.is_empty());
        assert_eq!(rig.server.send_backlog_bytes(&rig.s_conn), idle);
        assert!(rig.server_events().is_empty(), "nothing refused");

        // Objects waiting for a subscription the peer drops go with it.
        for group_id in 5..=7 {
            rig.server.publish(&mut rig.s_conn, req, update(group_id));
        }
        assert_eq!(rig.server.flight().stalled.len(), 1);
        let unsubscribe = ControlMessage::Unsubscribe { request_id: req };
        rig.server.transition(SessionInput::Control(unsubscribe));
        assert!(rig.server.flight().stalled.is_empty());
    }

    #[test]
    fn a_peer_that_withholds_credit_holds_two_windows_of_our_streams() {
        // The peer grants two data streams at once, then acknowledges
        // every packet and reads no stream — it never grants more — while
        // it keeps fetching.
        let mut rig = Rig::with_transport(TransportConfig {
            max_streams: 2,
            ..TransportConfig::default()
        });
        rig.client_events();
        rig.server_events();
        rig.client_reads = false;
        const FETCHES: usize = 12;
        let (mut refused, mut held) = (0, Vec::new());
        for _ in 0..FETCHES {
            rig.client.fetch(&mut rig.c_conn, track(), 0, 1);
            rig.run();
            for e in rig.server_events() {
                if let SessionEvent::IncomingFetch { request_id, .. } = e {
                    let answer = Object {
                        group_id: 1,
                        object_id: 0,
                        payload: vec![7; 40].into(),
                    };
                    let objects = vec![answer];
                    rig.server
                        .respond_fetch(&mut rig.s_conn, request_id, (1, 0), objects);
                }
            }
            rig.run();
            let events = rig.server_events();
            let limit = SessionEvent::Refused(Reason::StreamLimit);
            refused += events.iter().filter(|&e| *e == limit).count();
            held.push((
                rig.server.state_size_estimate() + rig.s_conn.state_size_estimate(),
                rig.server.send_backlog_bytes(&rig.s_conn),
            ));
        }
        assert_eq!(
            rig.s_conn.state_breakdown().0,
            1,
            "two answers went out and were acknowledged: the control stream is left"
        );
        assert_eq!(rig.server.flight().stalled.len(), 2, "two wait for credit");
        assert_eq!(refused, FETCHES - 4, "every later one is refused");
        let (first, rest) = (held[4], &held[5..]);
        assert!(rest.iter().all(|&h| h == first), "{held:?}");
        assert!(rig.server.is_ready(), "nothing poisoned");
    }

    #[test]
    fn joining_fetch_returns_current_version() {
        let mut rig = Rig::new();
        rig.client_events();
        rig.server_events();

        let (sub_id, fetch_id) =
            rig.client
                .subscribe_with_joining_fetch(&mut rig.c_conn, track(), 1);
        rig.run();
        let sev = rig.server_events();
        let sub_req = sev
            .iter()
            .find_map(|e| match e {
                SessionEvent::IncomingSubscribe { request_id, .. } => Some(*request_id),
                _ => None,
            })
            .unwrap();
        let (fetch_req, kind) = sev
            .iter()
            .find_map(|e| match e {
                SessionEvent::IncomingFetch { request_id, kind } => {
                    Some((*request_id, kind.clone()))
                }
                _ => None,
            })
            .unwrap();
        match kind {
            IncomingFetchKind::Joining {
                joining_request_id,
                offset,
                track: tr,
            } => {
                assert_eq!(joining_request_id, sub_req);
                assert_eq!(offset, 1);
                assert_eq!(tr, track());
            }
            other => panic!("{other:?}"),
        }

        // Server: accept subscription at version 5, answer fetch with v5.
        rig.server
            .accept_subscribe(&mut rig.s_conn, sub_req, Some((5, 0)));
        rig.server.respond_fetch(
            &mut rig.s_conn,
            fetch_req,
            (5, 0),
            vec![Object {
                group_id: 5,
                object_id: 0,
                payload: b"current record".to_vec().into(),
            }],
        );
        rig.run();
        let cev = rig.client_events();
        assert!(cev.iter().any(
            |e| matches!(e, SessionEvent::SubscribeAccepted { request_id, .. } if *request_id == sub_id)
        ));
        assert!(cev.iter().any(
            |e| matches!(e, SessionEvent::FetchAccepted { request_id, largest: (5, 0) } if *request_id == fetch_id)
        ));
        let objs = cev
            .iter()
            .find_map(|e| match e {
                SessionEvent::FetchObjects {
                    request_id,
                    objects,
                } if *request_id == fetch_id => Some(objects.clone()),
                _ => None,
            })
            .expect("fetch objects");
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0].group_id, 5);
        assert_eq!(objs[0].payload, b"current record");
    }

    #[test]
    fn subscribe_rejection_surfaces() {
        let mut rig = Rig::new();
        rig.client_events();
        rig.server_events();
        let sub_id = rig.client.subscribe(&mut rig.c_conn, track());
        rig.run();
        let req = rig
            .server_events()
            .iter()
            .find_map(|e| match e {
                SessionEvent::IncomingSubscribe { request_id, .. } => Some(*request_id),
                _ => None,
            })
            .unwrap();
        rig.server
            .reject_subscribe(&mut rig.s_conn, req, 0x4, "no MoQT upstream");
        rig.run();
        let cev = rig.client_events();
        assert!(cev.iter().any(|e| matches!(
            e,
            SessionEvent::SubscribeRejected { request_id, code: 0x4, reason }
            if *request_id == sub_id && reason == "no MoQT upstream"
        )));
        assert_eq!(rig.client.subscription_count(), 0);
    }

    #[test]
    fn unsubscribe_notifies_publisher() {
        let mut rig = Rig::new();
        rig.client_events();
        rig.server_events();
        let sub_id = rig.client.subscribe(&mut rig.c_conn, track());
        rig.run();
        let req = rig
            .server_events()
            .iter()
            .find_map(|e| match e {
                SessionEvent::IncomingSubscribe { request_id, .. } => Some(*request_id),
                _ => None,
            })
            .unwrap();
        rig.server.accept_subscribe(&mut rig.s_conn, req, None);
        rig.run();
        rig.client_events();

        rig.client.unsubscribe(&mut rig.c_conn, sub_id);
        rig.run();
        let sev = rig.server_events();
        assert!(sev.iter().any(
            |e| matches!(e, SessionEvent::PeerUnsubscribed { request_id } if *request_id == req)
        ));
        assert_eq!(rig.server.peer_subscription_count(), 0);
        // Publishing to a dead subscription fails.
        assert!(!rig.server.publish(
            &mut rig.s_conn,
            req,
            Object {
                group_id: 1,
                object_id: 0,
                payload: vec![].into()
            }
        ));
    }

    #[test]
    fn subscribe_done_ends_subscription() {
        let mut rig = Rig::new();
        rig.client_events();
        rig.server_events();
        let sub_id = rig.client.subscribe(&mut rig.c_conn, track());
        rig.run();
        let req = rig
            .server_events()
            .iter()
            .find_map(|e| match e {
                SessionEvent::IncomingSubscribe { request_id, .. } => Some(*request_id),
                _ => None,
            })
            .unwrap();
        rig.server.accept_subscribe(&mut rig.s_conn, req, None);
        rig.run();
        rig.client_events();
        rig.server
            .subscribe_done(&mut rig.s_conn, req, 0, "zone gone");
        rig.run();
        let cev = rig.client_events();
        assert!(cev.iter().any(|e| matches!(
            e,
            SessionEvent::SubscriptionEnded { request_id, .. } if *request_id == sub_id
        )));
        assert_eq!(rig.client.subscription_count(), 0);
    }

    #[test]
    fn fetch_rejection_surfaces() {
        let mut rig = Rig::new();
        rig.client_events();
        rig.server_events();
        let fetch_id = rig.client.fetch(&mut rig.c_conn, track(), 1, 5);
        rig.run();
        let req = rig
            .server_events()
            .iter()
            .find_map(|e| match e {
                SessionEvent::IncomingFetch { request_id, .. } => Some(*request_id),
                _ => None,
            })
            .unwrap();
        rig.server
            .reject_fetch(&mut rig.s_conn, req, 0x5, "no such track");
        rig.run();
        let cev = rig.client_events();
        assert!(cev.iter().any(|e| matches!(
            e,
            SessionEvent::FetchRejected { request_id, .. } if *request_id == fetch_id
        )));
    }

    #[test]
    fn an_open_end_comes_back_from_the_varint_ceiling() {
        // Both fetches carry MAX_VARINT as their end group on the wire;
        // the receiver sees the open end the sender meant.
        let mut rig = Rig::new();
        rig.client_events();
        rig.server_events();
        rig.client.fetch(&mut rig.c_conn, track(), 2, u64::MAX);
        rig.client
            .fetch_peer(&mut rig.c_conn, track(), 0, MAX_VARINT, 3);
        rig.run();
        let kinds: Vec<IncomingFetchKind> = rig
            .server_events()
            .into_iter()
            .filter_map(|e| match e {
                SessionEvent::IncomingFetch { kind, .. } => Some(kind),
                _ => None,
            })
            .collect();
        let open = |start_group, hop_budget| IncomingFetchKind::StandAlone {
            track: track(),
            start_group,
            end_group: u64::MAX,
            hop_budget,
        };
        assert_eq!(kinds, [open(2, None), open(0, Some(3))]);
    }

    #[test]
    fn joining_fetch_for_unknown_subscription_rejected() {
        let mut rig = Rig::new();
        rig.client_events();
        rig.server_events();
        // Forge a joining fetch with a bogus joining id.
        let fetch_id = {
            let id = rig.client.alloc_request_id();
            rig.client.held().my_fetches.insert(id);
            let msg = ControlMessage::Fetch {
                request_id: id,
                fetch: FetchType::RelativeJoining {
                    joining_request_id: 999,
                    joining_start: 1,
                },
            };
            rig.client.send_control(&mut rig.c_conn, &msg);
            id
        };
        rig.run();
        let cev = rig.client_events();
        assert!(cev.iter().any(|e| matches!(
            e,
            SessionEvent::FetchRejected { request_id, .. } if *request_id == fetch_id
        )));
    }

    #[test]
    fn datagram_objects_for_ablation() {
        let mut rig = Rig::new();
        rig.client_events();
        rig.server_events();
        let sub_id = rig.client.subscribe(&mut rig.c_conn, track());
        rig.run();
        let req = rig
            .server_events()
            .iter()
            .find_map(|e| match e {
                SessionEvent::IncomingSubscribe { request_id, .. } => Some(*request_id),
                _ => None,
            })
            .unwrap();
        rig.server.accept_subscribe(&mut rig.s_conn, req, None);
        rig.run();
        rig.client_events();
        assert!(rig.server.publish_datagram(
            &mut rig.s_conn,
            req,
            Object {
                group_id: 3,
                object_id: 0,
                payload: b"dg".to_vec().into()
            }
        ));
        rig.run();
        let cev = rig.client_events();
        assert!(cev.iter().any(|e| matches!(
            e,
            SessionEvent::SubscriptionObject { request_id, object }
            if *request_id == sub_id && object.payload == b"dg"
        )));
    }

    #[test]
    fn state_size_grows_with_subscriptions() {
        let mut rig = Rig::new();
        rig.client_events();
        rig.server_events();
        let base = rig.client.state_size_estimate();
        for _ in 0..10 {
            rig.client.subscribe(&mut rig.c_conn, track());
        }
        assert!(rig.client.state_size_estimate() > base);
        assert_eq!(rig.client.subscription_count(), 10);
    }

    // ------------------------------------------------------------------
    // Hardening: poisoning, buffer bounds, dropped-datagram accounting
    // ------------------------------------------------------------------

    #[test]
    fn garbage_control_bytes_poison_session() {
        let mut rig = Rig::new();
        rig.client_events();
        rig.server_events();
        // Raw garbage on the control stream: an unknown message type.
        rig.client.inject_raw_control(&mut rig.c_conn, &[0xff; 32]);
        rig.run();
        let sev = rig.server_events();
        let violations = sev
            .iter()
            .filter(|e| matches!(e, SessionEvent::ProtocolViolation(_)));
        assert_eq!(violations.count(), 1);
        assert_eq!(rig.server.state(), SessionState::Closed);
        assert!(!rig.server.is_ready());
        // A poisoned session stays closed: further legal traffic is inert.
        rig.client.subscribe(&mut rig.c_conn, track());
        rig.run();
        assert!(rig.server_events().is_empty());
        assert_eq!(rig.server.state(), SessionState::Closed);
    }

    #[test]
    fn control_buffer_overflow_poisons_session() {
        let cfg = SessionConfig {
            max_control_buffer: 64,
            ..Default::default()
        };
        let alpn = moqdns_quic::alpn_list(&[crate::MOQT_ALPN]);
        let mut c_conn =
            Connection::client(1, TransportConfig::default(), alpn.clone(), None, t(0));
        let s_conn = Connection::server(1, TransportConfig::default(), alpn, 7, t(0));
        let mut client = Session::client(SessionConfig::default());
        client.start(&mut c_conn);
        let mut rig = Rig {
            c_conn,
            s_conn,
            client,
            server: Session::server(cfg),
            now: t(0),
            client_reads: true,
        };
        rig.run();
        rig.client_events();
        rig.server_events();
        assert!(rig.server.is_ready());
        // A length prefix promising a large message that never completes:
        // type 0x03 (SUBSCRIBE), claimed length 4096, then padding bytes
        // that keep the message incomplete while the buffer grows.
        let mut junk = vec![0x03, 0x50, 0x00]; // varint type + 2-byte varint len 4096
        junk.extend_from_slice(&[0xaa; 200]);
        rig.client.inject_raw_control(&mut rig.c_conn, &junk);
        rig.run();
        let sev = rig.server_events();
        assert!(sev
            .iter()
            .any(|e| matches!(e, SessionEvent::ProtocolViolation(Reason::ControlOverflow))));
        assert_eq!(rig.server.state(), SessionState::Closed);
    }

    #[test]
    fn unknown_alias_datagram_counted_not_fatal() {
        let mut rig = Rig::new();
        rig.client_events();
        rig.server_events();
        // The server pushes a datagram for an alias the client never
        // subscribed: counted, dropped, session stays live.
        let dg = ObjectDatagram {
            track_alias: 999,
            object: Object {
                group_id: 1,
                object_id: 0,
                payload: b"spoof".to_vec().into(),
            },
        };
        rig.s_conn.send_datagram(dg.encode()).unwrap();
        rig.run();
        assert_eq!(rig.client_events(), [SessionEvent::DatagramDropped]);
        assert_eq!(rig.client.state(), SessionState::Ready);
        // Malformed datagram bytes count too.
        rig.s_conn.send_datagram(vec![0xff, 0x01]).unwrap();
        rig.run();
        assert_eq!(rig.client_events(), [SessionEvent::DatagramDropped]);
        assert_eq!(rig.client.state(), SessionState::Ready);
    }

    #[test]
    fn goaway_drains_then_drain_timeout_closes() {
        let mut rig = Rig::new();
        rig.client_events();
        rig.server_events();
        // Server asks the client to move.
        rig.server
            .send_control(&mut rig.s_conn, &ControlMessage::GoAway { uri: "x".into() });
        rig.run();
        let cev = rig.client_events();
        assert!(cev
            .iter()
            .any(|e| matches!(e, SessionEvent::GoAway { uri } if uri == "x")));
        assert_eq!(rig.client.state(), SessionState::Draining);
        // Draining still counts as usable.
        assert!(rig.client.is_ready());
        // New incoming subscribes are refused while draining: the server
        // subscribes to the client (role reversal is legal in MoQT).
        let sub_id = rig.server.subscribe(&mut rig.s_conn, track());
        rig.run();
        let sev = rig.server_events();
        assert!(sev.iter().any(|e| matches!(
            e,
            SessionEvent::SubscribeRejected { request_id, code, .. }
            if *request_id == sub_id && *code == ERR_DRAINING
        )));
        // The drain timer closes the session.
        let outs = rig.client.transition(SessionInput::DrainTimeout);
        assert_eq!(
            outs,
            vec![SessionOutput::Close {
                code: CLOSE_DRAINED,
                reason: Reason::Drained
            }]
        );
        assert_eq!(rig.client.state(), SessionState::Closed);
    }

    #[test]
    fn request_before_setup_poisons() {
        // A server session that receives SUBSCRIBE before CLIENT_SETUP.
        let mut server = Session::server(SessionConfig::default());
        let outs = server.transition(SessionInput::ControlStreamOpened(StreamId::new(
            true,
            Dir::Bi,
            0,
        )));
        assert!(outs.is_empty());
        assert_eq!(server.state(), SessionState::Handshaking);
        let outs = server.transition(SessionInput::Control(ControlMessage::Subscribe {
            request_id: 0,
            track_alias: 0,
            track: track(),
            filter: FilterType::LatestObject,
        }));
        assert!(outs
            .iter()
            .any(|o| matches!(o, SessionOutput::Event(SessionEvent::ProtocolViolation(_)))));
        assert!(outs
            .iter()
            .any(|o| matches!(o, SessionOutput::Close { .. })));
        assert_eq!(server.state(), SessionState::Closed);
    }

    #[test]
    fn duplicate_subscribe_request_id_poisons() {
        let mut rig = Rig::new();
        rig.client_events();
        rig.server_events();
        // Two SUBSCRIBEs forged with the same request id.
        for _ in 0..2 {
            let msg = ControlMessage::Subscribe {
                request_id: 42,
                track_alias: 42,
                track: track(),
                filter: FilterType::LatestObject,
            };
            rig.client.send_control(&mut rig.c_conn, &msg);
        }
        rig.run();
        let sev = rig.server_events();
        assert!(sev.iter().any(|e| matches!(
            e,
            SessionEvent::ProtocolViolation(Reason::DuplicateSubscribeId)
        )));
        assert_eq!(rig.server.state(), SessionState::Closed);
    }

    #[test]
    fn peer_subscriptions_in_hostile_id_order_stay_cheap() {
        // The peer picks its request ids; `MAX_PEER_SUBSCRIPTIONS` bounds
        // how many it holds. A bound's worth, highest id first, then
        // withdrawn lowest id first: every insert and every remove is at
        // the front of the vector, and moves every entry behind it — at
        // most a bound's worth, a few hundred KB, each time: tens of
        // milliseconds in all, far inside the time bound below.
        let cap = MAX_PEER_SUBSCRIPTIONS as u64;
        let subscribe = |id: u64| {
            SessionInput::Control(ControlMessage::Subscribe {
                request_id: id * 2,
                track_alias: id,
                track: track(),
                filter: FilterType::LatestObject,
            })
        };
        let mut rig = Rig::new();
        let started = std::time::Instant::now();
        for id in (1..=cap).rev() {
            let out = rig.server.transition(subscribe(id));
            assert!(matches!(
                out[..],
                [SessionOutput::Event(SessionEvent::IncomingSubscribe { .. })]
            ));
        }
        assert_eq!(rig.server.peer_subscription_count(), cap as usize);
        // One past the bound is refused, answered and counted; the
        // session goes on.
        let out = rig.server.transition(subscribe(0));
        assert_eq!(
            out,
            [
                SessionOutput::Send(ControlMessage::SubscribeError {
                    request_id: 0,
                    code: ERR_TOO_MANY_SUBSCRIPTIONS,
                    reason: Reason::SubscriptionLimit.as_str().to_string(),
                }),
                SessionOutput::Event(SessionEvent::Refused(Reason::SubscriptionLimit)),
            ]
        );
        assert!(rig.server.is_ready());
        assert_eq!(rig.server.peer_subscription_count(), cap as usize);
        let peak = rig.server.peer_subs.heap_bytes();
        for id in 1..=cap {
            let unsubscribe = ControlMessage::Unsubscribe { request_id: id * 2 };
            rig.server.transition(SessionInput::Control(unsubscribe));
        }
        let took = started.elapsed();
        assert_eq!(rig.server.peer_subscription_count(), 0);
        assert!(
            rig.server.peer_subs.heap_bytes() <= peak / 64,
            "an emptied table does not pin the bound's storage"
        );
        assert!(
            took < std::time::Duration::from_secs(2),
            "{cap} descending subscribes and their withdrawal took {took:?}"
        );
        // With room again, the refused id subscribes.
        let out = rig.server.transition(subscribe(0));
        assert!(matches!(
            out[..],
            [SessionOutput::Event(SessionEvent::IncomingSubscribe { .. })]
        ));
    }
}
