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
//! ([`SessionInput::ControlOverflow`]), a second bidirectional stream and
//! malformed data streams poison in every live state. Malformed or
//! unknown-alias *datagrams* never poison (they are unauthenticated noise
//! and an honest unsubscribe race produces them) — they are counted in
//! [`SessionStats::dropped_datagrams`] instead. A data stream refused on
//! the *sending* side poisons nothing either: it surfaces as
//! [`SessionEvent::DataRefused`] ([`Reason::StreamLimit`],
//! [`Reason::FlowControl`]) for the driver to count.
//!
//! # Data streams wait for stream credit
//!
//! One object is one unidirectional stream, and the peer grants those a
//! window at a time (`moqdns_quic::connection` module docs). A stream the
//! window has no room for is not refused: its encoded bytes wait in the
//! session's stall queue, in the order they were published, each entry
//! tagged with the subscription it carries an object of, and go out when
//! the connection raises `StreamsAvailable`. Whatever is queued behind a
//! stalled stream queues too, so the peer sees objects in publish order.
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
//! | `Handshaking`, unknown | CLIENT_SETUP; requests are held back until SERVER_SETUP (strict draft-12: the paper's 3 RTT) | nothing |
//! | `Handshaking`, known from the token | CLIENT_SETUP, then requests straight behind it — same flight | nothing: SERVER_SETUP is its first message, and takes it to `Ready` |
//! | `Ready`/`Draining` | everything                             | everything; what it asked for before CLIENT_SETUP arrived goes out right behind SERVER_SETUP |
//!
//! The version becomes known from [`SessionInput::AlpnVersion`] — raised
//! by [`Session::on_conn_event`] for `Connected { alpn, .. }`, and by
//! [`Session::start`] when the connection already has a token (it is
//! established, or it resumes with a ticket issued under one) — or, failing
//! that, from SERVER_SETUP. The held-back queue is released by whichever
//! comes first. The stream is ordered, so a server always reads
//! CLIENT_SETUP before the requests behind it and answers SERVER_SETUP
//! before their replies: the receive side of the table above is the same
//! under either token, and a reply that overtakes SERVER_SETUP still
//! poisons. SETUP stays on the wire and must agree with the token: a
//! CLIENT_SETUP that does not list the token's version, or a SERVER_SETUP
//! that selects another, poisons with a reason that says so.
//!
//! Protocol shape (draft-12 subset):
//!
//! * all control messages flow on the **first client-initiated
//!   bidirectional stream** (the control stream, paper §3);
//! * the version rides in the **ALPN token**, so a cold first lookup is
//!   QUIC handshake + one flight carrying CLIENT_SETUP, SUBSCRIBE and the
//!   joining FETCH — 2 RTT, not the 3 of handshake + SETUP + request (the
//!   third optimization of paper §5.2);
//! * with a resumption ticket that whole flight rides **0-RTT** — 1 RTT
//!   (the second optimization of §5.2 on top of the third). Rejected
//!   early data is retransmitted as 1-RTT data by the connection; stream
//!   offsets make the peer read each request once;
//! * objects travel on unidirectional subgroup/fetch streams, one group per
//!   stream (or datagrams, for the ablation);
//! * **joining fetch** (§4.1): SUBSCRIBE with the latest-object filter plus
//!   a relative FETCH with offset 1 retrieves the current record version
//!   while future updates arrive via the subscription.

use crate::data::{
    decode_data_stream, encode_fetch_stream_into, encode_subgroup_stream_into, DataStream, Object,
    ObjectDatagram, SubgroupHeader,
};
use crate::message::{ControlMessage, FetchType, FilterType};
use crate::reason::Reason;
use crate::track::FullTrackName;
use moqdns_quic::connection::STREAM_BACKLOG_CHARGE;
use moqdns_quic::{Connection, ConnectionError, Dir, Event as QuicEvent, StreamId};
use moqdns_wire::pool::with_scratch;
use moqdns_wire::{btree_heap_bytes, queue, VecMap, VecSet};
use std::collections::{BTreeMap, VecDeque};

/// QUIC close code used when a session is poisoned by a violation.
pub const CLOSE_PROTOCOL_VIOLATION: u64 = 0x3;
/// QUIC close code used when a draining session's timer expires.
pub const CLOSE_DRAINED: u64 = 0x0;
/// SUBSCRIBE_ERROR / FETCH_ERROR code for requests refused while draining.
pub const ERR_DRAINING: u64 = 0x6;

/// Session-level configuration.
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

counters! {
    /// Hardening counters a session keeps about its peer's behavior.
    pub struct SessionStats {
        /// Protocol violations observed (each one poisons the session).
        violations = "violations",
        /// Datagrams dropped: malformed, or carrying an unknown track alias.
        dropped_datagrams = "dropped dg",
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
        /// Last group (inclusive).
        end_group: u64,
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
    /// Federation fetch from a peer relay core, carrying the remaining
    /// hop budget (see [`crate::message::FetchType::Peer`]).
    Peer {
        /// The fetched track.
        track: FullTrackName,
        /// First group.
        start_group: u64,
        /// Last group (inclusive).
        end_group: u64,
        /// Core-to-core forwards this fetch may still take.
        hop_budget: u64,
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
    /// A data stream this side would have sent was refused — a window of
    /// streams already waits for the peer's credit
    /// ([`Reason::StreamLimit`]) — or was cut short
    /// ([`Reason::FlowControl`]): the object a [`Session::publish`] or
    /// [`Session::respond_fetch`] carried is lost to the peer.
    DataRefused(Reason),
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
    /// The encoded stream.
    bytes: Vec<u8>,
}

/// Writes `bytes` to stream `id` until done or the stream stops taking
/// them (flow-control stall or closed connection). True if all went out.
fn write_all(conn: &mut Connection, id: StreamId, bytes: &[u8]) -> bool {
    let mut off = 0;
    while off < bytes.len() {
        match conn.send_stream(id, &bytes[off..]) {
            Ok(0) | Err(_) => return false,
            Ok(n) => off += n,
        }
    }
    true
}

/// A MoQT session over one QUIC connection.
pub struct Session {
    is_client: bool,
    config: SessionConfig,
    state: SessionState,
    control_stream: Option<StreamId>,
    control_rx: Vec<u8>,
    version: Option<u64>,
    next_request_id: u64,
    /// Our subscriptions, by request id — which is also the track alias
    /// each asked the publisher to stamp on its objects.
    my_subs: VecSet<u64>,
    /// A B-tree, not a [`VecMap`]: the peer picks the request ids and how
    /// many subscriptions it holds. Boxed so the eleven-slot leaf a stub's
    /// single subscription pays for is 192 bytes, not 808.
    peer_subs: BTreeMap<u64, Box<PeerSub>>,
    my_fetches: VecSet<u64>,
    data_rx: VecMap<StreamId, Vec<u8>>,
    events: VecDeque<SessionEvent>,
    /// Requests held back until the version is known.
    queued_control: Vec<ControlMessage>,
    /// Data streams waiting for stream credit, in publish order.
    stalled: VecDeque<Stalled>,
    stats: SessionStats,
}

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
        Session {
            is_client,
            config,
            state: SessionState::Init,
            control_stream: None,
            control_rx: Vec::new(),
            version: None,
            next_request_id: if is_client { 0 } else { 1 },
            my_subs: VecSet::new(),
            peer_subs: BTreeMap::new(),
            my_fetches: VecSet::new(),
            data_rx: VecMap::new(),
            events: VecDeque::new(),
            queued_control: Vec::new(),
            stalled: VecDeque::new(),
            stats: SessionStats::default(),
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// True once SETUP completed in both directions (and the session has
    /// not been closed or poisoned). A draining session is still usable.
    pub fn is_ready(&self) -> bool {
        matches!(self.state, SessionState::Ready | SessionState::Draining)
    }

    /// Hardening counters (violations, dropped datagrams).
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The session's version, once known: from the ALPN token before
    /// SETUP completes, from SETUP otherwise.
    pub fn version(&self) -> Option<u64> {
        self.version
    }

    /// Number of live subscriptions we hold (subscriber side).
    pub fn subscription_count(&self) -> usize {
        self.my_subs.len()
    }

    /// Number of live subscriptions peers hold on us (publisher side).
    pub fn peer_subscription_count(&self) -> usize {
        self.peer_subs.len()
    }

    /// Bytes of session state held (paper §5.1 overhead accounting): the
    /// struct plus the backing storage — capacity, not length — of every
    /// table, buffer and queue it owns.
    pub fn state_size_estimate(&self) -> usize {
        let tracks = self
            .peer_subs
            .values()
            .map(|s| s.track.heap_bytes())
            .sum::<usize>();
        std::mem::size_of::<Session>()
            + self.my_subs.heap_bytes()
            + btree_heap_bytes::<u64, Box<PeerSub>>(self.peer_subs.len())
            + self.peer_subs.len() * std::mem::size_of::<PeerSub>()
            + self.my_fetches.heap_bytes()
            + tracks
            + self.control_rx.capacity()
            + self.data_rx.heap_bytes()
            + self.data_rx.values().map(Vec::capacity).sum::<usize>()
            + self.events.capacity() * std::mem::size_of::<SessionEvent>()
            + self.queued_control.capacity() * std::mem::size_of::<ControlMessage>()
            + self.stalled.capacity() * std::mem::size_of::<Stalled>()
            + self
                .stalled
                .iter()
                .map(|s| s.bytes.capacity())
                .sum::<usize>()
            + self.config.versions.capacity() * std::mem::size_of::<u64>()
    }

    /// Bytes this side holds for the peer and has not had acknowledged:
    /// the connection's send backlog plus the streams waiting for credit,
    /// each charged like a stream in flight. What a relay bounds per
    /// session.
    pub fn send_backlog_bytes(&self, conn: &Connection) -> usize {
        let stalled: usize = self
            .stalled
            .iter()
            .map(|s| STREAM_BACKLOG_CHARGE + s.bytes.len())
            .sum();
        conn.send_backlog_bytes() + stalled
    }

    fn alloc_request_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 2;
        id
    }

    /// Starts the session. Clients open the control stream and send
    /// CLIENT_SETUP immediately — with a resumption ticket this rides
    /// 0-RTT, and when the connection already has a versioned token so do
    /// the requests behind it.
    pub fn start(&mut self, conn: &mut Connection) {
        if self.is_client && self.state == SessionState::Init && self.control_stream.is_none() {
            let id = conn.open_stream(Dir::Bi).expect("control stream");
            self.control_stream = Some(id);
            self.state = SessionState::Handshaking;
            let setup = ControlMessage::ClientSetup {
                versions: self.config.versions.clone(),
                max_request_id: self.config.max_request_id,
            };
            self.send_control(conn, &setup);
            if let Some(input) = conn.alpn().and_then(|alpn| self.alpn_input(alpn)) {
                let outs = self.transition(input);
                self.apply(conn, outs);
            }
        }
    }

    /// The input an ALPN token amounts to: none when it names no version,
    /// or one this session does not speak (then SETUP decides, as before
    /// the token carried anything).
    fn alpn_input(&self, alpn: &[u8]) -> Option<SessionInput> {
        crate::alpn_version(alpn)
            .filter(|v| self.config.versions.contains(v))
            .map(SessionInput::AlpnVersion)
    }

    /// Sends a request message, holding it back while the version is not
    /// yet known (module docs, "what a state may send"). A closed (or
    /// poisoned) session drops requests on the floor.
    fn send_request(&mut self, conn: &mut Connection, msg: ControlMessage) {
        match self.state {
            SessionState::Ready | SessionState::Draining => self.send_control(conn, &msg),
            SessionState::Handshaking if self.is_client && self.version.is_some() => {
                self.send_control(conn, &msg)
            }
            SessionState::Init | SessionState::Handshaking => self.queued_control.push(msg),
            SessionState::Closed => {}
        }
    }

    fn send_control(&mut self, conn: &mut Connection, msg: &ControlMessage) {
        let Some(cs) = self.control_stream else {
            self.events
                .push_back(SessionEvent::ProtocolViolation(Reason::NoControlStream));
            return;
        };
        with_scratch(|w| {
            with_scratch(|body| msg.encode_into(w, body));
            // A flow-control stall drops the rest (tiny messages never
            // hit it).
            write_all(conn, cs, w.as_slice());
        });
    }

    /// Adversarial-drill hook: writes raw bytes straight onto the control
    /// stream, bypassing message framing entirely. Honest code never calls
    /// this — the byzantine netsim nodes use it to feed peers garbage and
    /// verify they poison the session rather than resynchronize.
    pub fn inject_raw_control(&mut self, conn: &mut Connection, bytes: &[u8]) {
        if let Some(cs) = self.control_stream {
            write_all(conn, cs, bytes);
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
        let fetch_id = self.alloc_request_id();
        self.my_fetches.insert(fetch_id);
        let msg = ControlMessage::Fetch {
            request_id: fetch_id,
            fetch: FetchType::RelativeJoining {
                joining_request_id: sub_id,
                joining_start: offset,
            },
        };
        self.send_request(conn, msg);
        (sub_id, fetch_id)
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
        // Group ids live in varint space (≤ 2^62-1); clamp open-ended
        // ranges callers express with u64::MAX.
        let start_group = start_group.min(moqdns_wire::varint::MAX_VARINT);
        let end_group = end_group.min(moqdns_wire::varint::MAX_VARINT);
        let request_id = self.alloc_request_id();
        self.my_fetches.insert(request_id);
        let msg = ControlMessage::Fetch {
            request_id,
            fetch: FetchType::StandAlone {
                track,
                start_group,
                start_object: 0,
                end_group,
            },
        };
        self.send_request(conn, msg);
        request_id
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
        let start_group = start_group.min(moqdns_wire::varint::MAX_VARINT);
        let end_group = end_group.min(moqdns_wire::varint::MAX_VARINT);
        let request_id = self.alloc_request_id();
        self.my_fetches.insert(request_id);
        let msg = ControlMessage::Fetch {
            request_id,
            fetch: FetchType::Peer {
                track,
                start_group,
                end_group,
                hop_budget,
            },
        };
        self.send_request(conn, msg);
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
    /// stream (§4.1: streams, never datagrams, for reliability). True if
    /// it went out or waits for stream credit (module docs).
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
            encode_subgroup_stream_into(w, &header, &[object]);
            self.send_on_new_uni_stream(conn, Some(request_id), w.as_slice())
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
            encode_fetch_stream_into(w, request_id, &objects);
            self.send_on_new_uni_stream(conn, None, w.as_slice());
        });
    }

    /// Sends `bytes` as one data stream — one group, or one fetch
    /// response — or, when the peer's stream window has no room or
    /// streams already wait for it, queues them behind those (module
    /// docs). False if the stream was refused or cut short, or the
    /// connection is closed.
    fn send_on_new_uni_stream(
        &mut self,
        conn: &mut Connection,
        subscription: Option<u64>,
        bytes: &[u8],
    ) -> bool {
        if self.stalled.is_empty() {
            match conn.open_stream(Dir::Uni) {
                Ok(sid) => return self.write_data_stream(conn, sid, bytes),
                Err(ConnectionError::StreamLimit) => {}
                // Closed: the connection's own `Closed` event says so.
                Err(_) => return false,
            }
        } else if conn.is_closed() {
            return false;
        }
        if self.stalled.len() as u64 >= conn.max_streams() {
            // A window waits already: the peer is not granting credit.
            let refused = SessionEvent::DataRefused(Reason::StreamLimit);
            self.events.push_back(refused);
            return false;
        }
        let bytes = bytes.to_vec();
        self.stalled.push_back(Stalled {
            subscription,
            bytes,
        });
        true
    }

    /// Writes one data stream and finishes it. One the peer's
    /// flow-control window cuts short raises
    /// [`SessionEvent::DataRefused`] and returns false.
    fn write_data_stream(&mut self, conn: &mut Connection, sid: StreamId, bytes: &[u8]) -> bool {
        if write_all(conn, sid, bytes) {
            let _ = conn.finish_stream(sid);
            return true;
        }
        // The connection was open a line ago: the window is what is full.
        let refused = SessionEvent::DataRefused(Reason::FlowControl);
        self.events.push_back(refused);
        false
    }

    /// Sends the data streams that waited for credit, in order, for as
    /// long as the peer's window has room.
    fn send_stalled(&mut self, conn: &mut Connection) {
        while !self.stalled.is_empty() {
            let Ok(sid) = conn.open_stream(Dir::Uni) else {
                return;
            };
            let next = queue::pop_front(&mut self.stalled).expect("not empty");
            self.write_data_stream(conn, sid, &next.bytes);
        }
    }

    /// Drops the waiting objects of a peer subscription that ended.
    fn forget_stalled(&mut self, request_id: u64) {
        self.stalled.retain(|s| s.subscription != Some(request_id));
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
        queue::pop_front(&mut self.events)
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
                    SessionInput::ControlStreamOpened(*id)
                } else {
                    SessionInput::DataStreamOpened(*id)
                };
                let outs = self.transition(input);
                self.apply(conn, outs);
            }
            QuicEvent::StreamReadable { id } => {
                if Some(*id) == self.control_stream {
                    self.pump_control(conn);
                } else if self.data_rx.contains_key(id) {
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
                if let Some(input) = self.alpn_input(alpn) {
                    let outs = self.transition(input);
                    self.apply(conn, outs);
                }
            }
            QuicEvent::StreamsAvailable => self.send_stalled(conn),
            QuicEvent::TicketIssued(_) => {}
        }
    }

    /// [`Session::on_conn_event`] with the session events it raises
    /// appended to `sink` instead of queued here. For a driver that takes
    /// the events at once: it keeps one warm queue for all its sessions,
    /// and a session fed only this way never allocates one of its own.
    pub fn on_conn_event_into(
        &mut self,
        conn: &mut Connection,
        ev: &QuicEvent,
        sink: &mut VecDeque<SessionEvent>,
    ) {
        std::mem::swap(&mut self.events, sink);
        self.on_conn_event(conn, ev);
        std::mem::swap(&mut self.events, sink);
    }

    /// Applies a transition's outputs against the connection.
    fn apply(&mut self, conn: &mut Connection, outputs: Vec<SessionOutput>) {
        for out in outputs {
            match out {
                SessionOutput::Event(e) => self.events.push_back(e),
                SessionOutput::Send(msg) => self.send_control(conn, &msg),
                SessionOutput::Close { code, reason } => conn.close(code, reason.as_str()),
            }
        }
    }

    fn pump_control(&mut self, conn: &mut Connection) {
        let Some(cs) = self.control_stream else {
            return;
        };
        loop {
            if self.state == SessionState::Closed {
                return;
            }
            match conn.read_stream(cs, 65_536) {
                Ok((data, _fin)) if !data.is_empty() => {
                    if self.control_rx.len() + data.len() > self.config.max_control_buffer {
                        let outs = self.transition(SessionInput::ControlOverflow);
                        self.apply(conn, outs);
                        return;
                    }
                    self.control_rx.extend_from_slice(&data);
                }
                _ => break,
            }
        }
        loop {
            if self.state == SessionState::Closed {
                return;
            }
            match ControlMessage::decode(&self.control_rx) {
                Ok(Some((msg, used))) => {
                    queue::drain_front(&mut self.control_rx, used);
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
                    if let Some(buf) = self.data_rx.get_mut(&id) {
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
                    self.data_rx.remove(&id);
                    return;
                }
                Err(_) => break false,
            }
        };
        if !finished {
            return;
        }
        let Some(buf) = self.data_rx.remove(&id) else {
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
        self.stats.violations += 1;
        vec![
            SessionOutput::Event(SessionEvent::ProtocolViolation(reason)),
            SessionOutput::Close {
                code: CLOSE_PROTOCOL_VIOLATION,
                reason,
            },
        ]
    }

    /// The held-back requests, in the order they were issued.
    fn release_queued(&mut self) -> Vec<SessionOutput> {
        std::mem::take(&mut self.queued_control)
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
        match self.state {
            SessionState::Init => self.on_input_init(input),
            SessionState::Handshaking => self.on_input_handshaking(input),
            SessionState::Ready => self.on_input_live(input, false),
            SessionState::Draining => self.on_input_live(input, true),
            // Terminal and inert, whatever arrives.
            SessionState::Closed => Vec::new(),
        }
    }

    fn on_input_init(&mut self, input: SessionInput) -> Vec<SessionOutput> {
        match input {
            SessionInput::ControlStreamOpened(id) => {
                if self.is_client {
                    // Servers never open bidirectional streams in MoQT.
                    return self.poison(Reason::UnexpectedBidiStream);
                }
                self.control_stream = Some(id);
                self.state = SessionState::Handshaking;
                Vec::new()
            }
            SessionInput::DataStreamOpened(id) => {
                self.data_rx.insert(id, Vec::new());
                Vec::new()
            }
            SessionInput::DataSubgroup { .. }
            | SessionInput::DataFetch { .. }
            | SessionInput::MalformedData => self.poison(Reason::DataBeforeHandshake),
            SessionInput::Datagram(_) | SessionInput::MalformedDatagram => {
                self.stats.dropped_datagrams += 1;
                Vec::new()
            }
            SessionInput::MalformedControl => self.poison(Reason::BadControlMessage),
            SessionInput::ControlOverflow => self.poison(Reason::ControlOverflow),
            SessionInput::DrainTimeout => Vec::new(),
            SessionInput::AlpnVersion(v) => {
                self.version.get_or_insert(v);
                Vec::new()
            }
            SessionInput::Control(_) => self.poison(Reason::ControlBeforeHandshake),
        }
    }

    fn on_input_handshaking(&mut self, input: SessionInput) -> Vec<SessionOutput> {
        match input {
            SessionInput::ControlStreamOpened(_) => self.poison(Reason::DuplicateControlStream),
            SessionInput::DataStreamOpened(id) => {
                self.data_rx.insert(id, Vec::new());
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
                self.stats.dropped_datagrams += 1;
                Vec::new()
            }
            SessionInput::MalformedControl => self.poison(Reason::BadControlMessage),
            SessionInput::ControlOverflow => self.poison(Reason::ControlOverflow),
            SessionInput::DrainTimeout => Vec::new(),
            SessionInput::AlpnVersion(v) => {
                // The first source wins; a SETUP that disagrees poisons.
                self.version.get_or_insert(v);
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
                let v = match self.version {
                    // The token already chose; SETUP has to agree.
                    Some(v) if versions.contains(&v) => v,
                    Some(_) => return self.poison(Reason::SetupOmitsAlpnVersion),
                    // Select the highest version both sides support.
                    None => {
                        let ours = &self.config.versions;
                        match versions.iter().filter(|v| ours.contains(v)).max() {
                            Some(&v) => v,
                            None => return self.poison(Reason::NoCommonVersion),
                        }
                    }
                };
                self.state = SessionState::Ready;
                self.version = Some(v);
                // Requests this side issued while it waited go out behind
                // SERVER_SETUP, in the same flight.
                let queued = self.release_queued();
                let mut outs = Vec::with_capacity(2 + queued.len());
                outs.push(SessionOutput::Send(ControlMessage::ServerSetup {
                    version: v,
                    max_request_id: self.config.max_request_id,
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
                if !self.config.versions.contains(&version) {
                    return self.poison(Reason::UnofferedVersion);
                }
                if self.version.is_some_and(|v| v != version) {
                    return self.poison(Reason::SetupContradictsAlpn);
                }
                self.state = SessionState::Ready;
                self.version = Some(version);
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
                self.data_rx.insert(id, Vec::new());
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
                self.stats.dropped_datagrams += 1;
                Vec::new()
            }
            SessionInput::MalformedControl => self.poison(Reason::BadControlMessage),
            SessionInput::ControlOverflow => self.poison(Reason::ControlOverflow),
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
                self.peer_subs.insert(
                    request_id,
                    Box::new(PeerSub {
                        track: track.clone(),
                        track_alias,
                        accepted: false,
                    }),
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
                        end_group,
                    },
                    FetchType::Peer {
                        track,
                        start_group,
                        end_group,
                        hop_budget,
                    } => IncomingFetchKind::Peer {
                        track,
                        start_group,
                        end_group,
                        hop_budget,
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
                self.my_fetches.remove(&request_id);
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
        if !self.my_fetches.remove(&request_id) {
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
            self.stats.dropped_datagrams += 1;
            return Vec::new();
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

    #[test]
    fn control_bytes_read_dry_release_a_burst_and_keep_a_small_capacity() {
        let mut rig = Rig::new();
        // A join's worth of requests lands in one flight.
        for _ in 0..32 {
            rig.client.fetch(&mut rig.c_conn, track(), 0, 1);
        }
        rig.run();
        assert_eq!(rig.server_events().len(), 1 + 32, "Ready, then each FETCH");
        assert_eq!(rig.server.control_rx.capacity(), 0, "given back");
        // One request at a time: allocated once, then reused.
        rig.client.fetch(&mut rig.c_conn, track(), 0, 1);
        rig.run();
        let warm = (
            rig.server.control_rx.as_ptr(),
            rig.server.control_rx.capacity(),
        );
        assert!((1..=queue::KEEP_BYTES).contains(&warm.1));
        rig.client.fetch(&mut rig.c_conn, track(), 0, 1);
        rig.run();
        assert!(rig.server.control_rx.is_empty());
        assert_eq!(
            (
                rig.server.control_rx.as_ptr(),
                rig.server.control_rx.capacity()
            ),
            warm
        );
        assert_eq!(rig.server_events().len(), 2);
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
        assert_eq!(rig.server.stalled.len(), 2, "two went out, two wait");
        let waiting = rig.server.send_backlog_bytes(&rig.s_conn) - rig.s_conn.send_backlog_bytes();
        assert_eq!(
            waiting,
            2 * (STREAM_BACKLOG_CHARGE + rig.server.stalled[0].bytes.len()),
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
        assert!(rig.server.stalled.is_empty());
        assert_eq!(rig.server.send_backlog_bytes(&rig.s_conn), idle);
        assert!(rig.server_events().is_empty(), "nothing refused");

        // Objects waiting for a subscription the peer drops go with it.
        for group_id in 5..=7 {
            rig.server.publish(&mut rig.s_conn, req, update(group_id));
        }
        assert_eq!(rig.server.stalled.len(), 1);
        let unsubscribe = ControlMessage::Unsubscribe { request_id: req };
        rig.server.transition(SessionInput::Control(unsubscribe));
        assert!(rig.server.stalled.is_empty());
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
            let limit = SessionEvent::DataRefused(Reason::StreamLimit);
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
        assert_eq!(rig.server.stalled.len(), 2, "two wait for credit");
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
    fn joining_fetch_for_unknown_subscription_rejected() {
        let mut rig = Rig::new();
        rig.client_events();
        rig.server_events();
        // Forge a joining fetch with a bogus joining id.
        let fetch_id = {
            let id = rig.client.alloc_request_id();
            rig.client.my_fetches.insert(id);
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
        assert!(sev
            .iter()
            .any(|e| matches!(e, SessionEvent::ProtocolViolation(_))));
        assert_eq!(rig.server.state(), SessionState::Closed);
        assert!(!rig.server.is_ready());
        assert_eq!(rig.server.stats().violations, 1);
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
        assert!(rig.client_events().is_empty());
        assert_eq!(rig.client.stats().dropped_datagrams, 1);
        assert_eq!(rig.client.state(), SessionState::Ready);
        // Malformed datagram bytes count too.
        rig.s_conn.send_datagram(vec![0xff, 0x01]).unwrap();
        rig.run();
        assert_eq!(rig.client.stats().dropped_datagrams, 2);
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
        // The peer picks its request ids and how many subscriptions it
        // holds. 100,000 of them, highest id first, then withdrawn lowest
        // id first: every insert and every remove is at the front of the
        // table — quadratic in a sorted vector (28 s in a release build),
        // ~n log n in the B-tree `peer_subs` is (about 80 ms).
        let n = 100_000u64;
        let mut rig = Rig::new();
        let started = std::time::Instant::now();
        for id in (0..n).rev() {
            let subscribe = ControlMessage::Subscribe {
                request_id: id * 2,
                track_alias: id,
                track: track(),
                filter: FilterType::LatestObject,
            };
            let out = rig.server.transition(SessionInput::Control(subscribe));
            assert!(matches!(
                out[..],
                [SessionOutput::Event(SessionEvent::IncomingSubscribe { .. })]
            ));
        }
        assert_eq!(rig.server.peer_subscription_count(), n as usize);
        for id in 0..n {
            let unsubscribe = ControlMessage::Unsubscribe { request_id: id * 2 };
            rig.server.transition(SessionInput::Control(unsubscribe));
        }
        let took = started.elapsed();
        assert_eq!(rig.server.peer_subscription_count(), 0);
        assert!(
            took < std::time::Duration::from_secs(3),
            "100,000 descending subscribes and their withdrawal took {took:?}"
        );
    }
}
