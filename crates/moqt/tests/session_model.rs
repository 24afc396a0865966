//! Model-based interleaving test of the session state machine.
//!
//! Random sequences of [`SessionInput`]s — legal handshakes, mid-stream
//! garbage, duplicate request ids, every control message through
//! [`SessionInput::Control`], inputs in states where they are
//! violations — are fed straight into [`Session::transition`] and checked
//! against the machine's contract:
//!
//! 1. **no panic** on any interleaving;
//! 2. **`Closed` is absorbing and inert** — once closed, every further
//!    input produces no outputs and no state change;
//! 3. **poison closes** — a transition that emits
//!    [`SessionOutput::Close`] leaves the session in `Closed`;
//! 4. **violations are counted** — every `ProtocolViolation` event is
//!    reflected in [`SessionStats::violations`], and each one poisons the
//!    session (so the counter can never race past the close).
//!
//! The wire decoders get their own fuzz (in `message.rs` / `data.rs`);
//! this test drives the layer above them, where the ISSUE-6 hardening
//! lives.
//!
//! The second half ([`Wire`]) runs both ends over real connections and
//! checks *when* control messages reach the wire against a model that
//! knows where the client's version came from ([`VersionSource`]): the
//! resumption ticket's ALPN token, the token the handshake negotiated, or
//! SERVER_SETUP. It pins that
//!
//! 5. **no request precedes the version** — a client never puts a request
//!    on the wire before one of the three sources told it its version, and
//!    under the unversioned token only SERVER_SETUP can;
//! 6. **SERVER_SETUP may trail requests, never replies** — on a versioned
//!    token requests go out with (or behind) CLIENT_SETUP, before
//!    SERVER_SETUP exists, yet SERVER_SETUP is always the first thing the
//!    server says and no reply overtakes it;
//! 7. **SETUP must agree with the token**, or the session poisons with a
//!    reason that names the disagreement;
//! 8. **each request is delivered once** — also when the server rejects
//!    the 0-RTT flight that carried them and the connection retransmits it.
//!
//! The last part pins the vocabulary: every [`Reason`] is raised by a
//! scripted input sequence and the seventeen that poison keep the texts
//! they had as string literals; a request a *server* issues before
//! CLIENT_SETUP arrives follows SERVER_SETUP instead of waiting forever.

use moqdns_moqt::data::{Object, ObjectDatagram, SubgroupHeader};
use moqdns_moqt::message::{FetchType, FilterType};
use moqdns_moqt::session::{
    Session, SessionConfig, SessionEvent, SessionInput, SessionOutput, SessionState,
};
use moqdns_moqt::track::FullTrackName;
use moqdns_moqt::{ControlMessage, Reason, MOQT_ALPN, MOQT_ALPN_UNVERSIONED, MOQT_VERSION};
use moqdns_netsim::SimTime;
use moqdns_quic::frame::Frame;
use moqdns_quic::handshake::Ticket;
use moqdns_quic::packet::decode_datagram_payload;
use moqdns_quic::streams::{Dir, StreamId};
use moqdns_quic::{alpn_list, Connection, Event, TransportConfig};
use proptest::prelude::*;
use std::time::Duration;

/// Number of [`ControlMessage`] variants [`control_for`] generates — all
/// of them, which [`kind_of`] makes the compiler check.
const CONTROL_KINDS: u8 = 17;
/// The transport-level inputs [`input_for`] generates beside them.
const TRANSPORT_KINDS: u8 = 11;

/// Which variant `msg` is. Exhaustive, no wildcard: a new control message
/// refuses to compile here until the walk below generates it too.
fn kind_of(msg: &ControlMessage) -> u8 {
    use ControlMessage as M;
    match msg {
        M::ClientSetup { .. } => 0,
        M::ServerSetup { .. } => 1,
        M::Subscribe { .. } => 2,
        M::SubscribeOk { .. } => 3,
        M::SubscribeError { .. } => 4,
        M::Unsubscribe { .. } => 5,
        M::SubscribeDone { .. } => 6,
        M::Fetch { .. } => 7,
        M::FetchOk { .. } => 8,
        M::FetchError { .. } => 9,
        M::FetchCancel { .. } => 10,
        M::Announce { .. } => 11,
        M::AnnounceOk { .. } => 12,
        M::AnnounceError { .. } => 13,
        M::Unannounce { .. } => 14,
        M::MaxRequestId { .. } => 15,
        M::GoAway { .. } => 16,
    }
}

fn model_track() -> FullTrackName {
    FullTrackName::new(vec![b"model.example".to_vec()], b"r".to_vec()).expect("static track name")
}

/// The control message of `kind` (see [`kind_of`]), ids drawn from a small
/// space so sequences contain duplicates *and* fresh ids.
fn control_for(kind: u8, id: u64) -> ControlMessage {
    use ControlMessage as M;
    let namespace = vec![b"model".to_vec()];
    match kind {
        0 => M::ClientSetup {
            versions: vec![0xff00000d + id],
            max_request_id: 64,
        },
        1 => M::ServerSetup {
            version: 0xff00000d,
            max_request_id: 64,
        },
        2 => M::Subscribe {
            request_id: id * 2,
            track_alias: id,
            track: model_track(),
            filter: FilterType::LatestObject,
        },
        3 => M::SubscribeOk {
            request_id: id * 2 + 1,
            expires_ms: 0,
            largest: None,
        },
        4 => M::SubscribeError {
            request_id: id * 2 + 1,
            code: 1,
            reason: "model".into(),
        },
        5 => M::Unsubscribe { request_id: id * 2 },
        6 => M::SubscribeDone {
            request_id: id * 2 + 1,
            code: 0,
            reason: "model".into(),
        },
        7 => M::Fetch {
            request_id: id * 2,
            fetch: FetchType::StandAlone {
                track: model_track(),
                start_group: 0,
                start_object: 0,
                end_group: 0,
            },
        },
        8 => M::FetchOk {
            request_id: id * 2 + 1,
            largest: (0, 0),
        },
        9 => M::FetchError {
            request_id: id * 2 + 1,
            code: 1,
            reason: "model".into(),
        },
        10 => M::FetchCancel { request_id: id * 2 },
        11 => M::Announce {
            request_id: id * 2,
            namespace,
        },
        12 => M::AnnounceOk {
            request_id: id * 2 + 1,
        },
        13 => M::AnnounceError {
            request_id: id * 2 + 1,
            code: 1,
            reason: "model".into(),
        },
        14 => M::Unannounce { namespace },
        15 => M::MaxRequestId { max: 1 << 16 },
        _ => M::GoAway { uri: String::new() },
    }
}

/// Deterministically maps an opcode byte to a `SessionInput`, covering
/// every variant — every control message through
/// [`SessionInput::Control`] (the opcode modulo the kinds picks the input,
/// its high nibble and the position perturb ids).
fn input_for(op: u8, i: usize) -> SessionInput {
    let id = (op >> 4) as u64 % 4; // small id space → plenty of duplicates
    match op % (TRANSPORT_KINDS + CONTROL_KINDS) {
        0 => SessionInput::ControlStreamOpened(StreamId::new(true, Dir::Bi, id)),
        1 => SessionInput::DataStreamOpened(StreamId::new(false, Dir::Uni, i as u64)),
        2 => SessionInput::DataSubgroup {
            header: SubgroupHeader {
                track_alias: id,
                group_id: i as u64,
                subgroup_id: 0,
                priority: 0,
            },
            objects: vec![Object {
                group_id: i as u64,
                object_id: 0,
                payload: vec![0xab; 8].into(),
            }],
        },
        3 => SessionInput::DataFetch {
            request_id: id,
            objects: Vec::new(),
        },
        4 => SessionInput::MalformedData,
        5 => SessionInput::Datagram(ObjectDatagram {
            track_alias: id,
            object: Object {
                group_id: i as u64,
                object_id: 0,
                payload: vec![0xcd; 4].into(),
            },
        }),
        6 => SessionInput::MalformedDatagram,
        7 => SessionInput::MalformedControl,
        8 => SessionInput::ControlOverflow,
        9 => SessionInput::DrainTimeout,
        10 => SessionInput::AlpnVersion(0xff00000c + id % 2),
        control => SessionInput::Control(control_for(control - TRANSPORT_KINDS, id)),
    }
}

/// The walk's generator reaches every control message, each through
/// [`SessionInput::Control`].
#[test]
fn the_walk_generates_every_control_message() {
    let mut seen = [false; CONTROL_KINDS as usize];
    for op in 0..=u8::MAX {
        if let SessionInput::Control(msg) = input_for(op, 0) {
            seen[kind_of(&msg) as usize] = true;
        }
    }
    assert_eq!(seen, [true; CONTROL_KINDS as usize]);
}

/// Runs one input script against a session and checks the contract.
fn check_machine(mut sess: Session, script: &[u8]) {
    let mut violations_seen = 0u64;
    for (i, &op) in script.iter().enumerate() {
        let was_closed = sess.state() == SessionState::Closed;
        let outputs = sess.transition(input_for(op, i));

        if was_closed {
            // Contract 2: Closed is absorbing and inert.
            prop_assert!(
                outputs.is_empty(),
                "closed session produced outputs: {outputs:?}"
            );
            prop_assert_eq!(sess.state(), SessionState::Closed);
            continue;
        }
        let mut closed_by_output = false;
        for out in &outputs {
            match out {
                SessionOutput::Close { .. } => closed_by_output = true,
                SessionOutput::Event(SessionEvent::ProtocolViolation(_)) => {
                    violations_seen += 1;
                }
                _ => {}
            }
        }
        // Contract 3: a Close output means the machine is in Closed.
        if closed_by_output {
            prop_assert_eq!(sess.state(), SessionState::Closed);
        }
        // Contract 4: the hardening counter tracks emitted violations
        // exactly, and every violation poisoned the session.
        prop_assert_eq!(sess.stats().violations, violations_seen);
        if violations_seen > 0 {
            prop_assert_eq!(sess.state(), SessionState::Closed);
        }
    }
}

proptest! {
    #[test]
    fn prop_server_machine_contract(script in proptest::collection::vec(any::<u8>(), 0..64)) {
        check_machine(Session::server(SessionConfig::default()), &script);
    }

    #[test]
    fn prop_client_machine_contract(script in proptest::collection::vec(any::<u8>(), 0..64)) {
        check_machine(Session::client(SessionConfig::default()), &script);
    }

    /// A legal handshake followed by garbage: the session must reach
    /// `Ready` and then poison on the first malformed control input, no
    /// matter what preceded it in the legal phase.
    #[test]
    fn prop_garbage_after_handshake_poisons(script in proptest::collection::vec(any::<u8>(), 0..16)) {
        let mut sess = Session::server(SessionConfig::default());
        sess.transition(SessionInput::ControlStreamOpened(StreamId::new(true, Dir::Bi, 0)));
        sess.transition(SessionInput::Control(ControlMessage::ClientSetup {
            versions: vec![moqdns_moqt::MOQT_VERSION],
            max_request_id: 64,
        }));
        prop_assert_eq!(sess.state(), SessionState::Ready);
        let before = sess.stats().violations;
        for (i, &op) in script.iter().enumerate() {
            sess.transition(input_for(op, i));
        }
        let outs = sess.transition(SessionInput::MalformedControl);
        prop_assert_eq!(sess.state(), SessionState::Closed);
        // Either this input poisoned it (a Close goes out) or the script
        // already had — in which case Closed was inert and emitted nothing.
        if sess.stats().violations > before {
            prop_assert!(sess.stats().violations >= 1);
        } else {
            prop_assert!(outs.is_empty());
        }
    }
}

// ----------------------------------------------------------------------
// Both ends over real connections: when does what reach the wire?
// ----------------------------------------------------------------------

/// Where the client's version came from, in the order the sources can
/// speak up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VersionSource {
    /// The ALPN token its resumption ticket was issued under: known at
    /// `start`, before anything is sent.
    Ticket,
    /// The ALPN token the handshake negotiated: known at `Connected`.
    Token,
    /// SERVER_SETUP: the only source under the unversioned token.
    Setup,
}

/// One scenario: which token the server speaks, whether the client
/// resumes, whether the server takes its 0-RTT data.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    versioned: bool,
    resumed: bool,
    accept_early_data: bool,
}

/// What the tap has seen of one direction of the control stream.
#[derive(Default)]
struct Tapped {
    /// Stream bytes below this offset have been seen (a retransmission
    /// repeats offsets; the tap, like the peer, reads each byte once).
    next_offset: u64,
    undecoded: Vec<u8>,
    /// `(round it was first transmitted in, message)`.
    messages: Vec<(u32, ControlMessage)>,
}

impl Tapped {
    fn see(&mut self, round: u32, datagram: &moqdns_netsim::Payload) {
        let control = StreamId::new(true, Dir::Bi, 0);
        for p in decode_datagram_payload(datagram).expect("own datagrams decode") {
            for f in p.frames {
                let Frame::Stream {
                    id, offset, data, ..
                } = f
                else {
                    continue;
                };
                let end = offset + data.len() as u64;
                if id != control || end <= self.next_offset {
                    continue;
                }
                assert!(offset <= self.next_offset, "lossless wire: no gaps");
                self.undecoded
                    .extend_from_slice(&data[(self.next_offset - offset) as usize..]);
                self.next_offset = end;
            }
        }
        while let Ok(Some((msg, used))) = ControlMessage::decode(&self.undecoded) {
            self.messages.push((round, msg));
            self.undecoded.drain(..used);
        }
    }

    fn round_of(&self, pick: impl Fn(&ControlMessage) -> bool) -> Option<u32> {
        self.messages.iter().find(|(_, m)| pick(m)).map(|(r, _)| *r)
    }
}

fn is_request(m: &ControlMessage) -> bool {
    matches!(
        m,
        ControlMessage::Subscribe { .. } | ControlMessage::Fetch { .. }
    )
}

/// A client and a server session over a lossless pair of connections,
/// moved in lock-step rounds: both sides transmit (the tap reads the
/// control stream), both sides receive, both sessions react. Whatever a
/// session writes in reaction to round `r` is on the wire in round
/// `r + 1` at the earliest.
struct Wire {
    scenario: Scenario,
    c_conn: Connection,
    s_conn: Connection,
    client: Session,
    server: Session,
    now: SimTime,
    round: u32,
    up: Tapped,
    down: Tapped,
    /// The round whose deliveries gave the client `Connected`.
    client_connected: Option<u32>,
    early_data_accepted: Option<bool>,
    client_events: Vec<SessionEvent>,
    server_events: Vec<SessionEvent>,
}

impl Wire {
    fn new(scenario: Scenario) -> Wire {
        Wire::with_transport(scenario, TransportConfig::default())
    }

    fn with_transport(scenario: Scenario, transport: TransportConfig) -> Wire {
        let now = SimTime::ZERO;
        let offered = alpn_list(&[MOQT_ALPN, MOQT_ALPN_UNVERSIONED]);
        let supported = if scenario.versioned {
            offered.clone()
        } else {
            alpn_list(&[MOQT_ALPN_UNVERSIONED])
        };
        let ticket = scenario.resumed.then(|| Ticket(vec![7; 16]));
        let mut c_conn = Connection::client(1, transport.clone(), offered, ticket, now);
        // The ticket is from an earlier connection to this server, so it
        // was issued under the token this server picks.
        c_conn.resume_under(supported[0].clone());
        let mut s_conn = Connection::server(1, transport, supported, 9, now);
        s_conn.set_accept_early_data(scenario.accept_early_data);
        let mut client = Session::client(SessionConfig::default());
        client.start(&mut c_conn);
        Wire {
            scenario,
            c_conn,
            s_conn,
            client,
            server: Session::server(SessionConfig::default()),
            now,
            round: 0,
            up: Tapped::default(),
            down: Tapped::default(),
            client_connected: None,
            early_data_accepted: None,
            client_events: Vec::new(),
            server_events: Vec::new(),
        }
    }

    fn track() -> FullTrackName {
        FullTrackName::new(vec![b"model.example".to_vec()], b"r".to_vec()).expect("static")
    }

    /// The paper's lookup: SUBSCRIBE + joining FETCH.
    fn lookup(&mut self) {
        self.client
            .subscribe_with_joining_fetch(&mut self.c_conn, Wire::track(), 1);
    }

    fn fetch(&mut self) {
        self.client.fetch(&mut self.c_conn, Wire::track(), 0, 0);
    }

    /// One round; true if a datagram moved.
    fn step(&mut self) -> bool {
        let mut c2s = Vec::new();
        while let Some(d) = self.c_conn.poll_transmit(self.now) {
            self.up.see(self.round, &d);
            c2s.push(d);
        }
        let mut s2c = Vec::new();
        while let Some(d) = self.s_conn.poll_transmit(self.now) {
            self.down.see(self.round, &d);
            s2c.push(d);
        }
        let moved = !c2s.is_empty() || !s2c.is_empty();
        self.now += Duration::from_millis(10);
        for d in c2s {
            self.s_conn.handle_datagram(self.now, &d);
        }
        for d in s2c {
            self.c_conn.handle_datagram(self.now, &d);
        }
        for conn in [&mut self.c_conn, &mut self.s_conn] {
            if conn.poll_timeout().is_some_and(|t| t <= self.now) {
                conn.handle_timeout(self.now);
            }
        }
        while let Some(ev) = self.c_conn.poll_event() {
            if let Event::Connected {
                early_data_accepted,
                ..
            } = &ev
            {
                self.client_connected = Some(self.round);
                self.early_data_accepted = *early_data_accepted;
            }
            self.client.on_conn_event(&mut self.c_conn, &ev);
        }
        while let Some(ev) = self.s_conn.poll_event() {
            self.server.on_conn_event(&mut self.s_conn, &ev);
        }
        while let Some(ev) = self.client.poll_event() {
            self.client_events.push(ev);
        }
        // The server answers everything it is asked.
        while let Some(ev) = self.server.poll_event() {
            match &ev {
                SessionEvent::IncomingSubscribe { request_id, .. } => {
                    self.server
                        .accept_subscribe(&mut self.s_conn, *request_id, Some((1, 0)));
                }
                SessionEvent::IncomingFetch { request_id, .. } => {
                    let object = Object {
                        group_id: 1,
                        object_id: 0,
                        payload: vec![0xab; 8].into(),
                    };
                    self.server
                        .respond_fetch(&mut self.s_conn, *request_id, (1, 0), vec![object]);
                }
                _ => {}
            }
            self.server_events.push(ev);
        }
        self.round += 1;
        moved
    }

    /// Rounds until nothing moves and no retransmission timer is near.
    fn settle(&mut self) {
        let horizon = self.now + Duration::from_secs(3);
        for _ in 0..200 {
            if self.step() {
                continue;
            }
            let next = [self.c_conn.poll_timeout(), self.s_conn.poll_timeout()]
                .into_iter()
                .flatten()
                .min();
            match next {
                Some(t) if t <= horizon => self.now = self.now.max(t),
                _ => return,
            }
        }
        panic!("the wire never went quiet");
    }

    /// The model: what could have told the client its version before it
    /// transmitted in `round`, earliest source first.
    fn version_source(&self, round: u32) -> Option<VersionSource> {
        let Scenario {
            versioned, resumed, ..
        } = self.scenario;
        let server_setup = self
            .down
            .round_of(|m| matches!(m, ControlMessage::ServerSetup { .. }));
        if versioned && resumed {
            Some(VersionSource::Ticket)
        } else if versioned && self.client_connected.is_some_and(|r| r < round) {
            Some(VersionSource::Token)
        } else if server_setup.is_some_and(|r| r < round) {
            Some(VersionSource::Setup)
        } else {
            None
        }
    }

    fn count(events: &[SessionEvent], pick: impl Fn(&SessionEvent) -> bool) -> usize {
        events.iter().filter(|e| pick(e)).count()
    }
}

/// Runs `script` (one op per round before the wire is left to settle:
/// nothing, a lookup, a standalone fetch) and checks properties 5, 6, 8.
fn check_wire(scenario: Scenario, script: &[u8]) {
    let mut w = Wire::new(scenario);
    let (mut lookups, mut fetches) = (0, 0);
    for op in script {
        match op % 3 {
            1 => {
                w.lookup();
                lookups += 1;
            }
            2 => {
                w.fetch();
                fetches += 1;
            }
            _ => {}
        }
        w.step();
    }
    w.settle();
    prop_assert!(w.client.is_ready() && w.server.is_ready(), "{scenario:?}");
    if scenario.resumed {
        prop_assert_eq!(w.early_data_accepted, Some(scenario.accept_early_data));
    }

    // 5. No request precedes the version.
    for (round, msg) in w.up.messages.iter().filter(|(_, m)| is_request(m)) {
        let source = w.version_source(*round);
        prop_assert!(
            source.is_some(),
            "{scenario:?}: {msg:?} on the wire in round {round}, version still unknown"
        );
        if !scenario.versioned {
            prop_assert_eq!(source, Some(VersionSource::Setup), "{scenario:?}");
        }
    }
    // ...and a request the application issued at once rides with
    // CLIENT_SETUP when the token allows it.
    let client_setup =
        w.up.round_of(|m| matches!(m, ControlMessage::ClientSetup { .. }));
    let server_setup = w
        .down
        .round_of(|m| matches!(m, ControlMessage::ServerSetup { .. }));
    if script.first().is_some_and(|op| op % 3 != 0) {
        let first_request = w.up.round_of(is_request);
        if scenario.versioned {
            prop_assert_eq!(first_request, client_setup, "{scenario:?}");
            // 6. ...which is before SERVER_SETUP even exists.
            prop_assert!(first_request <= server_setup, "{scenario:?}");
        } else {
            prop_assert!(first_request > server_setup, "{scenario:?}");
        }
    }

    // 6. SERVER_SETUP is the first thing the server says; nothing the
    //    client received poisoned it.
    prop_assert!(matches!(
        w.down.messages.first(),
        Some((_, ControlMessage::ServerSetup { .. }))
    ));
    prop_assert_eq!(w.client.stats().violations + w.server.stats().violations, 0);

    // 8. Every request reached the server once and was answered once.
    type E = SessionEvent;
    let asked = |e: &E| matches!(e, E::IncomingSubscribe { .. });
    let fetched = |e: &E| matches!(e, E::IncomingFetch { .. });
    let accepted = |e: &E| matches!(e, E::SubscribeAccepted { .. });
    let objects = |e: &E| matches!(e, E::FetchObjects { .. });
    prop_assert_eq!(
        Wire::count(&w.server_events, asked),
        lookups,
        "{scenario:?}"
    );
    prop_assert_eq!(
        Wire::count(&w.server_events, fetched),
        lookups + fetches,
        "{scenario:?}"
    );
    prop_assert_eq!(Wire::count(&w.client_events, accepted), lookups);
    prop_assert_eq!(Wire::count(&w.client_events, objects), lookups + fetches);
}

/// A rejected 0-RTT flight that carried CLIENT_SETUP and the requests:
/// the connection retransmits it after the handshake and the server reads
/// each request once (property 8 on its hardest input).
#[test]
fn rejected_early_data_still_delivers_pipelined_requests_once() {
    let rejected = Scenario {
        versioned: true,
        resumed: true,
        accept_early_data: false,
    };
    check_wire(rejected, &[1, 2, 1]);
    let mut w = Wire::new(rejected);
    w.lookup();
    w.settle();
    assert_eq!(w.early_data_accepted, Some(false));
    assert_eq!(w.version_source(0), Some(VersionSource::Ticket));
    assert_eq!(
        w.up.round_of(is_request),
        Some(0),
        "sent in the 0-RTT flight"
    );
}

proptest! {
    #[test]
    fn prop_requests_never_precede_the_version_and_arrive_once(
        versioned in any::<bool>(),
        resumed in any::<bool>(),
        accept_early_data in any::<bool>(),
        script in proptest::collection::vec(any::<u8>(), 0..6),
    ) {
        check_wire(Scenario { versioned, resumed, accept_early_data }, &script);
    }

    /// 7. The token chose the version; a SETUP that disagrees poisons,
    /// and says which side disagreed — also when the two ends do have
    /// another version in common.
    #[test]
    fn prop_setup_must_agree_with_the_token(listed in proptest::collection::vec(0u64..4, 1..4), picked in 0u64..4) {
        let speaks = SessionConfig {
            versions: (0..4).map(|i| MOQT_VERSION + i).collect(),
            ..SessionConfig::default()
        };
        let violation = |outs: &[SessionOutput]| {
            outs.iter().find_map(|o| match o {
                SessionOutput::Event(SessionEvent::ProtocolViolation(why)) => Some(*why),
                _ => None,
            })
        };

        let mut server = Session::server(speaks.clone());
        server.transition(SessionInput::AlpnVersion(MOQT_VERSION));
        server.transition(SessionInput::ControlStreamOpened(StreamId::new(true, Dir::Bi, 0)));
        let outs = server.transition(SessionInput::Control(ControlMessage::ClientSetup {
            versions: listed.iter().map(|i| MOQT_VERSION + i).collect(),
            max_request_id: 64,
        }));
        if listed.contains(&0) {
            prop_assert_eq!(violation(&outs), None);
            prop_assert_eq!(server.version(), Some(MOQT_VERSION), "the token's, not the highest");
            prop_assert_eq!(server.state(), SessionState::Ready);
        } else {
            prop_assert_eq!(violation(&outs), Some(Reason::SetupOmitsAlpnVersion));
            prop_assert_eq!(server.state(), SessionState::Closed);
        }

        let mut conn = Connection::client(
            1,
            TransportConfig::default(),
            alpn_list(&[MOQT_ALPN]),
            None,
            SimTime::ZERO,
        );
        let mut client = Session::client(speaks);
        client.start(&mut conn);
        client.transition(SessionInput::AlpnVersion(MOQT_VERSION));
        let outs = client.transition(SessionInput::Control(ControlMessage::ServerSetup {
            version: MOQT_VERSION + picked,
            max_request_id: 64,
        }));
        if picked == 0 {
            prop_assert_eq!(violation(&outs), None);
            prop_assert_eq!(client.state(), SessionState::Ready);
        } else {
            prop_assert_eq!(violation(&outs), Some(Reason::SetupContradictsAlpn));
            prop_assert_eq!(client.state(), SessionState::Closed);
        }
    }
}

// ----------------------------------------------------------------------
// Reasons: every one can be raised, and says what it always said
// ----------------------------------------------------------------------

const COLD: Scenario = Scenario {
    versioned: true,
    resumed: false,
    accept_early_data: false,
};

/// A session in `Handshaking`: a started client, or a server whose client
/// opened the control stream.
fn handshaking(client: bool, config: SessionConfig) -> Session {
    if client {
        let alpn = alpn_list(&[MOQT_ALPN_UNVERSIONED]);
        let mut conn = Connection::client(1, TransportConfig::default(), alpn, None, SimTime::ZERO);
        let mut session = Session::client(config);
        session.start(&mut conn);
        session
    } else {
        let mut session = Session::server(config);
        session.transition(SessionInput::ControlStreamOpened(StreamId::new(
            true,
            Dir::Bi,
            0,
        )));
        session
    }
}

/// A server session in `Ready`.
fn ready_server() -> Session {
    let mut session = handshaking(false, SessionConfig::default());
    session.transition(SessionInput::Control(ControlMessage::ClientSetup {
        versions: vec![MOQT_VERSION],
        max_request_id: 64,
    }));
    assert_eq!(session.state(), SessionState::Ready);
    session
}

/// Every [`Reason`] is raised by a scripted input sequence, and the
/// seventeen that poison still carry the text they had as string
/// literals — it rides in CONNECTION_CLOSE, and two baselines count
/// those bytes.
#[test]
fn every_reason_is_raised_and_keeps_its_text() {
    use ControlMessage as M;
    use SessionInput as I;
    let control_stream = || I::ControlStreamOpened(StreamId::new(true, Dir::Bi, 0));
    let goaway = || I::Control(M::GoAway { uri: String::new() });
    let client_setup = |versions| {
        I::Control(M::ClientSetup {
            versions,
            max_request_id: 64,
        })
    };
    let server_setup = |version| {
        I::Control(M::ServerSetup {
            version,
            max_request_id: 64,
        })
    };
    let two_versions = || SessionConfig {
        versions: vec![MOQT_VERSION, MOQT_VERSION + 1],
        ..SessionConfig::default()
    };
    let init = |client| {
        if client {
            Session::client(SessionConfig::default())
        } else {
            Session::server(SessionConfig::default())
        }
    };
    let shaking = |client| handshaking(client, SessionConfig::default());

    // (what must be raised, its text at the parent commit, the session,
    // the inputs — the last one raises it).
    let poisons: Vec<(Reason, &str, Session, Vec<SessionInput>)> = vec![
        (
            Reason::UnexpectedBidiStream,
            "unexpected peer bidi stream",
            init(true),
            vec![control_stream()],
        ),
        (
            Reason::DataBeforeHandshake,
            "data stream before handshake",
            init(false),
            vec![I::MalformedData],
        ),
        (
            Reason::BadControlMessage,
            "bad control message",
            init(false),
            vec![I::MalformedControl],
        ),
        (
            Reason::ControlOverflow,
            "control buffer overflow",
            shaking(false),
            vec![I::ControlOverflow],
        ),
        (
            Reason::ControlBeforeHandshake,
            "control message before handshake",
            init(false),
            vec![goaway()],
        ),
        (
            Reason::DuplicateControlStream,
            "duplicate control stream",
            shaking(false),
            vec![control_stream()],
        ),
        (
            Reason::BadDataStream,
            "bad data stream",
            ready_server(),
            vec![I::MalformedData],
        ),
        (
            Reason::UnexpectedClientSetup,
            "unexpected CLIENT_SETUP",
            shaking(true),
            vec![client_setup(vec![MOQT_VERSION])],
        ),
        (
            Reason::SetupOmitsAlpnVersion,
            "CLIENT_SETUP omits the ALPN version",
            handshaking(false, two_versions()),
            vec![
                I::AlpnVersion(MOQT_VERSION),
                client_setup(vec![MOQT_VERSION + 1]),
            ],
        ),
        (
            Reason::NoCommonVersion,
            "no common version",
            shaking(false),
            vec![client_setup(vec![1])],
        ),
        (
            Reason::UnexpectedServerSetup,
            "unexpected SERVER_SETUP",
            shaking(false),
            vec![server_setup(MOQT_VERSION)],
        ),
        (
            Reason::UnofferedVersion,
            "server selected unoffered version",
            shaking(true),
            vec![server_setup(1)],
        ),
        (
            Reason::SetupContradictsAlpn,
            "SERVER_SETUP contradicts the ALPN version",
            handshaking(true, two_versions()),
            vec![I::AlpnVersion(MOQT_VERSION), server_setup(MOQT_VERSION + 1)],
        ),
        (
            Reason::RequestBeforeSetup,
            "request before SETUP completed",
            shaking(false),
            vec![goaway()],
        ),
        (
            Reason::DuplicateSetup,
            "duplicate SETUP",
            ready_server(),
            vec![client_setup(vec![MOQT_VERSION])],
        ),
        (
            Reason::DuplicateSubscribeId,
            "duplicate subscribe request id",
            ready_server(),
            vec![I::Control(control_for(2, 1)), I::Control(control_for(2, 1))],
        ),
        (
            Reason::DuplicateGoAway,
            "duplicate GOAWAY",
            ready_server(),
            vec![goaway(), goaway()],
        ),
    ];
    assert_eq!(poisons.len(), 17);

    let mut raised = std::collections::BTreeSet::new();
    for (reason, text, mut session, inputs) in poisons {
        assert_eq!(reason.as_str(), text);
        let outs = inputs
            .into_iter()
            .map(|input| session.transition(input))
            .last()
            .expect("a script has inputs");
        assert_eq!(
            outs,
            vec![
                SessionOutput::Event(SessionEvent::ProtocolViolation(reason)),
                SessionOutput::Close {
                    code: moqdns_moqt::session::CLOSE_PROTOCOL_VIOLATION,
                    reason
                },
            ],
            "{reason:?}"
        );
        assert_eq!(session.state(), SessionState::Closed, "{reason:?}");
        raised.insert(reason);
    }

    // The drain timer of a session that was told to go away.
    let mut session = ready_server();
    session.transition(goaway());
    for out in session.transition(I::DrainTimeout) {
        if let SessionOutput::Close { reason, .. } = out {
            raised.insert(reason);
        }
    }

    // A verb that needs the control stream before the client opened it.
    let mut w = Wire::new(COLD);
    w.server.reject_fetch(&mut w.s_conn, 0, 0x5, "too early");
    // Data streams refused: one past a window that already waits for the
    // peer's stream credit (the third of three pushed into a window of
    // one), and one the peer's flow-control window cuts short.
    for (transport, pushes) in [
        (
            TransportConfig {
                max_streams: 1,
                ..TransportConfig::default()
            },
            3,
        ),
        (
            TransportConfig {
                max_data: 256,
                ..TransportConfig::default()
            },
            1,
        ),
    ] {
        let mut w = Wire::with_transport(COLD, transport);
        w.lookup();
        w.settle();
        let request_id = w
            .server_events
            .iter()
            .find_map(|e| match e {
                SessionEvent::IncomingSubscribe { request_id, .. } => Some(*request_id),
                _ => None,
            })
            .expect("the lookup subscribed");
        let sent: Vec<bool> = (0..pushes)
            .map(|i| {
                let object = Object {
                    group_id: 2 + i,
                    object_id: 0,
                    payload: vec![0xab; 512].into(),
                };
                w.server.publish(&mut w.s_conn, request_id, object)
            })
            .collect();
        assert_eq!(sent.last(), Some(&false), "the last is refused");
        raised.extend(
            std::iter::from_fn(|| w.server.poll_event()).filter_map(|e| match e {
                SessionEvent::DataRefused(reason) => Some(reason),
                _ => None,
            }),
        );
    }
    raised.extend(
        std::iter::from_fn(|| w.server.poll_event()).filter_map(|e| match e {
            SessionEvent::ProtocolViolation(reason) => Some(reason),
            _ => None,
        }),
    );

    let all: std::collections::BTreeSet<Reason> = Reason::ALL.iter().copied().collect();
    assert_eq!(raised, all, "a reason nothing raises should not exist");
}

/// A server that asks before its client has said CLIENT_SETUP — a relay
/// dialled by a peer it also subscribes to — used to hold the request
/// forever: SERVER_SETUP went out and the queue stayed. It follows
/// SERVER_SETUP, in the same flight.
#[test]
fn a_server_request_issued_before_client_setup_follows_server_setup() {
    let mut w = Wire::new(COLD);
    assert_eq!(w.server.state(), SessionState::Init);
    w.server.subscribe(&mut w.s_conn, Wire::track());
    w.settle();
    let kinds: Vec<u8> = w.down.messages.iter().map(|(_, m)| kind_of(m)).collect();
    assert_eq!(kinds, [1, 2], "SERVER_SETUP, then the SUBSCRIBE");
    assert_eq!(w.down.messages[0].0, w.down.messages[1].0, "one flight");
    let asked = |e: &SessionEvent| matches!(e, SessionEvent::IncomingSubscribe { .. });
    assert_eq!(Wire::count(&w.client_events, asked), 1);
    assert_eq!(w.client.stats().violations + w.server.stats().violations, 0);
}

/// An UNSUBSCRIBE issued while its SUBSCRIBE is still held back used to
/// leave at once — ahead of the SUBSCRIBE it cancels, so the peer ignored
/// it and then kept a subscription this side had forgotten. It waits its
/// turn: the peer sees the subscription come and go.
#[test]
fn an_unsubscribe_issued_before_the_version_is_known_follows_its_subscribe() {
    let mut w = Wire::new(COLD);
    let sub_id = w.client.subscribe(&mut w.c_conn, Wire::track());
    w.client.unsubscribe(&mut w.c_conn, sub_id);
    w.settle();
    let kinds: Vec<u8> = w.up.messages.iter().map(|(_, m)| kind_of(m)).collect();
    assert_eq!(kinds, [0, 2, 5], "CLIENT_SETUP, SUBSCRIBE, UNSUBSCRIBE");
    let came = |e: &SessionEvent| matches!(e, SessionEvent::IncomingSubscribe { .. });
    let went = |e: &SessionEvent| matches!(e, SessionEvent::PeerUnsubscribed { .. });
    assert_eq!(Wire::count(&w.server_events, came), 1);
    assert_eq!(Wire::count(&w.server_events, went), 1);
    assert_eq!(w.client.stats().violations + w.server.stats().violations, 0);
}
