//! Why something was closed, poisoned or refused — said once.
//!
//! A [`Reason`] is the `DlError` of the rax25 idiom the session follows
//! (SNIPPETS.md snippet 1): an enum whose variants *are* the occurrences,
//! each with its text — a session's, and those a node raises over its
//! sessions (a relay's eviction, a request it cannot serve). The text of
//! a reason that closes the connection rides in CONNECTION_CLOSE, so it
//! is part of the wire: changing one moves the byte counts the
//! `adversarial` and `chaos` baselines pin.
//!
//! Adding a reason is one line in the list below; [`Reason::ALL`],
//! [`Reason::as_str`], the width of [`ReasonCounts`] and the reason's
//! counter name follow from it. A count is named after the text
//! (`moqt.reason.` and the text lowercased, words joined by `_`:
//! `moqt.reason.unexpected_client_setup`, `moqdns_wire::counters`), so
//! no reason has a name the wire does not already carry.

use moqdns_wire::counters::Counts;

macro_rules! reasons {
    ($( $(#[$meta:meta])* $variant:ident = $text:literal, )*) => {
        /// What happened, as a session or its driver names it. A variant's
        /// text is its documentation unless it needs more.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Reason {
            $( #[doc = $text] $(#[$meta])* $variant, )*
        }

        impl Reason {
            /// Every reason, in declaration order.
            pub const ALL: &'static [Reason] = &[$(Reason::$variant),*];

            /// The reason's text, as it rides in CONNECTION_CLOSE.
            pub const fn as_str(self) -> &'static str {
                match self {
                    $( Reason::$variant => $text, )*
                }
            }
        }
    };
}

reasons! {
    // The eighteen ways a session poisons itself.
    UnexpectedBidiStream = "unexpected peer bidi stream",
    DataBeforeHandshake = "data stream before handshake",
    BadControlMessage = "bad control message",
    ControlOverflow = "control buffer overflow",
    ControlBeforeHandshake = "control message before handshake",
    DuplicateControlStream = "duplicate control stream",
    BadDataStream = "bad data stream",
    UnexpectedClientSetup = "unexpected CLIENT_SETUP",
    SetupOmitsAlpnVersion = "CLIENT_SETUP omits the ALPN version",
    NoCommonVersion = "no common version",
    UnexpectedServerSetup = "unexpected SERVER_SETUP",
    UnofferedVersion = "server selected unoffered version",
    SetupContradictsAlpn = "SERVER_SETUP contradicts the ALPN version",
    RequestBeforeSetup = "request before SETUP completed",
    DuplicateSetup = "duplicate SETUP",
    DuplicateSubscribeId = "duplicate subscribe request id",
    DuplicateGoAway = "duplicate GOAWAY",
    ControlStreamLost = "control stream lost",

    // Raised without poisoning.
    /// — a verb was called before the client had opened it.
    NoControlStream = "no control stream",
    /// — the drain timer of a session that received GOAWAY expired.
    Drained = "drained",
    /// — a data stream was refused: a whole window of earlier ones
    /// already waits for the peer's stream credit. (Short of that, a data
    /// stream at the peer's stream limit waits for credit too.)
    StreamLimit = "stream limit reached",
    /// — a data stream was cut short.
    FlowControl = "flow control window full",
    /// — a peer's SUBSCRIBE was refused: it already held
    /// `MAX_PEER_SUBSCRIPTIONS` on the session. The text is the
    /// SUBSCRIBE_ERROR's reason phrase.
    SubscriptionLimit = "too many subscriptions",

    // Raised by a node over its sessions, not by a session.
    /// — a node would not or could not serve a downstream request: a
    /// relay's fetch over its session's budget, or one the upstream did
    /// not answer; a recursive's subscription whose authority is gone and
    /// cannot be redialed. The text is the FETCH_ERROR's or
    /// SUBSCRIBE_DONE's reason phrase.
    UpstreamUnavailable = "upstream unavailable",
    /// — a relay closed a session its core evicted: a fetch bomber past
    /// its budget.
    SessionEvicted = "session evicted",
    /// — a relay closed a session whose unacknowledged data passed the
    /// bound it puts on a subscriber: a slow loris.
    SessionBacklogExceeded = "session backlog exceeded",
}

impl Reason {
    /// True for the eighteen reasons a session poisons itself for — those
    /// listed first, each counted once in the session's `violations` too.
    pub fn poisons(self) -> bool {
        self <= Reason::ControlStreamLost
    }
}

impl std::fmt::Display for Reason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How often each [`Reason`] was raised: `counts[Reason::StreamLimit]`,
/// named `moqt.reason.stream_limit_reached`.
pub type ReasonCounts = Counts<Reason, { Reason::ALL.len() }>;

moqdns_wire::counted!(Reason, "moqt.reason");
