//! Why something was closed, poisoned or refused — said once.
//!
//! A [`Reason`] is the `DlError` of the rax25 idiom the session follows
//! (SNIPPETS.md snippet 1): an enum whose variants *are* the occurrences,
//! each with its text. The text of a reason that closes the connection
//! rides in CONNECTION_CLOSE, so it is part of the wire: changing one
//! moves the byte counts the `adversarial` and `chaos` baselines pin.
//!
//! Adding a reason is one line in the list below; [`Reason::ALL`],
//! [`Reason::as_str`] and the width of [`ReasonCounts`] follow from it.

use std::ops::{Index, IndexMut};

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
    // The seventeen ways a session poisons itself.
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
}

impl std::fmt::Display for Reason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How often each [`Reason`] was raised: `counts[Reason::StreamLimit]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReasonCounts([u64; Reason::ALL.len()]);

impl ReasonCounts {
    /// Element-wise sum.
    pub fn add(&mut self, other: &ReasonCounts) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }

    /// The counts with each reason's set to `value(its text)`.
    pub fn from_fn(value: &mut impl FnMut(&'static str) -> u64) -> ReasonCounts {
        ReasonCounts(std::array::from_fn(|i| value(Reason::ALL[i].as_str())))
    }

    /// Every count as `(name, table label, value)`; a reason's text is both.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, u64)> {
        let row = |r: &Reason| (r.as_str(), r.as_str(), self[*r]);
        Reason::ALL.iter().map(row).collect()
    }
}

impl Index<Reason> for ReasonCounts {
    type Output = u64;
    fn index(&self, reason: Reason) -> &u64 {
        &self.0[reason as usize]
    }
}

impl IndexMut<Reason> for ReasonCounts {
    fn index_mut(&mut self, reason: Reason) -> &mut u64 {
        &mut self.0[reason as usize]
    }
}
