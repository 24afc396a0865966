//! # moqdns-moqt
//!
//! Media over QUIC Transport (MoQT), after draft-ietf-moq-transport-12 —
//! the subset the paper's DNS mapping uses, rebuilt from scratch on top of
//! `moqdns-quic`.
//!
//! * [`track`] — full track names: a **namespace tuple** plus a **track
//!   name**, with the 4096-byte combined limit the paper leans on for its
//!   QNAME budget (§4.3);
//! * [`message`] — control messages (SETUP, SUBSCRIBE family, FETCH family,
//!   ANNOUNCE family, GOAWAY, MAX_REQUEST_ID) exchanged on the single
//!   bidirectional control stream;
//! * [`data`] — object encodings: subgroup streams for subscriptions,
//!   fetch streams for FETCH responses, and object datagrams (used only by
//!   the streams-vs-datagrams ablation; the DNS mapping always uses
//!   streams, §4.1);
//! * [`session`] — the sans-io session state machine, an **explicit**
//!   machine (`Init → Handshaking → Ready → Draining → Closed`) driven by
//!   an exhaustive input enum: version negotiation (in the ALPN token
//!   when the peer speaks [`MOQT_ALPN`], so requests ride with
//!   CLIENT_SETUP; in SETUP otherwise), subscription/fetch
//!   bookkeeping on both publisher and subscriber side, object delivery,
//!   and the **joining fetch** (§4.1: subscribe, then fetch "the version
//!   immediately before the start of the subscription by using an offset
//!   of one"). Illegal or malformed inputs *poison* the session into
//!   `Closed`; the per-state legality table lives in the module docs;
//! * [`reason`] — [`Reason`]: every way a session is poisoned, closed or
//!   refused a data stream, one variant each with its text;
//! * [`relay`] — relay logic: aggregation of many downstream subscriptions
//!   into one upstream subscription and an object cache, operating purely
//!   on `(track, group, object)` identities — relays never inspect payloads
//!   (§3).

#[macro_use]
mod counters;
pub mod data;
pub mod message;
pub mod reason;
pub mod relay;
pub mod session;
pub mod track;

pub use message::ControlMessage;
pub use reason::{Reason, ReasonCounts};
pub use relay::{
    Failover, FederationConfig, HashShard, LinkClass, LinkId, RelayAction, RelayCore, RelayStats,
    RoutePolicy, StaticParent, UplinkId,
};
pub use session::{Session, SessionConfig, SessionEvent};
pub use track::FullTrackName;

/// The MoQT protocol version this implementation speaks (draft-12).
pub const MOQT_VERSION: u64 = 0xff00_000c;

/// Draft number of [`MOQT_VERSION`] (`0xff00_0000 | draft`).
const MOQT_DRAFT: u64 = MOQT_VERSION & 0x00ff_ffff;
const _: () = assert!(MOQT_DRAFT < 100, "the token below has two digits");

/// ALPN token for MoQT over QUIC. It names the version (`moqt-12` for
/// draft 12), so a peer that negotiates it knows the version before SETUP
/// and requests need not wait for SERVER_SETUP — the "version negotiation
/// in ALPN" cure of paper §5.2. [`alpn_version`] reads it back.
pub const MOQT_ALPN: &[u8] = &[
    b'm',
    b'o',
    b'q',
    b't',
    b'-',
    b'0' + (MOQT_DRAFT / 10) as u8,
    b'0' + (MOQT_DRAFT % 10) as u8,
];

/// The draft-12 ALPN token, which names no version: a session negotiated
/// under it keeps the strict draft-12 order (no request before
/// SERVER_SETUP, the paper's measured 3 RTT). Offered after
/// [`MOQT_ALPN`] so a peer from before the versioned token still connects.
pub const MOQT_ALPN_UNVERSIONED: &[u8] = b"moq-00";

/// The MoQT version an ALPN token names: `moqt-<draft>` is
/// `0xff00_0000 | draft`. `None` for [`MOQT_ALPN_UNVERSIONED`] and anything
/// else.
pub fn alpn_version(token: &[u8]) -> Option<u64> {
    let digits = token.strip_prefix(b"moqt-")?;
    if digits.is_empty() || digits.len() > 6 || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    // Six digits stay inside the 24 bits a draft number has.
    let draft = digits
        .iter()
        .fold(0u64, |n, d| n * 10 + u64::from(d - b'0'));
    Some(0xff00_0000 | draft)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_production_token_names_the_production_version() {
        assert_eq!(MOQT_ALPN, b"moqt-12");
        assert_eq!(alpn_version(MOQT_ALPN), Some(MOQT_VERSION));
        assert_eq!(alpn_version(b"moqt-7"), Some(0xff00_0007));
    }

    #[test]
    fn tokens_that_name_no_version() {
        for token in [
            MOQT_ALPN_UNVERSIONED,
            b"moqt-",
            b"moqt-1x",
            b"moqt--1",
            b"moqt-1000000",
            b"h3",
            b"",
        ] {
            assert_eq!(alpn_version(token), None, "{token:?}");
        }
    }
}
