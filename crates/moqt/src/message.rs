//! Control messages, after draft-ietf-moq-transport-12 §6 (a subset, and
//! not byte for byte: `docs/deviations/10`).
//!
//! All control messages flow on the single bidirectional control stream,
//! framed as `type (varint) | length (varint) | payload`. The subset here
//! is exactly what DNS-over-MoQT exercises: session setup, the SUBSCRIBE
//! family, the FETCH family (including the relative joining fetch), the
//! ANNOUNCE family (used by relays), GOAWAY and MAX_REQUEST_ID. Where
//! draft-12 has setup parameters, SETUP carries MAX_REQUEST_ID as a bare
//! varint.
//!
//! **SETUP names the version only when the ALPN token does not.** Under
//! a token that names one ([`crate::alpn_version`]), CLIENT_SETUP carries
//! no version list and SERVER_SETUP no selected version: each body is
//! MAX_REQUEST_ID alone. The body's length tells the two shapes apart,
//! so decoding needs no context: a body that is one varint names no
//! version, and a CLIENT_SETUP that lists versions lists at least one.
//! [`ControlMessage::ClientSetup`] with an empty `versions` and
//! [`ControlMessage::ServerSetup`] with `version: None` are the
//! versionless shapes.

use crate::track::FullTrackName;
use moqdns_wire::{varint, Reader, WireError, WireResult, Writer};

/// Subscription filter: where in the track the subscription starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterType {
    /// Deliver objects from the next group onward (the DNS mapping's mode).
    LatestObject,
    /// Deliver from an absolute (group, object) position.
    AbsoluteStart {
        /// Starting group.
        group: u64,
        /// Starting object within the group.
        object: u64,
    },
}

/// How a FETCH names its range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchType {
    /// Standalone fetch of an absolute range (inclusive start, exclusive
    /// end group; end_group == 0 means "just start group").
    StandAlone {
        /// Track to fetch from.
        track: FullTrackName,
        /// First group.
        start_group: u64,
        /// First object.
        start_object: u64,
        /// Last group (inclusive).
        end_group: u64,
    },
    /// Joining fetch relative to an existing subscription: fetch the
    /// `joining_start` groups preceding the subscription's start. The DNS
    /// lookup uses offset 1 — "the version immediately before the start of
    /// the subscription" (paper §4.1).
    RelativeJoining {
        /// Request id of the subscription being joined.
        joining_request_id: u64,
        /// How many groups before the subscription start to fetch.
        joining_start: u64,
    },
    /// Relay-federation fetch between peer cores (not part of draft-12;
    /// a private extension tag). Identical to a standalone fetch except it
    /// carries the remaining **hop budget**: each core that re-forwards a
    /// peer fetch decrements it, and a fetch arriving with budget 0 is
    /// rejected — rerouted requests can therefore never cycle through the
    /// core graph.
    Peer {
        /// Track to fetch from.
        track: FullTrackName,
        /// First group.
        start_group: u64,
        /// Last group (inclusive).
        end_group: u64,
        /// Remaining core-to-core forwards this fetch may take.
        hop_budget: u64,
    },
}

/// A control message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMessage {
    /// Client's session setup offer.
    ClientSetup {
        /// Supported protocol versions; empty when the ALPN token names
        /// the version (module docs).
        versions: Vec<u64>,
        /// Maximum request id the peer may use.
        max_request_id: u64,
    },
    /// Server's setup answer.
    ServerSetup {
        /// Selected version; `None` when the ALPN token names it (module
        /// docs).
        version: Option<u64>,
        /// Maximum request id the peer may use.
        max_request_id: u64,
    },
    /// Request ongoing delivery of a track.
    Subscribe {
        /// Request id (even = client-initiated, odd = server-initiated).
        request_id: u64,
        /// Subscriber-chosen alias used in data streams.
        track_alias: u64,
        /// The track.
        track: FullTrackName,
        /// Where to start.
        filter: FilterType,
    },
    /// Accept a subscription.
    SubscribeOk {
        /// Request being answered.
        request_id: u64,
        /// Subscription expiry in milliseconds (0 = never).
        expires_ms: u64,
        /// Largest (group, object) the publisher has, if any.
        largest: Option<(u64, u64)>,
    },
    /// Refuse a subscription — also the fallback signal when a recursive
    /// resolver cannot provide updates for a record (paper §4.5).
    SubscribeError {
        /// Request being answered.
        request_id: u64,
        /// Error code.
        code: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Subscriber ends a subscription.
    Unsubscribe {
        /// The subscription's request id.
        request_id: u64,
    },
    /// Publisher ends a subscription.
    SubscribeDone {
        /// The subscription's request id.
        request_id: u64,
        /// Status code.
        code: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Request past objects.
    Fetch {
        /// Request id.
        request_id: u64,
        /// What to fetch.
        fetch: FetchType,
    },
    /// Accept a fetch; objects follow on a fetch stream.
    FetchOk {
        /// Request being answered.
        request_id: u64,
        /// Largest (group, object) available.
        largest: (u64, u64),
    },
    /// Refuse a fetch.
    FetchError {
        /// Request being answered.
        request_id: u64,
        /// Error code.
        code: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Cancel an in-progress fetch.
    FetchCancel {
        /// The fetch's request id.
        request_id: u64,
    },
    /// Publisher advertises a namespace (relays use this upstream).
    Announce {
        /// Request id.
        request_id: u64,
        /// The namespace tuple being announced.
        namespace: Vec<Vec<u8>>,
    },
    /// Accept an announcement.
    AnnounceOk {
        /// Request being answered.
        request_id: u64,
    },
    /// Refuse an announcement.
    AnnounceError {
        /// Request being answered.
        request_id: u64,
        /// Error code.
        code: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Withdraw an announcement.
    Unannounce {
        /// The announcement's namespace.
        namespace: Vec<Vec<u8>>,
    },
    /// Raise the peer's allowed request id space.
    MaxRequestId {
        /// New maximum.
        max: u64,
    },
    /// Ask the peer to move to another session.
    GoAway {
        /// Redirect URI (may be empty).
        uri: String,
    },
}

const T_CLIENT_SETUP: u64 = 0x20;
const T_SERVER_SETUP: u64 = 0x21;
const T_SUBSCRIBE: u64 = 0x03;
const T_SUBSCRIBE_OK: u64 = 0x04;
const T_SUBSCRIBE_ERROR: u64 = 0x05;
const T_UNSUBSCRIBE: u64 = 0x0A;
const T_SUBSCRIBE_DONE: u64 = 0x0B;
const T_FETCH: u64 = 0x16;
const T_FETCH_CANCEL: u64 = 0x17;
const T_FETCH_OK: u64 = 0x18;
const T_FETCH_ERROR: u64 = 0x19;
const T_ANNOUNCE: u64 = 0x06;
const T_ANNOUNCE_OK: u64 = 0x07;
const T_ANNOUNCE_ERROR: u64 = 0x08;
const T_UNANNOUNCE: u64 = 0x09;
const T_MAX_REQUEST_ID: u64 = 0x15;
const T_GOAWAY: u64 = 0x10;

fn put_string(w: &mut Writer, s: &str) {
    varint::put_varint(w, s.len() as u64);
    w.put_slice(s.as_bytes());
}

fn get_string(r: &mut Reader<'_>) -> WireResult<String> {
    let len = varint::get_varint(r)? as usize;
    if len > 8192 {
        return Err(WireError::Invalid {
            what: "string length",
        });
    }
    let bytes = r.get_vec(len)?;
    String::from_utf8(bytes).map_err(|_| WireError::Invalid {
        what: "utf-8 string",
    })
}

fn put_namespace(w: &mut Writer, ns: &[Vec<u8>]) {
    varint::put_varint(w, ns.len() as u64);
    for e in ns {
        varint::put_varint(w, e.len() as u64);
        w.put_slice(e);
    }
}

fn get_namespace(r: &mut Reader<'_>) -> WireResult<Vec<Vec<u8>>> {
    let n = varint::get_varint(r)? as usize;
    if n > crate::track::MAX_NAMESPACE_ELEMENTS {
        return Err(WireError::Invalid {
            what: "namespace element count",
        });
    }
    let mut ns = Vec::with_capacity(n);
    for _ in 0..n {
        let len = varint::get_varint(r)? as usize;
        ns.push(r.get_vec(len)?);
    }
    Ok(ns)
}

impl ControlMessage {
    /// Message type code.
    pub fn type_code(&self) -> u64 {
        match self {
            ControlMessage::ClientSetup { .. } => T_CLIENT_SETUP,
            ControlMessage::ServerSetup { .. } => T_SERVER_SETUP,
            ControlMessage::Subscribe { .. } => T_SUBSCRIBE,
            ControlMessage::SubscribeOk { .. } => T_SUBSCRIBE_OK,
            ControlMessage::SubscribeError { .. } => T_SUBSCRIBE_ERROR,
            ControlMessage::Unsubscribe { .. } => T_UNSUBSCRIBE,
            ControlMessage::SubscribeDone { .. } => T_SUBSCRIBE_DONE,
            ControlMessage::Fetch { .. } => T_FETCH,
            ControlMessage::FetchOk { .. } => T_FETCH_OK,
            ControlMessage::FetchError { .. } => T_FETCH_ERROR,
            ControlMessage::FetchCancel { .. } => T_FETCH_CANCEL,
            ControlMessage::Announce { .. } => T_ANNOUNCE,
            ControlMessage::AnnounceOk { .. } => T_ANNOUNCE_OK,
            ControlMessage::AnnounceError { .. } => T_ANNOUNCE_ERROR,
            ControlMessage::Unannounce { .. } => T_UNANNOUNCE,
            ControlMessage::MaxRequestId { .. } => T_MAX_REQUEST_ID,
            ControlMessage::GoAway { .. } => T_GOAWAY,
        }
    }

    /// Encodes as a framed control-stream message.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        let mut scratch = Writer::new();
        self.encode_into(&mut w, &mut scratch);
        w.into_vec()
    }

    /// Encodes onto `w`, using `scratch` for the length-prefixed body.
    /// Hot paths pass recycled writers (see [`moqdns_wire::BufPool`]) so
    /// per-message encoding allocates nothing in steady state.
    pub fn encode_into(&self, w: &mut Writer, scratch: &mut Writer) {
        scratch.clear();
        self.encode_body(scratch);
        varint::put_varint(w, self.type_code());
        varint::put_varint(w, scratch.len() as u64);
        w.put_slice(scratch.as_slice());
    }

    fn encode_body(&self, body: &mut Writer) {
        match self {
            ControlMessage::ClientSetup {
                versions,
                max_request_id,
            } => {
                if !versions.is_empty() {
                    varint::put_varint(body, versions.len() as u64);
                    for v in versions {
                        varint::put_varint(body, *v);
                    }
                }
                varint::put_varint(body, *max_request_id);
            }
            ControlMessage::ServerSetup {
                version,
                max_request_id,
            } => {
                if let Some(v) = version {
                    varint::put_varint(body, *v);
                }
                varint::put_varint(body, *max_request_id);
            }
            ControlMessage::Subscribe {
                request_id,
                track_alias,
                track,
                filter,
            } => {
                varint::put_varint(body, *request_id);
                varint::put_varint(body, *track_alias);
                track.encode(body);
                match filter {
                    FilterType::LatestObject => varint::put_varint(body, 0x2),
                    FilterType::AbsoluteStart { group, object } => {
                        varint::put_varint(body, 0x3);
                        varint::put_varint(body, *group);
                        varint::put_varint(body, *object);
                    }
                }
            }
            ControlMessage::SubscribeOk {
                request_id,
                expires_ms,
                largest,
            } => {
                varint::put_varint(body, *request_id);
                varint::put_varint(body, *expires_ms);
                match largest {
                    Some((g, o)) => {
                        body.put_u8(1);
                        varint::put_varint(body, *g);
                        varint::put_varint(body, *o);
                    }
                    None => body.put_u8(0),
                }
            }
            ControlMessage::SubscribeError {
                request_id,
                code,
                reason,
            }
            | ControlMessage::FetchError {
                request_id,
                code,
                reason,
            }
            | ControlMessage::SubscribeDone {
                request_id,
                code,
                reason,
            }
            | ControlMessage::AnnounceError {
                request_id,
                code,
                reason,
            } => {
                varint::put_varint(body, *request_id);
                varint::put_varint(body, *code);
                put_string(body, reason);
            }
            ControlMessage::Unsubscribe { request_id }
            | ControlMessage::FetchCancel { request_id }
            | ControlMessage::AnnounceOk { request_id } => {
                varint::put_varint(body, *request_id);
            }
            ControlMessage::Fetch { request_id, fetch } => {
                varint::put_varint(body, *request_id);
                match fetch {
                    FetchType::StandAlone {
                        track,
                        start_group,
                        start_object,
                        end_group,
                    } => {
                        varint::put_varint(body, 0x1);
                        track.encode(body);
                        varint::put_varint(body, *start_group);
                        varint::put_varint(body, *start_object);
                        varint::put_varint(body, *end_group);
                    }
                    FetchType::RelativeJoining {
                        joining_request_id,
                        joining_start,
                    } => {
                        varint::put_varint(body, 0x2);
                        varint::put_varint(body, *joining_request_id);
                        varint::put_varint(body, *joining_start);
                    }
                    FetchType::Peer {
                        track,
                        start_group,
                        end_group,
                        hop_budget,
                    } => {
                        varint::put_varint(body, 0x3);
                        track.encode(body);
                        varint::put_varint(body, *start_group);
                        varint::put_varint(body, *end_group);
                        varint::put_varint(body, *hop_budget);
                    }
                }
            }
            ControlMessage::FetchOk {
                request_id,
                largest,
            } => {
                varint::put_varint(body, *request_id);
                varint::put_varint(body, largest.0);
                varint::put_varint(body, largest.1);
            }
            ControlMessage::Announce {
                request_id,
                namespace,
            } => {
                varint::put_varint(body, *request_id);
                put_namespace(body, namespace);
            }
            ControlMessage::Unannounce { namespace } => {
                put_namespace(body, namespace);
            }
            ControlMessage::MaxRequestId { max } => {
                varint::put_varint(body, *max);
            }
            ControlMessage::GoAway { uri } => {
                put_string(body, uri);
            }
        }
    }

    /// Tries to decode one framed message from the front of `buf`.
    /// Returns `Ok(None)` if more bytes are needed, otherwise the message
    /// and how many bytes it consumed.
    pub fn decode(buf: &[u8]) -> WireResult<Option<(ControlMessage, usize)>> {
        let mut r = Reader::new(buf);
        let Ok(ty) = varint::get_varint(&mut r) else {
            return Ok(None);
        };
        let Ok(len) = varint::get_varint(&mut r) else {
            return Ok(None);
        };
        if len > 65_536 {
            return Err(WireError::Invalid {
                what: "control message length",
            });
        }
        if r.remaining() < len as usize {
            return Ok(None);
        }
        // The body is read on its own, so a SETUP can tell by where it
        // ends whether it names a version (module docs).
        let msg = r.sub(len as usize, |body| Self::decode_body(ty, body))?;
        Ok(Some((msg, r.position())))
    }

    fn decode_body(ty: u64, r: &mut Reader<'_>) -> WireResult<ControlMessage> {
        Ok(match ty {
            T_CLIENT_SETUP => {
                let first = varint::get_varint(r)?;
                if r.is_empty() {
                    return Ok(ControlMessage::ClientSetup {
                        versions: Vec::new(),
                        max_request_id: first,
                    });
                }
                let n = first as usize;
                if n == 0 || n > 32 {
                    return Err(WireError::Invalid {
                        what: "version count",
                    });
                }
                let mut versions = Vec::with_capacity(n);
                for _ in 0..n {
                    versions.push(varint::get_varint(r)?);
                }
                ControlMessage::ClientSetup {
                    versions,
                    max_request_id: varint::get_varint(r)?,
                }
            }
            T_SERVER_SETUP => {
                let first = varint::get_varint(r)?;
                if r.is_empty() {
                    return Ok(ControlMessage::ServerSetup {
                        version: None,
                        max_request_id: first,
                    });
                }
                ControlMessage::ServerSetup {
                    version: Some(first),
                    max_request_id: varint::get_varint(r)?,
                }
            }
            T_SUBSCRIBE => {
                let request_id = varint::get_varint(r)?;
                let track_alias = varint::get_varint(r)?;
                let track = FullTrackName::decode(r)?;
                let filter = match varint::get_varint(r)? {
                    0x2 => FilterType::LatestObject,
                    0x3 => FilterType::AbsoluteStart {
                        group: varint::get_varint(r)?,
                        object: varint::get_varint(r)?,
                    },
                    _ => {
                        return Err(WireError::Invalid {
                            what: "filter type",
                        })
                    }
                };
                ControlMessage::Subscribe {
                    request_id,
                    track_alias,
                    track,
                    filter,
                }
            }
            T_SUBSCRIBE_OK => {
                let request_id = varint::get_varint(r)?;
                let expires_ms = varint::get_varint(r)?;
                let largest = match r.get_u8()? {
                    0 => None,
                    1 => Some((varint::get_varint(r)?, varint::get_varint(r)?)),
                    _ => {
                        return Err(WireError::Invalid {
                            what: "content-exists flag",
                        })
                    }
                };
                ControlMessage::SubscribeOk {
                    request_id,
                    expires_ms,
                    largest,
                }
            }
            T_SUBSCRIBE_ERROR => ControlMessage::SubscribeError {
                request_id: varint::get_varint(r)?,
                code: varint::get_varint(r)?,
                reason: get_string(r)?,
            },
            T_UNSUBSCRIBE => ControlMessage::Unsubscribe {
                request_id: varint::get_varint(r)?,
            },
            T_SUBSCRIBE_DONE => ControlMessage::SubscribeDone {
                request_id: varint::get_varint(r)?,
                code: varint::get_varint(r)?,
                reason: get_string(r)?,
            },
            T_FETCH => {
                let request_id = varint::get_varint(r)?;
                let fetch = match varint::get_varint(r)? {
                    0x1 => FetchType::StandAlone {
                        track: FullTrackName::decode(r)?,
                        start_group: varint::get_varint(r)?,
                        start_object: varint::get_varint(r)?,
                        end_group: varint::get_varint(r)?,
                    },
                    0x2 => FetchType::RelativeJoining {
                        joining_request_id: varint::get_varint(r)?,
                        joining_start: varint::get_varint(r)?,
                    },
                    0x3 => FetchType::Peer {
                        track: FullTrackName::decode(r)?,
                        start_group: varint::get_varint(r)?,
                        end_group: varint::get_varint(r)?,
                        hop_budget: varint::get_varint(r)?,
                    },
                    _ => return Err(WireError::Invalid { what: "fetch type" }),
                };
                ControlMessage::Fetch { request_id, fetch }
            }
            T_FETCH_OK => ControlMessage::FetchOk {
                request_id: varint::get_varint(r)?,
                largest: (varint::get_varint(r)?, varint::get_varint(r)?),
            },
            T_FETCH_ERROR => ControlMessage::FetchError {
                request_id: varint::get_varint(r)?,
                code: varint::get_varint(r)?,
                reason: get_string(r)?,
            },
            T_FETCH_CANCEL => ControlMessage::FetchCancel {
                request_id: varint::get_varint(r)?,
            },
            T_ANNOUNCE => ControlMessage::Announce {
                request_id: varint::get_varint(r)?,
                namespace: get_namespace(r)?,
            },
            T_ANNOUNCE_OK => ControlMessage::AnnounceOk {
                request_id: varint::get_varint(r)?,
            },
            T_ANNOUNCE_ERROR => ControlMessage::AnnounceError {
                request_id: varint::get_varint(r)?,
                code: varint::get_varint(r)?,
                reason: get_string(r)?,
            },
            T_UNANNOUNCE => ControlMessage::Unannounce {
                namespace: get_namespace(r)?,
            },
            T_MAX_REQUEST_ID => ControlMessage::MaxRequestId {
                max: varint::get_varint(r)?,
            },
            T_GOAWAY => ControlMessage::GoAway {
                uri: get_string(r)?,
            },
            _ => {
                return Err(WireError::Invalid {
                    what: "control message type",
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn track() -> FullTrackName {
        FullTrackName::new(
            vec![vec![0x01], vec![0x00, 0x01], vec![0x00, 0x01]],
            b"\x03www\x07example\x03com\x00".to_vec(),
        )
        .unwrap()
    }

    fn all_messages() -> Vec<ControlMessage> {
        vec![
            ControlMessage::ClientSetup {
                versions: vec![crate::MOQT_VERSION, 0xff00_000b],
                max_request_id: 256,
            },
            ControlMessage::ClientSetup {
                versions: Vec::new(),
                max_request_id: 256,
            },
            ControlMessage::ServerSetup {
                version: Some(crate::MOQT_VERSION),
                max_request_id: 128,
            },
            ControlMessage::ServerSetup {
                version: None,
                max_request_id: 128,
            },
            ControlMessage::Subscribe {
                request_id: 2,
                track_alias: 2,
                track: track(),
                filter: FilterType::LatestObject,
            },
            ControlMessage::Subscribe {
                request_id: 4,
                track_alias: 4,
                track: track(),
                filter: FilterType::AbsoluteStart {
                    group: 9,
                    object: 0,
                },
            },
            ControlMessage::SubscribeOk {
                request_id: 2,
                expires_ms: 0,
                largest: Some((17, 0)),
            },
            ControlMessage::SubscribeOk {
                request_id: 2,
                expires_ms: 60_000,
                largest: None,
            },
            ControlMessage::SubscribeError {
                request_id: 2,
                code: 0x4,
                reason: "no updates available".into(),
            },
            ControlMessage::Unsubscribe { request_id: 2 },
            ControlMessage::SubscribeDone {
                request_id: 2,
                code: 0x0,
                reason: "track ended".into(),
            },
            ControlMessage::Fetch {
                request_id: 6,
                fetch: FetchType::StandAlone {
                    track: track(),
                    start_group: 1,
                    start_object: 0,
                    end_group: 5,
                },
            },
            ControlMessage::Fetch {
                request_id: 8,
                fetch: FetchType::RelativeJoining {
                    joining_request_id: 2,
                    joining_start: 1,
                },
            },
            ControlMessage::Fetch {
                request_id: 10,
                fetch: FetchType::Peer {
                    track: track(),
                    start_group: 0,
                    end_group: 5,
                    hop_budget: 3,
                },
            },
            ControlMessage::FetchOk {
                request_id: 6,
                largest: (17, 0),
            },
            ControlMessage::FetchError {
                request_id: 6,
                code: 0x5,
                reason: "no such track".into(),
            },
            ControlMessage::FetchCancel { request_id: 6 },
            ControlMessage::Announce {
                request_id: 10,
                namespace: vec![vec![1], vec![2, 3]],
            },
            ControlMessage::AnnounceOk { request_id: 10 },
            ControlMessage::AnnounceError {
                request_id: 10,
                code: 1,
                reason: "not authorized".into(),
            },
            ControlMessage::Unannounce {
                namespace: vec![vec![1]],
            },
            ControlMessage::MaxRequestId { max: 1024 },
            ControlMessage::GoAway { uri: "".into() },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for m in all_messages() {
            let enc = m.encode();
            let (dec, used) = ControlMessage::decode(&enc).unwrap().unwrap();
            assert_eq!(dec, m);
            assert_eq!(used, enc.len());
        }
    }

    /// A SETUP that leaves the version to the ALPN token is MAX_REQUEST_ID
    /// alone; one that names it is draft-12's. The same bytes decode the
    /// same way whatever token the reader runs under.
    #[test]
    fn setup_names_the_version_only_in_its_draft_12_shape() {
        let client = |versions| ControlMessage::ClientSetup {
            versions,
            max_request_id: 1 << 20,
        };
        let server = |version| ControlMessage::ServerSetup {
            version,
            max_request_id: 1 << 20,
        };
        let mrid = [0x80, 0x10, 0x00, 0x00];
        assert_eq!(
            client(Vec::new()).encode(),
            [&[0x20, 4][..], &mrid].concat()
        );
        assert_eq!(server(None).encode(), [&[0x21, 4][..], &mrid].concat());
        let v12 = [0xC0, 0, 0, 0, 0xFF, 0, 0, 0x0C];
        assert_eq!(
            client(vec![crate::MOQT_VERSION]).encode(),
            [&[0x20, 13, 1][..], &v12, &mrid].concat()
        );
        assert_eq!(
            server(Some(crate::MOQT_VERSION)).encode(),
            [&[0x21, 12][..], &v12, &mrid].concat()
        );
        // The 17 bytes a versioned token saves on a first lookup.
        let saved = client(vec![crate::MOQT_VERSION]).encode().len()
            + server(Some(crate::MOQT_VERSION)).encode().len()
            - client(Vec::new()).encode().len()
            - server(None).encode().len();
        assert_eq!(saved, 17);
    }

    /// An empty version list has one encoding: the absent one. A list
    /// that is present but empty does not decode.
    #[test]
    fn an_empty_version_list_is_written_as_none() {
        let mut w = Writer::new();
        varint::put_varint(&mut w, T_CLIENT_SETUP);
        varint::put_varint(&mut w, 2);
        varint::put_varint(&mut w, 0);
        varint::put_varint(&mut w, 64);
        assert!(ControlMessage::decode(&w.into_vec()).is_err());
    }

    #[test]
    fn streamed_messages_parse_sequentially() {
        let msgs = all_messages();
        let mut buf = Vec::new();
        for m in &msgs {
            buf.extend_from_slice(&m.encode());
        }
        let mut off = 0;
        let mut out = Vec::new();
        while off < buf.len() {
            let (m, used) = ControlMessage::decode(&buf[off..]).unwrap().unwrap();
            out.push(m);
            off += used;
        }
        assert_eq!(out, msgs);
    }

    #[test]
    fn partial_message_needs_more_bytes() {
        let enc = ControlMessage::MaxRequestId { max: 100_000 }.encode();
        for cut in 0..enc.len() {
            assert!(matches!(ControlMessage::decode(&enc[..cut]), Ok(None)));
        }
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut enc = ControlMessage::MaxRequestId { max: 5 }.encode();
        // Inflate the declared length.
        enc[1] += 1;
        enc.push(0);
        assert!(ControlMessage::decode(&enc).is_err());
    }

    #[test]
    fn unknown_type_rejected() {
        let mut w = Writer::new();
        varint::put_varint(&mut w, 0x3A);
        varint::put_varint(&mut w, 0);
        assert!(ControlMessage::decode(&w.into_vec()).is_err());
    }

    #[test]
    fn giant_length_rejected() {
        let mut w = Writer::new();
        varint::put_varint(&mut w, T_GOAWAY);
        varint::put_varint(&mut w, 1 << 30);
        assert!(ControlMessage::decode(&w.into_vec()).is_err());
    }

    proptest! {
        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = ControlMessage::decode(&bytes);
        }

        // The framing contract the session's control-buffer drain loop
        // relies on: a successful decode never claims more bytes than the
        // buffer holds (an over-read would desynchronize every later
        // message), and never claims zero (a zero-read would spin the
        // drain loop forever).
        #[test]
        fn prop_decode_never_over_reads(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
            if let Ok(Some((_, used))) = ControlMessage::decode(&bytes) {
                prop_assert!(used <= bytes.len());
                prop_assert!(used > 0);
            }
        }

        // Both shapes of both SETUPs round-trip, each in exactly the
        // bytes it encoded to.
        #[test]
        fn prop_setup_roundtrips(
            versions in proptest::collection::vec(any::<u32>(), 0..4),
            max_request_id in any::<u32>(),
        ) {
            let versions: Vec<u64> = versions.into_iter().map(u64::from).collect();
            let max_request_id = u64::from(max_request_id);
            let version = versions.first().copied();
            for msg in [
                ControlMessage::ClientSetup { versions, max_request_id },
                ControlMessage::ServerSetup { version, max_request_id },
            ] {
                let enc = msg.encode();
                prop_assert_eq!(ControlMessage::decode(&enc).unwrap(), Some((msg, enc.len())));
            }
        }

        // Re-decoding an encoded message from a buffer with trailing
        // garbage must consume exactly the encoding — the next message's
        // bytes are not this message's to eat.
        #[test]
        fn prop_decode_consumes_exactly_one_frame(
            request_id in any::<u32>(),
            trailing in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let msg = ControlMessage::MaxRequestId { max: request_id as u64 };
            let mut buf = msg.encode();
            let frame_len = buf.len();
            buf.extend_from_slice(&trailing);
            let (decoded, used) = ControlMessage::decode(&buf).unwrap().unwrap();
            prop_assert_eq!(used, frame_len);
            prop_assert_eq!(decoded, msg);
        }
    }
}
