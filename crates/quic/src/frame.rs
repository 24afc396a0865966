//! Frames — the unit of information inside packets.
//!
//! A recognizable subset of RFC 9000 §19 plus the RFC 9221 DATAGRAM frame,
//! with their type codes and field order. A STREAM frame's type carries
//! its OFF, LEN and FIN bits (0x08–0x0f, §19.8): the offset is left out
//! when it is 0, and FIN is no byte of its own. A frame without a length
//! runs to the end of its packet (§12.4), so the encoder leaves the length
//! out of a STREAM or DATAGRAM frame (type 0x30, RFC 9221 §4) only when it
//! is the last frame of its packet: [`Frame::encode_last`]. Every other
//! frame, CRYPTO included, is the same wherever it stands.
//!
//! A frame borrows what it does not share: an ACK frame's ranges are read
//! where they stand in the datagram, or written straight from the
//! connection's [`AckTracker`] ([`AckRanges`]), and a CONNECTION_CLOSE's
//! reason is a slice. Decoding one allocates nothing.

use crate::recovery::AckTracker;
use crate::streams::StreamId;
use moqdns_wire::{varint, Payload, Reader, WireError, WireResult, Writer};

/// A QUIC frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<'a> {
    /// Padding (ignored).
    Padding,
    /// Liveness probe; elicits an ACK. Used for §5.1 keep-alives.
    Ping,
    /// Acknowledgment: ranges of received packet numbers, descending.
    Ack {
        /// Inclusive `(start, end)` packet-number ranges, highest first.
        ranges: AckRanges<'a>,
    },
    /// Handshake bytes at an offset (our simulated TLS flights ride here).
    /// A shared handle, like a STREAM frame's: the flight a connection
    /// keeps for retransmission goes out without a copy, and on receive
    /// it is a sub-view of the datagram.
    Crypto {
        /// Offset in the crypto stream.
        offset: u64,
        /// Handshake bytes.
        data: Payload,
    },
    /// Stream data. The payload is a shared handle: on receive it is a
    /// sub-view of the datagram buffer (zero-copy reassembly), on send a
    /// view of the send buffer slice being (re)transmitted.
    Stream {
        /// Stream id.
        id: StreamId,
        /// Offset of `data` in the stream.
        offset: u64,
        /// True if this ends the stream.
        fin: bool,
        /// Payload bytes.
        data: Payload,
    },
    /// Abrupt stream termination by the sender.
    ResetStream {
        /// Stream id.
        id: StreamId,
        /// Application error code.
        error_code: u64,
    },
    /// Request that the peer stop sending on a stream.
    StopSending {
        /// Stream id.
        id: StreamId,
        /// Application error code.
        error_code: u64,
    },
    /// Connection-level flow control credit.
    MaxData {
        /// New total byte limit.
        max: u64,
    },
    /// Stream-level flow control credit.
    MaxStreamData {
        /// Stream id.
        id: StreamId,
        /// New total byte limit for the stream.
        max: u64,
    },
    /// Stream-count credit for a direction.
    MaxStreams {
        /// True for bidirectional streams.
        bidi: bool,
        /// New total stream count.
        max: u64,
    },
    /// Handshake confirmed (server → client).
    HandshakeDone,
    /// Unreliable application datagram (RFC 9221). The payload is a
    /// shared handle so queueing and packing never copy the bytes.
    Datagram {
        /// Payload.
        data: Payload,
    },
    /// Connection close with an error code and reason.
    ConnectionClose {
        /// Error code (0 = no error).
        error_code: u64,
        /// UTF-8 reason phrase.
        reason: &'a [u8],
    },
}

/// An ACK frame's ranges: inclusive `(start, end)` packet-number pairs,
/// highest first, wherever they are held. A decoded frame's are read
/// where they stand in the datagram; a connection's are written straight
/// from its tracker (`From<&AckTracker>`); a list makes a frame by hand.
#[derive(Clone)]
pub struct AckRanges<'a>(Held<'a>);

#[derive(Clone)]
enum Held<'a> {
    /// `count` pairs of varints, checked when the frame was decoded.
    Read { count: usize, bytes: &'a [u8] },
    /// What [`AckTracker::ack_ranges`] reports.
    Tracker(&'a AckTracker),
    /// A list, for a frame built by hand.
    Listed(Vec<(u64, u64)>),
}

impl<'a> From<&'a AckTracker> for AckRanges<'a> {
    fn from(tracker: &'a AckTracker) -> AckRanges<'a> {
        AckRanges(Held::Tracker(tracker))
    }
}

impl From<Vec<(u64, u64)>> for AckRanges<'_> {
    fn from(ranges: Vec<(u64, u64)>) -> Self {
        AckRanges(Held::Listed(ranges))
    }
}

impl AckRanges<'_> {
    /// The ranges, highest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (read, tracker, listed) = match &self.0 {
            Held::Read { count, bytes } => {
                let mut r = Reader::new(bytes);
                let pairs = (0..*count).map_while(move |_| {
                    Some((
                        varint::get_varint(&mut r).ok()?,
                        varint::get_varint(&mut r).ok()?,
                    ))
                });
                (Some(pairs), None, None)
            }
            Held::Tracker(t) => (None, Some(t.ack_ranges()), None),
            Held::Listed(l) => (None, None, Some(l.iter().copied())),
        };
        read.into_iter()
            .flatten()
            .chain(tracker.into_iter().flatten())
            .chain(listed.into_iter().flatten())
    }

    /// Number of ranges.
    pub fn len(&self) -> usize {
        match &self.0 {
            Held::Read { count, .. } => *count,
            Held::Tracker(t) => t.ack_range_count(),
            Held::Listed(l) => l.len(),
        }
    }

    /// True when there is no range.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PartialEq for AckRanges<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for AckRanges<'_> {}

impl std::fmt::Debug for AckRanges<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

// Frame type codes (RFC 9000 §19, RFC 9221 §4).
const T_PADDING: u64 = 0x00;
const T_PING: u64 = 0x01;
const T_ACK: u64 = 0x02;
const T_CRYPTO: u64 = 0x06;
/// STREAM is 0x08–0x0f: these three bits say which fields follow.
const T_STREAM: u64 = 0x08;
const STREAM_OFF: u64 = 0x04;
const STREAM_LEN: u64 = 0x02;
const STREAM_FIN: u64 = 0x01;
const T_STREAM_MAX: u64 = T_STREAM | STREAM_OFF | STREAM_LEN | STREAM_FIN;
const T_RESET_STREAM: u64 = 0x04;
const T_STOP_SENDING: u64 = 0x05;
const T_MAX_DATA: u64 = 0x10;
const T_MAX_STREAM_DATA: u64 = 0x11;
const T_MAX_STREAMS_BIDI: u64 = 0x12;
const T_MAX_STREAMS_UNI: u64 = 0x13;
const T_HANDSHAKE_DONE: u64 = 0x1e;
/// DATAGRAM without a length, and with one.
const T_DATAGRAM: u64 = 0x30;
const T_DATAGRAM_LEN: u64 = 0x31;
const T_CONNECTION_CLOSE: u64 = 0x1c;

impl<'a> Frame<'a> {
    /// True if this frame counts as "ack-eliciting" (RFC 9002 §2).
    pub fn is_ack_eliciting(&self) -> bool {
        !matches!(
            self,
            Frame::Ack { .. } | Frame::Padding | Frame::ConnectionClose { .. }
        )
    }

    /// Exact size of [`Frame::encode`]'s bytes, computed without
    /// encoding. Keeps the packetizer's size accounting allocation-free;
    /// it is never below [`Frame::encoded_len_last`].
    pub fn encoded_len(&self) -> usize {
        self.sized(false)
    }

    /// Exact size of [`Frame::encode_last`]'s bytes.
    pub fn encoded_len_last(&self) -> usize {
        self.sized(true)
    }

    /// Encodes the frame onto `w` with every length it has, so that
    /// another frame may follow it in its packet.
    pub fn encode(&self, w: &mut Writer) {
        self.put(w, false)
    }

    /// Encodes the frame onto `w` as the last of its packet: a STREAM or
    /// DATAGRAM frame leaves its length out and runs to the packet's end.
    pub fn encode_last(&self, w: &mut Writer) {
        self.put(w, true)
    }

    fn sized(&self, last: bool) -> usize {
        use moqdns_wire::varint::varint_len as vl;
        match self {
            Frame::Padding => vl(T_PADDING),
            Frame::Ping => vl(T_PING),
            Frame::Ack { ranges } => {
                vl(T_ACK)
                    + vl(ranges.len() as u64)
                    + ranges.iter().map(|(s, e)| vl(s) + vl(e)).sum::<usize>()
            }
            Frame::Crypto { offset, data } => {
                vl(T_CRYPTO) + vl(*offset) + vl(data.len() as u64) + data.len()
            }
            Frame::Stream {
                id,
                offset,
                fin,
                data,
            } => {
                let ty = stream_type(*offset, *fin, last);
                vl(ty)
                    + vl(id.0)
                    + if ty & STREAM_OFF != 0 { vl(*offset) } else { 0 }
                    + if ty & STREAM_LEN != 0 {
                        vl(data.len() as u64)
                    } else {
                        0
                    }
                    + data.len()
            }
            Frame::ResetStream { id, error_code } => {
                vl(T_RESET_STREAM) + vl(id.0) + vl(*error_code)
            }
            Frame::StopSending { id, error_code } => {
                vl(T_STOP_SENDING) + vl(id.0) + vl(*error_code)
            }
            Frame::MaxData { max } => vl(T_MAX_DATA) + vl(*max),
            Frame::MaxStreamData { id, max } => vl(T_MAX_STREAM_DATA) + vl(id.0) + vl(*max),
            Frame::MaxStreams { bidi, max } => {
                vl(if *bidi {
                    T_MAX_STREAMS_BIDI
                } else {
                    T_MAX_STREAMS_UNI
                }) + vl(*max)
            }
            Frame::HandshakeDone => vl(T_HANDSHAKE_DONE),
            Frame::Datagram { data } if last => vl(T_DATAGRAM) + data.len(),
            Frame::Datagram { data } => vl(T_DATAGRAM_LEN) + vl(data.len() as u64) + data.len(),
            Frame::ConnectionClose { error_code, reason } => {
                vl(T_CONNECTION_CLOSE) + vl(*error_code) + vl(reason.len() as u64) + reason.len()
            }
        }
    }

    fn put(&self, w: &mut Writer, last: bool) {
        match self {
            Frame::Padding => varint::put_varint(w, T_PADDING),
            Frame::Ping => varint::put_varint(w, T_PING),
            Frame::Ack { ranges } => {
                varint::put_varint(w, T_ACK);
                varint::put_varint(w, ranges.len() as u64);
                for (start, end) in ranges.iter() {
                    varint::put_varint(w, start);
                    varint::put_varint(w, end);
                }
            }
            Frame::Crypto { offset, data } => {
                varint::put_varint(w, T_CRYPTO);
                varint::put_varint(w, *offset);
                varint::put_varint(w, data.len() as u64);
                w.put_slice(data);
            }
            Frame::Stream {
                id,
                offset,
                fin,
                data,
            } => {
                let ty = stream_type(*offset, *fin, last);
                varint::put_varint(w, ty);
                varint::put_varint(w, id.0);
                if ty & STREAM_OFF != 0 {
                    varint::put_varint(w, *offset);
                }
                if ty & STREAM_LEN != 0 {
                    varint::put_varint(w, data.len() as u64);
                }
                w.put_slice(data);
            }
            Frame::ResetStream { id, error_code } => {
                varint::put_varint(w, T_RESET_STREAM);
                varint::put_varint(w, id.0);
                varint::put_varint(w, *error_code);
            }
            Frame::StopSending { id, error_code } => {
                varint::put_varint(w, T_STOP_SENDING);
                varint::put_varint(w, id.0);
                varint::put_varint(w, *error_code);
            }
            Frame::MaxData { max } => {
                varint::put_varint(w, T_MAX_DATA);
                varint::put_varint(w, *max);
            }
            Frame::MaxStreamData { id, max } => {
                varint::put_varint(w, T_MAX_STREAM_DATA);
                varint::put_varint(w, id.0);
                varint::put_varint(w, *max);
            }
            Frame::MaxStreams { bidi, max } => {
                varint::put_varint(
                    w,
                    if *bidi {
                        T_MAX_STREAMS_BIDI
                    } else {
                        T_MAX_STREAMS_UNI
                    },
                );
                varint::put_varint(w, *max);
            }
            Frame::HandshakeDone => varint::put_varint(w, T_HANDSHAKE_DONE),
            Frame::Datagram { data } if last => {
                varint::put_varint(w, T_DATAGRAM);
                w.put_slice(data);
            }
            Frame::Datagram { data } => {
                varint::put_varint(w, T_DATAGRAM_LEN);
                varint::put_varint(w, data.len() as u64);
                w.put_slice(data);
            }
            Frame::ConnectionClose { error_code, reason } => {
                varint::put_varint(w, T_CONNECTION_CLOSE);
                varint::put_varint(w, *error_code);
                varint::put_varint(w, reason.len() as u64);
                w.put_slice(reason);
            }
        }
    }

    /// Decodes one frame from `r`, copying STREAM, CRYPTO and DATAGRAM
    /// payloads into fresh buffers; ACK ranges and a close reason are
    /// read where they stand in `r`'s bytes. A STREAM or DATAGRAM frame without a length takes
    /// the rest of `r`: hand it a reader that ends where the packet does.
    /// Hot receive paths use the crate-internal `decode_in` with a
    /// backing [`Payload`] instead (reachable through
    /// [`crate::packet::decode_datagram_payload`]).
    pub fn decode(r: &mut Reader<'a>) -> WireResult<Frame<'a>> {
        Self::decode_in(r, None)
    }

    /// Decodes one frame from `r`. When `backing` is given as the
    /// [`Payload`] whose bytes `r`'s buffer starts at offset `base` of,
    /// DATAGRAM, STREAM and CRYPTO frame payloads become zero-copy sub-views of
    /// it instead of fresh allocations — the per-hop payload copy the
    /// relay fan-out used to pay on every receive, and the per-frame
    /// copy stream reassembly used to pay on every fetch response.
    pub(crate) fn decode_in(
        r: &mut Reader<'a>,
        backing: Option<(&Payload, usize)>,
    ) -> WireResult<Frame<'a>> {
        let ty = varint::get_varint(r)?;
        Ok(match ty {
            T_PADDING => Frame::Padding,
            T_PING => Frame::Ping,
            T_ACK => {
                let (count, bytes) = ack_pairs(r)?;
                Frame::Ack {
                    ranges: AckRanges(Held::Read { count, bytes }),
                }
            }
            T_CRYPTO => {
                let offset = varint::get_varint(r)?;
                let len = varint::get_varint(r)? as usize;
                Frame::Crypto {
                    offset,
                    data: payload(r, len, backing)?,
                }
            }
            T_STREAM..=T_STREAM_MAX => {
                let id = StreamId(varint::get_varint(r)?);
                let offset = match ty & STREAM_OFF {
                    0 => 0,
                    _ => varint::get_varint(r)?,
                };
                let len = match ty & STREAM_LEN {
                    0 => r.remaining(),
                    _ => varint::get_varint(r)? as usize,
                };
                Frame::Stream {
                    id,
                    offset,
                    fin: ty & STREAM_FIN != 0,
                    data: payload(r, len, backing)?,
                }
            }
            T_RESET_STREAM => Frame::ResetStream {
                id: StreamId(varint::get_varint(r)?),
                error_code: varint::get_varint(r)?,
            },
            T_STOP_SENDING => Frame::StopSending {
                id: StreamId(varint::get_varint(r)?),
                error_code: varint::get_varint(r)?,
            },
            T_MAX_DATA => Frame::MaxData {
                max: varint::get_varint(r)?,
            },
            T_MAX_STREAM_DATA => Frame::MaxStreamData {
                id: StreamId(varint::get_varint(r)?),
                max: varint::get_varint(r)?,
            },
            T_MAX_STREAMS_BIDI => Frame::MaxStreams {
                bidi: true,
                max: varint::get_varint(r)?,
            },
            T_MAX_STREAMS_UNI => Frame::MaxStreams {
                bidi: false,
                max: varint::get_varint(r)?,
            },
            T_HANDSHAKE_DONE => Frame::HandshakeDone,
            T_DATAGRAM | T_DATAGRAM_LEN => {
                let len = match ty {
                    T_DATAGRAM => r.remaining(),
                    _ => varint::get_varint(r)? as usize,
                };
                Frame::Datagram {
                    data: payload(r, len, backing)?,
                }
            }
            T_CONNECTION_CLOSE => {
                let error_code = varint::get_varint(r)?;
                let len = varint::get_varint(r)? as usize;
                Frame::ConnectionClose {
                    error_code,
                    reason: r.get_bytes(len)?,
                }
            }
            _ => return Err(WireError::Invalid { what: "frame type" }),
        })
    }
}

/// Moves `r` past one frame, checking it as [`Frame::decode_in`] does
/// without building it: a datagram's first pass
/// ([`crate::packet::decode_datagram_payload`]) takes no payload handle.
/// Agrees with `decode_in` on every input (`prop_skip_agrees_with_decode`).
pub(crate) fn skip(r: &mut Reader<'_>) -> WireResult<()> {
    let varint = varint::get_varint;
    let len = match varint(r)? {
        T_PADDING | T_PING | T_HANDSHAKE_DONE => 0,
        T_ACK => ack_pairs(r).map(|_| 0)?,
        T_MAX_DATA | T_MAX_STREAMS_BIDI | T_MAX_STREAMS_UNI => varint(r).map(|_| 0)?,
        T_RESET_STREAM | T_STOP_SENDING | T_MAX_STREAM_DATA => {
            varint(r)?;
            varint(r).map(|_| 0)?
        }
        T_CRYPTO | T_CONNECTION_CLOSE => {
            varint(r)?;
            varint(r)? as usize
        }
        ty @ T_STREAM..=T_STREAM_MAX => {
            varint(r)?;
            if ty & STREAM_OFF != 0 {
                varint(r)?;
            }
            match ty & STREAM_LEN {
                0 => r.remaining(),
                _ => varint(r)? as usize,
            }
        }
        T_DATAGRAM => r.remaining(),
        T_DATAGRAM_LEN => varint(r)? as usize,
        _ => return Err(WireError::Invalid { what: "frame type" }),
    };
    r.skip(len)
}

/// An ACK frame's ranges after its type: their count and their bytes,
/// each `(start, end)` checked to be in order.
fn ack_pairs<'a>(r: &mut Reader<'a>) -> WireResult<(usize, &'a [u8])> {
    let n = varint::get_varint(r)? as usize;
    if n > 1024 {
        return Err(WireError::Invalid {
            what: "ack range count",
        });
    }
    let mut pairs = r.clone();
    for _ in 0..n {
        let start = varint::get_varint(&mut pairs)?;
        let end = varint::get_varint(&mut pairs)?;
        if start > end {
            return Err(WireError::Invalid {
                what: "ack range order",
            });
        }
    }
    Ok((n, r.get_bytes(pairs.position() - r.position())?))
}

/// A STREAM frame's type: OFF only for a nonzero offset, LEN unless the
/// frame is the last of its packet, FIN when it ends the stream.
fn stream_type(offset: u64, fin: bool, last: bool) -> u64 {
    let mut ty = T_STREAM;
    if offset != 0 {
        ty |= STREAM_OFF;
    }
    if !last {
        ty |= STREAM_LEN;
    }
    if fin {
        ty |= STREAM_FIN;
    }
    ty
}

/// The next `len` bytes of `r`: a zero-copy sub-view of `backing` when
/// there is one (see [`Frame::decode_in`]), a fresh copy otherwise.
fn payload(
    r: &mut Reader<'_>,
    len: usize,
    backing: Option<(&Payload, usize)>,
) -> WireResult<Payload> {
    Ok(match backing {
        Some((p, base)) => {
            let start = base + r.position();
            r.skip(len)?;
            p.slice(start..start + len)
        }
        None => r.get_vec(len)?.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(f: &Frame<'_>) {
        let mut w = Writer::new();
        f.encode(&mut w);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert_eq!(&Frame::decode(&mut r).unwrap(), f);
        assert!(r.is_empty());
    }

    #[test]
    fn all_frames_roundtrip() {
        let frames = vec![
            Frame::Padding,
            Frame::Ping,
            Frame::Ack {
                ranges: vec![(10, 20), (3, 5), (0, 0)].into(),
            },
            Frame::Crypto {
                offset: 7,
                data: vec![1, 2, 3].into(),
            },
            Frame::Stream {
                id: StreamId(4),
                offset: 1000,
                fin: true,
                data: b"hello".to_vec().into(),
            },
            Frame::ResetStream {
                id: StreamId(8),
                error_code: 3,
            },
            Frame::StopSending {
                id: StreamId(8),
                error_code: 4,
            },
            Frame::MaxData { max: 1 << 20 },
            Frame::MaxStreamData {
                id: StreamId(0),
                max: 4096,
            },
            Frame::MaxStreams {
                bidi: true,
                max: 128,
            },
            Frame::MaxStreams {
                bidi: false,
                max: 256,
            },
            Frame::HandshakeDone,
            Frame::Datagram {
                data: vec![0xAB; 100].into(),
            },
            Frame::ConnectionClose {
                error_code: 0x100,
                reason: b"bye",
            },
        ];
        for f in frames {
            let mut w = Writer::new();
            f.encode(&mut w);
            assert_eq!(f.encoded_len(), w.len(), "size accounting for {f:?}");
            roundtrip(&f);
        }
    }

    /// The bytes of a STREAM frame of type `ty` on stream 4: offset 9
    /// when OFF is set, length 3 when LEN is set, then `abc` and, when
    /// the frame has no length, nothing after it.
    fn stream_bytes(ty: u64) -> Vec<u8> {
        let mut w = Writer::new();
        varint::put_varint(&mut w, ty);
        varint::put_varint(&mut w, 4);
        if ty & STREAM_OFF != 0 {
            varint::put_varint(&mut w, 9);
        }
        if ty & STREAM_LEN != 0 {
            varint::put_varint(&mut w, 3);
        }
        w.put_slice(b"abc");
        w.into_vec()
    }

    #[test]
    fn all_eight_stream_types_decode() {
        for ty in 0x08..=0x0f {
            let bytes = stream_bytes(ty);
            let mut r = Reader::new(&bytes);
            let f = Frame::decode(&mut r).unwrap();
            assert!(r.is_empty(), "type {ty:#x}");
            assert_eq!(
                f,
                Frame::Stream {
                    id: StreamId(4),
                    offset: if ty & 0x04 != 0 { 9 } else { 0 },
                    fin: ty & 0x01 != 0,
                    data: b"abc".to_vec().into(),
                },
                "type {ty:#x}"
            );
            // Re-encoded as it was framed, it is the same bytes.
            let mut w = Writer::new();
            if ty & 0x02 != 0 {
                f.encode(&mut w);
            } else {
                f.encode_last(&mut w);
            }
            assert_eq!(w.as_slice(), &bytes[..], "type {ty:#x}");
        }
    }

    #[test]
    fn an_explicit_zero_offset_is_legal() {
        let bytes = [0x0e, 4, 0, 1, 0xAA];
        let f = Frame::decode(&mut Reader::new(&bytes)).unwrap();
        let want = Frame::Stream {
            id: StreamId(4),
            offset: 0,
            fin: false,
            data: vec![0xAA].into(),
        };
        assert_eq!(f, want);
        assert_eq!(want.encoded_len(), bytes.len() - 1, "the encoder omits it");
    }

    #[test]
    fn both_datagram_types_decode() {
        let with_len = [0x31, 2, 7, 8, 0xFF];
        let mut r = Reader::new(&with_len);
        let f = Frame::decode(&mut r).unwrap();
        assert_eq!(r.remaining(), 1, "0x31 takes its length");
        assert_eq!(
            f,
            Frame::Datagram {
                data: vec![7, 8].into()
            }
        );
        let without = [0x30, 7, 8, 0xFF];
        let mut r = Reader::new(&without);
        let f = Frame::decode(&mut r).unwrap();
        assert!(r.is_empty(), "0x30 takes the rest");
        assert_eq!(
            f,
            Frame::Datagram {
                data: vec![7, 8, 0xFF].into()
            }
        );
    }

    #[test]
    fn only_stream_and_datagram_frames_drop_their_length_when_last() {
        let data: Payload = vec![1, 2, 3].into();
        let shorter = [
            Frame::Stream {
                id: StreamId(2),
                offset: 0,
                fin: true,
                data: data.clone(),
            },
            Frame::Datagram { data: data.clone() },
        ];
        for f in &shorter {
            assert_eq!(f.encoded_len_last() + 1, f.encoded_len(), "{f:?}");
        }
        let same = [
            Frame::Crypto {
                offset: 0,
                data: data.clone(),
            },
            Frame::ConnectionClose {
                error_code: 1,
                reason: b"bye",
            },
            Frame::Ack {
                ranges: vec![(0, 3)].into(),
            },
            Frame::Ping,
        ];
        for f in &same {
            assert_eq!(f.encoded_len_last(), f.encoded_len(), "{f:?}");
        }
    }

    #[test]
    fn ack_eliciting_classification() {
        assert!(Frame::Ping.is_ack_eliciting());
        assert!(Frame::Stream {
            id: StreamId(0),
            offset: 0,
            fin: false,
            data: vec![].into()
        }
        .is_ack_eliciting());
        assert!(!Frame::Ack {
            ranges: vec![].into()
        }
        .is_ack_eliciting());
        assert!(!Frame::Padding.is_ack_eliciting());
        assert!(!Frame::ConnectionClose {
            error_code: 0,
            reason: &[]
        }
        .is_ack_eliciting());
    }

    #[test]
    fn rejects_bad_ack_ranges() {
        let mut w = Writer::new();
        varint::put_varint(&mut w, T_ACK);
        varint::put_varint(&mut w, 1);
        varint::put_varint(&mut w, 10);
        varint::put_varint(&mut w, 5); // start > end
        let buf = w.into_vec();
        assert!(Frame::decode(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn rejects_unknown_frame_type() {
        let mut w = Writer::new();
        varint::put_varint(&mut w, 0x3F);
        let buf = w.into_vec();
        assert!(Frame::decode(&mut Reader::new(&buf)).is_err());
    }

    proptest! {
        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..100)) {
            let mut r = Reader::new(&bytes);
            let _ = Frame::decode(&mut r);
        }

        /// The check-only pass accepts exactly what the decoder accepts
        /// and stops where it stops, on random bytes and on valid frames
        /// with one byte overwritten.
        #[test]
        fn prop_skip_agrees_with_decode(
            bytes in proptest::collection::vec(any::<u8>(), 0..100),
            kind in 0usize..20,
            at in any::<usize>(),
            with in any::<u8>(),
        ) {
            // The same bytes behind each frame type, so every arm is reached.
            const TYPES: [u64; 20] = [
                0x00, 0x01, 0x02, 0x04, 0x05, 0x06, 0x08, 0x0b, 0x0d, 0x0e, 0x0f, 0x10, 0x11,
                0x12, 0x13, 0x1c, 0x1e, 0x30, 0x31, 0x3f,
            ];
            let mut w = Writer::new();
            varint::put_varint(&mut w, TYPES[kind]);
            w.put_slice(&bytes);
            for mut input in [bytes, w.into_vec()] {
                if !input.is_empty() {
                    let i = at % input.len();
                    input[i] ^= with;
                }
                let (mut a, mut b) = (Reader::new(&input), Reader::new(&input));
                let decoded = Frame::decode(&mut a).is_ok();
                prop_assert_eq!(skip(&mut b).is_ok(), decoded);
                if decoded {
                    prop_assert_eq!(a.position(), b.position());
                }
            }
        }
    }
}
