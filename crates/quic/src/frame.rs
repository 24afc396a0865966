//! Frames — the unit of information inside packets.
//!
//! A recognizable subset of RFC 9000 §19 plus the RFC 9221 DATAGRAM frame.

use crate::streams::StreamId;
use moqdns_wire::{varint, Payload, Reader, WireError, WireResult, Writer};

/// A QUIC frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Padding (ignored).
    Padding,
    /// Liveness probe; elicits an ACK. Used for §5.1 keep-alives.
    Ping,
    /// Acknowledgment: ranges of received packet numbers, descending.
    Ack {
        /// Inclusive `(start, end)` packet-number ranges, highest first.
        ranges: Vec<(u64, u64)>,
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
        reason: Vec<u8>,
    },
}

// Frame type codes (mostly aligned with RFC 9000 where a direct analog exists).
const T_PADDING: u64 = 0x00;
const T_PING: u64 = 0x01;
const T_ACK: u64 = 0x02;
const T_CRYPTO: u64 = 0x06;
const T_STREAM: u64 = 0x08; // we always carry offset+len+fin explicitly
const T_RESET_STREAM: u64 = 0x04;
const T_STOP_SENDING: u64 = 0x05;
const T_MAX_DATA: u64 = 0x10;
const T_MAX_STREAM_DATA: u64 = 0x11;
const T_MAX_STREAMS_BIDI: u64 = 0x12;
const T_MAX_STREAMS_UNI: u64 = 0x13;
const T_HANDSHAKE_DONE: u64 = 0x1e;
const T_DATAGRAM: u64 = 0x31;
const T_CONNECTION_CLOSE: u64 = 0x1c;

impl Frame {
    /// True if this frame counts as "ack-eliciting" (RFC 9002 §2).
    pub fn is_ack_eliciting(&self) -> bool {
        !matches!(
            self,
            Frame::Ack { .. } | Frame::Padding | Frame::ConnectionClose { .. }
        )
    }

    /// Exact encoded size in bytes, computed without encoding. Keeps the
    /// packetizer's size accounting allocation-free.
    pub fn encoded_len(&self) -> usize {
        use moqdns_wire::varint::varint_len as vl;
        match self {
            Frame::Padding => vl(T_PADDING),
            Frame::Ping => vl(T_PING),
            Frame::Ack { ranges } => {
                vl(T_ACK)
                    + vl(ranges.len() as u64)
                    + ranges.iter().map(|(s, e)| vl(*s) + vl(*e)).sum::<usize>()
            }
            Frame::Crypto { offset, data } => {
                vl(T_CRYPTO) + vl(*offset) + vl(data.len() as u64) + data.len()
            }
            Frame::Stream {
                id,
                offset,
                data,
                fin: _,
            } => vl(T_STREAM) + vl(id.0) + vl(*offset) + vl(data.len() as u64) + 1 + data.len(),
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
            Frame::Datagram { data } => vl(T_DATAGRAM) + vl(data.len() as u64) + data.len(),
            Frame::ConnectionClose { error_code, reason } => {
                vl(T_CONNECTION_CLOSE) + vl(*error_code) + vl(reason.len() as u64) + reason.len()
            }
        }
    }

    /// Encodes the frame onto `w`.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            Frame::Padding => varint::put_varint(w, T_PADDING),
            Frame::Ping => varint::put_varint(w, T_PING),
            Frame::Ack { ranges } => {
                varint::put_varint(w, T_ACK);
                varint::put_varint(w, ranges.len() as u64);
                for (start, end) in ranges {
                    varint::put_varint(w, *start);
                    varint::put_varint(w, *end);
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
                varint::put_varint(w, T_STREAM);
                varint::put_varint(w, id.0);
                varint::put_varint(w, *offset);
                varint::put_varint(w, data.len() as u64);
                w.put_u8(*fin as u8);
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
            Frame::Datagram { data } => {
                varint::put_varint(w, T_DATAGRAM);
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

    /// Decodes one frame from `r`, copying variable-length payloads into
    /// fresh buffers. Hot receive paths use the crate-internal
    /// `decode_in` with a backing [`Payload`] instead (reachable through
    /// [`crate::packet::decode_datagram_payload`]).
    pub fn decode(r: &mut Reader<'_>) -> WireResult<Frame> {
        Self::decode_in(r, None)
    }

    /// Decodes one frame from `r`. When `backing` is given as the
    /// [`Payload`] whose bytes `r.full()` starts at offset `base` of,
    /// DATAGRAM, STREAM and CRYPTO frame payloads become zero-copy sub-views of
    /// it instead of fresh allocations — the per-hop payload copy the
    /// relay fan-out used to pay on every receive, and the per-frame
    /// copy stream reassembly used to pay on every fetch response.
    pub(crate) fn decode_in(
        r: &mut Reader<'_>,
        backing: Option<(&Payload, usize)>,
    ) -> WireResult<Frame> {
        let ty = varint::get_varint(r)?;
        Ok(match ty {
            T_PADDING => Frame::Padding,
            T_PING => Frame::Ping,
            T_ACK => {
                let n = varint::get_varint(r)? as usize;
                if n > 1024 {
                    return Err(WireError::Invalid {
                        what: "ack range count",
                    });
                }
                let mut ranges = Vec::with_capacity(n);
                for _ in 0..n {
                    let start = varint::get_varint(r)?;
                    let end = varint::get_varint(r)?;
                    if start > end {
                        return Err(WireError::Invalid {
                            what: "ack range order",
                        });
                    }
                    ranges.push((start, end));
                }
                Frame::Ack { ranges }
            }
            T_CRYPTO => {
                let offset = varint::get_varint(r)?;
                let len = varint::get_varint(r)? as usize;
                Frame::Crypto {
                    offset,
                    data: payload(r, len, backing)?,
                }
            }
            T_STREAM => {
                let id = StreamId(varint::get_varint(r)?);
                let offset = varint::get_varint(r)?;
                let len = varint::get_varint(r)? as usize;
                let fin = r.get_u8()? != 0;
                let data = payload(r, len, backing)?;
                Frame::Stream {
                    id,
                    offset,
                    fin,
                    data,
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
            T_DATAGRAM => {
                let len = varint::get_varint(r)? as usize;
                Frame::Datagram {
                    data: payload(r, len, backing)?,
                }
            }
            T_CONNECTION_CLOSE => {
                let error_code = varint::get_varint(r)?;
                let len = varint::get_varint(r)? as usize;
                Frame::ConnectionClose {
                    error_code,
                    reason: r.get_vec(len)?,
                }
            }
            _ => return Err(WireError::Invalid { what: "frame type" }),
        })
    }
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

    fn roundtrip(f: &Frame) -> Frame {
        let mut w = Writer::new();
        f.encode(&mut w);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        let out = Frame::decode(&mut r).unwrap();
        assert!(r.is_empty());
        out
    }

    #[test]
    fn all_frames_roundtrip() {
        let frames = vec![
            Frame::Padding,
            Frame::Ping,
            Frame::Ack {
                ranges: vec![(10, 20), (3, 5), (0, 0)],
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
                reason: b"bye".to_vec(),
            },
        ];
        for f in frames {
            let mut w = Writer::new();
            f.encode(&mut w);
            assert_eq!(f.encoded_len(), w.len(), "size accounting for {f:?}");
            assert_eq!(roundtrip(&f), f);
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
        assert!(!Frame::Ack { ranges: vec![] }.is_ack_eliciting());
        assert!(!Frame::Padding.is_ack_eliciting());
        assert!(!Frame::ConnectionClose {
            error_code: 0,
            reason: vec![]
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
    }
}
