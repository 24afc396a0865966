//! Packet framing.
//!
//! Simplifications versus RFC 9000: a single packet number space, cleartext
//! payloads, and a fixed 8-byte connection id. Packet *types* are kept
//! (Initial / ZeroRtt / OneRtt) because 0-RTT semantics — the server must
//! not process early data before the ClientHello, and must be able to
//! reject it — are load-bearing for the paper's latency analysis (§5.2).
//!
//! Several packets may be coalesced into one UDP datagram; each is
//! length-prefixed.

use crate::frame::Frame;
use moqdns_wire::{varint, Payload, Reader, VarInt, WireError, WireResult, Writer};

/// Packet type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketType {
    /// Carries handshake (CRYPTO) frames.
    Initial,
    /// Early application data sent alongside a resumed handshake.
    ZeroRtt,
    /// Ordinary application data after the handshake.
    OneRtt,
}

impl PacketType {
    fn to_u8(self) -> u8 {
        match self {
            PacketType::Initial => 0,
            PacketType::ZeroRtt => 1,
            PacketType::OneRtt => 2,
        }
    }

    fn from_u8(v: u8) -> WireResult<PacketType> {
        Ok(match v {
            0 => PacketType::Initial,
            1 => PacketType::ZeroRtt,
            2 => PacketType::OneRtt,
            _ => {
                return Err(WireError::Invalid {
                    what: "packet type",
                })
            }
        })
    }
}

/// A decoded packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Packet type (determines processing rules).
    pub ty: PacketType,
    /// Destination connection id.
    pub dcid: u64,
    /// Packet number (single space).
    pub pn: u64,
    /// Contained frames.
    pub frames: Vec<Frame>,
}

impl Packet {
    /// Encodes this packet (without the coalescing length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        self.encode_into(&mut w);
        w.into_vec()
    }

    /// Encodes this packet onto `w` (without the coalescing length
    /// prefix). Hot paths pass a recycled writer.
    pub fn encode_into(&self, w: &mut Writer) {
        w.put_u8(self.ty.to_u8());
        w.put_u64(self.dcid);
        varint::put_varint(w, self.pn);
        for f in &self.frames {
            f.encode(w);
        }
    }

    /// Exact encoded size in bytes, computed without encoding.
    pub fn encoded_len(&self) -> usize {
        1 + 8
            + moqdns_wire::varint::varint_len(self.pn)
            + self.frames.iter().map(Frame::encoded_len).sum::<usize>()
    }

    /// Decodes one packet from exactly `buf`.
    pub fn decode(buf: &[u8]) -> WireResult<Packet> {
        Self::decode_in(buf, None)
    }

    /// Decodes one packet from exactly `buf`; with `backing` given as
    /// the datagram [`Payload`] that `buf` starts at offset `base` of,
    /// DATAGRAM frame payloads are zero-copy sub-views of it.
    fn decode_in(buf: &[u8], backing: Option<(&Payload, usize)>) -> WireResult<Packet> {
        let mut r = Reader::new(buf);
        let ty = PacketType::from_u8(r.get_u8()?)?;
        let dcid = r.get_u64()?;
        let pn = varint::get_varint(&mut r)?;
        let mut frames = Vec::new();
        while !r.is_empty() {
            frames.push(Frame::decode_in(&mut r, backing)?);
        }
        Ok(Packet {
            ty,
            dcid,
            pn,
            frames,
        })
    }
}

/// Encodes `packets` onto `w` (length-prefixed coalescing). Each packet
/// is encoded exactly once, directly into the output; hot paths pass a
/// recycled writer (see [`moqdns_wire::BufPool`]).
pub fn encode_datagram_into(packets: &[Packet], w: &mut Writer) {
    for p in packets {
        let len = p.encoded_len();
        VarInt::try_from(len).expect("packet fits varint").encode(w);
        let before = w.len();
        p.encode_into(w);
        debug_assert_eq!(w.len() - before, len, "encoded_len mismatch");
    }
}

/// Encodes `packets` into one UDP datagram (length-prefixed coalescing).
pub fn encode_datagram(packets: &[Packet]) -> Vec<u8> {
    let mut w = Writer::with_capacity(256);
    encode_datagram_into(packets, &mut w);
    w.into_vec()
}

/// Decodes all coalesced packets in a datagram, copying frame payloads.
pub fn decode_datagram(buf: &[u8]) -> WireResult<Vec<Packet>> {
    let mut r = Reader::new(buf);
    let mut out = Vec::new();
    while !r.is_empty() {
        let len = varint::get_varint(&mut r)? as usize;
        let bytes = r.get_bytes(len)?;
        out.push(Packet::decode(bytes)?);
    }
    Ok(out)
}

/// Peeks the destination connection id of the first packet in a
/// datagram without decoding frames — endpoint routing runs this once
/// per datagram, then hands the full zero-copy parse to the owning
/// connection.
pub fn peek_dcid(buf: &[u8]) -> Option<u64> {
    let mut r = Reader::new(buf);
    let _len = varint::get_varint(&mut r).ok()?;
    let ty = r.get_u8().ok()?;
    PacketType::from_u8(ty).ok()?;
    r.get_u64().ok()
}

/// Decodes all coalesced packets in a datagram delivered as a shared
/// [`Payload`]: DATAGRAM frame payloads come out as zero-copy sub-views
/// of `buf` (byte-for-byte identical to what [`decode_datagram`] copies
/// out — property-tested below).
pub fn decode_datagram_payload(buf: &Payload) -> WireResult<Vec<Packet>> {
    let mut r = Reader::new(buf.as_slice());
    let mut out = Vec::new();
    while !r.is_empty() {
        let len = varint::get_varint(&mut r)? as usize;
        let base = r.position();
        let bytes = r.get_bytes(len)?;
        out.push(Packet::decode_in(bytes, Some((buf, base)))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::streams::StreamId;
    use proptest::prelude::*;

    #[test]
    fn packet_roundtrip() {
        let p = Packet {
            ty: PacketType::OneRtt,
            dcid: 0xDEAD_BEEF_0000_0001,
            pn: 42,
            frames: vec![Frame::Ping, Frame::MaxData { max: 65536 }],
        };
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn datagram_coalescing_roundtrip() {
        let a = Packet {
            ty: PacketType::Initial,
            dcid: 7,
            pn: 0,
            frames: vec![Frame::Crypto {
                offset: 0,
                data: vec![1, 2, 3].into(),
            }],
        };
        let b = Packet {
            ty: PacketType::ZeroRtt,
            dcid: 7,
            pn: 1,
            frames: vec![Frame::Stream {
                id: crate::streams::StreamId(0),
                offset: 0,
                fin: false,
                data: vec![9, 9].into(),
            }],
        };
        let dg = encode_datagram(&[a.clone(), b.clone()]);
        assert_eq!(decode_datagram(&dg).unwrap(), vec![a, b]);
    }

    #[test]
    fn rejects_unknown_type() {
        let mut bytes = Packet {
            ty: PacketType::OneRtt,
            dcid: 1,
            pn: 0,
            frames: vec![],
        }
        .encode();
        bytes[0] = 9;
        assert!(Packet::decode(&bytes).is_err());
    }

    #[test]
    fn rejects_truncated() {
        assert!(Packet::decode(&[0, 1, 2]).is_err());
        assert!(decode_datagram(&[5, 0]).is_err());
    }

    proptest! {
        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = decode_datagram(&bytes);
            let _ = decode_datagram_payload(&Payload::from(&bytes[..]));
        }

        /// Zero-copy equivalence: the `Payload` receive path parses
        /// byte-for-byte identical packets to the copying path, and the
        /// DATAGRAM frame payloads it produces are sub-views of the
        /// incoming datagram's storage (no per-hop copies).
        #[test]
        fn prop_payload_decode_equals_copying_decode(
            dcid in any::<u64>(),
            pn in any::<u32>(),
            dgram_payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..64), 1..4),
            stream_payload in proptest::collection::vec(any::<u8>(), 0..64),
            stream_offset in any::<u32>(),
            crypto in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            let packets = vec![
                Packet {
                    ty: PacketType::Initial,
                    dcid,
                    pn: pn as u64,
                    frames: vec![Frame::Crypto { offset: 0, data: crypto.into() }],
                },
                Packet {
                    ty: PacketType::OneRtt,
                    dcid,
                    pn: pn as u64 + 1,
                    frames: dgram_payloads
                        .iter()
                        .map(|p| Frame::Datagram { data: p.clone().into() })
                        .chain([
                            Frame::Ping,
                            Frame::Stream {
                                id: StreamId(6),
                                offset: stream_offset as u64,
                                fin: true,
                                data: stream_payload.into(),
                            },
                            Frame::MaxData { max: 9000 },
                        ])
                        .collect(),
                },
            ];
            let wire = Payload::new(encode_datagram(&packets));
            let copied = decode_datagram(wire.as_slice()).unwrap();
            let shared = decode_datagram_payload(&wire).unwrap();
            prop_assert_eq!(&shared, &copied, "identical parse");
            prop_assert_eq!(&shared, &packets, "roundtrip");
            for p in &shared {
                for f in &p.frames {
                    match f {
                        Frame::Datagram { data }
                        | Frame::Stream { data, .. }
                        | Frame::Crypto { data, .. } => {
                            prop_assert!(
                                data.shares_storage_with(&wire),
                                "datagram/stream/crypto payload must be a zero-copy view"
                            );
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}
