//! Packet framing.
//!
//! Simplifications versus RFC 9000: a single packet number space, cleartext
//! payloads, and a fixed 8-byte connection id. Packet *types* are kept
//! (Initial / ZeroRtt / OneRtt) because 0-RTT semantics — the server must
//! not process early data before the ClientHello, and must be able to
//! reject it — are load-bearing for the paper's latency analysis (§5.2).
//!
//! Several packets may be coalesced into one UDP datagram:
//!
//! ```text
//! packet = type (1 byte) · [length (varint)] · dcid (8 bytes) · pn (varint) · frames
//! ```
//!
//! The type byte's top bit (0x80) says that a length follows it, like RFC
//! 9000's header-form bit; the length counts the bytes after it. Every
//! packet of a datagram but the last sets it. The last, usually the only
//! one, runs to the end of the datagram, as a short-header packet does
//! (§17.3). The packet number is a full varint, and a packet's last frame
//! may leave out its own length (see [`crate::frame`]).
//!
//! What still differs from RFC 9000's wire image is listed in
//! `docs/deviations/10-low-wire-image-is-modelled.md`.

use crate::frame::Frame;
use moqdns_wire::{varint, Payload, Reader, VarInt, WireError, WireResult, Writer};

/// The bit of a packet's type byte that says a length follows it.
const LENGTH_FOLLOWS: u8 = 0x80;

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
    /// Encodes this packet as the last (or only) one of its datagram:
    /// without a length.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        self.encode_into(&mut w);
        w.into_vec()
    }

    /// Encodes this packet onto `w` as the last (or only) one of its
    /// datagram: without a length. Hot paths pass a recycled writer.
    pub fn encode_into(&self, w: &mut Writer) {
        w.put_u8(self.ty.to_u8());
        self.encode_rest(w);
    }

    /// Encodes this packet onto `w` with a length, so that another may
    /// follow it in its datagram: `encoded_len() - 1` bytes follow the
    /// length.
    fn encode_prefixed(&self, w: &mut Writer, len: usize) {
        w.put_u8(self.ty.to_u8() | LENGTH_FOLLOWS);
        VarInt::try_from(len - 1)
            .expect("packet fits varint")
            .encode(w);
        self.encode_rest(w);
    }

    /// Everything after the type byte and the length.
    fn encode_rest(&self, w: &mut Writer) {
        w.put_u64(self.dcid);
        varint::put_varint(w, self.pn);
        if let Some((last, rest)) = self.frames.split_last() {
            for f in rest {
                f.encode(w);
            }
            last.encode_last(w);
        }
    }

    /// Exact size of [`Packet::encode`]'s bytes, computed without
    /// encoding. A packet that is not its datagram's last also carries a
    /// length: the varint of `encoded_len() - 1`, that many bytes more.
    pub fn encoded_len(&self) -> usize {
        let frames = match self.frames.split_last() {
            Some((last, rest)) => {
                rest.iter().map(Frame::encoded_len).sum::<usize>() + last.encoded_len_last()
            }
            None => 0,
        };
        1 + 8 + varint::varint_len(self.pn) + frames
    }

    /// Decodes one packet from exactly `buf`, with or without a length.
    pub fn decode(buf: &[u8]) -> WireResult<Packet> {
        let mut r = Reader::new(buf);
        let packet = Self::decode_next(&mut r, None)?;
        r.expect_end()?;
        Ok(packet)
    }

    /// Decodes the next packet of a datagram from `r`: its type byte,
    /// the length if one follows and that many bytes, or else the rest
    /// of the datagram. With `backing` given as the datagram's
    /// [`Payload`], DATAGRAM, STREAM and CRYPTO frame payloads are
    /// zero-copy sub-views of it.
    fn decode_next(r: &mut Reader<'_>, backing: Option<&Payload>) -> WireResult<Packet> {
        let first = r.get_u8()?;
        let ty = PacketType::from_u8(first & !LENGTH_FOLLOWS)?;
        let len = match first & LENGTH_FOLLOWS {
            0 => r.remaining(),
            _ => varint::get_varint(r)? as usize,
        };
        let base = r.position();
        let mut r = Reader::new(r.get_bytes(len)?);
        let dcid = r.get_u64()?;
        let pn = varint::get_varint(&mut r)?;
        let mut frames = Vec::new();
        while !r.is_empty() {
            frames.push(Frame::decode_in(&mut r, backing.map(|p| (p, base)))?);
        }
        Ok(Packet {
            ty,
            dcid,
            pn,
            frames,
        })
    }
}

/// Encodes `packets` onto `w` as one datagram: every packet but the last
/// with a length. Each packet is encoded exactly once, directly into the
/// output; hot paths pass a recycled writer (see
/// [`moqdns_wire::BufPool`]).
pub fn encode_datagram_into(packets: &[Packet], w: &mut Writer) {
    let Some((last, rest)) = packets.split_last() else {
        return;
    };
    for p in rest {
        let len = p.encoded_len();
        let before = w.len();
        p.encode_prefixed(w, len);
        debug_assert_eq!(
            w.len() - before,
            len + varint::varint_len(len as u64 - 1),
            "encoded_len mismatch"
        );
    }
    let before = w.len();
    last.encode_into(w);
    debug_assert_eq!(w.len() - before, last.encoded_len(), "encoded_len mismatch");
}

/// Encodes `packets` into one UDP datagram (see [`encode_datagram_into`]).
#[cfg(test)]
pub(crate) fn encode_datagram(packets: &[Packet]) -> Vec<u8> {
    let mut w = Writer::with_capacity(256);
    encode_datagram_into(packets, &mut w);
    w.into_vec()
}

/// Decodes all coalesced packets in a datagram, copying frame payloads.
#[cfg(test)]
pub(crate) fn decode_datagram(buf: &[u8]) -> WireResult<Vec<Packet>> {
    let mut r = Reader::new(buf);
    let mut out = Vec::new();
    while !r.is_empty() {
        out.push(Packet::decode_next(&mut r, None)?);
    }
    Ok(out)
}

/// Peeks the destination connection id of the first packet in a
/// datagram without decoding frames — endpoint routing runs this once
/// per datagram, then hands the full zero-copy parse to the owning
/// connection. Reads the type byte, the length if one follows, then the
/// connection id.
pub fn peek_dcid(buf: &[u8]) -> Option<u64> {
    let mut r = Reader::new(buf);
    let first = r.get_u8().ok()?;
    PacketType::from_u8(first & !LENGTH_FOLLOWS).ok()?;
    if first & LENGTH_FOLLOWS != 0 {
        varint::get_varint(&mut r).ok()?;
    }
    r.get_u64().ok()
}

/// Decodes all coalesced packets in a datagram delivered as a shared
/// [`Payload`]: DATAGRAM frame payloads come out as zero-copy sub-views
/// of `buf` (byte-for-byte identical to what a copying decode reads —
/// property-tested below).
pub fn decode_datagram_payload(buf: &Payload) -> WireResult<Vec<Packet>> {
    let mut r = Reader::new(buf.as_slice());
    let mut out = Vec::new();
    while !r.is_empty() {
        out.push(Packet::decode_next(&mut r, Some(buf))?);
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
    fn only_the_last_packet_of_a_datagram_goes_without_a_length() {
        let packet = |pn| Packet {
            ty: PacketType::OneRtt,
            dcid: 7,
            pn,
            frames: vec![Frame::Ping],
        };
        let (a, b) = (packet(1), packet(2));
        let dg = encode_datagram(&[a.clone(), b.clone()]);
        // a: type | LENGTH_FOLLOWS, length, dcid, pn, PING; b: as alone.
        assert_eq!(dg[0], 2 | LENGTH_FOLLOWS);
        assert_eq!(dg[1] as usize, a.encoded_len() - 1);
        assert_eq!(&dg[2..a.encoded_len() + 1], &a.encode()[1..]);
        assert_eq!(&dg[a.encoded_len() + 1..], &b.encode()[..]);
        assert_eq!(peek_dcid(&dg), Some(7));
        assert_eq!(peek_dcid(&b.encode()), Some(7));
        // A lone packet with a length is still one packet.
        assert_eq!(Packet::decode(&dg[..a.encoded_len() + 1]).unwrap(), a);
    }

    #[test]
    fn a_length_past_the_datagram_is_rejected() {
        let p = Packet {
            ty: PacketType::OneRtt,
            dcid: 7,
            pn: 1,
            frames: vec![Frame::Datagram {
                data: vec![1, 2, 3].into(),
            }],
        };
        let body = &p.encode()[1..];
        let mut dg = vec![2 | LENGTH_FOLLOWS, body.len() as u8 + 1];
        dg.extend_from_slice(body);
        assert!(decode_datagram(&dg).is_err());
        assert!(decode_datagram_payload(&Payload::from(&dg[..])).is_err());
        assert!(Packet::decode(&dg).is_err());
        // The length it should have read parses.
        dg[1] -= 1;
        assert_eq!(decode_datagram(&dg).unwrap(), vec![p]);
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
        /// Arbitrary bytes never panic either decoder, and whatever the
        /// zero-copy decoder accepts the copying one parses to the same
        /// packets.
        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            let copied = decode_datagram(&bytes);
            if let Ok(shared) = decode_datagram_payload(&Payload::from(&bytes[..])) {
                prop_assert_eq!(copied.unwrap(), shared);
            }
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
            at in any::<usize>(),
            with in any::<u8>(),
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
            // The same datagram with one byte overwritten: both paths
            // still accept or reject it together, and parse it alike.
            let mut damaged = wire.as_slice().to_vec();
            let i = at % damaged.len();
            damaged[i] = with;
            let copied = decode_datagram(&damaged).ok();
            let shared = decode_datagram_payload(&Payload::new(damaged)).ok();
            prop_assert_eq!(copied, shared, "damaged at {}", i);
        }
    }
}
