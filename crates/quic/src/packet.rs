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
//! packet = type (1 byte) · [length (varint)] · dcid (8 bytes) · pn (1, 2 or 4 bytes) · frames
//!
//! type   = L · 0 · T T · 0 0 · P P
//!          L   0x80  a length follows
//!          T T 0x30  Initial 0, 0-RTT 1, 1-RTT 2
//!          P P 0x03  bytes of the packet number, minus one
//! ```
//!
//! The type byte's top bit says that a length follows it, like RFC 9000's
//! header-form bit; the length counts the bytes after it. Every packet of
//! a datagram but the last sets it. The last, usually the only one, runs
//! to the end of the datagram, as a short-header packet does (§17.3). The
//! packet number is truncated as RFC 9000 §17.1 and Appendix A.2 say: the
//! sender writes the fewest of 1, 2 or 4 bytes whose window is more than
//! twice the packets from its largest acknowledged up to this one
//! ([`pn_len`]), and the receiver expands them against the largest it has
//! received (Appendix A.3, [`expand_pn`]). A packet's last frame may leave
//! out its own length (see [`crate::frame`]).
//!
//! **Read in place.** [`decode_datagram_payload`] checks a whole datagram
//! in one pass — every packet, every frame — and hands back a
//! [`Datagram`]: packets and frames are then read off its bytes as they
//! are visited, payloads as zero-copy views of it, ACK ranges where they
//! stand. A datagram is accepted or dropped whole, and decoding one
//! allocates nothing.
//!
//! What is still modelled rather than RFC 9000's wire image — no AEAD tag,
//! no header protection, one connection id, absolute ACK ranges — is
//! listed in `docs/deviations/10-low-wire-image-is-modelled.md`.

use crate::frame::Frame;
use moqdns_wire::{varint, Payload, Reader, VarInt, WireError, WireResult, Writer};
use std::ops::Range;

/// The bit of a packet's type byte that says a length follows it.
const LENGTH_FOLLOWS: u8 = 0x80;
/// The bits of a packet's type byte that carry its [`PacketType`].
const TYPE_BITS: u8 = 0x30;
/// The bits of a packet's type byte that carry its packet number's
/// length, minus one.
const PN_LEN_BITS: u8 = 0x03;

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
    fn to_bits(self) -> u8 {
        (match self {
            PacketType::Initial => 0,
            PacketType::ZeroRtt => 1,
            PacketType::OneRtt => 2,
        }) << TYPE_BITS.trailing_zeros()
    }

    /// The type a packet's first byte names; an error for an unknown
    /// type or a reserved bit set.
    fn of_first(first: u8) -> WireResult<PacketType> {
        const KNOWN: u8 = LENGTH_FOLLOWS | TYPE_BITS | PN_LEN_BITS;
        Ok(match (first & !KNOWN, (first & TYPE_BITS) >> 4) {
            (0, 0) => PacketType::Initial,
            (0, 1) => PacketType::ZeroRtt,
            (0, 2) => PacketType::OneRtt,
            _ => {
                return Err(WireError::Invalid {
                    what: "packet type",
                })
            }
        })
    }
}

/// Bytes packet number `pn` takes on the wire when the largest of ours
/// the peer has acknowledged is `largest_acked` (RFC 9000 §17.1, Appendix
/// A.2): the fewest of 1, 2 or 4 whose window is more than twice the
/// packets from the largest acknowledged up to and including `pn`. Never
/// more than `varint_len(pn)`. Past 2^31 packets unacknowledged it stays
/// 4; no connection here comes near.
pub fn pn_len(pn: u64, largest_acked: Option<u64>) -> usize {
    let unacked = match largest_acked {
        Some(largest) => pn.saturating_sub(largest),
        None => pn + 1,
    };
    match unacked {
        0..0x80 => 1,
        0x80..0x8000 => 2,
        _ => 4,
    }
}

/// The packet number whose low `len` bytes are `truncated`, nearest to
/// the one after `largest_received` (RFC 9000 Appendix A.3). Before
/// anything is received, the one expected is 0.
pub fn expand_pn(largest_received: Option<u64>, truncated: u64, len: usize) -> u64 {
    let expected = largest_received.map_or(0, |l| l + 1);
    let window = 1u64 << (8 * len);
    let half = window / 2;
    let candidate = (expected & !(window - 1)) | truncated;
    if candidate + half <= expected && candidate < (1 << 62) - window {
        candidate + window
    } else if candidate > expected + half && candidate >= window {
        candidate - window
    } else {
        candidate
    }
}

/// A packet to send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet<'a> {
    /// Packet type (determines processing rules).
    pub ty: PacketType,
    /// Destination connection id.
    pub dcid: u64,
    /// Packet number (single space).
    pub pn: u64,
    /// Bytes of the packet number on the wire: 1, 2 or 4, as [`pn_len`]
    /// picks them (3 decodes too).
    pub pn_len: usize,
    /// Contained frames.
    pub frames: Vec<Frame<'a>>,
}

impl Packet<'_> {
    /// Encodes this packet as the last (or only) one of its datagram:
    /// without a length.
    ///
    /// Kept public for: `crates/quic/tests/decode_fuzz.rs` and
    /// `crates/moqt/tests/session_model.rs`, which build datagrams by hand.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        self.encode_into(&mut w);
        w.into_vec()
    }

    /// Encodes this packet onto `w` as the last (or only) one of its
    /// datagram: without a length. Hot paths pass a recycled writer.
    pub fn encode_into(&self, w: &mut Writer) {
        w.put_u8(self.first_byte());
        self.encode_rest(w);
    }

    /// Encodes this packet onto `w` with a length, so that another may
    /// follow it in its datagram: `encoded_len() - 1` bytes follow the
    /// length.
    fn encode_prefixed(&self, w: &mut Writer, len: usize) {
        w.put_u8(self.first_byte() | LENGTH_FOLLOWS);
        VarInt::try_from(len - 1)
            .expect("packet fits varint")
            .encode(w);
        self.encode_rest(w);
    }

    /// The type byte, without [`LENGTH_FOLLOWS`].
    fn first_byte(&self) -> u8 {
        debug_assert!((1..=4).contains(&self.pn_len), "pn length {}", self.pn_len);
        self.ty.to_bits() | (self.pn_len as u8 - 1)
    }

    /// Everything after the type byte and the length.
    fn encode_rest(&self, w: &mut Writer) {
        w.put_u64(self.dcid);
        for i in (0..self.pn_len).rev() {
            w.put_u8((self.pn >> (8 * i)) as u8);
        }
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
        1 + 8 + self.pn_len + frames
    }
}

/// Encodes `packets` onto `w` as one datagram: every packet but the last
/// with a length. Each packet is encoded exactly once, directly into the
/// output; hot paths pass a recycled writer (see
/// [`moqdns_wire::BufPool`]).
pub fn encode_datagram_into(packets: &[Packet<'_>], w: &mut Writer) {
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
pub(crate) fn encode_datagram(packets: &[Packet<'_>]) -> Vec<u8> {
    let mut w = Writer::with_capacity(256);
    encode_datagram_into(packets, &mut w);
    w.into_vec()
}

/// Peeks the destination connection id of the first packet in a
/// datagram without decoding frames — endpoint routing runs this once
/// per datagram, then hands the datagram to the owning connection. Reads
/// the type byte, the length if one follows, then the connection id.
pub fn peek_dcid(buf: &[u8]) -> Option<u64> {
    let mut r = Reader::new(buf);
    let first = r.get_u8().ok()?;
    PacketType::of_first(first).ok()?;
    if first & LENGTH_FOLLOWS != 0 {
        varint::get_varint(&mut r).ok()?;
    }
    r.get_u64().ok()
}

/// A datagram every packet and frame of which decodes: what
/// [`decode_datagram_payload`] hands back. Its packets are read off the
/// bytes as they are visited (module docs).
#[derive(Debug, Clone, Copy)]
pub struct Datagram<'a> {
    buf: &'a Payload,
}

impl<'a> Datagram<'a> {
    /// The packets, in datagram order.
    pub fn packets(&self) -> Packets<'a> {
        Packets {
            buf: self.buf,
            r: Reader::new(self.buf.as_slice()),
        }
    }

    /// Bytes of the datagram.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True for an empty datagram, which holds no packet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl<'a> IntoIterator for Datagram<'a> {
    type Item = PacketView<'a>;
    type IntoIter = Packets<'a>;

    fn into_iter(self) -> Packets<'a> {
        self.packets()
    }
}

/// The packets of a [`Datagram`], read in place.
#[derive(Debug, Clone)]
pub struct Packets<'a> {
    buf: &'a Payload,
    r: Reader<'a>,
}

impl<'a> Iterator for Packets<'a> {
    type Item = PacketView<'a>;

    fn next(&mut self) -> Option<PacketView<'a>> {
        if self.r.is_empty() {
            return None;
        }
        // The datagram was checked whole, so this does not fail; if it
        // did, the iteration would end here.
        read_packet(&mut self.r, self.buf).ok()
    }
}

/// One packet of a [`Datagram`]: its header, and its frames where they
/// stand in the datagram.
#[derive(Debug, Clone)]
pub struct PacketView<'a> {
    /// Packet type.
    pub ty: PacketType,
    /// Destination connection id.
    pub dcid: u64,
    /// The packet number's low bytes, as they came.
    truncated_pn: u64,
    pn_len: usize,
    buf: &'a Payload,
    /// The packet's bytes in the datagram, from its type byte.
    start: usize,
    /// Its frames' bytes in the datagram.
    frames: Range<usize>,
}

impl<'a> PacketView<'a> {
    /// The packet number, expanded against the largest the receiver has
    /// received ([`expand_pn`]).
    pub fn pn(&self, largest_received: Option<u64>) -> u64 {
        expand_pn(largest_received, self.truncated_pn, self.pn_len)
    }

    /// Bytes the packet number took on the wire.
    pub fn pn_len(&self) -> usize {
        self.pn_len
    }

    /// The frames, in packet order; STREAM, CRYPTO and DATAGRAM payloads
    /// are zero-copy views of the datagram.
    pub fn frames(&self) -> Frames<'a> {
        Frames {
            buf: self.buf,
            base: self.frames.start,
            r: Reader::new(&self.buf.as_slice()[self.frames.clone()]),
        }
    }

    /// This packet alone, as a datagram of its own: a view of the
    /// datagram it came in, not a copy.
    pub fn bytes(&self) -> Payload {
        self.buf.slice(self.start..self.frames.end)
    }
}

/// The frames of a [`PacketView`], read in place.
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    buf: &'a Payload,
    /// Where `r`'s bytes start in `buf`.
    base: usize,
    r: Reader<'a>,
}

impl<'a> Iterator for Frames<'a> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        if self.r.is_empty() {
            return None;
        }
        Frame::decode_in(&mut self.r, Some((self.buf, self.base))).ok()
    }
}

/// Reads the header of the next packet of `buf` from `r`, and moves `r`
/// past the packet: its type byte, the length if one follows and that
/// many bytes, or else the rest of the datagram.
fn read_packet<'a>(r: &mut Reader<'a>, buf: &'a Payload) -> WireResult<PacketView<'a>> {
    let start = r.position();
    let first = r.get_u8()?;
    let ty = PacketType::of_first(first)?;
    let len = match first & LENGTH_FOLLOWS {
        0 => r.remaining(),
        _ => varint::get_varint(r)? as usize,
    };
    let base = r.position();
    let mut body = Reader::new(r.get_bytes(len)?);
    let dcid = body.get_u64()?;
    let pn_len = usize::from(first & PN_LEN_BITS) + 1;
    let truncated_pn = body
        .get_bytes(pn_len)?
        .iter()
        .fold(0, |pn, &b| pn << 8 | u64::from(b));
    Ok(PacketView {
        ty,
        dcid,
        truncated_pn,
        pn_len,
        buf,
        start,
        frames: base + body.position()..base + len,
    })
}

/// Checks that a datagram delivered as a shared [`Payload`] decodes
/// whole — every coalesced packet, every frame — in one pass, and hands
/// it back to be read in place (module docs). Nothing is allocated.
pub fn decode_datagram_payload(buf: &Payload) -> WireResult<Datagram<'_>> {
    let mut r = Reader::new(buf.as_slice());
    while !r.is_empty() {
        let p = read_packet(&mut r, buf)?;
        let mut frames = Reader::new(&buf.as_slice()[p.frames]);
        while !frames.is_empty() {
            crate::frame::skip(&mut frames)?;
        }
    }
    Ok(Datagram { buf })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::streams::StreamId;
    use proptest::prelude::*;

    /// A datagram's packets as owned values, each number expanded
    /// against `largest_received`.
    fn owned(dg: Datagram<'_>, largest_received: Option<u64>) -> Vec<Packet<'_>> {
        dg.packets()
            .map(|p| Packet {
                ty: p.ty,
                dcid: p.dcid,
                pn: p.pn(largest_received),
                pn_len: p.pn_len(),
                frames: p.frames().collect(),
            })
            .collect()
    }

    fn decode(bytes: &Payload) -> WireResult<Vec<Packet<'_>>> {
        decode_datagram_payload(bytes).map(|dg| owned(dg, None))
    }

    #[test]
    fn packet_roundtrip() {
        let p = Packet {
            ty: PacketType::OneRtt,
            dcid: 0xDEAD_BEEF_0000_0001,
            pn: 42,
            pn_len: 1,
            frames: vec![Frame::Ping, Frame::MaxData { max: 65536 }],
        };
        let wire = Payload::new(p.encode());
        assert_eq!(decode(&wire).unwrap(), [p]);
    }

    #[test]
    fn rfc_9000_appendix_a_2_picks_16_bits() {
        // Largest acknowledged 0xabe8b3, sending 0xac5c02: 29,519
        // packets outstanding, twice that needs 16 bits.
        assert_eq!(pn_len(0xac5c02, Some(0xabe8b3)), 2);
        assert_eq!(pn_len(0xabe8b3 + 0x7f, Some(0xabe8b3)), 1);
        assert_eq!(pn_len(0xabe8b3 + 0x80, Some(0xabe8b3)), 2);
        assert_eq!(pn_len(0xabe8b3 + 0x8000, Some(0xabe8b3)), 4);
        // Before any acknowledgement every packet so far counts.
        assert_eq!(pn_len(63, None), 1);
        assert_eq!(pn_len(127, None), 2);
    }

    #[test]
    fn rfc_9000_appendix_a_3_expands_against_the_largest_received() {
        assert_eq!(expand_pn(Some(0xa82f30ea), 0x9b32, 2), 0xa82f9b32);
        // Nothing received yet: the number is what came.
        assert_eq!(expand_pn(None, 5, 1), 5);
        // A 1-byte number wraps forwards and backwards around the one
        // expected next.
        assert_eq!(expand_pn(Some(0x1fe), 0x01, 1), 0x201);
        assert_eq!(expand_pn(Some(0x201), 0xff, 1), 0x1ff);
    }

    #[test]
    fn the_type_byte_carries_the_packet_number_length() {
        for (pn_len, bits) in [(1, 0), (2, 1), (4, 3)] {
            let p = Packet {
                ty: PacketType::ZeroRtt,
                dcid: 9,
                pn: 0x0102_0304,
                pn_len,
                frames: vec![Frame::Ping],
            };
            let bytes = p.encode();
            assert_eq!(bytes[0], 0x10 | bits);
            assert_eq!(bytes.len(), 1 + 8 + pn_len + 1);
            assert_eq!(&bytes[9..9 + pn_len], &[1, 2, 3, 4][4 - pn_len..]);
            let wire = Payload::new(bytes);
            let dg = decode_datagram_payload(&wire).unwrap();
            let view = dg.packets().next().unwrap();
            assert_eq!(view.pn(Some(0x0102_0300)), 0x0102_0304);
        }
    }

    #[test]
    fn datagram_coalescing_roundtrip() {
        let a = Packet {
            ty: PacketType::Initial,
            dcid: 7,
            pn: 0,
            pn_len: 1,
            frames: vec![Frame::Crypto {
                offset: 0,
                data: vec![1, 2, 3].into(),
            }],
        };
        let b = Packet {
            ty: PacketType::ZeroRtt,
            dcid: 7,
            pn: 1,
            pn_len: 1,
            frames: vec![Frame::Stream {
                id: crate::streams::StreamId(0),
                offset: 0,
                fin: false,
                data: vec![9, 9].into(),
            }],
        };
        let dg = Payload::new(encode_datagram(&[a.clone(), b.clone()]));
        assert_eq!(decode(&dg).unwrap(), vec![a, b]);
    }

    #[test]
    fn only_the_last_packet_of_a_datagram_goes_without_a_length() {
        let packet = |pn| Packet {
            ty: PacketType::OneRtt,
            dcid: 7,
            pn,
            pn_len: 1,
            frames: vec![Frame::Ping],
        };
        let (a, b) = (packet(1), packet(2));
        let dg = encode_datagram(&[a.clone(), b.clone()]);
        // a: type | LENGTH_FOLLOWS, length, dcid, pn, PING; b: as alone.
        assert_eq!(dg[0], 0x20 | LENGTH_FOLLOWS);
        assert_eq!(dg[1] as usize, a.encoded_len() - 1);
        assert_eq!(&dg[2..a.encoded_len() + 1], &a.encode()[1..]);
        assert_eq!(&dg[a.encoded_len() + 1..], &b.encode()[..]);
        assert_eq!(peek_dcid(&dg), Some(7));
        assert_eq!(peek_dcid(&b.encode()), Some(7));
        // A lone packet with a length is still one packet, and each
        // packet's own bytes are that.
        let wire = Payload::new(dg);
        let lone = wire.slice(0..a.encoded_len() + 1);
        assert_eq!(decode(&lone).unwrap(), [a]);
        let views: Vec<_> = decode_datagram_payload(&wire).unwrap().packets().collect();
        assert!(views[0].bytes().shares_storage_with(&wire));
        assert_eq!(views[0].bytes(), lone);
        assert_eq!(decode(&views[1].bytes()).unwrap(), [b]);
    }

    #[test]
    fn a_length_past_the_datagram_is_rejected() {
        let p = Packet {
            ty: PacketType::OneRtt,
            dcid: 7,
            pn: 1,
            pn_len: 1,
            frames: vec![Frame::Datagram {
                data: vec![1, 2, 3].into(),
            }],
        };
        let body = &p.encode()[1..];
        let mut dg = vec![0x20 | LENGTH_FOLLOWS, body.len() as u8 + 1];
        dg.extend_from_slice(body);
        assert!(decode_datagram_payload(&Payload::from(&dg[..])).is_err());
        // The length it should have read parses.
        dg[1] -= 1;
        assert_eq!(decode(&Payload::from(&dg[..])).unwrap(), vec![p]);
    }

    #[test]
    fn rejects_unknown_type() {
        let bytes = Packet {
            ty: PacketType::OneRtt,
            dcid: 1,
            pn: 0,
            pn_len: 1,
            frames: vec![],
        }
        .encode();
        for first in [0x30, 0x40, 0x04, 0x08] {
            let mut bytes = bytes.clone();
            bytes[0] = first;
            assert!(decode_datagram_payload(&Payload::new(bytes.clone())).is_err());
            assert_eq!(peek_dcid(&bytes), None);
        }
    }

    #[test]
    fn rejects_truncated() {
        assert!(decode_datagram_payload(&Payload::from(&[0, 1, 2][..])).is_err());
        assert!(decode_datagram_payload(&Payload::from(&[5, 0][..])).is_err());
        // A packet number cut short.
        assert!(
            decode_datagram_payload(&Payload::from(&[3, 0, 0, 0, 0, 0, 0, 0, 7, 1][..])).is_err()
        );
    }

    #[test]
    fn a_damaged_frame_rejects_the_whole_datagram() {
        let a = Packet {
            ty: PacketType::OneRtt,
            dcid: 7,
            pn: 1,
            pn_len: 1,
            frames: vec![Frame::Ping],
        };
        let mut dg = encode_datagram(&[a.clone(), a]);
        *dg.last_mut().unwrap() = 0x3f; // no such frame type
        assert!(decode_datagram_payload(&Payload::new(dg)).is_err());
    }

    proptest! {
        /// Arbitrary bytes never panic the decoder, and whatever it
        /// accepts reads back without running out.
        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            let wire = Payload::from(&bytes[..]);
            if let Ok(dg) = decode_datagram_payload(&wire) {
                let mut r = Reader::new(&bytes);
                for p in dg {
                    prop_assert_eq!(p.frames().count(), {
                        let mut frames = Reader::new(&bytes[p.frames.clone()]);
                        let mut n = 0;
                        while !frames.is_empty() {
                            Frame::decode(&mut frames).unwrap();
                            n += 1;
                        }
                        n
                    });
                    read_packet(&mut r, &wire).unwrap();
                }
                prop_assert!(r.is_empty(), "the packets cover the datagram");
            }
        }

        /// Zero-copy: the packets read back are the ones encoded, and the
        /// DATAGRAM, STREAM and CRYPTO payloads they carry are sub-views
        /// of the incoming datagram's storage (no per-hop copies). A
        /// byte overwritten anywhere leaves a datagram that is rejected
        /// or read back without a panic.
        #[test]
        fn prop_the_payload_decode_is_zero_copy(
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
            let pn = u64::from(pn);
            let packets = vec![
                Packet {
                    ty: PacketType::Initial,
                    dcid,
                    pn,
                    pn_len: 4,
                    frames: vec![Frame::Crypto { offset: 0, data: crypto.into() }],
                },
                Packet {
                    ty: PacketType::OneRtt,
                    dcid,
                    pn: pn + 1,
                    pn_len: 4,
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
            let shared = owned(decode_datagram_payload(&wire).unwrap(), pn.checked_sub(1));
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
            let mut damaged = wire.as_slice().to_vec();
            let i = at % damaged.len();
            damaged[i] = with;
            let damaged = Payload::new(damaged);
            if let Ok(dg) = decode_datagram_payload(&damaged) {
                for p in dg {
                    p.frames().for_each(drop);
                }
            }
        }
    }
}
