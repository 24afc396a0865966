//! Decoder fuzz properties for `quic::packet` / `quic::frame` — the first
//! bytes an attacker reaches, and since a node transmits once per instant
//! the multi-frame, multi-packet datagram is the common case. The same three
//! properties `moqt::ControlMessage::decode` has: never panics, never reads
//! past the buffer, encode∘decode round-trips — here for arbitrary frame
//! lists up to the MTU budget.
//!
//! The wire image leaves lengths out where the end of a packet or of a
//! datagram says it: a packet's last STREAM or DATAGRAM frame has none,
//! nor has a datagram's last packet. So a frame that was decoded without
//! a length is re-encoded as a last frame, and a datagram's size is its
//! packets' sizes plus one length for every packet but the last.
//!
//! A fourth property holds the packet number truncation to RFC 9000
//! §17.1: never longer than the full varint, and expanded back exactly
//! by any receiver that has seen what was acknowledged and no further
//! past the packet than the packet is past the acknowledgement.

use moqdns_quic::frame::Frame;
use moqdns_quic::packet::{
    decode_datagram_payload, encode_datagram_into, pn_len, Datagram, Packet, PacketType,
};
use moqdns_quic::{StreamId, MAX_UDP_PAYLOAD};
use moqdns_wire::varint::{varint_len, MAX_VARINT};
use moqdns_wire::{varint, Payload, Reader, Writer};
use proptest::prelude::*;

/// What a frame is generated from: a kind selector, two integers and a
/// byte string (the shim has no `prop_map`, so properties draw these
/// tuples and build frames in the body).
type Seed = (u8, u64, u64, Vec<u8>);

fn seeds(max_frames: usize) -> impl Strategy<Value = Vec<Seed>> {
    proptest::collection::vec(
        (
            any::<u8>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..96),
        ),
        0..max_frames,
    )
}

/// Any frame the encoder can be handed; integers are folded into the
/// varint range.
fn frame((kind, a, b, bytes): &Seed) -> Frame<'_> {
    let (kind, a, b) = (*kind, a & MAX_VARINT, b & MAX_VARINT);
    match kind % 14 {
        0 => Frame::Padding,
        1 => Frame::Ping,
        2 => Frame::Ack {
            // Descending `(start, end)` ranges with start <= end.
            ranges: bytes
                .chunks(2)
                .scan(a, |top, c| {
                    let end = *top;
                    let start = end.saturating_sub(u64::from(c[0]));
                    *top = start.saturating_sub(2 + u64::from(c[c.len() - 1]));
                    Some((start, end))
                })
                .collect::<Vec<_>>()
                .into(),
        },
        3 => Frame::Crypto {
            offset: a,
            data: bytes.clone().into(),
        },
        4 => Frame::Stream {
            id: StreamId(a),
            offset: b,
            fin: kind & 0x80 != 0,
            data: bytes.clone().into(),
        },
        5 => Frame::ResetStream {
            id: StreamId(a),
            error_code: b,
        },
        6 => Frame::StopSending {
            id: StreamId(a),
            error_code: b,
        },
        7 => Frame::MaxData { max: a },
        8 => Frame::MaxStreamData {
            id: StreamId(a),
            max: b,
        },
        9 => Frame::MaxStreams { bidi: true, max: a },
        10 => Frame::MaxStreams {
            bidi: false,
            max: a,
        },
        11 => Frame::HandshakeDone,
        12 => Frame::Datagram {
            data: bytes.clone().into(),
        },
        _ => Frame::ConnectionClose {
            error_code: a,
            reason: bytes,
        },
    }
}

/// Packs `frames` the way the connection does: an Initial, a 0-RTT and a
/// 1-RTT packet coalesced into one datagram, cut off at the MTU budget.
/// The packets are numbered from `pn`, each truncated against `pn - 1`
/// as the largest acknowledged ([`received`] is the same for the
/// receiver).
fn datagram(dcid: u64, pn: u32, frames: Vec<Frame<'_>>) -> Vec<Packet<'_>> {
    // Length prefix + type + cid + packet number, at their largest.
    const PACKET_OVERHEAD: usize = 2 + 1 + 8 + 8;
    let mut budget = MAX_UDP_PAYLOAD;
    let types = [PacketType::Initial, PacketType::ZeroRtt, PacketType::OneRtt];
    let n = frames.len();
    let mut packets: Vec<Packet> = Vec::new();
    for (i, f) in frames.into_iter().enumerate() {
        let ty = types[i * types.len() / n];
        let opens = packets.last().is_none_or(|p| p.ty != ty);
        let need = f.encoded_len() + if opens { PACKET_OVERHEAD } else { 0 };
        if need > budget {
            break;
        }
        budget -= need;
        if opens {
            let number = u64::from(pn) + packets.len() as u64;
            packets.push(Packet {
                ty,
                dcid,
                pn: number,
                pn_len: pn_len(number, received(pn)),
                frames: Vec::new(),
            });
        }
        packets.last_mut().unwrap().frames.push(f);
    }
    packets
}

/// The largest packet number a receiver of [`datagram`]'s packets
/// numbered from `pn` has seen.
fn received(pn: u32) -> Option<u64> {
    u64::from(pn).checked_sub(1)
}

/// A decoded datagram's packets as owned values, each number expanded
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

/// `packets` encoded as one datagram, as the connection sends them.
fn encode(packets: &[Packet<'_>]) -> Vec<u8> {
    let mut w = Writer::new();
    encode_datagram_into(packets, &mut w);
    w.into_vec()
}

/// The bytes `packets` take as one datagram: each packet's own, and in
/// front of every packet but the last, the varint length of what follows
/// its type byte.
fn datagram_len(packets: &[Packet<'_>]) -> usize {
    let prefixes: usize = packets
        .iter()
        .rev()
        .skip(1)
        .map(|p| varint_len(p.encoded_len() as u64 - 1))
        .sum();
    packets.iter().map(Packet::encoded_len).sum::<usize>() + prefixes
}

/// True when the frame at the start of `bytes` has a type that carries
/// no length: a STREAM type without its LEN bit, or DATAGRAM 0x30.
fn lengthless(bytes: &[u8]) -> bool {
    match varint::get_varint(&mut Reader::new(bytes)) {
        Ok(ty @ 0x08..=0x0f) => ty & 0x02 == 0,
        Ok(ty) => ty == 0x30,
        Err(_) => false,
    }
}

/// The bounds a successful zero-copy parse must respect: every payload
/// view lies inside the datagram it was parsed from, and the packets
/// account for no more bytes than arrived.
fn assert_within(packets: &[Packet<'_>], wire: &Payload) {
    let claimed = datagram_len(packets);
    for p in packets {
        for f in &p.frames {
            if let Frame::Stream { data, .. } | Frame::Datagram { data } = f {
                assert!(data.len() <= wire.len());
                assert!(data.is_empty() || data.shares_storage_with(wire));
            }
        }
    }
    // Re-encoding is canonical (minimal varints, no zero offset, no
    // length a packet's or a datagram's end implies), so it can only
    // shrink.
    assert!(claimed <= wire.len(), "{claimed} > {}", wire.len());
}

proptest! {
    #[test]
    fn frame_decode_never_over_reads(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut r = Reader::new(&bytes);
        if let Ok(f) = Frame::decode(&mut r) {
            let used = r.position();
            prop_assert!(used > 0 && used <= bytes.len());
            // A frame without a length ran to the end of the buffer, and
            // is re-encoded as the last frame of its packet.
            let last = lengthless(&bytes);
            prop_assert!(!last || r.is_empty(), "a frame without a length takes the rest");
            let len = if last { f.encoded_len_last() } else { f.encoded_len() };
            prop_assert!(len <= used, "canonical re-encoding only shrinks");
            // What was decoded is a frame the encoder round-trips.
            let mut w = Writer::new();
            if last {
                f.encode_last(&mut w);
            } else {
                f.encode(&mut w);
            }
            prop_assert_eq!(w.len(), len, "size accounting");
            let again = w.into_vec();
            let mut r2 = Reader::new(&again);
            prop_assert_eq!(Frame::decode(&mut r2).unwrap(), f);
            prop_assert!(r2.is_empty());
        }
    }

    #[test]
    fn datagram_decode_never_over_reads(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let wire = Payload::from(&bytes[..]);
        if let Ok(dg) = decode_datagram_payload(&wire) {
            assert_within(&owned(dg, None), &wire);
        }
    }

    #[test]
    fn frame_lists_up_to_the_mtu_round_trip(
        dcid in any::<u64>(),
        pn in any::<u32>(),
        seeds in seeds(40),
    ) {
        let packets = datagram(dcid, pn, seeds.iter().map(frame).collect());
        let bytes = encode(&packets);
        prop_assert!(bytes.len() <= MAX_UDP_PAYLOAD);
        prop_assert_eq!(datagram_len(&packets), bytes.len(), "size accounting");
        let wire = Payload::new(bytes);
        let shared = owned(decode_datagram_payload(&wire).unwrap(), received(pn));
        prop_assert_eq!(&shared, &packets);
        assert_within(&shared, &wire);
    }

    /// Each frame on its own, both ways it can be framed: with every
    /// length it has, and as the last of its packet. The two agree on
    /// the frame, the second is never the longer, and each size is exact.
    #[test]
    fn every_frame_round_trips_with_and_without_its_length(seeds in seeds(8)) {
        for f in seeds.iter().map(frame) {
            let (mut inner, mut last) = (Writer::new(), Writer::new());
            f.encode(&mut inner);
            f.encode_last(&mut last);
            prop_assert_eq!(inner.len(), f.encoded_len());
            prop_assert_eq!(last.len(), f.encoded_len_last());
            prop_assert!(last.len() <= inner.len());
            for bytes in [inner.into_vec(), last.into_vec()] {
                let mut r = Reader::new(&bytes);
                prop_assert_eq!(&Frame::decode(&mut r).unwrap(), &f);
                prop_assert!(r.is_empty());
            }
        }
    }

    /// Random bytes almost never get past the first varint; damaged
    /// *valid* datagrams reach every decoder arm. Truncate one anywhere,
    /// overwrite a byte anywhere: no panic, and whatever still parses
    /// stays inside the buffer.
    #[test]
    fn damaged_datagrams_never_panic_or_over_read(
        seeds in seeds(24),
        cut in any::<u16>(),
        at in any::<u16>(),
        with in any::<u8>(),
    ) {
        let packets = datagram(7, 1, seeds.iter().map(frame).collect());
        let mut bytes = encode(&packets);
        if bytes.is_empty() {
            return;
        }
        let at = usize::from(at) % bytes.len();
        bytes[at] = with;
        bytes.truncate(1 + usize::from(cut) % bytes.len());
        let wire = Payload::new(bytes);
        if let Ok(dg) = decode_datagram_payload(&wire) {
            assert_within(&owned(dg, received(1)), &wire);
        }
    }

    /// RFC 9000 §17.1 and Appendix A: for any packet number and any
    /// largest acknowledged less than 2^31 behind it (or none, for a
    /// number below 2^31 - 1), the number takes no more bytes than its
    /// varint did, and every receiver whose largest received lies in the
    /// window — at least what was acknowledged, and no further past the
    /// packet than the packet is past the acknowledgement — expands it
    /// back exactly.
    #[test]
    fn truncated_packet_numbers_expand_back_exactly(
        pn in 0..(1u64 << 62) - (1 << 32),
        bits in 0u32..32,
        gap in any::<u64>(),
        acked in any::<bool>(),
        seen in any::<u64>(),
    ) {
        // Gaps of every magnitude, so each length's edges are reached.
        let gap = gap % (1u64 << bits).min((1 << 31) - 1);
        // Nothing acknowledged: every packet up to this one counts.
        let (pn, largest_acked) = match acked {
            true => (pn.max(gap + 1), Some(pn.max(gap + 1) - (gap + 1))),
            false => (gap, None),
        };
        let len = pn_len(pn, largest_acked);
        prop_assert!(len <= varint_len(pn), "{} bytes for {}", len, pn);
        let packet = Packet {
            ty: PacketType::OneRtt,
            dcid: 7,
            pn,
            pn_len: len,
            frames: vec![Frame::Ping],
        };
        let wire = Payload::new(packet.encode());
        prop_assert_eq!(wire.len(), 1 + 8 + len + 1);
        let view = decode_datagram_payload(&wire).unwrap().packets().next().unwrap();
        // The window: from the largest acknowledged (or nothing
        // received) to as far past the packet as it is past that.
        let unacked = largest_acked.map_or(pn + 1, |l| pn - l);
        let lowest = largest_acked.map_or(0, |l| l);
        let span = pn + unacked - lowest;
        let largest_received = match largest_acked {
            None if seen.is_multiple_of(4) => None,
            _ => Some(lowest + seen % span),
        };
        prop_assert_eq!(view.pn(largest_received), pn, "seen {:?}", largest_received);
        // The ends of the window, too.
        prop_assert_eq!(view.pn(Some(lowest + span - 1)), pn);
        prop_assert_eq!(view.pn(largest_acked), pn);
    }
}
