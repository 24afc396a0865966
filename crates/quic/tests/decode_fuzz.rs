//! Decoder fuzz properties for `quic::packet` / `quic::frame` — the first
//! bytes an attacker reaches, and since a node transmits once per turn the
//! multi-frame, multi-packet datagram is the common case. The same three
//! properties `moqt::ControlMessage::decode` has: never panics, never reads
//! past the buffer, encode∘decode round-trips — here for arbitrary frame
//! lists up to the MTU budget.

use moqdns_quic::frame::Frame;
use moqdns_quic::packet::{
    decode_datagram, decode_datagram_payload, encode_datagram, Packet, PacketType,
};
use moqdns_quic::{StreamId, TransportConfig};
use moqdns_wire::varint::{varint_len, MAX_VARINT};
use moqdns_wire::{Payload, Reader, Writer};
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
fn frame((kind, a, b, bytes): Seed) -> Frame {
    let (a, b) = (a & MAX_VARINT, b & MAX_VARINT);
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
                .collect(),
        },
        3 => Frame::Crypto {
            offset: a,
            data: bytes,
        },
        4 => Frame::Stream {
            id: StreamId(a),
            offset: b,
            fin: kind & 0x80 != 0,
            data: bytes.into(),
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
        12 => Frame::Datagram { data: bytes.into() },
        _ => Frame::ConnectionClose {
            error_code: a,
            reason: bytes,
        },
    }
}

/// Packs `frames` the way the connection does: an Initial, a 0-RTT and a
/// 1-RTT packet coalesced into one datagram, cut off at the MTU budget.
fn datagram(dcid: u64, pn: u32, frames: Vec<Frame>) -> Vec<Packet> {
    // Length prefix + type + cid + packet number, at their largest.
    const PACKET_OVERHEAD: usize = 2 + 1 + 8 + 8;
    let mut budget = TransportConfig::default().max_udp_payload;
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
            packets.push(Packet {
                ty,
                dcid,
                pn: u64::from(pn) + packets.len() as u64,
                frames: Vec::new(),
            });
        }
        packets.last_mut().unwrap().frames.push(f);
    }
    packets
}

/// The bounds a successful zero-copy parse must respect: every payload
/// view lies inside the datagram it was parsed from, and the packets
/// account for no more bytes than arrived.
fn assert_within(packets: &[Packet], wire: &Payload) {
    let mut claimed = 0;
    for p in packets {
        claimed += varint_len(p.encoded_len() as u64) + p.encoded_len();
        for f in &p.frames {
            if let Frame::Stream { data, .. } | Frame::Datagram { data } = f {
                assert!(data.len() <= wire.len());
                assert!(data.is_empty() || data.shares_storage_with(wire));
            }
        }
    }
    // Re-encoding is canonical (minimal varints), so it can only shrink.
    assert!(claimed <= wire.len(), "{claimed} > {}", wire.len());
}

proptest! {
    #[test]
    fn frame_decode_never_over_reads(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut r = Reader::new(&bytes);
        if let Ok(f) = Frame::decode(&mut r) {
            let used = r.position();
            prop_assert!(used > 0 && used <= bytes.len());
            prop_assert!(f.encoded_len() <= used, "canonical re-encoding only shrinks");
            // What was decoded is a frame the encoder round-trips.
            let mut w = Writer::new();
            f.encode(&mut w);
            let again = w.into_vec();
            let mut r2 = Reader::new(&again);
            prop_assert_eq!(Frame::decode(&mut r2).unwrap(), f);
            prop_assert!(r2.is_empty());
        }
    }

    #[test]
    fn datagram_decode_never_over_reads(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let wire = Payload::from(&bytes[..]);
        if let Ok(packets) = decode_datagram_payload(&wire) {
            assert_within(&packets, &wire);
            prop_assert_eq!(decode_datagram(&bytes).unwrap(), packets);
        }
    }

    #[test]
    fn frame_lists_up_to_the_mtu_round_trip(
        dcid in any::<u64>(),
        pn in any::<u32>(),
        seeds in seeds(40),
    ) {
        let packets = datagram(dcid, pn, seeds.into_iter().map(frame).collect());
        let bytes = encode_datagram(&packets);
        prop_assert!(bytes.len() <= TransportConfig::default().max_udp_payload);
        let framed: usize = packets
            .iter()
            .map(|p| varint_len(p.encoded_len() as u64) + p.encoded_len())
            .sum();
        prop_assert_eq!(framed, bytes.len(), "size accounting");
        let wire = Payload::new(bytes);
        let shared = decode_datagram_payload(&wire).unwrap();
        prop_assert_eq!(&shared, &packets);
        prop_assert_eq!(&decode_datagram(wire.as_slice()).unwrap(), &packets);
        assert_within(&shared, &wire);
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
        let packets = datagram(7, 1, seeds.into_iter().map(frame).collect());
        let mut bytes = encode_datagram(&packets);
        if bytes.is_empty() {
            return;
        }
        let at = usize::from(at) % bytes.len();
        bytes[at] = with;
        bytes.truncate(1 + usize::from(cut) % bytes.len());
        let wire = Payload::new(bytes);
        if let Ok(parsed) = decode_datagram_payload(&wire) {
            assert_within(&parsed, &wire);
        }
        let _ = decode_datagram(wire.as_slice());
    }
}
