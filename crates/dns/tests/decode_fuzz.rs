//! Decoder fuzz properties for `dns::{Message, Name, rdata}` — the bytes
//! of every object payload a subscriber is pushed, and of every classic
//! query a forwarder accepts. The same three properties `moqt` and `quic`
//! hold: a decoder never panics, never reads past the buffer, and a
//! damaged *valid* message (bit flips, truncation, compression pointers
//! bent into loops or forwards) is either refused or decodes to something
//! that is itself a legal message.

use moqdns_dns::message::{Message, Question};
use moqdns_dns::name::{Name, MAX_LABEL_LEN, MAX_NAME_LEN};
use moqdns_dns::rdata::{RData, Soa};
use moqdns_dns::rr::{Record, RecordType};
use moqdns_wire::Reader;
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

/// What a decoded name must be, however it was spelled on the wire: a
/// legal uncompressed form that every accessor can walk.
fn assert_legal(name: &Name) {
    let wire = name.as_wire();
    assert!(wire.len() <= MAX_NAME_LEN && wire.len() == name.as_wire().len());
    let mut walked = 1;
    for l in name.labels() {
        assert!((1..=MAX_LABEL_LEN).contains(&l.len()));
        walked += 1 + l.len();
    }
    assert_eq!(walked, wire.len());
    assert_eq!(wire.last(), Some(&0));
    // The accessors that walk the buffer in place.
    assert_eq!(name.cmp(&name.to_lowercase()), std::cmp::Ordering::Equal);
    assert!(name.is_subdomain_of(&name.parent().unwrap_or_else(Name::root)));
    // Display escapes what dotted notation cannot carry; plain names
    // parse back.
    let plain = |b: &u8| b.is_ascii_graphic() && !b".\\".contains(b);
    if name.labels().all(|l| l.iter().all(plain)) {
        assert_eq!(&name.to_string().parse::<Name>().unwrap(), name);
    }
    let mut r = Reader::new(wire);
    assert_eq!(Name::decode(&mut r).unwrap().as_wire(), wire);
    assert!(r.is_empty());
}

/// Every name a message carries: owners, questions and the ones inside
/// RDATA.
fn names_of(m: &Message) -> Vec<&Name> {
    let mut out: Vec<&Name> = m.questions.iter().map(|q| &q.qname).collect();
    for r in m.answers.iter().chain(&m.authorities).chain(&m.additionals) {
        out.push(&r.name);
        match &r.rdata {
            RData::NS(n) | RData::CNAME(n) | RData::PTR(n) => out.push(n),
            RData::SOA(s) => out.extend([&s.mname, &s.rname]),
            RData::MX { exchange, .. } => out.push(exchange),
            RData::SRV { target, .. } => out.push(target),
            RData::SVCB(sb) | RData::HTTPS(sb) => out.push(&sb.target),
            _ => {}
        }
    }
    out
}

/// A message that decoded is a legal one: its names are legal and the
/// encoder's output for it decodes to the same message.
fn assert_decoded_is_legal(m: &Message) {
    for n in names_of(m) {
        assert_legal(n);
    }
    assert_eq!(&Message::decode(&m.encode()).unwrap(), m);
}

/// What a record is generated from (the shim has no `prop_map`).
type Seed = (u8, u8, u32, Vec<u8>);

fn seeds(max: usize) -> impl Strategy<Value = Vec<Seed>> {
    proptest::collection::vec(
        (
            any::<u8>(),
            any::<u8>(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..40),
        ),
        0..max,
    )
}

/// One of a few names under two apexes, so that owners, questions and
/// RDATA share suffixes and the compressor has pointers to write.
fn name(pick: u8) -> Name {
    const HOSTS: [&str; 6] = ["", "www.", "ns1.", "a.b.c.", "MAIL.", "x-y."];
    const APEXES: [&str; 3] = ["example.com", "Example.ORG", "test"];
    format!(
        "{}{}",
        HOSTS[pick as usize % HOSTS.len()],
        APEXES[(pick as usize / HOSTS.len()) % APEXES.len()]
    )
    .parse()
    .unwrap()
}

fn record((kind, pick, ttl, bytes): Seed) -> Record {
    let rdata = match kind % 9 {
        0 => RData::A(Ipv4Addr::from(ttl)),
        1 => RData::AAAA(Ipv6Addr::from(u128::from(ttl) << 64 | u128::from(pick))),
        2 => RData::NS(name(kind / 9)),
        3 => RData::CNAME(name(kind / 9)),
        4 => RData::SOA(Soa {
            mname: name(kind / 9),
            rname: name(pick / 3),
            serial: ttl,
            refresh: 2,
            retry: 3,
            expire: 4,
            minimum: 5,
        }),
        5 => RData::MX {
            preference: u16::from(kind),
            exchange: name(kind / 9),
        },
        6 => RData::TXT(bytes.chunks(7).map(<[u8]>::to_vec).collect()),
        7 => RData::SRV {
            priority: 1,
            weight: 2,
            port: u16::from(pick),
            target: name(kind / 9),
        },
        _ => RData::Unknown {
            rtype: 65_280 + u16::from(kind),
            data: bytes,
        },
    };
    Record::new(name(pick), ttl, rdata)
}

/// A response built the way the servers build them: one question, the
/// records dealt over the three sections, names compressed.
fn message(id: u16, seeds: Vec<Seed>) -> Message {
    let qname = name(seeds.first().map_or(0, |s| s.1));
    let mut m = Message::query(id, Question::new(qname, RecordType::A));
    m.header.qr = true;
    for (i, s) in seeds.into_iter().enumerate() {
        match i % 3 {
            0 => m.answers.push(record(s)),
            1 => m.authorities.push(record(s)),
            _ => m.additionals.push(record(s)),
        }
    }
    m
}

/// Offsets in `wire` of bytes that look like the head of a compression
/// pointer: in the messages built here, the pointers and little else.
fn pointer_offsets(wire: &[u8]) -> Vec<usize> {
    (12..wire.len().saturating_sub(1))
        .filter(|&i| wire[i] & 0xC0 == 0xC0)
        .collect()
}

const ALL_TYPES: [RecordType; 13] = [
    RecordType::A,
    RecordType::AAAA,
    RecordType::NS,
    RecordType::CNAME,
    RecordType::SOA,
    RecordType::PTR,
    RecordType::MX,
    RecordType::TXT,
    RecordType::SRV,
    RecordType::SVCB,
    RecordType::HTTPS,
    RecordType::OPT,
    RecordType::Unknown(65_300),
];

#[test]
fn pointer_chains_are_followed_to_the_cap_and_no_further() {
    // `hops` pointers, each to the one before it, ending at a real name:
    // 0: "a." then pointers at 3, 5, 7, …
    let chain = |hops: usize| {
        let mut buf = b"\x01a\x00".to_vec();
        for i in 0..hops {
            let target = if i == 0 { 0 } else { 3 + 2 * (i - 1) };
            buf.extend_from_slice(&[0xC0 | (target >> 8) as u8, target as u8]);
        }
        buf
    };
    for hops in 1..=40 {
        let buf = chain(hops);
        let mut r = Reader::new(&buf);
        r.seek(buf.len() - 2).unwrap();
        let got = Name::decode(&mut r);
        if hops <= 32 {
            assert_eq!(got.unwrap(), "a".parse().unwrap(), "{hops} hops");
            assert!(r.is_empty(), "cursor rests after the first pointer");
        } else {
            assert!(got.is_err(), "{hops} hops exceed the jump cap");
        }
    }
}

#[test]
fn pointer_loops_and_forward_pointers_are_refused() {
    for (buf, start) in [
        (&[0xC0u8, 0x00][..], 0),       // to itself
        (&[0xC0, 0x02, 0xC0, 0x00], 2), // two that point at each other
        (&[0xC0, 0x02, 0x00], 0),       // forwards, to a root
        (&[0x01, b'a', 0xC0, 0x00], 0), // a label, then back to it
        (&[0x01, b'a', 0xC0, 0x02], 0), // a label, then its own pointer
        (&[0x00, 0xC0, 0x09], 1),       // past the end of the buffer
        (&[0xC0], 0),                   // half a pointer
        (&[0x3F, b'a'], 0),             // a label longer than the buffer
        (&[0x40, 0x00], 0),             // reserved label types
        (&[0x80, 0x00], 0),
    ] {
        let mut r = Reader::new(buf);
        r.seek(start).unwrap();
        assert!(Name::decode(&mut r).is_err(), "{buf:02x?} from {start}");
    }
    // A name one byte over the limit, assembled through a pointer: each
    // half is legal on its own (128 + 128 + root = 257 > 255).
    let mut buf = Vec::new();
    for _ in 0..64 {
        buf.extend_from_slice(b"\x01a");
    }
    buf.push(0);
    let tail = buf.len();
    for _ in 0..64 {
        buf.extend_from_slice(b"\x01b");
    }
    buf.extend_from_slice(&[0xC0, 0x00]);
    let mut r = Reader::new(&buf);
    r.seek(tail).unwrap();
    assert!(Name::decode(&mut r).is_err());
    // …and one label fewer is the longest legal name.
    let mut r = Reader::new(&buf);
    r.seek(tail + 2).unwrap();
    let longest = Name::decode(&mut r).unwrap();
    assert_eq!(longest.as_wire().len(), MAX_NAME_LEN);
    assert_legal(&longest);
}

proptest! {
    #[test]
    fn name_decode_never_over_reads(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        start in any::<u16>(),
    ) {
        let start = usize::from(start) % (bytes.len() + 1);
        let mut r = Reader::new(&bytes);
        r.seek(start).unwrap();
        if let Ok(name) = Name::decode(&mut r) {
            prop_assert!(r.position() > start && r.position() <= bytes.len());
            assert_legal(&name);
        }
    }

    /// Random bytes rarely hold a pointer that lands on a label; bytes
    /// drawn from what names are made of do.
    #[test]
    fn name_decode_survives_dense_pointer_soup(
        picks in proptest::collection::vec(0u8..8, 1..120),
        start in any::<u8>(),
    ) {
        const PARTS: [u8; 8] = [0xC0, 0x00, 0x01, 0x02, 0x04, b'a', 0x3F, 0xC1];
        let bytes: Vec<u8> = picks.iter().map(|&i| PARTS[i as usize]).collect();
        let start = usize::from(start) % bytes.len();
        let mut r = Reader::new(&bytes);
        r.seek(start).unwrap();
        if let Ok(name) = Name::decode(&mut r) {
            prop_assert!(r.position() > start && r.position() <= bytes.len());
            assert_legal(&name);
        }
    }

    #[test]
    fn rdata_decode_never_over_reads(
        bytes in proptest::collection::vec(any::<u8>(), 0..120),
        ty in 0usize..13,
        start in any::<u8>(),
        rdlen in any::<u8>(),
    ) {
        let start = usize::from(start) % (bytes.len() + 1);
        // Also lengths that run past the buffer: `decode` is public.
        let rdlen = usize::from(rdlen) % (bytes.len() - start + 8);
        let mut r = Reader::new(&bytes);
        r.seek(start).unwrap();
        if let Ok(rd) = RData::decode(ALL_TYPES[ty], &mut r, rdlen) {
            prop_assert_eq!(r.position(), start + rdlen, "consumes exactly RDLENGTH");
            prop_assert!(r.position() <= bytes.len());
            prop_assert_eq!(rd.rtype(), ALL_TYPES[ty]);
            // What decoded is something the message codec round-trips.
            let mut m = Message::default();
            m.answers.push(Record::new(Name::root(), 1, rd));
            assert_decoded_is_legal(&m);
        }
    }

    #[test]
    fn message_decode_never_over_reads(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(m) = Message::decode(&bytes) {
            assert_decoded_is_legal(&m);
        }
    }

    #[test]
    fn valid_messages_round_trip(id in any::<u16>(), seeds in seeds(12)) {
        let m = message(id, seeds);
        let wire = m.encode();
        prop_assert_eq!(&Message::decode(&wire).unwrap(), &m);
        // Shared suffixes were written once.
        prop_assert!(m.answers.is_empty() || !pointer_offsets(&wire).is_empty());
        assert_decoded_is_legal(&m);
    }

    /// Random bytes almost never get past the section counts; damaged
    /// *valid* messages reach every decoder arm. Flip a bit anywhere,
    /// overwrite a byte anywhere, cut the message anywhere.
    #[test]
    fn damaged_messages_never_panic_or_over_read(
        seeds in seeds(10),
        flip in any::<u16>(),
        at in any::<u16>(),
        with in any::<u8>(),
        cut in any::<u16>(),
    ) {
        let mut wire = message(7, seeds).encode();
        let flip = usize::from(flip) % (wire.len() * 8);
        wire[flip / 8] ^= 1 << (flip % 8);
        let at = usize::from(at) % wire.len();
        wire[at] = with;
        if cut & 1 == 1 {
            wire.truncate(1 + usize::from(cut >> 1) % wire.len());
        }
        if let Ok(m) = Message::decode(&wire) {
            assert_decoded_is_legal(&m);
        }
    }

    /// The damage that matters most to a name decoder: a compression
    /// pointer of a valid message retargeted — at itself, forwards, at
    /// another pointer, anywhere.
    #[test]
    fn bent_compression_pointers_never_panic_or_loop(
        seeds in seeds(10),
        which in any::<u16>(),
        target in any::<u16>(),
        mode in 0u8..4,
    ) {
        let mut wire = message(9, seeds).encode();
        let pointers = pointer_offsets(&wire);
        if pointers.is_empty() {
            return;
        }
        let at = pointers[usize::from(which) % pointers.len()];
        let target = match mode {
            0 => at,                                                     // itself
            1 => at + 2 + usize::from(target) % (wire.len() - at),       // forwards
            2 => pointers[usize::from(target) % pointers.len()],         // another pointer
            _ => usize::from(target) % wire.len(),                       // anywhere
        } & 0x3FFF;
        wire[at] = 0xC0 | (target >> 8) as u8;
        wire[at + 1] = target as u8;
        if let Ok(m) = Message::decode(&wire) {
            assert_decoded_is_legal(&m);
        }
    }
}
