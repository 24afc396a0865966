//! DNS messages (RFC 1035 §4): header, question, answer/authority/additional
//! sections, with name compression on encode and decompression on decode.

use crate::name::Name;
use crate::rdata::RData;
use crate::rr::{RClass, Record, RecordType};
use moqdns_wire::{Reader, WireError, WireResult, Writer};
use std::fmt;

/// DNS opcodes (we model QUERY; others are carried opaquely).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Opcode {
    /// Standard query.
    #[default]
    Query,
    /// Inverse query (obsolete).
    IQuery,
    /// Server status.
    Status,
    /// Zone change notification (RFC 1996).
    Notify,
    /// Dynamic update (RFC 2136).
    Update,
    /// Any other 4-bit value.
    Unknown(u8),
}

impl Opcode {
    /// The 4-bit wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Unknown(v) => v & 0xF,
        }
    }

    /// Parses the 4-bit wire value.
    pub fn from_u8(v: u8) -> Opcode {
        match v & 0xF {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            other => Opcode::Unknown(other),
        }
    }
}

/// DNS response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rcode {
    /// No error.
    #[default]
    NoError,
    /// Malformed query.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist (authoritative).
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused by policy.
    Refused,
    /// Any other 4-bit value.
    Unknown(u8),
}

impl Rcode {
    /// The 4-bit wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Unknown(v) => v & 0xF,
        }
    }

    /// Parses the 4-bit wire value.
    pub fn from_u8(v: u8) -> Rcode {
        match v & 0xF {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Unknown(other),
        }
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rcode::NoError => write!(f, "NOERROR"),
            Rcode::FormErr => write!(f, "FORMERR"),
            Rcode::ServFail => write!(f, "SERVFAIL"),
            Rcode::NxDomain => write!(f, "NXDOMAIN"),
            Rcode::NotImp => write!(f, "NOTIMP"),
            Rcode::Refused => write!(f, "REFUSED"),
            Rcode::Unknown(v) => write!(f, "RCODE{v}"),
        }
    }
}

/// The 12-byte DNS header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    /// Transaction id.
    pub id: u16,
    /// Query (false) or response (true).
    pub qr: bool,
    /// Operation.
    pub opcode: Opcode,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncated (response did not fit; retry over a stream transport).
    pub tc: bool,
    /// Recursion desired. Part of the MoQT namespace byte (paper Fig 3).
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Authenticated data (DNSSEC).
    pub ad: bool,
    /// Checking disabled (DNSSEC). Part of the MoQT namespace byte (Fig 3).
    pub cd: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl Header {
    fn flags_to_u16(self) -> u16 {
        (self.qr as u16) << 15
            | (self.opcode.to_u8() as u16) << 11
            | (self.aa as u16) << 10
            | (self.tc as u16) << 9
            | (self.rd as u16) << 8
            | (self.ra as u16) << 7
            // bit 6 is Z, must be zero
            | (self.ad as u16) << 5
            | (self.cd as u16) << 4
            | self.rcode.to_u8() as u16
    }

    fn flags_from_u16(id: u16, flags: u16) -> Header {
        Header {
            id,
            qr: flags & (1 << 15) != 0,
            opcode: Opcode::from_u8((flags >> 11) as u8 & 0xF),
            aa: flags & (1 << 10) != 0,
            tc: flags & (1 << 9) != 0,
            rd: flags & (1 << 8) != 0,
            ra: flags & (1 << 7) != 0,
            ad: flags & (1 << 5) != 0,
            cd: flags & (1 << 4) != 0,
            rcode: Rcode::from_u8(flags as u8 & 0xF),
        }
    }
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Question {
    /// Queried name — becomes the MoQT track name in DNS-over-MoQT.
    pub qname: Name,
    /// Queried type — 2 bytes of the MoQT namespace tuple.
    pub qtype: RecordType,
    /// Queried class — 2 bytes of the MoQT namespace tuple.
    pub qclass: RClass,
}

impl Question {
    /// Convenience constructor for IN-class questions.
    pub fn new(qname: Name, qtype: RecordType) -> Question {
        Question {
            qname,
            qtype,
            qclass: RClass::IN,
        }
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.qname, self.qclass, self.qtype)
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Message {
    /// Header with id, flags and rcode (section counts are derived).
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section (NS for referrals, SOA for negative answers).
    pub authorities: Vec<Record>,
    /// Additional section (glue, EDNS OPT).
    pub additionals: Vec<Record>,
}

impl Message {
    /// Builds a recursive-desired query for `question` with transaction `id`.
    pub fn query(id: u16, question: Question) -> Message {
        Message {
            header: Header {
                id,
                rd: true,
                ..Header::default()
            },
            questions: vec![question],
            ..Message::default()
        }
    }

    /// Starts a response consuming `query`: moves the question section
    /// instead of cloning it. Prefer this whenever the query is owned
    /// (just decoded or just built); use [`Message::response_to`] only
    /// when the query must stay borrowed.
    pub fn response(query: Message) -> Message {
        Message {
            header: Header {
                id: query.header.id,
                qr: true,
                opcode: query.header.opcode,
                rd: query.header.rd,
                cd: query.header.cd,
                ..Header::default()
            },
            questions: query.questions,
            ..Message::default()
        }
    }

    /// Starts a response to a borrowed `query`: copies id, question,
    /// opcode, RD/CD. (The question clone is unavoidable here; owned
    /// callers should use [`Message::response`].)
    pub fn response_to(query: &Message) -> Message {
        Message {
            header: Header {
                id: query.header.id,
                qr: true,
                opcode: query.header.opcode,
                rd: query.header.rd,
                cd: query.header.cd,
                ..Header::default()
            },
            questions: query.questions.clone(),
            ..Message::default()
        }
    }

    /// The first (and in practice only) question.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// Encodes to wire format with name compression.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        self.encode_into(&mut w);
        w.into_vec()
    }

    /// Encodes onto `w` (which must be positioned at a message start —
    /// compression offsets are relative to it). Hot paths pass a recycled
    /// writer (see [`moqdns_wire::BufPool`]) to skip per-message
    /// allocation.
    pub fn encode_into(&self, w: &mut Writer) {
        let mut compressor = Compressor::default();
        w.put_u16(self.header.id);
        w.put_u16(self.header.flags_to_u16());
        w.put_u16(self.questions.len() as u16);
        w.put_u16(self.answers.len() as u16);
        w.put_u16(self.authorities.len() as u16);
        w.put_u16(self.additionals.len() as u16);
        for q in &self.questions {
            compressor.encode_name(w, &q.qname);
            w.put_u16(q.qtype.to_u16());
            w.put_u16(q.qclass.to_u16());
        }
        for r in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            compressor.encode_name(w, &r.name);
            w.put_u16(r.rtype().to_u16());
            w.put_u16(r.class.to_u16());
            w.put_u32(r.ttl);
            // RDATA with a placeholder length patched afterwards. Owner
            // names are compressed; names inside RDATA are written
            // uncompressed (always legal, and required for SVCB).
            let len_pos = w.len();
            w.put_u16(0);
            let before = w.len();
            r.rdata.encode(w);
            let rdlen = w.len() - before;
            w.patch_u16(len_pos, rdlen as u16);
        }
    }

    /// Decodes a message from `buf`. The entire buffer must be consumed.
    pub fn decode(buf: &[u8]) -> WireResult<Message> {
        let mut r = Reader::new(buf);
        let id = r.get_u16()?;
        let flags = r.get_u16()?;
        let header = Header::flags_from_u16(id, flags);
        let qd = r.get_u16()? as usize;
        let an = r.get_u16()? as usize;
        let ns = r.get_u16()? as usize;
        let ar = r.get_u16()? as usize;

        // Sanity bound: each question needs ≥5 bytes, each record ≥11.
        let min_needed = qd * 5 + (an + ns + ar) * 11;
        if min_needed > r.remaining() {
            return Err(WireError::Invalid {
                what: "section counts exceed buffer",
            });
        }

        let mut questions = Vec::with_capacity(qd);
        for _ in 0..qd {
            let qname = Name::decode(&mut r)?;
            let qtype = RecordType::from_u16(r.get_u16()?);
            let qclass = RClass::from_u16(r.get_u16()?);
            questions.push(Question {
                qname,
                qtype,
                qclass,
            });
        }

        let decode_records = |r: &mut Reader<'_>, n: usize| -> WireResult<Vec<Record>> {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let name = Name::decode(r)?;
                let rtype = RecordType::from_u16(r.get_u16()?);
                let class = RClass::from_u16(r.get_u16()?);
                let ttl = r.get_u32()?;
                let rdlen = r.get_u16()? as usize;
                if rdlen > r.remaining() {
                    return Err(WireError::UnexpectedEnd {
                        needed: rdlen - r.remaining(),
                    });
                }
                let rdata = RData::decode(rtype, r, rdlen)?;
                out.push(Record {
                    name,
                    class,
                    ttl,
                    rdata,
                });
            }
            Ok(out)
        };

        let answers = decode_records(&mut r, an)?;
        let authorities = decode_records(&mut r, ns)?;
        let additionals = decode_records(&mut r, ar)?;
        r.expect_end()?;

        Ok(Message {
            header,
            questions,
            answers,
            authorities,
            additionals,
        })
    }
}

/// Name compressor (RFC 1035 §4.1.4): remembers the offset at which every
/// name suffix was first written and emits pointers to them. It owns no
/// copy of any name — a suffix is matched, ASCII case-insensitively,
/// against the bytes already in the message.
#[derive(Default)]
struct Compressor {
    /// Message offsets where a label sequence starts: one per label
    /// written, in writing order. Names inside RDATA are not recorded.
    starts: Vec<u16>,
}

impl Compressor {
    fn encode_name(&mut self, w: &mut Writer, name: &Name) {
        // Only names finished before this one are candidates: a suffix of
        // `name` is shorter than anything that starts earlier in `name`.
        let known = self.starts.len();
        let mut suffix = name.as_wire();
        while suffix[0] != 0 {
            let written = w.as_slice();
            if let Some(off) = self.starts[..known]
                .iter()
                .find(|&&at| Self::matches(written, at as usize, suffix))
            {
                w.put_u16(0xC000 | off);
                return;
            }
            // Pointers can only address the first 16 KiB - 2 bits of offset.
            if w.len() <= 0x3FFF {
                self.starts.push(w.len() as u16);
            }
            let (label, rest) = suffix.split_at(1 + suffix[0] as usize);
            w.put_slice(label);
            suffix = rest;
        }
        w.put_u8(0);
    }

    /// True if the name written at `msg[at..]` — this compressor wrote
    /// it, so it ends in a terminator or in a pointer to an earlier one —
    /// is `suffix` (an uncompressed wire form).
    fn matches(msg: &[u8], mut at: usize, mut suffix: &[u8]) -> bool {
        loop {
            let len = msg[at];
            if len & 0xC0 == 0xC0 {
                at = (len as usize & 0x3F) << 8 | msg[at + 1] as usize;
                continue;
            }
            if len == 0 {
                return suffix[0] == 0;
            }
            // Length octet and label together: octets are never letters.
            let n = 1 + len as usize;
            if suffix.len() < n || !msg[at..at + n].eq_ignore_ascii_case(&suffix[..n]) {
                return false;
            }
            at += n;
            suffix = &suffix[n..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::Soa;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn sample_response() -> Message {
        let q = Question::new(n("www.example.com"), RecordType::A);
        let mut m = Message::query(0x1234, q.clone());
        m.header.qr = true;
        m.header.aa = true;
        m.answers.push(Record::new(
            n("www.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        m.answers.push(Record::new(
            n("www.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 2)),
        ));
        m.authorities.push(Record::new(
            n("example.com"),
            3600,
            RData::NS(n("ns1.example.com")),
        ));
        m.additionals.push(Record::new(
            n("ns1.example.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 53)),
        ));
        m
    }

    #[test]
    fn roundtrip_full_message() {
        let m = sample_response();
        let wire = m.encode();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let m = sample_response();
        let wire = m.encode();
        // Four mentions of (www.)example.com; with compression the message
        // must be much smaller than the naive encoding.
        let naive: usize = 12
            + m.questions
                .iter()
                .map(|q| q.qname.wire_len() + 4)
                .sum::<usize>()
            + m.answers
                .iter()
                .chain(&m.authorities)
                .chain(&m.additionals)
                .map(|r| r.name.wire_len() + 10 + 16)
                .sum::<usize>();
        assert!(wire.len() < naive, "{} !< {}", wire.len(), naive);
        // Spot-check: the second answer's owner name is a 2-byte pointer.
        let count_c0 = wire.windows(1).filter(|w| w[0] & 0xC0 == 0xC0).count();
        assert!(count_c0 >= 3, "expected pointers, found {count_c0}");
    }

    #[test]
    fn compression_is_case_insensitive() {
        let mut m = Message::query(1, Question::new(n("WWW.EXAMPLE.COM"), RecordType::A));
        m.answers.push(Record::new(
            n("www.example.com"),
            60,
            RData::A(Ipv4Addr::new(1, 1, 1, 1)),
        ));
        let wire = m.encode();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back.answers[0].name, n("www.example.com"));
        // The answer owner must be a pointer (2 bytes) to the question name.
        // Question starts at offset 12; answer owner right after qname+4.
        let qname_len = n("www.example.com").wire_len();
        let ans_owner_off = 12 + qname_len + 4;
        assert_eq!(wire[ans_owner_off] & 0xC0, 0xC0);
    }

    #[test]
    fn compression_never_matches_the_name_being_written() {
        // When the second `a.b` of `a.b.a.b` is looked up, the first is on
        // the wire but the name it starts has not ended yet: no candidate.
        for s in ["a.a", "a.b.a.b", "x.x.x.x"] {
            let m = Message::query(1, Question::new(n(s), RecordType::A));
            let wire = m.encode();
            assert_eq!(wire.len(), 12 + n(s).wire_len() + 4, "{s}: written in full");
            assert_eq!(Message::decode(&wire).unwrap(), m);
        }
    }

    #[test]
    fn header_flags_roundtrip_all_set() {
        let h = Header {
            id: 0xBEEF,
            qr: true,
            opcode: Opcode::Update,
            aa: true,
            tc: true,
            rd: true,
            ra: true,
            ad: true,
            cd: true,
            rcode: Rcode::Refused,
        };
        let m = Message {
            header: h,
            ..Message::default()
        };
        let back = Message::decode(&m.encode()).unwrap();
        assert_eq!(back.header, h);
    }

    #[test]
    fn soa_negative_answer_roundtrip() {
        let q = Question::new(n("nope.example.com"), RecordType::A);
        let mut m = Message::response_to(&Message::query(7, q));
        m.header.rcode = Rcode::NxDomain;
        m.authorities.push(Record::new(
            n("example.com"),
            300,
            RData::SOA(Soa {
                mname: n("ns1.example.com"),
                rname: n("hostmaster.example.com"),
                serial: 1,
                refresh: 2,
                retry: 3,
                expire: 4,
                minimum: 300,
            }),
        ));
        let back = Message::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.header.rcode, Rcode::NxDomain);
    }

    #[test]
    fn response_to_copies_identity() {
        let q = Message::query(42, Question::new(n("a.b"), RecordType::AAAA));
        let r = Message::response_to(&q);
        assert_eq!(r.header.id, 42);
        assert!(r.header.qr);
        assert!(r.header.rd);
        assert_eq!(r.questions, q.questions);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut wire = Message::query(1, Question::new(n("x.y"), RecordType::A)).encode();
        wire.push(0);
        assert!(matches!(
            Message::decode(&wire),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn decode_rejects_absurd_counts() {
        // Header claiming 65535 answers with an empty body.
        let mut w = Writer::new();
        w.put_u16(1); // id
        w.put_u16(0); // flags
        w.put_u16(0);
        w.put_u16(0xFFFF);
        w.put_u16(0);
        w.put_u16(0);
        assert!(Message::decode(&w.into_vec()).is_err());
    }

    #[test]
    fn decode_rejects_rdlen_overrun() {
        let q = Question::new(n("x.y"), RecordType::A);
        let mut m = Message::query(1, q);
        m.header.qr = true;
        m.answers.push(Record::new(
            n("x.y"),
            60,
            RData::A(Ipv4Addr::new(1, 2, 3, 4)),
        ));
        let mut wire = m.encode();
        // Corrupt the RDLENGTH (last 6 bytes are len(2)+addr(4)).
        let len = wire.len();
        wire[len - 6..len - 4].copy_from_slice(&100u16.to_be_bytes());
        assert!(Message::decode(&wire).is_err());
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(Message::decode(&[0, 1, 2]).is_err());
        assert!(Message::decode(&[]).is_err());
    }

    #[test]
    fn empty_message_roundtrip() {
        let m = Message::default();
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
        assert_eq!(m.encode().len(), 12);
    }

    /// The compressor this one replaced — a map from each suffix,
    /// lowercased and dotted, to where it was first written — as the
    /// reference for which pointers go where.
    fn model_compress(names: &[Name]) -> Vec<u8> {
        let mut seen = std::collections::HashMap::<String, u16>::new();
        let mut w = Writer::new();
        'names: for name in names {
            let labels: Vec<&[u8]> = name.labels().collect();
            for i in 0..labels.len() {
                let key: String = labels[i..]
                    .iter()
                    .map(|l| String::from_utf8_lossy(l).to_ascii_lowercase() + ".")
                    .collect();
                if let Some(&off) = seen.get(&key) {
                    w.put_u16(0xC000 | off);
                    continue 'names;
                }
                seen.insert(key, w.len() as u16);
                w.put_u8(labels[i].len() as u8);
                w.put_slice(labels[i]);
            }
            w.put_u8(0);
        }
        w.into_vec()
    }

    proptest! {
        #[test]
        fn prop_compressor_writes_what_the_suffix_map_wrote(
            picks in proptest::collection::vec(
                proptest::collection::vec(0usize..6, 0..5), 1..12),
        ) {
            // Few labels, both cases, repeated: suffixes recur within a
            // name and across names.
            const LABELS: [&str; 6] = ["a", "A", "b", "ab", "com", "COM"];
            let names: Vec<Name> = picks
                .iter()
                .map(|p| Name::from_labels(p.iter().map(|&i| LABELS[i])).unwrap())
                .collect();
            let mut w = Writer::new();
            let mut compressor = Compressor::default();
            for name in &names {
                compressor.encode_name(&mut w, name);
            }
            prop_assert_eq!(w.as_slice(), &model_compress(&names)[..]);
        }

        #[test]
        fn prop_decode_arbitrary_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = Message::decode(&bytes);
        }

        #[test]
        fn prop_query_roundtrip(
            id in any::<u16>(),
            s in "[a-z]{1,10}(\\.[a-z]{1,10}){0,3}",
            t in 0u16..70,
        ) {
            let q = Question {
                qname: s.parse().unwrap(),
                qtype: RecordType::from_u16(t),
                qclass: RClass::IN,
            };
            let m = Message::query(id, q);
            prop_assert_eq!(Message::decode(&m.encode()).unwrap(), m);
        }

        #[test]
        fn prop_compression_roundtrip(
            apex in "[a-z]{1,8}\\.[a-z]{2,3}",
            hosts in proptest::collection::vec("[a-z0-9]{1,10}", 1..6),
            ttl in 1u32..86_400,
        ) {
            // Random shared-suffix names force the compressor to emit
            // pointers; decompression must reconstruct every name exactly.
            let qname: Name = format!("{}.{}", hosts[0], apex).parse().unwrap();
            let mut m = Message::query(1, Question::new(qname, RecordType::A));
            m.header.qr = true;
            for h in &hosts {
                let name: Name = format!("{h}.{apex}").parse().unwrap();
                m.answers.push(Record::new(name, ttl, RData::A(Ipv4Addr::new(192, 0, 2, 7))));
            }
            let apex_name: Name = apex.parse().unwrap();
            m.authorities.push(Record::new(
                apex_name,
                ttl,
                RData::NS(format!("ns1.{apex}").parse().unwrap()),
            ));
            let wire = m.encode();
            prop_assert_eq!(Message::decode(&wire).unwrap(), m);
        }

        #[test]
        fn prop_encode_into_matches_encode(
            s in "[a-z]{1,10}(\\.[a-z]{1,10}){0,3}",
            n_extra in 0usize..4,
        ) {
            // The reusable-writer path must be byte-identical to encode(),
            // including when the writer is recycled between messages.
            let mut m = Message::query(3, Question::new(s.parse().unwrap(), RecordType::A));
            for _ in 0..n_extra {
                m.answers.push(Record::new(
                    s.parse().unwrap(),
                    60,
                    RData::A(Ipv4Addr::new(203, 0, 113, 9)),
                ));
            }
            let mut w = Writer::reuse(vec![0xFF; 512]);
            m.encode_into(&mut w);
            prop_assert_eq!(w.as_slice(), &m.encode()[..]);
        }
    }
}
