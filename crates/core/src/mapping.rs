//! The DNS ↔ MoQT mapping (paper §4.3, Figs 3 and 4).
//!
//! **Queries → tracks (Fig 3).** Five DNS request fields map onto the MoQT
//! full track name:
//!
//! ```text
//! namespace[0] = 1 byte:  OPCODE (4 bits) | RD (1 bit) | CD (1 bit)
//! namespace[1] = 2 bytes: QTYPE
//! namespace[2] = 2 bytes: QCLASS
//! track name   = QNAME in wire form
//! ```
//!
//! With MoQT's 4096-byte combined limit this leaves 4091 bytes for QNAME —
//! far beyond DNS's own 255-byte cap, as the paper notes.
//!
//! **Responses → objects (Fig 4).** The full DNS response message is the
//! object payload; `group_id` is the zone's strictly monotonic version
//! (§4.2), `object_id` and `subgroup_id` are always 0 — every group
//! contains exactly one object.

use moqdns_dns::message::{Message, Opcode, Question};
use moqdns_dns::name::Name;
use moqdns_dns::rr::{RClass, RecordType};
use moqdns_moqt::data::Object;
use moqdns_moqt::track::FullTrackName;
use moqdns_wire::{Reader, WireError, WireResult};

/// Fields of the request beyond the question that participate in the
/// mapping (the first namespace byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestFlags {
    /// DNS OPCODE (4 bits).
    pub opcode: Opcode,
    /// Recursion desired.
    pub rd: bool,
    /// Checking disabled.
    pub cd: bool,
}

impl RequestFlags {
    /// Standard recursive query flags (stub → recursive).
    pub fn recursive() -> RequestFlags {
        RequestFlags {
            opcode: Opcode::Query,
            rd: true,
            cd: false,
        }
    }

    /// Iterative query flags (recursive → authoritative).
    pub fn iterative() -> RequestFlags {
        RequestFlags {
            opcode: Opcode::Query,
            rd: false,
            cd: false,
        }
    }

    /// The flags a client's query actually carried (RFC 1035 §4.1.1) —
    /// forwarders must propagate these upstream rather than assume
    /// recursion-desired.
    pub fn from_query(query: &Message) -> RequestFlags {
        RequestFlags {
            opcode: query.header.opcode,
            rd: query.header.rd,
            cd: query.header.cd,
        }
    }

    fn to_byte(self) -> u8 {
        (self.opcode.to_u8() << 4) | (u8::from(self.rd) << 1) | u8::from(self.cd)
    }

    fn from_byte(b: u8) -> RequestFlags {
        RequestFlags {
            opcode: Opcode::from_u8(b >> 4),
            rd: b & 0b10 != 0,
            cd: b & 0b01 != 0,
        }
    }
}

/// Maps a DNS question (+flags) to its MoQT full track name (Fig 3).
///
/// The mapping is canonical: the QNAME is lowercased first so that
/// differently-cased queries land on the same track and can share the
/// publisher's fan-out (§4.3: "to ensure that different subscribers use
/// the same combination of namespace and track name").
pub fn track_from_question(q: &Question, flags: RequestFlags) -> WireResult<FullTrackName> {
    let qname = q.qname.to_lowercase();
    FullTrackName::from_parts(
        &[
            &[flags.to_byte()],
            &q.qtype.to_u16().to_be_bytes(),
            &q.qclass.to_u16().to_be_bytes(),
        ],
        qname.as_wire(),
    )
}

/// Inverse of [`track_from_question`].
pub fn question_from_track(t: &FullTrackName) -> WireResult<(Question, RequestFlags)> {
    let mut ns = t.namespace();
    let (Some(f), Some(ty), Some(cl), None) = (ns.next(), ns.next(), ns.next(), ns.next()) else {
        return Err(WireError::Invalid {
            what: "dns track namespace arity",
        });
    };
    let &[f] = f else {
        return Err(WireError::Invalid {
            what: "flags element",
        });
    };
    let flags = RequestFlags::from_byte(f);
    let (&[ty_hi, ty_lo], &[cl_hi, cl_lo]) = (ty, cl) else {
        return Err(WireError::Invalid {
            what: "qtype/qclass element",
        });
    };
    let qtype = RecordType::from_u16(u16::from_be_bytes([ty_hi, ty_lo]));
    let qclass = RClass::from_u16(u16::from_be_bytes([cl_hi, cl_lo]));
    let mut r = Reader::new(t.name());
    let qname = Name::decode(&mut r)?;
    r.expect_end()?;
    Ok((
        Question {
            qname,
            qtype,
            qclass,
        },
        flags,
    ))
}

/// Wraps a DNS response message into a MoQT object (Fig 4): payload = the
/// full encoded message, group = zone version, object id = 0.
///
/// The returned object's payload is a shared handle: publishing it to N
/// subscribers (or caching it at a relay) clones a refcount, not bytes.
pub fn object_from_response(response: &Message, zone_version: u64) -> Object {
    let mut bytes = response.encode();
    // The transaction id is meaningless on a shared track (many subscribers
    // receive the same object), so it is canonicalized to zero — patched
    // directly in the first two wire bytes rather than cloning the message.
    bytes[0] = 0;
    bytes[1] = 0;
    Object {
        group_id: zone_version,
        object_id: 0,
        payload: bytes.into(),
    }
}

/// Unwraps an object back into a DNS message, validating the Fig 4
/// invariants (object id must be 0).
pub fn response_from_object(object: &Object) -> WireResult<Message> {
    if object.object_id != 0 {
        return Err(WireError::Invalid {
            what: "dns object id (must be 0)",
        });
    }
    Message::decode(&object.payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqdns_dns::rdata::RData;
    use moqdns_dns::rr::Record;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn q(s: &str, t: RecordType) -> Question {
        Question::new(n(s), t)
    }

    #[test]
    fn fig3_layout_exact_bytes() {
        let t = track_from_question(
            &q("www.example.com", RecordType::A),
            RequestFlags::recursive(),
        )
        .unwrap();
        // opcode QUERY=0, RD=1, CD=0 -> 0b0000_0010.
        let ns: Vec<&[u8]> = t.namespace().collect();
        // [flags, QTYPE A, QCLASS IN]
        assert_eq!(ns, [&[0b0000_0010][..], &[0x00, 0x01], &[0x00, 0x01]]);
        assert_eq!(t.name(), b"\x03www\x07example\x03com\x00");
    }

    #[test]
    fn mapping_roundtrips() {
        for (name, ty, fl) in [
            ("www.example.com", RecordType::A, RequestFlags::recursive()),
            ("example.com", RecordType::AAAA, RequestFlags::iterative()),
            (
                "x.y.z.example.org",
                RecordType::HTTPS,
                RequestFlags::recursive(),
            ),
            (".", RecordType::NS, RequestFlags::iterative()),
        ] {
            let question = q(name, ty);
            let t = track_from_question(&question, fl).unwrap();
            let (back, back_fl) = question_from_track(&t).unwrap();
            assert_eq!(back, question);
            assert_eq!(back_fl, fl);
        }
    }

    #[test]
    fn mapping_is_case_canonical() {
        let a = track_from_question(
            &q("WWW.Example.COM", RecordType::A),
            RequestFlags::recursive(),
        )
        .unwrap();
        let b = track_from_question(
            &q("www.example.com", RecordType::A),
            RequestFlags::recursive(),
        )
        .unwrap();
        assert_eq!(a, b, "same track for differently-cased queries");
    }

    #[test]
    fn different_questions_different_tracks() {
        let fl = RequestFlags::recursive();
        let t1 = track_from_question(&q("a.com", RecordType::A), fl).unwrap();
        let t2 = track_from_question(&q("b.com", RecordType::A), fl).unwrap();
        let t3 = track_from_question(&q("a.com", RecordType::AAAA), fl).unwrap();
        let t4 =
            track_from_question(&q("a.com", RecordType::A), RequestFlags::iterative()).unwrap();
        assert_ne!(t1, t2);
        assert_ne!(t1, t3);
        assert_ne!(t1, t4, "RD bit distinguishes tracks");
    }

    #[test]
    fn qname_budget_is_4091_bytes() {
        // namespace = 1 + 2 + 2 = 5 bytes, so the track name may use 4091.
        let t = track_from_question(&q("example.com", RecordType::A), RequestFlags::recursive())
            .unwrap();
        let ns_len: usize = t.namespace().map(<[u8]>::len).sum();
        assert_eq!(ns_len, 5);
        assert_eq!(
            moqdns_moqt::track::MAX_FULL_NAME_LEN - ns_len,
            4091,
            "paper §4.3: 4091 bytes left for QNAME"
        );
    }

    #[test]
    fn fig4_object_shape() {
        let mut resp = Message::query(0x77, q("www.example.com", RecordType::A));
        resp.header.qr = true;
        resp.answers.push(Record::new(
            n("www.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        let obj = object_from_response(&resp, 42);
        assert_eq!(obj.group_id, 42);
        assert_eq!(obj.object_id, 0);
        let back = response_from_object(&obj).unwrap();
        assert_eq!(back.answers, resp.answers);
        // Transaction id canonicalized so identical content is byte-identical
        // for every subscriber (§4.2 object-identity invariant).
        assert_eq!(back.header.id, 0);
    }

    #[test]
    fn identical_content_identical_objects() {
        // §4.2: "If two objects within the same track have the same group
        // and object IDs, their content must be exactly the same."
        let mut r1 = Message::query(1, q("a.com", RecordType::A));
        r1.header.qr = true;
        let mut r2 = Message::query(2, q("a.com", RecordType::A));
        r2.header.qr = true;
        let o1 = object_from_response(&r1, 7);
        let o2 = object_from_response(&r2, 7);
        assert_eq!(o1, o2, "ids differ but objects must not");
    }

    #[test]
    fn nonzero_object_id_rejected() {
        let obj = Object {
            group_id: 1,
            object_id: 1,
            payload: vec![].into(),
        };
        assert!(response_from_object(&obj).is_err());
    }

    #[test]
    fn malformed_track_rejected() {
        // Wrong arity.
        let t = FullTrackName::new(vec![vec![0]], b"\x00".to_vec()).unwrap();
        assert!(question_from_track(&t).is_err());
        // Bad qname bytes.
        let t = FullTrackName::new(vec![vec![0], vec![0, 1], vec![0, 1]], b"\xFF\xFF".to_vec())
            .unwrap();
        assert!(question_from_track(&t).is_err());
        // Trailing garbage after qname.
        let t = FullTrackName::new(vec![vec![0], vec![0, 1], vec![0, 1]], b"\x00junk".to_vec())
            .unwrap();
        assert!(question_from_track(&t).is_err());
    }

    proptest! {
        #[test]
        fn prop_mapping_roundtrip(
            s in "[a-z0-9]{1,12}(\\.[a-z0-9]{1,12}){0,4}",
            ty in 0u16..70,
            rd in any::<bool>(),
            cd in any::<bool>(),
        ) {
            let question = Question {
                qname: s.parse().unwrap(),
                qtype: RecordType::from_u16(ty),
                qclass: RClass::IN,
            };
            let flags = RequestFlags { opcode: Opcode::Query, rd, cd };
            let t = track_from_question(&question, flags).unwrap();
            let (back, back_flags) = question_from_track(&t).unwrap();
            prop_assert_eq!(back, question);
            prop_assert_eq!(back_flags, flags);
        }

        #[test]
        fn prop_injective_on_names(
            a in "[a-z]{1,10}\\.com",
            b in "[a-z]{1,10}\\.com",
        ) {
            let fl = RequestFlags::recursive();
            let ta = track_from_question(&q(&a, RecordType::A), fl).unwrap();
            let tb = track_from_question(&q(&b, RecordType::A), fl).unwrap();
            prop_assert_eq!(a == b, ta == tb);
        }
    }
}
