//! Object encodings on data streams and datagrams (draft-12 §9, subset).
//!
//! Objects travel outside the control stream:
//!
//! * **subgroup streams** — a unidirectional stream per (group, subgroup)
//!   of a subscribed track, headed by the track alias and group id. Of
//!   draft-12's SUBGROUP_HEADER types, the two without extensions are
//!   spoken: [`STREAM_TYPE_SUBGROUP_ZERO`] (`0x08`) says in the type that
//!   the subgroup id is 0 and leaves the field out — every subgroup
//!   stream the DNS mapping sends — and [`STREAM_TYPE_SUBGROUP`] (`0x0C`)
//!   carries it. The types with extensions or with the subgroup id taken
//!   from the first object id are refused;
//! * **fetch streams** — a unidirectional stream carrying a FETCH
//!   response's objects, headed by the fetch request id;
//! * **object datagrams** — unreliable delivery (RFC 9221), implemented
//!   for the streams-vs-datagrams ablation only; the DNS mapping always
//!   uses streams (§4.1).
//!
//! DNS-over-MoQT objects always have `object_id == 0` and
//! `group_id == zone version` (§4.2/§4.3); groups contain exactly one
//! object (§4.3, Fig 4).
//!
//! Payloads are [`Payload`] handles: decoding a data stream carves
//! zero-copy sub-views out of the stream buffer, and forwarding an object
//! to N subscribers shares one backing allocation instead of copying the
//! bytes N times.

use moqdns_wire::{varint, Payload, Reader, WireError, WireResult, Writer};

/// Stream type of a subgroup stream whose subgroup id is 0: the type
/// says so and the header leaves the field out (draft-12 `0x08`, no
/// extensions). A DNS-over-MoQT group is one object in subgroup 0 (§4.3,
/// Fig 4), so every subgroup stream this mapping sends has this type.
pub const STREAM_TYPE_SUBGROUP_ZERO: u64 = 0x08;
/// Stream type of a subgroup stream whose header carries its subgroup id
/// (draft-12 `0x0C`, no extensions); written only for a nonzero id.
pub const STREAM_TYPE_SUBGROUP: u64 = 0x0C;
/// Stream type tag for fetch streams.
pub const STREAM_TYPE_FETCH: u64 = 0x5;

/// An object as delivered to the application. `Clone` is O(1): the
/// payload is a shared handle, not a byte copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Object {
    /// Group id. In DNS-over-MoQT this is the zone version.
    pub group_id: u64,
    /// Object id within the group. Always 0 in DNS-over-MoQT.
    pub object_id: u64,
    /// Payload bytes (a full DNS response message in DNS-over-MoQT).
    pub payload: Payload,
}

/// Header of a subgroup data stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubgroupHeader {
    /// Alias bound by the SUBSCRIBE.
    pub track_alias: u64,
    /// Group this stream carries.
    pub group_id: u64,
    /// Subgroup (always 0 in DNS-over-MoQT).
    pub subgroup_id: u64,
    /// Publisher priority (informational).
    pub priority: u8,
}

impl SubgroupHeader {
    /// Encodes the stream header: subgroup 0 as the type alone, any other
    /// subgroup id as a field.
    pub fn encode(&self, w: &mut Writer) {
        let named = self.subgroup_id != 0;
        let ty = if named {
            STREAM_TYPE_SUBGROUP
        } else {
            STREAM_TYPE_SUBGROUP_ZERO
        };
        varint::put_varint(w, ty);
        varint::put_varint(w, self.track_alias);
        varint::put_varint(w, self.group_id);
        if named {
            varint::put_varint(w, self.subgroup_id);
        }
        w.put_u8(self.priority);
    }

    /// Decodes the rest of a header whose type says whether the subgroup
    /// id is `named`.
    fn decode_after_type(r: &mut Reader<'_>, named: bool) -> WireResult<SubgroupHeader> {
        let track_alias = varint::get_varint(r)?;
        let group_id = varint::get_varint(r)?;
        let subgroup_id = if named { varint::get_varint(r)? } else { 0 };
        Ok(SubgroupHeader {
            track_alias,
            group_id,
            subgroup_id,
            priority: r.get_u8()?,
        })
    }
}

/// A fully parsed unidirectional data stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataStream {
    /// Subscription delivery: header + objects of one group.
    Subgroup {
        /// The stream header.
        header: SubgroupHeader,
        /// Objects, in order (object ids are explicit).
        objects: Vec<Object>,
    },
    /// Fetch delivery: request id + objects (groups may vary per object).
    Fetch {
        /// The fetch's request id.
        request_id: u64,
        /// Objects, in fetch order.
        objects: Vec<Object>,
    },
}

/// Encodes a subgroup stream onto `w`: header + objects (object id +
/// length-prefixed payload each). Callers on hot paths pass a recycled
/// [`Writer`] (see [`moqdns_wire::BufPool`]).
pub fn encode_subgroup_stream_into(w: &mut Writer, header: &SubgroupHeader, objects: &[Object]) {
    header.encode(w);
    for o in objects {
        varint::put_varint(w, o.object_id);
        varint::put_varint(w, o.payload.len() as u64);
        w.put_slice(&o.payload);
    }
}

/// Encodes a fetch stream onto `w`: type + request id, then (group,
/// object, payload-len, payload) per object.
pub fn encode_fetch_stream_into(w: &mut Writer, request_id: u64, objects: &[Object]) {
    varint::put_varint(w, STREAM_TYPE_FETCH);
    varint::put_varint(w, request_id);
    for o in objects {
        varint::put_varint(w, o.group_id);
        varint::put_varint(w, o.object_id);
        varint::put_varint(w, o.payload.len() as u64);
        w.put_slice(&o.payload);
    }
}

/// Decodes a complete unidirectional data stream (call once FIN arrives).
///
/// Takes the stream buffer as a [`Payload`] (pass the owned receive
/// buffer via `.into()`); each object's payload is a zero-copy sub-view
/// of it.
pub fn decode_data_stream(buf: impl Into<Payload>) -> WireResult<DataStream> {
    let buf = buf.into();
    let mut r = Reader::new(buf.as_slice());
    // Reads the next length-prefixed payload as a zero-copy slice.
    let take_payload = |r: &mut Reader<'_>| -> WireResult<Payload> {
        let len = varint::get_varint(r)? as usize;
        let start = r.position();
        r.skip(len)?;
        Ok(buf.slice(start..start + len))
    };
    match varint::get_varint(&mut r)? {
        ty @ (STREAM_TYPE_SUBGROUP_ZERO | STREAM_TYPE_SUBGROUP) => {
            let named = ty == STREAM_TYPE_SUBGROUP;
            let header = SubgroupHeader::decode_after_type(&mut r, named)?;
            let mut objects = Vec::new();
            while !r.is_empty() {
                let object_id = varint::get_varint(&mut r)?;
                let payload = take_payload(&mut r)?;
                objects.push(Object {
                    group_id: header.group_id,
                    object_id,
                    payload,
                });
            }
            Ok(DataStream::Subgroup { header, objects })
        }
        STREAM_TYPE_FETCH => {
            let request_id = varint::get_varint(&mut r)?;
            let mut objects = Vec::new();
            while !r.is_empty() {
                let group_id = varint::get_varint(&mut r)?;
                let object_id = varint::get_varint(&mut r)?;
                let payload = take_payload(&mut r)?;
                objects.push(Object {
                    group_id,
                    object_id,
                    payload,
                });
            }
            Ok(DataStream::Fetch {
                request_id,
                objects,
            })
        }
        _ => Err(WireError::Invalid {
            what: "data stream type",
        }),
    }
}

/// An object datagram (RFC 9221 delivery; ablation A2 only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectDatagram {
    /// Alias bound by the SUBSCRIBE.
    pub track_alias: u64,
    /// The contained object.
    pub object: Object,
}

impl ObjectDatagram {
    /// Encodes the datagram payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(32 + self.object.payload.len());
        varint::put_varint(&mut w, self.track_alias);
        varint::put_varint(&mut w, self.object.group_id);
        varint::put_varint(&mut w, self.object.object_id);
        w.put_slice(&self.object.payload);
        w.into_vec()
    }

    /// Decodes a datagram payload; the object's payload is a zero-copy
    /// sub-view of `buf`.
    pub fn decode(buf: impl Into<Payload>) -> WireResult<ObjectDatagram> {
        let buf = buf.into();
        let mut r = Reader::new(buf.as_slice());
        let track_alias = varint::get_varint(&mut r)?;
        let group_id = varint::get_varint(&mut r)?;
        let object_id = varint::get_varint(&mut r)?;
        let payload = buf.slice(r.position()..buf.len());
        Ok(ObjectDatagram {
            track_alias,
            object: Object {
                group_id,
                object_id,
                payload,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn subgroup_stream_roundtrip() {
        let header = SubgroupHeader {
            track_alias: 7,
            group_id: 42,
            subgroup_id: 0,
            priority: 128,
        };
        let objects = vec![Object {
            group_id: 42,
            object_id: 0,
            payload: b"dns response bytes".to_vec().into(),
        }];
        let mut w = Writer::new();
        encode_subgroup_stream_into(&mut w, &header, &objects);
        match decode_data_stream(w.into_vec()).unwrap() {
            DataStream::Subgroup {
                header: h,
                objects: o,
            } => {
                assert_eq!(h, header);
                assert_eq!(o, objects);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decoded_objects_share_stream_storage() {
        // Zero-copy invariant: all objects decoded from one stream buffer
        // are sub-views of it, not fresh allocations.
        let objects = vec![
            Object {
                group_id: 1,
                object_id: 0,
                payload: vec![0xAA; 64].into(),
            },
            Object {
                group_id: 2,
                object_id: 0,
                payload: vec![0xBB; 64].into(),
            },
        ];
        let mut w = Writer::new();
        encode_fetch_stream_into(&mut w, 9, &objects);
        let buf = moqdns_wire::Payload::new(w.into_vec());
        match decode_data_stream(buf.clone()).unwrap() {
            DataStream::Fetch {
                objects: decoded, ..
            } => {
                assert_eq!(decoded.len(), 2);
                for o in &decoded {
                    assert!(o.payload.shares_storage_with(&buf));
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fetch_stream_roundtrip_multiple_groups() {
        let objects = vec![
            Object {
                group_id: 10,
                object_id: 0,
                payload: vec![1, 2].into(),
            },
            Object {
                group_id: 11,
                object_id: 0,
                payload: vec![].into(),
            },
        ];
        let mut w = Writer::new();
        encode_fetch_stream_into(&mut w, 99, &objects);
        match decode_data_stream(w.into_vec()).unwrap() {
            DataStream::Fetch {
                request_id,
                objects: o,
            } => {
                assert_eq!(request_id, 99);
                assert_eq!(o, objects);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_fetch_stream() {
        let mut w = Writer::new();
        encode_fetch_stream_into(&mut w, 5, &[]);
        match decode_data_stream(w.into_vec()).unwrap() {
            DataStream::Fetch { objects, .. } => assert!(objects.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn datagram_roundtrip() {
        let d = ObjectDatagram {
            track_alias: 3,
            object: Object {
                group_id: 9,
                object_id: 0,
                payload: b"update".to_vec().into(),
            },
        };
        assert_eq!(ObjectDatagram::decode(d.encode()).unwrap(), d);
    }

    #[test]
    fn unknown_stream_type_rejected() {
        let mut w = Writer::new();
        varint::put_varint(&mut w, 0x9);
        assert!(decode_data_stream(w.into_vec()).is_err());
    }

    /// The subgroup id is said once: by the type when it is 0, by a field
    /// otherwise.
    #[test]
    fn subgroup_zero_is_the_type_alone() {
        let stream = |subgroup_id| {
            let header = SubgroupHeader {
                track_alias: 7,
                group_id: 42,
                subgroup_id,
                priority: 128,
            };
            let mut w = Writer::new();
            encode_subgroup_stream_into(&mut w, &header, &[]);
            w.into_vec()
        };
        assert_eq!(stream(0), [0x08, 7, 42, 128]);
        assert_eq!(stream(5), [0x0C, 7, 42, 5, 128]);
    }

    /// Draft-12's other SUBGROUP_HEADER types — extensions present, or the
    /// subgroup id taken from the first object id — and draft-10's `0x04`
    /// are refused, whatever follows them.
    #[test]
    fn only_the_two_subgroup_types_without_extensions_decode() {
        // A stream that decodes under `0x0C`: subgroup 0, one object.
        let stream = |ty: u8| vec![ty, 7, 42, 0, 128, 0, 1, 0xAA];
        assert!(decode_data_stream(stream(0x0C)).is_ok());
        for ty in [0x04, 0x09, 0x0A, 0x0B, 0x0D] {
            assert!(decode_data_stream(stream(ty)).is_err(), "{ty:#04x}");
        }
    }

    #[test]
    fn truncated_object_rejected() {
        let header = SubgroupHeader {
            track_alias: 1,
            group_id: 1,
            subgroup_id: 0,
            priority: 0,
        };
        let mut w = Writer::new();
        encode_subgroup_stream_into(
            &mut w,
            &header,
            &[Object {
                group_id: 1,
                object_id: 0,
                payload: vec![1, 2, 3, 4].into(),
            }],
        );
        let mut buf = w.into_vec();
        buf.truncate(buf.len() - 2);
        assert!(decode_data_stream(buf).is_err());
    }

    proptest! {
        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..100)) {
            let _ = decode_data_stream(&bytes);
            let _ = ObjectDatagram::decode(&bytes);
        }

        // Datagram encode/decode roundtrip: the decoder reads exactly the
        // three header varints and treats every remaining byte as payload
        // — no byte is lost, invented, or read past the buffer.
        #[test]
        fn prop_datagram_roundtrip(
            alias in any::<u32>(),
            group in any::<u32>(),
            object in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            let dg = ObjectDatagram {
                track_alias: alias as u64,
                object: Object {
                    group_id: group as u64,
                    object_id: object as u64,
                    payload: payload.into(),
                },
            };
            let decoded = ObjectDatagram::decode(dg.encode()).unwrap();
            prop_assert_eq!(decoded, dg);
        }

        // Both subgroup header types round-trip: `0x08` for subgroup 0,
        // `0x0C` for any other.
        #[test]
        fn prop_subgroup_roundtrip(
            alias in any::<u32>(),
            group in any::<u32>(),
            zero in any::<bool>(),
            subgroup in any::<u32>(),
            payload in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            let header = SubgroupHeader {
                track_alias: alias as u64,
                group_id: group as u64,
                subgroup_id: if zero { 0 } else { subgroup as u64 },
                priority: 0,
            };
            let objects = vec![Object { group_id: group as u64, object_id: 0, payload: payload.into() }];
            let mut w = Writer::new();
            encode_subgroup_stream_into(&mut w, &header, &objects);
            let parsed = decode_data_stream(w.into_vec()).unwrap();
            prop_assert_eq!(parsed, DataStream::Subgroup { header, objects });
        }
    }
}
