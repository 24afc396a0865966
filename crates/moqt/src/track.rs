//! Full track names: namespace tuple + track name.
//!
//! MoQT identifies a track by a *namespace* — "a tuple of sequences of
//! bytes" — and a *track name* — "a single sequence of bytes"; the combined
//! length is capped at 4096 bytes (paper §3). The DNS mapping puts the
//! request's OPCODE/RD/CD byte, QTYPE and QCLASS into the first three
//! namespace elements and the QNAME wire form into the track name (§4.3),
//! leaving 4091 bytes of QNAME budget.
//!
//! # Layout
//!
//! A [`FullTrackName`] is **one** immutable, reference-counted buffer in
//! the form [`FullTrackName::encode`] writes,
//!
//! ```text
//! count | len element | … | len element | len name
//! ```
//!
//! every prefix a *minimal* varint (a decoded name is re-encoded, so two
//! equal names hold equal bytes), plus the offset of the name's length
//! prefix, kept beside the handle so that nothing re-walks the prefixes to
//! find the name. `clone` is a reference-count bump, `encode` one
//! `put_slice`, `Eq` and `Hash` one pass over the bytes. Every constructor
//! checks the element count and the 4096-byte limit on borrowed slices and
//! allocates exactly once, after the name is known to be legal; the
//! default value (no elements, empty name — not a legal track) holds no
//! buffer at all.
//!
//! # Ordering contract
//!
//! `Ord` is the order of the pair (namespace tuple, name): tuples compare
//! element by element, each element as a byte string, a tuple that is a
//! prefix of another first; equal tuples are ordered by name bytes. The
//! relay's and the link layer's tables are B-trees keyed by track whose
//! iteration order is part of the simulator's determinism contract, so
//! this order must never change. Equal tuples have equal encodings, which
//! is what a comparison tries first: B-tree look-ups compare mostly
//! against tracks of the same namespace.

use moqdns_wire::payload::arc_share;
use moqdns_wire::{pool::with_scratch, varint, Reader, WireError, WireResult, Writer};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Maximum combined length of namespace elements and track name.
pub const MAX_FULL_NAME_LEN: usize = 4096;
/// Maximum number of namespace tuple elements (draft-12 §2.4.1).
pub const MAX_NAMESPACE_ELEMENTS: usize = 32;
/// Encoding of the default value: no elements, empty name.
const DEFAULT_BYTES: &[u8] = &[0, 0];

/// A complete track identifier.
#[derive(Clone)]
pub struct FullTrackName {
    /// The encoded form; `None` is the default value.
    buf: Option<Arc<[u8]>>,
    /// Offset of the name's length prefix: where the namespace ends.
    name_at: u16,
}

/// Splits the minimal-varint length prefix off the head of `buf`. Lengths
/// here are at most [`MAX_FULL_NAME_LEN`], so one or two bytes.
fn split_len(buf: &[u8]) -> (usize, &[u8]) {
    let first = buf[0] as usize;
    if first < 0x40 {
        (first, &buf[1..])
    } else {
        ((first & 0x3F) << 8 | buf[1] as usize, &buf[2..])
    }
}

/// Iterator over the namespace elements of an encoded name.
struct Elements<'a> {
    left: usize,
    rest: &'a [u8],
}

impl<'a> Iterator for Elements<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        self.left = self.left.checked_sub(1)?;
        let (len, rest) = split_len(self.rest);
        let (element, rest) = rest.split_at(len);
        self.rest = rest;
        Some(element)
    }
}

impl FullTrackName {
    /// Builds and validates a full track name.
    ///
    /// Kept public for: the tests of `core`, `moqt` and the root `tests/`
    /// (`relay_tree`, `upstream_link`, `session_model`, `endpoint_heap`), which
    /// build names from owned parts.
    pub fn new(namespace: Vec<Vec<u8>>, name: Vec<u8>) -> WireResult<FullTrackName> {
        let elements: Vec<&[u8]> = namespace.iter().map(Vec::as_slice).collect();
        FullTrackName::from_parts(&elements, &name)
    }

    /// Builds and validates a full track name from borrowed parts: the
    /// limits are checked first, then the name is allocated once.
    pub fn from_parts(namespace: &[&[u8]], name: &[u8]) -> WireResult<FullTrackName> {
        if namespace.is_empty() || namespace.len() > MAX_NAMESPACE_ELEMENTS {
            return Err(WireError::Invalid {
                what: "namespace element count",
            });
        }
        // No overflow: at most 33 lengths of real slices.
        let total = namespace.iter().map(|e| e.len()).sum::<usize>() + name.len();
        if total > MAX_FULL_NAME_LEN {
            return Err(WireError::ValueTooLarge {
                what: "full track name",
            });
        }
        Ok(with_scratch(|w| {
            varint::put_varint(w, namespace.len() as u64);
            for e in namespace {
                varint::put_varint(w, e.len() as u64);
                w.put_slice(e);
            }
            let name_at = w.len() as u16;
            varint::put_varint(w, name.len() as u64);
            w.put_slice(name);
            FullTrackName {
                buf: Some(Arc::from(w.as_slice())),
                name_at,
            }
        }))
    }

    /// The encoded form, borrowed.
    fn bytes(&self) -> &[u8] {
        self.buf.as_deref().unwrap_or(DEFAULT_BYTES)
    }

    /// The namespace tuple's elements, in order.
    pub fn namespace(&self) -> impl Iterator<Item = &[u8]> {
        let (left, rest) = split_len(self.bytes());
        Elements { left, rest }
    }

    /// The track name.
    pub fn name(&self) -> &[u8] {
        split_len(&self.bytes()[self.name_at as usize..]).1
    }

    /// Combined byte length of all namespace elements plus the name.
    #[cfg(test)]
    fn total_len(&self) -> usize {
        self.namespace().map(<[u8]>::len).sum::<usize>() + self.name().len()
    }

    /// This handle's share of the heap storage behind the name, for the
    /// state-size estimators: the buffer and its two reference counts,
    /// divided among the handles that share it, so that summing over every
    /// holder charges the buffer once (`moqdns_wire::payload::arc_share`).
    pub fn heap_bytes(&self) -> usize {
        self.buf
            .as_ref()
            .map_or(0, |b| arc_share(b.len(), Arc::strong_count(b)))
    }

    /// Encodes (tuple count, elements, name) with varint length prefixes.
    pub fn encode(&self, w: &mut Writer) {
        w.put_slice(self.bytes());
    }

    /// Decodes and validates a full track name. The element count, every
    /// length and the combined limit are checked on slices borrowed from
    /// the reader; a rejected name allocates nothing.
    pub fn decode(r: &mut Reader<'_>) -> WireResult<FullTrackName> {
        /// One length-prefixed byte string, charged against what is
        /// left of the combined limit.
        fn take<'a>(r: &mut Reader<'a>, budget: &mut u64) -> WireResult<&'a [u8]> {
            let len = varint::get_varint(r)?;
            if len > *budget {
                return Err(WireError::ValueTooLarge {
                    what: "full track name",
                });
            }
            *budget -= len;
            r.get_bytes(len as usize)
        }
        let n = varint::get_varint(r)?;
        if n == 0 || n > MAX_NAMESPACE_ELEMENTS as u64 {
            return Err(WireError::Invalid {
                what: "namespace element count",
            });
        }
        let mut elements = [&[][..]; MAX_NAMESPACE_ELEMENTS];
        let elements = &mut elements[..n as usize];
        let mut budget = MAX_FULL_NAME_LEN as u64;
        for slot in elements.iter_mut() {
            *slot = take(r, &mut budget)?;
        }
        let name = take(r, &mut budget)?;
        FullTrackName::from_parts(elements, name)
    }
}

impl Default for FullTrackName {
    fn default() -> FullTrackName {
        FullTrackName {
            buf: None,
            name_at: 1,
        }
    }
}

impl fmt::Debug for FullTrackName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FullTrackName({self})")
    }
}

impl PartialEq for FullTrackName {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for FullTrackName {}

impl std::hash::Hash for FullTrackName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bytes().hash(state);
    }
}

impl PartialOrd for FullTrackName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FullTrackName {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self.bytes(), other.bytes());
        if a[..self.name_at as usize] == b[..other.name_at as usize] {
            self.name().cmp(other.name())
        } else {
            self.namespace().cmp(other.namespace())
        }
    }
}

impl fmt::Display for FullTrackName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.namespace().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            for b in e {
                write!(f, "{b:02x}")?;
            }
        }
        write!(f, ":")?;
        for b in self.name() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(t: &FullTrackName) -> FullTrackName {
        let mut w = Writer::new();
        t.encode(&mut w);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        let out = FullTrackName::decode(&mut r).unwrap();
        assert!(r.is_empty());
        out
    }

    #[test]
    fn roundtrip() {
        let t = FullTrackName::new(
            vec![vec![0x01], vec![0x00, 0x01], vec![0x00, 0x01]],
            b"\x07example\x03com\x00".to_vec(),
        )
        .unwrap();
        assert_eq!(rt(&t), t);
    }

    #[test]
    fn enforces_4096_limit() {
        // 3 namespace bytes + 4093 name bytes = 4096: legal.
        let ok = FullTrackName::new(vec![vec![1], vec![2], vec![3]], vec![0; 4093]);
        assert!(ok.is_ok());
        assert_eq!(ok.unwrap().total_len(), MAX_FULL_NAME_LEN);
        // One more byte: rejected.
        let too_big = FullTrackName::new(vec![vec![1], vec![2], vec![3]], vec![0; 4094]);
        assert!(too_big.is_err());
    }

    #[test]
    fn rejects_empty_namespace() {
        assert!(FullTrackName::new(vec![], b"x".to_vec()).is_err());
    }

    #[test]
    fn rejects_too_many_elements() {
        let ns = vec![vec![0u8]; MAX_NAMESPACE_ELEMENTS + 1];
        assert!(FullTrackName::new(ns, vec![]).is_err());
    }

    #[test]
    fn decode_rejects_oversize() {
        let mut w = Writer::new();
        varint::put_varint(&mut w, 1);
        varint::put_varint(&mut w, 5000);
        w.put_slice(&vec![0; 5000]);
        varint::put_varint(&mut w, 0);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert!(FullTrackName::decode(&mut r).is_err());
    }

    #[test]
    fn display_is_stable() {
        let t = FullTrackName::new(vec![vec![0xAB]], vec![0x01, 0x02]).unwrap();
        assert_eq!(t.to_string(), "ab:0102");
    }

    /// The representation [`FullTrackName`] replaced — a vector of element
    /// vectors and a name vector, with the derived comparisons and the
    /// codec, display and relay hash it had — kept as the reference the
    /// one-buffer type must agree with.
    mod model {
        use super::super::{MAX_FULL_NAME_LEN, MAX_NAMESPACE_ELEMENTS};
        use moqdns_wire::{varint, Reader, WireResult, Writer};

        #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct FullTrackName {
            pub namespace: Vec<Vec<u8>>,
            pub name: Vec<u8>,
        }

        impl FullTrackName {
            pub fn is_valid(&self) -> bool {
                (1..=MAX_NAMESPACE_ELEMENTS).contains(&self.namespace.len())
                    && self.namespace.iter().map(Vec::len).sum::<usize>() + self.name.len()
                        <= MAX_FULL_NAME_LEN
            }

            pub fn encode(&self) -> Vec<u8> {
                let mut w = Writer::new();
                varint::put_varint(&mut w, self.namespace.len() as u64);
                for e in self.namespace.iter().chain([&self.name]) {
                    varint::put_varint(&mut w, e.len() as u64);
                    w.put_slice(e);
                }
                w.into_vec()
            }

            /// The old decoder, limits aside (see `is_valid`).
            pub fn decode(r: &mut Reader<'_>) -> WireResult<FullTrackName> {
                let n = varint::get_varint(r)? as usize;
                let get = |r: &mut Reader<'_>| {
                    let len = varint::get_varint(r)? as usize;
                    r.get_vec(len)
                };
                let namespace = (0..n).map(|_| get(r)).collect::<WireResult<_>>()?;
                Ok(FullTrackName {
                    namespace,
                    name: get(r)?,
                })
            }

            pub fn display(&self) -> String {
                let hex = |e: &Vec<u8>| e.iter().map(|b| format!("{b:02x}")).collect::<String>();
                let ns: Vec<String> = self.namespace.iter().map(hex).collect();
                format!("{}:{}", ns.join("/"), hex(&self.name))
            }

            /// `relay::track_hash` as it read the two fields.
            pub fn track_hash(&self) -> u64 {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for part in self.namespace.iter().chain([&self.name]) {
                    for b in (part.len() as u64).to_le_bytes().iter().chain(part) {
                        h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3);
                    }
                }
                h
            }
        }
    }

    fn hash_of(v: &impl std::hash::Hash) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    fn model_of(namespace: &[Vec<u8>], name: &[u8]) -> model::FullTrackName {
        model::FullTrackName {
            namespace: namespace.to_vec(),
            name: name.to_vec(),
        }
    }

    /// Everything observable about the pair agrees between the two types.
    fn assert_agree(ma: &model::FullTrackName, mb: &model::FullTrackName) {
        let build = |m: &model::FullTrackName| {
            FullTrackName::new(m.namespace.clone(), m.name.clone()).unwrap()
        };
        let (ta, tb) = (build(ma), build(mb));
        assert_eq!(ta == tb, ma == mb, "eq {ta} {tb}");
        assert_eq!(ta.cmp(&tb), ma.cmp(mb), "cmp {ta} {tb}");
        assert_eq!(tb.cmp(&ta), mb.cmp(ma), "cmp {tb} {ta}");
        if ma == mb {
            assert_eq!(hash_of(&ta), hash_of(&tb));
        }
        for (t, m) in [(&ta, ma), (&tb, mb)] {
            assert_eq!(t.to_string(), m.display());
            assert_eq!(crate::relay::track_hash(t), m.track_hash());
            assert!(t.namespace().eq(m.namespace.iter().map(Vec::as_slice)));
            assert_eq!(t.name(), m.name);
            let total = m.namespace.iter().map(Vec::len).sum::<usize>() + m.name.len();
            assert_eq!(t.total_len(), total);
            let wire = m.encode();
            let mut w = Writer::new();
            t.encode(&mut w);
            assert_eq!(w.as_slice(), wire);
            assert_eq!(&rt(t), t);
            assert_eq!(
                &model::FullTrackName::decode(&mut Reader::new(&wire)).unwrap(),
                m
            );
        }
    }

    #[test]
    fn model_agrees_at_the_limits() {
        // 32 elements, some empty, one long enough for a two-byte prefix.
        let mut wide: Vec<Vec<u8>> = (0..32).map(|i| vec![i as u8; i % 3]).collect();
        wide[7] = vec![0x40; 64];
        let a = model_of(&wide, b"n");
        let b = model_of(&wide[..31], b"n");
        assert_agree(&a, &b);
        assert_agree(&a, &a);
        // 4096 bytes in the name, and split across the elements.
        let c = model_of(&[vec![1], vec![2], vec![3]], &[0; 4093]);
        let d = model_of(&[vec![7; 2048], vec![7; 2047]], &[7]);
        assert_agree(&c, &d);
        // A 63-byte element is the last one-byte prefix, 64 the first two-byte.
        let e = model_of(&[vec![9; 63]], &[9; 64]);
        let f = model_of(&[vec![9; 64]], &[9; 63]);
        assert_agree(&e, &f);
        for bad in [
            model_of(&[], b"x"),
            model_of(&vec![vec![0]; 33], b""),
            model_of(&[vec![1], vec![2], vec![3]], &[0; 4094]),
            model_of(&[vec![0; 4096]], &[0]),
        ] {
            assert!(!bad.is_valid());
            assert!(FullTrackName::new(bad.namespace.clone(), bad.name.clone()).is_err());
            // The decoder refuses what the constructor refuses.
            assert!(FullTrackName::decode(&mut Reader::new(&bad.encode())).is_err());
        }
    }

    #[test]
    fn decode_canonicalises_long_length_prefixes() {
        // Every length as an eight-byte varint: legal on the wire, and the
        // same name as the minimal encoding, byte for byte once decoded.
        let mut w = Writer::new();
        for (len, bytes) in [(2, &b""[..]), (1, b"a"), (0, b""), (3, b"xyz")] {
            w.put_u64(0b11 << 62 | len);
            w.put_slice(bytes);
        }
        let long = FullTrackName::decode(&mut Reader::new(w.as_slice())).unwrap();
        let plain = FullTrackName::new(vec![b"a".to_vec(), vec![]], b"xyz".to_vec()).unwrap();
        assert_eq!(long, plain);
        assert_eq!(long.bytes(), plain.bytes());
        assert_eq!(long.cmp(&plain), Ordering::Equal);
    }

    #[test]
    fn default_does_not_allocate() {
        let d = FullTrackName::default();
        assert!(d.buf.is_none());
        assert_eq!(d.heap_bytes(), 0);
        // No elements, empty name: what the derived default was.
        assert_eq!((d.namespace().count(), d.name()), (0, &[][..]));
        assert_eq!(d.to_string(), ":");
        assert!(d < FullTrackName::new(vec![vec![]], vec![]).unwrap());
    }

    #[test]
    fn heap_bytes_charges_a_shared_buffer_once() {
        let t = FullTrackName::new(vec![vec![1, 2, 3]], vec![4, 5]).unwrap();
        let alone = t.heap_bytes();
        assert_eq!(alone, (16 + t.bytes().len()).next_multiple_of(8));
        let holders = [t.clone(), t.clone(), t];
        let shared: usize = holders.iter().map(FullTrackName::heap_bytes).sum();
        assert!((alone..alone + holders.len()).contains(&shared));
    }

    proptest::proptest! {
        #[test]
        fn prop_model_agrees_on_pairs(
            a in proptest::collection::vec(proptest::collection::vec(0u8..3, 0..=3), 1..5),
            b in proptest::collection::vec(proptest::collection::vec(0u8..3, 0..=3), 1..5),
            name_a in proptest::collection::vec(0u8..3, 0..4),
            name_b in proptest::collection::vec(0u8..3, 0..4),
            cut in 1usize..5,
        ) {
            let (ma, mb) = (model_of(&a, &name_a), model_of(&b, &name_b));
            assert_agree(&ma, &mb);
            // Same namespace, other name; a prefix of the namespace.
            assert_agree(&ma, &model_of(&a, &name_b));
            assert_agree(&ma, &model_of(&a[..cut.min(a.len())], &name_a));
        }

        #[test]
        fn prop_model_agrees_on_sorting(
            picks in proptest::collection::vec(
                (
                    proptest::collection::vec(proptest::collection::vec(0u8..2, 0..=2), 1..4),
                    proptest::collection::vec(0u8..2, 0..3),
                ),
                2..24,
            ),
        ) {
            let mut models: Vec<model::FullTrackName> =
                picks.iter().map(|(ns, name)| model_of(ns, name)).collect();
            let mut tracks: Vec<FullTrackName> = models
                .iter()
                .map(|m| FullTrackName::new(m.namespace.clone(), m.name.clone()).unwrap())
                .collect();
            models.sort();
            tracks.sort();
            let want: Vec<Vec<u8>> = models.iter().map(model::FullTrackName::encode).collect();
            let got: Vec<&[u8]> = tracks.iter().map(FullTrackName::bytes).collect();
            proptest::prop_assert_eq!(got, want);
        }
    }
}
