//! Full track names: namespace tuple + track name.
//!
//! MoQT identifies a track by a *namespace* — "a tuple of sequences of
//! bytes" — and a *track name* — "a single sequence of bytes"; the combined
//! length is capped at 4096 bytes (paper §3). The DNS mapping puts the
//! request's OPCODE/RD/CD byte, QTYPE and QCLASS into the first three
//! namespace elements and the QNAME wire form into the track name (§4.3),
//! leaving 4091 bytes of QNAME budget.

use moqdns_wire::{varint, Reader, WireError, WireResult, Writer};
use std::fmt;

/// Maximum combined length of namespace elements and track name.
pub const MAX_FULL_NAME_LEN: usize = 4096;
/// Maximum number of namespace tuple elements (draft-12 §2.4.1).
pub const MAX_NAMESPACE_ELEMENTS: usize = 32;

/// A complete track identifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FullTrackName {
    /// Namespace tuple elements.
    pub namespace: Vec<Vec<u8>>,
    /// Track name.
    pub name: Vec<u8>,
}

impl FullTrackName {
    /// Builds and validates a full track name.
    pub fn new(namespace: Vec<Vec<u8>>, name: Vec<u8>) -> WireResult<FullTrackName> {
        let t = FullTrackName { namespace, name };
        t.validate()?;
        Ok(t)
    }

    /// Validates the element count and combined length limits.
    pub fn validate(&self) -> WireResult<()> {
        if self.namespace.is_empty() || self.namespace.len() > MAX_NAMESPACE_ELEMENTS {
            return Err(WireError::Invalid {
                what: "namespace element count",
            });
        }
        if self.total_len() > MAX_FULL_NAME_LEN {
            return Err(WireError::ValueTooLarge {
                what: "full track name",
            });
        }
        Ok(())
    }

    /// Combined byte length of all namespace elements plus the name.
    pub fn total_len(&self) -> usize {
        self.namespace.iter().map(Vec::len).sum::<usize>() + self.name.len()
    }

    /// Bytes of heap storage behind this name (vector capacities), for
    /// the state-size estimators.
    pub fn heap_bytes(&self) -> usize {
        self.namespace.capacity() * std::mem::size_of::<Vec<u8>>()
            + self.namespace.iter().map(Vec::capacity).sum::<usize>()
            + self.name.capacity()
    }

    /// Encodes (tuple count, elements, name) with varint length prefixes.
    pub fn encode(&self, w: &mut Writer) {
        varint::put_varint(w, self.namespace.len() as u64);
        for e in &self.namespace {
            varint::put_varint(w, e.len() as u64);
            w.put_slice(e);
        }
        varint::put_varint(w, self.name.len() as u64);
        w.put_slice(&self.name);
    }

    /// Decodes and validates a full track name.
    pub fn decode(r: &mut Reader<'_>) -> WireResult<FullTrackName> {
        let n = varint::get_varint(r)? as usize;
        if n == 0 || n > MAX_NAMESPACE_ELEMENTS {
            return Err(WireError::Invalid {
                what: "namespace element count",
            });
        }
        let mut namespace = Vec::with_capacity(n);
        for _ in 0..n {
            let len = varint::get_varint(r)? as usize;
            namespace.push(r.get_vec(len)?);
        }
        let len = varint::get_varint(r)? as usize;
        let name = r.get_vec(len)?;
        let t = FullTrackName { namespace, name };
        t.validate()?;
        Ok(t)
    }
}

impl fmt::Display for FullTrackName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.namespace.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            for b in e {
                write!(f, "{b:02x}")?;
            }
        }
        write!(f, ":")?;
        for b in &self.name {
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
}
