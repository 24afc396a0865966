//! Cheaply-clonable shared byte payloads.
//!
//! [`Payload`] is an `Arc<[u8]>`-backed slice handle (offset + length into
//! shared storage). Cloning bumps a reference count instead of copying
//! bytes, and [`Payload::slice`] carves zero-copy sub-views out of a
//! decoded buffer. This is what lets a relay fan one published DNS object
//! out to N subscribers with **zero per-subscriber payload copies** — the
//! object is encoded once and every forward shares the same backing
//! storage.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A shared, immutable byte string: `Arc<[u8]>` plus an offset/length
/// window. `Clone` is O(1); equality and hashing are by content.
#[derive(Clone)]
pub struct Payload {
    bytes: Arc<[u8]>,
    offset: usize,
    len: usize,
}

impl Payload {
    /// Creates a payload from `bytes`. Construction copies the bytes
    /// once into the shared `Arc<[u8]>` allocation; every subsequent
    /// clone/slice is then a refcount bump.
    pub fn new(bytes: Vec<u8>) -> Payload {
        let len = bytes.len();
        Payload {
            bytes: bytes.into(),
            offset: 0,
            len,
        }
    }

    /// The empty payload (no allocation is shared, but none is needed).
    pub fn empty() -> Payload {
        Payload {
            bytes: Arc::new([]),
            offset: 0,
            len: 0,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the payload has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload's bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[self.offset..self.offset + self.len]
    }

    /// A zero-copy sub-view of this payload. Panics if `range` is out of
    /// bounds (mirroring slice indexing).
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "payload slice {range:?} out of bounds (len {})",
            self.len
        );
        Payload {
            bytes: Arc::clone(&self.bytes),
            offset: self.offset + range.start,
            len: range.end - range.start,
        }
    }

    /// Number of handles sharing the backing storage.
    #[cfg(test)]
    fn ref_count(&self) -> usize {
        Arc::strong_count(&self.bytes)
    }

    /// True if `other` shares this payload's backing storage (zero-copy
    /// lineage check).
    pub fn shares_storage_with(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes)
    }
}

impl Default for Payload {
    fn default() -> Payload {
        Payload::empty()
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::new(v)
    }
}

impl From<&[u8]> for Payload {
    fn from(s: &[u8]) -> Payload {
        Payload {
            bytes: Arc::from(s),
            offset: 0,
            len: s.len(),
        }
    }
}

impl From<&Vec<u8>> for Payload {
    fn from(v: &Vec<u8>) -> Payload {
        Payload::from(v.as_slice())
    }
}

impl From<&Payload> for Payload {
    fn from(p: &Payload) -> Payload {
        p.clone()
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(a: &[u8; N]) -> Payload {
        Payload::from(a.as_slice())
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} B: {:?})", self.len, self.as_slice())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        // Same storage + same window is equality without touching bytes —
        // the common case when comparing a republished object against the
        // handle remembered from the last push.
        (self.shares_storage_with(other) && self.offset == other.offset && self.len == other.len)
            || self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Hash for Payload {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let p = Payload::new(vec![1, 2, 3, 4]);
        let q = p.clone();
        assert!(p.shares_storage_with(&q));
        assert_eq!(p.ref_count(), 2);
        assert_eq!(q, p);
    }

    #[test]
    fn slice_is_zero_copy() {
        let p = Payload::new((0..100).collect());
        let s = p.slice(10..20);
        assert!(s.shares_storage_with(&p));
        assert_eq!(s.as_slice(), &(10..20).collect::<Vec<u8>>()[..]);
        // Nested slices stay anchored to the original storage.
        let ss = s.slice(5..10);
        assert!(ss.shares_storage_with(&p));
        assert_eq!(ss.as_slice(), &[15, 16, 17, 18, 19]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_bounds_checked() {
        Payload::new(vec![0; 4]).slice(2..6);
    }

    #[test]
    fn equality_against_byte_types() {
        let p = Payload::new(b"abc".to_vec());
        assert_eq!(p, *b"abc");
        assert_eq!(p, b"abc");
        assert_eq!(p, b"abc".to_vec());
        assert_eq!(p, b"abc"[..]);
        assert_ne!(p, b"abd");
    }

    #[test]
    fn empty_and_default() {
        assert!(Payload::empty().is_empty());
        assert_eq!(Payload::default().len(), 0);
        assert_eq!(Payload::empty(), Payload::new(vec![]));
    }

    #[test]
    fn hash_matches_content() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Payload::new(vec![1, 2]));
        assert!(set.contains(&Payload::from(&[1u8, 2][..])));
    }
}
