//! Cheaply-clonable shared byte payloads.
//!
//! [`Payload`] is an `Arc<[u8]>`-backed slice handle (offset + length into
//! shared storage). Cloning bumps a reference count instead of copying
//! bytes, and [`Payload::slice`] carves zero-copy sub-views out of a
//! decoded buffer. This is what lets a relay fan one published DNS object
//! out to N subscribers with **zero per-subscriber payload copies** — the
//! object is encoded once, and every forward, and every subscriber's data
//! stream until the peer acknowledges it, shares the same backing storage
//! (`moqdns_quic::streams`: a stream written whole keeps only its few
//! per-session header bytes of its own). One copy per transmission
//! remains: frame assembly, where a STREAM frame that carries that header
//! and the object's bytes is cut into one buffer of its own
//! ([`Payload::concat`]) before the packet is sealed.
//!
//! The window is two `u32`s, so a handle is 24 bytes: a payload is a
//! datagram or a DNS message, never 4 GiB, and every datagram queued in a
//! simulated world carries one.

use crate::pool::with_scratch;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A shared, immutable byte string: `Arc<[u8]>` plus an offset/length
/// window. `Clone` is O(1); equality and hashing are by content.
#[derive(Clone)]
pub struct Payload {
    bytes: Arc<[u8]>,
    offset: u32,
    len: u32,
}

const _: () = assert!(std::mem::size_of::<Payload>() == 24);

/// One holder's share of an `Arc<[u8]>` block of `len` bytes that
/// `holders` handles share, for the state-size estimators: the bytes and
/// their two reference counts, rounded up to the block's alignment as
/// the allocator sees it, divided among the holders — so summing over
/// every holder charges the block once.
pub fn arc_share(len: usize, holders: usize) -> usize {
    let word = std::mem::size_of::<usize>();
    (2 * word + len).next_multiple_of(word).div_ceil(holders)
}

/// A window bound as stored; panics past 4 GiB.
fn bound(n: usize) -> u32 {
    u32::try_from(n).expect("a payload under 4 GiB")
}

impl Payload {
    /// Creates a payload from `bytes`. Construction copies the bytes
    /// once into the shared `Arc<[u8]>` allocation; every subsequent
    /// clone/slice is then a refcount bump.
    pub fn new(bytes: Vec<u8>) -> Payload {
        let len = bound(bytes.len());
        Payload {
            bytes: bytes.into(),
            offset: 0,
            len,
        }
    }

    /// One payload holding `head` then `tail`, in storage of its own (one
    /// allocation): joined in the thread's scratch buffer and copied as
    /// one slice, which is faster than collecting them byte by byte.
    pub fn concat(head: &[u8], tail: &[u8]) -> Payload {
        with_scratch(|w| {
            w.put_slice(head);
            w.put_slice(tail);
            Payload::from(w.as_slice())
        })
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
        self.len as usize
    }

    /// True if the payload has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload's bytes.
    pub fn as_slice(&self) -> &[u8] {
        let start = self.offset as usize;
        &self.bytes[start..start + self.len as usize]
    }

    /// A zero-copy sub-view of this payload. Panics if `range` is out of
    /// bounds (mirroring slice indexing).
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "payload slice {range:?} out of bounds (len {})",
            self.len
        );
        Payload {
            bytes: Arc::clone(&self.bytes),
            offset: self.offset + range.start as u32,
            len: (range.end - range.start) as u32,
        }
    }

    /// This handle's share of the heap block behind it ([`arc_share`]):
    /// the whole backing buffer, not only the window, as a sub-view keeps
    /// all of it alive.
    pub fn heap_bytes(&self) -> usize {
        arc_share(self.bytes.len(), Arc::strong_count(&self.bytes))
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
            len: bound(s.len()),
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
    fn concat_joins_two_slices() {
        let p = Payload::concat(b"ab", b"cde");
        assert_eq!(p, b"abcde");
        assert_eq!(p.heap_bytes(), arc_share(5, 1));
        assert!(Payload::concat(b"", b"").is_empty());
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
