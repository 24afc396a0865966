//! Ordered map and set over one sorted `Vec`, for the small
//! per-connection tables.
//!
//! A `BTreeMap` leaf is eleven slots whatever its fill, so a table that
//! holds one or two entries — a connection's streams, a session's own
//! subscriptions, the in-flight packet ledger of an idle peer — pays for
//! eleven. **A one-entry `BTreeMap` is an eleven-slot node — count
//! entries × `size_of::<V>()` before choosing it**: a stub's one
//! connection in a map of connections was a 9,256-byte leaf.
//! [`VecMap`] allocates for the entries it has: lookups are a
//! binary search, iteration is ascending key order (exactly `BTreeMap`'s,
//! so the determinism contract's "ordered maps, never `HashMap`" holds
//! unchanged), and because stream ids, packet numbers and request ids are
//! handed out in increasing order, almost every insert is a push.
//!
//! Capacity follows the contents in both directions. Growth is exact
//! below `EXACT_BELOW` (4) entries — the idle endpoint's case, where a slot
//! is a 128-byte stream record — and doubling above it. A remove that
//! leaves the vector under a quarter full gives the excess back, so a
//! table that peaked at hundreds of entries and went idle does not pin
//! its peak; but capacity of `KEEP` (16) entries or fewer is never returned,
//! so a table that cycles between one entry and a burst's worth (an
//! uplink's streams, the packet ledger of a warm connection) settles at a
//! capacity and stops allocating.
//!
//! **Where not to use it.** An insert or remove away from the tail moves
//! everything behind it, so one operation costs up to the table's size.
//! That is fine for a table whose size a local limit bounds (streams by
//! `max_streams` — a concurrency window: the streams in flight at once,
//! whatever the connection's lifetime count — the packet ledger by the
//! congestion window) or that only the local application grows (its own
//! subscriptions and fetches).
//! It is not fine where the *peer* picks both the keys and how many
//! entries there are: out-of-order stream segments (a 1 MiB window of
//! one-byte frames sent highest offset first), received packet-number
//! ranges, the subscriptions a peer holds on us. A hundred thousand
//! entries in descending order cost seconds here and milliseconds in a
//! B-tree, on a relay worker every honest subscriber shares — those three
//! tables stay `BTreeMap`s, and [`btree_heap_bytes`] prices them for the
//! state-size estimators.

use std::cmp::Ordering;
use std::ops::{Bound, RangeBounds};

/// Below this many entries capacity grows by exactly one entry per
/// insert; at and above it, by doubling.
const EXACT_BELOW: usize = 4;

/// Capacity up to this many entries is kept when the table shrinks.
const KEEP: usize = 16;

/// An ordered map stored as a `Vec<(K, V)>` sorted by key.
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> VecMap<K, V> {
    /// An empty map; allocates nothing.
    pub const fn new() -> VecMap<K, V> {
        VecMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes of backing storage held (capacity, not length) — what the
    /// state-size estimators charge.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(K, V)>()
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&K, &V)> + ExactSizeIterator {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Keys in ascending order.
    fn keys(&self) -> impl DoubleEndedIterator<Item = &K> + ExactSizeIterator {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> + ExactSizeIterator {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut V> + ExactSizeIterator {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Removes every entry and gives the storage back.
    pub fn clear(&mut self) {
        self.entries = Vec::new();
    }

    /// Gives excess capacity back once the vector is under a quarter
    /// full; small capacities are kept (see the module docs).
    fn give_back(&mut self) {
        let cap = self.entries.capacity();
        if cap > KEEP && self.entries.len() < cap / 4 {
            self.entries.shrink_to((self.entries.len() * 2).max(KEEP));
        }
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// `Ok(index)` of `key`, or `Err(index)` where it would be inserted.
    fn search(&self, key: &K) -> Result<usize, usize> {
        // Keys arrive in increasing order: look at the tail first, once
        // (a comparison may be costly — a DNS name's allocates per label).
        let Some(((last, _), rest)) = self.entries.split_last() else {
            return Err(0);
        };
        match last.cmp(key) {
            Ordering::Less => Err(self.entries.len()),
            Ordering::Equal => Ok(rest.len()),
            Ordering::Greater => rest.binary_search_by(|(k, _)| k.cmp(key)),
        }
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.search(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value stored under `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.search(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.search(key).is_ok()
    }

    /// Stores `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                if self.entries.len() < EXACT_BELOW {
                    self.entries.reserve_exact(1);
                }
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.search(key).ok()?;
        let (_, value) = self.entries.remove(i);
        self.give_back();
        Some(value)
    }

    /// Keeps only the entries for which `keep` returns true, visiting
    /// them in ascending key order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
        self.give_back();
    }

    /// Index bounds of the entries whose keys fall in `range`.
    fn span(&self, range: impl RangeBounds<K>) -> (usize, usize) {
        let lo = match range.start_bound() {
            Bound::Included(s) => self.entries.partition_point(|(k, _)| k < s),
            Bound::Excluded(s) => self.entries.partition_point(|(k, _)| k <= s),
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(e) => self.entries.partition_point(|(k, _)| k <= e),
            Bound::Excluded(e) => self.entries.partition_point(|(k, _)| k < e),
            Bound::Unbounded => self.entries.len(),
        };
        (lo, hi.max(lo))
    }

    /// Removes the entries whose keys fall in `range`, handing each to
    /// `each` in ascending key order.
    pub fn remove_range(&mut self, range: impl RangeBounds<K>, mut each: impl FnMut(K, V)) {
        let (lo, hi) = self.span(range);
        for (k, v) in self.entries.drain(lo..hi) {
            each(k, v);
        }
        self.give_back();
    }
}

/// Estimated heap bytes of a `BTreeMap<K, V>` holding `len` entries, for
/// the peer-keyed tables that stay B-trees (see the module docs). A node
/// is eleven key and value slots plus a 16-byte header whatever its fill;
/// nodes average about three-quarters full, and interior nodes (a twelfth
/// of the total) are ignored. `BTreeMap` reports no capacity, so this is
/// the std layout written down, not a measurement.
pub fn btree_heap_bytes<K, V>(len: usize) -> usize {
    let node = 16 + 11 * (std::mem::size_of::<K>() + std::mem::size_of::<V>());
    len.div_ceil(8) * node
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> VecMap<K, V> {
        VecMap::new()
    }
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl<K, V> IntoIterator for VecMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    /// Owned entries in ascending key order.
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// An ordered set: a [`VecMap`] with no values (`Vec<(K, ())>` is laid
/// out exactly like `Vec<K>`).
pub struct VecSet<K> {
    map: VecMap<K, ()>,
}

impl<K> VecSet<K> {
    /// An empty set; allocates nothing.
    pub const fn new() -> VecSet<K> {
        VecSet { map: VecMap::new() }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes of backing storage held (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.map.heap_bytes()
    }
}

impl<K: Ord> VecSet<K> {
    /// Adds `key`; false if it was already a member.
    pub fn insert(&mut self, key: K) -> bool {
        self.map.insert(key, ()).is_none()
    }

    /// Removes `key`; false if it was not a member.
    pub fn remove(&mut self, key: &K) -> bool {
        self.map.remove(key).is_some()
    }

    /// True if `key` is a member.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Keeps only the members for which `keep` returns true, visiting
    /// them in ascending order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.map.retain(|k, ()| keep(k));
    }
}

impl<K> Default for VecSet<K> {
    fn default() -> VecSet<K> {
        VecSet::new()
    }
}

impl<K: std::fmt::Debug> std::fmt::Debug for VecSet<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.map.keys()).finish()
    }
}

impl<K> IntoIterator for VecSet<K> {
    type Item = K;
    type IntoIter = std::iter::Map<std::vec::IntoIter<(K, ())>, fn((K, ())) -> K>;

    /// Owned members in ascending order.
    fn into_iter(self) -> Self::IntoIter {
        self.map.into_iter().map(|(k, ())| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn monotone_inserts_are_pushes_and_lookups_hit() {
        let mut m = VecMap::new();
        for k in 0..100u64 {
            assert_eq!(m.insert(k * 4, k), None);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&40), Some(&10));
        assert_eq!(m.get(&41), None);
        assert_eq!(m.insert(40, 7), Some(10), "replace returns the old value");
        *m.get_mut(&40).unwrap() += 1;
        assert_eq!(m.remove(&40), Some(8));
        assert!(!m.contains_key(&40));
        assert_eq!(m.iter().next(), Some((&0, &0)));
    }

    #[test]
    fn out_of_order_inserts_stay_sorted() {
        let mut m = VecMap::new();
        for k in [5u64, 1, 9, 3, 7] {
            m.insert(k, ());
        }
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), [1, 3, 5, 7, 9]);
        let mut gone = Vec::new();
        m.remove_range(10.., |k, ()| gone.push(k));
        m.remove_range(3..=7, |k, ()| gone.push(k));
        m.remove_range(..2, |k, ()| gone.push(k));
        assert_eq!(gone, [3, 5, 7, 1]);
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), [9]);
    }

    #[test]
    fn small_tables_allocate_for_what_they_hold() {
        let mut m: VecMap<u64, [u8; 120]> = VecMap::new();
        assert_eq!(m.heap_bytes(), 0, "empty map holds no storage");
        m.insert(0, [0; 120]);
        assert_eq!(m.heap_bytes(), 128, "one entry, one slot");
        m.insert(4, [0; 120]);
        assert_eq!(m.heap_bytes(), 256);
    }

    #[test]
    fn capacity_follows_contents_down_but_keeps_a_small_floor() {
        let mut m = VecMap::new();
        for k in 0..1024u64 {
            m.insert(k, k);
        }
        let peak = m.heap_bytes();
        for k in 0..1023u64 {
            m.remove(&k);
        }
        assert!(
            m.heap_bytes() <= peak / 64,
            "an idle table does not pin its peak: {} of {peak}",
            m.heap_bytes()
        );
        m.remove(&1023);
        let floor = m.heap_bytes();
        assert!(floor <= KEEP * 16);
        // Cycling between empty and a burst's worth never reallocates.
        for round in 0..10u64 {
            for k in 0..KEEP as u64 {
                m.insert(round * 100 + k, k);
            }
            m.retain(|_, _| false);
            assert_eq!(m.heap_bytes(), floor);
        }
    }

    #[test]
    fn set_reports_membership_changes() {
        let mut s = VecSet::new();
        assert!(s.insert(3u64));
        assert!(!s.insert(3), "second insert is a no-op");
        assert!(s.insert(1));
        assert!(s.contains(&1));
        assert_eq!(format!("{s:?}"), "{1, 3}");
        assert!(s.remove(&3));
        assert!(!s.remove(&3));
        assert_eq!(s.into_iter().collect::<Vec<_>>(), [1]);
    }

    proptest! {
        /// The iteration-order contract: after any operation sequence the
        /// map holds exactly what a `BTreeMap` holds, in the same order,
        /// and every query agrees.
        #[test]
        fn prop_matches_btreemap(
            ops in proptest::collection::vec((0u8..4, 0u8..64, any::<u16>()), 0..200),
            probe in 0u8..64,
        ) {
            let mut ours: VecMap<u8, u16> = VecMap::new();
            let mut model: BTreeMap<u8, u16> = BTreeMap::new();
            for (op, k, v) in ops {
                match op {
                    0 => prop_assert_eq!(ours.insert(k, v), model.insert(k, v)),
                    1 => prop_assert_eq!(ours.remove(&k), model.remove(&k)),
                    2 => {
                        let (a, b) = (k, k.saturating_add(v as u8 % 8));
                        let gone: Vec<u8> = model.range(a..=b).map(|(k, _)| *k).collect();
                        let want: Vec<(u8, u16)> =
                            gone.iter().map(|k| (*k, model.remove(k).unwrap())).collect();
                        let mut got = Vec::new();
                        ours.remove_range(a..=b, |k, v| got.push((k, v)));
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        ours.retain(|key, _| key % 5 != k % 5);
                        model.retain(|key, _| key % 5 != k % 5);
                    }
                }
                prop_assert!(ours.iter().eq(model.iter()));
            }
            prop_assert_eq!(ours.get(&probe), model.get(&probe));
            prop_assert!(ours.iter().rev().eq(model.iter().rev()));
            let set: BTreeSet<u8> = model.keys().copied().collect();
            prop_assert!(ours.keys().eq(set.iter()));
        }
    }
}
