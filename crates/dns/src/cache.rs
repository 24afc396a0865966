//! A TTL-driven record cache (positive and negative entries).
//!
//! This models the caching behaviour the paper's §2 analysis targets: "a
//! record is requested from the next layer within the hierarchy only on
//! cache misses, i.e., when the TTL has expired" — so in the worst case a
//! record is as stale as the stacked TTLs along the lookup path. The
//! pub/sub variant exists to beat exactly this.
//!
//! Time is supplied by the caller as a [`SimTime`]-compatible nanosecond
//! instant so the cache works both in simulation and against a real clock.
//!
//! ## Structure
//!
//! The cache is **sharded**: keys hash onto [`SHARD_COUNT`] independent
//! shards, each holding
//!
//! * a `HashMap` from key to a slot in a slab,
//! * an **intrusive LRU list** threaded through the slab slots (O(1)
//!   touch/evict, no separate allocation per entry), and
//! * a **`BinaryHeap` expiry index** of `(expires, generation, slot)`
//!   entries with lazy invalidation, so expired entries are found in
//!   O(log n) instead of scanning the whole map.
//!
//! Insert at capacity is O(log n): pop expired entries off the heaps, or
//! failing that evict the globally least-recently-used entry (the minimum
//! over the shards' LRU tails — a constant number of candidates). The old
//! implementation did a full-map `min_by_key` scan with key cloning per
//! eviction; see `BENCH_PR1.json` for the before/after numbers.
//! Statistics are kept per shard and rolled up into [`CacheStats`].

use crate::message::Rcode;
use crate::name::Name;
use crate::rr::{Record, RecordType};
use moqdns_netsim::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};
use std::time::Duration;

/// Number of shards (power of two). Small enough that scanning one LRU
/// candidate per shard during eviction is trivial; large enough to keep
/// per-shard structures shallow at millions of entries.
pub const SHARD_COUNT: usize = 8;

/// Sentinel for "no slot" in the intrusive LRU links.
const NIL: usize = usize::MAX;

/// Key of a cache entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    name: Name,
    rtype: RecordType,
}

/// A cached entry: either records or a negative result.
#[derive(Debug, Clone)]
enum Entry {
    Positive {
        records: Vec<Record>,
        inserted: SimTime,
        expires: SimTime,
    },
    Negative {
        rcode: Rcode,
        expires: SimTime,
    },
}

impl Entry {
    fn expires(&self) -> SimTime {
        match self {
            Entry::Positive { expires, .. } | Entry::Negative { expires, .. } => *expires,
        }
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheHit {
    /// Valid records, with TTLs decremented by the time already spent in
    /// this cache (what a resolver must serve downstream).
    Records(Vec<Record>),
    /// A cached negative answer (NXDOMAIN or NODATA as NoError).
    Negative(Rcode),
}

/// Counters for cache effectiveness. Kept per shard internally and rolled
/// up by [`Cache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing or only expired entries.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    fn add(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// A slab slot: the entry plus intrusive LRU links and heap bookkeeping.
#[derive(Debug)]
struct Slot {
    key: Key,
    entry: Entry,
    /// Bumped on every (re)write; stale heap handles fail to match.
    generation: u64,
    /// Global recency stamp (monotonic across shards) for LRU ordering.
    touched: u64,
    prev: usize,
    next: usize,
    occupied: bool,
}

/// One independent shard.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<Key, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// LRU list: head = least recently used, tail = most recently used.
    lru_head: usize,
    lru_tail: usize,
    /// Min-heap of (expires, generation, slot) with lazy invalidation.
    expiry: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    stats: CacheStats,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            lru_head: NIL,
            lru_tail: NIL,
            ..Shard::default()
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        match prev {
            NIL => self.lru_head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.lru_tail = prev,
            n => self.slots[n].prev = prev,
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    /// Links `idx` at the tail (most recently used).
    fn link_tail(&mut self, idx: usize) {
        self.slots[idx].prev = self.lru_tail;
        self.slots[idx].next = NIL;
        match self.lru_tail {
            // An empty list gains its head here; a non-empty list's head
            // is untouched.
            NIL => self.lru_head = idx,
            t => self.slots[t].next = idx,
        }
        self.lru_tail = idx;
    }

    fn touch(&mut self, idx: usize, stamp: u64) {
        self.slots[idx].touched = stamp;
        if self.lru_tail != idx {
            self.unlink(idx);
            self.link_tail(idx);
        }
    }

    /// Removes the slot for `key`, if present.
    fn remove(&mut self, key: &Key) {
        let Some(idx) = self.map.remove(key) else {
            return;
        };
        self.unlink(idx);
        let slot = &mut self.slots[idx];
        slot.occupied = false;
        slot.generation += 1; // invalidate heap handles
        self.free.push(idx);
    }

    fn remove_slot(&mut self, idx: usize) {
        let key = self.slots[idx].key.clone();
        self.map.remove(&key);
        self.unlink(idx);
        self.slots[idx].occupied = false;
        self.slots[idx].generation += 1;
        self.free.push(idx);
    }

    /// Rebuilds the expiry heap from live slots when stale handles
    /// dominate. Without this, a cache running below capacity (where
    /// `make_room` never pops) would accumulate one stale handle per
    /// re-insert forever. Amortized O(1) per insert.
    fn maybe_compact_expiry(&mut self) {
        if self.expiry.len() < 64 || self.expiry.len() < 2 * self.map.len() {
            return;
        }
        self.expiry = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.occupied)
            .map(|(i, s)| Reverse((s.entry.expires(), s.generation, i)))
            .collect();
    }

    /// Inserts or replaces `key`'s entry; O(log n) for the heap push.
    fn insert(&mut self, key: Key, entry: Entry, stamp: u64) {
        self.maybe_compact_expiry();
        let expires = entry.expires();
        match self.map.get(&key).copied() {
            Some(idx) => {
                let slot = &mut self.slots[idx];
                slot.entry = entry;
                slot.generation += 1;
                let generation = slot.generation;
                self.expiry.push(Reverse((expires, generation, idx)));
                self.touch(idx, stamp);
            }
            None => {
                let idx = match self.free.pop() {
                    Some(i) => {
                        let slot = &mut self.slots[i];
                        slot.key = key.clone();
                        slot.entry = entry;
                        slot.generation += 1;
                        slot.touched = stamp;
                        slot.occupied = true;
                        i
                    }
                    None => {
                        self.slots.push(Slot {
                            key: key.clone(),
                            entry,
                            generation: 0,
                            touched: stamp,
                            prev: NIL,
                            next: NIL,
                            occupied: true,
                        });
                        self.slots.len() - 1
                    }
                };
                self.map.insert(key, idx);
                self.link_tail(idx);
                let generation = self.slots[idx].generation;
                self.expiry.push(Reverse((expires, generation, idx)));
            }
        }
    }

    /// Earliest *valid* expiry in this shard, discarding stale heap
    /// entries on the way (amortized O(log n)).
    fn earliest_expiry(&mut self) -> Option<SimTime> {
        while let Some(Reverse((expires, generation, idx))) = self.expiry.peek().copied() {
            let live = self
                .slots
                .get(idx)
                .is_some_and(|s| s.occupied && s.generation == generation);
            if live {
                return Some(expires);
            }
            self.expiry.pop();
        }
        None
    }

    /// Pops and removes the earliest-expiring entry if it expires at or
    /// before `now`. Returns whether something was removed.
    fn pop_expired(&mut self, now: SimTime) -> bool {
        match self.earliest_expiry() {
            Some(expires) if expires <= now => {
                let Reverse((_, _, idx)) = self.expiry.pop().unwrap();
                self.remove_slot(idx);
                true
            }
            _ => false,
        }
    }
}

/// A TTL cache for DNS record sets: sharded, heap-indexed expiry,
/// intrusive LRU eviction.
pub struct Cache {
    shards: Vec<Shard>,
    hasher: BuildHasherDefault<DefaultHasher>,
    max_entries: usize,
    /// Global recency counter (shared across shards so LRU eviction can
    /// compare tails between shards).
    clock: u64,
}

impl Cache {
    /// Creates a cache holding at most `max_entries` record sets.
    pub fn new(max_entries: usize) -> Cache {
        Cache {
            shards: (0..SHARD_COUNT).map(|_| Shard::new()).collect(),
            hasher: BuildHasherDefault::default(),
            max_entries: max_entries.max(1),
            clock: 0,
        }
    }

    /// Number of live + expired entries currently stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// True if the cache is empty.
    ///
    /// Kept public for: clippy's `len_without_is_empty`, which wants it
    /// beside the public `len`.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters, rolled up across shards.
    ///
    /// Kept public for: `crates/core/tests/full_chain.rs`, which reads the
    /// recursive's cache hits.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            total.add(&s.stats);
        }
        total
    }

    fn key(name: &Name, rtype: RecordType) -> Key {
        Key {
            name: name.to_lowercase(),
            rtype,
        }
    }

    fn shard_of(&self, key: &Key) -> usize {
        (self.hasher.hash_one(key) as usize) & (SHARD_COUNT - 1)
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Inserts a positive record set. The entry's lifetime is the minimum
    /// TTL among `records`.
    pub fn insert(&mut self, now: SimTime, name: &Name, rtype: RecordType, records: Vec<Record>) {
        if records.is_empty() {
            return;
        }
        let min_ttl = records.iter().map(|r| r.ttl).min().unwrap_or(0);
        let expires = now + Duration::from_secs(min_ttl as u64);
        self.insert_entry(
            now,
            Self::key(name, rtype),
            Entry::Positive {
                records,
                inserted: now,
                expires,
            },
        );
    }

    /// Inserts a negative answer (RFC 2308) with lifetime `ttl` seconds.
    pub fn insert_negative(
        &mut self,
        now: SimTime,
        name: &Name,
        rtype: RecordType,
        rcode: Rcode,
        ttl: u32,
    ) {
        let expires = now + Duration::from_secs(ttl as u64);
        self.insert_entry(
            now,
            Self::key(name, rtype),
            Entry::Negative { rcode, expires },
        );
    }

    fn insert_entry(&mut self, now: SimTime, key: Key, entry: Entry) {
        let shard = self.shard_of(&key);
        // Replacing an existing key never grows the cache.
        if !self.shards[shard].map.contains_key(&key) {
            self.make_room(now);
        }
        let stamp = self.tick();
        self.shards[shard].insert(key, entry, stamp);
    }

    /// Looks up (name, type); returns a hit only if unexpired at `now`.
    /// Positive hits have their TTLs reduced by the time spent cached. A
    /// hit refreshes the entry's LRU position.
    pub fn get(&mut self, now: SimTime, name: &Name, rtype: RecordType) -> Option<CacheHit> {
        let key = Self::key(name, rtype);
        let shard_idx = self.shard_of(&key);
        let stamp = self.tick();
        let shard = &mut self.shards[shard_idx];
        let hit = match shard.map.get(&key).copied() {
            Some(idx) if shard.slots[idx].entry.expires() > now => {
                let hit = match &shard.slots[idx].entry {
                    Entry::Positive {
                        records, inserted, ..
                    } => {
                        let elapsed = (now - *inserted).as_secs() as u32;
                        let adjusted = records
                            .iter()
                            .map(|r| {
                                let mut r = r.clone();
                                r.ttl = r.ttl.saturating_sub(elapsed);
                                r
                            })
                            .collect();
                        CacheHit::Records(adjusted)
                    }
                    Entry::Negative { rcode, .. } => CacheHit::Negative(*rcode),
                };
                shard.touch(idx, stamp);
                Some(hit)
            }
            _ => None,
        };
        if hit.is_some() {
            shard.stats.hits += 1;
        } else {
            shard.stats.misses += 1;
            shard.remove(&key); // drop expired entry, if any
        }
        hit
    }

    /// Looks up without mutating stats, LRU order, or expired entries
    /// (for introspection).
    #[cfg(test)]
    pub fn peek(&self, now: SimTime, name: &Name, rtype: RecordType) -> Option<&[Record]> {
        let key = Self::key(name, rtype);
        let shard = &self.shards[self.shard_of(&key)];
        match shard.map.get(&key).map(|&i| &shard.slots[i].entry) {
            Some(Entry::Positive {
                records, expires, ..
            }) if *expires > now => Some(records),
            _ => None,
        }
    }

    /// Removes the entry for (name, type) regardless of expiry.
    pub fn remove(&mut self, name: &Name, rtype: RecordType) {
        let key = Self::key(name, rtype);
        let shard = self.shard_of(&key);
        self.shards[shard].remove(&key);
    }

    /// Clears the whole cache (statistics are retained).
    #[cfg(test)]
    pub fn clear(&mut self) {
        for shard in &mut self.shards {
            let stats = shard.stats;
            *shard = Shard::new();
            shard.stats = stats;
        }
    }

    /// Evicts to keep size under the cap: expired entries first (found via
    /// the expiry heaps), then the globally least-recently-used entry
    /// (minimum over the shards' LRU tail candidates).
    fn make_room(&mut self, now: SimTime) {
        while self.len() >= self.max_entries {
            // Cheapest victim: anything already expired, O(log n).
            let expired_shard = (0..SHARD_COUNT)
                .find(|&i| self.shards[i].earliest_expiry().is_some_and(|e| e <= now));
            let victim_shard = match expired_shard {
                Some(i) => {
                    self.shards[i].pop_expired(now);
                    i
                }
                None => {
                    // All live: evict the globally least-recently-used
                    // entry. Each shard's LRU head is its oldest; compare
                    // the SHARD_COUNT candidates.
                    let Some(i) = (0..SHARD_COUNT)
                        .filter(|&i| self.shards[i].lru_head != NIL)
                        .min_by_key(|&i| {
                            let s = &self.shards[i];
                            s.slots[s.lru_head].touched
                        })
                    else {
                        return;
                    };
                    let head = self.shards[i].lru_head;
                    self.shards[i].remove_slot(head);
                    i
                }
            };
            self.shards[victim_shard].stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::RData;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn a(name: &str, ttl: u32) -> Record {
        Record::new(n(name), ttl, RData::A(Ipv4Addr::new(192, 0, 2, 1)))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn hit_before_expiry_miss_after() {
        let mut c = Cache::new(16);
        c.insert(t(0), &n("x.com"), RecordType::A, vec![a("x.com", 300)]);
        assert!(c.get(t(299), &n("x.com"), RecordType::A).is_some());
        assert!(c.get(t(300), &n("x.com"), RecordType::A).is_none());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn ttl_decrements_with_age() {
        let mut c = Cache::new(16);
        c.insert(t(0), &n("x.com"), RecordType::A, vec![a("x.com", 300)]);
        match c.get(t(100), &n("x.com"), RecordType::A) {
            Some(CacheHit::Records(rs)) => assert_eq!(rs[0].ttl, 200),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn min_ttl_governs_record_set() {
        let mut c = Cache::new(16);
        c.insert(
            t(0),
            &n("x.com"),
            RecordType::A,
            vec![a("x.com", 60), a("x.com", 300)],
        );
        assert!(c.get(t(59), &n("x.com"), RecordType::A).is_some());
        assert!(c.get(t(61), &n("x.com"), RecordType::A).is_none());
    }

    #[test]
    fn negative_caching() {
        let mut c = Cache::new(16);
        c.insert_negative(t(0), &n("gone.com"), RecordType::A, Rcode::NxDomain, 300);
        assert_eq!(
            c.get(t(10), &n("gone.com"), RecordType::A),
            Some(CacheHit::Negative(Rcode::NxDomain))
        );
        assert!(c.get(t(301), &n("gone.com"), RecordType::A).is_none());
    }

    #[test]
    fn case_insensitive_keys() {
        let mut c = Cache::new(16);
        c.insert(t(0), &n("X.CoM"), RecordType::A, vec![a("x.com", 300)]);
        assert!(c.get(t(1), &n("x.com"), RecordType::A).is_some());
    }

    #[test]
    fn eviction_prefers_expired_then_oldest() {
        let mut c = Cache::new(2);
        c.insert(t(0), &n("a.com"), RecordType::A, vec![a("a.com", 10)]);
        c.insert(t(1), &n("b.com"), RecordType::A, vec![a("b.com", 1000)]);
        // a.com expired at t=10; inserting at t=20 evicts it, not b.com.
        c.insert(t(20), &n("c.com"), RecordType::A, vec![a("c.com", 1000)]);
        assert!(c.peek(t(21), &n("b.com"), RecordType::A).is_some());
        assert!(c.peek(t(21), &n("c.com"), RecordType::A).is_some());
        assert!(c.peek(t(21), &n("a.com"), RecordType::A).is_none());
        assert_eq!(c.len(), 2);

        // All live: evicts the least recently used (b.com, untouched
        // since its insert at t=1).
        c.insert(t(30), &n("d.com"), RecordType::A, vec![a("d.com", 1000)]);
        assert!(c.peek(t(31), &n("b.com"), RecordType::A).is_none());
        assert!(c.stats().evictions >= 2);
    }

    #[test]
    fn get_refreshes_lru_position() {
        let mut c = Cache::new(2);
        c.insert(t(0), &n("a.com"), RecordType::A, vec![a("a.com", 1000)]);
        c.insert(t(1), &n("b.com"), RecordType::A, vec![a("b.com", 1000)]);
        // Touch a.com: b.com becomes the LRU victim despite being newer.
        assert!(c.get(t(2), &n("a.com"), RecordType::A).is_some());
        c.insert(t(3), &n("c.com"), RecordType::A, vec![a("c.com", 1000)]);
        assert!(c.peek(t(4), &n("a.com"), RecordType::A).is_some());
        assert!(c.peek(t(4), &n("b.com"), RecordType::A).is_none());
        assert!(c.peek(t(4), &n("c.com"), RecordType::A).is_some());
    }

    #[test]
    fn eviction_order_follows_expiry_index() {
        // With a full cache of all-expired entries, make_room must drain
        // them in expiry order via the heap, never touching live ones.
        let mut c = Cache::new(4);
        c.insert(t(0), &n("e1.com"), RecordType::A, vec![a("e1.com", 5)]);
        c.insert(t(0), &n("e2.com"), RecordType::A, vec![a("e2.com", 10)]);
        c.insert(t(0), &n("e3.com"), RecordType::A, vec![a("e3.com", 15)]);
        c.insert(
            t(0),
            &n("live.com"),
            RecordType::A,
            vec![a("live.com", 10_000)],
        );
        // At t=20 all of e1..e3 are dead. Two inserts replace two of them.
        c.insert(t(20), &n("n1.com"), RecordType::A, vec![a("n1.com", 1000)]);
        c.insert(t(20), &n("n2.com"), RecordType::A, vec![a("n2.com", 1000)]);
        assert!(c.peek(t(21), &n("live.com"), RecordType::A).is_some());
        assert!(c.peek(t(21), &n("n1.com"), RecordType::A).is_some());
        assert!(c.peek(t(21), &n("n2.com"), RecordType::A).is_some());
        assert_eq!(c.len(), 4);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn expiry_heap_stays_bounded_below_capacity() {
        // Regression: a cache that never reaches capacity must not grow
        // its expiry heaps forever as hot keys are re-inserted.
        let mut c = Cache::new(100_000);
        for round in 0..10_000u64 {
            let name = n(&format!("hot-{}.example.com", round % 16));
            c.insert(t(round), &name, RecordType::A, vec![a("x.com", 3600)]);
        }
        assert_eq!(c.len(), 16);
        let heap_total: usize = c.shards.iter().map(|s| s.expiry.len()).sum();
        assert!(
            heap_total <= 2 * 16 + SHARD_COUNT * 64,
            "expiry heap leaked: {heap_total} handles for 16 live entries"
        );
    }

    #[test]
    fn reinsert_does_not_leak_heap_slots() {
        // Re-inserting the same key must invalidate the old heap handle:
        // once the first inserts' expiry is due, evicting through the
        // heap must not remove the refreshed entry.
        let mut c = Cache::new(2);
        for round in 0..100u64 {
            c.insert(t(round), &n("x.com"), RecordType::A, vec![a("x.com", 3600)]);
        }
        assert_eq!(c.len(), 1);
        c.insert(t(100), &n("y.com"), RecordType::A, vec![a("y.com", 3600)]);
        // x.com, refreshed at t=99, lives to t=3699; the handles of its
        // first 50 inserts are due at t=3650. The lookup makes y.com the
        // LRU victim of the next insert.
        assert!(c.get(t(3640), &n("x.com"), RecordType::A).is_some());
        c.insert(t(3650), &n("z.com"), RecordType::A, vec![a("z.com", 3600)]);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.peek(t(3650), &n("y.com"), RecordType::A).is_none());
        assert!(
            c.get(t(3650), &n("x.com"), RecordType::A).is_some(),
            "live refreshed entry must survive"
        );
        // A lookup at a later clock expires it.
        assert!(c.get(t(3699), &n("x.com"), RecordType::A).is_none());
        assert_eq!(c.len(), 1);
    }

    /// Time at which the entry for (name, type) expires, if present.
    fn expiry(c: &Cache, name: &Name, rtype: RecordType) -> Option<SimTime> {
        let key = Cache::key(name, rtype);
        let shard = &c.shards[c.shard_of(&key)];
        shard.map.get(&key).map(|&i| shard.slots[i].entry.expires())
    }

    #[test]
    fn expiry_and_remove() {
        let mut c = Cache::new(16);
        c.insert(t(5), &n("x.com"), RecordType::A, vec![a("x.com", 100)]);
        assert_eq!(expiry(&c, &n("x.com"), RecordType::A), Some(t(105)));
        c.remove(&n("x.com"), RecordType::A);
        assert!(expiry(&c, &n("x.com"), RecordType::A).is_none());
    }

    #[test]
    fn types_are_separate_keys() {
        let mut c = Cache::new(16);
        c.insert(t(0), &n("x.com"), RecordType::A, vec![a("x.com", 100)]);
        assert!(c.get(t(1), &n("x.com"), RecordType::AAAA).is_none());
    }

    #[test]
    fn empty_insert_is_ignored() {
        let mut c = Cache::new(16);
        c.insert(t(0), &n("x.com"), RecordType::A, vec![]);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_is_respected_at_scale() {
        let mut c = Cache::new(64);
        for i in 0..1000 {
            c.insert(
                t(i),
                &n(&format!("host-{i}.example.com")),
                RecordType::A,
                vec![a("x.com", 10_000)],
            );
        }
        assert_eq!(c.len(), 64);
        assert_eq!(c.stats().evictions, 1000 - 64);
        // The survivors are exactly the most recently inserted ones.
        for i in 1000 - 64..1000 {
            assert!(
                c.peek(t(1000), &n(&format!("host-{i}.example.com")), RecordType::A)
                    .is_some(),
                "host-{i} should have survived"
            );
        }
    }

    #[test]
    fn shard_stats_roll_up() {
        let mut c = Cache::new(1024);
        for i in 0..256 {
            let name = n(&format!("d{i}.example.org"));
            c.insert(t(0), &name, RecordType::A, vec![a("x.com", 100)]);
            assert!(c.get(t(1), &name, RecordType::A).is_some());
        }
        let rolled = c.stats();
        assert_eq!(rolled.hits, 256);
        assert_eq!(
            c.shards.iter().map(|s| s.stats.hits).sum::<u64>(),
            rolled.hits
        );
        // The keys must actually spread over shards.
        let lens: Vec<usize> = c.shards.iter().map(Shard::len).collect();
        let populated = lens.iter().filter(|&&l| l > 0).count();
        assert!(populated > 1, "sharding must distribute keys: {lens:?}");
    }

    #[test]
    fn clear_retains_stats() {
        let mut c = Cache::new(16);
        c.insert(t(0), &n("x.com"), RecordType::A, vec![a("x.com", 100)]);
        c.get(t(1), &n("x.com"), RecordType::A);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1);
        // Reusable after clear.
        c.insert(t(2), &n("y.com"), RecordType::A, vec![a("y.com", 100)]);
        assert!(c.get(t(3), &n("y.com"), RecordType::A).is_some());
    }
}
