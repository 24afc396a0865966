//! The endpoint's two indexes over its slab: the inbound demux
//! `cid → slot` ([`CidTable`]) and the connections' timer deadlines in
//! fire order ([`Deadlines`]).
//!
//! Both are flat — one block each, sized to what they hold — because the
//! endpoint that holds one connection for days is the common one: a stub.
//! The B-trees they replace gave it a 144-byte and a 192-byte leaf of
//! eleven slots each, for one entry apiece. Here one connection is a
//! 16-byte table of four buckets and one 16-byte heap entry in a block of
//! four, and a relay's thousands cost about what the B-trees cost them.

use crate::endpoint::ConnHandle;
use moqdns_netsim::{splitmix64, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Inbound demux: connection id → slab slot, as an open-addressed table
/// of slot numbers (linear probing, backward-shift deletion, so no
/// tombstones). The cids stay in the slots: a probe compares `cid_of` of
/// the slot a bucket names, so a bucket is four bytes.
///
/// The table is only ever probed, never walked in bucket order, so where
/// an entry lands changes nothing a run does. A server connection's cid
/// is chosen by the *peer*; the hash is keyed by the endpoint's seed, so
/// a peer cannot aim its cids at one run of buckets without knowing it.
pub(crate) struct CidTable {
    /// `slot + 1` per bucket, 0 for an empty one; a power of two long,
    /// or no block at all while nothing is indexed.
    buckets: Box<[u32]>,
    len: usize,
    /// Mixed into every hash.
    key: u64,
}

/// The fewest buckets a table with anything in it has.
const MIN_BUCKETS: usize = 4;

impl CidTable {
    /// An empty table, hashing under `key`.
    pub fn new(key: u64) -> CidTable {
        CidTable {
            buckets: Box::new([]),
            len: 0,
            key,
        }
    }

    /// Connections indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Bytes of the table's block.
    pub fn heap_bytes(&self) -> usize {
        self.buckets.len() * size_of::<u32>()
    }

    fn home(&self, cid: u64) -> usize {
        splitmix64(cid ^ self.key) as usize & (self.buckets.len() - 1)
    }

    /// The slot indexed under `cid`.
    pub fn get(&self, cid: u64, cid_of: impl Fn(u32) -> u64) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut i = self.home(cid);
        loop {
            match self.buckets[i] {
                0 => return None,
                b if cid_of(b - 1) == cid => return Some(b - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Indexes `slot` under `cid`, which is not indexed yet. `cid_of`
    /// answers for every slot already indexed, not for `slot`.
    pub fn insert(&mut self, cid: u64, slot: u32, cid_of: impl Fn(u32) -> u64) {
        let bucket = slot.checked_add(1).expect("a slot number under u32::MAX");
        // At most three-quarters full: linear probes stay short.
        if (self.len + 1) * 4 > self.buckets.len() * 3 {
            self.resize((self.buckets.len() * 2).max(MIN_BUCKETS), cid_of);
        }
        self.place(cid, bucket);
        self.len += 1;
    }

    /// Takes `slot`, indexed under `cid`, out. `cid_of` answers for every
    /// other slot indexed.
    pub fn remove(&mut self, cid: u64, slot: u32, cid_of: impl Fn(u32) -> u64) {
        let mask = self.buckets.len() - 1;
        let mut hole = self.home(cid);
        while self.buckets[hole] != slot + 1 {
            assert_ne!(self.buckets[hole], 0, "cid {cid} is not indexed");
            hole = (hole + 1) & mask;
        }
        // Shift back every entry of the run after the hole that may sit
        // in it: one whose home is not cyclically in (hole, j].
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let b = self.buckets[j];
            if b == 0 {
                break;
            }
            let home = self.home(cid_of(b - 1));
            let stays = if hole <= j {
                hole < home && home <= j
            } else {
                hole < home || home <= j
            };
            if !stays {
                self.buckets[hole] = b;
                hole = j;
            }
        }
        self.buckets[hole] = 0;
        self.len -= 1;
        if self.len == 0 {
            self.buckets = Box::new([]);
        } else if self.len * 8 <= self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2, cid_of);
        }
    }

    /// Puts `bucket` in the first empty bucket of `cid`'s run.
    fn place(&mut self, cid: u64, bucket: u32) {
        let mask = self.buckets.len() - 1;
        let mut i = self.home(cid);
        while self.buckets[i] != 0 {
            i = (i + 1) & mask;
        }
        self.buckets[i] = bucket;
    }

    fn resize(&mut self, buckets: usize, cid_of: impl Fn(u32) -> u64) {
        let old = std::mem::replace(&mut self.buckets, vec![0; buckets].into_boxed_slice());
        for &b in old.iter().filter(|&&b| b != 0) {
            self.place(cid_of(b - 1), b);
        }
    }
}

/// The connections' timer deadlines as a min-heap of `(deadline, handle)`
/// with lazy deletion: a moved deadline pushes its new entry and leaves
/// the old one behind, *stale*. Whether an entry is current is the
/// caller's to say — the slot it names still holds that connection and
/// is indexed under that deadline — so the heap pops current entries in
/// exactly the `(deadline, handle)` order an ordered set of them would.
///
/// Stale entries cost memory only. A stale entry that reaches the top is
/// dropped at once, and once the stale ones outnumber half the current
/// ones they are all dropped in one pass: the heap holds at most one and
/// a half entries per indexed connection, and an endpoint with one
/// connection holds its one entry.
pub(crate) struct Deadlines {
    heap: BinaryHeap<Reverse<(SimTime, ConnHandle)>>,
    /// Entries that are a connection's current deadline.
    current: usize,
}

impl Deadlines {
    pub fn new() -> Deadlines {
        Deadlines {
            heap: BinaryHeap::new(),
            current: 0,
        }
    }

    /// Entries held, stale ones included.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Bytes of the heap's block.
    pub fn heap_bytes(&self) -> usize {
        self.heap.capacity() * size_of::<Reverse<(SimTime, ConnHandle)>>()
    }

    /// `h`'s indexed deadline moved from `old` to `new` (`SimTime::MAX`:
    /// none). `is_current` already answers by the new one.
    pub fn moved(
        &mut self,
        h: ConnHandle,
        old: SimTime,
        new: SimTime,
        is_current: impl Fn(SimTime, ConnHandle) -> bool,
    ) {
        if old != SimTime::MAX {
            self.current -= 1;
        }
        if new != SimTime::MAX {
            self.heap.push(Reverse((new, h)));
            self.current += 1;
        }
        self.tidy(is_current);
    }

    /// The earliest current deadline.
    pub fn first(&mut self, is_current: impl Fn(SimTime, ConnHandle) -> bool) -> Option<SimTime> {
        self.drop_stale_top(&is_current);
        self.heap.peek().map(|&Reverse((t, _))| t)
    }

    /// Takes the earliest current entry out if it is due by `now`; the
    /// caller then un-indexes its connection (its deadline is none) and
    /// calls [`Deadlines::tidy`] once it has taken all that are due.
    pub fn pop_due(
        &mut self,
        now: SimTime,
        is_current: impl Fn(SimTime, ConnHandle) -> bool,
    ) -> Option<ConnHandle> {
        self.drop_stale_top(&is_current);
        let &Reverse((t, h)) = self.heap.peek()?;
        if t > now {
            return None;
        }
        self.heap.pop();
        self.current -= 1;
        Some(h)
    }

    /// Drops stale entries: the ones on top, and all of them once they
    /// outnumber half the current ones. A heap left empty gives its block
    /// up.
    pub fn tidy(&mut self, is_current: impl Fn(SimTime, ConnHandle) -> bool) {
        self.drop_stale_top(&is_current);
        if (self.heap.len() - self.current) * 2 > self.current {
            let mut entries = std::mem::take(&mut self.heap).into_vec();
            entries.retain(|&Reverse((t, h))| is_current(t, h));
            // A deadline that moved away and back is current twice.
            entries.sort_unstable();
            entries.dedup();
            if entries.capacity() > 4 * entries.len() {
                entries.shrink_to(2 * entries.len());
            }
            self.heap = entries.into();
        }
    }

    fn drop_stale_top(&mut self, is_current: &impl Fn(SimTime, ConnHandle) -> bool) {
        while let Some(&Reverse((t, h))) = self.heap.peek() {
            if is_current(t, h) {
                break;
            }
            self.heap.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::time::Duration;

    /// A slab as the endpoint's: per slot, its tenant's handle, cid and
    /// indexed deadline (`SimTime::MAX`: none), or nothing.
    type Slab = Vec<Option<(ConnHandle, u64, SimTime)>>;

    fn cid_at(slab: &Slab) -> impl Fn(u32) -> u64 + '_ {
        |s| slab[s as usize].expect("an indexed slot is live").1
    }

    fn current_in(slab: &Slab) -> impl Fn(SimTime, ConnHandle) -> bool + '_ {
        |t, h| slab[h.slot()].is_some_and(|(held, _, d)| held == h && d == t)
    }

    proptest! {
        /// Both indexes against the ordered containers they replaced,
        /// driven by one script of connects, deadline refreshes, closes,
        /// timeouts and lookups over a slab that reuses its slots under a
        /// new generation: every lookup answers as the `BTreeMap` does,
        /// the heap's first deadline is the `BTreeSet`'s, and every
        /// timeout pops the same `(deadline, handle)` sequence. After
        /// every step the heap holds at most one and a half entries per
        /// indexed connection, and one while only one is indexed.
        #[test]
        fn prop_the_flat_indexes_answer_as_the_ordered_ones(
            script in proptest::collection::vec((0u8..6, any::<u16>(), any::<u64>()), 1..400),
        ) {
            let mut slab: Slab = Vec::new();
            let mut free: Vec<ConnHandle> = Vec::new();
            let mut cids = CidTable::new(0x5EED);
            let mut deadlines = Deadlines::new();
            let mut by_cid: BTreeMap<u64, u32> = BTreeMap::new();
            let mut model: BTreeSet<(SimTime, ConnHandle)> = BTreeSet::new();
            let mut now = SimTime::ZERO;
            let mut undo: Option<(ConnHandle, SimTime)> = None;
            let live =|slab: &Slab| -> Vec<usize> {
                (0..slab.len()).filter(|&i| slab[i].is_some()).collect()
            };
            for &(op, x, y) in &script {
                let x = x as u64;
                match op {
                    // Connect: a cid the peer picked — now and then one
                    // from a small range, so runs of buckets collide —
                    // and maybe a deadline.
                    0 => {
                        let cid = if y & 1 == 0 { y % 64 } else { y };
                        if by_cid.contains_key(&cid) {
                            continue;
                        }
                        let h = free.pop().unwrap_or_else(|| {
                            slab.push(None);
                            ConnHandle((slab.len() - 1) as u64)
                        });
                        let deadline = match x % 4 {
                            0 => SimTime::MAX,
                            _ => now + Duration::from_millis(x % 500),
                        };
                        cids.insert(cid, h.slot() as u32, cid_at(&slab));
                        slab[h.slot()] = Some((h, cid, SimTime::MAX));
                        by_cid.insert(cid, h.slot() as u32);
                        if deadline != SimTime::MAX {
                            slab[h.slot()] = Some((h, cid, deadline));
                            model.insert((deadline, h));
                            deadlines.moved(h, SimTime::MAX, deadline, current_in(&slab));
                        }
                    }
                    // Refresh: a connection's deadline moves, earlier,
                    // later, back to where it was, or away.
                    1 | 2 => {
                        let held = live(&slab);
                        if held.is_empty() {
                            continue;
                        }
                        let mut pick = held[x as usize % held.len()];
                        // Now and then the last one moved goes back to where
                        // it was, while its old entry may still be queued.
                        let back = undo.filter(|&(h, _)| {
                            y % 8 == 1 && slab[h.slot()].is_some_and(|s| s.0 == h)
                        });
                        if let Some((h, _)) = back {
                            pick = h.slot();
                        }
                        let (h, cid, old) = slab[pick].unwrap();
                        let new = match (back, y % 8) {
                            (Some((_, was)), _) => was,
                            (None, 0) => SimTime::MAX,
                            _ => now + Duration::from_millis(y % 300),
                        };
                        if new == old {
                            continue;
                        }
                        undo = Some((h, old));
                        slab[h.slot()] = Some((h, cid, new));
                        model.remove(&(old, h));
                        if new != SimTime::MAX {
                            model.insert((new, h));
                        }
                        deadlines.moved(h, old, new, current_in(&slab));
                    }
                    // Close: the slot goes back under the next generation.
                    3 => {
                        let held = live(&slab);
                        if held.is_empty() {
                            continue;
                        }
                        let pick = held[x as usize % held.len()];
                        let (h, cid, deadline) = slab[pick].take().unwrap();
                        cids.remove(cid, h.slot() as u32, cid_at(&slab));
                        by_cid.remove(&cid);
                        model.remove(&(deadline, h));
                        free.push(ConnHandle(h.0 + (1 << 32)));
                        if deadline != SimTime::MAX {
                            deadlines.moved(h, deadline, SimTime::MAX, current_in(&slab));
                        }
                    }
                    // Timeout: the clock moves on and everything due fires,
                    // each fired connection un-indexed.
                    4 => {
                        now += Duration::from_millis(x % 200);
                        let mut fired = Vec::new();
                        while let Some(h) = deadlines.pop_due(now, current_in(&slab)) {
                            let (held, cid, t) = slab[h.slot()].unwrap();
                            slab[h.slot()] = Some((held, cid, SimTime::MAX));
                            fired.push((t, h));
                        }
                        deadlines.tidy(current_in(&slab));
                        let mut want = Vec::new();
                        while model.first().is_some_and(|&(t, _)| t <= now) {
                            want.push(model.pop_first().unwrap());
                        }
                        prop_assert_eq!(fired, want);
                    }
                    // Lookups: a held cid, and any cid at all.
                    _ => {
                        for cid in by_cid.keys().take(1).copied().chain([y, y % 64]) {
                            let want = by_cid.get(&cid).copied();
                            prop_assert_eq!(cids.get(cid, cid_at(&slab)), want);
                        }
                    }
                }
                prop_assert_eq!(cids.len(), by_cid.len());
                let first = model.first().map(|&(t, _)| t);
                prop_assert_eq!(deadlines.first(current_in(&slab)), first);
                let (held, indexed) = (deadlines.len(), model.len());
                prop_assert!(2 * held <= 3 * indexed, "{held} entries for {indexed}");
                if by_cid.is_empty() {
                    prop_assert_eq!(cids.heap_bytes(), 0);
                }
            }
            for (&cid, &slot) in &by_cid {
                prop_assert_eq!(cids.get(cid, cid_at(&slab)), Some(slot));
            }
        }
    }

    #[test]
    fn one_connection_is_one_entry_of_each_in_one_small_block() {
        let h = ConnHandle(0);
        let mut slab: Slab = vec![Some((h, 77, SimTime::MAX))];
        let mut cids = CidTable::new(1);
        let mut deadlines = Deadlines::new();
        cids.insert(77, 0, cid_at(&slab));
        let mut old = SimTime::MAX;
        // The idle deadline, a probe timeout under it, the probe
        // answered, the idle deadline pushed back: a held stub's days.
        for ms in [30_000, 200, 400, 30_400, 300, 60_000, 60_000 + 25] {
            let new = SimTime::from_millis(ms);
            slab[0] = Some((h, 77, new));
            deadlines.moved(h, old, new, current_in(&slab));
            old = new;
            assert_eq!(deadlines.len(), 1, "after moving to {ms} ms");
        }
        assert_eq!((cids.len(), cids.heap_bytes()), (1, 16));
        assert_eq!(deadlines.heap_bytes(), 64, "one entry, in a block of four");
    }
}
