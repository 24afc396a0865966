//! The event queue, and the timer and instant bookkeeping beside it.
//!
//! Both worlds order what they run in one binary heap of `(at, key)`
//! entries, [`EventQueue`]: the simulator its node starts, deliveries and
//! timers, the live runtime its timers alone. Pop order is exactly
//! ascending `(at, key)`, and a look at the head moves nothing, so what is
//! pushed after a look lands where it would have without it. `key` is the
//! caller's composed tiebreaker (ascending within one scheduling source,
//! unique across sources), so ties at one instant fire in composed-key
//! order; the committed scenario baselines pin the contract end to end
//! (identical event order ⇒ identical traffic counts). Both worlds cancel
//! their timers through [`TimerSlots`].

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled entry: fire time, FIFO tiebreaker, payload.
///
/// `seq` is 128 bits so the simulator can compose it from
/// `(schedule-time, source, per-source seq)`: a pure function of the
/// scheduling source's own history, so a parallel run composes exactly
/// the keys a single-threaded run would — ties at one instant order by
/// when they were scheduled, then by which node scheduled them, with one
/// source's events keeping FIFO order (see the `sim` module docs).
pub(crate) struct Entry<T> {
    /// Absolute fire time.
    pub at: SimTime,
    /// Composed tiebreaker; ties at `at` fire in `seq` order.
    pub seq: u128,
    /// The scheduled payload.
    pub item: T,
}

// Order by (at, seq) only — the payload does not participate.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Pending entries, popped in ascending `(at, seq)` order.
pub(crate) struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T> EventQueue<T> {
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Schedules an entry. `at` is never before the last popped entry's
    /// (neither world schedules into the past, and each tells an
    /// instant's end by the head alone), and `seq` is unique among the
    /// pending entries.
    pub fn push(&mut self, at: SimTime, seq: u128, item: T) {
        self.heap.push(Reverse(Entry { at, seq, item }));
    }

    /// The fire time of the next entry.
    pub fn next_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Removes and returns the earliest entry by `(at, seq)`.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        self.heap.pop().map(|Reverse(e)| e)
    }
}

/// The nodes that handled a callback in the current instant (the `node`
/// module's instant contract): a bit per node, walked lowest first when
/// the instant ends. Marking sets a bit, and the walk reads only the words
/// between the lowest and the highest marked, so a node that sat the
/// instant out costs nothing in it; the bits grow as nodes are added,
/// never in an instant.
#[derive(Default)]
pub(crate) struct Touched {
    words: Vec<u64>,
    /// The words that may hold a mark: `lo..hi`, none when `lo >= hi`.
    lo: usize,
    hi: usize,
}

impl Touched {
    /// Makes room for marks on indexes below `n`.
    pub fn grow(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    /// Marks index `i` (marking it twice is marking it once).
    pub fn mark(&mut self, i: usize) {
        let w = i / 64;
        self.words[w] |= 1 << (i % 64);
        if self.is_empty() {
            (self.lo, self.hi) = (w, w + 1);
        } else {
            (self.lo, self.hi) = (self.lo.min(w), self.hi.max(w + 1));
        }
    }

    /// True when nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// Unmarks and returns the lowest marked index.
    pub fn pop_lowest(&mut self) -> Option<usize> {
        while self.lo < self.hi {
            let word = &mut self.words[self.lo];
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(self.lo * 64 + bit);
            }
            self.lo += 1;
        }
        None
    }
}

/// Cancellation bookkeeping for timers queued in an [`EventQueue`]:
/// generation-tagged slots, reused through a free list. A timer id is
/// `(generation << 32) | slot`; the slot is recycled when its entry pops
/// (fired or cancelled), bumping the generation so a stale id can neither
/// cancel nor fire the slot's next tenant — and so bookkeeping is bounded
/// by the entries actually in the queue.
#[derive(Default)]
pub(crate) struct TimerSlots {
    /// `(generation, armed)` per slot.
    slots: Vec<(u32, bool)>,
    free: Vec<u32>,
}

impl TimerSlots {
    /// Claims a slot for a timer about to be queued; returns its id.
    pub fn arm(&mut self) -> u64 {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, false));
            (self.slots.len() - 1) as u32
        });
        let slot = &mut self.slots[idx as usize];
        slot.1 = true;
        ((slot.0 as u64) << 32) | idx as u64
    }

    /// Disarms `timer_id`. A stale id (already popped, slot recycled) is
    /// a no-op.
    pub fn cancel(&mut self, timer_id: u64) {
        if let Some(slot) = self.slots.get_mut((timer_id & 0xFFFF_FFFF) as usize) {
            if slot.0 == (timer_id >> 32) as u32 {
                slot.1 = false;
            }
        }
    }

    /// Resolves a popped timer entry: whether it should fire. Recycles
    /// the slot either way.
    pub fn take(&mut self, timer_id: u64) -> bool {
        let idx = (timer_id & 0xFFFF_FFFF) as usize;
        let slot = &mut self.slots[idx];
        debug_assert_eq!(
            slot.0,
            (timer_id >> 32) as u32,
            "timer slot recycled under a live event"
        );
        let fire = slot.1;
        *slot = (slot.0.wrapping_add(1), false);
        self.free.push(idx as u32);
        fire
    }

    /// `(slots allocated, slots free)`; the difference is exactly the
    /// timer entries still queued.
    #[cfg(test)]
    pub(crate) fn bookkeeping(&self) -> (usize, usize) {
        (self.slots.len(), self.free.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_at_seq_order() {
        let mut q = EventQueue::new();
        // Same instant: FIFO by seq. Different instants: by time, even
        // when pushed out of order and far apart.
        q.push(SimTime::from_millis(500), 0, "far");
        q.push(SimTime::from_millis(1), 1, "near-a");
        q.push(SimTime::from_millis(1), 2, "near-b");
        q.push(SimTime::from_secs(30), 3, "later");
        q.push(SimTime::ZERO, 4, "now");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.item)).collect();
        assert_eq!(order, ["now", "near-a", "near-b", "far", "later"]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn same_quantum_pushes_during_drain_interleave() {
        // An event executing at time t may schedule new events at t (an
        // instant link): they must fire after already-queued events at t
        // (higher seq) but before anything later.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 0, 0u64);
        q.push(SimTime::from_nanos(10), 1, 1u64);
        assert_eq!(q.pop().unwrap().item, 0);
        q.push(SimTime::from_nanos(10), 2, 2u64); // "reply" at the same t
        q.push(SimTime::from_nanos(11), 3, 3u64);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.item)).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn touched_marks_come_back_lowest_first_once_each() {
        let mut t = Touched::default();
        t.grow(300);
        assert!(t.is_empty());
        for i in [257, 3, 64, 3, 130, 0, 257] {
            t.mark(i);
        }
        assert!(!t.is_empty());
        let order: Vec<usize> = std::iter::from_fn(|| t.pop_lowest()).collect();
        assert_eq!(order, [0, 3, 64, 130, 257]);
        assert!(t.is_empty());
        t.mark(65);
        assert_eq!(t.pop_lowest(), Some(65));
        assert_eq!(t.pop_lowest(), None);
    }

    #[test]
    fn next_at_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), 0, ());
        assert_eq!(q.next_at(), Some(SimTime::from_secs(2)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().at, SimTime::from_secs(2));
        assert_eq!(q.next_at(), None);
    }
}
