//! The event scheduler: a hierarchical bucketed timing wheel.
//!
//! The simulator used to keep every pending event in one global
//! `BinaryHeap`, paying `O(log n)` per push/pop with `n` spanning *all*
//! outstanding events — at metro scale that heap holds tens of thousands
//! of keep-alive timers that sit between every pair of back-to-back
//! datagram deliveries. The wheel splits the timeline instead:
//!
//! * **near-term buckets** — a power-of-two ring of [`WHEEL_BUCKETS`]
//!   buckets, each covering a quantum of `1 << WHEEL_SHIFT` nanoseconds
//!   (~1 ms). Events inside the wheel's window are pushed onto their
//!   bucket in O(1);
//! * **an active-quantum heap** — the bucket currently being drained
//!   lives in a tiny `BinaryHeap` ordered by `(at, seq)`, so events that
//!   land *in the quantum being executed* (e.g. an instant-link reply)
//!   still interleave exactly where a global heap would put them;
//! * **an overflow heap** — events beyond the window (idle timeouts,
//!   keep-alives, probes) wait in a conventional heap and migrate into
//!   buckets as the window advances past them.
//!
//! ## Determinism contract
//!
//! Pop order is **exactly** ascending `(at, seq)` — bit-identical to the
//! global binary heap it replaced. `seq` is the caller's composed
//! tiebreaker (ascending within one scheduling source, unique across
//! sources), so ties at one instant fire in composed-key order. The
//! property test below drives a wheel and a reference heap through
//! randomized interleaved push/pop schedules and asserts identical
//! sequences; the committed CI scenario baselines pin the same contract
//! end-to-end (identical event order ⇒ identical traffic counts).
//!
//! Both worlds queue their timers here — the simulator among its other
//! events, the live runtime alone — and both cancel them through
//! [`TimerSlots`].

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the bucket quantum in nanoseconds (~1.05 ms).
const WHEEL_SHIFT: u32 = 20;
/// Buckets in the ring; the window spans `BUCKETS << SHIFT` ns (~274 ms).
const WHEEL_BUCKETS: usize = 256;

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

/// A bucketed timing wheel with an overflow heap. See the module docs
/// for the layout and the determinism contract.
pub(crate) struct TimingWheel<T> {
    /// Ring of near-term buckets, indexed by `quantum & (BUCKETS - 1)`.
    buckets: Vec<Vec<Entry<T>>>,
    /// Quantum index currently being drained; bucket contents for it live
    /// in `current`. Only quanta in `(active, active + BUCKETS)` may hold
    /// ring entries.
    active_quantum: u64,
    /// Events of the active quantum, ordered by `(at, seq)`.
    current: BinaryHeap<Reverse<Entry<T>>>,
    /// Events beyond the wheel window.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    len: usize,
}

fn quantum_of(at: SimTime) -> u64 {
    at.as_nanos() >> WHEEL_SHIFT
}

impl<T> TimingWheel<T> {
    pub fn new() -> TimingWheel<T> {
        TimingWheel {
            buckets: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            active_quantum: 0,
            current: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Schedules an entry. `at` must be `>=` the time of the last popped
    /// entry (the simulator never schedules into the past) and `seq`
    /// strictly greater than any previously pushed.
    pub fn push(&mut self, at: SimTime, seq: u128, item: T) {
        let q = quantum_of(at);
        let e = Entry { at, seq, item };
        self.len += 1;
        if q <= self.active_quantum {
            self.current.push(Reverse(e));
        } else if q < self.active_quantum + WHEEL_BUCKETS as u64 {
            self.buckets[(q as usize) & (WHEEL_BUCKETS - 1)].push(e);
        } else {
            self.overflow.push(Reverse(e));
        }
    }

    /// The fire time of the next entry, advancing the wheel's internal
    /// cursor to it if necessary (no entry is consumed).
    pub fn next_at(&mut self) -> Option<SimTime> {
        self.ensure_current();
        self.current.peek().map(|Reverse(e)| e.at)
    }

    /// Whether an entry at or before `at` is pending, where `at` is no
    /// earlier than the last popped entry's time: every such entry is in
    /// the active-quantum heap, so unlike [`TimingWheel::next_at`] this
    /// moves no cursor and no entry — what is pushed next still lands
    /// where it would have without the look.
    pub fn has_due(&self, at: SimTime) -> bool {
        self.current.peek().is_some_and(|Reverse(e)| e.at <= at)
    }

    /// Removes and returns the earliest entry by `(at, seq)`.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        self.ensure_current();
        let Reverse(e) = self.current.pop()?;
        self.len -= 1;
        Some(e)
    }

    /// Loads the next non-empty quantum into `current` when the active
    /// one is drained: scans the ring window for the nearest occupied
    /// bucket, takes the overflow head into account, and migrates
    /// overflow entries that now fall inside the (re-anchored) window.
    fn ensure_current(&mut self) {
        if !self.current.is_empty() || self.len == 0 {
            return;
        }
        // Nearest occupied bucket strictly after the active quantum.
        let mut next_bucket: Option<u64> = None;
        for dq in 1..WHEEL_BUCKETS as u64 {
            let q = self.active_quantum + dq;
            if !self.buckets[(q as usize) & (WHEEL_BUCKETS - 1)].is_empty() {
                next_bucket = Some(q);
                break;
            }
        }
        let next_overflow = self.overflow.peek().map(|Reverse(e)| quantum_of(e.at));
        let q = match (next_bucket, next_overflow) {
            (Some(b), Some(o)) => b.min(o),
            (Some(b), None) => b,
            (None, Some(o)) => o,
            (None, None) => unreachable!("len > 0 but no bucket or overflow entry"),
        };
        self.active_quantum = q;
        // The bucket for q (if the jump stayed within the old window).
        for e in std::mem::take(&mut self.buckets[(q as usize) & (WHEEL_BUCKETS - 1)]) {
            debug_assert_eq!(quantum_of(e.at), q, "bucket held a foreign quantum");
            self.current.push(Reverse(e));
        }
        // Re-window the overflow heap: everything now inside the window
        // moves to its bucket (or straight into `current` for quantum q).
        while let Some(Reverse(e)) = self.overflow.peek() {
            let eq = quantum_of(e.at);
            if eq >= q + WHEEL_BUCKETS as u64 {
                break;
            }
            let Reverse(e) = self.overflow.pop().unwrap();
            if eq == q {
                self.current.push(Reverse(e));
            } else {
                self.buckets[(eq as usize) & (WHEEL_BUCKETS - 1)].push(e);
            }
        }
        debug_assert!(!self.current.is_empty(), "advanced to an empty quantum");
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

/// Cancellation bookkeeping for timers queued in a [`TimingWheel`]:
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
    use proptest::prelude::*;
    use std::time::Duration;

    /// Reference model: the global `(at, seq)` binary heap the wheel
    /// replaced.
    struct HeapModel {
        heap: BinaryHeap<Reverse<Entry<u128>>>,
    }

    impl HeapModel {
        fn new() -> HeapModel {
            HeapModel {
                heap: BinaryHeap::new(),
            }
        }
        fn push(&mut self, at: SimTime, seq: u128) {
            self.heap.push(Reverse(Entry { at, seq, item: seq }));
        }
        fn pop(&mut self) -> Option<(SimTime, u128)> {
            self.heap.pop().map(|Reverse(e)| (e.at, e.seq))
        }
    }

    #[test]
    fn drains_in_at_seq_order() {
        let mut w = TimingWheel::new();
        // Same instant: FIFO by seq. Different instants: by time, even
        // when pushed out of order and far apart (bucket vs overflow).
        w.push(SimTime::from_millis(500), 0, "far");
        w.push(SimTime::from_millis(1), 1, "near-a");
        w.push(SimTime::from_millis(1), 2, "near-b");
        w.push(SimTime::from_secs(30), 3, "overflow");
        w.push(SimTime::ZERO, 4, "now");
        let order: Vec<&str> = std::iter::from_fn(|| w.pop().map(|e| e.item)).collect();
        assert_eq!(order, ["now", "near-a", "near-b", "far", "overflow"]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn same_quantum_pushes_during_drain_interleave() {
        // An event executing at time t may schedule new events at t (an
        // instant link): they must fire after already-queued events at t
        // (higher seq) but before anything later.
        let mut w = TimingWheel::new();
        w.push(SimTime::from_nanos(10), 0, 0u64);
        w.push(SimTime::from_nanos(10), 1, 1u64);
        assert_eq!(w.pop().unwrap().item, 0);
        w.push(SimTime::from_nanos(10), 2, 2u64); // "reply" at the same t
        w.push(SimTime::from_nanos(11), 3, 3u64);
        let order: Vec<u64> = std::iter::from_fn(|| w.pop().map(|e| e.item)).collect();
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
        let mut w = TimingWheel::new();
        w.push(SimTime::from_secs(2), 0, ());
        assert_eq!(w.next_at(), Some(SimTime::from_secs(2)));
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop().unwrap().at, SimTime::from_secs(2));
        assert_eq!(w.next_at(), None);
    }

    proptest! {
        /// The wheel and the reference heap pop identical `(at, seq)`
        /// sequences under randomized interleaved pushes and pops,
        /// including delays that straddle bucket/overflow boundaries, and
        /// agree on whether anything more is due at the clock.
        #[test]
        fn prop_wheel_matches_global_heap(
            // (delay_ns from current virtual time, pops after each push)
            script in proptest::collection::vec(
                (0u64..3_000_000_000, 0usize..3), 1..200),
        ) {
            let mut wheel = TimingWheel::new();
            let mut model = HeapModel::new();
            let mut now = SimTime::ZERO;
            for (seq, (delay, pops)) in script.into_iter().enumerate() {
                let seq = seq as u128;
                let at = now + Duration::from_nanos(delay);
                wheel.push(at, seq, seq);
                model.push(at, seq);
                for _ in 0..pops {
                    let got = wheel.pop().map(|e| (e.at, e.seq));
                    let want = model.pop();
                    prop_assert_eq!(got, want);
                    if let Some((at, _)) = got {
                        now = at; // the simulator clock follows pops
                    }
                    // The instant is over exactly when the model's next
                    // entry lies later.
                    let due = model.heap.peek().is_some_and(|Reverse(e)| e.at <= now);
                    prop_assert_eq!(wheel.has_due(now), due);
                }
            }
            // Drain the rest in lockstep.
            loop {
                let got = wheel.pop().map(|e| (e.at, e.seq));
                let want = model.pop();
                prop_assert_eq!(got, want);
                if got.is_none() { break; }
            }
        }
    }
}
