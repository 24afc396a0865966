//! The two capacity rules for per-endpoint queues, sets and byte buffers.
//!
//! **Storage a turn fills and empties is lent from the thread.** A
//! connection's event queue, the endpoint's queue of events for the
//! application, the set of streams a connection has announced readable,
//! a connection's table of peer-opened unidirectional streams (a
//! [`VecMap`]: a one-shot stream arrives, is read to its end and released
//! in the turn that delivered it): each is filled while the stack ingests
//! for one connection and emptied before the turn ends, so between turns
//! it holds nothing — yet a `VecDeque` that a join burst grew would sit
//! at its high-water mark on every idle endpoint for the days a
//! subscription is held. Such storage belongs to the *thread*, like the
//! encode buffers of [`crate::pool`]: [`borrow`] takes the thread's warm
//! spare when the holder has something to store and holds nothing,
//! [`give_back`] hands it back the moment the holder is drained. Whatever
//! is not drained stays where it is, in order; only an emptied holder
//! gives its storage up, so nothing a caller could observe changes.
//!
//! A connection's table of its *own* unidirectional streams is lent the
//! same way, over a longer span: a stream joins it when the application
//! opens it and leaves when the peer has acknowledged all of it, so the
//! table gives its storage to the thread when the last ACK of what was in
//! flight drains it — every pushed object is then storage for a round
//! trip, not for the days a subscription is held.
//!
//! **Storage a burst grew goes back when drained past the floor.** A
//! queue that stays with its owner across turns — a session's events, a
//! stream's retransmit list — or a byte buffer consumed from the front —
//! a stream's unacknowledged bytes, a session's undecoded control bytes —
//! never gives capacity back by itself, so one 512-stream burst on an
//! uplink would pin a thousand slots for the connection's lifetime.
//! [`pop_front`] is `VecDeque::pop_front` plus the rule that bounds that;
//! [`drain_front`] is `Vec::drain(..n)` plus the same rule.
//!
//! One floor each ([`KEEP`] slots, [`KEEP_BYTES`] bytes), and neither is
//! a setting: storage at or under the floor is kept, because giving it
//! back would cost every warm endpoint an allocation per exchange to
//! save an idle one about a hundred bytes; anything above it was a
//! burst's and goes back the moment the drain leaves nothing to hold.

use crate::{VecMap, VecSet};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::thread::LocalKey;

/// Capacity a drained queue keeps. Enough that bursts of up to eight
/// streams (an opened and a readable event each) never reallocate on a
/// warm connection; giving back less than this would cost an allocation
/// per burst on every connection to save a few hundred bytes on idle
/// ones.
pub const KEEP: usize = 16;

/// Pops the next event. A queue that a burst grew past [`KEEP`] slots
/// releases its storage when this pop leaves it empty.
pub fn pop_front<T>(queue: &mut VecDeque<T>) -> Option<T> {
    let item = queue.pop_front();
    if queue.is_empty() && queue.capacity() > KEEP {
        *queue = VecDeque::new();
    }
    item
}

/// Capacity a drained byte buffer keeps. A control message of the
/// steady state — a FETCH, its FETCH_OK, a SUBSCRIBE_UPDATE — fits, so a
/// warm connection exchanging them never reallocates.
pub const KEEP_BYTES: usize = 128;

/// Consumes the first `n` bytes (all of them if there are fewer). A
/// buffer that a burst grew past [`KEEP_BYTES`] releases its storage
/// when this leaves it empty.
pub fn drain_front(buf: &mut Vec<u8>, n: usize) {
    buf.drain(..n.min(buf.len()));
    if buf.is_empty() && buf.capacity() > KEEP_BYTES {
        *buf = Vec::new();
    }
}

/// Storage a thread can lend: a collection that is empty between the
/// calls that fill and drain it (see the module docs).
pub trait Lent: Default {
    /// Bytes of backing storage held (capacity, not length).
    fn held(&self) -> usize;
    /// True if it holds no items.
    fn is_empty(&self) -> bool;
}

impl<T> Lent for VecDeque<T> {
    fn held(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
    fn is_empty(&self) -> bool {
        VecDeque::is_empty(self)
    }
}

impl<K> Lent for VecSet<K> {
    fn held(&self) -> usize {
        self.heap_bytes()
    }
    fn is_empty(&self) -> bool {
        VecSet::is_empty(self)
    }
}

impl<K, V> Lent for VecMap<K, V> {
    fn held(&self) -> usize {
        self.heap_bytes()
    }
    fn is_empty(&self) -> bool {
        VecMap::is_empty(self)
    }
}

/// Gives `holder` the thread's spare storage if it holds none of its
/// own. Call before storing into it.
pub fn borrow<C: Lent>(spare: &'static LocalKey<RefCell<C>>, holder: &mut C) {
    if holder.held() == 0 {
        *holder = spare.take();
    }
}

/// Hands a drained `holder`'s storage back to the thread, which keeps
/// the larger of it and the spare it has; `holder` then holds nothing.
/// A holder that still holds items keeps them and their storage.
pub fn give_back<C: Lent>(spare: &'static LocalKey<RefCell<C>>, holder: &mut C) {
    if holder.is_empty() && holder.held() > 0 {
        let drained = std::mem::take(holder);
        spare.with_borrow_mut(|kept| {
            if drained.held() > kept.held() {
                *kept = drained;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bursts_keep_their_capacity_large_ones_release_it() {
        let mut q: VecDeque<u64> = VecDeque::new();
        q.extend(0..KEEP as u64);
        let warm = q.capacity();
        assert!(warm <= KEEP);
        assert_eq!(pop_front(&mut q), Some(0), "first in, first out");
        while pop_front(&mut q).is_some() {}
        assert_eq!(q.capacity(), warm, "a small burst's storage is kept");

        q.extend(0..1024);
        assert!(q.capacity() >= 1024);
        let mut drained = 0;
        while pop_front(&mut q).is_some() {
            drained += 1;
        }
        assert_eq!(drained, 1024);
        assert_eq!(q.capacity(), 0, "a large burst's storage is given back");
    }

    #[test]
    fn a_drained_byte_buffer_keeps_a_small_capacity_and_releases_a_burst() {
        let mut b = Vec::new();
        b.extend_from_slice(&[7u8; KEEP_BYTES]);
        let warm = b.capacity();
        assert!(warm <= KEEP_BYTES);
        drain_front(&mut b, 100);
        assert_eq!(b, [7u8; KEEP_BYTES - 100], "the front goes, the rest stays");
        drain_front(&mut b, usize::MAX);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), warm, "a small buffer's storage is kept");

        b.extend_from_slice(&[7u8; 2048]);
        drain_front(&mut b, 2047);
        assert!(b.capacity() >= 2048, "not empty yet: nothing is given back");
        drain_front(&mut b, 1);
        assert_eq!(b.capacity(), 0, "a burst's storage is given back");
    }

    thread_local! {
        static SPARE: RefCell<VecDeque<u64>> = const { RefCell::new(VecDeque::new()) };
    }

    /// Fills `q` with `n` items from the thread's spare, as a holder does.
    fn fill(q: &mut VecDeque<u64>, n: u64) {
        for i in 0..n {
            borrow(&SPARE, q);
            q.push_back(i);
        }
    }

    #[test]
    fn lent_storage_goes_back_to_the_thread_only_once_drained() {
        let (mut a, mut b) = (VecDeque::new(), VecDeque::new());
        fill(&mut a, 100);
        let grown = a.capacity();
        // `b` fills while `a` holds the thread's storage: it gets its own.
        fill(&mut b, 3);
        assert!(b.capacity() < grown);
        give_back(&SPARE, &mut a);
        assert_eq!(a.capacity(), grown, "a holder with items keeps them");
        a.clear();
        give_back(&SPARE, &mut a);
        b.clear();
        give_back(&SPARE, &mut b);
        assert_eq!(
            (a.capacity(), b.capacity()),
            (0, 0),
            "drained holders hold nothing"
        );
        assert_eq!(
            SPARE.with_borrow(VecDeque::capacity),
            grown,
            "the larger stays"
        );
        // The next burst of that size, on either holder, grows nothing.
        fill(&mut b, 100);
        assert_eq!(b.capacity(), grown);
        assert_eq!(SPARE.with_borrow(VecDeque::capacity), 0, "it is lent out");
        assert!(b.iter().copied().eq(0..100), "first in, first out");
    }
}
