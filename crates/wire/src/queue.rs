//! The capacity rule for per-endpoint queues and byte buffers.
//!
//! A connection and the session above it each queue events for their
//! driver, which drains them before it returns. A `VecDeque` never gives
//! capacity back by itself, so one 512-stream burst on an uplink would
//! pin a thousand slots for the connection's lifetime. [`pop_front`] is
//! `VecDeque::pop_front` plus the rule that bounds that.
//!
//! The same holds for the byte buffers that are consumed from the front —
//! a stream's unacknowledged bytes, a session's undecoded control bytes:
//! a `Vec<u8>` that a join burst grew to two kilobytes keeps them for the
//! days the subscription is then held. [`drain_front`] is
//! `Vec::drain(..n)` plus the same rule.
//!
//! One floor each ([`KEEP`] slots, [`KEEP_BYTES`] bytes), and neither is
//! a setting: storage at or under the floor is kept, because giving it
//! back would cost every warm endpoint an allocation per exchange to
//! save an idle one about a hundred bytes; anything above it was a
//! burst's and goes back the moment the drain leaves nothing to hold.

use std::collections::VecDeque;

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
}
