//! The capacity rule for per-endpoint event queues.
//!
//! A connection and the session above it each queue events for their
//! driver, which drains them before it returns. A `VecDeque` never gives
//! capacity back by itself, so one 512-stream burst on an uplink would
//! pin a thousand slots for the connection's lifetime. [`pop_front`] is
//! `VecDeque::pop_front` plus the rule that bounds that.

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
}
