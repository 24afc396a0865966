//! A small free-list of byte buffers for hot encode paths, and the one
//! instance of it each thread shares.
//!
//! Every encode in the protocol crates — a QUIC datagram in
//! `poll_transmit`, a MoQT control message, a subgroup or fetch stream —
//! fills a buffer, copies the bytes out (into a stream's send buffer or a
//! shared [`crate::Payload`]) and is done with it before the call
//! returns. Such a buffer belongs to the *thread* doing the encoding, not
//! to the peer being encoded for: [`with_scratch`] lends one from a
//! thread-local [`BufPool`], so a relay worker serving 30,000 connections
//! holds a handful of buffers, not three per connection. Nothing in
//! `Connection` or `Session` owns a pool.
//!
//! [`with_scratch`] takes the buffer in one short borrow of the
//! thread-local and returns it in another, holding no borrow while the
//! caller's closure runs. The closure may therefore encode again — a
//! control message needs a body buffer and a framing buffer, and writing
//! it calls into the connection — without the inner call finding the pool
//! already borrowed.
//!
//! `take` hands out a cleared buffer with its previous allocation
//! intact; `recycle` returns it. Buffers that grew beyond
//! [`BufPool::MAX_RETAINED_CAP`] are dropped instead of retained so one
//! jumbo message cannot pin memory forever. A [`BufPool`] value of your
//! own is still the right tool for a loop that owns its buffers (the
//! pool is deliberately not synchronized).

use crate::buf::Writer;
use std::cell::RefCell;

thread_local! {
    static SCRATCH: RefCell<BufPool> = const { RefCell::new(BufPool::new(8, 2048)) };
}

/// Runs `f` with a cleared [`Writer`] from this thread's scratch pool and
/// recycles the buffer afterwards. Re-entrant: the pool is borrowed only
/// to take and to return the buffer, never while `f` runs.
pub fn with_scratch<R>(f: impl FnOnce(&mut Writer) -> R) -> R {
    let mut w = SCRATCH.with(|p| p.borrow_mut().writer());
    let r = f(&mut w);
    SCRATCH.with(|p| p.borrow_mut().recycle_writer(w));
    r
}

/// Buffers this thread's scratch pool holds right now. It is bounded by
/// the pool's size whatever the number of connections — the figure the
/// per-endpoint heap budget test pins.
pub fn scratch_retained() -> usize {
    SCRATCH.with(|p| p.borrow().retained())
}

/// A bounded stack of reusable byte buffers.
#[derive(Debug)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
    max_buffers: usize,
    default_capacity: usize,
}

impl BufPool {
    /// Buffers that grew beyond this capacity are not retained.
    pub const MAX_RETAINED_CAP: usize = 64 * 1024;

    /// Creates a pool retaining at most `max_buffers` buffers, each
    /// starting at `default_capacity` bytes.
    pub const fn new(max_buffers: usize, default_capacity: usize) -> BufPool {
        BufPool {
            free: Vec::new(),
            max_buffers,
            default_capacity,
        }
    }

    /// Takes a cleared buffer (recycled allocation when available).
    pub fn take(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(mut b) => {
                b.clear();
                b
            }
            None => Vec::with_capacity(self.default_capacity),
        }
    }

    /// Takes a [`Writer`] over a recycled buffer.
    pub fn writer(&mut self) -> Writer {
        Writer::reuse(self.take())
    }

    /// Returns a buffer to the pool (dropped when full or oversized).
    pub fn recycle(&mut self, buf: Vec<u8>) {
        if self.free.len() < self.max_buffers && buf.capacity() <= Self::MAX_RETAINED_CAP {
            self.free.push(buf);
        }
    }

    /// Returns a writer's buffer to the pool.
    pub fn recycle_writer(&mut self, w: Writer) {
        self.recycle(w.into_vec());
    }

    /// Number of buffers currently retained.
    pub fn retained(&self) -> usize {
        self.free.len()
    }
}

impl Default for BufPool {
    fn default() -> BufPool {
        BufPool::new(8, 2048)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_allocations() {
        let mut pool = BufPool::new(2, 64);
        let mut a = pool.take();
        a.extend_from_slice(&[1; 100]);
        let cap = a.capacity();
        let ptr = a.as_ptr() as usize;
        pool.recycle(a);
        let b = pool.take();
        assert!(b.is_empty(), "recycled buffers are cleared");
        assert_eq!(b.capacity(), cap);
        assert_eq!(b.as_ptr() as usize, ptr, "same allocation handed back");
    }

    #[test]
    fn bounded_retention() {
        let mut pool = BufPool::new(1, 16);
        pool.recycle(vec![0; 8]);
        pool.recycle(vec![0; 8]);
        assert_eq!(pool.retained(), 1, "pool keeps at most max_buffers");
        pool.recycle(Vec::with_capacity(BufPool::MAX_RETAINED_CAP + 1));
        assert_eq!(pool.retained(), 1, "oversized buffers are dropped");
    }

    #[test]
    fn scratch_is_reentrant_and_bounded() {
        // Nested use (a control message's body + framing buffers) takes
        // two buffers; both come back, and the allocation is reused.
        let outer_ptr = with_scratch(|outer| {
            outer.put_u32(1);
            with_scratch(|inner| {
                inner.put_u32(2);
                assert_eq!(inner.len(), 4);
            });
            assert_eq!(outer.as_slice(), &[0, 0, 0, 1]);
            outer.as_slice().as_ptr() as usize
        });
        assert_eq!(scratch_retained(), 2);
        with_scratch(|w| {
            assert!(w.is_empty(), "recycled buffers are cleared");
            w.put_u8(0);
            assert_eq!(w.as_slice().as_ptr() as usize, outer_ptr);
        });
        // Sixteen deep leaves the pool at its bound, not at sixteen.
        fn nest(depth: usize) {
            if depth > 0 {
                with_scratch(|_| nest(depth - 1));
            }
        }
        nest(16);
        assert_eq!(scratch_retained(), 8);
    }

    #[test]
    fn writer_roundtrip() {
        let mut pool = BufPool::new(4, 32);
        let mut w = pool.writer();
        w.put_u32(0xAABB_CCDD);
        assert_eq!(w.len(), 4);
        pool.recycle_writer(w);
        let w2 = pool.writer();
        assert!(w2.is_empty());
        assert!(w2.capacity() >= 32);
    }
}
