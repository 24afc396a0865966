//! A remote costs the live runtime nothing — measured, with a
//! byte-counting allocator (the `tests/endpoint_heap.rs` pattern).
//!
//! An internet-facing daemon hears from an unbounded number of source
//! addresses, and each becomes a remote id. The runtime must keep nothing
//! per id: no table entry (so its heap does not grow) and no structure
//! whose cost depends on how many ids exist (so the hundred-thousandth
//! peer's first datagram costs what the first peer's did — this runs
//! under the daemon's core lock).
//!
//! The allocator wraps `System` in this test binary only; the counter is
//! thread-local, so the harness's other threads do not show up in it.

use moqdns_netsim::{Addr, Ctx, LiveRuntime, Node, OutboundDatagram, Payload, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct ByteCounting;

fn account(delta: isize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down, when the counter is no longer there to update.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for ByteCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as isize);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: ByteCounting = ByteCounting;

/// Echoes every datagram back to its sender; owns no heap.
struct Echo;

impl Node for Echo {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, to_port: u16, payload: Payload) {
        ctx.send(to_port, from, payload);
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

#[test]
fn a_remote_costs_the_runtime_nothing() {
    const REMOTES: usize = 100_000;
    const BATCH: usize = 10_000;

    let mut live = LiveRuntime::new(1);
    let echo = Addr::new(live.add_node("echo", Box::new(Echo)), 7);
    let payload = Payload::new(vec![0xEE; 100]);
    let mut out: Vec<OutboundDatagram> = Vec::new();
    let mut now = SimTime::from_millis(1);
    live.run_until(now); // on_start

    // A never-seen peer's first datagram and the reply to it: register,
    // inject, run, drain — what the io driver does for an unknown source.
    let mut first_contact = |live: &mut LiveRuntime, out: &mut Vec<OutboundDatagram>| {
        let remote = Addr::new(live.add_remote(), 7);
        now += Duration::from_micros(10);
        live.inject(remote, echo, payload.clone());
        assert_eq!(live.run_until(now), 1);
        out.clear();
        assert_eq!(live.take_outbound_into(out), 1);
        assert_eq!(out[0].to, remote);
    };

    // One peer first: the runtime's buffers reach their size.
    first_contact(&mut live, &mut out);
    out.clear();

    let heap_before = LIVE.with(Cell::get);
    let mut batch_ns = Vec::new();
    for _ in 0..REMOTES / BATCH {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            first_contact(&mut live, &mut out);
        }
        batch_ns.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    out.clear();
    let grew = LIVE.with(Cell::get) - heap_before;

    println!(
        "{REMOTES} remotes: runtime heap grew {grew} B ({:.3} B per remote); \
         first contact {:.0} ns in the first {BATCH}, {:.0} ns in the last",
        grew as f64 / REMOTES as f64,
        batch_ns[0],
        batch_ns[batch_ns.len() - 1],
    );
    assert!(
        grew <= 16 * REMOTES as isize,
        "the runtime keeps state per remote: {grew} B for {REMOTES}"
    );
    // Per-remote tables that are searched or shifted make late peers
    // dearer than early ones; taking the cheapest late batch keeps a
    // scheduler hiccup from reading as that.
    let late = batch_ns[batch_ns.len() / 2..]
        .iter()
        .fold(f64::MAX, |a, &b| a.min(b));
    assert!(
        late <= 2.0 * batch_ns[0],
        "first contact got dearer with the number of remotes: {batch_ns:?}"
    );
}
