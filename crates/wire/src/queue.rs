//! The capacity rules for per-endpoint queues, sets and byte buffers.
//!
//! **Storage a turn fills and empties is lent from the thread.** The
//! endpoint's queue of events for the application is filled while the
//! stack ingests for one connection and emptied before the turn ends, so
//! between turns it holds nothing — yet a `VecDeque` that a join burst
//! grew would sit at its high-water mark on an idle endpoint for the
//! days a subscription is held. Such storage belongs to the *thread*,
//! like the encode buffers of [`crate::pool`]: [`borrow`] takes the
//! thread's warm spare when the holder has something to store and holds
//! nothing, [`give_back`] hands it back the moment the holder is
//! drained. Whatever is not drained stays where it is, in order; only an
//! emptied holder gives its storage up, so nothing a caller could
//! observe changes.
//!
//! **Storage that holds only what is in flight or queued is one record
//! per holder, pooled.** A connection's packet ledger holds the
//! ack-eliciting packets not yet acknowledged; its table of its *own*
//! unidirectional streams holds a stream from the moment the application
//! opens it until the peer has acknowledged all of it, its table of the
//! peer's from the frame that opens one to the read that reaches its end;
//! its queues of datagrams and events, its sets of streams to send and
//! announced readable, a session's undecoded control bytes, its fetches
//! and data streams in progress, its held-back requests and its stall
//! queue: each holds what one exchange has not finished with. Lent one by
//! one, each would still leave its empty header in every held holder —
//! 264 B of a connection, 160 B of a session — for the days a
//! subscription is held. So a holder keeps all of them in one [`Record`]
//! behind one `Option<Box<_>>` (declared with
//! [`record!`](crate::record)): [`held`] gives it one — a spare of the
//! thread's if there is one — when it first has something in flight or
//! queued, and [`settle`] hands it back at the end of the call that left
//! it holding nothing. A held holder is then its counters
//! and one null pointer. While several holders are in flight at once — a
//! relay's fan-out writes to every subscriber in one turn — each takes a
//! record, so the thread keeps up to [`SPARE_RECORDS`] of them, each with
//! the storage its containers grew up to the floors below: the next
//! fan-out finds them warm. A client's exchanges and a server's grow
//! different containers — one side reads what the other writes — so each
//! side's records go back to spares of their own ([`Spares`]): a record
//! returns to a holder that needs what it grew, and a server in flight
//! does not carry a client's receive tables.
//!
//! The same rule holds for what fills and drains within one turn: a QUIC
//! endpoint's queues of accepted connections not yet reported, of events
//! for the application and of closed connections to reap are one record
//! (`quic::endpoint`'s `Queued`), taken by the call that stores the first
//! entry and handed back by the call that drains the last. Every stub
//! holds an endpoint between turns, so each would otherwise keep the
//! three empty headers — 88 bytes — for as long as it stays subscribed.
//!
//! A record is held for as long as anything in it waits — a push, for its
//! ACK — so it holds only that, at its size. Its containers that almost
//! never fill — a connection's datagram queue, its close frame, stream
//! credit owed, streams released out of order — are a record of their
//! own behind one pointer in it (a connection's record is 160 B with that
//! pointer, not 264 B); a container its holder's driver drains in the
//! call that filled it — a connection's event queue — is lent from the
//! thread ([`borrow`], [`give_back`]), so a record waiting on the peer
//! keeps none of its storage.
//!
//! A bidirectional stream — the control stream — follows the same rule
//! with a record of its own. Each half lives from the write or frame that
//! gives it something to hold until all it sent is acknowledged, or all
//! it received is read; at rest the stream is its offsets, kept outside
//! any record. Its halves, and the buffers the last send half to rest
//! left, are a second record of the connection: a relay's fan-out takes
//! an in-flight record per subscriber, and with the halves in it each
//! would carry a control exchange's warm storage along — 56 B more per
//! push in flight.
//!
//! **Storage a burst grew goes back when drained past the floor.** A
//! queue a holder may keep filled across turns — a session's events and
//! its queue of streams waiting for credit — or a byte buffer consumed
//! from the front — a stream's unacknowledged bytes — never gives
//! capacity back by itself, so one 512-stream burst on an uplink would
//! pin a thousand slots for the connection's lifetime. [`pop_front`] is `VecDeque::pop_front` plus the
//! rule that bounds that; [`drain_front`] is `Vec::drain(..n)` plus the
//! same rule.
//!
//! One floor each ([`KEEP`] slots, [`KEEP_BYTES`] bytes), and neither is
//! a setting: storage at or under the floor is kept, because giving it
//! back would cost every warm holder an allocation per exchange to save
//! an idle one about a hundred bytes; anything above it was a burst's and
//! goes back the moment the drain leaves nothing to hold. (A stream's
//! ranges to send need no floor: the first is inline in `quic::streams`,
//! and the ones losses queue behind it go back as soon as they are
//! sent.) Lent storage and a settled record's containers ([`trim`]) pass
//! the same floor before they go back, so the thread's spares are never
//! a burst's either.

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
/// warm holder exchanging them, or the thread's spare a lent one goes
/// back to, never reallocates.
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
    /// The empty value, for a `static`.
    const EMPTY: Self;
    /// Bytes of backing storage held (capacity, not length).
    fn held(&self) -> usize;
    /// Items the backing storage has room for.
    fn slots(&self) -> usize;
    /// True if it holds no items.
    fn is_empty(&self) -> bool;
}

impl<T> Lent for VecDeque<T> {
    const EMPTY: Self = VecDeque::new();
    fn held(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
    fn slots(&self) -> usize {
        self.capacity()
    }
    fn is_empty(&self) -> bool {
        VecDeque::is_empty(self)
    }
}

impl<T> Lent for Vec<T> {
    const EMPTY: Self = Vec::new();
    fn held(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
    fn slots(&self) -> usize {
        self.capacity()
    }
    fn is_empty(&self) -> bool {
        Vec::is_empty(self)
    }
}

impl<K> Lent for VecSet<K> {
    const EMPTY: Self = VecSet::new();
    fn held(&self) -> usize {
        self.heap_bytes()
    }
    fn slots(&self) -> usize {
        self.heap_bytes() / std::mem::size_of::<K>().max(1)
    }
    fn is_empty(&self) -> bool {
        VecSet::is_empty(self)
    }
}

impl<K, V> Lent for VecMap<K, V> {
    const EMPTY: Self = VecMap::new();
    fn held(&self) -> usize {
        self.heap_bytes()
    }
    fn slots(&self) -> usize {
        self.heap_bytes() / std::mem::size_of::<(K, V)>().max(1)
    }
    fn is_empty(&self) -> bool {
        VecMap::is_empty(self)
    }
}

/// A value held until it is taken: empty when `None`, and never trimmed.
impl<T> Lent for Option<T> {
    const EMPTY: Self = None;
    fn held(&self) -> usize {
        0
    }
    fn slots(&self) -> usize {
        0
    }
    fn is_empty(&self) -> bool {
        self.is_none()
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

/// Gives `holder`'s storage up if it holds nothing and a burst grew it
/// past both floors: [`KEEP`] slots and [`KEEP_BYTES`] bytes (the first
/// is the one that binds for anything but a byte buffer).
pub fn trim<C: Lent>(holder: &mut C) {
    if holder.is_empty() && holder.slots() > KEEP && holder.held() > KEEP_BYTES {
        *holder = C::default();
    }
}

/// What a holder keeps only while something is in flight or queued: the
/// containers of one exchange, in one box (see the module docs). Declare
/// one with [`record!`](crate::record).
pub trait Record: Default {
    /// True if every container is empty.
    fn is_idle(&self) -> bool;
    /// Gives up the storage a burst grew past the floors ([`trim`]).
    fn trim(&mut self);
    /// Bytes of the containers' own storage ([`Lent::held`]), not of
    /// what their items own.
    fn storage(&self) -> usize;
}

/// Declares a [`Record`]: a struct whose fields are all [`Lent`], the
/// [`Record`] impl over every field — so no container can be left out of
/// `is_idle` or `trim` — and the thread's [`Spares`] of it, reached
/// through associated functions of the struct: `of` (a slot's record,
/// or an empty one), `bytes` (what a slot holds), `held` ([`held`]),
/// `settle` ([`settle`]) and `spares` ([`spare_count`]).
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident : $ty:ty, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Default)]
        struct $name { $( $(#[$fmeta])* $field: $ty, )* }

        impl $crate::queue::Record for $name {
            fn is_idle(&self) -> bool {
                true $( && $crate::queue::Lent::is_empty(&self.$field) )*
            }
            fn trim(&mut self) {
                $( $crate::queue::trim(&mut self.$field); )*
            }
            fn storage(&self) -> usize {
                0 $( + $crate::queue::Lent::held(&self.$field) )*
            }
        }

        #[allow(dead_code)]
        impl $name {
            /// The thread's spares.
            fn pool() -> &'static ::std::thread::LocalKey<$crate::queue::Spares<$name>> {
                ::std::thread_local! {
                    static SPARES: $crate::queue::Spares<$name> =
                        const { $crate::queue::Spares::new() };
                }
                &SPARES
            }
            /// `slot`'s record, or an empty one if it holds none.
            fn of(slot: &Option<Box<$name>>) -> &$name {
                static EMPTY: $name = $name { $( $field: <$ty as $crate::queue::Lent>::EMPTY, )* };
                slot.as_deref().unwrap_or(&EMPTY)
            }
            /// Bytes of `slot`'s record and its containers' storage, if it
            /// holds one.
            fn bytes(slot: &Option<Box<$name>>) -> usize {
                slot.as_deref().map_or(0, |r| {
                    ::std::mem::size_of::<$name>() + $crate::queue::Record::storage(r)
                })
            }
            /// `slot`'s record, a client's (or a server's) spare if it
            /// holds none: call before storing into it.
            fn held(slot: &mut Option<Box<$name>>, client: bool) -> &mut $name {
                $crate::queue::held(Self::pool(), client, slot)
            }
            /// Hands `slot`'s record back to the thread if it holds
            /// nothing: the last step of a call that can empty it.
            fn settle(slot: &mut Option<Box<$name>>, client: bool) {
                $crate::queue::settle(Self::pool(), client, slot)
            }
            /// The records the thread keeps for clients' (or servers')
            /// holders.
            fn spares(client: bool) -> usize {
                $crate::queue::spare_count(Self::pool(), client)
            }
        }
    };
}

/// How many records a thread keeps for the next holders of each kind:
/// more than the subscribers a fan-out turn writes to in the benchmarks
/// (64, 256), few enough that the spares are a rounding error beside the
/// endpoints.
pub const SPARE_RECORDS: usize = 256;

/// A thread's free lists of records, one for clients' and one for
/// servers' (see the module docs).
pub struct Spares<R> {
    client: RefCell<Vec<Box<R>>>,
    server: RefCell<Vec<Box<R>>>,
}

impl<R> Spares<R> {
    /// No spares.
    pub const fn new() -> Spares<R> {
        Spares {
            client: RefCell::new(Vec::new()),
            server: RefCell::new(Vec::new()),
        }
    }

    /// The list for a client's holders, or a server's.
    pub fn of(&self, client: bool) -> &RefCell<Vec<Box<R>>> {
        if client {
            &self.client
        } else {
            &self.server
        }
    }
}

impl<R> Default for Spares<R> {
    fn default() -> Spares<R> {
        Spares::new()
    }
}

/// `slot`'s record: a spare of its kind — or a new one — if it holds
/// none.
pub fn held<'a, R: Record>(
    spares: &'static LocalKey<Spares<R>>,
    client: bool,
    slot: &'a mut Option<Box<R>>,
) -> &'a mut R {
    slot.get_or_insert_with(|| {
        let spare = spares.with(|s| s.of(client).borrow_mut().pop());
        spare.unwrap_or_default()
    })
}

/// Hands `slot`'s record back to the thread, to its kind's spares, if it
/// holds nothing, its containers trimmed to the floors; past
/// [`SPARE_RECORDS`] spares it is dropped. `slot` then holds none.
pub fn settle<R: Record>(
    spares: &'static LocalKey<Spares<R>>,
    client: bool,
    slot: &mut Option<Box<R>>,
) {
    let Some(mut record) = slot.take_if(|r| r.is_idle()) else {
        return;
    };
    record.trim();
    let extra = spares.with(|s| {
        let mut kept = s.of(client).borrow_mut();
        if kept.len() < SPARE_RECORDS {
            kept.push(record);
            None
        } else {
            Some(record)
        }
    });
    drop(extra);
}

/// How many records the thread keeps now for holders of a kind.
pub fn spare_count<R>(spares: &'static LocalKey<Spares<R>>, client: bool) -> usize {
    spares.with(|s| s.of(client).borrow().len())
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

    crate::record! {
        struct Exchange {
            queue: VecDeque<u64>,
            bytes: Vec<u8>,
        }
    }

    #[test]
    fn a_record_goes_back_warm_once_idle_and_the_spares_are_capped() {
        let mut holders: Vec<Option<Box<Exchange>>> = Vec::new();
        holders.resize_with(SPARE_RECORDS + 8, || None);
        // A fan-out: every holder in flight at once.
        for slot in &mut holders {
            let r = Exchange::held(slot, true);
            r.queue.extend(0..4);
            r.bytes.extend_from_slice(&[1; 2 * KEEP_BYTES]);
            Exchange::settle(slot, true);
            assert!(slot.is_some(), "a record in use stays");
        }
        assert_eq!(Exchange::spares(true), 0);
        for slot in &mut holders {
            let r = slot.as_deref_mut().unwrap();
            r.queue.clear();
            r.bytes.clear();
            Exchange::settle(slot, true);
            assert!(slot.is_none(), "an idle holder holds no record");
        }
        assert_eq!(
            Exchange::spares(true),
            SPARE_RECORDS,
            "the rest were dropped"
        );
        // The next fan-out finds them warm below the floor, trimmed above.
        assert!(Exchange::of(&None).is_idle());
        let r = Exchange::held(&mut holders[0], true);
        assert!(r.queue.capacity() >= 4);
        assert_eq!(r.bytes.capacity(), 0, "a burst's bytes went back");
        assert_eq!(Exchange::spares(true), SPARE_RECORDS - 1);
        // A server's holder takes from spares of its own: none yet.
        let mut server = None;
        assert_eq!(Exchange::held(&mut server, false).queue.capacity(), 0);
        assert_eq!(Exchange::spares(true), SPARE_RECORDS - 1);
    }
}
