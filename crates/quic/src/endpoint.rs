//! Endpoint: connection demultiplexing, server accept, ticket store.
//!
//! An [`Endpoint`] owns many [`Connection`]s and routes datagrams to them by
//! connection id. It is generic over the peer-address type `P` so the same
//! code runs over `moqdns-netsim` addresses ([`moqdns_netsim::Addr`]) and
//! real `std::net::SocketAddr`s.
//!
//! # Storage: one slab, two flat indexes
//!
//! Connections live in a **slab**: a `Vec` of boxed slots, so a slot never
//! moves and growing the table copies pointers, not connections. A slot
//! carries the connection and everything the endpoint keeps *about* it —
//! peer address, the timer deadline it is indexed under (`SimTime::MAX`
//! for none: a deadline at the end of time never fires), whether it is
//! queued for transmit — so one lookup reaches all of it. Nothing is
//! sized ahead: an endpoint that never connected holds no table, a stub's
//! holds one slot.
//!
//! The [`TransportConfig`] is one shared handle, not a copy per
//! connection — and not a copy per endpoint either: the thread keeps one
//! block per distinct config for its whole life, as it keeps its spare
//! records, and an endpoint takes the handle to its config's block when it
//! is made. Ten thousand stubs configured alike share one block, and an
//! endpoint that never connected allocates nothing of its own for it.
//!
//! Beside the slab sit two indexes, both flat (`crate::index`): the
//! inbound demux `cid → slot`, an open-addressed table of four-byte slot
//! numbers under a hash keyed by the endpoint's seed (a server
//! connection's cid is chosen by the *peer*, which can pick both the
//! values and their order); and the timer deadlines, a min-heap of
//! `(deadline, handle)` whose moved entries go stale in place and are
//! dropped when they surface or outnumber half the current ones. The
//! demux is only probed, never walked, and the heap pops exactly the
//! order an ordered set would, so neither moves a replay. A stub's one
//! connection is a 16-byte table and one heap entry, where the B-trees
//! these replaced held a 144-byte and a 192-byte leaf. The transmit queue
//! is a min-heap of dirty handles, sized for what it holds: a stub's
//! queues its one connection in an 8-byte block, not the four slots a
//! first push reserves. (It is not lent from the thread like the event
//! queue below: it fills during an instant and drains at its flush, so
//! every endpoint that takes a datagram in one instant would need a
//! block of its own at once.)
//!
//! # What the application keeps per connection
//!
//! An `Endpoint<P, A>` keeps one application value `A` in each slot, beside
//! the connection — `moqdns_core`'s stack keeps a connection's MoQT
//! session there. A held connection and what rides on it are then one
//! allocation, reached by one lookup that already checked the handle's
//! generation: [`Endpoint::app`], [`Endpoint::app_mut`], and
//! [`Endpoint::app_conn_mut`] for the two at once. A new slot starts at
//! `A::default()`. The value leaves with its slot, and every way a slot
//! is vacated hands it back to the owner — [`Endpoint::abandon`] returns
//! it, [`Endpoint::reap_closed`] passes each to the owner's closure — so
//! nothing it counted is lost with it. The default `A = ()` is an endpoint
//! that keeps nothing beside its connections.
//!
//! A [`ConnHandle`] is the **slot index** (low 32 bits) plus the slot's
//! **generation** (high 32 bits). Vacated slots are reused last-freed
//! first — a pure function of the endpoint's own history, so runs replay —
//! and every reuse bumps the generation: a handle kept across a close
//! resolves to `None`, never to the connection that took the slot later.
//!
//! # What an endpoint holds only within a turn, or now and then
//!
//! Three queues fill and drain in one turn of the driver: the accepted
//! connections not yet reported (`poll_incoming`), the events for the
//! application (`poll_event`) and the closed connections awaiting
//! `reap_closed`. Between turns all three are empty by construction, yet
//! their headers alone were 88 bytes of every held endpoint. So they are
//! one record behind one pointer (`moqdns_wire::record!`, the
//! `moqdns_wire::queue` module docs): taken — a spare of the thread's if
//! there is one — when the first of them has something to hold, and
//! handed back by the call that drains the last. The event queue's
//! storage inside it is lent from the thread on its own
//! (`moqdns_wire::queue::{borrow, give_back}`), like the encode buffers of
//! `moqdns_wire::pool`, so a join burst's storage is the thread's and not
//! a spare record's; a connection's event queue is in its in-flight
//! record, handed back the same way. A queue nobody drained keeps its
//! entries, in order, and the storage under them.
//!
//! What an endpoint rarely holds — the handles of vacated slots, the
//! ALPNs a server accepts, the counts of what its peers got wrong
//! ([`Faults`]: a connection closed over a [`TransportError`], a datagram
//! dropped for a [`DropReason`], each counted by its variant and named
//! after its text, `quic.endpoint.closed.stream_limit_violated`,
//! `quic.endpoint.dropped.malformed_header` — `moqdns_wire::counters`) —
//! is a second box, made by the first of them: a client
//! that never redialed and never met a faulty peer holds none, and one
//! whose vacated slot was taken again gives it back. A stub's endpoint
//! is then its slab, its two indexes, its ticket store, its transmit
//! queue and two null pointers: 168 bytes where the separate queues,
//! counts and a private config copy made it 376.
//!
//! # Tickets
//!
//! The client-side **ticket store** remembers the most recent resumption
//! ticket per (server, ALPN) so later connections can attempt 0-RTT — the
//! second latency optimization of paper §5.2. A dial presents the ticket
//! of the first token it offers that it holds one for, folded for that
//! token (`Ticket::presented`). A server takes the early data only on a
//! ticket it issued itself, presented for the token it selects: it keeps
//! no ticket, but a ticket's nonce is its connection-id generator's
//! position when it was issued, which it can check against where the
//! generator has been (`handshake::Issuer`).

use crate::config::TransportConfig;
use crate::connection::{Alpn, AlpnList, Connection, Event, Ingest, Side, TransportError};
use crate::handshake::{Issuer, Ticket};
use crate::index::{CidTable, Deadlines};
use crate::packet::PacketType;
use moqdns_netsim::{splitmix64, SimTime};
use moqdns_wire::counters::Counts;
use moqdns_wire::{queue, Payload, VecMap};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;

/// One row of [`Endpoint::state_breakdown`]: `(cid, estimate_bytes,
/// send_streams, recv_streams, tracked_packets)`.
pub type ConnStateRow = (u64, usize, usize, usize, usize);

/// Handle identifying a connection within an endpoint: the slot index in
/// the low 32 bits, the slot's generation in the high 32 (see the module
/// docs). Opaque to everyone but the tables indexed by [`ConnHandle::slot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnHandle(pub u64);

impl ConnHandle {
    fn new(slot: u32, generation: u32) -> ConnHandle {
        ConnHandle(u64::from(generation) << 32 | u64::from(slot))
    }

    /// The slab slot this handle names — the index for side tables kept
    /// per connection (compare the stored handle: slots are reused).
    pub fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    /// The handle the slot's next tenant gets, or `None` once the
    /// generation is spent (the slot is then retired, not wrapped).
    fn next_generation(self) -> Option<ConnHandle> {
        let generation = ((self.0 >> 32) as u32).checked_add(1)?;
        Some(ConnHandle::new(self.0 as u32, generation))
    }
}

thread_local! {
    /// The warm storage lent to an endpoint's event queue (see the module
    /// docs).
    static LENT_EVENTS: RefCell<VecDeque<(ConnHandle, Event)>> =
        const { RefCell::new(VecDeque::new()) };
    /// The transport configs this thread's endpoints hand their
    /// connections: one block per distinct config, kept for the thread's
    /// life as the record spares are (see the module docs).
    static CONFIGS: RefCell<Vec<Arc<TransportConfig>>> = const { RefCell::new(Vec::new()) };
}

/// The thread's shared block holding a config equal to `config`, made if
/// there is none.
fn shared_config(config: TransportConfig) -> Arc<TransportConfig> {
    CONFIGS.with_borrow_mut(|held| {
        let equal = held.iter().find(|c| ***c == config).map(Arc::clone);
        equal.unwrap_or_else(|| {
            let shared = Arc::new(config);
            held.push(Arc::clone(&shared));
            shared
        })
    })
}

/// Answers the demux table's "which cid is slot `s`" from the slab.
fn cid_in<P, A>(slots: &[Option<Box<Slot<P, A>>>]) -> impl Fn(u32) -> u64 + '_ {
    |s| {
        let slot = slots[s as usize].as_deref();
        slot.expect("an indexed slot is live").conn.cid()
    }
}

/// Answers the deadline heap's "is `(t, h)` current" from the slab: the
/// slot still holds `h`'s connection, indexed under `t`.
fn current_in<P, A>(
    slots: &[Option<Box<Slot<P, A>>>],
) -> impl Fn(SimTime, ConnHandle) -> bool + '_ {
    |t, h| {
        let slot = slots.get(h.slot()).and_then(|s| s.as_deref());
        slot.is_some_and(|s| s.handle == h && s.deadline == t)
    }
}

/// One slab slot: a connection, what the application keeps with it, and
/// what the endpoint keeps about it.
struct Slot<P, A> {
    handle: ConnHandle,
    conn: Connection,
    /// The application's value for this connection (module docs).
    app: A,
    peer: P,
    /// The deadline this connection is indexed under in `deadlines`, or
    /// `SimTime::MAX` when it is not indexed (module docs).
    deadline: SimTime,
    /// Queued in `dirty`.
    dirty: bool,
}

moqdns_wire::record! {
    /// What an endpoint holds only between the call that fills it and
    /// the one that drains it — in one turn of its driver (module docs).
    struct Queued {
        /// Accepted-but-unreported incoming connections.
        incoming: VecDeque<ConnHandle>,
        /// Pending (handle, event) pairs for the application: storage
        /// lent from the thread while it holds any, so a record another
        /// turn takes keeps none of a burst's.
        events: VecDeque<(ConnHandle, Event)>,
        /// Connections observed `Closed`, awaiting `reap_closed`.
        closed_pending: Vec<ConnHandle>,
    }
}

/// What an endpoint holds only now and then, behind one pointer: a
/// client that never redialed and never met a faulty peer holds none.
#[derive(Default)]
struct Rare {
    /// The handles vacated slots give their next tenants, reused
    /// last-freed first.
    free: Vec<ConnHandle>,
    /// What a server endpoint accepts connections with; `None` for a
    /// client-only endpoint.
    accepting: Option<Accepting>,
    /// What went wrong, counted.
    faults: Faults,
}

impl Rare {
    /// True if it holds nothing a fresh one does not.
    fn is_empty(&self) -> bool {
        self.free.is_empty() && self.accepting.is_none() && self.faults == Faults::default()
    }
}

/// What a server endpoint accepts connections with.
struct Accepting {
    /// The ALPNs it accepts connections for.
    alpn: AlpnList,
    /// Its connection-id generator's first position: where the tickets
    /// it issues start (`handshake::Issuer`).
    first_cid: u64,
}

moqdns_wire::counters! {
    /// An endpoint's count of what its peers got wrong, each by its enum's
    /// variant: `quic.endpoint.closed.flow_control_violation`,
    /// `quic.endpoint.dropped.malformed_header`.
    pub struct Faults {}
    with {
        /// Connections this end closed over what their peer sent, by
        /// [`TransportError`].
        transport_errors: Counts<TransportError, { TransportError::ALL.len() }>,
        /// Datagrams dropped whole, by [`DropReason`].
        drops: Counts<DropReason, { DropReason::ALL.len() }>,
    }
}

moqdns_wire::counted!(TransportError, "quic.endpoint.closed");
moqdns_wire::counted!(DropReason, "quic.endpoint.dropped");

/// Why an [`Endpoint`] dropped a datagram whole: the first three before
/// any connection saw it, the last at the connection it was for. Nothing
/// goes on the wire for it; the endpoint counts each per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The first packet's header does not parse: there is no connection
    /// id to route by.
    MalformedHeader,
    /// The connection id is unknown and this endpoint accepts no
    /// connections: a late packet for one it already reaped, at a client.
    UnknownConnection,
    /// The connection id is unknown and the datagram is not a parseable
    /// Initial: nothing a new connection could start from.
    NotAnInitial,
    /// The connection id is known and the datagram does not decode past
    /// its first header: none of it reaches the connection
    /// ([`Connection::handle_datagram`]).
    MalformedPacket,
}

impl DropReason {
    /// Every variant, in declaration order.
    pub const ALL: [DropReason; 4] = [
        DropReason::MalformedHeader,
        DropReason::UnknownConnection,
        DropReason::NotAnInitial,
        DropReason::MalformedPacket,
    ];

    /// What the drop is, in words.
    pub const fn as_str(self) -> &'static str {
        match self {
            DropReason::MalformedHeader => "malformed header",
            DropReason::UnknownConnection => "unknown connection at an endpoint that accepts none",
            DropReason::NotAnInitial => "unknown connection without an Initial packet",
            DropReason::MalformedPacket => "malformed packet for a known connection",
        }
    }
}

/// What an endpoint keeps beside its slab and indexes: the client ticket
/// store, the queues one turn fills and drains, and what it holds now and
/// then — a struct of its own, so a call can hold a slot of the slab and
/// this at once.
struct Kept<P> {
    /// Client ticket store: (peer, alpn) -> ticket, grown only by this
    /// endpoint's own dials. Keys are shared [`Alpn`] handles — storing
    /// or probing a ticket never copies the protocol string.
    tickets: VecMap<(P, Alpn), Ticket>,
    /// The accept, event and reap queues, while any holds something
    /// (module docs).
    queued: Option<Box<Queued>>,
    /// The free list, what a server accepts with and the fault counts,
    /// while any holds something.
    rare: Option<Box<Rare>>,
}

impl<P: Copy + Ord> Kept<P> {
    /// Moves everything in `slot`'s connection's event queue into the
    /// endpoint's: tickets to the ticket store — a refused one out of it,
    /// before the ticket its handshake issued goes in — closes counted
    /// and queued for reaping.
    fn take_from<A>(&mut self, slot: &mut Slot<P, A>) {
        while let Some(ev) = slot.conn.poll_event() {
            match &ev {
                Event::TicketIssued(t) if slot.conn.side() == Side::Client => {
                    if let Some(alpn) = slot.conn.alpn_handle() {
                        self.tickets.insert((slot.peer, alpn.clone()), t.clone());
                    }
                }
                Event::TicketRefused(token) => {
                    self.tickets.remove(&(slot.peer, token.clone()));
                }
                Event::Closed {
                    error_code,
                    reason,
                    by_peer,
                } => {
                    let raised = TransportError::of_close(*error_code, reason);
                    if let Some(error) = raised.filter(|_| !by_peer) {
                        self.rare().faults.transport_errors[error] += 1;
                    }
                    self.queued().closed_pending.push(slot.handle);
                }
                _ => {}
            }
            let events = &mut self.queued().events;
            queue::borrow(&LENT_EVENTS, events);
            events.push_back((slot.handle, ev));
        }
    }

    /// The queues' record, a spare of the thread's if none is held: call
    /// before storing into it.
    fn queued(&mut self) -> &mut Queued {
        let client = self.accepting().is_none();
        Queued::held(&mut self.queued, client)
    }

    /// Hands the queues' record back to the thread if it holds nothing:
    /// the last step of a call that can empty it.
    fn settle(&mut self) {
        let client = self.accepting().is_none();
        Queued::settle(&mut self.queued, client);
    }

    /// What the endpoint holds now and then, made if it holds none.
    fn rare(&mut self) -> &mut Rare {
        self.rare.get_or_insert_default()
    }

    /// What this endpoint accepts connections with, if it does.
    fn accepting(&self) -> Option<&Accepting> {
        self.rare.as_ref()?.accepting.as_ref()
    }
}

/// A multi-connection QUIC endpoint, keeping an `A` beside each
/// connection (module docs).
pub struct Endpoint<P, A = ()> {
    /// The thread's block for this endpoint's transport config, the
    /// handle every connection holds too (module docs).
    config: Arc<TransportConfig>,
    /// The slab, indexed by [`ConnHandle::slot`]; `None` is a vacated slot.
    slots: Vec<Option<Box<Slot<P, A>>>>,
    /// Inbound demux: connection id -> slot. Exactly the live connections.
    by_cid: CidTable,
    next_cid: u64,
    kept: Kept<P>,
    /// Connections that may have datagrams to send and whose timer
    /// deadline may be stale: every mutating touch (connect, ingest,
    /// timeout, `conn_mut`) queues the handle once (`Slot::dirty`), and
    /// `poll_transmit` pops it once it polls to `None`. A min-heap, so
    /// transmit order is the deterministic lowest-handle-first. A handle
    /// whose connection went away meanwhile resolves to nothing.
    dirty: BinaryHeap<Reverse<ConnHandle>>,
    /// Timer deadlines of non-dirty connections, ordered by time:
    /// `poll_timeout` and `handle_timeout` read the front instead of
    /// scanning all connections.
    deadlines: Deadlines,
}

impl<P: Copy + Eq + Hash + Ord, A: Default> Endpoint<P, A> {
    /// Creates a client-only endpoint.
    pub fn client(config: TransportConfig, cid_seed: u64) -> Endpoint<P, A> {
        Endpoint {
            config: shared_config(config),
            slots: Vec::new(),
            by_cid: CidTable::new(splitmix64(cid_seed)),
            next_cid: cid_seed.wrapping_mul(2_654_435_761).max(1),
            kept: Kept {
                tickets: VecMap::new(),
                queued: None,
                rare: None,
            },
            dirty: BinaryHeap::new(),
            deadlines: Deadlines::new(),
        }
    }

    /// Creates a server endpoint accepting the given ALPNs (it can still
    /// open client connections of its own — resolvers do both).
    pub fn server(config: TransportConfig, alpn: AlpnList, cid_seed: u64) -> Endpoint<P, A> {
        let mut e = Endpoint::client(config, cid_seed);
        let first_cid = e.next_cid;
        e.kept.rare().accepting = Some(Accepting { alpn, first_cid });
        e
    }

    /// Replaces the ALPNs this endpoint accepts, for connections accepted
    /// from now on. A client-only endpoint stays one.
    pub fn accept_only(&mut self, alpn: AlpnList) {
        if let Some(accepting) = self.kept.rare.as_mut().and_then(|r| r.accepting.as_mut()) {
            accepting.alpn = alpn;
        }
    }

    /// The live slot `h` names; `None` for a vacated slot or one that
    /// has since been given to another connection.
    fn slot(&self, h: ConnHandle) -> Option<&Slot<P, A>> {
        let slot = self.slots.get(h.slot())?.as_deref()?;
        (slot.handle == h).then_some(slot)
    }

    /// [`Endpoint::slot`], mutably, borrowing only the slab.
    fn slot_mut(slots: &mut [Option<Box<Slot<P, A>>>], h: ConnHandle) -> Option<&mut Slot<P, A>> {
        let slot = slots.get_mut(h.slot())?.as_deref_mut()?;
        (slot.handle == h).then_some(slot)
    }

    /// Marks a connection as possibly-sendable / deadline-stale.
    fn mark_dirty(dirty: &mut BinaryHeap<Reverse<ConnHandle>>, slot: &mut Slot<P, A>) {
        if !slot.dirty {
            slot.dirty = true;
            // Room for one, as most endpoints hold one connection; a
            // second grows it as a push would.
            if dirty.capacity() == 0 {
                dirty.reserve_exact(1);
            }
            dirty.push(Reverse(slot.handle));
        }
    }

    /// Re-indexes live connection `h`'s timer deadline from its state.
    fn refresh_deadline(
        deadlines: &mut Deadlines,
        slots: &mut [Option<Box<Slot<P, A>>>],
        h: ConnHandle,
    ) {
        let slot = slots[h.slot()].as_deref_mut().expect("a live slot");
        let next = slot.conn.poll_timeout().unwrap_or(SimTime::MAX);
        let old = std::mem::replace(&mut slot.deadline, next);
        if next != old {
            deadlines.moved(h, old, next, current_in(slots));
        }
    }

    /// Gives a new connection a slot — a vacated one if there is any —
    /// and queues it for transmit.
    fn insert(&mut self, conn: Connection, peer: P) -> ConnHandle {
        let rare = &mut self.kept.rare;
        let reused = rare.as_mut().and_then(|r| r.free.pop());
        if rare.as_ref().is_some_and(|r| r.is_empty()) {
            *rare = None;
        }
        let handle = reused.unwrap_or_else(|| {
            let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 connections");
            self.slots.push(None);
            ConnHandle::new(slot, 0)
        });
        let index = handle.slot() as u32;
        self.by_cid.insert(conn.cid(), index, cid_in(&self.slots));
        let mut slot = Box::new(Slot {
            handle,
            conn,
            app: A::default(),
            peer,
            deadline: SimTime::MAX,
            dirty: false,
        });
        Self::mark_dirty(&mut self.dirty, &mut slot);
        self.slots[handle.slot()] = Some(slot);
        handle
    }

    /// Drops a connection from the slab and every index; its slot goes
    /// back on the free list under the next generation. Returns what the
    /// application kept in it.
    fn forget(&mut self, h: ConnHandle) -> Option<A> {
        let held = self.slots.get_mut(h.slot());
        let slot = held.and_then(|s| s.take_if(|s| s.handle == h))?;
        let index = h.slot() as u32;
        self.by_cid
            .remove(slot.conn.cid(), index, cid_in(&self.slots));
        let current = current_in(&self.slots);
        self.deadlines
            .moved(h, slot.deadline, SimTime::MAX, current);
        if let Some(next) = h.next_generation() {
            self.kept.rare().free.push(next);
        }
        Some(slot.app)
    }

    /// Opens a client connection to `peer`, optionally trying 0-RTT with a
    /// stored ticket (`use_ticket`).
    pub fn connect(
        &mut self,
        now: SimTime,
        peer: P,
        alpn: AlpnList,
        use_ticket: bool,
    ) -> ConnHandle {
        // Inbound datagrams are routed by cid alone, so a client cid equal
        // to the cid of a connection this endpoint already holds (e.g. one
        // *accepted* from a peer whose cid generator shares our seed)
        // would take over that connection's traffic. Skip over taken cids.
        let mut cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(Issuer::STEP).max(1);
        while self.by_cid.get(cid, cid_in(&self.slots)).is_some() {
            cid = self.next_cid;
            self.next_cid = self.next_cid.wrapping_add(Issuer::STEP).max(1);
        }
        // The first offer we hold a ticket for, with that ticket,
        // presented for it.
        let (resumed, ticket) = alpn
            .iter()
            .filter(|_| use_ticket)
            .find_map(|a| {
                let ticket = self.kept.tickets.get(&(peer, a.clone()))?;
                Some((a.clone(), ticket.presented(a, &alpn[0])))
            })
            .unzip();
        let config = Arc::clone(&self.config);
        let mut conn = Connection::client(cid, config, alpn, ticket, now);
        if let Some(a) = resumed {
            conn.resume_under(a);
        }
        self.insert(conn, peer)
    }

    /// True if a resumption ticket is stored for `peer` + `alpn` (0-RTT
    /// possible on the next connect). Allocation-free: the tiny store is
    /// probed by content, not by a freshly built key.
    ///
    /// Kept public for: `core::stack`'s tests, which check that a ticket was
    /// stored before they dial 0-RTT.
    pub fn has_ticket(&self, peer: P, alpn: &[u8]) -> bool {
        self.kept
            .tickets
            .iter()
            .any(|((p, a), _)| *p == peer && a.as_ref() == alpn)
    }

    /// Ingests a datagram that arrived from `from`. Unknown connection ids
    /// create a new server connection at a server endpoint. The payload
    /// handle keeps the parse zero-copy all the way into DATAGRAM frames.
    pub fn handle_datagram(&mut self, now: SimTime, from: P, data: &Payload) {
        // Peek just the first packet's header for routing; the owning
        // connection parses the full datagram (zero-copy) exactly once.
        let Some(cid) = crate::packet::peek_dcid(data) else {
            return self.drop_datagram(DropReason::MalformedHeader);
        };
        let (index, initial) = match self.by_cid.get(cid, cid_in(&self.slots)) {
            Some(i) => (i as usize, None),
            None => {
                let Some(accepting) = self.kept.accepting() else {
                    return self.drop_datagram(DropReason::UnknownConnection);
                };
                // A *new* connection is only minted for a datagram that
                // parses in full AND carries an Initial packet — the cheap
                // header peek alone must not let garbage traffic allocate
                // server state, and a stray late packet for a connection
                // we already reaped (e.g. an evicted attacker's
                // retransmission) must not resurrect it as a husk that
                // never finishes a handshake. (Known connections skip
                // this: their own parse handles it.) The new connection
                // takes the datagram as this pass checked it.
                let initial = match crate::packet::decode_datagram_payload(data) {
                    Ok(dg) if dg.packets().any(|p| p.ty == PacketType::Initial) => dg,
                    _ => return self.drop_datagram(DropReason::NotAnInitial),
                };
                let alpn = accepting.alpn.clone();
                let issuer = Issuer {
                    start: accepting.first_cid,
                    next: self.next_cid,
                };
                let config = Arc::clone(&self.config);
                let mut conn = Connection::server(cid, config, alpn, issuer.nonce(cid), now);
                conn.issued_by(issuer);
                let handle = self.insert(conn, from);
                self.kept.queued().incoming.push_back(handle);
                (handle.slot(), Some(initial))
            }
        };
        let dropped = self.drive(index, |slot| {
            let ingest = match initial {
                Some(dg) => slot.conn.handle_decoded(now, dg),
                None => slot.conn.handle_datagram(now, data),
            };
            // The peer has moved only if it says so itself: garbage, a
            // duplicate or a replay behind a known cid proves nothing
            // about where the connection's traffic should go.
            match ingest {
                Ingest::Accepted => {
                    slot.peer = from;
                    None
                }
                Ingest::Ignored => None,
                Ingest::Dropped(reason) => Some(reason),
            }
        });
        if let Some(reason) = dropped {
            self.drop_datagram(reason);
        }
    }

    fn drop_datagram(&mut self, reason: DropReason) {
        self.kept.rare().faults.drops[reason] += 1;
    }

    /// Runs one call into the connection in live slot `index`, moves
    /// what it raised into the endpoint queue — behind anything the
    /// application raised through `conn_mut` — and marks it dirty.
    fn drive<R>(&mut self, index: usize, call: impl FnOnce(&mut Slot<P, A>) -> R) -> R {
        let slot = self.slots[index].as_deref_mut().expect("a live slot");
        let r = call(slot);
        self.kept.take_from(slot);
        Self::mark_dirty(&mut self.dirty, slot);
        r
    }

    /// Moves the events `h` raised outside ingest, timeout and transmit —
    /// an application `close` through [`Endpoint::conn_mut`] — into the
    /// endpoint queue, so the owner can see a `Closed` it caused before it
    /// transmits instead of after.
    pub fn surface_events(&mut self, h: ConnHandle) {
        if let Some(slot) = Self::slot_mut(&mut self.slots, h) {
            self.kept.take_from(slot);
        }
    }

    /// Next accepted incoming connection, if any.
    pub fn poll_incoming(&mut self) -> Option<ConnHandle> {
        let h = self.kept.queued.as_mut()?.incoming.pop_front();
        self.kept.settle();
        h
    }

    /// Next application event across all connections. The one that
    /// drains the queue hands its storage back to the thread.
    pub fn poll_event(&mut self) -> Option<(ConnHandle, Event)> {
        let queued = self.kept.queued.as_mut()?;
        let ev = queued.events.pop_front();
        queue::give_back(&LENT_EVENTS, &mut queued.events);
        self.kept.settle();
        ev
    }

    /// Builds the next outgoing `(peer, datagram)` pair across connections.
    /// Call until `None`. Only *dirty* connections (touched since they
    /// last drained) are polled, lowest handle first — a deterministic
    /// order, and an untouched connection has nothing to send.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<(P, Payload)> {
        while let Some(&Reverse(h)) = self.dirty.peek() {
            let Some(slot) = Self::slot_mut(&mut self.slots, h) else {
                self.dirty.pop();
                continue;
            };
            if let Some(dg) = slot.conn.poll_transmit(now) {
                self.kept.take_from(slot);
                return Some((slot.peer, dg));
            }
            // Drained: its deadline is current again; stop polling it.
            if slot.conn.is_closed() {
                self.kept.queued().closed_pending.push(h);
            }
            slot.dirty = false;
            self.dirty.pop();
            Self::refresh_deadline(&mut self.deadlines, &mut self.slots, h);
        }
        None
    }

    /// Brings the deadline index up to date for every dirty connection
    /// (they stay dirty for transmit purposes).
    fn refresh_dirty_deadlines(&mut self) {
        for &Reverse(h) in &self.dirty {
            if self.slot(h).is_some() {
                Self::refresh_deadline(&mut self.deadlines, &mut self.slots, h);
            }
        }
    }

    /// Earliest timer deadline across all connections (refreshing any
    /// dirty connection's cached deadline first).
    pub fn poll_timeout(&mut self) -> Option<SimTime> {
        self.refresh_dirty_deadlines();
        self.deadlines.first(current_in(&self.slots))
    }

    /// Fires timer processing on every connection whose deadline passed.
    pub fn handle_timeout(&mut self, now: SimTime) {
        self.refresh_dirty_deadlines();
        // A fired connection leaves the index until its next refresh
        // (it is dirty now), so each is visited once. The index holds
        // live connections only: `forget` takes a deadline out with them.
        while let Some(h) = self.deadlines.pop_due(now, current_in(&self.slots)) {
            self.drive(h.slot(), |slot| {
                slot.deadline = SimTime::MAX;
                slot.conn.handle_timeout(now);
            });
        }
        self.deadlines.tidy(current_in(&self.slots));
    }

    /// Silently discards a connection without closing it on the wire —
    /// models a device suspension/crash (paper §4.4: "stub resolvers
    /// running on end-user devices also need to clean up subscriptions
    /// after suspension or shutdowns"). Returns what the application kept
    /// with it; `None` for a stale handle.
    pub fn abandon(&mut self, h: ConnHandle) -> Option<A> {
        self.forget(h)
    }

    /// Drops connections that are fully closed and have nothing to send,
    /// handing what the application kept with each to `vacated`.
    /// O(closures observed), not O(live connections): candidates are
    /// collected as their `Closed` events surface.
    pub fn reap_closed(&mut self, mut vacated: impl FnMut(A)) {
        while let Some(h) = self
            .kept
            .queued
            .as_mut()
            .and_then(|q| q.closed_pending.pop())
        {
            if self.slot(h).is_some_and(|s| s.conn.is_closed()) {
                vacated(self.forget(h).expect("a live slot"));
            }
        }
        self.kept.settle();
    }

    /// Access a connection by handle. The connection is marked dirty —
    /// the caller may write into it, making it sendable.
    pub fn conn_mut(&mut self, h: ConnHandle) -> Option<&mut Connection> {
        let slot = Self::slot_mut(&mut self.slots, h)?;
        Self::mark_dirty(&mut self.dirty, slot);
        Some(&mut slot.conn)
    }

    /// Immutable access to a connection.
    #[cfg(test)]
    pub fn conn(&self, h: ConnHandle) -> Option<&Connection> {
        self.slot(h).map(|s| &s.conn)
    }

    /// What the application keeps with connection `h`.
    pub fn app(&self, h: ConnHandle) -> Option<&A> {
        self.slot(h).map(|s| &s.app)
    }

    /// [`Endpoint::app`], mutably. The connection is not marked dirty:
    /// nothing here can write into it.
    pub fn app_mut(&mut self, h: ConnHandle) -> Option<&mut A> {
        Self::slot_mut(&mut self.slots, h).map(|s| &mut s.app)
    }

    /// What the application keeps with `h` and the connection, both
    /// mutably; the connection is marked dirty, as by
    /// [`Endpoint::conn_mut`].
    pub fn app_conn_mut(&mut self, h: ConnHandle) -> Option<(&mut A, &mut Connection)> {
        let slot = Self::slot_mut(&mut self.slots, h)?;
        Self::mark_dirty(&mut self.dirty, slot);
        Some((&mut slot.app, &mut slot.conn))
    }

    /// What the application keeps with every live connection, in slot
    /// order.
    pub fn apps(&self) -> impl Iterator<Item = (ConnHandle, &A)> {
        self.slots.iter().flatten().map(|s| (s.handle, &s.app))
    }

    /// The peer address of a connection.
    ///
    /// Kept public for: `tests/pubsub_chain.rs`, which finds the forwarder's
    /// connection at the recursive by its peer.
    pub fn peer_of(&self, h: ConnHandle) -> Option<P> {
        self.slot(h).map(|s| s.peer)
    }

    /// What this endpoint's peers got wrong, counted: connections it
    /// closed over what their peer sent (never over the peer's own
    /// close), and datagrams it dropped whole.
    pub fn faults(&self) -> Faults {
        let rare = self.kept.rare.as_ref();
        rare.map_or_else(Faults::default, |r| r.faults)
    }

    /// Number of live connections (E9 state accounting).
    pub fn connection_count(&self) -> usize {
        self.by_cid.len()
    }

    /// The live connections, in slot order.
    fn connections(&self) -> impl Iterator<Item = &Connection> {
        self.slots.iter().flatten().map(|s| &s.conn)
    }

    /// Per-connection composition — diagnostics for the adversarial
    /// drills (which connection is the state hiding in?).
    pub fn state_breakdown(&self) -> Vec<ConnStateRow> {
        self.connections()
            .map(|c| {
                let (s, r, t) = c.state_breakdown();
                (c.cid(), c.state_size_estimate(), s, r, t)
            })
            .collect()
    }

    /// Bytes of endpoint state held (E9): every connection's estimate
    /// plus what the endpoint keeps about them — the slab and the slot
    /// around each connection, the free list, the demux and deadline
    /// indexes, the dirty heap while it holds the thread's storage, the
    /// accept and event queues, the ticket store, the transport error and
    /// drop counts once there are any. Capacities, not lengths. The
    /// transport config is the thread's, shared by every endpoint
    /// configured alike, and the application's values are the
    /// application's to count, their place in the slot included.
    pub fn state_size_estimate(&self) -> usize {
        use std::mem::size_of;
        let slot_beyond_conn = size_of::<Slot<P, A>>() - size_of::<Connection>() - size_of::<A>();
        let tickets = &self.kept.tickets;
        let rare = self.kept.rare.as_deref().map_or(0, |r| {
            size_of::<Rare>() + r.free.capacity() * size_of::<ConnHandle>()
        });
        self.connections()
            .map(Connection::state_size_estimate)
            .sum::<usize>()
            + self.slots.capacity() * size_of::<Option<Box<Slot<P, A>>>>()
            + self.connection_count() * slot_beyond_conn
            + self.by_cid.heap_bytes()
            + self.deadlines.heap_bytes()
            + self.dirty.capacity() * size_of::<Reverse<ConnHandle>>()
            + Queued::bytes(&self.kept.queued)
            + tickets.heap_bytes()
            + tickets.values().map(|t| t.0.capacity()).sum::<usize>()
            + rare
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::{Dir, StreamId};
    use std::time::Duration;

    type Peer = u32;

    fn alpns() -> crate::connection::AlpnList {
        crate::connection::alpn_list(&[b"moq-dns/1"])
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Shuttles datagrams between two endpoints with fixed delay until quiet.
    fn shuttle(
        a: &mut Endpoint<Peer>,
        a_addr: Peer,
        b: &mut Endpoint<Peer>,
        b_addr: Peer,
        start: SimTime,
        owd_ms: u64,
    ) -> SimTime {
        let mut now = start;
        for _ in 0..128 {
            let mut moved = false;
            let mut from_a = Vec::new();
            while let Some((to, dg)) = a.poll_transmit(now) {
                assert_eq!(to, b_addr);
                from_a.push(dg);
            }
            let mut from_b = Vec::new();
            while let Some((to, dg)) = b.poll_transmit(now) {
                assert_eq!(to, a_addr);
                from_b.push(dg);
            }
            if !from_a.is_empty() || !from_b.is_empty() {
                moved = true;
                now += Duration::from_millis(owd_ms);
                for d in from_a {
                    b.handle_datagram(now, a_addr, &d);
                }
                for d in from_b {
                    a.handle_datagram(now, b_addr, &d);
                }
            }
            if !moved {
                break;
            }
        }
        now
    }

    #[test]
    fn connect_accept_and_exchange() {
        let mut client: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 1);
        let mut server: Endpoint<Peer> = Endpoint::server(TransportConfig::default(), alpns(), 2);
        let ch = client.connect(t(0), 20, alpns(), false);
        shuttle(&mut client, 10, &mut server, 20, t(0), 25);

        let sh = server.poll_incoming().expect("incoming connection");
        assert!(server.conn(sh).unwrap().is_established());
        assert!(client.conn(ch).unwrap().is_established());

        // Client sends a request on a bidi stream; server answers.
        let id = client.conn_mut(ch).unwrap().open_stream(Dir::Bi).unwrap();
        client
            .conn_mut(ch)
            .unwrap()
            .send_stream(id, b"req")
            .unwrap();
        shuttle(&mut client, 10, &mut server, 20, t(100), 25);
        let (data, _) = server.conn_mut(sh).unwrap().read_stream(id, 100).unwrap();
        assert_eq!(data, b"req");
    }

    #[test]
    fn ticket_store_enables_zero_rtt_on_reconnect() {
        let mut client: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 1);
        let mut server: Endpoint<Peer> = Endpoint::server(TransportConfig::default(), alpns(), 2);

        // First connection: no ticket yet.
        assert!(!client.has_ticket(20, b"moq-dns/1"));
        let ch1 = client.connect(t(0), 20, alpns(), true);
        assert_eq!(client.conn(ch1).unwrap().alpn(), None, "nothing to go on");
        shuttle(&mut client, 10, &mut server, 20, t(0), 25);
        assert!(client.conn(ch1).unwrap().is_established());
        assert!(client.has_ticket(20, b"moq-dns/1"), "ticket stored");
        let _sh1 = server.poll_incoming().unwrap();

        // Second connection: 0-RTT data reaches the server in 0.5 RTT.
        let ch2 = client.connect(t(1000), 20, alpns(), true);
        assert_eq!(
            client.conn(ch2).unwrap().alpn(),
            Some(&b"moq-dns/1"[..]),
            "the ticket's protocol is known before the handshake"
        );
        let id = client.conn_mut(ch2).unwrap().open_stream(Dir::Bi).unwrap();
        client
            .conn_mut(ch2)
            .unwrap()
            .send_stream(id, b"early")
            .unwrap();
        let (to, dg) = client.poll_transmit(t(1000)).unwrap();
        assert_eq!(to, 20);
        server.handle_datagram(t(1025), 20, &dg);
        let sh2 = server.poll_incoming().unwrap();
        let (data, _) = server.conn_mut(sh2).unwrap().read_stream(id, 100).unwrap();
        assert_eq!(data, b"early", "0-RTT data readable after half RTT");
    }

    /// Dials `server` at 20 with a ticket if the client holds one, and
    /// returns whether the server took the 0-RTT flight.
    fn early_data_taken(client: &mut Endpoint<Peer>, server: &mut Endpoint<Peer>, at: u64) -> bool {
        let offer = crate::connection::alpn_list(&[b"moq-dns/2", b"moq-dns/1"]);
        let ch = client.connect(t(at), 20, offer, true);
        shuttle(client, 10, server, 20, t(at), 25);
        let connected = std::iter::from_fn(|| client.poll_event()).find_map(|(h, ev)| match ev {
            Event::Connected {
                early_data_accepted,
                ..
            } if h == ch => Some(early_data_accepted),
            _ => None,
        });
        while server.poll_event().is_some() {}
        connected.expect("connected") == Some(true)
    }

    #[test]
    fn early_data_rides_only_the_servers_own_ticket_for_the_token_it_selects() {
        let both = crate::connection::alpn_list(&[b"moq-dns/2", b"moq-dns/1"]);
        let mut server: Endpoint<Peer> = Endpoint::server(TransportConfig::default(), both, 2);
        let mut client: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 1);
        assert!(
            !early_data_taken(&mut client, &mut server, 0),
            "no ticket yet"
        );
        // The server dials out meanwhile: its tickets from before stay its own.
        server.connect(t(500), 30, alpns(), false);
        while server.poll_transmit(t(500)).is_some() {}
        assert!(early_data_taken(&mut client, &mut server, 1_000));

        // Another server at the same address does not know the ticket.
        let both = crate::connection::alpn_list(&[b"moq-dns/2", b"moq-dns/1"]);
        let mut stranger: Endpoint<Peer> = Endpoint::server(TransportConfig::default(), both, 4);
        assert!(!early_data_taken(&mut client, &mut stranger, 2_000));

        // The ticket's server, no longer speaking the token it was
        // issued under, selects the other one: no early data.
        server.accept_only(crate::connection::alpn_list(&[b"moq-dns/1"]));
        assert!(!early_data_taken(&mut client, &mut server, 3_000));
        // The refused ticket is gone, and the one that handshake issued,
        // under the token the server selected, carries the next dial's
        // early data.
        assert!(!client.has_ticket(20, b"moq-dns/2"), "refused ticket kept");
        assert!(early_data_taken(&mut client, &mut server, 4_000));
    }

    #[test]
    fn multiple_connections_demultiplex() {
        let mut c1: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 1);
        let mut c2: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 7);
        let mut server: Endpoint<Peer> = Endpoint::server(TransportConfig::default(), alpns(), 2);
        c1.connect(t(0), 20, alpns(), false);
        c2.connect(t(0), 20, alpns(), false);
        shuttle(&mut c1, 11, &mut server, 20, t(0), 5);
        shuttle(&mut c2, 12, &mut server, 20, t(0), 5);
        assert_eq!(server.connection_count(), 2);
        let h1 = server.poll_incoming().unwrap();
        let h2 = server.poll_incoming().unwrap();
        assert_ne!(h1, h2);
    }

    #[test]
    fn client_cid_never_collides_with_accepted_conn() {
        // Two endpoints seeded identically generate the same client cid
        // sequence. When B (a server) accepts A's connection and then
        // dials out itself, its first client cid would equal the accepted
        // connection's cid — and, since the handle IS the cid, overwrite
        // that connection's state. The allocator must skip taken cids.
        let mut a: Endpoint<Peer> = Endpoint::server(TransportConfig::default(), alpns(), 7);
        let mut b: Endpoint<Peer> = Endpoint::server(TransportConfig::default(), alpns(), 7);
        a.connect(t(0), 20, alpns(), false);
        let (_, dg) = a.poll_transmit(t(0)).unwrap();
        b.handle_datagram(t(0), 10, &dg);
        let accepted = b.poll_incoming().unwrap();
        let dialed = b.connect(t(0), 30, alpns(), false);
        assert_ne!(accepted, dialed, "handle collision would clobber state");
        assert_eq!(b.connection_count(), 2);
        assert_eq!(b.peer_of(accepted), Some(10));
        assert_eq!(b.peer_of(dialed), Some(30));
    }

    #[test]
    fn stale_handle_never_resolves_to_the_slots_next_tenant() {
        // Client side: abandon, then a new dial takes the slot.
        let mut client: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 1);
        let old = client.connect(t(0), 20, alpns(), false);
        client.abandon(old);
        let new = client.connect(t(0), 21, alpns(), false);
        assert_eq!(new.slot(), old.slot(), "the vacated slot is reused");
        assert_ne!(new, old);
        assert!(client.conn(old).is_none());
        assert!(client.conn_mut(old).is_none());
        assert_eq!(client.peer_of(old), None);
        assert_eq!(client.peer_of(new), Some(21));
        client.abandon(old); // a stale abandon must not take the new tenant down
        assert_eq!(client.connection_count(), 1);

        // Server side: close + reap, then a new accept takes the slot.
        let mut server: Endpoint<Peer> = Endpoint::server(TransportConfig::default(), alpns(), 2);
        let mut c1: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 3);
        let ch = c1.connect(t(0), 20, alpns(), false);
        shuttle(&mut c1, 11, &mut server, 20, t(0), 5);
        let old = server.poll_incoming().unwrap();
        c1.conn_mut(ch).unwrap().close(0, "bye");
        shuttle(&mut c1, 11, &mut server, 20, t(100), 5);
        server.reap_closed(drop);
        assert_eq!(server.connection_count(), 0);
        let mut c2: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 4);
        c2.connect(t(200), 20, alpns(), false);
        shuttle(&mut c2, 12, &mut server, 20, t(200), 5);
        let new = server.poll_incoming().unwrap();
        assert_eq!(new.slot(), old.slot());
        assert!(server.conn(old).is_none() && server.conn_mut(old).is_none());
        assert_eq!(server.peer_of(old), None);
        assert_eq!(server.peer_of(new), Some(12));
        assert!(server.conn(new).unwrap().is_established());
    }

    #[test]
    fn an_apps_value_lives_and_leaves_with_its_slot() {
        // Abandoned: the value comes back from `abandon`, and the handle
        // reaches nothing of the slot's next tenant.
        let mut client: Endpoint<Peer, u32> = Endpoint::client(TransportConfig::default(), 1);
        let old = client.connect(t(0), 20, alpns(), false);
        assert_eq!(
            client.app(old),
            Some(&0),
            "a new slot starts at the default"
        );
        *client.app_mut(old).unwrap() = 7;
        assert_eq!(client.abandon(old), Some(7));
        let new = client.connect(t(0), 21, alpns(), false);
        assert_eq!(new.slot(), old.slot());
        assert_eq!(client.app(old), None);
        assert_eq!(client.abandon(old), None, "a stale abandon takes nothing");
        let (app, conn) = client.app_conn_mut(new).unwrap();
        *app = 8;
        conn.close(0, "bye");
        assert!(client.app_mut(old).is_none() && client.app_conn_mut(old).is_none());
        assert_eq!(client.apps().collect::<Vec<_>>(), [(new, &8)]);

        // Reaped: the value goes to the owner's closure.
        std::iter::from_fn(|| client.poll_transmit(t(0))).for_each(drop);
        client.surface_events(new);
        let mut vacated = Vec::new();
        client.reap_closed(|app| vacated.push(app));
        assert_eq!((vacated, client.connection_count()), (vec![8], 0));
    }

    #[test]
    fn accepts_in_hostile_cid_order_stay_cheap() {
        // The peer picks a server connection's cid. 100,000 Initials,
        // highest cid first: every insert is at the front of the demux
        // index — quadratic in a sorted vector, a probe or two in the
        // keyed hash table it is. Only the accepts are timed.
        let n = 100_000u64;
        let initials: Vec<Payload> = (0..n)
            .rev()
            .map(|i| {
                let mut c =
                    Connection::client(1 + i * 2, TransportConfig::default(), alpns(), None, t(0));
                c.poll_transmit(t(0)).expect("a ClientHello")
            })
            .collect();
        let mut server: Endpoint<Peer> = Endpoint::server(TransportConfig::default(), alpns(), 2);
        let started = std::time::Instant::now();
        for (i, dg) in initials.iter().enumerate() {
            server.handle_datagram(t(0), i as Peer, dg);
        }
        let took = started.elapsed();
        assert_eq!(server.connection_count(), n as usize);
        let queued = server.kept.queued.as_ref();
        let incoming = &queued.expect("unreported accepts").incoming;
        let last = incoming.back().copied().unwrap();
        assert_eq!(last.slot(), n as usize - 1, "slots are handed out densely");
        assert_eq!(server.peer_of(last), Some(n as Peer - 1));
        assert!(
            took < std::time::Duration::from_secs(3),
            "100,000 accepts in descending cid order took {took:?}"
        );
    }

    #[test]
    fn transmit_order_is_ascending_handle() {
        let mut client: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 1);
        let gone = client.connect(t(0), 20, alpns(), false);
        let b = client.connect(t(0), 22, alpns(), false);
        let c = client.connect(t(0), 23, alpns(), false);
        client.abandon(gone);
        // Slot 0 again, one generation up: the highest handle of the three.
        let d = client.connect(t(0), 24, alpns(), false);
        assert!(b < c && c < d);
        let order = |e: &mut Endpoint<Peer>| {
            std::iter::from_fn(|| e.poll_transmit(t(0)))
                .map(|(to, _)| to)
                .collect::<Vec<_>>()
        };
        assert_eq!(order(&mut client), [22, 23, 24], "first flights");
        // Dirtied highest first; each has one CONNECTION_CLOSE to send.
        for h in [d, c, b] {
            client.conn_mut(h).unwrap().close(0, "bye");
        }
        assert_eq!(order(&mut client), [22, 23, 24]);
    }

    #[test]
    fn peer_address_moves_only_on_an_accepted_packet() {
        use crate::frame::Frame;
        use crate::packet::{encode_datagram, Packet, PacketType};

        let mut client: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 1);
        let mut server: Endpoint<Peer> = Endpoint::server(TransportConfig::default(), alpns(), 2);
        let ch = client.connect(t(0), 20, alpns(), false);
        shuttle(&mut client, 10, &mut server, 20, t(0), 5);
        let sh = server.poll_incoming().unwrap();
        let cid = client.conn(ch).unwrap().cid();

        // A request the server has seen, kept for replay.
        let id = client.conn_mut(ch).unwrap().open_stream(Dir::Bi).unwrap();
        client.conn_mut(ch).unwrap().send_stream(id, b"a").unwrap();
        let (_, old) = client.poll_transmit(t(100)).unwrap();
        server.handle_datagram(t(105), 10, &old);
        shuttle(&mut client, 10, &mut server, 20, t(105), 5);
        assert_eq!(server.peer_of(sh), Some(10));

        // A fresh request, heard from the peer where it is: its copy is
        // a duplicate.
        client.conn_mut(ch).unwrap().send_stream(id, b"b").unwrap();
        let (_, dup) = client.poll_transmit(t(150)).unwrap();
        server.handle_datagram(t(155), 10, &dup);
        shuttle(&mut client, 10, &mut server, 20, t(155), 5);

        // Undecodable bytes behind the connection's own header.
        let mut garbage = old.as_slice()[..10].to_vec();
        garbage.extend([0xFF; 24]);
        assert_eq!(crate::packet::peek_dcid(&garbage), peek_dcid_of(&old));
        // A packet the connection would take, then one that does not
        // decode: the datagram is dropped whole.
        let mut damaged = encode_datagram(&[
            Packet {
                ty: PacketType::OneRtt,
                dcid: cid,
                pn: 900,
                pn_len: 2,
                frames: vec![Frame::Ping],
            },
            Packet {
                ty: PacketType::OneRtt,
                dcid: cid,
                pn: 901,
                pn_len: 2,
                frames: vec![Frame::Ping, Frame::Ping],
            },
        ]);
        *damaged.last_mut().unwrap() = 0x3f;

        // Each from a new address, and none proves the peer is there.
        let cases = [
            ("garbage", Payload::new(garbage)),
            ("a damaged datagram", Payload::new(damaged)),
            ("a duplicate", dup),
            ("a replay", old),
        ];
        for (i, (what, dg)) in cases.iter().enumerate() {
            server.handle_datagram(t(200), 60 + i as Peer, dg);
            assert_eq!(server.peer_of(sh), Some(10), "{what} re-routed it");
        }
        server
            .conn_mut(sh)
            .unwrap()
            .send_stream(id, b"answer")
            .unwrap();
        let sent: Vec<Peer> = std::iter::from_fn(|| server.poll_transmit(t(200)))
            .map(|(to, answer)| {
                client.handle_datagram(t(205), 20, &answer);
                to
            })
            .collect();
        assert!(!sent.is_empty() && sent.iter().all(|&to| to == 10));

        // A fresh packet from a new address: the peer did move.
        client.conn_mut(ch).unwrap().send_stream(id, b"c").unwrap();
        let (_, fresh) = client.poll_transmit(t(300)).unwrap();
        server.handle_datagram(t(305), 77, &fresh);
        assert_eq!(server.peer_of(sh), Some(77));
        let (to, _) = server.poll_transmit(t(305)).unwrap();
        assert_eq!(to, 77);
    }

    fn peek_dcid_of(dg: &Payload) -> Option<u64> {
        crate::packet::peek_dcid(dg.as_slice())
    }

    #[test]
    fn non_server_drops_unknown_cids() {
        let mut c: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 1);
        let mut other: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 2);
        other.connect(t(0), 99, alpns(), false);
        let (_, dg) = other.poll_transmit(t(0)).unwrap();
        c.handle_datagram(t(0), 99, &dg);
        assert_eq!(c.connection_count(), 0);
    }

    #[test]
    fn reap_closed_removes_connections() {
        let mut client: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 1);
        let mut server: Endpoint<Peer> = Endpoint::server(TransportConfig::default(), alpns(), 2);
        let ch = client.connect(t(0), 20, alpns(), false);
        shuttle(&mut client, 10, &mut server, 20, t(0), 5);
        client.conn_mut(ch).unwrap().close(0, "bye");
        shuttle(&mut client, 10, &mut server, 20, t(100), 5);
        client.reap_closed(drop);
        server.reap_closed(drop);
        assert_eq!(client.connection_count(), 0);
        assert_eq!(server.connection_count(), 0);
    }

    /// A client and a server endpoint with one connection established
    /// between them and every event drained: neither holds a queue
    /// record, and the client nothing it holds now and then.
    fn connected(seed: u64) -> (Endpoint<Peer>, ConnHandle, Endpoint<Peer>) {
        let mut client = Endpoint::client(TransportConfig::default(), seed);
        let mut server = Endpoint::server(TransportConfig::default(), alpns(), seed + 1);
        let ch = client.connect(t(0), 20, alpns(), false);
        shuttle(&mut client, 10, &mut server, 20, t(0), 5);
        server.poll_incoming().expect("accepted");
        while client.poll_event().is_some() {}
        while server.poll_event().is_some() {}
        assert!(client.kept.queued.is_none() && server.kept.queued.is_none());
        assert!(client.kept.rare.is_none());
        (client, ch, server)
    }

    /// The client opens twenty streams with a byte each: forty events
    /// (opened, readable) at the server, none of them polled.
    fn burst(client: &mut Endpoint<Peer>, ch: ConnHandle, server: &mut Endpoint<Peer>) {
        let conn = client.conn_mut(ch).unwrap();
        for _ in 0..20 {
            let id = conn.open_stream(Dir::Uni).unwrap();
            conn.send_stream(id, b"x").unwrap();
        }
        shuttle(client, 10, server, 20, t(100), 5);
    }

    #[test]
    fn a_drained_endpoint_holds_no_event_storage() {
        let spare = || LENT_EVENTS.with_borrow(VecDeque::capacity);
        let held = |e: &Endpoint<Peer>| Queued::of(&e.kept.queued).events.capacity();
        let (mut c1, ch1, mut s1) = connected(1);
        let (mut c2, ch2, mut s2) = connected(3);
        burst(&mut c1, ch1, &mut s1);
        assert_eq!(Queued::of(&s1.kept.queued).events.len(), 40);
        // While the first holds the thread's queue, the second grows one.
        burst(&mut c2, ch2, &mut s2);
        let grown = held(&s2);
        assert!(grown > queue::KEEP);
        while s2.poll_event().is_some() {}
        assert_eq!(
            (held(&s2), spare()),
            (0, grown),
            "drained, it is the thread's"
        );
        assert!(s2.kept.queued.is_none(), "and so is the record around it");

        // Undrained, the first keeps its events, in order.
        let opened_then_readable = (0..20).flat_map(|i| {
            let id = StreamId::new(true, Dir::Uni, i);
            [Event::StreamOpened { id }, Event::StreamReadable { id }]
        });
        let events: Vec<Event> = std::iter::from_fn(|| s1.poll_event())
            .map(|(_, ev)| ev)
            .collect();
        assert!(events.into_iter().eq(opened_then_readable));
        assert_eq!((held(&s1), held(&s2)), (0, 0), "neither holds storage");
        assert!(s1.kept.queued.is_none() && s2.kept.queued.is_none());
        assert_eq!(spare(), grown, "the thread keeps the larger queue");

        // The next burst, on either, grows nothing: it is lent the queue.
        burst(&mut c1, ch1, &mut s1);
        assert_eq!((held(&s1), spare()), (grown, 0));
        while s1.poll_event().is_some() {}
        assert_eq!(spare(), grown);
    }

    #[test]
    fn connections_share_one_transport_config() {
        let mut server: Endpoint<Peer> = Endpoint::server(TransportConfig::default(), alpns(), 2);
        let shared = Arc::clone(&server.config);
        let before = Arc::strong_count(&shared);
        for (seed, addr) in [(1, 11), (3, 12)] {
            let mut client: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), seed);
            client.connect(t(0), 20, alpns(), false);
            shuttle(&mut client, addr, &mut server, 20, t(0), 5);
        }
        assert_eq!(server.connection_count(), 2);
        assert_eq!(
            Arc::strong_count(&shared),
            before + 2,
            "one more for each connection the server holds"
        );

        // Endpoints configured alike share one block from their
        // construction; another config is a block of its own, which the
        // thread keeps once its endpoints are gone.
        let alike: [Endpoint<Peer>; 2] = [
            Endpoint::client(TransportConfig::default(), 5),
            Endpoint::client(TransportConfig::default(), 7),
        ];
        for client in &alike {
            assert!(
                Arc::ptr_eq(&client.config, &shared),
                "one block for one config"
            );
        }
        let patience = TransportConfig::default().idle_timeout(Duration::from_secs(3600));
        let patient: Endpoint<Peer> = Endpoint::client(patience.clone(), 9);
        assert!(!Arc::ptr_eq(&patient.config, &shared));
        let own = Arc::downgrade(&patient.config);
        drop(patient);
        let again: Endpoint<Peer> = Endpoint::client(patience, 11);
        assert!(
            own.upgrade()
                .is_some_and(|own| Arc::ptr_eq(&own, &again.config)),
            "the thread kept it"
        );
    }

    #[test]
    fn a_one_connection_transmit_queue_is_one_entry() {
        let mut client: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 1);
        assert_eq!(client.dirty.capacity(), 0, "nothing queued, no block");
        client.connect(t(0), 20, alpns(), false);
        while client.poll_transmit(t(0)).is_some() {}
        client.connect(t(0), 21, alpns(), false);
        assert_eq!(client.dirty.capacity(), 1, "one connection, one slot");
        client.connect(t(0), 22, alpns(), false);
        assert!(client.dirty.capacity() >= 2, "a second grows it");
    }

    #[test]
    fn endpoint_timeout_aggregation() {
        let mut client: Endpoint<Peer> = Endpoint::client(
            TransportConfig::default().idle_timeout(Duration::from_secs(3)),
            1,
        );
        assert!(client.poll_timeout().is_none());
        client.connect(t(0), 20, alpns(), false);
        assert!(client.poll_timeout().is_some());
    }

    #[test]
    fn each_transport_error_closes_with_its_code_and_text_and_is_counted() {
        use crate::frame::Frame;
        use crate::handshake::HandshakeMessage;
        use crate::packet::{decode_datagram_payload, encode_datagram, Packet, PacketType};

        // Windows a few crafted bytes overrun: 64 B a stream, 100 B the
        // connection, four streams each way.
        let narrow = TransportConfig {
            max_data: 100,
            max_stream_data: 64,
            max_streams: 4,
            ..TransportConfig::default()
        };
        let mut server: Endpoint<Peer> = Endpoint::server(narrow, alpns(), 2);
        let mut client: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 1);
        let uni = |index| StreamId::new(true, Dir::Uni, index);
        let stream = |id, offset, len| Frame::Stream {
            id,
            offset,
            fin: false,
            data: vec![0x5A; len].into(),
        };
        let crypto = |data: Vec<u8>| Frame::Crypto {
            offset: 0,
            data: data.into(),
        };
        let cases = [
            (
                TransportError::MalformedHandshake,
                PacketType::Initial,
                vec![crypto(vec![0xFF, 0xFF])],
            ),
            (
                TransportError::UnexpectedHandshakeMessage,
                PacketType::Initial,
                vec![crypto(HandshakeMessage::HelloRetry { code: 1 }.encode())],
            ),
            (
                TransportError::FlowControl,
                PacketType::OneRtt,
                vec![stream(uni(0), 60, 8)],
            ),
            (
                TransportError::ConnectionFlowControl,
                PacketType::OneRtt,
                vec![stream(uni(0), 0, 60), stream(uni(1), 0, 60)],
            ),
            (
                TransportError::StreamLimit,
                PacketType::OneRtt,
                vec![stream(uni(4), 0, 1)],
            ),
        ];
        assert!(
            cases.iter().map(|c| c.0).eq(TransportError::ALL),
            "one case each, in order"
        );
        let texts = TransportError::ALL.map(|e| (e.code(), e.as_str()));
        assert_eq!(
            texts,
            [
                (0x1, "malformed handshake"),
                (0x1, "unexpected handshake message"),
                (0x3, "flow control violation"),
                (0x3, "connection flow control violation"),
                (0x4, "stream limit violated"),
            ],
            "no byte on the wire moves"
        );

        let mut now = t(0);
        for (n, (error, ty, frames)) in cases.into_iter().enumerate() {
            // A handshake error is raised on a new connection, the rest
            // on one the client established.
            let cid = if ty == PacketType::Initial {
                1_000 + n as u64
            } else {
                let ch = client.connect(now, 20, alpns(), false);
                now = shuttle(&mut client, 10, &mut server, 20, now, 5);
                client.conn(ch).unwrap().cid()
            };
            while server.poll_event().is_some() {}
            let packet = Packet {
                ty,
                dcid: cid,
                pn: 1_000,
                pn_len: 2,
                frames,
            };
            server.handle_datagram(now, 10, &Payload::new(encode_datagram(&[packet])));
            let closed = std::iter::from_fn(|| server.poll_event()).find_map(|(_, ev)| match ev {
                Event::Closed {
                    error_code,
                    reason,
                    by_peer: false,
                } => Some((error_code, reason)),
                _ => None,
            });
            assert_eq!(closed, Some((error.code(), error.as_str().to_string())));
            // The CONNECTION_CLOSE carries the same code and text.
            let (_, dg) = server.poll_transmit(now).expect("the close leaves");
            let sent = decode_datagram_payload(&dg).unwrap();
            assert!(sent.packets().flat_map(|p| p.frames()).any(|f| f
                == Frame::ConnectionClose {
                    error_code: error.code(),
                    reason: error.as_str().as_bytes(),
                }));
            while server.poll_transmit(now).is_some() {}
            server.reap_closed(|_| {});
            for e in TransportError::ALL {
                let counted = TransportError::ALL[..=n].contains(&e);
                assert_eq!(
                    server.faults().transport_errors[e],
                    counted as u64,
                    "{e} after {error}"
                );
            }
            assert_eq!(
                TransportError::of_close(error.code(), &error.to_string()),
                Some(error)
            );
        }
        // The client took the closes from its peer: none of them counts
        // at the client's endpoint.
        shuttle(&mut client, 10, &mut server, 20, now, 5);
        assert!(TransportError::ALL
            .iter()
            .all(|&e| client.faults().transport_errors[e] == 0));
    }

    #[test]
    fn each_drop_is_named_and_counted() {
        use crate::frame::Frame;
        use crate::packet::{encode_datagram, Packet, PacketType};

        assert_eq!(
            DropReason::ALL.map(DropReason::as_str),
            [
                "malformed header",
                "unknown connection at an endpoint that accepts none",
                "unknown connection without an Initial packet",
                "malformed packet for a known connection",
            ]
        );
        let packet = |ty| {
            Payload::new(encode_datagram(&[Packet {
                ty,
                dcid: 4_242,
                pn: 0,
                pn_len: 1,
                frames: vec![Frame::Ping],
            }]))
        };
        let mut server: Endpoint<Peer> = Endpoint::server(TransportConfig::default(), alpns(), 2);
        let mut client: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 1);
        let idle = (server.state_size_estimate(), client.state_size_estimate());
        // (reason, raised at the server, the datagram)
        let cases = [
            (DropReason::MalformedHeader, true, Payload::new(Vec::new())),
            (
                DropReason::UnknownConnection,
                false,
                packet(PacketType::Initial),
            ),
            (DropReason::NotAnInitial, true, packet(PacketType::OneRtt)),
        ];
        // The last needs a known connection: the test below.
        assert!(
            cases
                .iter()
                .map(|c| c.0)
                .eq(DropReason::ALL[..3].iter().copied()),
            "one case each, in order"
        );
        for (reason, at_server, dg) in &cases {
            let e = if *at_server { &mut server } else { &mut client };
            for _ in 0..2 {
                e.handle_datagram(t(0), 10, dg);
            }
            assert_eq!(e.connection_count(), 0, "{reason:?}");
            assert!(e.poll_event().is_none() && e.poll_transmit(t(0)).is_none());
        }
        for (reason, at_server, _) in cases {
            assert_eq!(server.faults().drops[reason], if at_server { 2 } else { 0 });
            assert_eq!(client.faults().drops[reason], if at_server { 0 } else { 2 });
        }
        // The counts are in what the endpoint holds now and then: a box
        // a client makes at its first drop, and a server already holds
        // for the ALPNs it accepts.
        let rare = std::mem::size_of::<Rare>();
        assert_eq!(server.state_size_estimate(), idle.0);
        assert_eq!(client.state_size_estimate(), idle.1 + rare);
        // An Initial for an unknown cid at a server is no drop: it is a
        // new connection.
        server.handle_datagram(t(0), 10, &packet(PacketType::Initial));
        assert_eq!(server.connection_count(), 1);
        assert!(DropReason::ALL.iter().all(|&r| server.faults().drops[r]
            == match r {
                DropReason::UnknownConnection | DropReason::MalformedPacket => 0,
                _ => 2,
            }));
    }

    #[test]
    fn a_damaged_datagram_for_a_known_connection_is_dropped_whole_and_counted_once() {
        use crate::frame::Frame;
        use crate::packet::{encode_datagram, Packet, PacketType};

        let mut server: Endpoint<Peer> = Endpoint::server(TransportConfig::default(), alpns(), 2);
        let mut client: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 1);
        let ch = client.connect(t(0), 20, alpns(), false);
        let now = shuttle(&mut client, 10, &mut server, 20, t(0), 5);
        while server.poll_event().is_some() {}
        let cid = client.conn(ch).unwrap().cid();
        let sh = server.poll_incoming().expect("the server accepted it");
        // A PING the connection would take, then a frame type that does
        // not exist: the header routes it, the rest does not decode.
        let mut damaged = encode_datagram(&[
            Packet {
                ty: PacketType::OneRtt,
                dcid: cid,
                pn: 900,
                pn_len: 2,
                frames: vec![Frame::Ping],
            },
            Packet {
                ty: PacketType::OneRtt,
                dcid: cid,
                pn: 901,
                pn_len: 2,
                frames: vec![Frame::Ping, Frame::Ping],
            },
        ]);
        *damaged.last_mut().unwrap() = 0x3f;
        let damaged = Payload::new(damaged);
        assert_eq!(crate::packet::peek_dcid(&damaged), Some(cid));
        let before = (
            server.conn(sh).unwrap().state_size_estimate(),
            server.conn(sh).unwrap().poll_timeout(),
            server.state_size_estimate(),
        );
        server.handle_datagram(now, 30, &damaged);
        assert_eq!(server.faults().drops[DropReason::MalformedPacket], 1);
        assert!(DropReason::ALL[..3]
            .iter()
            .all(|&r| server.faults().drops[r] == 0));
        // Nothing else moved: no packet taken (not even the whole first
        // one: it would be owed an ACK), no event, nothing to send, the
        // peer's address kept.
        assert_eq!(
            (
                server.conn(sh).unwrap().state_size_estimate(),
                server.conn(sh).unwrap().poll_timeout(),
                server.state_size_estimate(),
            ),
            before
        );
        assert!(server.poll_event().is_none() && server.poll_transmit(now).is_none());
        assert_eq!(server.connection_count(), 1);
        assert_eq!(server.peer_of(sh), Some(10));
        // The connection goes on: the client is still heard.
        client
            .conn_mut(ch)
            .unwrap()
            .send_datagram(&b"still here"[..])
            .unwrap();
        shuttle(&mut client, 10, &mut server, 20, now, 5);
        assert_eq!(server.faults().drops[DropReason::MalformedPacket], 1);
        assert!(std::iter::from_fn(|| server.poll_event())
            .any(|(h, ev)| h == sh && matches!(ev, Event::DatagramReceived(_))));
    }
}
