//! Endpoint: connection demultiplexing, server accept, ticket store.
//!
//! An [`Endpoint`] owns many [`Connection`]s and routes datagrams to them by
//! connection id. It is generic over the peer-address type `P` so the same
//! code runs over `moqdns-netsim` addresses ([`moqdns_netsim::Addr`]) and
//! real `std::net::SocketAddr`s.
//!
//! # Storage: one slab, one index
//!
//! Connections live in a **slab**: a `Vec` of boxed slots, so a slot never
//! moves and growing the table copies pointers, not connections. A slot
//! carries the connection and everything the endpoint keeps *about* it —
//! peer address, the timer deadline it is indexed under, whether it is
//! queued for transmit — so one lookup reaches all of it. Nothing is
//! sized ahead: an endpoint that never connected holds no table, a stub's
//! holds one slot.
//!
//! A [`ConnHandle`] is the **slot index** (low 32 bits) plus the slot's
//! **generation** (high 32 bits). Vacated slots are reused last-freed
//! first — a pure function of the endpoint's own history, so runs replay —
//! and every reuse bumps the generation: a handle kept across a close
//! resolves to `None`, never to the connection that took the slot later.
//!
//! Beside the slab sits the only structure keyed by connection id, the
//! inbound demux index `cid → slot`. A server connection's cid is chosen
//! by the *peer*, which can pick both the values and their order, so the
//! index is a `BTreeMap` (the `moqdns_wire::vecmap` module rule: no
//! sorted `Vec` where the peer picks the keys) — one 192-byte leaf on a
//! stub. The deadline index is ordered by time, the transmit queue is a
//! min-heap of dirty handles; neither is keyed by connection.
//!
//! # The lent event queue
//!
//! A connection queues events for its driver. The endpoint drains that
//! queue before each of its own calls returns, so between calls it is
//! empty by construction — and a `VecDeque` that a join burst grew would
//! otherwise sit at its high-water mark on every idle connection. The
//! endpoint therefore lends the connection it is about to drive one warm
//! queue, takes the events out, and takes the queue back. That queue
//! belongs to the *thread*, like the encode buffers of
//! `moqdns_wire::pool`: a stub is a one-connection endpoint, so a queue
//! the endpoint owned would park the same bytes one level up. Only what
//! the application raises itself through [`Endpoint::conn_mut`] (a
//! `close`) lands in the connection's own queue.
//!
//! # Tickets
//!
//! The client-side **ticket store** remembers the most recent resumption
//! ticket per (server, ALPN) so later connections can attempt 0-RTT — the
//! second latency optimization of paper §5.2.

use crate::config::TransportConfig;
use crate::connection::{Alpn, AlpnList, Connection, Event, Side};
use crate::handshake::Ticket;
use moqdns_netsim::SimTime;
use moqdns_wire::{Payload, VecMap};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::hash::Hash;

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
    /// The warm event queue lent to whichever connection this thread is
    /// driving (see the module docs). Empty between calls.
    static LENT_EVENTS: RefCell<VecDeque<Event>> = const { RefCell::new(VecDeque::new()) };
}

/// One slab slot: a connection and what the endpoint keeps about it.
struct Slot<P> {
    handle: ConnHandle,
    conn: Connection,
    peer: P,
    /// The deadline this connection is indexed under in `deadlines`.
    deadline: Option<SimTime>,
    /// Queued in `dirty`.
    dirty: bool,
}

/// What draining connections' event queues produces: events for the
/// application, tickets for later dials, closed connections to reap.
struct Surfaced<P> {
    /// Client ticket store: (peer, alpn) -> ticket, grown only by this
    /// endpoint's own dials. Keys are shared [`Alpn`] handles — storing
    /// or probing a ticket never copies the protocol string.
    tickets: VecMap<(P, Alpn), Ticket>,
    /// Pending (handle, event) pairs for the application.
    events: VecDeque<(ConnHandle, Event)>,
    /// Connections observed `Closed`, awaiting `reap_closed`.
    closed_pending: Vec<ConnHandle>,
}

impl<P: Copy + Ord> Surfaced<P> {
    /// Moves everything in the connection's event queue here.
    fn take_from(&mut self, slot: &mut Slot<P>) {
        while let Some(ev) = slot.conn.poll_event() {
            match &ev {
                Event::TicketIssued(t) if slot.conn.side() == Side::Client => {
                    if let Some(alpn) = slot.conn.alpn_handle() {
                        self.tickets.insert((slot.peer, alpn.clone()), t.clone());
                    }
                }
                Event::Closed { .. } => self.closed_pending.push(slot.handle),
                _ => {}
            }
            self.events.push_back((slot.handle, ev));
        }
    }
}

/// A multi-connection QUIC endpoint.
pub struct Endpoint<P> {
    config: TransportConfig,
    /// ALPNs a server accepts; ignored for pure clients.
    server_alpn: AlpnList,
    /// Whether this endpoint accepts incoming connections.
    is_server: bool,
    /// The slab, indexed by [`ConnHandle::slot`]; `None` is a vacated slot.
    slots: Vec<Option<Box<Slot<P>>>>,
    /// The handles vacated slots give their next tenants, reused
    /// last-freed first.
    free: Vec<ConnHandle>,
    /// Inbound demux: connection id -> slot. Exactly the live connections.
    by_cid: BTreeMap<u64, u32>,
    next_cid: u64,
    surfaced: Surfaced<P>,
    /// Accepted-but-unreported incoming connections.
    incoming: VecDeque<ConnHandle>,
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
    deadlines: BTreeSet<(SimTime, ConnHandle)>,
}

impl<P: Copy + Eq + Hash + Ord> Endpoint<P> {
    /// Creates a client-only endpoint.
    pub fn client(config: TransportConfig, cid_seed: u64) -> Endpoint<P> {
        Endpoint {
            config,
            server_alpn: AlpnList::from([]),
            is_server: false,
            slots: Vec::new(),
            free: Vec::new(),
            by_cid: BTreeMap::new(),
            next_cid: cid_seed.wrapping_mul(2_654_435_761).max(1),
            surfaced: Surfaced {
                tickets: VecMap::new(),
                events: VecDeque::new(),
                closed_pending: Vec::new(),
            },
            incoming: VecDeque::new(),
            dirty: BinaryHeap::new(),
            deadlines: BTreeSet::new(),
        }
    }

    /// Creates a server endpoint accepting the given ALPNs (it can still
    /// open client connections of its own — resolvers do both).
    pub fn server(config: TransportConfig, alpn: AlpnList, cid_seed: u64) -> Endpoint<P> {
        let mut e = Endpoint::client(config, cid_seed);
        e.is_server = true;
        e.server_alpn = alpn;
        e
    }

    /// Replaces the ALPNs this endpoint accepts, for connections accepted
    /// from now on.
    pub fn accept_only(&mut self, alpn: AlpnList) {
        self.server_alpn = alpn;
    }

    /// The live slot `h` names; `None` for a vacated slot or one that
    /// has since been given to another connection.
    fn slot(&self, h: ConnHandle) -> Option<&Slot<P>> {
        let slot = self.slots.get(h.slot())?.as_deref()?;
        (slot.handle == h).then_some(slot)
    }

    /// [`Endpoint::slot`], mutably, borrowing only the slab.
    fn slot_mut(slots: &mut [Option<Box<Slot<P>>>], h: ConnHandle) -> Option<&mut Slot<P>> {
        let slot = slots.get_mut(h.slot())?.as_deref_mut()?;
        (slot.handle == h).then_some(slot)
    }

    /// Marks a connection as possibly-sendable / deadline-stale.
    fn mark_dirty(dirty: &mut BinaryHeap<Reverse<ConnHandle>>, slot: &mut Slot<P>) {
        if !slot.dirty {
            slot.dirty = true;
            dirty.push(Reverse(slot.handle));
        }
    }

    /// Re-indexes a connection's timer deadline from its state.
    fn refresh_deadline(deadlines: &mut BTreeSet<(SimTime, ConnHandle)>, slot: &mut Slot<P>) {
        let next = slot.conn.poll_timeout();
        if next == slot.deadline {
            return;
        }
        if let Some(t) = slot.deadline {
            deadlines.remove(&(t, slot.handle));
        }
        if let Some(t) = next {
            deadlines.insert((t, slot.handle));
        }
        slot.deadline = next;
    }

    /// Gives a new connection a slot — a vacated one if there is any —
    /// and queues it for transmit.
    fn insert(&mut self, conn: Connection, peer: P) -> ConnHandle {
        let handle = self.free.pop().unwrap_or_else(|| {
            let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 connections");
            self.slots.push(None);
            ConnHandle::new(slot, 0)
        });
        self.by_cid.insert(conn.cid(), handle.0 as u32);
        let mut slot = Box::new(Slot {
            handle,
            conn,
            peer,
            deadline: None,
            dirty: false,
        });
        Self::mark_dirty(&mut self.dirty, &mut slot);
        self.slots[handle.slot()] = Some(slot);
        handle
    }

    /// Drops a connection from the slab and every index; its slot goes
    /// back on the free list under the next generation.
    fn forget(&mut self, h: ConnHandle) {
        let held = self.slots.get_mut(h.slot());
        let Some(slot) = held.and_then(|s| s.take_if(|s| s.handle == h)) else {
            return;
        };
        self.by_cid.remove(&slot.conn.cid());
        if let Some(t) = slot.deadline {
            self.deadlines.remove(&(t, h));
        }
        self.free.extend(h.next_generation());
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
        self.next_cid = self.next_cid.wrapping_add(0x9E37_79B9_7F4A_7C15).max(1);
        while self.by_cid.contains_key(&cid) {
            cid = self.next_cid;
            self.next_cid = self.next_cid.wrapping_add(0x9E37_79B9_7F4A_7C15).max(1);
        }
        // The first offer we hold a ticket for, with that ticket.
        let (resumed, ticket) = alpn
            .iter()
            .filter(|_| use_ticket)
            .find_map(|a| {
                Some((
                    a.clone(),
                    self.surfaced.tickets.get(&(peer, a.clone()))?.clone(),
                ))
            })
            .unzip();
        let mut conn = Connection::client(cid, self.config.clone(), alpn, ticket, now);
        if let Some(a) = resumed {
            conn.resume_under(a);
        }
        self.insert(conn, peer)
    }

    /// True if a resumption ticket is stored for `peer` + `alpn` (0-RTT
    /// possible on the next connect). Allocation-free: the tiny store is
    /// probed by content, not by a freshly built key.
    pub fn has_ticket(&self, peer: P, alpn: &[u8]) -> bool {
        self.surfaced
            .tickets
            .iter()
            .any(|((p, a), _)| *p == peer && a.as_ref() == alpn)
    }

    /// Ingests a datagram that arrived from `from`. Unknown connection ids
    /// create a new server connection when `is_server`. The payload
    /// handle keeps the parse zero-copy all the way into DATAGRAM frames.
    pub fn handle_datagram(&mut self, now: SimTime, from: P, data: &Payload) {
        // Peek just the first packet's header for routing; the owning
        // connection parses the full datagram (zero-copy) exactly once.
        let Some(cid) = crate::packet::peek_dcid(data) else {
            return;
        };
        let index = match self.by_cid.get(&cid) {
            Some(i) => *i as usize,
            None => {
                if !self.is_server {
                    return;
                }
                // A *new* connection is only minted for a datagram that
                // parses in full AND carries an Initial packet — the cheap
                // header peek alone must not let garbage traffic allocate
                // server state, and a stray late packet for a connection
                // we already reaped (e.g. an evicted attacker's
                // retransmission) must not resurrect it as a husk that
                // never finishes a handshake. (Known connections skip
                // this: their own parse handles it.)
                match crate::packet::decode_datagram_payload(data) {
                    Ok(pkts)
                        if pkts
                            .iter()
                            .any(|p| p.ty == crate::packet::PacketType::Initial) => {}
                    _ => return,
                }
                let nonce = self
                    .next_cid
                    .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                    .wrapping_add(cid);
                let conn = Connection::server(
                    cid,
                    self.config.clone(),
                    self.server_alpn.clone(),
                    nonce,
                    now,
                );
                let handle = self.insert(conn, from);
                self.incoming.push_back(handle);
                handle.slot()
            }
        };
        self.drive(index, |slot| {
            let seen = slot.conn.stats().packets_received;
            slot.conn.handle_datagram(now, data);
            // The peer has moved only if it says so itself: garbage, a
            // duplicate or a replay behind a known cid proves nothing
            // about where the connection's traffic should go.
            if slot.conn.stats().packets_received > seen {
                slot.peer = from;
            }
        });
    }

    /// Runs one call into the connection in live slot `index` with this
    /// thread's warm event queue lent to it (see the module docs), moves
    /// what it raised into the endpoint queue and marks it dirty.
    fn drive(&mut self, index: usize, call: impl FnOnce(&mut Slot<P>)) {
        let slot = self.slots[index].as_deref_mut().expect("a live slot");
        // Anything the application raised through `conn_mut` comes first.
        self.surfaced.take_from(slot);
        let mut lent = LENT_EVENTS.take();
        slot.conn.swap_event_queue(&mut lent);
        call(slot);
        self.surfaced.take_from(slot);
        slot.conn.swap_event_queue(&mut lent);
        LENT_EVENTS.set(lent);
        Self::mark_dirty(&mut self.dirty, slot);
    }

    /// Moves the events `h` raised outside ingest, timeout and transmit —
    /// an application `close` through [`Endpoint::conn_mut`] — into the
    /// endpoint queue, so the owner can see a `Closed` it caused before it
    /// transmits instead of after.
    pub fn surface_events(&mut self, h: ConnHandle) {
        if let Some(slot) = Self::slot_mut(&mut self.slots, h) {
            self.surfaced.take_from(slot);
        }
    }

    /// Next accepted incoming connection, if any.
    pub fn poll_incoming(&mut self) -> Option<ConnHandle> {
        self.incoming.pop_front()
    }

    /// Next application event across all connections.
    pub fn poll_event(&mut self) -> Option<(ConnHandle, Event)> {
        self.surfaced.events.pop_front()
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
                self.surfaced.take_from(slot);
                return Some((slot.peer, dg));
            }
            // Drained: its deadline is current again; stop polling it.
            if slot.conn.is_closed() {
                self.surfaced.closed_pending.push(h);
            }
            slot.dirty = false;
            self.dirty.pop();
            Self::refresh_deadline(&mut self.deadlines, slot);
        }
        None
    }

    /// Brings the deadline index up to date for every dirty connection
    /// (they stay dirty for transmit purposes).
    fn refresh_dirty_deadlines(&mut self) {
        for &Reverse(h) in &self.dirty {
            if let Some(slot) = Self::slot_mut(&mut self.slots, h) {
                Self::refresh_deadline(&mut self.deadlines, slot);
            }
        }
    }

    /// Earliest timer deadline across all connections (refreshing any
    /// dirty connection's cached deadline first).
    pub fn poll_timeout(&mut self) -> Option<SimTime> {
        self.refresh_dirty_deadlines();
        self.deadlines.first().map(|&(t, _)| t)
    }

    /// Fires timer processing on every connection whose deadline passed.
    pub fn handle_timeout(&mut self, now: SimTime) {
        self.refresh_dirty_deadlines();
        // A fired connection leaves the index until its next refresh
        // (it is dirty now), so each is visited once. The index holds
        // live connections only: `forget` takes a deadline out with them.
        while self.deadlines.first().is_some_and(|&(t, _)| t <= now) {
            let (_, h) = self.deadlines.pop_first().expect("just seen");
            self.drive(h.slot(), |slot| {
                slot.deadline = None;
                slot.conn.handle_timeout(now);
            });
        }
    }

    /// Silently discards a connection without closing it on the wire —
    /// models a device suspension/crash (paper §4.4: "stub resolvers
    /// running on end-user devices also need to clean up subscriptions
    /// after suspension or shutdowns").
    pub fn abandon(&mut self, h: ConnHandle) {
        self.forget(h);
    }

    /// Drops connections that are fully closed and have nothing to send.
    /// O(closures observed), not O(live connections): candidates are
    /// collected as their `Closed` events surface.
    pub fn reap_closed(&mut self) {
        while let Some(h) = self.surfaced.closed_pending.pop() {
            if self.slot(h).is_some_and(|s| s.conn.is_closed()) {
                self.forget(h);
            }
        }
    }

    /// Access a connection by handle. The connection is marked dirty —
    /// the caller may write into it, making it sendable.
    pub fn conn_mut(&mut self, h: ConnHandle) -> Option<&mut Connection> {
        let slot = Self::slot_mut(&mut self.slots, h)?;
        Self::mark_dirty(&mut self.dirty, slot);
        Some(&mut slot.conn)
    }

    /// Immutable access to a connection.
    pub fn conn(&self, h: ConnHandle) -> Option<&Connection> {
        self.slot(h).map(|s| &s.conn)
    }

    /// The peer address of a connection.
    pub fn peer_of(&self, h: ConnHandle) -> Option<P> {
        self.slot(h).map(|s| s.peer)
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

    /// Sum of per-connection state estimates (E9).
    pub fn state_size_estimate(&self) -> usize {
        self.connections()
            .map(Connection::state_size_estimate)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::Dir;
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
        server.reap_closed();
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
    fn accepts_in_hostile_cid_order_stay_cheap() {
        // The peer picks a server connection's cid. 100,000 Initials,
        // highest cid first: every insert is at the front of the demux
        // index — quadratic in a sorted vector, ~n log n in the B-tree it
        // is. Only the accepts are timed.
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
        let last = server.incoming.back().copied().unwrap();
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
        let mut client: Endpoint<Peer> = Endpoint::client(TransportConfig::default(), 1);
        let mut server: Endpoint<Peer> = Endpoint::server(TransportConfig::default(), alpns(), 2);
        let ch = client.connect(t(0), 20, alpns(), false);
        shuttle(&mut client, 10, &mut server, 20, t(0), 5);
        let sh = server.poll_incoming().unwrap();

        // A request the server has seen, kept for replay.
        let id = client.conn_mut(ch).unwrap().open_stream(Dir::Bi).unwrap();
        client.conn_mut(ch).unwrap().send_stream(id, b"a").unwrap();
        let (_, old) = client.poll_transmit(t(100)).unwrap();
        server.handle_datagram(t(105), 10, &old);
        shuttle(&mut client, 10, &mut server, 20, t(105), 5);
        assert_eq!(server.peer_of(sh), Some(10));

        // Undecodable bytes behind the connection's own header, then the
        // byte-exact replay, each from a third address: neither proves
        // the peer is there.
        let mut garbage = old.as_slice()[..10].to_vec();
        garbage.extend([0xFF; 24]);
        assert_eq!(crate::packet::peek_dcid(&garbage), peek_dcid_of(&old));
        server.handle_datagram(t(200), 66, &Payload::new(garbage));
        assert_eq!(server.peer_of(sh), Some(10), "garbage re-routed it");
        server.handle_datagram(t(200), 66, &old);
        assert_eq!(server.peer_of(sh), Some(10), "a replay re-routed it");
        server
            .conn_mut(sh)
            .unwrap()
            .send_stream(id, b"answer")
            .unwrap();
        let (to, answer) = server.poll_transmit(t(200)).unwrap();
        assert_eq!(to, 10, "the answer goes to the real peer");
        client.handle_datagram(t(205), 20, &answer);

        // A fresh packet from a new address: the peer did move.
        client.conn_mut(ch).unwrap().send_stream(id, b"b").unwrap();
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
        client.reap_closed();
        server.reap_closed();
        assert_eq!(client.connection_count(), 0);
        assert_eq!(server.connection_count(), 0);
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
}
