//! Endpoint: connection demultiplexing, server accept, ticket store.
//!
//! An [`Endpoint`] owns many [`Connection`]s and routes datagrams to them by
//! connection id. It is generic over the peer-address type `P` so the same
//! code runs over `moqdns-netsim` addresses ([`moqdns_netsim::Addr`]) and
//! real `std::net::SocketAddr`s.
//!
//! The client-side **ticket store** remembers the most recent resumption
//! ticket per (server, ALPN) so later connections can attempt 0-RTT — the
//! second latency optimization of paper §5.2.

use crate::config::TransportConfig;
use crate::connection::{Alpn, AlpnList, Connection, Event, Side};
use crate::handshake::Ticket;
use moqdns_netsim::SimTime;
use moqdns_wire::Payload;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::Hash;

/// Re-exported ticket type for public API convenience.
pub type SessionTicket = Ticket;

/// One row of [`Endpoint::state_breakdown`]: `(cid, estimate_bytes,
/// send_streams, recv_streams, tracked_packets)`.
pub type ConnStateRow = (u64, usize, usize, usize, usize);

/// Handle identifying a connection within an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnHandle(pub u64);

/// A multi-connection QUIC endpoint.
pub struct Endpoint<P> {
    config: TransportConfig,
    /// ALPNs a server accepts; ignored for pure clients.
    server_alpn: AlpnList,
    /// Whether this endpoint accepts incoming connections.
    is_server: bool,
    connections: BTreeMap<ConnHandle, (Connection, P)>,
    by_cid: BTreeMap<u64, ConnHandle>,
    next_cid: u64,
    /// Client ticket store: (peer, alpn) -> ticket. Keys are shared
    /// [`Alpn`] handles — storing or probing a ticket never copies the
    /// protocol string.
    tickets: BTreeMap<(P, Alpn), Ticket>,
    /// Pending (handle, event) pairs for the application.
    events: VecDeque<(ConnHandle, Event)>,
    /// Accepted-but-unreported incoming connections.
    incoming: VecDeque<ConnHandle>,
    /// Connections that may have datagrams to send and whose timer
    /// deadline may be stale: every mutating touch (connect, ingest,
    /// timeout, `conn_mut`) marks here, and `poll_transmit` clears a
    /// handle once it polls to `None`. Ordered so transmit order stays
    /// the deterministic lowest-handle-first of the full scan this
    /// replaces — without re-sorting every connection on every call.
    dirty: BTreeSet<ConnHandle>,
    /// Timer deadlines of non-dirty connections, ordered: `poll_timeout`
    /// and `handle_timeout` read the front instead of scanning all
    /// connections.
    deadlines: BTreeSet<(SimTime, ConnHandle)>,
    deadline_of: BTreeMap<ConnHandle, SimTime>,
    /// Connections observed `Closed`, awaiting `reap_closed`.
    closed_pending: Vec<ConnHandle>,
}

impl<P: Copy + Eq + Hash + Ord> Endpoint<P> {
    /// Creates a client-only endpoint.
    pub fn client(config: TransportConfig, cid_seed: u64) -> Endpoint<P> {
        Endpoint {
            config,
            server_alpn: AlpnList::from([]),
            is_server: false,
            connections: BTreeMap::new(),
            by_cid: BTreeMap::new(),
            next_cid: cid_seed.wrapping_mul(2_654_435_761).max(1),
            tickets: BTreeMap::new(),
            events: VecDeque::new(),
            incoming: VecDeque::new(),
            dirty: BTreeSet::new(),
            deadlines: BTreeSet::new(),
            deadline_of: BTreeMap::new(),
            closed_pending: Vec::new(),
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

    /// Marks a connection as possibly-sendable / deadline-stale.
    fn mark_dirty(&mut self, h: ConnHandle) {
        self.dirty.insert(h);
    }

    /// Re-indexes `h`'s timer deadline from its connection state.
    fn refresh_deadline(&mut self, h: ConnHandle) {
        if let Some(t) = self.deadline_of.remove(&h) {
            self.deadlines.remove(&(t, h));
        }
        if let Some((c, _)) = self.connections.get(&h) {
            if let Some(t) = c.poll_timeout() {
                self.deadlines.insert((t, h));
                self.deadline_of.insert(h, t);
            }
        }
    }

    /// Drops a connection from every index.
    fn forget(&mut self, h: ConnHandle) {
        if let Some((c, _)) = self.connections.remove(&h) {
            self.by_cid.remove(&c.cid());
        }
        self.dirty.remove(&h);
        if let Some(t) = self.deadline_of.remove(&h) {
            self.deadlines.remove(&(t, h));
        }
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
        // The handle IS the cid, so a client cid colliding with the cid of
        // a connection this endpoint already holds (e.g. one *accepted*
        // from a peer whose cid generator shares our seed) would silently
        // overwrite that connection's state. Skip over taken cids.
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
            .find_map(|a| Some((a.clone(), self.tickets.get(&(peer, a.clone()))?.clone())))
            .unzip();
        let mut conn = Connection::client(cid, self.config.clone(), alpn, ticket, now);
        if let Some(a) = resumed {
            conn.resume_under(a);
        }
        let handle = ConnHandle(cid);
        self.connections.insert(handle, (conn, peer));
        self.by_cid.insert(cid, handle);
        self.mark_dirty(handle);
        handle
    }

    /// True if a resumption ticket is stored for `peer` + `alpn` (0-RTT
    /// possible on the next connect). Allocation-free: the tiny store is
    /// probed by content, not by a freshly built key.
    pub fn has_ticket(&self, peer: P, alpn: &[u8]) -> bool {
        self.tickets
            .keys()
            .any(|(p, a)| *p == peer && a.as_ref() == alpn)
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
        let handle = match self.by_cid.get(&cid) {
            Some(h) => *h,
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
                let handle = ConnHandle(cid);
                self.connections.insert(handle, (conn, from));
                self.by_cid.insert(cid, handle);
                self.incoming.push_back(handle);
                self.mark_dirty(handle);
                handle
            }
        };
        if let Some((conn, peer)) = self.connections.get_mut(&handle) {
            *peer = from; // track migration
            conn.handle_datagram(now, data);
            let p = *peer;
            Self::drain_conn_events(
                handle,
                conn,
                p,
                &mut self.tickets,
                &mut self.events,
                &mut self.closed_pending,
            );
            self.mark_dirty(handle);
        }
    }

    fn drain_conn_events(
        handle: ConnHandle,
        conn: &mut Connection,
        peer: P,
        tickets: &mut BTreeMap<(P, Alpn), Ticket>,
        events: &mut VecDeque<(ConnHandle, Event)>,
        closed_pending: &mut Vec<ConnHandle>,
    ) {
        while let Some(ev) = conn.poll_event() {
            match &ev {
                Event::TicketIssued(t) if conn.side() == Side::Client => {
                    if let Some(alpn) = conn.alpn_handle() {
                        tickets.insert((peer, alpn.clone()), t.clone());
                    }
                }
                Event::Closed { .. } => closed_pending.push(handle),
                _ => {}
            }
            events.push_back((handle, ev));
        }
    }

    /// Moves the events `h` raised outside ingest, timeout and transmit —
    /// an application `close` through [`Endpoint::conn_mut`] — into the
    /// endpoint queue, so the owner can see a `Closed` it caused before it
    /// transmits instead of after.
    pub fn surface_events(&mut self, h: ConnHandle) {
        if let Some((conn, peer)) = self.connections.get_mut(&h) {
            Self::drain_conn_events(
                h,
                conn,
                *peer,
                &mut self.tickets,
                &mut self.events,
                &mut self.closed_pending,
            );
        }
    }

    /// Next accepted incoming connection, if any.
    pub fn poll_incoming(&mut self) -> Option<ConnHandle> {
        self.incoming.pop_front()
    }

    /// Next application event across all connections.
    pub fn poll_event(&mut self) -> Option<(ConnHandle, Event)> {
        self.events.pop_front()
    }

    /// Builds the next outgoing `(peer, datagram)` pair across connections.
    /// Call until `None`. Only *dirty* connections (touched since they
    /// last drained) are scanned, lowest handle first — the same
    /// deterministic order as the full sorted scan this replaces, since
    /// an untouched connection has nothing to send.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<(P, Payload)> {
        while let Some(&h) = self.dirty.iter().next() {
            let Some((conn, peer)) = self.connections.get_mut(&h) else {
                self.dirty.remove(&h);
                continue;
            };
            if let Some(dg) = conn.poll_transmit(now) {
                let p = *peer;
                Self::drain_conn_events(
                    h,
                    conn,
                    p,
                    &mut self.tickets,
                    &mut self.events,
                    &mut self.closed_pending,
                );
                return Some((p, dg));
            }
            // Drained: its deadline is current again; stop scanning it.
            if conn.is_closed() {
                self.closed_pending.push(h);
            }
            self.dirty.remove(&h);
            self.refresh_deadline(h);
        }
        None
    }

    /// Brings the deadline index up to date for every dirty connection
    /// (they stay dirty for transmit purposes).
    fn refresh_dirty_deadlines(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let dirty: Vec<ConnHandle> = self.dirty.iter().copied().collect();
        for h in dirty {
            self.refresh_deadline(h);
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
        let due: Vec<ConnHandle> = self
            .deadlines
            .iter()
            .take_while(|&&(t, _)| t <= now)
            .map(|&(_, h)| h)
            .collect();
        for h in due {
            if let Some((conn, peer)) = self.connections.get_mut(&h) {
                conn.handle_timeout(now);
                let p = *peer;
                Self::drain_conn_events(
                    h,
                    conn,
                    p,
                    &mut self.tickets,
                    &mut self.events,
                    &mut self.closed_pending,
                );
                self.mark_dirty(h);
            }
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
        while let Some(h) = self.closed_pending.pop() {
            if self.connections.get(&h).is_some_and(|(c, _)| c.is_closed()) {
                self.forget(h);
            }
        }
    }

    /// Access a connection by handle. The connection is marked dirty —
    /// the caller may write into it, making it sendable.
    pub fn conn_mut(&mut self, h: ConnHandle) -> Option<&mut Connection> {
        if self.connections.contains_key(&h) {
            self.mark_dirty(h);
        }
        self.connections.get_mut(&h).map(|(c, _)| c)
    }

    /// Immutable access to a connection.
    pub fn conn(&self, h: ConnHandle) -> Option<&Connection> {
        self.connections.get(&h).map(|(c, _)| c)
    }

    /// The peer address of a connection.
    pub fn peer_of(&self, h: ConnHandle) -> Option<P> {
        self.connections.get(&h).map(|(_, p)| *p)
    }

    /// Number of live connections (E9 state accounting).
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }

    /// Per-connection composition — diagnostics for the adversarial
    /// drills (which connection is the state hiding in?).
    pub fn state_breakdown(&self) -> Vec<ConnStateRow> {
        self.connections
            .values()
            .map(|(c, _)| {
                let (s, r, t) = c.state_breakdown();
                (c.cid(), c.state_size_estimate(), s, r, t)
            })
            .collect()
    }

    /// Sum of per-connection state estimates (E9).
    pub fn state_size_estimate(&self) -> usize {
        self.connections
            .values()
            .map(|(c, _)| c.state_size_estimate())
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
