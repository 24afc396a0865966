//! # moqdns-quic
//!
//! A from-scratch, sans-io, QUIC-like transport protocol.
//!
//! This is the substrate the paper's prototype took from `quic-go`. It is
//! *QUIC-like*: the wire format is QUIC-shaped (varint frames, packet
//! numbers, ACK ranges, stream/flow-control/datagram frames) but there is
//! no real TLS — the handshake exchanges simulated ClientHello/ServerHello
//! flights that preserve everything the paper's analysis depends on:
//!
//! * **1-RTT connection establishment** (Initial → handshake reply) before
//!   application data flows (paper §5.2: "one round-trip for the QUIC
//!   connection");
//! * **session tickets and 0-RTT**: a returning client sends application
//!   data in its first flight (§5.2: "0-RTT allows sending application
//!   data in the first round-trip");
//! * **ALPN negotiation** carried in the first flight (§5.2's third
//!   optimization moves MoQT version negotiation into ALPN);
//! * ordered, reliable, flow-controlled **streams** (bidi + uni), which
//!   DNS-over-MoQT uses exclusively "to avoid losing messages due to the
//!   unreliability of datagrams" (§4.1). Unidirectional streams — one
//!   per object — run on **stream credit** (RFC 9000 §4.6): `max_streams`
//!   bounds how many are open at once, and MAX_STREAMS replenishes it as
//!   streams are read, so a connection carries objects for as long as it
//!   lives. Bidirectional streams keep a fixed cap of `max_streams`: a
//!   MoQT session opens one, its control stream, and never another
//!   ([`connection`] module docs);
//! * the RFC 9221 **unreliable datagram extension**, implemented for the
//!   streams-vs-datagrams ablation;
//! * loss recovery (packet + time threshold, PTO), RTT estimation, a simple
//!   congestion window, **idle timeout and keep-alives** (§5.1: endpoints
//!   "should regularly test the liveness of the connection").
//!
//! Architecture follows the quinn-proto/smoltcp idiom: [`Connection`] and
//! [`Endpoint`] are pure state machines driven by `handle_datagram` /
//! `handle_timeout` / `poll_transmit` / `poll_event`. The drivers live
//! elsewhere: the deterministic simulator and the live runtime in
//! `moqdns-netsim`, real sockets in `moqdns-relayd` (on [`udp_batch`]).

pub mod config;
pub mod connection;
pub mod endpoint;
pub mod frame;
pub mod handshake;
mod index;
pub mod packet;
pub mod recovery;
pub mod streams;
pub mod udp_batch;

pub use config::{TransportConfig, MAX_UDP_PAYLOAD};
pub use connection::{
    alpn_list, Alpn, AlpnList, ConnState, Connection, ConnectionError, Event, Ingest, Side,
    TransportError,
};
pub use endpoint::{ConnHandle, ConnStateRow, DropReason, Endpoint, Faults};
pub use streams::{Dir, StreamId};
