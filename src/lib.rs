//! # moqdns — DNS over Media-over-QUIC Transport
//!
//! A complete, from-scratch implementation of the publish-subscribe DNS
//! variant proposed in *"From req/res to pub/sub: Exploring Media over
//! QUIC Transport for DNS"* (Engelbart, Kosek, Eggert, Ott — HotNets '25),
//! including every substrate it rides on:
//!
//! | layer | crate | what it is | perf notes |
//! |---|---|---|---|
//! | facade | `moqdns` (this crate) | re-exports + examples + integration tests | — |
//! | contribution | [`core`] | DNS↔MoQT mapping, MoQT authoritative server, recursive resolver, stub, forwarder, relay node, teardown, fallback | `object_from_response` encodes once and patches the id bytes; auth pushes encode once per track, shared across subscribers |
//! | pub/sub | [`moqt`] | MoQT (draft-ietf-moq-transport-12 subset): sessions, subscribe/fetch, objects, relays | relay fan-out clones payload *handles*, not bytes — publish is O(1) in subscriber count for bytes copied; sessions encode into the thread's scratch buffers (`wire::pool::with_scratch`), holding none of their own |
//! | transport | [`quic`] | sans-io QUIC-like transport: 1-RTT handshake, 0-RTT resumption, streams, recovery, datagrams | packets sized arithmetically and encoded once per transmit; datagram frames carry shared [`wire::Payload`] handles |
//! | naming | [`dns`] | DNS: wire format, zones + version numbers, caches, iterative resolution, classic UDP | cache is sharded with a heap expiry index + intrusive LRU: insert-at-capacity is O(log n), with no full-map scan |
//! | world | [`netsim`] | deterministic discrete-event network simulator | — |
//! | inputs | [`workload`] | synthetic toplist/TTL/churn models calibrated to the paper's Fig 1a/1b | — |
//! | output | [`stats`] | summaries, CDFs, tables | — |
//! | substrate | [`wire`] | varints, cursors, [`wire::Payload`] (Arc slice handles), [`wire::BufPool`] | `Payload::clone` is a refcount bump; `Writer::reuse` + one pool per thread make steady-state encodes allocation-free; `wire::VecMap` keeps the small per-connection tables to the entries they hold |
//!
//! ## Quickstart
//!
//! ```
//! use moqdns::core::auth::AuthServer;
//! use moqdns::core::stub::{StubMode, StubResolver};
//! use moqdns::core::recursive::{RecursiveConfig, RecursiveResolver, UpstreamMode};
//! use moqdns::core::node_ip;
//! use moqdns::dns::message::Question;
//! use moqdns::dns::rdata::RData;
//! use moqdns::dns::resolver::RootHint;
//! use moqdns::dns::rr::{Record, RecordType};
//! use moqdns::dns::server::Authority;
//! use moqdns::dns::zone::Zone;
//! use moqdns::netsim::{Addr, NodeId, Simulator};
//! use moqdns::quic::TransportConfig;
//! use std::net::IpAddr;
//! use std::time::Duration;
//!
//! // A one-zone world: an authoritative server, a resolver, a stub.
//! let mut sim = Simulator::new(7);
//! let mut zone = Zone::with_default_soa("example.com".parse().unwrap());
//! zone.add_record(Record::new(
//!     "www.example.com".parse().unwrap(),
//!     300,
//!     RData::A("192.0.2.1".parse().unwrap()),
//! ));
//! let auth = sim.add_node(
//!     "auth",
//!     Box::new(AuthServer::new(Authority::single(zone), TransportConfig::default(), 1)),
//! );
//! let roots = vec![RootHint {
//!     name: "ns1.example.com".parse().unwrap(),
//!     addr: IpAddr::V4(node_ip(auth)),
//! }];
//! let recursive = sim.add_node(
//!     "recursive",
//!     Box::new(RecursiveResolver::new(RecursiveConfig::new(UpstreamMode::Moqt, roots, 2))),
//! );
//! let stub = sim.add_node(
//!     "stub",
//!     Box::new(StubResolver::new(StubMode::Moqt, Addr::new(recursive, 0), 3)),
//! );
//! sim.run_until_idle();
//!
//! // Look up www.example.com over MoQT (subscribe + joining fetch).
//! let q = Question::new("www.example.com".parse().unwrap(), RecordType::A);
//! sim.with_node::<StubResolver, _>(stub, |s, ctx| s.lookup(ctx, q.clone()));
//! sim.run_for(Duration::from_secs(5));
//!
//! let s = sim.node_ref::<StubResolver>(stub);
//! assert!(s.metrics.lookups[0].ok);
//! assert_eq!(s.subscription_count(), 1, "subscribed for future updates");
//! ```

pub use moqdns_core as core;
pub use moqdns_dns as dns;
pub use moqdns_moqt as moqt;
pub use moqdns_netsim as netsim;
pub use moqdns_quic as quic;
pub use moqdns_stats as stats;
pub use moqdns_wire as wire;
pub use moqdns_workload as workload;
