//! # moqdns-core — DNS over Media-over-QUIC Transport
//!
//! The paper's primary contribution, implemented end to end: a
//! publish-subscribe variant of DNS where resolvers SUBSCRIBE to records
//! and authoritative servers push updates as MoQT objects, with joining
//! FETCH for the initial lookup, happy-eyeballs fallback to classic DNS,
//! and configurable subscription teardown.
//!
//! Components (mirroring the paper's prototype, §5):
//!
//! * [`mapping`] — the DNS↔MoQT mapping of Fig 3 (question → namespace
//!   tuple + track name) and Fig 4 (response → object payload, group id =
//!   zone version, object id = 0);
//! * [`stack`] — shared glue that runs a QUIC endpoint + MoQT sessions
//!   inside a `moqdns-netsim` node;
//! * [`auth`] — an authoritative nameserver speaking classic DNS-over-UDP
//!   *and* DNS-over-MoQT as a relay with no links, pushing updates (§4.2);
//! * [`recursive`] — a recursive resolver: classic + MoQT downstream,
//!   iterative resolution upstream over classic UDP, MoQT, or a
//!   happy-eyeballs race (§4.5), with cache integration and update
//!   propagation to downstream subscribers;
//! * [`stub`] — a stub resolver client (classic or MoQT) that records
//!   its lookups and the updates pushed to it for the experiments;
//! * [`forwarder`] — the paper's forwarder: a classic DNS front end that
//!   forwards over MoQT (§5: "provides DNS over MoQT functionality
//!   directly at the client … enabling backwards compatibility");
//! * [`relay_node`] — a MoQT relay wired into the simulator, using
//!   `moqdns_moqt::relay::RelayCore` for aggregation + caching (§3), a
//!   `Route` for per-track parent selection (§5.3 relay trees), and an
//!   optional peer federation (cross-region cores serving each other
//!   instead of the origin);
//! * [`links`] — the subscriber side, written once: one upstream
//!   [`links::Link`] (dial, subscribe, fetch, redial, replay) under the
//!   relay, the stub, the forwarder and the leaf stub, and
//!   [`links::Newest`], the "newest version wins" rule;
//! * [`tree_stub`] — the bare subscriber leaf of the relay worlds;
//! * [`teardown`] — subscription clean-up policies (§4.4);
//! * [`metrics`] — lookup, update and traffic counters the experiments
//!   read (staleness is computed from them, by `moqdns_bench::paper`);
//! * [`adversary`] — hostile drill nodes (byzantine relay client,
//!   slow-loris subscriber, fetch bomber) that exercise the hardening
//!   paths from the wire side.

pub mod adversary;
pub mod auth;
pub mod forwarder;
pub mod links;
pub mod mapping;
pub mod metrics;
pub mod recursive;
pub mod relay_node;
pub mod stack;
pub mod stub;
pub mod teardown;
pub mod tree_stub;

pub use auth::AuthServer;
pub use forwarder::Forwarder;
pub use links::Links;
pub use mapping::{
    object_from_response, question_from_track, response_from_object, track_from_question,
};
pub use recursive::{RecursiveResolver, UpstreamMode};
pub use relay_node::RelayNode;
pub use stub::{StubMode, StubResolver};
pub use teardown::TeardownPolicy;
pub use tree_stub::TreeStub;

/// UDP port for classic DNS in the simulated world.
pub const DNS_PORT: u16 = 53;
/// UDP port for MoQT-over-QUIC in the simulated world.
pub const MOQT_PORT: u16 = 8443;

/// Synthetic IPv4 address for a simulated node (`10.x.y.z` from the node
/// index). Lets the DNS substrate keep using real `IpAddr` glue records.
pub fn node_ip(node: moqdns_netsim::NodeId) -> std::net::Ipv4Addr {
    let i = node.index() as u32;
    std::net::Ipv4Addr::from(0x0A00_0000 | (i & 0x00FF_FFFF))
}

/// Inverse of [`node_ip`].
pub fn ip_node(ip: std::net::Ipv4Addr) -> moqdns_netsim::NodeId {
    let v = u32::from(ip) & 0x00FF_FFFF;
    moqdns_netsim::NodeId::from_index(v as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ip_roundtrip() {
        let id = moqdns_netsim::NodeId::from_index(42);
        let ip = node_ip(id);
        assert_eq!(ip, std::net::Ipv4Addr::new(10, 0, 0, 42));
        assert_eq!(ip_node(ip), id);
    }

    #[test]
    fn node_ip_wide_range() {
        let id = moqdns_netsim::NodeId::from_index(0x01_02_03);
        let ip = node_ip(id);
        assert_eq!(ip, std::net::Ipv4Addr::new(10, 1, 2, 3));
        assert_eq!(ip_node(ip), id);
    }
}
