//! Deep space DNS (paper §5.3, IETF TIPTOP): replicate records to Mars via
//! pub/sub so lookups don't pay interplanetary round trips. The world is
//! the gated `deep_space` scenario's (`moqdns_bench::paper::mars`).
//!
//!     cargo run --example deep_space

use moqdns::core::recursive::UpstreamMode;
use moqdns::core::stub::{StubMode, StubResolver};
use moqdns::stats::format_duration;
use moqdns_bench::paper::{mars, MARS_OWD};
use moqdns_bench::worlds::World;
use std::net::Ipv4Addr;
use std::time::Duration;

const WWW: &str = "www.example.com";

fn main() {
    println!(
        "Mars ↔ Earth one-way light delay: {}\n",
        format_duration(MARS_OWD.as_secs_f64())
    );

    // Stub + recursive live on Mars; the hierarchy is on Earth.
    let mut w = World::build(&mars(UpstreamMode::Moqt, StubMode::Moqt, 9));

    println!("resolving www.example.com from Mars (cold, full chain)...");
    w.lookup(0, WWW, Duration::from_secs(12 * 3600));
    let stub = w.sim.node_ref::<StubResolver>(w.stubs[0]);
    println!(
        "  first lookup : {} (pays interplanetary session setup per level)",
        format_duration(stub.metrics.lookups[0].latency().as_secs_f64())
    );

    w.lookup(0, WWW, Duration::from_secs(60));
    let stub = w.sim.node_ref::<StubResolver>(w.stubs[0]);
    println!(
        "  second lookup: {} (record replicated on Mars)",
        format_duration(stub.metrics.lookups[1].latency().as_secs_f64())
    );

    let change = w.set_a(None, WWW, 300, Ipv4Addr::new(198, 51, 100, 123));
    w.sim.run_for(Duration::from_secs(2 * 3600));
    let stub = w.sim.node_ref::<StubResolver>(w.stubs[0]);
    let arrival = stub.metrics.updates.last().unwrap().received;
    println!(
        "  record update: pushed Earth → Mars in {} (one light delay)",
        format_duration((arrival - change).as_secs_f64())
    );
    println!(
        "\nActive replication is the only way a Mars resolver can be \"fresh\": \
         polling at any TTL would either hammer the link or serve stale data."
    );
}
