//! Quickstart: the paper's Fig 2 lookup sequence plus an update push,
//! end to end, in one deterministic simulated world.
//!
//!     cargo run --example quickstart
//!
//! Builds root → TLD → authoritative servers, a recursive resolver and a
//! stub (all speaking DNS-over-MoQT), resolves `www.example.com`, then
//! changes the record at the authoritative server and watches the update
//! arrive at the stub without any new lookup.

use moqdns::core::auth::AuthServer;
use moqdns::core::stub::StubResolver;
use moqdns_bench::worlds::{World, WorldSpec};
use std::net::Ipv4Addr;
use std::time::Duration;

const WWW: &str = "www.example.com";

fn main() {
    let spec = WorldSpec::default(); // MoQT everywhere, 10 ms links
    let mut world = World::build(&spec);
    println!("world: root, .com TLD, example.com auth, recursive, 1 stub\n");

    // 1. First lookup: QUIC + MoQT session + SUBSCRIBE/FETCH per Fig 2.
    world.lookup(0, WWW, Duration::from_secs(5));
    let stub = world.sim.node_ref::<StubResolver>(world.stubs[0]);
    let lookup = &stub.metrics.lookups[0];
    println!(
        "first lookup : {:>8.1} ms  ok={} (subscribe + joining fetch through the chain)",
        lookup.latency().as_secs_f64() * 1e3,
        lookup.ok
    );
    let answer = stub.answer(&World::question(WWW)).unwrap();
    println!("answer       : {}", answer[0]);
    println!("subscriptions: {}", stub.subscription_count());

    // 2. Second lookup: answered locally — zero network round trips (§5.2).
    world.lookup(0, WWW, Duration::from_secs(1));
    let stub = world.sim.node_ref::<StubResolver>(world.stubs[0]);
    println!(
        "\nsecond lookup: {:>8.1} ms  (answered from the live subscription)",
        stub.metrics.lookups[1].latency().as_secs_f64() * 1e3
    );

    // 3. The record changes at the authoritative server → pushed to the
    //    stub through the recursive resolver (§4.2).
    let change_time = world.set_a(WWW, 300, Ipv4Addr::new(198, 51, 100, 99));
    world.sim.run_for(Duration::from_secs(2));
    let stub = world.sim.node_ref::<StubResolver>(world.stubs[0]);
    let update = stub.metrics.updates.last().expect("update pushed");
    println!(
        "\nrecord update: pushed to the stub {:.1} ms after the zone changed",
        (update.received - change_time).as_secs_f64() * 1e3
    );
    println!(
        "new answer   : {}",
        stub.answer(&World::question(WWW)).unwrap()[0]
    );

    let auth = world.sim.node_ref::<AuthServer>(world.auths[0]);
    println!(
        "\nauthoritative: {} subscription(s), {} update object(s) pushed",
        auth.subscription_count(),
        auth.stats().objects_forwarded
    );
    println!("\nNo TTL was waited on. That is the paper's point.");
}
