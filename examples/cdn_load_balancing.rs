//! CDN load balancing (paper §1/§5.3): a CDN flips its A record every few
//! seconds to steer clients; classic resolvers serve stale copies for up
//! to a TTL, subscribed resolvers follow every flip.
//!
//!     cargo run --example cdn_load_balancing
//!
//! Exits 1 (after a `MISSED:` line) when DNS over MoQT follows fewer than
//! all of the flips.

use moqdns::core::recursive::UpstreamMode;
use moqdns::core::stub::{StubMode, StubResolver};
use moqdns_bench::worlds::{World, WorldSpec, ZoneSpec};
use std::net::Ipv4Addr;
use std::time::Duration;

const TTL: u32 = 20; // the CDN cluster of Fig 1a's low-TTL mass
const FLIPS: u8 = 8;
const EDGE: &str = "edge.example.com";

fn run(moqt: bool) -> (usize, f64) {
    let spec = WorldSpec {
        seed: if moqt { 1 } else { 2 },
        mode: if moqt {
            UpstreamMode::Moqt
        } else {
            UpstreamMode::Classic
        },
        stub_mode: if moqt {
            StubMode::Moqt
        } else {
            StubMode::Classic
        },
        zones: vec![ZoneSpec::example(vec![("edge".into(), TTL)])],
        ..WorldSpec::default()
    };
    let mut w = World::build(&spec);
    w.lookup(0, EDGE, Duration::from_secs(5));

    // The CDN flips the record every 7 s; a classic client re-polls at the
    // TTL, a MoQT client just receives pushes.
    let mut seen_fresh = 0usize;
    let mut total_staleness = 0.0;
    for flip in 0..FLIPS {
        let addr = Ipv4Addr::new(198, 51, 100, 100 + flip);
        let change = w.set_a(EDGE, TTL, addr);
        if !moqt {
            // Classic: poll once per second until fresh (or the next flip).
            let target = moqdns::dns::rdata::RData::A(addr);
            let mut fresh_at = None;
            for _ in 0..7 {
                w.lookup(0, EDGE, Duration::from_secs(1));
                let stub = w.sim.node_ref::<StubResolver>(w.stubs[0]);
                if stub
                    .answer(&World::question(EDGE))
                    .map(|a| a.iter().any(|r| r.rdata == target))
                    .unwrap_or(false)
                {
                    fresh_at = Some(w.sim.now());
                    break;
                }
            }
            if let Some(t) = fresh_at {
                seen_fresh += 1;
                total_staleness += (t - change).as_secs_f64();
            }
            // run out the rest of the flip interval
            let deadline = change + Duration::from_secs(7);
            w.sim.run_until(deadline);
        } else {
            let deadline = change + Duration::from_secs(7);
            w.sim.run_until(deadline);
            let stub = w.sim.node_ref::<StubResolver>(w.stubs[0]);
            if let Some(u) = stub.metrics.updates.last() {
                if u.received >= change {
                    seen_fresh += 1;
                    total_staleness += (u.received - change).as_secs_f64();
                }
            }
        }
    }
    (seen_fresh, total_staleness / seen_fresh.max(1) as f64)
}

fn main() {
    println!("CDN flips edge.example.com every 7 s (TTL {TTL} s), {FLIPS} flips\n");
    let (classic_fresh, classic_stale) = run(false);
    let (moqt_fresh, moqt_stale) = run(true);
    println!(
        "classic DNS : followed {classic_fresh}/{FLIPS} flips, mean staleness {:.1} s",
        classic_stale
    );
    println!(
        "DNS over MoQT: followed {moqt_fresh}/{FLIPS} flips, mean staleness {:.3} s",
        moqt_stale
    );
    if moqt_fresh < FLIPS as usize {
        eprintln!("MISSED: DNS over MoQT followed only {moqt_fresh}/{FLIPS} flips");
        std::process::exit(1);
    }
    println!(
        "\nThe pub/sub resolver tracks every steering decision at push latency; \
         the classic one lags by up to a TTL and misses flips entirely when \
         they outpace it."
    );
}
