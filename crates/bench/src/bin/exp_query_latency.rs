//! E3 — §5.2: first-lookup query latency in round trips.
//!
//! Measures, in the simulator (symmetric links, fixed one-way delay), the
//! stub-observed latency of the first lookup under each transport
//! configuration, and converts it to round trips on the stub↔recursive
//! path. Every row is the same stub code; what differs is the peer it
//! meets and whether it holds a ticket:
//!
//! | configuration                | RTT | source                                         |
//! |------------------------------|-----|------------------------------------------------|
//! | classic UDP                  | 1   | paper §5.2                                     |
//! | MoQT cold (strict)           | 3   | paper: QUIC + SETUP + SUBSCRIBE                |
//! | MoQT cold, version in ALPN   | 2   | implied by the paper's third optimization, not listed: QUIC, then SETUP + SUBSCRIBE in one flight |
//! | MoQT 0-RTT resume (strict)   | 2   | paper: SETUP rides 0-RTT                       |
//! | MoQT 0-RTT + version in ALPN | 1   | paper: 0-RTT and "version negotiation in ALPN" |
//! | MoQT warm session            | 1   | paper                                          |
//! | MoQT subscribed (pushed)     | 0   | paper: the answer is local                     |
//!
//! The *strict* rows run against a recursive resolver that speaks only
//! the draft-12 ALPN token (`moqdns_moqt::MOQT_ALPN_UNVERSIONED`), which
//! names no version: the stub's session then keeps the draft-12 order and
//! waits for SERVER_SETUP, which is what the paper measured. The other
//! MoQT rows are the default — both ends offer the versioned token. Nothing
//! else differs; there is no pipelining switch.
//!
//! A row whose measured RTT column differs from its expected column fails
//! the run: it panics, or with `--check` is recorded in
//! `results/ci_query_latency.json` and the process exits nonzero (CI's
//! `check` job runs that).
//!
//! The recursive resolver's cache is pre-warmed so the upstream chain does
//! not add round trips; a second table reports the full cold chain
//! (recursive also resolving root → TLD → auth).

use moqdns_bench::cli::BenchOpts;
use moqdns_bench::gate::InvariantGate;
use moqdns_bench::report;
use moqdns_bench::worlds::{World, WorldSpec};
use moqdns_core::recursive::{RecursiveResolver, UpstreamMode};
use moqdns_core::stack::StackNode;
use moqdns_core::stub::{StubMode, StubResolver};
use moqdns_moqt::MOQT_ALPN_UNVERSIONED;
use moqdns_quic::alpn_list;
use moqdns_stats::Table;
use std::time::Duration;

const OWD_MS: u64 = 25; // one-way delay → RTT = 50 ms.
const RTT_MS: f64 = 2.0 * OWD_MS as f64;
const SETTLE: Duration = Duration::from_secs(5);

/// What stub 0 does; the last lookup it issues is the one measured.
#[derive(Clone, Copy)]
enum Lookup {
    /// Its first lookup: no connection, no ticket.
    First,
    /// A lookup on a new connection with a ticket: a first lookup stores
    /// one, then the device suspends (§4.4: connection and subscriptions
    /// silently gone) and looks the name up again.
    Resumed,
    /// A different name on the session the first lookup set up.
    Warm,
    /// The same name again: already subscribed.
    Repeat,
}

/// The hierarchy world with two stubs. When `strict`, the recursive
/// resolver is a draft-12 peer: it accepts (and, upstream, offers) only
/// the unversioned token.
fn world(upstream: UpstreamMode, stub_mode: StubMode, strict: bool, seed: u64) -> World {
    let mut w = World::build(&WorldSpec {
        seed,
        link_delay: Duration::from_millis(OWD_MS),
        mode: upstream,
        stub_mode,
        n_stubs: 2,
        records: vec![("www".into(), 300), ("api".into(), 300)],
        ..WorldSpec::default()
    });
    if strict {
        w.sim
            .with_node::<RecursiveResolver, _>(w.recursive, |r, _| {
                r.stack().speak_only(alpn_list(&[MOQT_ALPN_UNVERSIONED]));
            });
    }
    w
}

/// Latency (ms) of the last lookup stub 0 recorded.
fn last_lookup_ms(w: &World) -> f64 {
    let s = w.sim.node_ref::<StubResolver>(w.stubs[0]);
    let l = s.metrics.lookups.last().expect("lookup recorded");
    assert!(l.ok, "lookup must succeed");
    l.latency().as_secs_f64() * 1e3
}

/// One row of the warm-cache table: stub 1 warms the recursive's cache
/// and upstream subscriptions, then stub 0 does `lookup`.
fn measure(stub_mode: StubMode, strict: bool, seed: u64, lookup: Lookup) -> f64 {
    let mut w = world(UpstreamMode::Moqt, stub_mode, strict, seed);
    w.lookup(1, "www", SETTLE);
    w.lookup(1, "api", SETTLE);
    w.lookup(0, "www", SETTLE);
    match lookup {
        Lookup::First => {}
        Lookup::Resumed => {
            w.sim.with_node::<StubResolver, _>(w.stubs[0], |s, _| {
                s.debug_drop_connection();
                s.debug_forget_subscriptions();
            });
            w.lookup(0, "www", SETTLE);
        }
        Lookup::Warm => w.lookup(0, "api", SETTLE),
        Lookup::Repeat => w.lookup(0, "www", SETTLE),
    }
    last_lookup_ms(&w)
}

fn main() {
    let opts = BenchOpts::from_args();
    let mut gate = InvariantGate::new("query_latency", &opts);
    report::heading("E3 / §5.2 — first-lookup latency (RTT on the stub↔recursive path)");

    let mut t = Table::new(
        format!("First lookup, recursive cache warm (link RTT = {RTT_MS} ms)"),
        &["configuration", "latency_ms", "RTTs", "expected"],
    );
    use Lookup::*;
    use StubMode::*;
    let rows = [
        ("classic UDP", Classic, false, First, 1),
        ("MoQT cold (strict)", Moqt, true, First, 3),
        ("MoQT cold, version in ALPN", Moqt, false, First, 2),
        ("MoQT 0-RTT resume (strict)", Moqt, true, Resumed, 2),
        ("MoQT 0-RTT + version in ALPN", Moqt, false, Resumed, 1),
        ("MoQT warm session", Moqt, false, Warm, 1),
        ("MoQT subscribed (pushed)", Moqt, false, Repeat, 0),
    ];
    for (i, (label, stub_mode, strict, lookup, expected)) in rows.into_iter().enumerate() {
        let ms = measure(stub_mode, strict, 10 + i as u64, lookup);
        let rtts = format!("{:.1}", ms / RTT_MS);
        gate.check_eq(label, format!("{expected}.0"), rtts.clone());
        t.push(&[
            label.to_string(),
            format!("{ms:.1}"),
            rtts,
            expected.to_string(),
        ]);
    }
    report::emit(&t, "exp_query_latency");

    // Full cold chain: the recursive also resolves root → TLD → auth.
    let mut t2 = Table::new(
        "First lookup, everything cold (recursive resolves the full chain)",
        &["configuration", "latency_ms", "RTTs"],
    );
    for (label, upstream, stub_mode, strict) in [
        ("classic end-to-end", UpstreamMode::Classic, Classic, false),
        ("MoQT end-to-end (strict)", UpstreamMode::Moqt, Moqt, true),
        (
            "MoQT end-to-end, version in ALPN",
            UpstreamMode::Moqt,
            Moqt,
            false,
        ),
    ] {
        let mut w = world(upstream, stub_mode, strict, 20);
        w.lookup(0, "www", Duration::from_secs(10));
        let ms = last_lookup_ms(&w);
        t2.push(&[
            label.to_string(),
            format!("{ms:.1}"),
            format!("{:.1}", ms / RTT_MS),
        ]);
    }
    report::emit(&t2, "exp_query_latency_cold_chain");
    gate.finish();
}
