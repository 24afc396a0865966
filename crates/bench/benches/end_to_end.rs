//! Criterion macro-benchmark: a complete simulated DNS-over-MoQT world per
//! iteration — build the hierarchy, resolve a name end to end (classic vs
//! MoQT), push one update. Measures the whole-stack event-processing cost,
//! which bounds how large the traffic experiments can scale.

use criterion::{criterion_group, criterion_main, Criterion};
use moqdns_bench::worlds::{World, WorldSpec};
use moqdns_core::recursive::UpstreamMode;
use moqdns_core::stub::{StubMode, StubResolver};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Duration;

const WWW: &str = "www.example.com";

fn bench_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2e");
    g.sample_size(20);
    g.bench_function("classic_full_lookup", |b| {
        b.iter(|| {
            let spec = WorldSpec {
                seed: 1,
                mode: UpstreamMode::Classic,
                stub_mode: StubMode::Classic,
                ..WorldSpec::default()
            };
            let mut w = World::build(&spec);
            w.lookup(0, WWW, Duration::from_secs(3));
            let stub = w.sim.node_ref::<StubResolver>(w.stubs[0]);
            assert!(stub.metrics.lookups[0].ok);
            black_box(w.sim.now())
        })
    });
    g.bench_function("moqt_full_lookup", |b| {
        b.iter(|| {
            let spec = WorldSpec {
                seed: 1,
                ..WorldSpec::default()
            };
            let mut w = World::build(&spec);
            w.lookup(0, WWW, Duration::from_secs(3));
            let stub = w.sim.node_ref::<StubResolver>(w.stubs[0]);
            assert!(stub.metrics.lookups[0].ok);
            black_box(w.sim.now())
        })
    });
    g.bench_function("moqt_lookup_plus_update_push", |b| {
        b.iter(|| {
            let spec = WorldSpec {
                seed: 1,
                ..WorldSpec::default()
            };
            let mut w = World::build(&spec);
            w.lookup(0, WWW, Duration::from_secs(3));
            w.set_a(WWW, 300, Ipv4Addr::new(198, 51, 100, 42));
            w.sim.run_for(Duration::from_secs(1));
            let stub = w.sim.node_ref::<StubResolver>(w.stubs[0]);
            assert!(!stub.metrics.updates.is_empty());
            black_box(w.sim.now())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_lookup);
criterion_main!(benches);
