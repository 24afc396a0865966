//! Criterion micro-benchmarks: the simulator driving whole worlds. The
//! bare event loop and timer churn are the benchmark's
//! `netsim.event_loop_events_per_s` and `netsim.timer_churn_ns` rigs.
//!
//! * `federation_stampede` / `federation_update_round` — the standing
//!   cross-region federation world built (joining-fetch stampede) and
//!   driven through one full update round, in-process so wall-clock
//!   comparisons are free of process startup noise. Elements =
//!   deliveries, so the report reads in deliveries/sec.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use moqdns_bench::plans;
use moqdns_bench::worlds::RelayWorld;
use moqdns_workload::scenarios::MetroScenario;
use std::hint::black_box;

fn bench_federation_world(c: &mut Criterion) {
    let world = || RelayWorld::from_plan(plans::federation(false), 91, 1);
    // One stampede, and one round, is a fetch, or a delivery, for every
    // subscription.
    let subscriptions = plans::federation(false).demand().subscriptions();
    let mut g = c.benchmark_group("sim_throughput");
    g.throughput(Throughput::Elements(subscriptions));
    g.sample_size(10);
    g.bench_function("federation_stampede", |b| {
        b.iter(|| black_box(world().delivered_updates()))
    });
    g.finish();

    let mut g = c.benchmark_group("sim_throughput");
    g.throughput(Throughput::Elements(subscriptions));
    g.sample_size(10);
    g.bench_function("federation_update_round", |b| {
        let mut w = world();
        let mut octet = 0u8;
        b.iter(|| {
            octet = octet.wrapping_add(1);
            w.update_round(octet);
            black_box(w.delivered_updates())
        })
    });
    g.finish();
}

/// The sharded data plane against one shard: the metro smoke world
/// driven through update rounds at 1, 2, and 4 workers. The event
/// history is bit-identical across the axis (the parity tests pin
/// that), so any delta is pure synchronization cost or
/// parallel speedup — on a multi-core box the curve should drop, on a
/// single hardware thread it shows the barrier overhead ceiling.
fn bench_parallel_scaling(c: &mut Criterion) {
    let spec = MetroScenario::metro().smoke();
    let mut g = c.benchmark_group("parallel_scaling");
    g.throughput(Throughput::Elements(
        spec.stub_count() as u64 * spec.tracks_per_stub as u64,
    ));
    g.sample_size(10);
    for workers in [1usize, 2, 4] {
        let mut w = RelayWorld::from_plan(plans::metro(&spec), 91, workers);
        let mut octet = 0u8;
        g.bench_function(format!("metro_update_round/{workers}"), |b| {
            b.iter(|| {
                octet = octet.wrapping_add(1);
                w.update_round(octet);
                black_box(w.delivered_updates())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_federation_world, bench_parallel_scaling);
criterion_main!(benches);
