//! Criterion micro-benchmarks: the simulator's data plane itself.
//!
//! The metro-scale scenario made the *simulator* the bottleneck, so its
//! raw machinery gets its own benchmarks alongside the protocol ones:
//!
//! * `events_per_sec` — the bare event loop: a ring of nodes forwarding
//!   a datagram hop after hop. Measures scheduler push/pop plus link
//!   lookup plus delivery dispatch, with `Throughput::Elements` =
//!   executed events so the report reads directly in events/sec;
//! * `timer_churn` — arm-then-cancel timer storms (the keep-alive
//!   re-arm pattern at 10k-stub scale), exercising the generation-
//!   tagged slot recycling;
//! * `federation_stampede` / `federation_update_round` — the standing
//!   cross-region federation world built (joining-fetch stampede) and
//!   driven through one full update round, in-process so wall-clock
//!   comparisons are free of process startup noise. Elements =
//!   deliveries, so the report reads in deliveries/sec.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use moqdns_bench::worlds::RelayWorld;
use moqdns_netsim::{Addr, Ctx, LinkConfig, Node, NodeId, Payload, Simulator};
use moqdns_workload::scenarios::{FederationScenario, MetroScenario};
use std::any::Any;
use std::hint::black_box;
use std::time::Duration;

/// Forwards every datagram to the next node in the ring, `hops` times.
struct RingHop {
    next: Option<Addr>,
    remaining: u64,
}

impl Node for RingHop {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, _from: Addr, to_port: u16, p: Payload) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(to_port, self.next.unwrap(), p);
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

fn bench_events_per_sec(c: &mut Criterion) {
    const NODES: usize = 64;
    const HOPS: u64 = 10_000;
    let mut g = c.benchmark_group("sim_throughput");
    // The token circulates until every node's countdown hits zero: the
    // run executes NODES * HOPS delivery events.
    g.throughput(Throughput::Elements(NODES as u64 * HOPS));
    g.bench_function("events_per_sec", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(7);
            sim.set_default_link(LinkConfig::with_delay(Duration::from_micros(50)));
            let ids: Vec<NodeId> = (0..NODES)
                .map(|i| {
                    sim.add_node(
                        format!("n{i}"),
                        Box::new(RingHop {
                            next: None,
                            remaining: HOPS,
                        }),
                    )
                })
                .collect();
            for (i, &id) in ids.iter().enumerate() {
                let next = ids[(i + 1) % NODES];
                sim.with_node::<RingHop, _>(id, |n, _| n.next = Some(Addr::new(next, 1)));
            }
            sim.with_node::<RingHop, _>(ids[0], |_, ctx| {
                ctx.send(1, Addr::new(ids[1], 1), vec![0u8; 300]);
            });
            black_box(sim.run_until_idle())
        })
    });
    g.finish();
}

fn bench_timer_churn(c: &mut Criterion) {
    const TIMERS: u64 = 1_000;
    let mut g = c.benchmark_group("sim_throughput");
    g.throughput(Throughput::Elements(TIMERS));
    g.bench_function("timer_churn", |b| {
        let mut sim = Simulator::new(9);
        let a = sim.add_node(
            "a",
            Box::new(RingHop {
                next: None,
                remaining: 0,
            }),
        );
        sim.run_until_idle();
        b.iter(|| {
            // The keep-alive re-arm pattern: arm far out, cancel, re-arm.
            let ids: Vec<u64> = sim.with_node::<RingHop, _>(a, |_, ctx| {
                (0..TIMERS)
                    .map(|i| ctx.set_timer(Duration::from_millis(10 + (i % 97)), i))
                    .collect()
            });
            sim.with_node::<RingHop, _>(a, |_, ctx| {
                for id in ids {
                    ctx.cancel_timer(id);
                }
            });
            black_box(sim.run_for(Duration::from_millis(200)))
        })
    });
    g.finish();
}

fn bench_federation_world(c: &mut Criterion) {
    let spec = FederationScenario::federation();
    let mut g = c.benchmark_group("sim_throughput");
    g.throughput(Throughput::Elements(
        spec.stub_count() as u64 * spec.tracks as u64,
    ));
    g.sample_size(10);
    g.bench_function("federation_stampede", |b| {
        b.iter(|| black_box(RelayWorld::build(&spec, 91).delivered_updates()))
    });
    g.finish();

    let mut g = c.benchmark_group("sim_throughput");
    // One round delivers one update of every track to every stub.
    g.throughput(Throughput::Elements(
        spec.stub_count() as u64 * spec.tracks as u64,
    ));
    g.sample_size(10);
    g.bench_function("federation_update_round", |b| {
        let mut w = RelayWorld::build(&spec, 91);
        let mut octet = 0u8;
        b.iter(|| {
            octet = octet.wrapping_add(1);
            w.update_round(octet);
            black_box(w.delivered_updates())
        })
    });
    g.finish();
}

/// The sharded data plane against the single-threaded one: the metro
/// smoke world driven through update rounds at 0 (single), 1, 2, and 4
/// workers. The event history is bit-identical across the axis (the
/// parity tests pin that), so any delta is pure synchronization cost or
/// parallel speedup — on a multi-core box the curve should drop, on a
/// single hardware thread it shows the barrier overhead ceiling.
fn bench_parallel_scaling(c: &mut Criterion) {
    let spec = MetroScenario::metro().smoke();
    let mut g = c.benchmark_group("parallel_scaling");
    g.throughput(Throughput::Elements(
        spec.stub_count() as u64 * spec.tracks_per_stub as u64,
    ));
    g.sample_size(10);
    for workers in [0usize, 1, 2, 4] {
        let mut w = RelayWorld::build_with_workers(&spec, 91, workers);
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

criterion_group!(
    benches,
    bench_events_per_sec,
    bench_timer_churn,
    bench_federation_world,
    bench_parallel_scaling
);
criterion_main!(benches);
