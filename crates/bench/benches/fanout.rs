//! Criterion micro-benchmarks: the DNS TTL cache under eviction pressure
//! and under mixed churn. Insert-at-capacity must not do a full-map scan.
//! Relay object fan-out is the benchmark's `moqt.relay_fanout_ns_per_sub_*`
//! rigs.

use criterion::{criterion_group, criterion_main, Criterion};
use moqdns_dns::cache::Cache;
use moqdns_dns::message::Rcode;
use moqdns_dns::name::Name;
use moqdns_dns::rdata::RData;
use moqdns_dns::rr::{Record, RecordType};
use moqdns_netsim::SimTime;
use std::hint::black_box;
use std::time::Duration;

fn bench_cache_insert_at_capacity(c: &mut Criterion) {
    const CAP: usize = 4096;
    let names: Vec<Name> = (0..CAP + 1024)
        .map(|i| format!("host-{i}.example.com").parse().unwrap())
        .collect();
    c.bench_function("fanout/cache_insert_at_capacity", |b| {
        let mut cache = Cache::new(CAP);
        let t0 = SimTime::from_secs(0);
        for (i, n) in names.iter().take(CAP).enumerate() {
            cache.insert(
                t0 + Duration::from_millis(i as u64),
                n,
                RecordType::A,
                vec![Record::new(
                    n.clone(),
                    3600,
                    RData::A([192, 0, 2, 1].into()),
                )],
            );
        }
        let mut i = 0usize;
        b.iter(|| {
            // Every insert lands in a full cache and must evict.
            i = (i + 1) % names.len();
            let now = SimTime::from_secs(10) + Duration::from_millis(i as u64);
            cache.insert(
                now,
                &names[i],
                RecordType::A,
                vec![Record::new(
                    names[i].clone(),
                    3600,
                    RData::A([192, 0, 2, 2].into()),
                )],
            );
            black_box(cache.len())
        })
    });
}

fn bench_cache_churn(c: &mut Criterion) {
    // Mixed get/insert/expiry workload: the §2 TTL machinery under load.
    const CAP: usize = 4096;
    let names: Vec<Name> = (0..CAP)
        .map(|i| format!("churn-{i}.example.com").parse().unwrap())
        .collect();
    c.bench_function("fanout/cache_mixed_churn", |b| {
        let mut cache = Cache::new(CAP);
        let mut tick = 0u64;
        b.iter(|| {
            tick += 1;
            let now = SimTime::from_secs(tick / 64);
            let n = &names[(tick as usize * 7) % names.len()];
            if tick.is_multiple_of(4) {
                cache.insert(
                    now,
                    n,
                    RecordType::A,
                    vec![Record::new(n.clone(), 30, RData::A([192, 0, 2, 3].into()))],
                );
            } else if tick.is_multiple_of(97) {
                cache.insert_negative(now, n, RecordType::AAAA, Rcode::NxDomain, 30);
            } else {
                black_box(cache.get(now, n, RecordType::A));
            }
            black_box(cache.len())
        })
    });
}

criterion_group!(benches, bench_cache_insert_at_capacity, bench_cache_churn);
criterion_main!(benches);
