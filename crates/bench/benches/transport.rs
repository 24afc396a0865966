//! Criterion micro-benchmark: the QUIC-like transport.
//!
//! Measures bulk stream transfer throughput through the full sans-io
//! pipeline (framing, packetization, ACK processing, reassembly). The
//! handshake's cost is the benchmark's `quic.handshake_pair_ns` rig.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use moqdns_netsim::SimTime;
use moqdns_quic::{Connection, Dir, TransportConfig};
use std::hint::black_box;
use std::time::Duration;

fn alpns() -> moqdns_quic::AlpnList {
    moqdns_quic::alpn_list(&[b"bench/1"])
}

/// Shuttles until quiet; returns the virtual end time.
fn shuttle(a: &mut Connection, b: &mut Connection, start: SimTime) -> SimTime {
    let mut now = start;
    for _ in 0..256 {
        let mut moved = false;
        while let Some(d) = a.poll_transmit(now) {
            moved = true;
            b.handle_datagram(now, &d);
        }
        while let Some(d) = b.poll_transmit(now) {
            moved = true;
            a.handle_datagram(now, &d);
        }
        now += Duration::from_micros(10);
        if !moved {
            break;
        }
    }
    now
}

fn bench_stream_transfer(c: &mut Criterion) {
    const SIZE: usize = 64 * 1024;
    let mut g = c.benchmark_group("quic/stream_transfer");
    g.throughput(Throughput::Bytes(SIZE as u64));
    g.bench_function("64KiB", |b| {
        b.iter(|| {
            let t0 = SimTime::ZERO;
            let mut client = Connection::client(1, TransportConfig::default(), alpns(), None, t0);
            let mut server = Connection::server(1, TransportConfig::default(), alpns(), 9, t0);
            let mut now = shuttle(&mut client, &mut server, t0);
            let id = client.open_stream(Dir::Uni).unwrap();
            let payload = vec![0xAB; SIZE];
            let mut written = 0;
            let mut received = 0;
            while received < SIZE {
                if written < SIZE {
                    written += client.send_stream(id, &payload[written..]).unwrap();
                }
                now = shuttle(&mut client, &mut server, now);
                loop {
                    let (chunk, _) = server.read_stream(id, usize::MAX).unwrap();
                    if chunk.is_empty() {
                        break;
                    }
                    received += chunk.len();
                }
            }
            black_box(received)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_stream_transfer);
criterion_main!(benches);
