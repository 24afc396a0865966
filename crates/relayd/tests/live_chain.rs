//! Tier-1 integration: a 3-node chain — auth daemon → relay daemon (2
//! sharded workers) → loadgen stubs — over **real loopback sockets**.
//!
//! This is the live counterpart of the simulator chain scenarios: the
//! same node types, the io layer swapped for `LiveHost` workers. The
//! loadgen engine runs in plain (non-`--check`) mode, so any violated
//! invariant (incomplete delivery, non-monotone updates, failed lookups,
//! unclean worker drain) panics with its name. After the replay, a burst
//! phase fires a 256-datagram salvo at the relay — 256 stubs connecting
//! in one staged flush, over sockets shared 32-to-1 (DCID demux) — once
//! on the `recvmmsg`/`sendmmsg` path and once on the single-datagram
//! fallback (`MOQDNS_NO_MMSG`), and both must deliver completely. The
//! daemons must then drain to exit code 0 on the shutdown latch, all
//! inside a bounded wall-clock budget.

use moqdns_bench::cli::BenchOpts;
use moqdns_core::stub::{StubMode, StubResolver};
use moqdns_core::MOQT_PORT;
use moqdns_dns::message::Question;
use moqdns_dns::rr::RecordType;
use moqdns_netsim::{Addr, NodeId};
use moqdns_relayd::daemon::{self, DaemonOpts, Mode};
use moqdns_relayd::engine::{self, LoadgenOpts};
use moqdns_relayd::netio::{HostCore, LiveHost};
use moqdns_relayd::signal;
use moqdns_workload::live::LiveSpec;
use std::net::UdpSocket;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Fires a 256-client salvo at `server`: every stub connects and
/// subscribes in ONE staged flush (≥ 256 datagrams leave in a single
/// burst, split across `sendmmsg` chunks), then all answers must arrive.
/// `force_single` pins the io layer to the single-datagram fallback via
/// `MOQDNS_NO_MMSG` (read at batcher construction, so it takes effect
/// for the host started after the flip). `seed_base` must differ between
/// salvos: connection ids derive from the stub seeds, and a reused cid
/// would route the daemon's replies to the previous salvo's dead
/// sockets (the connection handle IS the cid in this transport).
fn salvo_delivers_completely(server: &str, force_single: bool, seed_base: u64) {
    if force_single {
        std::env::set_var("MOQDNS_NO_MMSG", "1");
    } else {
        std::env::remove_var("MOQDNS_NO_MMSG");
    }
    const CLIENTS: usize = 256;
    const PER_SOCKET: usize = 32;

    let mut core = HostCore::new(777, false);
    let remote = core.register_remote(server.parse().unwrap());
    let server_addr = Addr::new(remote, MOQT_PORT);
    let nodes: Vec<NodeId> = (0..CLIENTS)
        .map(|i| {
            core.live().add_node(
                format!("salvo{i}"),
                Box::new(StubResolver::new(
                    StubMode::Moqt,
                    server_addr,
                    seed_base + i as u64,
                )),
            )
        })
        .collect();
    let fronts: Vec<Vec<NodeId>> = nodes.chunks(PER_SOCKET).map(|c| c.to_vec()).collect();
    let sockets: Vec<UdpSocket> = (0..fronts.len())
        .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
        .collect();
    let host = LiveHost::start(core, sockets, fronts);

    let question = Question::new("t0.live.moqdns.test".parse().unwrap(), RecordType::TXT);
    // The salvo: all 256 first flights staged under one core lock and
    // flushed together.
    host.with_core(|core| {
        for &n in &nodes {
            let q = question.clone();
            core.live()
                .with_node::<StubResolver, _>(n, |stub, ctx| stub.lookup(ctx, q));
        }
    });

    let deadline = Instant::now() + Duration::from_secs(10);
    let mode = if force_single { "fallback" } else { "mmsg" };
    loop {
        let answered = host.with_core(|core| {
            nodes
                .iter()
                .filter(|&&n| {
                    core.live()
                        .node_ref::<StubResolver>(n)
                        .answer(&question)
                        .is_some()
                })
                .count()
        });
        if answered == CLIENTS {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{mode} salvo: only {answered}/{CLIENTS} answers arrived"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        host.stats().unrouted,
        0,
        "{mode} salvo: every shared-socket datagram demuxed by DCID"
    );
    assert!(host.stop(), "{mode} salvo: io workers drained cleanly");
    std::env::remove_var("MOQDNS_NO_MMSG");
}

#[test]
fn three_node_chain_over_real_loopback() {
    let start = Instant::now();
    let auth_opts = DaemonOpts {
        mode: Mode::Auth,
        listen: "127.0.0.1:46470".into(),
        workers: 1,
        tracks: 4,
        rounds: 3,
        interval: Duration::from_millis(200),
        start_delay: Duration::from_millis(800),
        ..DaemonOpts::default()
    };
    let relay_opts = DaemonOpts {
        mode: Mode::Relay,
        listen: "127.0.0.1:46471".into(),
        workers: 2,
        parent: Some("127.0.0.1:46470".parse().unwrap()),
        ..DaemonOpts::default()
    };
    let auth = std::thread::spawn(move || daemon::run(auth_opts));
    std::thread::sleep(Duration::from_millis(100));
    let relay = std::thread::spawn(move || daemon::run(relay_opts));
    std::thread::sleep(Duration::from_millis(100));

    let mut spec = LiveSpec::smoke();
    spec.clients = 6;
    spec.tracks = 4;
    spec.subs_per_client = 2;
    let code = engine::run(LoadgenOpts {
        server: "127.0.0.1:46471".parse().unwrap(),
        rounds: 3,
        deadline: Duration::from_secs(15),
        profile: "chain_test".into(),
        clients_per_socket: 2,
        rate: None,
        duration: Duration::from_secs(1),
        idle: None,
        keep_alive: None,
        redial: None,
        spec,
        bench: BenchOpts::default(),
    });
    assert_eq!(code, 0, "loadgen invariants hold over the live chain");

    // Burst phase: the 256-datagram salvo must deliver completely on
    // both io paths (rounds already published, so answers are immediate).
    salvo_delivers_completely("127.0.0.1:46471", false, 50_000);
    salvo_delivers_completely("127.0.0.1:46471", true, 150_000);

    // SIGTERM equivalent: trip the latch, both daemons must drain clean.
    signal::install().store(true, Ordering::Relaxed);
    assert_eq!(auth.join().unwrap(), 0, "auth drained cleanly");
    assert_eq!(relay.join().unwrap(), 0, "relay drained cleanly");
    assert!(
        start.elapsed() < Duration::from_secs(40),
        "chain converged, salvoed, and drained within the wall-clock budget (took {:?})",
        start.elapsed()
    );
}
