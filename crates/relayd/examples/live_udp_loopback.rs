//! The production stack over **real UDP sockets** on 127.0.0.1 — the same
//! `AuthServer` and `StubResolver` the simulator proves, on the same
//! `LiveHost` io path `moqdns-relayd` and `moqdns-loadgen` run on.
//!
//!     cargo run --release -p moqdns-relayd --example live_udp_loopback
//!
//! Five steps, each with a deadline (a missed one exits nonzero): a lookup
//! (handshake, SETUP, SUBSCRIBE + joining FETCH), one pushed update, then
//! the crash drill — the server stops *without* CONNECTION_CLOSE (the
//! in-process `kill -9`), the stub's short idle timeout notices the
//! silence (§5.1's liveness contract) and it redials, and a fresh server
//! on the same address answers the redial's joining FETCH with what was
//! published while nobody was listening. The whole-process version of the
//! drill is `ci/live_chaos.sh`.

use moqdns_core::{AuthServer, StubMode, StubResolver, TeardownPolicy, MOQT_PORT};
use moqdns_dns::message::Question;
use moqdns_dns::rdata::RData;
use moqdns_dns::rr::{Record, RecordType};
use moqdns_dns::server::Authority;
use moqdns_dns::zone::Zone;
use moqdns_netsim::{Addr, NodeId};
use moqdns_quic::TransportConfig;
use moqdns_relayd::{HostCore, LiveHost};
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

fn question() -> Question {
    Question::new("www.example.com".parse().unwrap(), RecordType::A)
}

fn record(last: u8) -> Record {
    let ip = Ipv4Addr::new(192, 0, 2, last);
    Record::new(question().qname, 300, RData::A(ip))
}

/// An authoritative server for `www.example.com A 192.0.2.<last>` on `addr`.
fn serve(addr: &str, last: u8, seed: u64) -> (LiveHost, NodeId, SocketAddr) {
    let mut zone = Zone::with_default_soa("example.com".parse().unwrap());
    zone.add_record(record(last));
    let mut core = HostCore::new(seed, true);
    let auth = AuthServer::new(Authority::single(zone), TransportConfig::default(), seed);
    let node = core.live().add_node("auth", Box::new(auth));
    let socket = UdpSocket::bind(addr).expect("bind server");
    let local = socket.local_addr().unwrap();
    (
        LiveHost::start(core, vec![socket], vec![vec![node]]),
        node,
        local,
    )
}

/// Polls `done` until it holds; five seconds is the deadline of every step.
fn wait(step: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        if Instant::now() > deadline {
            eprintln!("MISSED: {step}");
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    println!("ok: {step}");
}

fn main() {
    let (server, auth, addr) = serve("127.0.0.1:0", 1, 2);
    println!("MoQT nameserver listening on {addr}");

    // A short idle timeout *is* the crash detector: a killed peer sends
    // nothing, and the keep-alive holds the timer off while it lives.
    let transport = TransportConfig::default()
        .idle_timeout(Duration::from_millis(600))
        .keep_alive(Duration::from_millis(200));
    let mut core = HostCore::new(1, false);
    let upstream = Addr::new(core.register_remote(addr), MOQT_PORT);
    let stub = StubResolver::with_transport(
        StubMode::Moqt,
        upstream,
        1,
        TeardownPolicy::Never,
        transport,
    )
    .redial_after(Duration::from_millis(200));
    let stub = core.live().add_node("stub", Box::new(stub));
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    let client = LiveHost::start(core, vec![socket], vec![vec![stub]]);
    let sees = |last: u8| {
        client.with_core(|c| {
            let s: &StubResolver = c.live().node_ref(stub);
            s.answer(&question()) == Some(&[record(last)][..])
        })
    };

    client.with_core(|c| {
        c.live()
            .with_node::<StubResolver, _>(stub, |s, ctx| s.lookup(ctx, question()))
    });
    wait("lookup answered with 192.0.2.1", || sees(1));

    server.with_core(|c| {
        c.live().with_node::<AuthServer, _>(auth, |a, ctx| {
            a.update_zone(ctx, |authority| {
                let zone = authority.find_zone_mut(&question().qname).unwrap();
                zone.set_records(&question().qname, RecordType::A, vec![record(99)]);
            })
        })
    });
    wait("update to 192.0.2.99 pushed, not polled", || sees(99));

    // No `shutdown` verb, so no CONNECTION_CLOSE: the workers just stop.
    assert!(server.stop(), "server workers stopped cleanly");
    println!("server killed silently");
    wait("stub noticed the silence and redialed", || {
        client.with_core(|c| c.live().node_ref::<StubResolver>(stub).redials() >= 1)
    });

    // A brand-new process image on the old address: fresh endpoint state,
    // none of its predecessor's connections, and a record that changed
    // while it was down. The redial's joining FETCH is what recovers it.
    let (server, _, _) = serve(&addr.to_string(), 7, 3);
    wait(
        "restarted server answered the redial with 192.0.2.7",
        || sees(7),
    );
    assert!(client.stop() && server.stop(), "workers drained cleanly");
    println!("\nCrash, silence, detection, redial — recovery is part of the protocol.");
}
