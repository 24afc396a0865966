//! The `moqdns-relayd` daemon: an [`AuthServer`] or [`RelayNode`] served
//! over sharded real sockets.
//!
//! One process hosts one protocol node. In `auth` mode it owns the test
//! zone and republishes every track for a fixed number of rounds — each
//! version is a TXT record `["v=<round>", "ts=<unix nanos>"]`, so a load
//! generator on the same host can measure update-delivery lag from the
//! payload alone. In `relay` mode it fronts a parent daemon (usually the
//! auth). Either way its subscribers meet the same `RelayNode` downstream
//! half proven in the simulator: the origin is a relay with no links.
//!
//! Shutdown: SIGTERM/SIGINT trips a latch; the control loop calls the
//! node's `shutdown` verb (closing every session through the PR 6 state
//! machine), gives the workers a short grace window to flush the
//! CONNECTION_CLOSE datagrams, then stops them. The process exits 0 only
//! when every worker drained cleanly. A worker that dies on its own — a
//! socket error, a panic out of the node — trips the same drain within one
//! control tick, and the exit code is 1: a daemon with a deaf socket must
//! not sit there until someone signals it.
//!
//! Crash semantics: SIGKILL skips all of that — no CONNECTION_CLOSE, no
//! drain — and the daemon is expected to be restarted on the same
//! address while its peers still hold connections to the corpse. Two
//! things make that survivable: peers detect the silence via their idle
//! timeout and redial (`ci/live_chaos.sh` gates the whole loop), and
//! each incarnation perturbs its QUIC cid seed with process entropy so
//! the restart never replays the dead process's cid sequence into a
//! peer's stale demux table (see the comment in [`run`]).

use crate::netio::{bind_sharded, HostCore, HostStats, LiveHost};
use crate::signal;
use moqdns_bench::cli::flag_value;
use moqdns_core::auth::AuthServer;
use moqdns_core::relay_node::RelayNode;
use moqdns_core::MOQT_PORT;
use moqdns_dns::name::Name;
use moqdns_dns::rdata::RData;
use moqdns_dns::rr::{Record, RecordType};
use moqdns_dns::server::Authority;
use moqdns_dns::zone::Zone;
use moqdns_netsim::{Addr, NodeId};
use moqdns_quic::TransportConfig;
use std::net::SocketAddr;
use std::time::{Duration, SystemTime};

/// Which protocol node this process hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Authoritative origin (a relay with no links): owns the zone, publishes.
    Auth,
    /// Relay: subscribes upstream on demand, coalesces downstream.
    Relay,
}

/// Parsed daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonOpts {
    /// Node flavour.
    pub mode: Mode,
    /// Real listen address (`127.0.0.1:4470`-style).
    pub listen: String,
    /// Socket shards / worker threads.
    pub workers: usize,
    /// Parent daemon address (required in relay mode).
    pub parent: Option<SocketAddr>,
    /// Zone origin served in auth mode.
    pub zone: String,
    /// Number of published names (`t<i>.<zone>`).
    pub tracks: usize,
    /// Update rounds the auth publishes after start-up.
    pub rounds: u64,
    /// Gap between publish rounds.
    pub interval: Duration,
    /// Settling time before round 1 (lets subscribers join).
    pub start_delay: Duration,
    /// RNG seed (connection ids etc.).
    pub seed: u64,
}

impl Default for DaemonOpts {
    fn default() -> DaemonOpts {
        DaemonOpts {
            mode: Mode::Auth,
            listen: "127.0.0.1:4470".into(),
            workers: 2,
            parent: None,
            zone: "live.moqdns.test".into(),
            tracks: 8,
            rounds: 5,
            interval: Duration::from_millis(400),
            start_delay: Duration::from_millis(1500),
            seed: 92,
        }
    }
}

/// What `moqdns-relayd` prints, after the problem, for a flag it cannot
/// read.
pub const DAEMON_USAGE: &str = "usage: moqdns-relayd [--mode auth|relay] [--listen ADDR:PORT] \
[--workers N] [--parent ADDR:PORT (relay mode)] [--zone ZONE] [--tracks N] [--rounds N] \
[--interval-ms MS] [--start-delay-ms MS] [--seed N]";

impl DaemonOpts {
    /// Parses the process arguments ([`DaemonOpts::parse`]).
    pub fn from_args() -> Result<DaemonOpts, String> {
        DaemonOpts::parse(std::env::args().skip(1))
    }

    /// Parses `args`. A flag without a valid value, an unknown flag and
    /// `--mode relay` without `--parent` are errors.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<DaemonOpts, String> {
        let mut o = DaemonOpts::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let mut ms = |flag: &str| flag_value(flag, args.next()).map(Duration::from_millis);
            match a.as_str() {
                "--mode" => {
                    o.mode = match flag_value::<String>(&a, args.next())?.as_str() {
                        "auth" => Mode::Auth,
                        "relay" => Mode::Relay,
                        other => return Err(format!("--mode must be auth|relay, got {other:?}")),
                    }
                }
                "--listen" => o.listen = flag_value(&a, args.next())?,
                "--workers" => o.workers = flag_value(&a, args.next())?,
                "--parent" => o.parent = Some(flag_value(&a, args.next())?),
                "--zone" => o.zone = flag_value(&a, args.next())?,
                "--tracks" => o.tracks = flag_value(&a, args.next())?,
                "--rounds" => o.rounds = flag_value(&a, args.next())?,
                "--interval-ms" => o.interval = ms(&a)?,
                "--start-delay-ms" => o.start_delay = ms(&a)?,
                "--seed" => o.seed = flag_value(&a, args.next())?,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if o.mode == Mode::Relay && o.parent.is_none() {
            return Err("--mode relay requires --parent addr:port".into());
        }
        Ok(o)
    }
}

/// Nanoseconds since the unix epoch (the cross-process lag clock).
pub fn unix_nanos() -> u128 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos()
}

/// The TXT payload published for `round` (`v=<round>`, `ts=<nanos>`).
pub fn txt_strings(round: u64) -> Vec<Vec<u8>> {
    vec![
        format!("v={round}").into_bytes(),
        format!("ts={}", unix_nanos()).into_bytes(),
    ]
}

/// The published name of track `idx` under `zone`.
pub fn track_name(zone: &str, idx: usize) -> Name {
    format!("t{idx}.{zone}").parse().expect("valid track name")
}

fn build_zone(opts: &DaemonOpts) -> Zone {
    let mut zone = Zone::with_default_soa(opts.zone.parse().expect("valid zone origin"));
    for i in 0..opts.tracks {
        zone.add_record(Record::new(
            track_name(&opts.zone, i),
            60,
            RData::TXT(txt_strings(0)),
        ));
    }
    zone
}

fn transport() -> TransportConfig {
    TransportConfig::patient()
        // Peers are processes on real hosts: an acknowledgement waits for
        // its turn in their io loop (RFC 9000's default allowance).
        .max_ack_delay(Duration::from_millis(25))
}

/// Runs the daemon until SIGTERM/SIGINT or the death of an io worker;
/// returns the process exit code (0 = clean drain).
pub fn run(opts: DaemonOpts) -> i32 {
    signal::install();
    let mut core = HostCore::new(opts.seed, true);

    // Connection ids are generated deterministically from the stack seed.
    // A live process restarted with the same `--seed` (the common case:
    // same config, same supervisor) would replay its dead predecessor's
    // exact cid sequence — and a peer that never saw a CONNECTION_CLOSE
    // (SIGKILL sends nothing) still maps those cids to zombie
    // connections, so the fresh handshake gets demuxed into a dead
    // session and silently swallowed. Mix process-unique entropy into
    // the stack seed so no two daemon incarnations share cid space; the
    // simulator is unaffected (sim nodes are seeded directly, not here).
    let stack_seed = opts.seed ^ (std::process::id() as u64) ^ (unix_nanos() as u64);

    let node: NodeId = match opts.mode {
        Mode::Auth => core.live().add_node(
            "auth",
            Box::new(AuthServer::new(
                Authority::single(build_zone(&opts)),
                transport(),
                stack_seed,
            )),
        ),
        Mode::Relay => {
            let parent_sa = opts.parent.expect("relay mode has a parent");
            let parent = core.register_remote(parent_sa);
            core.live().add_node(
                "relay",
                Box::new(
                    RelayNode::new(Addr::new(parent, MOQT_PORT), 0, stack_seed)
                        .transport(transport()),
                ),
            )
        }
    };

    let (sockets, local) = match bind_sharded(&opts.listen, opts.workers) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("moqdns-relayd: bind {}: {e}", opts.listen);
            return 2;
        }
    };
    // Every shard fronts the one daemon node; outbound frames are
    // DCID-steered across the shards by the io layer.
    let fronts = vec![vec![node]; sockets.len()];
    let host = LiveHost::start(core, sockets, fronts);
    println!(
        "moqdns-relayd: {:?} listening on {local} ({} worker(s))",
        opts.mode, opts.workers
    );

    // Control loop: tick the publish schedule (auth), watch the latch
    // and the workers.
    let mut next_round: u64 = 1;
    loop {
        if signal::terminated() {
            break;
        }
        if host.failed() {
            eprintln!("moqdns-relayd: an io worker died; draining");
            break;
        }
        if opts.mode == Mode::Auth && next_round <= opts.rounds {
            let due = opts.start_delay + opts.interval * (next_round - 1) as u32;
            if host.now() >= due {
                let round = next_round;
                let zone_origin = opts.zone.clone();
                let tracks = opts.tracks;
                host.with_core(|core| {
                    core.live().with_node::<AuthServer, _>(node, |auth, ctx| {
                        auth.update_zone(ctx, |authority| {
                            for i in 0..tracks {
                                let name = track_name(&zone_origin, i);
                                if let Some(z) = authority.find_zone_mut(&name) {
                                    z.set_records(
                                        &name,
                                        RecordType::TXT,
                                        vec![Record::new(
                                            name.clone(),
                                            60,
                                            RData::TXT(txt_strings(round)),
                                        )],
                                    );
                                }
                            }
                        });
                    });
                });
                println!("moqdns-relayd: published round {round}/{}", opts.rounds);
                next_round += 1;
                continue;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Drain: close every session through the state machine, give the
    // workers a grace window to flush the close datagrams, then stop.
    println!("moqdns-relayd: draining");
    host.with_core(|core| match opts.mode {
        Mode::Auth => core
            .live()
            .with_node::<AuthServer, _>(node, |auth, ctx| auth.shutdown(ctx)),
        Mode::Relay => core
            .live()
            .with_node::<RelayNode, _>(node, |relay, ctx| relay.shutdown(ctx)),
    });
    std::thread::sleep(Duration::from_millis(300));
    let counters = host.with_core(|core| match opts.mode {
        Mode::Auth => core.live().node_ref::<AuthServer>(node).stats(),
        Mode::Relay => core.live().node_ref::<RelayNode>(node).stats(),
    });
    // Its own line: `stopped` is read by scripts, byte for byte.
    println!("moqdns-relayd: counters ({counters})");
    let HostStats { rx, tx, .. } = host.stats();
    let clean = host.stop();
    println!("moqdns-relayd: stopped (rx={rx} tx={tx} datagrams, clean={clean})");
    if clean {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<DaemonOpts, String> {
        DaemonOpts::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn daemon_flags_parse() {
        let o = parse(&[
            "--mode",
            "relay",
            "--parent",
            "127.0.0.1:4470",
            "--workers",
            "3",
        ])
        .expect("valid flags");
        assert_eq!(o.mode, Mode::Relay);
        assert_eq!(o.parent, Some(SocketAddr::from(([127, 0, 0, 1], 4470))));
        assert_eq!(o.workers, 3);
    }

    #[test]
    fn a_daemon_flag_without_a_value_is_an_error() {
        assert_eq!(
            parse(&["--workers"]).err().as_deref(),
            Some("--workers requires a value")
        );
    }

    #[test]
    fn a_malformed_daemon_value_is_an_error() {
        for bad in [
            &["--workers", "two"][..],
            &["--parent", "nowhere"],
            &["--mode", "proxy"],
        ] {
            let err = parse(bad).expect_err("malformed");
            assert!(err.starts_with(bad[0]), "{err}");
        }
    }

    #[test]
    fn an_unknown_daemon_flag_is_an_error() {
        assert_eq!(
            parse(&["--port", "1"]).err().as_deref(),
            Some("unknown flag \"--port\"")
        );
    }

    #[test]
    fn relay_mode_without_a_parent_is_an_error() {
        assert_eq!(
            parse(&["--mode", "relay"]).err().as_deref(),
            Some("--mode relay requires --parent addr:port")
        );
    }
}
