//! The `moqdns-loadgen` engine: replays a [`LivePlan`] against a running
//! daemon over real loopback sockets and gates the outcome.
//!
//! Each planned client is a full [`StubResolver`] — the same node the
//! simulator experiments measure — behind a UDP socket, so the daemon
//! sees real remote traffic. By default every client gets its own socket;
//! `--clients-per-socket K` shares one socket across K stubs (inbound
//! demuxed by DCID in the io layer) so a 10k-client saturation run does
//! not exhaust file descriptors. The engine executes the plan (staggered
//! joins, churn bounces), waits until every subscription has converged on
//! the auth's final published version, and reports through the shared
//! [`InvariantGate`]:
//!
//! * **gated (deterministic, final-state)**: every planned `(client,
//!   track)` pair holds an answer; every pair reaches the final TXT
//!   version; pushed versions are strictly monotone per track; no MoQT
//!   lookup failed; no inbound datagram was unroutable; every io worker
//!   drained cleanly; with a held probe rate, every probe issued was
//!   answered (`probe_drops` 0). These hold however the wall clock
//!   interleaves, because a late joiner's fetch also returns the newest
//!   version.
//! * **reported only (wall-clock)**: pps, p50/p99/p999 query latency,
//!   update-delivery lag (TXT `ts=` stamps against this host's clock),
//!   datagram counts, and the saturation phase's offered vs achieved
//!   rate. CI uploads them but never exact-diffs them.
//!
//! **Saturation profile** (`--rate <pps> --duration <s>`): after the plan
//! converges, the engine open-loop issues [`StubResolver::probe`]
//! standalone fetches — each one a full wire round-trip, immune to the
//! §5.2 local-answer short-circuit — at the target rate, round-robin
//! across the planned `(client, track)` pairs, without waiting for
//! replies.
//!
//! **Chaos profile** (`--idle-ms --keep-alive-ms --redial-ms`): clients
//! run a short-idle transport and auto-redial after a connection loss,
//! so a harness that SIGKILLs and restarts the daemon mid-run
//! (`ci/live_chaos.sh`) can gate that every client redials, the retry
//! count stays bounded, and the replay still converges on the final TXT
//! version — crash/restart recovery end to end over real sockets.
//!
//! A churn bounce reuses the stub's §4.4 suspension hooks: the QUIC
//! connection is dropped silently and local state forgotten, so the
//! rejoin exercises reconnection with a fresh joining fetch against the
//! live daemon.

use crate::daemon::unix_nanos;
use crate::netio::{HostCore, LiveHost};
use moqdns_bench::cli::{flag_value, BenchOpts};
use moqdns_bench::gate::InvariantGate;
use moqdns_core::metrics::AnswerSource;
use moqdns_core::stub::{StubMode, StubResolver};
use moqdns_core::teardown::TeardownPolicy;
use moqdns_core::MOQT_PORT;
use moqdns_dns::message::Question;
use moqdns_dns::rdata::RData;
use moqdns_dns::rr::RecordType;
use moqdns_netsim::{Addr, NodeId};
use moqdns_quic::TransportConfig;
use moqdns_stats::Summary;
use moqdns_workload::live::{LivePlan, LiveSpec};
use std::collections::BTreeMap;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// Parsed load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenOpts {
    /// The daemon to load (auth or relay listen address).
    pub server: SocketAddr,
    /// Final TXT version the auth publishes (must match the daemon's
    /// `--rounds`); convergence is declared when every pair reaches it.
    pub rounds: u64,
    /// Hard wall-clock budget for the replay; hitting it fails the
    /// completeness gates.
    pub deadline: Duration,
    /// Profile label — the gate scenario is `live_<profile>`.
    pub profile: String,
    /// Stub clients sharing one UDP socket (1 = a socket per client).
    pub clients_per_socket: usize,
    /// Saturation: sustained offered probe rate after convergence.
    pub rate: Option<u64>,
    /// Saturation: how long to hold each offered rate.
    pub duration: Duration,
    /// Client QUIC idle timeout override (chaos runs shorten it so a
    /// SIGKILLed daemon is detected in seconds, not the patient hour).
    pub idle: Option<Duration>,
    /// Client QUIC keep-alive override (paired with a short idle).
    pub keep_alive: Option<Duration>,
    /// When set, clients auto-redial this long after a connection loss
    /// and re-subscribe; redial gates are armed (chaos profile).
    pub redial: Option<Duration>,
    /// The replay plan parameters.
    pub spec: LiveSpec,
    /// Shared bench flags (`--check`, `--json`, `--smoke`).
    pub bench: BenchOpts,
}

/// What `moqdns-loadgen` prints, after the problem, for a flag it cannot
/// read.
pub const LOADGEN_USAGE: &str = "usage: moqdns-loadgen [--server ADDR:PORT] [--rounds N] \
[--deadline-ms MS] [--profile NAME] [--clients N] [--tracks N] [--zone ZONE] \
[--clients-per-socket K>=1] [--rate PPS] [--duration S] [--idle-ms MS] \
[--keep-alive-ms MS] [--redial-ms MS] [--smoke] [--check] [--par N] [--json PATH]";

impl LoadgenOpts {
    /// Parses the process arguments ([`LoadgenOpts::parse`]).
    pub fn from_args() -> Result<LoadgenOpts, String> {
        LoadgenOpts::parse(std::env::args().skip(1))
    }

    /// Parses `args`: the bench flags ([`BenchOpts::parse`]), then the
    /// loadgen's own. A flag without a valid value, an unknown flag and
    /// `--clients-per-socket 0` are errors.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<LoadgenOpts, String> {
        let (bench, rest) = BenchOpts::parse(args)?;
        let mut o = LoadgenOpts {
            server: SocketAddr::from(([127, 0, 0, 1], 4471)),
            rounds: 5,
            deadline: Duration::from_secs(20),
            profile: "smoke".into(),
            clients_per_socket: 1,
            rate: None,
            duration: Duration::from_secs(10),
            idle: None,
            keep_alive: None,
            redial: None,
            spec: LiveSpec::smoke(),
            bench,
        };
        let mut args = rest.into_iter();
        while let Some(a) = args.next() {
            let mut ms = |flag: &str| flag_value(flag, args.next()).map(Duration::from_millis);
            match a.as_str() {
                "--server" => o.server = flag_value(&a, args.next())?,
                "--rounds" => o.rounds = flag_value(&a, args.next())?,
                "--deadline-ms" => o.deadline = ms(&a)?,
                "--profile" => o.profile = flag_value(&a, args.next())?,
                "--clients" => o.spec.clients = flag_value(&a, args.next())?,
                "--tracks" => o.spec.tracks = flag_value(&a, args.next())?,
                "--zone" => o.spec.zone = flag_value(&a, args.next())?,
                "--clients-per-socket" => {
                    o.clients_per_socket = flag_value(&a, args.next())?;
                    if o.clients_per_socket == 0 {
                        return Err("--clients-per-socket must be at least 1".into());
                    }
                }
                "--rate" => o.rate = Some(flag_value(&a, args.next())?),
                "--idle-ms" => o.idle = Some(ms(&a)?),
                "--keep-alive-ms" => o.keep_alive = Some(ms(&a)?),
                "--redial-ms" => o.redial = Some(ms(&a)?),
                "--duration" => o.duration = Duration::from_secs(flag_value(&a, args.next())?),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(o)
    }
}

/// One scheduled plan step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Connect + subscribe all planned tracks.
    Join,
    /// Silently drop the connection and forget local state (§4.4 churn).
    Drop,
    /// Re-subscribe everything after a bounce.
    Rejoin,
}

/// Latest TXT observation for one `(client, track)` pair.
#[derive(Debug, Clone, Copy, Default)]
struct Observed {
    version: Option<u64>,
    answered: bool,
}

/// Parses `["v=<n>", "ts=<nanos>"]` out of a TXT answer.
fn parse_txt(records: &[moqdns_dns::rr::Record]) -> Option<(u64, u128)> {
    for r in records {
        if let RData::TXT(strings) = &r.rdata {
            let mut v = None;
            let mut ts = None;
            for s in strings {
                let s = std::str::from_utf8(s).ok()?;
                if let Some(x) = s.strip_prefix("v=") {
                    v = x.parse::<u64>().ok();
                } else if let Some(x) = s.strip_prefix("ts=") {
                    ts = x.parse::<u128>().ok();
                }
            }
            if let (Some(v), Some(ts)) = (v, ts) {
                return Some((v, ts));
            }
        }
    }
    None
}

/// Outcome of one sustained-rate probe phase (wall-clock measurements).
#[derive(Debug, Clone, Copy)]
struct PhaseStats {
    /// The target rate this phase held.
    offered_pps: u64,
    /// Probes actually issued (sessions not yet up are skipped).
    issued: u64,
    /// Probes whose reply landed inside the measurement window + grace.
    completed: u64,
    /// Probes the server refused (FETCH_ERROR — gated to zero elsewhere).
    failed: u64,
    /// Completed probes over the phase wall time.
    achieved_pps: u64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
}

/// Open-loop sustained-rate phase: issues [`StubResolver::probe`]s at
/// `rate` pps for `duration`, round-robin over `pairs`, never waiting for
/// replies (a 1 ms tick with fractional carry sets the pacing; each
/// tick's quota shares one core lock). Returns the measured stats after a
/// short grace window for in-flight replies.
fn run_rate_phase(
    host: &LiveHost,
    nodes: &[NodeId],
    questions: &BTreeMap<usize, Question>,
    pairs: &[(usize, usize)],
    rate: u64,
    duration: Duration,
) -> PhaseStats {
    let start = host.now();
    let mut issued = 0u64;
    let mut carry = 0.0f64;
    let mut rr = 0usize;
    let mut last = start;
    loop {
        let now = host.now();
        if now - start >= duration {
            break;
        }
        carry += (now - last).as_secs_f64() * rate as f64;
        last = now;
        let quota = carry as u64;
        if quota > 0 {
            carry -= quota as f64;
            host.with_core(|core| {
                for _ in 0..quota {
                    let (c, t) = pairs[rr % pairs.len()];
                    rr += 1;
                    let ok = core
                        .live()
                        .with_node::<StubResolver, _>(nodes[c], |stub, ctx| {
                            stub.probe(ctx, questions[&t].clone())
                        });
                    if ok {
                        issued += 1;
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let end = host.now();
    let (w0, w1) = (start.as_nanos() as u64, end.as_nanos() as u64);
    // The window's probes that finished, answered or refused.
    let finished = |lat_us: &mut Vec<f64>| {
        let (mut completed, mut failed) = (0u64, 0u64);
        host.with_core(|core| {
            for &n in nodes {
                let stub: &StubResolver = core.live().node_ref(n);
                for l in &stub.metrics.lookups {
                    let t = l.started.as_nanos();
                    if l.source != AnswerSource::Moqt || t < w0 || t >= w1 {
                        continue;
                    }
                    if l.ok {
                        completed += 1;
                        let us = (l.finished.as_nanos() - l.started.as_nanos()) as f64 / 1_000.0;
                        lat_us.push(us);
                    } else {
                        failed += 1;
                    }
                }
            }
        });
        (completed, failed)
    };
    // Grace: let in-flight replies land before counting completions —
    // until every probe has finished, or two seconds have passed.
    let grace = host.now() + Duration::from_secs(2);
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let (completed, failed) = finished(&mut Vec::new());
        if completed + failed >= issued || host.now() >= grace {
            break;
        }
    }
    let mut lat_us: Vec<f64> = Vec::new();
    let (completed, failed) = finished(&mut lat_us);
    let secs = (end - start).as_secs_f64().max(1e-9);
    let lat = Summary::from(lat_us);
    let pct = |p: f64| {
        if lat.is_empty() {
            0
        } else {
            lat.percentile(p) as u64
        }
    };
    PhaseStats {
        offered_pps: rate,
        issued,
        completed,
        failed,
        achieved_pps: (completed as f64 / secs) as u64,
        p50_us: pct(50.0),
        p99_us: pct(99.0),
        p999_us: pct(99.9),
    }
}

/// Runs the load, writes the gate JSON, returns the process exit code.
pub fn run(opts: LoadgenOpts) -> i32 {
    let plan = LivePlan::generate(opts.spec.clone());
    let mut gate = InvariantGate::new(format!("live_{}", opts.profile), &opts.bench);

    // One stub node per planned client; sockets shared K-to-1.
    let mut core = HostCore::new(opts.spec.seed, false);
    let server = core.register_remote(opts.server);
    let server_addr = Addr::new(server, MOQT_PORT);
    let mut transport = TransportConfig::patient();
    if let Some(idle) = opts.idle {
        transport = transport.idle_timeout(idle);
    }
    if let Some(every) = opts.keep_alive {
        transport = transport.keep_alive(every);
    }
    let nodes: Vec<NodeId> = (0..plan.clients.len())
        .map(|i| {
            let mut stub = StubResolver::with_transport(
                StubMode::Moqt,
                server_addr,
                1000 + i as u64,
                TeardownPolicy::Never,
                transport.clone(),
            );
            if let Some(delay) = opts.redial {
                stub = stub.redial_after(delay);
            }
            core.live().add_node(format!("client{i}"), Box::new(stub))
        })
        .collect();
    let fronts: Vec<Vec<NodeId>> = nodes
        .chunks(opts.clients_per_socket)
        .map(|chunk| chunk.to_vec())
        .collect();
    let sockets: Vec<UdpSocket> = (0..fronts.len())
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind client socket"))
        .collect();
    let host = LiveHost::start(core, sockets, fronts.clone());

    // Flatten the plan into a time-ordered action list.
    let questions: BTreeMap<usize, Question> = (0..plan.spec.tracks)
        .map(|t| {
            (
                t,
                Question::new(
                    plan.track_name(t).parse().expect("valid name"),
                    RecordType::TXT,
                ),
            )
        })
        .collect();
    let mut schedule: Vec<(Duration, usize, Action)> = Vec::new();
    for (c, cp) in plan.clients.iter().enumerate() {
        schedule.push((cp.join_at, c, Action::Join));
        if let Some(b) = cp.bounce_at {
            schedule.push((b, c, Action::Drop));
            schedule.push((b + plan.spec.bounce_after, c, Action::Rejoin));
        }
    }
    schedule.sort_by_key(|&(at, c, _)| (at, c));

    // Drive the plan and poll convergence.
    let pairs: Vec<(usize, usize)> = plan
        .clients
        .iter()
        .enumerate()
        .flat_map(|(c, cp)| cp.tracks.iter().map(move |&t| (c, t)))
        .collect();
    let mut observed: BTreeMap<(usize, usize), Observed> = BTreeMap::new();
    let mut lag_us: Vec<f64> = Vec::new();
    let mut next_action = 0usize;
    let mut bounces = 0u64;
    let converged = loop {
        let now = host.now();
        if now > opts.deadline {
            break false;
        }
        while next_action < schedule.len() && schedule[next_action].0 <= now {
            let (_, c, action) = schedule[next_action];
            next_action += 1;
            let node = nodes[c];
            let tracks = &plan.clients[c].tracks;
            host.with_core(|core| {
                core.live()
                    .with_node::<StubResolver, _>(node, |stub, ctx| match action {
                        Action::Join | Action::Rejoin => {
                            for &t in tracks {
                                stub.lookup(ctx, questions[&t].clone());
                            }
                        }
                        Action::Drop => {
                            stub.debug_drop_connection();
                            stub.debug_forget_subscriptions();
                            bounces += 1;
                        }
                    });
            });
        }
        // Poll every pair's latest answer; sample lag on version changes.
        let mut all_final = true;
        host.with_core(|core| {
            for &(c, t) in &pairs {
                let stub: &StubResolver = core.live().node_ref(nodes[c]);
                let obs = observed.entry((c, t)).or_default();
                if let Some(records) = stub.answer(&questions[&t]) {
                    obs.answered = true;
                    if let Some((v, ts)) = parse_txt(records) {
                        if obs.version != Some(v) {
                            obs.version = Some(v);
                            let now_ns = unix_nanos();
                            if v > 0 && now_ns > ts {
                                lag_us.push((now_ns - ts) as f64 / 1_000.0);
                            }
                        }
                        if v < opts.rounds {
                            all_final = false;
                        }
                    } else {
                        all_final = false;
                    }
                } else {
                    all_final = false;
                }
            }
        });
        if all_final && next_action == schedule.len() {
            break true;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let converge_wall = host.now();
    if !converged {
        // Deadline diagnostics for the CI artifact: which pairs are
        // stuck, and what their client's connection state looks like.
        host.with_core(|core| {
            for &(c, t) in &pairs {
                let stub: &StubResolver = core.live().node_ref(nodes[c]);
                let v = observed.get(&(c, t)).and_then(|o| o.version);
                if v == Some(opts.rounds) {
                    continue;
                }
                println!(
                    "moqdns-loadgen: STUCK client{c} track{t} at v{:?} \
                     (subs={} redials={})",
                    v,
                    stub.subscription_count(),
                    stub.redials(),
                );
            }
        });
    }

    // ---- Saturation phase (after convergence, before harvest) ---------
    let phase = match opts.rate {
        Some(rate) if converged => Some(run_rate_phase(
            &host,
            &nodes,
            &questions,
            &pairs,
            rate,
            opts.duration,
        )),
        _ => None,
    };
    let wall = host.now();

    // Harvest per-client metrics.
    let mut moqt_ok = 0u64;
    let mut moqt_failed = 0u64;
    let mut latency_us: Vec<f64> = Vec::new();
    let mut non_monotone = 0u64;
    let mut updates_received = 0u64;
    let mut redial_total = 0u64;
    let mut redialed_clients = 0u64;
    host.with_core(|core| {
        for &n in &nodes {
            let stub: &StubResolver = core.live().node_ref(n);
            redial_total += stub.redials();
            if stub.redials() > 0 {
                redialed_clients += 1;
            }
            for l in &stub.metrics.lookups {
                match l.source {
                    AnswerSource::Moqt if l.ok => {
                        moqt_ok += 1;
                        latency_us
                            .push((l.finished.as_nanos() - l.started.as_nanos()) as f64 / 1_000.0);
                    }
                    AnswerSource::Moqt => moqt_failed += 1,
                    _ => {}
                }
            }
            let mut last: BTreeMap<Question, u64> = BTreeMap::new();
            for u in &stub.metrics.updates {
                updates_received += 1;
                if let Some(&prev) = last.get(&u.question) {
                    if u.version <= prev {
                        non_monotone += 1;
                    }
                }
                last.insert(u.question.clone(), u.version);
            }
        }
    });
    let (rx, tx) = host.stats();
    let unrouted = host.unrouted();
    let clean = host.stop();

    // ---- Gated invariants (deterministic, final-state) ----------------
    let answered = observed.values().filter(|o| o.answered).count() as u64;
    let at_final = observed
        .values()
        .filter(|o| o.version == Some(opts.rounds))
        .count() as u64;
    gate.check_true(
        "converged_before_deadline",
        converged,
        format!(
            "converged={converged} after {} ms",
            converge_wall.as_millis()
        ),
    );
    gate.check_eq("answers_complete", pairs.len() as u64, answered);
    gate.check_eq("final_version_complete", pairs.len() as u64, at_final);
    gate.check_eq("update_non_monotone", 0, non_monotone);
    gate.check_eq("moqt_lookup_failures", 0, moqt_failed);
    gate.check_eq("inbound_unrouted", 0, unrouted);
    gate.check_true(
        "clean_worker_drain",
        clean,
        format!("all {} io workers stopped cleanly", fronts.len()),
    );
    if let Some(redial) = opts.redial {
        // Chaos profile: the script kills the daemon mid-run, so every
        // client's connection dies and must come back through the redial
        // path. The bound is the worst-case retry count — one failed
        // dial per idle window across the whole deadline, plus slack for
        // the first detection.
        let idle = opts.idle.unwrap_or(Duration::from_secs(3600));
        let per_client =
            (opts.deadline.as_millis() / (idle + redial).as_millis().max(1)) as u64 + 2;
        gate.check_eq(
            "clients_redialed",
            plan.clients.len() as u64,
            redialed_clients,
        );
        gate.check_ge("stub_redials", redialed_clients, redial_total);
        gate.check_le(
            "stub_redials_bounded",
            plan.clients.len() as u64 * per_client,
            redial_total,
        );
    }
    if let Some(p) = &phase {
        // Every probe is one stream: a connection that stopped carrying
        // them past its stream limit left probes unanswered here.
        gate.check_eq("probes_completed_all_issued", p.issued, p.completed);
    }

    // ---- Deterministic metrics (baseline-diffed) ----------------------
    gate.metric("clients", plan.clients.len() as u64);
    gate.metric("planned_subscriptions", pairs.len() as u64);
    gate.metric("tracks", plan.spec.tracks as u64);
    gate.metric("final_version", opts.rounds);
    gate.metric("bounces", bounces);
    gate.metric("clients_per_socket", opts.clients_per_socket as u64);
    if opts.redial.is_some() {
        // Wall-clock shaped (retry count depends on kill/restart timing)
        // but bounded by the gates above; never baseline-diffed.
        gate.metric("stub_redials", redial_total);
    }
    if let Some(rate) = opts.rate {
        gate.metric("probe_rate_pps", rate);
        gate.metric("probe_duration_ms", opts.duration.as_millis() as u64);
    }

    // ---- Wall-clock metrics (reported, never diffed) ------------------
    gate.metric("wall_ms", wall.as_millis() as u64);
    gate.metric("converge_ms", converge_wall.as_millis() as u64);
    gate.metric("rx_datagrams", rx);
    gate.metric("tx_datagrams", tx);
    gate.metric(
        "wire_pps",
        ((rx + tx) as f64 / wall.as_secs_f64().max(1e-9)) as u64,
    );
    gate.metric("moqt_lookups_ok", moqt_ok);
    gate.metric("updates_received", updates_received);
    let lat = Summary::from(latency_us);
    if !lat.is_empty() {
        gate.metric("query_latency_p50_us", lat.percentile(50.0) as u64);
        gate.metric("query_latency_p99_us", lat.percentile(99.0) as u64);
        gate.metric("query_latency_p999_us", lat.percentile(99.9) as u64);
    }
    let lag = Summary::from(lag_us);
    if !lag.is_empty() {
        gate.metric("update_lag_p50_us", lag.percentile(50.0) as u64);
        gate.metric("update_lag_p99_us", lag.percentile(99.0) as u64);
        gate.metric("update_lag_p999_us", lag.percentile(99.9) as u64);
    }
    if let Some(p) = &phase {
        gate.metric("offered_pps", p.offered_pps);
        gate.metric("achieved_pps", p.achieved_pps);
        gate.metric("probes_issued", p.issued);
        gate.metric("probes_completed", p.completed);
        gate.metric(
            "probe_drops",
            p.issued.saturating_sub(p.completed + p.failed),
        );
        gate.metric("probe_p50_us", p.p50_us);
        gate.metric("probe_p99_us", p.p99_us);
        gate.metric("probe_p999_us", p.p999_us);
    }

    println!(
        "moqdns-loadgen: {} clients, {}/{} pairs at v{}, {} updates, rx={rx} tx={tx}, {} ms",
        plan.clients.len(),
        at_final,
        pairs.len(),
        opts.rounds,
        updates_received,
        wall.as_millis()
    );
    if let Some(p) = &phase {
        println!(
            "moqdns-loadgen: saturation offered={} achieved={} pps, p50={}us p99={}us p999={}us, issued={} completed={}",
            p.offered_pps, p.achieved_pps, p.p50_us, p.p99_us, p.p999_us, p.issued, p.completed
        );
    }
    if gate.finish() {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<LoadgenOpts, String> {
        LoadgenOpts::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn loadgen_flags_parse_with_the_bench_flags_among_them() {
        let o = parse(&[
            "--server",
            "127.0.0.1:5000",
            "--check",
            "--json",
            "out.json",
            "--rounds",
            "7",
            "--clients-per-socket",
            "4",
            "--redial-ms",
            "250",
            "--rate",
            "2000",
            "--duration",
            "5",
        ])
        .expect("valid flags");
        assert_eq!(o.server, SocketAddr::from(([127, 0, 0, 1], 5000)));
        assert_eq!((o.rounds, o.clients_per_socket), (7, 4));
        assert_eq!(o.redial, Some(Duration::from_millis(250)));
        assert_eq!((o.rate, o.duration), (Some(2000), Duration::from_secs(5)));
        assert!(o.bench.check);
        assert_eq!(o.bench.json.as_deref(), Some("out.json"));
    }

    #[test]
    fn a_loadgen_flag_without_a_value_is_an_error() {
        assert_eq!(
            parse(&["--rounds"]).err().as_deref(),
            Some("--rounds requires a value")
        );
        assert!(parse(&["--par"]).is_err());
    }

    #[test]
    fn a_malformed_loadgen_value_is_an_error() {
        for bad in [
            &["--rounds", "x"][..],
            &["--server", "localhost"],
            &["--idle-ms", "-1"],
            &["--par", "x"],
        ] {
            let err = parse(bad).expect_err("malformed");
            assert!(err.starts_with(bad[0]), "{err}");
        }
    }

    #[test]
    fn an_unknown_loadgen_flag_is_an_error() {
        assert_eq!(
            parse(&["--smok"]).err().as_deref(),
            Some("unknown flag \"--smok\"")
        );
    }

    #[test]
    fn zero_clients_per_socket_is_an_error() {
        assert!(parse(&["--clients-per-socket", "0"]).is_err());
    }
}
