//! The three live workloads: a real auth daemon → a real relay daemon
//! (`--workers 1` each, `127.0.0.1:0`, loopback — no real link), loaded
//! by the in-process [`Generator`]. All three are closed loops except
//! the fan-out, which the auth daemon paces.

use crate::affinity;
use crate::daemon::{self, Daemon};
use crate::gen::{question, Done, Generator, Txt};
use crate::procfs;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{self, Tracer};
use crate::{Outcome, RunCfg};
use moqdns_core::metrics::LookupSample;
use moqdns_dns::message::Question;
use moqdns_netsim::{splitmix64, SimTime};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// An op that has not completed by then counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(2);
/// Longest the loop sleeps in `poll` with nothing to do.
const MAX_WAIT: Duration = Duration::from_millis(50);
/// Set-ups per run; `setup_s` is their median, the last one is measured.
const SETUPS: usize = 7;
/// Stubs joining at once during set-up.
const JOIN_CONCURRENCY: usize = 32;

/// SplitMix64 stream (the workspace's replayable-randomness idiom).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    /// Zipf(1) rank in `0..n`: weight of rank k is 1/(k+1).
    fn zipf(&mut self, n: usize) -> usize {
        let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut x = (self.next() >> 11) as f64 / (1u64 << 53) as f64 * total;
        for k in 0..n {
            x -= 1.0 / (k + 1) as f64;
            if x < 0.0 {
                return k;
            }
        }
        n - 1
    }
}

/// The two daemons.
struct Sut {
    auth: Daemon,
    relay: Daemon,
}

struct AuthPlan {
    tracks: usize,
    rounds: u64,
    interval_ms: u64,
    start_delay_ms: u64,
}

/// Spawns auth then relay. With two CPUs allowed, the daemons are
/// confined to the second and this process to the first (see `affinity`).
fn spawn_sut(cfg: &RunCfg, plan: &AuthPlan) -> Result<Sut, String> {
    let two = cfg.cpus.len() >= 2;
    if two {
        // Children inherit the spawning thread's mask.
        affinity::pin_self(cfg.cpus[1]);
    }
    let sut = spawn_daemons(cfg, plan);
    if two {
        affinity::pin_self(cfg.cpus[0]);
    }
    sut
}

fn spawn_daemons(cfg: &RunCfg, plan: &AuthPlan) -> Result<Sut, String> {
    let args = |line: String| -> Vec<String> { line.split(' ').map(String::from).collect() };
    let auth = Daemon::spawn(
        &cfg.relayd,
        &args(format!(
            "--mode auth --listen 127.0.0.1:0 --workers 1 --tracks {} --rounds {} \
             --interval-ms {} --start-delay-ms {} --seed {}",
            plan.tracks, plan.rounds, plan.interval_ms, plan.start_delay_ms, cfg.seed
        )),
    )?;
    let relay = Daemon::spawn(
        &cfg.relayd,
        &args(format!(
            "--mode relay --listen 127.0.0.1:0 --workers 1 --parent {} --seed {}",
            auth.addr,
            cfg.seed.wrapping_add(1)
        )),
    )?;
    Ok(Sut { auth, relay })
}

/// One closed-loop phase's result.
#[derive(Default)]
struct Phase {
    lat_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    wall: Duration,
    /// Datagrams the generator sent and received during the phase.
    dgrams: u64,
    /// Ops answered, but not with what the auth currently serves (also
    /// counted in `failed`). Any of these fails the run's correctness.
    wrong: u64,
}

impl Phase {
    fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Ops completed per second of the phase's wall time.
    fn rate(&self) -> f64 {
        self.completed() as f64 / self.wall.as_secs_f64()
    }

    /// Adds the phase's ops to the run's totals.
    fn count_into(&self, out: &mut Outcome, what: &str) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        if self.wrong > 0 {
            out.fail(format!("{what}: {} ops got a wrong answer", self.wrong));
        }
    }
}

/// An op in flight on a stub (at most one per stub).
struct Pending {
    op: u64,
    issued: Instant,
    /// The stubs' clock at issue: the op's samples are stamped with it, the
    /// late answer to an earlier, timed-out op of the stub with less.
    issued_sim: SimTime,
    /// Lookup answers still awaited (a join awaits one per track).
    awaited: usize,
    ok: bool,
}

/// What `issue` started: the stub carrying the op and how many lookup
/// answers complete it. `None` means the op could not be issued.
type Issued = Option<(usize, usize)>;

/// Runs `total` ops, `concurrency` at a time: the next op is issued only
/// when one completes or times out. `issue` is told which stubs still
/// have an op in flight and must pick another; `check` decides whether
/// an answer is the right one.
fn closed_loop(
    gen: &mut Generator,
    tr: &mut Tracer,
    concurrency: usize,
    total: u64,
    mut issue: impl FnMut(&mut Generator, u64, &dyn Fn(usize) -> bool) -> Result<Issued, String>,
    check: impl Fn(&LookupSample, Option<Txt>) -> bool,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let dgrams_before = gen.c.dgrams();
    let mut pending: Vec<Option<Pending>> = Vec::new();
    let mut deadlines: VecDeque<(Instant, usize, u64)> = VecDeque::new();
    let mut inflight = 0usize;
    let mut next_op = 0u64;
    let start = Instant::now();
    while next_op < total || inflight > 0 {
        if next_op < total && inflight < concurrency {
            let issued_sim = gen.sync_clock();
            while next_op < total && inflight < concurrency {
                next_op += 1;
                phase.attempted += 1;
                let span = tr.enter("issue", next_op);
                let issued = issue(gen, next_op, &|stub| {
                    pending.get(stub).is_some_and(Option::is_some)
                });
                tr.exit(span);
                let Some((stub, awaited)) = issued? else {
                    phase.failed += 1;
                    continue;
                };
                let now = Instant::now();
                if pending.len() <= stub {
                    pending.resize_with(stub + 1, || None);
                }
                assert!(pending[stub].is_none(), "one op in flight per stub");
                pending[stub] = Some(Pending {
                    op: next_op,
                    issued: now,
                    issued_sim,
                    awaited,
                    ok: true,
                });
                deadlines.push_back((now + OP_TIMEOUT, stub, next_op));
                inflight += 1;
            }
        }
        gen.pump(MAX_WAIT, tr)?;
        let now = Instant::now();
        for d in gen.done.drain(..) {
            let Done::Lookup { stub, sample, txt } = d else {
                continue;
            };
            let Some(p) = pending.get_mut(stub).and_then(Option::as_mut) else {
                continue; // answer to an op already timed out
            };
            if sample.started < p.issued_sim {
                continue; // the same, with a newer op on the stub since
            }
            p.ok &= check(&sample, txt);
            p.awaited -= 1;
            if p.awaited == 0 {
                if p.ok {
                    phase
                        .lat_us
                        .push(now.duration_since(p.issued).as_nanos() as f64 / 1e3);
                } else {
                    phase.failed += 1;
                    phase.wrong += 1;
                }
                pending[stub] = None;
                inflight -= 1;
            }
        }
        while let Some(&(deadline, stub, op)) = deadlines.front() {
            let live = pending[stub].as_ref().is_some_and(|p| p.op == op);
            if live && deadline > now {
                break;
            }
            deadlines.pop_front();
            if live {
                pending[stub] = None;
                inflight -= 1;
                phase.failed += 1;
            }
        }
    }
    phase.wall = start.elapsed();
    phase.dgrams = gen.c.dgrams() - dgrams_before;
    Ok(phase)
}

/// Which tracks each stub subscribes to (two distinct Zipf picks).
fn pick_subs(rng: &mut Rng, stubs: usize, tracks: usize) -> Vec<[usize; 2]> {
    (0..stubs)
        .map(|_| {
            let a = rng.zipf(tracks);
            let mut b = rng.zipf(tracks);
            while b == a {
                b = rng.zipf(tracks);
            }
            [a, b]
        })
        .collect()
}

/// Adds `subs.len()` stubs and joins them, in a seeded order, each with
/// one `lookup` per subscribed track. Every join must be answered with
/// the track's TXT at version 0 (nothing has been published yet).
fn join_all(
    gen: &mut Generator,
    tr: &mut Tracer,
    rng: &mut Rng,
    questions: &[Question],
    subs: &[[usize; 2]],
) -> Result<(), String> {
    let mut order: Vec<usize> = (0..subs.len()).map(|_| gen.add_stub()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let phase = closed_loop(
        gen,
        tr,
        JOIN_CONCURRENCY,
        subs.len() as u64,
        |gen, op, _| {
            let stub = order[op as usize - 1];
            for &t in &subs[stub] {
                gen.lookup(stub, &questions[t])?;
            }
            Ok(Some((stub, subs[stub].len())))
        },
        |sample, txt| sample.ok && txt.is_some_and(|t| t.v == 0),
    )?;
    if phase.failed > 0 {
        return Err(format!(
            "set-up: {} of {} joins failed",
            phase.failed, phase.attempted
        ));
    }
    Ok(())
}

/// The idle spinners for the two CPUs a live workload runs on.
fn keep_awake(cfg: &RunCfg) -> affinity::KeepAwake {
    affinity::KeepAwake::start(&cfg.cpus[..cfg.cpus.len().min(2)])
}

/// A set-up daemon pair plus the generator joined to it.
struct Rig {
    sut: Sut,
    gen: Generator,
}

/// Daemons up, a generator aimed at the relay, `subs.len()` stubs joined.
fn joined_rig(
    cfg: &RunCfg,
    plan: &AuthPlan,
    questions: &[Question],
    subs: &[[usize; 2]],
) -> Result<Rig, String> {
    let sut = spawn_sut(cfg, plan)?;
    let mut gen = Generator::new(cfg.seed, sut.relay.addr)?;
    let mut rng = Rng(cfg.seed ^ 0x4a4f_494e);
    join_all(&mut gen, &mut Tracer::new(), &mut rng, questions, subs)?;
    Ok(Rig { sut, gen })
}

/// Runs `build` [`SETUPS`] times, tearing all but the last down again
/// (checking the daemons exit 0 each time). Returns the last rig and the
/// median set-up time.
fn setup_median(
    out: &mut Outcome,
    mut build: impl FnMut() -> Result<Rig, String>,
) -> Result<(Rig, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(Rig { sut, gen }) = last.take() {
            drop(gen);
            stop_sut(out, sut);
        }
        let t0 = Instant::now();
        last = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUPS > 0"), median(&times)))
}

/// Stops both daemons; a non-zero exit is a correctness failure.
fn stop_sut(out: &mut Outcome, sut: Sut) -> (daemon::Exit, daemon::Exit) {
    let exits = daemon::stop_all(vec![sut.auth, sut.relay]);
    for (name, e) in ["auth", "relay"].iter().zip(&exits) {
        if !e.clean() {
            out.fail(format!("{name} daemon exit code {:?}, want 0", e.code));
        }
    }
    (exits[0], exits[1])
}

/// Process and wire counters at one instant, for per-op deltas.
#[derive(Clone, Copy)]
struct Mark {
    relay: procfs::Sample,
    auth: procfs::Sample,
    own: procfs::Sample,
    wire_bytes: u64,
    dgrams: u64,
    recv_calls: u64,
    rx_dgrams: u64,
    sim_events: u64,
}

fn mark(rig: &Rig) -> Result<Mark, String> {
    let read = |pid| procfs::sample(pid).map_err(|e| format!("/proc/{pid}: {e}"));
    Ok(Mark {
        relay: read(rig.sut.relay.pid)?,
        auth: read(rig.sut.auth.pid)?,
        own: procfs::sample_own_main_thread().map_err(|e| format!("/proc/self: {e}"))?,
        wire_bytes: rig.gen.c.bytes(),
        dgrams: rig.gen.c.dgrams(),
        recv_calls: rig.gen.c.recv_calls,
        rx_dgrams: rig.gen.c.rx_dgrams,
        sim_events: rig.gen.c.sim_events,
    })
}

/// One slice of a measured phase: the counters before and after it and
/// the ops completed in between. A run is cut into [`SLICES`] slices and
/// every per-op metric is the *median slice*, so a second or two of a
/// noisy neighbour on this shared box moves one slice, not the result.
struct Slice {
    a: Mark,
    b: Mark,
    ops: u64,
}

/// Slices per measured run.
const SLICES: u64 = 10;
/// Slices a traced run does untraced, and then again traced.
const TRACE_SLICES: u64 = 2;

/// (untraced, traced) slices of this run.
fn slice_plan(cfg: &RunCfg) -> (u64, u64) {
    if cfg.trace {
        (TRACE_SLICES, TRACE_SLICES)
    } else {
        (SLICES, 0)
    }
}

/// Fills in the metrics every live workload derives the same way: the
/// median over `slices` of each counter's increase per completed op.
fn account(out: &mut Outcome, slices: &[Slice]) {
    let med = |f: &dyn Fn(&Slice) -> f64| median_of(slices, |s| f(s) / s.ops.max(1) as f64);
    out.layer(
        "obs.cpu_us_per_op",
        med(&|s| s.b.relay.cpu_us - s.a.relay.cpu_us),
    );
    out.e2e(
        "wire_dgrams_per_op",
        med(&|s| (s.b.dgrams - s.a.dgrams) as f64),
    );
    out.e2e(
        "wire_bytes_per_op",
        med(&|s| (s.b.wire_bytes - s.a.wire_bytes) as f64),
    );
    let last = &slices.last().expect("at least one slice").b;
    out.e2e("peak_rss_mb", last.relay.vm_hwm_kb as f64 / 1024.0);
    out.layer(
        "sut.user_us_per_op",
        med(&|s| (s.b.relay.user_us - s.a.relay.user_us) as f64),
    );
    out.layer(
        "sut.sys_us_per_op",
        med(&|s| (s.b.relay.sys_us - s.a.relay.sys_us) as f64),
    );
    out.layer(
        "sut.ctx_switches_per_op",
        med(&|s| (s.b.relay.ctx_switches - s.a.relay.ctx_switches) as f64),
    );
    out.layer(
        "auth.cpu_us_per_op",
        med(&|s| s.b.auth.cpu_us - s.a.auth.cpu_us),
    );
    out.layer(
        "gen.cpu_us_per_op",
        med(&|s| s.b.own.cpu_us - s.a.own.cpu_us),
    );
    out.layer(
        "netsim.events_per_op",
        med(&|s| (s.b.sim_events - s.a.sim_events) as f64),
    );
    let (first, calls) = (&slices[0].a, last.recv_calls - slices[0].a.recv_calls);
    out.layer(
        "udp_batch.dgrams_per_recv_call",
        (last.rx_dgrams - first.rx_dgrams) as f64 / calls.max(1) as f64,
    );
}

/// The traced slices' generator-loop stages as self time per op.
fn stage_rows(out: &mut Outcome, tr: &Tracer, ops: u64) {
    let st = trace::self_times(tr.spans());
    let row = |span: &str| st.get(span).map_or(0.0, |s| s.self_ns as f64) / ops.max(1) as f64;
    out.layer("gen.issue_self_ns_per_op", row("issue"));
    out.layer("gen.pump_self_ns_per_op", row("pump"));
    out.layer("gen.wait_self_ns_per_op", row("wait"));
    out.layer("gen.recv_burst_self_ns_per_op", row("recv_burst"));
    out.layer("gen.inject_self_ns_per_op", row("inject"));
    out.layer("gen.run_until_self_ns_per_op", row("run_until"));
    out.layer(
        "gen.take_outbound_self_ns_per_op",
        row("take_outbound_into"),
    );
    out.layer("gen.send_burst_self_ns_per_op", row("send_burst"));
    out.layer("gen.complete_self_ns_per_op", row("complete"));
}

/// Tear-down shared by the live workloads: generator-side invariants,
/// daemon exit codes, and the relay's own datagram count per op.
fn finish(cfg: &RunCfg, out: &mut Outcome, rig: Rig, awake: affinity::KeepAwake) {
    if rig.gen.c.unrouted != 0 {
        out.fail(format!(
            "{} inbound datagrams matched no stub, want 0",
            rig.gen.c.unrouted
        ));
    }
    let threads = procfs::own_thread_count().saturating_sub(awake.threads());
    drop(awake);
    let nproc = cfg.cpus.len().max(1);
    if threads > nproc || rig.gen.socket_count() > nproc {
        out.fail(format!(
            "generator used {threads} thread(s) and {} socket(s) on {nproc} hardware thread(s)",
            rig.gen.socket_count()
        ));
    }
    let Rig { sut, gen } = rig;
    drop(gen);
    let (_, relay) = stop_sut(out, sut);
    // Over the daemon's whole life, set-up joins included.
    let ops = (out.attempted - out.failed).max(1);
    out.layer(
        "sut.dgrams_per_op",
        (relay.rx + relay.tx) as f64 / ops as f64,
    );
}

/// The median of `f` over `items` (slices, phases or rounds).
fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<f64>>())
}

fn p50(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

fn tail(v: &[f64]) -> f64 {
    percentile(v, tail_percentile(v.len()))
}

/// The fetch round-trip the layer ledger is reconciled against, from
/// concurrency-1 probe phases.
fn observe_rtt(out: &mut Outcome, rtts: &[Phase]) {
    out.layer("obs.fetch_rtt_p50_us", median_of(rtts, |r| p50(&r.lat_us)));
    out.layer("obs.fetch_rtt_p99_us", median_of(rtts, |r| tail(&r.lat_us)));
    out.layer(
        "obs.fetch_dgrams_per_op",
        median_of(rtts, |r| r.dgrams as f64 / r.completed().max(1) as f64),
    );
}

/// A short concurrency-1 probe phase over already joined stubs, each
/// fetching a name it is subscribed to, for the traced runs of workloads
/// that do not fetch.
fn probe_rtt(out: &mut Outcome, rig: &mut Rig, tr: &mut Tracer) -> Result<(), String> {
    let stubs = rig.gen.stub_count();
    let rtt = closed_loop(
        &mut rig.gen,
        tr,
        1,
        1000,
        |gen, op, _| {
            let stub = (op as usize) % stubs;
            let Some(q) = gen.a_subscription(stub) else {
                return Ok(None);
            };
            Ok(gen.probe(stub, &q)?.then_some((stub, 1)))
        },
        |sample, txt| sample.ok && txt.is_some(),
    )?;
    if rtt.lat_us.is_empty() {
        return Err("ledger probe phase completed nothing".into());
    }
    observe_rtt(out, &[rtt]);
    Ok(())
}

// ---------------------------------------------------------------------
// live_fetch
// ---------------------------------------------------------------------

/// Reads on warm connections. 512 stubs (256 per socket) join 8 tracks × 2
/// subscriptions each; then ten slices, each a closed-loop phase of
/// standalone `StubResolver::probe` fetches at concurrency 1 (`rtt`:
/// `obs.op_latency_p50_us`) followed by one at concurrency 32 (`capacity`:
/// `obs.ops_per_s`, `obs.op_latency_p99_us`). Every fetch is a relay
/// cache hit.
pub fn live_fetch(cfg: &RunCfg, tr: &mut Tracer) -> Result<Outcome, String> {
    let awake = keep_awake(cfg);
    const STUBS: usize = 512;
    const TRACKS: usize = 8;
    const CAPACITY_CONCURRENCY: usize = 32;
    // Per slice; 50,000 + 300,000 fetches in all at the declared
    // run_seconds, about 4 s + 5 s on the seed commit: 684 per
    // connection, inside the stream budget.
    let rtt_ops = 500 * cfg.scale();
    let capacity_ops = 3_000 * cfg.scale();

    let mut out = Outcome::default();
    let questions: Vec<Question> = (0..TRACKS).map(question).collect();
    let mut rng = Rng(cfg.seed);
    let subs = pick_subs(&mut rng, STUBS, TRACKS);
    let plan = AuthPlan {
        tracks: TRACKS,
        rounds: 0,
        interval_ms: 1000,
        start_delay_ms: 1000,
    };
    let (mut rig, setup_s) = setup_median(&mut out, || joined_rig(cfg, &plan, &questions, &subs))?;
    out.e2e("setup_s", setup_s);

    // Round-robin over the stubs, alternating each stub's two tracks, so
    // every connection carries the same share; a stub whose last op is
    // still in flight is passed over.
    let mut cursor = 0usize;
    let mut fetch = |rig: &mut Rig, tr: &mut Tracer, concurrency: usize, ops: u64| {
        closed_loop(
            &mut rig.gen,
            tr,
            concurrency,
            ops,
            |gen, _, busy| {
                let mut stub = cursor % STUBS;
                for _ in 0..STUBS {
                    if !busy(stub) {
                        break;
                    }
                    cursor += 1;
                    stub = cursor % STUBS;
                }
                let track = subs[stub][(cursor / STUBS) % 2];
                cursor += 1;
                Ok(gen.probe(stub, &questions[track])?.then_some((stub, 1)))
            },
            |sample, txt| sample.ok && txt.is_some_and(|t| t.v == 0),
        )
    };

    let (plain, traced) = slice_plan(cfg);
    let mut slices = Vec::new();
    let (mut rtts, mut capacities, mut traced_rtts) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_ops = 0;
    for i in 0..plain + traced {
        let tracing = i >= plain;
        tr.set_enabled(tracing);
        let a = mark(&rig)?;
        let rtt = fetch(&mut rig, tr, 1, rtt_ops)?;
        let capacity = fetch(&mut rig, tr, CAPACITY_CONCURRENCY, capacity_ops)?;
        let b = mark(&rig)?;
        rtt.count_into(&mut out, "rtt");
        capacity.count_into(&mut out, "capacity");
        if rtt.lat_us.is_empty() || capacity.lat_us.is_empty() {
            return Err("live_fetch: a phase completed nothing".into());
        }
        let ops = rtt.completed() + capacity.completed();
        if tracing {
            traced_ops += ops;
            traced_rtts.push(rtt);
        } else {
            slices.push(Slice { a, b, ops });
            rtts.push(rtt);
            capacities.push(capacity);
        }
    }
    tr.set_enabled(false);

    let plain_p50 = median_of(&rtts, |p| p50(&p.lat_us));
    out.layer("obs.op_latency_p50_us", plain_p50);
    out.layer(
        "obs.op_latency_p99_us",
        median_of(&capacities, |p| tail(&p.lat_us)),
    );
    out.layer("obs.ops_per_s", median_of(&capacities, Phase::rate));
    account(&mut out, &slices);
    observe_rtt(&mut out, &rtts);
    out.layer("obs.latency_samples", capacities[0].lat_us.len() as f64);
    if cfg.trace {
        stage_rows(&mut out, tr, traced_ops);
        let traced_p50 = median_of(&traced_rtts, |p| p50(&p.lat_us));
        out.layer("trace.overhead_share", traced_p50 / plain_p50 - 1.0);
    }
    finish(cfg, &mut out, rig, awake);
    Ok(out)
}

// ---------------------------------------------------------------------
// live_fanout
// ---------------------------------------------------------------------

/// Pushes received for one (stub, subscription) pair.
#[derive(Clone, Copy, Default)]
struct PairState {
    count: u64,
    last_version: u64,
}

/// One publish round as the stubs saw it.
#[derive(Clone, Default)]
struct Round {
    /// Earliest `ts=` any track of the round was stamped with.
    first_ts_ns: u128,
    /// Latest stub receipt.
    last_rx_ns: u128,
    delivered: usize,
    /// One sample per delivery whose payload could be read back.
    lag_us: Vec<f64>,
}

/// The rounds with enough lag samples to report on: a round most of whose
/// `ts=` were overtaken during a stall has no lag to report.
fn sampled(rounds: &[Round], per_round: usize) -> Vec<&Round> {
    rounds
        .iter()
        .filter(|r| r.lag_us.len() * 2 >= per_round)
        .collect()
}

/// Writes through the same relay. 256 stubs × 2 Zipf subscriptions over 8
/// tracks; the auth daemon republishes every track each round, so every
/// round is one burst of 512 pushed deliveries. Open loop, paced by the
/// auth; ten rounds make a slice. `obs.op_latency_*` is the update lag (TXT
/// `ts=` → stub receipt, same host clock); `obs.ops_per_s` is the burst drain
/// rate, 512 ÷ the time from a round's `ts=` to its last delivery.
pub fn live_fanout(cfg: &RunCfg, tr: &mut Tracer) -> Result<Outcome, String> {
    let awake = keep_awake(cfg);
    const STUBS: usize = 256;
    const TRACKS: usize = 8;
    const START_DELAY_MS: u64 = 1500;
    // 100 rounds of 100 ms at the declared run_seconds: 800 pushed
    // streams on the relay's uplink, 200 on each stub connection.
    let rounds_per_slice = cfg.scale();
    let interval_ms = cfg.seconds.max(1) * 1000 / (SLICES * rounds_per_slice);
    let (plain, traced) = slice_plan(cfg);
    let rounds = (plain + traced) * rounds_per_slice;

    let mut out = Outcome::default();
    let questions: Vec<Question> = (0..TRACKS).map(question).collect();
    let mut rng = Rng(cfg.seed);
    let subs = pick_subs(&mut rng, STUBS, TRACKS);
    let plan = AuthPlan {
        tracks: TRACKS,
        rounds,
        interval_ms,
        start_delay_ms: START_DELAY_MS,
    };
    let (mut rig, setup_s) = setup_median(&mut out, || joined_rig(cfg, &plan, &questions, &subs))?;
    out.e2e("setup_s", setup_s);

    let per_round = STUBS * 2;
    let expected = rounds * per_round as u64;
    let mut pairs = vec![[PairState::default(); 2]; STUBS];
    let mut seen: Vec<Round> = vec![
        Round {
            first_ts_ns: u128::MAX,
            ..Round::default()
        };
        rounds as usize + 1
    ];
    let mut received = 0u64;
    let mut slices = Vec::new();
    let mut slice_start = mark(&rig)?;
    let mut slice_received = 0u64;
    let mut traced_ops = 0u64;

    let epoch_unix_ns = rig.gen.epoch_unix_ns();
    let deadline =
        Instant::now() + Duration::from_millis(START_DELAY_MS + rounds * interval_ms) + OP_TIMEOUT;
    while received < expected && Instant::now() < deadline {
        rig.gen.pump(MAX_WAIT, tr)?;
        for d in rig.gen.done.drain(..) {
            let Done::Push {
                stub,
                sample,
                txt,
                superseded,
            } = d
            else {
                continue;
            };
            received += 1;
            let Some(k) = subs[stub]
                .iter()
                .position(|&t| questions[t] == sample.question)
            else {
                out.fail(format!("stub {stub} got a push it never subscribed to"));
                continue;
            };
            let pair = &mut pairs[stub][k];
            pair.count += 1;
            if sample.version <= pair.last_version {
                out.fail(format!(
                    "stub {stub} track {}: version {} after {}",
                    subs[stub][k], sample.version, pair.last_version
                ));
            }
            pair.last_version = sample.version;
            // The k-th push of a pair is the auth's k-th round.
            if pair.count > rounds {
                out.fail(format!("stub {stub} track {}: extra push", subs[stub][k]));
                continue;
            }
            let rx = epoch_unix_ns + sample.received.as_nanos() as u128;
            let r = &mut seen[pair.count as usize];
            r.delivered += 1;
            r.last_rx_ns = r.last_rx_ns.max(rx);
            match txt {
                Some(t) if t.v == pair.count => {
                    r.first_ts_ns = r.first_ts_ns.min(t.ts_ns);
                    r.lag_us.push(rx.saturating_sub(t.ts_ns) as f64 / 1e3);
                }
                // Overtaken by the next round during a stall of this
                // process: delivered and counted, but its `ts=` is gone.
                None if superseded => {}
                other => out.fail(format!(
                    "stub {stub} track {}: push {} answered {:?}",
                    subs[stub][k], pair.count, other
                )),
            }
        }
        // A slice ends when its last round has been delivered in full.
        let slice_end = (slices.len() as u64 + 1) * rounds_per_slice;
        if slice_end <= rounds && seen[slice_end as usize].delivered == per_round {
            let b = mark(&rig)?;
            let ops = received - slice_received;
            slice_received = received;
            if tr.enabled() {
                traced_ops += ops;
            }
            let a = std::mem::replace(&mut slice_start, b);
            slices.push(Slice { a, b, ops });
            tr.set_enabled(cfg.trace && slices.len() as u64 >= plain);
        }
    }
    tr.set_enabled(false);

    out.attempted = expected;
    out.failed = expected - received.min(expected);
    for (stub, st) in pairs.iter().enumerate() {
        for (k, p) in st.iter().enumerate() {
            if p.count != rounds {
                out.fail(format!(
                    "stub {stub} track {}: {} pushes, want {rounds}",
                    subs[stub][k], p.count
                ));
            }
        }
    }
    // A lost push leaves its round, and with it its slice, open until the
    // deadline: close what is left as one slice, so that the run still
    // reports (`failed` > 0, and the count check above has said which pair).
    if (slices.len() as u64) < plain + traced {
        slices.push(Slice {
            a: slice_start,
            b: mark(&rig)?,
            ops: received - slice_received,
        });
    }
    // Per round, then the median round: one slow round moves nothing.
    let split = (plain * rounds_per_slice) as usize;
    let measured = sampled(&seen[1..=split], per_round);
    if measured.is_empty() {
        return Err("live_fanout: no round could be sampled".into());
    }
    let lag_p50 = median_of(&measured, |r| p50(&r.lag_us));
    out.layer("obs.op_latency_p50_us", lag_p50);
    out.layer(
        "obs.op_latency_p99_us",
        median_of(&measured, |r| tail(&r.lag_us)),
    );
    out.layer(
        "obs.ops_per_s",
        median_of(&measured, |r| {
            per_round as f64 / (r.last_rx_ns.saturating_sub(r.first_ts_ns) as f64 / 1e9)
        }),
    );
    account(&mut out, &slices[..slices.len().min(plain as usize)]);
    out.layer("obs.latency_samples", per_round as f64);
    if cfg.trace {
        stage_rows(&mut out, tr, traced_ops);
        let traced_rounds = sampled(&seen[split + 1..], per_round);
        let overhead = if traced_rounds.is_empty() {
            0.0
        } else {
            median_of(&traced_rounds, |r| p50(&r.lag_us)) / lag_p50 - 1.0
        };
        out.layer("trace.overhead_share", overhead);
        probe_rtt(&mut out, &mut rig, tr)?;
    }
    finish(cfg, &mut out, rig, awake);
    Ok(out)
}

// ---------------------------------------------------------------------
// join_storm
// ---------------------------------------------------------------------

/// First lookups on fresh connections. Brand-new stubs, 8 joining at a
/// time (closed loop), each doing one `lookup` — QUIC handshake, MoQT
/// SETUP, SUBSCRIBE and joining FETCH — of one of 512 uniformly chosen
/// names. The first join of a name is a relay cold miss (upstream fetch →
/// auth zone answer), the rest are coalesced or hits. Nothing is torn
/// down (`TeardownPolicy::Never`), so the relay's peak RSS is the
/// per-endpoint state the paper prices pub/sub at.
pub fn join_storm(cfg: &RunCfg, tr: &mut Tracer) -> Result<Outcome, String> {
    let awake = keep_awake(cfg);
    const TRACKS: usize = 512;
    const CONCURRENCY: usize = 8;
    /// Stubs joined during set-up, the population the storm arrives on top
    /// of: a quarter of a second of joins, so that `setup_s` times work and
    /// not two process starts. They ask for the first `RESIDENT_TRACKS`
    /// names only, so all but those are still cold when the storm starts.
    const RESIDENTS: u64 = 1_000;
    const RESIDENT_TRACKS: usize = 8;
    // Per slice; 30,000 joins in all at the declared run_seconds, about
    // 4 s on the seed commit. The relay keeps ~14 KB per endpoint, so it
    // ends near 430 MB.
    let joins = 300 * cfg.scale();

    let mut out = Outcome::default();
    let questions: Vec<Question> = (0..TRACKS).map(question).collect();
    let join = |rig: &mut Rig, tr: &mut Tracer, rng: &mut Rng, ops: u64, names: usize| {
        closed_loop(
            &mut rig.gen,
            tr,
            CONCURRENCY,
            ops,
            |gen, _, _| {
                let stub = gen.add_stub();
                gen.lookup(stub, &questions[rng.below(names)])?;
                Ok(Some((stub, 1)))
            },
            |sample, txt| sample.ok && txt.is_some_and(|t| t.v == 0),
        )
    };
    let plan = AuthPlan {
        tracks: TRACKS,
        rounds: 0,
        interval_ms: 1000,
        start_delay_ms: 1000,
    };
    let (mut rig, setup_s) = setup_median(&mut out, || {
        let sut = spawn_sut(cfg, &plan)?;
        let gen = Generator::new(cfg.seed, sut.relay.addr)?;
        let mut rig = Rig { sut, gen };
        let residents = join(
            &mut rig,
            &mut Tracer::new(),
            &mut Rng(cfg.seed ^ 0x5245_5349),
            RESIDENTS,
            RESIDENT_TRACKS,
        )?;
        if residents.failed > 0 {
            return Err(format!(
                "set-up: {} resident joins failed",
                residents.failed
            ));
        }
        Ok(rig)
    })?;
    out.e2e("setup_s", setup_s);

    let (plain, traced) = slice_plan(cfg);
    let mut rng = Rng(cfg.seed);
    let mut slices = Vec::new();
    let (mut phases, mut traced_phases) = (Vec::new(), Vec::new());
    let mut traced_ops = 0;
    for i in 0..plain + traced {
        let tracing = i >= plain;
        tr.set_enabled(tracing);
        let a = mark(&rig)?;
        let phase = join(&mut rig, tr, &mut rng, joins, TRACKS)?;
        let b = mark(&rig)?;
        phase.count_into(&mut out, "joins");
        if phase.lat_us.is_empty() {
            return Err("join_storm: a slice completed nothing".into());
        }
        if tracing {
            traced_ops += phase.completed();
            traced_phases.push(phase);
        } else {
            slices.push(Slice {
                a,
                b,
                ops: phase.completed(),
            });
            phases.push(phase);
        }
    }
    tr.set_enabled(false);

    let join_p50 = median_of(&phases, |p| p50(&p.lat_us));
    out.layer("obs.op_latency_p50_us", join_p50);
    out.layer(
        "obs.op_latency_p99_us",
        median_of(&phases, |p| tail(&p.lat_us)),
    );
    out.layer("obs.ops_per_s", median_of(&phases, Phase::rate));
    account(&mut out, &slices);
    out.layer("obs.latency_samples", phases[0].lat_us.len() as f64);
    if cfg.trace {
        stage_rows(&mut out, tr, traced_ops);
        let traced_p50 = median_of(&traced_phases, |p| p50(&p.lat_us));
        out.layer("trace.overhead_share", traced_p50 / join_p50 - 1.0);
        probe_rtt(&mut out, &mut rig, tr)?;
    }
    finish(cfg, &mut out, rig, awake);
    Ok(out)
}
