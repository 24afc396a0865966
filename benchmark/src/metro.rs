//! `sim_metro`: the same protocol layers with no sockets and no threads.
//!
//! `MetroWorld::build(&MetroScenario::metro(), seed)` — 9,996 stubs,
//! 79,968 subscriptions, built and joined in one stampede (that is
//! `setup_s`) — then update rounds of 79,968 deliveries each.
//! `udp_batch`, `netio` and `LiveSim` do nothing here; `netsim::sched`
//! does the most.

use crate::affinity;
use crate::procfs;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{self, Tracer};
use crate::{Outcome, RunCfg};
use moqdns_bench::worlds::MetroWorld;
use moqdns_workload::scenarios::MetroScenario;
use std::time::Instant;

/// World builds per run; `setup_s` is their median, the last is measured.
const SETUPS: usize = 3;

pub fn sim_metro(cfg: &RunCfg, tr: &mut Tracer) -> Result<Outcome, String> {
    let spec = MetroScenario::metro();
    let per_round = (spec.stub_count() * spec.tracks_per_stub) as u64;
    // One round per second of `--seconds`: 10 rounds, 799,680 deliveries
    // at the declared run_seconds. A core→edge connection carries 64
    // pushed streams a round on top of 64 joining fetches, so 13 rounds
    // is all the stream budget allows.
    let rounds = if cfg.trace {
        (cfg.scale() / 2).max(2)
    } else {
        cfg.scale()
    };
    let measured = if cfg.trace { rounds / 2 } else { rounds };

    // One thread, one CPU: no migrations between rounds.
    if let Some(&cpu) = cfg.cpus.first() {
        affinity::pin_self(cpu);
    }
    let mut out = Outcome::default();
    let mut times = Vec::new();
    let mut world = None;
    for _ in 0..SETUPS {
        drop(world.take());
        let t0 = Instant::now();
        world = Some(MetroWorld::build(&spec, cfg.seed));
        times.push(t0.elapsed().as_secs_f64());
    }
    let mut world = world.expect("SETUPS > 0");
    out.e2e("setup_s", median(&times));
    if world.fetched_total() != per_round {
        out.fail(format!(
            "joining fetches answered: {}, want {per_round}",
            world.fetched_total()
        ));
    }

    let own = std::process::id();
    let read = || procfs::sample(own).map_err(|e| format!("/proc/self: {e}"));
    let first = read()?;
    let bytes_before = world.sim.stats().total_bytes();
    let dgrams_before = world.sim.stats().total_datagrams();
    let mut round_us = Vec::new();
    let mut round_cpu_us = Vec::new();
    let mut traced_us = Vec::new();
    let mut events = 0u64;
    let mut a = first;
    for r in 1..=rounds {
        if cfg.trace && r == measured + 1 {
            tr.set_enabled(true);
        }
        let t0 = Instant::now();
        let round = tr.enter("pump", r);
        let span = tr.enter("issue", r);
        world.push_round(r as u8);
        tr.exit(span);
        let span = tr.enter("run_until", r);
        let deadline = world.sim.now() + spec.update_interval;
        events += world.sim.run_until(deadline);
        tr.exit(span);
        tr.exit(round);
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        let b = read()?;
        if r <= measured {
            round_us.push(us);
            round_cpu_us.push(b.cpu_us - a.cpu_us);
        } else {
            traced_us.push(us);
        }
        a = b;
    }
    tr.set_enabled(false);
    let (a, b) = (first, a);

    let delivered = world.delivered_updates();
    let want = rounds * per_round;
    out.attempted = want;
    out.failed = want.saturating_sub(delivered);
    if delivered != want {
        out.fail(format!("delivered {delivered} updates, want {want}"));
    }
    // A round is this workload's op for latency; a delivery is its op
    // for everything counted per op. Timings are the median round.
    let per_op = |x: u64| x as f64 / delivered.max(1) as f64;
    out.layer("obs.op_latency_p50_us", percentile(&round_us, 50.0));
    out.layer(
        "obs.op_latency_p99_us",
        percentile(&round_us, tail_percentile(round_us.len())),
    );
    out.layer(
        "obs.ops_per_s",
        per_round as f64 / (median(&round_us) / 1e6),
    );
    let cpu_us_per_op = median(&round_cpu_us) / per_round as f64;
    out.layer("obs.cpu_us_per_op", cpu_us_per_op);
    out.e2e("peak_rss_mb", b.vm_hwm_kb as f64 / 1024.0);
    out.e2e(
        "wire_bytes_per_op",
        per_op(world.sim.stats().total_bytes() - bytes_before),
    );

    out.layer("sut.user_us_per_op", per_op(b.user_us - a.user_us));
    out.layer("sut.sys_us_per_op", per_op(b.sys_us - a.sys_us));
    out.layer(
        "sut.ctx_switches_per_op",
        per_op(b.ctx_switches - a.ctx_switches),
    );
    let dgrams_per_op = per_op(world.sim.stats().total_datagrams() - dgrams_before);
    out.e2e("wire_dgrams_per_op", dgrams_per_op);
    out.layer("sut.dgrams_per_op", dgrams_per_op);
    out.layer("gen.cpu_us_per_op", cpu_us_per_op);
    out.layer("netsim.events_per_op", per_op(events));
    out.layer("obs.latency_samples", round_us.len() as f64);
    // No daemons, no sockets, no fetch round-trip in this workload.
    for name in [
        "auth.cpu_us_per_op",
        "udp_batch.dgrams_per_recv_call",
        "obs.fetch_rtt_p50_us",
        "obs.fetch_rtt_p99_us",
        "obs.fetch_dgrams_per_op",
        "gen.wait_self_ns_per_op",
        "gen.recv_burst_self_ns_per_op",
        "gen.inject_self_ns_per_op",
        "gen.take_outbound_self_ns_per_op",
        "gen.send_burst_self_ns_per_op",
        "gen.complete_self_ns_per_op",
    ] {
        out.layer(name, 0.0);
    }
    let st = trace::self_times(tr.spans());
    let traced_ops = (traced_us.len() as u64 * per_round).max(1) as f64;
    let row = |span: &str| st.get(span).map_or(0.0, |s| s.self_ns as f64) / traced_ops;
    out.layer("gen.issue_self_ns_per_op", row("issue"));
    out.layer("gen.pump_self_ns_per_op", row("pump"));
    out.layer("gen.run_until_self_ns_per_op", row("run_until"));
    let overhead = if traced_us.is_empty() {
        0.0
    } else {
        median(&traced_us) / median(&round_us) - 1.0
    };
    out.layer("trace.overhead_share", overhead);
    Ok(out)
}
