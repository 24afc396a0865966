//! The benchmark's names: workloads, end-to-end metrics with unit,
//! direction and regression bound, per-layer metrics. `/BENCHMARK.json`
//! is generated from these tables (`moqdns-benchmark manifest`) and a
//! unit test keeps the committed file equal to them, so a later issue
//! that cites a name cites something the binary really prints.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "live_fetch",
        why: "reads on warm connections: standalone fetches answered from the relay cache, at concurrency 1 then 32; fan-out and handshake code idle",
    },
    Workload {
        name: "live_fanout",
        why: "writes through the same relay: auth pushes bursts of 512 deliveries to 256 subscribed stubs; the fetch path idles after the join",
    },
    Workload {
        name: "join_storm",
        why: "first lookups on fresh connections: every op is handshake + SETUP + SUBSCRIBE + joining FETCH on one of 512 names, relay state accumulating",
    },
    Workload {
        name: "sim_metro",
        why: "the same protocol layers with no sockets and no threads: 9,996 simulated stubs, 79,968 deliveries per update round; netsim scheduler does the most",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports every one of
/// these; README "End-to-end metrics" says what each means per workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    // 15 %, not the 5 % the other workloads would hold: on `live_fanout`
    // the count includes the relay's PTO probes, provoked by this
    // generator's own 11 ms burst drain (README "Steadiness").
    EndToEnd {
        name: "wire_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "wire_dgrams_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn ns(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: Better::Lower,
    }
}

const fn count(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Better::Lower,
    }
}

const fn us(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "us",
        better: Better::Lower,
    }
}

/// `<module>.<name>`; `_ns` is nanoseconds per op, `_allocs` allocations
/// per op. README "Per-layer metrics" has the definitions and which
/// end-to-end metric each should move.
pub const PER_LAYER: &[PerLayer] = &[
    // wire
    ns("wire.varint_rt_ns"),
    ns("wire.payload_slice_ns"),
    ns("wire.pool_writer_cycle_ns"),
    count("wire.pool_writer_cycle_allocs"),
    // dns
    ns("dns.msg_decode_ns"),
    count("dns.msg_decode_allocs"),
    ns("dns.msg_encode_ns"),
    count("dns.msg_encode_allocs"),
    ns("dns.zone_answer_ns"),
    // quic
    ns("quic.peek_dcid_ns"),
    ns("quic.datagram_decode_ns"),
    count("quic.datagram_decode_allocs"),
    ns("quic.stream_rt_ns"),
    count("quic.stream_rt_allocs"),
    ns("quic.poll_transmit_ns"),
    count("quic.poll_transmit_allocs"),
    ns("quic.endpoint_rx_ns_1conn"),
    ns("quic.endpoint_rx_ns_1kconn"),
    ns("quic.handshake_pair_ns"),
    count("quic.handshake_pair_allocs"),
    count("quic.uni_streams_per_fetch"),
    count("quic.uni_streams_per_push"),
    // udp_batch
    ns("udp_batch.recv_ns_per_dgram_100b"),
    ns("udp_batch.send_ns_per_dgram_100b"),
    ns("udp_batch.recv_ns_per_dgram_1200b"),
    ns("udp_batch.send_ns_per_dgram_1200b"),
    PerLayer {
        name: "udp_batch.dgrams_per_recv_call",
        unit: "count",
        better: Better::Higher,
    },
    // moqt
    ns("moqt.ctrl_decode_fetch_ns"),
    ns("moqt.ctrl_encode_fetch_ns"),
    ns("moqt.ctrl_decode_subscribe_ns"),
    ns("moqt.ctrl_encode_subscribe_ns"),
    ns("moqt.session_fetch_rt_ns"),
    count("moqt.session_fetch_rt_allocs"),
    ns("moqt.relay_fetch_hit_ns"),
    ns("moqt.relay_fetch_miss_ns"),
    ns("moqt.relay_fetch_coalesced_ns"),
    ns("moqt.relay_subscribe_ns"),
    ns("moqt.session_publish_ns_per_sub"),
    count("moqt.session_publish_allocs_per_sub"),
    ns("moqt.relay_fanout_ns_per_sub_64"),
    ns("moqt.relay_fanout_ns_per_sub_512"),
    // core
    ns("core.track_from_question_ns"),
    ns("core.object_from_response_ns"),
    ns("core.sim_fetch_rt_ns"),
    count("core.sim_fetch_rt_allocs"),
    ns("core.sim_push_ns_per_delivery"),
    count("core.sim_push_allocs_per_delivery"),
    ns("core.sim_join_ns"),
    count("core.sim_join_allocs"),
    PerLayer {
        name: "core.relay_state_bytes_per_sub",
        unit: "B",
        better: Better::Lower,
    },
    // netsim
    PerLayer {
        name: "netsim.event_loop_events_per_s",
        unit: "1/s",
        better: Better::Higher,
    },
    ns("netsim.timer_churn_ns"),
    count("netsim.events_per_op"),
    ns("netsim.live_inject_run_ns_per_dgram"),
    ns("netsim.live_take_outbound_ns_per_dgram"),
    // netio
    ns("netio.with_core_idle_ns"),
    // the daemons and the generator, read from outside
    us("sut.user_us_per_op"),
    us("sut.sys_us_per_op"),
    count("sut.ctx_switches_per_op"),
    count("sut.dgrams_per_op"),
    us("auth.cpu_us_per_op"),
    us("gen.cpu_us_per_op"),
    // generator loop stages, self time per op (traced slice)
    ns("gen.issue_self_ns_per_op"),
    ns("gen.pump_self_ns_per_op"),
    ns("gen.wait_self_ns_per_op"),
    ns("gen.recv_burst_self_ns_per_op"),
    ns("gen.inject_self_ns_per_op"),
    ns("gen.run_until_self_ns_per_op"),
    ns("gen.take_outbound_self_ns_per_op"),
    ns("gen.send_burst_self_ns_per_op"),
    ns("gen.complete_self_ns_per_op"),
    // the ledger and what was observed but is not bounded
    PerLayer {
        name: "ledger.fetch_rtt_explained_share",
        unit: "share",
        better: Better::Higher,
    },
    PerLayer {
        name: "trace.overhead_share",
        unit: "share",
        better: Better::Lower,
    },
    count("trace.spans"),
    // speed, demoted from the end-to-end list (README "Steadiness")
    us("obs.op_latency_p50_us"),
    us("obs.op_latency_p99_us"),
    PerLayer {
        name: "obs.ops_per_s",
        unit: "1/s",
        better: Better::Higher,
    },
    us("obs.cpu_us_per_op"),
    us("obs.fetch_rtt_p50_us"),
    us("obs.fetch_rtt_p99_us"),
    count("obs.fetch_dgrams_per_op"),
    count("obs.latency_samples"),
    count("obs.ops_attempted"),
    count("obs.ops_failed"),
];

/// Seconds one run measures (`run_seconds`); op counts are sized so the
/// measured phases take about this long on the seed commit.
pub const RUN_SECONDS: u64 = 10;

/// The text of `/BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate: moqdns-benchmark manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn manifest_stays_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        // Set-up time is bounded, and by the largest bound.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
