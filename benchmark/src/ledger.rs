//! The layer ledger: does the sum of the layer costs along the fetch
//! path explain the fetch round-trip the live workloads measure?

use crate::Outcome;

/// The inputs of the reconciliation, all from one traced run.
#[derive(Debug, Clone, Copy)]
pub struct FetchPath {
    /// `core.sim_fetch_rt_ns`: the whole protocol stack, both ends, one
    /// fetch, no sockets.
    pub stack_ns: f64,
    /// Datagrams that crossed the generator's sockets per fetch.
    pub dgrams_per_op: f64,
    /// Per datagram: one `sendmmsg` share and one `recvmmsg` share.
    pub udp_send_ns: f64,
    pub udp_recv_ns: f64,
    /// Per datagram: `LiveSim` inject + run on the receiving side and
    /// outbox drain on the sending side.
    pub live_inject_run_ns: f64,
    pub live_take_outbound_ns: f64,
    /// The measured concurrency-1 round-trip, µs.
    pub rtt_p50_us: f64,
}

/// Nanoseconds of one fetch round-trip the layer rigs account for.
pub fn explained_ns(p: &FetchPath) -> f64 {
    let per_dgram = p.udp_send_ns + p.udp_recv_ns + p.live_inject_run_ns + p.live_take_outbound_ns;
    p.stack_ns + p.dgrams_per_op * per_dgram
}

/// `explained_ns` as a share of the measured round-trip. What is left
/// (kernel loopback delivery, wake-up latency of two processes, the
/// relay's lock and staging, everything the rigs do not isolate) is the
/// ledger's open gap; a share below 0.65 is called out in the README.
pub fn explained_share(p: &FetchPath) -> f64 {
    if p.rtt_p50_us <= 0.0 {
        return 0.0;
    }
    explained_ns(p) / (p.rtt_p50_us * 1e3)
}

/// Adds `ledger.fetch_rtt_explained_share` from the rows of this run.
/// A run with no fetch round-trip (sim_metro) reports 0.
pub fn reconcile(out: &mut Outcome) {
    let get = |out: &Outcome, name: &str| out.layer.get(name).copied().unwrap_or(0.0);
    let path = FetchPath {
        stack_ns: get(out, "core.sim_fetch_rt_ns"),
        dgrams_per_op: get(out, "obs.fetch_dgrams_per_op"),
        udp_send_ns: get(out, "udp_batch.send_ns_per_dgram_100b"),
        udp_recv_ns: get(out, "udp_batch.recv_ns_per_dgram_100b"),
        live_inject_run_ns: get(out, "netsim.live_inject_run_ns_per_dgram"),
        live_take_outbound_ns: get(out, "netsim.live_take_outbound_ns_per_dgram"),
        rtt_p50_us: get(out, "obs.fetch_rtt_p50_us"),
    };
    out.layer("ledger.fetch_rtt_explained_share", explained_share(&path));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> FetchPath {
        FetchPath {
            stack_ns: 40_000.0,
            dgrams_per_op: 4.0,
            udp_send_ns: 1_000.0,
            udp_recv_ns: 1_500.0,
            live_inject_run_ns: 400.0,
            live_take_outbound_ns: 100.0,
            rtt_p50_us: 104.0,
        }
    }

    #[test]
    fn explained_is_stack_plus_per_datagram_costs() {
        assert_eq!(explained_ns(&path()), 40_000.0 + 4.0 * 3_000.0);
        assert!((explained_share(&path()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_round_trip_reports_zero_not_infinity() {
        let p = FetchPath {
            rtt_p50_us: 0.0,
            ..path()
        };
        assert_eq!(explained_share(&p), 0.0);
    }

    #[test]
    fn reconcile_reads_the_rows_by_name() {
        let mut out = Outcome::default();
        out.layer("core.sim_fetch_rt_ns", 40_000.0);
        out.layer("obs.fetch_dgrams_per_op", 4.0);
        out.layer("udp_batch.send_ns_per_dgram_100b", 1_000.0);
        out.layer("udp_batch.recv_ns_per_dgram_100b", 1_500.0);
        out.layer("netsim.live_inject_run_ns_per_dgram", 400.0);
        out.layer("netsim.live_take_outbound_ns_per_dgram", 100.0);
        out.layer("obs.fetch_rtt_p50_us", 104.0);
        reconcile(&mut out);
        assert!((out.layer["ledger.fetch_rtt_explained_share"] - 0.5).abs() < 1e-12);
    }
}
