//! Shared command-line flags for the experiment binaries.
//!
//! Every bench binary understands the same flags, parsed in one place so
//! CI can drive the whole matrix uniformly (`exp_scenario`, which knows
//! its whole argument set, additionally rejects anything else;
//! [`BenchOpts::from_args`] itself ignores what it does not know because
//! `moqdns-loadgen` layers its own flags on top):
//!
//! * `--smoke` — scaled-down variant (tiny node counts / few updates)
//!   suitable for a CI job;
//! * `--check` — machine-checked mode: measured invariants are collected
//!   into an [`InvariantGate`](crate::gate::InvariantGate), emitted as a
//!   JSON summary under `results/`, and the process exits nonzero when
//!   any invariant fails (instead of panicking on the first);
//! * `--par N` (or `--par=N`) — run the world on `N` parallel simulator
//!   shards (`moqdns_netsim::ParSim`, one region per worker). The event
//!   history is bit-identical to the single-threaded run, so results and
//!   baselines do not change — only wall clock may. A world with no
//!   region cut runs as one shard;
//! * `--json PATH` (or `--json=PATH`) — write the `--check` JSON summary
//!   to `PATH` instead of the default `results/ci_<scenario>.json`. Used
//!   by the live-smoke lane (`moqdns-loadgen --json results/live_smoke.json`)
//!   and by `exp_scenario`.

/// Parsed common flags.
#[derive(Debug, Clone, Default)]
pub struct BenchOpts {
    /// Scaled-down CI variant.
    pub smoke: bool,
    /// Machine-checked invariant-gate mode (JSON summary + exit code).
    pub check: bool,
    /// Parallel simulator shards (`0` = single-threaded).
    pub par: usize,
    /// Output path override for the `--check` JSON summary.
    pub json: Option<String>,
}

impl BenchOpts {
    /// Parses the process arguments. Unknown arguments are ignored
    /// (binaries may add their own on top).
    pub fn from_args() -> BenchOpts {
        BenchOpts::parse(std::env::args().skip(1)).0
    }

    /// The parameter set to run: `full`, or under `--smoke` its
    /// scaled-down variant.
    pub fn sized<S>(&self, full: S, smoke: impl FnOnce(S) -> S) -> S {
        if self.smoke {
            smoke(full)
        } else {
            full
        }
    }

    /// Parses `args`, returning the flags and, in order, every argument
    /// that is not one of them — for a caller that knows its whole
    /// argument set and wants to reject the rest.
    pub fn parse(args: impl IntoIterator<Item = String>) -> (BenchOpts, Vec<String>) {
        let mut opts = BenchOpts::default();
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--smoke" => opts.smoke = true,
                "--check" => opts.check = true,
                "--par" => {
                    opts.par = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--par requires a worker count");
                }
                a if a.starts_with("--par=") => {
                    opts.par = a["--par=".len()..].parse().expect("--par=N needs a number");
                }
                "--json" => {
                    opts.json = Some(args.next().expect("--json requires a path"));
                }
                a if a.starts_with("--json=") => {
                    opts.json = Some(a["--json=".len()..].to_string());
                }
                _ => rest.push(a),
            }
        }
        (opts, rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_returns_what_it_does_not_know() {
        let args = ["metro", "--smoke", "--par", "3", "--smok", "--json=x.json"];
        let (o, rest) = BenchOpts::parse(args.map(String::from));
        assert!(o.smoke && !o.check);
        assert_eq!((o.par, o.json.as_deref()), (3, Some("x.json")));
        assert_eq!(rest, ["metro", "--smok"]);
    }

    #[test]
    fn defaults_off() {
        let o = BenchOpts::default();
        assert!(!o.smoke && !o.check);
        assert_eq!(o.par, 0, "single-threaded by default");
        assert!(o.json.is_none(), "default JSON path");
    }
}
