//! Shared command-line flags for the experiment binaries.
//!
//! Every bench binary understands the same flags, parsed in one place so
//! CI can drive the whole matrix uniformly (`exp_scenario`, which knows
//! its whole argument set, rejects anything else;
//! [`BenchOpts::parse`] itself hands back what it does not know, because
//! `moqdns-loadgen` layers its own flags on top):
//!
//! * `--smoke` — scaled-down variant (tiny node counts / few updates)
//!   suitable for a CI job;
//! * `--check` — machine-checked mode: measured invariants are collected
//!   into an [`InvariantGate`](crate::gate::InvariantGate), emitted as a
//!   JSON summary under `results/`, and the process exits nonzero when
//!   any invariant fails (instead of panicking on the first);
//! * `--par N` (or `--par=N`) — run the world on `N` parallel simulator
//!   shards (`moqdns_netsim::ParSim`, one region per worker), clamped to
//!   `1..=regions`: `--par 0`, `--par 1` and no flag all mean one shard.
//!   The event history is bit-identical at every count, so results and
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
    /// Parallel simulator shards; `0` and `1` both mean one shard.
    pub par: usize,
    /// Output path override for the `--check` JSON summary.
    pub json: Option<String>,
}

impl BenchOpts {
    /// Parses `args`, returning the flags and, in order, every argument
    /// that is not one of them — for a caller that knows its whole
    /// argument set and wants to reject the rest. A `--par` or `--json`
    /// without a valid value is an error.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(BenchOpts, Vec<String>), String> {
        let mut opts = BenchOpts::default();
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--smoke" => opts.smoke = true,
                "--check" => opts.check = true,
                "--par" => opts.par = worker_count(args.next())?,
                a if a.starts_with("--par=") => {
                    opts.par = worker_count(Some(a["--par=".len()..].into()))?;
                }
                "--json" => opts.json = Some(args.next().ok_or("--json requires a path")?),
                a if a.starts_with("--json=") => {
                    opts.json = Some(a["--json=".len()..].to_string());
                }
                _ => rest.push(a),
            }
        }
        Ok((opts, rest))
    }
}

/// The value of `--par`: a worker count.
fn worker_count(value: Option<String>) -> Result<usize, String> {
    flag_value("--par", value)
}

/// The value `flag` was given, parsed: an error that names the flag if
/// there is none or it does not parse. The binaries print it with their
/// usage and exit 2.
pub fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} requires a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: {value:?} is not a valid value"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_returns_what_it_does_not_know() {
        let args = ["metro", "--smoke", "--par", "3", "--smok", "--json=x.json"];
        let (o, rest) = BenchOpts::parse(args.map(String::from)).expect("valid flags");
        assert!(o.smoke && !o.check);
        assert_eq!((o.par, o.json.as_deref()), (3, Some("x.json")));
        assert_eq!(rest, ["metro", "--smok"]);
        // A flag whose value is missing or malformed is an error, not a
        // panic: the binary turns it into its usage message.
        let bad: [&[&str]; 4] = [
            &["tree", "--par", "x"],
            &["tree", "--par"],
            &["tree", "--par=-1"],
            &["tree", "--json"],
        ];
        for args in bad {
            let args = args.iter().map(|a| a.to_string());
            assert!(BenchOpts::parse(args).is_err());
        }
    }

    #[test]
    fn defaults_off() {
        let o = BenchOpts::default();
        assert!(!o.smoke && !o.check);
        assert_eq!(o.par, 0, "one shard by default");
        assert!(o.json.is_none(), "default JSON path");
    }
}
