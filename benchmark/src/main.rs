//! `moqdns-benchmark`: the repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! moqdns-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! moqdns-benchmark [--seed n] [--seconds s] [--trace 0|1] [--quick]   # all four
//! moqdns-benchmark manifest                                           # BENCHMARK.json
//! ```
//!
//! A single-workload run prints every metric by name with its unit and,
//! as the last line of stdout, one JSON object `{correct, attempted,
//! failed, metrics}`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exit code 1 = a correctness check
//! failed, 2 = the run could not be made.

mod affinity;
mod alloc;
mod daemon;
mod gen;
mod ledger;
mod live;
mod manifest;
mod metro;
mod procfs;
mod rigs;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 92;

/// What one run was asked to do.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The daemon binary under test.
    pub relayd: PathBuf,
    /// Where `trace.json` and `results.json` go.
    pub out_dir: PathBuf,
    /// CPUs this process was allowed on when it started (pinning narrows
    /// the mask later, so it is read once, up front).
    pub cpus: Vec<usize>,
}

impl RunCfg {
    /// Op counts are fixed multiples of this, not timed, so two commits do
    /// the same work: `--seconds` up to the declared `run_seconds` scales
    /// them, beyond that the stream budget caps them.
    pub fn scale(&self) -> u64 {
        self.seconds.clamp(1, manifest::RUN_SECONDS)
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks (empty = correct).
    pub errors: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }
    pub fn fail(&mut self, what: String) {
        // Keep the first few; a broken run can fail thousands of checks.
        if self.errors.len() < 20 {
            eprintln!("CHECK FAILED: {what}");
        }
        self.errors.push(what);
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: manifest::RUN_SECONDS,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            // A tenth of the op counts, for CI wiring.
            "--quick" => a.seconds = 1,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite numbers");
    // `{:?}` prints the shortest text that reads back as the same f64:
    // every digit that was measured, none that was not.
    format!("{v:?}")
}

/// The result line the driver reads: `metrics` holds exactly the declared
/// end-to-end names (`--trace 0`) or per-layer names (`--trace 1`).
fn result_json(out: &Outcome, trace: bool) -> Result<String, String> {
    let mut metrics = Vec::new();
    let mut push = |name: &str, unit: &str, v: Option<&f64>| -> Result<(), String> {
        let v = v.ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        ));
        Ok(())
    };
    if trace {
        for m in manifest::PER_LAYER {
            push(m.name, m.unit, out.layer.get(m.name))?;
        }
    } else {
        for m in manifest::END_TO_END {
            push(m.name, m.unit, out.e2e.get(m.name))?;
        }
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.errors.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

/// The daemon binary under test: `$MOQDNS_RELAYD` (run.sh sets it), or
/// `moqdns-relayd` next to this binary.
fn relayd_path() -> Result<PathBuf, String> {
    let path = match std::env::var_os("MOQDNS_RELAYD") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .with_file_name("moqdns-relayd"),
    };
    if !path.is_file() {
        return Err(format!(
            "{} not found: build it with benchmark/run.sh",
            path.display()
        ));
    }
    Ok(path)
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = std::env::var_os("MOQDNS_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark/out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_workload(name: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    let mut tr = trace::Tracer::new();
    let mut out = match name {
        "live_fetch" => live::live_fetch(cfg, &mut tr)?,
        "live_fanout" => live::live_fanout(cfg, &mut tr)?,
        "join_storm" => live::join_storm(cfg, &mut tr)?,
        "sim_metro" => metro::sim_metro(cfg, &mut tr)?,
        other => return Err(format!("unknown workload {other}")),
    };
    out.layer("obs.ops_attempted", out.attempted as f64);
    out.layer("obs.ops_failed", out.failed as f64);
    if cfg.trace {
        tr.set_enabled(true);
        rigs::run_all(cfg.seed, &mut tr, &mut out)?;
        tr.set_enabled(false);
        ledger::reconcile(&mut out);
        out.layer("trace.spans", tr.spans().len() as f64);
        let path = cfg.out_dir.join("trace.json");
        tr.write_json(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(out)
}

fn print_metrics(out: &Outcome) {
    for m in manifest::END_TO_END {
        if let Some(v) = out.e2e.get(m.name) {
            println!("{:<40} {:>16.4} {}", m.name, v, m.unit);
        }
    }
    for m in manifest::PER_LAYER {
        if let Some(v) = out.layer.get(m.name) {
            println!("{:<40} {:>16.4} {}", m.name, v, m.unit);
        }
    }
}

/// One workload, one process: the driver's entry point.
fn run_one(name: &str, args: &Args) -> Result<ExitCode, String> {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        relayd: relayd_path()?,
        out_dir: out_dir()?,
        cpus: affinity::allowed_cpus(),
    };
    let out = run_workload(name, &cfg)?;
    println!(
        "# {name} seed={} seconds={} trace={} attempted={} failed={}",
        cfg.seed, cfg.seconds, cfg.trace as u8, out.attempted, out.failed
    );
    print_metrics(&out);
    let line = result_json(&out, cfg.trace)?;
    println!("{line}");
    Ok(if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

/// All four workloads, each in a process of its own (so each gets its own
/// peak-RSS reading), collected into `results.json`.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = out_dir()?;
    let mut rows = Vec::new();
    let mut ok = true;
    for w in manifest::WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("re-exec: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        ok &= output.status.success();
        let last = text.lines().last().unwrap_or("").to_string();
        let result = if last.starts_with('{') {
            last
        } else {
            "null".to_string()
        };
        rows.push(format!("    \"{}\": {result}", w.name));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"nproc\": {nproc},\n  \
         \"kernel\": \"{}\",\n  \"commit\": \"{}\",\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        args.seed,
        args.seconds,
        args.trace,
        read_trimmed("/proc/sys/kernel/osrelease"),
        std::env::var("MOQDNS_BENCH_COMMIT").unwrap_or_default(),
        rows.join(",\n")
    );
    let path = dir.join("results.json");
    std::fs::write(&path, results).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("manifest") {
        print!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let result = parse_args(&argv).and_then(|args| match args.workload.clone() {
        Some(name) => run_one(&name, &args),
        None => run_all(&args),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("moqdns-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line() {
        let a = parse_args(&argv(
            "--workload live_fetch --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("live_fetch"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        let a = parse_args(&argv("--quick")).unwrap();
        assert_eq!((a.workload, a.seed, a.seconds), (None, DEFAULT_SEED, 1));
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let mut out = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        assert!(result_json(&out, false).is_err(), "missing metrics refuse");
        for (i, m) in manifest::END_TO_END.iter().enumerate() {
            out.e2e(m.name, 1.5 + i as f64);
        }
        out.layer("wire.varint_rt_ns", 3.0);
        let line = result_json(&out, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(
            !line.contains("wire."),
            "per-layer rows only with --trace 1"
        );
        out.fail("x".into());
        assert!(result_json(&out, false)
            .unwrap()
            .contains("\"correct\": false"));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(250.0), "250.0");
        assert_eq!(json_number(0.000123456789), "0.000123456789");
    }
}
