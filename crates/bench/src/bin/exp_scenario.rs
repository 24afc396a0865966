//! The one driver of the gated scenario matrix:
//! `exp_scenario <name> [--smoke] [--check] [--par N] [--json PATH]`
//! runs `moqdns_bench::scenarios::SCENARIOS[<name>]`, or with `all` every
//! one in turn (stopping at the first failed gate). `--smoke` is the
//! tiny CI variant; `--check` writes the machine-readable invariant
//! summary (`results/ci_<name>.json`) and exits nonzero on any
//! violation. An unknown scenario or argument, or a flag without a valid
//! value, exits 2 listing the valid ones — a misspelt `--smoke` must not
//! silently run at full scale.

use moqdns_bench::cli::BenchOpts;
use moqdns_bench::scenarios::SCENARIOS;

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = SCENARIOS.iter().map(|(n, _)| *n).collect();
    eprintln!(
        "exp_scenario: {problem}\n\
         usage: exp_scenario <scenario|all> [--smoke] [--check] [--par N] [--json PATH]\n\
         scenarios: {}",
        names.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let (opts, rest) = BenchOpts::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage(&e));
    let name = match rest.as_slice() {
        [] => usage("no scenario named"),
        [name] => name,
        _ => usage(&format!("expected one scenario name, got {rest:?}")),
    };
    let chosen = SCENARIOS.iter().filter(|(n, _)| name == "all" || n == name);
    if chosen.clone().next().is_none() {
        usage(&format!("unknown scenario {name:?}"));
    }
    for (_, run) in chosen {
        run(&opts).finish();
    }
}
