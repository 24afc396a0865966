//! Exact baseline replay, in tier-1: every gated scenario run in-process
//! with `--smoke --check` must render the very bytes committed as
//! `results/ci_baseline_<name>.json` — invariants and metrics, the
//! worlds' delivery digests among them. The sim is seeded, so any
//! difference is a change in the event history — a node seed that moved
//! included — or a gate that was dropped or weakened, in either build
//! profile. Every row replays a second time on three shards, which must
//! render the same bytes: a row with a region cut runs on them, and any
//! other ignores `--par`.

use moqdns_bench::cli::BenchOpts;
use moqdns_bench::plans;
use moqdns_bench::scenarios::{ChaosDrill, SCENARIOS};
use moqdns_workload::scenarios::MetroScenario;
use std::path::Path;

#[test]
fn every_scenario_replays_its_committed_baseline() {
    // The scenarios write their CSVs under `results/` of the current
    // directory; run from the workspace root like CI and the docs do.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::env::set_current_dir(&root).expect("workspace root");
    let opts = BenchOpts {
        smoke: true,
        check: true,
        ..BenchOpts::default()
    };
    let sharded = BenchOpts {
        par: 3,
        ..opts.clone()
    };
    let runs = SCENARIOS.iter().map(|&(name, run)| (name, run, &opts));
    let sharded_runs = SCENARIOS.iter().map(|&(name, run)| (name, run, &sharded));
    let mut drifted = Vec::new();
    for (name, run, opts) in runs.chain(sharded_runs) {
        let path = root.join(format!("results/ci_baseline_{name}.json"));
        let baseline =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let current = run(opts).to_json();
        let par = opts.par;
        if let Some((want, got)) = baseline.lines().zip(current.lines()).find(|(a, b)| a != b) {
            drifted.push(format!(
                "{name} (--par {par}): first differing line\n  baseline: {want}\n  current:  {got}"
            ));
        } else if baseline != current {
            drifted.push(format!(
                "{name} (--par {par}): one file is a prefix of the other"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "baseline drift:\n{}",
        drifted.join("\n")
    );
}

/// The shard replay means something only for the rows that do run on
/// shards: `federation`, `metro`, `planet` and `chaos` build worlds with
/// a region cut.
#[test]
fn the_regional_rows_run_on_shards() {
    let metro = MetroScenario::metro().smoke();
    let plans = [
        plans::federation(true),
        plans::metro(&metro),
        plans::planet(true, 92).0,
    ];
    assert!(plans.iter().all(|p| p.region_tier.is_some()));
    assert_eq!(ChaosDrill::build(true, 93, 3).w.sim.workers(), 3);
}

/// A baseline nothing replays, a scenario with no baseline, or one CI's
/// matrix does not run, is how a gate rots: the committed
/// `results/ci_baseline_*.json` (the `live_*` ones are the loadgen's,
/// diffed in CI's live lane), [`SCENARIOS`] and the `- scenario:` rows of
/// the workflow — typed by hand, and trusted by
/// `ci/preflight_baselines.py` — name the same set.
#[test]
fn committed_baselines_and_scenarios_name_the_same_set() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ls = std::process::Command::new("git")
        .args(["ls-files", "results"])
        .current_dir(&root)
        .output();
    let listed = match ls {
        Ok(ls) if ls.status.success() => String::from_utf8(ls.stdout).expect("utf-8 paths"),
        // No repository to ask, as in an export of a commit (`git
        // archive`): such a tree holds exactly the committed files.
        _ => std::fs::read_dir(root.join("results"))
            .expect("results/")
            .map(|entry| {
                let name = entry.expect("a results/ entry").file_name();
                format!("results/{}\n", name.to_string_lossy())
            })
            .collect(),
    };
    let mut committed: Vec<&str> = listed
        .lines()
        .filter_map(|path| {
            path.strip_prefix("results/ci_baseline_")?
                .strip_suffix(".json")
        })
        .filter(|name| !name.starts_with("live_"))
        .collect();
    let mut scenarios: Vec<&str> = SCENARIOS.iter().map(|(name, _)| *name).collect();
    let workflow = std::fs::read_to_string(root.join(".github/workflows/ci.yml"))
        .expect(".github/workflows/ci.yml");
    let mut matrix: Vec<&str> = workflow
        .lines()
        .filter_map(|line| line.trim().strip_prefix("- scenario:"))
        .map(str::trim)
        .collect();
    committed.sort_unstable();
    scenarios.sort_unstable();
    matrix.sort_unstable();
    assert_eq!(committed, scenarios);
    assert_eq!(matrix, scenarios, "the workflow's scenario matrix");
}
