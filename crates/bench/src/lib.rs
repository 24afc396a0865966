//! # moqdns-bench
//!
//! The experiment harness. Two families of experiments share this
//! library:
//!
//! * the **gated scenario matrix** — ten scenarios (`tree mesh ddns
//!   federation chain relay_fanout metro adversarial planet chaos`), each
//!   a function in [`scenarios`] listed in [`scenarios::SCENARIOS`] and
//!   run by the one `exp_scenario <name>` binary. Every one builds the
//!   same [`worlds::RelayWorld`] from a plain-data [`worlds::WorldPlan`]
//!   ([`plans`] holds one per scenario) and records its invariants in a
//!   [`gate::InvariantGate`]; `tests/baselines_replay.rs` replays them
//!   all against the committed `results/ci_baseline_<name>.json`;
//! * the **paper-era binaries** (`fig1*`, `exp_*`, `abl_*`; the `BINS`
//!   list in `src/bin/run_all.rs` is the index) on the root → TLD → auth →
//!   recursive [`worlds::World`], plus the Criterion micro-benchmarks.

pub mod cli;
pub mod gate;
pub mod plans;
pub mod report;
pub mod scenarios;
pub mod worlds;
