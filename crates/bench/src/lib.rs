//! # moqdns-bench
//!
//! The experiment harness: the **gated scenario matrix**. Every scenario
//! is a function listed in [`scenarios::SCENARIOS`] and run by the one
//! `exp_scenario <name>` binary — ten relay scenarios in [`scenarios`]
//! (`tree mesh ddns federation chain relay_fanout metro adversarial
//! planet chaos`), each on the [`worlds::RelayWorld`] a plain-data
//! [`worlds::WorldPlan`] describes ([`plans`] holds one per scenario),
//! and the paper's ten figures and tables in [`paper`], on the root → TLD
//! → auth → recursive [`worlds::World`]. Each records its invariants in a
//! [`gate::InvariantGate`]; `tests/baselines_replay.rs` replays them all
//! against the committed `results/ci_baseline_<name>.json`. The Criterion
//! micro-benchmarks live beside them under `benches/`.

pub mod cli;
pub mod gate;
pub mod paper;
pub mod plans;
pub mod report;
pub mod scenarios;
pub mod worlds;
