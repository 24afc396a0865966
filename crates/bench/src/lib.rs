//! # moqdns-bench
//!
//! The experiment harness: one binary per paper figure/claim (the
//! `BINS` list in `src/bin/run_all.rs` is the index) plus Criterion
//! micro-benchmarks. This library holds the shared world-building and
//! reporting helpers.

pub mod cli;
pub mod gate;
pub mod report;
pub mod worlds;
