//! The live load generator. See `moqdns_relayd::engine`.
//!
//! ```text
//! moqdns-loadgen --server 127.0.0.1:4471 --rounds 5 \
//!                --check --json results/live_smoke.json
//! ```
//!
//! Replays the workload crate's live plan (Zipf track popularity, Poisson
//! joins, churn bounces) against a running `moqdns-relayd`, then exits
//! nonzero if any zero-loss/convergence invariant failed.

use moqdns_relayd::engine::{self, LoadgenOpts, LOADGEN_USAGE};

fn main() {
    let opts = LoadgenOpts::from_args().unwrap_or_else(|problem| {
        eprintln!("moqdns-loadgen: {problem}\n{LOADGEN_USAGE}");
        std::process::exit(2);
    });
    std::process::exit(engine::run(opts));
}
