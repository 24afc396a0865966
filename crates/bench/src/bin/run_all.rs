//! Runs every paper experiment in sequence (E1–E10, A1–A3), regenerating
//! all CSVs in `results/` and printing every table. `BINS` below is the
//! experiment index: a binary name, optionally followed by its arguments
//! (`exp_scenario <name>` runs one of the gated scenarios).

use std::process::Command;

const BINS: &[&str] = &[
    "fig1a_ttl_distribution",
    "fig1b_change_rate",
    "exp_query_latency",
    "exp_update_latency",
    "exp_update_traffic",
    "exp_scenario ddns",
    "exp_cdn",
    "exp_deep_space",
    "exp_state_overhead",
    "exp_fallback",
    "abl_teardown",
    "abl_streams_vs_datagrams",
    "exp_scenario relay_fanout",
];

fn main() {
    let me = std::env::current_exe().expect("current exe");
    let dir = me.parent().expect("exe dir");
    let mut failed = Vec::new();
    for bin in BINS {
        println!("\n===================== {bin} =====================");
        let mut words = bin.split(' ');
        let exe = words.next().expect("non-empty entry");
        let path = dir.join(exe);
        let status = if path.exists() {
            Command::new(&path).args(words).status()
        } else {
            // Fall back to cargo when the sibling binary is not built yet.
            Command::new("cargo")
                .args(["run", "-q", "-p", "moqdns-bench", "--bin", exe, "--"])
                .args(words)
                .status()
        };
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                failed.push(*bin);
            }
            Err(e) => {
                eprintln!("{bin} failed to start: {e}");
                failed.push(*bin);
            }
        }
    }
    if failed.is_empty() {
        println!("\nAll experiments completed; CSVs are in results/.");
    } else {
        eprintln!("\nFailed experiments: {failed:?}");
        std::process::exit(1);
    }
}
