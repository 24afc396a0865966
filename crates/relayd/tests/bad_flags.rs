//! A flag the binaries cannot read ends the process with its usage and
//! exit status 2, before anything binds a socket.

use std::process::Command;

/// Runs `bin` with `args`; returns its exit status and what it printed
/// on stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("the binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn the_binaries_exit_2_with_their_usage_on_a_bad_flag() {
    let loadgen = env!("CARGO_BIN_EXE_moqdns-loadgen");
    let relayd = env!("CARGO_BIN_EXE_moqdns-relayd");
    let cases: [(&str, &[&str], &str); 8] = [
        (loadgen, &["--rounds"], "--rounds requires a value"),
        (loadgen, &["--rounds", "x"], "--rounds: \"x\""),
        (loadgen, &["--par", "x"], "--par: \"x\""),
        (loadgen, &["--bogus"], "unknown flag \"--bogus\""),
        (loadgen, &["--clients-per-socket", "0"], "at least 1"),
        (relayd, &["--workers", "x"], "--workers: \"x\""),
        (relayd, &["--bogus"], "unknown flag \"--bogus\""),
        (relayd, &["--mode", "relay"], "requires --parent"),
    ];
    for (bin, args, problem) in cases {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(problem), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: moqdns-"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
