//! The relay/auth daemon over real sockets. See `moqdns_relayd::daemon`.
//!
//! ```text
//! moqdns-relayd --mode auth  --listen 127.0.0.1:4470 --workers 2 \
//!               --tracks 8 --rounds 5 --interval-ms 400
//! moqdns-relayd --mode relay --listen 127.0.0.1:4471 --workers 2 \
//!               --parent 127.0.0.1:4470
//! ```
//!
//! Runs until SIGTERM/SIGINT, then drains every session through the
//! state machine and exits 0 on a clean drain.

use moqdns_relayd::daemon::{self, DaemonOpts, DAEMON_USAGE};

fn main() {
    let opts = DaemonOpts::from_args().unwrap_or_else(|problem| {
        eprintln!("moqdns-relayd: {problem}\n{DAEMON_USAGE}");
        std::process::exit(2);
    });
    std::process::exit(daemon::run(opts));
}
