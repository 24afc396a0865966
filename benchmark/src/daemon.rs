//! The system under test as child processes: real `moqdns-relayd`
//! daemons on `127.0.0.1:0`, found by the address they print, stopped
//! with SIGTERM ([`stop_all`]), and never left behind — a [`Daemon`] dropped by a
//! panicking run still terminates and reaps its child.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const SIGTERM: i32 = 15;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

fn send_sigterm(pid: u32) {
    // SAFETY: `kill` takes two integers and touches no memory of ours;
    // `pid` names a child this process spawned and has not yet reaped, so
    // the id cannot have been reused.
    unsafe {
        kill(pid as i32, SIGTERM);
    }
}

/// The bound address out of `moqdns-relayd: Auth listening on
/// 127.0.0.1:40123 (1 worker(s))`.
pub fn parse_listening(line: &str) -> Option<SocketAddr> {
    let rest = line.split_once("listening on ")?.1;
    rest.split_ascii_whitespace().next()?.parse().ok()
}

/// `(rx, tx, clean)` out of `moqdns-relayd: stopped (rx=12 tx=34
/// datagrams, clean=true)`.
pub fn parse_stopped(line: &str) -> Option<(u64, u64, bool)> {
    let rest = line.split_once("stopped (")?.1;
    let num = |key: &str| -> Option<u64> {
        let v = rest.split_once(key)?.1;
        let end = v.find(|c: char| !c.is_ascii_digit()).unwrap_or(v.len());
        v[..end].parse().ok()
    };
    let clean = rest.split_once("clean=")?.1.starts_with("true");
    Some((num("rx=")?, num("tx=")?, clean))
}

/// What a daemon reported on its way out.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Process exit code (`None`: killed by a signal).
    pub code: Option<i32>,
    /// Datagrams the daemon read / wrote over its whole life.
    pub rx: u64,
    pub tx: u64,
}

impl Exit {
    /// Exit code 0 is one of the benchmark's correctness checks.
    pub fn clean(&self) -> bool {
        self.code == Some(0)
    }
}

/// One running daemon.
pub struct Daemon {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    /// The address it bound (parsed from its `listening on` line).
    pub addr: SocketAddr,
    pub pid: u32,
}

impl Daemon {
    /// Starts `bin` with `args` and waits for its `listening on` line.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid = child.id();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        // From here on the guard owns the child: an early return reaps it.
        let mut daemon = Daemon {
            child: Some(child),
            stdout,
            addr: "127.0.0.1:0".parse().expect("literal"),
            pid,
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = daemon
                .stdout
                .read_line(&mut line)
                .map_err(|e| e.to_string())?;
            if n == 0 {
                return Err(format!("daemon {args:?} exited before listening"));
            }
            if let Some(addr) = parse_listening(&line) {
                daemon.addr = addr;
                return Ok(daemon);
            }
        }
    }

    /// Waits for an already signalled daemon and reads its last words.
    fn wait(mut self) -> Exit {
        let mut child = self.child.take().expect("wait consumes the daemon");
        let code = wait_or_kill(&mut child, Duration::from_secs(10));
        // The daemon prints a few short lines in its life, far below the
        // pipe buffer, so reading after the exit cannot have blocked it.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let (rx, tx, _) = rest
            .lines()
            .find_map(parse_stopped)
            .unwrap_or((0, 0, false));
        Exit { code, rx, tx }
    }
}

/// Stops several daemons at once: all are signalled before any is waited
/// for, so their drain windows overlap. Each gets exactly one SIGTERM: a
/// second one, arriving while the main thread still handles the first,
/// is delivered to a worker thread, whose interrupted `recvmmsg` the
/// daemon takes for a dead socket (exit code 1).
pub fn stop_all(daemons: Vec<Daemon>) -> Vec<Exit> {
    for d in &daemons {
        send_sigterm(d.pid);
    }
    daemons.into_iter().map(Daemon::wait).collect()
}

/// Waits up to `grace` for the child, then SIGKILLs it. Always reaps.
fn wait_or_kill(child: &mut Child, grace: Duration) -> Option<i32> {
    let deadline = Instant::now() + grace;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.code(),
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            send_sigterm(self.pid);
            wait_or_kill(&mut child, Duration::from_secs(2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_line() {
        let a = parse_listening("moqdns-relayd: Auth listening on 127.0.0.1:40123 (1 worker(s))");
        assert_eq!(a, Some("127.0.0.1:40123".parse().unwrap()));
        assert_eq!(parse_listening("moqdns-relayd: draining"), None);
        assert_eq!(parse_listening("listening on nowhere"), None);
    }

    #[test]
    fn stopped_line() {
        let s = parse_stopped("moqdns-relayd: stopped (rx=120 tx=3456 datagrams, clean=true)");
        assert_eq!(s, Some((120, 3456, true)));
        let s = parse_stopped("moqdns-relayd: stopped (rx=1 tx=2 datagrams, clean=false)");
        assert_eq!(s, Some((1, 2, false)));
        assert_eq!(parse_stopped("moqdns-relayd: published round 3/5"), None);
    }
}
