//! Minimal async-signal-safe SIGTERM/SIGINT latch.
//!
//! The container has no `libc` crate, so the handler is registered
//! through a raw `signal(2)` declaration (std links libc on unix). The
//! handler only stores to a static `AtomicBool` — async-signal-safe —
//! and the daemon's control loop polls the flag to begin its drain.

use std::sync::atomic::{AtomicBool, Ordering};

static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    TERM.store(true, Ordering::Relaxed);
}

/// Installs handlers for SIGTERM and SIGINT. Returns the latch; safe to
/// call more than once.
pub fn install() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler: extern "C" fn(i32) = on_signal;
        unsafe {
            signal(SIGTERM, handler as usize);
            signal(SIGINT, handler as usize);
        }
    }
    &TERM
}

/// Whether a termination signal has been received.
pub fn terminated() -> bool {
    TERM.load(Ordering::Relaxed)
}
