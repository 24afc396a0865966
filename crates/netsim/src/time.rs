//! Virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant in simulated time, in nanoseconds since simulation start.
///
/// `SimTime` is a total order, starts at [`SimTime::ZERO`], and only ever
/// moves forward. All protocol code takes instants/durations as values —
/// nothing reads a wall clock — which is what makes simulation runs exactly
/// reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant (used as "no deadline").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since start.
    pub const fn from_nanos(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// Creates an instant from milliseconds since start.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from seconds since start.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `self - earlier`, saturating at zero.
    pub fn saturating_duration_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.as_nanos() as u64))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, d: Duration) -> SimTime {
        self.saturating_add(d)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.saturating_duration_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_nanos(3_000_000));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10);
        let u = t + Duration::from_millis(5);
        assert_eq!(u.as_millis(), 15);
        assert_eq!(u - t, Duration::from_millis(5));
        // Subtraction saturates rather than underflowing.
        assert_eq!(t - u, Duration::ZERO);
    }

    #[test]
    fn saturating_add_at_max() {
        assert_eq!(SimTime::MAX + Duration::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn ordering_and_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimTime::from_nanos(5_000).to_string(), "5.000us");
        assert_eq!(SimTime::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_secs(5).to_string(), "5.000s");
    }
}
