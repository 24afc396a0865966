//! Link models: propagation delay and random loss.

use std::time::Duration;

/// Configuration of a directed link between two simulated nodes.
///
/// A datagram sent at time `t` arrives at `t + delay`, unless it is
/// dropped at random with probability `loss` (a draw from the link's own
/// deterministic stream; a lossless link takes none).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub delay: Duration,
    /// Probability in `[0, 1]` that a datagram is silently dropped.
    pub loss: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        // A well-behaved wide-area path: 25 ms one way (50 ms RTT), lossless.
        LinkConfig {
            delay: Duration::from_millis(25),
            loss: 0.0,
        }
    }
}

impl LinkConfig {
    /// A link with only a fixed one-way delay.
    pub fn with_delay(delay: Duration) -> LinkConfig {
        LinkConfig {
            delay,
            ..LinkConfig::default()
        }
    }

    /// An instantaneous, lossless link (useful in unit tests).
    pub fn instant() -> LinkConfig {
        LinkConfig {
            delay: Duration::ZERO,
            ..LinkConfig::default()
        }
    }

    /// Sets the loss probability (clamped to `[0, 1]`).
    pub fn loss(mut self, p: f64) -> LinkConfig {
        self.loss = p.clamp(0.0, 1.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_is_clamped() {
        assert_eq!(LinkConfig::default().loss(1.7).loss, 1.0);
        assert_eq!(LinkConfig::default().loss(-0.5).loss, 0.0);
    }

    #[test]
    fn builders_compose() {
        let l = LinkConfig::with_delay(Duration::from_millis(100)).loss(0.01);
        assert_eq!(l.delay, Duration::from_millis(100));
        assert!((l.loss - 0.01).abs() < 1e-12);
    }
}
