//! Transport configuration.
//!
//! A connection keeps its config as a place in the process's table of
//! configs (`crate::table`), as its endpoint does: no handle, no heap, and
//! a table full of distinct configs is a programming error.

use crate::table::Table;
use std::time::Duration;

/// Largest datagram (UDP payload) a connection emits, and the budget a
/// DATAGRAM frame must fit in.
pub const MAX_UDP_PAYLOAD: usize = 1350;

/// Tunables for a connection/endpoint.
///
/// Defaults are chosen for the DNS-over-MoQT workloads: long-lived,
/// low-bandwidth sessions that must stay alive across quiet periods
/// (paper §5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportConfig {
    /// RTT estimate used before any sample exists.
    pub initial_rtt: Duration,
    /// Connection dies after this long without receiving anything
    /// (QUIC `max_idle_timeout`).
    pub max_idle_timeout: Duration,
    /// If set, send a PING whenever the connection has been quiet this long
    /// — the liveness testing §5.1 calls for. Must be well under
    /// `max_idle_timeout` to be useful.
    pub keep_alive_interval: Option<Duration>,
    /// Connection-level flow control window (bytes).
    pub max_data: u64,
    /// Per-stream flow control window (bytes).
    pub max_stream_data: u64,
    /// How many concurrent streams the peer may open, per direction: for
    /// unidirectional streams a window that MAX_STREAMS moves as they are
    /// read, for bidirectional ones a fixed cap.
    ///
    /// Both ends must run the same value. It is not negotiated — each
    /// side assumes the peer's is its own — so a sender whose window is
    /// larger than its peer's is closed for opening past the peer's
    /// limit, and one whose window is under half its peer's stalls for
    /// good: the peer advertises credit only once half of *its* window
    /// has been read.
    pub max_streams: u64,
    /// Initial congestion window in bytes.
    pub initial_cwnd: u64,
    /// How long a peer may sit on an acknowledgement, in milliseconds —
    /// what RFC 9000's `max_ack_delay` transport parameter (an integer of
    /// milliseconds there too) would say; this handshake carries none, so
    /// it is assumed here. Added to the probe timeout (RFC 9002 §6.2.1).
    /// Zero by default: a simulated peer acknowledges at the very instant
    /// a packet arrives. A peer on a real host does not — its io loop
    /// drains bursts, its scheduler preempts it — and a sender that
    /// allows it nothing probes for packets that were never lost.
    pub max_ack_delay_ms: u16,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            initial_rtt: Duration::from_millis(100),
            max_idle_timeout: Duration::from_secs(30),
            keep_alive_interval: None,
            max_data: 4 * 1024 * 1024,
            max_stream_data: 1024 * 1024,
            max_streams: 1024,
            initial_cwnd: 12_000,
            max_ack_delay_ms: 0,
        }
    }
}

/// The process's transport configs (`crate::table`).
static CONFIGS: Table<TransportConfig> = Table::new();

/// A config's place in the process's table (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConfigId(u8);

impl ConfigId {
    /// The place of the config equal to `config`, taken for it if the
    /// table holds none.
    ///
    /// # Panics
    ///
    /// If the table is full of other configs.
    pub(crate) fn of(config: &TransportConfig) -> ConfigId {
        let place = CONFIGS.place(|c| c == config, || config.clone());
        ConfigId(place.expect("fewer than 255 distinct transport configs in one process"))
    }

    /// The config.
    pub(crate) fn get(self) -> &'static TransportConfig {
        CONFIGS
            .get(self.0)
            .expect("an id names a config in the table")
    }
}

impl TransportConfig {
    /// The transport of every standing node, the one a subscription is
    /// held over for days: an hour of idle timeout (a partition never
    /// kills the connection, retransmission drains it on heal) and a
    /// 25 s keep-alive.
    pub fn patient() -> Self {
        TransportConfig::default()
            .idle_timeout(Duration::from_secs(3600))
            .keep_alive(Duration::from_secs(25))
    }

    /// Sets the keep-alive interval (builder style).
    pub fn keep_alive(mut self, every: Duration) -> Self {
        self.keep_alive_interval = Some(every);
        self
    }

    /// Sets the idle timeout (builder style).
    pub fn idle_timeout(mut self, t: Duration) -> Self {
        self.max_idle_timeout = t;
        self
    }

    /// Sets the acknowledgement delay allowed to peers (builder style;
    /// whole milliseconds).
    pub fn max_ack_delay(mut self, d: Duration) -> Self {
        self.max_ack_delay_ms = d.as_millis().try_into().unwrap_or(u16::MAX);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = TransportConfig::default();
        const { assert!(MAX_UDP_PAYLOAD >= 1200) };
        assert!(c.max_stream_data <= c.max_data);
        assert!(c.keep_alive_interval.is_none());
        assert_eq!(c.max_ack_delay_ms, 0, "simulated peers acknowledge at once");
    }

    #[test]
    fn builders() {
        let c = TransportConfig::default()
            .keep_alive(Duration::from_secs(5))
            .idle_timeout(Duration::from_secs(60))
            .max_ack_delay(Duration::from_millis(25));
        assert_eq!(c.keep_alive_interval, Some(Duration::from_secs(5)));
        assert_eq!(c.max_idle_timeout, Duration::from_secs(60));
        assert_eq!(c.max_ack_delay_ms, 25);
    }
}
