//! Loss detection and congestion control (RFC 9002, simplified).
//!
//! * RTT estimation: SRTT/RTTVAR per RFC 6298-style smoothing;
//! * loss detection: packet threshold (default 3) plus a time threshold of
//!   9/8 · max(SRTT, latest RTT);
//! * probe timeout (PTO) — SRTT + max(4·RTTVAR, 1 ms) + the peer's
//!   acknowledgement allowance (zero in the simulator, 25 ms for a daemon
//!   on a real host; see `TransportConfig::max_ack_delay_ms`) — with
//!   exponential backoff, capped at [`MAX_PTO_BACKOFF`]× the base PTO so a
//!   dark peer costs a bounded, steady probe cadence instead of an
//!   unbounded timer;
//! * congestion control: slow start + AIMD on loss (NewReno flavoured,
//!   without recovery-period subtleties — fine for the low-bandwidth DNS
//!   workloads this repo studies).

use moqdns_netsim::SimTime;
use moqdns_wire::{btree_heap_bytes, VecMap};
use std::collections::BTreeMap;
use std::time::Duration;

/// Ceiling on the PTO backoff multiplier: the probe interval never
/// exceeds `MAX_PTO_BACKOFF × pto()`. 8× a ~100 ms base PTO keeps probes
/// under a second while an order of magnitude sparser than the first
/// retry — enough damping to survive a multi-second link flap without a
/// retransmit storm, yet bounded so recovery after the flap is prompt.
pub const MAX_PTO_BACKOFF: u32 = 8;
/// `log2(MAX_PTO_BACKOFF)` — the exponent the per-PTO doubling is
/// clamped to.
const MAX_PTO_BACKOFF_EXP: u32 = MAX_PTO_BACKOFF.ilog2();

/// Record of one in-flight packet.
#[derive(Debug, Clone)]
pub struct SentPacket {
    /// Transmission time.
    pub time_sent: SimTime,
    /// Bytes on the wire.
    pub size: usize,
    /// Whether it elicits an ACK (only those are PTO-relevant).
    pub ack_eliciting: bool,
    /// Opaque retransmission token: which stream ranges / crypto ranges /
    /// frames this packet carried, so the connection can requeue on loss.
    pub retx: Vec<RetxInfo>,
}

/// What to retransmit if a packet is lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetxInfo {
    /// Crypto bytes [offset, offset+len).
    Crypto {
        /// Start offset.
        offset: u64,
        /// Length.
        len: u64,
    },
    /// Stream bytes [offset, offset+len) (+FIN).
    Stream {
        /// Stream id value.
        id: u64,
        /// Start offset.
        offset: u64,
        /// Length.
        len: u64,
        /// Whether the frame carried FIN.
        fin: bool,
    },
    /// A MAX_DATA update (resend with current value).
    MaxData,
    /// A MAX_STREAM_DATA update for a stream.
    MaxStreamData {
        /// Stream id value.
        id: u64,
    },
    /// HANDSHAKE_DONE (server only).
    HandshakeDone,
    /// A handshake reply (ServerHello) — must be retransmittable or the
    /// client hangs.
    ServerHello,
}

/// RTT estimator (RFC 9002 §5).
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Duration,
    rttvar: Duration,
    latest: Duration,
    has_sample: bool,
}

impl RttEstimator {
    /// Creates an estimator seeded with `initial_rtt`.
    pub fn new(initial_rtt: Duration) -> RttEstimator {
        RttEstimator {
            srtt: initial_rtt,
            rttvar: initial_rtt / 2,
            latest: initial_rtt,
            has_sample: false,
        }
    }

    /// Feeds a new RTT sample.
    pub fn update(&mut self, sample: Duration) {
        self.latest = sample;
        if !self.has_sample {
            self.srtt = sample;
            self.rttvar = sample / 2;
            self.has_sample = true;
        } else {
            let diff = self.srtt.abs_diff(sample);
            self.rttvar = (self.rttvar * 3 + diff) / 4;
            self.srtt = (self.srtt * 7 + sample) / 8;
        }
    }

    /// Smoothed RTT.
    pub fn srtt(&self) -> Duration {
        self.srtt
    }

    /// Most recent sample.
    pub fn latest(&self) -> Duration {
        self.latest
    }

    /// Probe timeout: SRTT + max(4·RTTVAR, 1 ms).
    pub fn pto(&self) -> Duration {
        self.srtt + (self.rttvar * 4).max(Duration::from_millis(1))
    }

    /// Loss time threshold: 9/8 · max(SRTT, latest).
    pub fn loss_delay(&self) -> Duration {
        let base = self.srtt.max(self.latest);
        base + base / 8
    }
}

/// Outcome of processing an ACK or a timeout.
#[derive(Debug, Default)]
pub struct LossEvent {
    /// Packets newly declared lost (their retransmission info).
    pub lost: Vec<RetxInfo>,
    /// Retransmission info of packets newly acked — the connection feeds
    /// stream ranges back to `SendStream::on_ack` so send buffers drain
    /// and fully-delivered streams can be retired.
    pub acked: Vec<RetxInfo>,
    /// Number of packets newly acked.
    pub newly_acked: usize,
    /// Whether any loss occurred (for congestion response).
    pub had_loss: bool,
}

/// Sent-packet ledger + loss detection + congestion window.
#[derive(Debug)]
pub struct Recovery {
    sent: VecMap<u64, SentPacket>,
    largest_acked: Option<u64>,
    /// RTT state.
    pub rtt: RttEstimator,
    packet_threshold: u64,
    /// Congestion window, bytes.
    cwnd: u64,
    /// Slow start threshold.
    ssthresh: u64,
    bytes_in_flight: u64,
    pto_count: u32,
    /// The peer's allowance for acknowledging, part of every probe
    /// timeout ([`TransportConfig::max_ack_delay_ms`](crate::TransportConfig)).
    max_ack_delay_ms: u16,
    /// Earliest potential time-threshold loss among in-flight packets.
    loss_time: Option<SimTime>,
}

impl Recovery {
    /// Creates recovery state.
    pub fn new(initial_rtt: Duration, initial_cwnd: u64, packet_threshold: u64) -> Recovery {
        Recovery {
            sent: VecMap::new(),
            largest_acked: None,
            rtt: RttEstimator::new(initial_rtt),
            packet_threshold,
            cwnd: initial_cwnd,
            ssthresh: u64::MAX,
            bytes_in_flight: 0,
            pto_count: 0,
            max_ack_delay_ms: 0,
            loss_time: None,
        }
    }

    /// Allows the peer `ms` milliseconds to acknowledge before a probe.
    pub fn with_max_ack_delay(mut self, ms: u16) -> Recovery {
        self.max_ack_delay_ms = ms;
        self
    }

    /// Probe timeout: the estimator's, plus the peer's allowance.
    fn pto(&self) -> Duration {
        self.rtt.pto() + Duration::from_millis(self.max_ack_delay_ms as u64)
    }

    /// Bytes currently in flight.
    pub fn bytes_in_flight(&self) -> u64 {
        self.bytes_in_flight
    }

    /// Current congestion window.
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// True if congestion control permits sending `bytes` more.
    pub fn can_send(&self, bytes: usize) -> bool {
        self.bytes_in_flight + bytes as u64 <= self.cwnd
    }

    /// Updates the recorded send time of `pn` (the connection seals packets
    /// slightly before it stamps the datagram with the transmit time).
    pub fn touch_sent_time(&mut self, pn: u64, now: SimTime) {
        if let Some(p) = self.sent.get_mut(&pn) {
            p.time_sent = now;
        }
    }

    /// Records a transmitted packet.
    pub fn on_packet_sent(&mut self, pn: u64, pkt: SentPacket) {
        if pkt.ack_eliciting {
            self.bytes_in_flight += pkt.size as u64;
        }
        self.sent.insert(pn, pkt);
    }

    /// True if any ack-eliciting packets are unacknowledged.
    pub fn has_in_flight(&self) -> bool {
        self.sent.values().any(|p| p.ack_eliciting)
    }

    /// Processes ACK ranges; returns losses + ack accounting.
    pub fn on_ack_received(&mut self, now: SimTime, ranges: &[(u64, u64)]) -> LossEvent {
        let mut ev = LossEvent::default();
        let mut largest_newly_acked: Option<(u64, SimTime)> = None;

        for &(start, end) in ranges {
            self.sent.remove_range(start..=end, |pn, pkt| {
                if pkt.ack_eliciting {
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(pkt.size as u64);
                    // Congestion: slow start or avoidance.
                    if self.cwnd < self.ssthresh {
                        self.cwnd += pkt.size as u64;
                    } else {
                        self.cwnd += (pkt.size as u64 * pkt.size as u64 / self.cwnd).max(1);
                    }
                }
                ev.newly_acked += 1;
                if largest_newly_acked.map(|(l, _)| pn > l).unwrap_or(true) {
                    largest_newly_acked = Some((pn, pkt.time_sent));
                }
                ev.acked.extend(pkt.retx);
            });
        }

        if let Some((pn, time_sent)) = largest_newly_acked {
            if self.largest_acked.map(|l| pn > l).unwrap_or(true) {
                self.largest_acked = Some(pn);
                self.rtt.update(now - time_sent);
            }
            self.pto_count = 0;
        }

        self.detect_losses(now, &mut ev);
        ev
    }

    /// Declares losses by packet threshold and time threshold.
    fn detect_losses(&mut self, now: SimTime, ev: &mut LossEvent) {
        let Some(largest_acked) = self.largest_acked else {
            self.loss_time = None;
            return;
        };
        let delay = self.rtt.loss_delay();
        let mut lost_pns = Vec::new();
        self.loss_time = None;
        for (&pn, pkt) in self.sent.iter() {
            if pn > largest_acked {
                break;
            }
            let by_count = largest_acked - pn >= self.packet_threshold;
            let lost_at = pkt.time_sent + delay;
            let by_time = lost_at <= now;
            if by_count || by_time {
                lost_pns.push(pn);
            } else {
                // Earliest pending time-threshold deadline.
                self.loss_time = Some(match self.loss_time {
                    Some(t) => t.min(lost_at),
                    None => lost_at,
                });
            }
        }
        for pn in lost_pns {
            let pkt = self.sent.remove(&pn).unwrap();
            if pkt.ack_eliciting {
                self.bytes_in_flight = self.bytes_in_flight.saturating_sub(pkt.size as u64);
            }
            ev.lost.extend(pkt.retx);
            ev.had_loss = true;
        }
        if ev.had_loss {
            // AIMD response once per loss event batch.
            self.ssthresh = (self.cwnd / 2).max(2 * 1200);
            self.cwnd = self.ssthresh;
        }
    }

    /// When the loss-detection timer should next fire (time-threshold or PTO).
    pub fn next_timeout(&self) -> Option<SimTime> {
        if let Some(t) = self.loss_time {
            return Some(t);
        }
        // PTO from the oldest ack-eliciting in-flight packet. The backoff
        // doubles per consecutive PTO but is capped at MAX_PTO_BACKOFF ×
        // the base PTO: against a dark peer the probe cadence settles to a
        // bounded, steady interval instead of growing without limit (the
        // hazard `core::links::redial` works around — an uncapped timer
        // under an hour-long idle timeout can exceed the idle window
        // itself, leaving a stalled dial retransmitting into a void for
        // minutes between probes).
        let oldest = self
            .sent
            .values()
            .filter(|p| p.ack_eliciting)
            .map(|p| p.time_sent)
            .min()?;
        let backoff = 2u32.saturating_pow(self.pto_count.min(MAX_PTO_BACKOFF_EXP));
        Some(oldest + self.pto() * backoff)
    }

    /// Handles the loss-detection timer firing: declares time-threshold
    /// losses; if none pending, treats it as a PTO (retransmit everything
    /// outstanding — aggressive but simple and correct).
    pub fn on_timeout(&mut self, now: SimTime) -> LossEvent {
        let mut ev = LossEvent::default();
        self.detect_losses(now, &mut ev);
        if !ev.had_loss && self.has_in_flight() {
            // PTO: requeue all outstanding data for retransmission.
            self.pto_count += 1;
            for (_, pkt) in std::mem::take(&mut self.sent) {
                if pkt.ack_eliciting {
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(pkt.size as u64);
                }
                ev.lost.extend(pkt.retx);
            }
            ev.had_loss = true;
            self.ssthresh = (self.cwnd / 2).max(2 * 1200);
            self.cwnd = self.ssthresh;
        }
        ev
    }

    /// Number of tracked in-flight packets (diagnostics).
    pub fn tracked(&self) -> usize {
        self.sent.len()
    }

    /// Bytes of heap storage the ledger holds (capacities).
    pub fn heap_bytes(&self) -> usize {
        self.sent.heap_bytes()
            + self
                .sent
                .values()
                .map(|p| p.retx.capacity() * std::mem::size_of::<RetxInfo>())
                .sum::<usize>()
    }
}

/// Tracks received packet numbers and builds ACK ranges.
#[derive(Debug, Default)]
pub struct AckTracker {
    /// Received ranges, merged, as start -> end (inclusive). A B-tree, not
    /// a [`VecMap`]: the peer picks the packet numbers and how many gaps
    /// it leaves, so neither the insert position nor the size is ours.
    ranges: BTreeMap<u64, u64>,
    /// Whether an ACK-eliciting packet arrived since the last ACK we sent.
    pub ack_pending: bool,
}

impl AckTracker {
    /// Records receipt of packet `pn`. Returns false for duplicates.
    pub fn on_packet(&mut self, pn: u64) -> bool {
        // Find a range that contains or abuts pn.
        if let Some((&s, &e)) = self.ranges.range(..=pn).next_back() {
            if pn <= e {
                return false; // duplicate
            }
            if pn == e + 1 {
                // Extend; maybe merge with the next range.
                let mut new_end = pn;
                if let Some((&ns, &ne)) = self.ranges.range(pn + 1..).next() {
                    if ns == pn + 1 {
                        self.ranges.remove(&ns);
                        new_end = ne;
                    }
                }
                self.ranges.insert(s, new_end);
                return true;
            }
        }
        // Maybe abuts the next range from below.
        if let Some((&ns, &ne)) = self.ranges.range(pn + 1..).next() {
            if ns == pn + 1 {
                self.ranges.remove(&ns);
                self.ranges.insert(pn, ne);
                return true;
            }
        }
        self.ranges.insert(pn, pn);
        true
    }

    /// ACK ranges, highest first, capped at 32 ranges.
    pub fn ack_ranges(&self) -> Vec<(u64, u64)> {
        self.ranges
            .iter()
            .rev()
            .take(32)
            .map(|(&s, &e)| (s, e))
            .collect()
    }

    /// True if anything has been received.
    pub fn any(&self) -> bool {
        !self.ranges.is_empty()
    }

    /// Bytes of heap storage the range table holds (estimated nodes).
    pub fn heap_bytes(&self) -> usize {
        btree_heap_bytes::<u64, u64>(self.ranges.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn pkt(time_ms: u64, size: usize) -> SentPacket {
        SentPacket {
            time_sent: t(time_ms),
            size,
            ack_eliciting: true,
            retx: vec![RetxInfo::Stream {
                id: 0,
                offset: 0,
                len: size as u64,
                fin: false,
            }],
        }
    }

    #[test]
    fn rtt_estimator_smoothing() {
        let mut rtt = RttEstimator::new(Duration::from_millis(100));
        rtt.update(Duration::from_millis(50));
        assert_eq!(rtt.srtt(), Duration::from_millis(50));
        rtt.update(Duration::from_millis(100));
        // 7/8*50 + 1/8*100 = 56.25
        assert!(rtt.srtt() > Duration::from_millis(55) && rtt.srtt() < Duration::from_millis(58));
        assert!(rtt.pto() > rtt.srtt());
        assert!(rtt.loss_delay() >= rtt.srtt());
    }

    #[test]
    fn ack_removes_and_grows_cwnd() {
        let mut r = Recovery::new(Duration::from_millis(100), 12_000, 3);
        r.on_packet_sent(0, pkt(0, 1200));
        assert_eq!(r.bytes_in_flight(), 1200);
        let ev = r.on_ack_received(t(100), &[(0, 0)]);
        assert_eq!(ev.newly_acked, 1);
        assert_eq!(r.bytes_in_flight(), 0);
        assert!(r.cwnd() > 12_000); // slow start growth
        assert_eq!(r.rtt.latest(), Duration::from_millis(100));
    }

    #[test]
    fn packet_threshold_loss() {
        let mut r = Recovery::new(Duration::from_millis(100), 12_000, 3);
        for pn in 0..5 {
            r.on_packet_sent(pn, pkt(pn, 1200));
        }
        // ACK only pn=4: pn 0 and 1 are ≥3 behind → lost.
        let ev = r.on_ack_received(t(100), &[(4, 4)]);
        assert!(ev.had_loss);
        assert_eq!(ev.lost.len(), 2);
        assert!(r.cwnd() < 12_000 + 1200); // multiplicative decrease happened
    }

    #[test]
    fn time_threshold_loss_via_timer() {
        let mut r = Recovery::new(Duration::from_millis(100), 12_000, 3);
        r.on_packet_sent(0, pkt(0, 500));
        r.on_packet_sent(1, pkt(1, 500));
        // ACK pn=1 quickly; pn=0 is only 1 behind (< threshold) but the
        // time threshold will catch it.
        let ev = r.on_ack_received(t(10), &[(1, 1)]);
        assert!(!ev.had_loss);
        let deadline = r.next_timeout().expect("loss timer armed");
        let ev = r.on_timeout(deadline);
        assert!(ev.had_loss);
        assert_eq!(ev.lost.len(), 1);
    }

    #[test]
    fn pto_requeues_everything() {
        let mut r = Recovery::new(Duration::from_millis(100), 12_000, 3);
        r.on_packet_sent(0, pkt(0, 500));
        let deadline = r.next_timeout().unwrap();
        let ev = r.on_timeout(deadline);
        assert!(ev.had_loss);
        assert_eq!(ev.lost.len(), 1);
        assert!(!r.has_in_flight());
        // Successive PTOs back off.
        r.on_packet_sent(1, pkt(deadline.as_millis(), 500));
        let d2 = r.next_timeout().unwrap();
        assert!(d2 - deadline > r.rtt.pto());
    }

    #[test]
    fn the_peers_ack_allowance_is_part_of_the_probe_timeout() {
        // A peer that takes 10 ms to acknowledge and is once 8 ms late:
        // the bare estimator (10 ms + max(4·rttvar, 1 ms)) probes for a
        // packet that was never lost; 25 ms of allowance waits it out.
        let late = |r: &mut Recovery| {
            for (pn, ms) in (0..8).zip((0..).step_by(100)) {
                r.on_packet_sent(pn, pkt(ms, 100));
                r.on_ack_received(t(ms + 10), &[(0, pn)]);
            }
            r.on_packet_sent(8, pkt(800, 100));
            r.next_timeout().unwrap() < t(818)
        };
        let new = || Recovery::new(Duration::from_millis(100), 12_000, 3);
        assert!(late(&mut new()));
        assert!(!late(&mut new().with_max_ack_delay(25)));

        // The allowance backs off with the rest of the timeout.
        let mut r = new().with_max_ack_delay(25);
        r.on_packet_sent(0, pkt(0, 100));
        let first = r.next_timeout().unwrap();
        assert_eq!(first, t(0) + r.rtt.pto() + Duration::from_millis(25));
        r.on_timeout(first);
        r.on_packet_sent(1, pkt(first.as_millis(), 100));
        assert_eq!(r.next_timeout().unwrap() - first, (first - t(0)) * 2);
    }

    #[test]
    fn pto_backoff_is_capped_against_a_dark_peer() {
        // Regression for the unbounded-backoff hazard: a peer that stays
        // dark for many consecutive PTOs must leave the probe interval at
        // a bounded multiple of the base PTO, so revival is detected
        // promptly and each probe retransmits only the (bounded) set of
        // outstanding frames — never a burst that grows with how long the
        // peer was dark.
        let mut r = Recovery::new(Duration::from_millis(100), 12_000, 3);
        let mut now = t(0);
        let mut intervals = Vec::new();
        let mut largest_retx = 0usize;
        for pn in 0..32u64 {
            r.on_packet_sent(pn, pkt(now.as_millis(), 500));
            let deadline = r.next_timeout().expect("PTO armed while in flight");
            intervals.push(deadline - now);
            now = deadline;
            let ev = r.on_timeout(now);
            assert!(ev.had_loss, "every dark-peer timeout is a PTO");
            largest_retx = largest_retx.max(ev.lost.len());
        }
        let cap = r.rtt.pto() * MAX_PTO_BACKOFF;
        for (i, d) in intervals.iter().enumerate() {
            assert!(
                *d <= cap,
                "PTO {i} interval {d:?} exceeds the {MAX_PTO_BACKOFF}x cap {cap:?}"
            );
        }
        // The interval stops growing once the cap is reached …
        let tail = &intervals[MAX_PTO_BACKOFF.ilog2() as usize..];
        assert!(
            tail.windows(2).all(|w| w[0] == w[1]),
            "interval kept growing past the cap: {tail:?}"
        );
        // … and each probe requeues exactly the one outstanding packet's
        // frames: no accumulation across 32 dark PTOs.
        assert_eq!(largest_retx, 1, "retransmit set grew while dark");
        // Revival: a single ACK resets the backoff to the base PTO.
        r.on_packet_sent(100, pkt(now.as_millis(), 500));
        r.on_ack_received(now + Duration::from_millis(100), &[(100, 100)]);
        r.on_packet_sent(
            101,
            pkt((now + Duration::from_millis(100)).as_millis(), 500),
        );
        let after = r.next_timeout().unwrap() - (now + Duration::from_millis(100));
        assert!(
            after <= r.rtt.pto() * 2,
            "backoff did not reset on revival: {after:?}"
        );
    }

    #[test]
    fn can_send_respects_cwnd() {
        let mut r = Recovery::new(Duration::from_millis(100), 2400, 3);
        assert!(r.can_send(1200));
        r.on_packet_sent(0, pkt(0, 1200));
        assert!(r.can_send(1200));
        r.on_packet_sent(1, pkt(0, 1200));
        assert!(!r.can_send(1));
    }

    #[test]
    fn ack_tracker_merges_ranges() {
        let mut a = AckTracker::default();
        assert!(a.on_packet(0));
        assert!(a.on_packet(1));
        assert!(a.on_packet(5));
        assert!(a.on_packet(3));
        assert!(!a.on_packet(1)); // duplicate
        assert_eq!(a.ack_ranges(), vec![(5, 5), (3, 3), (0, 1)]);
        assert!(a.on_packet(2)); // merges 0-1, 2, 3 into 0-3
        assert_eq!(a.ack_ranges(), vec![(5, 5), (0, 3)]);
        assert!(a.on_packet(4)); // merges all
        assert_eq!(a.ack_ranges(), vec![(0, 5)]);
    }

    #[test]
    fn ack_tracker_out_of_order_prepend() {
        let mut a = AckTracker::default();
        assert!(a.on_packet(5));
        assert!(a.on_packet(4)); // abuts from below
        assert_eq!(a.ack_ranges(), vec![(4, 5)]);
    }

    #[test]
    fn ack_tracker_hostile_packet_number_order_stays_cheap() {
        // The peer picks the packet numbers. Every other number, highest
        // first, never merges: each is a new range in front of all the
        // others — quadratic in a sorted vector (2 s in a release
        // build), ~n log n in the B-tree this table is (about 10 ms).
        let n = 100_000u64;
        let mut a = AckTracker::default();
        let started = std::time::Instant::now();
        for pn in (0..n).rev() {
            assert!(a.on_packet(pn * 2));
        }
        assert!(!a.on_packet(0), "duplicates are still recognised");
        let took = started.elapsed();
        assert_eq!(a.ack_ranges().len(), 32);
        assert_eq!(a.ack_ranges()[0], (2 * (n - 1), 2 * (n - 1)));
        assert!(
            took < std::time::Duration::from_secs(1),
            "100,000 descending packet numbers took {took:?}"
        );
    }

    #[test]
    fn no_timer_when_nothing_in_flight() {
        let r = Recovery::new(Duration::from_millis(100), 12_000, 3);
        assert!(r.next_timeout().is_none());
    }
}
