//! Loss detection and congestion control (RFC 9002, simplified).
//!
//! **What the ledger holds.** [`Recovery`] records the ack-eliciting
//! packets in flight and nothing else: every entry can still be lost,
//! counts against the congestion window and arms the probe timer
//! (RFC 9002 §2). A packet that carries only an ACK (or a
//! CONNECTION_CLOSE) is never handed to [`Recovery::on_packet_sent`] —
//! nothing acknowledges it on its own, so an endpoint that only listens
//! would otherwise hold one entry per packet it ever sent until a
//! keep-alive happened to draw an ACK covering them.
//!
//! **Packet-number order is send order.** A connection numbers its
//! packets as it sends them and stamps each with the time of the
//! `poll_transmit` call that built it, so the ledger — sorted by packet
//! number — is sorted by send time too, and stays so when a probe
//! timeout empties it and the requeued data leaves under fresh numbers.
//! The probe timer therefore reads the *first* entry instead of
//! scanning for the oldest.
//!
//! **An ACK for a number that is not here** is an ACK for an ack-only
//! packet, for one already acknowledged or declared lost, or for one
//! never sent: in every case it finds nothing and changes nothing. An RTT
//! sample is taken only from the largest *ledgered* packet an ACK newly
//! covers, which is ack-eliciting by construction (RFC 9002 §5.1), and
//! an ack-only packet that goes missing is no congestion event (§7).
//!
//! * RTT estimation: SRTT/RTTVAR per RFC 6298-style smoothing;
//! * loss detection: packet threshold (always 3) plus a time threshold of
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
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Duration;

thread_local! {
    /// Where an ACK's newly acknowledged entries are gathered; handed
    /// back by [`LossEvent::recycle`].
    static ACKED: RefCell<Vec<RetxInfo>> = const { RefCell::new(Vec::new()) };
}

/// Ceiling on the PTO backoff multiplier: the probe interval never
/// exceeds `MAX_PTO_BACKOFF × pto()`. 8× a ~100 ms base PTO keeps probes
/// under a second while an order of magnitude sparser than the first
/// retry — enough damping to survive a multi-second link flap without a
/// retransmit storm, yet bounded so recovery after the flap is prompt.
pub const MAX_PTO_BACKOFF: u32 = 8;
/// `log2(MAX_PTO_BACKOFF)` — the exponent the per-PTO doubling is
/// clamped to.
const MAX_PTO_BACKOFF_EXP: u32 = MAX_PTO_BACKOFF.ilog2();

/// A packet is lost once one sent this many packets after it is
/// acknowledged — RFC 9002's kPacketThreshold.
const PACKET_THRESHOLD: u64 = 3;

/// Record of one ack-eliciting packet in flight.
#[derive(Debug, Clone)]
pub struct SentPacket {
    /// Transmission time.
    pub time_sent: SimTime,
    /// Bytes on the wire.
    pub size: usize,
    /// Opaque retransmission token: which stream ranges / crypto ranges /
    /// frames this packet carried, so the connection can requeue on loss.
    pub retx: RetxList,
}

/// A packet's retransmission token. A packet is in flight for a round
/// trip and most carry one entry, so one is held inline and more on the
/// heap at exactly their number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetxList {
    /// One entry.
    One(RetxInfo),
    /// None, or more than one.
    Many(Box<[RetxInfo]>),
}

impl From<&[RetxInfo]> for RetxList {
    fn from(retx: &[RetxInfo]) -> RetxList {
        match retx {
            [one] => RetxList::One(one.clone()),
            many => RetxList::Many(many.into()),
        }
    }
}

impl RetxList {
    /// The entries.
    pub fn as_slice(&self) -> &[RetxInfo] {
        match self {
            RetxList::One(one) => std::slice::from_ref(one),
            RetxList::Many(many) => many,
        }
    }

    /// Bytes of heap storage held.
    pub fn heap_bytes(&self) -> usize {
        match self {
            RetxList::One(_) => 0,
            RetxList::Many(many) => std::mem::size_of_val::<[RetxInfo]>(many),
        }
    }
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
    /// A MAX_STREAMS update for unidirectional streams (resend with the
    /// current limit).
    MaxStreams,
    /// HANDSHAKE_DONE (server only).
    HandshakeDone,
    /// A handshake reply (ServerHello) — must be retransmittable or the
    /// client hangs.
    ServerHello,
}

/// RTT estimator (RFC 9002 §5).
///
/// **Held as nanoseconds, computed as [`Duration`]s.** A connection keeps
/// its estimator for as long as it is held, so the three times are one
/// `u64` each, not a 16-byte `Duration`, and "no sample yet" is the
/// latest sample's sentinel (`NO_SAMPLE`), not a flag: until the first
/// sample the latest reads as the seed, which is also the smoothed RTT.
/// Every computation turns the times back first and runs the `Duration`
/// arithmetic it always ran, so no value it computes moves, light-minute
/// round trips included
/// (`prop_the_packed_estimator_computes_what_durations_did`).
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt_ns: u64,
    rttvar_ns: u64,
    /// The latest sample, or `NO_SAMPLE` before the first.
    latest_ns: u64,
}

/// `RttEstimator::latest_ns` before the first sample: 584 years, more
/// than any sample a simulated or real clock can take.
const NO_SAMPLE: u64 = u64::MAX;

/// `d` in whole nanoseconds: exact below 584 years, saturating above.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl RttEstimator {
    /// Creates an estimator seeded with `initial_rtt`.
    pub fn new(initial_rtt: Duration) -> RttEstimator {
        RttEstimator {
            srtt_ns: nanos(initial_rtt),
            rttvar_ns: nanos(initial_rtt / 2),
            latest_ns: NO_SAMPLE,
        }
    }

    /// Feeds a new RTT sample.
    pub fn update(&mut self, sample: Duration) {
        let first = self.latest_ns == NO_SAMPLE;
        self.latest_ns = nanos(sample);
        if first {
            self.srtt_ns = nanos(sample);
            self.rttvar_ns = nanos(sample / 2);
        } else {
            let (srtt, rttvar) = (self.srtt(), self.rttvar());
            let diff = srtt.abs_diff(sample);
            self.rttvar_ns = nanos((rttvar * 3 + diff) / 4);
            self.srtt_ns = nanos((srtt * 7 + sample) / 8);
        }
    }

    /// Smoothed RTT.
    pub fn srtt(&self) -> Duration {
        Duration::from_nanos(self.srtt_ns)
    }

    fn rttvar(&self) -> Duration {
        Duration::from_nanos(self.rttvar_ns)
    }

    /// Most recent sample; the seed before the first.
    pub fn latest(&self) -> Duration {
        match self.latest_ns {
            NO_SAMPLE => self.srtt(),
            ns => Duration::from_nanos(ns),
        }
    }

    /// Probe timeout: SRTT + max(4·RTTVAR, 1 ms).
    pub fn pto(&self) -> Duration {
        self.srtt() + (self.rttvar() * 4).max(Duration::from_millis(1))
    }

    /// Loss time threshold: 9/8 · max(SRTT, latest).
    pub fn loss_delay(&self) -> Duration {
        let base = self.srtt().max(self.latest());
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

impl LossEvent {
    /// Hands the storage `acked` was gathered in back to the thread, for
    /// the next ACK: every ACK that acknowledges something gathers, and
    /// this spares it an allocation.
    pub fn recycle(self) {
        let mut acked = self.acked;
        acked.clear();
        ACKED.with_borrow_mut(|kept| {
            if acked.capacity() > kept.capacity() {
                *kept = acked;
            }
        });
    }
}

/// The sent-packet ledger: ack-eliciting packets in flight, by packet
/// number — which is also by send time (see the module docs). It holds
/// only what is in flight, so a connection keeps it in its in-flight
/// record (`crate::connection` module docs) and hands it to
/// [`Recovery`]'s calls.
pub type Ledger = VecMap<u64, SentPacket>;

/// Loss detection + congestion window over a [`Ledger`] kept elsewhere.
///
/// A connection holds this for as long as it is held, so the two values
/// that may be absent are sentinels, not `Option`s and their tags:
/// `NO_PACKET` for "nothing acknowledged yet" (no packet number comes
/// near it) and [`SimTime::MAX`] for "no time-threshold loss pending" (a
/// deadline at the end of time never fires).
#[derive(Debug)]
pub struct Recovery {
    /// The largest packet number acknowledged, or `NO_PACKET`.
    largest_acked: u64,
    /// RTT state.
    pub rtt: RttEstimator,
    /// Congestion window, bytes.
    cwnd: u64,
    /// Slow start threshold.
    ssthresh: u64,
    bytes_in_flight: u64,
    pto_count: u32,
    /// The peer's allowance for acknowledging, part of every probe
    /// timeout ([`TransportConfig::max_ack_delay_ms`](crate::TransportConfig)).
    max_ack_delay_ms: u16,
    /// Earliest potential time-threshold loss among in-flight packets,
    /// or [`SimTime::MAX`].
    loss_time: SimTime,
}

/// A packet number no connection reaches: QUIC's end at 2^62 - 1.
const NO_PACKET: u64 = u64::MAX;

// A held connection keeps its `Recovery` and its `AckTracker` for as long
// as it is held (`crate::connection` module docs, "What a held connection
// keeps").
const _: () = assert!(std::mem::size_of::<Recovery>() <= 72);
const _: () = assert!(std::mem::size_of::<AckTracker>() <= 32);

impl Recovery {
    /// Creates recovery state.
    pub fn new(initial_rtt: Duration, initial_cwnd: u64) -> Recovery {
        Recovery {
            largest_acked: NO_PACKET,
            rtt: RttEstimator::new(initial_rtt),
            cwnd: initial_cwnd,
            ssthresh: u64::MAX,
            bytes_in_flight: 0,
            pto_count: 0,
            max_ack_delay_ms: 0,
            loss_time: SimTime::MAX,
        }
    }

    /// Allows the peer `ms` milliseconds to acknowledge before a probe.
    pub fn with_max_ack_delay(mut self, ms: u16) -> Recovery {
        self.max_ack_delay_ms = ms;
        self
    }

    /// The largest packet number acknowledged among those the ledger
    /// held, once one is: what a packet number is truncated against
    /// ([`crate::packet::pn_len`]).
    pub fn largest_acked(&self) -> Option<u64> {
        (self.largest_acked != NO_PACKET).then_some(self.largest_acked)
    }

    /// The earliest pending time-threshold loss, if any.
    fn loss_time(&self) -> Option<SimTime> {
        (self.loss_time != SimTime::MAX).then_some(self.loss_time)
    }

    /// Probe timeout: the estimator's, plus the peer's allowance.
    fn pto(&self) -> Duration {
        self.rtt.pto() + Duration::from_millis(self.max_ack_delay_ms as u64)
    }

    /// Bytes currently in flight.
    #[cfg(test)]
    pub fn bytes_in_flight(&self) -> u64 {
        self.bytes_in_flight
    }

    /// Current congestion window.
    #[cfg(test)]
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// True if congestion control permits sending `bytes` more.
    pub fn can_send(&self, bytes: usize) -> bool {
        self.bytes_in_flight + bytes as u64 <= self.cwnd
    }

    /// Records a transmitted ack-eliciting packet in `sent`. Ack-only
    /// packets are not recorded (see the module docs).
    pub fn on_packet_sent(&mut self, sent: &mut Ledger, pn: u64, pkt: SentPacket) {
        debug_assert!(
            sent.iter()
                .next_back()
                .is_none_or(|(&last, p)| last < pn && p.time_sent <= pkt.time_sent),
            "packet {pn} sent at {:?} is out of send order",
            pkt.time_sent
        );
        self.bytes_in_flight += pkt.size as u64;
        sent.insert(pn, pkt);
    }

    /// Processes ACK ranges against `sent`; returns losses + ack
    /// accounting.
    pub fn on_ack_received(
        &mut self,
        sent: &mut Ledger,
        now: SimTime,
        ranges: impl IntoIterator<Item = (u64, u64)>,
    ) -> LossEvent {
        let mut ev = LossEvent {
            acked: ACKED.take(),
            ..LossEvent::default()
        };
        let mut largest_newly_acked: Option<(u64, SimTime)> = None;

        for (start, end) in ranges {
            sent.remove_range(start..=end, |pn, pkt| {
                self.bytes_in_flight = self.bytes_in_flight.saturating_sub(pkt.size as u64);
                // Congestion: slow start or avoidance.
                if self.cwnd < self.ssthresh {
                    self.cwnd += pkt.size as u64;
                } else {
                    self.cwnd += (pkt.size as u64 * pkt.size as u64 / self.cwnd).max(1);
                }
                ev.newly_acked += 1;
                if largest_newly_acked.map(|(l, _)| pn > l).unwrap_or(true) {
                    largest_newly_acked = Some((pn, pkt.time_sent));
                }
                ev.acked.extend_from_slice(pkt.retx.as_slice());
            });
        }

        if let Some((pn, time_sent)) = largest_newly_acked {
            if self.largest_acked().is_none_or(|l| pn > l) {
                self.largest_acked = pn;
                self.rtt.update(now - time_sent);
            }
            self.pto_count = 0;
        }

        self.detect_losses(sent, now, &mut ev);
        ev
    }

    /// Declares losses by packet threshold and time threshold.
    fn detect_losses(&mut self, sent: &mut Ledger, now: SimTime, ev: &mut LossEvent) {
        self.loss_time = SimTime::MAX;
        let Some(largest_acked) = self.largest_acked() else {
            return;
        };
        let delay = self.rtt.loss_delay();
        let mut lost_pns = Vec::new();
        for (&pn, pkt) in sent.iter() {
            if pn > largest_acked {
                break;
            }
            let by_count = largest_acked - pn >= PACKET_THRESHOLD;
            let lost_at = pkt.time_sent + delay;
            let by_time = lost_at <= now;
            if by_count || by_time {
                lost_pns.push(pn);
            } else {
                // Earliest pending time-threshold deadline.
                self.loss_time = self.loss_time.min(lost_at);
            }
        }
        for pn in lost_pns {
            let pkt = sent.remove(&pn).unwrap();
            self.bytes_in_flight = self.bytes_in_flight.saturating_sub(pkt.size as u64);
            ev.lost.extend_from_slice(pkt.retx.as_slice());
            ev.had_loss = true;
        }
        if ev.had_loss {
            // AIMD response once per loss event batch.
            self.ssthresh = (self.cwnd / 2).max(2 * 1200);
            self.cwnd = self.ssthresh;
        }
    }

    /// When the loss-detection timer should next fire (time-threshold or
    /// PTO), with `sent` in flight.
    pub fn next_timeout(&self, sent: &Ledger) -> Option<SimTime> {
        if let Some(t) = self.loss_time() {
            return Some(t);
        }
        // PTO from the oldest packet in flight, which is the first entry
        // (packet-number order is send order). The backoff
        // doubles per consecutive PTO but is capped at MAX_PTO_BACKOFF ×
        // the base PTO: against a dark peer the probe cadence settles to a
        // bounded, steady interval instead of growing without limit (the
        // hazard `core::links::redial` works around — an uncapped timer
        // under an hour-long idle timeout can exceed the idle window
        // itself, leaving a stalled dial retransmitting into a void for
        // minutes between probes).
        let oldest = sent.values().next()?.time_sent;
        let backoff = 2u32.saturating_pow(self.pto_count.min(MAX_PTO_BACKOFF_EXP));
        Some(oldest + self.pto() * backoff)
    }

    /// Handles the loss-detection timer firing: declares time-threshold
    /// losses; if none pending, treats it as a PTO (retransmit everything
    /// outstanding — aggressive but simple and correct).
    pub fn on_timeout(&mut self, sent: &mut Ledger, now: SimTime) -> LossEvent {
        let mut ev = LossEvent::default();
        self.detect_losses(sent, now, &mut ev);
        if !ev.had_loss && !sent.is_empty() {
            // PTO: requeue all outstanding data for retransmission.
            self.pto_count += 1;
            sent.remove_range(.., |_, pkt| ev.lost.extend_from_slice(pkt.retx.as_slice()));
            self.bytes_in_flight = 0;
            ev.had_loss = true;
            self.ssthresh = (self.cwnd / 2).max(2 * 1200);
            self.cwnd = self.ssthresh;
        }
        ev
    }
}

/// Ranges an ACK frame reports, newest first.
const ACK_FRAME_RANGES: usize = 32;

/// Ranges an [`AckTracker`] keeps at most, the newest included. Twice
/// what a frame reports, so reordered packets closing gaps among the
/// newest ranges still leave a frame the 32 it would have reported.
pub const MAX_ACK_RANGES: usize = 2 * ACK_FRAME_RANGES;

/// Tracks received packet numbers and builds ACK ranges.
///
/// **The newest range is held inline.** On a loss-free path the packets
/// received are one gapless run, so a tracker holds one `(start, end)`
/// pair and no heap at all. Ranges below a gap live in `older`, boxed
/// with the floor (`Gaps`) from the first gap; a packet that closes the
/// gap under the newest range merges the two back, and an emptied
/// `older` gives its storage up, the box too while the floor is 0. One representation: `newest`
/// is always the highest range, `older` only ever ranges below it.
///
/// **The table is bounded, by a floor.** QUIC never reuses a packet
/// number, so every lost packet leaves a gap for good, and a lossy
/// connection held for days would grow by one range per loss while a
/// frame reports only the newest 32. At most [`MAX_ACK_RANGES`] are
/// kept: when one more would exceed it, the
/// oldest is dropped and `floor` rises to the start of the oldest range
/// kept. A packet below the floor counts as already seen — RFC 9000
/// §13.2.3's "minimum packet number that increases as ranges are
/// discarded" — so no range a frame has reported can come back as new.
#[derive(Debug, Default)]
pub struct AckTracker {
    /// The highest range received, as the half-open `[start, end)`:
    /// empty before the first packet, so the default is "nothing yet"
    /// without an `Option`'s tag (packet numbers end at 2^62 - 1, so
    /// `end` never overflows). Read through [`AckTracker::newest`].
    newest: (u64, u64),
    /// What it keeps once a gap opened, while it keeps anything: a
    /// gapless run holds none.
    gaps: Option<Box<Gaps>>,
    /// Whether an ACK-eliciting packet arrived since the last ACK we sent.
    pub ack_pending: bool,
}

/// What an [`AckTracker`] keeps below a gap.
#[derive(Debug, Default)]
struct Gaps {
    /// Ranges below `newest`, merged, start -> end (inclusive). A B-tree,
    /// not a [`VecMap`]: the peer picks the packet numbers and where it
    /// leaves gaps, so the insert position is not ours.
    older: BTreeMap<u64, u64>,
    /// Packet numbers below this count as seen (see the type docs).
    floor: u64,
}

impl AckTracker {
    /// Records receipt of packet `pn`. Returns false for a duplicate, and
    /// for a packet below the floor.
    pub fn on_packet(&mut self, pn: u64) -> bool {
        if pn < self.floor() {
            return false;
        }
        let Some((start, end)) = self.newest() else {
            self.set_newest(pn, pn);
            return true;
        };
        if pn > end {
            if pn == end + 1 {
                self.set_newest(start, pn);
            } else {
                // A gap: the newest range spills into the table.
                let gaps = self.gaps.get_or_insert_with(Box::default);
                gaps.older.insert(start, end);
                self.set_newest(pn, pn);
                self.keep_bounded();
            }
            return true;
        }
        if pn >= start {
            return false;
        }
        if pn + 1 == start {
            // The newest range grows down; if that closes the gap to the
            // highest older range, the two merge back into one.
            let below = self.older().last_key_value().map(|(&s, &e)| (s, e));
            let start = match below {
                Some((s, e)) if e + 1 == pn => {
                    let gaps = self.gaps.as_mut().expect("the range below");
                    gaps.older.pop_last();
                    if gaps.older.is_empty() {
                        // An emptied B-tree keeps its root leaf.
                        gaps.older = BTreeMap::new();
                        if gaps.floor == 0 {
                            self.gaps = None;
                        }
                    }
                    s
                }
                _ => pn,
            };
            self.set_newest(start, end);
            return true;
        }
        let gaps = self.gaps.get_or_insert_with(Box::default);
        let fresh = Self::insert_older(&mut gaps.older, pn);
        self.keep_bounded();
        fresh
    }

    /// The ranges below the newest; empty while none is held.
    fn older(&self) -> &BTreeMap<u64, u64> {
        static NONE: BTreeMap<u64, u64> = BTreeMap::new();
        self.gaps.as_ref().map_or(&NONE, |g| &g.older)
    }

    /// Packet numbers below this count as seen (see the type docs).
    fn floor(&self) -> u64 {
        self.gaps.as_ref().map_or(0, |g| g.floor)
    }

    /// The highest range received, `(start, end)` inclusive; `None`
    /// before the first packet.
    fn newest(&self) -> Option<(u64, u64)> {
        let (start, end) = self.newest;
        (start < end).then(|| (start, end - 1))
    }

    /// Makes `start..=end` the highest range received.
    fn set_newest(&mut self, start: u64, end: u64) {
        self.newest = (start, end + 1);
    }

    /// Adds `pn`, known to lie below the newest range with a gap between,
    /// to the table of older ranges. False if it is already there.
    fn insert_older(ranges: &mut BTreeMap<u64, u64>, pn: u64) -> bool {
        // Find a range that contains or abuts pn.
        if let Some((&s, &e)) = ranges.range(..=pn).next_back() {
            if pn <= e {
                return false; // duplicate
            }
            if pn == e + 1 {
                // Extend; maybe merge with the next range.
                let mut new_end = pn;
                if let Some((&ns, &ne)) = ranges.range(pn + 1..).next() {
                    if ns == pn + 1 {
                        ranges.remove(&ns);
                        new_end = ne;
                    }
                }
                ranges.insert(s, new_end);
                return true;
            }
        }
        // Maybe abuts the next range from below.
        if let Some((&ns, &ne)) = ranges.range(pn + 1..).next() {
            if ns == pn + 1 {
                ranges.remove(&ns);
                ranges.insert(pn, ne);
                return true;
            }
        }
        ranges.insert(pn, pn);
        true
    }

    /// Drops the oldest ranges beyond [`MAX_ACK_RANGES`], raising the
    /// floor to the oldest range kept.
    fn keep_bounded(&mut self) {
        let Some(gaps) = self.gaps.as_mut() else {
            return;
        };
        while gaps.older.len() >= MAX_ACK_RANGES {
            gaps.older.pop_first();
            gaps.floor = *gaps.older.first_key_value().expect("a range is kept").0;
        }
    }

    /// The ranges an ACK frame reports, highest first, capped at 32
    /// ranges: read where the tracker holds them.
    pub fn ack_ranges(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.newest()
            .into_iter()
            .chain(self.older().iter().rev().map(|(&s, &e)| (s, e)))
            .take(ACK_FRAME_RANGES)
    }

    /// How many ranges [`AckTracker::ack_ranges`] reports.
    pub fn ack_range_count(&self) -> usize {
        self.newest()
            .map_or(0, |_| 1 + self.older().len())
            .min(ACK_FRAME_RANGES)
    }

    /// The largest packet number received, once one is: what a
    /// truncated packet number is expanded against
    /// ([`crate::packet::expand_pn`]).
    pub fn largest(&self) -> Option<u64> {
        self.newest().map(|(_, end)| end)
    }

    /// True if anything has been received.
    pub fn any(&self) -> bool {
        self.newest().is_some()
    }

    /// Bytes of heap storage the range table holds (its box and its
    /// estimated nodes): none while the packets received are one gapless
    /// run.
    pub fn heap_bytes(&self) -> usize {
        self.gaps.as_ref().map_or(0, |gaps| {
            std::mem::size_of::<Gaps>() + btree_heap_bytes::<u64, u64>(gaps.older.len())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn pkt(time_ms: u64, size: usize) -> SentPacket {
        SentPacket {
            time_sent: t(time_ms),
            size,
            retx: RetxList::One(RetxInfo::Stream {
                id: 0,
                offset: 0,
                len: size as u64,
                fin: false,
            }),
        }
    }

    /// A [`Recovery`] with its ledger beside it, as a connection holds
    /// the two.
    struct Owned {
        counters: Recovery,
        sent: Ledger,
    }

    impl Owned {
        fn new(initial_rtt: Duration, initial_cwnd: u64) -> Owned {
            Owned {
                counters: Recovery::new(initial_rtt, initial_cwnd),
                sent: Ledger::new(),
            }
        }
        fn with_max_ack_delay(self, ms: u16) -> Owned {
            Owned {
                counters: self.counters.with_max_ack_delay(ms),
                ..self
            }
        }
        fn on_packet_sent(&mut self, pn: u64, pkt: SentPacket) {
            self.counters.on_packet_sent(&mut self.sent, pn, pkt)
        }
        fn on_ack_received(&mut self, now: SimTime, ranges: &[(u64, u64)]) -> LossEvent {
            self.counters
                .on_ack_received(&mut self.sent, now, ranges.iter().copied())
        }
        fn on_timeout(&mut self, now: SimTime) -> LossEvent {
            self.counters.on_timeout(&mut self.sent, now)
        }
        fn next_timeout(&self) -> Option<SimTime> {
            self.counters.next_timeout(&self.sent)
        }
        fn tracked(&self) -> usize {
            self.sent.len()
        }
    }

    impl std::ops::Deref for Owned {
        type Target = Recovery;
        fn deref(&self) -> &Recovery {
            &self.counters
        }
    }

    /// The estimator as it was held before: three `Duration`s and a flag.
    struct DurationEstimator {
        srtt: Duration,
        rttvar: Duration,
        latest: Duration,
        has_sample: bool,
    }

    impl DurationEstimator {
        fn update(&mut self, sample: Duration) {
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

        /// `(srtt, latest, pto, loss_delay)`.
        fn read(&self) -> (Duration, Duration, Duration, Duration) {
            let pto = self.srtt + (self.rttvar * 4).max(Duration::from_millis(1));
            let base = self.srtt.max(self.latest);
            (self.srtt, self.latest, pto, base + base / 8)
        }
    }

    proptest! {
        /// Seeds and samples from a microsecond to ten light-minutes, to
        /// the nanosecond: every value read is the one the `Duration`
        /// fields gave, before the first sample and after each.
        #[test]
        fn prop_the_packed_estimator_computes_what_durations_did(
            seed in 1u64..600_000_000_000,
            samples in proptest::collection::vec(1_000u64..600_000_000_000, 0..40),
        ) {
            let seed = Duration::from_nanos(seed);
            let mut packed = RttEstimator::new(seed);
            let mut model = DurationEstimator {
                srtt: seed,
                rttvar: seed / 2,
                latest: seed,
                has_sample: false,
            };
            let read = |r: &RttEstimator| (r.srtt(), r.latest(), r.pto(), r.loss_delay());
            prop_assert_eq!(read(&packed), model.read());
            for ns in samples {
                packed.update(Duration::from_nanos(ns));
                model.update(Duration::from_nanos(ns));
                prop_assert_eq!(read(&packed), model.read());
            }
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
        let mut r = Owned::new(Duration::from_millis(100), 12_000);
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
        let mut r = Owned::new(Duration::from_millis(100), 12_000);
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
        let mut r = Owned::new(Duration::from_millis(100), 12_000);
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
        let mut r = Owned::new(Duration::from_millis(100), 12_000);
        r.on_packet_sent(0, pkt(0, 500));
        let deadline = r.next_timeout().unwrap();
        let ev = r.on_timeout(deadline);
        assert!(ev.had_loss);
        assert_eq!(ev.lost.len(), 1);
        assert_eq!(r.tracked(), 0);
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
        let late = |r: &mut Owned| {
            for (pn, ms) in (0..8).zip((0..).step_by(100)) {
                r.on_packet_sent(pn, pkt(ms, 100));
                r.on_ack_received(t(ms + 10), &[(0, pn)]);
            }
            r.on_packet_sent(8, pkt(800, 100));
            r.next_timeout().unwrap() < t(818)
        };
        let new = || Owned::new(Duration::from_millis(100), 12_000);
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
        let mut r = Owned::new(Duration::from_millis(100), 12_000);
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
        let mut r = Owned::new(Duration::from_millis(100), 2400);
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
        assert_eq!(
            a.ack_ranges().collect::<Vec<_>>(),
            vec![(5, 5), (3, 3), (0, 1)]
        );
        assert!(a.on_packet(2)); // merges 0-1, 2, 3 into 0-3
        assert_eq!(a.ack_ranges().collect::<Vec<_>>(), vec![(5, 5), (0, 3)]);
        assert!(a.on_packet(4)); // merges all
        assert_eq!(a.ack_ranges().collect::<Vec<_>>(), vec![(0, 5)]);
    }

    #[test]
    fn ack_tracker_out_of_order_prepend() {
        let mut a = AckTracker::default();
        assert!(a.on_packet(5));
        assert!(a.on_packet(4)); // abuts from below
        assert_eq!(a.ack_ranges().collect::<Vec<_>>(), vec![(4, 5)]);
    }

    #[test]
    fn ack_tracker_hostile_packet_number_order_stays_cheap() {
        // The peer picks the packet numbers. Every other number, highest
        // first, never merges: each is a new range below all the others.
        // The oldest range kept sets the floor, so after the first few
        // every packet is below it and costs one comparison.
        let n = 100_000u64;
        let mut a = AckTracker::default();
        let started = std::time::Instant::now();
        let fresh = (0..n).rev().filter(|&pn| a.on_packet(pn * 2)).count();
        assert!(!a.on_packet(0), "duplicates are still recognised");
        let took = started.elapsed();
        assert_eq!(
            fresh,
            MAX_ACK_RANGES + 1,
            "the last one fresh is dropped at once"
        );
        assert_eq!(1 + a.older().len(), MAX_ACK_RANGES);
        assert_eq!(a.ack_ranges().count(), 32);
        assert_eq!(a.ack_ranges().next().unwrap(), (2 * (n - 1), 2 * (n - 1)));
        assert!(
            took < std::time::Duration::from_secs(1),
            "100,000 descending packet numbers took {took:?}"
        );
    }

    #[test]
    fn a_lossy_run_leaves_the_table_at_the_cap_and_every_frame_unchanged() {
        // A peer that loses every other packet for 100,000 packets: a
        // range per packet received. The tree kept them all; the tracker
        // keeps the newest MAX_ACK_RANGES and reports what the tree did.
        let mut new = AckTracker::default();
        let mut old = model::AckTracker::default();
        for pn in (0..100_000u64).map(|i| i * 2) {
            assert!(new.on_packet(pn));
            assert!(old.on_packet(pn));
            assert_eq!(
                new.ack_ranges().collect::<Vec<_>>(),
                old.ack_ranges(),
                "after {pn}"
            );
            assert_eq!(new.ack_range_count(), new.ack_ranges().count());
            assert_eq!(new.largest(), Some(pn));
        }
        assert_eq!(1 + new.older().len(), MAX_ACK_RANGES);
        assert_eq!(old.ranges().count(), 100_000);
        // The table's box and its nodes.
        let held = std::mem::size_of::<Gaps>();
        assert!(new.heap_bytes() <= held + btree_heap_bytes::<u64, u64>(MAX_ACK_RANGES));
        // Below the floor counts as seen; a gap that is kept can still fill.
        let oldest = new.floor();
        assert_eq!(oldest, 2 * (100_000 - MAX_ACK_RANGES as u64));
        assert!(!new.on_packet(oldest - 1) && !new.on_packet(3));
        assert!(new.on_packet(oldest + 1));
        assert_eq!(new.floor(), oldest, "a merge above the floor drops nothing");
    }

    #[test]
    fn a_gapless_run_holds_no_heap() {
        let mut a = AckTracker::default();
        for pn in 0..100_000 {
            assert!(a.on_packet(pn));
        }
        assert_eq!(a.heap_bytes(), 0);
        assert_eq!(a.ack_ranges().collect::<Vec<_>>(), [(0, 99_999)]);
        // A gap spills the newest range into the tree; closing it merges
        // the two back and the tree's storage goes with it.
        assert!(a.on_packet(100_001));
        assert!(a.heap_bytes() > 0);
        assert_eq!(
            a.ack_ranges().collect::<Vec<_>>(),
            [(100_001, 100_001), (0, 99_999)]
        );
        assert!(a.on_packet(100_000));
        assert_eq!(a.ack_ranges().collect::<Vec<_>>(), [(0, 100_001)]);
        assert_eq!((a.heap_bytes(), a.older().len()), (0, 0));
    }

    /// Feeds `ops` to the tracker and to the tree it replaced. Above the
    /// floor the verdicts agree and the tracker holds exactly the tree's
    /// ranges there; below it the tracker says "seen" and the tree is not
    /// asked (it would accept what the tracker has let go). Returns the
    /// floor it ends at.
    fn tracker_agrees_with_the_model(ops: &[(u8, u16)]) -> u64 {
        let mut new = AckTracker::default();
        let mut old = model::AckTracker::default();
        let mut next = 0u64;
        for &(kind, bits) in ops {
            let bits = u64::from(bits);
            let pn = match kind % 5 {
                // Onward, leaving a gap of one or two.
                0 | 1 => {
                    next += 2 + bits % 2;
                    next
                }
                // Onward, no gap.
                2 => {
                    next += 1;
                    next
                }
                // Recent: reordered, a duplicate, or closing a gap.
                3 => next.saturating_sub(bits % 8),
                // Anything already numbered, below the floor or not.
                _ => bits % (next + 1),
            };
            if pn < new.floor() {
                assert!(!new.on_packet(pn), "{pn} is below the floor");
            } else {
                assert_eq!(new.on_packet(pn), old.on_packet(pn), "verdict on {pn}");
            }
            let kept: Vec<(u64, u64)> = old.ranges().filter(|&(s, _)| s >= new.floor()).collect();
            let held: Vec<(u64, u64)> = new
                .newest()
                .into_iter()
                .chain(new.older().iter().rev().map(|(&s, &e)| (s, e)))
                .collect();
            assert_eq!(held, kept);
            assert!(held.len() <= MAX_ACK_RANGES);
            if new.floor() == 0 || held.len() >= 32 {
                assert_eq!(new.ack_ranges().collect::<Vec<_>>(), old.ack_ranges());
            }
            assert_eq!(new.any(), old.any());
            assert_eq!(new.heap_bytes() == 0, new.older().is_empty());
        }
        new.floor()
    }

    #[test]
    fn ack_tracker_agrees_with_the_model_past_the_cap() {
        // A hundred gaps, then any packet already numbered — most below
        // the floor, some closing gaps above it — then recent ones.
        let mut ops: Vec<(u8, u16)> = (0..100).map(|i| (0, i)).collect();
        ops.extend((0..200u16).map(|i| (4, i.wrapping_mul(7919))));
        ops.extend((0..50u16).map(|i| (3, i)));
        assert!(tracker_agrees_with_the_model(&ops) > 0, "the floor rose");
    }

    proptest! {
        /// Duplicates, reordering, gaps, gaps closing into the newest
        /// range, ranges dropped below the floor: the tracker is the tree.
        #[test]
        fn prop_ack_tracker_agrees_with_the_tree(
            ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..600),
        ) {
            tracker_agrees_with_the_model(&ops);
        }
    }

    #[test]
    fn no_timer_when_nothing_in_flight() {
        let r = Owned::new(Duration::from_millis(100), 12_000);
        assert!(r.next_timeout().is_none());
    }

    /// A ledger and its model fed the same two ack-eliciting packets, 0
    /// and 4; the model is also told of ack-only 1, 2 and 3 between them.
    fn around_three_ack_only_packets() -> (Owned, model::Recovery) {
        let mut new = Owned::new(Duration::from_millis(100), 12_000);
        let mut old = model::Recovery::new(Duration::from_millis(100), 12_000, 3);
        for (pn, ms) in [(0, 0), (4, 40)] {
            new.on_packet_sent(pn, pkt(ms, 1200));
            old.on_packet_sent(pn, model::SentPacket::from(pkt(ms, 1200)));
        }
        for pn in 1..=3 {
            old.on_packet_sent(pn, model::SentPacket::ack_only(t(pn * 10), 40));
        }
        (new, old)
    }

    #[test]
    fn a_lost_ack_only_packet_is_not_a_congestion_event() {
        // The peer saw 0 and 4; 1, 2 and 3 carried nothing but ACKs and
        // went missing. Ledgered, packet 1 is three behind the largest
        // acknowledged: a loss, and the window halves for it.
        let (mut new, mut old) = around_three_ack_only_packets();
        let ranges = [(4, 4), (0, 0)];
        let was = old.on_ack_received(t(100), &ranges);
        assert!(was.had_loss && was.lost.is_empty());
        assert_eq!(old.cwnd(), (12_000 + 2400) / 2);
        let ev = new.on_ack_received(t(100), &ranges);
        assert!(!ev.had_loss);
        assert_eq!(ev.newly_acked, 2);
        assert_eq!(new.cwnd(), 12_000 + 2400, "slow start goes on");
        assert_eq!(new.next_timeout(), None, "and no loss timer is armed");
    }

    #[test]
    fn rtt_samples_come_from_ack_eliciting_packets() {
        // One ACK covers 0 to 4 and three later ack-only packets, the
        // last sent 10 ms before it arrived. The sample is packet 4's
        // 60 ms; ledgered, the ack-only packet's 10 ms was taken.
        let (mut new, mut old) = around_three_ack_only_packets();
        for pn in 5..=7 {
            old.on_packet_sent(pn, model::SentPacket::ack_only(t(90), 40));
        }
        old.on_ack_received(t(100), &[(0, 7)]);
        assert_eq!(old.rtt.latest(), Duration::from_millis(10));
        new.on_ack_received(t(100), &[(0, 7)]);
        assert_eq!(new.rtt.latest(), Duration::from_millis(60));
        assert_eq!(new.tracked(), 0);

        // An ACK that names only numbers the ledger never held — ack-only
        // packets, or ones already acknowledged — changes nothing.
        new.on_packet_sent(8, pkt(200, 1200));
        let (timer, window) = (new.next_timeout(), new.cwnd());
        let ev = new.on_ack_received(t(210), &[(5, 7), (0, 0)]);
        assert_eq!((ev.newly_acked, ev.had_loss), (0, false));
        assert_eq!(new.rtt.latest(), Duration::from_millis(60));
        assert_eq!((new.next_timeout(), new.cwnd()), (timer, window));
    }

    #[test]
    fn the_pto_base_is_the_first_entry_after_a_pto_resend() {
        let mut r = Owned::new(Duration::from_millis(100), 12_000);
        r.on_packet_sent(0, pkt(0, 500));
        r.on_packet_sent(1, pkt(10, 500));
        let fired = r.next_timeout().unwrap();
        assert_eq!(fired, t(0) + r.rtt.pto(), "timed from packet 0");
        assert_eq!(r.on_timeout(fired).lost.len(), 2);
        assert_eq!((r.tracked(), r.bytes_in_flight()), (0, 0));
        // Both leave again, under the next numbers, later than anything
        // the emptied ledger held.
        let later = fired + Duration::from_millis(5);
        r.on_packet_sent(2, pkt(fired.as_millis(), 500));
        r.on_packet_sent(3, pkt(later.as_millis(), 500));
        assert_eq!(r.next_timeout(), Some(fired + r.rtt.pto() * 2));
        // Acknowledging the first entry moves the base to the next one.
        r.on_ack_received(later, &[(2, 2)]);
        assert_eq!(r.next_timeout(), Some(later + r.rtt.pto()));
    }

    /// One step of a random history: the op's kind and its 64 free bits.
    type Op = (u8, u64);

    /// Feeds `ops` to the ledger and to its model and compares them after
    /// every step. With `ack_only`, some of the packets sent carry only an
    /// ACK — the model is told, the ledger is not — and the peer loses
    /// none of them: every ACK reaches up to an ack-eliciting packet and
    /// covers each ack-only packet below it, as a peer's does that
    /// acknowledges when something ack-eliciting arrives.
    fn agrees_with_the_model(ops: &[Op], ack_only: bool) {
        let mut new = Owned::new(Duration::from_millis(100), 12_000).with_max_ack_delay(5);
        let mut old =
            model::Recovery::new(Duration::from_millis(100), 12_000, 3).with_max_ack_delay(5);
        let mut now = t(0);
        // Whether packet `pn` was ack-only.
        let mut bare: Vec<bool> = Vec::new();
        for &(kind, bits) in ops {
            now += Duration::from_millis(bits >> 48 & 31);
            let (was, is) = match kind % 16 {
                0..=6 => {
                    let pn = bare.len() as u64;
                    let size = 40 + (bits % 1160) as usize;
                    bare.push(ack_only && bits >> 20 & 3 == 0);
                    if bare[pn as usize] {
                        old.on_packet_sent(pn, model::SentPacket::ack_only(now, size));
                    } else {
                        let p = SentPacket {
                            time_sent: now,
                            size,
                            retx: RetxList::One(RetxInfo::MaxStreamData { id: pn }),
                        };
                        old.on_packet_sent(pn, model::SentPacket::from(p.clone()));
                        new.on_packet_sent(pn, p);
                    }
                    continue;
                }
                7..=11 if ack_only => {
                    // Up to a packet in flight, with gaps below it among
                    // the ack-eliciting ones.
                    let pick = bits as usize % new.tracked().max(1);
                    let Some((&top, _)) = new.sent.iter().nth(pick) else {
                        continue;
                    };
                    let named =
                        |pn: u64| pn == top || bare[pn as usize] || bits >> (pn % 40) & 1 == 1;
                    let mut ranges: Vec<(u64, u64)> = Vec::new();
                    for pn in (0..=top).rev().filter(|&pn| named(pn)) {
                        match ranges.last_mut() {
                            Some((start, _)) if *start == pn + 1 => *start = pn,
                            _ => ranges.push((pn, pn)),
                        }
                    }
                    (
                        old.on_ack_received(now, &ranges),
                        new.on_ack_received(now, &ranges),
                    )
                }
                7..=11 => {
                    // Any two ranges, sent or not, in flight or not.
                    let span = bare.len() as u64 + 2;
                    let (a, b) = (bits % span, (bits >> 8) % span);
                    let ranges = [(a, a + (bits >> 16) % 6), (b, b + (bits >> 24) % 3)];
                    (
                        old.on_ack_received(now, &ranges),
                        new.on_ack_received(now, &ranges),
                    )
                }
                12 | 13 => {
                    // The timer, when it is due.
                    let Some(due) = new.next_timeout() else {
                        continue;
                    };
                    now = now.max(due);
                    (old.on_timeout(now), new.on_timeout(now))
                }
                // The timer, whenever: spurious calls are allowed.
                14 => (old.on_timeout(now), new.on_timeout(now)),
                _ => continue,
            };
            assert_eq!(&was.acked, &is.acked);
            assert_eq!(&was.lost, &is.lost);
            assert_eq!(was.had_loss, is.had_loss);
            assert_eq!(old.next_timeout(), new.next_timeout());
            assert_eq!(old.bytes_in_flight(), new.bytes_in_flight());
            assert_eq!(old.cwnd(), new.cwnd());
            assert_eq!(
                (old.rtt.srtt(), old.rtt.latest(), old.rtt.pto()),
                (new.rtt.srtt(), new.rtt.latest(), new.rtt.pto())
            );
            assert_eq!(old.in_flight(), new.tracked());
        }
    }

    proptest! {
        /// On ack-eliciting packets alone the ledger is the model.
        #[test]
        fn prop_agrees_with_the_model_when_every_packet_elicits_an_ack(
            ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..120),
        ) {
            agrees_with_the_model(&ops, false);
        }

        /// Ack-only packets the peer loses none of change nothing, and
        /// `tracked()` counts only what is in flight.
        #[test]
        fn prop_agrees_with_the_model_around_ack_only_packets(
            ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..120),
        ) {
            agrees_with_the_model(&ops, true);
        }
    }

    /// The ledger [`Recovery`] replaced — every packet sent is an entry,
    /// flagged ack-eliciting or not, and three filters tell them apart —
    /// kept as the reference the ack-eliciting-only ledger must agree with.
    mod model {
        use super::super::{LossEvent, RetxInfo, RttEstimator, MAX_PTO_BACKOFF_EXP};
        use moqdns_netsim::SimTime;
        use std::collections::BTreeMap;
        use std::time::Duration;

        #[derive(Debug, Clone)]
        pub struct SentPacket {
            pub time_sent: SimTime,
            pub size: usize,
            pub ack_eliciting: bool,
            pub retx: Vec<RetxInfo>,
        }

        impl SentPacket {
            pub fn ack_only(time_sent: SimTime, size: usize) -> SentPacket {
                SentPacket {
                    time_sent,
                    size,
                    ack_eliciting: false,
                    retx: Vec::new(),
                }
            }
        }

        impl From<super::SentPacket> for SentPacket {
            fn from(p: super::SentPacket) -> SentPacket {
                SentPacket {
                    time_sent: p.time_sent,
                    size: p.size,
                    ack_eliciting: true,
                    retx: p.retx.as_slice().to_vec(),
                }
            }
        }

        pub struct Recovery {
            sent: BTreeMap<u64, SentPacket>,
            largest_acked: Option<u64>,
            pub rtt: RttEstimator,
            packet_threshold: u64,
            cwnd: u64,
            ssthresh: u64,
            bytes_in_flight: u64,
            pto_count: u32,
            max_ack_delay_ms: u16,
            loss_time: Option<SimTime>,
        }

        impl Recovery {
            pub fn new(
                initial_rtt: Duration,
                initial_cwnd: u64,
                packet_threshold: u64,
            ) -> Recovery {
                Recovery {
                    sent: BTreeMap::new(),
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

            pub fn with_max_ack_delay(mut self, ms: u16) -> Recovery {
                self.max_ack_delay_ms = ms;
                self
            }

            fn pto(&self) -> Duration {
                self.rtt.pto() + Duration::from_millis(self.max_ack_delay_ms as u64)
            }

            pub fn bytes_in_flight(&self) -> u64 {
                self.bytes_in_flight
            }

            pub fn cwnd(&self) -> u64 {
                self.cwnd
            }

            pub fn on_packet_sent(&mut self, pn: u64, pkt: SentPacket) {
                if pkt.ack_eliciting {
                    self.bytes_in_flight += pkt.size as u64;
                }
                self.sent.insert(pn, pkt);
            }

            fn has_in_flight(&self) -> bool {
                self.sent.values().any(|p| p.ack_eliciting)
            }

            /// Ack-eliciting entries: what the new ledger's `tracked()` is.
            pub fn in_flight(&self) -> usize {
                self.sent.values().filter(|p| p.ack_eliciting).count()
            }

            pub fn on_ack_received(&mut self, now: SimTime, ranges: &[(u64, u64)]) -> LossEvent {
                let mut ev = LossEvent::default();
                let mut largest_newly_acked: Option<(u64, SimTime)> = None;

                for &(start, end) in ranges {
                    let acked: Vec<u64> = self.sent.range(start..=end).map(|(&pn, _)| pn).collect();
                    for pn in acked {
                        let pkt = self.sent.remove(&pn).unwrap();
                        if pkt.ack_eliciting {
                            self.bytes_in_flight =
                                self.bytes_in_flight.saturating_sub(pkt.size as u64);
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
                    }
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
                    self.ssthresh = (self.cwnd / 2).max(2 * 1200);
                    self.cwnd = self.ssthresh;
                }
            }

            pub fn next_timeout(&self) -> Option<SimTime> {
                if let Some(t) = self.loss_time {
                    return Some(t);
                }
                let oldest = self
                    .sent
                    .values()
                    .filter(|p| p.ack_eliciting)
                    .map(|p| p.time_sent)
                    .min()?;
                let backoff = 2u32.saturating_pow(self.pto_count.min(MAX_PTO_BACKOFF_EXP));
                Some(oldest + self.pto() * backoff)
            }

            pub fn on_timeout(&mut self, now: SimTime) -> LossEvent {
                let mut ev = LossEvent::default();
                self.detect_losses(now, &mut ev);
                if !ev.had_loss && self.has_in_flight() {
                    self.pto_count += 1;
                    for (_, pkt) in std::mem::take(&mut self.sent) {
                        if pkt.ack_eliciting {
                            self.bytes_in_flight =
                                self.bytes_in_flight.saturating_sub(pkt.size as u64);
                        }
                        ev.lost.extend(pkt.retx);
                    }
                    ev.had_loss = true;
                    self.ssthresh = (self.cwnd / 2).max(2 * 1200);
                    self.cwnd = self.ssthresh;
                }
                ev
            }
        }

        /// The tracker the inline-run one replaced: every range in one
        /// tree, none ever dropped.
        #[derive(Default)]
        pub struct AckTracker {
            ranges: BTreeMap<u64, u64>,
        }

        impl AckTracker {
            pub fn on_packet(&mut self, pn: u64) -> bool {
                if let Some((&s, &e)) = self.ranges.range(..=pn).next_back() {
                    if pn <= e {
                        return false;
                    }
                    if pn == e + 1 {
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

            /// Every range, highest first.
            pub fn ranges(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
                self.ranges.iter().rev().map(|(&s, &e)| (s, e))
            }

            pub fn ack_ranges(&self) -> Vec<(u64, u64)> {
                self.ranges().take(32).collect()
            }

            pub fn any(&self) -> bool {
                !self.ranges.is_empty()
            }
        }
    }
}
