//! Stream state machines: ordered, reliable, flow-controlled byte streams.
//!
//! Stream id numbering follows RFC 9000 §2.1: the two low bits encode the
//! initiator (bit 0: 0 = client, 1 = server) and directionality (bit 1:
//! 0 = bidirectional, 1 = unidirectional).

use moqdns_wire::{btree_heap_bytes, queue, Payload, VecMap};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};

/// Direction of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Both sides may send.
    Bi,
    /// Only the initiator sends.
    Uni,
}

/// A QUIC stream identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u64);

impl StreamId {
    /// Builds the `n`-th stream of the given kind.
    pub fn new(initiator_is_client: bool, dir: Dir, index: u64) -> StreamId {
        let mut v = index << 2;
        if !initiator_is_client {
            v |= 0b01;
        }
        if dir == Dir::Uni {
            v |= 0b10;
        }
        StreamId(v)
    }

    /// True if the client initiated this stream.
    pub fn initiated_by_client(self) -> bool {
        self.0 & 0b01 == 0
    }

    /// The stream's direction.
    pub fn dir(self) -> Dir {
        if self.0 & 0b10 == 0 {
            Dir::Bi
        } else {
            Dir::Uni
        }
    }

    /// The per-kind index (sequence number).
    pub fn index(self) -> u64 {
        self.0 >> 2
    }
}

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

thread_local! {
    /// The warm storage lent to a lent send half's unacknowledged bytes.
    pub(crate) static LENT_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    /// The warm storage lent to a lent send half's ranges to (re)send.
    static LENT_PENDING: RefCell<VecDeque<(u64, u64)>> = const { RefCell::new(VecDeque::new()) };
    /// The warm storage lent to a lent send half's sparse ACKs.
    static LENT_ACKED: RefCell<VecMap<u64, u64>> = const { RefCell::new(VecMap::new()) };
}

/// Sender half of a stream.
///
/// A one-shot stream's storage goes with the stream once all of it is
/// acknowledged. A long-lived one — the control stream — is built with
/// [`SendStream::lent`]: its buffers are the thread's, lent while they
/// hold something (`moqdns_wire::queue`), so between exchanges it holds
/// no heap.
#[derive(Debug)]
pub struct SendStream {
    /// Bytes not yet fully acknowledged; `base` is the stream offset of
    /// `buf[0]`.
    buf: Vec<u8>,
    base: u64,
    /// Total bytes written by the application.
    write_offset: u64,
    /// Ranges queued for (re)transmission, as (start, end) stream offsets,
    /// taken from the front. A join's burst of control writes grows it to
    /// dozens; drained, it gives that storage back (`wire::queue`).
    pending: VecDeque<(u64, u64)>,
    /// Acked ranges above `base` (sparse acks).
    acked: VecMap<u64, u64>,
    /// Application called finish at this offset.
    fin_offset: Option<u64>,
    /// Whether the FIN still needs to be (re)sent.
    fin_pending: bool,
    /// Whether FIN has been acknowledged.
    fin_acked: bool,
    /// Peer's flow control limit for this stream.
    pub max_stream_data: u64,
    /// Stream was reset (no more sending).
    pub reset: bool,
    /// Its buffers are the thread's (see the type docs).
    lent: bool,
}

impl SendStream {
    /// Creates a sender with the peer-advertised window.
    pub fn new(max_stream_data: u64) -> SendStream {
        SendStream {
            buf: Vec::new(),
            base: 0,
            write_offset: 0,
            pending: VecDeque::new(),
            acked: VecMap::new(),
            fin_offset: None,
            fin_pending: false,
            fin_acked: false,
            max_stream_data,
            reset: false,
            lent: false,
        }
    }

    /// A sender whose buffers are lent from the thread while they hold
    /// something (see the type docs).
    pub fn lent(max_stream_data: u64) -> SendStream {
        SendStream {
            lent: true,
            ..SendStream::new(max_stream_data)
        }
    }

    /// Bytes the application may still write within stream flow control.
    pub fn writable_bytes(&self) -> u64 {
        self.max_stream_data.saturating_sub(self.write_offset)
    }

    /// Appends application data (caller must respect `writable_bytes`).
    /// Returns how many bytes were accepted.
    pub fn write(&mut self, data: &[u8]) -> usize {
        if self.fin_offset.is_some() || self.reset {
            return 0;
        }
        let allowed = (self.writable_bytes() as usize).min(data.len());
        if allowed == 0 {
            return 0;
        }
        if self.lent {
            queue::borrow(&LENT_BUF, &mut self.buf);
            queue::borrow(&LENT_PENDING, &mut self.pending);
        }
        self.buf.extend_from_slice(&data[..allowed]);
        let start = self.write_offset;
        if start == 0 {
            // Most streams carry one object, written once: one range.
            self.pending.reserve_exact(1);
        }
        self.write_offset += allowed as u64;
        self.pending.push_back((start, self.write_offset));
        allowed
    }

    /// Marks the stream finished at the current write offset.
    pub fn finish(&mut self) {
        if self.fin_offset.is_none() && !self.reset {
            self.fin_offset = Some(self.write_offset);
            self.fin_pending = true;
        }
    }

    /// True when everything (including FIN) has been acknowledged.
    pub fn is_fully_acked(&self) -> bool {
        self.fin_acked && self.base == self.fin_offset.unwrap_or(u64::MAX)
    }

    /// Bytes still buffered awaiting acknowledgement (the send backlog an
    /// unresponsive peer forces us to hold).
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Bytes of heap storage held (capacities): the retransmission
    /// buffer, the pending-range list and the sparse-ack table.
    pub fn heap_bytes(&self) -> usize {
        self.buf.capacity()
            + self.pending.capacity() * std::mem::size_of::<(u64, u64)>()
            + self.acked.heap_bytes()
    }

    /// True if data or FIN is waiting to be transmitted.
    pub fn has_pending(&self) -> bool {
        !self.reset && (!self.pending.is_empty() || self.fin_pending)
    }

    /// Takes up to `max_len` bytes of pending data for transmission.
    /// Returns `(offset, data, fin)`; `fin` is set when this transmission
    /// ends exactly at the FIN offset. The bytes are copied out of the
    /// retransmission buffer once, straight into the shared [`Payload`]
    /// the STREAM frame carries.
    pub fn pop_transmit(&mut self, max_len: usize) -> Option<(u64, Payload, bool)> {
        let next = self.next_transmit(max_len);
        if self.lent {
            queue::give_back(&LENT_PENDING, &mut self.pending);
        }
        next
    }

    fn next_transmit(&mut self, max_len: usize) -> Option<(u64, Payload, bool)> {
        if self.reset {
            return None;
        }
        // Drop or trim ranges a late ACK already covered (base advanced
        // past them after the loss was queued).
        let base = self.base;
        self.pending.retain_mut(|(s, e)| {
            *s = (*s).max(base);
            e > s
        });
        if let Some(&(start, end)) = self.pending.front() {
            let take = ((end - start) as usize).min(max_len) as u64;
            let tstart = start;
            let tend = start + take;
            if tend == end {
                // A burst's worth of ranges goes back once all are sent.
                queue::pop_front(&mut self.pending);
            } else {
                self.pending[0].0 = tend;
            }
            let data = self.slice(tstart, tend);
            let fin = self.fin_offset == Some(tend) && {
                self.fin_pending = false;
                true
            };
            return Some((tstart, data, fin));
        }
        if self.fin_pending {
            self.fin_pending = false;
            return Some((self.fin_offset.unwrap(), Payload::empty(), true));
        }
        None
    }

    fn slice(&self, start: u64, end: u64) -> Payload {
        let s = (start - self.base) as usize;
        let e = (end - self.base) as usize;
        Payload::from(&self.buf[s..e])
    }

    /// Records an acknowledged range (and FIN if `fin`).
    pub fn on_ack(&mut self, offset: u64, len: u64, fin: bool) {
        if fin {
            self.fin_acked = true;
        }
        if len > 0 {
            let end = offset + len;
            let known = self.acked.get(&offset).copied().unwrap_or(end);
            if self.lent {
                queue::borrow(&LENT_ACKED, &mut self.acked);
            }
            self.acked.insert(offset, known.max(end));
        }
        // Advance base over the contiguously acked prefix: find how far
        // it reaches, then drop it from the table and the buffer in one
        // move each (not one front removal per range).
        let mut base = self.base;
        let mut covered = None;
        for (&s, &e) in self.acked.iter() {
            if s > base {
                break;
            }
            base = base.max(e);
            covered = Some(s);
        }
        if let Some(last) = covered {
            self.acked.remove_range(..=last, |_, _| {});
            // A burst's worth of buffer goes back once all of it is acked.
            queue::drain_front(&mut self.buf, (base - self.base) as usize);
            self.base = base;
        }
        if self.lent {
            queue::give_back(&LENT_BUF, &mut self.buf);
            queue::give_back(&LENT_ACKED, &mut self.acked);
        }
    }

    /// Re-queues a lost range (and FIN if `fin`) for retransmission.
    pub fn on_loss(&mut self, offset: u64, len: u64, fin: bool) {
        if self.reset {
            return;
        }
        if fin && !self.fin_acked {
            self.fin_pending = true;
        }
        if len == 0 {
            return;
        }
        let (mut start, end) = (offset, offset + len);
        if end <= self.base {
            return; // already acked via another copy
        }
        start = start.max(self.base);
        if self.lent {
            queue::borrow(&LENT_PENDING, &mut self.pending);
        }
        self.pending.push_back((start, end));
    }
}

/// Receiver half of a stream.
#[derive(Debug)]
pub struct RecvStream {
    /// Out-of-order segments: offset -> shared payload sub-view. Frames
    /// decoded from a datagram hand their [`Payload`] slice straight in —
    /// the receive path never copies stream bytes until the application
    /// reads them out. A B-tree, not a [`VecMap`]: the peer picks the
    /// offsets, and a window of one-byte frames is a million entries.
    segments: BTreeMap<u64, Payload>,
    /// Next offset the application will read.
    read_offset: u64,
    /// Highest offset+len seen (for flow control accounting).
    highest_seen: u64,
    /// Stream length once FIN arrives.
    fin_offset: Option<u64>,
    /// Local flow control limit we advertised.
    pub max_stream_data: u64,
    /// Stream was reset by the peer.
    pub reset: Option<u64>,
}

impl RecvStream {
    /// Creates a receiver advertising `max_stream_data`.
    pub fn new(max_stream_data: u64) -> RecvStream {
        RecvStream {
            segments: BTreeMap::new(),
            read_offset: 0,
            highest_seen: 0,
            fin_offset: None,
            max_stream_data,
            reset: None,
        }
    }

    /// Ingests a STREAM frame. Returns `false` on a flow-control violation
    /// or inconsistent FIN. Accepts anything convertible into a
    /// [`Payload`]; passing the sub-view a frame decoder produced stores
    /// it zero-copy (the backing datagram buffer is shared, not cloned).
    pub fn on_stream_frame(&mut self, offset: u64, data: impl Into<Payload>, fin: bool) -> bool {
        let data: Payload = data.into();
        let end = offset + data.len() as u64;
        if end > self.max_stream_data {
            return false;
        }
        if let Some(f) = self.fin_offset {
            if end > f || (fin && end != f) {
                return false;
            }
        }
        if fin {
            match self.fin_offset {
                Some(f) if f != end => return false,
                _ => self.fin_offset = Some(end),
            }
        }
        self.highest_seen = self.highest_seen.max(end);
        if end > self.read_offset && !data.is_empty() {
            // Store; overlapping segments carry identical bytes (same
            // stream), so keeping the longer view at an offset is safe.
            match self.segments.get(&offset) {
                Some(existing) if existing.len() >= data.len() => {}
                _ => {
                    self.segments.insert(offset, data);
                }
            }
        }
        true
    }

    /// True if contiguous data is available at the read offset, or the
    /// stream is finished/reset.
    pub fn is_readable(&self) -> bool {
        self.reset.is_some()
            || self.fin_reached()
            || self
                .segments
                .range(..=self.read_offset)
                .any(|(s, d)| s + d.len() as u64 > self.read_offset)
    }

    fn fin_reached(&self) -> bool {
        self.fin_offset == Some(self.read_offset)
    }

    /// Reads up to `max` contiguous bytes. Returns `(data, finished)`.
    pub fn read(&mut self, max: usize) -> (Vec<u8>, bool) {
        let mut out = Vec::new();
        while out.len() < max {
            // Find a segment covering read_offset.
            let seg = self
                .segments
                .range(..=self.read_offset)
                .next_back()
                .map(|(s, d)| (*s, d.len() as u64));
            let Some((s, len)) = seg else { break };
            let seg_end = s + len;
            if seg_end <= self.read_offset {
                self.segments.remove(&s);
                continue;
            }
            let avail = (seg_end - self.read_offset) as usize;
            let take = avail.min(max - out.len());
            let data = self.segments.get(&s).unwrap();
            let from = (self.read_offset - s) as usize;
            out.extend_from_slice(&data[from..from + take]);
            self.read_offset += take as u64;
            if self.read_offset >= seg_end {
                self.segments.remove(&s);
            }
        }
        if self.segments.is_empty() {
            // An emptied B-tree keeps its 456-byte root leaf; a stream
            // that is read dry (every idle control stream) gives it back.
            self.segments = BTreeMap::new();
        }
        (out, self.fin_reached())
    }

    /// Bytes of heap storage held: the segment table (estimated nodes)
    /// plus the stream bytes its segments keep alive.
    pub fn heap_bytes(&self) -> usize {
        btree_heap_bytes::<u64, Payload>(self.segments.len())
            + self.segments.values().map(|d| d.len()).sum::<usize>()
    }

    /// Total bytes consumed by the application.
    pub fn consumed(&self) -> u64 {
        self.read_offset
    }

    /// Highest received offset (for connection flow control).
    pub fn highest_seen(&self) -> u64 {
        self.highest_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stream_id_numbering_matches_rfc9000() {
        assert_eq!(StreamId::new(true, Dir::Bi, 0).0, 0);
        assert_eq!(StreamId::new(false, Dir::Bi, 0).0, 1);
        assert_eq!(StreamId::new(true, Dir::Uni, 0).0, 2);
        assert_eq!(StreamId::new(false, Dir::Uni, 0).0, 3);
        assert_eq!(StreamId::new(true, Dir::Bi, 1).0, 4);
        assert_eq!(StreamId::new(false, Dir::Uni, 2).0, 11);
        let id = StreamId::new(false, Dir::Uni, 5);
        assert!(!id.initiated_by_client());
        assert_eq!(id.dir(), Dir::Uni);
        assert_eq!(id.index(), 5);
    }

    #[test]
    fn send_write_transmit_ack_cycle() {
        let mut s = SendStream::new(1000);
        assert_eq!(s.write(b"hello world"), 11);
        let (off, data, fin) = s.pop_transmit(5).unwrap();
        assert_eq!((off, data.as_slice(), fin), (0, &b"hello"[..], false));
        let (off, data, _) = s.pop_transmit(100).unwrap();
        assert_eq!((off, data.as_slice()), (5, &b" world"[..]));
        assert!(s.pop_transmit(10).is_none());
        s.finish();
        let (off, data, fin) = s.pop_transmit(10).unwrap();
        assert_eq!((off, data.len(), fin), (11, 0, true));
        s.on_ack(0, 5, false);
        s.on_ack(5, 6, false);
        s.on_ack(11, 0, true);
        assert!(s.is_fully_acked());
    }

    #[test]
    fn send_flow_control_limits_writes() {
        let mut s = SendStream::new(4);
        assert_eq!(s.write(b"abcdef"), 4);
        assert_eq!(s.write(b"gh"), 0);
        s.max_stream_data = 10;
        assert_eq!(s.write(b"efgh"), 4);
    }

    #[test]
    fn send_loss_requeues_range() {
        let mut s = SendStream::new(1000);
        s.write(b"0123456789");
        let (o1, d1, _) = s.pop_transmit(4).unwrap();
        let (_o2, _d2, _) = s.pop_transmit(100).unwrap();
        assert!(!s.has_pending());
        // First packet lost: requeue.
        s.on_loss(o1, d1.len() as u64, false);
        let (ro, rd, _) = s.pop_transmit(100).unwrap();
        assert_eq!(ro, 0);
        assert_eq!(rd, b"0123");
    }

    #[test]
    fn send_loss_after_ack_is_ignored() {
        let mut s = SendStream::new(1000);
        s.write(b"abcd");
        let (o, d, _) = s.pop_transmit(100).unwrap();
        s.on_ack(o, d.len() as u64, false);
        s.on_loss(o, d.len() as u64, false);
        assert!(!s.has_pending());
    }

    #[test]
    fn send_fin_only_stream() {
        let mut s = SendStream::new(100);
        s.finish();
        let (off, data, fin) = s.pop_transmit(10).unwrap();
        assert_eq!((off, data.len(), fin), (0, 0, true));
        // FIN lost → retransmitted.
        s.on_loss(0, 0, true);
        assert!(s.has_pending());
        let (_, _, fin) = s.pop_transmit(10).unwrap();
        assert!(fin);
        s.on_ack(0, 0, true);
        assert!(s.is_fully_acked());
    }

    #[test]
    fn a_send_buffer_acked_empty_releases_a_burst_and_keeps_a_small_capacity() {
        let mut s = SendStream::new(1_000_000);
        let cycle = |s: &mut SendStream, bytes: usize| {
            s.write(&vec![0xAB; bytes]);
            while let Some((offset, data, fin)) = s.pop_transmit(1200) {
                s.on_ack(offset, data.len() as u64, fin);
            }
            assert_eq!(s.buffered_bytes(), 0);
        };
        // A join's worth of control messages in one turn.
        cycle(&mut s, 2000);
        assert_eq!(s.buf.capacity(), 0, "the burst's storage is given back");
        // One control message at a time: allocated once, then reused.
        cycle(&mut s, 100);
        let warm = (s.buf.as_ptr(), s.buf.capacity());
        assert!((100..=queue::KEEP_BYTES).contains(&warm.1));
        cycle(&mut s, 100);
        assert_eq!((s.buf.as_ptr(), s.buf.capacity()), warm);
        // Half acked is not drained: nothing is given back under the data.
        s.write(&[0xAB; 2000]);
        let (offset, data, _) = s.pop_transmit(1000).unwrap();
        s.on_ack(offset, data.len() as u64, false);
        assert_eq!(s.buffered_bytes(), 1000);
        assert!(s.buf.capacity() >= 2000);
        while let Some((offset, data, fin)) = s.pop_transmit(1200) {
            s.on_ack(offset, data.len() as u64, fin);
        }

        // The retransmit list: a join writes its control messages one by
        // one, a range each, before the turn's flight takes them.
        let burst = |s: &mut SendStream, writes: usize| {
            for _ in 0..writes {
                s.write(&[0xAB; 20]);
            }
            let queued = s.pending.capacity();
            while let Some((offset, data, fin)) = s.pop_transmit(1200) {
                s.on_ack(offset, data.len() as u64, fin);
            }
            queued
        };
        assert!(burst(&mut s, 32) > queue::KEEP);
        assert_eq!(s.pending.capacity(), 0, "the burst's ranges are given back");
        // A steady exchange stays under the floor: allocated once, kept.
        let warm = burst(&mut s, 2);
        assert!((2..=queue::KEEP).contains(&warm));
        assert_eq!(s.pending.capacity(), warm);
        assert_eq!(burst(&mut s, 2), warm);
        // A range still queued is not given back under it.
        s.write(&[0xAB; 2000]);
        s.pop_transmit(1000).unwrap();
        assert_eq!(s.pending.capacity(), warm);
    }

    #[test]
    fn recv_in_order() {
        let mut r = RecvStream::new(1000);
        assert!(r.on_stream_frame(0, b"hel", false));
        assert!(r.on_stream_frame(3, b"lo", true));
        assert!(r.is_readable());
        let (data, fin) = r.read(100);
        assert_eq!(data, b"hello");
        assert!(fin);
    }

    #[test]
    fn recv_hostile_offset_order_stays_cheap() {
        // The peer picks the offsets. 100,000 one-byte frames, highest
        // offset first, fit one stream's default 1 MiB window; each lands
        // in front of everything stored so far, and once byte 0 arrives
        // the read takes them from the front one by one. Both directions
        // are quadratic in a sorted vector (13 s in a release build) and
        // ~n log n in the B-tree this table is (about 30 ms), so the
        // budget sits far from both.
        let n = 100_000u64;
        let mut r = RecvStream::new(1 << 20);
        let started = std::time::Instant::now();
        for offset in (0..n).rev() {
            assert!(r.on_stream_frame(offset, vec![offset as u8], false));
        }
        assert!(r.is_readable());
        let (data, _) = r.read(usize::MAX);
        let took = started.elapsed();
        assert_eq!(data.len() as u64, n);
        assert!(data.iter().enumerate().all(|(i, b)| *b == i as u8));
        assert!(
            took < std::time::Duration::from_secs(2),
            "100,000 descending one-byte frames took {took:?}"
        );
    }

    #[test]
    fn recv_out_of_order_reassembly() {
        let mut r = RecvStream::new(1000);
        assert!(r.on_stream_frame(3, b"lo", true));
        assert!(!r.is_readable());
        assert!(r.on_stream_frame(0, b"hel", false));
        let (data, fin) = r.read(100);
        assert_eq!(data, b"hello");
        assert!(fin);
    }

    #[test]
    fn recv_duplicate_and_overlap() {
        let mut r = RecvStream::new(1000);
        assert!(r.on_stream_frame(0, b"abc", false));
        assert!(r.on_stream_frame(0, b"abc", false)); // exact duplicate
        assert!(r.on_stream_frame(2, b"cde", true)); // overlap
        let (data, fin) = r.read(100);
        assert_eq!(data, b"abcde");
        assert!(fin);
    }

    #[test]
    fn recv_flow_control_violation() {
        let mut r = RecvStream::new(4);
        assert!(!r.on_stream_frame(0, b"abcde", false));
        assert!(r.on_stream_frame(0, b"abcd", false));
    }

    #[test]
    fn recv_inconsistent_fin_rejected() {
        let mut r = RecvStream::new(100);
        assert!(r.on_stream_frame(0, b"abc", true));
        assert!(!r.on_stream_frame(0, b"abcd", false)); // beyond fin
        assert!(!r.on_stream_frame(0, b"ab", true)); // different fin point
    }

    #[test]
    fn recv_partial_reads() {
        let mut r = RecvStream::new(100);
        r.on_stream_frame(0, b"abcdef", true);
        let (d1, f1) = r.read(2);
        assert_eq!((d1.as_slice(), f1), (&b"ab"[..], false));
        let (d2, f2) = r.read(100);
        assert_eq!((d2.as_slice(), f2), (&b"cdef"[..], true));
        assert_eq!(r.consumed(), 6);
    }

    #[test]
    fn recv_empty_fin() {
        let mut r = RecvStream::new(100);
        assert!(r.on_stream_frame(0, b"", true));
        assert!(r.is_readable());
        let (d, fin) = r.read(10);
        assert!(d.is_empty());
        assert!(fin);
    }

    proptest! {
        /// Any segmentation and arrival order reassembles to the original.
        #[test]
        fn prop_reassembly(
            data in proptest::collection::vec(any::<u8>(), 1..200),
            cuts in proptest::collection::vec(1usize..199, 0..6),
            seed in any::<u64>(),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().filter(|c| *c < data.len()).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut segments = Vec::new();
            let mut prev = 0;
            for c in cuts {
                segments.push((prev as u64, data[prev..c].to_vec(), false));
                prev = c;
            }
            segments.push((prev as u64, data[prev..].to_vec(), true));
            // Shuffle deterministically by seed.
            let mut order: Vec<usize> = (0..segments.len()).collect();
            let mut s = seed;
            for i in (1..order.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (s % (i as u64 + 1)) as usize);
            }
            let mut r = RecvStream::new(10_000);
            for &i in &order {
                let (off, seg, fin) = &segments[i];
                prop_assert!(r.on_stream_frame(*off, seg, *fin));
            }
            let (out, fin) = r.read(10_000);
            prop_assert!(fin);
            prop_assert_eq!(out, data);
        }

        /// The zero-copy ingest path (shared [`Payload`] sub-views of one
        /// backing buffer) reassembles byte-identically to the copying
        /// path (each segment copied into its own allocation), under any
        /// segmentation, arrival order, duplication, and read chunking —
        /// and the stored views really do share the backing storage.
        #[test]
        fn prop_zero_copy_ingest_equals_copying(
            data in proptest::collection::vec(any::<u8>(), 1..300),
            cuts in proptest::collection::vec(1usize..299, 0..8),
            dup in proptest::collection::vec(any::<bool>(), 0..8),
            seed in any::<u64>(),
            chunk in 1usize..64,
        ) {
            let backing = Payload::new(data.clone());
            let mut cuts: Vec<usize> = cuts.into_iter().filter(|c| *c < data.len()).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let bounds: Vec<(usize, usize)> = {
                let mut b = Vec::new();
                let mut prev = 0;
                for c in cuts {
                    b.push((prev, c));
                    prev = c;
                }
                b.push((prev, data.len()));
                b
            };
            // Segment list with seeded duplicates, shuffled by seed.
            let mut order: Vec<usize> = (0..bounds.len()).collect();
            for (i, d) in dup.iter().enumerate() {
                if *d {
                    order.push(i % bounds.len());
                }
            }
            let mut s = seed;
            for i in (1..order.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (s % (i as u64 + 1)) as usize);
            }
            let mut zc = RecvStream::new(10_000);
            let mut copying = RecvStream::new(10_000);
            for &i in &order {
                let (start, end) = bounds[i];
                let fin = end == data.len();
                let view = backing.slice(start..end);
                prop_assert!(view.shares_storage_with(&backing));
                prop_assert!(zc.on_stream_frame(start as u64, view, fin));
                prop_assert!(copying.on_stream_frame(start as u64, data[start..end].to_vec(), fin));
            }
            // Stored segments share the backing buffer: ingest copied nothing.
            for p in zc.segments.values() {
                prop_assert!(p.shares_storage_with(&backing));
            }
            loop {
                let (a, fa) = zc.read(chunk);
                let (b, fb) = copying.read(chunk);
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(fa, fb);
                if fa || a.is_empty() { break; }
            }
            prop_assert_eq!(zc.consumed(), data.len() as u64);
        }

        /// Writer + arbitrary transmit sizes + acks deliver everything.
        #[test]
        fn prop_send_delivers_all(
            data in proptest::collection::vec(any::<u8>(), 1..300),
            chunk in 1usize..64,
        ) {
            let mut s = SendStream::new(1_000_000);
            s.write(&data);
            s.finish();
            let mut r = RecvStream::new(1_000_000);
            while let Some((off, seg, fin)) = s.pop_transmit(chunk) {
                prop_assert!(r.on_stream_frame(off, &seg, fin));
                s.on_ack(off, seg.len() as u64, fin);
            }
            prop_assert!(s.is_fully_acked());
            let (out, fin) = r.read(usize::MAX);
            prop_assert!(fin);
            prop_assert_eq!(out, data);
        }
    }
}
