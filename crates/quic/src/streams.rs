//! Stream state machines: ordered, reliable, flow-controlled byte streams.
//!
//! Stream id numbering follows RFC 9000 §2.1: the two low bits encode the
//! initiator (bit 0: 0 = client, 1 = server) and directionality (bit 1:
//! 0 = bidirectional, 1 = unidirectional).
//!
//! A send half queues what it owes the wire as ranges of stream offsets,
//! kept merged: a write contiguous with a queued range extends it, and a
//! lost range re-queued beside a queued one joins it. A transmission
//! takes from one range, so each contiguous run leaves as one STREAM
//! frame (RFC 9000 §19.8) — a join's CLIENT_SETUP, SUBSCRIBE and FETCH
//! are one frame and one retransmit entry in their packet's ledger.
//!
//! A send half is packed ([`SendStream`]): a relay holds one per push or
//! answer in flight, 79,968 at once at the peak of a metro world's join.
//!
//! A stream written whole ([`SendStream::write_whole`]) — a MoQT data
//! stream, one object — holds its object by reference. The few bytes its
//! writer encodes per stream (stream type, request id or track alias,
//! group, object id, payload length) are kept inline, up to
//! [`INLINE_PREFIX`], and the payload is the [`Payload`] the writer
//! already holds: a relay's cached object or an origin's answer, shared by
//! every subscriber's stream, not copied into each. Every frame, offset,
//! FIN and retransmission, and [`SendStream::buffered_bytes`], are what a
//! copy of the same bytes gives. Only what reads the bytes themselves
//! tells the two forms apart: where they start and end, cutting a
//! transmission, counting what is buffered and the heap, and the trim
//! when the front is acknowledged. A transmission that starts in the
//! prefix is assembled into one buffer of its own (one copy per
//! transmission, as a copy's cut is); one that starts in the body is a
//! view of it. A shared stream is never trimmed: the first
//! acknowledgement that leaves part of it unacknowledged turns what is
//! left into a copy of its own. Written and finished, it keeps no
//! flow-control window either: that room goes to the prefix. A prefix
//! longer than [`INLINE_PREFIX`], or a stream already written to, takes
//! the copy from the start.

use moqdns_wire::{btree_heap_bytes, queue, Payload, VecMap};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

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

/// A bidirectional stream at rest: both halves as their offsets.
///
/// A long-lived bidirectional stream — a MoQT session's control stream —
/// spends its days with nothing unacknowledged, queued or unread. It is
/// then all offsets: everything written is acknowledged (`sent`),
/// everything received is read (`received`), plus the two windows and
/// whether each half is finished or reset. That is all its connection
/// keeps of it at rest. The first write that gives the send half
/// something to hold resumes it as a [`SendStream`], in a record the
/// connection holds only while a half does ([`SendStream::resume`]); the
/// first frame does the same for the receive half ([`RecvStream::resume`]);
/// the end of the call that leaves a half acknowledged, or read, writes
/// its offsets back and drops it ([`SendStream::rest`],
/// [`RecvStream::rest`]), so a stream at rest holds no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtRest {
    /// Bytes written, every one of them acknowledged.
    sent: u64,
    /// The peer's flow-control limit for the send half.
    send_window: u64,
    /// Bytes received, every one of them read.
    received: u64,
    /// The flow-control limit we advertised for the receive half.
    recv_window: u64,
    /// `SENT_FIN`, `SEND_RESET`, `RECEIVED_FIN`, `RECV_RESET`.
    flags: u8,
}

/// A send half's storage between two send halves of one stream: its
/// buffer of unacknowledged bytes, emptied ([`SendStream::into_storage`]).
pub type SendStorage = Vec<u8>;

/// The send half is finished: its FIN is at the end of what it wrote.
const FINISHED: u8 = 1;
/// Its FIN still needs to be (re)sent.
const FIN_PENDING: u8 = 2;
/// Its FIN has been acknowledged.
const FIN_ACKED: u8 = 4;
/// The peer stopped it: nothing more is sent.
const STOPPED: u8 = 8;

/// The send half is finished and its FIN acknowledged.
const SENT_FIN: u8 = 1;
/// The peer stopped the send half.
const SEND_RESET: u8 = 2;
/// The receive half is read to its FIN.
const RECEIVED_FIN: u8 = 4;
/// The peer reset the receive half.
const RECV_RESET: u8 = 8;

impl AtRest {
    /// A new stream: nothing sent or received, both windows `window`.
    pub fn new(window: u64) -> AtRest {
        AtRest {
            sent: 0,
            send_window: window,
            received: 0,
            recv_window: window,
            flags: 0,
        }
    }

    /// The peer raised the send half's window to `max` (a MAX_STREAM_DATA).
    pub fn raise_send_window(&mut self, max: u64) {
        self.send_window = self.send_window.max(max);
    }

    /// The flow-control limit advertised for the receive half.
    pub fn recv_window(&self) -> u64 {
        self.recv_window
    }

    fn flag(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    fn set(&mut self, flag: u8, on: bool) {
        self.flags = (self.flags & !flag) | if on { flag } else { 0 };
    }
}

/// What a send half holds only after a loss or an out-of-order ACK:
/// the ranges queued behind its first, and the acknowledged ranges
/// above its base. Boxed, and only while either holds something.
#[derive(Debug, Default)]
struct Spill {
    /// Ranges queued after [`SendStream`]'s first, in queue order.
    pending: VecDeque<(u64, u64)>,
    /// Acked ranges above `base` (sparse acks), start to end.
    acked: VecMap<u64, u64>,
}

/// No range queued: [`SendStream`]'s first range when none is.
const NO_RANGE: (u64, u64) = (0, 0);

/// The longest prefix a stream written whole keeps inline (module docs):
/// a MoQT data stream carrying one DNS answer encodes five to eight.
pub const INLINE_PREFIX: usize = 8;

/// What a send half holds of the bytes it wrote and has not had
/// acknowledged.
#[derive(Debug)]
enum Unacked {
    /// A copy of its own: `buf[0]` is at stream offset `base`, and the
    /// write offset is `base + buf.len()`; `window` is the peer's
    /// flow-control limit for the stream.
    Owned {
        buf: Vec<u8>,
        base: u64,
        window: u64,
    },
    /// A stream written whole, none of it acknowledged: the first
    /// [`SendStream`]`::prefix_len` bytes of `prefix`, then `body`, shared
    /// (module docs). It is written and finished, so it has no use for a
    /// window: none is kept.
    Shared {
        body: Payload,
        prefix: [u8; INLINE_PREFIX],
    },
}

/// Where stream bytes `start..end` of a shared stream lie: the part in
/// its `prefix_len`-byte prefix, and the part in its body.
fn split(prefix_len: usize, start: u64, end: u64) -> (Range<usize>, Range<usize>) {
    let (s, e) = (start as usize, end as usize);
    let body = s.max(prefix_len) - prefix_len..e.max(prefix_len) - prefix_len;
    (s.min(prefix_len)..e.min(prefix_len), body)
}

/// Sender half of a stream.
///
/// A unidirectional stream's sender lives from the write that opens it
/// until all of it is acknowledged, and its storage goes with it. A
/// bidirectional stream's lives only while it holds something
/// ([`AtRest`]); its buffer then goes to the next one resumed
/// ([`SendStream::into_storage`]).
///
/// It is packed for a relay that holds one per push in flight: what it
/// wrote ends where its FIN does, as nothing is written after `finish`;
/// the first range queued for transmission is inline, so a stream written
/// once and sent whole allocates nothing but its buffer — and a stream
/// written whole, not even that (module docs); what only losses and
/// out-of-order ACKs fill is one box (`Spill`); and the flags share a
/// byte. A `const` assertion in `crate::connection` holds its size.
#[derive(Debug)]
pub struct SendStream {
    /// Bytes not yet fully acknowledged.
    unacked: Unacked,
    /// The first range queued for (re)transmission, as (start, end)
    /// stream offsets, or [`NO_RANGE`]; the rest queue behind it in the
    /// spill. Ranges are taken from the front; no two overlap or touch
    /// (module docs).
    head: (u64, u64),
    /// What losses and out-of-order ACKs left, while they left anything.
    spill: Option<Box<Spill>>,
    /// `FINISHED`, `FIN_PENDING`, `FIN_ACKED`, `STOPPED`.
    flags: u8,
    /// How much of a shared stream's `prefix` is its prefix.
    prefix_len: u8,
}

impl SendStream {
    /// Creates a sender with the peer-advertised window.
    pub fn new(max_stream_data: u64) -> SendStream {
        SendStream {
            unacked: Unacked::Owned {
                buf: Vec::new(),
                base: 0,
                window: max_stream_data,
            },
            head: NO_RANGE,
            spill: None,
            flags: 0,
            prefix_len: 0,
        }
    }

    /// The send half of a stream at rest, resumed: what it wrote is all
    /// acknowledged, and nothing is queued. Its buffer is `storage`,
    /// empty ([`SendStream::into_storage`]).
    pub fn resume(rest: &AtRest, storage: SendStorage) -> SendStream {
        debug_assert!(storage.is_empty());
        let fin = if rest.flag(SENT_FIN) {
            FINISHED | FIN_ACKED
        } else {
            0
        };
        let stopped = if rest.flag(SEND_RESET) { STOPPED } else { 0 };
        SendStream {
            unacked: Unacked::Owned {
                buf: storage,
                base: rest.sent,
                window: rest.send_window,
            },
            flags: fin | stopped,
            ..SendStream::new(rest.send_window)
        }
    }

    fn flag(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    fn set(&mut self, flag: u8, on: bool) {
        self.flags = (self.flags & !flag) | if on { flag } else { 0 };
    }

    /// True once the peer stopped the stream (STOP_SENDING): nothing
    /// more is written or sent.
    fn is_stopped(&self) -> bool {
        self.flag(STOPPED)
    }

    /// The peer stopped the stream (STOP_SENDING).
    pub fn stop(&mut self) {
        self.set(STOPPED, true);
    }

    /// The stream offset of the first byte not acknowledged in order.
    fn base(&self) -> u64 {
        match self.unacked {
            Unacked::Owned { base, .. } => base,
            Unacked::Shared { .. } => 0,
        }
    }

    /// The offset the next write starts at; a finished stream's FIN.
    fn write_offset(&self) -> u64 {
        match &self.unacked {
            Unacked::Owned { buf, base, .. } => base + buf.len() as u64,
            Unacked::Shared { body, .. } => u64::from(self.prefix_len) + body.len() as u64,
        }
    }

    /// The peer's flow-control limit: a shared stream's is where it ends.
    fn window(&self) -> u64 {
        match self.unacked {
            Unacked::Owned { window, .. } => window,
            Unacked::Shared { .. } => self.write_offset(),
        }
    }

    /// The peer raised the stream's flow-control limit to `max` (a
    /// MAX_STREAM_DATA).
    pub fn raise_window(&mut self, max: u64) {
        if let Unacked::Owned { window, .. } = &mut self.unacked {
            *window = (*window).max(max);
        }
    }

    /// True when nothing is unacknowledged and nothing is left to send:
    /// every range still queued lies below `base`, and a queued FIN or
    /// data of a reset stream will never be sent.
    fn at_rest(&self) -> bool {
        self.buffered_bytes() == 0
            && (self.is_stopped()
                || !self.flag(FIN_PENDING) && (!self.flag(FINISHED) || self.flag(FIN_ACKED)))
    }

    /// If the half is at rest, writes its offsets into `rest` and returns
    /// true: the caller drops it.
    pub fn rest(&self, rest: &mut AtRest) -> bool {
        if !self.at_rest() {
            return false;
        }
        rest.sent = self.write_offset();
        rest.send_window = self.window();
        rest.set(SENT_FIN, !self.is_stopped() && self.flag(FINISHED));
        rest.set(SEND_RESET, self.is_stopped());
        true
    }

    /// The sender's buffer, emptied, for the next sender to resume with;
    /// a stream at rest has only stale ranges left, and they go.
    pub fn into_storage(self) -> SendStorage {
        match self.unacked {
            Unacked::Owned { buf, .. } => buf,
            Unacked::Shared { .. } => SendStorage::new(),
        }
    }

    /// Bytes a write may take now: what the stream's window leaves, none
    /// once finished, `None` once the peer stopped the stream.
    pub fn room(&self) -> Option<u64> {
        if self.is_stopped() {
            return None;
        }
        Some(if self.flag(FINISHED) {
            0
        } else {
            self.window().saturating_sub(self.write_offset())
        })
    }

    /// Appends application data, whole: the caller has checked that the
    /// window takes it ([`SendStream::room`]), so nothing is written past
    /// the window, the FIN or a STOP_SENDING.
    pub fn write(&mut self, data: &[u8]) {
        debug_assert!(
            self.room().is_some_and(|room| room >= data.len() as u64),
            "a write past the window, the FIN or a STOP_SENDING"
        );
        if data.is_empty() {
            return;
        }
        let start = self.write_offset();
        let Unacked::Owned { buf, .. } = &mut self.unacked else {
            unreachable!("a shared stream is written whole, and finished");
        };
        buf.extend_from_slice(data);
        self.queue(start, start + data.len() as u64);
    }

    /// Writes `prefix` then `body` and finishes the stream; the caller has
    /// checked that its window takes them ([`SendStream::room`]). A
    /// stream nothing was written to keeps a prefix that fits
    /// [`INLINE_PREFIX`] inline and `body` as it is handed in: shared, not
    /// copied (module docs). Any other takes a copy of both, as two writes
    /// would.
    pub fn write_whole(&mut self, prefix: &[u8], body: Payload) {
        let len = prefix.len() + body.len();
        let fresh = self.write_offset() == 0 && self.room().is_some_and(|room| room > 0);
        if fresh && prefix.len() <= INLINE_PREFIX && len > 0 {
            let mut inline = [0; INLINE_PREFIX];
            inline[..prefix.len()].copy_from_slice(prefix);
            self.prefix_len = prefix.len() as u8;
            self.unacked = Unacked::Shared {
                body,
                prefix: inline,
            };
            self.queue(0, len as u64);
        } else {
            if let Unacked::Owned { buf, .. } = &mut self.unacked {
                buf.reserve(len);
            }
            self.write(prefix);
            self.write(&body);
        }
        self.finish();
    }

    /// The place in the queue of the last range that satisfies `pred`.
    fn rposition(&self, pred: impl Fn(&(u64, u64)) -> bool) -> Option<usize> {
        let spilled = self
            .spill
            .as_deref()
            .map(|s| s.pending.iter().rposition(&pred));
        match spilled.flatten() {
            Some(i) => Some(i + 1),
            None => (self.head != NO_RANGE && pred(&self.head)).then_some(0),
        }
    }

    /// The `i`-th queued range.
    fn range_mut(&mut self, i: usize) -> &mut (u64, u64) {
        match i.checked_sub(1) {
            None => &mut self.head,
            Some(i) => &mut self.spilled().pending[i],
        }
    }

    /// The spill, taken if none is held.
    fn spilled(&mut self) -> &mut Spill {
        self.spill.get_or_insert_with(Box::default)
    }

    /// Removes the `i`-th queued range; the next moves up into the head.
    fn remove_range(&mut self, i: usize) {
        match i.checked_sub(1) {
            None => {
                let next = self.spill.as_mut().and_then(|s| s.pending.pop_front());
                self.head = next.unwrap_or(NO_RANGE);
            }
            Some(i) => {
                self.spilled().pending.remove(i);
            }
        }
    }

    /// Gives the spill back once it holds nothing, and the storage of its
    /// list of ranges once the losses queued there are sent, not when
    /// they are acknowledged.
    fn tidy(&mut self) {
        let Some(spill) = self.spill.as_deref_mut() else {
            return;
        };
        if spill.pending.is_empty() && spill.acked.is_empty() {
            self.spill = None;
        } else if spill.pending.is_empty() {
            spill.pending = VecDeque::new();
        }
    }

    /// Queues `start..end` for transmission, merged with a queued range
    /// it touches — at most one ends at `start` and one starts at `end`,
    /// as queued ranges never overlap — so a contiguous run leaves as one
    /// STREAM frame. A merged range keeps its neighbour's place in the
    /// queue.
    fn queue(&mut self, start: u64, end: u64) {
        // A write lands on the tail, which the scans meet first.
        let before = self.rposition(|r| r.1 == start);
        let after = self.rposition(|r| r.0 == end);
        match (before, after) {
            (Some(b), Some(a)) => {
                let joined = self.range_mut(a).1;
                self.range_mut(b).1 = joined;
                self.remove_range(a);
            }
            (Some(b), None) => self.range_mut(b).1 = end,
            (None, Some(a)) => self.range_mut(a).0 = start,
            (None, None) if self.head == NO_RANGE => self.head = (start, end),
            (None, None) => self.spilled().pending.push_back((start, end)),
        }
    }

    /// Marks the stream finished at the current write offset.
    pub fn finish(&mut self) {
        if !self.flag(FINISHED) && !self.is_stopped() {
            self.set(FINISHED | FIN_PENDING, true);
        }
    }

    /// True when everything (including FIN) has been acknowledged.
    pub fn is_fully_acked(&self) -> bool {
        self.flag(FINISHED) && self.flag(FIN_ACKED) && self.buffered_bytes() == 0
    }

    /// Bytes still buffered awaiting acknowledgement (the send backlog an
    /// unresponsive peer forces us to hold); a shared stream's count as a
    /// copy's would.
    pub fn buffered_bytes(&self) -> usize {
        match &self.unacked {
            Unacked::Owned { buf, .. } => buf.len(),
            Unacked::Shared { .. } => self.write_offset() as usize,
        }
    }

    /// Bytes of heap storage held (capacities): the retransmission
    /// buffer — a shared body's share of its block, charged as every
    /// shared [`Payload`] is ([`Payload::heap_bytes`]) — and, while it is
    /// held, the spill with its ranges and its sparse-ack table.
    pub fn heap_bytes(&self) -> usize {
        let bytes = match &self.unacked {
            Unacked::Owned { buf, .. } => buf.capacity(),
            Unacked::Shared { body, .. } => body.heap_bytes(),
        };
        bytes
            + self.spill.as_deref().map_or(0, |s| {
                std::mem::size_of::<Spill>()
                    + s.pending.capacity() * std::mem::size_of::<(u64, u64)>()
                    + s.acked.heap_bytes()
            })
    }

    /// True if data or FIN is waiting to be transmitted.
    pub fn has_pending(&self) -> bool {
        !self.is_stopped() && (self.head != NO_RANGE || self.flag(FIN_PENDING))
    }

    /// Takes up to `max_len` bytes of pending data for transmission.
    /// Returns `(offset, data, fin)`; `fin` is set when this transmission
    /// ends exactly at the FIN offset. The bytes are copied out of the
    /// retransmission buffer once, straight into the shared [`Payload`]
    /// the STREAM frame carries — or, for a shared stream, cut from its
    /// body where none of the prefix is in them (module docs).
    pub fn pop_transmit(&mut self, max_len: usize) -> Option<(u64, Payload, bool)> {
        if self.is_stopped() {
            return None;
        }
        // Drop or trim ranges a late ACK already covered (base advanced
        // past them after the loss was queued).
        let base = self.base();
        let trim = |(s, e): &mut (u64, u64)| {
            *s = (*s).max(base);
            e > s
        };
        if let Some(spill) = self.spill.as_deref_mut() {
            spill.pending.retain_mut(trim);
        }
        if self.head != NO_RANGE && !trim(&mut self.head) {
            self.remove_range(0);
        }
        let sent = (self.head != NO_RANGE).then(|| {
            let (start, end) = self.head;
            let tend = start + ((end - start) as usize).min(max_len) as u64;
            if tend == end {
                self.remove_range(0);
            } else {
                self.head.0 = tend;
            }
            let fin = self.flag(FINISHED) && self.write_offset() == tend;
            if fin {
                self.set(FIN_PENDING, false);
            }
            (start, self.slice(start, tend), fin)
        });
        self.tidy();
        if sent.is_some() {
            return sent;
        }
        if self.flag(FIN_PENDING) {
            self.set(FIN_PENDING, false);
            return Some((self.write_offset(), Payload::empty(), true));
        }
        None
    }

    fn slice(&self, start: u64, end: u64) -> Payload {
        match &self.unacked {
            Unacked::Owned { buf, base, .. } => {
                Payload::from(&buf[(start - base) as usize..(end - base) as usize])
            }
            Unacked::Shared { body, prefix } => {
                match split(usize::from(self.prefix_len), start, end) {
                    (head, rest) if head.is_empty() => body.slice(rest),
                    (head, rest) => Payload::concat(&prefix[head], &body[rest]),
                }
            }
        }
    }

    /// Drops what lies below `to`, every byte of which is acknowledged. A
    /// shared stream is never trimmed: what is left of it becomes a copy
    /// of its own — nothing, once all of it is acknowledged.
    fn trim(&mut self, to: u64) {
        let end = self.write_offset();
        match &mut self.unacked {
            Unacked::Owned { buf, base, .. } => {
                queue::drain_front(buf, (to - *base) as usize);
                *base = to;
            }
            Unacked::Shared { body, prefix } => {
                let (head, rest) = split(usize::from(self.prefix_len), to, end);
                let mut buf = Vec::with_capacity(head.len() + rest.len());
                buf.extend_from_slice(&prefix[head]);
                buf.extend_from_slice(&body[rest]);
                self.unacked = Unacked::Owned {
                    buf,
                    base: to,
                    window: end,
                };
                self.prefix_len = 0;
            }
        }
    }

    /// Records an acknowledged range (and FIN if `fin`).
    pub fn on_ack(&mut self, offset: u64, len: u64, fin: bool) {
        if fin {
            self.set(FIN_ACKED, true);
        }
        let Some(end) = (len > 0).then_some(offset + len) else {
            return;
        };
        let mut base = self.base();
        if offset <= base && self.spill.as_ref().is_none_or(|s| s.acked.is_empty()) {
            // In order: the base moves, nothing sparse to remember.
            if end > base {
                self.trim(end);
            }
            return;
        }
        let acked = &mut self.spill.get_or_insert_with(Box::default).acked;
        let known = acked.get(&offset).copied().unwrap_or(end);
        acked.insert(offset, known.max(end));
        // Advance base over the contiguously acked prefix: find how far
        // it reaches, then drop it from the table and the buffer in one
        // move each (not one front removal per range).
        let mut covered = None;
        for (&s, &e) in acked.iter() {
            if s > base {
                break;
            }
            base = base.max(e);
            covered = Some(s);
        }
        if let Some(last) = covered {
            acked.remove_range(..=last, |_, _| {});
            // A burst's worth of buffer goes back once all of it is acked.
            self.trim(base);
        }
        self.tidy();
    }

    /// Re-queues a lost range (and FIN if `fin`) for retransmission.
    pub fn on_loss(&mut self, offset: u64, len: u64, fin: bool) {
        if self.is_stopped() {
            return;
        }
        if fin && !self.flag(FIN_ACKED) {
            self.set(FIN_PENDING, true);
        }
        if len == 0 {
            return;
        }
        let (mut start, end) = (offset, offset + len);
        if end <= self.base() {
            return; // already acked via another copy
        }
        start = start.max(self.base());
        self.queue(start, end);
    }
}

/// Receiver half of a stream.
///
/// A peer's unidirectional stream is received from the frame that opens
/// it until it is read to its end. A bidirectional stream's receive half
/// lives only while it holds something ([`AtRest`]).
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

    /// The receive half of a stream at rest, resumed: what it received is
    /// all read.
    pub fn resume(rest: &AtRest) -> RecvStream {
        RecvStream {
            read_offset: rest.received,
            highest_seen: rest.received,
            fin_offset: rest.flag(RECEIVED_FIN).then_some(rest.received),
            reset: rest.flag(RECV_RESET).then_some(0),
            ..RecvStream::new(rest.recv_window)
        }
    }

    /// If everything received is read — any segment still stored then
    /// lies below the read offset — writes the half's offsets into `rest`
    /// and returns true: the caller drops it.
    pub fn rest(&self, rest: &mut AtRest) -> bool {
        let read = self.read_offset;
        if self.highest_seen != read || self.fin_offset.is_some_and(|f| f != read) {
            return false;
        }
        rest.received = read;
        rest.recv_window = self.max_stream_data;
        rest.set(RECEIVED_FIN, self.fin_offset.is_some());
        rest.set(RECV_RESET, self.reset.is_some());
        true
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

    impl SendStream {
        /// The buffer of a stream that holds its own copy.
        fn buf(&self) -> &Vec<u8> {
            match &self.unacked {
                Unacked::Owned { buf, .. } => buf,
                Unacked::Shared { .. } => panic!("a shared stream has no buffer"),
            }
        }

        /// The queued ranges, front first.
        fn pending(&self) -> Vec<(u64, u64)> {
            let spilled = self.spill.as_deref().map(|s| s.pending.iter().copied());
            (self.head != NO_RANGE)
                .then_some(self.head)
                .into_iter()
                .chain(spilled.into_iter().flatten())
                .collect()
        }
    }

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
        s.write(b"hello world");
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
        assert_eq!(s.room(), Some(4));
        s.write(b"abcd");
        assert_eq!(s.room(), Some(0));
        s.raise_window(10);
        assert_eq!(s.room(), Some(6));
        s.write(b"efghij");
        assert_eq!(s.room(), Some(0));
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
        assert_eq!(s.buf().capacity(), 0, "the burst's storage is given back");
        // One control message at a time: allocated once, then reused.
        cycle(&mut s, 100);
        let warm = (s.buf().as_ptr(), s.buf().capacity());
        assert!((100..=queue::KEEP_BYTES).contains(&warm.1));
        cycle(&mut s, 100);
        assert_eq!((s.buf().as_ptr(), s.buf().capacity()), warm);
        // Half acked is not drained: nothing is given back under the data.
        s.write(&[0xAB; 2000]);
        let (offset, data, _) = s.pop_transmit(1000).unwrap();
        s.on_ack(offset, data.len() as u64, false);
        assert_eq!(s.buffered_bytes(), 1000);
        assert!(s.buf().capacity() >= 2000);
        while let Some((offset, data, fin)) = s.pop_transmit(1200) {
            s.on_ack(offset, data.len() as u64, fin);
        }

        // The retransmit list: writes merge into one range, so a burst of
        // ranges is losses that touch no other — every other packet of a
        // flight, lost — queued before the next flight takes them. The
        // first range is inline; the rest spill into a box of their own,
        // which goes back the moment the burst is resent.
        let burst = |s: &mut SendStream, ranges: usize| {
            s.write(&vec![0xAB; 40 * ranges]);
            let sent: Vec<_> = std::iter::from_fn(|| s.pop_transmit(20)).collect();
            for (i, (offset, data, fin)) in sent.into_iter().enumerate() {
                if i % 2 == 0 {
                    s.on_loss(offset, data.len() as u64, fin);
                } else {
                    s.on_ack(offset, data.len() as u64, fin);
                }
            }
            assert_eq!(s.pending().len(), ranges);
            let spilled = s.spill.is_some();
            while let Some((offset, data, fin)) = s.pop_transmit(1200) {
                s.on_ack(offset, data.len() as u64, fin);
            }
            spilled
        };
        assert!(burst(&mut s, 32));
        assert!(s.spill.is_none(), "the burst's ranges are given back");
        // A loss behind an in-order ACK is resent from the inline range:
        // nothing spills.
        s.write(&[0xAB; 40]);
        let (first, _, _) = s.pop_transmit(20).unwrap();
        let (second, _, _) = s.pop_transmit(20).unwrap();
        s.on_ack(first, 20, false);
        s.on_loss(second, 20, false);
        assert_eq!(s.pending(), [(second, second + 20)]);
        assert!(s.spill.is_none());
        assert_eq!(s.pop_transmit(1200).unwrap().0, second);
        s.on_ack(second, 20, false);
        // A range still queued stays inline under a partial transmission.
        s.write(&[0xAB; 2000]);
        s.pop_transmit(1000).unwrap();
        assert_eq!((s.pending().len(), s.spill.is_none()), (1, true));
    }

    #[test]
    fn contiguous_writes_are_one_range_one_transmission() {
        let mut s = SendStream::new(1000);
        for message in [&b"SETUP"[..], b"SUBSCRIBE", b"FETCH"] {
            s.write(message);
        }
        assert_eq!(s.pending(), [(0, 19)]);
        let (offset, data, fin) = s.pop_transmit(1200).unwrap();
        assert_eq!(
            (offset, data.as_slice(), fin),
            (0, &b"SETUPSUBSCRIBEFETCH"[..], false)
        );
        assert!(s.pop_transmit(1200).is_none());
    }

    #[test]
    fn a_lost_range_merges_with_an_adjacent_queued_one_only() {
        let mut s = SendStream::new(1000);
        s.write(&[0xAB; 50]);
        for _ in 0..4 {
            s.pop_transmit(10).unwrap();
        }
        assert_eq!(s.pending(), [(40, 50)]);
        // Adjacent to the queued tail: one range.
        s.on_loss(30, 10, false);
        assert_eq!(s.pending(), [(30, 50)]);
        // Touching nothing queued: a range of its own.
        s.on_loss(10, 10, false);
        assert_eq!(s.pending(), [(30, 50), (10, 20)]);
        // The gap between them, lost: the two become one.
        s.on_loss(20, 10, false);
        assert_eq!(s.pending(), [(10, 50)]);
        // A write after the run extends it.
        s.write(&[0xAB; 5]);
        assert_eq!(s.pending(), [(10, 55)]);
        let (offset, data, _) = s.pop_transmit(1200).unwrap();
        assert_eq!((offset, data.len()), (10, 45));
        assert!(s.pop_transmit(1200).is_none());
    }

    #[test]
    fn a_prefix_past_the_inline_room_takes_the_copy() {
        // A subgroup stream whose group is a ten-digit zone serial: type,
        // alias, an eight-byte group, priority, object id and a two-byte
        // length make fourteen bytes, past the eight kept inline.
        let prefix = [
            0x08, 5, 0xC0, 0, 0, 0, 0x78, 0xA3, 0xA1, 0x95, 0x80, 0, 0x40, 0x64,
        ];
        let body = Payload::from(&[0xAB; 100]);
        let mut s = SendStream::new(4096);
        s.write_whole(&prefix, body.clone());
        let mut want = prefix.to_vec();
        want.extend_from_slice(&body);
        assert_eq!(s.buf(), &want);
        assert_eq!((s.buffered_bytes(), s.heap_bytes()), (114, 114));
        assert_eq!(s.pop_transmit(1200), Some((0, Payload::from(&want), true)));
        // Within the room, the body is the caller's: the half holds a share
        // of it, and nothing of its own.
        let mut s = SendStream::new(4096);
        s.write_whole(&prefix[..INLINE_PREFIX], body.clone());
        assert!(
            matches!(&s.unacked, Unacked::Shared { body: held, .. } if held.shares_storage_with(&body))
        );
        let left = INLINE_PREFIX + 100 - 50;
        assert_eq!(s.buffered_bytes(), INLINE_PREFIX + 100);
        assert_eq!(s.heap_bytes(), body.heap_bytes());
        // A transmission that starts in the body is a view of it.
        let (offset, head, _) = s.pop_transmit(50).unwrap();
        assert_eq!(
            (offset, &head[..INLINE_PREFIX]),
            (0, &prefix[..INLINE_PREFIX])
        );
        let (offset, tail, fin) = s.pop_transmit(1200).unwrap();
        assert_eq!((offset, tail.len(), fin), (50, left, true));
        assert!(tail.shares_storage_with(&body));
        // The first ACK trims it into a copy of what is left.
        s.on_ack(0, 50, false);
        assert_eq!((s.buf().len(), s.buffered_bytes()), (left, left));
        s.on_ack(50, left as u64, true);
        assert!(s.is_fully_acked());
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

    /// The send half as it was before it was packed: a write offset and
    /// an optional FIN offset of its own, three flags, every queued range
    /// in one list and the sparse acknowledgements beside it. The packed
    /// [`SendStream`] must send what it sends.
    mod model {
        use moqdns_wire::{queue, Payload, VecMap};
        use std::collections::VecDeque;

        const KEEP_RANGES: usize = 4;

        #[derive(Debug)]
        pub struct SendStream {
            pub buf: Vec<u8>,
            pub base: u64,
            write_offset: u64,
            pending: VecDeque<(u64, u64)>,
            acked: VecMap<u64, u64>,
            fin_offset: Option<u64>,
            fin_pending: bool,
            fin_acked: bool,
            max_stream_data: u64,
            pub reset: bool,
        }

        impl SendStream {
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
                }
            }

            pub fn room(&self) -> Option<u64> {
                if self.reset {
                    return None;
                }
                Some(if self.fin_offset.is_some() {
                    0
                } else {
                    self.max_stream_data.saturating_sub(self.write_offset)
                })
            }

            pub fn write(&mut self, data: &[u8]) {
                assert!(self.room().is_some_and(|room| room >= data.len() as u64));
                if data.is_empty() {
                    return;
                }
                self.buf.extend_from_slice(data);
                let start = self.write_offset;
                if start == 0 {
                    self.pending.reserve_exact(1);
                }
                self.write_offset += data.len() as u64;
                self.queue(start, self.write_offset);
            }

            fn queue(&mut self, start: u64, end: u64) {
                let before = self.pending.iter().rposition(|r| r.1 == start);
                let after = self.pending.iter().rposition(|r| r.0 == end);
                match (before, after) {
                    (Some(b), Some(a)) => {
                        self.pending[b].1 = self.pending[a].1;
                        self.pending.remove(a);
                    }
                    (Some(b), None) => self.pending[b].1 = end,
                    (None, Some(a)) => self.pending[a].0 = start,
                    (None, None) => self.pending.push_back((start, end)),
                }
            }

            pub fn finish(&mut self) {
                if self.fin_offset.is_none() && !self.reset {
                    self.fin_offset = Some(self.write_offset);
                    self.fin_pending = true;
                }
            }

            pub fn is_fully_acked(&self) -> bool {
                self.fin_acked && self.base == self.fin_offset.unwrap_or(u64::MAX)
            }

            pub fn heap_bytes(&self) -> usize {
                self.buf.capacity()
                    + self.pending.capacity() * std::mem::size_of::<(u64, u64)>()
                    + self.acked.heap_bytes()
            }

            pub fn has_pending(&self) -> bool {
                !self.reset && (!self.pending.is_empty() || self.fin_pending)
            }

            pub fn pop_transmit(&mut self, max_len: usize) -> Option<(u64, Payload, bool)> {
                if self.reset {
                    return None;
                }
                let base = self.base;
                self.pending.retain_mut(|(s, e)| {
                    *s = (*s).max(base);
                    e > s
                });
                if let Some(&(start, end)) = self.pending.front() {
                    let take = ((end - start) as usize).min(max_len) as u64;
                    let tend = start + take;
                    if tend == end {
                        self.pending.pop_front();
                        if self.pending.is_empty() && self.pending.capacity() > KEEP_RANGES {
                            self.pending = VecDeque::new();
                        }
                    } else {
                        self.pending[0].0 = tend;
                    }
                    let s = (start - self.base) as usize;
                    let data = Payload::from(&self.buf[s..s + take as usize]);
                    let fin = self.fin_offset == Some(tend) && {
                        self.fin_pending = false;
                        true
                    };
                    return Some((start, data, fin));
                }
                if self.fin_pending {
                    self.fin_pending = false;
                    return Some((self.fin_offset.unwrap(), Payload::empty(), true));
                }
                None
            }

            pub fn on_ack(&mut self, offset: u64, len: u64, fin: bool) {
                if fin {
                    self.fin_acked = true;
                }
                if len > 0 {
                    let end = offset + len;
                    if offset <= self.base && self.acked.is_empty() {
                        if end > self.base {
                            queue::drain_front(&mut self.buf, (end - self.base) as usize);
                            self.base = end;
                        }
                        return;
                    }
                    let known = self.acked.get(&offset).copied().unwrap_or(end);
                    self.acked.insert(offset, known.max(end));
                }
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
                    queue::drain_front(&mut self.buf, (base - self.base) as usize);
                    self.base = base;
                }
            }

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
                    return;
                }
                start = start.max(self.base);
                self.queue(start, end);
            }
        }
    }

    /// One end of a bidirectional stream, held as its connection holds
    /// it: its offsets at rest, each half resumed (`send`, `recv`) by
    /// whatever gives it something to hold, put back to rest at the end of
    /// every call that leaves it with nothing.
    struct End {
        rest: AtRest,
        send: Option<SendStream>,
        recv: Option<RecvStream>,
        /// What the send half's last rest left for the next to resume with.
        storage: SendStorage,
    }

    impl End {
        fn new() -> End {
            End {
                rest: AtRest::new(WINDOW),
                send: None,
                recv: None,
                storage: SendStorage::default(),
            }
        }

        fn send_half(&mut self) -> &mut SendStream {
            let (rest, storage) = (&self.rest, &mut self.storage);
            self.send
                .get_or_insert_with(|| SendStream::resume(rest, std::mem::take(storage)))
        }

        fn recv_half(&mut self) -> &mut RecvStream {
            let rest = &self.rest;
            self.recv.get_or_insert_with(|| RecvStream::resume(rest))
        }

        /// The send half that holds something: what an ACK or a loss acts on.
        fn sending(&mut self) -> Option<&mut SendStream> {
            self.send.as_mut()
        }

        fn settle(&mut self) {
            if self.send.as_ref().is_some_and(|s| s.rest(&mut self.rest)) {
                self.storage = self.send.take().unwrap().into_storage();
            }
            if self.recv.as_ref().is_some_and(|r| r.rest(&mut self.rest)) {
                self.recv = None;
            }
        }
    }

    const WINDOW: u64 = 1 << 20;

    /// One direction of the stream: what its sender wrote, which bytes the
    /// sender has had acknowledged, the frames on the wire, the copies
    /// sent and not yet acknowledged or lost, what the receiver read.
    #[derive(Default)]
    struct Direction {
        written: usize,
        /// The sender finished the stream, and whether its FIN is acked.
        finished: bool,
        fin_acked: bool,
        /// The receiver stopped the sender (STOP_SENDING).
        stopped: bool,
        /// The sender reset the stream (RESET_STREAM).
        reset: bool,
        transmissions: usize,
        acked: Vec<bool>,
        /// `(transmission, offset, bytes, fin)`.
        wire: Vec<(usize, u64, Payload, bool)>,
        /// `(transmission, offset, length, fin, delivered)`.
        sent: Vec<(usize, u64, u64, bool, bool)>,
        /// The highest offset any delivered frame reached, and whether a
        /// FIN arrived.
        delivered: u64,
        fin_delivered: bool,
        read: Vec<u8>,
    }

    impl Direction {
        fn byte(&self, i: usize, tag: u8) -> u8 {
            (i as u8).wrapping_mul(7) ^ tag
        }

        /// Nothing written is unacknowledged at the sender, and nothing is
        /// left to send: a FIN is acknowledged, or will never be sent.
        fn all_acked(&self) -> bool {
            self.acked.iter().all(|a| *a) && (!self.finished || self.fin_acked || self.stopped)
        }

        /// Nothing received is unread at the receiver.
        fn all_read(&self) -> bool {
            self.delivered == self.read.len() as u64
        }

        /// Nothing more can move in this direction. A stopped sender
        /// resends nothing it lost: its receiver may be left with a gap.
        fn quiet(&self) -> bool {
            let sent = self.all_acked() || self.stopped && self.sent.is_empty();
            let read = self.all_read() || self.reset || self.stopped;
            sent && read && self.wire.is_empty()
        }
    }

    /// Applies one scripted step to direction `d` (from `ends[d]` to the
    /// other end), then settles both ends as a call's end would.
    fn step(ends: &mut [End; 2], dirs: &mut [Direction; 2], d: usize, op: u8, x: u16) {
        let (from, to) = if d == 0 { (0, 1) } else { (1, 0) };
        let dir = &mut dirs[d];
        let x = x as usize;
        match op % 8 {
            // A control write; there is no room for one once finished or
            // stopped.
            0 => {
                let n = x % 120 + 1;
                let data: Vec<u8> = (dir.written..dir.written + n)
                    .map(|i| dir.byte(i, d as u8))
                    .collect();
                let half = ends[from].send_half();
                if dir.finished || dir.stopped {
                    assert!(half.room() < Some(n as u64), "room past a FIN or a STOP");
                } else {
                    half.write(&data);
                    dir.written += n;
                    dir.acked.resize(dir.written, false);
                }
            }
            // A transmission, as large as the packet allows.
            1 => {
                let next = ends[from]
                    .sending()
                    .and_then(|s| s.pop_transmit(x % 64 + 1));
                if let Some((offset, data, fin)) = next {
                    assert!(!dir.stopped, "sent after STOP_SENDING");
                    let id = dir.transmissions;
                    dir.transmissions += 1;
                    dir.sent.push((id, offset, data.len() as u64, fin, false));
                    dir.wire.push((id, offset, data, fin));
                }
            }
            // A frame arrives, in any order, perhaps twice.
            2 if !dir.wire.is_empty() => {
                let i = x % dir.wire.len();
                let (id, offset, data, fin) = if op & 0x80 != 0 {
                    dir.wire[i].clone()
                } else {
                    dir.wire.swap_remove(i)
                };
                dir.delivered = dir.delivered.max(offset + data.len() as u64);
                dir.fin_delivered |= fin;
                for copy in dir.sent.iter_mut().filter(|c| c.0 == id) {
                    copy.4 = true;
                }
                assert!(ends[to].recv_half().on_stream_frame(offset, data, fin));
            }
            // A copy declared lost: gone from the wire unless it arrived.
            3 if !dir.sent.is_empty() => {
                let (id, offset, len, fin, _) = dir.sent.swap_remove(x % dir.sent.len());
                dir.wire.retain(|w| w.0 != id);
                if let Some(s) = ends[from].sending() {
                    s.on_loss(offset, len, fin);
                }
            }
            // An ACK of a delivered copy — out of order, partial, and
            // now and then again.
            4 => {
                let delivered: Vec<usize> =
                    (0..dir.sent.len()).filter(|&i| dir.sent[i].4).collect();
                if let Some(&i) = delivered.get(x % delivered.len().max(1)) {
                    let (_, offset, len, fin, _) = if op & 0x80 != 0 {
                        dir.sent[i]
                    } else {
                        dir.sent.swap_remove(i)
                    };
                    dir.acked[offset as usize..(offset + len) as usize].fill(true);
                    dir.fin_acked |= fin;
                    if let Some(s) = ends[from].sending() {
                        s.on_ack(offset, len, fin);
                    }
                }
            }
            // A read, of any size — none once the stream is reset, as the
            // connection reads it.
            5 => {
                let r = ends[to].recv_half();
                if r.reset.is_none() {
                    let (data, _) = r.read(x % 100 + 1);
                    dir.read.extend_from_slice(&data);
                }
            }
            // The sender finishes the stream, now and then.
            6 if x.is_multiple_of(8) => {
                ends[from].send_half().finish();
                dir.finished |= !dir.stopped;
            }
            // The receiver stops the sender (STOP_SENDING), or the sender
            // resets the stream (RESET_STREAM), once in a while.
            7 if x.is_multiple_of(16) => {
                if op & 0x80 != 0 {
                    ends[from].send_half().stop();
                    dir.stopped = true;
                } else {
                    ends[to].recv_half().reset = Some(0);
                    dir.reset = true;
                }
            }
            _ => {}
        }
        for end in ends.iter_mut() {
            end.settle();
        }
    }

    /// Checks the stream model after a step: each direction's bytes read
    /// in order, exactly once; each half of each end at rest — in no
    /// record, holding no heap — exactly when nothing it sent is
    /// unacknowledged, or nothing it received is unread; and a half at
    /// rest resumes as it rested: finished, stopped or reset.
    fn check(ends: &[End; 2], dirs: &[Direction; 2]) {
        for (d, dir) in dirs.iter().enumerate() {
            let want: Vec<u8> = (0..dir.read.len()).map(|i| dir.byte(i, d as u8)).collect();
            prop_assert_eq!(&dir.read, &want);
        }
        for (e, end) in ends.iter().enumerate() {
            let (sends, receives) = (&dirs[e], &dirs[1 - e]);
            prop_assert_eq!(end.send.is_none(), sends.all_acked());
            prop_assert_eq!(end.recv.is_none(), receives.all_read());
            if end.send.is_none() {
                let resumed = SendStream::resume(&end.rest, SendStorage::default());
                let room = if sends.stopped {
                    None
                } else if sends.finished {
                    Some(0)
                } else {
                    Some(WINDOW - sends.written as u64)
                };
                prop_assert_eq!(resumed.room(), room);
                prop_assert_eq!(resumed.heap_bytes(), 0);
                prop_assert!(!resumed.has_pending());
            }
            if end.recv.is_none() {
                let resumed = RecvStream::resume(&end.rest);
                prop_assert_eq!(resumed.reset.is_some(), receives.reset);
                let fin = receives.fin_delivered;
                prop_assert_eq!(resumed.is_readable(), receives.reset || fin);
                prop_assert_eq!(resumed.heap_bytes(), 0);
            }
        }
    }

    proptest! {
        /// A bidirectional stream driven through control writes both
        /// ways, transmissions, losses, duplicate and partial ACKs, frames
        /// arriving out of order or twice, FINs, STOP_SENDING and
        /// RESET_STREAM: every byte is read in order and exactly once, and
        /// each end holds a half exactly while it has something
        /// unacknowledged, or unread — at rest it is its offsets, with no
        /// heap, and resumes finished, stopped or reset as it rested.
        #[test]
        fn prop_a_bidi_stream_rests_exactly_when_it_holds_nothing(
            script in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..300),
        ) {
            let mut ends = [End::new(), End::new()];
            let mut dirs = [Direction::default(), Direction::default()];
            for &(op, x) in &script {
                step(&mut ends, &mut dirs, usize::from(op & 0x40 != 0), op, x);
                check(&ends, &dirs);
            }
            // Then a clean wire: every loss resent, every copy delivered
            // and acknowledged, everything read.
            for _ in 0..10_000 {
                let Some(d) = (0..2).find(|&d| !dirs[d].quiet()) else {
                    break;
                };
                for (op, x) in [(1, 63), (2, 0), (4, 0), (5, 99)] {
                    step(&mut ends, &mut dirs, d, op, x);
                    check(&ends, &dirs);
                }
            }
            for (d, dir) in dirs.iter().enumerate() {
                prop_assert!(dir.quiet(), "direction {} never went quiet", d);
                if !dir.stopped && !dir.reset {
                    prop_assert_eq!(dir.read.len(), dir.written, "direction {}", d);
                }
            }
        }

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

        /// Writes of random sizes, flights under random budgets, copies
        /// acknowledged, lost, or lost after they arrived, in any order:
        /// the receiver reassembles exactly what was written, and its FIN.
        /// No flight carries two frames whose ranges touch — a contiguous
        /// run leaves as one frame — and every byte a flight carries was
        /// owed: written and not sent yet, or in a copy declared lost.
        #[test]
        fn prop_a_contiguous_run_is_one_frame(
            script in proptest::collection::vec((0u8..5, any::<u16>()), 1..200),
        ) {
            let byte = |i: u64| (i as u8).wrapping_mul(31) ^ 0x5A;
            let mut s = SendStream::new(WINDOW);
            let mut r = RecvStream::new(WINDOW);
            let mut written = 0u64;
            // Times each byte is owed a transmission.
            let mut owed: Vec<u32> = Vec::new();
            // Copies on the wire: (offset, bytes, fin).
            let mut in_flight: Vec<(u64, Payload, bool)> = Vec::new();
            let flight = |s: &mut SendStream,
                          owed: &mut Vec<u32>,
                          in_flight: &mut Vec<(u64, Payload, bool)>,
                          budget: usize| {
                // A flight as `Connection::poll_transmit` fills a packet.
                let mut budget = budget;
                let mut ranges: Vec<(u64, u64)> = Vec::new();
                while budget > 32 {
                    let Some((offset, data, fin)) = s.pop_transmit(budget - 32) else {
                        break;
                    };
                    budget = budget.saturating_sub(data.len() + 16);
                    let end = offset + data.len() as u64;
                    for b in offset..end {
                        prop_assert!(owed[b as usize] > 0, "byte {} sent unowed", b);
                        owed[b as usize] -= 1;
                    }
                    if end > offset {
                        prop_assert!(
                            ranges.iter().all(|&(s, e)| e != offset && s != end),
                            "{:?} touches a range already in this flight {:?}",
                            (offset, end),
                            ranges
                        );
                        ranges.push((offset, end));
                    }
                    in_flight.push((offset, data, fin));
                }
            };
            let lose = |s: &mut SendStream, owed: &mut Vec<u32>, copy: &(u64, Payload, bool)| {
                let (offset, len) = (copy.0, copy.1.len() as u64);
                for b in offset..offset + len {
                    owed[b as usize] += 1;
                }
                s.on_loss(offset, len, copy.2);
            };
            for &(op, x) in &script {
                let x = x as usize;
                match op {
                    0 => {
                        let n = (x % 200 + 1) as u64;
                        let data: Vec<u8> = (written..written + n).map(byte).collect();
                        s.write(&data);
                        written += n;
                        owed.resize(written as usize, 1);
                    }
                    1 => flight(&mut s, &mut owed, &mut in_flight, x % 1200 + 40),
                    _ if in_flight.is_empty() => {}
                    // Arrives and is acknowledged.
                    2 => {
                        let (offset, data, fin) = in_flight.swap_remove(x % in_flight.len());
                        prop_assert!(r.on_stream_frame(offset, data.clone(), fin));
                        s.on_ack(offset, data.len() as u64, fin);
                    }
                    // Lost on the way.
                    3 => {
                        let copy = in_flight.swap_remove(x % in_flight.len());
                        lose(&mut s, &mut owed, &copy);
                    }
                    // Arrives, but is declared lost all the same.
                    _ => {
                        let copy = in_flight.swap_remove(x % in_flight.len());
                        prop_assert!(r.on_stream_frame(copy.0, copy.1.clone(), copy.2));
                        lose(&mut s, &mut owed, &copy);
                    }
                }
            }
            // Then the sender finishes, and the wire is clean.
            s.finish();
            for _ in 0..10_000 {
                if !s.has_pending() && in_flight.is_empty() {
                    break;
                }
                flight(&mut s, &mut owed, &mut in_flight, 1200);
                for (offset, data, fin) in in_flight.drain(..) {
                    prop_assert!(r.on_stream_frame(offset, data.clone(), fin));
                    s.on_ack(offset, data.len() as u64, fin);
                }
            }
            prop_assert!(s.is_fully_acked());
            let (read, fin) = r.read(usize::MAX);
            prop_assert!(fin);
            prop_assert!(read.iter().copied().eq((0..written).map(byte)));
        }

        /// The packed send half against the one it replaced, driven by
        /// the same script: writes up to the window, FIN, transmissions
        /// under random budgets, ACKs in order, out of order, partial and
        /// twice, losses re-queued, and STOP_SENDING. Every transmission
        /// is the same frame — offset, bytes and FIN — and after every
        /// step the two agree on the base, the buffer, what is owed and
        /// whether all is acknowledged. The packed one never holds more
        /// heap, but for its spill box while a loss or a sparse ACK fills
        /// it: its first range is inline, and what drains is given back.
        #[test]
        fn prop_the_packed_send_half_sends_what_the_model_sends(
            script in proptest::collection::vec((0u8..8, any::<u16>()), 1..300),
        ) {
            let mut new = SendStream::new(4096);
            let mut old = model::SendStream::new(4096);
            let mut written = 0usize;
            // Copies sent and neither acknowledged nor declared lost.
            let mut flight: Vec<(u64, u64, bool)> = Vec::new();
            for &(op, x) in &script {
                let x = x as usize;
                match op {
                    // A write as large as the window takes, up to 300 bytes.
                    0 | 1 => {
                        let n = (x % 300 + 1).min(new.room().unwrap_or(0) as usize);
                        if n > 0 {
                            let data: Vec<u8> = (written..written + n).map(|i| i as u8).collect();
                            new.write(&data);
                            old.write(&data);
                            written += n;
                        }
                    }
                    2 => {
                        let frame = new.pop_transmit(x % 500 + 1);
                        let want = old.pop_transmit(x % 500 + 1);
                        prop_assert_eq!(&frame, &want);
                        if let Some((offset, data, fin)) = frame {
                            flight.push((offset, data.len() as u64, fin));
                        }
                    }
                    // The oldest copy acknowledged: in order, mostly.
                    3 if !flight.is_empty() => {
                        let (offset, len, fin) = flight.remove(0);
                        new.on_ack(offset, len, fin);
                        old.on_ack(offset, len, fin);
                    }
                    // Any copy acknowledged, now and then twice.
                    4 if !flight.is_empty() => {
                        let i = x % flight.len();
                        let (offset, len, fin) = if x & 0x100 != 0 {
                            flight[i]
                        } else {
                            flight.swap_remove(i)
                        };
                        new.on_ack(offset, len, fin);
                        old.on_ack(offset, len, fin);
                    }
                    // Any copy declared lost.
                    5 if !flight.is_empty() => {
                        let (offset, len, fin) = flight.swap_remove(x % flight.len());
                        new.on_loss(offset, len, fin);
                        old.on_loss(offset, len, fin);
                    }
                    6 if x.is_multiple_of(8) => {
                        new.finish();
                        old.finish();
                    }
                    7 if x.is_multiple_of(64) => {
                        new.stop();
                        old.reset = true;
                    }
                    _ => {}
                }
                prop_assert_eq!(new.base(), old.base);
                prop_assert_eq!(new.buf(), &old.buf);
                prop_assert_eq!(new.buf().capacity(), old.buf.capacity());
                prop_assert_eq!(new.is_fully_acked(), old.is_fully_acked());
                prop_assert_eq!(new.has_pending(), old.has_pending());
                prop_assert_eq!(new.room(), old.room());
                let spill = if new.spill.is_some() { std::mem::size_of::<Spill>() } else { 0 };
                prop_assert!(
                    new.heap_bytes() <= old.heap_bytes() + spill,
                    "{} B packed, {} B before", new.heap_bytes(), old.heap_bytes()
                );
            }
            // Then a clean wire: both send the same frames to the end.
            new.finish();
            old.finish();
            for _ in 0..10_000 {
                let frame = new.pop_transmit(1200);
                prop_assert_eq!(&frame, &old.pop_transmit(1200));
                match frame {
                    Some((offset, data, fin)) => flight.push((offset, data.len() as u64, fin)),
                    None if flight.is_empty() => break,
                    None => {
                        for (offset, len, fin) in flight.drain(..) {
                            new.on_ack(offset, len, fin);
                            old.on_ack(offset, len, fin);
                        }
                    }
                }
            }
            prop_assert_eq!(new.is_fully_acked(), old.is_fully_acked());
            // A stopped half sends nothing more: what it queued stays.
            if !new.is_stopped() {
                prop_assert!(new.is_fully_acked());
                prop_assert!(new.spill.is_none() && new.heap_bytes() <= old.heap_bytes());
            }
        }

        /// A stream written whole — a prefix and a shared body — against
        /// the same bytes written through `write` and finished, driven by
        /// the same script: transmissions under random budgets, ACKs in
        /// order, out of order, partial and twice, losses re-queued, and
        /// STOP_SENDING. Every transmission is the same frame — offset,
        /// bytes and FIN — and after every step the two agree on the base,
        /// what is buffered, what is owed and whether all is acknowledged.
        /// A prefix within [`INLINE_PREFIX`] keeps the body shared until
        /// an ACK trims the stream; a longer one takes the copy at once.
        #[test]
        fn prop_a_stream_written_whole_sends_what_its_copy_sends(
            prefix_len in 0usize..12,
            body_len in 0usize..400,
            script in proptest::collection::vec((0u8..6, any::<u16>()), 1..200),
        ) {
            let bytes: Vec<u8> = (0..prefix_len + body_len).map(|i| (i as u8).wrapping_mul(13)).collect();
            let (prefix, body) = bytes.split_at(prefix_len);
            let body = Payload::from(body);
            let mut whole = SendStream::new(4096);
            whole.write_whole(prefix, body.clone());
            let mut copy = SendStream::new(4096);
            copy.write(&bytes);
            copy.finish();
            let shared = prefix_len <= INLINE_PREFIX && !bytes.is_empty();
            match &whole.unacked {
                Unacked::Shared { body: held, .. } => {
                    prop_assert!(shared && held.shares_storage_with(&body));
                    prop_assert_eq!(whole.heap_bytes(), body.heap_bytes());
                }
                Unacked::Owned { buf, .. } => {
                    prop_assert!(!shared);
                    prop_assert_eq!(buf, &bytes);
                }
            }
            // Copies sent and neither acknowledged nor declared lost.
            let mut flight: Vec<(u64, u64, bool)> = Vec::new();
            for &(op, x) in &script {
                let x = x as usize;
                match op {
                    0 | 1 => {
                        let frame = whole.pop_transmit(x % 300 + 1);
                        prop_assert_eq!(&frame, &copy.pop_transmit(x % 300 + 1));
                        if let Some((offset, data, fin)) = frame {
                            flight.push((offset, data.len() as u64, fin));
                        }
                    }
                    // The oldest copy acknowledged: in order, mostly.
                    2 if !flight.is_empty() => {
                        let (offset, len, fin) = flight.remove(0);
                        whole.on_ack(offset, len, fin);
                        copy.on_ack(offset, len, fin);
                    }
                    // Any copy acknowledged, now and then twice.
                    3 if !flight.is_empty() => {
                        let i = x % flight.len();
                        let (offset, len, fin) = if x & 0x100 != 0 {
                            flight[i]
                        } else {
                            flight.swap_remove(i)
                        };
                        whole.on_ack(offset, len, fin);
                        copy.on_ack(offset, len, fin);
                    }
                    // Any copy declared lost.
                    4 if !flight.is_empty() => {
                        let (offset, len, fin) = flight.swap_remove(x % flight.len());
                        whole.on_loss(offset, len, fin);
                        copy.on_loss(offset, len, fin);
                    }
                    5 if x.is_multiple_of(64) => {
                        whole.stop();
                        copy.stop();
                    }
                    _ => {}
                }
                prop_assert_eq!(whole.base(), copy.base());
                prop_assert_eq!(whole.buffered_bytes(), copy.buffered_bytes());
                prop_assert_eq!(whole.write_offset(), copy.write_offset());
                prop_assert_eq!(whole.has_pending(), copy.has_pending());
                prop_assert_eq!(whole.is_fully_acked(), copy.is_fully_acked());
                prop_assert_eq!(whole.room(), copy.room());
                prop_assert_eq!(whole.pending(), copy.pending());
                if let Unacked::Owned { buf, .. } = &whole.unacked {
                    prop_assert_eq!(buf.as_slice(), copy.buf().as_slice());
                }
            }
            // Then a clean wire: both send the same frames to the end.
            for _ in 0..10_000 {
                let frame = whole.pop_transmit(1200);
                prop_assert_eq!(&frame, &copy.pop_transmit(1200));
                match frame {
                    Some((offset, data, fin)) => flight.push((offset, data.len() as u64, fin)),
                    None if flight.is_empty() => break,
                    None => {
                        for (offset, len, fin) in flight.drain(..) {
                            whole.on_ack(offset, len, fin);
                            copy.on_ack(offset, len, fin);
                        }
                    }
                }
            }
            prop_assert_eq!(whole.is_fully_acked(), copy.is_fully_acked());
            prop_assert!(whole.is_fully_acked() || whole.is_stopped());
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
