//! # moqdns-wire
//!
//! Shared wire-format primitives used by every protocol crate in the
//! workspace: QUIC variable-length integers (RFC 9000 §16), bounded
//! byte cursors for encoding and decoding, shared zero-copy payload
//! handles ([`Payload`]), reusable buffer pools ([`BufPool`], one per
//! thread via [`pool::with_scratch`]), sorted-`Vec` ordered maps for small
//! tables ([`VecMap`], [`VecSet`], and [`SmallMap`], whose one entry
//! lives in place), the capacity rules for event
//! queues and byte buffers (storage lent from the thread,
//! [`queue::borrow`] / [`queue::give_back`]; what is in flight kept in
//! one pooled record per holder, [`record!`]; a burst's storage released
//! when drained, [`queue::pop_front`] / [`queue::drain_front`]), the one
//! counter vocabulary every layer counts in ([`counters!`],
//! [`counters::Counts`]), and a common error type.
//!
//! The cursors are deliberately minimal: they operate on plain byte
//! slices / `Vec<u8>` so that protocol state machines stay sans-io and
//! allocation patterns stay obvious. [`Payload`] is the one shared-
//! ownership concession: an `Arc<[u8]>` slice handle so that object
//! fan-out across N subscribers clones a refcount, not the bytes.

pub mod buf;
pub mod counters;
pub mod error;
pub mod payload;
pub mod pool;
pub mod queue;
pub mod varint;
pub mod vecmap;

pub use buf::{Reader, Writer};
pub use error::WireError;
pub use payload::Payload;
pub use pool::BufPool;
pub use varint::VarInt;
pub use vecmap::{btree_heap_bytes, SmallMap, VecMap, VecSet};

/// Convenience result alias for wire-format operations.
pub type WireResult<T> = Result<T, WireError>;
