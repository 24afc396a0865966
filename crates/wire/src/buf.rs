//! Bounded byte cursors for encoding and decoding.
//!
//! [`Reader`] wraps a borrowed slice and fails with
//! [`WireError::UnexpectedEnd`](crate::WireError) instead of panicking when
//! input runs out — malformed network input must never crash a server.
//! [`Writer`] wraps a growable `Vec<u8>` with big-endian put helpers.

use crate::{WireError, WireResult};

/// A bounded, non-panicking read cursor over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Current read position (bytes consumed so far).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Number of bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True if all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The unconsumed tail of the buffer.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// The full underlying buffer (independent of position).
    pub fn full(&self) -> &'a [u8] {
        self.buf
    }

    fn check(&self, n: usize) -> WireResult<()> {
        if self.remaining() < n {
            Err(WireError::UnexpectedEnd {
                needed: n - self.remaining(),
            })
        } else {
            Ok(())
        }
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> WireResult<u8> {
        self.check(1)?;
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian u16.
    pub fn get_u16(&mut self) -> WireResult<u16> {
        let b = self.get_bytes(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian u32.
    pub fn get_u32(&mut self) -> WireResult<u32> {
        let b = self.get_bytes(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian u64.
    pub fn get_u64(&mut self) -> WireResult<u64> {
        let b = self.get_bytes(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads exactly `n` bytes, advancing the cursor.
    pub fn get_bytes(&mut self, n: usize) -> WireResult<&'a [u8]> {
        self.check(n)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads exactly `n` bytes into an owned vector.
    pub fn get_vec(&mut self, n: usize) -> WireResult<Vec<u8>> {
        Ok(self.get_bytes(n)?.to_vec())
    }

    /// Consumes and returns all remaining bytes.
    pub fn take_rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Skips `n` bytes.
    pub fn skip(&mut self, n: usize) -> WireResult<()> {
        self.check(n)?;
        self.pos += n;
        Ok(())
    }

    /// Moves the cursor to an absolute position (used by DNS name
    /// decompression, which follows pointers backwards).
    pub fn seek(&mut self, pos: usize) -> WireResult<()> {
        if pos > self.buf.len() {
            return Err(WireError::Invalid {
                what: "seek position",
            });
        }
        self.pos = pos;
        Ok(())
    }

    /// Returns an error if any bytes remain unconsumed.
    pub fn expect_end(&self) -> WireResult<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    /// Runs `f` on a sub-reader restricted to the next `n` bytes, then
    /// advances past them. The sub-reader must be fully consumed.
    pub fn sub<T>(
        &mut self,
        n: usize,
        f: impl FnOnce(&mut Reader<'a>) -> WireResult<T>,
    ) -> WireResult<T> {
        let bytes = self.get_bytes(n)?;
        let mut sub = Reader::new(bytes);
        let v = f(&mut sub)?;
        sub.expect_end()?;
        Ok(v)
    }
}

/// A growable big-endian write cursor.
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    /// Creates a writer with `cap` bytes of pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Creates a writer over a recycled buffer: the contents are cleared
    /// but the allocation is kept, so hot encode paths that hand buffers
    /// back (see [`crate::BufPool`]) stop paying per-message allocations.
    pub fn reuse(mut buf: Vec<u8>) -> Writer {
        buf.clear();
        Writer { buf }
    }

    /// Clears the written bytes, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Bytes of allocated capacity (diagnostics for pooling).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a byte slice verbatim.
    pub fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// View of the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Overwrites the big-endian u16 at `pos` (for patching length fields).
    pub fn patch_u16(&mut self, pos: usize, v: u16) {
        self.buf[pos..pos + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Consumes the writer, returning the underlying bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_integers() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0102_0304_0506_0708);
        w.put_slice(b"xyz");
        assert_eq!(w.len(), 1 + 2 + 4 + 8 + 3);

        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(r.get_bytes(3).unwrap(), b"xyz");
        assert!(r.is_empty());
        r.expect_end().unwrap();
    }

    #[test]
    fn underflow_is_error_not_panic() {
        let buf = [1u8, 2];
        let mut r = Reader::new(&buf);
        assert!(matches!(
            r.get_u32(),
            Err(WireError::UnexpectedEnd { needed: 2 })
        ));
        // Position must be unchanged after a failed read.
        assert_eq!(r.position(), 0);
        assert_eq!(r.get_u16().unwrap(), 0x0102);
    }

    #[test]
    fn take_rest_and_skip() {
        let buf = [1u8, 2, 3, 4, 5];
        let mut r = Reader::new(&buf);
        r.skip(2).unwrap();
        assert_eq!(r.take_rest(), &[3, 4, 5]);
        assert!(r.is_empty());
        assert!(r.skip(1).is_err());
    }

    #[test]
    fn seek_for_compression_pointers() {
        let buf = [9u8, 8, 7];
        let mut r = Reader::new(&buf);
        r.skip(3).unwrap();
        r.seek(1).unwrap();
        assert_eq!(r.get_u8().unwrap(), 8);
        assert!(r.seek(4).is_err());
        r.seek(3).unwrap(); // seeking to end is fine
        assert!(r.is_empty());
    }

    #[test]
    fn expect_end_reports_trailing() {
        let buf = [0u8; 3];
        let r = Reader::new(&buf);
        assert!(matches!(
            r.expect_end(),
            Err(WireError::TrailingBytes { remaining: 3 })
        ));
    }

    #[test]
    fn sub_reader_scopes_and_requires_full_consumption() {
        let buf = [2u8, 0xAA, 0xBB, 0xCC];
        let mut r = Reader::new(&buf);
        let n = r.get_u8().unwrap() as usize;
        let v = r.sub(n, |s| s.get_u16()).unwrap();
        assert_eq!(v, 0xAABB);
        assert_eq!(r.remaining(), 1);

        // Under-consumption inside sub() is an error.
        let buf2 = [0x01u8, 0x02, 0x03];
        let mut r2 = Reader::new(&buf2);
        assert!(r2.sub(3, |s| s.get_u16()).is_err());
    }

    #[test]
    fn patch_u16() {
        let mut w = Writer::new();
        w.put_u16(0);
        w.put_u8(9);
        w.patch_u16(0, 0xBEEF);
        assert_eq!(w.as_slice(), &[0xBE, 0xEF, 9]);
    }
}
