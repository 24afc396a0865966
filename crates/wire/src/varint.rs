//! QUIC variable-length integers (RFC 9000 §16).
//!
//! Values up to 2^62 - 1 are encoded in 1, 2, 4 or 8 bytes; the two most
//! significant bits of the first byte carry the length exponent. MoQT
//! reuses this encoding for all of its wire format, and our QUIC-like
//! transport uses it for frame fields.

use crate::{Reader, WireError, WireResult, Writer};
use std::fmt;

/// Maximum value representable as a QUIC varint: `2^62 - 1`.
pub const MAX_VARINT: u64 = (1 << 62) - 1;

/// A QUIC variable-length integer (RFC 9000 §16).
///
/// Guaranteed by construction to hold a value `<= 2^62 - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VarInt(u64);

impl VarInt {
    /// The largest representable varint.
    pub const MAX: VarInt = VarInt(MAX_VARINT);
    /// Zero.
    pub const ZERO: VarInt = VarInt(0);

    /// Creates a varint, returning an error if `v` exceeds `2^62 - 1`.
    pub fn new(v: u64) -> WireResult<VarInt> {
        if v > MAX_VARINT {
            Err(WireError::ValueTooLarge { what: "varint" })
        } else {
            Ok(VarInt(v))
        }
    }

    /// Returns the contained value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Number of bytes this value occupies on the wire (1, 2, 4 or 8).
    pub const fn size(self) -> usize {
        let v = self.0;
        if v < (1 << 6) {
            1
        } else if v < (1 << 14) {
            2
        } else if v < (1 << 30) {
            4
        } else {
            8
        }
    }

    /// Encodes `self` onto `w`.
    pub fn encode(self, w: &mut Writer) {
        let v = self.0;
        match self.size() {
            1 => w.put_u8(v as u8),
            2 => w.put_u16(0b01 << 14 | v as u16),
            4 => w.put_u32(0b10 << 30 | v as u32),
            8 => w.put_u64(0b11 << 62 | v),
            _ => unreachable!(),
        }
    }

    /// Decodes a varint from `r`.
    pub fn decode(r: &mut Reader<'_>) -> WireResult<VarInt> {
        let first = r.get_u8()?;
        let tag = first >> 6;
        let rest = (first & 0b0011_1111) as u64;
        let v = match tag {
            0b00 => rest,
            0b01 => rest << 8 | r.get_u8()? as u64,
            0b10 => {
                let mut v = rest;
                for _ in 0..3 {
                    v = v << 8 | r.get_u8()? as u64;
                }
                v
            }
            0b11 => {
                let mut v = rest;
                for _ in 0..7 {
                    v = v << 8 | r.get_u8()? as u64;
                }
                v
            }
            _ => unreachable!(),
        };
        Ok(VarInt(v))
    }
}

impl fmt::Display for VarInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl From<u8> for VarInt {
    fn from(v: u8) -> Self {
        VarInt(v as u64)
    }
}

impl From<u16> for VarInt {
    fn from(v: u16) -> Self {
        VarInt(v as u64)
    }
}

impl From<u32> for VarInt {
    fn from(v: u32) -> Self {
        VarInt(v as u64)
    }
}

impl TryFrom<u64> for VarInt {
    type Error = WireError;
    fn try_from(v: u64) -> WireResult<VarInt> {
        VarInt::new(v)
    }
}

impl TryFrom<usize> for VarInt {
    type Error = WireError;
    fn try_from(v: usize) -> WireResult<VarInt> {
        VarInt::new(v as u64)
    }
}

impl From<VarInt> for u64 {
    fn from(v: VarInt) -> u64 {
        v.0
    }
}

/// Wire length of `v` as a varint (1, 2, 4 or 8 bytes). Lets encoders
/// size packets arithmetically instead of encoding twice.
pub fn varint_len(v: u64) -> usize {
    VarInt::try_from(v).expect("varint fits").size()
}

/// Encodes `v` as a varint onto `w`, panicking if out of range.
///
/// Convenience for call sites where the value is structurally bounded
/// (lengths of buffers we just built, enum discriminants, ...).
pub fn put_varint(w: &mut Writer, v: u64) {
    VarInt::new(v).expect("varint out of range").encode(w);
}

/// Decodes a varint from `r` and returns its raw value.
pub fn get_varint(r: &mut Reader<'_>) -> WireResult<u64> {
    Ok(VarInt::decode(r)?.value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(v: u64) -> u64 {
        let vi = VarInt::new(v).unwrap();
        let mut w = Writer::new();
        vi.encode(&mut w);
        assert_eq!(w.as_slice().len(), vi.size());
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        let out = VarInt::decode(&mut r).unwrap();
        assert!(r.is_empty());
        out.value()
    }

    #[test]
    fn rfc9000_appendix_a_examples() {
        // Examples from RFC 9000 Appendix A.1.
        let cases: &[(&[u8], u64)] = &[
            (
                &[0xc2, 0x19, 0x7c, 0x5e, 0xff, 0x14, 0xe8, 0x8c],
                151_288_809_941_952_652,
            ),
            (&[0x9d, 0x7f, 0x3e, 0x7d], 494_878_333),
            (&[0x7b, 0xbd], 15_293),
            (&[0x25], 37),
        ];
        for (bytes, want) in cases {
            let mut r = Reader::new(bytes);
            assert_eq!(VarInt::decode(&mut r).unwrap().value(), *want);
            let mut w = Writer::new();
            VarInt::new(*want).unwrap().encode(&mut w);
            assert_eq!(w.as_slice(), *bytes);
        }
    }

    #[test]
    fn boundaries() {
        for v in [
            0,
            63,
            64,
            16_383,
            16_384,
            1_073_741_823,
            1_073_741_824,
            MAX_VARINT,
        ] {
            assert_eq!(roundtrip(v), v);
        }
    }

    #[test]
    fn sizes() {
        assert_eq!(VarInt::new(0).unwrap().size(), 1);
        assert_eq!(VarInt::new(63).unwrap().size(), 1);
        assert_eq!(VarInt::new(64).unwrap().size(), 2);
        assert_eq!(VarInt::new(16_383).unwrap().size(), 2);
        assert_eq!(VarInt::new(16_384).unwrap().size(), 4);
        assert_eq!(VarInt::new(1_073_741_823).unwrap().size(), 4);
        assert_eq!(VarInt::new(1_073_741_824).unwrap().size(), 8);
        assert_eq!(VarInt::MAX.size(), 8);
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(VarInt::new(MAX_VARINT + 1).is_err());
        assert!(VarInt::new(u64::MAX).is_err());
    }

    #[test]
    fn decode_truncated_fails() {
        // 4-byte length prefix with only 2 bytes present.
        let buf = [0x9d, 0x7f];
        let mut r = Reader::new(&buf);
        assert!(matches!(
            VarInt::decode(&mut r),
            Err(WireError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn conversions() {
        assert_eq!(VarInt::from(7u8).value(), 7);
        assert_eq!(VarInt::from(700u16).value(), 700);
        assert_eq!(VarInt::from(70_000u32).value(), 70_000);
        assert!(VarInt::try_from(u64::MAX).is_err());
        assert_eq!(u64::from(VarInt::new(9).unwrap()), 9);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(v in 0u64..=MAX_VARINT) {
            prop_assert_eq!(roundtrip(v), v);
        }

        #[test]
        fn prop_varint_len_matches_encoding(v in 0u64..=MAX_VARINT) {
            // The arithmetic size used by packet accounting must agree
            // with the bytes actually produced.
            let mut w = Writer::new();
            put_varint(&mut w, v);
            prop_assert_eq!(varint_len(v), w.len());
        }

        #[test]
        fn prop_encoding_is_minimal_ordering(a in 0u64..=MAX_VARINT, b in 0u64..=MAX_VARINT) {
            // Encoded size is monotone in the value.
            let (sa, sb) = (VarInt::new(a).unwrap().size(), VarInt::new(b).unwrap().size());
            if a <= b {
                prop_assert!(sa <= sb);
            }
        }
    }
}
