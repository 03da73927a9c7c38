//! XDR (RFC 4506) primitives, the serialization layer under XTC.
//!
//! XDR encodes everything big-endian in 4-byte units; opaque byte strings
//! are zero-padded to a multiple of four. Only the subset XTC needs is
//! implemented: `int`, `unsigned int`, `float`, float vectors, and counted
//! opaque data.

use crate::FormatError;

/// Append-only XDR encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct XdrEncoder {
    buf: Vec<u8>,
}

impl XdrEncoder {
    /// New empty encoder.
    pub fn new() -> XdrEncoder {
        XdrEncoder::default()
    }

    /// Finish, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a 32-bit signed integer.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write a 32-bit unsigned integer.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write an IEEE-754 single float.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write a float vector (fixed length; the count is *not* written,
    /// matching xdr_vector semantics).
    pub fn put_f32_vector(&mut self, v: &[f32]) {
        self.buf.reserve(v.len() * 4);
        for &x in v {
            self.put_f32(x);
        }
    }

    /// Write counted opaque data: a u32 length followed by the bytes padded
    /// with zeros to a multiple of 4 (xdr_opaque writes only the bytes; XTC
    /// writes the length separately, so this helper takes a flag).
    pub fn put_opaque(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
        let pad = (4 - data.len() % 4) % 4;
        self.buf.extend(std::iter::repeat_n(0u8, pad));
    }
}

/// Cursor-based XDR decoder over a byte slice.
#[derive(Debug)]
pub struct XdrDecoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> XdrDecoder<'a> {
    /// Decoder at the start of `data`.
    pub fn new(data: &'a [u8]) -> XdrDecoder<'a> {
        XdrDecoder { data, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when the cursor is at the end of the input.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.data.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        if self.remaining() < n {
            return Err(FormatError::UnexpectedEof);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a 32-bit signed integer.
    pub fn get_i32(&mut self) -> Result<i32, FormatError> {
        let b = self.take(4)?;
        Ok(i32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a 32-bit unsigned integer.
    pub fn get_u32(&mut self) -> Result<u32, FormatError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read an IEEE-754 single float.
    pub fn get_f32(&mut self) -> Result<f32, FormatError> {
        let b = self.take(4)?;
        Ok(f32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read `len` opaque bytes plus padding to a 4-byte boundary.
    pub fn get_opaque(&mut self, len: usize) -> Result<&'a [u8], FormatError> {
        let padded = len + (4 - len % 4) % 4;
        let s = self.take(padded)?;
        Ok(&s[..len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn int_roundtrip_endianness() {
        let mut e = XdrEncoder::new();
        e.put_i32(-2);
        e.put_u32(0xDEADBEEF);
        let bytes = e.into_bytes();
        assert_eq!(bytes[..4], [0xFF, 0xFF, 0xFF, 0xFE]);
        assert_eq!(bytes[4..], [0xDE, 0xAD, 0xBE, 0xEF]);
        let mut d = XdrDecoder::new(&bytes);
        assert_eq!(d.get_i32().unwrap(), -2);
        assert_eq!(d.get_u32().unwrap(), 0xDEADBEEF);
        assert!(d.is_at_end());
    }

    #[test]
    fn float_roundtrip() {
        let mut e = XdrEncoder::new();
        e.put_f32(3.5);
        e.put_f32(-0.0);
        e.put_f32(f32::INFINITY);
        let bytes = e.into_bytes();
        let mut d = XdrDecoder::new(&bytes);
        assert_eq!(d.get_f32().unwrap(), 3.5);
        assert_eq!(d.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(d.get_f32().unwrap(), f32::INFINITY);
    }

    #[test]
    fn opaque_padding() {
        for len in 0..9usize {
            let data: Vec<u8> = (0..len as u8).collect();
            let mut e = XdrEncoder::new();
            e.put_opaque(&data);
            let bytes = e.into_bytes();
            assert_eq!(bytes.len() % 4, 0, "len {} not padded", len);
            let mut d = XdrDecoder::new(&bytes);
            assert_eq!(d.get_opaque(len).unwrap(), &data[..]);
            assert!(d.is_at_end());
        }
    }

    #[test]
    fn eof_detection() {
        let mut d = XdrDecoder::new(&[0, 0]);
        assert!(matches!(d.get_i32(), Err(FormatError::UnexpectedEof)));
        let mut d2 = XdrDecoder::new(&[0, 0, 0, 1]);
        assert!(matches!(d2.get_opaque(5), Err(FormatError::UnexpectedEof)));
    }

    proptest! {
        #[test]
        fn prop_i32_roundtrip(v: i32) {
            let mut e = XdrEncoder::new();
            e.put_i32(v);
            let b = e.into_bytes();
            prop_assert_eq!(XdrDecoder::new(&b).get_i32().unwrap(), v);
        }

        #[test]
        fn prop_f32_bits_roundtrip(bits: u32) {
            let v = f32::from_bits(bits);
            let mut e = XdrEncoder::new();
            e.put_f32(v);
            let b = e.into_bytes();
            prop_assert_eq!(XdrDecoder::new(&b).get_f32().unwrap().to_bits(), bits);
        }

        #[test]
        fn prop_opaque_roundtrip(data in prop::collection::vec(any::<u8>(), 0..64)) {
            let mut e = XdrEncoder::new();
            e.put_opaque(&data);
            let b = e.into_bytes();
            prop_assert_eq!(b.len() % 4, 0);
            let mut d = XdrDecoder::new(&b);
            prop_assert_eq!(d.get_opaque(data.len()).unwrap(), &data[..]);
        }

        #[test]
        fn prop_mixed_sequence(ints in prop::collection::vec(any::<i32>(), 0..16),
                               floats in prop::collection::vec(any::<u32>(), 0..16)) {
            let mut e = XdrEncoder::new();
            for &i in &ints { e.put_i32(i); }
            for &f in &floats { e.put_f32(f32::from_bits(f)); }
            let b = e.into_bytes();
            let mut d = XdrDecoder::new(&b);
            for &i in &ints { prop_assert_eq!(d.get_i32().unwrap(), i); }
            for &f in &floats { prop_assert_eq!(d.get_f32().unwrap().to_bits(), f); }
            prop_assert!(d.is_at_end());
        }
    }
}
