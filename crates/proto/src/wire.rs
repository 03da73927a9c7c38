//! Fixed-width little-endian primitives the protocol payloads are built
//! from, plus the typed decode error.
//!
//! Strings and byte blobs are `u32` length-prefixed; `Option<T>` is a
//! one-byte presence tag followed by the value. Every read is
//! bounds-checked and returns a structured [`ProtoError`] — a malformed
//! peer can never panic the decoder.

use ada_core::AdaError;
use ada_mdformats::FormatError;

/// The `dropping` an [`AdaError::Xtcf`] names when a query answer's frames
/// fail their check on the receiving side.
pub(crate) const PAYLOAD: &str = "query response payload";

/// Everything that can go wrong between two protocol endpoints below the
/// request layer: framing violations, payload corruption, and transport
/// failures. Surfaces to callers as [`AdaError::Network`], except a query
/// answer whose frames fail their check ([`ProtoError::Payload`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The input ended before a complete field/frame was read.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The frame did not start with `"ADAP"`.
    BadMagic {
        /// The four bytes actually read.
        got: [u8; 4],
    },
    /// The peer speaks a protocol version this build does not.
    BadVersion {
        /// The version byte actually read.
        got: u8,
    },
    /// The payload checksum did not match the header's declaration.
    BadCrc {
        /// CRC-32 declared in the frame header.
        declared: u32,
        /// CRC-32 computed over the received payload.
        computed: u32,
    },
    /// The header declared a payload larger than the receiver's limit;
    /// rejected before any allocation, so a hostile length cannot balloon
    /// memory.
    Oversized {
        /// Declared payload length.
        declared: u32,
        /// The receiver's configured maximum.
        max: u32,
    },
    /// A well-framed payload failed structural decoding (unknown
    /// discriminant, invalid UTF-8, trailing garbage).
    Malformed(String),
    /// A query answer's frames failed their check as they arrived: a
    /// chunk's CRC or a record's atom count (naming the chunk), or a
    /// one-frame answer's container that does not parse. Surfaces as the
    /// [`AdaError::Xtcf`] a corrupt stored dropping raises.
    Payload(FormatError),
    /// The underlying socket failed (connect/read/write error, timeout,
    /// peer hangup mid-frame).
    Io(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated { needed, got } => {
                write!(f, "truncated: needed {} bytes, got {}", needed, got)
            }
            ProtoError::BadMagic { got } => write!(f, "bad frame magic {:02x?}", got),
            ProtoError::BadVersion { got } => write!(f, "unsupported protocol version {}", got),
            ProtoError::BadCrc { declared, computed } => write!(
                f,
                "payload crc mismatch: header declares {:#010x}, computed {:#010x}",
                declared, computed
            ),
            ProtoError::Oversized { declared, max } => write!(
                f,
                "declared payload length {} exceeds the {} byte limit",
                declared, max
            ),
            ProtoError::Malformed(m) => write!(f, "malformed payload: {}", m),
            ProtoError::Payload(e) => write!(f, "{}: {}", PAYLOAD, e),
            ProtoError::Io(m) => write!(f, "io: {}", m),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<ProtoError> for AdaError {
    fn from(e: ProtoError) -> AdaError {
        match e {
            ProtoError::Payload(source) => AdaError::Xtcf {
                dropping: PAYLOAD.to_string(),
                source,
            },
            e => AdaError::Network {
                detail: e.to_string(),
            },
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> ProtoError {
        ProtoError::Io(e.to_string())
    }
}

/// Append-only payload encoder.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// An empty writer with room for `capacity` bytes, for payloads whose
    /// size is known before encoding.
    pub fn with_capacity(capacity: usize) -> WireWriter {
        WireWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u128` (trace ids, simulated nanoseconds).
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f32` as its IEEE-754 bits.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a length-prefixed byte blob (`u32` length, saturating at
    /// `u32::MAX` is unreachable because frames are length-limited far
    /// below it).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len().min(u32::MAX as usize) as u32);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Append an optional string as presence byte + value.
    pub fn put_opt_str(&mut self, v: Option<&str>) {
        match v {
            None => self.put_u8(0),
            Some(s) => {
                self.put_u8(1);
                self.put_str(s);
            }
        }
    }
}

/// Bounds-checked payload decoder over a received byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Decode from `data`, starting at offset 0.
    pub fn new(data: &'a [u8]) -> WireReader<'a> {
        WireReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fail unless every byte was consumed — catches frames with trailing
    /// garbage that a lenient decoder would silently accept.
    pub fn expect_end(&self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            return Err(ProtoError::Malformed(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated {
                needed: n,
                got: self.remaining(),
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, ProtoError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, ProtoError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Read a little-endian `u128`.
    pub fn get_u128(&mut self) -> Result<u128, ProtoError> {
        let s = self.take(16)?;
        let mut b = [0u8; 16];
        b.copy_from_slice(s);
        Ok(u128::from_le_bytes(b))
    }

    /// Read a little-endian `i32`.
    pub fn get_i32(&mut self) -> Result<i32, ProtoError> {
        let s = self.take(4)?;
        Ok(i32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read an `f32` from its IEEE-754 bits.
    pub fn get_f32(&mut self) -> Result<f32, ProtoError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Read a length-prefixed byte blob.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, ProtoError> {
        Ok(self.get_blob()?.to_vec())
    }

    /// Read a length-prefixed byte blob in place.
    pub fn get_blob(&mut self) -> Result<&'a [u8], ProtoError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, ProtoError> {
        let len = self.get_u32()? as usize;
        let s = self.take(len)?;
        String::from_utf8(s.to_vec())
            .map_err(|_| ProtoError::Malformed("string field is not UTF-8".to_string()))
    }

    /// Read an optional string written by [`WireWriter::put_opt_str`].
    pub fn get_opt_str(&mut self) -> Result<Option<String>, ProtoError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_str()?)),
            other => Err(ProtoError::Malformed(format!(
                "invalid Option tag {}",
                other
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_core::ErrorKind;

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_u128(1 << 90);
        w.put_i32(-42);
        w.put_f32(3.5);
        w.put_str("hello");
        w.put_bytes(&[1, 2, 3]);
        w.put_opt_str(None);
        w.put_opt_str(Some("tag"));
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_u128().unwrap(), 1 << 90);
        assert_eq!(r.get_i32().unwrap(), -42);
        assert_eq!(r.get_f32().unwrap(), 3.5);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_opt_str().unwrap(), None);
        assert_eq!(r.get_opt_str().unwrap(), Some("tag".to_string()));
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut r = WireReader::new(&[1, 2]);
        match r.get_u32() {
            Err(ProtoError::Truncated { needed: 4, got: 2 }) => {}
            other => panic!("expected Truncated, got {:?}", other),
        }
    }

    #[test]
    fn string_length_beyond_buffer_is_typed() {
        let mut w = WireWriter::new();
        w.put_u32(1_000_000); // declared string length with no body
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.get_str(), Err(ProtoError::Truncated { .. })));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let r = WireReader::new(&[0xff]);
        assert!(matches!(r.expect_end(), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn proto_error_maps_to_network_kind() {
        let e: AdaError = ProtoError::BadVersion { got: 9 }.into();
        assert_eq!(e.error_kind(), ErrorKind::Network);
        // ... all but frames that failed their check, which are what a
        // corrupt stored dropping is.
        let e: AdaError = ProtoError::Payload(FormatError::ChunkCorrupt {
            chunk: 2,
            detail: "checksum mismatch".to_string(),
        })
        .into();
        assert_eq!(e.error_kind(), ErrorKind::Corrupt);
        assert_eq!(
            e.to_string(),
            "corrupt dropping 'query response payload': corrupt chunk 2: checksum mismatch"
        );
    }
}
