//! Length-prefixed frame envelope: magic, version, declared length, and
//! a payload CRC (the XTCF v2 checksum, [`ada_mdformats::xtcf::crc32`]).
//!
//! The framing is deliberately paranoid in the receive direction: the
//! declared length is validated against the receiver's limit *before*
//! any allocation, and the CRC is checked before the payload reaches the
//! structural decoder — a flipped bit fails fast with a typed error
//! instead of a confusing decode failure deeper in.

use std::io::{IoSlice, Read, Write};

use ada_mdformats::xtcf::crc32;

use crate::wire::ProtoError;

/// Frame magic: every frame starts with these four bytes.
pub const MAGIC: [u8; 4] = *b"ADAP";

/// Protocol version this build speaks.
pub const VERSION: u8 = 3;

/// Encoded header size: magic(4) + version(1) + length(4) + crc(4).
pub const HEADER_LEN: usize = 13;

/// Default receive-side payload limit (64 MiB) — comfortably above the
/// largest trajectory the test workloads ship, far below a hostile
/// 4 GiB declaration.
pub const DEFAULT_MAX_FRAME: u32 = 64 << 20;

/// A validated frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameHeader {
    /// Payload length in bytes.
    len: u32,
    /// IEEE CRC-32 the payload must hash to.
    crc: u32,
}

/// Render the header for `payload`.
fn header_bytes(payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC);
    h[4] = VERSION;
    h[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    h[9..13].copy_from_slice(&crc32(payload).to_le_bytes());
    h
}

/// The header's length field is a `u32`; a longer payload cannot be
/// framed.
fn check_len(payload: &[u8]) -> Result<(), ProtoError> {
    if payload.len() > u32::MAX as usize {
        return Err(ProtoError::Oversized {
            declared: u32::MAX,
            max: u32::MAX,
        });
    }
    Ok(())
}

/// Header + payload as one buffer, for callers that need the frame's
/// bytes in hand (fault injection, the bench ladder); the socket path is
/// [`write_frame`], which does not build this copy.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, ProtoError> {
    check_len(payload)?;
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&header_bytes(payload));
    out.extend_from_slice(payload);
    Ok(out)
}

/// Validate magic, version, and declared length (against `max_len`,
/// *before* the caller allocates the payload buffer).
fn parse_header(bytes: &[u8; HEADER_LEN], max_len: u32) -> Result<FrameHeader, ProtoError> {
    let got = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if got != MAGIC {
        return Err(ProtoError::BadMagic { got });
    }
    if bytes[4] != VERSION {
        return Err(ProtoError::BadVersion { got: bytes[4] });
    }
    let len = u32::from_le_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]);
    if len > max_len {
        return Err(ProtoError::Oversized {
            declared: len,
            max: max_len,
        });
    }
    let crc = u32::from_le_bytes([bytes[9], bytes[10], bytes[11], bytes[12]]);
    Ok(FrameHeader { len, crc })
}

/// Check the received payload against the header's CRC declaration.
fn verify_payload(header: &FrameHeader, payload: &[u8]) -> Result<(), ProtoError> {
    let computed = crc32(payload);
    if computed != header.crc {
        return Err(ProtoError::BadCrc {
            declared: header.crc,
            computed,
        });
    }
    Ok(())
}

/// Write one frame to `w` (blocking): header then payload, gathered into
/// one vectored write so no concatenated copy of the payload is built.
/// Two plain `write_all`s would do for a multi-megabyte answer, but on a
/// small frame (a ping, a request) the second write would sit behind
/// Nagle until the peer's delayed ACK of the first. Each stream has one
/// writing thread, so a short write resumed here cannot interleave with
/// another frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    check_len(payload)?;
    let header = header_bytes(payload);
    let mut bufs = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut left = &mut bufs[..];
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => return Err(ProtoError::Io("write returned zero bytes".to_string())),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Read one frame from `r` (blocking), returning the verified payload.
/// `Ok(None)` means the peer closed cleanly at a frame boundary; EOF
/// mid-frame is a typed [`ProtoError::Truncated`].
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean EOF between frames
            }
            return Err(ProtoError::Truncated {
                needed: HEADER_LEN,
                got: filled,
            });
        }
        filled += n;
    }
    let h = parse_header(&header, max_len)?;
    let mut payload = vec![0u8; h.len as usize];
    let mut filled = 0usize;
    while filled < payload.len() {
        let n = r.read(&mut payload[filled..])?;
        if n == 0 {
            return Err(ProtoError::Truncated {
                needed: payload.len(),
                got: filled,
            });
        }
        filled += n;
    }
    verify_payload(&h, &payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_through_a_cursor() {
        let payload = b"the quick brown fox".to_vec();
        let frame = encode_frame(&payload).unwrap();
        let mut cursor = std::io::Cursor::new(frame);
        let back = read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back, Some(payload));
        // Clean EOF after the frame.
        assert_eq!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(), None);
    }

    /// Accepts at most seven bytes per call, so every frame is resumed
    /// mid-header and mid-payload.
    struct ShortWriter(Vec<u8>);

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(7);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_emits_exactly_the_encoded_frame() {
        for len in [0usize, 1, 1000] {
            let payload = vec![0x5a; len];
            let mut out = Vec::new();
            write_frame(&mut out, &payload).unwrap();
            assert_eq!(out, encode_frame(&payload).unwrap());
            let mut short = ShortWriter(Vec::new());
            write_frame(&mut short, &payload).unwrap();
            assert_eq!(short.0, out, "short writes must resume, len {}", len);
        }
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let frame = encode_frame(&[]).unwrap();
        assert_eq!(frame.len(), HEADER_LEN);
        let mut cursor = std::io::Cursor::new(frame);
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(),
            Some(Vec::new())
        );
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut frame = encode_frame(b"x").unwrap();
        frame[0] = b'X';
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME),
            Err(ProtoError::BadMagic { .. })
        ));
    }

    #[test]
    fn bad_version_is_typed() {
        // A newer peer's, and version 2's: its `Ingest` carried a fourth
        // field this build would misread.
        for version in [VERSION + 1, 2] {
            let mut frame = encode_frame(b"x").unwrap();
            frame[4] = version;
            let mut cursor = std::io::Cursor::new(frame);
            assert!(matches!(
                read_frame(&mut cursor, DEFAULT_MAX_FRAME),
                Err(ProtoError::BadVersion { .. })
            ));
        }
    }

    #[test]
    fn flipped_crc_byte_is_typed() {
        let mut frame = encode_frame(b"payload bytes").unwrap();
        frame[9] ^= 0x40;
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME),
            Err(ProtoError::BadCrc { .. })
        ));
    }

    #[test]
    fn flipped_payload_byte_is_typed() {
        let mut frame = encode_frame(b"payload bytes").unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME),
            Err(ProtoError::BadCrc { .. })
        ));
    }

    #[test]
    fn oversized_declaration_rejected_before_allocation() {
        let mut frame = encode_frame(b"x").unwrap();
        frame[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = std::io::Cursor::new(frame);
        match read_frame(&mut cursor, 1024) {
            Err(ProtoError::Oversized { declared, max }) => {
                assert_eq!(declared, u32::MAX);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {:?}", other),
        }
    }

    #[test]
    fn truncated_header_and_payload_are_typed() {
        let frame = encode_frame(b"some payload").unwrap();
        // Half a header.
        let mut cursor = std::io::Cursor::new(frame[..6].to_vec());
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME),
            Err(ProtoError::Truncated { .. })
        ));
        // Full header, half the payload.
        let mut cursor = std::io::Cursor::new(frame[..HEADER_LEN + 4].to_vec());
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME),
            Err(ProtoError::Truncated { .. })
        ));
    }
}
