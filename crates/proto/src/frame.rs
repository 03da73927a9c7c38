//! Length-prefixed frame envelope: magic, version, declared length, and
//! a CRC-32 (the XTCF v2 checksum, [`ada_mdformats::xtcf::crc32`]).
//!
//! Two kinds of frame share the 13-byte header. A **message frame**
//! (`"ADAP"`: every request, and every response but the chunks of a
//! streamed answer) carries the CRC of its payload, computed by the
//! sender and checked by [`read_frame`] before the payload reaches the
//! structural decoder — a flipped bit fails fast with a typed error
//! instead of a confusing decode failure deeper in. A **chunk frame**
//! (`"ADAC"`: one XTCF chunk of a streamed answer, [`crate::stream`])
//! carries the chunk's own CRC-32, the one sealed into the dropping's
//! directory at ingest: the sender supplies it, the frame reader hands it
//! on unchecked, and the stream reader checks it as it decodes the chunk
//! (`xtcf::ChunkRecords::check`) — once per hop instead of once per layer.
//!
//! The framing is deliberately paranoid in the receive direction: the
//! declared length is validated against the receiver's limit *before*
//! any allocation, for both kinds.

use std::io::{IoSlice, Read, Write};

use ada_mdformats::xtcf::crc32;

use crate::wire::ProtoError;

/// Message-frame magic: requests and every response that is not a chunk.
pub const MAGIC: [u8; 4] = *b"ADAP";

/// Chunk-frame magic: one XTCF chunk body of a streamed answer.
pub const CHUNK_MAGIC: [u8; 4] = *b"ADAC";

/// Protocol version this build speaks.
pub const VERSION: u8 = 9;

/// Encoded header size: magic(4) + version(1) + length(4) + crc(4).
pub const HEADER_LEN: usize = 13;

/// Default receive-side limit on a frame's payload (64 MiB) — far above
/// any request or chunk the test workloads ship, far below a hostile
/// 4 GiB declaration. It bounds a frame, not an answer: a streamed answer
/// is as many chunk frames as it needs.
pub const DEFAULT_MAX_FRAME: u32 = 64 << 20;

/// Which of the two frame kinds a header announced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameKind {
    /// `"ADAP"`: the CRC covers the payload and is checked on read.
    Message,
    /// `"ADAC"`: the CRC is the chunk's own, checked by its consumer.
    Chunk,
}

/// A validated frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameHeader {
    pub(crate) kind: FrameKind,
    /// Payload length in bytes.
    pub(crate) len: u32,
    /// The CRC-32 the sender declared for the payload.
    pub(crate) crc: u32,
}

/// Render a header.
fn header_bytes(magic: [u8; 4], len: usize, crc: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&magic);
    h[4] = VERSION;
    h[5..9].copy_from_slice(&(len as u32).to_le_bytes());
    h[9..13].copy_from_slice(&crc.to_le_bytes());
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

/// Header + payload of a message frame as one buffer, for callers that
/// need the frame's bytes in hand (fault injection, the bench ladder);
/// the socket path is [`write_frame`], which does not build this copy.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, ProtoError> {
    check_len(payload)?;
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&header_bytes(MAGIC, payload.len(), crc32(payload)));
    out.extend_from_slice(payload);
    Ok(out)
}

/// Validate magic, version, and declared length (against `max_len`,
/// *before* the caller allocates the payload buffer).
fn parse_header(bytes: &[u8; HEADER_LEN], max_len: u32) -> Result<FrameHeader, ProtoError> {
    let got = [bytes[0], bytes[1], bytes[2], bytes[3]];
    let kind = match got {
        MAGIC => FrameKind::Message,
        CHUNK_MAGIC => FrameKind::Chunk,
        _ => return Err(ProtoError::BadMagic { got }),
    };
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
    Ok(FrameHeader { kind, len, crc })
}

/// Header then payload, gathered into one vectored write so no
/// concatenated copy of the payload is built. Two plain `write_all`s
/// would put a small frame (a ping, a request) on the wire as two
/// segments. Each stream has one writing thread, so a short write resumed
/// here cannot interleave with another frame.
fn write_gathered(
    w: &mut impl Write,
    header: [u8; HEADER_LEN],
    payload: &[u8],
) -> Result<(), ProtoError> {
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

/// Write one message frame to `w` (blocking), checksumming `payload`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    check_len(payload)?;
    write_gathered(
        w,
        header_bytes(MAGIC, payload.len(), crc32(payload)),
        payload,
    )
}

/// Write one chunk frame to `w` (blocking): `body` is a chunk's frame
/// records and `crc` the CRC-32 its directory already holds. Nothing is
/// recomputed and nothing copied — one vectored write of the header and
/// the caller's bytes.
pub fn write_chunk_frame(w: &mut impl Write, body: &[u8], crc: u32) -> Result<(), ProtoError> {
    check_len(body)?;
    write_gathered(w, header_bytes(CHUNK_MAGIC, body.len(), crc), body)
}

/// Read and validate the next frame's header. `Ok(None)` means the peer
/// closed cleanly at a frame boundary; EOF inside the header is a typed
/// [`ProtoError::Truncated`].
pub(crate) fn read_header(
    r: &mut impl Read,
    max_len: u32,
) -> Result<Option<FrameHeader>, ProtoError> {
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
    parse_header(&header, max_len).map(Some)
}

/// Append the `len` payload bytes of the frame whose header was just read
/// to `into`, straight into its spare capacity: nothing is zero-filled
/// first and there is no intermediate buffer. `len` has passed the
/// header's limit check.
pub(crate) fn read_body(r: &mut impl Read, len: u32, into: &mut Vec<u8>) -> Result<(), ProtoError> {
    let got = r.by_ref().take(u64::from(len)).read_to_end(into)?;
    if got < len as usize {
        return Err(ProtoError::Truncated {
            needed: len as usize,
            got,
        });
    }
    Ok(())
}

/// The payload of the message frame `header` announced, checked against
/// the header's CRC declaration.
pub(crate) fn read_message(r: &mut impl Read, header: &FrameHeader) -> Result<Vec<u8>, ProtoError> {
    let mut payload = Vec::with_capacity(header.len as usize);
    read_body(r, header.len, &mut payload)?;
    let computed = crc32(&payload);
    if computed != header.crc {
        return Err(ProtoError::BadCrc {
            declared: header.crc,
            computed,
        });
    }
    Ok(payload)
}

/// Read one message frame from `r` (blocking), returning the verified
/// payload. `Ok(None)` means the peer closed cleanly at a frame boundary;
/// EOF mid-frame is a typed [`ProtoError::Truncated`]. A chunk frame here
/// is out of place — chunks exist only inside a streamed answer
/// ([`crate::read_response`]) — and is refused by its magic.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Option<Vec<u8>>, ProtoError> {
    let Some(header) = read_header(r, max_len)? else {
        return Ok(None);
    };
    match header.kind {
        FrameKind::Message => read_message(r, &header).map(Some),
        FrameKind::Chunk => Err(ProtoError::BadMagic { got: CHUNK_MAGIC }),
    }
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
    fn chunk_frame_carries_the_callers_crc_and_resumes_short_writes() {
        for len in [0usize, 1, 1000] {
            let body = vec![0xa5; len];
            // Not the body's checksum: the writer must not recompute it.
            let crc = 0xdead_beef;
            let mut out = Vec::new();
            write_chunk_frame(&mut out, &body, crc).unwrap();
            let mut short = ShortWriter(Vec::new());
            write_chunk_frame(&mut short, &body, crc).unwrap();
            assert_eq!(short.0, out, "short writes must resume, len {}", len);

            let mut cursor = std::io::Cursor::new(&out);
            let header = read_header(&mut cursor, DEFAULT_MAX_FRAME)
                .unwrap()
                .unwrap();
            assert_eq!(
                header,
                FrameHeader {
                    kind: FrameKind::Chunk,
                    len: len as u32,
                    crc
                }
            );
            let mut back = vec![7u8]; // appended to, not overwritten
            read_body(&mut cursor, header.len, &mut back).unwrap();
            assert_eq!(back[1..], body[..]);
            // Outside a stream a chunk frame is out of place.
            assert!(matches!(
                read_frame(&mut std::io::Cursor::new(&out), DEFAULT_MAX_FRAME),
                Err(ProtoError::BadMagic { got: CHUNK_MAGIC })
            ));
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
        // A newer peer's; version 8's, whose error kinds named layers (`fs`
        // … `dataset_exists`, 0–14) and whose kind bytes this build would
        // read as other conditions — its byte 0, `fs`, as `no_space`;
        // version 7's, whose stream head carried a chunk
        // size and whose trailer and one-frame query answer carried two
        // simulated durations this build would misread; version 6's, which
        // had no `dataset_exists` kind and would read byte 14 as unknown;
        // version 5's, whose ingest report carried five simulated
        // durations; version 4's, whose error body mapped every variant
        // field by field; version 3's, whose query answer was one frame;
        // version 2's, whose `Ingest` carried a fourth field this build
        // would misread.
        for version in [VERSION + 1, 8, 7, 6, 5, 4, 3, 2] {
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
        // Full header, a third of the payload.
        let mut cursor = std::io::Cursor::new(frame[..HEADER_LEN + 4].to_vec());
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME),
            Err(ProtoError::Truncated { needed: 12, got: 4 })
        ));
    }
}
