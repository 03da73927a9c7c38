//! A real-mode query answer on the wire: the stored chunks, streamed.
//!
//! ```text
//! head     message frame   id | 0x04 | natoms u32 | nframes u64 | chunk_frames u32
//! chunk*   chunk frame     the chunk's XTCF frame records, verbatim; header CRC = the chunk's own
//! trailer  message frame   id | 0x05 | indexer_ns u128 | read_ns u128
//!                       or id | 0xff | AdaError            (the ordinary error response)
//! ```
//!
//! The grammar lives here once. [`write_query_stream`] takes the head
//! fields and the chunks as `(body, crc)` pairs — the CRC the dropping's
//! directory already holds, so the sender checksums nothing — and ends the
//! stream with the first error the chunk source raises. [`write_response`]
//! sends any response the way it travels: a sealed `Query` container as the
//! stream of its own chunks, everything else as one message frame.
//! [`read_response`] hands a plain response back as it is and folds a
//! stream into the `ResponseBody::Query` callers already know, the XTCF v2
//! container assembled in place — one buffer, every chunk body read
//! straight into it, its directory written from the chunk frames' headers
//! — so `WireQueryReport::trajectory()`'s `decode_chunk` is the single
//! check of every chunk on the receiving side.

use std::io::{Read, Write};

use ada_core::AdaError;
use ada_mdformats::xtcf::{
    frame_record_len, V2Assembler, XTCF_DIR_ENTRY_LEN, XTCF_HEADER_LEN, XTCF_TRAILER_LEN,
};

use crate::errmap::{decode_error, encode_error};
use crate::frame::{
    read_body, read_frame, read_header, read_message, write_chunk_frame, write_frame, FrameKind,
    HEADER_LEN,
};
use crate::message::{
    payload_directory, ResponseBody, ResponseEnvelope, WirePayload, WireQueryReport, DISC_ERROR,
};
use crate::wire::{ProtoError, WireReader, WireWriter};

/// Response discriminants that exist only inside a stream.
const DISC_STREAM_HEAD: u8 = 4;
const DISC_STREAM_END: u8 = 5;

/// What a streamed answer announces ahead of its chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHead {
    /// The request id this answers.
    pub id: u64,
    /// Atoms per frame of every chunk that follows.
    pub natoms: u32,
    /// Frames the chunks deliver in total.
    pub nframes: u64,
    /// The nominal chunk size (frames) the chunks were sealed with.
    pub chunk_frames: u32,
}

/// What writing one response put on the wire.
#[derive(Debug, Default)]
pub struct Sent {
    /// Chunk frames written (`0` for a response that is one message frame).
    pub chunks: u64,
    /// Bytes written, frame headers included.
    pub bytes: u64,
    /// The error a stream's chunk source raised: the stream was ended
    /// with it as its trailer, after `chunks` good chunks.
    pub error: Option<AdaError>,
}

impl Sent {
    fn message(&mut self, w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
        write_frame(w, payload)?;
        self.bytes += (HEADER_LEN + payload.len()) as u64;
        Ok(())
    }

    /// End the stream (or answer the request) with `e`.
    fn fail(mut self, w: &mut impl Write, id: u64, e: AdaError) -> Result<Sent, ProtoError> {
        let mut p = WireWriter::new();
        p.put_u64(id);
        p.put_u8(DISC_ERROR);
        encode_error(&mut p, &e);
        self.message(w, &p.finish())?;
        self.error = Some(e);
        Ok(self)
    }
}

/// Write one streamed answer: the head, one chunk frame per `(body, crc)`
/// the iterator yields — `body` a chunk's frame records, `crc` the CRC-32
/// already stored for them; neither is copied or recomputed — and the
/// trailer with the report's simulated durations. The first `Err` the
/// iterator yields ends the stream with that error as its trailer
/// ([`Sent::error`]); the receiver then hands out the error and no report.
/// `Err` is a transport failure: the connection is no longer aligned.
pub fn write_query_stream<'a>(
    w: &mut impl Write,
    head: StreamHead,
    indexer_ns: u128,
    read_ns: u128,
    chunks: impl IntoIterator<Item = Result<(&'a [u8], u32), AdaError>>,
) -> Result<Sent, ProtoError> {
    let mut sent = Sent::default();
    let mut p = WireWriter::new();
    p.put_u64(head.id);
    p.put_u8(DISC_STREAM_HEAD);
    p.put_u32(head.natoms);
    p.put_u64(head.nframes);
    p.put_u32(head.chunk_frames);
    sent.message(w, &p.finish())?;
    for chunk in chunks {
        match chunk {
            Ok((body, crc)) => {
                write_chunk_frame(w, body, crc)?;
                sent.chunks += 1;
                sent.bytes += (HEADER_LEN + body.len()) as u64;
            }
            Err(e) => return sent.fail(w, head.id, e),
        }
    }
    let mut p = WireWriter::new();
    p.put_u64(head.id);
    p.put_u8(DISC_STREAM_END);
    p.put_u128(indexer_ns);
    p.put_u128(read_ns);
    sent.message(w, &p.finish())?;
    Ok(sent)
}

/// Write `resp` the way it travels. A real-mode query report is streamed
/// as the chunks of its own sealed container (CRCs from its directory), so
/// no answer is ever one frame and none has a size ceiling; every other
/// response — pong, ingest report, cache stats, a size-only answer, an
/// error — is one message frame.
pub fn write_response(w: &mut impl Write, resp: &ResponseEnvelope) -> Result<Sent, ProtoError> {
    let ResponseBody::Query(WireQueryReport {
        indexer_ns,
        read_ns,
        payload: WirePayload::Xtcf(container),
    }) = &resp.body
    else {
        let mut sent = Sent::default();
        sent.message(w, &resp.encode())?;
        return Ok(sent);
    };
    let dir = match payload_directory(container) {
        Ok(dir) => dir,
        // Not a container `from_report` sealed; say so instead of sending it.
        Err(e) => return Sent::default().fail(w, resp.id, e),
    };
    let head = StreamHead {
        id: resp.id,
        natoms: dir.entries.first().map_or(0, |e| e.natoms),
        nframes: dir.nframes() as u64,
        chunk_frames: dir.chunk_frames,
    };
    // `parse_directory` checked every span against the container.
    let chunks = dir.entries.iter().map(|e| {
        let start = e.offset as usize;
        Ok((&container[start..start + e.body_len()], e.crc))
    });
    write_query_stream(w, head, *indexer_ns, *read_ns, chunks)
}

/// The head of a stream, if `payload` is one.
fn decode_head(payload: &[u8]) -> Result<Option<StreamHead>, ProtoError> {
    if payload.get(8) != Some(&DISC_STREAM_HEAD) {
        return Ok(None);
    }
    let mut r = WireReader::new(payload);
    let id = r.get_u64()?;
    r.get_u8()?;
    let head = StreamHead {
        id,
        natoms: r.get_u32()?,
        nframes: r.get_u64()?,
        chunk_frames: r.get_u32()?,
    };
    r.expect_end()?;
    Ok(Some(head))
}

/// How the message frame that ends a stream ends it.
enum StreamEnd {
    /// Every chunk was sent; the report's simulated durations.
    Done { indexer_ns: u128, read_ns: u128 },
    /// The server ended the stream early with this error.
    Failed(AdaError),
}

/// The message frame that ends a stream: the request id it names, and how.
fn decode_end(payload: &[u8]) -> Result<(u64, StreamEnd), ProtoError> {
    let mut r = WireReader::new(payload);
    let id = r.get_u64()?;
    let end = match r.get_u8()? {
        DISC_STREAM_END => StreamEnd::Done {
            indexer_ns: r.get_u128()?,
            read_ns: r.get_u128()?,
        },
        DISC_ERROR => StreamEnd::Failed(decode_error(&mut r)?),
        other => {
            return Err(ProtoError::Malformed(format!(
                "response discriminant {} inside a chunk stream",
                other
            )))
        }
    };
    r.expect_end()?;
    Ok((id, end))
}

/// Read one response from `r` (blocking): a plain one as it is, a streamed
/// answer folded into `ResponseBody::Query` with its container assembled
/// in place. `Ok(None)` means the peer closed cleanly before a response
/// began. `max_frame_len` bounds every frame — head, each chunk, trailer —
/// and the buffer reserved up front from the head's claim; an answer
/// larger than that grows the buffer only by bytes that arrived. A stream
/// that ends short, delivers more than its head announced, carries a chunk
/// that is not a whole number of records, or breaks off is one typed error
/// and no partial report; a stream the server ended with an error trailer
/// is that error, as `ResponseBody::Error`.
pub fn read_response(
    r: &mut impl Read,
    max_frame_len: u32,
) -> Result<Option<ResponseEnvelope>, ProtoError> {
    let Some(payload) = read_frame(r, max_frame_len)? else {
        return Ok(None);
    };
    match decode_head(&payload)? {
        None => ResponseEnvelope::decode(&payload).map(Some),
        Some(head) => read_stream(r, head, max_frame_len).map(Some),
    }
}

fn read_stream(
    r: &mut impl Read,
    head: StreamHead,
    max_frame_len: u32,
) -> Result<ResponseEnvelope, ProtoError> {
    let record = frame_record_len(head.natoms as usize);
    // Checked: the head is a claim. One that no buffer could hold is
    // refused here, and one that merely exceeds the frame limit reserves
    // no more than the limit.
    let nominal_chunks = head.nframes.div_ceil(u64::from(head.chunk_frames.max(1)));
    let container_len = head
        .nframes
        .checked_mul(record as u64)
        .and_then(|body| body.checked_add(nominal_chunks.checked_mul(XTCF_DIR_ENTRY_LEN as u64)?))
        .and_then(|len| len.checked_add((XTCF_HEADER_LEN + XTCF_TRAILER_LEN) as u64))
        .and_then(|len| usize::try_from(len).ok())
        .ok_or_else(|| {
            ProtoError::Malformed(format!(
                "stream head announces {} frames of {} atoms, more than memory addresses",
                head.nframes, head.natoms
            ))
        })?;
    let capacity = container_len.min(max_frame_len as usize);
    let mut container = V2Assembler::with_capacity(capacity, head.natoms, head.chunk_frames);
    let mut frames = 0u64;
    loop {
        let header = read_header(r, max_frame_len)?.ok_or(ProtoError::Truncated {
            needed: HEADER_LEN,
            got: 0,
        })?;
        if header.kind == FrameKind::Chunk {
            let len = header.len as usize;
            if len == 0 || !len.is_multiple_of(record) {
                return Err(ProtoError::Malformed(format!(
                    "chunk of {} bytes is not a whole number of {}-byte records",
                    len, record
                )));
            }
            let nframes = (len / record) as u32;
            frames += u64::from(nframes);
            if frames > head.nframes {
                return Err(ProtoError::Malformed(format!(
                    "stream delivers more than the {} frames its head announced",
                    head.nframes
                )));
            }
            read_body(r, header.len, container.chunk(nframes, header.crc))?;
            continue;
        }
        let (id, end) = decode_end(&read_message(r, &header)?)?;
        if id != head.id {
            return Err(ProtoError::Malformed(format!(
                "stream {} ended by a trailer for request {}",
                head.id, id
            )));
        }
        let body = match end {
            StreamEnd::Failed(e) => ResponseBody::Error(e),
            StreamEnd::Done { .. } if frames != head.nframes => {
                return Err(ProtoError::Malformed(format!(
                    "stream ended after {} of the {} frames its head announced",
                    frames, head.nframes
                )))
            }
            StreamEnd::Done {
                indexer_ns,
                read_ns,
            } => ResponseBody::Query(WireQueryReport {
                indexer_ns,
                read_ns,
                payload: WirePayload::Xtcf(container.finish()),
            }),
        };
        return Ok(ResponseEnvelope { id, body });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::QUERY_CHUNK_FRAMES;
    use ada_core::{QueryReport, RetrievedData};
    use ada_mdformats::xtcf::{crc32, parse_directory, write_xtcf};
    use ada_mdformats::Trajectory;
    use ada_storagesim::SimDuration;
    use std::io::Cursor;

    const MAX: u32 = crate::DEFAULT_MAX_FRAME;

    fn traj(nframes: usize) -> Trajectory {
        let mut traj = ada_workload::gpcr_workload(120, nframes.max(1), 5).trajectory;
        traj.frames.truncate(nframes);
        if let Some(f) = traj.frames.first_mut() {
            // Values XTC quantization would not preserve.
            f.coords[0] = [f32::MIN_POSITIVE, -0.0, 1.000_000_1];
        }
        traj
    }

    fn sealed(traj: Trajectory) -> ResponseEnvelope {
        let rep = QueryReport {
            indexer: SimDuration(3),
            read: SimDuration(5),
            data: RetrievedData::Real(traj),
            profile: None,
        };
        ResponseEnvelope {
            id: 9,
            body: ResponseBody::Query(WireQueryReport::from_report(&rep).unwrap()),
        }
    }

    fn read_one(wire: &[u8]) -> Result<Option<ResponseEnvelope>, ProtoError> {
        let mut cursor = Cursor::new(wire);
        let resp = read_response(&mut cursor, MAX);
        if resp.is_ok() {
            assert_eq!(
                cursor.position(),
                wire.len() as u64,
                "response not consumed"
            );
        }
        resp
    }

    #[test]
    fn streamed_answer_round_trips_bit_identically_at_every_chunk_shape() {
        // Empty answer, one frame, exactly one chunk, one chunk plus a
        // ragged tail: the container the reader assembles is the
        // container the writer streamed, byte for byte.
        for nframes in [0, 1, QUERY_CHUNK_FRAMES, QUERY_CHUNK_FRAMES + 7] {
            let traj = traj(nframes);
            let resp = sealed(traj.clone());
            let mut wire = Vec::new();
            let sent = write_response(&mut wire, &resp).unwrap();
            assert_eq!(sent.chunks, nframes.div_ceil(QUERY_CHUNK_FRAMES) as u64);
            assert_eq!(sent.bytes, wire.len() as u64);
            assert!(sent.error.is_none());

            let back = read_one(&wire).unwrap().unwrap();
            assert_eq!(back.id, 9);
            let (ResponseBody::Query(back), ResponseBody::Query(rep)) = (back.body, resp.body)
            else {
                panic!("a streamed answer is a query report");
            };
            assert_eq!(back, rep);
            let got = back.trajectory().unwrap();
            assert_eq!(write_xtcf(&got).unwrap(), write_xtcf(&traj).unwrap());
        }
    }

    #[test]
    fn plain_responses_are_one_message_frame_either_way() {
        let resp = ResponseEnvelope {
            id: 4,
            body: ResponseBody::Pong,
        };
        let mut wire = Vec::new();
        let sent = write_response(&mut wire, &resp).unwrap();
        assert_eq!((sent.chunks, sent.bytes), (0, wire.len() as u64));
        assert_eq!(wire, crate::encode_frame(&resp.encode()).unwrap());
        assert!(matches!(
            read_one(&wire).unwrap().unwrap().body,
            ResponseBody::Pong
        ));
        assert!(read_one(&[]).unwrap().is_none(), "clean EOF");

        // The one-frame encoding of a query report is no longer sent, and
        // still read.
        let resp = sealed(traj(3));
        let wire = crate::encode_frame(&resp.encode()).unwrap();
        let ResponseBody::Query(back) = read_one(&wire).unwrap().unwrap().body else {
            panic!("expected a query report");
        };
        assert_eq!(back.trajectory().unwrap().len(), 3);
    }

    /// The chunk bodies of a sealed three-chunk answer, with their CRCs.
    fn three_chunks() -> (StreamHead, Vec<(Vec<u8>, u32)>) {
        let ResponseBody::Query(rep) = sealed(traj(2 * QUERY_CHUNK_FRAMES + 3)).body else {
            panic!("expected a query report");
        };
        let WirePayload::Xtcf(container) = rep.payload else {
            panic!("expected a container");
        };
        let dir = parse_directory(&container).unwrap().unwrap();
        let head = StreamHead {
            id: 9,
            natoms: dir.entries[0].natoms,
            nframes: dir.nframes() as u64,
            chunk_frames: dir.chunk_frames,
        };
        let record = frame_record_len(head.natoms as usize);
        let chunks = dir.entries.iter().map(|e| {
            let start = e.offset as usize;
            let body = &container[start..start + e.nframes as usize * record];
            (body.to_vec(), e.crc)
        });
        (head, chunks.collect())
    }

    type Chunks<'a> = Vec<Result<(&'a [u8], u32), AdaError>>;

    fn all_ok(chunks: &[(Vec<u8>, u32)]) -> Chunks<'_> {
        chunks.iter().map(|(b, c)| Ok((&b[..], *c))).collect()
    }

    fn stream(head: StreamHead, chunks: Chunks<'_>) -> Vec<u8> {
        let mut wire = Vec::new();
        write_query_stream(&mut wire, head, 3, 5, chunks).unwrap();
        wire
    }

    fn malformed(wire: &[u8], needle: &str) {
        match read_one(wire) {
            Err(ProtoError::Malformed(m)) => assert!(m.contains(needle), "{}", m),
            other => panic!("expected Malformed({}), got {:?}", needle, other),
        }
    }

    #[test]
    fn broken_streams_are_one_typed_error_and_no_report() {
        let (head, chunks) = three_chunks();
        let good = stream(head, all_ok(&chunks));
        assert!(matches!(
            read_one(&good).unwrap().unwrap().body,
            ResponseBody::Query(_)
        ));

        // Ends short: a trailer after two of three chunks; EOF after the
        // same two; EOF inside the third.
        malformed(&stream(head, all_ok(&chunks[..2])), "ended after");
        let trailer_len = HEADER_LEN + 8 + 1 + 32;
        let two = good.len() - trailer_len - HEADER_LEN - chunks[2].0.len();
        for cut in [two, good.len() - trailer_len - 10] {
            assert!(matches!(
                read_one(&good[..cut]),
                Err(ProtoError::Truncated { .. })
            ));
        }

        // Overruns the head: three chunks where two were announced.
        let short_head = StreamHead {
            nframes: 2 * QUERY_CHUNK_FRAMES as u64,
            ..head
        };
        malformed(&stream(short_head, all_ok(&chunks)), "more than");

        // A chunk of one and a half records, and an empty one.
        let record = frame_record_len(head.natoms as usize);
        let ragged = &chunks[0].0[..record + record / 2];
        malformed(&stream(head, vec![Ok((ragged, 0))]), "whole number");
        malformed(&stream(head, vec![Ok((&[], 0))]), "whole number");

        // A head announcing more than can exist is refused as read; one
        // that is merely huge reserves no more than the frame limit, and
        // then comes up short.
        for nframes in [u64::MAX, u64::MAX / (record as u64 * 2)] {
            let claim = StreamHead { nframes, ..head };
            let wire = stream(claim, Vec::new());
            let mut cursor = Cursor::new(&wire[..]);
            match read_response(&mut cursor, 1 << 16) {
                Err(ProtoError::Malformed(_)) => {}
                other => panic!("expected Malformed, got {:?}", other),
            }
        }

        // A trailer for another request.
        let mut other_id = Vec::new();
        write_query_stream(&mut other_id, StreamHead { nframes: 0, ..head }, 0, 0, []).unwrap();
        let end = other_id.len() - trailer_len;
        let mut trailer = WireWriter::new();
        trailer.put_u64(head.id + 1);
        trailer.put_u8(DISC_STREAM_END);
        trailer.put_u128(0);
        trailer.put_u128(0);
        other_id.truncate(end);
        write_frame(&mut other_id, &trailer.finish()).unwrap();
        malformed(&other_id, "trailer for request");

        // A chunk frame with no stream around it.
        let mut stray = Vec::new();
        write_chunk_frame(&mut stray, &chunks[0].0, chunks[0].1).unwrap();
        assert!(matches!(read_one(&stray), Err(ProtoError::BadMagic { .. })));
    }

    #[test]
    fn error_trailer_is_the_answer_and_the_chunks_before_it_are_dropped() {
        let (head, chunks) = three_chunks();
        let mut two_then_err = all_ok(&chunks[..2]);
        two_then_err.push(Err(AdaError::UnknownDataset("gone".into())));
        let wire = stream(head, two_then_err);
        let resp = read_one(&wire).unwrap().unwrap();
        assert_eq!(resp.id, head.id);
        match resp.body {
            ResponseBody::Error(e) => assert_eq!(e.to_string(), "unknown dataset 'gone'"),
            other => panic!("expected the trailer's error, got {:?}", other),
        }
    }

    #[test]
    fn chunk_crc_is_carried_not_checked_until_the_chunk_is_decoded() {
        let (head, mut chunks) = three_chunks();
        assert_eq!(chunks[1].1, crc32(&chunks[1].0));
        chunks[1].0[60] ^= 0x10;
        let wire = stream(head, all_ok(&chunks));
        let ResponseBody::Query(rep) = read_one(&wire).unwrap().unwrap().body else {
            panic!("the frames are fine, so the transport delivers them");
        };
        let err = rep.trajectory().unwrap_err();
        assert_eq!(err.kind(), "xtcf");
        let text = err.to_string();
        assert!(text.contains("corrupt chunk 1"), "{}", text);
        assert!(text.contains("checksum"), "{}", text);
    }

    #[test]
    fn chunk_frames_are_bounded_one_by_one_and_the_reservation_by_the_limit() {
        // Three chunks of ~100 KB under a 128 KiB frame limit: the answer
        // is above it, no frame is, and the buffer grows past what was
        // reserved up front.
        let (head, chunks) = three_chunks();
        let wire = stream(head, all_ok(&chunks));
        let limit = chunks[0].0.len() as u32 + 1;
        assert!(wire.len() as u32 > 2 * limit);
        let resp = read_response(&mut Cursor::new(&wire[..]), limit).unwrap();
        assert!(matches!(resp.unwrap().body, ResponseBody::Query(_)));
        match read_response(&mut Cursor::new(&wire[..]), limit - 2) {
            Err(ProtoError::Oversized { declared, max }) => {
                assert_eq!((declared, max), (limit - 1, limit - 2));
            }
            other => panic!("expected Oversized, got {:?}", other),
        }
    }
}
