//! A real-mode query answer on the wire: the stored chunks, streamed.
//!
//! ```text
//! head     message frame   id | 0x04 | natoms u32 | nframes u64
//! chunk*   chunk frame     the chunk's XTCF frame records, verbatim; header CRC = the chunk's own
//! trailer  message frame   id | 0x05
//!                       or id | 0xff | AdaError            (the ordinary error response)
//! ```
//!
//! The stream carries frames and what a reader needs to check and hold
//! them — their atom count and their number — and nothing else: the
//! chunk size is each chunk frame's length, and no simulated duration
//! travels. The grammar lives here once. [`write_query_stream`] takes the
//! head and the chunks as `(body, crc)` pairs — the CRC the dropping's
//! directory already holds, so the sender checksums nothing — and ends the
//! stream with the first error the chunk source raises. [`write_response`]
//! sends any response the way it travels: a real-mode `Query` report as a
//! stream of its frames sealed a chunk at a time, everything else as one
//! message frame. [`read_response`] hands a plain response back as it is
//! and folds a stream into the `ResponseBody::Query` callers already know,
//! checking and decoding each chunk as it lands — its CRC against the
//! frame header, every record's atom count against the head — so the
//! check runs while the next chunk is in flight, once, and the report
//! holds frames, not a container.

use std::io::{Read, Write};

use ada_core::AdaError;
use ada_mdformats::xtcf::{crc32, frame_record_len, ChunkRecords, XtcfWriter};
use ada_mdformats::{Frame, Trajectory};

use crate::errmap::{decode_error, encode_error};
use crate::frame::{
    read_body, read_frame, read_header, read_message, write_chunk_frame, write_frame, FrameKind,
    HEADER_LEN,
};
use crate::message::{
    payload_err, ResponseBody, ResponseEnvelope, WireQueryReport, DISC_ERROR, QUERY_CHUNK_FRAMES,
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

    /// Open a stream with its head.
    fn head(&mut self, w: &mut impl Write, head: StreamHead) -> Result<(), ProtoError> {
        let mut p = WireWriter::new();
        p.put_u64(head.id);
        p.put_u8(DISC_STREAM_HEAD);
        p.put_u32(head.natoms);
        p.put_u64(head.nframes);
        self.message(w, &p.finish())
    }

    fn chunk(&mut self, w: &mut impl Write, body: &[u8], crc: u32) -> Result<(), ProtoError> {
        write_chunk_frame(w, body, crc)?;
        self.chunks += 1;
        self.bytes += (HEADER_LEN + body.len()) as u64;
        Ok(())
    }

    /// End the stream: every chunk was sent.
    fn end(mut self, w: &mut impl Write, id: u64) -> Result<Sent, ProtoError> {
        let mut p = WireWriter::new();
        p.put_u64(id);
        p.put_u8(DISC_STREAM_END);
        self.message(w, &p.finish())?;
        Ok(self)
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
/// trailer. The first `Err` the iterator yields ends the stream with that
/// error as its trailer ([`Sent::error`]); the receiver then hands out the
/// error and no report.
/// `Err` is a transport failure: the connection is no longer aligned.
pub fn write_query_stream<'a>(
    w: &mut impl Write,
    head: StreamHead,
    chunks: impl IntoIterator<Item = Result<(&'a [u8], u32), AdaError>>,
) -> Result<Sent, ProtoError> {
    let mut sent = Sent::default();
    sent.head(w, head)?;
    for chunk in chunks {
        match chunk {
            Ok((body, crc)) => sent.chunk(w, body, crc)?,
            Err(e) => return sent.fail(w, head.id, e),
        }
    }
    sent.end(w, head.id)
}

/// Write `resp` the way it travels. A query report is streamed
/// as its frames sealed [`QUERY_CHUNK_FRAMES`] at a time — each chunk's
/// records written into one reused buffer, checksummed and sent before the
/// next is written, so no answer is sealed whole, none is one frame and
/// none has a size ceiling; frames of unequal atom counts end the stream
/// in the error sealing raises. Every other response — pong, ingest
/// report, cache stats, an error — is one message frame.
pub fn write_response(w: &mut impl Write, resp: &ResponseEnvelope) -> Result<Sent, ProtoError> {
    let ResponseBody::Query(WireQueryReport(traj)) = &resp.body else {
        let mut sent = Sent::default();
        sent.message(w, &resp.encode())?;
        return Ok(sent);
    };
    let natoms = traj.natoms();
    let head = StreamHead {
        id: resp.id,
        natoms: u32::try_from(natoms).unwrap_or(u32::MAX),
        nframes: traj.len() as u64,
    };
    let mut sent = Sent::default();
    sent.head(w, head)?;
    let mut records = XtcfWriter::with_capacity(traj.len().min(QUERY_CHUNK_FRAMES), natoms);
    for frames in traj.frames.chunks(QUERY_CHUNK_FRAMES) {
        records.clear_records();
        for f in frames {
            if let Err(e) = records.write_frame(f) {
                return sent.fail(w, resp.id, payload_err(e));
            }
        }
        let body = records.records();
        sent.chunk(w, body, crc32(body))?;
    }
    sent.end(w, resp.id)
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
    };
    r.expect_end()?;
    Ok(Some(head))
}

/// How the message frame that ends a stream ends it.
enum StreamEnd {
    /// Every chunk was sent.
    Done,
    /// The server ended the stream early with this error.
    Failed(AdaError),
}

/// The message frame that ends a stream: the request id it names, and how.
fn decode_end(payload: &[u8]) -> Result<(u64, StreamEnd), ProtoError> {
    let mut r = WireReader::new(payload);
    let id = r.get_u64()?;
    let end = match r.get_u8()? {
        DISC_STREAM_END => StreamEnd::Done,
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
/// answer folded into `ResponseBody::Query`, each chunk checked and
/// decoded as it lands. `Ok(None)` means the peer closed cleanly before a
/// response began. `max_frame_len` bounds every frame — head, each chunk,
/// trailer — and the frame storage reserved up front from the head's
/// claim; an answer larger than that grows only by frames that arrived. A
/// stream that ends short, delivers more than its head announced, carries
/// a chunk that is not a whole number of records, or breaks off is one
/// typed error and no partial report; so is a chunk whose CRC or atom
/// counts fail ([`ProtoError::Payload`] naming the first such chunk, the
/// rest of the stream left unread). A stream the server ended with an
/// error trailer is that error, as `ResponseBody::Error`.
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
    // Checked: the head is a claim. One that no memory could hold is
    // refused here, and one that merely exceeds the frame limit reserves
    // no more frames than that limit holds.
    let announced = head
        .nframes
        .checked_mul(record as u64)
        .and_then(|len| usize::try_from(len).ok())
        .map(|_| head.nframes as usize)
        .ok_or_else(|| {
            ProtoError::Malformed(format!(
                "stream head announces {} frames of {} atoms, more than memory addresses",
                head.nframes, head.natoms
            ))
        })?;
    let reserve = max_frame_len as usize / record.max(std::mem::size_of::<Frame>());
    let mut frames: Vec<Frame> = Vec::with_capacity(announced.min(reserve));
    // Every chunk is read into this one buffer and decoded out of it
    // before the next.
    let mut buf = Vec::new();
    let mut chunk = 0;
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
            if frames.len() + len / record > announced {
                return Err(ProtoError::Malformed(format!(
                    "stream delivers more than the {} frames its head announced",
                    head.nframes
                )));
            }
            buf.clear();
            buf.reserve(len);
            read_body(r, header.len, &mut buf)?;
            let records = ChunkRecords::check(&buf, head.natoms, header.crc, chunk)
                .map_err(ProtoError::Payload)?;
            frames.extend(records.frames());
            chunk += 1;
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
            StreamEnd::Done if frames.len() != announced => {
                return Err(ProtoError::Malformed(format!(
                    "stream ended after {} of the {} frames its head announced",
                    frames.len(),
                    head.nframes
                )))
            }
            StreamEnd::Done => {
                ResponseBody::Query(WireQueryReport(Trajectory::from_frames(frames)))
            }
        };
        return Ok(ResponseEnvelope { id, body });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_core::{ErrorKind, QueryReport, RetrievedData};
    use ada_mdformats::xtcf::{parse_directory, seal_v2, write_xtcf, XTCF_RECORD_NATOMS_OFFSET};
    use ada_mdformats::FormatError;
    use ada_storagesim::SimDuration;
    use std::io::Cursor;

    const MAX: u32 = crate::DEFAULT_MAX_FRAME;

    /// Every step, time, box float and coordinate as raw bits: `-0.0` is
    /// not `0.0` here, as it would be to `==` on the floats.
    fn bits(traj: &Trajectory) -> Vec<u32> {
        let frame = |f: &Frame| {
            let floats = f.pbc.m.iter().flatten().chain(f.coords.iter().flatten());
            [f.step as u32, f.time.to_bits()]
                .into_iter()
                .chain(floats.map(|v| v.to_bits()))
                .collect::<Vec<u32>>()
        };
        traj.frames.iter().flat_map(frame).collect()
    }

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

    /// The container the answer's frames seal into at the wire's chunk
    /// size — `from_report` sealed this, and the one-frame encoding still
    /// carries it.
    fn container(traj: &Trajectory) -> Vec<u8> {
        seal_v2(write_xtcf(traj).unwrap(), traj.natoms(), QUERY_CHUNK_FRAMES).unwrap()
    }

    #[test]
    fn streamed_answer_round_trips_bit_identically_at_every_chunk_shape() {
        // Empty answer, one frame, exactly one chunk, one chunk plus a
        // ragged tail: the frames the reader decodes are the frames the
        // writer sealed, bit for bit.
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
            let ResponseBody::Query(back) = back.body else {
                panic!("a streamed answer is a query report");
            };
            let record = frame_record_len(traj.natoms());
            assert_eq!(back.bytes(), (nframes * record) as u64);
            assert_eq!(bits(&back.trajectory().unwrap()), bits(&traj));
        }
    }

    #[test]
    fn the_wire_bytes_are_the_sealed_containers_chunks() {
        // What `from_report` used to seal, and its chunks streamed from the
        // container's directory: the stream `write_response` now seals a
        // chunk at a time is that stream, byte for byte, and the one-frame
        // encoding embeds that container.
        for nframes in [0, 1, QUERY_CHUNK_FRAMES, QUERY_CHUNK_FRAMES + 7] {
            let traj = traj(nframes);
            let sealed_before = container(&traj);
            let dir = parse_directory(&sealed_before).unwrap().unwrap();
            let head = StreamHead {
                id: 9,
                natoms: dir.entries.first().map_or(0, |e| e.natoms),
                nframes: dir.nframes() as u64,
            };
            let chunks = dir.entries.iter().map(|e| {
                let start = e.offset as usize;
                Ok((&sealed_before[start..start + e.body_len()], e.crc))
            });
            let mut want = Vec::new();
            write_query_stream(&mut want, head, chunks).unwrap();

            let resp = sealed(traj.clone());
            let mut wire = Vec::new();
            write_response(&mut wire, &resp).unwrap();
            assert_eq!(wire, want, "{} frames", nframes);

            let encoded = resp.encode();
            let mut r = WireReader::new(&encoded);
            assert_eq!((r.get_u64().unwrap(), r.get_u8().unwrap()), (9, 2));
            assert_eq!(r.get_blob().unwrap(), &sealed_before[..]);
            r.expect_end().unwrap();
            assert_eq!(encoded.capacity(), encoded.len(), "encode re-allocated");

            let back = match ResponseEnvelope::decode(&encoded).unwrap().body {
                ResponseBody::Query(back) => back,
                other => panic!("wrong body {:?}", other),
            };
            assert_eq!(bits(&back.trajectory().unwrap()), bits(&traj));
        }
    }

    /// A one-frame, one-atom answer to request 9 as protocol version 9
    /// sends it: the head, one chunk frame holding the frame's record under
    /// the record's CRC-32, and the trailer. A peer of version 9 reads
    /// exactly these bytes, so they may change only with `frame::VERSION`.
    const STREAMED_ANSWER: [u8; 129] = [
        b'A', b'D', b'A', b'P', 9, 21, 0, 0, 0, 4, 105, 154, 108, // head frame, CRC
        9, 0, 0, 0, 0, 0, 0, 0, 4, // id 9, stream head
        1, 0, 0, 0, // natoms 1
        1, 0, 0, 0, 0, 0, 0, 0, // nframes 1
        b'A', b'D', b'A', b'C', 9, 60, 0, 0, 0, 127, 44, 67, 212, // chunk frame, its CRC
        7, 0, 0, 0, 0, 0, 0, 63, // step 7, time 0.5
        0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0, 0, // box row 0: 2, 0, 0
        0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, // box row 1: 0, 2, 0
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 64, // box row 2: 0, 0, 2
        1, 0, 0, 0, // n 1
        0, 0, 128, 63, 0, 0, 0, 128, 0, 0, 128, 62, // xyz 1, -0, 0.25
        b'A', b'D', b'A', b'P', 9, 9, 0, 0, 0, 122, 86, 192, 58, // trailer frame, CRC
        9, 0, 0, 0, 0, 0, 0, 0, 5, // id 9, stream end
    ];

    #[test]
    fn streamed_answer_bytes_are_pinned() {
        let frame = Frame {
            step: 7,
            time: 0.5,
            pbc: ada_mdmodel::PbcBox::rectangular(2.0, 2.0, 2.0),
            coords: vec![[1.0, -0.0, 0.25]],
        };
        let traj = Trajectory::from_frames(vec![frame]);
        // Sealed from frames, and forwarded as a stored chunk: one stream.
        let body = ResponseBody::Query(WireQueryReport(traj.clone()));
        let mut sealed = Vec::new();
        write_response(&mut sealed, &ResponseEnvelope { id: 9, body }).unwrap();
        assert_eq!(sealed, STREAMED_ANSWER);
        let head = StreamHead {
            id: 9,
            natoms: 1,
            nframes: 1,
        };
        let record = &STREAMED_ANSWER[2 * HEADER_LEN + 21..][..60];
        let mut forwarded = Vec::new();
        write_query_stream(&mut forwarded, head, [Ok((record, crc32(record)))]).unwrap();
        assert_eq!(forwarded, STREAMED_ANSWER);
        let ResponseBody::Query(back) = read_one(&STREAMED_ANSWER).unwrap().unwrap().body else {
            panic!("a streamed answer is a query report");
        };
        assert_eq!(bits(&back.trajectory().unwrap()), bits(&traj));

        // A head or a trailer with bytes past its end — version 7's chunk
        // size, its two durations — is malformed.
        let trailer_at = STREAMED_ANSWER.len() - HEADER_LEN - 9;
        for (at, len, extra) in [(0, 21, 4), (trailer_at, 9, 32)] {
            let mut payload = STREAMED_ANSWER[at + HEADER_LEN..][..len].to_vec();
            payload.resize(len + extra, 0);
            let mut longer = Vec::new();
            write_frame(&mut longer, &payload).unwrap();
            let mut wire = STREAMED_ANSWER.to_vec();
            wire.splice(at..at + HEADER_LEN + len, longer);
            malformed(&wire, &format!("{} trailing bytes", extra));
        }
    }

    #[test]
    fn frames_of_unequal_atom_counts_travel_as_the_error_sealing_raises() {
        let mut ragged = traj(QUERY_CHUNK_FRAMES + 2);
        ragged.frames[QUERY_CHUNK_FRAMES + 1].coords.pop();
        let rep = QueryReport {
            indexer: SimDuration(0),
            read: SimDuration(0),
            data: RetrievedData::Real(ragged.clone()),
        };
        assert_eq!(
            WireQueryReport::from_report(&rep).unwrap_err().error_kind(),
            ErrorKind::Corrupt
        );
        // Built by hand, it has no container: the one-frame encoding is the
        // error, and the stream ends in it after the chunk that sealed.
        let resp = ResponseEnvelope {
            id: 9,
            body: ResponseBody::Query(WireQueryReport(ragged)),
        };
        let decoded = ResponseEnvelope::decode(&resp.encode()).unwrap();
        let mut wire = Vec::new();
        let sent = write_response(&mut wire, &resp).unwrap();
        assert_eq!(sent.chunks, 1);
        let streamed = read_one(&wire).unwrap().unwrap();
        for resp in [decoded, streamed] {
            assert_eq!(resp.id, 9);
            match resp.body {
                ResponseBody::Error(e) => {
                    assert_eq!(e.error_kind(), ErrorKind::Corrupt);
                    assert!(e.to_string().contains("atom count"), "{}", e);
                }
                other => panic!("expected the sealing error, got {:?}", other),
            }
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
        let container = container(&traj(2 * QUERY_CHUNK_FRAMES + 3));
        let dir = parse_directory(&container).unwrap().unwrap();
        let head = StreamHead {
            id: 9,
            natoms: dir.entries[0].natoms,
            nframes: dir.nframes() as u64,
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
        write_query_stream(&mut wire, head, chunks).unwrap();
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
        let trailer_len = HEADER_LEN + 8 + 1;
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
        write_query_stream(&mut other_id, StreamHead { nframes: 0, ..head }, []).unwrap();
        let end = other_id.len() - trailer_len;
        let mut trailer = WireWriter::new();
        trailer.put_u64(head.id + 1);
        trailer.put_u8(DISC_STREAM_END);
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

    /// What reading `wire` refused, as the chunk it names and its detail.
    fn payload_error(wire: &[u8]) -> (usize, String) {
        match read_one(wire) {
            Err(ProtoError::Payload(FormatError::ChunkCorrupt { chunk, detail })) => {
                (chunk, detail)
            }
            other => panic!("expected a chunk that failed its check, got {:?}", other),
        }
    }

    #[test]
    fn a_chunk_is_checked_as_it_lands_and_the_first_bad_one_is_the_answer() {
        let (head, chunks) = three_chunks();
        // A flipped body byte: the frames are well formed, the CRC the
        // frame header carries is not theirs.
        let mut flipped = chunks.clone();
        flipped[1].0[60] ^= 0x10;
        let (chunk, detail) = payload_error(&stream(head, all_ok(&flipped)));
        assert_eq!(chunk, 1);
        assert!(detail.contains("checksum"), "{}", detail);

        // A record declaring another atom count under a CRC that matches:
        // only the atom-count check stands between it and the caller.
        let record = frame_record_len(head.natoms as usize);
        let mut redeclared = chunks.clone();
        let (body, crc) = &mut redeclared[2];
        let at = record + XTCF_RECORD_NATOMS_OFFSET;
        body[at..at + 4].copy_from_slice(&(head.natoms + 1).to_le_bytes());
        *crc = crc32(body);
        let (chunk, detail) = payload_error(&stream(head, all_ok(&redeclared)));
        assert_eq!(chunk, 2);
        let n = head.natoms;
        assert_eq!(
            detail,
            format!("frame 1 declares {} atoms, not the chunk's {}", n + 1, n)
        );

        // Both: the first chunk that fails is the one named.
        flipped[2] = redeclared[2].clone();
        assert_eq!(payload_error(&stream(head, all_ok(&flipped))).0, 1);

        // To the caller it is the error a corrupt stored chunk raises.
        let err = AdaError::from(read_one(&stream(head, all_ok(&flipped))).unwrap_err());
        assert_eq!(err.error_kind(), ErrorKind::Corrupt);
        assert!(err.to_string().contains("corrupt chunk 1"), "{}", err);
    }

    #[test]
    fn chunk_frames_are_bounded_one_by_one_and_the_reservation_by_the_limit() {
        // Three chunks of ~100 KB under a 128 KiB frame limit: the answer
        // is above it, no frame is, and the frames grow past what was
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
