//! The request/response vocabulary of the wire — one body per operation
//! the remote `Frontend` runs — plus transport-friendly report types.
//!
//! A query's trajectory reaches the caller uncompressed, as XTCF v2 chunks
//! (the on-disk dropping format): the compute node gets the
//! already-decompressed subset with every `f32` bit intact, and each
//! chunk's CRC-32 and atom counts meet, on arrival, the check
//! (`xtcf::ChunkRecords::check`) a stored chunk meets on the server. In
//! hand, a [`WireQueryReport`] holds the frames themselves; the container
//! exists only on the wire, and nothing travels beside the frames: the
//! simulated durations of the in-process `QueryReport` stay in process.
//! On the socket the chunks travel as a stream ([`crate::stream`]); the
//! one-frame encoding of a `Query` body below — `id | 0x02 |` one sealed
//! container as a `u32`-prefixed blob — is what [`ResponseEnvelope::encode`]
//! builds in memory for the benchmark ladder's codec rungs, which the
//! server never sends and the client still accepts.

use ada_cache::CacheStats;
use ada_core::{AdaError, IngestReport, QueryReport, RetrievedData};
use ada_mdformats::xtcf::{
    encoded_len, frame_record_len, parse_directory, seal_v2, write_xtcf, ChunkRecords,
    XTCF_DIR_ENTRY_LEN, XTCF_TRAILER_LEN,
};
use ada_mdformats::{FormatError, Trajectory};
use ada_mdmodel::Tag;
use std::collections::BTreeMap;

use crate::errmap::{decode_error, encode_error};
use crate::wire::{ProtoError, WireReader, WireWriter};

/// One request as it crosses the wire: routing/tracing envelope plus the
/// operation body.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// Connection-local request id, echoed verbatim on the response so a
    /// pipelining client can match replies to calls.
    pub id: u64,
    /// Client name for admission accounting (`frontend.client.{name}.*`).
    pub client: String,
    /// The caller's 128-bit trace id; the server mints its root span
    /// from it (`FlightRecorder::root_remote`) so both halves of the
    /// request — the client's tree and the server's — seal under one id. `0` = caller is not tracing.
    pub trace_id: u128,
    /// Queue-wait deadline in nanoseconds, `0` = wait indefinitely.
    pub deadline_ns: u64,
    /// The operation.
    pub body: RequestBody,
}

/// The operation a request asks the remote `Frontend` to run.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Liveness probe; answered without touching admission.
    Ping,
    /// Real-bytes ingest.
    Ingest {
        /// Logical dataset name to create.
        dataset: String,
        /// `.pdb` contents.
        pdb_text: String,
        /// `.xtc` contents.
        xtc_bytes: Vec<u8>,
    },
    /// Tag-aware (or full-frame when `tag` is `None`) retrieval.
    Query {
        /// Logical dataset to read.
        dataset: String,
        /// Active-data tag label, or `None` for the full-frame path.
        tag: Option<String>,
    },
    /// Strided frame-range retrieval of one tag.
    QueryRange {
        /// Logical dataset to read.
        dataset: String,
        /// Active-data tag label.
        tag: String,
        /// First frame (inclusive).
        start: u64,
        /// End of the window (exclusive).
        end: u64,
        /// Keep every `stride`-th frame.
        stride: u64,
    },
    /// Snapshot of the server's decoded-dropping cache counters.
    CacheStats,
}

impl RequestBody {
    /// Stable lowercase operation name (trace/metric vocabulary).
    pub fn op_name(&self) -> &'static str {
        match self {
            RequestBody::Ping => "ping",
            RequestBody::Ingest { .. } => "ingest",
            RequestBody::Query { .. } => "query",
            RequestBody::QueryRange { .. } => "query_range",
            RequestBody::CacheStats => "cache_stats",
        }
    }

    /// The dataset the operation touches, when it touches one — the
    /// router's shard key.
    pub fn dataset(&self) -> Option<&str> {
        match self {
            RequestBody::Ingest { dataset, .. }
            | RequestBody::Query { dataset, .. }
            | RequestBody::QueryRange { dataset, .. } => Some(dataset),
            RequestBody::Ping | RequestBody::CacheStats => None,
        }
    }
}

impl RequestEnvelope {
    /// Encode for framing.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(self.id);
        w.put_u128(self.trace_id);
        w.put_u64(self.deadline_ns);
        w.put_str(&self.client);
        match &self.body {
            RequestBody::Ping => w.put_u8(0),
            RequestBody::Ingest {
                dataset,
                pdb_text,
                xtc_bytes,
            } => {
                w.put_u8(1);
                w.put_str(dataset);
                w.put_str(pdb_text);
                w.put_bytes(xtc_bytes);
            }
            RequestBody::Query { dataset, tag } => {
                w.put_u8(2);
                w.put_str(dataset);
                w.put_opt_str(tag.as_deref());
            }
            RequestBody::QueryRange {
                dataset,
                tag,
                start,
                end,
                stride,
            } => {
                w.put_u8(3);
                w.put_str(dataset);
                w.put_str(tag);
                w.put_u64(*start);
                w.put_u64(*end);
                w.put_u64(*stride);
            }
            RequestBody::CacheStats => w.put_u8(4),
        }
        w.finish()
    }

    /// Decode a framed payload.
    pub fn decode(bytes: &[u8]) -> Result<RequestEnvelope, ProtoError> {
        let mut r = WireReader::new(bytes);
        let id = r.get_u64()?;
        let trace_id = r.get_u128()?;
        let deadline_ns = r.get_u64()?;
        let client = r.get_str()?;
        let body = match r.get_u8()? {
            0 => RequestBody::Ping,
            1 => RequestBody::Ingest {
                dataset: r.get_str()?,
                pdb_text: r.get_str()?,
                xtc_bytes: r.get_bytes()?,
            },
            2 => RequestBody::Query {
                dataset: r.get_str()?,
                tag: r.get_opt_str()?,
            },
            3 => RequestBody::QueryRange {
                dataset: r.get_str()?,
                tag: r.get_str()?,
                start: r.get_u64()?,
                end: r.get_u64()?,
                stride: r.get_u64()?,
            },
            4 => RequestBody::CacheStats,
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unknown request discriminant {}",
                    other
                )))
            }
        };
        r.expect_end()?;
        Ok(RequestEnvelope {
            id,
            client,
            trace_id,
            deadline_ns,
            body,
        })
    }
}

/// One response as it crosses the wire.
#[derive(Debug)]
pub struct ResponseEnvelope {
    /// The request id this answers; `0` for connection-level protocol
    /// errors raised before any request id was readable.
    pub id: u64,
    /// Outcome.
    pub body: ResponseBody,
}

/// A response's payload: one success shape per operation, or a fully
/// typed error.
#[derive(Debug)]
pub enum ResponseBody {
    /// Answer to [`RequestBody::Ping`].
    Pong,
    /// Answer to [`RequestBody::Ingest`]: the stored-volume accounting,
    /// exactly as the remote middleware made it.
    Ingest(IngestReport),
    /// Answer to [`RequestBody::Query`] / [`RequestBody::QueryRange`].
    Query(WireQueryReport),
    /// Answer to [`RequestBody::CacheStats`].
    CacheStats(CacheStats),
    /// The request failed; the error carries the exact `AdaError`.
    Error(AdaError),
}

/// Discriminant of [`ResponseBody::Error`], which also ends a chunk
/// stream that failed.
pub(crate) const DISC_ERROR: u8 = 255;

impl ResponseEnvelope {
    /// Encode for framing. A query answer is megabytes of payload, so the
    /// buffer is sized for it up front instead of doubling its way there.
    pub fn encode(&self) -> Vec<u8> {
        let body_len = match &self.body {
            ResponseBody::Query(rep) => rep.encoded_len(),
            _ => 0,
        };
        let mut w = WireWriter::with_capacity(9 + body_len);
        w.put_u64(self.id);
        match &self.body {
            ResponseBody::Pong => w.put_u8(0),
            ResponseBody::Ingest(rep) => {
                w.put_u8(1);
                encode_ingest_report(rep, &mut w);
            }
            ResponseBody::Query(rep) => {
                w.put_u8(2);
                if let Err(e) = rep.encode(&mut w) {
                    // Frames of unequal atom counts have no container: the
                    // answer is the error, as a stream of them ends in it.
                    let body = ResponseBody::Error(e);
                    return ResponseEnvelope { id: self.id, body }.encode();
                }
            }
            ResponseBody::CacheStats(s) => {
                w.put_u8(3);
                encode_cache_stats(s, &mut w);
            }
            ResponseBody::Error(e) => {
                w.put_u8(DISC_ERROR);
                encode_error(&mut w, e);
            }
        }
        w.finish()
    }

    /// Decode a framed payload.
    pub fn decode(bytes: &[u8]) -> Result<ResponseEnvelope, ProtoError> {
        let mut r = WireReader::new(bytes);
        let id = r.get_u64()?;
        let body = match r.get_u8()? {
            0 => ResponseBody::Pong,
            1 => ResponseBody::Ingest(decode_ingest_report(&mut r)?),
            2 => ResponseBody::Query(WireQueryReport::decode(&mut r)?),
            3 => ResponseBody::CacheStats(decode_cache_stats(&mut r)?),
            DISC_ERROR => ResponseBody::Error(decode_error(&mut r)?),
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unknown response discriminant {}",
                    other
                )))
            }
        };
        r.expect_end()?;
        Ok(ResponseEnvelope { id, body })
    }
}

/// An [`IngestReport`]: its dataset, raw volume, and per-tag stored bytes
/// in label order.
fn encode_ingest_report(rep: &IngestReport, w: &mut WireWriter) {
    w.put_str(&rep.dataset);
    w.put_u64(rep.raw_bytes);
    w.put_u32(rep.bytes_by_tag.len().min(u32::MAX as usize) as u32);
    for (tag, bytes) in &rep.bytes_by_tag {
        w.put_str(tag.as_str());
        w.put_u64(*bytes);
    }
}

/// The inverse of [`encode_ingest_report`]. Tags must arrive strictly
/// ascending, as an encoder writes them: a repeated or out-of-order tag is
/// `Malformed`, never merged.
fn decode_ingest_report(r: &mut WireReader) -> Result<IngestReport, ProtoError> {
    let dataset = r.get_str()?;
    let raw_bytes = r.get_u64()?;
    let n = r.get_u32()?;
    let mut bytes_by_tag = BTreeMap::new();
    for _ in 0..n {
        let tag = Tag::new(r.get_str()?);
        let bytes = r.get_u64()?;
        if bytes_by_tag
            .last_key_value()
            .is_some_and(|(last, _)| *last >= tag)
        {
            return Err(ProtoError::Malformed(format!(
                "ingest report tag '{}' out of order",
                tag
            )));
        }
        bytes_by_tag.insert(tag, bytes);
    }
    Ok(IngestReport {
        dataset,
        raw_bytes,
        bytes_by_tag,
    })
}

/// Frames per chunk of a decoded answer sealed for the wire — the on-disk
/// default (`AdaConfig::chunk_frames`), so a sealed answer has the shape
/// of a stored dropping.
pub const QUERY_CHUNK_FRAMES: usize = 64;

/// [`QueryReport`] in wire form: the delivered frames, uncompressed, with
/// the bits they were stored with. On the wire they are XTCF v2 chunks —
/// as stored, or sealed at [`QUERY_CHUNK_FRAMES`] frames — each checked as
/// it arrived. Only frames travel: a [`RetrievedData::Synthetic`] report,
/// which `Ada` never builds, is refused ([`AdaError::size_only`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WireQueryReport(pub Trajectory);

/// Frames that cannot travel, as the typed error a corrupt stored dropping
/// raises.
pub(crate) fn payload_err(source: FormatError) -> AdaError {
    ProtoError::Payload(source).into()
}

/// `traj` as one sealed container of [`QUERY_CHUNK_FRAMES`]-frame chunks:
/// the one-frame encoding's payload, and the chunks
/// [`crate::write_response`] streams, byte for byte. Fails only on frames
/// of unequal atom counts, which no retrieval path produces.
fn seal(traj: &Trajectory) -> Result<Vec<u8>, FormatError> {
    seal_v2(write_xtcf(traj)?, traj.natoms(), QUERY_CHUNK_FRAMES)
}

/// The frames of a sealed container, each chunk checked
/// ([`ChunkRecords::verify`]) before its frames exist; a directory-less
/// (v1) stream is not a valid payload.
fn unseal(container: &[u8]) -> Result<Trajectory, FormatError> {
    let dir = parse_directory(container)?
        .ok_or_else(|| FormatError::Corrupt("v1 stream carries no chunk directory".to_string()))?;
    let mut frames = Vec::with_capacity(dir.nframes());
    for chunk in 0..dir.nchunks() {
        frames.extend(ChunkRecords::verify(container, &dir, chunk)?.frames());
    }
    Ok(Trajectory::from_frames(frames))
}

impl TryFrom<QueryReport> for WireQueryReport {
    type Error = AdaError;

    /// Convert a middleware report for the wire, moving its frames. Fails
    /// on a report without frames ([`AdaError::size_only`]) and, as a
    /// typed `AdaError::Xtcf`, on frames of unequal atom
    /// counts, which no retrieval path produces and no container holds.
    fn try_from(rep: QueryReport) -> Result<WireQueryReport, AdaError> {
        let RetrievedData::Real(traj) = rep.data else {
            return Err(AdaError::size_only());
        };
        let natoms = traj.natoms();
        if let Some(f) = traj.frames.iter().find(|f| f.len() != natoms) {
            return Err(payload_err(FormatError::Corrupt(format!(
                "frame atom count {} != file atom count {}",
                f.len(),
                natoms
            ))));
        }
        Ok(WireQueryReport(traj))
    }
}

impl WireQueryReport {
    /// [`WireQueryReport::try_from`] for a caller that only holds a
    /// reference: the frames are copied.
    pub fn from_report(rep: &QueryReport) -> Result<WireQueryReport, AdaError> {
        WireQueryReport::try_from(QueryReport {
            indexer: rep.indexer,
            read: rep.read,
            data: rep.data.clone(),
        })
    }

    /// The delivered frames, moved out. Every chunk was checked — CRC and
    /// atom counts — as it arrived, so there is nothing left to check.
    pub fn trajectory(self) -> Result<Trajectory, AdaError> {
        Ok(self.0)
    }

    /// Delivered decoded volume: frames × XTCF record bytes.
    pub fn bytes(&self) -> u64 {
        (self.0.len() * frame_record_len(self.0.natoms())) as u64
    }

    /// Exact size of [`WireQueryReport::encode`]'s output.
    fn encoded_len(&self) -> usize {
        let traj = &self.0;
        let chunks = traj.len().div_ceil(QUERY_CHUNK_FRAMES);
        4 + encoded_len(traj.len(), traj.natoms()) + chunks * XTCF_DIR_ENTRY_LEN + XTCF_TRAILER_LEN
    }

    /// Append the report: its frames sealed ([`seal`]) as one blob; the
    /// error sealing raises leaves `w` to be discarded.
    fn encode(&self, w: &mut WireWriter) -> Result<(), AdaError> {
        let container = seal(&self.0).map_err(payload_err)?;
        w.put_bytes(&container);
        Ok(())
    }

    fn decode(r: &mut WireReader) -> Result<WireQueryReport, ProtoError> {
        let traj = unseal(r.get_blob()?).map_err(ProtoError::Payload)?;
        Ok(WireQueryReport(traj))
    }
}

/// [`CacheStats`] on the wire: its nine counters as `u64`s, in field order.
fn encode_cache_stats(s: &CacheStats, w: &mut WireWriter) {
    for v in [
        s.hits,
        s.misses,
        s.inserts,
        s.evictions,
        s.bypasses,
        s.resident_bytes,
        s.resident_hwm,
        s.bytes_decoded,
        s.bytes_served_from_cache,
    ] {
        w.put_u64(v);
    }
}

fn decode_cache_stats(r: &mut WireReader) -> Result<CacheStats, ProtoError> {
    Ok(CacheStats {
        hits: r.get_u64()?,
        misses: r.get_u64()?,
        inserts: r.get_u64()?,
        evictions: r.get_u64()?,
        bypasses: r.get_u64()?,
        resident_bytes: r.get_u64()?,
        resident_hwm: r.get_u64()?,
        bytes_decoded: r.get_u64()?,
        bytes_served_from_cache: r.get_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_core::ErrorKind;
    use ada_mdformats::Frame;
    use ada_storagesim::SimDuration;

    #[test]
    fn request_envelopes_round_trip() {
        let cases = vec![
            RequestEnvelope {
                id: 1,
                client: "c0".into(),
                trace_id: 0,
                deadline_ns: 0,
                body: RequestBody::Ping,
            },
            RequestEnvelope {
                id: 2,
                client: "c1".into(),
                trace_id: 0xfeed_beef,
                deadline_ns: 1_000_000,
                body: RequestBody::Ingest {
                    dataset: "ds".into(),
                    pdb_text: "ATOM".into(),
                    xtc_bytes: vec![1, 2, 3, 4],
                },
            },
            RequestEnvelope {
                id: 3,
                client: "c2".into(),
                trace_id: 7,
                deadline_ns: 0,
                body: RequestBody::Query {
                    dataset: "ds".into(),
                    tag: Some("p".into()),
                },
            },
            RequestEnvelope {
                id: 4,
                client: "c3".into(),
                trace_id: 0,
                deadline_ns: 0,
                body: RequestBody::Query {
                    dataset: "ds".into(),
                    tag: None,
                },
            },
            RequestEnvelope {
                id: 5,
                client: "c4".into(),
                trace_id: u128::MAX,
                deadline_ns: u64::MAX,
                body: RequestBody::QueryRange {
                    dataset: "ds".into(),
                    tag: "p".into(),
                    start: 10,
                    end: 90,
                    stride: 4,
                },
            },
            RequestEnvelope {
                id: 6,
                client: "ops".into(),
                trace_id: 0,
                deadline_ns: 0,
                body: RequestBody::CacheStats,
            },
        ];
        for req in cases {
            let bytes = req.encode();
            let back = RequestEnvelope::decode(&bytes).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn response_reports_round_trip() {
        // Every bit of every frame survives, at no, one and more than one
        // chunk's worth of frames.
        let bits = |t: &Trajectory| -> Vec<u32> {
            let frame = |f: &Frame| {
                let (pbc, coords) = (f.pbc.m.iter().flatten(), f.coords.iter().flatten());
                let floats = [f.time]
                    .into_iter()
                    .chain(pbc.copied())
                    .chain(coords.copied());
                [f.step as u32]
                    .into_iter()
                    .chain(floats.map(f32::to_bits))
                    .collect::<Vec<_>>()
            };
            t.frames.iter().flat_map(frame).collect()
        };
        let w = ada_workload::gpcr_workload(120, QUERY_CHUNK_FRAMES + 1, 3);
        for n in [0, 1, QUERY_CHUNK_FRAMES + 1] {
            let traj = Trajectory::from_frames(w.trajectory.frames[..n].to_vec());
            let resp = ResponseEnvelope {
                id: 10,
                body: ResponseBody::Query(WireQueryReport(traj.clone())),
            };
            match ResponseEnvelope::decode(&resp.encode()).unwrap().body {
                ResponseBody::Query(back) => {
                    assert_eq!(bits(&back.trajectory().unwrap()), bits(&traj), "{n} frames");
                }
                other => panic!("wrong body {:?}", other),
            }
        }

        let stats = CacheStats {
            hits: 5,
            misses: 2,
            ..CacheStats::default()
        };
        let resp = ResponseEnvelope {
            id: 11,
            body: ResponseBody::CacheStats(stats),
        };
        match ResponseEnvelope::decode(&resp.encode()).unwrap().body {
            ResponseBody::CacheStats(back) => assert_eq!(back, stats),
            other => panic!("wrong body {:?}", other),
        }
    }

    #[test]
    fn error_response_keeps_the_kind() {
        let resp = ResponseEnvelope {
            id: 3,
            body: ResponseBody::Error(AdaError::UnknownDataset("nope".into())),
        };
        match ResponseEnvelope::decode(&resp.encode()).unwrap().body {
            ResponseBody::Error(e) => assert_eq!(e.error_kind(), ErrorKind::UnknownDataset),
            other => panic!("wrong body {:?}", other),
        }
    }

    /// An ingest answer's bytes: the id, the body discriminant, then the
    /// dataset, the raw volume and each tag's stored bytes in label order.
    /// A peer of protocol version 8 reads exactly these bytes, so they may
    /// change only with `frame::VERSION`.
    const INGEST_ANSWER: [u8; 53] = [
        9, 0, 0, 0, 0, 0, 0, 0, 1, // id 9, Ingest
        2, 0, 0, 0, b'd', b's', // dataset "ds"
        0, 16, 0, 0, 0, 0, 0, 0, // raw_bytes 4096
        2, 0, 0, 0, // two tags
        1, 0, 0, 0, b'm', 96, 0, 0, 0, 0, 0, 0, 0, // m: 96
        1, 0, 0, 0, b'p', 160, 15, 0, 0, 0, 0, 0, 0, // p: 4000
    ];

    #[test]
    fn ingest_report_bytes_are_pinned() {
        let rep = IngestReport {
            dataset: "ds".into(),
            raw_bytes: 4096,
            bytes_by_tag: [(Tag::protein(), 4000), (Tag::misc(), 96)].into(),
        };
        let resp = ResponseEnvelope {
            id: 9,
            body: ResponseBody::Ingest(rep.clone()),
        };
        assert_eq!(resp.encode(), INGEST_ANSWER);
        match ResponseEnvelope::decode(&INGEST_ANSWER).unwrap().body {
            ResponseBody::Ingest(back) => assert_eq!(back, rep),
            other => panic!("wrong body {:?}", other),
        }
    }

    /// A peer's report whose tags repeat or descend is refused, not merged.
    #[test]
    fn ingest_report_tags_must_ascend() {
        let m = &INGEST_ANSWER[27..40];
        let p = &INGEST_ANSWER[40..];
        for (tags, what) in [([m, m], "repeated"), ([p, m], "descending")] {
            let mut bytes = INGEST_ANSWER[..27].to_vec();
            bytes.extend(tags.concat());
            let res = ResponseEnvelope::decode(&bytes);
            assert!(
                matches!(res, Err(ProtoError::Malformed(_))),
                "{what}: {res:?}"
            );
        }
    }

    fn real_report(traj: Trajectory) -> QueryReport {
        QueryReport {
            indexer: SimDuration(3),
            read: SimDuration(5),
            data: RetrievedData::Real(traj),
        }
    }

    #[test]
    fn owned_and_borrowed_reports_convert_alike_and_the_owned_one_moves() {
        let traj = ada_workload::gpcr_workload(120, QUERY_CHUNK_FRAMES + 7, 5).trajectory;
        let (coords, record) = (
            traj.frames[0].coords.as_ptr(),
            frame_record_len(traj.natoms()),
        );
        let rep = real_report(traj);
        let copied = WireQueryReport::from_report(&rep).unwrap();
        let moved = WireQueryReport::try_from(rep).unwrap();
        assert_eq!(copied, moved);
        assert_eq!(copied.bytes(), ((QUERY_CHUNK_FRAMES + 7) * record) as u64);
        let traj = moved.trajectory().unwrap();
        assert_eq!(
            traj.frames[0].coords.as_ptr(),
            coords,
            "the frames were copied"
        );
    }

    /// A `Query` response whose one-frame payload is `container`, verbatim.
    fn one_frame_answer(container: &[u8]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(4);
        w.put_u8(2);
        w.put_bytes(container);
        w.finish()
    }

    fn assert_xtcf_error(container: &[u8], needle: &str) {
        let err = match ResponseEnvelope::decode(&one_frame_answer(container)) {
            Err(e @ ProtoError::Payload(_)) => AdaError::from(e),
            other => panic!("expected a payload error, got {:?}", other),
        };
        assert_eq!(err.error_kind(), ErrorKind::Xtcf, "{}", err);
        assert!(err.to_string().contains(needle), "{}", err);
    }

    #[test]
    fn hostile_one_frame_payloads_are_typed_errors_at_decode() {
        let w = ada_workload::gpcr_workload(120, 5, 9);
        let natoms = w.trajectory.natoms();
        let good = seal_v2(
            write_xtcf(&w.trajectory).unwrap(),
            natoms,
            QUERY_CHUNK_FRAMES,
        )
        .unwrap();
        match ResponseEnvelope::decode(&one_frame_answer(&good))
            .unwrap()
            .body
        {
            ResponseBody::Query(rep) => assert_eq!(rep.trajectory().unwrap(), w.trajectory),
            other => panic!("wrong body {:?}", other),
        }

        // Truncated directory: cut into the trailer, then into an entry.
        assert_xtcf_error(&good[..good.len() - 1], "footer magic");
        let mut cut = good[..good.len() - 12 - 20].to_vec();
        cut.extend_from_slice(&good[good.len() - 12..]);
        assert_xtcf_error(&cut, "corrupt chunk 0");

        // A v1 stream (what `XtcfWriter` emits before sealing) has no
        // directory to verify against.
        assert_xtcf_error(&write_xtcf(&w.trajectory).unwrap(), "no chunk directory");

        // Oversized declared chunk span: the single entry claims
        // u32::MAX frames of u32::MAX atoms. Rejected from the directory
        // alone — nothing is sized from the claim.
        let mut huge = good.clone();
        let entry = huge.len() - 12 - 20;
        huge[entry + 8..entry + 16].copy_from_slice(&[0xff; 8]);
        assert_xtcf_error(&huge, "overruns");

        // A flipped body byte passes the directory and fails the chunk.
        let mut flipped = good;
        flipped[100] ^= 0x01;
        assert_xtcf_error(&flipped, "corrupt chunk 0: checksum");
    }

    #[test]
    fn truncated_query_response_is_a_typed_proto_error() {
        let w = ada_workload::gpcr_workload(120, 5, 9);
        let resp = ResponseEnvelope {
            id: 4,
            body: ResponseBody::Query(
                WireQueryReport::try_from(real_report(w.trajectory)).unwrap(),
            ),
        };
        let encoded = resp.encode();
        // The blob length prefix now promises more than the frame holds.
        match ResponseEnvelope::decode(&encoded[..encoded.len() - 1]) {
            Err(ProtoError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {:?}", other),
        }
    }

    #[test]
    fn truncated_request_is_typed() {
        let req = RequestEnvelope {
            id: 1,
            client: "c".into(),
            trace_id: 0,
            deadline_ns: 0,
            body: RequestBody::Ping,
        };
        let bytes = req.encode();
        for cut in [0, 5, bytes.len() - 1] {
            assert!(
                RequestEnvelope::decode(&bytes[..cut]).is_err(),
                "cut at {} must fail decode",
                cut
            );
        }
    }
}
