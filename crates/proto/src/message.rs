//! The request/response vocabulary of the wire — one body per operation
//! the remote `Frontend` runs — plus transport-friendly report types.
//!
//! A query's trajectory reaches the caller uncompressed, as one XTCF v2
//! chunk container (the on-disk dropping format): the compute node gets
//! the already-decompressed subset with every `f32` bit intact, and each
//! chunk's CRC-32 is verified by the same `decode_chunk` the server-side
//! cache uses. On the socket that container travels as a stream of its
//! chunks ([`crate::stream`]); the one-frame encoding of a `Query` body
//! below is what [`ResponseEnvelope::encode`] builds in memory, which the
//! server never sends and the client still accepts.

use std::collections::BTreeMap;

use ada_cache::CacheStats;
use ada_core::{AdaError, IngestReport, QueryReport, RetrievedData};
use ada_mdformats::xtcf::{decode_chunk, parse_directory, seal_v2, ChunkDirectory, XtcfWriter};
use ada_mdformats::{FormatError, Trajectory};
use ada_mdmodel::Tag;
use ada_storagesim::SimDuration;

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
    /// from it (`trace::root_remote`) so both halves of the request seal
    /// under one id. `0` = caller is not tracing.
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
    /// Answer to [`RequestBody::Ingest`].
    Ingest(WireIngestReport),
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
                rep.encode(&mut w);
            }
            ResponseBody::Query(rep) => {
                w.put_u8(2);
                rep.encode(&mut w);
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
            1 => ResponseBody::Ingest(WireIngestReport::decode(&mut r)?),
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

/// [`IngestReport`] minus the process-local wall-clock profile: the
/// simulated stage durations and stored-volume accounting, exactly as the
/// remote middleware computed them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireIngestReport {
    /// Dataset name.
    pub dataset: String,
    /// Decompression time (simulated ns).
    pub decompress_ns: u128,
    /// Categorizer time (simulated ns).
    pub categorize_ns: u128,
    /// Splitting/filter time (simulated ns).
    pub split_ns: u128,
    /// Backend write time (simulated ns).
    pub write_ns: u128,
    /// Label/index persistence time (simulated ns).
    pub label_write_ns: u128,
    /// Decompressed raw volume.
    pub raw_bytes: u64,
    /// Stored bytes per tag label, sorted by label.
    pub bytes_by_tag: Vec<(String, u64)>,
}

impl WireIngestReport {
    /// Strip an [`IngestReport`] to its wire form.
    pub fn from_report(rep: &IngestReport) -> WireIngestReport {
        WireIngestReport {
            dataset: rep.dataset.clone(),
            decompress_ns: rep.decompress.0,
            categorize_ns: rep.categorize.0,
            split_ns: rep.split.0,
            write_ns: rep.write.0,
            label_write_ns: rep.label_write.0,
            raw_bytes: rep.raw_bytes,
            bytes_by_tag: rep
                .bytes_by_tag
                .iter()
                .map(|(t, b)| (t.as_str().to_string(), *b))
                .collect(),
        }
    }

    /// Rebuild an [`IngestReport`] (the wall-clock `profile` stays on the
    /// server; it is meaningless in another process).
    pub fn into_report(self) -> IngestReport {
        IngestReport {
            dataset: self.dataset,
            decompress: SimDuration(self.decompress_ns),
            categorize: SimDuration(self.categorize_ns),
            split: SimDuration(self.split_ns),
            write: SimDuration(self.write_ns),
            label_write: SimDuration(self.label_write_ns),
            raw_bytes: self.raw_bytes,
            bytes_by_tag: self
                .bytes_by_tag
                .into_iter()
                .map(|(t, b)| (Tag::new(t), b))
                .collect::<BTreeMap<Tag, u64>>(),
            profile: None,
        }
    }

    fn encode(&self, w: &mut WireWriter) {
        w.put_str(&self.dataset);
        w.put_u128(self.decompress_ns);
        w.put_u128(self.categorize_ns);
        w.put_u128(self.split_ns);
        w.put_u128(self.write_ns);
        w.put_u128(self.label_write_ns);
        w.put_u64(self.raw_bytes);
        w.put_u32(self.bytes_by_tag.len().min(u32::MAX as usize) as u32);
        for (tag, bytes) in &self.bytes_by_tag {
            w.put_str(tag);
            w.put_u64(*bytes);
        }
    }

    fn decode(r: &mut WireReader) -> Result<WireIngestReport, ProtoError> {
        let dataset = r.get_str()?;
        let decompress_ns = r.get_u128()?;
        let categorize_ns = r.get_u128()?;
        let split_ns = r.get_u128()?;
        let write_ns = r.get_u128()?;
        let label_write_ns = r.get_u128()?;
        let raw_bytes = r.get_u64()?;
        let n = r.get_u32()? as usize;
        // Cap the pre-allocation by what the frame can actually hold
        // (each entry is ≥ 12 encoded bytes) so a hostile count cannot
        // balloon memory before the reads start failing.
        let mut bytes_by_tag = Vec::with_capacity(n.min(r.remaining() / 12 + 1));
        for _ in 0..n {
            let tag = r.get_str()?;
            let bytes = r.get_u64()?;
            bytes_by_tag.push((tag, bytes));
        }
        Ok(WireIngestReport {
            dataset,
            decompress_ns,
            categorize_ns,
            split_ns,
            write_ns,
            label_write_ns,
            raw_bytes,
            bytes_by_tag,
        })
    }
}

/// Frames per chunk of a query payload's XTCF v2 container — the on-disk
/// default (`AdaConfig::chunk_frames`), so a sealed answer has the shape
/// of a stored dropping.
pub const QUERY_CHUNK_FRAMES: usize = 64;

/// The data a query delivers, in wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WirePayload {
    /// The delivered frames, uncompressed, as one sealed XTCF v2 chunk
    /// container of at most [`QUERY_CHUNK_FRAMES`] frames per chunk.
    Xtcf(Vec<u8>),
    /// Size-only payload (synthetic datasets).
    Synthetic {
        /// Delivered bytes.
        bytes: u64,
        /// Frames represented.
        frames: u64,
        /// Atoms per delivered frame.
        atoms_per_frame: u64,
    },
}

/// [`QueryReport`] in wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireQueryReport {
    /// Indexer tag-search time (simulated ns).
    pub indexer_ns: u128,
    /// Backend read time (simulated ns).
    pub read_ns: u128,
    /// Delivered data.
    pub payload: WirePayload,
}

/// A query payload that fails XTCF validation, as the typed error a
/// corrupt stored dropping raises.
fn payload_err(source: FormatError) -> AdaError {
    AdaError::Xtcf {
        dropping: "query response payload".to_string(),
        source,
    }
}

/// The chunk directory of a query payload; a directory-less (v1) stream
/// is not a valid payload.
pub(crate) fn payload_directory(bytes: &[u8]) -> Result<ChunkDirectory, AdaError> {
    parse_directory(bytes).map_err(payload_err)?.ok_or_else(|| {
        payload_err(FormatError::Corrupt(
            "v1 stream carries no chunk directory".to_string(),
        ))
    })
}

impl WireQueryReport {
    /// Convert a middleware report for the wire: the delivered frames are
    /// written as XTCF records (an `XtcfWriter` sized for them up front)
    /// and sealed into one v2 chunk container.
    /// Fails (as a typed `AdaError::Xtcf`) only on frames of unequal atom
    /// counts, which no retrieval path produces.
    pub fn from_report(rep: &QueryReport) -> Result<WireQueryReport, AdaError> {
        let payload = match &rep.data {
            RetrievedData::Real(traj) => {
                let natoms = traj.natoms();
                let mut w = XtcfWriter::with_capacity(traj.len(), natoms);
                for f in &traj.frames {
                    w.write_frame(f).map_err(payload_err)?;
                }
                WirePayload::Xtcf(
                    seal_v2(w.into_bytes(), natoms, QUERY_CHUNK_FRAMES).map_err(payload_err)?,
                )
            }
            RetrievedData::Synthetic {
                bytes,
                frames,
                atoms_per_frame,
            } => WirePayload::Synthetic {
                bytes: *bytes,
                frames: *frames,
                atoms_per_frame: *atoms_per_frame,
            },
        };
        Ok(WireQueryReport {
            indexer_ns: rep.indexer.0,
            read_ns: rep.read.0,
            payload,
        })
    }

    /// Decode the payload back into frames (real-mode responses only),
    /// verifying every chunk's CRC; a bad chunk is an `AdaError::Xtcf`
    /// naming it.
    pub fn trajectory(&self) -> Result<Trajectory, AdaError> {
        match &self.payload {
            WirePayload::Xtcf(bytes) => {
                let dir = payload_directory(bytes)?;
                let mut frames = Vec::with_capacity(dir.nframes());
                for chunk in 0..dir.nchunks() {
                    frames.extend(decode_chunk(bytes, &dir, chunk).map_err(payload_err)?);
                }
                Ok(Trajectory::from_frames(frames))
            }
            WirePayload::Synthetic { .. } => Err(AdaError::Internal(
                "synthetic payload carries no frames".to_string(),
            )),
        }
    }

    /// Delivered decoded volume: frames × XTCF record bytes, read off the
    /// chunk directory without decoding (`0` for a payload whose
    /// directory does not parse — it delivers no frames).
    pub fn bytes(&self) -> u64 {
        match &self.payload {
            WirePayload::Xtcf(bytes) => payload_directory(bytes).map_or(0, |dir| {
                dir.entries.iter().map(|e| e.body_len() as u64).sum()
            }),
            WirePayload::Synthetic { bytes, .. } => *bytes,
        }
    }

    /// Exact size of [`WireQueryReport::encode`]'s output.
    fn encoded_len(&self) -> usize {
        16 + 16
            + 1
            + match &self.payload {
                WirePayload::Xtcf(bytes) => 4 + bytes.len(),
                WirePayload::Synthetic { .. } => 24,
            }
    }

    fn encode(&self, w: &mut WireWriter) {
        w.put_u128(self.indexer_ns);
        w.put_u128(self.read_ns);
        match &self.payload {
            WirePayload::Xtcf(bytes) => {
                w.put_u8(0);
                w.put_bytes(bytes);
            }
            WirePayload::Synthetic {
                bytes,
                frames,
                atoms_per_frame,
            } => {
                w.put_u8(1);
                w.put_u64(*bytes);
                w.put_u64(*frames);
                w.put_u64(*atoms_per_frame);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<WireQueryReport, ProtoError> {
        let indexer_ns = r.get_u128()?;
        let read_ns = r.get_u128()?;
        let payload = match r.get_u8()? {
            0 => WirePayload::Xtcf(r.get_bytes()?),
            1 => WirePayload::Synthetic {
                bytes: r.get_u64()?,
                frames: r.get_u64()?,
                atoms_per_frame: r.get_u64()?,
            },
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unknown payload discriminant {}",
                    other
                )))
            }
        };
        Ok(WireQueryReport {
            indexer_ns,
            read_ns,
            payload,
        })
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
    use ada_mdformats::xtcf::{frame_record_len, write_xtcf};

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
        let ingest = WireIngestReport {
            dataset: "ds".into(),
            decompress_ns: 1,
            categorize_ns: 2,
            split_ns: 3,
            write_ns: 4,
            label_write_ns: 5,
            raw_bytes: 1024,
            bytes_by_tag: vec![("m".into(), 7), ("p".into(), 1000)],
        };
        let resp = ResponseEnvelope {
            id: 9,
            body: ResponseBody::Ingest(ingest.clone()),
        };
        match ResponseEnvelope::decode(&resp.encode()).unwrap().body {
            ResponseBody::Ingest(back) => assert_eq!(back, ingest),
            other => panic!("wrong body {:?}", other),
        }

        let query = WireQueryReport {
            indexer_ns: 11,
            read_ns: 22,
            payload: WirePayload::Xtcf(vec![9, 8, 7]),
        };
        let resp = ResponseEnvelope {
            id: 10,
            body: ResponseBody::Query(query.clone()),
        };
        match ResponseEnvelope::decode(&resp.encode()).unwrap().body {
            ResponseBody::Query(back) => assert_eq!(back, query),
            other => panic!("wrong body {:?}", other),
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
            ResponseBody::Error(e) => assert_eq!(e.kind(), "unknown_dataset"),
            other => panic!("wrong body {:?}", other),
        }
    }

    #[test]
    fn ingest_report_round_trips_through_core_type() {
        let wire = WireIngestReport {
            dataset: "ds".into(),
            decompress_ns: 10,
            categorize_ns: 20,
            split_ns: 30,
            write_ns: 40,
            label_write_ns: 50,
            raw_bytes: 4096,
            bytes_by_tag: vec![("m".into(), 96), ("p".into(), 4000)],
        };
        let rep = wire.clone().into_report();
        assert_eq!(rep.total().0, 150);
        assert_eq!(WireIngestReport::from_report(&rep), wire);
    }

    fn real_report(traj: Trajectory) -> QueryReport {
        QueryReport {
            indexer: SimDuration(3),
            read: SimDuration(5),
            data: RetrievedData::Real(traj),
            profile: None,
        }
    }

    /// `from_report` → envelope → `trajectory()`, asserting bit identity.
    fn assert_round_trips(traj: Trajectory) {
        let wire = WireQueryReport::from_report(&real_report(traj.clone())).unwrap();
        assert_eq!(
            wire.bytes(),
            (traj.len() * frame_record_len(traj.natoms())) as u64
        );
        let resp = ResponseEnvelope {
            id: 1,
            body: ResponseBody::Query(wire.clone()),
        };
        let encoded = resp.encode();
        assert_eq!(encoded.len(), 9 + wire.encoded_len());
        assert_eq!(encoded.capacity(), encoded.len(), "encode re-allocated");
        let back = match ResponseEnvelope::decode(&encoded).unwrap().body {
            ResponseBody::Query(back) => back,
            other => panic!("wrong body {:?}", other),
        };
        assert_eq!(back, wire);
        let got = back.trajectory().unwrap();
        assert_eq!(got.len(), traj.len());
        // XTCF is bit-exact, so equal encodings mean every step, time,
        // box and coordinate has the same bits (`==` on the floats would
        // let `-0.0` pass for `0.0`).
        assert_eq!(write_xtcf(&got).unwrap(), write_xtcf(&traj).unwrap());
    }

    #[test]
    fn query_payload_round_trips_bit_identically_at_every_chunk_shape() {
        // Empty answer, one frame, exactly one chunk, one chunk plus a
        // ragged tail.
        for nframes in [0, 1, QUERY_CHUNK_FRAMES, QUERY_CHUNK_FRAMES + 7] {
            let w = ada_workload::gpcr_workload(120, nframes.max(1), 5);
            let mut traj = w.trajectory;
            traj.frames.truncate(nframes);
            if let Some(f) = traj.frames.first_mut() {
                // Values XTC quantization would not preserve.
                f.coords[0] = [f32::MIN_POSITIVE, -0.0, 1.000_000_1];
            }
            assert_round_trips(traj);
        }
    }

    #[test]
    fn query_payload_is_sealed_at_the_fixed_chunk_size() {
        let w = ada_workload::gpcr_workload(120, QUERY_CHUNK_FRAMES + 7, 5);
        let wire = WireQueryReport::from_report(&real_report(w.trajectory)).unwrap();
        let WirePayload::Xtcf(bytes) = &wire.payload else {
            panic!("real report must seal an XTCF payload");
        };
        let dir = parse_directory(bytes).unwrap().unwrap();
        assert_eq!(dir.chunk_nframes(), vec![QUERY_CHUNK_FRAMES as u32, 7]);
    }

    fn sealed_payload() -> Vec<u8> {
        let w = ada_workload::gpcr_workload(120, 5, 9);
        match WireQueryReport::from_report(&real_report(w.trajectory))
            .unwrap()
            .payload
        {
            WirePayload::Xtcf(bytes) => bytes,
            other => panic!("expected XTCF payload, got {:?}", other),
        }
    }

    fn report_of(bytes: Vec<u8>) -> WireQueryReport {
        WireQueryReport {
            indexer_ns: 0,
            read_ns: 0,
            payload: WirePayload::Xtcf(bytes),
        }
    }

    fn assert_xtcf_error(bytes: Vec<u8>, needle: &str) {
        let rep = report_of(bytes);
        assert_eq!(rep.bytes(), 0, "an unparsable payload delivers nothing");
        let err = rep.trajectory().unwrap_err();
        assert_eq!(err.kind(), "xtcf", "{}", err);
        assert!(err.to_string().contains(needle), "{}", err);
    }

    #[test]
    fn hostile_query_payloads_are_typed_errors() {
        let good = sealed_payload();
        assert_eq!(report_of(good.clone()).trajectory().unwrap().len(), 5);

        // Truncated directory: cut into the trailer, then into an entry.
        assert_xtcf_error(good[..good.len() - 1].to_vec(), "footer magic");
        let mut cut = good[..good.len() - 12 - 20].to_vec();
        cut.extend_from_slice(&good[good.len() - 12..]);
        assert_xtcf_error(cut, "corrupt chunk 0");

        // A v1 stream (what `XtcfWriter` emits before sealing) has no
        // directory to verify against.
        let w = ada_workload::gpcr_workload(120, 2, 9);
        assert_xtcf_error(write_xtcf(&w.trajectory).unwrap(), "no chunk directory");

        // Oversized declared chunk span: the single entry claims
        // u32::MAX frames of u32::MAX atoms. Rejected from the directory
        // alone — nothing is sized from the claim.
        let mut huge = good.clone();
        let entry = huge.len() - 12 - 20;
        huge[entry + 8..entry + 16].copy_from_slice(&[0xff; 8]);
        assert_xtcf_error(huge, "overruns");

        // A flipped body byte passes the directory and fails the chunk.
        let mut flipped = good;
        flipped[100] ^= 0x01;
        let err = report_of(flipped).trajectory().unwrap_err();
        assert_eq!(err.kind(), "xtcf");
        assert!(err.to_string().contains("corrupt chunk 0"), "{}", err);
    }

    #[test]
    fn truncated_query_response_is_a_typed_proto_error() {
        let resp = ResponseEnvelope {
            id: 4,
            body: ResponseBody::Query(report_of(sealed_payload())),
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
