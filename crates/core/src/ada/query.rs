//! The read side as callers see it: `mol addfile <dataset>.xtc [tag <t>]`
//! ([`Ada::query`]) and the strided frame-range read of the sampling
//! workload ([`Ada::query_range`]). Both run the indexer and retrieve
//! inside `Ada::read_live`, which resolves the dataset's label and its
//! generation, and lets the answer stand only if that generation is still
//! `Live` afterwards; the retrieval — which writes the answer's frames
//! too — lives in [`super::retrieve`].
//!
//! A caller that hands a whole tag on undecoded — the daemon, to a socket
//! — asks for the stored chunks instead ([`Ada::query_stored`]): the same
//! `read_live` and indexer, one read of the tag's dropping, and no
//! retrieval at all. Its [`StoredAnswer`] holds the chunks and what a
//! stream head announces (atoms, frames), and no simulated duration.

use super::retrieve::{atoms_err, directory, xtcf_err, Take};
use super::{count_corrupt, Ada, Op, QueryReport, RetrievedData};
use crate::determinator::indexer_cost;
use crate::labeler::{LabelFile, TagEntry};
use crate::AdaError;
use ada_mdformats::xtcf::{verify_chunk, ChunkDirectory};
use ada_mdformats::Trajectory;
use ada_mdmodel::Tag;
use ada_plfs::IndexRecord;
use ada_simfs::Content;
use ada_storagesim::SimDuration;
use ada_telemetry::trace::TraceContext;
use ada_telemetry::Counter;
use std::ops::Range;
use std::sync::Arc;

/// The fetched dropping of a [`StoredAnswer`].
#[derive(Debug)]
struct StoredDropping {
    record: IndexRecord,
    content: Content,
    dir: ChunkDirectory,
}

/// A whole tag as its stored XTCF v2 chunks, undecoded: what
/// [`Ada::query_stored`] answers with. The chunks sealed at ingest are
/// already the decompressed active subset, so a caller that ships them
/// on needs them checked, not decoded.
#[derive(Debug)]
pub struct StoredAnswer {
    natoms: usize,
    dropping: StoredDropping,
    /// The answering `Ada`'s `xtcf.chunk.corrupt`.
    corrupt: Arc<Counter>,
}

impl StoredAnswer {
    /// Atoms per frame: what the label says the tag selects.
    pub fn natoms(&self) -> usize {
        self.natoms
    }

    /// Frames the chunk directory declares.
    pub fn nframes(&self) -> usize {
        self.dropping.dir.nframes()
    }

    /// The answer's chunks in order, each as `(body, crc)`: the chunk's
    /// frame records borrowed from the backend's bytes, and the CRC-32 its
    /// directory stores. A chunk is checked **as it is yielded** —
    /// `verify_chunk`, the check a decode makes (a corrupt chunk is the
    /// error [`Ada::query`] raises for it, counted in `xtcf.chunk.corrupt`),
    /// then the atom count its records carry against the label's — so
    /// nothing is held back while the rest is checked; stop at the first
    /// `Err`.
    pub fn chunks(&self) -> impl Iterator<Item = Result<(&[u8], u32), AdaError>> + '_ {
        let d = &self.dropping;
        d.dir.entries.iter().enumerate().map(move |(c, e)| {
            let body = verify_chunk(d.content.bytes(), &d.dir, c).map_err(|e| {
                let e = xtcf_err(&d.record, e);
                count_corrupt(&self.corrupt, &e);
                e
            })?;
            // Every record declares the directory's count (verified).
            if e.natoms as usize != self.natoms {
                return Err(atoms_err(&d.record, 0, e.natoms as usize, self.natoms));
            }
            Ok((body, e.crc))
        })
    }
}

impl Ada {
    /// Serve `mol addfile <dataset>.xtc [tag <t>]`: deliver the requested
    /// subset, already decompressed.
    pub fn query(&self, dataset: &str, tag: Option<&Tag>) -> Result<QueryReport, AdaError> {
        self.query_traced(dataset, tag, &TraceContext::inactive())
    }

    /// [`Ada::query`] under an existing trace (see [`Ada::ingest_traced`]):
    /// index, read, cache lookup, a decode per checked chunk and a
    /// reassemble per unit each contribute a span to the request's tree.
    pub fn query_traced(
        &self,
        dataset: &str,
        tag: Option<&Tag>,
        parent: &TraceContext,
    ) -> Result<QueryReport, AdaError> {
        self.traced(Op::Query, parent, |ctx| self.query_inner(dataset, tag, ctx))
    }

    fn query_inner(
        &self,
        dataset: &str,
        tag: Option<&Tag>,
        ctx: &TraceContext,
    ) -> Result<QueryReport, AdaError> {
        self.read_live(dataset, tag, |label, generation| {
            let (entries, indexer) = match tag {
                Some(t) => self.index(label, t, ctx).map(|(e, cost)| (vec![e], cost))?,
                None => self.index_all(label, ctx),
            };
            let takes = entries.into_iter().map(|e| (e, Take::All)).collect();
            let full = tag.is_none();
            let (frames, read) = self.retrieve(dataset, generation, label, full, takes, ctx)?;
            Ok(QueryReport {
                indexer,
                read,
                data: RetrievedData::Real(Trajectory::from_frames(frames)),
            })
        })
    }

    /// The whole of `tag` as its stored chunks, undecoded — for a caller
    /// that forwards them (the daemon's tagged `Query`). Runs what
    /// [`Ada::query`] runs up to the decode — `read_live`, the index and
    /// one read of the tag's dropping, under the same `ada.query` op span,
    /// `query.index` / `query.read` spans and `ada.query.*` counters —
    /// then parses the dropping's chunk directory, inside `read_live` as a
    /// query is. The answer carries no simulated duration: only frames
    /// leave. A dropping without a chunk directory is the `Xtcf` error a
    /// query raises for it.
    /// The decoded-dropping cache is neither consulted nor filled: nothing
    /// here is decoded. The chunks are checked as [`StoredAnswer::chunks`]
    /// yields them, after this returns — a corrupt chunk is found once its
    /// predecessors are gone, and by then the call has counted as an
    /// `ada.query.ok`.
    pub fn query_stored(
        &self,
        dataset: &str,
        tag: &Tag,
        parent: &TraceContext,
    ) -> Result<StoredAnswer, AdaError> {
        self.traced(Op::Query, parent, |ctx| {
            self.query_stored_inner(dataset, tag, ctx)
        })
    }

    fn query_stored_inner(
        &self,
        dataset: &str,
        tag: &Tag,
        ctx: &TraceContext,
    ) -> Result<StoredAnswer, AdaError> {
        self.read_live(dataset, Some(tag), |label, _| {
            let (entry, _) = self.index(label, tag, ctx)?;
            let content = {
                let mut ts = ctx.span("query.read");
                let (content, _) = self.containers.read_dropping(&entry.dropping)?;
                ts.arg("bytes", content.len());
                content
            };
            let dir = directory(&entry.dropping, &content)?;
            Ok(StoredAnswer {
                natoms: entry.ranges.count(),
                dropping: StoredDropping {
                    record: entry.dropping.clone(),
                    content,
                    dir,
                },
                corrupt: Arc::clone(&self.metrics.chunks_corrupt),
            })
        })
    }

    /// Serve a frame-range read: every `stride`-th frame of `tag` in the
    /// half-open `window` — the ML-sampling access pattern (Atompack-style
    /// shuffled `(tag × frame-range)` reads, millions of small samples per
    /// training epoch). Consults the decoded-dropping cache first and runs
    /// the regular retrieval pipeline only for the chunks the selection
    /// actually touches.
    ///
    /// Equivalence contract: `query_range(ds, t, 0..nframes, 1)` returns
    /// frames byte-identical to `query(ds, Some(t))`, cache on or off.
    pub fn query_range(
        &self,
        dataset: &str,
        tag: &Tag,
        window: Range<usize>,
        stride: usize,
    ) -> Result<QueryReport, AdaError> {
        self.query_range_traced(dataset, tag, window, stride, &TraceContext::inactive())
    }

    /// [`Ada::query_range`] under an existing trace (see
    /// [`Ada::query_traced`]).
    pub fn query_range_traced(
        &self,
        dataset: &str,
        tag: &Tag,
        window: Range<usize>,
        stride: usize,
        parent: &TraceContext,
    ) -> Result<QueryReport, AdaError> {
        self.traced(Op::QueryRange, parent, |ctx| {
            self.query_range_inner(dataset, tag, window, stride, ctx)
        })
    }

    fn query_range_inner(
        &self,
        dataset: &str,
        tag: &Tag,
        window: Range<usize>,
        stride: usize,
        ctx: &TraceContext,
    ) -> Result<QueryReport, AdaError> {
        self.read_live(dataset, Some(tag), |label, generation| {
            let nframes = label.nframes;
            if stride == 0 || window.start >= window.end || window.end > nframes {
                return Err(AdaError::InvalidRange {
                    start: window.start,
                    end: window.end,
                    stride,
                    nframes,
                });
            }
            let (entry, indexer) = self.index(label, tag, ctx)?;
            // The tag's one dropping holds its frames from 0: the selection
            // is its take, and the retriever checks only the chunks it
            // touches (and refuses a window past the frames its directory
            // declares).
            let end = window.end;
            let take = Take::Frames {
                sel: window.step_by(stride).collect(),
                end,
            };
            let takes = vec![(entry, take)];
            let (frames, read) = self.retrieve(dataset, generation, label, false, takes, ctx)?;
            Ok(QueryReport {
                indexer,
                read,
                data: RetrievedData::Real(Trajectory::from_frames(frames)),
            })
        })
    }

    /// Indexer: `tag`'s label entry — its ranges and its one stored
    /// dropping — charged the tag search over every entry.
    fn index<'l>(
        &self,
        label: &'l LabelFile,
        tag: &Tag,
        ctx: &TraceContext,
    ) -> Result<(&'l TagEntry, SimDuration), AdaError> {
        let _ts = ctx.span("query.index");
        Ok((label.entry(tag)?, indexer_cost(label.entries().len())))
    }

    /// Indexer of a full-frame query: every label entry, in label order,
    /// charged as [`Ada::index`] is.
    fn index_all<'l>(
        &self,
        label: &'l LabelFile,
        ctx: &TraceContext,
    ) -> (Vec<&'l TagEntry>, SimDuration) {
        let _ts = ctx.span("query.index");
        (
            label.entries().values().collect(),
            indexer_cost(label.entries().len()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::RetrievedData;
    use crate::{AdaError, ErrorKind};
    use ada_mdformats::Frame;
    use ada_mdmodel::Tag;

    #[test]
    fn query_all_reassembles_full_frames() {
        let ada = make_ada();
        let (input, w) = real_input(900, 2);
        ada.ingest("bar", input).unwrap();
        let q = ada.query("bar", None).unwrap();
        match q.data {
            RetrievedData::Real(traj) => {
                assert_eq!(traj.natoms(), w.system.len());
                assert_eq!(traj.len(), 2);
                for (a, b) in traj.frames[0]
                    .coords
                    .iter()
                    .zip(&w.trajectory.frames[0].coords)
                {
                    for d in 0..3 {
                        assert!((a[d] - b[d]).abs() < 0.5 / 1000.0 + 1e-6);
                    }
                }
            }
            _ => panic!("expected real data"),
        }
    }

    #[test]
    fn protein_query_reads_less_than_all() {
        let ada = make_ada();
        let (input, _) = real_input(2000, 3);
        ada.ingest("bar", input).unwrap();
        let qp = ada.query("bar", Some(&Tag::protein())).unwrap();
        let qa = ada.query("bar", None).unwrap();
        assert!(qp.data.bytes() < qa.data.bytes());
        // Protein lives on the fast backend: tagged read is much faster.
        assert!(qp.read < qa.read);
    }

    #[test]
    fn unknown_tag_and_dataset_errors() {
        let ada = make_ada();
        assert!(matches!(
            ada.query("nope", None),
            Err(AdaError::UnknownDataset(_))
        ));
        let (input, _) = real_input(800, 1);
        ada.ingest("bar", input).unwrap();
        assert!(matches!(
            ada.query("bar", Some(&Tag::new("zzz"))),
            Err(AdaError::UnknownTag(_))
        ));
    }

    #[test]
    fn stored_answer_is_the_tagged_query_undecoded() {
        use ada_mdformats::xtcf::{frame_record_len, read_xtcf, XtcfWriter};
        // 7 frames sealed in chunks of 2: a ragged last chunk.
        let config = |query_threads| super::super::AdaConfig {
            query_threads,
            ..cached_config(2, ada_cache::CacheConfig::default())
        };
        let (stored_ada, decoded_ada) = (make_ada_with(config(4)), make_ada_with(config(0)));
        for ada in [&stored_ada, &decoded_ada] {
            let (input, _) = real_input(900, 7);
            ada.ingest("bar", input).unwrap();
        }
        let tag = Tag::protein();
        let ctx = ada_telemetry::trace::TraceContext::inactive();
        let stored = stored_ada.query_stored("bar", &tag, &ctx).unwrap();
        let report = decoded_ada.query("bar", Some(&tag)).unwrap();
        assert_eq!(stored_ada.cache_stats().bytes_decoded, 0);
        // Each counts as one successful query.
        for ada in [&stored_ada, &decoded_ada] {
            assert_eq!(outcomes(ada), ["ingest.ok=1", "query.ok=1"]);
        }

        // The chunk bodies, end to end, are the v1 stream of the frames.
        // Each chunk's frame count is its length over the record length.
        let frames = frames_of(report);
        let record = frame_record_len(stored.natoms());
        let mut body = XtcfWriter::new().into_bytes();
        let mut per_chunk = Vec::new();
        for chunk in stored.chunks() {
            let (bytes, crc) = chunk.unwrap();
            assert_eq!(crc, ada_mdformats::xtcf::crc32(bytes));
            assert_eq!(bytes.len() % record, 0, "a chunk is whole records");
            body.extend_from_slice(bytes);
            per_chunk.push(bytes.len() / record);
        }
        assert_eq!(per_chunk, [2, 2, 2, 1]);
        assert_eq!(stored.nframes(), 7);
        assert_eq!(stored.natoms(), frames[0].len());
        assert_eq!(read_xtcf(&body).unwrap().frames, frames);

        // Failures are `query`'s, counted as its errors and never as a
        // success.
        let err = stored_ada.query_stored("bar", &Tag::new("zz"), &ctx);
        assert_eq!(err.unwrap_err().error_kind(), ErrorKind::UnknownTag);
        let err = stored_ada.query_stored("nope", &tag, &ctx);
        assert_eq!(err.unwrap_err().error_kind(), ErrorKind::UnknownDataset);
        assert_eq!(
            outcomes(&stored_ada),
            [
                "ingest.ok=1",
                "query.err.unknown_dataset=1",
                "query.err.unknown_tag=1",
                "query.ok=1"
            ]
        );
    }

    #[test]
    fn query_range_full_window_equals_tagged_query() {
        let ada = make_ada_with(cached_config(2, ada_cache::CacheConfig::default()));
        let (input, _) = real_input(1200, 6);
        ada.ingest("bar", input).unwrap();
        for tag in [Tag::protein(), Tag::misc()] {
            let full = frames_of(ada.query("bar", Some(&tag)).unwrap());
            let ranged = frames_of(ada.query_range("bar", &tag, 0..6, 1).unwrap());
            assert_eq!(full, ranged);
        }
    }

    #[test]
    fn query_range_strided_window_selects_exactly() {
        let ada = make_ada_with(cached_config(2, hot_cache_cfg()));
        let (input, _) = real_input(1000, 7);
        ada.ingest("bar", input).unwrap();
        let tag = Tag::protein();
        let full = frames_of(ada.query("bar", Some(&tag)).unwrap());
        let ranged = frames_of(ada.query_range("bar", &tag, 1..6, 2).unwrap());
        let expect: Vec<Frame> = (1..6).step_by(2).map(|i| full[i].clone()).collect();
        assert_eq!(ranged, expect);
        // And again, now served from the cache: still identical.
        let again = frames_of(ada.query_range("bar", &tag, 1..6, 2).unwrap());
        assert_eq!(again, expect);
        assert!(ada.cache_stats().hits > 0);
    }

    #[test]
    fn query_range_validates_inputs() {
        let ada = make_ada();
        let (input, _) = real_input(800, 3);
        ada.ingest("bar", input).unwrap();
        let t = Tag::protein();
        for (win, stride) in [
            (0..0, 1),
            (std::ops::Range { start: 2, end: 1 }, 1),
            (0..4, 1),
            (0..3, 0),
        ] {
            let err = ada.query_range("bar", &t, win, stride).unwrap_err();
            assert_eq!(err.error_kind(), ErrorKind::InvalidRange);
        }
        let err = ada
            .query_range("bar", &Tag::new("zz"), 0..1, 1)
            .unwrap_err();
        assert_eq!(err.error_kind(), ErrorKind::UnknownTag);
        let err = ada.query_range("nope", &t, 0..1, 1).unwrap_err();
        assert_eq!(err.error_kind(), ErrorKind::UnknownDataset);
        // Failed range reads count as failures of their kind, never as a
        // success.
        assert_eq!(
            outcomes(&ada),
            [
                "ingest.ok=1",
                "query_range.err.invalid_range=4",
                "query_range.err.unknown_dataset=1",
                "query_range.err.unknown_tag=1"
            ]
        );
    }
}
