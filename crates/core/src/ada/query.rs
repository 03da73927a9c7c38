//! The read side as callers see it: `mol addfile <dataset>.xtc [tag <t>]`
//! ([`Ada::query`]) and the strided frame-range read of the sampling
//! workload ([`Ada::query_range`]). Both resolve the dataset's mode, run
//! the indexer, retrieve, then bump the tag heat, through the same three
//! helpers; the retrieval — which writes the answer's frames too — lives
//! in [`super::retrieve`]. A size-only dataset answers [`Ada::query`]
//! alone, with the volume its droppings hold.
//!
//! A caller that hands a whole tag on undecoded — the daemon, to a socket
//! — asks for the stored chunks instead ([`Ada::query_stored`]): the same
//! resolve / index / heat helpers, a fetch, and no retrieval at all.

use super::retrieve::{atoms_err, directory, real_bytes, xtcf_err, Take};
use super::{count_corrupt, op_span, Ada, DatasetState, Op, QueryReport, RetrievedData};
use crate::AdaError;
use ada_mdformats::xtcf::{verify_chunk, ChunkDirectory};
use ada_mdformats::{FormatError, Trajectory};
use ada_mdmodel::Tag;
use ada_plfs::IndexRecord;
use ada_simfs::Content;
use ada_storagesim::SimDuration;
use ada_telemetry::trace::TraceContext;
use ada_telemetry::Counter;
use std::collections::BTreeSet;
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
    /// Indexer tag-search time — the `QueryReport::indexer` of the same query.
    pub indexer: SimDuration,
    /// Backend read time — the `QueryReport::read` of the same query, cache off.
    pub read: SimDuration,
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

    /// The nominal chunk size (frames) the dropping was sealed with.
    pub fn chunk_frames(&self) -> u32 {
        self.dropping.dir.chunk_frames
    }

    /// The answer's chunks in order, each as `(body, nframes, crc)`: the
    /// chunk's frame records borrowed from the backend's bytes, and the
    /// frame count and CRC-32 its directory stores. A chunk is checked
    /// **as it is yielded** — `verify_chunk`, the check a decode makes (a
    /// corrupt chunk is the error [`Ada::query`] raises for it, counted in
    /// `xtcf.chunk.corrupt`), then the atom count its records carry against
    /// the label's — so nothing is held back while the rest is checked;
    /// stop at the first `Err`.
    pub fn chunks(&self) -> impl Iterator<Item = Result<(&[u8], u32, u32), AdaError>> + '_ {
        let d = &self.dropping;
        d.dir.entries.iter().enumerate().map(move |(c, e)| {
            let bytes = real_bytes(&d.record, &d.content)?;
            let body = verify_chunk(bytes, &d.dir, c).map_err(|e| {
                let e = xtcf_err(&d.record, e);
                count_corrupt(&self.corrupt, &e);
                e
            })?;
            // Every record declares the directory's count (verified).
            if e.natoms as usize != self.natoms {
                return Err(atoms_err(&d.record, 0, e.natoms as usize, self.natoms));
            }
            Ok((body, e.nframes, e.crc))
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
        let mode = if self.config.query_threads > 0 {
            "query_parallel"
        } else {
            "query"
        };
        self.traced(Op::Query, mode, parent, |ctx| {
            self.query_inner(dataset, tag, ctx)
        })
    }

    fn query_inner(
        &self,
        dataset: &str,
        tag: Option<&Tag>,
        ctx: &TraceContext,
    ) -> Result<QueryReport, AdaError> {
        let state = self.resolve(dataset, tag)?;
        let (records, indexer) = self.index(dataset, tag, ctx)?;

        let (data, read) = match &state {
            DatasetState::Synthetic { .. } => {
                let (contents, read) = self.fetch_in_order(records.iter(), ctx)?;
                let bytes = contents.iter().map(|c| c.len()).sum();
                (RetrievedData::Synthetic { bytes }, read)
            }
            DatasetState::Real { label } => {
                let takes = records.into_iter().map(|r| (r, Take::All)).collect();
                let (frames, read) = self.retrieve(dataset, label, tag.is_none(), takes, ctx)?;
                (RetrievedData::Real(Trajectory::from_frames(frames)), read)
            }
        };

        match tag {
            Some(t) => self.bump_heat(dataset, [t.clone()]),
            None => self.bump_heat(dataset, state.tags()),
        }
        Ok(QueryReport {
            indexer,
            read,
            data,
            profile: None, // cut from the op span's tree once it closes
        })
    }

    /// The whole of `tag` as its stored chunks, undecoded — for a caller
    /// that forwards them (the daemon's tagged `Query`). Runs what
    /// [`Ada::query`] runs up to the decode — resolve, index, read, under
    /// the same `ada.query` op span, `query.index` / `query.read` spans and
    /// `ada.query.*` counters, so the simulated `indexer` / `read` are the
    /// decoded path's — then parses the dropping's chunk directory and
    /// bumps the tag's heat as a query does. A size-only dataset stores no
    /// chunks: it is [`AdaError::size_only`], before anything is read. A
    /// dropping without a chunk directory is the `Xtcf` error a query
    /// raises for it; a tag without a dropping is short of every frame.
    /// The decoded-dropping cache is neither consulted nor filled: nothing
    /// here is decoded. The chunks are checked as [`StoredAnswer::chunks`]
    /// yields them, after this returns — a corrupt chunk is found once its
    /// predecessors are gone, and by then the heat is bumped.
    pub fn query_stored(
        &self,
        dataset: &str,
        tag: &Tag,
        parent: &TraceContext,
    ) -> Result<StoredAnswer, AdaError> {
        let (ctx, mut guard) = op_span(Op::Query.span(), parent);
        let res = self.query_stored_inner(dataset, tag, &ctx);
        if let Err(e) = &res {
            guard.set_error(e.kind());
        }
        drop(guard);
        self.observe(Op::Query, res)
    }

    fn query_stored_inner(
        &self,
        dataset: &str,
        tag: &Tag,
        ctx: &TraceContext,
    ) -> Result<StoredAnswer, AdaError> {
        let label = self.resolve(dataset, Some(tag))?.into_label()?;
        let natoms = label.ranges(tag)?.count();
        let (records, indexer) = self.index(dataset, Some(tag), ctx)?;
        let (contents, read) = self.fetch_in_order(records.iter(), ctx)?;
        let Some((record, content)) = records.into_iter().zip(contents).next() else {
            return Err(AdaError::FrameCountMismatch {
                tag: tag.to_string(),
                expected: label.nframes,
                got: 0,
            });
        };
        let dir = directory(&record, &content)?;
        self.bump_heat(dataset, [tag.clone()]);
        Ok(StoredAnswer {
            indexer,
            read,
            natoms,
            dropping: StoredDropping {
                record,
                content,
                dir,
            },
            corrupt: Arc::clone(&self.metrics.chunks_corrupt),
        })
    }

    /// Serve a frame-range read: every `stride`-th frame of `tag` in the
    /// half-open `window` — the ML-sampling access pattern (Atompack-style
    /// shuffled `(tag × frame-range)` reads, millions of small samples per
    /// training epoch). Consults the decoded-dropping cache first and runs
    /// the regular retrieval pipeline only for the chunks the selection
    /// actually touches. A size-only dataset is [`AdaError::size_only`].
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
        self.traced(Op::QueryRange, "query_range", parent, |ctx| {
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
        let label = self.resolve(dataset, Some(tag))?.into_label()?;
        let nframes = label.nframes;
        if stride == 0 || window.start >= window.end || window.end > nframes {
            return Err(AdaError::InvalidRange {
                start: window.start,
                end: window.end,
                stride,
                nframes,
            });
        }
        let (records, indexer) = self.index(dataset, Some(tag), ctx)?;
        let covered = records.first().map_or(0, |r| r.frames as usize);
        if window.end > covered {
            // The label promises more frames than the dropping holds — same
            // corruption a full query would surface.
            return Err(AdaError::FrameCountMismatch {
                tag: tag.to_string(),
                expected: nframes,
                got: covered,
            });
        }
        // The tag's one dropping holds its frames from 0: the selection is
        // its take, and the retriever checks only the chunks it touches.
        let take = Take::Frames(window.step_by(stride).collect());
        let takes = records.into_iter().zip([take]).collect();
        let (frames, read) = self.retrieve(dataset, &label, false, takes, ctx)?;

        // A range read counts as one access of the tag — the same heat
        // accounting as a tagged query.
        self.bump_heat(dataset, [tag.clone()]);
        Ok(QueryReport {
            indexer,
            read,
            data: RetrievedData::Real(Trajectory::from_frames(frames)),
            profile: None, // cut from the op span's tree once it closes
        })
    }

    /// The mode a query against `dataset` runs in, with `tag` (when given)
    /// checked against the tags the dataset actually has.
    fn resolve(&self, dataset: &str, tag: Option<&Tag>) -> Result<DatasetState, AdaError> {
        let state = self.state(dataset)?;
        match tag {
            Some(t) if !state.has_tag(t) => Err(AdaError::UnknownTag(t.to_string())),
            _ => Ok(state),
        }
    }

    /// Indexer: find the droppings, sorted into logical order. Ingest
    /// writes one dropping per tag, so a tag with a second one is a layout
    /// no reader knows: it is refused here, naming that dropping, before
    /// anything is fetched.
    fn index(
        &self,
        dataset: &str,
        tag: Option<&Tag>,
        ctx: &TraceContext,
    ) -> Result<(Vec<IndexRecord>, SimDuration), AdaError> {
        let _ts = ctx.span("query.index");
        let (mut records, indexer) = self.determinator.index_lookup(dataset, tag)?;
        records.sort_by_key(|r| r.logical_offset);
        let mut seen = BTreeSet::new();
        if let Some(second) = records.iter().find(|r| !seen.insert(r.tag.as_str())) {
            let why = format!("a second dropping of tag '{}'", second.tag);
            return Err(xtcf_err(second, FormatError::Corrupt(why)));
        }
        Ok((records, indexer))
    }

    /// Count one access of each tag a query touched. Called only once
    /// retrieval succeeded, so failed queries (unknown tags, lost
    /// droppings, corrupt data) don't skew tag-heat accounting.
    fn bump_heat(&self, dataset: &str, touched: impl IntoIterator<Item = Tag>) {
        let mut g = self.access.lock();
        let counts = g.entry(dataset.to_string()).or_default();
        for t in touched {
            *counts.entry(t).or_insert(0) += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{IngestInput, RetrievedData};
    use crate::synth::SyntheticDataset;
    use crate::AdaError;
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
        use ada_mdformats::xtcf::{read_xtcf, XtcfWriter};
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
        assert_eq!((stored.indexer, stored.read), (report.indexer, report.read));
        assert_eq!(stored_ada.cache_stats().bytes_decoded, 0);
        assert_eq!(
            stored_ada.access_counts("bar"),
            decoded_ada.access_counts("bar")
        );

        // The chunk bodies, end to end, are the v1 stream of the frames.
        let frames = frames_of(report);
        let mut body = XtcfWriter::new().into_bytes();
        let mut per_chunk = Vec::new();
        for chunk in stored.chunks() {
            let (bytes, nframes, crc) = chunk.unwrap();
            assert_eq!(crc, ada_mdformats::xtcf::crc32(bytes));
            body.extend_from_slice(bytes);
            per_chunk.push(nframes);
        }
        assert_eq!(per_chunk, [2, 2, 2, 1]);
        assert_eq!(stored.nframes(), 7);
        assert_eq!(stored.chunk_frames(), 2);
        assert_eq!(stored.natoms(), frames[0].len());
        assert_eq!(read_xtcf(&body).unwrap().frames, frames);

        // Failures are `query`'s, and leave no heat; a size-only dataset
        // has nothing stored to hand on, and no frames to range over.
        let err = stored_ada.query_stored("bar", &Tag::new("zz"), &ctx);
        assert_eq!(err.unwrap_err().kind(), "unknown_tag");
        let err = stored_ada.query_stored("nope", &tag, &ctx);
        assert_eq!(err.unwrap_err().kind(), "unknown_dataset");
        let spec = SyntheticDataset::gpcr_paper(626);
        stored_ada
            .ingest("big", IngestInput::Synthetic(spec))
            .unwrap();
        let size_only = AdaError::size_only().to_string();
        let err = stored_ada.query_stored("big", &tag, &ctx).unwrap_err();
        assert_eq!(err.to_string(), size_only);
        let err = stored_ada.query_range("big", &tag, 0..10, 2).unwrap_err();
        assert_eq!(err.to_string(), size_only);
        assert!(stored_ada.access_counts("big").is_empty());
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
        for (win, stride) in [(0..0, 1), (2..1, 1), (0..4, 1), (0..3, 0)] {
            let err = ada.query_range("bar", &t, win, stride).unwrap_err();
            assert_eq!(err.kind(), "invalid_range");
        }
        let err = ada
            .query_range("bar", &Tag::new("zz"), 0..1, 1)
            .unwrap_err();
        assert_eq!(err.kind(), "unknown_tag");
        let err = ada.query_range("nope", &t, 0..1, 1).unwrap_err();
        assert_eq!(err.kind(), "unknown_dataset");
        // Failed range reads leave no heat behind.
        assert!(ada.access_counts("bar").is_empty());
    }
}
