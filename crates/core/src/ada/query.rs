//! The read side as callers see it: `mol addfile <dataset>.xtc [tag <t>]`
//! ([`Ada::query`]) and the strided frame-range read of the sampling
//! workload ([`Ada::query_range`]). Both resolve the dataset's mode, run
//! the indexer, read (size-only datasets) or retrieve + reassemble (real
//! ones), then bump the tag heat, through the same four helpers; the
//! retrieval itself lives in [`super::retrieve`].
//!
//! A caller that hands a whole tag on undecoded — the daemon, to a socket
//! — asks for the stored chunks instead ([`Ada::query_stored`]): the same
//! resolve / index / read / heat helpers, and no retrieval at all.

use super::retrieve::{atoms_err, chunk_err, real_bytes, xtcf_err, FrameSelection};
use super::{observe, op_span, traced, Ada, DatasetState, QueryReport, RetrievedData};
use crate::labeler::LabelFile;
use crate::AdaError;
use ada_cache::DecodedDropping;
use ada_mdformats::xtcf::{
    frame_record_len, parse_directory, verify_chunk, ChunkDirectory, XTCF_HEADER_LEN,
};
use ada_mdformats::{Frame, Trajectory};
use ada_mdmodel::Tag;
use ada_plfs::IndexRecord;
use ada_simfs::Content;
use ada_storagesim::SimDuration;
use ada_telemetry::trace::TraceContext;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// One fetched v2 dropping of a [`StoredAnswer`].
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
    droppings: Vec<StoredDropping>,
}

impl StoredAnswer {
    /// Atoms per frame: what the label says the tag selects.
    pub fn natoms(&self) -> usize {
        self.natoms
    }

    /// Frames the chunk directories declare, all droppings together.
    pub fn nframes(&self) -> usize {
        self.droppings.iter().map(|d| d.dir.nframes()).sum()
    }

    /// The nominal chunk size (frames) the droppings were sealed with.
    pub fn chunk_frames(&self) -> u32 {
        self.droppings.first().map_or(0, |d| d.dir.chunk_frames)
    }

    /// The answer's chunks in (dropping, chunk) order, each as `(body,
    /// nframes, crc)`: the chunk's frame records borrowed from the
    /// backend's bytes, and the frame count and CRC-32 its directory
    /// stores. A chunk is checked **as it is yielded** — `verify_chunk`,
    /// the check a decode makes (a corrupt chunk is the error
    /// [`Ada::query`] raises for it, counted in `xtcf.chunk.corrupt`), then
    /// the atom count its records carry against the label's — so nothing
    /// is held back while the rest is checked; stop at the first `Err`.
    pub fn chunks(&self) -> impl Iterator<Item = Result<(&[u8], u32, u32), AdaError>> + '_ {
        self.droppings.iter().flat_map(move |d| {
            d.dir.entries.iter().enumerate().map(move |(c, e)| {
                let bytes = real_bytes(&d.record, &d.content)?;
                let body = verify_chunk(bytes, &d.dir, c).map_err(|e| chunk_err(&d.record, e))?;
                // Every record declares the directory's count (verified).
                if e.natoms as usize != self.natoms {
                    return Err(atoms_err(&d.record, 0, e.natoms as usize, self.natoms));
                }
                Ok((body, e.nframes, e.crc))
            })
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
    /// index, read, per-unit decode, cache lookup, and reassemble each
    /// contribute a span to the request's tree.
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
        traced("ada.query", mode, parent, |ctx| {
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
            DatasetState::Synthetic { spec } => {
                let (bytes, read) = self.read_sizes(records.iter(), ctx)?;
                let atoms_per_frame = match tag {
                    Some(t) => spec.atoms_by_tag.get(t).copied().unwrap_or(0),
                    None => spec.natoms,
                };
                let data = RetrievedData::Synthetic {
                    bytes,
                    frames: spec.frames,
                    atoms_per_frame,
                };
                (data, read)
            }
            DatasetState::Real { label } => {
                let indexed: Vec<(usize, IndexRecord, FrameSelection)> = records
                    .into_iter()
                    .enumerate()
                    .map(|(i, r)| (i, r, None))
                    .collect();
                let (fetched, read) = self.retrieve_droppings(dataset, label, indexed, ctx)?;
                let mut per_tag: BTreeMap<Tag, Vec<Frame>> = BTreeMap::new();
                for (_, tag, payload) in fetched {
                    // Unwrap a sole Arc (cache off, or evicted since the
                    // lookup) to move the frames; clone otherwise.
                    let frames = match Arc::try_unwrap(payload) {
                        Ok(owned) => owned.into_frames(),
                        Err(shared) => shared.cloned_frames(),
                    }
                    .ok_or_else(|| {
                        AdaError::Internal(format!(
                            "retrieval returned an incomplete dropping for tag '{}'",
                            tag
                        ))
                    })?;
                    per_tag.entry(Tag::new(tag)).or_default().extend(frames);
                }
                let traj = {
                    let mut ts = ctx.span("query.reassemble");
                    let traj = reassemble(label, tag, per_tag)?;
                    ts.arg("bytes", traj.nbytes());
                    ts.arg("frames", traj.len());
                    traj
                };
                (RetrievedData::Real(traj), read)
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
    /// decoded path's — then parses every dropping's chunk directory and
    /// bumps the tag's heat as a query does. `Ok(None)` when there is
    /// nothing stored to forward — a size-only dataset, or a v1 dropping
    /// (no directory, no CRCs) among the tag's: nothing was counted, and
    /// the caller runs [`Ada::query_traced`]. The decoded-dropping cache is
    /// neither consulted nor filled: nothing here is decoded. The chunks
    /// are checked as [`StoredAnswer::chunks`] yields them, after this
    /// returns — a corrupt chunk is found once its predecessors are gone,
    /// and by then the heat is bumped.
    pub fn query_stored(
        &self,
        dataset: &str,
        tag: &Tag,
        parent: &TraceContext,
    ) -> Result<Option<StoredAnswer>, AdaError> {
        let (ctx, mut guard) = op_span("ada.query", parent);
        let res = self.query_stored_inner(dataset, tag, &ctx);
        if let Err(e) = &res {
            guard.set_error(e.kind());
        }
        drop(guard);
        match res {
            Ok(None) => Ok(None),
            decided => observe("query", decided),
        }
    }

    fn query_stored_inner(
        &self,
        dataset: &str,
        tag: &Tag,
        ctx: &TraceContext,
    ) -> Result<Option<StoredAnswer>, AdaError> {
        let DatasetState::Real { label } = self.resolve(dataset, Some(tag))? else {
            return Ok(None);
        };
        let natoms = label.ranges(tag)?.count();
        let (records, indexer) = self.index(dataset, Some(tag), ctx)?;
        let (contents, read) = self.fetch_in_order(records.iter(), ctx)?;
        let mut droppings = Vec::with_capacity(records.len());
        for (record, content) in records.into_iter().zip(contents) {
            let parsed = parse_directory(real_bytes(&record, &content)?);
            let Some(dir) = parsed.map_err(|e| xtcf_err(&record, e))? else {
                return Ok(None);
            };
            droppings.push(StoredDropping {
                record,
                content,
                dir,
            });
        }
        self.bump_heat(dataset, [tag.clone()]);
        Ok(Some(StoredAnswer {
            indexer,
            read,
            natoms,
            droppings,
        }))
    }

    /// Serve a frame-range read: every `stride`-th frame of `tag` in the
    /// half-open `window` — the ML-sampling access pattern (Atompack-style
    /// shuffled `(tag × frame-range)` reads, millions of small samples per
    /// training epoch). Consults the decoded-dropping cache first and runs
    /// the regular retrieval pipeline only for the droppings the selection
    /// actually touches; with `cache.readahead > 0`, the droppings just
    /// past the window are decoded and admitted too, so the next
    /// sequential window starts hot.
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
    /// [`Ada::query_traced`]); cache readahead shows up as its own span.
    pub fn query_range_traced(
        &self,
        dataset: &str,
        tag: &Tag,
        window: Range<usize>,
        stride: usize,
        parent: &TraceContext,
    ) -> Result<QueryReport, AdaError> {
        traced("ada.query_range", "query_range", parent, |ctx| {
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
        let state = self.resolve(dataset, Some(tag))?;
        let nframes = state.nframes();
        if stride == 0 || window.start >= window.end || window.end > nframes {
            return Err(AdaError::InvalidRange {
                start: window.start,
                end: window.end,
                stride,
                nframes,
            });
        }
        let (records, indexer) = self.index(dataset, Some(tag), ctx)?;
        let selected: Vec<usize> = window.clone().step_by(stride).collect();

        let (data, read) = match &state {
            DatasetState::Synthetic { spec } => {
                // Size-only content: droppings cover the frame space
                // evenly, so read just the ones the selection touches.
                let per = nframes.div_ceil(records.len().max(1)).max(1);
                let mut needed: Vec<usize> = Vec::new();
                for f in &selected {
                    let d = (*f / per).min(records.len().saturating_sub(1));
                    if needed.last() != Some(&d) {
                        needed.push(d);
                    }
                }
                let touched = needed.into_iter().filter_map(|d| records.get(d));
                let (bytes, read) = self.read_sizes(touched, ctx)?;
                let data = RetrievedData::Synthetic {
                    bytes,
                    frames: selected.len() as u64,
                    atoms_per_frame: spec.atoms_by_tag.get(tag).copied().unwrap_or(0),
                };
                (data, read)
            }
            DatasetState::Real { label } => {
                let natoms = label.ranges(tag)?.count();
                let spans = dropping_frame_spans(&records, natoms);
                let covered = spans.last().map_or(0, |s| s.1);
                if window.end > covered {
                    // The label promises more frames than the droppings
                    // hold — same corruption a full query would surface.
                    return Err(AdaError::FrameCountMismatch {
                        tag: tag.to_string(),
                        expected: label.nframes,
                        got: covered,
                    });
                }

                // Map the selection onto droppings (both are ascending),
                // keeping each needed dropping's local frame list so the
                // retriever decodes only the chunks those frames touch.
                let mut needed: Vec<usize> = Vec::new();
                let mut local_sel: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                let mut d = 0usize;
                for f in &selected {
                    while d < spans.len() && spans[d].1 <= *f {
                        d += 1;
                    }
                    if d >= spans.len() {
                        return Err(AdaError::Internal(format!(
                            "frame {} escaped the dropping spans of tag '{}'",
                            f, tag
                        )));
                    }
                    if needed.last() != Some(&d) {
                        needed.push(d);
                    }
                    local_sel.entry(d).or_default().push(*f - spans[d].0);
                }

                // Sequential readahead: also decode the droppings just
                // past the window so the next window starts hot. Insert-
                // only — their frames are not part of this reply.
                let mut fetch_ids = needed.clone();
                if self.cache.enabled() && self.config.cache.readahead > 0 {
                    if let Some(&last) = needed.last() {
                        let upto = last
                            .saturating_add(self.config.cache.readahead)
                            .min(spans.len().saturating_sub(1));
                        for ahead in last + 1..=upto {
                            fetch_ids.push(ahead);
                        }
                        if fetch_ids.len() > needed.len() {
                            // Marker span: how many droppings beyond the
                            // window this request pre-warmed (the fetch
                            // itself is traced in the retrieval spans).
                            let mut ts = ctx.span("cache.readahead");
                            ts.arg("droppings", fetch_ids.len() - needed.len());
                        }
                    }
                }
                let want: std::collections::BTreeSet<usize> = fetch_ids.into_iter().collect();
                // Readahead droppings (no local selection) decode whole —
                // they exist to warm the cache for the next window.
                let indexed: Vec<(usize, IndexRecord, FrameSelection)> = records
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| want.contains(i))
                    .map(|(i, r)| {
                        let sel = local_sel.get(&i).cloned();
                        (i, r, sel)
                    })
                    .collect();

                let (fetched, read) = self.retrieve_droppings(dataset, label, indexed, ctx)?;
                let by_dropping: BTreeMap<usize, Arc<DecodedDropping>> =
                    fetched.into_iter().map(|(i, _tag, p)| (i, p)).collect();

                // Assemble the reply, cloning only the chosen frames.
                let mut frames: Vec<Frame> = Vec::with_capacity(selected.len());
                {
                    let mut ts = ctx.span("query.reassemble");
                    for f in &selected {
                        let d = spans.partition_point(|(_, end)| *end <= *f);
                        let frame = spans
                            .get(d)
                            .and_then(|(start, _)| {
                                by_dropping.get(&d).and_then(|p| p.frame(f - start))
                            })
                            .ok_or_else(|| {
                                AdaError::Internal(format!(
                                    "dropping {} of tag '{}' is missing frame {}",
                                    d, tag, f
                                ))
                            })?;
                        frames.push(frame.clone());
                    }
                    let bytes: u64 = frames.iter().map(|f| f.nbytes() as u64).sum();
                    ts.arg("bytes", bytes);
                    ts.arg("frames", frames.len());
                }
                (RetrievedData::Real(Trajectory::from_frames(frames)), read)
            }
        };

        // A range read counts as one access of the tag — the same heat
        // accounting as a tagged query.
        self.bump_heat(dataset, [tag.clone()]);
        Ok(QueryReport {
            indexer,
            read,
            data,
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

    /// Indexer: find the droppings, sorted into logical order.
    fn index(
        &self,
        dataset: &str,
        tag: Option<&Tag>,
        ctx: &TraceContext,
    ) -> Result<(Vec<IndexRecord>, SimDuration), AdaError> {
        let _ts = ctx.span("query.index");
        let (mut records, indexer) = self.determinator.index_lookup(dataset, tag)?;
        records.sort_by_key(|r| r.logical_offset);
        Ok((records, indexer))
    }

    /// The whole read side of a size-only dataset: fetch the droppings in
    /// order and report their volume.
    fn read_sizes<'a>(
        &self,
        records: impl Iterator<Item = &'a IndexRecord>,
        ctx: &TraceContext,
    ) -> Result<(u64, SimDuration), AdaError> {
        let (contents, read) = self.fetch_in_order(records, ctx)?;
        Ok((contents.iter().map(|c| c.len()).sum(), read))
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

/// Cumulative frame spans of a tag's droppings in logical order:
/// `spans[i] = (first_frame, end_frame)` of `records[i]`. Droppings
/// indexed with a frame count use it directly; legacy records (`frames ==
/// 0`, written before the index carried frame counts) fall back to byte
/// arithmetic, which is exact for v1 files — the tag's atom count fixes
/// the record length. No dropping bytes are touched either way.
fn dropping_frame_spans(records: &[IndexRecord], natoms: usize) -> Vec<(usize, usize)> {
    let record_len = frame_record_len(natoms).max(1);
    let mut spans = Vec::with_capacity(records.len());
    let mut at = 0usize;
    for r in records {
        let nf = if r.frames > 0 {
            r.frames as usize
        } else {
            (r.len as usize).saturating_sub(XTCF_HEADER_LEN) / record_len
        };
        spans.push((at, at + nf));
        at += nf;
    }
    spans
}

/// Reassemble the delivered trajectory from per-tag frame subsets: a
/// tagged query hands back that tag's frames verbatim; a full-frame query
/// lays every tag's subset back into its label ranges. The ranges of all
/// tags, sorted by where they start, are the order an output frame is
/// written in, so each frame is *appended* piece by piece — zeros only
/// across atoms no tag covers, and where two tags' ranges overlap the
/// piece that starts later lands on top. Each tag must contribute exactly
/// the label's frame count — a mismatch means a corrupt or foreign
/// dropping, and truncating to the shortest subset would silently drop
/// frames.
fn reassemble(
    label: &LabelFile,
    tag: Option<&Tag>,
    mut per_tag: BTreeMap<Tag, Vec<Frame>>,
) -> Result<Trajectory, AdaError> {
    if let Some(t) = tag {
        return Ok(Trajectory::from_frames(
            per_tag.remove(t).unwrap_or_default(),
        ));
    }
    // One piece per label range: (start, len, tag, offset in that tag's
    // subset). Decode validated every subset frame against its ranges'
    // atom count, so `offset + len` is inside it.
    let mut pieces: Vec<(usize, usize, usize, usize)> = Vec::new();
    let mut subsets: Vec<&[Frame]> = Vec::with_capacity(per_tag.len());
    for (t, sub_frames) in &per_tag {
        if sub_frames.len() != label.nframes {
            return Err(AdaError::FrameCountMismatch {
                tag: t.to_string(),
                expected: label.nframes,
                got: sub_frames.len(),
            });
        }
        let mut offset = 0usize;
        for r in label.ranges(t)?.iter_ranges() {
            pieces.push((r.start, r.len(), subsets.len(), offset));
            offset += r.len();
        }
        subsets.push(sub_frames);
    }
    pieces.sort_by_key(|&(start, ..)| start);
    // Step, time and box are the same in every tag's copy of a frame.
    let heads = subsets.first().copied().unwrap_or_default();
    let frames = heads
        .iter()
        .enumerate()
        .map(|(i, head)| {
            let mut coords: Vec<[f32; 3]> = Vec::with_capacity(label.natoms);
            for &(start, len, t, offset) in &pieces {
                let src = &subsets[t][i].coords[offset..offset + len];
                if coords.len() < start {
                    coords.resize(start, [0.0; 3]);
                }
                let overlap = (coords.len() - start).min(len);
                coords[start..start + overlap].copy_from_slice(&src[..overlap]);
                coords.extend_from_slice(&src[overlap..]);
            }
            coords.resize(label.natoms, [0.0; 3]);
            Frame {
                step: head.step,
                time: head.time,
                pbc: head.pbc,
                coords,
            }
        })
        .collect();
    Ok(Trajectory::from_frames(frames))
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{IngestInput, RetrievedData};
    use super::reassemble;
    use crate::labeler::LabelFile;
    use crate::synth::SyntheticDataset;
    use crate::AdaError;
    use ada_mdformats::{Frame, Trajectory};
    use ada_mdmodel::{IndexRanges, PbcBox, Tag};
    use std::collections::BTreeMap;

    /// The full-frame reassembly the piece list replaced — a zero-filled
    /// frame per output frame, then one scatter per tag in tag order —
    /// kept as the reference it is checked against.
    fn reassemble_scatter(
        label: &LabelFile,
        per_tag: &BTreeMap<Tag, Vec<Frame>>,
    ) -> Result<Trajectory, AdaError> {
        let mut full: Option<Vec<Frame>> = None;
        for (t, sub_frames) in per_tag {
            if sub_frames.len() != label.nframes {
                return Err(AdaError::FrameCountMismatch {
                    tag: t.to_string(),
                    expected: label.nframes,
                    got: sub_frames.len(),
                });
            }
            let ranges = label.ranges(t)?;
            let frames = full.get_or_insert_with(|| {
                sub_frames
                    .iter()
                    .map(|f| Frame {
                        step: f.step,
                        time: f.time,
                        pbc: f.pbc,
                        coords: vec![[0.0; 3]; label.natoms],
                    })
                    .collect()
            });
            for (dst, src) in frames.iter_mut().zip(sub_frames) {
                ranges.scatter(&src.coords, &mut dst.coords);
            }
        }
        Ok(Trajectory::from_frames(full.unwrap_or_default()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]
        #[test]
        fn prop_reassemble_equals_the_scatter_reference(
            seed: u64,
            natoms in 0usize..48,
            nframes in 0usize..4,
            ntags in 0usize..5,
            partition in 0usize..2,
        ) {
            let mut x = seed | 1;
            let mut next = |below: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 33) as usize % below.max(1)
            };
            // Either a partition — every atom dealt to exactly one tag —
            // or free-for-all ranges: gaps no tag covers, and ranges of
            // two tags that overlap.
            let mut tags: BTreeMap<Tag, IndexRanges> = BTreeMap::new();
            let names: Vec<Tag> = (0..ntags).map(|t| Tag::new(format!("t{}", t))).collect();
            if partition == 1 && ntags > 0 {
                let owner: Vec<usize> = (0..natoms).map(|_| next(ntags)).collect();
                for (t, name) in names.iter().enumerate() {
                    let mine = (0..natoms).filter(|&a| owner[a] == t);
                    tags.insert(name.clone(), IndexRanges::from_indices(mine));
                }
            } else {
                for name in &names {
                    let ranges = (0..next(4)).map(|_| {
                        let start = next(natoms + 1);
                        start..(start + next(12)).min(natoms)
                    });
                    tags.insert(name.clone(), IndexRanges::from_ranges(ranges.collect::<Vec<_>>()));
                }
            }
            let source: Vec<Frame> = (0..nframes)
                .map(|f| Frame {
                    step: f as i32 * 10,
                    time: f as f32 * 0.5,
                    pbc: PbcBox::rectangular(3.0, 4.0, 5.0),
                    coords: (0..natoms)
                        .map(|a| [a as f32 + 0.25, f as f32 + 1.0, -(next(1000) as f32) - 1.0])
                        .collect(),
                })
                .collect();
            // Both copies of an overlap come from one source frame.
            let per_tag: BTreeMap<Tag, Vec<Frame>> = tags
                .iter()
                .map(|(t, r)| (t.clone(), source.iter().map(|f| f.subset(r)).collect()))
                .collect();
            let label = LabelFile::new("d", natoms, nframes, tags);
            let got = reassemble(&label, None, per_tag.clone()).unwrap();
            proptest::prop_assert_eq!(&got, &reassemble_scatter(&label, &per_tag).unwrap());
            if partition == 1 && ntags > 0 {
                proptest::prop_assert_eq!(&got.frames, &source);
            }
            // A tagged answer is that tag's subset, untouched.
            if let Some((t, frames)) = per_tag.iter().next() {
                let tagged = reassemble(&label, Some(t), per_tag.clone()).unwrap();
                proptest::prop_assert_eq!(&tagged.frames, frames);
            }
        }
    }

    #[test]
    fn reassemble_refuses_a_tag_that_is_short_of_frames() {
        let tags: BTreeMap<Tag, IndexRanges> = [
            (Tag::new("a"), IndexRanges::single(0..2)),
            (Tag::new("b"), IndexRanges::single(2..5)),
        ]
        .into();
        let label = LabelFile::new("d", 5, 3, tags);
        let frames = |n: usize, atoms: usize| vec![Frame::from_coords(vec![[1.0; 3]; atoms]); n];
        let per_tag: BTreeMap<Tag, Vec<Frame>> =
            [(Tag::new("a"), frames(3, 2)), (Tag::new("b"), frames(2, 3))].into();
        let err = reassemble(&label, None, per_tag.clone()).unwrap_err();
        assert!(
            matches!(&err, AdaError::FrameCountMismatch { tag, expected: 3, got: 2 } if tag == "b"),
            "{:?}",
            err
        );
        let reference = reassemble_scatter(&label, &per_tag).unwrap_err();
        assert_eq!(err.to_string(), reference.to_string());
    }

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
        // 7 frames in droppings of 3, sealed in chunks of 2: ragged chunks
        // in the middle of the answer (2 + 1, 2 + 1, 1).
        let config = |query_threads| super::super::AdaConfig {
            query_threads,
            chunk_frames: 2,
            ..cached_config(3, ada_cache::CacheConfig::default())
        };
        let (stored_ada, decoded_ada) = (make_ada_with(config(4)), make_ada_with(config(0)));
        for ada in [&stored_ada, &decoded_ada] {
            let (input, _) = real_input(900, 7);
            ada.ingest("bar", input).unwrap();
        }
        let tag = Tag::protein();
        let ctx = ada_telemetry::trace::TraceContext::inactive();
        let stored = stored_ada.query_stored("bar", &tag, &ctx).unwrap().unwrap();
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
        assert_eq!(per_chunk, [2, 1, 2, 1, 1]);
        assert_eq!(stored.nframes(), 7);
        assert_eq!(stored.chunk_frames(), 2);
        assert_eq!(stored.natoms(), frames[0].len());
        assert_eq!(read_xtcf(&body).unwrap().frames, frames);

        // Failures are `query`'s, and leave no heat; a size-only dataset
        // has nothing stored to hand on.
        let err = stored_ada.query_stored("bar", &Tag::new("zz"), &ctx);
        assert_eq!(err.unwrap_err().kind(), "unknown_tag");
        let err = stored_ada.query_stored("nope", &tag, &ctx);
        assert_eq!(err.unwrap_err().kind(), "unknown_dataset");
        let spec = SyntheticDataset::gpcr_paper(626);
        stored_ada
            .ingest("big", IngestInput::Synthetic(spec))
            .unwrap();
        assert!(stored_ada
            .query_stored("big", &tag, &ctx)
            .unwrap()
            .is_none());
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

    #[test]
    fn query_range_synthetic_reads_partial_volume() {
        let ada = make_ada();
        let spec = SyntheticDataset::gpcr_paper(626);
        ada.ingest("big", IngestInput::Synthetic(spec)).unwrap();
        let full = ada
            .query("big", Some(&Tag::protein()))
            .unwrap()
            .data
            .bytes();
        let q = ada.query_range("big", &Tag::protein(), 0..10, 2).unwrap();
        match q.data {
            RetrievedData::Synthetic { bytes, frames, .. } => {
                assert_eq!(frames, 5);
                assert!(bytes > 0);
                assert!(bytes <= full);
            }
            _ => panic!("expected synthetic"),
        }
    }

    #[test]
    fn readahead_decodes_past_the_window() {
        let mut cache = hot_cache_cfg();
        cache.readahead = 2;
        let ada = make_ada_with(cached_config(2, cache));
        let (input, _) = real_input(1000, 8); // 4 droppings of 2 frames per tag
        ada.ingest("bar", input).unwrap();
        let tag = Tag::protein();
        // The window touches dropping 0 only; readahead admits 1 and 2.
        ada.query_range("bar", &tag, 0..2, 1).unwrap();
        assert_eq!(ada.cache_stats().inserts, 3);
        // Next sequential window: dropping 1 is already resident, and
        // readahead tops the hot set up with dropping 3.
        ada.query_range("bar", &tag, 2..4, 1).unwrap();
        assert_eq!(ada.cache_stats().inserts, 4);
        let decoded = ada.cache_stats().bytes_decoded;
        // Everything resident: a covering read decodes nothing.
        ada.query_range("bar", &tag, 4..8, 1).unwrap();
        let stats = ada.cache_stats();
        assert_eq!(stats.bytes_decoded, decoded);
        assert!(stats.hits > 0);
    }

    #[test]
    fn readahead_leaves_tag_heat_untouched() {
        // Speculative decodes must not count as accesses: heat feeds cache
        // admission and tier rebalancing, and readahead would otherwise
        // make sequential scans look hotter than they are.
        let plain = make_ada_with(cached_config(2, hot_cache_cfg()));
        let mut cache = hot_cache_cfg();
        cache.readahead = 2;
        let eager = make_ada_with(cached_config(2, cache));
        for ada in [&plain, &eager] {
            let (input, _) = real_input(1000, 8);
            ada.ingest("bar", input).unwrap();
            let tag = Tag::protein();
            ada.query_range("bar", &tag, 0..2, 1).unwrap();
            ada.query_range("bar", &tag, 2..4, 1).unwrap();
        }
        assert!(eager.cache_stats().inserts > plain.cache_stats().inserts);
        assert_eq!(plain.access_counts("bar"), eager.access_counts("bar"));
    }
}
