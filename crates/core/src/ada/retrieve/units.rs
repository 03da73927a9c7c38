//! The answer's units: every answer tag's chunks placed in its frames
//! ([`Layout`]), cut into units — the stored chunks of all the tags,
//! merged where they overlap, and the resident frames between them — and
//! one unit run ([`run_unit`]): check its stored chunks, then write the
//! answer's frames inside it, each once, straight from the sources.

use super::{atoms_err, chunk_err, real_bytes, Planned, Source, Take};
use crate::labeler::LabelFile;
use crate::AdaError;
use ada_mdformats::xtcf::{ChunkRecords, FrameRecord};
use ada_mdformats::Frame;
use ada_mdmodel::{IndexRanges, Tag};
use ada_telemetry::trace::TraceContext;
use std::ops::Range;
use std::sync::Arc;

impl Planned {
    /// Lay the chunks the request can read — resident, or stored and to be
    /// checked — into the tag's frames from `start` on, as segments of
    /// planned dropping `at`. Returns the dropping's frame count.
    fn lay_out(&self, start: usize, at: usize, segs: &mut Vec<Seg>) -> usize {
        match &self.source {
            Source::Hit(entry) => {
                let layout = entry.chunk_layout().iter().copied();
                self.lay_chunks(layout, &[], start, at, segs)
            }
            Source::Stored { dir, todo, .. } => {
                let layout = dir.entries.iter().map(|e| e.nframes);
                self.lay_chunks(layout, todo, start, at, segs)
            }
        }
    }

    fn lay_chunks(
        &self,
        layout: impl Iterator<Item = u32>,
        todo: &[usize],
        start: usize,
        at: usize,
        segs: &mut Vec<Seg>,
    ) -> usize {
        let mut todo = todo.iter().peekable();
        let mut end = start;
        segs.reserve(layout.size_hint().0);
        for (chunk, n) in layout.enumerate() {
            let seg_start = end;
            end += n as usize;
            let stored = todo.next_if_eq(&&chunk).is_some();
            if stored || self.resident(chunk).is_some() {
                segs.push(Seg {
                    start: seg_start,
                    end,
                    dropping: at,
                    chunk,
                    stored,
                });
            }
        }
        end - start
    }
}

/// One chunk of an answer tag, placed in that tag's frames.
#[derive(Debug, Clone, Copy)]
struct Seg {
    start: usize,
    end: usize,
    /// Its dropping's index among the planned ones.
    dropping: usize,
    chunk: usize,
    /// Stored, and checked by its unit; else resident.
    stored: bool,
}

/// One answer tag: the atoms its label ranges select and its chunks, in
/// frame order.
pub(super) struct TagLayout {
    pub(super) tag: Tag,
    pub(super) natoms: Option<usize>,
    segs: Vec<Seg>,
    /// Frames laid out so far.
    frames: usize,
    /// A dropping of this tag failed to plan: nothing past it is laid out.
    failed: bool,
}

impl TagLayout {
    /// Answer tag `tag`, nothing laid out yet.
    pub(super) fn new(label: &LabelFile, tag: Tag) -> TagLayout {
        TagLayout {
            natoms: label.tags.get(&tag).map(IndexRanges::count),
            tag,
            segs: Vec::new(),
            frames: 0,
            failed: false,
        }
    }
}

/// One label range of a full-frame answer: `len` atoms written at `start`
/// from `offset` in answer tag `tag`'s atoms.
struct Piece {
    start: usize,
    len: usize,
    tag: usize,
    offset: usize,
}

/// A request laid out in its answer tags' frames.
pub(super) struct Layout {
    /// The answer's tags, in label order.
    tags: Vec<TagLayout>,
    /// The tag frames the answer is written from, ascending, all below
    /// `end`.
    want: Vec<usize>,
    /// Frames the units cover: the answer's, or up to the cut.
    end: usize,
    /// A full-frame answer's label ranges, by start, and its atom count.
    pieces: Option<(Vec<Piece>, usize)>,
    /// The failure at frame `end` — a dropping that failed to plan, a tag
    /// whose frame count disagrees with the label — which fails the request
    /// once every unit before it succeeded.
    pub(super) cut: Option<AdaError>,
}

/// Keep the failure that ranks first: lowest frame, then lowest tag rank.
fn earliest(cut: &mut Option<(usize, usize, AdaError)>, frame: usize, tag: usize, e: AdaError) {
    if cut.as_ref().is_none_or(|(f, t, _)| (frame, tag) < (*f, *t)) {
        *cut = Some((frame, tag, e));
    }
}

impl Layout {
    /// Lay the planned droppings — `(tag rank, plan)` in logical order —
    /// into `tags`, and find the answer's frames and its cut. Returns the
    /// droppings that planned, which the segments index.
    pub(super) fn new(
        label: &LabelFile,
        full: bool,
        mut tags: Vec<TagLayout>,
        planned: Vec<(usize, Result<Planned, AdaError>)>,
    ) -> Result<(Layout, Vec<Planned>), AdaError> {
        let mut droppings = Vec::with_capacity(planned.len());
        let mut want = Vec::new();
        let mut cut = None;
        for (rank, plan) in planned {
            let Some(tag) = tags.get_mut(rank).filter(|t| !t.failed) else {
                continue;
            };
            let start = tag.frames;
            match plan {
                Err(e) => {
                    tag.failed = true;
                    earliest(&mut cut, start, rank, e);
                }
                Ok(p) => {
                    tag.frames += p.lay_out(start, droppings.len(), &mut tag.segs);
                    match &p.take {
                        Take::All => want.extend(start..tag.frames),
                        Take::Frames(sel) => want.extend(sel.iter().map(|f| start + f)),
                    }
                    droppings.push(p);
                }
            }
        }
        let mut pieces = None;
        if full {
            for (rank, t) in tags.iter().enumerate() {
                if !t.failed && t.frames != label.nframes {
                    let e = AdaError::FrameCountMismatch {
                        tag: t.tag.to_string(),
                        expected: label.nframes,
                        got: t.frames,
                    };
                    earliest(&mut cut, t.frames.min(label.nframes), rank, e);
                }
            }
            let mut list = Vec::new();
            for (rank, t) in tags.iter().enumerate() {
                let mut offset = 0;
                for r in label.ranges(&t.tag)?.iter_ranges() {
                    list.push(Piece {
                        start: r.start,
                        len: r.len(),
                        tag: rank,
                        offset,
                    });
                    offset += r.len();
                }
            }
            list.sort_by_key(|p| p.start);
            pieces = Some((list, label.natoms));
        }
        let end = match &cut {
            Some((frame, ..)) => *frame,
            None if full && !tags.is_empty() => label.nframes,
            None => tags.first().map_or(0, |t| t.frames),
        };
        if full {
            want = (0..end).collect();
        }
        let layout = Layout {
            tags,
            want,
            end,
            pieces,
            cut: cut.map(|(.., e)| e),
        };
        Ok((layout, droppings))
    }

    /// The segments of `tag` that overlap `frames`, below `end`.
    fn segs<'s>(&self, tag: &'s TagLayout, frames: &Range<usize>) -> &'s [Seg] {
        let lo = tag.segs.partition_point(|s| s.end <= frames.start);
        let hi = tag
            .segs
            .partition_point(|s| s.start < frames.end.min(self.end));
        tag.segs.get(lo..hi).unwrap_or_default()
    }

    /// The answer's frames inside `frames`.
    fn want_in(&self, frames: &Range<usize>) -> &[usize] {
        let lo = self.want.partition_point(|&f| f < frames.start);
        let hi = self.want.partition_point(|&f| f < frames.end);
        self.want.get(lo..hi).unwrap_or_default()
    }

    /// The units, in frame order, and whether any has a stored chunk to
    /// check. The stored chunks of all tags, merged where they overlap,
    /// are one unit each — one (window, chunk) across the tags wherever
    /// the tags' chunks align, as ingest writes them; the resident frames
    /// between them that the answer wants are one unit per gap.
    pub(super) fn units(&self) -> (Vec<Range<usize>>, bool) {
        let mut stored: Vec<Range<usize>> = Vec::new();
        for t in &self.tags {
            let segs = self.segs(t, &(0..self.end)).iter();
            stored.extend(segs.filter(|s| s.stored).map(|s| s.start..s.end));
        }
        stored.sort_unstable_by_key(|r| r.start);
        let mut groups: Vec<Range<usize>> = Vec::with_capacity(stored.len());
        for r in stored {
            match groups.last_mut() {
                Some(g) if r.start < g.end => g.end = g.end.max(r.end),
                _ => groups.push(r),
            }
        }
        let checks = !groups.is_empty();
        let mut units = Vec::with_capacity(2 * groups.len() + 1);
        let mut at = 0;
        for g in groups {
            units.extend(self.wanted_span(at..g.start));
            at = g.end;
            units.push(g);
        }
        units.extend(self.wanted_span(at..self.end));
        (units, checks)
    }

    /// The span from the first to the last answer frame inside `frames`,
    /// if it holds any.
    fn wanted_span(&self, frames: Range<usize>) -> Option<Range<usize>> {
        let want = self.want_in(&frames);
        Some(*want.first()?..*want.last()? + 1)
    }
}

/// A unit's source for one chunk of one tag.
enum Src<'a> {
    /// Frames: resident, or decoded by this unit for the cache.
    Decoded(Arc<Vec<Frame>>),
    /// A checked stored chunk, read in place.
    Stored(ChunkRecords<'a>),
}

impl Src<'_> {
    fn len(&self) -> usize {
        match self {
            Src::Decoded(frames) => frames.len(),
            Src::Stored(records) => records.len(),
        }
    }

    fn row(&self, i: usize) -> Option<Row<'_>> {
        match self {
            Src::Decoded(frames) => frames.get(i).map(Row::Decoded),
            Src::Stored(records) => records.get(i).map(Row::Stored),
        }
    }
}

/// One tag's copy of one frame of the answer.
#[derive(Clone, Copy)]
enum Row<'a> {
    Decoded(&'a Frame),
    Stored(FrameRecord<'a>),
}

impl Row<'_> {
    fn to_frame(self) -> Frame {
        match self {
            Row::Decoded(f) => f.clone(),
            Row::Stored(r) => r.to_frame(),
        }
    }

    /// A frame with this row's step, time and box around `coords`.
    fn with_coords(self, coords: Vec<[f32; 3]>) -> Frame {
        let (step, time, pbc) = match self {
            Row::Decoded(f) => (f.step, f.time, f.pbc),
            Row::Stored(r) => (r.step(), r.time(), r.pbc()),
        };
        Frame {
            step,
            time,
            pbc,
            coords,
        }
    }

    /// Copy the coordinates of `atoms` over `dst`.
    fn overwrite(self, atoms: Range<usize>, dst: &mut [[f32; 3]]) {
        match self {
            Row::Decoded(f) => dst.copy_from_slice(&f.coords[atoms]),
            Row::Stored(r) => dst
                .iter_mut()
                .zip(r.coords(atoms))
                .for_each(|(d, s)| *d = s),
        }
    }

    /// Append the coordinates of `atoms` to `out`.
    fn extend(self, atoms: Range<usize>, out: &mut Vec<[f32; 3]>) {
        match self {
            Row::Decoded(f) => out.extend_from_slice(&f.coords[atoms]),
            Row::Stored(r) => out.extend(r.coords(atoms)),
        }
    }
}

/// The row of tag frame `f` among one tag's sources (by frame, disjoint).
fn row_at<'s>(sources: &'s [(Seg, Src<'_>)], f: usize) -> Result<Row<'s>, AdaError> {
    let i = sources.partition_point(|(s, _)| s.end <= f);
    sources
        .get(i)
        .filter(|(s, _)| s.start <= f)
        .and_then(|(s, src)| src.row(f - s.start))
        .ok_or_else(|| AdaError::Internal(format!("no planned chunk holds frame {}", f)))
}

/// One full frame from one row per answer tag, head first: each output
/// frame is `Vec::with_capacity(natoms)` with the pieces appended in start
/// order — zeros only across atoms no tag covers (and up to `natoms` at
/// the end), and where two tags' ranges overlap the piece that starts
/// later lands on top (both copies come from one source frame, so they
/// agree). Step, time and box are the first tag's.
fn full_frame(head: Row<'_>, rows: &[Row<'_>], pieces: &[Piece], natoms: usize) -> Frame {
    let mut coords: Vec<[f32; 3]> = Vec::with_capacity(natoms);
    for p in pieces {
        let Some(&row) = rows.get(p.tag) else {
            continue;
        };
        if coords.len() < p.start {
            coords.resize(p.start, [0.0; 3]);
        }
        let overlap = (coords.len() - p.start).min(p.len);
        row.overwrite(
            p.offset..p.offset + overlap,
            &mut coords[p.start..p.start + overlap],
        );
        row.extend(p.offset + overlap..p.offset + p.len, &mut coords);
    }
    coords.resize(natoms, [0.0; 3]);
    head.with_coords(coords)
}

/// Check stored chunk `c` of `d` — `verify_chunk`, then the directory's
/// atom count against the label's `natoms` — and, with `decode`, decode
/// it into frames. Both schedules check chunks through here, so the
/// chunk's `query.decode` span — the decode stage's only clock, and the
/// `tag` + `bytes` a profile's per-tag volume is folded from — is opened
/// here and nowhere else.
fn check_chunk<'a>(
    d: &'a Planned,
    c: usize,
    natoms: Option<usize>,
    decode: bool,
    ctx: &TraceContext,
) -> Result<Src<'a>, AdaError> {
    let Source::Stored { content, dir, .. } = &d.source else {
        return Err(AdaError::Internal(format!(
            "chunk {} of '{}' is not stored",
            c, d.record.dropping_path
        )));
    };
    let mut ts = ctx.span("query.decode");
    ts.arg("tag", d.record.tag.as_str());
    ts.arg("chunk", c);
    ts.arg(
        "bytes",
        dir.entries.get(c).map_or(0, |e| e.body_len() as u64),
    );
    let res = real_bytes(&d.record, content)
        .and_then(|bytes| ChunkRecords::verify(bytes, dir, c).map_err(|e| chunk_err(&d.record, e)))
        .and_then(|records| match natoms {
            Some(n) if records.natoms() != n => Err(atoms_err(&d.record, 0, records.natoms(), n)),
            _ => Ok(records),
        })
        .map(|records| {
            if decode {
                Src::Decoded(Arc::new(records.frames().collect()))
            } else {
                Src::Stored(records)
            }
        });
    match &res {
        Ok(src) => ts.arg("frames", src.len()),
        Err(e) => ts.set_error(e.kind()),
    }
    res
}

/// What a unit made: the answer's frames inside it, and (cache on) the
/// chunks it decoded, as `(dropping, chunk, frames)`.
pub(super) struct UnitOut {
    pub(super) frames: Vec<Frame>,
    pub(super) decoded: Vec<(usize, usize, Arc<Vec<Frame>>)>,
}

/// Run one unit: check its stored chunks tag by tag in label order — the
/// first failure is the unit's — then write the answer's frames inside it
/// under one `query.reassemble` span. With `decode` (the cache is on) a
/// checked chunk is decoded, read from as frames and handed back for the
/// cache.
pub(super) fn run_unit<'a>(
    layout: &Layout,
    droppings: &'a [Planned],
    frames: Range<usize>,
    decode: bool,
    ctx: &TraceContext,
) -> Result<UnitOut, AdaError> {
    let mut decoded = Vec::new();
    let mut sources: Vec<Vec<(Seg, Src<'a>)>> = Vec::with_capacity(layout.tags.len());
    for tag in &layout.tags {
        let mut of_tag = Vec::new();
        for &seg in layout.segs(tag, &frames) {
            let missing = || AdaError::Internal(format!("no source for chunk {}", seg.chunk));
            let d = droppings.get(seg.dropping).ok_or_else(missing)?;
            let src = if seg.stored {
                let src = check_chunk(d, seg.chunk, tag.natoms, decode, ctx)?;
                if let Src::Decoded(f) = &src {
                    decoded.push((seg.dropping, seg.chunk, Arc::clone(f)));
                }
                src
            } else {
                Src::Decoded(Arc::clone(d.resident(seg.chunk).ok_or_else(missing)?))
            };
            of_tag.push((seg, src));
        }
        sources.push(of_tag);
    }

    let want = layout.want_in(&frames);
    let mut out = Vec::with_capacity(want.len());
    if !want.is_empty() {
        let mut ts = ctx.span("query.reassemble");
        match (&layout.pieces, sources.as_slice()) {
            // A tagged or ranged answer: the tag's selected records.
            (None, [of_tag]) => {
                for &f in want {
                    out.push(row_at(of_tag, f)?.to_frame());
                }
            }
            (Some((pieces, natoms)), [_, ..]) => {
                let mut rows = Vec::with_capacity(sources.len());
                for &f in want {
                    rows.clear();
                    for of_tag in &sources {
                        rows.push(row_at(of_tag, f)?);
                    }
                    if let Some(&head) = rows.first() {
                        out.push(full_frame(head, &rows, pieces, *natoms));
                    }
                }
            }
            _ => {
                let n = sources.len();
                return Err(AdaError::Internal(format!("an answer over {} tags", n)));
            }
        }
        ts.arg("bytes", out.iter().map(|f| f.nbytes() as u64).sum::<u64>());
        ts.arg("frames", out.len());
    }
    Ok(UnitOut {
        frames: out,
        decoded,
    })
}

#[cfg(test)]
mod tests {
    use crate::ada::testkit::*;
    use crate::ada::{Ada, AdaConfig, DatasetState};
    use crate::labeler::LabelFile;
    use crate::AdaError;
    use ada_mdformats::xtcf::{decode_chunk, parse_directory, seal_v2, write_xtcf};
    use ada_mdformats::{Frame, Trajectory};
    use ada_mdmodel::{IndexRanges, PbcBox, Tag};
    use ada_simfs::Content;
    use std::collections::{BTreeMap, BTreeSet};

    /// The full-frame reassembly the unit body replaced — a zero-filled
    /// frame per output frame, then one scatter per tag in tag order —
    /// kept as the reference a full-frame answer is checked against.
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

    /// Every field of every frame as raw bits: NaN payloads included, so
    /// frames compare as what was stored, not as floats.
    fn bits(frames: &[Frame]) -> Vec<Vec<u32>> {
        frames
            .iter()
            .map(|f| {
                let head = [f.step as u32, f.time.to_bits()];
                let floats = f.pbc.m.iter().flatten().chain(f.coords.iter().flatten());
                head.into_iter()
                    .chain(floats.map(|v| v.to_bits()))
                    .collect()
            })
            .collect()
    }

    /// Write `source` straight into `ada`'s containers as dataset `d` under
    /// `label`, so the label can have any shape: partitions, gaps no tag
    /// covers, and ranges of two tags that overlap, which no categorizer
    /// produces. Tag `t` (label order) is stored as ingest stores a tag —
    /// v2 droppings of `layouts[t].0` frames (`0`: one dropping), sealed in
    /// chunks of `layouts[t].1` — with the tags' k-th droppings appended
    /// side by side. Tags with different layouts are misaligned: a chunk of
    /// one spans chunk boundaries of the other, which ingest never writes.
    fn store(ada: &Ada, label: &LabelFile, source: &[Frame], layouts: &[(usize, usize)]) {
        let containers = ada.containers();
        containers.create_logical("d").unwrap();
        let windows: Vec<Vec<&[Frame]>> = layouts
            .iter()
            .map(|&(per, _)| {
                source
                    .chunks(if per == 0 { source.len().max(1) } else { per })
                    .collect()
            })
            .collect();
        for k in 0..windows.iter().map(Vec::len).max().unwrap_or(0) {
            for ((tag, ranges), (of_tag, &(_, chunk_frames))) in
                label.tags.iter().zip(windows.iter().zip(layouts))
            {
                let Some(window) = of_tag.get(k) else {
                    continue;
                };
                let subset = window.iter().map(|f| f.subset(ranges)).collect();
                let v1 = write_xtcf(&Trajectory::from_frames(subset)).unwrap();
                let sealed = seal_v2(v1, ranges.count(), chunk_frames).unwrap();
                let backend = if *tag == Tag::protein() { "ssd" } else { "hdd" };
                let content = Content::real(sealed);
                containers
                    .append_tagged_frames("d", tag.as_str(), backend, content, window.len() as u64)
                    .unwrap();
            }
        }
        let state = DatasetState::Real {
            label: label.clone(),
        };
        ada.datasets.lock().insert("d".into(), state);
    }

    /// Per tag, its stored chunks in frame order, each `decode_chunk`ed.
    fn stored_chunks(ada: &Ada) -> BTreeMap<Tag, Vec<Vec<Frame>>> {
        let mut records = ada.containers().index("d").unwrap();
        records.sort_by_key(|r| r.logical_offset);
        let mut out: BTreeMap<Tag, Vec<Vec<Frame>>> = BTreeMap::new();
        for r in records {
            let (content, _) = ada.containers().read_dropping(&r).unwrap();
            let bytes = content.as_real().unwrap();
            let dir = parse_directory(bytes).unwrap().unwrap();
            let chunks = out.entry(Tag::new(r.tag.clone())).or_default();
            for c in 0..dir.nchunks() {
                chunks.push(decode_chunk(bytes, &dir, c).unwrap());
            }
        }
        out
    }

    /// `cache.bytes_decoded` as the counter has always been defined: per
    /// chunk decoded, its frames × (`size_of::<Frame>()` + 12 × the tag's
    /// atoms). `resident` holds the chunks a cache-on instance keeps, as
    /// `(tag, chunk)`; a request decodes the chunks it touches that are not
    /// resident, and with the cache on they are resident afterwards.
    struct DecodeModel<'a> {
        chunks: &'a BTreeMap<Tag, Vec<Vec<Frame>>>,
        label: &'a LabelFile,
        cache_on: bool,
        resident: BTreeSet<(Tag, usize)>,
        bytes: u64,
    }

    impl DecodeModel<'_> {
        /// A request read `frames` of `tag` (`None`: all of them).
        fn touch(&mut self, tag: &Tag, frames: Option<&[usize]>) {
            let natoms = self.label.ranges(tag).unwrap().count();
            let mut start = 0;
            for (c, chunk) in self.chunks.get(tag).into_iter().flatten().enumerate() {
                let end = start + chunk.len();
                let touched = frames.is_none_or(|fs| fs.iter().any(|f| (start..end).contains(f)));
                let key = (tag.clone(), c);
                if touched && !self.resident.contains(&key) {
                    let per_frame = std::mem::size_of::<Frame>() + 12 * natoms;
                    self.bytes += (chunk.len() * per_frame) as u64;
                    if self.cache_on {
                        self.resident.insert(key);
                    }
                }
                start = end;
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]
        /// The retrieval contract: whatever the label, the dropping and
        /// chunk sizes (aligned across the tags or not), the cache state
        /// and the schedule, a full-frame
        /// answer is every tag's stored chunks, `decode_chunk`ed, laid out by
        /// the scatter reference; a tagged answer is the tag's decoded
        /// chunks; a range read is its window of them — bit for bit. And
        /// `cache.bytes_decoded` moves exactly as the decode model says.
        #[test]
        fn prop_retrieval_is_decode_chunk_then_scatter(
            seed: u64,
            natoms in 0usize..40,
            nframes in 0usize..12,
            partition in 0usize..2,
            chunking in 0usize..16,
            windowing in 0usize..9,
            aligned in 0usize..2,
        ) {
            let mut x = seed | 1;
            let mut next = |below: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as usize % below.max(1)
            };
            let layout = |c: usize, w: usize| ([0, 3, 5][w % 3], [0, 1, 3, 64][c % 4]);
            let layouts = match aligned {
                1 => [layout(chunking, windowing); 2],
                _ => [layout(chunking, windowing), layout(chunking / 4, windowing / 3)],
            };
            // Either a partition — every atom dealt to exactly one tag —
            // or free-for-all ranges: gaps no tag covers, and ranges of
            // the two tags that overlap.
            let names = [Tag::misc(), Tag::protein()];
            let mut tags: BTreeMap<Tag, IndexRanges> = BTreeMap::new();
            if partition == 1 {
                let owner: Vec<usize> = (0..natoms).map(|_| next(2)).collect();
                for (t, name) in names.iter().enumerate() {
                    let mine = (0..natoms).filter(|&a| owner[a] == t);
                    tags.insert(name.clone(), IndexRanges::from_indices(mine));
                }
            } else {
                for name in &names {
                    let ranges: Vec<_> = (0..next(4))
                        .map(|_| {
                            let start = next(natoms + 1);
                            start..(start + next(12)).min(natoms)
                        })
                        .collect();
                    tags.insert(name.clone(), IndexRanges::from_ranges(ranges));
                }
            }
            // Raw random bits in every field, NaN payloads included.
            let mut f = || f32::from_bits(next(usize::MAX) as u32 ^ (next(usize::MAX) << 16) as u32);
            let source: Vec<Frame> = (0..nframes)
                .map(|_| {
                    let mut pbc = PbcBox::zero();
                    pbc.m.iter_mut().flatten().for_each(|v| *v = f());
                    Frame {
                        step: f().to_bits() as i32,
                        time: f(),
                        pbc,
                        coords: (0..natoms).map(|_| [f(), f(), f()]).collect(),
                    }
                })
                .collect();
            let label = LabelFile::new("d", natoms, nframes, tags);
            let windows: Vec<(Tag, Vec<usize>)> = (0..if nframes > 0 { 3 } else { 0 })
                .map(|_| {
                    let start = next(nframes);
                    let end = start + 1 + next(nframes - start);
                    let stride = 1 + next(3);
                    (names[next(2)].clone(), (start..end).step_by(stride).collect())
                })
                .collect();

            for query_threads in [0, 1, 4] {
                for (cache_on, prior_first) in [(false, false), (true, false), (true, true)] {
                    let cache = if cache_on { hot_cache_cfg() } else { ada_cache::CacheConfig::default() };
                    let ada = make_ada_with(AdaConfig {
                        query_threads,
                        cache,
                        ..AdaConfig::paper_prototype("ssd", "hdd")
                    });
                    store(&ada, &label, &source, &layouts);
                    let chunks = stored_chunks(&ada);
                    let per_tag: BTreeMap<Tag, Vec<Frame>> = chunks
                        .iter()
                        .map(|(t, cs)| (t.clone(), cs.concat()))
                        .collect();
                    for (t, frames) in &per_tag {
                        let subset: Vec<Frame> = source.iter().map(|s| s.subset(&label.tags[t])).collect();
                        proptest::prop_assert_eq!(bits(frames), bits(&subset));
                    }
                    let full = reassemble_scatter(&label, &per_tag).unwrap().frames;
                    let mut model = DecodeModel { chunks: &chunks, label: &label, cache_on, resident: BTreeSet::new(), bytes: 0 };
                    let what = format!("threads {} cache {} prior {}", query_threads, cache_on, prior_first);

                    if prior_first && nframes > 0 {
                        // A one-frame window leaves a partial entry behind.
                        frames_of(ada.query_range("d", &Tag::protein(), 0..1, 1).unwrap());
                        model.touch(&Tag::protein(), Some(&[0]));
                        proptest::prop_assert_eq!(ada.cache_stats().bytes_decoded, model.bytes, "{}", what);
                    }
                    for (tag, sel) in &windows {
                        let (start, end) = (sel[0], sel[sel.len() - 1] + 1);
                        let stride = if sel.len() > 1 { sel[1] - sel[0] } else { 1 };
                        let got = frames_of(ada.query_range("d", tag, start..end, stride).unwrap());
                        let want: Vec<Frame> = sel.iter().map(|&i| per_tag[tag][i].clone()).collect();
                        proptest::prop_assert_eq!(bits(&got), bits(&want), "{} range {:?}", what, sel);
                        model.touch(tag, Some(sel));
                        proptest::prop_assert_eq!(ada.cache_stats().bytes_decoded, model.bytes, "{} range {:?}", what, sel);
                    }
                    // Full frames twice (the second warm when the cache is
                    // on), and each tag.
                    for _ in 0..2 {
                        let got = frames_of(ada.query("d", None).unwrap());
                        proptest::prop_assert_eq!(bits(&got), bits(&full), "{} full", what);
                        for t in per_tag.keys() {
                            model.touch(t, None);
                        }
                        proptest::prop_assert_eq!(ada.cache_stats().bytes_decoded, model.bytes, "{} full", what);
                        for t in &names {
                            let got = frames_of(ada.query("d", Some(t)).unwrap());
                            let want = per_tag.get(t).cloned().unwrap_or_default();
                            proptest::prop_assert_eq!(bits(&got), bits(&want), "{} tag {}", what, t);
                            model.touch(t, None);
                        }
                        proptest::prop_assert_eq!(ada.cache_stats().bytes_decoded, model.bytes, "{} tagged", what);
                    }
                }
            }
        }
    }

    /// A full-frame answer whose tag is short of the label's frames fails
    /// with `FrameCountMismatch` naming it — the error the scatter reference
    /// gives — at every thread count, and counts nothing.
    #[test]
    fn a_tag_short_of_frames_is_a_frame_count_mismatch() {
        for query_threads in [0, 1, 4] {
            let ada = make_ada_with(AdaConfig {
                query_threads,
                ..AdaConfig::paper_prototype("ssd", "hdd")
            });
            let tags: BTreeMap<Tag, IndexRanges> = [
                (Tag::misc(), IndexRanges::single(0..2)),
                (Tag::protein(), IndexRanges::single(2..5)),
            ]
            .into();
            let source = vec![Frame::from_coords(vec![[1.0; 3]; 5]); 6];
            let label = LabelFile::new("d", 5, 6, tags);
            store(&ada, &label, &source, &[(3, 2); 2]);
            // The last protein dropping goes missing from the index.
            let mut short = label.clone();
            short.nframes = 9;
            ada.datasets.lock().insert(
                "d".into(),
                DatasetState::Real {
                    label: short.clone(),
                },
            );
            let err = ada.query("d", None).unwrap_err();
            let mut per_tag = BTreeMap::new();
            for (t, frames) in stored_chunks(&ada) {
                per_tag.insert(t, frames.concat());
            }
            let reference = reassemble_scatter(&short, &per_tag).unwrap_err();
            assert_eq!(err.to_string(), reference.to_string());
            assert!(
                matches!(&err, AdaError::FrameCountMismatch { tag, expected: 9, got: 6 } if tag == "m"),
                "{:?}",
                err
            );
            assert!(ada.access_counts("d").is_empty());
            assert_eq!(ada.cache_stats().bytes_decoded, 0);
        }
    }
}
