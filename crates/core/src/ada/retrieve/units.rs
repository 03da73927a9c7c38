//! The answer's units: each answer tag's one planned dropping
//! ([`Layout`]), cut into units — chunk *c* of every answer tag's
//! dropping, as ingest sealed it ([`Unit`]) — and one unit run
//! ([`run_unit`]): check its stored chunks, then write the answer's frames
//! inside it, each once, straight from the sources.

use super::{atoms_err, real_bytes, xtcf_err, Planned, Source, Take};
use crate::labeler::LabelFile;
use crate::AdaError;
use ada_mdformats::xtcf::{ChunkRecords, FrameRecord};
use ada_mdformats::{FormatError, Frame};
use ada_telemetry::trace::TraceContext;
use std::ops::Range;
use std::sync::Arc;

impl Planned<'_> {
    /// The dropping's frames.
    fn frames(&self) -> usize {
        self.chunk_layout().sum()
    }

    /// The dropping's chunk layout (frames per chunk), read in place.
    fn chunk_layout(&self) -> impl Iterator<Item = usize> + '_ {
        (0..).map_while(move |c| {
            let n = match &self.source {
                Source::Hit(entry) => entry.chunk_layout().get(c).copied(),
                Source::Stored { dir, .. } => dir.entries.get(c).map(|e| e.nframes),
            };
            n.map(|n| n as usize)
        })
    }
}

impl Take {
    /// The positions in the take's frame list — the dropping's frames
    /// (`All`), or the selection — of the frames inside `frames`.
    fn within(&self, frames: Range<usize>) -> Range<usize> {
        match self {
            Take::All => frames,
            Take::Frames { sel, .. } => {
                sel.partition_point(|&f| f < frames.start)..sel.partition_point(|&f| f < frames.end)
            }
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

/// A request laid out in its answer tags' droppings.
pub(super) struct Layout<'l> {
    /// The droppings that planned, in label order: one per answer tag
    /// unless one failed to plan — and then the cut is at frame 0 and no
    /// unit runs.
    pub(super) droppings: Vec<Planned<'l>>,
    /// Frames the units cover: the answer's, or up to the cut.
    end: usize,
    /// A full-frame answer's label ranges, by start, and its atom count.
    pieces: Option<(Vec<Piece>, usize)>,
    /// The failure at frame `end` — a dropping that failed to plan, a tag
    /// whose frame count disagrees with the label, a tag cut into other
    /// chunks than the first tag's — which fails the request once every
    /// unit before it succeeded.
    pub(super) cut: Option<AdaError>,
}

/// Chunk `chunk` of every answer tag's dropping, and the answer's frames
/// in it: positions `want` of the first tag's take ([`Take::within`]), the
/// chunk starting at frame `first`.
pub(super) struct Unit {
    chunk: usize,
    first: usize,
    want: Range<usize>,
}

/// Keep the failure that ranks first: lowest frame, then lowest tag rank.
fn earliest(cut: &mut Option<(usize, usize, AdaError)>, frame: usize, tag: usize, e: AdaError) {
    if cut.as_ref().is_none_or(|(f, t, _)| (frame, tag) < (*f, *t)) {
        *cut = Some((frame, tag, e));
    }
}

impl<'l> Layout<'l> {
    /// Lay out the planned droppings, one per answer tag in label order,
    /// and find the answer's end and its cut.
    pub(super) fn new(
        label: &LabelFile,
        full: bool,
        planned: Vec<Result<Planned<'l>, AdaError>>,
    ) -> Layout<'l> {
        let mut cut = None;
        if full {
            let head = planned.first().and_then(|p| p.as_ref().ok());
            for (rank, plan) in planned.iter().enumerate() {
                let Ok(d) = plan else {
                    continue;
                };
                let frames = d.frames();
                if frames != label.nframes {
                    let e = AdaError::FrameCountMismatch {
                        tag: d.entry.dropping.tag.clone(),
                        expected: label.nframes,
                        got: frames,
                    };
                    earliest(&mut cut, frames.min(label.nframes), rank, e);
                }
                // Ingest cuts every tag into the same chunks; a tag cut
                // otherwise has no unit to join. (A chunk one tag has and
                // the other lacks is the frame-count mismatch above.)
                if let Some(h) = head.filter(|_| rank > 0) {
                    if d.chunk_layout().zip(h.chunk_layout()).any(|(a, b)| a != b) {
                        let head = &h.entry.dropping.tag;
                        let why = format!("chunks are cut unlike tag '{}''s", head);
                        let e = xtcf_err(&d.entry.dropping, FormatError::Corrupt(why));
                        earliest(&mut cut, 0, rank, e);
                    }
                }
            }
        }
        let mut droppings = Vec::with_capacity(planned.len());
        for (rank, plan) in planned.into_iter().enumerate() {
            match plan {
                Ok(p) => droppings.push(p),
                Err(e) => earliest(&mut cut, 0, rank, e),
            }
        }
        let mut pieces = None;
        if full {
            let mut list = Vec::new();
            for (rank, d) in droppings.iter().enumerate() {
                let mut offset = 0;
                for r in d.entry.ranges.iter_ranges() {
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
        // Uncut, a full-frame answer's tags each hold the label's frames.
        let end = match &cut {
            Some((frame, ..)) => *frame,
            None => droppings.first().map_or(0, Planned::frames),
        };
        Layout {
            droppings,
            end,
            pieces,
            cut: cut.map(|(.., e)| e),
        }
    }

    /// The units, in frame order: every chunk of the first tag's dropping
    /// that holds an answer frame below `end`.
    pub(super) fn units(&self) -> Vec<Unit> {
        let mut units = Vec::new();
        let Some(d) = self.droppings.first() else {
            return units;
        };
        let mut first = 0;
        for (chunk, n) in d.chunk_layout().enumerate() {
            if first >= self.end {
                break;
            }
            let want = d.take.within(first..(first + n).min(self.end));
            if !want.is_empty() {
                units.push(Unit { chunk, first, want });
            }
            first += n;
        }
        units
    }
}

/// A unit's source for its chunk of one tag.
enum Src<'a> {
    /// Resident frames.
    Decoded(Arc<Vec<Frame>>),
    /// A checked stored chunk, read in place.
    Stored(ChunkRecords<'a>),
}

impl Src<'_> {
    /// The row of chunk-local frame `f`.
    fn row(&self, f: usize) -> Result<Row<'_>, AdaError> {
        let row = match self {
            Src::Decoded(frames) => frames.get(f).map(Row::Decoded),
            Src::Stored(records) => records.get(f).map(Row::Stored),
        };
        row.ok_or_else(|| AdaError::Internal(format!("no frame {} in the unit's chunk", f)))
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
/// atom count against the label's — and hand back its records,
/// read in place. Every schedule checks chunks through here, so the
/// chunk's `query.decode` span — the decode stage's only clock, and the
/// `tag` + `bytes` a profile's per-tag volume is folded from — is opened
/// here and nowhere else.
fn check_chunk<'a>(
    d: &'a Planned,
    c: usize,
    ctx: &TraceContext,
) -> Result<ChunkRecords<'a>, AdaError> {
    let record = &d.entry.dropping;
    let Source::Stored { content, dir, .. } = &d.source else {
        return Err(AdaError::Internal(format!(
            "chunk {} of '{}' is not stored",
            c, record.dropping_path
        )));
    };
    let mut ts = ctx.span("query.decode");
    ts.arg("tag", record.tag.as_str());
    ts.arg("chunk", c);
    ts.arg(
        "bytes",
        dir.entries.get(c).map_or(0, |e| e.body_len() as u64),
    );
    let res = real_bytes(record, content)
        .and_then(|bytes| ChunkRecords::verify(bytes, dir, c).map_err(|e| xtcf_err(record, e)))
        .and_then(|records| match (records.natoms(), d.entry.ranges.count()) {
            (got, want) if got != want => Err(atoms_err(record, 0, got, want)),
            _ => Ok(records),
        });
    match &res {
        Ok(records) => ts.arg("frames", records.len()),
        Err(e) => ts.set_error(e.error_kind().name()),
    }
    res
}

/// Run one unit: check its stored chunks tag by tag in label order — the
/// first failure is the unit's — then write the answer's frames inside it
/// under one `query.reassemble` span.
pub(super) fn run_unit(
    layout: &Layout,
    unit: &Unit,
    ctx: &TraceContext,
) -> Result<Vec<Frame>, AdaError> {
    // The one tag's take, or a full-frame answer's: `All` for every tag.
    let mut take = &Take::All;
    let mut sources = Vec::with_capacity(layout.droppings.len());
    for d in &layout.droppings {
        take = &d.take;
        sources.push(match d.resident(unit.chunk) {
            Some(frames) => Src::Decoded(Arc::clone(frames)),
            None => Src::Stored(check_chunk(d, unit.chunk, ctx)?),
        });
    }
    let frames = unit.want.clone().map(|i| match take {
        Take::All => i - unit.first,
        Take::Frames { sel, .. } => sel[i] - unit.first,
    });

    let mut out = Vec::with_capacity(unit.want.len());
    let mut ts = ctx.span("query.reassemble");
    match (&layout.pieces, sources.as_slice()) {
        // A tagged or ranged answer: the tag's selected records.
        (None, [src]) => {
            for f in frames {
                out.push(src.row(f)?.to_frame());
            }
        }
        (Some((pieces, natoms)), [_, ..]) => {
            let mut rows = Vec::with_capacity(sources.len());
            for f in frames {
                rows.clear();
                for src in &sources {
                    rows.push(src.row(f)?);
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
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::ada::testkit::*;
    use crate::ada::{Ada, AdaConfig};
    use crate::labeler::LabelFile;
    use crate::{AdaError, ErrorKind, Labeler};
    use ada_mdformats::xtcf::{decode_chunk, parse_directory, seal_v2, write_xtcf};
    use ada_mdformats::{FormatError, Frame, Trajectory};
    use ada_mdmodel::{IndexRanges, PbcBox, Tag};
    use ada_simfs::Content;
    use std::collections::{BTreeMap, BTreeSet};
    use std::ops::Range;
    use std::sync::Arc;

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

    /// Write `source` straight into `ada`'s containers as dataset `d` of
    /// `natoms` atoms under the tags `labeler` lays out, so the label can
    /// have any shape: partitions, gaps no tag covers, and ranges of two
    /// tags that overlap, which no categorizer produces. Tag `t` (label
    /// order) is stored as ingest stores a tag — one v2 dropping, sealed in
    /// chunks of `chunk_frames[t]` frames. Tags with different chunk sizes
    /// are misaligned: a chunk of one spans chunk boundaries of the other,
    /// which ingest never writes. Returns the label as stored.
    fn store(
        ada: &Ada,
        natoms: usize,
        labeler: &Labeler,
        source: &[Frame],
        chunk_frames: &[usize],
    ) -> LabelFile {
        let containers = ada.containers();
        containers.create_logical("d").unwrap();
        let mut droppings = Vec::new();
        for ((tag, ranges), &chunk_frames) in labeler.iter().zip(chunk_frames) {
            let subset = source.iter().map(|f| f.subset(ranges)).collect();
            let v1 = write_xtcf(&Trajectory::from_frames(subset)).unwrap();
            let sealed = seal_v2(v1, ranges.count(), chunk_frames).unwrap();
            let backend = if *tag == Tag::protein() { "ssd" } else { "hdd" };
            let content = Content::real(sealed);
            let (record, _) = containers
                .append("d", tag.as_str(), backend, content)
                .unwrap();
            droppings.push(record);
        }
        let label = LabelFile::new("d", natoms, source.len(), labeler.clone(), droppings).unwrap();
        set_label(ada, label.clone());
        label
    }

    /// Make `label` the label of real dataset `d`.
    fn set_label(ada: &Ada, label: LabelFile) {
        ada.datasets.lock().insert("d".into(), Arc::new(label));
    }

    /// Per tag, its stored chunks in frame order, each `decode_chunk`ed.
    fn stored_chunks(ada: &Ada) -> BTreeMap<Tag, Vec<Vec<Frame>>> {
        let records = ada.containers().index("d").unwrap();
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

    /// The path of `tag`'s dropping.
    fn dropping_of(ada: &Ada, tag: &Tag) -> String {
        let records = ada.containers().index("d").unwrap();
        let record = records.into_iter().find(|r| r.tag == tag.as_str());
        record.unwrap().dropping_path
    }

    /// Whether `err` is an `xtcf` refusal naming `dropping` whose text
    /// starts with `why`.
    fn is_refusal(err: &AdaError, dropping: &str, why: &str) -> bool {
        matches!(err, AdaError::Xtcf { dropping: d, source: FormatError::Corrupt(text) }
            if d == dropping && text.starts_with(why))
    }

    /// What only a successful request moves: decoded bytes, cache
    /// admissions and tag heat.
    fn settled(ada: &Ada) -> (u64, u64, u64, crate::tiering::AccessCounts) {
        let s = ada.cache_stats();
        (
            s.bytes_decoded,
            s.inserts,
            s.bypasses,
            ada.access_counts("d"),
        )
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
        /// The retrieval contract: whatever the label, the chunk sizes
        /// (aligned across the tags or not), the cache state and the
        /// schedule, a full-frame answer is every tag's stored chunks,
        /// `decode_chunk`ed, laid out by the scatter reference — or, where
        /// the tags are cut into different chunks, `xtcf` naming the
        /// second tag's dropping, with nothing counted; a tagged answer is
        /// the tag's decoded chunks; a range read is its window of them —
        /// bit for bit. And `cache.bytes_decoded` moves exactly as the
        /// decode model says.
        #[test]
        fn prop_retrieval_is_decode_chunk_then_scatter(
            seed: u64,
            natoms in 0usize..40,
            nframes in 0usize..12,
            partition in 0usize..2,
            chunking in 0usize..16,
            aligned in 0usize..2,
        ) {
            let mut x = seed | 1;
            let mut next = |below: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as usize % below.max(1)
            };
            let layout = |c: usize| [0, 1, 3, 64][c % 4];
            let layouts = match aligned {
                1 => [layout(chunking); 2],
                _ => [layout(chunking), layout(chunking / 4)],
            };
            // Either a partition — every atom dealt to exactly one tag —
            // or free-for-all ranges: gaps no tag covers, and ranges of
            // the two tags that overlap.
            let names = [Tag::misc(), Tag::protein()];
            let mut tags: Labeler = BTreeMap::new();
            if partition == 1 {
                let owner: Vec<usize> = (0..natoms).map(|_| next(2)).collect();
                for (t, name) in names.iter().enumerate() {
                    let mine = (0..natoms).filter(|&a| owner[a] == t).map(|a| a..a + 1);
                    tags.insert(name.clone(), IndexRanges::from_ranges(mine));
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
            let windows: Vec<(Tag, Vec<usize>)> = (0..if nframes > 0 { 3 } else { 0 })
                .map(|_| {
                    let start = next(nframes);
                    let end = start + 1 + next(nframes - start);
                    let stride = 1 + next(3);
                    (names[next(2)].clone(), (start..end).step_by(stride).collect())
                })
                .collect();
            // Per tag, its chunks' frame counts; tags cut differently are
            // refused in full frames.
            let cut = |chunk_frames: usize| -> Vec<usize> {
                let per = if chunk_frames == 0 { nframes.max(1) } else { chunk_frames };
                source.chunks(per).map(<[Frame]>::len).collect()
            };
            let misaligned = cut(layouts[0]) != cut(layouts[1]);

            for query_threads in [0, 1, 4] {
                for (cache_on, prior_first) in [(false, false), (true, false), (true, true)] {
                    let cache = if cache_on { hot_cache_cfg() } else { ada_cache::CacheConfig::default() };
                    let ada = make_ada_with(AdaConfig {
                        query_threads,
                        cache,
                        ..AdaConfig::paper_prototype("ssd", "hdd")
                    });
                    let label = store(&ada, natoms, &tags, &source, &layouts);
                    let chunks = stored_chunks(&ada);
                    let per_tag: BTreeMap<Tag, Vec<Frame>> = chunks
                        .iter()
                        .map(|(t, cs)| (t.clone(), cs.concat()))
                        .collect();
                    for (t, frames) in &per_tag {
                        let subset: Vec<Frame> = source.iter().map(|s| s.subset(&tags[t])).collect();
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
                        if misaligned {
                            let before = settled(&ada);
                            let err = ada.query("d", None).unwrap_err();
                            let p = dropping_of(&ada, &Tag::protein());
                            proptest::prop_assert!(
                                is_refusal(&err, &p, "chunks are cut unlike"),
                                "{} full: {:?}", what, err
                            );
                            proptest::prop_assert_eq!(settled(&ada), before, "{} full", what);
                        } else {
                            let got = frames_of(ada.query("d", None).unwrap());
                            proptest::prop_assert_eq!(bits(&got), bits(&full), "{} full", what);
                            for t in per_tag.keys() {
                                model.touch(t, None);
                            }
                            proptest::prop_assert_eq!(ada.cache_stats().bytes_decoded, model.bytes, "{} full", what);
                        }
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

    /// A full-frame answer over tags sealed in different chunks — 2 and 3
    /// frames, a layout ingest never writes — is refused as `xtcf` naming
    /// the second tag's dropping, at every thread count, and counts
    /// nothing; each tag alone, whole or ranged, is still its stored chunks
    /// bit for bit.
    #[test]
    fn tags_cut_into_other_chunks_are_refused_in_full_frames() {
        for query_threads in [0, 1, 4] {
            let ada = make_ada_with(AdaConfig {
                query_threads,
                ..AdaConfig::paper_prototype("ssd", "hdd")
            });
            let tags: Labeler = [
                (Tag::misc(), IndexRanges::single(0..2)),
                (Tag::protein(), IndexRanges::single(2..5)),
            ]
            .into();
            let source: Vec<Frame> = (0..6)
                .map(|i| Frame::from_coords(vec![[i as f32; 3]; 5]))
                .collect();
            store(&ada, 5, &tags, &source, &[2, 3]);

            let err = ada.query("d", None).unwrap_err();
            assert_eq!(err.error_kind(), ErrorKind::Xtcf);
            let p = dropping_of(&ada, &Tag::protein());
            assert!(is_refusal(&err, &p, "chunks are cut unlike"), "{:?}", err);
            assert_eq!(ada.cache_stats().bytes_decoded, 0);
            assert!(ada.access_counts("d").is_empty());

            for (t, chunks) in stored_chunks(&ada) {
                let whole = chunks.concat();
                let got = frames_of(ada.query("d", Some(&t)).unwrap());
                assert_eq!(bits(&got), bits(&whole), "tag {}", t);
                let got = frames_of(ada.query_range("d", &t, 1..6, 2).unwrap());
                let want: Vec<Frame> = [1, 3, 5].iter().map(|&i| whole[i].clone()).collect();
                assert_eq!(bits(&got), bits(&want), "tag {} ranged", t);
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
            let tags: Labeler = [
                (Tag::misc(), IndexRanges::single(0..2)),
                (Tag::protein(), IndexRanges::single(2..5)),
            ]
            .into();
            let source = vec![Frame::from_coords(vec![[1.0; 3]; 5]); 6];
            // The label promises three frames more than either tag holds.
            let mut short = store(&ada, 5, &tags, &source, &[2, 2]);
            short.nframes = 9;
            set_label(&ada, short.clone());
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

    /// A range read whose window runs past the frames the tag's dropping
    /// holds — the label promises 9, the dropping's directory declares 6 —
    /// fails with `FrameCountMismatch` naming the tag, at every thread
    /// count, and leaves no heat and no decoded byte. So does a stride that
    /// selects only frames the dropping holds, and so does a window whose
    /// selected frames are all resident in the cache.
    #[test]
    fn a_window_past_the_dropping_is_a_frame_count_mismatch() {
        for query_threads in [0, 4] {
            let ada = make_ada_with(AdaConfig {
                query_threads,
                cache: hot_cache_cfg(),
                ..AdaConfig::paper_prototype("ssd", "hdd")
            });
            let tags: Labeler = [
                (Tag::misc(), IndexRanges::single(0..2)),
                (Tag::protein(), IndexRanges::single(2..5)),
            ]
            .into();
            let source = vec![Frame::from_coords(vec![[1.0; 3]; 5]); 6];
            let mut long = store(&ada, 5, &tags, &source, &[2, 2]);
            long.nframes = 9;
            set_label(&ada, long);
            let past = |window: Range<usize>, stride| {
                let err = ada
                    .query_range("d", &Tag::protein(), window, stride)
                    .unwrap_err();
                assert!(
                    matches!(&err, AdaError::FrameCountMismatch { tag, expected: 9, got: 6 } if tag == "p"),
                    "{:?}",
                    err
                );
            };
            past(0..9, 1);
            // Frame 0 alone is selected, but the window ends at 7.
            past(0..7, 7);
            assert!(ada.access_counts("d").is_empty());
            assert_eq!(ada.cache_stats().bytes_decoded, 0);
            // A window inside the dropping still reads, and leaves its
            // chunks resident.
            let got = frames_of(ada.query_range("d", &Tag::protein(), 0..6, 1).unwrap());
            assert_eq!(got.len(), 6);
            let before = ada.cache_stats();
            past(0..7, 7);
            let after = ada.cache_stats();
            assert_eq!(after.hits, before.hits + 1);
            assert_eq!(after.bytes_decoded, before.bytes_decoded);
        }
    }
}
