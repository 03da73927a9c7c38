//! The I/O retriever: fetch the droppings a query needs and write its
//! answer from them.
//!
//! [`Ada::retrieve`] is the one body of `query` and `query_range`. It
//! takes the label entries the indexer found — each answer tag's ranges
//! and its one dropping, in label order. On the caller's thread it looks
//! every dropping up in the cache, fetches the misses in that order
//! ([`Ada::fetch_in_order`]), plans each ([`plan`]: which of its chunks
//! are resident and which are stored and still to be checked) and lays
//! the plans out ([`units`]). The answer is cut
//! into **units**, one per chunk: chunk *c* of every answer tag's
//! dropping, as ingest sealed it. A unit checks its stored chunks
//! (`verify_chunk`, then the directory's atom count against the label's),
//! reads them in place and writes the answer's frames inside it, each one
//! once, straight from its sources — cache on or off. The pool's
//! `query_threads` workers claim units; `query_threads = 0` runs them
//! inline — the reference schedule, which spawns nothing and which
//! `query_equivalence` and `core.parallel_speedup` compare the pool with —
//! and so does a request with nothing stored to check.
//!
//! Every schedule fails with the same error: a fetch failure (everything
//! is fetched before anything is checked), else the first failure in
//! (unit, tag in label order) order. A dropping that cannot be planned
//! ranks ahead of every unit; so does, in a full-frame answer, a tag cut
//! into other chunks than the first tag's, and a tag whose frame count
//! disagrees with the label ranks ahead of the unit of its first missing
//! or surplus frame.

mod units;

use super::Ada;
use crate::labeler::{LabelFile, TagEntry};
use crate::AdaError;
use ada_cache::{Admission, CacheKey, DecodedDropping};
use ada_mdformats::xtcf::{decode_chunk, parse_directory, ChunkDirectory, ChunkEntry};
use ada_mdformats::{FormatError, Frame};
use ada_plfs::IndexRecord;
use ada_simfs::Content;
use ada_storagesim::SimDuration;
use ada_telemetry::trace::TraceContext;
use std::collections::BTreeMap;
use std::sync::Arc;
use units::{run_unit, Layout};

/// How one dropping of a retrieval contributes to the answer.
pub(super) enum Take {
    /// Every frame.
    All,
    /// The frames a window selects, ascending, and the window's end (a
    /// range read): only the chunks the frames live in are checked.
    Frames { sel: Vec<usize>, end: usize },
}

impl Take {
    /// Whether a resident cache entry holds everything this take needs.
    fn covered_by(&self, entry: &DecodedDropping) -> bool {
        match self {
            Take::Frames { sel, .. } => entry.has_frames(sel),
            Take::All => entry.is_complete(),
        }
    }

    /// Refuse a window that runs past the `held` frames of `tag`'s
    /// dropping: the label's `nframes` promising more than it holds.
    fn check_held(&self, tag: &str, held: usize, nframes: usize) -> Result<(), AdaError> {
        match self {
            Take::Frames { end, .. } if *end > held => Err(AdaError::FrameCountMismatch {
                tag: tag.to_string(),
                expected: nframes,
                got: held,
            }),
            _ => Ok(()),
        }
    }
}

/// What the cache holds for one dropping of a request.
enum Cached {
    /// An entry that covers the take: nothing is fetched.
    Hit(Arc<DecodedDropping>),
    /// Fetch it; a partial entry rides along as the prior whose chunks
    /// need no check.
    Miss(Option<Arc<DecodedDropping>>),
}

/// Where a planned dropping's chunks come from.
enum Source {
    /// A cache hit.
    Hit(Arc<DecodedDropping>),
    /// A stored dropping: its units check the `todo` chunks; the other
    /// chunks the take needs are resident in `prior`.
    Stored {
        content: Content,
        dir: ChunkDirectory,
        prior: Option<Arc<DecodedDropping>>,
        todo: Vec<usize>,
    },
}

/// One answer tag's dropping, planned.
struct Planned<'l> {
    entry: &'l TagEntry,
    take: Take,
    source: Source,
}

impl Planned<'_> {
    /// The resident frames of chunk `c`.
    fn resident(&self, c: usize) -> Option<&Arc<Vec<Frame>>> {
        match &self.source {
            Source::Hit(entry) => entry.chunk(c),
            Source::Stored { prior, .. } => prior.as_ref()?.chunk(c),
        }
    }
}

pub(super) fn xtcf_err(record: &IndexRecord, source: FormatError) -> AdaError {
    AdaError::Xtcf {
        dropping: record.dropping_path.clone(),
        source,
    }
}

/// Frame `frame` of `record` carries `got` atoms where the tag's label
/// ranges select `want` — the answer would slice it out of bounds.
pub(super) fn atoms_err(record: &IndexRecord, frame: usize, got: usize, want: usize) -> AdaError {
    xtcf_err(
        record,
        FormatError::Corrupt(format!(
            "frame {} has {} atoms, tag '{}' selects {}",
            frame, got, record.tag, want
        )),
    )
}

/// What `Frame::nbytes` sums to over a chunk's frames once decoded: what a
/// checked chunk adds to `cache.bytes_decoded`, decoded or read in place.
fn decoded_bytes(e: &ChunkEntry) -> u64 {
    let frame = std::mem::size_of::<Frame>() + e.natoms as usize * std::mem::size_of::<[f32; 3]>();
    u64::from(e.nframes) * frame as u64
}

/// The chunk directory of a fetched dropping. Ingest seals every dropping
/// with one, so a dropping without it is refused, not decoded some other
/// way.
pub(super) fn directory(
    record: &IndexRecord,
    content: &Content,
) -> Result<ChunkDirectory, AdaError> {
    let parsed = parse_directory(content.bytes()).map_err(|e| xtcf_err(record, e))?;
    parsed.ok_or_else(|| {
        xtcf_err(
            record,
            FormatError::Corrupt("dropping carries no chunk directory".into()),
        )
    })
}

/// Plan a fetched dropping: parse its chunk directory, refuse a window past
/// the frames it declares, and list the chunks its take needs that `prior`
/// does not hold — the ones its units check.
fn plan(
    entry: &TagEntry,
    take: Take,
    content: Content,
    prior: Option<Arc<DecodedDropping>>,
    nframes: usize,
) -> Result<Planned<'_>, AdaError> {
    let record = &entry.dropping;
    let dir = directory(record, &content)?;
    take.check_held(&record.tag, dir.nframes(), nframes)?;
    let same_layout = |p: &Arc<DecodedDropping>| {
        p.chunk_layout()
            .iter()
            .eq(dir.entries.iter().map(|e| &e.nframes))
    };
    let prior = prior.filter(same_layout);
    let mut todo: Vec<usize> = Vec::new();
    let need = |c: usize| {
        if todo.last() != Some(&c) && prior.as_ref().is_none_or(|p| p.chunk(c).is_none()) {
            todo.push(c);
        }
    };
    match &take {
        Take::Frames { sel, .. } => sel
            .iter()
            .filter_map(|&f| dir.chunk_of_frame(f))
            .for_each(need),
        Take::All => (0..dir.nchunks()).for_each(need),
    }
    Ok(Planned {
        entry,
        take,
        source: Source::Stored {
            content,
            dir,
            prior,
            todo,
        },
    })
}

impl Ada {
    /// The one retrieval body (see the module docs). Returns the answer's
    /// frames — the label entries `takes` carry, in label order, laid into
    /// full frames when `full`, else the frames the one entry's take
    /// selects — and the simulated backend read time. Cache hits
    /// contribute **zero** backend read time — that is the point of
    /// keeping the hot set decoded.
    ///
    /// Byte-equivalence contract: a hit supplies exactly the frames a fresh
    /// decode of the same dropping would (same key ⇒ same commit of the
    /// dataset ⇒ same dropping bytes ⇒ same frames), so cache-on and
    /// cache-off answers are indistinguishable to callers. The key's third
    /// field is the `generation` the label was resolved at.
    pub(super) fn retrieve(
        &self,
        dataset: &str,
        generation: u64,
        label: &LabelFile,
        full: bool,
        takes: Vec<(&TagEntry, Take)>,
        ctx: &TraceContext,
    ) -> Result<(Vec<Frame>, SimDuration), AdaError> {
        let cached: Vec<Cached> = if self.cache.enabled() {
            let mut ts = ctx.span("cache.lookup");
            let cached: Vec<Cached> = takes
                .iter()
                .map(|(entry, take)| {
                    // The atom count was validated once when the entry was
                    // decoded; a hit revalidates the whole dropping with
                    // this one comparison.
                    let hit = self
                        .cache
                        .get(&CacheKey::new(dataset, &entry.dropping.tag, generation))
                        .filter(|e| e.natoms == entry.ranges.count());
                    match hit {
                        Some(e) if take.covered_by(&e) => Cached::Hit(e),
                        prior => Cached::Miss(prior),
                    }
                })
                .collect();
            let hits = cached
                .iter()
                .filter(|c| matches!(c, Cached::Hit(_)))
                .count();
            ts.arg("hits", hits);
            ts.arg("misses", cached.len() - hits);
            cached
        } else {
            takes.iter().map(|_| Cached::Miss(None)).collect()
        };

        let missed = takes
            .iter()
            .zip(&cached)
            .filter(|(_, c)| matches!(c, Cached::Miss(_)))
            .map(|((entry, _), _)| &entry.dropping);
        let (contents, read) = if cached.iter().any(|c| matches!(c, Cached::Miss(_))) {
            self.fetch_in_order(missed, ctx)?
        } else {
            (Vec::new(), SimDuration::ZERO)
        };
        let mut contents = contents.into_iter();
        let planned: Vec<Result<Planned, AdaError>> = takes
            .into_iter()
            .zip(cached)
            .map(|((entry, take), cached)| match cached {
                Cached::Hit(hit) => take
                    .check_held(&entry.dropping.tag, hit.nframes(), label.nframes)
                    .map(|()| Planned {
                        entry,
                        take,
                        source: Source::Hit(hit),
                    }),
                Cached::Miss(prior) => match contents.next() {
                    Some(content) => plan(entry, take, content, prior, label.nframes),
                    None => Err(AdaError::Internal("a miss was not fetched".into())),
                },
            })
            .collect();

        let layout = Layout::new(label, full, planned);
        let units = layout.units();
        let stored = layout
            .droppings
            .iter()
            .any(|d| matches!(d.source, Source::Stored { .. }));
        let threads = if stored { self.config.query_threads } else { 0 };
        let outs = crate::run_pool("query unit", threads, units.len(), ctx, |ctx, claim| {
            let mut done = Vec::new();
            while let Some(u) = claim() {
                if let Some(unit) = units.get(u) {
                    done.push((u, run_unit(&layout, unit, ctx)));
                }
            }
            done
        })?;

        // Units come back in frame order: the first `Err` met here is the
        // request's, and the cut ranks behind every unit.
        let mut frames = Vec::new();
        for out in outs {
            let out = out?;
            if frames.is_empty() {
                frames = out;
            } else {
                frames.extend(out);
            }
        }
        if let Some(e) = layout.cut {
            return Err(e);
        }
        self.settle(dataset, generation, layout.droppings);
        Ok((frames, read))
    }

    /// A retrieval succeeded: count what it read and checked — per
    /// dropping, the chunks checked and skipped; the frame bytes decoded,
    /// cache on or off — and, cache on, offer each fresh payload to the
    /// cache. A payload's cost is known from the chunk directory before
    /// anything is decoded — its chunks `prior` holds and its fresh ones —
    /// so one the cache would refuse (`DecodedCache::admission`) is not
    /// decoded at all; an admitted one has its fresh chunks decoded
    /// (`decode_chunk`), counted in `cache.settle.bytes_decoded`. Nothing
    /// is counted for a failed request. A payload is keyed by the
    /// `generation` its label was resolved at: should the name be deleted
    /// and re-committed meanwhile, it is never found under the new commit.
    /// Nor does it stay resident: a payload stored once that commit is no
    /// longer `Live` is taken out again. (A delete claims the name before
    /// it invalidates the cache, so a payload stored before this check
    /// found the commit `Live` is the delete's to remove.)
    fn settle(&self, dataset: &str, generation: u64, droppings: Vec<Planned>) {
        let (mut bytes, mut checked, mut skipped) = (0u64, 0u64, 0u64);
        for d in &droppings {
            let Source::Stored { dir, todo, .. } = &d.source else {
                continue;
            };
            let fresh = todo.iter().filter_map(|&c| dir.entries.get(c));
            bytes += fresh.map(decoded_bytes).sum::<u64>();
            let (n, of) = (todo.len() as u64, dir.nchunks() as u64);
            checked += n;
            skipped += of - n;
        }
        if bytes > 0 {
            self.cache.note_decoded(bytes);
        }
        // An all-hit request read no stored chunk: nothing to add.
        if checked + skipped > 0 && ada_telemetry::enabled() {
            self.metrics.chunks_checked.add(checked);
            self.metrics.chunks_skipped.add(skipped);
        }

        if !self.cache.enabled() {
            return;
        }
        for d in droppings {
            let Source::Stored {
                content,
                dir,
                prior,
                todo,
            } = d.source
            else {
                continue;
            };
            let mut chunks: Vec<Option<Arc<Vec<Frame>>>> = (0..dir.nchunks())
                .map(|c| prior.as_ref().and_then(|p| p.chunk(c).cloned()))
                .collect();
            let cost = |c: usize| dir.entries.get(c).map_or(0, decoded_bytes);
            let fresh: u64 = todo.iter().map(|&c| cost(c)).sum();
            let held: u64 = (0..chunks.len())
                .filter(|&c| chunks[c].is_some())
                .map(cost)
                .sum();
            if self.cache.admission(held + fresh) != Admission::Admitted {
                continue;
            }
            for c in todo {
                let frames = decode_chunk(content.bytes(), &dir, c).ok();
                if let (Some(slot), Some(frames)) = (chunks.get_mut(c), frames) {
                    *slot = Some(Arc::new(frames));
                }
            }
            if ada_telemetry::enabled() {
                self.metrics.settle_decoded.add(fresh);
            }
            let payload = Arc::new(DecodedDropping::from_chunks(
                dir.chunk_nframes(),
                chunks,
                d.entry.ranges.count(),
            ));
            let key = CacheKey::new(dataset, &d.entry.dropping.tag, generation);
            let stored = self.cache.insert(key.clone(), &payload, 0) == Admission::Admitted;
            if stored && !self.is_live(dataset, generation) {
                self.cache.remove(&key);
            }
        }
    }

    /// Fetch `records` one after another on the caller's thread, under
    /// one `query.read` span: the read stage of every retrieval. The
    /// simulated read time is the paper's model, not this loop's clock:
    /// reads within a backend queue up, backends overlap, so the slowest
    /// backend's sum is the read.
    fn fetch_in_order<'a>(
        &self,
        records: impl Iterator<Item = &'a IndexRecord>,
        ctx: &TraceContext,
    ) -> Result<(Vec<Content>, SimDuration), AdaError> {
        let containers = &self.containers;
        let mut ts = ctx.span("query.read");
        let mut per_backend: BTreeMap<String, SimDuration> = BTreeMap::new();
        let mut bytes = 0u64;
        let mut fetched = Vec::new();
        for record in records {
            let (content, cost) = containers.read_dropping(record)?;
            *per_backend
                .entry(record.backend.clone())
                .or_insert(SimDuration::ZERO) += cost;
            bytes += content.len();
            fetched.push(content);
        }
        ts.arg("bytes", bytes);
        let read = per_backend.into_values().max().unwrap_or_default();
        Ok((fetched, read))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{AdaConfig, IngestInput};
    use super::{plan, CacheKey, Take};
    use ada_mdformats::Trajectory;
    use ada_mdmodel::Tag;
    use ada_telemetry::trace::{TraceContext, TraceSpan};

    /// A payload a query decoded from commit g of a name — its `settle`
    /// landing only after the name was deleted and re-committed at a later
    /// generation — is never served for the new commit: not to a whole-tag
    /// query, not to a range read, not from the cache.
    #[test]
    fn a_late_settle_from_an_old_commit_is_never_served() {
        // Two inputs of one structure: eight frames, and six others.
        let w = ada_workload::gpcr_workload(600, 8, 1);
        let other = ada_workload::gpcr_workload(600, 6, 2).trajectory;
        let input = |t: &Trajectory| IngestInput::Real {
            pdb_text: ada_mdformats::write_pdb(&w.system),
            xtc_bytes: ada_mdformats::xtc::write_xtc(t, 1000.0).unwrap(),
        };
        let tag = Tag::protein();
        let reference = make_ada();
        reference.ingest("d", input(&other)).unwrap();
        let expected = frames_of(reference.query("d", Some(&tag)).unwrap());

        let ada = make_ada_with(cached_config(2, hot_cache_cfg()));
        ada.ingest("d", input(&w.trajectory)).unwrap();
        // A query resolves commit g and fetches its protein dropping ...
        let (old, g) = ada.label_of("d").unwrap();
        let entry = old.entry(&tag).unwrap();
        let (content, _) = ada.containers().read_dropping(&entry.dropping).unwrap();
        // ... the name is deleted and re-committed meanwhile ...
        ada.delete_dataset("d").unwrap();
        ada.ingest("d", input(&other)).unwrap();
        assert!(ada.label_of("d").unwrap().1 > g);
        // ... and only then does the query's settle offer its payload.
        let inserts = ada.cache_stats().inserts;
        let planned = plan(entry, Take::All, content, None, old.nframes).unwrap();
        ada.settle("d", g, vec![planned]);
        assert_eq!(ada.cache_stats().inserts, inserts + 1, "admitted");
        // ... and taken out again: commit g is not `Live`, so its payload
        // holds no budget.
        let stale = CacheKey::new("d", &entry.dropping.tag, g);
        assert!(
            !ada.cache.contains(&stale),
            "the stale payload stays resident"
        );
        assert_eq!(ada.cache_stats().resident_bytes, 0);

        for _ in 0..2 {
            assert_eq!(frames_of(ada.query("d", Some(&tag)).unwrap()), expected);
            let range = frames_of(ada.query_range("d", &tag, 0..6, 1).unwrap());
            assert_eq!(range, expected);
        }
        assert!(ada.cache_stats().hits > 0, "the new commit's own payload");
    }

    #[test]
    fn cached_query_is_byte_identical_and_stops_decoding() {
        let cold = make_ada_with(cached_config(2, ada_cache::CacheConfig::default()));
        let hot = make_ada_with(cached_config(2, hot_cache_cfg()));
        let (input, _) = real_input(1200, 6);
        cold.ingest("bar", input).unwrap();
        let (input2, _) = real_input(1200, 6);
        hot.ingest("bar", input2).unwrap();
        let tag = Tag::protein();
        let reference = frames_of(cold.query("bar", Some(&tag)).unwrap());
        let first = frames_of(hot.query("bar", Some(&tag)).unwrap());
        let decoded_after_first = hot.cache_stats().bytes_decoded;
        assert!(decoded_after_first > 0);
        let second = frames_of(hot.query("bar", Some(&tag)).unwrap());
        assert_eq!(first, reference);
        assert_eq!(second, reference);
        let stats = hot.cache_stats();
        assert_eq!(
            stats.bytes_decoded, decoded_after_first,
            "hot query must not re-decode"
        );
        assert!(stats.hits > 0);
        // The cache-off instance still counts decodes, uniformly.
        let cold_decoded = cold.cache_stats().bytes_decoded;
        assert!(cold_decoded > 0);
        frames_of(cold.query("bar", Some(&tag)).unwrap());
        assert!(cold.cache_stats().bytes_decoded > cold_decoded);
    }

    /// `(cache.bytes_decoded, cache.settle.bytes_decoded, cache.bypass)`.
    fn decoded(ada: &super::Ada) -> (u64, u64, u64) {
        let mut snap = ada_telemetry::Snapshot::default();
        ada.write_metrics(&mut snap);
        let settled = snap.counters.get("cache.settle.bytes_decoded");
        let stats = ada.cache_stats();
        (
            stats.bytes_decoded,
            settled.copied().unwrap_or(0),
            stats.bypasses,
        )
    }

    /// `settle` decodes for the cache exactly what it admits: an admitted
    /// miss decodes its fresh chunks a second time, as many bytes as the
    /// query's own count; a miss the cache refuses as too large decodes
    /// nothing more, and is counted as one bypass.
    #[test]
    fn settle_decodes_only_what_the_cache_admits() {
        let tag = Tag::protein();
        let ada = make_ada_with(cached_config(2, hot_cache_cfg()));
        let (input, _) = real_input(1000, 4);
        ada.ingest("bar", input).unwrap();
        ada.query_range("bar", &tag, 0..2, 1).unwrap();
        let (bytes, settled, bypasses) = decoded(&ada);
        assert!(bytes > 0);
        assert_eq!((settled, bypasses), (bytes, 0), "one chunk, admitted");
        // A wider window: only its fresh chunk is decoded, twice.
        ada.query("bar", Some(&tag)).unwrap();
        let (more, settled, _) = decoded(&ada);
        assert_eq!(settled, more, "admitted on its first query");
        assert_eq!(decoded(&ada), (more, more, 0));

        // One byte a shard: every payload is too large.
        let tiny = ada_cache::CacheConfig::with_capacity(8);
        let ada = make_ada_with(cached_config(2, tiny));
        let (input, _) = real_input(1000, 4);
        ada.ingest("bar", input).unwrap();
        for n in 1..=2 {
            ada.query("bar", Some(&tag)).unwrap();
            let (bytes, settled, bypasses) = decoded(&ada);
            assert!(bytes > 0);
            assert_eq!((settled, bypasses), (0, n), "refused before decoding");
        }
        assert_eq!(ada.cache_stats().inserts, 0);
    }

    /// Run `request` under a fresh root and return the trace it sealed.
    fn traced(
        ada: &super::Ada,
        request: impl FnOnce(&TraceContext),
    ) -> std::sync::Arc<ada_telemetry::trace::Trace> {
        let (ctx, root) = ada.flight_recorder().root("ada.query");
        let id = ctx.trace_id().expect("tracing is on by default");
        request(&ctx);
        drop(root);
        let sealed = ada.flight_recorder().all().into_iter().find(|t| t.id == id);
        sealed.expect("the trace was just sealed")
    }

    /// The `query.read` and `query.decode` spans of a trace, having checked
    /// what every schedule promises: one fetch loop, on the caller's
    /// thread, over before the first decode starts.
    fn reads_then_decodes(trace: &ada_telemetry::trace::Trace) -> Vec<&TraceSpan> {
        let named =
            |name: &str| -> Vec<_> { trace.spans.iter().filter(|s| s.name == name).collect() };
        let (reads, decodes) = (named("query.read"), named("query.decode"));
        assert_eq!(reads.len(), 1, "one fetch loop");
        assert_eq!(reads[0].thread, trace.root().expect("root span").thread);
        assert!(decodes.iter().all(|d| d.start_ns >= reads[0].end_ns));
        decodes
    }

    #[test]
    fn serial_schedule_spawns_nothing_and_reads_before_it_decodes() {
        // The reference must not share the scheduling it is there to
        // check: no thread, and every dropping fetched before any decode.
        let ada = make_ada_with(AdaConfig {
            query_threads: 0,
            ..cached_config(2, ada_cache::CacheConfig::default())
        });
        let (input, _) = real_input(800, 6); // 3 chunks per tag
        ada.ingest("bar", input).unwrap();
        let trace = traced(&ada, |ctx| {
            ada.query_traced("bar", None, ctx).unwrap();
        });
        let decodes = reads_then_decodes(&trace);
        assert_eq!(decodes.len(), 6, "one check per stored chunk");
        let caller = &trace.root().expect("root span").thread;
        assert!(trace.spans.iter().all(|s| &s.thread == caller));
    }

    #[test]
    fn pool_schedule_reads_on_the_caller_and_clamps_workers_to_units() {
        let ada = make_ada_with(AdaConfig {
            query_threads: 4,
            ..cached_config(2, ada_cache::CacheConfig::default())
        });
        let (input, _) = real_input(800, 12); // 6 chunks per tag
        ada.ingest("bar", input).unwrap();
        let workers = |trace: &ada_telemetry::trace::Trace, decodes: &[&TraceSpan]| {
            let caller = &trace.root().expect("root span").thread;
            assert!(decodes.iter().all(|d| &d.thread != caller));
            let threads: std::collections::BTreeSet<_> =
                decodes.iter().map(|d| d.thread.clone()).collect();
            threads.len()
        };

        let trace = traced(&ada, |ctx| {
            ada.query_traced("bar", None, ctx).unwrap();
        });
        let decodes = reads_then_decodes(&trace);
        assert_eq!(decodes.len(), 12);
        assert!(workers(&trace, &decodes) <= 4);

        // One chunk: one unit, so one worker — not four.
        let trace = traced(&ada, |ctx| {
            let tag = Tag::protein();
            ada.query_range_traced("bar", &tag, 0..2, 1, ctx).unwrap();
        });
        let decodes = reads_then_decodes(&trace);
        assert_eq!(decodes.len(), 1);
        assert_eq!(workers(&trace, &decodes), 1);
        let spawned: std::collections::BTreeSet<_> =
            trace.spans.iter().map(|s| s.thread.clone()).collect();
        assert_eq!(spawned.len(), 2, "the caller and one decode worker");
    }

    fn chunked_config(chunk_frames: usize, cache: ada_cache::CacheConfig) -> AdaConfig {
        AdaConfig {
            chunk_frames,
            cache,
            ..AdaConfig::paper_prototype("ssd", "hdd")
        }
    }

    #[test]
    fn partial_window_decodes_only_touched_chunks() {
        // One 64-frame dropping per tag, sealed as 8 chunks of 8 frames.
        // Cache off: every decode is fresh, so `bytes_decoded` measures
        // exactly which chunks each query touched — inline and on the pool.
        for query_threads in [0, 4] {
            let ada = make_ada_with(AdaConfig {
                query_threads,
                ..chunked_config(8, ada_cache::CacheConfig::default())
            });
            let (input, _) = real_input(600, 64);
            ada.ingest("bar", input).unwrap();
            let tag = Tag::protein();
            ada.query_range("bar", &tag, 0..8, 1).unwrap();
            let one = ada.cache_stats().bytes_decoded;
            assert!(one > 0, "one chunk's worth of fresh decode");
            // Frames 8..24 live in chunks 1 and 2: two chunks, not the file.
            ada.query_range("bar", &tag, 8..24, 1).unwrap();
            assert_eq!(ada.cache_stats().bytes_decoded, one * 3);
            // A full-tag query decodes all 8 chunks.
            ada.query("bar", Some(&tag)).unwrap();
            assert_eq!(ada.cache_stats().bytes_decoded, one * 11);
        }
    }

    #[test]
    fn cached_partial_window_upgrades_in_place() {
        // With the cache on, a dropping's entry records which chunks are
        // resident: a repeat window decodes nothing, and a wider window
        // only decodes the chunks the entry is missing.
        for query_threads in [0, 4] {
            let ada = make_ada_with(AdaConfig {
                query_threads,
                ..chunked_config(8, hot_cache_cfg())
            });
            let (input, _) = real_input(600, 64);
            ada.ingest("bar", input).unwrap();
            let tag = Tag::protein();
            ada.query_range("bar", &tag, 0..8, 1).unwrap();
            let one = ada.cache_stats().bytes_decoded;
            assert!(one > 0);
            ada.query_range("bar", &tag, 0..8, 1).unwrap();
            assert_eq!(
                ada.cache_stats().bytes_decoded,
                one,
                "repeat window is free"
            );
            ada.query_range("bar", &tag, 0..16, 1).unwrap();
            let stats = ada.cache_stats();
            assert_eq!(stats.bytes_decoded, one * 2, "only chunk 1 is fresh");
            assert!(stats.hits > 0);
        }
    }
}
