//! The I/O retriever: fetch the droppings a query needs and hand them
//! back decoded.
//!
//! [`Ada::retrieve_droppings`] partitions the request into cache hits and
//! misses; the misses go through one body ([`Ada::fetch_and_decode`]):
//! [`Ada::fetch_in_order`] on the caller's thread, [`plan`] (which units
//! of a fetched dropping to decode) for each dropping in logical order,
//! [`decode_unit`] (one whole v1 file or one v2 chunk, atom-count
//! validated) over the planned units, and [`assemble`] (resident chunks +
//! fresh chunks → payload). A backend read is a refcount clone beside a
//! decode that costs milliseconds, so decode is the one stage worth a
//! pool: `query_threads` workers claim units from it, and `query_threads
//! = 0` decodes them inline — the reference schedule, which spawns
//! nothing and which `query_equivalence` and `core.parallel_speedup`
//! compare the pool with.
//!
//! Every schedule fails with the same error: a fetch failure (everything
//! is fetched before anything is decoded), else the first failure in
//! (dropping, chunk) order, a plan failure ranking as chunk 0.

use super::{max_across_backends, Ada};
use crate::labeler::LabelFile;
use crate::AdaError;
use ada_cache::{CacheKey, DecodedDropping};
use ada_mdformats::xtcf::{decode_chunk, parse_directory, read_xtcf, ChunkDirectory};
use ada_mdformats::{FormatError, Frame};
use ada_mdmodel::Tag;
use ada_plfs::IndexRecord;
use ada_simfs::Content;
use ada_storagesim::SimDuration;
use ada_telemetry::trace::TraceContext;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-dropping retrieval output, keyed by the record's logical index and
/// its tag (`K = String`) or the whole record, plus the simulated backend
/// read time of the whole batch.
type Retrieved<K, T> = (Vec<(usize, K, T)>, SimDuration);

/// Dropping-local frames a retrieval must deliver: `None` means the whole
/// dropping (full queries, readahead warming), `Some` the ascending local
/// frame indices a range read actually selects — the retriever decodes
/// only the chunks those frames live in.
pub(super) type FrameSelection = Option<Vec<usize>>;

/// One retrieval work item after the cache lookup: the dropping, the
/// frames wanted from it, and whatever partial payload is already resident
/// (so only the missing chunks are decoded and the entry upgrades in
/// place).
struct RetrieveItem {
    idx: usize,
    record: IndexRecord,
    select: FrameSelection,
    prior: Option<Arc<DecodedDropping>>,
}

/// A freshly assembled dropping payload plus the frame bytes that were
/// actually decoded to build it (resident prior chunks cost nothing).
struct PayloadOutcome {
    payload: DecodedDropping,
    fresh_bytes: u64,
}

/// A fetched dropping with its decode plan, and what the assembly needs
/// once the planned units are decoded.
struct Planned {
    idx: usize,
    record: IndexRecord,
    /// Atoms the label says this tag selects; every decoded frame is
    /// checked against it.
    natoms: Option<usize>,
    /// Chunk directory of a v2 container. `None` is a v1 file, which
    /// always decodes whole, as the single unit 0 (the compatibility shim).
    dir: Option<ChunkDirectory>,
    /// A resident payload whose chunk layout matches `dir` — only then can
    /// its chunks be merged with a fresh decode.
    prior: Option<Arc<DecodedDropping>>,
    /// Chunks to decode, ascending: the ones the selection touches, minus
    /// any already resident in `prior`.
    units: Vec<usize>,
}

pub(super) fn xtcf_err(record: &IndexRecord, source: FormatError) -> AdaError {
    AdaError::Xtcf {
        dropping: record.dropping_path.clone(),
        source,
    }
}

/// [`xtcf_err`] for a chunk that failed its span or checksum test
/// (`verify_chunk`, alone or inside `decode_chunk`): the one place
/// `xtcf.chunk.corrupt` is counted, whether the chunk was about to be
/// decoded or forwarded.
pub(super) fn chunk_err(record: &IndexRecord, source: FormatError) -> AdaError {
    if matches!(source, FormatError::ChunkCorrupt { .. }) && ada_telemetry::enabled() {
        ada_telemetry::global().counter("xtcf.chunk.corrupt").inc();
    }
    xtcf_err(record, source)
}

/// Frame `frame` of a unit of `record` carries `got` atoms where the
/// tag's label ranges select `want` — reassembly would slice it out of
/// bounds.
pub(super) fn atoms_err(record: &IndexRecord, frame: usize, got: usize, want: usize) -> AdaError {
    xtcf_err(
        record,
        FormatError::Corrupt(format!(
            "frame {} has {} atoms, tag '{}' selects {}",
            frame, got, record.tag, want
        )),
    )
}

/// The bytes of a fetched dropping; size-only content cannot be decoded.
pub(super) fn real_bytes<'a>(
    record: &IndexRecord,
    content: &'a Content,
) -> Result<&'a [u8], AdaError> {
    match content.as_real() {
        Some(bytes) => Ok(bytes),
        None => Err(xtcf_err(
            record,
            FormatError::Corrupt("expected real dropping bytes".into()),
        )),
    }
}

/// Map a fetched dropping and its frame selection to a decode plan.
fn plan(item: RetrieveItem, content: &Content, label: &LabelFile) -> Result<Planned, AdaError> {
    let RetrieveItem {
        idx,
        record,
        select,
        prior,
    } = item;
    let bytes = real_bytes(&record, content)?;
    let natoms = label
        .tags
        .get(&Tag::new(record.tag.clone()))
        .map(|r| r.count());
    let Some(dir) = parse_directory(bytes).map_err(|e| xtcf_err(&record, e))? else {
        return Ok(Planned {
            idx,
            record,
            natoms,
            dir: None,
            prior: None,
            units: vec![0],
        });
    };
    let prior = prior.filter(|p| p.chunk_layout() == dir.chunk_nframes().as_slice());
    let wanted: Vec<usize> = match &select {
        None => (0..dir.nchunks()).collect(),
        Some(sel) => {
            let mut out = Vec::new();
            for &f in sel {
                let c = dir.chunk_of_frame(f).ok_or_else(|| {
                    xtcf_err(
                        &record,
                        FormatError::Corrupt(format!(
                            "frame {} beyond the {} frames in the chunk directory",
                            f,
                            dir.nframes()
                        )),
                    )
                })?;
                if out.last() != Some(&c) {
                    out.push(c);
                }
            }
            out
        }
    };
    let units = wanted
        .into_iter()
        .filter(|&c| prior.as_ref().is_none_or(|p| p.chunk(c).is_none()))
        .collect();
    Ok(Planned {
        idx,
        record,
        natoms,
        dir: Some(dir),
        prior,
        units,
    })
}

/// Reject frames whose atom count disagrees with the tag's label ranges —
/// reassembly would slice them out of bounds.
fn validate_atoms(
    record: &IndexRecord,
    natoms: Option<usize>,
    frames: &[Frame],
) -> Result<(), AdaError> {
    let Some(n) = natoms else { return Ok(()) };
    match frames.iter().enumerate().find(|(_, f)| f.len() != n) {
        None => Ok(()),
        Some((i, f)) => Err(atoms_err(record, i, f.len(), n)),
    }
}

/// Decode unit `c` of a planned dropping — the whole file for v1, chunk
/// `c` for v2 — atom-count validated. Both schedules decode through
/// here, so the unit's span — the decode stage's only clock, and the
/// `tag` + `bytes` a profile's per-tag volume is folded from — is opened
/// here and nowhere else.
fn decode_unit(
    p: &Planned,
    content: &Content,
    c: usize,
    ctx: &TraceContext,
) -> Result<Vec<Frame>, AdaError> {
    let mut ts = ctx.span("query.decode");
    ts.arg("tag", p.record.tag.as_str());
    let unit_bytes = match &p.dir {
        None => content.len(),
        Some(dir) => {
            ts.arg("chunk", c);
            dir.entries.get(c).map_or(0, |e| e.body_len() as u64)
        }
    };
    ts.arg("bytes", unit_bytes);
    let res = real_bytes(&p.record, content)
        .and_then(|bytes| {
            match &p.dir {
                None => read_xtcf(bytes).map(|t| t.frames),
                Some(dir) => decode_chunk(bytes, dir, c),
            }
            .map_err(|e| chunk_err(&p.record, e))
        })
        .and_then(|frames| validate_atoms(&p.record, p.natoms, &frames).map(|_| frames));
    match &res {
        Ok(frames) => ts.arg("frames", frames.len()),
        Err(e) => ts.set_error(e.kind()),
    }
    res
}

/// Build a dropping's payload from its resident (prior) chunks plus the
/// freshly decoded `(chunk, frames)` units, and bump the per-backend and
/// global chunk counters: decoded chunks cost decode work, skipped ones
/// were outside the selection or already resident.
fn assemble(p: &Planned, mut fresh: Vec<(usize, Vec<Frame>)>) -> PayloadOutcome {
    let fresh_bytes = fresh
        .iter()
        .flat_map(|(_, frames)| frames)
        .map(|f| f.nbytes() as u64)
        .sum();
    let decoded = fresh.len() as u64;
    let (payload, nchunks) = match &p.dir {
        None => {
            let frames = fresh.pop().map(|(_, f)| f).unwrap_or_default();
            let natoms = p
                .natoms
                .unwrap_or_else(|| frames.first().map_or(0, |f| f.len()));
            (DecodedDropping::complete(frames, natoms), 1)
        }
        Some(dir) => {
            let mut chunks: Vec<Option<Arc<Vec<Frame>>>> = match &p.prior {
                Some(prior) => (0..dir.nchunks())
                    .map(|i| prior.chunk(i).cloned())
                    .collect(),
                None => vec![None; dir.nchunks()],
            };
            for (c, frames) in fresh {
                if let Some(slot) = chunks.get_mut(c) {
                    *slot = Some(Arc::new(frames));
                }
            }
            let natoms = p
                .natoms
                .unwrap_or_else(|| dir.entries.first().map_or(0, |e| e.natoms as usize));
            (
                DecodedDropping::from_chunks(dir.chunk_nframes(), chunks, natoms),
                dir.nchunks() as u64,
            )
        }
    };
    let skipped = nchunks.saturating_sub(decoded);
    ada_plfs::note_chunk_reads(&p.record.backend, decoded, skipped);
    if ada_telemetry::enabled() {
        let reg = ada_telemetry::global();
        if decoded > 0 {
            reg.counter("xtcf.chunk.decoded").add(decoded);
        }
        if skipped > 0 {
            reg.counter("xtcf.chunk.skipped").add(skipped);
        }
    }
    PayloadOutcome {
        payload,
        fresh_bytes,
    }
}

impl Ada {
    /// Cache-aware retrieval: partition `records` into cache hits and
    /// misses, fetch + decode only the misses, then admit fresh payloads
    /// whose tag is hot enough. Hits contribute **zero** backend read time — that is the
    /// point of keeping the hot set decoded. Returns one entry per input
    /// record, in input (logical) order.
    ///
    /// Byte-equivalence contract: a hit returns exactly the frames a
    /// fresh decode of the same dropping would return (same key ⇒ same
    /// dropping bytes ⇒ same frames), so cache-on and cache-off queries
    /// are indistinguishable to callers.
    pub(super) fn retrieve_droppings(
        &self,
        dataset: &str,
        label: &LabelFile,
        records: Vec<(usize, IndexRecord, FrameSelection)>,
        ctx: &TraceContext,
    ) -> Result<Retrieved<String, Arc<DecodedDropping>>, AdaError> {
        let cache_on = self.cache.enabled();
        let mut out: Vec<(usize, String, Arc<DecodedDropping>)> = Vec::with_capacity(records.len());
        let mut misses: Vec<RetrieveItem> = Vec::new();
        if cache_on {
            let mut ts = ctx.span("cache.lookup");
            for (idx, r, select) in records {
                let key = CacheKey::new(dataset, &r.tag, r.logical_offset);
                let expected = label
                    .tags
                    .get(&Tag::new(r.tag.clone()))
                    .map(|rg| rg.count());
                match self.cache.get(&key) {
                    // The atom count was validated frame-by-frame once at
                    // decode time; a hit revalidates the whole dropping
                    // with this single comparison. A resident entry only
                    // counts as a hit when it holds the selected frames —
                    // otherwise it rides along as the prior and only the
                    // missing chunks are decoded.
                    Some(hit) if expected.is_none_or(|n| n == hit.natoms) => {
                        let covered = match &select {
                            None => hit.is_complete(),
                            Some(sel) => hit.has_frames(sel),
                        };
                        if covered {
                            out.push((idx, r.tag, hit));
                        } else {
                            misses.push(RetrieveItem {
                                idx,
                                record: r,
                                select,
                                prior: Some(hit),
                            });
                        }
                    }
                    _ => misses.push(RetrieveItem {
                        idx,
                        record: r,
                        select,
                        prior: None,
                    }),
                }
            }
            ts.arg("hits", out.len());
            ts.arg("misses", misses.len());
        } else {
            misses = records
                .into_iter()
                .map(|(idx, record, select)| RetrieveItem {
                    idx,
                    record,
                    select,
                    prior: None,
                })
                .collect();
        }

        let (fresh, read) = if misses.is_empty() {
            (Vec::new(), SimDuration::ZERO)
        } else {
            self.fetch_and_decode(label, misses, ctx)?
        };

        // Admission heat is the tag's access count *before* this query
        // (the counter bumps only after the whole query succeeds), so a
        // tag must prove itself hot across queries before it may displace
        // resident entries. Readahead decodes feed the same path and bump
        // nothing — heat moves only when a query completes. Only an
        // admission reads it, so only a cache-on call with something fresh
        // pays for the snapshot.
        let heat =
            (cache_on && !fresh.is_empty()).then(|| crate::tiering::heat_snapshot(self, dataset));
        for (idx, record, outcome) in fresh {
            self.cache.note_decoded(outcome.fresh_bytes);
            let payload = Arc::new(outcome.payload);
            if let Some(heat) = &heat {
                let key = CacheKey::new(dataset, &record.tag, record.logical_offset);
                let tag_heat = heat.heat(&Tag::new(record.tag.clone()));
                let _ = self.cache.insert(key, &payload, tag_heat);
            }
            out.push((idx, record.tag, payload));
        }
        out.sort_by_key(|(idx, _, _)| *idx);
        Ok((out, read))
    }

    /// Fetch `records` one after another on the caller's thread, under
    /// one `query.read` span: the read stage of every retrieval, and all
    /// there is to a size-only (synthetic) query. The simulated read time
    /// is the paper's model, not this loop's clock: reads within a backend
    /// queue up, backends overlap.
    pub(super) fn fetch_in_order<'a>(
        &self,
        records: impl Iterator<Item = &'a IndexRecord>,
        ctx: &TraceContext,
    ) -> Result<(Vec<Content>, SimDuration), AdaError> {
        let containers = self.determinator.containers();
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
        Ok((fetched, max_across_backends(&per_backend)))
    }

    /// The one retrieval body. Fetch every dropping in logical order on
    /// the caller's thread, plan each, decode the planned (dropping, chunk)
    /// units — inline at `query_threads = 0`, else on a pool of at most
    /// `query_threads` workers, never more than there are units — and
    /// assemble. The simulated read time is the fetch loop's on every
    /// schedule; the first error in (dropping, chunk) order is the
    /// request's, a plan failure (corrupt directory, size-only bytes)
    /// ranking as chunk 0 of its dropping.
    fn fetch_and_decode(
        &self,
        label: &LabelFile,
        items: Vec<RetrieveItem>,
        ctx: &TraceContext,
    ) -> Result<Retrieved<IndexRecord, PayloadOutcome>, AdaError> {
        let (fetched, read) = self.fetch_in_order(items.iter().map(|i| &i.record), ctx)?;

        // Nothing past a dropping that fails to plan can be the first
        // error, so planning stops there; the units before it still
        // decode, since one of them may fail first.
        let mut planned: Vec<Planned> = Vec::with_capacity(items.len());
        let mut plan_err = None;
        for (item, content) in items.into_iter().zip(&fetched) {
            match plan(item, content, label) {
                Ok(p) => planned.push(p),
                Err(e) => {
                    plan_err = Some(e);
                    break;
                }
            }
        }
        let units: Vec<(&Planned, &Content, usize)> = planned
            .iter()
            .zip(&fetched)
            .flat_map(|(p, content)| p.units.iter().map(move |&c| (p, content, c)))
            .collect();

        let threads = self.config.query_threads;
        let decoded = crate::run_pool("query decoder", threads, units.len(), ctx, |ctx, claim| {
            let mut done = Vec::new();
            while let Some(u) = claim() {
                let (p, content, c) = units[u];
                done.push((u, decode_unit(p, content, c, ctx)));
            }
            done
        })?;

        // Unit order is (dropping, chunk) order, so the first `Err` met
        // here is the one the request fails with.
        let mut decoded = decoded.into_iter();
        let mut fresh: Vec<Vec<(usize, Vec<Frame>)>> = Vec::with_capacity(planned.len());
        for p in &planned {
            let mut of_dropping = Vec::with_capacity(p.units.len());
            for (&c, frames) in p.units.iter().zip(decoded.by_ref()) {
                of_dropping.push((c, frames?));
            }
            fresh.push(of_dropping);
        }
        if let Some(e) = plan_err {
            return Err(e);
        }
        let out = planned
            .into_iter()
            .zip(fresh)
            .map(|(p, fresh)| {
                let outcome = assemble(&p, fresh);
                (p.idx, p.record, outcome)
            })
            .collect();
        Ok((out, read))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::AdaConfig;
    use ada_mdmodel::Tag;
    use ada_telemetry::trace::{TraceContext, TraceSpan};

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

    #[test]
    fn min_heat_gates_admission_until_tag_proves_hot() {
        let mut cache = hot_cache_cfg();
        cache.min_heat = 2;
        let ada = make_ada_with(cached_config(2, cache));
        let (input, _) = real_input(1000, 4);
        ada.ingest("bar", input).unwrap();
        let tag = Tag::protein();
        // Queries 1 and 2 run at heat 0 and 1: both bypass admission.
        ada.query("bar", Some(&tag)).unwrap();
        ada.query("bar", Some(&tag)).unwrap();
        assert_eq!(ada.cache_stats().inserts, 0);
        assert!(ada.cache_stats().bypasses > 0);
        // Query 3 runs at heat 2: admitted; query 4 is all hits.
        ada.query("bar", Some(&tag)).unwrap();
        assert!(ada.cache_stats().inserts > 0);
        let before = ada.cache_stats().bytes_decoded;
        ada.query("bar", Some(&tag)).unwrap();
        assert_eq!(ada.cache_stats().bytes_decoded, before);
    }

    /// Run `request` under a fresh root and return the trace it sealed.
    fn traced(
        ada: &super::Ada,
        request: impl FnOnce(&TraceContext),
    ) -> std::sync::Arc<ada_telemetry::trace::Trace> {
        let (ctx, root) = ada_telemetry::trace::root("ada.query");
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
        let (input, _) = real_input(800, 6); // 3 droppings per tag
        ada.ingest("bar", input).unwrap();
        let trace = traced(&ada, |ctx| {
            ada.query_traced("bar", None, ctx).unwrap();
        });
        let decodes = reads_then_decodes(&trace);
        assert_eq!(decodes.len(), 6, "one unit per single-chunk dropping");
        let caller = &trace.root().expect("root span").thread;
        assert!(trace.spans.iter().all(|s| &s.thread == caller));
    }

    #[test]
    fn pool_schedule_reads_on_the_caller_and_clamps_workers_to_units() {
        let ada = make_ada_with(AdaConfig {
            query_threads: 4,
            ..cached_config(2, ada_cache::CacheConfig::default())
        });
        let (input, _) = real_input(800, 12); // 6 droppings per tag
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

        // One dropping, one chunk: one unit, so one worker — not four.
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
            frames_per_dropping: 64,
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
