//! The ADA facade: trap, pre-process, dispatch; index, retrieve.
//!
//! One module per concern, one copy of each stage:
//!
//! * [`ingest`] — the write side (§3.4): categorize → decompress → split
//!   → dispatch, one body — the trajectory's stored chunks decoded, split
//!   and checksummed on a worker pool, one dropping per tag — with one
//!   commit/abort epilogue.
//! * [`query`] — the read side as callers see it: `query` and
//!   `query_range` over one resolve / index / report set.
//! * [`retrieve`] — the I/O retriever underneath both: cache partition,
//!   fetch and plan on the caller, then one unit per chunk of the
//!   answer — check its stored chunks, write its frames — inline
//!   (the serial reference) or on a worker pool.
//!
//! This file holds the public types, the [`Ada`] instance with its
//! dataset map — the one owner of every dataset name, [`Name`] — and what
//! the three modules share.

mod ingest;
mod query;
mod retrieve;

pub use query::StoredAnswer;

use crate::determinator::DispatchPolicy;
use crate::labeler::LabelFile;
use crate::{AdaError, ErrorKind};
use ada_cache::DecodedCache;
use ada_mdformats::{FormatError, Trajectory};
use ada_mdmodel::category::Taxonomy;
use ada_mdmodel::Tag;
use ada_plfs::ContainerSet;
use ada_simfs::SimFileSystem;
use ada_storagesim::SimDuration;
use ada_sync::Mutex;
use ada_telemetry::trace::{FlightRecorder, TraceContext, TraceSpanGuard};
use ada_telemetry::{key, Counter, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// File suffixes ADA traps ("files generated by a target application"):
/// VMD's trajectory and structure.
const TARGET_SUFFIXES: [&str; 2] = [".xtc", ".pdb"];

/// ADA middleware configuration.
#[derive(Debug, Clone)]
pub struct AdaConfig {
    /// How residues map to tags (the paper's prototype: protein→`p`,
    /// rest→`m`; the future-work config interface plugs in here).
    pub taxonomy: Taxonomy,
    /// Tag → backend routing.
    pub policy: DispatchPolicy,
    /// Frames per chunk inside a dropping (XTCF v2): each dropping is
    /// sealed as a chunked, self-describing container so range reads can
    /// decode only the chunks a selection touches — and the unit of the
    /// ingest pool's work. `0` seals each dropping as one chunk.
    pub chunk_frames: usize,
    /// Workers of the ingest pool on the storage node. The trajectory is
    /// cut into its stored chunks and each chunk is decoded, split and
    /// checksummed as one unit: `0` runs the units inline on the caller
    /// (the serial reference, no thread spawned); `n ≥ 1` runs them on a
    /// pool of `n` workers, clamped to the number of chunks.
    pub ingest_threads: usize,
    /// Workers on the query path. Every retrieval fetches its droppings in
    /// label order on the caller's thread, then runs its units — one
    /// chunk of the answer each: its stored chunks checked, its frames
    /// written: `0` runs them inline (the serial reference, no
    /// thread spawned); `n ≥ 1` runs them on a pool of `n` workers, clamped
    /// to the number of units — a one-chunk miss starts one worker, not
    /// `n`, and a request with no stored chunk to check (all cache hits)
    /// runs inline whatever `n` is.
    pub query_threads: usize,
    /// Decoded-dropping cache for the read path (hot-set sampling
    /// workloads). The default zero budget disables it; see
    /// [`ada_cache::CacheConfig`].
    pub cache: ada_cache::CacheConfig,
}

impl AdaConfig {
    /// The paper's prototype configuration for a hybrid SSD/HDD platform.
    /// Both pools are as wide as the host: `available_parallelism`, or 1
    /// when the host does not say.
    pub fn paper_prototype(ssd_backend: &str, hdd_backend: &str) -> AdaConfig {
        let width = std::thread::available_parallelism().map_or(1, |n| n.get());
        AdaConfig {
            taxonomy: Taxonomy::paper_default(),
            policy: DispatchPolicy::hybrid_gpcr(ssd_backend, hdd_backend),
            chunk_frames: 64,
            ingest_threads: width,
            query_threads: width,
            cache: ada_cache::CacheConfig::default(),
        }
    }
}

/// What arrives at ADA for permanent storage.
#[derive(Debug)]
pub enum IngestInput {
    /// Real bytes: the structure text and compressed trajectory.
    Real {
        /// `.pdb` contents.
        pdb_text: String,
        /// `.xtc` contents.
        xtc_bytes: Vec<u8>,
    },
}

/// What an ingest stored. Its timing is its trace, in the stack's flight
/// recorder ([`Ada::flight_recorder`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Dataset name.
    pub dataset: String,
    /// Decompressed raw volume.
    pub raw_bytes: u64,
    /// Stored bytes per tag.
    pub bytes_by_tag: BTreeMap<Tag, u64>,
}

/// Payload returned by a query.
#[derive(Debug, Clone)]
pub enum RetrievedData {
    /// Decoded frames.
    Real(Trajectory),
    /// A byte count without frames. Never constructed: `Ada` stores and
    /// answers frames only (the figures price their datasets' volumes in
    /// `ada-platforms`' volume model). Kept while the benchmark package's
    /// `real_frames` still matches it.
    Synthetic {
        /// Delivered bytes.
        bytes: u64,
    },
}

impl RetrievedData {
    /// Delivered byte volume.
    pub fn bytes(&self) -> u64 {
        match self {
            RetrievedData::Real(t) => t.nbytes() as u64,
            RetrievedData::Synthetic { bytes, .. } => *bytes,
        }
    }
}

/// Timing breakdown of a query.
#[derive(Debug)]
pub struct QueryReport {
    /// Indexer tag-search time.
    pub indexer: SimDuration,
    /// Backend read time.
    pub read: SimDuration,
    /// Delivered data.
    pub data: RetrievedData,
}

/// The ADA middleware instance for one storage deployment.
///
/// ```
/// use ada_core::{Ada, AdaConfig, IngestInput, RetrievedData};
/// use ada_mdmodel::Tag;
/// use ada_plfs::ContainerSet;
/// use ada_simfs::{LocalFs, SimFileSystem};
/// use std::sync::Arc;
///
/// // Hybrid deployment: one SSD-backed and one HDD-backed file system.
/// let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
/// let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
/// let containers = Arc::new(ContainerSet::new(vec![
///     ("ssd".into(), ssd.clone()),
///     ("hdd".into(), hdd),
/// ]));
/// let ada = Ada::new(AdaConfig::paper_prototype("ssd", "hdd"), containers, ssd);
///
/// // A trajectory arrives for permanent storage: ADA decompresses,
/// // categorizes (Algorithm 1), splits, and dispatches by tag.
/// let w = ada_workload::gpcr_workload(1000, 2, 7);
/// ada.ingest("bar", IngestInput::Real {
///     pdb_text: ada_mdformats::write_pdb(&w.system),
///     xtc_bytes: ada_mdformats::xtc::write_xtc(&w.trajectory, 1000.0).unwrap(),
/// }).unwrap();
///
/// // `mol addfile /mnt/bar.xtc tag p` — only the protein subset moves.
/// let q = ada.query("bar", Some(&Tag::protein())).unwrap();
/// match q.data {
///     RetrievedData::Real(traj) => assert!(traj.natoms() < w.system.len()),
///     _ => unreachable!(),
/// }
/// ```
pub struct Ada {
    config: AdaConfig,
    containers: Arc<ContainerSet>,
    label_fs: Arc<dyn SimFileSystem>,
    /// Every name that is stored, or being ingested or deleted: the one
    /// place that decides who owns a dataset name.
    datasets: Mutex<BTreeMap<String, Name>>,
    /// The generation the next commit takes.
    generations: AtomicU64,
    /// Hot-set cache of decoded droppings (disabled at zero budget, in
    /// which case it only carries the `bytes_decoded` counter so cache-on
    /// and cache-off runs are measured identically).
    cache: DecodedCache,
    metrics: Metrics,
    /// Where every trace rooted on this stack seals — by this facade, its
    /// `Frontend` or its `Server` — and the `span.*` family it writes.
    recorder: FlightRecorder,
}

/// Who holds a dataset name. Every transition is made under the dataset
/// map's lock: an ingest inserts `Claimed` before it writes anything and
/// makes it `Live` at its commit (or removes it after its rollback); a
/// delete makes a `Live` name `Claimed` before it removes anything and
/// removes the name last.
enum Name {
    /// An ingest or a delete of the name is in flight: no query resolves
    /// it, and no other ingest or delete takes it.
    Claimed,
    /// A committed dataset.
    Live {
        /// Its label file: the indexer resolves every query from it.
        label: Arc<LabelFile>,
        /// This commit of the name, fresh per commit: the third field of
        /// every cache key made from `label`, so a payload decoded for an
        /// earlier commit is never found under this one.
        generation: u64,
    },
}

/// The public entry points whose outcomes `ada.{op}.*` counts.
#[derive(Debug, Clone, Copy)]
enum Op {
    Ingest,
    Query,
    QueryRange,
}

impl Op {
    const ALL: [Op; 3] = [Op::Ingest, Op::Query, Op::QueryRange];

    fn name(self) -> &'static str {
        match self {
            Op::Ingest => "ingest",
            Op::Query => "query",
            Op::QueryRange => "query_range",
        }
    }

    /// The op span, `ada.{op}`.
    fn span(self) -> &'static str {
        match self {
            Op::Ingest => "ada.ingest",
            Op::Query => "ada.query",
            Op::QueryRange => "ada.query_range",
        }
    }
}

/// What one `Ada` counts: each entry point's outcomes by [`ErrorKind`],
/// the stored chunks its reads checked, skipped or found corrupt, and the
/// frame bytes `settle` decoded for the cache.
#[derive(Debug, Default)]
struct Metrics {
    ok: [Counter; 3],
    err: [[Counter; ErrorKind::ALL.len()]; 3],
    chunks_checked: Counter,
    chunks_skipped: Counter,
    settle_decoded: Counter,
    /// Shared with the [`StoredAnswer`]s a forward checks after the call.
    chunks_corrupt: Arc<Counter>,
}

impl std::fmt::Debug for Ada {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Config + containers identify the instance; dataset state stays
        // behind its mutexes and `dyn SimFileSystem` has no Debug bound.
        f.debug_struct("Ada")
            .field("config", &self.config)
            .field("containers", &self.containers)
            .field("datasets", &self.datasets.lock().len())
            .finish_non_exhaustive()
    }
}

impl Ada {
    /// Build ADA over a PLFS container set; label files go to `label_fs`
    /// (typically the first/SSD backend).
    pub fn new(
        config: AdaConfig,
        containers: Arc<ContainerSet>,
        label_fs: Arc<dyn SimFileSystem>,
    ) -> Ada {
        let cache = DecodedCache::new(config.cache.clone());
        Ada {
            config,
            containers,
            label_fs,
            datasets: Mutex::new(BTreeMap::new()),
            generations: AtomicU64::new(0),
            cache,
            metrics: Metrics::default(),
            recorder: FlightRecorder::new(),
        }
    }

    /// Write this instance's metrics — `ada.{op}.ok` / `ada.{op}.err.{kind}`,
    /// `xtcf.chunk.*` and `cache.settle.bytes_decoded`, each once it has
    /// counted — then its flight recorder's `span.*` family, its cache's
    /// and its container set's.
    pub fn write_metrics(&self, snap: &mut Snapshot) {
        let m = &self.metrics;
        for op in Op::ALL {
            let i = op as usize;
            snap.nonzero(&key(&["ada", op.name(), "ok"]), m.ok[i].get());
            for kind in ErrorKind::ALL {
                let n = m.err[i][kind as usize].get();
                snap.nonzero(&key(&["ada", op.name(), "err", kind.name()]), n);
            }
        }
        snap.nonzero("xtcf.chunk.decoded", m.chunks_checked.get());
        snap.nonzero("xtcf.chunk.skipped", m.chunks_skipped.get());
        snap.nonzero("xtcf.chunk.corrupt", m.chunks_corrupt.get());
        snap.nonzero("cache.settle.bytes_decoded", m.settle_decoded.get());
        self.recorder.write_metrics(snap);
        self.cache.write_metrics(snap);
        self.containers().write_metrics(snap);
    }

    /// Counters of the decoded-dropping cache (hits, evictions, bytes
    /// decoded, …). Meaningful with the cache off too: `bytes_decoded`
    /// counts every fresh decode either way, which is what
    /// `tests/sampling_cache.rs` and the benchmark's `cache.bytes_decoded`
    /// rung difference across epochs.
    pub fn cache_stats(&self) -> ada_cache::CacheStats {
        self.cache.stats()
    }

    /// Whether ADA traps a file on its way to storage (§3.4: "ADA checks if
    /// a file to be written is generated by a target application").
    pub fn traps(&self, path: &str) -> bool {
        TARGET_SUFFIXES.iter().any(|s| path.ends_with(s))
    }

    /// The container set (for reporting).
    pub fn containers(&self) -> &Arc<ContainerSet> {
        &self.containers
    }

    /// A `Live` dataset's label and its generation, cloned out so no
    /// caller works under the lock.
    fn label_of(&self, dataset: &str) -> Result<(Arc<LabelFile>, u64), AdaError> {
        match self.datasets.lock().get(dataset) {
            Some(Name::Live { label, generation }) => Ok((Arc::clone(label), *generation)),
            _ => Err(AdaError::UnknownDataset(dataset.to_string())),
        }
    }

    /// Whether `dataset` is `Live` at commit `generation`.
    fn is_live(&self, dataset: &str, generation: u64) -> bool {
        matches!(
            self.datasets.lock().get(dataset),
            Some(Name::Live { generation: live, .. }) if *live == generation
        )
    }

    /// Run a read of `dataset`: `read` gets its `Live` label — with
    /// `tag`, when given, checked against the label's tags — and the
    /// label's generation. The read's outcome stands only while that
    /// commit is still `Live` — a delete claims the name before it removes
    /// anything, so the droppings the read saw were that commit's.
    /// Otherwise the name was deleted under the read, which answers as if
    /// it came after the delete: `UnknownDataset`.
    fn read_live<T>(
        &self,
        dataset: &str,
        tag: Option<&Tag>,
        read: impl FnOnce(&LabelFile, u64) -> Result<T, AdaError>,
    ) -> Result<T, AdaError> {
        let (label, generation) = self.label_of(dataset)?;
        if let Some(t) = tag.filter(|t| !label.entries().contains_key(*t)) {
            return Err(AdaError::UnknownTag(t.to_string()));
        }
        let res = read(&label, generation);
        if self.is_live(dataset, generation) {
            res
        } else {
            Err(AdaError::UnknownDataset(dataset.to_string()))
        }
    }

    /// The label file of an ingested dataset (how a client learns which
    /// atoms a tag selects).
    pub fn label(&self, dataset: &str) -> Result<LabelFile, AdaError> {
        Ok(LabelFile::clone(&self.label_of(dataset)?.0))
    }

    /// All stored dataset names, sorted; a name being ingested or deleted
    /// is not one.
    pub fn list_datasets(&self) -> Vec<String> {
        let names = self.datasets.lock();
        let live = names.iter().filter(|(_, n)| matches!(n, Name::Live { .. }));
        live.map(|(dataset, _)| dataset.clone()).collect()
    }

    /// This stack's flight recorder: the recently completed (and retained
    /// slow/shed/errored) traces of the requests it served — the
    /// per-request complement to [`Ada::write_metrics`] (DESIGN.md §13).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Remove a dataset. The name is claimed first (`Live` → `Claimed`),
    /// so no query resolves it and no ingest takes it while it goes. Its
    /// label file, the commit record, is removed next: if that fails, the
    /// dataset is `Live` again and nothing else was touched. Then its
    /// droppings go on every backend, then its cached payloads, and last
    /// the name. Once the label is gone the dataset is gone: a dropping
    /// that could not be removed is reported — the first one, as `Fs` —
    /// after the name is released, and the next ingest of the name sweeps
    /// it.
    pub fn delete_dataset(&self, dataset: &str) -> Result<(), AdaError> {
        let live = match self.datasets.lock().get_mut(dataset) {
            Some(name @ Name::Live { .. }) => std::mem::replace(name, Name::Claimed),
            _ => return Err(AdaError::UnknownDataset(dataset.to_string())),
        };
        if let Err(e) = self.label_fs.delete(&LabelFile::path_for(dataset)) {
            if let Some(name) = self.datasets.lock().get_mut(dataset) {
                *name = live;
            }
            return Err(e.into());
        }
        let leftovers = self.containers.delete_logical(dataset);
        self.cache.invalidate_dataset(dataset);
        self.datasets.lock().remove(dataset);
        match leftovers.into_iter().next() {
            Some(e) => Err(AdaError::Fs(e)),
            None => Ok(()),
        }
    }

    /// Run public entry point `op` under its op span `ada.{op}`: a child
    /// of `parent` when the caller (e.g. the `Frontend`) is already tracing
    /// this request, else a fresh root minted for the direct library
    /// caller. On failure the span records [`AdaError::kind`]. The span
    /// closes before the outcome is counted — `ada.{op}.ok` on success,
    /// `ada.{op}.err.{kind}` on failure, and `xtcf.chunk.corrupt` when the
    /// failure is a stored chunk that failed its check — so every public
    /// entry point reports through one span and one counter family.
    fn traced<T>(
        &self,
        op: Op,
        parent: &TraceContext,
        f: impl FnOnce(&TraceContext) -> Result<T, AdaError>,
    ) -> Result<T, AdaError> {
        let (ctx, mut guard) = self.op_span(op.span(), parent);
        let res = f(&ctx);
        if let Err(e) = &res {
            guard.set_error(e.error_kind().name());
        }
        drop(guard);
        if ada_telemetry::enabled() {
            let m = &self.metrics;
            match &res {
                Ok(_) => m.ok[op as usize].inc(),
                Err(e) => {
                    m.err[op as usize][e.error_kind() as usize].inc();
                    count_corrupt(&m.chunks_corrupt, e);
                }
            }
        }
        res
    }

    /// Open the op span `trace_name`: a child of `parent` when the caller
    /// is already tracing this request, else a fresh root in this stack's
    /// recorder.
    fn op_span<'p>(
        &'p self,
        trace_name: &'static str,
        parent: &'p TraceContext,
    ) -> (TraceContext, TraceSpanGuard<'p>) {
        if parent.is_active() {
            let g = parent.span(trace_name);
            (g.ctx(), g)
        } else {
            self.recorder.root(trace_name)
        }
    }
}

/// Count `e` in `xtcf.chunk.corrupt` when it is a stored chunk that
/// failed its span or checksum test (`verify_chunk`, alone or inside a
/// decode) — whether the chunk was about to be read or forwarded.
fn count_corrupt(corrupt: &Counter, e: &AdaError) {
    let source = match e {
        AdaError::Xtcf { source, .. } => source,
        _ => return,
    };
    if matches!(source, FormatError::ChunkCorrupt { .. }) && ada_telemetry::enabled() {
        corrupt.inc();
    }
}

/// Fixtures shared by the unit tests of this module and its children.
#[cfg(test)]
mod testkit {
    use super::*;
    use ada_mdformats::Frame;
    use ada_simfs::LocalFs;

    pub fn make_ada() -> Ada {
        make_ada_with(AdaConfig::paper_prototype("ssd", "hdd"))
    }

    pub fn make_ada_with(config: AdaConfig) -> Ada {
        rig(config).0
    }

    /// An instance over an SSD and an HDD backend (labels on the SSD),
    /// and the two backends.
    pub fn rig(config: AdaConfig) -> (Ada, [Arc<dyn SimFileSystem>; 2]) {
        let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
        let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
        let cs = Arc::new(ContainerSet::new(vec![
            ("ssd".into(), ssd.clone()),
            ("hdd".into(), hdd.clone()),
        ]));
        (Ada::new(config, cs, ssd.clone()), [ssd, hdd])
    }

    /// Every file on `backends` that no listed dataset accounts for: not a
    /// dropping its label names, nor its label file.
    pub fn strays(ada: &Ada, backends: &[Arc<dyn SimFileSystem>]) -> Vec<String> {
        let mut owned = std::collections::BTreeSet::new();
        for dataset in ada.list_datasets() {
            let label = ada.label(&dataset).unwrap();
            let droppings = label.entries().values();
            owned.extend(droppings.map(|e| e.dropping.dropping_path.clone()));
            owned.insert(LabelFile::path_for(&dataset));
        }
        let files = backends.iter().flat_map(|fs| fs.list(""));
        files.filter(|f| !owned.contains(f)).collect()
    }

    pub fn xtc_of(w: &ada_workload::Workload) -> Vec<u8> {
        ada_mdformats::xtc::write_xtc(&w.trajectory, ada_mdformats::xtc::DEFAULT_PRECISION).unwrap()
    }

    pub fn real_input(natoms: usize, nframes: usize) -> (IngestInput, ada_workload::Workload) {
        let w = ada_workload::gpcr_workload(natoms, nframes, 77);
        let pdb_text = ada_mdformats::write_pdb(&w.system);
        let xtc_bytes = xtc_of(&w);
        (
            IngestInput::Real {
                pdb_text,
                xtc_bytes,
            },
            w,
        )
    }

    pub fn frames_of(report: QueryReport) -> Vec<Frame> {
        match report.data {
            RetrievedData::Real(t) => t.frames,
            _ => panic!("expected real data"),
        }
    }

    pub fn cached_config(chunk_frames: usize, cache: ada_cache::CacheConfig) -> AdaConfig {
        AdaConfig {
            chunk_frames,
            cache,
            ..AdaConfig::paper_prototype("ssd", "hdd")
        }
    }

    /// Every `ada.{op}.*` outcome `ada` counted so far, as
    /// `"{op}.ok={n}"` / `"{op}.err.{kind}={n}"`, in name order: which
    /// calls counted as a success, and which as a failure of what kind.
    pub fn outcomes(ada: &Ada) -> Vec<String> {
        let mut snap = Snapshot::default();
        ada.write_metrics(&mut snap);
        let ops = snap.counters.iter();
        ops.filter_map(|(name, n)| Some(format!("{}={}", name.strip_prefix("ada.")?, n)))
            .collect()
    }

    pub fn hot_cache_cfg() -> ada_cache::CacheConfig {
        ada_cache::CacheConfig::with_capacity(64 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;

    #[test]
    fn traps_only_target_files() {
        let ada = make_ada();
        assert!(ada.traps("/mnt/bar.xtc"));
        assert!(ada.traps("foo.pdb"));
        assert!(!ada.traps("results.csv"));
        assert!(!ada.traps("bar.xtc.bak"));
    }

    #[test]
    fn dataset_lifecycle_list_and_delete() {
        let ada = make_ada();
        assert!(ada.list_datasets().is_empty());
        let (input, _) = real_input(700, 1);
        ada.ingest("a", input).unwrap();
        let (input2, _) = real_input(700, 1);
        ada.ingest("b", input2).unwrap();
        assert_eq!(ada.list_datasets(), vec!["a", "b"]);

        ada.delete_dataset("a").unwrap();
        assert_eq!(ada.list_datasets(), vec!["b"]);
        assert!(matches!(
            ada.query("a", None),
            Err(AdaError::UnknownDataset(_))
        ));
        // Deleting again fails; 'b' still fine.
        assert!(ada.delete_dataset("a").is_err());
        assert!(ada.query("b", Some(&Tag::protein())).is_ok());
        // The name can be reused after deletion.
        let (input3, _) = real_input(700, 1);
        assert!(ada.ingest("a", input3).is_ok());
    }

    #[test]
    fn failed_delete_keeps_the_dataset_listed() {
        let ada = make_ada();
        let (input, _) = real_input(700, 1);
        ada.ingest("a", input).unwrap();
        let droppings = ada.containers().index("a").unwrap();
        assert_eq!(droppings.len(), 2);
        // The label file, the commit record, vanishes behind ADA's back:
        // the delete fails, and the dataset must not be half-forgotten
        // because of it — still listed, its droppings in place.
        ada.label_fs.delete(&LabelFile::path_for("a")).unwrap();
        let err = ada.delete_dataset("a").unwrap_err();
        assert!(matches!(err, AdaError::Fs(_)), "{err:?}");
        assert_eq!(ada.list_datasets(), vec!["a"]);
        assert!(ada.label("a").is_ok());
        assert_eq!(ada.containers().index("a").unwrap(), droppings);
        assert!(ada.query("a", Some(&Tag::protein())).is_ok());
    }

    #[test]
    fn delete_dataset_drops_cached_payloads() {
        let ada = make_ada_with(cached_config(2, hot_cache_cfg()));
        let (input, _) = real_input(1000, 4);
        ada.ingest("bar", input).unwrap();
        ada.query("bar", Some(&Tag::protein())).unwrap();
        assert!(ada.cache_stats().resident_bytes > 0);
        ada.delete_dataset("bar").unwrap();
        assert_eq!(ada.cache_stats().resident_bytes, 0);
    }

    #[test]
    fn observed_errors_bump_kind_counters() {
        let ada = make_ada();
        let _ = ada.query("no_such_dataset", None);
        let mut snap = ada_telemetry::Snapshot::default();
        ada.write_metrics(&mut snap);
        assert_eq!(snap.counters["ada.query.err.unknown_dataset"], 1);
        assert!(!snap.counters.contains_key("ada.query.ok"));
    }

    /// The prototype's pools are as wide as the host, never a guess and
    /// never `0` (the inline reference is asked for, not defaulted to).
    #[test]
    fn paper_prototype_pools_are_as_wide_as_the_host() {
        let cfg = AdaConfig::paper_prototype("ssd", "hdd");
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!((cfg.ingest_threads, cfg.query_threads), (host, host));
        assert!(host >= 1);
    }
}
