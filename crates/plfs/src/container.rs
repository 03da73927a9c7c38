//! Container structures, droppings and the index.

use ada_json::Value;
use ada_simfs::{Content, FsError, SimFileSystem};
use ada_storagesim::SimDuration;
use ada_sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// PLFS-layer errors.
#[derive(Debug)]
pub enum PlfsError {
    /// Unknown backend mount name.
    UnknownBackend(String),
    /// Logical file does not exist.
    NoSuchLogical(String),
    /// Logical file already exists.
    LogicalExists(String),
    /// No droppings carry the requested tag.
    NoSuchTag {
        /// Logical file queried.
        logical: String,
        /// Tag queried.
        tag: String,
    },
    /// Underlying file-system failure.
    Fs(FsError),
    /// Index deserialization failure.
    CorruptIndex(String),
}

impl From<FsError> for PlfsError {
    fn from(e: FsError) -> PlfsError {
        PlfsError::Fs(e)
    }
}

impl std::fmt::Display for PlfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlfsError::UnknownBackend(b) => write!(f, "unknown backend '{}'", b),
            PlfsError::NoSuchLogical(l) => write!(f, "no such logical file '{}'", l),
            PlfsError::LogicalExists(l) => write!(f, "logical file '{}' exists", l),
            PlfsError::NoSuchTag { logical, tag } => {
                write!(f, "no droppings tagged '{}' in '{}'", tag, logical)
            }
            PlfsError::Fs(e) => write!(f, "fs error: {}", e),
            PlfsError::CorruptIndex(m) => write!(f, "corrupt index: {}", m),
        }
    }
}

impl std::error::Error for PlfsError {}

/// One index entry: where a contiguous logical extent physically lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexRecord {
    /// Logical byte offset within the logical file.
    pub logical_offset: u64,
    /// Extent length in bytes.
    pub len: u64,
    /// Tag carried by this dropping ("p", "m", ...).
    pub tag: String,
    /// Backend mount the dropping lives on.
    pub backend: String,
    /// Dropping path on that backend.
    pub dropping_path: String,
    /// Decoded frame count of the dropping, when the writer knows it
    /// (ingest records it for every XTCF dropping, so readers map frames
    /// to droppings without touching them). `0` means unknown.
    pub frames: u64,
}

impl IndexRecord {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("logical_offset", Value::num_u(self.logical_offset)),
            ("len", Value::num_u(self.len)),
            ("tag", Value::str(self.tag.clone())),
            ("backend", Value::str(self.backend.clone())),
            ("dropping_path", Value::str(self.dropping_path.clone())),
            ("frames", Value::num_u(self.frames)),
        ])
    }

    fn from_json(v: &Value) -> Result<IndexRecord, ada_json::JsonError> {
        Ok(IndexRecord {
            logical_offset: v.field("logical_offset")?.as_u64()?,
            len: v.field("len")?.as_u64()?,
            tag: v.field("tag")?.as_str()?.to_string(),
            backend: v.field("backend")?.as_str()?.to_string(),
            dropping_path: v.field("dropping_path")?.as_str()?.to_string(),
            frames: v.field("frames")?.as_u64()?,
        })
    }
}

/// Bump the per-backend container I/O counters
/// (`plfs.{backend}.{op}.ops` / `.bytes`) — how each mount's share of
/// dropping traffic reaches metrics snapshots.
fn count_op(backend: &str, op: &str, bytes: u64) {
    if ada_telemetry::disabled() {
        return;
    }
    let reg = ada_telemetry::global();
    let base = format!("plfs.{}.{}", backend, op);
    reg.counter(&format!("{}.ops", base)).inc();
    reg.counter(&format!("{}.bytes", base)).add(bytes);
}

/// Chunk-granular read accounting for chunked (XTCF v2) droppings: how
/// many chunks a dropping read actually decoded vs skipped cold
/// (`plfs.{backend}.read.chunks.decoded` / `.skipped` dynamic family).
pub fn note_chunk_reads(backend: &str, decoded: u64, skipped: u64) {
    if ada_telemetry::disabled() {
        return;
    }
    let reg = ada_telemetry::global();
    reg.counter(&format!("plfs.{}.read.chunks.decoded", backend))
        .add(decoded);
    reg.counter(&format!("plfs.{}.read.chunks.skipped", backend))
        .add(skipped);
}

#[derive(Debug, Default)]
struct ContainerIndex {
    records: Vec<IndexRecord>,
    next_seq: u64,
    logical_len: u64,
}

/// A set of backend mounts plus the containers living across them.
pub struct ContainerSet {
    backends: Vec<(String, Arc<dyn SimFileSystem>)>,
    containers: Mutex<BTreeMap<String, ContainerIndex>>,
}

impl std::fmt::Debug for ContainerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Backend names identify the stack; the container index stays
        // behind its Mutex (and `dyn SimFileSystem` has no Debug bound).
        let names: Vec<&str> = self.backends.iter().map(|(n, _)| n.as_str()).collect();
        f.debug_struct("ContainerSet")
            .field("backends", &names)
            .field("containers", &self.containers.lock().len())
            .finish()
    }
}

impl ContainerSet {
    /// New container set over named backend mounts (e.g. `[("mnt1", ssd),
    /// ("mnt2", hdd)]`).
    pub fn new(backends: Vec<(String, Arc<dyn SimFileSystem>)>) -> ContainerSet {
        assert!(!backends.is_empty(), "need at least one backend");
        ContainerSet {
            backends,
            containers: Mutex::new(BTreeMap::new()),
        }
    }

    fn backend(&self, name: &str) -> Result<&Arc<dyn SimFileSystem>, PlfsError> {
        self.backends
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, fs)| fs)
            .ok_or_else(|| PlfsError::UnknownBackend(name.to_string()))
    }

    /// Create a logical file: a container skeleton (a `.plfs_container`
    /// marker under `mnt*/<logical>/`) on every backend, as PLFS does.
    pub fn create_logical(&self, logical: &str) -> Result<SimDuration, PlfsError> {
        let mut g = self.containers.lock();
        if g.contains_key(logical) {
            return Err(PlfsError::LogicalExists(logical.to_string()));
        }
        let mut total = SimDuration::ZERO;
        for (mnt, fs) in &self.backends {
            let marker = format!("{}/{}/.plfs_container", mnt, logical);
            total += fs.create(&marker, Content::real(Vec::new()))?;
        }
        g.insert(logical.to_string(), ContainerIndex::default());
        Ok(total)
    }

    /// Whether a logical file exists.
    pub fn exists(&self, logical: &str) -> bool {
        self.containers.lock().contains_key(logical)
    }

    /// All logical files, sorted.
    pub fn list_logical(&self) -> Vec<String> {
        self.containers.lock().keys().cloned().collect()
    }

    /// Remove a logical file: every dropping, the persisted index, and the
    /// container markers on all backends.
    pub fn delete_logical(&self, logical: &str) -> Result<(), PlfsError> {
        let idx = self
            .containers
            .lock()
            .remove(logical)
            .ok_or_else(|| PlfsError::NoSuchLogical(logical.to_string()))?;
        for record in &idx.records {
            if let Ok(fs) = self.backend(&record.backend) {
                let _ = fs.delete(&record.dropping_path);
            }
        }
        for (mnt, fs) in &self.backends {
            let _ = fs.delete(&format!("{}/{}/hostdir.0/index", mnt, logical));
            let _ = fs.delete(&format!("{}/{}/.plfs_container", mnt, logical));
        }
        Ok(())
    }

    /// Append a tagged extent to `logical`, physically stored as a new
    /// dropping on `backend`. The dropping's frame count is recorded as
    /// unknown; writers that know it use [`ContainerSet::append_tagged_frames`].
    pub fn append_tagged(
        &self,
        logical: &str,
        tag: &str,
        backend: &str,
        content: Content,
    ) -> Result<SimDuration, PlfsError> {
        self.append_tagged_frames(logical, tag, backend, content, 0)
    }

    /// [`ContainerSet::append_tagged`] with the dropping's decoded frame
    /// count recorded in its index record (`0` = unknown).
    pub fn append_tagged_frames(
        &self,
        logical: &str,
        tag: &str,
        backend: &str,
        content: Content,
        frames: u64,
    ) -> Result<SimDuration, PlfsError> {
        let fs = self.backend(backend)?.clone();
        let mut g = self.containers.lock();
        let idx = g
            .get_mut(logical)
            .ok_or_else(|| PlfsError::NoSuchLogical(logical.to_string()))?;
        let seq = idx.next_seq;
        idx.next_seq += 1;
        let dropping_path = format!(
            "{}/{}/hostdir.0/dropping.data.{}.{}",
            backend, logical, tag, seq
        );
        let len = content.len();
        let d = fs.create(&dropping_path, content)?;
        count_op(backend, "write", len);
        idx.records.push(IndexRecord {
            logical_offset: idx.logical_len,
            len,
            tag: tag.to_string(),
            backend: backend.to_string(),
            dropping_path,
            frames,
        });
        idx.logical_len += len;
        Ok(d)
    }

    /// Total logical length of a logical file.
    pub fn logical_len(&self, logical: &str) -> Result<u64, PlfsError> {
        self.containers
            .lock()
            .get(logical)
            .map(|i| i.logical_len)
            .ok_or_else(|| PlfsError::NoSuchLogical(logical.to_string()))
    }

    /// A copy of the index records of `logical`.
    pub fn index(&self, logical: &str) -> Result<Vec<IndexRecord>, PlfsError> {
        self.containers
            .lock()
            .get(logical)
            .map(|i| i.records.clone())
            .ok_or_else(|| PlfsError::NoSuchLogical(logical.to_string()))
    }

    /// Distinct tags present in `logical`, in first-seen order.
    pub fn tags(&self, logical: &str) -> Result<Vec<String>, PlfsError> {
        let records = self.index(logical)?;
        let mut tags: Vec<String> = Vec::new();
        for r in records {
            if !tags.contains(&r.tag) {
                tags.push(r.tag);
            }
        }
        Ok(tags)
    }

    fn read_records(&self, records: &[IndexRecord]) -> Result<(Content, SimDuration), PlfsError> {
        // Fetch droppings; per-backend costs serialize, across backends they
        // overlap (the PLFS read plan fans out to every backend at once).
        let mut per_backend: BTreeMap<&str, SimDuration> = BTreeMap::new();
        let mut parts: Vec<Content> = Vec::with_capacity(records.len());
        for r in records {
            let fs = self.backend(&r.backend)?;
            let (content, d) = fs.read(&r.dropping_path)?;
            count_op(&r.backend, "read", content.len());
            *per_backend
                .entry(r.backend.as_str())
                .or_insert(SimDuration::ZERO) += d;
            parts.push(content);
        }
        let duration = per_backend
            .values()
            .copied()
            .fold(SimDuration::ZERO, SimDuration::max);
        let mut out = Content::real(Vec::new());
        for p in parts {
            out = out.concat(&p);
        }
        Ok((out, duration))
    }

    /// Read the whole logical file (droppings concatenated in logical
    /// order).
    pub fn read_all(&self, logical: &str) -> Result<(Content, SimDuration), PlfsError> {
        let mut records = self.index(logical)?;
        records.sort_by_key(|r| r.logical_offset);
        self.read_records(&records)
    }

    /// Read only the extents tagged `tag` — the operation behind
    /// `mol addfile bar.xtc tag p`.
    pub fn read_tagged(
        &self,
        logical: &str,
        tag: &str,
    ) -> Result<(Content, SimDuration), PlfsError> {
        let mut records: Vec<IndexRecord> = self
            .index(logical)?
            .into_iter()
            .filter(|r| r.tag == tag)
            .collect();
        if records.is_empty() {
            return Err(PlfsError::NoSuchTag {
                logical: logical.to_string(),
                tag: tag.to_string(),
            });
        }
        records.sort_by_key(|r| r.logical_offset);
        self.read_records(&records)
    }

    /// Read one dropping by its index record (the retriever's unit
    /// operation).
    pub fn read_dropping(&self, record: &IndexRecord) -> Result<(Content, SimDuration), PlfsError> {
        let fs = self.backend(&record.backend)?;
        let (content, d) = fs.read(&record.dropping_path)?;
        count_op(&record.backend, "read", content.len());
        Ok((content, d))
    }

    /// Bytes stored per backend for `logical` (reporting).
    pub fn bytes_by_backend(&self, logical: &str) -> Result<BTreeMap<String, u64>, PlfsError> {
        let mut out = BTreeMap::new();
        for r in self.index(logical)? {
            *out.entry(r.backend).or_insert(0) += r.len;
        }
        Ok(out)
    }

    /// Persist the index of `logical` as a JSON dropping on the first
    /// backend (PLFS writes `index` files next to data droppings; ADA's
    /// labeler "stores its path on the underlying file system for later
    /// use").
    pub fn persist_index(&self, logical: &str) -> Result<SimDuration, PlfsError> {
        let json = {
            let g = self.containers.lock();
            let idx = g
                .get(logical)
                .ok_or_else(|| PlfsError::NoSuchLogical(logical.to_string()))?;
            Value::Arr(idx.records.iter().map(IndexRecord::to_json).collect()).to_vec()
        };
        let (mnt, fs) = &self.backends[0];
        let path = format!("{}/{}/hostdir.0/index", mnt, logical);
        if fs.exists(&path) {
            fs.delete(&path)?;
        }
        Ok(fs.create(&path, Content::real(json))?)
    }

    /// Load a persisted index from backend 0, replacing the in-memory one
    /// (recovery path; also exercises that the index really round-trips
    /// through the FS).
    pub fn load_index(&self, logical: &str) -> Result<SimDuration, PlfsError> {
        let (mnt, fs) = &self.backends[0];
        let path = format!("{}/{}/hostdir.0/index", mnt, logical);
        let (content, d) = fs.read(&path)?;
        let bytes = content
            .as_real()
            .ok_or_else(|| PlfsError::CorruptIndex("index is synthetic".into()))?;
        let records: Vec<IndexRecord> = ada_json::parse(bytes)
            .and_then(|v| v.as_arr()?.iter().map(IndexRecord::from_json).collect())
            .map_err(|e| PlfsError::CorruptIndex(e.to_string()))?;
        let logical_len = records
            .iter()
            .map(|r| r.logical_offset + r.len)
            .max()
            .unwrap_or(0);
        let next_seq = records.len() as u64;
        self.containers.lock().insert(
            logical.to_string(),
            ContainerIndex {
                records,
                next_seq,
                logical_len,
            },
        );
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_simfs::LocalFs;

    fn two_backend_set() -> ContainerSet {
        let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
        let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
        ContainerSet::new(vec![("mnt1".into(), ssd), ("mnt2".into(), hdd)])
    }

    #[test]
    fn create_and_marker_files() {
        let cs = two_backend_set();
        cs.create_logical("bar").unwrap();
        assert!(cs.exists("bar"));
        // Container skeleton exists on both mounts (Fig. 6).
        let (_, ssd) = (&cs.backends[0].0, &cs.backends[0].1);
        assert!(ssd.exists("mnt1/bar/.plfs_container"));
        let (_, hdd) = (&cs.backends[1].0, &cs.backends[1].1);
        assert!(hdd.exists("mnt2/bar/.plfs_container"));
        assert!(matches!(
            cs.create_logical("bar"),
            Err(PlfsError::LogicalExists(_))
        ));
    }

    #[test]
    fn tagged_append_routes_to_chosen_backend() {
        let cs = two_backend_set();
        cs.create_logical("bar").unwrap();
        cs.append_tagged("bar", "p", "mnt1", Content::real(vec![1u8; 100]))
            .unwrap();
        cs.append_tagged("bar", "m", "mnt2", Content::real(vec![2u8; 300]))
            .unwrap();
        let by_backend = cs.bytes_by_backend("bar").unwrap();
        assert_eq!(by_backend["mnt1"], 100);
        assert_eq!(by_backend["mnt2"], 300);
        assert_eq!(cs.logical_len("bar").unwrap(), 400);
        assert_eq!(cs.tags("bar").unwrap(), vec!["p", "m"]);
    }

    #[test]
    fn read_all_reassembles_in_logical_order() {
        let cs = two_backend_set();
        cs.create_logical("bar").unwrap();
        cs.append_tagged("bar", "p", "mnt1", Content::real(vec![1u8, 1]))
            .unwrap();
        cs.append_tagged("bar", "m", "mnt2", Content::real(vec![2u8, 2, 2]))
            .unwrap();
        cs.append_tagged("bar", "p", "mnt1", Content::real(vec![3u8]))
            .unwrap();
        let (c, _) = cs.read_all("bar").unwrap();
        assert_eq!(c.as_real().unwrap().as_ref(), &[1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn read_tagged_filters() {
        let cs = two_backend_set();
        cs.create_logical("bar").unwrap();
        cs.append_tagged("bar", "p", "mnt1", Content::real(vec![1u8, 1]))
            .unwrap();
        cs.append_tagged("bar", "m", "mnt2", Content::real(vec![2u8, 2, 2]))
            .unwrap();
        cs.append_tagged("bar", "p", "mnt1", Content::real(vec![3u8]))
            .unwrap();
        let (p, _) = cs.read_tagged("bar", "p").unwrap();
        assert_eq!(p.as_real().unwrap().as_ref(), &[1, 1, 3]);
        let (m, _) = cs.read_tagged("bar", "m").unwrap();
        assert_eq!(m.as_real().unwrap().as_ref(), &[2, 2, 2]);
        assert!(matches!(
            cs.read_tagged("bar", "z"),
            Err(PlfsError::NoSuchTag { .. })
        ));
    }

    #[test]
    fn tagged_read_skips_slow_backend() {
        // The point of the split layout: reading "p" must not touch the HDD.
        let cs = two_backend_set();
        cs.create_logical("bar").unwrap();
        let mb = 1_000_000u64;
        cs.append_tagged("bar", "p", "mnt1", Content::synthetic(400 * mb))
            .unwrap();
        cs.append_tagged("bar", "m", "mnt2", Content::synthetic(600 * mb))
            .unwrap();
        let (_, tp) = cs.read_tagged("bar", "p").unwrap();
        let (_, tall) = cs.read_all("bar").unwrap();
        // 400 MB from NVMe ≈ 0.13 s; the full read is bounded by 600 MB
        // from the HDD ≈ 4.8 s.
        assert!(tp.as_secs_f64() < 0.2, "protein read {}", tp.as_secs_f64());
        assert!(tall.as_secs_f64() > 4.0, "full read {}", tall.as_secs_f64());
    }

    #[test]
    fn parallel_backends_cost_max_not_sum() {
        let cs = two_backend_set();
        cs.create_logical("bar").unwrap();
        let gb = 1_000_000_000u64;
        // 3 GB on NVMe (~1 s) and 0.126 GB on HDD (~1 s).
        cs.append_tagged("bar", "p", "mnt1", Content::synthetic(3 * gb))
            .unwrap();
        cs.append_tagged("bar", "m", "mnt2", Content::synthetic(126_000_000))
            .unwrap();
        let (_, d) = cs.read_all("bar").unwrap();
        let secs = d.as_secs_f64();
        assert!(secs > 0.9 && secs < 1.3, "expected ~max(1,1)={}", secs);
    }

    #[test]
    fn unknown_backend_rejected() {
        let cs = two_backend_set();
        cs.create_logical("bar").unwrap();
        assert!(matches!(
            cs.append_tagged("bar", "p", "mnt9", Content::synthetic(1)),
            Err(PlfsError::UnknownBackend(_))
        ));
    }

    #[test]
    fn append_to_missing_logical_rejected() {
        let cs = two_backend_set();
        assert!(matches!(
            cs.append_tagged("nope", "p", "mnt1", Content::synthetic(1)),
            Err(PlfsError::NoSuchLogical(_))
        ));
    }

    #[test]
    fn index_persists_and_reloads() {
        let cs = two_backend_set();
        cs.create_logical("bar").unwrap();
        cs.append_tagged("bar", "p", "mnt1", Content::real(vec![1u8; 10]))
            .unwrap();
        cs.append_tagged("bar", "m", "mnt2", Content::real(vec![2u8; 20]))
            .unwrap();
        cs.persist_index("bar").unwrap();
        let before = cs.index("bar").unwrap();
        // Wipe the in-memory index, reload from storage.
        cs.containers.lock().remove("bar");
        assert!(!cs.exists("bar"));
        cs.load_index("bar").unwrap();
        assert_eq!(cs.index("bar").unwrap(), before);
        assert_eq!(cs.logical_len("bar").unwrap(), 30);
        // Data still readable through the reloaded index.
        let (p, _) = cs.read_tagged("bar", "p").unwrap();
        assert_eq!(p.as_real().unwrap().as_ref(), &[1u8; 10][..]);
    }

    #[test]
    fn frame_counts_survive_the_index_round_trip() {
        let cs = two_backend_set();
        cs.create_logical("bar").unwrap();
        cs.append_tagged_frames("bar", "p", "mnt1", Content::real(vec![1u8; 10]), 7)
            .unwrap();
        cs.append_tagged("bar", "m", "mnt2", Content::real(vec![2u8; 20]))
            .unwrap();
        cs.persist_index("bar").unwrap();
        cs.containers.lock().remove("bar");
        cs.load_index("bar").unwrap();
        let records = cs.index("bar").unwrap();
        assert_eq!(records[0].frames, 7);
        assert_eq!(records[1].frames, 0); // writer did not know the count
    }

    #[test]
    fn index_without_frames_field_is_refused() {
        let cs = two_backend_set();
        cs.create_logical("bar").unwrap();
        cs.append_tagged("bar", "p", "mnt1", Content::real(vec![1u8; 10]))
            .unwrap();
        // Persist an index whose record lacks the `frames` field.
        let json = Value::Arr(vec![Value::obj(vec![
            ("logical_offset", Value::num_u(0)),
            ("len", Value::num_u(10)),
            ("tag", Value::str("p".to_string())),
            ("backend", Value::str("mnt1".to_string())),
            (
                "dropping_path",
                Value::str("mnt1/bar/hostdir.0/dropping.data.p.0".to_string()),
            ),
        ])])
        .to_vec();
        let fs = &cs.backends[0].1;
        fs.create("mnt1/bar/hostdir.0/index", Content::real(json))
            .unwrap();
        cs.containers.lock().remove("bar");
        let err = cs.load_index("bar").unwrap_err();
        assert!(
            matches!(&err, PlfsError::CorruptIndex(m) if m.contains("frames")),
            "{err}"
        );
        assert!(!cs.exists("bar"), "a refused index loads nothing");
    }

    #[test]
    fn synthetic_droppings_flow_through() {
        let cs = two_backend_set();
        cs.create_logical("big").unwrap();
        cs.append_tagged("big", "p", "mnt1", Content::synthetic(1 << 35))
            .unwrap();
        let (c, _) = cs.read_tagged("big", "p").unwrap();
        assert_eq!(c.len(), 1 << 35);
        assert!(!c.is_real());
    }

    // ADA's parallel query path shares one ContainerSet across reader
    // threads, so the set must be usable from multiple threads at once.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ContainerSet>();
    };

    #[test]
    fn concurrent_dropping_reads_see_consistent_bytes() {
        let cs = Arc::new(two_backend_set());
        cs.create_logical("bar").unwrap();
        // One distinct dropping per (tag, seq): payload bytes identify it.
        for i in 0..8u8 {
            let backend = if i % 2 == 0 { "mnt1" } else { "mnt2" };
            cs.append_tagged("bar", "p", backend, Content::real(vec![i; 64]))
                .unwrap();
        }
        let records = cs.index("bar").unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cs = Arc::clone(&cs);
            let records = records.clone();
            handles.push(std::thread::spawn(move || {
                for r in &records {
                    let (content, _) = cs.read_dropping(r).unwrap();
                    let expect = (r.dropping_path.rsplit('.').next().unwrap())
                        .parse::<u8>()
                        .unwrap();
                    assert_eq!(content.as_real().unwrap().as_ref(), &[expect; 64][..]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
