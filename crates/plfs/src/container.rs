//! Containers and their droppings.
//!
//! A logical file's droppings are the files under
//! `{mnt}/{logical}/hostdir.0/` on each backend; nothing else is stored
//! for it. A [`ContainerSet`] keeps no state per logical file and decides
//! nothing about names: who owns a name, and whether it exists, is its
//! caller's to say (ADA's dataset map), and what a dataset stored is
//! recorded by that caller (ADA's label file) from the [`IndexRecord`]s
//! the appends return.

use ada_simfs::{Content, FsError, SimFileSystem};
use ada_storagesim::SimDuration;
use ada_telemetry::{key, Counter, Snapshot};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One stored dropping: the tag it carries and where it lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexRecord {
    /// Tag carried by this dropping ("p", "m", ...).
    pub tag: String,
    /// Backend mount the dropping lives on.
    pub backend: String,
    /// Dropping path on that backend.
    pub dropping_path: String,
    /// Dropping length in bytes.
    pub len: u64,
}

impl IndexRecord {
    /// The record of `logical`'s `len`-byte dropping of `tag` on
    /// `backend`, at the one path a container keeps it:
    /// `{backend}/{logical}/hostdir.0/dropping.data.{tag}`.
    pub fn new(logical: &str, tag: &str, backend: &str, len: u64) -> IndexRecord {
        IndexRecord {
            tag: tag.to_string(),
            backend: backend.to_string(),
            dropping_path: droppings(backend, logical) + tag,
            len,
        }
    }
}

/// Operations of one kind on one backend and the bytes they moved.
#[derive(Debug, Default)]
struct IoCount {
    ops: Counter,
    bytes: Counter,
}

impl IoCount {
    fn note(&self, bytes: u64) {
        if ada_telemetry::enabled() {
            self.ops.inc();
            self.bytes.add(bytes);
        }
    }
}

/// One backend's share of dropping traffic:
/// `plfs.{backend}.{read,write}.{ops,bytes}`.
#[derive(Debug, Default)]
struct BackendIo {
    read: IoCount,
    write: IoCount,
}

/// Where `logical`'s droppings live on mount `mnt`; a dropping's path is
/// this followed by its tag.
fn droppings(mnt: &str, logical: &str) -> String {
    format!("{}/{}/hostdir.0/dropping.data.", mnt, logical)
}

/// `logical`'s droppings on mount `mnt`, as `(tag, path)`. A tag holds no
/// `/`: a longer path belongs to a logical file whose name nests under this
/// one's dropping directory, not to it.
fn stored(mnt: &str, fs: &dyn SimFileSystem, logical: &str) -> Vec<(String, String)> {
    let prefix = droppings(mnt, logical);
    fs.list(&prefix)
        .into_iter()
        .filter_map(|path| {
            let tag = path.strip_prefix(&prefix)?.to_string();
            (!tag.contains('/')).then_some((tag, path))
        })
        .collect()
}

/// A set of backend mounts; the containers live on the backends.
pub struct ContainerSet {
    backends: Vec<(String, Arc<dyn SimFileSystem>)>,
    /// I/O counts, one slot per backend, in `backends` order.
    io: Vec<BackendIo>,
}

impl std::fmt::Debug for ContainerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Backend names identify the stack (`dyn SimFileSystem` has no
        // Debug bound).
        let names: Vec<&str> = self.backends.iter().map(|(n, _)| n.as_str()).collect();
        f.debug_struct("ContainerSet")
            .field("backends", &names)
            .finish()
    }
}

impl ContainerSet {
    /// New container set over named backend mounts (e.g. `[("mnt1", ssd),
    /// ("mnt2", hdd)]`).
    pub fn new(backends: Vec<(String, Arc<dyn SimFileSystem>)>) -> ContainerSet {
        assert!(!backends.is_empty(), "need at least one backend");
        ContainerSet {
            io: backends.iter().map(|_| BackendIo::default()).collect(),
            backends,
        }
    }

    fn backend(&self, name: &str) -> Result<(&Arc<dyn SimFileSystem>, &BackendIo), FsError> {
        self.backends
            .iter()
            .zip(&self.io)
            .find(|((n, _), _)| n == name)
            .map(|((_, fs), io)| (fs, io))
            .ok_or_else(|| FsError::Unmounted(name.to_string()))
    }

    /// Write `plfs.{backend}.{read,write}.{ops,bytes}` for every backend
    /// operation kind that has happened.
    pub fn write_metrics(&self, snap: &mut Snapshot) {
        for ((name, _), io) in self.backends.iter().zip(&self.io) {
            for (op, n) in [("read", &io.read), ("write", &io.write)] {
                snap.nonzero(&key(&["plfs", name, op, "ops"]), n.ops.get());
                snap.nonzero(&key(&["plfs", name, op, "bytes"]), n.bytes.get());
            }
        }
    }

    /// Remove `logical`'s droppings on every backend: every one that can
    /// be removed is, and the removals that failed are returned, in
    /// backend order. A logical file whose name nests under this one keeps
    /// its own, and a dropping already gone stays gone.
    #[must_use = "a failed removal leaves its dropping behind"]
    pub fn delete_logical(&self, logical: &str) -> Vec<FsError> {
        let mut failed = Vec::new();
        for (mnt, fs) in &self.backends {
            for (_, path) in stored(mnt, fs.as_ref(), logical) {
                failed.extend(fs.delete(&path).err());
            }
        }
        failed
    }

    /// Store `content` as `logical`'s dropping of `tag` on `backend`, at
    /// [`IndexRecord::new`]'s path, and return its record. A logical file
    /// holds one dropping per tag: a second one is refused as the file
    /// system's `AlreadyExists`, on any backend. A container is written by
    /// one caller at a time (ADA's ingest, which holds the name's claim).
    pub fn append(
        &self,
        logical: &str,
        tag: &str,
        backend: &str,
        content: Content,
    ) -> Result<IndexRecord, FsError> {
        let (fs, io) = self.backend(backend)?;
        for (mnt, other) in &self.backends {
            let path = droppings(mnt, logical) + tag;
            if mnt != backend && other.exists(&path) {
                return Err(FsError::AlreadyExists(path));
            }
        }
        let record = IndexRecord::new(logical, tag, backend, content.len());
        fs.create(&record.dropping_path, content)?;
        io.write.note(record.len);
        Ok(record)
    }

    /// The records of `logical`'s droppings, in tag order, read off the
    /// backends (`list` + `stat`); none for a name with nothing stored.
    pub fn index(&self, logical: &str) -> Result<Vec<IndexRecord>, FsError> {
        let mut records = Vec::new();
        for (mnt, fs) in &self.backends {
            for (tag, path) in stored(mnt, fs.as_ref(), logical) {
                let len = fs.stat(&path)?.len;
                records.push(IndexRecord::new(logical, &tag, mnt, len));
            }
        }
        records.sort_by(|a, b| a.tag.cmp(&b.tag));
        Ok(records)
    }

    /// Read one dropping by its record (the retriever's unit operation).
    pub fn read_dropping(&self, record: &IndexRecord) -> Result<(Content, SimDuration), FsError> {
        let (fs, io) = self.backend(&record.backend)?;
        let (content, d) = fs.read(&record.dropping_path)?;
        io.read.note(content.len());
        Ok((content, d))
    }

    /// Bytes stored per backend for `logical` (reporting).
    pub fn bytes_by_backend(&self, logical: &str) -> Result<BTreeMap<String, u64>, FsError> {
        let mut out = BTreeMap::new();
        for r in self.index(logical)? {
            *out.entry(r.backend).or_insert(0) += r.len;
        }
        Ok(out)
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
    fn tagged_append_routes_to_chosen_backend() {
        let cs = two_backend_set();
        let p = cs
            .append("bar", "p", "mnt1", Content::real(vec![1u8; 100]))
            .unwrap();
        let m = cs
            .append("bar", "m", "mnt2", Content::real(vec![2u8; 300]))
            .unwrap();
        assert_eq!(p.dropping_path, "mnt1/bar/hostdir.0/dropping.data.p");
        assert_eq!(p, IndexRecord::new("bar", "p", "mnt1", 100));
        assert_eq!((p.backend.as_str(), p.len), ("mnt1", 100));
        let by_backend = cs.bytes_by_backend("bar").unwrap();
        assert_eq!(by_backend["mnt1"], 100);
        assert_eq!(by_backend["mnt2"], 300);
        // The index is the appends' records, in tag order.
        assert_eq!(cs.index("bar").unwrap(), vec![m, p.clone()]);
        let (content, _) = cs.read_dropping(&p).unwrap();
        assert_eq!(content.bytes().as_ref(), &[1u8; 100][..]);
    }

    #[test]
    fn a_second_dropping_of_a_tag_is_refused_on_any_backend() {
        let cs = two_backend_set();
        cs.append("bar", "p", "mnt1", Content::real(vec![1u8; 4]))
            .unwrap();
        for backend in ["mnt1", "mnt2"] {
            let err = cs
                .append("bar", "p", backend, Content::real(vec![2u8; 8]))
                .unwrap_err();
            assert!(
                matches!(&err, FsError::AlreadyExists(p) if p == "mnt1/bar/hostdir.0/dropping.data.p"),
                "{err}"
            );
        }
        let index = cs.index("bar").unwrap();
        assert_eq!(index.len(), 1);
        assert_eq!(index[0].len, 4);
    }

    /// A fresh set over the same backends indexes what the first one
    /// stored; a name with nothing stored indexes as empty.
    #[test]
    fn a_fresh_set_reads_the_droppings_off_the_backends() {
        let cs = two_backend_set();
        cs.append("bar", "p", "mnt1", Content::real(vec![1u8; 10]))
            .unwrap();
        cs.append("bar", "m", "mnt2", Content::real(vec![2u8; 20]))
            .unwrap();
        let fresh = ContainerSet::new(cs.backends.clone());
        assert_eq!(fresh.index("bar").unwrap(), cs.index("bar").unwrap());
        assert_eq!(fresh.index("bar").unwrap().len(), 2);
        assert_eq!(fresh.index("nope").unwrap(), vec![]);
        assert!(fresh.bytes_by_backend("nope").unwrap().is_empty());
    }

    /// A delete removes the droppings the container set wrote there and
    /// nothing else: a file it did not write stays, and so does a name
    /// that shares its prefix (`barn`).
    #[test]
    fn delete_removes_the_droppings() {
        let cs = two_backend_set();
        for name in ["bar", "barn"] {
            cs.append(name, "p", "mnt1", Content::real(vec![1u8; 10]))
                .unwrap();
            cs.append(name, "m", "mnt2", Content::real(vec![2u8; 20]))
                .unwrap();
        }
        let hdd = &cs.backends[1].1;
        hdd.create("mnt2/bar/stray", Content::real(vec![3u8; 5]))
            .unwrap();
        let barn = cs.index("barn").unwrap();
        assert_eq!(cs.delete_logical("bar"), vec![]);
        assert_eq!(cs.index("bar").unwrap(), vec![]);
        assert_eq!(cs.index("barn").unwrap(), barn);
        for (mnt, fs) in &cs.backends {
            let left: Vec<String> = fs.list(&format!("{}/bar/", mnt));
            let stray = if mnt == "mnt2" {
                vec!["mnt2/bar/stray"]
            } else {
                vec![]
            };
            assert_eq!(left, stray);
        }
        // A second delete finds nothing to remove; the tag is free again.
        assert_eq!(cs.delete_logical("bar"), vec![]);
        cs.append("bar", "m", "mnt1", Content::real(vec![4u8; 2]))
            .unwrap();
    }

    /// A logical file whose name nests under another's (`bar/x` under
    /// `bar`) is its own: neither's index lists the other's droppings, and
    /// deleting either leaves the other whole and readable.
    #[test]
    fn nested_names_keep_their_own_droppings() {
        for (gone, kept) in [("bar", "bar/x"), ("bar/x", "bar")] {
            let cs = two_backend_set();
            for (name, byte) in [("bar", 1u8), ("bar/x", 2u8)] {
                cs.append(name, "p", "mnt1", Content::real(vec![byte; 10]))
                    .unwrap();
                cs.append(name, "m", "mnt2", Content::real(vec![byte; 20]))
                    .unwrap();
            }
            assert_eq!(cs.index("bar").unwrap().len(), 2);
            assert_eq!(cs.index("bar/x").unwrap().len(), 2);
            let before = cs.index(kept).unwrap();

            assert_eq!(cs.delete_logical(gone), vec![]);
            assert_eq!(cs.index(gone).unwrap(), vec![]);
            assert_eq!(cs.index(kept).unwrap(), before);
            let byte = if kept == "bar" { 1u8 } else { 2u8 };
            for r in &before {
                let (c, _) = cs.read_dropping(r).unwrap();
                assert!(c.bytes().iter().all(|&b| b == byte), "{kept}");
            }
        }
    }

    #[test]
    fn unknown_backend_rejected() {
        let cs = two_backend_set();
        assert!(matches!(
            cs.append("bar", "p", "mnt9", Content::real(vec![0u8])),
            Err(FsError::Unmounted(_))
        ));
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
        // One distinct dropping per tag: payload bytes identify it.
        for i in 0..8u8 {
            let backend = if i % 2 == 0 { "mnt1" } else { "mnt2" };
            cs.append("bar", &i.to_string(), backend, Content::real(vec![i; 64]))
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
                    let expect = r.tag.parse::<u8>().unwrap();
                    assert_eq!(content.bytes().as_ref(), &[expect; 64][..]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
