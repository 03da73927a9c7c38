//! The one simulated file system: an in-memory file table charged to a
//! medium.

use crate::trace::{OpKind, TraceEvent, TraceLog};
use crate::{Backing, Content, FileStat, FsError, SimFileSystem, TimedRead};
use ada_storagesim::{DeviceProfile, Link, Raid50, SimDuration};
use ada_sync::Mutex;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// ext4's metadata/journal cost per operation (jbd2 journal), seconds.
const EXT4_OP_OVERHEAD_S: f64 = 50.0e-6;
/// XFS's (delayed logging: slightly cheaper metadata on the large
/// streaming files these experiments use).
const XFS_OP_OVERHEAD_S: f64 = 30.0e-6;
/// A PVFS client's metadata/request cost per operation.
const PVFS_OP_OVERHEAD_S: f64 = 200.0e-6;

/// The file table and the bytes it holds, under one lock.
#[derive(Default)]
struct Files {
    table: BTreeMap<String, Content>,
    used: u64,
}

/// A simulated file system: one file table under one lock, charged to a
/// [`Backing`]. The presets are the paper's file systems: ext4 on the SSD
/// server's NVMe drive (and on one HDD), XFS on the fat node's RAID-50
/// array, and the cluster's two PVFS instances.
pub struct LocalFs {
    name: String,
    op_overhead_s: f64,
    backing: Backing,
    files: Mutex<Files>,
    trace: Option<TraceLog>,
}

impl std::fmt::Debug for LocalFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Skip the Mutex'd file table: identity + medium are what a dump
        // of a storage stack needs.
        f.debug_struct("LocalFs")
            .field("name", &self.name)
            .field("op_overhead_s", &self.op_overhead_s)
            .field("backing", &self.backing)
            .finish_non_exhaustive()
    }
}

impl LocalFs {
    /// New empty file system charging `op_overhead_s` seconds of metadata
    /// cost per operation on top of what `backing` charges for its bytes.
    pub fn new(name: impl Into<String>, op_overhead_s: f64, backing: Backing) -> LocalFs {
        if let Backing::Striped {
            servers,
            stripe_size,
            ..
        } = &backing
        {
            assert!(
                *servers > 0 && *stripe_size > 0,
                "need a server and a stripe"
            );
        }
        LocalFs {
            name: name.into(),
            op_overhead_s,
            backing,
            files: Mutex::default(),
            trace: None,
        }
    }

    /// Attach an I/O trace log (builder style).
    pub fn with_trace(mut self, log: TraceLog) -> LocalFs {
        self.trace = Some(log);
        self
    }

    /// ext4 on a single NVMe SSD (the §4.1 SSD server).
    pub fn ext4_on_nvme() -> LocalFs {
        LocalFs::new(
            "ext4",
            EXT4_OP_OVERHEAD_S,
            Backing::Single(DeviceProfile::nvme_ssd_256gb()),
        )
    }

    /// ext4 on a single WD HDD.
    pub fn ext4_on_hdd() -> LocalFs {
        LocalFs::new(
            "ext4-hdd",
            EXT4_OP_OVERHEAD_S,
            Backing::Single(DeviceProfile::wd_hdd_1tb()),
        )
    }

    /// XFS on the fat node's RAID-50 array (§4.3).
    pub fn xfs_on_raid50() -> LocalFs {
        LocalFs::new(
            "xfs",
            XFS_OP_OVERHEAD_S,
            Backing::Raid(Raid50::fatnode_array()),
        )
    }

    /// The paper's HDD PVFS: 3 storage nodes × (2 × WD 1 TB HDD treated as
    /// one 2 TB node volume at single-disk speed per node).
    pub fn pvfs_hdd_3nodes() -> LocalFs {
        LocalFs::pvfs_3nodes("pvfs-hdd", DeviceProfile::wd_hdd_1tb())
    }

    /// The paper's SSD PVFS: 3 storage nodes × (2 × Plextor 256 GB).
    pub fn pvfs_ssd_3nodes() -> LocalFs {
        LocalFs::pvfs_3nodes("pvfs-ssd", DeviceProfile::plextor_ssd_256gb())
    }

    /// PVFS over three nodes of two `disk`s each, 64 KiB stripes. Each
    /// storage server ships over a ~170 MB/s effective link
    /// (bonded-GigE-class), the client ingests over 10 GbE. Table 4 does
    /// not specify the fabric; these values put the §4.2 curves in the
    /// paper's relative order: HDD nodes stay disk-bound
    /// (126 < 170 MB/s), SSD nodes are NIC-bound, and D-ADA(protein) lands
    /// near C-PVFS as in Fig. 9a.
    fn pvfs_3nodes(name: &str, disk: DeviceProfile) -> LocalFs {
        let server = DeviceProfile {
            capacity: disk.capacity * 2,
            ..disk
        };
        LocalFs::new(
            name,
            PVFS_OP_OVERHEAD_S,
            Backing::Striped {
                server,
                servers: 3,
                stripe_size: 64 * 1024,
                egress_bw: 170.0e6,
                network: Link::tenge(),
            },
        )
    }

    /// Store `content` at `path`. The capacity check, `used +=` and the
    /// insert are one critical section, so concurrent writers never store
    /// past capacity. A create refuses an existing path; an append extends
    /// it, or creates it when absent.
    fn reserve(&self, path: &str, content: Content, append: bool) -> Result<(), FsError> {
        let len = content.len();
        let capacity = self.backing.capacity();
        let mut guard = self.files.lock();
        let files = &mut *guard;
        let slot = files.table.entry(path.to_string());
        if !append && matches!(slot, Entry::Occupied(_)) {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let free = capacity - files.used;
        if len > free {
            return Err(FsError::NoSpace {
                requested: len,
                free,
            });
        }
        files.used += len;
        match slot {
            Entry::Occupied(mut file) => {
                let merged = file.get().concat(&content);
                file.insert(merged);
            }
            Entry::Vacant(file) => {
                file.insert(content);
            }
        }
        Ok(())
    }

    /// The file at `path` (a cheap copy: real bytes are shared).
    fn file(&self, path: &str) -> Result<Content, FsError> {
        let file = self.files.lock().table.get(path).cloned();
        file.ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    /// The duration of `op` moving `bytes`, charged to the medium outside
    /// the file table's lock, and traced.
    fn charge(&self, op: OpKind, path: &str, bytes: u64) -> SimDuration {
        let write = matches!(op, OpKind::Create | OpKind::Append);
        let d = self.backing.io_time(bytes, write) + SimDuration::from_secs_f64(self.op_overhead_s);
        self.record(op, path, bytes, d);
        d
    }

    fn record(&self, op: OpKind, path: &str, bytes: u64, duration: SimDuration) {
        if let Some(t) = &self.trace {
            t.record(TraceEvent {
                fs: self.name.clone(),
                op,
                path: path.to_string(),
                bytes,
                duration,
            });
        }
    }
}

impl SimFileSystem for LocalFs {
    fn name(&self) -> &str {
        &self.name
    }

    fn create(&self, path: &str, content: Content) -> Result<SimDuration, FsError> {
        let len = content.len();
        self.reserve(path, content, false)?;
        Ok(self.charge(OpKind::Create, path, len))
    }

    fn append(&self, path: &str, content: Content) -> Result<SimDuration, FsError> {
        let len = content.len();
        self.reserve(path, content, true)?;
        Ok(self.charge(OpKind::Append, path, len))
    }

    fn read(&self, path: &str) -> Result<TimedRead, FsError> {
        let content = self.file(path)?;
        let d = self.charge(OpKind::Read, path, content.len());
        Ok((content, d))
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<TimedRead, FsError> {
        let content = self.file(path)?.slice(offset, len)?;
        Ok((content, self.charge(OpKind::ReadRange, path, len)))
    }

    fn delete(&self, path: &str) -> Result<(), FsError> {
        let mut g = self.files.lock();
        let content = g
            .table
            .remove(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        g.used -= content.len();
        drop(g);
        self.record(OpKind::Delete, path, 0, SimDuration::ZERO);
        Ok(())
    }

    fn stat(&self, path: &str) -> Result<FileStat, FsError> {
        Ok(FileStat {
            len: self.file(path)?.len(),
        })
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let g = self.files.lock();
        g.table
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn used_bytes(&self) -> u64 {
        self.files.lock().used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    /// A fresh file system of each of the five presets.
    fn presets() -> [LocalFs; 5] {
        [
            LocalFs::ext4_on_nvme(),
            LocalFs::ext4_on_hdd(),
            LocalFs::xfs_on_raid50(),
            LocalFs::pvfs_hdd_3nodes(),
            LocalFs::pvfs_ssd_3nodes(),
        ]
    }

    fn create_read_roundtrip(fs: &LocalFs) {
        let data: Vec<u8> = (0..100).collect();
        let wd = fs
            .create("/mnt/foo.xtc", Content::real(data.clone()))
            .unwrap();
        assert!(wd.as_secs_f64() > 0.0);
        let (content, rd) = fs.read("/mnt/foo.xtc").unwrap();
        assert_eq!(content.as_real().unwrap().as_ref(), &data[..]);
        assert!(rd.as_secs_f64() > 0.0);
        assert_eq!(fs.stat("/mnt/foo.xtc").unwrap(), FileStat { len: 100 });
        assert_eq!(fs.used_bytes(), 100);
    }

    fn create_existing_fails(fs: &LocalFs) {
        fs.create("/a", Content::synthetic(10)).unwrap();
        assert!(matches!(
            fs.create("/a", Content::synthetic(1)),
            Err(FsError::AlreadyExists(_))
        ));
        assert_eq!(fs.stat("/a").unwrap().len, 10);
        assert_eq!(fs.used_bytes(), 10);
    }

    fn missing_path_is_not_found(fs: &LocalFs) {
        assert!(matches!(fs.read("/nope"), Err(FsError::NotFound(_))));
        assert!(matches!(
            fs.read_range("/nope", 0, 0),
            Err(FsError::NotFound(_))
        ));
        assert!(matches!(fs.stat("/nope"), Err(FsError::NotFound(_))));
        assert!(matches!(fs.delete("/nope"), Err(FsError::NotFound(_))));
        assert!(!fs.exists("/nope"));
    }

    fn delete_frees_the_path_and_its_bytes(fs: &LocalFs) {
        fs.create("/x", Content::synthetic(7)).unwrap();
        fs.delete("/x").unwrap();
        assert!(!fs.exists("/x"));
        assert_eq!(fs.used_bytes(), 0);
        assert!(matches!(fs.delete("/x"), Err(FsError::NotFound(_))));
    }

    fn append_accumulates(fs: &LocalFs) {
        fs.append("/log", Content::real(vec![1u8, 2])).unwrap();
        fs.append("/log", Content::real(vec![3u8])).unwrap();
        let (c, _) = fs.read("/log").unwrap();
        assert_eq!(c.as_real().unwrap().as_ref(), &[1, 2, 3]);
        fs.append("/log", Content::synthetic(5)).unwrap();
        assert_eq!(fs.stat("/log").unwrap().len, 8);
        assert_eq!(fs.used_bytes(), 8);
    }

    fn range_read(fs: &LocalFs) {
        fs.create("/f", Content::real((0u8..50).collect::<Vec<_>>()))
            .unwrap();
        let (c, _) = fs.read_range("/f", 10, 5).unwrap();
        assert_eq!(c.as_real().unwrap().as_ref(), &[10, 11, 12, 13, 14]);
        assert!(matches!(
            fs.read_range("/f", 48, 5),
            Err(FsError::OutOfRange { .. })
        ));
    }

    fn list_by_prefix(fs: &LocalFs) {
        for p in ["/mnt/a", "/mnt/b", "/other/c"] {
            fs.create(p, Content::synthetic(1)).unwrap();
        }
        assert_eq!(
            fs.list("/mnt/"),
            vec!["/mnt/a".to_string(), "/mnt/b".to_string()]
        );
        assert_eq!(fs.list(""), vec!["/mnt/a", "/mnt/b", "/other/c"]);
        assert!(fs.list("/zzz").is_empty());
    }

    fn capacity_enforced(fs: &LocalFs) {
        let capacity = fs.backing.capacity();
        fs.create("/big", Content::synthetic(capacity - 10))
            .unwrap();
        for refused in [
            fs.create("/big2", Content::synthetic(11)),
            fs.append("/big", Content::synthetic(11)),
        ] {
            assert_eq!(
                refused,
                Err(FsError::NoSpace {
                    requested: 11,
                    free: 10
                })
            );
        }
        assert_eq!(fs.used_bytes(), capacity - 10);
        assert!(!fs.exists("/big2"));
        // Delete frees space, and a file may fill the medium exactly.
        fs.delete("/big").unwrap();
        fs.create("/big2", Content::synthetic(capacity)).unwrap();
        assert_eq!(fs.used_bytes(), capacity);
    }

    fn real_content_preserved_across_stripes(fs: &LocalFs) {
        let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        fs.create("/real", Content::real(data.clone())).unwrap();
        let (c, _) = fs.read("/real").unwrap();
        assert_eq!(c.as_real().unwrap().as_ref(), &data[..]);
        let (r, _) = fs.read_range("/real", 100_000, 10).unwrap();
        assert_eq!(r.as_real().unwrap().as_ref(), &data[100_000..100_010]);
    }

    fn real_and_synthetic_cost_the_same(fs: &LocalFs) {
        let n = 1_000_000usize;
        let wr = fs.create("/r", Content::real(vec![0u8; n])).unwrap();
        let ws = fs.create("/s", Content::synthetic(n as u64)).unwrap();
        assert_eq!(wr, ws);
        assert_eq!(fs.read("/r").unwrap().1, fs.read("/s").unwrap().1);
        assert_eq!(
            fs.read_range("/r", 10, 1000).unwrap().1,
            fs.read_range("/s", 10, 1000).unwrap().1
        );
    }

    fn empty_file_costs_latency_only(fs: &LocalFs) {
        fs.create("/e", Content::synthetic(0)).unwrap();
        let (_, d) = fs.read("/e").unwrap();
        assert!(d.as_secs_f64() > 0.0 && d.as_secs_f64() < 0.02);
    }

    /// The store's contract, one case a row; each runs on a fresh file
    /// system of every preset.
    const CONTRACT: [(&str, fn(&LocalFs)); 11] = [
        ("create_read_roundtrip", create_read_roundtrip),
        ("create_existing_fails", create_existing_fails),
        ("missing_path_is_not_found", missing_path_is_not_found),
        (
            "delete_frees_the_path_and_its_bytes",
            delete_frees_the_path_and_its_bytes,
        ),
        ("append_accumulates", append_accumulates),
        ("range_read", range_read),
        ("list_by_prefix", list_by_prefix),
        ("capacity_enforced", capacity_enforced),
        (
            "real_content_preserved_across_stripes",
            real_content_preserved_across_stripes,
        ),
        (
            "real_and_synthetic_cost_the_same",
            real_and_synthetic_cost_the_same,
        ),
        (
            "empty_file_costs_latency_only",
            empty_file_costs_latency_only,
        ),
    ];

    #[test]
    fn every_medium_keeps_the_store_contract() {
        let mut failed = Vec::new();
        for (case, check) in CONTRACT {
            for fs in presets() {
                if catch_unwind(AssertUnwindSafe(|| check(&fs))).is_err() {
                    failed.push(format!("{case} on {}", fs.name()));
                }
            }
        }
        assert!(failed.is_empty(), "failed: {failed:?}");
    }

    /// Eight writers race for a medium that holds three of their files,
    /// round after round, on each kind of medium: every call is stored or
    /// refused as `NoSpace`, and what is stored never exceeds capacity.
    #[test]
    fn concurrent_writers_never_store_past_capacity() {
        let small = DeviceProfile {
            capacity: 1_000,
            ..DeviceProfile::wd_hdd_1tb()
        };
        let media = [
            Backing::Single(DeviceProfile {
                capacity: 3_000,
                ..small.clone()
            }),
            Backing::Raid(Raid50::new(small.clone(), 1, 4)),
            Backing::Striped {
                server: small,
                servers: 3,
                stripe_size: 64 * 1024,
                egress_bw: 170.0e6,
                network: Link::tenge(),
            },
        ];
        for backing in media {
            assert_eq!(backing.capacity(), 3_000);
            for round in 0..200 {
                let fs = LocalFs::new("tiny", PVFS_OP_OVERHEAD_S, backing.clone());
                let start = Barrier::new(8);
                std::thread::scope(|s| {
                    for t in 0..8 {
                        let (fs, start) = (&fs, &start);
                        s.spawn(move || {
                            let content = Content::synthetic(1_000);
                            start.wait();
                            let r = if t % 2 == 0 {
                                fs.create(&format!("/f{t}"), content)
                            } else {
                                fs.append("/log", content)
                            };
                            assert!(matches!(r, Ok(_) | Err(FsError::NoSpace { .. })), "{r:?}");
                        });
                    }
                });
                let stored: u64 = fs.list("").iter().map(|p| fs.stat(p).unwrap().len).sum();
                assert_eq!(fs.used_bytes(), stored, "round {round}");
                assert_eq!(stored, 3_000, "{backing:?}, round {round}");
            }
        }
    }

    #[test]
    fn nvme_read_time_close_to_bandwidth() {
        let fs = LocalFs::ext4_on_nvme();
        fs.create("/f", Content::synthetic(3_000_000_000)).unwrap();
        let (_, d) = fs.read("/f").unwrap();
        assert!(
            (d.as_secs_f64() - 1.0).abs() < 0.01,
            "t = {}",
            d.as_secs_f64()
        );
    }

    #[test]
    fn raid_fs_faster_than_hdd_fs() {
        let raid = LocalFs::xfs_on_raid50();
        let hdd = LocalFs::ext4_on_hdd();
        let bytes = 50_000_000_000u64;
        raid.create("/f", Content::synthetic(bytes)).unwrap();
        hdd.create("/f", Content::synthetic(bytes)).unwrap();
        let (_, tr) = raid.read("/f").unwrap();
        let (_, th) = hdd.read("/f").unwrap();
        let ratio = th.as_secs_f64() / tr.as_secs_f64();
        assert!(ratio > 7.0 && ratio < 9.0, "ratio {}", ratio);
    }

    #[test]
    fn striped_read_faster_than_single_disk() {
        let fs = LocalFs::pvfs_hdd_3nodes();
        let bytes = 1_260_000_000u64; // 10 s on one HDD
        fs.create("/f", Content::synthetic(bytes)).unwrap();
        let (_, d) = fs.read("/f").unwrap();
        // 3 servers: ~3.33 s instead of 10 s.
        assert!(
            (d.as_secs_f64() - 10.0 / 3.0).abs() < 0.2,
            "t = {}",
            d.as_secs_f64()
        );
    }

    #[test]
    fn ssd_pvfs_nic_bound() {
        // 3 SSD nodes could read at 9 GB/s aggregate, but each server ships
        // at 170 MB/s — the NIC is the bottleneck: ~510 MB/s aggregate.
        let fs = LocalFs::pvfs_ssd_3nodes();
        let bytes = 510_000_000u64;
        fs.create("/f", Content::synthetic(bytes)).unwrap();
        let (_, d) = fs.read("/f").unwrap();
        assert!(
            (d.as_secs_f64() - 1.0).abs() < 0.05,
            "t = {}",
            d.as_secs_f64()
        );
    }

    #[test]
    fn hdd_vs_ssd_pvfs_ratio() {
        let hdd = LocalFs::pvfs_hdd_3nodes();
        let ssd = LocalFs::pvfs_ssd_3nodes();
        let bytes = 2_000_000_000u64;
        hdd.create("/f", Content::synthetic(bytes)).unwrap();
        ssd.create("/f", Content::synthetic(bytes)).unwrap();
        let (_, th) = hdd.read("/f").unwrap();
        let (_, ts) = ssd.read("/f").unwrap();
        let ratio = th.as_secs_f64() / ts.as_secs_f64();
        // HDD nodes disk-bound at 126 MB/s, SSD nodes NIC-bound at
        // 170 MB/s: ratio ≈ 170/126 ≈ 1.35.
        assert!(ratio > 1.2 && ratio < 1.6, "ratio {}", ratio);
    }

    #[test]
    fn capacity_is_aggregate() {
        let fs = LocalFs::pvfs_ssd_3nodes(); // 3 × 512 GB = 1.536 TB
        assert!(fs
            .create("/a", Content::synthetic(1_500_000_000_000))
            .is_ok());
        assert!(matches!(
            fs.create("/b", Content::synthetic(100_000_000_000)),
            Err(FsError::NoSpace { .. })
        ));
    }
}
