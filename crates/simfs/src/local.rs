//! The one simulated file system: an in-memory file table charged to a
//! medium.

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
        }
    }

    /// The time of one operation moving `bytes` onto the medium (`write`)
    /// or off it: the medium's time plus the per-operation overhead. A
    /// read returns this with its bytes; a model prices a volume with it
    /// and stores nothing.
    pub fn cost(&self, bytes: u64, write: bool) -> SimDuration {
        self.backing.io_time(bytes, write) + SimDuration::from_secs_f64(self.op_overhead_s)
    }

    /// Bytes the medium holds.
    pub fn capacity(&self) -> u64 {
        self.backing.capacity()
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
        let capacity = self.capacity();
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

    /// The file at `path` (a cheap copy: the bytes are shared).
    fn file(&self, path: &str) -> Result<Content, FsError> {
        let file = self.files.lock().table.get(path).cloned();
        file.ok_or_else(|| FsError::NotFound(path.to_string()))
    }
}

impl SimFileSystem for LocalFs {
    fn name(&self) -> &str {
        &self.name
    }

    fn create(&self, path: &str, content: Content) -> Result<(), FsError> {
        self.reserve(path, content, false)
    }

    fn append(&self, path: &str, content: Content) -> Result<(), FsError> {
        self.reserve(path, content, true)
    }

    fn read(&self, path: &str) -> Result<TimedRead, FsError> {
        let content = self.file(path)?;
        let d = self.cost(content.len(), false);
        Ok((content, d))
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<TimedRead, FsError> {
        let content = self.file(path)?.slice(offset, len)?;
        Ok((content, self.cost(len, false)))
    }

    fn delete(&self, path: &str) -> Result<(), FsError> {
        let mut g = self.files.lock();
        let content = g
            .table
            .remove(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        g.used -= content.len();
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

    /// One medium of each kind — a device, a RAID-50 array, three striped
    /// servers — that holds 3,000 bytes.
    fn tiny_media() -> [Backing; 3] {
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
        for backing in &media {
            assert_eq!(backing.capacity(), 3_000, "{backing:?}");
        }
        media
    }

    fn bytes(n: usize) -> Content {
        Content::real(vec![0u8; n])
    }

    fn create_read_roundtrip(fs: &LocalFs) {
        let data: Vec<u8> = (0..100).collect();
        fs.create("/mnt/foo.xtc", Content::real(data.clone()))
            .unwrap();
        let (content, rd) = fs.read("/mnt/foo.xtc").unwrap();
        assert_eq!(content.bytes().as_ref(), &data[..]);
        assert!(rd.as_secs_f64() > 0.0);
        assert_eq!(fs.stat("/mnt/foo.xtc").unwrap(), FileStat { len: 100 });
        assert_eq!(fs.used_bytes(), 100);
    }

    fn create_existing_fails(fs: &LocalFs) {
        fs.create("/a", bytes(10)).unwrap();
        assert!(matches!(
            fs.create("/a", bytes(1)),
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
        fs.create("/x", bytes(7)).unwrap();
        fs.delete("/x").unwrap();
        assert!(!fs.exists("/x"));
        assert_eq!(fs.used_bytes(), 0);
        assert!(matches!(fs.delete("/x"), Err(FsError::NotFound(_))));
    }

    fn append_accumulates(fs: &LocalFs) {
        fs.append("/log", Content::real(vec![1u8, 2])).unwrap();
        fs.append("/log", Content::real(vec![3u8])).unwrap();
        let (c, _) = fs.read("/log").unwrap();
        assert_eq!(c.bytes().as_ref(), &[1, 2, 3]);
        fs.append("/log", bytes(5)).unwrap();
        assert_eq!(fs.stat("/log").unwrap().len, 8);
        assert_eq!(fs.used_bytes(), 8);
    }

    fn range_read(fs: &LocalFs) {
        fs.create("/f", Content::real((0u8..50).collect::<Vec<_>>()))
            .unwrap();
        let (c, _) = fs.read_range("/f", 10, 5).unwrap();
        assert_eq!(c.bytes().as_ref(), &[10, 11, 12, 13, 14]);
        assert!(matches!(
            fs.read_range("/f", 48, 5),
            Err(FsError::OutOfRange { .. })
        ));
    }

    /// A range whose end overflows `u64` is out of range, not a wrapped
    /// sum that passes the bound check.
    fn range_past_u64_max_is_out_of_range(fs: &LocalFs) {
        fs.create("/f", bytes(10)).unwrap();
        assert_eq!(
            fs.read_range("/f", u64::MAX, 2),
            Err(FsError::OutOfRange {
                offset: u64::MAX,
                len: 2,
                file_len: 10
            })
        );
    }

    fn list_by_prefix(fs: &LocalFs) {
        for p in ["/mnt/a", "/mnt/b", "/other/c"] {
            fs.create(p, bytes(1)).unwrap();
        }
        assert_eq!(
            fs.list("/mnt/"),
            vec!["/mnt/a".to_string(), "/mnt/b".to_string()]
        );
        assert_eq!(fs.list(""), vec!["/mnt/a", "/mnt/b", "/other/c"]);
        assert!(fs.list("/zzz").is_empty());
    }

    fn real_content_preserved_across_stripes(fs: &LocalFs) {
        let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        fs.create("/real", Content::real(data.clone())).unwrap();
        let (c, _) = fs.read("/real").unwrap();
        assert_eq!(c.bytes().as_ref(), &data[..]);
        let (r, _) = fs.read_range("/real", 100_000, 10).unwrap();
        assert_eq!(r.bytes().as_ref(), &data[100_000..100_010]);
    }

    /// The store and the model are priced alike: the duration an op
    /// returns is `cost` of the bytes it moved.
    fn every_duration_is_the_cost_of_its_bytes(fs: &LocalFs) {
        fs.create("/r", bytes(1_000_000)).unwrap();
        assert_eq!(fs.read("/r").unwrap().1, fs.cost(1_000_000, false));
        let (_, d) = fs.read_range("/r", 10, 1000).unwrap();
        assert_eq!(d, fs.cost(1000, false));
    }

    fn empty_file_costs_latency_only(fs: &LocalFs) {
        fs.create("/e", bytes(0)).unwrap();
        let (_, d) = fs.read("/e").unwrap();
        assert!(d.as_secs_f64() > 0.0 && d.as_secs_f64() < 0.02);
    }

    /// One case of the store's contract: its name and its check.
    type Case = (&'static str, fn(&LocalFs));

    /// The store's contract, one case a row; each runs on a fresh file
    /// system of every preset.
    const CONTRACT: [Case; 11] = [
        ("create_read_roundtrip", create_read_roundtrip),
        ("create_existing_fails", create_existing_fails),
        ("missing_path_is_not_found", missing_path_is_not_found),
        (
            "delete_frees_the_path_and_its_bytes",
            delete_frees_the_path_and_its_bytes,
        ),
        ("append_accumulates", append_accumulates),
        ("range_read", range_read),
        (
            "range_past_u64_max_is_out_of_range",
            range_past_u64_max_is_out_of_range,
        ),
        ("list_by_prefix", list_by_prefix),
        (
            "real_content_preserved_across_stripes",
            real_content_preserved_across_stripes,
        ),
        (
            "every_duration_is_the_cost_of_its_bytes",
            every_duration_is_the_cost_of_its_bytes,
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

    /// A write past what the medium holds is refused, a create and an
    /// append alike; a delete frees space, and a file may fill the medium
    /// exactly.
    #[test]
    fn capacity_is_enforced_on_every_kind_of_medium() {
        for backing in tiny_media() {
            let fs = LocalFs::new("tiny", EXT4_OP_OVERHEAD_S, backing);
            fs.create("/big", bytes(2_990)).unwrap();
            for refused in [fs.create("/big2", bytes(11)), fs.append("/big", bytes(11))] {
                assert_eq!(
                    refused,
                    Err(FsError::NoSpace {
                        requested: 11,
                        free: 10
                    })
                );
            }
            assert_eq!(fs.used_bytes(), 2_990);
            assert!(!fs.exists("/big2"));
            fs.delete("/big").unwrap();
            fs.create("/big2", bytes(3_000)).unwrap();
            assert_eq!(fs.used_bytes(), 3_000);
        }
    }

    /// Eight writers race for a medium that holds three of their files,
    /// round after round, on each kind of medium: every call is stored or
    /// refused as `NoSpace`, and what is stored never exceeds capacity.
    #[test]
    fn concurrent_writers_never_store_past_capacity() {
        for backing in tiny_media() {
            for round in 0..200 {
                let fs = LocalFs::new("tiny", PVFS_OP_OVERHEAD_S, backing.clone());
                let start = Barrier::new(8);
                std::thread::scope(|s| {
                    for t in 0..8 {
                        let (fs, start) = (&fs, &start);
                        s.spawn(move || {
                            let content = bytes(1_000);
                            start.wait();
                            let r = if t % 2 == 0 {
                                fs.create(&format!("/f{t}"), content)
                            } else {
                                fs.append("/log", content)
                            };
                            assert!(matches!(r, Ok(()) | Err(FsError::NoSpace { .. })), "{r:?}");
                        });
                    }
                });
                let stored: u64 = fs.list("").iter().map(|p| fs.stat(p).unwrap().len).sum();
                assert_eq!(fs.used_bytes(), stored, "round {round}");
                assert_eq!(stored, 3_000, "{backing:?}, round {round}");
            }
        }
    }

    /// An op costs the medium's time for its bytes, at the medium's write
    /// or read speed, plus the file system's per-operation overhead.
    #[test]
    fn cost_is_the_medium_plus_the_op_overhead() {
        for fs in presets() {
            let overhead = SimDuration::from_secs_f64(fs.op_overhead_s);
            for bytes in [0, 1_000, 1_000_000_000] {
                for write in [false, true] {
                    let medium = fs.backing.io_time(bytes, write);
                    assert_eq!(fs.cost(bytes, write), medium + overhead, "{}", fs.name());
                }
            }
        }
    }

    #[test]
    fn nvme_moves_bytes_at_its_bandwidths() {
        // 3,000 MB/s read, 1,000 MB/s write.
        let fs = LocalFs::ext4_on_nvme();
        for t in [fs.cost(3_000_000_000, false), fs.cost(1_000_000_000, true)] {
            assert!(
                (t.as_secs_f64() - 1.0).abs() < 0.01,
                "t = {}",
                t.as_secs_f64()
            );
        }
    }

    #[test]
    fn raid_fs_faster_than_hdd_fs() {
        let bytes = 50_000_000_000u64;
        let tr = LocalFs::xfs_on_raid50().cost(bytes, false);
        let th = LocalFs::ext4_on_hdd().cost(bytes, false);
        let ratio = th.as_secs_f64() / tr.as_secs_f64();
        assert!(ratio > 7.0 && ratio < 9.0, "ratio {}", ratio);
    }

    #[test]
    fn striped_read_faster_than_single_disk() {
        let bytes = 1_260_000_000u64; // 10 s on one HDD
        let d = LocalFs::pvfs_hdd_3nodes().cost(bytes, false);
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
        let d = LocalFs::pvfs_ssd_3nodes().cost(510_000_000, false);
        assert!(
            (d.as_secs_f64() - 1.0).abs() < 0.05,
            "t = {}",
            d.as_secs_f64()
        );
    }

    #[test]
    fn hdd_vs_ssd_pvfs_ratio() {
        let bytes = 2_000_000_000u64;
        let th = LocalFs::pvfs_hdd_3nodes().cost(bytes, false);
        let ts = LocalFs::pvfs_ssd_3nodes().cost(bytes, false);
        let ratio = th.as_secs_f64() / ts.as_secs_f64();
        // HDD nodes disk-bound at 126 MB/s, SSD nodes NIC-bound at
        // 170 MB/s: ratio ≈ 170/126 ≈ 1.35.
        assert!(ratio > 1.2 && ratio < 1.6, "ratio {}", ratio);
    }

    #[test]
    fn capacity_is_aggregate() {
        // A PVFS instance holds its three servers' volumes of two disks.
        assert_eq!(LocalFs::pvfs_ssd_3nodes().capacity(), 3 * 512_000_000_000);
        assert_eq!(LocalFs::pvfs_hdd_3nodes().capacity(), 3 * 2_000_000_000_000);
        // RAID-50 holds its data disks' volumes, not its parity disks'.
        let raid = Raid50::fatnode_array();
        let data = raid.member.capacity * raid.data_disks() as u64;
        assert_eq!(LocalFs::xfs_on_raid50().capacity(), data);
    }
}
