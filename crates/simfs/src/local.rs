//! Local file systems over a single device or RAID array.

use crate::trace::{OpKind, TraceEvent, TraceLog};
use crate::{Content, FileStat, FsError, SimFileSystem, TimedRead};
use ada_storagesim::{Device, DeviceProfile, Raid50, SimDuration};
use ada_sync::Mutex;
use std::collections::BTreeMap;

/// File-system software parameters (journal/metadata cost per operation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsParams {
    /// Metadata/journal overhead per operation, seconds.
    pub op_overhead_s: f64,
}

impl FsParams {
    /// ext4 defaults (jbd2 journal).
    pub fn ext4() -> FsParams {
        FsParams {
            op_overhead_s: 50.0e-6,
        }
    }

    /// XFS defaults (delayed logging; slightly cheaper metadata on the
    /// large streaming files these experiments use).
    pub fn xfs() -> FsParams {
        FsParams {
            op_overhead_s: 30.0e-6,
        }
    }
}

/// The storage backing a local file system.
#[derive(Debug, Clone)]
pub enum Backing {
    /// A single block device.
    Single(Device),
    /// A RAID-50 array.
    Raid(Raid50),
}

impl Backing {
    fn read(&mut self, bytes: u64) -> SimDuration {
        match self {
            Backing::Single(d) => d.read(bytes),
            Backing::Raid(r) => r.read(bytes),
        }
    }

    fn write(&mut self, bytes: u64) -> SimDuration {
        match self {
            Backing::Single(d) => d.write(bytes),
            Backing::Raid(r) => r.write(bytes),
        }
    }

    fn capacity(&self) -> u64 {
        match self {
            Backing::Single(d) => d.profile.capacity,
            Backing::Raid(r) => r.member.capacity * r.data_disks() as u64,
        }
    }

    /// Active/idle power of the backing store.
    pub fn power_w(&self) -> (f64, f64) {
        match self {
            Backing::Single(d) => (d.profile.active_power_w, d.profile.idle_power_w),
            Backing::Raid(r) => (r.active_power_w(), r.idle_power_w()),
        }
    }

    /// Accumulated busy time.
    pub fn busy_time(&self) -> SimDuration {
        match self {
            Backing::Single(d) => d.busy_time(),
            Backing::Raid(r) => r.busy_time(),
        }
    }
}

struct Inner {
    files: BTreeMap<String, Content>,
    backing: Backing,
    used: u64,
}

/// A local file system (ext4/XFS-like) over one backing store.
pub struct LocalFs {
    name: String,
    params: FsParams,
    inner: Mutex<Inner>,
    trace: Option<TraceLog>,
}

impl std::fmt::Debug for LocalFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Skip the Mutex'd file table: identity + tuning are what a dump
        // of a storage stack needs.
        f.debug_struct("LocalFs")
            .field("name", &self.name)
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

impl LocalFs {
    /// New local FS.
    pub fn new(name: impl Into<String>, params: FsParams, backing: Backing) -> LocalFs {
        LocalFs {
            name: name.into(),
            params,
            inner: Mutex::new(Inner {
                files: BTreeMap::new(),
                backing,
                used: 0,
            }),
            trace: None,
        }
    }

    /// Attach an I/O trace log (builder style).
    pub fn with_trace(mut self, log: TraceLog) -> LocalFs {
        self.trace = Some(log);
        self
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

    /// ext4 on a single NVMe SSD (the §4.1 SSD server).
    pub fn ext4_on_nvme() -> LocalFs {
        LocalFs::new(
            "ext4",
            FsParams::ext4(),
            Backing::Single(Device::new(DeviceProfile::nvme_ssd_256gb())),
        )
    }

    /// XFS on the fat node's RAID-50 array (§4.3).
    pub fn xfs_on_raid50() -> LocalFs {
        LocalFs::new(
            "xfs",
            FsParams::xfs(),
            Backing::Raid(Raid50::fatnode_array()),
        )
    }

    /// ext4 on a single WD HDD.
    pub fn ext4_on_hdd() -> LocalFs {
        LocalFs::new(
            "ext4-hdd",
            FsParams::ext4(),
            Backing::Single(Device::new(DeviceProfile::wd_hdd_1tb())),
        )
    }

    fn overhead(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.params.op_overhead_s)
    }
}

impl SimFileSystem for LocalFs {
    fn name(&self) -> &str {
        &self.name
    }

    fn create(&self, path: &str, content: Content) -> Result<SimDuration, FsError> {
        let mut g = self.inner.lock();
        if g.files.contains_key(path) {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let len = content.len();
        let capacity = g.backing.capacity();
        if g.used + len > capacity {
            return Err(FsError::NoSpace {
                requested: len,
                free: capacity - g.used,
            });
        }
        let d = g.backing.write(len) + self.overhead();
        g.used += len;
        g.files.insert(path.to_string(), content);
        drop(g);
        self.record(OpKind::Create, path, len, d);
        Ok(d)
    }

    fn append(&self, path: &str, content: Content) -> Result<SimDuration, FsError> {
        let mut g = self.inner.lock();
        let len = content.len();
        let capacity = g.backing.capacity();
        if g.used + len > capacity {
            return Err(FsError::NoSpace {
                requested: len,
                free: capacity - g.used,
            });
        }
        let d = g.backing.write(len) + self.overhead();
        g.used += len;
        match g.files.get_mut(path) {
            Some(existing) => {
                let merged = existing.concat(&content);
                *existing = merged;
            }
            None => {
                g.files.insert(path.to_string(), content);
            }
        }
        drop(g);
        self.record(OpKind::Append, path, len, d);
        Ok(d)
    }

    fn read(&self, path: &str) -> Result<TimedRead, FsError> {
        let mut g = self.inner.lock();
        let content = g
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let d = g.backing.read(content.len()) + self.overhead();
        drop(g);
        self.record(OpKind::Read, path, content.len(), d);
        Ok((content, d))
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<TimedRead, FsError> {
        let mut g = self.inner.lock();
        let content = g
            .files
            .get(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?
            .slice(offset, len)?;
        let d = g.backing.read(len) + self.overhead();
        drop(g);
        self.record(OpKind::ReadRange, path, len, d);
        Ok((content, d))
    }

    fn delete(&self, path: &str) -> Result<(), FsError> {
        let mut g = self.inner.lock();
        match g.files.remove(path) {
            Some(c) => {
                g.used -= c.len();
                drop(g);
                self.record(OpKind::Delete, path, 0, ada_storagesim::SimDuration::ZERO);
                Ok(())
            }
            None => Err(FsError::NotFound(path.to_string())),
        }
    }

    fn stat(&self, path: &str) -> Result<FileStat, FsError> {
        let g = self.inner.lock();
        g.files
            .get(path)
            .map(|c| FileStat {
                len: c.len(),
                is_real: c.is_real(),
            })
            .ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let g = self.inner.lock();
        g.files
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn used_bytes(&self) -> u64 {
        self.inner.lock().used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_read_roundtrip() {
        let fs = LocalFs::ext4_on_nvme();
        let data: Vec<u8> = (0..100).collect();
        let wd = fs
            .create("/mnt/foo.xtc", Content::real(data.clone()))
            .unwrap();
        assert!(wd.as_secs_f64() > 0.0);
        let (content, rd) = fs.read("/mnt/foo.xtc").unwrap();
        assert_eq!(content.as_real().unwrap().as_ref(), &data[..]);
        assert!(rd.as_secs_f64() > 0.0);
        assert_eq!(fs.used_bytes(), 100);
    }

    #[test]
    fn create_existing_fails() {
        let fs = LocalFs::ext4_on_nvme();
        fs.create("/a", Content::synthetic(10)).unwrap();
        assert!(matches!(
            fs.create("/a", Content::synthetic(1)),
            Err(FsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn read_missing_fails() {
        let fs = LocalFs::ext4_on_nvme();
        assert!(matches!(fs.read("/nope"), Err(FsError::NotFound(_))));
        assert!(!fs.exists("/nope"));
    }

    #[test]
    fn append_accumulates() {
        let fs = LocalFs::ext4_on_nvme();
        fs.append("/log", Content::real(vec![1u8, 2])).unwrap();
        fs.append("/log", Content::real(vec![3u8])).unwrap();
        let (c, _) = fs.read("/log").unwrap();
        assert_eq!(c.as_real().unwrap().as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn range_read() {
        let fs = LocalFs::ext4_on_nvme();
        fs.create("/f", Content::real((0u8..50).collect::<Vec<_>>()))
            .unwrap();
        let (c, _) = fs.read_range("/f", 10, 5).unwrap();
        assert_eq!(c.as_real().unwrap().as_ref(), &[10, 11, 12, 13, 14]);
        assert!(fs.read_range("/f", 48, 5).is_err());
    }

    #[test]
    fn capacity_enforced() {
        let fs = LocalFs::ext4_on_nvme(); // 256 GB
        fs.create("/big", Content::synthetic(200_000_000_000))
            .unwrap();
        assert!(matches!(
            fs.create("/big2", Content::synthetic(100_000_000_000)),
            Err(FsError::NoSpace { .. })
        ));
        // Delete frees space.
        fs.delete("/big").unwrap();
        assert!(fs
            .create("/big2", Content::synthetic(100_000_000_000))
            .is_ok());
    }

    #[test]
    fn list_by_prefix() {
        let fs = LocalFs::ext4_on_nvme();
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
    fn synthetic_and_real_same_timing() {
        let a = LocalFs::ext4_on_nvme();
        let b = LocalFs::ext4_on_nvme();
        let n = 1_000_000usize;
        a.create("/f", Content::real(vec![0u8; n])).unwrap();
        b.create("/f", Content::synthetic(n as u64)).unwrap();
        let (_, ta) = a.read("/f").unwrap();
        let (_, tb) = b.read("/f").unwrap();
        assert_eq!(ta, tb);
    }
}
