//! Block device models.
//!
//! A device is characterized by an access (seek/queue) latency and
//! sequential read/write bandwidth. Operation costs are
//! `latency + bytes/bandwidth`, pure functions of the byte count: a device
//! keeps no state, and callers add durations up, or take their max, as
//! serial or parallel composition demands.

use crate::SimDuration;

/// Static parameters of a device class.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Per-operation access latency in seconds (seek + controller).
    pub access_latency_s: f64,
    /// Sequential read bandwidth, bytes/second.
    pub read_bw: f64,
    /// Sequential write bandwidth, bytes/second.
    pub write_bw: f64,
    /// Capacity in bytes.
    pub capacity: u64,
}

impl DeviceProfile {
    /// Western Digital 1 TB SATA HDD (Table 4: 126 MB/s max transfer).
    pub fn wd_hdd_1tb() -> DeviceProfile {
        DeviceProfile {
            access_latency_s: 8.5e-3,
            read_bw: 126.0e6,
            write_bw: 120.0e6,
            capacity: 1_000_000_000_000,
        }
    }

    /// Plextor 256 GB PCIe SSD (Table 4: 3000 MB/s read, 1000 MB/s write).
    pub fn plextor_ssd_256gb() -> DeviceProfile {
        DeviceProfile {
            access_latency_s: 60.0e-6,
            read_bw: 3_000.0e6,
            write_bw: 1_000.0e6,
            capacity: 256_000_000_000,
        }
    }

    /// 256 GB NVMe SSD of the §4.1 SSD server (same class as the Plextor).
    pub fn nvme_ssd_256gb() -> DeviceProfile {
        DeviceProfile {
            access_latency_s: 20.0e-6,
            read_bw: 3_000.0e6,
            write_bw: 1_000.0e6,
            capacity: 256_000_000_000,
        }
    }

    /// Time to read `bytes` sequentially.
    pub fn read_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.access_latency_s + bytes as f64 / self.read_bw)
    }

    /// Time to write `bytes` sequentially.
    pub fn write_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.access_latency_s + bytes as f64 / self.write_bw)
    }
}

/// A RAID-50 array: striped groups of RAID-5 sets (Table 5: ten 1 TB WD
/// HDDs). Reads stripe across all data disks; writes pay a parity factor.
#[derive(Debug, Clone)]
pub struct Raid50 {
    /// Member-disk profile.
    pub member: DeviceProfile,
    /// Number of RAID-5 groups.
    pub groups: usize,
    /// Disks per group (including one parity disk each).
    pub disks_per_group: usize,
}

impl Raid50 {
    /// The paper's fat-node array: 10 × WD 1 TB in RAID 50 (2 groups × 5).
    pub fn fatnode_array() -> Raid50 {
        Raid50::new(DeviceProfile::wd_hdd_1tb(), 2, 5)
    }

    /// Array of `groups` RAID-5 groups of `disks_per_group` member disks.
    pub fn new(member: DeviceProfile, groups: usize, disks_per_group: usize) -> Raid50 {
        assert!(groups >= 1 && disks_per_group >= 3);
        Raid50 {
            member,
            groups,
            disks_per_group,
        }
    }

    /// Data-bearing disks (one parity per group).
    pub fn data_disks(&self) -> usize {
        self.groups * (self.disks_per_group - 1)
    }

    /// Aggregate sequential read bandwidth.
    pub fn read_bw(&self) -> f64 {
        self.member.read_bw * self.data_disks() as f64
    }

    /// Aggregate sequential write bandwidth (RAID-5 streaming writes keep
    /// parity generation off the critical path but still lose the parity
    /// disk's bandwidth).
    pub fn write_bw(&self) -> f64 {
        self.member.write_bw * self.data_disks() as f64 * 0.85
    }

    /// Time of a striped read.
    pub fn read(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.member.access_latency_s + bytes as f64 / self.read_bw())
    }

    /// Time of a striped write.
    pub fn write(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.member.access_latency_s + bytes as f64 / self.write_bw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_read_time_dominated_by_bandwidth() {
        let hdd = DeviceProfile::wd_hdd_1tb();
        // 126 MB at 126 MB/s ≈ 1 s + seek.
        let t = hdd.read_time(126_000_000).as_secs_f64();
        assert!((t - 1.0085).abs() < 1e-3, "t = {}", t);
    }

    #[test]
    fn ssd_much_faster_than_hdd() {
        let hdd = DeviceProfile::wd_hdd_1tb();
        let ssd = DeviceProfile::plextor_ssd_256gb();
        let bytes = 1_000_000_000;
        let ratio = hdd.read_time(bytes).as_secs_f64() / ssd.read_time(bytes).as_secs_f64();
        // 3000/126 ≈ 23.8x on pure bandwidth.
        assert!(ratio > 20.0 && ratio < 26.0, "ratio {}", ratio);
    }

    #[test]
    fn raid50_geometry() {
        let arr = Raid50::fatnode_array();
        assert_eq!(arr.data_disks(), 8);
        // 8 × 126 MB/s ≈ 1 GB/s aggregate read.
        assert!((arr.read_bw() - 1_008.0e6).abs() < 1.0);
    }

    #[test]
    fn raid50_read_beats_single_disk() {
        let arr = Raid50::fatnode_array();
        let disk = DeviceProfile::wd_hdd_1tb();
        let bytes = 10_000_000_000;
        let ratio = disk.read_time(bytes).as_secs_f64() / arr.read(bytes).as_secs_f64();
        assert!(ratio > 7.5 && ratio < 8.5, "ratio {}", ratio);
    }

    #[test]
    #[should_panic]
    fn raid_needs_three_disks_per_group() {
        Raid50::new(DeviceProfile::wd_hdd_1tb(), 2, 2);
    }
}
