#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # ada-storagesim — virtual-time storage / CPU / memory simulator
//!
//! The paper evaluates ADA on three physical platforms (an NVMe SSD server,
//! a nine-node OrangeFS cluster with WD HDDs and Plextor SSDs, and a 1 TB
//! fat-node with a RAID-50 HDD array). This crate provides the device-level
//! substrate those platforms are assembled from:
//!
//! * [`SimDuration`] — virtual nanoseconds; every modelled operation
//!   *charges* time instead of sleeping;
//! * [`device`] — block devices parameterized by seek latency and
//!   sequential bandwidth, with presets for the exact hardware in Tables 4
//!   and 5 (WD 1 TB HDD @126 MB/s, Plextor 256 GB SSD @3000/1000 MB/s,
//!   RAID-50 of ten HDDs);
//! * [`network`] — links with latency + bandwidth (a 10 GbE preset);
//! * [`cpu`] — a throughput CPU model (decompression, scanning, rendering
//!   rates per core) with presets for the two Xeons the paper uses;
//! * [`memory`] — a capacity-limited tracker that reproduces the paper's
//!   OOM kills ("both XFS and ADA (all) are killed by the system due to
//!   memory shortage").
//!
//! Everything is deterministic: same inputs → same virtual timings. A
//! device or link is a pure function from a byte count to a duration and
//! keeps no state. The platform's power model, storage included, lives in
//! `ada-platforms`' `Platform`.

pub mod cpu;
pub mod device;
pub mod memory;
pub mod network;

pub use cpu::{CpuProfile, CpuWork};
pub use device::{DeviceProfile, Raid50};
pub use memory::{MemoryTracker, OomKilled};
pub use network::Link;

/// A span of virtual time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u128);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From fractional seconds (rounds to whole nanoseconds).
    pub fn from_secs_f64(s: f64) -> SimDuration {
        assert!(s >= 0.0 && s.is_finite(), "invalid duration {}", s);
        SimDuration((s * 1e9).round() as u128)
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating sum.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Element-wise max (parallel composition: overlapping operations cost
    /// the longest one).
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.0, 1_500_000_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn negative_duration_panics() {
        SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration(100);
        let b = SimDuration(250);
        assert_eq!(a + b, SimDuration(350));
        assert_eq!(a.max(b), b);
        let total: SimDuration = [a, b, a].into_iter().sum();
        assert_eq!(total, SimDuration(450));
    }
}
