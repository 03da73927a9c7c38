//! Network links between nodes.
//!
//! The paper's cluster moves data over "a high-performance network
//! architecture like InfiniBand" (§2.2). A link is latency + bandwidth;
//! transfers cost `latency + bytes/bandwidth`.

use crate::SimDuration;

/// A point-to-point network link.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// One-way latency in seconds.
    pub latency_s: f64,
    /// Bandwidth in bytes/second.
    pub bandwidth: f64,
}

impl Link {
    /// 10-Gigabit Ethernet.
    pub fn tenge() -> Link {
        Link {
            latency_s: 10.0e-6,
            bandwidth: 1.25e9,
        }
    }

    /// Time to move `bytes` across the link.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.latency_s + bytes as f64 / self.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenge_moves_a_gigabyte_in_a_little_under_a_second() {
        // 1 GB over 1.25 GB/s ≈ 0.8 s.
        let t = Link::tenge().transfer_time(1_000_000_000).as_secs_f64();
        assert!((t - 0.8).abs() < 1e-3);
    }

    #[test]
    fn latency_only_for_zero_bytes() {
        let l = Link::tenge();
        assert!((l.transfer_time(0).as_secs_f64() - 10.0e-6).abs() < 1e-12);
    }
}
