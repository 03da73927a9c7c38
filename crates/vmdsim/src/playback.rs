//! Animation playback with a bounded frame cache.
//!
//! §2.1: "Recently retrieved frames should be evacuated from the limited
//! memory to make room for subsequent phases of frames. Frequent data
//! swapping operations cause a low data hit rate under random frames
//! accesses (e.g., replaying the frames back and forth)". This module
//! models that consumer: an LRU cache of decoded frames with a byte
//! budget, replayed under several access patterns. Smaller frames (ADA's
//! protein subset) fit more frames in the same budget — higher hit rate,
//! smoother animation.

use std::collections::VecDeque;

/// Frame access patterns of an analyst at the VMD timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// One forward sweep 0..n.
    Sweep,
    /// Back-and-forth scrubbing: forward then backward, `cycles` times.
    BackAndForth {
        /// Full forward+backward passes.
        cycles: usize,
    },
    /// Uniform random access of `count` frames.
    Random {
        /// Number of accesses.
        count: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl AccessPattern {
    /// Materialize the frame index sequence for `nframes`.
    pub fn sequence(&self, nframes: usize) -> Vec<usize> {
        if nframes == 0 {
            return Vec::new();
        }
        match *self {
            AccessPattern::Sweep => (0..nframes).collect(),
            AccessPattern::BackAndForth { cycles } => {
                let mut seq = Vec::with_capacity(2 * nframes * cycles);
                for _ in 0..cycles {
                    seq.extend(0..nframes);
                    seq.extend((0..nframes).rev());
                }
                seq
            }
            AccessPattern::Random { count, seed } => {
                // SplitMix64: deterministic, dependency-free.
                let mut state = seed;
                (0..count)
                    .map(|_| {
                        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                        let mut z = state;
                        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                        ((z ^ (z >> 31)) % nframes as u64) as usize
                    })
                    .collect()
            }
        }
    }
}

/// Replay statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayStats {
    /// Frame accesses served from cache.
    pub hits: usize,
    /// Accesses that had to re-fetch (and possibly evict).
    pub misses: usize,
    /// Frames evicted over the replay.
    pub evictions: usize,
}

impl ReplayStats {
    /// Hit rate in 0..=1 (0 for an empty replay).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// LRU frame cache with a byte budget.
///
/// ```
/// use ada_vmdsim::{AccessPattern, FrameCache};
///
/// // 60-frame animation, cache holding 30 raw frames' worth of bytes.
/// let mut raw = FrameCache::new(30 * 522_000, 522_000);
/// let mut ada = FrameCache::new(30 * 522_000, 222_000); // protein frames
/// let pattern = AccessPattern::BackAndForth { cycles: 3 };
/// let raw_stats = raw.replay(pattern, 60);
/// let ada_stats = ada.replay(pattern, 60);
/// assert!(ada_stats.hit_rate() > raw_stats.hit_rate());
/// ```
#[derive(Debug)]
pub struct FrameCache {
    capacity_bytes: u64,
    frame_bytes: u64,
    /// Most-recent at the back.
    resident: VecDeque<usize>,
    stats: ReplayStats,
}

impl FrameCache {
    /// Cache with `capacity_bytes` holding frames of `frame_bytes` each.
    pub fn new(capacity_bytes: u64, frame_bytes: u64) -> FrameCache {
        assert!(frame_bytes > 0, "frame size must be positive");
        FrameCache {
            capacity_bytes,
            frame_bytes,
            resident: VecDeque::new(),
            stats: ReplayStats {
                hits: 0,
                misses: 0,
                evictions: 0,
            },
        }
    }

    /// Frames that fit at once.
    pub fn capacity_frames(&self) -> usize {
        (self.capacity_bytes / self.frame_bytes) as usize
    }

    /// Touch frame `idx`; returns true on hit.
    pub fn access(&mut self, idx: usize) -> bool {
        if let Some(pos) = self.resident.iter().position(|&f| f == idx) {
            self.resident.remove(pos);
            self.resident.push_back(idx);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let cap = self.capacity_frames();
        if cap == 0 {
            return false;
        }
        while self.resident.len() >= cap {
            self.resident.pop_front();
            self.stats.evictions += 1;
        }
        self.resident.push_back(idx);
        false
    }

    /// Replay a pattern over `nframes`; returns the stats of this replay.
    pub fn replay(&mut self, pattern: AccessPattern, nframes: usize) -> ReplayStats {
        let before = self.stats;
        for idx in pattern.sequence(nframes) {
            self.access(idx);
        }
        ReplayStats {
            hits: self.stats.hits - before.hits,
            misses: self.stats.misses - before.misses,
            evictions: self.stats.evictions - before.evictions,
        }
    }

    /// Lifetime stats.
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_all_misses_when_cold() {
        let mut c = FrameCache::new(10 * 100, 100); // 10 frames
        let s = c.replay(AccessPattern::Sweep, 30);
        assert_eq!(s.misses, 30);
        assert_eq!(s.hits, 0);
        assert_eq!(s.evictions, 20);
    }

    #[test]
    fn everything_fits_back_and_forth_hits() {
        let mut c = FrameCache::new(100 * 100, 100); // 100 frames
        let s = c.replay(AccessPattern::BackAndForth { cycles: 2 }, 50);
        // First 50 accesses miss; the remaining 150 hit.
        assert_eq!(s.misses, 50);
        assert_eq!(s.hits, 150);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn lru_thrash_on_back_and_forth() {
        // Cache half the frames: forward sweep then reverse — LRU keeps the
        // most recent half, so the first reverse half hits.
        let mut c = FrameCache::new(25 * 100, 100);
        let s = c.replay(AccessPattern::BackAndForth { cycles: 1 }, 50);
        assert!(s.hit_rate() < 0.5, "hit rate {}", s.hit_rate());
        assert!(s.hits > 0);
    }

    #[test]
    fn smaller_frames_raise_hit_rate() {
        // Same byte budget, ADA-sized frames (42.5 % of raw) vs raw frames.
        let budget = 30 * 522_000u64;
        let nframes = 60usize;
        let mut raw = FrameCache::new(budget, 522_000);
        let mut ada = FrameCache::new(budget, 222_000);
        let pattern = AccessPattern::BackAndForth { cycles: 3 };
        let s_raw = raw.replay(pattern, nframes);
        let s_ada = ada.replay(pattern, nframes);
        assert!(
            s_ada.hit_rate() > s_raw.hit_rate() + 0.1,
            "ada {} vs raw {}",
            s_ada.hit_rate(),
            s_raw.hit_rate()
        );
    }

    #[test]
    fn random_pattern_deterministic() {
        let a = AccessPattern::Random {
            count: 100,
            seed: 9,
        }
        .sequence(40);
        let b = AccessPattern::Random {
            count: 100,
            seed: 9,
        }
        .sequence(40);
        let c = AccessPattern::Random {
            count: 100,
            seed: 10,
        }
        .sequence(40);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&i| i < 40));
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = FrameCache::new(50, 100); // can't hold even one frame
        let s = c.replay(AccessPattern::Sweep, 10);
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 10);
    }

    #[test]
    fn empty_replay() {
        let mut c = FrameCache::new(1000, 100);
        let s = c.replay(AccessPattern::Sweep, 0);
        assert_eq!(s.hit_rate(), 0.0);
    }
}
