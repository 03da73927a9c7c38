//! Shuffled-epoch sampling schedules — the ML-training read pattern.
//!
//! Atompack-style training loops (see PAPERS.md) read atomistic datasets
//! as many small `(tag × frame-range)` samples: each epoch covers every
//! window of the trajectory exactly once, in a freshly shuffled order.
//! The *set* of samples is identical across epochs; only the visit order
//! changes — which is exactly what makes a hot-set cache effective and a
//! cache-less reader pay full decode cost per sample.
//!
//! [`shuffled_epochs`] generates that schedule deterministically from a
//! seed, so benchmarks and byte-equivalence tests replay identical access
//! streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One sample: a strided frame window of one tag, matching the arguments
/// of `Ada::query_range` / `Frontend::query_range`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Tag the window is drawn from.
    pub tag: String,
    /// First frame (inclusive).
    pub start: usize,
    /// End of the window (exclusive).
    pub end: usize,
    /// Keep every `stride`-th frame.
    pub stride: usize,
}

/// Parameters of a shuffled-epoch sampling schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Frames in the trajectory being sampled.
    pub nframes: usize,
    /// Frames per sample window (clamped to ≥ 1).
    pub window: usize,
    /// Stride within each window (clamped to ≥ 1).
    pub stride: usize,
    /// Number of epochs to schedule.
    pub epochs: usize,
    /// Tags the loader draws from (each epoch tiles every tag).
    pub tags: Vec<String>,
    /// Seed; epoch `e` shuffles with `seed ^ e` so epochs differ but the
    /// whole schedule replays exactly.
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> SamplingConfig {
        SamplingConfig {
            nframes: 512,
            window: 16,
            stride: 1,
            epochs: 3,
            tags: vec!["p".to_string()],
            seed: 0x5A3E,
        }
    }
}

/// Every window of one epoch, unshuffled: each tag tiled into
/// `ceil(nframes / window)` consecutive windows (the last one short).
fn epoch_tiles(cfg: &SamplingConfig) -> Vec<Sample> {
    let window = cfg.window.max(1);
    let stride = cfg.stride.max(1);
    let mut tiles = Vec::new();
    for tag in &cfg.tags {
        let mut start = 0usize;
        while start < cfg.nframes {
            let end = (start + window).min(cfg.nframes);
            tiles.push(Sample {
                tag: tag.clone(),
                start,
                end,
                stride,
            });
            start = end;
        }
    }
    tiles
}

/// Generate `cfg.epochs` epochs; each covers every `(tag × window)` tile
/// exactly once, Fisher–Yates-shuffled with `seed ^ epoch`. Deterministic:
/// the same config always yields the same schedule.
pub fn shuffled_epochs(cfg: &SamplingConfig) -> Vec<Vec<Sample>> {
    (0..cfg.epochs)
        .map(|epoch| {
            let mut tiles = epoch_tiles(cfg);
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ epoch as u64);
            // Fisher–Yates, back to front.
            for i in (1..tiles.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                tiles.swap(i, j);
            }
            tiles
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn cfg() -> SamplingConfig {
        SamplingConfig {
            nframes: 100,
            window: 16,
            stride: 2,
            epochs: 4,
            tags: vec!["p".into(), "m".into()],
            seed: 42,
        }
    }

    #[test]
    fn epochs_cover_every_tile_exactly_once() {
        let epochs = shuffled_epochs(&cfg());
        assert_eq!(epochs.len(), 4);
        // 100 frames / window 16 = 7 tiles per tag, 2 tags.
        let canonical: BTreeSet<(String, usize, usize)> = epoch_tiles(&cfg())
            .into_iter()
            .map(|s| (s.tag, s.start, s.end))
            .collect();
        assert_eq!(canonical.len(), 14);
        for epoch in &epochs {
            assert_eq!(epoch.len(), 14);
            let seen: BTreeSet<(String, usize, usize)> = epoch
                .iter()
                .map(|s| (s.tag.clone(), s.start, s.end))
                .collect();
            assert_eq!(seen, canonical, "an epoch dropped or duplicated a tile");
        }
    }

    #[test]
    fn windows_partition_the_frame_space() {
        let tiles = epoch_tiles(&cfg());
        for tag in ["p", "m"] {
            let mut of_tag: Vec<&Sample> = tiles.iter().filter(|s| s.tag == tag).collect();
            of_tag.sort_by_key(|s| s.start);
            let mut at = 0usize;
            for s in of_tag {
                assert_eq!(s.start, at, "gap or overlap at frame {}", at);
                assert!(s.end > s.start);
                at = s.end;
            }
            assert_eq!(at, 100);
        }
    }

    #[test]
    fn schedule_is_deterministic_and_epochs_differ() {
        let a = shuffled_epochs(&cfg());
        let b = shuffled_epochs(&cfg());
        assert_eq!(a, b);
        // Different epochs visit the tiles in different orders (with 14
        // tiles a collision across all pairs is vanishingly unlikely).
        assert_ne!(a[0], a[1]);
        assert_ne!(a[1], a[2]);
        // A different seed reshuffles.
        let mut other = cfg();
        other.seed ^= 1;
        assert_ne!(shuffled_epochs(&other)[0], a[0]);
    }
}
