//! Log-bucketed concurrent histogram.
//!
//! Values (latencies in ns, sizes in bytes) land in power-of-two buckets:
//! bucket 0 holds the value 0 and bucket `b ≥ 1` holds `[2^(b-1), 2^b)`.
//! Recording is one relaxed `fetch_add` into the bucket plus count/sum/
//! min/max updates — no locks, safe from any thread. Percentile readout
//! interpolates linearly inside the winning bucket, so uniform data read
//! back within one octave of error and data spanning octaves ranks
//! correctly.

use ada_json::Value;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per `u64` octave.
pub const NUM_BUCKETS: usize = 65;

/// Index of the bucket holding `v`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// Exclusive upper bound of bucket `i` (saturating for the last octave).
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 1,
        64 => u64::MAX,
        _ => 1u64 << i,
    }
}

/// A lock-free histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wraps beyond `u64::MAX`; irrelevant for the
    /// nanosecond/byte magnitudes this system records).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        match self.count() {
            0 => None,
            _ => Some(self.min.load(Ordering::Relaxed)),
        }
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        match self.count() {
            0 => None,
            _ => Some(self.max.load(Ordering::Relaxed)),
        }
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum() as f64 / n as f64
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), linearly interpolated inside the
    /// winning bucket and clamped to the observed min/max. Returns 0.0
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        self.tally().quantile(q)
    }

    /// The counts as they stand, read into plain integers.
    fn tally(&self) -> Tally {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        Tally {
            buckets: std::array::from_fn(|i| load(&self.buckets[i])),
            count: load(&self.count),
            sum: load(&self.sum),
            min: load(&self.min),
            max: load(&self.max),
        }
    }

    /// Fold another histogram into this one (used when per-thread
    /// histograms merge into a shared one).
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(&other.buckets) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        let n = other.count.load(Ordering::Relaxed);
        if n == 0 {
            return;
        }
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Point-in-time stats.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.tally().snapshot()
    }
}

/// A [`Histogram`]'s numbers as plain integers, for an owner that updates
/// them under a lock it holds anyway (the flight recorder's seal): a
/// sample is five plain adds and compares instead of five atomic
/// read-modify-writes, and reads back through the same buckets.
#[derive(Debug, Clone)]
pub(crate) struct Tally {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Tally {
    fn default() -> Tally {
        Tally {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Tally {
    /// Record one sample, as [`Histogram::record`] does.
    pub(crate) fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// See [`Histogram::quantile`].
    fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the requested sample, 1-based.
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let lo = bucket_lower(i) as f64;
                let hi = bucket_upper(i) as f64;
                // Position of the rank inside this bucket, interpolated
                // as if samples were uniform across the octave (midpoint
                // rule, so a full bucket never reads back as its
                // exclusive upper bound).
                let frac = ((rank - cum) as f64 - 0.5) / c as f64;
                let v = lo + frac * (hi - lo);
                return v.clamp(self.min as f64, self.max as f64);
            }
            cum += c;
        }
        self.max as f64
    }

    /// See [`Histogram::snapshot`].
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let empty = self.count == 0;
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if empty { 0 } else { self.min },
            max: if empty { 0 } else { self.max },
            mean: if empty {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Mean sample.
    pub mean: f64,
    /// Median (interpolated).
    pub p50: f64,
    /// 90th percentile (interpolated).
    pub p90: f64,
    /// 99th percentile (interpolated).
    pub p99: f64,
}

impl HistogramSnapshot {
    /// JSON object with every stat.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("count", Value::num_u(self.count)),
            ("sum", Value::num_u(self.sum)),
            ("min", Value::num_u(self.min)),
            ("max", Value::num_u(self.max)),
            ("mean", Value::Num(self.mean)),
            ("p50", Value::Num(self.p50)),
            ("p90", Value::Num(self.p90)),
            ("p99", Value::Num(self.p99)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // 0 is its own bucket; each octave [2^(b-1), 2^b) shares one.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for b in 1..64 {
            // The lower bound of each bucket lands in it; one less lands
            // in the previous one.
            assert_eq!(bucket_index(bucket_lower(b)), b);
            assert_eq!(bucket_index(bucket_lower(b) - 1), b - 1);
            assert!(bucket_lower(b) < bucket_upper(b));
        }
    }

    #[test]
    fn count_sum_min_max_mean() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.5), 0.0);
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 100);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(40));
        assert!((h.mean() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate_within_bucket() {
        // 512 samples uniformly covering one octave [512, 1024): the
        // interpolated median must sit near the middle of the octave.
        let h = Histogram::new();
        for v in 512u64..1024 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 768.0).abs() < 16.0, "p50 {}", p50);
        let p99 = h.quantile(0.99);
        assert!(p99 > 1000.0 && p99 <= 1024.0, "p99 {}", p99);
        // Quantiles are monotone in q.
        assert!(h.quantile(0.1) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(0.9));
    }

    #[test]
    fn percentiles_rank_across_buckets() {
        // 90 fast samples and 10 slow ones: p50 stays in the fast octave,
        // p99 reports the slow one.
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        assert!(h.quantile(0.5) < 200.0);
        assert!(h.quantile(0.99) > 50_000.0);
        // Clamped to observations at the extremes.
        assert!(h.quantile(0.0) >= 100.0);
        assert!(h.quantile(1.0) <= 100_000.0);
    }

    #[test]
    fn zero_samples_have_their_own_bucket() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(1_000);
        assert_eq!(h.min(), Some(0));
        assert!(h.quantile(0.5) < 1.0);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 2, 3] {
            a.record(v);
        }
        for v in [1_000u64, 2_000] {
            b.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 3_006);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(2_000));
        assert!(a.quantile(0.99) > 900.0);
        // Merging an empty histogram changes nothing.
        let before = a.snapshot();
        a.merge_from(&Histogram::new());
        assert_eq!(a.snapshot(), before);
    }

    #[test]
    fn merge_matches_direct_recording() {
        // Merge-of-per-thread-buffers equivalence: recording values into
        // shards and merging equals recording them all into one.
        let direct = Histogram::new();
        let shards: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        for v in 0..1_000u64 {
            let v = v * 37 % 4096;
            direct.record(v);
            shards[(v % 4) as usize].record(v);
        }
        let merged = Histogram::new();
        for s in &shards {
            merged.merge_from(s);
        }
        assert_eq!(merged.snapshot(), direct.snapshot());
    }

    #[test]
    fn a_tally_reads_back_as_the_histogram() {
        let (h, mut t) = (Histogram::new(), Tally::default());
        assert_eq!(t.snapshot(), h.snapshot());
        for v in [0u64, 1, 7, 512, 1_000, 1 << 40, u64::MAX] {
            h.record(v);
            t.record(v);
            assert_eq!(t.snapshot(), h.snapshot());
        }
    }

    #[test]
    fn concurrent_records_none_lost() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 80_000);
    }
}
