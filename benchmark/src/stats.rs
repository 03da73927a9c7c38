//! Exact statistics over raw samples. Every timing the benchmark reports
//! comes from here: raw per-op nanoseconds are kept and sorted, never
//! bucketed (`ada_telemetry::Histogram` rounds to log2 bucket edges, which
//! is why the superseded root `BENCH_*.json` files read p50 = 0.786432 ms).

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice, interpolating
/// linearly between the two closest ranks, so the median of an even count
/// is the mean of its two middle samples. `NaN` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort a copy of `values` ascending (total order, so `NaN` cannot panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Exact median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Nanosecond samples as milliseconds.
pub fn ns_to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// A metric measured once per block (or once per repetition): its median
/// is the reported value, `min..max` its spread.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median over the samples.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarise per-block (or per-repetition) values.
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            median: quantile_sorted(&s, 0.5),
            min: s.first().copied().unwrap_or(f64::NAN),
            max: s.last().copied().unwrap_or(f64::NAN),
            n: s.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_exact_on_odd_and_interpolates_on_even_counts() {
        assert_eq!(quantile_sorted(&[1.0, 2.0, 9.0], 0.5), 2.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 4.0, 9.0], 0.5), 3.0);
        assert_eq!(quantile_sorted(&[5.0], 0.95), 5.0);
        assert_eq!(quantile_sorted(&[0.0, 10.0], 0.95), 9.5);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0], 0.0), 1.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0], 1.0), 3.0);
        assert!(quantile_sorted(&[], 0.5).is_nan());
    }

    #[test]
    fn quantile_keeps_every_digit_of_a_sample() {
        // A histogram with log2 buckets would answer 0.786432 here.
        let ms = ns_to_ms(&[612_345, 700_001, 812_777]);
        assert_eq!(median(&ms), 0.700001);
    }

    #[test]
    fn p95_of_a_hundred_samples_sits_between_rank_95_and_96() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p95 = quantile_sorted(&v, 0.95);
        assert!((p95 - 95.05).abs() < 1e-9, "{p95}");
    }

    #[test]
    fn block_median_ignores_one_slow_block() {
        let s = Summary::of(&[100.0, 101.0, 99.0, 100.5, 40.0]);
        assert_eq!(s.median, 100.0);
        assert_eq!((s.min, s.max, s.n), (40.0, 101.0, 5));
    }

    #[test]
    fn median_does_not_need_sorted_input() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }
}
