//! Sorted disjoint half-open index ranges.
//!
//! Algorithm 1 of the paper produces, per tag, a list of `[begin, end)`
//! atom-index ranges ("Data Subset Ranges"). [`IndexRanges`] is that value:
//! a normalized (sorted, disjoint, coalesced) set of half-open ranges over
//! `usize` indices, with the set operations the indexer and splitter need.

use std::ops::Range;

/// A normalized set of half-open index ranges.
///
/// ```
/// use ada_mdmodel::IndexRanges;
///
/// let protein = IndexRanges::from_ranges([0..100, 150..200]);
/// let misc = protein.complement(300);
/// assert_eq!(protein.count(), 150);
/// assert_eq!(misc.count(), 150);
/// assert!(!misc.contains(150) && misc.contains(100));
///
/// // The splitter's core operation: gather a tagged subset.
/// let data: Vec<u32> = (0..300).collect();
/// let subset = protein.gather(&data);
/// assert_eq!(subset.len(), 150);
/// assert_eq!(subset[100], 150); // second run starts at index 150
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexRanges {
    /// Invariant: sorted by start, non-empty, non-overlapping, and
    /// non-adjacent (adjacent ranges are coalesced).
    ranges: Vec<Range<usize>>,
}

impl IndexRanges {
    /// The empty set.
    pub fn new() -> IndexRanges {
        IndexRanges::default()
    }

    /// A single contiguous range. Empty input ranges yield the empty set.
    pub fn single(range: Range<usize>) -> IndexRanges {
        let mut r = IndexRanges::new();
        r.push(range);
        r
    }

    /// Build from an arbitrary list of (possibly overlapping, unsorted)
    /// ranges.
    pub fn from_ranges(iter: impl IntoIterator<Item = Range<usize>>) -> IndexRanges {
        let mut raw: Vec<Range<usize>> = iter.into_iter().filter(|r| r.start < r.end).collect();
        raw.sort_by_key(|r| r.start);
        let mut out = IndexRanges::new();
        for r in raw {
            out.push(r);
        }
        out
    }

    /// Append a range, coalescing with the tail when sorted input is pushed;
    /// out-of-order pushes fall back to a merge.
    pub fn push(&mut self, range: Range<usize>) {
        if range.start >= range.end {
            return;
        }
        match self.ranges.last_mut() {
            Some(last) if range.start > last.end => self.ranges.push(range),
            Some(last) if range.start >= last.start => {
                // Overlapping or adjacent with the tail: extend.
                last.end = last.end.max(range.end);
            }
            Some(_) => {
                // Out of order: rebuild.
                let mut all = std::mem::take(&mut self.ranges);
                all.push(range);
                *self = IndexRanges::from_ranges(all);
            }
            None => self.ranges.push(range),
        }
    }

    /// Number of indices covered.
    pub fn count(&self) -> usize {
        self.ranges.iter().map(|r| r.end - r.start).sum()
    }

    /// True when no index is covered.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Whether `index` is covered.
    pub fn contains(&self, index: usize) -> bool {
        // Binary search over starts.
        self.ranges
            .binary_search_by(|r| {
                if index < r.start {
                    std::cmp::Ordering::Greater
                } else if index >= r.end {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Iterate the contiguous ranges.
    pub fn iter_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.ranges.iter().cloned()
    }

    /// Iterate every covered index in ascending order.
    pub fn iter_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.ranges.iter().flat_map(|r| r.clone())
    }

    /// Smallest covered index, if any.
    pub fn min(&self) -> Option<usize> {
        self.ranges.first().map(|r| r.start)
    }

    /// One past the largest covered index, if any.
    pub fn end(&self) -> Option<usize> {
        self.ranges.last().map(|r| r.end)
    }

    /// Complement within `0..universe`.
    pub fn complement(&self, universe: usize) -> IndexRanges {
        let mut out = IndexRanges::new();
        let mut cursor = 0usize;
        for r in &self.ranges {
            let start = r.start.min(universe);
            if cursor < start {
                out.push(cursor..start);
            }
            cursor = cursor.max(r.end.min(universe));
        }
        if cursor < universe {
            out.push(cursor..universe);
        }
        out
    }

    /// Gather the covered elements of `source` into a new Vec (the splitter's
    /// core operation: extracting a tagged subset of per-atom data).
    pub fn gather<T: Copy>(&self, source: &[T]) -> Vec<T> {
        let mut out = Vec::with_capacity(self.count());
        self.gather_into(source, &mut out);
        out
    }

    /// Gather into a caller-owned buffer, clearing it first.
    ///
    /// Equivalent to [`gather`](Self::gather) but reuses `out`'s
    /// allocation, so a loop gathering once per frame performs no heap
    /// allocation after the first iteration. Ranges extending past
    /// `source` are clamped, exactly as in `gather`.
    pub fn gather_into<T: Copy>(&self, source: &[T], out: &mut Vec<T>) {
        out.clear();
        out.reserve(self.count());
        for r in &self.ranges {
            out.extend_from_slice(&source[r.start.min(source.len())..r.end.min(source.len())]);
        }
    }

    /// Scatter `values` (one per covered index, ascending) into `dest`.
    /// Panics if `values` is shorter than [`count`](Self::count) or `dest`
    /// does not cover the maximum index.
    pub fn scatter<T: Copy>(&self, values: &[T], dest: &mut [T]) {
        let mut k = 0usize;
        for r in &self.ranges {
            let n = r.end - r.start;
            dest[r.start..r.end].copy_from_slice(&values[k..k + n]);
            k += n;
        }
    }
}

impl FromIterator<Range<usize>> for IndexRanges {
    fn from_iter<I: IntoIterator<Item = Range<usize>>>(iter: I) -> IndexRanges {
        IndexRanges::from_ranges(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_and_count() {
        let r = IndexRanges::single(3..7);
        assert_eq!(r.count(), 4);
        assert_eq!(r.iter_ranges().count(), 1);
        assert!(r.contains(3));
        assert!(r.contains(6));
        assert!(!r.contains(7));
        assert!(!r.contains(2));
    }

    #[test]
    fn empty_range_ignored() {
        assert!(IndexRanges::single(5..5).is_empty());
        #[allow(clippy::reversed_empty_ranges)] // deliberately inverted input
        let inverted = IndexRanges::single(7..3);
        assert!(inverted.is_empty());
    }

    #[test]
    fn push_coalesces_adjacent() {
        let mut r = IndexRanges::new();
        r.push(0..3);
        r.push(3..5);
        assert_eq!(r.iter_ranges().count(), 1);
        assert_eq!(r.count(), 5);
    }

    #[test]
    fn push_out_of_order_normalizes() {
        let mut r = IndexRanges::new();
        r.push(10..12);
        r.push(0..2);
        r.push(11..15);
        assert_eq!(r.iter_ranges().count(), 2);
        assert_eq!(r.count(), 2 + 5);
        assert_eq!(
            r.iter_indices().collect::<Vec<_>>(),
            vec![0, 1, 10, 11, 12, 13, 14]
        );
    }

    #[test]
    fn complement_basics() {
        let a = IndexRanges::from_ranges([2..4, 6..8]);
        assert_eq!(
            a.complement(10),
            IndexRanges::from_ranges([0..2, 4..6, 8..10])
        );
        assert_eq!(IndexRanges::new().complement(3), IndexRanges::single(0..3));
        assert_eq!(IndexRanges::single(0..3).complement(3), IndexRanges::new());
    }

    #[test]
    fn complement_clamps_to_universe() {
        let a = IndexRanges::single(2..100);
        assert_eq!(a.complement(5), IndexRanges::single(0..2));
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let data: Vec<u32> = (0..20).collect();
        let sel = IndexRanges::from_ranges([2..5, 9..12, 19..20]);
        let gathered = sel.gather(&data);
        assert_eq!(gathered, vec![2, 3, 4, 9, 10, 11, 19]);
        let mut dest = vec![0u32; 20];
        sel.scatter(&gathered, &mut dest);
        for i in sel.iter_indices() {
            assert_eq!(dest[i], data[i]);
        }
    }

    #[test]
    fn gather_into_matches_gather() {
        let data: Vec<u32> = (0..20).collect();
        let sel = IndexRanges::from_ranges([2..5, 9..12, 19..20]);
        let mut buf = Vec::new();
        sel.gather_into(&data, &mut buf);
        assert_eq!(buf, sel.gather(&data));
    }

    #[test]
    fn gather_into_clears_and_reuses_buffer() {
        let data: Vec<u32> = (0..50).collect();
        let big = IndexRanges::single(0..50);
        let small = IndexRanges::single(10..13);
        let mut buf = Vec::new();
        big.gather_into(&data, &mut buf);
        assert_eq!(buf.len(), 50);
        let cap = buf.capacity();
        // A smaller gather reuses the larger allocation (no realloc, stale
        // contents gone).
        small.gather_into(&data, &mut buf);
        assert_eq!(buf, vec![10, 11, 12]);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn gather_into_empty_ranges_yields_empty() {
        let data: Vec<u32> = (0..10).collect();
        let mut buf = vec![99u32; 4];
        IndexRanges::new().gather_into(&data, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn gather_into_clamps_past_source_end() {
        let data: Vec<u32> = (0..10).collect();
        let sel = IndexRanges::from_ranges([5..8, 9..30]);
        let mut buf = Vec::new();
        sel.gather_into(&data, &mut buf);
        assert_eq!(buf, sel.gather(&data));
        assert_eq!(buf, vec![5, 6, 7, 9]);
    }

    fn arb_ranges(max: usize) -> impl Strategy<Value = IndexRanges> {
        prop::collection::vec((0..max, 0..max), 0..12).prop_map(|pairs| {
            IndexRanges::from_ranges(
                pairs
                    .into_iter()
                    .map(|(a, b)| if a <= b { a..b } else { b..a }),
            )
        })
    }

    proptest! {
        #[test]
        fn prop_normalized_invariant(r in arb_ranges(200)) {
            let v: Vec<_> = r.iter_ranges().collect();
            for w in v.windows(2) {
                // Sorted, disjoint, non-adjacent.
                prop_assert!(w[0].end < w[1].start);
            }
            for rr in &v {
                prop_assert!(rr.start < rr.end);
            }
        }

        #[test]
        fn prop_complement_partitions(a in arb_ranges(100)) {
            let c = a.complement(100);
            prop_assert_eq!(a.count() + c.count(), 100);
            prop_assert!((0..100).all(|i| a.contains(i) != c.contains(i)));
        }

        #[test]
        fn prop_gather_matches_iter(a in arb_ranges(80)) {
            let data: Vec<usize> = (0..80).collect();
            let g = a.gather(&data);
            let expect: Vec<usize> = a.iter_indices().collect();
            prop_assert_eq!(g, expect);
        }

        #[test]
        fn prop_gather_into_equals_gather(a in arb_ranges(120), src_len in 0usize..120) {
            // Source may be shorter than the selection's end: both paths
            // must clamp identically.
            let data: Vec<usize> = (0..src_len).collect();
            let mut buf = vec![777usize; 5];
            a.gather_into(&data, &mut buf);
            prop_assert_eq!(buf, a.gather(&data));
        }

        #[test]
        fn prop_gather_into_scatter_roundtrip(a in arb_ranges(60)) {
            let data: Vec<usize> = (100..160).collect();
            let mut buf = Vec::new();
            a.gather_into(&data, &mut buf);
            let mut dest = vec![0usize; 60];
            a.scatter(&buf, &mut dest);
            for i in a.iter_indices() {
                prop_assert_eq!(dest[i], data[i]);
            }
        }
    }
}
