//! Log-bucketed latency histogram with percentile queries.
//!
//! The layout follows the HdrHistogram idea: values are grouped by
//! binary magnitude, with `1 << SUB_BITS` linear sub-buckets per
//! magnitude, giving a bounded relative error (< 1/64 ≈ 1.6 % with
//! the default 6 sub-bucket bits) across the full `u64` range. That
//! is plenty for P99 comparisons against millisecond-scale SLOs while
//! staying allocation-free after construction.

use crate::time::SimDuration;

const SUB_BITS: u32 = 6;
const SUB_COUNT: usize = 1 << SUB_BITS;
// Block 0 holds values < SUB_COUNT; blocks 1..=58 hold binary
// magnitudes 6..=63, covering the whole u64 range.
const BLOCKS: usize = 64 - SUB_BITS as usize + 1;

/// A histogram of non-negative integer samples (typically nanoseconds).
///
/// # Examples
///
/// ```
/// use simcore::Histogram;
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.value_at_quantile(0.50);
/// assert!((490..=515).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BLOCKS * SUB_COUNT],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket indices that may hold samples.
    ///
    /// Invariant: every recorded sample `v` satisfies
    /// `min <= v <= max`, and `index_of` is monotonic, so every
    /// nonzero bucket lies in `index_of(min)..=index_of(max)`. Scans
    /// and clears restricted to this range are therefore exact. An
    /// empty histogram has no occupied buckets.
    fn occupied(&self) -> std::ops::Range<usize> {
        if self.count == 0 {
            return 0..0;
        }
        Self::index_of(self.min)..Self::index_of(self.max) + 1
    }

    fn index_of(value: u64) -> usize {
        if value < SUB_COUNT as u64 {
            return value as usize;
        }
        let magnitude = 63 - value.leading_zeros(); // >= SUB_BITS
        let shift = magnitude - SUB_BITS;
        let sub = (value >> shift) as usize & (SUB_COUNT - 1);
        ((magnitude - SUB_BITS + 1) as usize) * SUB_COUNT + sub
    }

    /// The lowest value that maps to `index` (used to report
    /// percentiles as representative values).
    fn value_of(index: usize) -> u64 {
        let magnitude = index / SUB_COUNT;
        let sub = index % SUB_COUNT;
        if magnitude == 0 {
            return sub as u64;
        }
        let shift = (magnitude - 1) as u32;
        ((SUB_COUNT + sub) as u64) << shift
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = Self::index_of(value);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a duration sample in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The representative value at quantile `q` in `[0, 1]`: the
    /// smallest bucket value such that at least `q * count` samples
    /// are ≤ it. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        let range = self.occupied();
        for (i, &c) in range.clone().zip(&self.buckets[range]) {
            seen += c;
            if seen >= target {
                // Clamp to the true max to avoid overshooting from
                // bucket granularity at the top quantiles.
                return Self::value_of(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// P99 as a duration (the paper's SLO metric).
    pub fn p99(&self) -> SimDuration {
        SimDuration::from_nanos(self.value_at_quantile(0.99))
    }

    /// P50 (median) as a duration.
    pub fn p50(&self) -> SimDuration {
        SimDuration::from_nanos(self.value_at_quantile(0.50))
    }

    /// Fraction of samples strictly greater than `threshold` —
    /// "x % of requests exceed the SLO" in the paper's wording.
    pub fn fraction_above(&self, threshold: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Count buckets fully above the threshold; the bucket holding
        // the threshold itself is attributed below it (consistent with
        // value_at_quantile's "≤" convention).
        let idx = Self::index_of(threshold);
        let above: u64 = self.buckets[idx + 1..].iter().sum();
        above as f64 / self.count as f64
    }

    /// Fraction of samples ≤ `threshold`.
    pub fn fraction_at_or_below(&self, threshold: u64) -> f64 {
        1.0 - self.fraction_above(threshold)
    }

    /// The representative value at quantile `q` of this histogram
    /// merged with `other`, computed without materializing the merged
    /// bucket array (the streaming estimators query a rotating window
    /// pair this way on every rotation).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn merged_quantile(&self, other: &Histogram, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let count = self.count + other.count;
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).max(1);
        // `min` is u64::MAX only for an empty side, which the other
        // side's real minimum then dominates (count > 0 here).
        let max = self.max.max(other.max);
        let min = self.min.min(other.min);
        // Both sides' occupied ranges lie inside this one (see
        // `occupied`), so the buckets outside it are zero on both.
        let range = Self::index_of(min)..Self::index_of(max) + 1;
        let pairs = self.buckets[range.clone()]
            .iter()
            .zip(&other.buckets[range.clone()]);
        let mut seen = 0;
        for (i, (&a, &b)) in range.zip(pairs) {
            seen += a + b;
            if seen >= target {
                return Self::value_of(i).min(max).max(min);
            }
        }
        max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        let range = other.occupied();
        for (a, b) in self.buckets[range.clone()]
            .iter_mut()
            .zip(&other.buckets[range])
        {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Resets to empty.
    pub fn clear(&mut self) {
        let range = self.occupied();
        self.buckets[range].fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.value_at_quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_value() {
        let mut h = Histogram::new();
        h.record(123_456);
        assert_eq!(h.count(), 1);
        let p99 = h.value_at_quantile(0.99);
        assert!(relative_error(p99, 123_456) < 0.02, "p99 {p99}");
        assert_eq!(h.min(), 123_456);
        assert_eq!(h.max(), 123_456);
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, expect) in &[(0.5, 50_000u64), (0.9, 90_000), (0.99, 99_000)] {
            let got = h.value_at_quantile(q);
            assert!(
                relative_error(got, expect) < 0.02,
                "q={q}: got {got}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn fraction_above_threshold() {
        let mut h = Histogram::new();
        // 99 fast samples, 1 slow.
        for _ in 0..99 {
            h.record(100);
        }
        h.record(10_000_000);
        assert!((h.fraction_above(1_000_000) - 0.01).abs() < 1e-9);
        assert!((h.fraction_at_or_below(1_000_000) - 0.99).abs() < 1e-9);
    }

    /// The quantile by a scan of every bucket from index 0: the
    /// reference the occupied-range scans must match.
    fn full_scan_quantile(h: &Histogram, q: f64) -> u64 {
        if h.count == 0 {
            return 0;
        }
        let target = ((q * h.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in h.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Histogram::value_of(i).min(h.max).max(h.min);
            }
        }
        h.max
    }

    /// No nonzero bucket lies outside `[index_of(min), index_of(max)]`.
    fn assert_occupied_invariant(h: &Histogram) {
        let range = h.occupied();
        for (i, &c) in h.buckets.iter().enumerate() {
            assert!(
                c == 0 || range.contains(&i),
                "bucket {i} holds {c} outside {range:?}"
            );
        }
    }

    fn histogram_of(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn merged_quantile_matches_materialized_merge() {
        let ramp_a: Vec<u64> = (1..=500u64).map(|v| v * 100).collect();
        let ramp_b: Vec<u64> = (1..=500u64).map(|v| v * 1_000).collect();
        let small: Vec<u64> = (0..64u64).collect();
        let cases: [(&str, &[u64], &[u64]); 9] = [
            ("two ramps", &ramp_a, &ramp_b),
            ("one empty side", &ramp_a, &[]),
            ("both empty", &[], &[]),
            ("single sample", &[777], &[]),
            ("single sample each", &[5], &[1 << 40]),
            ("min == max", &[4_242, 4_242, 4_242], &[4_242]),
            ("values below 64", &small, &[3, 3, 63]),
            ("u64::MAX", &[u64::MAX, 1], &[u64::MAX]),
            ("u64::MAX alone", &[], &[u64::MAX, u64::MAX]),
        ];
        for (name, av, bv) in cases {
            let a = histogram_of(av);
            let b = histogram_of(bv);
            let mut merged = a.clone();
            merged.merge(&b);
            for h in [&a, &b, &merged] {
                assert_occupied_invariant(h);
            }
            for &q in &[0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let want = full_scan_quantile(&merged, q);
                assert_eq!(merged.value_at_quantile(q), want, "{name}: q={q}");
                assert_eq!(a.merged_quantile(&b, q), want, "{name}: q={q}");
                assert_eq!(
                    b.merged_quantile(&a, q),
                    want,
                    "{name}: merged quantile must be symmetric at q={q}"
                );
            }
        }
    }

    #[test]
    fn clear_then_record_forgets_the_old_range() {
        let mut h = histogram_of(&[10, 1_000_000, u64::MAX]);
        h.clear();
        assert!(
            h.buckets.iter().all(|&c| c == 0),
            "clear zeroes every bucket"
        );
        assert_occupied_invariant(&h);
        for v in [300u64, 301, 90_000] {
            h.record(v);
        }
        assert_occupied_invariant(&h);
        let fresh = histogram_of(&[300, 301, 90_000]);
        assert_eq!(h.buckets, fresh.buckets);
        let other = histogram_of(&[7, 7_000]);
        for &q in &[0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.value_at_quantile(q), full_scan_quantile(&fresh, q));
            assert_eq!(
                h.merged_quantile(&other, q),
                fresh.merged_quantile(&other, q)
            );
        }
        // Clearing a cleared (empty) histogram is a no-op.
        h.clear();
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.merged_quantile(&other, 0.5), other.value_at_quantile(0.5));
    }

    #[test]
    fn merged_quantile_with_one_empty_side() {
        let mut a = Histogram::new();
        a.record(777);
        let empty = Histogram::new();
        assert_eq!(
            a.merged_quantile(&empty, 0.5),
            empty.merged_quantile(&a, 0.5)
        );
        assert!(
            a.merged_quantile(&empty, 0.99) >= 768,
            "bucket floor of 777"
        );
        assert_eq!(empty.merged_quantile(&Histogram::new(), 0.99), 0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(5);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn index_value_roundtrip_error_bounded() {
        for &v in &[
            1u64,
            63,
            64,
            65,
            100,
            1_000,
            123_456,
            1_000_000,
            u32::MAX as u64,
            1 << 40,
        ] {
            let idx = Histogram::index_of(v);
            let rep = Histogram::value_of(idx);
            assert!(rep <= v, "representative must not exceed value");
            assert!(relative_error(rep, v) < 1.0 / 32.0, "v={v} rep={rep}");
        }
    }

    #[test]
    fn extremes_do_not_panic() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
    }

    fn relative_error(got: u64, expect: u64) -> f64 {
        if expect == 0 {
            return got as f64;
        }
        ((got as f64) - (expect as f64)).abs() / expect as f64
    }
}
