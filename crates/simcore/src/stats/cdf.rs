//! Exact empirical CDFs for the paper's Fig 4 / Fig 11 latency plots.
//!
//! Unlike [`Histogram`](crate::Histogram), a [`Cdf`] keeps every
//! sample, so it can report exact fractions ("18.1 % of requests were
//! under 1 ms") and export the full curve for plotting. Use it for
//! bounded experiment windows; use the histogram for long runs.

use crate::time::SimDuration;

/// A builder/holder for an exact empirical distribution.
///
/// # Examples
///
/// ```
/// use simcore::Cdf;
/// let mut cdf = Cdf::new();
/// for v in [1u64, 2, 3, 4, 100] {
///     cdf.record(v);
/// }
/// assert_eq!(cdf.fraction_at_or_below(4), 0.8);
/// assert_eq!(cdf.quantile(0.5), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    samples: Vec<u64>,
    sorted: bool,
}

impl Cdf {
    /// Creates an empty CDF.
    pub fn new() -> Self {
        Cdf {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Fraction of samples ≤ `value` (0.0 for an empty CDF).
    pub fn fraction_at_or_below(&mut self, value: u64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s <= value);
        idx as f64 / self.samples.len() as f64
    }

    /// Fraction of samples strictly above `value`.
    pub fn fraction_above(&mut self, value: u64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        1.0 - self.fraction_at_or_below(value)
    }

    /// Exact empirical quantile: the smallest sample `x` such that at
    /// least `q·n` samples are ≤ `x`. Returns 0 for an empty CDF.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples.is_empty() {
            return 0;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.samples[rank - 1]
    }

    /// P99 as a duration.
    pub fn p99(&mut self) -> SimDuration {
        SimDuration::from_nanos(self.quantile(0.99))
    }

    /// Exports `points` evenly spaced (value, cumulative-fraction)
    /// pairs for plotting. Returns an empty vector if no samples.
    pub fn curve(&mut self, points: usize) -> Vec<(u64, f64)> {
        if self.samples.is_empty() || points == 0 {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.samples.len();
        (1..=points)
            .map(|i| {
                let rank = ((i * n) / points).max(1);
                (self.samples[rank - 1], rank as f64 / n as f64)
            })
            .collect()
    }

    /// Iterates over the raw samples in insertion order is not
    /// guaranteed; sorts first and returns the sorted slice.
    pub fn sorted_samples(&mut self) -> &[u64] {
        self.ensure_sorted();
        &self.samples
    }
}

impl FromIterator<u64> for Cdf {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let samples: Vec<u64> = iter.into_iter().collect();
        Cdf {
            samples,
            sorted: false,
        }
    }
}

impl Extend<u64> for Cdf {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        self.samples.extend(iter);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_safe() {
        let mut c = Cdf::new();
        assert!(c.is_empty());
        assert_eq!(c.quantile(0.99), 0);
        assert_eq!(c.fraction_at_or_below(10), 0.0);
        assert!(c.curve(10).is_empty());
    }

    #[test]
    fn exact_fractions() {
        let mut c: Cdf = (1..=100u64).collect();
        assert_eq!(c.len(), 100);
        assert_eq!(c.fraction_at_or_below(50), 0.5);
        assert!((c.fraction_above(99) - 0.01).abs() < 1e-12);
        assert_eq!(c.quantile(0.99), 99);
        assert_eq!(c.quantile(1.0), 100);
        assert_eq!(c.quantile(0.0), 1);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut c = Cdf::new();
        for v in [5u64, 1, 9, 3, 7] {
            c.record(v);
        }
        assert_eq!(c.quantile(0.5), 5);
        assert_eq!(c.sorted_samples(), &[1, 3, 5, 7, 9]);
    }

    #[test]
    fn curve_is_monotone() {
        let mut c: Cdf = (0..1000u64).map(|i| i * 3).collect();
        let curve = c.curve(50);
        assert_eq!(curve.len(), 50);
        for w in curve.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extend_and_duration_recording() {
        let mut c = Cdf::new();
        c.extend([10u64, 20, 30]);
        c.record_duration(SimDuration::from_nanos(40));
        assert_eq!(c.len(), 4);
        assert_eq!(c.quantile(1.0), 40);
    }

    #[test]
    fn duplicates() {
        let mut c: Cdf = [5u64; 10].into_iter().collect();
        assert_eq!(c.quantile(0.5), 5);
        assert_eq!(c.fraction_at_or_below(5), 1.0);
        assert_eq!(c.fraction_at_or_below(4), 0.0);
    }
}
