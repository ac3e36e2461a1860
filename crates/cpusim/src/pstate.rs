//! P-states (performance states): discrete voltage/frequency pairs.
//!
//! Following ACPI and the paper's terminology, **P0 is the highest**
//! V/F state and larger indices are slower. The Xeon Gold 6134
//! testbed exposes 16 P-states from 3.2 GHz (P0) down to 1.2 GHz
//! (P15).

use std::fmt;

/// A P-state index. `PState(0)` (= [`PState::P0`]) is the fastest.
///
/// # Examples
///
/// ```
/// use cpusim::pstate::PState;
/// assert!(PState::P0.is_faster_than(PState::new(3)));
/// assert_eq!(PState::new(3).index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PState(u8);

impl PState {
    /// The maximum-performance state.
    pub const P0: PState = PState(0);

    /// Creates a P-state with the given index (0 = fastest).
    #[inline]
    pub const fn new(index: u8) -> Self {
        PState(index)
    }

    /// The index (0 = fastest).
    #[inline]
    pub const fn index(self) -> u8 {
        self.0
    }

    /// True if `self` has a higher frequency than `other`.
    /// (Lower index = faster.)
    #[inline]
    pub const fn is_faster_than(self, other: PState) -> bool {
        self.0 < other.0
    }

    /// The next-faster state (saturating at P0).
    pub fn faster(self) -> PState {
        PState(self.0.saturating_sub(1))
    }

    /// The next-slower state, clamped to `slowest`.
    pub fn slower(self, slowest: PState) -> PState {
        PState((self.0 + 1).min(slowest.0))
    }

    /// Static display label (`"P0"`…), for trace events that carry
    /// `&'static str` names.
    pub const fn label(self) -> &'static str {
        const LABELS: [&str; 32] = [
            "P0", "P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "P11", "P12", "P13",
            "P14", "P15", "P16", "P17", "P18", "P19", "P20", "P21", "P22", "P23", "P24", "P25",
            "P26", "P27", "P28", "P29", "P30", "P31",
        ];
        if (self.0 as usize) < LABELS.len() {
            LABELS[self.0 as usize]
        } else {
            "P?"
        }
    }
}

impl fmt::Display for PState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// One operating point: frequency and supply voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Core clock in Hz.
    pub frequency_hz: u64,
    /// Supply voltage in volts (used by the power model).
    pub voltage_v: f64,
}

/// The table of operating points for a processor, ordered from P0
/// (fastest) to P(n-1) (slowest).
///
/// # Examples
///
/// ```
/// use cpusim::pstate::{PState, PStateTable};
/// let t = PStateTable::linear(16, 3_200_000_000, 1_200_000_000, 1.05, 0.70);
/// assert_eq!(t.len(), 16);
/// assert_eq!(t.frequency(PState::P0), 3_200_000_000);
/// assert!(t.voltage(PState::P0) > t.voltage(t.slowest()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PStateTable {
    points: Vec<OperatingPoint>,
}

impl PStateTable {
    /// Builds a table from explicit operating points (P0 first).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, exceeds 256 entries, or
    /// frequencies are not strictly decreasing.
    pub fn new(points: Vec<OperatingPoint>) -> Self {
        assert!(!points.is_empty(), "P-state table must not be empty");
        assert!(points.len() <= 256, "more than 256 P-states");
        for w in points.windows(2) {
            assert!(
                w[0].frequency_hz > w[1].frequency_hz,
                "P-state frequencies must strictly decrease from P0"
            );
        }
        PStateTable { points }
    }

    /// Builds `n` evenly spaced states from `f_max` down to `f_min`,
    /// with voltage interpolated linearly from `v_max` to `v_min`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `f_max <= f_min`.
    pub fn linear(n: usize, f_max: u64, f_min: u64, v_max: f64, v_min: f64) -> Self {
        assert!(n >= 2, "need at least two states");
        assert!(f_max > f_min, "f_max must exceed f_min");
        let points = (0..n)
            .map(|i| {
                let frac = i as f64 / (n - 1) as f64;
                OperatingPoint {
                    frequency_hz: (f_max as f64 - frac * (f_max - f_min) as f64).round() as u64,
                    voltage_v: v_max - frac * (v_max - v_min),
                }
            })
            .collect();
        PStateTable::new(points)
    }

    /// Number of P-states.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false (the constructor rejects empty tables); provided
    /// for API completeness.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The slowest (deepest) P-state.
    pub fn slowest(&self) -> PState {
        PState((self.points.len() - 1) as u8)
    }

    /// The fastest frequency in the table (P0's, in Hz). The latency
    /// attribution profiler prices ideal service time at this
    /// frequency so any DVFS slowdown surfaces as P-state stall.
    #[inline]
    pub fn fastest_frequency(&self) -> u64 {
        self.points[0].frequency_hz
    }

    /// True if `p` is within this table.
    pub fn contains(&self, p: PState) -> bool {
        (p.index() as usize) < self.points.len()
    }

    /// Clamps an arbitrary index into the table's range.
    pub fn clamp(&self, p: PState) -> PState {
        PState(p.index().min(self.slowest().index()))
    }

    /// Frequency of `p` in Hz.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn frequency(&self, p: PState) -> u64 {
        self.points[p.index() as usize].frequency_hz
    }

    /// Voltage of `p` in volts.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn voltage(&self, p: PState) -> f64 {
        self.points[p.index() as usize].voltage_v
    }

    /// The operating point of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn point(&self, p: PState) -> OperatingPoint {
        self.points[p.index() as usize]
    }

    /// The lowest-index (fastest) state whose frequency is ≤
    /// `target_hz`, or the slowest state if all are faster. This is
    /// the `ondemand` governor's frequency→P-state mapping.
    pub fn state_for_max_frequency(&self, target_hz: u64) -> PState {
        for (i, pt) in self.points.iter().enumerate() {
            if pt.frequency_hz <= target_hz {
                return PState(i as u8);
            }
        }
        self.slowest()
    }

    /// Normalized distance between two states in `[0, 1]`
    /// (0 = same state, 1 = P0 ↔ slowest). Used by the re-transition
    /// latency interpolation.
    pub fn distance_fraction(&self, a: PState, b: PState) -> f64 {
        if self.points.len() <= 1 {
            return 0.0;
        }
        (a.index().abs_diff(b.index())) as f64 / (self.points.len() - 1) as f64
    }

    /// Iterates over `(PState, OperatingPoint)` pairs from P0 down.
    pub fn iter(&self) -> impl Iterator<Item = (PState, OperatingPoint)> + '_ {
        self.points
            .iter()
            .enumerate()
            .map(|(i, &pt)| (PState(i as u8), pt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PStateTable {
        PStateTable::linear(16, 3_200_000_000, 1_200_000_000, 1.05, 0.70)
    }

    #[test]
    fn ordering_semantics() {
        assert!(PState::P0.is_faster_than(PState::new(1)));
        assert!(!PState::new(1).is_faster_than(PState::new(1)));
        assert_eq!(PState::P0.faster(), PState::P0);
        assert_eq!(PState::new(2).faster(), PState::new(1));
        let slowest = PState::new(15);
        assert_eq!(slowest.slower(slowest), slowest);
        assert_eq!(PState::new(3).slower(slowest), PState::new(4));
    }

    #[test]
    fn linear_table_endpoints() {
        let t = table();
        assert_eq!(t.frequency(PState::P0), 3_200_000_000);
        assert_eq!(t.frequency(t.slowest()), 1_200_000_000);
        assert!((t.voltage(PState::P0) - 1.05).abs() < 1e-12);
        assert!((t.voltage(t.slowest()) - 0.70).abs() < 1e-12);
    }

    #[test]
    fn frequencies_strictly_decrease() {
        let t = table();
        let freqs: Vec<u64> = t.iter().map(|(_, pt)| pt.frequency_hz).collect();
        for w in freqs.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    #[should_panic(expected = "strictly decrease")]
    fn non_monotone_table_rejected() {
        PStateTable::new(vec![
            OperatingPoint {
                frequency_hz: 1_000,
                voltage_v: 1.0,
            },
            OperatingPoint {
                frequency_hz: 2_000,
                voltage_v: 1.0,
            },
        ]);
    }

    #[test]
    fn state_for_max_frequency() {
        let t = table();
        // Exactly P0's frequency → P0.
        assert_eq!(t.state_for_max_frequency(3_200_000_000), PState::P0);
        // Above everything → P0.
        assert_eq!(t.state_for_max_frequency(u64::MAX), PState::P0);
        // Below everything → slowest.
        assert_eq!(t.state_for_max_frequency(1), t.slowest());
        // Mid value → fastest state not exceeding it.
        let p = t.state_for_max_frequency(2_000_000_000);
        assert!(t.frequency(p) <= 2_000_000_000);
        if p.index() > 0 {
            assert!(t.frequency(p.faster()) > 2_000_000_000);
        }
    }

    #[test]
    fn distance_fraction_bounds() {
        let t = table();
        assert_eq!(t.distance_fraction(PState::P0, PState::P0), 0.0);
        assert!((t.distance_fraction(PState::P0, t.slowest()) - 1.0).abs() < 1e-12);
        let d = t.distance_fraction(PState::P0, PState::new(1));
        assert!((d - 1.0 / 15.0).abs() < 1e-12);
        // Symmetric.
        assert_eq!(
            t.distance_fraction(PState::new(3), PState::new(7)),
            t.distance_fraction(PState::new(7), PState::new(3))
        );
    }

    #[test]
    fn clamp_and_contains() {
        let t = table();
        assert!(t.contains(PState::new(15)));
        assert!(!t.contains(PState::new(16)));
        assert_eq!(t.clamp(PState::new(200)), t.slowest());
        assert_eq!(t.clamp(PState::new(3)), PState::new(3));
    }
}
