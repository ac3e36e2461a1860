//! Virtual time: absolute instants ([`SimTime`]) and spans
//! ([`SimDuration`]) in integer nanoseconds.
//!
//! Integer nanoseconds keep the simulation deterministic (no
//! floating-point drift in the event queue ordering) while covering
//! the full range the paper needs — from the NIC's 10 µs interrupt
//! moderation window up to multi-second experiment runs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An absolute instant in virtual time, counted in nanoseconds from
/// the start of the simulation.
///
/// # Examples
///
/// ```
/// use simcore::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(3);
/// assert_eq!(t.as_micros(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time in nanoseconds.
///
/// # Examples
///
/// ```
/// use simcore::SimDuration;
/// assert_eq!(SimDuration::from_micros(10) * 3, SimDuration::from_micros(30));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the origin.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after the origin,
    /// saturating at [`SimTime::MAX`].
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros.saturating_mul(1_000))
    }

    /// Creates an instant `millis` milliseconds after the origin,
    /// saturating at [`SimTime::MAX`].
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis.saturating_mul(1_000_000))
    }

    /// Creates an instant `secs` seconds after the origin, saturating
    /// at [`SimTime::MAX`].
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs.saturating_mul(1_000_000_000))
    }

    /// Nanoseconds since the origin.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the origin (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since the origin (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the origin as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference; `None` if `earlier > self`.
    #[inline]
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `nanos` nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span of `micros` microseconds, saturating at
    /// [`SimDuration::MAX`].
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros.saturating_mul(1_000))
    }

    /// Creates a span of `millis` milliseconds, saturating at
    /// [`SimDuration::MAX`].
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis.saturating_mul(1_000_000))
    }

    /// Creates a span of `secs` seconds, saturating at
    /// [`SimDuration::MAX`].
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(1_000_000_000))
    }

    /// Checked addition; `None` on overflow (use where a degenerate
    /// configuration could push a horizon past the representable
    /// range).
    #[inline]
    pub const fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        match self.0.checked_add(other.0) {
            Some(n) => Some(SimDuration(n)),
            None => None,
        }
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// nanosecond and saturating at the representable range.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or NaN.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs >= 0.0 && secs.is_finite(),
            "duration must be non-negative and finite"
        );
        SimDuration(round_positive(secs * 1e9))
    }

    /// Creates a span from fractional microseconds (common for service
    /// times), rounding to the nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `micros` is negative or NaN.
    #[inline]
    pub fn from_micros_f64(micros: f64) -> Self {
        assert!(
            micros >= 0.0 && micros.is_finite(),
            "duration must be non-negative and finite"
        );
        SimDuration(round_positive(micros * 1e3))
    }

    /// The span in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The span as fractional seconds (for reporting and rate math).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span as fractional microseconds (for reporting).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by a non-negative float, rounding to the nearest
    /// nanosecond. Useful for scaling work by a frequency ratio.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "factor must be non-negative and finite"
        );
        SimDuration(round_positive(self.0 as f64 * factor))
    }
}

/// `x.round() as u64` without `f64::round`, which is a libm call on
/// baseline x86-64 (paid per arrival draw and per energy segment):
/// truncate, then round the fraction half away from zero.
/// Bit-identical for every `f64`: negative values and NaN give 0 on
/// both sides, and beyond `u64::MAX` both saturate. Below 2^53 the
/// fraction `x - trunc(x)` is computed exactly (Sterbenz), so
/// comparing it with 0.5 decides exactly what `round` decides; from
/// 2^53 on every `f64` is an integer and the fraction is 0.
#[inline]
pub(crate) fn round_positive(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add((x - whole as f64 >= 0.5) as u64)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "subtracting a later SimTime");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds on underflow.
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// Integer ratio of two spans (how many `rhs` fit into `self`).
    #[inline]
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(100);
        let d = SimDuration::from_micros(40);
        assert_eq!((t + d).as_micros(), 140);
        assert_eq!((t - d).as_micros(), 60);
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 3, SimDuration::from_micros(120));
        assert_eq!(d / 2, SimDuration::from_micros(20));
    }

    #[test]
    fn saturating_behaviour() {
        let early = SimTime::from_micros(1);
        let late = SimTime::from_micros(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_micros(1));
        assert_eq!(early.checked_since(late), None);
    }

    #[test]
    fn float_conversions() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_millis(), 1_500);
        let e = SimDuration::from_micros_f64(2.25);
        assert_eq!(e.as_nanos(), 2_250);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_ratio_and_rem() {
        let a = SimDuration::from_micros(105);
        let b = SimDuration::from_micros(10);
        assert_eq!(a / b, 10);
        assert_eq!(a % b, SimDuration::from_micros(5));
    }

    #[test]
    fn round_positive_matches_f64_round() {
        let near = |x: f64| [x.next_down(), x, x.next_up()];
        let mut cases = vec![
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            f64::MIN_POSITIVE,
            1e-300,
            u64::MAX as f64,
            1e20,
            f64::INFINITY,
            f64::NAN,
        ];
        for x in [2f64.powi(51), 2f64.powi(52), 2f64.powi(53), 2f64.powi(64)] {
            cases.extend(near(x));
            cases.extend(near(x + 0.5).iter().filter(|v| v.is_finite()));
            cases.extend(near(x - 0.5));
        }
        for n in 0..64u64 {
            cases.extend(near(n as f64 + 0.5));
        }
        crate::check::forall("round_positive", 4_096, |rng| {
            // Magnitudes from sub-unit fractions to 2^60.
            let x = rng.uniform() * 2f64.powi(rng.below(61) as i32);
            if x > 0.0 {
                assert_eq!(round_positive(x), x.round() as u64, "x = {x:e}");
            }
        });
        for x in cases {
            assert_eq!(round_positive(x), x.round() as u64, "x = {x:e}");
        }
    }

    #[test]
    fn float_constructors_round_like_f64_round() {
        // What the three constructors computed with `f64::round`.
        let formula = |x: f64| SimDuration::from_nanos(x.round().min(u64::MAX as f64) as u64);
        let check = |v: f64| {
            assert_eq!(
                SimDuration::from_secs_f64(v),
                formula(v * 1e9),
                "secs {v:e}"
            );
            assert_eq!(
                SimDuration::from_micros_f64(v),
                formula(v * 1e3),
                "micros {v:e}"
            );
            for n in [1u64, 3, 1_000, 123_456_789] {
                let d = SimDuration::from_nanos(n);
                assert_eq!(d.mul_f64(v), formula(n as f64 * v), "{n} ns × {v:e}");
            }
        };
        let near = |x: f64| [x.next_down(), x, x.next_up()];
        let mut targets = vec![0.0, 0.5, 2f64.powi(52), 2f64.powi(53), 2f64.powi(64)];
        targets.extend((0..64).map(|n| n as f64 + 0.5));
        for x in targets {
            for t in [x - 0.5, x, x + 0.5] {
                // Inputs whose products land on and around `t` for
                // each constructor's scale.
                for scale in [1.0, 1e3, 1e9, 3.0, 1_000.0, 123_456_789.0] {
                    for v in near(t / scale) {
                        if v >= 0.0 {
                            check(v);
                        }
                    }
                }
            }
        }
        check(0.0);
        check(-0.0);
        crate::check::forall("float duration constructors", 4_096, |rng| {
            check(rng.uniform() * 2f64.powi(rng.below(80) as i32 - 20));
        });
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_nanos(1000);
        assert_eq!(d.mul_f64(1.5).as_nanos(), 1500);
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total, SimDuration::from_micros(10));
    }
}
