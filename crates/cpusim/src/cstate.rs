//! C-states (sleep states) and wake-up latencies.
//!
//! The paper (§2.2, §5.2, Table 2) uses three core C-states:
//!
//! * **CC0** — active: executing, or idling with clocks running
//!   (what you get with the `disable` sleep policy);
//! * **CC1** — halted/clock-gated, sub-µs wake-up;
//! * **CC6** — power-gated with private caches flushed, ~27 µs
//!   wake-up plus a cache-refill penalty after waking.

use simcore::{RngStream, SimDuration};
use std::fmt;

/// A core sleep state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CState {
    /// Active: the core executes instructions or spins in the idle
    /// loop with clocks running ("polling idle").
    C0,
    /// Clock-gated halt.
    C1,
    /// Deep sleep: core power-gated, private caches flushed.
    C6,
}

impl CState {
    /// True for any sleeping state (C1 or C6).
    #[inline]
    pub fn is_sleep(self) -> bool {
        self != CState::C0
    }

    /// The deeper of two states.
    pub fn deeper(self, other: CState) -> CState {
        self.max(other)
    }

    /// Static display label, for trace events that carry
    /// `&'static str` names.
    pub const fn label(self) -> &'static str {
        match self {
            CState::C0 => "CC0",
            CState::C1 => "CC1",
            CState::C6 => "CC6",
        }
    }

    /// Numeric depth (trace event argument).
    pub const fn depth(self) -> u8 {
        match self {
            CState::C0 => 0,
            CState::C1 => 1,
            CState::C6 => 6,
        }
    }
}

impl fmt::Display for CState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CState::C0 => write!(f, "CC0"),
            CState::C1 => write!(f, "CC1"),
            CState::C6 => write!(f, "CC6"),
        }
    }
}

/// Wake-up latency parameters (Table 2): mean and stdev of the
/// CC1→CC0 and CC6→CC0 transitions, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CStateLatencies {
    /// Mean CC1→CC0 wake-up (µs).
    pub c1_wake_mean_us: f64,
    /// Stdev of CC1→CC0 wake-up (µs).
    pub c1_wake_stdev_us: f64,
    /// Mean CC6→CC0 wake-up (µs).
    pub c6_wake_mean_us: f64,
    /// Stdev of CC6→CC0 wake-up (µs).
    pub c6_wake_stdev_us: f64,
}

impl CStateLatencies {
    /// Mean wake-up latency from `state` (zero from C0).
    pub fn mean_wake(&self, state: CState) -> SimDuration {
        match state {
            CState::C0 => SimDuration::ZERO,
            CState::C1 => SimDuration::from_micros_f64(self.c1_wake_mean_us),
            CState::C6 => SimDuration::from_micros_f64(self.c6_wake_mean_us),
        }
    }

    /// Samples a wake-up latency from `state` (Gaussian around the
    /// Table 2 mean, floored at zero).
    pub fn sample_wake(&self, state: CState, rng: &mut RngStream) -> SimDuration {
        let (mean, stdev) = match state {
            CState::C0 => return SimDuration::ZERO,
            CState::C1 => (self.c1_wake_mean_us, self.c1_wake_stdev_us),
            CState::C6 => (self.c6_wake_mean_us, self.c6_wake_stdev_us),
        };
        SimDuration::from_micros_f64(rng.normal(mean, stdev).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gold() -> CStateLatencies {
        CStateLatencies {
            c1_wake_mean_us: 0.56,
            c1_wake_stdev_us: 0.50,
            c6_wake_mean_us: 27.43,
            c6_wake_stdev_us: 4.05,
        }
    }

    #[test]
    fn ordering_and_depth() {
        assert!(CState::C6 > CState::C1);
        assert!(CState::C1 > CState::C0);
        assert_eq!(CState::C1.deeper(CState::C6), CState::C6);
        assert!(!CState::C0.is_sleep());
        assert!(CState::C6.is_sleep());
    }

    #[test]
    fn wake_from_c0_is_free() {
        let l = gold();
        let mut rng = RngStream::from_seed(1);
        assert_eq!(l.sample_wake(CState::C0, &mut rng), SimDuration::ZERO);
        assert_eq!(l.mean_wake(CState::C0), SimDuration::ZERO);
    }

    #[test]
    fn c6_wake_statistics_match_table2() {
        let l = gold();
        let mut rng = RngStream::from_seed(2);
        let mut stats = simcore::RunningStats::new();
        for _ in 0..10_000 {
            stats.push(l.sample_wake(CState::C6, &mut rng).as_micros_f64());
        }
        assert!((stats.mean() - 27.43).abs() < 0.3, "mean {}", stats.mean());
        assert!((stats.sample_stdev() - 4.05).abs() < 0.3);
    }

    #[test]
    fn c1_wake_is_submicrosecond_scale() {
        let l = gold();
        let mut rng = RngStream::from_seed(3);
        let mut stats = simcore::RunningStats::new();
        for _ in 0..10_000 {
            stats.push(l.sample_wake(CState::C1, &mut rng).as_micros_f64());
        }
        // Floored Gaussian shifts the mean slightly above 0.56.
        assert!(stats.mean() < 1.0, "mean {}", stats.mean());
        assert!(l.mean_wake(CState::C1) < l.mean_wake(CState::C6));
    }

    #[test]
    fn display_names() {
        assert_eq!(CState::C6.to_string(), "CC6");
        assert_eq!(CState::C0.to_string(), "CC0");
    }
}
