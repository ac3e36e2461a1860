//! A RAPL-like package energy counter.
//!
//! The paper measures energy with Intel's Running Average Power Limit
//! (RAPL) counter (§6.1). [`RaplCounter`] mimics the useful part of
//! that interface: a monotone energy accumulator read at interval
//! boundaries, with the difference giving the interval's energy.

use crate::topology::Processor;
use simcore::SimTime;

/// A monotone package-energy counter with interval reads.
///
/// # Examples
///
/// ```
/// use cpusim::{Processor, DvfsScope, ProcessorProfile, RaplCounter};
/// use simcore::SimTime;
///
/// let mut proc = Processor::new(ProcessorProfile::xeon_gold_6134(), DvfsScope::PerCore);
/// let mut rapl = RaplCounter::new();
/// rapl.begin(&mut proc, SimTime::ZERO);
/// let joules = rapl.read_interval(&mut proc, SimTime::from_secs(1));
/// assert!(joules > 0.0); // idle power is still power
/// ```
#[derive(Debug, Clone, Default)]
pub struct RaplCounter {
    last_reading_j: f64,
    clamp_events: u64,
}

impl RaplCounter {
    /// Creates a counter; call [`begin`](RaplCounter::begin) to anchor
    /// the first interval.
    pub fn new() -> Self {
        RaplCounter::default()
    }

    /// Anchors the counter at `now` (discards energy before it).
    pub fn begin(&mut self, processor: &mut Processor, now: SimTime) {
        self.last_reading_j = processor.package_energy_joules(now);
    }

    /// Energy consumed since the previous `begin`/`read_interval`
    /// call, in joules.
    ///
    /// A negative delta means the underlying power integral went
    /// backwards — a model non-monotonicity bug. The read still
    /// clamps to zero (as hardware RAPL wraps do), but the event is
    /// counted in [`clamp_events`](Self::clamp_events) and fails the
    /// conservation audit instead of being silently hidden.
    pub fn read_interval(&mut self, processor: &mut Processor, now: SimTime) -> f64 {
        let current = processor.package_energy_joules(now);
        let delta = current - self.last_reading_j;
        let delta = if delta < 0.0 {
            self.clamp_events += 1;
            0.0
        } else {
            delta
        };
        self.last_reading_j = current;
        delta
    }

    /// Interval reads that observed a negative delta and clamped it
    /// (audited to be 0: the power integral must be monotone).
    pub fn clamp_events(&self) -> u64 {
        self.clamp_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::ProcessorProfile;
    use crate::topology::DvfsScope;

    #[test]
    fn interval_reads_are_deltas() {
        let mut p = Processor::new(ProcessorProfile::xeon_gold_6134(), DvfsScope::PerCore);
        let mut rapl = RaplCounter::new();
        rapl.begin(&mut p, SimTime::ZERO);
        let a = rapl.read_interval(&mut p, SimTime::from_secs(1));
        let b = rapl.read_interval(&mut p, SimTime::from_secs(2));
        assert!(a > 0.0);
        // Same workload (idle) → roughly the same energy per second.
        assert!((a - b).abs() < 1e-6 * a.max(1.0), "a={a} b={b}");
    }

    #[test]
    fn begin_discards_prior_energy() {
        let mut p = Processor::new(ProcessorProfile::xeon_gold_6134(), DvfsScope::PerCore);
        let mut rapl = RaplCounter::new();
        // Let 10 s of idle pass before anchoring.
        rapl.begin(&mut p, SimTime::from_secs(10));
        let e = rapl.read_interval(&mut p, SimTime::from_secs(11));
        // Only ~1 s of energy, not 11 s.
        let mut p2 = Processor::new(ProcessorProfile::xeon_gold_6134(), DvfsScope::PerCore);
        let one_sec = p2.package_energy_joules(SimTime::from_secs(1));
        assert!(
            (e - one_sec).abs() < 0.05 * one_sec,
            "e={e} one_sec={one_sec}"
        );
    }

    #[test]
    fn monotone_reads_never_clamp_and_regressions_are_counted() {
        let mut p = Processor::new(ProcessorProfile::xeon_gold_6134(), DvfsScope::PerCore);
        let mut rapl = RaplCounter::new();
        rapl.begin(&mut p, SimTime::ZERO);
        rapl.read_interval(&mut p, SimTime::from_secs(1));
        rapl.read_interval(&mut p, SimTime::from_secs(2));
        assert_eq!(rapl.clamp_events(), 0, "monotone integral never clamps");
        // Reading at an *earlier* time regresses the uncore integral
        // (a pure function of `now`), so the delta clamps — and the
        // clamp is counted instead of silently hidden.
        let d = rapl.read_interval(&mut p, SimTime::from_secs(1));
        assert_eq!(d, 0.0);
        assert_eq!(rapl.clamp_events(), 1);
        // A regressing reading forced by re-anchoring the baseline
        // above the current integral is counted the same way.
        rapl.read_interval(&mut p, SimTime::from_secs(2));
        rapl.last_reading_j += 1.0;
        let d = rapl.read_interval(&mut p, SimTime::from_secs(2));
        assert_eq!(d, 0.0);
        assert_eq!(rapl.clamp_events(), 2);
    }

    #[test]
    fn busy_core_raises_package_energy() {
        let mut idle = Processor::new(ProcessorProfile::xeon_gold_6134(), DvfsScope::PerCore);
        let mut busy = Processor::new(ProcessorProfile::xeon_gold_6134(), DvfsScope::PerCore);
        let profile = busy.profile().clone();
        busy.core_mut(crate::CoreId(0))
            .set_busy(true, SimTime::ZERO, &profile);
        let t = SimTime::from_secs(1);
        assert!(busy.package_energy_joules(t) > idle.package_energy_joules(t));
    }
}
