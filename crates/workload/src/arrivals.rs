//! Arrival processes.
//!
//! [`BurstyArrivals`] is the paper's workload shape: a periodic
//! envelope of *idle → linear ramp → peak* repeated every burst
//! period, sampled as a non-homogeneous Poisson process by thinning.
//! The ramp matters: NMAP's claim is that it reacts during the
//! *early part* of the burst, before the load reaches the peak
//! (§4.2), so the burst must actually have an early part.

use simcore::{RngStream, SimDuration, SimTime};

/// A point process producing request send times.
pub trait ArrivalProcess {
    /// The first arrival strictly after `t`, or `None` if the process
    /// has ended.
    fn next_after(&mut self, t: SimTime, rng: &mut RngStream) -> Option<SimTime>;

    /// Long-run average arrivals per second.
    fn average_rate(&self) -> f64;
}

/// Homogeneous Poisson arrivals at a constant rate.
#[derive(Debug, Clone, Copy)]
pub struct PoissonArrivals {
    rate_per_sec: f64,
}

impl PoissonArrivals {
    /// Creates a process with the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not positive.
    pub fn new(rate_per_sec: f64) -> Self {
        assert!(rate_per_sec > 0.0, "rate must be positive");
        PoissonArrivals { rate_per_sec }
    }
}

impl ArrivalProcess for PoissonArrivals {
    #[inline]
    fn next_after(&mut self, t: SimTime, rng: &mut RngStream) -> Option<SimTime> {
        let gap = rng.exponential(1.0 / self.rate_per_sec);
        Some(t + SimDuration::from_secs_f64(gap))
    }

    fn average_rate(&self) -> f64 {
        self.rate_per_sec
    }
}

/// Periodic bursts: each period of length `period` starts with a
/// burst of `duty · period`, inside which the rate ramps linearly
/// from 0 to `peak_rps` over the first `ramp_frac` of the burst and
/// then holds the peak; the rest of the period is idle.
///
/// # Examples
///
/// ```
/// use workload::{ArrivalProcess, BurstyArrivals};
/// use simcore::{RngStream, SimDuration, SimTime};
///
/// // 100 ms period, 40% burst duty, average 100k rps.
/// let mut arr = BurstyArrivals::from_average(100_000.0, SimDuration::from_millis(100), 0.4, 0.3);
/// assert!((arr.average_rate() - 100_000.0).abs() < 1.0);
/// let mut rng = RngStream::from_seed(1);
/// let t = arr.next_after(SimTime::ZERO, &mut rng).unwrap();
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BurstyArrivals {
    peak_rps: f64,
    period: SimDuration,
    duty: f64,
    ramp_frac: f64,
    /// The envelope below, derived once from the four parameters
    /// above: every thinning draw reads it.
    envelope: Envelope,
}

/// The per-draw invariants of a [`BurstyArrivals`] envelope, computed
/// with the same expressions the formula uses, so cached and
/// recomputed values are bit-identical.
#[derive(Debug, Clone, Copy)]
struct Envelope {
    /// `period · duty`.
    burst_len: SimDuration,
    /// `burst_len · ramp_frac`.
    ramp_len: SimDuration,
    /// `ramp_len` in seconds.
    ramp_secs: f64,
    /// Mean inter-arrival gap at the peak rate, `1 / peak_rps`.
    peak_gap_s: f64,
}

impl Envelope {
    fn new(peak_rps: f64, period: SimDuration, duty: f64, ramp_frac: f64) -> Self {
        let burst_len = period.mul_f64(duty);
        let ramp_len = burst_len.mul_f64(ramp_frac);
        Envelope {
            burst_len,
            ramp_len,
            ramp_secs: ramp_len.as_secs_f64(),
            peak_gap_s: 1.0 / peak_rps,
        }
    }
}

impl BurstyArrivals {
    /// Creates the process from its peak rate.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < duty ≤ 1`, `0 ≤ ramp_frac < 1`, the period
    /// is positive and `peak_rps` is positive.
    pub fn new(peak_rps: f64, period: SimDuration, duty: f64, ramp_frac: f64) -> Self {
        assert!(peak_rps > 0.0, "peak rate must be positive");
        assert!(duty > 0.0 && duty <= 1.0, "duty must be in (0, 1]");
        assert!(
            (0.0..1.0).contains(&ramp_frac),
            "ramp_frac must be in [0, 1)"
        );
        assert!(!period.is_zero(), "period must be positive");
        BurstyArrivals {
            peak_rps,
            period,
            duty,
            ramp_frac,
            envelope: Envelope::new(peak_rps, period, duty, ramp_frac),
        }
    }

    /// Creates the process from the desired *average* rate. With a
    /// linear ramp over `ramp_frac` of the burst, the average is
    /// `peak · duty · (1 - ramp_frac/2)`.
    pub fn from_average(avg_rps: f64, period: SimDuration, duty: f64, ramp_frac: f64) -> Self {
        let effective = duty * (1.0 - ramp_frac / 2.0);
        Self::new(avg_rps / effective, period, duty, ramp_frac)
    }

    /// The peak rate during the burst plateau.
    pub fn peak_rps(&self) -> f64 {
        self.peak_rps
    }

    /// The burst period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Burst length within each period.
    pub fn burst_len(&self) -> SimDuration {
        self.envelope.burst_len
    }

    /// Instantaneous rate at absolute time `t`.
    #[inline]
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.rate_at_pos(t.as_nanos() % self.period.as_nanos())
    }

    /// The rate `pos` nanoseconds into a period.
    #[inline]
    fn rate_at_pos(&self, pos: u64) -> f64 {
        let pos = SimDuration::from_nanos(pos);
        let env = &self.envelope;
        if pos >= env.burst_len {
            return 0.0;
        }
        if env.ramp_len.is_zero() || pos >= env.ramp_len {
            self.peak_rps
        } else {
            self.peak_rps * pos.as_secs_f64() / env.ramp_secs
        }
    }
}

/// Thinning rejections tolerated per `next_after` call before the
/// process declares itself exhausted. A sound spec accepts within a
/// handful of samples; only a degenerate window (e.g. a burst length
/// that rounds to zero nanoseconds, where the rate is zero everywhere)
/// can reject this many times in a row, and for those the alternative
/// is an unbounded spin.
const MAX_THINNING_REJECTIONS: u32 = 1_000_000;

impl ArrivalProcess for BurstyArrivals {
    #[inline]
    fn next_after(&mut self, t: SimTime, rng: &mut RngStream) -> Option<SimTime> {
        // Thinning against the peak rate, with an explicit skip over
        // idle stretches so gaps cost nothing. `pos` is `t`'s offset
        // into its period: one division per draw serves both the skip
        // and the rate.
        let period = self.period.as_nanos();
        let mut t = t;
        let mut pos = t.as_nanos() % period;
        for _ in 0..MAX_THINNING_REJECTIONS {
            if pos >= self.envelope.burst_len.as_nanos() {
                // Idle tail: jump to the next burst start.
                t = SimTime::from_nanos(t.as_nanos().saturating_sub(pos).saturating_add(period));
            }
            let gap = rng.exponential(self.envelope.peak_gap_s);
            t += SimDuration::from_secs_f64(gap.max(1e-9));
            pos = t.as_nanos() % period;
            let rate = self.rate_at_pos(pos);
            if rate > 0.0 && rng.uniform() < rate / self.peak_rps {
                return Some(t);
            }
        }
        None
    }

    fn average_rate(&self) -> f64 {
        self.peak_rps * self.duty * (1.0 - self.ramp_frac / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_converges() {
        let mut p = PoissonArrivals::new(10_000.0);
        let mut rng = RngStream::from_seed(3);
        let mut t = SimTime::ZERO;
        let mut n = 0u64;
        while t < SimTime::from_secs(10) {
            t = p.next_after(t, &mut rng).unwrap();
            n += 1;
        }
        let rate = n as f64 / 10.0;
        assert!((rate - 10_000.0).abs() < 300.0, "rate {rate}");
    }

    #[test]
    fn bursty_average_rate_converges() {
        let mut a = BurstyArrivals::from_average(50_000.0, SimDuration::from_millis(100), 0.4, 0.3);
        let mut rng = RngStream::from_seed(5);
        let mut t = SimTime::ZERO;
        let mut n = 0u64;
        while t < SimTime::from_secs(20) {
            t = a.next_after(t, &mut rng).unwrap();
            n += 1;
        }
        let rate = n as f64 / 20.0;
        assert!(
            (rate - 50_000.0).abs() < 0.03 * 50_000.0,
            "average rate {rate}"
        );
    }

    #[test]
    fn idle_gaps_are_empty() {
        let mut a = BurstyArrivals::from_average(50_000.0, SimDuration::from_millis(100), 0.4, 0.3);
        let mut rng = RngStream::from_seed(7);
        let mut t = SimTime::ZERO;
        let burst_len = a.burst_len();
        for _ in 0..50_000 {
            t = a.next_after(t, &mut rng).unwrap();
            let pos = SimDuration::from_nanos(t.as_nanos() % a.period().as_nanos());
            assert!(pos < burst_len, "arrival at {pos} outside the burst window");
        }
    }

    #[test]
    fn ramp_grows_towards_peak() {
        let a = BurstyArrivals::new(100_000.0, SimDuration::from_millis(100), 0.4, 0.5);
        // Ramp covers the first 20 ms of the 40 ms burst.
        assert_eq!(a.rate_at(SimTime::ZERO), 0.0);
        let early = a.rate_at(SimTime::from_millis(5));
        let later = a.rate_at(SimTime::from_millis(15));
        assert!(early < later && later < 100_000.0);
        assert_eq!(a.rate_at(SimTime::from_millis(25)), 100_000.0);
        assert_eq!(a.rate_at(SimTime::from_millis(60)), 0.0, "idle tail");
    }

    /// The envelope as written in the type's docs, recomputed on
    /// every call: what `BurstyArrivals` computed before it cached
    /// its per-draw invariants.
    struct Formula {
        peak_rps: f64,
        period: SimDuration,
        duty: f64,
        ramp_frac: f64,
    }

    impl Formula {
        fn rate_at(&self, t: SimTime) -> f64 {
            let pos = SimDuration::from_nanos(t.as_nanos() % self.period.as_nanos());
            let burst_len = self.period.mul_f64(self.duty);
            if pos >= burst_len {
                return 0.0;
            }
            let ramp_len = burst_len.mul_f64(self.ramp_frac);
            if ramp_len.is_zero() || pos >= ramp_len {
                self.peak_rps
            } else {
                self.peak_rps * pos.as_secs_f64() / ramp_len.as_secs_f64()
            }
        }

        fn next_after(&self, t: SimTime, rng: &mut RngStream) -> Option<SimTime> {
            let mut t = t;
            for _ in 0..MAX_THINNING_REJECTIONS {
                let pos = t.as_nanos() % self.period.as_nanos();
                if pos >= self.period.mul_f64(self.duty).as_nanos() {
                    t = SimTime::from_nanos(
                        t.as_nanos()
                            .saturating_sub(pos)
                            .saturating_add(self.period.as_nanos()),
                    );
                }
                let gap = rng.exponential(1.0 / self.peak_rps);
                t += SimDuration::from_secs_f64(gap.max(1e-9));
                let rate = self.rate_at(t);
                if rate > 0.0 && rng.uniform() < rate / self.peak_rps {
                    return Some(t);
                }
            }
            None
        }
    }

    #[test]
    fn cached_envelope_matches_the_formula_bit_for_bit() {
        // Awkward factors on purpose: products that round, a ramp that
        // does not divide the burst, a period that is not a round
        // number of nanoseconds per second.
        let shapes = [
            (750_000.0, SimDuration::from_millis(100), 0.75, 0.3),
            (123_457.0, SimDuration::from_nanos(33_333_337), 0.41, 0.77),
            (40_000.0, SimDuration::from_millis(100), 0.4, 0.0),
            (9_999.5, SimDuration::from_micros(997), 1.0, 0.5),
        ];
        for (i, &(avg, period, duty, ramp)) in shapes.iter().enumerate() {
            let mut cached = BurstyArrivals::from_average(avg, period, duty, ramp);
            let formula = Formula {
                peak_rps: cached.peak_rps(),
                period,
                duty,
                ramp_frac: ramp,
            };
            // Several periods of the envelope, on a grid that hits the
            // ramp, the plateau, the idle tail and both boundaries.
            let horizon = period.as_nanos() * 4;
            let step = (period.as_nanos() / 997).max(1);
            let mut at = 0;
            while at <= horizon {
                let t = SimTime::from_nanos(at);
                assert_eq!(
                    cached.rate_at(t).to_bits(),
                    formula.rate_at(t).to_bits(),
                    "shape {i}: rate_at({at} ns)"
                );
                at += step;
            }
            // The same draws give the same arrivals over several
            // periods, consuming the stream in lock-step.
            let mut a = RngStream::from_seed(17 + i as u64);
            let mut b = a.clone();
            let mut t = SimTime::ZERO;
            while t.as_nanos() < horizon {
                let next = cached.next_after(t, &mut a);
                assert_eq!(next, formula.next_after(t, &mut b), "shape {i} after {t}");
                assert_eq!(
                    a.clone().next_u64(),
                    b.clone().next_u64(),
                    "shape {i} at {t}"
                );
                t = next.expect("a sound spec never runs dry");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "shape {i}: streams diverged");
            // Draws from arbitrary offsets: both edges of the burst
            // window and of the period, in the idle tail, far out.
            let burst = cached.burst_len().as_nanos();
            let p = period.as_nanos();
            for base in [0, p, 1_000 * p] {
                for off in [0, 1, burst - 1, burst, burst + 1, (burst + p) / 2, p - 1] {
                    let t = SimTime::from_nanos(base + off);
                    assert_eq!(
                        cached.next_after(t, &mut a),
                        formula.next_after(t, &mut b),
                        "shape {i} from {t}"
                    );
                    assert_eq!(
                        a.clone().next_u64(),
                        b.clone().next_u64(),
                        "shape {i} from {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn periodic_envelope_repeats() {
        let a = BurstyArrivals::new(100_000.0, SimDuration::from_millis(100), 0.4, 0.25);
        for ms in [3u64, 17, 33, 77] {
            assert_eq!(
                a.rate_at(SimTime::from_millis(ms)),
                a.rate_at(SimTime::from_millis(ms + 300)),
                "rate at {ms}ms differs a few periods later"
            );
        }
    }

    #[test]
    fn from_average_inverts_peak_formula() {
        let a = BurstyArrivals::from_average(80_000.0, SimDuration::from_millis(100), 0.4, 0.3);
        assert!((a.average_rate() - 80_000.0).abs() < 1e-6);
        // peak = avg / (duty·(1 - ramp/2)) = 80k / (0.4·0.85)
        assert!((a.peak_rps() - 80_000.0 / 0.34).abs() < 1e-6);
    }

    #[test]
    fn empty_burst_window_terminates_instead_of_spinning() {
        // A duty so small the burst window rounds to zero nanoseconds:
        // the rate is zero everywhere, so thinning can never accept.
        // `LoadSpec::validate` rejects such specs, but the raw process
        // must still bail out rather than loop forever.
        let mut a = BurstyArrivals::new(1.0, SimDuration::MAX, 1e-300, 0.0);
        assert!(a.burst_len().is_zero());
        let mut rng = RngStream::from_seed(23);
        assert_eq!(a.next_after(SimTime::ZERO, &mut rng), None);
    }

    #[test]
    fn arrivals_strictly_advance() {
        let mut a =
            BurstyArrivals::from_average(500_000.0, SimDuration::from_millis(100), 0.75, 0.3);
        let mut rng = RngStream::from_seed(11);
        let mut t = SimTime::ZERO;
        for _ in 0..10_000 {
            let next = a.next_after(t, &mut rng).unwrap();
            assert!(next > t);
            t = next;
        }
    }
}
