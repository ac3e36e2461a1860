//! The `ondemand` governor (Pallipadi & Starikovskiy, OLS'06).
//!
//! Samples CPU utilization every `sampling_interval` (10 ms in the
//! paper's setup) and maps it to a frequency:
//!
//! * utilization at or above `up_threshold` (95 %, the kernel's
//!   micro-accounting default) → **escalate**: step a quarter of the
//!   P-state range towards P0 per sample;
//! * otherwise → `f_next = f_min + load · (f_max − f_min)` (the
//!   od_update range mapping), which also decays idle cores straight
//!   to the bottom.
//!
//! The staircase escalation reproduces the governor dynamics the
//! paper *measures* (Fig 2): "the ondemand governor mostly raises the
//! V/F state in the middle or later part of the packet bursts" and
//! "does not immediately set the processor's P state to P0, even when
//! it detects an Rx burst" — the behaviour NMAP's early-boost exists
//! to fix. Together with the 10 ms cadence (orders of magnitude
//! slower than a burst's rise, §3.2) this is what produces the
//! paper's SLO violations at medium/high load.

use crate::traits::{Action, PStateGovernor};
use cpusim::core::UtilSample;
use cpusim::pstate::PStateTable;
use cpusim::{CoreId, PState};
use simcore::{SimDuration, SimTime};

/// Per-core utilization-driven DVFS.
///
/// # Examples
///
/// ```
/// use governors::{Ondemand, PStateGovernor, Action};
/// use cpusim::{CoreId, PState, ProcessorProfile};
/// use cpusim::core::UtilSample;
/// use simcore::{SimDuration, SimTime};
///
/// let table = ProcessorProfile::xeon_gold_6134().pstates;
/// let mut g = Ondemand::new(table, 8);
/// // A saturated core climbs towards P0 one staircase step per
/// // 10 ms sample (Fig 2's measured behaviour), reaching it in four.
/// let hot = UtilSample { busy_frac: 0.99, c0_frac: 1.0, window: SimDuration::from_millis(10) };
/// let mut last = PState::new(15);
/// for i in 0..4 {
///     let mut actions = Vec::new();
///     g.on_core_sample(CoreId(0), hot, SimTime::from_millis(10 * (i + 1)), &mut actions);
///     let Action::SetCore(_, p) = actions[0] else { unreachable!() };
///     assert!(p.is_faster_than(last));
///     last = p;
/// }
/// assert_eq!(last, PState::P0);
/// ```
#[derive(Debug, Clone)]
pub struct Ondemand {
    table: PStateTable,
    /// Current frequency believed per core (kept for introspection
    /// and NMAP's override bookkeeping).
    current: Vec<PState>,
    up_threshold: f64,
    interval: SimDuration,
}

impl Ondemand {
    /// Creates the governor with Linux micro-accounting defaults
    /// (95 % up-threshold, 10 ms sampling).
    pub fn new(table: PStateTable, cores: usize) -> Self {
        let slowest = table.slowest();
        Ondemand {
            table,
            current: vec![slowest; cores],
            up_threshold: 0.95,
            interval: SimDuration::from_millis(10),
        }
    }

    /// The ondemand decision for a utilization fraction, from the
    /// core's current state. Exposed for NMAP's CPU-utilization
    /// fallback mode.
    pub fn decide(&self, current: PState, util: f64) -> PState {
        let desired = if util >= self.up_threshold {
            PState::P0
        } else {
            // od_update's range mapping: f_min + load · (f_max − f_min).
            let f_min = self.table.frequency(self.table.slowest()) as f64;
            let f_max = self.table.frequency(PState::P0) as f64;
            let target = f_min + util.clamp(0.0, 1.0) * (f_max - f_min);
            self.table.state_for_max_frequency(target.ceil() as u64)
        };
        if desired.is_faster_than(current) {
            // Upward moves climb at most a quarter of the range per
            // sample — the measured staircase of Fig 2. Downward moves
            // are immediate.
            let step = ((self.table.len() - 1) as u8).div_ceil(4).max(1);
            let clamped = PState::new(current.index().saturating_sub(step));
            if desired.is_faster_than(clamped) {
                return clamped;
            }
        }
        desired
    }

    /// Records an externally applied P-state (used when NMAP
    /// temporarily overrides the governor, Algorithm 2 line 4).
    pub fn note_pstate(&mut self, core: CoreId, p: PState) {
        if core.0 < self.current.len() {
            self.current[core.0] = p;
        }
    }
}

impl PStateGovernor for Ondemand {
    fn name(&self) -> String {
        "ondemand".into()
    }

    fn sampling_interval(&self) -> SimDuration {
        self.interval
    }

    fn on_core_sample(
        &mut self,
        core: CoreId,
        sample: UtilSample,
        _now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let next = self.decide(self.current[core.0], sample.busy_frac);
        self.current[core.0] = next;
        actions.push(Action::SetCore(core, next));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpusim::ProcessorProfile;

    fn gov() -> Ondemand {
        Ondemand::new(ProcessorProfile::xeon_gold_6134().pstates, 8)
    }

    fn sample(busy: f64) -> UtilSample {
        UtilSample {
            busy_frac: busy,
            c0_frac: 1.0,
            window: SimDuration::from_millis(10),
        }
    }

    #[test]
    fn saturation_climbs_the_staircase_to_p0() {
        // Fig 2's measured behaviour: the governor raises V/F over
        // several samples, reaching P0 mid-burst, not immediately.
        let mut g = gov();
        let mut states = Vec::new();
        for i in 0..4 {
            let mut actions = Vec::new();
            g.on_core_sample(
                CoreId(0),
                sample(0.97),
                SimTime::from_millis(10 * i),
                &mut actions,
            );
            let Action::SetCore(_, p) = actions[0] else {
                panic!()
            };
            states.push(p);
        }
        assert_ne!(states[0], PState::P0, "no immediate jump to P0");
        for w in states.windows(2) {
            assert!(w[1].is_faster_than(w[0]), "each sample climbs");
        }
        assert_eq!(
            *states.last().unwrap(),
            PState::P0,
            "P0 reached in 4 samples"
        );
    }

    #[test]
    fn busy_but_unsaturated_stays_below_p0() {
        // §4.2's observation: ondemand usually lands below P0.
        let g = gov();
        let p = g.decide(PState::P0, 0.90);
        assert_ne!(p, PState::P0, "90% load must not reach P0");
        // 1.2 + 0.9·2.0 = 3.0 GHz → one-ish state below P0.
        assert!(p.index() <= 2, "got {p}");
    }

    #[test]
    fn idle_core_sinks_to_slowest() {
        let mut g = gov();
        let slowest = g.table.slowest();
        let mut actions = Vec::new();
        g.on_core_sample(CoreId(0), sample(0.0), SimTime::ZERO, &mut actions);
        assert_eq!(actions, vec![Action::SetCore(CoreId(0), slowest)]);
    }

    #[test]
    fn moderate_load_converges_to_range_mapped_state() {
        let mut g = gov();
        // Sustained 50% load: the staircase converges onto the range
        // mapping's 1.2 + 0.5·2.0 = 2.2 GHz target.
        let mut last = g.table.slowest();
        for i in 0..4 {
            let mut actions = Vec::new();
            g.on_core_sample(
                CoreId(0),
                sample(0.5),
                SimTime::from_millis(10 * i),
                &mut actions,
            );
            if let Some(Action::SetCore(_, p)) = actions.first() {
                last = *p;
            }
        }
        assert!(
            last != PState::P0 && last != g.table.slowest(),
            "got {last}"
        );
        assert!(g.table.frequency(last) <= 2_200_000_000);
        assert!(g.table.frequency(last) >= 1_900_000_000);
    }

    #[test]
    fn low_load_drops_to_slowest_immediately() {
        let mut g = gov();
        let mut actions = Vec::new();
        g.on_core_sample(CoreId(0), sample(0.97), SimTime::ZERO, &mut actions);
        actions.clear();
        // Range mapping: 20% load → 1.6 GHz target, near the bottom.
        g.on_core_sample(
            CoreId(0),
            sample(0.02),
            SimTime::from_millis(10),
            &mut actions,
        );
        let Action::SetCore(_, p) = actions[0] else {
            panic!()
        };
        assert_eq!(p, g.table.slowest());
    }

    #[test]
    fn decide_is_monotone_in_utilization() {
        let g = gov();
        let mut prev = g.table.slowest();
        for i in 0..=10 {
            let util = i as f64 / 10.0;
            let p = g.decide(PState::P0, util);
            assert!(
                p == prev || p.is_faster_than(prev),
                "utilization up must not slow down (util {util})"
            );
            prev = p;
        }
        assert_eq!(g.decide(PState::P0, 1.0), PState::P0);
    }

    #[test]
    fn cores_are_independent() {
        let mut g = gov();
        let mut actions = Vec::new();
        g.on_core_sample(CoreId(0), sample(0.99), SimTime::ZERO, &mut actions);
        g.on_core_sample(CoreId(1), sample(0.0), SimTime::ZERO, &mut actions);
        let Action::SetCore(c0, p0) = actions[0] else {
            panic!()
        };
        assert_eq!(c0, CoreId(0));
        assert!(p0.is_faster_than(g.table.slowest()), "core 0 climbed");
        assert_eq!(actions[1], Action::SetCore(CoreId(1), g.table.slowest()));
    }
}
