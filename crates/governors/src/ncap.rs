//! Software NCAP (Alian et al., HPCA'17) — the paper's
//! state-of-the-art comparison point (§6.3).
//!
//! NCAP monitors the network load at the NIC periodically. When the
//! observed request rate exceeds a threshold it maximizes the V/F
//! state of **all** cores (chip-wide); otherwise the CPU-utilization
//! governor drives. The original also disables the sleep states
//! during a burst; [`NcapSleepGate`] couples a sleep policy to the
//! governor's burst flag to reproduce that (NCAP vs NCAP-menu).
//!
//! Per §6.3 the software version has a slightly longer monitoring
//! period than the HW original; we default to 5 ms.

use crate::ondemand::Ondemand;
use crate::traits::{Action, PStateGovernor, SleepPolicy};
use cpusim::core::UtilSample;
use cpusim::pstate::PStateTable;
use cpusim::{CState, CoreId, PState};
use simcore::{SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// NCAP tunables.
#[derive(Debug, Clone, Copy)]
pub struct NcapConfig {
    /// Monitoring period (software version: a bit longer than HW).
    pub monitor_interval: SimDuration,
    /// Packets per second above which the chip is boosted.
    pub boost_threshold_pps: f64,
    /// Consecutive quiet windows before releasing the boost.
    pub release_windows: u32,
    /// Whether the boost also disables sleep states (original NCAP;
    /// `false` gives NCAP-menu).
    pub gate_sleep: bool,
}

impl NcapConfig {
    /// Defaults tuned, as §6.3 describes, "to satisfy the SLOs at a
    /// high load of each application".
    pub fn with_threshold(boost_threshold_pps: f64) -> Self {
        NcapConfig {
            monitor_interval: SimDuration::from_millis(5),
            boost_threshold_pps,
            release_windows: 2,
            gate_sleep: true,
        }
    }
}

/// The NCAP governor: NIC-load-triggered chip-wide boost over an
/// inner ondemand.
pub struct Ncap {
    config: NcapConfig,
    inner: Ondemand,
    boosted: bool,
    quiet_windows: u32,
    burst_flag: Arc<AtomicBool>,
}

impl Ncap {
    /// Creates NCAP over the given P-state table.
    pub fn new(table: PStateTable, cores: usize, config: NcapConfig) -> Self {
        Ncap {
            config,
            inner: Ondemand::new(table, cores),
            boosted: false,
            quiet_windows: 0,
            burst_flag: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Shared burst flag for [`NcapSleepGate`]. Governor and gate
    /// live in the same testbed and touch the flag from one thread at
    /// a time (a testbed changes threads only through a channel, which
    /// orders every access), so `Relaxed` suffices; the atomic only
    /// makes the pair `Send`.
    pub fn burst_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.burst_flag)
    }

    /// True while the chip-wide boost is held.
    pub fn is_boosted(&self) -> bool {
        self.boosted
    }
}

impl PStateGovernor for Ncap {
    fn name(&self) -> String {
        if self.config.gate_sleep {
            "NCAP".into()
        } else {
            "NCAP-menu".into()
        }
    }

    fn sampling_interval(&self) -> SimDuration {
        self.config.monitor_interval
    }

    fn on_nic_window(&mut self, rx_packets: u64, _now: SimTime, actions: &mut Vec<Action>) {
        let window_s = self.config.monitor_interval.as_secs_f64();
        let pps = rx_packets as f64 / window_s;
        if pps >= self.config.boost_threshold_pps {
            self.quiet_windows = 0;
            if !self.boosted {
                self.boosted = true;
                if self.config.gate_sleep {
                    self.burst_flag.store(true, Ordering::Relaxed);
                }
                actions.push(Action::SetAll(PState::P0));
            }
        } else if self.boosted {
            self.quiet_windows += 1;
            if self.quiet_windows >= self.config.release_windows {
                self.boosted = false;
                self.burst_flag.store(false, Ordering::Relaxed);
                // Control returns to the utilization governor at the
                // next sample.
            }
        }
    }

    fn on_core_sample(
        &mut self,
        core: CoreId,
        sample: UtilSample,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        if self.boosted {
            // Keep the inner governor's view current but override its
            // decision with the boost.
            self.inner.note_pstate(core, PState::P0);
            actions.push(Action::SetCore(core, PState::P0));
        } else {
            self.inner.on_core_sample(core, sample, now, actions);
        }
    }
}

/// Menu-like sleep policy gated by NCAP's burst flag: while the chip
/// is boosted, cores never sleep (original NCAP behaviour).
pub struct NcapSleepGate<P> {
    inner: P,
    burst_flag: Arc<AtomicBool>,
}

impl<P: SleepPolicy> NcapSleepGate<P> {
    /// Wraps `inner` with the gate driven by `burst_flag`.
    pub fn new(inner: P, burst_flag: Arc<AtomicBool>) -> Self {
        NcapSleepGate { inner, burst_flag }
    }
}

impl<P: SleepPolicy> SleepPolicy for NcapSleepGate<P> {
    fn name(&self) -> String {
        format!("{}+ncap-gate", self.inner.name())
    }

    fn on_idle(&mut self, core: CoreId, now: SimTime) -> CState {
        if self.burst_flag.load(Ordering::Relaxed) {
            // Record history in the inner policy but stay awake.
            let _ = self.inner.on_idle(core, now);
            self.inner.on_wake(core, now);
            CState::C0
        } else {
            self.inner.on_idle(core, now)
        }
    }

    fn on_tick(
        &mut self,
        core: CoreId,
        idle_elapsed: simcore::SimDuration,
        now: SimTime,
    ) -> Option<CState> {
        if self.burst_flag.load(Ordering::Relaxed) {
            None // sleep stays gated during the boost
        } else {
            self.inner.on_tick(core, idle_elapsed, now)
        }
    }

    fn on_wake(&mut self, core: CoreId, now: SimTime) {
        if !self.burst_flag.load(Ordering::Relaxed) {
            self.inner.on_wake(core, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sleep::MenuPolicy;
    use cpusim::ProcessorProfile;

    fn ncap() -> Ncap {
        Ncap::new(
            ProcessorProfile::xeon_gold_6134().pstates,
            8,
            NcapConfig::with_threshold(100_000.0),
        )
    }

    #[test]
    fn boosts_on_burst() {
        let mut g = ncap();
        let mut actions = Vec::new();
        // 100k pps threshold × 5 ms window → 500 packets triggers.
        g.on_nic_window(600, SimTime::ZERO, &mut actions);
        assert_eq!(actions, vec![Action::SetAll(PState::P0)]);
        assert!(g.is_boosted());
        assert!(g.burst_flag().load(Ordering::Relaxed), "sleep gate raised");
    }

    #[test]
    fn below_threshold_defers_to_ondemand() {
        let mut g = ncap();
        let mut actions = Vec::new();
        g.on_nic_window(10, SimTime::ZERO, &mut actions);
        assert!(actions.is_empty());
        g.on_core_sample(
            CoreId(0),
            UtilSample {
                busy_frac: 0.0,
                c0_frac: 0.0,
                window: SimDuration::from_millis(5),
            },
            SimTime::ZERO,
            &mut actions,
        );
        // ondemand decision for an idle core: slowest.
        let slowest = ProcessorProfile::xeon_gold_6134().pstates.slowest();
        assert_eq!(actions, vec![Action::SetCore(CoreId(0), slowest)]);
    }

    #[test]
    fn releases_after_quiet_windows() {
        let mut g = ncap();
        let mut actions = Vec::new();
        g.on_nic_window(600, SimTime::ZERO, &mut actions);
        assert!(g.is_boosted());
        actions.clear();
        g.on_nic_window(10, SimTime::from_millis(5), &mut actions);
        assert!(g.is_boosted(), "one quiet window is not enough");
        g.on_nic_window(10, SimTime::from_millis(10), &mut actions);
        assert!(!g.is_boosted());
        assert!(
            !g.burst_flag().load(Ordering::Relaxed),
            "sleep gate released"
        );
    }

    #[test]
    fn boost_holds_through_intermittent_traffic() {
        let mut g = ncap();
        let mut actions = Vec::new();
        g.on_nic_window(600, SimTime::ZERO, &mut actions);
        g.on_nic_window(10, SimTime::from_millis(5), &mut actions);
        g.on_nic_window(600, SimTime::from_millis(10), &mut actions);
        g.on_nic_window(10, SimTime::from_millis(15), &mut actions);
        assert!(g.is_boosted(), "quiet counter must reset on traffic");
    }

    #[test]
    fn ncap_menu_variant_leaves_sleep_alone() {
        let mut cfg = NcapConfig::with_threshold(100_000.0);
        cfg.gate_sleep = false;
        let mut g = Ncap::new(ProcessorProfile::xeon_gold_6134().pstates, 8, cfg);
        assert_eq!(g.name(), "NCAP-menu");
        let mut actions = Vec::new();
        g.on_nic_window(600, SimTime::ZERO, &mut actions);
        assert!(g.is_boosted());
        assert!(
            !g.burst_flag().load(Ordering::Relaxed),
            "NCAP-menu never gates sleep"
        );
    }

    #[test]
    fn sleep_gate_blocks_sleep_during_burst() {
        let flag = Arc::new(AtomicBool::new(false));
        let mut gate = NcapSleepGate::new(MenuPolicy::new(1), Arc::clone(&flag));
        // Train menu to deep sleep.
        for i in 0..8 {
            let t = SimTime::from_millis(10 * i);
            gate.on_idle(CoreId(0), t);
            gate.on_wake(CoreId(0), t + SimDuration::from_millis(5));
        }
        assert_eq!(gate.on_idle(CoreId(0), SimTime::from_secs(1)), CState::C6);
        gate.on_wake(CoreId(0), SimTime::from_secs(1));
        flag.store(true, Ordering::Relaxed);
        assert_eq!(gate.on_idle(CoreId(0), SimTime::from_secs(2)), CState::C0);
    }
}
