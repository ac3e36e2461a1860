//! The full NMAP governor (§4.2): Mode Transition Monitor + Decision
//! Engine per core, with ondemand as the CPU Utilization based Mode.

use crate::config::NmapConfig;
use crate::engine::{DecisionEngine, PowerMode};
use crate::monitor::ModeTransitionMonitor;
use cpusim::core::UtilSample;
use cpusim::pstate::PStateTable;
use cpusim::{CoreId, PState};
use governors::{Action, DegradationStats, Ondemand, PStateGovernor};
use napisim::PollClass;
use simcore::{EventLog, SimDuration, SimTime};

/// A power-mode boundary crossed by one core's decision engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NiMark {
    /// The monitor's NI notification flipped the core to
    /// Network-Intensive mode (V/F maximized).
    Notify,
    /// The timer saw the burst subside and fell back to the
    /// CPU-utilization mode.
    Fallback,
    /// The governor stopped trusting its notification path (stale or
    /// absent signals) and forced the core onto the ondemand path.
    Degraded,
    /// A degraded core saw enough consecutive healthy windows and
    /// re-armed normal NMAP operation.
    Recovered,
}

impl NiMark {
    /// Static display label, for trace events that carry
    /// `&'static str` names.
    pub const fn label(self) -> &'static str {
        match self {
            NiMark::Notify => "ni-notify",
            NiMark::Fallback => "ni-fallback",
            NiMark::Degraded => "ni-degraded",
            NiMark::Recovered => "ni-recovered",
        }
    }
}

/// Saturation-gauge floor (per mille of the admission capacity) above
/// which the governor holds the core at maximum V/F instead of
/// letting the utilization path downclock it. A server that is
/// actively shedding must drain first and save power second:
/// downclocking a saturated core deepens the backlog, turns sheds
/// into timeouts, and feeds the retry storm that overload control
/// exists to break. Shed-before-downclock, never the reverse.
pub const SHED_HOLD_PERMILLE: i64 = 900;

/// NMAP: per-core, NAPI-mode-aware DVFS.
///
/// Wiring (Fig 6): every NAPI poll batch feeds the per-core monitor;
/// a Network-Intensive notification immediately maximizes that core's
/// V/F; the periodic timer (10 ms) compares the window's
/// polling-to-interrupt ratio against `CU_TH` and falls back to the
/// ondemand decision when the burst subsides.
pub struct NmapGovernor {
    config: NmapConfig,
    monitors: Vec<ModeTransitionMonitor>,
    engines: Vec<DecisionEngine>,
    fallback: Ondemand,
    /// Last utilization sample per core, for the fallback enforcement
    /// (Algorithm 2 line 10) at the moment of mode exit.
    last_busy: Vec<f64>,
    /// Mode-boundary crossings `(core, mark)`, for trace replay.
    ni_log: EventLog<(CoreId, NiMark)>,
    /// When each core last received any poll-batch signal.
    last_signal: Vec<Option<SimTime>>,
    /// Consecutive NI-mode windows whose busy fraction stayed under
    /// the degradation floor (stale-signal suspicion).
    suspect: Vec<u32>,
    /// Consecutive healthy windows observed while degraded.
    healthy: Vec<u32>,
    /// Cores currently in the degraded (notification-distrusting)
    /// state: NI notifications are ignored and ondemand decides.
    degraded: Vec<bool>,
    /// Total degradations across cores.
    degradations: u64,
    /// Total recoveries across cores.
    recoveries: u64,
    /// Cores whose telemetry saturation gauge last read at or above
    /// [`SHED_HOLD_PERMILLE`]: downclock decisions are overridden to
    /// P0 until the shed pressure clears.
    shed_hold: Vec<bool>,
    /// Downclock decisions overridden to P0 by the shed-hold.
    shed_holds: u64,
}

impl NmapGovernor {
    /// Creates NMAP for `cores` cores with profiled thresholds.
    pub fn new(table: PStateTable, cores: usize, config: NmapConfig) -> Self {
        NmapGovernor {
            monitors: (0..cores)
                .map(|_| ModeTransitionMonitor::new(config.ni_threshold))
                .collect(),
            engines: (0..cores)
                .map(|_| DecisionEngine::new(config.cu_threshold))
                .collect(),
            fallback: Ondemand::new(table, cores),
            last_busy: vec![0.0; cores],
            ni_log: EventLog::new(),
            last_signal: vec![None; cores],
            suspect: vec![0; cores],
            healthy: vec![0; cores],
            degraded: vec![false; cores],
            degradations: 0,
            recoveries: 0,
            shed_hold: vec![false; cores],
            shed_holds: 0,
            config,
        }
    }

    /// True if the shed-hold is pinning `core` at maximum V/F because
    /// the server tier reported active admission shedding there.
    pub fn shed_held(&self, core: CoreId) -> bool {
        self.shed_hold[core.0]
    }

    /// Total downclock decisions overridden to P0 by the shed-hold.
    pub fn shed_holds(&self) -> u64 {
        self.shed_holds
    }

    /// Enforces the utilization-based decision for `core` — unless
    /// the shed-hold is active, in which case the decision is forced
    /// to P0. The app tier shedding load is a stronger signal than a
    /// momentary utilization dip: the backlog must drain at full
    /// clock before the governor is allowed to save power.
    fn enforce_fallback(
        &mut self,
        core: CoreId,
        sample: UtilSample,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        if self.shed_hold[core.0] {
            self.shed_holds += 1;
            self.fallback.note_pstate(core, PState::P0);
            actions.push(Action::SetCore(core, PState::P0));
        } else {
            self.fallback.on_core_sample(core, sample, now, actions);
        }
    }

    /// True if `core` is currently degraded (ignoring notifications).
    pub fn is_degraded(&self, core: CoreId) -> bool {
        self.degraded[core.0]
    }

    /// True if a poll-batch signal reached `core` within the
    /// degradation signal timeout of `now`. The effective timeout is
    /// floored at two timer intervals so coarse-timer configurations
    /// (the interval ablation) get at least one full window of grace
    /// before the channel is declared dead.
    fn signal_fresh(&self, core: CoreId, now: SimTime) -> bool {
        let timeout = self
            .config
            .degradation
            .signal_timeout
            .max(self.config.timer_interval * 2);
        match self.last_signal[core.0] {
            Some(t) => now.saturating_since(t) <= timeout,
            None => false,
        }
    }

    /// Forces `core` out of Network-Intensive mode onto the ondemand
    /// path and starts distrusting notifications until recovery.
    fn degrade(&mut self, core: CoreId, now: SimTime) {
        self.degraded[core.0] = true;
        self.suspect[core.0] = 0;
        self.healthy[core.0] = 0;
        self.degradations += 1;
        self.engines[core.0].force_fallback();
        self.ni_log.push(now, (core, NiMark::Degraded));
    }

    /// The mode of one core (experiment introspection).
    pub fn mode(&self, core: CoreId) -> PowerMode {
        self.engines[core.0].mode()
    }

    /// Total Network-Intensive notifications across cores.
    pub fn total_notifications(&self) -> u64 {
        self.monitors.iter().map(|m| m.total_notifications()).sum()
    }

    /// Log of power-mode boundary crossings `(time, (core, mark))`.
    pub fn ni_log(&self) -> &EventLog<(CoreId, NiMark)> {
        &self.ni_log
    }

    /// The configuration in effect.
    pub fn config(&self) -> &NmapConfig {
        &self.config
    }

    /// Replaces both thresholds at runtime (online adaptation; the
    /// timer interval is unchanged).
    pub fn set_thresholds(&mut self, ni_threshold: u64, cu_threshold: f64) {
        self.config.ni_threshold = ni_threshold;
        self.config.cu_threshold = cu_threshold;
        for m in &mut self.monitors {
            m.set_ni_threshold(ni_threshold);
        }
        for e in &mut self.engines {
            e.set_cu_threshold(cu_threshold);
        }
    }
}

impl PStateGovernor for NmapGovernor {
    fn name(&self) -> String {
        "NMAP".into()
    }

    fn sampling_interval(&self) -> SimDuration {
        self.config.timer_interval
    }

    fn on_poll_batch(
        &mut self,
        core: CoreId,
        class: PollClass,
        rx_packets: u64,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        self.last_signal[core.0] = Some(now);
        let notify = self.monitors[core.0].record_batch(class, rx_packets);
        // A degraded core keeps counting but ignores notifications:
        // the signal path is suspect, so ondemand stays in charge
        // until the hysteretic recovery re-arms normal operation.
        if self.degraded[core.0] {
            return;
        }
        if notify && self.engines[core.0].on_notification() {
            // Algorithm 2 lines 3-5: disable ondemand (implicit — we
            // stop consulting it), maximize V/F immediately.
            self.fallback.note_pstate(core, PState::P0);
            self.ni_log.push(now, (core, NiMark::Notify));
            actions.push(Action::SetCore(core, PState::P0));
        }
    }

    fn on_telemetry(
        &mut self,
        tap: &dyn simcore::TelemetryTap,
        _now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        // Shed-before-downclock: the per-core saturation gauge is the
        // app tier saying "I am refusing new work". While it reads at
        // or above the hold floor, downclock decisions are overridden
        // (see `enforce_fallback`), and crossing into the hold raises
        // the core to P0 immediately rather than waiting for the next
        // sampling tick. Gauges below the floor — including the
        // always-zero reading of non-overloaded runs — leave behavior
        // untouched.
        for core in 0..self.shed_hold.len().min(tap.tap_cores()) {
            let sat = tap.latest(core, simcore::Gauge::Saturation).unwrap_or(0);
            let hold = sat >= SHED_HOLD_PERMILLE;
            if hold && !self.shed_hold[core] {
                self.shed_holds += 1;
                self.fallback.note_pstate(CoreId(core), PState::P0);
                actions.push(Action::SetCore(CoreId(core), PState::P0));
            }
            self.shed_hold[core] = hold;
        }
    }

    fn on_core_sample(
        &mut self,
        core: CoreId,
        sample: UtilSample,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        self.last_busy[core.0] = sample.busy_frac;
        let ratio = self.monitors[core.0].window_ratio();
        let _ = self.monitors[core.0].take_window();
        let deg = self.config.degradation;
        if self.degraded[core.0] {
            // Recovery is hysteretic: only consecutive windows with
            // fresh signals and real work re-arm normal operation.
            let healthy_window = self.signal_fresh(core, now) && sample.busy_frac >= deg.busy_floor;
            if healthy_window {
                self.healthy[core.0] += 1;
                if self.healthy[core.0] >= deg.recovery_windows {
                    self.degraded[core.0] = false;
                    self.healthy[core.0] = 0;
                    self.recoveries += 1;
                    self.ni_log.push(now, (core, NiMark::Recovered));
                }
            } else {
                self.healthy[core.0] = 0;
            }
            self.enforce_fallback(core, sample, now, actions);
            return;
        }
        match self.engines[core.0].mode() {
            PowerMode::NetworkIntensive => {
                // Degradation triggers come first so a distrusted
                // signal path wins over the normal ratio decision:
                // (1) no signal at all within the timeout — the
                // notification channel is dead, fall back now
                // (bounded-time guarantee);
                // (2) signals keep claiming a burst (ratio holds)
                // while the core does no measurable work for several
                // consecutive windows — stale replays, stop trusting
                // them.
                if !self.signal_fresh(core, now) {
                    self.degrade(core, now);
                    self.enforce_fallback(core, sample, now, actions);
                    return;
                }
                if sample.busy_frac < deg.busy_floor {
                    self.suspect[core.0] += 1;
                } else {
                    self.suspect[core.0] = 0;
                }
                if self.suspect[core.0] >= deg.stale_windows {
                    self.degrade(core, now);
                    self.enforce_fallback(core, sample, now, actions);
                    return;
                }
                if self.engines[core.0].on_timer(ratio) {
                    // Fell back: enforce the utilization-based state
                    // and re-enable ondemand (lines 9-11).
                    self.suspect[core.0] = 0;
                    self.ni_log.push(now, (core, NiMark::Fallback));
                    self.enforce_fallback(core, sample, now, actions);
                } else {
                    // Still intense: keep the core maximized.
                    actions.push(Action::SetCore(core, PState::P0));
                }
            }
            PowerMode::CpuUtilization => {
                self.suspect[core.0] = 0;
                self.enforce_fallback(core, sample, now, actions);
            }
        }
    }

    fn trace_into(&self, buf: &mut simcore::TraceBuffer) {
        if !buf.is_recording() {
            return;
        }
        for &(t, (core, mark)) in self.ni_log.entries() {
            buf.instant(
                t,
                simcore::TraceCategory::Governor,
                core.0 as u32,
                mark.label(),
                0,
            );
        }
    }

    fn record_metrics(&self, m: &mut simcore::MetricsRegistry) {
        m.set_counter("nmap.ni_notifications", self.total_notifications());
        m.set_counter(
            "nmap.ni_fallbacks",
            self.ni_log
                .iter()
                .filter(|&&(_, (_, mark))| mark == NiMark::Fallback)
                .count() as u64,
        );
        m.set_counter("nmap.degradations", self.degradations);
        m.set_counter("nmap.recoveries", self.recoveries);
        m.set_counter("nmap.shed_holds", self.shed_holds);
    }

    fn degradation(&self) -> DegradationStats {
        DegradationStats {
            degradations: self.degradations,
            recoveries: self.recoveries,
            degraded_cores: self.degraded.iter().filter(|&&d| d).count() as u64,
        }
    }

    fn core_degraded(&self, core: CoreId) -> bool {
        self.is_degraded(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpusim::ProcessorProfile;

    fn nmap() -> NmapGovernor {
        let p = ProcessorProfile::xeon_gold_6134();
        NmapGovernor::new(p.pstates, 8, NmapConfig::new(100, 1.5))
    }

    fn sample(busy: f64) -> UtilSample {
        UtilSample {
            busy_frac: busy,
            c0_frac: busy,
            window: SimDuration::from_millis(10),
        }
    }

    #[test]
    fn burst_maximizes_vf_immediately() {
        let mut g = nmap();
        let mut actions = Vec::new();
        g.on_poll_batch(
            CoreId(0),
            PollClass::Interrupt,
            64,
            SimTime::ZERO,
            &mut actions,
        );
        assert!(actions.is_empty());
        g.on_poll_batch(
            CoreId(0),
            PollClass::Polling,
            64,
            SimTime::from_micros(50),
            &mut actions,
        );
        assert!(actions.is_empty(), "64 ≤ NI_TH=100");
        g.on_poll_batch(
            CoreId(0),
            PollClass::Polling,
            64,
            SimTime::from_micros(100),
            &mut actions,
        );
        assert_eq!(
            actions,
            vec![Action::SetCore(CoreId(0), PState::P0)],
            "128 > NI_TH → immediate P0"
        );
        assert_eq!(g.mode(CoreId(0)), PowerMode::NetworkIntensive);
    }

    #[test]
    fn stays_maximized_while_ratio_high() {
        let mut g = nmap();
        let mut actions = Vec::new();
        g.on_poll_batch(
            CoreId(0),
            PollClass::Interrupt,
            10,
            SimTime::ZERO,
            &mut actions,
        );
        g.on_poll_batch(
            CoreId(0),
            PollClass::Polling,
            200,
            SimTime::from_micros(50),
            &mut actions,
        );
        actions.clear();
        // Timer: ratio 200/10 = 20 ≥ CU_TH → hold NI mode, re-assert P0.
        g.on_core_sample(
            CoreId(0),
            sample(0.5),
            SimTime::from_millis(10),
            &mut actions,
        );
        assert_eq!(actions, vec![Action::SetCore(CoreId(0), PState::P0)]);
        assert_eq!(g.mode(CoreId(0)), PowerMode::NetworkIntensive);
    }

    #[test]
    fn falls_back_when_burst_subsides() {
        let mut g = nmap();
        let mut actions = Vec::new();
        // Enter NI mode.
        g.on_poll_batch(
            CoreId(0),
            PollClass::Interrupt,
            10,
            SimTime::ZERO,
            &mut actions,
        );
        g.on_poll_batch(
            CoreId(0),
            PollClass::Polling,
            200,
            SimTime::from_micros(50),
            &mut actions,
        );
        g.on_core_sample(
            CoreId(0),
            sample(0.9),
            SimTime::from_millis(10),
            &mut actions,
        );
        actions.clear();
        // Next window: mostly interrupt-mode traffic → ratio under CU_TH.
        g.on_poll_batch(
            CoreId(0),
            PollClass::Interrupt,
            100,
            SimTime::from_millis(12),
            &mut actions,
        );
        g.on_poll_batch(
            CoreId(0),
            PollClass::Polling,
            20,
            SimTime::from_millis(13),
            &mut actions,
        );
        actions.clear();
        g.on_core_sample(
            CoreId(0),
            sample(0.1),
            SimTime::from_millis(20),
            &mut actions,
        );
        assert_eq!(g.mode(CoreId(0)), PowerMode::CpuUtilization);
        // The fallback enforcement is an ondemand decision, not P0.
        assert_eq!(actions.len(), 1);
        let Action::SetCore(c, p) = actions[0] else {
            panic!()
        };
        assert_eq!(c, CoreId(0));
        assert_ne!(p, PState::P0, "low load must not stay at P0");
    }

    #[test]
    fn cpu_mode_behaves_like_ondemand() {
        let mut g = nmap();
        // Saturated samples climb ondemand's staircase, not an
        // immediate P0 jump — only the NI path is immediate.
        let mut last = PState::new(15);
        for i in 0..4 {
            let mut actions = Vec::new();
            g.on_core_sample(
                CoreId(2),
                sample(0.97),
                SimTime::from_millis(10 * (i + 1)),
                &mut actions,
            );
            let Action::SetCore(_, p) = actions[0] else {
                panic!()
            };
            assert!(p.is_faster_than(last));
            last = p;
        }
        assert_eq!(last, PState::P0);
        let mut actions = Vec::new();
        g.on_core_sample(
            CoreId(3),
            sample(0.0),
            SimTime::from_millis(10),
            &mut actions,
        );
        let Action::SetCore(_, p) = actions[0] else {
            panic!()
        };
        assert_ne!(p, PState::P0);
    }

    #[test]
    fn cores_transition_independently() {
        let mut g = nmap();
        let mut actions = Vec::new();
        g.on_poll_batch(
            CoreId(1),
            PollClass::Interrupt,
            10,
            SimTime::ZERO,
            &mut actions,
        );
        g.on_poll_batch(
            CoreId(1),
            PollClass::Polling,
            500,
            SimTime::from_micros(1),
            &mut actions,
        );
        assert_eq!(g.mode(CoreId(1)), PowerMode::NetworkIntensive);
        assert_eq!(g.mode(CoreId(0)), PowerMode::CpuUtilization);
        assert_eq!(g.mode(CoreId(7)), PowerMode::CpuUtilization);
    }

    #[test]
    fn ni_log_marks_mode_boundaries() {
        let mut g = nmap();
        let mut actions = Vec::new();
        // Enter NI mode, then let the burst die out.
        g.on_poll_batch(
            CoreId(0),
            PollClass::Interrupt,
            10,
            SimTime::ZERO,
            &mut actions,
        );
        g.on_poll_batch(
            CoreId(0),
            PollClass::Polling,
            500,
            SimTime::from_micros(1),
            &mut actions,
        );
        g.on_core_sample(
            CoreId(0),
            sample(0.9),
            SimTime::from_millis(10),
            &mut actions,
        );
        g.on_core_sample(
            CoreId(0),
            sample(0.0),
            SimTime::from_millis(20),
            &mut actions,
        );
        let marks: Vec<(CoreId, NiMark)> = g.ni_log().iter().map(|&(_, m)| m).collect();
        assert_eq!(
            marks,
            vec![(CoreId(0), NiMark::Notify), (CoreId(0), NiMark::Fallback)]
        );
    }

    /// Drives `core` into Network-Intensive mode at `t`.
    fn enter_ni(g: &mut NmapGovernor, core: CoreId, t: SimTime) {
        let mut actions = Vec::new();
        g.on_poll_batch(core, PollClass::Interrupt, 10, t, &mut actions);
        g.on_poll_batch(
            core,
            PollClass::Polling,
            500,
            t + SimDuration::from_micros(1),
            &mut actions,
        );
        assert_eq!(g.mode(core), PowerMode::NetworkIntensive);
    }

    #[test]
    fn signal_starvation_degrades_within_timeout_bound() {
        // The engine is starved of NI notifications entirely (the
        // notification channel dies while the governor believes a
        // burst is in progress). The bounded-time guarantee: by the
        // first timer after max(signal_timeout, 2·timer) without a
        // signal, the core must be off the pinned-P0 path.
        let mut g = nmap();
        let core = CoreId(0);
        enter_ni(&mut g, core, SimTime::ZERO);
        let deg = g.config().degradation;
        let bound = deg.signal_timeout.max(g.config().timer_interval * 2);
        let mut actions = Vec::new();
        // No poll batches at all after entry; first timer past the
        // bound. (Intermediate timers would fall back even earlier via
        // the empty-window ratio; jumping straight past the bound
        // exercises the degradation trigger itself.)
        let t = SimTime::ZERO + bound + SimDuration::from_millis(1);
        g.on_core_sample(core, sample(0.9), t, &mut actions);
        assert!(g.is_degraded(core), "dead channel must degrade");
        assert_eq!(g.mode(core), PowerMode::CpuUtilization);
        assert_eq!(g.degradation().degradations, 1);
        assert_eq!(g.degradation().degraded_cores, 1);
        // The enforcement came from ondemand, not a pinned P0.
        assert_eq!(actions.len(), 1);
        let marks: Vec<NiMark> = g.ni_log().iter().map(|&(_, (_, m))| m).collect();
        assert!(marks.contains(&NiMark::Degraded));
    }

    #[test]
    fn stale_replayed_signals_degrade_after_consecutive_idle_windows() {
        // Signals keep arriving (a stuck NAPI-state replay holds the
        // poll ratio high) but the core does no measurable work: the
        // suspicion counter must force the fallback after
        // `stale_windows` consecutive windows, instead of pinning P0
        // forever.
        let mut g = nmap();
        let core = CoreId(0);
        enter_ni(&mut g, core, SimTime::ZERO);
        let deg = g.config().degradation;
        let timer = g.config().timer_interval;
        let mut t = SimTime::ZERO;
        for w in 0..deg.stale_windows {
            // Replayed polling-heavy signals keep the window ratio
            // above CU_TH and the freshness check satisfied.
            g.on_poll_batch(core, PollClass::Polling, 500, t, &mut Vec::new());
            g.on_poll_batch(core, PollClass::Interrupt, 1, t, &mut Vec::new());
            t += timer;
            let mut actions = Vec::new();
            g.on_core_sample(core, sample(0.0), t, &mut actions);
            if w + 1 < deg.stale_windows {
                assert!(!g.is_degraded(core), "window {w}: still suspicious only");
                assert_eq!(
                    actions,
                    vec![Action::SetCore(core, PState::P0)],
                    "window {w}: ratio holds, still pinned"
                );
            }
        }
        assert!(g.is_degraded(core), "stale windows must degrade");
        assert_eq!(g.mode(core), PowerMode::CpuUtilization);
        // While degraded, notifications are ignored: no P0 pin, no
        // mode flip even on a strong (replayed) burst.
        let mut actions = Vec::new();
        g.on_poll_batch(core, PollClass::Polling, 5000, t, &mut actions);
        assert!(actions.is_empty(), "degraded core ignores notifications");
        assert_eq!(g.mode(core), PowerMode::CpuUtilization);
    }

    #[test]
    fn recovery_is_hysteretic_and_reengages_ni_mode() {
        let mut g = nmap();
        let core = CoreId(0);
        let deg = g.config().degradation;
        let timer = g.config().timer_interval;
        enter_ni(&mut g, core, SimTime::ZERO);
        // Degrade via starvation.
        let mut t = SimTime::ZERO + deg.signal_timeout.max(timer * 2) + timer;
        g.on_core_sample(core, sample(0.9), t, &mut Vec::new());
        assert!(g.is_degraded(core));
        // One healthy window is not enough (hysteresis)...
        assert!(deg.recovery_windows > 1, "test needs real hysteresis");
        for w in 0..deg.recovery_windows {
            g.on_poll_batch(core, PollClass::Interrupt, 50, t, &mut Vec::new());
            t += timer;
            g.on_core_sample(core, sample(0.5), t, &mut Vec::new());
            if w + 1 < deg.recovery_windows {
                assert!(g.is_degraded(core), "window {w}: not yet recovered");
            }
        }
        // ...but `recovery_windows` consecutive ones re-arm the path.
        assert!(!g.is_degraded(core), "healthy signals must recover");
        assert_eq!(g.degradation().recoveries, 1);
        assert_eq!(g.degradation().degraded_cores, 0);
        // And a fresh burst re-enters NI mode normally.
        let mut actions = Vec::new();
        g.on_poll_batch(core, PollClass::Polling, 500, t, &mut actions);
        assert_eq!(g.mode(core), PowerMode::NetworkIntensive);
        assert_eq!(actions, vec![Action::SetCore(core, PState::P0)]);
        let marks: Vec<NiMark> = g.ni_log().iter().map(|&(_, (_, m))| m).collect();
        assert!(marks.contains(&NiMark::Recovered));
    }

    #[test]
    fn interrupted_healthy_streak_restarts_recovery_count() {
        let mut g = nmap();
        let core = CoreId(0);
        let deg = g.config().degradation;
        let timer = g.config().timer_interval;
        enter_ni(&mut g, core, SimTime::ZERO);
        let mut t = SimTime::ZERO + deg.signal_timeout.max(timer * 2) + timer;
        g.on_core_sample(core, sample(0.9), t, &mut Vec::new());
        assert!(g.is_degraded(core));
        // healthy, idle, healthy — the idle window resets the streak.
        g.on_poll_batch(core, PollClass::Interrupt, 50, t, &mut Vec::new());
        t += timer;
        g.on_core_sample(core, sample(0.5), t, &mut Vec::new());
        t += timer;
        g.on_core_sample(core, sample(0.0), t, &mut Vec::new());
        g.on_poll_batch(core, PollClass::Interrupt, 50, t, &mut Vec::new());
        t += timer;
        g.on_core_sample(core, sample(0.5), t, &mut Vec::new());
        assert!(
            g.is_degraded(core),
            "broken streak must not recover after {} windows",
            deg.recovery_windows + 1
        );
    }

    /// A fixed telemetry reading: every core reports the same
    /// saturation gauge; all other gauges read zero.
    struct FixedSat {
        cores: usize,
        sat: i64,
    }

    impl simcore::TelemetryTap for FixedSat {
        fn tap_cores(&self) -> usize {
            self.cores
        }
        fn last_sample_at(&self) -> Option<SimTime> {
            Some(SimTime::ZERO)
        }
        fn latest(&self, _core: usize, gauge: simcore::Gauge) -> Option<i64> {
            Some(match gauge {
                simcore::Gauge::Saturation => self.sat,
                _ => 0,
            })
        }
    }

    #[test]
    fn shed_hold_suppresses_downclock_until_pressure_clears() {
        let mut g = nmap();
        let core = CoreId(0);
        let timer = g.config().timer_interval;
        // Saturation over the hold floor: entering the hold raises
        // the core to P0 immediately.
        let mut actions = Vec::new();
        let hot = FixedSat { cores: 8, sat: 950 };
        g.on_telemetry(&hot, SimTime::ZERO, &mut actions);
        assert!(g.shed_held(core), "950‰ ≥ hold floor");
        assert!(
            actions.contains(&Action::SetCore(core, PState::P0)),
            "entering the hold must raise V/F without waiting"
        );
        // While held, an idle utilization sample must NOT downclock:
        // shedding comes before power saving, so the decision is P0.
        actions.clear();
        g.on_core_sample(core, sample(0.0), SimTime::ZERO + timer, &mut actions);
        assert_eq!(
            actions,
            vec![Action::SetCore(core, PState::P0)],
            "held core must stay maximized despite idle sample"
        );
        assert!(g.shed_holds() >= 2);
        // Re-asserting the same hot reading is idempotent (no extra
        // raise action — the hold is level-triggered, edges act once).
        actions.clear();
        g.on_telemetry(&hot, SimTime::ZERO + timer, &mut actions);
        assert!(actions.is_empty(), "steady hold must not re-push actions");
        // Pressure clears: the hold releases and ondemand decides
        // again — an idle sample now downclocks normally.
        let cool = FixedSat { cores: 8, sat: 100 };
        g.on_telemetry(&cool, SimTime::ZERO + timer * 2, &mut actions);
        assert!(!g.shed_held(core), "100‰ is under the hold floor");
        actions.clear();
        g.on_core_sample(core, sample(0.0), SimTime::ZERO + timer * 3, &mut actions);
        let Action::SetCore(c, p) = actions[0] else {
            panic!()
        };
        assert_eq!(c, core);
        assert_ne!(p, PState::P0, "released core must downclock when idle");
    }

    #[test]
    fn zero_saturation_telemetry_is_a_no_op() {
        // The always-zero gauge of a run without admission pressure
        // must leave the governor byte-identical to one that never
        // saw telemetry at all.
        let mut g = nmap();
        let mut actions = Vec::new();
        let calm = FixedSat { cores: 8, sat: 0 };
        g.on_telemetry(&calm, SimTime::ZERO, &mut actions);
        assert!(actions.is_empty());
        assert_eq!(g.shed_holds(), 0);
        for core in 0..8 {
            assert!(!g.shed_held(CoreId(core)));
        }
    }

    #[test]
    fn empty_window_in_ni_mode_falls_back() {
        // Ratio of an empty window is 0 < CU_TH: the burst is over.
        let mut g = nmap();
        let mut actions = Vec::new();
        g.on_poll_batch(
            CoreId(0),
            PollClass::Interrupt,
            10,
            SimTime::ZERO,
            &mut actions,
        );
        g.on_poll_batch(
            CoreId(0),
            PollClass::Polling,
            500,
            SimTime::from_micros(1),
            &mut actions,
        );
        g.on_core_sample(
            CoreId(0),
            sample(0.9),
            SimTime::from_millis(10),
            &mut actions,
        );
        assert_eq!(g.mode(CoreId(0)), PowerMode::NetworkIntensive);
        actions.clear();
        // No traffic at all in the next window.
        g.on_core_sample(
            CoreId(0),
            sample(0.0),
            SimTime::from_millis(20),
            &mut actions,
        );
        assert_eq!(g.mode(CoreId(0)), PowerMode::CpuUtilization);
    }
}
