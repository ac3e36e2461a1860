//! Governor and sleep-policy trait surface.
//!
//! The server calls the hooks below from its event loop; governors
//! respond with [`Action`]s the server applies through the
//! processor's DVFS domains. All hooks have no-op defaults so each
//! governor implements only the signals it consumes.

use cpusim::core::UtilSample;
use cpusim::{CState, CoreId, PState};
use napisim::PollClass;
use simcore::{SimDuration, SimTime};

/// Graceful-degradation counters a governor may expose (how often it
/// distrusted its own signal path and fell back to a safe policy).
/// Governors without a degradation path report all-zero stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// Times any core entered the degraded (safe-fallback) state.
    pub degradations: u64,
    /// Times a degraded core recovered to normal operation.
    pub recoveries: u64,
    /// Cores currently degraded.
    pub degraded_cores: u64,
}

/// `Send`, under a name that says why: a fleet's server pool
/// (`cluster::fleet`) advances each server's testbed, governor and
/// sleep policy included, on a worker thread. A compile error for a
/// non-`Send` policy notes that the type must implement this trait.
pub trait FleetPoolSend: Send {}

impl<T: Send + ?Sized> FleetPoolSend for T {}

/// A P-state change requested by a governor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Set one core's DVFS domain.
    SetCore(CoreId, PState),
    /// Set every core (chip-wide decisions like NCAP's boost).
    SetAll(PState),
}

/// A dynamic voltage/frequency governor.
///
/// Hooks are invoked by the server:
///
/// * [`on_core_sample`](PStateGovernor::on_core_sample) — once per
///   core per sampling interval, with busy and CC0-residency
///   fractions;
/// * [`on_ksoftirqd`](PStateGovernor::on_ksoftirqd) — when a core's
///   ksoftirqd wakes or sleeps;
/// * [`on_poll_batch`](PStateGovernor::on_poll_batch) — after every
///   NAPI poll batch, with its mode attribution (NMAP's Algorithm 1
///   feed);
/// * [`on_nic_window`](PStateGovernor::on_nic_window) — once per
///   sampling interval with the NIC-wide Rx packet count (NCAP's
///   feed);
/// * [`on_request_latency`](PStateGovernor::on_request_latency) —
///   per completed request (Parties' feed).
pub trait PStateGovernor: FleetPoolSend {
    /// Human-readable policy name (used in experiment reports).
    fn name(&self) -> String;

    /// How often the server samples utilization and calls the
    /// periodic hooks. The paper uses 10 ms for ondemand and
    /// intel_powersave (§6.1).
    fn sampling_interval(&self) -> SimDuration {
        SimDuration::from_millis(10)
    }

    /// Periodic per-core utilization sample.
    fn on_core_sample(
        &mut self,
        core: CoreId,
        sample: UtilSample,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let _ = (core, sample, now, actions);
    }

    /// A core's ksoftirqd woke up (`awake = true`) or went back to
    /// sleep (`awake = false`).
    fn on_ksoftirqd(&mut self, core: CoreId, awake: bool, now: SimTime, actions: &mut Vec<Action>) {
        let _ = (core, awake, now, actions);
    }

    /// A NAPI poll batch completed on `core`: `rx_packets` packets
    /// were processed in the mode given by `class`.
    fn on_poll_batch(
        &mut self,
        core: CoreId,
        class: PollClass,
        rx_packets: u64,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let _ = (core, class, rx_packets, now, actions);
    }

    /// Periodic NIC-wide Rx packet count over the last sampling
    /// interval.
    fn on_nic_window(&mut self, rx_packets: u64, now: SimTime, actions: &mut Vec<Action>) {
        let _ = (rx_packets, now, actions);
    }

    /// A request completed with the given end-to-end latency
    /// (measured at the client).
    fn on_request_latency(
        &mut self,
        latency: SimDuration,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let _ = (latency, now, actions);
    }

    /// Periodic telemetry-bus tick: the server hands the governor a
    /// read-side view of the live timeline sampler (per-core
    /// utilization, NAPI mode, queue depths, online P99, power) once
    /// per timeline sample. This is the feature-vector feed for
    /// adaptive policies (PID / bandit governors); classic governors
    /// ignore it. Never invoked when timeline sampling is off.
    fn on_telemetry(
        &mut self,
        tap: &dyn simcore::TelemetryTap,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let _ = (tap, now, actions);
    }

    /// True if this governor has fallen back to its degraded safe
    /// policy on `core` (telemetry flag feed). Default: governors
    /// without a degradation path are never degraded.
    fn core_degraded(&self, core: CoreId) -> bool {
        let _ = core;
        false
    }

    /// Replays governor-internal events (e.g. NMAP's network
    /// interference notifications) into the trace buffer on the
    /// `governor` track. Default: nothing to replay.
    fn trace_into(&self, buf: &mut simcore::TraceBuffer) {
        let _ = buf;
    }

    /// Reports governor-internal totals into the metrics registry.
    /// Default: nothing to report.
    fn record_metrics(&self, m: &mut simcore::MetricsRegistry) {
        let _ = m;
    }

    /// Graceful-degradation counters. Default: no degradation path,
    /// all zeros.
    fn degradation(&self) -> DegradationStats {
        DegradationStats::default()
    }
}

/// A C-state (sleep) policy.
pub trait SleepPolicy: FleetPoolSend {
    /// Human-readable policy name.
    fn name(&self) -> String;

    /// The core went idle at `now`; choose the C-state it enters.
    fn on_idle(&mut self, core: CoreId, now: SimTime) -> CState;

    /// The scheduler tick fired while the core has been idle for
    /// `idle_elapsed`; the policy may deepen the sleep state (this is
    /// how cpuidle governors re-decide on long idles — a shallow
    /// first pick is promoted once the idle proves long). Return
    /// `None` to stay put.
    fn on_tick(&mut self, core: CoreId, idle_elapsed: SimDuration, now: SimTime) -> Option<CState> {
        let _ = (core, idle_elapsed, now);
        None
    }

    /// The core woke at `now` (for idle-history bookkeeping).
    fn on_wake(&mut self, core: CoreId, now: SimTime) {
        let _ = (core, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Noop;
    impl PStateGovernor for Noop {
        fn name(&self) -> String {
            "noop".into()
        }
    }

    #[test]
    fn default_hooks_do_nothing() {
        let mut g = Noop;
        let mut actions = Vec::new();
        g.on_ksoftirqd(CoreId(0), true, SimTime::ZERO, &mut actions);
        g.on_nic_window(100, SimTime::ZERO, &mut actions);
        g.on_request_latency(SimDuration::from_micros(5), SimTime::ZERO, &mut actions);
        assert!(actions.is_empty());
        assert_eq!(g.sampling_interval(), SimDuration::from_millis(10));
    }
}
