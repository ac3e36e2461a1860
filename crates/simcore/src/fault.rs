//! simfault — deterministic, seedable fault injection.
//!
//! A [`FaultPlan`] is a typed schedule of injections, each bounded by
//! a [`FaultScope`] (a time window, optionally pinned to one core).
//! The [`FaultInjector`] evaluates the plan at the simulation's hook
//! points: stochastic kinds draw from a dedicated RNG stream derived
//! from the plan seed, scheduled kinds are pure functions of the
//! scope, so the same seed and the same plan replay byte-identically.
//!
//! # Inert when empty
//!
//! With an empty plan no RNG is ever drawn and no fault events exist,
//! so a fault-free run is bit-identical to one that never consulted
//! the injector.
//!
//! # Examples
//!
//! ```
//! use simcore::fault::{FaultInjector, FaultKind, FaultPlan, FaultScope};
//! use simcore::{SimDuration, SimTime};
//!
//! let plan = FaultPlan::new()
//!     .with_seed(42)
//!     .inject(
//!         FaultKind::WireDrop { prob: 0.5 },
//!         FaultScope::window(SimTime::ZERO, SimTime::from_millis(10)),
//!     );
//! let mut inj = FaultInjector::from_plan(&plan, 7);
//! assert!(inj.covers(SimTime::from_millis(5), 0));
//! // Outside every scope the query is a cheap miss.
//! assert!(!inj.wire_drop(SimTime::from_millis(20), 0));
//! ```

use crate::rng::RngStream;
use crate::time::{SimDuration, SimTime};

/// One kind of injected fault. Probabilities are per-opportunity;
/// periods drive scheduled injections; clamps and overrides hold for
/// the whole scope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Drop a wire packet (request or response) with probability
    /// `prob` per packet.
    WireDrop {
        /// Per-packet drop probability.
        prob: f64,
    },
    /// A delivered IRQ is lost with probability `prob` (the vector
    /// fires but the core never sees it).
    IrqLoss {
        /// Per-IRQ loss probability.
        prob: f64,
    },
    /// The vector raises spurious interrupts every `period` with no
    /// descriptor work behind them.
    SpuriousIrq {
        /// Spacing between spurious assertions.
        period: SimDuration,
    },
    /// NAPI's re-enable write is lost: the vector stays masked until
    /// the scope ends.
    StuckIrqMask,
    /// Misconfigured interrupt moderation: every queue's ITR is forced
    /// to `itr` for the scope.
    ItrOverride {
        /// The forced inter-interrupt spacing.
        itr: SimDuration,
    },
    /// Rx descriptor rings behave as if sized `capacity`, forcing
    /// overflow pressure.
    RxRingClamp {
        /// Effective ring capacity during the scope.
        capacity: usize,
    },
    /// A ksoftirqd wakeup is missed with probability `prob`; the task
    /// only becomes runnable `delay` later (a lost-then-retried IPI).
    MissedKsoftirqdWake {
        /// Recovery delay for a missed wake.
        delay: SimDuration,
        /// Per-handoff miss probability.
        prob: f64,
    },
    /// The NAPI poll budget is clamped to `budget` descriptors.
    PollBudgetClamp {
        /// Effective budget during the scope.
        budget: usize,
    },
    /// A NAPI mode-transition signal to the governor is silently lost
    /// with probability `prob`.
    NapiSignalLoss {
        /// Per-batch suppression probability.
        prob: f64,
    },
    /// The governor keeps receiving a *stale* copy of the core's last
    /// NAPI signal every `period` even though no packets flow — the
    /// wedge NMAP's degradation watchdog exists for.
    NapiSignalStuck {
        /// Replay interval of the stale signal.
        period: SimDuration,
    },
    /// Every DVFS transition started during the scope pays `extra`
    /// write latency.
    DvfsLatencySpike {
        /// Extra transition latency.
        extra: SimDuration,
    },
    /// Thermal throttling: P-states faster than index `floor` are
    /// clamped to it (index 0 is the fastest state).
    ThermalThrottle {
        /// Fastest-allowed P-state index; requests for a smaller
        /// index are raised to this one.
        floor: u8,
    },
    /// Transient core degradation: every execution start on the scoped
    /// core pays an extra `stall` before running.
    CoreStall {
        /// Stall added to each execution start.
        stall: SimDuration,
    },
    /// The offered load is multiplied by `factor` for the scope.
    LoadSpike {
        /// Arrival-rate multiplier.
        factor: f64,
    },
    /// `requests` extra requests arrive back-to-back at the scope
    /// start (an incast burst).
    IncastBurst {
        /// Burst size in requests.
        requests: u32,
    },
    /// Connection churn: at the scope start the client's flow space
    /// rotates by `shift` flows, remapping RSS placement.
    ConnectionChurn {
        /// Flow-id rotation distance.
        shift: u64,
    },
    /// Cluster scope: the whole server is down for the window. At the
    /// fleet tier `scope.core` is the server index; attempts dispatched
    /// to a crashed server are lost and its health probes fail.
    ServerCrash,
    /// Cluster scope: the load balancer's health view freezes — probe
    /// results arriving during the window are ignored, so ejection and
    /// readmission decisions lag reality.
    HealthViewStale,
    /// Cluster scope: every request and probe crossing the LB↔server
    /// link of the scoped server pays `extra` one-way latency.
    LinkLatencySpike {
        /// Extra link latency per crossing.
        extra: SimDuration,
    },
    /// Cluster scope: the LB↔server link of the scoped server is
    /// severed — dispatched attempts are lost and probes time out,
    /// though the server itself keeps running.
    LinkPartition,
    /// Cluster scope: the LB's hash ring skews, redirecting steered
    /// requests toward the pinned server with probability
    /// `1 - 1/factor` (so the target absorbs `factor`× its fair
    /// share as `factor` grows).
    HashSkew {
        /// Concentration factor; must exceed 1.
        factor: f64,
    },
    /// Overload scope: the admission policy is bypassed for the
    /// window — a misconfigured (or crashed) overload guard. Queues
    /// grow unbounded again while the scope holds, exactly the
    /// precondition for a metastable retry storm.
    AdmissionDisable,
}

impl FaultKind {
    /// Static label for logs and trace events.
    pub const fn label(self) -> &'static str {
        match self {
            FaultKind::WireDrop { .. } => "wire-drop",
            FaultKind::IrqLoss { .. } => "irq-loss",
            FaultKind::SpuriousIrq { .. } => "spurious-irq",
            FaultKind::StuckIrqMask => "stuck-irq-mask",
            FaultKind::ItrOverride { .. } => "itr-override",
            FaultKind::RxRingClamp { .. } => "rx-ring-clamp",
            FaultKind::MissedKsoftirqdWake { .. } => "missed-wake",
            FaultKind::PollBudgetClamp { .. } => "poll-budget-clamp",
            FaultKind::NapiSignalLoss { .. } => "napi-signal-loss",
            FaultKind::NapiSignalStuck { .. } => "napi-signal-stuck",
            FaultKind::DvfsLatencySpike { .. } => "dvfs-latency-spike",
            FaultKind::ThermalThrottle { .. } => "thermal-throttle",
            FaultKind::CoreStall { .. } => "core-stall",
            FaultKind::LoadSpike { .. } => "load-spike",
            FaultKind::IncastBurst { .. } => "incast-burst",
            FaultKind::ConnectionChurn { .. } => "connection-churn",
            FaultKind::ServerCrash => "server-crash",
            FaultKind::HealthViewStale => "health-view-stale",
            FaultKind::LinkLatencySpike { .. } => "link-latency-spike",
            FaultKind::LinkPartition => "link-partition",
            FaultKind::HashSkew { .. } => "hash-skew",
            FaultKind::AdmissionDisable => "admission-disable",
        }
    }
}

/// Where and when a fault applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultScope {
    /// First instant the fault is live (inclusive).
    pub start: SimTime,
    /// First instant past the fault (exclusive).
    pub end: SimTime,
    /// Restrict to one core/queue, or `None` for all.
    pub core: Option<usize>,
}

impl FaultScope {
    /// A scope covering `[start, end)` on every core.
    pub fn window(start: SimTime, end: SimTime) -> Self {
        FaultScope {
            start,
            end,
            core: None,
        }
    }

    /// Restricts the scope to one core.
    pub fn on_core(mut self, core: usize) -> Self {
        self.core = Some(core);
        self
    }

    /// True if the scope covers `now` on `core` (`core = None` in the
    /// query matches core-pinned scopes too — used by chip-wide
    /// hooks).
    pub fn covers(&self, now: SimTime, core: Option<usize>) -> bool {
        if now < self.start || now >= self.end {
            return false;
        }
        match (self.core, core) {
            (Some(sc), Some(qc)) => sc == qc,
            _ => true,
        }
    }
}

/// One fault with its scope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// When (and where) to inject it.
    pub scope: FaultScope,
}

/// A deterministic fault schedule.
///
/// The plan's `seed` (or, when absent, the run's master seed)
/// parameterizes a dedicated `"fault"` RNG stream, so fault draws
/// never perturb the arrival/service/DVFS streams: the same plan and
/// seed replay identically, and an empty plan draws nothing at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled injections.
    pub specs: Vec<FaultSpec>,
    /// Optional dedicated seed; defaults to the run's master seed.
    pub seed: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the plan schedules no injections.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Sets a dedicated fault seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Adds one injection.
    pub fn inject(mut self, kind: FaultKind, scope: FaultScope) -> Self {
        self.specs.push(FaultSpec { kind, scope });
        self
    }

    /// Validates every spec against a testbed with `cores` cores.
    ///
    /// A plan with no specs is trivially valid (it injects nothing);
    /// a plan whose specs are degenerate — an empty or inverted scope
    /// window, a core index off the end of the topology, a
    /// probability outside `[0, 1]`, a zero injection period (which
    /// would livelock the event queue), or a zero capacity/budget
    /// clamp — is a typed
    /// [`SimError::InvalidConfig`](crate::SimError::InvalidConfig)
    /// instead of a downstream panic or hang.
    pub fn validate(&self, cores: usize) -> Result<(), crate::error::SimError> {
        use crate::error::SimError;
        let prob_ok = |p: f64| p.is_finite() && (0.0..=1.0).contains(&p);
        for (i, spec) in self.specs.iter().enumerate() {
            let scope = spec.scope;
            if scope.start >= scope.end {
                return Err(SimError::invalid(
                    "fault_plan.scope",
                    format!(
                        "spec #{i} ({}) has an empty or inverted window \
                         [{:?}, {:?})",
                        spec.kind.label(),
                        scope.start,
                        scope.end
                    ),
                ));
            }
            if let Some(core) = scope.core {
                if core >= cores {
                    return Err(SimError::invalid(
                        "fault_plan.scope.core",
                        format!(
                            "spec #{i} ({}) pins core {core}, but the testbed \
                             has only {cores} core(s)",
                            spec.kind.label()
                        ),
                    ));
                }
            }
            let bad = |what: &str| {
                Err(SimError::invalid(
                    "fault_plan.kind",
                    format!("spec #{i} ({}): {what}", spec.kind.label()),
                ))
            };
            match spec.kind {
                FaultKind::WireDrop { prob }
                | FaultKind::IrqLoss { prob }
                | FaultKind::NapiSignalLoss { prob } => {
                    if !prob_ok(prob) {
                        return bad("probability must be finite and within [0, 1]");
                    }
                }
                FaultKind::MissedKsoftirqdWake { prob, .. } => {
                    if !prob_ok(prob) {
                        return bad("probability must be finite and within [0, 1]");
                    }
                }
                FaultKind::SpuriousIrq { period } | FaultKind::NapiSignalStuck { period } => {
                    if period.is_zero() {
                        return bad("a zero injection period would livelock the event queue");
                    }
                }
                FaultKind::RxRingClamp { capacity } => {
                    if capacity == 0 {
                        return bad("ring capacity clamp must be at least 1");
                    }
                }
                FaultKind::PollBudgetClamp { budget } => {
                    if budget == 0 {
                        return bad("poll budget clamp must be at least 1");
                    }
                }
                FaultKind::LoadSpike { factor } => {
                    if !factor.is_finite() || factor <= 0.0 {
                        return bad("load factor must be finite and positive");
                    }
                }
                FaultKind::IncastBurst { requests } => {
                    if requests == 0 {
                        return bad("incast burst must carry at least 1 request");
                    }
                }
                FaultKind::HashSkew { factor } => {
                    if !factor.is_finite() || factor <= 1.0 {
                        return bad("skew factor must be finite and exceed 1");
                    }
                }
                FaultKind::StuckIrqMask
                | FaultKind::ItrOverride { .. }
                | FaultKind::DvfsLatencySpike { .. }
                | FaultKind::ThermalThrottle { .. }
                | FaultKind::CoreStall { .. }
                | FaultKind::ConnectionChurn { .. }
                | FaultKind::ServerCrash
                | FaultKind::HealthViewStale
                | FaultKind::LinkLatencySpike { .. }
                | FaultKind::LinkPartition
                | FaultKind::AdmissionDisable => {}
            }
        }
        Ok(())
    }
}

/// Counters for every fault actually applied (not merely scheduled):
/// plain integers that reports and audits read fault totals from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Request packets dropped on the wire.
    pub wire_requests_dropped: u64,
    /// Response packets dropped on the wire.
    pub wire_responses_dropped: u64,
    /// Delivered IRQs lost before the core saw them.
    pub irqs_lost: u64,
    /// Spurious IRQs asserted.
    pub spurious_irqs: u64,
    /// IRQ unmask writes blocked by a stuck mask.
    pub irq_unmasks_blocked: u64,
    /// ksoftirqd wakeups delayed.
    pub wakes_delayed: u64,
    /// NAPI signals suppressed before the governor.
    pub signals_suppressed: u64,
    /// Stale NAPI signals replayed to the governor.
    pub signals_replayed: u64,
    /// NAPI polls whose budget was clamped.
    pub polls_clamped: u64,
    /// DVFS transitions that paid the latency spike.
    pub dvfs_delays: u64,
    /// P-state requests clamped by thermal throttling.
    pub pstate_clamps: u64,
    /// Execution starts that paid a core stall.
    pub exec_stalls: u64,
    /// Load-spec switches driven by load spikes.
    pub load_switches: u64,
    /// Requests injected by incast bursts.
    pub incast_requests: u64,
    /// Connection-churn rotations applied.
    pub flow_churns: u64,
    /// Server-crash onsets applied at the fleet tier.
    pub server_crashes: u64,
    /// Server recoveries (crash scopes that ended).
    pub server_recoveries: u64,
    /// Dispatches or probes that paid a link-latency spike.
    pub link_delays: u64,
    /// Attempts lost to a severed LB↔server link.
    pub partition_drops: u64,
    /// Steering decisions redirected by hash skew.
    pub skewed_steers: u64,
    /// Health-probe results ignored by a stale LB view.
    pub stale_probes: u64,
    /// Shed decisions suppressed by a disabled admission guard.
    pub admission_bypasses: u64,
}

impl FaultStats {
    /// Total individual fault applications.
    pub fn total(&self) -> u64 {
        self.wire_requests_dropped
            + self.wire_responses_dropped
            + self.irqs_lost
            + self.spurious_irqs
            + self.irq_unmasks_blocked
            + self.wakes_delayed
            + self.signals_suppressed
            + self.signals_replayed
            + self.polls_clamped
            + self.dvfs_delays
            + self.pstate_clamps
            + self.exec_stalls
            + self.load_switches
            + self.incast_requests
            + self.flow_churns
            + self.server_crashes
            + self.server_recoveries
            + self.link_delays
            + self.partition_drops
            + self.skewed_steers
            + self.stale_probes
            + self.admission_bypasses
    }

    /// Wire packets lost to faults, both directions.
    pub fn wire_dropped(&self) -> u64 {
        self.wire_requests_dropped + self.wire_responses_dropped
    }
}

/// Upper bound on retained injection-log entries; applications keep
/// counting in [`FaultStats`] after the log saturates.
const LOG_CAP: usize = 4096;

/// A [`FaultPlan::covering`] pick: `Some($out)` from a spec of kind
/// `FaultKind::$kind`, `None` from any other.
macro_rules! pick {
    ($kind:ident $fields:tt => $out:expr) => {
        |spec: &FaultSpec| match spec.kind {
            FaultKind::$kind $fields => Some($out),
            _ => None,
        }
    };
}

impl FaultPlan {
    /// The one scope walk every [`FaultInjector`] hook answers from:
    /// what `pick` takes from each spec covering `(now, core)`, in
    /// plan order. A hook combines it by one rule: first probabilistic
    /// hit, any, sum, min, max, last match or product.
    fn covering<'a, T: 'a>(
        &'a self,
        now: SimTime,
        core: Option<usize>,
        pick: impl Fn(&FaultSpec) -> Option<T> + 'a,
    ) -> impl Iterator<Item = T> + 'a {
        let covers = move |spec: &&FaultSpec| spec.scope.covers(now, core);
        self.specs.iter().filter(covers).filter_map(pick)
    }

    /// Does a spec of the payload-free `kind` cover `(now, core)`?
    fn holds(&self, now: SimTime, core: Option<usize>, kind: FaultKind) -> bool {
        self.covering(now, core, |spec| Some(spec.kind))
            .any(|k| k == kind)
    }
}

/// Evaluates a [`FaultPlan`] at the simulation's hook points; see
/// the [module docs](self).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: RngStream,
    stats: FaultStats,
    log: Vec<(SimTime, &'static str, u32)>,
}

impl FaultInjector {
    /// Builds an injector for `plan`. The fault RNG stream derives
    /// from the plan's own seed when set, else from `master_seed` —
    /// either way it is separate from every model stream.
    pub fn from_plan(plan: &FaultPlan, master_seed: u64) -> Self {
        let seed = plan.seed.unwrap_or(master_seed);
        FaultInjector {
            plan: plan.clone(),
            rng: RngStream::derive(seed, "fault", 0),
            stats: FaultStats::default(),
            log: Vec::new(),
        }
    }

    /// Does any fault scope cover `core` at `now`?
    pub fn covers(&self, now: SimTime, core: usize) -> bool {
        let mut covering = self.plan.covering(now, Some(core), |_| Some(()));
        covering.next().is_some()
    }

    /// The plan's specs (empty when inactive) — used by the driver to
    /// schedule scope-boundary events.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.plan.specs
    }

    /// Counters of faults applied so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Bounded log of applied injections `(time, label, core)`.
    pub fn log(&self) -> &[(SimTime, &'static str, u32)] {
        &self.log
    }

    /// Logs one application as `(now, label, core)` unless the log is
    /// full, and hands back the counters for the caller's bump.
    fn record(&mut self, now: SimTime, label: &'static str, core: usize) -> &mut FaultStats {
        if self.log.len() < LOG_CAP {
            self.log.push((now, label, core as u32));
        }
        &mut self.stats
    }

    /// The first probabilistic hit on `core`: one `rng.chance(prob)`
    /// draw per covering spec that `pick` maps to `(prob, out)`, in
    /// plan order, stopping at the first hit, which is logged.
    fn first_hit<T>(
        &mut self,
        now: SimTime,
        core: usize,
        pick: impl Fn(&FaultSpec) -> Option<(f64, T)>,
    ) -> Option<(T, &mut FaultStats)> {
        let FaultInjector { plan, rng, .. } = self;
        let (kind, out) = plan
            .covering(now, Some(core), |spec| Some(spec.kind).zip(pick(spec)))
            .find_map(|(kind, (prob, out))| rng.chance(prob).then_some((kind, out)))?;
        Some((out, self.record(now, kind.label(), core)))
    }

    /// Does a spec of the payload-free `kind` cover `(now, core)`? A
    /// hit is logged, and the counters come back for its bump.
    fn held(&mut self, now: SimTime, core: usize, kind: FaultKind) -> Option<&mut FaultStats> {
        let hit = self.plan.holds(now, Some(core), kind);
        hit.then(|| self.record(now, kind.label(), core))
    }

    /// Should this wire packet (to queue/core `core`) be lost? The
    /// caller counts it via `note_wire_{request,response}_dropped`.
    #[inline]
    pub fn wire_drop(&mut self, now: SimTime, core: usize) -> bool {
        let pick = pick!(WireDrop { prob } => (prob, ()));
        self.first_hit(now, core, pick).is_some()
    }

    /// Records a request lost to [`wire_drop`](Self::wire_drop).
    pub fn note_wire_request_dropped(&mut self) {
        self.stats.wire_requests_dropped += 1;
    }

    /// Records a response lost to [`wire_drop`](Self::wire_drop).
    pub fn note_wire_response_dropped(&mut self) {
        self.stats.wire_responses_dropped += 1;
    }

    /// Should a delivered IRQ on `core` be lost?
    #[inline]
    pub fn irq_lost(&mut self, now: SimTime, core: usize) -> bool {
        let pick = pick!(IrqLoss { prob } => (prob, ()));
        let hit = self.first_hit(now, core, pick);
        hit.map(|((), s)| s.irqs_lost += 1).is_some()
    }

    /// Records a spurious IRQ assertion.
    pub fn note_spurious_irq(&mut self, now: SimTime, core: usize) {
        let kind = FaultKind::SpuriousIrq {
            period: SimDuration::ZERO,
        };
        self.record(now, kind.label(), core).spurious_irqs += 1;
    }

    /// Is the IRQ unmask write on `core` blocked by a stuck mask?
    /// Counts and logs each blocked write.
    #[inline]
    pub fn irq_mask_stuck(&mut self, now: SimTime, core: usize) -> bool {
        let hit = self.held(now, core, FaultKind::StuckIrqMask);
        hit.map(|s| s.irq_unmasks_blocked += 1).is_some()
    }

    /// [`irq_mask_stuck`](Self::irq_mask_stuck)'s answer without the
    /// count: the driver asks it to release a mask whose scope ended.
    pub fn irq_mask_held(&self, now: SimTime, core: usize) -> bool {
        self.plan.holds(now, Some(core), FaultKind::StuckIrqMask)
    }

    /// The ITR override in force, if any (last matching spec wins).
    pub fn itr_override(&self, now: SimTime) -> Option<SimDuration> {
        let pick = pick!(ItrOverride { itr } => itr);
        self.plan.covering(now, None, pick).last()
    }

    /// The Rx-ring capacity clamp in force, if any (tightest wins).
    pub fn rx_ring_clamp(&self, now: SimTime) -> Option<usize> {
        let pick = pick!(RxRingClamp { capacity } => capacity);
        self.plan.covering(now, None, pick).min()
    }

    /// The recovery delay if this ksoftirqd wakeup on `core` is missed.
    #[inline]
    pub fn wake_delay(&mut self, now: SimTime, core: usize) -> Option<SimDuration> {
        let pick = pick!(MissedKsoftirqdWake { delay, prob } => (prob, delay));
        let (delay, stats) = self.first_hit(now, core, pick)?;
        stats.wakes_delayed += 1;
        Some(delay)
    }

    /// The poll-budget clamp in force on `core`, if any (tightest
    /// wins; the caller should floor the result at 1).
    #[inline]
    pub fn poll_budget_clamp(&mut self, now: SimTime, core: usize) -> Option<usize> {
        let pick = pick!(PollBudgetClamp { budget } => budget);
        let clamp = self.plan.covering(now, Some(core), pick).min();
        self.stats.polls_clamped += u64::from(clamp.is_some());
        clamp
    }

    /// Should this NAPI poll-batch signal be hidden from the governor?
    #[inline]
    pub fn signal_suppressed(&mut self, now: SimTime, core: usize) -> bool {
        let pick = pick!(NapiSignalLoss { prob } => (prob, ()));
        let hit = self.first_hit(now, core, pick);
        hit.map(|((), s)| s.signals_suppressed += 1).is_some()
    }

    /// Records a stale NAPI signal replayed to the governor.
    pub fn note_signal_replayed(&mut self, now: SimTime, core: usize) {
        let kind = FaultKind::NapiSignalStuck {
            period: SimDuration::ZERO,
        };
        self.record(now, kind.label(), core).signals_replayed += 1;
    }

    /// Extra DVFS write latency in force (sum of active spikes), and a
    /// bump of the counter when nonzero.
    pub fn dvfs_padding(&mut self, now: SimTime) -> SimDuration {
        let pick = pick!(DvfsLatencySpike { extra } => extra);
        let pad: SimDuration = self.plan.covering(now, None, pick).sum();
        self.stats.dvfs_delays += u64::from(!pad.is_zero());
        pad
    }

    /// The effective P-state index for a request under active thermal
    /// throttling: too-fast indices (0 is fastest) rise to the floor.
    #[inline]
    pub fn clamp_pstate(&mut self, now: SimTime, target_index: u8) -> u8 {
        let pick = pick!(ThermalThrottle { floor } => floor);
        let floor = self.plan.covering(now, None, pick).max().unwrap_or(0);
        self.stats.pstate_clamps += u64::from(target_index < floor);
        target_index.max(floor)
    }

    /// The execution stall in force on `core`, if any.
    #[inline]
    pub fn exec_stall(&mut self, now: SimTime, core: usize) -> Option<SimDuration> {
        let pick = pick!(CoreStall { stall } => stall);
        let stall: SimDuration = self.plan.covering(now, Some(core), pick).sum();
        self.stats.exec_stalls += u64::from(!stall.is_zero());
        (!stall.is_zero()).then_some(stall)
    }

    /// The product of active load-spike factors (1.0 when none).
    pub fn load_factor(&self, now: SimTime) -> f64 {
        let pick = pick!(LoadSpike { factor } => factor);
        self.plan.covering(now, None, pick).product()
    }

    /// Records a load-spec switch driven by a load spike.
    pub fn note_load_switch(&mut self, now: SimTime) {
        let kind = FaultKind::LoadSpike { factor: 1.0 };
        self.record(now, kind.label(), 0).load_switches += 1;
    }

    /// Records an incast burst of `requests` requests (one log entry).
    pub fn note_incast_burst(&mut self, now: SimTime, requests: u32) {
        let kind = FaultKind::IncastBurst { requests };
        self.record(now, kind.label(), 0).incast_requests += u64::from(requests);
    }

    /// Records a connection-churn rotation.
    pub fn note_flow_churn(&mut self, now: SimTime) {
        let kind = FaultKind::ConnectionChurn { shift: 0 };
        self.record(now, kind.label(), 0).flow_churns += 1;
    }

    /// Is `server` inside an active [`FaultKind::ServerCrash`] scope?
    /// Fleet-tier hook: `scope.core` carries the server index.
    #[inline]
    pub fn server_crashed(&self, now: SimTime, server: usize) -> bool {
        self.plan.holds(now, Some(server), FaultKind::ServerCrash)
    }

    /// Records a server-crash onset at the fleet tier.
    pub fn note_server_crash(&mut self, now: SimTime, server: usize) {
        let kind = FaultKind::ServerCrash;
        self.record(now, kind.label(), server).server_crashes += 1;
    }

    /// Records a server recovery (a crash scope ending).
    pub fn note_server_recover(&mut self, now: SimTime, server: usize) {
        self.record(now, "server-recover", server).server_recoveries += 1;
    }

    /// Is the load balancer's health view frozen right now?
    pub fn health_view_stale(&self, now: SimTime) -> bool {
        self.plan.holds(now, None, FaultKind::HealthViewStale)
    }

    /// Records a probe result discarded by a stale health view.
    pub fn note_stale_probe(&mut self, now: SimTime, server: usize) {
        let kind = FaultKind::HealthViewStale;
        self.record(now, kind.label(), server).stale_probes += 1;
    }

    /// Extra LB↔server link latency in force toward `server` (sum of
    /// active spikes), bumping the counter when nonzero.
    #[inline]
    pub fn link_extra(&mut self, now: SimTime, server: usize) -> SimDuration {
        let pick = pick!(LinkLatencySpike { extra } => extra);
        let pad: SimDuration = self.plan.covering(now, Some(server), pick).sum();
        self.stats.link_delays += u64::from(!pad.is_zero());
        pad
    }

    /// Is the LB↔server link toward `server` severed right now?
    #[inline]
    pub fn link_partitioned(&self, now: SimTime, server: usize) -> bool {
        self.plan.holds(now, Some(server), FaultKind::LinkPartition)
    }

    /// Records an attempt lost to a severed link.
    pub fn note_partition_drop(&mut self, now: SimTime, server: usize) {
        let kind = FaultKind::LinkPartition;
        self.record(now, kind.label(), server).partition_drops += 1;
    }

    /// The active hash-skew `(factor, target_server)`, if any (last
    /// matching spec wins). An unpinned scope targets server 0.
    #[inline]
    pub fn hash_skew(&self, now: SimTime) -> Option<(f64, usize)> {
        let pick = |spec: &FaultSpec| match spec.kind {
            FaultKind::HashSkew { factor } => Some((factor, spec.scope.core.unwrap_or(0))),
            _ => None,
        };
        self.plan.covering(now, None, pick).last()
    }

    /// Is the admission policy bypassed on `core` right now? Counts
    /// and logs each bypass: a request that would have been shed.
    pub fn admission_bypassed(&mut self, now: SimTime, core: usize) -> bool {
        let hit = self.held(now, core, FaultKind::AdmissionDisable);
        hit.map(|s| s.admission_bypasses += 1).is_some()
    }

    /// Records a steering decision redirected by hash skew.
    pub fn note_skewed_steer(&mut self, now: SimTime, server: usize) {
        let kind = FaultKind::HashSkew { factor: 1.0 };
        self.record(now, kind.label(), server).skewed_steers += 1;
    }
}

/// How SLO-violation episodes relate to the fault schedule: for each
/// fault scope, the violation episodes that *opened* during the scope
/// (plus a grace window after it) are attributed to that fault, and
/// the recovery time is measured from the fault's onset to the
/// episode's close. Computed by [`join_recovery`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Episodes attributed to some fault scope.
    pub attributed: u64,
    /// Attributed episodes that closed (SLO recovered).
    pub recovered: u64,
    /// Attributed episodes still open at run end.
    pub unrecovered: u64,
    /// Episodes not attributable to any fault scope.
    pub unattributed: u64,
    /// Mean fault-onset → recovery time over recovered episodes.
    pub mean_recovery_ns: u64,
    /// Worst fault-onset → recovery time.
    pub max_recovery_ns: u64,
}

/// Grace window after a fault scope ends during which a newly opened
/// violation episode is still attributed to it.
pub const RECOVERY_GRACE: SimDuration = SimDuration::from_millis(50);

/// Joins fault-scope windows with watchdog violation episodes.
///
/// `episodes` are `(opened_at_ns, closed_at_ns)` pairs with
/// `u64::MAX` marking a still-open episode — the shape
/// `WatchdogReport::episode_log` exposes.
pub fn join_recovery(scopes: &[FaultScope], episodes: &[(u64, u64)]) -> RecoverySummary {
    let mut out = RecoverySummary::default();
    let mut total_recovery = 0u64;
    for &(opened, closed) in episodes {
        let mut best_onset: Option<u64> = None;
        for scope in scopes {
            let start = scope.start.as_nanos();
            let end = scope
                .end
                .as_nanos()
                .saturating_add(RECOVERY_GRACE.as_nanos());
            if opened >= start && opened <= end {
                // Attribute to the earliest-starting covering fault.
                best_onset = Some(best_onset.map_or(start, |b| b.min(start)));
            }
        }
        match best_onset {
            None => out.unattributed += 1,
            Some(onset) => {
                out.attributed += 1;
                if closed == u64::MAX {
                    out.unrecovered += 1;
                } else {
                    out.recovered += 1;
                    let recovery = closed.saturating_sub(onset);
                    total_recovery += recovery;
                    out.max_recovery_ns = out.max_recovery_ns.max(recovery);
                }
            }
        }
    }
    out.mean_recovery_ns = total_recovery.checked_div(out.recovered).unwrap_or(0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn empty_plan_is_inert() {
        let mut inj = FaultInjector::from_plan(&FaultPlan::new(), 1);
        assert!(!inj.covers(ms(1), 0));
        assert!(!inj.wire_drop(ms(1), 0));
        assert!(!inj.irq_lost(ms(1), 0));
        assert!(inj.wake_delay(ms(1), 0).is_none());
        assert!(!inj.signal_suppressed(ms(1), 0));
        assert_eq!(inj.stats().total(), 0);
        assert!(inj.log().is_empty());
        let fresh = RngStream::derive(1, "fault", 0).next_u64();
        assert_eq!(inj.rng.next_u64(), fresh, "an empty plan draws nothing");
    }

    #[test]
    fn scope_bounds_are_half_open_and_core_pinned() {
        let s = FaultScope::window(ms(10), ms(20)).on_core(2);
        assert!(!s.covers(ms(9), Some(2)));
        assert!(s.covers(ms(10), Some(2)));
        assert!(s.covers(ms(19), Some(2)));
        assert!(!s.covers(ms(20), Some(2)));
        assert!(!s.covers(ms(15), Some(3)));
        // A core-less query (chip-wide hook) matches pinned scopes.
        assert!(s.covers(ms(15), None));
    }

    #[test]
    fn certain_drop_fires_inside_scope_only() {
        let plan = FaultPlan::new().inject(
            FaultKind::WireDrop { prob: 1.0 },
            FaultScope::window(ms(10), ms(20)),
        );
        let mut inj = FaultInjector::from_plan(&plan, 3);
        assert!(!inj.wire_drop(ms(5), 0));
        assert!(inj.wire_drop(ms(15), 0));
        inj.note_wire_request_dropped();
        assert!(!inj.wire_drop(ms(25), 0));
        assert_eq!(inj.stats().wire_requests_dropped, 1);
        assert_eq!(inj.log().len(), 1);
    }

    #[test]
    fn same_seed_same_plan_replays_identically() {
        let plan = FaultPlan::new().with_seed(99).inject(
            FaultKind::IrqLoss { prob: 0.5 },
            FaultScope::window(ms(0), ms(100)),
        );
        let mut a = FaultInjector::from_plan(&plan, 1);
        let mut b = FaultInjector::from_plan(&plan, 2); // master seed ignored
        let da: Vec<bool> = (0..64).map(|i| a.irq_lost(ms(i), 0)).collect();
        let db: Vec<bool> = (0..64).map(|i| b.irq_lost(ms(i), 0)).collect();
        assert_eq!(da, db, "plan seed overrides the master seed");
        assert!(da.iter().any(|&x| x), "p=0.5 over 64 draws");
        assert!(da.iter().any(|&x| !x));
    }

    #[test]
    fn modal_overrides_pick_tightest_or_latest() {
        let plan = FaultPlan::new()
            .inject(
                FaultKind::RxRingClamp { capacity: 64 },
                FaultScope::window(ms(0), ms(50)),
            )
            .inject(
                FaultKind::RxRingClamp { capacity: 16 },
                FaultScope::window(ms(10), ms(30)),
            )
            .inject(
                FaultKind::ItrOverride {
                    itr: SimDuration::from_micros(200),
                },
                FaultScope::window(ms(0), ms(50)),
            );
        let inj = FaultInjector::from_plan(&plan, 1);
        assert_eq!(inj.rx_ring_clamp(ms(5)), Some(64));
        assert_eq!(inj.rx_ring_clamp(ms(20)), Some(16), "tightest clamp wins");
        assert_eq!(inj.rx_ring_clamp(ms(60)), None);
        assert_eq!(inj.itr_override(ms(5)), Some(SimDuration::from_micros(200)));
    }

    #[test]
    fn thermal_clamp_raises_fast_requests_only() {
        let plan = FaultPlan::new().inject(
            FaultKind::ThermalThrottle { floor: 5 },
            FaultScope::window(ms(0), ms(100)),
        );
        let mut inj = FaultInjector::from_plan(&plan, 1);
        assert_eq!(inj.clamp_pstate(ms(1), 0), 5, "P0 clamped to the floor");
        assert_eq!(inj.clamp_pstate(ms(1), 9), 9, "slow request untouched");
        assert_eq!(inj.stats().pstate_clamps, 1);
        assert_eq!(inj.clamp_pstate(ms(200), 0), 0, "outside the scope");
    }

    #[test]
    fn load_factor_composes_multiplicatively() {
        let plan = FaultPlan::new()
            .inject(
                FaultKind::LoadSpike { factor: 2.0 },
                FaultScope::window(ms(0), ms(50)),
            )
            .inject(
                FaultKind::LoadSpike { factor: 3.0 },
                FaultScope::window(ms(25), ms(75)),
            );
        let inj = FaultInjector::from_plan(&plan, 1);
        assert_eq!(inj.load_factor(ms(10)), 2.0);
        assert_eq!(inj.load_factor(ms(30)), 6.0);
        assert_eq!(inj.load_factor(ms(60)), 3.0);
        assert_eq!(inj.load_factor(ms(80)), 1.0);
    }

    #[test]
    fn recovery_join_attributes_and_measures() {
        let scopes = [FaultScope::window(ms(100), ms(200))];
        let grace = RECOVERY_GRACE.as_nanos();
        let episodes = [
            // Opened during the fault, closed later: attributed.
            (ms(150).as_nanos(), ms(400).as_nanos()),
            // Opened within grace after the fault end: attributed.
            (ms(200).as_nanos() + grace, ms(500).as_nanos()),
            // Opened well before the fault: unattributed.
            (ms(10).as_nanos(), ms(20).as_nanos()),
            // Opened during the fault, never recovered.
            (ms(160).as_nanos(), u64::MAX),
        ];
        let s = join_recovery(&scopes, &episodes);
        assert_eq!(s.attributed, 3);
        assert_eq!(s.recovered, 2);
        assert_eq!(s.unrecovered, 1);
        assert_eq!(s.unattributed, 1);
        // Recovery is measured from the fault onset (100 ms).
        assert_eq!(s.max_recovery_ns, ms(400).as_nanos());
        assert_eq!(
            s.mean_recovery_ns,
            (ms(300).as_nanos() + ms(400).as_nanos()) / 2
        );
    }

    #[test]
    fn labels_are_unique() {
        let kinds = [
            FaultKind::WireDrop { prob: 0.0 },
            FaultKind::IrqLoss { prob: 0.0 },
            FaultKind::SpuriousIrq {
                period: SimDuration::ZERO,
            },
            FaultKind::StuckIrqMask,
            FaultKind::ItrOverride {
                itr: SimDuration::ZERO,
            },
            FaultKind::RxRingClamp { capacity: 0 },
            FaultKind::MissedKsoftirqdWake {
                delay: SimDuration::ZERO,
                prob: 0.0,
            },
            FaultKind::PollBudgetClamp { budget: 0 },
            FaultKind::NapiSignalLoss { prob: 0.0 },
            FaultKind::NapiSignalStuck {
                period: SimDuration::ZERO,
            },
            FaultKind::DvfsLatencySpike {
                extra: SimDuration::ZERO,
            },
            FaultKind::ThermalThrottle { floor: 0 },
            FaultKind::CoreStall {
                stall: SimDuration::ZERO,
            },
            FaultKind::LoadSpike { factor: 0.0 },
            FaultKind::IncastBurst { requests: 0 },
            FaultKind::ConnectionChurn { shift: 0 },
            FaultKind::ServerCrash,
            FaultKind::HealthViewStale,
            FaultKind::LinkLatencySpike {
                extra: SimDuration::ZERO,
            },
            FaultKind::LinkPartition,
            FaultKind::HashSkew { factor: 0.0 },
            FaultKind::AdmissionDisable,
        ];
        let mut labels: Vec<_> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn cluster_queries_respect_scope_and_pin() {
        let plan = FaultPlan::new()
            .inject(
                FaultKind::ServerCrash,
                FaultScope::window(ms(10), ms(20)).on_core(2),
            )
            .inject(
                FaultKind::HealthViewStale,
                FaultScope::window(ms(30), ms(40)),
            )
            .inject(
                FaultKind::LinkLatencySpike {
                    extra: SimDuration::from_micros(500),
                },
                FaultScope::window(ms(10), ms(20)).on_core(1),
            )
            .inject(
                FaultKind::LinkPartition,
                FaultScope::window(ms(50), ms(60)).on_core(0),
            )
            .inject(
                FaultKind::HashSkew { factor: 4.0 },
                FaultScope::window(ms(10), ms(20)).on_core(3),
            );
        let mut inj = FaultInjector::from_plan(&plan, 1);
        assert!(inj.server_crashed(ms(15), 2));
        assert!(!inj.server_crashed(ms(15), 1), "pin restricts the crash");
        assert!(!inj.server_crashed(ms(25), 2), "window is half-open");
        assert!(inj.health_view_stale(ms(35)));
        assert!(!inj.health_view_stale(ms(15)));
        assert_eq!(inj.link_extra(ms(15), 1), SimDuration::from_micros(500));
        assert_eq!(inj.link_extra(ms(15), 2), SimDuration::ZERO);
        assert!(inj.link_partitioned(ms(55), 0));
        assert!(!inj.link_partitioned(ms(55), 1));
        assert_eq!(inj.hash_skew(ms(15)), Some((4.0, 3)));
        assert_eq!(inj.hash_skew(ms(45)), None);
        inj.note_server_crash(ms(10), 2);
        inj.note_server_recover(ms(20), 2);
        inj.note_partition_drop(ms(55), 0);
        inj.note_skewed_steer(ms(15), 3);
        inj.note_stale_probe(ms(35), 1);
        let s = inj.stats();
        assert_eq!(s.server_crashes, 1);
        assert_eq!(s.server_recoveries, 1);
        assert_eq!(s.partition_drops, 1);
        assert_eq!(s.skewed_steers, 1);
        assert_eq!(s.stale_probes, 1);
        assert_eq!(s.link_delays, 1);
        assert_eq!(s.total(), 6);
    }

    #[test]
    fn validate_accepts_empty_and_sane_plans() {
        assert!(FaultPlan::new().validate(8).is_ok());
        let plan = FaultPlan::new().inject(
            FaultKind::WireDrop { prob: 0.3 },
            FaultScope::window(SimTime::from_millis(10), SimTime::from_millis(20)).on_core(3),
        );
        assert!(plan.validate(8).is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        let w = FaultScope::window(SimTime::from_millis(10), SimTime::from_millis(20));
        let inverted = FaultScope::window(SimTime::from_millis(20), SimTime::from_millis(10));
        let cases = [
            FaultPlan::new().inject(FaultKind::WireDrop { prob: 0.5 }, inverted),
            FaultPlan::new().inject(FaultKind::WireDrop { prob: 1.5 }, w),
            FaultPlan::new().inject(FaultKind::WireDrop { prob: f64::NAN }, w),
            FaultPlan::new().inject(FaultKind::IrqLoss { prob: -0.1 }, w),
            FaultPlan::new().inject(
                FaultKind::SpuriousIrq {
                    period: SimDuration::ZERO,
                },
                w,
            ),
            FaultPlan::new().inject(FaultKind::RxRingClamp { capacity: 0 }, w),
            FaultPlan::new().inject(FaultKind::PollBudgetClamp { budget: 0 }, w),
            FaultPlan::new().inject(FaultKind::LoadSpike { factor: 0.0 }, w),
            FaultPlan::new().inject(FaultKind::IncastBurst { requests: 0 }, w),
            FaultPlan::new().inject(FaultKind::StuckIrqMask, w.on_core(8)),
            FaultPlan::new().inject(FaultKind::HashSkew { factor: 1.0 }, w),
            FaultPlan::new().inject(FaultKind::HashSkew { factor: f64::NAN }, w),
            FaultPlan::new().inject(
                FaultKind::HashSkew {
                    factor: f64::INFINITY,
                },
                w,
            ),
        ];
        for (i, plan) in cases.iter().enumerate() {
            let err = plan.validate(8).expect_err("case must be rejected");
            assert!(err.is_config(), "case {i}: wrong error kind: {err:?}");
        }
    }

    /// Every query hook, driven over a fixed grid of times and cores
    /// against a plan that overlaps two specs (one pinned to a core,
    /// one unpinned) of each probabilistic kind and holds at least one
    /// spec of every other kind: the outcomes, the counters, the log
    /// and the fault stream's position replay exactly as pinned.
    #[test]
    fn hooks_replay_a_pinned_outcome_sequence() {
        use FaultKind::*;
        let us = SimDuration::from_micros;
        let w = |a, b| FaultScope::window(ms(a), ms(b));
        let plan = FaultPlan::new()
            .with_seed(11)
            .inject(WireDrop { prob: 0.3 }, w(0, 30).on_core(1))
            .inject(WireDrop { prob: 0.5 }, w(10, 40))
            .inject(IrqLoss { prob: 0.4 }, w(5, 25))
            .inject(IrqLoss { prob: 0.6 }, w(15, 35).on_core(2))
            .inject(
                MissedKsoftirqdWake {
                    delay: us(50),
                    prob: 0.5,
                },
                w(0, 20).on_core(0),
            )
            .inject(
                MissedKsoftirqdWake {
                    delay: us(80),
                    prob: 0.5,
                },
                w(10, 30),
            )
            .inject(NapiSignalLoss { prob: 0.5 }, w(20, 40))
            .inject(NapiSignalLoss { prob: 0.7 }, w(5, 30).on_core(1))
            .inject(SpuriousIrq { period: us(100) }, w(0, 40))
            .inject(StuckIrqMask, w(12, 18).on_core(2))
            .inject(ItrOverride { itr: us(200) }, w(0, 20))
            .inject(ItrOverride { itr: us(20) }, w(10, 30))
            .inject(RxRingClamp { capacity: 64 }, w(0, 40))
            .inject(RxRingClamp { capacity: 16 }, w(15, 25).on_core(1))
            .inject(PollBudgetClamp { budget: 8 }, w(5, 15).on_core(0))
            .inject(PollBudgetClamp { budget: 4 }, w(10, 20))
            .inject(NapiSignalStuck { period: us(500) }, w(30, 40))
            .inject(DvfsLatencySpike { extra: us(30) }, w(0, 20))
            .inject(DvfsLatencySpike { extra: us(70) }, w(10, 30).on_core(2))
            .inject(ThermalThrottle { floor: 3 }, w(5, 25))
            .inject(ThermalThrottle { floor: 6 }, w(20, 35).on_core(1))
            .inject(CoreStall { stall: us(5) }, w(0, 30).on_core(1))
            .inject(CoreStall { stall: us(7) }, w(25, 40))
            .inject(LoadSpike { factor: 1.5 }, w(10, 30))
            .inject(LoadSpike { factor: 2.0 }, w(20, 40))
            .inject(IncastBurst { requests: 40 }, w(8, 9))
            .inject(ConnectionChurn { shift: 3 }, w(16, 17))
            .inject(ServerCrash, w(5, 15).on_core(2))
            .inject(HealthViewStale, w(10, 20))
            .inject(LinkLatencySpike { extra: us(300) }, w(0, 25).on_core(0))
            .inject(LinkLatencySpike { extra: us(100) }, w(15, 40))
            .inject(LinkPartition, w(20, 30).on_core(1))
            .inject(HashSkew { factor: 3.0 }, w(0, 20).on_core(2))
            .inject(HashSkew { factor: 5.0 }, w(15, 35))
            .inject(AdmissionDisable, w(25, 35).on_core(0));
        assert!(plan.validate(3).is_ok());
        let mut inj = FaultInjector::from_plan(&plan, 1);
        let mut outcomes = String::new();
        for step in 0..84u64 {
            let now = SimTime::from_micros(step * 500 + 250);
            for core in 0..3 {
                let target = ((step as usize + core) % 8) as u8;
                let line = format!(
                    "{:?}\n",
                    (
                        (
                            inj.wire_drop(now, core),
                            inj.irq_lost(now, core),
                            inj.irq_mask_stuck(now, core),
                            inj.itr_override(now),
                            inj.rx_ring_clamp(now),
                            inj.wake_delay(now, core),
                        ),
                        (
                            inj.poll_budget_clamp(now, core),
                            inj.signal_suppressed(now, core),
                            inj.dvfs_padding(now),
                            inj.clamp_pstate(now, target),
                            inj.exec_stall(now, core),
                            inj.load_factor(now),
                        ),
                        (
                            inj.server_crashed(now, core),
                            inj.health_view_stale(now),
                            inj.link_extra(now, core),
                            inj.link_partitioned(now, core),
                            inj.hash_skew(now),
                            inj.admission_bypassed(now, core),
                        ),
                    )
                );
                outcomes.push_str(&line);
            }
            if step % 7 == 3 {
                let core = (step % 3) as usize;
                inj.note_wire_request_dropped();
                inj.note_wire_response_dropped();
                inj.note_spurious_irq(now, core);
                inj.note_signal_replayed(now, core);
                inj.note_stale_probe(now, core);
                inj.note_partition_drop(now, core);
                inj.note_skewed_steer(now, core);
            }
        }
        inj.note_load_switch(ms(10));
        inj.note_flow_churn(ms(16));
        inj.note_server_crash(ms(5), 2);
        inj.note_server_recover(ms(15), 2);
        let log: String = inj.log().iter().map(|e| format!("{e:?}\n")).collect();
        let digest = |s: &str| crate::hash::fnv1a(s.bytes());
        assert_eq!(
            inj.stats(),
            FaultStats {
                wire_requests_dropped: 12,
                wire_responses_dropped: 12,
                irqs_lost: 63,
                spurious_irqs: 12,
                irq_unmasks_blocked: 12,
                wakes_delayed: 71,
                signals_suppressed: 92,
                signals_replayed: 12,
                polls_clamped: 70,
                dvfs_delays: 180,
                pstate_clamps: 100,
                exec_stalls: 140,
                load_switches: 1,
                incast_requests: 0,
                flow_churns: 1,
                server_crashes: 1,
                server_recoveries: 1,
                link_delays: 180,
                partition_drops: 12,
                skewed_steers: 12,
                stale_probes: 12,
                admission_bypasses: 20,
            }
        );
        assert_eq!(
            inj.log()[..3],
            [
                (SimTime::from_micros(250), "wire-drop", 1),
                (SimTime::from_micros(1250), "missed-wake", 0),
                (SimTime::from_micros(1750), "wire-drop", 1),
            ]
        );
        assert_eq!(inj.log().len(), 420);
        assert_eq!(digest(&log), 0x5c69_24c0_f453_a053);
        assert_eq!(digest(&outcomes), 0x6a0b_2662_c40d_a80a);
        assert_eq!(
            inj.rng.next_u64(),
            0x08d7_008d_5f9d_a8e1,
            "the fault stream advanced by a different number of draws"
        );
    }
}
