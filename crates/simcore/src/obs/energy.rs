//! Per-core energy attribution and the governor decision flight
//! recorder.
//!
//! Energy is the paper's headline metric (§6, Fig 8), but a single
//! RAPL scalar per run says only *that* a governor saved joules, not
//! *where* they went. This module is the energy-side twin of
//! [`crate::obs::attrib`]: it decomposes every joule the power model
//! emits into typed [`EnergyComponent`]s — busy execution per P-state
//! bucket, IRQ/softirq handling, C0 idle burn, C-state wake
//! transitions, C1/C6 residency, and package uncore — with an
//! integer-exact conservation identity:
//!
//! ```text
//! measured_uj == Σ breakdown[component]      (per core, microjoules)
//! ```
//!
//! The identity holds exactly because both sides are built from the
//! *same* fixed-point segments: every time a core's power integral
//! advances, the segment's energy is rounded to whole microjoules
//! once, then added to the measured total *and* to exactly one
//! component. A hook-site bug (a segment skipped, double-classified,
//! or mis-rounded) breaks the equality; the audit pass checks it per
//! core and cross-checks the integer total against the independent
//! `f64` incremental integral within rounding tolerance.
//!
//! [`FlightRecorder`] is the second half: a bounded ring of every
//! governor decision with its input-feature snapshot
//! ([`GovDecision`]: utilization, NAPI mode, queue depth, trigger)
//! and the resulting operating-point change — the black-box recorder
//! you replay after a bad tail-latency episode to see what the
//! governor was looking at when it acted.

use crate::time::{round_positive, SimDuration, SimTime};
use std::collections::VecDeque;

/// One typed destination for a core's (or the package's) energy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum EnergyComponent {
    /// Application execution at the fastest P-state (index 0).
    #[default]
    BusyP0,
    /// Application execution in the upper half of the P-state table
    /// (excluding P0).
    BusyHigh,
    /// Application execution in the lower half of the P-state table
    /// (excluding Pmin).
    BusyLow,
    /// Application execution at the slowest P-state.
    BusyPmin,
    /// Hardirq and softirq (NAPI poll) execution, any P-state.
    Irq,
    /// Idle in CC0 outside a wake window: clocks running, no
    /// instructions (the `disable` sleep policy's burn).
    IdleC0,
    /// CC0 burn inside a C-state exit window: the wake-transition
    /// energy paid between the wake call and the core becoming
    /// usable.
    WakeC0,
    /// CC1 residency (clock-gated leakage).
    SleepC1,
    /// CC6 residency (power-gated residual).
    SleepC6,
    /// Package uncore (LLC, memory controller); package-level, never
    /// appears in a per-core breakdown.
    Uncore,
}

/// Number of energy components.
pub const COMPONENTS: usize = 10;

impl EnergyComponent {
    /// All components, in display order.
    pub const ALL: [EnergyComponent; COMPONENTS] = [
        EnergyComponent::BusyP0,
        EnergyComponent::BusyHigh,
        EnergyComponent::BusyLow,
        EnergyComponent::BusyPmin,
        EnergyComponent::Irq,
        EnergyComponent::IdleC0,
        EnergyComponent::WakeC0,
        EnergyComponent::SleepC1,
        EnergyComponent::SleepC6,
        EnergyComponent::Uncore,
    ];

    /// Short column label for report tables (also the trace-counter
    /// name on the `energy` track).
    pub fn label(self) -> &'static str {
        match self {
            EnergyComponent::BusyP0 => "busy-p0",
            EnergyComponent::BusyHigh => "busy-hi",
            EnergyComponent::BusyLow => "busy-lo",
            EnergyComponent::BusyPmin => "busy-pmin",
            EnergyComponent::Irq => "irq",
            EnergyComponent::IdleC0 => "idle-c0",
            EnergyComponent::WakeC0 => "wake-c0",
            EnergyComponent::SleepC1 => "c1",
            EnergyComponent::SleepC6 => "c6",
            EnergyComponent::Uncore => "uncore",
        }
    }

    /// Metrics-registry counter key for this component.
    pub fn metric_key(self) -> &'static str {
        match self {
            EnergyComponent::BusyP0 => "energy.busy_p0",
            EnergyComponent::BusyHigh => "energy.busy_high",
            EnergyComponent::BusyLow => "energy.busy_low",
            EnergyComponent::BusyPmin => "energy.busy_pmin",
            EnergyComponent::Irq => "energy.irq",
            EnergyComponent::IdleC0 => "energy.idle_c0",
            EnergyComponent::WakeC0 => "energy.wake_c0",
            EnergyComponent::SleepC1 => "energy.c1",
            EnergyComponent::SleepC6 => "energy.c6",
            EnergyComponent::Uncore => "energy.uncore",
        }
    }
}

/// What busy time on a core is serving, for attribution purposes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BusyRole {
    /// Application request service.
    #[default]
    App,
    /// Interrupt-side work: hardirq handlers and softirq (NAPI) poll
    /// batches.
    Irq,
}

/// Maps a P-state table position to its busy bucket. `index` 0 is
/// P0 (fastest), `len - 1` is Pmin; interior states split at the
/// table midpoint.
#[inline]
pub fn busy_bucket(index: usize, len: usize) -> EnergyComponent {
    if index == 0 {
        EnergyComponent::BusyP0
    } else if index + 1 >= len {
        EnergyComponent::BusyPmin
    } else if index < len / 2 {
        EnergyComponent::BusyHigh
    } else {
        EnergyComponent::BusyLow
    }
}

/// Rounds one power×time segment to whole microjoules, in isolation.
/// [`CoreEnergyMeter`] additionally carries the sub-microjoule
/// remainder between segments (see its `carry` field) so cumulative
/// drift from the `f64` integral stays bounded; this free function is
/// the remainder-free reference quantization.
pub fn segment_uj(power_w: f64, dt: SimDuration) -> u64 {
    let uj = power_w * dt.as_nanos() as f64 / 1000.0;
    if uj <= 0.0 {
        0
    } else {
        round_positive(uj)
    }
}

/// The activity class of one accounting segment, as the CPU model
/// sees it. The meter refines `Busy` by [`BusyRole`] and splits
/// `IdleC0` at the wake-window boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeterClass {
    /// Executing instructions at P-state `index` of a `len`-entry
    /// table.
    Busy {
        /// P-state table index (0 = fastest).
        index: usize,
        /// P-state table length.
        len: usize,
    },
    /// In CC0, not executing.
    IdleC0,
    /// In CC1.
    SleepC1,
    /// In CC6.
    SleepC6,
}

/// One core's per-request-free energy decomposition, microjoules per
/// [`EnergyComponent`]. Plain data, always available.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyBreakdown {
    uj: [u64; COMPONENTS],
}

impl EnergyBreakdown {
    /// Adds `uj` microjoules to `component`. Saturates: a pinned
    /// counter shows as an audit imbalance, not a wrap.
    #[inline]
    pub fn add_uj(&mut self, component: EnergyComponent, uj: u64) {
        let slot = &mut self.uj[component as usize];
        *slot = slot.saturating_add(uj);
    }

    /// Microjoules attributed to `component`.
    pub fn get_uj(&self, component: EnergyComponent) -> u64 {
        self.uj[component as usize]
    }

    /// Sum over all components — must equal the measured total.
    pub fn total_uj(&self) -> u64 {
        self.uj.iter().fold(0u64, |acc, &n| acc.saturating_add(n))
    }

    /// Iterates `(component, microjoules)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (EnergyComponent, u64)> + '_ {
        EnergyComponent::ALL
            .iter()
            .map(move |&c| (c, self.uj[c as usize]))
    }

    /// Component-wise sum of two breakdowns (saturating).
    pub fn merged(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        let mut out = *self;
        for (c, uj) in other.iter() {
            out.add_uj(c, uj);
        }
        out
    }

    /// Component-wise difference `self − earlier` (saturating at 0;
    /// both sides grow monotonically, so a genuine window delta never
    /// clamps).
    pub fn since(&self, earlier: &EnergyBreakdown) -> EnergyBreakdown {
        let mut out = EnergyBreakdown::default();
        for (c, uj) in self.iter() {
            out.add_uj(c, uj.saturating_sub(earlier.get_uj(c)));
        }
        out
    }
}

/// The fixed-point energy accumulator embedded in each simulated
/// core.
///
/// The CPU model drives it alongside its `f64` power integral: every
/// accounting segment calls [`advance`](Self::advance) with the
/// segment's instantaneous power and activity class. The meter keeps
/// its own cursor, so observability-only advancement points (role
/// changes, mode-boundary snapshots) never perturb the `f64` path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreEnergyMeter {
    last: SimTime,
    wake_until: SimTime,
    role: BusyRole,
    measured_uj: u64,
    breakdown: EnergyBreakdown,
    /// Sub-microjoule remainder carried between segments. Many
    /// segments repeat the exact same power×duration product (fixed
    /// hardirq cost at a fixed frequency), so independent per-segment
    /// rounding would bias in one direction and drift linearly from
    /// the `f64` integral; carrying the remainder bounds the
    /// cumulative error at half a microjoule.
    carry: f64,
}

impl CoreEnergyMeter {
    /// Creates a meter anchored at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn add(&mut self, component: EnergyComponent, power_w: f64, dt: SimDuration) {
        let exact = (power_w * dt.as_nanos() as f64 / 1000.0).max(0.0);
        let acc = exact + self.carry;
        let uj = if acc <= 0.0 { 0 } else { round_positive(acc) };
        self.carry = acc - uj as f64;
        self.measured_uj = self.measured_uj.saturating_add(uj);
        self.breakdown.add_uj(component, uj);
    }

    /// Advances the meter's cursor to `now`, attributing the elapsed
    /// segment at `power_w` watts under activity `class`. `Busy`
    /// segments are refined by the current [`BusyRole`]; `IdleC0`
    /// segments split at the wake-window boundary so transition burn
    /// lands in [`EnergyComponent::WakeC0`].
    #[inline]
    pub fn advance(&mut self, now: SimTime, power_w: f64, class: MeterClass) {
        if now <= self.last {
            return;
        }
        let dt = now.saturating_since(self.last);
        match class {
            MeterClass::Busy { index, len } => {
                let component = match self.role {
                    BusyRole::App => busy_bucket(index, len),
                    BusyRole::Irq => EnergyComponent::Irq,
                };
                self.add(component, power_w, dt);
            }
            MeterClass::IdleC0 => {
                if self.last < self.wake_until {
                    let split = self.wake_until.min(now);
                    self.add(
                        EnergyComponent::WakeC0,
                        power_w,
                        split.saturating_since(self.last),
                    );
                    if now > split {
                        self.add(
                            EnergyComponent::IdleC0,
                            power_w,
                            now.saturating_since(split),
                        );
                    }
                } else {
                    self.add(EnergyComponent::IdleC0, power_w, dt);
                }
            }
            MeterClass::SleepC1 => self.add(EnergyComponent::SleepC1, power_w, dt),
            MeterClass::SleepC6 => self.add(EnergyComponent::SleepC6, power_w, dt),
        }
        self.last = now;
    }

    /// Sets the busy-attribution role for segments from here on.
    /// Callers must advance the meter to the role-change time first.
    #[inline]
    pub fn set_role(&mut self, role: BusyRole) {
        self.role = role;
    }

    /// The current busy-attribution role.
    pub fn role(&self) -> BusyRole {
        self.role
    }

    /// Declares a C-state exit in progress until `until`: CC0 idle
    /// burn before that instant is wake-transition energy. Extends
    /// (never shortens) any open window.
    #[inline]
    pub fn note_wake(&mut self, until: SimTime) {
        self.wake_until = self.wake_until.max(until);
    }

    /// Total microjoules measured so far.
    pub fn measured_uj(&self) -> u64 {
        self.measured_uj
    }

    /// The component decomposition so far.
    pub fn breakdown(&self) -> EnergyBreakdown {
        self.breakdown
    }
}

/// What prompted a governor to act.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum DecisionTrigger {
    /// The periodic utilization sample tick.
    #[default]
    Sample,
    /// A ksoftirqd wake (poll overrun — NMAP's polling signal).
    Ksoftirqd,
    /// A retired NAPI poll batch.
    PollBatch,
    /// A NIC Rx-window observation.
    NicWindow,
    /// A completed request's end-to-end latency sample.
    RequestLatency,
}

/// Number of decision triggers.
pub const TRIGGERS: usize = 5;

impl DecisionTrigger {
    /// All triggers, in declaration order.
    pub const ALL: [DecisionTrigger; TRIGGERS] = [
        DecisionTrigger::Sample,
        DecisionTrigger::Ksoftirqd,
        DecisionTrigger::PollBatch,
        DecisionTrigger::NicWindow,
        DecisionTrigger::RequestLatency,
    ];

    /// Short label for reports and traces.
    pub fn label(self) -> &'static str {
        match self {
            DecisionTrigger::Sample => "sample",
            DecisionTrigger::Ksoftirqd => "ksoftirqd",
            DecisionTrigger::PollBatch => "poll",
            DecisionTrigger::NicWindow => "nic",
            DecisionTrigger::RequestLatency => "latency",
        }
    }
}

/// One governor decision with the feature snapshot it acted on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovDecision {
    /// When the decision was applied.
    pub at: SimTime,
    /// The core whose operating point changed.
    pub core: u32,
    /// What prompted the governor to run.
    pub trigger: DecisionTrigger,
    /// The core's last sampled CC0 utilization, per mille.
    pub util_permille: u32,
    /// True if the core's NAPI context was in polling mode.
    pub polling: bool,
    /// Rx-ring backlog of the core's queue at decision time.
    pub queue_depth: u32,
    /// P-state index before the decision (0 = fastest).
    pub from_pstate: u32,
    /// Requested P-state index (0 = fastest).
    pub to_pstate: u32,
    /// True when the action targeted every core (chip-wide DVFS).
    pub chip_wide: bool,
}

/// A bounded ring of [`GovDecision`]s with drop accounting — the
/// governor's flight recorder. When full, the *oldest* decision is
/// evicted (a flight recorder keeps the most recent history).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightRecorder {
    ring: VecDeque<GovDecision>,
    capacity: usize,
    evicted: u64,
    total: u64,
    raises: u64,
    lowers: u64,
    by_trigger: [u64; TRIGGERS],
}

impl FlightRecorder {
    /// A recorder retaining up to `capacity` most-recent decisions.
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            ring: VecDeque::new(),
            capacity,
            ..Self::default()
        }
    }

    /// Records one decision, evicting the oldest if the ring is
    /// full.
    #[inline]
    pub fn record(&mut self, decision: GovDecision) {
        self.total += 1;
        self.by_trigger[decision.trigger as usize] += 1;
        // P0 is index 0: a smaller target index raises the
        // operating point.
        if decision.to_pstate < decision.from_pstate {
            self.raises += 1;
        } else if decision.to_pstate > decision.from_pstate {
            self.lowers += 1;
        }
        if self.capacity == 0 {
            self.evicted += 1;
            return;
        }
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(decision);
    }

    /// Decisions ever recorded (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Decisions evicted from the ring to make room.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Freezes the recorder into a [`FlightSummary`].
    pub fn summary(&self) -> FlightSummary {
        FlightSummary {
            total: self.total,
            evicted: self.evicted,
            raises: self.raises,
            lowers: self.lowers,
            by_trigger: self.by_trigger.to_vec(),
            decisions: self.ring.iter().copied().collect(),
        }
    }
}

/// End-of-run flight-recorder summary (lives in `RunResult`;
/// `PartialEq` so determinism suites compare it between same-seed
/// runs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightSummary {
    /// Decisions ever recorded.
    pub total: u64,
    /// Decisions evicted from the bounded ring.
    pub evicted: u64,
    /// Decisions that raised the operating point (lower P-state
    /// index).
    pub raises: u64,
    /// Decisions that lowered the operating point.
    pub lowers: u64,
    /// Decision counts per [`DecisionTrigger`], in
    /// [`DecisionTrigger::ALL`] order.
    pub by_trigger: Vec<u64>,
    /// The retained most-recent decisions, oldest first.
    pub decisions: Vec<GovDecision>,
}

impl FlightSummary {
    /// Decision count for one trigger.
    pub fn trigger_count(&self, trigger: DecisionTrigger) -> u64 {
        self.by_trigger.get(trigger as usize).copied().unwrap_or(0)
    }
}

/// Energy split across packet-processing modes, microjoules. The
/// three buckets partition the cores' measured energy exactly:
/// wake-transition burn is `transition`, everything else lands in the
/// NAPI mode the core's context was in while it burned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeEnergy {
    /// Core energy burned while the context was in interrupt mode.
    pub interrupt_uj: u64,
    /// Core energy burned while the context was in polling mode.
    pub polling_uj: u64,
    /// C-state wake-transition energy (mode-independent).
    pub transition_uj: u64,
}

impl ModeEnergy {
    /// Sum of the three buckets — equals the cores' measured total.
    pub fn total_uj(&self) -> u64 {
        self.interrupt_uj
            .saturating_add(self.polling_uj)
            .saturating_add(self.transition_uj)
    }
}

/// One core's row in an [`EnergySummary`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreEnergySummary {
    /// Core id.
    pub core: u32,
    /// Measured microjoules over the window.
    pub measured_uj: u64,
    /// Attributed decomposition over the window (sums to
    /// `measured_uj`).
    pub breakdown: EnergyBreakdown,
}

/// Window-scoped energy attribution for one run (lives in
/// `RunResult`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnergySummary {
    /// Per-core measured totals and decompositions.
    pub cores: Vec<CoreEnergySummary>,
    /// Package uncore energy over the window.
    pub uncore_uj: u64,
    /// The same core energy split by packet-processing mode.
    pub modes: ModeEnergy,
    /// RAPL interval reads that had to clamp a negative delta (a
    /// power-model non-monotonicity; audited to be 0).
    pub rapl_clamps: u64,
}

impl EnergySummary {
    /// Measured package microjoules: cores plus uncore.
    pub fn measured_total_uj(&self) -> u64 {
        self.cores
            .iter()
            .fold(self.uncore_uj, |acc, c| acc.saturating_add(c.measured_uj))
    }

    /// Attributed package microjoules: component sums plus uncore.
    pub fn attributed_total_uj(&self) -> u64 {
        self.cores.iter().fold(self.uncore_uj, |acc, c| {
            acc.saturating_add(c.breakdown.total_uj())
        })
    }

    /// Microjoules attributed to `component` across all cores
    /// (`Uncore` returns the package uncore term).
    pub fn component_uj(&self, component: EnergyComponent) -> u64 {
        if component == EnergyComponent::Uncore {
            return self.uncore_uj;
        }
        self.cores.iter().fold(0u64, |acc, c| {
            acc.saturating_add(c.breakdown.get_uj(component))
        })
    }

    /// The fraction of measured package energy in `component`.
    pub fn share(&self, component: EnergyComponent) -> f64 {
        let total = self.measured_total_uj();
        if total == 0 {
            return 0.0;
        }
        self.component_uj(component) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn busy_bucket_covers_the_table() {
        // 16-entry table: 0 → P0, 15 → Pmin, 1..8 → high, 8..15 → low.
        assert_eq!(busy_bucket(0, 16), EnergyComponent::BusyP0);
        assert_eq!(busy_bucket(1, 16), EnergyComponent::BusyHigh);
        assert_eq!(busy_bucket(7, 16), EnergyComponent::BusyHigh);
        assert_eq!(busy_bucket(8, 16), EnergyComponent::BusyLow);
        assert_eq!(busy_bucket(14, 16), EnergyComponent::BusyLow);
        assert_eq!(busy_bucket(15, 16), EnergyComponent::BusyPmin);
        // Degenerate 2-entry table still lands on the endpoints.
        assert_eq!(busy_bucket(0, 2), EnergyComponent::BusyP0);
        assert_eq!(busy_bucket(1, 2), EnergyComponent::BusyPmin);
    }

    #[test]
    fn segment_rounding_is_single_point() {
        assert_eq!(segment_uj(1.0, SimDuration::from_micros(1)), 1);
        assert_eq!(segment_uj(0.0004, SimDuration::from_micros(1)), 0);
        assert_eq!(segment_uj(10.0, SimDuration::from_millis(1)), 10_000);
        assert_eq!(segment_uj(-1.0, SimDuration::from_micros(1)), 0);
    }

    #[test]
    fn meter_conserves_across_roles_and_wakes() {
        let mut m = CoreEnergyMeter::new();
        // 0–10 µs: C6 sleep.
        m.advance(t(10), 0.12, MeterClass::SleepC6);
        // Wake window until 14 µs; 10–14 idle burn is transition.
        m.note_wake(t(14));
        m.advance(t(14), 5.0, MeterClass::IdleC0);
        // 14–20: IRQ-role busy.
        m.set_role(BusyRole::Irq);
        m.advance(t(20), 30.0, MeterClass::Busy { index: 0, len: 16 });
        // 20–40: app busy at P0, then 40–50 at Pmin.
        m.set_role(BusyRole::App);
        m.advance(t(40), 30.0, MeterClass::Busy { index: 0, len: 16 });
        m.advance(t(50), 8.0, MeterClass::Busy { index: 15, len: 16 });
        // 50–60: plain idle (wake window long past).
        m.advance(t(60), 5.0, MeterClass::IdleC0);
        let b = m.breakdown();
        assert_eq!(b.get_uj(EnergyComponent::SleepC6), 1); // 0.12 W × 10 µs
        assert_eq!(b.get_uj(EnergyComponent::WakeC0), 20); // 5 W × 4 µs
        assert_eq!(b.get_uj(EnergyComponent::Irq), 180); // 30 W × 6 µs
        assert_eq!(b.get_uj(EnergyComponent::BusyP0), 600); // 30 W × 20 µs
        assert_eq!(b.get_uj(EnergyComponent::BusyPmin), 80); // 8 W × 10 µs
        assert_eq!(b.get_uj(EnergyComponent::IdleC0), 50); // 5 W × 10 µs
        assert_eq!(m.measured_uj(), b.total_uj(), "conservation");
        assert_eq!(m.measured_uj(), 931);
    }

    #[test]
    fn idle_segment_straddling_wake_window_splits_exactly() {
        let mut m = CoreEnergyMeter::new();
        m.note_wake(t(6));
        // One 0–10 µs idle segment: 6 µs transition + 4 µs idle, and
        // the two separately rounded halves still sum to the
        // measured total by construction.
        m.advance(t(10), 3.3, MeterClass::IdleC0);
        let b = m.breakdown();
        assert_eq!(b.get_uj(EnergyComponent::WakeC0), 20); // 19.8 → 20
        assert_eq!(b.get_uj(EnergyComponent::IdleC0), 13); // 13.2 → 13
        assert_eq!(m.measured_uj(), b.total_uj());
    }

    #[test]
    fn stale_advance_is_a_no_op() {
        let mut m = CoreEnergyMeter::new();
        m.advance(t(10), 5.0, MeterClass::IdleC0);
        let before = m.measured_uj();
        m.advance(t(10), 5.0, MeterClass::IdleC0);
        m.advance(t(5), 50.0, MeterClass::Busy { index: 0, len: 16 });
        assert_eq!(m.measured_uj(), before);
    }

    #[test]
    fn recorder_keeps_most_recent_and_counts_evictions() {
        let mut r = FlightRecorder::with_capacity(2);
        for i in 0..5u32 {
            r.record(GovDecision {
                at: t(i as u64),
                core: i,
                trigger: DecisionTrigger::Sample,
                from_pstate: 4,
                to_pstate: if i % 2 == 0 { 0 } else { 8 },
                ..GovDecision::default()
            });
        }
        let s = r.summary();
        assert_eq!(s.total, 5);
        assert_eq!(s.evicted, 3);
        assert_eq!(s.raises, 3);
        assert_eq!(s.lowers, 2);
        assert_eq!(s.trigger_count(DecisionTrigger::Sample), 5);
        let cores: Vec<_> = s.decisions.iter().map(|d| d.core).collect();
        assert_eq!(cores, vec![3, 4], "ring keeps the most recent");
    }

    #[test]
    fn summary_identities_and_shares() {
        let mut a = EnergyBreakdown::default();
        a.add_uj(EnergyComponent::BusyP0, 600);
        a.add_uj(EnergyComponent::IdleC0, 400);
        let s = EnergySummary {
            cores: vec![CoreEnergySummary {
                core: 0,
                measured_uj: 1000,
                breakdown: a,
            }],
            uncore_uj: 1000,
            modes: ModeEnergy {
                interrupt_uj: 700,
                polling_uj: 200,
                transition_uj: 100,
            },
            rapl_clamps: 0,
        };
        assert_eq!(s.measured_total_uj(), 2000);
        assert_eq!(s.attributed_total_uj(), 2000);
        assert_eq!(s.modes.total_uj(), 1000, "modes partition core energy");
        assert_eq!(s.component_uj(EnergyComponent::Uncore), 1000);
        assert!((s.share(EnergyComponent::BusyP0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn breakdown_delta_roundtrips() {
        let mut early = EnergyBreakdown::default();
        early.add_uj(EnergyComponent::Irq, 5);
        let mut late = early;
        late.add_uj(EnergyComponent::Irq, 7);
        late.add_uj(EnergyComponent::SleepC1, 3);
        let d = late.since(&early);
        assert_eq!(d.get_uj(EnergyComponent::Irq), 7);
        assert_eq!(d.get_uj(EnergyComponent::SleepC1), 3);
        assert_eq!(early.merged(&d), late);
    }

    #[test]
    fn component_labels_are_unique() {
        let mut labels: Vec<_> = EnergyComponent::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), COMPONENTS);
        let mut keys: Vec<_> = EnergyComponent::ALL
            .iter()
            .map(|c| c.metric_key())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), COMPONENTS);
    }
}
