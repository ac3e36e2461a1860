//! A single core: activity state, P-state, C-state, and the
//! bookkeeping every governor needs — utilization sampling, CC0
//! residency, energy integration, and trace logs for the paper's
//! timeline figures.

use crate::cstate::CState;
use crate::dvfs::{CompletionResult, CoreDvfs, TransitionOutcome};
use crate::power::CoreActivity;
use crate::profiles::ProcessorProfile;
use crate::pstate::PState;
use simcore::{
    BusyRole, CoreEnergyMeter, EnergyBreakdown, EventLog, MeterClass, RngStream, SimDuration,
    SimTime,
};

/// Index of a core within its processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A utilization sample over one governor sampling window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilSample {
    /// Fraction of the window the core spent executing (ondemand's
    /// utilization input).
    pub busy_frac: f64,
    /// Fraction of the window the core resided in CC0, busy or idle
    /// (intel_pstate's utilization input).
    pub c0_frac: f64,
    /// Window length.
    pub window: SimDuration,
}

/// The cost of waking a sleeping core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeCost {
    /// Time before the core can start executing (Table 2).
    pub latency: SimDuration,
    /// Extra work time from re-filling flushed private caches
    /// (CC6 only, §5.2); the caller adds this to post-wake work.
    pub cache_refill: SimDuration,
}

/// Marks a (P-state, activity) pair with no residency slot yet.
const NO_SLOT: u32 = u32::MAX;

/// Index of a (P-state, activity) pair in [`Core`]'s slot table: one
/// row of [`CoreActivity`]s per P-state.
#[inline]
fn residency_key(pstate: PState, activity: CoreActivity) -> usize {
    pstate.index() as usize * CoreActivity::COUNT + activity as usize
}

/// One simulated core.
///
/// The core is a passive state machine: the server glue drives it
/// (`set_busy`, `enter_sleep`, `wake`, DVFS requests) and schedules
/// the events its methods imply.
///
/// # Examples
///
/// ```
/// use cpusim::{Core, CoreId, ProcessorProfile};
/// use simcore::{SimTime, SimDuration};
///
/// let profile = ProcessorProfile::xeon_gold_6134();
/// let mut core = Core::new(CoreId(0), &profile);
/// core.set_busy(true, SimTime::ZERO, &profile);
/// core.set_busy(false, SimTime::from_millis(6), &profile);
/// let sample = core.take_sample(SimTime::from_millis(10), &profile);
/// assert!((sample.busy_frac - 0.6).abs() < 1e-9);
/// assert!(core.energy_joules(SimTime::from_millis(10), &profile) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Core {
    id: CoreId,
    dvfs: CoreDvfs,
    /// The P-state currently in effect (mirrors the DVFS domain; in
    /// chip-wide mode it is set externally by the processor).
    pstate: PState,
    cstate: CState,
    /// When the current sleep state was entered (cache-refill scaling).
    sleep_started: Option<SimTime>,
    busy: bool,
    // --- energy integration ---
    energy_j: f64,
    last_account: SimTime,
    /// Fixed-point (microjoule) energy attribution meter. Keeps its
    /// own cursor so observability-only accounting points never
    /// perturb the `f64` integral.
    obs_energy: CoreEnergyMeter,
    /// Residency per (activity, P-state) — the independent side of
    /// the energy conservation audit — in first-seen order, so the
    /// audit sums in a fixed order.
    residency: Vec<(CoreActivity, PState, SimDuration)>,
    /// `residency` slot of each (P-state, activity) pair, at
    /// [`residency_key`]; [`NO_SLOT`] until the pair is first seen.
    residency_slot: Vec<u32>,
    // --- sampling window ---
    window_start: SimTime,
    busy_in_window: SimDuration,
    c0_in_window: SimDuration,
    // --- lifetime counters & traces ---
    total_busy: SimDuration,
    c6_entries: u64,
    pstate_log: EventLog<PState>,
    cstate_log: EventLog<CState>,
}

impl Core {
    /// Creates an idle core at the slowest P-state in CC0 (the state
    /// Linux boots governors into before their first decision).
    pub fn new(id: CoreId, profile: &ProcessorProfile) -> Self {
        let initial = profile.pstates.slowest();
        Core {
            id,
            dvfs: CoreDvfs::new(initial),
            pstate: initial,
            cstate: CState::C0,
            sleep_started: None,
            busy: false,
            energy_j: 0.0,
            last_account: SimTime::ZERO,
            obs_energy: CoreEnergyMeter::new(),
            residency: Vec::new(),
            residency_slot: vec![NO_SLOT; profile.pstates.len() * CoreActivity::COUNT],
            window_start: SimTime::ZERO,
            busy_in_window: SimDuration::ZERO,
            c0_in_window: SimDuration::ZERO,
            total_busy: SimDuration::ZERO,
            c6_entries: 0,
            pstate_log: EventLog::new(),
            cstate_log: EventLog::new(),
        }
    }

    /// This core's id.
    #[inline]
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The P-state currently in effect.
    #[inline]
    pub fn pstate(&self) -> PState {
        self.pstate
    }

    /// The C-state the core currently occupies.
    #[inline]
    pub fn cstate(&self) -> CState {
        self.cstate
    }

    /// True if the core is executing.
    #[inline]
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Current clock frequency in Hz.
    #[inline]
    pub fn frequency_hz(&self, profile: &ProcessorProfile) -> u64 {
        profile.pstates.frequency(self.pstate)
    }

    /// Instantaneous power draw at the current operating point and
    /// activity, in watts. Read-only: telemetry sampling uses this
    /// without touching the energy integral or the sampling window,
    /// so observing a core cannot perturb its energy accounting.
    #[inline]
    pub fn current_power_w(&self, profile: &ProcessorProfile) -> f64 {
        profile
            .power
            .core_power(profile.pstates.point(self.pstate), self.activity())
    }

    /// Wall time to execute `cycles` at the current frequency.
    #[inline]
    pub fn cycles_to_duration(&self, cycles: u64, profile: &ProcessorProfile) -> SimDuration {
        let f = self.frequency_hz(profile);
        SimDuration::from_nanos(((cycles as u128 * 1_000_000_000) / f as u128) as u64)
    }

    /// Cycles completed in `elapsed` wall time at the current
    /// frequency (used to rescale in-flight work on a V/F change).
    #[inline]
    pub fn duration_to_cycles(&self, elapsed: SimDuration, profile: &ProcessorProfile) -> u64 {
        let f = self.frequency_hz(profile);
        ((elapsed.as_nanos() as u128 * f as u128) / 1_000_000_000) as u64
    }

    #[inline]
    fn activity(&self) -> CoreActivity {
        if self.busy {
            CoreActivity::Busy
        } else {
            CoreActivity::idle_in(self.cstate)
        }
    }

    /// The attribution meter's activity class for the current state.
    #[inline]
    fn meter_class(&self, profile: &ProcessorProfile) -> MeterClass {
        match self.activity() {
            CoreActivity::Busy => MeterClass::Busy {
                index: self.pstate.index() as usize,
                len: profile.pstates.len(),
            },
            CoreActivity::IdleC0 => MeterClass::IdleC0,
            CoreActivity::SleepC1 => MeterClass::SleepC1,
            CoreActivity::SleepC6 => MeterClass::SleepC6,
        }
    }

    /// Advances only the fixed-point attribution meter to `now`,
    /// leaving the `f64` integral untouched — observability hooks
    /// (role changes, mode-boundary snapshots) use this so golden
    /// energy fixtures cannot drift.
    #[inline]
    pub fn obs_account(&mut self, now: SimTime, profile: &ProcessorProfile) {
        let power = profile
            .power
            .core_power(profile.pstates.point(self.pstate), self.activity());
        self.obs_energy
            .advance(now, power, self.meter_class(profile));
    }

    /// Integrates energy and residency up to `now`. Idempotent; called
    /// internally before every state change.
    #[inline]
    pub fn account(&mut self, now: SimTime, profile: &ProcessorProfile) {
        let dt = now.saturating_since(self.last_account);
        if dt.is_zero() {
            self.last_account = now.max(self.last_account);
            return;
        }
        let activity = self.activity();
        let power = profile
            .power
            .core_power(profile.pstates.point(self.pstate), activity);
        self.energy_j += power * dt.as_secs_f64();
        self.obs_energy
            .advance(now, power, self.meter_class(profile));
        let slot = &mut self.residency_slot[residency_key(self.pstate, activity)];
        match *slot {
            NO_SLOT => {
                *slot = self.residency.len() as u32;
                self.residency.push((activity, self.pstate, dt));
            }
            slot => self.residency[slot as usize].2 += dt,
        }
        if self.busy {
            self.busy_in_window += dt;
            self.total_busy += dt;
        }
        if activity.is_c0() {
            self.c0_in_window += dt;
        }
        self.last_account = now;
    }

    /// Marks the core busy or idle-in-CC0.
    ///
    /// # Panics
    ///
    /// Panics if marking busy while the core is asleep — callers must
    /// [`wake`](Core::wake) first.
    #[inline]
    pub fn set_busy(&mut self, busy: bool, now: SimTime, profile: &ProcessorProfile) {
        assert!(
            !(busy && self.cstate.is_sleep()),
            "cannot execute while asleep; wake the core first"
        );
        if busy == self.busy {
            return;
        }
        self.account(now, profile);
        self.busy = busy;
    }

    /// Puts the idle core into `state`.
    ///
    /// # Panics
    ///
    /// Panics if the core is busy.
    pub fn enter_sleep(&mut self, state: CState, now: SimTime, profile: &ProcessorProfile) {
        assert!(!self.busy, "cannot sleep while busy");
        if state == self.cstate {
            return;
        }
        self.account(now, profile);
        // Deepening an existing sleep keeps the original entry time.
        if self.sleep_started.is_none() {
            self.sleep_started = Some(now);
        }
        self.cstate = state;
        if state == CState::C6 {
            self.c6_entries += 1;
        }
        self.cstate_log.push(now, state);
    }

    /// Wakes a sleeping core, returning the wake cost. A core already
    /// in CC0 wakes for free. After this call the core is in CC0
    /// (idle); the caller applies `latency` before running work and
    /// spreads `cache_refill` over post-wake execution.
    pub fn wake(
        &mut self,
        now: SimTime,
        profile: &ProcessorProfile,
        rng: &mut RngStream,
    ) -> WakeCost {
        if self.cstate == CState::C0 {
            return WakeCost {
                latency: SimDuration::ZERO,
                cache_refill: SimDuration::ZERO,
            };
        }
        self.account(now, profile);
        let latency = profile.cstate_latencies.sample_wake(self.cstate, rng);
        let cache_refill = if self.cstate == CState::C6 {
            // The flush always happens, but after a short nap the
            // working set is still warm in the (unflushed) LLC, so the
            // refill is far cheaper than the cold-DRAM worst case the
            // paper measures (§5.2 notes its numbers are worst-case).
            let residency = self
                .sleep_started
                .map(|t| now.saturating_since(t))
                .unwrap_or(SimDuration::ZERO);
            let cold_frac = 0.2 + 0.8 * (residency.as_secs_f64() / 0.01).min(1.0);
            profile.cc6_cache_refill.mul_f64(cold_frac)
        } else {
            SimDuration::ZERO
        };
        self.cstate = CState::C0;
        self.sleep_started = None;
        self.cstate_log.push(now, CState::C0);
        // CC0 idle burn until the exit latency elapses is
        // wake-transition energy, not steady-state idle.
        self.obs_energy.note_wake(now + latency);
        WakeCost {
            latency,
            cache_refill,
        }
    }

    /// Sets the busy-attribution role (application vs interrupt-side
    /// work) for execution from `now` on, advancing the attribution
    /// meter to the boundary first.
    #[inline]
    pub fn set_busy_role(&mut self, role: BusyRole, now: SimTime, profile: &ProcessorProfile) {
        self.obs_account(now, profile);
        self.obs_energy.set_role(role);
    }

    /// Requests a P-state change on this core's own DVFS domain
    /// (per-core DVFS mode).
    pub fn request_pstate(
        &mut self,
        target: PState,
        now: SimTime,
        profile: &ProcessorProfile,
        rng: &mut RngStream,
    ) -> TransitionOutcome {
        self.dvfs.request(target, now, profile, rng)
    }

    /// Completes an in-flight DVFS transition. Accounts energy at the
    /// old operating point first, then switches frequency.
    pub fn complete_pstate(
        &mut self,
        token: u64,
        now: SimTime,
        profile: &ProcessorProfile,
        rng: &mut RngStream,
    ) -> CompletionResult {
        let result = self.dvfs.complete(token, now, profile, rng);
        match result {
            CompletionResult::Settled { new_state }
            | CompletionResult::FollowUp { new_state, .. } => {
                self.apply_pstate(new_state, now, profile);
            }
            CompletionResult::Stale => {}
        }
        result
    }

    /// Applies an externally decided P-state (chip-wide DVFS domain).
    pub fn apply_pstate(&mut self, p: PState, now: SimTime, profile: &ProcessorProfile) {
        if p == self.pstate {
            return;
        }
        self.account(now, profile);
        self.pstate = p;
        self.pstate_log.push(now, p);
    }

    /// Sets extra latency added to transitions started on this core's
    /// own DVFS domain (fault injection / slow-regulator modelling).
    pub fn set_transition_padding(&mut self, padding: SimDuration) {
        self.dvfs.set_transition_padding(padding);
    }

    /// The state this core's DVFS domain is heading towards.
    pub fn dvfs_target(&self) -> PState {
        self.dvfs.target()
    }

    /// True if this core's own DVFS domain has a transition in flight.
    pub fn is_transitioning(&self) -> bool {
        self.dvfs.is_transitioning()
    }

    /// Number of DVFS transitions started on this core's domain.
    pub fn transitions_started(&self) -> u64 {
        self.dvfs.transitions_started()
    }

    /// Ends the current sampling window and returns utilization and
    /// CC0 residency over it.
    pub fn take_sample(&mut self, now: SimTime, profile: &ProcessorProfile) -> UtilSample {
        self.account(now, profile);
        let window = now.saturating_since(self.window_start);
        let sample = if window.is_zero() {
            UtilSample {
                busy_frac: 0.0,
                c0_frac: 0.0,
                window,
            }
        } else {
            UtilSample {
                busy_frac: self.busy_in_window.as_secs_f64() / window.as_secs_f64(),
                c0_frac: self.c0_in_window.as_secs_f64() / window.as_secs_f64(),
                window,
            }
        };
        self.window_start = now;
        self.busy_in_window = SimDuration::ZERO;
        self.c0_in_window = SimDuration::ZERO;
        sample
    }

    /// Total energy consumed through `now` in joules.
    pub fn energy_joules(&mut self, now: SimTime, profile: &ProcessorProfile) -> f64 {
        self.account(now, profile);
        self.energy_j
    }

    /// Total microjoules measured by the fixed-point attribution
    /// meter through `now`.
    pub fn energy_uj(&mut self, now: SimTime, profile: &ProcessorProfile) -> u64 {
        self.obs_account(now, profile);
        self.obs_energy.measured_uj()
    }

    /// The attribution meter's component decomposition through `now`.
    /// Sums to
    /// [`energy_uj`](Self::energy_uj) exactly — the per-core energy
    /// conservation identity.
    pub fn energy_breakdown(
        &mut self,
        now: SimTime,
        profile: &ProcessorProfile,
    ) -> EnergyBreakdown {
        self.obs_account(now, profile);
        self.obs_energy.breakdown()
    }

    /// Recomputes this core's energy from the residency ledger —
    /// Σ power(activity, P-state) × residency — independently of the
    /// incremental integral [`energy_joules`](Self::energy_joules)
    /// maintains. The two must agree to ~1e-6 relative error; the
    /// conservation audit compares them.
    pub fn audited_energy_joules(&mut self, now: SimTime, profile: &ProcessorProfile) -> f64 {
        self.account(now, profile);
        self.residency
            .iter()
            .map(|&(activity, pstate, dur)| {
                profile
                    .power
                    .core_power(profile.pstates.point(pstate), activity)
                    * dur.as_secs_f64()
            })
            .sum()
    }

    /// Lifetime busy time.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Number of CC6 entries (Fig 7 marks).
    pub fn c6_entries(&self) -> u64 {
        self.c6_entries
    }

    /// Trace of P-state changes `(time, new state)`.
    pub fn pstate_log(&self) -> &EventLog<PState> {
        &self.pstate_log
    }

    /// Trace of C-state changes `(time, new state)`.
    pub fn cstate_log(&self) -> &EventLog<CState> {
        &self.cstate_log
    }

    /// Replays this core's P- and C-state logs into `buf` as
    /// residency spans: each logged change opens a span named after
    /// the new state, closed by the next change (or `end`).
    pub fn trace_into(&self, end: SimTime, buf: &mut simcore::TraceBuffer) {
        use simcore::TraceCategory;
        if !buf.is_recording() {
            return;
        }
        let core = self.id.0 as u32;
        let pstates = self.pstate_log.entries();
        for (i, &(t, p)) in pstates.iter().enumerate() {
            let until = pstates.get(i + 1).map(|&(t2, _)| t2).unwrap_or(end);
            buf.begin(t, TraceCategory::PState, core, p.label(), p.index() as i64);
            buf.end(
                until,
                TraceCategory::PState,
                core,
                p.label(),
                p.index() as i64,
            );
        }
        let cstates = self.cstate_log.entries();
        for (i, &(t, c)) in cstates.iter().enumerate() {
            let until = cstates.get(i + 1).map(|&(t2, _)| t2).unwrap_or(end);
            buf.begin(t, TraceCategory::CState, core, c.label(), c.depth() as i64);
            buf.end(
                until,
                TraceCategory::CState,
                core,
                c.label(),
                c.depth() as i64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::TransitionOutcome;

    fn setup() -> (ProcessorProfile, Core, RngStream) {
        let p = ProcessorProfile::xeon_gold_6134();
        let c = Core::new(CoreId(0), &p);
        (p, c, RngStream::from_seed(9))
    }

    #[test]
    fn residency_index_matches_a_linear_scan() {
        let (p, mut c, mut rng) = setup();
        // The ledger as a linear scan over first-seen pairs.
        let mut model: Vec<(CoreActivity, PState, SimDuration)> = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..20_000 {
            let dt = SimDuration::from_nanos(rng.below(50_000));
            let held = (c.activity(), c.pstate());
            now += dt;
            // Account explicitly: a mutation that changes nothing does
            // not account, and the model must know where segments end.
            c.account(now, &p);
            if !dt.is_zero() {
                match model.iter_mut().find(|(a, s, _)| (*a, *s) == held) {
                    Some((_, _, total)) => *total += dt,
                    None => model.push((held.0, held.1, dt)),
                }
            }
            match rng.below(4) {
                0 => {
                    let s = PState::new(rng.below(p.pstates.len() as u64) as u8);
                    c.apply_pstate(s, now, &p);
                }
                1 if c.cstate().is_sleep() => {
                    c.wake(now, &p, &mut rng);
                }
                1 => c.set_busy(!c.is_busy(), now, &p),
                2 if !c.is_busy() => {
                    let sleep = [CState::C0, CState::C1, CState::C6][rng.below(3) as usize];
                    if sleep == CState::C0 {
                        c.wake(now, &p, &mut rng);
                    } else {
                        c.enter_sleep(sleep, now, &p);
                    }
                }
                _ => {}
            }
        }
        assert_eq!(c.residency, model);
        // Every (activity, P-state) pair shows up, so the walk
        // exercised the whole slot table.
        assert_eq!(model.len(), CoreActivity::COUNT * p.pstates.len());
        let expect: f64 = model
            .iter()
            .map(|&(a, s, d)| p.power.core_power(p.pstates.point(s), a) * d.as_secs_f64())
            .sum();
        assert_eq!(c.audited_energy_joules(now, &p).to_bits(), expect.to_bits());
    }

    #[test]
    fn starts_idle_at_slowest() {
        let (p, c, _) = setup();
        assert_eq!(c.pstate(), p.pstates.slowest());
        assert_eq!(c.cstate(), CState::C0);
        assert!(!c.is_busy());
    }

    #[test]
    fn utilization_sampling() {
        let (p, mut c, _) = setup();
        c.set_busy(true, SimTime::from_millis(2), &p);
        c.set_busy(false, SimTime::from_millis(7), &p);
        let s = c.take_sample(SimTime::from_millis(10), &p);
        assert!((s.busy_frac - 0.5).abs() < 1e-9, "busy {}", s.busy_frac);
        assert!((s.c0_frac - 1.0).abs() < 1e-9, "c0 {}", s.c0_frac);
        // Window resets.
        let s2 = c.take_sample(SimTime::from_millis(20), &p);
        assert_eq!(s2.busy_frac, 0.0);
    }

    #[test]
    fn c0_residency_differs_from_busy_when_sleeping() {
        let (p, mut c, _) = setup();
        c.enter_sleep(CState::C6, SimTime::ZERO, &p);
        let s = c.take_sample(SimTime::from_millis(10), &p);
        assert_eq!(s.busy_frac, 0.0);
        assert_eq!(s.c0_frac, 0.0);
    }

    #[test]
    fn energy_increases_with_busy_time_and_frequency() {
        let (p, mut idle_core, _) = setup();
        let (_, mut busy_core, mut rng) = setup();
        busy_core.set_busy(true, SimTime::ZERO, &p);
        let t = SimTime::from_millis(100);
        let e_idle = idle_core.energy_joules(t, &p);
        let e_busy = busy_core.energy_joules(t, &p);
        assert!(e_busy > e_idle, "busy {e_busy} idle {e_idle}");

        // At P0 the same busy time costs more energy.
        let (_, mut fast_core, _) = setup();
        let TransitionOutcome::Started {
            completes_at,
            token,
        } = fast_core.request_pstate(PState::P0, SimTime::ZERO, &p, &mut rng)
        else {
            panic!()
        };
        fast_core.complete_pstate(token, completes_at, &p, &mut rng);
        let e_start = fast_core.energy_joules(completes_at, &p);
        fast_core.set_busy(true, completes_at, &p);
        let window = SimDuration::from_millis(100);
        let e_fast = fast_core.energy_joules(completes_at + window, &p) - e_start;
        let e_slow = {
            let (_, mut c2, _) = setup();
            c2.set_busy(true, SimTime::ZERO, &p);
            c2.energy_joules(SimTime::ZERO + window, &p)
        };
        assert!(e_fast > e_slow, "fast {e_fast} slow {e_slow}");
    }

    #[test]
    fn sleep_saves_energy() {
        let (p, mut c0_core, _) = setup();
        let (_, mut c6_core, _) = setup();
        c6_core.enter_sleep(CState::C6, SimTime::ZERO, &p);
        let t = SimTime::from_secs(1);
        assert!(c6_core.energy_joules(t, &p) < c0_core.energy_joules(t, &p));
        assert_eq!(c6_core.c6_entries(), 1);
    }

    #[test]
    fn wake_cost_from_c6_includes_cache_refill() {
        let (p, mut c, mut rng) = setup();
        c.enter_sleep(CState::C6, SimTime::ZERO, &p);
        // A long sleep pays the full cold-cache refill.
        let cost = c.wake(SimTime::from_millis(20), &p, &mut rng);
        assert!(cost.latency > SimDuration::from_micros(10));
        assert_eq!(cost.cache_refill, p.cc6_cache_refill);
        assert_eq!(c.cstate(), CState::C0);
    }

    #[test]
    fn short_c6_nap_pays_reduced_refill() {
        let (p, mut c, mut rng) = setup();
        c.enter_sleep(CState::C6, SimTime::ZERO, &p);
        let cost = c.wake(SimTime::from_micros(50), &p, &mut rng);
        assert!(
            cost.cache_refill < p.cc6_cache_refill / 2,
            "warm-LLC refill {} should be far below the cold worst case {}",
            cost.cache_refill,
            p.cc6_cache_refill
        );
        assert!(cost.cache_refill > SimDuration::ZERO);
    }

    #[test]
    fn wake_from_c1_has_no_cache_penalty() {
        let (p, mut c, mut rng) = setup();
        c.enter_sleep(CState::C1, SimTime::ZERO, &p);
        let cost = c.wake(SimTime::from_millis(1), &p, &mut rng);
        assert!(cost.latency < SimDuration::from_micros(5));
        assert_eq!(cost.cache_refill, SimDuration::ZERO);
    }

    #[test]
    fn wake_when_awake_is_free() {
        let (p, mut c, mut rng) = setup();
        let cost = c.wake(SimTime::from_millis(1), &p, &mut rng);
        assert_eq!(cost.latency, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "wake the core first")]
    fn busy_while_asleep_panics() {
        let (p, mut c, _) = setup();
        c.enter_sleep(CState::C6, SimTime::ZERO, &p);
        c.set_busy(true, SimTime::from_millis(1), &p);
    }

    #[test]
    fn cycle_math_roundtrip() {
        let (p, c, _) = setup();
        let cycles = 1_200_000; // 1 ms at 1.2 GHz (slowest)
        let d = c.cycles_to_duration(cycles, &p);
        assert_eq!(d, SimDuration::from_millis(1));
        assert_eq!(c.duration_to_cycles(d, &p), cycles);
    }

    #[test]
    fn attribution_meter_conserves_and_tracks_f64() {
        use simcore::EnergyComponent;
        let (p, mut c, mut rng) = setup();
        // IRQ-role busy, app-role busy, C6 sleep, wake, busy again —
        // every component class gets some residency.
        c.set_busy_role(BusyRole::Irq, SimTime::ZERO, &p);
        c.set_busy(true, SimTime::ZERO, &p);
        c.set_busy(false, SimTime::from_millis(2), &p);
        c.set_busy_role(BusyRole::App, SimTime::from_millis(2), &p);
        c.enter_sleep(CState::C6, SimTime::from_millis(3), &p);
        c.wake(SimTime::from_millis(5), &p, &mut rng);
        c.set_busy(true, SimTime::from_millis(6), &p);
        let t = SimTime::from_millis(10);
        let uj = c.energy_uj(t, &p);
        let b = c.energy_breakdown(t, &p);
        assert_eq!(uj, b.total_uj(), "per-core conservation identity");
        assert!(b.get_uj(EnergyComponent::Irq) > 0, "irq-role busy burn");
        assert!(b.get_uj(EnergyComponent::BusyPmin) > 0, "app busy at Pmin");
        assert!(b.get_uj(EnergyComponent::SleepC6) > 0, "C6 residency");
        assert!(
            b.get_uj(EnergyComponent::WakeC0) > 0,
            "wake-transition burn"
        );
        assert!(b.get_uj(EnergyComponent::IdleC0) > 0, "plain idle burn");
        // The integer meter tracks the f64 integral to within
        // per-segment rounding (well under 1 µJ per segment here).
        let f64_uj = c.energy_joules(t, &p) * 1e6;
        assert!(
            (uj as f64 - f64_uj).abs() < 16.0,
            "meter {uj} µJ vs f64 {f64_uj} µJ"
        );
    }

    #[test]
    fn obs_account_never_touches_the_f64_integral() {
        let (p, mut c, _) = setup();
        c.set_busy(true, SimTime::ZERO, &p);
        let e_before = c.energy_j;
        // Observability-only advancement points must leave the f64
        // path bit-identical (golden fixtures pin its bit pattern).
        c.obs_account(SimTime::from_millis(4), &p);
        c.set_busy_role(BusyRole::Irq, SimTime::from_millis(5), &p);
        assert_eq!(c.energy_j.to_bits(), e_before.to_bits());
        let e = c.energy_joules(SimTime::from_millis(10), &p);
        let mut reference = {
            let (_, mut c2, _) = setup();
            c2.set_busy(true, SimTime::ZERO, &p);
            c2
        };
        let e_ref = reference.energy_joules(SimTime::from_millis(10), &p);
        assert_eq!(e.to_bits(), e_ref.to_bits(), "f64 integral must not drift");
    }

    #[test]
    fn pstate_log_records_changes() {
        let (p, mut c, mut rng) = setup();
        let TransitionOutcome::Started {
            completes_at,
            token,
        } = c.request_pstate(PState::P0, SimTime::ZERO, &p, &mut rng)
        else {
            panic!()
        };
        c.complete_pstate(token, completes_at, &p, &mut rng);
        assert_eq!(c.pstate_log().len(), 1);
        assert_eq!(c.pstate_log().entries()[0].1, PState::P0);
        assert_eq!(c.pstate(), PState::P0);
    }
}
