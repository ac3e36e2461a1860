//! The scenario runner: build a testbed from a declarative
//! [`RunConfig`], simulate warm-up + measured window, and extract the
//! metrics the paper reports.

use appsim::{AppModel, Testbed, TestbedConfig};
use cpusim::{CState, DvfsScope, ProcessorProfile};
use governors::DegradationStats;
use simcore::fault::join_recovery;
use simcore::{
    AttribSummary, EnergySummary, EngineProfile, EventLog, FaultPlan, FaultScope, FaultStats,
    FlightSummary, MetricsSnapshot, RecoverySummary, SimDuration, SimError, SimTime, Simulator,
    StepBudget, Timeline, TimelineConfig, WatchdogReport,
};
use workload::{AppKind, LoadSpec};

/// Which processor model a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileKind {
    /// Intel i7-6700 (desktop).
    I76700,
    /// Intel i7-7700 (desktop).
    I77700,
    /// Intel Xeon E5-2620v4 (server).
    XeonE5V4,
    /// Intel Xeon Gold 6134 (the paper's testbed; default).
    XeonGold,
}

impl ProfileKind {
    /// Materializes the profile.
    pub fn profile(self) -> ProcessorProfile {
        match self {
            ProfileKind::I76700 => ProcessorProfile::i7_6700(),
            ProfileKind::I77700 => ProcessorProfile::i7_7700(),
            ProfileKind::XeonE5V4 => ProcessorProfile::xeon_e5_2620v4(),
            ProfileKind::XeonGold => ProcessorProfile::xeon_gold_6134(),
        }
    }
}

// Governor/sleep selection moved to the `cluster` crate so the fleet
// tier can instantiate per-server policies without depending on this
// harness; re-exported here so existing `experiments::{GovernorKind,
// SleepKind}` paths (and the Debug-derived checkpoint keys built from
// them) are unchanged.
pub use cluster::{GovernorKind, SleepKind};

/// How long experiments run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Short windows for CI / quick checks.
    Quick,
    /// The full windows used for reported numbers.
    Full,
}

impl Scale {
    /// Warm-up before measurement begins.
    pub fn warmup(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_millis(200),
            Scale::Full => SimDuration::from_millis(300),
        }
    }

    /// Measured-window length.
    pub fn duration(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_millis(800),
            Scale::Full => SimDuration::from_millis(2_000),
        }
    }
}

/// A fully specified simulation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Application under test.
    pub app: AppKind,
    /// Offered load.
    pub load: LoadSpec,
    /// V/F governor.
    pub governor: GovernorKind,
    /// Sleep policy.
    pub sleep: SleepKind,
    /// Processor model.
    pub profile: ProfileKind,
    /// Fully custom processor (ablations); overrides `profile`.
    pub profile_override: Option<ProcessorProfile>,
    /// DVFS scope.
    pub scope: DvfsScope,
    /// RNG seed.
    pub seed: u64,
    /// Warm-up length (excluded from statistics).
    pub warmup: SimDuration,
    /// Measured-window length.
    pub duration: SimDuration,
    /// Collect per-event traces (timeline figures).
    pub collect_traces: bool,
    /// Deterministic fault schedule (chaos runs). Empty by default,
    /// which injects nothing. The plan's own seed (or the
    /// run seed when unset) travels with the config, so
    /// [`run_many`] reproduces serial runs exactly.
    pub fault_plan: FaultPlan,
    /// NIC queue-pair count override (RSS ablations). `None` — the
    /// default — gives one queue per core; more queues than cores is
    /// a [`validate`](RunConfig::validate) error.
    pub nic_queues: Option<usize>,
    /// Telemetry timeline sampling: fixed sim-time interval, bounded
    /// row cap with interval-doubling decimation. On by default (100
    /// µs / 512 rows); set cap 0 to disable.
    pub timeline: TimelineConfig,
}

impl RunConfig {
    /// A default-testbed run of `governor` on `app` at `load`.
    pub fn new(app: AppKind, load: LoadSpec, governor: GovernorKind, scale: Scale) -> Self {
        RunConfig {
            app,
            load,
            governor,
            sleep: SleepKind::Menu,
            profile: ProfileKind::XeonGold,
            profile_override: None,
            scope: DvfsScope::PerCore,
            seed: 42,
            warmup: scale.warmup(),
            duration: scale.duration(),
            collect_traces: false,
            fault_plan: FaultPlan::new(),
            nic_queues: None,
            timeline: TimelineConfig::default(),
        }
    }

    /// Sets the sleep policy.
    pub fn with_sleep(mut self, sleep: SleepKind) -> Self {
        self.sleep = sleep;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables trace collection.
    pub fn with_traces(mut self) -> Self {
        self.collect_traces = true;
        self
    }

    /// Sets the DVFS scope.
    pub fn with_scope(mut self, scope: DvfsScope) -> Self {
        self.scope = scope;
        self
    }

    /// Sets the processor model.
    pub fn with_profile(mut self, profile: ProfileKind) -> Self {
        self.profile = profile;
        self
    }

    /// Installs a fault schedule (chaos runs).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Overrides the NIC queue count (RSS ablations).
    pub fn with_nic_queues(mut self, queues: usize) -> Self {
        self.nic_queues = Some(queues);
        self
    }

    /// Overrides the telemetry timeline sampling parameters
    /// ([`TimelineConfig::OFF`] disables sampling).
    pub fn with_timeline(mut self, timeline: TimelineConfig) -> Self {
        self.timeline = timeline;
        self
    }

    /// Validates the whole run specification before any simulation
    /// component can panic on it. Every degenerate input — zero
    /// cores, zero load, inverted thresholds, malformed fault plans,
    /// overflow-prone windows, more RSS queues than cores — becomes a
    /// typed [`SimError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.duration.is_zero() {
            return Err(SimError::invalid(
                "duration",
                "a zero-length measured window produces no statistics".to_string(),
            ));
        }
        if self.warmup.checked_add(self.duration).is_none() {
            return Err(SimError::invalid(
                "warmup+duration",
                format!(
                    "warm-up ({:?}) plus measured window ({:?}) overflows the \
                     nanosecond clock",
                    self.warmup, self.duration
                ),
            ));
        }
        self.governor.validate()?;
        // Assemble the testbed config exactly as `run` would and let
        // the testbed validate topology, load, queues, and fault plan.
        self.testbed_config().validate()
    }

    /// The [`TestbedConfig`] this run would instantiate.
    fn testbed_config(&self) -> TestbedConfig {
        let app = AppModel::for_kind(self.app);
        let profile = self
            .profile_override
            .clone()
            .unwrap_or_else(|| self.profile.profile());
        let mut tb_cfg = TestbedConfig::new(app, self.load)
            .with_seed(self.seed)
            .with_profile(profile)
            .with_scope(self.scope)
            .with_fault_plan(self.fault_plan.clone())
            .with_timeline(self.timeline);
        if let Some(q) = self.nic_queues {
            tb_cfg = tb_cfg.with_nic_queues(q);
        }
        if self.collect_traces {
            tb_cfg = tb_cfg.with_trace_capacity(DEFAULT_TRACE_CAPACITY);
        }
        tb_cfg
    }
}

/// Per-event traces collected when `collect_traces` is set.
///
/// `PartialEq` so determinism suites can compare whole trace sets
/// between same-seed runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTraces {
    /// Per-response `(receive time, latency)`.
    pub responses: Vec<(SimTime, SimDuration)>,
    /// Core 0 P-state changes `(time, state index)`.
    pub pstates_core0: Vec<(SimTime, u8)>,
    /// Core 0 interrupt-mode packet batches `(time, count)`.
    pub intr_batches_core0: Vec<(SimTime, u64)>,
    /// Core 0 polling-mode packet batches `(time, count)`.
    pub poll_batches_core0: Vec<(SimTime, u64)>,
    /// Core 0 ksoftirqd wake times.
    pub ksoftirqd_wakes_core0: Vec<SimTime>,
    /// Core 0 C-state entries `(time, state)`.
    pub cstates_core0: Vec<(SimTime, CState)>,
    /// Start of the measured window.
    pub measure_start: SimTime,
    /// End of the measured window.
    pub measure_end: SimTime,
    /// Structured trace events from every layer (IRQ marks, NAPI
    /// modes, P-/C-state residency, ksoftirqd, request spans, governor
    /// actions). Feed to [`perfetto_json`](crate::perfetto_json) for
    /// ui.perfetto.dev.
    pub trace: simcore::TraceBuffer,
}

/// Metrics extracted from one run.
///
/// `PartialEq` compares every field (including traces when present):
/// two same-seed runs must compare equal, which is what the
/// determinism suites assert.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Governor display name.
    pub governor: String,
    /// Sleep policy display name.
    pub sleep: String,
    /// Requests sent since time zero that reached the server's end of
    /// the link by the end of the run (a request counts as sent when
    /// it arrives, so the last link delay's sends are left out).
    pub sent: u64,
    /// Responses received within the measured window.
    pub received: u64,
    /// P99 end-to-end latency.
    pub p99: SimDuration,
    /// P50 end-to-end latency.
    pub p50: SimDuration,
    /// Fraction of responses above the application SLO.
    pub frac_above_slo: f64,
    /// The SLO the fraction was computed against.
    pub slo: SimDuration,
    /// Package energy over the measured window, joules.
    pub energy_j: f64,
    /// Measured-window length.
    pub duration: SimDuration,
    /// Average package power, watts.
    pub avg_power_w: f64,
    /// Rx packets dropped at the NIC.
    pub rx_dropped: u64,
    /// DVFS transitions started.
    pub dvfs_transitions: u64,
    /// CC6 entries across cores.
    pub c6_entries: u64,
    /// Deterministically ordered counters/gauges/histograms from every
    /// layer. Same-seed runs produce
    /// byte-identical snapshots (the determinism suites assert this).
    pub metrics: MetricsSnapshot,
    /// Per-request latency attribution over the whole run (stage sums
    /// equal measured end-to-end latency for every request; audited).
    pub attrib: AttribSummary,
    /// Window-scoped energy attribution: per-core microjoule
    /// decomposition (conserving: measured == attributed, audited),
    /// the same energy split by packet-processing mode, and RAPL
    /// clamp accounting.
    pub energy: EnergySummary,
    /// Governor decision flight recorder: every operating-point
    /// change with the input-feature snapshot it acted on.
    pub gov_flight: FlightSummary,
    /// SLO watchdog summary: violation episodes, time-to-detect,
    /// time-to-recover. Always populated.
    pub watchdog: WatchdogReport,
    /// Counters for every fault actually injected. All zero with an
    /// empty plan.
    pub faults: FaultStats,
    /// Governor graceful-degradation counters (NMAP's safe-fallback
    /// state machine; zero for governors without one).
    pub degradation: DegradationStats,
    /// Fault-onset → SLO-recovery join: how long the system needed to
    /// re-meet the SLO after each injected fault (satellite of the
    /// watchdog episode log). Empty when no faults were scheduled.
    pub fault_recovery: RecoverySummary,
    /// Telemetry timeline: per-core gauge rows sampled at a fixed
    /// sim-time interval over the whole run (see
    /// [`simcore::Timeline`]). All-integer and bounded; empty when
    /// sampling is off.
    pub timeline: Timeline,
    /// Traces, if requested.
    pub traces: Option<RunTraces>,
}

impl RunResult {
    /// True if P99 meets the SLO.
    pub fn meets_slo(&self) -> bool {
        self.p99 <= self.slo
    }

    /// P99 normalized to the SLO (Fig 14's y-axis).
    pub fn p99_norm_slo(&self) -> f64 {
        self.p99.as_secs_f64() / self.slo.as_secs_f64()
    }
}

/// Default trace-buffer capacity for runs with `collect_traces` set:
/// ample for a quick-scale run while bounding a full-scale one (the
/// buffer counts drops instead of growing without limit).
pub const DEFAULT_TRACE_CAPACITY: usize = 2_000_000;

/// Deterministic engine statistics plus the one number that must stay
/// out of [`RunResult`]: wall-clock time. Keeping it here means golden
/// and determinism comparisons never see host timing.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunProfile {
    /// Event-queue statistics (scheduled/executed/cancelled events,
    /// heap-depth high water). Deterministic.
    pub engine: EngineProfile,
    /// Host wall-clock time the run took. NOT deterministic — never
    /// compare or persist this.
    pub wall: std::time::Duration,
}

/// Executes one run to completion and extracts its metrics.
///
/// # Panics
///
/// Panics on an invalid config; use [`try_run`] for the typed error.
pub fn run(cfg: RunConfig) -> RunResult {
    try_run(cfg).expect("invalid RunConfig")
}

/// Fallible [`run`]: an invalid config comes back as
/// [`SimError::InvalidConfig`] instead of a panic.
pub fn try_run(cfg: RunConfig) -> Result<RunResult, SimError> {
    try_run_budgeted(cfg, &StepBudget::unlimited())
}

/// Like [`try_run`], but aborts the cell with
/// [`SimError::BudgetExceeded`] once `budget` is exhausted — a
/// runaway-cell guard (call it from a [`Cell`](crate::Cell)'s `run`
/// to hold a sweep to it). The budget spans warm-up plus the measured
/// window.
pub fn try_run_budgeted(cfg: RunConfig, budget: &StepBudget) -> Result<RunResult, SimError> {
    let (result, _tb, _profile) = run_inner(cfg, budget, |_, _| {})?;
    Ok(result)
}

/// Like [`run`], but also reports how the engine and the host spent
/// the run (see [`RunProfile`]).
pub fn run_profiled(cfg: RunConfig) -> (RunResult, RunProfile) {
    let started = std::time::Instant::now();
    let (result, _tb, engine) =
        run_inner(cfg, &StepBudget::unlimited(), |_, _| {}).expect("invalid RunConfig");
    (
        result,
        RunProfile {
            engine,
            wall: started.elapsed(),
        },
    )
}

/// Like [`run`], but lets the caller hook the testbed right after
/// construction (install observers, schedule load switches) and hands
/// the final testbed back for custom extraction.
pub fn run_with_testbed(
    cfg: RunConfig,
    setup: impl FnOnce(&mut Testbed, &mut Simulator<Testbed>),
) -> (RunResult, Testbed) {
    let (result, tb, _profile) =
        run_inner(cfg, &StepBudget::unlimited(), setup).expect("invalid RunConfig");
    (result, tb)
}

fn run_inner(
    cfg: RunConfig,
    budget: &StepBudget,
    setup: impl FnOnce(&mut Testbed, &mut Simulator<Testbed>),
) -> Result<(RunResult, Testbed, EngineProfile), SimError> {
    cfg.validate()?;
    let app = AppModel::for_kind(cfg.app);
    let profile = cfg
        .profile_override
        .clone()
        .unwrap_or_else(|| cfg.profile.profile());
    let tb_cfg = cfg.testbed_config();
    let (governor, sleep) = cluster::build_policies(&cfg.governor, cfg.sleep, &profile, &app);
    let mut sim: Simulator<Testbed> = Simulator::new();
    let mut tb = Testbed::try_new(tb_cfg, governor, sleep, &mut sim)?;
    setup(&mut tb, &mut sim);

    let warmup_end = SimTime::ZERO + cfg.warmup;
    sim.run_until_budgeted(&mut tb, warmup_end, budget)?;
    tb.begin_measurement(warmup_end);
    let end = warmup_end + cfg.duration;
    sim.run_until_budgeted(&mut tb, end, budget)?;

    let sent = tb.client.sent();
    let received = tb.client.received();
    let slo = app.slo;
    let p99 = tb.client.latencies_mut().p99();
    let p50 = SimDuration::from_nanos(tb.client.latencies_mut().quantile(0.50));
    let frac_above_slo = tb.client.latencies_mut().fraction_above(slo.as_nanos());
    let energy_j = tb.measured_energy(end);
    let duration = tb.measured_duration(end);
    let avg_power_w = if duration.is_zero() {
        0.0
    } else {
        energy_j / duration.as_secs_f64()
    };
    // Assemble the structured trace (component-log replay) and the
    // metrics snapshot.
    tb.collect_trace(end);
    tb.collect_metrics(end);
    let energy = tb.energy_summary(end);
    let gov_flight = tb.flight_summary();
    let engine = sim.profile();
    tb.metrics
        .set_counter("engine.events_scheduled", engine.events_scheduled);
    tb.metrics
        .set_counter("engine.events_executed", engine.events_executed);
    tb.metrics
        .set_counter("engine.events_cancelled", engine.events_cancelled);
    tb.metrics
        .set_counter("engine.max_pending", engine.max_pending as u64);
    let traces = cfg.collect_traces.then(|| {
        let core0 = tb.processor.core(cpusim::CoreId(0));
        RunTraces {
            responses: tb.client.take_response_log(),
            pstates_core0: log_map(core0.pstate_log(), |p| p.index()),
            intr_batches_core0: log_map(tb.napi[0].interrupt_packet_log(), |&n| n),
            poll_batches_core0: log_map(tb.napi[0].polling_packet_log(), |&n| n),
            ksoftirqd_wakes_core0: tb.ksoftirqd_log[0]
                .iter()
                .filter(|&&(_, awake)| awake)
                .map(|&(t, _)| t)
                .collect(),
            cstates_core0: log_map(core0.cstate_log(), |&c| c),
            measure_start: warmup_end,
            measure_end: end,
            trace: tb.trace.clone(),
        }
    });
    // Self-audit: every run proves its
    // conservation identities before reporting metrics. A violation
    // is a typed error, so a sweep supervisor can quarantine the cell
    // instead of losing the whole sweep to a panic.
    if let Some(report) = tb.audit_report(end) {
        if !report.is_balanced() {
            let listing = report
                .violations()
                .iter()
                .map(|c| format!("  {c}"))
                .collect::<Vec<_>>()
                .join("\n");
            return Err(SimError::Accounting {
                context: "conservation audit",
                reason: listing,
            });
        }
    }
    // Join the fault schedule with the watchdog's violation episodes:
    // per-fault time-to-recover, the report's recovery-time metric.
    let scopes: Vec<FaultScope> = cfg.fault_plan.specs.iter().map(|s| s.scope).collect();
    let fault_recovery = join_recovery(&scopes, tb.watchdog.episode_log());
    let result = RunResult {
        governor: tb.governor.name(),
        sleep: tb.sleep.name(),
        sent,
        received,
        p99,
        p50,
        frac_above_slo,
        slo,
        energy_j,
        duration,
        avg_power_w,
        rx_dropped: tb.nic.total_rx_dropped(),
        dvfs_transitions: tb.processor.total_transitions(),
        c6_entries: tb.processor.cores().iter().map(|c| c.c6_entries()).sum(),
        metrics: tb.metrics.snapshot(),
        attrib: tb.attrib.summary(),
        energy,
        gov_flight,
        watchdog: tb.watchdog.report(end),
        faults: tb.faults.stats(),
        degradation: tb.governor.degradation(),
        fault_recovery,
        timeline: tb.timeline.finish(),
        traces,
    };
    Ok((result, tb, engine))
}

fn log_map<T, U>(log: &EventLog<T>, f: impl Fn(&T) -> U) -> Vec<(SimTime, U)> {
    log.iter().map(|(t, v)| (*t, f(v))).collect()
}

/// Runs many configs across worker threads (one testbed per thread),
/// preserving input order in the output.
pub fn run_many(configs: Vec<RunConfig>) -> Vec<RunResult> {
    simcore::par::map_ordered(configs, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmap::NmapConfig;

    fn tiny(governor: GovernorKind) -> RunConfig {
        RunConfig {
            warmup: SimDuration::from_millis(100),
            duration: SimDuration::from_millis(300),
            ..RunConfig::new(
                AppKind::Memcached,
                LoadSpec::custom(20_000.0, SimDuration::from_millis(100), 0.4, 0.3),
                governor,
                Scale::Quick,
            )
        }
    }

    #[test]
    fn performance_run_produces_metrics() {
        let r = run(tiny(GovernorKind::Performance));
        assert_eq!(r.governor, "performance");
        assert!(r.received > 1_000);
        assert!(r.p99 > SimDuration::from_micros(40));
        assert!(r.energy_j > 0.0);
        assert!(r.avg_power_w > 1.0);
    }

    #[test]
    fn traces_are_collected_on_request() {
        let r = run(tiny(GovernorKind::Ondemand).with_traces());
        let t = r.traces.expect("traces requested");
        assert!(!t.responses.is_empty());
        assert_eq!(
            t.measure_end - t.measure_start,
            SimDuration::from_millis(300)
        );
    }

    #[test]
    fn traces_hold_every_measured_response_and_change_nothing_else() {
        let cfg = tiny(GovernorKind::Ondemand);
        let (mut traced, tb) = run_with_testbed(cfg.clone().with_traces(), |_, _| {});
        let t = traced.traces.take().expect("traces requested");
        assert_eq!(t.responses.len(), tb.client.latencies().len());
        assert!(
            tb.client.response_log().is_empty(),
            "the series moves into the traces"
        );
        let (mut untraced, tb) = run_with_testbed(cfg, |_, _| {});
        assert!(untraced.traces.is_none());
        assert!(
            tb.client.response_log().is_empty(),
            "an untraced run keeps no response series"
        );
        // The one metric that differs is the trace buffer's own size.
        let trace_events = |r: &mut RunResult| {
            let i = r
                .metrics
                .counters
                .iter()
                .position(|(k, _)| k == "trace.events")
                .expect("trace.events is always reported");
            r.metrics.counters.remove(i).1
        };
        assert_eq!(trace_events(&mut traced), t.trace.len() as u64);
        assert_eq!(trace_events(&mut untraced), 0);
        assert_eq!(traced, untraced, "tracing must not change the result");
    }

    #[test]
    fn run_many_preserves_order() {
        let configs = vec![
            tiny(GovernorKind::Performance),
            tiny(GovernorKind::Powersave),
            tiny(GovernorKind::Ondemand),
        ];
        let results = run_many(configs);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].governor, "performance");
        assert_eq!(results[1].governor, "powersave");
        assert_eq!(results[2].governor, "ondemand");
    }

    #[test]
    fn powersave_uses_less_power_than_performance() {
        let perf = run(tiny(GovernorKind::Performance));
        let save = run(tiny(GovernorKind::Powersave));
        assert!(save.avg_power_w < perf.avg_power_w);
        assert!(save.p99 >= perf.p99);
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let base = tiny(GovernorKind::Ondemand);
        let mut zero_duration = base.clone();
        zero_duration.duration = SimDuration::ZERO;
        let mut overflow_window = base.clone();
        overflow_window.warmup = SimDuration::MAX;
        overflow_window.duration = SimDuration::MAX;
        let mut zero_load = base.clone();
        zero_load.load = LoadSpec::custom(0.0, SimDuration::from_millis(100), 0.4, 0.3);
        let bad_ncap = tiny(GovernorKind::Ncap(f64::NAN));
        let mut bad_nmap = base.clone();
        bad_nmap.governor = GovernorKind::Nmap(NmapConfig {
            ni_threshold: 0,
            ..NmapConfig::new(64, 1.5)
        });
        for (name, cfg) in [
            ("zero duration", zero_duration),
            ("overflowing window", overflow_window),
            ("zero load", zero_load),
            ("NaN NCAP threshold", bad_ncap),
            ("zero NI_TH", bad_nmap),
        ] {
            let err = cfg.validate().expect_err(name);
            assert!(err.is_config(), "{name}: wrong variant: {err}");
            assert!(try_run(cfg).is_err(), "{name}: try_run must refuse");
        }
    }

    #[test]
    fn more_rss_queues_than_cores_is_a_config_error() {
        // Regression: this used to panic deep in netsim's RSS
        // indexing instead of failing validation.
        let cores = ProfileKind::XeonGold.profile().cores;
        let cfg = tiny(GovernorKind::Ondemand).with_nic_queues(cores + 1);
        let err = cfg.validate().expect_err("must be rejected");
        assert!(err.is_config());
        assert!(
            err.to_string().contains("RSS"),
            "message should explain the RSS constraint: {err}"
        );
        assert!(try_run(cfg).is_err());
    }

    #[test]
    fn fewer_queues_than_cores_still_runs() {
        let r = run(tiny(GovernorKind::Ondemand).with_nic_queues(2));
        assert!(r.received > 0, "two queues still serve traffic");
    }

    #[test]
    fn event_budget_aborts_a_cell_with_a_typed_error() {
        let budget = StepBudget::unlimited().with_max_events(5_000);
        let err = try_run_budgeted(tiny(GovernorKind::Ondemand), &budget)
            .expect_err("5k events cannot finish a 400ms run");
        assert!(err.is_budget(), "wrong variant: {err}");
    }

    #[test]
    fn budgeted_run_with_room_matches_unbudgeted() {
        let cfg = tiny(GovernorKind::Performance);
        let budget = StepBudget::unlimited().with_max_events(u64::MAX);
        let a = try_run_budgeted(cfg.clone(), &budget).expect("fits budget");
        let b = run(cfg);
        assert_eq!(a, b, "budget guard must not perturb the simulation");
    }

    #[test]
    fn governor_labels_match_names() {
        for (kind, _expect) in [
            (GovernorKind::Performance, "performance"),
            (GovernorKind::Ondemand, "ondemand"),
            (GovernorKind::Nmap(NmapConfig::new(64, 1.5)), "NMAP"),
        ] {
            let r = run(tiny(kind));
            assert_eq!(r.governor, kind.label());
        }
    }

    #[test]
    fn sleep_kinds_are_wired() {
        let menu = run(tiny(GovernorKind::Performance));
        let disable = run(tiny(GovernorKind::Performance).with_sleep(SleepKind::Disable));
        assert_eq!(disable.sleep, "disable");
        assert_eq!(disable.c6_entries, 0, "disable must never reach CC6");
        assert!(
            disable.avg_power_w > menu.avg_power_w,
            "idling in C0 costs power"
        );
    }
}
