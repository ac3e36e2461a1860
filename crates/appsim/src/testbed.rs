//! The full client ↔ server testbed: one event-driven world tying
//! together the NIC, the NAPI stack, the per-core scheduler, the
//! application threads, the DVFS/C-state hardware, and the governors.
//!
//! # Event flow
//!
//! ```text
//! client send ──link──▶ NIC Rx ring ──IRQ (ITR-moderated)──▶ core
//!   wake from C-state → hardirq → NAPI softirq poll loop
//!     → (budget/2-jiffy/10-iteration overrun) → ksoftirqd
//!   poll batches → per-core socket backlog → app thread (round-robin
//!   with ksoftirqd) → service cycles at current V/F → Tx ──link──▶
//! client receive (end-to-end latency recorded)
//! ```
//!
//! The request's link hop costs no event of its own. Every request
//! is the same size, so its link delay `D` is one constant, and the
//! client's arrival chain runs shifted by `D`: one event, at the
//! instant the request reaches the NIC, builds it stamped with its
//! send instant `t`, enqueues it, and schedules the chain's next
//! send at `t' + D`. Only the response hop is an event.
//!
//! Governor hooks fire exactly where the paper's mechanisms live:
//! per poll batch (NMAP's monitor), on ksoftirqd wake/sleep
//! (NMAP-simpl), per sampling tick (ondemand/intel_pstate/NCAP), and
//! per completed request (Parties).

use crate::service::{AppModel, ServiceSampler};
use cpusim::dvfs::{CompletionResult, TransitionOutcome};
use cpusim::{CoreId, DvfsScope, PState, Processor, ProcessorProfile, RaplCounter};
use governors::{Action, PStateGovernor, SleepPolicy};
use napisim::{
    NapiContext, NapiMode, PollClass, PollVerdict, ProcContext, RunQueue, StackParams, TaskId,
};
use netsim::{LinkModel, Nic, NicConfig, Packet, QueueId};
use simcore::audit::{Account, AuditReport, ConservationLedger};
use simcore::{
    AttribTracker, BusyRole, ChainMarks, DecisionTrigger, EnergySummary, EventLog, FaultInjector,
    FaultKind, FaultPlan, FaultSpec, FlightRecorder, FlightSummary, GovDecision, RngStream,
    SimDuration, SimTime, Simulator, SloWatchdog, Stage, WatchdogEvent, World,
};
use std::collections::VecDeque;
use workload::{ArrivalProcess, BurstyArrivals, Client, LoadSpec};

/// Reference queue capacity used to scale the saturation gauge when
/// no admission policy bounds the backlog (so the signal stays
/// comparable across policy-on and policy-off runs).
pub const REFERENCE_ADMISSION_CAP: usize = 256;

/// How the server bounds its per-core application queue.
///
/// The admission decision happens at the delivery point — the moment
/// a NAPI poll would hand a request to a socket backlog — so a shed
/// request costs exactly the kernel work it already consumed and
/// nothing more, and the conservation identity extends integer-exactly
/// (`arrived == dropped + in rings + in poll flight + shed +
/// delivered`, credited to [`Account::PacketsShed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Unbounded queues — the pre-overload-control behaviour.
    #[default]
    None,
    /// Shed when the backlog already holds `limit` requests.
    StaticDepth {
        /// Maximum admitted backlog depth.
        limit: usize,
    },
    /// CoDel-style sojourn threshold: shed a request whose ring wait
    /// exceeded `target` while a backlog exists, and unconditionally
    /// at the hard `limit`.
    Sojourn {
        /// Acceptable ring-sojourn before the queue counts as
        /// congested.
        target: SimDuration,
        /// Hard backlog cap (the static-depth backstop).
        limit: usize,
    },
}

impl AdmissionPolicy {
    /// The queue bound this policy enforces, if any.
    pub fn capacity(&self) -> Option<usize> {
        match *self {
            AdmissionPolicy::None => None,
            AdmissionPolicy::StaticDepth { limit } | AdmissionPolicy::Sojourn { limit, .. } => {
                Some(limit)
            }
        }
    }

    /// Does a request with ring-sojourn `sojourn` enter a backlog of
    /// `depth` requests?
    pub fn admits(&self, sojourn: SimDuration, depth: usize) -> bool {
        match *self {
            AdmissionPolicy::None => true,
            AdmissionPolicy::StaticDepth { limit } => depth < limit,
            AdmissionPolicy::Sojourn { target, limit } => {
                depth < limit && (depth == 0 || sojourn <= target)
            }
        }
    }

    /// Validates the policy's parameters.
    pub fn validate(&self) -> Result<(), simcore::SimError> {
        use simcore::SimError;
        match *self {
            AdmissionPolicy::None => Ok(()),
            AdmissionPolicy::StaticDepth { limit } => {
                if limit == 0 {
                    return Err(SimError::invalid(
                        "admission.limit",
                        "a zero-depth queue would shed every request".to_string(),
                    ));
                }
                Ok(())
            }
            AdmissionPolicy::Sojourn { target, limit } => {
                if limit == 0 {
                    return Err(SimError::invalid(
                        "admission.limit",
                        "a zero-depth queue would shed every request".to_string(),
                    ));
                }
                if target.is_zero() {
                    return Err(SimError::invalid(
                        "admission.target",
                        "a zero sojourn target sheds any queued request".to_string(),
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Number of client connections (flows) — RSS spreads these.
const CLIENT_FLOWS: u64 = 320;

/// Everything needed to assemble a [`Testbed`]. The kernel stack
/// follows the application ([`stack_for`]), the client-server link is
/// 10 GbE ([`LinkModel::ten_gbe`]), and the client opens 320 flows.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// The processor model (default: Xeon Gold 6134).
    pub profile: ProcessorProfile,
    /// Per-core or chip-wide DVFS (default: per-core, §6.1).
    pub scope: DvfsScope,
    /// The application under test.
    pub app: AppModel,
    /// The offered load.
    pub load: LoadSpec,
    /// Number of NIC Rx/Tx queue pairs. `None` (the default) gives
    /// one queue per core, the paper's testbed layout. Fewer queues
    /// than cores leaves the surplus cores without network work;
    /// more queues than cores is rejected by
    /// [`validate`](TestbedConfig::validate) — RSS would steer flows
    /// to vectors with no core to service them.
    pub nic_queues: Option<usize>,
    /// Master RNG seed; same seed → bit-identical run.
    pub seed: u64,
    /// Capacity of the structured trace buffer. Zero (the default)
    /// turns trace recording off entirely.
    pub trace_capacity: usize,
    /// Deterministic fault schedule. Empty (the default) injects
    /// nothing and draws nothing.
    pub fault_plan: FaultPlan,
    /// Telemetry timeline sampling (fixed sim-time interval,
    /// interval-doubling decimation). Off by default at this layer
    /// (`cap: 0`); the experiment runner opts in.
    pub timeline: simcore::TimelineConfig,
    /// Overload admission control for the per-core app queues.
    /// Unbounded ([`AdmissionPolicy::None`]) by default, preserving
    /// the pre-overload-control behaviour bit for bit.
    pub admission: AdmissionPolicy,
}

/// The kernel-stack cost profile for an application's traffic mix.
///
/// memcached's small UDP/TCP datagrams cost the Linux defaults;
/// nginx's mix (MTU-sized segments, TSO bookkeeping, 36 KB skb
/// chains) costs markedly more per descriptor — in real nginx
/// serving, kernel time rivals user time per request.
pub fn stack_for(kind: workload::AppKind) -> StackParams {
    match kind {
        workload::AppKind::Memcached => StackParams::linux_defaults(),
        workload::AppKind::Nginx => StackParams {
            rx_pkt_cycles: 7_000,
            tx_clean_cycles: 2_000,
            ..StackParams::linux_defaults()
        },
    }
}

impl TestbedConfig {
    /// The paper's default testbed around `app` and `load`.
    pub fn new(app: AppModel, load: LoadSpec) -> Self {
        TestbedConfig {
            profile: ProcessorProfile::xeon_gold_6134(),
            scope: DvfsScope::PerCore,
            app,
            load,
            nic_queues: None,
            seed: 42,
            trace_capacity: 0,
            fault_plan: FaultPlan::new(),
            timeline: simcore::TimelineConfig::OFF,
            admission: AdmissionPolicy::None,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the processor profile.
    pub fn with_profile(mut self, profile: ProcessorProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Overrides the DVFS scope (chip-wide ablation).
    pub fn with_scope(mut self, scope: DvfsScope) -> Self {
        self.scope = scope;
        self
    }

    /// Enables structured tracing with room for `capacity` events
    /// (overflow increments the buffer's drop counter, never panics).
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Installs a fault schedule (chaos testing).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Enables telemetry timeline sampling at the given interval and
    /// row cap (see [`simcore::TimelineConfig`]).
    pub fn with_timeline(mut self, timeline: simcore::TimelineConfig) -> Self {
        self.timeline = timeline;
        self
    }

    /// Overrides the NIC queue count (RSS ablations).
    pub fn with_nic_queues(mut self, queues: usize) -> Self {
        self.nic_queues = Some(queues);
        self
    }

    /// Bounds the per-core app queues with an admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Validates the whole assembly before any component constructor
    /// can panic on it: degenerate topology, load, queue layout, and
    /// fault plans all become typed [`SimError`](simcore::SimError)s
    /// with the offending field named.
    pub fn validate(&self) -> Result<(), simcore::SimError> {
        use simcore::SimError;
        let cores = self.profile.cores;
        if cores == 0 {
            return Err(SimError::invalid(
                "profile.cores",
                "a processor needs at least one core".to_string(),
            ));
        }
        if self.profile.pstates.is_empty() {
            return Err(SimError::invalid(
                "profile.pstates",
                "a processor needs at least one P-state".to_string(),
            ));
        }
        match self.nic_queues {
            Some(0) => {
                return Err(SimError::invalid(
                    "nic_queues",
                    "the NIC needs at least one queue".to_string(),
                ));
            }
            Some(q) if q > cores => {
                return Err(SimError::invalid(
                    "nic_queues",
                    format!(
                        "{q} RSS queues exceed the {cores} available cores; \
                         RSS would steer flows to IRQ vectors with no core \
                         to service them"
                    ),
                ));
            }
            _ => {}
        }
        self.load.validate()?;
        self.fault_plan.validate(cores)?;
        self.admission.validate()?;
        Ok(())
    }
}

/// Everything the testbed schedules: one variant per event handler.
/// The engine stores these inline (no allocation per event), and
/// [`Testbed`]'s [`World::handle`] dispatches them, counting each
/// executed event under its kind (`engine.ev.<kind>` in the metrics
/// snapshot).
///
/// Only [`SwitchLoad`](TestbedEvent::SwitchLoad) is meant for code
/// outside the testbed (scripted load changes, as in Fig 16); the
/// other variants are the testbed's own continuations.
#[derive(Debug, Clone, Copy)]
pub enum TestbedEvent {
    /// The next request of arrival chain `gen` reaches the NIC, one
    /// request link delay after the client sent it: it is built,
    /// enqueued, and the chain's next send is drawn (stale chains,
    /// killed by a load switch, do nothing).
    ClientSend {
        /// Arrival-chain generation.
        gen: u64,
    },
    /// Requests the client sent at `sent_at` outside the arrival
    /// chain reach the NIC: an incast burst, or a send of the old
    /// chain still on the wire when the load switched.
    ClientSendAt {
        /// The client send instant the requests are stamped with.
        sent_at: SimTime,
        /// Requests sent at that instant.
        requests: u32,
    },
    /// A response reaches the client.
    ClientRecv(Packet),
    /// A queue's Rx IRQ fires.
    IrqFire(QueueId),
    /// A C-state wake transition ended: the hardirq for `q` starts.
    WakeHardirq {
        /// The woken core.
        core: CoreId,
        /// The queue whose IRQ woke it.
        q: QueueId,
    },
    /// A core's execution chunk completes (stale if `seq` was
    /// superseded by preemption or re-timing).
    ExecDone {
        /// The executing core.
        core: CoreId,
        /// The chunk's sequence number.
        seq: u64,
    },
    /// cpuidle re-decides an idle core's C-state (cancelled when the
    /// core wakes, so it only ever runs on an idle core).
    SleepTick(CoreId),
    /// The governor's sampling tick.
    SampleTick,
    /// A DVFS transition settles.
    DvfsDone {
        /// The core that requested it.
        core: CoreId,
        /// The transition's token.
        token: u64,
    },
    /// A fault-scope edge: modal overrides are recomputed.
    FaultBoundary,
    /// Periodic fault injection (spurious IRQs, stale-signal replay).
    FaultTick(FaultSpec),
    /// An incast burst of extra requests.
    FaultIncast {
        /// Requests in the burst.
        requests: u32,
    },
    /// The client's flow space rotates.
    FaultChurn {
        /// Rotation distance.
        shift: u64,
    },
    /// Delayed ksoftirqd wakeup landing after a missed-wake fault.
    FaultWake(CoreId),
    /// The wake transition started by a delayed ksoftirqd wakeup
    /// ended: the core dispatches.
    WakeDispatch(CoreId),
    /// Telemetry timeline sample (fixed cadence, read-only).
    TimelineTick,
    /// Switches the offered load ([`Testbed::switch_load`]).
    SwitchLoad(LoadSpec),
}

impl TestbedEvent {
    /// The counter this event is tallied under. Incast and churn
    /// share the fault-tick counter with the periodic fault chain, and
    /// sends outside the chain count as client sends.
    const fn kind(&self) -> EvKind {
        match self {
            TestbedEvent::ClientSend { .. } | TestbedEvent::ClientSendAt { .. } => {
                EvKind::ClientSend
            }
            TestbedEvent::ClientRecv(_) => EvKind::ClientRecv,
            TestbedEvent::IrqFire(_) => EvKind::IrqFire,
            TestbedEvent::WakeHardirq { .. } => EvKind::WakeHardirq,
            TestbedEvent::ExecDone { .. } => EvKind::ExecDone,
            TestbedEvent::SleepTick(_) => EvKind::SleepTick,
            TestbedEvent::SampleTick => EvKind::SampleTick,
            TestbedEvent::DvfsDone { .. } => EvKind::DvfsDone,
            TestbedEvent::FaultBoundary => EvKind::FaultBoundary,
            TestbedEvent::FaultTick(_)
            | TestbedEvent::FaultIncast { .. }
            | TestbedEvent::FaultChurn { .. } => EvKind::FaultTick,
            TestbedEvent::FaultWake(_) => EvKind::FaultWake,
            TestbedEvent::WakeDispatch(_) => EvKind::WakeDispatch,
            TestbedEvent::TimelineTick => EvKind::TimelineTick,
            TestbedEvent::SwitchLoad(_) => EvKind::SwitchLoad,
        }
    }
}

/// Executed-event counter slots, one per [`TestbedEvent`] kind.
#[derive(Debug, Clone, Copy)]
enum EvKind {
    ClientSend,
    ClientRecv,
    IrqFire,
    ExecDone,
    SleepTick,
    SampleTick,
    DvfsDone,
    FaultBoundary,
    FaultTick,
    FaultWake,
    TimelineTick,
    WakeHardirq,
    WakeDispatch,
    SwitchLoad,
}

impl EvKind {
    const COUNT: usize = 14;

    /// Metrics-snapshot counter key.
    const fn key(self) -> &'static str {
        match self {
            EvKind::ClientSend => "engine.ev.client_send",
            EvKind::ClientRecv => "engine.ev.client_recv",
            EvKind::IrqFire => "engine.ev.irq_fire",
            EvKind::ExecDone => "engine.ev.exec_done",
            EvKind::SleepTick => "engine.ev.sleep_tick",
            EvKind::SampleTick => "engine.ev.sample_tick",
            EvKind::DvfsDone => "engine.ev.dvfs_done",
            EvKind::FaultBoundary => "engine.ev.fault_boundary",
            EvKind::FaultTick => "engine.ev.fault_tick",
            EvKind::FaultWake => "engine.ev.fault_wake",
            EvKind::TimelineTick => "engine.ev.timeline_tick",
            EvKind::WakeHardirq => "engine.ev.wake_hardirq",
            EvKind::WakeDispatch => "engine.ev.wake_dispatch",
            EvKind::SwitchLoad => "engine.ev.switch_load",
        }
    }

    const ALL: [EvKind; EvKind::COUNT] = [
        EvKind::ClientSend,
        EvKind::ClientRecv,
        EvKind::IrqFire,
        EvKind::ExecDone,
        EvKind::SleepTick,
        EvKind::SampleTick,
        EvKind::DvfsDone,
        EvKind::FaultBoundary,
        EvKind::FaultTick,
        EvKind::FaultWake,
        EvKind::TimelineTick,
        EvKind::WakeHardirq,
        EvKind::WakeDispatch,
        EvKind::SwitchLoad,
    ];
}

/// What a core is currently executing.
enum RunKind {
    /// Interrupt entry + NAPI schedule.
    HardIrq { q: QueueId },
    /// One NAPI poll batch (descriptors already claimed from the NIC;
    /// the Rx packets wait in the core's [`ExecState::poll_rx`]).
    Poll { ctx: ProcContext, tx_cleaned: usize },
    /// One application request.
    App { pkt: Packet },
}

struct Running {
    kind: RunKind,
    seq: u64,
    done_ev: simcore::EventId,
    done_at: SimTime,
}

struct PreemptedApp {
    pkt: Packet,
    remaining_cycles: u64,
}

struct ExecState {
    running: Option<Running>,
    preempted: Option<PreemptedApp>,
    quantum_started: SimTime,
    /// CC6 cache-refill time owed to the next execution.
    cache_debt: SimDuration,
    seq: u64,
    /// Rx packets claimed by the in-flight poll batch. A core runs at
    /// most one batch at a time, so one buffer per core, reused
    /// across polls, keeps polling allocation-free.
    poll_rx: Vec<Packet>,
}

impl ExecState {
    fn new() -> Self {
        ExecState {
            running: None,
            preempted: None,
            quantum_started: SimTime::ZERO,
            cache_debt: SimDuration::ZERO,
            seq: 0,
            poll_rx: Vec::new(),
        }
    }
}

/// The simulation world: a complete server plus its client.
pub struct Testbed {
    /// Processor (cores, DVFS domains, energy accounting).
    pub processor: Processor,
    /// The multi-queue NIC.
    pub nic: Nic,
    /// Per-core NAPI contexts (one queue per core).
    pub napi: Vec<NapiContext>,
    /// The load-generating, latency-measuring client. Its raw
    /// response series ([`Client::response_log`]) records only when
    /// the trace buffer does.
    pub client: Client,
    /// The V/F governor under test.
    pub governor: Box<dyn PStateGovernor>,
    /// The sleep policy under test.
    pub sleep: Box<dyn SleepPolicy>,
    /// Per-core ksoftirqd wake (`true`) / sleep (`false`) marks:
    /// `len()` counts every mark, entries are kept only while the
    /// trace buffer records.
    pub ksoftirqd_log: Vec<EventLog<bool>>,
    /// Optional per-poll-batch observer (threshold profiling).
    #[allow(clippy::type_complexity)]
    pub poll_observer: Option<Box<dyn FnMut(CoreId, PollClass, u64, SimTime) + Send>>,
    /// Conservation ledger every event path credits; audited by
    /// [`audit_report`](Testbed::audit_report).
    pub ledger: ConservationLedger,
    /// Structured trace events (request spans and governor instants
    /// land here live; component logs are replayed in by
    /// [`collect_trace`](Testbed::collect_trace)). Recording requires
    /// a non-zero [`TestbedConfig::trace_capacity`].
    pub trace: simcore::TraceBuffer,
    /// Deterministically ordered counters/gauges/histograms, filled by
    /// [`collect_metrics`](Testbed::collect_metrics).
    pub metrics: simcore::MetricsRegistry,
    /// Per-request latency attribution: decomposes every completed
    /// request's end-to-end latency into pipeline stages that sum
    /// exactly to the measured value (ledger-audited).
    pub attrib: AttribTracker,
    /// Online SLO watchdog: sliding-window P99 per core and globally,
    /// with violation/recovery episode detection. Always on (its
    /// report is part of every run result).
    pub watchdog: SloWatchdog,
    /// The fault injector evaluating [`TestbedConfig::fault_plan`].
    pub faults: FaultInjector,
    /// The telemetry timeline bus: fixed-interval per-core gauge rows
    /// with interval-doubling decimation, polled by governors through
    /// [`simcore::TelemetryTap`]. Recording requires
    /// [`TestbedConfig::timeline`] with a non-zero cap.
    pub timeline: simcore::TimeSeriesSampler,

    profile: ProcessorProfile,
    app: AppModel,
    service: ServiceSampler,
    stack: StackParams,
    link: LinkModel,
    scope: DvfsScope,
    arrivals: BurstyArrivals,
    runqueues: Vec<RunQueue>,
    exec: Vec<ExecState>,
    backlog: Vec<VecDeque<Packet>>,
    core_idle: Vec<bool>,
    /// When each core last went idle, and its pending sleep tick
    /// (cancelled when the core wakes).
    idle_since: Vec<SimTime>,
    sleep_tick: Vec<Option<simcore::EventId>>,
    rng_arrival: RngStream,
    rng_client: RngStream,
    rng_service: RngStream,
    rng_dvfs: RngStream,
    rng_wake: RngStream,
    nic_window_rx: u64,
    /// Generation counter for the arrival chain: bumping it kills the
    /// previously scheduled send chain (used by [`switch_load`]).
    ///
    /// [`switch_load`]: Testbed::switch_load
    arrival_gen: u64,
    /// The send instant of the chain's pending request, which reaches
    /// the NIC at `next_send + request_delay`.
    next_send: Option<SimTime>,
    /// One-way link delay of a request (every request is the same
    /// size): how far the arrival chain runs behind its send instants.
    request_delay: SimDuration,
    /// Connection churns `(instant, shift)` not yet applied to the
    /// client. A request is built when it reaches the NIC, one
    /// `request_delay` after its send, so a churn applies from the
    /// first request sent at or after its instant.
    pending_churn: VecDeque<(SimTime, u64)>,
    measure_start: SimTime,
    measure_start_energy: f64,
    /// Ledger latency-sample balance at measurement start, so the
    /// audit can compare post-warm-up samples against the client's
    /// (reset) histogram.
    measure_start_samples: u64,
    actions: Vec<Action>,
    /// Executed-event counts per handler kind (indexed by `EvKind`).
    ev_counts: [u64; EvKind::COUNT],
    /// ksoftirqd wake marks across all cores (`ksoftirqd.wakes`).
    ksoftirqd_wakes: u64,
    /// Per-core interrupt-chain timestamps for the attribution
    /// profiler's ring-interval decomposition.
    marks: Vec<ChainMarks>,
    /// Scratch buffer for watchdog events (reused per response).
    watchdog_events: Vec<WatchdogEvent>,
    /// The configured load, kept so load-spike faults can scale it.
    base_load: LoadSpec,
    /// Load-spike factor currently applied via `switch_load`.
    load_factor_applied: f64,
    /// Queues whose IRQ unmask write was lost to a stuck-mask fault;
    /// released by the fault-boundary event when the scope ends.
    stuck_masked: Vec<bool>,
    /// Last poll-batch signal per core, for stale-signal replay.
    last_poll_signal: Vec<Option<(PollClass, u64)>>,
    /// Response packets sent but not yet received by the client.
    wire_responses_in_flight: u64,
    /// RAPL-like interval counter, read once per sampling tick; a
    /// clamped (negative-delta) read fails the conservation audit.
    rapl: RaplCounter,
    /// Bounded ring of every governor decision with the feature
    /// snapshot it acted on.
    flight: FlightRecorder,
    /// Each core's last sampled CC0 utilization, per mille (the
    /// flight recorder's utilization input).
    last_util: Vec<u32>,
    /// Reusable scratch row for the timeline tick (no per-sample
    /// allocation).
    timeline_row: Vec<i64>,
    /// Reusable scratch for the pre-transition frequencies a DVFS
    /// completion re-times in-flight chunks against.
    old_freqs: Vec<u64>,
    /// Integer-µJ package totals already credited to the energy
    /// ledger accounts (credits happen at sample boundaries).
    energy_credited_measured_uj: u64,
    energy_credited_attributed_uj: u64,
    /// The configured admission policy bounding the app queues.
    admission: AdmissionPolicy,
    /// Requests shed by the admission policy, per core (sums to the
    /// [`Account::PacketsShed`] ledger balance).
    shed: Vec<u64>,
    /// Cumulative integer-µJ totals at `begin_measurement`, windowing
    /// the [`energy_summary`](Testbed::energy_summary).
    measure_start_uj: EnergySummary,
}

impl World for Testbed {
    type Event = TestbedEvent;

    fn handle(&mut self, ev: TestbedEvent, sim: &mut Simulator<Testbed>) {
        self.ev_counts[ev.kind() as usize] += 1;
        match ev {
            TestbedEvent::ClientSend { gen } => self.ev_client_send(sim, gen),
            TestbedEvent::ClientSendAt { sent_at, requests } => {
                self.requests_at_nic(sim, sent_at, requests)
            }
            TestbedEvent::ClientRecv(pkt) => self.ev_client_recv(sim, pkt),
            TestbedEvent::IrqFire(q) => self.ev_irq_fire(sim, q),
            TestbedEvent::WakeHardirq { core, q } => self.begin_hardirq(sim, core, q),
            TestbedEvent::ExecDone { core, seq } => self.ev_exec_done(sim, core, seq),
            TestbedEvent::SleepTick(core) => self.ev_sleep_tick(sim, core),
            TestbedEvent::SampleTick => self.ev_sample_tick(sim),
            TestbedEvent::DvfsDone { core, token } => self.ev_dvfs_done(sim, core, token),
            TestbedEvent::FaultBoundary => self.ev_fault_boundary(sim),
            TestbedEvent::FaultTick(spec) => self.ev_fault_tick(sim, spec),
            TestbedEvent::FaultIncast { requests } => self.ev_fault_incast(sim, requests),
            TestbedEvent::FaultChurn { shift } => self.ev_fault_churn(sim, shift),
            TestbedEvent::FaultWake(core) => self.ev_fault_wake(sim, core),
            TestbedEvent::WakeDispatch(core) => self.wake_dispatch(sim, core),
            TestbedEvent::TimelineTick => self.ev_timeline_tick(sim),
            TestbedEvent::SwitchLoad(load) => self.switch_load(sim, load),
        }
    }
}

impl Testbed {
    /// Builds the world and schedules its initial events (first
    /// request arrival, first governor sampling tick).
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid; use
    /// [`try_new`](Testbed::try_new) to get the typed error instead.
    pub fn new(
        config: TestbedConfig,
        governor: Box<dyn PStateGovernor>,
        sleep: Box<dyn SleepPolicy>,
        sim: &mut Simulator<Testbed>,
    ) -> Self {
        Testbed::try_new(config, governor, sleep, sim).expect("invalid TestbedConfig")
    }

    /// Fallible constructor: validates the config
    /// ([`TestbedConfig::validate`]) before any component constructor
    /// can panic on it, then builds the world and schedules its
    /// initial events.
    pub fn try_new(
        config: TestbedConfig,
        governor: Box<dyn PStateGovernor>,
        sleep: Box<dyn SleepPolicy>,
        sim: &mut Simulator<Testbed>,
    ) -> Result<Self, simcore::SimError> {
        config.validate()?;
        let cores = config.profile.cores;
        let queues = config.nic_queues.unwrap_or(cores).min(cores);
        let mut processor = Processor::new(config.profile.clone(), config.scope);
        let mut nic = Nic::new(NicConfig::intel_82599(queues));
        let stack = stack_for(config.app.kind);
        let mut napi: Vec<NapiContext> = (0..cores).map(|_| NapiContext::new(stack)).collect();
        let mut ksoftirqd_log: Vec<EventLog<bool>> =
            (0..cores).map(|_| EventLog::counting()).collect();
        let trace = simcore::TraceBuffer::with_capacity(config.trace_capacity);
        // Per-event logs that only traces read follow the trace switch:
        // untraced runs count transitions and keep no entries.
        let mut client = Client::new(CLIENT_FLOWS, config.app.request_size);
        let link = LinkModel::ten_gbe();
        let request_delay = link.delay_bytes(client.request_size());
        if trace.is_recording() {
            nic.set_log_recording(true);
            napi.iter_mut().for_each(|n| n.set_log_recording(true));
            for i in 0..cores {
                processor.core_mut(CoreId(i)).set_log_recording(true);
            }
            ksoftirqd_log.iter_mut().for_each(|l| l.set_recording(true));
            client.set_response_log_enabled(true);
        }
        let arrivals = config.load.arrivals();
        let seed = config.seed;
        let faults = FaultInjector::from_plan(&config.fault_plan, seed);
        let mut tb = Testbed {
            processor,
            nic,
            napi,
            client,
            governor,
            sleep,
            ksoftirqd_log,
            poll_observer: None,
            ledger: ConservationLedger::new(),
            trace,
            metrics: simcore::MetricsRegistry::default(),
            attrib: AttribTracker::new(),
            // A 5 ms sliding window keeps the online P99 responsive to
            // bursts while holding enough samples for a stable tail.
            watchdog: SloWatchdog::new(config.app.slo, SimDuration::from_millis(5), cores),
            faults,
            profile: config.profile.clone(),
            app: config.app,
            service: config.app.service_sampler(),
            stack,
            link,
            scope: config.scope,
            arrivals,
            runqueues: (0..cores).map(|_| RunQueue::new()).collect(),
            exec: (0..cores).map(|_| ExecState::new()).collect(),
            backlog: (0..cores).map(|_| VecDeque::new()).collect(),
            core_idle: vec![false; cores],
            idle_since: vec![SimTime::ZERO; cores],
            sleep_tick: vec![None; cores],
            rng_arrival: RngStream::derive(seed, "arrival", 0),
            rng_client: RngStream::derive(seed, "client", 0),
            rng_service: RngStream::derive(seed, "service", 0),
            rng_dvfs: RngStream::derive(seed, "dvfs", 0),
            rng_wake: RngStream::derive(seed, "wake", 0),
            nic_window_rx: 0,
            arrival_gen: 0,
            next_send: None,
            request_delay,
            pending_churn: VecDeque::new(),
            measure_start: SimTime::ZERO,
            measure_start_energy: 0.0,
            measure_start_samples: 0,
            actions: Vec::new(),
            ev_counts: [0; EvKind::COUNT],
            ksoftirqd_wakes: 0,
            marks: vec![ChainMarks::default(); cores],
            watchdog_events: Vec::new(),
            base_load: config.load,
            load_factor_applied: 1.0,
            stuck_masked: vec![false; cores],
            last_poll_signal: vec![None; cores],
            wire_responses_in_flight: 0,
            rapl: RaplCounter::new(),
            // 4096 decisions ≈ tens of seconds of history at typical
            // decision rates; old entries evict with drop accounting.
            flight: FlightRecorder::with_capacity(4096),
            last_util: vec![0; cores],
            timeline: simcore::TimeSeriesSampler::new(cores, config.timeline),
            timeline_row: Vec::with_capacity(cores * simcore::GAUGES),
            old_freqs: Vec::with_capacity(cores),
            energy_credited_measured_uj: 0,
            energy_credited_attributed_uj: 0,
            admission: config.admission,
            shed: vec![0; cores],
            measure_start_uj: EnergySummary::default(),
        };
        // All cores start idle under the sleep policy.
        for i in 0..cores {
            tb.core_idle[i] = false; // force the transition below
            tb.go_idle(sim, CoreId(i));
        }
        tb.start_arrival_chain(sim, SimTime::ZERO);
        // Governor sampling tick.
        let interval = tb.governor.sampling_interval();
        sim.schedule_at(SimTime::ZERO + interval, TestbedEvent::SampleTick);
        // Telemetry timeline tick: a fixed cadence independent of the
        // governor's sampling interval, so every governor's timeline
        // is sampled at identical instants.
        if tb.timeline.is_recording() {
            let tick = tb.timeline.interval();
            sim.schedule_at(SimTime::ZERO + tick, TestbedEvent::TimelineTick);
        }
        // Fault schedule: every scope edge gets a boundary event that
        // recomputes the modal overrides (ITR, ring clamp, DVFS
        // padding, load factor, stuck-mask release); periodic and
        // one-shot kinds start their own chains at the scope start.
        for &spec in tb.faults.specs() {
            let scope = spec.scope;
            sim.schedule_at(scope.start, TestbedEvent::FaultBoundary);
            if scope.end < SimTime::MAX {
                sim.schedule_at(scope.end, TestbedEvent::FaultBoundary);
            }
            match spec.kind {
                FaultKind::SpuriousIrq { .. } | FaultKind::NapiSignalStuck { .. } => {
                    sim.schedule_at(scope.start, TestbedEvent::FaultTick(spec));
                }
                FaultKind::IncastBurst { requests } => {
                    sim.schedule_at(scope.start, TestbedEvent::FaultIncast { requests });
                }
                FaultKind::ConnectionChurn { shift } => {
                    sim.schedule_at(scope.start, TestbedEvent::FaultChurn { shift });
                }
                _ => {}
            }
        }
        Ok(tb)
    }

    /// The processor profile in use.
    pub fn profile(&self) -> &ProcessorProfile {
        &self.profile
    }

    /// The application model in use.
    pub fn app(&self) -> &AppModel {
        &self.app
    }

    /// Marks the start of the measured interval: clears client
    /// statistics and anchors the energy counter (run after warm-up).
    pub fn begin_measurement(&mut self, now: SimTime) {
        self.client.reset_stats();
        self.measure_start = now;
        self.measure_start_energy = self.processor.package_energy_joules(now);
        self.measure_start_samples = self.ledger.balance(Account::LatencySamples);
        self.measure_start_uj = self.processor.energy_totals(now);
    }

    /// Integer-exact energy attribution over the measured interval:
    /// per-core measured µJ with their component decompositions, the
    /// package uncore term, the same energy split by packet-processing
    /// mode, and the RAPL clamp count.
    pub fn energy_summary(&mut self, end: SimTime) -> EnergySummary {
        EnergySummary {
            rapl_clamps: self.rapl.clamp_events(),
            ..self
                .processor
                .energy_totals(end)
                .since(&self.measure_start_uj)
        }
    }

    /// The governor decision flight recorder's end-of-run summary.
    pub fn flight_summary(&self) -> FlightSummary {
        self.flight.summary()
    }

    /// Package energy consumed since `begin_measurement`, in joules.
    pub fn measured_energy(&mut self, now: SimTime) -> f64 {
        self.processor.package_energy_joules(now) - self.measure_start_energy
    }

    /// Length of the measured interval so far.
    pub fn measured_duration(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.measure_start)
    }

    // ------------------------------------------------------------------
    // Client events
    // ------------------------------------------------------------------

    /// The chain's pending request reaches the NIC; the chain goes on
    /// from its send instant.
    fn ev_client_send(&mut self, sim: &mut Simulator<Testbed>, gen: u64) {
        if gen != self.arrival_gen {
            return; // stale chain: the load switched
        }
        let sent_at = sim.now() - self.request_delay;
        debug_assert_eq!(self.next_send, Some(sent_at));
        self.requests_at_nic(sim, sent_at, 1);
        self.start_arrival_chain(sim, sent_at);
    }

    /// Draws the chain's first send after `after` and schedules its
    /// arrival at the NIC.
    fn start_arrival_chain(&mut self, sim: &mut Simulator<Testbed>, after: SimTime) {
        self.next_send = self.arrivals.next_after(after, &mut self.rng_arrival);
        if let Some(t) = self.next_send {
            let gen = self.arrival_gen;
            sim.schedule_at(t + self.request_delay, TestbedEvent::ClientSend { gen });
        }
    }

    /// Ends the arrival chain at `now`. Its sends up to `now` are on
    /// the wire already and still reach the NIC; drawing them draws
    /// the chain on to its first send after `now`, so `rng_arrival`
    /// sees the same draws as if every send had run at its instant.
    fn stop_arrival_chain(&mut self, sim: &mut Simulator<Testbed>, now: SimTime) {
        self.arrival_gen += 1;
        while let Some(sent_at) = self.next_send.filter(|&t| t <= now) {
            sim.schedule_at(
                sent_at + self.request_delay,
                TestbedEvent::ClientSendAt {
                    sent_at,
                    requests: 1,
                },
            );
            self.next_send = self.arrivals.next_after(sent_at, &mut self.rng_arrival);
        }
        self.next_send = None;
    }

    /// Switches the offered load mid-run (Fig 16's varying-load
    /// workload). The old arrival chain stops sending; a fresh chain
    /// starts from the new spec immediately.
    pub fn switch_load(&mut self, sim: &mut Simulator<Testbed>, load: LoadSpec) {
        let now = sim.now();
        self.stop_arrival_chain(sim, now);
        self.arrivals = load.arrivals();
        self.start_arrival_chain(sim, now);
    }

    fn ev_client_recv(&mut self, sim: &mut Simulator<Testbed>, pkt: Packet) {
        let now = sim.now();
        self.wire_responses_in_flight -= 1;
        let core = self.nic.rss_queue(pkt.flow).0;
        if self.faults.wire_drop(now, core) {
            // The response dies on the wire. Its attribution entry
            // stays pending (neither measured nor attributed time is
            // credited), so the latency identities keep balancing.
            self.faults.note_wire_response_dropped();
            self.ledger.credit(Account::PacketsFaultDropped, 1);
            self.ledger.credit(Account::ResponsesFaultDropped, 1);
            return;
        }
        let latency = self.client.on_response(&pkt, now);
        self.ledger.credit(Account::ResponsesReceived, 1);
        self.ledger.credit(Account::LatencySamples, 1);
        self.ledger
            .credit(Account::LatencyNanosMeasured, latency.as_nanos());
        // Close the request's attribution: the stage sums must equal
        // the measured latency exactly (audited). The tracker keeps the
        // per-stage histograms itself; `collect_metrics` exports them.
        if let Some(done) = self.attrib.completed(pkt.id.0, now) {
            self.ledger
                .credit(Account::LatencyNanosAttributed, done.breakdown.total_ns());
        }
        // The watchdog sees every sample, keyed to the serving core
        // (RSS pins a flow to one queue = one core).
        let mut events = std::mem::take(&mut self.watchdog_events);
        events.clear();
        self.watchdog
            .record(core, latency.as_nanos(), now, &mut events);
        if self.trace.is_recording() {
            self.trace_watchdog_events(now, &events);
        }
        self.watchdog_events = events;
        let mut actions = std::mem::take(&mut self.actions);
        self.governor.on_request_latency(latency, now, &mut actions);
        self.apply_actions(sim, &mut actions, DecisionTrigger::RequestLatency);
        self.actions = actions;
    }

    /// Turns watchdog state changes into Perfetto-visible counters and
    /// instants on the SLO track. Runs right after the sample that
    /// raised `events`, so the watchdog's windowed percentiles are the
    /// ones each rotation made fresh; untraced runs never scan them.
    fn trace_watchdog_events(&mut self, now: SimTime, events: &[WatchdogEvent]) {
        use simcore::TraceCategory::Slo;
        for ev in events {
            match *ev {
                WatchdogEvent::WindowRotated => {
                    let p99_ns = self.watchdog.online_p99_ns();
                    let p50_ns = self.watchdog.online_p50_ns();
                    self.trace.counter(now, Slo, 0, "p99-online", p99_ns as i64);
                    self.trace.counter(now, Slo, 0, "p50-online", p50_ns as i64);
                    // Refresh the cumulative stage-share counters at
                    // window cadence (per-mille of attributed time).
                    for stage in Stage::ALL {
                        self.trace.counter(
                            now,
                            Slo,
                            0,
                            stage.share_label(),
                            self.attrib.share_permille(stage) as i64,
                        );
                    }
                }
                WatchdogEvent::CoreWindow { core } => {
                    let p99_ns = self.watchdog.core_p99_ns(core as usize);
                    self.trace
                        .counter(now, Slo, core, "p99-core", p99_ns as i64);
                }
                WatchdogEvent::ViolationDetected { since_first_bad } => {
                    self.trace.instant(
                        now,
                        Slo,
                        0,
                        "slo-violation",
                        since_first_bad.as_nanos() as i64,
                    );
                }
                WatchdogEvent::Recovered { violated_for } => {
                    self.trace
                        .instant(now, Slo, 0, "slo-recovery", violated_for.as_nanos() as i64);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // NIC events
    // ------------------------------------------------------------------

    /// `requests` requests the client sent at `sent_at` reach the NIC
    /// now: each is built stamped with its send instant, counted as
    /// sent, and enqueued.
    fn requests_at_nic(&mut self, sim: &mut Simulator<Testbed>, sent_at: SimTime, requests: u32) {
        while let Some(&(at, shift)) = self.pending_churn.front() {
            if at > sent_at {
                break;
            }
            self.client.churn_flows(shift);
            self.pending_churn.pop_front();
        }
        for _ in 0..requests {
            let pkt = self.client.build_request(sent_at, &mut self.rng_client);
            debug_assert_eq!(self.link.delay(&pkt), self.request_delay);
            self.ledger.credit(Account::RequestsSent, 1);
            self.request_rx(sim, pkt);
        }
    }

    /// A request reaches the NIC: the wire may still drop it; if not,
    /// it and its companion packets are enqueued on its RSS queue.
    fn request_rx(&mut self, sim: &mut Simulator<Testbed>, pkt: Packet) {
        let now = sim.now();
        let q = self.nic.rss_queue(pkt.flow);
        if self.faults.wire_drop(now, q.0) {
            // The request dies on the wire before the NIC sees it:
            // accounted explicitly so conservation holds under loss.
            self.faults.note_wire_request_dropped();
            self.ledger.credit(Account::PacketsFaultDropped, 1);
            self.ledger.credit(Account::RequestsFaultDropped, 1);
            return;
        }
        self.ledger.credit(Account::RequestsArrivedAtNic, 1);
        // The request plus its TCP companion packets (ACKs): all cost
        // kernel processing, only the request reaches the application.
        for i in 0..self.app.rx_packets_per_request {
            let wire = if i == 0 { pkt } else { Packet::ack_on(&pkt) };
            let out = self.nic.enqueue_rx(q, wire, now);
            if out.accepted {
                self.nic_window_rx += 1;
                self.ledger.credit(Account::RxWireEnqueued, 1);
            } else {
                self.ledger.credit(Account::RxWireDropped, 1);
                if i == 0 {
                    self.ledger.credit(Account::RequestsDroppedAtNic, 1);
                }
            }
            if let Some(t) = out.irq_at {
                sim.schedule_at(t, TestbedEvent::IrqFire(q));
            }
        }
    }

    fn ev_irq_fire(&mut self, sim: &mut Simulator<Testbed>, q: QueueId) {
        let now = sim.now();
        if !self.nic.irq_fired(q, now) {
            return; // vector masked while the IRQ was in flight
        }
        if self.faults.irq_lost(now, q.0) {
            // The vector fired but the core never saw it. The vector
            // stays unmasked, so the next enqueue re-arms it and the
            // stranded ring work is picked up then.
            return;
        }
        self.deliver_hardirq(sim, q);
    }

    /// Runs the hardirq delivery path on `q`'s core: mask the vector,
    /// wake the core (or preempt the running application chunk), and
    /// start the interrupt handler.
    fn deliver_hardirq(&mut self, sim: &mut Simulator<Testbed>, q: QueueId) {
        let now = sim.now();
        // The hardirq handler's first action: mask the vector (NAPI).
        self.nic.disable_irq(q, now);
        let core = CoreId(q.0);
        // A new interrupt chain starts: anchor the attribution marks.
        // Marks from older chains are already in the past, so the
        // ring-interval cursor clamps them to zero-length slices.
        self.marks[core.0].irq_at = Some(now);
        if self.core_idle[core.0] {
            let cost = self
                .processor
                .core_mut(core)
                .wake(now, &self.profile, &mut self.rng_wake);
            self.sleep.on_wake(core, now);
            self.core_idle[core.0] = false;
            self.cancel_sleep_tick(sim, core);
            self.exec[core.0].cache_debt += cost.cache_refill;
            // The wake transition ends after the PLL ramp plus the
            // cache-refill debt the next chunk will pay up front.
            self.marks[core.0].wake_end = Some(now + cost.latency + self.exec[core.0].cache_debt);
            if !cost.latency.is_zero() {
                // During the wake transition the core is not executing
                // (voltage/PLL ramp): it idles in CC0 until the
                // hardirq can run.
                sim.schedule_in(cost.latency, TestbedEvent::WakeHardirq { core, q });
                return;
            }
            self.begin_hardirq(sim, core, q);
            return;
        }
        // Preempt an in-flight application chunk (hardirq outranks
        // threads). Poll/HardIrq cannot be running here: the vector is
        // masked for their whole lifetime.
        if let Some(running) = self.exec[core.0].running.take() {
            match running.kind {
                RunKind::App { pkt } => {
                    self.attrib.app_pause(pkt.id.0, now);
                    sim.cancel(running.done_ev);
                    let remaining_wall = running.done_at.saturating_since(now);
                    let remaining_cycles = self
                        .processor
                        .core(core)
                        .duration_to_cycles(remaining_wall, &self.profile)
                        .max(1);
                    self.exec[core.0].preempted = Some(PreemptedApp {
                        pkt,
                        remaining_cycles,
                    });
                }
                _ => unreachable!("IRQ delivered while the vector owner was running"),
            }
        }
        self.begin_hardirq(sim, core, q);
    }

    /// Starts the interrupt handler on an awake, execution-free core.
    fn begin_hardirq(&mut self, sim: &mut Simulator<Testbed>, core: CoreId, q: QueueId) {
        let cycles = self.stack.hardirq_cycles;
        self.start_exec(sim, core, RunKind::HardIrq { q }, cycles, SimDuration::ZERO);
    }

    // ------------------------------------------------------------------
    // Core execution machinery
    // ------------------------------------------------------------------

    /// Begins an execution chunk of `cycles` on `core`, optionally
    /// delayed by `extra_delay` (wake-up latency). Any pending CC6
    /// cache-refill debt is paid here.
    fn start_exec(
        &mut self,
        sim: &mut Simulator<Testbed>,
        core: CoreId,
        kind: RunKind,
        cycles: u64,
        extra_delay: SimDuration,
    ) {
        let now = sim.now();
        debug_assert!(
            self.exec[core.0].running.is_none(),
            "core already executing"
        );
        let debt = std::mem::replace(&mut self.exec[core.0].cache_debt, SimDuration::ZERO);
        {
            let c = self.processor.core_mut(core);
            c.set_busy(true, now, &self.profile);
            // Tag the energy meter with what this chunk is: hardirq
            // and NAPI poll cycles are kernel interrupt handling,
            // application chunks are app execution. The tag applies
            // from `now` forward (`set_busy` just closed the previous
            // segment under the old tag).
            let role = if matches!(kind, RunKind::App { .. }) {
                BusyRole::App
            } else {
                BusyRole::Irq
            };
            c.set_busy_role(role, now, &self.profile);
        }
        let work = self
            .processor
            .core(core)
            .cycles_to_duration(cycles, &self.profile);
        let stall = self
            .faults
            .exec_stall(now, core.0)
            .unwrap_or(SimDuration::ZERO);
        let dur = work + debt + extra_delay + stall;
        self.exec[core.0].seq += 1;
        let seq = self.exec[core.0].seq;
        let done_at = now + dur;
        let done_ev = sim.schedule_at(done_at, TestbedEvent::ExecDone { core, seq });
        self.exec[core.0].running = Some(Running {
            kind,
            seq,
            done_ev,
            done_at,
        });
    }

    fn ev_exec_done(&mut self, sim: &mut Simulator<Testbed>, core: CoreId, seq: u64) {
        let Some(running) = self.exec[core.0].running.take() else {
            return;
        };
        if running.seq != seq {
            // Stale completion (superseded by preemption/rescale).
            self.exec[core.0].running = Some(running);
            return;
        }
        match running.kind {
            RunKind::HardIrq { q } => self.finish_hardirq(sim, core, q),
            RunKind::Poll { ctx, tx_cleaned } => self.finish_poll(sim, core, ctx, tx_cleaned),
            RunKind::App { pkt } => self.finish_app(sim, core, pkt),
        }
    }

    fn finish_hardirq(&mut self, sim: &mut Simulator<Testbed>, core: CoreId, _q: QueueId) {
        let now = sim.now();
        self.marks[core.0].hardirq_end = Some(now);
        self.napi[core.0].on_irq(now);
        self.start_poll(sim, core, ProcContext::SoftIrq);
    }

    fn start_poll(&mut self, sim: &mut Simulator<Testbed>, core: CoreId, ctx: ProcContext) {
        let now = sim.now();
        // The first ksoftirqd poll after a handoff/requeue closes the
        // scheduling-delay window; later batches of the same stint
        // leave it untouched so their ring time reads as ring wait.
        if ctx == ProcContext::Ksoftirqd && self.marks[core.0].ksoftirqd_running.is_none() {
            self.marks[core.0].ksoftirqd_running = Some(now);
        }
        let q = QueueId(core.0);
        let budget = match self.faults.poll_budget_clamp(now, core.0) {
            Some(b) => b.clamp(1, self.stack.napi_weight),
            None => self.stack.napi_weight,
        };
        let mut rx = std::mem::take(&mut self.exec[core.0].poll_rx);
        rx.clear();
        let tx_cleaned = self.nic.poll_into(q, budget, &mut rx);
        for pkt in &rx {
            if pkt.kind == netsim::PacketKind::Request {
                self.attrib.claimed(
                    pkt.id.0,
                    pkt.client_sent_at,
                    pkt.nic_rx_at,
                    now,
                    &self.marks[core.0],
                );
            }
        }
        let cycles = self.stack.poll_batch_cycles(rx.len(), tx_cleaned);
        self.exec[core.0].poll_rx = rx;
        self.start_exec(
            sim,
            core,
            RunKind::Poll { ctx, tx_cleaned },
            cycles,
            SimDuration::ZERO,
        );
    }

    fn finish_poll(
        &mut self,
        sim: &mut Simulator<Testbed>,
        core: CoreId,
        ctx: ProcContext,
        tx_n: usize,
    ) {
        let now = sim.now();
        let q = QueueId(core.0);
        let rx = std::mem::take(&mut self.exec[core.0].poll_rx);
        let rx_n = rx.len();
        self.ledger.credit(Account::RxWirePolled, rx_n as u64);
        self.ledger
            .credit(Account::TxCompletionsCleaned, tx_n as u64);
        // Deliver request packets to the socket backlog (ACK-class
        // packets end at the transport layer); the app thread wakes.
        // The admission policy gates delivery: a shed request never
        // reaches the backlog, its attribution entry stays pending
        // (neither measured nor attributed time is credited), and the
        // ledger closes it under `PacketsShed` so the request identity
        // stays integer-exact.
        let mut delivered = false;
        for &pkt in &rx {
            if pkt.kind == netsim::PacketKind::Request {
                let sojourn = now.saturating_since(pkt.nic_rx_at);
                let depth = self.backlog[core.0].len();
                if !self.admission.admits(sojourn, depth)
                    && !self.faults.admission_bypassed(now, core.0)
                {
                    self.shed[core.0] += 1;
                    self.ledger.credit(Account::PacketsShed, 1);
                    continue;
                }
                self.attrib.delivered(pkt.id.0, now);
                self.backlog[core.0].push_back(pkt);
                self.ledger.credit(Account::RequestsDelivered, 1);
                delivered = true;
            }
        }
        // Hand the buffer back before anything can start the next poll.
        self.exec[core.0].poll_rx = rx;
        if delivered {
            self.runqueues[core.0].make_runnable(TaskId::App(0));
        }
        // NAPI re-checks the rings after the poll.
        let drained = !self.nic.has_work(q);
        // Resched pending: a thread (the app worker) is waiting on
        // this core — §2.1's third handoff condition.
        let resched = !self.backlog[core.0].is_empty();
        let mode_before = self.napi[core.0].mode();
        let outcome = self.napi[core.0].record_poll(rx_n, tx_n, drained, resched, ctx, now);
        // `record_poll` is the only place the packet-processing mode
        // can flip: retag the core's energy meter at the flip, so
        // joules-per-mode stays exact.
        let mode = self.napi[core.0].mode();
        if mode != mode_before {
            self.processor.core_mut(core).set_polling(
                mode == NapiMode::Polling,
                now,
                &self.profile,
            );
        }
        if let Some(observer) = self.poll_observer.as_mut() {
            observer(core, outcome.class, rx_n as u64, now);
        }
        let mut actions = std::mem::take(&mut self.actions);
        if self.faults.signal_suppressed(now, core.0) {
            // The mode-transition signal dies before the governor
            // sees it — the wedge NMAP's degradation watchdog covers.
        } else {
            self.last_poll_signal[core.0] = Some((outcome.class, rx_n as u64));
            self.governor
                .on_poll_batch(core, outcome.class, rx_n as u64, now, &mut actions);
        }
        self.apply_actions(sim, &mut actions, DecisionTrigger::PollBatch);
        self.actions = actions;

        match outcome.verdict {
            PollVerdict::Complete => {
                if self.faults.irq_mask_stuck(now, core.0) {
                    // NAPI's unmask write is lost: the vector stays
                    // masked until the fault scope ends (released by
                    // the boundary event).
                    self.stuck_masked[q.0] = true;
                } else if let Some(t) = self.nic.enable_irq(q, now) {
                    sim.schedule_at(t, TestbedEvent::IrqFire(q));
                }
                if ctx == ProcContext::Ksoftirqd {
                    self.note_ksoftirqd(sim, core, false);
                    self.runqueues[core.0].block_current();
                }
                self.dispatch(sim, core);
            }
            PollVerdict::Continue => match ctx {
                ProcContext::SoftIrq => self.start_poll(sim, core, ctx),
                ProcContext::Ksoftirqd => {
                    if self.quantum_expired(core, now) {
                        // ksoftirqd waits for the scheduler again.
                        self.marks[core.0].ksoftirqd_queued = Some(now);
                        self.marks[core.0].ksoftirqd_running = None;
                        self.runqueues[core.0].requeue_current();
                        self.dispatch(sim, core);
                    } else {
                        self.start_poll(sim, core, ctx);
                    }
                }
            },
            PollVerdict::Handoff => {
                self.marks[core.0].ksoftirqd_queued = Some(now);
                self.marks[core.0].ksoftirqd_running = None;
                self.napi[core.0].ksoftirqd_takeover();
                self.note_ksoftirqd(sim, core, true);
                if let Some(delay) = self.faults.wake_delay(now, core.0) {
                    // The wakeup IPI is missed; a retry lands later.
                    sim.schedule_in(delay, TestbedEvent::FaultWake(core));
                } else {
                    self.runqueues[core.0].make_runnable(TaskId::Ksoftirqd);
                }
                self.dispatch(sim, core);
            }
        }
    }

    fn note_ksoftirqd(&mut self, sim: &mut Simulator<Testbed>, core: CoreId, awake: bool) {
        let now = sim.now();
        self.ksoftirqd_log[core.0].push(now, awake);
        self.ksoftirqd_wakes += u64::from(awake);
        let mut actions = std::mem::take(&mut self.actions);
        self.governor.on_ksoftirqd(core, awake, now, &mut actions);
        self.apply_actions(sim, &mut actions, DecisionTrigger::Ksoftirqd);
        self.actions = actions;
    }

    fn start_app_next(&mut self, sim: &mut Simulator<Testbed>, core: CoreId) {
        let pkt = self.backlog[core.0]
            .pop_front()
            .expect("start_app_next with empty backlog");
        self.trace.begin(
            sim.now(),
            simcore::TraceCategory::Request,
            core.0 as u32,
            "request",
            pkt.flow.0 as i64,
        );
        let cycles = self.service.sample(&mut self.rng_service);
        // Price the ideal service time at P0: whatever the chunk
        // takes beyond it (minus wake debt and preemption gaps) is
        // by definition P-state slowdown.
        let debt = self.exec[core.0].cache_debt;
        let f_max = self.profile.pstates.fastest_frequency();
        let ideal =
            SimDuration::from_nanos(((cycles as u128 * 1_000_000_000) / f_max as u128) as u64);
        self.attrib
            .app_start(pkt.id.0, core.0 as u32, sim.now(), debt, ideal);
        self.start_exec(sim, core, RunKind::App { pkt }, cycles, SimDuration::ZERO);
    }

    fn finish_app(&mut self, sim: &mut Simulator<Testbed>, core: CoreId, pkt: Packet) {
        let now = sim.now();
        self.attrib.app_finish(pkt.id.0, now);
        self.trace.end(
            now,
            simcore::TraceCategory::Request,
            core.0 as u32,
            "request",
            pkt.flow.0 as i64,
        );
        let resp = Packet::response_to(&pkt, self.app.response_size);
        self.ledger.credit(Account::RequestsCompleted, 1);
        let q = QueueId(core.0);
        let segments = self.app.tx_segments_per_response as usize;
        self.ledger
            .credit(Account::TxCompletionsQueued, segments as u64);
        if let Some(t) = self
            .nic
            .enqueue_tx_with_completions(q, &resp, segments, now)
        {
            sim.schedule_at(t, TestbedEvent::IrqFire(q));
        }
        let delay = self.link.delay(&resp);
        self.wire_responses_in_flight += 1;
        sim.schedule_in(delay, TestbedEvent::ClientRecv(resp));

        let more_work = !self.backlog[core.0].is_empty();
        if more_work && !self.quantum_expired(core, now) {
            self.start_app_next(sim, core);
            return;
        }
        if more_work {
            self.runqueues[core.0].requeue_current();
        } else {
            self.runqueues[core.0].block_current();
        }
        self.dispatch(sim, core);
    }

    fn quantum_expired(&self, core: CoreId, now: SimTime) -> bool {
        self.runqueues[core.0].len() > 1
            && now.saturating_since(self.exec[core.0].quantum_started) >= self.stack.sched_quantum
    }

    /// Picks what runs next on an execution-free core.
    fn dispatch(&mut self, sim: &mut Simulator<Testbed>, core: CoreId) {
        let now = sim.now();
        debug_assert!(self.exec[core.0].running.is_none());
        // A preempted application chunk resumes first: its task still
        // owns the thread slot.
        if let Some(pa) = self.exec[core.0].preempted.take() {
            self.attrib.app_resume(pa.pkt.id.0, now);
            self.start_exec(
                sim,
                core,
                RunKind::App { pkt: pa.pkt },
                pa.remaining_cycles,
                SimDuration::ZERO,
            );
            return;
        }
        loop {
            if self.runqueues[core.0].current().is_none() {
                if self.runqueues[core.0].pick_next().is_none() {
                    self.go_idle(sim, core);
                    return;
                }
                self.exec[core.0].quantum_started = now;
            }
            match self.runqueues[core.0].current().expect("just picked") {
                TaskId::App(_) => {
                    if self.backlog[core.0].is_empty() {
                        self.runqueues[core.0].block_current();
                        continue;
                    }
                    self.start_app_next(sim, core);
                    return;
                }
                TaskId::Ksoftirqd => {
                    if self.napi[core.0].is_active() && self.napi[core.0].ksoftirqd_running() {
                        self.start_poll(sim, core, ProcContext::Ksoftirqd);
                        return;
                    }
                    // Spurious wake (work already drained by softirq).
                    self.runqueues[core.0].block_current();
                    continue;
                }
            }
        }
    }

    fn go_idle(&mut self, sim: &mut Simulator<Testbed>, core: CoreId) {
        let now = sim.now();
        if self.core_idle[core.0] {
            return;
        }
        {
            let c = self.processor.core_mut(core);
            c.set_busy(false, now, &self.profile);
        }
        self.core_idle[core.0] = true;
        self.idle_since[core.0] = now;
        let state = self.sleep.on_idle(core, now);
        if state.is_sleep() {
            self.processor
                .core_mut(core)
                .enter_sleep(state, now, &self.profile);
        }
        // cpuidle re-decides at scheduler ticks: a shallow pick can be
        // promoted once the idle proves long.
        self.sleep_tick[core.0] =
            Some(sim.schedule_in(self.stack.jiffy, TestbedEvent::SleepTick(core)));
    }

    /// The core woke: its pending sleep tick must not run.
    fn cancel_sleep_tick(&mut self, sim: &mut Simulator<Testbed>, core: CoreId) {
        if let Some(id) = self.sleep_tick[core.0].take() {
            sim.cancel(id);
        }
    }

    fn ev_sleep_tick(&mut self, sim: &mut Simulator<Testbed>, core: CoreId) {
        debug_assert!(
            self.core_idle[core.0],
            "sleep tick ran on busy core {}: a wake missed its cancel",
            core.0
        );
        let now = sim.now();
        let elapsed = now.saturating_since(self.idle_since[core.0]);
        if let Some(state) = self.sleep.on_tick(core, elapsed, now) {
            if state > self.processor.core(core).cstate() {
                self.processor
                    .core_mut(core)
                    .enter_sleep(state, now, &self.profile);
            }
        }
        self.sleep_tick[core.0] =
            Some(sim.schedule_in(self.stack.jiffy, TestbedEvent::SleepTick(core)));
    }

    // ------------------------------------------------------------------
    // Governor plumbing
    // ------------------------------------------------------------------

    fn ev_sample_tick(&mut self, sim: &mut Simulator<Testbed>) {
        let now = sim.now();
        let mut actions = std::mem::take(&mut self.actions);
        for i in 0..self.processor.num_cores() {
            let core = CoreId(i);
            let sample = self
                .processor
                .core_mut(core)
                .take_sample(now, &self.profile);
            self.last_util[i] = (sample.c0_frac * 1000.0).round() as u32;
            self.governor
                .on_core_sample(core, sample, now, &mut actions);
        }
        self.apply_actions(sim, &mut actions, DecisionTrigger::Sample);
        let rx = std::mem::take(&mut self.nic_window_rx);
        self.governor.on_nic_window(rx, now, &mut actions);
        self.apply_actions(sim, &mut actions, DecisionTrigger::NicWindow);
        self.actions = actions;
        self.account_energy(now);
        let interval = self.governor.sampling_interval();
        sim.schedule_in(interval, TestbedEvent::SampleTick);
    }

    /// Telemetry-bus tick: reads one row of per-core gauges into the
    /// timeline sampler, then offers the read side to the governor.
    /// The sampling itself is read-only — no RNG draws, no
    /// energy-integral advance, no sampling-window reset — but the
    /// governor's `on_telemetry` actions are applied, so a governor
    /// that acts on the tap (NMAP's shed-before-downclock hold) runs
    /// differently with the timeline off. Reschedules at the sampler's *current* interval, which doubles
    /// on every decimation, so the tick rate decays with the buffer.
    fn ev_timeline_tick(&mut self, sim: &mut Simulator<Testbed>) {
        let now = sim.now();
        let mut row = std::mem::take(&mut self.timeline_row);
        row.clear();
        for i in 0..self.processor.num_cores() {
            let core = CoreId(i);
            let c = self.processor.core(core);
            let rx_ring = if i < self.nic.num_queues() {
                self.nic.rx_backlog(QueueId(i)) as i64
            } else {
                0
            };
            let mut flags = 0i64;
            if self.governor.core_degraded(core) {
                flags |= simcore::obs::timeseries::FLAG_DEGRADED;
            }
            if self.faults.covers(now, i) {
                flags |= simcore::obs::timeseries::FLAG_FAULT_ACTIVE;
            }
            row.extend_from_slice(&[
                self.last_util[i] as i64,
                c.pstate().index() as i64,
                (self.napi[i].mode() == NapiMode::Polling) as i64,
                rx_ring,
                self.backlog[i].len() as i64,
                self.watchdog.core_p99_ns(i) as i64,
                (c.current_power_w(&self.profile) * 1000.0).round() as i64,
                flags,
                self.saturation_permille(i) as i64,
            ]);
        }
        self.timeline.record_row(now, &row);
        self.timeline_row = row;
        // Hand adaptive governors the read side of the bus; classic
        // governors' default hook ignores it and returns no actions.
        let mut actions = std::mem::take(&mut self.actions);
        self.governor
            .on_telemetry(&self.timeline, now, &mut actions);
        self.apply_actions(sim, &mut actions, DecisionTrigger::Sample);
        self.actions = actions;
        let tick = self.timeline.interval();
        sim.schedule_in(tick, TestbedEvent::TimelineTick);
    }

    /// Per-sample energy bookkeeping: one RAPL interval read (clamped
    /// negative deltas are audited to zero), integer-µJ conservation
    /// ledger credits, and per-core cumulative energy counter tracks.
    /// Called right after `take_sample` has advanced every core's
    /// `f64` cursor to `now`, so the extra package read integrates a
    /// zero-length segment — bit-exact on the energy fixtures.
    fn account_energy(&mut self, now: SimTime) {
        let _ = self.rapl.read_interval(&mut self.processor, now);
        let totals = self.processor.energy_totals(now);
        let measured = totals.measured_total_uj();
        let attributed = totals.attributed_total_uj();
        self.ledger.credit(
            Account::EnergyMeasuredUj,
            measured.saturating_sub(self.energy_credited_measured_uj),
        );
        self.ledger.credit(
            Account::EnergyAttributedUj,
            attributed.saturating_sub(self.energy_credited_attributed_uj),
        );
        self.energy_credited_measured_uj = measured;
        self.energy_credited_attributed_uj = attributed;
        if self.trace.is_recording() {
            for c in &totals.cores {
                self.trace.counter(
                    now,
                    simcore::TraceCategory::Energy,
                    c.core,
                    "energy-uj",
                    c.measured_uj as i64,
                );
            }
        }
    }

    /// Snapshots the input features a governor decision acted on and
    /// records it in the flight recorder, emitting a `Gov`-track
    /// instant (arg = `from_pstate << 8 | to_pstate`).
    fn record_decision(
        &mut self,
        now: SimTime,
        core: CoreId,
        to: PState,
        trigger: DecisionTrigger,
        chip_wide: bool,
    ) {
        let from = self.processor.core(core).pstate().index() as u32;
        let queue_depth = if core.0 < self.nic.num_queues() {
            self.nic.rx_backlog(QueueId(core.0)) as u32
        } else {
            0
        };
        self.flight.record(GovDecision {
            at: now,
            core: core.0 as u32,
            trigger,
            util_permille: self.last_util[core.0],
            polling: self.napi[core.0].mode() == NapiMode::Polling,
            queue_depth,
            from_pstate: from,
            to_pstate: to.index() as u32,
            chip_wide,
        });
        self.trace.instant(
            now,
            simcore::TraceCategory::Gov,
            core.0 as u32,
            "gov-decision",
            ((from as i64) << 8) | to.index() as i64,
        );
    }

    fn apply_actions(
        &mut self,
        sim: &mut Simulator<Testbed>,
        actions: &mut Vec<Action>,
        trigger: DecisionTrigger,
    ) {
        let now = sim.now();
        for action in actions.drain(..) {
            match action {
                Action::SetCore(core, p) => {
                    self.trace.instant(
                        now,
                        simcore::TraceCategory::Governor,
                        core.0 as u32,
                        "set-pstate",
                        p.index() as i64,
                    );
                    self.record_decision(now, core, p, trigger, false);
                    self.request_pstate(sim, core, p);
                }
                Action::SetAll(p) => {
                    for i in 0..self.processor.num_cores() {
                        self.trace.instant(
                            now,
                            simcore::TraceCategory::Governor,
                            i as u32,
                            "set-pstate",
                            p.index() as i64,
                        );
                        self.record_decision(now, CoreId(i), p, trigger, true);
                        self.request_pstate(sim, CoreId(i), p);
                    }
                }
            }
        }
    }

    fn request_pstate(&mut self, sim: &mut Simulator<Testbed>, core: CoreId, p: PState) {
        let now = sim.now();
        // Thermal throttling clamps too-fast requests to the floor.
        let p = PState::new(self.faults.clamp_pstate(now, p.index()));
        if let TransitionOutcome::Started {
            completes_at,
            token,
        } = self
            .processor
            .request_pstate(core, p, now, &mut self.rng_dvfs)
        {
            sim.schedule_at(completes_at, TestbedEvent::DvfsDone { core, token });
        }
    }

    fn ev_dvfs_done(&mut self, sim: &mut Simulator<Testbed>, core: CoreId, token: u64) {
        let now = sim.now();
        let affected = match self.scope {
            DvfsScope::PerCore => core.0..core.0 + 1,
            DvfsScope::ChipWide => 0..self.processor.num_cores(),
        };
        let mut old_freqs = std::mem::take(&mut self.old_freqs);
        old_freqs.clear();
        old_freqs.extend(
            affected
                .clone()
                .map(|c| self.processor.core(CoreId(c)).frequency_hz(&self.profile)),
        );
        match self
            .processor
            .complete_pstate(core, token, now, &mut self.rng_dvfs)
        {
            CompletionResult::Stale => {
                self.old_freqs = old_freqs;
                return;
            }
            CompletionResult::Settled { .. } => {}
            CompletionResult::FollowUp {
                completes_at,
                token: next_token,
                ..
            } => {
                sim.schedule_at(
                    completes_at,
                    TestbedEvent::DvfsDone {
                        core,
                        token: next_token,
                    },
                );
            }
        }
        for (c, &old) in affected.zip(&old_freqs) {
            self.rescale_exec(sim, CoreId(c), old);
        }
        self.old_freqs = old_freqs;
    }

    /// Re-times the in-flight execution chunk after a frequency change.
    fn rescale_exec(&mut self, sim: &mut Simulator<Testbed>, core: CoreId, old_freq: u64) {
        let now = sim.now();
        let new_freq = self.processor.core(core).frequency_hz(&self.profile);
        if new_freq == old_freq {
            return;
        }
        let Some(running) = self.exec[core.0].running.as_mut() else {
            return;
        };
        let remaining_wall = running.done_at.saturating_since(now);
        if remaining_wall.is_zero() {
            return;
        }
        let remaining_cycles =
            (remaining_wall.as_nanos() as u128 * old_freq as u128) / 1_000_000_000;
        let new_wall =
            SimDuration::from_nanos(((remaining_cycles * 1_000_000_000) / new_freq as u128) as u64);
        sim.cancel(running.done_ev);
        self.exec[core.0].seq += 1;
        let seq = self.exec[core.0].seq;
        let done_at = now + new_wall;
        let done_ev = sim.schedule_at(done_at, TestbedEvent::ExecDone { core, seq });
        let running = self.exec[core.0].running.as_mut().expect("checked above");
        running.seq = seq;
        running.done_ev = done_ev;
        running.done_at = done_at;
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// A fault-scope edge: recomputes every modal override from the
    /// set of scopes covering `now`. Idempotent, so overlapping scopes
    /// can each schedule their own boundary events.
    fn ev_fault_boundary(&mut self, sim: &mut Simulator<Testbed>) {
        let now = sim.now();
        self.nic.set_itr_override(self.faults.itr_override(now));
        self.nic
            .set_rx_capacity_clamp(self.faults.rx_ring_clamp(now));
        let padding = self.faults.dvfs_padding(now);
        self.processor.set_transition_padding(padding);
        let factor = self.faults.load_factor(now);
        if factor != self.load_factor_applied {
            self.load_factor_applied = factor;
            let spiked = LoadSpec::custom(
                self.base_load.avg_rps * factor,
                self.base_load.burst_period,
                self.base_load.duty,
                self.base_load.ramp_frac,
            );
            self.faults.note_load_switch(now);
            self.switch_load(sim, spiked);
        }
        // A stuck mask releases when its scope ends: the unmask write
        // finally lands, and buffered ring work re-arms the vector.
        for qi in 0..self.stuck_masked.len() {
            if !self.stuck_masked[qi] || self.faults.irq_mask_held(now, qi) {
                continue;
            }
            self.stuck_masked[qi] = false;
            let q = QueueId(qi);
            if let Some(t) = self.nic.enable_irq(q, now) {
                sim.schedule_at(t, TestbedEvent::IrqFire(q));
            }
        }
    }

    /// Periodic fault chain: spurious IRQs and stale NAPI-signal
    /// replay, firing every `period` for the life of the scope.
    fn ev_fault_tick(&mut self, sim: &mut Simulator<Testbed>, spec: FaultSpec) {
        let now = sim.now();
        let period = match spec.kind {
            FaultKind::SpuriousIrq { period } | FaultKind::NapiSignalStuck { period } => period,
            _ => return,
        };
        if now >= spec.scope.end || period.is_zero() {
            return;
        }
        sim.schedule_in(period, TestbedEvent::FaultTick(spec));
        let cores: Vec<usize> = match spec.scope.core {
            Some(c) if c < self.processor.num_cores() => vec![c],
            Some(_) => return,
            None => (0..self.processor.num_cores()).collect(),
        };
        match spec.kind {
            FaultKind::SpuriousIrq { .. } => {
                for c in cores {
                    self.fault_spurious_irq(sim, QueueId(c));
                }
            }
            FaultKind::NapiSignalStuck { .. } => {
                // Replay each core's *last* poll count as a polling-mode
                // claim even though no packets flow: the notification
                // path keeps insisting the core is mid-burst — the
                // stale-notification wedge NMAP's degradation watchdog
                // exists for.
                let mut actions = std::mem::take(&mut self.actions);
                for c in cores {
                    if let Some((_, rx)) = self.last_poll_signal[c] {
                        self.faults.note_signal_replayed(now, c);
                        self.governor.on_poll_batch(
                            CoreId(c),
                            PollClass::Polling,
                            rx.max(1),
                            now,
                            &mut actions,
                        );
                    }
                }
                self.apply_actions(sim, &mut actions, DecisionTrigger::PollBatch);
                self.actions = actions;
            }
            _ => {}
        }
    }

    /// Asserts one spurious IRQ on `q` if the vector could physically
    /// fire: unmasked, and its owner (hardirq/poll) not running.
    fn fault_spurious_irq(&mut self, sim: &mut Simulator<Testbed>, q: QueueId) {
        let now = sim.now();
        // Cores beyond the configured queue count own no IRQ vector.
        if q.0 >= self.nic.num_queues() || !self.nic.irq_enabled(q) {
            return;
        }
        let core = CoreId(q.0);
        let vector_busy = matches!(
            self.exec[core.0].running.as_ref().map(|r| &r.kind),
            Some(RunKind::HardIrq { .. }) | Some(RunKind::Poll { .. })
        );
        if vector_busy {
            return;
        }
        self.faults.note_spurious_irq(now, q.0);
        self.deliver_hardirq(sim, q);
    }

    /// The delayed ksoftirqd wakeup from a missed-wake fault lands.
    fn ev_fault_wake(&mut self, sim: &mut Simulator<Testbed>, core: CoreId) {
        if !(self.napi[core.0].is_active() && self.napi[core.0].ksoftirqd_running()) {
            return; // the stint ended through another path meanwhile
        }
        self.runqueues[core.0].make_runnable(TaskId::Ksoftirqd);
        if self.exec[core.0].running.is_some() || self.exec[core.0].preempted.is_some() {
            return; // the current chunk's completion will dispatch
        }
        if self.core_idle[core.0] {
            let now = sim.now();
            let cost = self
                .processor
                .core_mut(core)
                .wake(now, &self.profile, &mut self.rng_wake);
            self.sleep.on_wake(core, now);
            self.core_idle[core.0] = false;
            self.cancel_sleep_tick(sim, core);
            self.exec[core.0].cache_debt += cost.cache_refill;
            if !cost.latency.is_zero() {
                sim.schedule_in(cost.latency, TestbedEvent::WakeDispatch(core));
                return;
            }
        }
        self.dispatch(sim, core);
    }

    /// The wake transition a delayed ksoftirqd wakeup started has
    /// ended: the core dispatches, unless something else already put
    /// it to work (or back to sleep) meanwhile.
    fn wake_dispatch(&mut self, sim: &mut Simulator<Testbed>, core: CoreId) {
        if self.exec[core.0].running.is_none() && !self.core_idle[core.0] {
            self.dispatch(sim, core);
        }
    }

    /// An incast burst: `requests` extra requests hit the wire
    /// back-to-back at the scope start and reach the NIC together.
    fn ev_fault_incast(&mut self, sim: &mut Simulator<Testbed>, requests: u32) {
        let now = sim.now();
        self.faults.note_incast_burst(now, requests);
        sim.schedule_in(
            self.request_delay,
            TestbedEvent::ClientSendAt {
                sent_at: now,
                requests,
            },
        );
    }

    /// Connection churn: the client's flow space rotates, remapping
    /// RSS placement for requests sent from now on. In-flight requests
    /// keep their old flow ids, as live connections would.
    fn ev_fault_churn(&mut self, sim: &mut Simulator<Testbed>, shift: u64) {
        self.pending_churn.push_back((sim.now(), shift));
        self.faults.note_flow_churn(sim.now());
    }

    // ------------------------------------------------------------------
    // Introspection for experiments
    // ------------------------------------------------------------------

    /// Total packets delivered to application backlogs still waiting.
    pub fn total_backlog(&self) -> usize {
        self.backlog.iter().map(|b| b.len()).sum()
    }

    /// Admission-queue saturation for one core, per mille of the
    /// bounded capacity (the configured admission limit, or
    /// [`REFERENCE_ADMISSION_CAP`] when the queue is unbounded so the
    /// signal stays comparable across policy-on and policy-off runs).
    /// Clamped to 1000.
    pub fn saturation_permille(&self, core: usize) -> u32 {
        let cap = self
            .admission
            .capacity()
            .unwrap_or(REFERENCE_ADMISSION_CAP)
            .max(1);
        let depth = self.backlog[core].len();
        ((depth * 1000) / cap).min(1000) as u32
    }

    /// The highest per-core admission-queue saturation, per mille —
    /// the up-coupled overload signal a fleet's load balancer reads.
    pub fn max_saturation_permille(&self) -> u32 {
        (0..self.backlog.len())
            .map(|i| self.saturation_permille(i))
            .max()
            .unwrap_or(0)
    }

    /// Requests shed by the admission policy so far, across all cores.
    pub fn total_shed(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Requests currently held by a core: executing as an app chunk or
    /// parked preempted. Each holds exactly one delivered request that
    /// is neither in a backlog nor completed.
    fn requests_in_execution(&self) -> u64 {
        self.exec
            .iter()
            .map(|e| {
                let running = matches!(
                    e.running.as_ref().map(|r| &r.kind),
                    Some(RunKind::App { .. })
                ) as u64;
                running + e.preempted.is_some() as u64
            })
            .sum()
    }

    /// Rx packets, request packets, and Tx cleanups claimed from the
    /// NIC by in-flight poll batches (between `start_poll` and
    /// `finish_poll`). The ring counters count them as polled the
    /// moment the batch is claimed; the ledger credits them only when
    /// the poll retires, so an audit taken mid-poll must count them
    /// where they sit.
    fn in_flight_poll(&self) -> (u64, u64, u64) {
        let mut rx = 0u64;
        let mut requests = 0u64;
        let mut tx = 0u64;
        for e in &self.exec {
            if let Some(RunKind::Poll { tx_cleaned, .. }) = e.running.as_ref().map(|r| &r.kind) {
                rx += e.poll_rx.len() as u64;
                requests += e
                    .poll_rx
                    .iter()
                    .filter(|p| p.kind == netsim::PacketKind::Request)
                    .count() as u64;
                tx += *tx_cleaned as u64;
            }
        }
        (rx, requests, tx)
    }

    /// Evaluates every conservation identity the testbed maintains,
    /// valid at *any* simulation time (quantities still in flight are
    /// counted where they currently sit). Always `Some`.
    ///
    /// The identities cross-check two independent accounting paths:
    /// the event-path [`ledger`](Testbed::ledger) against each
    /// component's internal bookkeeping (NIC ring counters, NAPI
    /// per-mode totals, client statistics, and the incremental vs
    /// residency-ledger energy integrals).
    pub fn audit_report(&mut self, now: SimTime) -> Option<AuditReport> {
        let l = &self.ledger;
        let (poll_rx, poll_requests, poll_tx) = self.in_flight_poll();
        let mut report = AuditReport::new();

        // Wire-level Rx conservation, ledger vs NIC ring counters.
        report.check_exact(
            "rx wire: ledger enqueued == ring enqueued",
            l.balance(Account::RxWireEnqueued),
            self.nic.total_rx_enqueued(),
        );
        report.check_exact(
            "rx wire: ledger dropped == ring dropped",
            l.balance(Account::RxWireDropped),
            self.nic.total_rx_dropped(),
        );
        report.check_exact(
            "rx wire: ledger polled + in poll flight == ring polled",
            l.balance(Account::RxWirePolled) + poll_rx,
            self.nic.total_rx_polled(),
        );
        let rx_in_rings: u64 = (0..self.nic.num_queues())
            .map(|q| self.nic.rx_backlog(QueueId(q)) as u64)
            .sum();
        report.check_exact(
            "rx wire: enqueued == polled + in poll flight + in rings",
            l.balance(Account::RxWireEnqueued),
            l.balance(Account::RxWirePolled) + poll_rx + rx_in_rings,
        );

        // Request-level conservation through the whole server.
        report.check_exact(
            "requests: ledger nic drops == kind-aware ring drops",
            l.balance(Account::RequestsDroppedAtNic),
            self.nic.total_rx_req_dropped(),
        );
        report.check_exact(
            "requests: arrived == dropped + in rings + in poll flight + shed + delivered",
            l.balance(Account::RequestsArrivedAtNic),
            l.balance(Account::RequestsDroppedAtNic)
                + self.nic.total_rx_backlog_requests()
                + poll_requests
                + l.balance(Account::PacketsShed)
                + l.balance(Account::RequestsDelivered),
        );
        report.check_exact(
            "requests: ledger shed == admission shed counters",
            l.balance(Account::PacketsShed),
            self.shed.iter().sum::<u64>(),
        );
        report.check_exact(
            "requests: delivered == backlog + executing + completed",
            l.balance(Account::RequestsDelivered),
            self.total_backlog() as u64
                + self.requests_in_execution()
                + l.balance(Account::RequestsCompleted),
        );

        // Client accounting: ledger vs the client's own counters.
        report.check_exact(
            "client: ledger sent == client sent",
            l.balance(Account::RequestsSent),
            self.client.sent(),
        );
        report.check_exact(
            "client: ledger responses == client received",
            l.balance(Account::ResponsesReceived),
            self.client.received(),
        );
        report.check_exact(
            "latency: one sample per response",
            l.balance(Account::LatencySamples),
            l.balance(Account::ResponsesReceived),
        );
        report.check_exact(
            "latency: measured samples == client histogram",
            l.balance(Account::LatencySamples) - self.measure_start_samples,
            self.client.latencies().len() as u64,
        );

        // Tx completion descriptors (overflowed descriptors lose only
        // bookkeeping, so they sit in the ring drop counter).
        let tx_in_rings: u64 = (0..self.nic.num_queues())
            .map(|q| self.nic.tx_backlog(QueueId(q)) as u64)
            .sum();
        report.check_exact(
            "tx completions: queued == cleaned + in poll flight + in rings + dropped",
            l.balance(Account::TxCompletionsQueued),
            l.balance(Account::TxCompletionsCleaned)
                + poll_tx
                + tx_in_rings
                + self.nic.total_tx_dropped(),
        );

        // NAPI per-mode totals must cover exactly the polled packets.
        let napi_packets: u64 = self
            .napi
            .iter()
            .map(|n| n.total_interrupt_packets() + n.total_polling_packets())
            .sum();
        report.check_exact(
            "napi: per-mode packet totals == polled packets",
            napi_packets,
            l.balance(Account::RxWirePolled),
        );

        // Latency attribution: every completed request's stage sums
        // must equal its measured end-to-end latency, and the two
        // ledger totals (measured at the client vs attributed by the
        // profiler) must agree to the nanosecond.
        report.check_exact(
            "attrib: no per-request stage-sum mismatches",
            self.attrib.mismatches(),
            0,
        );
        report.check_exact(
            "attrib: attributed nanoseconds == measured nanoseconds",
            l.balance(Account::LatencyNanosAttributed),
            l.balance(Account::LatencyNanosMeasured),
        );

        // Fault-injected packet loss: explicitly accounted. The wire
        // itself conserves — everything sent either arrived, was
        // dropped by a fault, or is still flying — and the ledger's
        // fault accounts must agree with the injector's own counters.
        report.check_exact(
            "faults: request + response drops == packets fault-dropped",
            l.balance(Account::RequestsFaultDropped) + l.balance(Account::ResponsesFaultDropped),
            l.balance(Account::PacketsFaultDropped),
        );
        report.check_exact(
            "faults: ledger fault drops == injector wire-drop count",
            l.balance(Account::PacketsFaultDropped),
            self.faults.stats().wire_dropped(),
        );
        // A request counts as sent when it reaches the server's end
        // of the link, so none is in flight on the way in.
        report.check_exact(
            "wire: requests sent == arrived + fault-dropped",
            l.balance(Account::RequestsSent),
            l.balance(Account::RequestsArrivedAtNic) + l.balance(Account::RequestsFaultDropped),
        );
        report.check_exact(
            "wire: responses completed == received + fault-dropped + in flight",
            l.balance(Account::RequestsCompleted),
            l.balance(Account::ResponsesReceived)
                + l.balance(Account::ResponsesFaultDropped)
                + self.wire_responses_in_flight,
        );

        // Energy: incremental integral vs the residency-ledger
        // recomputation (different summation order → tolerance).
        let direct = self.processor.package_energy_joules(now);
        let audited = self.processor.audited_package_energy_joules(now);
        report.check_close(
            "energy: incremental == residency ledger",
            direct,
            audited,
            1e-6,
        );

        // Integer-exact energy attribution: every measured microjoule
        // lands in exactly one component, on every core, and the
        // packet-processing-mode split partitions the same total.
        let totals = self.processor.energy_totals(now);
        for c in &totals.cores {
            report.check_exact(
                &format!("energy: core {} measured µJ == attributed µJ", c.core),
                c.measured_uj,
                c.breakdown.total_uj(),
            );
        }
        let package_measured = totals.measured_total_uj();
        report.check_exact(
            "energy: package measured µJ == attributed µJ",
            package_measured,
            totals.attributed_total_uj(),
        );
        report.check_exact(
            "energy: interrupt + polling + transition µJ == core measured µJ",
            totals.modes.total_uj(),
            package_measured - totals.uncore_uj,
        );
        // The ledger totals lag the live cursors by at most one
        // sampling window; settle them before comparing.
        self.account_energy(now);
        report.check_exact(
            "energy: ledger measured µJ == ledger attributed µJ",
            self.ledger.balance(Account::EnergyMeasuredUj),
            self.ledger.balance(Account::EnergyAttributedUj),
        );
        report.check_exact(
            "energy: ledger measured µJ == package measured µJ",
            self.ledger.balance(Account::EnergyMeasuredUj),
            package_measured,
        );
        // The integer meter and the f64 integral are independent
        // accumulations of the same power model; the meters carry
        // their rounding remainder, so the divergence is bounded
        // *absolutely* — half a microjoule per core plus the
        // uncore's truncation — no matter how short the run. Fold
        // that bound into the relative tolerance so small-energy
        // windows (where a few µJ exceed 1e-6 relative) still
        // audit against the real guarantee.
        let f64_uj = direct * 1e6;
        let slack_uj = 0.5 * self.processor.num_cores() as f64 + 1.0;
        let tolerance = (slack_uj / f64_uj.max(1.0)).max(1e-6);
        report.check_close(
            "energy: integer µJ integral tracks the f64 integral",
            package_measured as f64,
            f64_uj,
            tolerance,
        );
        report.check_exact("energy: rapl clamp events", self.rapl.clamp_events(), 0);

        Some(report)
    }

    // ------------------------------------------------------------------
    // Observability (trace + metrics collection)
    // ------------------------------------------------------------------

    /// Replays every component's event logs into the testbed's trace
    /// buffer: NIC IRQ marks, NAPI mode residency and poll batches,
    /// per-core P-/C-state residency, ksoftirqd run intervals, and
    /// governor-internal marks. Request spans and governor actions were
    /// already emitted live during the run. Call once, at run end.
    /// No-op unless the buffer is recording.
    pub fn collect_trace(&mut self, end: SimTime) {
        use simcore::TraceCategory;
        if !self.trace.is_recording() {
            return;
        }
        // Replay the bounded component logs into a fresh buffer first,
        // then absorb the (potentially huge) live stream: if anything
        // overflows the capacity it is the live request/governor tail,
        // never the pstate/cstate/ksoftirqd summary tracks.
        let live = std::mem::take(&mut self.trace);
        let mut buf = simcore::TraceBuffer::with_capacity(live.capacity());
        self.nic.trace_into(&mut buf);
        for (i, napi) in self.napi.iter().enumerate() {
            napi.trace_into(i as u32, end, &mut buf);
        }
        self.processor.trace_into(end, &mut buf);
        self.governor.trace_into(&mut buf);
        // End-of-run energy attribution totals: one counter per
        // component per core on the `energy` track (the live stream
        // already carries the cumulative per-core µJ counters).
        for c in &self.processor.energy_totals(end).cores {
            for (component, uj) in c.breakdown.iter() {
                buf.counter(
                    end,
                    TraceCategory::Energy,
                    c.core,
                    component.label(),
                    uj as i64,
                );
            }
        }
        for &(t, label, core) in self.faults.log() {
            buf.instant(t, TraceCategory::Fault, core, label, 0);
        }
        // Telemetry timeline rows become one counter track per core
        // per gauge on the `timeline` category (Perfetto renders
        // these as counter tracks alongside the span tracks).
        if self.timeline.is_recording() {
            let tl = self.timeline.finish();
            for r in 0..tl.rows() {
                let t = SimTime::from_nanos(tl.times_ns[r]);
                for c in 0..tl.cores as usize {
                    for g in simcore::Gauge::ALL {
                        if let Some(v) = tl.value(r, c, g) {
                            buf.counter(t, TraceCategory::Timeline, c as u32, g.label(), v);
                        }
                    }
                }
            }
        }
        // ksoftirqd wake/sleep marks pair up into run-interval spans;
        // a thread still awake at run end closes at `end`.
        for (core, log) in self.ksoftirqd_log.iter().enumerate() {
            let mut open: Option<SimTime> = None;
            for &(t, awake) in log.entries() {
                match (awake, open) {
                    (true, None) => open = Some(t),
                    (false, Some(start)) => {
                        buf.begin(start, TraceCategory::Ksoftirqd, core as u32, "ksoftirqd", 0);
                        buf.end(t, TraceCategory::Ksoftirqd, core as u32, "ksoftirqd", 0);
                        open = None;
                    }
                    _ => {}
                }
            }
            if let Some(start) = open {
                buf.begin(start, TraceCategory::Ksoftirqd, core as u32, "ksoftirqd", 0);
                buf.end(end, TraceCategory::Ksoftirqd, core as u32, "ksoftirqd", 0);
            }
        }
        buf.absorb(live);
        self.trace = buf;
    }

    /// Gathers every component's totals into the testbed's metrics
    /// registry (NIC, NAPI, processor, governor, client, per-kind
    /// event counts). Call once, at run end.
    pub fn collect_metrics(&mut self, now: SimTime) {
        let mut m = std::mem::take(&mut self.metrics);
        self.nic.record_metrics(&mut m);
        for napi in &self.napi {
            napi.record_metrics(&mut m);
        }
        self.processor.record_metrics(now, &mut m);
        self.governor.record_metrics(&mut m);
        m.set_counter("client.sent", self.client.sent());
        m.set_counter("client.received", self.client.received());
        m.set_counter("ksoftirqd.wakes", self.ksoftirqd_wakes);
        for kind in EvKind::ALL {
            m.set_counter(kind.key(), self.ev_counts[kind as usize]);
        }
        let d = self.governor.degradation();
        m.set_counter("governor.degradations", d.degradations);
        m.set_counter("governor.recoveries", d.recoveries);
        m.set_counter("governor.degraded_cores", d.degraded_cores);
        let f = self.faults.stats();
        m.set_counter("fault.total", f.total());
        m.set_counter("fault.wire_requests_dropped", f.wire_requests_dropped);
        m.set_counter("fault.wire_responses_dropped", f.wire_responses_dropped);
        m.set_counter("fault.irqs_lost", f.irqs_lost);
        m.set_counter("fault.spurious_irqs", f.spurious_irqs);
        m.set_counter("fault.irq_unmasks_blocked", f.irq_unmasks_blocked);
        m.set_counter("fault.wakes_delayed", f.wakes_delayed);
        m.set_counter("fault.signals_suppressed", f.signals_suppressed);
        m.set_counter("fault.signals_replayed", f.signals_replayed);
        m.set_counter("fault.polls_clamped", f.polls_clamped);
        m.set_counter("fault.dvfs_delays", f.dvfs_delays);
        m.set_counter("fault.pstate_clamps", f.pstate_clamps);
        m.set_counter("fault.exec_stalls", f.exec_stalls);
        m.set_counter("fault.load_switches", f.load_switches);
        m.set_counter("fault.incast_requests", f.incast_requests);
        m.set_counter("fault.flow_churns", f.flow_churns);
        m.set_counter("fault.admission_bypasses", f.admission_bypasses);
        m.set_counter("admission.shed", self.total_shed());
        m.set_counter("attrib.requests", self.attrib.requests());
        m.set_counter("attrib.mismatches", self.attrib.mismatches());
        m.set_counter("attrib.pending", self.attrib.pending());
        self.attrib.record_metrics(&mut m);
        let energy = self.processor.energy_totals(now);
        m.set_counter("energy.measured_uj", energy.measured_total_uj());
        for component in simcore::EnergyComponent::ALL {
            m.set_counter(component.metric_key(), energy.component_uj(component));
        }
        m.set_counter("energy.mode_interrupt_uj", energy.modes.interrupt_uj);
        m.set_counter("energy.mode_polling_uj", energy.modes.polling_uj);
        m.set_counter("energy.mode_transition_uj", energy.modes.transition_uj);
        m.set_counter("gov.decisions", self.flight.total());
        m.set_counter("gov.decisions_evicted", self.flight.evicted());
        m.set_counter("rapl.clamp_events", self.rapl.clamp_events());
        let wd = self.watchdog.report(now);
        m.set_counter("slo.samples", wd.samples);
        m.set_counter("slo.episodes", wd.episodes as u64);
        m.set_counter("slo.violation_ns", wd.total_violation_ns);
        m.set_counter("slo.mean_detect_ns", wd.mean_detect_ns);
        m.set_counter("slo.mean_recover_ns", wd.mean_recover_ns);
        m.set_counter("trace.events", self.trace.len() as u64);
        m.set_counter("trace.dropped", self.trace.dropped());
        m.set_counter("timeline.samples", self.timeline.rows() as u64);
        m.set_counter("timeline.decimations", self.timeline.decimations());
        m.set_counter("timeline.dropped", self.timeline.dropped());
        self.metrics = m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use governors::{MenuPolicy, Ondemand, Performance};

    fn small_load(rps: f64) -> LoadSpec {
        LoadSpec::custom(rps, SimDuration::from_millis(100), 0.4, 0.3)
    }

    /// Stops the client's send chain, as a load switch does, so the
    /// pipeline can drain.
    fn stop_sends(sim: &mut Simulator<Testbed>, tb: &mut Testbed) {
        tb.stop_arrival_chain(sim, sim.now());
    }

    fn build(rps: f64, governor: Box<dyn PStateGovernor>) -> (Simulator<Testbed>, Testbed) {
        let cfg = TestbedConfig::new(AppModel::memcached(), small_load(rps)).with_seed(123);
        let cores = cfg.profile.cores;
        let mut sim = Simulator::new();
        let tb = Testbed::new(cfg, governor, Box::new(MenuPolicy::new(cores)), &mut sim);
        (sim, tb)
    }

    #[test]
    fn requests_flow_end_to_end() {
        let (mut sim, mut tb) = build(20_000.0, Box::new(Performance::new()));
        sim.run_until(&mut tb, SimTime::from_millis(300));
        assert!(tb.client.sent() > 1_000, "sent {}", tb.client.sent());
        assert!(
            tb.client.received() as f64 > 0.95 * tb.client.sent() as f64,
            "received {} of {}",
            tb.client.received(),
            tb.client.sent()
        );
    }

    #[test]
    fn latencies_are_physical() {
        let (mut sim, mut tb) = build(20_000.0, Box::new(Performance::new()));
        sim.run_until(&mut tb, SimTime::from_millis(300));
        // Minimum possible: 2 link traversals (~40 µs) + processing.
        let min = tb.client.latencies_mut().quantile(0.0);
        assert!(
            min >= 40_000,
            "min latency {min} ns below the physical floor"
        );
        let p50 = tb.client.latencies_mut().quantile(0.5);
        assert!(
            p50 < 1_000_000,
            "p50 {p50} ns should be well under 1 ms at this load"
        );
    }

    #[test]
    fn performance_governor_reaches_p0() {
        let (mut sim, mut tb) = build(20_000.0, Box::new(Performance::new()));
        sim.run_until(&mut tb, SimTime::from_millis(100));
        for c in tb.processor.cores() {
            assert_eq!(c.pstate(), PState::P0);
        }
    }

    #[test]
    fn ondemand_tracks_load() {
        let table = ProcessorProfile::xeon_gold_6134().pstates;
        let (mut sim, mut tb) = build(20_000.0, Box::new(Ondemand::new(table, 8)));
        sim.run_until(&mut tb, SimTime::from_secs(1));
        // Low load: cores should not be pinned at P0.
        let p0_cores = tb
            .processor
            .cores()
            .iter()
            .filter(|c| c.pstate() == PState::P0)
            .count();
        assert!(
            p0_cores < 8,
            "ondemand pinned everything at P0 under low load"
        );
        assert!(tb.client.received() > 0);
    }

    #[test]
    fn napi_counters_advance() {
        let (mut sim, mut tb) = build(100_000.0, Box::new(Performance::new()));
        sim.run_until(&mut tb, SimTime::from_millis(500));
        let intr: u64 = tb.napi.iter().map(|n| n.total_interrupt_packets()).sum();
        let poll: u64 = tb.napi.iter().map(|n| n.total_polling_packets()).sum();
        assert!(intr > 0, "some packets must be processed in interrupt mode");
        assert!(
            intr + poll >= tb.client.received(),
            "every delivered request passed through NAPI"
        );
    }

    #[test]
    fn energy_accrues_and_measurement_window_works() {
        let (mut sim, mut tb) = build(20_000.0, Box::new(Performance::new()));
        sim.run_until(&mut tb, SimTime::from_millis(100));
        tb.begin_measurement(sim.now());
        assert_eq!(
            tb.client.latencies().len(),
            0,
            "stats reset at measurement start"
        );
        sim.run_until(&mut tb, SimTime::from_millis(400));
        let e = tb.measured_energy(sim.now());
        assert!(e > 0.0);
        let d = tb.measured_duration(sim.now());
        assert_eq!(d, SimDuration::from_millis(300));
        // Power must be within physical bounds (idle..TDP-ish).
        let w = e / d.as_secs_f64();
        assert!((1.0..200.0).contains(&w), "implausible package power {w} W");
    }

    #[test]
    fn cores_sleep_between_bursts() {
        let (mut sim, mut tb) = build(5_000.0, Box::new(Performance::new()));
        sim.run_until(&mut tb, SimTime::from_secs(1));
        let c6: u64 = tb.processor.cores().iter().map(|c| c.c6_entries()).sum();
        assert!(c6 > 0, "menu must reach CC6 during idle gaps");
    }

    #[test]
    fn no_packets_lost_at_modest_load() {
        let (mut sim, mut tb) = build(50_000.0, Box::new(Performance::new()));
        sim.run_until(&mut tb, SimTime::from_millis(500));
        assert_eq!(tb.nic.total_rx_dropped(), 0);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let (mut sim, mut tb) = build(30_000.0, Box::new(Performance::new()));
            sim.run_until(&mut tb, SimTime::from_millis(400));
            (
                tb.client.sent(),
                tb.client.received(),
                tb.client.latencies_mut().quantile(0.99),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn conservation_holds_mid_run_and_after_drain() {
        let (mut sim, mut tb) = build(80_000.0, Box::new(Performance::new()));
        // Mid-run: packets are in flight everywhere, yet every identity
        // must still balance.
        sim.run_until(&mut tb, SimTime::from_millis(40));
        tb.begin_measurement(sim.now());
        sim.run_until(&mut tb, SimTime::from_millis(150));
        tb.audit_report(sim.now())
            .expect("audit enabled")
            .assert_balanced();
        // After drain: stop sends and let the pipeline empty.
        stop_sends(&mut sim, &mut tb);
        sim.run_until(&mut tb, SimTime::from_millis(400));
        let report = tb.audit_report(sim.now()).expect("audit enabled");
        report.assert_balanced();
        assert!(report.checks.len() >= 10, "audit must cover the full stack");
    }

    #[test]
    fn conservation_holds_under_ring_overflow() {
        // Tiny rings + heavy load force Rx tail drops; the dropped
        // packets must land in the drop accounts, not vanish.
        let table = ProcessorProfile::xeon_gold_6134().pstates;
        let slowest = table.slowest();
        let (mut sim, mut tb) = build(600_000.0, Box::new(governors::Userspace::new(slowest)));
        sim.run_until(&mut tb, SimTime::from_millis(200));
        tb.audit_report(sim.now())
            .expect("audit enabled")
            .assert_balanced();
    }

    #[test]
    fn attribution_covers_every_response_exactly() {
        let (mut sim, mut tb) = build(50_000.0, Box::new(Performance::new()));
        sim.run_until(&mut tb, SimTime::from_millis(300));
        assert!(tb.client.received() > 1_000);
        assert_eq!(
            tb.attrib.requests(),
            tb.client.received(),
            "every response must close an attribution"
        );
        assert_eq!(tb.attrib.mismatches(), 0, "stage sums must equal e2e");
        let summary = tb.attrib.summary();
        assert_eq!(summary.attributed_total_ns, summary.e2e_total_ns);
        let service = summary.stage(simcore::Stage::AppService).unwrap();
        assert!(service.sum_ns > 0, "service time must be attributed");
        let wire = summary.stage(simcore::Stage::Wire).unwrap();
        assert!(wire.sum_ns > 0, "wire time must be attributed");
    }

    #[test]
    fn attribution_balances_under_ksoftirqd_overload() {
        // The slowest-pinned overload path exercises preemption,
        // handoff, and ksoftirqd claims — the sums must still be
        // exact for every request.
        let table = ProcessorProfile::xeon_gold_6134().pstates;
        let slowest = table.slowest();
        let (mut sim, mut tb) = build(600_000.0, Box::new(governors::Userspace::new(slowest)));
        sim.run_until(&mut tb, SimTime::from_millis(200));
        assert_eq!(tb.attrib.mismatches(), 0);
        tb.audit_report(sim.now())
            .expect("audit enabled")
            .assert_balanced();
        let summary = tb.attrib.summary();
        let ksoft = summary.stage(simcore::Stage::KsoftirqdSched).unwrap();
        let ring = summary.stage(simcore::Stage::RingWait).unwrap();
        assert!(
            ksoft.sum_ns + ring.sum_ns > 0,
            "overload must surface kernel-side queueing stages"
        );
    }

    #[test]
    fn energy_attribution_is_integer_exact() {
        let (mut sim, mut tb) = build(80_000.0, Box::new(Performance::new()));
        sim.run_until(&mut tb, SimTime::from_millis(50));
        tb.begin_measurement(sim.now());
        sim.run_until(&mut tb, SimTime::from_millis(300));
        let end = sim.now();
        let summary = tb.energy_summary(end);
        // Conservation: every measured microjoule is attributed, per
        // core and for the package.
        assert_eq!(summary.measured_total_uj(), summary.attributed_total_uj());
        for c in &summary.cores {
            assert_eq!(c.measured_uj, c.breakdown.total_uj(), "core {}", c.core);
        }
        // The mode split partitions the same core energy.
        let core_total: u64 = summary.cores.iter().map(|c| c.measured_uj).sum();
        assert_eq!(summary.modes.total_uj(), core_total);
        assert_eq!(summary.rapl_clamps, 0);
        // This load runs requests, burns idle time, and sleeps —
        // the big components must all be populated.
        use simcore::EnergyComponent as E;
        assert!(summary.component_uj(E::Uncore) > 0);
        assert!(summary.component_uj(E::Irq) > 0, "kernel burn attributed");
        assert!(summary.component_uj(E::IdleC0) > 0);
        let busy_app: u64 = [E::BusyP0, E::BusyHigh, E::BusyLow, E::BusyPmin]
            .iter()
            .map(|&c| summary.component_uj(c))
            .sum();
        assert!(busy_app > 0, "app execution attributed");
        // The integer meter must track the f64 integral closely.
        let f64_uj = tb.measured_energy(end) * 1e6;
        let int_uj = summary.measured_total_uj() as f64;
        assert!(
            (f64_uj - int_uj).abs() / f64_uj < 1e-3,
            "f64 {f64_uj} vs integer {int_uj}"
        );
    }

    #[test]
    fn flight_recorder_captures_governor_decisions() {
        let table = ProcessorProfile::xeon_gold_6134().pstates;
        let (mut sim, mut tb) = build(50_000.0, Box::new(Ondemand::new(table, 8)));
        sim.run_until(&mut tb, SimTime::from_millis(500));
        let flight = tb.flight_summary();
        assert!(flight.total > 0, "ondemand must have made decisions");
        assert!(flight.raises + flight.lowers <= flight.total);
        assert!(
            flight.trigger_count(simcore::DecisionTrigger::Sample) > 0,
            "ondemand decides on sampling ticks"
        );
        // Every retained decision carries its feature snapshot.
        assert!(!flight.decisions.is_empty());
        for d in &flight.decisions {
            assert!(d.util_permille <= 1000);
            assert!(d.to_pstate < 16);
        }
        let by_trigger_sum: u64 = flight.by_trigger.iter().sum();
        assert_eq!(by_trigger_sum, flight.total);
    }

    #[test]
    fn watchdog_sees_every_sample() {
        let (mut sim, mut tb) = build(30_000.0, Box::new(Performance::new()));
        sim.run_until(&mut tb, SimTime::from_millis(300));
        let r = tb.watchdog.report(sim.now());
        assert_eq!(r.samples, tb.client.received());
        assert_eq!(r.episodes, 0, "performance at low load must hold the SLO");
    }

    #[test]
    fn watchdog_flags_overload_episode() {
        let table = ProcessorProfile::xeon_gold_6134().pstates;
        let slowest = table.slowest();
        let (mut sim, mut tb) = build(600_000.0, Box::new(governors::Userspace::new(slowest)));
        sim.run_until(&mut tb, SimTime::from_millis(300));
        let r = tb.watchdog.report(sim.now());
        assert!(r.episodes >= 1, "powersave overload must violate the SLO");
        assert!(r.total_violation_ns > 0);
        assert_ne!(r.first_detect_ns, u64::MAX);
    }

    fn build_faulty(rps: f64, plan: FaultPlan) -> (Simulator<Testbed>, Testbed) {
        let cfg = TestbedConfig::new(AppModel::memcached(), small_load(rps))
            .with_seed(123)
            .with_fault_plan(plan);
        let cores = cfg.profile.cores;
        let mut sim = Simulator::new();
        let tb = Testbed::new(
            cfg,
            Box::new(Performance::new()),
            Box::new(MenuPolicy::new(cores)),
            &mut sim,
        );
        (sim, tb)
    }

    #[test]
    fn wire_drops_are_explicitly_accounted() {
        use simcore::FaultScope;
        let plan = FaultPlan::new().inject(
            FaultKind::WireDrop { prob: 0.2 },
            FaultScope::window(SimTime::from_millis(50), SimTime::from_millis(250)),
        );
        let (mut sim, mut tb) = build_faulty(40_000.0, plan);
        // Mid-run, with drops and packets in flight, every identity
        // must already balance.
        sim.run_until(&mut tb, SimTime::from_millis(150));
        tb.audit_report(sim.now()).unwrap().assert_balanced();
        sim.run_until(&mut tb, SimTime::from_millis(300));
        stop_sends(&mut sim, &mut tb);
        sim.run_until(&mut tb, SimTime::from_millis(600));
        let report = tb.audit_report(sim.now()).unwrap();
        report.assert_balanced();
        let dropped = tb.ledger.balance(Account::PacketsFaultDropped);
        assert!(dropped > 0, "a 20% drop window must lose packets");
        assert_eq!(dropped, tb.faults.stats().wire_dropped());
        assert!(tb.client.received() < tb.client.sent());
    }

    /// The sends after `from` and up to `until`, drawn straight from
    /// `load`'s arrival process; the first send after `until` is drawn
    /// too, as the testbed's chain draws it.
    fn direct_sends(
        load: LoadSpec,
        from: SimTime,
        until: SimTime,
        rng: &mut RngStream,
    ) -> Vec<SimTime> {
        let mut arrivals = load.arrivals();
        let mut sends = Vec::new();
        let mut t = from;
        while let Some(next) = arrivals.next_after(t, rng).filter(|&next| next <= until) {
            sends.push(next);
            t = next;
        }
        sends
    }

    #[test]
    fn load_switch_delivers_the_old_chains_sends_on_the_wire() {
        let load = small_load(80_000.0);
        let switched = small_load(120_000.0);
        let cfg = TestbedConfig::new(AppModel::memcached(), load)
            .with_seed(123)
            .with_trace_capacity(1); // keeps the client's response log
        let cores = cfg.profile.cores;
        let mut sim = Simulator::new();
        let mut tb = Testbed::new(
            cfg,
            Box::new(Performance::new()),
            Box::new(MenuPolicy::new(cores)),
            &mut sim,
        );
        let (switch, stop) = (SimTime::from_millis(20), SimTime::from_millis(30));
        sim.schedule_at(switch, TestbedEvent::SwitchLoad(switched));
        sim.run_until(&mut tb, stop);
        stop_sends(&mut sim, &mut tb);
        sim.run_until(&mut tb, SimTime::from_millis(60));
        assert_eq!(tb.client.received(), tb.client.sent(), "no request lost");
        let mut stamps: Vec<SimTime> = tb
            .client
            .response_log()
            .iter()
            .map(|&(at, latency)| at - latency)
            .collect();
        stamps.sort();
        // The old process up to the switch (its first send after the
        // switch is drawn, then dropped), then the new one.
        let mut rng = RngStream::derive(123, "arrival", 0);
        let mut expected = direct_sends(load, SimTime::ZERO, switch, &mut rng);
        let on_wire = expected
            .iter()
            .filter(|&&t| t + tb.request_delay > switch)
            .count();
        assert!(on_wire > 0, "some send must be on the wire at the switch");
        expected.extend(direct_sends(switched, switch, stop, &mut rng));
        assert_eq!(stamps, expected);
    }

    #[test]
    fn requests_sent_before_a_churn_keep_the_old_flows() {
        use simcore::FaultScope;
        let churn = SimTime::from_millis(20);
        let plan = FaultPlan::new().inject(
            FaultKind::ConnectionChurn { shift: 7 },
            FaultScope::window(churn, churn + SimDuration::from_millis(1)),
        );
        let (mut sim, mut tb) = build_faulty(80_000.0, plan);
        let delay = tb.request_delay;
        let mut built_after_churn = 0;
        while sim.now() < churn + delay + delay {
            let sent = tb.client.sent();
            assert!(sim.step(&mut tb));
            if tb.client.sent() == sent {
                continue;
            }
            // A chain request is built one request delay after its
            // send, with the flow offset it leaves behind.
            let sent_at = sim.now() - delay;
            let offset = if sent_at < churn { 0 } else { 7 };
            assert_eq!(tb.client.flow_offset(), offset, "sent at {sent_at:?}");
            if sent_at < churn && sim.now() > churn {
                built_after_churn += 1;
            }
        }
        assert!(
            built_after_churn > 0,
            "some send must be on the wire at the churn"
        );
    }

    #[test]
    fn incast_requests_follow_every_chain_send_before_the_burst() {
        use simcore::FaultScope;
        let incast = SimTime::from_millis(20);
        let plan = FaultPlan::new().inject(
            FaultKind::IncastBurst { requests: 50 },
            FaultScope::window(incast, incast + SimDuration::from_millis(1)),
        );
        let (mut sim, mut tb) = build_faulty(80_000.0, plan);
        let mut rng = RngStream::derive(123, "arrival", 0);
        let before: Vec<SimTime> =
            direct_sends(small_load(80_000.0), SimTime::ZERO, incast, &mut rng)
                .into_iter()
                .filter(|&t| t < incast)
                .collect();
        let on_wire = before
            .iter()
            .filter(|&&t| t + tb.request_delay > incast)
            .count();
        assert!(on_wire > 0, "some send must be on the wire at the burst");
        loop {
            let sent = tb.client.sent();
            assert!(sim.step(&mut tb));
            assert!(
                sim.now() <= incast + tb.request_delay,
                "the burst never arrived"
            );
            if tb.client.sent() - sent == 50 {
                // The burst's ids start right after the chain's.
                assert_eq!(sent, before.len() as u64);
                break;
            }
        }
    }

    #[test]
    fn stuck_irq_mask_wedges_then_recovers() {
        use simcore::FaultScope;
        let plan = FaultPlan::new().inject(
            FaultKind::StuckIrqMask,
            FaultScope::window(SimTime::from_millis(50), SimTime::from_millis(120)),
        );
        let (mut sim, mut tb) = build_faulty(40_000.0, plan);
        sim.run_until(&mut tb, SimTime::from_millis(300));
        stop_sends(&mut sim, &mut tb);
        sim.run_until(&mut tb, SimTime::from_millis(600));
        tb.audit_report(sim.now()).unwrap().assert_balanced();
        assert!(
            tb.faults.stats().irq_unmasks_blocked > 0,
            "the unmask write must have been lost at least once"
        );
        // Once the scope releases the mask, everything drains: no
        // request is permanently lost to the wedged vector.
        assert_eq!(
            tb.ledger.balance(Account::RequestsSent),
            tb.client.received() + tb.ledger.balance(Account::RequestsDroppedAtNic),
            "wedge must only lose requests to counted ring overflow"
        );
    }

    #[test]
    fn fault_injection_is_deterministic() {
        use simcore::FaultScope;
        let plan = || {
            FaultPlan::new()
                .with_seed(99)
                .inject(
                    FaultKind::WireDrop { prob: 0.1 },
                    FaultScope::window(SimTime::from_millis(20), SimTime::from_millis(200)),
                )
                .inject(
                    FaultKind::IrqLoss { prob: 0.2 },
                    FaultScope::window(SimTime::from_millis(50), SimTime::from_millis(150)),
                )
        };
        let run = |p: FaultPlan| {
            let (mut sim, mut tb) = build_faulty(30_000.0, p);
            sim.run_until(&mut tb, SimTime::from_millis(250));
            (
                tb.client.sent(),
                tb.client.received(),
                tb.faults.stats(),
                tb.client.latencies_mut().quantile(0.99),
            )
        };
        assert_eq!(run(plan()), run(plan()));
    }

    #[test]
    fn spurious_irqs_burn_cpu_without_breaking_flow() {
        use simcore::FaultScope;
        let plan = FaultPlan::new().inject(
            FaultKind::SpuriousIrq {
                period: SimDuration::from_micros(50),
            },
            FaultScope::window(SimTime::from_millis(20), SimTime::from_millis(200)),
        );
        let (mut sim, mut tb) = build_faulty(20_000.0, plan);
        sim.run_until(&mut tb, SimTime::from_millis(300));
        assert!(tb.faults.stats().spurious_irqs > 0);
        assert!(
            tb.client.received() as f64 > 0.95 * tb.client.sent() as f64,
            "spurious IRQs must not break the request flow"
        );
    }

    #[test]
    fn ksoftirqd_wakes_under_overload() {
        // Heavy sustained load through a powersave-pinned (slowest)
        // core forces softirq overruns.
        let table = ProcessorProfile::xeon_gold_6134().pstates;
        let slowest = table.slowest();
        // Recording traces keeps the ksoftirqd marks this test reads.
        let cfg = TestbedConfig::new(AppModel::memcached(), small_load(600_000.0))
            .with_seed(123)
            .with_trace_capacity(1024);
        let cores = cfg.profile.cores;
        let mut sim = Simulator::new();
        let mut tb = Testbed::new(
            cfg,
            Box::new(governors::Userspace::new(slowest)),
            Box::new(MenuPolicy::new(cores)),
            &mut sim,
        );
        sim.run_until(&mut tb, SimTime::from_millis(500));
        let wakes: usize = tb
            .ksoftirqd_log
            .iter()
            .map(|l| l.iter().filter(|&&(_, w)| w).count())
            .sum();
        assert!(wakes > 0, "overload must wake ksoftirqd");
    }
}
