//! The fleet simulation: N testbed servers behind a simulated
//! front-end tier, with exact cross-server conservation.
//!
//! # Two-level simulation
//!
//! The fleet runs one *outer* discrete-event simulator whose world is
//! the load balancer: request arrivals, consistent-hash steering,
//! dispatches, responses, client timeouts, retries, hedges, and
//! health probes are all outer events. Each server is a full
//! [`appsim::Testbed`] with its own *inner* simulator, advanced in
//! epoch lockstep with the outer clock. The coupling runs both ways
//! every epoch:
//!
//! - **down** — each server's arrival process is re-targeted (via
//!   [`Testbed::switch_load`]) at the request rate the fleet actually
//!   steered to it, so retries, hedges, failover, and LB skew visibly
//!   re-inject load onto the surviving servers;
//! - **up** — each server's recently completed internal latencies are
//!   harvested as the sampling table the fleet draws per-dispatch
//!   service times from, so a server melting down under inherited
//!   load answers its fleet requests slowly, trips client timeouts,
//!   and sheds load to its neighbors.
//!
//! # Pipelined epochs
//!
//! Between two join points (epoch ticks, the measurement boundary, the
//! end) the LB reads nothing a server is computing: only the latency
//! tables and saturation signal harvested at the last join, and the
//! SLO captured at construction. So each join point sends every
//! server on to the next one on a worker thread and the LB runs its
//! events meanwhile; the next join point waits for them, then
//! harvests and re-targets in server order. The one-epoch coupling lag
//! is the lookahead that makes this exact: results do not depend on
//! the worker count, and zero workers run the same schedule inline.
//!
//! # Conservation
//!
//! Every request and every attempt is accounted for with integer
//! exactness, even under crash schedules:
//!
//! ```text
//! admitted   == completed + timed_out + shed + in_flight_at_end
//! dispatched == attempts_completed + attempts_failed
//!             + hedges_suppressed + attempts_in_flight_at_end
//! ```
//!
//! `shed` counts requests the LB's brownout dropped before dispatch;
//! attempts rejected by a saturated server's admission gate land in
//! `attempts_failed` (never `hedges_suppressed`, even when their
//! request has already closed) with `attempts_shed` as the audited
//! sub-account.
//!
//! Both identities are evaluated in the [`FleetResult::audit`]
//! report, cross-checked against the [`ConservationLedger`], and a
//! violation turns the run into
//! [`SimError::Accounting`] instead of a silently wrong result.

use std::mem;

use appsim::{AdmissionPolicy, AppModel, Testbed, TestbedConfig};
use governors::DegradationStats;
use simcore::{
    Account, AuditReport, ConservationLedger, EventId, FaultInjector, FaultKind, FaultPlan,
    FaultStats, IdHashMap, MetricsRegistry, MetricsSnapshot, RngStream, SimDuration, SimError,
    SimTime, Simulator, StepBudget, StreamingQuantiles, TimelineConfig, World,
};
use workload::{AppKind, LoadSpec, Priority};

use crate::health::{HealthTracker, HealthTransition};
use crate::kinds::{build_policies, GovernorKind, SleepKind};
use crate::overload::{
    BreakerPolicy, Brownout, BrownoutPolicy, CircuitBreaker, RetryBudget, RetryBudgetPolicy,
};
use crate::ring::{flow_key, HashRing};

mod pool;

use pool::{ServerCore, ServerPool};

/// Sleep policy every server runs.
const SLEEP: SleepKind = SleepKind::Menu;
/// Client connection (flow) population steered by affinity.
const FLOWS: usize = 512;
/// One-way LB↔server network hop.
const LB_HOP: SimDuration = SimDuration::from_micros(20);

/// Client-side timeout and retry discipline for fleet requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Per-attempt response deadline.
    pub timeout: SimDuration,
    /// Total attempts per request, including the first (≥ 1).
    pub max_attempts: u32,
    /// First retry backoff; doubles per retry.
    pub backoff_base: SimDuration,
    /// Backoff ceiling for the exponential doubling.
    pub backoff_cap: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_millis(5),
            max_attempts: 3,
            backoff_base: SimDuration::from_millis(1),
            backoff_cap: SimDuration::from_millis(20),
        }
    }
}

/// Tail-latency hedging: duplicate a still-open request to a second
/// server once it has been outstanding longer than a quantile of
/// recent fleet latencies. First response wins; the loser is counted
/// as suppressed, never double-completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Latency quantile (of the merged fleet distribution) the hedge
    /// delay tracks, e.g. `0.95`.
    pub quantile: f64,
    /// Lower bound on the hedge delay, so a cold or idle fleet never
    /// hedges every request.
    pub floor: SimDuration,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy {
            quantile: 0.95,
            floor: SimDuration::from_millis(1),
        }
    }
}

/// Health-check probing and hysteresis thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbePolicy {
    /// Gap between successive probes of one server.
    pub interval: SimDuration,
    /// Probe RTT budget; a slower (or dead) server fails the probe.
    pub timeout: SimDuration,
    /// Consecutive failures before ejection.
    pub fail_threshold: u32,
    /// Consecutive successes before readmission.
    pub ok_threshold: u32,
}

impl Default for ProbePolicy {
    fn default() -> Self {
        ProbePolicy {
            interval: SimDuration::from_millis(10),
            timeout: SimDuration::from_millis(1),
            fail_threshold: 3,
            ok_threshold: 2,
        }
    }
}

/// Configuration for one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of servers (≥ 1).
    pub servers: usize,
    /// Application every server runs.
    pub app: AppKind,
    /// Aggregate offered load across the fleet, requests/s.
    pub total_rps: f64,
    /// Governor every server runs (under the menu sleep policy, on
    /// Xeon Gold 6134 servers).
    pub governor: GovernorKind,
    /// Master seed; per-server and per-stream seeds derive from it.
    pub seed: u64,
    /// Settling time before measurement starts.
    pub warmup: SimDuration,
    /// Measured window after warmup.
    pub duration: SimDuration,
    /// Cluster-scope fault schedule (`scope.core` = server index).
    pub fault_plan: FaultPlan,
    /// Timeout/retry discipline.
    pub retry: RetryPolicy,
    /// Tail-latency hedging; `None` disables it.
    pub hedge: Option<HedgePolicy>,
    /// Health-check probing.
    pub probe: ProbePolicy,
    /// Inner/outer coupling interval (load re-targeting and latency
    /// harvesting cadence).
    pub epoch: SimDuration,
    /// Admission policy every server bounds its app queues with; the
    /// fleet also rejects attempts at servers whose harvested
    /// saturation hits 1000 ‰ (the server-side gate seen from the LB).
    pub admission: AdmissionPolicy,
    /// Arms the LB side of overload control with library defaults:
    /// per-flow retry budgets (off: unconditional backoff-retry),
    /// per-server circuit breakers composing with health ejection,
    /// and brownout over the up-coupled saturation signal.
    pub overload_control: bool,
}

impl FleetConfig {
    /// A fleet with library defaults: 200 ms warmup + 800 ms
    /// measured, default retry and probe policies, hedging on, no
    /// faults, no overload control.
    pub fn new(servers: usize, app: AppKind, total_rps: f64, governor: GovernorKind) -> Self {
        FleetConfig {
            servers,
            app,
            total_rps,
            governor,
            seed: 42,
            warmup: SimDuration::from_millis(200),
            duration: SimDuration::from_millis(800),
            fault_plan: FaultPlan::new(),
            retry: RetryPolicy::default(),
            hedge: Some(HedgePolicy::default()),
            probe: ProbePolicy::default(),
            epoch: SimDuration::from_millis(5),
            admission: AdmissionPolicy::None,
            overload_control: false,
        }
    }

    /// Sets warmup and measured duration.
    pub fn with_window(mut self, warmup: SimDuration, duration: SimDuration) -> Self {
        self.warmup = warmup;
        self.duration = duration;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cluster-scope fault schedule.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the timeout/retry discipline.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables or disables hedging.
    pub fn with_hedge(mut self, hedge: Option<HedgePolicy>) -> Self {
        self.hedge = hedge;
        self
    }

    /// Sets the health-check policy.
    pub fn with_probe(mut self, probe: ProbePolicy) -> Self {
        self.probe = probe;
        self
    }

    /// Sets the inner/outer coupling epoch.
    pub fn with_epoch(mut self, epoch: SimDuration) -> Self {
        self.epoch = epoch;
        self
    }

    /// Sets the servers' admission policy (also arming the fleet-side
    /// saturation gate).
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Arms the whole overload-control stack with library defaults:
    /// sojourn-threshold admission on every server, default retry
    /// budgets, circuit breakers, and brownout. The one-switch "on"
    /// side of the metastability experiment.
    pub fn with_overload_control(mut self) -> Self {
        self.admission = AdmissionPolicy::Sojourn {
            target: SimDuration::from_micros(200),
            limit: 64,
        };
        self.overload_control = true;
        self
    }

    /// Validates the configuration, including a representative
    /// per-server testbed config at the initial load split.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.servers == 0 {
            return Err(SimError::invalid("fleet.servers", "need at least 1 server"));
        }
        if self.servers > 4096 {
            return Err(SimError::invalid("fleet.servers", "more than 4096 servers"));
        }
        if !self.total_rps.is_finite() || self.total_rps <= 0.0 || self.total_rps > 1e9 {
            return Err(SimError::invalid(
                "fleet.total_rps",
                format!(
                    "rate must be finite, positive, and ≤ 1e9 (got {})",
                    self.total_rps
                ),
            ));
        }
        if self.duration.is_zero() {
            return Err(SimError::invalid(
                "fleet.duration",
                "measured window is empty",
            ));
        }
        if self.warmup.checked_add(self.duration).is_none() {
            return Err(SimError::invalid(
                "fleet.duration",
                "warmup + duration overflows",
            ));
        }
        if self.epoch.is_zero() || self.epoch > self.duration {
            return Err(SimError::invalid(
                "fleet.epoch",
                "epoch must be non-zero and no longer than the measured window",
            ));
        }
        if self.retry.max_attempts == 0 {
            return Err(SimError::invalid(
                "fleet.retry.max_attempts",
                "need ≥ 1 attempt",
            ));
        }
        if self.retry.timeout.is_zero() {
            return Err(SimError::invalid("fleet.retry.timeout", "timeout is zero"));
        }
        if self.retry.backoff_cap < self.retry.backoff_base {
            return Err(SimError::invalid(
                "fleet.retry.backoff_cap",
                "backoff cap below backoff base",
            ));
        }
        if let Some(h) = self.hedge {
            if !h.quantile.is_finite() || h.quantile <= 0.0 || h.quantile >= 1.0 {
                return Err(SimError::invalid(
                    "fleet.hedge.quantile",
                    format!("hedge quantile must be in (0, 1) (got {})", h.quantile),
                ));
            }
        }
        if self.probe.interval.is_zero() {
            return Err(SimError::invalid(
                "fleet.probe.interval",
                "probe interval is zero",
            ));
        }
        if self.probe.fail_threshold == 0 || self.probe.ok_threshold == 0 {
            return Err(SimError::invalid(
                "fleet.probe",
                "hysteresis thresholds must be ≥ 1",
            ));
        }
        self.governor.validate()?;
        self.fault_plan.validate(self.servers)?;
        self.admission.validate()?;
        let sample = TestbedConfig::new(AppModel::for_kind(self.app), self.initial_load())
            .with_admission(self.admission);
        sample.validate()
    }

    /// The steady per-server load the fleet starts every server at.
    fn initial_load(&self) -> LoadSpec {
        let per = (self.total_rps / self.servers as f64).max(1.0);
        LoadSpec::custom(per, self.epoch, 1.0, 0.0)
    }

    /// End of simulated time.
    fn end(&self) -> SimTime {
        SimTime::ZERO + self.warmup + self.duration
    }

    /// Streaming-quantile window long enough that fleet windows never
    /// rotate within a run — all servers' sketches stay epoch-aligned
    /// and merge exactly.
    fn quantile_window(&self) -> SimDuration {
        (self.warmup + self.duration) + self.duration + SimDuration::from_secs(1)
    }
}

/// Per-server slice of a [`FleetResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerReport {
    /// Attempts the LB steered here (including ones that failed
    /// instantly against a crashed/partitioned server).
    pub dispatched: u64,
    /// Attempts that reached the server and whose response made (or
    /// will make) it back to the LB — crash-cancelled responses move
    /// to the fleet's failed column instead.
    pub delivered: u64,
    /// Requests this server's response closed (first response wins).
    pub won: u64,
    /// Crash events this server absorbed.
    pub crashes: u64,
    /// Whether the LB view had this server ejected at the end.
    pub ejected_at_end: bool,
    /// The server's internal (single-box) p99 over the measured
    /// window.
    pub p99_internal: SimDuration,
    /// Measured package energy over the measured window, joules.
    pub energy_j: f64,
    /// Governor graceful-degradation counters.
    pub degradation: DegradationStats,
}

/// The outcome of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Governor label (same on every server).
    pub governor: String,
    /// Sleep-policy label.
    pub sleep: String,
    /// Per-server reports, indexed by server id.
    pub servers: Vec<ServerReport>,
    /// Requests admitted at the front end.
    pub admitted: u64,
    /// Requests closed by a response.
    pub completed: u64,
    /// Requests closed by exhausting every attempt.
    pub timed_out: u64,
    /// Requests still open when time ran out.
    pub in_flight_at_end: u64,
    /// Attempts dispatched (first sends + retries + hedges).
    pub dispatched: u64,
    /// Attempts whose response closed their request.
    pub attempts_completed: u64,
    /// Attempts lost to a crashed or partitioned server.
    pub attempts_failed: u64,
    /// Duplicate responses suppressed after their request closed.
    pub suppressed: u64,
    /// Attempts still outstanding when time ran out.
    pub attempts_in_flight_at_end: u64,
    /// Retry dispatches (timeout-driven re-sends).
    pub retries: u64,
    /// Hedge dispatches (quantile-delay duplicates).
    pub hedges: u64,
    /// Requests re-steered off their affinity server.
    pub failovers: u64,
    /// Health ejections.
    pub ejections: u64,
    /// Health readmissions.
    pub readmissions: u64,
    /// Requests shed by LB-side brownout (admitted, closed shed).
    pub shed: u64,
    /// Attempts rejected by a saturated server's admission gate — an
    /// audited sub-account of [`attempts_failed`](Self::attempts_failed).
    pub attempts_shed: u64,
    /// Retries paid for from a flow's retry budget.
    pub retry_budget_spent: u64,
    /// Retries denied by an exhausted retry budget (the request closes
    /// as timed out instead of re-dispatching).
    pub retry_budget_denied: u64,
    /// Circuit-breaker trips (closed/half-open → open), all servers.
    pub breaker_opens: u64,
    /// Circuit-breaker recoveries (half-open → closed).
    pub breaker_closes: u64,
    /// Circuit-breaker probe windows (open → half-open).
    pub breaker_half_opens: u64,
    /// Steers diverted away from a breaker-blocked affinity server.
    pub breaker_short_circuits: u64,
    /// Fleet-level p99 (merged across servers), measured window only.
    pub p99: SimDuration,
    /// Fleet-level p50.
    pub p50: SimDuration,
    /// completed / (completed + timed_out); 1.0 when nothing closed.
    pub availability: f64,
    /// Total measured energy across servers, joules.
    pub energy_j: f64,
    /// Measured window length.
    pub duration: SimDuration,
    /// Fleet metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// Cluster-scope fault injection counts.
    pub faults: FaultStats,
    /// The conservation roll-up; always balanced when this struct is
    /// returned (violations become [`SimError::Accounting`]).
    pub audit: AuditReport,
}

/// One fleet request attempt: where it went and whether it resolved.
#[derive(Debug)]
struct AttemptState {
    server: usize,
    response_ev: Option<EventId>,
    done: bool,
}

/// One admitted fleet request.
#[derive(Debug)]
struct RequestState {
    flow: usize,
    admitted_at: SimTime,
    attempts: Vec<AttemptState>,
    timeout_ev: Option<EventId>,
    hedge_ev: Option<EventId>,
    hedged: bool,
    closed: bool,
}

/// The LB-side bookkeeping of one server. Its nested simulator and
/// testbed live in the [`ServerPool`] as a [`ServerCore`], out of
/// reach of LB events while a worker advances them.
struct ServerInstance {
    /// The app's SLO, captured at construction: the cold-start service
    /// guess must not read the (possibly running) testbed.
    slo: SimDuration,
    /// Recent internal latencies (ns) the fleet samples service times
    /// from; replaced wholesale each epoch that produced responses.
    latatable: Vec<u64>,
    /// Outstanding fleet attempts on this server: `(request id,
    /// attempt index)`, cancelled wholesale on crash.
    inflight: Vec<(u64, usize)>,
    /// Delivered attempts this epoch — drives next epoch's load.
    dispatched_epoch: u64,
    dispatched_total: u64,
    delivered: u64,
    won: u64,
    crashes: u64,
    /// Fleet-request latencies this server won, for the merged p99.
    q: StreamingQuantiles,
    current_rps: f64,
    /// Harvested admission-queue saturation (per mille), refreshed at
    /// each epoch — the up-coupled overload signal brownout and the
    /// fleet-side admission gate read.
    sat_permille: u32,
}

#[derive(Debug, Default, Clone, Copy)]
struct FleetCounters {
    admitted: u64,
    completed: u64,
    timed_out: u64,
    open_requests: u64,
    dispatched: u64,
    attempts_completed: u64,
    attempts_failed: u64,
    suppressed: u64,
    attempts_outstanding: u64,
    retries: u64,
    hedges: u64,
    failovers: u64,
    ejections: u64,
    readmissions: u64,
    shed_requests: u64,
    attempts_shed: u64,
    retry_budget_spent: u64,
    retry_budget_denied: u64,
    breaker_short_circuits: u64,
}

/// The outer simulator's world.
struct FleetWorld {
    cfg: FleetConfig,
    servers: Vec<ServerInstance>,
    /// The servers' simulators and testbeds, advancing to the next
    /// join point while the LB runs.
    pool: ServerPool,
    /// When the pending epoch tick fires; `None` after the last one.
    next_tick: Option<SimTime>,
    /// Whether the measurement boundary is still to come.
    warmup_pending: bool,
    ring: HashRing,
    trackers: Vec<HealthTracker>,
    /// The LB's (possibly stale) health view.
    lb_view: Vec<bool>,
    /// Per-flow sticky server.
    affinity: Vec<Option<usize>>,
    /// Open request table — keyed access only, never iterated, so the
    /// map's iteration order can't leak into the run.
    reqs: IdHashMap<u64, RequestState>,
    faults: FaultInjector,
    ledger: ConservationLedger,
    rng_arrival: RngStream,
    rng_steer: RngStream,
    rng_latency: RngStream,
    /// Per-arrival priority-class draws (its own stream, so enabling
    /// brownout perturbs no other concern's randomness).
    rng_priority: RngStream,
    counters: FleetCounters,
    /// Per-flow retry budgets; empty when the policy is off.
    budgets: Vec<RetryBudget>,
    /// Per-server circuit breakers; empty when the policy is off.
    breakers: Vec<CircuitBreaker>,
    /// LB-side brownout state; `None` when the policy is off.
    brownout: Option<Brownout>,
    /// Scratch steering view: `lb_view` AND breaker admission,
    /// refreshed before every steer decision.
    steer_view: Vec<bool>,
    /// Current hedge delay; re-derived from the merged latency
    /// quantile every epoch.
    hedge_delay: SimDuration,
    end: SimTime,
    /// First inner-simulator budget failure and the server it hit;
    /// aborts the run.
    budget_err: Option<(usize, SimError)>,
    next_req: u64,
}

type FleetSim = Simulator<FleetWorld>;

/// Everything the outer (LB) simulator schedules.
#[derive(Debug, Clone, Copy)]
enum FleetEv {
    /// The next request arrives at the LB.
    Arrival,
    /// Attempt `attempt` of request `id` answered.
    Response { id: u64, attempt: usize },
    /// A saturated server's admission gate rejected the attempt.
    ShedResponse { id: u64, attempt: usize },
    /// A request's per-attempt deadline.
    Timeout(u64),
    /// A request's retry backoff elapsed.
    Retry(u64),
    /// A request's hedge delay elapsed.
    Hedge(u64),
    /// A health probe of one server.
    Probe(usize),
    /// The epoch coupling tick.
    EpochTick,
    /// The measurement boundary.
    WarmupBoundary,
    /// A server-crash scope starts.
    Crash(usize),
    /// A server-crash scope ends.
    Recover(usize),
}

impl World for FleetWorld {
    type Event = FleetEv;

    fn handle(&mut self, ev: FleetEv, sim: &mut FleetSim) {
        match ev {
            FleetEv::Arrival => arrival(self, sim),
            FleetEv::Response { id, attempt } => response(self, sim, id, attempt),
            FleetEv::ShedResponse { id, attempt } => shed_response(self, sim, id, attempt),
            FleetEv::Timeout(id) => timeout_fired(self, sim, id),
            FleetEv::Retry(id) => retry_fire(self, sim, id),
            FleetEv::Hedge(id) => hedge_fired(self, sim, id),
            FleetEv::Probe(server) => probe(self, sim, server),
            FleetEv::EpochTick => epoch_tick(self, sim),
            FleetEv::WarmupBoundary => warmup_boundary(self, sim),
            FleetEv::Crash(server) => crash_server(self, sim, server),
            FleetEv::Recover(server) => self.faults.note_server_recover(sim.now(), server),
        }
    }
}

impl FleetWorld {
    fn offered_rate(&self, now: SimTime) -> f64 {
        // Fleet-scope load-spike faults multiply the offered rate —
        // the trigger half of the metastability experiment.
        let spike = self.faults.load_factor(now);
        (self.cfg.total_rps * spike).max(1.0)
    }
}

fn backoff_for(retry: &RetryPolicy, retries_so_far: u32) -> SimDuration {
    let mult = 1u64 << retries_so_far.min(20);
    let ns = retry.backoff_base.as_nanos().saturating_mul(mult);
    SimDuration::from_nanos(ns.min(retry.backoff_cap.as_nanos()))
}

/// Rebuilds the effective steering view: a server is steerable when
/// the LB's health view admits it AND its circuit breaker (if any)
/// does. An open breaker whose cooldown elapsed transitions to
/// half-open here.
fn refresh_steer_view(w: &mut FleetWorld, now: SimTime) {
    let mut view = mem::take(&mut w.steer_view);
    view.clear();
    for i in 0..w.cfg.servers {
        let mut ok = w.lb_view.get(i).copied().unwrap_or(false);
        if ok {
            if let Some(b) = w.breakers.get_mut(i) {
                ok = b.admits(now);
            }
        }
        view.push(ok);
    }
    w.steer_view = view;
}

/// Steers one request: affinity if the LB believes it healthy (and it
/// is not excluded), else a consistent-hash walk. Counts failovers
/// and applies any active hash-skew fault as a per-request override.
fn steer(w: &mut FleetWorld, now: SimTime, flow: usize, exclude: Option<usize>) -> usize {
    refresh_steer_view(w, now);
    let key = flow_key(flow as u64, 0);
    let prior = w.affinity[flow];
    // A healthy affinity server blocked only by its breaker is a
    // short-circuit: the breaker, not health ejection, diverted it.
    if let Some(p) = prior {
        if exclude != Some(p)
            && w.lb_view.get(p).copied().unwrap_or(false)
            && !w.steer_view.get(p).copied().unwrap_or(false)
        {
            w.counters.breaker_short_circuits += 1;
        }
    }
    let candidate = match prior {
        Some(p) if exclude != Some(p) && w.steer_view.get(p).copied().unwrap_or(false) => p,
        _ => match exclude {
            Some(ex) => w.ring.successor(key, ex, &w.steer_view),
            None => w.ring.steer(key, &w.steer_view),
        },
    };
    if let Some(p) = prior {
        if candidate != p {
            w.counters.failovers += 1;
        }
    }
    w.affinity[flow] = Some(candidate);
    // A skew fault over-concentrates steering onto one victim server
    // for the duration of its scope, without rewriting affinity.
    let mut chosen = candidate;
    if let Some((factor, target)) = w.faults.hash_skew(now) {
        if target < w.cfg.servers && chosen != target && w.rng_steer.chance(1.0 - 1.0 / factor) {
            w.faults.note_skewed_steer(now, target);
            chosen = target;
        }
    }
    chosen
}

/// Draws a service latency for `server` from its harvested table.
fn sample_latency_ns(w: &mut FleetWorld, server: usize) -> u64 {
    let len = w.servers[server].latatable.len() as u64;
    if len == 0 {
        // No harvest yet (first epochs): a cold optimistic guess.
        (w.servers[server].slo.as_nanos() / 8).max(1)
    } else {
        let idx = w.rng_latency.below(len) as usize;
        w.servers[server].latatable[idx]
    }
}

/// Dispatches one attempt of request `id` to `server`.
fn dispatch(w: &mut FleetWorld, sim: &mut FleetSim, id: u64, server: usize) {
    let now = sim.now();
    w.counters.dispatched += 1;
    w.ledger.credit(Account::FleetAttemptsDispatched, 1);
    w.servers[server].dispatched_total += 1;
    if let Some(b) = w.breakers.get_mut(server) {
        b.on_dispatch();
    }
    let crashed = w.faults.server_crashed(now, server);
    let partitioned = w.faults.link_partitioned(now, server);
    if crashed || partitioned {
        if partitioned && !crashed {
            w.faults.note_partition_drop(now, server);
        }
        w.counters.attempts_failed += 1;
        w.ledger.credit(Account::FleetAttemptsFailed, 1);
        if let Some(b) = w.breakers.get_mut(server) {
            b.record(now, false);
        }
        if let Some(req) = w.reqs.get_mut(&id) {
            req.attempts.push(AttemptState {
                server,
                response_ev: None,
                done: true,
            });
        }
        return;
    }
    let extra = w.faults.link_extra(now, server);
    let hop = LB_HOP + extra;
    let attempt = w.reqs.get(&id).map_or(0, |r| r.attempts.len());
    // The server-side admission gate, seen from the LB: a server whose
    // harvested saturation pegged at 1000 ‰ rejects the attempt after
    // one round trip. The rejection lands in `attempts_failed` (with
    // `attempts_shed` as its audited sub-account) — never in
    // `suppressed`, even if the request has closed by then.
    if w.cfg.admission != AdmissionPolicy::None && w.servers[server].sat_permille >= 1000 {
        let ev = sim.schedule_at(now + hop + hop, FleetEv::ShedResponse { id, attempt });
        if let Some(req) = w.reqs.get_mut(&id) {
            req.attempts.push(AttemptState {
                server,
                response_ev: Some(ev),
                done: false,
            });
        }
        w.counters.attempts_outstanding += 1;
        let s = &mut w.servers[server];
        s.inflight.push((id, attempt));
        s.dispatched_epoch += 1;
        s.delivered += 1;
        return;
    }
    let service = SimDuration::from_nanos(sample_latency_ns(w, server));
    let ev = sim.schedule_at(now + hop + service + hop, FleetEv::Response { id, attempt });
    if let Some(req) = w.reqs.get_mut(&id) {
        req.attempts.push(AttemptState {
            server,
            response_ev: Some(ev),
            done: false,
        });
    }
    w.counters.attempts_outstanding += 1;
    let s = &mut w.servers[server];
    s.inflight.push((id, attempt));
    s.dispatched_epoch += 1;
    s.delivered += 1;
}

/// A response for attempt `attempt_idx` of request `id` reached the
/// LB. First response wins; later ones are suppressed duplicates.
fn response(w: &mut FleetWorld, sim: &mut FleetSim, id: u64, attempt_idx: usize) {
    let now = sim.now();
    let Some((server, flow, was_closed, admitted_at, timeout_ev, hedge_ev)) =
        w.reqs.get_mut(&id).and_then(|req| {
            let att = req.attempts.get_mut(attempt_idx)?;
            att.done = true;
            att.response_ev = None;
            let server = att.server;
            let was_closed = req.closed;
            let (t, h) = if was_closed {
                (None, None)
            } else {
                req.closed = true;
                (req.timeout_ev.take(), req.hedge_ev.take())
            };
            Some((server, req.flow, was_closed, req.admitted_at, t, h))
        })
    else {
        return;
    };
    w.counters.attempts_outstanding = w.counters.attempts_outstanding.saturating_sub(1);
    let s = &mut w.servers[server];
    if let Some(pos) = s
        .inflight
        .iter()
        .position(|&(r, a)| r == id && a == attempt_idx)
    {
        s.inflight.swap_remove(pos);
    }
    // Any response proves the server answered — even a suppressed
    // duplicate feeds the breaker's success side.
    if let Some(b) = w.breakers.get_mut(server) {
        b.record(now, true);
    }
    if was_closed {
        w.counters.suppressed += 1;
        w.ledger.credit(Account::FleetHedgesSuppressed, 1);
    } else {
        if let Some(ev) = timeout_ev {
            sim.cancel(ev);
        }
        if let Some(ev) = hedge_ev {
            sim.cancel(ev);
        }
        w.counters.completed += 1;
        w.ledger.credit(Account::FleetRequestsCompleted, 1);
        w.counters.attempts_completed += 1;
        w.ledger.credit(Account::FleetAttemptsCompleted, 1);
        w.counters.open_requests = w.counters.open_requests.saturating_sub(1);
        if let Some(b) = w.budgets.get_mut(flow) {
            b.on_success();
        }
        let latency = now.saturating_since(admitted_at);
        let s = &mut w.servers[server];
        s.won += 1;
        s.q.record(now, latency.as_nanos().max(1));
    }
    maybe_gc(w, id);
}

/// A saturated server's admission gate rejected attempt `attempt_idx`
/// of request `id`: the attempt closes as failed (`attempts_shed`
/// sub-account), never as a suppressed duplicate — the request itself
/// stays open for its timeout to retry or close.
fn shed_response(w: &mut FleetWorld, sim: &mut FleetSim, id: u64, attempt_idx: usize) {
    let now = sim.now();
    let Some(server) = w.reqs.get_mut(&id).and_then(|req| {
        let att = req.attempts.get_mut(attempt_idx)?;
        if att.done {
            return None;
        }
        att.done = true;
        att.response_ev = None;
        Some(att.server)
    }) else {
        return;
    };
    w.counters.attempts_outstanding = w.counters.attempts_outstanding.saturating_sub(1);
    w.counters.attempts_failed += 1;
    w.counters.attempts_shed += 1;
    w.ledger.credit(Account::FleetAttemptsFailed, 1);
    w.ledger.credit(Account::FleetAttemptsShed, 1);
    let s = &mut w.servers[server];
    if let Some(pos) = s
        .inflight
        .iter()
        .position(|&(r, a)| r == id && a == attempt_idx)
    {
        s.inflight.swap_remove(pos);
    }
    // The rejection never reached the app: it moves from the server's
    // delivered column into the fleet's failed column.
    s.delivered = s.delivered.saturating_sub(1);
    if let Some(b) = w.breakers.get_mut(server) {
        b.record(now, false);
    }
    maybe_gc(w, id);
}

/// Closes request `id` as timed out (attempts exhausted or retry
/// budget denied).
fn close_timed_out(w: &mut FleetWorld, sim: &mut FleetSim, id: u64) {
    let hedge_ev = w.reqs.get_mut(&id).and_then(|req| {
        req.closed = true;
        req.hedge_ev.take()
    });
    if let Some(ev) = hedge_ev {
        sim.cancel(ev);
    }
    w.counters.timed_out += 1;
    w.ledger.credit(Account::FleetRequestsTimedOut, 1);
    w.counters.open_requests = w.counters.open_requests.saturating_sub(1);
    maybe_gc(w, id);
}

/// The per-attempt deadline fired: retry (with backoff, paying from
/// the flow's retry budget when one is configured) or close the
/// request as timed out once attempts — or the budget — run out.
fn timeout_fired(w: &mut FleetWorld, sim: &mut FleetSim, id: u64) {
    let now = sim.now();
    let Some((closed, attempts_len, flow)) = w.reqs.get_mut(&id).map(|req| {
        req.timeout_ev = None;
        (req.closed, req.attempts.len(), req.flow)
    }) else {
        return;
    };
    if closed {
        return;
    }
    if (attempts_len as u32) < w.cfg.retry.max_attempts {
        // A configured retry budget replaces unconditional retry: the
        // retry must buy a token, and an empty bucket closes the
        // request instead of amplifying the storm.
        if let Some(budget) = w.budgets.get_mut(flow) {
            if !budget.try_spend() {
                w.counters.retry_budget_denied += 1;
                close_timed_out(w, sim, id);
                return;
            }
            w.counters.retry_budget_spent += 1;
        }
        w.counters.retries += 1;
        let backoff = backoff_for(&w.cfg.retry, attempts_len.saturating_sub(1) as u32);
        let ev = sim.schedule_at(now + backoff, FleetEv::Retry(id));
        if let Some(req) = w.reqs.get_mut(&id) {
            req.timeout_ev = Some(ev);
        }
    } else {
        close_timed_out(w, sim, id);
    }
}

/// Backoff elapsed: re-steer (excluding the server that just timed
/// out) and dispatch the retry with a fresh deadline.
fn retry_fire(w: &mut FleetWorld, sim: &mut FleetSim, id: u64) {
    let now = sim.now();
    let Some((closed, flow, last_server)) = w
        .reqs
        .get(&id)
        .map(|req| (req.closed, req.flow, req.attempts.last().map(|a| a.server)))
    else {
        return;
    };
    if closed {
        return;
    }
    let server = steer(w, now, flow, last_server);
    dispatch(w, sim, id, server);
    let ev = sim.schedule_at(now + w.cfg.retry.timeout, FleetEv::Timeout(id));
    if let Some(req) = w.reqs.get_mut(&id) {
        req.timeout_ev = Some(ev);
    }
}

/// Hedge delay elapsed with the request still open: duplicate it to
/// the ring successor of its primary server.
fn hedge_fired(w: &mut FleetWorld, sim: &mut FleetSim, id: u64) {
    let now = sim.now();
    let Some((flow, primary)) = w.reqs.get_mut(&id).and_then(|req| {
        req.hedge_ev = None;
        if req.closed || req.hedged {
            return None;
        }
        req.hedged = true;
        Some((req.flow, req.attempts.first().map(|a| a.server)?))
    }) else {
        return;
    };
    refresh_steer_view(w, now);
    let key = flow_key(flow as u64, 0);
    let target = w.ring.successor(key, primary, &w.steer_view);
    if target != primary {
        w.counters.hedges += 1;
        dispatch(w, sim, id, target);
    }
}

/// One health probe of `server`, feeding the hysteresis tracker —
/// unless an LB staleness fault eats the result.
fn probe(w: &mut FleetWorld, sim: &mut FleetSim, server: usize) {
    let now = sim.now();
    let crashed = w.faults.server_crashed(now, server);
    let partitioned = w.faults.link_partitioned(now, server);
    let extra = w.faults.link_extra(now, server);
    let rtt = (LB_HOP + extra) + (LB_HOP + extra);
    let ok = !crashed && !partitioned && rtt <= w.cfg.probe.timeout;
    if w.faults.health_view_stale(now) {
        w.faults.note_stale_probe(now, server);
    } else if let Some(tracker) = w.trackers.get_mut(server) {
        match tracker.record(ok) {
            Some(HealthTransition::Ejected) => {
                w.counters.ejections += 1;
                w.lb_view[server] = false;
            }
            Some(HealthTransition::Readmitted) => {
                w.counters.readmissions += 1;
                w.lb_view[server] = true;
            }
            None => {}
        }
    }
    let next = now + w.cfg.probe.interval;
    if next < w.end {
        sim.schedule_at(next, FleetEv::Probe(server));
    }
}

/// Drains a server's internal response log into its latency sampling
/// table, so the server never keeps more than one epoch of responses.
fn harvest(s: &mut ServerInstance, core: &mut ServerCore) {
    const CAP: usize = 2048;
    let delta = core.tb.client.drain_response_log();
    if !delta.as_slice().is_empty() {
        let skip = delta.len().saturating_sub(CAP);
        s.latatable.clear();
        s.latatable
            .extend(delta.skip(skip).map(|(_, d)| d.as_nanos().max(1)));
    }
}

/// The fleet's latency sketch: every server's sketch merged, in
/// server order (`None` for an empty fleet).
fn merged_sketch(servers: &[ServerInstance]) -> Option<StreamingQuantiles> {
    let (first, rest) = servers.split_first()?;
    let mut merged = first.q.clone();
    for s in rest {
        merged.merge(&s.q);
    }
    Some(merged)
}

/// Recomputes the hedge delay from the merged fleet latency quantile.
fn recompute_hedge_delay(w: &mut FleetWorld) {
    let Some(h) = w.cfg.hedge else { return };
    let q_ns = merged_sketch(&w.servers).map_or(0, |m| m.quantile(h.quantile));
    w.hedge_delay = SimDuration::from_nanos(q_ns).max(h.floor);
}

/// The next point where the LB needs the servers: the pending epoch
/// tick, the measurement boundary, or the end of the run.
fn horizon(w: &FleetWorld) -> SimTime {
    let mut h = w.next_tick.map_or(w.end, |t| t.min(w.end));
    if w.warmup_pending {
        h = h.min(SimTime::ZERO + w.cfg.warmup);
    }
    h
}

/// The epoch tick: collect the servers' advance to now, harvest
/// latencies, re-target each server's arrival process at the load it
/// actually absorbed, refresh the hedge delay, and send the servers on
/// to the next join point while the LB runs the coming epoch.
fn epoch_tick(w: &mut FleetWorld, sim: &mut FleetSim) {
    let now = sim.now();
    let next = now + w.cfg.epoch;
    w.next_tick = (next < w.end).then_some(next);
    if w.budget_err.is_none() {
        let epoch_secs = w.cfg.epoch.as_secs_f64();
        let joined = w.pool.join();
        // Serially, the first failing server stops the loop: the ones
        // before it are harvested and re-targeted, it and the ones
        // after it are not.
        let ok = joined.failed.as_ref().map_or(w.servers.len(), |&(i, _)| i);
        for (s, core) in w.servers.iter_mut().zip(joined.cores.iter_mut()).take(ok) {
            harvest(s, core);
            // Refresh the up-coupled saturation signal brownout and
            // the fleet-side admission gate read until the next epoch.
            s.sat_permille = core.tb.max_saturation_permille();
            let rate = ((s.dispatched_epoch as f64) / epoch_secs).clamp(1.0, 1e9);
            s.dispatched_epoch = 0;
            // Only re-target on a meaningful shift: switching the load
            // restarts the arrival chain, so hold small deltas steady.
            if (rate - s.current_rps).abs() > 0.05 * s.current_rps {
                let ServerCore { sim: inner, tb } = &mut **core;
                tb.switch_load(inner, LoadSpec::custom(rate, w.cfg.epoch, 1.0, 0.0));
                s.current_rps = rate;
            }
        }
        w.budget_err = joined.failed;
        let max_sat = w.servers.iter().map(|s| s.sat_permille).max().unwrap_or(0);
        if let Some(b) = w.brownout.as_mut() {
            b.observe(max_sat);
        }
        recompute_hedge_delay(w);
        if w.budget_err.is_none() {
            let h = horizon(w);
            w.pool.launch(h);
        }
    }
    if let Some(next) = w.next_tick {
        sim.schedule_at(next, FleetEv::EpochTick);
    }
}

/// The measurement boundary: anchor every server's energy/latency
/// measurement and start fresh fleet latency sketches.
fn warmup_boundary(w: &mut FleetWorld, sim: &mut FleetSim) {
    let now = sim.now();
    let window = w.cfg.quantile_window();
    w.warmup_pending = false;
    let joined = w.pool.join();
    if let Some(failed) = joined.failed {
        w.budget_err.get_or_insert(failed);
    }
    // Serially, no server after the first failure ever advanced again,
    // so harvesting one would be a no-op; here it may have run ahead.
    let harvested = w
        .budget_err
        .as_ref()
        .map_or(w.servers.len(), |&(i, _)| i + 1);
    for (i, (s, core)) in w
        .servers
        .iter_mut()
        .zip(joined.cores.iter_mut())
        .enumerate()
    {
        if i < harvested {
            harvest(s, core);
        }
        core.tb.begin_measurement(now);
        s.q = StreamingQuantiles::new(window);
    }
    if w.budget_err.is_none() {
        let h = horizon(w);
        w.pool.launch(h);
    }
}

/// A server-crash boundary: every outstanding attempt on the server
/// dies (no response will come); the requests stay open and their
/// client timeouts drive retry/failover.
fn crash_server(w: &mut FleetWorld, sim: &mut FleetSim, server: usize) {
    let now = sim.now();
    w.faults.note_server_crash(now, server);
    w.servers[server].crashes += 1;
    let inflight = mem::take(&mut w.servers[server].inflight);
    let mut failed = 0u64;
    for (id, attempt_idx) in inflight {
        let Some(req) = w.reqs.get_mut(&id) else {
            continue;
        };
        let Some(att) = req.attempts.get_mut(attempt_idx) else {
            continue;
        };
        if att.done {
            continue;
        }
        att.done = true;
        if let Some(ev) = att.response_ev.take() {
            sim.cancel(ev);
        }
        failed += 1;
    }
    w.counters.attempts_outstanding = w.counters.attempts_outstanding.saturating_sub(failed);
    w.counters.attempts_failed += failed;
    // Those responses will never arrive: they move from the server's
    // delivered column into the fleet's failed column.
    w.servers[server].delivered = w.servers[server].delivered.saturating_sub(failed);
    w.ledger.credit(Account::FleetAttemptsFailed, failed);
    // Every cancelled attempt is a failure the breaker sees; a crash
    // with enough in-flight work trips it immediately.
    if let Some(b) = w.breakers.get_mut(server) {
        for _ in 0..failed {
            b.record(now, false);
        }
    }
}

/// Admits one request and schedules the next arrival.
fn arrival(w: &mut FleetWorld, sim: &mut FleetSim) {
    let now = sim.now();
    let id = w.next_req;
    w.next_req += 1;
    w.counters.admitted += 1;
    w.ledger.credit(Account::FleetRequestsAdmitted, 1);
    w.counters.open_requests += 1;
    let flow = w.rng_arrival.below(FLOWS as u64) as usize;
    // Brownout: while the saturation signal is high, the LB sheds the
    // lowest-priority slice of arrivals before dispatch. The request
    // counts as admitted and closes immediately as shed, keeping the
    // request identity integer-exact.
    let priority = Priority::classify(w.rng_priority.below(1000) as u32);
    if w.brownout.is_some_and(|b| b.active()) && priority == Priority::Low {
        w.counters.shed_requests += 1;
        w.ledger.credit(Account::FleetRequestsShed, 1);
        w.counters.open_requests = w.counters.open_requests.saturating_sub(1);
        schedule_next_arrival(w, sim, now);
        return;
    }
    w.reqs.insert(
        id,
        RequestState {
            flow,
            admitted_at: now,
            attempts: Vec::new(),
            timeout_ev: None,
            hedge_ev: None,
            hedged: false,
            closed: false,
        },
    );
    let server = steer(w, now, flow, None);
    dispatch(w, sim, id, server);
    let timeout_ev = sim.schedule_at(now + w.cfg.retry.timeout, FleetEv::Timeout(id));
    let hedge_ev = (w.cfg.hedge.is_some() && w.cfg.servers > 1)
        .then(|| sim.schedule_at(now + w.hedge_delay, FleetEv::Hedge(id)));
    if let Some(req) = w.reqs.get_mut(&id) {
        req.timeout_ev = Some(timeout_ev);
        req.hedge_ev = hedge_ev;
    }
    schedule_next_arrival(w, sim, now);
}

fn schedule_next_arrival(w: &mut FleetWorld, sim: &mut FleetSim, now: SimTime) {
    let mean_ns = 1e9 / w.offered_rate(now);
    let gap_ns = w.rng_arrival.exponential(mean_ns).clamp(1.0, 1e15);
    let next = now + SimDuration::from_nanos(gap_ns as u64);
    if next < w.end {
        sim.schedule_at(next, FleetEv::Arrival);
    }
}

/// Drops a request once it is closed and every attempt has resolved.
fn maybe_gc(w: &mut FleetWorld, id: u64) {
    if let Some(req) = w.reqs.get(&id) {
        if req.closed
            && req.timeout_ev.is_none()
            && req.hedge_ev.is_none()
            && req.attempts.iter().all(|a| a.done)
        {
            w.reqs.remove(&id);
        }
    }
}

/// Runs a fleet, panicking on an invalid config — the ergonomic entry
/// point for examples and tests.
pub fn run_fleet(cfg: FleetConfig) -> FleetResult {
    try_run_fleet(cfg).expect("invalid FleetConfig")
}

/// Fallible [`run_fleet`]: invalid configs and conservation
/// violations come back as typed [`SimError`]s.
pub fn try_run_fleet(cfg: FleetConfig) -> Result<FleetResult, SimError> {
    try_run_fleet_budgeted(cfg, &StepBudget::unlimited())
}

/// Like [`try_run_fleet`] with a runaway guard: the outer simulator
/// and each server's inner simulator are all held to `budget`
/// individually.
pub fn try_run_fleet_budgeted(
    cfg: FleetConfig,
    budget: &StepBudget,
) -> Result<FleetResult, SimError> {
    let workers = pool::default_workers(cfg.servers);
    run_on_pool(cfg, budget, workers)
}

/// Builds each server's LB-side bookkeeping and its testbed, with the
/// response log on: the epoch harvest reads (and drains) it.
fn build_servers(cfg: &FleetConfig) -> Result<(Vec<ServerInstance>, Vec<ServerCore>), SimError> {
    let n = cfg.servers;
    let app_model = AppModel::for_kind(cfg.app);
    let init_load = cfg.initial_load();
    let per_rps = (cfg.total_rps / n as f64).max(1.0);
    let window = cfg.quantile_window();
    let mut servers = Vec::with_capacity(n);
    let mut cores = Vec::with_capacity(n);
    for i in 0..n {
        let seed = RngStream::derive(cfg.seed, "server", i as u64).next_u64();
        let tb_cfg = TestbedConfig::new(app_model, init_load)
            .with_seed(seed)
            .with_timeline(TimelineConfig::OFF)
            .with_admission(cfg.admission);
        let (governor, sleep) = build_policies(&cfg.governor, SLEEP, &tb_cfg.profile, &app_model);
        let mut inner: Simulator<Testbed> = Simulator::new();
        let mut tb = Testbed::try_new(tb_cfg, governor, sleep, &mut inner)?;
        tb.client.set_response_log_enabled(true);
        cores.push(ServerCore { sim: inner, tb });
        servers.push(ServerInstance {
            slo: app_model.slo,
            latatable: Vec::new(),
            inflight: Vec::new(),
            dispatched_epoch: 0,
            dispatched_total: 0,
            delivered: 0,
            won: 0,
            crashes: 0,
            q: StreamingQuantiles::new(window),
            current_rps: per_rps,
            sat_permille: 0,
        });
    }
    Ok((servers, cores))
}

/// The fleet run with its servers advanced by `workers` threads (none:
/// inline, in server order). The result does not depend on `workers`.
fn run_on_pool(
    cfg: FleetConfig,
    budget: &StepBudget,
    workers: usize,
) -> Result<FleetResult, SimError> {
    cfg.validate()?;
    let end = cfg.end();
    let n = cfg.servers;
    let (servers, cores) = build_servers(&cfg)?;

    let faults = FaultInjector::from_plan(&cfg.fault_plan, cfg.seed);
    let hedge_floor = cfg.hedge.map_or(SimDuration::from_millis(1), |h| h.floor);
    let control = cfg.overload_control;
    let mut world = FleetWorld {
        ring: HashRing::new(n),
        trackers: vec![HealthTracker::new(cfg.probe.fail_threshold, cfg.probe.ok_threshold); n],
        lb_view: vec![true; n],
        affinity: vec![None; FLOWS],
        reqs: IdHashMap::default(),
        faults,
        ledger: ConservationLedger::new(),
        rng_arrival: RngStream::derive(cfg.seed, "fleet-arrival", 0),
        rng_steer: RngStream::derive(cfg.seed, "fleet-steer", 0),
        rng_latency: RngStream::derive(cfg.seed, "fleet-latency", 0),
        rng_priority: RngStream::derive(cfg.seed, "fleet-priority", 0),
        counters: FleetCounters::default(),
        budgets: if control {
            vec![RetryBudget::new(RetryBudgetPolicy::default()); FLOWS]
        } else {
            Vec::new()
        },
        breakers: if control {
            vec![CircuitBreaker::new(BreakerPolicy::default()); n]
        } else {
            Vec::new()
        },
        brownout: control.then(|| Brownout::new(BrownoutPolicy::default())),
        steer_view: Vec::with_capacity(n),
        hedge_delay: hedge_floor,
        end,
        budget_err: None,
        next_req: 0,
        servers,
        pool: ServerPool::new(cores, workers, *budget),
        next_tick: Some(SimTime::ZERO + cfg.epoch),
        warmup_pending: true,
        cfg,
    };

    let mut sim: FleetSim = Simulator::new();
    // First arrival.
    {
        let mean_ns = 1e9 / world.offered_rate(SimTime::ZERO);
        let gap = world.rng_arrival.exponential(mean_ns).clamp(1.0, 1e15);
        sim.schedule_at(
            SimTime::ZERO + SimDuration::from_nanos(gap as u64),
            FleetEv::Arrival,
        );
    }
    // Staggered health probes.
    for server in 0..n {
        let offset = SimDuration::from_nanos(
            ((server as u64 + 1) * world.cfg.probe.interval.as_nanos()) / (n as u64 + 1),
        );
        sim.schedule_at(SimTime::ZERO + offset, FleetEv::Probe(server));
    }
    // Epoch coupling and the measurement boundary.
    sim.schedule_at(SimTime::ZERO + world.cfg.epoch, FleetEv::EpochTick);
    sim.schedule_at(SimTime::ZERO + world.cfg.warmup, FleetEv::WarmupBoundary);
    // Server-crash boundaries from the fault plan (scope.core = server
    // index; an unpinned scope crashes the whole fleet).
    for spec in world.cfg.fault_plan.specs.clone() {
        if spec.kind != FaultKind::ServerCrash {
            continue;
        }
        let targets: Vec<usize> = match spec.scope.core {
            Some(c) => vec![c],
            None => (0..n).collect(),
        };
        for server in targets {
            sim.schedule_at(spec.scope.start, FleetEv::Crash(server));
            if spec.scope.end < end {
                sim.schedule_at(spec.scope.end, FleetEv::Recover(server));
            }
        }
    }

    // The servers run to the first join point while the LB starts.
    let h = horizon(&world);
    world.pool.launch(h);
    let outer = sim.run_until_budgeted(&mut world, end, budget);
    // Every return path joins first. When the LB finished cleanly the
    // advance in flight is the servers' final one, to `end`.
    let last = world.pool.join().failed;
    outer?;
    if let Some((_, e)) = world.budget_err.take().or(last) {
        return Err(e);
    }
    extract(world, end)
}

fn extract(mut world: FleetWorld, end: SimTime) -> Result<FleetResult, SimError> {
    let cores = world.pool.join().cores;
    let c = world.counters;

    // The conservation roll-up: integer-exact and counter-based,
    // cross-checked against the ledger.
    let mut audit = AuditReport::new();
    audit.check_exact(
        "fleet: admitted == completed + timed_out + shed + in_flight",
        c.admitted,
        c.completed + c.timed_out + c.shed_requests + c.open_requests,
    );
    audit.check_exact(
        "fleet: shed attempts within failed attempts",
        c.attempts_shed + c.attempts_failed.saturating_sub(c.attempts_shed),
        c.attempts_failed,
    );
    audit.check_exact(
        "fleet: dispatched == completed + failed + suppressed + outstanding",
        c.dispatched,
        c.attempts_completed + c.attempts_failed + c.suppressed + c.attempts_outstanding,
    );
    let won_sum: u64 = world.servers.iter().map(|s| s.won).sum();
    audit.check_exact("fleet: server wins == completions", won_sum, c.completed);
    let delivered_sum: u64 = world.servers.iter().map(|s| s.delivered).sum();
    audit.check_exact(
        "fleet: deliveries == dispatched - failed",
        delivered_sum,
        c.dispatched.saturating_sub(c.attempts_failed),
    );
    let steered_sum: u64 = world.servers.iter().map(|s| s.dispatched_total).sum();
    audit.check_exact(
        "fleet: per-server steers == dispatched",
        steered_sum,
        c.dispatched,
    );
    let pairs = [
        (
            Account::FleetRequestsAdmitted,
            c.admitted,
            "ledger: admitted",
        ),
        (
            Account::FleetRequestsCompleted,
            c.completed,
            "ledger: completed",
        ),
        (
            Account::FleetRequestsTimedOut,
            c.timed_out,
            "ledger: timed out",
        ),
        (
            Account::FleetAttemptsDispatched,
            c.dispatched,
            "ledger: dispatched",
        ),
        (
            Account::FleetAttemptsCompleted,
            c.attempts_completed,
            "ledger: attempts completed",
        ),
        (
            Account::FleetAttemptsFailed,
            c.attempts_failed,
            "ledger: attempts failed",
        ),
        (
            Account::FleetHedgesSuppressed,
            c.suppressed,
            "ledger: suppressed",
        ),
        (
            Account::FleetRequestsShed,
            c.shed_requests,
            "ledger: requests shed",
        ),
        (
            Account::FleetAttemptsShed,
            c.attempts_shed,
            "ledger: attempts shed",
        ),
    ];
    for (account, counter, name) in pairs {
        audit.check_exact(name, world.ledger.balance(account), counter);
    }
    // Per-server single-box audits must also balance.
    for (i, core) in cores.iter_mut().enumerate() {
        if let Some(report) = core.tb.audit_report(end) {
            if !report.is_balanced() {
                return Err(SimError::Accounting {
                    context: "fleet.server_audit",
                    reason: format!(
                        "server {i} conservation audit failed ({} violation(s))",
                        report.violations().len()
                    ),
                });
            }
        }
    }
    if !audit.is_balanced() {
        let names: Vec<String> = audit.violations().iter().map(|v| v.name.clone()).collect();
        return Err(SimError::Accounting {
            context: "fleet.audit",
            reason: format!("fleet conservation roll-up failed: {}", names.join("; ")),
        });
    }

    // Fleet latency: merged per-server streaming sketches.
    for s in &mut world.servers {
        s.q.advance_to(end);
    }
    let merged = merged_sketch(&world.servers);
    let (p99, p50) = merged.map_or((SimDuration::ZERO, SimDuration::ZERO), |m| {
        (
            SimDuration::from_nanos(m.p99_ns()),
            SimDuration::from_nanos(m.p50_ns()),
        )
    });

    // Fleet metrics.
    let crashes_sum: u64 = world.servers.iter().map(|s| s.crashes).sum();
    let mut reg = MetricsRegistry::new();
    reg.set_counter("fleet.requests.admitted", c.admitted);
    reg.set_counter("fleet.requests.completed", c.completed);
    reg.set_counter("fleet.requests.timed_out", c.timed_out);
    reg.set_counter("fleet.requests.in_flight", c.open_requests);
    reg.set_counter("fleet.attempts.dispatched", c.dispatched);
    reg.set_counter("fleet.attempts.completed", c.attempts_completed);
    reg.set_counter("fleet.attempts.failed", c.attempts_failed);
    reg.set_counter("fleet.attempts.suppressed", c.suppressed);
    reg.set_counter("fleet.attempts.in_flight", c.attempts_outstanding);
    reg.set_counter("fleet.retries", c.retries);
    reg.set_counter("fleet.hedges", c.hedges);
    reg.set_counter("fleet.failovers", c.failovers);
    reg.set_counter("fleet.health.ejections", c.ejections);
    reg.set_counter("fleet.health.readmissions", c.readmissions);
    reg.set_counter("fleet.server_crashes", crashes_sum);
    let mut breaker_opens = 0u64;
    let mut breaker_closes = 0u64;
    let mut breaker_half_opens = 0u64;
    for b in &world.breakers {
        let s = b.stats();
        breaker_opens += s.opens;
        breaker_closes += s.closes;
        breaker_half_opens += s.half_opens;
    }
    reg.set_counter("fleet.shed.requests", c.shed_requests);
    reg.set_counter("fleet.shed.attempts", c.attempts_shed);
    reg.set_counter("fleet.breaker.opens", breaker_opens);
    reg.set_counter("fleet.breaker.closes", breaker_closes);
    reg.set_counter("fleet.breaker.half_opens", breaker_half_opens);
    reg.set_counter("fleet.breaker.short_circuits", c.breaker_short_circuits);
    reg.set_counter("retry_budget.spent", c.retry_budget_spent);
    reg.set_counter("retry_budget.denied", c.retry_budget_denied);
    let metrics = reg.snapshot();

    let ejected: Vec<bool> = world.trackers.iter().map(|t| t.is_ejected()).collect();
    let mut energy_total = 0.0;
    let mut server_reports = Vec::with_capacity(world.servers.len());
    for (i, (s, core)) in world.servers.iter().zip(cores.iter_mut()).enumerate() {
        let energy_j = core.tb.measured_energy(end);
        energy_total += energy_j;
        server_reports.push(ServerReport {
            dispatched: s.dispatched_total,
            delivered: s.delivered,
            won: s.won,
            crashes: s.crashes,
            ejected_at_end: ejected[i],
            p99_internal: core.tb.client.latencies_mut().p99(),
            energy_j,
            degradation: core.tb.governor.degradation(),
        });
    }

    let closed = c.completed + c.timed_out;
    let availability = if closed > 0 {
        c.completed as f64 / closed as f64
    } else {
        1.0
    };

    Ok(FleetResult {
        governor: world.cfg.governor.label().to_string(),
        sleep: SLEEP.label().to_string(),
        servers: server_reports,
        admitted: c.admitted,
        completed: c.completed,
        timed_out: c.timed_out,
        in_flight_at_end: c.open_requests,
        dispatched: c.dispatched,
        attempts_completed: c.attempts_completed,
        attempts_failed: c.attempts_failed,
        suppressed: c.suppressed,
        attempts_in_flight_at_end: c.attempts_outstanding,
        retries: c.retries,
        hedges: c.hedges,
        failovers: c.failovers,
        ejections: c.ejections,
        readmissions: c.readmissions,
        shed: c.shed_requests,
        attempts_shed: c.attempts_shed,
        retry_budget_spent: c.retry_budget_spent,
        retry_budget_denied: c.retry_budget_denied,
        breaker_opens,
        breaker_closes,
        breaker_half_opens,
        breaker_short_circuits: c.breaker_short_circuits,
        p99,
        p50,
        availability,
        energy_j: energy_total,
        duration: world.cfg.duration,
        metrics,
        faults: world.faults.stats(),
        audit,
    })
}

/// Runs many fleet configs across worker threads, preserving input
/// order in the output. The sweep already keeps the CPUs busy, so each
/// fleet advances its servers inline (a zero-worker pool) rather than
/// adding threads of its own; a single config runs like [`run_fleet`].
pub fn run_fleet_many(configs: Vec<FleetConfig>) -> Vec<FleetResult> {
    let lone = configs.len() == 1;
    simcore::par::map_ordered(configs, |cfg| {
        let workers = if lone {
            pool::default_workers(cfg.servers)
        } else {
            0
        };
        run_on_pool(cfg, &StepBudget::unlimited(), workers).expect("invalid FleetConfig")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::FaultScope;

    fn quick(servers: usize, governor: GovernorKind) -> FleetConfig {
        FleetConfig::new(servers, AppKind::Memcached, 6_000.0, governor)
            .with_window(SimDuration::from_millis(40), SimDuration::from_millis(120))
    }

    #[test]
    fn smoke_conserves_and_completes() {
        let r = run_fleet(quick(2, GovernorKind::Ondemand));
        assert!(r.admitted > 100, "admitted {}", r.admitted);
        assert_eq!(r.admitted, r.completed + r.timed_out + r.in_flight_at_end);
        assert_eq!(
            r.dispatched,
            r.attempts_completed + r.attempts_failed + r.suppressed + r.attempts_in_flight_at_end
        );
        assert!(r.audit.is_balanced());
        assert!(r.availability > 0.9, "availability {}", r.availability);
        assert!(r.p99 > SimDuration::ZERO);
        assert!(r.energy_j > 0.0);
        assert_eq!(r.servers.len(), 2);
        let won: u64 = r.servers.iter().map(|s| s.won).sum();
        assert_eq!(won, r.completed);
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let a = run_fleet(quick(3, GovernorKind::Performance));
        let b = run_fleet(quick(3, GovernorKind::Performance));
        assert_eq!(a, b);
    }

    #[test]
    fn crash_schedule_conserves_exactly() {
        let plan = FaultPlan::new().inject(
            FaultKind::ServerCrash,
            FaultScope::window(SimTime::from_millis(60), SimTime::from_millis(100)).on_core(0),
        );
        let r = run_fleet(quick(3, GovernorKind::Ondemand).with_fault_plan(plan));
        assert_eq!(r.admitted, r.completed + r.timed_out + r.in_flight_at_end);
        assert_eq!(
            r.dispatched,
            r.attempts_completed + r.attempts_failed + r.suppressed + r.attempts_in_flight_at_end
        );
        assert_eq!(r.servers[0].crashes, 1);
        assert!(r.attempts_failed > 0, "crash lost no attempts");
        assert!(r.faults.server_crashes >= 1);
    }

    #[test]
    fn aggressive_hedging_produces_hedges_and_suppressions() {
        let cfg = quick(2, GovernorKind::Performance).with_hedge(Some(HedgePolicy {
            quantile: 0.5,
            floor: SimDuration::from_nanos(1),
        }));
        let r = run_fleet(cfg);
        assert!(r.hedges > 0, "hedge floor of 1 ns never hedged");
        assert!(r.suppressed > 0, "winners never suppressed a duplicate");
        assert_eq!(
            r.dispatched,
            r.attempts_completed + r.attempts_failed + r.suppressed + r.attempts_in_flight_at_end
        );
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(quick(0, GovernorKind::Ondemand).validate().is_err());
        let mut bad = quick(2, GovernorKind::Ondemand);
        bad.total_rps = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = quick(2, GovernorKind::Ondemand);
        bad.epoch = SimDuration::ZERO;
        assert!(bad.validate().is_err());
        let mut bad = quick(2, GovernorKind::Ondemand);
        bad.hedge = Some(HedgePolicy {
            quantile: 1.5,
            floor: SimDuration::from_millis(1),
        });
        assert!(bad.validate().is_err());
        let mut bad = quick(2, GovernorKind::Ondemand);
        bad.retry.max_attempts = 0;
        assert!(bad.validate().is_err());
        assert!(quick(2, GovernorKind::Ncap(f64::NAN)).validate().is_err());
    }

    #[test]
    fn budget_guard_aborts() {
        let err = try_run_fleet_budgeted(
            quick(2, GovernorKind::Ondemand),
            &StepBudget::unlimited().with_max_events(50),
        )
        .expect_err("a 50-event budget cannot finish a fleet run");
        assert!(err.is_budget(), "unexpected error: {err}");
    }

    /// `repro fleet`'s composed chaos plan: two staggered crashes, a
    /// stale health view, a link spike, a partition, and hash skew.
    fn chaos_plan() -> FaultPlan {
        let win = |a, b| FaultScope::window(SimTime::from_millis(a), SimTime::from_millis(b));
        FaultPlan::new()
            .with_seed(44)
            .inject(FaultKind::ServerCrash, win(150, 280).on_core(1))
            .inject(FaultKind::ServerCrash, win(230, 360).on_core(3))
            .inject(FaultKind::HealthViewStale, win(150, 220))
            .inject(
                FaultKind::LinkLatencySpike {
                    extra: SimDuration::from_millis(2),
                },
                win(180, 330).on_core(2),
            )
            .inject(FaultKind::LinkPartition, win(300, 380).on_core(0))
            .inject(FaultKind::HashSkew { factor: 3.0 }, win(150, 430))
    }

    /// The pipelined pool must not change one bit of any outcome,
    /// budget errors included: the time a budget error reports depends
    /// on which servers were harvested before it, so a join that finds
    /// a failure must keep the serial order's partial harvest.
    #[test]
    fn threaded_pool_matches_inline_pool() {
        let ms = SimDuration::from_millis;
        let chaos = FleetConfig::new(4, AppKind::Memcached, 48_000.0, GovernorKind::NmapOnline)
            .with_window(ms(100), ms(400))
            .with_seed(9)
            .with_retry(RetryPolicy {
                timeout: ms(2),
                max_attempts: 3,
                backoff_base: SimDuration::from_micros(500),
                backoff_cap: ms(8),
            })
            .with_hedge(Some(HedgePolicy {
                quantile: 0.95,
                floor: SimDuration::from_micros(300),
            }))
            .with_probe(ProbePolicy {
                interval: ms(5),
                timeout: ms(1),
                fail_threshold: 3,
                ok_threshold: 2,
            })
            .with_fault_plan(chaos_plan());
        let cases = [
            ("chaos plan, 4 servers", chaos),
            (
                "12 ms warm-up, 5 ms epoch",
                quick(4, GovernorKind::Ncap(1e6)).with_window(ms(12), ms(60)),
            ),
            (
                "12 ms warm-up, 7 ms epoch",
                quick(4, GovernorKind::Ondemand)
                    .with_window(ms(12), ms(60))
                    .with_epoch(ms(7))
                    .with_overload_control(),
            ),
            (
                "0 ms warm-up, 5 servers",
                quick(5, GovernorKind::Ondemand).with_window(SimDuration::ZERO, ms(60)),
            ),
            // At 85 events a server fails before the boundary and the
            // LB after it, so the boundary's harvest shows in the
            // error: harvesting the servers past the failed one (which
            // ran ahead on their workers) moves it.
            (
                "2 servers at 2 000 rps, 12 ms warm-up",
                FleetConfig::new(2, AppKind::Memcached, 2_000.0, GovernorKind::Ondemand)
                    .with_window(ms(12), ms(60)),
            ),
        ];
        // 85 and 382 events each fail a server mid-run and the LB
        // later, so the LB's error shows which servers a failed join
        // still harvested and re-targeted. (The counts follow the
        // servers' executed events: a woken core's sleep tick is
        // cancelled, not executed.)
        let budgets = [
            None,
            Some(1),
            Some(85),
            Some(382),
            Some(1_000),
            Some(4_754),
            Some(50_000),
        ]
        .map(|max_events| StepBudget { max_events });
        // Pinned budget errors, so the inline and threaded schedules
        // cannot drift together.
        let serial = [
            ("0 ms warm-up, 5 servers", 382, 32_554_980),
            ("2 servers at 2 000 rps, 12 ms warm-up", 85, 20_160_218),
        ];
        for (label, cfg) in cases {
            for budget in &budgets {
                let inline = run_on_pool(cfg.clone(), budget, 0);
                if budget.max_events.is_none() {
                    assert!(inline.is_ok(), "{label}: {inline:?}");
                }
                for &(_, limit, ns) in serial.iter().filter(|&&(l, ..)| l == label) {
                    if budget.max_events == Some(limit) {
                        let err = SimError::BudgetExceeded {
                            limit,
                            events_executed: limit,
                            sim_time: SimTime::from_nanos(ns),
                        };
                        assert_eq!(inline, Err(err), "{label}, {limit} events");
                    }
                }
                for workers in [2, 3] {
                    let threaded = run_on_pool(cfg.clone(), budget, workers);
                    assert_eq!(threaded, inline, "{label}, {budget:?}, {workers} workers");
                }
            }
        }
    }

    /// A server's response log holds one epoch at most: the join hands
    /// back exactly the responses since the last harvest, and the
    /// harvest drains them into the latency table.
    #[test]
    fn harvest_keeps_at_most_one_epoch_of_responses() {
        let cfg = quick(2, GovernorKind::Ondemand);
        let (mut servers, cores) = build_servers(&cfg).expect("valid fleet");
        let mut pool = ServerPool::new(cores, 2, StepBudget::unlimited());
        let mut received = vec![0; servers.len()];
        let mut harvested = 0;
        for epoch in 1..=8 {
            pool.launch(SimTime::ZERO + cfg.epoch * epoch);
            let joined = pool.join();
            assert!(joined.failed.is_none());
            for ((s, core), seen) in servers
                .iter_mut()
                .zip(joined.cores.iter_mut())
                .zip(&mut received)
            {
                let total = core.tb.client.received();
                let this_epoch = total - *seen;
                *seen = total;
                let log = core.tb.client.response_log();
                assert_eq!(log.len() as u64, this_epoch, "epoch {epoch}");
                let newest: Vec<u64> = log
                    .iter()
                    .skip(log.len().saturating_sub(2048))
                    .map(|&(_, d)| d.as_nanos().max(1))
                    .collect();
                harvest(s, core);
                assert!(core.tb.client.response_log().is_empty(), "epoch {epoch}");
                if this_epoch > 0 {
                    assert_eq!(s.latatable, newest, "epoch {epoch}");
                    harvested += 1;
                }
            }
        }
        assert!(
            harvested > 8,
            "the servers must answer: {harvested} harvests"
        );
    }

    #[test]
    fn run_fleet_many_matches_serial() {
        let cfgs = vec![
            quick(2, GovernorKind::Ondemand),
            quick(2, GovernorKind::Performance),
        ];
        let parallel = run_fleet_many(cfgs.clone());
        let serial: Vec<FleetResult> = cfgs.into_iter().map(run_fleet).collect();
        assert_eq!(parallel, serial);
    }
}
