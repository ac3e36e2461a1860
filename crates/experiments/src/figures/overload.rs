//! Beyond-paper artifact: overload control vs metastable failure.
//!
//! The headline property of the overload-control subsystem, rendered
//! as a checked experiment. A fleet is driven into overload by a
//! composed **metastable trigger** — a load spike multiplying the
//! offered rate while one server crashes — and the trigger then
//! clears. Two otherwise identical fleets race through it:
//!
//! * **control on** — bounded app queues with sojourn admission,
//!   per-client retry budgets, per-server circuit breakers, and
//!   LB-side brownout (`FleetConfig::with_overload_control`);
//! * **control off** — the seed fleet's unconditional
//!   backoff-retries and unbounded queues.
//!
//! With control on, shedding bounds every queue, retry budgets choke
//! the retry storm, and fleet P99 re-enters the SLO within a bounded
//! window after the trigger clears. With control off the retry storm
//! outlives its trigger: timeouts spawn retries, retries re-saturate
//! the servers, the extra queueing spawns more timeouts — the classic
//! metastable failure, sustained long after the spike ends.
//!
//! The recovery bound is *measured*, not eyeballed: each cell re-runs
//! with the measurement boundary moved to `trigger clear + bound`
//! (same seed, same end of run — warm-up only repositions the
//! latency sketches, so the dynamics are identical) and the tail
//! window's P99 is compared against the SLO. [`Outcome::check`] turns
//! the dichotomy into a typed failure, pinned by `tests/overload.rs`.

use cluster::{FleetConfig, FleetResult, GovernorKind, HedgePolicy, ProbePolicy, RetryPolicy};
use simcore::fault::{FaultKind, FaultPlan, FaultScope};
use simcore::{SimDuration, SimTime};
use workload::AppKind;

use crate::report::{self, FigureReport};
use crate::thresholds;
use crate::{Scale, Supervisor};

/// When the metastable trigger (spike + crash) engages.
pub const TRIGGER_START_MS: u64 = 150;
/// When the trigger clears; recovery is measured from here.
pub const TRIGGER_CLEAR_MS: u64 = 250;
/// The offered-rate multiplier during the trigger window.
pub const SPIKE_FACTOR: f64 = 4.0;
/// The recovery bound: with control on, fleet P99 must be back under
/// the SLO this long after the trigger clears.
pub const RECOVERY_BOUND_MS: u64 = 100;
/// The fleet SLO the tail window is judged against (the memcached
/// single-box SLO; the fleet adds two wire hops but is expected to
/// operate well inside it once recovered).
pub const SLO: SimDuration = SimDuration::from_millis(1);

/// The metastable trigger: a fleet-wide load spike composed with a
/// server crash, both clearing at [`TRIGGER_CLEAR_MS`]. The crash
/// concentrates the spike on the survivors; when both clear, only the
/// fleet's own retry feedback can keep it saturated.
pub fn metastable_plan() -> FaultPlan {
    let win = FaultScope::window(
        SimTime::from_millis(TRIGGER_START_MS),
        SimTime::from_millis(TRIGGER_CLEAR_MS),
    );
    FaultPlan::new()
        .with_seed(44)
        .inject(
            FaultKind::LoadSpike {
                factor: SPIKE_FACTOR,
            },
            win,
        )
        .inject(FaultKind::ServerCrash, win.on_core(1))
}

/// Fleet geometry: (servers, total rps, warm-up, measured duration).
/// The trigger windows above sit inside the measured window at both
/// scales; Full widens the fleet and lengthens the recovered tail.
fn geometry(scale: Scale) -> (usize, f64, SimDuration, SimDuration) {
    match scale {
        Scale::Quick => (
            2,
            1_600_000.0,
            SimDuration::from_millis(100),
            SimDuration::from_millis(400),
        ),
        Scale::Full => (
            2,
            1_600_000.0,
            SimDuration::from_millis(100),
            SimDuration::from_millis(900),
        ),
    }
}

/// The shared fleet skeleton: NMAP servers, tight client timeouts
/// (the retry feedback path), hedging off so the storm is pure
/// retry-driven, and the metastable fault schedule.
fn base_config(scale: Scale) -> FleetConfig {
    let (servers, rps, warmup, duration) = geometry(scale);
    let app = AppKind::Memcached;
    FleetConfig::new(
        servers,
        app,
        rps,
        GovernorKind::Nmap(thresholds::nmap_config(app)),
    )
    .with_window(warmup, duration)
    .with_seed(9)
    .with_retry(RetryPolicy {
        timeout: SimDuration::from_millis(1),
        max_attempts: 6,
        backoff_base: SimDuration::from_micros(100),
        backoff_cap: SimDuration::from_micros(500),
    })
    .with_hedge(None::<HedgePolicy>)
    .with_probe(ProbePolicy {
        interval: SimDuration::from_millis(5),
        timeout: SimDuration::from_millis(1),
        fail_threshold: 3,
        ok_threshold: 2,
    })
    .with_fault_plan(metastable_plan())
}

/// One dichotomy cell, with the measurement boundary at `warmup`.
fn cell(scale: Scale, controlled: bool, warmup: SimDuration) -> FleetConfig {
    let cfg = base_config(scale);
    let end = cfg.warmup + cfg.duration;
    let cfg = cfg.with_window(warmup, end - warmup);
    if controlled {
        cfg.with_overload_control()
    } else {
        cfg
    }
}

/// Start of the post-recovery tail window: trigger clear + bound.
fn tail_start() -> SimDuration {
    SimDuration::from_millis(TRIGGER_CLEAR_MS + RECOVERY_BOUND_MS)
}

/// One arm of the dichotomy: the full-window run (headline counters)
/// plus the tail-probe re-run (same seed and end of run, measurement
/// boundary moved past the recovery bound).
#[derive(Debug, Clone)]
pub struct Arm {
    /// Whether overload control was on.
    pub controlled: bool,
    /// The full-window result.
    pub full: FleetResult,
    /// The tail-window result; its `p99` is the recovery probe.
    pub tail: FleetResult,
}

impl Arm {
    /// True if this arm's tail window is back inside the SLO.
    pub fn recovered(&self) -> bool {
        self.tail.p99 <= SLO
    }
}

/// The dichotomy outcome: both arms of the experiment.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Overload control on.
    pub on: Arm,
    /// Overload control off.
    pub off: Arm,
}

impl Outcome {
    /// The headline property as a typed check (the fleet analogue of
    /// the chaos soak's `join_recovery` bound): control ON must
    /// re-enter the SLO within [`RECOVERY_BOUND_MS`] of the trigger
    /// clearing, and control OFF — same seed, same trigger — must
    /// still be in violation there, or the scenario is not actually
    /// metastable and proves nothing.
    pub fn check(&self) -> Result<(), String> {
        if !self.on.recovered() {
            return Err(format!(
                "overload control failed to recover: tail P99 {:?} > SLO {:?} at {:?} after the \
                 trigger cleared",
                self.on.tail.p99,
                SLO,
                SimDuration::from_millis(RECOVERY_BOUND_MS),
            ));
        }
        if self.off.recovered() {
            return Err(format!(
                "uncontrolled fleet recovered anyway (tail P99 {:?} ≤ SLO {:?}): the trigger is \
                 not metastable, so the experiment proves nothing",
                self.off.tail.p99, SLO,
            ));
        }
        Ok(())
    }
}

/// Runs the 2×2 sweep through `sup`: {control on, off} × {full
/// window, tail probe}.
pub fn dichotomy(scale: Scale, sup: &Supervisor) -> Outcome {
    let tail = tail_start();
    let (_, _, warmup, _) = geometry(scale);
    let configs = vec![
        cell(scale, true, warmup),
        cell(scale, true, tail),
        cell(scale, false, warmup),
        cell(scale, false, tail),
    ];
    let mut results = sup.run_many(configs);
    let off_tail = results.pop().expect("4 cells");
    let off_full = results.pop().expect("4 cells");
    let on_tail = results.pop().expect("4 cells");
    let on_full = results.pop().expect("4 cells");
    Outcome {
        on: Arm {
            controlled: true,
            full: on_full,
            tail: on_tail,
        },
        off: Arm {
            controlled: false,
            full: off_full,
            tail: off_tail,
        },
    }
}

/// Renders the artifact from a completed sweep (separated from
/// [`overload`] so the golden test can drive it at a fixed scale).
pub fn render(outcome: &Outcome) -> FigureReport {
    let mut body = String::new();
    body.push_str(&format!(
        "\n[metastable trigger: {SPIKE_FACTOR}x load spike + server crash, \
         {TRIGGER_START_MS}-{TRIGGER_CLEAR_MS} ms]\n"
    ));
    let headers = [
        "control",
        "admitted",
        "done",
        "t/o",
        "shed",
        "att-shed",
        "retry",
        "denied",
        "brk-open",
        "short-ckt",
        "avail",
        "fleet-p99",
    ];
    let mut rows = Vec::new();
    for arm in [&outcome.on, &outcome.off] {
        let r = &arm.full;
        rows.push(vec![
            if arm.controlled { "on" } else { "off" }.to_string(),
            r.admitted.to_string(),
            r.completed.to_string(),
            r.timed_out.to_string(),
            r.shed.to_string(),
            r.attempts_shed.to_string(),
            r.retries.to_string(),
            r.retry_budget_denied.to_string(),
            r.breaker_opens.to_string(),
            r.breaker_short_circuits.to_string(),
            report::fmt_pct(r.availability),
            report::fmt_dur(r.p99),
        ]);
    }
    body.push_str(&report::table(&headers, rows));

    body.push_str(&format!(
        "\n[recovery probe: tail window starts {RECOVERY_BOUND_MS} ms after the \
         trigger clears]\n"
    ));
    let headers = ["control", "tail-p99", "slo", "verdict"];
    let mut rows = Vec::new();
    for arm in [&outcome.on, &outcome.off] {
        rows.push(vec![
            if arm.controlled { "on" } else { "off" }.to_string(),
            report::fmt_dur(arm.tail.p99),
            report::fmt_dur(SLO),
            if arm.recovered() {
                "recovered".to_string()
            } else {
                "violation sustained".to_string()
            },
        ]);
    }
    body.push_str(&report::table(&headers, rows));

    match outcome.check() {
        Ok(()) => body.push_str(&format!(
            "\nDichotomy holds: with admission control, retry budgets, circuit \
             breakers, and brownout engaged the fleet re-enters its SLO within \
             {RECOVERY_BOUND_MS} ms of the trigger clearing; the identical fleet \
             without them sustains the violation on retry feedback alone. \
             Conservation stayed integer-exact in all four runs: admitted == \
             completed + timed-out + shed + in-flight, with every shed retry \
             counted as a failed attempt.\n"
        )),
        Err(e) => body.push_str(&format!("\nDICHOTOMY CHECK FAILED: {e}\n")),
    }
    FigureReport::new(
        "overload",
        "Overload control vs metastable failure: admission, retry budgets, brownout",
        body,
    )
}

/// Builds the artifact: the metastable dichotomy at `scale`.
pub fn overload(scale: Scale, sup: &Supervisor) -> FigureReport {
    render(&dichotomy(scale, sup))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_fits_inside_the_measured_window_at_both_scales() {
        for scale in [Scale::Quick, Scale::Full] {
            let (servers, _, warmup, duration) = geometry(scale);
            let end = SimTime::ZERO + warmup + duration;
            let plan = metastable_plan();
            plan.validate(servers).expect("plan must validate");
            for spec in &plan.specs {
                assert!(spec.scope.start >= SimTime::ZERO + warmup);
                assert!(spec.scope.end <= end, "no recovered tail at {scale:?}");
            }
            // The tail probe must leave a non-empty window.
            assert!(SimTime::ZERO + tail_start() < end);
        }
    }

    #[test]
    fn cells_validate_and_share_the_end_of_run() {
        for scale in [Scale::Quick, Scale::Full] {
            let (_, _, warmup, _) = geometry(scale);
            let full = cell(scale, true, warmup);
            let tail = cell(scale, false, tail_start());
            full.validate().expect("controlled cell validates");
            tail.validate().expect("tail cell validates");
            assert_eq!(
                full.warmup + full.duration,
                tail.warmup + tail.duration,
                "probe must not change the end of run"
            );
            assert_eq!(full.seed, tail.seed, "probe must not change the seed");
        }
    }
}
