//! Beyond-paper artifact: the fault-tolerant fleet tier.
//!
//! NMAP is a single-box policy; this artifact asks what its latency
//! and energy story looks like when N independent NMAP servers sit
//! behind a front end with health-checked failover, retry/timeout,
//! and tail-latency hedging (`cluster::run_fleet`). Two sweeps:
//!
//! * **calm** — no cluster faults; the fleet is pure steady-state
//!   steering, so retries/failovers stay near zero and the interest
//!   is fleet P99 vs the per-server internal P99.
//! * **chaos** — a composed schedule of server crashes, a stale LB
//!   health view, a link-latency spike, a partition, and hash-skew,
//!   exercising ejection/readmission, retry, hedging, and the exact
//!   cross-server conservation roll-up.

use cluster::{FleetConfig, FleetResult, GovernorKind, HedgePolicy, ProbePolicy, RetryPolicy};
use simcore::fault::{FaultKind, FaultPlan, FaultScope};
use simcore::{SimDuration, SimTime};
use workload::AppKind;

use crate::report::{self, FigureReport};
use crate::thresholds;
use crate::{Scale, Supervisor};

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

fn win(start: u64, end: u64) -> FaultScope {
    FaultScope::window(ms(start), ms(end))
}

/// The governor subset the fleet sweep compares: the paper's two
/// conventional poles, NMAP itself, and the state-of-the-art NCAP.
pub fn fleet_governors() -> Vec<(&'static str, GovernorKind)> {
    let app = AppKind::Memcached;
    vec![
        ("performance", GovernorKind::Performance),
        ("ondemand", GovernorKind::Ondemand),
        ("nmap", GovernorKind::Nmap(thresholds::nmap_config(app))),
        ("ncap", GovernorKind::Ncap(thresholds::ncap_threshold(app))),
    ]
}

/// The two cluster schedules. Windows live inside [150, 450) ms —
/// after the fleet warm-up (100 ms) and comfortably before the quick
/// end of run (500 ms), leaving a calm tail for readmission.
pub fn plans() -> Vec<(&'static str, FaultPlan)> {
    let calm = FaultPlan::new().with_seed(44);
    // Composed cluster chaos: two staggered server crashes (servers 1
    // and 3), a stale LB health view across the first crash boundary,
    // a link-latency spike on server 2 (slow-but-alive: probe
    // timeouts eject it without a crash), a hard partition of server
    // 0, and steering skew toward server 0 for most of the run.
    let chaos = FaultPlan::new()
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
        .inject(FaultKind::HashSkew { factor: 3.0 }, win(150, 430));
    vec![("calm", calm), ("chaos", chaos)]
}

/// Fleet geometry for a scale: (servers, total rps, warm-up,
/// measured duration). Both scales share the fault windows above;
/// Full just measures a longer recovered tail on a wider fleet.
fn geometry(scale: Scale) -> (usize, f64, SimDuration, SimDuration) {
    match scale {
        Scale::Quick => (
            4,
            48_000.0,
            SimDuration::from_millis(100),
            SimDuration::from_millis(400),
        ),
        Scale::Full => (
            8,
            96_000.0,
            SimDuration::from_millis(100),
            SimDuration::from_millis(1_200),
        ),
    }
}

fn config(scale: Scale, gov: GovernorKind, plan: FaultPlan) -> FleetConfig {
    let (servers, rps, warmup, duration) = geometry(scale);
    FleetConfig::new(servers, AppKind::Memcached, rps, gov)
        .with_window(warmup, duration)
        .with_seed(9)
        .with_retry(RetryPolicy {
            timeout: SimDuration::from_millis(2),
            max_attempts: 3,
            backoff_base: SimDuration::from_micros(500),
            backoff_cap: SimDuration::from_millis(8),
        })
        .with_hedge(Some(HedgePolicy {
            quantile: 0.95,
            floor: SimDuration::from_micros(300),
        }))
        .with_probe(ProbePolicy {
            interval: SimDuration::from_millis(5),
            timeout: SimDuration::from_millis(1),
            fail_threshold: 3,
            ok_threshold: 2,
        })
        .with_fault_plan(plan)
}

/// The sweep: plan-major, 2 schedules × 4 governors, through `sup`.
pub fn sweep(scale: Scale, sup: &Supervisor) -> Vec<FleetResult> {
    let mut configs = Vec::new();
    for (_, plan) in plans() {
        for (_, gov) in fleet_governors() {
            configs.push(config(scale, gov, plan.clone()));
        }
    }
    sup.run_many(configs)
}

/// Renders the artifact from a completed sweep (separated from
/// [`fleet`] so the golden test can drive it at a fixed scale).
pub fn render(results: &[FleetResult]) -> FigureReport {
    let governors = fleet_governors();
    let mut body = String::new();
    for (pi, (plan_label, plan)) in plans().iter().enumerate() {
        let kinds: Vec<&'static str> = plan.specs.iter().map(|s| s.kind.label()).collect();
        if kinds.is_empty() {
            body.push_str(&format!("\n[{plan_label} fleet — no cluster faults]\n"));
        } else {
            body.push_str(&format!("\n[{plan_label} fleet — {}]\n", kinds.join(", ")));
        }
        let headers = [
            "governor",
            "admitted",
            "done",
            "t/o",
            "open",
            "retry",
            "hedge",
            "dup",
            "failover",
            "eject",
            "readmit",
            "avail",
            "fleet-p99",
            "energy",
        ];
        let mut rows = Vec::new();
        for (gi, (gov_label, _)) in governors.iter().enumerate() {
            let r = &results[pi * governors.len() + gi];
            rows.push(vec![
                (*gov_label).to_string(),
                r.admitted.to_string(),
                r.completed.to_string(),
                r.timed_out.to_string(),
                r.in_flight_at_end.to_string(),
                r.retries.to_string(),
                r.hedges.to_string(),
                r.suppressed.to_string(),
                r.failovers.to_string(),
                r.ejections.to_string(),
                r.readmissions.to_string(),
                report::fmt_pct(r.availability),
                report::fmt_dur(r.p99),
                format!("{:.1} J", r.energy_j),
            ]);
        }
        body.push_str(&report::table(&headers, rows));
    }
    // Per-server view of the NMAP fleet under chaos: which boxes
    // crashed, who absorbed the failed-over flows, and whether every
    // server's degradation machine came back clean.
    if let Some(nmap_chaos) = results.get(governors.len() + 2) {
        body.push_str(&format!(
            "\n[per-server: {} under chaos]\n",
            nmap_chaos.governor
        ));
        let headers = [
            "server", "steered", "served", "won", "crashes", "ejected", "p99", "energy", "degr",
            "recov",
        ];
        let mut rows = Vec::new();
        for (i, s) in nmap_chaos.servers.iter().enumerate() {
            rows.push(vec![
                format!("s{i}"),
                s.dispatched.to_string(),
                s.delivered.to_string(),
                s.won.to_string(),
                s.crashes.to_string(),
                if s.ejected_at_end { "yes" } else { "no" }.to_string(),
                report::fmt_dur(s.p99_internal),
                format!("{:.1} J", s.energy_j),
                s.degradation.degradations.to_string(),
                s.degradation.recoveries.to_string(),
            ]);
        }
        body.push_str(&report::table(&headers, rows));
    }
    body.push_str(
        "\nEvery fleet passed its cross-server conservation roll-up \
         exactly: requests admitted equal completions plus timeouts plus \
         the in-flight tail, and attempts dispatched equal completions \
         plus crash/partition losses plus suppressed hedge duplicates \
         plus outstanding attempts — even across crash boundaries that \
         drop whole servers mid-flight. `dup` counts first-response-wins \
         suppressions of hedge/retry duplicates; `eject`/`readmit` are \
         the health checker's hysteretic LB-view transitions.\n",
    );
    FigureReport::new(
        "fleet",
        "Fleet tier: health-checked failover, retry/hedging, conservation",
        body,
    )
}

/// Builds the artifact: 2 cluster schedules × 4 governors.
pub fn fleet(scale: Scale, sup: &Supervisor) -> FigureReport {
    render(&sweep(scale, sup))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_windows_fit_both_scales_with_a_recovery_tail() {
        for scale in [Scale::Quick, Scale::Full] {
            let (servers, _, warmup, duration) = geometry(scale);
            let end = SimTime::ZERO + warmup + duration;
            for (label, plan) in plans() {
                plan.validate(servers).expect("plan must validate");
                for spec in &plan.specs {
                    assert!(
                        spec.scope.start >= SimTime::ZERO + warmup,
                        "{label}: fault starts inside warm-up"
                    );
                    assert!(spec.scope.end <= end, "{label}: no recovery tail");
                }
            }
        }
    }

    #[test]
    fn chaos_schedule_composes_distinct_cluster_kinds() {
        let plan = plans().pop().expect("chaos plan").1;
        let mut kinds: Vec<&'static str> = plan.specs.iter().map(|s| s.kind.label()).collect();
        let n = kinds.len();
        kinds.sort_unstable();
        kinds.dedup();
        assert!(kinds.len() >= 5, "chaos composes ≥5 distinct kinds");
        assert!(n > kinds.len(), "staggered crashes repeat ServerCrash");
    }

    #[test]
    fn configs_validate_at_both_scales() {
        for scale in [Scale::Quick, Scale::Full] {
            for (_, plan) in plans() {
                for (label, gov) in fleet_governors() {
                    config(scale, gov, plan.clone())
                        .validate()
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                }
            }
        }
    }
}
