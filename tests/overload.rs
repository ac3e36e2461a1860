//! Overload-control integration: admission shedding, retry budgets,
//! circuit breakers, and brownout — the robustness contract on top of
//! the fleet tier.
//!
//! * shed accounting — an attempt rejected by a server's admission
//!   gate closes as *failed* (with `attempts_shed` as its audited
//!   sub-account), never as a suppressed duplicate, even when the
//!   rejection lands after its request already closed;
//! * determinism — every governor's fleet runs bit-identically with
//!   the full overload-control stack engaged, serial == parallel;
//! * the metastable dichotomy — with control ON the fleet re-enters
//!   its SLO within the recovery bound of the trigger clearing; the
//!   identical fleet with control OFF sustains the violation on retry
//!   feedback alone. The dichotomy runs four fleet cells near the
//!   saturation knee and takes minutes in a debug build, so it is
//!   `#[ignore]`d here and driven in release by CI (both directly —
//!   `cargo test --release --test overload -- --ignored` — and as the
//!   `repro overload` golden smoke against
//!   `tests/golden/quick_overload.txt`). Regenerate the fixture with
//!   `UPDATE_GOLDEN=1 cargo test --release --test overload -- --ignored`.

mod common;

use appsim::AdmissionPolicy;
use cluster::{run_fleet, FleetConfig, GovernorKind, RetryPolicy};
use experiments::figures::chaos::all_governors;
use experiments::Supervisor;
use simcore::fault::{FaultKind, FaultPlan, FaultScope};
use simcore::{SimDuration, SimTime};
use workload::AppKind;

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(v)
}

/// Re-derive both conservation identities (with the shed terms) from
/// the public summary fields.
fn assert_conserved(r: &cluster::FleetResult, label: &str) {
    assert_eq!(
        r.admitted,
        r.completed + r.shed + r.timed_out + r.in_flight_at_end,
        "{label}: request partition leaks"
    );
    assert_eq!(
        r.dispatched,
        r.attempts_completed + r.attempts_failed + r.suppressed + r.attempts_in_flight_at_end,
        "{label}: attempt partition leaks"
    );
    assert!(
        r.attempts_shed <= r.attempts_failed,
        "{label}: shed attempts must stay a sub-account of failed ones"
    );
    assert!(r.audit.is_balanced(), "{label}: roll-up unbalanced");
}

/// A fleet whose admission gates bite: a near-zero-depth static gate
/// on every server, a crash window forcing timeout retries, and no
/// hedging — so every duplicate-response path is off and anything
/// landing in `suppressed` could only be a misclassified shed.
fn forced_shed_cfg() -> FleetConfig {
    FleetConfig::new(2, AppKind::Memcached, 60_000.0, GovernorKind::Ondemand)
        .with_window(SimDuration::from_millis(20), SimDuration::from_millis(80))
        .with_seed(31)
        .with_admission(AdmissionPolicy::StaticDepth { limit: 1 })
        .with_hedge(None)
        .with_retry(RetryPolicy {
            timeout: SimDuration::from_micros(400),
            max_attempts: 3,
            backoff_base: SimDuration::from_micros(50),
            backoff_cap: SimDuration::from_micros(200),
        })
        .with_fault_plan(FaultPlan::new().with_seed(3).inject(
            FaultKind::ServerCrash,
            FaultScope::window(ms(40), ms(70)).on_core(1),
        ))
}

/// Regression: a retry that was admitted and then shed by the
/// server's admission gate must close its attempt as *failed* — it
/// must never land in `suppressed`, which is reserved for duplicate
/// responses that lost a hedge/retry race. With hedging off and a
/// shed-heavy schedule, `suppressed` stays exactly zero while the
/// shed sub-account runs hot.
#[test]
fn shed_retry_lands_in_failed_not_suppressed() {
    let r = run_fleet(forced_shed_cfg());
    assert!(r.retries > 0, "the crash window must force retries");
    assert!(
        r.attempts_shed > 0,
        "a depth-1 admission gate under 60k rps must shed"
    );
    assert_eq!(
        r.suppressed, 0,
        "with hedging off nothing races: a non-zero suppressed count \
         means a shed attempt was misclassified as a duplicate"
    );
    assert_conserved(&r, "forced-shed");
}

/// The full overload-control stack (sojourn admission, retry
/// budgets, breakers, brownout) stays deterministic for every
/// governor the harness knows: serial == `Supervisor::run_many`, and
/// conservation holds with the shed terms.
#[test]
fn all_governors_overload_fleet_serial_matches_parallel() {
    let governors = all_governors(AppKind::Memcached);
    assert_eq!(governors.len(), 13, "governor roster drifted");
    let small = |gov: GovernorKind| {
        FleetConfig::new(2, AppKind::Memcached, 10_000.0, gov)
            .with_window(SimDuration::from_millis(30), SimDuration::from_millis(90))
            .with_seed(11)
            .with_overload_control()
            .with_fault_plan(FaultPlan::new().with_seed(7).inject(
                FaultKind::ServerCrash,
                FaultScope::window(ms(50), ms(80)).on_core(1),
            ))
    };
    let configs: Vec<FleetConfig> = governors.iter().map(|&(_, gov)| small(gov)).collect();
    let parallel = Supervisor::new().run_many(configs.clone());
    for ((label, _), (cfg, par)) in governors.iter().zip(configs.into_iter().zip(&parallel)) {
        let serial = run_fleet(cfg);
        assert_eq!(
            serial, *par,
            "{label}: worker pool must match serial with breakers engaged"
        );
        assert_conserved(&serial, label);
        assert!(serial.completed > 0, "{label}: fleet served nothing");
    }
}

/// The metastable-failure dichotomy, pinned as a typed assertion AND
/// as a byte-exact golden fixture of the rendered `repro overload`
/// artifact. Four fleet cells near the saturation knee — minutes in
/// debug, ~70 s in release — hence `#[ignore]`; CI runs it in its
/// release lane.
#[test]
#[ignore = "4 near-knee fleet cells; run in release via CI (cargo test --release --test overload -- --ignored)"]
fn metastable_dichotomy_holds_and_matches_golden() {
    use experiments::figures::overload::{dichotomy, render};
    use experiments::Scale;
    let outcome = dichotomy(Scale::Quick, &Supervisor::new());
    outcome
        .check()
        .expect("overload control must recover inside the bound and its absence must not");
    let rendered = render(&outcome).to_string();
    common::assert_golden(
        "overload",
        &rendered,
        "cargo test --release --test overload -- --ignored",
    );
}
