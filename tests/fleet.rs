//! Fleet-tier integration: the cluster simulation's robustness
//! contract end to end.
//!
//! * determinism — every governor's fleet reproduces bit-identically
//!   on re-run, and `Supervisor::run_many` (fleets in parallel, each
//!   one's servers advanced inline) matches `run_fleet` (one fleet, its
//!   servers advanced on the fleet's worker pool) exactly;
//! * zero silent loss — under a server-crash schedule every admitted
//!   request is completed, shed, timed out, or accounted in flight, and
//!   every attempt is completed, crash-failed, suppressed, or
//!   outstanding (the conservation roll-up inside the run already
//!   asserts this; the test re-derives it from the summary fields);
//! * failover-bounded recovery — crashes eject the server from the
//!   LB view, surviving servers absorb the failed-over flows, and
//!   the crashed server is readmitted and serving again by the end.

mod common;

use cluster::{run_fleet, FleetConfig, GovernorKind};
use experiments::figures::chaos::all_governors;
use experiments::Supervisor;
use simcore::SimDuration;
use workload::AppKind;

fn small(governor: GovernorKind) -> FleetConfig {
    FleetConfig::new(2, AppKind::Memcached, 10_000.0, governor)
        .with_window(SimDuration::from_millis(30), SimDuration::from_millis(90))
        .with_seed(11)
}

/// Re-derive both conservation identities from the public summary
/// fields (the run itself enforces them via `AuditReport`, but a
/// regression that miscounts *both* sides consistently would slip
/// past that — the summary cross-check pins the partition).
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
    assert!(r.audit.is_balanced(), "{label}: roll-up unbalanced");
}

/// Every governor the single-box harness knows also runs as a fleet,
/// deterministically: serial == serial rerun == `Supervisor::run_many`.
#[test]
fn all_governors_fleet_serial_matches_parallel() {
    let governors = all_governors(AppKind::Memcached);
    assert_eq!(governors.len(), 13, "governor roster drifted");
    let configs: Vec<FleetConfig> = governors.iter().map(|&(_, gov)| small(gov)).collect();
    let parallel = Supervisor::new().run_many(configs.clone());
    for ((label, _), (cfg, par)) in governors.iter().zip(configs.into_iter().zip(&parallel)) {
        let serial = run_fleet(cfg.clone());
        let again = run_fleet(cfg);
        assert_eq!(
            serial, again,
            "{label}: same seed must reproduce bit-identically"
        );
        assert_eq!(serial, *par, "{label}: worker pool must match serial");
        assert_conserved(&serial, label);
        assert!(serial.completed > 0, "{label}: fleet served nothing");
    }
}

mod crashes {
    use super::*;
    use cluster::HedgePolicy;
    use simcore::fault::{FaultKind, FaultPlan, FaultScope};
    use simcore::SimTime;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// Server 1 of 4 is down for [60, 160) ms of a 50 + 250 ms run:
    /// long enough for the health checker (5 ms probes, 3-strike
    /// ejection) to eject it, and with 140 ms of calm tail for the
    /// 2-strike readmission and a return to service.
    fn crash_cfg() -> FleetConfig {
        let plan = FaultPlan::new().with_seed(3).inject(
            FaultKind::ServerCrash,
            FaultScope::window(ms(60), ms(160)).on_core(1),
        );
        FleetConfig::new(4, AppKind::Memcached, 40_000.0, GovernorKind::Ondemand)
            .with_window(SimDuration::from_millis(50), SimDuration::from_millis(250))
            .with_seed(23)
            .with_hedge(Some(HedgePolicy {
                quantile: 0.95,
                floor: SimDuration::from_micros(200),
            }))
            .with_fault_plan(plan)
    }

    /// The crash drops real in-flight attempts, yet nothing goes
    /// missing: both partitions stay exact and the ledger balances.
    #[test]
    fn zero_silent_loss_under_server_crash() {
        let r = run_fleet(crash_cfg());
        assert_conserved(&r, "crash");
        assert_eq!(r.faults.server_crashes, 1, "crash boundary must fire");
        assert_eq!(r.faults.server_recoveries, 1, "recovery boundary must fire");
        assert!(
            r.attempts_failed > 0,
            "a 100 ms crash at 10 kRPS/server must catch attempts in flight"
        );
        assert!(
            r.servers[1].crashes == 1,
            "the crash must land on the scheduled server"
        );
        // Silent loss would show up as admitted requests missing from
        // every terminal bucket; the identity above rules it out, and
        // the fleet must still have closed nearly everything.
        assert!(r.completed > 0);
        assert!(
            r.availability > 0.98,
            "retry + failover must keep availability high, got {}",
            r.availability
        );
    }

    /// Failover is bounded and recovery is complete: the LB ejects
    /// the dead server, survivors absorb its flows, and by the end
    /// the server is readmitted and winning requests again.
    #[test]
    fn failover_bounded_recovery() {
        let r = run_fleet(crash_cfg());
        assert!(
            r.ejections >= 1,
            "health checker must eject the dead server"
        );
        assert!(
            r.readmissions >= 1,
            "health checker must readmit after recovery"
        );
        assert!(
            !r.servers.iter().any(|s| s.ejected_at_end),
            "no server may still be ejected 140 ms after recovery"
        );
        assert!(
            r.failovers > 0,
            "flows steered at the dead server must fail over"
        );
        // Bounded: retries are capped at max_attempts per request, so
        // the retry total can't exceed (max_attempts - 1) x admitted.
        let cap = u64::from(crash_cfg().retry.max_attempts - 1) * r.admitted;
        assert!(r.retries <= cap, "retry storm: {} > {cap}", r.retries);
        // Every server — including the crashed one — ends the run
        // having won requests: readmission restored real service.
        for (i, s) in r.servers.iter().enumerate() {
            assert!(s.won > 0, "server {i} never served after recovery");
        }
        // And the crash is visible in the metrics the ops story
        // depends on: timeouts stayed rare relative to admissions.
        assert!(r.timed_out * 50 <= r.admitted, "timeout rate exploded");
    }

    /// The crash schedule itself is deterministic through the worker
    /// pool — the plan travels with the config into worker threads.
    /// (The same config twice: a supervisor would serve the second
    /// copy from its table, so this fans out without one.)
    #[test]
    fn crash_fleet_deterministic_serial_and_parallel() {
        let serial = run_fleet(crash_cfg());
        let many = simcore::par::map_ordered(vec![crash_cfg(), crash_cfg()], run_fleet);
        assert_eq!(many[0], serial, "parallel fleets must match serial");
        assert_eq!(many[1], serial);
    }
}

/// The rendered `repro fleet` artifact is pinned byte-for-byte, like
/// the chaos and energy fixtures: any drift in steering draws, hedge
/// delays, health transitions, or the conservation roll-up shows up
/// here immediately. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test fleet`.
#[test]
fn fleet_artifact_matches_golden_fixture() {
    use experiments::figures::fleet::{render, sweep};
    use experiments::Scale;
    let rendered = render(&sweep(Scale::Quick, &Supervisor::new())).to_string();
    common::assert_golden("fleet", &rendered, "cargo test --test fleet");
}
