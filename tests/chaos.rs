//! Chaos soak: every governor under the three composed fault
//! schedules (`experiments::figures::chaos`), asserting the
//! robustness contract end to end:
//!
//! * every run's conservation audit balances (asserted inside
//!   [`experiments::run`]), with wire drops
//!   explicitly accounted in the `PacketsFaultDropped` ledger;
//! * no governor wedges into silent request loss — everything sent is
//!   delivered, explicitly dropped, or still in flight at the cut;
//! * NMAP's graceful degradation engages under NAPI-signal starvation
//!   and re-engages hysteretically when signals resume;
//! * the fault-onset → SLO-recovery join covers every watchdog
//!   episode; and
//! * the whole soak is deterministic: the same seed and plan
//!   reproduce bit-identically, serial or through `run_many`.
//!
//! The rendered artifact is pinned as `tests/golden/quick_chaos.txt`
//! (regenerate with `UPDATE_GOLDEN=1 cargo test --test chaos`).

mod common;

use experiments::figures::chaos::{all_governors, plans, render, sweep};
use experiments::{run, RunResult, Scale, Supervisor};
use workload::AppKind;

/// One shared sweep: 3 schedules × 13 governors. Everything below
/// asserts on (or re-runs cells of) this single result set.
fn soak() -> &'static [RunResult] {
    use std::sync::OnceLock;
    static SOAK: OnceLock<Vec<RunResult>> = OnceLock::new();
    SOAK.get_or_init(|| sweep(Scale::Quick, &Supervisor::new()))
}

fn cells() -> Vec<(&'static str, &'static str, &'static RunResult)> {
    let governors = all_governors(AppKind::Memcached);
    let mut out = Vec::new();
    for (pi, (plan_label, _)) in plans().iter().enumerate() {
        for (gi, (gov_label, _)) in governors.iter().enumerate() {
            out.push((*plan_label, *gov_label, &soak()[pi * governors.len() + gi]));
        }
    }
    out
}

/// Faults actually fire in every cell, and no governor loses a request
/// to a wedged state: sent = received + explicitly-accounted drops +
/// a small in-flight tail at the simulation cut.
#[test]
fn no_silent_request_loss_under_any_schedule() {
    for (plan, gov, r) in cells() {
        assert!(
            r.faults.total() > 0,
            "{plan}/{gov}: schedule injected nothing"
        );
        assert!(r.received > 0, "{plan}/{gov}: no responses at all");
        let accounted = r.received + r.faults.wire_dropped();
        assert!(
            accounted <= r.sent,
            "{plan}/{gov}: delivered + dropped exceeds sent"
        );
        // Unaccounted = sent − received − wire-fault drops. What
        // remains is bounded by NIC ring drops (≤ rx_dropped packets)
        // plus the requests still in flight when the run was cut.
        let unaccounted = r.sent - accounted;
        let in_flight_allowance = 64;
        assert!(
            unaccounted <= r.rx_dropped + in_flight_allowance,
            "{plan}/{gov}: {unaccounted} requests vanished (sent {}, received {}, \
             fault-dropped {}, nic-dropped {})",
            r.sent,
            r.received,
            r.faults.wire_dropped(),
            r.rx_dropped,
        );
    }
}

/// The recovery join is total: every watchdog episode is either
/// attributed to a fault window or explicitly unattributed.
#[test]
fn recovery_join_covers_every_episode() {
    for (plan, gov, r) in cells() {
        let rec = &r.fault_recovery;
        assert_eq!(
            rec.attributed + rec.unattributed,
            u64::from(r.watchdog.episodes),
            "{plan}/{gov}: recovery join lost episodes"
        );
        assert_eq!(
            rec.recovered + rec.unrecovered,
            rec.attributed,
            "{plan}/{gov}: attributed episodes must split recovered/unrecovered"
        );
        if rec.recovered > 0 {
            assert!(rec.max_recovery_ns >= rec.mean_recovery_ns);
            assert!(rec.mean_recovery_ns > 0);
        }
    }
}

/// The kernel schedule wedges the notification path: 100 ms of total
/// signal starvation, then 180 ms of stuck stale replays claiming
/// mid-burst polling while cores idle. NMAP's graceful-degradation
/// watchdog must engage its utilization fallback under the wedge and
/// re-engage NAPI-driven operation once real signals resume (the last
/// window closes 380 ms before the run ends).
#[test]
fn nmap_degrades_and_recovers_under_signal_starvation() {
    for (plan, gov, r) in cells() {
        if plan != "kernel" {
            continue;
        }
        if gov == "nmap" || gov == "nmap_online" {
            assert!(
                r.degradation.degradations > 0,
                "{gov}: signal starvation must engage the fallback"
            );
            assert!(
                r.degradation.recoveries > 0,
                "{gov}: fallback must hand back to NAPI mode after the window"
            );
            assert_eq!(
                r.degradation.degraded_cores, 0,
                "{gov}: no core may still be degraded at the end of the run"
            );
        } else {
            assert_eq!(
                r.degradation.degradations, 0,
                "{gov}: only NMAP variants have a degradation machine"
            );
        }
    }
}

/// Same seed + same plan ⇒ byte-identical, and `run_many` (which the
/// sweep uses) matches serial `run` exactly — the fault plan travels
/// with the config into worker threads.
#[test]
fn chaos_runs_are_deterministic_serial_and_parallel() {
    use experiments::{GovernorKind, RunConfig};
    use simcore::SimDuration;
    use workload::LoadSpec;
    let load = LoadSpec::custom(30_000.0, SimDuration::from_millis(100), 0.4, 0.3);
    for (pi, gov, gov_label) in [
        (1usize, GovernorKind::Ondemand, "ondemand"),
        (0usize, GovernorKind::Performance, "performance"),
    ] {
        let plan = plans().swap_remove(pi).1;
        let cfg = RunConfig::new(AppKind::Memcached, load, gov, Scale::Quick)
            .with_seed(7)
            .with_fault_plan(plan);
        let serial = run(cfg.clone());
        let again = run(cfg);
        assert_eq!(
            serial, again,
            "{gov_label}: same seed + same plan must reproduce bit-identically"
        );
        let governors = all_governors(AppKind::Memcached);
        let gi = governors
            .iter()
            .position(|(label, _)| *label == gov_label)
            .unwrap();
        assert_eq!(
            soak()[pi * governors.len() + gi],
            serial,
            "{gov_label}: run_many sweep cell must match serial run"
        );
    }
}

/// The rendered artifact is pinned byte-for-byte, like the per-governor
/// golden fixtures: any drift in fault draws, event ordering, or the
/// recovery join shows up here immediately.
#[test]
fn chaos_artifact_matches_golden_fixture() {
    let rendered = render(soak()).to_string();
    common::assert_golden("chaos", &rendered, "cargo test --test chaos");
}
