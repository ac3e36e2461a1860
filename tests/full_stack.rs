//! Cross-crate integration tests: the full testbed driven end-to-end
//! under every governor and sleep policy, checking the invariants the
//! paper's evaluation rests on.

use appsim::{AppModel, Testbed, TestbedConfig};
use cpusim::{CState, PState, ProcessorProfile};
use governors::*;
use nmap::{NmapConfig, NmapGovernor, NmapSimpl};
use simcore::{SimDuration, SimTime, Simulator};
use workload::{AppKind, LoadLevel, LoadSpec};

fn small_load() -> LoadSpec {
    LoadSpec::custom(40_000.0, SimDuration::from_millis(100), 0.4, 0.3)
}

fn build(
    governor: Box<dyn PStateGovernor>,
    sleep: Box<dyn SleepPolicy>,
) -> (Simulator<Testbed>, Testbed) {
    let cfg = TestbedConfig::new(AppModel::memcached(), small_load()).with_seed(99);
    let mut sim = Simulator::new();
    let tb = Testbed::new(cfg, governor, sleep, &mut sim);
    (sim, tb)
}

fn every_governor() -> Vec<Box<dyn PStateGovernor>> {
    let table = ProcessorProfile::xeon_gold_6134().pstates;
    vec![
        Box::new(Performance::new()),
        Box::new(Powersave::new(table.slowest())),
        Box::new(Userspace::new(PState::new(7))),
        Box::new(Ondemand::new(table.clone(), 8)),
        Box::new(Conservative::new(table.clone(), 8)),
        Box::new(IntelPowersave::new(table.clone(), 8)),
        Box::new(NmapSimpl::new(table.clone(), 8)),
        Box::new(NmapGovernor::new(
            table.clone(),
            8,
            NmapConfig::new(32, 1.0),
        )),
        Box::new(Ncap::new(
            table.clone(),
            8,
            NcapConfig::with_threshold(50_000.0),
        )),
        Box::new(Parties::new(
            table,
            PartiesConfig::new(SimDuration::from_millis(1)),
        )),
    ]
}

#[test]
fn every_governor_serves_traffic_end_to_end() {
    for governor in every_governor() {
        let name = governor.name();
        let (mut sim, mut tb) = build(governor, Box::new(MenuPolicy::new(8)));
        sim.run_until(&mut tb, SimTime::from_millis(400));
        assert!(
            tb.client.received() as f64 >= 0.9 * tb.client.sent() as f64,
            "{name}: only {}/{} responses",
            tb.client.received(),
            tb.client.sent()
        );
        assert!(
            tb.client.received() <= tb.client.sent(),
            "{name}: more responses than requests"
        );
    }
}

#[test]
fn every_sleep_policy_works_with_ondemand() {
    let table = ProcessorProfile::xeon_gold_6134().pstates;
    let policies: Vec<Box<dyn SleepPolicy>> = vec![
        Box::new(MenuPolicy::new(8)),
        Box::new(DisablePolicy::new()),
        Box::new(C6OnlyPolicy::new()),
    ];
    for sleep in policies {
        let name = sleep.name();
        let (mut sim, mut tb) = build(Box::new(Ondemand::new(table.clone(), 8)), sleep);
        sim.run_until(&mut tb, SimTime::from_millis(400));
        assert!(tb.client.received() > 0, "{name}: no traffic served");
        let c6: u64 = tb.processor.cores().iter().map(|c| c.c6_entries()).sum();
        match name.as_str() {
            "disable" => assert_eq!(c6, 0, "disable must never enter CC6"),
            "c6only" => assert!(c6 > 0, "c6only must enter CC6"),
            _ => {}
        }
    }
}

#[test]
fn energy_ordering_performance_vs_powersave() {
    let table = ProcessorProfile::xeon_gold_6134().pstates;
    let run = |gov: Box<dyn PStateGovernor>| -> (f64, SimDuration) {
        let (mut sim, mut tb) = build(gov, Box::new(MenuPolicy::new(8)));
        sim.run_until(&mut tb, SimTime::from_millis(100));
        tb.begin_measurement(sim.now());
        sim.run_until(&mut tb, SimTime::from_millis(600));
        let e = tb.measured_energy(sim.now());
        let p99 = tb.client.latencies_mut().p99();
        (e, p99)
    };
    let (e_perf, l_perf) = run(Box::new(Performance::new()));
    let (e_save, l_save) = run(Box::new(Powersave::new(table.slowest())));
    assert!(e_save < e_perf, "powersave must use less energy");
    assert!(l_save >= l_perf, "powersave cannot be faster");
}

#[test]
fn conservation_ledger_balances_for_every_governor_and_sleep_policy() {
    // The tentpole audit: for every governor × sleep policy, run the
    // full stack and require every conservation identity — packets,
    // energy (within 1e-6 relative), latency samples — to balance,
    // both mid-flight and with the ledgers still carrying in-flight
    // work.
    let sleeps: [fn() -> Box<dyn SleepPolicy>; 3] = [
        || Box::new(MenuPolicy::new(8)),
        || Box::new(DisablePolicy::new()),
        || Box::new(C6OnlyPolicy::new()),
    ];
    for make_sleep in sleeps {
        for governor in every_governor() {
            let gname = governor.name();
            let (mut sim, mut tb) = build(governor, make_sleep());
            let sname = tb.sleep.name();
            sim.run_until(&mut tb, SimTime::from_millis(150));
            tb.begin_measurement(sim.now());
            sim.run_until(&mut tb, SimTime::from_millis(400));
            let report = tb.audit_report(sim.now()).expect("audit report");
            let violations = report.violations();
            assert!(violations.is_empty(), "{gname}/{sname}: {violations:?}");
        }
    }
}

#[test]
fn conservation_no_phantom_packets() {
    let (mut sim, mut tb) = build(Box::new(Performance::new()), Box::new(MenuPolicy::new(8)));
    sim.run_until(&mut tb, SimTime::from_millis(500));
    let received = tb.client.received();
    let sent = tb.client.sent();
    let dropped = tb.nic.total_rx_dropped();
    let backlog = tb.total_backlog() as u64;
    // Every request is either answered, dropped, queued, or in flight.
    assert!(received + dropped + backlog <= sent);
    // NAPI counters cover at least one Rx packet per delivered request.
    let napi_total: u64 = tb
        .napi
        .iter()
        .map(|n| n.total_interrupt_packets() + n.total_polling_packets())
        .sum();
    assert!(
        napi_total >= received,
        "NAPI saw {napi_total} < {received} responses"
    );
}

#[test]
fn deterministic_with_seed_distinct_across_seeds() {
    let run = |seed: u64| -> (u64, u64) {
        let cfg = TestbedConfig::new(AppModel::memcached(), small_load()).with_seed(seed);
        let mut sim = Simulator::new();
        let mut tb = Testbed::new(
            cfg,
            Box::new(Performance::new()),
            Box::new(MenuPolicy::new(8)),
            &mut sim,
        );
        sim.run_until(&mut tb, SimTime::from_millis(300));
        (tb.client.sent(), tb.client.latencies_mut().quantile(0.99))
    };
    assert_eq!(run(1), run(1), "same seed must replay identically");
    assert_ne!(run(1), run(2), "different seeds must differ");
}

#[test]
fn run_many_matches_serial_for_every_governor_at_quick_scale() {
    // Determinism across execution strategies: for every governor
    // kind, one serial `run` and the same config dispatched through
    // the thread-pool `run_many` must produce byte-identical results.
    use experiments::{GovernorKind, RunConfig, Scale};
    let governors = vec![
        GovernorKind::Performance,
        GovernorKind::Powersave,
        GovernorKind::Userspace(7),
        GovernorKind::Ondemand,
        GovernorKind::Conservative,
        GovernorKind::Schedutil,
        GovernorKind::IntelPowersave,
        GovernorKind::NmapSimpl,
        GovernorKind::Nmap(NmapConfig::new(32, 1.0)),
        GovernorKind::NmapOnline,
        GovernorKind::Ncap(50_000.0),
        GovernorKind::NcapMenu(50_000.0),
        GovernorKind::Parties,
    ];
    let configs: Vec<RunConfig> = governors
        .iter()
        .map(|&g| RunConfig::new(AppKind::Memcached, small_load(), g, Scale::Quick).with_seed(2024))
        .collect();
    let serial: Vec<_> = configs.iter().cloned().map(experiments::run).collect();
    let parallel = experiments::run_many(configs);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s, p, "{}: parallel run diverged from serial", s.governor);
    }
}

#[test]
fn nmap_full_pipeline_boosts_and_relaxes() {
    let table = ProcessorProfile::xeon_gold_6134().pstates;
    let gov = NmapGovernor::new(table, 8, NmapConfig::new(16, 0.5));
    let load = LoadSpec::preset(AppKind::Memcached, LoadLevel::High);
    // Recording traces keeps the P-state log entries read below.
    let cfg = TestbedConfig::new(AppModel::memcached(), load)
        .with_seed(5)
        .with_trace_capacity(1024);
    let mut sim = Simulator::new();
    let mut tb = Testbed::new(cfg, Box::new(gov), Box::new(MenuPolicy::new(8)), &mut sim);
    sim.run_until(&mut tb, SimTime::from_millis(500));
    // During bursts cores must have hit P0; between bursts they must
    // have come back down — so the P-state log shows both directions.
    let log = tb.processor.core(cpusim::CoreId(0)).pstate_log();
    let states: Vec<PState> = log.iter().map(|&(_, p)| p).collect();
    assert!(states.contains(&PState::P0), "never boosted");
    assert!(
        states.iter().any(|p| p.index() >= 8),
        "never relaxed back below the midpoint"
    );
    // And the cores slept between bursts.
    assert!(tb
        .processor
        .core(cpusim::CoreId(0))
        .cstate_log()
        .iter()
        .any(|&(_, s)| s == CState::C6));
}

#[test]
fn nginx_app_profile_flows_end_to_end() {
    let cfg = TestbedConfig::new(
        AppModel::nginx(),
        LoadSpec::custom(8_000.0, SimDuration::from_millis(100), 0.5, 0.3),
    )
    .with_seed(3);
    let mut sim = Simulator::new();
    let mut tb = Testbed::new(
        cfg,
        Box::new(Performance::new()),
        Box::new(MenuPolicy::new(8)),
        &mut sim,
    );
    sim.run_until(&mut tb, SimTime::from_millis(400));
    assert!(tb.client.received() > 1_000);
    // nginx generates far more NAPI descriptors than requests
    // (multi-segment responses + ACK clock).
    let napi_total: u64 = tb
        .napi
        .iter()
        .map(|n| n.total_interrupt_packets() + n.total_polling_packets())
        .sum();
    assert!(
        napi_total > 5 * tb.client.received(),
        "nginx rx packet multiplier missing: {napi_total} vs {}",
        tb.client.received()
    );
}

#[test]
fn chip_wide_scope_works_end_to_end() {
    let cfg = TestbedConfig::new(AppModel::memcached(), small_load())
        .with_seed(17)
        .with_scope(cpusim::DvfsScope::ChipWide);
    let mut sim = Simulator::new();
    let table = ProcessorProfile::xeon_gold_6134().pstates;
    let mut tb = Testbed::new(
        cfg,
        Box::new(Ondemand::new(table, 8)),
        Box::new(MenuPolicy::new(8)),
        &mut sim,
    );
    sim.run_until(&mut tb, SimTime::from_millis(400));
    assert!(tb.client.received() > 0);
    // All cores share one domain: their P-states agree at any time.
    let p0 = tb.processor.core(cpusim::CoreId(0)).pstate();
    for c in tb.processor.cores() {
        assert_eq!(c.pstate(), p0, "chip-wide cores diverged");
    }
}
