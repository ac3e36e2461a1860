//! Telemetry-timeline determinism: every governor's timeline must be
//! byte-identical across repeats, and a thread-parallel sweep must
//! reproduce the serial one exactly — the CSV rendering is the
//! comparison surface because it is what artifacts and CI diff.

use experiments::{GovernorKind, RunConfig, RunResult, Scale};
use nmap::NmapConfig;
use simcore::{Gauge, SimDuration, TimelineConfig};
use workload::{AppKind, LoadSpec};

/// Every governor kind, same list the golden suite pins.
fn every_governor() -> Vec<GovernorKind> {
    vec![
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
    ]
}

fn cfg(gov: GovernorKind) -> RunConfig {
    RunConfig::new(
        AppKind::Memcached,
        LoadSpec::custom(40_000.0, SimDuration::from_millis(100), 0.4, 0.3),
        gov,
        Scale::Quick,
    )
    .with_seed(7)
}

fn timelines_csv(results: &[RunResult]) -> Vec<String> {
    results.iter().map(|r| r.timeline.to_csv()).collect()
}

#[test]
fn parallel_sweep_timelines_match_serial() {
    let configs: Vec<RunConfig> = every_governor().into_iter().map(cfg).collect();
    let serial: Vec<RunResult> = configs.iter().cloned().map(experiments::run).collect();
    let parallel = experiments::run_many(configs);
    for (s, p) in serial.iter().zip(&parallel) {
        assert!(!s.timeline.is_empty(), "{}: no timeline", s.governor);
        assert_eq!(
            s.timeline, p.timeline,
            "{}: serial and parallel timelines must be identical",
            s.governor
        );
    }
    assert_eq!(
        timelines_csv(&serial),
        timelines_csv(&parallel),
        "CSV renderings must be byte-identical"
    );
}

#[test]
fn same_seed_timelines_are_byte_identical() {
    let configs: Vec<RunConfig> = every_governor().into_iter().map(cfg).collect();
    let a = timelines_csv(&experiments::run_many(configs.clone()));
    let b = timelines_csv(&experiments::run_many(configs));
    assert_eq!(a, b, "same-seed timeline CSVs must reproduce exactly");
}

#[test]
fn timelines_stay_bounded_and_uniform() {
    for gov in every_governor() {
        let r = experiments::run(cfg(gov));
        let t = &r.timeline;
        assert!(!t.is_empty(), "{}: no timeline recorded", r.governor);
        assert!(t.rows() <= 512, "{}: cap exceeded", r.governor);
        assert_eq!(
            t.interval_ns,
            t.base_interval_ns << t.decimations,
            "{}: interval doubles once per decimation",
            r.governor
        );
        // Retained rows stay uniformly spaced at the final interval
        // even after decimation.
        for w in t.times_ns.windows(2) {
            assert_eq!(
                w[1] - w[0],
                t.interval_ns,
                "{}: rows must be uniformly spaced",
                r.governor
            );
        }
        // Gauges carry live signal, not zero padding.
        assert!(
            t.series_sum(Gauge::PowerMw).iter().any(|&v| v > 0),
            "{}: power series empty",
            r.governor
        );
        assert!(
            t.series_max(Gauge::UtilPermille).iter().any(|&v| v > 0),
            "{}: utilization series empty",
            r.governor
        );
    }
}

#[test]
fn disabling_the_sampler_leaves_the_run_unchanged() {
    let on = experiments::run(cfg(GovernorKind::Ondemand));
    let off = experiments::run(cfg(GovernorKind::Ondemand).with_timeline(TimelineConfig::OFF));
    assert!(!on.timeline.is_empty() && off.timeline.is_empty());
    // Sampling is read-only: the simulated trajectory must not move.
    assert_eq!(on.sent, off.sent);
    assert_eq!(on.received, off.received);
    assert_eq!(on.p99, off.p99);
    assert_eq!(on.energy_j.to_bits(), off.energy_j.to_bits());
    assert_eq!(on.dvfs_transitions, off.dvfs_transitions);
    assert_eq!(on.c6_entries, off.c6_entries);
}
