//! Golden-trace snapshots: quick-scale metrics per governor, pinned
//! as text fixtures under `tests/golden/`.
//!
//! Any change to event ordering, RNG streams, or model arithmetic
//! shows up here as a diff against the pinned run. The fixtures are
//! exact (floats are pinned by bit pattern), so they are
//! platform-pinned in the same sense the determinism suite is: the
//! same binary on the same target reproduces them bit-for-bit.
//!
//! To regenerate after an intentional model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

mod common;

use experiments::{GovernorKind, RunConfig, RunResult, Scale};
use nmap::NmapConfig;
use simcore::SimDuration;
use workload::{AppKind, LoadSpec};

/// Every governor kind, with a filesystem-safe slug.
fn every_governor() -> Vec<(&'static str, GovernorKind)> {
    vec![
        ("performance", GovernorKind::Performance),
        ("powersave", GovernorKind::Powersave),
        ("userspace7", GovernorKind::Userspace(7)),
        ("ondemand", GovernorKind::Ondemand),
        ("conservative", GovernorKind::Conservative),
        ("schedutil", GovernorKind::Schedutil),
        ("intel_powersave", GovernorKind::IntelPowersave),
        ("nmap_simpl", GovernorKind::NmapSimpl),
        ("nmap", GovernorKind::Nmap(NmapConfig::new(32, 1.0))),
        ("nmap_online", GovernorKind::NmapOnline),
        ("ncap", GovernorKind::Ncap(50_000.0)),
        ("ncap_menu", GovernorKind::NcapMenu(50_000.0)),
        ("parties", GovernorKind::Parties),
    ]
}

fn golden_load() -> LoadSpec {
    LoadSpec::custom(40_000.0, SimDuration::from_millis(100), 0.4, 0.3)
}

/// Renders the metrics a fixture pins. Floats carry both a readable
/// value and the exact bit pattern; the bits are what must match.
fn render(r: &RunResult) -> String {
    format!(
        "governor={}\n\
         sleep={}\n\
         sent={}\n\
         received={}\n\
         p50_ns={}\n\
         p99_ns={}\n\
         frac_above_slo={} bits={:#018x}\n\
         energy_j={} bits={:#018x}\n\
         rx_dropped={}\n\
         dvfs_transitions={}\n\
         c6_entries={}\n",
        r.governor,
        r.sleep,
        r.sent,
        r.received,
        r.p50.as_nanos(),
        r.p99.as_nanos(),
        r.frac_above_slo,
        r.frac_above_slo.to_bits(),
        r.energy_j,
        r.energy_j.to_bits(),
        r.rx_dropped,
        r.dvfs_transitions,
        r.c6_entries,
    )
}

#[test]
fn quick_scale_metrics_match_golden_fixtures() {
    let governors = every_governor();
    let configs: Vec<RunConfig> = governors
        .iter()
        .map(|&(_, g)| {
            RunConfig::new(AppKind::Memcached, golden_load(), g, Scale::Quick).with_seed(7)
        })
        .collect();
    let results = experiments::run_many(configs);

    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut failures = Vec::new();
    for ((slug, _), result) in governors.iter().zip(&results) {
        let rendered = render(result);
        let path = common::fixture_path(slug);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); regenerate with \
                 UPDATE_GOLDEN=1 cargo test --test golden",
                path.display()
            )
        });
        if rendered != expected {
            failures.push(format!(
                "{slug}: drift against {}\n--- expected\n{expected}--- actual\n{rendered}",
                path.display()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden snapshots drifted ({} of {}):\n{}",
        failures.len(),
        governors.len(),
        failures.join("\n")
    );
}

/// The `timeline` artifact (telemetry sparklines) is pinned
/// byte-for-byte: the sparkline columns are a pure function of the
/// sampled gauge series, so any drift in the sampler's cadence,
/// decimation, or the gauges' integer encodings shows up here.
#[test]
fn timeline_artifact_matches_golden_fixture() {
    assert_artifact_matches_golden("timeline");
}

/// The `breakdown` artifact (latency attribution + SLO watchdog) is
/// pinned byte-for-byte: stage shares are derived from every request's
/// exact integer decomposition, so any drift in event ordering or the
/// attribution cursor logic shows up here immediately.
#[test]
fn breakdown_artifact_matches_golden_fixture() {
    assert_artifact_matches_golden("breakdown");
}

fn assert_artifact_matches_golden(id: &str) {
    let reports = experiments::figures::generate(id, Scale::Quick);
    assert_eq!(reports.len(), 1);
    common::assert_golden(id, &reports[0].to_string(), "cargo test --test golden");
}

/// Every fixture under `tests/golden/` is pinned by some suite: the 13
/// per-governor snapshots above plus the six rendered artifacts. An
/// orphaned or misnamed fixture would otherwise go stale unnoticed.
#[test]
fn golden_directory_holds_exactly_the_pinned_fixtures() {
    let mut expected: Vec<String> = every_governor()
        .iter()
        .map(|(slug, _)| slug.to_string())
        .chain(
            [
                "breakdown",
                "chaos",
                "energy",
                "fleet",
                "overload",
                "timeline",
            ]
            .map(String::from),
        )
        .map(|name| format!("quick_{name}.txt"))
        .collect();
    expected.sort();
    let dir = common::golden_dir();
    let mut found: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    found.sort();
    assert_eq!(found, expected, "fixtures in {}", dir.display());
}
