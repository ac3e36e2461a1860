//! Fig 16 (§6.3): a varying-load memcached workload (the load level
//! switches randomly among low/medium/high every 500 ms) comparing
//! NMAP against the long-term feedback baseline Parties. NMAP needs
//! no re-profiling as the load moves; Parties reacts only every
//! 500 ms and misses the bursts.

use crate::report::{self, FigureReport};
use crate::runner::{run_with_testbed, GovernorKind, RunConfig, RunResult, Scale};
use crate::thresholds;
use appsim::TestbedEvent;
use simcore::{RngStream, SimDuration, SimTime};
use workload::{AppKind, LoadLevel, LoadSpec};

fn varying_run(governor: GovernorKind, scale: Scale, seed: u64) -> RunResult {
    let cfg = RunConfig {
        warmup: SimDuration::from_millis(200),
        duration: match scale {
            Scale::Quick => SimDuration::from_millis(2_500),
            Scale::Full => SimDuration::from_millis(5_000),
        },
        ..RunConfig::new(
            AppKind::Memcached,
            LoadSpec::preset(AppKind::Memcached, LoadLevel::Medium),
            governor,
            scale,
        )
    }
    .with_seed(seed)
    .with_traces();
    let total = cfg.warmup + cfg.duration;
    let (result, _tb) = run_with_testbed(cfg, move |_tb, sim| {
        // Schedule the load switches: every 500 ms pick one of the
        // three levels at random (same derivation for every governor).
        let mut rng = RngStream::derive(seed, "load-switch", 0);
        let mut t = SimDuration::from_millis(500);
        while simcore::SimTime::ZERO + t < simcore::SimTime::ZERO + total {
            let level = match rng.below(3) {
                0 => LoadLevel::Low,
                1 => LoadLevel::Medium,
                _ => LoadLevel::High,
            };
            let spec = LoadSpec::preset(AppKind::Memcached, level);
            sim.schedule_at(simcore::SimTime::ZERO + t, TestbedEvent::SwitchLoad(spec));
            t += SimDuration::from_millis(500);
        }
    });
    result
}

/// Interprets the P-state log as a step function (each state holds
/// until the next change) and samples it at `at`. Returns `default`
/// before the first change.
fn step_value_at(points: &[(SimTime, u8)], at: SimTime, default: f64) -> f64 {
    let mut current = default;
    for &(t, v) in points {
        if t <= at {
            current = f64::from(v);
        } else {
            break;
        }
    }
    current
}

/// Time-weighted average of the P-state step function over
/// `[start, end)`, starting from `initial` before the first change.
///
/// # Panics
///
/// Panics if `end <= start`.
fn step_time_average(points: &[(SimTime, u8)], start: SimTime, end: SimTime, initial: f64) -> f64 {
    assert!(end > start, "window must be positive");
    let mut acc = 0.0;
    let mut cur_t = start;
    let mut cur_v = step_value_at(points, start, initial);
    for &(t, v) in points {
        if t <= start {
            continue;
        }
        if t >= end {
            break;
        }
        acc += cur_v * (t - cur_t).as_secs_f64();
        cur_t = t;
        cur_v = f64::from(v);
    }
    acc += cur_v * (end - cur_t).as_secs_f64();
    acc / (end - start).as_secs_f64()
}

/// Fig 16: per-request latency and P-state behaviour under the
/// varying load, NMAP vs Parties.
pub fn fig16(scale: Scale) -> FigureReport {
    let seed = 42;
    let nmap = varying_run(
        GovernorKind::Nmap(thresholds::nmap_config(AppKind::Memcached)),
        scale,
        seed,
    );
    let parties = varying_run(GovernorKind::Parties, scale, seed);
    let mut body = String::new();
    let mut rows = Vec::new();
    for r in [&nmap, &parties] {
        let t = r
            .traces
            .as_ref()
            .expect("trace-collecting runs always carry traces");
        // P-state residency summary for core 0 (time-weighted).
        let avg_p = step_time_average(&t.pstates_core0, t.measure_start, t.measure_end, 15.0);
        rows.push(vec![
            r.governor.clone(),
            report::fmt_dur(r.p99),
            report::fmt_pct(r.frac_above_slo),
            format!("P{avg_p:.1}"),
            r.dvfs_transitions.to_string(),
        ]);
    }
    body.push_str(&report::table(
        &[
            "governor",
            "p99",
            "over_slo",
            "avg_pstate(core0)",
            "dvfs_transitions",
        ],
        rows,
    ));

    // A 150 ms excerpt of the P-state trace for each governor.
    for r in [&nmap, &parties] {
        let t = r
            .traces
            .as_ref()
            .expect("trace-collecting runs always carry traces");
        body.push_str(&format!(
            "\nP-state changes, {} (first 150 ms):\n",
            r.governor
        ));
        let mut shown = 0;
        for &(tt, p) in &t.pstates_core0 {
            let off = tt.saturating_since(t.measure_start);
            if off < SimDuration::from_millis(150) && shown < 20 {
                body.push_str(&format!("  {:>9} -> P{}\n", report::fmt_dur(off), p));
                shown += 1;
            }
        }
        if shown == 0 {
            body.push_str("  (no change — the governor held its state)\n");
        }
    }
    body.push_str(
        "\nPaper shape: NMAP keeps violations under ~0.2% without re-tuning as the \
         load moves; Parties, deciding every 500 ms on observed slack, under-provisions \
         bursts (their testbed: 26.62% of requests over the SLO).\n",
    );
    FigureReport::new("fig16", "Varying load: NMAP vs Parties (memcached)", body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn step_sampling() {
        let log = [(ms(2), 10), (ms(4), 20)];
        assert_eq!(step_value_at(&log, ms(1), 0.0), 0.0);
        assert_eq!(step_value_at(&log, ms(2), 0.0), 10.0);
        assert_eq!(step_value_at(&log, ms(3), 0.0), 10.0);
        assert_eq!(step_value_at(&log, ms(9), 0.0), 20.0);
    }

    #[test]
    fn step_time_average_weights_by_holding_time() {
        // value 0 on [0,2), 10 on [2,4), 20 on [4,6) → avg over [0,6) = (0*2+10*2+20*2)/6 = 10
        let log = [(ms(2), 10), (ms(4), 20)];
        let avg = step_time_average(&log, ms(0), ms(6), 0.0);
        assert!((avg - 10.0).abs() < 1e-9);
    }

    #[test]
    fn step_average_with_no_points_is_initial() {
        assert!((step_time_average(&[], ms(0), ms(5), 7.0) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn nmap_beats_parties_under_varying_load() {
        let rep = fig16(Scale::Quick);
        let grab = |name: &str| -> f64 {
            rep.body
                .lines()
                .find(|l| l.starts_with(name))
                .map(|l| {
                    l.split_whitespace()
                        .nth(2)
                        .unwrap()
                        .trim_end_matches('%')
                        .parse()
                        .unwrap()
                })
                .expect("row")
        };
        let nmap_viol = grab("NMAP");
        let parties_viol = grab("Parties");
        assert!(
            parties_viol > nmap_viol,
            "Parties ({parties_viol}%) must violate more than NMAP ({nmap_viol}%)"
        );
        assert!(nmap_viol < 2.0, "NMAP must stay near-SLO ({nmap_viol}%)");
        assert!(
            parties_viol > 5.0,
            "Parties must miss bursts ({parties_viol}%)"
        );
    }
}
