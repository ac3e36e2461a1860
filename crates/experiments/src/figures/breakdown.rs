//! `breakdown` (beyond-paper artifact): per-request latency
//! attribution and the streaming SLO watchdog.
//!
//! Every request's end-to-end latency is decomposed into the eleven
//! pipeline stages of [`simcore::Stage`] (NIC ring wait, ITR delay,
//! IRQ dispatch, ksoftirqd scheduling, C-state wake, P-state stall,
//! app service time, …). The decomposition is *exact*: the
//! conservation ledger asserts that the attributed nanoseconds equal
//! the measured end-to-end nanoseconds for every single request, so
//! the stage shares below always sum to 100%.
//!
//! The second table reports the SLO watchdog: an online windowed-P99
//! estimator per core that flags violation episodes as they happen,
//! giving time-to-detect and time-to-recover per governor — the
//! operational view of §3's "where does ondemand lose the latency".

use crate::report::{self, FigureReport};
use crate::runner::{GovernorKind, RunConfig, RunResult, Scale};
use crate::supervisor::Supervisor;
use crate::thresholds;
use simcore::Stage;
use workload::{AppKind, LoadLevel, LoadSpec};

const GOV_LABELS: [&str; 4] = ["ondemand", "performance", "NCAP", "NMAP"];

fn governors(app: AppKind) -> [GovernorKind; 4] {
    [
        GovernorKind::Ondemand,
        GovernorKind::Performance,
        GovernorKind::Ncap(thresholds::ncap_threshold(app)),
        GovernorKind::Nmap(thresholds::nmap_config(app)),
    ]
}

/// The sweep: governor-major so rows group naturally, memcached only
/// (nginx shows the same shape with a longer service stage).
fn sweep(scale: Scale, sup: &Supervisor) -> Vec<RunResult> {
    let app = AppKind::Memcached;
    let mut configs = Vec::new();
    for gov in governors(app) {
        for level in LoadLevel::all() {
            configs.push(RunConfig::new(
                app,
                LoadSpec::preset(app, level),
                gov,
                scale,
            ));
        }
    }
    sup.run_many(configs)
}

fn index(gov: usize, level: usize) -> usize {
    gov * 3 + level
}

/// Formats nanoseconds as a watchdog-table duration cell.
fn fmt_ns(ns: u64) -> String {
    report::fmt_dur(simcore::SimDuration::from_nanos(ns))
}

/// Renders the artifact from a completed sweep (separated from
/// [`breakdown`] so the golden test can drive it at a fixed scale).
pub fn render(results: &[RunResult]) -> FigureReport {
    let mut body = String::new();
    body.push_str(
        "\n[memcached — share of end-to-end P99-relevant latency per stage; \
         stages sum to 100% by construction (ledger-checked)]\n",
    );
    let mut headers = vec!["gov/load"];
    headers.extend(Stage::ALL.iter().map(|s| s.label()));
    headers.push("e2e-mean");
    let mut rows = Vec::new();
    for (gi, gov) in GOV_LABELS.iter().enumerate() {
        for (li, level) in LoadLevel::all().iter().enumerate() {
            let r = &results[index(gi, li)];
            let mut row = vec![format!("{gov}/{level}")];
            for stage in Stage::ALL {
                row.push(report::fmt_pct(r.attrib.share(stage)));
            }
            let mean = r
                .attrib
                .e2e_total_ns
                .checked_div(r.attrib.requests)
                .unwrap_or(0);
            row.push(fmt_ns(mean));
            rows.push(row);
        }
    }
    body.push_str(&report::table(&headers, rows));

    body.push_str(
        "\n[SLO watchdog — online windowed P99 per core; an episode opens when \
         the window's P99 crosses the SLO and closes when it recovers]\n",
    );
    let wd_headers = [
        "gov/load",
        "episodes",
        "first-detect",
        "violated-for",
        "mean-detect",
        "mean-recover",
        "open?",
    ];
    let mut wd_rows = Vec::new();
    for (gi, gov) in GOV_LABELS.iter().enumerate() {
        for (li, level) in LoadLevel::all().iter().enumerate() {
            let r = &results[index(gi, li)];
            let w = &r.watchdog;
            let first = if w.first_detect_ns == u64::MAX {
                "-".to_string()
            } else {
                fmt_ns(w.first_detect_ns)
            };
            wd_rows.push(vec![
                format!("{gov}/{level}"),
                w.episodes.to_string(),
                first,
                fmt_ns(w.total_violation_ns),
                fmt_ns(w.mean_detect_ns),
                fmt_ns(w.mean_recover_ns),
                if w.open_episode { "yes" } else { "no" }.to_string(),
            ]);
        }
    }
    body.push_str(&report::table(&wd_headers, wd_rows));

    body.push_str(
        "\nPaper shape (§3): at low load ondemand's under-clocking shows up \
         directly as P-state stall and C-state wake; at medium/high load the \
         slow cores fall behind the arrival rate, so the loss migrates into \
         ksoftirqd/ring residency and app-queue wait — the paper's core \
         mechanism. performance erases the DVFS stages at full power cost. \
         The watchdog gives the operational view: ondemand opens repeated \
         violation episodes with tens-of-millisecond recovery times, while \
         NCAP and NMAP stay clean at every load.\n",
    );
    FigureReport::new(
        "breakdown",
        "Per-request latency attribution and SLO watchdog",
        body,
    )
}

/// Builds the artifact: 4 governors × 3 loads on memcached.
pub fn breakdown(scale: Scale, sup: &Supervisor) -> FigureReport {
    render(&sweep(scale, sup))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_has_all_cells() {
        let fig = breakdown(Scale::Quick, &Supervisor::new());
        let data_rows = fig
            .body
            .lines()
            .filter(|l| GOV_LABELS.iter().any(|g| l.starts_with(&format!("{g}/"))))
            .count();
        // 12 cells in the share table + 12 in the watchdog table.
        assert_eq!(data_rows, 24);
        assert!(fig.body.contains("SLO watchdog"));
    }

    #[test]
    fn shares_sum_to_one_when_attributed() {
        let results = sweep(Scale::Quick, &Supervisor::new());
        for r in &results {
            assert!(r.attrib.requests > 0, "no attributed requests");
            assert_eq!(r.attrib.mismatches, 0, "per-request stage-sum mismatch");
            let total: f64 = Stage::ALL.iter().map(|&s| r.attrib.share(s)).sum();
            assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        }
    }
}
