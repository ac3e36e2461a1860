//! Watch a run unfold: the telemetry timeline of one simulation cell
//! printed as CSV plus terminal sparklines — a miniature of the
//! `timeline` repro artifact. The sampler reads every core's gauges
//! (utilization, P-state, NAPI mode, queue depths, online P99, power)
//! on a fixed sim-time cadence, decimating to stay within a bounded
//! buffer, without perturbing the simulated trajectory.
//!
//! ```sh
//! cargo run --release --example timeline
//! ```

use experiments::{run, thresholds, GovernorKind, RunConfig, Scale};
use simcore::{sparkline, Gauge, SimDuration, TimelineConfig};
use workload::{AppKind, LoadLevel, LoadSpec};

fn main() {
    let app = AppKind::Memcached;
    let load = LoadSpec::preset(app, LoadLevel::High);
    let cfg = RunConfig::new(
        app,
        load,
        GovernorKind::Nmap(thresholds::nmap_config(app)),
        Scale::Quick,
    )
    // A small buffer so decimation is visible in the output: the
    // sampler halves its resolution each time the buffer fills.
    .with_timeline(TimelineConfig {
        interval: SimDuration::from_micros(50),
        cap: 128,
    });
    println!(
        "memcached @ high load ({} RPS average), NMAP governor",
        load.avg_rps as u64
    );
    let r = run(cfg);
    let t = &r.timeline;
    println!(
        "{} rows, {} cores; interval {} us (started at {} us, {} decimation(s), {} samples dropped)\n",
        t.rows(),
        t.cores,
        t.interval_ns / 1_000,
        t.base_interval_ns / 1_000,
        t.decimations,
        t.dropped,
    );

    println!("sparklines (low..high maps to ` .:-=+*#%@`):");
    let width = 64;
    for (label, series) in [
        ("p99 ns (worst core)", t.series_max(Gauge::P99Ns)),
        ("cores polling", t.series_sum(Gauge::NapiPolling)),
        ("power mW (chip)", t.series_sum(Gauge::PowerMw)),
        ("rx ring (worst)", t.series_max(Gauge::RxRing)),
        ("app queue (worst)", t.series_max(Gauge::AppQueue)),
    ] {
        let peak = series.iter().copied().max().unwrap_or(0);
        println!("{label:<20} |{}| peak {peak}", sparkline(&series, width));
    }

    println!("\nfirst rows of the CSV export (time_ns,core,gauges…):");
    for line in r.timeline.to_csv().lines().take(1 + t.cores as usize * 2) {
        println!("  {line}");
    }
    println!(
        "  … ({} lines total; `experiments::write_timeline_csv` / \
         `write_timeline_openmetrics` export the full series)",
        t.rows() * t.cores as usize + 1
    );
}
