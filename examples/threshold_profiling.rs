//! NMAP's offline threshold profiling (§4.2), step by step: feed a
//! profiling run's NAPI poll batches into the [`ThresholdProfiler`]
//! and show how `NI_TH` and `CU_TH` come out, check them against the
//! pinned profile every other run uses (`thresholds::nmap_config`),
//! then demonstrate that the thresholds transfer across load levels
//! without re-profiling.
//!
//! ```sh
//! cargo run --release --example threshold_profiling
//! ```
//!
//! [`ThresholdProfiler`]: nmap::ThresholdProfiler

use experiments::{run, thresholds, GovernorKind, RunConfig, Scale};
use workload::{AppKind, LoadLevel, LoadSpec};

fn main() {
    for app in [AppKind::Memcached, AppKind::Nginx] {
        // One lightweight profiling run at the SLO-defining load…
        let cfg = thresholds::profile_nmap(app);
        println!(
            "{app}: profiled NI_TH = {} polling packets/episode, CU_TH = {:.2}",
            cfg.ni_threshold, cfg.cu_threshold
        );
        // …whose result is the pin every experiment reads.
        let pinned = thresholds::nmap_config(app);
        let same = pinned.ni_threshold == cfg.ni_threshold
            && pinned.cu_threshold.to_bits() == cfg.cu_threshold.to_bits();
        println!(
            "    pinned NI_TH = {}, CU_TH = {:.2}: {}",
            pinned.ni_threshold,
            pinned.cu_threshold,
            if same {
                "bit-identical to this profile"
            } else {
                "DIFFERS (re-pin: cargo test -p experiments --lib thresholds)"
            },
        );
        // …and the same thresholds hold across every load level
        // (§4.2: "it does not need to reset the values when the
        // running application's load changes").
        for level in LoadLevel::all() {
            let load = LoadSpec::preset(app, level);
            let r = run(RunConfig::new(
                app,
                load,
                GovernorKind::Nmap(cfg),
                Scale::Quick,
            ));
            println!(
                "    {level:<7} p99 = {:>10}  over-SLO = {:>6}  power = {:>6.1} W  -> {}",
                experiments::report::fmt_dur(r.p99),
                experiments::report::fmt_pct(r.frac_above_slo),
                r.avg_power_w,
                if r.meets_slo() {
                    "meets SLO"
                } else {
                    "VIOLATES"
                },
            );
        }
        println!();
    }
}
