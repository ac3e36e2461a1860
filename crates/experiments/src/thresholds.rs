//! Offline threshold selection.
//!
//! * **NMAP** (§4.2): run one short profiling simulation at the
//!   SLO-defining load (the latency-load knee — we use the High
//!   preset), observing the first 100 interrupts of the request
//!   bursts through [`ThresholdProfiler`]; `NI_TH` is the maximum
//!   polling-per-interrupt episode and `CU_TH` the average
//!   polling-to-interrupt ratio.
//! * **NCAP** (§6.3): the boost threshold is "tuned to satisfy the
//!   SLOs at a high load of each application"; we use 20 % of the
//!   high-load average packet rate, which trips early in every burst
//!   that could overrun the lower P-states.

use crate::runner::{GovernorKind, RunConfig, Scale};
use nmap::{NmapConfig, ThresholdProfiler};
use simcore::SimDuration;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use workload::{AppKind, LoadLevel, LoadSpec};

/// Profiles NMAP's thresholds for `app` (§4.2). Results are memoized
/// per application, as in the paper: thresholds are re-derived only
/// when the application changes, never per load level.
pub fn nmap_config(app: AppKind) -> NmapConfig {
    static CACHE: OnceLock<Mutex<HashMap<AppKind, NmapConfig>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut memo = cache.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(cfg) = memo.get(&app) {
        return *cfg;
    }
    let cfg = profile_nmap(app);
    memo.insert(app, cfg);
    cfg
}

fn profile_nmap(app: AppKind) -> NmapConfig {
    // The profiling run: the SLO-defining load under the performance
    // governor — the same configuration that produced the latency-load
    // knee the SLO was read from. Profiling at max V/F keeps the
    // observed polling episodes at their "early part of the burst"
    // size (§4.2) instead of the overload-inflated episodes a slow
    // P-state would produce.
    let load = LoadSpec::preset(app, LoadLevel::High);
    let cfg = RunConfig {
        warmup: SimDuration::ZERO,
        duration: SimDuration::from_millis(400),
        ..RunConfig::new(app, load, GovernorKind::Performance, Scale::Quick)
    };
    let cores = cfg.profile.profile().cores;
    // The observer must be `Send` like the rest of the testbed; the
    // run is single-threaded, so the mutex is never contended.
    let profiler = Arc::new(Mutex::new(ThresholdProfiler::new(cores)));
    let sink = Arc::clone(&profiler);
    let (_result, _tb) = crate::runner::run_with_testbed(cfg, move |tb, _sim| {
        tb.poll_observer = Some(Box::new(move |core, class, n, _now| {
            sink.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record_batch(core, class, n);
        }));
    });
    let derived = profiler
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .derive();
    // Deployment calibration of the fallback threshold. For µs-scale
    // services (memcached) the paper's raw burst-average CU_TH is
    // safe: a mid-burst fallback that proves premature re-boosts
    // within one poll batch and the shallow queue drains instantly —
    // this is what lets NMAP shed energy *inside* bursts (Fig 9's
    // quick lowering). For ~100 µs services (nginx) a premature
    // fallback builds a milliseconds-deep queue before the re-boost
    // lands (each paying the §5.1 re-transition latency), so the
    // fallback is keyed to the burst's decay with a 0.5 factor.
    let cu_factor = match app {
        AppKind::Memcached => 1.0,
        AppKind::Nginx => 0.5,
    };
    NmapConfig::new(derived.ni_threshold, derived.cu_threshold * cu_factor)
}

/// NCAP's tuned boost threshold in *packets* per second for `app`
/// (NCAP monitors the NIC, which sees `rx_packets_per_request` wire
/// packets per request). Per §6.3 the threshold is tuned to satisfy
/// the SLOs at high load: it must catch the medium and high burst
/// plateaus (which overrun the lower P-states) while ignoring the low
/// preset, which is SLO-safe even at Pmin — boosting there would only
/// burn energy.
pub fn ncap_threshold(app: AppKind) -> f64 {
    let rx_mult = appsim::AppModel::for_kind(app).rx_packets_per_request as f64;
    let low_peak = LoadSpec::preset(app, LoadLevel::Low).peak_rps() * rx_mult;
    let med_peak = LoadSpec::preset(app, LoadLevel::Medium).peak_rps() * rx_mult;
    0.5 * (low_peak + med_peak)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ncap_thresholds_sit_between_low_and_medium_peaks() {
        for app in [AppKind::Memcached, AppKind::Nginx] {
            let rx = appsim::AppModel::for_kind(app).rx_packets_per_request as f64;
            let low = LoadSpec::preset(app, LoadLevel::Low).peak_rps() * rx;
            let med = LoadSpec::preset(app, LoadLevel::Medium).peak_rps() * rx;
            let th = ncap_threshold(app);
            assert!(
                th > low,
                "{app}: threshold {th} must ignore the low preset ({low})"
            );
            assert!(
                th < med,
                "{app}: threshold {th} must catch the medium preset ({med})"
            );
        }
    }

    #[test]
    fn nmap_profiling_produces_plausible_thresholds() {
        let cfg = nmap_config(AppKind::Memcached);
        // High load must actually exercise polling mode.
        assert!(cfg.ni_threshold > 1, "NI_TH {} too small", cfg.ni_threshold);
        assert!(
            cfg.ni_threshold < 1_000_000,
            "NI_TH {} absurd",
            cfg.ni_threshold
        );
        assert!(cfg.cu_threshold > 0.0);
        // Memoization returns the identical config.
        assert_eq!(nmap_config(AppKind::Memcached), cfg);
    }
}
