//! Deterministic fixed-interval telemetry bus: typed per-core gauges
//! sampled over sim time, with bounded memory.
//!
//! Every other observability surface ([`MetricsRegistry`],
//! [`crate::obs::attrib`], [`crate::obs::energy`]) is an end-of-run
//! snapshot: it says *what* happened, never *when*. This module
//! records how the feature vector the NMAP paper's governors consume
//! — utilization, NAPI processing mode, queue depths, online P99,
//! instantaneous power — *evolves* over virtual time, at a fixed
//! sampling interval that is independent of the governor under test
//! (so two governors' timelines are sampled at identical instants and
//! compare row for row).
//!
//! # Bounded memory: interval-doubling decimation
//!
//! The sampler pre-allocates room for at most `cap` rows. When a new
//! row arrives at a full buffer, every odd-indexed row is dropped in
//! place (stride-2 decimation; no reallocation) and the sampling
//! interval doubles, so the retained rows stay *uniformly spaced* at
//! the new interval and the whole run always fits. Like
//! [`TraceBuffer`], nothing is discarded silently: decimated rows are
//! counted in [`dropped`](TimeSeriesSampler::dropped) and each
//! doubling in [`decimations`](TimeSeriesSampler::decimations).
//!
//! # Read side: [`TelemetryTap`]
//!
//! Governors (ROADMAP item 5's adaptive PID/bandit policy) poll the
//! live sampler through the [`TelemetryTap`] trait during the run —
//! the bus is a substrate for *online* control, not just a post-hoc
//! log. A disabled sampler's tap reports nothing.
//!
//! # Examples
//!
//! ```
//! use simcore::obs::timeseries::{Gauge, TimeSeriesSampler, TimelineConfig, GAUGES};
//! use simcore::{SimDuration, SimTime};
//!
//! let cfg = TimelineConfig { interval: SimDuration::from_micros(10), cap: 4 };
//! let mut s = TimeSeriesSampler::new(1, cfg);
//! let mut row = [0i64; GAUGES];
//! for k in 0..6u64 {
//!     row[Gauge::UtilPermille as usize] = (k * 100) as i64;
//!     s.record_row(SimTime::from_micros(10 * (k + 1)), &row);
//! }
//! let tl = s.finish();
//! assert!(tl.rows() <= 4);          // bounded
//! assert_eq!(tl.interval_ns, 20_000); // doubled once
//! ```
//!
//! [`MetricsRegistry`]: crate::obs::MetricsRegistry
//! [`TraceBuffer`]: crate::obs::TraceBuffer

use crate::time::{SimDuration, SimTime};

/// One typed per-core telemetry channel.
///
/// Values are integers by construction (the substrate of the
/// byte-identical determinism guarantee): fractions are per-mille,
/// power is milliwatts, latency is nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// Core busy fraction over the last governor sampling window,
    /// in per-mille (0–1000).
    #[default]
    UtilPermille,
    /// Current P-state table index (0 = fastest).
    PState,
    /// NAPI processing mode: 1 while the context is in polling mode,
    /// 0 in interrupt mode (the paper's mode-transition signal).
    NapiPolling,
    /// NIC Rx-ring backlog depth for this core's queue (0 for cores
    /// without an Rx queue under RSS).
    RxRing,
    /// Application socket-queue depth (requests waiting on the core).
    AppQueue,
    /// Online P99 end-to-end latency for requests served by this
    /// core, in nanoseconds (from the streaming SLO watchdog).
    P99Ns,
    /// Instantaneous core power draw at the current operating point
    /// and activity, in milliwatts.
    PowerMw,
    /// Status bits: bit 0 = governor degraded on this core, bit 1 =
    /// a fault scope is active on this core.
    Flags,
    /// Admission-queue saturation in per-mille of the bounded app
    /// queue's capacity (0 when no admission policy bounds the
    /// queue). The up-coupled overload signal brownout and the
    /// shed-before-downclock governor ordering consume.
    Saturation,
}

/// Number of gauges (row stride per core).
pub const GAUGES: usize = 9;

impl Gauge {
    /// All gauges, in column order.
    pub const ALL: [Gauge; GAUGES] = [
        Gauge::UtilPermille,
        Gauge::PState,
        Gauge::NapiPolling,
        Gauge::RxRing,
        Gauge::AppQueue,
        Gauge::P99Ns,
        Gauge::PowerMw,
        Gauge::Flags,
        Gauge::Saturation,
    ];

    /// Stable column label (CSV header, trace-counter name).
    pub fn label(self) -> &'static str {
        match self {
            Gauge::UtilPermille => "util_permille",
            Gauge::PState => "pstate",
            Gauge::NapiPolling => "napi_polling",
            Gauge::RxRing => "rx_ring",
            Gauge::AppQueue => "app_queue",
            Gauge::P99Ns => "p99_ns",
            Gauge::PowerMw => "power_mw",
            Gauge::Flags => "flags",
            Gauge::Saturation => "saturation_permille",
        }
    }

    /// OpenMetrics metric name for this gauge.
    pub fn openmetrics_name(self) -> &'static str {
        match self {
            Gauge::UtilPermille => "nmap_core_util_permille",
            Gauge::PState => "nmap_core_pstate_index",
            Gauge::NapiPolling => "nmap_core_napi_polling",
            Gauge::RxRing => "nmap_core_rx_ring_depth",
            Gauge::AppQueue => "nmap_core_app_queue_depth",
            Gauge::P99Ns => "nmap_core_p99_latency_ns",
            Gauge::PowerMw => "nmap_core_power_milliwatts",
            Gauge::Flags => "nmap_core_status_flags",
            Gauge::Saturation => "nmap_core_saturation_permille",
        }
    }

    /// OpenMetrics HELP text.
    pub fn openmetrics_help(self) -> &'static str {
        match self {
            Gauge::UtilPermille => "Core busy fraction over the governor window, per mille.",
            Gauge::PState => "Current P-state table index (0 is fastest).",
            Gauge::NapiPolling => "1 while the core's NAPI context is in polling mode.",
            Gauge::RxRing => "NIC Rx-ring backlog depth for the core's queue.",
            Gauge::AppQueue => "Application socket-queue depth on the core.",
            Gauge::P99Ns => "Online P99 end-to-end latency for the core, nanoseconds.",
            Gauge::PowerMw => "Instantaneous core power draw, milliwatts.",
            Gauge::Flags => "Status bits: 1 governor degraded, 2 fault scope active.",
            Gauge::Saturation => "Admission-queue saturation, per mille of the bounded capacity.",
        }
    }
}

/// Degraded-governor bit in the [`Gauge::Flags`] channel.
pub const FLAG_DEGRADED: i64 = 1;
/// Fault-scope-active bit in the [`Gauge::Flags`] channel.
pub const FLAG_FAULT_ACTIVE: i64 = 2;

/// Timeline sampling parameters.
///
/// `cap == 0` disables sampling entirely (the cheap steady state);
/// otherwise `cap` must be even so stride-2 decimation keeps the
/// retained rows uniformly spaced ([`TimeSeriesSampler::new`] treats
/// an odd cap of 1 as disabled and rounds other odd caps down).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimelineConfig {
    /// Base sampling interval (doubles on each decimation).
    pub interval: SimDuration,
    /// Maximum number of retained sample rows; 0 disables sampling.
    pub cap: usize,
}

impl TimelineConfig {
    /// Sampling off.
    pub const OFF: TimelineConfig = TimelineConfig {
        interval: SimDuration::ZERO,
        cap: 0,
    };
}

impl Default for TimelineConfig {
    /// 100 µs base interval, 512 retained rows: fine enough to see a
    /// NAPI mode flip in a quick cell, bounded at ~32 KiB of gauges
    /// per 8-core run no matter how long the simulation runs.
    fn default() -> Self {
        TimelineConfig {
            interval: SimDuration::from_micros(100),
            cap: 512,
        }
    }
}

/// Read-side view of the live telemetry bus.
///
/// The server hands governors a `&dyn TelemetryTap` once per sample
/// tick (see `PStateGovernor::on_telemetry` in the governors crate),
/// so an adaptive policy can consume the same multi-gauge feature
/// vector the timeline records — without owning the sampler or
/// perturbing it. All methods report "nothing" when sampling is
/// disabled.
pub trait TelemetryTap {
    /// Number of cores covered by each sample row.
    fn tap_cores(&self) -> usize;

    /// Virtual time of the most recent sample row, if any.
    fn last_sample_at(&self) -> Option<SimTime>;

    /// The most recent sampled value of `gauge` on `core`, if any
    /// row has been recorded.
    fn latest(&self, core: usize, gauge: Gauge) -> Option<i64>;
}

/// The write side of the telemetry bus: fixed-interval rows of
/// per-core [`Gauge`] values with interval-doubling decimation.
///
/// Storage is flat and pre-allocated (`cap` rows × `cores` ×
/// [`GAUGES`] values); recording and decimation never allocate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeriesSampler {
    cores: usize,
    cap: usize,
    base_interval: SimDuration,
    interval: SimDuration,
    times_ns: Vec<u64>,
    values: Vec<i64>,
    decimations: u64,
    dropped: u64,
}

impl TimeSeriesSampler {
    /// A sampler over `cores` cores with the given config. An odd
    /// `cap` is rounded down to the nearest even value (a cap of 1
    /// therefore disables sampling) so decimation preserves uniform
    /// row spacing.
    pub fn new(cores: usize, config: TimelineConfig) -> Self {
        let cap = config.cap & !1;
        let cap = if config.interval.is_zero() { 0 } else { cap };
        TimeSeriesSampler {
            cores,
            cap,
            base_interval: config.interval,
            interval: config.interval,
            times_ns: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap * cores * GAUGES),
            decimations: 0,
            dropped: 0,
        }
    }

    /// True if this sampler records anything at all.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.cap > 0
    }

    /// The retained-row capacity (0 when disabled).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// The *current* sampling interval — the base interval doubled
    /// once per decimation. The event loop reschedules its sample
    /// tick at this cadence so the tick rate decays with the buffer.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Rows currently retained.
    pub fn rows(&self) -> usize {
        self.times_ns.len()
    }

    /// Rows discarded by decimation so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Interval doublings so far.
    pub fn decimations(&self) -> u64 {
        self.decimations
    }

    /// Records one sample row (`row.len()` must be
    /// `cores × GAUGES`, core-major). If the buffer is full the
    /// retained rows are first stride-2 decimated in place and the
    /// interval doubles. Rows must arrive in non-decreasing time
    /// order; a short row is ignored rather than recorded partially.
    #[inline]
    pub fn record_row(&mut self, now: SimTime, row: &[i64]) {
        let stride = self.cores * GAUGES;
        if self.cap == 0 || row.len() != stride {
            return;
        }
        if self.times_ns.len() == self.cap {
            self.decimate();
        }
        self.times_ns.push(now.as_nanos());
        self.values.extend_from_slice(row);
    }

    /// Drops every odd-indexed row in place and doubles the interval.
    fn decimate(&mut self) {
        let stride = self.cores * GAUGES;
        let old = self.times_ns.len();
        let kept = old.div_ceil(2);
        for i in 1..kept {
            self.times_ns[i] = self.times_ns[2 * i];
            let (dst, src) = (i * stride, 2 * i * stride);
            self.values.copy_within(src..src + stride, dst);
        }
        self.times_ns.truncate(kept);
        self.values.truncate(kept * stride);
        self.dropped += (old - kept) as u64;
        self.decimations += 1;
        self.interval = SimDuration::from_nanos(self.interval.as_nanos().saturating_mul(2));
    }

    /// Freezes the sampler into a plain-data [`Timeline`].
    pub fn finish(&self) -> Timeline {
        Timeline {
            cores: self.cores as u32,
            base_interval_ns: self.base_interval.as_nanos(),
            interval_ns: self.interval.as_nanos(),
            decimations: self.decimations,
            dropped: self.dropped,
            times_ns: self.times_ns.clone(),
            values: self.values.clone(),
        }
    }
}

impl TelemetryTap for TimeSeriesSampler {
    fn tap_cores(&self) -> usize {
        self.cores
    }

    fn last_sample_at(&self) -> Option<SimTime> {
        self.times_ns.last().map(|&ns| SimTime::from_nanos(ns))
    }

    fn latest(&self, core: usize, gauge: Gauge) -> Option<i64> {
        let rows = self.times_ns.len();
        if rows == 0 || core >= self.cores {
            return None;
        }
        let stride = self.cores * GAUGES;
        self.values
            .get((rows - 1) * stride + core * GAUGES + gauge as usize)
            .copied()
    }
}

/// The frozen, plain-data form of a run's telemetry timeline.
///
/// Empty when sampling was off. All-integer, so checkpoint encoding
/// and CSV rendering are lossless and byte-identical across same-seed
/// runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Cores covered by each row.
    pub cores: u32,
    /// Configured base sampling interval, nanoseconds.
    pub base_interval_ns: u64,
    /// Final (possibly doubled) sampling interval, nanoseconds.
    pub interval_ns: u64,
    /// Interval doublings performed.
    pub decimations: u64,
    /// Rows discarded by decimation.
    pub dropped: u64,
    /// Sample times, nanoseconds, strictly increasing; one per row.
    pub times_ns: Vec<u64>,
    /// Row-major gauge values: `rows × cores × GAUGES`, core-major
    /// within a row, [`Gauge::ALL`] order within a core.
    pub values: Vec<i64>,
}

impl Timeline {
    /// Number of sample rows.
    pub fn rows(&self) -> usize {
        self.times_ns.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.times_ns.is_empty()
    }

    /// The value of `gauge` on `core` in row `row`, if in range.
    pub fn value(&self, row: usize, core: usize, gauge: Gauge) -> Option<i64> {
        if core >= self.cores as usize {
            return None;
        }
        let stride = self.cores as usize * GAUGES;
        self.values
            .get(row * stride + core * GAUGES + gauge as usize)
            .copied()
    }

    /// Per-row maximum of `gauge` across cores (tail-style signals:
    /// P99, queue depths).
    pub fn series_max(&self, gauge: Gauge) -> Vec<i64> {
        self.per_row(gauge, |acc, v| acc.max(v))
    }

    /// Per-row sum of `gauge` across cores (additive signals: power,
    /// cores-in-polling-mode).
    pub fn series_sum(&self, gauge: Gauge) -> Vec<i64> {
        self.per_row(gauge, |acc, v| acc.saturating_add(v))
    }

    fn per_row(&self, gauge: Gauge, fold: impl Fn(i64, i64) -> i64) -> Vec<i64> {
        let cores = self.cores as usize;
        let stride = cores * GAUGES;
        (0..self.rows())
            .map(|r| {
                (0..cores)
                    .map(|c| {
                        self.values
                            .get(r * stride + c * GAUGES + gauge as usize)
                            .copied()
                            .unwrap_or(0)
                    })
                    .fold(0i64, &fold)
            })
            .collect()
    }

    /// Renders the timeline as CSV: one line per `(row, core)` pair,
    /// all-integer, deterministic for same-seed runs.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("time_ns,core");
        for g in Gauge::ALL {
            out.push(',');
            out.push_str(g.label());
        }
        out.push('\n');
        let cores = self.cores as usize;
        let stride = cores * GAUGES;
        for (r, &t) in self.times_ns.iter().enumerate() {
            for c in 0..cores {
                let _ = write!(out, "{t},{c}");
                for g in 0..GAUGES {
                    let v = self.values.get(r * stride + c * GAUGES + g).copied();
                    let _ = write!(out, ",{}", v.unwrap_or(0));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Renders the timeline as an OpenMetrics text exposition: one
    /// gauge family per [`Gauge`], samples labelled by core with the
    /// sim-time timestamp in seconds, terminated by `# EOF`.
    pub fn to_openmetrics(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let cores = self.cores as usize;
        let stride = cores * GAUGES;
        for (gi, g) in Gauge::ALL.iter().enumerate() {
            let name = g.openmetrics_name();
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "# HELP {name} {}", g.openmetrics_help());
            for (r, &t) in self.times_ns.iter().enumerate() {
                for c in 0..cores {
                    let v = self
                        .values
                        .get(r * stride + c * GAUGES + gi)
                        .copied()
                        .unwrap_or(0);
                    let _ = writeln!(
                        out,
                        "{name}{{core=\"{c}\"}} {v} {}.{:09}",
                        t / 1_000_000_000,
                        t % 1_000_000_000
                    );
                }
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

/// ASCII character ramp for sparklines, low to high.
const SPARK_RAMP: &[u8] = b" .:-=+*#%@";

/// Renders `series` as a fixed-`width` ASCII sparkline: the series is
/// bucketed to `width` columns (max within each bucket) and each
/// column maps onto a 10-step density ramp scaled by the global
/// maximum. Pure ASCII so golden fixtures diff cleanly everywhere;
/// deterministic for identical input.
pub fn sparkline(series: &[i64], width: usize) -> String {
    if width == 0 {
        return String::new();
    }
    if series.is_empty() {
        return " ".repeat(width);
    }
    let peak = series.iter().copied().max().unwrap_or(0).max(1);
    let n = series.len();
    (0..width)
        .map(|col| {
            let lo = col * n / width;
            let hi = ((col + 1) * n / width).max(lo + 1).min(n);
            if lo >= n {
                return ' ';
            }
            let v = series[lo..hi].iter().copied().max().unwrap_or(0).max(0);
            // Scale into the ramp; a non-zero value never renders as
            // the blank rung.
            let mut idx = ((v as u128 * (SPARK_RAMP.len() - 1) as u128) / peak as u128) as usize;
            if v > 0 && idx == 0 {
                idx = 1;
            }
            SPARK_RAMP[idx.min(SPARK_RAMP.len() - 1)] as char
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row1(v: i64) -> [i64; GAUGES] {
        let mut r = [0i64; GAUGES];
        r[Gauge::UtilPermille as usize] = v;
        r[Gauge::PowerMw as usize] = v * 2;
        r
    }

    fn cfg(interval_us: u64, cap: usize) -> TimelineConfig {
        TimelineConfig {
            interval: SimDuration::from_micros(interval_us),
            cap,
        }
    }

    #[test]
    fn records_rows_and_taps_latest() {
        let mut s = TimeSeriesSampler::new(2, cfg(10, 8));
        let row = [
            1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        ];
        s.record_row(SimTime::from_micros(10), &row);
        assert_eq!(s.rows(), 1);
        assert_eq!(s.tap_cores(), 2);
        assert_eq!(s.last_sample_at(), Some(SimTime::from_micros(10)));
        assert_eq!(s.latest(0, Gauge::UtilPermille), Some(1));
        assert_eq!(s.latest(1, Gauge::Flags), Some(18));
        assert_eq!(s.latest(2, Gauge::Flags), None);
    }

    /// The decimation boundary: buffer exactly full, next record
    /// halves the rows, doubles the interval, counts the drops, and
    /// the row count never exceeds the cap.
    #[test]
    fn decimation_boundary_doubles_interval_and_stays_bounded() {
        let mut s = TimeSeriesSampler::new(1, cfg(10, 4));
        for k in 1..=4u64 {
            s.record_row(SimTime::from_micros(10 * k), &row1(k as i64));
        }
        assert_eq!(s.rows(), 4, "exactly full, nothing decimated yet");
        assert_eq!(s.interval(), SimDuration::from_micros(10));
        assert_eq!(s.dropped(), 0);

        // Row 5 forces the decimation: rows 10,20,30,40 µs → keep
        // 10,30 then push 50.
        s.record_row(SimTime::from_micros(50), &row1(5));
        assert_eq!(s.rows(), 3);
        assert_eq!(
            s.interval(),
            SimDuration::from_micros(20),
            "interval doubled"
        );
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.decimations(), 1);
        let tl = s.finish();
        assert_eq!(tl.times_ns, vec![10_000, 30_000, 50_000]);
        assert_eq!(
            tl.value(0, 0, Gauge::UtilPermille),
            Some(1),
            "kept rows carry their values"
        );
        assert_eq!(tl.value(1, 0, Gauge::UtilPermille), Some(3));
        assert_eq!(tl.value(2, 0, Gauge::UtilPermille), Some(5));

        // Keep pushing at the doubled cadence: the count never
        // exceeds the cap no matter how long the run goes.
        for k in 0..64u64 {
            s.record_row(SimTime::from_micros(70 + 20 * k), &row1(9));
            assert!(s.rows() <= 4, "rows stay within cap");
        }
        assert!(s.decimations() >= 4);
    }

    #[test]
    fn decimated_rows_stay_uniformly_spaced() {
        let mut s = TimeSeriesSampler::new(1, cfg(10, 4));
        let mut t = SimTime::ZERO;
        for k in 1..=32u64 {
            // Drive the clock the way the event loop does: advance by
            // the sampler's *current* interval each tick.
            t += s.interval();
            s.record_row(t, &row1(k as i64));
        }
        let tl = s.finish();
        assert!(tl.rows() >= 2 && tl.rows() <= 4);
        let deltas: Vec<u64> = tl.times_ns.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            deltas.iter().all(|&d| d == tl.interval_ns),
            "retained rows uniformly spaced at the final interval: {deltas:?} vs {}",
            tl.interval_ns
        );
    }

    #[test]
    fn cap_zero_and_odd_cap_one_disable_recording() {
        let mut off = TimeSeriesSampler::new(1, cfg(10, 0));
        assert!(!off.is_recording());
        off.record_row(SimTime::from_micros(10), &row1(1));
        assert_eq!(off.rows(), 0);
        assert_eq!(off.dropped(), 0, "disabled is off, not overflow");

        let one = TimeSeriesSampler::new(1, cfg(10, 1));
        assert!(!one.is_recording(), "cap 1 cannot decimate; treated as off");

        let odd = TimeSeriesSampler::new(1, cfg(10, 5));
        assert_eq!(odd.cap(), 4);
    }

    #[test]
    fn short_row_is_ignored_not_truncated() {
        let mut s = TimeSeriesSampler::new(2, cfg(10, 4));
        s.record_row(SimTime::from_micros(10), &row1(1)); // one core's worth only
        assert_eq!(s.rows(), 0);
    }

    #[test]
    fn csv_and_openmetrics_render_deterministically() {
        let mut s = TimeSeriesSampler::new(1, cfg(10, 4));
        s.record_row(SimTime::from_micros(10), &row1(250));
        s.record_row(SimTime::from_micros(20), &row1(750));
        let tl = s.finish();
        let csv = tl.to_csv();
        assert!(csv.starts_with("time_ns,core,util_permille,pstate,"));
        let om = tl.to_openmetrics();
        assert!(om.ends_with("# EOF\n"));
        assert!(csv.contains("10000,0,250,0,0,0,0,0,500,0,0"));
        assert!(om.contains("# TYPE nmap_core_util_permille gauge"));
        assert!(om.contains("nmap_core_util_permille{core=\"0\"} 250 0.000010000"));
        assert_eq!(csv, s.finish().to_csv(), "rendering is a pure function");
    }

    #[test]
    fn series_helpers_fold_across_cores() {
        let tl = Timeline {
            cores: 2,
            base_interval_ns: 10_000,
            interval_ns: 10_000,
            decimations: 0,
            dropped: 0,
            times_ns: vec![10_000, 20_000],
            values: {
                let mut v = vec![0i64; 2 * 2 * GAUGES];
                // row 0: core0 p99=5, core1 p99=9
                v[Gauge::P99Ns as usize] = 5;
                v[GAUGES + Gauge::P99Ns as usize] = 9;
                // row 1: core0 p99=7, core1 p99=3
                v[2 * GAUGES + Gauge::P99Ns as usize] = 7;
                v[3 * GAUGES + Gauge::P99Ns as usize] = 3;
                v
            },
        };
        assert_eq!(tl.series_max(Gauge::P99Ns), vec![9, 7]);
        assert_eq!(tl.series_sum(Gauge::P99Ns), vec![14, 10]);
    }

    #[test]
    fn sparkline_is_ascii_and_scales() {
        let s = sparkline(&[0, 1, 5, 10], 4);
        assert_eq!(s.len(), 4);
        assert!(s.is_ascii());
        assert_eq!(s.chars().next(), Some(' '), "zero renders blank");
        assert_eq!(s.chars().last(), Some('@'), "peak renders full");
        assert_ne!(s.chars().nth(1), Some(' '), "non-zero never blank");
        assert_eq!(sparkline(&[], 6), "      ");
        assert_eq!(sparkline(&[3; 100], 8).len(), 8, "long series bucketed");
        assert_eq!(sparkline(&[1, 2, 3], 5), sparkline(&[1, 2, 3], 5));
    }

    #[test]
    fn gauge_labels_and_metric_names_are_unique() {
        let mut labels: Vec<_> = Gauge::ALL.iter().map(|g| g.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), GAUGES);
        let mut names: Vec<_> = Gauge::ALL.iter().map(|g| g.openmetrics_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GAUGES);
    }
}
