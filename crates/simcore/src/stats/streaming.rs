//! Streaming percentile estimation and the online SLO watchdog.
//!
//! The post-hoc [`Cdf`](crate::Cdf)/[`Histogram`](crate::Histogram)
//! pipeline answers "what was P99 over the run" — after the run. The
//! paper's argument, though, is about *reaction time*: how long a
//! governor lets the tail sit above the SLO before its signal catches
//! up (§3's bursts, Fig 16's load steps). Answering that needs online
//! estimators:
//!
//! * [`StreamingQuantiles`] — a rotating pair of log-bucketed
//!   [`Histogram`] windows. Inserts are O(1); quantile queries scan a
//!   fixed bucket array; the estimate always covers between one and
//!   two windows of trailing samples (the classic two-bucket sliding
//!   window). Merging two streams is deterministic, so sharded runs
//!   can combine estimators without ordering sensitivity.
//! * [`SloWatchdog`] — per-core and global streams plus an episode
//!   detector: the watchdog flags the moment the trailing window's
//!   P99 crosses the SLO (time-to-detect, measured from the first
//!   over-SLO sample of the episode) and the moment it recovers
//!   (time-to-recover). Detection uses exact integer counting — "more
//!   than 1 % of windowed samples above the SLO" is precisely
//!   "windowed P99 above the SLO" — so no float comparisons are
//!   involved and same-seed runs report identical episodes.

use crate::stats::histogram::Histogram;
use crate::time::{SimDuration, SimTime};

/// A sliding-window quantile estimator built from two rotating
/// [`Histogram`] buckets.
///
/// Samples land in the *current* window; queries merge the current
/// and *previous* windows, so the estimate covers between `window`
/// and `2 × window` of trailing time. Rotation happens lazily on
/// insert, keyed to the sample's timestamp — fully deterministic.
///
/// # Examples
///
/// ```
/// use simcore::{SimDuration, SimTime, StreamingQuantiles};
///
/// let mut s = StreamingQuantiles::new(SimDuration::from_millis(1));
/// for i in 0..100u64 {
///     s.record(SimTime::from_micros(i * 10), 100 + i);
/// }
/// assert_eq!(s.count(), 100);
/// assert!(s.quantile(0.5) >= 100);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingQuantiles {
    window: SimDuration,
    epoch_start: SimTime,
    cur: Histogram,
    prev: Histogram,
}

impl StreamingQuantiles {
    /// Creates an estimator with the given rotation window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "streaming window must be non-zero");
        StreamingQuantiles {
            window,
            epoch_start: SimTime::ZERO,
            cur: Histogram::new(),
            prev: Histogram::new(),
        }
    }

    /// The configured rotation window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Records one sample at `now`. Returns how many whole windows
    /// elapsed since the previous epoch (0 = no rotation; values ≥ 2
    /// mean the stream went quiet long enough that both windows were
    /// reset).
    pub fn record(&mut self, now: SimTime, value: u64) -> u64 {
        let advanced = self.advance_to(now);
        self.cur.record(value);
        advanced
    }

    /// Rotates the windows up to `now` without recording (lets a
    /// caller force a fresh estimate at a known boundary). Returns the
    /// number of whole windows advanced, as [`record`] does.
    ///
    /// [`record`]: StreamingQuantiles::record
    pub fn advance_to(&mut self, now: SimTime) -> u64 {
        let w = self.window.as_nanos();
        let elapsed = now.saturating_since(self.epoch_start).as_nanos();
        let k = elapsed / w;
        if k == 0 {
            return 0;
        }
        if k == 1 {
            std::mem::swap(&mut self.prev, &mut self.cur);
            self.cur.clear();
        } else {
            self.prev.clear();
            self.cur.clear();
        }
        self.epoch_start += self.window * k;
        k
    }

    /// Samples currently covered (current + previous window).
    pub fn count(&self) -> u64 {
        self.cur.count() + self.prev.count()
    }

    /// The windowed quantile estimate (0 when no samples are held).
    pub fn quantile(&self, q: f64) -> u64 {
        self.cur.merged_quantile(&self.prev, q)
    }

    /// The windowed P99 in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The windowed P50 in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Merges another estimator into this one, window by window. Both
    /// must use the same window length. The result is independent of
    /// merge order (histogram merges are commutative bucket sums), so
    /// sharded collectors combine deterministically; the later epoch
    /// wins as the merged rotation anchor.
    ///
    /// # Panics
    ///
    /// Panics if the window lengths differ.
    pub fn merge(&mut self, other: &StreamingQuantiles) {
        assert_eq!(
            self.window, other.window,
            "cannot merge streams with different windows"
        );
        self.cur.merge(&other.cur);
        self.prev.merge(&other.prev);
        self.epoch_start = self.epoch_start.max(other.epoch_start);
    }
}

/// What the watchdog observed while absorbing one sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogEvent {
    /// The global sliding window rotated: fresh online percentiles
    /// are available from [`SloWatchdog::online_p99_ns`] and
    /// [`SloWatchdog::online_p50_ns`] until the next sample.
    WindowRotated,
    /// A per-core sliding window rotated: that core's fresh P99 is
    /// available from [`SloWatchdog::core_p99_ns`].
    CoreWindow {
        /// The core whose window rotated.
        core: u32,
    },
    /// The windowed P99 crossed above the SLO.
    ViolationDetected {
        /// Detection lag: time since the episode's first over-SLO
        /// sample.
        since_first_bad: SimDuration,
    },
    /// The windowed P99 dropped back to or below the SLO.
    Recovered {
        /// How long the episode lasted, detection to recovery.
        violated_for: SimDuration,
    },
}

/// End-of-run watchdog summary: episode counts and mean reaction
/// times. All integer nanoseconds, so same-seed runs compare equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Latency samples absorbed.
    pub samples: u64,
    /// SLO-violation episodes detected (including one still open).
    pub episodes: u32,
    /// True if the run ended inside a violation episode.
    pub open_episode: bool,
    /// When the first episode was detected (ns since run start), or
    /// `u64::MAX` if none.
    pub first_detect_ns: u64,
    /// Total time spent inside detected episodes, nanoseconds (an
    /// open episode counts up to the report time).
    pub total_violation_ns: u64,
    /// Mean time-to-detect across episodes (first over-SLO sample →
    /// detection), nanoseconds.
    pub mean_detect_ns: u64,
    /// Mean time-to-recover across *closed* episodes (detection →
    /// recovery), nanoseconds.
    pub mean_recover_ns: u64,
}

/// Online per-core P99 tracking plus SLO crossing/recovery detection.
///
/// Feed it every end-to-end latency sample; it maintains one
/// [`StreamingQuantiles`] per serving core and one global, counts
/// over-SLO samples exactly, and emits [`WatchdogEvent`]s the caller
/// can turn into trace instants and counters. See the [module
/// docs](self) for the detection rule.
///
/// # Examples
///
/// ```
/// use simcore::{SimDuration, SimTime, SloWatchdog};
///
/// let slo = SimDuration::from_millis(1);
/// let mut wd = SloWatchdog::new(slo, SimDuration::from_millis(5), 2);
/// let mut events = Vec::new();
/// for i in 0..200u64 {
///     // A burst of 5x-SLO samples must trip the watchdog.
///     wd.record(0, 5_000_000, SimTime::from_micros(i * 20), &mut events);
/// }
/// let report = wd.report(SimTime::from_millis(4));
/// assert_eq!(report.episodes, 1);
/// assert!(report.open_episode);
/// ```
#[derive(Debug, Clone)]
pub struct SloWatchdog {
    slo_ns: u64,
    min_samples: u64,
    global: StreamingQuantiles,
    per_core: Vec<StreamingQuantiles>,
    /// Exact over-SLO counters mirroring the global window pair.
    cur_total: u64,
    cur_above: u64,
    prev_total: u64,
    prev_above: u64,
    samples: u64,
    in_violation: bool,
    /// First over-SLO sample since the last recovery (episode anchor).
    first_bad: Option<SimTime>,
    detect_at: SimTime,
    episodes: u32,
    first_detect_ns: u64,
    closed_violation_ns: u64,
    total_detect_ns: u64,
    total_recover_ns: u64,
    /// Per-episode `(first_bad_ns, recovered_ns)` anchors, with
    /// `u64::MAX` marking a still-open episode — the join input for
    /// fault-recovery attribution (`simcore::fault::join_recovery`).
    episode_log: Vec<(u64, u64)>,
}

impl SloWatchdog {
    /// Creates a watchdog for `cores` serving cores.
    ///
    /// `window` is the rotation window of the underlying streams;
    /// `min_samples` is the minimum number of windowed samples before
    /// the detector is willing to call a violation (guards against
    /// flapping on a handful of samples right after rotation).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(slo: SimDuration, window: SimDuration, cores: usize) -> Self {
        SloWatchdog {
            slo_ns: slo.as_nanos(),
            min_samples: 64,
            global: StreamingQuantiles::new(window),
            per_core: (0..cores)
                .map(|_| StreamingQuantiles::new(window))
                .collect(),
            cur_total: 0,
            cur_above: 0,
            prev_total: 0,
            prev_above: 0,
            samples: 0,
            in_violation: false,
            first_bad: None,
            detect_at: SimTime::ZERO,
            episodes: 0,
            first_detect_ns: u64::MAX,
            closed_violation_ns: 0,
            total_detect_ns: 0,
            total_recover_ns: 0,
            episode_log: Vec::new(),
        }
    }

    /// Overrides the minimum windowed sample count for detection.
    pub fn with_min_samples(mut self, min_samples: u64) -> Self {
        self.min_samples = min_samples.max(1);
        self
    }

    /// The SLO threshold in nanoseconds.
    pub fn slo_ns(&self) -> u64 {
        self.slo_ns
    }

    /// The current windowed global P99 estimate, nanoseconds.
    pub fn online_p99_ns(&self) -> u64 {
        self.global.p99_ns()
    }

    /// The current windowed global P50 estimate, nanoseconds.
    pub fn online_p50_ns(&self) -> u64 {
        self.global.p50_ns()
    }

    /// The windowed P99 of one core, nanoseconds (0 for out-of-range
    /// cores).
    pub fn core_p99_ns(&self, core: usize) -> u64 {
        self.per_core.get(core).map_or(0, |s| s.p99_ns())
    }

    /// Absorbs one end-to-end latency sample served by `core`,
    /// appending any state changes to `events`.
    pub fn record(
        &mut self,
        core: usize,
        latency_ns: u64,
        now: SimTime,
        events: &mut Vec<WatchdogEvent>,
    ) {
        self.samples += 1;
        // Rotate the global stream and the mirrored exact counters in
        // lock-step.
        let advanced = self.global.record(now, latency_ns);
        if advanced >= 1 {
            if advanced == 1 {
                self.prev_total = self.cur_total;
                self.prev_above = self.cur_above;
            } else {
                self.prev_total = 0;
                self.prev_above = 0;
            }
            self.cur_total = 0;
            self.cur_above = 0;
            events.push(WatchdogEvent::WindowRotated);
        }
        self.cur_total += 1;
        let above = latency_ns > self.slo_ns;
        if above {
            self.cur_above += 1;
            if self.first_bad.is_none() && !self.in_violation {
                self.first_bad = Some(now);
            }
        }
        if let Some(stream) = self.per_core.get_mut(core) {
            if stream.record(now, latency_ns) >= 1 {
                events.push(WatchdogEvent::CoreWindow { core: core as u32 });
            }
        }
        // P99 > SLO over the sliding window ⇔ strictly more than 1 %
        // of windowed samples sit above the SLO (exact integers).
        let total = self.cur_total + self.prev_total;
        let above_n = self.cur_above + self.prev_above;
        let violating = total >= self.min_samples && above_n * 100 > total;
        if !self.in_violation && violating {
            self.in_violation = true;
            self.episodes += 1;
            self.detect_at = now;
            self.first_detect_ns = self.first_detect_ns.min(now.as_nanos());
            let lag = now.saturating_since(self.first_bad.unwrap_or(now));
            self.total_detect_ns += lag.as_nanos();
            self.episode_log
                .push((self.first_bad.unwrap_or(now).as_nanos(), u64::MAX));
            events.push(WatchdogEvent::ViolationDetected {
                since_first_bad: lag,
            });
        } else if self.in_violation && !violating {
            self.in_violation = false;
            self.first_bad = None;
            let held = now.saturating_since(self.detect_at);
            self.closed_violation_ns += held.as_nanos();
            self.total_recover_ns += held.as_nanos();
            if let Some(open) = self.episode_log.last_mut() {
                open.1 = now.as_nanos();
            }
            events.push(WatchdogEvent::Recovered { violated_for: held });
        }
    }

    /// Per-episode `(first_bad_ns, recovered_ns)` anchors in episode
    /// order; a still-open episode carries `u64::MAX` as its end.
    pub fn episode_log(&self) -> &[(u64, u64)] {
        &self.episode_log
    }

    /// Summarizes everything observed so far. `end` closes the open
    /// episode's violation time (the episode itself stays open).
    pub fn report(&self, end: SimTime) -> WatchdogReport {
        let mut total_violation_ns = self.closed_violation_ns;
        if self.in_violation {
            total_violation_ns += end.saturating_since(self.detect_at).as_nanos();
        }
        let closed = self.episodes - self.in_violation as u32;
        WatchdogReport {
            samples: self.samples,
            episodes: self.episodes,
            open_episode: self.in_violation,
            first_detect_ns: self.first_detect_ns,
            total_violation_ns,
            mean_detect_ns: if self.episodes == 0 {
                0
            } else {
                self.total_detect_ns / self.episodes as u64
            },
            mean_recover_ns: if closed == 0 {
                0
            } else {
                self.total_recover_ns / closed as u64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn windowed_quantiles_track_recent_samples() {
        let mut s = StreamingQuantiles::new(SimDuration::from_millis(1));
        // Old slow samples...
        for i in 0..100u64 {
            s.record(SimTime::from_nanos(i * 1_000), 10 * MS);
        }
        // ...age out after two rotations of fast samples.
        for i in 0..200u64 {
            s.record(SimTime::from_nanos(2 * MS + i * 10_000), 100_000);
        }
        let p99 = s.p99_ns();
        assert!(p99 < MS, "stale window must age out, p99 {p99}");
    }

    #[test]
    fn rotation_counts_whole_windows() {
        let mut s = StreamingQuantiles::new(SimDuration::from_millis(1));
        assert_eq!(s.record(SimTime::from_micros(10), 5), 0);
        assert_eq!(s.record(SimTime::from_micros(1_200), 6), 1);
        // A long quiet gap clears both windows.
        assert!(s.record(SimTime::from_micros(9_700), 7) >= 2);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn merge_is_order_independent() {
        let w = SimDuration::from_millis(1);
        let build = |vals: &[u64]| {
            let mut s = StreamingQuantiles::new(w);
            for (i, &v) in vals.iter().enumerate() {
                s.record(SimTime::from_micros(i as u64 * 7), v);
            }
            s
        };
        let a = build(&[10, 20, 30, 40]);
        let b = build(&[1_000, 2_000]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.count(), ba.count());
        for &q in &[0.1, 0.5, 0.9, 0.99] {
            assert_eq!(ab.quantile(q), ba.quantile(q));
        }
    }

    #[test]
    #[should_panic(expected = "different windows")]
    fn merge_rejects_mismatched_windows() {
        let mut a = StreamingQuantiles::new(SimDuration::from_millis(1));
        let b = StreamingQuantiles::new(SimDuration::from_millis(2));
        a.merge(&b);
    }

    fn feed(wd: &mut SloWatchdog, from_us: u64, n: u64, latency_ns: u64) -> Vec<WatchdogEvent> {
        let mut events = Vec::new();
        for i in 0..n {
            wd.record(
                0,
                latency_ns,
                SimTime::from_micros(from_us + i * 10),
                &mut events,
            );
        }
        events
    }

    #[test]
    fn watchdog_detects_and_recovers() {
        let slo = SimDuration::from_millis(1);
        let mut wd = SloWatchdog::new(slo, SimDuration::from_millis(5), 1).with_min_samples(10);
        // Healthy traffic: no episode.
        let evs = feed(&mut wd, 0, 100, 200_000);
        assert!(!evs
            .iter()
            .any(|e| matches!(e, WatchdogEvent::ViolationDetected { .. })));
        // Sustained over-SLO burst: detected once.
        let evs = feed(&mut wd, 1_000, 100, 5 * MS);
        assert_eq!(
            evs.iter()
                .filter(|e| matches!(e, WatchdogEvent::ViolationDetected { .. }))
                .count(),
            1
        );
        // Recovery needs the bad samples to age out of both windows.
        let evs = feed(&mut wd, 12_000, 600, 200_000);
        assert_eq!(
            evs.iter()
                .filter(|e| matches!(e, WatchdogEvent::Recovered { .. }))
                .count(),
            1
        );
        let report = wd.report(SimTime::from_millis(20));
        assert_eq!(report.episodes, 1);
        assert!(!report.open_episode);
        assert!(report.total_violation_ns > 0);
        assert!(report.mean_recover_ns > 0);
        assert_ne!(report.first_detect_ns, u64::MAX);
    }

    #[test]
    fn detect_lag_measured_from_first_bad_sample() {
        let slo = SimDuration::from_millis(1);
        let mut wd = SloWatchdog::new(slo, SimDuration::from_millis(5), 1).with_min_samples(50);
        let mut events = Vec::new();
        // 49 bad samples cannot trip the detector (min_samples)...
        for i in 0..49u64 {
            wd.record(0, 5 * MS, SimTime::from_micros(i * 10), &mut events);
        }
        assert!(events
            .iter()
            .all(|e| !matches!(e, WatchdogEvent::ViolationDetected { .. })));
        // ...the 50th does, and the lag spans back to sample #1.
        wd.record(0, 5 * MS, SimTime::from_micros(490), &mut events);
        let lag = events
            .iter()
            .find_map(|e| match e {
                WatchdogEvent::ViolationDetected { since_first_bad } => Some(*since_first_bad),
                _ => None,
            })
            .expect("detection fired");
        assert_eq!(lag, SimDuration::from_micros(490));
    }

    #[test]
    fn per_core_windows_rotate_independently() {
        let slo = SimDuration::from_millis(1);
        let mut wd = SloWatchdog::new(slo, SimDuration::from_millis(1), 2);
        let mut events = Vec::new();
        wd.record(1, 100, SimTime::from_micros(10), &mut events);
        wd.record(1, 200, SimTime::from_micros(1_500), &mut events);
        assert!(events
            .iter()
            .any(|e| matches!(e, WatchdogEvent::CoreWindow { core: 1 })));
        assert!(wd.core_p99_ns(1) > 0);
        assert_eq!(wd.core_p99_ns(7), 0, "out-of-range core reads as 0");
    }

    #[test]
    fn empty_report_is_all_zero() {
        let wd = SloWatchdog::new(SimDuration::from_millis(1), SimDuration::from_millis(5), 4);
        let r = wd.report(SimTime::from_millis(1));
        assert_eq!(r.samples, 0);
        assert_eq!(r.episodes, 0);
        assert!(!r.open_episode);
        assert_eq!(r.first_detect_ns, u64::MAX, "no detection sentinel");
        assert_eq!(r.total_violation_ns, 0);
        assert_eq!(r.mean_detect_ns, 0);
        assert_eq!(r.mean_recover_ns, 0);
    }
}
