//! Unified observability: structured trace events and a metrics
//! registry.
//!
//! Timeline behaviour is the NMAP paper's whole argument — *when* a
//! NAPI context flips between interrupt and polling mode, when
//! ksoftirqd runs, when a core steps its P-state or drops into CC6.
//! This module gives every layer of the stack one shared vocabulary
//! for those moments:
//!
//! * [`TraceBuffer`] — a bounded buffer of typed [`TraceEvent`]s
//!   (span begin/end, instants, counter samples), each tagged with a
//!   [`TraceCategory`] and a core id. When the buffer is full, new
//!   events are counted in [`TraceBuffer::dropped`] rather than
//!   silently discarded, and the events already recorded keep their
//!   insertion order.
//! * [`MetricsRegistry`] — deterministically ordered counters, gauges
//!   and log₂-bucketed histograms, snapshotted into a
//!   [`MetricsSnapshot`] that two same-seed runs must reproduce
//!   bit-identically.
//!
//! A [`TraceBuffer`] with capacity zero records nothing, so runs that
//! never export a timeline pay one branch per call site.
//!
//! # Examples
//!
//! ```
//! use simcore::obs::{MetricsRegistry, TraceBuffer, TraceCategory};
//! use simcore::SimTime;
//!
//! let mut trace = TraceBuffer::with_capacity(1024);
//! trace.begin(SimTime::from_micros(5), TraceCategory::Request, 0, "request", 7);
//! trace.end(SimTime::from_micros(9), TraceCategory::Request, 0, "request", 7);
//! assert_eq!(trace.len(), 2);
//!
//! let mut metrics = MetricsRegistry::new();
//! metrics.bump("nic.rx_enqueued", 3);
//! metrics.observe("napi.poll_batch_rx", 64);
//! let snap = metrics.snapshot();
//! assert_eq!(snap, metrics.snapshot()); // snapshots are deterministic
//! ```

use crate::stats::histogram::Histogram;
use crate::time::SimTime;
use std::collections::BTreeMap;

pub mod attrib;
pub mod energy;
pub mod timeseries;

/// The timeline track a trace event belongs to.
///
/// The Perfetto exporter renders one track per `(core, category)`
/// pair, so categories are the vertical structure of the timeline
/// view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceCategory {
    /// NIC interrupt activity: fire / mask / unmask instants.
    Irq,
    /// NAPI interrupt-vs-polling mode residency spans.
    NapiMode,
    /// Individual NAPI poll batches (instants, arg = Rx packets).
    Poll,
    /// ksoftirqd run intervals (wake → sleep spans).
    Ksoftirqd,
    /// P-state residency spans (arg = state index).
    PState,
    /// C-state residency spans (arg = state depth).
    CState,
    /// Application request service spans (arg = flow id).
    Request,
    /// Governor decisions and NI notifications (instants).
    Governor,
    /// SLO watchdog: online percentile counters, violation /
    /// recovery instants, attribution stage shares.
    Slo,
    /// Injected faults: one instant per applied injection
    /// (arg = applications so far), plus degradation marks.
    Fault,
    /// Energy attribution: per-core cumulative microjoule counters
    /// and end-of-run component totals.
    Energy,
    /// Governor flight recorder: one instant per recorded decision
    /// (arg = `from_pstate << 8 | to_pstate`).
    Gov,
    /// Telemetry timeline: one counter per core per
    /// [`timeseries::Gauge`], replayed from the retained sample rows.
    Timeline,
}

/// Number of categories (track layout tables).
pub const CATEGORIES: usize = 13;

impl TraceCategory {
    /// All categories, in track display order.
    pub const ALL: [TraceCategory; CATEGORIES] = [
        TraceCategory::Irq,
        TraceCategory::NapiMode,
        TraceCategory::Poll,
        TraceCategory::Ksoftirqd,
        TraceCategory::PState,
        TraceCategory::CState,
        TraceCategory::Request,
        TraceCategory::Governor,
        TraceCategory::Slo,
        TraceCategory::Fault,
        TraceCategory::Energy,
        TraceCategory::Gov,
        TraceCategory::Timeline,
    ];

    /// Stable track label (also the Perfetto thread name).
    pub fn label(self) -> &'static str {
        match self {
            TraceCategory::Irq => "irq",
            TraceCategory::NapiMode => "napi-mode",
            TraceCategory::Poll => "poll",
            TraceCategory::Ksoftirqd => "ksoftirqd",
            TraceCategory::PState => "pstate",
            TraceCategory::CState => "cstate",
            TraceCategory::Request => "requests",
            TraceCategory::Governor => "governor",
            TraceCategory::Slo => "slo",
            TraceCategory::Fault => "fault",
            TraceCategory::Energy => "energy",
            TraceCategory::Gov => "gov",
            TraceCategory::Timeline => "timeline",
        }
    }
}

/// The shape of one trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A span opens at this time (Chrome-trace phase `B`).
    SpanBegin,
    /// The most recent span of this name on this track closes
    /// (phase `E`).
    SpanEnd,
    /// A point event (phase `i`).
    Instant,
    /// A sampled counter value (phase `C`, value in `arg`).
    Counter,
}

/// One structured trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Span/instant/counter discriminator.
    pub kind: TraceKind,
    /// Track category.
    pub category: TraceCategory,
    /// Core the event happened on (track grouping).
    pub core: u32,
    /// Event name (span or instant label).
    pub name: &'static str,
    /// Free-form argument: packet count, state index, flow id, …
    pub arg: i64,
}

/// A bounded buffer of [`TraceEvent`]s with an explicit overflow
/// counter.
///
/// A capacity of zero means recording is off entirely (the cheap
/// steady state for runs that never export a timeline); overflow of a
/// non-zero capacity is counted in [`dropped`](TraceBuffer::dropped)
/// so truncation is never silent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer that records up to `capacity` events, then counts
    /// drops.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceBuffer {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// The configured capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True if this buffer can record anything at all.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.capacity > 0
    }

    /// Records one event; counts a drop if the buffer is full.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            return; // recording off, not an overflow
        }
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push(event);
    }

    /// Records a span-begin event.
    #[inline]
    pub fn begin(
        &mut self,
        time: SimTime,
        category: TraceCategory,
        core: u32,
        name: &'static str,
        arg: i64,
    ) {
        self.record(TraceEvent {
            time,
            kind: TraceKind::SpanBegin,
            category,
            core,
            name,
            arg,
        });
    }

    /// Records a span-end event.
    #[inline]
    pub fn end(
        &mut self,
        time: SimTime,
        category: TraceCategory,
        core: u32,
        name: &'static str,
        arg: i64,
    ) {
        self.record(TraceEvent {
            time,
            kind: TraceKind::SpanEnd,
            category,
            core,
            name,
            arg,
        });
    }

    /// Records an instant event.
    #[inline]
    pub fn instant(
        &mut self,
        time: SimTime,
        category: TraceCategory,
        core: u32,
        name: &'static str,
        arg: i64,
    ) {
        self.record(TraceEvent {
            time,
            kind: TraceKind::Instant,
            category,
            core,
            name,
            arg,
        });
    }

    /// Records a counter sample.
    #[inline]
    pub fn counter(
        &mut self,
        time: SimTime,
        category: TraceCategory,
        core: u32,
        name: &'static str,
        value: i64,
    ) {
        self.record(TraceEvent {
            time,
            kind: TraceKind::Counter,
            category,
            core,
            name,
            arg: value,
        });
    }

    /// Moves every event (and the drop count) of `other` into this
    /// buffer, respecting this buffer's capacity. Lets a collector
    /// replay bounded summary logs into a fresh buffer first, then
    /// absorb the high-volume live stream so overflow falls on the
    /// latter.
    pub fn absorb(&mut self, other: TraceBuffer) {
        self.dropped += other.dropped;
        for event in other.events {
            self.record(event);
        }
    }

    /// Events recorded so far, in insertion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events().len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events().is_empty()
    }

    /// Events refused because the buffer was full (never counts while
    /// the capacity is zero, i.e. recording off).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A log₂-bucketed histogram of `u64` samples: the registry's
/// histogram representation. Components that aggregate on their own
/// hot path keep a fine [`Histogram`] instead and hand it over at
/// export time (see
/// [`AttribTracker::record_metrics`](attrib::AttribTracker::record_metrics)),
/// which derives this form from it exactly.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ObsHistogram {
    /// `buckets[i]` counts samples with `bit_width == i` (bucket 0 is
    /// the value 0).
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for ObsHistogram {
    fn default() -> Self {
        ObsHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl ObsHistogram {
    #[inline]
    pub(crate) fn observe(&mut self, value: u64) {
        self.buckets[u64::BITS as usize - value.leading_zeros() as usize] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// The log₂ form of a fine histogram: what `observe` of each of
    /// its samples would have built. Exact, because every fine bucket
    /// lies inside one binary magnitude; `sum` wraps at 2^64 as
    /// `observe`'s release-build addition does.
    fn from_fine(h: &Histogram) -> Self {
        ObsHistogram {
            buckets: h.bit_width_counts(),
            count: h.count(),
            sum: h.sum() as u64,
            max: h.max(),
        }
    }
}

/// The frozen form of one histogram in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Non-empty log₂ buckets as `(bit_width, count)`, ascending.
    pub buckets: Vec<(u32, u64)>,
}

/// Deterministically ordered counters, gauges, and histograms.
///
/// Keys iterate in lexicographic order, so a snapshot taken at the
/// same simulation point of two same-seed runs compares equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, ObsHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter `key`.
    #[inline]
    pub fn bump(&mut self, key: &str, n: u64) {
        if let Some(v) = self.counters.get_mut(key) {
            *v += n;
        } else {
            self.counters.insert(key.to_string(), n);
        }
    }

    /// Sets the counter `key` to an absolute value (end-of-run totals
    /// copied from component bookkeeping).
    #[inline]
    pub fn set_counter(&mut self, key: &str, value: u64) {
        self.counters.insert(key.to_string(), value);
    }

    /// Sets the gauge `key`.
    #[inline]
    pub fn set_gauge(&mut self, key: &str, value: f64) {
        self.gauges.insert(key.to_string(), value);
    }

    /// Adds one sample to the histogram `key`.
    #[inline]
    pub fn observe(&mut self, key: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(key) {
            h.observe(value);
        } else {
            let mut h = ObsHistogram::default();
            h.observe(value);
            self.histograms.insert(key.to_string(), h);
        }
    }

    /// Sets the histogram `key` to the log₂ form of the fine
    /// histogram `h`, replacing any samples already observed under
    /// that key: the result equals an [`observe`](Self::observe) of
    /// each of `h`'s samples into an empty key.
    pub(crate) fn set_histogram(&mut self, key: &str, h: &Histogram) {
        let h = ObsHistogram::from_fine(h);
        if let Some(slot) = self.histograms.get_mut(key) {
            *slot = h;
        } else {
            self.histograms.insert(key.to_string(), h);
        }
    }

    /// The current value of a counter (0 if absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Freezes the registry into a deterministic snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            count: h.count,
                            sum: h.sum,
                            max: h.max,
                            buckets: h
                                .buckets
                                .iter()
                                .enumerate()
                                .filter(|&(_, &c)| c > 0)
                                .map(|(i, &c)| (i as u32, c))
                                .collect(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// The frozen, ordered form of a [`MetricsRegistry`].
///
/// Every collection is sorted by key, and every value is either an
/// integer or a deterministically computed float, so two same-seed
/// runs produce snapshots that compare (and render) identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(key, value)` counters, key-ascending.
    pub counters: Vec<(String, u64)>,
    /// `(key, value)` gauges, key-ascending.
    pub gauges: Vec<(String, f64)>,
    /// `(key, histogram)` pairs, key-ascending.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// True if the snapshot carries no data (nothing recorded).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter by key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Looks up a histogram by key.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.histograms[i].1)
    }

    /// Renders the snapshot as stable `key=value` lines (floats carry
    /// their exact bit pattern alongside the readable value).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k}={v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge {k}={v} bits={:#018x}", v.to_bits());
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {k} count={} sum={} max={}",
                h.count, h.sum, h.max
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_export_of_a_fine_histogram_equals_per_sample_observe() {
        // Edge values: 0, everything below 64 (one fine bucket per
        // value), powers of two ± 1 across the whole range, u64::MAX.
        let mut edges: Vec<u64> = (0..64).collect();
        for k in 1..64 {
            let p = 1u64 << k;
            edges.extend([p - 1, p, p + 1]);
        }
        edges.push(u64::MAX);
        // Many samples per case: keep them below 2^56 so `observe`'s
        // u64 sum cannot overflow (a debug-build panic); the
        // single-sample loop below covers the values above.
        let small: Vec<u64> = edges.iter().copied().filter(|&v| v < 1 << 56).collect();
        crate::check::forall("log2 export from fine histogram", 512, |rng| {
            let mut fine = Histogram::new();
            let mut direct = MetricsRegistry::new();
            for _ in 0..1 + rng.below(200) {
                let v = match rng.below(3) {
                    0 => small[rng.below(small.len() as u64) as usize],
                    1 => rng.next_u64() >> (8 + rng.below(56)),
                    _ => rng.below(1 << 40),
                };
                fine.record(v);
                direct.observe("stage", v);
            }
            let mut derived = MetricsRegistry::new();
            derived.set_histogram("stage", &fine);
            assert_eq!(derived.snapshot(), direct.snapshot());
        });
        // Every edge value on its own, u64::MAX included.
        for &v in &edges {
            let mut fine = Histogram::new();
            fine.record(v);
            let mut derived = MetricsRegistry::new();
            derived.set_histogram("k", &fine);
            let mut direct = MetricsRegistry::new();
            direct.observe("k", v);
            assert_eq!(derived.snapshot(), direct.snapshot(), "value {v}");
        }
    }

    fn ev(t: u64, name: &'static str) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_nanos(t),
            kind: TraceKind::Instant,
            category: TraceCategory::Irq,
            core: 0,
            name,
            arg: 0,
        }
    }

    #[test]
    fn overflow_counts_drops_and_keeps_order() {
        let mut buf = TraceBuffer::with_capacity(2);
        buf.record(ev(1, "a"));
        buf.record(ev(2, "b"));
        buf.record(ev(3, "c"));
        buf.record(ev(4, "d"));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 2);
        let names: Vec<_> = buf.events().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a", "b"], "retained events keep order");
    }

    #[test]
    fn absorb_merges_events_and_drop_counts() {
        let mut src = TraceBuffer::with_capacity(2);
        src.record(ev(1, "a"));
        src.record(ev(2, "b"));
        src.record(ev(3, "c")); // dropped in src
        let mut dst = TraceBuffer::with_capacity(3);
        dst.record(ev(0, "x"));
        dst.record(ev(0, "y"));
        dst.absorb(src);
        assert_eq!(dst.len(), 3, "absorb respects dst capacity");
        let names: Vec<_> = dst.events().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["x", "y", "a"]);
        // 1 carried over from src + 1 refused by dst's capacity.
        assert_eq!(dst.dropped(), 2);
    }

    #[test]
    fn disabled_buffer_never_records_or_counts() {
        let mut buf = TraceBuffer::with_capacity(0);
        assert!(!buf.is_recording());
        buf.record(ev(1, "a"));
        assert_eq!(buf.len(), 0);
        assert_eq!(buf.dropped(), 0, "capacity 0 is off, not overflow");
    }

    #[test]
    fn span_helpers_tag_kinds() {
        let mut buf = TraceBuffer::with_capacity(16);
        buf.begin(SimTime::ZERO, TraceCategory::Request, 1, "request", 9);
        buf.end(
            SimTime::from_nanos(5),
            TraceCategory::Request,
            1,
            "request",
            9,
        );
        buf.instant(
            SimTime::from_nanos(6),
            TraceCategory::Governor,
            1,
            "set_pstate",
            0,
        );
        buf.counter(
            SimTime::from_nanos(7),
            TraceCategory::Irq,
            1,
            "occupancy",
            3,
        );
        let kinds: Vec<_> = buf.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::SpanBegin,
                TraceKind::SpanEnd,
                TraceKind::Instant,
                TraceKind::Counter,
            ]
        );
    }

    #[test]
    fn category_labels_are_unique() {
        let mut labels: Vec<_> = TraceCategory::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), CATEGORIES);
    }

    #[test]
    fn metrics_snapshot_is_ordered_and_deterministic() {
        let mut m = MetricsRegistry::new();
        m.bump("z.last", 1);
        m.bump("a.first", 2);
        m.bump("a.first", 3);
        m.set_gauge("power_w", 17.25);
        m.observe("batch", 0);
        m.observe("batch", 64);
        m.observe("batch", 64);
        let snap = m.snapshot();
        assert_eq!(snap, m.snapshot());
        assert_eq!(
            snap.counters,
            vec![("a.first".to_string(), 5), ("z.last".to_string(), 1)]
        );
        assert_eq!(snap.counter("a.first"), Some(5));
        let (_, h) = &snap.histograms[0];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 128);
        assert_eq!(h.max, 64);
        assert_eq!(h.buckets, vec![(0, 1), (7, 2)]);
        assert!(snap.render().contains("counter a.first=5"));
    }

    /// The attribution and telemetry summaries are plain data whose
    /// defaults are empty, not absent.
    #[test]
    fn default_summaries_are_empty() {
        assert_eq!(crate::EnergySummary::default().measured_total_uj(), 0);
        assert_eq!(crate::FlightSummary::default().total, 0);
        assert!(crate::Timeline::default().is_empty());
    }
}
