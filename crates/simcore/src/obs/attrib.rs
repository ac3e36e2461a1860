//! Per-request latency attribution.
//!
//! The paper's causal story (§3) is that tail latency under reactive
//! governors is *not* service time — it is transition overhead:
//! P-state ramps stalling execution, C-state wakes delaying the
//! hardirq, interrupt moderation batching arrivals, ksoftirqd
//! scheduling delay once polls overrun. This module decomposes every
//! request's end-to-end latency into those stages, exactly:
//!
//! ```text
//! e2e = Wire + ItrDelay + CstateWake + IrqDispatch + KsoftirqdSched
//!     + RingWait + PollBatch + AppQueue + Preempt + AppService
//!     + PstateStall
//! ```
//!
//! The identity holds with integer-nanosecond equality for every
//! single request — not on average — because each stage is carved out
//! of the request's own timeline:
//!
//! * The NIC-ring interval `[enqueue, poll-claim]` is partitioned by
//!   a cursor walking the serving core's [`ChainMarks`] (IRQ fire,
//!   wake end, hardirq retire, ksoftirqd wait) in time order; stale
//!   marks from earlier interrupt chains clamp to zero-length slices,
//!   so the slices always sum to the interval.
//! * The application span `[app-start, app-finish]` splits into
//!   preemption gaps (wall time not executing), CC6 cache-refill debt,
//!   the ideal service time at the fastest P-state, and the residual —
//!   which is by definition the P-state slowdown stall.
//!
//! [`AttribTracker`] carries the per-request state between pipeline
//! events and aggregates completed breakdowns into per-stage
//! histograms, which it exports to a [`MetricsRegistry`] at run end
//! ([`AttribTracker::record_metrics`]); the conservation ledger
//! cross-checks that the attributed nanoseconds equal the measured
//! end-to-end nanoseconds at any simulation time.

use super::MetricsRegistry;
use super::ObsHistogram;
use crate::hash::IdHashMap;
use crate::stats::histogram::Histogram;
use crate::time::{SimDuration, SimTime};

/// One stage of a request's end-to-end latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Both link traversals (client → NIC, NIC → client).
    #[default]
    Wire,
    /// Interrupt-moderation delay: enqueue until the Rx IRQ fires.
    ItrDelay,
    /// C-state exit: wake transition latency plus CC6 cache-refill
    /// debt paid before useful work resumes.
    CstateWake,
    /// Hardirq execution until the softirq poll loop takes over.
    IrqDispatch,
    /// Waiting for the scheduler to run ksoftirqd after a handoff.
    KsoftirqdSched,
    /// Residual ring residency: waiting behind earlier poll batches.
    RingWait,
    /// The poll batch that claimed the packet: claim → socket
    /// delivery.
    PollBatch,
    /// Socket-backlog wait until the app thread picks the request up.
    AppQueue,
    /// Preemption gaps while the request's service was descheduled.
    Preempt,
    /// Ideal service time at the fastest P-state.
    AppService,
    /// Residual service slowdown from running below the fastest
    /// P-state (including DVFS transition stalls).
    PstateStall,
}

/// Number of stages.
pub const STAGES: usize = 11;

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; STAGES] = [
        Stage::Wire,
        Stage::ItrDelay,
        Stage::CstateWake,
        Stage::IrqDispatch,
        Stage::KsoftirqdSched,
        Stage::RingWait,
        Stage::PollBatch,
        Stage::AppQueue,
        Stage::Preempt,
        Stage::AppService,
        Stage::PstateStall,
    ];

    /// Short column label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Wire => "wire",
            Stage::ItrDelay => "itr",
            Stage::CstateWake => "cwake",
            Stage::IrqDispatch => "irq",
            Stage::KsoftirqdSched => "ksoft",
            Stage::RingWait => "ring",
            Stage::PollBatch => "poll",
            Stage::AppQueue => "appq",
            Stage::Preempt => "preempt",
            Stage::AppService => "service",
            Stage::PstateStall => "pstall",
        }
    }

    /// Metrics-registry histogram key for this stage.
    pub fn metric_key(self) -> &'static str {
        match self {
            Stage::Wire => "attrib.wire",
            Stage::ItrDelay => "attrib.itr",
            Stage::CstateWake => "attrib.cwake",
            Stage::IrqDispatch => "attrib.irq",
            Stage::KsoftirqdSched => "attrib.ksoft",
            Stage::RingWait => "attrib.ring",
            Stage::PollBatch => "attrib.poll",
            Stage::AppQueue => "attrib.appq",
            Stage::Preempt => "attrib.preempt",
            Stage::AppService => "attrib.service",
            Stage::PstateStall => "attrib.pstall",
        }
    }

    /// Trace-counter name for this stage's share track.
    pub fn share_label(self) -> &'static str {
        match self {
            Stage::Wire => "share-wire",
            Stage::ItrDelay => "share-itr",
            Stage::CstateWake => "share-cwake",
            Stage::IrqDispatch => "share-irq",
            Stage::KsoftirqdSched => "share-ksoft",
            Stage::RingWait => "share-ring",
            Stage::PollBatch => "share-poll",
            Stage::AppQueue => "share-appq",
            Stage::Preempt => "share-preempt",
            Stage::AppService => "share-service",
            Stage::PstateStall => "share-pstall",
        }
    }
}

/// One request's latency decomposition, nanoseconds per [`Stage`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    ns: [u64; STAGES],
}

impl Breakdown {
    /// Adds `d` to `stage`. Saturates: an hours-long pathological
    /// stall must not wrap the per-stage counter mid-run.
    pub fn add(&mut self, stage: Stage, d: SimDuration) {
        let slot = &mut self.ns[stage as usize];
        *slot = slot.saturating_add(d.as_nanos());
    }

    /// Nanoseconds attributed to `stage`.
    pub fn get_ns(&self, stage: Stage) -> u64 {
        self.ns[stage as usize]
    }

    /// Sum over all stages — must equal the measured end-to-end
    /// latency.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().fold(0u64, |acc, &n| acc.saturating_add(n))
    }

    /// Iterates `(stage, nanoseconds)` pairs in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, u64)> + '_ {
        Stage::ALL.iter().map(move |&s| (s, self.ns[s as usize]))
    }
}

/// Per-core timestamps of the current interrupt-processing chain.
///
/// The testbed records these as the chain advances (IRQ fires → core
/// wakes → hardirq retires → ksoftirqd waits/runs); the ring-interval
/// partition walks them with a cursor. Marks from *earlier* chains
/// are harmless: the cursor clamps any mark before the packet's
/// enqueue (or before a later mark already consumed) to a zero-length
/// slice.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainMarks {
    /// When the Rx IRQ fired.
    pub irq_at: Option<SimTime>,
    /// When the core's C-state exit (plus any cache-refill debt)
    /// completed.
    pub wake_end: Option<SimTime>,
    /// When the hardirq handler retired (softirq poll begins).
    pub hardirq_end: Option<SimTime>,
    /// When ksoftirqd last became runnable-but-waiting.
    pub ksoftirqd_queued: Option<SimTime>,
    /// When ksoftirqd last started polling after a wait.
    pub ksoftirqd_running: Option<SimTime>,
}

/// Partitions the ring interval `[enqueue, claim]` into kernel-side
/// stages by walking the chain marks in time order. Every slice is
/// non-negative and the slices sum exactly to `claim − enqueue`.
pub fn attribute_ring(b: &mut Breakdown, enqueue: SimTime, claim: SimTime, marks: &ChainMarks) {
    let mut cursor = enqueue;
    let mut take = |b: &mut Breakdown, stage: Stage, upto: SimTime| {
        let upto = upto.min(claim);
        if upto > cursor {
            b.add(stage, upto.saturating_since(cursor));
            cursor = upto;
        }
    };
    if let Some(t) = marks.irq_at {
        take(b, Stage::ItrDelay, t);
    }
    if let Some(t) = marks.wake_end {
        take(b, Stage::CstateWake, t);
    }
    if let Some(t) = marks.hardirq_end {
        take(b, Stage::IrqDispatch, t);
    }
    if let Some(queued) = marks.ksoftirqd_queued {
        // Time before ksoftirqd was queued went to earlier softirq
        // poll batches working the ring.
        take(b, Stage::RingWait, queued);
        take(
            b,
            Stage::KsoftirqdSched,
            marks.ksoftirqd_running.unwrap_or(claim),
        );
    }
    take(b, Stage::RingWait, claim);
}

/// A finished request's attribution, as returned by
/// [`AttribTracker::completed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedAttrib {
    /// The per-stage decomposition.
    pub breakdown: Breakdown,
    /// The core that served the request.
    pub core: u32,
    /// Measured end-to-end latency, nanoseconds.
    pub e2e_ns: u64,
    /// True when the stage sums equal the measured latency exactly
    /// (the conservation property; a mismatch is an attribution bug).
    pub matches: bool,
}

#[derive(Debug, Clone)]
struct Pending {
    breakdown: Breakdown,
    sent_at: SimTime,
    claim_at: SimTime,
    delivered_at: SimTime,
    app_start: SimTime,
    finished_at: SimTime,
    core: u32,
    /// Start of the currently executing chunk, if the request is on
    /// a core right now.
    chunk_start: Option<SimTime>,
    /// Wall time actually spent executing (sum of chunks).
    executed: SimDuration,
    /// CC6 cache-refill debt paid inside the app's own chunk.
    debt: SimDuration,
    /// Ideal service time at the fastest P-state.
    ideal: SimDuration,
}

/// Per-stage aggregation over completed requests.
#[derive(Debug, Clone)]
struct Agg {
    sums_ns: [u64; STAGES],
    hists: Vec<Histogram>,
    /// The same samples in the metrics registry's log₂ form, exported
    /// under [`Stage::metric_key`].
    log2: [ObsHistogram; STAGES],
    requests: u64,
    mismatches: u64,
    attributed_total_ns: u64,
    e2e_total_ns: u64,
}

impl Default for Agg {
    fn default() -> Self {
        Agg {
            sums_ns: [0; STAGES],
            hists: (0..STAGES).map(|_| Histogram::new()).collect(),
            log2: std::array::from_fn(|_| ObsHistogram::default()),
            requests: 0,
            mismatches: 0,
            attributed_total_ns: 0,
            e2e_total_ns: 0,
        }
    }
}

/// Aggregated attribution statistics for one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSummary {
    /// The stage.
    pub stage: Stage,
    /// Total nanoseconds attributed across completed requests.
    pub sum_ns: u64,
    /// Median per-request nanoseconds.
    pub p50_ns: u64,
    /// P99 per-request nanoseconds.
    pub p99_ns: u64,
    /// Largest per-request contribution.
    pub max_ns: u64,
}

/// End-of-run attribution summary (lives in `RunResult`; `PartialEq`
/// so determinism suites compare it between same-seed runs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttribSummary {
    /// Requests fully attributed (completed round trips).
    pub requests: u64,
    /// Requests still in flight when the summary was taken.
    pub pending: u64,
    /// Requests whose stage sums failed to match the measured
    /// end-to-end latency (must be 0; audited).
    pub mismatches: u64,
    /// Sum of all attributed stage nanoseconds.
    pub attributed_total_ns: u64,
    /// Sum of all measured end-to-end nanoseconds.
    pub e2e_total_ns: u64,
    /// Per-stage aggregates, in [`Stage::ALL`] order.
    pub stages: Vec<StageSummary>,
}

impl AttribSummary {
    /// The aggregate for one stage, if attribution ran.
    pub fn stage(&self, stage: Stage) -> Option<&StageSummary> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// The fraction of total attributed time spent in `stage`.
    pub fn share(&self, stage: Stage) -> f64 {
        if self.attributed_total_ns == 0 {
            return 0.0;
        }
        self.stage(stage)
            .map_or(0.0, |s| s.sum_ns as f64 / self.attributed_total_ns as f64)
    }
}

/// Carries per-request attribution state through the pipeline and
/// aggregates completed breakdowns.
///
/// The testbed drives it with one call per pipeline transition:
/// [`claimed`](Self::claimed) (NAPI poll claims the packet from the
/// ring) → [`delivered`](Self::delivered) (socket backlog) →
/// [`app_start`](Self::app_start) →
/// [`app_pause`](Self::app_pause)/[`app_resume`](Self::app_resume)
/// (preemption) → [`app_finish`](Self::app_finish) →
/// [`completed`](Self::completed) (response back at the client).
/// Requests dropped at the NIC are never claimed and never tracked.
///
/// In-flight state lives in a [`crate::IdHashMap`]: every call is a
/// keyed lookup and nothing iterates it, so the table's layout cannot
/// reach a result.
#[derive(Debug, Clone, Default)]
pub struct AttribTracker {
    pending: IdHashMap<u64, Pending>,
    agg: Agg,
}

impl AttribTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// A NAPI poll claimed request `id` from the Rx ring at `now`.
    /// `sent_at`/`enqueued_at` are the packet's own timestamps;
    /// `marks` are the serving core's chain marks.
    #[inline]
    pub fn claimed(
        &mut self,
        id: u64,
        sent_at: SimTime,
        enqueued_at: SimTime,
        now: SimTime,
        marks: &ChainMarks,
    ) {
        let mut breakdown = Breakdown::default();
        breakdown.add(Stage::Wire, enqueued_at.saturating_since(sent_at));
        attribute_ring(&mut breakdown, enqueued_at, now, marks);
        self.pending.insert(
            id,
            Pending {
                breakdown,
                sent_at,
                claim_at: now,
                delivered_at: now,
                app_start: now,
                finished_at: now,
                core: 0,
                chunk_start: None,
                executed: SimDuration::ZERO,
                debt: SimDuration::ZERO,
                ideal: SimDuration::ZERO,
            },
        );
    }

    /// The claiming poll batch retired and handed request `id` to the
    /// socket backlog.
    #[inline]
    pub fn delivered(&mut self, id: u64, now: SimTime) {
        if let Some(p) = self.pending.get_mut(&id) {
            p.breakdown
                .add(Stage::PollBatch, now.saturating_since(p.claim_at));
            p.delivered_at = now;
        }
    }

    /// The app thread on `core` started serving request `id`. `debt`
    /// is the CC6 cache-refill debt folded into this chunk; `ideal`
    /// is the request's service time at the fastest P-state.
    #[inline]
    pub fn app_start(
        &mut self,
        id: u64,
        core: u32,
        now: SimTime,
        debt: SimDuration,
        ideal: SimDuration,
    ) {
        if let Some(p) = self.pending.get_mut(&id) {
            p.breakdown
                .add(Stage::AppQueue, now.saturating_since(p.delivered_at));
            p.app_start = now;
            p.chunk_start = Some(now);
            p.core = core;
            p.debt = debt;
            p.ideal = ideal;
        }
    }

    /// Request `id`'s service chunk was preempted.
    #[inline]
    pub fn app_pause(&mut self, id: u64, now: SimTime) {
        if let Some(p) = self.pending.get_mut(&id) {
            if let Some(start) = p.chunk_start.take() {
                p.executed += now.saturating_since(start);
            }
        }
    }

    /// Request `id` resumed execution after preemption.
    #[inline]
    pub fn app_resume(&mut self, id: u64, now: SimTime) {
        if let Some(p) = self.pending.get_mut(&id) {
            p.chunk_start = Some(now);
        }
    }

    /// Request `id`'s service completed (response handed to the NIC).
    /// Splits the application span into preemption gaps, wake debt,
    /// ideal service and P-state stall; the four slices sum exactly
    /// to `now − app_start`.
    #[inline]
    pub fn app_finish(&mut self, id: u64, now: SimTime) {
        if let Some(p) = self.pending.get_mut(&id) {
            if let Some(start) = p.chunk_start.take() {
                p.executed += now.saturating_since(start);
            }
            let span = now.saturating_since(p.app_start);
            let executed = p.executed.min(span);
            // Cache-refill debt is paid inside the chunk; integer
            // rounding in DVFS re-timing can shave a few ns, so each
            // slice saturates and the residual folds into the next.
            let wake_extra = p.debt.min(executed);
            let net = executed - wake_extra;
            let stall = net.saturating_sub(p.ideal);
            let service = net - stall;
            p.breakdown.add(Stage::Preempt, span - executed);
            p.breakdown.add(Stage::CstateWake, wake_extra);
            p.breakdown.add(Stage::AppService, service);
            p.breakdown.add(Stage::PstateStall, stall);
            p.finished_at = now;
        }
    }

    /// The response for request `id` arrived back at the client:
    /// closes the breakdown (return-path wire time), verifies the
    /// conservation identity against the measured latency, folds the
    /// request into the aggregates, and returns the result. `None`
    /// when the request was never tracked.
    #[inline]
    pub fn completed(&mut self, id: u64, now: SimTime) -> Option<CompletedAttrib> {
        let mut p = self.pending.remove(&id)?;
        p.breakdown
            .add(Stage::Wire, now.saturating_since(p.finished_at));
        let e2e_ns = now.saturating_since(p.sent_at).as_nanos();
        let total = p.breakdown.total_ns();
        let matches = total == e2e_ns;
        self.agg.requests += 1;
        self.agg.mismatches += (!matches) as u64;
        self.agg.attributed_total_ns = self.agg.attributed_total_ns.saturating_add(total);
        self.agg.e2e_total_ns = self.agg.e2e_total_ns.saturating_add(e2e_ns);
        for (stage, ns) in p.breakdown.iter() {
            let slot = &mut self.agg.sums_ns[stage as usize];
            *slot = slot.saturating_add(ns);
            self.agg.hists[stage as usize].record(ns);
            self.agg.log2[stage as usize].observe(ns);
        }
        Some(CompletedAttrib {
            breakdown: p.breakdown,
            core: p.core,
            e2e_ns,
            matches,
        })
    }

    /// Completed requests attributed so far.
    pub fn requests(&self) -> u64 {
        self.agg.requests
    }

    /// Requests whose stage sums failed the conservation identity
    /// (audited to be 0).
    pub fn mismatches(&self) -> u64 {
        self.agg.mismatches
    }

    /// Total attributed nanoseconds across completed requests (the
    /// ledger cross-checks this against measured latency).
    pub fn attributed_total_ns(&self) -> u64 {
        self.agg.attributed_total_ns
    }

    /// Requests currently tracked but not yet completed.
    pub fn pending(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Cumulative per-mille share of `stage` over all completed
    /// requests (0 with no data) — trace-counter material.
    pub fn share_permille(&self, stage: Stage) -> u64 {
        if self.agg.attributed_total_ns == 0 {
            return 0;
        }
        self.agg.sums_ns[stage as usize] * 1_000 / self.agg.attributed_total_ns
    }

    /// Exports the per-stage histograms of every completed request
    /// into `m`, one under each [`Stage::metric_key`] — the same
    /// samples a per-response [`MetricsRegistry::observe`] of each
    /// stage would have recorded. Exports nothing until a request has
    /// completed. Replaces (rather than adds to) earlier exports, so
    /// calling it twice is harmless.
    pub fn record_metrics(&self, m: &mut MetricsRegistry) {
        if self.agg.requests > 0 {
            for stage in Stage::ALL {
                m.set_histogram(stage.metric_key(), &self.agg.log2[stage as usize]);
            }
        }
    }

    /// Freezes the aggregates into an [`AttribSummary`].
    pub fn summary(&self) -> AttribSummary {
        AttribSummary {
            requests: self.agg.requests,
            pending: self.pending.len() as u64,
            mismatches: self.agg.mismatches,
            attributed_total_ns: self.agg.attributed_total_ns,
            e2e_total_ns: self.agg.e2e_total_ns,
            stages: Stage::ALL
                .iter()
                .map(|&stage| {
                    let h = &self.agg.hists[stage as usize];
                    StageSummary {
                        stage,
                        sum_ns: self.agg.sums_ns[stage as usize],
                        p50_ns: h.value_at_quantile(0.50),
                        p99_ns: h.value_at_quantile(0.99),
                        max_ns: h.max(),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn ring_partition_covers_full_chain() {
        // enqueue 0 → irq 10 → wake 14 → hardirq done 16 →
        // ksoftirqd queued 20, running 25 → claim 30.
        let marks = ChainMarks {
            irq_at: Some(t(10)),
            wake_end: Some(t(14)),
            hardirq_end: Some(t(16)),
            ksoftirqd_queued: Some(t(20)),
            ksoftirqd_running: Some(t(25)),
        };
        let mut b = Breakdown::default();
        attribute_ring(&mut b, t(0), t(30), &marks);
        assert_eq!(b.get_ns(Stage::ItrDelay), d(10).as_nanos());
        assert_eq!(b.get_ns(Stage::CstateWake), d(4).as_nanos());
        assert_eq!(b.get_ns(Stage::IrqDispatch), d(2).as_nanos());
        assert_eq!(b.get_ns(Stage::RingWait), d(4 + 5).as_nanos());
        assert_eq!(b.get_ns(Stage::KsoftirqdSched), d(5).as_nanos());
        assert_eq!(b.total_ns(), d(30).as_nanos(), "slices sum exactly");
    }

    #[test]
    fn stale_marks_clamp_to_zero() {
        // The packet arrived long after this chain's marks: everything
        // before its enqueue collapses and the residency is RingWait.
        let marks = ChainMarks {
            irq_at: Some(t(10)),
            wake_end: Some(t(14)),
            hardirq_end: Some(t(16)),
            ksoftirqd_queued: Some(t(20)),
            ksoftirqd_running: Some(t(25)),
        };
        let mut b = Breakdown::default();
        attribute_ring(&mut b, t(100), t(130), &marks);
        assert_eq!(b.get_ns(Stage::RingWait), d(30).as_nanos());
        assert_eq!(b.total_ns(), d(30).as_nanos());
    }

    #[test]
    fn marks_past_claim_clamp_to_claim() {
        // Claim happens mid-chain (softirq claims while ksoftirqd
        // marks point later from an older chain): nothing overshoots.
        let marks = ChainMarks {
            irq_at: Some(t(10)),
            wake_end: None,
            hardirq_end: Some(t(50)),
            ksoftirqd_queued: None,
            ksoftirqd_running: None,
        };
        let mut b = Breakdown::default();
        attribute_ring(&mut b, t(0), t(20), &marks);
        assert_eq!(b.get_ns(Stage::ItrDelay), d(10).as_nanos());
        assert_eq!(b.get_ns(Stage::IrqDispatch), d(10).as_nanos());
        assert_eq!(b.total_ns(), d(20).as_nanos());
    }

    #[test]
    fn full_request_lifecycle_is_exact() {
        let mut tr = AttribTracker::new();
        let marks = ChainMarks {
            irq_at: Some(t(110)),
            wake_end: Some(t(113)),
            hardirq_end: Some(t(114)),
            ..ChainMarks::default()
        };
        // sent 0, enqueued 100 (wire 100), claimed 120, delivered 125,
        // app start 130 (queue 5), preempted 140–150, finish 170,
        // received 200 (wire 30).
        tr.claimed(7, t(0), t(100), t(120), &marks);
        tr.delivered(7, t(125));
        tr.app_start(7, 3, t(130), d(2), d(20));
        tr.app_pause(7, t(140));
        tr.app_resume(7, t(150));
        tr.app_finish(7, t(170));
        let done = tr.completed(7, t(200));
        let done = done.expect("tracked request completes");
        assert!(done.matches, "stage sums must equal e2e");
        assert_eq!(done.e2e_ns, d(200).as_nanos());
        assert_eq!(done.core, 3);
        let b = &done.breakdown;
        assert_eq!(b.get_ns(Stage::Wire), d(130).as_nanos());
        assert_eq!(b.get_ns(Stage::ItrDelay), d(10).as_nanos());
        // Ring wake slice (3) plus the app chunk's cache debt (2).
        assert_eq!(b.get_ns(Stage::CstateWake), d(5).as_nanos());
        assert_eq!(b.get_ns(Stage::IrqDispatch), d(1).as_nanos());
        assert_eq!(b.get_ns(Stage::RingWait), d(6).as_nanos());
        assert_eq!(b.get_ns(Stage::PollBatch), d(5).as_nanos());
        assert_eq!(b.get_ns(Stage::AppQueue), d(5).as_nanos());
        assert_eq!(b.get_ns(Stage::Preempt), d(10).as_nanos());
        assert_eq!(b.get_ns(Stage::AppService), d(20).as_nanos());
        // Executed 30 wall − 2 debt − 20 ideal = 8 of DVFS slowdown.
        assert_eq!(b.get_ns(Stage::PstateStall), d(8).as_nanos());
        assert_eq!(tr.requests(), 1);
        assert_eq!(tr.mismatches(), 0);
        assert_eq!(tr.pending(), 0);
        let summary = tr.summary();
        assert_eq!(summary.attributed_total_ns, summary.e2e_total_ns);
        assert!((summary.share(Stage::Wire) - 0.65).abs() < 1e-9);
        assert_eq!(
            summary.stage(Stage::AppService).unwrap().max_ns,
            d(20).as_nanos()
        );
    }

    #[test]
    fn untracked_completion_returns_none() {
        let mut tr = AttribTracker::new();
        assert!(tr.completed(99, t(10)).is_none());
        // Updates on unknown ids are silently ignored.
        tr.delivered(99, t(10));
        tr.app_finish(99, t(10));
        assert_eq!(tr.pending(), 0);
    }

    #[test]
    fn service_shorter_than_ideal_folds_into_service() {
        // DVFS re-timing rounding can make the executed wall a hair
        // shorter than the ideal; the residual must fold into
        // AppService, keeping the sum exact with no underflow.
        let mut tr = AttribTracker::new();
        tr.claimed(1, t(0), t(10), t(20), &ChainMarks::default());
        tr.delivered(1, t(21));
        tr.app_start(1, 0, t(22), SimDuration::ZERO, d(100));
        tr.app_finish(1, t(30)); // executed 8 < ideal 100
        let done = tr.completed(1, t(40));
        if let Some(done) = done {
            assert!(done.matches);
            assert_eq!(done.breakdown.get_ns(Stage::AppService), d(8).as_nanos());
            assert_eq!(done.breakdown.get_ns(Stage::PstateStall), 0);
        }
    }

    #[test]
    fn share_permille_tracks_cumulative_sums() {
        let mut tr = AttribTracker::new();
        tr.claimed(1, t(0), t(10), t(10), &ChainMarks::default());
        tr.delivered(1, t(10));
        tr.app_start(1, 0, t(10), SimDuration::ZERO, d(10));
        tr.app_finish(1, t(20));
        tr.completed(1, t(30));
        // wire 10 + 10, service 10 → service is one third.
        assert_eq!(tr.share_permille(Stage::AppService), 333);
        assert_eq!(tr.share_permille(Stage::Wire), 666);
    }
}
