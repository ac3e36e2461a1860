//! The multi-queue NIC with interrupt moderation.
//!
//! Models the Intel 82599 of the paper's testbed (§6.1, §5.1):
//!
//! * one Rx descriptor ring and one Tx-completion ring per queue,
//!   sharing a single interrupt vector (as with `ixgbe` MSI-X);
//! * **interrupt moderation** (ITR): interrupts on one vector are
//!   spaced at least `itr` apart — 10 µs for the 82599, which is why
//!   the paper's §5.1 argues per-request DVFS needs sub-10 µs V/F
//!   transitions;
//! * per-queue IRQ masking, driven by NAPI: the softirq disables the
//!   queue's IRQ when it enters polling mode and re-enables it when
//!   the rings drain.
//!
//! The NIC never touches the event queue itself; methods return the
//! time at which an IRQ should fire and the caller schedules it.

use crate::packet::FlowId;
use crate::packet::Packet;
use crate::ring::DescRing;
use crate::rss::RssHasher;
use simcore::{EventLog, SimDuration, SimTime};

/// Index of a NIC queue (= index of the core it interrupts, with the
/// usual one-queue-per-core affinity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueueId(pub usize);

/// NIC construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct NicConfig {
    /// Number of Rx/Tx queue pairs.
    pub queues: usize,
    /// Rx descriptor ring size per queue.
    pub rx_ring_size: usize,
    /// Tx-completion ring size per queue.
    pub tx_ring_size: usize,
}

impl NicConfig {
    /// The 82599 defaults as the `ixgbe` driver configures them:
    /// 1024-descriptor rings, adaptive interrupt moderation.
    pub fn intel_82599(queues: usize) -> Self {
        NicConfig {
            queues,
            rx_ring_size: 1024,
            tx_ring_size: 1024,
        }
    }
}

/// Result of an Rx enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxOutcome {
    /// False if the ring was full and the packet was dropped.
    pub accepted: bool,
    /// If set, the caller must deliver an IRQ to the queue's core at
    /// this time (≥ now, delayed by ITR when needed).
    pub irq_at: Option<SimTime>,
}

/// An interrupt-vector state change, recorded per queue when the IRQ
/// log is enabled (see [`Nic::set_irq_log_enabled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrqMark {
    /// An IRQ was delivered to the queue's core.
    Fired,
    /// NAPI masked the vector on entering polling mode.
    Masked,
    /// NAPI unmasked the vector on leaving polling mode.
    Unmasked,
}

impl IrqMark {
    /// Static display label, for trace events that carry
    /// `&'static str` names.
    pub const fn label(self) -> &'static str {
        match self {
            IrqMark::Fired => "irq-fire",
            IrqMark::Masked => "irq-mask",
            IrqMark::Unmasked => "irq-unmask",
        }
    }
}

/// What one NAPI poll retrieved.
#[derive(Debug, Clone)]
pub struct PollResult {
    /// Rx packets drained, oldest first.
    pub rx: Vec<Packet>,
    /// Number of Tx completions cleaned.
    pub tx_cleaned: usize,
}

#[derive(Debug, Clone)]
struct Queue {
    rx: DescRing<Packet>,
    tx_clean: DescRing<()>,
    irq_enabled: bool,
    irq_pending: bool,
    last_irq: Option<SimTime>,
    irqs_raised: u64,
    /// Rx packets handed to NAPI polls.
    rx_polled: u64,
    /// Request-kind packets lost to Rx ring overflow (the drop counter
    /// on the ring itself counts every packet kind).
    rx_req_dropped: u64,
    /// Descriptors seen since the last delivered IRQ (adaptive ITR).
    descs_since_irq: u64,
    /// Current adaptive spacing.
    current_itr: SimDuration,
    /// Deepest Rx-ring occupancy ever observed.
    rx_high_water: usize,
    /// IRQ fire/mask/unmask marks with Rx occupancy, recorded only
    /// when the owning NIC's IRQ log is enabled.
    irq_log: EventLog<(IrqMark, u32)>,
}

impl Queue {
    fn has_work(&self) -> bool {
        !self.rx.is_empty() || !self.tx_clean.is_empty()
    }
}

/// The NIC device.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Nic {
    config: NicConfig,
    queues: Vec<Queue>,
    rss: RssHasher,
    /// Whether per-queue IRQ marks are recorded (off by default so
    /// non-tracing runs pay no log growth).
    irq_log_enabled: bool,
    /// Fault-injected ITR misconfiguration: while set, moderation uses
    /// this spacing on every queue regardless of mode.
    itr_override: Option<SimDuration>,
    /// Fault-injected Rx pressure: while set, rings behave as if their
    /// capacity were this value (when tighter than the real capacity).
    rx_capacity_clamp: Option<usize>,
}

impl Nic {
    /// Creates a NIC from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.queues` is zero.
    pub fn new(config: NicConfig) -> Self {
        assert!(config.queues > 0, "need at least one queue");
        let queues = (0..config.queues)
            .map(|_| Queue {
                rx: DescRing::new(config.rx_ring_size),
                tx_clean: DescRing::new(config.tx_ring_size),
                irq_enabled: true,
                irq_pending: false,
                last_irq: None,
                irqs_raised: 0,
                rx_polled: 0,
                rx_req_dropped: 0,
                descs_since_irq: 0,
                current_itr: SimDuration::from_micros(10),
                rx_high_water: 0,
                irq_log: EventLog::new(),
            })
            .collect();
        Nic {
            queues,
            rss: RssHasher::new(config.queues),
            config,
            irq_log_enabled: false,
            itr_override: None,
            rx_capacity_clamp: None,
        }
    }

    /// Forces every queue's interrupt moderation to `itr` (fault
    /// injection: a misconfigured ITR register). `None` restores
    /// normal moderation — the configured spacing is re-derived at the
    /// next delivered IRQ.
    pub fn set_itr_override(&mut self, itr: Option<SimDuration>) {
        self.itr_override = itr;
        if let Some(itr) = itr {
            for q in &mut self.queues {
                q.current_itr = itr;
            }
        }
    }

    /// Clamps every Rx ring to an effective capacity (fault injection:
    /// overflow pressure). `None` restores the configured ring size.
    pub fn set_rx_capacity_clamp(&mut self, clamp: Option<usize>) {
        self.rx_capacity_clamp = clamp;
    }

    /// Number of queues.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// The configuration this NIC was built with.
    pub fn config(&self) -> &NicConfig {
        &self.config
    }

    /// The RSS queue for a flow.
    pub fn rss_queue(&self, flow: FlowId) -> QueueId {
        self.rss.queue_for(flow)
    }

    /// When an IRQ may fire on `q` given the ITR window.
    fn irq_time(&self, q: QueueId, now: SimTime) -> SimTime {
        let queue = &self.queues[q.0];
        match queue.last_irq {
            Some(last) => now.max(last + queue.current_itr),
            None => now,
        }
    }

    /// Re-derives the adaptive ITR after an IRQ, from the descriptor
    /// count accumulated over the previous inter-interrupt window —
    /// the shape of ixgbe's `ixgbe_update_itr` buckets.
    fn update_itr(&mut self, q: QueueId, window: SimDuration) {
        let queue = &mut self.queues[q.0];
        let secs = window.as_secs_f64().max(1e-6);
        let rate = queue.descs_since_irq as f64 / secs;
        let new_itr = if rate < 20_000.0 {
            SimDuration::from_micros(10) // lowest latency
        } else if rate < 100_000.0 {
            SimDuration::from_micros(25) // low latency
        } else {
            SimDuration::from_micros(50) // bulk
        };
        queue.current_itr = self.itr_override.unwrap_or(new_itr);
        queue.descs_since_irq = 0;
    }

    /// Considers raising an IRQ on `q`; returns the fire time if one
    /// was armed (IRQs enabled, none already pending).
    fn maybe_arm_irq(&mut self, q: QueueId, now: SimTime) -> Option<SimTime> {
        let fire_at = self.irq_time(q, now);
        let queue = &mut self.queues[q.0];
        if !queue.irq_enabled || queue.irq_pending || !queue.has_work() {
            return None;
        }
        queue.irq_pending = true;
        Some(fire_at)
    }

    /// A packet arrives from the wire into `q`'s Rx ring.
    pub fn enqueue_rx(&mut self, q: QueueId, mut pkt: Packet, now: SimTime) -> RxOutcome {
        pkt.nic_rx_at = now;
        let pushed = match self.rx_capacity_clamp {
            Some(cap) => self.queues[q.0].rx.push_clamped(pkt, cap),
            None => self.queues[q.0].rx.push(pkt),
        };
        if let Err(lost) = pushed {
            if lost.kind == crate::packet::PacketKind::Request {
                self.queues[q.0].rx_req_dropped += 1;
            }
            return RxOutcome {
                accepted: false,
                irq_at: None,
            };
        }
        let queue = &mut self.queues[q.0];
        queue.descs_since_irq += 1;
        queue.rx_high_water = queue.rx_high_water.max(queue.rx.len());
        RxOutcome {
            accepted: true,
            irq_at: self.maybe_arm_irq(q, now),
        }
    }

    /// The driver transmits a packet on `q`. The packet goes on the
    /// wire immediately (the caller applies link delay); a Tx
    /// completion descriptor lands in the queue's clean ring and may
    /// raise an IRQ like Rx work does (shared vector).
    pub fn enqueue_tx(&mut self, q: QueueId, pkt: &Packet, now: SimTime) -> Option<SimTime> {
        self.enqueue_tx_with_completions(q, pkt, 1, now)
    }

    /// Like [`enqueue_tx`](Nic::enqueue_tx) for a payload that leaves
    /// as `segments` wire segments (large responses): one Tx
    /// completion descriptor lands per segment.
    pub fn enqueue_tx_with_completions(
        &mut self,
        q: QueueId,
        _pkt: &Packet,
        segments: usize,
        now: SimTime,
    ) -> Option<SimTime> {
        // A full clean ring loses only bookkeeping work, never data.
        for _ in 0..segments {
            let _ = self.queues[q.0].tx_clean.push(());
        }
        self.queues[q.0].descs_since_irq += segments as u64;
        self.maybe_arm_irq(q, now)
    }

    /// The scheduled IRQ for `q` fires now. Returns `true` if the IRQ
    /// is delivered (it is suppressed if NAPI disabled the vector
    /// while the IRQ was in flight, as the hardware mask would).
    pub fn irq_fired(&mut self, q: QueueId, now: SimTime) -> bool {
        let queue = &mut self.queues[q.0];
        queue.irq_pending = false;
        if !queue.irq_enabled {
            return false;
        }
        let window = match queue.last_irq {
            Some(last) => now.saturating_since(last),
            None => SimDuration::from_micros(100),
        };
        queue.last_irq = Some(now);
        queue.irqs_raised += 1;
        if self.irq_log_enabled {
            let backlog = queue.rx.len() as u32;
            queue.irq_log.push(now, (IrqMark::Fired, backlog));
        }
        self.update_itr(q, window);
        true
    }

    /// The spacing the moderation currently enforces on `q`.
    pub fn current_itr(&self, q: QueueId) -> SimDuration {
        self.queues[q.0].current_itr
    }

    /// NAPI disables `q`'s IRQ on entering polling mode.
    pub fn disable_irq(&mut self, q: QueueId, now: SimTime) {
        let queue = &mut self.queues[q.0];
        queue.irq_enabled = false;
        if self.irq_log_enabled {
            let backlog = queue.rx.len() as u32;
            queue.irq_log.push(now, (IrqMark::Masked, backlog));
        }
    }

    /// NAPI re-enables `q`'s IRQ on leaving polling mode. If work
    /// arrived during the final poll (the classic race), an IRQ is
    /// armed immediately and its fire time returned.
    pub fn enable_irq(&mut self, q: QueueId, now: SimTime) -> Option<SimTime> {
        let queue = &mut self.queues[q.0];
        queue.irq_enabled = true;
        if self.irq_log_enabled {
            let backlog = queue.rx.len() as u32;
            queue.irq_log.push(now, (IrqMark::Unmasked, backlog));
        }
        self.maybe_arm_irq(q, now)
    }

    /// True if `q`'s IRQ vector is enabled.
    pub fn irq_enabled(&self, q: QueueId) -> bool {
        self.queues[q.0].irq_enabled
    }

    /// One NAPI poll on `q`: cleans Tx completions first (cheap), then
    /// drains Rx packets, together bounded by `budget` descriptors.
    pub fn poll(&mut self, q: QueueId, budget: usize) -> PollResult {
        let mut rx = Vec::new();
        let tx_cleaned = self.poll_into(q, budget, &mut rx);
        PollResult { rx, tx_cleaned }
    }

    /// [`poll`](Nic::poll) into a caller-owned buffer: appends the
    /// drained Rx packets to `rx` (oldest first) and returns the
    /// number of Tx completions cleaned. Reusing `rx` across polls
    /// keeps the per-poll path allocation-free.
    pub fn poll_into(&mut self, q: QueueId, budget: usize, rx: &mut Vec<Packet>) -> usize {
        let queue = &mut self.queues[q.0];
        let tx_cleaned = queue.tx_clean.drain_up_to(budget).count();
        let before = rx.len();
        rx.extend(queue.rx.drain_up_to(budget - tx_cleaned));
        queue.rx_polled += (rx.len() - before) as u64;
        tx_cleaned
    }

    /// Rx descriptors waiting on `q`.
    pub fn rx_backlog(&self, q: QueueId) -> usize {
        self.queues[q.0].rx.len()
    }

    /// Tx completions waiting on `q`.
    pub fn tx_backlog(&self, q: QueueId) -> usize {
        self.queues[q.0].tx_clean.len()
    }

    /// True if `q` has any pending descriptors.
    pub fn has_work(&self, q: QueueId) -> bool {
        self.queues[q.0].has_work()
    }

    /// Packets dropped on `q` due to Rx ring overflow.
    pub fn rx_dropped(&self, q: QueueId) -> u64 {
        self.queues[q.0].rx.dropped()
    }

    /// Total packets dropped across all queues.
    pub fn total_rx_dropped(&self) -> u64 {
        self.queues.iter().map(|q| q.rx.dropped()).sum()
    }

    /// IRQs delivered on `q`.
    pub fn irqs_raised(&self, q: QueueId) -> u64 {
        self.queues[q.0].irqs_raised
    }

    /// Total packets accepted into Rx rings across all queues.
    pub fn total_rx_enqueued(&self) -> u64 {
        self.queues.iter().map(|q| q.rx.total_enqueued()).sum()
    }

    /// Total Rx packets handed to NAPI polls across all queues.
    pub fn total_rx_polled(&self) -> u64 {
        self.queues.iter().map(|q| q.rx_polled).sum()
    }

    /// Request-kind packets lost to Rx overflow across all queues
    /// (subset of [`total_rx_dropped`](Nic::total_rx_dropped), which
    /// counts every packet kind).
    pub fn total_rx_req_dropped(&self) -> u64 {
        self.queues.iter().map(|q| q.rx_req_dropped).sum()
    }

    /// Tx completion descriptors lost to full clean rings across all
    /// queues (bookkeeping-only loss; the packet itself still leaves).
    pub fn total_tx_dropped(&self) -> u64 {
        self.queues.iter().map(|q| q.tx_clean.dropped()).sum()
    }

    /// Request-kind packets currently sitting in Rx rings across all
    /// queues — accepted from the wire, not yet polled.
    pub fn total_rx_backlog_requests(&self) -> u64 {
        self.queues
            .iter()
            .map(|q| {
                q.rx.iter()
                    .filter(|p| p.kind == crate::packet::PacketKind::Request)
                    .count() as u64
            })
            .sum()
    }

    /// Turns per-queue IRQ mark recording on or off. Off by default:
    /// a non-tracing run keeps every log empty.
    pub fn set_irq_log_enabled(&mut self, enabled: bool) {
        self.irq_log_enabled = enabled;
    }

    /// The IRQ fire/mask/unmask marks recorded on `q` (empty unless
    /// [`set_irq_log_enabled`](Nic::set_irq_log_enabled) was called).
    /// Each mark carries the Rx-ring occupancy at that instant.
    pub fn irq_log(&self, q: QueueId) -> &EventLog<(IrqMark, u32)> {
        &self.queues[q.0].irq_log
    }

    /// Deepest Rx-ring occupancy observed on `q`.
    pub fn rx_high_water(&self, q: QueueId) -> usize {
        self.queues[q.0].rx_high_water
    }

    /// Replays every queue's IRQ marks into `buf` as instants on the
    /// `irq` category track of the queue's core (queue *i* interrupts
    /// core *i* under the one-queue-per-core affinity).
    pub fn trace_into(&self, buf: &mut simcore::TraceBuffer) {
        if !buf.is_recording() {
            return;
        }
        for (i, q) in self.queues.iter().enumerate() {
            for &(t, (mark, backlog)) in q.irq_log.entries() {
                buf.instant(
                    t,
                    simcore::TraceCategory::Irq,
                    i as u32,
                    mark.label(),
                    backlog as i64,
                );
            }
        }
    }

    /// Reports NIC-level totals into the metrics registry.
    pub fn record_metrics(&self, m: &mut simcore::MetricsRegistry) {
        m.set_counter("nic.rx_enqueued", self.total_rx_enqueued());
        m.set_counter("nic.rx_polled", self.total_rx_polled());
        m.set_counter("nic.rx_dropped", self.total_rx_dropped());
        m.set_counter("nic.rx_req_dropped", self.total_rx_req_dropped());
        m.set_counter("nic.tx_dropped", self.total_tx_dropped());
        m.set_counter(
            "nic.irqs_raised",
            self.queues.iter().map(|q| q.irqs_raised).sum(),
        );
        m.set_counter(
            "nic.rx_ring_high_water",
            self.queues
                .iter()
                .map(|q| q.rx_high_water as u64)
                .max()
                .unwrap_or(0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, RequestId};

    fn pkt(n: u64) -> Packet {
        Packet::request(RequestId(n), FlowId(n), 64, SimTime::ZERO)
    }

    fn nic() -> Nic {
        Nic::new(NicConfig::intel_82599(2))
    }

    #[test]
    fn first_packet_raises_immediate_irq() {
        let mut n = nic();
        let out = n.enqueue_rx(QueueId(0), pkt(1), SimTime::from_micros(3));
        assert!(out.accepted);
        assert_eq!(out.irq_at, Some(SimTime::from_micros(3)));
    }

    #[test]
    fn itr_spaces_interrupts() {
        let mut n = nic();
        let q = QueueId(0);
        let t0 = SimTime::from_micros(0);
        let out = n.enqueue_rx(q, pkt(1), t0);
        let fire1 = out.irq_at.unwrap();
        assert!(n.irq_fired(q, fire1));
        // Drain so the next packet re-arms.
        n.poll(q, 64);
        // A packet 2 µs later must wait for the 10 µs ITR window.
        let t1 = SimTime::from_micros(2);
        let out2 = n.enqueue_rx(q, pkt(2), t1);
        assert_eq!(out2.irq_at, Some(SimTime::from_micros(10)));
    }

    #[test]
    fn no_second_irq_while_pending() {
        let mut n = nic();
        let q = QueueId(0);
        let out1 = n.enqueue_rx(q, pkt(1), SimTime::ZERO);
        assert!(out1.irq_at.is_some());
        let out2 = n.enqueue_rx(q, pkt(2), SimTime::ZERO);
        assert_eq!(out2.irq_at, None, "IRQ already pending");
    }

    #[test]
    fn masked_vector_suppresses_inflight_irq() {
        let mut n = nic();
        let q = QueueId(0);
        let fire = n.enqueue_rx(q, pkt(1), SimTime::ZERO).irq_at.unwrap();
        n.disable_irq(q, SimTime::ZERO);
        assert!(!n.irq_fired(q, fire), "IRQ must be suppressed by the mask");
        assert_eq!(n.irqs_raised(q), 0);
    }

    #[test]
    fn no_irq_while_disabled_and_reenable_rearms() {
        let mut n = nic();
        let q = QueueId(0);
        n.disable_irq(q, SimTime::ZERO);
        let out = n.enqueue_rx(q, pkt(1), SimTime::from_micros(1));
        assert!(out.accepted);
        assert_eq!(out.irq_at, None);
        // Re-enable with work pending → immediate IRQ.
        let irq = n.enable_irq(q, SimTime::from_micros(5));
        assert_eq!(irq, Some(SimTime::from_micros(5)));
    }

    #[test]
    fn reenable_with_empty_rings_stays_quiet() {
        let mut n = nic();
        let q = QueueId(0);
        n.disable_irq(q, SimTime::ZERO);
        assert_eq!(n.enable_irq(q, SimTime::from_micros(5)), None);
    }

    #[test]
    fn poll_budget_covers_tx_then_rx() {
        let mut n = nic();
        let q = QueueId(0);
        n.disable_irq(q, SimTime::ZERO);
        for i in 0..10 {
            n.enqueue_rx(q, pkt(i), SimTime::ZERO);
        }
        for i in 0..5 {
            n.enqueue_tx(q, &pkt(100 + i), SimTime::ZERO);
        }
        let r = n.poll(q, 8);
        assert_eq!(r.tx_cleaned, 5);
        assert_eq!(r.rx.len(), 3);
        assert_eq!(n.rx_backlog(q), 7);
        let r2 = n.poll(q, 64);
        assert_eq!(r2.rx.len(), 7);
        assert!(!n.has_work(q));
    }

    #[test]
    fn poll_into_matches_poll_and_reuses_the_buffer() {
        let fill = |n: &mut Nic| {
            for i in 0..10 {
                n.enqueue_rx(QueueId(0), pkt(i), SimTime::ZERO);
            }
            for i in 0..5 {
                n.enqueue_tx(QueueId(0), &pkt(100 + i), SimTime::ZERO);
            }
        };
        let (mut a, mut b) = (nic(), nic());
        fill(&mut a);
        fill(&mut b);
        let mut rx = Vec::with_capacity(16);
        let cap = rx.capacity();
        for budget in [8, 4, 64] {
            let want = a.poll(QueueId(0), budget);
            rx.clear();
            let tx = b.poll_into(QueueId(0), budget, &mut rx);
            assert_eq!((tx, &rx), (want.tx_cleaned, &want.rx));
        }
        assert_eq!(rx.capacity(), cap, "no regrowth within capacity");
        assert_eq!(a.total_rx_polled(), b.total_rx_polled());
    }

    #[test]
    fn overflow_drops_are_counted() {
        let mut n = Nic::new(NicConfig {
            queues: 1,
            rx_ring_size: 2,
            tx_ring_size: 2,
        });
        let q = QueueId(0);
        for i in 0..5 {
            n.enqueue_rx(q, pkt(i), SimTime::ZERO);
        }
        assert_eq!(n.rx_dropped(q), 3);
        assert_eq!(n.total_rx_dropped(), 3);
        assert_eq!(n.rx_backlog(q), 2);
    }

    #[test]
    fn queues_are_independent() {
        let mut n = nic();
        n.disable_irq(QueueId(0), SimTime::ZERO);
        let out = n.enqueue_rx(QueueId(1), pkt(1), SimTime::ZERO);
        assert!(out.irq_at.is_some(), "queue 1 unaffected by queue 0 mask");
    }

    #[test]
    fn adaptive_itr_widens_under_load_and_recovers() {
        let mut n = Nic::new(NicConfig::intel_82599(1));
        let q = QueueId(0);
        assert_eq!(
            n.current_itr(q),
            SimDuration::from_micros(10),
            "starts low-latency"
        );
        // Burst: 60 descriptors over 200 µs between two IRQs → 300K/s.
        let fire = n.enqueue_rx(q, pkt(0), SimTime::ZERO).irq_at.unwrap();
        n.irq_fired(q, fire);
        n.poll(q, 64);
        for i in 1..=60 {
            n.enqueue_rx(q, pkt(i), SimTime::from_micros(i * 3));
        }
        let fire2 = SimTime::from_micros(200);
        n.irq_fired(q, fire2);
        assert_eq!(
            n.current_itr(q),
            SimDuration::from_micros(50),
            "bulk regime"
        );
        n.poll(q, 64);
        // Quiet period: one packet in 10 ms → back to low latency.
        n.enqueue_rx(q, pkt(99), SimTime::from_millis(10));
        n.irq_fired(q, SimTime::from_millis(10));
        assert_eq!(n.current_itr(q), SimDuration::from_micros(10));
    }

    #[test]
    fn itr_override_pins_spacing_until_cleared() {
        let mut n = Nic::new(NicConfig::intel_82599(1));
        n.set_itr_override(Some(SimDuration::from_micros(10)));
        let q = QueueId(0);
        for i in 0..200 {
            n.enqueue_rx(q, pkt(i), SimTime::from_micros(i));
        }
        n.irq_fired(q, SimTime::from_micros(200));
        assert_eq!(n.current_itr(q), SimDuration::from_micros(10));
        // Cleared: the next IRQ re-derives the spacing from the load.
        n.set_itr_override(None);
        n.poll(q, 256);
        for i in 300..500 {
            n.enqueue_rx(q, pkt(i), SimTime::from_micros(i));
        }
        n.irq_fired(q, SimTime::from_micros(500));
        assert_eq!(n.current_itr(q), SimDuration::from_micros(50));
    }

    #[test]
    fn multi_segment_tx_counts_completions() {
        let mut n = nic();
        let q = QueueId(0);
        n.disable_irq(q, SimTime::ZERO);
        n.enqueue_tx_with_completions(q, &pkt(1), 6, SimTime::ZERO);
        assert_eq!(n.tx_backlog(q), 6);
        let r = n.poll(q, 64);
        assert_eq!(r.tx_cleaned, 6);
    }

    #[test]
    fn irq_log_records_marks_only_when_enabled() {
        let mut n = nic();
        let q = QueueId(0);
        // Disabled by default: nothing is recorded.
        let fire = n.enqueue_rx(q, pkt(1), SimTime::ZERO).irq_at.unwrap();
        n.irq_fired(q, fire);
        assert!(n.irq_log(q).is_empty());
        // Enabled: fire → mask → unmask marks land in order with the
        // ring occupancy attached.
        n.set_irq_log_enabled(true);
        let fire = n
            .enqueue_rx(q, pkt(2), SimTime::from_micros(100))
            .irq_at
            .unwrap();
        n.irq_fired(q, fire);
        n.disable_irq(q, fire);
        n.poll(q, 64);
        n.enable_irq(q, SimTime::from_micros(120));
        let marks: Vec<IrqMark> = n.irq_log(q).iter().map(|&(_, (m, _))| m).collect();
        assert_eq!(
            marks,
            vec![IrqMark::Fired, IrqMark::Masked, IrqMark::Unmasked]
        );
        let &(_, (_, backlog_at_fire)) = &n.irq_log(q).entries()[0];
        assert_eq!(backlog_at_fire, 2, "both packets still in the ring");
    }

    #[test]
    fn rx_high_water_tracks_deepest_occupancy() {
        let mut n = nic();
        let q = QueueId(0);
        n.disable_irq(q, SimTime::ZERO);
        for i in 0..7 {
            n.enqueue_rx(q, pkt(i), SimTime::ZERO);
        }
        n.poll(q, 64);
        n.enqueue_rx(q, pkt(99), SimTime::from_micros(5));
        assert_eq!(n.rx_high_water(q), 7, "high water survives the drain");
        assert_eq!(n.rx_high_water(QueueId(1)), 0);
    }

    #[test]
    fn rss_respects_queue_count() {
        let n = nic();
        for f in 0..100 {
            assert!(n.rss_queue(FlowId(f)).0 < n.num_queues());
        }
    }

    #[test]
    fn itr_minimum_interval_enforced_over_many_irqs() {
        // Drive a long arrival train through the full IRQ cycle and
        // check the hardware guarantee directly: consecutive delivered
        // IRQs are never closer than the ITR in force when the second
        // one was armed (pinned to 10 µs here — §5.1's floor).
        let itr = SimDuration::from_micros(10);
        let mut n = Nic::new(NicConfig::intel_82599(1));
        n.set_itr_override(Some(itr));
        let q = QueueId(0);
        let mut fired = Vec::new();
        let mut pending: Option<SimTime> = None;
        for i in 0..500u64 {
            let now = SimTime::from_micros(i * 3); // 3 µs spacing < ITR
            if let Some(fire) = pending.filter(|f| *f <= now) {
                assert!(n.irq_fired(q, fire));
                fired.push(fire);
                n.poll(q, 64);
                pending = None;
            }
            let out = n.enqueue_rx(q, pkt(i), now);
            if let Some(at) = out.irq_at {
                assert!(pending.is_none(), "only one IRQ in flight per vector");
                pending = Some(at);
            }
        }
        assert!(
            fired.len() > 100,
            "train must deliver many IRQs, got {}",
            fired.len()
        );
        for w in fired.windows(2) {
            let gap = w[1].saturating_since(w[0]);
            assert!(
                gap >= itr,
                "IRQs {:?} and {:?} only {gap:?} apart",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn conservation_counters_track_wire_ring_and_poll() {
        let mut n = Nic::new(NicConfig {
            queues: 1,
            rx_ring_size: 4,
            tx_ring_size: 4,
        });
        let q = QueueId(0);
        // 4 accepted, 3 dropped (of which the ack is not a request).
        for i in 0..6 {
            n.enqueue_rx(q, pkt(i), SimTime::ZERO);
        }
        n.enqueue_rx(q, Packet::ack_on(&pkt(9)), SimTime::ZERO);
        assert_eq!(n.total_rx_enqueued(), 4);
        assert_eq!(n.total_rx_dropped(), 3);
        assert_eq!(n.total_rx_req_dropped(), 2);
        assert_eq!(n.total_rx_backlog_requests(), 4);
        assert_eq!(n.total_rx_polled(), 0);
        // Partial poll moves packets from ring to polled.
        let r = n.poll(q, 3);
        assert_eq!(r.rx.len(), 3);
        assert_eq!(n.total_rx_polled(), 3);
        assert_eq!(n.total_rx_backlog_requests(), 1);
        // Wire conservation at any instant: enqueued == polled + in-ring.
        assert_eq!(
            n.total_rx_enqueued(),
            n.total_rx_polled() + n.rx_backlog(q) as u64
        );
        n.poll(q, 64);
        assert_eq!(n.total_rx_polled(), 4);
        assert_eq!(n.total_rx_backlog_requests(), 0);
    }
}
