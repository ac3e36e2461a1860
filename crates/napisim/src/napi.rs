//! The NAPI interrupt/polling mode state machine.
//!
//! One [`NapiContext`] exists per NIC queue (and therefore per core
//! with one-queue-per-core affinity). It tracks:
//!
//! * the current **mode** — interrupt vs polling — with a counted
//!   transition log (the signal NMAP consumes);
//! * per-mode packet counters (Fig 2's stacked bars, Algorithm 1's
//!   `pkt_poll` / `pkt_intr`);
//! * the softirq handoff conditions that wake **ksoftirqd**.
//!
//! Mode semantics follow §2.1/Fig 1: the first poll after an IRQ
//! processes packets *in interrupt mode*; if the queue is not drained,
//! NAPI stays active with the IRQ masked and subsequent iterations
//! (and everything ksoftirqd does) process packets *in polling mode*.
//! Draining the queue completes NAPI and returns to interrupt mode.

use crate::params::StackParams;
use simcore::{EventLog, SimDuration, SimTime};

/// The packet-processing mode of one NAPI context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NapiMode {
    /// IRQ enabled; packets processed in bounded batches per IRQ.
    Interrupt,
    /// IRQ masked; the softirq/ksoftirqd repeatedly polls the rings.
    Polling,
}

impl NapiMode {
    /// Static display label, for trace events that carry
    /// `&'static str` names.
    pub const fn label(self) -> &'static str {
        match self {
            NapiMode::Interrupt => "interrupt",
            NapiMode::Polling => "polling",
        }
    }
}

/// Who is running the poll loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcContext {
    /// The softirq handler (runs above threads).
    SoftIrq,
    /// The ksoftirqd kernel thread (scheduled like a normal thread).
    Ksoftirqd,
}

/// Which mode the descriptors of one poll batch are attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PollClass {
    /// Counted as interrupt-mode packets.
    Interrupt,
    /// Counted as polling-mode packets.
    Polling,
}

/// What the poll loop must do after a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PollVerdict {
    /// Keep polling (work remains, limits not hit).
    Continue,
    /// Rings drained: NAPI completed, IRQ must be re-enabled.
    Complete,
    /// Softirq limits exceeded: wake ksoftirqd and exit the softirq.
    Handoff,
}

/// Outcome of recording one poll batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollOutcome {
    /// Mode the batch was attributed to.
    pub class: PollClass,
    /// What to do next.
    pub verdict: PollVerdict,
}

/// Per-queue NAPI state machine.
///
/// # Examples
///
/// ```
/// use napisim::{NapiContext, NapiMode, PollClass, PollVerdict, ProcContext, StackParams};
/// use simcore::SimTime;
///
/// let params = StackParams::linux_defaults();
/// let mut napi = NapiContext::new(params);
/// napi.on_irq(SimTime::ZERO);
/// // First poll after the IRQ: interrupt mode; queue not drained.
/// let out = napi.record_poll(64, 0, false, false, ProcContext::SoftIrq, SimTime::from_micros(60));
/// assert_eq!(out.class, PollClass::Interrupt);
/// assert_eq!(out.verdict, PollVerdict::Continue);
/// assert_eq!(napi.mode(), NapiMode::Polling); // stayed active → polling
/// ```
#[derive(Debug, Clone)]
pub struct NapiContext {
    params: StackParams,
    mode: NapiMode,
    /// True while NAPI is scheduled (IRQ masked, poll loop active).
    active: bool,
    first_poll_pending: bool,
    softirq_started: Option<SimTime>,
    softirq_descriptors: usize,
    nonempty_iters: u32,
    ksoftirqd_running: bool,
    // --- counters ---
    total_intr_pkts: u64,
    total_poll_pkts: u64,
    // Count-only until `set_log_recording(true)`: only traces read
    // the entries.
    mode_log: EventLog<NapiMode>,
    intr_pkt_log: EventLog<u64>,
    poll_pkt_log: EventLog<u64>,
}

impl NapiContext {
    /// Creates a context in interrupt mode. Its logs count every
    /// transition and batch but keep no entries until
    /// [`set_log_recording`](Self::set_log_recording) turns them on.
    pub fn new(params: StackParams) -> Self {
        NapiContext {
            params,
            mode: NapiMode::Interrupt,
            active: false,
            first_poll_pending: false,
            softirq_started: None,
            softirq_descriptors: 0,
            nonempty_iters: 0,
            ksoftirqd_running: false,
            total_intr_pkts: 0,
            total_poll_pkts: 0,
            mode_log: EventLog::counting(),
            intr_pkt_log: EventLog::counting(),
            poll_pkt_log: EventLog::counting(),
        }
    }

    /// The current mode.
    pub fn mode(&self) -> NapiMode {
        self.mode
    }

    /// True while the poll loop owns the queue (IRQ masked).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// True if ksoftirqd currently owns the poll loop.
    pub fn ksoftirqd_running(&self) -> bool {
        self.ksoftirqd_running
    }

    /// The stack parameters.
    pub fn params(&self) -> &StackParams {
        &self.params
    }

    /// An IRQ was delivered: NAPI is scheduled and the softirq will
    /// start polling. The caller masks the NIC IRQ.
    ///
    /// # Panics
    ///
    /// Panics if NAPI is already active (the IRQ should have been
    /// masked).
    pub fn on_irq(&mut self, now: SimTime) {
        assert!(!self.active, "IRQ delivered while NAPI active");
        self.active = true;
        self.first_poll_pending = true;
        self.softirq_started = Some(now);
        self.softirq_descriptors = 0;
        self.nonempty_iters = 0;
    }

    fn set_mode(&mut self, mode: NapiMode, now: SimTime) {
        if self.mode != mode {
            self.mode = mode;
            self.mode_log.push(now, mode);
        }
    }

    /// Records a completed poll batch of `rx` Rx descriptors and `tx`
    /// Tx cleans finishing at `now`. `drained` means the rings are
    /// now empty (the poll returned less than the full weight).
    /// `resched` signals that a runnable thread is waiting on this
    /// core (§2.1 handoff condition 3).
    ///
    /// Returns the mode attribution and the next action. When the
    /// verdict is [`PollVerdict::Handoff`], the caller wakes
    /// ksoftirqd and calls
    /// [`ksoftirqd_takeover`](Self::ksoftirqd_takeover).
    ///
    /// # Panics
    ///
    /// Panics if NAPI is not active.
    pub fn record_poll(
        &mut self,
        rx: usize,
        tx: usize,
        drained: bool,
        resched: bool,
        ctx: ProcContext,
        now: SimTime,
    ) -> PollOutcome {
        assert!(self.active, "poll without active NAPI");
        let class = if self.first_poll_pending {
            PollClass::Interrupt
        } else {
            PollClass::Polling
        };
        self.first_poll_pending = false;
        let descriptors = rx + tx;
        match class {
            PollClass::Interrupt => {
                self.total_intr_pkts += rx as u64;
                if rx > 0 {
                    self.intr_pkt_log.push(now, rx as u64);
                }
            }
            PollClass::Polling => {
                self.total_poll_pkts += rx as u64;
                if rx > 0 {
                    self.poll_pkt_log.push(now, rx as u64);
                }
            }
        }

        if drained {
            // NAPI complete: back to interrupt mode.
            self.active = false;
            self.ksoftirqd_running = false;
            self.softirq_started = None;
            self.set_mode(NapiMode::Interrupt, now);
            return PollOutcome {
                class,
                verdict: PollVerdict::Complete,
            };
        }

        // Work remains → we are (now) in polling mode.
        self.set_mode(NapiMode::Polling, now);
        self.nonempty_iters += 1;

        let verdict = match ctx {
            ProcContext::SoftIrq => {
                self.softirq_descriptors += descriptors;
                let elapsed = self
                    .softirq_started
                    .map(|s| now.saturating_since(s))
                    .unwrap_or(SimDuration::ZERO);
                let over_budget = self.softirq_descriptors >= self.params.softirq_budget;
                let over_time = elapsed >= self.params.handoff_time();
                let over_iters = self.nonempty_iters >= self.params.handoff_nonempty_iters;
                let resched_yield =
                    resched && self.nonempty_iters >= self.params.handoff_resched_iters;
                if over_budget || over_time || over_iters || resched_yield {
                    PollVerdict::Handoff
                } else {
                    PollVerdict::Continue
                }
            }
            // ksoftirqd is preempted by the scheduler, not by NAPI
            // limits; it polls until the rings drain.
            ProcContext::Ksoftirqd => PollVerdict::Continue,
        };
        PollOutcome { class, verdict }
    }

    /// ksoftirqd takes over the poll loop after a softirq handoff.
    ///
    /// # Panics
    ///
    /// Panics if NAPI is not active.
    pub fn ksoftirqd_takeover(&mut self) {
        assert!(self.active, "takeover without active NAPI");
        self.ksoftirqd_running = true;
        self.softirq_started = None;
        self.softirq_descriptors = 0;
        self.nonempty_iters = 0;
    }

    /// Cumulative packets processed in interrupt mode.
    pub fn total_interrupt_packets(&self) -> u64 {
        self.total_intr_pkts
    }

    /// Cumulative packets processed in polling mode.
    pub fn total_polling_packets(&self) -> u64 {
        self.total_poll_pkts
    }

    /// Turns keeping entries in the mode and batch logs on or off
    /// (off by default); their counts are kept either way.
    pub fn set_log_recording(&mut self, on: bool) {
        self.mode_log.set_recording(on);
        self.intr_pkt_log.set_recording(on);
        self.poll_pkt_log.set_recording(on);
    }

    /// Log of mode transitions `(time, new mode)`: `len()` counts
    /// every transition, entries are kept only while recording.
    pub fn mode_log(&self) -> &EventLog<NapiMode> {
        &self.mode_log
    }

    /// Log of non-empty interrupt-mode packet batches
    /// `(time, count)`: `len()` counts every such batch, entries are
    /// kept only while recording.
    pub fn interrupt_packet_log(&self) -> &EventLog<u64> {
        &self.intr_pkt_log
    }

    /// Log of non-empty polling-mode packet batches `(time, count)`:
    /// `len()` counts every such batch, entries are kept only while
    /// recording.
    pub fn polling_packet_log(&self) -> &EventLog<u64> {
        &self.poll_pkt_log
    }

    /// Replays this context's logs into `buf` for core `core`:
    /// mode residency spans on the `napi-mode` track (a context is in
    /// interrupt mode from t=0 until the first logged transition) and
    /// per-batch instants on the `poll` track (arg = packet count).
    pub fn trace_into(&self, core: u32, end: SimTime, buf: &mut simcore::TraceBuffer) {
        use simcore::TraceCategory;
        if !buf.is_recording() {
            return;
        }
        let transitions = self.mode_log.entries();
        let mut span_start = SimTime::ZERO;
        let mut mode = NapiMode::Interrupt;
        for &(t, next) in transitions {
            buf.begin(span_start, TraceCategory::NapiMode, core, mode.label(), 0);
            buf.end(t, TraceCategory::NapiMode, core, mode.label(), 0);
            span_start = t;
            mode = next;
        }
        if span_start < end || transitions.is_empty() {
            buf.begin(span_start, TraceCategory::NapiMode, core, mode.label(), 0);
            buf.end(end, TraceCategory::NapiMode, core, mode.label(), 0);
        }
        for &(t, n) in self.intr_pkt_log.entries() {
            buf.instant(t, TraceCategory::Poll, core, "intr-batch", n as i64);
        }
        for &(t, n) in self.poll_pkt_log.entries() {
            buf.instant(t, TraceCategory::Poll, core, "poll-batch", n as i64);
        }
    }

    /// Accumulates this context's packet totals into the metrics
    /// registry (bumped, so per-core contexts sum naturally).
    pub fn record_metrics(&self, m: &mut simcore::MetricsRegistry) {
        m.bump("napi.intr_packets", self.total_intr_pkts);
        m.bump("napi.poll_packets", self.total_poll_pkts);
        m.bump("napi.mode_transitions", self.mode_log.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> NapiContext {
        NapiContext::new(StackParams::linux_defaults())
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn single_batch_drain_stays_interrupt_mode() {
        let mut n = ctx();
        n.on_irq(t(0));
        let out = n.record_poll(10, 0, true, false, ProcContext::SoftIrq, t(15));
        assert_eq!(out.class, PollClass::Interrupt);
        assert_eq!(out.verdict, PollVerdict::Complete);
        assert_eq!(n.mode(), NapiMode::Interrupt);
        assert_eq!(n.total_interrupt_packets(), 10);
        assert_eq!(n.total_polling_packets(), 0);
        assert!(n.mode_log().is_empty(), "no transition happened");
    }

    #[test]
    fn sustained_work_enters_polling_mode() {
        let mut n = ctx();
        n.set_log_recording(true);
        n.on_irq(t(0));
        let o1 = n.record_poll(64, 0, false, false, ProcContext::SoftIrq, t(60));
        assert_eq!(o1.class, PollClass::Interrupt);
        assert_eq!(n.mode(), NapiMode::Polling);
        let o2 = n.record_poll(64, 0, false, false, ProcContext::SoftIrq, t(120));
        assert_eq!(o2.class, PollClass::Polling);
        assert_eq!(n.total_interrupt_packets(), 64);
        assert_eq!(n.total_polling_packets(), 64);
        // Draining returns to interrupt mode with a logged transition.
        let o3 = n.record_poll(30, 0, true, false, ProcContext::SoftIrq, t(180));
        assert_eq!(o3.verdict, PollVerdict::Complete);
        assert_eq!(n.mode(), NapiMode::Interrupt);
        let modes: Vec<NapiMode> = n.mode_log().iter().map(|&(_, m)| m).collect();
        assert_eq!(modes, vec![NapiMode::Polling, NapiMode::Interrupt]);
    }

    #[test]
    fn budget_exhaustion_hands_off() {
        let mut n = ctx();
        n.on_irq(t(0));
        // 64-descriptor batches: budget 300 → handoff on the 5th batch
        // (320 ≥ 300).
        let mut verdicts = Vec::new();
        for i in 0..5 {
            let out = n.record_poll(64, 0, false, false, ProcContext::SoftIrq, t(60 * (i + 1)));
            verdicts.push(out.verdict);
        }
        assert_eq!(verdicts[3], PollVerdict::Continue);
        assert_eq!(verdicts[4], PollVerdict::Handoff);
    }

    #[test]
    fn nonempty_iteration_limit_hands_off() {
        let mut n = NapiContext::new(StackParams {
            softirq_budget: 10_000, // disable the budget trigger
            ..StackParams::linux_defaults()
        });
        n.on_irq(t(0));
        for i in 0..9 {
            let out = n.record_poll(8, 0, false, false, ProcContext::SoftIrq, t(10 * (i + 1)));
            assert_eq!(out.verdict, PollVerdict::Continue, "iter {i}");
        }
        let out = n.record_poll(8, 0, false, false, ProcContext::SoftIrq, t(100));
        assert_eq!(
            out.verdict,
            PollVerdict::Handoff,
            "10th non-empty iteration"
        );
    }

    #[test]
    fn time_limit_hands_off() {
        let mut n = NapiContext::new(StackParams {
            softirq_budget: 10_000,
            handoff_nonempty_iters: 10_000,
            ..StackParams::linux_defaults()
        });
        n.on_irq(t(0));
        let out = n.record_poll(8, 0, false, false, ProcContext::SoftIrq, t(7_999));
        assert_eq!(out.verdict, PollVerdict::Continue);
        // 8 ms (2 jiffies at 250 Hz) elapsed → handoff.
        let out = n.record_poll(8, 0, false, false, ProcContext::SoftIrq, t(8_000));
        assert_eq!(out.verdict, PollVerdict::Handoff);
    }

    #[test]
    fn ksoftirqd_polls_without_limits() {
        let mut n = ctx();
        n.on_irq(t(0));
        // Softirq exhausts its budget and hands off.
        for i in 0..5 {
            n.record_poll(64, 0, false, false, ProcContext::SoftIrq, t(60 * (i + 1)));
        }
        n.ksoftirqd_takeover();
        assert!(n.ksoftirqd_running());
        // ksoftirqd can poll far past any softirq limit.
        for i in 0..50 {
            let out = n.record_poll(64, 0, false, false, ProcContext::Ksoftirqd, t(400 + 60 * i));
            assert_eq!(out.verdict, PollVerdict::Continue);
            assert_eq!(out.class, PollClass::Polling);
        }
        let out = n.record_poll(5, 0, true, false, ProcContext::Ksoftirqd, t(5_000));
        assert_eq!(out.verdict, PollVerdict::Complete);
        assert!(!n.ksoftirqd_running());
        assert!(!n.is_active());
    }

    #[test]
    fn totals_split_packets_by_poll_class() {
        let mut n = ctx();
        n.on_irq(t(0));
        n.record_poll(64, 0, false, false, ProcContext::SoftIrq, t(60));
        n.record_poll(40, 0, true, false, ProcContext::SoftIrq, t(120));
        assert_eq!(n.total_interrupt_packets(), 64);
        assert_eq!(n.total_polling_packets(), 40);
    }

    #[test]
    fn tx_cleans_count_toward_budget_but_not_packet_counters() {
        let mut n = ctx();
        n.on_irq(t(0));
        let _ = n.record_poll(0, 64, false, false, ProcContext::SoftIrq, t(10));
        assert_eq!(n.total_interrupt_packets(), 0);
        assert_eq!(n.total_polling_packets(), 0);
        // But 5 such batches blow the 300-descriptor budget.
        for _ in 0..3 {
            assert_eq!(
                n.record_poll(0, 64, false, false, ProcContext::SoftIrq, t(20))
                    .verdict,
                PollVerdict::Continue
            );
        }
        assert_eq!(
            n.record_poll(0, 64, false, false, ProcContext::SoftIrq, t(30))
                .verdict,
            PollVerdict::Handoff
        );
    }

    #[test]
    fn resched_flag_hands_off_early() {
        let mut n = ctx();
        n.on_irq(t(0));
        // First non-empty iteration with resched pending: not yet.
        let o1 = n.record_poll(8, 0, false, true, ProcContext::SoftIrq, t(10));
        assert_eq!(o1.verdict, PollVerdict::Continue);
        // Second non-empty iteration with resched → yield to ksoftirqd.
        let o2 = n.record_poll(8, 0, false, true, ProcContext::SoftIrq, t(20));
        assert_eq!(o2.verdict, PollVerdict::Handoff);
    }

    #[test]
    fn no_resched_no_early_handoff() {
        let mut n = ctx();
        n.on_irq(t(0));
        for i in 0..4 {
            let out = n.record_poll(8, 0, false, false, ProcContext::SoftIrq, t(10 * (i + 1)));
            assert_eq!(out.verdict, PollVerdict::Continue, "iter {i}");
        }
    }

    #[test]
    #[should_panic(expected = "IRQ delivered while NAPI active")]
    fn irq_during_active_napi_panics() {
        let mut n = ctx();
        n.on_irq(t(0));
        n.on_irq(t(1));
    }

    #[test]
    #[should_panic(expected = "poll without active NAPI")]
    fn poll_without_irq_panics() {
        let mut n = ctx();
        n.record_poll(1, 0, true, false, ProcContext::SoftIrq, t(0));
    }

    #[test]
    fn packet_logs_record_batches() {
        let mut n = ctx();
        n.set_log_recording(true);
        n.on_irq(t(0));
        n.record_poll(64, 0, false, false, ProcContext::SoftIrq, t(50));
        n.record_poll(32, 0, true, false, ProcContext::SoftIrq, t(100));
        assert_eq!(n.interrupt_packet_log().len(), 1);
        assert_eq!(n.polling_packet_log().len(), 1);
        assert_eq!(n.interrupt_packet_log().entries()[0].1, 64);
        assert_eq!(n.polling_packet_log().entries()[0].1, 32);
    }

    #[test]
    fn logs_count_without_keeping_entries_by_default() {
        let mut n = ctx();
        n.on_irq(t(0));
        n.record_poll(64, 0, false, false, ProcContext::SoftIrq, t(50));
        n.record_poll(32, 0, true, false, ProcContext::SoftIrq, t(100));
        assert_eq!(n.interrupt_packet_log().len(), 1);
        assert_eq!(n.polling_packet_log().len(), 1);
        assert_eq!(n.mode_log().len(), 2);
        assert!(n.interrupt_packet_log().entries().is_empty());
        assert!(n.polling_packet_log().entries().is_empty());
        assert!(n.mode_log().entries().is_empty());
    }
}
