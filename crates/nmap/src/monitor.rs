//! The Mode Transition Monitor (Algorithm 1).
//!
//! Per core, the monitor:
//!
//! * accumulates `poll_cnt` and `intr_cnt` — packets processed in
//!   polling and interrupt mode (lines 7-8);
//! * tracks polling-mode packets within the **current interrupt
//!   episode** and emits a Network-Intensive notification as soon as
//!   that exceeds `NI_TH` (lines 4-6) — this is what makes NMAP react
//!   at the *early part* of a burst;
//! * on the periodic timer, hands the window counters to the Decision
//!   Engine and resets them (lines 9-12).

use napisim::PollClass;

/// Per-core Algorithm 1 state.
///
/// # Examples
///
/// ```
/// use nmap::ModeTransitionMonitor;
/// use napisim::PollClass;
///
/// let mut m = ModeTransitionMonitor::new(100);
/// // An interrupt-mode batch opens a new episode.
/// assert!(!m.record_batch(PollClass::Interrupt, 64));
/// // Polling packets accumulate within the episode...
/// assert!(!m.record_batch(PollClass::Polling, 64));
/// // ...and crossing NI_TH notifies.
/// assert!(m.record_batch(PollClass::Polling, 64));
/// ```
#[derive(Debug, Clone)]
pub struct ModeTransitionMonitor {
    ni_threshold: u64,
    /// Polling packets since the episode began.
    episode_poll: u64,
    /// Whether the current episode already notified (one notification
    /// per episode is enough; the engine is edge-triggered).
    episode_notified: bool,
    poll_cnt: u64,
    intr_cnt: u64,
    total_notifications: u64,
}

impl ModeTransitionMonitor {
    /// Creates a monitor with the given `NI_TH`.
    pub fn new(ni_threshold: u64) -> Self {
        ModeTransitionMonitor {
            ni_threshold,
            episode_poll: 0,
            episode_notified: false,
            poll_cnt: 0,
            intr_cnt: 0,
            total_notifications: 0,
        }
    }

    /// Records one NAPI poll batch of `rx_packets` packets attributed
    /// to `class`. Returns `true` if the Decision Engine must be
    /// notified (Network Intensive detection).
    pub fn record_batch(&mut self, class: PollClass, rx_packets: u64) -> bool {
        match class {
            PollClass::Interrupt => {
                // A new interrupt begins a new episode.
                self.intr_cnt += rx_packets;
                self.episode_poll = 0;
                self.episode_notified = false;
                false
            }
            PollClass::Polling => {
                self.poll_cnt += rx_packets;
                self.episode_poll += rx_packets;
                if !self.episode_notified && self.episode_poll > self.ni_threshold {
                    self.episode_notified = true;
                    self.total_notifications += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The periodic timer fired: returns `(poll_cnt, intr_cnt)` for
    /// the window and resets both (lines 9-12).
    pub fn take_window(&mut self) -> (u64, u64) {
        let counts = (self.poll_cnt, self.intr_cnt);
        self.poll_cnt = 0;
        self.intr_cnt = 0;
        counts
    }

    /// Window polling-to-interrupt ratio without resetting. A window
    /// with zero interrupt-mode packets but nonzero polling reads as
    /// infinite intensity; an entirely empty window reads 0.
    pub fn window_ratio(&self) -> f64 {
        if self.intr_cnt == 0 {
            if self.poll_cnt == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.poll_cnt as f64 / self.intr_cnt as f64
        }
    }

    /// Total Network-Intensive notifications emitted.
    pub fn total_notifications(&self) -> u64 {
        self.total_notifications
    }

    /// The configured `NI_TH`.
    pub fn ni_threshold(&self) -> u64 {
        self.ni_threshold
    }

    /// Replaces `NI_TH` (online threshold adaptation).
    pub fn set_ni_threshold(&mut self, ni_threshold: u64) {
        self.ni_threshold = ni_threshold;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interrupt_batches_never_notify() {
        let mut m = ModeTransitionMonitor::new(1);
        for _ in 0..100 {
            assert!(!m.record_batch(PollClass::Interrupt, 1_000));
        }
    }

    #[test]
    fn notification_on_crossing_threshold() {
        let mut m = ModeTransitionMonitor::new(100);
        m.record_batch(PollClass::Interrupt, 64);
        assert!(
            !m.record_batch(PollClass::Polling, 100),
            "exactly at NI_TH: no"
        );
        assert!(m.record_batch(PollClass::Polling, 1), "past NI_TH: yes");
        assert_eq!(m.total_notifications(), 1);
    }

    #[test]
    fn one_notification_per_episode() {
        let mut m = ModeTransitionMonitor::new(10);
        m.record_batch(PollClass::Interrupt, 5);
        assert!(m.record_batch(PollClass::Polling, 64));
        // Further polling in the same episode stays quiet.
        assert!(!m.record_batch(PollClass::Polling, 64));
        assert!(!m.record_batch(PollClass::Polling, 640));
        // A new interrupt episode re-arms the detector.
        m.record_batch(PollClass::Interrupt, 5);
        assert!(m.record_batch(PollClass::Polling, 64));
        assert_eq!(m.total_notifications(), 2);
    }

    #[test]
    fn window_counts_accumulate_and_reset() {
        let mut m = ModeTransitionMonitor::new(1_000_000);
        m.record_batch(PollClass::Interrupt, 64);
        m.record_batch(PollClass::Polling, 128);
        m.record_batch(PollClass::Polling, 64);
        m.record_batch(PollClass::Interrupt, 32);
        assert_eq!(m.take_window(), (192, 96));
        assert_eq!(m.take_window(), (0, 0));
    }

    #[test]
    fn ratio_semantics() {
        let mut m = ModeTransitionMonitor::new(1_000_000);
        assert_eq!(m.window_ratio(), 0.0, "empty window");
        m.record_batch(PollClass::Polling, 10);
        assert!(m.window_ratio().is_infinite(), "pure polling window");
        m.record_batch(PollClass::Interrupt, 5);
        assert!((m.window_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_threshold_notifies_on_any_polling() {
        let mut m = ModeTransitionMonitor::new(0);
        m.record_batch(PollClass::Interrupt, 1);
        assert!(m.record_batch(PollClass::Polling, 1));
    }
}
