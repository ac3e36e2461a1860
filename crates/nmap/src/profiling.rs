//! Offline threshold profiling (§4.2).
//!
//! NMAP derives its two thresholds from one lightweight profiling run
//! at the load used to set the SLO (the latency-load curve's
//! inflection point):
//!
//! * **`NI_TH`** — observe the first 100 interrupts from the start of
//!   a request burst and count the packets processed in polling mode
//!   per interrupt episode; `NI_TH` is the **maximum** of those.
//! * **`CU_TH`** — the **average** polling-to-interrupt ratio over
//!   every batch the profiler is fed. §4.2 averages over a single
//!   request burst; the experiments harness feeds it a 400 ms run
//!   (`thresholds::profile_nmap`), four 100 ms burst periods, so the
//!   pinned `CU_TH` averages over four bursts (DESIGN §6 records the
//!   gap).
//!
//! [`ThresholdProfiler`] is a recording sink: the experiment harness
//! feeds it the same per-batch signal the governor would see, then
//! asks for the derived [`NmapConfig`].

use crate::config::NmapConfig;
use cpusim::CoreId;
use napisim::PollClass;

/// Records NAPI poll batches during a profiling run and derives
/// `NI_TH` / `CU_TH`.
///
/// # Examples
///
/// ```
/// use nmap::ThresholdProfiler;
/// use napisim::PollClass;
/// use cpusim::CoreId;
///
/// let mut p = ThresholdProfiler::new(8);
/// p.record_batch(CoreId(0), PollClass::Interrupt, 32);
/// p.record_batch(CoreId(0), PollClass::Polling, 128);
/// p.record_batch(CoreId(0), PollClass::Interrupt, 32);
/// let cfg = p.derive();
/// assert_eq!(cfg.ni_threshold, 128);
/// assert!((cfg.cu_threshold - 2.0).abs() < 1e-12); // 128 poll / 64 intr
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdProfiler {
    /// Finalized per-episode polling counts, per core, capped at the
    /// first [`Self::EPISODE_LIMIT`] interrupts.
    episodes: Vec<Vec<u64>>,
    current_episode: Vec<Option<u64>>,
    total_poll: u64,
    total_intr: u64,
}

impl ThresholdProfiler {
    /// §4.2: "NMAP observes the first 100 interrupts from the start
    /// of a request burst."
    pub const EPISODE_LIMIT: usize = 100;

    /// Creates a profiler for `cores` cores.
    pub fn new(cores: usize) -> Self {
        ThresholdProfiler {
            episodes: vec![Vec::new(); cores],
            current_episode: vec![None; cores],
            total_poll: 0,
            total_intr: 0,
        }
    }

    /// Feeds one poll batch (same signal as the governor hook).
    pub fn record_batch(&mut self, core: CoreId, class: PollClass, rx_packets: u64) {
        match class {
            PollClass::Interrupt => {
                // Close the previous episode.
                if let Some(poll) = self.current_episode[core.0].take() {
                    if self.episodes[core.0].len() < Self::EPISODE_LIMIT {
                        self.episodes[core.0].push(poll);
                    }
                }
                self.current_episode[core.0] = Some(0);
                self.total_intr += rx_packets;
            }
            PollClass::Polling => {
                if let Some(poll) = self.current_episode[core.0].as_mut() {
                    *poll += rx_packets;
                }
                self.total_poll += rx_packets;
            }
        }
    }

    /// Number of closed episodes observed on `core`.
    pub fn episodes_observed(&self, core: CoreId) -> usize {
        self.episodes[core.0].len()
    }

    /// Derives the thresholds.
    ///
    /// `NI_TH` falls back to 1 if no polling was ever observed (an
    /// idle profiling run must still produce a usable config: any
    /// polling then reads as intensity). `CU_TH` falls back to 1.0 if
    /// no interrupt-mode packets were seen.
    pub fn derive(&self) -> NmapConfig {
        let ni = self
            .episodes
            .iter()
            .flat_map(|per_core| per_core.iter().copied())
            .chain(
                // Include still-open episodes so a profiling run that
                // ends mid-burst is not blind to its largest episode.
                self.current_episode.iter().filter_map(|e| *e),
            )
            .max()
            .unwrap_or(0)
            .max(1);
        let cu = if self.total_intr == 0 {
            1.0
        } else {
            (self.total_poll as f64 / self.total_intr as f64).max(f64::MIN_POSITIVE)
        };
        NmapConfig::new(ni, cu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ni_is_max_episode_polling() {
        let mut p = ThresholdProfiler::new(1);
        for (intr, poll) in [(10u64, 50u64), (10, 200), (10, 120)] {
            p.record_batch(CoreId(0), PollClass::Interrupt, intr);
            p.record_batch(CoreId(0), PollClass::Polling, poll);
        }
        p.record_batch(CoreId(0), PollClass::Interrupt, 10);
        let cfg = p.derive();
        assert_eq!(cfg.ni_threshold, 200);
    }

    #[test]
    fn cu_is_average_ratio() {
        let mut p = ThresholdProfiler::new(1);
        p.record_batch(CoreId(0), PollClass::Interrupt, 100);
        p.record_batch(CoreId(0), PollClass::Polling, 300);
        let cfg = p.derive();
        assert!((cfg.cu_threshold - 3.0).abs() < 1e-12);
    }

    #[test]
    fn only_first_100_interrupt_episodes_count_for_ni() {
        let mut p = ThresholdProfiler::new(1);
        // 100 small episodes…
        for _ in 0..101 {
            p.record_batch(CoreId(0), PollClass::Interrupt, 1);
            p.record_batch(CoreId(0), PollClass::Polling, 10);
        }
        assert_eq!(
            p.episodes_observed(CoreId(0)),
            ThresholdProfiler::EPISODE_LIMIT
        );
        // …then a huge one (episode 102, beyond the limit, but still
        // open — open episodes only count until a new interrupt closes
        // them past the cap).
        p.record_batch(CoreId(0), PollClass::Polling, 10_000);
        p.record_batch(CoreId(0), PollClass::Interrupt, 1);
        p.record_batch(CoreId(0), PollClass::Polling, 5);
        let cfg = p.derive();
        // The open 10_005-packet episode was closed after the limit
        // and dropped from the NI computation; the current open
        // episode (5) and the first 100 (10 each) remain.
        assert_eq!(cfg.ni_threshold, 10);
    }

    #[test]
    fn empty_profile_gives_safe_defaults() {
        let p = ThresholdProfiler::new(4);
        let cfg = p.derive();
        assert_eq!(cfg.ni_threshold, 1);
        assert_eq!(cfg.cu_threshold, 1.0);
    }

    #[test]
    fn cores_tracked_separately_max_wins() {
        let mut p = ThresholdProfiler::new(2);
        p.record_batch(CoreId(0), PollClass::Interrupt, 10);
        p.record_batch(CoreId(0), PollClass::Polling, 80);
        p.record_batch(CoreId(1), PollClass::Interrupt, 10);
        p.record_batch(CoreId(1), PollClass::Polling, 150);
        let cfg = p.derive();
        assert_eq!(cfg.ni_threshold, 150, "max across cores");
    }

    #[test]
    fn polling_before_any_interrupt_is_ignored_for_ni() {
        let mut p = ThresholdProfiler::new(1);
        p.record_batch(CoreId(0), PollClass::Polling, 999);
        let cfg = p.derive();
        // No episode was open; the stray polling only affects CU_TH's
        // numerator, and with zero interrupts CU falls back to 1.0.
        assert_eq!(cfg.ni_threshold, 1);
        assert_eq!(cfg.cu_threshold, 1.0);
    }
}
