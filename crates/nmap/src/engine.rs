//! The Decision Engine (Algorithm 2).
//!
//! Per core, the engine holds one of two power-management modes:
//!
//! * **Network Intensive Mode** — entered on a monitor notification:
//!   the utilization governor is suspended and the core's V/F is
//!   maximized (lines 2-5);
//! * **CPU Utilization based Mode** — entered when the periodic
//!   polling-to-interrupt ratio drops below `CU_TH`: the ondemand
//!   governor resumes (lines 7-13).

/// The power-management mode of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerMode {
    /// V/F pinned at maximum; utilization governor suspended.
    NetworkIntensive,
    /// The CPU-utilization governor (ondemand) decides.
    CpuUtilization,
}

/// Per-core Algorithm 2 state.
///
/// # Examples
///
/// ```
/// use nmap::{DecisionEngine, PowerMode};
///
/// let mut e = DecisionEngine::new(1.5);
/// assert_eq!(e.mode(), PowerMode::CpuUtilization);
/// assert!(e.on_notification()); // burst! → NI mode
/// assert_eq!(e.mode(), PowerMode::NetworkIntensive);
/// // Ratio fell under CU_TH → fall back.
/// assert!(e.on_timer(0.4));
/// assert_eq!(e.mode(), PowerMode::CpuUtilization);
/// ```
#[derive(Debug, Clone)]
pub struct DecisionEngine {
    cu_threshold: f64,
    mode: PowerMode,
}

impl DecisionEngine {
    /// Creates an engine in CPU Utilization based Mode.
    pub fn new(cu_threshold: f64) -> Self {
        DecisionEngine {
            cu_threshold,
            mode: PowerMode::CpuUtilization,
        }
    }

    /// The current mode.
    pub fn mode(&self) -> PowerMode {
        self.mode
    }

    /// A Network-Intensive notification arrived from the monitor.
    /// Returns `true` if this call switched the mode (the caller then
    /// disables ondemand and maximizes V/F — Algorithm 2 lines 3-5).
    pub fn on_notification(&mut self) -> bool {
        if self.mode == PowerMode::NetworkIntensive {
            return false;
        }
        self.mode = PowerMode::NetworkIntensive;
        true
    }

    /// The periodic timer fired with the window's polling-to-interrupt
    /// ratio. Returns `true` if the engine fell back to CPU
    /// Utilization based Mode (the caller re-enables ondemand and
    /// enforces its decision — lines 8-12).
    pub fn on_timer(&mut self, poll_to_intr_ratio: f64) -> bool {
        if self.mode == PowerMode::NetworkIntensive && poll_to_intr_ratio < self.cu_threshold {
            self.mode = PowerMode::CpuUtilization;
            true
        } else {
            false
        }
    }

    /// Forces the engine back to CPU Utilization based Mode regardless
    /// of the ratio — the degradation path when the monitor's signals
    /// are suspected stale or lost. Returns `true` if the mode
    /// actually changed.
    pub fn force_fallback(&mut self) -> bool {
        if self.mode == PowerMode::CpuUtilization {
            return false;
        }
        self.mode = PowerMode::CpuUtilization;
        true
    }

    /// The configured `CU_TH`.
    pub fn cu_threshold(&self) -> f64 {
        self.cu_threshold
    }

    /// Replaces `CU_TH` (online threshold adaptation).
    pub fn set_cu_threshold(&mut self, cu_threshold: f64) {
        self.cu_threshold = cu_threshold;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_in_cpu_util_mode() {
        let e = DecisionEngine::new(1.0);
        assert_eq!(e.mode(), PowerMode::CpuUtilization);
    }

    #[test]
    fn notification_is_edge_triggered() {
        let mut e = DecisionEngine::new(1.0);
        assert!(e.on_notification());
        assert!(!e.on_notification(), "already NI");
        assert_eq!(e.mode(), PowerMode::NetworkIntensive);
    }

    #[test]
    fn falls_back_only_below_threshold() {
        let mut e = DecisionEngine::new(1.5);
        e.on_notification();
        assert!(!e.on_timer(2.0), "still intense");
        assert!(!e.on_timer(1.5), "at threshold: hold");
        assert!(e.on_timer(1.49));
        assert_eq!(e.mode(), PowerMode::CpuUtilization);
    }

    #[test]
    fn timer_in_cpu_mode_is_a_noop() {
        let mut e = DecisionEngine::new(1.5);
        assert!(!e.on_timer(100.0), "ratio only matters in NI mode");
        assert_eq!(e.mode(), PowerMode::CpuUtilization);
    }

    #[test]
    fn infinite_ratio_never_falls_back() {
        let mut e = DecisionEngine::new(1.5);
        e.on_notification();
        assert!(!e.on_timer(f64::INFINITY));
        assert_eq!(e.mode(), PowerMode::NetworkIntensive);
    }

    #[test]
    fn transitions_run_both_directions() {
        let mut e = DecisionEngine::new(1.0);
        assert!(e.on_notification());
        assert_eq!(e.mode(), PowerMode::NetworkIntensive);
        assert!(e.on_timer(0.0));
        assert_eq!(e.mode(), PowerMode::CpuUtilization);
    }

    #[test]
    fn forced_fallback_reports_only_real_changes() {
        let mut e = DecisionEngine::new(1.0);
        assert!(!e.force_fallback(), "already in CU mode");
        e.on_notification();
        assert!(e.force_fallback());
        assert_eq!(e.mode(), PowerMode::CpuUtilization);
        assert!(!e.force_fallback());
    }
}
