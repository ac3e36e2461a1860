//! # nmap — Network packet processing Mode-Aware Power management
//!
//! The paper's contribution (§4): a short-term, per-core DVFS policy
//! that piggybacks on NAPI's interrupt↔polling mode transitions.
//!
//! * [`monitor::ModeTransitionMonitor`] — Algorithm 1: per-core
//!   counters of packets processed in polling and interrupt mode,
//!   with a Network-Intensive notification when the polling count in
//!   the current interrupt episode exceeds `NI_TH`.
//! * [`engine::DecisionEngine`] — Algorithm 2: switches between
//!   **Network Intensive Mode** (V/F maximized, utilization governor
//!   suspended) and **CPU Utilization based Mode** (ondemand
//!   decides), falling back when the polling-to-interrupt ratio drops
//!   under `CU_TH`.
//! * [`NmapGovernor`] — the full per-core governor combining both.
//! * [`NmapSimpl`] — §4.1's simplified variant driven purely by
//!   ksoftirqd wake/sleep events.
//! * [`profiling::ThresholdProfiler`] — §4.2's offline, lightweight
//!   profiling that derives `NI_TH` and `CU_TH` from the poll batches
//!   of a run at the SLO-defining load.
//! * [`OnlineNmap`] — *beyond the paper*: the on-line threshold
//!   adaptation §4.2 leaves as future work, removing the offline
//!   profiling step entirely.
//!
//! # Examples
//!
//! ```
//! use nmap::{NmapConfig, NmapGovernor};
//! use governors::PStateGovernor;
//! use cpusim::ProcessorProfile;
//!
//! let profile = ProcessorProfile::xeon_gold_6134();
//! let config = NmapConfig::new(64, 1.5);
//! let gov = NmapGovernor::new(profile.pstates.clone(), profile.cores, config);
//! assert_eq!(gov.name(), "NMAP");
//! ```

// Library code must stay panic-free on arbitrary inputs: failures are
// typed `SimError`s, never `unwrap()`/`panic!`. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod config;
pub mod engine;
pub mod governor;
pub mod monitor;
pub mod online;
pub mod profiling;
pub mod simpl;

pub use config::{DegradationConfig, NmapConfig};
pub use engine::{DecisionEngine, PowerMode};
pub use governor::{NiMark, NmapGovernor, SHED_HOLD_PERMILLE};
pub use monitor::ModeTransitionMonitor;
pub use online::{OnlineConfig, OnlineNmap};
pub use profiling::ThresholdProfiler;
pub use simpl::NmapSimpl;
