//! # governors — power-management policies
//!
//! Every V/F (P-state) governor and sleep (C-state) policy the paper
//! evaluates, behind two small traits the server drives from
//! simulator hooks:
//!
//! **P-state governors** ([`PStateGovernor`]):
//!
//! * [`performance`] / [`powersave`] / [`userspace`] — the static
//!   cpufreq policies;
//! * [`ondemand`] — CPU-utilization sampling every 10 ms;
//! * [`conservative`] — gradual stepping variant;
//! * [`intel_pstate`] — `intel_powersave`, whose utilization input is
//!   CC0 *residency* (which is why it pins P0 under the `disable`
//!   sleep policy, as §6.2 observes);
//! * [`ncap`] — the software NCAP baseline (periodic NIC-load
//!   monitor, chip-wide boost);
//! * [`parties`] — the long-term latency-feedback baseline (500 ms
//!   slack controller).
//!
//! **Sleep policies** ([`SleepPolicy`]): [`sleep::MenuPolicy`] (Linux
//! menu governor), [`sleep::DisablePolicy`] and
//! [`sleep::C6OnlyPolicy`] (§5.2's `disable` / `c6only`).
//!
//! NMAP itself lives in the `nmap` crate and implements the same
//! trait.

// Library code must stay panic-free on arbitrary inputs: failures are
// typed `SimError`s, never `unwrap()`/`panic!`. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod conservative;
pub mod intel_pstate;
pub mod ncap;
pub mod ondemand;
pub mod parties;
pub mod performance;
pub mod powersave;
pub mod schedutil;
pub mod sleep;
pub mod traits;
pub mod userspace;

pub use conservative::Conservative;
pub use intel_pstate::IntelPowersave;
pub use ncap::{Ncap, NcapConfig};
pub use ondemand::Ondemand;
pub use parties::{Parties, PartiesConfig};
pub use performance::Performance;
pub use powersave::Powersave;
pub use schedutil::Schedutil;
pub use sleep::{C6OnlyPolicy, DisablePolicy, MenuPolicy};
pub use traits::{Action, DegradationStats, FleetPoolSend, PStateGovernor, SleepPolicy};
pub use userspace::Userspace;
