//! # appsim — latency-critical applications and the testbed
//!
//! The top of the simulation stack:
//!
//! * [`service`]: request service-time models for the paper's two
//!   applications — memcached (µs-scale, SLO 1 ms) and nginx
//!   (tens of µs, SLO 10 ms);
//! * [`testbed`]: the full client ↔ NIC ↔ NAPI ↔ scheduler ↔ app
//!   event machine, assembling `cpusim`, `netsim`, `napisim`,
//!   `governors`, and `workload` into one runnable [`Testbed`].
//!
//! # Examples
//!
//! ```
//! use appsim::{Testbed, TestbedConfig};
//! use appsim::service::AppModel;
//! use workload::{AppKind, LoadLevel, LoadSpec};
//! use governors::{Performance, MenuPolicy};
//! use simcore::{SimTime, SimDuration, Simulator};
//!
//! let cfg = TestbedConfig::new(
//!     AppModel::memcached(),
//!     LoadSpec::custom(20_000.0, SimDuration::from_millis(100), 0.4, 0.3),
//! ).with_seed(7);
//! let mut sim = Simulator::new();
//! let mut tb = Testbed::new(
//!     cfg,
//!     Box::new(Performance::new()),
//!     Box::new(MenuPolicy::new(8)),
//!     &mut sim,
//! );
//! sim.run_until(&mut tb, SimTime::from_millis(200));
//! assert!(tb.client.received() > 0);
//! ```

// Library code must stay panic-free on arbitrary inputs: failures are
// typed `SimError`s, never `unwrap()`/`panic!`. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod service;
pub mod testbed;

pub use service::AppModel;
pub use testbed::{AdmissionPolicy, Testbed, TestbedConfig, TestbedEvent, REFERENCE_ADMISSION_CAP};
