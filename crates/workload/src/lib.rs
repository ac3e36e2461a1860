//! # workload — load generation and the client side
//!
//! The paper's clients (20 threads on a separate machine, §3.1/§6.1)
//! generate "repetitive bursts of network packets along with idle
//! periods". This crate reproduces that: a non-homogeneous Poisson
//! arrival process with a periodic burst envelope (idle → ramp →
//! peak), the three load-level presets per application, and the
//! client bookkeeping that measures end-to-end response latency.

// Library code must stay panic-free on arbitrary inputs: failures are
// typed `SimError`s, never `unwrap()`/`panic!`. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod arrivals;
pub mod client;
pub mod load;
pub mod priority;

pub use arrivals::{ArrivalProcess, BurstyArrivals, PoissonArrivals};
pub use client::Client;
pub use load::{AppKind, LoadLevel, LoadSpec};
pub use priority::Priority;
