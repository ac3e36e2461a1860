//! # cluster — the fleet tier
//!
//! Composes N independent [`appsim::Testbed`] server instances behind
//! a simulated front-end load balancer: consistent-hash steering with
//! per-connection affinity, hysteretic health-checked ejection and
//! readmission, client-side timeouts with capped-exponential-backoff
//! retries, and optional tail-latency hedging with first-response-wins
//! duplicate suppression. The same discipline the single-box sim has
//! applies one level up: every retry, hedge, duplicate, ejection, and
//! failover is counted, and a fleet-level conservation roll-up proves
//! that `admitted == completed + timed-out + in-flight-at-end`
//! integer-exactly, even under crash schedules.
//!
//! The fleet runs as a two-level discrete-event simulation: one outer
//! [`simcore::Simulator`] carries the request-level events (arrivals,
//! dispatches, responses, timeouts, hedges, probes), while each server
//! holds its own nested simulator + testbed pair advanced in epoch
//! lockstep, on worker threads while the LB runs the next epoch (see
//! [`fleet`]; results do not depend on the thread count). Each epoch the fleet feeds every server the request rate
//! it actually absorbed (so retries and hedges visibly re-inject load
//! onto degraded servers) and harvests the server's recent internal
//! latencies as the sampling table for fleet response times.
//!
//! # Examples
//!
//! ```
//! use cluster::{run_fleet, FleetConfig, GovernorKind};
//! use simcore::SimDuration;
//! use workload::AppKind;
//!
//! let cfg = FleetConfig::new(2, AppKind::Memcached, 4_000.0, GovernorKind::Ondemand)
//!     .with_window(SimDuration::from_millis(40), SimDuration::from_millis(120));
//! let result = run_fleet(cfg);
//! assert_eq!(
//!     result.admitted,
//!     result.completed + result.timed_out + result.in_flight_at_end
//! );
//! ```

// Library code must stay panic-free on arbitrary inputs: failures are
// typed `SimError`s, never `unwrap()`/`panic!`. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod fleet;
pub mod health;
pub mod kinds;
pub mod overload;
pub mod ring;

pub use fleet::{
    run_fleet, try_run_fleet, try_run_fleet_budgeted, try_run_fleet_inline, FleetConfig,
    FleetResult, HedgePolicy, ProbePolicy, RetryPolicy, ServerReport,
};
pub use health::{HealthTracker, HealthTransition};
pub use kinds::{build_policies, GovernorKind, SleepKind};
pub use overload::{
    BreakerPolicy, BreakerState, BreakerStats, Brownout, BrownoutPolicy, CircuitBreaker,
    RetryBudget, RetryBudgetPolicy,
};
pub use ring::HashRing;
