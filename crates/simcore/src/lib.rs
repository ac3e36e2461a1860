//! # simcore — discrete-event simulation engine
//!
//! The foundation for the NMAP reproduction: a deterministic
//! discrete-event simulator with integer-nanosecond virtual time,
//! cancellable events, seeded random-number streams, and the
//! statistics toolkit (histograms, CDFs, time series) used by every
//! experiment in the paper.
//!
//! # Examples
//!
//! ```
//! use simcore::{Simulator, SimTime, SimDuration, World};
//!
//! // The "world" is any user state the events mutate; it names its
//! // own event type and handles each event when its time comes.
//! struct Counter(u64);
//!
//! enum Ev {
//!     Add(u64),
//!     AddThenLater(u64),
//! }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, ev: Ev, sim: &mut Simulator<Self>) {
//!         match ev {
//!             Ev::Add(n) => self.0 += n,
//!             Ev::AddThenLater(n) => {
//!                 self.0 += n;
//!                 // Events may schedule follow-up events.
//!                 sim.schedule_in(SimDuration::from_micros(5), Ev::Add(10));
//!             }
//!         }
//!     }
//! }
//!
//! let mut world = Counter(0);
//! let mut sim = Simulator::new();
//! sim.schedule_in(SimDuration::from_micros(5), Ev::AddThenLater(1));
//! sim.run_until(&mut world, SimTime::from_micros(100));
//! assert_eq!(world.0, 11);
//! assert_eq!(sim.now(), SimTime::from_micros(100));
//! ```

// Library code must stay panic-free on arbitrary inputs: failures are
// typed `SimError`s, never `unwrap()`/`panic!`. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod audit;
pub mod check;
pub mod engine;
pub mod error;
pub mod fault;
pub mod hash;
pub mod obs;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use audit::{Account, AuditCheck, AuditReport, ConservationLedger};
pub use engine::{
    EngineProfile, EventId, HeapQueue, HeapSimulator, SchedQueue, Simulator, StepBudget,
    WheelQueue, World,
};
pub use error::{BudgetKind, SimError};
pub use fault::{
    FaultInjector, FaultKind, FaultPlan, FaultScope, FaultSpec, FaultStats, RecoverySummary,
    WireFault,
};
pub use hash::{IdHashMap, IdHasher};
pub use obs::attrib::{
    AttribSummary, AttribTracker, Breakdown, ChainMarks, CompletedAttrib, Stage, StageSummary,
};
pub use obs::energy::{
    BusyRole, CoreEnergyMeter, CoreEnergySummary, DecisionTrigger, EnergyBreakdown,
    EnergyComponent, EnergySummary, FlightRecorder, FlightSummary, GovDecision, MeterClass,
    ModeEnergy,
};
pub use obs::timeseries::{
    sparkline, Gauge, TelemetryTap, TimeSeriesSampler, Timeline, TimelineConfig, GAUGES,
};
pub use obs::{
    HistogramSnapshot, MetricsRegistry, MetricsSnapshot, TraceBuffer, TraceCategory, TraceEvent,
    TraceKind,
};
pub use rng::RngStream;
pub use stats::cdf::Cdf;
pub use stats::histogram::Histogram;
pub use stats::running::RunningStats;
pub use stats::streaming::{SloWatchdog, StreamingQuantiles, WatchdogEvent, WatchdogReport};
pub use stats::timeseries::TimeSeries;
pub use time::{SimDuration, SimTime};
pub use trace::EventLog;
