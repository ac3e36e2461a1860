//! # experiments — regenerating every table and figure
//!
//! The harness behind `cargo run -p experiments --bin repro`:
//!
//! * [`runner`] — one fully specified simulation run ([`RunConfig`] →
//!   [`RunResult`]) plus a thread-parallel sweep helper;
//! * [`thresholds`] — the offline NMAP threshold profiling (§4.2) and
//!   NCAP's tuned boost threshold;
//! * [`figures`] — one module per paper artifact (Fig 2-4, Table 1-2,
//!   Fig 7-16, plus the ablations), each returning a printable
//!   [`report::FigureReport`];
//! * [`report`] — plain-text table formatting;
//! * [`export`] — CSV trace export for external plotting.
//!
//! Absolute numbers come from the calibrated simulator, so reports
//! should be read for *shape* (who wins, where SLOs break) — see
//! EXPERIMENTS.md for the paper-vs-measured comparison.

// Library code must stay panic-free on arbitrary inputs: failures are
// typed `SimError`s, never `unwrap()`/`panic!`. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod ckpt;
pub mod export;
pub mod figures;
pub mod json;
pub mod report;
pub mod runner;
pub mod supervisor;
pub mod thresholds;

pub use ckpt::{cell_key, Checkpoint, QuarantineRecord};
pub use export::{
    perfetto_json, perfetto_json_with_drops, write_perfetto_json, write_timeline_csv,
    write_timeline_openmetrics,
};
pub use report::FigureReport;
pub use runner::{
    run, run_many, run_profiled, try_run, try_run_budgeted, GovernorKind, ProfileKind, RunConfig,
    RunProfile, RunResult, RunTraces, Scale, SleepKind,
};
pub use supervisor::{Cell, CellOutcome, Supervisor};
