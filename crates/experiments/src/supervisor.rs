//! The crash-safe sweep supervisor.
//!
//! [`Supervisor`] drives sweep cells ([`RunConfig`]s) to completion.
//! A cell's outcome is a pure function of its config (every run is
//! seeded and event-budgeted, never paced by host time), so:
//!
//! * **one run per distinct cell** — a cell's result or failure lands
//!   in one outcome table (a [`Checkpoint`]) keyed by
//!   [`cell_key`](crate::ckpt::cell_key), and a later request for the
//!   same config (sweeps share baseline configs) is served from the
//!   table instead of simulated again;
//! * **quarantine on first failure** — a typed [`SimError`] or a
//!   caught panic quarantines the cell at once, since a retry would
//!   replay the identical simulation: the sweep completes, the cell
//!   yields a zeroed placeholder result, and the record lands in the
//!   artifact's quarantine section;
//! * **checkpoint resumability** — with a file attached to the table,
//!   finished and quarantined cells stream to `checkpoint.jsonl` as
//!   they conclude, and a re-invoked sweep serves them from disk,
//!   reproducing the merged artifact byte-identically after a crash
//!   or SIGKILL.
//!
//! Cells that collect traces always run and are never stored: their
//! traces are too large to keep and re-run deterministically anyway.

use crate::ckpt::{Checkpoint, QuarantineRecord};
use crate::runner::{self, RunConfig, RunResult};
use simcore::SimError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How one cell concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// Ran to completion this invocation.
    Completed,
    /// Served from the checkpoint file; no simulation ran.
    Resumed,
    /// Served from memory: the same cell already finished under this
    /// supervisor, which has no checkpoint file; no simulation ran.
    Reused,
    /// Failed, this invocation or in a previous one (then served from
    /// the table without running).
    Quarantined { error: String },
}

type CellRunner = dyn Fn(&RunConfig) -> Result<RunResult, SimError> + Send + Sync;

/// The sweep supervisor. Cheap to construct; share one per sweep
/// (methods take `&self`, all mutability is internal).
pub struct Supervisor {
    /// Every cell this supervisor has concluded or loaded, by key.
    table: Mutex<Checkpoint>,
    runner: Box<CellRunner>,
    resumed_cells: AtomicUsize,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("checkpointed", &lock(&self.table).is_on_disk())
            .finish()
    }
}

impl Default for Supervisor {
    fn default() -> Self {
        Self::new()
    }
}

impl Supervisor {
    /// A supervisor with an in-memory outcome table and the real cell
    /// runner ([`runner::try_run`]).
    pub fn new() -> Self {
        Supervisor {
            table: Mutex::new(Checkpoint::default()),
            runner: Box::new(|cfg| runner::try_run(cfg.clone())),
            resumed_cells: AtomicUsize::new(0),
        }
    }

    /// Backs the outcome table with the checkpoint file at `path`
    /// (creating or resuming it).
    pub fn with_checkpoint(mut self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        self.table = Mutex::new(Checkpoint::open(path)?);
        Ok(self)
    }

    /// Replaces the cell runner — the failure-injection seam for
    /// supervisor tests, and the place to impose an event budget
    /// (call [`runner::try_run_budgeted`] inside the closure).
    pub fn with_runner(
        mut self,
        runner: impl Fn(&RunConfig) -> Result<RunResult, SimError> + Send + Sync + 'static,
    ) -> Self {
        self.runner = Box::new(runner);
        self
    }

    /// Cells served from the checkpoint file so far.
    pub fn cells_resumed(&self) -> usize {
        self.resumed_cells.load(Ordering::Relaxed)
    }

    /// Every quarantine record in the table — this invocation's and
    /// any loaded from the checkpoint file — key-ascending.
    pub fn quarantined(&self) -> Vec<QuarantineRecord> {
        lock(&self.table).quarantined()
    }

    /// Drives one cell to a result. Never panics: the worst case is a
    /// quarantine placeholder.
    pub fn run_one(&self, cfg: RunConfig) -> RunResult {
        self.run_cell(cfg).0
    }

    /// Like [`run_one`](Self::run_one), also reporting how the cell
    /// concluded. A cell already in the table is not run again: a
    /// finished one counts as resumed when the table has a checkpoint
    /// file and as reused otherwise.
    pub fn run_cell(&self, cfg: RunConfig) -> (RunResult, CellOutcome) {
        {
            let table = lock(&self.table);
            if let Some(result) = table.lookup(&cfg) {
                if table.is_on_disk() {
                    self.resumed_cells.fetch_add(1, Ordering::Relaxed);
                    return (result.clone(), CellOutcome::Resumed);
                }
                return (result.clone(), CellOutcome::Reused);
            }
            if let Some(record) = table.lookup_quarantine(&cfg) {
                let error = record.error.clone();
                return (placeholder(&cfg), CellOutcome::Quarantined { error });
            }
        }
        // A panicking cell is caught too (defense in depth; the
        // library crates are lint-walled panic-free, but a sweep must
        // survive anything). A full disk mid-sweep degrades
        // resumability, not correctness, so append errors are dropped.
        let error = match catch_unwind(AssertUnwindSafe(|| (self.runner)(&cfg))) {
            Ok(Ok(result)) => {
                let _ = lock(&self.table).record(&cfg, &result);
                return (result, CellOutcome::Completed);
            }
            Ok(Err(err)) => err.to_string(),
            Err(payload) => panic_message(payload.as_ref()),
        };
        let _ = lock(&self.table).record_quarantine(&cfg, &error);
        (placeholder(&cfg), CellOutcome::Quarantined { error })
    }

    /// Supervised replacement for [`runner::run_many`]: the same
    /// worker-pool fan-out and input-order preservation, but every
    /// cell goes through [`run_cell`](Self::run_cell), so one bad cell
    /// costs a placeholder, not the sweep.
    pub fn run_many(&self, configs: Vec<RunConfig>) -> Vec<RunResult> {
        simcore::par::map_ordered(configs, |c| self.run_one(c))
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// The zeroed stand-in a quarantined cell contributes to its sweep.
/// Figure tables render its all-zero metrics as `n/a` against real
/// baselines; the quarantine section names the cell and its error.
pub fn placeholder(cfg: &RunConfig) -> RunResult {
    RunResult {
        governor: cfg.governor.label().to_string(),
        sleep: cfg.sleep.label().to_string(),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{GovernorKind, Scale};
    use simcore::{SimDuration, StepBudget};
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;
    use workload::{AppKind, LoadSpec};

    fn tiny(seed: u64) -> RunConfig {
        RunConfig {
            warmup: SimDuration::from_millis(50),
            duration: SimDuration::from_millis(150),
            ..RunConfig::new(
                AppKind::Memcached,
                LoadSpec::custom(20_000.0, SimDuration::from_millis(100), 0.4, 0.3),
                GovernorKind::Ondemand,
                Scale::Quick,
            )
        }
        .with_seed(seed)
    }

    /// A supervisor around `runner`, and the count of its calls.
    fn counted(
        runner: impl Fn(&RunConfig) -> Result<RunResult, SimError> + Send + Sync + 'static,
    ) -> (Supervisor, Arc<AtomicU32>) {
        let calls = Arc::new(AtomicU32::new(0));
        let seen = calls.clone();
        let sup = Supervisor::new().with_runner(move |cfg| {
            seen.fetch_add(1, Ordering::SeqCst);
            runner(cfg)
        });
        (sup, calls)
    }

    #[test]
    fn a_failing_cell_runs_once_and_is_quarantined() {
        let mut invalid = tiny(3);
        invalid.duration = SimDuration::ZERO;
        let cases = [
            (
                counted(|_| {
                    Err(SimError::Accounting {
                        context: "test",
                        reason: "always broken".into(),
                    })
                }),
                tiny(1),
                "accounting error in test: always broken",
            ),
            (
                counted(|_| panic!("cell exploded")),
                tiny(2),
                "panic: cell exploded",
            ),
            (
                counted(|cfg| runner::try_run(cfg.clone())),
                invalid,
                "invalid config: ",
            ),
        ];
        for ((sup, calls), cfg, expected) in cases {
            for ask in 1..=2 {
                let (result, outcome) = sup.run_cell(cfg.clone());
                match outcome {
                    CellOutcome::Quarantined { error } => {
                        assert!(error.starts_with(expected), "{error}")
                    }
                    other => panic!("expected quarantine, got {other:?}"),
                }
                assert_eq!(result, placeholder(&cfg), "placeholder");
                assert_eq!(
                    calls.load(Ordering::SeqCst),
                    1,
                    "{expected}: ask {ask} must not run the cell again"
                );
            }
            let quarantined = sup.quarantined();
            assert_eq!(quarantined.len(), 1);
            assert_eq!(quarantined[0].governor, "ondemand");
        }
    }

    #[test]
    fn event_budget_exhaustion_quarantines_the_cell() {
        let budget = StepBudget::unlimited().with_max_events(5_000);
        let (sup, calls) = counted(move |cfg| runner::try_run_budgeted(cfg.clone(), &budget));
        let (_, outcome) = sup.run_cell(tiny(4));
        match outcome {
            CellOutcome::Quarantined { error } => assert!(error.contains("event-count"), "{error}"),
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn sweep_completes_around_a_quarantined_cell() {
        let sup = Supervisor::new().with_runner(|cfg| {
            if cfg.seed == 99 {
                Err(SimError::Accounting {
                    context: "test",
                    reason: "poisoned cell".into(),
                })
            } else {
                runner::try_run(cfg.clone())
            }
        });
        let results = sup.run_many(vec![tiny(1), tiny(99), tiny(5)]);
        assert_eq!(results.len(), 3, "order and length preserved");
        assert!(results[0].received > 0);
        assert_eq!(results[1].received, 0, "placeholder in position");
        assert!(results[2].received > 0);
        assert_eq!(sup.quarantined().len(), 1);
    }

    #[test]
    fn checkpoint_resume_skips_finished_and_quarantined_cells() {
        let mut path = std::env::temp_dir();
        path.push(format!("nmap-sup-resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let configs = vec![tiny(1), tiny(2), tiny(99), tiny(3)];
        let first = {
            let sup = Supervisor::new()
                .with_checkpoint(&path)
                .expect("checkpoint")
                .with_runner(|cfg| match cfg.seed {
                    99 => Err(SimError::invalid("test", "poisoned cell")),
                    _ => runner::try_run(cfg.clone()),
                });
            sup.run_many(configs.clone())
        };
        let sup = Supervisor::new()
            .with_checkpoint(&path)
            .expect("checkpoint")
            .with_runner(|_| panic!("must not re-run a concluded cell"));
        let second = sup.run_many(configs);
        assert_eq!(second, first, "resumed results identical");
        assert_eq!(sup.cells_resumed(), 3);
        assert_eq!(sup.quarantined().len(), 1, "the quarantine is loaded");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_config_shared_across_sweeps_runs_once() {
        let (sup, calls) = counted(|cfg| {
            Ok(RunResult {
                sent: cfg.seed,
                ..placeholder(cfg)
            })
        });
        let first = sup.run_many(vec![tiny(1), tiny(2)]);
        let second = sup.run_many(vec![tiny(2), tiny(3)]);
        assert_eq!(calls.load(Ordering::SeqCst), 3, "tiny(2) ran once");
        assert_eq!(second[0], first[1], "the shared cell's result is reused");
        assert_eq!(second[1].sent, 3);
        assert_eq!(sup.run_cell(tiny(1)).1, CellOutcome::Reused);
        assert_eq!(sup.cells_resumed(), 0, "a reuse is not a resume");
        // Traced cells always run: their traces are never kept.
        sup.run_one(tiny(1).with_traces());
        assert_eq!(calls.load(Ordering::SeqCst), 4);
    }
}
