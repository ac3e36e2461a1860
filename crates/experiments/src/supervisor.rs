//! The crash-safe sweep supervisor.
//!
//! [`Supervisor`] drives sweep cells (any [`Cell`]: box and fleet
//! configs) to completion. A cell's outcome is a pure function of its
//! config (every run is seeded and event-budgeted, never paced by host
//! time), so:
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

use crate::ckpt::{Checkpoint, Codec, QuarantineRecord};
use crate::runner::{self, RunConfig, RunResult};
use cluster::{FleetConfig, FleetResult};
use simcore::SimError;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One sweep cell: a config the supervisor runs once and keys by its
/// `Debug` rendering.
pub trait Cell: Debug + Sync {
    /// What a run yields; the checkpoint stores it through its codec.
    type Output: Codec + Clone + Send + 'static;
    /// Runs the cell.
    fn run(&self) -> Result<Self::Output, SimError>;
    /// The zeroed stand-in a quarantined cell contributes to its
    /// sweep; figure tables render its zeros as `n/a`.
    fn placeholder(&self) -> Self::Output;
    /// The governor label, for the quarantine section.
    fn label(&self) -> &str;
    /// Whether the outcome table keeps the result (else it always runs).
    fn stored(&self) -> bool {
        true
    }
}

impl Cell for RunConfig {
    type Output = RunResult;
    fn run(&self) -> Result<RunResult, SimError> {
        runner::try_run(self.clone())
    }
    fn placeholder(&self) -> RunResult {
        RunResult {
            governor: self.governor.label().to_string(),
            sleep: self.sleep.label().to_string(),
            ..Default::default()
        }
    }
    fn label(&self) -> &str {
        self.governor.label()
    }
    fn stored(&self) -> bool {
        !self.collect_traces
    }
}

/// Servers advance inline: the sweep's fan-out already fills the CPUs.
impl Cell for FleetConfig {
    type Output = FleetResult;
    fn run(&self) -> Result<FleetResult, SimError> {
        cluster::try_run_fleet_inline(self.clone())
    }
    fn placeholder(&self) -> FleetResult {
        FleetResult {
            governor: self.governor.label().to_string(),
            ..Default::default()
        }
    }
    fn label(&self) -> &str {
        self.governor.label()
    }
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

/// The sweep supervisor. Cheap to construct; share one per sweep
/// (methods take `&self`, all mutability is internal).
#[derive(Debug, Default)]
pub struct Supervisor {
    /// Every cell this supervisor has concluded or loaded, by key.
    table: Mutex<Checkpoint>,
    resumed_cells: AtomicUsize,
}

impl Supervisor {
    /// A supervisor with an in-memory outcome table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Backs the outcome table with the checkpoint file at `path`
    /// (creating or resuming it).
    pub fn with_checkpoint(mut self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        self.table = Mutex::new(Checkpoint::open(path)?);
        Ok(self)
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

    /// Drives one cell to a result, reporting how it concluded. Never
    /// panics: the worst case is a quarantine placeholder. A cell
    /// already in the table is not run again: a finished one counts as
    /// resumed when the table has a checkpoint file and as reused
    /// otherwise.
    pub fn run_cell<C: Cell>(&self, cell: &C) -> (C::Output, CellOutcome) {
        {
            let mut table = lock(&self.table);
            let on_disk = table.is_on_disk();
            if let Some(result) = table.lookup(cell) {
                if on_disk {
                    self.resumed_cells.fetch_add(1, Ordering::Relaxed);
                    return (result.clone(), CellOutcome::Resumed);
                }
                return (result.clone(), CellOutcome::Reused);
            }
            if let Some(record) = table.lookup_quarantine(cell) {
                let error = record.error.clone();
                return (cell.placeholder(), CellOutcome::Quarantined { error });
            }
        }
        // A panicking cell is caught too (defense in depth; the
        // library crates are lint-walled panic-free, but a sweep must
        // survive anything). A full disk mid-sweep degrades
        // resumability, not correctness, so append errors are dropped.
        let error = match catch_unwind(AssertUnwindSafe(|| cell.run())) {
            Ok(Ok(result)) => {
                let _ = lock(&self.table).record(cell, &result);
                return (result, CellOutcome::Completed);
            }
            Ok(Err(err)) => err.to_string(),
            Err(payload) => panic_message(payload.as_ref()),
        };
        let _ = lock(&self.table).record_quarantine(cell, &error);
        (cell.placeholder(), CellOutcome::Quarantined { error })
    }

    /// Supervised replacement for [`runner::run_many`]: the same
    /// worker-pool fan-out and input-order preservation, but every
    /// cell goes through [`run_cell`](Self::run_cell), so one bad cell
    /// costs a placeholder, not the sweep.
    pub fn run_many<C: Cell + Send>(&self, cells: Vec<C>) -> Vec<C::Output> {
        simcore::par::map_ordered(cells, |cell| self.run_cell(&cell).0)
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

    type Behave = fn(&RunConfig) -> Result<RunResult, SimError>;

    /// A stand-in cell: its config run through `behave`, counting the
    /// runs. Its `Debug` is the config's, so it keys like the config.
    struct Fake {
        cfg: RunConfig,
        behave: Behave,
        runs: Arc<AtomicU32>,
    }

    impl Debug for Fake {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.cfg.fmt(f)
        }
    }

    impl Cell for Fake {
        type Output = RunResult;
        fn run(&self) -> Result<RunResult, SimError> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            (self.behave)(&self.cfg)
        }
        fn placeholder(&self) -> RunResult {
            self.cfg.placeholder()
        }
        fn label(&self) -> &str {
            self.cfg.label()
        }
        fn stored(&self) -> bool {
            self.cfg.stored()
        }
    }

    /// `configs` as fake cells sharing one run counter.
    fn fakes(configs: Vec<RunConfig>, behave: Behave) -> (Vec<Fake>, Arc<AtomicU32>) {
        let runs = Arc::new(AtomicU32::new(0));
        let cells = configs
            .into_iter()
            .map(|cfg| Fake {
                cfg,
                behave,
                runs: runs.clone(),
            })
            .collect();
        (cells, runs)
    }

    fn real(cfg: &RunConfig) -> Result<RunResult, SimError> {
        cfg.run()
    }

    /// Runs the config unless its seed is 99.
    fn poisoned(cfg: &RunConfig) -> Result<RunResult, SimError> {
        match cfg.seed {
            99 => Err(SimError::invalid("test", "poisoned cell")),
            _ => cfg.run(),
        }
    }

    #[test]
    fn a_failing_cell_runs_once_and_is_quarantined() {
        let mut invalid = tiny(3);
        invalid.duration = SimDuration::ZERO;
        let cases: [(Behave, _, _); 3] = [
            (
                |_| {
                    Err(SimError::Accounting {
                        context: "test",
                        reason: "always broken".into(),
                    })
                },
                tiny(1),
                "accounting error in test: always broken",
            ),
            (|_| panic!("cell exploded"), tiny(2), "panic: cell exploded"),
            (real, invalid, "invalid config: "),
        ];
        for (behave, cfg, expected) in cases {
            let sup = Supervisor::new();
            let (cells, runs) = fakes(vec![cfg.clone()], behave);
            for ask in 1..=2 {
                let (result, outcome) = sup.run_cell(&cells[0]);
                match outcome {
                    CellOutcome::Quarantined { error } => {
                        assert!(error.starts_with(expected), "{error}")
                    }
                    other => panic!("expected quarantine, got {other:?}"),
                }
                assert_eq!(result, cfg.placeholder(), "placeholder");
                assert_eq!(
                    runs.load(Ordering::SeqCst),
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
        let (cells, runs) = fakes(vec![tiny(4)], |cfg| {
            let budget = StepBudget::unlimited().with_max_events(5_000);
            runner::try_run_budgeted(cfg.clone(), &budget)
        });
        let (_, outcome) = Supervisor::new().run_cell(&cells[0]);
        match outcome {
            CellOutcome::Quarantined { error } => assert!(error.contains("event-count"), "{error}"),
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn sweep_completes_around_a_quarantined_cell() {
        let sup = Supervisor::new();
        let (cells, _) = fakes(vec![tiny(1), tiny(99), tiny(5)], poisoned);
        let results = sup.run_many(cells);
        assert_eq!(results.len(), 3, "order and length preserved");
        assert!(results[0].received > 0);
        assert_eq!(results[1].received, 0, "placeholder in position");
        assert!(results[2].received > 0);
        assert_eq!(sup.quarantined().len(), 1);
    }

    /// A fleet that fails validation is quarantined under its
    /// governor label; the valid fleet beside it completes.
    #[test]
    fn a_failing_fleet_cell_is_quarantined_beside_a_good_one() {
        let good = FleetConfig::new(2, AppKind::Memcached, 4_000.0, GovernorKind::Ondemand)
            .with_window(SimDuration::from_millis(40), SimDuration::from_millis(120));
        let bad = FleetConfig {
            servers: 0,
            ..good.clone()
        };
        let sup = Supervisor::new();
        let results = sup.run_many(vec![good, bad.clone()]);
        assert!(results[0].completed > 0, "the good fleet served");
        assert_eq!(results[1], bad.placeholder(), "placeholder in position");
        let quarantined = sup.quarantined();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].governor, "ondemand");
        assert!(
            quarantined[0].error.starts_with("invalid config: "),
            "{}",
            quarantined[0].error
        );
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
                .expect("checkpoint");
            sup.run_many(fakes(configs.clone(), poisoned).0)
        };
        let sup = Supervisor::new()
            .with_checkpoint(&path)
            .expect("checkpoint");
        let (cells, runs) = fakes(configs, |_| panic!("must not re-run a concluded cell"));
        let second = sup.run_many(cells);
        assert_eq!(second, first, "resumed results identical");
        assert_eq!(runs.load(Ordering::SeqCst), 0);
        assert_eq!(sup.cells_resumed(), 3);
        assert_eq!(sup.quarantined().len(), 1, "the quarantine is loaded");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_config_shared_across_sweeps_runs_once() {
        let sup = Supervisor::new();
        let echo_seed: Behave = |cfg| {
            Ok(RunResult {
                sent: cfg.seed,
                ..cfg.placeholder()
            })
        };
        let (cells, runs) = fakes(
            vec![tiny(1), tiny(2), tiny(2), tiny(3), tiny(1).with_traces()],
            echo_seed,
        );
        let run = |cells: &[Fake]| -> Vec<RunResult> {
            cells.iter().map(|cell| sup.run_cell(cell).0).collect()
        };
        let (first, second) = (run(&cells[..2]), run(&cells[2..4]));
        assert_eq!(runs.load(Ordering::SeqCst), 3, "tiny(2) ran once");
        assert_eq!(second[0], first[1], "the shared cell's result is reused");
        assert_eq!(second[1].sent, 3);
        assert_eq!(sup.run_cell(&cells[0]).1, CellOutcome::Reused);
        assert_eq!(sup.cells_resumed(), 0, "a reuse is not a resume");
        // Traced cells always run: their traces are never kept.
        sup.run_cell(&cells[4]);
        assert_eq!(runs.load(Ordering::SeqCst), 4);
    }
}
