//! The crash-safe sweep supervisor.
//!
//! [`Supervisor`] drives sweep cells ([`RunConfig`]s) to completion
//! under a per-cell failure policy:
//!
//! * **budget watchdog** — each attempt runs under the policy's
//!   [`StepBudget`]; a runaway cell (livelocked event chain, wedged
//!   host) aborts with [`SimError::BudgetExceeded`] instead of
//!   hanging the sweep;
//! * **retry with capped exponential backoff** — transient failures
//!   (panics, wall-clock budget aborts, accounting violations) replay
//!   the cell with its seed untouched, sleeping
//!   `base * 2^(attempt-1)` (capped) between attempts;
//! * **quarantine** — deterministic failures (invalid configs,
//!   event-count budget aborts) and cells that exhaust their retries
//!   are quarantined: the sweep completes, the cell yields a zeroed
//!   placeholder result, and the record lands in the artifact's
//!   quarantine section;
//! * **checkpoint resumability** — with a [`Checkpoint`] attached,
//!   completed cells stream to `checkpoint.jsonl` as they finish and
//!   a re-invoked sweep serves them from disk, reproducing the merged
//!   artifact byte-identically after a crash or SIGKILL;
//! * **one run per distinct cell** — without a checkpoint, a cell that
//!   already finished under this supervisor (sweeps share baseline
//!   configs) is served from memory instead of simulated again.

use crate::ckpt::{Checkpoint, QuarantineRecord};
use crate::runner::{self, RunConfig, RunResult};
use simcore::{SimError, StepBudget};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Retry/backoff/budget policy for one sweep.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorPolicy {
    /// Attempts per cell before quarantining (at least 1).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff_base * 2^(n-1)`.
    pub backoff_base: Duration,
    /// Ceiling on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Per-attempt step/wall-clock budget (the runaway-cell guard).
    pub budget: StepBudget,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            budget: StepBudget::unlimited(),
        }
    }
}

impl SupervisorPolicy {
    /// The backoff before retry attempt `next_attempt` (2-based: no
    /// sleep precedes the first attempt), exponential and capped.
    pub fn backoff(&self, next_attempt: u32) -> Duration {
        let doublings = next_attempt.saturating_sub(2).min(20);
        let exp = self
            .backoff_base
            .saturating_mul(2u32.saturating_pow(doublings));
        exp.min(self.backoff_cap)
    }
}

/// How one cell concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// Ran to completion this invocation (after `attempts` tries).
    Completed { attempts: u32 },
    /// Served from the checkpoint; no simulation ran.
    Resumed,
    /// Served from memory: the same cell already finished under this
    /// supervisor, which has no checkpoint; no simulation ran.
    Reused,
    /// Quarantined this invocation (or in a previous one).
    Quarantined { error: String, attempts: u32 },
}

type CellRunner = dyn Fn(&RunConfig, &StepBudget) -> Result<RunResult, SimError> + Send + Sync;

/// The sweep supervisor. Cheap to construct; share one per sweep
/// (methods take `&self`, all mutability is internal).
pub struct Supervisor {
    policy: SupervisorPolicy,
    checkpoint: Option<Mutex<Checkpoint>>,
    runner: Box<CellRunner>,
    quarantine_log: Mutex<Vec<QuarantineRecord>>,
    resumed_cells: Mutex<usize>,
    /// Untraced cells finished by this supervisor, by
    /// [`cell_key`](crate::ckpt::cell_key), when no checkpoint holds
    /// them.
    finished: Mutex<HashMap<u64, RunResult>>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("policy", &self.policy)
            .field("checkpointed", &self.checkpoint.is_some())
            .finish()
    }
}

impl Default for Supervisor {
    fn default() -> Self {
        Self::new()
    }
}

impl Supervisor {
    /// A supervisor with the default policy, no checkpoint, and the
    /// real cell runner ([`runner::try_run_budgeted`]).
    pub fn new() -> Self {
        Supervisor {
            policy: SupervisorPolicy::default(),
            checkpoint: None,
            runner: Box::new(|cfg, budget| runner::try_run_budgeted(cfg.clone(), budget)),
            quarantine_log: Mutex::new(Vec::new()),
            resumed_cells: Mutex::new(0),
            finished: Mutex::new(HashMap::new()),
        }
    }

    /// Overrides the failure policy.
    pub fn with_policy(mut self, policy: SupervisorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches (creating or resuming) the checkpoint at `path`.
    pub fn with_checkpoint(mut self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        self.checkpoint = Some(Mutex::new(Checkpoint::open(path)?));
        Ok(self)
    }

    /// Replaces the cell runner — the failure-injection seam for
    /// supervisor tests.
    pub fn with_runner(
        mut self,
        runner: impl Fn(&RunConfig, &StepBudget) -> Result<RunResult, SimError> + Send + Sync + 'static,
    ) -> Self {
        self.runner = Box::new(runner);
        self
    }

    /// The active policy.
    pub fn policy(&self) -> &SupervisorPolicy {
        &self.policy
    }

    /// Cells served from the checkpoint so far.
    pub fn cells_resumed(&self) -> usize {
        *lock(&self.resumed_cells)
    }

    /// Quarantine records accumulated by this supervisor, plus any
    /// already present in the attached checkpoint, key-ascending and
    /// deduplicated.
    pub fn quarantined(&self) -> Vec<QuarantineRecord> {
        let mut records: Vec<QuarantineRecord> = lock(&self.quarantine_log).clone();
        if let Some(ck) = &self.checkpoint {
            let ck = lock(ck);
            for r in ck.quarantined() {
                records.push(r.clone());
            }
        }
        records.sort_by_key(|r| r.key);
        records.dedup_by_key(|r| r.key);
        records
    }

    /// Drives one cell to a result under the failure policy. Never
    /// panics and never hangs past the budget: the worst case is a
    /// quarantine placeholder.
    pub fn run_one(&self, cfg: RunConfig) -> RunResult {
        self.run_cell(cfg).0
    }

    /// Like [`run_one`](Self::run_one), also reporting how the cell
    /// concluded. An untraced cell that already finished under this
    /// supervisor is not simulated again: the checkpoint serves it
    /// (counted as resumed) when one is attached, memory otherwise.
    pub fn run_cell(&self, cfg: RunConfig) -> (RunResult, CellOutcome) {
        if let Some(ck) = &self.checkpoint {
            let ck = lock(ck);
            if let Some(result) = ck.lookup(&cfg) {
                let result = result.clone();
                drop(ck);
                *lock(&self.resumed_cells) += 1;
                return (result, CellOutcome::Resumed);
            }
            if let Some(record) = ck.lookup_quarantine(&cfg) {
                let outcome = CellOutcome::Quarantined {
                    error: record.error.clone(),
                    attempts: record.attempts,
                };
                let record = record.clone();
                drop(ck);
                lock(&self.quarantine_log).push(record);
                return (placeholder(&cfg), outcome);
            }
        } else if !cfg.collect_traces {
            if let Some(result) = lock(&self.finished).get(&crate::ckpt::cell_key(&cfg)) {
                return (result.clone(), CellOutcome::Reused);
            }
        }
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempt = 0u32;
        let final_error: String = loop {
            attempt += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                (self.runner)(&cfg, &self.policy.budget)
            }));
            match outcome {
                Ok(Ok(result)) => {
                    if let Some(ck) = &self.checkpoint {
                        // A full disk mid-sweep degrades resumability,
                        // not correctness: the result is still returned.
                        let _ = lock(ck).record(&cfg, &result);
                    } else if !cfg.collect_traces {
                        lock(&self.finished).insert(crate::ckpt::cell_key(&cfg), result.clone());
                    }
                    return (result, CellOutcome::Completed { attempts: attempt });
                }
                Ok(Err(err)) => {
                    // Deterministic failures cannot be retried away:
                    // invalid configs fail validation identically, and
                    // an event-count budget abort replays identically
                    // (virtual time is host-independent).
                    let deterministic = err.is_config()
                        || matches!(
                            err,
                            SimError::BudgetExceeded {
                                kind: simcore::BudgetKind::Events,
                                ..
                            }
                        );
                    if deterministic || attempt >= max_attempts {
                        break err.to_string();
                    }
                }
                Err(payload) => {
                    // A panicking cell is retried too (defense in
                    // depth; the library crates are lint-walled
                    // panic-free, but a sweep must survive anything).
                    if attempt >= max_attempts {
                        break panic_message(payload.as_ref());
                    }
                }
            }
            std::thread::sleep(self.policy.backoff(attempt + 1));
        };
        self.quarantine(&cfg, &final_error, attempt);
        (
            placeholder(&cfg),
            CellOutcome::Quarantined {
                error: final_error,
                attempts: attempt,
            },
        )
    }

    fn quarantine(&self, cfg: &RunConfig, error: &str, attempts: u32) {
        if let Some(ck) = &self.checkpoint {
            let _ = lock(ck).record_quarantine(cfg, error, attempts);
        }
        lock(&self.quarantine_log).push(QuarantineRecord {
            key: crate::ckpt::cell_key(cfg),
            governor: cfg.governor.label().to_string(),
            error: error.to_string(),
            attempts,
        });
    }

    /// Supervised replacement for [`runner::run_many`]: the same
    /// worker-pool fan-out and input-order preservation, but every
    /// cell goes through the failure policy, so one bad cell costs a
    /// placeholder, not the sweep.
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
    use simcore::SimDuration;
    use std::sync::atomic::{AtomicU32, Ordering};
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

    fn fast_policy() -> SupervisorPolicy {
        SupervisorPolicy {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..SupervisorPolicy::default()
        }
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let policy = SupervisorPolicy {
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_millis(150),
            ..SupervisorPolicy::default()
        };
        assert_eq!(policy.backoff(2), Duration::from_millis(50));
        assert_eq!(policy.backoff(3), Duration::from_millis(100));
        assert_eq!(policy.backoff(4), Duration::from_millis(150), "capped");
        assert_eq!(policy.backoff(30), Duration::from_millis(150));
    }

    #[test]
    fn transient_failure_retries_with_seed_preserved() {
        let calls = AtomicU32::new(0);
        let sup = Supervisor::new()
            .with_policy(fast_policy())
            .with_runner(move |cfg, budget| {
                assert_eq!(cfg.seed, 42, "replay must preserve the seed");
                if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(SimError::Accounting {
                        context: "test",
                        reason: "transient".into(),
                    })
                } else {
                    runner::try_run_budgeted(cfg.clone(), budget)
                }
            });
        let (result, outcome) = sup.run_cell(tiny(42));
        assert_eq!(outcome, CellOutcome::Completed { attempts: 3 });
        assert!(result.received > 0);
        assert!(sup.quarantined().is_empty());
    }

    #[test]
    fn persistent_failure_quarantines_after_max_attempts() {
        let calls = AtomicU32::new(0);
        let sup = Supervisor::new()
            .with_policy(fast_policy())
            .with_runner(move |_, _| {
                calls.fetch_add(1, Ordering::SeqCst);
                Err(SimError::Accounting {
                    context: "test",
                    reason: "always broken".into(),
                })
            });
        let (result, outcome) = sup.run_cell(tiny(1));
        assert_eq!(
            outcome,
            CellOutcome::Quarantined {
                error: "accounting error in test: always broken".into(),
                attempts: 3,
            }
        );
        assert_eq!(result.received, 0, "placeholder");
        assert_eq!(result.governor, "ondemand");
        assert_eq!(sup.quarantined().len(), 1);
    }

    #[test]
    fn panicking_cell_is_caught_and_quarantined() {
        let sup = Supervisor::new()
            .with_policy(fast_policy())
            .with_runner(|_, _| panic!("cell exploded"));
        let (_, outcome) = sup.run_cell(tiny(2));
        match outcome {
            CellOutcome::Quarantined { error, attempts } => {
                assert!(error.contains("cell exploded"), "{error}");
                assert_eq!(attempts, 3);
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn config_errors_quarantine_without_retry() {
        let calls = std::sync::Arc::new(AtomicU32::new(0));
        let seen = calls.clone();
        let sup = Supervisor::new()
            .with_policy(fast_policy())
            .with_runner(move |cfg, budget| {
                seen.fetch_add(1, Ordering::SeqCst);
                runner::try_run_budgeted(cfg.clone(), budget)
            });
        let mut cfg = tiny(3);
        cfg.duration = SimDuration::ZERO;
        let (_, outcome) = sup.run_cell(cfg);
        assert!(matches!(
            outcome,
            CellOutcome::Quarantined { attempts: 1, .. }
        ));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "no retry for configs");
    }

    #[test]
    fn event_budget_exhaustion_quarantines_without_retry() {
        let calls = std::sync::Arc::new(AtomicU32::new(0));
        let seen = calls.clone();
        let sup = Supervisor::new()
            .with_policy(SupervisorPolicy {
                budget: StepBudget::unlimited().with_max_events(5_000),
                ..fast_policy()
            })
            .with_runner(move |cfg, budget| {
                seen.fetch_add(1, Ordering::SeqCst);
                runner::try_run_budgeted(cfg.clone(), budget)
            });
        let (_, outcome) = sup.run_cell(tiny(4));
        match outcome {
            CellOutcome::Quarantined { error, attempts } => {
                assert!(error.contains("event-count"), "{error}");
                assert_eq!(attempts, 1, "event budgets replay identically");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn sweep_completes_around_a_quarantined_cell() {
        let sup = Supervisor::new()
            .with_policy(fast_policy())
            .with_runner(|cfg, budget| {
                if cfg.seed == 99 {
                    Err(SimError::Accounting {
                        context: "test",
                        reason: "poisoned cell".into(),
                    })
                } else {
                    runner::try_run_budgeted(cfg.clone(), budget)
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
    fn checkpoint_resume_skips_finished_cells() {
        let mut path = std::env::temp_dir();
        path.push(format!("nmap-sup-resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let configs = vec![tiny(1), tiny(2), tiny(3)];
        let first = {
            let sup = Supervisor::new()
                .with_checkpoint(&path)
                .expect("checkpoint");
            sup.run_many(configs.clone())
        };
        let sup = Supervisor::new()
            .with_checkpoint(&path)
            .expect("checkpoint")
            .with_runner(|_, _| panic!("must not re-run a finished cell"));
        let second = sup.run_many(configs);
        assert_eq!(second, first, "resumed results identical");
        assert_eq!(sup.cells_resumed(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_config_shared_across_sweeps_runs_once() {
        let calls = std::sync::Arc::new(AtomicU32::new(0));
        let seen = calls.clone();
        let sup = Supervisor::new()
            .with_policy(fast_policy())
            .with_runner(move |cfg, _| {
                seen.fetch_add(1, Ordering::SeqCst);
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
