//! Crash-safe sweep supervision, end to end:
//!
//! * an interrupted sweep (half its cells checkpointed, torn tail
//!   bytes on the file) resumes without re-running finished cells and
//!   produces a byte-identical artifact;
//! * a per-cell event budget, imposed by a cell that runs its config
//!   budgeted, aborts runaway cells with a typed error and quarantines
//!   them, while the rest of the sweep completes;
//! * quarantined cells surface placeholder rows, never panics.
//!
//! The real process-kill rehearsal (SIGTERM on `repro --checkpoint`,
//! resume, `diff` the artifacts) runs in CI — see
//! `.github/workflows/ci.yml`.

use experiments::{
    cell_key, try_run_budgeted, Cell, GovernorKind, RunConfig, RunResult, Scale, Supervisor,
};
use simcore::{SimDuration, SimError, StepBudget};
use std::io::Write;
use workload::{AppKind, LoadSpec};

fn sweep_configs() -> Vec<RunConfig> {
    let load = LoadSpec::custom(40_000.0, SimDuration::from_millis(100), 0.4, 0.3);
    let mut configs = Vec::new();
    for gov in [
        GovernorKind::Performance,
        GovernorKind::Ondemand,
        GovernorKind::NmapSimpl,
    ] {
        for seed in [7u64, 11] {
            configs.push(
                RunConfig {
                    warmup: SimDuration::from_millis(20),
                    duration: SimDuration::from_millis(60),
                    ..RunConfig::new(AppKind::Memcached, load, gov, Scale::Quick)
                }
                .with_seed(seed),
            );
        }
    }
    configs
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nmap-supervisor-{name}-{}", std::process::id()));
    p
}

/// A sweep killed mid-flight resumes from its checkpoint: finished
/// cells are not re-run, torn tail bytes from the crash are
/// tolerated, and the merged artifact is byte-identical to an
/// uninterrupted sweep's.
#[test]
fn interrupted_sweep_resumes_byte_identically() {
    let configs = sweep_configs();

    // The uninterrupted reference artifact (no checkpoint at all).
    let reference = Supervisor::new().run_many(configs.clone());
    let reference_artifact = format!("{reference:#?}");

    // "Crash" after the first half: a supervisor checkpoints three
    // cells and the process dies (we just stop driving it), leaving a
    // torn partial line behind as a real SIGKILL mid-write would.
    let ckpt = tmp_path("resume");
    let _ = std::fs::remove_file(&ckpt);
    {
        let sup = Supervisor::new()
            .with_checkpoint(&ckpt)
            .expect("open checkpoint");
        let partial = sup.run_many(configs[..3].to_vec());
        assert_eq!(partial.len(), 3);
        assert_eq!(sup.cells_resumed(), 0, "fresh checkpoint resumes nothing");
    }
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&ckpt)
            .expect("reopen checkpoint");
        // No trailing newline: a torn write, not a valid record.
        write!(f, "{{\"kind\":\"cell\",\"key\":\"dead").expect("tear the tail");
    }

    // Resume: the full sweep against the same checkpoint.
    let sup = Supervisor::new()
        .with_checkpoint(&ckpt)
        .expect("reopen checkpoint");
    let resumed = sup.run_many(configs.clone());
    assert_eq!(
        sup.cells_resumed(),
        3,
        "the three finished cells must be served from the checkpoint"
    );
    assert_eq!(
        format!("{resumed:#?}"),
        reference_artifact,
        "resumed sweep must merge to a byte-identical artifact"
    );

    // Idempotence: resuming a *finished* sweep re-runs nothing.
    let sup = Supervisor::new()
        .with_checkpoint(&ckpt)
        .expect("reopen checkpoint");
    let replay = sup.run_many(configs.clone());
    assert_eq!(sup.cells_resumed(), configs.len());
    assert_eq!(format!("{replay:#?}"), reference_artifact);

    let _ = std::fs::remove_file(&ckpt);
}

/// A box cell held to 500 events: far too few for even a Quick
/// window, so every run exceeds the budget.
#[derive(Debug)]
struct Budgeted(RunConfig);

impl Cell for Budgeted {
    type Output = RunResult;
    fn run(&self) -> Result<RunResult, SimError> {
        let budget = StepBudget::unlimited().with_max_events(500);
        try_run_budgeted(self.0.clone(), &budget)
    }
    fn placeholder(&self) -> RunResult {
        self.0.placeholder()
    }
    fn label(&self) -> &str {
        self.0.label()
    }
}

/// A per-cell event budget aborts runaway cells with a typed
/// `BudgetExceeded` and quarantines them; the sweep still completes
/// with placeholder rows.
#[test]
fn event_budget_quarantines_runaway_cells_but_sweep_completes() {
    let cells: Vec<Budgeted> = sweep_configs().into_iter().map(Budgeted).collect();
    let n = cells.len();
    let sup = Supervisor::new();
    let results = sup.run_many(cells);
    assert_eq!(results.len(), n, "sweep must complete around quarantines");
    let quarantined = sup.quarantined();
    assert_eq!(quarantined.len(), n, "every cell overran the budget");
    for q in &quarantined {
        assert!(
            q.error.contains("budget"),
            "quarantine must carry the typed reason: {}",
            q.error
        );
    }
    for r in &results {
        assert_eq!(r.sent, 0, "placeholder rows are all-zero");
    }
}

/// Quarantine records key cells by their config hash, and the hash
/// tracks the fields that change results — two sweeps over the same
/// grid hit the same keys.
#[test]
fn checkpoint_keys_are_stable_across_processes_in_spirit() {
    let a: Vec<u64> = sweep_configs().iter().map(cell_key).collect();
    let b: Vec<u64> = sweep_configs().iter().map(cell_key).collect();
    assert_eq!(a, b, "cell keys must be a pure function of the config");
    let mut sorted = a.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), a.len(), "distinct cells get distinct keys");
}
