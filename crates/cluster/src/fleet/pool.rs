//! The fleet's server pool: persistent worker threads that advance the
//! servers' nested simulators while the LB runs its next epoch.
//!
//! Each server's [`ServerCore`] (its `Simulator<Testbed>` and
//! `Testbed`) lives here, never in the LB's world, so an LB event
//! cannot reach a running server: the only way to the cores is the
//! [`Joined`] view that [`ServerPool::join`] hands out once every
//! advance has come home. [`ServerPool::launch`] lends every core to
//! its worker (server `i` always goes to worker `i % W`) with one
//! horizon; `join` waits for them all. With zero workers `launch` only
//! records the horizon and `join` runs the advances inline in server
//! order, stopping at the first failure — the serial schedule, through
//! the same two calls.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SendError, Sender};
use std::thread::{self, JoinHandle};

use appsim::Testbed;
use governors::{FleetPoolSend, PStateGovernor, SleepPolicy};
use simcore::{SimError, SimTime, Simulator, StepBudget};

/// The server-side half of a fleet server: its nested simulator and
/// testbed, moved as one box between the pool and its workers.
pub(super) struct ServerCore {
    pub(super) sim: Simulator<Testbed>,
    pub(super) tb: Testbed,
}

impl ServerCore {
    fn advance(&mut self, horizon: SimTime, budget: &StepBudget) -> Result<(), SimError> {
        self.sim
            .run_until_budgeted(&mut self.tb, horizon, budget)
            .map(drop)
    }
}

// Compile-time proof that a server can be lent to a worker thread: a
// non-`Send` field anywhere in a testbed fails here, and one in a
// policy fails at its `PStateGovernor`/`SleepPolicy` impl, both noting
// that the type must implement `FleetPoolSend`.
const _: () = {
    const fn lendable<T: FleetPoolSend>() {}
    lendable::<Testbed>();
    lendable::<Simulator<Testbed>>();
    lendable::<ServerCore>();
    lendable::<Box<dyn PStateGovernor>>();
    lendable::<Box<dyn SleepPolicy>>();
};

/// A worker's answer: the server index and either the core with its
/// advance's outcome, or the panic payload that killed the advance.
type Done = (
    usize,
    thread::Result<(Box<ServerCore>, Result<(), SimError>)>,
);

struct Job {
    index: usize,
    core: Box<ServerCore>,
    horizon: SimTime,
}

struct Worker {
    jobs: Sender<Job>,
    handle: JoinHandle<()>,
}

/// The cores after a [`ServerPool::join`], in server order.
pub(super) struct Joined<'a> {
    pub(super) cores: &'a mut [Box<ServerCore>],
    /// The lowest-indexed server whose advance failed, with its error.
    /// In the serial schedule the servers after it never advanced.
    pub(super) failed: Option<(usize, SimError)>,
}

/// The worker count a fleet of `servers` uses: one per CPU up to one
/// per server, and none on a single-CPU host, where threads could only
/// take turns with the LB.
pub(super) fn default_workers(servers: usize) -> usize {
    let cpus = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    if cpus <= 1 {
        0
    } else {
        cpus.min(servers)
    }
}

/// A fleet's server cores and the worker threads that advance them.
pub(super) struct ServerPool {
    /// Cores at home, in server order. Empty while lent to workers; in
    /// inline mode the cores stay here and `pending` holds the horizon.
    /// Boxed so a loan moves one pointer, not the whole testbed.
    #[allow(clippy::vec_box)]
    home: Vec<Box<ServerCore>>,
    workers: Vec<Worker>,
    done: Receiver<Done>,
    /// Cores out on workers.
    lent: usize,
    /// Inline mode's launched-but-not-yet-run horizon.
    pending: Option<SimTime>,
    /// Returned cores and outcomes, reordered by server index in `join`.
    returned: Vec<(usize, Box<ServerCore>, Result<(), SimError>)>,
    budget: StepBudget,
}

impl ServerPool {
    /// Spawns up to `workers` threads (fewer if the host refuses
    /// threads, none with `workers == 0`) holding each server to
    /// `budget`.
    pub(super) fn new(cores: Vec<ServerCore>, workers: usize, budget: StepBudget) -> Self {
        let (done_tx, done) = mpsc::channel();
        let mut pool = ServerPool {
            returned: Vec::with_capacity(cores.len()),
            home: cores.into_iter().map(Box::new).collect(),
            workers: Vec::with_capacity(workers),
            done,
            lent: 0,
            pending: None,
            budget,
        };
        for k in 0..workers {
            let (jobs, rx) = mpsc::channel();
            let done_tx: Sender<Done> = done_tx.clone();
            let spawned = thread::Builder::new()
                .name(format!("fleet-server-{k}"))
                .spawn(move || work(&rx, &done_tx, &budget));
            match spawned {
                Ok(handle) => pool.workers.push(Worker { jobs, handle }),
                Err(_) => break,
            }
        }
        pool
    }

    /// Lends every core to its worker to advance to `horizon`. The
    /// pool must be joined (every core at home).
    pub(super) fn launch(&mut self, horizon: SimTime) {
        if self.workers.is_empty() {
            self.pending = Some(horizon);
            return;
        }
        let w = self.workers.len();
        for (index, core) in self.home.drain(..).enumerate() {
            let job = Job {
                index,
                core,
                horizon,
            };
            match self.workers[index % w].jobs.send(job) {
                Ok(()) => self.lent += 1,
                // The worker is gone; advance on this thread instead.
                Err(SendError(mut job)) => {
                    let r = job.core.advance(horizon, &self.budget);
                    self.returned.push((index, job.core, r));
                }
            }
        }
    }

    /// Waits for every lent core (or, inline, runs the pending
    /// advance) and returns the cores in server order. A worker's panic
    /// resumes on this thread once the other workers have returned.
    pub(super) fn join(&mut self) -> Joined<'_> {
        let mut failed = None;
        if let Some(horizon) = self.pending.take() {
            for (i, core) in self.home.iter_mut().enumerate() {
                if let Err(e) = core.advance(horizon, &self.budget) {
                    failed = Some((i, e));
                    break;
                }
            }
        }
        let mut panicked: Option<Box<dyn Any + Send>> = None;
        while self.lent > 0 {
            self.lent -= 1;
            match self.done.recv() {
                Ok((index, Ok((core, r)))) => self.returned.push((index, core, r)),
                Ok((_, Err(payload))) => {
                    panicked.get_or_insert(payload);
                }
                // Every worker has exited with cores still out: nothing
                // can bring them back.
                Err(_) => {
                    panicked.get_or_insert(Box::new("fleet pool workers exited mid-advance"));
                    self.lent = 0;
                }
            }
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        self.returned.sort_unstable_by_key(|&(index, ..)| index);
        for (index, core, r) in self.returned.drain(..) {
            if let Err(e) = r {
                failed.get_or_insert((index, e));
            }
            self.home.push(core);
        }
        Joined {
            cores: &mut self.home,
            failed,
        }
    }
}

impl Drop for ServerPool {
    fn drop(&mut self) {
        // Closing a worker's job channel ends its loop once any advance
        // it holds finishes.
        for Worker { jobs, handle } in self.workers.drain(..) {
            drop(jobs);
            let _ = handle.join();
        }
    }
}

/// A worker's loop: advance each lent core and send it home. A panic
/// is caught and sent home as the payload, so `join` never waits on a
/// core that will not come back.
fn work(jobs: &Receiver<Job>, done: &Sender<Done>, budget: &StepBudget) {
    for Job {
        index,
        mut core,
        horizon,
    } in jobs
    {
        let outcome = panic::catch_unwind(AssertUnwindSafe(move || {
            let r = core.advance(horizon, budget);
            (core, r)
        }));
        if done.send((index, outcome)).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::{build_policies, GovernorKind, SleepKind};
    use appsim::{AppModel, TestbedConfig};
    use cpusim::ProcessorProfile;
    use simcore::SimDuration;
    use workload::{AppKind, LoadSpec};

    fn core(observer_panics: bool) -> ServerCore {
        let app = AppModel::for_kind(AppKind::Memcached);
        let profile = ProcessorProfile::xeon_gold_6134();
        let load = LoadSpec::custom(20_000.0, SimDuration::from_millis(5), 1.0, 0.0);
        let (governor, sleep) =
            build_policies(&GovernorKind::Ondemand, SleepKind::Menu, &profile, &app);
        let mut sim = Simulator::new();
        let mut tb = Testbed::try_new(TestbedConfig::new(app, load), governor, sleep, &mut sim)
            .expect("valid testbed");
        if observer_panics {
            tb.poll_observer = Some(Box::new(|_, _, _, _| panic!("observer failed")));
        }
        ServerCore { sim, tb }
    }

    #[test]
    fn worker_panic_resumes_on_the_caller() {
        let mut pool = ServerPool::new(vec![core(false), core(true)], 2, StepBudget::unlimited());
        pool.launch(SimTime::from_millis(5));
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.join();
        }));
        let payload = caught.expect_err("the worker's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"observer failed"));
        // Dropping the pool closes the workers without hanging.
        drop(pool);
    }

    #[test]
    fn inline_join_stops_at_the_first_failure() {
        let budget = StepBudget::unlimited().with_max_events(10);
        let mut pool = ServerPool::new(vec![core(false), core(false)], 0, budget);
        pool.launch(SimTime::from_millis(5));
        let joined = pool.join();
        let (index, err) = joined.failed.expect("a 10-event budget cannot reach 5 ms");
        assert_eq!(index, 0);
        assert!(err.is_budget());
        // The second server never ran.
        assert_eq!(joined.cores[1].sim.events_executed(), 0);
    }
}
