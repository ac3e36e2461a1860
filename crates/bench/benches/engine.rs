//! The scheduler head-to-head: identical scheduler-bound workloads on
//! the timing wheel, the in-tree `HeapQueue` oracle and a replica of
//! the pre-wheel seed engine. `scripts/bench_gate.py` reads the report
//! this writes and fails when the wheel dispatches under 5× the
//! oracle's events/s on the standing-timer workload.
//!
//! ```text
//! cargo bench -p nmap-bench --bench engine
//! python3 scripts/bench_gate.py
//! ```

use nmap_bench::criterion::{black_box, Criterion};
use nmap_bench::{criterion_group, criterion_main};
use simcore::{HeapQueue, RngStream, SchedQueue, SimTime, Simulator, WheelQueue, World};

/// The engine benches' world: a count of executed events.
#[derive(Default)]
struct Count(u64);

/// Engine bench events: `Hit` is counted; `Tick` is counted and
/// reschedules itself 125 ns later until the standing horizon.
#[derive(Clone, Copy)]
enum Ev {
    Hit,
    Tick,
}

impl<Q: SchedQueue> World<Q> for Count {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, sim: &mut Simulator<Self, Q>) {
        self.0 += 1;
        if let Ev::Tick = ev {
            let t = sim.now().as_nanos();
            if t < STANDING_HORIZON_NS {
                sim.schedule_at(SimTime::from_nanos(t + 125), Ev::Tick);
            }
        }
    }
}

/// A faithful replica of the event queue this repo shipped with
/// before the timing wheel landed: one `BinaryHeap` whose entries
/// carry a boxed closure inline, plus a `HashSet` live-set consulted
/// on every pop for lazy cancellation. Kept here (not in simcore) so
/// `scheduler/seed_*` benches can report an honest before/after pair
/// without the library carrying dead code. The in-tree `HeapQueue`
/// oracle is already faster than this — it shares the wheel's arena
/// and keeps events out of the heap — so the seed numbers are the
/// historical baseline and the `heap_*` numbers the machine proxy.
mod seed {
    use simcore::SimTime;
    use std::collections::{BinaryHeap, HashSet};

    type Action<W> = Box<dyn FnOnce(&mut W, &mut Simulator<W>)>;

    struct Scheduled<W> {
        time: SimTime,
        seq: u64,
        action: Action<W>,
    }

    impl<W> PartialEq for Scheduled<W> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<W> Eq for Scheduled<W> {}
    impl<W> PartialOrd for Scheduled<W> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<W> Ord for Scheduled<W> {
        // Min-heap on (time, seq) through a max-heap: invert both keys.
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    pub struct Simulator<W> {
        queue: BinaryHeap<Scheduled<W>>,
        live: HashSet<u64>,
        next_seq: u64,
        now: SimTime,
    }

    impl<W> Default for Simulator<W> {
        fn default() -> Self {
            Simulator {
                queue: BinaryHeap::new(),
                live: HashSet::new(),
                next_seq: 0,
                now: SimTime::ZERO,
            }
        }
    }

    impl<W> Simulator<W> {
        pub fn new() -> Self {
            Self::default()
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn schedule_at(
            &mut self,
            time: SimTime,
            action: impl FnOnce(&mut W, &mut Simulator<W>) + 'static,
        ) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.queue.push(Scheduled {
                time: time.max(self.now),
                seq,
                action: Box::new(action),
            });
            self.live.insert(seq);
            seq
        }

        pub fn cancel(&mut self, id: u64) -> bool {
            self.live.remove(&id)
        }

        pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
            loop {
                match self.queue.peek() {
                    Some(ev) if ev.time <= deadline => {}
                    _ => break,
                }
                let ev = match self.queue.pop() {
                    Some(ev) => ev,
                    None => break,
                };
                if !self.live.remove(&ev.seq) {
                    continue; // lazily dropped cancellation husk
                }
                self.now = ev.time;
                (ev.action)(world, self);
            }
            self.now = self.now.max(deadline);
        }
    }
}

/// Schedules every time in `times`, cancels every `cancel_every`-th
/// handle, then drains the queue — the scheduler-bound inner loop the
/// `scheduler/*` benches time on both backends. Returns events run.
fn sched_drain<Q: SchedQueue>(times: &[u64], cancel_every: usize) -> u64 {
    let mut sim: Simulator<Count, Q> = Simulator::new();
    let mut w = Count::default();
    let ids: Vec<_> = times
        .iter()
        .map(|&t| sim.schedule_at(SimTime::from_nanos(t), Ev::Hit))
        .collect();
    for id in ids.iter().step_by(cancel_every) {
        sim.cancel(*id);
    }
    sim.run_until(&mut w, SimTime::MAX);
    w.0
}

/// [`sched_drain`] on the seed-engine replica.
fn seed_drain(times: &[u64], cancel_every: usize) -> u64 {
    let mut sim: seed::Simulator<u64> = seed::Simulator::new();
    let mut w = 0u64;
    let ids: Vec<u64> = times
        .iter()
        .map(|&t| sim.schedule_at(SimTime::from_nanos(t), |w, _| *w += 1))
        .collect();
    for id in ids.iter().step_by(cancel_every) {
        sim.cancel(*id);
    }
    sim.run_until(&mut w, SimTime::MAX);
    w
}

/// How long the `standing_1m` tick chains run (25 ms of virtual time
/// at one tick per 125 ns per chain ⇒ 1.6 M dispatched events).
const STANDING_HORIZON_NS: u64 = 25_000_000;

/// Seconds-scale timeout timers that never fire inside the measured
/// window — the standing population every pop must sift past on a
/// heap and the wheel simply parks at a high level.
fn standing_times(n: u64) -> Vec<u64> {
    let mut rng = RngStream::from_seed(0x571c);
    (0..n)
        .map(|_| 1_000_000_000 + rng.below(1_000_000_000))
        .collect()
}

/// The headline scheduler-bound workload: `chains` self-rescheduling
/// 125 ns tick chains (NAPI polls, ITR timers) racing over a large
/// standing timeout population. O(log n) heap pops pay a cache miss
/// per sift level against the parked set; the wheel dispatches each
/// tick from a hot level-0 bucket in O(1). Returns events dispatched.
fn standing_ticks<Q: SchedQueue>(standing: &[u64], chains: u64) -> u64 {
    let mut sim: Simulator<Count, Q> = Simulator::new();
    let mut w = Count::default();
    for &t in standing {
        sim.schedule_at(SimTime::from_nanos(t), Ev::Hit);
    }
    for i in 0..chains {
        sim.schedule_at(SimTime::from_nanos(i * 17), Ev::Tick);
    }
    sim.run_until(&mut w, SimTime::from_nanos(STANDING_HORIZON_NS + 1_000));
    w.0
}

/// [`standing_ticks`] on the seed-engine replica.
fn seed_standing_ticks(standing: &[u64], chains: u64) -> u64 {
    let mut sim: seed::Simulator<u64> = seed::Simulator::new();
    let mut w = 0u64;
    for &t in standing {
        sim.schedule_at(SimTime::from_nanos(t), |w, _| *w += 1);
    }
    fn tick(w: &mut u64, sim: &mut seed::Simulator<u64>) {
        *w += 1;
        let t = sim.now().as_nanos();
        if t < STANDING_HORIZON_NS {
            sim.schedule_at(SimTime::from_nanos(t + 125), tick);
        }
    }
    for i in 0..chains {
        sim.schedule_at(SimTime::from_nanos(i * 17), tick);
    }
    sim.run_until(&mut w, SimTime::from_nanos(STANDING_HORIZON_NS + 1_000));
    w
}

/// A churn schedule shaped like a busy testbed cell: a standing timer
/// population spread over a second (ITR timers, sleep ticks, DVFS
/// completions) plus near-term packet-scale events and same-tick
/// bursts (RSS fan-out delivering one NIC batch to many queues).
fn churn_times(n: u64) -> Vec<u64> {
    let mut rng = RngStream::from_seed(0x5ced);
    (0..n)
        .map(|_| match rng.below(10) {
            0..=5 => rng.below(1_000_000_000),         // standing timers
            6..=7 => 500_000_000 + rng.below(100_000), // near-term cluster
            _ => 250_000_000 + rng.below(64) * 4_096,  // same-tick bursts
        })
        .collect()
}

/// The head-to-head events/sec microbench behind the CI regression
/// gate: identical workloads on the timing wheel, the in-tree heap
/// oracle, and the pre-wheel seed engine. `scripts/bench_gate.py`
/// compares the heap/wheel fastest-sample ratio per workload — using
/// the oracle run as a machine-speed proxy — against the 5× floor and
/// `BENCH_baseline.json`.
fn bench_scheduler(c: &mut Criterion) {
    let times = churn_times(100_000);
    c.bench_function("scheduler/wheel_churn_100k", |b| {
        b.iter(|| black_box(sched_drain::<WheelQueue>(&times, 3)))
    });
    c.bench_function("scheduler/heap_churn_100k", |b| {
        b.iter(|| black_box(sched_drain::<HeapQueue>(&times, 3)))
    });
    c.bench_function("scheduler/seed_churn_100k", |b| {
        b.iter(|| black_box(seed_drain(&times, 3)))
    });

    // Dense same-timestamp batches: 1 024 ticks × 64 events — the
    // cache-friendly bucket-run dispatch case.
    let bursts: Vec<u64> = (0..65_536u64).map(|i| (i / 64) * 10_000).collect();
    c.bench_function("scheduler/wheel_bursts_64k", |b| {
        b.iter(|| black_box(sched_drain::<WheelQueue>(&bursts, usize::MAX)))
    });
    c.bench_function("scheduler/heap_bursts_64k", |b| {
        b.iter(|| black_box(sched_drain::<HeapQueue>(&bursts, usize::MAX)))
    });

    // The headline cell: 1 M standing timers, 8 tick chains.
    let standing = standing_times(1 << 20);
    c.bench_function("scheduler/wheel_standing_1m", |b| {
        b.iter(|| black_box(standing_ticks::<WheelQueue>(&standing, 8)))
    });
    c.bench_function("scheduler/heap_standing_1m", |b| {
        b.iter(|| black_box(standing_ticks::<HeapQueue>(&standing, 8)))
    });
    c.bench_function("scheduler/seed_standing_1m", |b| {
        b.iter(|| black_box(seed_standing_ticks(&standing, 8)))
    });
}

// The head-to-heads run three backends over million-event workloads;
// ten samples keep the CI bench step affordable while giving the gate
// a stable per-bench minimum to compare.
criterion_group!(
    name = scheduler;
    config = Criterion::default().sample_size(10);
    targets = bench_scheduler
);
criterion_main!(scheduler);
