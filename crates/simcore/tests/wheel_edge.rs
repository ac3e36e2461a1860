//! Wheel-specific edge cases, driven through the public engine API:
//! zero-delay self-rescheduling, events landing exactly on wheel
//! level boundaries, far-future overflow promotion/demotion,
//! cancellation through stale generation handles, and budgeted-run
//! interruption in the middle of a same-tick batch.
//!
//! Everything here pins `WheelSimulator` explicitly, so the suite
//! exercises the wheel even when the workspace is built with
//! `--features heap-sched`.

use simcore::check::forall;
use simcore::{
    EventId, HeapQueue, SchedQueue, SimDuration, SimTime, Simulator, StepBudget, WheelQueue,
    WheelSimulator, World,
};

/// The test world: labels of executed events, in execution order.
#[derive(Debug, Default)]
struct Log(Vec<u64>);

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Logs the label.
    Push(u64),
    /// Logs the label and, while `links > 0`, schedules the next link
    /// (label + 1) with zero delay.
    Chain { label: u64, links: u32 },
    /// Logs 0 and reschedules itself with zero delay, forever.
    Spin,
}

impl<Q: SchedQueue> World<Q> for Log {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, sim: &mut Simulator<Self, Q>) {
        match ev {
            Ev::Push(label) => self.0.push(label),
            Ev::Chain { label, links } => {
                self.0.push(label);
                if links > 0 {
                    let next = Ev::Chain {
                        label: label + 1,
                        links: links - 1,
                    };
                    sim.schedule_in(SimDuration::from_nanos(0), next);
                }
            }
            Ev::Spin => {
                self.0.push(0);
                sim.schedule_in(SimDuration::from_nanos(0), Ev::Spin);
            }
        }
    }
}

/// The level-0 grain, and the spans of wheel levels 0 and 1 (64^2
/// and 64^3 ns).
const GRAIN: u64 = 64;
const L2: u64 = 64 * 64;
const L3: u64 = 64 * 64 * 64;
/// The full wheel span; times this far out park in the overflow list.
const WHEEL_SPAN: u64 = 1 << 48;

fn t(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

#[test]
fn zero_delay_self_reschedule_runs_fifo_within_tick() {
    let mut sim: WheelSimulator<Log> = WheelSimulator::new();
    let mut w = Log::default();
    // A zero-delay chain (links 0, 1, 2) interleaved with a
    // pre-scheduled tie (100): the chain's links are scheduled
    // *during* the tick, so they run after every event already queued
    // for that timestamp.
    sim.schedule_at(t(10), Ev::Chain { label: 0, links: 2 });
    sim.schedule_at(t(10), Ev::Push(100));
    sim.run_until(&mut w, SimTime::from_micros(1));
    assert_eq!(w.0, vec![0, 100, 1, 2]);
    assert_eq!(sim.now(), SimTime::from_micros(1));
}

#[test]
fn zero_delay_chain_trips_event_budget_not_livelock() {
    let mut sim: WheelSimulator<Log> = WheelSimulator::new();
    let mut w = Log::default();
    sim.schedule_at(t(5), Ev::Spin);
    let budget = StepBudget::unlimited().with_max_events(1_000);
    assert!(sim
        .run_until_budgeted(&mut w, SimTime::from_micros(1), &budget)
        .is_err());
    assert_eq!(
        w.0.len(),
        1_000,
        "virtual time never advanced, budget must trip"
    );
    assert_eq!(sim.now(), t(5));
}

#[test]
fn events_on_exact_level_boundaries_fire_in_order() {
    let mut sim: WheelSimulator<Log> = WheelSimulator::new();
    let mut w = Log::default();
    // One event on each side of every level boundary, scheduled in
    // shuffled order.
    let times = [
        L3 + 1,
        64,
        L2 - 1,
        0,
        L2 + 1,
        63,
        L3,
        1,
        L2,
        65,
        L3 - 1,
        WHEEL_SPAN - 1,
    ];
    for &at in &times {
        sim.schedule_at(t(at), Ev::Push(at));
    }
    sim.run_until(&mut w, SimTime::MAX);
    let mut sorted = times.to_vec();
    sorted.sort_unstable();
    assert_eq!(w.0, sorted);
}

#[test]
fn far_future_overflow_promotes_back_into_the_wheel() {
    let mut sim: WheelSimulator<Log> = WheelSimulator::new();
    let mut w = Log::default();
    // Beyond the wheel span from t=0: parked in overflow, then pulled
    // back in (promoted) once the wheel drains and rebases.
    let far = [
        WHEEL_SPAN + 5,
        3 * WHEEL_SPAN,
        WHEEL_SPAN + 5,
        2 * WHEEL_SPAN,
    ];
    for (i, &at) in far.iter().enumerate() {
        sim.schedule_at(t(at), Ev::Push(at + i as u64));
    }
    sim.schedule_at(t(7), Ev::Push(7));
    // Running short of the overflow times executes only the near
    // event and must not disturb the parked ones.
    sim.run_until(&mut w, t(1_000));
    assert_eq!(w.0, vec![7]);
    // FIFO between the two identical far timestamps: index 0 before 2.
    sim.run_until(&mut w, SimTime::MAX);
    assert_eq!(
        w.0,
        vec![
            7,
            WHEEL_SPAN + 5,
            WHEEL_SPAN + 7,
            2 * WHEEL_SPAN + 3,
            3 * WHEEL_SPAN + 1
        ]
    );
}

#[test]
fn demotion_cascades_preserve_cross_level_fifo() {
    let mut sim: WheelSimulator<Log> = WheelSimulator::new();
    let mut w = Log::default();
    let target = t(2 * L3 + 3 * 64 + 9);
    // Scheduled from t=0, `target` sits at wheel level 3; it must
    // demote through levels 2→1→0 as the cursor approaches.
    sim.schedule_at(target, Ev::Push(1));
    // Walk the clock toward the target in level-sized hops, then
    // schedule a tie for the same nanosecond from close range (it
    // lands directly at a low level). The demoted far event was
    // scheduled first, so it keeps FIFO priority.
    sim.run_until(&mut w, t(L3));
    sim.run_until(&mut w, t(2 * L3 + 64));
    sim.schedule_at(target, Ev::Push(2));
    assert!(w.0.is_empty());
    sim.run_until(&mut w, SimTime::MAX);
    assert_eq!(w.0, vec![1, 2], "early seq before late seq");
}

#[test]
fn cancelling_a_fired_generation_handle_is_inert() {
    let mut sim: WheelSimulator<Log> = WheelSimulator::new();
    let mut w = Log::default();
    let fired = sim.schedule_at(t(1), Ev::Push(1));
    sim.run_until(&mut w, t(10));
    assert_eq!(w.0, vec![1]);
    // The arena slot is recycled by the next schedule; the stale
    // handle must neither report success nor kill the new tenant.
    let tenant = sim.schedule_at(t(20), Ev::Push(100));
    assert!(!sim.cancel(fired), "fired handle must be stale");
    assert_eq!(sim.pending(), 1);
    sim.run_until(&mut w, t(30));
    assert_eq!(
        w.0,
        vec![1, 100],
        "slot tenant must survive the stale cancel"
    );
    assert!(!sim.cancel(tenant), "tenant has fired too by now");
}

#[test]
fn cancelling_overflow_and_high_level_events_is_o1_and_sticks() {
    let mut sim: WheelSimulator<Log> = WheelSimulator::new();
    let mut w = Log::default();
    let in_overflow = sim.schedule_at(t(WHEEL_SPAN + 99), Ev::Push(1));
    let in_level3 = sim.schedule_at(t(L3 + 17), Ev::Push(10));
    let survivor = sim.schedule_at(t(L3 + 17), Ev::Push(100));
    assert!(sim.cancel(in_overflow));
    assert!(sim.cancel(in_level3));
    assert!(!sim.cancel(in_level3), "double cancel reports false");
    sim.run_until(&mut w, SimTime::MAX);
    assert_eq!(w.0, vec![100], "only the survivor fires");
    assert!(!sim.cancel(survivor));
    let p = sim.profile();
    assert_eq!(p.events_cancelled, 2);
    assert_eq!(p.events_executed, 1);
}

#[test]
fn budget_interrupts_mid_tick_batch_and_resumes_fifo() {
    let mut sim: WheelSimulator<Log> = WheelSimulator::new();
    let mut w = Log::default();
    // Ten events on one tick — a single wheel bucket run.
    for i in 0..10u64 {
        sim.schedule_at(t(50), Ev::Push(i));
    }
    let budget = StepBudget::unlimited().with_max_events(4);
    assert!(sim
        .run_until_budgeted(&mut w, SimTime::from_micros(1), &budget)
        .is_err());
    assert_eq!(
        w.0,
        vec![0, 1, 2, 3],
        "batch interrupted exactly at the cap"
    );
    assert_eq!(sim.now(), t(50), "clock parked mid-tick");
    assert_eq!(sim.pending(), 6);
    // A later, bigger budget finishes the batch in FIFO order.
    let budget = StepBudget::unlimited().with_max_events(100);
    sim.run_until_budgeted(&mut w, SimTime::from_micros(1), &budget)
        .expect("remaining batch fits");
    assert_eq!(w.0, (0..10).collect::<Vec<_>>());
    assert_eq!(sim.now(), SimTime::from_micros(1));
}

#[test]
fn deadline_stop_between_levels_accepts_earlier_reschedules() {
    let mut sim: WheelSimulator<Log> = WheelSimulator::new();
    let mut w = Log::default();
    // Only a far event pending; a bounded run stops short of it.
    sim.schedule_at(t(5_000_000), Ev::Push(5_000_000));
    sim.run_until(&mut w, t(1_000));
    assert!(w.0.is_empty());
    // Now schedule *earlier* than the far event (but after the
    // deadline already passed) — the wheel must still order it first.
    sim.schedule_at(t(2_000), Ev::Push(2_000));
    sim.run_until(&mut w, SimTime::MAX);
    assert_eq!(w.0, vec![2_000, 5_000_000]);
}

/// A scripted world for the oracle comparisons below: each event logs
/// its label, and may schedule a follow-up or cancel an earlier
/// event. Handles are kept per script index, so both backends run the
/// same logical operations even where their slot reuse differs.
#[derive(Debug, Default)]
struct Script {
    log: Vec<u64>,
    handles: Vec<Option<EventId>>,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Logs the label.
    Push(u64),
    /// Logs the label, then schedules `Push(label + 1_000_000)` at
    /// `now + gap` (0: at `now`, from inside the handler).
    Fork { label: u64, gap: u64 },
    /// Logs the label, then cancels script event `victim`; logs
    /// `victim | 1 << 40` if that prevented it from running.
    Kill { label: u64, victim: usize },
}

impl<Q: SchedQueue> World<Q> for Script {
    type Event = Op;

    fn handle(&mut self, op: Op, sim: &mut Simulator<Self, Q>) {
        match op {
            Op::Push(label) => self.log.push(label),
            Op::Fork { label, gap } => {
                self.log.push(label);
                sim.schedule_in(SimDuration::from_nanos(gap), Op::Push(label + 1_000_000));
            }
            Op::Kill { label, victim } => {
                self.log.push(label);
                if let Some(id) = self.handles.get(victim).copied().flatten() {
                    if sim.cancel(id) {
                        self.log.push(victim as u64 | 1 << 40);
                    }
                }
            }
        }
    }
}

/// Schedules `ops` (absolute times), cancels the script indices in
/// `cancel` up front, runs to `bound` and then to the end, and returns
/// the execution log with the clock after the bounded run.
fn run_script<Q: SchedQueue>(
    ops: &[(u64, Op)],
    cancel: &[usize],
    bound: SimTime,
) -> (Vec<u64>, SimTime) {
    let mut sim: Simulator<Script, Q> = Simulator::new();
    let mut w = Script::default();
    for &(at, op) in ops {
        let id = sim.schedule_at(t(at), op);
        w.handles.push(Some(id));
    }
    for &i in cancel {
        assert!(sim.cancel(w.handles[i].expect("scheduled")));
    }
    sim.run_until(&mut w, bound);
    let clock = sim.now();
    sim.run_until(&mut w, SimTime::MAX);
    (w.log, clock)
}

fn oracle_agrees(ops: &[(u64, Op)], cancel: &[usize], bound: SimTime) -> Vec<u64> {
    let wheel = run_script::<WheelQueue>(ops, cancel, bound);
    let heap = run_script::<HeapQueue>(ops, cancel, bound);
    assert_eq!(wheel, heap, "wheel and heap oracle disagree");
    wheel.0
}

#[test]
fn one_grain_holds_exact_time_then_seq_order() {
    // Case 1: many distinct timestamps inside one level-0 grain,
    // scheduled out of order, some from handlers at `now`, with
    // cancels both up front and from handlers.
    forall("wheel one-grain order", 256, |rng| {
        // The grain [base, base + 64) sits in the cursor's level-0
        // window for some cases and is reached by cascade in others.
        let base = GRAIN * rng.below(2 * L2 / GRAIN);
        let n = 2 + rng.below(120) as usize;
        let ops: Vec<(u64, Op)> = (0..n)
            .map(|i| {
                let at = base + rng.below(GRAIN);
                let label = i as u64;
                let op = match rng.below(4) {
                    0 => Op::Fork {
                        label,
                        gap: [0, 0, 1, rng.below(GRAIN)][rng.below(4) as usize],
                    },
                    1 => Op::Kill {
                        label,
                        victim: rng.below(n as u64) as usize,
                    },
                    _ => Op::Push(label),
                };
                (at, op)
            })
            .collect();
        let cancel: Vec<usize> = (0..n).filter(|_| rng.below(5) == 0).collect();
        let log = oracle_agrees(&ops, &cancel, SimTime::MAX);
        // Spot-check the contract itself, not just agreement: the
        // up-front schedules that ran did so in (time, seq) order.
        let ran: Vec<u64> = log.iter().copied().filter(|&l| l < n as u64).collect();
        let keys: Vec<(u64, u64)> = ran.iter().map(|&l| (ops[l as usize].0, l)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    });
}

#[test]
fn bounded_run_short_of_a_mixed_husk_block_keeps_the_cursor() {
    // Case 2: a level-2 bucket (its block starts at 64^3 ns = L3 from
    // a cursor at 0) mixes cancelled husks and live events. A run
    // bounded short of the block's start must neither pop nor move
    // the cursor, so a later schedule at the bound (earlier than
    // everything pending) lands in front and pops first. The last
    // bound lies inside the block, before its first event: the
    // cascade may commit there, but never past the bound.
    let block = L3 + 5 * L2;
    let ops = [
        (block + 7, Op::Push(0)),
        (block + 3, Op::Push(1)),
        (block + 3, Op::Push(2)),
        (block + L2 - 1, Op::Push(3)),
        (block + 100, Op::Push(4)),
    ];
    for bound in [t(1), t(L3 - 1), t(block - 1)] {
        for cancel in [&[1usize, 3][..], &[0, 2, 4], &[]] {
            let mut sim: WheelSimulator<Script> = WheelSimulator::new();
            let mut w = Script::default();
            for &(at, op) in &ops {
                let id = sim.schedule_at(t(at), op);
                w.handles.push(Some(id));
            }
            for &i in cancel {
                assert!(sim.cancel(w.handles[i].expect("scheduled")));
            }
            assert_eq!(sim.run_until(&mut w, bound), 0, "nothing fires by {bound}");
            assert_eq!(sim.now(), bound);
            sim.schedule_at(bound, Op::Push(99));
            assert_eq!(
                sim.run_until(&mut w, bound),
                1,
                "the bound event pops at once"
            );
            assert_eq!(w.log, vec![99]);
            sim.run_until(&mut w, SimTime::MAX);
            let mut rest = vec![99];
            let mut live: Vec<(u64, u64)> = ops
                .iter()
                .enumerate()
                .filter(|(i, _)| !cancel.contains(i))
                .map(|(i, &(at, _))| (at, i as u64))
                .collect();
            live.sort_unstable();
            rest.extend(live.iter().map(|&(_, l)| l));
            assert_eq!(w.log, rest);
        }
    }
    // The same geometry against the oracle, with the bound also inside
    // the block (the cascade then commits, but never past the bound).
    for bound in [t(block - 1), t(block), t(block + 5), t(block + 200)] {
        oracle_agrees(&ops, &[1, 3], bound);
        oracle_agrees(&ops, &[0, 1, 2, 3, 4], bound);
    }
}

#[test]
fn dense_random_nanoseconds_pop_in_order() {
    // Case 3: about 32 k events at random nanoseconds within 4 µs
    // (~512 per level-0 grain), scheduled in random order. Pins the
    // full order against the oracle; a sorted insert that walked more
    // than its own grain would turn this quadratic.
    let mut rng = simcore::RngStream::from_seed(0x5eed);
    let ops: Vec<(u64, Op)> = (0..32_768u64)
        .map(|label| (1_000 + rng.below(4_000), Op::Push(label)))
        .collect();
    let cancel: Vec<usize> = (0..ops.len()).step_by(7).collect();
    let log = oracle_agrees(&ops, &cancel, t(3_000));
    assert_eq!(log.len(), ops.len() - cancel.len());
    let keys: Vec<(u64, u64)> = log.iter().map(|&l| (ops[l as usize].0, l)).collect();
    assert!(
        keys.windows(2).all(|w| w[0] < w[1]),
        "not (time, seq) order"
    );
}
