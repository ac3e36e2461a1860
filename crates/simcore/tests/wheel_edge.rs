//! Wheel-specific edge cases, driven through the public engine API:
//! zero-delay self-rescheduling, events landing exactly on wheel
//! level boundaries, far-future overflow promotion/demotion,
//! cancellation through stale generation handles, and budgeted-run
//! interruption in the middle of a same-tick batch.
//!
//! Everything here pins `WheelSimulator` explicitly, so the suite
//! exercises the wheel even when the workspace is built with
//! `--features heap-sched`.

use simcore::{SimDuration, SimTime, StepBudget, WheelQueue, WheelSimulator, World};

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

impl World<WheelQueue> for Log {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, sim: &mut WheelSimulator<Self>) {
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

/// 64^2 and 64^3 — the spans of wheel levels 1 and 2.
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
