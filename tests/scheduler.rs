//! Differential equivalence of the two scheduler backends.
//!
//! The timing wheel (`Simulator`'s default) must be observationally
//! indistinguishable from the binary-heap oracle (`HeapSimulator`):
//! identical pop order (including same-timestamp FIFO tie-breaks),
//! identical cancellation semantics (including post-cancellation
//! behaviour and stale handles), identical clocks and identical
//! engine profiles — under arbitrary interleavings of scheduling,
//! cancellation, rescheduling, nested event chains, and bounded runs.
//!
//! Workloads are generated through `simcore::check::forall`, so every
//! failing case names a reproducible RNG stream. The acceptance bar
//! from ISSUE 6 is ≥ 1 000 randomized schedules; the two properties
//! below run 1 024 + 256.

use simcore::check::forall;
use simcore::{
    EventId, HeapQueue, HeapSimulator, RngStream, SchedQueue, SimTime, Simulator, StepBudget,
    WheelQueue, World,
};

/// The observable log both backends must produce identically: one
/// entry per executed event, labelled by schedule index.
#[derive(Debug, Default, PartialEq)]
struct Log(Vec<u64>);

/// The one event kind: record `label`, then (for chains) schedule the
/// next link at `now + gap`. Labels of chained events reuse the
/// parent label with a distinguishing high bit so both backends log
/// identically without sharing handle tables.
#[derive(Debug, Clone, Copy)]
struct Fire {
    label: u64,
    chain: u8,
    gap: u64,
}

impl Fire {
    fn once(label: u64) -> Self {
        Fire {
            label,
            chain: 0,
            gap: 0,
        }
    }
}

impl<Q: SchedQueue> World<Q> for Log {
    type Event = Fire;

    fn handle(&mut self, ev: Fire, sim: &mut Simulator<Self, Q>) {
        self.0.push(ev.label);
        if ev.chain > 0 {
            let next = sim.now() + simcore::SimDuration::from_nanos(ev.gap);
            sim.schedule_at(
                next,
                Fire {
                    label: ev.label | 1 << 62,
                    chain: ev.chain - 1,
                    gap: ev.gap,
                },
            );
        }
    }
}

/// One scripted operation, derived from the RNG up front so the exact
/// same script drives both simulators.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule event `label` at `now + delay_ns`; optionally the
    /// event itself schedules a follow-up chain (`chain` more events,
    /// `chain_gap_ns` apart — 0 exercises zero-delay
    /// self-rescheduling).
    Schedule {
        delay_ns: u64,
        chain: u8,
        chain_gap_ns: u64,
    },
    /// Cancel the `k % issued`-th handle issued so far (if any).
    Cancel { k: u64 },
    /// Run both simulators forward by `span_ns`.
    Run { span_ns: u64 },
}

/// Draws a delay that deliberately stresses wheel geometry: ties,
/// grain and level boundaries (64^k), mid-range values, and
/// far-future times that land in the overflow list.
fn draw_delay(rng: &mut RngStream) -> u64 {
    match rng.below(11) {
        0 => 0,                                                     // tie with "now"
        1 => rng.below(4),                                          // dense ties
        2 => [63u64, 64, 65][rng.below(3) as usize],                // level-0 grain boundary
        3 => [4_095u64, 4_096, 4_097][rng.below(3) as usize],       // level-0/1 boundary
        4 => [262_143u64, 262_144, 262_145][rng.below(3) as usize], // level-1/2 boundary
        5 => rng.below(1_000),
        6 => rng.below(100_000),
        7 => rng.below(10_000_000),
        8 => 262_144 + rng.below(64),        // exactly on a 64^3 block
        9 => rng.below(5_000_000_000),       // seconds-scale
        _ => (1 << 48) + rng.below(1 << 20), // beyond the wheel span
    }
}

fn draw_script(rng: &mut RngStream, ops: usize) -> Vec<Op> {
    (0..ops)
        .map(|_| match rng.below(10) {
            0..=4 => Op::Schedule {
                delay_ns: draw_delay(rng),
                chain: (rng.below(4) == 0) as u8 * (1 + rng.below(3) as u8),
                chain_gap_ns: if rng.below(3) == 0 { 0 } else { rng.below(200) },
            },
            5..=6 => Op::Cancel { k: rng.next_u64() },
            _ => Op::Run {
                span_ns: draw_delay(rng).saturating_add(1),
            },
        })
        .collect()
}

/// Replays `script` on one backend, returning the execution log, the
/// cancel-result bitmap, and the final `(now, profile)` observation.
fn replay<Q: SchedQueue>(script: &[Op]) -> (Log, Vec<bool>, SimTime, simcore::EngineProfile) {
    let mut sim: Simulator<Log, Q> = Simulator::new();
    let mut log = Log::default();
    let mut handles: Vec<EventId> = Vec::new();
    let mut cancels = Vec::new();
    for op in script {
        match *op {
            Op::Schedule {
                delay_ns,
                chain,
                chain_gap_ns,
            } => {
                let label = handles.len() as u64;
                let at = sim.now() + simcore::SimDuration::from_nanos(delay_ns);
                let ev = Fire {
                    label,
                    chain,
                    gap: chain_gap_ns,
                };
                let id = sim.schedule_at(at, ev);
                handles.push(id);
            }
            Op::Cancel { k } => {
                if !handles.is_empty() {
                    let id = handles[(k % handles.len() as u64) as usize];
                    cancels.push(sim.cancel(id));
                }
            }
            Op::Run { span_ns } => {
                let deadline = sim.now() + simcore::SimDuration::from_nanos(span_ns);
                sim.run_until(&mut log, deadline);
            }
        }
    }
    // Drain everything, overflow included.
    sim.run_until(&mut log, SimTime::MAX);
    (log, cancels, sim.now(), sim.profile())
}

/// ISSUE 6 acceptance: wheel ≡ heap pop-order equivalence, ties and
/// cancellations included, over ≥ 1 000 randomized schedules.
#[test]
fn wheel_matches_heap_oracle_on_random_workloads() {
    forall("wheel equals heap", 1_024, |rng| {
        let ops = 4 + rng.below(120) as usize;
        let script = draw_script(rng, ops);
        let wheel = replay::<WheelQueue>(&script);
        let heap = replay::<HeapQueue>(&script);
        assert_eq!(wheel.0, heap.0, "pop order diverged");
        assert_eq!(wheel.1, heap.1, "cancel results diverged");
        assert_eq!(wheel.2, heap.2, "clocks diverged");
        assert_eq!(wheel.3, heap.3, "profiles diverged");
    });
}

/// Tie-heavy stress: thousands of events over a handful of distinct
/// timestamps, with mid-run cancellations inside tie groups. FIFO
/// order within each timestamp must match the oracle exactly.
#[test]
fn wheel_matches_heap_on_dense_tie_groups() {
    forall("dense ties", 256, |rng| {
        let stamps: Vec<u64> = (0..4).map(|_| rng.below(10_000)).collect();
        let n = 64 + rng.below(512);
        let kills: Vec<u64> = (0..n / 7).map(|_| rng.below(n)).collect();

        fn run_one<Q: SchedQueue>(stamps: &[u64], n: u64, kills: &[u64]) -> (Log, Vec<bool>) {
            let mut sim: Simulator<Log, Q> = Simulator::new();
            let mut log = Log::default();
            let ids: Vec<EventId> = (0..n)
                .map(|i| {
                    let t = SimTime::from_nanos(stamps[(i % stamps.len() as u64) as usize]);
                    sim.schedule_at(t, Fire::once(i))
                })
                .collect();
            let outcomes = kills.iter().map(|&k| sim.cancel(ids[k as usize])).collect();
            sim.run_until(&mut log, SimTime::MAX);
            (log, outcomes)
        }

        let wheel = run_one::<WheelQueue>(&stamps, n, &kills);
        let heap = run_one::<HeapQueue>(&stamps, n, &kills);
        assert_eq!(wheel, heap);
    });
}

/// Budgeted runs abort at the same event count, at the same virtual
/// time, mid-tick-batch or not, on both backends.
#[test]
fn budgeted_runs_match_across_backends() {
    forall("budget equivalence", 128, |rng| {
        let n = 16 + rng.below(64);
        let cap = 1 + rng.below(n);
        let times: Vec<u64> = (0..n).map(|_| rng.below(64)).collect(); // heavy ties

        fn run_one<Q: SchedQueue>(times: &[u64], cap: u64) -> (Log, SimTime, bool) {
            let mut sim: Simulator<Log, Q> = Simulator::new();
            let mut log = Log::default();
            for (i, &t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_nanos(t), Fire::once(i as u64));
            }
            let budget = StepBudget::unlimited().with_max_events(cap);
            let aborted = sim
                .run_until_budgeted(&mut log, SimTime::MAX, &budget)
                .is_err();
            (log, sim.now(), aborted)
        }

        let wheel = run_one::<WheelQueue>(&times, cap);
        let heap = run_one::<HeapQueue>(&times, cap);
        assert_eq!(wheel, heap);
    });
}

/// Sanity: the default simulator and the `HeapSimulator` alias both
/// run, so the differential suite compares two working backends.
#[test]
fn pinned_aliases_execute() {
    let mut w: Simulator<Log> = Simulator::new();
    let mut h: HeapSimulator<Log> = Simulator::new();
    let mut a = Log::default();
    let mut b = Log::default();
    w.schedule_at(SimTime::from_nanos(3), Fire::once(1));
    h.schedule_at(SimTime::from_nanos(3), Fire::once(1));
    w.run_until(&mut a, SimTime::from_micros(1));
    h.run_until(&mut b, SimTime::from_micros(1));
    assert_eq!((a.0, b.0), (vec![1], vec![1]));
}
