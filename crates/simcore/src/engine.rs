//! The event queue and simulation loop.
//!
//! [`Simulator<W>`] is generic over a user-supplied *world* type `W`
//! holding all model state (cores, NIC, queues, governors…). The
//! world names its own event vocabulary through the [`World`] trait:
//! `W::Event` is a plain value (typically an enum), stored inline in a
//! vector parallel to the engine's slot arena, and [`World::handle`]
//! receives it together with `&mut Simulator<W>`, so an event can both
//! mutate the world and schedule or cancel further events. Scheduling
//! an event allocates nothing once the arena has grown to the run's
//! peak queue depth.
//!
//! # Ordering invariant
//!
//! Events execute in strict `(time, seq)` order, where `seq` is a
//! monotone sequence number assigned at schedule time: earlier
//! virtual times first, and **FIFO among equal timestamps** —
//! whichever event was scheduled first runs first. This tie-break is
//! a documented contract, not an implementation accident: every model
//! in the workspace and every golden fixture depends on it, and both
//! scheduler backends (see below) must agree on it bit-for-bit.
//!
//! # Scheduler backends
//!
//! The simulator is additionally generic over a [`SchedQueue`]
//! backend ordering the pending-event set:
//!
//! * [`WheelQueue`] — a hierarchical timing wheel with arena-
//!   allocated event slots, generation-tagged [`EventId`] handles for
//!   O(1) cancellation, occupancy bitmaps to skip empty time, and an
//!   insertion-ordered overflow list for far-future events. This is
//!   the default: O(1) schedule/pop versus the heap's O(log n).
//! * [`HeapQueue`] — the original `BinaryHeap` core, kept as the
//!   differential-testing oracle ([`HeapSimulator`]).
//!
//! Both backends share the arena and the `(time, seq)` contract; the
//! differential property suite (`tests/scheduler.rs`) drives them
//! with identical randomized schedule/cancel/run workloads and
//! asserts identical pop order, tie-breaks, and cancellation
//! semantics.
//!
//! # Self-check
//!
//! Debug builds check the contract on every dispatch, whatever the
//! backend: each popped `(time, seq)` must be strictly greater than
//! the one before, and when the backend reports nothing due by a
//! bound, no live event may be due by it. Every debug test of the
//! workspace, golden fixtures included, is thus also an ordering
//! test of the wheel. Release builds compile the check out.

use crate::error::SimError;
use crate::time::{SimDuration, SimTime};

mod arena;
mod heap;
mod wheel;

#[doc(hidden)]
pub use arena::Arena;
pub use heap::HeapQueue;
pub use wheel::WheelQueue;

mod sealed {
    /// Closes [`SchedQueue`](super::SchedQueue) to outside
    /// implementations: the engine's determinism contract is only
    /// proven for the two in-tree backends.
    pub trait Sealed {}
}

/// A scheduler backend: orders pending events by `(time, seq)` over
/// slots living in the engine's arena. Sealed — implemented only by
/// [`WheelQueue`] and [`HeapQueue`].
pub trait SchedQueue: Default + sealed::Sealed {
    /// Enqueues an arena slot (its time/seq metadata is already in
    /// the arena).
    #[doc(hidden)]
    fn insert(&mut self, arena: &mut Arena, slot: u32);

    /// Pops the earliest live slot whose time is `<= bound`, lazily
    /// releasing cancelled husks it encounters. Returns `None` —
    /// without observably advancing past `bound` — when the earliest
    /// pending event (if any) fires later than `bound`.
    #[doc(hidden)]
    fn pop_within(&mut self, arena: &mut Arena, bound: SimTime) -> Option<u32>;
}

/// A simulator on the heap-oracle backend. Used by differential
/// tests and benches.
pub type HeapSimulator<W> = Simulator<W, HeapQueue>;

/// A simulation world: the model state events mutate, plus the type
/// of those events.
///
/// The engine stores `Self::Event` values inline and hands each one
/// back to [`handle`](World::handle) when its time comes, so dispatch
/// is one `match` in the world, not a heap-allocated closure per
/// event. The `Q` parameter names the scheduler backend the world
/// runs on; a world that is only ever simulated on the default
/// backend implements `World` and never mentions it.
///
/// # Examples
///
/// ```
/// use simcore::{SimDuration, SimTime, Simulator, World};
///
/// #[derive(Default)]
/// struct Counter {
///     ticks: u64,
/// }
///
/// enum Ev {
///     Tick,
/// }
///
/// impl World for Counter {
///     type Event = Ev;
///     fn handle(&mut self, ev: Ev, sim: &mut Simulator<Self>) {
///         match ev {
///             Ev::Tick => {
///                 self.ticks += 1;
///                 sim.schedule_in(SimDuration::from_micros(1), Ev::Tick);
///             }
///         }
///     }
/// }
///
/// let mut sim = Simulator::new();
/// let mut world = Counter::default();
/// sim.schedule_at(SimTime::ZERO, Ev::Tick);
/// sim.run_until(&mut world, SimTime::from_micros(9));
/// assert_eq!(world.ticks, 10);
/// ```
pub trait World<Q: SchedQueue = WheelQueue>: Sized {
    /// What the world schedules: one value per pending event.
    type Event;

    /// Executes `ev` at [`sim.now()`](Simulator::now).
    fn handle(&mut self, ev: Self::Event, sim: &mut Simulator<Self, Q>);
}

/// A per-run abort guard for [`Simulator::run_until_budgeted`].
///
/// The one limit is optional; [`StepBudget::unlimited`] disables the
/// guard entirely. It counts *total* events executed by the simulator
/// (cells own their simulator, so this is per-cell), which makes the
/// guard robust against livelocked event chains that never advance
/// virtual time. The count is a function of the run alone, so a
/// budgeted run aborts at the same event on every host.
///
/// # Examples
///
/// ```
/// use simcore::{Simulator, SimTime, SimDuration, StepBudget, SimError, World};
///
/// /// A runaway world: every tick schedules the next one.
/// struct Spin;
///
/// impl World for Spin {
///     type Event = ();
///     fn handle(&mut self, _: (), sim: &mut Simulator<Self>) {
///         sim.schedule_in(SimDuration::from_nanos(1), ());
///     }
/// }
///
/// let mut sim = Simulator::new();
/// sim.schedule_in(SimDuration::from_nanos(1), ());
/// let budget = StepBudget::unlimited().with_max_events(1_000);
/// let err = sim
///     .run_until_budgeted(&mut Spin, SimTime::MAX, &budget)
///     .unwrap_err();
/// assert!(matches!(err, SimError::BudgetExceeded { .. }));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct StepBudget {
    /// Abort once this many events have executed in total.
    pub max_events: Option<u64>,
}

impl StepBudget {
    /// No limit: `run_until_budgeted` behaves like `run_until`.
    pub fn unlimited() -> Self {
        StepBudget::default()
    }

    /// Sets the total executed-event ceiling.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }
}

/// Handle to a scheduled event, usable with [`Simulator::cancel`].
///
/// The handle packs the event's arena slot and the slot's generation
/// at schedule time, so cancellation is O(1): a slot lookup and a
/// generation compare, no hashing. Once the event runs or is
/// cancelled its generation goes stale, so a retained handle can
/// never cancel a later event that reuses the slot — handles are
/// effectively unique for the lifetime of a simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn pack(slot: u32, gen: u32) -> Self {
        EventId(((gen as u64) << 32) | slot as u64)
    }

    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A deterministic discrete-event simulator over the world `W`.
///
/// # Examples
///
/// ```
/// use simcore::{Simulator, SimTime, World};
///
/// struct Hits(Vec<u64>);
///
/// impl World for Hits {
///     type Event = u64;
///     fn handle(&mut self, label: u64, _: &mut Simulator<Self>) {
///         self.0.push(label);
///     }
/// }
///
/// let mut hits = Hits(Vec::new());
/// let mut sim = Simulator::new();
/// for i in 0..3 {
///     sim.schedule_at(SimTime::from_micros(10 - i), i);
/// }
/// sim.run_until(&mut hits, SimTime::from_millis(1));
/// assert_eq!(hits.0, vec![2, 1, 0]); // time order, not insertion order
/// ```
pub struct Simulator<W, Q = WheelQueue>
where
    W: World<Q>,
    Q: SchedQueue,
{
    now: SimTime,
    queue: Q,
    arena: Arena,
    /// Events, parallel to the arena's slots. `None` for free slots
    /// and cancelled husks.
    events: Vec<Option<W::Event>>,
    next_seq: u64,
    /// Events scheduled but not yet executed or cancelled.
    pending: usize,
    executed: u64,
    cancelled: u64,
    max_pending: usize,
    /// `(time, seq)` of the last dispatched event: the self-check's
    /// reference point.
    #[cfg(debug_assertions)]
    last_popped: Option<(SimTime, u64)>,
}

/// Engine self-profiling counters, cheap enough to always collect.
///
/// Everything here is a function of the event sequence alone, so two
/// same-seed runs report identical profiles — wall-clock timing is
/// deliberately *not* part of this struct (the experiment runner
/// measures it separately, outside anything determinism suites
/// compare).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Events ever scheduled (executed + cancelled + still pending).
    pub events_scheduled: u64,
    /// Events that ran.
    pub events_executed: u64,
    /// Events cancelled before running.
    pub events_cancelled: u64,
    /// High-water mark of simultaneously pending events (queue depth).
    pub max_pending: usize,
}

impl<W: World<Q>, Q: SchedQueue> Default for Simulator<W, Q> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: World<Q>, Q: SchedQueue> Simulator<W, Q> {
    /// Creates an empty simulator at time zero.
    pub fn new() -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: Q::default(),
            arena: Arena::default(),
            events: Vec::new(),
            next_seq: 0,
            pending: 0,
            executed: 0,
            cancelled: 0,
            max_pending: 0,
            #[cfg(debug_assertions)]
            last_popped: None,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending (cancelled events excluded).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Deterministic self-profiling counters for this simulator.
    pub fn profile(&self) -> EngineProfile {
        EngineProfile {
            events_scheduled: self.next_seq,
            events_executed: self.executed,
            events_cancelled: self.cancelled,
            max_pending: self.max_pending,
        }
    }

    /// Schedules `event` to run at absolute time `time`.
    ///
    /// Events scheduled in the past run "now": they are clamped to the
    /// current time and execute before the simulator advances, which
    /// keeps model code free of re-entrancy special cases. Among
    /// equal timestamps, events run in schedule order (see the
    /// [ordering invariant](self)).
    pub fn schedule_at(&mut self, time: SimTime, event: W::Event) -> EventId {
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.arena.alloc(time, seq);
        match self.events.get_mut(slot as usize) {
            Some(cell) => *cell = Some(event),
            None => self.events.push(Some(event)),
        }
        self.queue.insert(&mut self.arena, slot);
        self.pending += 1;
        self.max_pending = self.max_pending.max(self.pending);
        EventId::pack(slot, self.arena.gen(slot))
    }

    /// Schedules `event` to run `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: W::Event) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a pending event. Returns `true` if the event was still
    /// pending (i.e. this call prevented it from running).
    ///
    /// O(1): the generation tag in the handle is compared against the
    /// arena slot's; a handle whose event already ran, was already
    /// cancelled, or was never issued reports `false`. The dead entry
    /// is purged from the queue lazily.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.arena.gen(id.slot()) != id.gen() || !self.arena.kill(id.slot()) {
            return false;
        }
        // Drop the event eagerly; the queue releases the slot when it
        // next touches the husk.
        if let Some(ev) = self.events.get_mut(id.slot() as usize) {
            *ev = None;
        }
        self.cancelled += 1;
        self.pending -= 1;
        true
    }

    /// Pops and executes the earliest event with time `<= bound`.
    /// Returns `false` if there is none.
    fn dispatch_next(&mut self, world: &mut W, bound: SimTime) -> bool {
        let Some(slot) = self.queue.pop_within(&mut self.arena, bound) else {
            #[cfg(debug_assertions)]
            if let Some((time, seq)) = self.arena.earliest_live() {
                assert!(
                    time > bound,
                    "engine self-check: event ({} ns, seq {seq}) is due by {} ns \
                     but the queue returned none",
                    time.as_nanos(),
                    bound.as_nanos()
                );
            }
            return false;
        };
        let time = self.arena.meta(slot).time;
        #[cfg(debug_assertions)]
        {
            let popped = (time, self.arena.meta(slot).seq);
            if let Some(last) = self.last_popped.replace(popped) {
                assert!(
                    popped > last,
                    "engine self-check: (time, seq) order violated: ({} ns, seq {}) \
                     popped after ({} ns, seq {})",
                    popped.0.as_nanos(),
                    popped.1,
                    last.0.as_nanos(),
                    last.1
                );
            }
        }
        let event = self.events[slot as usize].take();
        self.arena.release(slot);
        debug_assert!(event.is_some(), "live slot without an event");
        self.now = time;
        self.executed += 1;
        self.pending -= 1;
        if let Some(event) = event {
            world.handle(event, self);
        }
        true
    }

    /// Runs a single event. Returns `false` if the queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        self.dispatch_next(world, SimTime::MAX)
    }

    /// Runs events until the queue is exhausted or `deadline` is
    /// reached; the simulator clock ends at exactly `deadline` unless
    /// the queue drains earlier. Returns the number of events executed.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) -> u64 {
        let start = self.executed;
        while self.dispatch_next(world, deadline) {}
        if self.now < deadline {
            self.now = deadline;
        }
        self.executed - start
    }

    /// Like [`run_until`](Simulator::run_until), but aborts with
    /// [`SimError::BudgetExceeded`] once `budget`'s event ceiling is
    /// reached, instead of hanging the caller on a runaway world.
    ///
    /// The ceiling counts *total* events this simulator has executed
    /// (across calls), so a budget naturally spans a warm-up phase
    /// plus a measured window; see [`StepBudget`].
    pub fn run_until_budgeted(
        &mut self,
        world: &mut W,
        deadline: SimTime,
        budget: &StepBudget,
    ) -> Result<u64, SimError> {
        let Some(max_events) = budget.max_events else {
            return Ok(self.run_until(world, deadline));
        };
        let start = self.executed;
        loop {
            if self.executed >= max_events {
                return Err(SimError::BudgetExceeded {
                    limit: max_events,
                    events_executed: self.executed,
                    sim_time: self.now,
                });
            }
            if !self.dispatch_next(world, deadline) {
                break;
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
        Ok(self.executed - start)
    }
}

impl<W: World<Q>, Q: SchedQueue> std::fmt::Debug for Simulator<W, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("executed", &self.executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test world: an execution log of event labels.
    #[derive(Debug, Default)]
    struct Log(Vec<u64>);

    /// Test events.
    #[derive(Debug, Clone, Copy)]
    enum Ev {
        /// Logs the label.
        Push(u64),
        /// Logs the label, then schedules `Push(next)` at absolute
        /// time `at` (clamped to now if in the past).
        PushThen { label: u64, next: u64, at: u64 },
        /// Logs the label and, while `links > 0`, schedules another
        /// link 1 ns later.
        Chain { label: u64, links: u32 },
        /// Logs 1 and reschedules itself 1 ns later, forever.
        Perpetual,
    }

    impl<Q: SchedQueue> World<Q> for Log {
        type Event = Ev;
        fn handle(&mut self, ev: Ev, sim: &mut Simulator<Self, Q>) {
            match ev {
                Ev::Push(label) => self.0.push(label),
                Ev::PushThen { label, next, at } => {
                    self.0.push(label);
                    sim.schedule_at(SimTime::from_nanos(at), Ev::Push(next));
                }
                Ev::Chain { label, links } => {
                    self.0.push(label);
                    if links > 0 {
                        let ev = Ev::Chain {
                            label: label * 10,
                            links: links - 1,
                        };
                        sim.schedule_in(SimDuration::from_nanos(1), ev);
                    }
                }
                Ev::Perpetual => {
                    self.0.push(1);
                    sim.schedule_in(SimDuration::from_nanos(1), Ev::Perpetual);
                }
            }
        }
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn executes_in_time_order() {
        let mut sim: Simulator<Log> = Simulator::new();
        let mut w = Log::default();
        sim.schedule_at(t(30), Ev::Push(3));
        sim.schedule_at(t(10), Ev::Push(1));
        sim.schedule_at(t(20), Ev::Push(2));
        sim.run_until(&mut w, SimTime::from_micros(1));
        assert_eq!(w.0, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_ties() {
        let mut sim: Simulator<Log> = Simulator::new();
        let mut w = Log::default();
        for i in 0..5 {
            sim.schedule_at(t(7), Ev::Push(i));
        }
        sim.run_until(&mut w, SimTime::from_micros(1));
        assert_eq!(w.0, vec![0, 1, 2, 3, 4]);
    }

    /// The documented ordering invariant — `(time, seq)` with FIFO
    /// tie-breaks surviving interleaved cancellation — holds
    /// identically on *both* scheduler backends.
    #[test]
    fn fifo_tie_break_invariant_on_both_backends() {
        fn ordering_on<Q: SchedQueue>() -> Vec<u64> {
            let mut sim: Simulator<Log, Q> = Simulator::new();
            let mut w = Log::default();
            // Three timestamps, interleaved schedule order, one
            // cancellation inside a tie group.
            sim.schedule_at(t(20), Ev::Push(0));
            sim.schedule_at(t(10), Ev::Push(1));
            let dead = sim.schedule_at(t(10), Ev::Push(2));
            sim.schedule_at(t(10), Ev::Push(3));
            sim.schedule_at(t(20), Ev::Push(4));
            assert!(sim.cancel(dead));
            // A same-timestamp event scheduled *during* the tie group
            // runs after the group's survivors (its seq is larger).
            sim.schedule_at(
                t(10),
                Ev::PushThen {
                    label: 5,
                    next: 6,
                    at: 10,
                },
            );
            sim.run_until(&mut w, SimTime::from_micros(1));
            w.0
        }
        let wheel = ordering_on::<WheelQueue>();
        let heap = ordering_on::<HeapQueue>();
        assert_eq!(wheel, vec![1, 3, 5, 6, 0, 4]);
        assert_eq!(wheel, heap);
    }

    /// Regression: stepping a queue whose only content is a cancelled
    /// far event must leave the scheduler able to accept — and run —
    /// a later schedule at an earlier virtual time. The wheel backend
    /// used to strand its cursor at the cancelled event's bucket
    /// base, panicking in debug builds and livelocking in release on
    /// the second `step`.
    #[test]
    fn step_over_cancelled_event_accepts_earlier_reschedule_on_both_backends() {
        fn check<Q: SchedQueue>() {
            let mut sim: Simulator<Log, Q> = Simulator::new();
            let mut w = Log::default();
            let dead = sim.schedule_at(t(10_000), Ev::Push(10_000));
            assert!(sim.cancel(dead));
            assert!(!sim.step(&mut w), "only a husk pending");
            assert_eq!(sim.now(), SimTime::ZERO, "nothing ran, clock stays");
            sim.schedule_at(t(100), Ev::Push(100));
            assert!(sim.step(&mut w), "earlier reschedule must run");
            assert_eq!(w.0, vec![100]);
            assert_eq!(sim.now(), t(100));
            assert!(!sim.step(&mut w));
        }
        check::<WheelQueue>();
        check::<HeapQueue>();
    }

    /// The debug self-check fires on backends that break the
    /// contract. Release builds have no check, so no test.
    #[cfg(debug_assertions)]
    mod self_check {
        use super::*;

        /// A broken backend: pops the earliest time first, but among
        /// equal times the *latest* scheduled (LIFO ties).
        #[derive(Default)]
        struct LifoTies(Vec<u32>);

        impl sealed::Sealed for LifoTies {}

        impl SchedQueue for LifoTies {
            fn insert(&mut self, _: &mut Arena, slot: u32) {
                self.0.push(slot);
            }

            fn pop_within(&mut self, arena: &mut Arena, bound: SimTime) -> Option<u32> {
                let (i, &slot) = self
                    .0
                    .iter()
                    .enumerate()
                    .filter(|&(_, &s)| arena.is_live(s))
                    .min_by_key(|&(_, &s)| {
                        (arena.meta(s).time, std::cmp::Reverse(arena.meta(s).seq))
                    })?;
                (arena.meta(slot).time <= bound).then(|| self.0.swap_remove(i))
            }
        }

        /// A broken backend: the heap oracle, except that it never hands
        /// out the first event it was given.
        #[derive(Default)]
        struct HidesFirst {
            heap: HeapQueue,
            inserted: u64,
        }

        impl sealed::Sealed for HidesFirst {}

        impl SchedQueue for HidesFirst {
            fn insert(&mut self, arena: &mut Arena, slot: u32) {
                self.inserted += 1;
                if self.inserted > 1 {
                    self.heap.insert(arena, slot);
                }
            }

            fn pop_within(&mut self, arena: &mut Arena, bound: SimTime) -> Option<u32> {
                self.heap.pop_within(arena, bound)
            }
        }

        #[test]
        #[should_panic(expected = "engine self-check: (time, seq) order violated")]
        fn catches_lifo_ties() {
            let mut sim: Simulator<Log, LifoTies> = Simulator::new();
            let mut w = Log::default();
            sim.schedule_at(t(7), Ev::Push(0));
            sim.schedule_at(t(7), Ev::Push(1));
            sim.run_until(&mut w, SimTime::from_micros(1));
        }

        #[test]
        #[should_panic(expected = "engine self-check: event (5 ns, seq 0) is due by 1000 ns")]
        fn catches_a_hidden_due_event() {
            let mut sim: Simulator<Log, HidesFirst> = Simulator::new();
            let mut w = Log::default();
            sim.schedule_at(t(5), Ev::Push(0));
            sim.schedule_at(t(9), Ev::Push(1));
            sim.run_until(&mut w, SimTime::from_micros(1));
        }
    }

    #[test]
    fn nested_scheduling() {
        let mut sim: Simulator<Log> = Simulator::new();
        let mut w = Log::default();
        sim.schedule_in(SimDuration::from_nanos(1), Ev::Chain { label: 1, links: 2 });
        sim.run_until(&mut w, SimTime::from_micros(1));
        assert_eq!(w.0, vec![1, 10, 100]);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim: Simulator<Log> = Simulator::new();
        let mut w = Log::default();
        let id = sim.schedule_at(t(5), Ev::Push(1));
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double cancel must report false");
        sim.run_until(&mut w, SimTime::from_micros(1));
        assert!(w.0.is_empty());
    }

    #[test]
    fn cancel_after_run_is_false() {
        let mut sim: Simulator<Log> = Simulator::new();
        let mut w = Log::default();
        let id = sim.schedule_at(t(5), Ev::Push(1));
        sim.run_until(&mut w, SimTime::from_micros(1));
        assert_eq!(w.0, vec![1]);
        assert!(!sim.cancel(id));
    }

    #[test]
    fn stale_handle_cannot_cancel_slot_reuser() {
        let mut sim: Simulator<Log> = Simulator::new();
        let mut w = Log::default();
        let stale = sim.schedule_at(t(5), Ev::Push(1));
        sim.run_until(&mut w, SimTime::from_micros(1));
        // The next event reuses the released arena slot; the stale
        // handle's generation no longer matches, so it must not be
        // able to cancel it.
        let fresh = sim.schedule_at(SimTime::from_micros(2), Ev::Push(10));
        assert_ne!(stale, fresh, "handles are never reused");
        assert!(!sim.cancel(stale));
        sim.run_until(&mut w, SimTime::from_micros(3));
        assert_eq!(w.0, vec![1, 10], "slot reuser must still run");
    }

    #[test]
    fn run_until_stops_at_deadline_and_clamps_clock() {
        let mut sim: Simulator<Log> = Simulator::new();
        let mut w = Log::default();
        sim.schedule_at(SimTime::from_micros(10), Ev::Push(1));
        sim.schedule_at(SimTime::from_micros(30), Ev::Push(2));
        let n = sim.run_until(&mut w, SimTime::from_micros(20));
        assert_eq!(n, 1);
        assert_eq!(w.0, vec![1]);
        assert_eq!(sim.now(), SimTime::from_micros(20));
        // The later event still runs on the next call.
        sim.run_until(&mut w, SimTime::from_micros(40));
        assert_eq!(w.0, vec![1, 2]);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut sim: Simulator<Log> = Simulator::new();
        let mut w = Log::default();
        // The follow-up is scheduled "in the past": it must run at
        // now, not violate order.
        sim.schedule_at(
            SimTime::from_micros(10),
            Ev::PushThen {
                label: 0,
                next: 1,
                at: 1_000,
            },
        );
        sim.run_until(&mut w, SimTime::from_micros(20));
        assert_eq!(w.0, vec![0, 1]);
    }

    #[test]
    fn pending_count_excludes_cancelled() {
        let mut sim: Simulator<Log> = Simulator::new();
        let a = sim.schedule_at(t(1), Ev::Push(1));
        let _b = sim.schedule_at(t(2), Ev::Push(2));
        assert_eq!(sim.pending(), 2);
        sim.cancel(a);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn unknown_id_cancel_is_false() {
        let mut sim: Simulator<Log> = Simulator::new();
        assert!(!sim.cancel(EventId(42)));
        assert!(!sim.cancel(EventId::pack(7, 3)));
    }

    #[test]
    fn event_budget_aborts_runaway_chain() {
        let mut sim: Simulator<Log> = Simulator::new();
        let mut w = Log::default();
        sim.schedule_in(SimDuration::from_nanos(1), Ev::Perpetual);
        let budget = StepBudget::unlimited().with_max_events(250);
        let err = sim
            .run_until_budgeted(&mut w, SimTime::MAX, &budget)
            .unwrap_err();
        match err {
            SimError::BudgetExceeded {
                limit,
                events_executed,
                ..
            } => {
                assert_eq!(limit, 250);
                assert_eq!(events_executed, 250);
            }
            other => panic!("expected event budget abort, got {other:?}"),
        }
        assert_eq!(w.0.len(), 250);
    }

    #[test]
    fn event_budget_spans_multiple_calls() {
        let mut sim: Simulator<Log> = Simulator::new();
        let mut w = Log::default();
        sim.schedule_in(SimDuration::from_nanos(1), Ev::Perpetual);
        let budget = StepBudget::unlimited().with_max_events(100);
        // First call stops at a virtual-time deadline, under budget.
        sim.run_until_budgeted(&mut w, t(60), &budget)
            .expect("within budget");
        assert_eq!(w.0.len(), 60);
        // Second call hits the *total* ceiling, not a fresh one.
        let err = sim
            .run_until_budgeted(&mut w, SimTime::MAX, &budget)
            .unwrap_err();
        assert!(matches!(err, SimError::BudgetExceeded { .. }));
        assert_eq!(w.0.len(), 100);
    }

    #[test]
    fn unlimited_budget_matches_run_until() {
        let mut a: Simulator<Log> = Simulator::new();
        let mut b: Simulator<Log> = Simulator::new();
        let (mut wa, mut wb) = (Log::default(), Log::default());
        a.schedule_in(SimDuration::from_nanos(1), Ev::Perpetual);
        b.schedule_in(SimDuration::from_nanos(1), Ev::Perpetual);
        let deadline = t(500);
        let na = a.run_until(&mut wa, deadline);
        let nb = b
            .run_until_budgeted(&mut wb, deadline, &StepBudget::unlimited())
            .expect("unlimited never aborts");
        assert_eq!(na, nb);
        assert_eq!(wa.0, wb.0);
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn budgeted_run_under_limit_completes() {
        let mut sim: Simulator<Log> = Simulator::new();
        let mut w = Log::default();
        sim.schedule_at(t(5), Ev::Push(1));
        let budget = StepBudget::unlimited().with_max_events(1_000);
        let n = sim
            .run_until_budgeted(&mut w, SimTime::from_micros(1), &budget)
            .expect("tiny run fits any sane budget");
        assert_eq!(n, 1);
        assert_eq!(w.0, vec![1]);
        assert_eq!(sim.now(), SimTime::from_micros(1));
    }

    #[test]
    fn profile_counts_scheduled_executed_cancelled_and_depth() {
        let mut sim: Simulator<Log> = Simulator::new();
        let mut w = Log::default();
        let a = sim.schedule_at(t(1), Ev::Push(1));
        sim.schedule_at(t(2), Ev::Push(2));
        sim.schedule_at(t(3), Ev::Push(3));
        sim.cancel(a);
        sim.cancel(a); // double cancel must not double count
        sim.run_until(&mut w, SimTime::from_micros(1));
        let p = sim.profile();
        assert_eq!(p.events_scheduled, 3);
        assert_eq!(p.events_executed, 2);
        assert_eq!(p.events_cancelled, 1);
        assert_eq!(p.max_pending, 3);
    }
}
