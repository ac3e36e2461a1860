//! Hierarchical timing wheel — the default scheduler backend.
//!
//! Seven levels of 64 slots each over a 64 ns grain: a level-0
//! bucket holds one 64 ns grain, and a level-`l` bucket aggregates an
//! aligned block of `64^l` grains. The wheel spans `64^8` ns (≈ 3.3
//! days of virtual time) from the current cursor's top-level block;
//! anything beyond that parks in an insertion-ordered overflow list
//! (the calendar-queue fallback) and is pulled in when the wheel
//! drains and rebases.
//!
//! Design notes (also see DESIGN.md §"Event core"):
//!
//! * **Exactness.** This is not a quantizing wheel. A level-0 bucket
//!   list is kept sorted by `(time, seq)`: an insert walks past every
//!   entry whose time is `<= t` (an append when the tail's time is,
//!   the common case). Every insert into a level-0 bucket carries a
//!   `seq` above all the bucket's entries (see *FIFO preservation*),
//!   so ordering by time alone, ties after, *is* `(time, seq)` order
//!   and the head is always the earliest event of the grain.
//!   Higher-level buckets hold blocks of time; their contents cascade
//!   down as the cursor reaches them.
//! * **Grain.** With a 1 ns level 0, an event a few microseconds out
//!   was placed two or three times on its way down. At 64 ns, one
//!   level-0 window covers 4 096 ns, so an event due within it (a
//!   service completion) is placed once and one a few tens of
//!   microseconds out (a request's arrival at the NIC, scheduled one
//!   link delay ahead, or a response's link hop) cascades once:
//!   box_poll places its events 1.66 times each. The sorted walk is
//!   rare and short: counted over one pass each, 4.8% of box_poll's
//!   level-0 inserts walk (1.2% of sweep13's, 1.8% of fleet_chaos's),
//!   passing 0.05 entries per walk (0.01, 0.02). At box_poll's 2.75
//!   events per µs a 64 ns grain holds about 0.2 events; a model far
//!   denser than that would make each walk cost O(entries in the
//!   grain).
//! * **Occupancy bitmaps.** One `u64` per level marks non-empty
//!   buckets; finding the next event is a handful of
//!   `trailing_zeros` calls, never a scan over empty slots, so
//!   sparse schedules cost nothing to skip across.
//! * **FIFO preservation.** Lists above level 0 only ever (a) append
//!   a freshly scheduled event, whose `seq` is globally maximal, or
//!   (b) receive a cascaded/rebased list in its existing order into
//!   levels that are empty at that moment — so they are `seq`-sorted
//!   at all times. Level 0 receives events the same two ways, which
//!   is why each insert's `seq` exceeds everything already there.
//! * **Bounded advance.** [`pop_within`](WheelQueue::pop_within)
//!   never moves the cursor past `bound`, so a `run_until(deadline)`
//!   that stops short leaves the wheel able to accept events
//!   scheduled at any `time >= deadline` (the engine clamps schedule
//!   times to its clock, which ends at the deadline).
//! * **Cancellation.** Cancelled events are husks (their arena slot
//!   is dead). A pop releases the husks it finds at a level-0 head; a
//!   cascade releases the husks of its block in the same pass that
//!   relinks the live events, so each husk costs O(1).

use super::arena::{Arena, NIL};
use super::{SchedQueue, SimTime};

/// log2 of the level-0 grain in nanoseconds.
const GRAIN_BITS: u32 = 6;
/// log2 of the per-level fan-out.
const BITS: u32 = 6;
/// Buckets per level.
const SLOTS: usize = 1 << BITS;
/// Number of wheel levels; beyond `64^(LEVELS+1)` ns lies the
/// overflow list.
const LEVELS: usize = 7;
/// Shift that isolates the top-level block of an absolute time.
const TOP_SHIFT: u32 = GRAIN_BITS + BITS * LEVELS as u32;

/// An intrusive list of arena slots (head/tail indices).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
    };
}

/// The hierarchical timing wheel. See the module docs for layout and
/// invariants.
pub struct WheelQueue {
    /// Current wheel position in absolute nanoseconds. Invariant: no
    /// pending event fires before `cur`, and `cur` never exceeds the
    /// engine's clock by more than the bound passed to `pop_within`.
    /// Advancement is committed only on behalf of *live* events (a
    /// pop, or a cascade/rebase of a bucket holding at least one);
    /// buckets that turn out to be all cancelled husks are purged
    /// with the cursor untouched, so a pop that drains to `None`
    /// never strands `cur` ahead of times the engine may still
    /// schedule.
    cur: u64,
    /// Per-level occupancy bitmaps (bit *i* ⇔ bucket *i* non-empty).
    occ: [u64; LEVELS],
    /// The bucket lists, boxed to keep `Simulator` cheap to move.
    buckets: Box<[[Bucket; SLOTS]; LEVELS]>,
    /// Events beyond the wheel span, in insertion (= `seq`) order.
    overflow: Vec<u32>,
}

impl Default for WheelQueue {
    fn default() -> Self {
        WheelQueue {
            cur: 0,
            occ: [0; LEVELS],
            buckets: Box::new([[Bucket::EMPTY; SLOTS]; LEVELS]),
            overflow: Vec::new(),
        }
    }
}

impl WheelQueue {
    /// Appends `slot` to bucket `(lvl, idx)`, maintaining FIFO order
    /// and the occupancy bitmap.
    #[inline]
    fn push_bucket(&mut self, arena: &mut Arena, lvl: usize, idx: usize, slot: u32) {
        arena.meta_mut(slot).next = NIL;
        let b = &mut self.buckets[lvl][idx];
        if b.head == NIL {
            b.head = slot;
            self.occ[lvl] |= 1u64 << idx;
        } else {
            arena.meta_mut(b.tail).next = slot;
        }
        b.tail = slot;
    }

    /// Links `slot` (time `t`) into level-0 bucket `idx` after every
    /// entry with time `<= t`. The caller guarantees `slot`'s `seq`
    /// exceeds every entry's, so this keeps the list in `(time, seq)`
    /// order.
    #[inline]
    fn insert_sorted(&mut self, arena: &mut Arena, idx: usize, slot: u32, t: SimTime) {
        let b = self.buckets[0][idx];
        if b.head == NIL || arena.meta(b.tail).time <= t {
            self.push_bucket(arena, 0, idx, slot);
            return;
        }
        // The tail is later than `t`, so the walk stops at or before
        // it: `node` never runs off the list.
        let mut prev = NIL;
        let mut node = b.head;
        while arena.meta(node).time <= t {
            prev = node;
            node = arena.meta(node).next;
        }
        arena.meta_mut(slot).next = node;
        if prev == NIL {
            self.buckets[0][idx].head = slot;
        } else {
            arena.meta_mut(prev).next = slot;
        }
    }

    /// Routes `slot` to its level/bucket relative to the current
    /// cursor: the *lowest* level whose aligned window contains both
    /// the cursor and the event's time. Far-future events go to the
    /// overflow list.
    #[inline]
    fn place(&mut self, arena: &mut Arena, slot: u32) {
        let time = arena.meta(slot).time;
        let t = time.as_nanos();
        debug_assert!(t >= self.cur, "event scheduled before wheel cursor");
        if (t >> TOP_SHIFT) != (self.cur >> TOP_SHIFT) {
            arena.meta_mut(slot).next = NIL;
            self.overflow.push(slot);
            return;
        }
        let diff = (t ^ self.cur) >> GRAIN_BITS;
        if diff < SLOTS as u64 {
            let idx = ((t >> GRAIN_BITS) & (SLOTS as u64 - 1)) as usize;
            self.insert_sorted(arena, idx, slot, time);
            return;
        }
        let lvl = ((63 - diff.leading_zeros()) / BITS) as usize;
        let idx = ((t >> (GRAIN_BITS + BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
        self.push_bucket(arena, lvl, idx, slot);
    }

    /// Detaches bucket `(lvl, idx)`, whose block starts at `base`, and
    /// in one pass releases its cancelled husks and re-places its live
    /// events relative to a cursor advanced to `base`. List order —
    /// and therefore `seq` order — is preserved. The cursor keeps the
    /// advance only if an event was live: nothing in a husk-only
    /// bucket will pop, so committing `cur` to its block would strand
    /// the wheel ahead of the engine clock, and a later schedule at a
    /// legal time (`>= now`, `< base`) would land *behind* the cursor.
    fn cascade(&mut self, arena: &mut Arena, lvl: usize, idx: usize, base: u64) {
        let mut node = self.buckets[lvl][idx].head;
        self.buckets[lvl][idx] = Bucket::EMPTY;
        self.occ[lvl] &= !(1u64 << idx);
        debug_assert!(base >= self.cur, "cascade moved the wheel backwards");
        let prev_cur = self.cur;
        self.cur = base;
        let mut live = false;
        while node != NIL {
            let next = arena.meta(node).next;
            if arena.is_live(node) {
                live = true;
                self.place(arena, node);
            } else {
                arena.release(node);
            }
            node = next;
        }
        if !live {
            self.cur = prev_cur;
        }
    }

    /// Drops cancelled husks from the overflow list and returns the
    /// earliest live overflow time, if any.
    fn overflow_min(&mut self, arena: &mut Arena) -> Option<u64> {
        let mut min = None;
        let mut kept = 0;
        for i in 0..self.overflow.len() {
            let slot = self.overflow[i];
            if arena.is_live(slot) {
                let t = arena.meta(slot).time.as_nanos();
                min = Some(min.map_or(t, |m: u64| m.min(t)));
                self.overflow[kept] = slot;
                kept += 1;
            } else {
                arena.release(slot);
            }
        }
        self.overflow.truncate(kept);
        min
    }
}

impl super::sealed::Sealed for WheelQueue {}

impl SchedQueue for WheelQueue {
    #[inline]
    fn insert(&mut self, arena: &mut Arena, slot: u32) {
        self.place(arena, slot);
    }

    #[inline]
    fn pop_within(&mut self, arena: &mut Arena, bound: SimTime) -> Option<u32> {
        let bound_ns = bound.as_nanos();
        loop {
            // Level 0 first: each list is `(time, seq)`-sorted and
            // the lowest occupied bucket is the earliest grain, so its
            // first live entry is the earliest event.
            if self.occ[0] != 0 {
                let idx = self.occ[0].trailing_zeros() as usize;
                let mut head = self.buckets[0][idx].head;
                while head != NIL && !arena.is_live(head) {
                    let next = arena.meta(head).next;
                    arena.release(head);
                    head = next;
                }
                if head == NIL {
                    self.buckets[0][idx] = Bucket::EMPTY;
                    self.occ[0] &= !(1u64 << idx);
                    continue;
                }
                let m = arena.meta(head);
                let (time, next) = (m.time, m.next);
                if time > bound {
                    self.buckets[0][idx].head = head;
                    return None;
                }
                if next == NIL {
                    self.buckets[0][idx] = Bucket::EMPTY;
                    self.occ[0] &= !(1u64 << idx);
                } else {
                    self.buckets[0][idx].head = next;
                }
                self.cur = time.as_nanos();
                return Some(head);
            }

            // Cascade the earliest block of the lowest occupied level.
            // Every event at level `l` lies in the cursor's aligned
            // window of `64^(l+1)` grains *after* the cursor's own
            // level-`l` block, so the lowest set bit is the earliest
            // block and levels below are empty.
            if let Some(lvl) = (1..LEVELS).find(|&l| self.occ[l] != 0) {
                let idx = self.occ[lvl].trailing_zeros() as usize;
                let shift = GRAIN_BITS + BITS * lvl as u32;
                let span_mask = (1u64 << (shift + BITS)) - 1;
                let base = (self.cur & !span_mask) | ((idx as u64) << shift);
                if base > bound_ns {
                    // The earliest pending event fires after `bound`;
                    // leave the cursor untouched so later schedules
                    // at `>= bound` stay valid.
                    return None;
                }
                self.cascade(arena, lvl, idx, base);
                continue;
            }

            // Wheel empty: rebase onto the overflow list, if it holds
            // anything live within the bound.
            let min = self.overflow_min(arena)?;
            if min > bound_ns {
                return None;
            }
            self.cur = min;
            // Re-route every parked event; those still beyond the new
            // top-level block simply re-enter the overflow list, in
            // order.
            let parked = std::mem::take(&mut self.overflow);
            for slot in parked {
                self.place(arena, slot);
            }
        }
    }
}

#[cfg(test)]
impl WheelQueue {
    /// True when no entries (live or husk) remain anywhere.
    fn is_empty(&self) -> bool {
        self.occ.iter().all(|&o| o == 0) && self.overflow.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc_at(arena: &mut Arena, t: u64, seq: u64) -> u32 {
        arena.alloc(SimTime::from_nanos(t), seq)
    }

    fn drain(q: &mut WheelQueue, arena: &mut Arena) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(slot) = q.pop_within(arena, SimTime::MAX) {
            out.push(arena.meta(slot).seq);
            arena.release(slot);
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut arena = Arena::default();
        let mut q = WheelQueue::default();
        // Deliberately straddle several levels and include ties.
        let times = [5u64, 5, 63, 64, 65, 4095, 4096, 4097, 262_144, 5];
        for (seq, &t) in times.iter().enumerate() {
            let slot = alloc_at(&mut arena, t, seq as u64);
            q.insert(&mut arena, slot);
        }
        assert_eq!(
            drain(&mut q, &mut arena),
            vec![0, 1, 9, 2, 3, 4, 5, 6, 7, 8]
        );
    }

    #[test]
    fn far_future_goes_to_overflow_and_comes_back() {
        let mut arena = Arena::default();
        let mut q = WheelQueue::default();
        let far = 1u64 << (TOP_SHIFT + 3); // beyond the wheel span
        let a = alloc_at(&mut arena, far, 0);
        let b = alloc_at(&mut arena, 10, 1);
        q.insert(&mut arena, a);
        q.insert(&mut arena, b);
        assert_eq!(q.overflow.len(), 1);
        assert_eq!(drain(&mut q, &mut arena), vec![1, 0]);
        assert!(q.is_empty());
    }

    #[test]
    fn bounded_pop_does_not_advance_past_bound() {
        let mut arena = Arena::default();
        let mut q = WheelQueue::default();
        let slot = alloc_at(&mut arena, 1_000_000, 0);
        q.insert(&mut arena, slot);
        assert_eq!(q.pop_within(&mut arena, SimTime::from_nanos(500)), None);
        assert!(q.cur <= 500, "cursor ran past the bound: {}", q.cur);
        // A later event scheduled after the bound must still be
        // insertable and pop first if earlier.
        let early = alloc_at(&mut arena, 600, 1);
        q.insert(&mut arena, early);
        assert_eq!(drain(&mut q, &mut arena), vec![1, 0]);
    }

    /// Regression (REVIEW: high): draining a cascade that holds only
    /// cancelled husks must not commit the cursor to the husks'
    /// bucket base — a later insert at a legal earlier time would
    /// land behind the cursor (debug panic / release livelock).
    #[test]
    fn husk_only_cascade_leaves_cursor_for_earlier_reschedule() {
        let mut arena = Arena::default();
        let mut q = WheelQueue::default();
        // 10_000 ns sits at wheel level 1; cancel it so the cascade
        // finds nothing live.
        let dead = alloc_at(&mut arena, 10_000, 0);
        q.insert(&mut arena, dead);
        arena.kill(dead);
        assert_eq!(q.pop_within(&mut arena, SimTime::MAX), None);
        assert_eq!(q.cur, 0, "husk-only drain moved the cursor");
        // An earlier (still legal: engine clock never advanced) time
        // must insert and pop cleanly.
        let live = alloc_at(&mut arena, 100, 1);
        q.insert(&mut arena, live);
        assert_eq!(drain(&mut q, &mut arena), vec![1]);
        assert!(q.is_empty());
    }

    #[test]
    fn bounded_pop_short_of_a_mixed_block_leaves_cursor() {
        let mut arena = Arena::default();
        let mut q = WheelQueue::default();
        // One level-2 bucket (block base 64^3 = 262 144 ns) holding a
        // husk ahead of two live events.
        let husk = alloc_at(&mut arena, 262_200, 0);
        let a = alloc_at(&mut arena, 262_300, 1);
        let b = alloc_at(&mut arena, 300_000, 2);
        for s in [husk, a, b] {
            q.insert(&mut arena, s);
        }
        arena.kill(husk);
        assert_eq!(q.pop_within(&mut arena, SimTime::from_nanos(262_143)), None);
        assert_eq!(q.cur, 0, "a bound short of the block moved the cursor");
        // Inside the block but before the first live event: the
        // cascade commits to the block base, not past the bound.
        assert_eq!(q.pop_within(&mut arena, SimTime::from_nanos(262_250)), None);
        assert_eq!(q.cur, 262_144);
        let early = alloc_at(&mut arena, 262_250, 3);
        q.insert(&mut arena, early);
        assert_eq!(drain(&mut q, &mut arena), vec![3, 1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_husks_are_released_lazily() {
        let mut arena = Arena::default();
        let mut q = WheelQueue::default();
        let a = alloc_at(&mut arena, 100, 0);
        let b = alloc_at(&mut arena, 100, 1);
        let c = alloc_at(&mut arena, 1 << (TOP_SHIFT + 1), 2);
        q.insert(&mut arena, a);
        q.insert(&mut arena, b);
        q.insert(&mut arena, c);
        arena.kill(a);
        arena.kill(c);
        assert_eq!(drain(&mut q, &mut arena), vec![1]);
        assert!(q.is_empty());
        // Both husks were released back to the free list: allocating
        // twice reuses them (in LIFO order) with bumped generations.
        let g_a = arena.gen(a);
        let reused = arena.alloc(SimTime::from_nanos(1), 3);
        assert!(reused == a || reused == c);
        if reused == a {
            assert_eq!(arena.gen(a), g_a);
        }
    }
}
