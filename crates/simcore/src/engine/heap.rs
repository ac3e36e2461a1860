//! Binary-heap scheduler backend — the differential-testing oracle.
//!
//! This is the engine's original `BinaryHeap` core (a max-heap with
//! inverted `(time, seq)` ordering and lazy purging of cancelled
//! entries), retained verbatim in spirit as [`HeapSimulator`]'s
//! backend. Its pop order is trivially the documented `(time, seq)`
//! total order, which makes it the oracle the differential property
//! suite (`tests/scheduler.rs`), the wheel edge cases
//! (`crates/simcore/tests/wheel_edge.rs`) and the engine bench compare
//! the timing wheel against.
//!
//! [`HeapSimulator`]: crate::HeapSimulator

use super::arena::Arena;
use super::{SchedQueue, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One heap entry: ordering metadata plus the arena slot it ranks.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops
        // first, with FIFO order among equal timestamps.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The heap-ordered oracle backend. O(log n) schedule/pop, lazy
/// cancellation.
#[derive(Debug, Default)]
pub struct HeapQueue {
    heap: BinaryHeap<Entry>,
}

impl super::sealed::Sealed for HeapQueue {}

impl SchedQueue for HeapQueue {
    fn insert(&mut self, arena: &mut Arena, slot: u32) {
        let m = arena.meta(slot);
        self.heap.push(Entry {
            time: m.time,
            seq: m.seq,
            slot,
        });
    }

    fn pop_within(&mut self, arena: &mut Arena, bound: SimTime) -> Option<u32> {
        loop {
            let ev = *self.heap.peek()?;
            if !arena.is_live(ev.slot) {
                // Cancelled husk: release its slot and keep looking.
                self.heap.pop();
                arena.release(ev.slot);
                continue;
            }
            if ev.time > bound {
                return None;
            }
            self.heap.pop();
            return Some(ev.slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order_with_lazy_cancel() {
        let mut arena = Arena::default();
        let mut q = HeapQueue::default();
        let times = [30u64, 10, 10, 20];
        let slots: Vec<u32> = times
            .iter()
            .enumerate()
            .map(|(seq, &t)| {
                let s = arena.alloc(SimTime::from_nanos(t), seq as u64);
                q.insert(&mut arena, s);
                s
            })
            .collect();
        arena.kill(slots[2]);
        let mut seqs = Vec::new();
        while let Some(slot) = q.pop_within(&mut arena, SimTime::MAX) {
            seqs.push(arena.meta(slot).seq);
            arena.release(slot);
        }
        assert_eq!(seqs, vec![1, 3, 0]);
    }

    #[test]
    fn bounded_pop_leaves_later_events() {
        let mut arena = Arena::default();
        let mut q = HeapQueue::default();
        let s = arena.alloc(SimTime::from_nanos(100), 0);
        q.insert(&mut arena, s);
        assert_eq!(q.pop_within(&mut arena, SimTime::from_nanos(50)), None);
        assert_eq!(q.pop_within(&mut arena, SimTime::from_nanos(100)), Some(s));
    }
}
