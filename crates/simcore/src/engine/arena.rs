//! Slot arena backing the event queue.
//!
//! Every scheduled event owns one arena slot holding its ordering
//! metadata (`time`, `seq`), its liveness flag, a generation counter,
//! and an intrusive `next` link the scheduler backends use to chain
//! slots into bucket lists. The event value itself lives in a
//! parallel `Vec` inside [`Simulator`](crate::Simulator) so the arena
//! — and therefore both scheduler backends — stays non-generic.
//!
//! Slots are recycled through a free list; each release bumps the
//! slot's generation, so a stale [`EventId`](crate::EventId) (slot +
//! generation captured at schedule time) can never cancel a later
//! event that happens to reuse the same slot.

use crate::time::SimTime;

/// Sentinel "null" slot index terminating bucket lists.
pub(crate) const NIL: u32 = u32::MAX;

/// Per-event ordering metadata and list linkage.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotMeta {
    /// Absolute firing time.
    pub time: SimTime,
    /// Monotone schedule sequence number — the FIFO tie-break.
    pub seq: u64,
    /// Bumped on every release; half of the `EventId` handle.
    pub gen: u32,
    /// True from `schedule` until the event runs or is cancelled.
    pub live: bool,
    /// Intrusive link for whatever list a backend threads through.
    pub next: u32,
}

/// The slot store shared by [`Simulator`](crate::Simulator) and its
/// scheduler backend. Public only because it appears in the sealed
/// [`SchedQueue`](crate::engine::SchedQueue) method signatures.
#[derive(Debug, Default)]
#[doc(hidden)]
pub struct Arena {
    meta: Vec<SlotMeta>,
    free: Vec<u32>,
}

impl Arena {
    /// Claims a slot for an event firing at `time` with FIFO rank
    /// `seq`. Reuses a released slot when one is available (keeping
    /// its bumped generation), otherwise grows the arena.
    #[inline]
    pub(crate) fn alloc(&mut self, time: SimTime, seq: u64) -> u32 {
        if let Some(slot) = self.free.pop() {
            let m = &mut self.meta[slot as usize];
            m.time = time;
            m.seq = seq;
            m.live = true;
            m.next = NIL;
            return slot;
        }
        let slot = self.meta.len();
        // 2^32-1 simultaneously-pending events would need hundreds of
        // gigabytes of events; treat overflow as a hard logic error.
        assert!(slot < NIL as usize, "event arena exhausted");
        self.meta.push(SlotMeta {
            time,
            seq,
            gen: 0,
            live: true,
            next: NIL,
        });
        slot as u32
    }

    /// Returns a slot to the free list once its event has run or its
    /// cancelled husk has been purged from a bucket. Bumps the
    /// generation so any outstanding handle to the old event goes
    /// stale.
    #[inline]
    pub(crate) fn release(&mut self, slot: u32) {
        let m = &mut self.meta[slot as usize];
        m.live = false;
        m.gen = m.gen.wrapping_add(1);
        m.next = NIL;
        self.free.push(slot);
    }

    /// The slot's current generation (0 for a never-issued slot, so a
    /// forged handle naming one compares unequal to nothing live).
    #[inline]
    pub(crate) fn gen(&self, slot: u32) -> u32 {
        self.meta.get(slot as usize).map_or(0, |m| m.gen)
    }

    /// True if the slot currently holds a scheduled, uncancelled
    /// event.
    #[inline]
    pub(crate) fn is_live(&self, slot: u32) -> bool {
        self.meta[slot as usize].live
    }

    /// Marks a live slot cancelled. The slot stays in whatever bucket
    /// list holds it; backends purge and release it lazily. Returns
    /// false if the slot was not live.
    #[inline]
    pub(crate) fn kill(&mut self, slot: u32) -> bool {
        match self.meta.get_mut(slot as usize) {
            Some(m) if m.live => {
                m.live = false;
                true
            }
            _ => false,
        }
    }

    /// Ordering metadata for a slot the engine issued. Backends and
    /// the engine index directly: every slot they hold came from
    /// [`alloc`](Self::alloc), so an out-of-range index is a logic
    /// error, not an input to tolerate.
    #[inline]
    pub(crate) fn meta(&self, slot: u32) -> &SlotMeta {
        &self.meta[slot as usize]
    }

    /// `(time, seq)` of the earliest live slot, by a scan of the whole
    /// arena: the engine's debug self-check compares it with what the
    /// backend reports due.
    #[cfg(debug_assertions)]
    pub(crate) fn earliest_live(&self) -> Option<(SimTime, u64)> {
        self.meta
            .iter()
            .filter(|m| m.live)
            .map(|m| (m.time, m.seq))
            .min()
    }

    /// Mutable access to a slot's metadata (list linkage).
    #[inline]
    pub(crate) fn meta_mut(&mut self, slot: u32) -> &mut SlotMeta {
        &mut self.meta[slot as usize]
    }
}
