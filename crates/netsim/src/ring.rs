//! Bounded descriptor rings.
//!
//! Real NICs exchange packets with the driver through fixed-size
//! descriptor rings; when the Rx ring is full, arriving packets are
//! dropped (tail drop). Drop counts feed the experiment reports —
//! sustained polling-mode processing is exactly what keeps the ring
//! from overflowing under bursts.

use std::collections::VecDeque;

/// A bounded FIFO ring.
///
/// # Examples
///
/// ```
/// use netsim::DescRing;
/// let mut ring: DescRing<u32> = DescRing::new(2);
/// assert!(ring.push(1).is_ok());
/// assert!(ring.push(2).is_ok());
/// assert!(ring.push(3).is_err()); // full → tail drop
/// assert_eq!(ring.pop(), Some(1));
/// assert_eq!(ring.dropped(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DescRing<T> {
    items: VecDeque<T>,
    capacity: usize,
    dropped: u64,
    total_enqueued: u64,
}

impl<T> DescRing<T> {
    /// Creates a ring holding at most `capacity` descriptors.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        DescRing {
            items: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
            total_enqueued: 0,
        }
    }

    /// Enqueues an item.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` (giving the item back) if the ring is full;
    /// the drop counter is incremented.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            self.dropped += 1;
            return Err(item);
        }
        self.items.push_back(item);
        self.total_enqueued += 1;
        Ok(())
    }

    /// Enqueues an item under a temporarily tighter effective capacity
    /// (fault injection shrinking the usable ring). Values looser than
    /// the ring's own capacity have no effect; overflow counts as a
    /// normal tail drop.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` if the effective capacity is reached; the
    /// drop counter is incremented.
    pub fn push_clamped(&mut self, item: T, effective: usize) -> Result<(), T> {
        if self.items.len() >= effective.clamp(1, self.capacity) {
            self.dropped += 1;
            return Err(item);
        }
        self.items.push_back(item);
        self.total_enqueued += 1;
        Ok(())
    }

    /// Dequeues the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Dequeues up to `max` items, oldest first. The items leave the
    /// ring even if the iterator is dropped unconsumed.
    pub fn drain_up_to(&mut self, max: usize) -> std::collections::vec_deque::Drain<'_, T> {
        let n = max.min(self.items.len());
        self.items.drain(..n)
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True if at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over queued items, oldest first, without consuming.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Items dropped due to overflow since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Items successfully enqueued since creation.
    pub fn total_enqueued(&self) -> u64 {
        self.total_enqueued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut r = DescRing::new(8);
        for i in 0..5 {
            r.push(i).unwrap();
        }
        assert_eq!(r.drain_up_to(3).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut r = DescRing::new(2);
        r.push('a').unwrap();
        r.push('b').unwrap();
        assert_eq!(r.push('c'), Err('c'));
        assert_eq!(r.push('d'), Err('d'));
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.total_enqueued(), 2);
        assert!(r.is_full());
    }

    #[test]
    fn drain_up_to_handles_short_queue() {
        let mut r: DescRing<u8> = DescRing::new(4);
        r.push(1).unwrap();
        assert_eq!(r.drain_up_to(10).collect::<Vec<_>>(), vec![1]);
        assert_eq!(r.drain_up_to(10).count(), 0);
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = DescRing::<u8>::new(0);
    }

    #[test]
    fn wrap_around_at_capacity_preserves_order_and_counts() {
        // Cycle the ring through many fill/drain rounds so the head
        // wraps the backing buffer repeatedly; FIFO order and the
        // lifetime counters must survive every wrap.
        let mut r = DescRing::new(4);
        let mut next = 0u32;
        let mut expect_pop = 0u32;
        for round in 0..25 {
            while !r.is_full() {
                r.push(next).unwrap();
                next += 1;
            }
            // Overflow while full is a tail drop, never a displacement.
            assert_eq!(r.push(u32::MAX), Err(u32::MAX));
            let drain = 1 + (round % 4);
            for _ in 0..drain {
                assert_eq!(r.pop(), Some(expect_pop));
                expect_pop += 1;
            }
        }
        assert_eq!(r.total_enqueued(), u64::from(next));
        assert_eq!(r.dropped(), 25);
        let queued: Vec<u32> = r.iter().copied().collect();
        let expect: Vec<u32> = (expect_pop..next).collect();
        assert_eq!(queued, expect, "iter sees exactly the in-flight window");
        assert_eq!(r.len(), queued.len());
    }

    #[test]
    fn iter_does_not_consume() {
        let mut r = DescRing::new(3);
        r.push('x').unwrap();
        r.push('y').unwrap();
        assert_eq!(r.iter().count(), 2);
        assert_eq!(r.iter().count(), 2);
        assert_eq!(r.pop(), Some('x'));
    }
}
