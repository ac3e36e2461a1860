//! Receive Side Scaling: flow → queue distribution.
//!
//! The paper's testbed uses the 82599's RSS to spread packets across
//! the eight cores, observing that "RSS evenly distributes packets in
//! our experimental setup, thus each core handles almost the same
//! amount of network loads" (§6.1). We hash the flow id with a
//! splitmix-style mixer and take it modulo the queue count, which
//! distributes uniformly for any reasonable flow population.

use crate::nic::QueueId;
use crate::packet::FlowId;

/// Deterministic flow-to-queue hasher.
///
/// # Examples
///
/// ```
/// use netsim::{RssHasher, FlowId};
/// let rss = RssHasher::new(8);
/// let q = rss.queue_for(FlowId(1234));
/// assert!(q.0 < 8);
/// assert_eq!(q, rss.queue_for(FlowId(1234))); // stable per flow
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RssHasher {
    queues: usize,
}

impl RssHasher {
    /// Creates a hasher over `queues` Rx queues.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero.
    pub fn new(queues: usize) -> Self {
        assert!(queues > 0, "need at least one queue");
        RssHasher { queues }
    }

    /// Number of queues.
    pub fn queues(&self) -> usize {
        self.queues
    }

    /// The queue all packets of `flow` land on.
    #[inline]
    pub fn queue_for(&self, flow: FlowId) -> QueueId {
        QueueId((mix64(flow.0) % self.queues as u64) as usize)
    }
}

/// splitmix64 finalizer — a cheap, well-distributed 64-bit mixer.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_mapping() {
        let rss = RssHasher::new(8);
        for f in 0..100 {
            assert_eq!(rss.queue_for(FlowId(f)), rss.queue_for(FlowId(f)));
        }
    }

    #[test]
    fn roughly_uniform_distribution() {
        let rss = RssHasher::new(8);
        let mut counts = [0u32; 8];
        let flows = 80_000;
        for f in 0..flows {
            counts[rss.queue_for(FlowId(f)).0] += 1;
        }
        let expect = flows as f64 / 8.0;
        for (q, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(
                dev < 0.05,
                "queue {q} holds {c} flows ({dev:.3} off uniform)"
            );
        }
    }

    #[test]
    fn single_queue_gets_everything() {
        let rss = RssHasher::new(1);
        for f in 0..50 {
            assert_eq!(rss.queue_for(FlowId(f)), QueueId(0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one queue")]
    fn zero_queues_rejected() {
        let _ = RssHasher::new(0);
    }

    #[test]
    fn structured_key_patterns_do_not_skew() {
        // Real flow-id populations are rarely dense integers: ephemeral
        // ports stride by small constants, and ids often share a queue
        // count as a factor. A weak hash (e.g. identity + modulo) would
        // alias such patterns onto a subset of queues; the mixer must
        // keep every pattern near uniform.
        fn check_pattern(name: &str, gen: fn(u64) -> u64) {
            let rss = RssHasher::new(8);
            let mut counts = [0u32; 8];
            let flows = 8_000;
            for i in 0..flows {
                counts[rss.queue_for(FlowId(gen(i))).0] += 1;
            }
            let expect = flows as f64 / 8.0;
            for (q, &c) in counts.iter().enumerate() {
                let dev = (c as f64 - expect).abs() / expect;
                assert!(
                    dev < 0.10,
                    "pattern '{name}': queue {q} holds {c} ({dev:.3} off)"
                );
            }
        }
        check_pattern("multiples of queue count", |i| i * 8);
        check_pattern("stride 4096", |i| 1_000_000 + i * 4096);
        check_pattern("high-bit flows", |i| (1 << 60) | i);
    }

    #[test]
    fn non_power_of_two_queue_counts_stay_uniform() {
        // Modulo by a non-power-of-two adds its own bias term; with a
        // 64-bit mixed key the bias is ~queues/2^64 — unobservable.
        for queues in [3usize, 5, 7] {
            let rss = RssHasher::new(queues);
            let mut counts = vec![0u32; queues];
            let flows = 21_000;
            for f in 0..flows {
                counts[rss.queue_for(FlowId(f)).0] += 1;
            }
            let expect = flows as f64 / queues as f64;
            for (q, &c) in counts.iter().enumerate() {
                let dev = (c as f64 - expect).abs() / expect;
                assert!(
                    dev < 0.05,
                    "{queues} queues: queue {q} holds {c} ({dev:.3} off)"
                );
            }
        }
    }
}
