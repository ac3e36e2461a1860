//! A fixed host-speed probe.
//!
//! Simulator wall time on a shared host drifts by a fifth or more over
//! minutes, with CPU time equal to wall time: the host itself runs
//! faster or slower. The probe is a miniature discrete-event loop that
//! shares no code with the simulator and allocates nothing while timed:
//! a binary-heap agenda, random reads from a 64 MiB table, branchy
//! integer and float work, and binary searches over string keys.
//! Timed next to each simulator pass, it tracks that drift, and
//! `run.py` scales the end-to-end metrics to a reference probe time.
//!
//! The table is larger than the last-level cache on purpose: the
//! simulator's heap is tens of MiB, so it waits on memory and slows
//! with memory contention from other tenants. With an 8 MiB table the
//! probe stayed in cache and slowed less than the simulator did.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

const STEPS: u64 = 1_200_000;
const AGENDA: u32 = 600;
const TABLE_BITS: u32 = 24;

/// Runs the probe once; returns its host wall time in seconds. The
/// table is built before the clock starts. It adds 64 MiB to the peak
/// resident set of the process it runs in, which is why the peak is
/// read from a process that never runs the probe (`footprint`).
pub fn run() -> f64 {
    let mut x: u64 = 12_345;
    let table: Vec<u32> = (0..1usize << TABLE_BITS)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (x >> 40) as u32
        })
        .collect();
    let keys: Vec<String> = (0..11).map(|i| format!("stage.{i:02}.ns")).collect();
    let mut heap: BinaryHeap<(Reverse<u64>, u32)> = BinaryHeap::with_capacity(2 * AGENDA as usize);
    heap.extend((0..AGENDA).map(|i| (Reverse(u64::from(i)), i)));
    let mask = table.len() - 1;
    let mut sums = [0u64; 11];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut idx = 0u32;
    let mut acc = 0u64;
    let t = Instant::now();
    for step in 0..STEPS {
        let Some((Reverse(now), kind)) = heap.pop() else {
            break;
        };
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        idx = table[(idx as usize ^ (x >> 40) as usize) & mask];
        acc = match kind % 4 {
            0 => acc.wrapping_add(u64::from(idx)),
            1 => acc ^ (now << 3),
            2 => acc.rotate_left(7).wrapping_mul(31),
            _ => (acc as f64 * 1.000_001 + f64::from(idx)).to_bits(),
        };
        if step % 4 == 0 {
            let key = &keys[(x >> 60) as usize % keys.len()];
            if let Ok(k) = keys.binary_search(key) {
                sums[k] += now;
            }
        }
        heap.push((Reverse(now + 100 + (x >> 52)), kind.wrapping_add(idx)));
    }
    let elapsed = t.elapsed().as_secs_f64();
    black_box((&sums, acc, heap.len()));
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_time() {
        assert!(run() > 0.0);
    }
}
