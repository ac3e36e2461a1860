//! The sweep fan-out: run independent jobs on scoped worker threads
//! and return their results in input order.
//!
//! Each job is a whole simulation (a testbed cell, a fleet), so the
//! queue is a plain mutex-guarded iterator: contention is one lock
//! per job, negligible against the job itself. Results depend only on
//! each job's input, never on which worker ran it or when.
//!
//! # Examples
//!
//! ```
//! let squares = simcore::par::map_ordered(vec![1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::panic::resume_unwind;
use std::sync::{Mutex, PoisonError};

/// Maps `f` over `items` and returns the results in input order.
///
/// Zero or one item runs on the calling thread. More run on
/// `available_parallelism()` scoped workers (4 when unknown), capped
/// at the item count; each worker pulls the next item as it finishes
/// one, so uneven jobs balance. A panic in any job propagates to the
/// caller with its original payload, once every worker has stopped.
pub fn map_ordered<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let workers = std::thread::available_parallelism()
        .map_or(4, |v| v.get())
        .min(n);
    let jobs = Mutex::new(items.into_iter().enumerate());
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        // A panicking job poisons nothing it holds: the
                        // lock is released before `f` runs.
                        let job = jobs.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, item)) = job else { break out };
                        out.push((i, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A job whose cost varies widely with its input.
    fn uneven(x: u64) -> u64 {
        let spins = (x * 7_919) % 50_000;
        (0..spins).fold(x, |h, i| h.rotate_left(5) ^ i.wrapping_mul(0x9e37_79b9))
    }

    #[test]
    fn uneven_jobs_match_the_serial_map_in_order() {
        let items: Vec<u64> = (0..64).collect();
        let serial: Vec<u64> = items.iter().copied().map(uneven).collect();
        assert_eq!(map_ordered(items, uneven), serial);
    }

    #[test]
    fn zero_and_one_item_run_inline() {
        assert_eq!(map_ordered(Vec::<u64>::new(), uneven), Vec::<u64>::new());
        let caller = std::thread::current().id();
        let ran_on = map_ordered(vec![()], |()| std::thread::current().id());
        assert_eq!(ran_on, vec![caller]);
    }

    #[test]
    fn a_panicking_job_propagates_its_payload() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map_ordered((0..16u64).collect(), |x| {
                if x == 11 {
                    std::panic::panic_any("job 11 failed");
                }
                x
            })
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 11 failed"));
    }
}
