//! The per-request hot path does not allocate.
//!
//! A counting global allocator tallies this thread's heap allocations
//! while an NMAP box at memcached's high preset (cores in polling
//! mode, the regime where per-packet costs dominate) runs its measured
//! window. Scheduling an event, polling the NIC, tracking a request's
//! latency attribution and completing it must all reuse storage grown
//! during warm-up; only amortized growth of run-length logs may
//! allocate, which keeps the count far below one per hundred events.
//! The same box must not retain its raw per-response series, which
//! only traced runs and the fleet read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use appsim::{AppModel, Testbed, TestbedConfig};
use experiments::{GovernorKind, RunConfig, Scale};
use simcore::{SimDuration, SimTime, Simulator};
use workload::{AppKind, LoadLevel, LoadSpec};

struct Counting;

thread_local! {
    /// Allocations made by this thread (each test runs on its own).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; counting
// touches only a const-initialized thread-local `Cell`, which neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn measured_window_allocates_under_one_percent_of_events() {
    let app_kind = AppKind::Memcached;
    let cfg = RunConfig::new(
        app_kind,
        LoadSpec::preset(app_kind, LoadLevel::High),
        GovernorKind::Nmap(nmap::NmapConfig::new(32, 1.0)),
        Scale::Quick,
    )
    .with_seed(42);
    let app = AppModel::for_kind(app_kind);
    let profile = cfg.profile.profile();
    let tb_cfg = TestbedConfig::new(app, cfg.load)
        .with_seed(cfg.seed)
        .with_profile(profile.clone())
        .with_timeline(cfg.timeline);
    let (governor, sleep) = cluster::build_policies(&cfg.governor, cfg.sleep, &profile, &app);
    let mut sim = Simulator::new();
    let mut tb = Testbed::try_new(tb_cfg, governor, sleep, &mut sim).expect("valid config");

    let warmup_end = SimTime::ZERO + SimDuration::from_millis(50);
    let end = warmup_end + SimDuration::from_millis(100);
    sim.run_until(&mut tb, warmup_end);
    tb.begin_measurement(warmup_end);
    let (allocs_before, events_before) = (allocs(), sim.events_executed());
    sim.run_until(&mut tb, end);
    let allocations = allocs() - allocs_before;
    let events = sim.events_executed() - events_before;

    assert!(
        tb.client.received() > 10_000,
        "the cell must be busy: {} responses",
        tb.client.received()
    );
    assert!(
        allocations * 100 <= events,
        "{allocations} heap allocations over {events} events in the measured window \
         (allowed: 1 per 100 events)"
    );
    // Nothing reads an untraced run's raw response series, so the
    // client keeps none: memory stays flat in the run's length.
    assert!(
        tb.client.response_log().is_empty(),
        "an untraced run retained {} responses",
        tb.client.response_log().len()
    );
}
