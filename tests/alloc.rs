//! The per-request hot path does not allocate.
//!
//! A counting global allocator tallies this thread's heap allocations
//! while an NMAP box at memcached's high preset (cores in polling
//! mode, the regime where per-packet costs dominate) runs its measured
//! window. Scheduling an event, polling the NIC, tracking a request's
//! latency attribution and completing it must all reuse storage grown
//! during warm-up; only amortized growth of run-length storage every
//! run keeps (the latency samples, the C-state log perfbench reads)
//! may allocate, which keeps the count far below one per hundred
//! events. The same box must not retain its raw per-response series,
//! which only traced runs and the fleet read, nor any per-transition
//! entries: its NAPI, P-state, ksoftirqd and IRQ logs count
//! transitions exactly as a traced twin's do and keep no entries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use appsim::{AppModel, Testbed, TestbedConfig};
use experiments::{GovernorKind, RunConfig, Scale};
use netsim::QueueId;
use simcore::{SimTime, Simulator};
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

/// An NMAP box at memcached's high preset, seed 42; `trace_capacity`
/// 0 leaves it untraced.
fn polling_box(trace_capacity: usize) -> (Simulator<Testbed>, Testbed) {
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
        .with_timeline(cfg.timeline)
        .with_trace_capacity(trace_capacity);
    let (governor, sleep) = cluster::build_policies(&cfg.governor, cfg.sleep, &profile, &app);
    let mut sim = Simulator::new();
    let tb = Testbed::try_new(tb_cfg, governor, sleep, &mut sim).expect("valid config");
    (sim, tb)
}

const WARMUP_END: SimTime = SimTime::from_millis(50);
const END: SimTime = SimTime::from_millis(150);

#[test]
fn measured_window_allocates_under_one_percent_of_events() {
    let (mut sim, mut tb) = polling_box(0);
    let (warmup_end, end) = (WARMUP_END, END);
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

/// Per-log `(len, kept entries)` of every run-length transition log
/// that follows the trace switch, labelled for failure messages.
fn transition_logs(tb: &Testbed) -> Vec<(String, usize, usize)> {
    let mut logs = Vec::new();
    for (i, napi) in tb.napi.iter().enumerate() {
        let (m, ip, pp) = (
            napi.mode_log(),
            napi.interrupt_packet_log(),
            napi.polling_packet_log(),
        );
        logs.push((format!("napi[{i}].mode"), m.len(), m.entries().len()));
        logs.push((format!("napi[{i}].intr"), ip.len(), ip.entries().len()));
        logs.push((format!("napi[{i}].poll"), pp.len(), pp.entries().len()));
    }
    for core in tb.processor.cores() {
        let log = core.pstate_log();
        let label = format!("core[{}].pstate", core.id().0);
        logs.push((label, log.len(), log.entries().len()));
    }
    for (i, log) in tb.ksoftirqd_log.iter().enumerate() {
        logs.push((format!("ksoftirqd[{i}]"), log.len(), log.entries().len()));
    }
    for q in 0..tb.nic.num_queues() {
        let log = tb.nic.irq_log(QueueId(q));
        logs.push((format!("irq[{q}]"), log.len(), log.entries().len()));
    }
    logs
}

#[test]
fn untraced_box_counts_transitions_without_keeping_entries() {
    let (mut sim, mut untraced) = polling_box(0);
    let (mut twin_sim, mut traced) = polling_box(1 << 16);
    for (sim, tb) in [(&mut sim, &mut untraced), (&mut twin_sim, &mut traced)] {
        sim.run_until(tb, WARMUP_END);
        tb.begin_measurement(WARMUP_END);
        sim.run_until(tb, END);
        tb.collect_metrics(END);
    }

    let (plain, twin) = (transition_logs(&untraced), transition_logs(&traced));
    assert_eq!(plain.len(), twin.len());
    for ((label, len, kept), (_, twin_len, twin_kept)) in plain.iter().zip(&twin) {
        assert_eq!(*kept, 0, "untraced {label} kept {kept} of {len} entries");
        assert_eq!(
            len, twin_len,
            "{label}: untraced count differs from the traced twin's"
        );
        assert_eq!(twin_kept, twin_len, "traced {label} must keep every entry");
    }
    // The box is busy enough that every family of log saw traffic.
    for family in ["mode", "intr", "poll", "pstate", "ksoftirqd", "irq"] {
        let total: usize = plain
            .iter()
            .filter(|(label, ..)| label.contains(family))
            .map(|&(_, len, _)| len)
            .sum();
        assert!(total > 0, "no {family} transitions counted");
    }

    for key in ["napi.mode_transitions", "ksoftirqd.wakes"] {
        let value = untraced.metrics.counter(key);
        assert!(value > 0, "{key} is 0");
        assert_eq!(
            value,
            traced.metrics.counter(key),
            "{key} differs from the traced twin's"
        );
    }
}
