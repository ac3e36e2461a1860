//! Energy-attribution overhead benches.
//!
//! `attribution_cell` times the `repro --quick` `energy` artifact's
//! representative cell (NMAP on memcached at high load) end to end,
//! with the meters attributing every power-integral segment:
//!
//! ```text
//! cargo bench -p nmap-bench --bench energy
//! ```
//!
//! The instrumentation used to be a build option; the last A/B of this
//! cell with it compiled out versus in is recorded in `CHANGES.md`
//! under the entry that made it unconditional.
//!
//! The microbenches isolate the two hot paths the attribution adds —
//! the meter's `advance` (every power-integral segment) and the flight
//! recorder's `record` (every governor decision) — so a regression in
//! either is visible without re-deriving it from the cell delta.

use experiments::GovernorKind;
use nmap_bench::criterion::{black_box, Criterion};
use nmap_bench::{bench_cell, nmap_cfg};
use nmap_bench::{criterion_group, criterion_main};
use simcore::{
    BusyRole, CoreEnergyMeter, DecisionTrigger, FlightRecorder, GovDecision, MeterClass,
    SimDuration, SimTime,
};
use workload::{AppKind, LoadLevel};

/// The `energy` artifact's representative cell, end to end.
fn attribution_cell(c: &mut Criterion) {
    let cfg = nmap_cfg(AppKind::Memcached);
    c.bench_function("energy_cell/nmap_memcached_high", |b| {
        b.iter(|| {
            black_box(bench_cell(
                AppKind::Memcached,
                LoadLevel::High,
                GovernorKind::Nmap(cfg),
            ))
        })
    });
}

/// The meter's per-segment cost in isolation: one million accounting
/// segments cycling through the activity classes and both busy roles,
/// with a wake-window split every 16th segment — the same mix a busy
/// polling core produces.
fn meter_advance(c: &mut Criterion) {
    c.bench_function("energy_meter/advance_1m_segments", |b| {
        b.iter(|| {
            let mut m = CoreEnergyMeter::new();
            let mut now = SimTime::ZERO;
            for i in 0u64..1_000_000 {
                now += SimDuration::from_nanos(640 + (i % 7) * 90);
                match i % 4 {
                    0 => {
                        m.set_role(if i % 8 == 0 {
                            BusyRole::Irq
                        } else {
                            BusyRole::App
                        });
                        m.advance(
                            now,
                            28.5,
                            MeterClass::Busy {
                                index: (i % 16) as usize,
                                len: 16,
                            },
                        );
                    }
                    1 => {
                        if i % 16 == 1 {
                            m.note_wake(now + SimDuration::from_nanos(300));
                        }
                        m.advance(now, 8.2, MeterClass::IdleC0);
                    }
                    2 => m.advance(now, 3.5, MeterClass::SleepC1),
                    _ => m.advance(now, 0.12, MeterClass::SleepC6),
                }
            }
            black_box(m.measured_uj())
        })
    });
}

/// The flight recorder's per-decision cost at steady state (ring full,
/// every record evicts).
fn recorder_record(c: &mut Criterion) {
    c.bench_function("flight_recorder/record_100k_decisions", |b| {
        b.iter(|| {
            let mut r = FlightRecorder::with_capacity(4096);
            for i in 0u64..100_000 {
                r.record(GovDecision {
                    at: SimTime::from_nanos(i * 1_000),
                    core: (i % 8) as u32,
                    trigger: DecisionTrigger::ALL[(i % 5) as usize],
                    util_permille: (i % 1000) as u32,
                    polling: i % 3 == 0,
                    queue_depth: (i % 64) as u32,
                    from_pstate: (i % 16) as u32,
                    to_pstate: ((i + 5) % 16) as u32,
                    chip_wide: false,
                });
            }
            black_box(r.total())
        })
    });
}

criterion_group!(
    name = energy;
    config = Criterion::default().sample_size(10);
    targets = attribution_cell, meter_advance, recorder_record
);
criterion_main!(energy);
