//! Telemetry-timeline overhead benches.
//!
//! The headline question: what does the per-tick gauge sampler cost
//! the simulation? `timeline_cell` times the `timeline` artifact's
//! representative cell (NMAP on memcached at high load) twice in the
//! same binary — sampler off, and sampler on at a deliberately hot
//! 1 µs cadence (100× the default) — so the on/off ratio is one bench
//! run:
//!
//! ```text
//! cargo bench -p nmap-bench --bench timeline
//! ```
//!
//! The microbench isolates the sampler's only hot path — `record_row`
//! with its amortized decimation — so a regression there is visible
//! without re-deriving it from the cell delta.

use experiments::{GovernorKind, RunConfig, Scale};
use nmap_bench::criterion::{black_box, Criterion};
use nmap_bench::nmap_cfg;
use nmap_bench::{criterion_group, criterion_main};
use simcore::{SimDuration, SimTime, TimeSeriesSampler, TimelineConfig, GAUGES};
use workload::{AppKind, LoadLevel, LoadSpec};

fn cell_cfg(timeline: TimelineConfig) -> RunConfig {
    let app = AppKind::Memcached;
    RunConfig {
        warmup: SimDuration::from_millis(20),
        duration: SimDuration::from_millis(50),
        ..RunConfig::new(
            app,
            LoadSpec::preset(app, LoadLevel::High),
            GovernorKind::Nmap(nmap_cfg(app)),
            Scale::Quick,
        )
    }
    .with_timeline(timeline)
}

/// The `timeline` artifact's representative cell, end to end, sampler
/// off vs on at a 1 µs interval. The on/off delta bounds the sampling
/// overhead; the gate treats it as advisory with a 3% ceiling.
fn timeline_cell(c: &mut Criterion) {
    c.bench_function("timeline_cell/sampler_off", |b| {
        b.iter(|| black_box(experiments::run(cell_cfg(TimelineConfig::OFF))))
    });
    c.bench_function("timeline_cell/sampler_1us", |b| {
        b.iter(|| {
            black_box(experiments::run(cell_cfg(TimelineConfig {
                interval: SimDuration::from_micros(1),
                cap: 512,
            })))
        })
    });
}

/// The sampler's per-row cost in isolation: a million rows through an
/// 8-core sampler with a small buffer, so the amortized decimation
/// path (copy_within + truncate, no allocation) is part of the number.
fn sampler_record_row(c: &mut Criterion) {
    c.bench_function("timeline_sampler/record_1m_rows", |b| {
        b.iter(|| {
            let cores = 8usize;
            let mut s = TimeSeriesSampler::new(
                cores,
                TimelineConfig {
                    interval: SimDuration::from_micros(1),
                    cap: 512,
                },
            );
            let mut row = vec![0i64; cores * GAUGES];
            for i in 0u64..1_000_000 {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = (i as i64).wrapping_add(j as i64);
                }
                s.record_row(SimTime::from_nanos(i * 1_000), &row);
            }
            black_box(s.finish())
        })
    });
}

criterion_group!(
    name = timeline;
    config = Criterion::default().sample_size(10);
    targets = timeline_cell, sampler_record_row
);
criterion_main!(timeline);
