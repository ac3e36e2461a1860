//! Property suite for the latency attribution profiler: across every
//! governor and three load points, the per-stage decomposition must be
//! *exact* — stage sums equal the measured end-to-end latency for
//! every single request (no residuals, no double counting), and the
//! streaming watchdog must see every sample the client measured.

use experiments::{run_many, GovernorKind, RunConfig, RunResult, Scale};
use nmap::NmapConfig;
use simcore::{SimDuration, Stage};
use workload::{AppKind, LoadSpec};

fn every_governor() -> Vec<GovernorKind> {
    vec![
        GovernorKind::Performance,
        GovernorKind::Powersave,
        GovernorKind::Userspace(7),
        GovernorKind::Ondemand,
        GovernorKind::Conservative,
        GovernorKind::Schedutil,
        GovernorKind::IntelPowersave,
        GovernorKind::NmapSimpl,
        GovernorKind::Nmap(NmapConfig::new(32, 1.0)),
        GovernorKind::NmapOnline,
        GovernorKind::Ncap(50_000.0),
        GovernorKind::NcapMenu(50_000.0),
        GovernorKind::Parties,
    ]
}

/// Three operating points: comfortably idle, busy, and saturating
/// (the last overflows into ksoftirqd handoffs and preemption, the
/// paths where attribution is hardest to keep exact).
fn loads() -> Vec<LoadSpec> {
    vec![
        LoadSpec::custom(20_000.0, SimDuration::from_millis(100), 0.4, 0.3),
        LoadSpec::custom(150_000.0, SimDuration::from_millis(100), 0.4, 0.3),
        LoadSpec::custom(450_000.0, SimDuration::from_millis(100), 0.4, 0.3),
    ]
}

fn sweep() -> Vec<(GovernorKind, RunResult)> {
    let mut cells = Vec::new();
    let mut configs = Vec::new();
    for gov in every_governor() {
        for load in loads() {
            cells.push(gov);
            configs.push(RunConfig {
                warmup: SimDuration::from_millis(50),
                duration: SimDuration::from_millis(250),
                ..RunConfig::new(AppKind::Memcached, load, gov, Scale::Quick)
            });
        }
    }
    cells.into_iter().zip(run_many(configs)).collect()
}

#[test]
fn stage_sums_equal_e2e_for_every_governor_and_load() {
    for (gov, r) in sweep() {
        let a = &r.attrib;
        assert!(a.requests > 0, "{gov:?}: no requests attributed");
        assert_eq!(
            a.requests, r.received,
            "{gov:?}: every measured response must be attributed"
        );
        assert_eq!(
            a.mismatches, 0,
            "{gov:?}: some request's stage sum missed its e2e latency"
        );
        assert_eq!(
            a.attributed_total_ns, a.e2e_total_ns,
            "{gov:?}: aggregate attribution drifted from measured latency"
        );
        // The shares therefore partition 1 exactly.
        let total: f64 = Stage::ALL.iter().map(|&s| a.share(s)).sum();
        assert!((total - 1.0).abs() < 1e-9, "{gov:?}: shares sum to {total}");
        // Ideal service time is priced at the fastest P-state, so it
        // can never be absent while requests completed.
        let service = a.stage(Stage::AppService).expect("service stage");
        assert!(service.sum_ns > 0, "{gov:?}: no service time attributed");
        // The watchdog ingests the same stream the client measures.
        assert_eq!(
            r.watchdog.samples, r.received,
            "{gov:?}: watchdog missed samples"
        );
    }
}

#[test]
fn slow_governors_accumulate_stall_where_fast_ones_do_not() {
    let app = AppKind::Memcached;
    let load = LoadSpec::custom(150_000.0, SimDuration::from_millis(100), 0.4, 0.3);
    let mk = |gov| RunConfig {
        warmup: SimDuration::from_millis(50),
        duration: SimDuration::from_millis(250),
        ..RunConfig::new(app, load, gov, Scale::Quick)
    };
    let results = run_many(vec![
        mk(GovernorKind::Performance),
        mk(GovernorKind::Powersave),
    ]);
    // Performance pins P0, so its stall share is only the integer
    // rounding residue of chunked execution (well under 1%);
    // powersave pins the slowest P-state, so a large share of its
    // service time is stall.
    let share = |r: &RunResult| r.attrib.share(Stage::PstateStall);
    assert!(
        share(&results[0]) < 0.01,
        "performance at P0 should have (near-)zero stall share, got {}",
        share(&results[0])
    );
    assert!(
        share(&results[1]) > share(&results[0]) * 10.0,
        "powersave stall share ({}) should dwarf performance's ({})",
        share(&results[1]),
        share(&results[0])
    );
}

/// Drives a tracker through one random pipeline script and, side by
/// side, a `BTreeMap` model: one isolated single-request tracker per
/// id. The tracker's hashed in-flight store must agree with the model
/// on `pending()` after every call and on every completed breakdown,
/// and its exported stage histograms must render exactly as the old
/// per-response `MetricsRegistry::observe` of each stage did.
fn differential_case(rng: &mut simcore::RngStream) {
    use simcore::{AttribTracker, ChainMarks, MetricsRegistry, SimTime};
    use std::collections::BTreeMap;

    let mut tracker = AttribTracker::new();
    let mut model: BTreeMap<u64, AttribTracker> = BTreeMap::new();
    let mut old_path = MetricsRegistry::new();
    // Ids shaped like real ones (sequential) and like bad cases for a
    // weak hash (strided in low or high bits, random).
    let id_shape = rng.below(4);
    let mut next_id = 0u64;
    let mut fresh_id = |rng: &mut simcore::RngStream| {
        next_id += 1;
        match id_shape {
            0 => next_id,
            1 => next_id << 10,
            2 => next_id << 32,
            _ => rng.next_u64(),
        }
    };
    let mut live: Vec<u64> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut completions = 0u64;
    let steps = rng.below(400);
    for _ in 0..steps {
        now += SimDuration::from_nanos(rng.below(5_000));
        let op = rng.below(8);
        if op == 0 || live.is_empty() {
            // Claim: a fresh request, or (rarely) a re-claim that
            // replaces a live entry in both stores.
            let id = if live.is_empty() || rng.below(10) > 0 {
                let id = fresh_id(rng);
                live.push(id);
                id
            } else {
                live[rng.below(live.len() as u64) as usize]
            };
            let back = |rng: &mut simcore::RngStream| {
                (rng.below(3) > 0)
                    .then(|| SimTime::from_nanos(now.as_nanos().saturating_sub(rng.below(20_000))))
            };
            let marks = ChainMarks {
                irq_at: back(rng),
                wake_end: back(rng),
                hardirq_end: back(rng),
                ksoftirqd_queued: back(rng),
                ksoftirqd_running: back(rng),
            };
            let enqueued = SimTime::from_nanos(now.as_nanos().saturating_sub(rng.below(30_000)));
            let sent = SimTime::from_nanos(enqueued.as_nanos().saturating_sub(rng.below(10_000)));
            tracker.claimed(id, sent, enqueued, now, &marks);
            model
                .entry(id)
                .or_default()
                .claimed(id, sent, enqueued, now, &marks);
        } else {
            let k = rng.below(live.len() as u64) as usize;
            // Now and then poke an id neither store knows.
            let id = if rng.below(20) == 0 {
                fresh_id(rng)
            } else {
                live[k]
            };
            let debt = SimDuration::from_nanos(rng.below(3_000));
            let ideal = SimDuration::from_nanos(rng.below(20_000));
            let core = rng.below(8) as u32;
            let apply = |t: &mut AttribTracker| match op {
                1 => t.delivered(id, now),
                2 => t.app_start(id, core, now, debt, ideal),
                3 => t.app_pause(id, now),
                4 => t.app_resume(id, now),
                _ => t.app_finish(id, now),
            };
            match op {
                1..=5 => {
                    apply(&mut tracker);
                    if let Some(t) = model.get_mut(&id) {
                        apply(t);
                    }
                }
                6 => {
                    let got = tracker.completed(id, now);
                    let want = model.remove(&id).and_then(|mut t| t.completed(id, now));
                    assert_eq!(got, want, "breakdown of request {id}");
                    if let Some(done) = got {
                        completions += 1;
                        for (stage, ns) in done.breakdown.iter() {
                            old_path.observe(stage.metric_key(), ns);
                        }
                    }
                    live.retain(|&l| l != id);
                }
                _ => {
                    // Abandon: the request is shed or lost; its entry
                    // stays pending in both stores forever.
                    live.swap_remove(k);
                }
            }
        }
        assert_eq!(
            tracker.pending(),
            model.len() as u64,
            "pending after a call"
        );
    }
    assert_eq!(tracker.requests(), completions);
    let mut exported = MetricsRegistry::new();
    tracker.record_metrics(&mut exported);
    let (got, want) = (exported.snapshot(), old_path.snapshot());
    assert_eq!(got.render(), want.render());
    assert_eq!(got, want, "log2 buckets must match too");
    if completions == 0 {
        assert!(
            got.histograms.is_empty(),
            "no histograms before a completion"
        );
    }
}

#[test]
fn hashed_pending_store_matches_an_ordered_model() {
    simcore::check::forall("attrib store vs btree model", 256, differential_case);
}

#[test]
fn stage_histograms_export_nothing_until_a_request_completes() {
    use simcore::{AttribTracker, ChainMarks, MetricsRegistry, SimTime};
    let mut tracker = AttribTracker::new();
    let mut m = MetricsRegistry::new();
    tracker.record_metrics(&mut m);
    assert!(m.snapshot().is_empty());
    // Claimed but never completed: still nothing.
    tracker.claimed(
        1,
        SimTime::ZERO,
        SimTime::from_nanos(10),
        SimTime::from_nanos(20),
        &ChainMarks::default(),
    );
    tracker.record_metrics(&mut m);
    assert!(m.snapshot().is_empty());
    // One completion exports all stages, zero-valued ones included,
    // and a second export replaces rather than doubles.
    tracker.completed(1, SimTime::from_nanos(50));
    tracker.record_metrics(&mut m);
    tracker.record_metrics(&mut m);
    let snap = m.snapshot();
    assert_eq!(snap.histograms.len(), Stage::ALL.len());
    for stage in Stage::ALL {
        assert_eq!(snap.histogram(stage.metric_key()).map(|h| h.count), Some(1));
    }
}
