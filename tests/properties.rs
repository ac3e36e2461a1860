//! Property-based tests on the core data structures and state
//! machines: statistics consistency, DVFS protocol safety, NAPI
//! counter conservation, ring/RSS behaviour, arrival monotonicity,
//! and whole-run determinism.
//!
//! Inputs are drawn through `simcore::check::forall`, the local
//! deterministic property harness: every case derives its own RNG
//! stream from `(label, case index)`, so failures name a single
//! reproducible case.

use cpusim::dvfs::{CompletionResult, CoreDvfs, TransitionOutcome};
use cpusim::{PState, ProcessorProfile};
use experiments::{GovernorKind, RunConfig, Scale};
use napisim::{NapiContext, PollVerdict, ProcContext, StackParams};
use netsim::{DescRing, FlowId, RssHasher};
use simcore::check::forall;
use simcore::{Cdf, Histogram, RngStream, RunningStats, SimDuration, SimTime};
use workload::{AppKind, ArrivalProcess, BurstyArrivals, LoadSpec};

/// `lo + below(hi - lo)` — a uniform draw in `[lo, hi)`.
fn range(rng: &mut RngStream, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// The log-bucketed histogram's quantiles stay within its relative
/// error bound of the exact CDF's.
#[test]
fn histogram_tracks_exact_cdf() {
    forall("histogram vs cdf", 64, |rng| {
        let n = range(rng, 1, 500);
        let samples: Vec<u64> = (0..n).map(|_| range(rng, 1, 10_000_000_000)).collect();
        let mut h = Histogram::new();
        let mut c = Cdf::new();
        for &s in &samples {
            h.record(s);
            c.record(s);
        }
        for q in [0.5, 0.9, 0.99, 1.0] {
            let exact = c.quantile(q);
            let approx = h.value_at_quantile(q);
            let err = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.04, "q={q}: approx {approx} vs exact {exact}");
        }
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(h.max(), *samples.iter().max().unwrap());
        assert_eq!(h.min(), *samples.iter().min().unwrap());
    });
}

/// Welford merging is order-independent and matches the direct sum.
#[test]
fn running_stats_merge_consistency() {
    forall("running stats merge", 64, |rng| {
        let draw = |rng: &mut RngStream| {
            let n = range(rng, 1, 100);
            (0..n)
                .map(|_| rng.uniform() * 2e6 - 1e6)
                .collect::<Vec<f64>>()
        };
        let a = draw(rng);
        let b = draw(rng);
        let sa: RunningStats = a.iter().copied().collect();
        let sb: RunningStats = b.iter().copied().collect();
        let mut merged = sa;
        merged.merge(&sb);
        let direct: RunningStats = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(merged.count(), direct.count());
        assert!((merged.mean() - direct.mean()).abs() < 1e-6);
        assert!((merged.population_variance() - direct.population_variance()).abs() < 1e-3);
    });
}

/// The DVFS state machine never loses a transition: after any request
/// sequence, driving completions settles at the last requested state.
#[test]
fn dvfs_always_settles_at_last_request() {
    // `complete` must fire exactly at the `completes_at` the machine
    // returned (the testbed schedules it as an event), so the driver
    // fires every completion due before the next request on time.
    fn fire_due(
        dvfs: &mut CoreDvfs,
        pending: &mut Option<(SimTime, u64)>,
        upto: Option<SimTime>,
        profile: &ProcessorProfile,
        rng: &mut RngStream,
    ) {
        let mut guard = 0;
        while let Some((at, token)) = *pending {
            if upto.is_some_and(|t| at > t) {
                break;
            }
            *pending = match dvfs.complete(token, at, profile, rng) {
                CompletionResult::FollowUp {
                    completes_at,
                    token,
                    ..
                } => Some((completes_at, token)),
                CompletionResult::Settled { .. } | CompletionResult::Stale => None,
            };
            guard += 1;
            assert!(guard < 100, "completion chain does not terminate");
        }
    }
    forall("dvfs settles", 128, |rng| {
        let profile = ProcessorProfile::xeon_gold_6134();
        let step = range(rng, 1, 41);
        let n_targets = range(rng, 1, 40);
        let targets: Vec<u8> = (0..n_targets).map(|_| rng.below(16) as u8).collect();
        let mut dvfs = CoreDvfs::new(profile.pstates.slowest());
        let mut now = SimTime::ZERO;
        let mut pending: Option<(SimTime, u64)> = None;
        let mut last = dvfs.current();
        for &t in &targets {
            fire_due(&mut dvfs, &mut pending, Some(now), &profile, rng);
            let target = PState::new(t);
            last = target;
            match dvfs.request(target, now, &profile, rng) {
                TransitionOutcome::Started {
                    completes_at,
                    token,
                } => {
                    pending = Some((completes_at, token));
                }
                TransitionOutcome::Queued | TransitionOutcome::AlreadyThere => {}
            }
            now += SimDuration::from_micros(step);
        }
        // Drain whatever is still in flight, each at its exact time.
        fire_due(&mut dvfs, &mut pending, None, &profile, rng);
        assert_eq!(dvfs.current(), last);
        assert!(!dvfs.is_transitioning());
    });
}

/// NAPI per-mode counters exactly cover every Rx packet fed in.
#[test]
fn napi_counters_conserve_packets() {
    forall("napi conservation", 128, |rng| {
        let n_batches = range(rng, 1, 60);
        let batches: Vec<(usize, bool)> = (0..n_batches)
            .map(|_| (rng.below(100) as usize, rng.next_u64() & 1 == 1))
            .collect();
        let mut napi = NapiContext::new(StackParams::linux_defaults());
        let mut t = SimTime::ZERO;
        let mut fed = 0u64;
        let mut active = false;
        let mut kso = false;
        for (rx, drain_hint) in batches {
            if !active {
                napi.on_irq(t);
                active = true;
                kso = false;
            }
            t += SimDuration::from_micros(10);
            let ctx = if kso {
                ProcContext::Ksoftirqd
            } else {
                ProcContext::SoftIrq
            };
            let out = napi.record_poll(rx, 0, drain_hint, false, ctx, t);
            fed += rx as u64;
            match out.verdict {
                PollVerdict::Complete => active = false,
                PollVerdict::Handoff => {
                    napi.ksoftirqd_takeover();
                    kso = true;
                }
                PollVerdict::Continue => {}
            }
        }
        assert_eq!(
            napi.total_interrupt_packets() + napi.total_polling_packets(),
            fed
        );
    });
}

/// Rings never lose accepted items and report drops exactly.
#[test]
fn ring_conservation() {
    forall("ring conservation", 128, |rng| {
        let capacity = range(rng, 1, 64) as usize;
        let pushes = range(rng, 1, 200) as usize;
        let mut ring = DescRing::new(capacity);
        let mut accepted = 0u64;
        for i in 0..pushes {
            if ring.push(i).is_ok() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, ring.total_enqueued());
        assert_eq!(ring.dropped() + accepted, pushes as u64);
        let mut popped = 0u64;
        while ring.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, accepted.min(capacity as u64));
    });
}

/// RSS is total and stable for any queue count and flow.
#[test]
fn rss_total_and_stable() {
    forall("rss total", 256, |rng| {
        let queues = range(rng, 1, 64) as usize;
        let flow = rng.next_u64();
        let rss = RssHasher::new(queues);
        let q = rss.queue_for(FlowId(flow));
        assert!(q.0 < queues);
        assert_eq!(q, rss.queue_for(FlowId(flow)));
    });
}

/// Bursty arrivals strictly advance and stay inside burst windows.
#[test]
fn arrivals_advance_within_bursts() {
    forall("arrivals in bursts", 128, |rng| {
        let avg = 1_000.0 + rng.uniform() * 199_000.0;
        let duty = 0.05 + rng.uniform() * 0.95;
        let period = SimDuration::from_millis(100);
        let mut arr = BurstyArrivals::from_average(avg, period, duty, 0.3);
        let mut t = SimTime::ZERO;
        for _ in 0..200 {
            let next = arr.next_after(t, rng).unwrap();
            assert!(next > t, "arrivals must strictly advance");
            let pos = next.as_nanos() % period.as_nanos();
            assert!(
                pos < arr.burst_len().as_nanos().max(1),
                "arrival outside burst window"
            );
            t = next;
        }
    });
}

/// Core utilization samples are always within [0, 1] and busy never
/// exceeds CC0 residency.
#[test]
fn utilization_sample_bounds() {
    forall("utilization bounds", 128, |rng| {
        let profile = ProcessorProfile::xeon_gold_6134();
        let mut core = cpusim::Core::new(cpusim::CoreId(0), &profile);
        let mut t = SimTime::ZERO;
        let periods = range(rng, 1, 20);
        for _ in 0..periods {
            let busy_us = rng.below(500);
            let idle_us = rng.below(500);
            core.set_busy(true, t, &profile);
            t += SimDuration::from_micros(busy_us);
            core.set_busy(false, t, &profile);
            t += SimDuration::from_micros(idle_us);
        }
        let sample = core.take_sample(t + SimDuration::from_micros(1), &profile);
        assert!((0.0..=1.0).contains(&sample.busy_frac));
        assert!((0.0..=1.0).contains(&sample.c0_frac));
        assert!(sample.busy_frac <= sample.c0_frac + 1e-9);
    });
}

/// Whole-run determinism over arbitrary (seed, governor, load)
/// triples: the same config run twice yields identical results, and
/// `run_many`'s parallel execution matches serial `run` exactly.
#[test]
fn runs_are_deterministic_for_arbitrary_configs() {
    forall("run determinism", 3, |rng| {
        let governor = match rng.below(5) {
            0 => GovernorKind::Performance,
            1 => GovernorKind::Ondemand,
            2 => GovernorKind::Schedutil,
            3 => GovernorKind::NmapSimpl,
            _ => GovernorKind::Userspace(rng.below(16) as u8),
        };
        let rps = 10_000.0 + rng.uniform() * 90_000.0;
        let load = LoadSpec::custom(rps, SimDuration::from_millis(100), 0.4, 0.3);
        let seed = rng.next_u64();
        let cfg = RunConfig {
            warmup: SimDuration::from_millis(50),
            duration: SimDuration::from_millis(150),
            ..RunConfig::new(AppKind::Memcached, load, governor, Scale::Quick)
        }
        .with_seed(seed)
        .with_traces();
        let first = experiments::run(cfg.clone());
        let second = experiments::run(cfg.clone());
        assert_eq!(first, second, "same seed must reproduce bit-identically");
        // The structured metrics snapshot is part of RunResult, but
        // assert it explicitly (rendered form = byte identity) so a
        // nondeterministic metric fails with a readable diff.
        assert_eq!(
            first.metrics.render(),
            second.metrics.render(),
            "metrics snapshots must be byte-identical between same-seed runs"
        );
        let many = experiments::run_many(vec![cfg.clone(), cfg]);
        assert_eq!(many[0], first, "parallel run_many must match serial run");
        assert_eq!(many[1], first);
        assert_eq!(many[0].metrics.render(), first.metrics.render());
    });
}

/// Fault-enabled determinism over arbitrary composed schedules: a
/// randomly drawn fault plan (kinds, windows, probabilities, its own
/// seed) reproduces bit-identically on re-run, and `run_many` matches
/// serial `run` — the plan and its seed travel with the config into
/// worker threads.
#[test]
fn fault_runs_are_deterministic_for_arbitrary_plans() {
    use simcore::{FaultKind, FaultPlan, FaultScope};
    forall("fault run determinism", 3, |rng| {
        let ms = |v: u64| SimTime::ZERO + SimDuration::from_millis(v);
        // Windows inside the 50 ms warm-up + 150 ms measured run.
        let window = |rng: &mut RngStream| {
            let start = range(rng, 30, 120);
            FaultScope::window(ms(start), ms(start + range(rng, 10, 60)))
        };
        let kinds = [
            FaultKind::WireDrop { prob: 0.1 },
            FaultKind::IrqLoss { prob: 0.2 },
            FaultKind::SpuriousIrq {
                period: SimDuration::from_micros(250),
            },
            FaultKind::MissedKsoftirqdWake {
                delay: SimDuration::from_micros(100),
                prob: 0.5,
            },
            FaultKind::NapiSignalLoss { prob: 0.5 },
            FaultKind::DvfsLatencySpike {
                extra: SimDuration::from_micros(200),
            },
            FaultKind::ThermalThrottle { floor: 5 },
            FaultKind::LoadSpike { factor: 1.4 },
            FaultKind::IncastBurst { requests: 50 },
            // Cluster-scope kinds are inert on a single box (only the
            // fleet tier queries them) but must still validate and
            // travel deterministically with the plan.
            FaultKind::ServerCrash,
            FaultKind::HealthViewStale,
            FaultKind::LinkLatencySpike {
                extra: SimDuration::from_micros(300),
            },
            FaultKind::LinkPartition,
            FaultKind::HashSkew { factor: 2.0 },
        ];
        let mut plan = FaultPlan::new().with_seed(rng.next_u64());
        for _ in 0..range(rng, 2, 5) {
            let kind = kinds[rng.below(kinds.len() as u64) as usize];
            plan = plan.inject(kind, window(rng));
        }
        let governor = if rng.next_u64() & 1 == 0 {
            GovernorKind::Ondemand
        } else {
            GovernorKind::NmapSimpl
        };
        let load = LoadSpec::custom(30_000.0, SimDuration::from_millis(100), 0.4, 0.3);
        let cfg = RunConfig {
            warmup: SimDuration::from_millis(50),
            duration: SimDuration::from_millis(150),
            ..RunConfig::new(AppKind::Memcached, load, governor, Scale::Quick)
        }
        .with_seed(rng.next_u64())
        .with_fault_plan(plan);
        let first = experiments::run(cfg.clone());
        let second = experiments::run(cfg.clone());
        assert_eq!(
            first, second,
            "same seed + same plan must reproduce bit-identically"
        );
        assert_eq!(first.faults, second.faults, "fault draws must be seeded");
        let many = experiments::run_many(vec![cfg.clone(), cfg]);
        assert_eq!(many[0], first, "run_many must propagate the fault plan");
        assert_eq!(many[1], first);
    });
}

/// Fuzzed cluster-scope fault plans: arbitrary compositions of
/// server crashes, stale health views, link latency spikes, hard
/// partitions, hash skew, load spikes, and admission-gate bypasses —
/// over random fleet sizes, loads, seeds, and overload-control
/// settings — never panic, never wedge (budgeted), and never violate
/// the fleet's exact cross-server conservation roll-up (a violation
/// inside the run surfaces as a typed `Accounting` error, which this
/// test treats as failure). With overload control drawn in, the
/// request partition gains its shed term and the shed attempts stay
/// an audited sub-account of the failed ones.
#[test]
fn fleet_fault_plans_never_violate_conservation() {
    use cluster::FleetConfig;
    use simcore::{FaultKind, FaultPlan, FaultScope};
    forall("fleet fault plans", 3, |rng| {
        let servers = 2 + rng.below(3) as usize;
        let ms = |v: u64| SimTime::ZERO + SimDuration::from_millis(v);
        // Windows inside the 20 ms warm-up + 100 ms measured run,
        // ending by 120 ms so ejected servers can be readmitted.
        let window = |rng: &mut RngStream| {
            let start = range(rng, 25, 80);
            FaultScope::window(ms(start), ms(start + range(rng, 10, 40)))
        };
        let kinds = [
            FaultKind::ServerCrash,
            FaultKind::HealthViewStale,
            FaultKind::LinkLatencySpike {
                extra: SimDuration::from_micros(range(rng, 50, 3_000)),
            },
            FaultKind::LinkPartition,
            FaultKind::HashSkew {
                factor: 1.0 + rng.uniform() * 4.0,
            },
            // Overload kinds: a demand surge and a window where the
            // admission gate is forced open (shedding suppressed).
            FaultKind::LoadSpike {
                factor: 1.2 + rng.uniform() * 1.5,
            },
            FaultKind::AdmissionDisable,
        ];
        let mut plan = FaultPlan::new().with_seed(rng.next_u64());
        for _ in 0..range(rng, 2, 6) {
            let kind = kinds[rng.below(kinds.len() as u64) as usize];
            let mut scope = window(rng);
            if rng.next_u64() & 1 == 0 {
                scope = scope.on_core(rng.below(servers as u64) as usize);
            }
            plan = plan.inject(kind, scope);
        }
        let rps = 6_000.0 + rng.uniform() * 30_000.0;
        let mut cfg = FleetConfig::new(servers, AppKind::Memcached, rps, GovernorKind::Ondemand)
            .with_window(SimDuration::from_millis(20), SimDuration::from_millis(100))
            .with_seed(rng.next_u64())
            .with_fault_plan(plan);
        // Half the draws run with the full overload-control stack so
        // shedding, budgets, breakers, and brownout are fuzzed under
        // the same composed chaos schedules.
        if rng.next_u64() & 1 == 0 {
            cfg = cfg.with_overload_control();
        }
        cfg.validate().expect("drawn fleet configs are valid");
        let budget = simcore::StepBudget::unlimited().with_max_events(20_000_000);
        match cluster::try_run_fleet_budgeted(cfg, &budget) {
            Ok(r) => {
                assert_eq!(
                    r.admitted,
                    r.completed + r.shed + r.timed_out + r.in_flight_at_end,
                    "request partition leaks under a fuzzed cluster plan"
                );
                assert_eq!(
                    r.dispatched,
                    r.attempts_completed
                        + r.attempts_failed
                        + r.suppressed
                        + r.attempts_in_flight_at_end,
                    "attempt partition leaks under a fuzzed cluster plan"
                );
                assert!(
                    r.attempts_shed <= r.attempts_failed,
                    "shed attempts must stay a sub-account of failed ones"
                );
                assert!(r.audit.is_balanced(), "roll-up unbalanced");
            }
            Err(e) => assert!(e.is_budget(), "only budget errors allowed: {e}"),
        }
    });
}

/// Fuzzed, deliberately degenerate configurations never panic:
/// every draw either fails `RunConfig::validate()` with a typed
/// config error (whose rendering is non-empty) or is genuinely
/// valid — and a sample of the valid ones runs to completion.
///
/// 10 000 cases cover zero/NaN/infinite rates, zero and overflowing
/// windows, inverted governor thresholds, zero-queue and
/// more-queues-than-cores RSS layouts, and hostile NMAP tunables.
#[test]
fn degenerate_configs_never_panic() {
    use nmap::NmapConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // A hostile f64: mostly garbage, occasionally plausible. The
    // unit-interval branch is what lets a draw survive validation
    // (duty and ramp_frac both need a fraction), so some cases reach
    // the run-to-completion arm below.
    fn weird_f64(rng: &mut RngStream) -> f64 {
        match rng.below(9) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => -1.0,
            5 => 1e-300,
            6 => 1e300,
            7 => rng.uniform(),
            _ => rng.uniform() * 100_000.0,
        }
    }
    fn weird_dur(rng: &mut RngStream) -> SimDuration {
        match rng.below(6) {
            0 => SimDuration::ZERO,
            1 => SimDuration::MAX,
            2 => SimDuration::from_nanos(1),
            _ => SimDuration::from_micros(range(rng, 1, 1_000_000)),
        }
    }

    let mut ran = 0u32;
    forall("degenerate configs", 10_000, |rng| {
        let load = LoadSpec::custom(
            weird_f64(rng),
            weird_dur(rng),
            weird_f64(rng),
            weird_f64(rng),
        );
        let governor = match rng.below(6) {
            0 => GovernorKind::Performance,
            1 => GovernorKind::Ncap(weird_f64(rng)),
            2 => GovernorKind::NcapMenu(weird_f64(rng)),
            3 => {
                // Mutate a valid base: `NmapConfig::new` asserts on a
                // bad CU_TH, but struct mutation must stay panic-free
                // all the way to `validate()`.
                let mut c = NmapConfig::new(64, 1.5);
                c.ni_threshold = rng.next_u64() % 1_000;
                c.cu_threshold = weird_f64(rng);
                c.timer_interval = weird_dur(rng);
                GovernorKind::Nmap(c)
            }
            4 => GovernorKind::Ondemand,
            _ => GovernorKind::NmapSimpl,
        };
        let mut cfg = RunConfig::new(AppKind::Memcached, load, governor, Scale::Quick);
        cfg.warmup = weird_dur(rng);
        cfg.duration = weird_dur(rng);
        if rng.below(3) == 0 {
            // 0 and 9..16 queues are invalid on the 8-core testbed.
            cfg.nic_queues = Some(rng.below(17) as usize);
        }
        cfg = cfg.with_seed(rng.next_u64());

        let verdict = catch_unwind(AssertUnwindSafe(|| cfg.validate()));
        match verdict {
            Err(_) => panic!("validate() itself must never panic: {cfg:?}"),
            Ok(Err(e)) => {
                assert!(e.is_config(), "validation failures are config errors: {e}");
                assert!(!e.to_string().is_empty(), "errors must render a reason");
            }
            Ok(Ok(())) => {
                // A sample of the valid survivors must actually run —
                // with the windows shrunk so the whole fuzz pass stays
                // fast — and produce a well-formed result.
                if ran < 4 && !cfg.warmup.is_zero() && cfg.duration < SimDuration::from_secs(1) {
                    ran += 1;
                    cfg.warmup = SimDuration::from_millis(2);
                    cfg.duration = SimDuration::from_millis(10);
                    // Budgeted, so even a load validation missed stays
                    // a typed error rather than a hung test.
                    let budget = simcore::StepBudget::unlimited().with_max_events(5_000_000);
                    match experiments::try_run_budgeted(cfg.clone(), &budget) {
                        Ok(r) => {
                            assert!(r.received <= r.sent, "can't receive more than sent");
                        }
                        Err(e) => assert!(
                            e.is_budget(),
                            "a validated config may only fail on budget: {e}"
                        ),
                    }
                }
            }
        }
    });
}
