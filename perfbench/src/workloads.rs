//! The three reference workloads, the public entry points that run
//! them, and the checks every run's outputs must pass.

use appsim::{AppModel, Testbed, TestbedConfig};
use cluster::{FleetConfig, FleetResult, HedgePolicy, ProbePolicy, RetryPolicy};
use experiments::{GovernorKind, RunConfig, RunResult, Scale};
use nmap::NmapConfig;
use simcore::fault::join_recovery;
use simcore::{FaultScope, MetricsSnapshot, SimDuration, SimError, SimTime, Simulator, StepBudget};
use workload::{AppKind, LoadLevel, LoadSpec};

use crate::spans::Tracer;

const APP: AppKind = AppKind::Memcached;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One NMAP box at memcached's high preset: cores sit in polling
    /// mode, per-packet and per-event costs dominate.
    BoxPoll,
    /// The golden sweep: all 13 governors at 40k rps, cores sit in
    /// interrupt mode, power integration and governor hooks dominate.
    Sweep13,
    /// Four NMAP servers behind the fleet LB under composed chaos.
    FleetChaos,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::BoxPoll, Workload::Sweep13, Workload::FleetChaos];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BoxPoll => "box_poll",
            Workload::Sweep13 => "sweep13",
            Workload::FleetChaos => "fleet_chaos",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The seed the workload is defined with; `sweep13` reproduces the
    /// golden fixtures at this seed.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::BoxPoll => 42,
            Workload::Sweep13 => 7,
            Workload::FleetChaos => 9,
        }
    }

    pub fn profiles_nmap(self) -> bool {
        self != Workload::Sweep13
    }
}

/// The 13 governors of the golden sweep, with their fixture slugs.
pub fn golden_governors() -> Vec<(&'static str, GovernorKind)> {
    vec![
        ("performance", GovernorKind::Performance),
        ("powersave", GovernorKind::Powersave),
        ("userspace7", GovernorKind::Userspace(7)),
        ("ondemand", GovernorKind::Ondemand),
        ("conservative", GovernorKind::Conservative),
        ("schedutil", GovernorKind::Schedutil),
        ("intel_powersave", GovernorKind::IntelPowersave),
        ("nmap_simpl", GovernorKind::NmapSimpl),
        ("nmap", GovernorKind::Nmap(NmapConfig::new(32, 1.0))),
        ("nmap_online", GovernorKind::NmapOnline),
        ("ncap", GovernorKind::Ncap(50_000.0)),
        ("ncap_menu", GovernorKind::NcapMenu(50_000.0)),
        ("parties", GovernorKind::Parties),
    ]
}

/// What one workload hands to the simulator's public entry points.
pub enum Cells {
    /// Single-box cells for `experiments::try_run`, with a label each.
    Boxes(Vec<(&'static str, RunConfig)>),
    /// One fleet for `cluster::try_run_fleet`.
    Fleet(Box<FleetConfig>),
}

impl Cells {
    pub fn len(&self) -> usize {
        match self {
            Cells::Boxes(v) => v.len(),
            Cells::Fleet(_) => 1,
        }
    }

    /// Simulated seconds one pass over the cells covers (warm-up
    /// included; a fleet counts once, not once per server).
    pub fn sim_seconds(&self) -> f64 {
        match self {
            Cells::Boxes(v) => v
                .iter()
                .map(|(_, c)| (c.warmup + c.duration).as_secs_f64())
                .sum(),
            Cells::Fleet(f) => (f.warmup + f.duration).as_secs_f64(),
        }
    }
}

/// Builds a workload's cells from its seed. NMAP workloads profile
/// their thresholds here (`thresholds::nmap_config`, memoized for the
/// rest of the process), which is why set-up is timed separately.
/// `short` shrinks every window for smoke tests.
pub fn cells(w: Workload, seed: u64, short: bool) -> Cells {
    let ms = SimDuration::from_millis;
    match w {
        Workload::BoxPoll => {
            let nmap = experiments::thresholds::nmap_config(APP);
            let (warmup, duration) = if short {
                (ms(50), ms(150))
            } else {
                (ms(200), ms(1000))
            };
            let cfg = RunConfig {
                warmup,
                duration,
                ..RunConfig::new(
                    APP,
                    LoadSpec::preset(APP, LoadLevel::High),
                    GovernorKind::Nmap(nmap),
                    Scale::Quick,
                )
            }
            .with_seed(seed);
            Cells::Boxes(vec![("nmap", cfg)])
        }
        Workload::Sweep13 => {
            let load = LoadSpec::custom(40_000.0, ms(100), 0.4, 0.3);
            Cells::Boxes(
                golden_governors()
                    .into_iter()
                    .map(|(slug, g)| {
                        let mut cfg = RunConfig::new(APP, load, g, Scale::Quick).with_seed(seed);
                        if short {
                            cfg.warmup = ms(50);
                            cfg.duration = ms(100);
                        }
                        (slug, cfg)
                    })
                    .collect(),
            )
        }
        Workload::FleetChaos => {
            let nmap = experiments::thresholds::nmap_config(APP);
            // `repro fleet`'s composed chaos schedule; its windows sit
            // inside [150, 430) ms, so the short window still ends
            // after every fault.
            let (_, chaos) = experiments::figures::fleet::plans()
                .into_iter()
                .find(|(label, _)| *label == "chaos")
                .expect("repro fleet defines a chaos plan");
            let (warmup, duration) = if short {
                (ms(100), ms(400))
            } else {
                (ms(100), ms(900))
            };
            let cfg = FleetConfig::new(4, APP, 400_000.0, GovernorKind::Nmap(nmap))
                .with_window(warmup, duration)
                .with_seed(seed)
                .with_retry(RetryPolicy {
                    timeout: ms(2),
                    max_attempts: 3,
                    backoff_base: SimDuration::from_micros(500),
                    backoff_cap: ms(8),
                })
                .with_hedge(Some(HedgePolicy {
                    quantile: 0.95,
                    floor: SimDuration::from_micros(300),
                }))
                .with_probe(ProbePolicy {
                    interval: ms(5),
                    timeout: ms(1),
                    fail_threshold: 3,
                    ok_threshold: 2,
                })
                .with_fault_plan(chaos);
            Cells::Fleet(Box::new(cfg))
        }
    }
}

/// The set-up a user pays before the first simulated event: the
/// workload's cells (NMAP profiling included), then the first cell's
/// entry point up to its first event. `try_run` and `try_run_fleet`
/// are the budgeted entry points with no budget; a one-event budget
/// makes the same call return right after that event.
pub fn set_up(w: Workload, seed: u64, short: bool) -> Result<(), String> {
    let first_event = StepBudget::unlimited().with_max_events(1);
    let stopped = match cells(w, seed, short) {
        Cells::Boxes(v) => experiments::try_run_budgeted(v[0].1.clone(), &first_event).map(drop),
        Cells::Fleet(f) => cluster::try_run_fleet_budgeted(*f, &first_event).map(drop),
    };
    match stopped {
        Err(e) if e.is_budget() => Ok(()),
        Err(e) => Err(e.to_string()),
        Ok(()) => Err("the run ended before its event budget ran out".into()),
    }
}

/// The outputs of one pass over a workload's cells.
pub enum Outcome {
    Boxes(Vec<Result<RunResult, SimError>>),
    Fleet(Box<Result<FleetResult, SimError>>),
}

/// One untraced pass through the public entry points, one cell after
/// another on this thread.
pub fn run(cells: &Cells) -> Outcome {
    match cells {
        Cells::Boxes(v) => Outcome::Boxes(
            v.iter()
                .map(|(_, cfg)| experiments::try_run(cfg.clone()))
                .collect(),
        ),
        Cells::Fleet(f) => Outcome::Fleet(Box::new(cluster::try_run_fleet((**f).clone()))),
    }
}

/// Counts a traced pass gathers from the testbeds it drives.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoxCounts {
    /// Poll batches that delivered packets, all cores.
    pub polls: u64,
    /// Wakes out of a sleep state, all cores.
    pub wakes: u64,
    /// Wakes out of CC6, all cores.
    pub c6_wakes: u64,
    /// P-state log entries, all cores.
    pub pstate_changes: u64,
    /// ksoftirqd wake and sleep marks, all cores.
    pub ksoftirqd_marks: u64,
    /// Cores per testbed.
    pub cores: u64,
}

impl BoxCounts {
    fn add(&mut self, o: BoxCounts) {
        self.polls += o.polls;
        self.wakes += o.wakes;
        self.c6_wakes += o.c6_wakes;
        self.pstate_changes += o.pstate_changes;
        self.ksoftirqd_marks += o.ksoftirqd_marks;
        self.cores = o.cores;
    }
}

/// A traced pass: each single-box cell is driven through the
/// testbed's public phases (`Testbed::try_new`, `run_until`,
/// `begin_measurement`, extraction) with a span around each, and
/// reassembled into the `RunResult` `experiments::try_run` returns.
/// A fleet is one span around `cluster::try_run_fleet`.
pub fn run_traced(cells: &Cells, tr: &mut Tracer) -> (Outcome, BoxCounts) {
    let mut counts = BoxCounts::default();
    let out = match cells {
        Cells::Boxes(v) => Outcome::Boxes(
            v.iter()
                .map(|(_, cfg)| {
                    tr.span("experiments.cell", |tr| {
                        let (r, c) = replay_cell(cfg, tr)?;
                        counts.add(c);
                        Ok(r)
                    })
                })
                .collect(),
        ),
        Cells::Fleet(f) => Outcome::Fleet(Box::new(tr.span("cluster.try_run_fleet", |_| {
            cluster::try_run_fleet((**f).clone())
        }))),
    };
    (out, counts)
}

/// `experiments::try_run` unrolled through public calls, one span per
/// phase. Must reproduce `try_run`'s result exactly.
fn replay_cell(cfg: &RunConfig, tr: &mut Tracer) -> Result<(RunResult, BoxCounts), SimError> {
    cfg.validate()?;
    let app = AppModel::for_kind(cfg.app);
    let (mut sim, mut tb) = tr.span("appsim.testbed_new", |_| {
        let profile = cfg.profile.profile();
        let mut tb_cfg = TestbedConfig::new(app, cfg.load)
            .with_seed(cfg.seed)
            .with_profile(profile.clone())
            .with_scope(cfg.scope)
            .with_fault_plan(cfg.fault_plan.clone())
            .with_timeline(cfg.timeline);
        if let Some(q) = cfg.nic_queues {
            tb_cfg = tb_cfg.with_nic_queues(q);
        }
        let (governor, sleep) = cluster::build_policies(&cfg.governor, cfg.sleep, &profile, &app);
        let mut sim = Simulator::new();
        Testbed::try_new(tb_cfg, governor, sleep, &mut sim).map(|tb| (sim, tb))
    })?;
    let warmup_end = SimTime::ZERO + cfg.warmup;
    let end = warmup_end + cfg.duration;
    tr.span("sim.warmup", |_| sim.run_until(&mut tb, warmup_end));
    tb.begin_measurement(warmup_end);
    tr.span("sim.measure", |_| sim.run_until(&mut tb, end));
    tr.span("appsim.extract", |tr| {
        let sent = tb.client.sent();
        let received = tb.client.received();
        let (p99, p50, frac_above_slo) = tr.span("workload.client_quantiles", |_| {
            let lat = tb.client.latencies_mut();
            let p99 = lat.p99();
            let p50 = SimDuration::from_nanos(lat.quantile(0.50));
            (p99, p50, lat.fraction_above(app.slo.as_nanos()))
        });
        let energy_j = tb.measured_energy(end);
        let duration = tb.measured_duration(end);
        let avg_power_w = if duration.is_zero() {
            0.0
        } else {
            energy_j / duration.as_secs_f64()
        };
        tr.span("appsim.collect_trace", |_| tb.collect_trace(end));
        tr.span("appsim.collect_metrics", |_| tb.collect_metrics(end));
        let energy = tr.span("appsim.energy_summary", |_| tb.energy_summary(end));
        let gov_flight = tb.flight_summary();
        let engine = sim.profile();
        tb.metrics
            .set_counter("engine.events_scheduled", engine.events_scheduled);
        tb.metrics
            .set_counter("engine.events_executed", engine.events_executed);
        tb.metrics
            .set_counter("engine.events_cancelled", engine.events_cancelled);
        tb.metrics
            .set_counter("engine.max_pending", engine.max_pending as u64);
        let audit = tr.span("appsim.audit_report", |_| tb.audit_report(end));
        if let Some(report) = audit {
            if !report.is_balanced() {
                return Err(SimError::Accounting {
                    context: "conservation audit",
                    reason: format!("{} violated checks", report.violations().len()),
                });
            }
        }
        let scopes: Vec<FaultScope> = cfg.fault_plan.specs.iter().map(|s| s.scope).collect();
        let fault_recovery = join_recovery(&scopes, tb.watchdog.episode_log());
        let timeline = tr.span("simcore.timeline_finish", |_| tb.timeline.finish());
        let counts = box_counts(&tb);
        let result = tr.span("appsim.result_assembly", |_| RunResult {
            governor: tb.governor.name(),
            sleep: tb.sleep.name(),
            sent,
            received,
            p99,
            p50,
            frac_above_slo,
            slo: app.slo,
            energy_j,
            duration,
            avg_power_w,
            rx_dropped: tb.nic.total_rx_dropped(),
            dvfs_transitions: tb.processor.total_transitions(),
            c6_entries: tb.processor.cores().iter().map(|c| c.c6_entries()).sum(),
            metrics: tb.metrics.snapshot(),
            attrib: tb.attrib.summary(),
            energy,
            gov_flight,
            watchdog: tb.watchdog.report(end),
            faults: tb.faults.stats(),
            degradation: tb.governor.degradation(),
            fault_recovery,
            timeline,
            traces: None,
        });
        Ok((result, counts))
    })
}

fn box_counts(tb: &Testbed) -> BoxCounts {
    let mut c = BoxCounts {
        cores: tb.processor.num_cores() as u64,
        ..BoxCounts::default()
    };
    for napi in &tb.napi {
        c.polls += (napi.interrupt_packet_log().len() + napi.polling_packet_log().len()) as u64;
    }
    for core in tb.processor.cores() {
        let log = core.cstate_log().entries();
        let mut prev = cpusim::CState::C0;
        for &(_, s) in log {
            if s == cpusim::CState::C0 && prev != cpusim::CState::C0 {
                c.wakes += 1;
                c.c6_wakes += u64::from(prev == cpusim::CState::C6);
            }
            prev = s;
        }
        c.pstate_changes += core.pstate_log().len() as u64;
    }
    c.ksoftirqd_marks = tb.ksoftirqd_log.iter().map(|l| l.len() as u64).sum();
    c
}

// ----------------------------------------------------------------------
// Output checks
// ----------------------------------------------------------------------

/// The statistics a single-box golden fixture pins, rendered exactly
/// as `tests/golden/quick_<slug>.txt` holds them.
pub fn golden_render(r: &RunResult) -> String {
    format!(
        "governor={}\n\
         sleep={}\n\
         sent={}\n\
         received={}\n\
         p50_ns={}\n\
         p99_ns={}\n\
         frac_above_slo={} bits={:#018x}\n\
         energy_j={} bits={:#018x}\n\
         rx_dropped={}\n\
         dvfs_transitions={}\n\
         c6_entries={}\n",
        r.governor,
        r.sleep,
        r.sent,
        r.received,
        r.p50.as_nanos(),
        r.p99.as_nanos(),
        r.frac_above_slo,
        r.frac_above_slo.to_bits(),
        r.energy_j,
        r.energy_j.to_bits(),
        r.rx_dropped,
        r.dvfs_transitions,
        r.c6_entries,
    )
}

/// Drops the engine's own counters (`engine.*`: events scheduled,
/// executed and cancelled, per kind), which a speed-only change such
/// as coalesced ticks may move without moving any simulated statistic.
/// The digest covers the rest of every `RunResult` and `FleetResult`,
/// rendered with `Debug`, which prints each float in its shortest
/// exact form.
fn without_engine(m: &mut MetricsSnapshot) {
    let simulated = |k: &String| !k.starts_with("engine.");
    m.counters.retain(|(k, _)| simulated(k));
    m.gauges.retain(|(k, _)| simulated(k));
    m.histograms.retain(|(k, _)| simulated(k));
}

/// FNV-1a, 64-bit: a stable digest of the simulated statistics.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The verdict of one pass's output checks.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    /// Cells that returned a `SimError` or failed a check.
    pub failed: u64,
    pub problems: Vec<String>,
    /// Digest of the simulated statistics of the whole pass.
    pub digest: u64,
}

impl Verdict {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }
}

/// Checks one pass: every cell returned, its conservation audit
/// balanced (`try_run` returns `SimError::Accounting` otherwise), its
/// latency attribution matched, and the fleet roll-up closes. Digests
/// the statistics.
pub fn check(cells: &Cells, out: &Outcome) -> Verdict {
    let mut v = Verdict {
        attempted: cells.len() as u64,
        ..Verdict::default()
    };
    let mut rendered = String::new();
    match out {
        Outcome::Boxes(results) => {
            let labels: Vec<&str> = match cells {
                Cells::Boxes(c) => c.iter().map(|(l, _)| *l).collect(),
                Cells::Fleet(_) => Vec::new(),
            };
            for (label, r) in labels.iter().zip(results) {
                match r {
                    Err(e) => v.fail(format!("{label}: {e}")),
                    Ok(r) => {
                        let mismatches = r.metrics.counter("attrib.mismatches").unwrap_or(0);
                        if r.sent == 0 || r.received > r.sent || mismatches != 0 {
                            v.fail(format!(
                                "{label}: sent {} received {} attribution mismatches {mismatches}",
                                r.sent, r.received
                            ));
                        }
                        let mut r = r.clone();
                        without_engine(&mut r.metrics);
                        rendered.push_str(&format!("{label} {r:?}\n"));
                    }
                }
            }
        }
        Outcome::Fleet(r) => match &**r {
            Err(e) => v.fail(format!("fleet: {e}")),
            Ok(r) => {
                let requests = r.completed + r.timed_out + r.in_flight_at_end;
                let attempts = r.attempts_completed
                    + r.attempts_failed
                    + r.suppressed
                    + r.attempts_in_flight_at_end;
                if !r.audit.is_balanced() || r.admitted != requests || r.dispatched != attempts {
                    v.fail(format!(
                        "fleet roll-up: admitted {} vs closed+open {requests}, dispatched {} vs \
                         resolved+open {attempts}, audit balanced {}",
                        r.admitted,
                        r.dispatched,
                        r.audit.is_balanced()
                    ));
                }
                let mut r = r.clone();
                without_engine(&mut r.metrics);
                rendered.push_str(&format!("fleet {r:?}\n"));
            }
        },
    }
    v.digest = fnv1a(rendered.as_bytes());
    v
}

/// Compares a `sweep13` pass at its default seed with the pinned
/// golden fixtures, read from the repository at run time.
pub fn golden_mismatches(cells: &Cells, out: &Outcome, fixtures: &std::path::Path) -> Vec<String> {
    let (Cells::Boxes(c), Outcome::Boxes(results)) = (cells, out) else {
        return vec!["golden comparison needs single-box cells".into()];
    };
    let mut bad = Vec::new();
    for ((slug, _), r) in c.iter().zip(results) {
        let path = fixtures.join(format!("quick_{slug}.txt"));
        match (std::fs::read_to_string(&path), r) {
            (Err(e), _) => bad.push(format!("{}: {e}", path.display())),
            (_, Err(e)) => bad.push(format!("{slug}: {e}")),
            (Ok(want), Ok(r)) if want != golden_render(r) => {
                bad.push(format!("{slug}: drift against {}", path.display()))
            }
            _ => {}
        }
    }
    bad
}

/// True if two passes produced identical results (every field,
/// metrics snapshots and timelines included).
pub fn same_results(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (Outcome::Boxes(x), Outcome::Boxes(y)) => x == y,
        (Outcome::Fleet(x), Outcome::Fleet(y)) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn sweep_cells_cover_thirteen_simulated_seconds() {
        let c = cells(Workload::Sweep13, 7, false);
        assert_eq!(c.len(), 13);
        assert!((c.sim_seconds() - 13.0).abs() < 1e-9);
    }
}
