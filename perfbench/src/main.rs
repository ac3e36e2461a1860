//! perfbench: the host cost of the NMAP simulator on three reference
//! workloads, end to end and per layer.
//!
//! ```text
//! perfbench setup --workload <w> --seed <n> [--short]
//! perfbench timed --workload <w> --seed <n> --seconds <s> [--short]
//! perfbench footprint --workload <w> --seed <n> [--short]
//! perfbench trace --workload <w> --seed <n> [--short] [--out <dir>]
//! ```
//!
//! * `setup` times process start → first simulated event once, then
//!   the host-speed probe, and exits (NMAP threshold profiling is
//!   memoized per process, so each set-up sample needs a fresh
//!   process).
//! * `timed` runs the workload through the public entry points
//!   (`experiments::try_run`, `cluster::try_run_fleet`) until
//!   `--seconds` of host time have passed, checking every pass, with
//!   the host-speed probe between passes.
//! * `footprint` runs one checked pass and nothing else, so that the
//!   caller can read the simulator's peak resident set.
//! * `trace` alternates untraced and traced passes, the traced ones
//!   with a span around each public call, then runs the workload-shaped
//!   microbenches, and reports per-layer metrics; `--out` receives the
//!   spans as Chrome-trace JSON.
//!
//! Each mode prints one JSON object as its last line. `perfbench/run.py`
//! builds this binary, drives the modes and prints the benchmark's
//! result.

mod micro;
mod probe;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cluster::FleetResult;
use experiments::RunResult;
use simcore::{SimDuration, Stage};
use spans::Tracer;
use workloads::{BoxCounts, Cells, Outcome, Verdict, Workload};

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    short: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it
        .next()
        .ok_or("missing mode (setup, timed, footprint or trace)")?;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 1.0;
    let mut short = false;
    let mut out = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--out" => out = Some(PathBuf::from(value()?)),
            "--short" => short = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Args {
        mode,
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        short,
        out,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.mode.as_str() {
        "setup" => setup(&args, started),
        "timed" => timed(&args),
        "footprint" => footprint(&args),
        "trace" => trace(&args),
        m => Err(format!("unknown mode {m}")),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ----------------------------------------------------------------------
// Modes
// ----------------------------------------------------------------------

fn setup(a: &Args, started: Instant) -> Result<String, String> {
    workloads::set_up(a.workload, a.seed, a.short)?;
    let setup_s = started.elapsed().as_secs_f64();
    // The host-speed probe right after, in the same process, so that
    // run.py can scale this sample by the speed it ran at.
    let probe_s = probe::run();
    Ok(format!("{{\"setup_s\":{setup_s},\"probe_s\":{probe_s}}}"))
}

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../tests/golden")
}

/// Whether this run is the golden sweep at its pinned seed and scale.
fn pins_golden(a: &Args) -> bool {
    a.workload == Workload::Sweep13 && a.seed == Workload::Sweep13.default_seed() && !a.short
}

fn timed(a: &Args) -> Result<String, String> {
    let cells = workloads::cells(a.workload, a.seed, a.short);
    let sim_s = cells.sim_seconds();
    let mut total = Verdict::default();
    let mut problems = Vec::new();
    // sweep13 first replays the golden sweep (untimed, doubling as a
    // warm-up) so every run checks the pinned fixtures, whatever seed
    // it measures.
    if a.workload == Workload::Sweep13 && !a.short {
        let golden_seed = Workload::Sweep13.default_seed();
        let golden = workloads::cells(a.workload, golden_seed, false);
        let out = workloads::run(&golden);
        let v = workloads::check(&golden, &out);
        total.attempted += v.attempted;
        total.failed += v.failed;
        problems.extend(v.problems);
        let drift = workloads::golden_mismatches(&golden, &out, &fixtures_dir());
        total.failed += drift.len() as u64;
        problems.extend(drift);
    }
    let mut reps = Vec::new();
    let mut digest = None;
    let window = Instant::now();
    // Passes run back to back until the next one would overrun
    // `--seconds`; there is always at least one. The probe runs before
    // each pass and once after the last, so every pass sits between
    // two probes.
    let mut probes = vec![probe::run()];
    loop {
        let t = Instant::now();
        let out = workloads::run(&cells);
        let wall = t.elapsed().as_secs_f64();
        let v = workloads::check(&cells, &out);
        total.attempted += v.attempted;
        total.failed += v.failed;
        problems.extend(v.problems);
        // Same seed, same outputs: every pass must digest alike.
        if *digest.get_or_insert(v.digest) != v.digest {
            problems.push(format!(
                "pass {} digest {:016x} differs",
                reps.len(),
                v.digest
            ));
            total.failed += v.attempted;
        }
        reps.push(format!("[{wall},{sim_s}]"));
        probes.push(probe::run());
        let used = window.elapsed().as_secs_f64();
        if used + used / reps.len() as f64 > a.seconds {
            break;
        }
    }
    let probes: Vec<String> = probes.iter().map(f64::to_string).collect();
    Ok(format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"digest\":\"{:016x}\",\"attempted\":{},\"failed\":{},\
         \"problems\":{},\"reps\":[{}],\"probes\":[{}]}}",
        a.workload.name(),
        a.seed,
        digest.unwrap_or(0),
        total.attempted,
        total.failed,
        json_strings(&problems),
        reps.join(","),
        probes.join(","),
    ))
}

/// One checked pass and nothing else: no probe and no golden replay,
/// so the process's peak resident set is the simulator's own.
fn footprint(a: &Args) -> Result<String, String> {
    let cells = workloads::cells(a.workload, a.seed, a.short);
    let v = workloads::check(&cells, &workloads::run(&cells));
    Ok(format!(
        "{{\"digest\":\"{:016x}\",\"attempted\":{},\"failed\":{},\"problems\":{}}}",
        v.digest,
        v.attempted,
        v.failed,
        json_strings(&v.problems),
    ))
}

fn trace(a: &Args) -> Result<String, String> {
    let mut tr = Tracer::new(a.workload.name());
    if a.workload.profiles_nmap() {
        tr.span("experiments.nmap_profile", |_| {
            experiments::thresholds::nmap_config(workload::AppKind::Memcached)
        });
    }
    let cells = workloads::cells(a.workload, a.seed, a.short);

    // Untraced and traced passes alternate (U T T U) so that host
    // drift cancels out of the tracing overhead; only the first traced
    // pass keeps its spans.
    let mut probes = vec![probe::run()];
    let (u1, plain) = wall_ns(|| workloads::run(&cells));
    probes.push(probe::run());
    let (t1, (traced, counts)) = wall_ns(|| {
        tr.span("perfbench.traced_pass", |tr| {
            workloads::run_traced(&cells, tr)
        })
    });
    probes.push(probe::run());
    let (t2, (traced2, _)) =
        wall_ns(|| workloads::run_traced(&cells, &mut Tracer::new(a.workload.name())));
    probes.push(probe::run());
    let (u2, plain2) = wall_ns(|| workloads::run(&cells));
    let overhead_ns = ((t1 + t2) - (u1 + u2)) / 2.0;

    let v = workloads::check(&cells, &traced);
    let mut problems = v.problems.clone();
    let mut failed = v.failed;
    for other in [&plain, &traced2, &plain2] {
        if !workloads::same_results(other, &traced) {
            problems.push("passes of one seed differ (traced vs untraced or run to run)".into());
            failed += 1;
        }
    }
    if pins_golden(a) {
        let drift = workloads::golden_mismatches(&cells, &traced, &fixtures_dir());
        failed += drift.len() as u64;
        problems.extend(drift);
    }

    let mut m = Metrics::default();
    let c = layer_counts(&traced);
    engine_metrics(&mut m, &c, &tr);
    phase_metrics(&mut m, &tr, overhead_ns);
    count_metrics(&mut m, &c, &traced);
    m.put("error_rate", failed as f64 / v.attempted.max(1) as f64);
    m.put("host.probe_ms", micro::median(&mut probes) * 1e3);
    m.put(
        "host.raw_sim_s_per_wall_s",
        2.0 * cells.sim_seconds() / ((u1 + u2) / 1e9),
    );
    let shape = shape_of(&cells, &c, &counts, &traced);
    micro_metrics(&mut m, a.workload, &shape, &c, &counts, &tr);

    if let Some(dir) = &a.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}-{}.json", a.workload.name(), a.seed));
        std::fs::write(&path, tr.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let self_times: Vec<String> = tr
        .self_times()
        .into_iter()
        .map(|(name, ns)| format!("\"{name}\":{}", ns as f64 / 1e6))
        .collect();
    Ok(format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"digest\":\"{:016x}\",\"attempted\":{},\"failed\":{},\
         \"problems\":{},\"self_ms\":{{{}}},\"metrics\":{{{}}}}}",
        a.workload.name(),
        a.seed,
        v.digest,
        v.attempted,
        failed,
        json_strings(&problems),
        self_times.join(","),
        m.0.iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(","),
    ))
}

/// Runs `f`, returning its host wall time in ns and its result.
fn wall_ns<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_nanos() as f64, out)
}

// ----------------------------------------------------------------------
// Per-layer metrics
// ----------------------------------------------------------------------

/// Per-layer metrics in the order they are computed.
#[derive(Default)]
struct Metrics(Vec<(String, f64)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }
}

/// The engine and component counters of a pass, summed over its
/// single-box cells; a fleet exposes none of them.
#[derive(Default)]
struct LayerCounts {
    counters: std::collections::BTreeMap<String, u64>,
    max_pending: u64,
}

impl LayerCounts {
    fn get(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }
}

fn layer_counts(out: &Outcome) -> LayerCounts {
    let mut c = LayerCounts::default();
    if let Outcome::Boxes(results) = out {
        for r in results.iter().flatten() {
            for (k, v) in &r.metrics.counters {
                *c.counters.entry(k.clone()).or_insert(0) += v;
            }
            c.max_pending = c
                .max_pending
                .max(r.metrics.counter("engine.max_pending").unwrap_or(0));
        }
    }
    c
}

/// The 12 event kinds the testbed counts (`engine.ev.<kind>`).
const EV_KINDS: [&str; 12] = [
    "client_recv",
    "client_send",
    "dvfs_done",
    "exec_done",
    "fault_boundary",
    "fault_tick",
    "fault_wake",
    "irq_fire",
    "sample_tick",
    "server_rx",
    "sleep_tick",
    "timeline_tick",
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn engine_metrics(m: &mut Metrics, c: &LayerCounts, tr: &Tracer) {
    let events = c.get("engine.events_executed");
    let loop_ns = tr.total_ns("sim.warmup") + tr.total_ns("sim.measure");
    m.put("simcore.engine.events", events as f64);
    m.put(
        "simcore.engine.cancel_ratio",
        ratio(
            c.get("engine.events_cancelled"),
            c.get("engine.events_scheduled"),
        ),
    );
    m.put("simcore.engine.max_pending", c.max_pending as f64);
    m.put("simcore.engine.ns_per_event", ratio(loop_ns, events));
    for kind in EV_KINDS {
        m.put(
            format!("simcore.engine.ev.{kind}"),
            c.get(&format!("engine.ev.{kind}")) as f64,
        );
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn phase_metrics(m: &mut Metrics, tr: &Tracer, overhead_ns: f64) {
    for (metric, span) in [
        ("experiments.nmap_profile_ms", "experiments.nmap_profile"),
        ("appsim.testbed_new_ms", "appsim.testbed_new"),
        ("sim.warmup_ms", "sim.warmup"),
        ("sim.measure_ms", "sim.measure"),
        ("appsim.extract_ms", "appsim.extract"),
        ("appsim.collect_trace_ms", "appsim.collect_trace"),
        ("appsim.collect_metrics_ms", "appsim.collect_metrics"),
        ("appsim.energy_summary_ms", "appsim.energy_summary"),
        ("appsim.audit_report_ms", "appsim.audit_report"),
        ("simcore.timeline_finish_ms", "simcore.timeline_finish"),
        ("workload.client_quantiles_ms", "workload.client_quantiles"),
        ("appsim.result_assembly_ms", "appsim.result_assembly"),
        ("cluster.try_run_fleet_ms", "cluster.try_run_fleet"),
    ] {
        m.put(metric, ms(tr.total_ns(span)));
    }
    m.put("trace.overhead_ms", overhead_ns / 1e6);
}

fn fleet(out: &Outcome) -> Option<&FleetResult> {
    match out {
        Outcome::Fleet(r) => r.as_ref().as_ref().ok(),
        Outcome::Boxes(_) => None,
    }
}

fn boxes(out: &Outcome) -> Vec<&RunResult> {
    match out {
        Outcome::Boxes(v) => v.iter().flatten().collect(),
        Outcome::Fleet(_) => Vec::new(),
    }
}

fn count_metrics(m: &mut Metrics, c: &LayerCounts, out: &Outcome) {
    let intr = c.get("napi.intr_packets");
    let poll = c.get("napi.poll_packets");
    m.put("netsim.irqs", c.get("nic.irqs_raised") as f64);
    m.put("netsim.rx_dropped", c.get("nic.rx_dropped") as f64);
    m.put("napisim.polling_share", ratio(poll, intr + poll));
    m.put(
        "cpusim.dvfs_transitions",
        c.get("cpu.dvfs_transitions") as f64,
    );
    m.put("cpusim.c6_entries", c.get("cpu.c6_entries") as f64);
    m.put("governors.decisions", c.get("gov.decisions") as f64);
    let f = fleet(out);
    let get = |pick: fn(&FleetResult) -> u64| f.map_or(0, pick) as f64;
    m.put("cluster.dispatched", get(|r| r.dispatched));
    m.put(
        "cluster.useful_ratio",
        f.map_or(0.0, |r| ratio(r.attempts_completed, r.dispatched)),
    );
    m.put("cluster.retries", get(|r| r.retries));
    m.put("cluster.hedges", get(|r| r.hedges));
    m.put("cluster.suppressed", get(|r| r.suppressed));
    let box_faults: u64 = boxes(out).iter().map(|r| r.faults.total()).sum();
    m.put(
        "simcore.fault.injections",
        (f.map_or(0, |r| r.faults.total()) + box_faults) as f64,
    );
}

/// Microbench inputs shaped like this pass. A fleet's servers are not
/// observable from outside, so it borrows single-box defaults for the
/// box layers and its own geometry for steering.
fn shape_of(cells: &Cells, c: &LayerCounts, k: &BoxCounts, out: &Outcome) -> micro::Shape {
    let rx = c.get("napi.intr_packets") + c.get("napi.poll_packets");
    let ticks = c.get("engine.ev.sample_tick");
    let (load, servers, span) = match cells {
        Cells::Boxes(v) => (v[0].1.load, 4, cells.sim_seconds()),
        Cells::Fleet(f) => (
            workload::LoadSpec::custom(f.total_rps / f.servers as f64, f.epoch, 1.0, 0.0),
            f.servers,
            cells.sim_seconds(),
        ),
    };
    let core_ns = span * 1e9 * k.cores as f64;
    micro::Shape {
        rx_batch: ratio(rx, k.polls).round().max(1.0) as usize,
        polls_per_irq: ratio(k.polls, c.get("nic.irqs_raised")).round().max(1.0) as usize,
        polling_share: ratio(c.get("napi.poll_packets"), rx),
        idle_gap: SimDuration::from_nanos(if k.wakes == 0 {
            10_000
        } else {
            (core_ns / k.wakes as f64) as u64
        }),
        c6_share: ratio(k.c6_wakes, k.wakes),
        latency_ns: boxes(out).first().map_or(60_000, |r| r.p50.as_nanos()),
        hook_mix: [
            c.get("client.received"),
            k.polls,
            ticks * k.cores,
            ticks,
            k.ksoftirqd_marks,
            c.get("engine.ev.timeline_tick"),
        ],
        load,
        servers,
    }
}

fn micro_metrics(
    m: &mut Metrics,
    w: Workload,
    shape: &micro::Shape,
    c: &LayerCounts,
    k: &BoxCounts,
    tr: &Tracer,
) {
    let (enqueue_ns, poll_ns) = micro::netsim(shape);
    let record_poll_ns = micro::napisim(shape);
    let (account_ns, wake_ns) = micro::cpusim(shape);
    let next_arrival_ns = micro::next_arrival(shape);
    let observe_ns = micro::observe();
    let watchdog_ns = micro::watchdog_record(shape);
    let steer_ns = micro::steer(shape);
    m.put("netsim.enqueue_rx_ns", enqueue_ns);
    m.put("netsim.poll_ns", poll_ns);
    m.put("napisim.record_poll_ns", record_poll_ns);
    m.put("cpusim.account_ns", account_ns);
    m.put("cpusim.wake_ns", wake_ns);
    let mut hook_ns_running = Vec::new();
    for (slug, kind) in workloads::golden_governors() {
        let ns = micro::governor_hooks(&kind, shape);
        m.put(format!("governors.{slug}.hook_ns"), ns);
        // The governors each workload runs: NMAP alone on the boxes
        // of box_poll and fleet_chaos, all 13 in sweep13.
        if w == Workload::Sweep13 || slug == "nmap" {
            hook_ns_running.push(ns);
        }
    }
    m.put("workload.next_arrival_ns", next_arrival_ns);
    m.put("simcore.obs.observe_ns", observe_ns);
    m.put("simcore.stats.watchdog_record_ns", watchdog_ns);
    m.put("cluster.steer_ns", steer_ns);

    // Estimated layer time: ns/call × this pass's call counts.
    let hook_ns = micro::median(&mut hook_ns_running);
    let hook_calls: u64 = shape.hook_mix.iter().sum();
    let account_calls = 2 * k.wakes + k.pstate_changes + c.get("engine.ev.sample_tick") * k.cores;
    let steer_calls = match w {
        Workload::FleetChaos => {
            m.0.iter()
                .find(|(n, _)| n == "cluster.dispatched")
                .map_or(0.0, |(_, v)| *v)
        }
        _ => 0.0,
    };
    let est = [
        (
            "est.netsim_ms",
            enqueue_ns * c.get("nic.rx_enqueued") as f64 + poll_ns * k.polls as f64,
        ),
        ("est.napisim_ms", record_poll_ns * k.polls as f64),
        (
            "est.cpusim_ms",
            account_ns * account_calls as f64 + wake_ns * k.wakes as f64,
        ),
        ("est.governors_ms", hook_ns * hook_calls as f64),
        (
            "est.workload_ms",
            next_arrival_ns * c.get("client.sent") as f64,
        ),
        (
            "est.simcore_obs_ms",
            observe_ns * (Stage::ALL.len() as u64 * c.get("attrib.requests")) as f64,
        ),
        (
            "est.simcore_stats_ms",
            watchdog_ns * c.get("slo.samples") as f64,
        ),
        ("est.cluster_ms", steer_ns * steer_calls),
    ];
    let mut attributed = 0.0;
    for (name, ns) in est {
        attributed += ns / 1e6;
        m.put(name, ns / 1e6);
    }
    // The event loops the estimates should account for: the boxes'
    // warm-up and measured windows, or the whole fleet call.
    let loop_ms = ms(tr.total_ns("sim.warmup")
        + tr.total_ns("sim.measure")
        + tr.total_ns("cluster.try_run_fleet"));
    m.put("est.unattributed_ms", loop_ms - attributed);
}

// ----------------------------------------------------------------------
// JSON
// ----------------------------------------------------------------------

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_strings(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|s| json_string(s)).collect();
    format!("[{}]", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_quotes_and_control_characters() {
        assert_eq!(
            json_strings(&["a\"b".into(), "c\\d\ne".into()]),
            r#"["a\"b","c\\d\u000ae"]"#
        );
    }
}
