//! End-to-end observability: a traced NMAP run must surface every
//! instrumentation layer (IRQ, NAPI mode, ksoftirqd, P-/C-states,
//! requests) in the Perfetto export, and its metrics snapshot must be
//! populated and deterministic.

use experiments::{perfetto_json, thresholds, GovernorKind, RunConfig, RunResult, Scale};
use simcore::SimDuration;
use workload::{AppKind, LoadLevel, LoadSpec};

fn traced_nmap_run() -> RunResult {
    let app = AppKind::Memcached;
    experiments::run(
        RunConfig {
            warmup: SimDuration::from_millis(50),
            duration: SimDuration::from_millis(200),
            ..RunConfig::new(
                app,
                LoadSpec::preset(app, LoadLevel::High),
                GovernorKind::Nmap(thresholds::nmap_config(app)),
                Scale::Quick,
            )
        }
        .with_seed(7)
        .with_traces(),
    )
}

/// A minimal JSON structural check: balanced braces/brackets outside
/// strings, with string escapes honoured. Not a full parser, but it
/// catches truncated output, bad escaping, and mismatched nesting —
/// the realistic failure modes of a hand-rolled emitter.
fn assert_json_balanced(s: &str) {
    let mut depth: Vec<char> = Vec::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => depth.push('}'),
            '[' => depth.push(']'),
            '}' | ']' => {
                assert_eq!(depth.pop(), Some(c), "mismatched bracket in JSON output");
            }
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string in JSON output");
    assert!(depth.is_empty(), "unclosed brackets in JSON output");
}

#[test]
fn nmap_run_exports_all_track_types() {
    let result = traced_nmap_run();
    let traces = result.traces.as_ref().expect("traces collected");
    assert!(!traces.trace.is_empty(), "trace buffer must carry events");
    assert_eq!(traces.trace.dropped(), 0, "quick run must fit in capacity");

    let json = perfetto_json(&traces.trace);
    assert_json_balanced(&json);
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\""));

    // Every major instrumentation layer must produce a named track.
    for track in [
        "irq",
        "napi-mode",
        "ksoftirqd",
        "pstate",
        "cstate",
        "requests",
        "slo",
        "timeline",
    ] {
        assert!(
            json.contains(&format!("\"args\":{{\"name\":\"{track}\"}}")),
            "missing {track} track in Perfetto export"
        );
    }
    // Tracks must span multiple cores (the quick topology has several).
    assert!(
        json.contains("\"name\":\"core 0\"") && json.contains("\"name\":\"core 1\""),
        "expected per-core process names for at least two cores"
    );
    // Span begins pair with ends somewhere in the stream.
    assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
    assert!(json.contains("\"ph\":\"i\""), "instant events expected");
    // The SLO watchdog publishes its online percentile and the
    // attribution stage shares as counter tracks.
    for counter in ["p99-online", "p50-online", "share-service", "share-ring"] {
        assert!(
            json.contains(&format!("\"name\":\"{counter}\"")),
            "missing {counter} counter in Perfetto export"
        );
    }
}

/// The SLO track of the traced run (online P50/P99, per-core P99,
/// stage shares, violation and recovery instants), pinned as an event
/// count and an FNV-1a digest of its rendering. The testbed reads the
/// windowed percentiles from the watchdog only when it traces, right
/// after the sample that rotated a window; the pin holds those reads
/// to the values the watchdog computed at the rotation itself.
#[test]
fn slo_track_matches_its_pinned_digest() {
    let result = traced_nmap_run();
    let trace = &result.traces.as_ref().expect("traces collected").trace;
    assert_eq!(trace.dropped(), 0);
    let slo: Vec<_> = trace
        .events()
        .iter()
        .filter(|e| e.category == simcore::TraceCategory::Slo)
        .collect();
    for name in ["p99-online", "p50-online", "p99-core"] {
        assert!(
            slo.iter().any(|e| e.name == name && e.arg > 0),
            "no nonzero {name} counter on the SLO track"
        );
    }
    let rendered: String = slo
        .iter()
        .map(|e| {
            format!(
                "{} {:?} {} {} {}\n",
                e.time.as_nanos(),
                e.kind,
                e.core,
                e.name,
                e.arg
            )
        })
        .collect();
    let digest = simcore::hash::fnv1a(rendered.into_bytes());
    assert_eq!((slo.len(), digest), (861, 0xcf16_a829_aaf9_04cf));
}

#[test]
fn metrics_snapshot_is_populated_and_consistent() {
    let result = traced_nmap_run();
    let m = &result.metrics;
    assert!(!m.is_empty(), "obs-on run must produce metrics");
    // Core counters from each instrumented layer.
    for key in [
        "nic.rx_enqueued",
        "napi.mode_transitions",
        "cpu.dvfs_transitions",
        "nmap.ni_notifications",
        "client.sent",
        "client.received",
        "engine.events_executed",
    ] {
        assert!(
            m.counter(key).is_some(),
            "metric {key} missing from snapshot:\n{}",
            m.render()
        );
    }
    // Cross-check against the result's own aggregates.
    assert_eq!(m.counter("client.received"), Some(result.received));
    // Conservation: every packet the NAPI layer saw entered via the NIC.
    let polled = m.counter("nic.rx_polled").unwrap_or(0);
    let enq = m.counter("nic.rx_enqueued").unwrap_or(0);
    assert!(
        polled <= enq,
        "polled {polled} cannot exceed enqueued {enq}"
    );
    // The rendered form is stable: one line per metric, counters in
    // sorted key order with no duplicates.
    let rendered = m.render();
    assert!(
        rendered.lines().count() >= 10,
        "snapshot suspiciously small"
    );
    let keys: Vec<&str> = rendered
        .lines()
        .filter_map(|l| l.strip_prefix("counter "))
        .filter_map(|l| l.split('=').next())
        .collect();
    assert!(!keys.is_empty());
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(keys, sorted, "counters must render sorted and unique");
}

#[test]
fn traced_runs_are_deterministic() {
    let a = traced_nmap_run();
    let b = traced_nmap_run();
    assert_eq!(a, b, "traced runs must be bit-identical across repeats");
    assert_eq!(
        a.metrics.render(),
        b.metrics.render(),
        "metrics render must be byte-identical"
    );
    // The streaming estimators (attribution aggregate and windowed
    // watchdog) are part of RunResult's equality above; assert them
    // separately so a future derive change can't silently drop them.
    assert_eq!(a.attrib, b.attrib, "attribution summary must reproduce");
    assert_eq!(a.watchdog, b.watchdog, "watchdog report must reproduce");
    assert!(a.attrib.requests > 0 && a.watchdog.samples > 0);
    let ja = perfetto_json(&a.traces.as_ref().unwrap().trace);
    let jb = perfetto_json(&b.traces.as_ref().unwrap().trace);
    assert_eq!(ja, jb, "Perfetto export must be byte-identical");
}

#[test]
fn attribution_metrics_cross_check_the_summary() {
    let result = traced_nmap_run();
    let m = &result.metrics;
    // The per-stage histograms aggregate exactly what the summary
    // reports, and the counter mirrors close the loop.
    assert_eq!(m.counter("attrib.requests"), Some(result.attrib.requests));
    assert_eq!(m.counter("attrib.mismatches"), Some(0));
    assert_eq!(m.counter("slo.samples"), Some(result.watchdog.samples));
    assert_eq!(
        m.counter("slo.episodes"),
        Some(u64::from(result.watchdog.episodes))
    );
    for stage in simcore::Stage::ALL {
        let summary = result.attrib.stage(stage).expect("stage present");
        let hist = m
            .histogram(stage.metric_key())
            .unwrap_or_else(|| panic!("missing {} histogram", stage.metric_key()));
        assert_eq!(
            hist.count, result.attrib.requests,
            "{stage:?}: one observation per request"
        );
        assert_eq!(
            hist.sum, summary.sum_ns,
            "{stage:?}: histogram sum must equal attributed nanoseconds"
        );
    }
}

/// The fleet tier's metrics snapshot mirrors its summary exactly:
/// every retry/hedge/duplicate-suppression counter and every health
/// ejection/readmission in `FleetResult` has an identical
/// `fleet.*` counter, so dashboards built on the snapshot can never
/// drift from the conservation roll-up the summary enforces.
#[test]
fn fleet_metrics_snapshot_matches_summary() {
    use cluster::{run_fleet, FleetConfig, HedgePolicy};
    use simcore::{FaultKind, FaultPlan, FaultScope, SimTime};

    let ms = |v: u64| SimTime::ZERO + SimDuration::from_millis(v);
    let cfg = FleetConfig::new(4, AppKind::Memcached, 32_000.0, GovernorKind::Ondemand)
        .with_window(SimDuration::from_millis(30), SimDuration::from_millis(120))
        .with_seed(17)
        // An eager hedge (fires at the online median) so the
        // duplicate-suppression path is exercised even on a calm run.
        .with_hedge(Some(HedgePolicy {
            quantile: 0.5,
            floor: SimDuration::from_nanos(1),
        }))
        // A crash window on server 1 so ejection/readmission and
        // crash-failure counters go live.
        .with_fault_plan(FaultPlan::new().with_seed(9).inject(
            FaultKind::ServerCrash,
            FaultScope::window(ms(50), ms(100)).on_core(1),
        ));
    let r = run_fleet(cfg);
    let c = |key: &str| {
        r.metrics
            .counter(key)
            .unwrap_or_else(|| panic!("metric {key} missing:\n{}", r.metrics.render()))
    };
    assert_eq!(c("fleet.requests.admitted"), r.admitted);
    assert_eq!(c("fleet.requests.completed"), r.completed);
    assert_eq!(c("fleet.requests.timed_out"), r.timed_out);
    assert_eq!(c("fleet.requests.in_flight"), r.in_flight_at_end);
    assert_eq!(c("fleet.attempts.dispatched"), r.dispatched);
    assert_eq!(c("fleet.attempts.completed"), r.attempts_completed);
    assert_eq!(c("fleet.attempts.failed"), r.attempts_failed);
    assert_eq!(c("fleet.attempts.suppressed"), r.suppressed);
    assert_eq!(c("fleet.attempts.in_flight"), r.attempts_in_flight_at_end);
    assert_eq!(c("fleet.retries"), r.retries);
    assert_eq!(c("fleet.hedges"), r.hedges);
    assert_eq!(c("fleet.failovers"), r.failovers);
    assert_eq!(c("fleet.health.ejections"), r.ejections);
    assert_eq!(c("fleet.health.readmissions"), r.readmissions);
    let crashes: u64 = r.servers.iter().map(|s| s.crashes).sum();
    assert_eq!(c("fleet.server_crashes"), crashes);
    // Overload-control counters are always published, even with the
    // controls off — dashboards can rely on the families existing.
    assert_overload_counters_reconcile(&r);
    // The eager hedge must actually race real responses.
    assert!(r.hedges > 0, "median-delay hedging produced no hedges");
    assert!(r.suppressed > 0, "winning duplicates must be suppressed");
    assert!(r.ejections >= 1 && r.readmissions >= 1);
    assert_eq!(crashes, 1);
}

/// Every `fleet.shed.*` / `fleet.breaker.*` / `retry_budget.*`
/// counter in the snapshot equals the matching `FleetResult` field.
fn assert_overload_counters_reconcile(r: &cluster::FleetResult) {
    let c = |key: &str| {
        r.metrics
            .counter(key)
            .unwrap_or_else(|| panic!("metric {key} missing:\n{}", r.metrics.render()))
    };
    assert_eq!(c("fleet.shed.requests"), r.shed);
    assert_eq!(c("fleet.shed.attempts"), r.attempts_shed);
    assert_eq!(c("fleet.breaker.opens"), r.breaker_opens);
    assert_eq!(c("fleet.breaker.closes"), r.breaker_closes);
    assert_eq!(c("fleet.breaker.half_opens"), r.breaker_half_opens);
    assert_eq!(c("fleet.breaker.short_circuits"), r.breaker_short_circuits);
    assert_eq!(c("retry_budget.spent"), r.retry_budget_spent);
    assert_eq!(c("retry_budget.denied"), r.retry_budget_denied);
}

/// With overload control engaged and a crash forcing retries, the
/// shed/breaker/budget counters go live and still reconcile exactly
/// with the run summary — the dashboard view of an overloaded fleet
/// can never drift from the audited one.
#[test]
fn overload_metrics_reconcile_when_control_engages() {
    use cluster::{run_fleet, FleetConfig, RetryPolicy};
    use simcore::{FaultKind, FaultPlan, FaultScope, SimTime};

    let ms = |v: u64| SimTime::ZERO + SimDuration::from_millis(v);
    let cfg = FleetConfig::new(2, AppKind::Memcached, 48_000.0, GovernorKind::Ondemand)
        .with_window(SimDuration::from_millis(30), SimDuration::from_millis(120))
        .with_seed(23)
        .with_overload_control()
        // A tight retry policy so the crash window drains the budget
        // and trips the breaker on the dead server.
        .with_retry(RetryPolicy {
            timeout: SimDuration::from_millis(1),
            max_attempts: 5,
            backoff_base: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_micros(500),
        })
        .with_fault_plan(FaultPlan::new().with_seed(5).inject(
            FaultKind::ServerCrash,
            FaultScope::window(ms(50), ms(110)).on_core(1),
        ));
    let r = run_fleet(cfg);
    assert_overload_counters_reconcile(&r);
    assert!(
        r.breaker_opens > 0,
        "a 60 ms crash window must trip the dead server's breaker"
    );
    assert!(
        r.retry_budget_spent > 0,
        "timeout retries must draw on the budget"
    );
    assert!(r.audit.is_balanced(), "roll-up unbalanced");
}

/// The per-kind executed-event counters (`engine.ev.*`) partition the
/// engine's `events_executed`: every event the testbed schedules is
/// tallied under exactly one kind.
fn assert_event_kinds_sum_to_executed(r: &RunResult, label: &str) {
    let m = &r.metrics;
    let executed = m
        .counter("engine.events_executed")
        .expect("runner exports the engine profile");
    let kinds: Vec<&(String, u64)> = m
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("engine.ev."))
        .collect();
    assert_eq!(kinds.len(), 14, "{label}: one counter per event kind");
    let sum: u64 = kinds.iter().map(|(_, n)| n).sum();
    assert_eq!(
        sum,
        executed,
        "{label}: engine.ev.* sum {sum} != events_executed {executed}\n{}",
        m.render()
    );
}

#[test]
fn event_kinds_sum_to_events_executed_on_a_quick_cell() {
    use appsim::TestbedEvent;
    use simcore::SimTime;
    assert_event_kinds_sum_to_executed(&traced_nmap_run(), "quick nmap cell");
    // Scripted load switches are events too (Fig 16's workload).
    let app = AppKind::Memcached;
    let cfg = RunConfig {
        warmup: SimDuration::from_millis(20),
        duration: SimDuration::from_millis(100),
        ..RunConfig::new(
            app,
            LoadSpec::preset(app, LoadLevel::Medium),
            GovernorKind::Ondemand,
            Scale::Quick,
        )
    }
    .with_seed(3);
    let (r, _) = experiments::runner::run_with_testbed(cfg, |_, sim| {
        for (ms, level) in [(40, LoadLevel::High), (80, LoadLevel::Low)] {
            let spec = LoadSpec::preset(app, level);
            sim.schedule_at(SimTime::from_millis(ms), TestbedEvent::SwitchLoad(spec));
        }
    });
    assert_event_kinds_sum_to_executed(&r, "load-switch cell");
    assert_eq!(r.metrics.counter("engine.ev.switch_load"), Some(2));
}

/// A request's way in costs one event: the arrival that reaches the
/// NIC also stamps the send and credits the ledger, so no event stands
/// for the client→NIC link hop.
#[test]
fn requests_reach_the_nic_in_one_event() {
    let r = traced_nmap_run();
    let m = &r.metrics;
    assert_eq!(
        m.counter("engine.ev.server_rx"),
        None,
        "no link-hop event kind"
    );
    let executed = m.counter("engine.events_executed").unwrap();
    let per_request = executed as f64 / r.sent as f64;
    assert!(
        per_request < 3.8,
        "{executed} events for {} requests ({per_request:.2} per request)",
        r.sent
    );
}

#[test]
fn event_kinds_sum_to_events_executed_on_the_chaos_cells() {
    use experiments::figures::chaos::plans;
    let app = AppKind::Memcached;
    for (label, plan) in plans() {
        let load = LoadSpec::custom(30_000.0, SimDuration::from_millis(100), 0.4, 0.3);
        let cfg = RunConfig::new(
            app,
            load,
            GovernorKind::Nmap(nmap::NmapConfig::new(32, 1.0)),
            Scale::Quick,
        )
        .with_seed(7)
        .with_fault_plan(plan);
        let r = experiments::run(cfg);
        assert_event_kinds_sum_to_executed(&r, label);
    }
}
