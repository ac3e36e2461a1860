//! CSV export of run traces — for plotting the timeline figures with
//! external tools (no plotting dependencies in this workspace).
//!
//! ```no_run
//! use experiments::{run, GovernorKind, RunConfig, Scale};
//! use workload::{AppKind, LoadLevel, LoadSpec};
//!
//! let cfg = RunConfig::new(
//!     AppKind::Memcached,
//!     LoadSpec::preset(AppKind::Memcached, LoadLevel::High),
//!     GovernorKind::Ondemand,
//!     Scale::Quick,
//! )
//! .with_traces();
//! let result = run(cfg);
//! experiments::export::write_traces_csv(&result, "out_dir").unwrap();
//! ```

use crate::json::quote;
use crate::runner::RunResult;
use simcore::{TraceBuffer, TraceCategory, TraceKind};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Renders the per-response latency series as CSV
/// (`recv_time_us,latency_us`).
pub fn responses_csv(result: &RunResult) -> String {
    let mut out = String::from("recv_time_us,latency_us\n");
    if let Some(t) = &result.traces {
        for &(tt, lat) in &t.responses {
            let _ = writeln!(
                out,
                "{:.3},{:.3}",
                tt.as_nanos() as f64 / 1e3,
                lat.as_micros_f64()
            );
        }
    }
    out
}

/// Renders core 0's P-state step trace as CSV (`time_us,pstate`).
pub fn pstates_csv(result: &RunResult) -> String {
    let mut out = String::from("time_us,pstate\n");
    if let Some(t) = &result.traces {
        for &(tt, p) in &t.pstates_core0 {
            let _ = writeln!(out, "{:.3},{p}", tt.as_nanos() as f64 / 1e3);
        }
    }
    out
}

/// Renders core 0's NAPI activity as CSV
/// (`time_us,kind,value` with kind ∈ {intr, poll, ksoftirqd_wake}).
pub fn napi_csv(result: &RunResult) -> String {
    let mut out = String::from("time_us,kind,value\n");
    if let Some(t) = &result.traces {
        for &(tt, n) in &t.intr_batches_core0 {
            let _ = writeln!(out, "{:.3},intr,{n}", tt.as_nanos() as f64 / 1e3);
        }
        for &(tt, n) in &t.poll_batches_core0 {
            let _ = writeln!(out, "{:.3},poll,{n}", tt.as_nanos() as f64 / 1e3);
        }
        for &tt in &t.ksoftirqd_wakes_core0 {
            let _ = writeln!(out, "{:.3},ksoftirqd_wake,1", tt.as_nanos() as f64 / 1e3);
        }
    }
    out
}

/// Writes the three trace CSVs (`responses.csv`, `pstates.csv`,
/// `napi.csv`) into `dir`, creating it if needed.
///
/// # Errors
///
/// Returns any filesystem error; fails with `InvalidInput` if the run
/// was made without [`with_traces`](crate::RunConfig::with_traces).
pub fn write_traces_csv(result: &RunResult, dir: impl AsRef<Path>) -> io::Result<()> {
    if result.traces.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "run was executed without trace collection",
        ));
    }
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("responses.csv"), responses_csv(result))?;
    std::fs::write(dir.join("pstates.csv"), pstates_csv(result))?;
    std::fs::write(dir.join("napi.csv"), napi_csv(result))?;
    Ok(())
}

fn category_index(cat: TraceCategory) -> usize {
    TraceCategory::ALL
        .iter()
        .position(|&c| c == cat)
        .expect("category in ALL")
}

/// Renders a structured trace buffer as Chrome Trace Event JSON,
/// loadable in <https://ui.perfetto.dev> (or `chrome://tracing`).
///
/// Layout: one process per core (`pid = core + 1`, named `core N`) and
/// one thread per trace category within it (`tid = category index +
/// 1`, named after the category label), so every core shows its
/// `irq` / `napi-mode` / `pstate` / … tracks stacked together.
/// Events are emitted in stable time order; the numeric event
/// argument lands in `args.v`.
pub fn perfetto_json(trace: &TraceBuffer) -> String {
    perfetto_json_with_drops(trace, 0)
}

/// [`perfetto_json`] with additional dropped-sample counts folded
/// into `otherData.droppedEvents` — the timeline sampler's
/// decimation drops share the overflow metadata with the trace
/// buffer's own, so one number answers "is this file complete?".
pub fn perfetto_json_with_drops(trace: &TraceBuffer, extra_dropped: u64) -> String {
    let mut events: Vec<&simcore::TraceEvent> = trace.events().iter().collect();
    events.sort_by_key(|e| e.time);
    // Name the (core, category) tracks that actually carry events.
    let mut tracks: Vec<(u32, TraceCategory)> =
        events.iter().map(|e| (e.core, e.category)).collect();
    tracks.sort_by_key(|&(core, cat)| (core, category_index(cat)));
    tracks.dedup();
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };
    let mut named_cores: Vec<u32> = Vec::new();
    for &(core, cat) in &tracks {
        let pid = core + 1;
        if named_cores.last() != Some(&core) {
            named_cores.push(core);
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                     \"args\":{{\"name\":\"core {core}\"}}}}"
                ),
            );
        }
        let tid = category_index(cat) + 1;
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                quote(cat.label())
            ),
        );
    }
    for e in events {
        let pid = e.core + 1;
        let tid = category_index(e.category) + 1;
        let ts = e.time.as_nanos() as f64 / 1e3;
        let name = quote(e.name);
        let cat = quote(e.category.label());
        let line = match e.kind {
            TraceKind::SpanBegin => format!(
                "{{\"ph\":\"B\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts:.3},\
                 \"cat\":{cat},\"name\":{name},\"args\":{{\"v\":{}}}}}",
                e.arg
            ),
            TraceKind::SpanEnd => format!(
                "{{\"ph\":\"E\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts:.3},\
                 \"cat\":{cat},\"name\":{name}}}"
            ),
            TraceKind::Instant => format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts:.3},\
                 \"cat\":{cat},\"name\":{name},\"args\":{{\"v\":{}}}}}",
                e.arg
            ),
            TraceKind::Counter => format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts:.3},\
                 \"name\":{name},\"args\":{{{name}:{}}}}}",
                e.arg
            ),
        };
        push(&mut out, line);
    }
    out.push_str("\n]");
    // A truncated trace must be detectable from the file alone:
    // record the overflow in the trace-wide metadata block.
    let dropped = trace.dropped() + extra_dropped;
    if dropped > 0 {
        let _ = write!(out, ",\"otherData\":{{\"droppedEvents\":{dropped}}}");
    }
    out.push_str("}\n");
    out
}

/// Writes the run's structured trace as Perfetto-loadable JSON at
/// `path`.
///
/// # Errors
///
/// Returns any filesystem error; fails with `InvalidInput` if the run
/// was made without [`with_traces`](crate::RunConfig::with_traces).
pub fn write_perfetto_json(result: &RunResult, path: impl AsRef<Path>) -> io::Result<()> {
    let Some(traces) = &result.traces else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "run was executed without trace collection",
        ));
    };
    if let Some(dir) = path.as_ref().parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(
        path,
        perfetto_json_with_drops(&traces.trace, result.timeline.dropped),
    )
}

/// Writes the run's telemetry timeline as CSV at `path`
/// (`time_ns,core,<gauge columns>`, one row per core per sample).
///
/// # Errors
///
/// Returns any filesystem error; fails with `InvalidInput` if the run
/// recorded no timeline (sampling off or `obs` disabled).
pub fn write_timeline_csv(result: &RunResult, path: impl AsRef<Path>) -> io::Result<()> {
    if result.timeline.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "run recorded no telemetry timeline",
        ));
    }
    if let Some(dir) = path.as_ref().parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, result.timeline.to_csv())
}

/// Writes the run's telemetry timeline as an OpenMetrics text
/// exposition at `path` (one `nmap_core_*` family per gauge,
/// `core="N"` labels, explicit timestamps, `# EOF` terminated) —
/// scrapeable by any Prometheus-compatible tool.
///
/// # Errors
///
/// Returns any filesystem error; fails with `InvalidInput` if the run
/// recorded no timeline (sampling off or `obs` disabled).
pub fn write_timeline_openmetrics(result: &RunResult, path: impl AsRef<Path>) -> io::Result<()> {
    if result.timeline.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "run recorded no telemetry timeline",
        ));
    }
    if let Some(dir) = path.as_ref().parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, result.timeline.to_openmetrics())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, GovernorKind, RunConfig, Scale};
    use simcore::SimDuration;
    use workload::{AppKind, LoadSpec};

    fn traced_result() -> RunResult {
        run(RunConfig {
            warmup: SimDuration::from_millis(50),
            duration: SimDuration::from_millis(150),
            ..RunConfig::new(
                AppKind::Memcached,
                LoadSpec::custom(30_000.0, SimDuration::from_millis(100), 0.4, 0.3),
                GovernorKind::Ondemand,
                Scale::Quick,
            )
        }
        .with_traces())
    }

    #[test]
    fn csv_has_headers_and_rows() {
        let r = traced_result();
        let resp = responses_csv(&r);
        assert!(resp.starts_with("recv_time_us,latency_us\n"));
        assert!(resp.lines().count() > 100, "responses present");
        let napi = napi_csv(&r);
        assert!(napi.contains(",intr,"));
        let ps = pstates_csv(&r);
        assert!(ps.lines().count() >= 2, "at least one P-state change");
        // Every data line has the right arity.
        for line in resp.lines().skip(1).take(50) {
            assert_eq!(line.split(',').count(), 2, "bad row {line}");
        }
    }

    #[test]
    fn write_traces_creates_files() {
        let r = traced_result();
        let dir = std::env::temp_dir().join("nmap_repro_export_test");
        let _ = std::fs::remove_dir_all(&dir);
        write_traces_csv(&r, &dir).unwrap();
        for f in ["responses.csv", "pstates.csv", "napi.csv"] {
            assert!(dir.join(f).exists(), "{f} missing");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn perfetto_json_emits_metadata_and_events() {
        let r = traced_result();
        let json = perfetto_json(&r.traces.as_ref().unwrap().trace);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
        // Write path works and refuses untraced runs symmetrically
        // with the CSV writer.
        let path = std::env::temp_dir().join("nmap_repro_perfetto_test/trace.json");
        let _ = std::fs::remove_file(&path);
        write_perfetto_json(&r, &path).unwrap();
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn perfetto_json_records_dropped_events() {
        use simcore::{SimTime, TraceBuffer, TraceCategory};
        let mut tb = TraceBuffer::with_capacity(1);
        tb.instant(SimTime::from_micros(1), TraceCategory::Irq, 0, "kept", 0);
        tb.instant(SimTime::from_micros(2), TraceCategory::Irq, 0, "lost", 0);
        tb.instant(SimTime::from_micros(3), TraceCategory::Irq, 0, "lost", 0);
        assert_eq!(tb.dropped(), 2);
        let json = perfetto_json(&tb);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"otherData\":{\"droppedEvents\":2}"));
        // A complete trace carries no overflow metadata.
        let mut full = TraceBuffer::with_capacity(8);
        full.instant(SimTime::from_micros(1), TraceCategory::Irq, 0, "kept", 0);
        assert!(!perfetto_json(&full).contains("otherData"));
        // Timeline decimation drops fold into the same counter.
        assert!(perfetto_json_with_drops(&full, 5).contains("\"otherData\":{\"droppedEvents\":5}"));
        assert!(perfetto_json_with_drops(&tb, 3).contains("\"otherData\":{\"droppedEvents\":5}"));
    }

    #[test]
    fn timeline_csv_and_openmetrics_write() {
        let r = traced_result();
        assert!(!r.timeline.is_empty(), "default config records a timeline");
        let dir = std::env::temp_dir().join("nmap_repro_timeline_export_test");
        let _ = std::fs::remove_dir_all(&dir);
        write_timeline_csv(&r, dir.join("timeline.csv")).unwrap();
        write_timeline_openmetrics(&r, dir.join("timeline.om")).unwrap();
        let csv = std::fs::read_to_string(dir.join("timeline.csv")).unwrap();
        assert!(csv.starts_with("time_ns,core,"));
        let om = std::fs::read_to_string(dir.join("timeline.om")).unwrap();
        assert!(om.ends_with("# EOF\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn untraced_run_is_rejected() {
        let r = run(RunConfig {
            warmup: SimDuration::from_millis(10),
            duration: SimDuration::from_millis(20),
            ..RunConfig::new(
                AppKind::Memcached,
                LoadSpec::custom(10_000.0, SimDuration::from_millis(100), 0.4, 0.3),
                GovernorKind::Performance,
                Scale::Quick,
            )
        });
        let err = write_traces_csv(&r, std::env::temp_dir().join("never")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
