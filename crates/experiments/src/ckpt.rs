//! The sweep supervisor's outcome table, optionally backed by a
//! crash-safe checkpoint file.
//!
//! A [`Checkpoint`] maps each concluded cell, keyed by a content hash
//! of its [`RunConfig`], to its result or its quarantine record.
//! [`Checkpoint::default`] keeps the table in memory only;
//! [`Checkpoint::open`] loads an append-only `checkpoint.jsonl` and
//! streams every later outcome to it, so a re-invoked sweep skips
//! concluded cells and reproduces a byte-identical merged artifact.
//!
//! # File format
//!
//! One JSON object per line (JSONL):
//!
//! * `{"kind":"header","version":8}` — first line of a fresh file;
//! * `{"kind":"cell","key":<u64>,"result":{...}}` — one completed
//!   cell, floats as IEEE-754 bit patterns for exact round-trips;
//! * `{"kind":"quarantine","record":{"key":<u64>,"governor":...,
//!   "error":...}}` — a cell whose run failed.
//!
//! Every encoded type has one schema, written once: its field names
//! are the JSON keys, and the same field list drives both encoding
//! and decoding.
//!
//! A header gates the lines after it: cell and quarantine lines count
//! only under a header of the current [`CHECKPOINT_VERSION`]. Lines
//! after a stale header are skipped, so an older file re-runs its
//! cells, and opening a file whose last header is stale appends a
//! fresh one.
//!
//! Loading tolerates torn tails and corrupt lines: anything that is
//! not UTF-8 or fails to parse or decode is skipped (and counted),
//! because a crash mid-append must not invalidate the finished
//! prefix. Results of cells that collect traces are never stored —
//! traces are too large to keep and re-run deterministically anyway.

use crate::json::{self, Value};
use crate::runner::{RunConfig, RunResult};
use governors::DegradationStats;
use simcore::{
    AttribSummary, CoreEnergySummary, DecisionTrigger, EnergyBreakdown, EnergyComponent,
    EnergySummary, FaultStats, FlightSummary, GovDecision, HistogramSnapshot, MetricsSnapshot,
    ModeEnergy, RecoverySummary, SimDuration, SimTime, Stage, StageSummary, Timeline,
    WatchdogReport,
};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Current checkpoint format version. Version 2 added the energy
/// attribution and flight-recorder summaries to each cell; version 3
/// added the telemetry timeline (per-core gauge samples); version 4
/// widened the timeline stride with the saturation gauge and added
/// admission-bypass fault stats; version 5 made every struct field's
/// name its JSON key (one schema per type) and stored cell keys as
/// integers; version 6 dropped the quarantine record's attempt count
/// (a cell runs once); version 7 marks results simulated with the
/// request's link hop folded into its arrival event, which moved
/// same-nanosecond event ties; version 8 marks results whose
/// `energy.mode_*_uj` metrics counters run to the end of the run.
/// Older files simply re-run their cells.
///
/// Cell keys hash only the config, so a change that moves simulated
/// outputs bumps the version too: otherwise a checkpoint written by
/// the older code would serve its results beside fresh ones in one
/// artifact.
pub const CHECKPOINT_VERSION: u64 = 8;

/// Stable content key for a sweep cell: FNV-1a 64 over the config's
/// `Debug` rendering. Any field change — seed, load, governor,
/// thresholds, fault plan — changes the key, so a stale checkpoint
/// can never satisfy an edited sweep.
pub fn cell_key(cfg: &RunConfig) -> u64 {
    simcore::hash::fnv1a(format!("{cfg:?}").into_bytes())
}

/// Whether the file at `path` is empty or ends with a newline — i.e.
/// whether appending a fresh record is safe without a separator.
fn ends_with_newline(path: &Path) -> std::io::Result<bool> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(true),
        Err(e) => return Err(e),
    };
    let len = f.metadata()?.len();
    if len == 0 {
        return Ok(true);
    }
    f.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    f.read_exact(&mut last)?;
    Ok(last[0] == b'\n')
}

/// A cell whose run failed with an error or a panic.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// The cell's content key.
    pub key: u64,
    /// The governor label, for the artifact's quarantine section.
    pub governor: String,
    /// Display of the error.
    pub error: String,
}

/// Decode failure inside an otherwise parseable line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint decode error: {}", self.0)
    }
}

// ---------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------

/// How one type travels in a checkpoint line. Decoding checks every
/// shape and range, because the input comes from disk.
trait Codec: Sized {
    fn enc(&self) -> Value;
    fn dec(v: &Value) -> Result<Self, DecodeError>;
}

/// Decodes the field `key` of the object `v`.
fn field<T: Codec>(v: &Value, key: &'static str) -> Result<T, DecodeError> {
    T::dec(v.get(key).ok_or(DecodeError(key))?)
}

impl Codec for u64 {
    fn enc(&self) -> Value {
        Value::UInt(*self)
    }
    fn dec(v: &Value) -> Result<Self, DecodeError> {
        v.as_u64().ok_or(DecodeError("u64"))
    }
}

impl Codec for u32 {
    fn enc(&self) -> Value {
        Value::UInt(u64::from(*self))
    }
    fn dec(v: &Value) -> Result<Self, DecodeError> {
        u32::try_from(u64::dec(v)?).map_err(|_| DecodeError("u32"))
    }
}

/// The two's-complement bit pattern in a `u64`: lossless, like the
/// floats.
impl Codec for i64 {
    fn enc(&self) -> Value {
        Value::UInt(*self as u64)
    }
    fn dec(v: &Value) -> Result<Self, DecodeError> {
        Ok(u64::dec(v)? as i64)
    }
}

/// The IEEE-754 bit pattern, so a resumed sweep's artifacts stay
/// byte-identical.
impl Codec for f64 {
    fn enc(&self) -> Value {
        Value::bits(*self)
    }
    fn dec(v: &Value) -> Result<Self, DecodeError> {
        v.as_bits_f64().ok_or(DecodeError("f64"))
    }
}

impl Codec for bool {
    fn enc(&self) -> Value {
        Value::Bool(*self)
    }
    fn dec(v: &Value) -> Result<Self, DecodeError> {
        v.as_bool().ok_or(DecodeError("bool"))
    }
}

impl Codec for String {
    fn enc(&self) -> Value {
        Value::Str(self.clone())
    }
    fn dec(v: &Value) -> Result<Self, DecodeError> {
        v.as_str().map(str::to_string).ok_or(DecodeError("string"))
    }
}

impl Codec for SimDuration {
    fn enc(&self) -> Value {
        self.as_nanos().enc()
    }
    fn dec(v: &Value) -> Result<Self, DecodeError> {
        u64::dec(v).map(SimDuration::from_nanos)
    }
}

impl Codec for SimTime {
    fn enc(&self) -> Value {
        self.as_nanos().enc()
    }
    fn dec(v: &Value) -> Result<Self, DecodeError> {
        u64::dec(v).map(SimTime::from_nanos)
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn enc(&self) -> Value {
        Value::Arr(self.iter().map(T::enc).collect())
    }
    fn dec(v: &Value) -> Result<Self, DecodeError> {
        v.as_arr()
            .ok_or(DecodeError("array"))?
            .iter()
            .map(T::dec)
            .collect()
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn enc(&self) -> Value {
        Value::Arr(vec![self.0.enc(), self.1.enc()])
    }
    fn dec(v: &Value) -> Result<Self, DecodeError> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::dec(a)?, B::dec(b)?)),
            _ => Err(DecodeError("pair")),
        }
    }
}

/// One slot per [`EnergyComponent`], in `ALL` order; decoding demands
/// exactly that many.
impl Codec for EnergyBreakdown {
    fn enc(&self) -> Value {
        Value::Arr(self.iter().map(|(_, uj)| uj.enc()).collect())
    }
    fn dec(v: &Value) -> Result<Self, DecodeError> {
        let slots = Vec::<u64>::dec(v)?;
        if slots.len() != EnergyComponent::ALL.len() {
            return Err(DecodeError("breakdown length"));
        }
        let mut out = EnergyBreakdown::default();
        for (&component, uj) in EnergyComponent::ALL.iter().zip(slots) {
            out.add_uj(component, uj);
        }
        Ok(out)
    }
}

/// Field-less enums travel as their index into `ALL`, bounds-checked
/// on decode.
macro_rules! codec_index {
    ($($ty:ident),*) => {$(
        impl Codec for $ty {
            fn enc(&self) -> Value {
                let index = $ty::ALL.iter().position(|x| x == self).unwrap_or(0);
                Value::UInt(index as u64)
            }
            fn dec(v: &Value) -> Result<Self, DecodeError> {
                usize::try_from(u64::dec(v)?)
                    .ok()
                    .and_then(|i| $ty::ALL.get(i).copied())
                    .ok_or(DecodeError(stringify!($ty)))
            }
        }
    )*};
}

codec_index!(Stage, DecisionTrigger);

/// Both directions of each struct's schema from its field list,
/// written once. Encoding destructures without `..` and decoding
/// builds the struct literal, so a field added to any of these types
/// is a compile error here until it is listed. Fields after `skip`
/// are not stored and decode to their `Default`.
macro_rules! codec {
    ($($ty:ident { $($field:ident),* $(,)? $(; skip $($skip:ident),*)? })*) => {$(
        impl Codec for $ty {
            fn enc(&self) -> Value {
                let $ty { $($field,)* $($($skip: _,)*)? } = self;
                Value::obj(vec![$((stringify!($field), $field.enc()),)*])
            }
            fn dec(v: &Value) -> Result<Self, DecodeError> {
                Ok($ty {
                    $($field: field(v, stringify!($field))?,)*
                    $($($skip: Default::default(),)*)?
                })
            }
        }
    )*};
}

codec! {
    RunResult {
        governor, sleep, sent, received, p99, p50, frac_above_slo, slo, energy_j, duration,
        avg_power_w, rx_dropped, dvfs_transitions, c6_entries, metrics, attrib, energy,
        gov_flight, watchdog, faults, degradation, fault_recovery, timeline;
        skip traces
    }
    MetricsSnapshot { counters, gauges, histograms }
    HistogramSnapshot { count, sum, max, buckets }
    AttribSummary { requests, pending, mismatches, attributed_total_ns, e2e_total_ns, stages }
    StageSummary { stage, sum_ns, p50_ns, p99_ns, max_ns }
    WatchdogReport {
        samples, episodes, open_episode, first_detect_ns, total_violation_ns, mean_detect_ns,
        mean_recover_ns,
    }
    FaultStats {
        wire_requests_dropped, wire_responses_dropped, irqs_lost, spurious_irqs,
        irq_unmasks_blocked, wakes_delayed, signals_suppressed, signals_replayed, polls_clamped,
        dvfs_delays, pstate_clamps, exec_stalls, load_switches, incast_requests, flow_churns,
        server_crashes, server_recoveries, link_delays, partition_drops, skewed_steers,
        stale_probes, admission_bypasses,
    }
    EnergySummary { cores, uncore_uj, modes, rapl_clamps }
    CoreEnergySummary { core, measured_uj, breakdown }
    ModeEnergy { interrupt_uj, polling_uj, transition_uj }
    FlightSummary { total, evicted, raises, lowers, by_trigger, decisions }
    GovDecision {
        at, core, trigger, util_permille, polling, queue_depth, from_pstate, to_pstate, chip_wide,
    }
    Timeline { cores, base_interval_ns, interval_ns, decimations, dropped, times_ns, values }
    RecoverySummary {
        attributed, recovered, unrecovered, unattributed, mean_recovery_ns, max_recovery_ns,
    }
    DegradationStats { degradations, recoveries, degraded_cores }
    QuarantineRecord { key, governor, error }
}

/// Encodes a trace-free [`RunResult`] for a checkpoint line.
pub fn encode_result(r: &RunResult) -> Value {
    r.enc()
}

/// Decodes a checkpointed [`RunResult`] (always trace-free).
pub fn decode_result(v: &Value) -> Result<RunResult, DecodeError> {
    RunResult::dec(v)
}

// ---------------------------------------------------------------------
// The outcome table and its file
// ---------------------------------------------------------------------

/// A sweep's outcome table: finished cells and quarantine records.
///
/// [`Checkpoint::default`] is an in-memory table. [`Checkpoint::open`]
/// attaches an append-only file; every line is flushed as it is
/// appended, so the finished prefix survives a crash or SIGKILL at
/// any point.
#[derive(Debug, Default)]
pub struct Checkpoint {
    /// The attached file, if any.
    file: Option<File>,
    cells: HashMap<u64, RunResult>,
    quarantined: HashMap<u64, QuarantineRecord>,
    skipped_lines: usize,
}

impl Checkpoint {
    /// Opens (or creates) the checkpoint at `path`, loading every
    /// decodable line already present under a current header.
    /// Corrupt, torn and stale lines are skipped and counted in
    /// [`skipped_lines`](Self::skipped_lines).
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Checkpoint> {
        let path = path.as_ref();
        let mut cells = HashMap::new();
        let mut quarantined = HashMap::new();
        let mut skipped = 0usize;
        // Whether the most recent header carries this version: it
        // gates every cell and quarantine line that follows it.
        let mut current = false;
        if let Ok(existing) = File::open(path) {
            for line in BufReader::new(existing).split(b'\n') {
                let line = line?;
                let Ok(line) = std::str::from_utf8(&line) else {
                    skipped += 1;
                    continue;
                };
                if line.trim().is_empty() {
                    continue;
                }
                match Self::load_line(line) {
                    Ok(Line::Header(v)) if v == CHECKPOINT_VERSION => current = true,
                    Ok(Line::Cell(key, result)) if current => {
                        cells.insert(key, *result);
                    }
                    Ok(Line::Quarantine(record)) if current => {
                        quarantined.insert(record.key, record);
                    }
                    Ok(Line::Header(_)) => {
                        current = false;
                        skipped += 1;
                    }
                    _ => skipped += 1,
                }
            }
        }
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        // A kill mid-append can leave a torn final line with no
        // newline. Appending straight after it would splice the next
        // record onto the torn bytes and corrupt it too — start on a
        // fresh line so only the torn line is lost.
        if !ends_with_newline(path)? {
            writeln!(file)?;
        }
        let mut ck = Checkpoint {
            file: Some(file),
            cells,
            quarantined,
            skipped_lines: skipped,
        };
        if !current {
            ck.append("header", vec![("version", CHECKPOINT_VERSION.enc())])?;
        }
        Ok(ck)
    }

    fn load_line(line: &str) -> Result<Line, DecodeError> {
        let v = json::parse(line).map_err(|_| DecodeError("parse"))?;
        match field::<String>(&v, "kind")?.as_str() {
            "header" => Ok(Line::Header(field(&v, "version")?)),
            "cell" => Ok(Line::Cell(
                field(&v, "key")?,
                Box::new(field(&v, "result")?),
            )),
            "quarantine" => Ok(Line::Quarantine(field(&v, "record")?)),
            _ => Err(DecodeError("kind")),
        }
    }

    /// Whether a file backs the table.
    pub fn is_on_disk(&self) -> bool {
        self.file.is_some()
    }

    /// Lines skipped while loading (torn tail, corruption, stale
    /// version).
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// Completed cells loaded or appended so far.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no completed cells are recorded.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The stored result for `cfg`, if this exact config finished
    /// earlier. Trace-collecting cells never hit.
    pub fn lookup(&self, cfg: &RunConfig) -> Option<&RunResult> {
        if cfg.collect_traces {
            return None;
        }
        self.cells.get(&cell_key(cfg))
    }

    /// The quarantine record for `cfg`, if it was given up on.
    pub fn lookup_quarantine(&self, cfg: &RunConfig) -> Option<&QuarantineRecord> {
        self.quarantined.get(&cell_key(cfg))
    }

    /// All quarantine records, key-ascending.
    pub fn quarantined(&self) -> Vec<QuarantineRecord> {
        let mut records: Vec<_> = self.quarantined.values().cloned().collect();
        records.sort_by_key(|r| r.key);
        records
    }

    /// Stores one completed cell, streaming it to the file (append +
    /// flush) when one is attached. Cells with traces are skipped
    /// silently — they always re-run.
    pub fn record(&mut self, cfg: &RunConfig, result: &RunResult) -> std::io::Result<()> {
        if cfg.collect_traces {
            return Ok(());
        }
        let key = cell_key(cfg);
        self.cells.insert(key, result.clone());
        self.append("cell", vec![("key", key.enc()), ("result", result.enc())])
    }

    /// Stores one quarantine decision, streaming it to the file
    /// (append + flush) when one is attached.
    pub fn record_quarantine(&mut self, cfg: &RunConfig, error: &str) -> std::io::Result<()> {
        let record = QuarantineRecord {
            key: cell_key(cfg),
            governor: cfg.governor.label().to_string(),
            error: error.to_string(),
        };
        let line = vec![("record", record.enc())];
        self.quarantined.insert(record.key, record);
        self.append("quarantine", line)
    }

    /// Appends one `{"kind":<kind>, ...fields}` line to the attached
    /// file and flushes it; a no-op for an in-memory table.
    fn append(&mut self, kind: &str, mut fields: Vec<(&str, Value)>) -> std::io::Result<()> {
        let Some(file) = &mut self.file else {
            return Ok(());
        };
        fields.insert(0, ("kind", Value::Str(kind.to_string())));
        writeln!(file, "{}", Value::obj(fields).to_json())?;
        file.flush()
    }
}

enum Line {
    Header(u64),
    Cell(u64, Box<RunResult>),
    Quarantine(QuarantineRecord),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{self, GovernorKind, RunConfig, Scale};
    use simcore::SimDuration;
    use workload::{AppKind, LoadSpec};

    fn tiny(seed: u64) -> RunConfig {
        RunConfig {
            warmup: SimDuration::from_millis(50),
            duration: SimDuration::from_millis(150),
            ..RunConfig::new(
                AppKind::Memcached,
                LoadSpec::custom(20_000.0, SimDuration::from_millis(100), 0.4, 0.3),
                GovernorKind::Ondemand,
                Scale::Quick,
            )
        }
        .with_seed(seed)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nmap-ckpt-{name}-{}", std::process::id()));
        p
    }

    /// Cell keys must never move: a key change silently re-runs every
    /// cell of an existing checkpoint.
    #[test]
    fn cell_key_is_pinned() {
        let cfg = RunConfig::new(
            AppKind::Memcached,
            LoadSpec::preset(AppKind::Memcached, workload::LoadLevel::Medium),
            GovernorKind::Ondemand,
            Scale::Quick,
        );
        assert_eq!(cell_key(&cfg), 0x4482_99cc_addb_091c);
    }

    #[test]
    fn run_result_round_trips_exactly() {
        let result = runner::run(tiny(7));
        let decoded = decode_result(&encode_result(&result)).expect("decodes");
        assert_eq!(decoded, result, "codec must be lossless");
    }

    /// A result whose every scalar and element is distinct and
    /// non-zero, so a codec that swaps, drops or truncates any field
    /// fails the round trip.
    fn distinct_result() -> RunResult {
        let mut breakdown = EnergyBreakdown::default();
        for (&c, uj) in EnergyComponent::ALL.iter().zip(400..) {
            breakdown.add_uj(c, uj);
        }
        let decisions = DecisionTrigger::ALL.iter().rev().zip(0u32..);
        RunResult {
            governor: "gov-\u{3b1}".into(),
            sleep: "sleep \"q\"\n".into(),
            sent: 1,
            received: 2,
            p99: SimDuration::from_nanos(3),
            p50: SimDuration::from_nanos(4),
            frac_above_slo: -0.0,
            slo: SimDuration::from_nanos(5),
            energy_j: f64::from_bits(1),
            duration: SimDuration::from_nanos(u64::MAX),
            avg_power_w: -123.456,
            rx_dropped: 6,
            dvfs_transitions: 7,
            c6_entries: 8,
            metrics: MetricsSnapshot {
                counters: vec![("c.a".into(), 9), ("c.b".into(), 10)],
                gauges: vec![("g.a".into(), 1.5), ("g.b".into(), f64::MAX)],
                histograms: vec![(
                    "h.a".into(),
                    HistogramSnapshot {
                        count: 11,
                        sum: 12,
                        max: 13,
                        buckets: vec![(14, 15), (u32::MAX, 16)],
                    },
                )],
            },
            attrib: AttribSummary {
                requests: 17,
                pending: 18,
                mismatches: 19,
                attributed_total_ns: 20,
                e2e_total_ns: 21,
                stages: Stage::ALL
                    .iter()
                    .rev()
                    .zip(100u64..)
                    .map(|(&stage, n)| StageSummary {
                        stage,
                        sum_ns: 4 * n,
                        p50_ns: 4 * n + 1,
                        p99_ns: 4 * n + 2,
                        max_ns: 4 * n + 3,
                    })
                    .collect(),
            },
            energy: EnergySummary {
                cores: vec![
                    CoreEnergySummary {
                        core: 22,
                        measured_uj: 23,
                        breakdown,
                    },
                    CoreEnergySummary {
                        core: u32::MAX,
                        measured_uj: 24,
                        breakdown: breakdown.merged(&breakdown),
                    },
                ],
                uncore_uj: 25,
                modes: ModeEnergy {
                    interrupt_uj: 26,
                    polling_uj: 27,
                    transition_uj: 28,
                },
                rapl_clamps: 29,
            },
            gov_flight: FlightSummary {
                total: 30,
                evicted: 31,
                raises: 32,
                lowers: 33,
                by_trigger: vec![34, 35, 36, 37, 38],
                decisions: decisions
                    .map(|(&trigger, n)| GovDecision {
                        at: SimTime::from_nanos(500 + u64::from(n)),
                        core: 600 + 6 * n,
                        trigger,
                        util_permille: 601 + 6 * n,
                        polling: n % 2 == 0,
                        queue_depth: 602 + 6 * n,
                        from_pstate: 603 + 6 * n,
                        to_pstate: 604 + 6 * n,
                        chip_wide: n % 2 == 1,
                    })
                    .collect(),
            },
            watchdog: WatchdogReport {
                samples: 39,
                episodes: 40,
                open_episode: true,
                first_detect_ns: 41,
                total_violation_ns: 42,
                mean_detect_ns: 43,
                mean_recover_ns: 44,
            },
            faults: FaultStats {
                wire_requests_dropped: 201,
                wire_responses_dropped: 202,
                irqs_lost: 203,
                spurious_irqs: 204,
                irq_unmasks_blocked: 205,
                wakes_delayed: 206,
                signals_suppressed: 207,
                signals_replayed: 208,
                polls_clamped: 209,
                dvfs_delays: 210,
                pstate_clamps: 211,
                exec_stalls: 212,
                load_switches: 213,
                incast_requests: 214,
                flow_churns: 215,
                server_crashes: 216,
                server_recoveries: 217,
                link_delays: 218,
                partition_drops: 219,
                skewed_steers: 220,
                stale_probes: 221,
                admission_bypasses: 222,
            },
            degradation: governors::DegradationStats {
                degradations: 45,
                recoveries: 46,
                degraded_cores: 47,
            },
            fault_recovery: RecoverySummary {
                attributed: 48,
                recovered: 49,
                unrecovered: 50,
                unattributed: 51,
                mean_recovery_ns: 52,
                max_recovery_ns: 53,
            },
            timeline: simcore::Timeline {
                cores: 54,
                base_interval_ns: 55,
                interval_ns: 56,
                decimations: 57,
                dropped: 58,
                times_ns: vec![59, 60],
                values: vec![-61, i64::MIN, i64::MAX, 62],
            },
            traces: None,
        }
    }

    #[test]
    fn distinct_values_round_trip_exactly() {
        let result = distinct_result();
        let encoded = encode_result(&result);
        let decoded = decode_result(&encoded).expect("decodes");
        assert_eq!(decoded, result, "codec must be lossless");
        assert!(
            decoded.frac_above_slo.is_sign_negative(),
            "-0.0 keeps its sign"
        );
        assert_eq!(
            encode_result(&decoded).to_json(),
            encoded.to_json(),
            "re-encoding is byte-identical"
        );
    }

    #[test]
    fn checkpoint_persists_and_reloads_cells() {
        let path = tmp("reload");
        let _ = std::fs::remove_file(&path);
        let cfg = tiny(11);
        let result = runner::run(cfg.clone());
        {
            let mut ck = Checkpoint::open(&path).expect("open");
            assert!(ck.lookup(&cfg).is_none());
            ck.record(&cfg, &result).expect("record");
        }
        let ck = Checkpoint::open(&path).expect("reopen");
        assert_eq!(ck.skipped_lines(), 0);
        assert_eq!(ck.lookup(&cfg), Some(&result));
        // A different seed is a different key.
        assert!(ck.lookup(&tiny(12)).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let cfg = tiny(13);
        let result = runner::run(cfg.clone());
        {
            let mut ck = Checkpoint::open(&path).expect("open");
            ck.record(&cfg, &result).expect("record");
        }
        // Simulate a crash mid-append: a second cell line cut short.
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("{\"kind\":\"cell\",\"key\":\"00000000000000ff\",\"result\":{\"gov");
        std::fs::write(&path, text).expect("write");
        let ck = Checkpoint::open(&path).expect("reopen");
        assert_eq!(ck.skipped_lines(), 1, "torn line skipped");
        assert_eq!(ck.lookup(&cfg), Some(&result), "intact prefix kept");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appending_after_a_torn_tail_does_not_corrupt_the_new_record() {
        let path = tmp("torn-append");
        let _ = std::fs::remove_file(&path);
        let (first, second) = (tiny(13), tiny(14));
        let first_result = runner::run(first.clone());
        {
            let mut ck = Checkpoint::open(&path).expect("open");
            ck.record(&first, &first_result).expect("record");
        }
        // A kill mid-append leaves torn bytes with no trailing newline.
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("{\"kind\":\"cell\",\"key\":\"00");
        std::fs::write(&path, text).expect("write");
        // The resumed process appends another cell; it must land on a
        // fresh line, not splice onto the torn bytes.
        let second_result = runner::run(second.clone());
        {
            let mut ck = Checkpoint::open(&path).expect("reopen");
            ck.record(&second, &second_result).expect("record");
        }
        let ck = Checkpoint::open(&path).expect("reopen again");
        assert_eq!(ck.skipped_lines(), 1, "only the torn line is lost");
        assert_eq!(ck.lookup(&first), Some(&first_result));
        assert_eq!(ck.lookup(&second), Some(&second_result));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_utf8_lines_are_skipped_not_fatal() {
        let path = tmp("non-utf8");
        let _ = std::fs::remove_file(&path);
        let (first, second) = (tiny(13), tiny(14));
        let first_result = runner::run(first.clone());
        {
            let mut ck = Checkpoint::open(&path).expect("open");
            ck.record(&first, &first_result).expect("record");
        }
        // A torn tail that cuts a multibyte character in half.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(b"{\"kind\":\"quarantine\",\"error\":\"5 \xc2");
        std::fs::write(&path, bytes).expect("write");
        let second_result = runner::run(second.clone());
        {
            let mut ck = Checkpoint::open(&path).expect("reopen");
            assert_eq!(ck.skipped_lines(), 1, "non-UTF-8 line skipped");
            assert_eq!(ck.lookup(&first), Some(&first_result));
            ck.record(&second, &second_result).expect("record");
        }
        let ck = Checkpoint::open(&path).expect("reopen again");
        assert_eq!(ck.skipped_lines(), 1, "only the corrupt line is lost");
        assert_eq!(ck.lookup(&first), Some(&first_result));
        assert_eq!(ck.lookup(&second), Some(&second_result));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cells_under_a_stale_header_are_not_served() {
        let path = tmp("stale-header");
        let _ = std::fs::remove_file(&path);
        let cfg = tiny(15);
        let result = runner::run(cfg.clone());
        {
            let mut ck = Checkpoint::open(&path).expect("open");
            ck.record(&cfg, &result).expect("record");
        }
        let text = std::fs::read_to_string(&path).expect("read");
        let current = format!("\"version\":{CHECKPOINT_VERSION}");
        assert!(text.contains(&current));
        std::fs::write(&path, text.replacen(&current, "\"version\":3", 1)).expect("write");
        {
            let mut ck = Checkpoint::open(&path).expect("reopen");
            assert_eq!(ck.skipped_lines(), 2, "stale header and its cell");
            assert!(ck.lookup(&cfg).is_none(), "stale cell must re-run");
            ck.record(&cfg, &result).expect("record");
        }
        // The resumed process wrote a fresh header before its cell.
        let ck = Checkpoint::open(&path).expect("reopen again");
        assert_eq!(ck.skipped_lines(), 2);
        assert_eq!(ck.lookup(&cfg), Some(&result));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quarantine_records_round_trip() {
        let path = tmp("quar");
        let _ = std::fs::remove_file(&path);
        let cfg = tiny(17);
        {
            let mut ck = Checkpoint::open(&path).expect("open");
            ck.record_quarantine(&cfg, "event-count budget exceeded")
                .expect("record");
        }
        let ck = Checkpoint::open(&path).expect("reopen");
        let record = ck.lookup_quarantine(&cfg).expect("present");
        assert_eq!(record.governor, "ondemand");
        assert!(record.error.contains("event-count"));
        assert_eq!(ck.quarantined().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_cells_are_never_checkpointed() {
        let path = tmp("traces");
        let _ = std::fs::remove_file(&path);
        let cfg = tiny(19).with_traces();
        let result = runner::run(cfg.clone());
        let mut ck = Checkpoint::open(&path).expect("open");
        ck.record(&cfg, &result).expect("record is a no-op");
        assert!(ck.lookup(&cfg).is_none(), "trace cells always re-run");
        assert!(ck.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cell_key_tracks_every_field() {
        let a = cell_key(&tiny(1));
        assert_eq!(a, cell_key(&tiny(1)), "deterministic");
        assert_ne!(a, cell_key(&tiny(2)), "seed changes the key");
        assert_ne!(
            a,
            cell_key(&tiny(1).with_nic_queues(2)),
            "queue override changes the key"
        );
    }
}
