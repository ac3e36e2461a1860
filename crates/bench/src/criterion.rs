//! A minimal, dependency-free stand-in for the `criterion` crate.
//!
//! The workspace builds without network access, so the bench target
//! can't link the real criterion. This module re-implements the small
//! API surface `benches/engine.rs` uses — [`Criterion::bench_function`],
//! [`Bencher::iter`], [`black_box`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros — with wall-clock
//! timing, a plain-text report, and a JSON report at
//! [`json_report_path`] that `scripts/bench_gate.py` reads.
//!
//! A positional command-line argument acts as a substring filter on
//! bench names, mirroring `cargo bench <filter>`.
//!
//! [`criterion_group!`]: crate::criterion_group
//! [`criterion_main!`]: crate::criterion_main

pub use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One benchmark's timing summary, as serialized into the machine-
/// readable report ([`write_json_report`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchStat {
    /// Full bench name (`group/name`).
    pub name: String,
    /// Mean wall-clock time per iteration.
    pub mean_ns: u64,
    /// Fastest iteration — the noise-robust statistic the regression
    /// gate compares, since scheduler interference only ever adds time.
    pub min_ns: u64,
    /// Median iteration time.
    pub p50_ns: u64,
    /// 99th-percentile iteration time (≈ max at small sample counts).
    pub p99_ns: u64,
    /// Number of timed iterations.
    pub samples: u64,
}

/// Stats from every bench run in this process, in execution order.
/// [`criterion_main!`] flushes them to disk on exit.
static RESULTS: Mutex<Vec<BenchStat>> = Mutex::new(Vec::new());

/// Times closures handed to [`iter`](Bencher::iter).
pub struct Bencher {
    samples: u64,
    times: Vec<Duration>,
}

impl Bencher {
    /// Runs the routine once as warm-up, then `samples` timed times.
    pub fn iter<T>(&mut self, mut routine: impl FnMut() -> T) {
        black_box(routine());
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.times.push(start.elapsed());
        }
    }
}

/// The benchmark driver: configuration plus name filtering.
pub struct Criterion {
    sample_size: u64,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // cargo bench forwards its trailing args; the first
        // non-flag argument is the usual name filter.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion {
            sample_size: 10,
            filter,
        }
    }
}

impl Criterion {
    /// Sets how many timed iterations each bench runs.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n as u64;
        self
    }

    fn matches(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    fn run_one(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        if !self.matches(name) {
            return;
        }
        let mut b = Bencher {
            samples: self.sample_size,
            times: Vec::new(),
        };
        f(&mut b);
        b.times.sort();
        let total: Duration = b.times.iter().sum();
        let n = b.times.len().max(1);
        let mean = total / n as u32;
        let median = b.times.get(n / 2).copied().unwrap_or_default();
        let p99 = b
            .times
            .get((n * 99 / 100).min(n - 1))
            .copied()
            .unwrap_or_default();
        let min = b.times.first().copied().unwrap_or_default();
        println!(
            "bench {name:<55} min {min:>12.3?}  median {median:>12.3?}  mean {mean:>12.3?}  ({n} samples)"
        );
        RESULTS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(BenchStat {
                name: name.to_string(),
                mean_ns: mean.as_nanos() as u64,
                min_ns: min.as_nanos() as u64,
                p50_ns: median.as_nanos() as u64,
                p99_ns: p99.as_nanos() as u64,
                samples: b.times.len() as u64,
            });
    }

    /// Runs one named benchmark.
    pub fn bench_function(&mut self, name: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        let name = name.into();
        self.run_one(&name, f);
    }
}

/// Where the JSON report lands: `BENCH_repro.json` at the workspace
/// root, whatever the working directory (`cargo bench` runs a bench
/// binary from its package root).
pub fn json_report_path() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    // crates/bench → the workspace root.
    manifest
        .ancestors()
        .nth(2)
        .unwrap_or(manifest)
        .join("BENCH_repro.json")
}

/// Renders stats as the `BENCH_repro.json` document: a single
/// `benchmarks` array of `{name, mean_ns, min_ns, p50_ns, p99_ns,
/// samples}` objects, sorted by name for stable diffs.
pub fn render_json(stats: &[BenchStat]) -> String {
    let mut sorted: Vec<&BenchStat> = stats.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = String::from("{\"benchmarks\":[\n");
    for (i, s) in sorted.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":{},\"mean_ns\":{},\"min_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"samples\":{}}}",
            experiments::json::quote(&s.name),
            s.mean_ns,
            s.min_ns,
            s.p50_ns,
            s.p99_ns,
            s.samples
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Writes every stat recorded in this process to the JSON report at
/// [`json_report_path`], replacing any earlier report. A run whose
/// filter matched nothing writes nothing.
pub fn write_json_report() -> std::io::Result<()> {
    let stats = RESULTS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    if stats.is_empty() {
        return Ok(());
    }
    let path = json_report_path();
    std::fs::write(&path, render_json(&stats))
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    println!("bench report written to {}", path.display());
    Ok(())
}

/// Declares a bench group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::criterion::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, mirroring criterion's macro.
/// On exit the collected stats are flushed to `BENCH_repro.json`
/// (see [`criterion::write_json_report`](crate::criterion::write_json_report));
/// a failed write fails the run, so the gate never reads a stale report.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() -> std::io::Result<()> {
            $( $group(); )+
            $crate::criterion::write_json_report()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion {
            sample_size: 3,
            filter: None,
        };
        let mut runs = 0u64;
        c.bench_function("unit/counts", |b| b.iter(|| runs += 1));
        // 1 warm-up + 3 timed.
        assert_eq!(runs, 4);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut c = Criterion {
            sample_size: 1,
            filter: Some("wanted".into()),
        };
        let mut ran = false;
        c.bench_function("other/name", |b| b.iter(|| ran = true));
        assert!(!ran);
        c.bench_function("the/wanted/one", |b| b.iter(|| ran = true));
        assert!(ran);
    }

    #[test]
    fn run_one_records_stats_for_the_json_report() {
        let mut c = Criterion {
            sample_size: 2,
            filter: None,
        };
        let name = "unit/json-stat-recording";
        c.bench_function(name, |b| b.iter(|| black_box(1 + 1)));
        let results = RESULTS.lock().unwrap_or_else(PoisonError::into_inner);
        let stat = results
            .iter()
            .find(|s| s.name == name)
            .expect("stat recorded");
        assert_eq!(stat.samples, 2);
        assert!(stat.p99_ns >= stat.p50_ns);
        assert!(stat.min_ns <= stat.mean_ns);
    }

    #[test]
    fn report_lands_at_the_workspace_root() {
        let path = json_report_path();
        assert!(path.is_absolute());
        assert!(path.with_file_name("Cargo.lock").is_file());
    }
}
