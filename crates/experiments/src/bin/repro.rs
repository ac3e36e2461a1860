//! `repro` — regenerate the NMAP paper's tables and figures.
//!
//! ```text
//! Usage: repro [--quick] [--out DIR] [--trace-out DIR]
//!              [--checkpoint FILE] <id>... | all | --list
//!
//!   --quick           short measurement windows (CI-sized); default is
//!                     the full windows used for reported numbers
//!   --out DIR         also write each artifact to DIR/<id>.txt
//!                     (written atomically: tempfile + rename, so a
//!                     crash never leaves a truncated artifact)
//!   --trace-out DIR   also rerun each artifact's representative cell
//!                     with tracing and write DIR/<id>.trace.json
//!                     (Perfetto-loadable)
//!   --checkpoint FILE stream concluded sweep cells to FILE (append-only
//!                     JSONL); re-running with the same FILE after a
//!                     crash or Ctrl-C skips concluded cells and
//!                     produces byte-identical artifacts
//!   --list            print the available artifact ids
//! ```
//!
//! Sweeps run under a [`Supervisor`]: each distinct cell runs once,
//! and a cell whose run fails is quarantined (reported at the end,
//! with placeholder rows rendered as `n/a` in the affected tables)
//! while the rest of the sweep still completes.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

use experiments::runner::{run, Scale};
use experiments::{export, figures, report, Supervisor};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut ids: Vec<String> = Vec::new();
    let mut out_dir: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut ckpt_path: Option<String> = None;
    let mut iter = args.into_iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "--out" => {
                out_dir = iter.next();
                if out_dir.is_none() {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                }
            }
            "--trace-out" => {
                trace_dir = iter.next();
                if trace_dir.is_none() {
                    eprintln!("--trace-out requires a directory");
                    std::process::exit(2);
                }
            }
            "--checkpoint" => {
                ckpt_path = iter.next();
                if ckpt_path.is_none() {
                    eprintln!("--checkpoint requires a file path");
                    std::process::exit(2);
                }
            }
            "--list" => {
                for id in figures::all_ids() {
                    println!("{id}");
                }
                return;
            }
            "--help" | "-h" => {
                println!(
                    "Usage: repro [--quick] [--out DIR] [--trace-out DIR] \
                     [--checkpoint FILE] <id>... | all | --list"
                );
                println!("ids: {}", figures::all_ids().join(" "));
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!("no artifact requested; try `repro --list` or `repro all`");
        std::process::exit(2);
    }
    if ids.iter().any(|i| i == "all") {
        ids = figures::all_ids().iter().map(|s| s.to_string()).collect();
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir).expect("create trace output directory");
    }

    let sup = match &ckpt_path {
        Some(path) => match Supervisor::new().with_checkpoint(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot open checkpoint {path}: {e}");
                std::process::exit(2);
            }
        },
        None => Supervisor::new(),
    };

    let mut produced: std::collections::HashSet<String> = std::collections::HashSet::new();
    for id in &ids {
        if produced.contains(id) {
            continue;
        }
        let start = std::time::Instant::now();
        let reports = figures::generate_with(id, scale, &sup);
        if reports.is_empty() {
            eprintln!("unknown artifact id: {id} (try --list)");
            std::process::exit(2);
        }
        for report in reports {
            println!("{report}");
            println!("[generated in {:.1}s]\n", start.elapsed().as_secs_f64());
            if let Some(dir) = &out_dir {
                let path = format!("{dir}/{}.txt", report.id);
                write_atomic(&path, &format!("{report}")).expect("write artifact");
            }
            produced.insert(report.id.clone());
        }
        if let Some(dir) = &trace_dir {
            dump_trace(id, scale, dir);
        }
    }

    if ckpt_path.is_some() && sup.cells_resumed() > 0 {
        eprintln!(
            "[checkpoint: {} finished cell(s) resumed without re-running]",
            sup.cells_resumed()
        );
    }
    let quarantined = sup.quarantined();
    if !quarantined.is_empty() {
        let mut section = String::from(
            "QUARANTINED CELLS\n\
             The following sweep cells failed and were \
             excluded (their rows render as zeros / n/a):\n",
        );
        for q in &quarantined {
            section.push_str(&format!(
                "  cell {:016x} [{}]: {}\n",
                q.key, q.governor, q.error
            ));
        }
        eprint!("{section}");
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/quarantine.txt");
            write_atomic(&path, &section).expect("write quarantine report");
        }
        std::process::exit(1);
    }
}

/// Writes `contents` to `path` atomically: the bytes land in a
/// sibling tempfile first and are renamed into place, so a crash
/// mid-write can never leave a truncated artifact behind.
fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Reruns `id`'s representative cell with tracing and writes
/// `dir/<id>.trace.json`. Surfaces the buffer's drop count so a
/// truncated timeline is never mistaken for a quiet one.
fn dump_trace(id: &str, scale: Scale, dir: &str) {
    let Some(cfg) = figures::representative_cell(id, scale) else {
        eprintln!("note: {id} has no single-box cell to trace; no trace written");
        return;
    };
    let result = run(cfg);
    if let Some(traces) = &result.traces {
        if let Some(warning) = report::trace_drop_warning(id, traces.trace.dropped()) {
            eprintln!("{warning}");
        }
        let path = format!("{dir}/{id}.trace.json");
        export::write_perfetto_json(&result, &path).expect("write trace json");
        println!("[trace for {id} written to {path}]\n");
    }
    if !result.timeline.is_empty() {
        if let Some(warning) = report::trace_drop_warning("timeline", result.timeline.dropped) {
            eprintln!("{warning}");
        }
        let csv = format!("{dir}/{id}.timeline.csv");
        let om = format!("{dir}/{id}.timeline.om");
        export::write_timeline_csv(&result, &csv).expect("write timeline csv");
        export::write_timeline_openmetrics(&result, &om).expect("write timeline openmetrics");
        println!("[timeline for {id} written to {csv} and {om}]\n");
    }
}
