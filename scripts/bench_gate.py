#!/usr/bin/env python3
"""Scheduler-microbench regression gate.

Absolute events/sec is meaningless across heterogeneous CI runners, so
every `scheduler/*` workload runs on the timing wheel AND the binary-
heap oracle, and the gate compares the heap/wheel speedup ratio —
the oracle run cancels machine speed out of the quotient.

Two kinds of checks, with different teeth:

* **Hard** — the machine-independent 5x acceptance floor: the wheel
  must dispatch >=5x the oracle's events/sec on the standing-population
  workload. Noise cannot produce a 5x-to-sub-5x swing, so this always
  fails the job. So does a report that is malformed or lacks a workload.
* **Advisory** — the speedup ratio vs the checked-in
  `BENCH_baseline.json`. Even with the oracle normalization, a noisy
  neighbor on a shared runner can skew one side of the quotient, so a
  >10% ratio drop prints a prominent warning (and a GitHub warning
  annotation when running in Actions) instead of failing unrelated
  PRs spuriously. Treat a warning that reproduces across runs as a
  real regression.

Ratios use `min_ns` (fastest of N samples): scheduler interference
only ever adds time, so the minimum is the noise-robust estimate of
the true cost.

Usage (both paths default to the repo root, whatever the working
directory, which is where `cargo bench -p nmap-bench --bench engine`
writes its report):

    bench_gate.py [BENCH_repro.json [BENCH_baseline.json]]
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Workloads gated against the baseline (each has wheel_* and heap_*).
WORKLOADS = ["churn_100k", "bursts_64k", "standing_1m"]
# Max tolerated drop in the heap/wheel speedup ratio vs the baseline
# before the advisory warning fires.
TOLERANCE = 0.10
# Hard acceptance floor, machine-independent by design: the wheel must
# dispatch >=5x the oracle's events/sec on the standing-population
# workload.
ACCEPTANCE = {"standing_1m": 5.0}
# Every report entry carries these keys (criterion.rs's `BenchStat`).
KEYS = ("name", "mean_ns", "min_ns", "p50_ns", "p99_ns", "samples")


def load(path):
    """Returns {bench name: min_ns}; exits 1 if the report is malformed."""
    try:
        with open(path) as f:
            benches = json.load(f)["benchmarks"]
        if not benches:
            raise ValueError("no benchmarks")
        for b in benches:
            missing = [k for k in KEYS if k not in b]
            if missing:
                raise ValueError(f"entry {b} lacks {', '.join(missing)}")
    except (OSError, ValueError, KeyError, TypeError) as e:
        sys.exit(f"bench gate FAILED: {path}: {e}")
    print(f"{path}: {len(benches)} benches")
    return {b["name"]: b["min_ns"] for b in benches}


def speedup(stats, workload, baseline="heap"):
    wheel = stats.get(f"scheduler/wheel_{workload}")
    other = stats.get(f"scheduler/{baseline}_{workload}")
    if not wheel or not other:
        return None
    return other / wheel


def main():
    args = sys.argv[1:]
    current_path = args[0] if args else os.path.join(ROOT, "BENCH_repro.json")
    baseline_path = args[1] if len(args) > 1 else os.path.join(ROOT, "BENCH_baseline.json")
    current = load(current_path)
    baseline = load(baseline_path)

    failures = []  # hard: fail the job
    warnings = []  # advisory: print loudly, exit 0
    for workload in WORKLOADS:
        now = speedup(current, workload)
        ref = speedup(baseline, workload)
        if now is None:
            # A missing workload is a broken bench harness, not noise.
            failures.append(f"{workload}: missing from {current_path}")
            continue
        if ref is None:
            failures.append(f"{workload}: missing from {baseline_path}")
            continue
        floor = ref * (1.0 - TOLERANCE)
        status = "ok" if now >= floor else "WARN: below baseline"
        print(
            f"{workload:14} wheel speedup {now:5.2f}x over heap oracle "
            f"(baseline {ref:5.2f}x, advisory floor {floor:5.2f}x) {status}"
        )
        if now < floor:
            warnings.append(
                f"{workload}: speedup {now:.2f}x fell >10% below baseline {ref:.2f}x"
            )
        hard = ACCEPTANCE.get(workload)
        if hard is not None and now < hard:
            failures.append(
                f"{workload}: speedup {now:.2f}x is below the {hard:.0f}x acceptance floor"
            )

    # Informational: the pre-wheel seed engine (boxed actions inside
    # the heap + HashSet live-set), the honest before/after pair.
    for workload in WORKLOADS:
        seed = speedup(current, workload, baseline="seed")
        if seed is not None:
            print(f"{workload:14} wheel speedup {seed:5.2f}x over seed engine")

    if warnings:
        print("\nbench gate ADVISORY (not failing the job; rerun to confirm):")
        for w in warnings:
            print(f"  - {w}")
            if os.environ.get("GITHUB_ACTIONS"):
                print(f"::warning title=bench advisory::{w}")

    if failures:
        print("\nbench gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        sys.exit(1)
    print("\nbench gate passed" + (" (with advisory warnings)" if warnings else ""))


if __name__ == "__main__":
    main()
