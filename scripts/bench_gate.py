#!/usr/bin/env python3
"""Scheduler-microbench regression gate (ISSUE 6).

Absolute events/sec is meaningless across heterogeneous CI runners, so
every `scheduler/*` workload runs on the timing wheel AND the binary-
heap oracle, and the gate compares the heap/wheel speedup ratio —
the oracle run cancels machine speed out of the quotient.

Two kinds of checks, with different teeth:

* **Hard** — the machine-independent 5x acceptance floor from ISSUE 6:
  the wheel must dispatch >=5x the oracle's events/sec on the
  standing-population workload. Noise cannot produce a 5x-to-sub-5x
  swing, so this always fails the job.
* **Advisory** — the speedup ratio vs the checked-in
  `BENCH_baseline.json`. Even with the oracle normalization, a noisy
  neighbor on a shared runner can skew one side of the quotient, so a
  >10% ratio drop prints a prominent warning (and a GitHub error
  annotation when running in Actions) instead of failing unrelated
  PRs spuriously. Treat a warning that reproduces across runs as a
  real regression.

Ratios use `min_ns` (fastest of N samples): scheduler interference
only ever adds time, so the minimum is the noise-robust estimate of
the true cost. Pre-`min_ns` reports fall back to `mean_ns`.

Usage: bench_gate.py [BENCH_repro.json [BENCH_baseline.json]]
"""

import json
import os
import sys

# Workloads gated against the baseline (each has wheel_* and heap_*).
WORKLOADS = ["churn_100k", "bursts_64k", "standing_1m"]
# Max tolerated drop in the heap/wheel speedup ratio vs the baseline
# before the advisory warning fires.
TOLERANCE = 0.10
# Hard acceptance floor from ISSUE 6, machine-independent by design:
# the wheel must dispatch >=5x the oracle's events/sec on the
# standing-population workload.
ACCEPTANCE = {"standing_1m": 5.0}
# Max tolerated telemetry-sampling overhead (advisory): the timeline
# cell with a 1 us sampler vs the same cell with sampling off, from
# the same run so machine speed cancels. Both entries come from
# `cargo bench -p nmap-bench --bench timeline`; absent entries skip
# the check (the timeline bench is not part of every lane).
TIMELINE_OVERHEAD = 0.03
# Max tolerated chaos-to-calm slowdown on the fleet cell (advisory):
# both entries come from the same `cargo bench -p nmap-bench --bench
# fleet` run, so machine speed cancels. Chaos normally runs *cheaper*
# than calm (crash windows instant-fail attempts instead of
# simulating them); a blow-up past this ceiling means the
# retry/hedge/probe machinery started storming. Absent entries skip
# the check (the fleet bench is not part of every lane).
FLEET_OVERHEAD = 1.00
# Max tolerated admission-gate overhead on a calm fleet (advisory):
# the overload cell with the full control stack on vs the same cell
# with unbounded queues, from the same `cargo bench -p nmap-bench
# --bench overload` run so machine speed cancels. On a calm fleet the
# gate admits everything, so this is pure bookkeeping cost. Absent
# entries skip the check.
OVERLOAD_OVERHEAD = 0.03


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: b.get("min_ns", b["mean_ns"]) for b in doc["benchmarks"]}


def speedup(stats, workload, baseline="heap"):
    wheel = stats.get(f"scheduler/wheel_{workload}")
    other = stats.get(f"scheduler/{baseline}_{workload}")
    if not wheel or not other:
        return None
    return other / wheel


def main():
    current_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_repro.json"
    baseline_path = sys.argv[2] if len(sys.argv) > 2 else "BENCH_baseline.json"
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

    # Advisory: telemetry-sampler overhead on the timeline cell, same
    # run so machine speed cancels. Skipped when the timeline bench
    # did not run in this lane.
    on = current.get("timeline_cell/sampler_1us")
    off = current.get("timeline_cell/sampler_off")
    if on and off:
        overhead = on / off - 1.0
        status = "ok" if overhead <= TIMELINE_OVERHEAD else "WARN: over budget"
        print(
            f"timeline_cell  1us-sampler overhead {overhead * 100:+5.2f}% "
            f"(advisory ceiling {TIMELINE_OVERHEAD * 100:.0f}%) {status}"
        )
        if overhead > TIMELINE_OVERHEAD:
            warnings.append(
                "timeline_cell: sampling overhead "
                f"{overhead * 100:.2f}% exceeds {TIMELINE_OVERHEAD * 100:.0f}%"
            )

    # Advisory: chaos-schedule overhead on the fleet cell, same run
    # so machine speed cancels. Skipped when the fleet bench did not
    # run in this lane.
    chaos = current.get("fleet_cell/chaos")
    calm = current.get("fleet_cell/calm")
    if chaos and calm:
        overhead = chaos / calm - 1.0
        status = "ok" if overhead <= FLEET_OVERHEAD else "WARN: over budget"
        print(
            f"fleet_cell     chaos overhead {overhead * 100:+6.2f}% "
            f"(advisory ceiling {FLEET_OVERHEAD * 100:.0f}%) {status}"
        )
        if overhead > FLEET_OVERHEAD:
            warnings.append(
                "fleet_cell: chaos overhead "
                f"{overhead * 100:.2f}% exceeds {FLEET_OVERHEAD * 100:.0f}% — "
                "retry/hedge/probe machinery may be storming"
            )

    # Advisory: admission-gate overhead on the calm overload cell,
    # same run so machine speed cancels. Skipped when the overload
    # bench did not run in this lane.
    on = current.get("overload_cell/admission_on")
    off = current.get("overload_cell/admission_off")
    if on and off:
        overhead = on / off - 1.0
        status = "ok" if overhead <= OVERLOAD_OVERHEAD else "WARN: over budget"
        print(
            f"overload_cell  admission overhead {overhead * 100:+5.2f}% "
            f"(advisory ceiling {OVERLOAD_OVERHEAD * 100:.0f}%) {status}"
        )
        if overhead > OVERLOAD_OVERHEAD:
            warnings.append(
                "overload_cell: admission overhead "
                f"{overhead * 100:.2f}% exceeds {OVERLOAD_OVERHEAD * 100:.0f}%"
            )

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
