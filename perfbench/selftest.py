#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/selftest.py

1. Unit tests of the benchmark binary (`cargo test`).
2. Short-scale smoke: every workload, in both modes, prints every
   metric BENCHMARK.json names, with its unit, and passes its checks.
3. Determinism: two same-seed short traced runs print identical
   digests and identical counts.
4. Held-out seed: a seed none of the workloads is defined with passes
   every output check (golden equality only binds sweep13's own seed).
5. Golden: a full-scale sweep13 run at seed 7 reproduces the fixtures.

Takes a few minutes; exits nonzero on the first failure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
HELD_OUT_SEED = 1_234_567
# Units of the deterministic per-layer metrics (counts and count ratios).
EXACT_UNITS = {"count", "ratio"}


def bench(workload, seed, trace, short=True, seconds=1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if short:
        cmd.append("--short")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    label = " ".join(cmd[2:])
    if done.returncode != 0:
        sys.exit(f"FAIL {label}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    digest = next(
        (line.split()[1] for line in done.stderr.splitlines() if line.startswith("digest ")),
        None,
    )
    return label, result, digest


def check_metrics(label, result, trace):
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"FAIL {label}: checks failed: {result}")
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        sys.exit(f"FAIL {label}: metric names differ from BENCHMARK.json")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            sys.exit(f"FAIL {label}: {m['name']} unit {got[m['name']]['unit']} != {m['unit']}")
        if not isinstance(got[m["name"]]["value"], (int, float)):
            sys.exit(f"FAIL {label}: {m['name']} is not a number")
    for m in SPEC["end_to_end"] if not trace else []:
        if got[m["name"]]["value"] <= 0:
            sys.exit(f"FAIL {label}: end-to-end metric {m['name']} is not positive")


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        env=env, check=True,
    )
    print("ok   unit tests")

    for w in WORKLOADS:
        for trace in (0, 1):
            label, result, _ = bench(w, 11, trace)
            check_metrics(label, result, trace)
            print(f"ok   smoke {label}")

    for w in WORKLOADS:
        label, a, da = bench(w, 5, 1)
        _, b, db = bench(w, 5, 1)
        exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS]
        diff = [n for n in exact if a["metrics"][n] != b["metrics"][n]]
        if da is None or da != db or diff:
            sys.exit(f"FAIL determinism {label}: digests {da} vs {db}, counts differ: {diff}")
        print(f"ok   determinism {label} (digest {da}, {len(exact)} counts)")

    for w in WORKLOADS:
        for trace in (0, 1):
            label, result, _ = bench(w, HELD_OUT_SEED, trace)
            check_metrics(label, result, trace)
            print(f"ok   held-out seed {label}")

    label, result, _ = bench("sweep13", 7, 0, short=False)
    check_metrics(label, result, 0)
    print(f"ok   golden {label}")


if __name__ == "__main__":
    main()
