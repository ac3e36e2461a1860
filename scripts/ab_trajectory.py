#!/usr/bin/env python3
"""Alternating parent/change A/B of perfbench, appended to the trajectory.

Two modes.

Measure:

    python3 scripts/ab_trajectory.py --parent ../parent --pr N \\
        --workload box_poll --seed 42 --pairs 10 --seconds 35

The change is the repository this script lives in; `--parent` is a
checkout of the parent commit (a `git clone` or an unpacked `git
archive`). The script runs `python3 perfbench/run.py --workload W
--seed S --seconds N --trace 0` alternately in the parent and in the
change (pair i runs the parent first when i is even, the
change first when it is odd, so slow drift of the host's speed cancels),
each side building into its own target directory. Every run must report
`correct`; one that does not aborts the A/B and writes nothing. It then
appends one line per end-to-end metric of BENCHMARK.json to
BENCH_trajectory.jsonl, in the format README's bench section specifies
(`change` is null: the rows land in the change they measure, whose
commit id does not exist yet):
per-side medians, inclusive linear-interpolation quartiles `[q1, q3]`,
the number of pairs, and `probe_ms`, the median over all runs of each
run's median host-speed probe. It also prints each run's values and a
summary (median ratio, pairs the change won) to stderr.

Check (CI):

    python3 scripts/ab_trajectory.py --check --base old_trajectory.jsonl

validates the keys and value types of every line of the repository's
BENCH_trajectory.jsonl (workloads are those of BENCHMARK.json), and,
given `--base`, that the file only grew: the base copy's lines are an
unchanged prefix.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

TRAJECTORY = "BENCH_trajectory.jsonl"
ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# Key -> accepted types of one trajectory line (bool is excluded from
# the numeric checks below, since it is an int subclass).
SCHEMA = {
    "pr": (int,),
    "parent": (str,),
    "change": (str, type(None)),
    "workload": (str,),
    "seed": (int,),
    "metric": (str,),
    "unit": (str,),
    "parent_median": (int, float),
    "change_median": (int, float),
    "parent_quartiles": (list,),
    "change_quartiles": (list,),
    "pairs": (int,),
    "probe_ms": (int, float),
}
COMMIT = re.compile(r"^[0-9a-f]{40}$")
PROBE_LINE = "probe ms around passes:"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"ab_trajectory: {msg}")
    sys.exit(1)


def quartiles(values):
    """`[q1, q3]` by inclusive linear interpolation."""
    if len(values) == 1:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def line_problems(row):
    """What is wrong with one parsed trajectory line (empty if nothing)."""
    if not isinstance(row, dict):
        return ["not a JSON object"]
    problems = []
    missing = SCHEMA.keys() - row.keys()
    extra = row.keys() - SCHEMA.keys()
    if missing:
        problems.append(f"missing keys {sorted(missing)}")
    if extra:
        problems.append(f"unexpected keys {sorted(extra)}")
    for key, types in SCHEMA.items():
        if key in row and (isinstance(row[key], bool) or not isinstance(row[key], types)):
            problems.append(f"{key} has type {type(row[key]).__name__}")
    if problems:
        return problems
    for key in ("parent", "change"):
        if row[key] is not None and not COMMIT.match(row[key]):
            problems.append(f"{key} is not a 40-hex commit id")
    if row["workload"] not in WORKLOADS:
        problems.append(f"unknown workload {row['workload']!r}")
    for key in ("parent_quartiles", "change_quartiles"):
        q = row[key]
        if len(q) != 2 or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in q):
            problems.append(f"{key} is not [q1, q3]")
        elif q[0] > q[1]:
            problems.append(f"{key} has q1 > q3")
    if row["pr"] < 1 or row["pairs"] < 1 or row["probe_ms"] <= 0:
        problems.append("pr, pairs and probe_ms must be positive")
    return problems


def check(path, base):
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    bad = 0
    for n, text in enumerate(lines, 1):
        try:
            row = json.loads(text)
        except json.JSONDecodeError as e:
            problems = [f"not JSON ({e.msg})"]
        else:
            problems = line_problems(row)
        for p in problems:
            log(f"{path}:{n}: {p}")
        bad += bool(problems)
    if base is not None:
        old = Path(base).read_text().splitlines()
        if lines[: len(old)] != old:
            first = next(
                (i for i, (a, b) in enumerate(zip(old, lines), 1) if a != b),
                len(lines) + 1,
            )
            log(f"{path}:{first}: a line of the base copy was changed or removed "
                "(the trajectory is append-only)")
            bad += 1
    if bad:
        fail(f"{bad} problem(s) in {path}")
    grown = "" if base is None else f", {len(lines) - len(old)} new since the base"
    log(f"ok: {len(lines)} well-formed line(s){grown}")


def head_commit(repo):
    done = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    commit = done.stdout.strip()
    if done.returncode != 0 or not COMMIT.match(commit):
        fail(f"cannot read the commit id of {repo}")
    return commit


def run_once(side, repo, target, args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(cmd, cwd=repo, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if done.returncode != 0 or not result or not result.get("correct"):
        log(done.stderr[-4000:])
        fail(f"the {side} run in {repo} failed (exit {done.returncode})")
    probes = [float(v) for line in done.stderr.splitlines() if line.startswith(PROBE_LINE)
              for v in line[len(PROBE_LINE):].split()]
    if not probes:
        fail(f"the {side} run printed no host-speed probe")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    log(f"{side:6s} " + " ".join(f"{k}={v:.6g}" for k, v in values.items())
        + f" probe_ms={statistics.median(probes):.1f}")
    return values, statistics.median(probes)


def measure(args):
    parent = Path(args.parent).resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        fail(f"{parent} has no perfbench/run.py")
    targets = {
        "parent": Path(args.target_root).resolve() / "parent" if args.target_root
        else parent / ".bench_build",
        "change": Path(args.target_root).resolve() / "change" if args.target_root
        else ROOT / ".bench_build",
    }
    repos = {"parent": parent, "change": ROOT}
    runs = {"parent": [], "change": []}
    probes = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values, probe = run_once(side, repos[side], targets[side], args)
            runs[side].append(values)
            probes.append(probe)
        log(f"pair {i + 1}/{args.pairs} done")

    rows = []
    for m in SPEC["end_to_end"]:
        name = m["name"]
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        higher = m["better"] == "higher"
        wins = sum((cv > pv) if higher else (cv < pv) for pv, cv in zip(p, c))
        pm, cm = statistics.median(p), statistics.median(c)
        pq, cq = quartiles(p), quartiles(c)
        log(f"{name}: parent {pm:.6g} [{pq[0]:.6g}, {pq[1]:.6g}] -> change {cm:.6g} "
            f"[{cq[0]:.6g}, {cq[1]:.6g}], ratio {cm / pm:.3f}, "
            f"change better in {wins}/{args.pairs} pairs")
        rows.append({
            "pr": args.pr,
            "parent": head_commit(parent),
            "change": None,
            "workload": args.workload,
            "seed": args.seed,
            "metric": name,
            "unit": m["unit"],
            "parent_median": round(pm, 6),
            "change_median": round(cm, 6),
            "parent_quartiles": [round(v, 6) for v in pq],
            "change_quartiles": [round(v, 6) for v in cq],
            "pairs": args.pairs,
            "probe_ms": round(statistics.median(probes), 1),
        })
    for row in rows:
        problems = line_problems(row)
        if problems:
            fail(f"refusing to append a malformed row: {problems}")
    out = ROOT / TRAJECTORY
    with out.open("a") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")
    log(f"appended {len(rows)} row(s) to {out}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="validate the trajectory file instead of measuring")
    ap.add_argument("--base", help="with --check: an earlier copy the file must extend")
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--pr", type=int, help="number naming the change")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--target-root",
                    help="build into DIR/parent and DIR/change (default: each side's .bench_build)")
    args = ap.parse_args()
    if args.check:
        check(ROOT / TRAJECTORY, args.base)
        return
    if None in (args.parent, args.pr, args.workload, args.seed):
        ap.error("measuring needs --parent, --pr, --workload and --seed")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    measure(args)


if __name__ == "__main__":
    main()
