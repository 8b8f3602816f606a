"""Compare a parent and a change by the benchmark's recorded runs.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 bench/compare.py --run PARENT_ROOT CHANGE_ROOT --workload journal \
        [--workload history ...] [--pairs 10] [--seed N] [--seconds S] --out-dir DIR

The first form judges records that ``run.py --out`` appended; the i-th run of
a workload in one file is paired with the i-th run in the other.  ``--run``
first makes ``--pairs`` pairs per workload with this benchmark's own code
against both checkouts, alternating which side runs first, and writes
``parent.jsonl`` and ``change.jsonl`` under ``--out-dir``.

One row per workload and end-to-end metric:
  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and its median beats the parent's by more than the
              parent's interquartile spread;
  worse       the change's median is worse than the parent's by more than the
              metric's bound and by more than the parent's spread;
  unresolved  fewer than 10 pairs, a difference inside the parent's spread, or
              a spread wider than the bound (unless every change run beats
              every parent run); a gain with more failed operations than the
              parent is unresolved too;
  unchanged   otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import BENCH_DIR, EXTRA_METRICS, load_spec

MIN_PAIRS = 10
WIN_SHARE = 0.9


def judge(parent, change, better, bound):
    """Verdict and details for one metric's paired values."""
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        spread = q3 - q1
    else:
        spread = 0.0
    gain = sign * (p_med - c_med)
    scale = abs(p_med) or 1.0
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if n < MIN_PAIRS:
        verdict = "unresolved"
    elif gain > spread and wins >= WIN_SHARE * n:
        verdict = "improved"
    elif -gain > bound * scale:
        verdict = "worse" if -gain > spread else "unresolved"
    elif spread > bound * scale and not every_run_better:
        verdict = "unresolved"
    elif gain != 0 and abs(gain) <= spread:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return verdict, {"pairs": n, "wins": wins, "parent_median": p_med,
                     "change_median": c_med, "parent_spread": spread,
                     "change_pct": 100.0 * (c_med - p_med) / scale}


def load_runs(path):
    runs: dict[str, list] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def compare(parent_path, change_path):
    """Print one row per workload and metric; returns the verdict rows."""
    metrics = {m["name"]: m for m in load_spec()["end_to_end"]}
    metrics.update({k: {"name": k, **v} for k, v in EXTRA_METRICS.items()})
    parent, change = load_runs(parent_path), load_runs(change_path)
    rows = []
    print(f"{'workload':18s} {'metric':16s} {'verdict':11s} {'parent':>12s} "
          f"{'change':>12s} {'diff%':>8s} {'spread':>10s} wins")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        more_failures = (sum(r["result"]["failed"] for r in c_runs)
                         > sum(r["result"]["failed"] for r in p_runs))
        for name, m in metrics.items():
            pv = [r["e2e"][name]["value"] for r in p_runs if name in r.get("e2e", {})]
            cv = [r["e2e"][name]["value"] for r in c_runs if name in r.get("e2e", {})]
            if not pv or not cv:
                continue
            verdict, d = judge(pv, cv, m["better"], m["bound"])
            if verdict == "improved" and more_failures:
                verdict = "unresolved"
            rows.append((workload, name, verdict, d))
            print(f"{workload:18s} {name:16s} {verdict:11s} {d['parent_median']:12.4f} "
                  f"{d['change_median']:12.4f} {d['change_pct']:+8.2f} "
                  f"{d['parent_spread']:10.4f} {d['wins']}/{d['pairs']}")
    return rows


def run_pairs(parent_root, change_root, workloads, pairs, seed, seconds, out_dir):
    """Alternate parent-first and change-first runs, ``pairs`` per workload."""
    os.makedirs(out_dir, exist_ok=True)
    sides = [("parent", parent_root), ("change", change_root)]
    for workload in workloads:
        for i in range(pairs):
            for side, root in (sides if i % 2 == 0 else sides[::-1]):
                argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                        "--root", root, "--workload", workload, "--seconds", str(seconds),
                        "--out", os.path.join(out_dir, f"{side}.jsonl")]
                if seed is not None:
                    argv += ["--seed", str(seed)]
                proc = subprocess.run(argv, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL)
                print(f"{workload} pair {i + 1}/{pairs} {side}: exit {proc.returncode}",
                      file=sys.stderr)
    return os.path.join(out_dir, "parent.jsonl"), os.path.join(out_dir, "change.jsonl")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="parent results (JSONL) or, with --run, checkout")
    parser.add_argument("change", help="change results (JSONL) or, with --run, checkout")
    parser.add_argument("--run", action="store_true", help="run the pairs first")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)
    parent, change = args.parent, args.change
    if args.run:
        if not args.workload or not args.out_dir:
            parser.error("--run needs --workload and --out-dir")
        parent, change = run_pairs(os.path.abspath(parent), os.path.abspath(change),
                                   args.workload, args.pairs, args.seed, args.seconds,
                                   args.out_dir)
    rows = compare(parent, change)
    return 1 if any(v == "worse" for _, _, v, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
