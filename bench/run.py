"""Benchmark of the revnet CLI pipeline, end to end (``--trace 0``) or per
layer (``--trace 1``).

    python3 bench/run.py --workload journal --seed 6 --seconds 30 --trace 0

A run sets up three corpora of the workload, seeded ``3 * seed + j`` (each in
a fresh interpreter: package import, ``synth.generate``, log written), then
runs the workload's CLI stages on them in turn, in a fresh child process per
pass, one caller and one stage at a time, until ``--seconds`` have passed
since the run began (at least four passes, so the first corpus runs twice
and its output digests can be compared).  Each pass's outputs are checked.
A pass metric is the mean over the corpora of each corpus's median pass,
which keeps seed-to-seed differences between corpora from dominating.  Each
pass's stage times are scaled by a fixed reference routine timed before,
between and after its stages (``REFERENCE_S``), which takes out the host's
speed drift; the unscaled ``pipeline_wall_s`` is reported beside it.  The
human-readable report goes to stderr; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out FILE`` appends the full record (samples, digests, environment) as one
JSON line for ``compare.py``.

With ``--trace 1`` the run makes untraced and traced passes in turn, two of
each, on one corpus; a traced pass wraps revnet's public functions (see
``tracer.py``).  The metrics are the first traced pass's per-layer ones plus
the tracing overhead (median traced over median untraced ``pipeline_s``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402
from workloads import BLAS_THREADS, WORKLOADS  # noqa: E402

CORPORA = 3  # per run, seeded seed * CORPORA + j; corpus 0 runs twice
TRACE_PASSES = 4  # untraced and traced in turn, for the tracing overhead
# Nominal time of child.reference_seconds().  Reported times are scaled to a
# host on which the reference takes this long: the host this benchmark was
# tuned on changes speed by a fifth within minutes, for all code alike.
REFERENCE_S = 0.1
DEADLINE_S = 170.0  # the whole run, set-up and checks included

FEATURE_NAMES = ("Deg", "BC", "CC", "Clus", "PR", "RR", "TS", "RL", "SNT",
                 "AR", "AP", "RAC", "TA", "DR")
CSV_HEADER = "paper_id," + ",".join(FEATURE_NAMES) + ",target,year"

# Reported and compared, but not in BENCHMARK.json: the unscaled wall time and
# the reference time it was scaled by; stage times, which move with the
# host's noise more than a bound allows over ten seeds; and what history,
# which does not train, lacks (see README.md).
EXTRA_METRICS = {
    "pipeline_wall_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "host_ref_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "features_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "analyze_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "train_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "cv_r2_network": {"unit": "R2", "better": "higher", "bound": 0.02},
    "cv_r2_full": {"unit": "R2", "better": "higher", "bound": 0.02},
}


def load_spec():
    """BENCHMARK.json: metric names, units, directions and bounds."""
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# -- child processes ---------------------------------------------------------


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def run_child(mode, tag, spec, run_dir, deadline):
    """Run child.py; returns (wall seconds, result dict or None, error text)."""
    spec = {**spec, "result": os.path.join(run_dir, tag + ".result.json")}
    spec_path = os.path.join(run_dir, tag + ".spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    log_path = os.path.join(run_dir, tag + ".log")
    started = time.perf_counter()
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "child.py"), mode, spec_path],
                stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return time.perf_counter() - started, None, f"{mode} child timed out"
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8") as fh:
            return wall, None, f"{mode} child exit {proc.returncode}: {fh.read()[-2000:]}"
    with open(spec["result"], encoding="utf-8") as fh:
        return wall, json.load(fh), None


# -- output checks -----------------------------------------------------------


def expected_rows(log_path, window):
    """Accepted papers decided inside ``window`` with a citation record,
    counted from the log itself."""
    lo, hi = window
    accepted, cited = set(), set()
    with open(log_path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["type"] == "decision" and rec["outcome"] == "accept" \
                    and lo <= int(rec["date"][:4]) <= hi:
                accepted.add(rec["paper_id"])
            elif rec["type"] == "citation":
                cited.add(rec["paper_id"])
    return len(accepted & cited)


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def _finite(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def check_stage(stage, work, workload, rows):
    """Problems with one stage's outputs (empty when they are correct)."""
    kind = stage["command"]
    try:
        if kind == "features":
            csv = _read_csv(os.path.join(work, "features", "features.csv"))
            missing = _read_csv(os.path.join(work, "features", "features.csv.missing"))
            lo, hi = workload["window"]
            if ",".join(csv[0]) != CSV_HEADER:
                return [f"features header {csv[0]}"]
            if len(csv) - 1 != rows or len(missing) - 1 != rows:
                return [f"features rows {len(csv) - 1}/{len(missing) - 1}, expected {rows}"]
            if any(len(r) != len(csv[0]) or not _finite(r[-2])
                   or not lo <= int(r[-1]) <= hi for r in csv[1:]):
                return ["features row with a wrong width, target or year"]
        elif kind == "train":
            kind_name = stage["name"].split("_", 1)[1]
            with open(os.path.join(work, f"report_{kind_name}.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            with open(os.path.join(work, f"model_{kind_name}.json"), encoding="utf-8") as fh:
                model = json.load(fh)
            if not _finite(report["r2"]) or not model["dual_coefs"]:
                return [f"{stage['name']}: r2 {report['r2']}, "
                        f"{len(model['dual_coefs'])} dual coefficients"]
        elif kind == "predict":
            preds = _read_csv(os.path.join(work, "predictions.csv"))
            feats = _read_csv(os.path.join(work, "features", "features.csv"))
            if preds[0] != ["paper_id", "prediction"] \
                    or [r[0] for r in preds[1:]] != [r[0] for r in feats[1:]] \
                    or not all(_finite(r[1]) for r in preds[1:]):
                return ["predictions do not match the feature rows or are not finite"]
        elif kind == "analyze":
            with open(os.path.join(work, "analysis", "manifest.json"), encoding="utf-8") as fh:
                listed = [e["file"] for e in json.load(fh)["analyses"].values()]
            absent = [f for f in listed if not os.path.exists(os.path.join(work, "analysis", f))]
            if not listed or absent:
                return [f"analysis files missing: {absent or 'all'}"]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{stage['name']} outputs unreadable: {exc!r}"]
    return []


def cv_r2(work):
    out = {}
    for kind in ("network", "full"):
        path = os.path.join(work, f"report_{kind}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                out[f"cv_r2_{kind}"] = json.load(fh)["r2"]
    return out


def r2_gate(workload, r2):
    floor = workload.get("r2_floor")
    if floor is None:
        return {}
    net, full = r2.get("cv_r2_network", -math.inf), r2.get("cv_r2_full", -math.inf)
    problems = {}
    if not net >= floor:
        problems["train_network"] = f"cv_r2_network {net:.4f} below {floor}"
    if not full >= net:
        problems["train_full"] = f"cv_r2_full {full:.4f} below cv_r2_network {net:.4f}"
    return problems


def digests(work, workload):
    """SHA-256 of each stage's outputs: {stage name: {relative path: digest}}."""
    out = {}
    for stage in workload["stages"]:
        files = {}
        for rel in stage["outputs"]:
            path = os.path.join(work, rel)
            if os.path.isdir(path):
                for name in sorted(os.listdir(path)):
                    if not name.endswith((".manifest.json", ".tmp")):
                        files[f"{rel}/{name}"] = sha256(os.path.join(path, name))
            elif os.path.exists(path):
                files[rel] = sha256(path)
        out[stage["name"]] = files
    return out


def score(workload, passes):
    """Fill each pass's per-stage ``problems``; returns (attempted, failed).

    A stage invocation fails on a nonzero exit, a failed output check, or
    output digests that differ from the first pass's on the same corpus.
    """
    attempted = failed = 0
    reference = {}
    for p in passes:
        reference.setdefault(p["corpus"], p["digests"])
    for p in passes:
        ref = reference[p["corpus"]]
        for st in p["stages"]:
            problems = st.setdefault("problems", [])
            if st["rc"] != 0:
                problems.insert(0, f"exit code {st['rc']}")
            if p["digests"].get(st["name"]) != ref.get(st["name"]):
                problems.append("output digests differ from this corpus's first pass")
            attempted += 1
            failed += bool(problems)
    return attempted, failed


# -- statistics ---------------------------------------------------------------


def summarize(values):
    """Median, the highest percentile with at least ten samples beyond it
    (None below 20 samples), and the sample count."""
    values = sorted(values)
    n = len(values)
    tail = None
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            tail = [q, values[min(n - 1, math.ceil(q / 100 * n) - 1)]]
            break
    return {"median": statistics.median(values), "tail": tail, "n": n}


def scale_stages(p):
    """Add ``scaled`` to each stage: its wall time times REFERENCE_S over the
    median of the reference times taken around the pass's stages."""
    factor = REFERENCE_S / statistics.median(p["refs"])
    for st in p["stages"]:
        st["scaled"] = st["seconds"] * factor


def stage_seconds(p, command=None):
    return sum(st["scaled"] for st in p["stages"]
               if command is None or st["command"] == command)


# -- one run ---------------------------------------------------------------


def run_benchmark(root, name, workload, seed, seconds, trace):
    """Set up, run passes, check outputs; returns the full record."""
    t0 = time.monotonic()
    deadline = t0 + DEADLINE_S
    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=base)
    spec = {"root": root, "workload": workload}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "problems": []}
    try:
        corpora, setups = [], []
        for j in range(1 if trace else CORPORA):
            log = os.path.join(run_dir, f"events-{j}.jsonl")
            corpus = {**spec, "seed": seed * CORPORA + j, "log": log}
            wall, res, err = run_child("setup", f"setup-{j}", {**corpus, "trace": trace},
                                       run_dir, deadline)
            if err:
                record["problems"].append(err)
                return record
            setups.append({"seconds": wall, **res})
            corpora.append({**corpus, "log_sha256": sha256(log),
                            "rows": expected_rows(log, workload["window"])})
        record["setup"] = [s["seconds"] for s in setups]
        record["corpora"] = [{k: c[k] for k in ("seed", "log_sha256", "rows")}
                             for c in corpora]
        record["env"] = environment(root, setups[0])

        passes = []
        while not (len(passes) == TRACE_PASSES if trace else len(passes) > len(corpora)
                   and time.monotonic() - t0 >= seconds):
            k = len(passes)
            j = k % len(corpora)
            work = os.path.join(run_dir, f"pass-{k}")
            os.makedirs(work)
            traced = bool(trace and k % 2)
            wall, res, err = run_child("pipeline", f"pass-{k}",
                                       {**corpora[j], "work": work, "trace": traced},
                                       run_dir, deadline)
            if err:
                record["problems"].append(err)
                break
            res.update(corpus=j, traced=traced, digests=digests(work, workload),
                       cv_r2=cv_r2(work))
            scale_stages(res)
            gate = r2_gate(workload, res["cv_r2"])
            for st in res["stages"]:
                st["problems"] = check_stage(st, work, workload, corpora[j]["rows"])
                if st["name"] in gate:
                    st["problems"].append(gate[st["name"]])
            passes.append(res)
            shutil.rmtree(work)

        record["attempted"], record["failed"] = score(workload, passes)
        record["passes"] = [{k: v for k, v in p.items() if k not in ("spans", "counters")}
                            for p in passes]
        plain = [p for p in passes if not p["traced"]]
        record["e2e"] = end_to_end(record, plain)
        if trace and len(passes) == TRACE_PASSES:
            record["layers"] = per_layer(passes, setups, plain)
        return record
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def environment(root, setup):
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
        commit = head.stdout.strip() if head.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"git_head": commit, "python": setup["python"], "numpy": setup["numpy"],
            "blas": setup["blas"], "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "synth_config": setup["config"], "events": setup["events"]}


def end_to_end(record, plain):
    """Every end-to-end metric: the mean over the run's corpora of each
    corpus's median pass, with the pass samples."""
    per_pass = {
        "pipeline_s": stage_seconds,
        "pipeline_wall_s": lambda p: sum(st["seconds"] for st in p["stages"]),
        "host_ref_s": lambda p: statistics.median(p["refs"]),
        "features_s": lambda p: stage_seconds(p, "features"),
        "analyze_s": lambda p: stage_seconds(p, "analyze"),
        "train_s": lambda p: stage_seconds(p, "train"),
        "peak_rss_mb": lambda p: p["peak_rss_mb"],
    }
    if not any(st["command"] == "train" for p in plain for st in p["stages"]):
        del per_pass["train_s"]
    out = {}
    for name, value in per_pass.items():
        by_corpus: dict[int, list] = {}
        for p in plain:
            by_corpus.setdefault(p["corpus"], []).append(value(p))
        out[name] = {"value": statistics.fmean(statistics.median(v)
                                               for v in by_corpus.values()),
                     **summarize([value(p) for p in plain])}
    if record.get("setup") and plain:
        # set-up ran just before the passes: scale it by their reference times
        host = statistics.median(r for p in plain for r in p["refs"])
        setup = [s * REFERENCE_S / host for s in record["setup"]]
        out["setup_s"] = {"value": statistics.median(setup), **summarize(setup)}
    if record.get("attempted"):
        share = 1.0 - record["failed"] / record["attempted"]
        out["ok_stage_share"] = {"value": share, **summarize([share])}
    first = {p["corpus"]: p["cv_r2"] for p in reversed(plain)}
    for name in ("cv_r2_network", "cv_r2_full"):
        vals = [r2[name] for r2 in first.values() if name in r2]
        if vals:
            out[name] = {"value": statistics.fmean(vals), **summarize(vals)}
    return out


def per_layer(passes, setups, plain):
    traced = [p for p in passes if p["traced"]]
    values = tracer.layer_metrics(traced[0]["spans"], traced[0]["counters"])
    synth = tracer.layer_metrics(setups[0].get("spans", []), setups[0].get("counters", {}))
    values["synth.generate_s"] = synth["synth.generate_s"]
    values["synth.events"] = synth["synth.events"]
    t_plain = statistics.median(stage_seconds(p) for p in plain)
    t_traced = statistics.median(stage_seconds(p) for p in traced)
    values["trace.overhead_pct"] = 100.0 * (t_traced / t_plain - 1.0)
    values["trace.spans"] = len(traced[0]["spans"])
    values["top_self_share"] = [[n, round(100 * s, 2)]
                                for n, s in tracer.self_shares(traced[0]["spans"])[:6]]
    return values


# -- reporting ------------------------------------------------------------------


def report(record, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({k: v["unit"] for k, v in EXTRA_METRICS.items()})
    units.update({k: v for k, v in tracer.LAYER_METRICS.items()})
    err = sys.stderr
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  env {json.dumps(record.get('env', {}).get('git_head'))}",
          file=err)
    for name, s in record.get("e2e", {}).items():
        tail = f"p{s['tail'][0]} {s['tail'][1]:.4f}" if s["tail"] else "p-- (n<20)"
        print(f"  {name:18s} {s['value']:12.4f} {units.get(name, ''):6s} "
              f"median {s['median']:10.4f} {tail:16s} n={s['n']}", file=err)
    for name, v in record.get("layers", {}).items():
        if name != "top_self_share":
            print(f"  {name:38s} {v:14.4f} {units.get(name, '')}", file=err)
    if "layers" in record:
        print("  top self-time shares: " + ", ".join(
            f"{n} {s}%" for n, s in record["layers"]["top_self_share"]), file=err)
    print(f"  failed_ops {record.get('failed', '?')}/{record.get('attempted', '?')}",
          file=err)
    for p in record.get("passes", []):
        for st in p["stages"]:
            for problem in st["problems"]:
                print(f"  FAILED {st['name']}: {problem}", file=err)
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}", file=err)


def result_line(record, spec):
    correct = (not record["problems"] and record.get("attempted", 0) > 0
               and record["failed"] == 0)
    if record["trace"]:
        names = [m["name"] for m in spec["per_layer"]]
        values = record.get("layers", {})
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = {k: v["value"] for k, v in record.get("e2e", {}).items()}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names if n in values}
    correct = correct and len(metrics) == len(names)
    return {"correct": correct, "attempted": max(1, record.get("attempted", 0)),
            "failed": record.get("failed", 0) + len(record["problems"]),
            "metrics": metrics}


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="corpus seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", default=os.path.dirname(BENCH_DIR),
                        help="checkout whose src/revnet is measured")
    parser.add_argument("--out", default=None, help="append the full record here")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    if not os.path.isfile(os.path.join(root, "src", "revnet", "cli.py")):
        print(f"error: no revnet sources under {root}/src", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload["default_seed"] if args.seed is None else args.seed
    record = run_benchmark(root, args.workload, workload, seed, args.seconds, args.trace)
    report(record, spec)
    line = result_line(record, spec)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**record, "result": line}) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
