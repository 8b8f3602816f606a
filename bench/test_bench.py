"""Self-test of the benchmark on tiny corpora.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()
TINY = WORKLOADS["tiny"]


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_record():
    return run.run_benchmark(ROOT, "tiny", TINY, 1, 0.0, 0)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == [w for w in WORKLOADS if w != "tiny"]
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layer == {**tracer.LAYER_METRICS, "trace.overhead_pct": "%",
                     "trace.spans": "count"}


def test_plain_run_emits_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0"]) == 0
    line = last_json(capsys.readouterr().out)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 4 * 6
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_run_emits_every_layer_metric(capsys):
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0",
                     "--trace", "1"]) == 0
    line = last_json(capsys.readouterr().out)
    assert line["correct"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert values["svr.fit_calls"] == 2 * (3 + 1)
    assert values["features.rows"] == values["features.supporting_features_calls"]
    assert values["synth.events"] == values["corpus.events"] > 0


def test_digests_repeat_and_are_recorded(tiny_record):
    assert tiny_record["failed"] == 0 and not tiny_record["problems"]
    digests = tiny_record["passes"][0]["digests"]
    assert "features/features.csv" in digests["features"]
    assert "model_full.json" in digests["train_full"]
    assert "analysis/summary.csv" in digests["analyze"]
    assert not any(name.endswith(".manifest.json")
                   for files in digests.values() for name in files)
    env = tiny_record["env"]
    assert env["blas_threads"] <= env["nproc"] and env["synth_config"]["seed"] == 3
    assert [c["seed"] for c in tiny_record["corpora"]] == [3, 4, 5]


def test_tampered_digest_is_a_failed_op(tiny_record):
    passes = copy.deepcopy(tiny_record["passes"])
    for p in passes:
        for st in p["stages"]:
            st["problems"] = []
    assert [p["corpus"] for p in passes] == [0, 1, 2, 0]
    assert run.score(TINY, passes) == (24, 0)
    passes[3]["digests"]["features"]["features/features.csv"] = "0" * 64
    assert run.score(TINY, passes) == (24, 1)


def test_failing_stage_is_a_failed_op():
    broken = copy.deepcopy(TINY)
    train = next(st for st in broken["stages"] if st["name"] == "train_network")
    train["argv"][train["argv"].index("--folds") + 1] = "100000"
    record = run.run_benchmark(ROOT, "tiny", broken, 1, 0.0, 0)
    failed = {st["name"] for p in record["passes"] for st in p["stages"] if st["problems"]}
    assert failed == {"train_network"} and record["failed"] == 4
    line = run.result_line(record, SPEC)
    assert not line["correct"] and line["failed"] == 4
    assert line["metrics"]["ok_stage_share"]["value"] == 1 - 4 / 24


def test_self_times_and_layer_booking():
    spans = [["cli.features", 0.0, 10.0, None, "0"],
             ["features.assemble_matrix", 1.0, 9.0, 0, "0"],
             ["centrality.compute_table", 2.0, 5.0, 1, "0"],
             ["centrality.clustering", 3.0, 4.0, 2, "0"],
             ["cli.analyze", 10.0, 14.0, None, "1"],
             ["analysis.run_all", 10.5, 13.5, 4, "1"],
             ["centrality.compute_table", 11.0, 12.0, 5, "1"]]
    assert tracer.self_times(spans) == [2.0, 5.0, 2.0, 1.0, 1.0, 2.0, 1.0]
    m = tracer.layer_metrics(spans, {})
    assert m["centrality.compute_table_calls"] == 2
    assert m["centrality.brandes_s"] == 3.0
    assert m["analysis.compute_table_s"] == 1.0
    assert m["cli.self_s"] == 3.0


def test_stage_times_scale_with_the_reference():
    p = {"refs": [0.1, 0.3, 0.2],
         "stages": [{"seconds": 1.0, "command": "features"},
                    {"seconds": 2.0, "command": "analyze"}]}
    run.scale_stages(p)
    assert [st["scaled"] for st in p["stages"]] == pytest.approx([0.5, 1.0])
    assert run.stage_seconds(p, "analyze") == pytest.approx(1.0)


def test_judge_rules():
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.judge(parent, [v * 0.8 for v in parent], "lower", 0.1)[0] == "improved"
    assert compare.judge(parent, [v * 1.3 for v in parent], "lower", 0.1)[0] == "worse"
    assert compare.judge(parent, list(parent), "lower", 0.1)[0] == "unchanged"
    # a better median inside the parent's spread is not a gain
    assert compare.judge(parent, [v - 0.01 for v in parent], "lower", 0.1)[0] == "unresolved"
    wide = [5.0, 15.0] * 5
    assert compare.judge(wide, list(wide), "lower", 0.1)[0] == "unresolved"
    assert compare.judge(parent[:5], parent[:5], "lower", 0.1)[0] == "unresolved"
    assert compare.judge([0.8] * 10, [0.7] * 10, "higher", 0.02)[0] == "worse"


def test_compare_runs_alternating_pairs(tmp_path, capsys):
    assert compare.main([ROOT, ROOT, "--run", "--workload", "tiny", "--pairs", "2",
                         "--seconds", "0", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr()
    order = [line.split()[-3] for line in out.err.splitlines() if "pair" in line]
    assert order == ["parent:", "change:", "change:", "parent:"]
    rows = [line.split() for line in out.out.splitlines()[1:]]
    assert {r[1] for r in rows} >= {"pipeline_s", "setup_s", "cv_r2_full"}
    assert all(r[2] == "unresolved" for r in rows)  # two pairs are too few


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tiny",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
