"""The byte contract: outputs for a fixed seed repeat across commits.

``generate -> validate -> features -> analyze`` runs in process on the tiny
benchmark corpus at two seeds, and at one seed with six years instead of
three, so that the LQI contrast and the irregular-case lists have rows.  The
SHA-256 of the event log,
``features.csv``, ``features.csv.missing`` and every analysis CSV must equal
the digests committed in ``digests.json``, and every output but the log must
keep its digest when the log is reordered within validity.  Models and
predictions are left out: their bytes drift with the BLAS kernel.  A change
that alters these bytes on purpose rewrites the file with
``PYTHONPATH=src python tests/test_digests.py`` and declares each changed
digest.
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from revnet import centrality
from revnet.cli import main

from helpers import benchmark_configs

DIGESTS = Path(__file__).with_name("digests.json")
# key in digests.json -> (seed, overrides of the tiny workload's config)
CASES = {"3": (3, {}), "6": (6, {}), "6/n_years=6": (6, {"n_years": 6})}
WINDOW = ("2008", "2009")  # the tiny workload's publication years


def reorder(log: Path) -> None:
    """Rewrite ``log`` in another valid order: its lines stably sorted by
    date, then the lines of each (paper, type, round) group reversed in
    place."""
    lines = sorted(log.read_text(encoding="utf-8").splitlines(keepends=True),
                   key=lambda line: json.loads(line)["date"])
    groups: dict[tuple, list[int]] = {}
    for i, line in enumerate(lines):
        record = json.loads(line)
        groups.setdefault((record["paper_id"], record["type"], record.get("round")),
                          []).append(i)
    reordered = list(lines)
    for positions in groups.values():
        for i, j in zip(positions, reversed(positions)):
            reordered[i] = lines[j]
    log.write_text("".join(reordered), encoding="utf-8")


def pipeline_digests(root: Path, seed: int, overrides: dict,
                     reordered: bool = False) -> dict[str, str]:
    """Run the pipeline under ``root``, on the generated log or on it
    reordered; SHA-256 per output, keyed by path."""
    root.mkdir(exist_ok=True)
    config = root / "config.json"
    config.write_text(json.dumps({**benchmark_configs()["tiny"], **overrides}),
                      encoding="utf-8")
    log = root / "events.jsonl"
    assert main(["generate", str(log), "--config", str(config), "--seed", str(seed)]) == 0
    if reordered:
        reorder(log)
    for argv in (["validate", str(log)],
                 ["features", str(log), str(root / "features"),
                  "--year-from", WINDOW[0], "--year-to", WINDOW[1]],
                 ["analyze", str(log), str(root / "analysis")]):
        assert main(argv) == 0, argv
    outputs = [log, root / "features" / "features.csv",
               root / "features" / "features.csv.missing",
               *sorted((root / "analysis").glob("*.csv"))]
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in outputs}


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_the_committed_digests(tmp_path, case):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[case]
    actual = pipeline_digests(tmp_path / "generated", *CASES[case])
    mismatches = [f"{name}: expected {expected.get(name)}, got {actual.get(name)}"
                  for name in sorted(expected.keys() | actual.keys())
                  if expected.get(name) != actual.get(name)]
    assert not mismatches, "\n".join(mismatches)
    reordered = pipeline_digests(tmp_path / "reordered", *CASES[case], reordered=True)
    assert reordered.pop("events.jsonl") != actual.pop("events.jsonl")
    assert reordered == actual


@pytest.mark.parametrize("measure", centrality.MEASURES)
def test_a_one_ulp_change_to_a_graph_measure_changes_a_digest(tmp_path, monkeypatch,
                                                             measure):
    """The digests see every measure: each one moved up by one ulp in every
    table changes some output of case "3"."""
    compute_table = centrality.compute_table

    def nudged(graph):
        table = compute_table(graph)
        moved = np.nextafter(getattr(table, measure), np.inf)
        return dataclasses.replace(table, **{measure: moved})

    monkeypatch.setattr(centrality, "compute_table", nudged)
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))["3"]
    assert pipeline_digests(tmp_path, *CASES["3"]) != expected


def test_train_repeats_its_bytes(tmp_path):
    """Same seed, same model and report bytes, with the SVR's exact finish
    (a LAPACK solve) in the fits.  Model digests drift with the BLAS kernel,
    so they are compared run against run rather than committed."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(benchmark_configs()["tiny"]), encoding="utf-8")
    log = tmp_path / "events.jsonl"
    features_csv = tmp_path / "features" / "features.csv"
    for argv in (["generate", str(log), "--config", str(config), "--seed", "3"],
                 ["features", str(log), str(features_csv.parent),
                  "--year-from", WINDOW[0], "--year-to", WINDOW[1]]):
        assert main(argv) == 0, argv
    finished = 0
    for kind, flags in (("network", ["--network-only", "--gamma", "0.01"]),
                        ("full", ["--gamma", "0.002"])):
        runs = []
        for run in ("a", "b"):
            model, report = (tmp_path / f"{kind}_{run}_{name}.json"
                             for name in ("model", "report"))
            assert main(["train", str(features_csv), str(model), *flags, "--folds", "3",
                         "--report-out", str(report)]) == 0
            runs.append((model.read_bytes(), report.read_bytes()))
        assert runs[0] == runs[1], kind
        finished += sum(fit["finish_rounds"] > 0
                        for fit in json.loads(runs[0][1])["fits"])
    assert finished > 0


if __name__ == "__main__":
    digests = {}
    for case, (seed, overrides) in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            digests[case] = pipeline_digests(Path(tmp), seed, overrides)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
