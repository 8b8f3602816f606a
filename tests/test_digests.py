"""The byte contract: outputs for a fixed seed repeat across commits.

``generate -> validate -> features -> analyze`` runs in process on the tiny
benchmark corpus at two seeds, and the SHA-256 of the event log,
``features.csv``, ``features.csv.missing`` and every analysis CSV must equal
the digests committed in ``digests.json``.  Models and predictions are left
out: their bytes drift with the BLAS kernel.  A change that alters these
bytes on purpose rewrites the file with
``PYTHONPATH=src python tests/test_digests.py`` and declares each changed
digest.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from revnet.cli import main

from helpers import benchmark_configs

DIGESTS = Path(__file__).with_name("digests.json")
SEEDS = (3, 6)
WINDOW = ("2008", "2009")  # the tiny workload's publication years


def pipeline_digests(root: Path, seed: int) -> dict[str, str]:
    """Run the pipeline under ``root``; SHA-256 per output, keyed by path."""
    config = root / "config.json"
    config.write_text(json.dumps(benchmark_configs()["tiny"]), encoding="utf-8")
    log = root / "events.jsonl"
    for argv in (["generate", str(log), "--config", str(config), "--seed", str(seed)],
                 ["validate", str(log)],
                 ["features", str(log), str(root / "features"),
                  "--year-from", WINDOW[0], "--year-to", WINDOW[1]],
                 ["analyze", str(log), str(root / "analysis")]):
        assert main(argv) == 0, argv
    outputs = [log, root / "features" / "features.csv",
               root / "features" / "features.csv.missing",
               *sorted((root / "analysis").glob("*.csv"))]
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in outputs}


@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_match_the_committed_digests(tmp_path, seed):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[str(seed)]
    actual = pipeline_digests(tmp_path, seed)
    mismatches = [f"{name}: expected {expected.get(name)}, got {actual.get(name)}"
                  for name in sorted(expected.keys() | actual.keys())
                  if expected.get(name) != actual.get(name)]
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    digests = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            digests[str(seed)] = pipeline_digests(Path(tmp), seed)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
