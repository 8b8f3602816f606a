import functools
import hashlib
import json
import math

import numpy as np
import pytest

from revnet import svr
from revnet.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from revnet.features import NETWORK_FEATURES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated log reused by the pipeline tests."""
    root = tmp_path_factory.mktemp("cli")
    log = root / "events.jsonl"
    config = root / "config.json"
    config.write_text(json.dumps({"seed": 11, "papers_per_year": 120,
                                  "n_years": 3, "n_reviewers": 50,
                                  "n_editors": 10, "n_authors": 120}))
    code = main(["generate", str(log), "--config", str(config)])
    assert code == EXIT_OK
    return root


def test_generate_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["generate", str(a), "--seed", "4"]) == EXIT_OK
    assert main(["generate", str(b), "--seed", "4"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    manifest = json.loads((tmp_path / "a.jsonl.manifest.json").read_text())
    assert manifest["command"] == "generate" and manifest["seed"] == 4
    assert manifest["outputs"]["a.jsonl"] == sha256(a)


def test_generate_keeps_config_seed(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 7, "papers_per_year": 20, "n_years": 1}))
    assert main(["generate", str(tmp_path / "a.jsonl"), "--config", str(config)]) == EXIT_OK
    manifest = json.loads((tmp_path / "a.jsonl.manifest.json").read_text())
    assert manifest["seed"] == 7 and manifest["params"]["seed"] == 7
    assert main(["generate", str(tmp_path / "b.jsonl"), "--config", str(config),
                 "--seed", "3"]) == EXIT_OK
    manifest = json.loads((tmp_path / "b.jsonl.manifest.json").read_text())
    assert manifest["seed"] == 3
    assert main(["generate", str(tmp_path / "c.jsonl")]) == EXIT_OK
    manifest = json.loads((tmp_path / "c.jsonl.manifest.json").read_text())
    assert manifest["seed"] == 0


def test_validate_accepts_generated_log(workspace, capsys):
    code, out, err = run(capsys, "validate", str(workspace / "events.jsonl"))
    assert code == EXIT_OK
    assert "0 error(s)" in out


def test_validate_flags_broken_log(tmp_path, capsys):
    log = tmp_path / "bad.jsonl"
    log.write_text('{"type": "decision", "paper_id": "p", '
                   '"date": "2010-01-01", "outcome": "accept", "round": 1}\n'
                   "garbage\n")
    code, out, err = run(capsys, "validate", str(log))
    assert code == EXIT_VALIDATION
    assert "error" in err


def test_missing_input_is_io_error(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(tmp_path / "absent.jsonl"))
    assert code == EXIT_IO


def test_features_train_predict_pipeline(workspace, capsys):
    log = workspace / "events.jsonl"
    feat_dir = workspace / "features"
    code, out, _ = run(capsys, "features", str(log), str(feat_dir),
                       "--year-from", "2008", "--year-to", "2010")
    assert code == EXIT_OK
    feat_csv = feat_dir / "features.csv"
    assert feat_csv.exists() and (feat_dir / "features.csv.missing").exists()
    manifest = json.loads((feat_dir / "features.manifest.json").read_text())
    assert manifest["inputs"]["events.jsonl"] == sha256(log)

    model = workspace / "model.json"
    report = workspace / "report.json"
    code, out, _ = run(capsys, "train", str(feat_csv), str(model),
                       "--network-only", "--gamma", "0.01",
                       "--folds", "5", "--report-out", str(report))
    assert code == EXIT_OK
    assert "pooled R2" in out and "F-statistics" in out
    doc = json.loads(report.read_text())
    assert doc["features"] == ["Deg", "BC", "CC", "Clus", "PR"]
    assert len(doc["fold_r2"]) == 5
    assert len(doc["fits"]) == 6  # five folds, then the final fit
    for fit in doc["fits"]:
        assert set(fit) == {"iterations", "converged", "kkt_gap", "n_support"}
        assert fit["converged"] and fit["kkt_gap"] <= 1e-3
    assert doc["fits"][-1]["n_support"] == len(json.loads(model.read_text())["dual_coefs"])

    preds = workspace / "preds.csv"
    code, out, _ = run(capsys, "predict", str(model), str(feat_csv), str(preds))
    assert code == EXIT_OK
    lines = preds.read_text().splitlines()
    assert lines[0] == "paper_id,prediction"
    n_rows = len(feat_csv.read_text().splitlines()) - 1
    assert len(lines) == n_rows + 1
    for line in lines[1:]:
        pid, value = line.split(",")
        float(value)


def test_train_reports_nonconvergence(workspace, tmp_path, capsys, monkeypatch):
    feat_dir = tmp_path / "features"
    assert main(["features", str(workspace / "events.jsonl"), str(feat_dir),
                 "--year-from", "2008", "--year-to", "2010"]) == EXIT_OK
    monkeypatch.setattr(svr, "SvrConfig", functools.partial(svr.SvrConfig, max_passes=3))
    report = tmp_path / "report.json"
    with pytest.warns(RuntimeWarning, match="without converging"):
        code = main(["train", str(feat_dir / "features.csv"), str(tmp_path / "model.json"),
                     "--network-only", "--folds", "3", "--report-out", str(report)])
    assert code == EXIT_OK
    fits = json.loads(report.read_text())["fits"]
    assert len(fits) == 4
    assert all(f["iterations"] == 3 and f["converged"] is False for f in fits)


def test_train_rejects_nonfinite_hyperparameter(workspace, capsys):
    code, out, err = run(capsys, "train", str(workspace / "absent.csv"),
                         str(workspace / "never.json"), "--gamma", "nan")
    assert code == EXIT_USAGE
    assert "gamma must be finite" in err


@pytest.mark.parametrize("tamper", [
    lambda doc: doc["dual_coefs"].pop(),
    lambda doc: doc["scaler_std"].pop(),
    lambda doc: doc.update(bias=math.inf),
])
def test_predict_rejects_tampered_model(tmp_path, capsys, tamper):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, len(NETWORK_FEATURES)))
    model = svr.fit(X, X[:, 0], svr.SvrConfig(gamma=0.5), NETWORK_FEATURES)
    path = tmp_path / "model.json"
    svr.save_model(model, path)
    doc = json.loads(path.read_text())
    tamper(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "predict", str(path), str(tmp_path / "absent.csv"),
                         str(tmp_path / "preds.csv"))
    assert code == EXIT_USAGE
    assert err.startswith("error: model ") and "Traceback" not in err


def test_analyze_writes_bundle(workspace, capsys):
    out_dir = workspace / "analysis"
    code, out, _ = run(capsys, "analyze", str(workspace / "events.jsonl"),
                       str(out_dir))
    assert code == EXIT_OK
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "run.manifest.json").exists()
    assert (out_dir / "summary.csv").exists()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
