import datetime as dt
import functools
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import revnet
from revnet import centrality, features, svr
from revnet.cli import (EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION,
                        _check_outputs, main)
from revnet.corpus import Corpus, Report, write_events
from revnet.features import NETWORK_FEATURES
from revnet.text_metrics import CATEGORIES, LEXICON_DIR_ENV, load_lexicon

from helpers import (BAD_PAPER_IDS, SAMPLE, WRONGLY_TYPED, minimal_paper,
                     reference_supporting_features)


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


@pytest.mark.parametrize("config, fragment", [
    ({"submission_grid_days": -7}, "submission_grid_days"),
    ({"submission_grid_days": 0}, "submission_grid_days"),
    ({"papers_per_year": 2.5}, "papers_per_year"),
    ({"seeed": 3}, "'seeed'"),
    ([{"seed": 3}], "JSON object"),
    ({"effects": {"network": "x"}}, "effects"),
    ({"citation_base": 800, "papers_per_year": 20, "n_years": 1}, "citation_base"),
    ({"effects": {"network": 1e200}}, "effects"),
    ({"noise_sd": 1e308}, "noise_sd"),
], ids=["negative-grid", "zero-grid", "fractional-count", "unknown-key", "list",
        "text-effect", "overflowing-citations", "huge-effect", "huge-noise"])
def test_bad_generate_config_is_usage_error_naming_the_field(tmp_path, capsys,
                                                             config, fragment):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run(capsys, "generate", str(tmp_path / "a.jsonl"), "--config", str(path))
    assert code == EXIT_USAGE
    assert fragment in err and "Traceback" not in err
    assert not (tmp_path / "a.jsonl").exists()


def test_generate_with_an_empty_lexicon_list_is_usage_error(tmp_path, capsys,
                                                           monkeypatch):
    lex_dir = tmp_path / "lexicon"
    shutil.copytree(Path(revnet.__file__).parent / "data" / "lexicons", lex_dir)
    (lex_dir / "cat_negation.txt").write_text("")
    monkeypatch.setenv(LEXICON_DIR_ENV, str(lex_dir))
    code, _, err = run(capsys, "generate", str(tmp_path / "a.jsonl"))
    assert code == EXIT_USAGE
    assert "'negation'" in err


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


@pytest.mark.parametrize("index, field, value, fragment",
                         WRONGLY_TYPED + BAD_PAPER_IDS)
def test_wrongly_typed_field_fails_validation_naming_the_line(
        tmp_path, capsys, index, field, value, fragment):
    records = [dict(r) for r in SAMPLE]
    records[index][field] = value
    log = tmp_path / "typed.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run(capsys, "validate", str(log))
    assert code == EXIT_VALIDATION
    assert f"line {index + 1}: {fragment}" in err and "Traceback" not in err
    code, out, err = run(capsys, "features", str(log), str(tmp_path / "features"),
                         "--year-from", "2010", "--year-to", "2010")
    assert code == EXIT_VALIDATION
    assert f"line {index + 1}: {fragment}" in err


@pytest.mark.parametrize("index, field, largest", [
    (1, "round", 2**53 - 1), (4, "cumulative_citations", 2**53 - 1),
    (4, "as_of_year", 2**53 - 1), (4, "as_of_year", -(2**53 - 1))])
def test_log_integers_are_read_up_to_2_to_the_53_minus_1(tmp_path, capsys, index,
                                                         field, largest):
    log = tmp_path / "big.jsonl"
    for value, bad in [(largest, False), (largest + (1 if largest > 0 else -1), True)]:
        records = [dict(r) for r in SAMPLE]
        records[index][field] = value
        log.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, out, err = run(capsys, "validate", str(log))
        named = f"line {index + 1}: {field} must be at most 2**53 - 1 in magnitude"
        assert (named in err) == bad and "Traceback" not in err
        # a round that large is read, and then is not contiguous from 1
        assert code == (EXIT_VALIDATION if bad or field == "round" else EXIT_OK)


def test_analyze_names_the_line_of_a_citation_count_past_the_bound(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    small_log(log)
    lines = log.read_text().splitlines(keepends=True)
    assert '"cumulative_citations": 5' in lines[9]
    lines[9] = lines[9].replace('"cumulative_citations": 5',
                                f'"cumulative_citations": {10**309}')
    log.write_text("".join(lines))
    code, _, err = run(capsys, "analyze", str(log), str(tmp_path / "out"))
    assert code == EXIT_VALIDATION
    assert "line 10: cumulative_citations must be at most 2**53 - 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("date", ["20100105", "2010-W01-1"])
def test_date_other_than_year_month_day_fails_validation_naming_the_line(
        tmp_path, capsys, date):
    records = [dict(r) for r in SAMPLE]
    records[2]["date"] = date
    log = tmp_path / "dated.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run(capsys, "validate", str(log))
    assert code == EXIT_VALIDATION
    assert f"line 3: Invalid isoformat string: {date!r}" in err
    assert "Traceback" not in err


def run_cli_process(hash_seed, *argv):
    """``revnet`` in a fresh interpreter whose string hashing is seeded
    with ``hash_seed``, so set and dict iteration order differ by seed."""
    src = str(Path(revnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "revnet.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == EXIT_OK, proc.stderr


def test_outputs_do_not_depend_on_string_hashing(workspace, tmp_path):
    log = str(workspace / "events.jsonl")
    outputs = []
    for hash_seed in (1, 2):
        out = tmp_path / f"hash{hash_seed}"
        run_cli_process(hash_seed, "features", log, str(out / "features"),
                        "--year-from", "2008", "--year-to", "2010")
        run_cli_process(hash_seed, "analyze", log, str(out / "analysis"))
        files = sorted([out / "features" / "features.csv",
                        out / "features" / "features.csv.missing",
                        *(out / "analysis").glob("*.csv")])
        outputs.append({f.relative_to(out).as_posix(): f.read_bytes() for f in files})
    assert len(outputs[0]) > 10 and outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name


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
    stats = manifest["centrality"]
    assert set(stats) == {"snapshot_dates", "snapshot_tables", "nodes_max",
                          "pagerank_nonconverged"}
    assert stats["snapshot_dates"] >= stats["snapshot_tables"] > 0
    assert stats["nodes_max"] > 0
    assert stats["pagerank_nonconverged"] == 0

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
        assert set(fit) == {"iterations", "converged", "kkt_gap", "n_support",
                            "finish_rounds", "finish_tries"}
        assert fit["converged"] and fit["kkt_gap"] <= 1e-3
    assert doc["fits"][-1]["n_support"] == len(json.loads(model.read_text())["dual_coefs"])
    manifest = json.loads((workspace / "model.json.manifest.json").read_text())
    assert manifest["fits"] == doc["fits"]  # same keys, checked above

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


def test_features_warns_on_pagerank_nonconvergence(workspace, tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setattr(centrality, "pagerank",
                        lambda graph, *args: (np.full(graph.n, 1.0 / max(graph.n, 1)),
                                              False))
    code, out, err = run(capsys, "features", str(workspace / "events.jsonl"),
                         str(tmp_path), "--year-from", "2008", "--year-to", "2010")
    assert code == EXIT_OK
    stats = json.loads((tmp_path / "features.manifest.json").read_text())["centrality"]
    assert stats["pagerank_nonconverged"] == stats["snapshot_tables"] > 0
    assert (f"warning: PageRank did not converge on {stats['snapshot_tables']} "
            f"of {stats['snapshot_tables']} snapshot graphs") in err


def write_features(path, rows):
    path.write_text(features.CSV_HEADER + "\n" + "".join(rows))


def feature_row(pid, cells, target="0.5", year="2010"):
    return ",".join([pid, *cells, target, year]) + "\n"


def test_train_rejects_infinite_cell_before_fitting(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(2)
    rows = [feature_row(f"p{i}", [str(v) for v in rng.normal(size=14)])
            for i in range(12)]
    rows[4] = feature_row("p4", ["inf"] + ["1.0"] * 13)
    feat_csv = tmp_path / "features.csv"
    write_features(feat_csv, rows)

    def no_fit(*args, **kwargs):
        raise AssertionError("fit must not run on a matrix holding inf")

    monkeypatch.setattr(svr, "fit", no_fit)
    code, out, err = run(capsys, "train", str(feat_csv), str(tmp_path / "model.json"),
                         "--folds", "3")
    assert code == EXIT_USAGE and "finite" in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("folds", ["1", "13"])
def test_train_rejects_a_bad_fold_count_before_any_fit(tmp_path, capsys, monkeypatch,
                                                        folds):
    # the final fit runs before the folds, so the count is checked first
    rng = np.random.default_rng(2)
    feat_csv = tmp_path / "features.csv"
    write_features(feat_csv, [feature_row(f"p{i}", [str(v) for v in rng.normal(size=14)])
                              for i in range(12)])

    def no_fit(*args, **kwargs):
        raise AssertionError("fit must not run with a bad fold count")

    monkeypatch.setattr(svr, "fit", no_fit)
    model, report = tmp_path / "model.json", tmp_path / "report.json"
    code, out, err = run(capsys, "train", str(feat_csv), str(model), "--folds", folds,
                         "--report-out", str(report))
    assert code == EXIT_USAGE
    assert ("k must be >= 2" if folds == "1" else "k=13 exceeds the 12 available rows") in err
    assert not model.exists() and not report.exists()


def test_train_saves_the_from_zero_fit(tmp_path, capsys):
    # the CV folds start from the final fit's betas; the final fit itself
    # starts from zero
    rng = np.random.default_rng(5)
    feat_csv = tmp_path / "features.csv"
    write_features(feat_csv, [feature_row(f"p{i}", [str(v) for v in rng.normal(size=14)],
                                          target=str(rng.normal()))
                              for i in range(40)])
    model = tmp_path / "model.json"
    code, out, err = run(capsys, "train", str(feat_csv), str(model), "--network-only",
                         "--folds", "4", "--gamma", "0.1")
    assert code == EXIT_OK, err
    matrix = features.read_matrix_csv(feat_csv)
    X = matrix.X[:, [features.FEATURE_NAMES.index(n) for n in NETWORK_FEATURES]]
    expected = tmp_path / "expected.json"
    svr.save_model(svr.fit(X, matrix.y, svr.SvrConfig(gamma=0.1), NETWORK_FEATURES),
                   expected)
    assert model.read_bytes() == expected.read_bytes()


def test_train_names_a_column_it_cannot_standardize(tmp_path, capsys):
    rng = np.random.default_rng(2)
    cells = [[str(v) for v in rng.normal(size=14)] for _ in range(12)]
    cells[4][0], cells[9][0] = "1e308", "-1e308"  # Deg
    rows = [feature_row(f"p{i}", row, target=str(rng.normal()))
            for i, row in enumerate(cells)]
    feat_csv = tmp_path / "features.csv"
    write_features(feat_csv, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "train", str(feat_csv),
                             str(tmp_path / "model.json"), "--folds", "3")
    assert code == EXIT_USAGE
    assert "['Deg'] have a mean or standard deviation that is not finite" in err
    assert not (tmp_path / "model.json").exists()


def test_truncated_feature_row_is_usage_error(tmp_path, capsys):
    feat_csv = tmp_path / "features.csv"
    write_features(feat_csv, [feature_row("p0", ["1.0"] * 14), "p1,1.0,2.0\n"])
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, len(NETWORK_FEATURES)))
    model = tmp_path / "model.json"
    svr.save_model(svr.fit(X, X[:, 0], svr.SvrConfig(gamma=0.5), NETWORK_FEATURES), model)
    for argv in (["train", str(feat_csv), str(tmp_path / "never.json")],
                 ["predict", str(model), str(feat_csv), str(tmp_path / "preds.csv")]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert "line 3 has 3 cells, expected 17" in err and "Traceback" not in err


def test_flipped_missing_mask_cell_is_usage_error(tmp_path, capsys):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 14))
    X[5, 3] = np.nan
    matrix = features.AssembledMatrix(tuple(f"p{i}" for i in range(12)), X,
                                      np.isnan(X), rng.normal(size=12), (2010,) * 12)
    feat_csv = tmp_path / "features.csv"
    features.write_matrix_csv(matrix, feat_csv)
    mask = tmp_path / "features.csv.missing"
    lines = mask.read_text().splitlines(keepends=True)
    assert lines[6].startswith("p5,0,0,0,1,0")
    lines[6] = lines[6].replace("p5,0,0,0,1,", "p5,0,0,0,0,", 1)
    mask.write_text("".join(lines))
    model = tmp_path / "model.json"
    svr.save_model(svr.fit(np.nan_to_num(X), matrix.y, svr.SvrConfig(),
                           features.FEATURE_NAMES), model)
    for argv in (["train", str(feat_csv), str(tmp_path / "never.json"), "--folds", "3"],
                 ["predict", str(model), str(feat_csv), str(tmp_path / "preds.csv")]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert "features.csv.missing: line 7 is" in err and "Traceback" not in err
    assert not (tmp_path / "never.json").exists()
    assert not (tmp_path / "preds.csv").exists()


def test_prediction_does_not_depend_on_the_batch(tmp_path, capsys):
    rng = np.random.default_rng(3)
    train_csv = tmp_path / "train.csv"
    write_features(train_csv, [feature_row(f"t{i}", [str(v) for v in rng.normal(size=14)],
                                           target=str(rng.normal()))
                               for i in range(30)])
    model = tmp_path / "model.json"
    assert main(["train", str(train_csv), str(model), "--folds", "3"]) == EXIT_OK
    probe = feature_row("probe", ["nan"] + ["0.5"] * 13)
    others = [feature_row(f"b{i}", [str(v) for v in rng.normal(3.0, 1.0, size=14)])
              for i in range(5)]
    scores = []
    for name, rows in (("alone", [probe]), ("batch", others[:2] + [probe] + others[2:])):
        batch_csv, preds = tmp_path / f"{name}.csv", tmp_path / f"{name}.preds.csv"
        write_features(batch_csv, rows)
        code, out, err = run(capsys, "predict", str(model), str(batch_csv), str(preds))
        assert code == EXIT_OK, err
        scores.append(float(dict(line.split(",") for line in
                                 preds.read_text().splitlines()[1:])["probe"]))
    assert scores[0] == scores[1]


def test_predict_rejects_an_infinite_feature_cell(tmp_path, capsys):
    rng = np.random.default_rng(6)
    train_csv = tmp_path / "train.csv"
    write_features(train_csv, [feature_row(f"t{i}", [str(v) for v in rng.normal(size=14)],
                                           target=str(rng.normal()))
                               for i in range(30)])
    model = tmp_path / "model.json"
    assert main(["train", str(train_csv), str(model), "--folds", "3"]) == EXIT_OK
    for cell in ("inf", "-inf"):
        feat_csv = tmp_path / "features.csv"
        write_features(feat_csv, [feature_row("p0", ["nan"] + ["0.5"] * 13),
                                  feature_row("p1", ["0.5"] * 6 + [cell] + ["0.5"] * 7)])
        code, out, err = run(capsys, "predict", str(model), str(feat_csv),
                             str(tmp_path / "preds.csv"))
        assert code == EXIT_USAGE, cell
        assert "row 1 " in err and "infinite" in err and "Traceback" not in err
        assert not (tmp_path / "preds.csv").exists()


def test_train_rejects_nonfinite_hyperparameter(workspace, capsys):
    code, out, err = run(capsys, "train", str(workspace / "absent.csv"),
                         str(workspace / "never.json"), "--gamma", "nan")
    assert code == EXIT_USAGE
    assert "gamma must be finite" in err


@pytest.mark.parametrize("tamper", [
    lambda doc: doc["dual_coefs"].pop(),
    lambda doc: doc["scaler_std"].pop(),
    lambda doc: doc.update(bias=math.inf),
    lambda doc: doc["impute_means"].append(0.0),
    lambda doc: doc["feature_names"].__setitem__(1, "Deg"),
    lambda doc: doc["scaler_std"].__setitem__(0, 0.0),
    lambda doc: doc["support_vectors"][0].__setitem__(0, math.nan),
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


def test_predict_names_a_model_feature_the_csv_lacks(tmp_path, capsys):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, len(NETWORK_FEATURES)))
    path = tmp_path / "model.json"
    svr.save_model(svr.fit(X, X[:, 0], svr.SvrConfig(gamma=0.5), NETWORK_FEATURES), path)
    doc = json.loads(path.read_text())
    doc["feature_names"][2] = "Eigen"
    path.write_text(json.dumps(doc))
    feat_csv = tmp_path / "features.csv"
    write_features(feat_csv, [feature_row("p0", ["1.0"] * 14)])
    code, out, err = run(capsys, "predict", str(path), str(feat_csv),
                         str(tmp_path / "preds.csv"))
    assert code == EXIT_USAGE
    assert "'Eigen'" in err and "Traceback" not in err
    assert not (tmp_path / "preds.csv").exists()


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


def small_log(path):
    events = []
    for k in range(3):
        events += minimal_paper(f"p{k}", dt.date(2010, 1 + 3 * k, 1),
                                citations=5 * k, as_of_year=2014)
    write_events(events, path)
    return events


@pytest.mark.parametrize("command", [["features", "--year-from", "2010", "--year-to", "2011"],
                                     ["analyze"]], ids=["features", "analyze"])
def test_lexicon_word_no_token_can_match_is_usage_error(tmp_path, capsys, command):
    lex_dir = tmp_path / "lexicon"
    lex_dir.mkdir()
    (lex_dir / "positive.txt").write_text("good\nwell-written\n")
    (lex_dir / "negative.txt").write_text("bad\n")
    for name in CATEGORIES:
        (lex_dir / f"cat_{name}.txt").write_text("placeholder\n")
    log = tmp_path / "events.jsonl"
    small_log(log)
    code, _, err = run(capsys, command[0], str(log), str(tmp_path / "out"),
                       *command[1:], "--lexicon-dir", str(lex_dir))
    assert code == EXIT_USAGE
    assert "positive.txt: line 2" in err and "'well-written'" in err
    assert "Traceback" not in err


def test_features_read_report_text_with_a_lone_surrogate(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    events = small_log(log)
    text = "good \ud800good bad\ud800 clear"
    events = [ev._replace(text=text) if isinstance(ev, Report) else ev
              for ev in events]
    write_events(events, log)
    assert "\\ud800" in log.read_text()  # the JSON escape, not a raw character
    code, _, err = run(capsys, "features", str(log), str(tmp_path / "out"),
                       "--year-from", "2010", "--year-to", "2011")
    assert code == EXIT_OK, err
    lines = (tmp_path / "out" / "features.csv").read_text().splitlines()
    column = lines[0].split(",").index("SNT")
    expected = reference_supporting_features("p1", Corpus(events), load_lexicon())[3]
    row = next(line for line in lines if line.startswith("p1,"))
    assert row.split(",")[column] == repr(float(expected)) == "0.5"


@pytest.mark.parametrize("command", [["validate"],
                                     ["features", "{out}", "--year-from", "2010",
                                      "--year-to", "2011"],
                                     ["analyze", "{out}"]],
                         ids=["validate", "features", "analyze"])
def test_undecodable_byte_fails_validation_naming_the_line(tmp_path, capsys, command):
    log = tmp_path / "events.jsonl"
    small_log(log)
    lines = log.read_bytes().splitlines(keepends=True)
    assert b'"outcome": "accept"' in lines[3]
    lines[3] = lines[3].replace(b'"accept"', b'"acc\xffept"')
    log.write_bytes(b"".join(lines))
    argv = [arg.format(out=tmp_path / "out") for arg in command]
    code, _, err = run(capsys, argv[0], str(log), *argv[1:])
    assert code == EXIT_VALIDATION, err
    assert "line 4: not valid UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["validate"],
                                     ["features", "{out}", "--year-from", "2010",
                                      "--year-to", "2011"]],
                         ids=["validate", "features"])
def test_conflicting_citation_records_fail_validation(tmp_path, capsys, command):
    log = tmp_path / "events.jsonl"
    events = small_log(log)
    record = events[9]
    assert record.paper_id == "p1" and record.cumulative_citations == 5
    write_events(events + [record._replace(cumulative_citations=6)], log)
    argv = [arg.format(out=tmp_path / "out") for arg in command]
    code, _, err = run(capsys, argv[0], str(log), *argv[1:])
    assert code == EXIT_VALIDATION, err
    assert f"line 16: conflicting citation records for paper p1 dated {record.date}" in err
    assert "Traceback" not in err


@pytest.fixture
def inputs_dir(tmp_path, monkeypatch):
    """A config named ``c.tmp`` (the temp file of an output ``c``), a log (also
    as ``d/features.csv`` and ``d/summary.csv``), a feature CSV with a hard
    link to it, and a model trained on it; the test runs inside the folder."""
    (tmp_path / "c.tmp").write_text(json.dumps({"seed": 2, "papers_per_year": 10,
                                                 "n_years": 2}))
    small_log(tmp_path / "log.jsonl")
    (tmp_path / "d").mkdir()
    shutil.copy(tmp_path / "log.jsonl", tmp_path / "d" / "features.csv")
    shutil.copy(tmp_path / "log.jsonl", tmp_path / "d" / "summary.csv")
    rng = np.random.default_rng(8)
    write_features(tmp_path / "f.csv",
                   [feature_row(f"t{i}", [str(v) for v in rng.normal(size=14)],
                                target=str(rng.normal())) for i in range(30)])
    os.link(tmp_path / "f.csv", tmp_path / "f_link.csv")
    assert main(["train", str(tmp_path / "f.csv"), str(tmp_path / "m.json"),
                 "--folds", "3"]) == EXIT_OK
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_output_check_looks_up_each_path_once(tmp_path, monkeypatch):
    # analyze checks 18 outputs; comparing every pair by fresh lookups took
    # about 20 ms, a tenth of a small corpus's analysis
    looked_up = []
    realpath = os.path.realpath
    monkeypatch.setattr(os.path, "realpath",
                        lambda path: looked_up.append(path) or realpath(path))
    outputs = [str(tmp_path / f"o{i}.csv") for i in range(18)]
    _check_outputs([str(tmp_path / "log.jsonl")], outputs)
    assert len(looked_up) == 1 + 2 * len(outputs)


@pytest.mark.parametrize("argv", [
    ["predict", "m.json", "f.csv", "f.csv"],
    ["predict", "m.json", "f.csv", "f_link.csv"],
    ["validate", "log.jsonl", "--manifest", "log.jsonl"],
    ["train", "f.csv", "m.json", "--folds", "3", "--report-out", "m.json"],
    ["train", "f.csv", "new.json", "--folds", "3", "--report-out", "new.json"],
    ["generate", "c.tmp", "--config", "c.tmp"],
    ["generate", "c", "--config", "c.tmp"],
    ["features", "d/features.csv", "d", "--year-from", "2010", "--year-to", "2010"],
    ["analyze", "d/summary.csv", "d"],
], ids=["predict-over-features", "predict-over-hard-link", "validate-manifest-over-log",
        "train-report-over-model", "train-report-over-new-model", "generate-over-config",
        "generate-temp-file-over-config", "features-over-log", "analyze-over-log"])
def test_output_naming_an_input_or_another_output_is_usage_error(inputs_dir, capsys,
                                                                 argv):
    def files():
        return {p: p.read_bytes() for p in sorted(inputs_dir.rglob("*")) if p.is_file()}

    before = files()
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "is the same file as" in err and "Traceback" not in err
    assert files() == before  # nothing written, no input touched
