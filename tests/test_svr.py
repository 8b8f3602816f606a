import dataclasses
import json
import math

import numpy as np
import pytest

from helpers import reference_kkt_max_violation, reference_solve_smo
from revnet.svr import (EvalReport, SvrConfig, _rbf, _solve_smo, column_means,
                        cross_validate, f_statistic, fit, impute_columns,
                        kkt_max_violation, load_model, save_model)


def random_problem(seed, n=60, d=4, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + noise * rng.normal(size=n)
    return X, y


def test_config_validation():
    with pytest.raises(ValueError):
        SvrConfig(C=0)
    with pytest.raises(ValueError):
        SvrConfig(gamma=-1)
    with pytest.raises(ValueError):
        SvrConfig(epsilon=-0.1)
    for name in ("C", "gamma", "epsilon", "tol"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                SvrConfig(**{name: bad})
    for tol in (0.0, -1e-3):
        with pytest.raises(ValueError, match="tol"):
            SvrConfig(tol=tol)
    for passes in (0, -5):
        with pytest.raises(ValueError, match="max_passes"):
            SvrConfig(max_passes=passes)
    SvrConfig(epsilon=0.0, max_passes=1)  # boundary values stay legal


def test_constant_target_is_exact():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 3))
    model = fit(X, np.full(20, 3.25), SvrConfig())
    assert np.all(model.predict(X) == 3.25)
    assert model.diagnostics.iterations == 0


def test_two_point_fit_within_tube():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    config = SvrConfig(C=10.0, gamma=1.0, epsilon=0.05)
    model = fit(X, y, config)
    preds = model.predict(X)
    assert np.all(np.abs(preds - y) <= config.epsilon + 1e-6)


def test_kkt_certificate_and_dual_bounds():
    for seed in range(5):
        X, y = random_problem(seed)
        config = SvrConfig(C=10.0, gamma=0.5, epsilon=0.1)
        model = fit(X, y, config)
        assert model.diagnostics.converged
        beta = model.diagnostics.train_beta
        assert np.all(beta >= -config.C - 1e-9)
        assert np.all(beta <= config.C + 1e-9)
        assert abs(beta.sum()) <= 1e-6  # equality constraint
        assert kkt_max_violation(model, X, y) <= config.tol + 1e-9


def test_target_shift_equivariance():
    X, y = random_problem(3)
    config = SvrConfig(C=10.0, gamma=0.5, epsilon=0.1)
    base = fit(X, y, config).predict(X)
    shifted = fit(X, y + 100.0, config).predict(X)
    assert np.allclose(shifted, base + 100.0, atol=1e-9)


def test_column_rescaling_is_absorbed_by_standardization():
    X, y = random_problem(4)
    config = SvrConfig(C=10.0, gamma=0.5, epsilon=0.1)
    base = fit(X, y, config).predict(X)
    X2 = X * np.array([10.0, 0.1, 3.0, 1.0])
    rescaled = fit(X2, y, config).predict(X2)
    assert np.allclose(rescaled, base, atol=1e-10)


def test_noise_free_single_feature_recovery():
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(-2, 2, size=150))
    X = x[:, None]
    y = x.copy()
    report = cross_validate(X, y, SvrConfig(C=100.0, gamma=0.5, epsilon=0.01),
                            k=10, seed=0)
    assert report.r2 >= 0.99


def test_duplicate_rows_still_satisfy_kkt():
    X, y = random_problem(5, n=30)
    config = SvrConfig(C=10.0, gamma=0.5, epsilon=0.1)
    X2, y2 = np.vstack([X, X]), np.concatenate([y, y])
    model = fit(X2, y2, config)
    assert model.diagnostics.converged
    assert kkt_max_violation(model, X2, y2) <= config.tol + 1e-9


def solver_problems():
    """Random problems for the solver parity test, each with a named twist."""
    for seed in range(24):
        rng = np.random.default_rng(100 + seed)
        n, d = int(rng.integers(2, 90)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        y = np.sin(X[:, 0]) + 0.3 * rng.normal(size=n)
        config = SvrConfig(C=float(rng.choice([1.0, 10.0, 100.0])),
                           gamma=float(rng.uniform(0.05, 2.0)),
                           epsilon=float(rng.choice([0.0, 0.05, 0.1])))
        kind = ("plain", "duplicates", "constant", "small_C", "large_eps",
                "capped")[seed % 6]
        if kind == "duplicates":
            X, y = np.vstack([X, X[: n // 2 + 1]]), np.concatenate([y, y[: n // 2 + 1]])
        elif kind == "constant":
            y = np.full(len(y), float(rng.normal()))
        elif kind == "small_C":
            config = dataclasses.replace(config, C=0.01)
        elif kind == "large_eps":
            config = dataclasses.replace(config, epsilon=1.0)
        elif kind == "capped":
            config = dataclasses.replace(config, max_passes=int(rng.integers(1, 6)))
        yield kind, X, y, config


def test_solver_matches_reference_bit_for_bit():
    seen = set()
    for kind, X, y, config in solver_problems():
        K = _rbf(X, X, config.gamma)
        beta, bias, iters, converged, gap = _solve_smo(K, y, config)
        r_beta, r_bias, r_iters, r_converged, r_gap = reference_solve_smo(K, y, config)
        assert beta.tobytes() == r_beta.tobytes(), kind
        assert (bias, iters, converged, gap) == (r_bias, r_iters, r_converged, r_gap), kind
        if kind == "capped" and iters == config.max_passes and not converged:
            seen.add("cap hit")
        if kind == "small_C" and np.any(np.abs(beta) >= config.C * (1 - 1e-9)):
            seen.add("at bound")
        if kind == "large_eps" and np.count_nonzero(beta) < len(y) // 2:
            seen.add("few SVs")
    assert seen == {"cap hit", "at bound", "few SVs"}


def test_nonconvergence_warns_and_is_recorded():
    X, y = random_problem(11)
    with pytest.warns(RuntimeWarning, match="3 iterations without converging"):
        model = fit(X, y, SvrConfig(gamma=0.5, max_passes=3))
    diag = model.diagnostics
    assert diag.iterations == 3 and not diag.converged
    assert diag.kkt_gap > model.config.tol
    assert diag.n_support == len(model.dual_coefs)


def test_kkt_violation_matches_reference_loop():
    for seed in range(4):
        X, y = random_problem(seed, n=40)
        model = fit(X, y, SvrConfig(C=1.0, gamma=0.5, epsilon=0.1))
        assert kkt_max_violation(model, X, y) == reference_kkt_max_violation(model, X, y)
    C = model.config.C
    for beta in ([0.0, C, -C, 0.3, -0.7, 0.0, C, -C, 0.5, -0.2],
                 [0.0, 1e-12, -1e-12, C * (1 + 1e-12), -C * (1 - 1e-12),
                  0.2, -0.2, 0.0, 0.9, -0.9],
                 [0.0, 0.1, math.inf, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                 [0.0, 0.1, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -C * 1.01]):
        model.diagnostics.train_beta = np.array(beta)
        expected = reference_kkt_max_violation(model, X[:10], y[:10])
        assert kkt_max_violation(model, X[:10], y[:10]) == expected
    assert expected == math.inf


def test_fit_rejects_nan_and_tiny_input():
    with pytest.raises(ValueError):
        fit(np.array([[1.0]]), np.array([1.0]), SvrConfig())
    with pytest.raises(ValueError):
        fit(np.array([[np.nan], [1.0]]), np.array([1.0, 2.0]), SvrConfig())


def test_zero_variance_column_warns_not_crashes():
    rng = np.random.default_rng(1)
    X = np.hstack([rng.normal(size=(20, 1)), np.ones((20, 1))])
    y = X[:, 0]
    with pytest.warns(RuntimeWarning):
        model = fit(X, y, SvrConfig(gamma=0.5))
    assert np.isfinite(model.predict(X)).all()


def test_predict_validates_width():
    X, y = random_problem(2)
    model = fit(X, y, SvrConfig(gamma=0.5))
    with pytest.raises(ValueError):
        model.predict(np.zeros((3, 5)))
    one = model.predict(X[0])
    assert one.shape == (1,)


# -- F-statistic -------------------------------------------------------------


def test_f_statistic_frozen_example():
    x = np.array([0.0, 1, 2, 3, 4])
    y = np.array([0.0, 1, 2, 3, 10])
    assert f_statistic(x, y) == pytest.approx(10.083333333333343, rel=1e-12)


def test_f_statistic_edge_cases():
    x = np.arange(5.0)
    assert f_statistic(x, 2 * x + 1) == math.inf  # perfect line
    assert f_statistic(np.ones(5), x) == 0.0  # zero variance
    assert f_statistic(x, np.ones(5)) == 0.0
    with pytest.raises(ValueError):
        f_statistic(x[:2], x[:2])
    with pytest.raises(ValueError):
        f_statistic(np.array([1.0, np.nan, 2.0]), x[:3])


def test_f_statistic_is_symmetric_in_sign():
    rng = np.random.default_rng(9)
    x = rng.normal(size=50)
    y = 0.5 * x + rng.normal(size=50)
    assert f_statistic(x, y) == pytest.approx(f_statistic(-x, y), rel=1e-12)


# -- imputation and cross-validation -----------------------------------------


def test_column_means_ignores_nan():
    X = np.array([[1.0, np.nan], [3.0, np.nan]])
    means = column_means(X)
    assert means.tolist() == [2.0, 0.0]  # all-NaN column falls back to 0
    filled = impute_columns(X, means)
    assert filled.tolist() == [[1.0, 0.0], [3.0, 0.0]]
    assert np.isnan(X[0, 1])  # input untouched


def test_cross_validate_is_deterministic():
    X, y = random_problem(6, n=80)
    config = SvrConfig(C=10.0, gamma=0.5, epsilon=0.1)
    a = cross_validate(X, y, config, k=5, seed=3)
    b = cross_validate(X, y, config, k=5, seed=3)
    assert a.r2 == b.r2 and a.rmse == b.rmse
    assert a.fold_r2 == b.fold_r2 and a.f_stats == b.f_stats
    c = cross_validate(X, y, config, k=5, seed=4)
    assert c.r2 != a.r2  # different shuffle, different folds


def test_cross_validate_null_target_has_no_skill():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(100, 4))
    y = rng.normal(size=100)
    report = cross_validate(X, y, SvrConfig(C=1.0, gamma=0.5, epsilon=0.1),
                            k=5, seed=0)
    assert report.r2 <= 0.1


def test_cross_validate_handles_missing_values():
    X, y = random_problem(8, n=60)
    X[::7, 2] = np.nan
    report = cross_validate(X, y, SvrConfig(C=10.0, gamma=0.5), k=5, seed=0)
    assert isinstance(report, EvalReport)
    assert np.isfinite(report.r2)
    assert len(report.fold_r2) == 5


def test_cross_validate_rejects_bad_k():
    X, y = random_problem(0, n=10)
    with pytest.raises(ValueError):
        cross_validate(X, y, SvrConfig(), k=1)
    with pytest.raises(ValueError):
        cross_validate(X, y, SvrConfig(), k=11)


# -- persistence -------------------------------------------------------------


def test_model_round_trip_is_bit_exact(tmp_path):
    X, y = random_problem(10)
    config = SvrConfig(C=10.0, gamma=0.5, epsilon=0.1)
    model = fit(X, y, config, feature_names=("a", "b", "c", "d"))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.feature_names == ("a", "b", "c", "d")
    assert loaded.config == config
    assert np.array_equal(loaded.predict(X), model.predict(X))


def test_load_model_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(ValueError):
        load_model(path)


def tampered_models():
    yield "dual coefficients", lambda doc: doc["dual_coefs"].pop()
    yield "support vectors", lambda doc: [row.append(0.5) for row in doc["support_vectors"]]
    yield "scaler_mean", lambda doc: doc["scaler_mean"].pop()
    yield "scaler_std", lambda doc: doc["scaler_std"].append(1.0)
    yield "bias", lambda doc: doc.update(bias=math.nan)
    yield "bias", lambda doc: doc.update(bias=math.inf)
    yield "malformed", lambda doc: doc.pop("scaler_std")
    yield "malformed", lambda doc: doc["config"].update(tol="tight")


def test_load_model_rejects_tampered_shapes(tmp_path):
    X, y = random_problem(10)
    model = fit(X, y, SvrConfig(C=10.0, gamma=0.5), feature_names=("a", "b", "c", "d"))
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    for what, tamper in tampered_models():
        bad = json.loads(json.dumps(doc))
        tamper(bad)
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=what):
            load_model(path)
