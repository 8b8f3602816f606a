import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (reference_impute, reference_kkt_max_violation,
                     reference_svr_optimum)
from revnet import svr
from revnet.svr import (_RBF_BLOCK, EvalReport, SvrConfig, _accept, _finish, _r2, _rbf,
                        _row_states, _solve_smo, cross_validate, f_statistic, fit,
                        load_model, save_model)


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
        assert reference_kkt_max_violation(model, X, y) <= config.tol + 1e-9


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
                            k=10)
    assert report.r2 >= 0.99


def test_duplicate_rows_still_satisfy_kkt():
    X, y = random_problem(5, n=30)
    config = SvrConfig(C=10.0, gamma=0.5, epsilon=0.1)
    X2, y2 = np.vstack([X, X]), np.concatenate([y, y])
    model = fit(X2, y2, config)
    assert model.diagnostics.converged
    assert reference_kkt_max_violation(model, X2, y2) <= config.tol + 1e-9


def solver_problems():
    """Random problems for the solver certificate test, each with a named
    twist."""
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
    rng = np.random.default_rng(7)
    # a constant target of signed zeros: the gap is exactly zero, with a sign
    yield ("signed_zero", rng.normal(size=(12, 2)),
           np.array([-0.0, 0.0, 0.0, -0.0] * 3), SvrConfig(epsilon=0.0))
    # a fit near the benchmark sizes, where most betas end at +-C
    X = rng.normal(size=(250, 5))
    yield ("bench_size", X, np.sin(X[:, 0]) + rng.normal(size=250),
           SvrConfig(C=100.0, gamma=0.01, epsilon=0.1))


def as_bytes(x):
    return np.float64(x).tobytes()


def dual_objective(K, y, beta, eps):
    """1/2 b'Kb - y'b + eps |b|_1: the paired dual's objective at the
    alpha, alpha* split of ``beta`` that minimizes it."""
    return 0.5 * beta @ K @ beta - y @ beta + eps * np.abs(beta).sum()


def test_solver_certifies_each_fit():
    """Every fit that converges meets the KKT certificate within tol, in
    beta and in the bias it reports, and stays feasible; a capped one stays
    feasible.  The enumeration oracle checks the optimum itself on small
    problems; these reach 90 and 250 rows, where the finish fires."""
    seen = set()
    for kind, X, y, config in solver_problems():
        K = _rbf(X, X, config.gamma)
        beta, bias, iters, converged, gap, finish_rounds, _ = _solve_smo(K, y, config)
        assert np.abs(beta).max() <= config.C, kind
        assert abs(beta.sum()) <= 1e-9 * config.C, kind
        if converged:
            fitted = SimpleNamespace(
                diagnostics=SimpleNamespace(train_beta=beta), config=config,
                predict=lambda rows, K=K, beta=beta, bias=bias: K @ beta + bias)
            assert gap <= config.tol, kind
            assert reference_kkt_max_violation(fitted, X, y) <= config.tol + 1e-9, kind
        else:
            assert iters == config.max_passes and gap > config.tol, kind
        if finish_rounds:
            seen.add("finish fired")
            if kind == "duplicates":
                seen.add("finish fired on duplicates")
        if kind == "capped" and iters == config.max_passes and not converged:
            seen.add("cap hit")
        if kind == "small_C" and np.any(np.abs(beta) >= config.C * (1 - 1e-9)):
            seen.add("at bound")
        if kind == "large_eps" and np.count_nonzero(beta) < len(y) // 2:
            seen.add("few SVs")
        if kind == "signed_zero" and as_bytes(gap) == as_bytes(-0.0):
            seen.add("gap -0.0")
        if (kind == "bench_size" and converged
                and np.mean(np.abs(beta) >= config.C * (1 - 1e-9)) > 0.5):
            seen.add("mostly at C")
    assert seen == {"cap hit", "at bound", "few SVs", "gap -0.0", "mostly at C",
                    "finish fired", "finish fired on duplicates"}


def oracle_problems():
    """Problems of at most six rows, so that ``reference_svr_optimum`` can
    enumerate their row states, each with a named twist; tol 1e-10."""
    for seed in range(24):
        rng = np.random.default_rng(200 + seed)
        n, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = np.sin(X[:, 0]) + 0.3 * rng.normal(size=n)
        config = SvrConfig(C=float(rng.choice([1.0, 10.0, 100.0])),
                           gamma=float(rng.uniform(0.05, 2.0)),
                           epsilon=float(rng.choice([0.0, 0.05, 0.1])), tol=1e-10)
        kind = ("plain", "duplicates", "constant", "small_C", "large_eps",
                "capped")[seed % 6]
        if kind == "duplicates":
            # every row twice, with the same target or a target of its own
            m = min(n, 3)
            X = np.vstack([X[:m], X[:m]])
            y = np.concatenate([y[:m], y[:m] + (seed % 4 == 1) * rng.normal(size=m)])
        elif kind == "constant":
            y = np.full(len(y), float(rng.normal()))
        elif kind == "small_C":
            config = dataclasses.replace(config, C=0.01)
        elif kind == "large_eps":
            config = dataclasses.replace(config, epsilon=1.0)
        elif kind == "capped":
            config = dataclasses.replace(config, max_passes=int(rng.integers(1, 3)))
        yield kind, X, y, config
    rng = np.random.default_rng(7)
    # a constant target of signed zeros: the gap is exactly zero, with a sign
    yield ("signed_zero", rng.normal(size=(6, 2)),
           np.array([-0.0, 0.0, 0.0, -0.0, -0.0, 0.0]), SvrConfig(epsilon=0.0, tol=1e-10))
    # the benchmark's hyperparameters on targets wide enough that most
    # betas end at +-C, as they do on the benchmark's corpora
    rng = np.random.default_rng(8)
    X = rng.normal(size=(6, 5))
    yield ("bench_like", X, np.sin(X[:, 0]) + 10.0 * rng.normal(size=6),
           SvrConfig(C=100.0, gamma=0.01, epsilon=0.1, tol=1e-10))


def standardized_kernel(X, gamma):
    """fit's kernel, by explicit pairwise distances of the z-scored rows."""
    std = X.std(axis=0)
    Z = (X - X.mean(axis=0)) / np.where(std < 1e-12, 1.0, std)
    diff = Z[:, None, :] - Z[None, :, :]
    return np.exp(-gamma * np.sum(diff * diff, axis=2))


def as_split(beta):
    """The variables a = (alpha, alpha*) of the betas ``beta``."""
    return np.concatenate([np.maximum(beta, 0.0), np.maximum(-beta, 0.0)])


def assert_at_optimum(K, y, beta, bias, config, optimum, kind, atol=1e-8):
    """``beta`` and ``bias`` (unless None) match the enumerated optimum
    within ``atol``: the objective and the fitted values, and beta itself
    where ``K``'s smallest eigenvalue exceeds 1e-3.  Below that, a point
    within tol of the optimum can hold a beta far from the optimum's (as
    far as tol over that eigenvalue), and where ``K`` is singular the
    optimum's beta is not unique."""
    beta_o, objective, bias_lo, bias_hi = optimum
    assert np.abs(beta).max(initial=0.0) <= config.C, kind
    assert abs(beta.sum()) <= 1e-9 * config.C, kind
    assert abs(dual_objective(K, y, beta, config.epsilon) - objective) <= atol, kind
    assert np.abs(K @ beta - K @ beta_o).max() <= atol, kind
    assert bias is None or bias_lo - atol <= bias <= bias_hi + atol, kind
    if np.linalg.eigvalsh(K)[0] > 1e-3:
        assert np.abs(beta - beta_o).max() <= atol, kind
        return True
    return False


def test_fit_reaches_the_enumerated_optimum():
    """``fit`` at tol 1e-10, from zero and from two starts, against the
    optimum that ``reference_svr_optimum`` finds by enumeration."""
    seen = set()
    rng = np.random.default_rng(5)
    for kind, X, y, config in oracle_problems():
        K = standardized_kernel(X, config.gamma)
        optimum = reference_svr_optimum(K, y, config.C, config.epsilon)
        beta_o = optimum[0]
        # from zero, from a random feasible start and from the optimum
        feasible = config.C * rng.uniform(-1.0, 1.0, size=len(y))
        feasible -= feasible.mean()
        feasible /= max(1.0, np.abs(feasible).max() / config.C)
        for start in (None, feasible, beta_o):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                model = fit(X, y, config, start=start)
            diagnostics, beta = model.diagnostics, model.diagnostics.train_beta
            if diagnostics.converged:
                if assert_at_optimum(K, y, beta, model.bias, config, optimum, kind):
                    seen.add("beta compared")
                elif kind == "duplicates" and np.abs(beta - beta_o).max() > 1e-3:
                    seen.add("another optimum of a singular K")
                continue
            assert diagnostics.iterations == config.max_passes, kind
            assert np.abs(beta).max() <= config.C, kind
            assert abs(beta.sum()) <= 1e-9 * config.C, kind
            assert dual_objective(K, y, beta, config.epsilon) >= optimum[1] - 1e-12, kind
            seen.add("cap hit")
        if kind == "small_C" and np.any(np.abs(beta_o) >= config.C * (1 - 1e-9)):
            seen.add("at bound")
        if kind == "large_eps" and np.count_nonzero(beta_o) < len(y) // 2:
            seen.add("few SVs")
        if kind == "signed_zero" and as_bytes(diagnostics.kkt_gap) == as_bytes(-0.0):
            seen.add("gap -0.0")
        if kind == "bench_like" and np.mean(np.abs(beta_o) >= config.C * (1 - 1e-9)) > 0.5:
            seen.add("mostly at C")
    assert seen == {"cap hit", "at bound", "few SVs", "gap -0.0", "mostly at C",
                    "another optimum of a singular K", "beta compared"}


def test_finish_ends_at_the_enumerated_optimum():
    """The finish's two halves against the enumerated optimum: ``_finish``
    started there ends there, and ``_accept`` takes the optimum's row
    states and no neighbour (one row's state changed) that is not optimal.

    At tol 1e-7: the 1e-10 ridge on K_FF moves a solved point by about
    1e-10 C, so at a tol near that ``_accept`` rejects the optimum itself.
    With one free row, sum beta = 0 puts its beta at a multiple of C, so
    the finish (at most a quarter of the rows free) needs eight rows for
    an optimum with two free rows."""
    def problems():
        for kind, X, y, config in oracle_problems():
            yield kind, X, y, dataclasses.replace(config, tol=1e-7)
        for seed in (7, 8):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(8, 2))
            yield ("eight_rows", X, np.sin(X[:, 0]) + rng.normal(size=8),
                   SvrConfig(C=1.0, gamma=0.5, epsilon=0.1, tol=1e-7))

    seen = set()
    for kind, X, y, config in problems():
        K = standardized_kernel(X, config.gamma)
        optimum = reference_svr_optimum(K, y, config.C, config.epsilon)
        atol = 1e-8 * max(config.C, 1.0)
        l = len(y)

        def check(accepted):
            a, F = accepted[:2]
            assert np.array_equal(F, K @ (a[:l] - a[l:])), kind
            assert_at_optimum(K, y, a[:l] - a[l:], None, config, optimum, kind, atol)

        states = _row_states(as_split(optimum[0]), config.C)
        free = np.flatnonzero(states % 2)
        if len(free):
            check(_accept(K, y, states, free, config, 1))
        if 1 <= len(free) <= l / 4:
            finished = _finish(K, y, as_split(optimum[0]), config)
            assert finished is not None, kind
            check(finished)
            seen.add("finished")
        for i, state in itertools.product(range(l), range(-2, 3)):
            neighbour = states.copy()
            neighbour[i] = state
            free = np.flatnonzero(neighbour % 2)
            accepted = _accept(K, y, neighbour, free, config, 1) if len(free) else None
            if accepted is None:
                seen.add("rejected")
            else:
                check(accepted)
    assert seen == {"finished", "rejected"}


def network_like_rows(seed=0):
    """Rows like a network-only feature matrix: skewed columns, a third of
    the rows repeating another row's features with a target of their own."""
    rng = np.random.default_rng(seed)
    distinct = rng.lognormal(size=(320, 5))
    X = np.vstack([distinct, distinct[rng.integers(0, 320, size=160)]])
    y = np.log1p(X[:, :3].sum(axis=1)) + 0.3 * rng.normal(size=480)
    return X, y


def test_finish_converges_on_duplicate_network_like_rows():
    X, y = network_like_rows()
    config = SvrConfig(C=100.0, gamma=0.01)
    model = fit(X, y, config)
    assert len(np.unique(X, axis=0)) < 0.7 * len(X)
    assert model.diagnostics.converged and model.diagnostics.finish_rounds > 0
    assert reference_kkt_max_violation(model, X, y) <= config.tol
    again = fit(X, y, config)
    assert again.diagnostics.train_beta.tobytes() == model.diagnostics.train_beta.tobytes()
    assert as_bytes(again.bias) == as_bytes(model.bias)


# at seed 1, a fold's finish meets a pivot below _FINISH_PIVOT, where a
# rank-one update of the bordered inverse would lose the digits it needs
@pytest.mark.parametrize("seed", [0, 1])
def test_finish_ends_each_network_like_fit_on_its_first_try(seed):
    X, y = network_like_rows(seed)
    config = SvrConfig(C=100.0, gamma=0.01)
    report = cross_validate(X, y, config, k=5)
    model = fit(X, y, config)
    for diagnostics in report.fold_fits + [model.diagnostics]:
        assert diagnostics.converged and diagnostics.finish_rounds > 0
        assert diagnostics.finish_tries == 1
    assert reference_kkt_max_violation(model, X, y) <= config.tol


def test_seeded_folds_take_fewer_smo_steps(monkeypatch):
    """Folds started from the full fit's betas solve their own duals to tol,
    in fewer SMO steps than folds started from zero."""
    X, y = network_like_rows()
    config = SvrConfig(C=100.0, gamma=0.01)
    full = fit(X, y, config)
    fits = []

    def recording_fit(X, y, config, feature_names=None, start=None):
        model = real_fit(X, y, config, feature_names, start)
        fits.append((X, y, start, model))
        return model

    real_fit = svr.fit
    monkeypatch.setattr(svr, "fit", recording_fit)
    from_zero = cross_validate(X, y, config, k=5)
    seeded = cross_validate(X, y, config, k=5, start=full.diagnostics.train_beta)
    steps = [sum(d.iterations for d in report.fold_fits) for report in (from_zero, seeded)]
    assert steps[1] < steps[0]
    assert [start is None for _, _, start, _ in fits] == [True] * 5 + [False] * 5
    for X_fold, y_fold, start, model in fits[5:]:
        assert model.diagnostics.converged
        assert reference_kkt_max_violation(model, X_fold, y_fold) <= config.tol
        # the fold's rows' betas of the full fit, one side shrunk
        rows = [int(np.flatnonzero((X == row).all(axis=1) & (y == target))[0])
                for row, target in zip(X_fold, y_fold)]
        beta = full.diagnostics.train_beta[rows]
        assert (start * beta >= 0).all() and (np.abs(start) <= np.abs(beta)).all()
        assert ((start == beta)[beta > 0].all() or (start == beta)[beta < 0].all())
    assert abs(seeded.r2 - from_zero.r2) <= 1e-4


@pytest.mark.parametrize("start, rule", [
    (np.zeros(19), r"one beta per row: expected shape \(20,\)"),
    (np.array([np.nan] + [0.0] * 19), "finite betas only"),
    (np.array([10.5, -10.5] + [0.0] * 18), r"within \[-C, C\] for C = 10"),
    (np.array([2e-8] + [0.0] * 19), "sum to 0 within 1e-9 C"),
], ids=["length", "non-finite", "beyond-C", "sum"])
def test_fit_rejects_a_bad_start(start, rule):
    X, y = random_problem(0, n=20)
    with pytest.raises(ValueError, match=rule):
        fit(X, y, SvrConfig(C=10.0), start=start)
    with pytest.raises(ValueError, match=rule):
        cross_validate(X, y, SvrConfig(C=10.0), k=4, start=start)


def test_finish_rejects_an_end_point_off_the_sum_constraint(monkeypatch):
    # a fresh solve that moves one free beta by 1e-7 C breaks sum beta = 0
    # while the gap stays within tol; the finish must hand such a point
    # back to SMO
    X, y = network_like_rows()
    config = SvrConfig(C=100.0, gamma=0.01)
    solves = []
    real_solve = np.linalg.solve

    def shifted(A, b):
        x = real_solve(A, b)
        i = 1 + int(np.abs(x[1:]).argmax())
        x[i] -= np.sign(x[i]) * 1e-7 * config.C
        solves.append(i)
        return x

    monkeypatch.setattr(np.linalg, "solve", shifted)
    model = fit(X, y, config)
    diagnostics = model.diagnostics
    assert solves and diagnostics.finish_tries > 0 and diagnostics.finish_rounds == 0
    assert diagnostics.converged
    assert abs(diagnostics.train_beta.sum()) <= 1e-9 * config.C


def test_finish_solves_a_free_block_holding_equal_rows(monkeypatch):
    # SMO leaves one copy of a repeated row free and the other at a bound;
    # splitting the free copy's beta with the bound copy keeps the point
    # but makes both free, so K_FF is singular, which the ridge must absorb
    X, y = random_problem(5, n=200, noise=1.0)
    X, y = np.vstack([X, X[:40]]), np.concatenate([y, y[:40]])
    config = SvrConfig(C=1.0, gamma=0.5, epsilon=0.1)
    K = _rbf(X, X, config.gamma)
    with monkeypatch.context() as patch:
        patch.setattr(svr, "_finish", lambda *args: None)  # SMO alone, to tol
        beta = _solve_smo(K, y, config)[0]
    states = _row_states(as_split(beta), config.C)
    twins = np.flatnonzero(states[:40] % 2)
    split = (beta[twins] + beta[200 + twins]) / 2
    keep = split * states[twins] > 1e-8 * config.C
    twins, split = twins[keep], split[keep]
    assert len(twins) >= 5
    beta[twins] = beta[200 + twins] = split
    a = as_split(beta)
    assert (_row_states(a, config.C)[200 + twins] % 2).all()
    a, F, rounds, gap = _finish(K, y, a, config)
    assert gap <= config.tol
    assert np.array_equal(F, K @ (a[:240] - a[240:]))


def test_finish_skips_a_free_block_over_a_quarter_of_the_rows(monkeypatch):
    # large C on noise-free targets leaves most betas strictly inside (0, C)
    X, y = random_problem(1, n=60, noise=0.0)
    y = 10.0 * y
    config = SvrConfig(C=1000.0, gamma=0.5, epsilon=0.01)
    K = _rbf(X, X, config.gamma)
    calls = []
    for name in ("inv", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    beta, bias, iters, converged, gap, finish_rounds, finish_tries = _solve_smo(
        K, y, config)
    assert (calls, finish_rounds) == ([], 0) and finish_tries > 0
    assert converged and gap <= config.tol
    assert np.count_nonzero((beta != 0) & (np.abs(beta) < config.C)) > len(y) / 4
    # the skipped tries leave SMO's iterates as they would be without them
    monkeypatch.setattr(svr, "_finish", lambda *args: None)
    r_beta, r_bias, r_iters = _solve_smo(K, y, config)[:3]
    assert beta.tobytes() == r_beta.tobytes()
    assert (iters, as_bytes(bias)) == (r_iters, as_bytes(r_bias))


@pytest.mark.parametrize("rows, tries", [(7, False), (8, True)])
def test_finish_is_tried_only_on_fits_of_eight_rows_or_more(monkeypatch, rows, tries):
    # under eight rows the finish has no free row to solve for, so no try
    # is made and the iterates are those of SMO alone
    X, y = random_problem(0, n=rows)
    config = SvrConfig(C=1.0, gamma=0.5, epsilon=0.1)
    K = _rbf(X, X, config.gamma)
    beta, bias, iters, converged, gap, finish_rounds, finish_tries = _solve_smo(
        K, y, config)
    assert converged and (finish_tries > 0) == tries
    if not tries:
        monkeypatch.setattr(svr, "_finish", lambda *args: None)
        r_beta, r_bias, r_iters = _solve_smo(K, y, config)[:3]
        assert beta.tobytes() == r_beta.tobytes()
        assert (iters, as_bytes(bias)) == (r_iters, as_bytes(r_bias))


def test_solver_and_fit_leave_their_inputs_unchanged():
    X, y = random_problem(6, n=50)
    config = SvrConfig(C=10.0, gamma=0.5, epsilon=0.1)
    K = _rbf(X, X, config.gamma)
    before = [arr.copy() for arr in (K, y, X)]
    _solve_smo(K, y, config)
    fit(X, y, config)
    for arr, copy in zip((K, y, X), before):
        assert arr.tobytes() == copy.tobytes()


@pytest.mark.parametrize("n, m", [
    *(pytest.param(n, None, id=str(n)) for n in
      (1, _RBF_BLOCK - 1, _RBF_BLOCK, _RBF_BLOCK + 1, 2 * _RBF_BLOCK + 3)),
    # a cross kernel: A spans three blocks, B holds one row over a block
    pytest.param(2 * _RBF_BLOCK + 3, _RBF_BLOCK + 1, id="cross")])
def test_rbf_matches_explicit_pairwise_distances(n, m):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 3))
    Y = X if m is None else rng.normal(size=(m, 3))
    K = _rbf(X, Y, 0.3)
    diff = X[:, None, :] - Y[None, :, :]
    oracle = np.exp(-0.3 * np.sum(diff * diff, axis=2))
    assert K.shape == (n, len(Y))
    assert np.abs(K - oracle).max() <= 1e-12
    if m is None:
        assert np.array_equal(K, K.T)
        assert (np.diag(K) == 1.0).all()


def column_at_a_time_rbf(X, Y, gamma):
    acc = np.zeros((len(X), len(Y)))
    for c in range(X.shape[1]):
        acc += (X[:, c, None] - Y[None, :, c]) ** 2
    return np.exp(acc * -gamma)


@pytest.mark.parametrize("cols", [1, 5, 14])
@pytest.mark.parametrize("rows", [1, _RBF_BLOCK - 1, _RBF_BLOCK, _RBF_BLOCK + 1,
                                  2 * _RBF_BLOCK + 3])
def test_rbf_equals_the_column_at_a_time_formula_byte_for_byte(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    X = rng.normal(size=(rows, cols))
    K = _rbf(X, X, 0.02)
    assert K.tobytes() == column_at_a_time_rbf(X, X, 0.02).tobytes()
    assert np.array_equal(K, K.T)
    assert (np.diag(K) == 1.0).all()
    # a cross kernel, and a copy of X, which is not X itself
    Y = rng.normal(size=(_RBF_BLOCK + 5, cols))
    assert _rbf(X, Y, 0.3).tobytes() == column_at_a_time_rbf(X, Y, 0.3).tobytes()
    assert _rbf(X, X.copy(), 0.02).tobytes() == K.tobytes()


def test_rbf_of_rows_without_columns_is_all_ones():
    assert _rbf(np.empty((3, 0)), np.empty((2, 0)), 0.5).tolist() == [[1.0] * 2] * 3


def test_symmetric_rbf_holds_the_kernel_and_two_blocks_of_scratch():
    # beyond the kernel: the two block buffers, the transposed columns and
    # NumPy's iterator buffer for a broadcast operand, plus array headers;
    # one more l x l temporary would exceed this
    l = 301
    Z = np.random.default_rng(19).normal(size=(l, 14))
    bound = l * l * 8 + 2 * _RBF_BLOCK * l * 8 + Z.nbytes + np.getbufsize() * 8 + 8192
    assert l * l * 8 > bound - l * l * 8
    tracemalloc.start()
    try:
        _rbf(Z, Z, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_fit_peaks_below_two_kernel_sized_arrays():
    # the kernel plus the curvature rows the solver picks; holding a full
    # l x l curvature matrix next to the kernel would need three
    X, y = random_problem(0, n=300, d=5, noise=1.0)
    tracemalloc.start()
    try:
        fit(X, y, SvrConfig(C=100.0, gamma=0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 300 * 300 * 8


def test_nonconvergence_warns_and_is_recorded():
    X, y = random_problem(11)
    with pytest.warns(RuntimeWarning, match="3 iterations without converging"):
        model = fit(X, y, SvrConfig(gamma=0.5, max_passes=3))
    diag = model.diagnostics
    assert diag.iterations == 3 and not diag.converged
    assert diag.kkt_gap > model.config.tol
    assert diag.n_support == len(model.dual_coefs)


def test_fit_rejects_nan_and_tiny_input():
    with pytest.raises(ValueError):
        fit(np.array([[1.0]]), np.array([1.0]), SvrConfig())
    with pytest.raises(ValueError, match="finite"):
        fit(np.array([[0.0], [1.0]]), np.array([1.0, np.nan]), SvrConfig())
    # a NaN feature cell is filled, an infinite one still raises
    X = np.array([[np.nan], [1.0], [3.0]])
    model = fit(X, np.array([1.0, 2.0, 3.0]), SvrConfig())
    assert model.impute_means.tolist() == [2.0]
    X[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        fit(X, np.array([1.0, 2.0, 3.0]), SvrConfig())


def test_fit_rejects_names_that_do_not_name_each_column_once():
    X, y = random_problem(0, n=20, d=3)
    for names in (("a", "b"), ("a", "a", "b"), ("a", "b", "c", "d")):
        with pytest.raises(ValueError, match="3 distinct names"):
            fit(X, y, SvrConfig(), names)
    assert fit(X, y, SvrConfig(), ("a", "b", "c")).feature_names == ("a", "b", "c")


def test_fit_imputes_like_the_reference():
    rng = np.random.default_rng(13)
    wide = rng.normal(size=(45, 9))
    wide[rng.random(size=wide.shape) < 0.2] = np.nan
    wide[:, 6] = np.nan
    X = wide[:, [0, 2, 3, 6, 8]]  # a column selection, as train makes
    assert X.flags.f_contiguous and not X.flags.c_contiguous
    y = np.nan_to_num(np.sin(wide[:, 1])) + 0.1 * rng.normal(size=45)
    filled, means = reference_impute(X)
    config = SvrConfig(C=10.0, gamma=0.3)
    with pytest.warns(RuntimeWarning, match="zero-variance"):
        model, expected = fit(X, y, config), fit(filled, y, config)
    for name in ("support_vectors", "dual_coefs", "bias", "scaler_mean",
                 "scaler_std"):
        assert (np.asarray(getattr(model, name)).tobytes()
                == np.asarray(getattr(expected, name)).tobytes()), name
    assert model.impute_means.tobytes() == means.tobytes()
    assert model.impute_means[3] == 0.0


def test_predict_fills_nan_from_the_training_means():
    X, y = random_problem(14)
    X[::4, 1] = np.nan
    model = fit(X, y, SvrConfig(gamma=0.5))
    assert model.impute_means[1] == pytest.approx(np.nanmean(X[:, 1]))
    row = X[0].copy()
    by_hand = row.copy()
    by_hand[1] = model.impute_means[1]
    assert np.isnan(row[1])
    assert model.predict(row).tobytes() == model.predict(by_hand).tobytes()


def test_prediction_of_a_row_does_not_depend_on_its_batch():
    # rows over three blocks, against each row alone and the batch reversed;
    # over 128 support vectors, so that each row's sum is split into
    # pairwise halves
    X, y = random_problem(15, n=300, d=5, noise=1.0)
    model = fit(X, y, SvrConfig(C=100.0, gamma=0.01))
    assert len(model.dual_coefs) > 128
    rows = np.random.default_rng(16).normal(size=(2 * _RBF_BLOCK + 3, 5))
    rows[::7, 2] = np.nan
    rows[_RBF_BLOCK] = np.nan
    batch = model.predict(rows)
    alone = np.concatenate([model.predict(row) for row in rows])
    assert batch.tobytes() == alone.tobytes()
    assert batch.tobytes() == model.predict(rows[::-1])[::-1].tobytes()


def test_predict_edge_cases():
    X, y = random_problem(17)
    model = fit(X, y, SvrConfig(gamma=0.5))
    assert model.predict(np.empty((0, 4))).shape == (0,)
    empty = dataclasses.replace(model, support_vectors=np.empty((0, 4)),
                                dual_coefs=np.empty(0))
    assert empty.predict(X[:3]).tolist() == [model.bias] * 3


def test_predict_holds_at_most_one_block_of_kernel_rows():
    # an n x n_sv kernel for these rows would exceed the bound on its own
    X, y = random_problem(0, n=300, d=5, noise=1.0)
    model = fit(X, y, SvrConfig(C=100.0, gamma=0.01))
    n_sv = len(model.dual_coefs)
    rows = np.random.default_rng(18).normal(size=(8 * _RBF_BLOCK, 5))
    assert 8 * _RBF_BLOCK * n_sv * 8 > 4 * _RBF_BLOCK * n_sv * 8 + rows.nbytes
    tracemalloc.start()
    try:
        model.predict(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * _RBF_BLOCK * n_sv * 8 + rows.nbytes


def test_fit_and_cross_validate_reject_infinite_inputs():
    X, y = random_problem(3, n=20)
    bad_y = y.copy()
    bad_y[3] = np.inf
    bad_X = X.copy()
    bad_X[5, 1] = -np.inf
    for args in ((X, bad_y), (bad_X, y)):
        with pytest.raises(ValueError, match="finite"):
            fit(*args, SvrConfig())
        with pytest.raises(ValueError, match="finite"):
            cross_validate(*args, SvrConfig(), k=5)


def test_fit_names_a_column_it_cannot_standardize_without_warning_first():
    X, y = random_problem(4, n=20, d=3)
    huge = X.copy()
    huge[2, 1], huge[7, 1] = 1e308, -1e308  # the mean's sum overflows
    wide = X.copy()
    wide[:, 2] *= 1e160  # finite mean, the squares of the spread overflow
    for bad, name in ((huge, "b"), (wide, "c")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"\['{name}'\] have a mean or standard"):
                fit(bad, y, SvrConfig(), ("a", "b", "c"))


def test_r2_of_constant_targets():
    y = np.full(4, 0.5)
    assert _r2(y, y.copy()) == 1.0  # SST = SSE = 0: every target predicted
    assert _r2(y, np.array([0.5, 0.5, 0.5, 0.6])) == 0.0  # SST = 0 < SSE
    assert _r2(np.array([0.0, 2.0]), np.array([1.0, 1.0])) == 0.0  # 1 - SSE/SST


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
    with pytest.warns(RuntimeWarning, match="zero-variance"):
        model = fit(X, np.array([1.0, 2.0]), SvrConfig())
    assert model.impute_means.tolist() == [2.0, 0.0]  # all-NaN column gets 0
    filled = model.support_vectors * model.scaler_std + model.scaler_mean
    assert filled.tolist() == [[1.0, 0.0], [3.0, 0.0]]
    assert np.isnan(X[0, 1])  # input untouched


def test_cross_validate_is_deterministic():
    X, y = random_problem(6, n=80)
    config = SvrConfig(C=10.0, gamma=0.5, epsilon=0.1, seed=3)
    a = cross_validate(X, y, config, k=5)
    b = cross_validate(X, y, config, k=5)
    assert a.r2 == b.r2 and a.rmse == b.rmse
    assert a.fold_r2 == b.fold_r2 and a.f_stats == b.f_stats
    c = cross_validate(X, y, dataclasses.replace(config, seed=4), k=5)
    assert c.r2 != a.r2  # different shuffle, different folds


def test_cross_validate_null_target_has_no_skill():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(100, 4))
    y = rng.normal(size=100)
    report = cross_validate(X, y, SvrConfig(C=1.0, gamma=0.5, epsilon=0.1), k=5)
    assert report.r2 <= 0.1


def test_cross_validate_handles_missing_values():
    X, y = random_problem(8, n=60)
    X[::7, 2] = np.nan
    report = cross_validate(X, y, SvrConfig(C=10.0, gamma=0.5), k=5)
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
    assert loaded.impute_means.tobytes() == model.impute_means.tobytes()
    assert np.array_equal(loaded.predict(X), model.predict(X))


def test_load_model_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(ValueError):
        load_model(path)
    # a version-1 model has no imputation means
    X, y = random_problem(10)
    save_model(fit(X, y, SvrConfig(C=10.0, gamma=0.5)), path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 1
    del doc["impute_means"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format version 1"):
        load_model(path)


def tampered_models():
    yield "dual coefficients", lambda doc: doc["dual_coefs"].pop()
    yield "support vectors", lambda doc: [row.append(0.5) for row in doc["support_vectors"]]
    yield "scaler_mean", lambda doc: doc["scaler_mean"].pop()
    yield "scaler_std", lambda doc: doc["scaler_std"].append(1.0)
    yield "impute_means", lambda doc: doc["impute_means"].pop()
    yield "malformed", lambda doc: doc.pop("impute_means")
    yield "bias", lambda doc: doc.update(bias=math.nan)
    yield "bias", lambda doc: doc.update(bias=math.inf)
    yield "malformed", lambda doc: doc.pop("scaler_std")
    yield "malformed", lambda doc: doc["config"].update(tol="tight")
    yield "distinct strings", lambda doc: doc["feature_names"].__setitem__(1, "a")
    yield "distinct strings", lambda doc: doc["feature_names"].__setitem__(0, ["a"])
    yield "support_vectors", lambda doc: doc["support_vectors"][0].__setitem__(1, math.nan)
    yield "dual_coefs", lambda doc: doc["dual_coefs"].__setitem__(0, math.inf)
    yield "scaler_mean", lambda doc: doc["scaler_mean"].__setitem__(2, -math.inf)
    yield "impute_means", lambda doc: doc["impute_means"].__setitem__(0, math.nan)
    yield "scaler_std", lambda doc: doc["scaler_std"].__setitem__(3, 0.0)
    yield "scaler_std", lambda doc: doc["scaler_std"].__setitem__(0, -1.0)
    yield "scaler_std", lambda doc: doc["scaler_std"].__setitem__(1, math.inf)


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
