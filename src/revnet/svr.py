"""Epsilon-SVR with an RBF kernel, trained by an SMO-style dual solver.

The dual is posed over 2l box-constrained variables a = (alpha, alpha*) with
labels ya = (+1 ... +1, -1 ... -1):

    min  1/2 a' Q a + p' a    s.t.  ya' a = 0,  0 <= a <= C

where Q is the signed RBF kernel block matrix and p = (eps - y, eps + y).
Pairs are picked by maximal KKT violation with a second-order working-set
choice for the partner, so the solve is deterministic.  The stopping rule is
the standard gap m(a) - M(a) <= tol, which doubles as the KKT certificate.

Features are mean-imputed and z-scored with training statistics inside ``fit``;
predictions apply the stored statistics, so models are self-contained.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

MODEL_FORMAT_VERSION = 2


@dataclass(frozen=True)
class SvrConfig:
    C: float = 100.0
    gamma: float = 0.02
    epsilon: float = 0.1
    tol: float = 1e-3
    max_passes: int = 500_000  # SMO pair-update cap
    seed: int = 0

    def __post_init__(self):
        for name in ("C", "gamma", "epsilon", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")


@dataclass
class FitDiagnostics:
    iterations: int
    converged: bool
    kkt_gap: float
    train_beta: np.ndarray  # alpha - alpha* for every training row
    n_support: int


@dataclass(frozen=True, eq=False)
class SvrModel:
    support_vectors: np.ndarray  # standardized rows
    dual_coefs: np.ndarray  # alpha - alpha* of the support rows
    bias: float
    config: SvrConfig
    scaler_mean: np.ndarray
    scaler_std: np.ndarray
    feature_names: tuple[str, ...]
    impute_means: np.ndarray  # training column means; fill NaN cells
    diagnostics: Optional[FitDiagnostics] = None

    def predict(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected {len(self.feature_names)} columns, got {rows.shape[1]}")
        Z = (_fill(rows, self.impute_means) - self.scaler_mean) / self.scaler_std
        # one row at a time, with an exactly rounded sum, so that a row's
        # score does not depend on the other rows in the batch
        sv, coefs, gamma = self.support_vectors, self.dual_coefs, self.config.gamma
        out = np.empty(len(Z))
        for i, z in enumerate(Z):
            d = sv - z
            k = np.exp(-gamma * np.einsum("ij,ij->i", d, d))
            out[i] = math.fsum((k * coefs).tolist()) + self.bias
        return out


def _column_means(X: np.ndarray) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        means = np.nanmean(X, axis=0)
    return np.where(np.isnan(means), 0.0, means)


def _fill(X: np.ndarray, means: np.ndarray) -> np.ndarray:
    # a C-order copy: its layout fixes the summation order of fit's X.mean
    out = X.copy()
    nan_r, nan_c = np.where(np.isnan(out))
    out[nan_r, nan_c] = means[nan_c]
    return out


def _rbf(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    sq = (np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
          - 2.0 * A @ B.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def _solve_smo(K: np.ndarray, y: np.ndarray, config: SvrConfig):
    """SMO on the paired dual.  Returns (beta, bias, iters, converged, gap).

    Works on the 2l variables a = (alpha, alpha*), kept as Python floats,
    plus F = K beta.  The KKT scores are s = y - eps - F for the alpha half
    and s + 2 eps for the alpha* half.  Set membership is held in two
    length-2l additive masks: ``up_add`` is the half's offset (0 or 2 eps)
    where the variable is in the up set (alpha < C, alpha* > 0) and -inf
    elsewhere, ``low_add`` the offset or +inf, so each masked score set is
    one add to s repeated twice.  The masks change only at the two variables
    a step moves, and every per-step array is a buffer allocated once.  Pair
    updates move beta_i by +t and beta_j by -t.
    """
    l = len(y)
    C, eps, tol = config.C, config.epsilon, config.tol
    two_eps = 2.0 * eps
    inf = np.inf
    diag = np.ascontiguousarray(np.diag(K))
    # WSS2 curvature a_ij = max(d_i + d_j - 2 K_ij, 1e-12) for every pair,
    # formed once per fit rather than one row per iteration
    A = diag[:, None] + diag[None, :]
    A -= 2.0 * K
    np.maximum(A, 1e-12, out=A)

    y_eps = y - eps
    F = np.zeros(l)
    a = [0.0] * (2 * l)
    # at a = 0 every alpha is up only and every alpha* is low only
    up_add = np.concatenate([np.zeros(l), np.full(l, -inf)])
    low_add = np.concatenate([np.full(l, inf), np.full(l, two_eps)])
    # s stored twice: contiguous adds are cheaper than broadcast ones
    s2, up_s, low_s, obj = (np.empty(2 * l) for _ in range(4))
    s_p, s_m = s2[:l], s2[l:]
    obj_p, obj_m = obj[:l], obj[l:]
    step = np.empty(l)

    iters = 0
    gap = inf
    while iters < config.max_passes:
        np.subtract(y_eps, F, out=s_p)
        np.copyto(s_m, s_p)
        np.add(s2, up_add, out=up_s)
        vi = int(up_s.argmax())
        m = float(up_s[vi])
        np.add(s2, low_add, out=low_s)
        gap = m - float(low_s[low_s.argmin()])
        if gap <= tol:
            break

        # second-order partner choice among violators (libsvm WSS2) by the
        # objective max(m - low_s, 0)^2 / a_ij.  A zero stands in for a
        # non-violator's -inf and never wins: the argmin of low_s has
        # b = gap > tol, so its objective is at least tol^2 / 2, as an RBF
        # kernel has a_ij <= 2, and that is positive for any tol > 1e-161.
        i = vi if vi < l else vi - l
        np.subtract(m, low_s, out=obj)
        np.maximum(obj, 0.0, out=obj)
        np.square(obj, out=obj)
        A_i = A[i]
        np.divide(obj_p, A_i, out=obj_p)
        np.divide(obj_m, A_i, out=obj_m)
        vj = int(obj.argmax())
        score_j = float(low_s[vj])
        if not math.isfinite(score_j):
            break
        j = vj if vj < l else vj - l

        t = (m - score_j) / float(A[i, j])
        # clip so all four variables stay inside [0, C]
        t = min(t, C - a[vi] if vi < l else a[vi])
        t = min(t, a[vj] if vj < l else C - a[vj])
        if t <= 0:
            break
        a[vi] += t if vi < l else -t
        a[vj] += -t if vj < l else t
        for v in (vi, vj):
            if v < l:
                up_add[v] = 0.0 if a[v] < C else -inf
                low_add[v] = 0.0 if a[v] > 0 else inf
            else:
                up_add[v] = two_eps if a[v] > 0 else -inf
                low_add[v] = two_eps if a[v] < C else inf
        np.multiply(K[i], t, out=step)
        F += step
        np.multiply(K[j], t, out=step)
        F -= step
        iters += 1

    converged = gap <= tol
    a = np.array(a)
    beta = a[:l] - a[l:]

    np.subtract(y_eps, F, out=s_p)
    np.add(s_p, two_eps, out=s_m)
    up_s = np.where(up_add > -inf, s2, -inf)
    low_s = np.where(low_add < inf, s2, inf)
    if gap == 0.0:
        # adding a +0.0 mask turns a -0.0 score into +0.0; a zero gap ends
        # the loop at its check, so F is unchanged and the masked scores
        # give the gap's sign
        gap = float(up_s[up_s.argmax()] - low_s.min())
    # bias from free variables; fall back to the midpoint of the KKT bounds
    free = (a > 1e-12) & (a < C - 1e-12)
    if free.any():
        bias = float(np.mean(s2[free]))
    else:
        bias = float((up_s.max() + low_s.min()) / 2.0)
    return beta, bias, iters, converged, float(gap)


def fit(X: np.ndarray, y: np.ndarray, config: SvrConfig,
        feature_names: Optional[tuple[str, ...]] = None) -> SvrModel:
    """Impute, standardize, solve the dual, and package the model.

    ``X`` needs at least 2 rows and no infinite cell.  NaN cells are filled
    with their column's mean (0 for an all-NaN column), kept as the model's
    ``impute_means`` for the rows it predicts.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) < 2:
        raise ValueError("need a 2-D matrix with at least 2 rows")
    if np.isinf(X).any() or not np.isfinite(y).all():
        raise ValueError("fit requires finite targets and non-infinite features")
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(X.shape[1]))

    impute = _column_means(X)
    X = _fill(X, impute)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    degenerate = std < 1e-12
    if degenerate.any():
        warnings.warn("zero-variance column(s) scaled with std=1", RuntimeWarning)
        std = np.where(degenerate, 1.0, std)
    Z = (X - mean) / std

    K = _rbf(Z, Z, config.gamma)
    beta, bias, iters, converged, gap = _solve_smo(K, y, config)
    if not converged:
        warnings.warn(f"SMO solver stopped after {iters} iterations without "
                      f"converging: KKT gap {gap:.6g} > tol {config.tol:g}",
                      RuntimeWarning, stacklevel=2)

    keep = np.abs(beta) >= 1e-12
    return SvrModel(
        support_vectors=Z[keep].copy(),
        dual_coefs=beta[keep].copy(),
        bias=bias,
        config=config,
        scaler_mean=mean,
        scaler_std=std,
        feature_names=tuple(feature_names),
        impute_means=impute,
        diagnostics=FitDiagnostics(iters, converged, gap, beta, int(keep.sum())),
    )


def f_statistic(column: np.ndarray, targets: np.ndarray) -> float:
    """Univariate linear-regression F = SSR (n-2) / SSE.

    Both sums of squares come from centred values, SSE summed over the
    residuals: the textbook r^2 (n-2) / (1 - r^2) loses digits in 1 - r^2
    when r is near 1.
    """
    x = np.asarray(column, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("inputs must be finite")
    if x.std() < 1e-15 or y.std() < 1e-15:
        return 0.0
    xc = x - x.mean()
    yc = y - y.mean()
    sxy = float(np.sum(xc * yc))
    slope = sxy / float(np.sum(xc * xc))
    residuals = yc - slope * xc
    sse = float(np.sum(residuals * residuals))
    if sse <= 1e-15 * float(np.sum(yc * yc)):  # r^2 >= 1 - 1e-15
        return math.inf
    return slope * sxy * (n - 2) / sse


@dataclass
class EvalReport:
    r2: float
    rmse: float
    fold_r2: list[float]
    fold_rmse: list[float]
    f_stats: dict[str, float]
    fold_fits: list[FitDiagnostics]


def cross_validate(X: np.ndarray, y: np.ndarray, config: SvrConfig,
                   k: int = 10,
                   feature_names: Optional[tuple[str, ...]] = None) -> EvalReport:
    """k-fold CV over a shuffle seeded by ``config.seed``.

    Pooled R^2 and RMSE are computed over the concatenated held-out
    predictions; F-statistics use the full matrix, mean-imputed.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.isinf(X).any() or not np.isfinite(y).all():
        raise ValueError("cross_validate requires finite targets and features "
                         "(NaN features are imputed per fold)")
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(X) < k:
        raise ValueError(f"k={k} exceeds the {len(X)} available rows")

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(X))
    folds = np.array_split(order, k)

    preds = np.empty(len(X))
    fold_r2, fold_rmse, fold_fits = [], [], []
    for test_idx in folds:
        train_idx = np.setdiff1d(order, test_idx, assume_unique=True)
        model = fit(X[train_idx], y[train_idx], config, feature_names)
        p = model.predict(X[test_idx])
        preds[test_idx] = p
        fold_fits.append(model.diagnostics)
        fold_r2.append(_r2(y[test_idx], p))
        fold_rmse.append(float(np.sqrt(np.mean((y[test_idx] - p) ** 2))))

    full = _fill(X, _column_means(X))
    f_stats = {name: f_statistic(full[:, i], y)
               for i, name in enumerate(model.feature_names)}

    return EvalReport(
        r2=_r2(y, preds),
        rmse=float(np.sqrt(np.mean((y - preds) ** 2))),
        fold_r2=fold_r2,
        fold_rmse=fold_rmse,
        f_stats=f_stats,
        fold_fits=fold_fits,
    )


def _r2(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    sst = float(np.sum((y_true - y_true.mean()) ** 2))
    sse = float(np.sum((y_true - y_pred) ** 2))
    if sst == 0.0:
        return 0.0 if sse > 0 else 1.0
    return 1.0 - sse / sst


# -- persistence ------------------------------------------------------------


def save_model(model: SvrModel, path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(model.config),
        "feature_names": list(model.feature_names),
        "scaler_mean": model.scaler_mean.tolist(),
        "scaler_std": model.scaler_std.tolist(),
        "impute_means": model.impute_means.tolist(),
        "support_vectors": model.support_vectors.tolist(),
        "dual_coefs": model.dual_coefs.tolist(),
        "bias": model.bias,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path) -> SvrModel:
    """Read a model written by ``save_model``; a malformed file raises
    ``ValueError`` naming what disagrees."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"malformed model file {path}: not a JSON object")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version "
                         f"{doc.get('format_version')!r}, expected "
                         f"{MODEL_FORMAT_VERSION}; retrain the model")
    try:
        names = tuple(doc["feature_names"])
        sv = np.array(doc["support_vectors"], dtype=np.float64)
        coefs = np.array(doc["dual_coefs"], dtype=np.float64)
        mean = np.array(doc["scaler_mean"], dtype=np.float64)
        std = np.array(doc["scaler_std"], dtype=np.float64)
        impute = np.array(doc["impute_means"], dtype=np.float64)
        bias = float(doc["bias"])
        config = SvrConfig(**doc["config"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model file {path}: {exc!r}") from exc
    n_feat = len(names)
    if not all(type(n) is str for n in names) or len(set(names)) != n_feat:
        raise ValueError(f"model feature_names not distinct strings: {names}")
    if sv.size == 0:
        sv = sv.reshape(0, n_feat)
    if sv.ndim != 2 or sv.shape[1] != n_feat:
        raise ValueError(f"model support vectors have shape {sv.shape}, "
                         f"expected rows of {n_feat} features")
    if coefs.ndim != 1 or len(coefs) != len(sv):
        raise ValueError(f"model has {len(sv)} support vectors but "
                         f"{coefs.size} dual coefficients")
    for label, arr in (("scaler_mean", mean), ("scaler_std", std),
                       ("impute_means", impute)):
        if arr.shape != (n_feat,):
            raise ValueError(f"model {label} has shape {arr.shape}, "
                             f"expected ({n_feat},)")
    if not math.isfinite(bias):
        raise ValueError(f"model bias is not finite: {bias!r}")
    return SvrModel(
        support_vectors=sv,
        dual_coefs=coefs,
        bias=bias,
        config=config,
        scaler_mean=mean,
        scaler_std=std,
        feature_names=names,
        impute_means=impute,
    )
