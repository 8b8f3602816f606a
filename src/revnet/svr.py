"""Epsilon-SVR with an RBF kernel, trained by an SMO-style dual solver.

The dual is posed over 2l box-constrained variables a = (alpha, alpha*) with
labels ya = (+1 ... +1, -1 ... -1):

    min  1/2 a' Q a + p' a    s.t.  ya' a = 0,  0 <= a <= C

where Q is the signed RBF kernel block matrix and p = (eps - y, eps + y).
Pairs are picked by maximal KKT violation with a second-order working-set
choice for the partner, so the solve is deterministic.  The stopping rule is
the standard gap m(a) - M(a) <= tol, which doubles as the KKT certificate.

Features are z-scored with training statistics inside ``fit``; predictions
apply the stored scaler, so models are self-contained and serializable.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

MODEL_FORMAT_VERSION = 1


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


@dataclass
class SvrModel:
    support_vectors: np.ndarray  # standardized rows
    dual_coefs: np.ndarray  # alpha - alpha* of the support rows
    bias: float
    config: SvrConfig
    scaler_mean: np.ndarray
    scaler_std: np.ndarray
    feature_names: tuple[str, ...]
    diagnostics: Optional[FitDiagnostics] = field(default=None, compare=False)

    def predict(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected {len(self.feature_names)} columns, got {rows.shape[1]}")
        Z = (rows - self.scaler_mean) / self.scaler_std
        if len(self.dual_coefs) == 0:
            return np.full(len(Z), self.bias)
        K = _rbf(Z, self.support_vectors, self.config.gamma)
        return K @ self.dual_coefs + self.bias


def _rbf(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    sq = (np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
          - 2.0 * A @ B.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def _solve_smo(K: np.ndarray, y: np.ndarray, config: SvrConfig):
    """SMO on the paired dual.  Returns (beta, bias, iters, converged, gap).

    Works on the 2l variables a = (alpha, alpha*), kept as Python floats,
    plus F = K beta.  The KKT scores are s = y - eps - F for the alpha half
    and s + 2 eps for the alpha* half, both held in one length-2l vector; the
    up/low membership masks over the 2l variables change only at the two
    variables a step moves.  Pair updates move beta_i by +t and beta_j by -t.
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
    s = np.empty(2 * l)
    s_p, s_m = s[:l], s[l:]
    a = [0.0] * (2 * l)
    up = np.arange(2 * l) < l  # alpha < C, alpha* > 0
    low = ~up  # alpha > 0, alpha* < C

    iters = 0
    gap = inf
    while iters < config.max_passes:
        np.subtract(y_eps, F, out=s_p)
        np.add(s_p, two_eps, out=s_m)
        up_s = np.where(up, s, -inf)
        vi = int(up_s.argmax())
        m = float(up_s[vi])
        low_s = np.where(low, s, inf)
        gap = m - float(low_s.min())
        if gap <= tol:
            break

        # second-order partner choice among violators (libsvm WSS2)
        i = vi if vi < l else vi - l
        b = (m - low_s).reshape(2, l)
        obj = np.where(b > 0, b * b / A[i], -inf)
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
                up[v], low[v] = a[v] < C, a[v] > 0
            else:
                up[v], low[v] = a[v] > 0, a[v] < C
        F += t * K[i]
        F -= t * K[j]
        iters += 1

    converged = gap <= tol
    a = np.array(a)
    beta = a[:l] - a[l:]

    # bias from free variables; fall back to the midpoint of the KKT bounds
    np.subtract(y_eps, F, out=s_p)
    np.add(s_p, two_eps, out=s_m)
    free = (a > 1e-12) & (a < C - 1e-12)
    if free.any():
        bias = float(np.mean(s[free]))
    else:
        hi = np.where(up, s, -inf).max()
        lo = np.where(low, s, inf).min()
        bias = float((hi + lo) / 2.0)
    return beta, bias, iters, converged, float(gap)


def fit(X: np.ndarray, y: np.ndarray, config: SvrConfig,
        feature_names: Optional[tuple[str, ...]] = None) -> SvrModel:
    """Standardize, solve the dual, and package the model.

    ``X`` must be fully imputed (no NaN) with at least 2 rows.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) < 2:
        raise ValueError("need a 2-D matrix with at least 2 rows")
    if np.isnan(X).any() or np.isnan(y).any():
        raise ValueError("fit requires imputed (NaN-free) inputs")
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(X.shape[1]))

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
    model = SvrModel(
        support_vectors=Z[keep].copy(),
        dual_coefs=beta[keep].copy(),
        bias=bias,
        config=config,
        scaler_mean=mean,
        scaler_std=std,
        feature_names=tuple(feature_names),
        diagnostics=FitDiagnostics(iters, converged, gap, beta, int(keep.sum())),
    )
    return model


def kkt_max_violation(model: SvrModel, X: np.ndarray, y: np.ndarray) -> float:
    """Largest KKT violation of the fitted dual over the training set.

    Conditions per point, with r = y - f(x):
      beta = 0        |r| <= eps
      beta = +C       r >= eps
      beta = -C       r <= -eps
      0 < |beta| < C  |r| = eps (matching sign)
    Returns the max slack needed to make every condition hold.
    """
    if model.diagnostics is None:
        raise ValueError("model carries no training diagnostics")
    beta = model.diagnostics.train_beta
    C, eps = model.config.C, model.config.epsilon
    r = np.asarray(y, dtype=np.float64) - model.predict(X)

    bound = 1e-9 * C
    if np.any((beta > C + bound) | (beta < -C - bound)):
        return math.inf  # dual infeasible
    v = np.select(
        [np.abs(beta) <= bound, beta >= C - bound, beta <= -C + bound, beta > 0],
        [np.abs(r) - eps, eps - r, eps + r, np.abs(r - eps)],
        default=np.abs(r + eps))
    return float(np.max(v, initial=0.0, where=~np.isnan(v)))


def f_statistic(column: np.ndarray, targets: np.ndarray) -> float:
    """Univariate linear-regression F = r^2 (n-2) / (1 - r^2)."""
    x = np.asarray(column, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("inputs must be finite")
    sx = x.std()
    sy = y.std()
    if sx < 1e-15 or sy < 1e-15:
        return 0.0
    r = float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))
    r2 = min(r * r, 1.0)
    if r2 >= 1.0 - 1e-15:
        return math.inf
    return r2 * (n - 2) / (1.0 - r2)


@dataclass
class EvalReport:
    r2: float
    rmse: float
    fold_r2: list[float]
    fold_rmse: list[float]
    f_stats: dict[str, float]
    seed: int
    config: SvrConfig
    fold_fits: list[FitDiagnostics]


def impute_columns(X: np.ndarray, means: np.ndarray) -> np.ndarray:
    out = X.copy()
    nan_r, nan_c = np.where(np.isnan(out))
    out[nan_r, nan_c] = means[nan_c]
    return out


def column_means(X: np.ndarray) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        means = np.nanmean(X, axis=0)
    return np.where(np.isnan(means), 0.0, means)


def cross_validate(X: np.ndarray, y: np.ndarray, config: SvrConfig,
                   k: int = 10, seed: Optional[int] = None,
                   feature_names: Optional[tuple[str, ...]] = None) -> EvalReport:
    """Seeded shuffled k-fold CV with per-fold mean imputation.

    Pooled R^2 and RMSE are computed over the concatenated held-out
    predictions; F-statistics use the full (fully imputed) matrix.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(X) < k:
        raise ValueError(f"k={k} exceeds the {len(X)} available rows")
    if seed is None:
        seed = config.seed

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(X))
    folds = np.array_split(order, k)

    preds = np.empty(len(X))
    fold_r2, fold_rmse, fold_fits = [], [], []
    for test_idx in folds:
        train_idx = np.setdiff1d(order, test_idx, assume_unique=True)
        means = column_means(X[train_idx])
        model = fit(impute_columns(X[train_idx], means), y[train_idx], config,
                    feature_names)
        p = model.predict(impute_columns(X[test_idx], means))
        preds[test_idx] = p
        fold_fits.append(model.diagnostics)
        fold_r2.append(_r2(y[test_idx], p))
        fold_rmse.append(float(np.sqrt(np.mean((y[test_idx] - p) ** 2))))

    full = impute_columns(X, column_means(X))
    names = feature_names or tuple(f"x{i}" for i in range(X.shape[1]))
    f_stats = {name: f_statistic(full[:, i], y) for i, name in enumerate(names)}

    return EvalReport(
        r2=_r2(y, preds),
        rmse=float(np.sqrt(np.mean((y - preds) ** 2))),
        fold_r2=fold_r2,
        fold_rmse=fold_rmse,
        f_stats=f_stats,
        seed=seed,
        config=config,
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
        raise ValueError(f"unsupported model format: {doc.get('format_version')!r}")
    try:
        names = tuple(doc["feature_names"])
        sv = np.array(doc["support_vectors"], dtype=np.float64)
        coefs = np.array(doc["dual_coefs"], dtype=np.float64)
        mean = np.array(doc["scaler_mean"], dtype=np.float64)
        std = np.array(doc["scaler_std"], dtype=np.float64)
        bias = float(doc["bias"])
        config = SvrConfig(**doc["config"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model file {path}: {exc!r}") from exc
    n_feat = len(names)
    if sv.size == 0:
        sv = sv.reshape(0, n_feat)
    if sv.ndim != 2 or sv.shape[1] != n_feat:
        raise ValueError(f"model support vectors have shape {sv.shape}, "
                         f"expected rows of {n_feat} features")
    if coefs.ndim != 1 or len(coefs) != len(sv):
        raise ValueError(f"model has {len(sv)} support vectors but "
                         f"{coefs.size} dual coefficients")
    for label, arr in (("scaler_mean", mean), ("scaler_std", std)):
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
    )
