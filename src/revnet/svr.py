"""Epsilon-SVR with an RBF kernel, trained by an SMO-style dual solver.

The dual is posed over 2l box-constrained variables a = (alpha, alpha*) with
labels ya = (+1 ... +1, -1 ... -1):

    min  1/2 a' Q a + p' a    s.t.  ya' a = 0,  0 <= a <= C

where Q is the signed RBF kernel block matrix and p = (eps - y, eps + y).
Pairs are picked by maximal KKT violation with a second-order working-set
choice for the partner, so the solve is deterministic.  The stopping rule is
the standard gap m(a) - M(a) <= tol, which doubles as the KKT certificate.
Once SMO has sorted most rows to their bounds, an exact finish takes over
from SMO's betas: a primal active-set phase (as in Scheinberg, JMLR 7,
2006) on the small block of free rows, which ends the fit when its end
point passes the same gap test.

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

from .outputs import write_lines

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
    finish_rounds: int = 0  # steps of the finish that ended the fit, or 0
    finish_tries: int = 0  # finish tries, successful or not


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
        inf_rows = np.flatnonzero(np.isinf(rows).any(axis=1))
        if len(inf_rows):
            raise ValueError(f"row {inf_rows[0]} (counting from 0) holds an infinite "
                             f"feature value; only NaN cells are imputed")
        Z = (_fill(rows, self.impute_means) - self.scaler_mean) / self.scaler_std
        # one reduction per row, so a row's score does not depend on its batch
        sv, coefs, gamma = self.support_vectors, self.dual_coefs, self.config.gamma
        out = np.full(len(Z), self.bias)
        for lo in range(0, len(Z), _RBF_BLOCK):
            Kb = _rbf(Z[lo:lo + _RBF_BLOCK], sv, gamma)
            out[lo:lo + _RBF_BLOCK] += np.add.reduce(
                np.multiply(Kb, coefs, out=Kb), axis=1)
            del Kb  # freed before the next block's kernel is built
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


# rows of A per step of _rbf, and of the batch per step of predict
_RBF_BLOCK = 64


def _rbf(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma |a_i - b_j|^2) for the rows of ``A`` and ``B``, summed a column
    at a time by elementwise operations and no BLAS: an entry depends on its two
    rows alone, and ``_rbf(Z, Z, gamma)`` is exactly symmetric with diagonal 1.

    Each block of rows of ``A`` is summed in a contiguous scratch, the first
    column's squares written straight into it: the block's own rows of the
    result when they are whole, else one buffer reused for every block.
    For ``A is B`` a block holds only the columns on and right of its
    diagonal, and its transpose fills the rows below it: (a - b)^2 and
    (b - a)^2 are the same float, so each mirrored entry keeps its bits.
    """
    if A.shape[1] == 0:
        return np.ones((len(A), len(B)))  # exp(-gamma * 0)
    symmetric = A is B
    # the columns as contiguous rows, so that each copy below reads a run
    AT = np.ascontiguousarray(A.T)
    BT = AT if symmetric else np.ascontiguousarray(B.T)
    K = np.empty((len(A), len(B)))
    size = min(len(A), _RBF_BLOCK) * len(B)
    d_buf = np.empty(size)
    acc_buf = np.empty(size) if symmetric else None
    for lo in range(0, len(A), _RBF_BLOCK):
        hi = min(lo + _RBF_BLOCK, len(A))
        start = lo if symmetric else 0
        shape = (hi - lo, len(B) - start)
        d = d_buf[:shape[0] * shape[1]].reshape(shape)
        acc = acc_buf[:d.size].reshape(shape) if start else K[lo:hi]
        for c, (a, b) in enumerate(zip(AT[:, lo:hi], BT[:, start:])):
            # copy, then subtract: faster in NumPy than a subtract of two
            # broadcast operands; and a contiguous add is faster than an
            # add into a strided view of K
            s = d if c else acc
            s[...] = b
            s -= a[:, None]
            s *= s
            if c:
                acc += d
        np.multiply(acc, -gamma, out=acc)
        np.exp(acc, out=acc)
        if start:
            K[lo:hi, start:] = acc
        if symmetric:
            K[hi:, lo:hi] = acc[:, hi - lo:].T
    return K


# the exact finish: first tried once the SMO gap falls below _FINISH_GAP;
# after a failed try, once it falls below _FINISH_BACKOFF times the gap at
# that failure.  A try takes at most l steps with at most a quarter of the
# rows free, releases at most _FINISH_RELEASE bound rows at the end point
# of each face, and adds _FINISH_RIDGE to the free kernel block's diagonal
# so that duplicate rows leave it solvable.
_FINISH_GAP = 0.3
_FINISH_BACKOFF = 0.25
_FINISH_RELEASE = 4
_FINISH_RIDGE = 1e-10
# a rank-one update whose pivot is below this cancels entries of order
# 1 / pivot and loses their digits; the inverse is computed afresh instead
_FINISH_PIVOT = 1e-6
# below eight rows the quarter rule leaves at most one free row, and
# sum beta = 0 puts a lone free beta at a multiple of C, on a bound, so the
# finish has no free row to solve for
_FINISH_MIN_ROWS = 8


def _set_masks(a: np.ndarray, C: float, two_eps: float):
    """The up and low set masks of ``_solve_smo`` for the variables ``a``."""
    l = len(a) // 2
    offset = np.concatenate([np.zeros(l), np.full(l, two_eps)])
    up = np.concatenate([a[:l] < C, a[l:] > 0])
    low = np.concatenate([a[:l] > 0, a[l:] < C])
    return np.where(up, offset, -np.inf), np.where(low, offset, np.inf)


def _row_states(a: np.ndarray, C: float) -> np.ndarray:
    """Each row's state from its beta: +-2 at +-C, +-1 free with that sign,
    0 at zero, each within 1e-8 C."""
    l = len(a) // 2
    beta = a[:l] - a[l:]
    near = 1e-8 * C
    return np.select([beta >= C - near, beta > near, beta <= near - C, beta < -near],
                     [2, 1, -2, -1], 0)


def _bordered(K: np.ndarray, free: np.ndarray) -> np.ndarray:
    """[[0, 1'], [1, K_FF + ridge]]: the free rows' bordered system, with
    the bias first."""
    n = len(free)
    A = np.empty((n + 1, n + 1))
    A[0, 0] = 0.0
    A[0, 1:] = A[1:, 0] = 1.0
    A[1:, 1:] = K[np.ix_(free, free)]
    A[range(1, n + 1), range(1, n + 1)] += _FINISH_RIDGE
    return A


class _BorderedInverse:
    """The inverse of ``_bordered(K, free)`` while rows join and leave
    ``free``, which holds at most a quarter of K's rows.

    The inverse lives in one buffer of (l/4 + 1)^2 doubles.  ``drop`` moves
    the last free row into the dropped row's place and downdates; ``add``
    borders.  Each is one rank-one update, or a fresh inverse when its
    pivot is below _FINISH_PIVOT.  LAPACK's LinAlgError passes through.
    """

    def __init__(self, K: np.ndarray, free: np.ndarray):
        size = len(K) // 4 + 1
        self.K = K
        self.free = free
        self.buf = np.empty((size, size))
        self.invert()

    def invert(self):
        m = len(self.free) + 1
        self.buf[:m, :m] = np.linalg.inv(_bordered(self.K, self.free))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        m = len(self.free) + 1
        return self.buf[:m, :m] @ rhs

    def drop(self, k: int):
        m = len(self.free)
        inv = self.buf[:m + 1, :m + 1]
        p = k + 1
        row, column = inv[p].copy(), inv[:, p].copy()
        corner = row[p]  # 1 / the dropped row's pivot
        inv[p] = inv[m]
        inv[:, p] = inv[:, m]
        row[p], column[p] = row[m], column[m]
        self.free[k] = self.free[m - 1]
        self.free = self.free[:m - 1]
        if 0.0 < corner * _FINISH_PIVOT < 1.0:
            inv[:m, :m] -= np.outer(column[:m], row[:m] / corner)
        else:
            self.invert()

    def add(self, j: int):
        m = len(self.free) + 1
        inv = self.buf[:m + 1, :m + 1]
        u = np.append(1.0, self.K[j, self.free])
        column, row = inv[:m, :m] @ u, u @ inv[:m, :m]
        pivot = self.K[j, j] + _FINISH_RIDGE - u @ column
        self.free = np.append(self.free, j)
        if pivot < _FINISH_PIVOT:
            self.invert()
            return
        column /= pivot
        inv[:m, :m] += np.outer(column, row)
        inv[:m, m] = -column
        inv[m, :m] = row / -pivot
        inv[m, m] = 1.0 / pivot


def _finish(K: np.ndarray, y: np.ndarray, a: np.ndarray, config: SvrConfig):
    """The exact finish: a primal active-set phase (Nocedal & Wright,
    Numerical Optimization, 16.5) from SMO's feasible variables ``a``.

    ``_row_states`` classes each row; bound rows keep 0 or +-C.  Each step
    solves the bordered system [[0, 1'], [1, K_FF]] [b; beta_F] =
    [-sum beta_B; y_F - eps sign_F - (K beta_B)_F] through its inverse and
    moves beta_F toward the solution by the largest step that keeps each
    free beta inside [0, C] on its sign's side.  The row that blocks the
    step is pinned at the bound it reached.  At the end point of a face,
    the bound rows whose KKT violation against b exceeds tol / 2 turn free
    with the sign that reduces it, at most _FINISH_RELEASE of them, the
    largest first.  The inverse follows each pin and release by a rank-one
    update, and K beta_B by one kernel row.  An end point with no violator
    is solved afresh and accepted when every free beta is on its sign's
    side within [0, C], the gap over all 2l variables is at most tol and
    |sum beta| <= 1e-9 C.  Returns (a, F, steps, gap) then, else None.
    """
    l = len(y)
    C, eps, tol = config.C, config.epsilon, config.tol
    states = _row_states(a, C)
    free = np.flatnonzero(states % 2)
    if len(free) == 0 or 4 * len(free) > l:
        return None
    beta = np.where(states % 2 == 0, 0.5 * C * states, a[:l] - a[l:])
    beta_b = np.where(states % 2 == 0, beta, 0.0)
    KB = K @ beta_b
    sum_b = float(beta_b.sum())
    try:
        inverse = _BorderedInverse(K, free)
        for steps in range(1, l + 1):
            free = inverse.free
            sign = states[free]
            solution = inverse.solve(
                np.concatenate(([-sum_b], y[free] - eps * sign - KB[free])))
            d = solution[1:] - beta[free]
            # each free beta heads for 0 or its sign's bound; its room is
            # the share of d it can take before reaching that
            edge = np.where(d * sign > 0, C * sign, 0.0)
            room = np.divide(edge - beta[free], d, out=np.full(len(d), np.inf),
                             where=d != 0.0)
            k = int(room.argmin())
            if room[k] < 1.0:
                beta[free] += max(room[k], 0.0) * d
                j = free[k]
                beta[j] = edge[k]
                states[j] = 2 * sign[k] if edge[k] else 0
                if edge[k]:
                    KB += edge[k] * K[j]
                    sum_b += edge[k]
                if len(free) == 1:
                    return None
                inverse.drop(k)
                continue

            beta[free] = solution[1:]
            # KKT violations of the bound rows against b, with r = y - f - b:
            # |r| - eps at 0, eps - r at +C and eps + r at -C
            r = y - (KB + beta[free] @ K[free]) - solution[0]
            violation = np.where(states == 0, np.abs(r) - eps, eps - 0.5 * states * r)
            violation[free] = -np.inf
            grow = np.flatnonzero(violation > tol / 2)
            if len(grow) == 0:
                return _accept(K, y, states, free, config, steps)
            grow = grow[np.argsort(-violation[grow], kind="stable")[:_FINISH_RELEASE]]
            if 4 * (len(free) + len(grow)) > l:
                return None
            for j in grow:
                # the sign that reduces the violation
                states[j] = states[j] // 2 if states[j] else (1 if r[j] > 0 else -1)
                if beta[j]:
                    KB -= beta[j] * K[j]
                    sum_b -= beta[j]
                inverse.add(j)
    except np.linalg.LinAlgError:
        return None
    return None


def _accept(K, y, states, free, config, steps):
    """The finish's end point ``states`` solved afresh, as ``_finish``
    returns it, or None when it fails a check."""
    C, eps, tol = config.C, config.epsilon, config.tol
    beta = np.where(states % 2 == 0, 0.5 * C * states, 0.0)
    rhs = np.concatenate(([-beta.sum()], y[free] - eps * states[free] - (K @ beta)[free]))
    try:
        beta_f = np.linalg.solve(_bordered(K, free), rhs)[1:]
    except np.linalg.LinAlgError:
        return None
    if not ((beta_f * states[free] > 0).all() and (np.abs(beta_f) <= C).all()):
        return None
    beta[free] = beta_f
    if abs(beta.sum()) > 1e-9 * C:
        return None
    a = np.concatenate([np.maximum(beta, 0.0), np.maximum(-beta, 0.0)])
    F = K @ beta
    up_add, low_add = _set_masks(a, C, 2.0 * eps)
    s = (y - eps) - F
    s2 = np.concatenate([s, s])
    gap = float((s2 + up_add).max()) - float((s2 + low_add).min())
    if gap > tol:
        return None
    return a, F, steps, gap


def _solve_smo(K: np.ndarray, y: np.ndarray, config: SvrConfig,
               start: Optional[np.ndarray] = None):
    """SMO on the paired dual with an exact finish, from zero or from the
    feasible betas ``start``.  Returns (beta, bias, iters, converged, gap,
    finish_rounds, finish_tries).

    Works on the 2l variables a = (alpha, alpha*), kept as Python floats,
    plus F = K beta.  The KKT scores are s = y - eps - F for the alpha half
    and s + 2 eps for the alpha* half.  Set membership is held in two
    length-2l additive masks: ``up_add`` is the half's offset (0 or 2 eps)
    where the variable is in the up set (alpha < C, alpha* > 0) and -inf
    elsewhere, ``low_add`` the offset or +inf, so each masked score set is
    one add to s repeated twice.  The masks change only at the two variables
    a step moves, and every per-step array is a buffer allocated once.  Pair
    updates move beta_i by +t and beta_j by -t.

    The WSS2 curvature row a_i = max(2 - 2 K_i, 1e-12) (K's diagonal is
    exactly 1) is built the first time i is picked and kept for the rest of
    the fit.  A fit picks about half its rows, so the rows take about half
    the memory of the full l x l matrix and cost less to build.

    When the gap falls below the next try's threshold on a fit of at least
    ``_FINISH_MIN_ROWS`` rows, ``_finish`` starts from a, unless the row
    states equal those of the last failed try.  A result that passes its
    checks replaces a, F and the masks and ends the fit; otherwise SMO
    carries on from where it stopped.  ``iters`` counts SMO steps only,
    ``finish_rounds`` the successful finish's steps (or 0) and
    ``finish_tries`` every call of ``_finish``.
    """
    l = len(y)
    C, eps, tol = config.C, config.epsilon, config.tol
    two_eps = 2.0 * eps
    inf = np.inf
    curvature = {}  # i -> a_i, for each i picked so far

    y_eps = y - eps
    if start is None:
        a0, F = np.zeros(2 * l), np.zeros(l)
    else:
        a0 = np.concatenate([np.maximum(start, 0.0), np.maximum(-start, 0.0)])
        F = K @ start
    a = a0.tolist()
    up_add, low_add = _set_masks(a0, C, two_eps)
    # s stored twice: contiguous adds are cheaper than broadcast ones
    s2, up_s, low_s, obj = (np.empty(2 * l) for _ in range(4))
    s_p, s_m = s2[:l], s2[l:]
    obj_p, obj_m = obj[:l], obj[l:]
    step = np.empty(l)

    iters = 0
    gap = inf
    finish_rounds = finish_tries = 0
    next_try, failed_states = _FINISH_GAP, None
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
        if gap < next_try and l >= _FINISH_MIN_ROWS:
            a_now = np.array(a)
            states = _row_states(a_now, C)
            if failed_states is None or not np.array_equal(states, failed_states):
                finish_tries += 1
                finished = _finish(K, y, a_now, config)
                if finished is not None:
                    a_new, F, finish_rounds, gap = finished
                    a = a_new.tolist()
                    up_add, low_add = _set_masks(a_new, C, two_eps)
                    break
            next_try, failed_states = _FINISH_BACKOFF * gap, states

        # second-order partner choice among violators (libsvm WSS2) by the
        # objective max(m - low_s, 0)^2 / a_ij.  A zero stands in for a
        # non-violator's -inf and never wins: the argmin of low_s has
        # b = gap > tol, so its objective is at least tol^2 / 2, as an RBF
        # kernel has a_ij <= 2, and that is positive for any tol > 1e-161.
        i = vi if vi < l else vi - l
        np.subtract(m, low_s, out=obj)
        np.maximum(obj, 0.0, out=obj)
        np.square(obj, out=obj)
        a_i = curvature.get(i)
        if a_i is None:
            # 2 + (-2 k) is 2 - 2 k in IEEE arithmetic; one buffer per row
            a_i = curvature[i] = np.multiply(K[i], -2.0)
            a_i += 2.0
            np.maximum(a_i, 1e-12, out=a_i)
        np.divide(obj_p, a_i, out=obj_p)
        np.divide(obj_m, a_i, out=obj_m)
        vj = int(obj.argmax())
        score_j = float(low_s[vj])
        if not math.isfinite(score_j):
            break
        j = vj if vj < l else vj - l

        t = (m - score_j) / float(a_i[j])
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
    return beta, bias, iters, converged, float(gap), finish_rounds, finish_tries


def _check_start(start, rows: int, C: float) -> np.ndarray:
    """``start`` as a float array, or ValueError naming the rule it breaks:
    one finite beta per row, each within [-C, C], summing to 0 within
    1e-9 C."""
    start = np.asarray(start, dtype=np.float64)
    if start.shape != (rows,):
        raise ValueError(f"start must hold one beta per row: expected shape "
                         f"({rows},), got {start.shape}")
    if not np.isfinite(start).all():
        raise ValueError("start must hold finite betas only")
    if np.abs(start).max(initial=0.0) > C:
        raise ValueError(f"start betas must lie within [-C, C] for C = {C:g}")
    if abs(float(start.sum())) > 1e-9 * C:
        raise ValueError(f"start betas must sum to 0 within 1e-9 C; they sum "
                         f"to {float(start.sum()):.6g}")
    return start


def fit(X: np.ndarray, y: np.ndarray, config: SvrConfig,
        feature_names: Optional[tuple[str, ...]] = None,
        start: Optional[np.ndarray] = None) -> SvrModel:
    """Impute, standardize, solve the dual, and package the model.

    ``X`` needs at least 2 rows and no infinite cell, and ``feature_names``
    (default ``x0``, ``x1``, ...) one distinct name per column.  NaN cells are
    filled with their column's mean (0 for an all-NaN column), kept as the
    model's ``impute_means`` for the rows it predicts.  A column whose mean or
    standard deviation overflows (cells near 1e308, or spread past about
    1e154) is rejected by name.  The solver starts from zero, or from the
    betas ``start``: one per row, finite, within [-C, C] and summing to 0
    within 1e-9 C, else ValueError.  A start moves where, within tol of
    the optimum, the solver stops, not the problem it solves.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) < 2:
        raise ValueError("need a 2-D matrix with at least 2 rows")
    if np.isinf(X).any() or not np.isfinite(y).all():
        raise ValueError("fit requires finite targets and non-infinite features")
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(X.shape[1]))
    if len(feature_names) != X.shape[1] or len(set(feature_names)) != X.shape[1]:
        raise ValueError(f"feature_names must be {X.shape[1]} distinct names, "
                         f"got {tuple(feature_names)}")
    if start is not None:
        start = _check_start(start, len(X), config.C)

    impute = _column_means(X)
    X = _fill(X, impute)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        std = X.std(axis=0)
    overflowed = [name for name, m, sd in zip(feature_names, mean, std)
                  if not (math.isfinite(m) and math.isfinite(sd))]
    if overflowed:
        raise ValueError(f"feature(s) {overflowed} have a mean or standard "
                         f"deviation that is not finite, so they cannot be "
                         f"standardized")
    degenerate = std < 1e-12
    if degenerate.any():
        warnings.warn("zero-variance column(s) scaled with std=1", RuntimeWarning)
        std = np.where(degenerate, 1.0, std)
    Z = (X - mean) / std

    K = _rbf(Z, Z, config.gamma)
    beta, bias, iters, converged, gap, finish_rounds, finish_tries = _solve_smo(
        K, y, config, start)
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
        diagnostics=FitDiagnostics(iters, converged, gap, beta, int(keep.sum()),
                                   finish_rounds, finish_tries),
    )


def f_statistic(column: np.ndarray, targets: np.ndarray) -> float:
    """Univariate linear-regression F = SSR (n-2) / SSE.

    Both sums of squares come from centred values, SSE summed over the
    residuals: the textbook r^2 (n-2) / (1 - r^2) loses digits in 1 - r^2
    when r is near 1.  Each column is centred twice: a mean rounded at the
    column's offset leaves a shift of up to an ulp of that offset, which
    the second pass removes, so a narrow column far from 0 keeps its F.
    A column whose spread is under the scaler's 1e-12 floor has F 0, as a
    column the fit scales as constant: a finer spread is lost to rounding
    once the column is shifted by a few units, so an F from it would not
    survive the shift.  A constant column that passes the floor on its
    rounding alone centres to exact zeros, and its F is 0 as well.
    """
    x = np.asarray(column, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("inputs must be finite")
    if x.std() < 1e-12 or y.std() < 1e-12:
        return 0.0
    xc = x - x.mean()
    xc -= xc.mean()
    yc = y - y.mean()
    yc -= yc.mean()
    sxx = float(np.sum(xc * xc))
    syy = float(np.sum(yc * yc))
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    sxy = float(np.sum(xc * yc))
    slope = sxy / sxx
    residuals = yc - slope * xc
    sse = float(np.sum(residuals * residuals))
    if sse <= 1e-15 * syy:  # r^2 >= 1 - 1e-15
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


def check_folds(X: np.ndarray, y: np.ndarray, k: int) -> None:
    """ValueError unless ``cross_validate`` can split ``X`` and ``y`` into
    ``k`` folds: finite targets, no infinite feature and 2 <= k <= rows."""
    if np.isinf(X).any() or not np.isfinite(y).all():
        raise ValueError("cross_validate requires finite targets and features "
                         "(NaN features are imputed per fold)")
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(X) < k:
        raise ValueError(f"k={k} exceeds the {len(X)} available rows")


def _fold_start(beta: np.ndarray) -> np.ndarray:
    """``beta`` with the side whose sum is in surplus shrunk in proportion,
    so that it sums to 0; each beta keeps its sign and shrinks or stays."""
    beta = beta.copy()
    positive, negative = beta > 0.0, beta < 0.0
    up, down = float(beta[positive].sum()), -float(beta[negative].sum())
    if up > down:
        beta[positive] *= down / up
    elif down > up:
        beta[negative] *= up / down
    return beta


def cross_validate(X: np.ndarray, y: np.ndarray, config: SvrConfig,
                   k: int = 10,
                   feature_names: Optional[tuple[str, ...]] = None,
                   start: Optional[np.ndarray] = None) -> EvalReport:
    """k-fold CV over a shuffle seeded by ``config.seed``.

    Each fold's fit starts from zero, or, given ``start`` (the betas of a
    fit on every row, as ``fit`` checks a start), from its training rows'
    betas with the side in surplus shrunk so that they sum to 0 (alpha
    seeding: DeCoste & Wagstaff, KDD 2000).  Such a start comes from a fit
    that saw the fold's held-out targets; the fold still solves its own
    dual to its own tol, so the start only moves where, within tol of the
    optimum, the fold stops.  Pooled R^2 and RMSE are computed over the
    concatenated held-out predictions; F-statistics use the full matrix,
    mean-imputed.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    check_folds(X, y, k)
    if start is not None:
        start = _check_start(start, len(X), config.C)

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(X))
    folds = np.array_split(order, k)

    preds = np.empty(len(X))
    fold_r2, fold_rmse, fold_fits = [], [], []
    for test_idx in folds:
        train_idx = np.setdiff1d(order, test_idx, assume_unique=True)
        fold_start = None if start is None else _fold_start(start[train_idx])
        model = fit(X[train_idx], y[train_idx], config, feature_names, fold_start)
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
    write_lines(path, [json.dumps(doc)])


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
    for label, arr in (("support_vectors", sv), ("dual_coefs", coefs),
                       ("scaler_mean", mean), ("impute_means", impute)):
        if not np.isfinite(arr).all():
            raise ValueError(f"model {label} holds a non-finite value")
    if not (np.isfinite(std) & (std > 0.0)).all():
        raise ValueError("model scaler_std holds an entry that is not finite "
                         "and positive")
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
