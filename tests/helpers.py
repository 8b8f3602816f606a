"""Shared test fixtures and independent oracles.

The oracles deliberately use different algorithms than the package (dense
Floyd-Warshall distances, explicit path-count dynamic programming, a direct
linear solve for PageRank) so that agreement is meaningful.
"""

from __future__ import annotations

import datetime as dt
import math
import random

import numpy as np

from revnet.corpus import (Assignment, CitationRecord, Decision, Report,
                           Submission)
from revnet.review_graph import ReviewGraph

FAR_FUTURE = dt.date(2100, 1, 1)


# -- graph construction ------------------------------------------------------


def graph_from_edges(n: int, edges, names=None) -> ReviewGraph:
    names = tuple(names) if names else tuple(f"r{i:03d}" for i in range(n))
    sets = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            sets[u].add(v)
            sets[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in sets)
    return ReviewGraph(FAR_FUTURE, names, adj)


def random_graph(rng: random.Random, n: int, p: float) -> ReviewGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return graph_from_edges(n, edges)


def adjacency_matrix(graph: ReviewGraph) -> np.ndarray:
    A = np.zeros((graph.n, graph.n))
    for u in range(graph.n):
        for v in graph.adj[u]:
            A[u, v] = 1.0
    return A


# -- shortest-path oracles ---------------------------------------------------


def floyd_warshall(graph: ReviewGraph) -> np.ndarray:
    n = graph.n
    D = np.full((n, n), math.inf)
    np.fill_diagonal(D, 0.0)
    for u in range(n):
        for v in graph.adj[u]:
            D[u, v] = 1.0
    for k in range(n):
        D = np.minimum(D, D[:, k][:, None] + D[k][None, :])
    return D


def _path_counts(graph: ReviewGraph, D: np.ndarray, s: int) -> np.ndarray:
    """Number of shortest paths from s to every node, by distance DP."""
    n = graph.n
    N = np.zeros(n)
    N[s] = 1.0
    order = sorted((v for v in range(n) if math.isfinite(D[s, v])),
                   key=lambda v: D[s, v])
    for w in order:
        if w == s:
            continue
        N[w] = sum(N[u] for u in graph.adj[w] if D[s, u] == D[s, w] - 1)
    return N


def oracle_betweenness(graph: ReviewGraph) -> np.ndarray:
    n = graph.n
    if n < 3:
        return np.zeros(n)
    D = floyd_warshall(graph)
    counts = [_path_counts(graph, D, s) for s in range(n)]
    bc = np.zeros(n)
    for s in range(n):
        for t in range(s + 1, n):
            if not math.isfinite(D[s, t]) or counts[s][t] == 0:
                continue
            for v in range(n):
                if v in (s, t):
                    continue
                if D[s, v] + D[v, t] == D[s, t]:
                    bc[v] += counts[s][v] * counts[t][v] / counts[s][t]
    return bc / ((n - 1) * (n - 2) / 2.0)


def oracle_closeness(graph: ReviewGraph) -> np.ndarray:
    n = graph.n
    D = floyd_warshall(graph)
    out = np.zeros(n)
    for v in range(n):
        finite = [D[v, u] for u in range(n) if math.isfinite(D[v, u])]
        r = len(finite)
        total = sum(finite)
        if r > 1 and total > 0:
            out[v] = ((r - 1) / (n - 1)) * ((r - 1) / total)
    return out


def oracle_clustering(graph: ReviewGraph) -> np.ndarray:
    A = adjacency_matrix(graph)
    triangles = np.diag(A @ A @ A) / 2.0
    k = A.sum(axis=1)
    out = np.zeros(graph.n)
    mask = k >= 2
    out[mask] = 2.0 * triangles[mask] / (k[mask] * (k[mask] - 1))
    return out


def oracle_pagerank(graph: ReviewGraph, damping: float = 0.85) -> np.ndarray:
    """Exact fixed point by linear solve (dangling mass spread uniformly)."""
    n = graph.n
    if n == 0:
        return np.zeros(0)
    A = adjacency_matrix(graph)
    deg = A.sum(axis=0)
    P = np.zeros((n, n))
    for u in range(n):
        if deg[u] == 0:
            P[:, u] = 1.0 / n
        else:
            P[:, u] = A[:, u] / deg[u]
    return np.linalg.solve(np.eye(n) - damping * P,
                           np.full(n, (1.0 - damping) / n))


# -- corpus builders ---------------------------------------------------------


def minimal_paper(pid: str, sub_date: dt.date, authors=("a1",),
                  editor="e1", reviewer="r1", outcome="accept",
                  citations=None, as_of_year=2015):
    """Submission -> assignment -> report -> decision (-> citation) events."""
    events = [
        Submission(pid, sub_date, tuple(authors), f"paper {pid}"),
        Assignment(pid, sub_date + dt.timedelta(days=5), editor, reviewer, 1),
        Report(pid, sub_date + dt.timedelta(days=40), reviewer, 1,
               "fine work", "accept" if outcome == "accept" else "reject"),
        Decision(pid, sub_date + dt.timedelta(days=45), outcome, 1),
    ]
    if citations is not None:
        events.append(CitationRecord(pid, sub_date + dt.timedelta(days=400),
                                     citations, as_of_year))
    return events


def random_assignment_events(rng: random.Random, n_papers: int,
                             n_editors: int, n_reviewers: int):
    """Valid submission+assignment logs with random dates for projection tests."""
    events = []
    base = dt.date(2010, 1, 1)
    for i in range(n_papers):
        pid = f"p{i:03d}"
        sub = base + dt.timedelta(days=rng.randrange(0, 700))
        events.append(Submission(pid, sub, (f"a{rng.randrange(40):02d}",),
                                 f"paper {pid}"))
        editor = f"e{rng.randrange(n_editors):02d}"
        for _ in range(rng.randrange(1, 3)):
            rid = f"r{rng.randrange(n_reviewers):02d}"
            events.append(Assignment(pid, sub + dt.timedelta(days=rng.randrange(1, 30)),
                                     editor, rid, 1))
    return events


def brute_projection_edges(snap):
    """Edge set from the direct 'shares >= 1 editor' predicate."""
    reviewers = sorted(snap.reviewer_ids)
    edges = set()
    for i, a in enumerate(reviewers):
        for b in reviewers[i + 1:]:
            for e in snap.editor_ids:
                if (e, a) in snap.assignments and (e, b) in snap.assignments:
                    edges.add((a, b))
                    break
    return edges


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties."""
    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            r[order[i:j + 1]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx ** 2).sum() * (ry ** 2).sum()))
    return float((rx * ry).sum() / denom) if denom else 0.0


# -- SVR oracles -------------------------------------------------------------


def reference_solve_smo(K: np.ndarray, y: np.ndarray, config):
    """SMO on the paired dual.  Returns (beta, bias, iters, converged, gap).

    The reference form of ``revnet.svr._solve_smo``: the same pair choice,
    step and ``F`` update, written with a fresh masked copy of every score
    array per iteration.  The package solver must match it bit for bit.

    Internally tracks alpha and alpha* separately plus F = K beta.  The KKT
    scores collapse to s = y - eps - F for the alpha side and s + 2 eps for
    the alpha* side; both pair updates move beta_i by +t and beta_j by -t.
    """
    l = len(y)
    C, eps, tol = config.C, config.epsilon, config.tol
    alpha = np.zeros(l)
    alpha_star = np.zeros(l)
    F = np.zeros(l)
    diag = np.ascontiguousarray(np.diag(K))
    two_eps = 2.0 * eps
    inf = np.inf

    iters = 0
    gap = inf
    while iters < config.max_passes:
        sp = y - eps - F
        up_p = np.where(alpha < C, sp, -inf)
        up_m = np.where(alpha_star > 0, sp + two_eps, -inf)
        ip = int(np.argmax(up_p))
        im = int(np.argmax(up_m))
        if up_m[im] > up_p[ip]:
            i, m, side_i = im, up_m[im], -1
        else:
            i, m, side_i = ip, up_p[ip], 1

        low_p = np.where(alpha > 0, sp, inf)
        low_m = np.where(alpha_star < C, sp + two_eps, inf)
        M = min(low_p.min(), low_m.min())
        gap = m - M
        if gap <= tol:
            break

        # second-order partner choice among violators (libsvm WSS2)
        Ki = K[i]
        a_t = np.maximum(diag[i] + diag - 2.0 * Ki, 1e-12)
        b_p = m - low_p
        b_m = m - low_m
        obj_p = np.where(b_p > 0, -(b_p * b_p) / a_t, inf)
        obj_m = np.where(b_m > 0, -(b_m * b_m) / a_t, inf)
        jp = int(np.argmin(obj_p))
        jm = int(np.argmin(obj_m))
        if obj_m[jm] < obj_p[jp]:
            j, score_j, side_j = jm, low_m[jm], -1
        else:
            j, score_j, side_j = jp, low_p[jp], 1
        if not np.isfinite(score_j):
            break

        quad = max(diag[i] + diag[j] - 2.0 * Ki[j], 1e-12)
        t = (m - score_j) / quad
        # clip so all four variables stay inside [0, C]
        t = min(t, C - alpha[i] if side_i > 0 else alpha_star[i])
        t = min(t, alpha[j] if side_j > 0 else C - alpha_star[j])
        if t <= 0:
            break
        if side_i > 0:
            alpha[i] += t
        else:
            alpha_star[i] -= t
        if side_j > 0:
            alpha[j] -= t
        else:
            alpha_star[j] += t
        F += t * Ki
        F -= t * K[j]
        iters += 1

    converged = gap <= tol
    beta = alpha - alpha_star

    # bias from free variables; fall back to the midpoint of the KKT bounds
    sp = y - eps - F
    free_p = (alpha > 1e-12) & (alpha < C - 1e-12)
    free_m = (alpha_star > 1e-12) & (alpha_star < C - 1e-12)
    free_scores = np.concatenate([sp[free_p], sp[free_m] + two_eps])
    if len(free_scores):
        bias = float(np.mean(free_scores))
    else:
        hi = max(np.where(alpha < C, sp, -inf).max(),
                 np.where(alpha_star > 0, sp + two_eps, -inf).max())
        lo = min(np.where(alpha > 0, sp, inf).min(),
                 np.where(alpha_star < C, sp + two_eps, inf).min())
        bias = float((hi + lo) / 2.0)
    return beta, bias, iters, converged, float(gap)


def reference_kkt_max_violation(model, X: np.ndarray, y: np.ndarray) -> float:
    """Per-row loop form of ``revnet.svr.kkt_max_violation``."""
    beta = model.diagnostics.train_beta
    C, eps = model.config.C, model.config.epsilon
    r = np.asarray(y, dtype=np.float64) - model.predict(X)

    worst = 0.0
    bound = 1e-9 * C
    for bi, ri in zip(beta, r):
        if bi > C + bound or bi < -C - bound:
            return math.inf  # dual infeasible
        if abs(bi) <= bound:
            v = abs(ri) - eps
        elif bi >= C - bound:
            v = eps - ri
        elif bi <= -C + bound:
            v = eps + ri
        elif bi > 0:
            v = abs(ri - eps)
        else:
            v = abs(ri + eps)
        worst = max(worst, v)
    return worst
