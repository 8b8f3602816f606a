"""Structural node measures on a reviewer-reviewer graph.

Degree, betweenness (Brandes, endpoints excluded, normalized by
(n-1)(n-2)/2), a disconnected-safe closeness variant, the local clustering
coefficient, and PageRank by power iteration.  All measures are exact and
deterministic; node order follows the graph's sorted node tuple.

Shortest paths and triangles are counted with dense matrix products on the
graph's 0/1 adjacency matrix, over fixed blocks of ``SOURCE_BLOCK`` rows, so
beyond the matrix itself the working set stays O(SOURCE_BLOCK * n).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .review_graph import ReviewGraph

PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-9
PAGERANK_MAX_ITER = 200

# Rows (BFS sources, or clustering rows) handled per matrix product.
SOURCE_BLOCK = 256

MEASURES = ("degree", "betweenness", "closeness", "clustering", "pagerank")


@dataclass(frozen=True)
class CentralityTable:
    nodes: tuple[str, ...]
    degree: np.ndarray
    betweenness: np.ndarray
    closeness: np.ndarray
    clustering: np.ndarray
    pagerank: np.ndarray
    pagerank_converged: bool


def degree(graph: ReviewGraph) -> np.ndarray:
    return np.array([len(a) for a in graph.adj], dtype=np.int64)


def _adjacency(graph: ReviewGraph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix (float64, zero diagonal)."""
    n = graph.n
    deg = degree(graph)
    A = np.zeros((n, n))
    A[np.repeat(np.arange(n), deg),
      np.fromiter(chain.from_iterable(graph.adj), dtype=np.int64,
                  count=int(deg.sum()))] = 1.0
    return A


def _brandes_pass(graph: ReviewGraph):
    """Level-synchronous Brandes sweep over blocks of sources at once.

    Forward, ``frontier @ A`` takes the shortest-path counts sigma of every
    source in the block one BFS level deeper, and the integer distance
    matrix records each node's level.  Backward, the levels are walked
    deepest first with Brandes' dependency recursion, one product per level:
    delta[v] += sigma[v] * sum over neighbours w one level deeper of
    (1 + delta[w]) / sigma[w].

    Returns (raw betweenness with each pair counted twice, distance sums,
    reachable-component sizes).
    """
    n = graph.n
    A = _adjacency(graph)
    bc = np.zeros(n)
    dist_sum = np.zeros(n, dtype=np.int64)
    comp_size = np.ones(n, dtype=np.int64)

    for lo in range(0, n, SOURCE_BLOCK):
        sources = np.arange(lo, min(lo + SOURCE_BLOCK, n))
        rows = np.arange(len(sources))
        dist = np.full((len(sources), n), -1, dtype=np.int64)
        sigma = np.zeros((len(sources), n))
        dist[rows, sources] = 0
        sigma[rows, sources] = 1.0
        frontier = dist == 0
        depth = 0
        while True:
            paths = np.where(frontier, sigma, 0.0) @ A
            frontier = (paths > 0.0) & (dist < 0)
            if not frontier.any():
                break
            depth += 1
            sigma[frontier] = paths[frontier]
            dist[frontier] = depth

        delta = np.zeros_like(sigma)
        for d in range(depth, 0, -1):
            coeff = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma),
                              where=dist == d)
            parents = dist == d - 1
            delta[parents] += sigma[parents] * (coeff @ A)[parents]
        delta[rows, sources] = 0.0
        bc += delta.sum(axis=0)
        reached = dist >= 0
        dist_sum[sources] = np.where(reached, dist, 0).sum(axis=1)
        comp_size[sources] = reached.sum(axis=1)

    return bc, dist_sum, comp_size


def _normalize_betweenness(raw: np.ndarray, n: int) -> np.ndarray:
    if n < 3:
        return np.zeros(n)
    # halve for the undirected double count, then scale by (n-1)(n-2)/2
    return raw / ((n - 1) * (n - 2))


def _closeness_from_sums(dist_sum: np.ndarray, comp_size: np.ndarray,
                         n: int) -> np.ndarray:
    out = np.zeros(n)
    ok = (comp_size > 1) & (dist_sum > 0)
    r = comp_size[ok] - 1
    out[ok] = (r / (n - 1)) * (r / dist_sum[ok])
    return out


def clustering(graph: ReviewGraph) -> np.ndarray:
    """Local clustering; row v of ``(A @ A) * A`` sums to twice the number
    of links among v's neighbours."""
    n = graph.n
    A = _adjacency(graph)
    k = A.sum(axis=1)
    links = np.zeros(n)
    for lo in range(0, n, SOURCE_BLOCK):
        block = A[lo:lo + SOURCE_BLOCK]
        links[lo:lo + SOURCE_BLOCK] = ((block @ A) * block).sum(axis=1) / 2.0
    out = np.zeros(n)
    wide = k >= 2
    out[wide] = 2.0 * links[wide] / (k[wide] * (k[wide] - 1))
    return out


def pagerank(graph: ReviewGraph, damping: float = PAGERANK_DAMPING,
             tol: float = PAGERANK_TOL,
             max_iter: int = PAGERANK_MAX_ITER) -> tuple[np.ndarray, bool]:
    """Power iteration on the undirected graph, edges treated as bidirectional.

    Degree-0 nodes are dangling and redistribute their mass uniformly.
    Returns the score vector and a convergence flag (L1 change < tol).
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must lie in (0, 1)")
    n = graph.n
    if n == 0:
        return np.zeros(0), True

    degrees = np.array([len(a) for a in graph.adj], dtype=np.float64)
    src = np.fromiter((u for u in range(n) for _ in graph.adj[u]), dtype=np.int64,
                      count=int(degrees.sum()))
    dst = np.fromiter((v for u in range(n) for v in graph.adj[u]), dtype=np.int64,
                      count=int(degrees.sum()))
    dangling = degrees == 0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.maximum(degrees, 1.0))

    pr = np.full(n, 1.0 / n)
    converged = False
    for _ in range(max_iter):
        contrib = pr * inv_deg
        nxt = np.zeros(n)
        np.add.at(nxt, dst, contrib[src])
        dangling_mass = pr[dangling].sum()
        nxt = (1.0 - damping) / n + damping * (nxt + dangling_mass / n)
        if np.abs(nxt - pr).sum() < tol:
            pr = nxt
            converged = True
            break
        pr = nxt
    return pr, converged


def compute_table(graph: ReviewGraph, damping: float = PAGERANK_DAMPING,
                  tol: float = PAGERANK_TOL,
                  max_iter: int = PAGERANK_MAX_ITER) -> CentralityTable:
    """All five measures in one pass (shortest-path work is shared)."""
    bc_raw, dist_sum, comp_size = _brandes_pass(graph)
    pr, ok = pagerank(graph, damping, tol, max_iter)
    return CentralityTable(
        nodes=graph.nodes,
        degree=degree(graph),
        betweenness=_normalize_betweenness(bc_raw, graph.n),
        closeness=_closeness_from_sums(dist_sum, comp_size, graph.n),
        clustering=clustering(graph),
        pagerank=pr,
        pagerank_converged=ok,
    )
