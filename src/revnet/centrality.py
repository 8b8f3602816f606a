"""Structural node measures on a reviewer-reviewer graph.

Degree, betweenness (Brandes, endpoints excluded, normalized by
(n-1)(n-2)/2), a disconnected-safe closeness variant, the local clustering
coefficient, and PageRank by power iteration.  All measures are exact and
deterministic; node order follows the graph's sorted node tuple.

Shortest paths and triangles are counted with dense matrix products on the
graph's 0/1 adjacency matrix, over fixed blocks of ``SOURCE_BLOCK`` rows.
Beyond the matrix itself, Brandes works in four float ``SOURCE_BLOCK x n``
arrays per block plus one byte per (source, node) pair per BFS level, and
clustering in one ``SOURCE_BLOCK x n`` product.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    return np.count_nonzero(graph.A, axis=1).astype(np.int64)


def _brandes_pass(A: np.ndarray):
    """Level-synchronous Brandes sweep over blocks of sources at once.

    Forward, ``level @ A`` takes the shortest-path counts sigma of every
    source in the block one BFS level deeper; ``level`` holds sigma on the
    current level and 0 elsewhere.  Backward, the levels are walked deepest
    first with Brandes' dependency recursion, one product per level:
    delta[v] += sigma[v] * sum over neighbours w one level deeper of
    (1 + delta[w]) / sigma[w].

    Each block works in one allocation of four ``b x n`` float arrays,
    written in place, and keeps each BFS level only as its boolean mask.
    Levels are selected by multiplying with these masks, which the multiply
    casts to 0.0/1.0, never by boolean indexing: for the finite,
    non-negative values here ``x * mask`` has the bits of
    ``np.where(mask, x, 0.0)``.  Sigma on level d - 1 is ``sigma * mask``,
    so the backward step scales its product by sigma and that mask.  Level
    0 is the sources alone, so its product is their rows of ``A``.  The
    step from level 1 back to level 0 is skipped: it would write only the
    sources' own dependencies, which betweenness excludes.

    Returns (raw betweenness with each pair counted twice, distance sums,
    reachable-component sizes).
    """
    n = len(A)
    bc = np.zeros(n)
    dist_sum = np.zeros(n, dtype=np.int64)
    comp_size = np.ones(n, dtype=np.int64)

    for lo in range(0, n, SOURCE_BLOCK):
        hi = min(lo + SOURCE_BLOCK, n)
        rows = np.arange(hi - lo)
        sigma, level, paths, delta = np.zeros((4, hi - lo, n))
        unreached = np.empty((hi - lo, n), dtype=bool)
        sigma[rows, rows + lo] = 1.0
        paths[...] = A[lo:hi]
        masks = []  # BFS levels 1, 2, ... as boolean masks
        while True:
            np.equal(sigma, 0.0, out=unreached)
            np.multiply(paths, unreached, out=level)
            reached = level > 0.0
            count = np.count_nonzero(reached, axis=1)
            if not count.any():
                break
            masks.append(reached)
            sigma += level
            dist_sum[lo:hi] += len(masks) * count
            comp_size[lo:hi] += count
            if (comp_size[lo:hi] == n).all():
                break  # every source reached every node: the next level is empty
            np.matmul(level, A, out=paths)

        # off every level sigma may be 0; the mask then zeroes x / 1
        np.maximum(sigma, 1.0, out=sigma)
        coeff, prod = level, paths
        # masks[d] is BFS level d + 1, which feeds level d = masks[d - 1]
        for d in range(len(masks) - 1, 0, -1):
            np.add(delta, 1.0, out=coeff)
            np.divide(coeff, sigma, out=coeff)
            np.multiply(coeff, masks[d], out=coeff)
            np.matmul(coeff, A, out=prod)
            np.multiply(prod, sigma, out=prod)
            np.multiply(prod, masks[d - 1], out=prod)
            delta += prod
        bc += delta.sum(axis=0)

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
    n, A = graph.n, graph.A
    k = A.sum(axis=1)
    links = np.zeros(n)
    for lo in range(0, n, SOURCE_BLOCK):
        block = A[lo:lo + SOURCE_BLOCK]
        prod = block @ A
        prod *= block
        links[lo:lo + SOURCE_BLOCK] = prod.sum(axis=1) / 2.0
    out = np.zeros(n)
    wide = k >= 2
    out[wide] = 2.0 * links[wide] / (k[wide] * (k[wide] - 1))
    return out


def pagerank(graph: ReviewGraph) -> tuple[np.ndarray, bool]:
    """Power iteration on the undirected graph, edges treated as bidirectional.

    Degree-0 nodes are dangling and redistribute their mass uniformly.
    Damping is ``PAGERANK_DAMPING``.  Returns the score vector and a
    convergence flag (L1 change < ``PAGERANK_TOL`` within
    ``PAGERANK_MAX_ITER`` steps).

    The edges (u, v) are listed in row-major order of ``graph.A``: ``heads``
    holds each v, and row u's weight ``contrib[u]`` repeats once per edge of
    u.  ``np.bincount`` adds each weight into bin v in that order, starting
    from 0.0, so the sums are reproducible.
    """
    n = graph.n
    if n == 0:
        return np.zeros(0), True
    A = graph.A
    heads = np.flatnonzero(A > 0.0) % n  # a flat search beats a 2-D np.nonzero
    degrees = A.sum(axis=1)
    edges_per_row = degrees.astype(np.int64)
    dangling = degrees == 0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.maximum(degrees, 1.0))

    pr = np.full(n, 1.0 / n)
    converged = False
    for _ in range(PAGERANK_MAX_ITER):
        contrib = pr * inv_deg
        nxt = np.bincount(heads, weights=np.repeat(contrib, edges_per_row),
                          minlength=n)
        dangling_mass = pr[dangling].sum()
        nxt = ((1.0 - PAGERANK_DAMPING) / n
               + PAGERANK_DAMPING * (nxt + dangling_mass / n))
        if np.abs(nxt - pr).sum() < PAGERANK_TOL:
            pr = nxt
            converged = True
            break
        pr = nxt
    return pr, converged


def compute_table(graph: ReviewGraph) -> CentralityTable:
    """All five measures over the graph's adjacency matrix (shortest-path
    work is shared)."""
    bc_raw, dist_sum, comp_size = _brandes_pass(graph.A)
    pr, ok = pagerank(graph)
    return CentralityTable(
        nodes=graph.nodes,
        degree=degree(graph),
        betweenness=_normalize_betweenness(bc_raw, graph.n),
        closeness=_closeness_from_sums(dist_sum, comp_size, graph.n),
        clustering=clustering(graph),
        pagerank=pr,
        pagerank_converged=ok,
    )
