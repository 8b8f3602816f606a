"""The reviewer-reviewer projection of the editor-reviewer assignments.

A snapshot at a cutoff holds the distinct (editor, reviewer) pairs first
assigned strictly before it.  The projection connects two reviewers iff they
share at least one editor in the snapshot; it is an unweighted simple graph.
"""

from __future__ import annotations

import datetime as dt
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import Corpus


@dataclass(frozen=True, eq=False)
class ReviewGraph:
    """Immutable reviewer-reviewer simple graph with a dense node index.

    ``nodes`` is sorted so that construction is independent of event order;
    ``A`` is the read-only, symmetric, zero-diagonal float64 0/1 adjacency
    matrix in ``nodes`` order.  Graphs compare by identity, since an array
    field has no value equality.
    """

    cutoff: dt.date
    nodes: tuple[str, ...]
    A: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)

    @cached_property
    def index(self) -> dict[str, int]:
        """Position of each reviewer in ``nodes``."""
        return {r: i for i, r in enumerate(self.nodes)}

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Neighbour indexes of each node, ascending, read from ``A``."""
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.A)


def pairs_before(corpus: Corpus, cutoff: dt.date) -> int:
    """How many of ``corpus.pairs`` were first assigned strictly before
    ``cutoff``; a later cutoff's pairs extend an earlier one's."""
    return bisect_left(corpus.pair_dates, cutoff)


def build_graph(corpus: Corpus, cutoff: dt.date = dt.date.max) -> ReviewGraph:
    """One-mode projection onto reviewers of the snapshot at ``cutoff``.

    With ``B`` the editor x reviewer 0/1 incidence matrix of the snapshot,
    ``(B.T @ B)[u, v]`` counts the editors ``u`` and ``v`` share, exactly.
    Reviewers who share no editor-partner remain as degree-0 nodes.
    """
    pairs = corpus.pairs[:pairs_before(corpus, cutoff)]
    nodes = tuple(sorted({r for _, r in pairs}))
    index = {r: i for i, r in enumerate(nodes)}
    editors = {e: i for i, e in enumerate(dict.fromkeys(e for e, _ in pairs))}
    B = np.zeros((len(editors), len(nodes)))
    B[[editors[e] for e, _ in pairs], [index[r] for _, r in pairs]] = 1.0
    A = (B.T @ B > 0.0).astype(np.float64)
    np.fill_diagonal(A, 0.0)
    A.flags.writeable = False
    return ReviewGraph(cutoff, nodes, A)
