"""Editor-reviewer bipartite snapshots and their reviewer-reviewer projection.

A snapshot collects the deduplicated (editor, reviewer) assignment pairs
dated strictly before a cutoff.  The projection connects two reviewers iff
they share at least one editor in the snapshot; it is an unweighted simple
graph.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Optional

from .corpus import Corpus


@dataclass(frozen=True)
class BipartiteSnapshot:
    cutoff: dt.date
    editor_ids: frozenset[str]
    reviewer_ids: frozenset[str]
    assignments: frozenset[tuple[str, str]]  # (editor_id, reviewer_id)


@dataclass(frozen=True)
class ReviewGraph:
    """Immutable reviewer-reviewer simple graph with a dense node index.

    ``nodes`` is sorted so that construction is independent of event order;
    ``adj[i]`` lists neighbor indexes of ``nodes[i]`` in ascending order.
    """

    cutoff: dt.date
    nodes: tuple[str, ...]
    adj: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.nodes)

    def index_of(self, reviewer_id: str) -> Optional[int]:
        i = self._index.get(reviewer_id)
        return i

    @property
    def _index(self) -> dict[str, int]:
        cached = self.__dict__.get("_index_cache")
        if cached is None:
            cached = {r: i for i, r in enumerate(self.nodes)}
            self.__dict__["_index_cache"] = cached
        return cached


def snapshot(corpus: Corpus, cutoff: dt.date = dt.date.max) -> BipartiteSnapshot:
    """Assignment pairs dated strictly before ``cutoff``."""
    pairs = set()
    editors = set()
    reviewers = set()
    for plist in corpus.assignments.values():
        for a in plist:
            if a.date < cutoff:
                pairs.add((a.editor_id, a.reviewer_id))
                editors.add(a.editor_id)
                reviewers.add(a.reviewer_id)
    return BipartiteSnapshot(cutoff, frozenset(editors), frozenset(reviewers),
                             frozenset(pairs))


def project(snap: BipartiteSnapshot) -> ReviewGraph:
    """One-mode projection onto reviewers: edge iff >= 1 shared editor.

    Reviewers who share no editor-partner remain as degree-0 nodes.
    """
    nodes = tuple(sorted(snap.reviewer_ids))
    index = {r: i for i, r in enumerate(nodes)}
    by_editor: dict[str, list[int]] = {}
    for editor, reviewer in snap.assignments:
        by_editor.setdefault(editor, []).append(index[reviewer])

    neighbor_sets: list[set[int]] = [set() for _ in nodes]
    for members in by_editor.values():
        members.sort()
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                neighbor_sets[u].add(v)
                neighbor_sets[v].add(u)

    adj = tuple(tuple(sorted(s)) for s in neighbor_sets)
    return ReviewGraph(snap.cutoff, nodes, adj)


def build_graph(corpus: Corpus, cutoff: dt.date = dt.date.max) -> ReviewGraph:
    return project(snapshot(corpus, cutoff))
