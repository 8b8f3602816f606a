"""Shared test fixtures and independent oracles.

The oracles deliberately use different algorithms than the package (dense
Floyd-Warshall distances, explicit path-count dynamic programming, a direct
linear solve for PageRank) so that agreement is meaningful.
"""

from __future__ import annotations

import datetime as dt
import importlib.util
import json
import math
import random
import re
import warnings
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from revnet import centrality
from revnet.analysis import (HIGH_CITED_REJECTED_MIN, LOW_CITED_ACCEPTED_MAX,
                             IrregularCase)
from revnet.centrality import CentralityTable
from revnet.corpus import (RECOMMENDATIONS, TERMINAL_OUTCOMES, Assignment,
                           AuthorProfile, CitationRecord, Corpus, Decision,
                           LogError, Report, ReviewerProfile, Submission,
                           _History)
from revnet.review_graph import ReviewGraph
from revnet.text_metrics import CATEGORIES, Lexicon

FAR_FUTURE = dt.date(2100, 1, 1)


# -- graph construction ------------------------------------------------------


def graph_from_matrix(cutoff: dt.date, nodes, A: np.ndarray) -> ReviewGraph:
    """A ``ReviewGraph`` over ``A``, read-only as ``build_graph`` leaves it."""
    A.flags.writeable = False
    return ReviewGraph(cutoff, tuple(nodes), A)


def graph_from_edges(n: int, edges, names=None) -> ReviewGraph:
    names = tuple(names) if names else tuple(f"r{i:03d}" for i in range(n))
    A = np.zeros((n, n))
    for u, v in edges:
        if u != v:
            A[u, v] = A[v, u] = 1.0
    return graph_from_matrix(FAR_FUTURE, names, A)


def random_graph(rng: random.Random, n: int, p: float) -> ReviewGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return graph_from_edges(n, edges)


def graph_edges(graph: ReviewGraph) -> list[tuple[int, int]]:
    """Each undirected edge once, as (u, v) with u < v, in index order."""
    return [(u, v) for u in range(graph.n) for v in graph.adj[u] if u < v]


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
    A = graph.A
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
    A = graph.A
    deg = A.sum(axis=0)
    P = np.zeros((n, n))
    for u in range(n):
        if deg[u] == 0:
            P[:, u] = 1.0 / n
        else:
            P[:, u] = A[:, u] / deg[u]
    return np.linalg.solve(np.eye(n) - damping * P,
                           np.full(n, (1.0 - damping) / n))


# -- reference forms of the package centrality code ------------------------


def reference_brandes_pass(graph: ReviewGraph):
    """Single sweep computing betweenness and per-node distance sums.

    The queue-and-stack form of ``revnet.centrality._brandes_pass``, one
    source at a time with Python integers for sigma.

    Returns (raw betweenness with each pair counted twice, distance sums,
    reachable-component sizes).
    """
    n = graph.n
    adj = graph.adj
    bc = [0.0] * n
    dist_sum = [0] * n
    comp_size = [1] * n

    for s in range(n):
        sigma = [0] * n
        dist = [-1] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma[s] = 1
        dist[s] = 0
        stack: list[int] = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            dv = dist[v]
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        total = 0
        reach = 0
        for w in reversed(stack):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                bc[w] += delta[w]
                total += dist[w]
                reach += 1
        dist_sum[s] = total
        comp_size[s] = reach + 1

    return bc, dist_sum, comp_size


def reference_closeness_from_sums(dist_sum, comp_size, n: int) -> np.ndarray:
    """Per-node loop form of ``revnet.centrality._closeness_from_sums``."""
    out = np.zeros(n)
    for v in range(n):
        r = comp_size[v]
        if r > 1 and dist_sum[v] > 0:
            out[v] = ((r - 1) / (n - 1)) * ((r - 1) / dist_sum[v])
    return out


def reference_clustering(graph: ReviewGraph) -> np.ndarray:
    """Neighbour-pair loop form of ``revnet.centrality.clustering``."""
    out = np.zeros(graph.n)
    neighbor_sets = [set(a) for a in graph.adj]
    for v in range(graph.n):
        neigh = graph.adj[v]
        k = len(neigh)
        if k < 2:
            continue
        links = 0
        for i, u in enumerate(neigh):
            su = neighbor_sets[u]
            for w in neigh[i + 1:]:
                if w in su:
                    links += 1
        out[v] = 2.0 * links / (k * (k - 1))
    return out


def reference_masked_brandes_pass(graph: ReviewGraph):
    """The boolean-mask form of ``revnet.centrality._brandes_pass``: every
    level is selected with ``np.where`` and boolean indexing, the level-0
    forward product is taken, and the level-1 backward step runs, writing
    the sources' dependencies before they are zeroed.

    Returns (raw betweenness with each pair counted twice, distance sums,
    reachable-component sizes).
    """
    n = graph.n
    A = graph.A
    bc = np.zeros(n)
    dist_sum = np.zeros(n, dtype=np.int64)
    comp_size = np.ones(n, dtype=np.int64)

    block = centrality.SOURCE_BLOCK
    for lo in range(0, n, block):
        sources = np.arange(lo, min(lo + block, n))
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


def reference_add_at_pagerank(graph: ReviewGraph, damping: float = 0.85,
                              tol: float = 1e-9, max_iter: int = 200):
    """``revnet.centrality.pagerank`` with the edge lists read from
    ``graph.adj`` and the sums taken by ``np.add.at``."""
    n = graph.n
    if n == 0:
        return np.zeros(0), True
    degrees = np.array([len(a) for a in graph.adj], dtype=np.float64)
    src = np.array([u for u in range(n) for _ in graph.adj[u]], dtype=np.int64)
    dst = np.array([v for u in range(n) for v in graph.adj[u]], dtype=np.int64)
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


def reference_table(graph: ReviewGraph) -> CentralityTable:
    """``revnet.centrality.compute_table`` from the masked Brandes pass and
    the ``np.add.at`` PageRank."""
    n = graph.n
    bc_raw, dist_sum, comp_size = reference_masked_brandes_pass(graph)
    pr, ok = reference_add_at_pagerank(graph)
    return CentralityTable(
        nodes=graph.nodes,
        degree=np.array([len(a) for a in graph.adj], dtype=np.int64),
        betweenness=(np.zeros(n) if n < 3 else bc_raw / ((n - 1) * (n - 2))),
        closeness=reference_closeness_from_sums(dist_sum, comp_size, n),
        clustering=reference_clustering(graph),
        pagerank=pr,
        pagerank_converged=ok,
    )


# -- reference form of the snapshot projection -------------------------------


@dataclass(frozen=True)
class BipartiteSnapshot:
    cutoff: dt.date
    editor_ids: frozenset[str]
    reviewer_ids: frozenset[str]
    assignments: frozenset[tuple[str, str]]  # (editor_id, reviewer_id)


def reference_snapshot(corpus: Corpus, cutoff: dt.date = dt.date.max) -> BipartiteSnapshot:
    """Assignment pairs dated strictly before ``cutoff``, by a rescan of
    every assignment."""
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


def reference_neighbors(snap: BipartiteSnapshot) -> tuple[tuple[int, ...], ...]:
    """Editor-pool form of ``revnet.review_graph.build_graph``'s projection:
    each editor links every pair of its reviewers.  Returns each sorted
    reviewer's neighbour indexes, ascending."""
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

    return tuple(tuple(sorted(s)) for s in neighbor_sets)


def reference_project(snap: BipartiteSnapshot) -> ReviewGraph:
    """The graph of ``reference_neighbors``, its matrix set entry by entry."""
    nodes = tuple(sorted(snap.reviewer_ids))
    A = np.zeros((len(nodes), len(nodes)))
    for u, neighbors in enumerate(reference_neighbors(snap)):
        A[u, list(neighbors)] = 1.0
    return graph_from_matrix(snap.cutoff, nodes, A)


# -- reference forms of the log loader --------------------------------------


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _reference_parse_date(raw: object) -> dt.date:
    if not isinstance(raw, str):
        raise ValueError(f"date must be an ISO string, got {raw!r}")
    if not _ISO_DATE.fullmatch(raw):
        raise ValueError(f"Invalid isoformat string: {raw!r}")
    return dt.date.fromisoformat(raw)


def _reference_require(record: dict, key: str) -> object:
    if key not in record:
        raise ValueError(f"missing field {key!r}")
    return record[key]


def _reference_require_str(record: dict, key: str) -> str:
    raw = _reference_require(record, key)
    if type(raw) is not str:
        raise ValueError(f"{key} must be a string, got {raw!r}")
    return raw


def _reference_require_int(record: dict, key: str, least, kind: str) -> int:
    raw = _reference_require(record, key)
    if type(raw) is float and raw.is_integer():
        raw = int(raw)
    if type(raw) is not int or (least is not None and raw < least):
        raise ValueError(f"{key} must be {kind}, got {raw!r}")
    return raw


def _reference_parse_round(record: dict) -> int:
    return _reference_require_int(record, "round", 1, "a positive integer")


def _reference_parse_record(record: dict):
    kind = _reference_require(record, "type")
    paper_id = _reference_require_str(record, "paper_id")
    if re.search(r"[,\r\n]|\A\s|\s\Z", paper_id):
        raise ValueError(f"paper_id must hold no comma or line break and "
                         f"no surrounding space, got {paper_id!r}")
    date = _reference_parse_date(_reference_require(record, "date"))
    if kind == "submission":
        authors = _reference_require(record, "author_ids")
        if (type(authors) is not list or not authors
                or not all(type(a) is str for a in authors)):
            raise ValueError(f"author_ids must be a non-empty list of strings, "
                             f"got {authors!r}")
        title = record.get("title", "")
        if not isinstance(title, str):
            raise ValueError(f"title must be a string, got {title!r}")
        return Submission(paper_id, date, tuple(authors), title)
    if kind == "assignment":
        rnd = _reference_parse_round(record)
        return Assignment(paper_id, date, _reference_require_str(record, "editor_id"),
                          _reference_require_str(record, "reviewer_id"), rnd)
    if kind == "report":
        rnd = _reference_parse_round(record)
        rec = _reference_require_str(record, "recommendation")
        if rec not in RECOMMENDATIONS:
            raise ValueError(f"unknown recommendation {rec!r}")
        return Report(paper_id, date, _reference_require_str(record, "reviewer_id"),
                      rnd, _reference_require_str(record, "text"), rec)
    if kind == "decision":
        outcome = _reference_require_str(record, "outcome")
        if outcome not in TERMINAL_OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}")
        rnd = _reference_parse_round(record)
        return Decision(paper_id, date, outcome, rnd)
    if kind == "citation":
        cites = _reference_require_int(record, "cumulative_citations", 0,
                                       "a non-negative integer")
        year = _reference_require_int(record, "as_of_year", None, "an integer")
        return CitationRecord(paper_id, date, cites, year)
    raise ValueError(f"unknown event type {kind!r}")


def reference_parse_events(lines):
    """The ``json.loads`` and per-field ``_require`` form of
    ``revnet.corpus.parse_events``, with its date, title and UTF-8 rules
    written independently: a regular expression for the date, a
    ``surrogatepass`` round trip for the text."""
    events = []
    errors = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if line.encode("utf-8", "surrogatepass").decode("utf-8", "replace") != line:
            errors.append(LogError(lineno, "not valid UTF-8"))
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record must be a JSON object")
            events.append(_reference_parse_record(record))
        except (ValueError, TypeError) as exc:
            errors.append(LogError(lineno, str(exc)))
    return events, errors


def reference_validate_events(events):
    """``revnet.corpus.validate_events`` as a walk of its own, which keeps
    no map beyond what the checks need."""
    errors = []
    submission = {}
    decided = {}
    rounds = {}
    reviewing = []

    for pos, ev in enumerate(events, start=1):
        pid = ev.paper_id
        if isinstance(ev, Submission):
            if pid in submission:
                errors.append(LogError(pos, f"duplicate submission for paper {pid}"))
            else:
                submission[pid] = ev
            continue
        if pid not in submission:
            errors.append(LogError(
                pos, f"{type(ev).__name__.lower()} for paper {pid} without prior submission"))
            continue
        if isinstance(ev, CitationRecord):
            if pid not in decided:
                errors.append(LogError(
                    pos, f"citation record for paper {pid} before any terminal decision"))
            continue
        rounds.setdefault(pid, set()).add(ev.round)
        if ev.date < submission[pid].date:
            errors.append(LogError(
                pos, f"{type(ev).__name__.lower()} for paper {pid} dated {ev.date} "
                     f"before its submission on {submission[pid].date}"))
        if isinstance(ev, Decision):
            if pid in decided:
                errors.append(LogError(pos, f"duplicate terminal decision for paper {pid}"))
            else:
                decided[pid] = ev
        else:
            reviewing.append((pos, ev))

    for pos, ev in reviewing:
        dec = decided.get(ev.paper_id)
        if dec is not None and ev.date > dec.date:
            errors.append(LogError(
                pos, f"{type(ev).__name__.lower()} for paper {ev.paper_id} dated "
                     f"{ev.date} after its terminal decision on {dec.date}"))

    for pid, seen in sorted(rounds.items()):
        expected = set(range(1, max(seen) + 1))
        if seen != expected:
            errors.append(LogError(
                0, f"paper {pid}: rounds {sorted(seen)} are not contiguous from 1"))
    return errors


CORPUS_STATE = ("events", "submissions", "assignments", "reports", "decisions",
                "citation_records", "pairs", "pair_dates", "_author_history",
                "_reviewer_history")


def corpus_state(corpus: Corpus) -> dict:
    return {name: getattr(corpus, name) for name in CORPUS_STATE}


def reference_corpus_state(events) -> dict:
    """What ``Corpus(events)`` holds, built the two-walk way: validation by
    :func:`reference_validate_events`, then one more walk over the events
    that fills every map and index at once."""
    assert reference_validate_events(events) == []
    submissions = {}
    assignments = {}
    reports = {}
    decisions = {}
    citation_records = {}
    papers_by_author = {}
    assigned_by_reviewer = {}
    reported_by_reviewer = {}
    first_paired = {}
    for ev in events:
        if isinstance(ev, Submission):
            submissions[ev.paper_id] = ev
            for author in ev.author_ids:
                papers_by_author.setdefault(author, []).append(ev.paper_id)
        elif isinstance(ev, Assignment):
            assignments.setdefault(ev.paper_id, []).append(ev)
            assigned_by_reviewer.setdefault(ev.reviewer_id, []).append(ev.date)
            pair = (ev.editor_id, ev.reviewer_id)
            first = first_paired.get(pair)
            if first is None or ev.date < first:
                first_paired[pair] = ev.date
        elif isinstance(ev, Report):
            reports.setdefault(ev.paper_id, []).append(ev)
            reported_by_reviewer.setdefault(ev.reviewer_id, set()).add(ev.paper_id)
        elif isinstance(ev, Decision):
            decisions[ev.paper_id] = ev
        elif isinstance(ev, CitationRecord):
            current = citation_records.get(ev.paper_id)
            if current is None or ev.date >= current.date:
                citation_records[ev.paper_id] = ev
    paired = sorted((date, editor, reviewer)
                    for (editor, reviewer), date in first_paired.items())
    author_history = {
        author: _History.index([submissions[p].date for p in pids], pids, decisions)
        for author, pids in papers_by_author.items()}
    reviewer_history = {
        rid: _History.index(assigned_by_reviewer.get(rid, []),
                            reported_by_reviewer.get(rid, ()), decisions)
        for rid in assigned_by_reviewer.keys() | reported_by_reviewer.keys()}
    return {"events": tuple(events), "submissions": submissions,
            "assignments": assignments, "reports": reports,
            "decisions": decisions, "citation_records": citation_records,
            "pairs": tuple((e, r) for _, e, r in paired),
            "pair_dates": tuple(d for d, _, _ in paired),
            "_author_history": author_history,
            "_reviewer_history": reviewer_history}


# -- reference forms of the as-of profiles ----------------------------------


def reference_author_profile(corpus: Corpus, author_id: str,
                             as_of: dt.date) -> AuthorProfile:
    """Rescan form of ``Corpus.author_profile``: every paper the author is
    listed on (once per listing), checked against ``as_of`` on each query."""
    papers = [ev.paper_id for ev in corpus.events if isinstance(ev, Submission)
              for author in ev.author_ids if author == author_id]
    accept = reject = 0
    sub_dates: list[dt.date] = []
    for pid in papers:
        sub = corpus.submissions[pid]
        if sub.date < as_of:
            sub_dates.append(sub.date)
        dec = corpus.decisions.get(pid)
        if dec is None or dec.date >= as_of:
            continue
        if dec.outcome == "accept":
            accept += 1
        elif dec.outcome == "reject":
            reject += 1
    sub_dates.sort()
    gap = None
    if len(sub_dates) >= 2:
        total = (sub_dates[-1] - sub_dates[0]).days
        gap = total / (len(sub_dates) - 1)
    return AuthorProfile(author_id, accept, reject, gap)


def reference_reviewer_profile(corpus: Corpus, reviewer_id: str,
                               as_of: dt.date) -> ReviewerProfile:
    """Rescan form of ``Corpus.reviewer_profile``: the distinct papers the
    reviewer reported on and all their assignments, on each query."""
    reported: list[str] = []
    for ev in corpus.events:
        if isinstance(ev, Report) and ev.reviewer_id == reviewer_id \
                and ev.paper_id not in reported:
            reported.append(ev.paper_id)
    accept = reject = 0
    for pid in reported:
        dec = corpus.decisions.get(pid)
        if dec is None or dec.date >= as_of:
            continue
        if dec.outcome == "accept":
            accept += 1
        elif dec.outcome == "reject":
            reject += 1
    last = None
    for ev in corpus.events:
        if isinstance(ev, Assignment) and ev.reviewer_id == reviewer_id \
                and ev.date < as_of and (last is None or ev.date > last):
            last = ev.date
    return ReviewerProfile(reviewer_id, accept, reject, last)


# -- reference forms of the per-paper features -----------------------------

_TOKEN_RE = re.compile(r"[a-z]+")


def reference_tokenize(text: str) -> list[str]:
    """Regex form of ``text_metrics.tokenize``."""
    return _TOKEN_RE.findall(text.lower())


def reference_sentiment_score(text: str, lexicon: Lexicon) -> float:
    """Two counting passes over the regex tokens."""
    tokens = reference_tokenize(text)
    if not tokens:
        return 0.0
    pos = sum(1 for t in tokens if t in lexicon.positive)
    neg = sum(1 for t in tokens if t in lexicon.negative)
    return (pos - neg) / len(tokens)


def reference_category_percentages(text: str, lexicon: Lexicon) -> dict[str, float]:
    """One counting pass over the regex tokens per category."""
    tokens = reference_tokenize(text)
    if not tokens:
        return {name: 0.0 for name in CATEGORIES}
    return {
        name: 100.0 * sum(1 for t in tokens if t in lexicon.categories[name]) / len(tokens)
        for name in CATEGORIES
    }


def _reference_mean_or_nan(values: list[float]) -> float:
    return float(np.mean(values)) if values else float("nan")


def reference_supporting_features(paper_id: str, corpus: Corpus,
                                  lexicon: Lexicon) -> np.ndarray:
    """``features.supporting_features`` with the regex tokenizer, two-pass
    sentiment counts and ``np.mean`` for every mean."""
    sub = corpus.submissions[paper_id]
    as_of = sub.date
    reports = corpus.reports.get(paper_id, [])
    first_round = [r for r in reports if r.round == 1]

    rr = float(max((r.round for r in reports), default=0)) if reports else float("nan")
    ts = float(len(sub.author_ids))
    rl = _reference_mean_or_nan([float(len(r.text.split())) for r in first_round])
    snt = _reference_mean_or_nan([reference_sentiment_score(r.text, lexicon)
                                  for r in first_round])

    profiles = [corpus.author_profile(a, as_of) for a in sub.author_ids]
    ar = _reference_mean_or_nan([p.acceptance_ratio for p in profiles
                                 if p.acceptance_ratio is not None])

    ap_gap = profiles[0].mean_inter_submission_gap
    ap = float(ap_gap) if ap_gap is not None else float("nan")

    reviewers = corpus.assigned_reviewers(paper_id)
    rac_vals = []
    ta_vals = []
    for rid in reviewers:
        prof = corpus.reviewer_profile(rid, as_of)
        if prof.accept_ratio is not None:
            rac_vals.append(prof.accept_ratio)
        if prof.last_assignment_date is not None:
            ta_vals.append(float((as_of - prof.last_assignment_date).days))
    rac = _reference_mean_or_nan(rac_vals)
    ta = _reference_mean_or_nan(ta_vals)

    delays = []
    first_assign = {}
    for a in corpus.assignments.get(paper_id, []):
        if a.round == 1 and a.reviewer_id not in first_assign:
            first_assign[a.reviewer_id] = a.date
    for r in first_round:
        start = first_assign.get(r.reviewer_id)
        if start is not None:
            delays.append(float((r.date - start).days))
    dr = _reference_mean_or_nan(delays)

    return np.array([rr, ts, rl, snt, ar, ap, rac, ta, dr])


def reference_irregular_cases(corpus: Corpus, exposure_cutoff_year: int):
    """Rescan form of ``analysis.irregular_cases``: each flagged paper's
    authors and reviewers profiled again and their ratios and first-round
    report lengths averaged with ``np.mean``."""
    high_rejected: list[IrregularCase] = []
    low_accepted: list[IrregularCase] = []
    for pid in corpus.paper_ids():
        outcome = corpus.outcome(pid)
        cites = corpus.citations(pid)
        year = corpus.publication_year(pid)
        if outcome not in ("accept", "reject") or cites is None or year is None:
            continue
        if year >= exposure_cutoff_year:
            continue
        flagged = ((outcome == "reject" and cites >= HIGH_CITED_REJECTED_MIN)
                   or (outcome == "accept" and cites < LOW_CITED_ACCEPTED_MAX))
        if not flagged:
            continue
        as_of = corpus.submission_date(pid)
        sub = corpus.submissions[pid]
        author_ratios = [r for r in
                         (corpus.author_profile(a, as_of).acceptance_ratio
                          for a in sub.author_ids) if r is not None]
        reviewer_ratios = [r for r in
                           (corpus.reviewer_profile(rid, as_of).accept_ratio
                            for rid in corpus.assigned_reviewers(pid)) if r is not None]
        first_round = [r for r in corpus.reports.get(pid, []) if r.round == 1]
        case = IrregularCase(
            paper_id=pid,
            outcome=outcome,
            citations=cites,
            decision_year=year,
            author_acceptance_ratio=float(np.mean(author_ratios)) if author_ratios else None,
            reviewer_accept_ratio=float(np.mean(reviewer_ratios)) if reviewer_ratios else None,
            first_round_report_length=(float(np.mean([len(r.text.split())
                                                      for r in first_round]))
                                       if first_round else None),
        )
        (high_rejected if outcome == "reject" else low_accepted).append(case)
    return high_rejected, low_accepted


# -- corpus builders ---------------------------------------------------------


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def benchmark_configs() -> dict[str, dict]:
    """``SynthConfig`` keywords (all but the seed) of each benchmark workload."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: workload["config"] for name, workload in module.WORKLOADS.items()}


# one well-formed record of each type, in a valid order
SAMPLE = [
    {"type": "submission", "paper_id": "p1", "date": "2010-01-05",
     "author_ids": ["a1", "a2"], "title": "T"},
    {"type": "assignment", "paper_id": "p1", "date": "2010-01-10",
     "editor_id": "e1", "reviewer_id": "r1", "round": 1},
    {"type": "report", "paper_id": "p1", "date": "2010-02-20",
     "reviewer_id": "r1", "round": 1, "text": "good results",
     "recommendation": "accept"},
    {"type": "decision", "paper_id": "p1", "date": "2010-02-25",
     "outcome": "accept", "round": 1},
    {"type": "citation", "paper_id": "p1", "date": "2013-12-31",
     "cumulative_citations": 17, "as_of_year": 2013},
]


# (SAMPLE index, field, wrongly typed value, expected message fragment)
WRONGLY_TYPED = [
    (4, "cumulative_citations", 2.7, "cumulative_citations must be a non-negative integer"),
    (4, "cumulative_citations", True, "cumulative_citations must be a non-negative integer"),
    (4, "cumulative_citations", "17", "cumulative_citations must be a non-negative integer"),
    (4, "as_of_year", True, "as_of_year must be an integer"),
    (4, "as_of_year", 2013.5, "as_of_year must be an integer"),
    (4, "as_of_year", None, "as_of_year must be an integer"),
    (2, "text", None, "text must be a string"),
    (2, "recommendation", None, "recommendation must be a string"),
    (3, "outcome", None, "outcome must be a string"),
    (1, "reviewer_id", None, "reviewer_id must be a string"),
    (1, "editor_id", 3, "editor_id must be a string"),
    (0, "paper_id", 17, "paper_id must be a string"),
    (0, "author_ids", ["a1", None], "author_ids must be a non-empty list of strings"),
    (0, "author_ids", [1], "author_ids must be a non-empty list of strings"),
    (0, "author_ids", "a1", "author_ids must be a non-empty list of strings"),
    (0, "title", None, "title must be a string"),
    (0, "title", 3, "title must be a string"),
    (0, "title", ["T"], "title must be a string"),
]

# ids that would split or shift a CSV row, or lose a space when read back
BAD_PAPER_IDS = [
    (index, "paper_id", pid, "paper_id must hold no comma or line break")
    for index, pid in [(0, "p,x"), (1, "p\nx"), (2, "p1\r"), (3, " p1"), (4, "p1\t")]
]


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
    """Largest KKT violation of the fitted dual over the training set.

    Conditions per point, with r = y - f(x):
      beta = 0        |r| <= eps
      beta = +C       r >= eps
      beta = -C       r <= -eps
      0 < |beta| < C  |r| = eps (matching sign)
    Returns the max slack needed to make every condition hold, or inf when
    a beta lies outside [-C, C].
    """
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


def reference_impute(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``X`` with each NaN cell set to its column's NaN-ignoring mean (0 for
    an all-NaN column), as a C-order copy, and those means."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        means = np.nanmean(X, axis=0)
    means = np.where(np.isnan(means), 0.0, means)
    out = X.copy()
    nan_r, nan_c = np.where(np.isnan(out))
    out[nan_r, nan_c] = means[nan_c]
    return out, means
