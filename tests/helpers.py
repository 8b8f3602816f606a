"""Shared test fixtures, independent oracles and reference forms.

The graph oracles use other algorithms than the package (Floyd-Warshall with
path-count DP, a triangle count, a PageRank linear solve, the "shares an
editor" predicate), so agreement is meaningful; networkx and
``test_digests.py`` guard the same layer.  The ``reference_*`` forms left
pin what nothing else does: the loader's, the wording and order of
diagnostics; the profile and irregular-case rescans and the text and
supporting-feature forms, their results on hypothesis logs and texts the
digest corpora never hold; ``reference_report_text``, the generator's draws
on any stream.
``reference_kkt_max_violation``, ``reference_svr_optimum`` (the SVR dual's
optimum by enumeration of row states) and ``reference_impute`` are oracles
of their own.
"""

from __future__ import annotations

import datetime as dt
import importlib.util
import itertools
import json
import math
import random
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from revnet.analysis import (HIGH_CITED_REJECTED_MIN, LOW_CITED_ACCEPTED_MAX,
                             IrregularCase)
from revnet.corpus import (RECOMMENDATIONS, TERMINAL_OUTCOMES, Assignment,
                           AuthorProfile, CitationRecord, Corpus, Decision,
                           LogError, Report, ReviewerProfile, Submission,
                           _History)
from revnet.review_graph import ReviewGraph
from revnet.text_metrics import CATEGORIES, Lexicon

FAR_FUTURE = dt.date(2100, 1, 1)


# -- graph construction ------------------------------------------------------


def graph_from_edges(n: int, edges, names=None) -> ReviewGraph:
    """The graph of ``edges``, read-only as ``build_graph`` leaves it."""
    names = tuple(names) if names else tuple(f"r{i:03d}" for i in range(n))
    A = np.zeros((n, n))
    for u, v in edges:
        if u != v:
            A[u, v] = A[v, u] = 1.0
    A.flags.writeable = False
    return ReviewGraph(FAR_FUTURE, names, A)


def random_graph(rng: random.Random, n: int, p: float) -> ReviewGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return graph_from_edges(n, edges)


def graph_edges(graph: ReviewGraph) -> list[tuple[int, int]]:
    """Each undirected edge once, as (u, v) with u < v, in index order."""
    return [(u, v) for u in range(graph.n) for v in graph.adj[u] if u < v]


# -- shortest-path oracles ---------------------------------------------------


def floyd_warshall(graph: ReviewGraph) -> np.ndarray:
    D = np.where(graph.A > 0.0, 1.0, math.inf)
    np.fill_diagonal(D, 0.0)
    for k in range(graph.n):
        D = np.minimum(D, D[:, k][:, None] + D[k][None, :])
    return D


def _path_counts(graph: ReviewGraph, D: np.ndarray) -> np.ndarray:
    """N[s, w], the number of shortest s-w paths, by DP over the distances:
    N[s, w] sums N[s, u] over the neighbours u of w with D[s, u] one less."""
    N = np.eye(graph.n)
    for d in range(1, int(D[np.isfinite(D)].max(initial=0.0)) + 1):
        N += ((N * (D == d - 1)) @ graph.A) * (D == d)
    return N


def oracle_betweenness(graph: ReviewGraph) -> np.ndarray:
    """Pair dependencies summed over pairs: v is on a shortest s-t path iff
    D[s, v] + D[v, t] == D[s, t], and carries N[s, v] N[t, v] / N[s, t] of
    that pair's paths.  Each pair is counted in both orders, then halved."""
    n = graph.n
    if n < 3:
        return np.zeros(n)
    D = floyd_warshall(graph)
    N = _path_counts(graph, D)
    finite = np.isfinite(D)
    bc = np.zeros(n)
    for v in range(n):
        through = (D[:, v, None] + D[v] == D) & finite
        through[v] = through[:, v] = False
        bc[v] = (np.outer(N[:, v], N[:, v])[through] / N[through]).sum() / 2.0
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
    deg = graph.A.sum(axis=0)
    # column u: u's mass split over its neighbours, or over all n if it has none
    P = np.where(deg == 0.0, 1.0 / n, graph.A / np.maximum(deg, 1.0))
    return np.linalg.solve(np.eye(n) - damping * P,
                           np.full(n, (1.0 - damping) / n))


def assert_table_matches_oracles(graph: ReviewGraph, table) -> None:
    """``compute_table(graph)``: degree the row sums of ``A``, betweenness
    zero exactly where the oracle's is, PageRank converged."""
    bc = oracle_betweenness(graph)
    assert table.nodes == graph.nodes and table.pagerank_converged
    assert table.degree.dtype == np.int64
    assert table.degree.tolist() == graph.A.sum(axis=1).tolist()
    assert np.allclose(table.betweenness, bc, rtol=0.0, atol=1e-9)
    assert np.array_equal(table.betweenness == 0.0, bc == 0.0)
    assert np.allclose(table.closeness, oracle_closeness(graph), rtol=0.0, atol=1e-9)
    assert np.allclose(table.clustering, oracle_clustering(graph), rtol=0.0, atol=1e-9)
    assert np.allclose(table.pagerank, oracle_pagerank(graph), rtol=0.0, atol=1e-6)


# -- the snapshot projection by rescan and by predicate ---------------------


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
    if abs(raw) >= 9007199254740992:
        raise ValueError(f"{key} must be at most 2**53 - 1 in magnitude, got {raw!r}")
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
    citations = []
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
            elif any(c.paper_id == pid and c.date == ev.date and c != ev for c in citations):
                errors.append(LogError(
                    pos, f"conflicting citation records for paper {pid} dated {ev.date}"))
            else:
                citations.append(ev)
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
        if sorted(seen) != list(range(1, len(seen) + 1)):
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
    """The exact rational sum, rounded once to a float, over the count."""
    return float(sum(map(Fraction, values))) / len(values) if values else float("nan")


def reference_supporting_features(paper_id: str, corpus: Corpus,
                                  lexicon: Lexicon) -> np.ndarray:
    """``features.supporting_features`` with the regex tokenizer, two-pass
    sentiment counts, a rational sum for every mean and DR from each
    reviewer's earliest round-1 assignment."""
    sub = corpus.submissions[paper_id]
    as_of = sub.date
    reports = corpus.reports.get(paper_id, [])
    first_round = [r for r in reports if r.round == 1]

    rr = float(max((r.round for r in reports), default=0)) if reports else float("nan")
    ts = float(len(sub.author_ids))
    rl = _reference_mean_or_nan([float(len(reference_tokenize(r.text)))
                                 for r in first_round])
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
    for r in first_round:
        starts = [a.date for a in corpus.assignments.get(paper_id, [])
                  if a.round == 1 and a.reviewer_id == r.reviewer_id]
        if starts:
            delays.append(float((r.date - min(starts)).days))
    dr = _reference_mean_or_nan(delays)

    return np.array([rr, ts, rl, snt, ar, ap, rac, ta, dr])


def reference_irregular_cases(corpus: Corpus, exposure_cutoff_year: int):
    """Rescan form of ``analysis.irregular_cases``: each flagged paper's
    authors and reviewers profiled again and their ratios and first-round
    report lengths averaged by ``_reference_mean_or_nan``."""
    def mean_or_none(values):
        return _reference_mean_or_nan(values) if values else None

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
            author_acceptance_ratio=mean_or_none(author_ratios),
            reviewer_accept_ratio=mean_or_none(reviewer_ratios),
            first_round_report_length=mean_or_none([len(reference_tokenize(r.text))
                                                    for r in first_round]),
        )
        (high_rejected if outcome == "reject" else low_accepted).append(case)
    return high_rejected, low_accepted


# -- reference form of the report text ---------------------------------------


def reference_report_text(rng: random.Random, pools, s_snt: float, length: int) -> str:
    """The generator's report text as a linear scan of the running sums and
    one ``rng.choice`` per word; ``synth._report_text`` must draw the same."""
    lean = math.tanh(s_snt)
    probs = [
        ("positive", 0.035 * (1.0 + 0.7 * lean)),
        ("negative", 0.035 * (1.0 - 0.7 * lean)),
        ("future_tense", 0.012 * (1.0 + 0.5 * lean)),
        ("insight", 0.030 * (1.0 + 0.4 * lean)),
        ("causation", 0.022 * (1.0 + 0.4 * lean)),
        ("inclusive", 0.032 * (1.0 + 0.4 * lean)),
        ("positive_emotion", 0.015 * (1.0 + 0.5 * lean)),
        ("negation", 0.010 * (1.0 - 0.5 * lean)),
        ("exclusive", 0.013 * (1.0 - 0.5 * lean)),
    ]
    words = []
    for _ in range(length):
        u = rng.random()
        acc = 0.0
        pool = "filler"
        for name, p in probs:
            acc += p
            if u < acc:
                pool = name
                break
        words.append(rng.choice(pools[pool]))
    return " ".join(words)


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


# (SAMPLE index, field, wrongly typed or out-of-range value, expected message fragment)
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
    (1, "round", 2**53, "round must be at most 2**53 - 1 in magnitude"),
    (2, "round", 2.0**53, "round must be at most 2**53 - 1 in magnitude"),
    (3, "round", 10**20, "round must be at most 2**53 - 1 in magnitude"),
    (4, "cumulative_citations", 2**53, "cumulative_citations must be at most 2**53 - 1"),
    (4, "cumulative_citations", 1e300, "cumulative_citations must be at most 2**53 - 1"),
    (4, "as_of_year", 2**53, "as_of_year must be at most 2**53 - 1 in magnitude"),
    (4, "as_of_year", -2**53, "as_of_year must be at most 2**53 - 1 in magnitude"),
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


def _grid(choices, n: int) -> np.ndarray:
    """Every length-n sequence of ``choices``, one per row."""
    return np.array(list(itertools.product(choices, repeat=n))).reshape(len(choices) ** n, n)


def reference_svr_optimum(K: np.ndarray, y: np.ndarray, C: float, eps: float,
                          tol: float = 1e-10):
    """The optimum of the epsilon-SVR dual

        min 1/2 beta' K beta - y' beta + eps |beta|_1
        s.t. sum beta = 0,  -C <= beta <= C

    found by enumerating each row's state: at -C, free and negative, at 0,
    free and positive, or at +C (5^l state vectors, so l <= 6 or so).  For
    each free set F the bordered system

        [[K_FF, 1], [1', 0]] [beta_F; b] = [y_F - eps sign_F - K_FB beta_B; -sum beta_B]

    is solved for every sign of F and every bound value of the other rows
    B at once.  A state vector is kept when each free beta lies on its
    sign's side within [-C, C] and each bound row meets its KKT condition
    with r = y - K beta - b: |r| <= eps at 0, r >= eps at +C, r <= -eps at
    -C, each within ``tol`` (``tol`` C for a beta).  Those conditions are
    sufficient for the convex dual, so every kept vector is an optimum;
    the one with the smallest objective is returned.  A free set whose
    bordered matrix is singular is skipped: moving along its null
    direction keeps K beta, sum beta and the objective until a free beta
    reaches a bound, so some optimum has a nonsingular one.  With no free
    row, b is any value its bound rows allow.

    Returns (beta, objective, bias_lo, bias_hi): [bias_lo, bias_hi] holds
    every bias that meets the KKT conditions at that beta, one point when a
    row is free.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    l = len(y)
    best = None
    for free_mask in itertools.product((False, True), repeat=l):
        F = np.flatnonzero(free_mask)
        B = np.flatnonzero(np.logical_not(free_mask))
        values = C * _grid((-1.0, 0.0, 1.0), len(B))
        signs = _grid((-1.0, 1.0), len(F))
        beta = np.zeros((len(values), len(signs), l))
        beta[:, :, B] = values[:, None, :]
        if len(F):
            M = np.ones((len(F) + 1, len(F) + 1))
            M[:-1, :-1] = K[np.ix_(F, F)]
            M[-1, -1] = 0.0
            if np.linalg.cond(M) > 1e12:
                continue
            rhs = np.empty((len(values), len(signs), len(F) + 1))
            rhs[..., :-1] = y[F] - eps * signs - (values @ K[np.ix_(B, F)])[:, None, :]
            rhs[..., -1] = -values.sum(axis=1)[:, None]
            solution = rhs @ np.linalg.inv(M).T
            beta_f, bias = solution[..., :-1], solution[..., -1]
            beta[:, :, F] = beta_f
            ok = ((beta_f * signs >= -tol * C) & (np.abs(beta_f) <= C + tol * C)).all(axis=2)
            r = y - beta @ K - bias[..., None]
        else:
            # every row bound: b is the middle of what the rows allow (both
            # ends are finite, as sum beta = 0 pairs a +C with a -C)
            ok = np.abs(values.sum(axis=1))[:, None] <= tol * C
            r = y - beta @ K
            lo = np.where(beta < 0.0, r + eps, np.where(beta == 0.0, r - eps, -np.inf))
            hi = np.where(beta > 0.0, r - eps, np.where(beta == 0.0, r + eps, np.inf))
            r -= (lo.max(axis=2) + hi.min(axis=2))[..., None] / 2.0
        bound, r = beta[:, :, B], r[:, :, B]
        violation = np.where(bound > 0.0, eps - r,
                             np.where(bound < 0.0, eps + r, np.abs(r) - eps))
        ok &= violation.max(axis=2, initial=-np.inf) <= tol
        for v, s in zip(*np.nonzero(ok)):
            b = beta[v, s]
            objective = 0.5 * b @ K @ b - y @ b + eps * np.abs(b).sum()
            if best is None or objective < best[1]:
                best = (b.copy(), float(objective))
    if best is None:
        raise AssertionError("no state vector meets the KKT conditions")
    beta, objective = best
    # every bias that the KKT conditions allow at beta
    r0 = y - K @ beta
    near = 1e-9 * C
    at_zero, at_upper, at_lower = (np.abs(beta) <= near, beta >= C - near,
                                   beta <= near - C)
    free = ~(at_zero | at_upper | at_lower)
    sign = np.sign(beta)
    lo = np.concatenate([r0[at_zero] - eps, r0[at_lower] + eps,
                         r0[free] - eps * sign[free], [-np.inf]]).max()
    hi = np.concatenate([r0[at_zero] + eps, r0[at_upper] - eps,
                         r0[free] - eps * sign[free], [np.inf]]).min()
    return beta, objective, float(lo), float(hi)


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
