"""Per-paper feature vectors and the per-year citation-rank target.

The 14 regression features, in fixed column order:

    Deg, BC, CC, Clus, PR   mean centralities of the assigned reviewer(s) in
                            the reviewer graph snapshot at the paper's
                            submission date (excluding that date)
    RR                      rounds of review (max round carrying a report)
    TS                      team size (author count)
    RL                      mean word count of first-round referee reports
    SNT                     mean sentiment of first-round referee reports
    AR                      mean author acceptance ratio at submission time
    AP                      first author's mean inter-submission gap (days)
    RAC                     mean reviewer accept ratio at submission time
    TA                      mean days since each reviewer's prior assignment
    DR                      mean first-round assignment-to-report delay (days)

Every history-derived entry uses events strictly before the paper's
submission date; undefined entries stay NaN with a parallel missing mask.
Imputation happens at model time, never here.  A word is a token of
``text_metrics.tokenize``.

Every mean here and in ``analysis`` is :func:`mean`: the exactly rounded sum
(``math.fsum``) over the count, so a mean has the same bits in any order of
its values, and so of the log's lines.
"""

from __future__ import annotations

import datetime as dt
import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from statistics import NormalDist
from typing import Optional

import numpy as np

from . import centrality
from .corpus import Corpus
from .outputs import csv_line, write_lines
from .review_graph import build_graph, pairs_before
from .text_metrics import Lexicon, sentiment_score, tokenize

FEATURE_NAMES = ("Deg", "BC", "CC", "Clus", "PR", "RR", "TS", "RL", "SNT",
                 "AR", "AP", "RAC", "TA", "DR")
NETWORK_FEATURES = ("Deg", "BC", "CC", "Clus", "PR")
SUPPORTING_FEATURES = FEATURE_NAMES[5:]  # the columns of supporting_features
# each supporting feature's column in supporting_features, to read it by name
SUPPORTING_COLUMN = {name: i for i, name in enumerate(SUPPORTING_FEATURES)}

_NORMAL = NormalDist()


class SnapshotCache:
    """One centrality table per distinct snapshot prefix.

    A cutoff's snapshot is a prefix of the corpus's date-sorted (editor,
    reviewer) pairs, so cutoffs with the same prefix length share one graph,
    built once.  Only each graph's node index and table are kept.
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self._dates: set[dt.date] = set()
        self._tables: dict[int, tuple] = {}

    def table(self, cutoff: dt.date):
        """(node index, centrality table) of the snapshot at ``cutoff``."""
        self._dates.add(cutoff)
        k = pairs_before(self.corpus, cutoff)
        hit = self._tables.get(k)
        if hit is None:
            graph = build_graph(self.corpus, cutoff)
            hit = self._tables[k] = (graph.index, centrality.compute_table(graph))
        return hit

    def stats(self) -> dict:
        """Counters over the snapshot dates and tables built so far."""
        tables = [table for _, table in self._tables.values()]
        return {
            "snapshot_dates": len(self._dates),
            "snapshot_tables": len(tables),
            "nodes_max": max((len(table.nodes) for table in tables), default=0),
            "pagerank_nonconverged": sum(not table.pagerank_converged
                                         for table in tables),
        }


def network_features(paper_id: str, corpus: Corpus,
                     cache: Optional[SnapshotCache] = None) -> np.ndarray:
    """Mean (Deg, BC, CC, Clus, PR) over the paper's assigned reviewers.

    Reviewers not yet in the snapshot contribute zeros, with PageRank at the
    uniform 1/n value.  An empty snapshot (or no assignments) yields NaNs.
    """
    reviewers = corpus.assigned_reviewers(paper_id)
    if not reviewers:
        return np.full(5, np.nan)
    cache = cache or SnapshotCache(corpus)
    index, table = cache.table(corpus.submission_date(paper_id))
    n = len(index)
    if n == 0:
        return np.full(5, np.nan)
    rows = []
    for rid in reviewers:
        i = index.get(rid)
        if i is None:
            rows.append((0.0, 0.0, 0.0, 0.0, 1.0 / n))
        else:
            rows.append((table.degree[i], table.betweenness[i], table.closeness[i],
                         table.clustering[i], table.pagerank[i]))
    return np.array([mean(column) for column in zip(*rows)])


def mean(values) -> float:
    """``math.fsum(values) / len(values)``, NaN for no values.

    The sum is exactly rounded, so the mean does not depend on the order of
    ``values``.  Every averaged quantity is bounded, so the sum cannot
    overflow.
    """
    return math.fsum(values) / len(values) if values else float("nan")


def supporting_features(paper_id: str, corpus: Corpus, lexicon: Lexicon) -> np.ndarray:
    """The ``SUPPORTING_FEATURES`` (RR, TS, RL, SNT, AR, AP, RAC, TA, DR) of
    one paper."""
    sub = corpus.submissions[paper_id]
    as_of = sub.date
    reports = corpus.reports.get(paper_id, [])
    first_round = [r for r in reports if r.round == 1]

    rr = float(max((r.round for r in reports), default=0)) if reports else float("nan")
    ts = float(len(sub.author_ids))
    tokens = [tokenize(r.text) for r in first_round]
    rl = mean([float(len(t)) for t in tokens])
    snt = mean([sentiment_score(t, lexicon) for t in tokens])

    profiles = [corpus.author_profile(a, as_of) for a in sub.author_ids]
    ar = mean([p.acceptance_ratio for p in profiles
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
    rac = mean(rac_vals)
    ta = mean(ta_vals)

    delays = []
    first_assign = {}  # each reviewer's earliest round-1 assignment
    for a in corpus.assignments.get(paper_id, []):
        if a.round == 1 and a.date < first_assign.get(a.reviewer_id, dt.date.max):
            first_assign[a.reviewer_id] = a.date
    for r in first_round:
        start = first_assign.get(r.reviewer_id)
        if start is not None:
            delays.append(float((r.date - start).days))
    dr = mean(delays)

    return np.array([rr, ts, rl, snt, ar, ap, rac, ta, dr])


def feature_vector(paper_id: str, corpus: Corpus, lexicon: Lexicon,
                   cache: Optional[SnapshotCache] = None) -> np.ndarray:
    """The 14 features in ``FEATURE_NAMES`` order, NaN where missing."""
    return np.concatenate([
        network_features(paper_id, corpus, cache),
        supporting_features(paper_id, corpus, lexicon),
    ])


def citation_rank_targets(papers: list[tuple[str, int, int]]) -> list[float]:
    """Rank-based inverse-normal target, computed within publication year.

    ``papers`` holds (paper_id, publication_year, cumulative_citations); the
    result holds one target per paper, in the same order.  Within a year,
    papers get ascending mid-rank percentiles (ties averaged) mapped through
    the standard-normal inverse CDF; a singleton year is 0.
    """
    by_year: dict[int, list[int]] = {}
    for _, year, cites in papers:
        by_year.setdefault(year, []).append(cites)
    for counts in by_year.values():
        counts.sort()

    out = []
    for _, year, cites in papers:
        counts = by_year[year]
        n = len(counts)
        # 1-based mid-rank of the tie group holding ``cites``
        rank = (bisect_left(counts, cites) + bisect_right(counts, cites) + 1) / 2.0
        out.append(0.0 if n == 1 else _NORMAL.inv_cdf((rank - 0.5) / n))
    return out


@dataclass(frozen=True)
class AssembledMatrix:
    paper_ids: tuple[str, ...]
    X: np.ndarray  # n x 14, NaN where missing
    missing: np.ndarray  # bool, same shape
    y: np.ndarray
    years: tuple[int, ...]


def assemble_matrix(corpus: Corpus, window: tuple[int, int], lexicon: Lexicon,
                    cache: Optional[SnapshotCache] = None) -> AssembledMatrix:
    """Feature matrix over accepted papers published within ``window`` years.

    Rows are ordered by (submission date, paper_id).  Papers without a
    citation record are skipped (they have no target).
    """
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window {window}")
    cache = cache or SnapshotCache(corpus)

    selected = []
    for pid in corpus.paper_ids():
        if corpus.outcome(pid) != "accept":
            continue
        year = corpus.publication_year(pid)
        cites = corpus.citations(pid)
        if year is None or cites is None or not lo <= year <= hi:
            continue
        selected.append((pid, year, cites))

    n = len(selected)
    X = np.full((n, len(FEATURE_NAMES)), np.nan)
    for i, (pid, _, _) in enumerate(selected):
        X[i] = feature_vector(pid, corpus, lexicon, cache)

    return AssembledMatrix(
        paper_ids=tuple(pid for pid, _, _ in selected),
        X=X,
        missing=np.isnan(X),
        y=np.array(citation_rank_targets(selected)),
        years=tuple(year for _, year, _ in selected),
    )


# -- CSV interchange --------------------------------------------------------

CSV_HEADER = "paper_id," + ",".join(FEATURE_NAMES) + ",target,year"


def write_matrix_csv(matrix: AssembledMatrix, path) -> None:
    """Write the matrix plus a parallel ``<path>.missing`` mask file."""
    rows = zip(matrix.paper_ids, matrix.X, matrix.y.tolist(), matrix.years)
    write_lines(path, chain([CSV_HEADER + "\n"], (csv_line([pid, *x.tolist(), y, year])
                                                  for pid, x, y, year in rows)))
    write_lines(str(path) + ".missing",
                (line + "\n" for line in _mask_lines(matrix.paper_ids, matrix.missing)))


def _mask_lines(ids, missing: np.ndarray):
    """The lines of a ``.missing`` mask file: the header, then each paper id
    with a 1 (missing) or 0 per feature."""
    yield "paper_id," + ",".join(FEATURE_NAMES)
    for pid, row in zip(ids, missing):
        yield pid + "," + ",".join("1" if m else "0" for m in row)


def read_matrix_csv(path) -> AssembledMatrix:
    """Inverse of :func:`write_matrix_csv`; a row with the wrong cell count
    or an unparsable cell raises ``ValueError`` naming its line.

    When ``<path>.missing`` exists it must equal ``isnan(X)`` cell for cell,
    with the same header and paper ids; a CSV without a mask is accepted.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected feature CSV header: {header!r}")
        width = len(FEATURE_NAMES) + 3
        ids, rows, ys, years = [], [], [], []
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != width:
                raise ValueError(f"{path}: line {lineno} has {len(parts)} cells, "
                                 f"expected {width}")
            try:
                row = [float(v) for v in parts[1:-2]]
                target, year = float(parts[-2]), int(parts[-1])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            ids.append(parts[0])
            rows.append(row)
            ys.append(target)
            years.append(year)
    X = np.array(rows) if rows else np.zeros((0, len(FEATURE_NAMES)))
    missing = np.isnan(X)
    mask_path = str(path) + ".missing"
    if os.path.exists(mask_path):
        _check_mask(mask_path, ids, missing)
    return AssembledMatrix(tuple(ids), X, missing, np.array(ys), tuple(years))


def _check_mask(path, ids: list[str], missing: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first line of the mask file at ``path``
    that disagrees with the paper ids or with the NaN cells of the matrix."""
    expected = list(_mask_lines(ids, missing))
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    for lineno, (got, want) in enumerate(zip(lines, expected), start=1):
        if got != want:
            raise ValueError(f"{path}: line {lineno} is {got!r}, expected {want!r} "
                             f"from the feature CSV")
    if len(lines) != len(expected):
        raise ValueError(f"{path}: {len(lines)} lines, expected {len(expected)} "
                         f"from the feature CSV")
