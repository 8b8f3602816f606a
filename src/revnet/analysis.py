"""Descriptive analyses over a validated corpus.

Bucketed means, quartile CDF contrasts on reviewer centrality, the dataset
summary table, linguistic group contrasts, and irregular-case detection.
Everything is a pure function of the event log; ``run_all`` writes one CSV
per analysis plus a manifest mapping analysis name -> file -> columns.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import centrality
from .corpus import Corpus
from .features import SUPPORTING_COLUMN, mean, supporting_features
from .outputs import csv_line, write_lines
from .review_graph import build_graph
from .text_metrics import CATEGORIES, Lexicon, category_percentages, tokenize

# the analyses ``run_all`` writes, one CSV each, in order; with its manifest
# these name every file it writes, so a caller can check them beforehand
ANALYSES = ("summary", "citation_buckets", "reviews_by_citation_bucket",
            "top20_citation_by_rounds", "team_size_citation",
            "report_length_citation", "author_productivity_citation",
            "time_since_assignment_citation", "report_delay_citation",
            "author_acceptance_ratio_buckets", "reviewer_accept_ratio_buckets",
            "sentiment_by_year", "centrality_quartile_contrast", "lqi_contrast",
            "irregular_high_cited_rejected", "irregular_low_cited_accepted")
OUTPUT_FILES = tuple(f"{name}.csv" for name in ANALYSES) + ("manifest.json",)

HIGH_CITED_REJECTED_MIN = 20  # twice the rejected papers' average citation
LOW_CITED_ACCEPTED_MAX = 10  # exclusive upper bound


# -- bucketing --------------------------------------------------------------


def bucket_powers_of_two(citations: int) -> int:
    """Citation buckets <=1, 2, (2,4], (4,8], ... -> 0, 1, 2, 3, ..."""
    if citations < 0:
        raise ValueError("citations must be nonnegative")
    if citations <= 1:
        return 0
    return (citations - 1).bit_length()  # == ceil(log2 c) for c >= 2


def bucket_fixed_width(value: float, width: float) -> int:
    """Half-open buckets [k*width, (k+1)*width)."""
    return int(value // width)


def bucket_ratio_decile(ratio: float) -> int:
    """Deciles [0.0, 0.1), [0.1, 0.2), ...; 1.0 lands in the top bucket."""
    return min(int(ratio * 10), 9)


@dataclass(frozen=True)
class GroupStat:
    bucket: int
    count: int
    mean: float


def bucket_mean(values: Sequence[float], keys: Sequence[int]) -> list[GroupStat]:
    """Mean of ``values`` grouped by precomputed bucket indices."""
    if len(values) != len(keys):
        raise ValueError("values and keys must align")
    groups: dict[int, list[float]] = {}
    for v, k in zip(values, keys):
        groups.setdefault(k, []).append(v)
    return [GroupStat(k, len(vs), mean(vs)) for k, vs in sorted(groups.items())]


# -- quartile CDF contrast --------------------------------------------------


def empirical_cdf(values: Sequence[float]) -> list[tuple[float, float]]:
    xs = sorted(values)
    n = len(xs)
    out = []
    for i, x in enumerate(xs, start=1):
        if out and out[-1][0] == x:
            out[-1] = (x, i / n)
        else:
            out.append((x, i / n))
    return out


def quartile_contrast(metric_by_reviewer: dict[str, float],
                      citations_by_reviewer: dict[str, list[int]]):
    """Citation CDFs for papers of the top vs bottom 25% reviewers by metric.

    Ties in the metric are broken by reviewer id so the split is
    deterministic.  Quartile size is max(1, n // 4).
    """
    if len(metric_by_reviewer) < 4:
        raise ValueError("need at least 4 scored reviewers")
    ranked = sorted(metric_by_reviewer, key=lambda r: (-metric_by_reviewer[r], r))
    q = max(1, len(ranked) // 4)
    top, bottom = ranked[:q], ranked[-q:]

    def pool(group: Iterable[str]) -> list[int]:
        cites: list[int] = []
        for rid in group:
            cites.extend(citations_by_reviewer.get(rid, []))
        return cites

    return empirical_cdf(pool(top)), empirical_cdf(pool(bottom))


# -- per-paper records, summaries and irregular cases -------------------------


@dataclass(frozen=True, eq=False)
class PaperRecord:
    """One accepted or rejected paper, as every analysis reads it."""

    paper_id: str
    outcome: str  # "accept" or "reject"
    decision_year: int
    citations: Optional[int]  # None without a citation record
    rounds: int  # RR, 0 when the paper has no report
    team_size: int
    features: np.ndarray  # supporting_features, NaN where undefined

    def feature(self, name: str) -> float:
        """The supporting feature ``name``, NaN where undefined."""
        return self.features.item(SUPPORTING_COLUMN[name])


def paper_records(corpus: Corpus, lexicon: Lexicon) -> list[PaperRecord]:
    """One record per accepted or rejected paper, in ``paper_ids`` order."""
    records = []
    for pid in corpus.paper_ids():
        dec = corpus.decisions.get(pid)
        if dec is None or dec.outcome not in ("accept", "reject"):
            continue
        feats = supporting_features(pid, corpus, lexicon)
        rr = feats[SUPPORTING_COLUMN["RR"]]
        records.append(PaperRecord(
            pid, dec.outcome, dec.date.year, corpus.citations(pid),
            0 if math.isnan(rr) else int(rr), int(feats[SUPPORTING_COLUMN["TS"]]), feats))
    return records


def summary_table(corpus: Corpus, records: Sequence[PaperRecord]) -> dict[str, float]:
    """Dataset summary.  Review means count every decided paper; citation
    means count only the decided papers with a citation record.  The mean
    of an empty group reads 0.0."""
    accepted = [r for r in records if r.outcome == "accept"]
    rejected = [r for r in records if r.outcome == "reject"]

    authors = {a for s in corpus.submissions.values() for a in s.author_ids}
    subs_per_author = (len([a for s in corpus.submissions.values()
                            for a in s.author_ids]) / len(authors)) if authors else 0.0
    return {
        "papers": len(corpus.submissions),
        "papers_accepted": len(accepted),
        "papers_rejected": len(rejected),
        "mean_reviews_accepted": mean([r.rounds for r in accepted] or [0.0]),
        "mean_reviews_rejected": mean([r.rounds for r in rejected] or [0.0]),
        "mean_citations_accepted": mean([r.citations for r in accepted
                                         if r.citations is not None] or [0.0]),
        "mean_citations_rejected": mean([r.citations for r in rejected
                                         if r.citations is not None] or [0.0]),
        "unique_authors": len(authors),
        "mean_submissions_per_author": subs_per_author,
        "mean_authors_per_paper": mean([len(s.author_ids)
                                        for s in corpus.submissions.values()] or [0.0]),
    }


@dataclass(frozen=True)
class IrregularCase:
    paper_id: str
    outcome: str
    citations: int
    decision_year: int
    author_acceptance_ratio: Optional[float]
    reviewer_accept_ratio: Optional[float]
    first_round_report_length: Optional[float]


def irregular_cases(records: Sequence[PaperRecord], exposure_cutoff_year: int):
    """Highly cited rejected (>= 20) and low cited accepted (< 10) papers.

    Only papers decided strictly before the exposure cutoff year count, so
    every flagged paper had time to accrue citations.  Each case carries the
    paper's AR, RAC and RL features: its authors' and reviewers' history as
    of submission and its first-round report length.
    """
    high_rejected: list[IrregularCase] = []
    low_accepted: list[IrregularCase] = []
    for rec in records:
        cites = rec.citations
        if cites is None or rec.decision_year >= exposure_cutoff_year:
            continue
        if rec.outcome == "reject" and cites >= HIGH_CITED_REJECTED_MIN:
            cases = high_rejected
        elif rec.outcome == "accept" and cites < LOW_CITED_ACCEPTED_MAX:
            cases = low_accepted
        else:
            continue
        rl, ar, rac = (None if math.isnan(rec.feature(f)) else rec.feature(f)
                       for f in ("RL", "AR", "RAC"))
        cases.append(IrregularCase(rec.paper_id, rec.outcome, cites, rec.decision_year,
                                   ar, rac, rl))
    return high_rejected, low_accepted


def lqi_contrast(records: Sequence[PaperRecord], corpus: Corpus, lexicon: Lexicon,
                 exposure_cutoff_year: int) -> dict[str, tuple[float, float]]:
    """Mean category percentages for top vs bottom 10% cited accepted papers
    decided before ``exposure_cutoff_year``; report text from ``corpus``."""
    pool = sorted((r for r in records if r.outcome == "accept"
                   and r.citations is not None
                   and r.decision_year < exposure_cutoff_year),
                  key=lambda r: (r.citations, r.paper_id))
    if len(pool) < 10:
        return {}
    k = max(1, len(pool) // 10)
    low, high = pool[:k], pool[-k:]

    def group_means(group):
        rows = []
        for r in group:
            for rep in corpus.reports.get(r.paper_id, []):
                rows.append(category_percentages(tokenize(rep.text), lexicon))
        if not rows:
            return {c: 0.0 for c in CATEGORIES}
        return {c: mean([r[c] for r in rows]) for c in CATEGORIES}

    hi, lo = group_means(high), group_means(low)
    return {c: (hi[c], lo[c]) for c in CATEGORIES}


# -- full bundle ------------------------------------------------------------


def run_all(corpus: Corpus, lexicon: Lexicon, out_dir,
            exposure_cutoff_year: Optional[int] = None) -> dict:
    """Write every analysis CSV under ``out_dir``, the files of
    ``OUTPUT_FILES``; returns the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    if exposure_cutoff_year is None:
        years = [rec.as_of_year for rec in corpus.citation_records.values()]
        exposure_cutoff_year = (max(years) - 3) if years else 0
    manifest: dict[str, dict] = {}

    def emit(name, header, rows):
        write_lines(os.path.join(out_dir, f"{name}.csv"), map(csv_line, [header, *rows]))
        manifest[name] = {"file": f"{name}.csv", "columns": header}

    records = paper_records(corpus, lexicon)
    cited = [r for r in records if r.citations is not None]
    accepted = [r for r in cited if r.outcome == "accept"]
    rejected = [r for r in cited if r.outcome == "reject"]

    # dataset summary
    emit("summary", ["metric", "value"],
         [[k, v] for k, v in summary_table(corpus, records).items()])

    # fraction of accepted / rejected papers per power-of-two citation bucket
    rows = []
    acc_buckets = [bucket_powers_of_two(r.citations) for r in accepted]
    rej_buckets = [bucket_powers_of_two(r.citations) for r in rejected]
    for b in sorted(set(acc_buckets) | set(rej_buckets)):
        rows.append([b,
                     acc_buckets.count(b) / len(acc_buckets) if acc_buckets else 0.0,
                     rej_buckets.count(b) / len(rej_buckets) if rej_buckets else 0.0])
    emit("citation_buckets", ["bucket", "fraction_accepted", "fraction_rejected"], rows)

    # average review rounds per citation bucket, split by outcome
    rows = []
    for label, group, buckets in (("accepted", accepted, acc_buckets),
                                  ("rejected", rejected, rej_buckets)):
        stats = bucket_mean([r.rounds for r in group], buckets)
        rows.extend([[label, s.bucket, s.count, s.mean] for s in stats])
    emit("reviews_by_citation_bucket", ["group", "bucket", "count", "mean_reviews"], rows)

    # average citation of the top-20-percentile papers per round count
    rows = []
    by_rounds: dict[int, list[int]] = {}
    for r in accepted:
        by_rounds.setdefault(r.rounds, []).append(r.citations)
    for rr, cites in sorted(by_rounds.items()):
        cites.sort(reverse=True)
        k = max(1, round(len(cites) * 0.2))
        rows.append([rr, len(cites), k, mean(cites[:k])])
    emit("top20_citation_by_rounds",
         ["rounds", "papers", "top20_count", "mean_citations"], rows)

    # mean citation per team size
    stats = bucket_mean([r.citations for r in accepted],
                        [r.team_size for r in accepted])
    emit("team_size_citation", ["team_size", "count", "mean_citations"],
         [[s.bucket, s.count, s.mean] for s in stats])

    # the supporting features drive the remaining bucketed analyses
    def bucketed(feature, width, name, label):
        vals, keys = [], []
        for r in accepted:
            v = r.feature(feature)
            if not math.isnan(v):
                vals.append(r.citations)
                keys.append(bucket_fixed_width(v, width))
        stats = bucket_mean(vals, keys)
        emit(name, [label, "count", "mean_citations"],
             [[s.bucket * width, s.count, s.mean] for s in stats])

    bucketed("RL", 100, "report_length_citation", "length_bucket_start")
    bucketed("AP", 100, "author_productivity_citation", "gap_bucket_start")
    bucketed("TA", 100, "time_since_assignment_citation", "days_bucket_start")
    bucketed("DR", 25, "report_delay_citation", "days_bucket_start")

    # acceptance-ratio / accept-ratio decile panels (citations, reviews, sentiment)
    for feature, name in (("AR", "author_acceptance_ratio_buckets"),
                          ("RAC", "reviewer_accept_ratio_buckets")):
        panels: dict[int, list[tuple[int, int, float]]] = {}
        for r in accepted:
            ratio = r.feature(feature)
            snt = r.feature("SNT")
            if math.isnan(ratio):
                continue
            panels.setdefault(bucket_ratio_decile(ratio), []).append(
                (r.citations, r.rounds, 0.0 if math.isnan(snt) else snt))
        rows = [[b / 10.0, len(g), *(mean(column) for column in zip(*g))]
                for b, g in sorted(panels.items())]
        emit(name, ["ratio_bucket_start", "count", "mean_citations",
                    "mean_reviews", "mean_sentiment"], rows)

    # sentiment vs citations, one point per paper, grouped by decision year
    rows = [[r.decision_year, r.paper_id, r.outcome,
             "" if math.isnan(r.feature("SNT")) else r.feature("SNT"), r.citations]
            for r in cited]
    rows.sort(key=lambda row: row[:2])
    emit("sentiment_by_year", ["year", "paper_id", "outcome", "sentiment", "citations"],
         rows)

    # centrality quartile contrasts on the full-history graph
    graph = build_graph(corpus)
    cites_by_reviewer: dict[str, list[int]] = {}
    for r in accepted:
        for rid in corpus.assigned_reviewers(r.paper_id):
            cites_by_reviewer.setdefault(rid, []).append(r.citations)
    rows = []
    if graph.n >= 4:
        table = centrality.compute_table(graph)
        for measure in centrality.MEASURES:
            metric = {node: float(getattr(table, measure)[i])
                      for i, node in enumerate(graph.nodes)}
            top, bottom = quartile_contrast(metric, cites_by_reviewer)
            rows.extend([[measure, "top25", v, f] for v, f in top])
            rows.extend([[measure, "bottom25", v, f] for v, f in bottom])
    emit("centrality_quartile_contrast", ["measure", "group", "citations", "cdf"], rows)

    # linguistic category contrast, high vs low cited
    contrast = lqi_contrast(records, corpus, lexicon, exposure_cutoff_year)
    emit("lqi_contrast", ["category", "high_cited_mean_pct", "low_cited_mean_pct"],
         [[c, hi, lo] for c, (hi, lo) in contrast.items()])

    # irregular cases
    high_rej, low_acc = irregular_cases(records, exposure_cutoff_year)
    case_header = ["paper_id", "outcome", "citations", "decision_year",
                   "author_acceptance_ratio", "reviewer_accept_ratio",
                   "first_round_report_length"]

    def case_rows(cases):
        return [[c.paper_id, c.outcome, c.citations, c.decision_year,
                 c.author_acceptance_ratio, c.reviewer_accept_ratio,
                 c.first_round_report_length] for c in cases]

    emit("irregular_high_cited_rejected", case_header, case_rows(high_rej))
    emit("irregular_low_cited_accepted", case_header, case_rows(low_acc))

    manifest_doc = {"exposure_cutoff_year": exposure_cutoff_year,
                    "analyses": manifest}
    write_lines(os.path.join(out_dir, "manifest.json"),
                [json.dumps(manifest_doc, indent=2, sort_keys=True)])
    return manifest_doc
