"""Peer-review event logs: parsing, validation, and as-of-date history profiles.

An event log is line-delimited JSON, one record per line.  Every record has a
``type`` (submission | assignment | report | decision | citation), a
``paper_id`` and an ISO date, plus kind-specific fields.  After validation the
log is wrapped in an immutable :class:`Corpus` that serves point-in-time
author and reviewer profiles; "point-in-time" always means *strictly before*
the requested date, which is what makes downstream features leakage-free.
"""

from __future__ import annotations

import datetime as dt
import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional, Union

TERMINAL_OUTCOMES = ("accept", "reject", "withdraw")
RECOMMENDATIONS = ("accept", "reject", "revise")


@dataclass(frozen=True)
class Submission:
    paper_id: str
    date: dt.date
    author_ids: tuple[str, ...]
    title: str


@dataclass(frozen=True)
class Assignment:
    paper_id: str
    date: dt.date
    editor_id: str
    reviewer_id: str
    round: int


@dataclass(frozen=True)
class Report:
    paper_id: str
    date: dt.date
    reviewer_id: str
    round: int
    text: str
    recommendation: str


@dataclass(frozen=True)
class Decision:
    paper_id: str
    date: dt.date
    outcome: str
    round: int


@dataclass(frozen=True)
class CitationRecord:
    paper_id: str
    date: dt.date
    cumulative_citations: int
    as_of_year: int


ReviewEvent = Union[Submission, Assignment, Report, Decision, CitationRecord]


def event_to_record(ev: ReviewEvent) -> dict:
    """Inverse of :func:`parse_events` for one event."""
    if isinstance(ev, Submission):
        return {"type": "submission", "paper_id": ev.paper_id,
                "date": ev.date.isoformat(), "author_ids": list(ev.author_ids),
                "title": ev.title}
    if isinstance(ev, Assignment):
        return {"type": "assignment", "paper_id": ev.paper_id,
                "date": ev.date.isoformat(), "editor_id": ev.editor_id,
                "reviewer_id": ev.reviewer_id, "round": ev.round}
    if isinstance(ev, Report):
        return {"type": "report", "paper_id": ev.paper_id,
                "date": ev.date.isoformat(), "reviewer_id": ev.reviewer_id,
                "round": ev.round, "text": ev.text,
                "recommendation": ev.recommendation}
    if isinstance(ev, Decision):
        return {"type": "decision", "paper_id": ev.paper_id,
                "date": ev.date.isoformat(), "outcome": ev.outcome,
                "round": ev.round}
    if isinstance(ev, CitationRecord):
        return {"type": "citation", "paper_id": ev.paper_id,
                "date": ev.date.isoformat(),
                "cumulative_citations": ev.cumulative_citations,
                "as_of_year": ev.as_of_year}
    raise TypeError(f"not a review event: {ev!r}")


def write_events(events: Iterable[ReviewEvent], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps(event_to_record(ev), sort_keys=True) + "\n")


@dataclass(frozen=True)
class LogError:
    """One diagnostic tied to a 1-based line / event position."""

    line: int
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"line {self.line}: {self.message}"


class CorpusError(ValueError):
    """Raised when an event list fails validation."""

    def __init__(self, errors: list[LogError]):
        self.errors = errors
        preview = "; ".join(str(e) for e in errors[:5])
        more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
        super().__init__(f"{len(errors)} validation error(s): {preview}{more}")


def _parse_date(raw: object) -> dt.date:
    if not isinstance(raw, str):
        raise ValueError(f"date must be an ISO string, got {raw!r}")
    return dt.date.fromisoformat(raw)


def _require(record: dict, key: str) -> object:
    if key not in record:
        raise ValueError(f"missing field {key!r}")
    return record[key]


def _require_str(record: dict, key: str) -> str:
    raw = _require(record, key)
    if type(raw) is not str:
        raise ValueError(f"{key} must be a string, got {raw!r}")
    return raw


def _require_int(record: dict, key: str, least: Optional[int], kind: str) -> int:
    """An integral JSON number (``2.0`` reads as 2), never a bool, and at
    least ``least`` when that is given; ``kind`` names the rule in errors."""
    raw = _require(record, key)
    if type(raw) is float and raw.is_integer():
        raw = int(raw)
    if type(raw) is not int or (least is not None and raw < least):
        raise ValueError(f"{key} must be {kind}, got {raw!r}")
    return raw


def _parse_round(record: dict) -> int:
    return _require_int(record, "round", 1, "a positive integer")


def _parse_record(record: dict) -> ReviewEvent:
    kind = _require(record, "type")
    paper_id = _require_str(record, "paper_id")
    date = _parse_date(_require(record, "date"))
    if kind == "submission":
        authors = _require(record, "author_ids")
        if (type(authors) is not list or not authors
                or not all(type(a) is str for a in authors)):
            raise ValueError(f"author_ids must be a non-empty list of strings, "
                             f"got {authors!r}")
        return Submission(paper_id, date, tuple(authors), str(record.get("title", "")))
    if kind == "assignment":
        rnd = _parse_round(record)
        return Assignment(paper_id, date, _require_str(record, "editor_id"),
                          _require_str(record, "reviewer_id"), rnd)
    if kind == "report":
        rnd = _parse_round(record)
        rec = _require_str(record, "recommendation")
        if rec not in RECOMMENDATIONS:
            raise ValueError(f"unknown recommendation {rec!r}")
        return Report(paper_id, date, _require_str(record, "reviewer_id"),
                      rnd, _require_str(record, "text"), rec)
    if kind == "decision":
        outcome = _require_str(record, "outcome")
        if outcome not in TERMINAL_OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}")
        rnd = _parse_round(record)
        return Decision(paper_id, date, outcome, rnd)
    if kind == "citation":
        cites = _require_int(record, "cumulative_citations", 0, "a non-negative integer")
        year = _require_int(record, "as_of_year", None, "an integer")
        return CitationRecord(paper_id, date, cites, year)
    raise ValueError(f"unknown event type {kind!r}")


def parse_events(lines: Iterable[str]) -> tuple[list[ReviewEvent], list[LogError]]:
    """Parse line-delimited records, keeping file order.

    Returns the well-formed events plus per-line diagnostics for every
    ill-formed line; parsing never raises on bad input lines.
    """
    events: list[ReviewEvent] = []
    errors: list[LogError] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record must be a JSON object")
            events.append(_parse_record(record))
        except (ValueError, TypeError) as exc:
            errors.append(LogError(lineno, str(exc)))
    return events, errors


def validate_events(events: list[ReviewEvent]) -> list[LogError]:
    """Check the cross-event invariants of a parsed log.

    Besides identity and round rules, no assignment, report or decision may
    predate its paper's submission, and no assignment or report may postdate
    the paper's terminal decision.  Positions in the returned diagnostics are
    1-based indexes into ``events``.
    """
    errors: list[LogError] = []
    submission: dict[str, Submission] = {}
    decided: dict[str, Decision] = {}
    rounds: dict[str, set[int]] = {}
    reviewing: list[tuple[int, Union[Assignment, Report]]] = []

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

    # the decision may come later in the file than the events it closes
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


@dataclass(frozen=True)
class AuthorProfile:
    """Author history strictly before an as-of date."""

    author_id: str
    accept_count: int
    reject_count: int
    submission_dates: tuple[dt.date, ...]
    mean_inter_submission_gap: Optional[float]  # days, needs >= 2 submissions

    @property
    def acceptance_ratio(self) -> Optional[float]:
        decided = self.accept_count + self.reject_count
        if decided == 0:
            return None
        return self.accept_count / decided


@dataclass(frozen=True)
class ReviewerProfile:
    """Reviewer history strictly before an as-of date."""

    reviewer_id: str
    accept_count: int
    reject_count: int
    last_assignment_date: Optional[dt.date]

    @property
    def accept_ratio(self) -> Optional[float]:
        decided = self.accept_count + self.reject_count
        if decided == 0:
            return None
        return self.accept_count / decided


@dataclass(frozen=True)
class _History:
    """One person's dated history, sorted once for as-of queries.

    ``dates`` are the person's own event dates (an author's submissions, a
    reviewer's assignments), ascending.  ``decision_dates`` are the accept
    and reject decisions of their papers, ascending, and ``accepts[i]``
    counts the accepts among the first ``i`` of them.  ``bisect_left`` at an
    as-of date counts exactly the entries strictly before it.
    """

    dates: tuple[dt.date, ...]
    decision_dates: tuple[dt.date, ...]
    accepts: tuple[int, ...]

    @classmethod
    def index(cls, dates: Iterable[dt.date], paper_ids: Iterable[str],
              decisions: dict[str, Decision]) -> "_History":
        """``paper_ids`` may repeat a paper, which then counts again."""
        decided = sorted((dec.date, dec.outcome == "accept")
                         for dec in map(decisions.get, paper_ids)
                         if dec is not None and dec.outcome in ("accept", "reject"))
        return cls(tuple(sorted(dates)), tuple(d for d, _ in decided),
                   tuple(accumulate((a for _, a in decided), initial=0)))

    def decided_before(self, as_of: dt.date) -> tuple[int, int]:
        """(accept, reject) counts of decisions dated strictly before ``as_of``."""
        k = bisect_left(self.decision_dates, as_of)
        return self.accepts[k], k - self.accepts[k]


_NO_HISTORY = _History((), (), (0,))


class Corpus:
    """Validated, indexed event log.  Immutable after construction.

    Withdrawn papers are excluded from every accept/reject ratio, both
    numerator and denominator.  Undefined ratios (no decided papers) stay
    ``None``; imputation is a modeling concern, not a corpus one.

    Each author's and reviewer's history is indexed once, here, so a profile
    query is a few binary searches rather than a rescan of the history.  An
    author listed twice on a paper counts it twice; a reviewer counts each
    reported paper once, however many rounds they reported on it.

    ``pairs`` lists each distinct (editor, reviewer) assignment pair once,
    ordered by the date it was first assigned (``pair_dates``), then by ids.
    """

    def __init__(self, events: list[ReviewEvent]):
        errors = validate_events(events)
        if errors:
            raise CorpusError(errors)
        self.events: tuple[ReviewEvent, ...] = tuple(events)

        self.submissions: dict[str, Submission] = {}
        self.assignments: dict[str, list[Assignment]] = {}
        self.reports: dict[str, list[Report]] = {}
        self.decisions: dict[str, Decision] = {}
        self.citation_records: dict[str, CitationRecord] = {}
        papers_by_author: dict[str, list[str]] = {}
        assigned_by_reviewer: dict[str, list[dt.date]] = {}
        reported_by_reviewer: dict[str, set[str]] = {}
        first_paired: dict[tuple[str, str], dt.date] = {}

        for ev in events:
            if isinstance(ev, Submission):
                self.submissions[ev.paper_id] = ev
                for author in ev.author_ids:
                    papers_by_author.setdefault(author, []).append(ev.paper_id)
            elif isinstance(ev, Assignment):
                self.assignments.setdefault(ev.paper_id, []).append(ev)
                assigned_by_reviewer.setdefault(ev.reviewer_id, []).append(ev.date)
                pair = (ev.editor_id, ev.reviewer_id)
                first = first_paired.get(pair)
                if first is None or ev.date < first:
                    first_paired[pair] = ev.date
            elif isinstance(ev, Report):
                self.reports.setdefault(ev.paper_id, []).append(ev)
                reported_by_reviewer.setdefault(ev.reviewer_id, set()).add(ev.paper_id)
            elif isinstance(ev, Decision):
                self.decisions[ev.paper_id] = ev
            elif isinstance(ev, CitationRecord):
                current = self.citation_records.get(ev.paper_id)
                if current is None or ev.date >= current.date:
                    self.citation_records[ev.paper_id] = ev

        # the pairs first assigned before a cutoff are a prefix of this order
        paired = sorted((date, editor, reviewer)
                        for (editor, reviewer), date in first_paired.items())
        self.pair_dates: tuple[dt.date, ...] = tuple(d for d, _, _ in paired)
        self.pairs: tuple[tuple[str, str], ...] = tuple((e, r) for _, e, r in paired)

        # decisions may come after the events they close, so index last
        self._author_history = {
            author: _History.index([self.submissions[p].date for p in pids],
                                   pids, self.decisions)
            for author, pids in papers_by_author.items()}
        self._reviewer_history = {
            rid: _History.index(assigned_by_reviewer.get(rid, []),
                                reported_by_reviewer.get(rid, ()), self.decisions)
            for rid in assigned_by_reviewer.keys() | reported_by_reviewer.keys()}

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Corpus":
        events, errors = parse_events(lines)
        if errors:
            raise CorpusError(errors)
        return cls(events)

    @classmethod
    def from_file(cls, path) -> "Corpus":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_lines(fh)

    # -- paper-level lookups ------------------------------------------------

    def paper_ids(self) -> list[str]:
        """All submitted papers, ordered by submission date then id."""
        return sorted(self.submissions, key=lambda p: (self.submissions[p].date, p))

    def submission_date(self, paper_id: str) -> dt.date:
        return self.submissions[paper_id].date

    def outcome(self, paper_id: str) -> Optional[str]:
        dec = self.decisions.get(paper_id)
        return dec.outcome if dec is not None else None

    def publication_year(self, paper_id: str) -> Optional[int]:
        dec = self.decisions.get(paper_id)
        return dec.date.year if dec is not None else None

    def citations(self, paper_id: str) -> Optional[int]:
        rec = self.citation_records.get(paper_id)
        return rec.cumulative_citations if rec is not None else None

    def assigned_reviewers(self, paper_id: str) -> list[str]:
        """Distinct reviewers ever assigned to a paper, in assignment order."""
        seen: list[str] = []
        for a in self.assignments.get(paper_id, []):
            if a.reviewer_id not in seen:
                seen.append(a.reviewer_id)
        return seen

    # -- as-of-date profiles ------------------------------------------------

    def author_profile(self, author_id: str, as_of: dt.date) -> AuthorProfile:
        hist = self._author_history.get(author_id, _NO_HISTORY)
        accept, reject = hist.decided_before(as_of)
        sub_dates = hist.dates[:bisect_left(hist.dates, as_of)]
        gap: Optional[float] = None
        if len(sub_dates) >= 2:
            total = (sub_dates[-1] - sub_dates[0]).days
            gap = total / (len(sub_dates) - 1)
        return AuthorProfile(author_id, accept, reject, sub_dates, gap)

    def reviewer_profile(self, reviewer_id: str, as_of: dt.date) -> ReviewerProfile:
        hist = self._reviewer_history.get(reviewer_id, _NO_HISTORY)
        accept, reject = hist.decided_before(as_of)
        k = bisect_left(hist.dates, as_of)
        last = hist.dates[k - 1] if k else None
        return ReviewerProfile(reviewer_id, accept, reject, last)
