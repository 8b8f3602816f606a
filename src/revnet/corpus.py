"""Peer-review event logs: parsing, validation, and as-of-date history profiles.

An event log is line-delimited JSON, one record per line.  Every record has a
``type`` (submission | assignment | report | decision | citation), a
``paper_id`` and an ISO date, plus kind-specific fields.  A paper id keys the
rows of the CSV outputs, so it holds no comma or line break and no surrounding
space.  After validation the log is wrapped in an immutable :class:`Corpus`
that serves point-in-time author and reviewer profiles; "point-in-time"
always means *strictly before* the requested date, which is what makes
downstream features leakage-free.
"""

from __future__ import annotations

import datetime as dt
import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterable, NamedTuple, Optional, Union

from .outputs import write_lines

TERMINAL_OUTCOMES = ("accept", "reject", "withdraw")
RECOMMENDATIONS = ("accept", "reject", "revise")


# Events are named tuples: immutable, one ``tuple.__new__`` per event and no
# per-instance ``__dict__``.  An event equals a plain tuple of the same
# values; events of two kinds never compare equal, as their field types differ.
class Submission(NamedTuple):
    paper_id: str
    date: dt.date
    author_ids: tuple[str, ...]
    title: str


class Assignment(NamedTuple):
    paper_id: str
    date: dt.date
    editor_id: str
    reviewer_id: str
    round: int


class Report(NamedTuple):
    paper_id: str
    date: dt.date
    reviewer_id: str
    round: int
    text: str
    recommendation: str


class Decision(NamedTuple):
    paper_id: str
    date: dt.date
    outcome: str
    round: int


class CitationRecord(NamedTuple):
    paper_id: str
    date: dt.date
    cumulative_citations: int
    as_of_year: int


ReviewEvent = Union[Submission, Assignment, Report, Decision, CitationRecord]


_TYPE_NAMES = {Submission: "submission", Assignment: "assignment", Report: "report",
               Decision: "decision", CitationRecord: "citation"}


def event_to_record(ev: ReviewEvent) -> dict:
    """Inverse of :func:`parse_events` for one event: its fields, the date as
    ``YYYY-MM-DD``, and its ``type``.  ``json.dumps`` writes a tuple as a list."""
    kind = _TYPE_NAMES.get(type(ev))
    if kind is None:
        raise TypeError(f"not a review event: {ev!r}")
    return {**ev._asdict(), "type": kind, "date": ev.date.isoformat()}


# the bytes of json.dumps(record, sort_keys=True), without a new encoder per call
_ENCODE = json.JSONEncoder(sort_keys=True).encode


def write_events(events: Iterable[ReviewEvent], path) -> None:
    write_lines(path, (_ENCODE(event_to_record(ev)) + "\n" for ev in events))


@dataclass(frozen=True)
class LogError:
    """One diagnostic tied to a 1-based line / event position."""

    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


class CorpusError(ValueError):
    """Raised when an event list fails validation."""

    def __init__(self, errors: list[LogError]):
        self.errors = errors
        preview = "; ".join(str(e) for e in errors[:5])
        more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
        super().__init__(f"{len(errors)} validation error(s): {preview}{more}")


def _date(raw: object) -> dt.date:
    """Exactly ``YYYY-MM-DD``: Python 3.10's rule and message, which 3.11's
    ``fromisoformat`` relaxed to compact and week dates."""
    if type(raw) is not str:
        raise ValueError(f"date must be an ISO string, got {raw!r}")
    if len(raw) != 10 or raw[4] != "-" or raw[7] != "-":
        raise ValueError(f"Invalid isoformat string: {raw!r}")
    return dt.date.fromisoformat(raw)


def _string(record: dict, key: str) -> str:
    raw = record[key]
    if type(raw) is not str:
        raise ValueError(f"{key} must be a string, got {raw!r}")
    return raw


# the integers every JSON reader holds exactly (RFC 8259, section 6)
MAX_INTEGER = 2**53 - 1


def _integer(record: dict, key: str, least: Optional[int], kind: str) -> int:
    """An integral JSON number (``2.0`` reads as 2), never a bool, at least
    ``least`` when that is given, and within +/-``MAX_INTEGER``; ``kind``
    names the rule in errors."""
    raw = record[key]
    if type(raw) is float and raw.is_integer():
        raw = int(raw)
    if type(raw) is not int or (least is not None and raw < least):
        raise ValueError(f"{key} must be {kind}, got {raw!r}")
    if not -MAX_INTEGER <= raw <= MAX_INTEGER:
        raise ValueError(f"{key} must be at most 2**53 - 1 in magnitude, got {raw!r}")
    return raw


# One builder per record kind; a missing field raises KeyError.
def _submission(record: dict, paper_id: str, date: dt.date) -> Submission:
    authors = record["author_ids"]
    if (type(authors) is not list or not authors
            or not all(type(a) is str for a in authors)):
        raise ValueError(f"author_ids must be a non-empty list of strings, "
                         f"got {authors!r}")
    title = record.get("title", "")
    if type(title) is not str:
        raise ValueError(f"title must be a string, got {title!r}")
    return Submission(paper_id, date, tuple(authors), title)


def _assignment(record: dict, paper_id: str, date: dt.date) -> Assignment:
    rnd = _integer(record, "round", 1, "a positive integer")
    return Assignment(paper_id, date, _string(record, "editor_id"),
                      _string(record, "reviewer_id"), rnd)


def _report(record: dict, paper_id: str, date: dt.date) -> Report:
    rnd = _integer(record, "round", 1, "a positive integer")
    rec = _string(record, "recommendation")
    if rec not in RECOMMENDATIONS:
        raise ValueError(f"unknown recommendation {rec!r}")
    return Report(paper_id, date, _string(record, "reviewer_id"), rnd,
                  _string(record, "text"), rec)


def _decision(record: dict, paper_id: str, date: dt.date) -> Decision:
    outcome = _string(record, "outcome")
    if outcome not in TERMINAL_OUTCOMES:
        raise ValueError(f"unknown outcome {outcome!r}")
    rnd = _integer(record, "round", 1, "a positive integer")
    return Decision(paper_id, date, outcome, rnd)


def _citation(record: dict, paper_id: str, date: dt.date) -> CitationRecord:
    cites = _integer(record, "cumulative_citations", 0, "a non-negative integer")
    return CitationRecord(paper_id, date, cites,
                          _integer(record, "as_of_year", None, "an integer"))


_BUILDERS = {"submission": _submission, "assignment": _assignment,
             "report": _report, "decision": _decision, "citation": _citation}
_raw_decode = json.JSONDecoder().raw_decode


def parse_events(lines: Iterable[str]) -> tuple[list[ReviewEvent], list[LogError]]:
    """Parse line-delimited records, keeping file order.

    Returns the well-formed events plus per-line diagnostics for every
    ill-formed line, one not encodable as UTF-8 included; parsing never
    raises on bad input lines.  Each distinct date string is checked and
    built once, and its events share the one ``dt.date``.
    """
    events: list[ReviewEvent] = []
    errors: list[LogError] = []
    dates: dict[str, dt.date] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            if not line.isascii():
                line.encode("utf-8")  # fails on a byte read_log could not decode
            try:  # json.loads checks the same, slower, and words the diagnostic
                record, end = _raw_decode(line)
            except ValueError:
                end = -1
            if end != len(line):
                record = json.loads(line)
            if type(record) is not dict:
                raise ValueError("record must be a JSON object")
            kind = record["type"]
            paper_id = _string(record, "paper_id")
            if ("," in paper_id or "\n" in paper_id or "\r" in paper_id
                    or paper_id != paper_id.strip()):
                raise ValueError(f"paper_id must hold no comma or line break and "
                                 f"no surrounding space, got {paper_id!r}")
            raw = record["date"]
            # a value that is not a string (it may be unhashable) goes
            # straight to _date, which words its diagnostic
            date = dates.get(raw) if type(raw) is str else None
            if date is None:
                date = dates[raw] = _date(raw)
            build = _BUILDERS.get(kind) if type(kind) is str else None
            if build is None:
                raise ValueError(f"unknown event type {kind!r}")
            events.append(build(record, paper_id, date))
        except UnicodeEncodeError:
            errors.append(LogError(lineno, "not valid UTF-8"))
        except KeyError as exc:
            errors.append(LogError(lineno, f"missing field {exc.args[0]!r}"))
        except (ValueError, TypeError) as exc:
            errors.append(LogError(lineno, str(exc)))
    return events, errors


def read_log(path) -> tuple[list[ReviewEvent], list[LogError]]:
    """:func:`parse_events` over a log file.  A byte that is not UTF-8 is
    read as a lone surrogate, which ``parse_events`` reports by line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_events(fh)


def _walk(events: list[ReviewEvent]):
    """One pass over the events: the diagnostics of :func:`validate_events`
    and, for a valid log, the maps :class:`Corpus` keeps by paper (the
    submission, assignments, reports, decision and latest citation record).
    """
    errors: list[LogError] = []
    submissions: dict[str, Submission] = {}
    assignments: dict[str, list[Assignment]] = {}
    reports: dict[str, list[Report]] = {}
    decisions: dict[str, Decision] = {}
    cited: dict[tuple[str, dt.date], CitationRecord] = {}
    rounds: dict[str, set[int]] = {}
    reviewing: list[int] = []  # positions of assignments and reports

    for pos, ev in enumerate(events, start=1):
        pid = ev.paper_id
        if isinstance(ev, Submission):
            if pid in submissions:
                errors.append(LogError(pos, f"duplicate submission for paper {pid}"))
            else:
                submissions[pid] = ev
            continue
        sub = submissions.get(pid)
        if sub is None:
            errors.append(LogError(
                pos, f"{type(ev).__name__.lower()} for paper {pid} without prior submission"))
            continue
        if isinstance(ev, CitationRecord):
            if pid not in decisions:
                errors.append(LogError(
                    pos, f"citation record for paper {pid} before any terminal decision"))
            elif cited.setdefault((pid, ev.date), ev) != ev:
                errors.append(LogError(
                    pos, f"conflicting citation records for paper {pid} dated {ev.date}"))
            continue
        rounds.setdefault(pid, set()).add(ev.round)
        if ev.date < sub.date:
            errors.append(LogError(
                pos, f"{type(ev).__name__.lower()} for paper {pid} dated {ev.date} "
                     f"before its submission on {sub.date}"))
        if isinstance(ev, Decision):
            if pid in decisions:
                errors.append(LogError(pos, f"duplicate terminal decision for paper {pid}"))
            else:
                decisions[pid] = ev
        else:
            reviewing.append(pos)
            if isinstance(ev, Assignment):
                assignments.setdefault(pid, []).append(ev)
            else:
                reports.setdefault(pid, []).append(ev)

    # the decision may come later in the file than the events it closes
    for pos in reviewing:
        ev = events[pos - 1]
        dec = decisions.get(ev.paper_id)
        if dec is not None and ev.date > dec.date:
            errors.append(LogError(
                pos, f"{type(ev).__name__.lower()} for paper {ev.paper_id} dated "
                     f"{ev.date} after its terminal decision on {dec.date}"))

    # distinct rounds, each at least 1, are 1..n exactly when the largest is n
    for pid, seen in sorted(rounds.items()):
        if max(seen) != len(seen):
            errors.append(LogError(
                0, f"paper {pid}: rounds {sorted(seen)} are not contiguous from 1"))
    # each paper's latest citation record: the last of its (paper, date) keys
    citations = {pid: ev for (pid, _), ev in sorted(cited.items())}
    return errors, submissions, assignments, reports, decisions, citations


def validate_events(events: list[ReviewEvent]) -> list[LogError]:
    """Check the cross-event invariants of a parsed log.

    Besides identity and round rules, no assignment, report or decision may
    predate its paper's submission, no assignment or report may postdate
    the paper's terminal decision, and two citation records of one paper with
    the same date must be equal, so that the one kept does not depend on line
    order.  Positions in the returned diagnostics are 1-based indexes into
    ``events``.
    """
    return _walk(events)[0]


@dataclass(frozen=True)
class AuthorProfile:
    """Author history strictly before an as-of date."""

    author_id: str
    accept_count: int
    reject_count: int
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
        (errors, self.submissions, self.assignments, self.reports,
         self.decisions, self.citation_records) = _walk(events)
        if errors:
            raise CorpusError(errors)
        self.events: tuple[ReviewEvent, ...] = tuple(events)

        papers_by_author: dict[str, list[str]] = {}
        for pid, sub in self.submissions.items():
            for author in sub.author_ids:
                papers_by_author.setdefault(author, []).append(pid)
        assigned_by_reviewer: dict[str, list[dt.date]] = {}
        first_paired: dict[tuple[str, str], dt.date] = {}
        for a in chain.from_iterable(self.assignments.values()):
            assigned_by_reviewer.setdefault(a.reviewer_id, []).append(a.date)
            pair = (a.editor_id, a.reviewer_id)
            if a.date < first_paired.get(pair, dt.date.max):
                first_paired[pair] = a.date
        reported_by_reviewer: dict[str, set[str]] = {}
        for r in chain.from_iterable(self.reports.values()):
            reported_by_reviewer.setdefault(r.reviewer_id, set()).add(r.paper_id)

        # the pairs first assigned before a cutoff are a prefix of this order
        paired = sorted((date, editor, reviewer)
                        for (editor, reviewer), date in first_paired.items())
        self.pair_dates: tuple[dt.date, ...] = tuple(d for d, _, _ in paired)
        self.pairs: tuple[tuple[str, str], ...] = tuple((e, r) for _, e, r in paired)

        self._author_history = {
            author: _History.index([self.submissions[p].date for p in pids],
                                   pids, self.decisions)
            for author, pids in papers_by_author.items()}
        self._reviewer_history = {
            rid: _History.index(assigned_by_reviewer.get(rid, []),
                                reported_by_reviewer.get(rid, ()), self.decisions)
            for rid in assigned_by_reviewer.keys() | reported_by_reviewer.keys()}

    @classmethod
    def from_file(cls, path) -> "Corpus":
        events, errors = read_log(path)
        if errors:
            raise CorpusError(errors)
        return cls(events)

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
        k = bisect_left(hist.dates, as_of)
        gap: Optional[float] = None
        if k >= 2:
            gap = (hist.dates[k - 1] - hist.dates[0]).days / (k - 1)
        return AuthorProfile(author_id, accept, reject, gap)

    def reviewer_profile(self, reviewer_id: str, as_of: dt.date) -> ReviewerProfile:
        hist = self._reviewer_history.get(reviewer_id, _NO_HISTORY)
        accept, reject = hist.decided_before(as_of)
        k = bisect_left(hist.dates, as_of)
        last = hist.dates[k - 1] if k else None
        return ReviewerProfile(reviewer_id, accept, reject, last)
