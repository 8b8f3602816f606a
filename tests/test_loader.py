"""The event-log loader against its reference forms.

``parse_events`` and ``validate_events`` must give the same events and the
same ``(line, message)`` diagnostics as the ``json.loads`` and two-walk forms
in ``helpers``, and ``Corpus`` must hold what the two-walk reference builds.
"""

import datetime as dt
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revnet.corpus import (Assignment, CitationRecord, Corpus, CorpusError,
                           Decision, Report, Submission, parse_events,
                           read_log, validate_events, write_events)
from revnet.synth import SynthConfig, generate

from helpers import (SAMPLE, benchmark_configs, corpus_state, minimal_paper,
                     reference_corpus_state, reference_parse_events,
                     reference_validate_events)


def typed(events):
    """Events with each field's type beside its value, so that ``2.0`` and
    ``2`` or ``True`` and ``1`` do not compare equal."""
    return [(type(ev), [(type(v), v) for v in tuple(ev)])
            for ev in events]


def assert_parses_like_reference(lines):
    events, errors = parse_events(lines)
    ref_events, ref_errors = reference_parse_events(lines)
    assert typed(events) == typed(ref_events)
    assert [(e.line, e.message) for e in errors] == \
        [(e.line, e.message) for e in ref_errors]


# -- parsing -----------------------------------------------------------------


FIELDS = sorted({key for record in SAMPLE for key in record} | {"title"})
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(2000, 2020),
    st.sampled_from([1.0, 2.0, 0.0, -1.0, 2013.0, 2.5, 1e300]),
    st.sampled_from(["", "1", "17", "x", "a1", "accept", "revise", "withdraw",
                     "submission", "citation", "2010-01-05", "20100105",
                     "2010-W01-1", "2010-13-45", "2010-1-5", "2010-01-05T00",
                     "p,1", " p1", "p1\n", "p\r1"]),
    st.lists(st.sampled_from(["a1", 1, None]), max_size=2))


@st.composite
def records(draw):
    """A SAMPLE record with fields dropped or set to wrongly typed values."""
    record = dict(draw(st.sampled_from(SAMPLE)))
    for key in draw(st.lists(st.sampled_from(FIELDS), max_size=3)):
        if draw(st.booleans()):
            record.pop(key, None)
        else:
            record[key] = draw(ODD_VALUES)
    return json.dumps(record)


@st.composite
def log_lines(draw):
    """One or two lines: a record, non-object JSON, a record with trailing
    garbage, blank space, two records on one line, or one record split over
    two lines."""
    kind = draw(st.sampled_from(["record", "scalar", "garbage", "blank",
                                 "two", "halves"]))
    if kind == "record":
        return [draw(records())]
    if kind == "scalar":
        return [draw(st.sampled_from(["[1, 2]", "42", '"s"', "null", "true",
                                      "[]", "{}", "1.5"]))]
    if kind == "garbage":
        return [draw(records()) + draw(st.sampled_from(
            [" x", "}", ",", " {}", " 1", "]", "  \t y", "\x0b"]))]
    if kind == "blank":
        return [draw(st.sampled_from(["", " ", "\t", " \t \x0c"]))]
    if kind == "two":
        return [draw(records()) + draw(st.sampled_from(["", " "])) + draw(records())]
    text = draw(records())
    cut = draw(st.integers(1, len(text) - 1))
    return [text[:cut], text[cut:]]


@given(st.lists(log_lines(), max_size=8).map(lambda parts: sum(parts, [])))
@settings(max_examples=400, deadline=None)
@example([json.dumps(r) for r in SAMPLE])
@example(['{"a": 1}  x', "\ufeff" + json.dumps(SAMPLE[0]), "[1, 2] ]"])
@example([json.dumps(dict(SAMPLE[0], paper_id=pid)) for pid in ("p,1", " p1", "p1\n")])
def test_parse_events_matches_the_reference(lines):
    assert_parses_like_reference(lines)


def test_first_diagnostic_follows_the_reference_field_order():
    # every pair of fields of every record kind broken at once, by a wrong
    # type or by leaving both out: the first field checked names the line
    lines = []
    for record in SAMPLE:
        for a, b in itertools.combinations(sorted(record), 2):
            lines.append(json.dumps(dict(record, **{a: None, b: None})))
            lines.append(json.dumps({k: v for k, v in record.items() if k not in (a, b)}))
    assert_parses_like_reference(lines)


@pytest.mark.parametrize("date", ["20100105", "2010-W01-1", "2010W011", "2010-W01"])
def test_dates_other_than_year_month_day_are_rejected(date):
    lines = [json.dumps(dict(SAMPLE[0], date=date))]
    events, errors = parse_events(lines)
    assert events == []
    assert [(e.line, e.message) for e in errors] == \
        [(1, f"Invalid isoformat string: {date!r}")]
    assert_parses_like_reference(lines)


def test_lone_surrogate_characters_are_not_utf8():
    escaped = json.dumps(dict(SAMPLE[2], text="good \ud800 work"))
    assert escaped.isascii()  # the JSON escape is read, as before
    raw = escaped.replace("\\ud800", "\ud800")
    undecodable = escaped.replace("good", "go\udcffd")  # byte 0xff, read by read_log
    events, errors = parse_events([escaped, raw, undecodable])
    assert [e.text for e in events] == ["good \ud800 work"]
    assert [(e.line, e.message) for e in errors] == \
        [(2, "not valid UTF-8"), (3, "not valid UTF-8")]
    assert_parses_like_reference([escaped, raw, undecodable])


def test_read_log_names_the_line_of_an_undecodable_byte(tmp_path):
    lines = [json.dumps(r).encode() for r in SAMPLE]
    lines[3] = lines[3].replace(b"accept", b"acc\xffept")
    path = tmp_path / "log.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    events, errors = read_log(path)
    assert len(events) == 4
    assert [(e.line, e.message) for e in errors] == [(4, "not valid UTF-8")]


# -- validation --------------------------------------------------------------


@st.composite
def faulty_logs(draw):
    """Events of a few papers with duplicated events, dropped submissions,
    moved dates, changed rounds and recounted citation records, shuffled or
    in paper order."""
    events = []
    for k in range(draw(st.integers(1, 4))):
        outcome = draw(st.sampled_from(["accept", "reject", "withdraw"]))
        events += minimal_paper(
            f"p{k}", dt.date(2010, 1, 1) + dt.timedelta(days=draw(st.integers(0, 60))),
            authors=draw(st.sampled_from([("a1",), ("a1", "a2"), ("a2", "a2")])),
            reviewer=draw(st.sampled_from(["r1", "r2"])), outcome=outcome,
            citations=draw(st.none() | st.integers(0, 9)))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(events) - 1))
        fault = draw(st.sampled_from(["duplicate", "orphan", "date", "round", "recount"]))
        ev = events[i]
        if fault == "duplicate":
            events.append(ev)
        elif fault == "orphan" and isinstance(ev, Submission):
            del events[i]
        elif fault == "date":
            shift = dt.timedelta(days=draw(st.integers(-90, 90)))
            events[i] = ev._replace(date=ev.date + shift)
        elif fault == "round" and not isinstance(ev, (Submission, CitationRecord)):
            events[i] = ev._replace(round=draw(st.integers(1, 3)))
        elif fault == "recount" and isinstance(ev, CitationRecord):
            events.append(ev._replace(cumulative_citations=draw(st.integers(0, 9))))
    if draw(st.booleans()):
        draw(st.randoms(use_true_random=False)).shuffle(events)
    return events


@given(faulty_logs())
@settings(max_examples=300, deadline=None)
def test_validate_events_matches_the_reference(events):
    errors = validate_events(events)
    assert [(e.line, e.message) for e in errors] == \
        [(e.line, e.message) for e in reference_validate_events(events)]
    if errors:
        with pytest.raises(CorpusError) as exc:
            Corpus(events)
        assert exc.value.errors == errors
    else:
        assert corpus_state(Corpus(events)) == reference_corpus_state(events)


def test_validate_events_matches_the_reference_on_every_fault_at_once():
    p1 = minimal_paper("p1", dt.date(2010, 1, 1), citations=3)
    p2 = minimal_paper("p2", dt.date(2010, 2, 1))
    events = [
        Report("p9", dt.date(2010, 1, 1), "r1", 1, "x", "accept"),  # orphan
        p1[0], p1[1]._replace(date=dt.date(2009, 12, 1)),  # early
        Assignment("p1", dt.date(2010, 6, 1), "e1", "r1", 1),  # after decision
        *p1[2:], p1[0], p1[3],  # duplicate submission and decision
        p2[0], CitationRecord("p2", dt.date(2011, 1, 1), 1, 2011),  # undecided
        p2[1]._replace(round=3), *p2[2:],  # rounds 1 and 3
        p1[4]._replace(cumulative_citations=4),  # same date, another count
    ]
    errors = validate_events(events)
    for fragment in ("without prior submission", "before its submission",
                     "duplicate submission", "duplicate terminal decision",
                     "before any terminal decision", "after its terminal decision",
                     "not contiguous", "conflicting citation records"):
        assert sum(fragment in e.message for e in errors) == 1, fragment
    assert errors == reference_validate_events(events)
    for order in range(5):
        random.Random(order).shuffle(events)
        assert validate_events(events) == reference_validate_events(events)


# -- the whole corpus --------------------------------------------------------


@pytest.mark.parametrize("workload, config", sorted(benchmark_configs().items()))
def test_corpus_state_matches_the_two_walk_reference(tmp_path, workload, config):
    small = dict(config, papers_per_year=min(config["papers_per_year"], 60), n_years=3)
    events = generate(SynthConfig(seed=5, **small))
    path = tmp_path / "log.jsonl"
    write_events(events, path)
    ref_events, ref_errors = reference_parse_events(
        path.read_text(encoding="utf-8").splitlines())
    assert ref_errors == [] and ref_events == events
    expected = reference_corpus_state(events)
    assert expected["pairs"] and expected["_reviewer_history"]
    assert corpus_state(Corpus.from_file(path)) == expected
    assert corpus_state(Corpus(events)) == expected
