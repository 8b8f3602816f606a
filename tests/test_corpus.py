import datetime as dt
import json
import tracemalloc
from typing import get_type_hints

import pytest

from revnet.corpus import (Assignment, CitationRecord, Corpus, CorpusError,
                           Decision, Report, Submission, event_to_record,
                           parse_events, validate_events, write_events)

from helpers import (BAD_PAPER_IDS, SAMPLE, WRONGLY_TYPED, minimal_paper,
                     reference_author_profile, reference_reviewer_profile)

D = dt.date


def lines_of(records):
    return [json.dumps(r) for r in records]


def test_parse_well_formed_log():
    events, errors = parse_events(lines_of(SAMPLE))
    assert errors == []
    assert [type(e).__name__ for e in events] == [
        "Submission", "Assignment", "Report", "Decision", "CitationRecord"]
    assert events[0].author_ids == ("a1", "a2")
    assert events[4].cumulative_citations == 17


def test_parse_skips_blank_lines_and_keeps_line_numbers():
    lines = ["", lines_of(SAMPLE)[0], "  ", "not json", lines_of(SAMPLE)[1]]
    events, errors = parse_events(lines)
    assert len(events) == 2
    assert len(errors) == 1 and errors[0].line == 4


@pytest.mark.parametrize("mutate, fragment", [
    (lambda r: r.pop("date"), "date"),
    (lambda r: r.update(date="2010-13-45"), "month"),
    (lambda r: r.update(type="review"), "unknown event type"),
    (lambda r: r.update(round=0), "round"),
    (lambda r: r.update(round=-2), "round"),
    (lambda r: r.update(round=1.9), "round must be a positive integer"),
    (lambda r: r.update(round=True), "round must be a positive integer"),
    (lambda r: r.update(round="1"), "round must be a positive integer"),
])
def test_parse_rejects_malformed_records(mutate, fragment):
    record = dict(SAMPLE[1])
    mutate(record)
    events, errors = parse_events(lines_of([record]))
    assert events == []
    assert len(errors) == 1 and fragment in errors[0].message


def test_parse_accepts_integral_float_round():
    events, errors = parse_events(lines_of([dict(SAMPLE[1], round=2.0)]))
    assert errors == [] and events[0].round == 2
    assert type(events[0].round) is int


def test_parse_rejects_bad_submission_and_citation():
    bad_sub = dict(SAMPLE[0], author_ids=[])
    bad_cite = dict(SAMPLE[4], cumulative_citations=-1)
    bad_rec = dict(SAMPLE[2], recommendation="maybe")
    bad_out = dict(SAMPLE[3], outcome="tabled")
    _, errors = parse_events(lines_of([bad_sub, bad_cite, bad_rec, bad_out]))
    assert [e.line for e in errors] == [1, 2, 3, 4]


@pytest.mark.parametrize("index, field, value, fragment",
                         WRONGLY_TYPED + BAD_PAPER_IDS)
def test_parse_rejects_wrongly_typed_fields(index, field, value, fragment):
    record = dict(SAMPLE[index], **{field: value})
    events, errors = parse_events(lines_of([record]))
    assert events == []
    assert len(errors) == 1 and fragment in errors[0].message


def test_parse_accepts_integral_float_counts():
    events, errors = parse_events(lines_of([
        dict(SAMPLE[4], cumulative_citations=17.0, as_of_year=2013.0)]))
    assert errors == []
    assert events[0].cumulative_citations == 17 and events[0].as_of_year == 2013
    assert type(events[0].cumulative_citations) is int
    assert type(events[0].as_of_year) is int


def test_parse_never_raises_on_garbage():
    events, errors = parse_events(["[1,2]", "42", "{\"type\": 7}"])
    assert events == [] and len(errors) == 3


def test_validate_requires_prior_submission():
    events, _ = parse_events(lines_of(SAMPLE[1:]))
    errors = validate_events(events)
    assert len(errors) == 4
    assert all("without prior submission" in e.message for e in errors)


def test_validate_duplicate_submission_and_decision():
    events, _ = parse_events(lines_of(SAMPLE + [SAMPLE[0], SAMPLE[3]]))
    messages = [e.message for e in validate_events(events)]
    assert any("duplicate submission" in m for m in messages)
    assert any("duplicate terminal decision" in m for m in messages)


def test_validate_citation_needs_terminal_decision():
    events, _ = parse_events(lines_of([SAMPLE[0], SAMPLE[4]]))
    errors = validate_events(events)
    assert len(errors) == 1 and "before any terminal decision" in errors[0].message


def test_validate_rounds_must_be_contiguous():
    skipping = dict(SAMPLE[1], round=3)
    events, _ = parse_events(lines_of([SAMPLE[0], skipping]))
    errors = validate_events(events)
    assert len(errors) == 1 and "not contiguous" in errors[0].message


def test_round_check_memory_does_not_grow_with_the_round_number():
    # a huge round is one value, not a range of expected rounds to build
    events, _ = parse_events(lines_of([SAMPLE[0], dict(SAMPLE[1], round=10**6)]))
    tracemalloc.start()
    try:
        errors = validate_events(events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [e.message for e in errors] == \
        ["paper p1: rounds [1000000] are not contiguous from 1"]
    assert peak < 1_000_000


@pytest.mark.parametrize("index, date, fragment", [
    (1, "2010-01-04", "assignment for paper p1 dated 2010-01-04 before its submission"),
    (2, "2009-12-31", "report for paper p1 dated 2009-12-31 before its submission"),
    (3, "2010-01-01", "decision for paper p1 dated 2010-01-01 before its submission"),
    (1, "2010-02-26", "assignment for paper p1 dated 2010-02-26 after its terminal decision"),
    (2, "2010-03-01", "report for paper p1 dated 2010-03-01 after its terminal decision"),
])
def test_validate_date_order(index, date, fragment):
    records = [dict(r) for r in SAMPLE]
    records[index]["date"] = date
    events, _ = parse_events(lines_of(records))
    errors = validate_events(events)
    assert any(fragment in e.message and e.line == index + 1 for e in errors)


def test_validate_date_order_holds_whatever_the_file_order():
    # the late report is listed before the decision it postdates
    late_report = dict(SAMPLE[2], date="2010-03-01")
    events, _ = parse_events(lines_of([SAMPLE[0], SAMPLE[1], late_report, SAMPLE[3]]))
    errors = validate_events(events)
    assert len(errors) == 1 and "after its terminal decision" in errors[0].message
    # same-day events on either boundary are allowed
    same_day = [dict(SAMPLE[0]), dict(SAMPLE[1], date="2010-01-05"),
                dict(SAMPLE[2], date="2010-02-25"), SAMPLE[3]]
    events, _ = parse_events(lines_of(same_day))
    assert validate_events(events) == []


def test_corpus_raises_on_invalid_events():
    events, _ = parse_events(lines_of(SAMPLE[1:]))
    with pytest.raises(CorpusError):
        Corpus(events)


def test_round_trip_write_then_parse(tmp_path):
    events, _ = parse_events(lines_of(SAMPLE))
    path = tmp_path / "log.jsonl"
    write_events(events, path)
    reparsed, errors = parse_events(path.read_text().splitlines())
    assert errors == [] and reparsed == events
    assert [type(e) for e in reparsed] == [type(e) for e in events]
    assert [json.loads(json.dumps(event_to_record(e))) for e in events] == SAMPLE
    with pytest.raises(TypeError, match="not a review event"):
        event_to_record(SAMPLE[0])



def test_events_are_immutable():
    events, _ = parse_events(lines_of(SAMPLE))
    assert len(events) == len(SAMPLE)
    for ev in events:
        with pytest.raises(AttributeError):
            ev.paper_id = "p2"
        with pytest.raises(AttributeError):
            ev.note = "x"  # no per-instance __dict__ to hold it
        assert not hasattr(ev, "__dict__")
    assert events == parse_events(lines_of(SAMPLE))[0]


def test_events_of_two_kinds_never_compare_equal():
    kinds = (Submission, Assignment, Report, Decision, CitationRecord)
    events, _ = parse_events(lines_of(SAMPLE))
    assert [type(ev) for ev in events] == list(kinds)
    for a in events:
        assert a == tuple(a)  # a named tuple equals its plain values
        for b in events:
            assert (a == b) == (a is b)
    # nor can any other values: two kinds differ in length or in a field's
    # type, and a str, an int, a tuple and a date never compare equal
    signatures = {tuple(get_type_hints(kind).values()) for kind in kinds}
    assert len(signatures) == len(kinds)
    assert set().union(*signatures) == {str, dt.date, int, tuple[str, ...]}


def test_interrupted_write_keeps_the_old_log(tmp_path):
    events, _ = parse_events(lines_of(SAMPLE))
    path = tmp_path / "log.jsonl"
    write_events(events, path)
    before = path.read_bytes()

    def two_then_fail():
        yield from events[:2]
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_events(two_then_fail(), path)
    assert path.read_bytes() == before

def test_paper_ordering_and_lookups():
    events = (minimal_paper("pB", D(2010, 3, 1), citations=4, outcome="accept")
              + minimal_paper("pA", D(2010, 3, 1), outcome="reject")
              + minimal_paper("pC", D(2010, 1, 1), outcome="withdraw"))
    corpus = Corpus(events)
    assert corpus.paper_ids() == ["pC", "pA", "pB"]
    assert corpus.outcome("pA") == "reject"
    assert corpus.outcome("missing") is None
    assert corpus.publication_year("pB") == 2010
    assert corpus.citations("pB") == 4 and corpus.citations("pA") is None
    assert corpus.assigned_reviewers("pB") == ["r1"]


def test_latest_citation_record_wins():
    events = minimal_paper("p1", D(2010, 1, 1))
    events.append(CitationRecord("p1", D(2012, 12, 31), 5, 2012))
    events.append(CitationRecord("p1", D(2014, 12, 31), 11, 2014))
    assert Corpus(events).citations("p1") == 11
    events[-2:] = events[-2:][::-1]  # the later record first
    assert Corpus(events).citations("p1") == 11


@pytest.mark.parametrize("change", [{"cumulative_citations": 5}, {"as_of_year": 2014}],
                         ids=["count", "as_of_year"])
def test_conflicting_citation_records_of_one_date_are_rejected(change):
    events = minimal_paper("p1", D(2010, 1, 1), citations=17, as_of_year=2013)
    other = events[-1]._replace(**change)
    for tail in ([events[-1], other], [other, events[-1]]):
        errors = validate_events(events[:-1] + tail)
        assert [(e.line, e.message) for e in errors] == \
            [(6, f"conflicting citation records for paper p1 dated {other.date}")]
    # an exact repeat is no conflict
    assert Corpus(events + [events[-1]]).citations("p1") == 17


def build_history_corpus():
    """Author a1: accept (2010-03), reject (2010-09), withdraw (2011-01)."""
    events = []
    events += minimal_paper("p1", D(2010, 1, 1), authors=("a1",), outcome="accept")
    events += minimal_paper("p2", D(2010, 7, 1), authors=("a1", "a2"),
                            outcome="reject")
    events += minimal_paper("p3", D(2010, 11, 1), authors=("a1",),
                            outcome="withdraw")
    return Corpus(events)


def test_author_profile_counts_and_ratio():
    corpus = build_history_corpus()
    prof = corpus.author_profile("a1", D(2012, 1, 1))
    assert (prof.accept_count, prof.reject_count) == (1, 1)
    assert prof.acceptance_ratio == 0.5  # withdraw excluded entirely
    # all three submissions count: 2010-01-01 .. 2010-11-01 over two gaps
    assert prof.mean_inter_submission_gap == (D(2010, 11, 1) - D(2010, 1, 1)).days / 2


def test_author_profile_is_strictly_before_as_of():
    corpus = build_history_corpus()
    # p1 decided 2010-02-15; on that exact day the decision must not count
    prof = corpus.author_profile("a1", D(2010, 2, 15))
    assert (prof.accept_count, prof.reject_count) == (0, 0)
    assert prof.acceptance_ratio is None
    # submissions on the as-of date are excluded too: p2's would make a gap
    prof = corpus.author_profile("a1", D(2010, 7, 1))
    assert prof.mean_inter_submission_gap is None
    assert corpus.author_profile("a1", D(2010, 7, 2)).mean_inter_submission_gap == 181.0


def test_author_profile_mean_gap():
    events = []
    events += minimal_paper("p1", D(2010, 1, 1))
    events += minimal_paper("p2", D(2010, 1, 11))
    events += minimal_paper("p3", D(2010, 1, 31))
    corpus = Corpus(events)
    prof = corpus.author_profile("a1", D(2015, 1, 1))
    assert prof.mean_inter_submission_gap == 15.0
    single = corpus.author_profile("a1", D(2010, 1, 5))
    assert single.mean_inter_submission_gap is None


def test_reviewer_profile_ratio_and_last_assignment():
    events = []
    events += minimal_paper("p1", D(2010, 1, 1), reviewer="rX", outcome="accept")
    events += minimal_paper("p2", D(2010, 6, 1), reviewer="rX", outcome="withdraw")
    corpus = Corpus(events)
    prof = corpus.reviewer_profile("rX", D(2012, 1, 1))
    assert prof.accept_ratio == 1.0  # one accept, zero rejects
    assert prof.last_assignment_date == D(2010, 6, 6)
    fresh = corpus.reviewer_profile("rX", D(2010, 1, 6))
    assert fresh.accept_ratio is None and fresh.last_assignment_date is None


def test_reviewer_profile_counts_reported_papers_not_assignments():
    events = minimal_paper("p1", D(2010, 1, 1), reviewer="rA", outcome="accept")
    # rB assigned but never reported: the accepted paper is not rB's review
    events.insert(2, Assignment("p1", D(2010, 1, 7), "e1", "rB", 1))
    corpus = Corpus(events)
    assert corpus.reviewer_profile("rB", D(2012, 1, 1)).accept_ratio is None
    assert corpus.assigned_reviewers("p1") == ["rA", "rB"]


def edge_case_corpus():
    """a1 is listed twice on p1; r1 reports on p1 in two rounds; p2 is
    withdrawn and p3 undecided; p4 is a2's rejected paper."""
    return Corpus([
        Submission("p1", D(2010, 1, 1), ("a1", "a1", "a2"), ""),
        Assignment("p1", D(2010, 1, 5), "e1", "r1", 1),
        Report("p1", D(2010, 2, 1), "r1", 1, "fine", "revise"),
        Assignment("p1", D(2010, 2, 10), "e1", "r1", 2),
        Report("p1", D(2010, 3, 1), "r1", 2, "fine", "accept"),
        Decision("p1", D(2010, 3, 10), "accept", 2),
        Submission("p2", D(2010, 4, 1), ("a1",), ""),
        Assignment("p2", D(2010, 4, 5), "e1", "r1", 1),
        Report("p2", D(2010, 5, 1), "r1", 1, "fine", "accept"),
        Decision("p2", D(2010, 5, 10), "withdraw", 1),
        Submission("p3", D(2010, 6, 1), ("a1",), ""),
        Assignment("p3", D(2010, 6, 3), "e1", "r1", 1),
        Report("p3", D(2010, 6, 20), "r1", 1, "fine", "reject"),
        Submission("p4", D(2010, 7, 1), ("a2",), ""),
        Assignment("p4", D(2010, 7, 2), "e1", "r1", 1),
        Report("p4", D(2010, 7, 15), "r1", 1, "weak", "reject"),
        Decision("p4", D(2010, 8, 1), "reject", 1),
    ])


@pytest.mark.parametrize("author, as_of, counts, dates, gap", [
    ("a1", D(2000, 1, 1), (0, 0), (), None),  # before the first event
    ("a1", D(2010, 1, 1), (0, 0), (), None),  # on a submission date
    ("a1", D(2010, 1, 2), (0, 0), (D(2010, 1, 1),) * 2, 0.0),  # listed twice
    ("a1", D(2010, 3, 10), (0, 0), (D(2010, 1, 1),) * 2, 0.0),  # on a decision
    ("a1", D(2010, 3, 11), (2, 0), (D(2010, 1, 1),) * 2, 0.0),
    ("a1", D(2020, 1, 1), (2, 0),  # withdrawn p2 and undecided p3 not counted
     (D(2010, 1, 1), D(2010, 1, 1), D(2010, 4, 1), D(2010, 6, 1)), 151 / 3),
    ("a2", D(2020, 1, 1), (1, 1), (D(2010, 1, 1), D(2010, 7, 1)), 181.0),
    ("zz", D(2020, 1, 1), (0, 0), (), None),  # unknown id
])
def test_author_profile_edge_cases(author, as_of, counts, dates, gap):
    corpus = edge_case_corpus()
    prof = corpus.author_profile(author, as_of)
    assert (prof.accept_count, prof.reject_count) == counts
    assert prof.mean_inter_submission_gap == gap
    # the gap spans the submissions strictly before as_of
    if len(dates) >= 2:
        assert gap == (dates[-1] - dates[0]).days / (len(dates) - 1)
    else:
        assert gap is None
    assert prof == reference_author_profile(corpus, author, as_of)


@pytest.mark.parametrize("reviewer, as_of, counts, last", [
    ("r1", D(2000, 1, 1), (0, 0), None),  # before the first event
    ("r1", D(2010, 1, 5), (0, 0), None),  # on an assignment date
    ("r1", D(2010, 1, 6), (0, 0), D(2010, 1, 5)),
    ("r1", D(2010, 3, 10), (0, 0), D(2010, 2, 10)),  # on a decision date
    ("r1", D(2010, 3, 11), (1, 0), D(2010, 2, 10)),  # two rounds count once
    ("r1", D(2020, 1, 1), (1, 1), D(2010, 7, 2)),  # p2, p3 not counted
    ("zz", D(2020, 1, 1), (0, 0), None),  # unknown id
])
def test_reviewer_profile_edge_cases(reviewer, as_of, counts, last):
    corpus = edge_case_corpus()
    prof = corpus.reviewer_profile(reviewer, as_of)
    assert (prof.accept_count, prof.reject_count) == counts
    assert prof.last_assignment_date == last
    assert prof == reference_reviewer_profile(corpus, reviewer, as_of)
