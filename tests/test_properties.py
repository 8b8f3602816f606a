"""Property-based invariants over randomly generated inputs."""

import datetime as dt
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revnet.analysis import (bucket_fixed_width, bucket_powers_of_two,
                             bucket_ratio_decile, empirical_cdf)
from revnet.centrality import compute_table
from revnet.corpus import Assignment, Corpus, Decision, Report, Submission
from revnet.features import citation_rank_targets, supporting_features
from revnet.review_graph import build_graph
from revnet.svr import f_statistic
from revnet.text_metrics import category_percentages, load_lexicon, tokenize

from helpers import (assert_table_matches_oracles, brute_projection_edges,
                     graph_from_edges, reference_author_profile,
                     reference_category_percentages, reference_reviewer_profile,
                     reference_snapshot, reference_supporting_features,
                     reference_tokenize)

LEXICON = load_lexicon()

edge_lists = st.integers(2, 10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=30)))


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_centrality_bounds_hold_everywhere(case):
    n, edges = case
    table = compute_table(graph_from_edges(n, edges))
    assert np.all(table.betweenness >= -1e-12)
    assert np.all(table.betweenness <= 1 + 1e-12)
    assert np.all((table.closeness >= 0) & (table.closeness <= 1 + 1e-12))
    assert np.all((table.clustering >= 0) & (table.clustering <= 1 + 1e-12))
    assert abs(table.pagerank.sum() - 1.0) <= 1e-6
    assert np.all(table.pagerank > 0)


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_rank_targets_are_monotone_in_citations(cites):
    papers = [(f"p{i}", 2010, c) for i, c in enumerate(cites)]
    targets = citation_rank_targets(papers)
    for i, ci in enumerate(cites):
        for j, cj in enumerate(cites):
            if ci < cj:
                assert targets[i] < targets[j]
            elif ci == cj:
                assert targets[i] == targets[j]
    assert all(math.isfinite(v) for v in targets)


@given(st.integers(0, 1 << 40))
def test_citation_bucket_bounds(c):
    b = bucket_powers_of_two(c)
    assert b >= 0
    assert c <= 2 ** b
    if b > 0:
        assert c > 2 ** (b - 1)


@given(st.floats(0, 1e6, allow_nan=False), st.floats(1e-3, 1e3))
def test_fixed_width_bucket_contains_value(value, width):
    b = bucket_fixed_width(value, width)
    assert b * width <= value
    # floating-point rounding may place value exactly on the upper edge
    assert value <= (b + 1) * width


@given(st.floats(0, 1, allow_nan=False))
def test_ratio_decile_in_range(r):
    assert 0 <= bucket_ratio_decile(r) <= 9


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=40))
def test_empirical_cdf_is_a_cdf(values):
    cdf = empirical_cdf(values)
    xs = [x for x, _ in cdf]
    ps = [p for _, p in cdf]
    assert xs == sorted(set(values))
    assert all(p1 < p2 for p1, p2 in zip(ps, ps[1:]))
    assert ps[-1] == 1.0


@given(st.lists(st.floats(-100, 100), min_size=3, max_size=50),
       st.lists(st.floats(-100, 100), min_size=3, max_size=50))
@settings(max_examples=100, deadline=None)
# r near 1: 1 - r^2 loses digits under the shift
@example([0.0, 0, 0, 0, 0, 0, 1, 0], [0.0, 0, 0, 0, 0, 0, 1, 1e-5])
# a narrow column: the shifted column's mean rounds at 10, not at 1e-12
@example([0.0, 0.0, 1e-12], [0.0, 1.0, 0.0])
# a constant column whose spread, shifted, is one ulp of its offset
@example([11.523629352558338] * 3, [0.0, 0.0, 1.0])
# a narrow column over the 1e-12 floor: its shifted mean rounds at 10
@example([0.0] * 3 + [2.2e-12] * 4, [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
# a spread under the floor, which the shift rounds up to one ulp of 10
@example([0.0, 0.0, 1e-15], [0.0, 0.0, 1.0])
def test_f_statistic_nonnegative_and_shift_invariant(xs, ys):
    n = min(len(xs), len(ys))
    x = np.array(xs[:n])
    y = np.array(ys[:n])
    f = f_statistic(x, y)
    assert f >= 0.0
    if math.isfinite(f):
        shifted = f_statistic(x + 10.0, y - 5.0)
        assert math.isclose(f, shifted, rel_tol=1e-6, abs_tol=1e-9)


@given(st.text(max_size=200))
def test_tokenize_yields_lowercase_alpha(text):
    for token in tokenize(text):
        assert token and token.isalpha() and token == token.lower()


@given(st.text())
@settings(max_examples=300)
@example("\ud800good")  # a lone surrogate, as a JSON "\ud800" escape gives
@example("\u212aelvin")  # KELVIN SIGN lowercases to ASCII "k"
@example("\u0130nsight")  # "İ" lowercases to "i" + U+0307
@example("Stra\u00dfe \ufb01ne \uff27\uff4f\uff4f\uff44")  # ß, ﬁ, full-width
@example("a".join(map(chr, [*range(0x21), 0x7F])))  # ASCII whitespace, controls
def test_tokenize_matches_the_regex_tokenizer(text):
    assert tokenize(text) == reference_tokenize(text)


CATEGORY_WORDS = sorted(set().union(*LEXICON.categories.values()))


@given(st.lists(st.sampled_from(CATEGORY_WORDS) | st.text(max_size=6),
                max_size=40).map(" ".join))
@settings(max_examples=200)
def test_category_percentages_match_the_per_category_passes(text):
    assert category_percentages(tokenize(text), LEXICON) == \
        reference_category_percentages(text, LEXICON)


BASE_DATE = dt.date(2010, 1, 1)
AUTHORS = ("a0", "a1", "a2", "a3")
REVIEWERS = ("r0", "r1", "r2", "r3")
REPORT_WORDS = ("good", "clear", "weak", "wrong", "the", "Novel", "well-written",
                "na\u00efve", "\u212aey", "42")
report_texts = st.lists(st.sampled_from(REPORT_WORDS) | st.text(max_size=6),
                        max_size=8).map(" ".join)


@st.composite
def review_logs(draw):
    """Valid logs over a few people and a short span of days, so that dates
    collide; authors may repeat on a paper (up to 10 listings), reviewers may
    report in several rounds, and papers may be withdrawn or left undecided."""
    events = []
    for k in range(draw(st.integers(0, 8))):
        pid = f"p{k}"
        sub = BASE_DATE + dt.timedelta(days=draw(st.integers(0, 30)))
        events.append(Submission(pid, sub, tuple(draw(st.lists(
            st.sampled_from(AUTHORS), min_size=1, max_size=10))), ""))
        outcome = draw(st.sampled_from(("accept", "reject", "withdraw", None)))
        span = draw(st.integers(0, 20))

        def day():
            return sub + dt.timedelta(days=draw(st.integers(0, span)))

        rounds = 1
        for rid in draw(st.lists(st.sampled_from(REVIEWERS), max_size=3)):
            for rnd in range(1, draw(st.integers(1, 2)) + 1):
                events.append(Assignment(pid, day(), "e1", rid, rnd))
                if draw(st.booleans()):
                    events.append(Report(pid, day(), rid, rnd,
                                         draw(report_texts), "revise"))
                rounds = max(rounds, rnd)
        if outcome is not None:
            events.append(Decision(pid, sub + dt.timedelta(days=span), outcome, rounds))
    return events


@given(review_logs(), st.lists(st.integers(-2, 55), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_profiles_match_the_rescan_oracles(events, offsets):
    corpus = Corpus(events)
    for as_of in (BASE_DATE + dt.timedelta(days=d) for d in offsets):
        for author in AUTHORS + ("unknown",):
            assert corpus.author_profile(author, as_of) == \
                reference_author_profile(corpus, author, as_of)
        for reviewer in REVIEWERS + ("unknown",):
            assert corpus.reviewer_profile(reviewer, as_of) == \
                reference_reviewer_profile(corpus, reviewer, as_of)


@given(review_logs())
@settings(max_examples=150, deadline=None)
def test_supporting_features_match_the_reference_bytes(events):
    corpus = Corpus(events)
    for pid in corpus.submissions:
        assert supporting_features(pid, corpus, LEXICON).tobytes() == \
            reference_supporting_features(pid, corpus, LEXICON).tobytes()


EDITORS = ("e0", "e1", "e2")
POOL = tuple(f"r{i}" for i in range(8))


@st.composite
def assignment_logs(draw):
    """Papers with one editor and up to four reviewers each, over a short
    span of days, so that pairs repeat and first-assignment dates collide."""
    events = []
    for k in range(draw(st.integers(0, 10))):
        pid = f"p{k}"
        sub = BASE_DATE + dt.timedelta(days=draw(st.integers(0, 30)))
        events.append(Submission(pid, sub, ("a0",), ""))
        editor = draw(st.sampled_from(EDITORS))
        for rid in draw(st.lists(st.sampled_from(POOL), max_size=4, unique=True)):
            day = sub + dt.timedelta(days=draw(st.integers(0, 10)))
            events.append(Assignment(pid, day, editor, rid, 1))
    return events


def paper(pid, day, editor, *reviewers):
    sub = BASE_DATE + dt.timedelta(days=day)
    return [Submission(pid, sub, ("a0",), "")] + [
        Assignment(pid, sub + dt.timedelta(days=1), editor, rid, 1)
        for rid in reviewers]


@given(assignment_logs(), st.lists(st.integers(-1, 45), min_size=1, max_size=5))
@example(paper("p0", 0, "e0", "r0", "r1", "r2") + paper("p1", 5, "e0", "r3"),
         [-1, 3, 20])  # one editor; before any assignment
@example(paper("p0", 0, "e0", "r0", "r1") + paper("p1", 2, "e1", "r2", "r3")
         + paper("p2", 4, "e2", "r4"), [2, 4, 9])  # two components and an isolate
@settings(max_examples=150, deadline=None)
def test_graphs_and_tables_match_the_rescan_projection(events, offsets):
    corpus = Corpus(events)
    cutoffs = [BASE_DATE + dt.timedelta(days=d) for d in offsets] + [dt.date.max]
    for cutoff in cutoffs:
        graph = build_graph(corpus, cutoff)
        snap = reference_snapshot(corpus, cutoff)
        assert graph.nodes == tuple(sorted(snap.reviewer_ids))
        expected = np.zeros((graph.n, graph.n))
        for a, b in brute_projection_edges(snap):
            u, v = graph.index[a], graph.index[b]
            expected[u, v] = expected[v, u] = 1.0
        assert graph.A.tobytes() == expected.tobytes()
        assert_table_matches_oracles(graph, compute_table(graph))
