import datetime as dt
import itertools
import math
import random

import numpy as np
import pytest

from revnet import centrality, features
from revnet.corpus import (Assignment, CitationRecord, Corpus, Decision,
                           Report, Submission)
from revnet.features import (CSV_HEADER, FEATURE_NAMES, NETWORK_FEATURES,
                             SnapshotCache, assemble_matrix,
                             citation_rank_targets, feature_vector,
                             network_features, read_matrix_csv,
                             supporting_features, write_matrix_csv)

from helpers import (minimal_paper, reference_sentiment_score,
                     reference_supporting_features)

D = dt.date


def test_feature_name_layout():
    assert FEATURE_NAMES == ("Deg", "BC", "CC", "Clus", "PR", "RR", "TS", "RL",
                             "SNT", "AR", "AP", "RAC", "TA", "DR")
    assert NETWORK_FEATURES == FEATURE_NAMES[:5]


# -- citation-rank target ----------------------------------------------------


def test_rank_target_three_distinct_papers():
    a, b, c = citation_rank_targets([("a", 2010, 5), ("b", 2010, 10),
                                     ("c", 2010, 20)])
    # mid-rank percentiles 1/6, 1/2, 5/6 through the inverse normal CDF
    assert a == pytest.approx(-0.967421566101701, abs=1e-12)
    assert b == pytest.approx(0.0, abs=1e-12)
    assert c == pytest.approx(0.967421566101701, abs=1e-12)


def test_rank_target_ties_share_the_average_rank():
    a, b, c, d = citation_rank_targets([("a", 2010, 5), ("b", 2010, 5),
                                        ("c", 2010, 10), ("d", 2010, 20)])
    assert a == b == pytest.approx(-0.6744897501960817, abs=1e-12)
    assert c == pytest.approx(0.31863936396437514, abs=1e-12)
    assert d == pytest.approx(1.1503493803760079, abs=1e-12)


def test_rank_target_is_within_year():
    a, b, c = citation_rank_targets([("a", 2010, 1), ("b", 2010, 100),
                                     ("c", 2011, 50)])
    assert c == 0.0  # singleton year
    assert a < 0 < b


def test_rank_target_symmetry():
    targets = citation_rank_targets([(f"p{i}", 2010, i) for i in range(10)])
    assert sum(targets) == pytest.approx(0.0, abs=1e-9)


# -- network features --------------------------------------------------------


def history_corpus():
    """Two history papers build the graph; pX is the paper under test.

    Before pX's submission: e1 -> {r1, r2}, e2 -> {r2, r3}; so the projection
    is the path r1 - r2 - r3.
    """
    events = []
    events += minimal_paper("h1", D(2009, 1, 1), authors=("b1",),
                            editor="e1", reviewer="r1", outcome="accept")
    events.insert(2, Assignment("h1", D(2009, 1, 6), "e1", "r2", 1))
    events += minimal_paper("h2", D(2009, 6, 1), authors=("b2",),
                            editor="e2", reviewer="r2", outcome="reject")
    events.append(Assignment("h2", D(2009, 6, 6), "e2", "r3", 1))
    events += [
        Submission("pX", D(2010, 1, 1), ("a1", "a2"), "probe"),
        Assignment("pX", D(2010, 1, 5), "e1", "r2", 1),
        Assignment("pX", D(2010, 1, 5), "e1", "rNew", 1),
    ]
    return Corpus(events)


def test_network_features_mean_over_reviewers():
    corpus = history_corpus()
    vals = network_features("pX", corpus)
    # r2 is the middle of a 3-path: Deg 2, BC 1.0, CC 1*2/2... closeness of
    # middle node: r=3, n=3 -> (2/2)*(2/2)=1.0; rNew contributes zeros + 1/n PR
    assert vals[0] == pytest.approx((2 + 0) / 2)
    assert vals[1] == pytest.approx((1.0 + 0.0) / 2)
    assert vals[2] == pytest.approx((1.0 + 0.0) / 2)
    assert vals[3] == pytest.approx(0.0)
    assert vals[4] == pytest.approx(vals[4])  # finite
    assert not np.isnan(vals).any()


def test_network_features_no_assignments_is_missing():
    events = [Submission("p1", D(2010, 1, 1), ("a1",), "")]
    corpus = Corpus(events)
    assert np.isnan(network_features("p1", corpus)).all()


def test_network_features_empty_snapshot_is_missing():
    # the only assignments happen at submission time, not before
    events = [
        Submission("p1", D(2010, 1, 1), ("a1",), ""),
        Assignment("p1", D(2010, 1, 5), "e1", "r1", 1),
    ]
    corpus = Corpus(events)
    assert np.isnan(network_features("p1", corpus)).all()


def test_snapshot_cache_is_reused(monkeypatch):
    corpus = history_corpus()
    cache = SnapshotCache(corpus)
    a = network_features("pX", corpus, cache)
    b = network_features("pX", corpus, cache)
    assert np.array_equal(a, b)
    assert len(cache._tables) == 1
    assert cache.stats() == {"snapshot_dates": 1, "snapshot_tables": 1,
                             "nodes_max": 3, "pagerank_nonconverged": 0}

    # a later date with the same pairs shares the graph and the table; a date
    # after pX's assignments (rNew joins e1's pool) gets a table of its own
    calls = []
    builds = []
    compute = features.centrality.compute_table
    build = features.build_graph
    monkeypatch.setattr(features.centrality, "compute_table",
                        lambda graph: calls.append(graph.cutoff) or compute(graph))
    monkeypatch.setattr(features, "build_graph",
                        lambda corpus, cutoff: builds.append(cutoff) or build(corpus, cutoff))
    index_x, table_x = cache.table(D(2010, 1, 1))
    index_y, table_y = cache.table(D(2010, 1, 4))
    assert index_y == index_x == {"r1": 0, "r2": 1, "r3": 2}
    assert table_y is table_x and calls == [] and builds == []
    index_z, table_z = cache.table(D(2010, 2, 1))
    assert len(index_z) == 4 and table_z is not table_x
    assert calls == builds == [D(2010, 2, 1)]
    assert cache.stats() == {"snapshot_dates": 3, "snapshot_tables": 2,
                             "nodes_max": 4, "pagerank_nonconverged": 0}


def test_snapshot_tables_of_equal_graphs_are_bitwise_equal():
    # e1 -> {r1, r2} first, then e2 -> {r1, r2}: a new pair, the same graph;
    # p3, assigned after the later cutoff, probes the features there
    events = [
        Submission("p1", D(2010, 1, 1), ("a1",), ""),
        Assignment("p1", D(2010, 1, 2), "e1", "r1", 1),
        Assignment("p1", D(2010, 1, 2), "e1", "r2", 1),
        Submission("p2", D(2010, 2, 1), ("a2",), ""),
        Assignment("p2", D(2010, 2, 2), "e2", "r1", 1),
        Assignment("p2", D(2010, 2, 2), "e2", "r2", 1),
        Submission("p3", D(2011, 1, 1), ("a3",), ""),
        Assignment("p3", D(2011, 1, 2), "e1", "r1", 1),
        Assignment("p3", D(2011, 1, 2), "e1", "r2", 1),
    ]
    corpus = Corpus(events)
    cache = SnapshotCache(corpus)
    index_before, before = cache.table(D(2010, 2, 1))
    index_after, after = cache.table(D(2011, 1, 1))
    assert index_after == index_before == {"r1": 0, "r2": 1}
    assert cache.stats()["snapshot_tables"] == 2
    assert after.nodes == before.nodes
    assert after.pagerank_converged and before.pagerank_converged
    for name in centrality.MEASURES:
        assert getattr(after, name).tobytes() == getattr(before, name).tobytes(), name
    at_before = network_features("p2", corpus, cache)
    at_after = network_features("p3", corpus, cache)
    assert at_after.tobytes() == at_before.tobytes()
    assert not np.isnan(at_after).any()


# -- supporting features -----------------------------------------------------


def supporting_corpus():
    events = []
    # author a1 history: one accepted, one rejected paper
    events += minimal_paper("h1", D(2009, 1, 1), authors=("a1",),
                            reviewer="r1", outcome="accept")
    events += minimal_paper("h2", D(2009, 5, 1), authors=("a1",),
                            reviewer="r1", outcome="reject")
    events += [
        Submission("pX", D(2010, 3, 1), ("a1", "a2", "a3"), "probe"),
        Assignment("pX", D(2010, 3, 11), "e1", "r1", 1),
        Report("pX", D(2010, 4, 10), "r1", 1,
               "good clear results but some weak points remain", "revise"),
        Assignment("pX", D(2010, 5, 1), "e1", "r1", 2),
        Report("pX", D(2010, 5, 21), "r1", 2, "fine now", "accept"),
        Decision("pX", D(2010, 5, 25), "accept", 2),
    ]
    return Corpus(events)


def test_supporting_features_by_hand(lexicon):
    corpus = supporting_corpus()
    rr, ts, rl, snt, ar, ap, rac, ta, dr = supporting_features("pX", corpus, lexicon)
    assert rr == 2.0
    assert ts == 3.0
    assert rl == 8.0  # words in the round-1 report
    # round-1 text: good, clear positive; weak negative -> (2-1)/8
    assert snt == pytest.approx(1 / 8)
    assert ar == pytest.approx(0.5)  # a1: 1 accept / 2 decided; a2, a3 unknown
    # a1 submitted 2009-01-01 and 2009-05-01 -> gap 120 days
    assert ap == pytest.approx(120.0)
    assert rac == pytest.approx(0.5)  # r1 reviewed h1 (accept) and h2 (reject)
    # r1's last assignment before 2010-03-01 was 2009-05-06
    assert ta == pytest.approx(float((D(2010, 3, 1) - D(2009, 5, 6)).days))
    assert dr == pytest.approx(30.0)  # 2010-03-11 -> 2010-04-10


def test_rl_counts_the_tokens_that_snt_divides_by(lexicon):
    text = "State-of-the-art 3D naïve results."
    corpus = Corpus([Submission("p1", D(2010, 1, 1), ("a1",), ""),
                     Assignment("p1", D(2010, 1, 5), "e1", "r1", 1),
                     Report("p1", D(2010, 2, 1), "r1", 1, text, "accept")])
    rr, ts, rl, snt, *_ = supporting_features("p1", corpus, lexicon)
    assert rl == 8.0  # state of the art d na ve results; split() gives 4
    assert snt == reference_sentiment_score(text, lexicon)


def test_supporting_features_profiles_each_author_once(lexicon, monkeypatch):
    corpus = supporting_corpus()
    calls = []
    profile = Corpus.author_profile

    def counted(self, author_id, as_of):
        calls.append(author_id)
        return profile(self, author_id, as_of)

    monkeypatch.setattr(Corpus, "author_profile", counted)
    supporting_features("pX", corpus, lexicon)
    assert calls == ["a1", "a2", "a3"]


def test_supporting_features_missing_values(lexicon):
    events = [Submission("p1", D(2010, 1, 1), ("a9",), "")]
    corpus = Corpus(events)
    vals = supporting_features("p1", corpus, lexicon)
    rr, ts, rl, snt, ar, ap, rac, ta, dr = vals
    assert ts == 1.0
    assert all(math.isnan(v) for v in (rr, rl, snt, ar, ap, rac, ta, dr))


def test_mean_has_the_same_bits_in_any_order():
    """0.1 + 0.2 + 0.3 rounds to 0.6000000000000001 left to right and to 0.6
    from the right; lengths 1-300 cross NumPy's 8-value and 128-value
    summation boundaries."""
    assert math.isnan(features.mean([]))
    rng = random.Random(5)
    lists = [[0.1, 0.2, 0.3]]
    lists += [[rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12) for _ in range(n)]
              for n in range(1, 301, 7) for _ in range(5)]
    for values in lists:
        orders = (itertools.permutations(values) if len(values) <= 3
                  else (rng.sample(values, len(values)) for _ in range(4)))
        expected = np.float64(math.fsum(values) / len(values)).tobytes()
        for order in orders:
            assert np.float64(features.mean(list(order))).tobytes() == expected, values


def test_nine_author_paper_gives_the_reference_bytes(lexicon):
    """Nine author ratios whose exactly rounded mean differs in the last bit
    from NumPy's 8-accumulator sum."""
    history = ((2, 5), (3, 1), (1, 6), (1, 2), (3, 2), (2, 3), (1, 4), (5, 2), (2, 1))
    events = []
    day = D(2008, 1, 1)
    for k, (accepts, rejects) in enumerate(history):
        for m in range(accepts + rejects):
            events += minimal_paper(f"h{k}_{m}", day, authors=(f"a{k}",),
                                    outcome="accept" if m < accepts else "reject")
            day += dt.timedelta(days=3)
    authors = tuple(f"a{k}" for k in range(len(history)))
    events += [
        Submission("pX", D(2010, 6, 1), authors, "probe"),
        Assignment("pX", D(2010, 6, 5), "e1", "r1", 1),
        Report("pX", D(2010, 7, 1), "r1", 1, "good but weak", "revise"),
        Decision("pX", D(2010, 7, 9), "accept", 1),
    ]
    corpus = Corpus(events)
    ratios = [a / (a + r) for a, r in history]
    assert math.fsum(ratios) / 9 != np.mean(ratios)  # the case is sharp
    got = supporting_features("pX", corpus, lexicon)
    assert np.float64(got[4]).tobytes() == np.float64(math.fsum(ratios) / 9).tobytes()
    assert got.tobytes() == reference_supporting_features("pX", corpus, lexicon).tobytes()


def test_report_order_does_not_change_the_supporting_features(lexicon):
    """Sentiments 1/10, 2/10 and 3/10 sum to 0.6000000000000001 or 0.6
    left to right, depending on their order."""
    head = [Submission("pX", D(2010, 1, 5), ("a1",), "probe")]
    head += [Assignment("pX", D(2010, 1, 10), "e1", f"r{k}", 1) for k in (1, 2, 3)]
    reports = [Report("pX", D(2010, 2, 20), f"r{k}", 1,
                      " ".join(["good"] * k + ["the"] * (10 - k)), "accept")
               for k in (1, 2, 3)]
    tail = [Decision("pX", D(2010, 3, 1), "accept", 1)]
    snt = supporting_features("pX", Corpus(head + reports + tail), lexicon)[3]
    assert snt == math.fsum([0.1, 0.2, 0.3]) / 3
    got = {supporting_features("pX", Corpus(head + list(order) + tail), lexicon).tobytes()
           for order in itertools.permutations(reports)}
    assert len(got) == 1


def test_report_delay_counts_from_the_earliest_round_one_assignment(lexicon):
    sub = Submission("p1", D(2010, 1, 5), ("a1",), "probe")
    assigned = [Assignment("p1", D(2010, 1, day), "e1", "r1", 1) for day in (10, 20)]
    rest = [Report("p1", D(2010, 2, 20), "r1", 1, "good", "accept"),
            Decision("p1", D(2010, 2, 25), "accept", 1)]
    for order in (assigned, assigned[::-1]):
        dr = supporting_features("p1", Corpus([sub, *order, *rest]), lexicon)[8]
        assert dr == 41.0  # 2010-01-10 to 2010-02-20


def test_feature_vector_shape_and_mask(lexicon):
    corpus = supporting_corpus()
    fv = feature_vector("pX", corpus, lexicon)
    assert fv.shape == (14,)
    assert fv[5:].tobytes() == supporting_features("pX", corpus, lexicon).tobytes()
    assert not np.isnan(fv).any()
    # the first paper has an empty snapshot and no author or reviewer history
    first = feature_vector("h1", corpus, lexicon)
    assert [FEATURE_NAMES[i] for i in np.flatnonzero(np.isnan(first))] == \
        ["Deg", "BC", "CC", "Clus", "PR", "AR", "AP", "RAC", "TA"]


# -- matrix assembly and CSV round trip --------------------------------------


def matrix_corpus():
    events = []
    events += minimal_paper("p1", D(2010, 1, 1), outcome="accept", citations=3,
                            as_of_year=2014)
    events += minimal_paper("p2", D(2010, 2, 1), outcome="accept", citations=30,
                            as_of_year=2014)
    events += minimal_paper("p3", D(2010, 3, 1), outcome="reject", citations=9,
                            as_of_year=2014)
    events += minimal_paper("p4", D(2010, 4, 1), outcome="accept")  # no citation
    events += minimal_paper("p5", D(2012, 5, 1), outcome="accept", citations=2,
                            as_of_year=2014)  # outside window
    return Corpus(events)


def test_assemble_matrix_selection_and_order(lexicon):
    matrix = assemble_matrix(matrix_corpus(), (2010, 2011), lexicon)
    assert matrix.paper_ids == ("p1", "p2")
    assert matrix.years == (2010, 2010)
    assert matrix.X.shape == (2, 14)
    assert matrix.y[0] < 0 < matrix.y[1]
    with pytest.raises(ValueError):
        assemble_matrix(matrix_corpus(), (2011, 2010), lexicon)


def test_matrix_csv_round_trip_is_exact(tmp_path, lexicon):
    matrix = assemble_matrix(matrix_corpus(), (2010, 2012), lexicon)
    path = tmp_path / "features.csv"
    write_matrix_csv(matrix, path)
    again = read_matrix_csv(path)
    assert again.paper_ids == matrix.paper_ids
    assert again.years == matrix.years
    assert again.X.tobytes() == matrix.X.tobytes()  # bit-exact incl. NaN
    assert again.y.tobytes() == matrix.y.tobytes()
    assert np.array_equal(again.missing, matrix.missing)
    assert (tmp_path / "features.csv.missing").exists()


def _flip_first_cell(line: str) -> str:
    pid, first, rest = line.split(",", 2)
    return f"{pid},{'0' if first == '1' else '1'},{rest}"


@pytest.mark.parametrize("tamper, fragment", [
    pytest.param(lambda lines: lines[:2] + [_flip_first_cell(lines[2])] + lines[3:],
                 "line 3 is", id="flipped-cell"),
    pytest.param(lambda lines: [lines[0].replace("Deg", "deg")] + lines[1:],
                 "line 1 is", id="header"),
    pytest.param(lambda lines: [lines[0], "zz" + lines[1]] + lines[2:],
                 "line 2 is", id="paper-id"),
    pytest.param(lambda lines: lines[:-1], "lines, expected", id="row-missing"),
    pytest.param(lambda lines: lines + [lines[-1]], "lines, expected", id="row-extra"),
])
def test_read_matrix_checks_the_missing_mask(tmp_path, lexicon, tamper, fragment):
    matrix = assemble_matrix(matrix_corpus(), (2010, 2012), lexicon)
    assert matrix.missing.any() and not matrix.missing.all()
    path = tmp_path / "features.csv"
    write_matrix_csv(matrix, path)
    mask = tmp_path / "features.csv.missing"
    lines = mask.read_text().splitlines(keepends=True)
    mask.write_text("".join(tamper(lines)))
    with pytest.raises(ValueError, match=fragment):
        read_matrix_csv(path)
    mask.unlink()  # a bare CSV without a mask is still accepted
    assert read_matrix_csv(path).paper_ids == matrix.paper_ids


def test_read_matrix_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ValueError):
        read_matrix_csv(path)


@pytest.mark.parametrize("row, fragment", [
    ("p1,1.0,2.0\n", "line 3 has 3 cells, expected 17"),
    ("p1," + ",".join(["1.0"] * 14) + ",0.5,20x0\n", "line 3: invalid literal"),
    ("p1," + ",".join(["oops"] * 14) + ",0.5,2010\n", "line 3: could not convert"),
])
def test_read_matrix_rejects_malformed_rows(tmp_path, row, fragment):
    path = tmp_path / "bad.csv"
    good = "p0," + ",".join(["1.0"] * 14) + ",0.5,2010\n"
    path.write_text(CSV_HEADER + "\n" + good + row)
    with pytest.raises(ValueError, match=fragment):
        read_matrix_csv(path)
