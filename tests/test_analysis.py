import datetime as dt
import json
import math

import numpy as np
import pytest

from revnet.analysis import (ANALYSES, HIGH_CITED_REJECTED_MIN,
                             LOW_CITED_ACCEPTED_MAX, OUTPUT_FILES,
                             bucket_fixed_width, bucket_mean,
                             bucket_powers_of_two, bucket_ratio_decile,
                             empirical_cdf, irregular_cases, lqi_contrast,
                             paper_records, quartile_contrast, run_all,
                             summary_table)
from revnet.corpus import (Assignment, CitationRecord, Corpus, Decision,
                           Report, Submission)
from revnet.features import SUPPORTING_FEATURES, supporting_features
from revnet.synth import SynthConfig, generate

from helpers import (benchmark_configs, minimal_paper,
                     reference_irregular_cases)

D = dt.date


# -- bucketing ---------------------------------------------------------------


def test_powers_of_two_buckets_match_required_mapping():
    cases = {0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4}
    for cites, bucket in cases.items():
        assert bucket_powers_of_two(cites) == bucket, cites


def test_powers_of_two_buckets_against_enumeration():
    # bucket b is the smallest b with citations <= 2**b
    for c in range(0, 1100):
        expected = next(b for b in range(12) if c <= 2 ** b)
        assert bucket_powers_of_two(c) == expected, c
    with pytest.raises(ValueError):
        bucket_powers_of_two(-1)


def test_fixed_width_buckets_are_half_open():
    assert bucket_fixed_width(0.0, 100) == 0
    assert bucket_fixed_width(99.999, 100) == 0
    assert bucket_fixed_width(100.0, 100) == 1
    assert bucket_fixed_width(199.0, 100) == 1
    assert bucket_fixed_width(200.0, 100) == 2
    assert bucket_fixed_width(74.9, 25) == 2
    assert bucket_fixed_width(75.0, 25) == 3


def test_ratio_deciles():
    assert bucket_ratio_decile(0.0) == 0
    assert bucket_ratio_decile(0.0999) == 0
    assert bucket_ratio_decile(0.1) == 1
    assert bucket_ratio_decile(0.95) == 9
    assert bucket_ratio_decile(1.0) == 9  # closed top bucket


def test_bucket_mean_groups_and_sorts():
    stats = bucket_mean([1.0, 3.0, 10.0], [1, 1, 0])
    assert [(s.bucket, s.count, s.mean) for s in stats] == \
        [(0, 1, 10.0), (1, 2, 2.0)]
    with pytest.raises(ValueError):
        bucket_mean([1.0], [1, 2])


# -- CDFs and quartile contrast ----------------------------------------------


def test_empirical_cdf_handles_ties():
    cdf = empirical_cdf([3, 1, 3, 2])
    assert cdf == [(1, 0.25), (2, 0.5), (3, 1.0)]


def test_quartile_contrast_deterministic_tie_break():
    metric = {"r1": 1.0, "r2": 1.0, "r3": 0.5, "r4": 0.0, "r5": 0.0}
    cites = {r: [i] for i, r in enumerate(sorted(metric))}
    top, bottom = quartile_contrast(metric, cites)
    # q = 1; top is r1 (tie broken by id), bottom is r5
    assert top == [(0, 1.0)]
    assert bottom == [(4, 1.0)]
    with pytest.raises(ValueError):
        quartile_contrast({"a": 1.0}, {})


# -- summary table -----------------------------------------------------------


def summary(corpus, lexicon):
    return summary_table(corpus, paper_records(corpus, lexicon))


def test_summary_table_counts_by_hand(lexicon):
    events = (minimal_paper("p1", D(2010, 1, 1), authors=("a1", "a2"),
                            outcome="accept", citations=8)
              + minimal_paper("p2", D(2010, 2, 1), authors=("a1",),
                              outcome="reject", citations=2)
              + minimal_paper("p3", D(2010, 3, 1), authors=("a3",),
                              outcome="withdraw"))
    table = summary(Corpus(events), lexicon)
    assert table["papers"] == 3
    assert table["papers_accepted"] == 1
    assert table["papers_rejected"] == 1
    assert table["mean_reviews_accepted"] == 1.0
    assert table["mean_citations_accepted"] == 8.0
    assert table["mean_citations_rejected"] == 2.0
    assert table["unique_authors"] == 3
    assert table["mean_submissions_per_author"] == pytest.approx(4 / 3)
    assert table["mean_authors_per_paper"] == pytest.approx(4 / 3)


def test_summary_table_tracks_generator_review_means(lexicon):
    config = SynthConfig(seed=2, papers_per_year=250, n_years=4)
    table = summary(Corpus(generate(config)), lexicon)
    # generator plants ~1.76 rounds for accepted, ~1.35 for rejected
    assert table["mean_reviews_accepted"] == pytest.approx(1.76, abs=0.08)
    assert table["mean_reviews_rejected"] == pytest.approx(1.35, abs=0.12)
    assert table["mean_citations_accepted"] > table["mean_citations_rejected"]


def test_summary_citation_means_skip_papers_without_a_citation_record(lexicon):
    events = (minimal_paper("p1", D(2010, 1, 1), outcome="accept", citations=8)
              + minimal_paper("p2", D(2010, 2, 1), outcome="accept"))
    table = summary(Corpus(events), lexicon)
    assert table["papers_accepted"] == 2
    assert table["mean_reviews_accepted"] == 1.0  # both papers count here
    assert table["mean_citations_accepted"] == 8.0  # not (8 + 0) / 2
    assert table["mean_citations_rejected"] == 0.0  # no rejected paper


# -- irregular cases ---------------------------------------------------------


def irregular_corpus():
    events = []
    events += minimal_paper("hot_rejected", D(2009, 1, 1), outcome="reject",
                            citations=HIGH_CITED_REJECTED_MIN)
    events += minimal_paper("cold_accepted", D(2009, 2, 1), outcome="accept",
                            citations=LOW_CITED_ACCEPTED_MAX - 1)
    events += minimal_paper("ordinary_accepted", D(2009, 3, 1), outcome="accept",
                            citations=50)
    events += minimal_paper("ordinary_rejected", D(2009, 4, 1), outcome="reject",
                            citations=HIGH_CITED_REJECTED_MIN - 1)
    # decided after the cutoff: must be ignored even though citations qualify
    events += minimal_paper("late_rejected", D(2012, 1, 1), outcome="reject",
                            citations=100)
    events += minimal_paper("no_citation", D(2009, 5, 1), outcome="accept")
    return Corpus(events)


def test_irregular_cases_exact_flagging(lexicon):
    records = paper_records(irregular_corpus(), lexicon)
    high, low = irregular_cases(records, exposure_cutoff_year=2012)
    assert [c.paper_id for c in high] == ["hot_rejected"]
    assert [c.paper_id for c in low] == ["cold_accepted"]
    assert high[0].citations == 20 and high[0].outcome == "reject"
    assert low[0].decision_year == 2009


def test_irregular_cases_respect_cutoff(lexicon):
    records = paper_records(irregular_corpus(), lexicon)
    high, low = irregular_cases(records, exposure_cutoff_year=2009)
    assert high == [] and low == []


def test_paper_record_reads_its_supporting_features_by_name(lexicon):
    corpus = irregular_corpus()
    records = paper_records(corpus, lexicon)
    assert records
    for rec in records:
        # the array supporting_features returns, not a per-record dict
        assert isinstance(rec.features, np.ndarray) and rec.features.shape == (9,)
        values = supporting_features(rec.paper_id, corpus, lexicon).tolist()
        for name, value in zip(SUPPORTING_FEATURES, values):
            got = rec.feature(name)
            assert type(got) is float
            assert got == value or (math.isnan(got) and math.isnan(value)), name
        assert rec.team_size == int(rec.feature("TS"))


@pytest.mark.parametrize("workload, config", sorted(benchmark_configs().items()))
def test_irregular_cases_match_the_rescan_reference(lexicon, workload, config):
    small = dict(config, papers_per_year=min(config["papers_per_year"], 60), n_years=3)
    gen = SynthConfig(seed=9, **small)
    corpus = Corpus(generate(gen))
    for cutoff in (gen.start_year + 1, gen.start_year + gen.n_years + 1):
        expected = reference_irregular_cases(corpus, cutoff)
        assert irregular_cases(paper_records(corpus, lexicon), cutoff) == expected
    cases = expected[0] + expected[1]
    assert cases  # the check must bite, on defined and undefined ratios alike
    for field in ("author_acceptance_ratio", "reviewer_accept_ratio"):
        assert {getattr(c, field) is None for c in cases} == {True, False}


# -- linguistic contrast -----------------------------------------------------


def test_lqi_contrast_needs_enough_papers(lexicon):
    events = minimal_paper("p1", D(2009, 1, 1), outcome="accept", citations=5)
    corpus = Corpus(events)
    assert lqi_contrast(paper_records(corpus, lexicon), corpus, lexicon, 2012) == {}


def test_lqi_contrast_shapes(lexicon):
    config = SynthConfig(seed=4, papers_per_year=150, n_years=3)
    corpus = Corpus(generate(config))
    cutoff = config.start_year + config.n_years + 1
    contrast = lqi_contrast(paper_records(corpus, lexicon), corpus, lexicon, cutoff)
    assert set(contrast) == {"future_tense", "negation", "insight", "causation",
                             "inclusive", "exclusive", "positive_emotion"}
    for hi, lo in contrast.values():
        assert hi >= 0 and lo >= 0


# -- bundle ------------------------------------------------------------------


def test_run_all_writes_manifest_and_files(tmp_path, lexicon):
    config = SynthConfig(seed=5, papers_per_year=120, n_years=3)
    corpus = Corpus(generate(config))
    manifest = run_all(corpus, lexicon, tmp_path)
    assert (tmp_path / "manifest.json").exists()
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk == manifest
    for entry in manifest["analyses"].values():
        path = tmp_path / entry["file"]
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert header.split(",") == entry["columns"]
    # default exposure cutoff = latest citation as-of year minus 3
    years = [r.as_of_year for r in corpus.citation_records.values()]
    assert manifest["exposure_cutoff_year"] == max(years) - 3
    expected = {"summary", "citation_buckets", "reviews_by_citation_bucket",
                "top20_citation_by_rounds", "team_size_citation",
                "report_length_citation", "author_productivity_citation",
                "time_since_assignment_citation", "report_delay_citation",
                "author_acceptance_ratio_buckets",
                "reviewer_accept_ratio_buckets", "sentiment_by_year",
                "centrality_quartile_contrast", "lqi_contrast",
                "irregular_high_cited_rejected", "irregular_low_cited_accepted"}
    assert set(manifest["analyses"]) == expected
    # the names the CLI checks before the run are the files the run wrote
    assert tuple(manifest["analyses"]) == ANALYSES
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(OUTPUT_FILES)


def test_run_all_is_deterministic(tmp_path, lexicon):
    config = SynthConfig(seed=5, papers_per_year=80, n_years=2)
    corpus = Corpus(generate(config))
    run_all(corpus, lexicon, tmp_path / "a")
    run_all(corpus, lexicon, tmp_path / "b")
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def hand_built_corpus():
    """older_rejected and old give a3, a1 and r1 a history; hot_rejected has
    a first-time author and no first-round report; silent_accepted was
    assigned but never reported on; withdrawn and uncited round it out."""
    events = []
    events += minimal_paper("older_rejected", D(2008, 6, 1), authors=("a3",),
                            outcome="reject", citations=5)
    events += minimal_paper("old", D(2009, 1, 1), authors=("a1",),
                            outcome="accept", citations=50)
    events += [
        Submission("hot_rejected", D(2010, 1, 1), ("new1",), ""),
        Assignment("hot_rejected", D(2010, 1, 5), "e1", "r1", 1),
        Assignment("hot_rejected", D(2010, 3, 1), "e1", "r2", 2),
        Report("hot_rejected", D(2010, 4, 1), "r2", 2, "good work", "reject"),
        Decision("hot_rejected", D(2010, 4, 10), "reject", 2),
        CitationRecord("hot_rejected", D(2014, 1, 1), 25, 2015),
        Submission("silent_accepted", D(2010, 2, 1), ("a1", "a3"), ""),
        Assignment("silent_accepted", D(2010, 2, 5), "e1", "r1", 1),
        Decision("silent_accepted", D(2010, 3, 1), "accept", 1),
        CitationRecord("silent_accepted", D(2014, 1, 1), 3, 2015),
    ]
    events += minimal_paper("withdrawn", D(2010, 3, 1), outcome="withdraw")
    events += minimal_paper("uncited", D(2010, 4, 1), authors=("a2",))
    return Corpus(events)


def read_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_run_all_cells_on_a_hand_built_corpus(tmp_path, lexicon):
    run_all(hand_built_corpus(), lexicon, tmp_path, exposure_cutoff_year=2012)
    assert dict(read_rows(tmp_path / "summary.csv")) == {
        "papers": "6", "papers_accepted": "3", "papers_rejected": "2",
        # rounds: old 1, silent_accepted 0, uncited 1; older_rejected 1, hot 2
        "mean_reviews_accepted": str(2 / 3), "mean_reviews_rejected": "1.5",
        # uncited has no citation record and is left out, not counted as 0
        "mean_citations_accepted": "26.5", "mean_citations_rejected": "15.0",
        "unique_authors": "4", "mean_submissions_per_author": "1.75",
        "mean_authors_per_paper": str(7 / 6)}
    # AR, RAC, RL blank where undefined: new1 has no history, hot_rejected
    # and silent_accepted have no first-round report, r2 had reviewed nothing
    assert read_rows(tmp_path / "irregular_high_cited_rejected.csv") == [
        ["hot_rejected", "reject", "25", "2010", "", "0.5", ""]]
    assert read_rows(tmp_path / "irregular_low_cited_accepted.csv") == [
        ["silent_accepted", "accept", "3", "2010", "0.5", "0.5", ""]]
    assert read_rows(tmp_path / "top20_citation_by_rounds.csv") == [
        ["0", "1", "1", "3.0"], ["1", "1", "1", "50.0"]]
    sentiment = {row[1]: row for row in read_rows(tmp_path / "sentiment_by_year.csv")}
    assert sorted(sentiment) == ["hot_rejected", "old", "older_rejected",
                                 "silent_accepted"]
    assert sentiment["hot_rejected"] == ["2010", "hot_rejected", "reject", "", "25"]
    assert sentiment["silent_accepted"] == ["2010", "silent_accepted", "accept", "", "3"]
