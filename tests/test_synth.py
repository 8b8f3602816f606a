import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revnet.corpus import Corpus, validate_events
from revnet.features import supporting_features
from revnet.synth import (DEFAULT_EFFECTS, MAX_WEIGHT, SynthConfig, _report_text,
                          _word_pools, generate, ground_truth)
from revnet.text_metrics import load_lexicon

from helpers import reference_report_text, spearman

POOLS = _word_pools(load_lexicon())


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(papers_per_year=0)
    with pytest.raises(ValueError):
        SynthConfig(n_reviewers=1)
    with pytest.raises(ValueError):
        SynthConfig(accept_rate=1.5)
    with pytest.raises(ValueError):
        SynthConfig(effects={"telepathy": 1.0})
    with pytest.raises(ValueError):
        SynthConfig(round_probs_accepted=(0.5,))


@pytest.mark.parametrize("field, value", [
    ("submission_grid_days", -7),
    ("submission_grid_days", 0),
    ("papers_per_year", 2.5),
    ("n_years", True),
    ("seed", "3"),
    ("start_year", 9999),
    ("accept_rate", float("nan")),
    ("noise_sd", "0.3"),
    ("effects", {"network": "x"}),
    ("effects", {"network": float("inf")}),
    ("effects", [1.0]),
    ("round_probs_rejected", 0.3),
    ("round_probs_rejected", (0.3, "0.05")),
    ("effects", {"network": 1e200}),
    ("noise_sd", 1e308),
    ("noise_sd", -0.3),
])
def test_config_rejects_bad_field_naming_it(field, value):
    with pytest.raises(ValueError, match=field):
        SynthConfig(**{field: value})


@pytest.mark.parametrize("raw, fragment", [
    ([{"seed": 3}], "JSON object"),
    ({"seed": 3, "seeed": 3}, "'seeed'"),
])
def test_config_file_must_be_an_object_of_known_keys(tmp_path, raw, fragment):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=fragment):
        SynthConfig.from_file(path)


@pytest.mark.parametrize("pool", ["negation", "positive", "filler"])
def test_empty_word_pool_is_rejected_naming_it(pool):
    lexicon = load_lexicon()
    if pool == "filler":
        # a lexicon holding every filler word leaves no neutral word
        everything = frozenset(w for words in POOLS.values() for w in words)
        lexicon = dataclasses.replace(lexicon, positive=everything - lexicon.negative)
    elif pool == "positive":
        lexicon = dataclasses.replace(lexicon, positive=frozenset())
    else:
        lexicon = dataclasses.replace(
            lexicon, categories={**lexicon.categories, pool: frozenset()})
    with pytest.raises(ValueError, match=f"'{pool}'"):
        _word_pools(lexicon)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64), s_snt=st.floats(-5.0, 5.0),
       length=st.integers(0, 400))
def test_report_text_draws_as_the_linear_scan_and_choice(seed, s_snt, length):
    ours, theirs = random.Random(seed), random.Random(seed)
    assert _report_text(ours, POOLS, s_snt, length) == \
        reference_report_text(theirs, POOLS, s_snt, length)
    assert ours.getstate() == theirs.getstate()


class ScriptedRandom(random.Random):
    """``random()`` returns the scripted values; ``getrandbits`` always 0.

    Both are overridden, so ``choice`` keeps its ``getrandbits`` draw."""

    def __init__(self, uniforms):
        super().__init__(0)
        self.uniforms = iter(uniforms)

    def random(self):
        return next(self.uniforms)

    def getrandbits(self, k):
        return 0


def test_uniform_equal_to_a_running_sum_picks_the_next_pool():
    # at s_snt = 0 each category's probability is its base weight
    weights = [0.035, 0.035, 0.012, 0.030, 0.022, 0.032, 0.015, 0.010, 0.013]
    sums, acc = [], 0.0
    for w in weights:
        acc += w
        sums.append(acc)
    names = ["positive", "negative", "future_tense", "insight", "causation",
             "inclusive", "positive_emotion", "negation", "exclusive", "filler"]
    text = _report_text(ScriptedRandom(sums), POOLS, 0.0, len(sums))
    assert text.split() == [POOLS[name][0] for name in names[1:]]
    assert text == reference_report_text(ScriptedRandom(sums), POOLS, 0.0, len(sums))


def test_config_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 9, "papers_per_year": 50,
                                "n_years": 2, "accept_rate": 0.5}))
    config = SynthConfig.from_file(path)
    assert config.seed == 9 and config.papers_per_year == 50
    assert config.effects == DEFAULT_EFFECTS


def test_generate_is_deterministic_and_valid():
    config = SynthConfig(seed=1, papers_per_year=100, n_years=2)
    events = generate(config)
    assert events == generate(config)
    assert validate_events(events) == []
    assert events != generate(SynthConfig(seed=2, papers_per_year=100, n_years=2))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_weights_at_the_bound_generate_a_valid_log(sign):
    config = SynthConfig(papers_per_year=50, n_years=2, noise_sd=MAX_WEIGHT,
                         effects={name: sign * MAX_WEIGHT for name in DEFAULT_EFFECTS})
    assert validate_events(generate(config)) == []


def test_generated_corpus_has_expected_volume():
    config = SynthConfig(seed=1, papers_per_year=100, n_years=2)
    corpus = Corpus(generate(config))
    assert len(corpus.submissions) == 200
    assert len(corpus.decisions) == 200
    years = {corpus.submission_date(p).year for p in corpus.paper_ids()}
    assert years == {config.start_year, config.start_year + 1}


def test_realized_accept_rate_tracks_config():
    config = SynthConfig(seed=3, papers_per_year=300, n_years=4,
                         accept_rate=0.74)
    corpus = Corpus(generate(config))
    decided = [p for p in corpus.paper_ids()
               if corpus.outcome(p) in ("accept", "reject")]
    accepted = [p for p in decided if corpus.outcome(p) == "accept"]
    assert len(accepted) / len(decided) == pytest.approx(0.74, abs=0.03)


def test_author_acceptance_ratio_population_mean():
    # at accept_rate 0.56 the corpus-wide mean author ratio should sit nearby
    config = SynthConfig(seed=8, papers_per_year=300, n_years=4,
                         accept_rate=0.56)
    corpus = Corpus(generate(config))
    end = corpus.events[-1].date.replace(year=corpus.events[-1].date.year + 1)
    authors = {a for s in corpus.submissions.values() for a in s.author_ids}
    ratios = [corpus.author_profile(a, end).acceptance_ratio for a in authors]
    ratios = [r for r in ratios if r is not None]
    assert len(ratios) > 100
    assert float(np.mean(ratios)) == pytest.approx(0.56, abs=0.06)


def test_quality_drives_citations():
    config = SynthConfig(seed=5, papers_per_year=250, n_years=3, noise_sd=0.1)
    events = generate(config)
    truth = ground_truth(config, events)
    corpus = Corpus(events)
    qualities, cites = [], []
    for pid, paper in truth.papers.items():
        if paper.accepted and paper.citations is not None:
            qualities.append(paper.quality)
            cites.append(paper.citations)
    assert spearman(qualities, cites) > 0.9


def test_reviewer_hub_scores_reach_the_projection():
    config = SynthConfig(seed=6, papers_per_year=200, n_years=3)
    events = generate(config)
    truth = ground_truth(config, events)
    from revnet.centrality import degree
    from revnet.review_graph import build_graph
    graph = build_graph(Corpus(events))
    hubs = [truth.hub_scores.get(node, 0) for node in graph.nodes]
    degs = degree(graph).tolist()
    assert spearman(hubs, degs) > 0.7


def test_planted_sentiment_is_recoverable(lexicon):
    config = SynthConfig(seed=7, papers_per_year=200, n_years=2)
    events = generate(config)
    truth = ground_truth(config, events)
    corpus = Corpus(events)
    planted, measured = [], []
    for pid in corpus.paper_ids():
        snt = supporting_features(pid, corpus, lexicon)[3]
        if not np.isnan(snt):
            planted.append(truth.papers[pid].signals["sentiment"])
            measured.append(float(snt))
    assert np.corrcoef(planted, measured)[0, 1] > 0.5


def test_round_counts_follow_outcome_probabilities():
    config = SynthConfig(seed=9, papers_per_year=400, n_years=3,
                         round_probs_accepted=(1.0, 1.0),
                         round_probs_rejected=(0.0, 0.0))
    corpus = Corpus(generate(config))
    for pid in corpus.paper_ids():
        rounds = max((r.round for r in corpus.reports.get(pid, [])), default=0)
        if corpus.outcome(pid) == "accept":
            assert rounds == 3
        elif corpus.outcome(pid) == "reject":
            assert rounds == 1


def test_ground_truth_rejects_mismatched_log():
    config = SynthConfig(seed=1, papers_per_year=50, n_years=2)
    events = generate(config)
    with pytest.raises(ValueError):
        ground_truth(SynthConfig(seed=2, papers_per_year=50, n_years=2), events)
    with pytest.raises(ValueError):
        ground_truth(config, events[:-1])
