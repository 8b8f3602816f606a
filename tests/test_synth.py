import json

import numpy as np
import pytest

from revnet.corpus import Corpus, validate_events
from revnet.features import supporting_features
from revnet.synth import DEFAULT_EFFECTS, SynthConfig, generate, ground_truth

from helpers import spearman


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
