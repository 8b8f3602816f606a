import datetime as dt
import random

import numpy as np
import pytest

from revnet.corpus import Assignment, Corpus, Submission
from revnet.review_graph import build_graph

from helpers import (brute_projection_edges, graph_edges,
                     random_assignment_events, reference_snapshot)

D = dt.date


def two_editor_corpus():
    """e1 -> {rA, rB}, e2 -> {rB, rC}; rD assigned after the cutoff."""
    events = [
        Submission("p1", D(2010, 1, 1), ("a1",), ""),
        Assignment("p1", D(2010, 1, 5), "e1", "rA", 1),
        Assignment("p1", D(2010, 1, 5), "e1", "rB", 1),
        Submission("p2", D(2010, 2, 1), ("a2",), ""),
        Assignment("p2", D(2010, 2, 5), "e2", "rB", 1),
        Assignment("p2", D(2010, 2, 6), "e2", "rC", 1),
        Submission("p3", D(2011, 1, 1), ("a3",), ""),
        Assignment("p3", D(2011, 1, 5), "e1", "rD", 1),
    ]
    return Corpus(events)


def test_snapshot_is_strictly_before_cutoff():
    corpus = two_editor_corpus()
    graph = build_graph(corpus, D(2011, 1, 5))  # rD assigned on the cutoff day
    assert graph.nodes == ("rA", "rB", "rC")
    assert graph_edges(graph) == [(0, 1), (1, 2)]
    assert build_graph(corpus, D(2011, 1, 6)).nodes == ("rA", "rB", "rC", "rD")
    assert build_graph(corpus, D(2010, 1, 5)).nodes == ()


def test_projection_edges_and_metadata():
    corpus = two_editor_corpus()
    graph = build_graph(corpus, D(2011, 1, 1))
    assert graph.nodes == ("rA", "rB", "rC")
    assert graph_edges(graph) == [(0, 1), (1, 2)]  # rA-rB via e1, rB-rC via e2
    assert len(graph.adj[1]) == 2
    assert graph.index == {"rA": 0, "rB": 1, "rC": 2}


def test_duplicate_assignments_do_not_weight_edges():
    events = [
        Submission("p1", D(2010, 1, 1), ("a1",), ""),
        Assignment("p1", D(2010, 1, 5), "e1", "rA", 1),
        Assignment("p1", D(2010, 1, 9), "e1", "rA", 2),
        Assignment("p1", D(2010, 1, 5), "e1", "rB", 1),
        Assignment("p1", D(2010, 1, 9), "e1", "rB", 2),
    ]
    graph = build_graph(Corpus(events))
    assert graph_edges(graph) == [(0, 1)]


def test_isolated_reviewers_stay_as_nodes():
    events = [
        Submission("p1", D(2010, 1, 1), ("a1",), ""),
        Assignment("p1", D(2010, 1, 5), "e1", "rA", 1),
    ]
    graph = build_graph(Corpus(events))
    assert graph.nodes == ("rA",) and graph_edges(graph) == []


def test_graph_is_independent_of_event_order():
    corpus = two_editor_corpus()
    reference = build_graph(corpus)
    rng = random.Random(7)
    events = list(corpus.events)
    for _ in range(5):
        # keep submissions first so the shuffled log stays valid
        subs = [e for e in events if isinstance(e, Submission)]
        rest = [e for e in events if not isinstance(e, Submission)]
        rng.shuffle(subs)
        rng.shuffle(rest)
        shuffled = build_graph(Corpus(subs + rest))
        assert shuffled.nodes == reference.nodes
        assert shuffled.adj == reference.adj


def test_projection_matches_brute_force_on_random_corpora():
    rng = random.Random(42)
    for _ in range(25):
        events = random_assignment_events(rng, n_papers=30,
                                          n_editors=rng.randrange(1, 11),
                                          n_reviewers=rng.randrange(2, 31))
        corpus = Corpus(events)
        cutoff = D(2010, 1, 1) + dt.timedelta(days=rng.randrange(0, 800))
        snap = reference_snapshot(corpus, cutoff)
        graph = build_graph(corpus, cutoff)
        assert graph.nodes == tuple(sorted(snap.reviewer_ids))
        got = {(graph.nodes[u], graph.nodes[v]) for u, v in graph_edges(graph)}
        assert got == brute_projection_edges(snap)


def test_matrix_is_read_only_and_adj_is_read_from_it():
    rng = random.Random(11)
    for _ in range(10):
        corpus = Corpus(random_assignment_events(rng, n_papers=20, n_editors=4,
                                                 n_reviewers=12))
        cutoff = D(2010, 1, 1) + dt.timedelta(days=rng.randrange(0, 800))
        graph = build_graph(corpus, cutoff)
        A = graph.A
        assert A.dtype == np.float64 and A.shape == (graph.n, graph.n)
        assert set(np.unique(A).tolist()) <= {0.0, 1.0}
        assert (A == A.T).all() and not A.diagonal().any()
        with pytest.raises(ValueError):
            A[0:1, 0:1] = 1.0
        assert graph.adj == tuple(tuple(np.flatnonzero(row).tolist()) for row in A)
