import random
import tracemalloc

import numpy as np
import pytest

from revnet import centrality
from revnet.centrality import clustering, compute_table, degree, pagerank

from helpers import (assert_table_matches_oracles, floyd_warshall,
                     graph_from_edges, oracle_betweenness, oracle_closeness,
                     oracle_clustering, oracle_pagerank, random_graph)


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n):
    return graph_from_edges(n, [(0, i) for i in range(1, n)])


def complete_graph(n):
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# -- frozen values on named graphs ------------------------------------------


def test_path3_betweenness():
    bc = compute_table(path_graph(3)).betweenness
    assert bc == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)


def test_star_center_betweenness_is_one():
    bc = compute_table(star_graph(6)).betweenness
    assert bc[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(bc[1:] == 0.0)


def test_path5_betweenness_frozen():
    # pairs routed through each node, / ((5-1)(5-2)/2) = 6
    bc = compute_table(path_graph(5)).betweenness
    assert bc == pytest.approx([0.0, 3 / 6, 4 / 6, 3 / 6, 0.0], abs=1e-12)


def test_closeness_two_disjoint_edges():
    # r = 2 in each component, n = 4: (1/3) * (1/1) = 1/3 per node
    graph = graph_from_edges(4, [(0, 1), (2, 3)])
    assert compute_table(graph).closeness == pytest.approx([1 / 3] * 4, abs=1e-12)


def test_closeness_complete_graph_is_one():
    closeness = compute_table(complete_graph(5)).closeness
    assert closeness == pytest.approx([1.0] * 5, abs=1e-12)


def test_clustering_triangle_with_tail():
    graph = graph_from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert clustering(graph) == pytest.approx([1.0, 1.0, 1 / 3, 0.0], abs=1e-12)


def test_degree_counts():
    assert degree(star_graph(5)).tolist() == [4, 1, 1, 1, 1]


def test_tiny_graphs_are_zero_or_empty():
    for n in (0, 1, 2):
        graph = graph_from_edges(n, [(0, 1)] if n == 2 else [])
        assert compute_table(graph).betweenness.tolist() == [0.0] * n
        assert clustering(graph).tolist() == [0.0] * n
        pr, ok = pagerank(graph)
        assert ok and len(pr) == n


# -- oracle agreement --------------------------------------------------------


def test_measures_match_oracles_on_random_graphs():
    rng = random.Random(11)
    for trial in range(60):
        n = rng.randrange(2, 13)
        graph = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        table = compute_table(graph)
        assert np.allclose(table.betweenness, oracle_betweenness(graph), atol=1e-9)
        assert np.allclose(table.closeness, oracle_closeness(graph), atol=1e-9)
        assert np.allclose(clustering(graph), oracle_clustering(graph), atol=1e-9)
        deg = degree(graph)
        assert deg.tolist() == [len(a) for a in graph.adj]


def test_pagerank_matches_linear_solve():
    rng = random.Random(13)
    for _ in range(30):
        graph = random_graph(rng, rng.randrange(2, 13), rng.choice([0.2, 0.5, 0.8]))
        pr, ok = pagerank(graph)
        assert ok
        assert np.allclose(pr, oracle_pagerank(graph), atol=1e-6)
        assert pr.sum() == pytest.approx(1.0, abs=1e-6)


def test_relabeling_invariance():
    rng = random.Random(5)
    n = 9
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    base = graph_from_edges(n, edges)
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])
    table = compute_table(base)
    table_p = compute_table(relabeled)
    for measure in centrality.MEASURES:
        a = np.asarray(getattr(table, measure), dtype=np.float64)
        b = np.asarray(getattr(table_p, measure), dtype=np.float64)
        # base node u is named like relabeled node perm[u]
        assert np.allclose(a, b[perm], atol=1e-9), measure


def test_pagerank_dangling_node():
    # node 2 is isolated; scores must still sum to 1
    graph = graph_from_edges(3, [(0, 1)])
    pr, ok = pagerank(graph)
    assert ok and pr.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(pr, oracle_pagerank(graph), atol=1e-6)


def test_compute_table_consistent_with_individual_measures():
    graph = random_graph(random.Random(3), 10, 0.4)
    table = compute_table(graph)
    assert np.array_equal(table.degree, degree(graph))
    assert np.array_equal(table.clustering, clustering(graph))
    pr, ok = pagerank(graph)
    assert np.array_equal(table.pagerank, pr) and table.pagerank_converged == ok


# -- the matrix pass against the oracles -----------------------------------


def assert_matches_oracles(graph):
    """The table against the oracles, and the pass's distance sums and
    component sizes equal to those of the Floyd-Warshall distances."""
    table = compute_table(graph)
    assert_table_matches_oracles(graph, table)
    pr, ok = pagerank(graph)
    assert table.pagerank.tobytes() == pr.tobytes() and table.pagerank_converged == ok
    D = floyd_warshall(graph)
    reached = np.isfinite(D)
    _, dist_sum, comp_size = centrality._brandes_pass(graph.A)
    assert dist_sum.tolist() == np.where(reached, D, 0.0).sum(axis=1).tolist()
    assert comp_size.tolist() == reached.sum(axis=1).tolist()


def two_components_and_isolates():
    return graph_from_edges(9, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3), (5, 6)])


def test_matrix_pass_matches_reference_on_named_graphs():
    for graph in (graph_from_edges(0, []), graph_from_edges(1, []),
                  graph_from_edges(2, []), graph_from_edges(2, [(0, 1)]),
                  path_graph(9), cycle_graph(8), star_graph(7), complete_graph(6),
                  two_components_and_isolates()):
        assert_matches_oracles(graph)


def test_matrix_pass_matches_reference_on_random_graphs():
    rng = random.Random(29)
    for _ in range(40):
        graph = random_graph(rng, rng.randrange(3, 45),
                             rng.choice([0.03, 0.1, 0.3, 0.7]))
        assert_matches_oracles(graph)


class CountingMatrix(np.ndarray):
    """An adjacency matrix that counts the products taken with it (or with
    a slice of it), by ``@`` or by ``np.matmul`` with or without ``out=``,
    and computes every ufunc on plain arrays."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:
            CountingMatrix.products += 1
        if out is not None:
            kwargs["out"] = tuple(np.asarray(x) for x in out)
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


@pytest.mark.parametrize("graph, products", [
    (complete_graph(6), 0),  # level 1 holds every node: no product at all
    (star_graph(7), 2),  # the leaves reach the others at level 2
    (path_graph(9), 14),  # 7 forward products to reach depth 8, 7 backward
    (two_components_and_isolates(), 3),  # no early stop: 2 forward, 1 backward
], ids=["complete", "star", "path", "two-components"])
def test_forward_sweep_stops_once_every_node_is_reached(graph, products):
    CountingMatrix.products = 0
    got = centrality._brandes_pass(graph.A.view(CountingMatrix))
    assert CountingMatrix.products == products
    for counted, plain in zip(got, centrality._brandes_pass(graph.A)):
        assert np.asarray(counted).tobytes() == plain.tobytes()
    assert_matches_oracles(graph)


def test_brandes_pass_keeps_each_level_as_one_byte_per_pair():
    # from an end of a 200-node path the sweep goes 199 levels deep; four
    # float b x n arrays plus a boolean mask per level fit the bound, one
    # or two float copies per level do not
    graph = path_graph(200)
    b = n = graph.n
    depth = n - 1
    tracemalloc.start()
    try:
        centrality._brandes_pass(graph.A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * b * n * 8 + depth * b * n
    assert_matches_oracles(graph)


def test_matrix_pass_over_several_source_blocks(monkeypatch):
    rng = random.Random(31)
    graph = random_graph(rng, 23, 0.12)  # sparse: several components
    whole = compute_table(graph)
    monkeypatch.setattr(centrality, "SOURCE_BLOCK", 4)
    assert_matches_oracles(graph)
    blocked = compute_table(graph)
    assert blocked.closeness.tobytes() == whole.closeness.tobytes()
    assert blocked.clustering.tobytes() == whole.clustering.tobytes()
    assert np.allclose(blocked.betweenness, whole.betweenness, rtol=1e-12, atol=0.0)


def test_measures_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randrange(3, 30)
        # a sparse part and a dense part, so isolates and several components occur
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < (0.08 if u < n // 2 else 0.5)]
        graph = graph_from_edges(n, edges)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        table = compute_table(graph)

        def column(scores):
            return np.array([scores[v] for v in range(n)])

        assert np.allclose(table.betweenness,
                           column(nx.betweenness_centrality(G, normalized=True)),
                           rtol=0.0, atol=1e-12)
        assert np.allclose(table.closeness, column(nx.closeness_centrality(G)),
                           rtol=0.0, atol=1e-12)
        assert np.allclose(table.clustering, column(nx.clustering(G)),
                           rtol=0.0, atol=1e-12)
        assert np.allclose(table.pagerank,
                           column(nx.pagerank(G, alpha=0.85, tol=1e-13, max_iter=1000)),
                           rtol=0.0, atol=1e-8)


# -- bounds ------------------------------------------------------------------


def test_measure_bounds_on_random_graphs():
    rng = random.Random(21)
    for _ in range(40):
        graph = random_graph(rng, rng.randrange(3, 13), rng.choice([0.2, 0.5, 0.8]))
        table = compute_table(graph)
        assert np.all(table.betweenness >= 0) and np.all(table.betweenness <= 1 + 1e-12)
        assert np.all(table.closeness >= 0) and np.all(table.closeness <= 1 + 1e-12)
        assert np.all(table.clustering >= 0) and np.all(table.clustering <= 1 + 1e-12)
        assert np.all(table.pagerank >= (1 - 0.85) / graph.n - 1e-12)
