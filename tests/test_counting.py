"""Exact spanning-tree counts at sizes the generative tests do not reach.

The count is exact over the integers at any size, so these cases include
counts of a hundred digits and cycles of tens of thousands of vertices.
"""

from __future__ import annotations

import random
import time

import pytest

from treewalk import Graph, count_spanning_trees_kirchhoff, make_gk, random_biconnected_graph

import graphs


def _complete(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)])


def _complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


@pytest.mark.parametrize("n", [2, 3, 10, 20, 23, 25, 30, 60])
def test_cayley_formula(n):
    g = _complete(n)
    assert count_spanning_trees_kirchhoff(g) == n ** (n - 2)


@pytest.mark.parametrize("a, b", [(1, 5), (3, 4), (20, 25)])
def test_complete_bipartite_formula(a, b):
    assert count_spanning_trees_kirchhoff(_complete_bipartite(a, b)) == a ** (b - 1) * b ** (a - 1)


def test_gk_counts_beyond_enumeration():
    assert count_spanning_trees_kirchhoff(make_gk(6).graph) == 5_757_961
    assert count_spanning_trees_kirchhoff(make_gk(7).graph) == 80_198_051


def test_equals_dense_reference_on_the_shared_graphs():
    named = dict(graphs.ALL_GRAPHS)
    named.update({f"g{k}": make_gk(k).graph for k in range(1, 6)})
    for name, g in named.items():
        assert count_spanning_trees_kirchhoff(g) == graphs.bareiss_count(g), name


def test_count_survives_relabelling_at_n200():
    rng = random.Random(2024)
    g = random_biconnected_graph(200, rng, extra_edges=100)
    perm = rng.sample(range(200), 200)
    relabelled = Graph.from_edges(200, [(perm[u], perm[v]) for u, v in g.edges])
    count = count_spanning_trees_kirchhoff(g)
    assert count > 0
    assert count == count_spanning_trees_kirchhoff(relabelled) == graphs.bareiss_count(g)


def test_disconnected_large_graph_counts_zero():
    # Two copies of K_30: every pivot of the first copy is positive, and the
    # last vertex of the second copy reaches a zero pivot.
    edges = [(u, v) for v in range(30) for u in range(v)]
    g = Graph.from_edges(60, edges + [(u + 30, v + 30) for u, v in edges])
    assert count_spanning_trees_kirchhoff(g) == 0 == graphs.bareiss_count(g)


def test_long_cycles_count_their_length():
    # A cycle keeps every vertex when degree-1 vertices are peeled, so all
    # of its rows are eliminated.
    for n in (11_214, 20_000):
        cycle = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)])
        start = time.perf_counter()
        assert count_spanning_trees_kirchhoff(cycle) == n
        assert time.perf_counter() - start < 1.0


def test_trees_past_the_table_count_one():
    # The path P_12000 and the complete binary tree on 20,000 vertices:
    # peeling leaves one vertex.
    path = Graph.from_edges(12_000, [(v, v + 1) for v in range(11_999)])
    heap = Graph.from_edges(20_000, [((v - 1) // 2, v) for v in range(1, 20_000)])
    for g in (path, heap):
        assert count_spanning_trees_kirchhoff(g) == 1


def _cycle_with_pendant_paths(length: int, paths: list[tuple[int, int]]) -> Graph:
    """The cycle 0..length-1 with, per (cycle vertex, k), a path of k new vertices hung from it."""
    edges = [(v, v + 1) for v in range(length - 1)] + [(0, length - 1)]
    n = length
    for at, k in paths:
        for v in range(n, n + k):
            edges.append((at if v == n else v - 1, v))
        n += k
    return Graph.from_edges(n, edges)


def test_a_cycle_with_pendant_paths_counts_its_length():
    g = _cycle_with_pendant_paths(40, [(0, 3), (5, 1), (5, 2), (39, 10)])
    assert count_spanning_trees_kirchhoff(g) == 40
    big = _cycle_with_pendant_paths(1_000, [(0, 12_000), (500, 1)])
    assert count_spanning_trees_kirchhoff(big) == 1_000


def test_peeling_vertex_zero_keeps_the_count():
    # Vertex 0 hangs off a triangle by a path, and off K4 in a second graph
    # that also has a pendant tree; the dense reference keeps vertex 0.
    tail = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    k4 = [(u, v) for v in range(1, 5) for u in range(1, v)]
    bushy = Graph.from_edges(8, [(0, 1)] + k4 + [(4, 5), (5, 6), (5, 7)])
    two_trees = Graph.from_edges(4, [(0, 1), (2, 3)])
    for g, count in ((tail, 3), (bushy, 16), (two_trees, 0)):
        assert count_spanning_trees_kirchhoff(g) == count == graphs.bareiss_count(g)
