from __future__ import annotations

import random

import pytest

from treewalk import (
    is_biconnected,
    random_biconnected_graph,
    random_spanning_tree,
    spanning_tree_violation,
)

import graphs


def test_random_graphs_are_biconnected():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(3, 30)
        g = random_biconnected_graph(n, rng)
        assert g.n == n
        assert is_biconnected(g)


def test_extra_edges_zero_gives_sparse_graph():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(3, 20)
        g = random_biconnected_graph(n, rng, extra_edges=0)
        # cycle plus open ears: each ear adds one more edge than vertices
        assert n <= g.m <= 2 * n - 3


def test_generator_is_deterministic_per_seed():
    a = random_biconnected_graph(12, random.Random(123))
    b = random_biconnected_graph(12, random.Random(123))
    assert a == b


def test_generator_rejects_tiny_n():
    with pytest.raises(ValueError, match="n >= 3"):
        random_biconnected_graph(2, random.Random(0))


def test_random_trees_are_spanning_trees():
    rng = random.Random(31)
    for _ in range(60):
        g = random_biconnected_graph(rng.randint(3, 20), rng)
        root = rng.randrange(g.n)
        t = random_spanning_tree(g, root, rng)
        assert t.root == root
        assert spanning_tree_violation(g, t) is None


def test_random_tree_determinism_and_variety():
    t1 = random_spanning_tree(graphs.PETERSEN, 0, random.Random(7))
    t2 = random_spanning_tree(graphs.PETERSEN, 0, random.Random(7))
    assert t1 == t2
    seen = {random_spanning_tree(graphs.PETERSEN, 0, random.Random(s)).parents for s in range(20)}
    assert len(seen) >= 4


def test_random_tree_rejects_disconnected_graph():
    from treewalk import Graph

    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="not connected"):
        random_spanning_tree(g, 0, random.Random(0))
    # a root outside 0..n-1 is refused before any search
    for root in (-1, g.n, 99):
        with pytest.raises(ValueError, match=f"^root {root} out of range for 4 vertices$"):
            random_spanning_tree(g, root, random.Random(0))
