"""Generative checks of spanning-tree enumeration on small connected graphs."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from treewalk import (  # noqa: E402
    Graph,
    count_spanning_trees_kirchhoff,
    enumerate_spanning_trees,
    is_spanning_tree,
)

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


@st.composite
def connected_graphs(draw):
    """(graph, root): a random tree on 3..7 vertices plus random extra edges.

    Few extra edges leave cut vertices and bridges, so graphs that are not
    2-connected are drawn as often as ones that are.
    """
    n = draw(st.integers(3, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    return Graph.from_edges(n, sorted(edges)), draw(st.integers(0, n - 1))


@SETTINGS
@given(connected_graphs())
def test_enumeration_lists_each_spanning_tree_once(inst):
    g, root = inst
    trees = enumerate_spanning_trees(g, root=root)
    assert len({t.parents for t in trees}) == len(trees)
    assert all(t.root == root and is_spanning_tree(g, t) for t in trees)
    assert len(trees) == count_spanning_trees_kirchhoff(g)
