"""Generative parse/format round trips for the graph and tree file formats."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from treewalk import (  # noqa: E402
    RootedSpanningTree,
    format_graph,
    format_tree,
    parse_graph,
    parse_tree,
)

from strategies import graphs  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def parent_arrays(draw):
    """A rooted parent array on 2..12 vertices.

    Each non-root vertex gets any other vertex as its parent, so the array
    need not be a tree of any graph: the format does not ask for one.
    """
    n = draw(st.integers(2, 12))
    root = draw(st.integers(0, n - 1))
    parents = []
    for v in range(n):
        if v == root:
            parents.append(-1)
        else:
            p = draw(st.integers(0, n - 2))
            parents.append(p + (p >= v))
    return RootedSpanningTree(root, tuple(parents))


@SETTINGS
@given(graphs(max_n=12, surplus=20))
def test_graph_round_trip(g):
    assert parse_graph(format_graph(g)) == g


@SETTINGS
@given(parent_arrays())
def test_tree_round_trip(t):
    assert parse_tree(format_tree(t)) == t
