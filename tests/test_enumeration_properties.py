"""Generative checks of spanning-tree enumeration: Kirchhoff counts and the edge-list reference."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from treewalk import (  # noqa: E402
    count_spanning_trees_kirchhoff,
    enumerate_spanning_trees,
    make_gk,
    spanning_tree_violation,
)

from graphs import reference_enumeration  # noqa: E402
from strategies import connected_graphs, graphs  # noqa: E402

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


@SETTINGS
@given(connected_graphs())
def test_enumeration_lists_each_spanning_tree_once(inst):
    g, root = inst
    trees = enumerate_spanning_trees(g, root=root)
    assert len({t.parents for t in trees}) == len(trees)
    assert all(t.root == root and spanning_tree_violation(g, t) is None for t in trees)
    assert len(trees) == count_spanning_trees_kirchhoff(g)


@SETTINGS
@given(graphs(), st.data())
def test_enumeration_matches_the_reference_in_order(g, data):
    # Drawn graphs include disconnected ones, which have no spanning tree.
    root = data.draw(st.integers(0, g.n - 1))
    assert enumerate_spanning_trees(g, root=root) == reference_enumeration(g, root)


def test_g3_enumeration_matches_the_reference_in_full():
    g = make_gk(3).graph
    trees = enumerate_spanning_trees(g, root=0)
    assert len(trees) == 2131
    assert trees == reference_enumeration(g, 0)
