"""networkx as an independent check of tree counts and 2-connectivity."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")
from hypothesis import given, settings  # noqa: E402

from treewalk import count_spanning_trees_kirchhoff, is_biconnected  # noqa: E402

from strategies import graphs  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def _nx_graph(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


@SETTINGS
@given(graphs())
def test_count_matches_networkx(g):
    # networkx takes a floating-point determinant (through numpy), so it is
    # rounded and compared only where every integer is a float.
    pytest.importorskip("numpy")
    count = count_spanning_trees_kirchhoff(g)
    if count < 2**53:
        assert round(nx.number_of_spanning_trees(_nx_graph(g))) == count


@SETTINGS
@given(graphs(max_n=7, surplus=30))
def test_is_biconnected_matches_networkx(g):
    # networkx calls the single edge K2 biconnected; treewalk asks for n >= 3.
    assert is_biconnected(g) == (g.n >= 3 and nx.is_biconnected(_nx_graph(g)))
