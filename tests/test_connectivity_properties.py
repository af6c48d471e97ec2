"""Generative checks that biconnectivity and st-numbering decide the same facts."""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from graphs import reference_st_numbering  # noqa: E402
from strategies import graphs  # noqa: E402
from treewalk import (  # noqa: E402
    Graph,
    NotBiconnectedError,
    STNumbering,
    is_biconnected,
    random_biconnected_graph,
    st_numbering,
    validate_st_numbering,
)
from treewalk.connectivity import _st_order  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def graphs_with_an_edge(draw):
    """(graph, s, t): a drawn graph on 3..9 vertices and one of its edges, either way round.

    Half the graphs get the cycle 0, 1, ..., n-1 added, which makes them 2-connected.
    """
    g = draw(graphs(surplus=draw(st.sampled_from([0, 5, 20]))))
    assume(g.n >= 3)
    if draw(st.booleans()):
        cycle = {(v - 1, v) for v in range(1, g.n)} | {(0, g.n - 1)}
        g = Graph.from_edges(g.n, sorted(g.edges | cycle))
    assume(g.edges)
    s, t = draw(st.sampled_from(sorted(g.edges)))
    return (g, s, t) if draw(st.booleans()) else (g, t, s)


@SETTINGS
@given(graphs_with_an_edge())
def test_st_numbering_exists_exactly_on_biconnected_graphs(inst):
    g, s, t = inst
    try:
        num = st_numbering(g, s, t)
    except NotBiconnectedError:
        assert not is_biconnected(g)
    else:
        assert is_biconnected(g)
        assert validate_st_numbering(g, num, s, t)


def _valid_by_definition(g, order, s, t) -> bool:
    """v_1 = s, v_n = t, (s, t) an edge, and every other vertex between two neighbors."""
    if order[0] != s or order[-1] != t or not g.has_edge(s, t):
        return False
    pos = {v: i for i, v in enumerate(order)}
    return all(
        any(pos[w] < pos[v] for w in g.adj[v]) and any(pos[w] > pos[v] for w in g.adj[v])
        for v in order[1:-1]
    )


@st.composite
def numbered_graphs(draw):
    """(graph, order, s, t): a random permutation, and usually its own end vertices as (s, t)."""
    g = draw(graphs(surplus=draw(st.sampled_from([0, 5, 20]))))
    order = tuple(draw(st.permutations(range(g.n))))
    if draw(st.booleans()):
        return g, order, order[0], order[-1]
    return g, order, draw(st.integers(0, g.n - 1)), draw(st.integers(0, g.n - 1))


@SETTINGS
@given(numbered_graphs())
def test_validator_matches_the_definition(inst):
    g, order, s, t = inst
    assert validate_st_numbering(g, STNumbering(order), s, t) == _valid_by_definition(g, order, s, t)


@st.composite
def biconnected_graphs(draw):
    """A 2-connected graph: a drawn graph on 3..12 vertices plus a Hamiltonian cycle in drawn order,
    or a generator graph on up to 80 vertices from a drawn seed."""
    if draw(st.booleans()):
        g = draw(graphs(max_n=12, surplus=draw(st.sampled_from([0, 5, 20]))))
        assume(g.n >= 3)
        ring = draw(st.permutations(range(g.n)))
        cycle = {(min(u, v), max(u, v)) for u, v in zip(ring, ring[1:] + ring[:1])}
        return Graph.from_edges(g.n, sorted(g.edges | cycle))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 80))
    return random_biconnected_graph(n, rng, extra_edges=draw(st.integers(0, n)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(biconnected_graphs())
def test_st_numbering_matches_the_path_peeling_reference(g):
    # Every edge, both ways round: the flag-array peeling places the
    # vertices in the order of the edge-set reference.
    for u, v in sorted(g.edges):
        for s, t in ((u, v), (v, u)):
            assert st_numbering(g, s, t).order == reference_st_numbering(g, s, t).order


@SETTINGS
@given(graphs_with_an_edge())
def test_st_numbering_refuses_what_the_reference_refuses(inst):
    g, s, t = inst
    try:
        expected = reference_st_numbering(g, s, t).order
    except NotBiconnectedError:
        with pytest.raises(NotBiconnectedError):
            st_numbering(g, s, t)
    else:
        assert st_numbering(g, s, t).order == expected


@st.composite
def graphs_with_a_non_edge(draw):
    """(graph, s, t): a drawn graph on 3..9 vertices, often 2-connected, and two non-adjacent vertices."""
    g, _, _ = draw(graphs_with_an_edge())
    s, t = draw(st.permutations(range(g.n)))[:2]
    assume(not g.has_edge(s, t))
    return g, s, t


@SETTINGS
@given(graphs_with_a_non_edge())
def test_st_order_numbers_a_virtual_edge_in_place(inst):
    # The graph rebuilt with the edge is the reference for numbering it in place.
    g, s, t = inst
    rebuilt = Graph.from_edges(g.n, sorted(g.edges | {(min(s, t), max(s, t))}))
    try:
        expected = st_numbering(rebuilt, s, t).order
    except NotBiconnectedError:
        with pytest.raises(NotBiconnectedError):
            _st_order(g, s, t)
    else:
        assert _st_order(g, s, t).order == expected
