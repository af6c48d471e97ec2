from __future__ import annotations

import itertools
import random

import pytest

from treewalk import (
    Graph,
    NotBiconnectedError,
    is_biconnected,
    partition2,
    partition2_with_strategy,
    random_biconnected_graph,
    validate_partition2,
)

import graphs
import treewalk.connectivity
import treewalk.partition


def test_triangle_example():
    v1, v2, strategy = partition2_with_strategy(graphs.TRIANGLE, 0, 1, 1)
    assert (v1, v2) == ({0}, {1, 2})
    assert strategy == "direct-edge"


def test_each_strategy_is_reachable():
    cases = [
        ("direct-edge", (graphs.TRIANGLE, 0, 1, 1)),
        ("virtual-edge", (graphs.C4, 0, 2, 1)),
        ("virtual-edge", (graphs.C4, 0, 2, 3)),
        ("virtual-edge", (graphs.C6, 0, 4, 3)),
    ]
    for expected, (g, u1, u2, n1) in cases:
        v1, v2, strategy = partition2_with_strategy(g, u1, u2, n1)
        assert strategy == expected
        assert validate_partition2(g, v1, v2, u1, u2, n1) is None


def _small_corpus():
    """(name, g, u1, u2, n1) for every anchor pair and size on the corpus graphs with n <= 6."""
    for name, g in graphs.BICONNECTED.items():
        if g.n > 6:
            continue
        for u1, u2 in itertools.permutations(range(g.n), 2):
            for n1 in range(1, g.n):
                yield name, g, u1, u2, n1


def _random_instances():
    """(index, g, u1, u2, n1) for 200 random biconnected graphs on 4..24 vertices."""
    rng = random.Random(71)
    for i in range(200):
        g = random_biconnected_graph(rng.randint(4, 24), rng)
        u1 = rng.randrange(g.n)
        u2 = rng.randrange(g.n)
        while u2 == u1:
            u2 = rng.randrange(g.n)
        yield i, g, u1, u2, rng.randint(1, g.n - 1)


def test_exhaustive_small_corpus():
    for name, g, u1, u2, n1 in _small_corpus():
        v1, v2 = partition2(g, u1, u2, n1)
        problem = validate_partition2(g, v1, v2, u1, u2, n1)
        assert problem is None, f"{name} u1={u1} u2={u2} n1={n1}: {problem}"


def test_random_instances():
    for _, g, u1, u2, n1 in _random_instances():
        v1, v2 = partition2(g, u1, u2, n1)
        assert validate_partition2(g, v1, v2, u1, u2, n1) is None


def test_one_st_numbering_per_partition(monkeypatch):
    # Non-adjacent anchors also run is_biconnected's search before the numbering.
    searches, orders = [], []
    search, st_order = treewalk.connectivity._lowpoint_search, treewalk.partition._st_order

    def counted_search(g, s, t):
        searches.append((s, t))
        return search(g, s, t)

    def counted_order(g, s, t):
        orders.append((s, t))
        return st_order(g, s, t)

    monkeypatch.setattr(treewalk.connectivity, "_lowpoint_search", counted_search)
    monkeypatch.setattr(treewalk.partition, "_st_order", counted_order)
    for label, g, u1, u2, n1 in itertools.chain(_small_corpus(), _random_instances()):
        searches.clear()
        orders.clear()
        partition2(g, u1, u2, n1)
        expected = 1 if g.has_edge(u1, u2) else 2
        assert orders == [(u1, u2)], f"{label} u1={u1} u2={u2} n1={n1}: {orders}"
        assert len(searches) == expected, f"{label} u1={u1} u2={u2} n1={n1}: {searches}"


def test_partition_numbering_is_checked(monkeypatch):
    # The check inside _st_order guards a partition's virtual-edge numbering
    # as it guards st_numbering.
    def refuse(*args):
        raise ValueError("forced")

    monkeypatch.setattr(treewalk.connectivity, "_extreme_neighbors", refuse)
    with pytest.raises(AssertionError, match=r"^st_numbering built an invalid order for \(0, 2\)$"):
        partition2(graphs.C4, 0, 2, 1)


def test_refusals_match_is_biconnected_on_the_atlas():
    # Every graph on 3..6 vertices, every ordered anchor pair and every n1:
    # a partition refuses exactly the graphs that are not 2-connected, also
    # where g plus (u1, u2) would be.
    nx = pytest.importorskip("networkx")
    calls = refusals = 0
    for h in nx.graph_atlas_g():
        if not 3 <= h.number_of_nodes() <= 6:
            continue
        g = Graph.from_edges(h.number_of_nodes(), list(h.edges()))
        biconnected = is_biconnected(g)
        for u1, u2 in itertools.permutations(range(g.n), 2):
            for n1 in range(1, g.n):
                calls += 1
                try:
                    v1, v2 = partition2(g, u1, u2, n1)
                except NotBiconnectedError:
                    refusals += 1
                    assert not biconnected, (sorted(g.edges), u1, u2, n1)
                    continue
                assert biconnected, (sorted(g.edges), u1, u2, n1)
                assert validate_partition2(g, v1, v2, u1, u2, n1) is None
    assert (calls, refusals) == (26564, 17244)


def test_rejects_bad_inputs():
    with pytest.raises(NotBiconnectedError):
        partition2(graphs.PATH3, 0, 2, 1)
    with pytest.raises(ValueError, match="distinct"):
        partition2(graphs.C4, 1, 1, 2)
    with pytest.raises(ValueError, match="out of range"):
        partition2(graphs.C4, 0, 9, 2)
    with pytest.raises(ValueError, match="n1 must be in"):
        partition2(graphs.C4, 0, 2, 0)
    with pytest.raises(ValueError, match="n1 must be in"):
        partition2(graphs.C4, 0, 2, 4)


def test_anchor_errors_come_before_the_connectivity_error():
    with pytest.raises(ValueError, match="distinct"):
        partition2(graphs.PATH3, 1, 1, 1)
    with pytest.raises(ValueError, match="out of range"):
        partition2(graphs.PATH3, 0, 9, 1)


def test_isolated_anchor_is_not_biconnected():
    g = Graph.from_edges(4, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(NotBiconnectedError, match="anchor 0 has no neighbor"):
        partition2(g, 0, 2, 1)
    with pytest.raises(NotBiconnectedError):
        partition2(g, 2, 0, 1)


def test_validator_rejections():
    g = graphs.C4
    assert "overlap" in validate_partition2(g, {0, 1}, {1, 2, 3}, 0, 2, 2)
    assert "cover" in validate_partition2(g, {0}, {2, 3}, 0, 2, 1)
    assert "expected 2" in validate_partition2(g, {0}, {1, 2, 3}, 0, 2, 2)
    assert "anchor 0 missing" in validate_partition2(g, {1, 2}, {0, 3}, 0, 3, 2)
    assert "anchor 3 missing" in validate_partition2(g, {0, 3}, {1, 2}, 0, 3, 2)
    assert "first part is not connected" in validate_partition2(
        g, {0, 2}, {1, 3}, 0, 1, 2
    )


def test_validator_disconnected_second_part():
    # Removing the middle of the path strands vertex 0 from {2, 3}.
    assert "second part is not connected" == validate_partition2(
        graphs.PATH4, {1}, {0, 2, 3}, 1, 0, 1
    )
