from __future__ import annotations

import itertools
import random

import pytest

import treewalk.connectivity
from treewalk import (
    Graph,
    NotBiconnectedError,
    STNumbering,
    is_biconnected,
    random_biconnected_graph,
    st_numbering,
    validate_st_numbering,
)

import graphs


def _connected_after_deleting(g: Graph, dead: int) -> bool:
    alive = [v for v in range(g.n) if v != dead]
    if not alive:
        return True
    seen = {alive[0]}
    stack = [alive[0]]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w != dead and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(alive)


def _biconnected_brute(g: Graph) -> bool:
    if g.n < 3:
        return False
    if not _connected_after_deleting(g, -1):
        return False
    return all(_connected_after_deleting(g, v) for v in range(g.n))


def test_is_biconnected_on_corpus():
    for name, g in graphs.BICONNECTED.items():
        assert is_biconnected(g), name
    for name, g in graphs.NOT_BICONNECTED.items():
        assert not is_biconnected(g), name


def test_is_biconnected_agrees_with_brute_force():
    small = [g for g in graphs.ALL_GRAPHS.values() if g.n <= 7]
    assert len(small) >= 8
    for g in small:
        assert is_biconnected(g) == _biconnected_brute(g)
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(3, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.55]
        if not edges:
            continue
        g = Graph.from_edges(n, edges)
        assert is_biconnected(g) == _biconnected_brute(g)


def test_single_edge_graph_is_not_biconnected():
    assert not is_biconnected(Graph.from_edges(2, [(0, 1)]))


def test_st_numbering_triangle():
    num = st_numbering(graphs.TRIANGLE, 0, 2)
    assert num.order == (0, 1, 2)


def test_st_numbering_four_cycle():
    num = st_numbering(graphs.C4, 0, 3)
    assert validate_st_numbering(graphs.C4, num, 0, 3)
    assert num.order == (0, 1, 2, 3)


def test_st_numbering_errors():
    with pytest.raises(NotBiconnectedError):
        st_numbering(graphs.PATH3, 0, 1)
    with pytest.raises(ValueError):
        st_numbering(graphs.C4, 0, 2)  # not an edge


def test_st_numbering_is_deterministic():
    rng = random.Random(12)
    for _ in range(25):
        g = random_biconnected_graph(rng.randint(4, 20), rng)
        u, v = sorted(rng.choice(sorted(g.edges)))
        first = st_numbering(g, u, v)
        second = st_numbering(g, u, v)
        assert first.order == second.order


def test_st_numbering_every_edge_both_directions():
    for name, g in graphs.BICONNECTED.items():
        if g.n > 6:
            continue
        for u, v in sorted(g.edges):
            for s, t in ((u, v), (v, u)):
                num = st_numbering(g, s, t)
                assert validate_st_numbering(g, num, s, t), (name, s, t)


def test_validator_frozen_cases():
    ok = STNumbering((0, 1, 2, 3))
    assert validate_st_numbering(graphs.C4, ok, 0, 3)
    # vertex 2 sits at position 2 but both its neighbors come later
    bad = STNumbering((0, 2, 1, 3))
    assert not validate_st_numbering(graphs.C4, bad, 0, 3)
    # endpoints must match
    assert not validate_st_numbering(graphs.C4, ok, 1, 3)
    assert not validate_st_numbering(graphs.C4, ok, 0, 2)


def test_validator_rejects_a_numbering_of_the_wrong_size():
    # Both orders would pass on the vertices K4 has.
    assert not validate_st_numbering(graphs.K4, STNumbering((0, 1, 2)), 0, 2)
    assert not validate_st_numbering(graphs.K4, STNumbering((0, 1, 4, 2, 3)), 0, 3)


def _valid_by_definition(g: Graph, order: tuple[int, ...], s: int, t: int) -> bool:
    if order[0] != s or order[-1] != t or not g.has_edge(s, t):
        return False
    pos = {v: i for i, v in enumerate(order)}
    for v in order[1:-1]:
        nbr_pos = [pos[w] for w in g.adj[v]]
        if not (min(nbr_pos) < pos[v] < max(nbr_pos)):
            return False
    return True


def test_validator_matches_exhaustive_permutations():
    for name, g in graphs.ALL_GRAPHS.items():
        if g.n > 5:
            continue
        for s, t in sorted(g.edges):
            for perm in itertools.permutations(range(g.n)):
                num = STNumbering(perm)
                expected = _valid_by_definition(g, perm, s, t)
                assert validate_st_numbering(g, num, s, t) == expected, (name, perm)


def test_random_graphs_pass_validation():
    rng = random.Random(2024)
    for _ in range(150):
        g = random_biconnected_graph(rng.randint(4, 40), rng)
        u, v = rng.choice(sorted(g.edges))
        num = st_numbering(g, u, v)
        assert validate_st_numbering(g, num, u, v)


def test_positions_table_matches_order():
    num = STNumbering((2, 0, 3, 1))
    assert num.positions == (2, 4, 1, 3)
    assert num.order == (2, 0, 3, 1)
    with pytest.raises(ValueError):
        STNumbering((0, 0, 1))


def test_st_numbering_result_is_checked(monkeypatch):
    monkeypatch.setattr(treewalk.connectivity, "validate_st_numbering", lambda *args: False)
    with pytest.raises(AssertionError, match="invalid order"):
        st_numbering(graphs.C4, 0, 1)
