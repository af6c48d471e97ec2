"""Generative checks of ``tree_from_edges`` against a breadth-first orientation."""

from __future__ import annotations

from collections import deque

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from treewalk import tree_from_edges  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def bfs_parents(n: int, edges: list[tuple[int, int]], root: int) -> tuple[int, ...]:
    """The parent array of the tree ``edges``, oriented away from ``root`` by breadth-first search."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parents = [-1] * n
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                parents[v] = u
                queue.append(v)
    return tuple(parents)


def first_closing_edge(n: int, edges: list[tuple[int, int]]) -> tuple[int, int] | None:
    """The first edge whose ends earlier edges already connect, by a relabelling union-find."""
    comp = list(range(n))
    for u, v in edges:
        if comp[u] == comp[v]:
            return u, v
        old = comp[u]
        comp = [comp[v] if c == old else c for c in comp]
    return None


@SETTINGS
@given(st.data())
def test_any_order_and_direction_of_tree_edges_orients_as_bfs(data):
    n = data.draw(st.integers(1, 12))
    labels = data.draw(st.permutations(range(n)))
    edges = [(labels[data.draw(st.integers(0, v - 1))], labels[v]) for v in range(1, n)]
    edges = data.draw(st.permutations(edges))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
    root = data.draw(st.integers(0, n - 1))
    assert tree_from_edges(n, edges, root).parents == bfs_parents(n, edges, root)


@SETTINGS
@given(st.data())
def test_the_error_names_the_first_edge_that_closes_a_cycle(data):
    # n - 1 arbitrary pairs, self-loops and repeats included: without a
    # cycle they span, and otherwise the first cycle is named.
    n = data.draw(st.integers(2, 8))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = data.draw(st.lists(edge, min_size=n - 1, max_size=n - 1))
    root = data.draw(st.integers(0, n - 1))
    closing = first_closing_edge(n, edges)
    if closing is None:
        assert tree_from_edges(n, edges, root).parents == bfs_parents(n, edges, root)
    else:
        with pytest.raises(ValueError, match=rf"^edge \({closing[0]}, {closing[1]}\) closes a cycle$"):
            tree_from_edges(n, edges, root)
