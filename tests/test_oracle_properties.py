"""Generative checks of the tree-graph oracle on small biconnected graphs."""

from __future__ import annotations

import random
from collections import deque

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from treewalk import (  # noqa: E402
    TreeGraphDisconnectedError,
    count_spanning_trees_kirchhoff,
    enumerate_spanning_trees,
    random_biconnected_graph,
    random_spanning_tree,
    shortest_tree_path,
    tree_distance,
    tree_graph_diameter,
    verify_walk,
)

from strategies import connected_graphs  # noqa: E402

# Derandomized so the suite sees the same examples on every run.
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def tree_pairs(draw):
    """(graph, root, tree, tree) on 4..7 vertices, from a drawn seed."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = random_biconnected_graph(draw(st.integers(4, 7)), rng)
    a = draw(st.integers(0, g.n - 1))
    return g, a, random_spanning_tree(g, a, rng), random_spanning_tree(g, a, rng)


def _reference_distance(g, a, t1, t2) -> int:
    """One-way BFS over parent tuples: a vertex other than ``a`` is a leaf
    when no entry names it, and a leaf may move to any other neighbor."""
    goal = t2.parents
    dist = {t1.parents: 0}
    queue = deque(dist)
    while queue:
        key = queue.popleft()
        if key == goal:
            return dist[key]
        inner = set(key)
        for v in range(g.n):
            if v == a or v in inner:
                continue
            for w in g.adj[v]:
                nxt = key[:v] + (w,) + key[v + 1:]
                if nxt not in dist:
                    dist[nxt] = dist[key] + 1
                    queue.append(nxt)
    raise AssertionError("the reference BFS never reached the target")


@SETTINGS
@given(tree_pairs())
def test_distance_equals_a_one_way_bfs(inst):
    g, a, t1, t2 = inst
    assert tree_distance(g, a, t1, t2) == _reference_distance(g, a, t1, t2)


@SETTINGS
@given(tree_pairs())
def test_shortest_path_has_that_length_and_verifies(inst):
    g, a, t1, t2 = inst
    seq = shortest_tree_path(g, a, t1, t2)
    assert len(seq.moves) == _reference_distance(g, a, t1, t2)
    report = verify_walk(g, a, seq, source=t1, target=t2)
    assert report.ok, report.summary()


def _outcome(search, *args):
    try:
        return search(*args)
    except TreeGraphDisconnectedError as exc:
        return str(exc)


@SETTINGS
@given(connected_graphs(), st.data())
def test_distance_search_agrees_with_the_path_search(inst, data):
    # Cut vertices and bridges leave some pairs unreachable: both searches
    # must then stop at the same level with the same message.
    g, a = inst
    trees = enumerate_spanning_trees(g, root=a)
    t1, t2 = (trees[data.draw(st.integers(0, len(trees) - 1))] for _ in range(2))
    path = _outcome(shortest_tree_path, g, a, t1, t2)
    distance = _outcome(tree_distance, g, a, t1, t2)
    assert distance == (path if isinstance(path, str) else len(path.moves))


@st.composite
def small_tree_graphs(draw):
    """(graph, root) on 4..7 vertices with at most 40 spanning trees."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = random_biconnected_graph(draw(st.integers(4, 7)), rng, extra_edges=0)
    assume(count_spanning_trees_kirchhoff(g) <= 40)
    return g, draw(st.integers(0, g.n - 1))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(small_tree_graphs())
def test_diameter_is_the_largest_pairwise_distance(inst):
    g, a = inst
    trees = enumerate_spanning_trees(g, root=a)
    pairwise = max(
        (tree_distance(g, a, t1, t2) for i, t1 in enumerate(trees) for t2 in trees[i + 1:]),
        default=0,
    )
    assert tree_graph_diameter(g, a) == pairwise
