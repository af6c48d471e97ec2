from __future__ import annotations

import pytest

from treewalk import (
    is_biconnected,
    lower_bound_value,
    make_gk,
    spanning_tree_violation,
)

import graphs  # noqa: F401  (imported for the shared sys.path hook only)


def test_k1_instance_is_fully_pinned():
    inst = make_gk(1)
    assert inst.k == 1
    assert inst.root == 0
    assert inst.graph.n == 5
    assert inst.graph.edges == frozenset(
        {(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)}
    )
    assert inst.tree_a.edges() == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})
    assert inst.tree_b.edges() == frozenset({(0, 1), (0, 2), (1, 4), (2, 3)})


def test_counts_follow_closed_forms():
    for k in (1, 2, 3, 5, 10, 25):
        inst = make_gk(k)
        assert inst.graph.n == 4 * k + 1
        assert inst.graph.m == 6 * k


def test_trees_are_spanning_trees_up_to_k50():
    for k in range(1, 51):
        inst = make_gk(k)
        assert spanning_tree_violation(inst.graph, inst.tree_a) is None, k
        assert spanning_tree_violation(inst.graph, inst.tree_b) is None, k
        assert inst.tree_a.root == inst.tree_b.root == 0


def test_instances_are_biconnected():
    for k in (1, 2, 3, 4, 8, 16):
        assert is_biconnected(make_gk(k).graph), k


def test_tree_a_is_the_vertex_path():
    for k in (1, 2, 4):
        inst = make_gk(k)
        expected = tuple([-1] + [i - 1 for i in range(1, inst.graph.n)])
        assert inst.tree_a.parents == expected


def test_tree_intersection_closed_form():
    for k in range(1, 7):
        inst = make_gk(k)
        expected = {(0, 1)}
        expected.update((4 * i + 2, 4 * i + 3) for i in range(k))
        expected.update((4 * i + 4, 4 * i + 5) for i in range(k - 1))
        actual = inst.tree_a.edges() & inst.tree_b.edges()
        assert actual == frozenset(expected), k


def test_lower_bound_small_values():
    assert lower_bound_value(1) == 0
    assert lower_bound_value(2) == 4
    assert lower_bound_value(3) == 12


def test_lower_bound_matches_the_sum_it_abbreviates():
    for k in range(1, 120):
        assert lower_bound_value(k) == sum(4 * k - (4 * i + 4) for i in range(k))
    assert lower_bound_value(10**4) == 2 * 10**4 * (10**4 - 1)


def test_rejects_nonpositive_k():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            make_gk(bad)
        with pytest.raises(ValueError):
            lower_bound_value(bad)
