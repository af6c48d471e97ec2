from __future__ import annotations

import random
import time
import tracemalloc

import pytest

from treewalk import (
    Graph,
    GraphFormatError,
    LeafMove,
    RootedSpanningTree,
    format_graph,
    format_tree,
    parse_graph,
    parse_tree,
    random_biconnected_graph,
    random_spanning_tree,
    spanning_tree_violation,
    tree_from_edges,
    trees_adjacent,
    trees_adjacent_via_move,
)

from treewalk.graph import _parse_graph_bulk

import graphs


def test_graph_normalizes_edges_and_sorts_adjacency():
    g = Graph.from_edges(4, [(3, 0), (2, 1), (0, 1)])
    assert g.m == 3
    assert (0, 3) in g.edges
    assert g.has_edge(3, 0) and g.has_edge(0, 3)
    assert not g.has_edge(0, 2)
    assert g.adj[0] == (1, 3)
    assert g.adj[1] == (0, 2)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(1, [])


def test_tree_shape_validation():
    t = RootedSpanningTree(0, (-1, 0, 1))
    assert t.n == 3
    assert t.parents[2] == 1
    assert t.edges() == frozenset({(0, 1), (1, 2)})
    with pytest.raises(ValueError):
        RootedSpanningTree(0, (0, 0, 1))  # root parent must be -1
    with pytest.raises(ValueError):
        RootedSpanningTree(0, (-1, 1, 1))  # self-parent
    with pytest.raises(ValueError):
        RootedSpanningTree(0, (-1, 5, 1))  # out of range
    with pytest.raises(ValueError):
        RootedSpanningTree(9, (-1, 0, 1))


def test_spanning_tree_violation_cases():
    g = graphs.C4
    good = tree_from_edges(4, [(0, 1), (1, 2), (2, 3)], root=0)
    assert spanning_tree_violation(g, good) is None

    # (0, 2) is not an edge of the 4-cycle
    chord = RootedSpanningTree(0, (-1, 0, 0, 2))
    assert "not a graph edge" in spanning_tree_violation(g, chord)

    # parent array with a 2-cycle among 1 and 2... use K4 so the edges exist
    cyc = RootedSpanningTree(0, (-1, 2, 1, 0))
    assert "loops back" in spanning_tree_violation(graphs.K4, cyc)

    small = tree_from_edges(3, [(0, 1), (1, 2)], root=0)
    assert "vertex count mismatch" in spanning_tree_violation(g, small)


def test_tree_from_edges_rejects_a_root_out_of_range():
    for root in (99, -1, 3):
        with pytest.raises(ValueError, match=f"root {root} out of range for 3 vertices"):
            tree_from_edges(3, [(0, 1), (1, 2)], root=root)


def test_tree_from_edges_rejects_non_trees():
    with pytest.raises(ValueError):
        tree_from_edges(4, [(0, 1), (1, 2)], root=0)
    with pytest.raises(ValueError):
        tree_from_edges(4, [(0, 1), (1, 2), (0, 2)], root=0)  # cycle misses vertex 3
    with pytest.raises(ValueError, match=r"edge \(0, 2\) closes a cycle"):
        tree_from_edges(4, [(0, 1), (1, 2), (0, 2)], root=0)
    with pytest.raises(ValueError, match=r"edge \(1, 3\) closes a cycle"):
        tree_from_edges(4, [(1, 2), (2, 3), (1, 3)], root=0)
    with pytest.raises(ValueError, match=r"edge \(2, 3\) closes a cycle"):
        tree_from_edges(4, [(0, 1), (2, 3), (2, 3)], root=0)
    with pytest.raises(ValueError, match=r"edge \(2, 2\) closes a cycle"):
        tree_from_edges(3, [(0, 1), (2, 2)], root=0)
    # an end outside 0..n-1 is refused, not read as another vertex
    with pytest.raises(ValueError, match=r"edge \(0, -1\) out of range for n=3"):
        tree_from_edges(3, [(0, -1), (0, 1)], root=0)
    with pytest.raises(ValueError, match=r"edge \(0, 5\) out of range for n=3"):
        tree_from_edges(3, [(0, 5), (1, 2)], root=0)
    # edges in any order, either way round, orient the same tree
    assert tree_from_edges(5, [(3, 4), (2, 3), (1, 2), (0, 1)], root=0).parents == (-1, 0, 1, 2, 3)
    assert tree_from_edges(5, [(3, 4), (0, 4), (1, 2), (1, 3)], root=2).parents == (4, 2, -1, 1, 3)


def test_tree_from_edges_orients_long_paths_and_random_trees_fast():
    # In a path grown at alternating ends every edge joins a new vertex to a
    # long path: only hanging the smaller side keeps that cheap both ways round.
    n = 200_000
    zigzag = [(0, 1)] + [(v - 2, v) for v in range(2, n)]
    rng = random.Random(3)
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    expected = tuple([-1, 0] + list(range(n - 2)))
    for edges, parents in (
        (zigzag, expected),
        ([(v, u) for u, v in zigzag], expected),
        (rng.sample(tree, len(tree)), tuple([-1] + [u for u, v in tree])),
    ):
        start = time.perf_counter()
        result = tree_from_edges(n, edges, root=0)
        assert time.perf_counter() - start < 2.0
        assert result.parents == parents


def test_leaf_move_basics():
    mv = LeafMove(2, 0, 1)
    assert (mv.vertex, mv.old_parent, mv.new_parent) == (2, 0, 1)
    assert hash(mv) == hash(LeafMove(2, 0, 1)) == hash((2, 0, 1))
    assert len({mv, LeafMove(2, 0, 1), LeafMove(2, 1, 0)}) == 2
    # A named tuple: equal to the plain tuple of its fields.
    assert mv == (2, 0, 1)
    with pytest.raises(ValueError):
        LeafMove(2, 0, 2)
    with pytest.raises(ValueError):
        LeafMove(vertex=2, old_parent=0, new_parent=2)
    with pytest.raises(ValueError):
        mv._replace(new_parent=2)
    with pytest.raises(AttributeError):
        mv.new_parent = 3
    assert mv == LeafMove(2, 0, 1)


def test_adjacency_frozen_pairs():
    a = 0
    # same tree: adjacent by convention (shared edges already span everything)
    t1 = tree_from_edges(3, [(0, 1), (0, 2)], root=a)
    assert trees_adjacent(t1, t1, a)
    assert trees_adjacent_via_move(t1, t1, a)

    # one leaf rehung
    t2 = tree_from_edges(3, [(0, 1), (1, 2)], root=a)
    assert trees_adjacent(t1, t2, a)
    assert trees_adjacent_via_move(t1, t2, a)

    # chains through different middle vertices: both parents differ
    t3 = tree_from_edges(3, [(0, 2), (2, 1)], root=a)
    assert not trees_adjacent(t2, t3, a)
    assert not trees_adjacent_via_move(t2, t3, a)


def test_adjacency_rejects_moved_non_leaf():
    # On K4: parent arrays differ only at vertex 1, but 1 has child 2 in both,
    # so the shared edges strand {1, 2} away from the root's side.
    ta = RootedSpanningTree(0, (-1, 0, 1, 0))
    tb = RootedSpanningTree(0, (-1, 3, 1, 0))
    assert not trees_adjacent(ta, tb, 0)
    assert not trees_adjacent_via_move(ta, tb, 0)


def test_adjacency_shape_errors():
    t3 = tree_from_edges(3, [(0, 1), (1, 2)], root=0)
    t4 = tree_from_edges(4, [(0, 1), (1, 2), (2, 3)], root=0)
    with pytest.raises(ValueError):
        trees_adjacent(t3, t4, 0)
    r1 = tree_from_edges(3, [(0, 1), (1, 2)], root=1)
    with pytest.raises(ValueError):
        trees_adjacent_via_move(t3, r1, 0)


def test_adjacency_tests_agree_on_random_pairs():
    rng = random.Random(404)
    for _ in range(300):
        n = rng.randint(4, 12)
        g = random_biconnected_graph(n, rng)
        t1 = random_spanning_tree(g, 0, rng)
        t2 = random_spanning_tree(g, 0, rng)
        assert trees_adjacent(t1, t2, 0) == trees_adjacent_via_move(t1, t2, 0)


def test_adjacency_is_symmetric():
    rng = random.Random(77)
    for _ in range(100):
        g = random_biconnected_graph(rng.randint(4, 10), rng)
        t1 = random_spanning_tree(g, 0, rng)
        t2 = random_spanning_tree(g, 0, rng)
        assert trees_adjacent(t1, t2, 0) == trees_adjacent(t2, t1, 0)


def test_graph_text_round_trip():
    for name, g in graphs.ALL_GRAPHS.items():
        again = parse_graph(format_graph(g))
        assert again == g, name


def test_tree_text_round_trip():
    rng = random.Random(9)
    for _ in range(20):
        g = random_biconnected_graph(rng.randint(3, 10), rng)
        t = random_spanning_tree(g, rng.randrange(g.n), rng)
        assert parse_tree(format_tree(t)) == t


def test_parse_graph_accepts_comments_and_blanks():
    text = "# sample\n\n3 3\n0 1\n# middle\n1 2\n0 2\n"
    assert parse_graph(text) == graphs.TRIANGLE


# Each entry pins the whole message, so the line number of the edge that
# Graph.from_edges rejects is checked too.
AD_GRAPH_ERRORS = [
    ("", "empty graph description"),
    ("3\n0 1\n", "line 1: expected 2 integers, got '3'"),
    ("3 2\n0 1\n", "expected 2 edge lines, found 1"),
    ("3 1\n0 1\n1 2\n", "line 3: unexpected extra line '1 2'"),
    ("3 -1\n", "line 1: negative edge count -1"),
    ("# c\n3 -2\n0 1\n", "line 2: negative edge count -2"),
    ("3 1\n0 9\n", "line 2: edge (0, 9) out of range for n=3"),
    ("3 1\n1 1\n", "line 2: self-loop at vertex 1"),
    ("3 2\n0 1\n1 0\n", "line 3: duplicate edge (1, 0)"),
    ("1 0\n", "line 1: need at least 2 vertices, got 1"),
    ("3 1\n0 x\n", "line 2: expected 2 integers, got '0 x'"),
    ("# c\n\n1 0\n", "line 3: need at least 2 vertices, got 1"),
    ("# c\n3 3\n0 1\n\n# d\n1 2\n2 2\n", "line 7: self-loop at vertex 2"),
    ("3 3\n0 1\n# d\n1 2\n2 1\n", "line 5: duplicate edge (2, 1)"),
]


def test_parse_graph_error_messages():
    for text, message in AD_GRAPH_ERRORS:
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == message, text


# A header may claim at most 2m + 2 vertices, and a claim is checked before
# anything of size n is built, so a few bytes cannot take megabytes.
HEADER_BOUND_ERRORS = [
    ("2000000 0\n", "line 1: 2000000 vertices exceed 2m + 2 for m = 0"),
    ("20000000 0\n", "line 1: 20000000 vertices exceed 2m + 2 for m = 0"),
    ("# c\n7 2\n0 1\n2 3\n", "line 2: 7 vertices exceed 2m + 2 for m = 2"),
    ("20000000 10000000\n", "expected 10000000 edge lines, found 0"),
    ("20000000 10000000\n0 1\n", "expected 10000000 edge lines, found 1"),
]


@pytest.mark.parametrize("text, message", HEADER_BOUND_ERRORS)
def test_parse_graph_refuses_a_header_beyond_its_edges(text, message):
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == message
    assert peak < 1 << 20


def test_parse_graph_takes_up_to_2m_plus_2_vertices():
    g = parse_graph("6 2\n0 1\n2 3\n")
    assert (g.n, sorted(g.edges), g.adj[5]) == (6, [(0, 1), (2, 3)], ())
    assert parse_graph("2 0\n") == Graph.from_edges(2, [])


# The writer's numbers in another layout: the bulk reader turns each text
# down, so the line reader reads it or names the line at fault.
@pytest.mark.parametrize("text, outcome", [
    ("3 2\n0 1 2\n0\n", "line 2: expected 2 integers, got '0 1 2'"),
    ("2 1\n0\x0c1\n", "line 3: unexpected extra line '1'"),
    ("3 2\n0\t1\n1 2\n", {(0, 1), (1, 2)}),
    ("3 2\n0  1\n1 2\n", {(0, 1), (1, 2)}),
    ("3 2\n0 1\n01 2\n", {(0, 1), (1, 2)}),
    ("3 2\n0 1\n1 2", {(0, 1), (1, 2)}),
])
def test_parse_graph_reads_other_layouts_line_by_line(text, outcome):
    assert _parse_graph_bulk(text) is None
    if isinstance(outcome, str):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == outcome
    else:
        assert parse_graph(text).edges == outcome


AD_TREE_ERRORS = [
    ("", "empty"),
    ("3 0\n1 0\n", "expected 2 parent lines"),
    ("3 9\n1 0\n2 0\n", "out of range"),
    ("3 0\n0 1\n2 0\n", "may not have a parent"),
    ("3 0\n1 0\n1 2\n", "duplicate parent entry"),
    ("3 0\n1 1\n2 0\n", "cannot be its own parent"),
    ("3 0\n1 5\n2 0\n", "out of range"),
]


def test_parse_tree_error_messages():
    for text, fragment in AD_TREE_ERRORS:
        with pytest.raises(GraphFormatError, match=fragment):
            parse_tree(text)
