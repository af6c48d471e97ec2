from __future__ import annotations

import random
import sys
import time

import pytest

import treewalk.oracle
from treewalk.oracle import DEFAULT_CAP
from treewalk import (
    CapExceededError,
    Graph,
    LeafMove,
    RootedSpanningTree,
    TreeGraphDisconnectedError,
    WalkSequence,
    count_spanning_trees_kirchhoff,
    enumerate_spanning_trees,
    experiment_table,
    lower_bound_value,
    make_gk,
    random_biconnected_graph,
    random_spanning_tree,
    removal_times,
    shortest_tree_path,
    spanning_tree_violation,
    tree_distance,
    tree_from_edges,
    tree_graph_diameter,
    trees_adjacent,
    verify_walk,
    walk,
)

import graphs


def test_enumeration_matches_known_counts():
    for name, g in graphs.ALL_GRAPHS.items():
        trees = enumerate_spanning_trees(g, root=0)
        assert len(trees) == graphs.SPANNING_TREE_COUNTS[name], name
        keys = {t.parents for t in trees}
        assert len(keys) == len(trees), f"{name}: duplicate trees"
        for t in trees:
            assert t.root == 0
            assert spanning_tree_violation(g, t) is None


def test_kirchhoff_matches_known_counts():
    for name, g in graphs.ALL_GRAPHS.items():
        assert count_spanning_trees_kirchhoff(g) == graphs.SPANNING_TREE_COUNTS[name], name


def test_kirchhoff_disconnected_graph_counts_zero():
    assert count_spanning_trees_kirchhoff(Graph.from_edges(4, [(0, 1), (2, 3)])) == 0


def test_counting_routes_agree_on_gk():
    expected = {1: 11, 2: 153, 3: 2131}
    for k, count in expected.items():
        g = make_gk(k).graph
        assert count_spanning_trees_kirchhoff(g) == count
        if k <= 2:
            assert len(enumerate_spanning_trees(g, root=0)) == count


def test_counting_routes_agree_on_random_graphs():
    rng = random.Random(63)
    for _ in range(25):
        g = random_biconnected_graph(rng.randint(4, 9), rng)
        assert len(enumerate_spanning_trees(g)) == count_spanning_trees_kirchhoff(g)


def test_enumeration_cap():
    with pytest.raises(CapExceededError) as info:
        enumerate_spanning_trees(graphs.K5, cap=10)
    assert info.value.count == 10


def test_enumeration_refuses_a_graph_past_the_cap_by_its_tree_count():
    start = time.perf_counter()
    with pytest.raises(CapExceededError) as info:
        enumerate_spanning_trees(make_gk(7).graph)
    assert time.perf_counter() - start < 1.0
    assert info.value.count == DEFAULT_CAP


def test_enumeration_without_the_tree_count_meets_the_cap_as_it_goes(monkeypatch):
    # A count that is wrong low refuses nothing; enumeration still meets the cap.
    calls = []

    def wrong_count(g):
        calls.append(g)
        return 0

    monkeypatch.setattr(treewalk.oracle, "count_spanning_trees_kirchhoff", wrong_count)
    assert len(enumerate_spanning_trees(graphs.K5)) == 125
    with pytest.raises(CapExceededError) as info:
        enumerate_spanning_trees(graphs.K5, cap=10)
    assert info.value.count == 10
    assert len(calls) == 2


def test_enumeration_does_not_recurse_per_edge():
    # 1,099 edges: deeper than the default recursion limit allows one frame per edge.
    n = 1100
    assert sys.getrecursionlimit() <= n
    path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    trees = enumerate_spanning_trees(path, root=n - 1)
    assert [t.parents for t in trees] == [tuple(range(1, n)) + (-1,)]


def test_enumeration_on_a_long_cycle_is_not_cubic():
    # The forest of a cycle grows paths of length n, so a cycle test that
    # walked them would make this cubic in n.
    n = 1200
    cycle = Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])
    start = time.perf_counter()
    trees = enumerate_spanning_trees(cycle)
    elapsed = time.perf_counter() - start
    assert len(set(trees)) == len(trees) == n
    assert elapsed < 15.0, f"{elapsed:.1f} s for the {n} spanning trees of C_{n}"


def test_bfs_cap():
    t1 = tree_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)], root=0)
    t2 = tree_from_edges(5, [(0, 4), (4, 3), (3, 2), (2, 1)], root=0)
    with pytest.raises(CapExceededError):
        tree_distance(graphs.C5, 0, t1, t2, cap=2)


def test_distance_cap_counts_the_trees_held_in_the_level_sets():
    # G_3's search holds at most 175 trees in its four level sets at once.
    inst = make_gk(3)
    args = (inst.graph, inst.root, inst.tree_a, inst.tree_b)
    assert tree_distance(*args, cap=175) == 36
    with pytest.raises(CapExceededError) as info:
        tree_distance(*args, cap=174)
    assert info.value.count > 174
    # The path search keeps every tree it reached, so the same cap stops it.
    with pytest.raises(CapExceededError):
        shortest_tree_path(*args, cap=175)


def test_g5_distance_fits_a_cap_that_stops_the_path_search():
    inst = make_gk(5)
    args = (inst.graph, inst.root, inst.tree_a, inst.tree_b)
    assert tree_distance(*args, cap=10_000) == 100
    with pytest.raises(CapExceededError):
        shortest_tree_path(*args, cap=10_000)


G1 = make_gk(1)
CAPPED_CALLS = {
    "enumerate_spanning_trees": lambda cap: enumerate_spanning_trees(G1.graph, cap=cap),
    "tree_distance": lambda cap: tree_distance(G1.graph, 0, G1.tree_a, G1.tree_b, cap=cap),
    "shortest_tree_path": lambda cap: shortest_tree_path(G1.graph, 0, G1.tree_a, G1.tree_b, cap=cap),
    "tree_graph_diameter": lambda cap: tree_graph_diameter(G1.graph, 0, cap=cap),
    "experiment_table": lambda cap: experiment_table(2, cap=cap),
}


@pytest.mark.parametrize("name", sorted(CAPPED_CALLS))
def test_a_negative_cap_is_a_value_error(name):
    # It used to read as "cap exceeded": CapExceededError, or no distances.
    call = CAPPED_CALLS[name]
    with pytest.raises(ValueError) as info:
        call(-1)
    assert str(info.value) == "cap must be non-negative, got -1"
    if name == "experiment_table":
        assert [row.oracle_distance for row in call(0)] == [None, None]
    else:
        with pytest.raises(CapExceededError):
            call(0)


def test_distance_basics():
    t_star = tree_from_edges(3, [(0, 1), (0, 2)], root=0)
    t_path = tree_from_edges(3, [(0, 1), (1, 2)], root=0)
    assert tree_distance(graphs.TRIANGLE, 0, t_star, t_star) == 0
    assert tree_distance(graphs.TRIANGLE, 0, t_star, t_path) == 1
    with pytest.raises(ValueError):
        tree_distance(graphs.TRIANGLE, 1, t_star, t_path)
    # vertex 2 hangs from 0, but (0, 2) is no edge of C5
    off_graph = RootedSpanningTree(0, (-1, 0, 0, 2, 0))
    c5_path = tree_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)], root=0)
    with pytest.raises(ValueError, match=r"source tree invalid: tree edge \(2, 0\) is not a graph edge"):
        tree_distance(graphs.C5, 0, off_graph, c5_path)
    with pytest.raises(ValueError, match="target tree invalid: vertex count mismatch"):
        tree_distance(graphs.C5, 0, c5_path, t_path)
    # every parent entry is a K4 edge, but 1 -> 2 -> 3 -> 1 never reaches the root
    cyclic = RootedSpanningTree(0, (-1, 2, 3, 1))
    k4_star = tree_from_edges(4, [(0, 1), (0, 2), (0, 3)], root=0)
    with pytest.raises(ValueError, match="source tree invalid: parent chain from vertex 1 loops"):
        tree_distance(graphs.K4, 0, cyclic, k4_star)
    # the trees are checked before the equal-trees shortcut
    with pytest.raises(ValueError, match="source tree invalid"):
        tree_distance(graphs.C5, 0, off_graph, off_graph)
    with pytest.raises(ValueError, match="source tree invalid"):
        shortest_tree_path(graphs.K4, 0, cyclic, cyclic)


def test_distance_is_symmetric():
    rng = random.Random(17)
    for _ in range(15):
        g = random_biconnected_graph(rng.randint(4, 7), rng)
        t1 = random_spanning_tree(g, 0, rng)
        t2 = random_spanning_tree(g, 0, rng)
        assert tree_distance(g, 0, t1, t2) == tree_distance(g, 0, t2, t1)


def test_distance_one_iff_adjacent_and_distinct():
    rng = random.Random(29)
    for name, g in graphs.BICONNECTED.items():
        if g.n > 6:
            continue
        trees = enumerate_spanning_trees(g, root=0)
        for _ in range(60):
            t1, t2 = rng.choice(trees), rng.choice(trees)
            d = tree_distance(g, 0, t1, t2)
            assert (d == 1) == (trees_adjacent(t1, t2, 0) and t1 != t2), name


def test_gk_distances():
    measured = {}
    for k in (1, 2, 3, 4):
        inst = make_gk(k)
        d = tree_distance(inst.graph, inst.root, inst.tree_a, inst.tree_b)
        measured[k] = d
        assert d >= lower_bound_value(k)
    # regression values from this oracle; the bound above is the real contract
    assert measured == {1: 4, 2: 16, 3: 36, 4: 64}


def test_gk_tree_graph_diameters_are_twice_the_gk_distances():
    # At root 0 the leaf-move graph of G_k has diameter 8k^2, twice the
    # distance between the instance's two trees.
    for k in (1, 2, 3):
        inst = make_gk(k)
        diameter = tree_graph_diameter(inst.graph, 0)
        assert diameter == 8 * k * k
        assert diameter == 2 * tree_distance(inst.graph, inst.root, inst.tree_a, inst.tree_b)


def test_disconnected_tree_graph_is_reported():
    # Vertex 2 cuts the two triangles apart, so it can never become a leaf and
    # its parent pointer is frozen; trees disagreeing there are unreachable.
    g = graphs.TWO_TRIANGLES
    t1 = tree_from_edges(5, [(0, 1), (0, 2), (2, 3), (2, 4)], root=0)
    t2 = tree_from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)], root=0)
    with pytest.raises(TreeGraphDisconnectedError):
        tree_distance(g, 0, t1, t2)
    with pytest.raises(TreeGraphDisconnectedError):
        tree_graph_diameter(g, 0)


def test_shortest_path_is_a_valid_walk_of_the_right_length():
    rng = random.Random(43)
    for _ in range(15):
        g = random_biconnected_graph(rng.randint(4, 8), rng)
        t1 = random_spanning_tree(g, 0, rng)
        t2 = random_spanning_tree(g, 0, rng)
        d = tree_distance(g, 0, t1, t2)
        seq = shortest_tree_path(g, 0, t1, t2)
        assert len(seq.moves) == d
        assert seq.trees[0] == t1 and seq.trees[-1] == t2
        report = verify_walk(g, 0, seq, source=t1, target=t2)
        assert report.ok, report.summary()


def test_shortest_path_trivial():
    t = tree_from_edges(3, [(0, 1), (1, 2)], root=0)
    seq = shortest_tree_path(graphs.TRIANGLE, 0, t, t)
    assert len(seq.trees) == 1 and seq.moves == ()


def test_diameters_match_frozen_values():
    for name, expected in graphs.TREE_GRAPH_DIAMETERS.items():
        g = graphs.BICONNECTED[name]
        assert tree_graph_diameter(g, 0) == expected, name
        assert expected <= 2 * g.n * (g.n - 1)


def test_long_cycle_packs_parents_wider_than_a_byte():
    # The spanning trees of C_n rooted at 0 form a path: tree i lacks edge
    # (i, i+1), and only neighboring trees share a movable leaf.
    n = 300
    cycle = Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])
    first = tree_from_edges(n, [(v, v + 1) for v in range(1, n - 1)] + [(0, n - 1)], root=0)
    last = tree_from_edges(n, [(v, v + 1) for v in range(n - 1)], root=0)
    seq = shortest_tree_path(cycle, 0, first, last)
    assert len(seq.moves) == n - 1
    assert verify_walk(cycle, 0, seq, source=first, target=last).ok
    assert tree_graph_diameter(cycle, 0) == n - 1


def test_oracle_roots_out_of_range_are_rejected():
    for root in (99, -1):
        with pytest.raises(ValueError, match=f"root {root} out of range for 3 vertices"):
            enumerate_spanning_trees(graphs.TRIANGLE, root=root)
        with pytest.raises(ValueError, match=f"root {root} out of range for 3 vertices"):
            tree_graph_diameter(graphs.TRIANGLE, root)


def test_oracle_rejects_a_root_out_of_range_on_a_graph_without_spanning_trees():
    split = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert enumerate_spanning_trees(split, root=0) == []
    for root in (99, -1):
        with pytest.raises(ValueError, match=f"root {root} out of range for 4 vertices"):
            enumerate_spanning_trees(split, root=root)
        with pytest.raises(ValueError, match=f"root {root} out of range for 4 vertices"):
            tree_graph_diameter(split, root)


def test_diameter_of_a_graph_without_spanning_trees_is_an_error():
    split = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="graph is disconnected: it has no spanning tree"):
        tree_graph_diameter(split, 0)


def test_diameter_of_single_tree_graph_is_zero():
    assert tree_graph_diameter(graphs.PATH3, 0) == 0


def test_oracle_never_beats_the_walk():
    rng = random.Random(59)
    for _ in range(20):
        g = random_biconnected_graph(rng.randint(4, 8), rng)
        t1 = random_spanning_tree(g, 0, rng)
        t2 = random_spanning_tree(g, 0, rng)
        d = tree_distance(g, 0, t1, t2)
        constructed = walk(g, 0, t1, t2)
        assert d <= len(constructed.moves)


def test_removal_times_basics():
    t1 = tree_from_edges(3, [(0, 1), (1, 2)], root=0)
    t2 = tree_from_edges(3, [(0, 1), (0, 2)], root=0)
    seq = WalkSequence(t1, (LeafMove(2, 1, 0),))
    assert seq.target == t2
    ana = removal_times(seq, [(1, 2), (0, 1)])
    assert ana.length == 2
    assert ana.time_of(2, 1) == 1   # normalized lookup works both ways
    assert ana.time_of(0, 1) is None  # survives the whole walk
    for t in ana.times:
        assert t is None or 1 <= t < ana.length


def test_removal_times_first_occurrence_wins():
    # edge (1, 2) leaves at step 1, returns, then leaves again at step 3
    a = tree_from_edges(3, [(0, 1), (1, 2)], root=0)
    seq = WalkSequence(a, (LeafMove(2, 1, 0), LeafMove(2, 0, 1), LeafMove(2, 1, 0)))
    assert removal_times(seq, [(1, 2)]).time_of(1, 2) == 1


def test_removal_times_follow_the_trees_not_the_old_parent_fields():
    # the move names a stale old parent: the edge that really leaves is (0, 2)
    star = tree_from_edges(3, [(0, 1), (0, 2)], root=0)
    seq = WalkSequence(star, (LeafMove(2, 1, 1),))
    assert removal_times(seq, [(0, 2), (1, 2)]).times == (1, None)


def _assert_removal_chain(k: int) -> None:
    """Along the shortest G_k walk the path edges (i, i+1), i < 4k, leave in
    strictly decreasing order of i."""
    inst = make_gk(k)
    seq = shortest_tree_path(inst.graph, inst.root, inst.tree_a, inst.tree_b)
    probes = [(i, i + 1) for i in range(1, 4 * k)]
    ana = removal_times(seq, probes)
    values = [ana.time_of(*e) for e in probes]
    assert all(t is not None for t in values)
    assert values == sorted(values, reverse=True)
    assert len(set(values)) == len(values)


def test_g2_shortest_walk_removal_chain():
    _assert_removal_chain(2)


def test_g4_shortest_walk_removal_chain():
    _assert_removal_chain(4)  # 15 probes


def test_shortest_tree_path_checks_each_step(monkeypatch):
    # A search result whose single step changes two parent entries.
    star = RootedSpanningTree(0, (-1, 0, 0, 0))
    path = RootedSpanningTree(0, (-1, 0, 1, 2))
    space = treewalk.oracle._PackedTrees(graphs.K4, 0)
    corrupt = [space.pack(star), space.pack(path)]
    monkeypatch.setattr(treewalk.oracle, "_meet_in_the_middle", lambda *args, **kwargs: corrupt)
    with pytest.raises(AssertionError, match="changes 2 parent entries"):
        shortest_tree_path(graphs.K4, 0, star, path)
