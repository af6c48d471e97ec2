from __future__ import annotations

import ast
import copy
import gc
import importlib
import os
import random
import subprocess
import sys
import time
import tracemalloc
from array import array
from collections.abc import Sequence
from pathlib import Path

import pytest

import treewalk
from treewalk import (
    Graph,
    LeafClaimError,
    LeafMove,
    NotBiconnectedError,
    RootedSpanningTree,
    STNumbering,
    WalkSequence,
    canonical_tree,
    format_tree,
    format_walk_moves,
    format_walk_trees,
    parse_walk_moves,
    random_biconnected_graph,
    random_spanning_tree,
    removal_times,
    st_numbering,
    tree_from_edges,
    trees_adjacent,
    trees_adjacent_via_move,
    verify_walk,
    walk,
    walk_from_canonical,
)
from treewalk.connectivity import _extreme_neighbors
from treewalk.graph import GraphFormatError, _child_counts
from treewalk.walk import _advance_stage
import graphs
from stages import gap_sequence, milestone_tree, select_boundary_edge, stage_tables

TRI_NUM = STNumbering((0, 1, 2))
TRI_TARGET = RootedSpanningTree(0, (-1, 0, 1))  # path 0-1-2


def test_canonical_tree_triangle():
    t = canonical_tree(graphs.TRIANGLE, TRI_NUM)
    assert t.parents == (-1, 2, 0)


def test_canonical_tree_four_cycle():
    t = canonical_tree(graphs.C4, STNumbering((0, 1, 2, 3)))
    assert t.parents == (-1, 2, 3, 0)


def test_canonical_tree_highest_neighbor_rule():
    inst_graph = graphs.PRISM
    num = st_numbering(inst_graph, 0, min(inst_graph.adj[0]))
    t = canonical_tree(inst_graph, num)
    pos = num.positions
    last = num.order[-1]
    for v in range(inst_graph.n):
        if v == num.order[0]:
            continue
        if v == last:
            assert t.parents[v] == num.order[0]
        else:
            assert pos[t.parents[v]] == max(pos[w] for w in inst_graph.adj[v])


def test_milestone_tree_interpolates():
    num = STNumbering((0, 1, 2, 3))
    target = tree_from_edges(4, [(0, 1), (1, 2), (2, 3)], root=0)
    t = milestone_tree(graphs.C4, num, {0, 1}, target)
    # member 1 follows the target; 2 and 3 follow the canonical rule
    assert t.parents == (-1, 0, 3, 0)
    full = milestone_tree(graphs.C4, num, {0, 1, 2, 3}, target)
    assert full == target
    with pytest.raises(ValueError):
        milestone_tree(graphs.C4, num, {1, 2}, target)


def test_select_boundary_edge_frozen():
    assert select_boundary_edge(TRI_TARGET, {0}, TRI_NUM) == (0, 1)
    assert select_boundary_edge(TRI_TARGET, {0, 1}, TRI_NUM) == (1, 2)


def test_select_boundary_edge_star_picks_highest():
    star = RootedSpanningTree(0, (-1, 0, 0, 0))
    num = STNumbering((0, 1, 2, 3))
    assert select_boundary_edge(star, {0}, num) == (0, 3)
    shuffled = STNumbering((0, 3, 1, 2))
    assert select_boundary_edge(star, {0}, shuffled) == (0, 2)


def test_select_boundary_edge_errors():
    with pytest.raises(ValueError, match="root"):
        select_boundary_edge(TRI_TARGET, {1}, TRI_NUM)
    with pytest.raises(ValueError, match="not connected"):
        select_boundary_edge(TRI_TARGET, {0, 2}, TRI_NUM)
    with pytest.raises(ValueError, match="no boundary edge"):
        select_boundary_edge(TRI_TARGET, {0, 1, 2}, TRI_NUM)


def test_gap_sequence_triangle_first_stage():
    start = RootedSpanningTree(0, (-1, 2, 0))
    moves, t_next = gap_sequence(start, {0}, TRI_TARGET, TRI_NUM, graphs.TRIANGLE)
    assert moves == [LeafMove(1, 2, 0)]
    assert t_next.parents == (-1, 0, 0)


def test_gap_sequence_triangle_second_stage():
    mid = RootedSpanningTree(0, (-1, 0, 0))
    moves, t_next = gap_sequence(mid, {0, 1}, TRI_TARGET, TRI_NUM, graphs.TRIANGLE)
    assert moves == [LeafMove(2, 0, 1)]
    assert t_next == TRI_TARGET


def test_gap_sequence_can_elide_every_move():
    # K4: the newcomer is already attached to its anchor, so nothing happens.
    num = STNumbering((0, 1, 2, 3))
    target = RootedSpanningTree(0, (-1, 3, 1, 0))
    t_k = milestone_tree(graphs.K4, num, {0, 3}, target)
    assert t_k.parents == (-1, 3, 3, 0)
    moves, t_next = gap_sequence(t_k, {0, 3}, target, num, graphs.K4)
    assert moves == []
    assert t_next == t_k


def test_gap_sequence_move_budget():
    rng = random.Random(55)
    for _ in range(40):
        g = random_biconnected_graph(rng.randint(4, 16), rng)
        num = st_numbering(g, 0, min(g.adj[0]))
        target = random_spanning_tree(g, 0, rng)
        members = {0}
        current = canonical_tree(g, num)
        while len(members) < g.n:
            outside = g.n - len(members)
            anchor, newcomer = select_boundary_edge(target, members, num)
            moves, current = gap_sequence(current, members, target, num, g)
            assert len(moves) <= 2 * outside - 1
            members.add(newcomer)
        assert current == target


def test_gap_sequence_leaf_claim_fires_on_corrupt_state():
    # Feed a tree that is not the milestone for {0}: vertex 1 still has a child,
    # so absorbing it must trip the always-on leaf check.
    bad_state = RootedSpanningTree(0, (-1, 0, 1, 0))
    target = tree_from_edges(4, [(0, 1), (1, 2), (2, 3)], root=0)
    with pytest.raises(LeafClaimError) as info:
        gap_sequence(bad_state, {0}, target, STNumbering((0, 1, 2, 3)), graphs.C4)
    assert info.value.vertex == 1
    assert isinstance(info.value, AssertionError)


@pytest.mark.parametrize(
    "g, parents, newcomer, anchor, error, message",
    [
        # Vertex 1 would be detached while it still holds vertex 2.
        (graphs.C4, (-1, 0, 1, 0), 1, 0, LeafClaimError, "vertex 1 is not a leaf in (-1, 0, 1, 0)"),
        # The milestone for {0}, with the dropped vertex 1 as the anchor: run
        # move by move, vertex 1 would be detached after 3 attached to it.
        (graphs.K4, (-1, 3, 3, 0), 3, 1, AssertionError,
         "stage absorbing 3 does not start from its milestone tree"),
    ],
)
def test_a_stage_that_fails_its_certificate_changes_nothing(g, parents, newcomer, anchor, error, message):
    num = STNumbering((0, 1, 2, 3))
    ext = _extreme_neighbors(g, num)
    parents = list(parents)
    kids = _child_counts(parents)
    tables = stage_tables(num, ext, {0})
    moves = array("i", [2, 1, 0])  # a move of an earlier stage
    before = copy.deepcopy((parents, kids, tables, moves))
    with pytest.raises(AssertionError) as info:
        _advance_stage(parents, kids, newcomer, anchor, ext[1], tables, moves)
    assert type(info.value) is error
    assert str(info.value) == message
    assert (parents, kids, tables, moves) == before


def test_walk_from_canonical_rejects_a_non_st_numbering():
    # In C4 numbered 0, 2, 1, 3, vertex 2 has no lower-positioned neighbor
    # and vertex 1 no higher-positioned one.
    target = tree_from_edges(4, [(0, 1), (1, 2), (2, 3)], root=0)
    bad = STNumbering((0, 2, 1, 3))
    with pytest.raises(ValueError, match="not an st-numbering"):
        walk_from_canonical(graphs.C4, bad, target)
    start = canonical_tree(graphs.C4, STNumbering((0, 1, 2, 3)))
    with pytest.raises(ValueError, match="not an st-numbering"):
        gap_sequence(start, {0}, target, bad, graphs.C4)


def test_numbering_of_the_wrong_size_is_rejected():
    target = tree_from_edges(4, [(0, 1), (1, 2), (2, 3)], root=0)
    for order, size in (((0, 1, 2), 3), ((0, 1, 2, 3, 4), 5)):
        message = f"numbering has {size} vertices, graph has 4"
        with pytest.raises(ValueError, match=message):
            canonical_tree(graphs.C4, STNumbering(order))
        with pytest.raises(ValueError, match=message):
            walk_from_canonical(graphs.C4, STNumbering(order), target)


def test_walk_from_canonical_milestone_check_survives_optimized_mode():
    # ``python -O`` strips assert statements; the checks that certify output
    # must still raise there.  A stage patched to move nothing leaves vertex 1
    # on its canonical parent 2, which misses the first milestone (1 under 0),
    # and a numbering that is not an st-numbering is rejected up front.
    # st_numbering checks its own result, and a graph file the bulk reader
    # turns down still gets the line reader's exact message.  The corrupt
    # state of test_gap_sequence_leaf_claim_fires_on_corrupt_state fails its
    # stage's certificate with a vertex that is not a leaf, and a state off
    # its milestone with no such vertex fails it with the milestone message.
    code = (
        "import sys\n"
        "import treewalk.connectivity\n"
        "from stages import gap_sequence\n"
        "from treewalk import LeafClaimError\n"
        "from treewalk import Graph, RootedSpanningTree, STNumbering, parse_graph, st_numbering,"
        " walk_from_canonical\n"
        "print(sys.flags.optimize)\n"
        "g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])\n"
        "target = RootedSpanningTree(0, (-1, 0, 1, 2))\n"
        "sys.modules['treewalk.walk']._advance_stage = lambda *args: None\n"
        "try:\n"
        "    walk_from_canonical(g, STNumbering((0, 1, 2, 3)), target)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
        "try:\n"
        "    walk_from_canonical(g, STNumbering((0, 2, 1, 3)), target)\n"
        "except ValueError as exc:\n"
        "    print('raised:', exc)\n"
        "treewalk.connectivity.validate_st_numbering = lambda *args: False\n"
        "try:\n"
        "    st_numbering(g, 0, 1)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
        "for text in ('3 1\\n0 9\\n', '3 2\\n0 1\\n1 0\\n'):\n"
        "    try:\n"
        "        parse_graph(text)\n"
        "    except ValueError as exc:\n"
        "        print('raised:', exc)\n"
        "bad_state = RootedSpanningTree(0, (-1, 0, 1, 0))\n"
        "try:\n"
        "    gap_sequence(bad_state, {0}, target, STNumbering((0, 1, 2, 3)), g)\n"
        "except LeafClaimError as exc:\n"
        "    print('raised:', exc)\n"
        "off_milestone = RootedSpanningTree(0, (-1, 0, 3, 0))\n"
        "try:\n"
        "    gap_sequence(off_milestone, {0}, off_milestone, STNumbering((0, 1, 2, 3)), g)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', type(exc).__name__, exc)\n"
    )
    src = str(Path(treewalk.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(p for p in (src, tests, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout.splitlines()
    assert out[0] == "1"
    assert out[1].startswith("raised:") and "milestone" in out[1]
    assert out[2].startswith("raised:") and "not an st-numbering" in out[2]
    assert out[3] == "raised: st_numbering built an invalid order for (0, 1)"
    assert out[4] == "raised: line 2: edge (0, 9) out of range for n=3"
    assert out[5] == "raised: line 3: duplicate edge (1, 0)"
    assert out[6] == "raised: vertex 1 is not a leaf in (-1, 0, 1, 0)"
    assert out[7] == "raised: AssertionError stage absorbing 3 does not start from its milestone tree"


def test_no_assert_statements_in_the_package():
    # Checks that certify output must hold under ``python -O`` too.
    for module in Path(treewalk.__file__).parent.glob("*.py"):
        tree = ast.parse(module.read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{module.name} uses assert at lines {lines}"


def test_every_module_level_name_is_public_or_used_in_the_package():
    # Code that only tests call belongs in tests/, not in the package.
    package = Path(treewalk.__file__).parent
    trees = {module.name: ast.parse(module.read_text()) for module in package.glob("*.py")}
    used = set(treewalk.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    ]
    assert not unused, f"neither in treewalk.__all__ nor used in src/treewalk: {unused}"

    # A public method must be called as an attribute by the package or the
    # benchmark; one that overrides a base-class method is called by the base.
    bench = [f for f in (package.parents[1] / "perfbench").glob("*.py") if not f.name.startswith("test_")]
    attributes = {
        node.attr
        for tree in [*trees.values(), *(ast.parse(f.read_text()) for f in bench)]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    unused = []
    for name, tree in trees.items():
        module = importlib.import_module(f"treewalk.{name.removesuffix('.py')}".removesuffix(".__init__"))
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = getattr(module, node.name).__mro__[1:]
            unused += [
                f"{name}:{node.name}.{method.name}"
                for method in node.body
                if isinstance(method, ast.FunctionDef)
                and not method.name.startswith("_")
                and method.name not in attributes
                and not any(hasattr(base, method.name) for base in bases)
            ]
    assert not unused, f"public methods no package or benchmark code calls: {unused}"


def test_walk_from_canonical_triangle():
    seq = walk_from_canonical(graphs.TRIANGLE, TRI_NUM, TRI_TARGET)
    assert [t.parents for t in seq.trees] == [(-1, 2, 0), (-1, 0, 0), (-1, 0, 1)]
    assert seq.moves == (LeafMove(1, 2, 0), LeafMove(2, 0, 1))
    assert verify_walk(graphs.TRIANGLE, 0, seq, target=TRI_TARGET).ok


def test_walk_from_canonical_identity_target():
    start = canonical_tree(graphs.C5, STNumbering((0, 1, 2, 3, 4)))
    seq = walk_from_canonical(graphs.C5, STNumbering((0, 1, 2, 3, 4)), start)
    assert len(seq.trees) == 1 and seq.moves == ()


def test_walk_from_canonical_move_bound():
    rng = random.Random(88)
    for _ in range(30):
        g = random_biconnected_graph(rng.randint(4, 24), rng)
        num = st_numbering(g, 0, min(g.adj[0]))
        target = random_spanning_tree(g, 0, rng)
        seq = walk_from_canonical(g, num, target)
        assert len(seq.moves) <= g.n * (g.n - 1)
        assert seq.trees[-1] == target
        assert verify_walk(g, 0, seq, target=target).ok


def test_walk_from_canonical_root_mismatch():
    target = tree_from_edges(3, [(0, 1), (1, 2)], root=1)
    with pytest.raises(ValueError, match="rooted at"):
        walk_from_canonical(graphs.TRIANGLE, TRI_NUM, target)
    cycle = RootedSpanningTree(0, (-1, 0, 3, 2))  # 2 and 3 hang from each other
    with pytest.raises(ValueError, match="target tree invalid: parent chain from vertex 2 loops"):
        walk_from_canonical(graphs.C4, STNumbering((0, 1, 2, 3)), cycle)


def test_walk_from_canonical_rejects_target_off_the_graph():
    # The star hangs 2 from 0, but C4 has no edge 0-2.
    star = RootedSpanningTree(0, (-1, 0, 0, 0))
    with pytest.raises(ValueError, match=r"target tree invalid: tree edge \(2, 0\) is not a graph edge"):
        walk_from_canonical(graphs.C4, STNumbering((0, 1, 2, 3)), star)


def test_walk_endpoints_and_bound():
    rng = random.Random(99)
    for _ in range(30):
        g = random_biconnected_graph(rng.randint(4, 20), rng)
        a = rng.randrange(g.n)
        t1 = random_spanning_tree(g, a, rng)
        t2 = random_spanning_tree(g, a, rng)
        seq = walk(g, a, t1, t2)
        assert seq.trees[0] == t1
        assert seq.trees[-1] == t2
        assert len(seq.trees) <= 2 * g.n * (g.n - 1) + 1
        report = verify_walk(g, a, seq, source=t1, target=t2)
        assert report.ok, report.summary()


def test_walk_identical_endpoints():
    t = tree_from_edges(3, [(0, 1), (1, 2)], root=0)
    seq = walk(graphs.TRIANGLE, 0, t, t)
    assert len(seq.trees) == 1 and seq.moves == ()


def test_walk_single_edge_graph():
    g = Graph.from_edges(2, [(0, 1)])
    t = RootedSpanningTree(0, (-1, 0))
    seq = walk(g, 0, t, t)
    assert len(seq.trees) == 1


def test_walk_is_deterministic():
    rng = random.Random(14)
    g = random_biconnected_graph(12, rng)
    t1 = random_spanning_tree(g, 0, rng)
    t2 = random_spanning_tree(g, 0, rng)
    assert walk(g, 0, t1, t2) == walk(g, 0, t1, t2)


def test_walk_rejections():
    t1 = tree_from_edges(3, [(0, 1), (1, 2)], root=0)
    t2 = tree_from_edges(3, [(0, 1), (1, 2)], root=1)
    with pytest.raises(ValueError, match="rooted"):
        walk(graphs.TRIANGLE, 0, t1, t2)
    bad = RootedSpanningTree(0, (-1, 2, 1))
    with pytest.raises(ValueError, match="invalid"):
        walk(graphs.TRIANGLE, 0, t1, bad)
    p1 = tree_from_edges(3, [(0, 1), (1, 2)], root=0)
    p2 = tree_from_edges(3, [(0, 1), (1, 2)], root=0)
    assert walk(graphs.PATH3, 0, p1, p2).moves == ()  # equal trees short-circuit
    q = RootedSpanningTree(0, (-1, 0, 1, 2))
    q2 = RootedSpanningTree(0, (-1, 0, 1, 0))
    with pytest.raises(ValueError):
        walk(graphs.PATH4, 0, q, q2)  # q2 is not even a tree of the path
    chain = tree_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)], root=0)
    other = tree_from_edges(5, [(0, 2), (2, 1), (2, 3), (3, 4)], root=0)
    with pytest.raises(NotBiconnectedError):
        walk(graphs.TWO_TRIANGLES, 0, chain, other)


def test_walk_passes_through_canonical_tree():
    rng = random.Random(3)
    g = random_biconnected_graph(9, rng)
    t1 = random_spanning_tree(g, 0, rng)
    t2 = random_spanning_tree(g, 0, rng)
    seq = walk(g, 0, t1, t2)
    num = st_numbering(g, 0, min(g.adj[0]))
    assert canonical_tree(g, num) in seq.trees


def test_walk_sequence_reverse():
    seq = walk_from_canonical(graphs.TRIANGLE, TRI_NUM, TRI_TARGET)
    rev = seq.reverse()
    assert tuple(rev.trees) == tuple(reversed(seq.trees))
    assert rev.moves[0] == LeafMove(2, 1, 0)
    assert rev.reverse() == seq
    assert verify_walk(graphs.TRIANGLE, 0, rev).ok


def test_walk_trees_are_derived_on_demand():
    seq = walk_from_canonical(graphs.TRIANGLE, TRI_NUM, TRI_TARGET)
    assert len(seq) == len(seq.trees) == 3
    assert seq.trees[-1] == seq.target == TRI_TARGET
    assert seq.trees[1].parents == (-1, 0, 0)
    assert seq.trees[1:] == (seq.trees[1], TRI_TARGET)
    with pytest.raises(IndexError):
        seq.trees[3]
    # Length never replays the moves, so it works even on a stream whose
    # moves cannot be applied; building the trees is what fails.
    t = RootedSpanningTree(0, (-1, 0, 0))
    bad = WalkSequence(t, (LeafMove(0, -1, 1),))
    assert len(bad.trees) == 2
    with pytest.raises(ValueError):
        list(bad.trees)
    report = verify_walk(graphs.TRIANGLE, 0, bad)
    assert report.tree_count == 2
    assert report.issues == ("step 0: move 0 -1 1 cannot be applied",)


def _until_value_error(items) -> list:
    """The items before a ValueError, which must come."""
    out = []
    with pytest.raises(ValueError):
        for item in items:
            out.append(item)
    return out


@pytest.mark.parametrize(
    "bad", [(0, -1, 1), (2, 1, 3), (2, 1, -1), (2, 1, 2), (-1, 0, 1), (3, 0, 1)]
)
def test_tree_texts_refuse_the_move_the_tree_view_refuses(bad):
    # The root moved, a parent out of range, a vertex its own parent, a
    # vertex out of range: after one good move, both the texts and the trees
    # stop at the bad one, and every other reader of the moves refuses it.
    seq = WalkSequence(RootedSpanningTree(0, (-1, 0, 0)), array("i", [2, 0, 1, *bad]))
    texts = _until_value_error(format_walk_trees(seq))
    assert texts == list(map(format_tree, _until_value_error(seq.trees)))
    assert texts == ["3 0\n1 0\n2 0\n", "3 0\n1 0\n2 1\n"]
    message = f"move 1: vertex {bad[0]} cannot be rehung onto {bad[2]}"
    for read in (lambda: seq.target, seq.reverse, lambda: removal_times(seq, [(0, 1)])):
        with pytest.raises(ValueError, match=message):
            read()


def test_verify_walk_flags_non_leaf_single_change():
    # vertex 1 still has child 2 and is rehung onto it: a 1-2 cycle
    path = RootedSpanningTree(0, (-1, 0, 1, 2))
    report = verify_walk(graphs.K4, 0, WalkSequence(path, (LeafMove(1, 0, 2),)))
    assert not report.ok
    assert any(issue.startswith("tree 1:") for issue in report.issues)
    assert any("intersection test" in issue for issue in report.issues)
    assert any("leaf-move test" in issue for issue in report.issues)


def test_verify_walk_flags_invalid_tree():
    # leaf 3 rehung onto 1, which is not its neighbor in C4
    path = tree_from_edges(4, [(0, 1), (1, 2), (2, 3)], root=0)
    report = verify_walk(graphs.C4, 0, WalkSequence(path, (LeafMove(3, 2, 1),)))
    assert not report.ok
    assert any("tree 1" in issue for issue in report.issues)
    # the tree after the bad step is re-checked in full, and the walk back is clean
    back = WalkSequence(path, (LeafMove(3, 2, 1), LeafMove(3, 1, 2)))
    assert verify_walk(graphs.C4, 0, back).issues == report.issues


def test_verify_walk_reports_a_self_parent_move():
    # A raw move store can hang a vertex from itself.  Such a move cannot be
    # applied, first or after a valid move, and leaves the tree as it was.
    path = RootedSpanningTree(0, (-1, 0, 1, 2))
    report = verify_walk(graphs.C4, 0, WalkSequence(path, array("i", [3, 2, 3])), target=path)
    assert report.issues == ("step 0: move 3 2 3 cannot be applied",)
    assert report.target_matches and report.tree_count == 2
    after = WalkSequence(path, array("i", [3, 2, 0, 3, 0, 3]))
    report = verify_walk(graphs.C4, 0, after, target=RootedSpanningTree(0, (-1, 0, 1, 0)))
    assert report.issues == ("step 1: move 3 0 3 cannot be applied",)
    assert report.target_matches and report.tree_count == 3


def test_verify_walk_reports_every_tree_and_step_against_the_wrong_root():
    # A valid walk rooted at 0, checked against a = 1: each tree is off root
    # and each step fails the intersection test's shape check, with no raise.
    t = tree_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)], root=0)
    t_prime = tree_from_edges(5, [(0, 4), (3, 4), (2, 3), (1, 2)], root=0)
    seq = walk(graphs.C5, 0, t, t_prime)
    report = verify_walk(graphs.C5, 1, seq)
    expected = ["tree 0: rooted at 0, expected 1"]
    for i in range(len(seq.moves)):
        expected.append(f"step {i}: both trees must be rooted at 1 (got 0, 0)")
        expected.append(f"tree {i + 1}: rooted at 0, expected 1")
    assert report.issues == tuple(expected)
    assert len(report.issues) == 2 * len(seq.moves) + 1 and not report.ok


def test_verify_walk_flags_endpoint_mismatch():
    seq = walk_from_canonical(graphs.TRIANGLE, TRI_NUM, TRI_TARGET)
    # swap the declared endpoints so both comparisons fail
    report = verify_walk(graphs.TRIANGLE, 0, seq, source=TRI_TARGET, target=seq.trees[0])
    assert report.source_matches is False
    assert report.target_matches is False
    assert sum("endpoint mismatch" in issue for issue in report.issues) == 2
    assert "MISMATCH" in report.summary()


def test_verify_walk_flags_move_disagreement():
    seq = walk_from_canonical(graphs.TRIANGLE, TRI_NUM, TRI_TARGET)
    tampered = (LeafMove(1, 2, 0), LeafMove(2, 1, 0))
    report = verify_walk(graphs.TRIANGLE, 0, WalkSequence(seq.source, tampered))
    assert report.issues == ("step 1: move old parent disagrees with tree",)


def test_verify_walk_report_summary_shape():
    seq = walk_from_canonical(graphs.TRIANGLE, TRI_NUM, TRI_TARGET)
    report = verify_walk(graphs.TRIANGLE, 0, seq, source=seq.trees[0], target=TRI_TARGET)
    text = report.summary()
    assert "trees: 3" in text
    assert "moves: 2" in text
    assert text.endswith("result: PASS")


def test_verify_walk_agrees_with_public_adjacency_tests():
    rng = random.Random(6)
    for _ in range(20):
        g = random_biconnected_graph(rng.randint(4, 10), rng)
        seq = walk(g, 0, random_spanning_tree(g, 0, rng), random_spanning_tree(g, 0, rng))
        assert verify_walk(g, 0, seq).ok
        for i in range(len(seq.trees) - 1):
            assert trees_adjacent(seq.trees[i], seq.trees[i + 1], 0)
            assert trees_adjacent_via_move(seq.trees[i], seq.trees[i + 1], 0)


def _count_general_checks(monkeypatch) -> dict[str, int]:
    """Calls that verify_walk makes to the two general checks, counted from now on."""
    module = importlib.import_module("treewalk.walk")
    calls = {"spanning_tree_violation": 0, "trees_adjacent": 0}

    def counted(name):
        real = getattr(module, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in calls:
        monkeypatch.setattr(module, name, counted(name))
    return calls


def test_an_untampered_walk_is_verified_in_the_regular_loop(monkeypatch):
    # The first tree gets the one full check; every step of a real walk is
    # regular, so no step falls back to the general adjacency test.
    rng = random.Random(16)
    g = random_biconnected_graph(64, rng)
    t1, t2 = random_spanning_tree(g, 0, rng), random_spanning_tree(g, 0, rng)
    seq = walk(g, 0, t1, t2)
    calls = _count_general_checks(monkeypatch)
    assert verify_walk(g, 0, seq, source=t1, target=t2).ok
    assert len(seq.moves) > 1_000
    assert calls == {"spanning_tree_violation": 1, "trees_adjacent": 0}


def test_steps_after_a_tree_certified_again_are_regular(monkeypatch):
    # A vertex with children first stays on its parent (a regular step),
    # then moves along a graph edge to a vertex outside its subtree and back:
    # two spanning trees that only the general checks certify.  The walk
    # after them is regular again.
    rng = random.Random(16)
    g = random_biconnected_graph(64, rng)
    t1, t2 = random_spanning_tree(g, 0, rng), random_spanning_tree(g, 0, rng)
    seq = walk(g, 0, t1, t2)
    parents = t1.parents

    def below(u, v):  # whether u lies in the subtree of v
        while u != -1 and u != v:
            u = parents[u]
        return u == v

    v, q = next((v, q) for v in range(1, g.n) if v in parents for q in g.adj[v]
                if q != parents[v] and not below(q, v))
    p = parents[v]
    flat = array("i", [v, p, p, v, p, q, v, q, p]) + seq._flat
    calls = _count_general_checks(monkeypatch)
    report = verify_walk(g, 0, WalkSequence(t1, flat), source=t1, target=t2)
    assert report.issues == tuple(
        f"step {i}: not adjacent ({test} test)" for i in (1, 2) for test in ("intersection", "leaf-move")
    )
    assert calls == {"spanning_tree_violation": 3, "trees_adjacent": 2}


def test_a_stale_claim_at_the_first_step_keeps_the_rest_regular():
    # One recovered bad step must not send the steps after it down the
    # general path: the tampered walk verifies about as fast as the clean one.
    rng = random.Random(7)
    g = random_biconnected_graph(128, rng)
    seq = walk(g, 0, random_spanning_tree(g, 0, rng), random_spanning_tree(g, 0, rng))
    assert len(seq.moves) > 15_000
    flat = array("i", seq._flat)
    flat[1] = -1
    stale = WalkSequence(seq.source, flat)
    assert verify_walk(g, 0, stale).issues == ("step 0: move old parent disagrees with tree",)
    best = [float("inf")] * 2
    for _ in range(5):  # interleaved, so that drift in the host's speed hits both
        for i, s in enumerate((seq, stale)):
            start = time.process_time()
            verify_walk(g, 0, s)
            best[i] = min(best[i], time.process_time() - start)
    clean, tampered = best
    assert tampered <= 1.3 * clean, f"{tampered:.4f} s against {clean:.4f} s"


def test_walk_moves_round_trip():
    rng = random.Random(21)
    g = random_biconnected_graph(8, rng)
    seq = walk(g, 0, random_spanning_tree(g, 0, rng), random_spanning_tree(g, 0, rng))
    text = format_walk_moves(seq)
    back = parse_walk_moves(text)
    assert back == seq


def test_parse_walk_moves_errors():
    with pytest.raises(GraphFormatError):
        parse_walk_moves("")
    with pytest.raises(GraphFormatError, match="root 7 out of range"):
        parse_walk_moves("2 7\n1 0\n")
    with pytest.raises(GraphFormatError, match="root"):
        parse_walk_moves("3 0\n1 0\n2 0\n0 1 2\n")
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_walk_moves("3 0\n1 0\n2 0\n2 0 7\n")
    # structurally fine but semantically wrong: verify reports, parse accepts
    seq = parse_walk_moves("3 0\n1 0\n2 0\n2 9 1\n".replace("9", "0"))
    assert len(seq.trees) == 2


def test_walk_tree_slices_match_the_full_list():
    rng = random.Random(4)
    g = random_biconnected_graph(9, rng)
    seq = walk(g, 0, random_spanning_tree(g, 0, rng), random_spanning_tree(g, 0, rng))
    trees = tuple(seq.trees)
    size = len(trees)
    assert size > 10
    for s in (slice(None), slice(2, 7), slice(-1, None), slice(-3, -1), slice(None, None, 3),
              slice(1, None, 4), slice(None, None, -1), slice(-2, 1, -2), slice(5, 5),
              slice(size, None), slice(-size - 5, 3), slice(3, 0), slice(0, size + 9, 5)):
        assert seq.trees[s] == trees[s], s


def test_walk_tree_slice_builds_only_the_trees_it_returns():
    rng = random.Random(6)
    g = random_biconnected_graph(128, rng)
    seq = walk(g, 0, random_spanning_tree(g, 0, rng), random_spanning_tree(g, 0, rng))
    assert len(seq.moves) > 10_000  # every tree of it would take more than 10 MB
    tracemalloc.start()
    try:
        last = seq.trees[-1:]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert last == (seq.target,)
    assert peak < 1 << 20


def test_bulk_reader_holds_few_tokens_at_once():
    # About 289k moves in 3.3 MB of text.  The reader converts it in slices,
    # so its peak is the move store (3.5 MB) and what checks it, 6 MB in all;
    # one token list for the whole text took 59 MB.  (At n=1024, 1.13M moves,
    # that is 23 MB against 230 MB, but tracemalloc makes that parse take 12 s.)
    rng = random.Random(1)
    g = random_biconnected_graph(512, rng)
    seq = walk(g, 0, random_spanning_tree(g, 0, rng), random_spanning_tree(g, 0, rng))
    text = format_walk_moves(seq)
    assert len(seq.moves) > 250_000
    tracemalloc.start()
    try:
        again = parse_walk_moves(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == seq
    assert peak <= 15 * 10**6


def test_walk_moves_are_a_read_only_view():
    seq = walk_from_canonical(graphs.TRIANGLE, TRI_NUM, TRI_TARGET)
    moves = seq.moves
    assert isinstance(moves, Sequence) and not isinstance(moves, tuple)
    assert len(moves) == 2
    assert list(moves) == [LeafMove(1, 2, 0), LeafMove(2, 0, 1)]
    assert moves[-1] == moves[1] == LeafMove(2, 0, 1)
    assert type(moves[0]) is LeafMove and moves[0].new_parent == 0
    assert moves[::-1] == (LeafMove(2, 0, 1), LeafMove(1, 2, 0))
    assert moves[5:] == ()
    assert LeafMove(2, 0, 1) in moves and moves.index(LeafMove(2, 0, 1)) == 1
    for i in (2, -3):
        with pytest.raises(IndexError):
            moves[i]
    with pytest.raises(AttributeError):
        seq.moves = ()


def test_walk_moves_compare_like_a_tuple_of_moves():
    seq = walk_from_canonical(graphs.TRIANGLE, TRI_NUM, TRI_TARGET)
    as_tuple = (LeafMove(1, 2, 0), LeafMove(2, 0, 1))
    assert seq.moves == seq.moves == as_tuple == seq.moves and hash(seq.moves) == hash(as_tuple)
    assert seq.moves == walk_from_canonical(graphs.TRIANGLE, TRI_NUM, TRI_TARGET).moves
    assert seq.moves != seq.reverse().moves and seq.moves != as_tuple[:1]
    # a tuple of moves never equalled a list, and the view does not either
    assert seq.moves != list(as_tuple) and not seq.moves == list(as_tuple)


def test_walk_sequence_packs_the_moves_it_is_given():
    seq = walk_from_canonical(graphs.TRIANGLE, TRI_NUM, TRI_TARGET)
    packed = WalkSequence(seq.source, [LeafMove(1, 2, 0), (2, 0, 1)])
    assert packed == seq and hash(packed) == hash(seq)
    assert packed != WalkSequence(seq.source, [LeafMove(1, 2, 0)])
    assert WalkSequence(seq.source, iter(seq.moves)) == seq
    store = array("i", [1, 2, 0, 2, 0, 1])
    assert WalkSequence(seq.source, store) == seq and WalkSequence(seq.source, store)._flat is store


def test_walk_sequence_refuses_a_store_it_cannot_read():
    # A trailing partial move would be dropped, and floats would come back as moves.
    source = RootedSpanningTree(0, (-1, 0))
    for store in (array("i", [1, 0]), array("d", [1, 0, 0])):
        with pytest.raises(ValueError, match="not a move store"):
            WalkSequence(source, store)


def test_walk_store_holds_no_per_move_objects():
    rng = random.Random(3)
    g = random_biconnected_graph(128, rng)
    t1, t2 = random_spanning_tree(g, 0, rng), random_spanning_tree(g, 0, rng)
    gc.collect()
    before = len(gc.get_objects())
    seq = walk(g, 0, t1, t2)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert len(seq.moves) >= 10_000
    assert added < 1_000
    # The store is one object that refers to nothing but its type, so the
    # collector's pass over it costs O(1) however many moves it holds.
    assert gc.get_referents(seq._flat) == [type(seq._flat)]
    assert verify_walk(g, 0, seq, source=t1, target=t2).ok


# Inputs and the exact messages of the line-by-line reader, as it reported them
# before the move store existed.
PARSE_ERRORS = [
    ("", "empty walk description"),
    ("# only a comment\n\n", "empty walk description"),
    ("2 7\n1 0\n", "line 1: root 7 out of range for n=2"),
    ("3 0\n1 0\n", "expected 2 parent lines, found 1"),
    ("3 0\n1 0\n1 0\n2 0 1\n", "line 3: duplicate parent entry for vertex 1"),
    ("3 0\n1 0\n2 0 1\n2 0 1\n", "line 3: expected 2 integers, got '2 0 1'"),
    ("3 0\n1 0\n2 0\n0 1 2\n", "line 4: move targets the root vertex 0"),
    ("3 0\n1 0\n2 0\n2 0 7\n", "line 4: vertex out of range in '2 0 7'"),
    ("3 0\n1 0\n2 0\n2 -1 1\n", "line 4: vertex out of range in '2 -1 1'"),
    ("3 0\n1 0\n2 0\n2 0 99999999999\n", "line 4: vertex out of range in '2 0 99999999999'"),
    ("3 0\n1 0\n2 0\n2 0 2\n", "line 4: vertex 2 cannot become its own parent"),
    ("3 0\n1 0\n2 0\n2 0\n", "line 4: expected 3 integers, got '2 0'"),
    ("3 0\n1 0\n2 0\n2 0 1 1\n", "line 4: expected 3 integers, got '2 0 1 1'"),
    ("3 0\n1 0\n2 0\n2 x 1\n", "line 4: expected 3 integers, got '2 x 1'"),
    ("3 0\n1 0\n2 0\n2  1\n", "line 4: expected 3 integers, got '2  1'"),
    ("3 0\n1 0\n2 0\n2 0 1\n 1 0\n", "line 5: expected 3 integers, got '1 0'"),
    ("3 0\n1 0\n2 0\n2 0 1\n1 0 2\n2 1 0\n1 2 1\n", "line 7: vertex 1 cannot become its own parent"),
    ("3 0\n1 0\n2 0\n2 0 1\n\n# note\n2 1 0 9\n", "line 7: expected 3 integers, got '2 1 0 9'"),
    ("3 0\n1 0\n2 0\n2 0 1\n2 1 0\n2 0 +\n", "line 6: expected 3 integers, got '2 0 +'"),
    ("3 0\n1 0\n2 0\n2 0 1\n  2 1 7  \n", "line 5: vertex out of range in '2 1 7'"),
    ("3 0\n1 0\n# note\n2 0\n2 0 1\n1 0 1\n", "line 6: vertex 1 cannot become its own parent"),
    ("3 0\n1 0\n2 0\n2 0\n1 2 1 0\n", "line 4: expected 3 integers, got '2 0'"),
    ("3 0\n1 0\n2 0\n2\x0c0 1\n", "line 4: expected 3 integers, got '2'"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_walk_moves_error_messages_are_unchanged(text, message):
    with pytest.raises(GraphFormatError) as info:
        parse_walk_moves(text)
    assert str(info.value) == message


def test_parse_walk_moves_reads_other_spellings_line_by_line():
    expected = WalkSequence(RootedSpanningTree(0, (-1, 0, 0)), (LeafMove(2, 0, 1), LeafMove(2, 1, 0)))
    for text in (
        "3 0\n1 0\n2 0\n2 0 1\n2 1 0\n",  # the writer's form, read in bulk
        "3 0\n1 0\n2 0\n2 0 1\n2 1 0",  # no final newline
        "3 0\r\n1 0\r\n2 0\r\n2 0 1\r\n2 1 0\r\n",
        "3 0\n1 0\n2 0\n2  0\t1\n+2 01 0\n",
        "# walk\n3 0\n1 0\n\n2 0\n2 0 1\n# back\n2 1 0\n\n",
    ):
        assert parse_walk_moves(text) == expected
