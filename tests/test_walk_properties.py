"""Generative checks of the walk invariants on small biconnected graphs."""

from __future__ import annotations

import random
from array import array

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from strategies import graphs  # noqa: E402
from treewalk import (  # noqa: E402
    Graph,
    GraphFormatError,
    LeafMove,
    RootedSpanningTree,
    WalkSequence,
    canonical_tree,
    format_tree,
    format_walk_moves,
    format_walk_trees,
    parse_walk_moves,
    random_biconnected_graph,
    random_spanning_tree,
    st_numbering,
    verify_walk,
    walk,
    walk_from_canonical,
)
from stages import (  # noqa: E402
    gap_sequence,
    milestone_tree,
    select_boundary_edge,
    stage_by_moves,
    stage_tables,
)
from treewalk.connectivity import _extreme_neighbors  # noqa: E402
from treewalk.graph import _child_counts  # noqa: E402
from treewalk.walk import LeafClaimError, _advance_stage, _parse_bulk  # noqa: E402
from verifier import reference_verify_walk  # noqa: E402

# Derandomized so the suite sees the same examples on every run.
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def instances(draw):
    """(graph, root, source tree, target tree) on 3..9 vertices, from a drawn seed."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 9))
    g = random_biconnected_graph(n, rng)
    a = draw(st.integers(0, n - 1))
    return g, a, random_spanning_tree(g, a, rng), random_spanning_tree(g, a, rng)


@SETTINGS
@given(instances())
def test_walk_endpoints_bound_and_round_trip(inst):
    g, a, t1, t2 = inst
    seq = walk(g, a, t1, t2)
    assert seq.source == t1 and seq.target == t2
    assert len(seq.moves) <= 2 * g.n * (g.n - 1)
    assert parse_walk_moves(format_walk_moves(seq)) == seq
    assert verify_walk(g, a, seq, source=t1, target=t2).ok


@SETTINGS
@given(instances(), st.booleans())
def test_tree_texts_are_the_formatted_trees(inst, stay):
    # ``stay`` draws the walk of zero moves too, whatever the drawn root.
    g, a, t1, t2 = inst
    seq = walk(g, a, t1, t1 if stay else t2)
    assert list(format_walk_trees(seq)) == [format_tree(t) for t in seq.trees]


def _caught(g, a, t1, t2, moves) -> bool:
    """A tampered stream leaves a stale old parent or misses the declared target."""
    report = verify_walk(g, a, WalkSequence(t1, tuple(moves)), source=t1, target=t2)
    stale = any("move old parent" in issue for issue in report.issues)
    assert not report.ok
    return stale or report.target_matches is False


@SETTINGS
@given(instances(), st.data())
def test_verify_catches_a_redirected_move(inst, data):
    g, a, t1, t2 = inst
    moves = list(walk(g, a, t1, t2).moves)
    assume(moves)
    i = data.draw(st.integers(0, len(moves) - 1))
    mv = moves[i]
    other = data.draw(
        st.integers(0, g.n - 1).filter(lambda w: w not in (mv.vertex, mv.new_parent))
    )
    moves[i] = LeafMove(mv.vertex, mv.old_parent, other)
    assert _caught(g, a, t1, t2, moves)


@SETTINGS
@given(instances(), st.data())
def test_verify_catches_a_dropped_move(inst, data):
    g, a, t1, t2 = inst
    moves = list(walk(g, a, t1, t2).moves)
    assume(moves)
    i = data.draw(st.integers(0, len(moves) - 1))
    assert moves[i].new_parent != moves[i].old_parent
    del moves[i]
    assert _caught(g, a, t1, t2, moves)


def _bfs_tree(g, a):
    """Breadth-first spanning tree: every neighbor of ``a`` is a child of the root."""
    parents = [-1] * g.n
    seen = {a}
    queue = [a]
    for u in queue:
        for w in g.adj[u]:
            if w not in seen:
                seen.add(w)
                parents[w] = u
                queue.append(w)
    return RootedSpanningTree(a, tuple(parents))


@st.composite
def canonical_instances(draw):
    """(graph, st-numbering, target tree) on 3..9 vertices, from a drawn seed.

    The target is a random depth-first tree or a breadth-first one, whose
    root has several children.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = random_biconnected_graph(draw(st.integers(3, 9)), rng)
    a = draw(st.integers(0, g.n - 1))
    num = st_numbering(g, a, draw(st.sampled_from(g.adj[a])))
    target = random_spanning_tree(g, a, rng) if draw(st.booleans()) else _bfs_tree(g, a)
    return g, num, target


@SETTINGS
@given(canonical_instances())
def test_canonical_walk_equals_the_stage_reference(inst):
    g, num, target = inst
    current = canonical_tree(g, num)
    members = {num.order[0]}
    expected: list[LeafMove] = []
    if current != target:
        while len(members) < g.n:
            _, newcomer = select_boundary_edge(target, members, num)
            moves, current = gap_sequence(current, members, target, num, g)
            expected.extend(moves)
            members.add(newcomer)
    assert walk_from_canonical(g, num, target).moves == tuple(expected)


@st.composite
def stage_states(draw):
    """(graph, numbering, absorbed set, parents, newcomer, anchor, corrupted).

    The state is the milestone tree after a drawn number of a canonical
    walk's stages, with the next stage's newcomer and anchor.  Half the
    time each, one to three parents, the newcomer (any outside vertex) and
    the anchor (a dropped vertex or any vertex) are then redrawn, which
    often breaks the stage's certificate and sometimes its leaf claim.
    """
    g, num, target = draw(canonical_instances())
    root = num.order[0]
    members = {root}
    for _ in range(draw(st.integers(0, g.n - 2))):
        members.add(select_boundary_edge(target, members, num)[1])
    anchor, newcomer = select_boundary_edge(target, members, num)
    parents = list(milestone_tree(g, num, members, target).parents)
    vertex = st.integers(0, g.n - 1)
    corrupted = False
    if draw(st.booleans()):
        for v in draw(st.lists(vertex.filter(lambda v: v != root), min_size=1, max_size=3)):
            parents[v] = draw(vertex)
        corrupted = True
    outside = [v for v in num.order if v not in members]
    if draw(st.booleans()):
        newcomer = draw(st.sampled_from(outside))
        corrupted = True
    if draw(st.booleans()):
        # A dropped vertex as the anchor breaks the leaf claim on the way back up.
        dropped = outside[:outside.index(newcomer)]
        anchor = draw(st.sampled_from(dropped) if dropped and draw(st.booleans()) else vertex)
        corrupted = True
    return g, num, members, parents, newcomer, anchor, corrupted


def _stage_outcome(run, parents):
    """(moves, parents, kids) after ``run`` on a copy of ``parents``, or the AssertionError it raised."""
    parents = list(parents)
    kids = _child_counts(parents)
    moves = array("i")
    try:
        run(parents, kids, moves)
    except AssertionError as exc:  # LeafClaimError too
        return exc
    return moves, parents, kids


@settings(SETTINGS, max_examples=300)
@given(stage_states())
def test_a_stage_agrees_with_its_move_by_move_schedule(state):
    g, num, members, parents, newcomer, anchor, corrupted = state
    ext = _extreme_neighbors(g, num)
    pos = num.positions
    dropped = [v for v in num.order if v not in members and pos[v] < pos[newcomer]]
    staged = _stage_outcome(
        lambda p, k, m: _advance_stage(p, k, newcomer, anchor, ext[1],
                                       stage_tables(num, ext, members), m),
        parents,
    )
    by_moves = _stage_outcome(
        lambda p, k, m: stage_by_moves(p, k, dropped, newcomer, anchor, ext, m), parents
    )
    raised = isinstance(staged, AssertionError)
    if not corrupted:
        assert staged == by_moves  # a milestone state passes the certificate
    else:
        assert raised or staged == by_moves
    if isinstance(by_moves, LeafClaimError):
        assert raised


@st.composite
def drawn_graph_walks(draw):
    """(graph, root, source, target, walk) on a graph from ``strategies.graphs``.

    The cycle 0, 1, ..., n-1 is added to the drawn graph, which makes it
    2-connected; the trees are random depth-first trees from a drawn seed.
    """
    g = draw(graphs())
    assume(g.n >= 3)
    cycle = {(v - 1, v) for v in range(1, g.n)} | {(0, g.n - 1)}
    g = Graph.from_edges(g.n, sorted(g.edges | cycle))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    a = draw(st.integers(0, g.n - 1))
    t1, t2 = random_spanning_tree(g, a, rng), random_spanning_tree(g, a, rng)
    return g, a, t1, t2, walk(g, a, t1, t2)


@SETTINGS
@given(drawn_graph_walks(), st.data())
def test_walk_stream_round_trips_with_comments_and_blank_lines(inst, data):
    g, a, t1, t2, seq = inst
    text = format_walk_moves(seq)
    assert _parse_bulk(text) == seq  # the writer's form is read in bulk
    assert parse_walk_moves(text) == seq
    lines = text.splitlines()
    noise = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(lines)), st.sampled_from(["", "  ", "#", "# note 1 2 3"])),
            min_size=1,
            max_size=6,
        )
    )
    for at, extra in sorted(noise, reverse=True):
        lines.insert(at, extra)
    noisy = "\n".join(lines) + "\n"
    assert _parse_bulk(noisy) is None  # ...and anything else line by line
    assert parse_walk_moves(noisy) == seq


@SETTINGS
@given(drawn_graph_walks(), st.data())
def test_any_single_int_changed_in_a_move_is_caught(inst, data):
    g, a, t1, t2, seq = inst
    assume(len(seq.moves))
    lines = format_walk_moves(seq).splitlines()
    i = data.draw(st.integers(g.n, len(lines) - 1))  # the n tree lines come first
    fields = lines[i].split()
    j = data.draw(st.integers(0, 2))
    fields[j] = str(data.draw(st.integers(-2, g.n + 1).filter(lambda x: x != int(fields[j]))))
    lines[i] = " ".join(fields)
    try:
        tampered = parse_walk_moves("\n".join(lines) + "\n")
    except GraphFormatError:
        return
    assert not verify_walk(g, a, tampered, source=t1, target=t2).ok


def _step(draw, count: int) -> int:
    """A step index below ``count``: the first, the last or any, each a third of the time."""
    last = count - 1
    return draw(st.one_of(st.just(0), st.just(last), st.integers(0, last)))


def _parents_before(source: RootedSpanningTree, flat: array, step: int) -> list[int]:
    """The parent array before ``step``, skipping moves that cannot be applied as verify_walk does."""
    parents = list(source.parents)
    n = len(parents)
    for v, new in zip(flat[0:3 * step:3], flat[2:3 * step:3]):
        if v != source.root and v != new and 0 <= v < n and 0 <= new < n:
            parents[v] = new
    return parents


TAMPERS = (
    "redirect", "drop", "stale", "non-leaf", "stay", "non-edge", "root", "self-parent",
    "out-of-range",
)


def _tamper(draw, g: Graph, source: RootedSpanningTree, flat: array, kind: str) -> None:
    """Corrupt the move store ``flat`` in place with one tamper of ``kind``, if it has a step for it."""
    n, root = g.n, source.root
    count = len(flat) // 3
    if kind in ("non-leaf", "stay"):
        # A non-root vertex with a child rehung onto a neighbour, or onto its
        # own parent (the one step with a child that is regular), inserted at
        # a drawn step.
        i = _step(draw, count + 1)
        parents = _parents_before(source, flat, i)
        held = sorted({p for v, p in enumerate(parents) if v != root and p != root})
        if held:
            v = draw(st.sampled_from(held))
            new = draw(st.sampled_from(g.adj[v])) if kind == "non-leaf" else parents[v]
            flat[3 * i:3 * i] = array("i", [v, parents[v], new])
        return
    if kind == "root":
        i = _step(draw, count + 1)
        flat[3 * i:3 * i] = array("i", [root, -1, draw(st.integers(0, n - 1))])
        return
    if not count:
        return
    i = _step(draw, count)
    v, old, new = flat[3 * i:3 * i + 3]
    if kind == "redirect":
        flat[3 * i + 2] = draw(st.integers(0, n - 1).filter(lambda w: w != new))
    elif kind == "drop":
        del flat[3 * i:3 * i + 3]
    elif kind == "stale":
        flat[3 * i + 1] = draw(st.integers(-1, n).filter(lambda w: w != old))
    elif kind == "non-edge":
        far = [w for w in range(n) if w != v and w not in g.adj[v]] if 0 <= v < n else []
        if far:
            flat[3 * i + 2] = draw(st.sampled_from(far))
    elif kind == "self-parent":
        flat[3 * i + 2] = v
    else:  # out-of-range: the vertex or its new parent, below 0 or at n and beyond
        bad = draw(st.sampled_from([-n - 1, -2, -1, n, n + 1]))
        flat[3 * i + draw(st.sampled_from([0, 2]))] = bad


@settings(SETTINGS, max_examples=300)
@given(instances(), st.data())
def test_verify_walk_reports_as_the_single_loop_reference(inst, data):
    # Random walks with up to two tampers, checked against the walk's root
    # or another vertex, with or without declared endpoints: the regular loop
    # and its hand-off must give exactly the reference's report.
    g, a, t1, t2 = inst
    seq = walk(g, a, t1, t2)
    flat = array("i", seq._flat)
    for kind in data.draw(st.lists(st.sampled_from(TAMPERS), max_size=2)):
        _tamper(data.draw, g, seq.source, flat, kind)
    tampered = WalkSequence(seq.source, flat)
    checked = data.draw(st.one_of(st.just(a), st.integers(0, g.n - 1)))
    source = data.draw(st.sampled_from([None, t1, t2]))
    target = data.draw(st.sampled_from([None, t1, t2]))
    report = verify_walk(g, checked, tampered, source=source, target=target)
    assert report == reference_verify_walk(g, checked, tampered, source=source, target=target)
