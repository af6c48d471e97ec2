"""Generative checks of the walk invariants on small biconnected graphs."""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from treewalk import (  # noqa: E402
    LeafMove,
    WalkSequence,
    format_walk_moves,
    parse_walk_moves,
    random_biconnected_graph,
    random_spanning_tree,
    verify_walk,
    walk,
)

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
