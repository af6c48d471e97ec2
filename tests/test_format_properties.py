"""Generative parse/format round trips for the graph and tree file formats."""

from __future__ import annotations

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from treewalk import (  # noqa: E402
    GraphFormatError,
    RootedSpanningTree,
    format_graph,
    format_tree,
    parse_graph,
    parse_tree,
)

import treewalk.graph  # noqa: E402
from strategies import graphs  # noqa: E402
from treewalk.graph import _parse_graph_bulk  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def parent_arrays(draw):
    """A rooted parent array on 2..12 vertices.

    Each non-root vertex gets any other vertex as its parent, so the array
    need not be a tree of any graph: the format does not ask for one.
    """
    n = draw(st.integers(2, 12))
    root = draw(st.integers(0, n - 1))
    parents = []
    for v in range(n):
        if v == root:
            parents.append(-1)
        else:
            p = draw(st.integers(0, n - 2))
            parents.append(p + (p >= v))
    return RootedSpanningTree(root, tuple(parents))


@SETTINGS
@given(graphs(max_n=12, surplus=20))
def test_graph_round_trip(g):
    # A header may claim at most 2m + 2 vertices; more isolated ones are refused.
    if g.n <= 2 * g.m + 2:
        assert parse_graph(format_graph(g)) == g
    else:
        message = f"^line 1: {g.n} vertices exceed 2m \\+ 2 for m = {g.m}$"
        with pytest.raises(GraphFormatError, match=message):
            parse_graph(format_graph(g))


def _outcome(text):
    """The graph ``parse_graph`` reads from ``text``, or the message of its error."""
    try:
        return parse_graph(text)
    except GraphFormatError as exc:
        return str(exc)


@SETTINGS
@given(graphs(max_n=12, surplus=20), st.data())
def test_graph_bulk_reader_reads_what_the_line_reader_reads(g, data):
    text = format_graph(g)
    if g.n <= 2 * g.m + 2:
        assert _parse_graph_bulk(text) == g  # the writer's form is read in bulk
    # Up to three one-character inserts or replacements anywhere in the text.
    edits = data.draw(st.lists(
        st.tuples(st.integers(0, len(text)), st.booleans(), st.sampled_from("0123456789 \n-+#x\t\r")),
        max_size=3,
    ))
    for at, replace, char in edits:
        text = text[:at] + char + text[at + replace:]
    with mock.patch.object(treewalk.graph, "_parse_graph_bulk", lambda text: None):
        expected = _outcome(text)
    assert _outcome(text) == expected


@SETTINGS
@given(parent_arrays())
def test_tree_round_trip(t):
    assert parse_tree(format_tree(t)) == t
