"""Generative checks of the sparse modular tree count on graphs of 2..9 vertices.

Disconnected graphs and isolated vertices are drawn as well as connected
ones; the count must be 0 for them.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from treewalk import count_spanning_trees_kirchhoff, enumerate_spanning_trees  # noqa: E402

from graphs import bareiss_count  # noqa: E402
from strategies import graphs  # noqa: E402

# Derandomized so the suite sees the same examples on every run.
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def rooted_graphs(draw):
    g = draw(graphs())
    return g, draw(st.integers(0, g.n - 1))


@SETTINGS
@given(rooted_graphs())
def test_count_equals_dense_determinant_and_enumeration(inst):
    g, root = inst
    count = count_spanning_trees_kirchhoff(g)
    assert count == bareiss_count(g)
    assert count == len(enumerate_spanning_trees(g, root=root))
