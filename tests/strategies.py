"""Hypothesis strategies shared by the generative tests.

Import this module only after ``pytest.importorskip("hypothesis")``.
"""

from __future__ import annotations

from hypothesis import strategies as st

from treewalk import Graph


@st.composite
def graphs(draw, max_n: int = 9, surplus: int = 10):
    """A graph on 2..max_n vertices from at most n + surplus drawn vertex pairs.

    Repeated pairs collapse, so sparse draws leave isolated vertices and
    several components, and a larger surplus gives 2-connected graphs too.
    """
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=n + surplus))
    return Graph.from_edges(n, sorted(set(edges)))


@st.composite
def connected_graphs(draw):
    """(graph, root): a random tree on 3..7 vertices plus random extra edges.

    Few extra edges leave cut vertices and bridges, so graphs that are not
    2-connected are drawn as often as ones that are.
    """
    n = draw(st.integers(3, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    return Graph.from_edges(n, sorted(edges)), draw(st.integers(0, n - 1))
