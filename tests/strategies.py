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
