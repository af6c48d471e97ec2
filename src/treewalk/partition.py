"""Connected two-part vertex partitions of biconnected graphs.

Given distinct anchors u1, u2 and a size n1, split the vertices into V1 (with
u1, size n1) and V2 (with u2) so that both parts induce connected subgraphs.
A prefix of an st-numbering induces a connected subgraph, and so does a
suffix, so one numbering of g plus the edge (u1, u2), cut after n1, does it.
"""

from __future__ import annotations

from .connectivity import NotBiconnectedError, _st_order, is_biconnected
from .graph import Graph


def _induced_connected(g: Graph, part: set[int]) -> bool:
    start = next(iter(part))
    seen, stack = {start}, [start]
    while stack:
        for w in g.adj[stack.pop()]:
            if w in part and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(part)


def validate_partition2(
    g: Graph, v1: set[int], v2: set[int], u1: int, u2: int, n1: int
) -> str | None:
    """First problem with a claimed partition, or None if it is valid."""
    if v1 & v2:
        return f"parts overlap: {sorted(v1 & v2)}"
    if v1 | v2 != set(range(g.n)):
        return "parts do not cover every vertex"
    if len(v1) != n1:
        return f"first part has {len(v1)} vertices, expected {n1}"
    if u1 not in v1:
        return f"anchor {u1} missing from first part"
    if u2 not in v2:
        return f"anchor {u2} missing from second part"
    if not _induced_connected(g, v1):
        return "first part is not connected"
    if not _induced_connected(g, v2):
        return "second part is not connected"
    return None


def partition2(g: Graph, u1: int, u2: int, n1: int) -> tuple[set[int], set[int]]:
    """Connected partition (V1, V2) with u1 in V1, u2 in V2, |V1| = n1."""
    return partition2_with_strategy(g, u1, u2, n1)[:2]


def partition2_with_strategy(g: Graph, u1: int, u2: int, n1: int) -> tuple[set[int], set[int], str]:
    """Same as :func:`partition2` but also reports which strategy produced it.

    Cuts after position n1 the st-numbering of g plus the edge (u1, u2):
    "direct-edge" if g has that edge, else "virtual-edge".  Only edges at
    interior vertices connect a prefix or a suffix, so the cut is valid in g
    too.  g plus (u1, u2) can be 2-connected when g is not, hence the
    :func:`is_biconnected` test before a virtual edge.
    """
    if u1 == u2:
        raise ValueError("anchors must be distinct")
    if not (0 <= u1 < g.n and 0 <= u2 < g.n):
        raise ValueError("anchor out of range")
    if not 1 <= n1 <= g.n - 1:
        raise ValueError(f"n1 must be in [1, {g.n - 1}], got {n1}")
    if not g.adj[u1]:
        raise NotBiconnectedError(f"anchor {u1} has no neighbor")
    strategy = "direct-edge" if g.has_edge(u1, u2) else "virtual-edge"
    if strategy == "virtual-edge" and not is_biconnected(g):
        raise NotBiconnectedError("st-numbering requires a 2-vertex-connected graph")
    num = _st_order(g, u1, u2)
    v1, v2 = set(num.order[:n1]), set(num.order[n1:])
    problem = validate_partition2(g, v1, v2, u1, u2, n1)
    if problem is not None:
        raise RuntimeError(f"internal error: produced partition invalid ({problem})")
    return v1, v2, strategy
