"""The quadratic-distance witness family.

``make_gk(k)`` builds a 2-vertex-connected graph on 4k+1 vertices (6k edges)
made of k four-cycles chained by ladder edges and tied to vertex 0, together
with two distinguished spanning trees: a Hamiltonian path and a two-branch
tree.  Any leaf-move walk between the two trees needs at least 2k(k-1) moves,
so the family certifies that walk lengths cannot be subquadratic in general.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, RootedSpanningTree, tree_from_edges


@dataclass(frozen=True)
class LowerBoundInstance:
    k: int
    graph: Graph
    root: int
    tree_a: RootedSpanningTree
    tree_b: RootedSpanningTree


def make_gk(k: int) -> LowerBoundInstance:
    """Instance number k: 4k+1 vertices, 6k edges, both trees rooted at 0."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n = 4 * k + 1
    # Ladder edges join consecutive four-cycles, in the graph and in the two-branch tree.
    ladder = [e for b in range(0, 4 * k - 4, 4) for e in ((b + 4, b + 5), (b + 3, b + 6))]
    edges = [(0, 1), (0, 2)]
    for b in range(0, 4 * k, 4):
        edges += [(b + 1, b + 2), (b + 2, b + 3), (b + 3, b + 4), (b + 4, b + 1)]
    graph = Graph.from_edges(n, edges + ladder)

    path_edges = [(i, i + 1) for i in range(n - 1)]
    tree_a = tree_from_edges(n, path_edges, 0)

    branch_edges = [(0, 1), (0, 2)]
    for b in range(0, 4 * k, 4):
        branch_edges += [(b + 1, b + 4), (b + 2, b + 3)]
    tree_b = tree_from_edges(n, branch_edges + ladder, 0)

    return LowerBoundInstance(k, graph, 0, tree_a, tree_b)


def lower_bound_value(k: int) -> int:
    """Minimum number of moves between the two trees of instance k: 2k(k-1)."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return 2 * k * (k - 1)
