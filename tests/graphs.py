"""Fixed graphs shared across the test suite, with independently known facts.

Spanning-tree counts below were cross-checked by hand (cycle counts, Cayley's
formula, the theta-graph product rule ab+bc+ca, deletion-contraction for the
small composites) and by the package's two counting routes agreeing.

``bareiss_count`` is the dense reference for the package's sparse modular
count: the same determinant, by a different method and without a modulus.
"""

from __future__ import annotations

from treewalk import Graph


def _g(n, edges):
    return Graph.from_edges(n, edges)


TRIANGLE = _g(3, [(0, 1), (1, 2), (0, 2)])
C4 = _g(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = _g(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
C6 = _g(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
K4 = _g(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
K5 = _g(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
# three internally disjoint 0..5 paths of lengths 2, 3, 2
THETA = _g(6, [(0, 1), (1, 5), (0, 2), (2, 3), (3, 5), (0, 4), (4, 5)])
K23 = _g(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
WHEEL5 = _g(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)])
PRISM = _g(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
PETERSEN = _g(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)

# not 2-connected: vertex 2 is a cut vertex
TWO_TRIANGLES = _g(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
PATH3 = _g(3, [(0, 1), (1, 2)])
PATH4 = _g(4, [(0, 1), (1, 2), (2, 3)])
STAR4 = _g(4, [(0, 1), (0, 2), (0, 3)])

BICONNECTED = {
    "triangle": TRIANGLE,
    "c4": C4,
    "c5": C5,
    "c6": C6,
    "k4": K4,
    "k5": K5,
    "theta": THETA,
    "k23": K23,
    "wheel5": WHEEL5,
    "prism": PRISM,
    "petersen": PETERSEN,
}

NOT_BICONNECTED = {
    "two_triangles": TWO_TRIANGLES,
    "path3": PATH3,
    "path4": PATH4,
    "star4": STAR4,
}

ALL_GRAPHS = {**BICONNECTED, **NOT_BICONNECTED}

SPANNING_TREE_COUNTS = {
    "triangle": 3,
    "c4": 4,
    "c5": 5,
    "c6": 6,
    "k4": 16,       # Cayley 4^2
    "k5": 125,      # Cayley 5^3
    "theta": 16,    # 2*3 + 3*2 + 2*2
    "k23": 12,
    "wheel5": 45,
    "prism": 75,
    "petersen": 2000,
    "two_triangles": 9,   # 3 * 3, glued at the cut vertex
    "path3": 1,
    "path4": 1,
    "star4": 1,
}

# diameter of the leaf-move adjacency graph over all spanning trees, root 0
TREE_GRAPH_DIAMETERS = {
    "triangle": 2,
    "c4": 3,
    "c5": 4,
    "k4": 4,
}


def bareiss_count(g: Graph) -> int:
    """Number of spanning trees via the Laplacian minor determinant.

    Dense fraction-free (Bareiss) elimination over Python integers, with row
    swaps for zero pivots, so the value is exact at any size.
    """
    n = g.n
    size = n - 1
    mat = [[0] * size for _ in range(size)]
    for v in range(1, n):
        mat[v - 1][v - 1] = len(g.adj[v])
        for w in g.adj[v]:
            if w >= 1:
                mat[v - 1][w - 1] -= 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            for r in range(k + 1, size):
                if mat[r][k] != 0:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = mat[k][k]
        for i in range(k + 1, size):
            row_i = mat[i]
            row_k = mat[k]
            factor = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return sign * mat[size - 1][size - 1]
