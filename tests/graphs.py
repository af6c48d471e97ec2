"""Fixed graphs shared across the test suite, with independently known facts.

Spanning-tree counts below were cross-checked by hand (cycle counts, Cayley's
formula, the theta-graph product rule ab+bc+ca, deletion-contraction for the
small composites) and by the package's two counting routes agreeing.

``bareiss_count`` is the dense reference for the package's sparse modular
count: the same determinant, by a different method and without a modulus.
``reference_st_numbering`` is the path-peeling st-numbering that keeps a set
of used edges; the package's flag-array version must give the same orders.
``reference_enumeration`` is the backtracker that keeps its chosen edges and
a union-find list, orienting each finished edge list with
``tree_from_edges``; the package's oriented-forest version must list the
same trees in the same order.
"""

from __future__ import annotations

from treewalk import Graph, NotBiconnectedError, RootedSpanningTree, STNumbering, tree_from_edges


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


def _reference_lowpoints(g: Graph, s: int, t: int):
    """Depth-first search from t taking the edge (t, s) first, with lowpoints.

    Returns the tree (parents, children), the back edges seen from both ends
    and, per vertex, the back edge or the child that realizes its lowpoint.
    Returns None unless ``g`` is 2-vertex-connected (Tarjan's lowpoint test):
    n >= 3, every vertex reached, t with one tree child, and for every other
    vertex v each child subtree has a back edge to above v.
    """
    n = g.n
    if n < 3:
        return None
    adj = g.adj
    pre = [0] * n
    parent = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    up_backs: list[list[int]] = [[] for _ in range(n)]   # back edges to strict ancestors
    down_backs: list[list[int]] = [[] for _ in range(n)]  # the same edges seen from above
    neighbor_order = [adj[v] for v in range(n)]
    neighbor_order[t] = tuple([s] + [w for w in adj[t] if w != s])
    ptr = [0] * n
    pre[t] = 1
    timer = 1
    stack = [t]
    preorder = [t]
    while stack:
        v = stack[-1]
        if ptr[v] < len(neighbor_order[v]):
            w = neighbor_order[v][ptr[v]]
            ptr[v] += 1
            if w == parent[v]:
                continue
            if pre[w] == 0:
                parent[w] = v
                timer += 1
                pre[w] = timer
                children[v].append(w)
                preorder.append(w)
                stack.append(w)
            elif pre[w] < pre[v]:
                up_backs[v].append(w)
                down_backs[w].append(v)
        else:
            stack.pop()
    if timer != n or len(children[t]) != 1:
        return None

    low = pre[:]
    low_via_back = [-1] * n   # ancestor reached by a back edge, or -1
    low_via_child = [-1] * n  # child whose subtree realizes the lowpoint, or -1
    for v in reversed(preorder):
        for w in up_backs[v]:
            if pre[w] < low[v]:
                low[v] = pre[w]
                low_via_back[v] = w
                low_via_child[v] = -1
        for c in children[v]:
            if v != t and low[c] >= pre[v]:
                return None
            if low[c] < low[v]:
                low[v] = low[c]
                low_via_back[v] = -1
                low_via_child[v] = c
    return parent, children, up_backs, down_backs, low_via_back, low_via_child


def reference_st_numbering(g: Graph, s: int, t: int) -> STNumbering:
    """The st-numbering of the classical path-peeling scheme, edge by edge.

    Depth-first search from t taking the edge (t, s) first gives lowpoints;
    a second pass repeatedly peels a path of unvisited vertices between two
    visited ones off the structure and splices it into a growing vertex
    order, keeping every used edge in a set of (min, max) pairs.  The
    package's ``st_numbering`` must give the same order.
    """
    if not g.has_edge(s, t):
        raise ValueError(f"({s}, {t}) is not a graph edge")
    search = _reference_lowpoints(g, s, t)
    if search is None:
        raise NotBiconnectedError("st-numbering requires a 2-vertex-connected graph")
    parent, children, up_backs, down_backs, low_via_back, low_via_child = search
    n = g.n

    # --- path-based ordering ---
    old_vertex = [False] * n
    old_vertex[s] = old_vertex[t] = True
    old_edge = {(s, t) if s < t else (t, s)}
    cursor_up = [0] * n
    cursor_child = [0] * n
    cursor_down = [0] * n

    def take(v: int, lst: list[int], cursor: list[int]) -> int:
        i = cursor[v]
        while i < len(lst):
            w = lst[i]
            if ((v, w) if v < w else (w, v)) not in old_edge:
                cursor[v] = i + 1
                old_edge.add((v, w) if v < w else (w, v))
                return w
            i += 1
        cursor[v] = i
        return -1

    def find_path(v: int) -> list[int] | None:
        w = take(v, up_backs[v], cursor_up)
        if w >= 0:
            return [v, w]
        w = take(v, children[v], cursor_child)
        if w >= 0:
            # walk down the lowpoint chain, then one back edge up to an old ancestor
            path = [v, w]
            u = w
            while not old_vertex[u]:
                old_vertex[u] = True
                z = low_via_back[u]
                if z < 0:
                    z = low_via_child[u]
                old_edge.add((u, z) if u < z else (z, u))
                path.append(z)
                u = z
            return path
        w = take(v, down_backs[v], cursor_down)
        if w >= 0:
            # climb from the descendant back toward v along tree edges
            path = [v, w]
            u = w
            while not old_vertex[u]:
                old_vertex[u] = True
                p = parent[u]
                old_edge.add((u, p) if u < p else (p, u))
                path.append(p)
                u = p
            return path
        return None

    number = [0] * n
    counter = 0
    work = [t, s]
    while work:
        v = work.pop()
        path = find_path(v)
        if path is None:
            counter += 1
            number[v] = counter
        else:
            # re-stack the path with v on top; the final (old) vertex stays put
            work.extend(path[-2::-1])

    order = [0] * n
    for v in range(n):
        order[number[v] - 1] = v
    return STNumbering(tuple(order))


def _reference_find(comp: list[int], x: int) -> int:
    while comp[x] != x:
        comp[x] = comp[comp[x]]
        x = comp[x]
    return x


def _reference_connects(edges, start: int, comp: list[int], parts: int) -> bool:
    """Whether ``edges[start:]`` join the ``parts`` components of the union-find list ``comp``."""
    label = comp.copy()
    for u, v in edges[start:]:
        ru, rv = _reference_find(label, u), _reference_find(label, v)
        if ru != rv:
            label[ru] = rv
            parts -= 1
    return parts == 1


def reference_enumeration(g: Graph, root: int = 0) -> list[RootedSpanningTree]:
    """Every spanning tree rooted at ``root``, by inclusion/exclusion of sorted edges.

    An explicit stack of (next edge, chosen edges, union-find list), the
    include branch pushed last and explored first; an exclude branch is
    pushed only while the chosen edges plus the later ones still connect
    the graph.  Each finished edge list is oriented by ``tree_from_edges``.
    """
    n = g.n
    edges = sorted(g.edges)
    m = len(edges)
    result = []
    start = list(range(n))
    stack = [(0, (), start)] if _reference_connects(edges, 0, start, n) else []
    while stack:
        idx, chosen, comp = stack.pop()
        count = len(chosen)
        if count == n - 1:
            result.append(tree_from_edges(n, chosen, root))
            continue
        u, v = edges[idx]
        ru, rv = _reference_find(comp, u), _reference_find(comp, v)
        if ru == rv:
            stack.append((idx + 1, chosen, comp))
            continue
        if count + m - idx - 1 >= n - 1 and _reference_connects(edges, idx + 1, comp, n - count):
            stack.append((idx + 1, chosen, comp))
            comp = comp.copy()
        comp[ru] = rv
        stack.append((idx + 1, chosen + ((u, v),), comp))
    return result
