"""Biconnectivity testing and st-numbering construction / validation.

An st-numbering for an edge (s, t) orders the vertices v_1..v_n so that
v_1 = s, v_n = t, and every other vertex has both a lower-numbered and a
higher-numbered neighbor.  Such an order exists iff the graph is
2-vertex-connected, and it is the scaffolding for the canonical-tree walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph


class NotBiconnectedError(ValueError):
    """Raised when an operation requires a 2-vertex-connected graph."""


@dataclass(frozen=True)
class STNumbering:
    """A vertex order; ``order[i]`` is the vertex at position i+1 (positions are 1-based)."""

    order: tuple[int, ...]
    _pos: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise ValueError("order must be a permutation of 0..n-1")
        pos = [0] * n
        for i, v in enumerate(self.order):
            pos[v] = i + 1
        object.__setattr__(self, "_pos", tuple(pos))

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def positions(self) -> tuple[int, ...]:
        """1-based position of every vertex, indexed by vertex id."""
        return self._pos


def _lowpoint_search(g: Graph, s: int, t: int):
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


def is_biconnected(g: Graph) -> bool:
    """True iff ``g`` is connected, has no cut vertex, and n >= 3."""
    return bool(g.adj[0]) and _lowpoint_search(g, g.adj[0][0], 0) is not None


def st_numbering(g: Graph, s: int, t: int) -> STNumbering:
    """Compute an st-numbering of a biconnected graph for the edge (s, t).

    Depth-first search from t taking the edge (t, s) first gives lowpoints,
    which decide biconnectivity; a second pass repeatedly peels a path of
    unvisited vertices between two visited ones off the structure and splices
    it into a growing vertex order (the classical linear-time scheme).  Output
    is deterministic: neighbor lists are scanned in ascending vertex order.
    Raises ValueError unless (s, t) is an edge, then NotBiconnectedError
    unless ``g`` is 2-vertex-connected.
    """
    if not g.has_edge(s, t):
        raise ValueError(f"({s}, {t}) is not a graph edge")
    search = _lowpoint_search(g, s, t)
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
    result = STNumbering(tuple(order))
    if not validate_st_numbering(g, result, s, t):
        raise AssertionError(f"st_numbering built an invalid order for ({s}, {t})")
    return result


def validate_st_numbering(g: Graph, num: STNumbering, s: int, t: int) -> bool:
    """Check the three defining conditions of an st-numbering for (s, t)."""
    try:
        _extreme_neighbors(g, num)
    except ValueError:
        return False
    return num.order[0] == s and num.order[-1] == t and g.has_edge(s, t)


def _extreme_neighbors(g: Graph, num: STNumbering) -> tuple[list[int], list[int]]:
    """Per vertex, the neighbor with the lowest and the highest position.

    Raises ValueError unless ``num`` orders the vertices of ``g``, every
    vertex but the first has a neighbor below it and every vertex but the
    last has one above it, as in an st-numbering: the walk's stages drop
    vertices down and restore them up along these neighbors.  An isolated
    vertex counts as its own lowest and highest neighbor, so it fails
    whichever of the two tests applies to it.
    """
    if num.n != g.n:
        raise ValueError(f"numbering has {num.n} vertices, graph has {g.n}")
    pos = num.positions
    first, last = num.order[0], num.order[-1]
    lo = [0] * g.n
    hi = [0] * g.n
    for v, nbrs in enumerate(g.adj):
        lo[v] = min(nbrs, key=pos.__getitem__, default=v)
        hi[v] = max(nbrs, key=pos.__getitem__, default=v)
        if v != first and pos[lo[v]] >= pos[v]:
            raise ValueError(f"not an st-numbering: vertex {v} has no lower-positioned neighbor")
        if v != last and pos[hi[v]] <= pos[v]:
            raise ValueError(f"not an st-numbering: vertex {v} has no higher-positioned neighbor")
    return lo, hi
