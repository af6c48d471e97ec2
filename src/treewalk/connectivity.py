"""Biconnectivity testing and st-numbering construction / validation.

An st-numbering for an edge (s, t) orders the vertices v_1..v_n so that
v_1 = s, v_n = t, and every other vertex has both a lower-numbered and a
higher-numbered neighbor.  Such an order exists iff the graph is
2-vertex-connected, and it is the scaffolding for the canonical-tree walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import ge, le

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

    Returns parents, children, the lower ends of each vertex's back edges
    from below, and per vertex the next step of its lowpoint chain: the top
    of the first back edge reaching its lowpoint or, if only a subtree gets
    lower, the first such child.  Returns None unless ``g`` is 2-connected
    (Tarjan's lowpoint test): n >= 3, every vertex reached, t with one tree
    child, and for every other vertex v each child subtree reaching above v.
    """
    n = g.n
    if n < 3:
        return None
    adj = g.adj
    pre = [0] * n
    parent = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    down_backs: list[list[int]] = [[] for _ in range(n)]  # lower ends of back edges to v
    low = [0] * n  # lowpoint; until v is finished, over its own back edges only
    low_next = [-1] * n  # the upper end of the back edge, or the child, realizing low
    low_kid = [n + 1] * n  # lowest lowpoint of a finished child, and that child
    best_kid = [-1] * n
    pre[t] = low[t] = 1
    timer = 1
    stack = [t]
    scans = [iter((s, *(w for w in adj[t] if w != s)))]
    while scans:
        v = stack[-1]
        pv, up = pre[v], parent[v]
        for w in scans[-1]:
            pw = pre[w]
            if not pw:
                parent[w] = v
                timer += 1
                pre[w] = low[w] = timer
                children[v].append(w)
                stack.append(w)
                scans.append(iter(adj[w]))
                break
            if pw < pv and w != up:
                down_backs[w].append(v)
                if pw < low[v]:
                    low[v] = pw
                    low_next[v] = w
        else:
            # v is finished: a child's subtree wins only below every back edge
            stack.pop()
            scans.pop()
            lv = low[v]
            if low_kid[v] < lv:
                lv = low[v] = low_kid[v]
                low_next[v] = best_kid[v]
            if up >= 0:
                if up != t and lv >= pre[up]:
                    return None
                if lv < low_kid[up]:
                    low_kid[up] = lv
                    best_kid[up] = v
    if timer != n or len(children[t]) != 1:
        return None
    return parent, children, down_backs, low_next


def is_biconnected(g: Graph) -> bool:
    """True iff ``g`` is connected, has no cut vertex, and n >= 3."""
    return bool(g.adj[0]) and _lowpoint_search(g, g.adj[0][0], 0) is not None


def st_numbering(g: Graph, s: int, t: int) -> STNumbering:
    """The st-numbering of :func:`_st_order` for an edge (s, t), checked before it is returned.

    Raises ValueError unless (s, t) is an edge, then NotBiconnectedError if ``g`` is not 2-connected.
    """
    if not g.has_edge(s, t):
        raise ValueError(f"({s}, {t}) is not a graph edge")
    result = _st_order(g, s, t)
    if not validate_st_numbering(g, result, s, t):
        raise AssertionError(f"st_numbering built an invalid order for ({s}, {t})")
    return result


def _st_order(g: Graph, s: int, t: int) -> STNumbering:
    """An st-numbering of ``g`` plus the edge (s, t), unchecked.

    Depth-first search from t taking the edge (t, s) first gives lowpoints,
    which decide biconnectivity; a second pass peels paths of unplaced
    vertices between placed ones off the structure and splices them into a
    growing vertex order (Even and Tarjan's scheme).  An edge is used once
    its lower end is placed, so one flag per vertex replaces a set of used
    edges.  Neighbor lists are scanned in ascending order.  The edge (s, t)
    is never read (t leaves along it first, s skips t, its parent), so ``g``
    need not hold it.  Raises NotBiconnectedError unless ``g`` + (s, t) is 2-connected.
    """
    search = _lowpoint_search(g, s, t)
    if search is None:
        raise NotBiconnectedError("st-numbering requires a 2-vertex-connected graph")
    parent, children, down_backs, low_next = search
    placed = bytearray(g.n)
    placed[s] = placed[t] = 1
    order = []
    work = [t, s]
    while work:
        v = work.pop()
        # From a child down its lowpoint chain, then one back edge up to a
        # placed ancestor; from the lower end of a back edge up the tree to a
        # placed vertex.
        for starts, step in ((children[v], low_next), (down_backs[v], parent)):
            for u in starts:
                if not placed[u]:
                    path = []
                    while not placed[u]:
                        placed[u] = 1
                        path.append(u)
                        u = step[u]
                    work += reversed(path)
        order.append(v)
    return STNumbering(tuple(order))


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
    whichever of the two tests applies to it.  The tables are filled by
    visiting the vertices in descending positions, each one overwriting its
    neighbors' entries in ``lo``, and ascending for ``hi``; the error names
    the lowest-numbered vertex that fails.
    """
    if num.n != g.n:
        raise ValueError(f"numbering has {num.n} vertices, graph has {g.n}")
    n, adj, order, pos = g.n, g.adj, num.order, num.positions
    lo, hi = list(range(n)), list(range(n))
    for u in reversed(order):
        for w in adj[u]:
            lo[w] = u
    for u in order:
        for w in adj[u]:
            hi[w] = u
    # The first vertex always lacks a lower neighbor and the last a higher one.
    no_lower = compress(range(n), map(ge, map(pos.__getitem__, lo), pos))
    no_higher = compress(range(n), map(le, map(pos.__getitem__, hi), pos))
    v_lo = next((v for v in no_lower if v != order[0]), n)
    v_hi = next((v for v in no_higher if v != order[-1]), n)
    if v_lo < n and v_lo <= v_hi:
        raise ValueError(f"not an st-numbering: vertex {v_lo} has no lower-positioned neighbor")
    if v_hi < n:
        raise ValueError(f"not an st-numbering: vertex {v_hi} has no higher-positioned neighbor")
    return lo, hi
