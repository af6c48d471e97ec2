"""Core types: simple undirected graphs, rooted spanning trees, and leaf moves.

Two spanning trees rooted at the same vertex are considered adjacent when one
can be turned into the other by detaching a single leaf (never the root) and
reattaching it to another neighbor.  Both characterizations of that relation
live here: the edge-intersection test and the direct parent-map test.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence


class GraphFormatError(ValueError):
    """Raised when a graph or tree description cannot be parsed."""


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``edges`` holds normalized (min, max) pairs; ``adj`` holds sorted neighbor
    tuples, so the construction order of the edge list never matters.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    adj: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @classmethod
    def from_edges(cls, n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
        if n < 2:
            raise ValueError(f"need at least 2 vertices, got {n}")
        seen: set[tuple[int, int]] = set()
        lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in edge_list:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(e)
            lists[u].append(v)
            lists[v].append(u)
        adj = tuple(map(tuple, map(sorted, lists)))
        return cls(n, frozenset(seen), adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm(u, v) in self.edges


@dataclass(frozen=True)
class RootedSpanningTree:
    """Candidate spanning tree stored as a parent array rooted at ``root``.

    ``parents[root]`` is -1; every other slot names that vertex's parent.  The
    shape is checked here, but whether the parent map really is a spanning
    tree of a particular graph is the job of :func:`spanning_tree_violation`
    (the array may encode a cycle, which that check rejects).
    """

    root: int
    parents: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.parents)
        if not 0 <= self.root < n:
            raise ValueError(f"root {self.root} out of range for {n} vertices")
        for v, p in enumerate(self.parents):
            if v == self.root:
                if p != -1:
                    raise ValueError(f"root {v} must have parent -1, got {p}")
            elif not 0 <= p < n or p == v:
                raise ValueError(f"vertex {v} has invalid parent {p}")

    @property
    def n(self) -> int:
        return len(self.parents)

    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(_norm(v, p) for v, p in enumerate(self.parents) if v != self.root)


class _LeafMoveFields(NamedTuple):
    vertex: int
    old_parent: int
    new_parent: int


class LeafMove(_LeafMoveFields):
    """Detach ``vertex`` from ``old_parent`` and reattach it to ``new_parent``.

    An immutable named tuple, so it compares equal to the plain tuple
    ``(vertex, old_parent, new_parent)``.  Code that already knows the two
    ends differ may build one unchecked with ``tuple.__new__(LeafMove, ...)``.
    """

    __slots__ = ()

    def __new__(cls, vertex: int, old_parent: int, new_parent: int) -> LeafMove:
        if new_parent == vertex:
            raise ValueError(f"vertex {vertex} cannot become its own parent")
        return tuple.__new__(cls, (vertex, old_parent, new_parent))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> LeafMove:
        # The named-tuple default skips __new__; _replace goes through here too.
        return cls(*iterable)


def _child_counts(parents: Sequence[int]) -> list[int]:
    """Number of children of each vertex in a parent array (the root's -1 counts for none)."""
    kids = [0] * len(parents)
    for p in parents:
        if p >= 0:
            kids[p] += 1
    return kids


def spanning_tree_violation(g: Graph, t: RootedSpanningTree) -> str | None:
    """The first invariant that keeps ``t`` from being a spanning tree of ``g``, or None."""
    n = g.n
    if t.n != n:
        return f"vertex count mismatch: tree has {t.n}, graph has {n}"
    parents = t.parents
    edges = g.edges
    for v in range(n):
        if v == t.root:
            continue
        p = parents[v]
        if ((v, p) if v < p else (p, v)) not in edges:
            return f"tree edge ({v}, {p}) is not a graph edge"
    # Every vertex must reach the root through the parent chain (no cycles).
    state = [0] * n  # 0 unknown, 1 reaches root, 2 on current chain
    state[t.root] = 1
    for v in range(n):
        if state[v]:
            continue
        chain = []
        u = v
        while state[u] == 0:
            state[u] = 2
            chain.append(u)
            u = parents[u]
        if state[u] == 2:
            return f"parent chain from vertex {v} loops back to {u}"
        for w in chain:
            state[w] = 1
    return None


def _check_tree_pair(g: Graph, a: int, t: RootedSpanningTree, t_prime: RootedSpanningTree) -> None:
    """Raise ValueError unless ``t`` and ``t_prime`` are spanning trees of ``g`` rooted at ``a``."""
    if t.root != a or t_prime.root != a:
        raise ValueError(f"both trees must be rooted at {a} (got {t.root}, {t_prime.root})")
    for name, tree in (("source", t), ("target", t_prime)):
        problem = spanning_tree_violation(g, tree)
        if problem is not None:
            raise ValueError(f"{name} tree invalid: {problem}")


def _check_same_shape(t_a: RootedSpanningTree, t_b: RootedSpanningTree, a: int) -> None:
    if t_a.n != t_b.n:
        raise ValueError(f"trees over mismatched vertex sets ({t_a.n} vs {t_b.n})")
    if t_a.root != a or t_b.root != a:
        raise ValueError(f"both trees must be rooted at {a} (got {t_a.root}, {t_b.root})")


def _find(comp: list[int], x: int) -> int:
    """Representative of ``x`` in the union-find list ``comp``, halving the path to it."""
    while comp[x] != x:
        comp[x] = comp[comp[x]]
        x = comp[x]
    return x


def _hang(forest: list[int], v: int, u: int) -> None:
    """Reverse the path from ``v`` to its top, so that ``v`` tops it, and point ``v`` at ``u``."""
    while True:
        up = forest[v]
        forest[v] = u
        if up == v:
            return
        u, v = v, up


def trees_adjacent(t_a: RootedSpanningTree, t_b: RootedSpanningTree, a: int) -> bool:
    """Edge-intersection adjacency test.

    Adjacent means the common edges of the two trees contain a tree on n-1
    vertices that includes ``a``; identical trees pass trivially.  Any
    connected subgraph on n-1 vertices contains such a tree, so this reduces
    to: the component of ``a`` in the shared-edge graph has at least n-1
    vertices.  Computed with a union-find over the shared edges.
    """
    _check_same_shape(t_a, t_b, a)
    n = t_a.n
    pa, pb = t_a.parents, t_b.parents
    if pa == pb:
        return True
    ea = {(v * n + pa[v]) if v < pa[v] else (pa[v] * n + v) for v in range(n) if v != a}
    comp = list(range(n))
    for v in range(n):
        if v == a:
            continue
        p = pb[v]
        if ((v * n + p) if v < p else (p * n + v)) in ea:
            x, y = _find(comp, v), _find(comp, p)
            if x != y:
                comp[x] = y
    r = _find(comp, a)
    return sum(_find(comp, v) == r for v in range(n)) >= n - 1


def trees_adjacent_via_move(t_a: RootedSpanningTree, t_b: RootedSpanningTree, a: int) -> bool:
    """Parent-map adjacency test: equal trees, or exactly one leaf was rehung."""
    _check_same_shape(t_a, t_b, a)
    pa, pb = t_a.parents, t_b.parents
    if pa == pb:
        return True
    v = -1
    for w in range(t_a.n):
        if pa[w] != pb[w]:
            if v >= 0:
                return False
            v = w
    # v's children agree in both trees because every other parent entry agrees
    return v not in pa and v not in pb


def tree_from_edges(n: int, edge_list: Iterable[tuple[int, int]], root: int) -> RootedSpanningTree:
    """Orient an undirected tree edge list away from ``root``.

    Union-find with the enumeration's forest: an edge whose ends share a
    component closes a cycle, and any other hangs the end on the smaller
    side from the other end.  A vertex is on the smaller side at most
    log2(n) times, so O(n log n) in all.  ``n - 1`` edges with no cycle span.
    """
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for {n} vertices")
    edges = list(edge_list)
    if len(edges) != n - 1:
        raise ValueError(f"expected {n - 1} edges, got {len(edges)}")
    forest, label, size = list(range(n)), list(range(n)), [1] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        ru, rv = _find(label, u), _find(label, v)
        if ru == rv:
            raise ValueError(f"edge ({u}, {v}) closes a cycle")
        if size[ru] > size[rv]:
            u, v, ru, rv = v, u, rv, ru
        _hang(forest, u, v)
        label[ru] = rv
        size[rv] += size[ru]
    _hang(forest, root, -1)
    return RootedSpanningTree(root, tuple(forest))


def _data_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((idx, line))
    return out


def _parse_ints(lineno: int, line: str, count: int) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise GraphFormatError(f"line {lineno}: expected {count} integers, got {line!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise GraphFormatError(f"line {lineno}: expected {count} integers, got {line!r}") from None


def _bulk_ints(text: str, start: int, per_line: int, n: int) -> array | None:
    """The ints of ``text[start:]`` if each of its lines is ``per_line`` vertex ids, else None.

    That is the writers' exact form: ids 0..n-1 in plain decimal, one space
    between two, a newline after each line.  Slices of some 64 KB are
    converted at a time, so few tokens are held at once.  ``n`` must be
    bounded by the text: the ids are looked up in a table of all n.
    """
    table = {str(v): v for v in range(n)}
    line = b" " * (per_line - 1) + b"\n"
    out = array("i")
    while start < len(text):
        end = text.find("\n", start + 65536) + 1 or len(text)
        part = text[start:end]
        count = part.count("\n")
        ints = list(map(table.get, part.split()))
        # With its digits deleted, every line reads per_line - 1 spaces and a newline.
        skeleton = part.encode().translate(None, b"0123456789")
        if skeleton != line * count or len(ints) != per_line * count or None in ints:
            return None
        out.fromlist(ints)
        start = end
    return out


def parse_graph(text: str) -> Graph:
    """Parse the graph file format: a header ``n m`` then m lines ``u v``.

    Lines starting with '#' and blank lines are skipped.  Errors name the
    offending line.  A header may claim at most 2m + 2 vertices, so a graph
    takes memory in proportion to its text.  Text in the exact form of
    :func:`format_graph` is read in bulk, any other text line by line.
    """
    g = _parse_graph_bulk(text)
    if g is not None:
        return g
    lines = _data_lines(text)
    if not lines:
        raise GraphFormatError("empty graph description")
    lineno, header = lines[0]
    n, m = _parse_ints(lineno, header, 2)
    if m < 0:
        raise GraphFormatError(f"line {lineno}: negative edge count {m}")
    if n > 2 * m + 2:
        raise GraphFormatError(f"line {lineno}: {n} vertices exceed 2m + 2 for m = {m}")
    if len(lines) - 1 < m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    if len(lines) - 1 > m:
        extra_lineno, extra = lines[1 + m]
        raise GraphFormatError(f"line {extra_lineno}: unexpected extra line {extra!r}")

    def edge_lines() -> Iterator[list[int]]:
        nonlocal lineno
        for lineno, line in lines[1:]:
            yield _parse_ints(lineno, line, 2)

    # Graph.from_edges checks n, then each edge as it takes it, so a
    # ValueError it raises belongs to the line yielded last (or the header).
    try:
        return Graph.from_edges(n, edge_lines())
    except GraphFormatError:
        raise
    except ValueError as exc:
        raise GraphFormatError(f"line {lineno}: {exc}") from None


def _parse_graph_bulk(text: str) -> Graph | None:
    """The graph in ``text`` if :func:`format_graph` could have written it, else None."""
    header = text[:text.find("\n") + 1]
    try:
        n, m = map(int, header.split(" "))
        # m lines bound n, and so the id table of _bulk_ints, by the text.
        if header == f"{n} {m}\n" and n <= 2 * m + 2 and text.count("\n", len(header)) == m:
            flat = _bulk_ints(text, len(header), 2, n)
            return None if flat is None else Graph.from_edges(n, zip(flat[0::2], flat[1::2]))
    except ValueError:  # the header, or an edge Graph.from_edges refuses
        pass
    return None


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def _read_tree(
    text: str, what: str, more_lines: bool
) -> tuple[RootedSpanningTree, list[tuple[int, str]]]:
    """Read a header ``n root`` and n-1 ``child parent`` lines into a tree.

    Returns the tree and the data lines after it, which must be none unless
    ``more_lines``.  ``what`` names the description when the text is empty.
    """
    lines = _data_lines(text)
    if not lines:
        raise GraphFormatError(f"empty {what} description")
    lineno, header = lines[0]
    n, root = _parse_ints(lineno, header, 2)
    if n < 2:
        raise GraphFormatError(f"line {lineno}: need at least 2 vertices, got {n}")
    if not 0 <= root < n:
        raise GraphFormatError(f"line {lineno}: root {root} out of range for n={n}")
    found = len(lines) - 1
    if found < n - 1 or (found > n - 1 and not more_lines):
        raise GraphFormatError(f"expected {n - 1} parent lines, found {found}")
    parents = [-1] * n
    for lineno, line in lines[1:n]:
        child, parent = _parse_ints(lineno, line, 2)
        if child == root:
            raise GraphFormatError(f"line {lineno}: root {root} may not have a parent")
        if not (0 <= child < n and 0 <= parent < n):
            raise GraphFormatError(f"line {lineno}: vertex out of range in {line!r}")
        if parents[child] != -1:
            raise GraphFormatError(f"line {lineno}: duplicate parent entry for vertex {child}")
        if child == parent:
            raise GraphFormatError(f"line {lineno}: vertex {child} cannot be its own parent")
        parents[child] = parent
    return RootedSpanningTree(root, tuple(parents)), lines[n:]


def parse_tree(text: str) -> RootedSpanningTree:
    """Parse the tree file format: a header ``n root`` then n-1 lines ``child parent``."""
    return _read_tree(text, "tree", more_lines=False)[0]


def format_tree(t: RootedSpanningTree) -> str:
    lines = [f"{t.n} {t.root}"]
    lines.extend(f"{v} {p}" for v, p in enumerate(t.parents) if v != t.root)
    return "\n".join(lines) + "\n"
