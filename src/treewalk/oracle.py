"""Exhaustive ground-truth tools: enumeration, counting, BFS distances.

Everything here is independent of the constructive walk machinery so that the
two can certify each other.  The state space is the set of all spanning trees
rooted at a fixed vertex, with one-leaf-move adjacency; a tree is encoded by
its parent array packed into one int (see ``_PackedTrees``), which is
canonical because rooting a tree at a fixed vertex determines the parent of
every other vertex.

Trees are counted by the matrix-tree theorem, independently of enumeration:
sparse fraction-free elimination of the reduced Laplacian L0 in
minimum-degree order, over the integers.  Every entry it stores is a minor
of L0, so every division is exact and the count needs no modulus and has
no size limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterator, Sequence

from .graph import (
    Graph,
    LeafMove,
    RootedSpanningTree,
    _check_tree_pair,
    _find,
    _hang,
)
from .walk import WalkSequence, _rehangs

DEFAULT_CAP = 10_000_000


class CapExceededError(RuntimeError):
    """The instance needed more states or trees than the configured cap."""

    def __init__(self, count: int):
        self.count = count
        super().__init__(f"instance too large: cap exceeded after {count} states")


class TreeGraphDisconnectedError(RuntimeError):
    """No leaf-move path exists between two spanning trees (never expected on
    2-connected graphs; raised loudly instead of returning a sentinel)."""


def _connects(edges: list[tuple[int, int]], start: int, comp: list[int], parts: int) -> bool:
    """Whether ``edges[start:]`` join the ``parts`` components of the union-find list ``comp``.

    Works on a copy, on which ``_find`` may halve its paths.
    """
    label = comp.copy()
    for u, v in edges[start:]:
        ru, rv = _find(label, u), _find(label, v)
        if ru != rv:
            label[ru] = rv
            parts -= 1
    return parts == 1


def _check_cap(cap: int) -> None:
    """Reject a negative cap before any work: no search can stay under it."""
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")


def enumerate_spanning_trees(g: Graph, root: int = 0, cap: int = DEFAULT_CAP) -> list[RootedSpanningTree]:
    """The list of the trees that :func:`_spanning_trees` yields, in its order."""
    return list(_spanning_trees(g, root, cap))


def _spanning_trees(g: Graph, root: int, cap: int) -> Iterator[RootedSpanningTree]:
    """Yield the spanning trees of ``g`` rooted at ``root``, each exactly once.

    A graph whose matrix-tree count is above ``cap`` raises
    ``CapExceededError(cap)`` before the first tree, as enumeration would at
    tree ``cap + 1``; enumeration still meets the cap as it goes, which
    catches a wrong count.

    Backtracking over edge inclusion/exclusion in sorted edge order, with an
    explicit stack, so the depth is not bounded by the recursion limit.  A
    stack entry holds the next edge to decide, the number of chosen edges,
    their forest and a union-find list of its components.  The forest has
    one parent entry per vertex: each component is a tree oriented towards
    its top, which points to itself.  An edge closes a cycle when its ends
    share a union-find root, which path halving finds in amortized O(log n)
    however deep the forest grows.  Including an edge joins the two roots
    and hangs one end from the other, so a finished branch is already
    oriented and only needs re-rooting at ``root``.  The include branch is
    pushed last, so it is explored first.  Only branches that still lead to
    a spanning tree are pushed: including an edge keeps that true, and
    excluding one is pruned unless the chosen edges plus the later ones
    still connect the graph.
    """
    _check_cap(cap)
    n = g.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for {n} vertices")
    if count_spanning_trees_kirchhoff(g) > cap:
        raise CapExceededError(cap)
    edges = sorted(g.edges)
    m = len(edges)
    found = 0
    start = list(range(n))
    stack = [(0, 0, start, start.copy())] if _connects(edges, 0, start, n) else []
    while stack:
        idx, count, forest, label = stack.pop()
        if count == n - 1:
            if found >= cap:
                raise CapExceededError(found)
            found += 1
            _hang(forest, root, -1)
            yield RootedSpanningTree(root, tuple(forest))
            continue
        u, v = edges[idx]
        ru, rv = _find(label, u), _find(label, v)
        if ru == rv:
            stack.append((idx + 1, count, forest, label))
            continue
        # The count test is implied by _connects but answers most calls in O(1).
        if count + m - idx - 1 >= n - 1 and _connects(edges, idx + 1, label, n - count):
            stack.append((idx + 1, count, forest, label))
            # the exclude branch keeps the lists as they are
            forest, label = forest.copy(), label.copy()
        _hang(forest, v, u)
        label[ru] = rv
        stack.append((idx + 1, count + 1, forest, label))


def count_spanning_trees_kirchhoff(g: Graph) -> int:
    """Number of spanning trees: the determinant of the reduced Laplacian.

    Vertices of degree 1 are peeled off first, and then those that drop to
    degree 1, as every spanning tree holds their one edge: the count is
    unchanged, and a tree counts 1 at any size.  L0 is the Laplacian of the
    peeled graph with the row and column of its lowest vertex deleted, held
    as one dict per row.  Sparse fraction-free (Bareiss) elimination runs on
    it over the integers, taking as the next pivot a row of minimum length
    (a heap with lazy entries) and filling in the entries it creates.

    Step t, with pivot p and the previous pivot ``prev`` (1 at first), sets
    each entry of a row i that the pivot row reaches to
    (p * a_ij - a_ik * a_kj) // prev.  By Sylvester's identity every entry
    is then a minor of L0, so the division is exact and the last pivot is
    det L0.  A row the pivot row misses only gains the factor p / prev, so
    it is not rewritten: ``scale[i]`` is the pivot that row i was last
    brought up to date with, and its true entries are
    ``stored * prev // scale[i]``.

    L0 is symmetric, and stays so, so the pivot row also lists the pivot
    column.  It is positive semidefinite, and a pivot is the principal minor
    on the rows eliminated so far, so a zero pivot makes L0 singular: the
    graph is disconnected, and 0 is returned.
    """
    adj = g.adj
    degree = list(map(len, adj))
    gone = [False] * g.n
    leaves = [v for v in range(g.n) if degree[v] == 1]
    for v in leaves:  # grows while it is read
        if degree[v] != 1:
            continue  # its last neighbor was peeled off before it
        gone[v] = True
        u = next(w for w in adj[v] if not gone[w])
        degree[u] -= 1
        if degree[u] == 1:
            leaves.append(u)
    kept = [v for v in range(g.n) if not gone[v]]
    gone[kept[0]] = True  # the deleted row and column
    rows: list[dict[int, int] | None] = [None] * g.n
    for v in kept[1:]:
        row = dict.fromkeys([w for w in adj[v] if not gone[w]], -1)
        row[v] = degree[v]
        rows[v] = row
    heap = [(len(row), v) for v, row in enumerate(rows) if row is not None]
    heapify(heap)
    scale = [1] * g.n
    prev = 1
    while heap:
        length, k = heappop(heap)
        row_k = rows[k]
        if row_k is None or len(row_k) != length:
            continue  # eliminated, or its length changed since this entry
        rows[k] = None
        s = scale[k]
        if s != prev:
            for j, b in row_k.items():
                row_k[j] = b * prev // s
        pivot = row_k.pop(k)
        if not pivot:
            return 0
        items = row_k.items()
        for i, a in items:
            row_i = rows[i]
            del row_i[k]
            s = scale[i]
            if s != prev:
                for j, b in row_i.items():
                    row_i[j] = b * prev // s * pivot
            else:
                for j, b in row_i.items():
                    row_i[j] = b * pivot
            get = row_i.get
            for j, b in items:
                row_i[j] = get(j, 0) - a * b
            for j, x in row_i.items():
                row_i[j] = x // prev
            scale[i] = pivot
            heappush(heap, (len(row_i), i))
        prev = pivot
    return prev


class _PackedTrees:
    """Spanning trees of ``g`` rooted at ``root``, each packed into one int.

    Field v of a key (``bits`` wide, lowest field first) holds the parent of
    v, and the root's field holds the root itself.  A vertex is therefore a
    leaf exactly when no field holds it, and rehanging leaf v from parent p
    to w adds ``(w - p) << (bits * v)`` to the key.
    """

    def __init__(self, g: Graph, root: int):
        n = g.n
        self.n, self.root = n, root
        bits = max(8, (n - 1).bit_length())
        self._shifts = [bits * v for v in range(n)]
        # _steps[v][p]: what rehanging v from parent p to each other neighbor adds.
        self._steps = [
            {p: tuple((w - p) << (bits * v) for w in g.adj[v] if w != p) for p in g.adj[v]}
            for v in range(n)
        ]
        # fields(key) lists the parent fields; leaves(fields), ascending, the
        # vertices that no field holds.
        if bits == 8:
            every = bytes(range(n))
            self.fields = lambda key: key.to_bytes(n, "little")
            self.leaves = lambda fields: every.translate(None, fields)
        else:
            mask = (1 << bits) - 1
            vertices = frozenset(range(n))
            self.fields = lambda key: [key >> s & mask for s in self._shifts]
            self.leaves = lambda fields: sorted(vertices.difference(fields))

    def pack(self, t: RootedSpanningTree) -> int:
        """The key of ``t``, a spanning tree of the graph rooted at ``root``."""
        key = self.root << self._shifts[self.root]
        for v, p in enumerate(t.parents):
            if v != self.root:
                key += p << self._shifts[v]
        return key

    def parents(self, key: int) -> tuple[int, ...]:
        out = list(self.fields(key))
        out[self.root] = -1
        return tuple(out)

    def neighbors(self, key: int) -> list[int]:
        """Keys of the trees one leaf move away from ``key``, by ascending leaf."""
        fields = self.fields(key)
        steps = self._steps
        out: list[int] = []
        for v in self.leaves(fields):
            out += map(key.__add__, steps[v][fields[v]])
        return out


def _meet_in_the_middle(space: _PackedTrees, start: int, goal: int, cap: int) -> list[int]:
    """Keys of one shortest leaf-move path from ``start`` to ``goal != start``.

    Bidirectional BFS: each round expands one whole level of the smaller
    frontier, recording predecessors on its side.  Every key on which the
    sides first meet lies at the shortest distance (the levels before held
    no path that short), so the smallest is taken and the two predecessor
    chains are joined at it.  ``cap`` bounds the keys stored on both sides.
    """
    fwd: dict[int, int | None] = {start: None}
    bwd: dict[int, int | None] = {goal: None}
    fwd_level, bwd_level = [start], [goal]
    neighbors = space.neighbors
    while True:
        forward = len(fwd_level) <= len(bwd_level)
        level, pred, other = (fwd_level, fwd, bwd) if forward else (bwd_level, bwd, fwd)
        limit = cap - len(other)
        next_level: list[int] = []
        meets = []
        for key in level:
            for nxt in neighbors(key):
                if nxt in pred:
                    continue
                if len(pred) >= limit:
                    raise CapExceededError(len(fwd) + len(bwd))
                pred[nxt] = key
                next_level.append(nxt)
                if nxt in other:
                    meets.append(nxt)
        if meets:
            break
        if not next_level:
            # This side's whole component is explored and misses the other end.
            raise TreeGraphDisconnectedError(
                f"no leaf-move path found after exploring {len(pred)} trees"
            )
        if forward:
            fwd_level = next_level
        else:
            bwd_level = next_level
    meet = min(meets)
    path = []
    key = meet
    while key is not None:
        path.append(key)
        key = fwd[key]
    path.reverse()
    key = bwd[meet]
    while key is not None:
        path.append(key)
        key = bwd[key]
    return path


def _search_distance(space: _PackedTrees, start: int, goal: int, cap: int) -> int:
    """Leaf-move distance from ``start`` to ``goal != start``, without a path.

    Bidirectional BFS keeping per side only its frontier and the level
    before it, with ``cap`` bounding the trees in these four sets.  Each
    round expands the smaller frontier; its neighbors less those two levels
    form the next level, as leaf moves are reversible.  The balls searched
    so far are disjoint, so a new level can meet the other side only in its
    frontier, and the first meeting gives the distance.
    """
    neighbors = space.neighbors
    # Per side: the level before the frontier, the frontier, trees explored.
    sides = [[set(), {start}, 1], [set(), {goal}, 1]]
    distance = 0
    while True:
        near, far = sides if len(sides[0][1]) <= len(sides[1][1]) else sides[::-1]
        before, level, explored = near
        held = len(far[0]) + len(far[1])
        # Past this size the new level, less ``before`` and ``level``, is over the cap.
        limit = cap - held + len(before)
        new: set[int] = set()
        for key in level:
            new.update(neighbors(key))
            if len(new) > limit:
                break
        new -= level
        new -= before
        held += len(level) + len(new)
        if held > cap:
            raise CapExceededError(held)
        distance += 1
        if not new.isdisjoint(far[1]):
            return distance
        if not new:
            # This side's whole component is explored and misses the other end.
            raise TreeGraphDisconnectedError(
                f"no leaf-move path found after exploring {explored} trees"
            )
        near[:] = level, new, explored + len(new)


def tree_distance(
    g: Graph,
    a: int,
    t: RootedSpanningTree,
    t_prime: RootedSpanningTree,
    cap: int = DEFAULT_CAP,
) -> int:
    """Exact minimum number of leaf moves between two trees rooted at ``a``.

    ``cap`` bounds the trees the search holds at once: each side keeps only
    its frontier and the level before it.
    """
    _check_cap(cap)
    _check_tree_pair(g, a, t, t_prime)
    if t == t_prime:
        return 0
    space = _PackedTrees(g, a)
    return _search_distance(space, space.pack(t), space.pack(t_prime), cap)


def shortest_tree_path(
    g: Graph,
    a: int,
    t: RootedSpanningTree,
    t_prime: RootedSpanningTree,
    cap: int = DEFAULT_CAP,
) -> WalkSequence:
    """One shortest walk between the two trees, as a verifiable sequence."""
    _check_cap(cap)
    _check_tree_pair(g, a, t, t_prime)
    if t == t_prime:
        return WalkSequence(t, ())
    space = _PackedTrees(g, a)
    keys = _meet_in_the_middle(space, space.pack(t), space.pack(t_prime), cap)
    moves = []
    after = t.parents
    for key in keys[1:]:
        before, after = after, space.parents(key)
        changed = [v for v in range(g.n) if before[v] != after[v]]
        if len(changed) != 1:
            raise AssertionError(f"BFS path step changes {len(changed)} parent entries, not 1")
        v = changed[0]
        moves.append(LeafMove(v, before[v], after[v]))
    return WalkSequence(t, tuple(moves))


def tree_graph_diameter(g: Graph, a: int, cap: int = DEFAULT_CAP) -> int:
    """Largest pairwise leaf-move distance among all spanning trees rooted at ``a``.

    The trees are enumerated once and numbered; each tree's neighbors become
    a list of numbers, and one BFS per tree runs over those lists.  Raises
    ValueError when ``g`` has no spanning tree.
    """
    space = _PackedTrees(g, a)
    keys = [space.pack(t) for t in enumerate_spanning_trees(g, root=a, cap=cap)]
    if not keys:
        raise ValueError("graph is disconnected: it has no spanning tree")
    index = {key: i for i, key in enumerate(keys)}
    adjacent = [[index[nxt] for nxt in space.neighbors(key)] for key in keys]
    total = len(keys)
    best = 0
    for source in range(total):
        seen = bytearray(total)
        seen[source] = 1
        level = [source]
        reached = 0
        depth = -1
        while level:
            reached += len(level)
            depth += 1
            next_level = []
            for i in level:
                for j in adjacent[i]:
                    if not seen[j]:
                        seen[j] = 1
                        next_level.append(j)
            level = next_level
        if reached != total:
            raise TreeGraphDisconnectedError(
                f"BFS from one tree reached {reached} of {total} trees"
            )
        best = max(best, depth)
    return best


@dataclass(frozen=True)
class WalkAnalysis:
    """First removal step of each probed edge along a walk (None = never removed).

    Steps are 1-based: removal at step t means the edge is present in tree t
    but gone from tree t+1.
    """

    probes: tuple[tuple[int, int], ...]
    times: tuple[int | None, ...]
    length: int

    def time_of(self, u: int, v: int) -> int | None:
        e = (u, v) if u < v else (v, u)
        return self.times[self.probes.index(e)]


def removal_times(seq: WalkSequence, probes: Sequence[tuple[int, int]]) -> WalkAnalysis:
    """Scan a walk's moves once for the first step at which each probed edge disappears.

    Each move changes one parent entry, so at most one edge leaves per step.
    """
    norm_probes = tuple((u, v) if u < v else (v, u) for u, v in probes)
    first: dict[tuple[int, int], int | None] = dict.fromkeys(norm_probes)
    parents = list(seq.source.parents)
    for step, (v, new) in enumerate(_rehangs(seq), start=1):
        p = parents[v]
        parents[v] = new
        # The edge {v, p} survives if it was also held the other way round.
        if p != new and parents[p] != v:
            e = (v, p) if v < p else (p, v)
            if e in first and first[e] is None:
                first[e] = step
    return WalkAnalysis(norm_probes, tuple(first[e] for e in norm_probes), len(seq))
