"""Exhaustive ground-truth tools: enumeration, counting, BFS distances.

Everything here is independent of the constructive walk machinery so that the
two can certify each other.  The state space is the set of all spanning trees
rooted at a fixed vertex, with one-leaf-move adjacency; a tree is encoded by
its parent array (the "tree key"), which is canonical because rooting a tree
at a fixed vertex determines the parent of every other vertex.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, LeafMove, RootedSpanningTree, tree_from_edges
from .walk import WalkSequence

DEFAULT_CAP = 10_000_000


class CapExceededError(RuntimeError):
    """The instance needed more states or trees than the configured cap."""

    def __init__(self, count: int):
        self.count = count
        super().__init__(f"instance too large: cap exceeded after {count} states")


class TreeGraphDisconnectedError(RuntimeError):
    """No leaf-move path exists between two spanning trees (never expected on
    2-connected graphs; raised loudly instead of returning a sentinel)."""


def enumerate_spanning_trees(
    g: Graph, root: int = 0, cap: int = DEFAULT_CAP
) -> list[RootedSpanningTree]:
    """All spanning trees of ``g`` rooted at ``root``, each exactly once.

    Backtracking over edge inclusion/exclusion in sorted edge order; a branch
    is pruned as soon as the chosen edges plus the undecided ones can no
    longer connect the graph.
    """
    n = g.n
    edges = sorted(g.edges)
    m = len(edges)
    result: list[RootedSpanningTree] = []
    comp = list(range(n))

    def find(x: int) -> int:
        while comp[x] != x:
            x = comp[x]
        return x

    def can_connect(idx: int) -> bool:
        # chosen components plus all undecided edges must connect everything
        label = [find(v) for v in range(n)]

        def lfind(x: int) -> int:
            while label[x] != x:
                label[x] = label[label[x]]
                x = label[x]
            return x

        for u, v in edges[idx:]:
            ru, rv = lfind(u), lfind(v)
            if ru != rv:
                label[ru] = rv
        first = lfind(0)
        return all(lfind(v) == first for v in range(1, n))

    chosen: list[tuple[int, int]] = []

    def rec(idx: int, count: int) -> None:
        if count == n - 1:
            if len(result) >= cap:
                raise CapExceededError(len(result))
            result.append(tree_from_edges(n, chosen, root))
            return
        if idx == m or count + (m - idx) < n - 1:
            return
        if not can_connect(idx):
            return
        u, v = edges[idx]
        ru, rv = find(u), find(v)
        if ru != rv:
            comp[ru] = rv
            chosen.append((u, v))
            rec(idx + 1, count + 1)
            chosen.pop()
            comp[ru] = ru
            rec(idx + 1, count)
        else:
            rec(idx + 1, count)

    rec(0, 0)
    return result


def count_spanning_trees_kirchhoff(g: Graph) -> int:
    """Number of spanning trees via the Laplacian minor determinant.

    Fraction-free (Bareiss) elimination over Python integers, so the value is
    exact at any size.
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


def _leaf_move_neighbors(
    parents: tuple[int, ...], root: int, adj: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    n = len(parents)
    kids = [0] * n
    for v in range(n):
        if v != root:
            kids[parents[v]] += 1
    out = []
    for v in range(n):
        if v == root or kids[v]:
            continue
        current = parents[v]
        for w in adj[v]:
            if w != current:
                candidate = list(parents)
                candidate[v] = w
                out.append(tuple(candidate))
    return out


def _bfs(
    g: Graph,
    a: int,
    start: tuple[int, ...],
    goal: tuple[int, ...] | None,
    cap: int,
    want_parents: bool,
) -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], tuple[int, ...]] | None]:
    """Level BFS over the implicit tree-adjacency graph from ``start``.

    Stops early when ``goal`` is seen.  Returns distances (and predecessors
    when requested).
    """
    dist = {start: 0}
    pred: dict[tuple[int, ...], tuple[int, ...]] | None = {} if want_parents else None
    if goal == start:
        return dist, pred
    queue = deque([start])
    adj = g.adj
    while queue:
        key = queue.popleft()
        d = dist[key] + 1
        for nxt in _leaf_move_neighbors(key, a, adj):
            if nxt in dist:
                continue
            if len(dist) >= cap:
                raise CapExceededError(len(dist))
            dist[nxt] = d
            if pred is not None:
                pred[nxt] = key
            if nxt == goal:
                return dist, pred
            queue.append(nxt)
    return dist, pred


def tree_distance(
    g: Graph,
    a: int,
    t: RootedSpanningTree,
    t_prime: RootedSpanningTree,
    cap: int = DEFAULT_CAP,
) -> int:
    """Exact minimum number of leaf moves between two trees rooted at ``a``."""
    if t.root != a or t_prime.root != a:
        raise ValueError(f"both trees must be rooted at {a}")
    start, goal = t.parents, t_prime.parents
    dist, _ = _bfs(g, a, start, goal, cap, want_parents=False)
    if goal not in dist:
        raise TreeGraphDisconnectedError(
            f"no leaf-move path found after exploring {len(dist)} trees"
        )
    return dist[goal]


def shortest_tree_path(
    g: Graph,
    a: int,
    t: RootedSpanningTree,
    t_prime: RootedSpanningTree,
    cap: int = DEFAULT_CAP,
) -> WalkSequence:
    """One BFS-shortest walk between the two trees, as a verifiable sequence."""
    if t.root != a or t_prime.root != a:
        raise ValueError(f"both trees must be rooted at {a}")
    start, goal = t.parents, t_prime.parents
    dist, pred = _bfs(g, a, start, goal, cap, want_parents=True)
    if goal not in dist:
        raise TreeGraphDisconnectedError(
            f"no leaf-move path found after exploring {len(dist)} trees"
        )
    if pred is None:
        raise AssertionError("BFS kept no predecessors for the path")
    keys = [goal]
    while keys[-1] != start:
        keys.append(pred[keys[-1]])
    keys.reverse()
    moves = []
    for before, after in zip(keys, keys[1:]):
        changed = [v for v in range(g.n) if before[v] != after[v]]
        if len(changed) != 1:
            raise AssertionError(f"BFS path step changes {len(changed)} parent entries, not 1")
        v = changed[0]
        moves.append(LeafMove(v, before[v], after[v]))
    return WalkSequence(t, tuple(moves))


def tree_graph_diameter(g: Graph, a: int, cap: int = DEFAULT_CAP) -> int:
    """Largest pairwise leaf-move distance among all spanning trees rooted at ``a``."""
    all_trees = enumerate_spanning_trees(g, root=a, cap=cap)
    total = len(all_trees)
    best = 0
    for t in all_trees:
        dist, _ = _bfs(g, a, t.parents, None, cap, want_parents=False)
        if len(dist) != total:
            raise TreeGraphDisconnectedError(
                f"BFS from one tree reached {len(dist)} of {total} trees"
            )
        ecc = max(dist.values())
        if ecc > best:
            best = ecc
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
    for step, mv in enumerate(seq.moves, start=1):
        v = mv.vertex
        p = parents[v]
        parents[v] = mv.new_parent
        # The edge {v, p} survives if it was also held the other way round.
        if p != mv.new_parent and parents[p] != v:
            e = (v, p) if v < p else (p, v)
            if e in first and first[e] is None:
                first[e] = step
    return WalkAnalysis(norm_probes, tuple(first[e] for e in norm_probes), len(seq))
