"""Constructive walks between spanning trees under single-leaf moves.

Fix an st-numbering whose first vertex is the root a.  The canonical tree
hangs the last vertex from a and every other vertex from its highest-numbered
neighbor.  Any target tree is reached from the canonical tree by growing a
connected piece of the target one vertex per stage ("milestone" trees); each
stage temporarily pushes the not-yet-grown vertices down to their
lowest-numbered neighbors, absorbs one chosen boundary vertex, and restores
the rest.  Every vertex detached along the way is provably a leaf at that
moment; this module makes that claim a hard runtime check.

A walk between two arbitrary trees is the reversal of one canonical walk
concatenated with another, so its length is at most 2n(n-1) moves.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from heapq import heapify, heappop, heappush
from operator import eq
from typing import Iterable, Iterator

from .connectivity import STNumbering, _extreme_neighbors, st_numbering
from .graph import (
    Graph,
    GraphFormatError,
    LeafMove,
    RootedSpanningTree,
    _bulk_ints,
    _check_tree_pair,
    _child_counts,
    _parse_ints,
    _read_tree,
    format_tree,
    spanning_tree_violation,
    trees_adjacent,
)


class LeafClaimError(AssertionError):
    """A vertex scheduled for reattachment still had children.

    This cannot happen if the construction is correct.  The claim is
    certified per stage, in production builds too: a stage runs only under
    a certificate by which every vertex it detaches is a leaf, and one that
    fails it raises before it changes anything.
    """

    def __init__(self, vertex: int, parents: tuple[int, ...]):
        self.vertex = vertex
        self.parents = parents
        super().__init__(f"vertex {vertex} is not a leaf in {parents}")


def _rehangs(seq: WalkSequence, count: int | None = None) -> Iterator[tuple[int, int]]:
    """(vertex, new parent) of the first ``count`` moves of ``seq``, all of them by default.

    Every reader that replays the store comes through here, so this owns
    the move check: each move is checked in O(1) against what
    :class:`RootedSpanningTree` would refuse.  Its vertex must be a non-root
    vertex, and its new parent another vertex; a move that fails raises
    ValueError when it is reached.
    """
    flat = seq._flat if count is None else seq._flat[:3 * count]
    root, n = seq.source.root, seq.source.n
    for i, (v, new) in enumerate(zip(flat[0::3], flat[2::3])):
        if v == root or v == new or not (0 <= v < n and 0 <= new < n):
            raise ValueError(f"move {i}: vertex {v} cannot be rehung onto {new}")
        yield v, new


def _reversed_moves(flat: array) -> array:
    """The move store of the reversed walk: the moves backwards, each one undone."""
    out = flat[::-1]  # each move now reads (new parent, old parent, vertex)
    out[0::3], out[1::3], out[2::3] = out[2::3], out[0::3], out[1::3]
    return out


@dataclass(frozen=True, init=False)
class WalkSequence:
    """A walk as its first tree plus its moves; ``moves[i]`` maps tree i to tree i+1.

    The moves live in one ``array('i')``, three entries (vertex, old parent,
    new parent) per move: 12 bytes each, in one object that holds no others,
    so garbage collection does not slow down as a walk grows.  :attr:`moves`
    and :attr:`trees` are views that build a move or a tree only when it is
    read, so a walk of L moves on n vertices costs O(n + L) memory.
    """

    source: RootedSpanningTree
    _flat: array = field(hash=False)

    def __init__(self, source: RootedSpanningTree, moves: Iterable[LeafMove] | array):
        """``moves`` are packed once; a move store, an ``array('i')`` of whole triples, is taken over."""
        if not isinstance(moves, array):
            moves = array("i", [x for v, old, new in moves for x in (v, old, new)])
        elif moves.typecode != "i" or len(moves) % 3:
            raise ValueError(f"not a move store: array('{moves.typecode}') of length {len(moves)}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "_flat", moves)

    @property
    def moves(self) -> WalkMoves:
        return WalkMoves(self._flat)

    @property
    def trees(self) -> WalkTrees:
        return WalkTrees(self)

    @property
    def target(self) -> RootedSpanningTree:
        return self.trees[-1]

    def __len__(self) -> int:
        return len(self._flat) // 3 + 1

    def reverse(self) -> WalkSequence:
        return WalkSequence(self.target, _reversed_moves(self._flat))


# Reads a stored move back as a LeafMove without the constructor's check:
# the store gives back what it was given, as a tuple of moves would.
_as_move = partial(tuple.__new__, LeafMove)


class WalkMoves(Sequence):
    """Read-only view of a walk's moves; its length costs O(1), each ``LeafMove`` is built when read."""

    __slots__ = ("_flat",)

    def __init__(self, flat: array):
        self._flat = flat

    def __len__(self) -> int:
        return len(self._flat) // 3

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        i = range(len(self))[i]
        return _as_move(self._flat[3 * i:3 * i + 3])

    def __iter__(self) -> Iterator[LeafMove]:
        it = iter(self._flat)
        return map(_as_move, zip(it, it, it))

    # Equal to another view, or to a tuple, with the same moves, as a tuple of moves was.
    def __eq__(self, other):
        if isinstance(other, WalkMoves):
            return self._flat == other._flat
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


class WalkTrees(Sequence):
    """Read-only view of the trees a walk visits; its length costs O(1), each tree a replay."""

    __slots__ = ("_walk",)

    def __init__(self, walk: WalkSequence):
        self._walk = walk

    def __len__(self) -> int:
        return len(self._walk)

    def __getitem__(self, i):
        if isinstance(i, slice):
            wanted = range(len(self))[i]
            if wanted.step > 0:
                return tuple(self._ascending(wanted))
            return tuple(self._ascending(wanted[::-1]))[::-1]
        i = range(len(self))[i]
        return next(self._ascending(range(i, i + 1)))

    def __iter__(self) -> Iterator[RootedSpanningTree]:
        return self._ascending(range(len(self)))

    def _ascending(self, wanted: range) -> Iterator[RootedSpanningTree]:
        """The trees at the ascending indices ``wanted``, from one replay; only those are built."""
        source = self._walk.source
        parents = list(source.parents)
        if 0 in wanted:
            yield source
        for k, (v, new) in enumerate(_rehangs(self._walk, wanted[-1] if wanted else 0), 1):
            parents[v] = new
            if k in wanted:
                yield RootedSpanningTree(source.root, tuple(parents))

    def __reversed__(self) -> Iterator[RootedSpanningTree]:
        return iter(self._walk.reverse().trees)


def canonical_tree(g: Graph, num: STNumbering) -> RootedSpanningTree:
    """Last vertex hangs from the first; everyone else from their highest-positioned neighbor."""
    return _canonical(g, num)[0]


def _canonical(g: Graph, num: STNumbering) -> tuple[RootedSpanningTree, tuple[list[int], list[int]]]:
    """The canonical tree and the extreme-neighbor tables it is read from."""
    ext = _extreme_neighbors(g, num)
    root = num.order[0]
    parents = list(ext[1])
    parents[num.order[-1]] = root
    parents[root] = -1
    tree = RootedSpanningTree(root, tuple(parents))
    problem = spanning_tree_violation(g, tree)
    if problem is not None:
        raise AssertionError(f"canonical tree is not a spanning tree: {problem}")
    return tree, ext


def _advance_stage(
    parents: list[int],
    kids: list[int],
    newcomer: int,
    anchor: int,
    hi: list[int],
    tables: tuple[list[int], array, array, list[int]],
    moves: array,
) -> None:
    """One stage in place on ``parents``/``kids``: absorb ``newcomer`` below ``anchor``.

    ``tables`` describe the vertices absorbed so far, and are updated to
    absorb the newcomer too.  ``outside`` lists the other vertices in
    ascending positions; ``down`` holds the move (v, hi[v], lo[v]) of each
    in that order, and ``up`` is ``down`` reversed with each move undone;
    ``rank[v]`` is the position of v, or n + 1 once v is absorbed.  The dropped
    vertices are the outside ones positioned before the newcomer.  The last
    vertex is never dropped: it follows every other outside vertex, so it
    can only be the newcomer.  The stage's moves go to the store ``moves``.

    The leaf claim is certified per stage.  If the dropped vertices sit on
    their highest-positioned neighbors ``hi``, the anchor is absorbed, and
    every child of a dropped vertex or of the newcomer is dropped, then each
    vertex detaches as a leaf: a dropped vertex leaves after its children,
    which sit below it, and returns after the vertices that dropped onto
    it, which sit above it; nothing drops onto the newcomer, which sits
    above every dropped vertex.  The moves are then the dropped vertices'
    block of ``down``, the newcomer's move unless it already hangs from its
    anchor, and their block of ``up``.  Every stage of a walk starts from
    the previous milestone tree, on which the certificate holds.  A stage
    without it changes nothing and raises: :class:`LeafClaimError` for the
    first vertex it would detach, the dropped ones in ascending positions
    and then the newcomer, that has a child outside the dropped set, and
    otherwise an ``AssertionError``.
    """
    outside, down, up, rank = tables
    i = outside.index(newcomer)
    m = len(outside)
    n = len(rank)
    dropped = outside[:i]
    above = list(map(parents.__getitem__, dropped))
    # With every dropped vertex on its highest neighbor, the children of the
    # dropped vertices and the newcomer that are themselves dropped are the
    # dropped vertices whose parent is outside and at most the newcomer's
    # position; the certificate asks for no other children.
    if not (
        rank[anchor] > n
        and above == list(map(hi.__getitem__, dropped))
        and sum(map(kids.__getitem__, dropped)) + kids[newcomer]
        == sum(map(rank[newcomer].__ge__, map(rank.__getitem__, above)))
    ):
        held = set(dropped)
        holders = {p for c, p in enumerate(parents) if c not in held}
        for v in [*dropped, newcomer]:
            if v in holders:
                raise LeafClaimError(v, tuple(parents))
        raise AssertionError(f"stage absorbing {newcomer} does not start from its milestone tree")
    moves += down[:3 * i]
    old = parents[newcomer]
    if old != anchor:
        parents[newcomer] = anchor
        kids[old] -= 1
        kids[anchor] += 1
        moves.extend((newcomer, old, anchor))
    moves += up[3 * (m - i):]
    del outside[i]
    del down[3 * i:3 * i + 3]
    del up[3 * (m - 1 - i):3 * (m - i)]
    rank[newcomer] = n + 1


def walk_from_canonical(
    g: Graph, num: STNumbering, t_prime: RootedSpanningTree
) -> WalkSequence:
    """Walk from the canonical tree for ``num`` to ``t_prime`` in at most n(n-1) moves.

    All n-1 stages advance one parent array in place.  Each stage takes its
    moves as slices of two move tables built once per walk, after a
    certificate of C-level passes over its dropped vertices (see
    :func:`_advance_stage`); this is the only schedule.  Each stage starts
    from the previous milestone, on which the certificate holds, so a stage
    that fails it raises :class:`LeafClaimError` or ``AssertionError``
    before it moves anything.  The absorbed set stays connected in
    ``t_prime`` and contains the root, so the target-tree edges leaving it
    are exactly those to the target children of absorbed vertices; a heap
    of those children keyed by descending position yields the newcomer, the
    highest-positioned outside end of such an edge.  Each stage ends with
    an exact comparison against the milestone parent array, which differs
    from the previous milestone only at the newcomer.  Raises ValueError
    unless ``num`` is an st-numbering of ``g`` and ``t_prime`` is a
    spanning tree of ``g`` rooted at the numbering's first vertex.
    """
    root = num.order[0]
    if t_prime.root != root:
        raise ValueError(f"target is rooted at {t_prime.root}, numbering starts at {root}")
    problem = spanning_tree_violation(g, t_prime)
    if problem is not None:
        raise ValueError(f"target tree invalid: {problem}")
    start, ext = _canonical(g, num)
    moves = array("i")
    if t_prime == start:
        return WalkSequence(start, moves)
    n = num.n
    pos = num.positions
    target = t_prime.parents
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if v != root:
            children[target[v]].append(v)
    parents = list(start.parents)
    milestone = list(parents)
    kids = _child_counts(parents)
    lo, hi = ext
    outside = list(num.order[1:])
    down = array("i", [x for v in outside for x in (v, hi[v], lo[v])])
    rank = list(pos)
    rank[root] = n + 1
    tables = (outside, down, _reversed_moves(down), rank)
    boundary = [(-pos[c], c) for c in children[root]]
    heapify(boundary)
    while boundary:
        newcomer = heappop(boundary)[1]
        anchor = target[newcomer]
        _advance_stage(parents, kids, newcomer, anchor, hi, tables, moves)
        milestone[newcomer] = anchor
        if parents != milestone:
            raise AssertionError(f"stage absorbing {newcomer} missed its milestone tree")
        for c in children[newcomer]:
            heappush(boundary, (-pos[c], c))
    if tuple(parents) != target:
        raise AssertionError("canonical walk does not end at the target tree")
    count = len(moves) // 3
    if count > n * (n - 1):
        raise AssertionError(f"canonical walk has {count} moves, over n(n-1) = {n * (n - 1)}")
    return WalkSequence(start, moves)


def walk(
    g: Graph, a: int, t: RootedSpanningTree, t_prime: RootedSpanningTree
) -> WalkSequence:
    """Walk between two spanning trees rooted at ``a`` via the canonical tree.

    The result starts exactly at ``t``, ends exactly at ``t_prime``, and
    has at most 2n(n-1) moves: the canonical walk to ``t`` reversed, then the
    one to ``t_prime``, both from :func:`walk_from_canonical`.  Both trees are
    checked here first; each canonical walk then checks its target again and
    builds the canonical tables again, O(n + m) work next to O(n^2) moves.
    """
    _check_tree_pair(g, a, t, t_prime)
    if t == t_prime:
        return WalkSequence(t, ())
    num = st_numbering(g, a, min(g.adj[a]))
    moves = _reversed_moves(walk_from_canonical(g, num, t)._flat)
    moves += walk_from_canonical(g, num, t_prime)._flat
    return WalkSequence(t, moves)


# How many issues :meth:`WalkReport.summary` prints before it only counts them.
_SUMMARY_ISSUES = 20


@dataclass(frozen=True)
class WalkReport:
    """Outcome of :func:`verify_walk`; ``issues`` is empty exactly when the walk is valid."""

    tree_count: int
    move_count: int
    issues: tuple[str, ...]
    source_matches: bool | None
    target_matches: bool | None

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        """Counts, endpoint checks, the first 20 issues and the verdict, one per line."""
        lines = [f"trees: {self.tree_count}", f"moves: {self.move_count}"]
        if self.source_matches is not None:
            lines.append(f"source endpoint: {'ok' if self.source_matches else 'MISMATCH'}")
        if self.target_matches is not None:
            lines.append(f"target endpoint: {'ok' if self.target_matches else 'MISMATCH'}")
        lines.extend(self.issues[:_SUMMARY_ISSUES])
        if len(self.issues) > _SUMMARY_ISSUES:
            lines.append(f"... and {len(self.issues) - _SUMMARY_ISSUES} more issues")
        lines.append("result: PASS" if self.ok else "result: FAIL")
        return "\n".join(lines)


def verify_walk(
    g: Graph,
    a: int,
    seq: WalkSequence,
    source: RootedSpanningTree | None = None,
    target: RootedSpanningTree | None = None,
) -> WalkReport:
    """Independently check a walk: tree validity, both adjacency tests per step,
    move consistency, and (when given) the declared endpoints.

    Tree i+1 is tree i with move i applied, and validity is certified from
    one tree to the next.  The first tree gets a full check.  While the
    current tree is certified, a move that rehangs a childless vertex along
    a graph edge provably gives a spanning tree again, and both adjacency
    tests follow in O(1) from the child count of that vertex.  One loop runs
    over the move store, and its first branch applies such regular steps in
    place (a vertex with children may stay on its parent); the loop then
    only compares the claimed old parent with the real one.  Every other
    step is applied anyway, and the tree it leads to gets the full check and
    the general adjacency test, so a corrupted stream is still diagnosed
    tree by tree; once a tree is certified again, regular steps follow.
    """
    issues: list[str] = []
    neighbors = [set(nbrs) for nbrs in g.adj]
    first = seq.source
    root = first.root
    parents = list(first.parents)
    size = len(parents)
    kids = _child_counts(parents)

    def full_check(idx: int, tree: RootedSpanningTree) -> bool:
        if tree.root != a:
            issues.append(f"tree {idx}: rooted at {tree.root}, expected {a}")
            return False
        problem = spanning_tree_violation(g, tree)
        if problem is not None:
            issues.append(f"tree {idx}: {problem}")
            return False
        return True

    certified = full_check(0, first)
    it = iter(seq._flat)
    idx = -1  # counted by hand: enumerate slows this loop down measurably
    for v, claimed, new in zip(it, it, it):
        idx += 1
        # The range test comes first, as a negative v would index from the
        # end; graph edges are no self-loops, so a neighbour ``new`` is in
        # range and not v.
        if (certified and 0 <= v < size and v != root and (not kids[v] or new == parents[v])
                and new in neighbors[v]):
            # Unless the trees are equal, a childless vertex of a spanning
            # tree was rehung along a graph edge: the result is a spanning
            # tree again, and the edges the two share are all but {v, old},
            # which cut off only v from the root, so the intersection test
            # holds as well.
            old = parents[v]
            parents[v] = new
        elif v == root or v == new or not (0 <= v < size and 0 <= new < size):
            issues.append(f"step {idx}: move {v} {claimed} {new} cannot be applied")
            continue
        else:
            old = parents[v]
            prev = RootedSpanningTree(root, tuple(parents))
            parents[v] = new
            tree = RootedSpanningTree(root, tuple(parents))
            try:
                adjacent = trees_adjacent(prev, tree, a)
            except ValueError as exc:
                issues.append(f"step {idx}: {exc}")
                adjacent = None
            certified = full_check(idx + 1, tree)
            if adjacent is False:
                issues.append(f"step {idx}: not adjacent (intersection test)")
            # Leaf-move adjacency: equal maps, or one rehung vertex childless in both.
            if new != old and kids[v]:
                issues.append(f"step {idx}: not adjacent (leaf-move test)")
        if old != claimed:
            issues.append(f"step {idx}: move old parent disagrees with tree")
        kids[old] -= 1
        kids[new] += 1
    source_matches = None if source is None else first == source
    target_matches = (
        None if target is None else target.root == root and target.parents == tuple(parents)
    )
    if source_matches is False:
        issues.append("endpoint mismatch: first tree differs from declared source")
    if target_matches is False:
        issues.append("endpoint mismatch: last tree differs from declared target")
    return WalkReport(len(seq), len(seq.moves), tuple(issues), source_matches, target_matches)


def format_walk_moves(seq: WalkSequence) -> str:
    """Stream form of a walk: the initial tree, then one ``v old new`` line per move."""
    flat, step = seq._flat, 3 * 4096  # 4096 moves a chunk bound the temporary tuple of ints
    chunks = (flat[i:i + step] for i in range(0, len(flat), step))
    return format_tree(seq.source) + "".join(("%d %d %d\n" * (len(c) // 3)) % tuple(c) for c in chunks)


def format_walk_trees(seq: WalkSequence) -> Iterator[str]:
    """Each tree of the walk in :func:`format_tree`'s form, in order, from one replay.

    One list holds the header and a ``v p`` line per non-root vertex; each
    move rewrites its vertex's line, and each tree is one join of the list,
    so the trees take O(n) memory beyond the walk.  A move that fails the
    check of :func:`_rehangs` raises ValueError where ``seq.trees`` would
    give its tree.
    """
    root, parents = seq.source.root, seq.source.parents
    # The line of vertex v sits at v + 1 before the root and at v after it.
    lines = [f"{len(parents)} {root}", *(f"{v} {p}" for v, p in enumerate(parents) if v != root), ""]
    yield "\n".join(lines)
    for v, new in _rehangs(seq):
        lines[v + (v < root)] = f"{v} {new}"
        yield "\n".join(lines)


def parse_walk_moves(text: str) -> WalkSequence:
    """Parse the stream form back into a source tree plus moves.

    Moves are checked structurally; semantic problems (bad adjacency, stale
    old-parent fields) are left for :func:`verify_walk` to report.  Text not
    in the writer's exact form, errors included, is read line by line.
    """
    seq = _parse_bulk(text)
    if seq is not None:
        return seq
    source, rest = _read_tree(text, "walk", more_lines=True)
    root, n = source.root, source.n
    flat = array("i")
    for lineno, line in rest:
        v, old, new = _parse_ints(lineno, line, 3)
        if v == root:
            raise GraphFormatError(f"line {lineno}: move targets the root vertex {v}")
        if not (0 <= v < n and 0 <= old < n and 0 <= new < n):
            raise GraphFormatError(f"line {lineno}: vertex out of range in {line!r}")
        try:
            flat.extend(LeafMove(v, old, new))
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
    return WalkSequence(source, flat)


def _parse_bulk(text: str) -> WalkSequence | None:
    """The walk in ``text`` if :func:`format_walk_moves` could have written it, else None.

    That is, the tree takes the first n lines and every later line is
    ``v old new`` in plain decimal; then the line reader would read the same.
    """
    try:
        n = int(text[:text.index("\n")].split()[0])
        end = 0
        for _ in range(n):
            end = text.index("\n", end) + 1
        source = _read_tree(text[:end], "walk", more_lines=False)[0]
    except (ValueError, IndexError):  # GraphFormatError too
        return None
    flat = _bulk_ints(text, end, 3, n)
    if flat is None:
        return None
    vs, news = flat[0::3], flat[2::3]
    if source.root in vs or any(map(eq, vs, news)):
        return None
    return WalkSequence(source, flat)
