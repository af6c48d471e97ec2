"""The per-stage reference for ``walk_from_canonical``.

Each stage is computed from scratch, straight from its definition: the
newcomer by a scan of the target tree, the vertices not yet absorbed and
their moves by a scan of the numbering, and the result checked against a
fresh milestone parent array.  The moves themselves come from the
package's ``_advance_stage``, fed those tables, so its leaf certificate
and the numbering check are exercised through this module too.
``walk_from_canonical`` must emit exactly the concatenated moves.

:func:`stage_by_moves` is the stage's schedule run move by move, testing
each vertex for children before it is detached.  The package copies the
same moves as slices under a per-stage certificate and has no other
schedule; this one is the reference it is compared with.
"""

from __future__ import annotations

from array import array
from typing import Iterable

from treewalk import Graph, LeafMove, RootedSpanningTree, STNumbering, spanning_tree_violation
from treewalk.connectivity import _extreme_neighbors
from treewalk.graph import _child_counts
from treewalk.walk import LeafClaimError, WalkMoves, _advance_stage


def _milestone_parents(
    g: Graph,
    num: STNumbering,
    inside: set[int],
    target_parents: tuple[int, ...],
    hi: list[int],
) -> list[int]:
    """Parent array of the stage tree for ``inside``, given the highest-neighbor table."""
    root = num.order[0]
    last = num.order[-1]
    parents = [-1] * g.n
    for v in range(g.n):
        if v == root:
            continue
        if v in inside:
            parents[v] = target_parents[v]
        else:
            parents[v] = root if v == last else hi[v]
    return parents


def _checked_tree(g: Graph, root: int, parents: list[int], what: str) -> RootedSpanningTree:
    result = RootedSpanningTree(root, tuple(parents))
    problem = spanning_tree_violation(g, result)
    if problem is not None:
        raise AssertionError(f"{what} is not a spanning tree: {problem}")
    return result


def milestone_tree(
    g: Graph, num: STNumbering, members: Iterable[int], t_prime: RootedSpanningTree
) -> RootedSpanningTree:
    """The stage tree: target structure on ``members``, canonical attachment outside."""
    root = num.order[0]
    inside = set(members)
    if root not in inside:
        raise ValueError("member set must contain the root")
    _, hi = _extreme_neighbors(g, num)
    parents = _milestone_parents(g, num, inside, t_prime.parents, hi)
    return _checked_tree(g, root, parents, "milestone tree")


def select_boundary_edge(
    t_prime: RootedSpanningTree, members: Iterable[int], num: STNumbering
) -> tuple[int, int]:
    """Pick the target-tree edge leaving ``members`` whose outside end sits highest.

    Returns (anchor, newcomer): anchor inside, newcomer outside.  The member
    set must induce a connected subtree of the target containing the root,
    which makes the anchor for the chosen newcomer unique.
    """
    inside = set(members)
    root = t_prime.root
    if root not in inside:
        raise ValueError("member set must contain the root")
    for v in inside:
        if v != root and t_prime.parents[v] not in inside:
            raise ValueError(f"member set is not connected in the target tree (vertex {v})")
    pos = num.positions
    best_newcomer = -1
    best_anchor = -1
    for v in range(t_prime.n):
        if v == root:
            continue
        p = t_prime.parents[v]
        if p in inside and v not in inside:
            anchor, newcomer = p, v
        elif v in inside and p not in inside:
            anchor, newcomer = v, p
        else:
            continue
        if best_newcomer >= 0 and newcomer == best_newcomer:
            raise AssertionError(f"two boundary edges share outside vertex {newcomer}")
        if best_newcomer < 0 or pos[newcomer] > pos[best_newcomer]:
            best_newcomer = newcomer
            best_anchor = anchor
    if best_newcomer < 0:
        raise ValueError("no boundary edge: member set already spans the tree")
    return best_anchor, best_newcomer


def stage_tables(
    num: STNumbering, ext: tuple[list[int], list[int]], inside: set[int]
) -> tuple[list[int], array, array, list[int]]:
    """The tables ``_advance_stage`` reads, straight from their definitions.

    The vertices outside ``inside`` in ascending positions; per such vertex
    v, in that order, the move (v, hi[v], lo[v]) down; the moves back up,
    (v, lo[v], hi[v]) in descending positions; and every position, with
    n + 1 for a vertex in ``inside``.
    """
    lo, hi = ext
    outside = [v for v in num.order if v not in inside]
    down = array("i", [x for v in outside for x in (v, hi[v], lo[v])])
    up = array("i", [x for v in reversed(outside) for x in (v, lo[v], hi[v])])
    rank = [num.n + 1 if v in inside else p for v, p in enumerate(num.positions)]
    return outside, down, up, rank


def stage_by_moves(
    parents: list[int],
    kids: list[int],
    dropped: list[int],
    newcomer: int,
    anchor: int,
    ext: tuple[list[int], list[int]],
    moves: array,
) -> None:
    """One stage move by move, testing each vertex it detaches for children.

    Each vertex of ``dropped``, in ascending positions, drops to its
    lowest-positioned neighbor, then the newcomer attaches to its anchor,
    then in descending positions the dropped vertices return to their
    highest-positioned neighbors.  Moves whose new parent equals the current
    parent are elided.  A vertex that still has children when its turn
    comes raises :class:`LeafClaimError`, with the moves before it applied.
    """
    lo, hi = ext
    schedule = [(v, lo[v]) for v in dropped]
    schedule.append((newcomer, anchor))
    schedule.extend([(v, hi[v]) for v in reversed(dropped)])
    for v, new_parent in schedule:
        if kids[v]:
            raise LeafClaimError(v, tuple(parents))
        old_parent = parents[v]
        if new_parent != old_parent:
            parents[v] = new_parent
            kids[old_parent] -= 1
            kids[new_parent] += 1
            moves.extend((v, old_parent, new_parent))


def gap_sequence(
    t_k: RootedSpanningTree,
    members: Iterable[int],
    t_prime: RootedSpanningTree,
    num: STNumbering,
    g: Graph,
) -> tuple[list[LeafMove], RootedSpanningTree]:
    """Advance one stage: from the tree for ``members`` to the tree for members + newcomer.

    The newcomer is the one :func:`select_boundary_edge` picks, and the result
    is checked against a fresh :func:`milestone_tree` parent array.
    """
    anchor, newcomer = select_boundary_edge(t_prime, members, num)
    inside = set(members)
    ext = _extreme_neighbors(g, num)
    parents = list(t_k.parents)
    flat = array("i")
    _advance_stage(parents, _child_counts(parents), newcomer, anchor, ext[1],
                   stage_tables(num, ext, inside), flat)
    inside.add(newcomer)
    if parents != _milestone_parents(g, num, inside, t_prime.parents, ext[1]):
        raise AssertionError(f"stage absorbing {newcomer} missed its milestone tree")
    return list(WalkMoves(flat)), RootedSpanningTree(t_k.root, tuple(parents))
