"""The flag-based reference for ``verify_walk``.

:func:`reference_verify_walk` checks every step in one loop: each step
pays the range tests, the leaf-move and regularity flags and the three
issue tests, and only a step that is not regular builds trees and runs the
full check and the general adjacency test.  The package's loop tests for a
regular step first, with no flags, and gives every other step the general
body; its reports must equal this one's on every stream.
"""

from __future__ import annotations

from treewalk import Graph, RootedSpanningTree, WalkReport, WalkSequence
from treewalk.graph import _child_counts, spanning_tree_violation, trees_adjacent


def reference_verify_walk(
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
    tests follow in O(1) from the child count of that vertex.  Any
    other move is applied anyway, and the tree it leads to gets the full
    check and the general adjacency test, so a corrupted stream is still
    diagnosed tree by tree.
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
    for idx, (v, claimed, new) in enumerate(zip(it, it, it)):
        if v == root or v == new or not (0 <= v < size and 0 <= new < size):
            issues.append(f"step {idx}: move {v} {claimed} {new} cannot be applied")
            continue
        old = parents[v]
        # Leaf-move adjacency: equal maps, or one rehung vertex childless in both.
        move_ok = new == old or not kids[v]
        regular = certified and move_ok and new in neighbors[v]
        if not regular:
            prev = RootedSpanningTree(root, tuple(parents))
        parents[v] = new
        kids[old] -= 1
        kids[new] += 1
        if regular:
            # Unless the trees are equal, a childless vertex of a spanning
            # tree was rehung along a graph edge: the result is a spanning
            # tree again, and the edges the two share are all but {v, old},
            # which cut off only v from the root, so the intersection test
            # holds as well.
            adjacent = True
        else:
            tree = RootedSpanningTree(root, tuple(parents))
            try:
                adjacent = trees_adjacent(prev, tree, a)
            except ValueError as exc:
                issues.append(f"step {idx}: {exc}")
                adjacent = None
            certified = full_check(idx + 1, tree)
        if adjacent is False:
            issues.append(f"step {idx}: not adjacent (intersection test)")
        if not move_ok:
            issues.append(f"step {idx}: not adjacent (leaf-move test)")
        if old != claimed:
            issues.append(f"step {idx}: move old parent disagrees with tree")
    source_matches = None if source is None else first == source
    target_matches = (
        None if target is None else target.root == root and target.parents == tuple(parents)
    )
    if source_matches is False:
        issues.append("endpoint mismatch: first tree differs from declared source")
    if target_matches is False:
        issues.append("endpoint mismatch: last tree differs from declared target")
    return WalkReport(len(seq), len(seq.moves), tuple(issues), source_matches, target_matches)
