"""Side-by-side measurement of the lower bound, the exact distance, and the walk."""

from __future__ import annotations

from dataclasses import dataclass

from .lowerbound import lower_bound_value, make_gk
from .oracle import DEFAULT_CAP, CapExceededError, tree_distance
from .walk import verify_walk, walk


@dataclass(frozen=True)
class ExperimentRow:
    k: int
    n: int
    lower_bound: int
    oracle_distance: int | None  # None when the search would hold more trees than the cap
    walk_moves: int
    walk_bound: int


def experiment_table(k_max: int, cap: int = DEFAULT_CAP) -> list[ExperimentRow]:
    """One row per instance k = 1..k_max, with every chain inequality asserted.

    The exact distance is attempted on every row; a row whose search would
    hold more than ``cap`` trees at once (see ``tree_distance``) keeps no
    distance; a negative ``cap`` raises ValueError from ``tree_distance``.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be positive, got {k_max}")
    rows = []
    for k in range(1, k_max + 1):
        inst = make_gk(k)
        g, root = inst.graph, inst.root
        seq = walk(g, root, inst.tree_a, inst.tree_b)
        report = verify_walk(g, root, seq, source=inst.tree_a, target=inst.tree_b)
        if not report.ok:
            raise RuntimeError(f"walk verification failed for k={k}: {report.issues[0]}")
        n = g.n
        moves = len(seq.moves)
        bound = 2 * n * (n - 1)
        lower = lower_bound_value(k)
        try:
            distance = tree_distance(g, root, inst.tree_a, inst.tree_b, cap=cap)
        except CapExceededError:
            distance = None
        if not lower <= moves <= bound:
            raise RuntimeError(f"bound chain violated at k={k}: {lower} <= {moves} <= {bound}")
        if distance is not None and not lower <= distance <= moves:
            raise RuntimeError(
                f"bound chain violated at k={k}: {lower} <= {distance} <= {moves}"
            )
        rows.append(ExperimentRow(k, n, lower, distance, moves, bound))
    return rows
