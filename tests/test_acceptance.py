"""Acceptance gate: eight end-to-end checks, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Budgets are wall-clock seconds and are part of the
pass condition.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
import time
from collections import deque

from treewalk import (
    LeafClaimError,
    STNumbering,
    count_spanning_trees_kirchhoff,
    enumerate_spanning_trees,
    experiment_table,
    format_walk_moves,
    lower_bound_value,
    make_gk,
    partition2,
    random_biconnected_graph,
    random_spanning_tree,
    removal_times,
    shortest_tree_path,
    st_numbering,
    tree_distance,
    trees_adjacent,
    trees_adjacent_via_move,
    validate_partition2,
    validate_st_numbering,
    verify_walk,
    walk,
)
from treewalk.oracle import _PackedTrees

import graphs
from test_connectivity import _valid_by_definition


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


@functools.cache
def _table25():
    """Walks for k = 1..25, shared by criteria 2 and 5."""
    return experiment_table(25, cap=0)


def _criterion_1_corpus():
    """Seed 1: 500 random biconnected graphs with 4..64 vertices, two tree pairs each."""
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randint(4, 64)
        g = random_biconnected_graph(n, rng)
        for _ in range(2):
            yield g, random_spanning_tree(g, 0, rng), random_spanning_tree(g, 0, rng)


def test_criterion_1_walk_validity_and_length_bound():
    start = time.perf_counter()
    walks = 0
    problems: list[str] = []
    for g, t1, t2 in _criterion_1_corpus():
        n = g.n
        tree_cap = 2 * n * (n - 1) + 1
        seq = walk(g, 0, t1, t2)
        walks += 1
        if len(seq.trees) > tree_cap:
            problems.append(f"n={n}: {len(seq.trees)} trees exceeds {tree_cap}")
        report = verify_walk(g, 0, seq, source=t1, target=t2)
        if not report.ok:
            problems.append(f"n={n}: {report.issues[0]}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, budget 30s")
    ok = not problems
    _report(1, ok, f"{walks} verified walks on 500 graphs, {elapsed:.1f}s"
            if ok else "; ".join(problems[:3]))
    assert ok, problems[:5]


def test_criterion_1_move_streams_are_pinned():
    # sha256 of every criterion-1 walk's move stream, concatenated, as the
    # construction that stored every intermediate tree emitted them.
    digest = hashlib.sha256()
    for g, t1, t2 in _criterion_1_corpus():
        digest.update(format_walk_moves(walk(g, 0, t1, t2)).encode())
    assert digest.hexdigest() == (
        "b394e659c41b330f9345211ef91264878b0f6b76d7375c46ccf7490777ecfab0"
    )


def test_criterion_2_leaf_claim_never_fires():
    fired = 0
    rows = []
    try:
        rows = _table25()
    except LeafClaimError:
        fired += 1
    rng = random.Random(2)
    for _ in range(100):
        g = random_biconnected_graph(rng.randint(4, 32), rng)
        t1 = random_spanning_tree(g, 0, rng)
        t2 = random_spanning_tree(g, 0, rng)
        try:
            walk(g, 0, t1, t2)
        except LeafClaimError:
            fired += 1
    ok = fired == 0 and len(rows) == 25
    _report(2, ok, "zero firings over k <= 25 instances plus 100 random walks"
            if ok else f"{fired} firings")
    assert ok


def test_criterion_3_adjacency_definitions_agree():
    start = time.perf_counter()
    pairs = 0
    mismatches = 0
    for g in graphs.ALL_GRAPHS.values():
        if g.n > 6:
            continue
        for a in range(g.n):
            trees = enumerate_spanning_trees(g, root=a)
            for t1, t2 in itertools.product(trees, repeat=2):
                pairs += 1
                if trees_adjacent(t1, t2, a) != trees_adjacent_via_move(t1, t2, a):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _report(3, ok, f"{pairs} rooted tree pairs, {mismatches} disagreements, {elapsed:.1f}s")
    assert ok


def test_criterion_4_oracle_cross_check():
    start = time.perf_counter()
    problems: list[str] = []
    for name, g in graphs.ALL_GRAPHS.items():
        if len(enumerate_spanning_trees(g)) != count_spanning_trees_kirchhoff(g):
            problems.append(f"{name}: enumeration disagrees with determinant")
    # connectivity of the tree graph: one BFS must reach every spanning tree
    for name, g in graphs.BICONNECTED.items():
        trees = enumerate_spanning_trees(g, root=0)
        space = _PackedTrees(g, 0)
        seen = {space.pack(trees[0])}
        queue = deque(seen)
        while queue:
            for nxt in space.neighbors(queue.popleft()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if len(seen) != len(trees):
            problems.append(f"{name}: BFS reached {len(seen)} of {len(trees)} trees")
    rng = random.Random(4)
    checked = 0
    for _ in range(40):
        g = random_biconnected_graph(rng.randint(4, 8), rng)
        t1 = random_spanning_tree(g, 0, rng)
        t2 = random_spanning_tree(g, 0, rng)
        d = tree_distance(g, 0, t1, t2)
        moves = len(walk(g, 0, t1, t2).moves)
        checked += 1
        if d > moves:
            problems.append(f"n={g.n}: oracle {d} > walk {moves}")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.1f}s, budget 120s")
    ok = not problems
    _report(4, ok, f"counts x{len(graphs.ALL_GRAPHS)}, connectivity x"
            f"{len(graphs.BICONNECTED)}, {checked} distance/walk pairs, {elapsed:.1f}s"
            if ok else "; ".join(problems[:3]))
    assert ok, problems[:5]


def test_criterion_5_lower_bound_certification():
    problems: list[str] = []
    measured = {}
    for k in (2, 3):
        inst = make_gk(k)
        d = tree_distance(inst.graph, inst.root, inst.tree_a, inst.tree_b)
        measured[k] = d
        if d < lower_bound_value(k):
            problems.append(f"G_{k}: oracle distance {d} below bound {lower_bound_value(k)}")
    for row in _table25():
        if not row.lower_bound <= row.walk_moves <= 2 * row.n * (row.n - 1):
            problems.append(f"k={row.k}: chain {row.lower_bound} <= "
                            f"{row.walk_moves} <= {2 * row.n * (row.n - 1)} broken")
    bad_formula = sum(1 for k in range(1, 10_001) if lower_bound_value(k) != 2 * k * (k - 1))
    if bad_formula:
        problems.append(f"closed form wrong for {bad_formula} values of k")
    ok = not problems
    _report(5, ok, f"d(G_2)={measured.get(2)} >= 4, d(G_3)={measured.get(3)} >= 12, "
            "25 table rows, closed form to k=10^4" if ok else "; ".join(problems[:3]))
    assert ok, problems[:5]


def test_criterion_6_removal_time_structure():
    problems: list[str] = []
    chains = []
    for k, probe_count in ((2, 7), (3, 11)):
        inst = make_gk(k)
        seq = shortest_tree_path(inst.graph, inst.root, inst.tree_a, inst.tree_b)
        probes = [(i, i + 1) for i in range(1, probe_count + 1)]
        ana = removal_times(seq, probes)
        values = [ana.time_of(*e) for e in probes]
        chains.append(f"G_{k}: {values}")
        if any(v is None for v in values):
            problems.append(f"G_{k}: some probed edge never leaves: {values}")
            continue
        if len(set(values)) != len(values):
            problems.append(f"G_{k}: removal times collide: {values}")
        if any(a <= b for a, b in zip(values, values[1:])):
            problems.append(f"G_{k}: not strictly decreasing in index: {values}")
    ok = not problems
    _report(6, ok, "; ".join(chains) if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_7_st_numbering_validity():
    rng = random.Random(7)
    invalid = 0
    for _ in range(1000):
        g = random_biconnected_graph(rng.randint(3, 40), rng)
        s, t = rng.choice(sorted(g.edges))
        if not validate_st_numbering(g, st_numbering(g, s, t), s, t):
            invalid += 1
    mismatches = 0
    perms_checked = 0
    for g in graphs.ALL_GRAPHS.values():
        if g.n > 5:
            continue
        for perm in itertools.permutations(range(g.n)):
            perms_checked += 1
            num = STNumbering(perm)
            s, t = perm[0], perm[-1]
            if validate_st_numbering(g, num, s, t) != _valid_by_definition(g, perm, s, t):
                mismatches += 1
    ok = invalid == 0 and mismatches == 0
    _report(7, ok, f"1000 random numberings valid, {perms_checked} permutations agree"
            if ok else f"{invalid} invalid, {mismatches} validator mismatches")
    assert ok


def test_criterion_8_partition_validation():
    rng = random.Random(8)
    start = time.perf_counter()
    problems: list[str] = []
    for _ in range(200):
        g = random_biconnected_graph(rng.randint(3, 40), rng)
        u1 = rng.randrange(g.n)
        u2 = rng.randrange(g.n)
        while u2 == u1:
            u2 = rng.randrange(g.n)
        n1 = rng.randint(1, g.n - 1)
        v1, v2 = partition2(g, u1, u2, n1)
        problem = validate_partition2(g, v1, v2, u1, u2, n1)
        if problem is not None:
            problems.append(f"n={g.n} u1={u1} u2={u2} n1={n1}: {problem}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s, budget 10s")
    ok = not problems
    _report(8, ok, f"200 validated partitions, {elapsed:.1f}s" if ok else "; ".join(problems[:3]))
    assert ok, problems[:5]
