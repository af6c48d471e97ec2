"""Seeded random instances: biconnected graphs by ear growth, random spanning trees."""

from __future__ import annotations

import random

from .graph import Graph, RootedSpanningTree

def random_biconnected_graph(
    n: int, rng: random.Random, extra_edges: int | None = None
) -> Graph:
    """Random 2-vertex-connected graph on n >= 3 vertices.

    Start from a cycle on a random subset, then repeatedly attach an ear (a
    path of fresh vertices between two distinct existing vertices) until all
    vertices are used, then sprinkle extra edges.  Cycle-plus-open-ears is
    biconnected by construction.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    perm = list(range(n))
    rng.shuffle(perm)
    cycle_len = rng.randint(3, n)
    used = perm[:cycle_len]
    rest = perm[cycle_len:]
    edges = {tuple(sorted((used[i], used[(i + 1) % cycle_len]))) for i in range(cycle_len)}
    while rest:
        length = rng.randint(1, len(rest))
        inner, rest = rest[:length], rest[length:]
        u, w = rng.sample(used, 2)
        path = [u] + inner + [w]
        for x, y in zip(path, path[1:]):
            edges.add(tuple(sorted((x, y))))
        used.extend(inner)
    if extra_edges is None:
        extra_edges = rng.randint(0, n)
    attempts = 0
    added = 0
    while added < extra_edges and attempts < 20 * extra_edges + 20:
        attempts += 1
        u, w = rng.sample(range(n), 2)
        e = tuple(sorted((u, w)))
        if e not in edges:
            edges.add(e)
            added += 1
    return Graph.from_edges(n, sorted(edges))


def random_spanning_tree(g: Graph, root: int, rng: random.Random) -> RootedSpanningTree:
    """Spanning tree from a randomized depth-first search rooted at ``root``."""
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for {g.n} vertices")
    parents = [-1] * g.n
    seen = [False] * g.n
    seen[root] = True
    stack = [root]
    while stack:
        v = stack.pop()
        nbrs = list(g.adj[v])
        rng.shuffle(nbrs)
        for w in nbrs:
            if not seen[w]:
                seen[w] = True
                parents[w] = v
                stack.append(w)
    if not all(seen):
        raise ValueError("graph is not connected")
    return RootedSpanningTree(root, tuple(parents))
