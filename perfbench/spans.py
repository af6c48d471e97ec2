"""Spans and counters recorded around treewalk's public functions.

A traced run replaces each function listed in ``TARGETS`` by a wrapper, in
every ``treewalk`` module namespace that holds it, so callers inside the
package (``walk`` calling ``st_numbering``, ``cli`` calling ``walk``) reach the
wrapper too.  Nothing inside ``src/`` changes.  Each call becomes one span
record ``[name, site, start, end, parent]``, kept in memory; ``site`` is the
module whose namespace the caller looked the function up in.  A layer's self
time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict


def _seq_steps(counters, args, kwargs, result):
    seq = args[2] if len(args) > 2 else kwargs["seq"]
    counters["walk.verify_walk.steps"] += max(len(seq.trees) - 1, 0)


def _walk_moves(counters, args, kwargs, result):
    counters["walk.moves"] += len(result.moves)


def _parsed_moves(counters, args, kwargs, result):
    counters["walk.parse_walk_moves.moves"] += len(result.moves)


def _st_vertices(counters, args, kwargs, result):
    counters["connectivity.st_numbering.vertices"] += len(result.order)


def _strategy(counters, args, kwargs, result):
    counters[f"partition.strategy.{result[2]}"] += 1


def _enumerated(counters, args, kwargs, result):
    counters["oracle.enumerate.trees"] += len(result)


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    return f"cli.{argv[0]}"


# (module under treewalk, function, span name or name(args, kwargs), counter hook)
TARGETS = (
    ("graph", "parse_graph", "graph.parse_graph", None),
    ("graph", "parse_tree", "graph.parse_tree", None),
    ("graph", "format_graph", "graph.format", None),
    ("graph", "format_tree", "graph.format", None),
    ("graph", "spanning_tree_violation", "graph.spanning_tree_violation", None),
    ("graph", "trees_adjacent", "graph.trees_adjacent", None),
    ("connectivity", "is_biconnected", "connectivity.is_biconnected", None),
    ("connectivity", "st_numbering", "connectivity.st_numbering", _st_vertices),
    ("walk", "walk", "walk.walk", _walk_moves),
    ("walk", "walk_from_canonical", "walk.walk_from_canonical", None),
    ("walk", "verify_walk", "walk.verify_walk", _seq_steps),
    ("walk", "parse_walk_moves", "walk.parse_walk_moves", _parsed_moves),
    ("walk", "format_walk_moves", "walk.format_walk_moves", None),
    ("oracle", "tree_distance", "oracle.tree_distance", None),
    ("oracle", "shortest_tree_path", "oracle.shortest_tree_path", None),
    ("oracle", "tree_graph_diameter", "oracle.tree_graph_diameter", None),
    ("oracle", "enumerate_spanning_trees", "oracle.enumerate", _enumerated),
    ("oracle", "count_spanning_trees_kirchhoff", "oracle.kirchhoff", None),
    ("oracle", "removal_times", "oracle.removal_times", None),
    # partition2 delegates to this one, and the CLI calls it directly.
    ("partition", "partition2_with_strategy", "partition.partition2", _strategy),
    ("experiment", "experiment_table", "experiment.experiment_table", None),
    ("generators", "random_biconnected_graph", "generators", None),
    ("generators", "random_spanning_tree", "generators", None),
    ("lowerbound", "make_gk", "lowerbound.make_gk", None),
    ("cli", "main", _cli_name, None),
)


def _treewalk_modules():
    return [
        (name, mod)
        for name, mod in list(sys.modules.items())
        if name == "treewalk" or name.startswith("treewalk.")
    ]


def patch_everywhere(orig, make_replacement):
    """Point every treewalk attribute that holds ``orig`` at a replacement.

    ``make_replacement(site)`` builds the replacement for the namespace of
    module ``site`` (``"treewalk"`` for the package).  Returns the undo list
    for :func:`restore`.
    """
    undo = []
    for mod_name, mod in _treewalk_modules():
        site = mod_name.rpartition(".")[2]
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, make_replacement(site))
                undo.append((mod, key, orig))
    return undo


def restore(undo):
    for mod, key, orig in reversed(undo):
        setattr(mod, key, orig)


class Tracer:
    """Span records and counters for one traced phase; inert while ``active`` is False."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.active = False
        self._stack: list[int] = []
        self._undo: list = []

    def install(self):
        for module, func, name, hook in TARGETS:
            orig = getattr(sys.modules[f"treewalk.{module}"], func)
            self._undo += patch_everywhere(
                orig, lambda site, o=orig, n=name, h=hook: self._wrap(o, n, site, h)
            )

    def uninstall(self):
        restore(self._undo)
        self._undo = []

    def _wrap(self, fn, name, site, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [
                name(args, kwargs) if callable(name) else name,
                site,
                0.0,
                0.0,
                stack[-1] if stack else -1,
            ]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    # --- reductions over the recorded spans ---

    def calls(self, name: str, site: str | None = None) -> int:
        return sum(1 for s in self.spans if s[0] == name and (site is None or s[1] == site))

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the duration of direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        out: dict[str, float] = defaultdict(float)
        for idx, s in enumerate(self.spans):
            out[s[0]] += s[3] - s[2] - child[idx]
        return out

    def busy(self, names: set[str]) -> float:
        """Wall time covered by spans named in ``names``, nested ones counted once."""
        total = 0.0
        for s in self.spans:
            if s[0] not in names:
                continue
            parent = s[4]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][4]
            if parent < 0:
                total += s[3] - s[2]
        return total


def walk_peak_bytes(run_ops) -> int:
    """Largest tracemalloc peak of one ``walk`` call while ``run_ops()`` runs.

    Each call's peak is measured from the memory already traced when it
    starts, so it is the walk's own allocation high-water mark.
    """
    peaks = [0]
    orig = sys.modules["treewalk.walk"].walk

    def make(site):
        @functools.wraps(orig)
        def measured(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = orig(*args, **kwargs)
            peaks[0] = max(peaks[0], tracemalloc.get_traced_memory()[1] - base)
            return result

        return measured

    undo = patch_everywhere(orig, make)
    tracemalloc.start()
    try:
        run_ops()
    finally:
        tracemalloc.stop()
        restore(undo)
    return peaks[0]
