"""The benchmark's tracer must still see the layers it reports.

``perfbench/spans.py`` lists them in ``TARGETS`` and replaces each by a
wrapper under ``--trace 1``; a renamed or deleted function, or a layer
reached by a private route instead, would break that mode's report without
failing any other test.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import treewalk
import graphs

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    targets = _spans().TARGETS
    assert targets
    missing = [
        f"treewalk.{mod}.{name}"
        for mod, name, *_ in targets
        if not callable(getattr(importlib.import_module(f"treewalk.{mod}"), name, None))
    ]
    assert missing == []


def test_walk_reaches_both_canonical_walks_through_the_traced_layer():
    t = treewalk.tree_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)], root=0)
    t_prime = treewalk.tree_from_edges(5, [(0, 4), (3, 4), (2, 3), (1, 2)], root=0)
    tracer = _spans().Tracer()
    tracer.install()
    try:
        tracer.active = True
        treewalk.walk(graphs.C5, 0, t, t_prime)
    finally:
        tracer.uninstall()
    (top,) = [i for i, s in enumerate(tracer.spans) if s[0] == "walk.walk"]
    halves = [s for s in tracer.spans if s[0] == "walk.walk_from_canonical"]
    assert len(halves) == 2
    assert all(s[4] == top for s in halves)
