"""Every function the benchmark's tracer wraps must still exist in treewalk.

``perfbench/spans.py`` lists them in ``TARGETS`` and replaces each by a
wrapper under ``--trace 1``; a renamed or deleted function would break that
mode without failing any other test.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_function_resolves():
    targets = _targets()
    assert targets
    missing = [
        f"treewalk.{mod}.{name}"
        for mod, name, *_ in targets
        if not callable(getattr(importlib.import_module(f"treewalk.{mod}"), name, None))
    ]
    assert missing == []
