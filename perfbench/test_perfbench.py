"""Checks on the benchmark itself.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

from __future__ import annotations

import json
import random
import sys
from types import SimpleNamespace

import metrics
import run
from workloads import WalkFiles, walk_verify_ops

if str(run.ROOT / "src") not in sys.path:
    sys.path.append(str(run.ROOT / "src"))

import treewalk  # noqa: E402
import treewalk.cli  # noqa: E402


def _cli_pipeline(tmp_path):
    """The cli-stream walk and verify ops for one small instance with a non-empty walk."""
    rng = random.Random(5)
    g = treewalk.random_biconnected_graph(12, rng)
    t1 = treewalk.random_spanning_tree(g, 0, rng)
    t2 = treewalk.random_spanning_tree(g, 0, rng)
    inst = WalkFiles(treewalk, g, t1, t2, tmp_path / "x")
    assert inst.expected()[1] > 0
    walk_op, verify_op = walk_verify_ops(treewalk, treewalk.cli, inst, with_trees=False)
    return run.Runner(SimpleNamespace(trace_work_as=None)), inst, walk_op, verify_op


def test_cli_walk_then_verify_passes(tmp_path):
    runner, inst, walk_op, verify_op = _cli_pipeline(tmp_path)
    phase = run.Phase()
    runner.run_op(walk_op, phase)
    runner.run_op(verify_op, phase)
    assert (runner.attempted, runner.failed) == (2, 0), runner.problems
    assert phase.work == inst.expected()[1]


def test_tampered_move_stream_counts_as_failure(tmp_path):
    runner, inst, walk_op, verify_op = _cli_pipeline(tmp_path)
    runner.run_op(walk_op, run.Phase())
    lines = inst.moves_out.read_text().splitlines()
    n = int(lines[0].split()[0])
    first_move = n  # after the header and the n-1 parent lines
    v, old, new = map(int, lines[first_move].split())
    stale = next(x for x in range(n) if x not in (v, old))
    lines[first_move] = f"{v} {stale} {new}"
    inst.moves_out.write_text("\n".join(lines) + "\n")

    phase = run.Phase()
    runner.run_op(verify_op, phase)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert phase.work == 0
    assert runner.problems[0].startswith("cli.verify: verify exited 2")


def test_tail_needs_ten_samples_beyond():
    assert metrics.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert metrics.tail([float(i) for i in range(21)]) == (10.0, 100 * 11 / 21)
    assert metrics.tail([float(i) for i in range(20)]) == (9.5, 50.0)
    assert metrics.tail([1.0, 2.0, 3.0]) == (2.0, 50.0)


def test_benchmark_json_lists_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
