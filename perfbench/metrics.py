"""Metric definitions and their reductions from one run's measurements.

``PER_LAYER`` is the list behind ``per_layer`` in BENCHMARK.json.  Its
fourth field names the end-to-end metric, and the workload, that the layer
metric is expected to move; BENCHMARK.json has no field for it, so it lives
here and ``compare.py`` prints it next to each layer delta.
"""

from __future__ import annotations

import statistics

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# What work_per_s counts on each workload.
WORK_UNIT = {
    "walk-verify": "moves_per_s",
    "oracle-gk": "states_per_s",
    "cli-stream": "moves_per_s",
}

CLI_COMMANDS = ("walk", "verify", "gen-gk", "stnum", "partition")
STRATEGIES = ("direct-edge", "from-first-anchor", "from-second-anchor", "virtual-edge")

_WV, _OG, _CS = "walk-verify", "oracle-gk", "cli-stream"
_WALK = f"work_per_s and peak_rss_mb on {_WV}; no change on {_OG}"
_VERIFY = f"work_per_s on {_WV}; op_p50_s on {_CS}"
_CLI_LAT = f"op_p50_s and op_tail_s on {_CS}"
_STRUCT = f"op_tail_s on {_CS}; no change on {_WV}"
_ORACLE = f"wall_s and work_per_s on {_OG}"

# name, unit, better, which end-to-end metric it should move
PER_LAYER = (
    ("walk.walk.calls", "count", "lower", _WALK),
    ("walk.walk.self_s", "s", "lower", _WALK),
    ("walk.walk_from_canonical.calls", "count", "lower", _WALK),
    ("walk.walk_from_canonical.self_s", "s", "lower", _WALK),
    ("walk.moves", "count", "lower", _WALK),
    ("walk.moves_per_s", "1/s", "higher", _WALK),
    ("walk.peak_alloc_mb", "MB", "lower", _WALK),
    ("walk.verify_walk.calls", "count", "lower", _VERIFY),
    ("walk.verify_walk.self_s", "s", "lower", _VERIFY),
    ("walk.verify_walk.steps", "count", "lower", _VERIFY),
    ("walk.verify_walk.steps_per_s", "1/s", "higher", _VERIFY),
    ("walk.verify_walk.certified_ratio", "ratio", "higher", _VERIFY),
    ("walk.parse_walk_moves.self_s", "s", "lower", _CLI_LAT),
    ("walk.parse_walk_moves.moves_per_s", "1/s", "higher", _CLI_LAT),
    ("walk.format_walk_moves.self_s", "s", "lower", _CLI_LAT),
    ("graph.parse_graph.self_s", "s", "lower", _CLI_LAT),
    ("graph.parse_tree.self_s", "s", "lower", _CLI_LAT),
    ("graph.format.self_s", "s", "lower", _CLI_LAT),
    ("graph.spanning_tree_violation.calls", "count", "lower", f"{_CLI_LAT}; work_per_s on {_WV}"),
    ("graph.spanning_tree_violation.self_s", "s", "lower", f"{_CLI_LAT}; work_per_s on {_WV}"),
    ("graph.trees_adjacent.calls", "count", "lower", f"{_CLI_LAT}; work_per_s on {_WV}"),
    ("connectivity.is_biconnected.calls", "count", "lower", _STRUCT),
    ("connectivity.is_biconnected.self_s", "s", "lower", _STRUCT),
    ("connectivity.st_numbering.calls", "count", "lower", _STRUCT),
    ("connectivity.st_numbering.self_s", "s", "lower", _STRUCT),
    ("connectivity.st_numbering.vertices_per_s", "1/s", "higher", _STRUCT),
    ("partition.partition2.calls", "count", "lower", _STRUCT),
    ("partition.partition2.self_s", "s", "lower", _STRUCT),
    *((f"partition.strategy.{s}", "count", "lower", _STRUCT) for s in STRATEGIES),
    ("oracle.tree_distance.self_s", "s", "lower", _ORACLE),
    ("oracle.shortest_tree_path.self_s", "s", "lower", _ORACLE),
    ("oracle.tree_graph_diameter.self_s", "s", "lower", _ORACLE),
    ("oracle.states", "count", "lower", _ORACLE),
    ("oracle.states_per_s", "1/s", "higher", _ORACLE),
    ("oracle.enumerate.self_s", "s", "lower", _ORACLE),
    ("oracle.enumerate.trees_per_s", "1/s", "higher", _ORACLE),
    ("oracle.kirchhoff.self_s", "s", "lower", _ORACLE),
    ("oracle.removal_times.self_s", "s", "lower", _ORACLE),
    ("experiment.experiment_table.self_s", "s", "lower", f"wall_s on {_OG}"),
    *(
        (f"cli.{c}.{what}", unit, "lower", f"op_p50_s on {_CS}")
        for c in CLI_COMMANDS
        for what, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("generators.self_s", "s", "lower", "setup_s on every workload"),
    ("lowerbound.make_gk.self_s", "s", "lower", f"setup_s on {_OG}"),
    ("trace.rounds", "count", "higher", "none: rounds in the traced phase"),
    ("trace.wall_s_untraced", "s", "lower", "wall_s, measured in the traced run without spans"),
    ("trace.wall_s_traced", "s", "lower", "none: wall_s with spans on"),
    ("trace.overhead_ratio", "ratio", "lower", "none: cost of the spans themselves"),
)

TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With twenty samples or fewer no percentile at or above the median has
    ten beyond it; the median is reported then, labelled as p50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    idx = n - TAIL_BEYOND - 1
    return ordered[idx], 100.0 * (idx + 1) / n


def end_to_end(setup_times, phase, peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end values by name, and the sample details printed beside them."""
    tail_value, tail_pct = tail(phase.op_times)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(phase.round_times),
        "op_p50_s": statistics.median(phase.op_times),
        "op_tail_s": tail_value,
        "work_per_s": phase.work / phase.work_time if phase.work_time else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "setup_s": f"median of {len(setup_times)} set-ups, half after the timed phase",
        "wall_s": f"median of {len(phase.round_times)} rounds",
        "op_p50_s": f"{len(phase.op_times)} ops",
        "op_tail_s": f"p{tail_pct:.1f} of {len(phase.op_times)} ops",
        "work_per_s": f"{phase.work} units in {phase.work_time:.3f} s",
        "peak_rss_mb": "ru_maxrss of this process at the end of the timed phase",
    }
    return values, details


def per_layer(tracer, rounds: int, setup_tracer, peak_bytes: int, plain, traced) -> dict:
    """Per-layer values from a traced phase of ``rounds`` rounds.

    Counts and self times are per round.  Rates divide a count by the wall
    time its layer's spans cover.  ``generators`` and ``make_gk`` come from
    one traced set-up.
    """
    self_s = tracer.self_times()
    counters = tracer.counters

    def rate(count, names):
        busy = tracer.busy(set(names))
        return count / busy if busy else 0.0

    steps = counters["walk.verify_walk.steps"]
    uncertified = tracer.calls("graph.trees_adjacent", site="walk")
    values = {
        "walk.moves_per_s": rate(counters["walk.moves"], ["walk.walk"]),
        "walk.peak_alloc_mb": peak_bytes / 2**20,
        "walk.verify_walk.steps_per_s": rate(steps, ["walk.verify_walk"]),
        "walk.verify_walk.certified_ratio": 1.0 - uncertified / steps if steps else 0.0,
        "walk.parse_walk_moves.moves_per_s": rate(
            counters["walk.parse_walk_moves.moves"], ["walk.parse_walk_moves"]
        ),
        "connectivity.st_numbering.vertices_per_s": rate(
            counters["connectivity.st_numbering.vertices"], ["connectivity.st_numbering"]
        ),
        "oracle.states_per_s": rate(
            counters["oracle.states"], ["oracle.tree_graph_diameter", "oracle.enumerate"]
        ),
        "oracle.enumerate.trees_per_s": rate(
            counters["oracle.enumerate.trees"], ["oracle.enumerate"]
        ),
        "generators.self_s": setup_tracer.self_times().get("generators", 0.0),
        "lowerbound.make_gk.self_s": setup_tracer.self_times().get("lowerbound.make_gk", 0.0),
        "trace.rounds": float(rounds),
        "trace.wall_s_untraced": statistics.median(plain.round_times),
        "trace.wall_s_traced": statistics.median(traced.round_times),
        "trace.overhead_ratio": sum(traced.round_times) / sum(plain.round_times) - 1.0,
    }
    for counter in ("walk.moves", "walk.verify_walk.steps", "oracle.states"):
        values[counter] = counters[counter] / rounds
    for name, unit, _, _ in PER_LAYER:
        if name in values:
            continue
        if name.endswith(".calls"):
            values[name] = tracer.calls(name[: -len(".calls")]) / rounds
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0) / rounds
        elif name.startswith("partition.strategy."):
            values[name] = counters[name] / rounds
        else:
            raise KeyError(f"no reduction for per-layer metric {name}")
    return values
