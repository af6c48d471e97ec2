"""Print per-metric deltas between two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a result file written by ``run.py`` or a directory of
them (a copy of ``.perfbench_results/``).  Runs of the same workload and
trace mode are reduced to their median.  Untraced runs give one row per
end-to-end metric, flagged when NEW is worse than BASE by more than the
metric's bound in BENCHMARK.json.  Traced runs give one row per layer self
time, with the end-to-end metric that layer is expected to move.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[tuple[str, bool], dict[str, list[float]]]:
    """(workload, traced) -> metric -> values over the runs found at ``path``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out: dict = defaultdict(lambda: defaultdict(list))
    for f in files:
        record = json.loads(f.read_text())
        for name, m in record["metrics"].items():
            out[(record["workload"], record["traced"])][name].append(m["value"])
    return out


def bounds() -> dict[str, float]:
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}


def delta(base: float, new: float) -> float | None:
    return (new - base) / base if base else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    bound = bounds()
    better = {n: b for n, _, b in metrics.END_TO_END}
    better.update({n: b for n, _, b, _ in metrics.PER_LAYER})
    expect = {n: e for n, _, _, e in metrics.PER_LAYER}
    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, traced = key
        print(f"== {workload} ({'traced' if traced else 'untraced'}; "
              f"runs {len(next(iter(base[key].values())))} vs {len(next(iter(new[key].values())))})")
        names = [n for n in base[key] if n in new[key]]
        if traced:
            names = [n for n in names if n.endswith(".self_s") or n.startswith("trace.")]
        for name in names:
            b, n = statistics.median(base[key][name]), statistics.median(new[key][name])
            d = delta(b, n)
            worse = d is not None and (d > 0 if better.get(name) == "lower" else d < 0)
            note = expect.get(name, "")
            if not traced and name in bound:
                beyond = worse and abs(d) > bound[name]
                regressions += beyond
                note = f"bound {bound[name]:.0%}{'  WORSE BEYOND BOUND' if beyond else ''}"
            shown = "n/a" if d is None else f"{d:+.1%}"
            print(f"  {name:40s} {b:>12.6g} -> {n:<12.6g} {shown:>8s}  {note}")
    only = sorted(set(base) ^ set(new))
    for workload, traced in only:
        side = "BASE" if (workload, traced) in base else "NEW"
        print(f"== {workload} ({'traced' if traced else 'untraced'}) only in {side}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
