"""Run one treewalk benchmark workload and print its metrics.

    python3 perfbench/run.py --workload walk-verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; treewalk is imported from ``src/``.
Workloads are ``walk-verify``, ``oracle-gk`` and ``cli-stream`` (see
``workloads.py``); ``all`` runs each in its own child process, one after
another.  One process, one thread, a closed loop with one caller.

Set-up (import of treewalk plus building every input from the seed) runs
several times, half of them after the timed phase, and ``setup_s`` is the
median.  The timed phase then runs
rounds, each a fixed list of operations for the seed, until ``--seconds``
have passed; every operation's output is checked after its timing stops.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
round twice, once without spans and once with spans on every public
treewalk function, then replays the first round's walks under tracemalloc,
and prints the per-layer metrics with the tracing overhead (the traced
rounds' time over the same rounds untraced).  The last line of output is one JSON object; the full record
(metadata, problems, spans) goes to ``.perfbench_results/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import metrics
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 8
MAX_PROBLEMS = 5


@dataclass
class Phase:
    """Timings and work of one sequence of rounds."""

    round_times: list[float] = field(default_factory=list)
    op_times: list[float] = field(default_factory=list)
    op_work: list[int] = field(default_factory=list)  # -1 for ops outside work_per_s
    work: int = 0
    work_time: float = 0.0


class Runner:
    """Times operations, checks their outputs and counts failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer: spans.Tracer | None = None

    def run_op(self, op, phase: Phase) -> float:
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result, problem = op.run(), None
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            result, problem = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        work = 0
        if problem is None:
            try:
                problem, work = op.check(result)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        del result
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{op.kind}: {problem}")
        else:
            phase.work += work
            if tracer is not None and self.workload.trace_work_as:
                tracer.counters[self.workload.trace_work_as] += work
        phase.op_times.append(elapsed)
        phase.op_work.append(work if op.counts_work else -1)
        if op.counts_work:
            phase.work_time += elapsed
        return elapsed

    def run_round(self, r: int, phase: Phase) -> None:
        phase.round_times.append(sum(self.run_op(op, phase) for op in self.workload.round_ops(r)))

    def run_rounds(self, phase: Phase, seconds: float) -> None:
        """Whole rounds from round 0 until ``seconds`` have passed (at least one)."""
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < seconds:
            self.run_round(r, phase)
            r += 1

    def run_paired_rounds(self, plain: Phase, traced: Phase, seconds: float) -> spans.Tracer:
        """Each round twice, without and with spans, until ``seconds`` have passed.

        The order within a pair alternates, so drift over the run and the
        warm-up of the first round fall on both sides alike.
        """
        tracer = spans.Tracer()
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < seconds:
            for with_spans in ((False, True) if r % 2 == 0 else (True, False)):
                if not with_spans:
                    self.run_round(r, plain)
                    continue
                tracer.install()
                self.tracer = tracer
                try:
                    self.run_round(r, traced)
                finally:
                    self.tracer = None
                    tracer.uninstall()
            r += 1
        return tracer


def load_treewalk():
    """Import treewalk afresh, so each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "treewalk" or m.startswith("treewalk.")]:
        del sys.modules[name]
    return importlib.import_module("treewalk"), importlib.import_module("treewalk.cli")


def git_sha() -> str:
    """HEAD of the checkout read from ``.git``; ``unknown`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def time_setups(cls, seed: int, workdir: Path, reps: int) -> tuple[list[float], tuple]:
    """Set up ``reps`` times; the durations, and the last set-up's (tw, cli, workload)."""
    times = []
    for _ in range(reps):
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        tw, cli = load_treewalk()
        workload = cls(tw, cli, seed, workdir)
        times.append(time.perf_counter() - start)
    return times, (tw, cli, workload)


def run_workload(name: str, seed: int, seconds: float, traced: bool, work_root: Path) -> dict:
    cls = WORKLOADS[name]
    # Half the set-ups run before the timed phase and half after it, so that
    # setup_s samples the machine over the whole run, as wall_s does.
    setup_times, (tw, cli, workload) = time_setups(cls, seed, work_root / "setup", SETUP_REPS // 2)

    runner = Runner(workload)
    plain = Phase()
    record = {"spans": None, "samples": vars(plain)}
    if not traced:
        runner.run_rounds(plain, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        traced_phase = Phase()
        tracer = runner.run_paired_rounds(plain, traced_phase, seconds)
        rounds = len(traced_phase.round_times)
        walk_ops = [op for op in workload.round_ops(0) if op.walks]
        peak = spans.walk_peak_bytes(lambda: [runner.run_op(op, Phase()) for op in walk_ops])
        setup_tracer = spans.Tracer()
        setup_tracer.install()
        setup_tracer.active = True
        try:
            cls(tw, cli, seed, work_root / "traced-setup")
        finally:
            setup_tracer.active = False
            setup_tracer.uninstall()
        values = metrics.per_layer(tracer, rounds, setup_tracer, peak, plain, traced_phase)
        units = {n: u for n, u, _, _ in metrics.PER_LAYER}
        details = {}
        record["spans"] = tracer.spans
    setup_times += time_setups(cls, seed, work_root / "setup-after", SETUP_REPS // 2)[0]
    if not traced:
        values, details = metrics.end_to_end(setup_times, plain, peak_rss_mb)
        units = {n: u for n, u, _ in metrics.END_TO_END}
        details["work_per_s"] = f"{metrics.WORK_UNIT[name]}; {details['work_per_s']}"
    record.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        traced=traced,
        git_sha=git_sha(),
        python=platform.python_version(),
        nproc=os.cpu_count(),
        correct=runner.failed == 0 and runner.attempted > 0,
        attempted=runner.attempted,
        failed=runner.failed,
        fail_ratio=runner.failed / runner.attempted if runner.attempted else 1.0,
        problems=runner.problems,
        metrics={n: {"value": v, "unit": units[n]} for n, v in values.items()},
        details=details,
    )
    return record


def print_record(record: dict) -> None:
    print(
        f"workload {record['workload']}  seed {record['seed']}  traced {int(record['traced'])}"
        f"  git {record['git_sha'][:12]}  python {record['python']}  nproc {record['nproc']}"
    )
    for name, m in record["metrics"].items():
        detail = record["details"].get(name, "")
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']:6s} {detail}")
    print(f"  {'fail_ratio':44s} {record['fail_ratio']:>16.6g} {'ratio':6s} "
          f"{record['failed']} of {record['attempted']} ops failed")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


def run_all(args) -> int:
    """Each workload in its own child process, so its memory peak is its own."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "treewalk" / "__init__.py").is_file():
        print(f"error: no treewalk sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)

    work_root = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    out_dir = ROOT / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    print_record(record)
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
