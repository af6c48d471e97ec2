"""The benchmark's workloads: seeded inputs, rounds of operations, output checks.

A workload builds every input from ``--seed`` when it is constructed (that is
the set-up the benchmark times), then hands out rounds: lists of operations
that are the same for a given seed and round index.  An operation's ``run``
is the timed call into treewalk.  Its ``check`` runs afterwards, untimed and
untraced, and returns ``(problem, work)``: ``problem`` is None exactly when
the output is correct, and ``work`` is what the operation adds to
``work_per_s`` (verified walk moves, or tree-graph states whose number the
input fixes from outside).

The workloads reach treewalk only through attributes looked up at call time
(``tw.walk``, ``cli.main``), so a traced run sees every call.
"""

from __future__ import annotations

import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str | None, int]]
    counts_work: bool = False  # its time is the denominator of work_per_s
    walks: bool = False  # replayed under tracemalloc for walk.peak_alloc_mb


def _replay(source_parents, moves) -> tuple[int, ...] | str:
    """Apply a move stream to a parent array; the end tree, or the first stale move."""
    parents = list(source_parents)
    for i, mv in enumerate(moves):
        if parents[mv.vertex] != mv.old_parent:
            return f"move {i} names old parent {mv.old_parent}, tree has {parents[mv.vertex]}"
        parents[mv.vertex] = mv.new_parent
    return tuple(parents)


class WalkVerify:
    """``walk`` then ``verify_walk`` with declared endpoints, one tree pair per op."""

    N = 256
    POOL = 24
    PAIRS_PER_ROUND = 2
    trace_work_as = None

    def __init__(self, tw, cli, seed: int, workdir: Path):
        self.tw = tw
        rng = random.Random(seed)
        self.pairs = []
        for _ in range(self.POOL):
            g = tw.random_biconnected_graph(self.N, rng)
            self.pairs.append(
                (g, tw.random_spanning_tree(g, 0, rng), tw.random_spanning_tree(g, 0, rng))
            )

    def round_ops(self, r: int) -> list[Op]:
        base = r * self.PAIRS_PER_ROUND
        return [
            self._pair_op(*self.pairs[(base + i) % self.POOL])
            for i in range(self.PAIRS_PER_ROUND)
        ]

    def _pair_op(self, g, t1, t2) -> Op:
        tw = self.tw

        def run():
            seq = tw.walk(g, 0, t1, t2)
            report = tw.verify_walk(g, 0, seq, source=t1, target=t2)
            return seq, report

        def check(result):
            seq, report = result
            if not report.ok:
                return f"verify_walk: {report.issues[0]}", 0
            if not (report.source_matches and report.target_matches):
                return "verify_walk did not confirm both endpoints", 0
            moves = len(seq.moves)
            bound = 2 * g.n * (g.n - 1)
            if moves > bound:
                return f"{moves} moves exceed 2n(n-1) = {bound}", 0
            if seq.source != t1:
                return "walk does not start at the source tree", 0
            end = _replay(t1.parents, seq.moves)
            if end != t2.parents:
                return end if isinstance(end, str) else "moves do not lead to the target tree", 0
            return None, moves

        return Op("pair", run, check, counts_work=True, walks=True)


class OracleGK:
    """The certification path: exact distances on G_k, enumeration, Kirchhoff, diameters."""

    K_MAX = 5
    # Exact BFS distances between the two trees of G_k, recorded at the
    # commit that defined this benchmark.
    DISTANCES = {1: 4, 2: 16, 3: 36, 4: 64, 5: 100}
    PATH_KS = (3, 4)
    KIRCHHOFF_NS = (100, 150, 200)
    # Tree-count classes for the diameter graphs, one graph per class and
    # round.  Each BFS visits all T trees, so one diameter call costs T^2
    # states; fixed classes keep that cost alike across seeds.
    DIAMETER_TREES = ((60, 90), (91, 120), (121, 150))
    POOL_ROUNDS = 8
    trace_work_as = "oracle.states"

    def __init__(self, tw, cli, seed: int, workdir: Path):
        self.tw = tw
        rng = random.Random(seed)
        self.gk = {k: tw.make_gk(k) for k in self.PATH_KS}
        self.rounds = []
        for _ in range(self.POOL_ROUNDS):
            kirchhoff = []
            for n in self.KIRCHHOFF_NS:
                # A fixed edge count keeps the size of the determinant's
                # integers, and so its cost, alike across seeds.
                g = tw.random_biconnected_graph(n, rng, extra_edges=n // 2)
                kirchhoff.append((g, rng.sample(range(n), n)))
            diameters = []
            for lo, hi in self.DIAMETER_TREES:
                while True:
                    g = tw.random_biconnected_graph(rng.randint(5, 7), rng)
                    trees = tw.count_spanning_trees_kirchhoff(g)
                    if lo <= trees <= hi:
                        break
                pair = (tw.random_spanning_tree(g, 0, rng), tw.random_spanning_tree(g, 0, rng))
                diameters.append((g, trees, pair))
            self.rounds.append((kirchhoff, diameters))

    def round_ops(self, r: int) -> list[Op]:
        kirchhoff, diameters = self.rounds[r % self.POOL_ROUNDS]
        ops = [self._experiment_op()]
        ops += [self._path_op(k) for k in self.PATH_KS]
        ops.append(self._enumerate_op(self.gk[4]))
        ops += [self._kirchhoff_op(g, perm) for g, perm in kirchhoff]
        ops += [self._diameter_op(*d) for d in diameters]
        return ops

    def _experiment_op(self) -> Op:
        tw = self.tw

        def check(rows):
            if [row.k for row in rows] != list(range(1, self.K_MAX + 1)):
                return "experiment_table returned the wrong rows", 0
            for row in rows:
                d = row.oracle_distance
                if d != self.DISTANCES[row.k]:
                    return f"G_{row.k}: oracle distance {d}, recorded {self.DISTANCES[row.k]}", 0
                if not row.lower_bound <= d <= row.walk_moves <= row.walk_bound:
                    return f"G_{row.k}: bound chain broken {row}", 0
                if row.lower_bound != 2 * row.k * (row.k - 1):
                    return f"G_{row.k}: lower bound {row.lower_bound} is not 2k(k-1)", 0
            return None, 0

        return Op("experiment", lambda: tw.experiment_table(self.K_MAX), check, walks=True)

    def _path_op(self, k: int) -> Op:
        tw = self.tw
        inst = self.gk[k]
        g, a, b = inst.graph, inst.tree_a, inst.tree_b
        probes = [(i, i + 1) for i in range(1, 4 * k)]

        def run():
            seq = tw.shortest_tree_path(g, 0, a, b)
            return seq, tw.removal_times(seq, probes)

        def check(result):
            seq, analysis = result
            d = len(seq.moves)
            if d != self.DISTANCES[k]:
                return f"G_{k}: shortest path has {d} moves, recorded {self.DISTANCES[k]}", 0
            report = tw.verify_walk(g, 0, seq, source=a, target=b)
            if not report.ok:
                return f"G_{k}: shortest path fails verify_walk: {report.issues[0]}", 0
            walk_moves = len(tw.walk(g, 0, a, b).moves)
            if not tw.lower_bound_value(k) <= d <= walk_moves:
                return f"G_{k}: {tw.lower_bound_value(k)} <= {d} <= {walk_moves} broken", 0
            edge_sets = [t.edges() for t in seq.trees]
            expected = []
            for e in probes:
                steps = [
                    s + 1
                    for s in range(len(edge_sets) - 1)
                    if e in edge_sets[s] and e not in edge_sets[s + 1]
                ]
                expected.append(steps[0] if steps else None)
            times = [analysis.time_of(*e) for e in probes]
            if times != expected:
                return f"G_{k}: removal times {times}, recomputed {expected}", 0
            if None in times or any(x <= y for x, y in zip(times, times[1:])):
                return f"G_{k}: removal times not strictly decreasing: {times}", 0
            return None, 0

        return Op(f"path-g{k}", run, check)

    def _enumerate_op(self, inst) -> Op:
        tw = self.tw
        g = inst.graph

        def run():
            return tw.enumerate_spanning_trees(g, root=0), tw.count_spanning_trees_kirchhoff(g)

        def check(result):
            trees, count = result
            if len(trees) != count:
                return f"enumerated {len(trees)} trees, Kirchhoff counts {count}", 0
            if len({t.parents for t in trees}) != count:
                return "enumeration repeats a tree", 0
            return None, count

        return Op("enumerate", run, check, counts_work=True)

    def _kirchhoff_op(self, g, perm) -> Op:
        tw = self.tw

        def check(count):
            relabelled = tw.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            again = tw.count_spanning_trees_kirchhoff(relabelled)
            if count <= 0 or count != again:
                return f"Kirchhoff gives {count}, {again} after relabelling", 0
            return None, 0

        return Op("kirchhoff", lambda: tw.count_spanning_trees_kirchhoff(g), check)

    def _diameter_op(self, g, trees: int, pair) -> Op:
        tw = self.tw

        def check(diameter):
            d = tw.tree_distance(g, 0, *pair)
            if not d <= diameter <= 2 * g.n * (g.n - 1) or diameter < 1:
                return f"diameter {diameter} against a distance {d} (n={g.n})", 0
            return None, trees * trees

        return Op("diameter", lambda: tw.tree_graph_diameter(g, 0), check, counts_work=True)


def run_cli(cli, argv: list[str], out: Path) -> int:
    """``treewalk.cli.main`` in-process, stdout to ``out`` and stderr beside it."""
    with open(out, "w") as so, open(f"{out}.err", "w") as se:
        with redirect_stdout(so), redirect_stderr(se):
            return cli.main(argv)


class WalkFiles:
    """One walk instance on disk, plus the library's answer for the checks.

    The inputs are written beside ``stem`` unless ``inputs`` names existing
    (graph, source, target) files.
    """

    def __init__(self, tw, g, t1, t2, stem: Path, inputs: tuple[Path, Path, Path] | None = None):
        self.tw, self.g, self.t1, self.t2 = tw, g, t1, t2
        self.moves_out = Path(f"{stem}w.txt")
        self.verify_out = Path(f"{stem}v.txt")
        self.trees_out = Path(f"{stem}t.txt")
        if inputs is None:
            inputs = tuple(Path(f"{stem}{s}.txt") for s in "gab")
            for path, text in zip(inputs, (tw.format_graph(g), tw.format_tree(t1), tw.format_tree(t2))):
                path.write_text(text)
        self.graph, self.source, self.target = inputs
        self._expected = None

    def expected(self) -> tuple[str, int]:
        """The library's move stream and move count for this instance."""
        if self._expected is None:
            seq = self.tw.walk(self.g, 0, self.t1, self.t2)
            self._expected = (self.tw.format_walk_moves(seq), len(seq.moves))
        return self._expected


def walk_verify_ops(tw, cli, inst: WalkFiles, with_trees: bool) -> list[Op]:
    """CLI ``walk`` to a moves file, CLI ``verify`` of that file, optionally ``walk --format trees``."""
    walk_argv = ["walk", "--graph", str(inst.graph), "--root", "0",
                 "--from", str(inst.source), "--to", str(inst.target)]

    def check_moves(code):
        if code != 0:
            return f"walk exited {code}", 0
        if inst.moves_out.read_text() != inst.expected()[0]:
            return "CLI move stream differs from the library walk", 0
        return None, 0

    def check_verify(code):
        out = inst.verify_out.read_text()
        if code != 0 or "result: PASS" not in out.splitlines():
            return f"verify exited {code}: {out.splitlines()[-1:]}", 0
        stream, moves = inst.expected()
        if f"moves: {moves}" not in out.splitlines():
            return f"verify counted other than the library's {moves} moves", 0
        if inst.moves_out.read_text() != stream:
            return "verified stream differs from the library walk", 0
        return None, moves

    def check_trees(code):
        if code != 0:
            return f"walk --format trees exited {code}", 0
        seq = tw.walk(inst.g, 0, inst.t1, inst.t2)
        text = "\n".join(tw.format_tree(t) for t in seq.trees)
        if inst.trees_out.read_text() != text:
            return "CLI tree list differs from the library walk", 0
        return None, 0

    ops = [
        Op("cli.walk", lambda: run_cli(cli, walk_argv, inst.moves_out), check_moves,
           counts_work=True, walks=True),
        Op("cli.verify",
           lambda: run_cli(cli, ["verify", "--graph", str(inst.graph), str(inst.moves_out)],
                           inst.verify_out),
           check_verify, counts_work=True),
    ]
    if with_trees:
        ops.append(Op("cli.walk-trees",
                      lambda: run_cli(cli, walk_argv + ["--format", "trees"], inst.trees_out),
                      check_trees, walks=True))
    return ops


class CliStream:
    """``treewalk.cli.main`` in-process on files: walk, verify, gen-gk, stnum, partition."""

    SMALL_PER_ROUND = 12
    SMALL_N = (4, 64)
    TREES_EVERY = 4
    GK_KS = (2, 3, 4, 5, 6)
    BIG_N = 20_000
    BIG_POOL = 2
    POOL_ROUNDS = 8
    trace_work_as = None

    def __init__(self, tw, cli, seed: int, workdir: Path):
        self.tw, self.cli = tw, cli
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        # Every round walks one graph per size class, so the mix of sizes,
        # which sets most of the cost, is the same for every seed.
        lo, hi = self.SMALL_N
        width = (hi - lo + 1) / self.SMALL_PER_ROUND
        self.small = []
        for r in range(self.POOL_ROUNDS):
            row = []
            for i in range(self.SMALL_PER_ROUND):
                n = rng.randint(lo + int(i * width), lo + int((i + 1) * width) - 1)
                g = tw.random_biconnected_graph(n, rng)
                t1, t2 = tw.random_spanning_tree(g, 0, rng), tw.random_spanning_tree(g, 0, rng)
                inst = WalkFiles(tw, g, t1, t2, workdir / f"r{r}s{i}")
                row.append((inst, (*rng.sample(range(n), 2), rng.randint(1, n - 1))))
            self.small.append(row)
        # On the large graphs the anchors of a partition are adjacent, so it
        # always takes the direct-edge strategy.  Anchors far apart select
        # among strategies that cost one to three st-numberings, which made
        # the tail of this workload depend on the seed; the small graphs
        # above cover those strategies.
        self.big = []
        for b in range(self.BIG_POOL):
            g = tw.random_biconnected_graph(self.BIG_N, rng, extra_edges=self.BIG_N // 2)
            path = workdir / f"big{b}.txt"
            path.write_text(tw.format_graph(g))
            edges = sorted(g.edges)
            s, t = rng.choice(edges)
            u1, u2 = rng.choice(edges)
            self.big.append((g, path, (s, t), (u1, u2, rng.randint(1, g.n - 1))))

    def round_ops(self, r: int) -> list[Op]:
        tw, cli = self.tw, self.cli
        ops = []
        for i, (inst, part) in enumerate(self.small[r % self.POOL_ROUNDS]):
            ops += walk_verify_ops(tw, cli, inst, with_trees=i % self.TREES_EVERY == 0)
            ops.append(self._partition_op(inst.g, inst.graph, *part, Path(f"{inst.graph}.part")))
        ops += self._gen_gk_ops(self.GK_KS[r % len(self.GK_KS)], r)
        g, path, st, part = self.big[r % self.BIG_POOL]
        ops.append(self._stnum_op(g, path, *st, self.workdir / f"stnum{r}.txt"))
        ops.append(self._partition_op(g, path, *part, self.workdir / f"part{r}.txt"))
        return ops

    def _gen_gk_ops(self, k: int, r: int) -> list[Op]:
        tw, cli = self.tw, self.cli
        out_dir = self.workdir / f"gk{r}"
        inst = tw.make_gk(k)
        files = WalkFiles(
            tw, inst.graph, inst.tree_a, inst.tree_b, out_dir / "walk-",
            inputs=(out_dir / "graph.txt", out_dir / "tree_a.txt", out_dir / "tree_b.txt"),
        )

        def check(code):
            if code != 0:
                return f"gen-gk exited {code}", 0
            got = (tw.parse_graph(files.graph.read_text()),
                   tw.parse_tree(files.source.read_text()),
                   tw.parse_tree(files.target.read_text()))
            if got != (inst.graph, inst.tree_a, inst.tree_b):
                return f"gen-gk files differ from make_gk({k})", 0
            return None, 0

        out_dir.mkdir(parents=True, exist_ok=True)
        gen = Op("cli.gen-gk",
                 lambda: run_cli(cli, ["gen-gk", "--k", str(k), "--out-dir", str(out_dir)],
                                 self.workdir / f"gen{r}.txt"),
                 check)
        return [gen] + walk_verify_ops(tw, cli, files, with_trees=False)

    def _stnum_op(self, g, path: Path, s: int, t: int, out: Path) -> Op:
        tw, cli = self.tw, self.cli

        def check(code):
            if code != 0:
                return f"stnum exited {code}", 0
            order = tuple(int(x) for x in out.read_text().split())
            if not tw.validate_st_numbering(g, tw.STNumbering(order), s, t):
                return f"stnum output is not an st-numbering for ({s}, {t})", 0
            return None, 0

        argv = ["stnum", "--graph", str(path), str(s), str(t)]
        return Op("cli.stnum", lambda: run_cli(cli, argv, out), check)

    def _partition_op(self, g, path: Path, u1: int, u2: int, n1: int, out: Path) -> Op:
        tw, cli = self.tw, self.cli

        def check(code):
            if code != 0:
                return f"partition exited {code}", 0
            lines = out.read_text().splitlines()
            if len(lines) != 2:
                return f"partition printed {len(lines)} lines", 0
            v1, v2 = ({int(x) for x in line.split()} for line in lines)
            problem = tw.validate_partition2(g, v1, v2, u1, u2, n1)
            if problem is not None:
                return f"partition invalid: {problem}", 0
            return None, 0

        argv = ["partition", "--graph", str(path), "--u1", str(u1), "--u2", str(u2),
                "--n1", str(n1)]
        return Op("cli.partition", lambda: run_cli(cli, argv, out), check)


WORKLOADS = {
    "walk-verify": WalkVerify,
    "oracle-gk": OracleGK,
    "cli-stream": CliStream,
}
