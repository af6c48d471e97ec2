"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 state cap
exceeded.  The oracle and experiment commands take --cap, 10 million by
default.  For a distance the cap bounds the trees the search holds at once,
for a path the trees it has stored, and for a count or a diameter the trees
enumerated; experiment leaves the distance of a row that hits the cap empty.

The argument parser is built once per process, on the first call of main,
and every later call reuses it.  While a command runs, main pauses the
cyclic garbage collector, which finds no cycles in the commands' data yet
took about a sixth of stnum or partition on a 20,000-vertex graph; it is
back on, if it was on, however the command ends.  Reference cycles that
other threads make meanwhile wait until the command returns.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from pathlib import Path

from .connectivity import st_numbering
from .experiment import experiment_table
from .graph import format_graph, format_tree, parse_graph, parse_tree
from .lowerbound import lower_bound_value, make_gk
from .oracle import (
    DEFAULT_CAP,
    CapExceededError,
    TreeGraphDisconnectedError,
    _spanning_trees,
    count_spanning_trees_kirchhoff,
    shortest_tree_path,
    tree_distance,
    tree_graph_diameter,
)
from .partition import partition2_with_strategy
from .walk import format_walk_moves, format_walk_trees, parse_walk_moves, verify_walk, walk

GEN_K_LIMIT = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for validation
        raise _UsageError(message)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _cmd_stnum(args) -> int:
    g = parse_graph(_read(args.graph))
    num = st_numbering(g, args.s, args.t)
    print(" ".join(map(str, num.order)))
    return 0


def _cmd_walk(args) -> int:
    g = parse_graph(_read(args.graph))
    t = parse_tree(_read(args.from_tree))
    t_prime = parse_tree(_read(args.to_tree))
    seq = walk(g, args.root, t, t_prime)
    if args.format == "moves":
        sys.stdout.write(format_walk_moves(seq))
    else:
        write = sys.stdout.write
        texts = format_walk_trees(seq)
        write(next(texts))
        for text in texts:  # a blank line between trees, each written as it comes
            write("\n" + text)
    return 0


def _cmd_verify(args) -> int:
    g = parse_graph(_read(args.graph))
    seq = parse_walk_moves(_read(args.walk))
    source = parse_tree(_read(args.from_tree)) if args.from_tree else None
    target = parse_tree(_read(args.to_tree)) if args.to_tree else None
    report = verify_walk(g, seq.source.root, seq, source=source, target=target)
    print(report.summary())
    return 0 if report.ok else 2


def _cmd_gen_gk(args) -> int:
    if not 1 <= args.k <= GEN_K_LIMIT:
        raise ValueError(f"--k must be in [1, {GEN_K_LIMIT}]")
    inst = make_gk(args.k)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in (
        ("graph.txt", format_graph(inst.graph)),
        ("tree_a.txt", format_tree(inst.tree_a)),
        ("tree_b.txt", format_tree(inst.tree_b)),
    ):
        (out / name).write_text(text)
        print(out / name)
    return 0


def _cmd_lower_bound(args) -> int:
    print(lower_bound_value(args.k))
    return 0


def _cmd_oracle_distance(args) -> int:
    g = parse_graph(_read(args.graph))
    t = parse_tree(_read(args.from_tree))
    t_prime = parse_tree(_read(args.to_tree))
    if args.path:
        seq = shortest_tree_path(g, args.root, t, t_prime, cap=args.cap)
        Path(args.path).write_text(format_walk_moves(seq))
        print(len(seq.moves))
    else:
        print(tree_distance(g, args.root, t, t_prime, cap=args.cap))
    return 0


def _cmd_oracle_diameter(args) -> int:
    g = parse_graph(_read(args.graph))
    print(tree_graph_diameter(g, args.root, cap=args.cap))
    return 0


def _cmd_oracle_count(args) -> int:
    g = parse_graph(_read(args.graph))
    enumerated = sum(1 for _ in _spanning_trees(g, 0, args.cap))  # holds one tree at a time
    print(f"{enumerated} {count_spanning_trees_kirchhoff(g)}")
    return 0


def _cmd_partition(args) -> int:
    g = parse_graph(_read(args.graph))
    v1, v2, strategy = partition2_with_strategy(g, args.u1, args.u2, args.n1)
    print("strategy:", strategy, file=sys.stderr)
    print(" ".join(map(str, sorted(v1))))
    print(" ".join(map(str, sorted(v2))))
    return 0


def _cmd_experiment(args) -> int:
    rows = experiment_table(args.kmax, cap=args.cap)
    if args.json:
        for row in rows:
            print(json.dumps(row.__dict__))
    else:
        print("k\tn\tlower_bound\toracle_distance\twalk_moves\twalk_bound")
        for row in rows:
            distance = "-" if row.oracle_distance is None else row.oracle_distance
            print(f"{row.k}\t{row.n}\t{row.lower_bound}\t{distance}\t{row.walk_moves}\t{row.walk_bound}")
    return 0


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> _Parser:
    # --help shows the docstring without its last paragraph, which is about the code.
    parser = _Parser(prog="treewalk", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stnum", help="print an st-numbering as one line of vertex ids")
    p.add_argument("--graph", required=True)
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)
    p.set_defaults(func=_cmd_stnum)

    p = sub.add_parser("walk", help="construct a leaf-move walk between two spanning trees")
    p.add_argument("--graph", required=True)
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--from", dest="from_tree", required=True, metavar="TREE")
    p.add_argument("--to", dest="to_tree", required=True, metavar="TREE")
    p.add_argument("--format", choices=("moves", "trees"), default="moves")
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("verify", help="re-check a walk given as a moves stream")
    p.add_argument("--graph", required=True)
    p.add_argument("walk", help="moves-format file, or - for stdin")
    p.add_argument("--from", dest="from_tree", metavar="TREE", help="declared first tree")
    p.add_argument("--to", dest="to_tree", metavar="TREE", help="declared last tree")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen-gk", help="write the k-th lower-bound instance to a directory")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_gen_gk)

    p = sub.add_parser("lower-bound", help="print the walk-length lower bound 2k(k-1)")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_lower_bound)

    oracle = sub.add_parser("oracle", help="exhaustive BFS / enumeration tools")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("distance", help="exact leaf-move distance between two trees")
    p.add_argument("--graph", required=True)
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--from", dest="from_tree", required=True, metavar="TREE")
    p.add_argument("--to", dest="to_tree", required=True, metavar="TREE")
    p.add_argument("--path", help="also write one shortest walk to this file")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_oracle_distance)

    p = osub.add_parser("diameter", help="largest pairwise distance over all spanning trees")
    p.add_argument("--graph", required=True)
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_oracle_diameter)

    p = osub.add_parser("count", help="print enumerated and determinant tree counts")
    p.add_argument("--graph", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_oracle_count)

    p = sub.add_parser("partition", help="connected two-part partition with anchors and size")
    p.add_argument("--graph", required=True)
    p.add_argument("--u1", type=int, required=True)
    p.add_argument("--u2", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("experiment", help="tabulate bound, oracle, and walk lengths per k")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "cap", 0) < 0:
            raise ValueError(f"--cap must be non-negative, got {args.cap}")
        return args.func(args)
    except (_UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceededError:
        print("ERROR cap-exceeded", file=sys.stderr)
        return 3
    except (TreeGraphDisconnectedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
