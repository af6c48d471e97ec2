from __future__ import annotations

import gc
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import pytest

from treewalk import (
    format_graph,
    format_tree,
    format_walk_moves,
    make_gk,
    parse_graph,
    parse_tree,
    parse_walk_moves,
    random_biconnected_graph,
    random_spanning_tree,
    tree_from_edges,
    verify_walk,
    walk,
)
import treewalk.cli
from treewalk.cli import main

import graphs

TRI_TEXT = format_graph(graphs.TRIANGLE)
STAR = tree_from_edges(3, [(0, 1), (0, 2)], root=0)
PATH = tree_from_edges(3, [(0, 1), (1, 2)], root=0)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _tampered_walk_text() -> str:
    """The triangle's STAR-to-PATH walk with its first move repeated at the end."""
    seq = walk(graphs.TRIANGLE, 0, STAR, PATH)
    first = seq.moves[0]
    return format_walk_moves(seq) + f"{first.vertex} {first.old_parent} {first.new_parent}\n"


@contextmanager
def _collector(on: bool):
    """The cyclic garbage collector switched on or off for the block, then as it was."""
    was_on = gc.isenabled()
    if on:
        gc.enable()
    else:
        gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()
        else:
            gc.disable()


def test_stnum(tmp_path, capsys):
    g = _write(tmp_path, "g.txt", TRI_TEXT)
    assert main(["stnum", "--graph", g, "0", "1"]) == 0
    assert capsys.readouterr().out == "0 2 1\n"


def test_stnum_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(TRI_TEXT))
    assert main(["stnum", "--graph", "-", "0", "1"]) == 0
    assert capsys.readouterr().out == "0 2 1\n"


def test_walk_then_verify_round_trip(tmp_path, capsys):
    g = _write(tmp_path, "g.txt", TRI_TEXT)
    a = _write(tmp_path, "a.txt", format_tree(STAR))
    b = _write(tmp_path, "b.txt", format_tree(PATH))
    assert main(["walk", "--graph", g, "--root", "0", "--from", a, "--to", b]) == 0
    moves_text = capsys.readouterr().out
    w = _write(tmp_path, "w.txt", moves_text)
    assert main(["verify", "--graph", g, w]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("result: PASS")


def test_verify_checks_declared_endpoints(tmp_path, capsys):
    g = _write(tmp_path, "g.txt", TRI_TEXT)
    a = _write(tmp_path, "a.txt", format_tree(STAR))
    b = _write(tmp_path, "b.txt", format_tree(PATH))
    w = _write(tmp_path, "w.txt", format_walk_moves(walk(graphs.TRIANGLE, 0, STAR, PATH)))
    assert main(["verify", "--graph", g, w]) == 0
    plain = capsys.readouterr().out
    assert plain == "trees: 4\nmoves: 3\nresult: PASS\n"
    assert main(["verify", "--graph", g, w, "--from", a, "--to", b]) == 0
    assert capsys.readouterr().out == (
        "trees: 4\nmoves: 3\nsource endpoint: ok\ntarget endpoint: ok\nresult: PASS\n"
    )
    assert main(["verify", "--graph", g, w, "--to", b]) == 0
    assert capsys.readouterr().out == "trees: 4\nmoves: 3\ntarget endpoint: ok\nresult: PASS\n"
    # the endpoints swapped: both mismatch, and the walk fails
    assert main(["verify", "--graph", g, w, "--from", b, "--to", a]) == 2
    assert capsys.readouterr().out == (
        "trees: 4\nmoves: 3\nsource endpoint: MISMATCH\ntarget endpoint: MISMATCH\n"
        "endpoint mismatch: first tree differs from declared source\n"
        "endpoint mismatch: last tree differs from declared target\n"
        "result: FAIL\n"
    )


def test_walk_tree_format(tmp_path, capsys):
    g = _write(tmp_path, "g.txt", TRI_TEXT)
    a = _write(tmp_path, "a.txt", format_tree(STAR))
    b = _write(tmp_path, "b.txt", format_tree(PATH))
    assert main(["walk", "--graph", g, "--root", "0", "--from", a, "--to", b,
                 "--format", "trees"]) == 0
    seq = walk(graphs.TRIANGLE, 0, STAR, PATH)
    assert capsys.readouterr().out == "\n".join(format_tree(t) for t in seq.trees)


def test_walk_tree_format_streams_in_less_memory_than_its_text(tmp_path):
    # The trees are written as they are formatted, so the peak stays below
    # the text; holding the whole text, as one join does, would exceed it.
    rng = random.Random(64)
    g = random_biconnected_graph(64, rng)
    t1, t2 = random_spanning_tree(g, 0, rng), random_spanning_tree(g, 0, rng)
    files = [_write(tmp_path, name, text) for name, text in
             (("g.txt", format_graph(g)), ("a.txt", format_tree(t1)), ("b.txt", format_tree(t2)))]
    argv = ["walk", "--graph", files[0], "--root", "0", "--from", files[1], "--to", files[2],
            "--format", "trees"]
    out = tmp_path / "trees.txt"
    with open(out, "w") as stream, redirect_stdout(stream):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    text = out.read_text()
    assert text == "\n".join(format_tree(t) for t in walk(g, 0, t1, t2).trees)
    assert peak < len(text)


def test_verify_flags_tampered_walk(tmp_path, capsys):
    g = _write(tmp_path, "g.txt", TRI_TEXT)
    w = _write(tmp_path, "w.txt", _tampered_walk_text())
    assert main(["verify", "--graph", g, w]) == 2
    assert "result: FAIL" in capsys.readouterr().out


def test_verify_caps_printed_issues(tmp_path, capsys):
    # 50 moves of leaf 2 that each name a stale old parent: 50 issues.
    g = _write(tmp_path, "g.txt", TRI_TEXT)
    w = _write(tmp_path, "w.txt", format_tree(STAR) + "2 1 0\n" * 50)
    assert main(["verify", "--graph", g, w]) == 2
    lines = capsys.readouterr().out.splitlines()
    issues = [line for line in lines if line.startswith("step ")]
    assert issues == [f"step {i}: move old parent disagrees with tree" for i in range(20)]
    assert lines[-2:] == ["... and 30 more issues", "result: FAIL"]
    report = verify_walk(graphs.TRIANGLE, 0, parse_walk_moves((tmp_path / "w.txt").read_text()))
    assert len(report.issues) == 50


def test_gen_gk_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "inst"
    assert main(["gen-gk", "--k", "2", "--out-dir", str(out_dir)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    inst = make_gk(2)
    assert parse_graph((out_dir / "graph.txt").read_text()) == inst.graph
    assert parse_tree((out_dir / "tree_a.txt").read_text()) == inst.tree_a
    assert parse_tree((out_dir / "tree_b.txt").read_text()) == inst.tree_b


def test_gen_gk_rejects_huge_k(tmp_path, capsys):
    assert main(["gen-gk", "--k", "99999", "--out-dir", str(tmp_path / "inst")]) == 2
    assert capsys.readouterr().err == "error: --k must be in [1, 10000]\n"
    assert not (tmp_path / "inst").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen-gk", "--k", "0", "--out-dir", "inst"], "--k must be in [1, 10000]"),
        (["lower-bound", "--k", "-3"], "k must be positive, got -3"),
        (["experiment", "--kmax", "0"], "k_max must be positive, got 0"),
        (["oracle", "count", "--graph", "g.txt", "--cap", "-1"], "--cap must be non-negative, got -1"),
        (["oracle", "diameter", "--graph", "g.txt", "--root", "0", "--cap", "-1"],
         "--cap must be non-negative, got -1"),
        (["oracle", "distance", "--graph", "g.txt", "--root", "0", "--from", "a.txt", "--to", "b.txt",
          "--cap", "-1"], "--cap must be non-negative, got -1"),
        (["experiment", "--kmax", "2", "--cap", "-1"], "--cap must be non-negative, got -1"),
    ],
)
def test_a_number_the_command_rejects_is_a_validation_failure(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in (("g.txt", TRI_TEXT), ("a.txt", format_tree(STAR)), ("b.txt", format_tree(PATH))):
        _write(tmp_path, name, text)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "inst").exists()


def test_lower_bound(capsys):
    assert main(["lower-bound", "--k", "3"]) == 0
    assert capsys.readouterr().out == "12\n"


def test_oracle_distance_and_path(tmp_path, capsys):
    g = _write(tmp_path, "g.txt", TRI_TEXT)
    a = _write(tmp_path, "a.txt", format_tree(STAR))
    b = _write(tmp_path, "b.txt", format_tree(PATH))
    assert main(["oracle", "distance", "--graph", g, "--root", "0",
                 "--from", a, "--to", b]) == 0
    assert capsys.readouterr().out == "1\n"
    path_file = tmp_path / "shortest.txt"
    assert main(["oracle", "distance", "--graph", g, "--root", "0",
                 "--from", a, "--to", b, "--path", str(path_file)]) == 0
    seq = parse_walk_moves(path_file.read_text())
    assert verify_walk(graphs.TRIANGLE, 0, seq, source=STAR, target=PATH).ok


def test_oracle_diameter(tmp_path, capsys):
    g = _write(tmp_path, "g.txt", TRI_TEXT)
    assert main(["oracle", "diameter", "--graph", g, "--root", "0"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_oracle_diameter_root_out_of_range(tmp_path, capsys):
    g = _write(tmp_path, "g.txt", TRI_TEXT)
    for root in ("99", "-1"):
        assert main(["oracle", "diameter", "--graph", g, "--root", root]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: root {root} out of range for 3 vertices\n"


def test_oracle_count(tmp_path, capsys):
    g = _write(tmp_path, "g.txt", TRI_TEXT)
    assert main(["oracle", "count", "--graph", g]) == 0
    assert capsys.readouterr().out == "3 3\n"


def test_oracle_count_holds_one_tree_at_a_time(tmp_path, capsys):
    # Holding all 29,681 trees of G_4 at once takes about 8 MB.
    g = _write(tmp_path, "g.txt", format_graph(make_gk(4).graph))
    tracemalloc.start()
    try:
        assert main(["oracle", "count", "--graph", g]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "29681 29681\n"
    assert peak < 1_000_000


def test_oracle_count_refuses_a_graph_past_the_cap_before_enumerating(tmp_path, capsys):
    # G_7 has 80,198,051 trees: enumerating the first 10M of them would take minutes.
    g = _write(tmp_path, "g.txt", format_graph(make_gk(7).graph))
    start = time.perf_counter()
    assert main(["oracle", "count", "--graph", g]) == 3
    assert time.perf_counter() - start < 1.0
    assert "ERROR cap-exceeded" in capsys.readouterr().err


def test_oracle_diameter_of_a_disconnected_graph(tmp_path, capsys):
    g = _write(tmp_path, "g.txt", "4 2\n0 1\n2 3\n")
    for root, message in (
        ("0", "graph is disconnected: it has no spanning tree"),
        ("99", "root 99 out of range for 4 vertices"),
    ):
        assert main(["oracle", "diameter", "--graph", g, "--root", root]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_cap_flag_exceeded(tmp_path, capsys):
    g = _write(tmp_path, "g.txt", format_graph(graphs.K5))
    assert main(["oracle", "count", "--graph", g, "--cap", "10"]) == 3
    assert "ERROR cap-exceeded" in capsys.readouterr().err


def test_partition_output(tmp_path, capsys):
    g = _write(tmp_path, "g.txt", TRI_TEXT)
    assert main(["partition", "--graph", g, "--u1", "0", "--u2", "1", "--n1", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "0\n1 2\n"
    assert "strategy: direct-edge" in captured.err


def test_experiment_table(capsys):
    assert main(["experiment", "--kmax", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t") == ["k", "n", "lower_bound", "oracle_distance",
                                    "walk_moves", "walk_bound"]
    assert len(lines) == 3
    assert lines[1].split("\t")[0] == "1"


def test_experiment_json(capsys):
    assert main(["experiment", "--kmax", "2", "--json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 2
    assert set(rows[0]) == {"k", "n", "lower_bound", "oracle_distance",
                            "walk_moves", "walk_bound"}


def test_usage_errors(capsys):
    assert main([]) == 1
    assert main(["walk", "--graph", "g.txt"]) == 1
    capsys.readouterr()


def _session(argvs, capsys):
    """(exit code, stdout, stderr, collector on) of each command run in turn.

    A RuntimeError that escapes main stands in for its exit code as its repr.
    """
    out = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:  # --help exits from inside argparse
            code = exc.code
        except RuntimeError as exc:
            code = repr(exc)
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err, gc.isenabled()))
    return out


def test_the_shared_parser_answers_as_fresh_ones_do(tmp_path, capsys, monkeypatch):
    g = _write(tmp_path, "g.txt", TRI_TEXT)
    a = _write(tmp_path, "a.txt", format_tree(STAR))
    b = _write(tmp_path, "b.txt", format_tree(PATH))
    walk_argv = ["walk", "--graph", g, "--root", "0", "--from", a, "--to", b]
    argvs = [
        ["lower-bound", "--k", "x"],
        ["lower-bound", "--k", "-3"],
        walk_argv + ["--format", "trees"],
        walk_argv,  # the default format again, not the one before
        ["--help"],
        ["oracle", "distance", "--help"],
    ]
    shared = _session(argvs, capsys)
    assert [code for code, _, _, _ in shared] == [1, 2, 0, 0, 0, 0]
    seq = walk(graphs.TRIANGLE, 0, STAR, PATH)
    assert shared[3][1] == format_walk_moves(seq)
    assert shared[4][1].startswith("usage: treewalk ")
    fresh = treewalk.cli._build_parser.__wrapped__
    monkeypatch.setattr(treewalk.cli, "_build_parser", lambda: fresh())
    assert _session(argvs, capsys) == shared


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_main_leaves_the_collector_as_it_found_it(collecting, tmp_path, capsys, monkeypatch):
    g = _write(tmp_path, "g.txt", TRI_TEXT)
    k5 = _write(tmp_path, "k5.txt", format_graph(graphs.K5))
    argvs = [
        ["lower-bound", "--k", "2"],
        ["walk", "--graph", g],
        ["lower-bound", "--k", "-3"],
        ["oracle", "count", "--graph", k5, "--cap", "10"],
        ["--help"],
        ["stnum", "--graph", g, "0", "1"],
    ]

    def fail(*args):
        raise RuntimeError("st_numbering failed")

    monkeypatch.setattr(treewalk.cli, "st_numbering", fail)
    with _collector(collecting):
        got = _session(argvs, capsys)
    assert [(code, on) for code, _, _, on in got] == [
        (0, collecting), (1, collecting), (2, collecting), (3, collecting), (0, collecting),
        ("RuntimeError('st_numbering failed')", collecting),
    ]


def test_importing_the_cli_builds_no_parser():
    src = str(Path(treewalk.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import treewalk, treewalk.cli; print(treewalk.cli._build_parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    assert out == "0\n"


def test_missing_file_is_reported(capsys):
    assert main(["stnum", "--graph", "/no/such/file", "0", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_validation_errors(tmp_path, capsys):
    bad = _write(tmp_path, "bad.txt", "3 3\n0 1\n1 2\n")
    assert main(["stnum", "--graph", bad, "0", "1"]) == 2
    path_graph = _write(tmp_path, "p.txt", format_graph(graphs.PATH3))
    assert main(["stnum", "--graph", path_graph, "0", "2"]) == 2
    capsys.readouterr()


def test_a_header_beyond_its_edges_is_a_validation_error(tmp_path, capsys):
    huge = _write(tmp_path, "huge.txt", "20000000 0\n")
    assert main(["stnum", "--graph", huge, "0", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: 20000000 vertices exceed 2m + 2 for m = 0\n"


def test_oracle_distance_disconnected_tree_graph(tmp_path, capsys):
    # In the bowtie the path 0-1-2-3-4 has one leaf, 4, and 4 has no other
    # neighbor, so no leaf move leaves that tree.
    g = _write(tmp_path, "g.txt", "5 5\n0 1\n1 2\n2 0\n2 3\n3 4\n")
    a = _write(tmp_path, "a.txt", "5 0\n1 0\n2 1\n3 2\n4 3\n")
    b = _write(tmp_path, "b.txt", "5 0\n1 0\n2 0\n3 2\n4 3\n")
    assert main(["oracle", "distance", "--graph", g, "--root", "0",
                 "--from", a, "--to", b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no leaf-move path found after exploring 1 trees\n"
    # The other way round, the side from b runs out after b and its one
    # neighbor, before the side from a is expanded.
    assert main(["oracle", "distance", "--graph", g, "--root", "0",
                 "--from", b, "--to", a]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no leaf-move path found after exploring 2 trees\n"


def _readme_transcript() -> list[tuple[list[str], list[str]]]:
    """(argv, expected output lines) for each ``$ treewalk`` command in the README's Command line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("$ treewalk "):
            commands.append((shlex.split(line[len("$ treewalk "):]), []))
        elif line:
            commands[-1][1].append(line)
    return commands


def _run_redirected(argv, capsys) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of main(argv), with a trailing ``> FILE`` done as a shell would."""
    redirect = argv.index(">") if ">" in argv else None
    code = main(argv[:redirect])
    out, err = capsys.readouterr()
    if redirect is not None:
        Path(argv[redirect + 1]).write_text(out)
        out = ""
    return code, out, err


def test_readme_command_line_transcript(tmp_path, monkeypatch, capsys):
    # The README shows spaces where experiment prints tabs, so lines are
    # compared field by field.  partition reports its strategy on stderr.
    monkeypatch.chdir(tmp_path)
    transcript = _readme_transcript()
    assert len(transcript) == 8
    for argv, expected in transcript:
        code, out, err = _run_redirected(argv, capsys)
        assert code == 0, argv
        got = err.splitlines() + out.splitlines()
        assert [line.split() for line in got] == [line.split() for line in expected], argv


def test_commands_leave_no_cyclic_garbage(tmp_path, monkeypatch, capsys):
    # main pauses the collector because the commands build no reference
    # cycles; a command that made a cycle per step would hold them all until
    # it returned.  The collector stays off here, so each gc.collect() finds
    # exactly what one command left behind.
    monkeypatch.chdir(tmp_path)
    g = _write(tmp_path, "g.txt", TRI_TEXT)
    tampered = _write(tmp_path, "tampered.txt", _tampered_walk_text())
    k5 = _write(tmp_path, "k5.txt", format_graph(graphs.K5))
    rng = random.Random(23)
    big_graph = random_biconnected_graph(2000, rng, extra_edges=1000)
    big = _write(tmp_path, "big.txt", format_graph(big_graph))
    s, t = rng.choice(sorted(big_graph.edges))
    u1, u2 = rng.sample(range(big_graph.n), 2)
    commands = [(argv, 0) for argv, _ in _readme_transcript()] + [
        (["verify", "--graph", g, tampered], 2),
        (["oracle", "count", "--graph", k5, "--cap", "5"], 3),
        (["stnum", "--graph", big, str(s), str(t)], 0),
        (["partition", "--graph", big, "--u1", str(u1), "--u2", str(u2), "--n1", "700"], 0),
    ]
    with _collector(False):
        for argv, _ in commands:  # the warm-up: imports, the parser, caches
            _run_redirected(argv, capsys)
        gc.collect()
        for argv, expected_code in commands:
            assert _run_redirected(argv, capsys)[0] == expected_code, argv
            assert gc.collect() <= 20, argv
