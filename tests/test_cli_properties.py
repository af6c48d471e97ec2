"""Generative checks that the CLI maps any input to a documented exit code.

Each example writes mutated graph, tree and walk texts to files and runs one
subcommand on them with drawn arguments.  ``main`` must return 0, 1, 2 or 3
and print no traceback: an input it cannot handle is an error message and a
code, never an exception.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from treewalk import (  # noqa: E402
    Graph,
    format_graph,
    format_tree,
    format_walk_moves,
    tree_from_edges,
    walk,
)
from treewalk.cli import main  # noqa: E402

# A 4-cycle with one chord, two of its spanning trees and a walk between them.
GRAPH = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
TREE_A = tree_from_edges(4, [(0, 1), (1, 2), (2, 3)], root=0)
TREE_B = tree_from_edges(4, [(0, 3), (0, 2), (0, 1)], root=0)
TEXTS = {
    "graph": format_graph(GRAPH),
    "a": format_tree(TREE_A),
    "b": format_tree(TREE_B),
    "walk": format_walk_moves(walk(GRAPH, 0, TREE_A, TREE_B)),
}

TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["", "x", "-", "1.5", "0x1", "1_0", "99999999999", "-99999999999", "+2", "-0",
                     "\u0663", "1e3", "nan"]),
)
# Python's int() and str.split() also accept some of these: "_" inside a
# number, other whitespace, non-ASCII digits.
CHARS = st.sampled_from(list(" \t\n\r\x0b\x0c\x1c\xa0#-_0123456789x\u0663"))


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` after one to three edits of its tokens, lines or characters."""
    for _ in range(draw(st.integers(1, 3))):
        lines = text.split("\n")
        kind = draw(st.sampled_from(["token", "drop", "repeat", "insert", "cut", "char"]))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "token":
            fields = lines[i].split(" ")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(TOKENS)
            lines[i] = " ".join(fields)
        elif kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "insert":
            lines.insert(i, " ".join(draw(st.lists(TOKENS, max_size=4))))
        if kind in ("token", "drop", "repeat", "insert"):
            text = "\n".join(lines)
        else:
            at = draw(st.integers(0, len(text)))
            text = text[:at] if kind == "cut" else text[:at] + draw(CHARS) + text[at:]
    return text


def _argv(command: str, draw, tmp) -> list[str]:
    """Arguments for ``command`` over the files in ``tmp``, with drawn numbers."""
    g, a, b, w = (str(tmp / name) for name in ("graph", "a", "b", "walk"))
    num = lambda: draw(st.one_of(st.integers(0, 3).map(str), TOKENS))  # noqa: E731
    cap = ["--cap", draw(st.sampled_from(["-1", "0", "3", "50", "10000", "x"]))]
    if command == "stnum":
        return ["stnum", "--graph", g, num(), num()]
    if command == "walk":
        fmt = draw(st.sampled_from([[], ["--format", "trees"]]))
        return ["walk", "--graph", g, "--root", num(), "--from", a, "--to", b, *fmt]
    if command == "verify":
        ends = draw(st.sampled_from([[], ["--from", a], ["--from", a, "--to", b]]))
        return ["verify", "--graph", g, w, *ends]
    if command == "distance":
        path = draw(st.sampled_from([[], ["--path", str(tmp / "path")]]))
        return ["oracle", "distance", "--graph", g, "--root", num(), "--from", a, "--to", b,
                *path, *cap]
    if command == "diameter":
        return ["oracle", "diameter", "--graph", g, "--root", num(), *cap]
    if command == "count":
        return ["oracle", "count", "--graph", g, *cap]
    if command == "partition":
        return ["partition", "--graph", g, "--u1", num(), "--u2", num(), "--n1", num()]
    if command == "gen-gk":
        k = draw(st.sampled_from(["-1", "0", "1", "2", "10001", "x"]))
        return ["gen-gk", "--k", k, "--out-dir", str(tmp / "gk")]
    if command == "lower-bound":
        return ["lower-bound", "--k", num()]
    kmax = draw(st.sampled_from(["-1", "0", "1", "3", "x"]))
    return ["experiment", "--kmax", kmax, *cap, *draw(st.sampled_from([[], ["--json"]]))]


COMMANDS = ["stnum", "walk", "verify", "distance", "diameter", "count", "partition",
            "gen-gk", "lower-bound", "experiment"]


@pytest.mark.parametrize("command", COMMANDS)
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_input_gets_a_documented_exit_code(command, data, tmp_path, capsys):
    for name, text in TEXTS.items():
        keep = data.draw(st.integers(0, 3), label=f"keep {name}") > 0
        (tmp_path / name).write_text(text if keep else data.draw(mutated(text), label=name))
    argv = _argv(command, data.draw, tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in captured.err
    if code:
        assert captured.err.startswith(("error: ", "ERROR cap-exceeded")) or "result: FAIL" in (
            captured.out
        ), (argv, captured)
