"""The CLI's argument parsing, pinned: the exact stdout, stderr and exit code
of its usage paths, and the bytes of a run of `realize --method numeric |
verify` pipes."""

import contextlib
import hashlib
import io
import json
import os
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udgraph.cli import _build_parser, _parse_args, main

_TOP_USAGE = "usage: udgraph [-h] {gen,realize,verify,audit,census,bound,ramsey,plot} ...\n"
_CHOICES = "'gen', 'realize', 'verify', 'audit', 'census', 'bound', 'ramsey', 'plot'"
_REALIZE_USAGE = (
    "usage: udgraph realize [-h] [--graph GRAPH] [--dim DIM] --method\n"
    "                       {colorable,bipartite,numeric} [--seed SEED] [-o OUTPUT]\n"
)
_TOP_HELP = _TOP_USAGE + """
Command line entry point.

positional arguments:
  {gen,realize,verify,audit,census,bound,ramsey,plot}
    gen                 generate a named graph family as JSON
    realize             construct or search for an embedding
    verify              check an embedding against a graph
    audit               certified dimension audit for a bipartite graph
    census              count realizable labelled graphs
    bound               counting bounds
    ramsey              counting lower bound on the faithful Ramsey number
    plot                render an embedding to SVG

options:
  -h, --help            show this help message and exit
"""
_VERIFY_HELP = """\
usage: udgraph verify [-h] [--graph GRAPH] [--embedding EMBEDDING]
                      [--mode {faithful,distance}] [--tol TOL]

options:
  -h, --help            show this help message and exit
  --graph GRAPH
  --embedding EMBEDDING
  --mode {faithful,distance}
  --tol TOL
"""

# argv: (exit code, stdout, stderr), at an 80-column terminal
_USAGE_PATHS = {
    "unknown-option": (
        ["realize", "--method", "numeric", "--dim", "2", "--bogus"],
        (2, "", _TOP_USAGE + "udgraph: error: unrecognized arguments: --bogus\n")),
    "removed-option-with-value": (
        ["census", "--n", "3", "--dim", "1", "--jobs", "2"],
        (2, "", _TOP_USAGE + "udgraph: error: unrecognized arguments: --jobs 2\n")),
    "invalid-choice": (
        ["realize", "--method", "bogus"],
        (2, "", _REALIZE_USAGE + "udgraph realize: error: argument --method: invalid choice: "
                                 "'bogus' (choose from 'colorable', 'bipartite', 'numeric')\n")),
    "abbreviated-command": (
        ["real"],
        (2, "", _TOP_USAGE + f"udgraph: error: argument command: invalid choice: 'real' "
                             f"(choose from {_CHOICES})\n")),
    "no-arguments": (
        [],
        (2, "", _TOP_USAGE + "udgraph: error: the following arguments are required: command\n")),
    "top-help": (["--help"], (0, _TOP_HELP, "")),
    "command-help": (["verify", "-h"], (0, _VERIFY_HELP, "")),
    "double-dash-after-command": (
        ["verify", "--", "extra"],
        (2, "", _TOP_USAGE + "udgraph: error: unrecognized arguments: -- extra\n")),
    "double-dash-first": (
        ["--", "verify"],
        (2, "", _TOP_USAGE + f"udgraph: error: argument command: invalid choice: '--' "
                             f"(choose from {_CHOICES})\n")),
    "double-dash-before-a-value": (
        ["gen", "complete", "--", "-3"],
        (2, "", "udgraph: error: n must be nonnegative\n")),
}


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits on usage errors and on --help
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv, expected", _USAGE_PATHS.values(), ids=_USAGE_PATHS)
def test_usage_paths_are_pinned(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 2, "edges": [[0, 1]]}'))
    assert _outcome(capsys, argv) == expected


@pytest.mark.parametrize("argv", [["gen", "complete", "3"],
                                  _USAGE_PATHS["unknown-option"][0]], ids=["gen", "usage-error"])
def test_default_argv_is_read_from_sys_argv(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _outcome(capsys, argv)
    monkeypatch.setattr("sys.argv", ["udgraph", *argv])
    assert _outcome(capsys, None) == expected


def _parsed(parse, argv):
    """(namespace without its command name or the exit code, stdout, stderr)
    of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parse(argv))
            args.pop("command", None)
        except SystemExit as exc:
            args = exc.code
    return args, out.getvalue(), err.getvalue()


_TOKENS = st.sampled_from([
    "gen", "realize", "verify", "audit", "census", "bound", "ramsey", "plot", "real", "complete",
    "multipartite", "zero-pattern", "lower", "numeric", "colorable", "bogus", "--method",
    "--dim", "--seed", "--n", "--s", "--mode", "--tol", "--graph", "--embedding", "--csv", "-o",
    "--output", "--out", "--semantics", "--jobs", "--bogus", "-h", "--help", "--he", "--",
    "-", "2", "-1", "abc", "1e-7", "x.json", "--dim=3", "--seed=abc"])


@settings(max_examples=500, deadline=None)
@given(argv=st.tuples(st.sampled_from(sorted(_build_parser()[1])), st.lists(_TOKENS, max_size=6))
       .map(lambda t: [t[0], *t[1]]) | st.lists(_TOKENS, max_size=3))
def test_one_pass_parse_matches_the_top_level_parse(argv):
    # the subcommand's own parser gives what the top-level parser gives,
    # value for value and message for message
    top, _ = _build_parser()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert _parsed(_parse_args, argv) == _parsed(top.parse_args, argv)


def _pipe_cases():
    """40 (argv, graph JSON): random labelled graphs, alternately 4 vertices
    in R^2 and 5 in R^3, never K_{d+2}, with random solver seeds."""
    rng = np.random.default_rng(1306)
    for k in range(40):
        n, d = (4, 2) if k % 2 == 0 else (5, 3)
        pairs = list(combinations(range(n), 2))
        mask = int(rng.integers(0, (1 << len(pairs)) - 1))
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        argv = ["realize", "--dim", str(d), "--method", "numeric",
                "--seed", str(int(rng.integers(0, 2**31)))]
        yield argv, json.dumps({"n": n, "edges": edges})


def test_realize_verify_pipe_bytes_are_pinned(capsys, monkeypatch):
    # every exit code and stdout of the pipes, in order; verify reads what
    # realize printed, and runs only after realize exits 0
    record = []
    for argv, graph_json in _pipe_cases():
        monkeypatch.setattr("sys.stdin", io.StringIO(graph_json))
        code, out, err = _outcome(capsys, argv)
        record += [str(code), out]
        assert err == ""
        if code == 0:
            monkeypatch.setattr("sys.stdin", io.StringIO(out))
            code, out, err = _outcome(capsys, ["verify"])
            record += [str(code), out]
            assert (code, err) == (0, "")
    assert len(record) == 4 * 40  # every graph has a faithful witness in its space
    assert hashlib.sha256("\n".join(record).encode()).hexdigest() == (
        "c606a2773e739d5c7cea69840d45a89401d17370cc06b52249632f6ecb464abc")
