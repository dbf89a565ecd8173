"""End-to-end CLI behaviour: piping, exit codes, determinism."""

import contextlib
import decimal
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udgraph.census import zero_pattern_bound
from udgraph.cli import _build_parser, main
from udgraph.graphs import MAX_DOCUMENT_N, graph_from_dict


def _run(capsys, monkeypatch, argv, stdin_text=None):
    if stdin_text is not None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_graph_json(capsys, monkeypatch):
    code, out, _ = _run(capsys, monkeypatch, ["gen", "kprime", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 8


def test_gen_multipartite_and_param_errors(capsys, monkeypatch):
    code, out, _ = _run(capsys, monkeypatch, ["gen", "multipartite", "3", "3"])
    assert code == 0
    assert json.loads(out)["n"] == 6
    code, _, err = _run(capsys, monkeypatch, ["gen", "kprime"])
    assert code == 2
    assert "error" in err


def test_audit_pipe_not_realizable_exits_1(capsys, monkeypatch):
    _, graph_json, _ = _run(capsys, monkeypatch, ["gen", "kprime", "4"])
    code, out, _ = _run(capsys, monkeypatch, ["audit", "--dim", "4"], stdin_text=graph_json)
    assert code == 1
    assert json.loads(out)["verdict"] == "NOT_REALIZABLE"


def test_realize_verify_roundtrip_exits_0(capsys, monkeypatch):
    _, graph_json, _ = _run(capsys, monkeypatch, ["gen", "complete", "4"])
    code, combined, _ = _run(
        capsys, monkeypatch, ["realize", "--dim", "3", "--method", "numeric"], stdin_text=graph_json
    )
    assert code == 0
    doc = json.loads(combined)
    assert set(doc) == {"graph", "embedding"}
    code, out, _ = _run(capsys, monkeypatch, ["verify", "--mode", "faithful"], stdin_text=combined)
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("gen, dim, seeds", [
    (["multipartite", "2", "2"], "2", range(10)),
    (["complete", "4"], "3", [None]),
])
def test_numeric_realize_pipes_into_default_verify(capsys, monkeypatch, gen, dim, seeds):
    # `udgraph gen ... | udgraph realize --method numeric | udgraph verify`,
    # verify at its published default tolerance
    _, graph_json, _ = _run(capsys, monkeypatch, ["gen", *gen])
    for seed in seeds:
        argv = ["realize", "--dim", dim, "--method", "numeric"]
        if seed is not None:
            argv += ["--seed", str(seed)]
        code, combined, _ = _run(capsys, monkeypatch, argv, stdin_text=graph_json)
        assert code == 0, seed
        code, out, _ = _run(capsys, monkeypatch, ["verify"], stdin_text=combined)
        assert code == 0, (seed, out)


def test_realize_same_seed_byte_identical(capsys, monkeypatch):
    _, graph_json, _ = _run(capsys, monkeypatch, ["gen", "kprime", "4"])
    outs = []
    for _ in range(2):
        code, out, _ = _run(
            capsys,
            monkeypatch,
            ["realize", "--dim", "5", "--method", "bipartite", "--seed", "3"],
            stdin_text=graph_json,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_realize_colorable_infers_dimension(capsys, monkeypatch):
    _, graph_json, _ = _run(capsys, monkeypatch, ["gen", "multipartite", "2", "2"])
    code, combined, _ = _run(
        capsys, monkeypatch, ["realize", "--method", "colorable"], stdin_text=graph_json
    )
    assert code == 0
    assert json.loads(combined)["embedding"]["dim"] == 4
    # a verify of the colorable output at construction grade
    code, out, _ = _run(
        capsys,
        monkeypatch,
        ["verify", "--mode", "distance", "--tol", "1e-9"],
        stdin_text=combined,
    )
    assert code == 0


def test_verify_fail_exits_1(capsys, monkeypatch):
    bad = {
        "graph": {"n": 2, "edges": [[0, 1]]},
        "embedding": {"dim": 1, "points": [[0.0], [2.0]]},
    }
    code, out, _ = _run(capsys, monkeypatch, ["verify"], stdin_text=json.dumps(bad))
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_bound_zero_pattern(capsys, monkeypatch):
    code, out, _ = _run(capsys, monkeypatch, ["bound", "zero-pattern", "--n", "4", "--dim", "1"])
    assert code == 0
    assert out.strip() == "495"
    code, _, err = _run(capsys, monkeypatch, ["bound", "zero-pattern", "--n", "2", "--dim", "1"])
    assert code == 2


@pytest.mark.parametrize("n, d", [(2000, 1), (1000, 2)])
def test_bound_zero_pattern_prints_every_digit(capsys, monkeypatch, n, d):
    # past Python's 4300-digit limit on str(int); int(out) would hit it too,
    # so the exact value is compared through Decimal
    argv = ["bound", "zero-pattern", "--n", str(n), "--dim", str(d)]
    code, out, _ = _run(capsys, monkeypatch, argv)
    assert code == 0
    assert len(out.strip()) > 4300
    assert decimal.Decimal(out) == decimal.Decimal(zero_pattern_bound(n, d))


def test_census_command(capsys, monkeypatch, tmp_path):
    csv_path = tmp_path / "census.csv"
    code, out, _ = _run(
        capsys,
        monkeypatch,
        ["census", "--n", "4", "--dim", "1", "--csv", str(csv_path)],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count_realizable"] == 34
    assert doc["exact"] is True
    assert csv_path.read_text().startswith("graph_id,edges,status,method,residual")


@pytest.mark.parametrize("flags", [["--jobs", "2"], ["--exact-only"]], ids=["jobs", "exact-only"])
def test_census_removed_flags_are_usage_errors(capsys, flags):
    # the census runs in one process and its report says whether it is exact
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n", "3", "--dim", "1", *flags])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["realize", "--method", "numeric", "--dim", "2", "--seed", "-1"],
    ["census", "--n", "3", "--dim", "2", "--seed", "-1"],
], ids=["realize", "census"])
def test_negative_seed_is_a_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 3, "edges": [[0, 1]]}'))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "argument --seed" in err and "non-negative" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["realize", "--method", "numeric", "--dim", "2", "--seed", "abc"],
    ["census", "--n", "3", "--dim", "2", "--seed", "abc"],
], ids=["realize", "census"])
def test_non_integer_seed_names_what_is_expected(capsys, argv):
    # the message names the value wanted, not the converter that refused it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.endswith(f"udgraph {argv[0]}: error: argument --seed: "
                        "expected a non-negative integer, got 'abc'\n")


@pytest.mark.parametrize("argv, flag", [
    (["realize", "--method", "numeric", "--dim", "2", "-o", "-"], "argument -o/--output"),
    (["census", "--n", "3", "--dim", "1", "--csv", "-"], "argument --csv"),
], ids=["realize-output", "census-csv"])
def test_side_file_on_stdout_is_a_usage_error(capsys, monkeypatch, argv, flag):
    # stdout carries the command's one JSON document; a side file there would
    # corrupt it for the next command in the pipe
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 3, "edges": [[0, 1], [1, 2]]}'))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert flag in err and "stdout" in err and "Traceback" not in err


def test_census_beyond_n6_exits_2(capsys, monkeypatch):
    code, out, err = _run(capsys, monkeypatch, ["census", "--n", "7", "--dim", "2"])
    assert code == 2
    assert out == ""
    assert "census supports 1 <= n <= 6" in err
    assert "Traceback" not in err


def test_out_of_memory_exits_2(capsys, monkeypatch):
    # a huge --dim makes numpy refuse its normal matrices; raised here by a stub,
    # since a real request could succeed on a host that overcommits memory
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr("udgraph.cli.solve_faithful", refuse)
    code, out, err = _run(capsys, monkeypatch, ["realize", "--method", "numeric", "--dim", "100000"],
                          stdin_text=json.dumps({"n": 2, "edges": [[0, 1]]}))
    assert (code, out) == (2, "")
    assert err == "udgraph: error: Unable to allocate 298. GiB for an array\n"


_GRAPH_OK = {"n": 2, "edges": [[0, 1]]}
_TRIANGLE = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
_LONG_EDGE = {"graph": _GRAPH_OK, "embedding": {"dim": 1, "points": [[0.0], [5.0]]}}
_HUGE_N = (MAX_DOCUMENT_N + 1, 10**9)


def _with_points(dim, points):
    return {"graph": _GRAPH_OK, "embedding": {"dim": dim, "points": points}}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["audit", "--dim", "2"], {"n": 3}),
        (["audit", "--dim", "2"], {"n": 3, "edges": [[0]]}),
        (["audit", "--dim", "2"], [1, 2]),
        (["audit", "--dim", "2"], {"n": 3, "edges": [], "bipartition_a": 5}),
        (["audit", "--dim", "2"], {"n": True, "edges": []}),
        (["verify"], {"graph": _GRAPH_OK, "embedding": {"dim": 2}}),
        pytest.param(["verify"], _with_points(1, [[0.0], [float("nan")]]), id="nan-points"),
        pytest.param(["verify"], _with_points(2, [[0.0, 0.0], [1.0]]), id="ragged-points"),
        pytest.param(["verify"], _with_points(5, [[1], []]), id="ragged-points-empty-row"),
        pytest.param(["verify"], _with_points(2, 5), id="scalar-points"),
        pytest.param(["verify"], _with_points(2, [1.0, 2.0]), id="flat-points"),
        pytest.param(["verify"], _with_points(3, [[0.0, 0.0], [1.0, 0.0]]), id="dim-mismatch"),
        pytest.param(["verify"], _with_points(2, [[0, 0], [True, 0]]), id="boolean-coordinate"),
        pytest.param(["verify"], _with_points(1, [[0], [10**400]]), id="huge-integer-coordinate"),
        pytest.param(["verify"], {"graph": {"n": 1, "edges": []},
                                  "embedding": {"dim": 0, "points": []}}, id="no-points"),
        pytest.param(["verify"], {"embedding": {"dim": 1, "points": [[0.0]]}}, id="no-graph"),
        pytest.param(["audit", "--dim", "2"], _TRIANGLE, id="audit-not-bipartite"),
        pytest.param(["realize", "--method", "bipartite", "--dim", "2"], _TRIANGLE,
                     id="realize-not-bipartite"),
        pytest.param(["audit", "--dim", "2"], {"n": 2, "edges": [[0, 1]], "bipartition_a": [5]},
                     id="bipartition-vertex-out-of-range"),
        pytest.param(["audit", "--dim", "2"],
                     {"n": 3, "edges": [[0, 1], [1, 2]], "bipartition_a": [0, 1]},
                     id="edge-inside-bipartition"),
        *(pytest.param(["realize", "--method", method], _GRAPH_OK, id=f"{method}-without-dim")
          for method in ("bipartite", "numeric")),
        # K_2 takes two colour classes, so the coloring construction needs R^4
        pytest.param(["realize", "--method", "colorable", "--dim", "3"], _GRAPH_OK,
                     id="colorable-dim-below-coloring"),
        pytest.param(["gen", "multipartite"], None, id="gen-multipartite-no-sizes"),
        # a combined document is read whole, whichever part the command uses
        *(pytest.param(argv, {"graph": _GRAPH_OK, "embedding": {"dim": 2}},
                       id=f"{argv[0]}-malformed-embedding-part")
          for argv in (["realize", "--method", "colorable"], ["audit", "--dim", "2"])),
        pytest.param(["audit", "--dim", "-1"], _GRAPH_OK, id="audit-negative-dim"),
        pytest.param(["census", "--n", "3", "--dim", "-1"], None, id="census-negative-dim"),
        pytest.param(["realize", "--method", "numeric", "--dim", "-1"], _GRAPH_OK,
                     id="numeric-negative-dim"),
        pytest.param(["verify", "--tol", "nan"], _LONG_EDGE, id="tol-nan"),
        pytest.param(["verify", "--tol", "inf"], _LONG_EDGE, id="tol-inf"),
        pytest.param(["verify", "--tol", "-1"], _LONG_EDGE, id="tol-negative"),
        pytest.param(["bound", "zero-pattern", "--n", "-1", "--dim", "-1"], None,
                     id="bound-negative-n-and-dim"),
        pytest.param(["bound", "zero-pattern", "--n", "3", "--dim", "-1"], None,
                     id="bound-negative-dim"),
        pytest.param(["ramsey", "lower", "--s", "3", "--dim", "0"], None, id="ramsey-dim-0"),
        pytest.param(["plot", "-o", os.devnull],
                     {"graph": {"n": 6, "edges": [[0, 5]]},
                      "embedding": {"dim": 2, "points": [[0, 0], [1, 0]]}},
                     id="plot-more-vertices-than-points"),
        pytest.param(["plot", "-o", os.devnull],
                     {"graph": _GRAPH_OK,
                      "embedding": {"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]}},
                     id="plot-fewer-vertices-than-points"),
        *(pytest.param(["gen", *params], None, id="gen-" + "-".join(params))
          for params in (["complete", "65"], ["complete", "100000"], ["multipartite", "40", "25"],
                         ["kprime", "33"], ["kdoubleprime", "33"], ["remark", "31"])),
        *(pytest.param(argv, {"graph": {"n": n, "edges": []},
                              "embedding": {"dim": 1, "points": [[0.0]]}}, id=f"{argv[0]}-n-{n}")
          for argv in (["verify"], ["plot", "-o", os.devnull], ["audit", "--dim", "2"],
                       ["realize", "--method", "colorable"])
          for n in _HUGE_N),
    ],
)
def test_malformed_document_exits_2(capsys, monkeypatch, argv, doc):
    code, out, err = _run(capsys, monkeypatch, argv, stdin_text=json.dumps(doc))
    assert code == 2
    assert out == ""
    assert err.startswith("udgraph: error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("params", [["complete", "64"], ["multipartite", "40", "24"],
                                    ["kprime", "32"], ["kdoubleprime", "32"], ["remark", "30"]],
                         ids="-".join)
def test_gen_families_at_the_vertex_cap_are_readable(capsys, monkeypatch, params):
    code, out, _ = _run(capsys, monkeypatch, ["gen", *params])
    assert code == 0
    assert graph_from_dict(json.loads(out)).n == MAX_DOCUMENT_N


_EVERY_SUBCOMMAND = {
    "gen": ["gen", "complete", "3"],
    "realize": ["realize", "--method", "colorable"],
    "verify": ["verify"],
    "audit": ["audit", "--dim", "2"],
    "census": ["census", "--n", "3", "--dim", "1"],
    "bound": ["bound", "zero-pattern", "--n", "4", "--dim", "1"],
    "ramsey": ["ramsey", "lower", "--s", "3", "--dim", "1"],
    "plot": ["plot", "-o", os.devnull],
}


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND.values(), ids=_EVERY_SUBCOMMAND)
def test_stray_udg_jobs_changes_no_exit_code(capsys, monkeypatch, argv):
    # the environment is not read: a stray UDG_JOBS changes nothing
    monkeypatch.delenv("UDG_JOBS", raising=False)
    plain = _run(capsys, monkeypatch, argv, json.dumps(_LONG_EDGE))
    monkeypatch.setenv("UDG_JOBS", "abc")
    stray = _run(capsys, monkeypatch, argv, json.dumps(_LONG_EDGE))
    assert stray == plain
    if argv[0] == "census":
        assert stray[0] == 0


_COINCIDENT = {"graph": _GRAPH_OK, "embedding": {"dim": 1, "points": [[0.0], [0.0]]}}


@pytest.mark.parametrize("mode", ["faithful", "distance"])
def test_verify_coincident_points_fail_with_exit_1(capsys, monkeypatch, mode):
    # a well-formed document whose points coincide is a FAIL, not an input error
    code, out, err = _run(capsys, monkeypatch, ["verify", "--mode", mode],
                          stdin_text=json.dumps(_COINCIDENT))
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["passed"] is False
    assert [v["pair"] for v in report["violations"]] == [[0, 1]]
    assert report["violations"][0]["distance"] == 0.0


@pytest.mark.parametrize("tol, mode, points", [
    ("1", "faithful", [[0.0], [0.0]]),
    ("0.7", "distance", [[0.0], [0.3]]),
])
def test_verify_fails_an_edge_whose_points_coincide_at_a_wide_tol(capsys, monkeypatch, tol,
                                                                   mode, points):
    doc = {"graph": {"n": 2, "edges": [[0, 1]]}, "embedding": {"dim": 1, "points": points}}
    code, out, _ = _run(capsys, monkeypatch, ["verify", "--tol", tol, "--mode", mode],
                        stdin_text=json.dumps(doc))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False and report["violations"][0]["kind"] == "coincident"


def test_verify_judges_separation_at_its_own_tolerance(capsys, monkeypatch):
    # 5e-7 apart is distinct at tol 1e-9, and an edgeless pair then passes
    doc = {"graph": {"n": 2, "edges": []}, "embedding": {"dim": 1, "points": [[0.0], [5e-7]]}}
    for mode in ("faithful", "distance"):
        code, out, _ = _run(capsys, monkeypatch, ["verify", "--mode", mode, "--tol", "1e-9"],
                            stdin_text=json.dumps(doc))
        assert code == 0 and json.loads(out)["passed"] is True
    # and coincident at tol 1e-6
    code, out, _ = _run(capsys, monkeypatch, ["verify", "--tol", "1e-6"], stdin_text=json.dumps(doc))
    assert code == 1 and json.loads(out)["violations"][0]["kind"] == "coincident"


def test_plot_coincident_embedding(capsys, monkeypatch, tmp_path):
    svg = tmp_path / "twins.svg"
    code, _, err = _run(capsys, monkeypatch, ["plot", "-o", str(svg)],
                        stdin_text=json.dumps(_COINCIDENT))
    assert code == 0 and err == ""
    assert svg.read_text().count("<circle") == 2


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    _build_parser.cache_clear()
    _, graph_json, _ = _run(capsys, monkeypatch, ["gen", "complete", "3"])
    for seed in range(3):
        _run(capsys, monkeypatch, ["gen", "complete", "3"])
        code, combined, _ = _run(capsys, monkeypatch, ["realize", "--dim", "2", "--method", "numeric",
                                                       "--seed", str(seed)], stdin_text=graph_json)
        assert code == 0
        code, _, _ = _run(capsys, monkeypatch, ["verify"], stdin_text=combined)
        assert code == 0
    info = _build_parser.cache_info()
    assert info.misses == 1 and info.hits == 9


def test_empty_graph_realize_pipes_into_verify(capsys, monkeypatch):
    code, combined, _ = _run(capsys, monkeypatch, ["realize", "--method", "colorable"],
                             stdin_text='{"n": 0, "edges": []}')
    assert code == 0
    assert json.loads(combined)["embedding"] == {"dim": 0, "points": []}
    code, out, _ = _run(capsys, monkeypatch, ["verify"], stdin_text=combined)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_plot_zero_dimensional_embedding(capsys, monkeypatch, tmp_path):
    # a 0-d embedding is drawn at the origin
    svg = tmp_path / "point.svg"
    doc = json.dumps({"dim": 0, "points": [[]]})
    code, _, err = _run(capsys, monkeypatch, ["plot", "-o", str(svg)], stdin_text=doc)
    assert code == 0 and err == ""
    assert svg.read_text().count("<circle") == 1


def test_plot_empty_embedding(capsys, monkeypatch, tmp_path):
    svg = tmp_path / "empty.svg"
    doc = json.dumps({"dim": 2, "points": []})
    code, _, err = _run(capsys, monkeypatch, ["plot", "-o", str(svg)], stdin_text=doc)
    assert code == 0 and err == ""
    assert svg.read_text().startswith("<svg") and "<circle" not in svg.read_text()


def test_ramsey_commands(capsys, monkeypatch):
    code, out, _ = _run(capsys, monkeypatch, ["ramsey", "lower", "--s", "6", "--dim", "1"])
    assert code == 0 and out.strip() == "5"
    # the exact search was removed: argparse rejects the kind with a usage error
    with pytest.raises(SystemExit) as exc:
        main(["ramsey", "exact", "--s", "3", "--dim", "1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "invalid choice" in err and "Traceback" not in err


def test_plot_writes_svg(capsys, monkeypatch, tmp_path):
    _, graph_json, _ = _run(capsys, monkeypatch, ["gen", "complete", "3"])
    _, combined, _ = _run(
        capsys, monkeypatch, ["realize", "--dim", "2", "--method", "numeric"], stdin_text=graph_json
    )
    out_path = tmp_path / "plot.svg"
    code, _, _ = _run(
        capsys, monkeypatch, ["plot", "-o", str(out_path)], stdin_text=combined
    )
    assert code == 0
    svg = out_path.read_text()
    assert svg.startswith("<svg") and svg.count("<circle") == 3 and svg.count("<line") == 3


def test_plot_recovers_edges_at_the_verify_tolerance(capsys, monkeypatch, tmp_path):
    # 5e-7 off unit length: not an edge at verify's published tolerance 1e-7
    bare = {"dim": 2, "points": [[0.0, 0.0], [1.0 + 5e-7, 0.0]]}
    out_path = tmp_path / "plot.svg"
    code, _, _ = _run(capsys, monkeypatch, ["plot", "-o", str(out_path)], stdin_text=json.dumps(bare))
    assert code == 0
    svg = out_path.read_text()
    assert svg.count("<circle") == 2 and "<line" not in svg
    doc = {"graph": {"n": 2, "edges": []}, "embedding": bare}
    code, _, _ = _run(capsys, monkeypatch, ["verify"], stdin_text=json.dumps(doc))
    assert code == 0


def test_realize_output_file_holds_bare_embedding(capsys, monkeypatch, tmp_path):
    _, graph_json, _ = _run(capsys, monkeypatch, ["gen", "complete", "2"])
    out_path = tmp_path / "emb.json"
    code, combined, _ = _run(
        capsys,
        monkeypatch,
        ["realize", "--dim", "2", "--method", "numeric", "-o", str(out_path)],
        stdin_text=graph_json,
    )
    assert code == 0
    bare = json.loads(out_path.read_text())
    assert set(bare) == {"dim", "points"}
    assert json.loads(combined)["embedding"] == bare


def test_numeric_realize_of_k4_in_the_plane_exits_1(capsys, monkeypatch):
    _, graph_json, _ = _run(capsys, monkeypatch, ["gen", "complete", "4"])
    code, out, _ = _run(capsys, monkeypatch, ["realize", "--method", "numeric", "--dim", "2"],
                        stdin_text=graph_json)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "NOT_FOUND"
    assert doc["restarts_used"] == 200 and doc["embedding"] is None


def test_output_files_end_in_one_newline_like_stdout(capsys, monkeypatch, tmp_path):
    graph, emb = tmp_path / "g.json", tmp_path / "e.json"
    _, graph_json, _ = _run(capsys, monkeypatch, ["gen", "complete", "3"])
    assert _run(capsys, monkeypatch, ["gen", "complete", "3", "-o", str(graph)])[0] == 0
    assert graph.read_bytes() == graph_json.encode() and graph_json.endswith("}\n")
    code, _, _ = _run(capsys, monkeypatch, ["realize", "--graph", str(graph),
                                            "--method", "colorable", "-o", str(emb)])
    assert code == 0 and emb.read_bytes().endswith(b"]]}\n")


def test_verify_reads_graph_and_embedding_files(capsys, monkeypatch, tmp_path):
    graph, emb = str(tmp_path / "g.json"), str(tmp_path / "e.json")
    combined = tmp_path / "c.json"
    assert _run(capsys, monkeypatch, ["gen", "complete", "3", "-o", graph])[0] == 0
    code, out, _ = _run(capsys, monkeypatch, ["realize", "--graph", graph, "--dim", "2",
                                              "--method", "numeric", "-o", emb])
    assert code == 0
    combined.write_text(out)
    # --embedding takes the bare file and realize's combined output alike
    for embedding in (emb, str(combined)):
        code, out, _ = _run(capsys, monkeypatch, ["verify", "--graph", graph,
                                                  "--embedding", embedding])
        assert code == 0 and json.loads(out)["passed"] is True
    # a graph file given as the embedding holds none
    code, out, err = _run(capsys, monkeypatch, ["verify", "--graph", graph, "--embedding", graph])
    assert (code, out) == (2, "") and "no embedding" in err
    # an embedding file alone names no graph
    code, out, err = _run(capsys, monkeypatch, ["verify", "--embedding", emb])
    assert code == 2 and out == ""
    assert "--graph" in err and "Traceback" not in err


_BARE_EMBEDDING = {"dim": 1, "points": [[0.0], [1.0]]}


@pytest.mark.parametrize("argv, doc, part", [
    (["verify"], _GRAPH_OK, "embedding"),
    (["plot", "-o", os.devnull], _GRAPH_OK, "embedding"),
    (["realize", "--method", "colorable"], _BARE_EMBEDDING, "graph"),
    (["audit", "--dim", "2"], _BARE_EMBEDDING, "graph"),
], ids=["verify", "plot", "realize", "audit"])
def test_a_document_without_the_needed_part_exits_2(capsys, monkeypatch, argv, doc, part):
    code, out, err = _run(capsys, monkeypatch, argv, stdin_text=json.dumps(doc))
    assert (code, out) == (2, "")
    assert err.startswith(f"udgraph: error: the input holds no {part};")


def test_plot_projects_a_3d_embedding(capsys, monkeypatch, tmp_path):
    _, graph_json, _ = _run(capsys, monkeypatch, ["gen", "complete", "4"])
    code, combined, _ = _run(capsys, monkeypatch, ["realize", "--dim", "3", "--method", "numeric"],
                             stdin_text=graph_json)
    assert code == 0 and json.loads(combined)["embedding"]["dim"] == 3
    out_path = tmp_path / "tetrahedron.svg"
    code, _, err = _run(capsys, monkeypatch, ["plot", "-o", str(out_path)], stdin_text=combined)
    assert code == 0 and err == ""
    svg = out_path.read_text()
    assert svg.count("<circle") == 4 and svg.count("<line") == 6 and "nan" not in svg


def test_unknown_usage_exits_2(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["realize", "--method", "bogus"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# fuzz: generated graph, embedding and combined documents through main()

_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 5), st.text(max_size=2),
                     st.floats(allow_nan=True, allow_infinity=True))
_COORDS = st.one_of(st.floats(-1.5, 1.5), st.integers(-1, 1),
                    st.sampled_from([float("nan"), float("inf"), True, None, "1", 10**400]))
_GRAPH_DOCS = st.fixed_dictionaries(
    {"n": st.one_of(st.integers(-1, 4), st.sampled_from(_HUGE_N), _SCALARS),
     "edges": st.one_of(st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=5), _SCALARS)},
    optional={"bipartition_a": st.one_of(st.lists(st.integers(-1, 4), max_size=3), _SCALARS)},
)
_EMBEDDING_DOCS = st.fixed_dictionaries(
    {"dim": st.one_of(st.integers(-1, 3), _SCALARS),
     "points": st.one_of(st.lists(st.lists(_COORDS, max_size=3), max_size=4), _SCALARS)},
)
_DOCS = st.one_of(
    _GRAPH_DOCS,
    _EMBEDDING_DOCS,
    st.fixed_dictionaries({}, optional={"graph": _GRAPH_DOCS, "embedding": _EMBEDDING_DOCS}),
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
)
# json.dumps writes NaN and Infinity literals, which json.loads reads back
_TEXTS = st.one_of(_DOCS.map(json.dumps), st.text(max_size=8))


def _int_args(lo, hi):
    return st.integers(lo, hi).map(str)


_ARGVS = st.one_of(
    st.sampled_from([["verify"], ["verify", "--mode", "distance"], ["plot", "-o", os.devnull],
                     ["realize", "--method", "colorable"]]),
    st.tuples(st.just("audit"), st.just("--dim"), _int_args(-2, 3)),
    st.tuples(st.just("realize"), st.just("--method"), st.sampled_from(["colorable", "bipartite"]),
              st.just("--dim"), _int_args(-2, 3)),
    # a numeric search on these graphs of at most 4 vertices runs its whole restart
    # budget in about 0.1 s, so real solves in R^1..R^3 ride along
    st.tuples(st.just("realize"), st.just("--method"), st.just("numeric"),
              st.just("--dim"), _int_args(-2, 3)),
    st.tuples(st.just("census"), st.just("--n"), _int_args(-1, 3), st.just("--dim"),
              _int_args(-1, 2)),
    st.tuples(st.just("bound"), st.just("zero-pattern"), st.just("--n"), _int_args(-2, 6),
              st.just("--dim"), _int_args(-2, 3)),
    st.tuples(st.just("ramsey"), st.just("lower"), st.just("--s"), _int_args(-1, 6),
              st.just("--dim"), _int_args(-2, 3)),
    st.tuples(st.just("gen"), st.sampled_from(["kprime", "kdoubleprime", "remark", "complete",
                                               "multipartite"]),
              st.lists(_int_args(-2, 5), max_size=2)).map(lambda t: [*t[:2], *t[2]]),
).map(list)


@settings(max_examples=300, deadline=None)
@given(argv=_ARGVS, text=_TEXTS)
def test_fuzzed_documents_exit_0_1_or_2_without_a_traceback(argv, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("udgraph: error:")
