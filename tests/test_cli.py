"""End-to-end CLI behaviour: piping, exit codes, determinism."""

import json

import pytest

from udgraph.cli import main


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


def test_census_command(capsys, monkeypatch, tmp_path):
    csv_path = tmp_path / "census.csv"
    code, out, _ = _run(
        capsys,
        monkeypatch,
        ["census", "--n", "4", "--dim", "1", "--exact-only", "--csv", str(csv_path)],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count_realizable"] == 34
    assert doc["exact"] is True
    assert csv_path.read_text().startswith("graph_id,edges,status,method,residual")


def test_census_exact_only_guard(capsys, monkeypatch):
    code, _, err = _run(capsys, monkeypatch, ["census", "--n", "3", "--dim", "2", "--exact-only"])
    assert code == 2
    assert "exact" in err


def test_census_beyond_n6_exits_2(capsys, monkeypatch):
    code, out, err = _run(capsys, monkeypatch, ["census", "--n", "7", "--dim", "2"])
    assert code == 2
    assert out == ""
    assert "census supports 1 <= n <= 6" in err
    assert "Traceback" not in err


_GRAPH_OK = {"n": 2, "edges": [[0, 1]]}
_TRIANGLE = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
_LONG_EDGE = {"graph": _GRAPH_OK, "embedding": {"dim": 1, "points": [[0.0], [5.0]]}}


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
        pytest.param(["verify"], _with_points(3, [[0.0, 0.0], [1.0, 0.0]]), id="dim-mismatch"),
        pytest.param(["audit", "--dim", "2"], _TRIANGLE, id="audit-not-bipartite"),
        pytest.param(["realize", "--method", "bipartite", "--dim", "2"], _TRIANGLE,
                     id="realize-not-bipartite"),
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
    ],
)
def test_malformed_document_exits_2(capsys, monkeypatch, argv, doc):
    code, out, err = _run(capsys, monkeypatch, argv, stdin_text=json.dumps(doc))
    assert code == 2
    assert out == ""
    assert err.startswith("udgraph: error:")
    assert "Traceback" not in err


def test_malformed_udg_jobs_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("UDG_JOBS", "abc")
    code, _, err = _run(capsys, monkeypatch, ["gen", "complete", "3"])
    assert code == 2
    assert err.startswith("udgraph: error:") and "UDG_JOBS" in err


def test_plot_zero_dimensional_embedding(capsys, monkeypatch, tmp_path):
    # a 0-d embedding is drawn at the origin
    svg = tmp_path / "point.svg"
    doc = json.dumps({"dim": 0, "points": [[]]})
    code, _, err = _run(capsys, monkeypatch, ["plot", "-o", str(svg)], stdin_text=doc)
    assert code == 0 and err == ""
    assert svg.read_text().count("<circle") == 1


def test_ramsey_commands(capsys, monkeypatch):
    code, out, _ = _run(capsys, monkeypatch, ["ramsey", "lower", "--s", "6", "--dim", "1"])
    assert code == 0 and out.strip() == "5"
    code, out, _ = _run(capsys, monkeypatch, ["ramsey", "exact", "--s", "3", "--dim", "1"])
    assert code == 0 and out.strip() == "3"


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


def test_unknown_usage_exits_2(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["realize", "--method", "bogus"])
    assert exc.value.code == 2
