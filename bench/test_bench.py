"""Tests of the benchmark's own measuring code (not of udgraph).

    python3 -m pytest bench/test_bench.py -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from harness import (REF_NOMINAL_S, HostSpeed, Op, Outcome, Raised, jeffreys, nearest_rank,
                     run_round)
from tracing import MODULES, Span, Tracer, layer_metrics, self_times

SRC = Path(__file__).resolve().parent.parent / "src"


def _span(name, parent, start, end):
    s = Span(name, name.split(".")[0], parent, start)
    s.end = end
    return s


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span("census.count_faithful", -1, 0.0, 10.0),
        _span("solver.solve_faithful", 0, 1.0, 4.0),
        _span("graphs.Graph.has_edge", 1, 2.0, 3.0),
        _span("graphs.Graph", 0, 5.0, 9.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_traced_nested_calls_add_up_to_the_wall():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("graphs", "leaf", lambda: None)
    outer = tracer.wrap("verify", "induced_udg", lambda: inner() or inner())
    outer()  # outer [0, 5], leaves [1, 2] and [3, 4]
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("verify.induced_udg", -1), ("graphs.leaf", 0), ("graphs.leaf", 0)]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    layers = layer_metrics(tracer.spans, wall_s=7.0, untraced_wall_s=7.0, cli_bytes=0)
    assert layers["verify.self_s"][0] == 3.0
    assert layers["graphs.calls"][0] == 2
    assert layers["bench.self_s"][0] == 2.0
    total = sum(layers[f"{m}.self_s"][0] for m in MODULES) + layers["bench.self_s"][0]
    assert total == layers["trace.wall_s"][0]


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("embed", "embed_bipartite_faithful", boom)()
    (span,) = tracer.spans
    assert span.raised and span.end >= span.start
    assert layer_metrics(tracer.spans, 1.0, 1.0, 0)["embed.fail_ratio"][0] == 1.0


@pytest.mark.parametrize("n, pct, rank", [
    (1, 90, 1), (2, 50, 1), (2, 90, 2), (10, 50, 5), (10, 90, 9),
    (100, 90, 90), (187, 90, 169), (600, 90, 540), (600, 50, 300),
])
def test_nearest_rank_percentile(n, pct, rank):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    assert nearest_rank(samples, pct) == rank


def test_p90_leaves_ten_samples_above_it_from_100_samples():
    samples = list(range(1, 101))
    p90 = nearest_rank(samples, 90)
    assert sum(x > p90 for x in samples) == 10
    assert sum(x > nearest_rank(samples[:99], 90) for x in samples[:99]) == 9


def test_failed_op_is_counted_not_raised():
    def judge(res):
        if isinstance(res, Raised):
            return Outcome(True, res.describe(), unresolved=1)
        return Outcome(False, str(res))

    def boom():
        raise RuntimeError("retries exhausted")

    ops = [Op(lambda: 1, judge), Op(boom, judge), Op(lambda: 2, judge)]
    r = run_round(ops)
    assert len(r.latencies_s) == 3
    assert isinstance(r.results[1], Raised)
    r.judge(ops)
    assert (r.failed, r.unresolved, r.outputs) == (1, 1, 3)
    assert r.results is None  # judged rounds keep counts, not results


def test_pause_runs_before_each_op():
    log = []
    ops = [Op(lambda i=i: log.append(f"op{i}"), None) for i in range(3)]
    r = run_round(ops, pause=lambda: log.append("pause"))
    assert log == ["pause", "op0", "pause", "op1", "pause", "op2"]
    assert len(r.latencies_s) == 3


def test_round_digest_covers_every_output():
    def judge(res):
        return Outcome(False, str(res))

    def digest(values):
        ops = [Op(lambda v=v: v, judge) for v in values]
        r = run_round(ops)
        r.judge(ops)
        return r.digest

    assert digest([1, 2]) == digest([1, 2])
    assert digest([1, 2]) != digest([1, 3])
    assert digest([1, 2]) != digest([12])


def test_host_speed_scales_by_the_samples_around_an_interval():
    speed = HostSpeed()
    # samples over [0, 1], [10, 11] and [20, 21]: the host slows down
    speed.starts, speed.ends = [0.0, 10.0, 20.0], [1.0, 11.0, 21.0]
    speed.took = [REF_NOMINAL_S, 2 * REF_NOMINAL_S, 4 * REF_NOMINAL_S]
    assert speed.scale(2.0, 9.0) == pytest.approx(1 / 1.5)
    assert speed.scale(12.0, 19.0) == pytest.approx(1 / 3)
    assert speed.scale(2.0, 19.0) == pytest.approx(1 / 2.5)  # nothing in between counts
    assert speed.scale(22.0, 23.0) == pytest.approx(1 / 4)  # no sample after
    with pytest.raises(ValueError):
        HostSpeed().scale(0.0, 1.0)


def test_jeffreys_rate_is_never_zero():
    assert jeffreys(0, 600) == pytest.approx(0.5 / 601)
    assert jeffreys(510, 600) == pytest.approx(510.5 / 601)


def test_install_traces_udgraph_and_uninstall_restores_it():
    sys.path.insert(0, str(SRC))
    import importlib

    lib = SimpleNamespace(**{m: importlib.import_module(f"udgraph.{m}") for m in MODULES})
    before = (lib.census.count_faithful, lib.census.Graph, lib.graphs.Graph.has_edge,
              lib.embed.verify)
    tracer = Tracer()
    tracer.install(lib)
    try:
        report = lib.census.count_faithful(3, 1)
    finally:
        tracer.uninstall()
    assert report.count_realizable == 7
    names = {s.name for s in tracer.spans}
    assert "census.count_faithful" in names and "graphs.Graph" in names
    assert before == (lib.census.count_faithful, lib.census.Graph,
                      lib.graphs.Graph.has_edge, lib.embed.verify)
