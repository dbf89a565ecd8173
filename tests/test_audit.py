"""Dimension audits: bound rules, H-system extraction, verdicts, certificates."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udgraph import audit
from udgraph.audit import (
    edge_sum,
    faithful_dim_audit,
    graph_id,
    hsystem_of,
    k_lower_bound,
    lemedge2_guarantee,
    lemedge_bound,
)
from udgraph.embed import HSystem
from udgraph.graphs import (
    Graph,
    make_complete,
    make_complete_multipartite,
    make_kdoubleprime,
    make_kprime,
    make_remark_graph,
)
from udgraph.solver import SolverConfig, solve_faithful
from udgraph.verify import verify


def test_lemedge_bound_values():
    assert [lemedge_bound(k) for k in (1, 2, 3, 4)] == [3, 7, 12, 18]
    with pytest.raises(ValueError):
        lemedge_bound(0)


def test_lemedge2_guarantee_examples():
    assert lemedge2_guarantee([3, 4, 5]) == (3, 4)
    assert lemedge2_guarantee([2, 2, 2]) == (0, 1)
    assert lemedge2_guarantee([3, 3, 3, 7]) == (2, 3)
    assert lemedge2_guarantee([]) == (0, 1)
    with pytest.raises(ValueError):
        lemedge2_guarantee([4, 3])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), max_size=7), st.integers(1, 9))
def test_lemedge2_monotone_in_appended_size(sizes, extra):
    sizes = sorted(sizes)
    s0, _ = lemedge2_guarantee(sizes)
    bigger = sizes + [max(sizes + [extra])]
    s1, _ = lemedge2_guarantee(sorted(bigger))
    assert s1 >= s0
    assert s0 <= len(sizes)


def test_hsystem_of_k33():
    h = hsystem_of(make_complete_multipartite([3, 3]))
    assert h.m == 3 and h.s == 3
    assert h.sizes == []


def test_hsystem_of_kprime():
    h = hsystem_of(make_kprime(4))
    assert h.m == 4 and h.s == 3
    assert h.sizes == [3]


def test_hsystem_of_single_edge():
    h = hsystem_of(make_complete(2))
    assert h.m == 1 and h.s == 1


def test_hsystem_of_empty_ground_has_no_conditions():
    # an edgeless graph on one or two vertices puts them all on side A; their
    # empty neighborhoods over the empty B side exclude nothing
    for n in (1, 2):
        assert hsystem_of(Graph(n, ())) == HSystem(m=0, conditions=(), s=0)
        assert hsystem_of(Graph(n, ()), side="B") == HSystem(m=n, conditions=(), s=0)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [1, 2])
def test_audit_of_edgeless_graph_with_empty_side(n, d):
    g = Graph(n, ())
    report = faithful_dim_audit(g, d)
    assert report.verdict in ("REALIZABLE", "UNDECIDED")
    if report.verdict == "REALIZABLE":
        assert report.embedding.dim == d
        assert verify(g, report.embedding, mode="faithful", tol=1e-7).passed
    json.loads(report.to_json())


def test_hsystem_of_rejects_nonbipartite():
    with pytest.raises(ValueError):
        hsystem_of(make_complete(3))


def test_edge_sum_matches_edge_count():
    for g in (make_kdoubleprime(4), make_complete_multipartite([3, 3]), make_remark_graph(4)):
        assert edge_sum(hsystem_of(g)) == g.m
    assert edge_sum(hsystem_of(make_kdoubleprime(4))) == 15
    assert edge_sum(hsystem_of(make_complete_multipartite([3, 3]))) == 9
    assert edge_sum(hsystem_of(make_remark_graph(4))) == 21


def test_k_lower_bound_rules():
    assert k_lower_bound(hsystem_of(make_complete_multipartite([3, 3]))) == 1
    for d in range(4, 9):
        assert k_lower_bound(hsystem_of(make_kprime(d))) == d - 2
    assert k_lower_bound(HSystem(2, ())) == 0


def test_chain_search_reports_truncation(monkeypatch):
    h = hsystem_of(make_kprime(8))
    # the first descent reaches a chain through all 8 elements on node 5
    assert audit._chain_search(h, node_cap=5) == (list(range(8)), False)
    chain, truncated = audit._chain_search(h, node_cap=3)
    assert truncated and chain == list(range(7))
    assert audit._lower_rules(h, "A")[1][-1]["params"] == {
        "side": "A", "chain": list(range(8)), "length": 8}
    monkeypatch.setattr(audit, "_CHAIN_NODE_CAP", 3)
    k, rules = audit._lower_rules(h, "A")
    assert k == 5
    assert rules[-1] == {"rule": "R2_chain", "params": {
        "side": "A", "chain": list(range(7)), "length": 7, "truncated": True}}


def test_audit_k33():
    g = make_complete_multipartite([3, 3])
    r3 = faithful_dim_audit(g, 3)
    assert r3.verdict == "NOT_REALIZABLE"
    assert r3.s == 3 and r3.k_lower == 1
    r4 = faithful_dim_audit(g, 4)
    assert r4.verdict == "REALIZABLE"
    assert verify(g, r4.embedding, mode="faithful", tol=1e-7).passed


def test_audit_kprime_tight_dimensions():
    for d in (4, 5, 6):
        g = make_kprime(d)
        assert faithful_dim_audit(g, d).verdict == "NOT_REALIZABLE"
    r = faithful_dim_audit(make_kprime(4), 5)
    assert r.verdict == "REALIZABLE"
    assert verify(make_kprime(4), r.embedding, mode="faithful", tol=1e-7).passed


def test_audit_single_edge():
    r = faithful_dim_audit(make_complete(2), 2)
    assert r.verdict == "REALIZABLE"
    assert r.embedding is not None


def test_audit_never_refutes_path_on_line():
    # P5 has s=0; the sphere-based rules do not apply there and the path
    # is genuinely realizable on the line, so no refutation may appear
    p5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    for d in (1, 2, 3):
        r = faithful_dim_audit(p5, d)
        assert r.verdict != "NOT_REALIZABLE"
    assert faithful_dim_audit(p5, 2).verdict == "REALIZABLE"


def test_audit_undecided_is_honest_on_tight_remark_case():
    # bounds meet (k_lower = k_upper = d) but the witness construction
    # works at second-order margins there; the audit must abstain rather
    # than claim either verdict
    r = faithful_dim_audit(make_remark_graph(3), 4)
    assert r.verdict == "UNDECIDED"
    assert r.k_lower == r.k_upper == 3


def test_audit_rejects_nonbipartite():
    with pytest.raises(ValueError):
        faithful_dim_audit(make_complete(3), 3)


def test_audit_report_invariants_and_json():
    r = faithful_dim_audit(make_kprime(4), 4)
    assert r.k_lower <= r.k_upper
    doc = json.loads(r.to_json())
    assert doc["verdict"] == "NOT_REALIZABLE"
    assert doc["d_queried"] == 4
    assert isinstance(doc["rule_chain"], list)
    assert all(set(rule) == {"rule", "params"} for rule in doc["rule_chain"])
    names = [rule["rule"] for rule in doc["rule_chain"]]
    assert any("chain" in n or "R1" in n for n in names)


def test_audit_soundness_solver_cannot_beat_refutations():
    # spot-check the soundness invariant: where the audit refutes, the
    # numeric solver must come up empty as well
    cfg = SolverConfig(seed=0, restarts=25, max_iters=800)
    for g, d in ((make_complete_multipartite([3, 3]), 3), (make_kprime(4), 4)):
        assert faithful_dim_audit(g, d).verdict == "NOT_REALIZABLE"
        assert solve_faithful(g, d, cfg).status == "NOT_FOUND"


def test_graph_id_stable_and_distinct():
    a = graph_id(make_kprime(4))
    b = graph_id(make_kprime(4))
    c = graph_id(make_kprime(5))
    assert a == b != c
    assert a.startswith("n8-m")
