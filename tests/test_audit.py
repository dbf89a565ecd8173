"""Dimension audits: bound rules, H-system extraction, verdicts, certificates."""

import json
from itertools import combinations

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
from udgraph.census import _canonical_masks, _graph_of_mask
from udgraph.embed import MARGIN_NONEDGE, HSystem, RealizationError, realize_hsystem
from udgraph.graphs import (
    Graph,
    make_complete,
    make_complete_multipartite,
    make_kdoubleprime,
    make_kprime,
    make_remark_graph,
)
from udgraph.solver import SolverConfig, solve_faithful
from udgraph.verify import classify_pairs, verify


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
    assert report.verdict == "REALIZABLE"
    assert report.embedding.dim == d
    assert verify(g, report.embedding, mode="faithful", tol=1e-7).passed
    json.loads(report.to_json())


def test_hsystem_of_rejects_nonbipartite():
    with pytest.raises(ValueError):
        hsystem_of(make_complete(3))


def test_hsystem_of_rejects_an_unknown_side():
    with pytest.raises(ValueError, match="side must be"):
        hsystem_of(make_complete_multipartite([2, 2]), side="C")


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


def _frozenset_chain_search(h, node_cap, starts=None):
    """The chain search as it was on frozensets, before sets became bitmasks:
    from the triples some condition contains, or from starts(m)."""
    m = h.m
    if m <= 3:
        return list(range(m)), False
    conds = [frozenset(c) for c in h.conditions]
    best, seen, nodes = [0, 1, 2], set(), 0

    def extend(chain_set, order):
        nonlocal best, nodes
        if len(order) > len(best):
            best = list(order)
        if len(order) == m or nodes > node_cap:
            return
        for j in range(m):
            if j in chain_set or not any(chain_set <= c and j not in c for c in conds):
                continue
            grown = chain_set | {j}
            if grown in seen:
                continue
            seen.add(grown)
            nodes += 1
            extend(grown, order + [j])

    def contained_triples():
        for a in range(m):
            with_a = [c for c in conds if a in c]
            for b in range(a + 1, m):
                third = set().union(*(c for c in with_a if b in c))
                yield from ((a, b, x) for x in sorted(third) if x > b)

    for start in contained_triples() if starts is None else starts(m):
        if nodes > node_cap or len(best) == m:
            break
        extend(frozenset(start), list(start))
    return best, nodes > node_cap and len(best) < m


def _chain_search_every_start(h, node_cap):
    """The chain search with every triple of range(m) as a start, as it was
    before starts outside every condition were skipped."""
    return _frozenset_chain_search(h, node_cap, lambda m: combinations(range(m), 3))


@st.composite
def _hsystems(draw):
    m = draw(st.integers(4, 11))
    conds = draw(st.lists(st.sets(st.integers(0, m - 1), max_size=m - 1), max_size=8))
    return HSystem(m, tuple(conds))


@settings(max_examples=300, deadline=None)
@given(h=_hsystems(), cap=st.integers(0, 40))
def test_bitmask_chain_search_matches_the_frozenset_search(h, cap):
    for node_cap in (cap, audit._CHAIN_NODE_CAP):
        assert audit._chain_search(h, node_cap) == _frozenset_chain_search(h, node_cap)


def test_bitmask_chain_search_matches_the_frozenset_search_on_the_sweep():
    # the audit sweep's K'_d and remark systems, both sides, truncated or not
    graphs = [make_kprime(d) for d in range(4, 11)] + [make_remark_graph(d) for d in (3, 4, 5)]
    systems = [hsystem_of(g, side) for g in graphs for side in ("A", "B")]
    truncated = set()
    for h in systems:
        for cap in (0, 1, 3, 5, 30, audit._CHAIN_NODE_CAP):
            got = audit._chain_search(h, cap)
            assert got == _frozenset_chain_search(h, cap), (h, cap)
            truncated.add(got[1])
    assert truncated == {True, False}


def test_chain_search_matches_the_search_over_every_start_triple():
    rng = np.random.default_rng(2024)
    systems = [hsystem_of(g, side) for g in (make_kprime(6), make_kdoubleprime(5),
                                             make_remark_graph(3), make_complete_multipartite([3, 4]))
               for side in ("A", "B")]
    for _ in range(300):
        m = int(rng.integers(4, 10))
        conds = [rng.choice(m, size=int(rng.integers(0, m)), replace=False).tolist()
                 for _ in range(int(rng.integers(0, 7)))]
        systems.append(HSystem(m, tuple(conds)))
    for h in systems:
        for cap in (2, 5, 30, audit._CHAIN_NODE_CAP):
            assert audit._chain_search(h, cap) == _chain_search_every_start(h, cap), (h, cap)


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


def test_construct_side_goes_past_a_failed_realization(monkeypatch):
    # realize_hsystem makes one attempt per seed; the construction retries
    seeds = []

    def fail_first(h, eps, seed):
        seeds.append(seed)
        if len(seeds) == 1:
            raise RealizationError(f"H-system realization failed its conditions (seed {seed})")
        return realize_hsystem(h, eps=eps, seed=seed)

    monkeypatch.setattr(audit, "realize_hsystem", fail_first)
    r = faithful_dim_audit(make_kprime(4), 5)
    assert seeds[:2] == [seeds[0], seeds[0] + 1]
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


def _assert_verified_witness(g, r, d):
    """r carries a witness in R^d that verifies faithfully at 1e-7 with every
    non-edge MARGIN_NONEDGE clear of unit length."""
    assert r.verdict == "REALIZABLE" and r.embedding.dim == d
    assert verify(g, r.embedding, mode="faithful", tol=1e-7).passed
    p = classify_pairs(g, r.embedding.points)
    assert p.dev[~p.edge].min(initial=np.inf) >= MARGIN_NONEDGE


def test_audit_realizes_tight_remark_case():
    # bounds meet (k_lower = k_upper = 3) one dimension above the refutation,
    # and the construction's witness clears every non-edge margin there
    g = make_remark_graph(3)
    r = faithful_dim_audit(g, 4)
    assert r.k_lower == r.k_upper == 3
    _assert_verified_witness(g, r, 4)


def test_audit_undecided_is_honest_where_the_construction_falls_short():
    # A = 0..4 over B = 5..9: vertex 0 is full, 1 and 4 are twins on {8, 9}
    # and 3 is isolated. The A side builds in the plane, where 0, 1 and 4
    # cannot all be at unit distance from both 8 and 9, and the B side needs
    # R^4. The solver finds a faithful witness in R^3, so the audit must
    # abstain there rather than refute, and it realizes the graph in R^4.
    edges = [(0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (1, 8), (1, 9), (2, 8), (4, 8), (4, 9)]
    g = Graph(10, edges, bipartition_a=frozenset(range(5)))
    r = faithful_dim_audit(g, 3)
    assert r.verdict == "UNDECIDED" and r.embedding is None
    assert r.k_lower == r.k_upper == 1
    assert "construction" not in [rule["rule"] for rule in r.rule_chain]
    found = solve_faithful(g, 3, SolverConfig(seed=0, restarts=20))
    assert verify(g, found.embedding, mode="faithful", tol=1e-7).passed
    _assert_verified_witness(g, faithful_dim_audit(g, 4), 4)


def _refutation_chain(m, s):
    """The rule chain that refutes K'_d, K''_d (m = d, s = 3) and the remark
    graph (m = d + 2, s = 1) in R^d: the chain through all m ground points
    bounds k from below by m - 2, and s full-degree vertices add their offset."""
    k = max(m - 2, 1)
    chain = [{"rule": "R1", "params": {"side": "A", "m": m}}]
    if m >= 4:
        chain.append({"rule": "R2_chain",
                      "params": {"side": "A", "chain": list(range(m)), "length": m}})
    offset = min(s, 3)
    chain.append({"rule": "s_offset", "params": {
        "side": "A", "s": s, "offset": offset, "required_d": k + offset}})
    return chain


def test_audit_sweep_refutes_at_d_and_realizes_at_d_plus_one():
    # the 34-point sweep: kprime(3..10), kdoubleprime(3..8) and remark(3..5),
    # each at d and d + 1
    sweep = ([(make_kprime(d), d, d, 3) for d in range(3, 11)]
             + [(make_kdoubleprime(d), d, d, 3) for d in range(3, 9)]
             + [(make_remark_graph(d), d, d + 2, 1) for d in range(3, 6)])
    undecided = []
    for g, d, m, s in sweep:
        r = faithful_dim_audit(g, d)
        assert r.verdict == "NOT_REALIZABLE", (g.n, d)
        assert [dict(rule) for rule in r.rule_chain] == _refutation_chain(m, s)
        r = faithful_dim_audit(g, d + 1)
        if r.verdict == "UNDECIDED":
            undecided.append((g.n, d + 1))
        else:
            _assert_verified_witness(g, r, d + 1)
    assert len(undecided) <= 3, undecided


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


@pytest.mark.parametrize("leaves", [3, 4, 5])
def test_audit_realizes_stars_in_the_plane(leaves):
    # the leaves' side of K_{1,t} has a one-vertex ground: its full-degree
    # vertices lie on the unit circle about it, so the plane is enough
    star = make_complete_multipartite([1, leaves])
    for a in (None, {0}, set(range(1, leaves + 1))):
        g = Graph(star.n, star.edges, bipartition_a=a)
        r = faithful_dim_audit(g, 2)
        assert r.verdict == "REALIZABLE", a
        assert verify(g, r.embedding, mode="faithful", tol=1e-7).passed


def test_star_plus_isolated_vertex_is_realizable_in_the_plane():
    # K_{1,3} + K_1 is faithful in the plane: the audit realizes it when the
    # isolated vertex sits beside the centre, and the solver finds a witness
    star = make_complete_multipartite([1, 3])
    r = faithful_dim_audit(Graph(5, star.edges, bipartition_a={0, 4}), 2)
    assert r.verdict == "REALIZABLE"
    assert verify(Graph(5, star.edges), r.embedding, mode="faithful", tol=1e-7).passed
    found = solve_faithful(Graph(5, star.edges), 2, SolverConfig(seed=0))
    assert verify(Graph(5, star.edges), found.embedding, mode="faithful", tol=1e-7).passed


@pytest.mark.xfail(strict=True, reason=(
    "_construct_side builds in k + _offset(s) dimensions whatever d offers: "
    "with the isolated vertex beside the leaves, the centre's neighbourhood is "
    "not full and neither side builds in the plane"))
def test_star_plus_isolated_vertex_with_the_centre_alone_on_a():
    star = make_complete_multipartite([1, 3])
    r = faithful_dim_audit(Graph(5, star.edges, bipartition_a={0}), 2)
    assert r.verdict == "REALIZABLE"


def test_audit_one_vertex_ground_offsets():
    # S^(d-1) about the ground vertex holds one or two full-degree vertices
    # from d = 1 on and three from d = 2 on
    p3 = make_complete_multipartite([1, 2])
    assert faithful_dim_audit(Graph(3, p3.edges), 1).verdict == "UNDECIDED"
    r = faithful_dim_audit(Graph(4, p3.edges, bipartition_a={1, 2, 3}), 1)
    assert r.verdict == "UNDECIDED"
    assert r.rule_chain[-1] == {"rule": "s_offset", "params": {
        "side": "A", "s": 2, "offset": 1, "required_d": 1}}
    assert faithful_dim_audit(p3, 0).verdict == "NOT_REALIZABLE"
    assert faithful_dim_audit(make_complete(2), 0).verdict == "NOT_REALIZABLE"
    r = faithful_dim_audit(make_complete_multipartite([1, 3]), 1)
    assert r.verdict == "NOT_REALIZABLE"
    assert r.rule_chain[-1]["params"]["required_d"] == 2


def _proper_bipartitions(g):
    """Every vertex set A with each edge of g crossing from A to the rest."""
    for k in range(g.n + 1):
        for a in combinations(range(g.n), k):
            if all((u in a) != (v in a) for u, v in g.edges):
                yield frozenset(a)


def test_audit_in_the_point_space():
    # R^0 is one point: every bipartite graph on at most one vertex is
    # realizable there and every one on two or more is not, under every
    # bipartition; a refutation the offset rule already makes is kept
    for n in range(5):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = _graph_of_mask(mask, n)
            for a in _proper_bipartitions(g):
                ga = Graph(n, g.edges, bipartition_a=a)
                r = faithful_dim_audit(ga, 0)
                last = r.rule_chain[-1]
                if n <= 1:
                    assert r.verdict == "REALIZABLE" and r.embedding.dim == 0
                    assert verify(ga, r.embedding, mode="faithful", tol=1e-7).passed
                else:
                    assert r.verdict == "NOT_REALIZABLE" and r.embedding is None
                if last["rule"] != "s_offset":
                    assert last == {"rule": "point_space", "params": {"n": n}}


def test_audit_soundness_solver_cannot_beat_refutations():
    # wherever the audit refutes, the numeric solver must find no witness:
    # every bipartite graph on at most 5 vertices under every bipartition,
    # and two larger refutations
    cfg = SolverConfig(seed=0, restarts=20)
    beaten = {}
    for n in range(1, 6):
        canon = _canonical_masks(n)
        for mask in (m for m, c in enumerate(canon) if m == c):
            g = _graph_of_mask(mask, n)
            for a in _proper_bipartitions(g):
                ga = Graph(n, g.edges, bipartition_a=a)
                for d in (1, 2, 3):
                    if faithful_dim_audit(ga, d).verdict != "NOT_REALIZABLE":
                        continue
                    if (mask, n, d) not in beaten:
                        res = solve_faithful(g, d, cfg)
                        beaten[mask, n, d] = res.embedding is not None and verify(
                            g, res.embedding, mode="faithful", tol=1e-7).passed
                    assert not beaten[mask, n, d], (n, sorted(g.edges), sorted(a), d)
    assert beaten
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
