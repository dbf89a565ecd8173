"""Acceptance gate: one test per acceptance criterion, one PASS line each.

Every test prints a single summary line (visible with pytest -s or in the
captured output of a failing run) and asserts the criterion at its stated
tolerance and runtime budget.
"""

import json
import math
import time

import numpy as np

from udgraph import census
from udgraph.audit import faithful_dim_audit, lemedge2_guarantee, lemedge_bound
from udgraph.census import (
    count_faithful,
    linear_forest_oracle,
    ramsey_fd_lower,
    zero_pattern_bound,
)
from udgraph.census import _graph_of_mask
from udgraph.embed import embed_bipartite_faithful, embed_colorable
from udgraph.graphs import (
    Graph,
    exact_coloring,
    make_complete_multipartite,
    make_kdoubleprime,
    make_kprime,
    make_petersen,
    make_remark_graph,
)
from udgraph.solver import SolverConfig, gradient_check, solve_faithful, solve_many
from udgraph.verify import verify


def test_criterion_1_orthogonal_circles_petersen():
    t0 = time.perf_counter()
    g = make_petersen()
    classes = exact_coloring(g)
    assert len(classes) == 3
    emb = embed_colorable(g, classes)
    assert emb.dim == 6
    devs = [abs(float(np.linalg.norm(emb.points[u] - emb.points[v])) - 1.0) for u, v in g.edges]
    assert len(devs) == 15
    assert max(devs) <= 1e-9
    assert verify(g, emb, mode="distance", tol=1e-9).passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: Petersen chi=3 -> R^6, 15 edges within "
          f"{max(devs):.2e} of unit, {elapsed:.2f}s")


def _random_bipartite_instance(seed):
    """Seeded (|A|=12, |B|=8, degrees <= 4, no three degree-4 twins) graph."""
    rng = np.random.default_rng([977, seed])
    while True:
        edges = []
        nbhds = []
        for a in range(12):
            deg = int(rng.integers(1, 5))
            nb = sorted(int(b) for b in rng.choice(8, size=deg, replace=False))
            nbhds.append(tuple(nb))
            edges.extend((a, 12 + b) for b in nb)
        full = {}
        for nb in nbhds:
            if len(nb) == 4:
                full[nb] = full.get(nb, 0) + 1
        if all(c <= 2 for c in full.values()):
            return Graph(20, edges)


def test_criterion_2_bipartite_faithful_batch():
    t0 = time.perf_counter()
    worst_edge = 0.0
    worst_margin = np.inf
    for i in range(100):
        g = _random_bipartite_instance(i)
        emb = embed_bipartite_faithful(g, 4, seed=i)
        report = verify(g, emb, mode="faithful", tol=1e-7)
        assert report.passed, f"instance {i} failed: {report.violations[:3]}"
        for u in range(g.n):
            for v in range(u + 1, g.n):
                dev = abs(float(np.linalg.norm(emb.points[u] - emb.points[v])) - 1.0)
                if g.has_edge(u, v):
                    worst_edge = max(worst_edge, dev)
                else:
                    worst_margin = min(worst_margin, dev)
    assert worst_edge <= 1e-7
    assert worst_margin >= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\n[PASS] criterion 2: 100/100 faithful in R^4 (worst edge dev "
          f"{worst_edge:.2e}, worst non-edge margin {worst_margin:.2e}), {elapsed:.1f}s")


def test_criterion_3_audits_and_solver_consistency():
    t0 = time.perf_counter()
    assert faithful_dim_audit(make_complete_multipartite([3, 3]), 3).verdict == "NOT_REALIZABLE"
    for d in range(4, 9):
        assert faithful_dim_audit(make_kprime(d), d).verdict == "NOT_REALIZABLE"
    cfg = SolverConfig(seed=0, restarts=60, max_iters=1500)
    for d in (4, 5):
        res = solve_faithful(make_kprime(d), d + 1, cfg)
        assert res.status == "FOUND", f"kprime({d}) in R^{d+1}: {res.best_residual}"
        assert verify(make_kprime(d), res.embedding, mode="faithful", tol=1e-6).passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\n[PASS] criterion 3: K_33@3 and kprime(4..8)@d refuted, "
          f"kprime(4,5)@d+1 found, {elapsed:.1f}s")


def test_criterion_4_census_exactness(monkeypatch):
    t0 = time.perf_counter()
    r41 = count_faithful(4, 1)
    assert r41.count_realizable == 34
    assert r41.exact
    # solver agreement on all 64 labelled graphs at d=1
    cfg = SolverConfig(seed=0, restarts=30, max_iters=600)
    for mask in range(64):
        g = _graph_of_mask(mask, 4)
        oracle = linear_forest_oracle(g)
        solved = solve_faithful(g, 1, cfg).status == "FOUND"
        assert oracle == solved, f"disagreement at mask {mask}"
    assert count_faithful(3, 2, SolverConfig(seed=0, restarts=40)).count_realizable == 8
    solver_inputs = []

    def recording_solve(graphs, *args, **kwargs):
        solver_inputs.extend(graphs)
        return solve_many(graphs, *args, **kwargs)

    monkeypatch.setattr(census, "solve_many", recording_solve)
    r42 = count_faithful(4, 2)  # default config: 200 restarts
    assert r42.count_realizable == 63
    assert not [e for e in r42.entries if e.method == "SOLVER_EXHAUSTED"]
    k4_mask = (1 << 6) - 1
    k4 = r42.entries[k4_mask]
    assert (k4.status, k4.method) == ("NOT_REALIZABLE", "CERTIFIED_RULE")
    assert k4.rule == {"rule": "simplex", "params": {"k": 4}}
    assert [e.mask for e in r42.entries if e.status != "REALIZABLE"] == [k4_mask]
    assert solver_inputs and all(g.m < 6 for g in solver_inputs)  # the solver never sees K_4
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"\n[PASS] criterion 4: count(4,1)=34 with 64/64 solver agreement, "
          f"count(3,2)=8, count(4,2)=63 with K_4 refuted by simplex, {elapsed:.0f}s")


def test_criterion_5_zero_pattern_bound():
    b41 = zero_pattern_bound(4, 1)
    b42 = zero_pattern_bound(4, 2)
    assert b41 == 495 and b41 >= 34
    assert b42 == 495 and b42 >= 63
    assert isinstance(b41, int) and isinstance(b42, int)
    assert zero_pattern_bound(20, 2) == math.comb(380, 40)  # big-int exactness
    print(f"\n[PASS] criterion 5: zero-pattern bounds 495 >= 34 and 495 >= 63, exact integers")


def test_criterion_6_bound_formulas():
    assert [lemedge_bound(k) for k in (1, 2, 3, 4)] == [3, 7, 12, 18]
    assert lemedge2_guarantee([3, 4, 5]) == (3, 4)  # realizable on S^4
    for d in range(4, 11):
        assert make_kdoubleprime(d).m == math.comb(d + 3, 2) - 6
        assert make_remark_graph(d).m == math.comb(d + 3, 2)
    print("\n[PASS] criterion 6: lemedge bounds 3,7,12,18; guarantee (3, S^4); "
          "edge counts exact for d=4..10")


def test_criterion_7_solver_integrity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        worst = max(worst, gradient_check(g, d, seed=i))
    assert worst < 1e-5
    # byte-identical JSON across same-seed runs
    g = make_kprime(4)
    runs = []
    for _ in range(2):
        emb = embed_bipartite_faithful(g, 5, seed=42)
        res = solve_faithful(g, 5, SolverConfig(seed=42, restarts=10))
        runs.append(emb.to_json() + json.dumps(res.to_dict(), sort_keys=True))
    assert runs[0] == runs[1]
    elapsed = time.perf_counter() - t0
    print(f"\n[PASS] criterion 7: gradient check worst {worst:.2e} over 50 instances; "
          f"same-seed JSON byte-identical, {elapsed:.1f}s")


def test_criterion_8_ramsey_calculators():
    # the exact Ramsey number is s for s <= 3 in every R^d: each graph on s
    # vertices or its complement is a linear forest, faithful on the line
    for s in (2, 3):
        full = (1 << math.comb(s, 2)) - 1
        assert all(linear_forest_oracle(_graph_of_mask(mask, s))
                   or linear_forest_oracle(_graph_of_mask(full ^ mask, s))
                   for mask in range(full + 1))
    for s, d in ((3, 1), (6, 1), (8, 2)):
        m = ramsey_fd_lower(s, d)
        full = 1 << math.comb(s, 2)
        try:
            bound = min(full, zero_pattern_bound(s, d))
        except ValueError:
            bound = full
        assert math.comb(m, s) * 2 * bound < full
        assert math.comb(m + 1, s) * 2 * bound >= full
    assert ramsey_fd_lower(3, 1) == 2
    assert ramsey_fd_lower(6, 1) == 5
    assert ramsey_fd_lower(8, 2) == 7
    print("\n[PASS] criterion 8: every graph on 2 or 3 vertices or its complement is a "
          "linear forest; lower-bound inequality tight at (3,1),(6,1),(8,2)")
