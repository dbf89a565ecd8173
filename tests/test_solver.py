import numpy as np
import pytest

from udgraph import solver
from udgraph.census import _canonical_masks, _graph_of_mask
from udgraph.graphs import Graph, make_complete, make_complete_multipartite
from udgraph.solver import (
    SolverConfig,
    gradient,
    gradient_check,
    objective,
    solve_distance,
    solve_faithful,
)
from udgraph.verify import accepts, verify


def test_objective_zero_on_exact_embedding():
    g = make_complete(3)
    pts = np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
    assert objective(g, pts) < 1e-30


def test_objective_positive_off_unit():
    g = Graph(2, [(0, 1)])
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert objective(g, pts) == pytest.approx(9.0)  # (4 - 1)^2


def test_gradient_matches_finite_differences():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        d = int(rng.integers(1, 4))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        assert gradient_check(g, d, seed=seed) < 1e-5


def test_gradient_shape_and_zero_at_minimum():
    g = make_complete(2)
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    grad = gradient(g, pts)
    assert grad.shape == (2, 2)
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)


def test_solve_k4_in_r3():
    g = make_complete(4)
    res = solve_faithful(g, 3, SolverConfig(seed=0))
    assert res.status == "FOUND"
    assert res.residual <= 1e-12
    assert verify(g, res.embedding, mode="faithful", tol=1e-7).passed


def test_solve_k4_in_plane_fails_with_residual_floor():
    g = make_complete(4)
    res = solve_faithful(g, 2, SolverConfig(seed=0, restarts=40))
    assert res.status == "NOT_FOUND"
    assert res.embedding is None
    # the plane forces one pair off unit length; the floor is 2/3
    assert res.best_residual == pytest.approx(2.0 / 3.0, abs=1e-3)


def test_solve_faithful_respects_nonedge_margin():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    res = solve_faithful(g, 2, SolverConfig(seed=3))
    assert res.status == "FOUND"
    pts = res.embedding.points
    for i in range(4):
        for j in range(i + 1, 4):
            if not g.has_edge(i, j):
                assert abs(np.linalg.norm(pts[i] - pts[j]) - 1.0) >= 1e-3


def test_solve_distance_allows_nonedge_units():
    # C_6 wrapped onto a triangle is a legal distance realization; the
    # distance mode only needs edges at unit length
    g = Graph(3, [(0, 1), (1, 2), (2, 0)])
    res = solve_distance(g, 2, SolverConfig(seed=0))
    assert res.status == "FOUND"
    # the accept gate holds every edge within the 1e-7 that `udgraph verify`
    # publishes (a residual of 1e-12 alone would allow about 5e-7)
    assert verify(g, res.embedding, mode="distance", tol=1e-7).passed


def test_solver_deterministic():
    g = make_complete(4)
    a = solve_faithful(g, 3, SolverConfig(seed=11))
    b = solve_faithful(g, 3, SolverConfig(seed=11))
    assert a.status == b.status == "FOUND"
    assert a.embedding.to_json() == b.embedding.to_json()
    assert a.restarts_used == b.restarts_used


def test_not_found_reports_best_residual():
    g = make_complete(5)
    res = solve_faithful(g, 2, SolverConfig(seed=0, restarts=10, max_iters=400))
    assert res.status == "NOT_FOUND"
    assert res.best_residual > 1e-3
    d = res.to_dict()
    assert d["status"] == "NOT_FOUND"
    assert d["best_residual"] == res.best_residual


def test_solver_rejects_bad_dimension():
    with pytest.raises(ValueError):
        solve_faithful(make_complete(3), 0)


def _serial_lm(x, ei, ej, max_iters):
    """Reference: one restart's Levenberg-Marquardt iteration, run on its own."""
    n, d = x.shape
    edges = np.arange(len(ei))

    def residuals(y):
        diff = y[ei] - y[ej]
        p = np.einsum("ij,ij->i", diff, diff) - 1.0
        return diff, p, float(np.dot(p, p))

    diff, p, f = residuals(x)
    lam = 10.0
    for _ in range(max_iters):
        if f == 0.0:
            break
        jac = np.zeros((len(ei), n, d))
        jac[edges, ei] = 2.0 * diff
        jac[edges, ej] = -2.0 * diff
        jac = jac.reshape(len(ei), -1)
        delta = np.linalg.solve(jac.T @ jac + lam * np.eye(n * d), -jac.T @ p)
        xn = x + delta.reshape(n, d)
        dn, pn, fn = residuals(xn)
        if fn < f:
            x, diff, p, f = xn, dn, pn, fn
            lam = max(lam / 10.0, 1e-12)
        elif f <= solver.TOL_RESIDUAL:
            break
        else:
            lam *= 10.0
        if lam >= 1e12:
            break
    return x, f


def test_batched_restarts_follow_their_serial_trajectories():
    cfg = SolverConfig(seed=0, max_iters=200)
    rows = np.arange(32)
    cases = [
        (make_complete(4), 2, False),  # every restart ends on the 2/3 floor
        (make_complete(4), 3, True),
        (Graph(5, [(i, (i + 1) % 5) for i in range(5)]), 2, True),
    ]
    for g, d, roots in cases:
        x0 = np.stack([solver.INIT_SCALE * np.random.default_rng([cfg.seed, int(r)]).normal(size=(g.n, d))
                       for r in rows])
        final = {}

        def settle(r, x, f):
            final[r] = x.copy(), f
            return np.inf

        def passes(x, f):
            return f <= solver.TOL_RESIDUAL and accepts(g, x, solver.MIN_SEPARATION,
                                                        solver.MARGIN_NONEDGE)

        solver._run_batch(x0.copy(), rows, solver._incidence(g), cfg, settle)
        assert sorted(final) == rows.tolist()
        e = np.array(g.sorted_edges())
        passed = 0
        for r in rows:
            x, f = final[r]
            ref_x, ref_f = _serial_lm(x0[r], e[:, 0], e[:, 1], cfg.max_iters)
            assert abs(f - ref_f) <= 1e-9, (g.m, d, r, f, ref_f)
            assert passes(x, f) == passes(ref_x, ref_f), (g.m, d, r)
            passed += passes(x, f)
        assert (passed > 0) == roots, (g.m, d, passed)


@pytest.mark.parametrize("g, d, seeds", [
    (make_complete(4), 3, range(5)),
    (Graph(5, [(i, (i + 1) % 5) for i in range(5)]), 2, [0]),
    (make_complete_multipartite([3, 3]), 3, [0]),
    (make_complete(4), 2, [0]),
    # several restarts of one chunk are accepted here, and not in index order
    (make_complete_multipartite([2, 2]), 2, [0, 2]),
])
def test_result_does_not_depend_on_chunk_size(monkeypatch, g, d, seeds):
    def run(seed):
        res = solve_faithful(g, d, SolverConfig(seed=seed, restarts=40))
        emb = None if res.embedding is None else res.embedding.to_json()
        return res.status, emb, res.restarts_used, res.best_residual, res.residual

    batched = [run(seed) for seed in seeds]
    monkeypatch.setattr(solver, "_CHUNK", 1)
    assert [run(seed) for seed in seeds] == batched


_EDGE = Graph(2, [(0, 1)])
_NON_EDGE = Graph(2, [])


@pytest.mark.parametrize("margin", [None, solver.MARGIN_NONEDGE], ids=["distance", "faithful"])
@pytest.mark.parametrize("g, points, verdicts", [
    pytest.param(_NON_EDGE, [[0.0], [0.0]], (False, False), id="coincident"),
    # F = (2 * 5e-7)^2 = 1e-12 passes TOL_RESIDUAL but not `udgraph verify`
    pytest.param(_EDGE, [[0.0], [1.0 + 5e-7]], (False, False), id="edge-5e-7-off"),
    pytest.param(_EDGE, [[0.0], [1.0 + 5e-8]], (True, True), id="edge-5e-8-off"),
    pytest.param(_NON_EDGE, [[0.0], [1.0 + 5e-4]], (True, False), id="nonedge-inside-margin"),
    pytest.param(_EDGE, [[0.0], [np.nan]], (False, False), id="nan-coordinate"),
])
def test_gate_holds_edges_to_the_verify_tolerance(margin, g, points, verdicts):
    expected = verdicts[margin is not None]
    assert accepts(g, np.array(points), solver.MIN_SEPARATION, margin) is expected


@pytest.mark.parametrize("n, d", [(4, 2), (5, 3)])
def test_every_found_class_passes_verify(n, d):
    cfg = SolverConfig(seed=0, restarts=40, max_iters=600)
    found = 0
    for mask in sorted(set(_canonical_masks(n))):
        g = _graph_of_mask(mask, n)
        res = solve_faithful(g, d, cfg)
        if res.status == "FOUND":
            found += 1
            assert verify(g, res.embedding, mode="faithful", tol=1e-7).passed, mask
    assert found >= (10 if n == 4 else 30)
