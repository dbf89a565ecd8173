import hashlib
import json

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


def test_one_graph_solve_bytes_are_pinned():
    # the realize path: a batch of one, no padding. Every FOUND witness and
    # residual below is the bytes of its descent, so any change to the float
    # operations of one Levenberg-Marquardt iteration must be deliberate
    cases = [(_graph_of_mask(m, 4), 2) for m in sorted(set(_canonical_masks(4))) if m != 63]
    cases += [(_graph_of_mask(m, 5), 3) for m in (7, 31, 63, 127, 184, 191, 223, 255, 495, 511)]
    cases.append((make_complete(4), 2))  # NOT_FOUND on the 2/3 floor, 200 restarts
    docs = [json.dumps(solve_faithful(g, d, SolverConfig(seed=k % 3)).to_dict(), sort_keys=True)
            for k, (g, d) in enumerate(cases)]
    assert json.loads(docs[-1])["best_residual"] == 0.6666666666666661
    assert hashlib.sha256("\n".join(docs).encode()).hexdigest() == (
        "fbacfe44d9ae6165f3387a3a009762687eb173c6abc72be68c39243175def8cf")


def test_solver_exit_paths_are_pinned():
    # rows that end by max_iters, a padded and tiled two-graph batch whose
    # rows leave at different iterations, and distance solves: the bytes of
    # each exit, so a change to the step's kernels must leave them unmoved
    results = [solve_faithful(make_complete(4), 2, SolverConfig(seed=0, restarts=4, max_iters=3))]
    results += solver.solve_many([make_complete(4), _C4], 2,
                                 SolverConfig(seed=1, restarts=8, max_iters=200))
    results += [solve_distance(g, d, SolverConfig(seed=2))
                for g, d in ((make_complete_multipartite([2, 3]), 2), (make_complete(4), 3))]
    docs = [json.dumps(r.to_dict(), sort_keys=True) for r in results]
    assert hashlib.sha256("\n".join(docs).encode()).hexdigest() == (
        "0130cb5f2e8727a24e32509c5e1481eebc883f74da8a386f81c5635e8bf12d31")


def test_residuals_round_as_np_einsum():
    # _residuals sums through numpy's private c_einsum, so this guards the
    # installed numpy: np.einsum's bits on (c, m, d) and (c, m) stacks
    rng = np.random.default_rng(0)
    for c, m, n, d in ((1, 1, 2, 1), (1, 6, 4, 2), (3, 10, 5, 3), (32, 15, 6, 5), (7, 21, 7, 4)):
        x = 10.0 ** rng.uniform(-3.0, 3.0) * rng.normal(size=(c, n, d))
        bt = rng.integers(-1, 2, size=(c, m, n)).astype(float)
        target = rng.integers(0, 2, size=(c, m)).astype(float)
        diff = bt @ x
        p = np.einsum("...i,...i->...", diff, diff) - target
        f = np.einsum("...i,...i->...", p, p)
        got = solver._residuals(x, bt, target)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in (diff, p, f)]


def test_a_refused_step_does_not_rebuild_the_jacobian(monkeypatch):
    # a refused step leaves every point where it was, so J^T J and J^T p carry
    # over; _residuals runs once per batch and once per trial step
    calls = {"_jacobian": 0, "_residuals": 0, "_run_batch": 0}
    for name in calls:
        def counting(*args, f=getattr(solver, name), name=name):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(solver, name, counting)
    res = solve_faithful(make_complete(4), 2)
    assert res.status == "NOT_FOUND" and res.restarts_used == 200
    steps = calls["_residuals"] - calls["_run_batch"]
    assert 0 < calls["_jacobian"] < steps, calls


@pytest.mark.parametrize("field, value", [
    ("restarts", 0), ("restarts", -2), ("max_iters", -1), ("seed", -1),
])
def test_config_rejects_values_out_of_range(field, value):
    # unchecked, max_iters=-1 runs no step and reports every graph NOT_FOUND,
    # and restarts=-2 fails inside numpy
    with pytest.raises(ValueError, match=f"SolverConfig.{field} must be at least"):
        SolverConfig(**{field: value})


def test_config_accepts_its_least_values():
    # no trial step: each restart settles where it was drawn
    res = solve_faithful(Graph(2, []), 1, SolverConfig(restarts=1, max_iters=0, seed=0))
    assert res.status == "FOUND" and res.restarts_used == 1


def _serial_lm(x, ei, ej, max_iters):
    """Reference: one restart's Levenberg-Marquardt iteration, run on its own.

    Returns the final point, its F and the number of trial steps taken. F is
    summed as the solver sums it, so that the accept test fn < f agrees bit
    for bit on a positive-F floor, where the two sides differ only by
    round-off."""
    n, d = x.shape
    edges = np.arange(len(ei))

    def residuals(y):
        diff = y[ei] - y[ej]
        p = np.einsum("ij,ij->i", diff, diff) - 1.0
        return diff, p, float(np.einsum("i,i->", p, p))

    diff, p, f = residuals(x)
    lam = 10.0
    steps = 0
    while steps < max_iters and f != 0.0:
        jac = np.zeros((len(ei), n, d))
        jac[edges, ei] = 2.0 * diff
        jac[edges, ej] = -2.0 * diff
        jac = jac.reshape(len(ei), -1)
        delta = np.linalg.solve(jac.T @ jac + lam * np.eye(n * d), -jac.T @ p)
        steps += 1
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
    return x, f, steps


_C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
_C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])


def test_batched_restarts_follow_their_serial_trajectories(monkeypatch):
    # _residuals runs once before the loop and once per trial step
    calls = [0]
    residuals = solver._residuals

    def counting(*args):
        calls[0] += 1
        return residuals(*args)

    monkeypatch.setattr(solver, "_residuals", counting)
    cfg = SolverConfig(seed=0, max_iters=200)
    restarts = np.arange(32)
    cases = [
        ([make_complete(4)], 2, [False]),  # every restart ends on the 2/3 floor
        ([make_complete(4)], 3, [True]),
        ([_C5], 2, [True]),
        # one mixed batch: C_4's rows are padded to K_4's six edge slots
        ([make_complete(4), _C4], 2, [False, True]),
    ]
    for graphs, d, roots in cases:
        n, width = graphs[0].n, max(g.m for g in graphs)
        x0 = np.stack([solver.INIT_SCALE * np.random.default_rng([cfg.seed, int(r)]).normal(size=(n, d))
                       for r in restarts])
        bt = np.zeros((len(graphs), width, n))
        for k, g in enumerate(graphs):
            bt[k, : g.m] = solver._incidence(g)
        target = (np.arange(width) < np.array([[g.m] for g in graphs])).astype(float)
        owner = np.repeat(np.arange(len(graphs)), restarts.size)
        final = {}

        def settle(k, r, x, f):
            final[k, r] = x.copy(), f, calls[0] - 1
            return np.full(len(graphs), np.inf)

        calls[0] = 0
        solver._run_batch(np.tile(x0, (len(graphs), 1, 1)), np.tile(restarts, len(graphs)),
                          owner, bt[owner], target[owner], cfg, settle)
        assert sorted(final) == [(k, r) for k in range(len(graphs)) for r in restarts]
        for k, g in enumerate(graphs):
            e = np.array(g.sorted_edges())

            def passes(x, f):
                return f <= solver.TOL_RESIDUAL and accepts(g, x, solver.MIN_SEPARATION,
                                                            solver.MARGIN_NONEDGE)

            passed = 0
            for r in restarts:
                x, f, steps = final[k, r]
                ref_x, ref_f, ref_steps = _serial_lm(x0[r], e[:, 0], e[:, 1], cfg.max_iters)
                assert abs(f - ref_f) <= 1e-9, (g.m, d, r, f, ref_f)
                assert steps == ref_steps, (g.m, d, r, steps, ref_steps)
                assert passes(x, f) == passes(ref_x, ref_f), (g.m, d, r)
                passed += passes(x, f)
            assert (passed > 0) == roots[k], (g.m, d, passed)


def _outcome(res):
    emb = None if res.embedding is None else res.embedding.to_json()
    return res.status, res.restarts_used, res.best_residual, res.residual, emb


@pytest.mark.parametrize("faithful", [True, False], ids=["faithful", "distance"])
def test_solve_many_matches_one_graph_solves(faithful):
    cfg = SolverConfig(seed=0, restarts=60)
    solve = solve_faithful if faithful else solve_distance
    # mixed edge counts, so every graph but K_4 (which exhausts) is padded
    mixed = [Graph(4, []), _C4, Graph(4, [(0, 1), (1, 2), (2, 3)]), make_complete(4)]
    many = solver.solve_many(mixed, 2, cfg, faithful)
    alone = [solve(g, 2, cfg) for g in mixed]
    assert [r.status for r in many] == ["FOUND", "FOUND", "FOUND", "NOT_FOUND"]
    assert [_outcome(r)[:2] for r in many] == [_outcome(r)[:2] for r in alone]
    # padding reorders the sums in J^T J, which moves a residual by round-off only
    for r, s in zip(many, alone):
        assert r.best_residual == pytest.approx(s.best_residual, rel=1e-12, abs=1e-30)
    # one edge count: no padding, so every byte is the one-graph solve's
    same_m = [Graph(4, [(0, 1), (1, 2), (2, 3)]), Graph(4, [(0, 1), (0, 2), (0, 3)]),
              Graph(4, [(0, 1), (1, 2), (0, 2)])]
    many = solver.solve_many(same_m, 2, cfg, faithful)
    assert [_outcome(r) for r in many] == [_outcome(solve(g, 2, cfg)) for g in same_m]


def test_solve_many_input_checks():
    assert solver.solve_many([], 2) == []
    with pytest.raises(ValueError, match="one vertex count"):
        solver.solve_many([Graph(3, []), Graph(4, [])], 2)
    with pytest.raises(ValueError, match="at least one vertex"):
        solver.solve_many([Graph(0, [])], 2)


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
