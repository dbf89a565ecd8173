import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from udgraph import geometry
from udgraph.geometry import (
    TOL_RANK,
    affine_rank,
    affine_ranks,
    as_points,
    circumradii,
    complementary_sphere,
    complementary_spheres,
    minimal_sphere,
    minimal_spheres,
    pairwise_distances,
    solve_stack,
    sphere_point,
)


def _rank_reference(points, tol=TOL_RANK):
    """Per-set affine rank: one SVD of one centered point set."""
    pts = as_points(points)
    if pts.shape[0] == 0:
        return -1
    sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    if sv.size == 0 or sv[0] <= 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def _point_set(rng, kind, t, d):
    """t points in R^d: generic, collinear, with a duplicate, or all equal."""
    if kind == "generic":
        return rng.normal(size=(t, d))
    if kind == "collinear":
        return rng.normal(size=d) + rng.normal(size=(t, 1)) * rng.normal(size=d)
    if kind == "duplicate":
        pts = rng.normal(size=(t, d))
        pts[-1] = pts[0]
        return pts
    return np.repeat(rng.normal(size=(1, d)), t, axis=0)


def test_affine_rank_basic_shapes():
    assert affine_rank([[0.0, 0.0]]) == 0
    assert affine_rank([[0, 0], [1, 0], [2, 0]]) == 1
    assert affine_rank([[0, 0], [1, 0], [0, 1]]) == 2
    assert affine_rank([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_affine_rank_rigid_motion_invariant():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(5, 3))
    pts[3] = 0.25 * pts[0] + 0.75 * pts[1]  # keep one affine dependency
    base = affine_rank(pts)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    moved = pts @ q + rng.normal(size=3)
    assert affine_rank(moved) == base


def test_minimal_sphere_pair_and_triangle():
    s = minimal_sphere([[-0.5, 0.0], [0.5, 0.0]])
    assert s.radius == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(s.center, [0.0, 0.0], atol=1e-12)

    # equilateral side 1: circumradius 1/sqrt(3)
    tri = [[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]]
    s = minimal_sphere(tri)
    assert s.radius == pytest.approx(1 / np.sqrt(3), abs=1e-12)


def test_minimal_sphere_regular_simplex():
    # unit-edge regular tetrahedron has circumradius sqrt(3/8)
    pts = np.array([
        [1, 1, 1],
        [1, -1, -1],
        [-1, 1, -1],
        [-1, -1, 1],
    ]) / (2 * np.sqrt(2))
    s = minimal_sphere(pts)
    assert s.radius == pytest.approx(np.sqrt(3.0 / 8.0), abs=1e-12)


def test_complementary_sphere_unit_distances():
    # points at distance 1 from both (+-0.5, 0): the two apexes in R^2
    base = minimal_sphere([[-0.5, 0.0], [0.5, 0.0]])
    comp = complementary_sphere(base, 2)
    assert len(comp.basis) == 1  # a 0-sphere: the two apexes
    assert comp.radius == pytest.approx(np.sqrt(0.75), abs=1e-12)
    u = comp.basis[0]
    for sign in (1.0, -1.0):
        apex = comp.center + sign * comp.radius * u
        for p in ([-0.5, 0.0], [0.5, 0.0]):
            assert np.linalg.norm(apex - p) == pytest.approx(1.0, abs=1e-12)


def test_complementary_sphere_rejects_too_large():
    base = minimal_sphere([[-1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        complementary_sphere(base, 2)


def test_complementary_sphere_rejects_full_dimensional():
    # a circle spanning R^2 and a point in R^0 leave nothing at unit
    # distance from all of their points
    t = np.array([0.0, 2.0, 4.0]) * np.pi / 3.0
    circle = minimal_sphere(0.5 * np.stack([np.cos(t), np.sin(t)], axis=1))
    assert len(circle.basis) == 2
    with pytest.raises(ValueError):
        complementary_sphere(circle, 2)
    with pytest.raises(ValueError):
        complementary_sphere(minimal_sphere(np.zeros((1, 0))), 0)
    # the same circle inside R^3 keeps its axis: two poles at height sqrt(3)/2
    lifted = minimal_sphere(np.pad(circle.center + 0.5 * np.stack(
        [np.cos(t), np.sin(t)], axis=1), ((0, 0), (0, 1))))
    comp = complementary_sphere(lifted, 3)
    assert len(comp.basis) == 1
    assert comp.radius == pytest.approx(np.sqrt(0.75), abs=1e-12)


def test_sphere_point_lands_on_sphere_deterministically():
    base = minimal_sphere([[0.1, 0.2, 0.0], [0.3, -0.1, 0.2], [0.0, 0.0, 0.4]])
    comp = complementary_sphere(base, 3)
    a = sphere_point(comp, np.random.default_rng(11))
    b = sphere_point(comp, np.random.default_rng(11))
    np.testing.assert_array_equal(a, b)
    assert np.linalg.norm(a - comp.center) == pytest.approx(comp.radius, abs=1e-9)


def test_pairwise_distances_matches_manual():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    d = pairwise_distances(pts)
    assert d[0, 1] == pytest.approx(5.0)
    assert d[1, 0] == pytest.approx(5.0)
    assert d[0, 2] == pytest.approx(np.sqrt(2.0))
    assert np.all(np.diag(d) == 0)


def test_as_points_rejects_ragged_input():
    with pytest.raises(ValueError):
        as_points([[0.0], [1.0, 2.0]])
    single = as_points([1.0, 2.0])
    assert single.shape == (1, 2)
    with pytest.raises(ValueError, match=r"\(m, d\) array"):
        as_points(np.zeros((2, 2, 2)))


def test_minimal_spheres_rejects_sets_of_no_points():
    with pytest.raises(ValueError, match="t >= 1"):
        minimal_spheres(np.zeros((3, 0, 2)))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 6),
    t=st.integers(1, 7),
    d=st.integers(1, 4),
    kinds=st.lists(st.sampled_from(["generic", "collinear", "duplicate", "equal"]),
                   min_size=1, max_size=3),
)
def test_affine_ranks_matches_per_set_reference(seed, k, t, d, kinds):
    # t = 1 and t - 1 > d come up alongside collinear and repeated points
    rng = np.random.default_rng(seed)
    stack = np.stack([_point_set(rng, kinds[i % len(kinds)], t, d) for i in range(k)])
    expected = [_rank_reference(s) for s in stack]
    assert affine_ranks(stack).tolist() == expected
    assert [affine_rank(s) for s in stack] == expected


def test_affine_ranks_edge_shapes():
    assert affine_ranks(np.zeros((3, 0, 2))).tolist() == [-1, -1, -1]
    assert affine_ranks(np.zeros((2, 4, 0))).tolist() == [0, 0]
    assert affine_ranks(np.zeros((0, 3, 2))).tolist() == []
    assert affine_rank(np.zeros((0, 2))) == -1
    with pytest.raises(ValueError):
        affine_ranks(np.zeros((3, 2)))


def _svd_ranks(stack):
    """affine_ranks without the Gram determinant screen: one batched SVD."""
    centered = stack - stack.mean(axis=1, keepdims=True)
    sv = np.linalg.svd(centered, compute_uv=False)
    top = sv[:, :1]
    return np.where(top[:, 0] > 0.0, np.sum(sv > TOL_RANK * top, axis=1), 0)


def _outcome(ranks, stack):
    try:
        return ranks(stack).tolist()
    except Exception as exc:  # a RuntimeWarning under the suite's filter, or LinAlgError
        return type(exc), str(exc)


def _conditioned_set(rng, t, d, ratio):
    """t points in R^d, t > d, whose centred set has s_min / s_max = ratio:
    U diag(s) V^T with U's columns orthonormal and orthogonal to the ones
    vector, translated by a random offset."""
    q, _ = np.linalg.qr(np.hstack([np.ones((t, 1)), rng.normal(size=(t, d))]))
    v, _ = np.linalg.qr(rng.normal(size=(d, d)))
    s = np.linspace(1.0, 0.5, d)
    s[-1] = ratio
    return (q[:, 1:] * s) @ v.T + rng.normal(size=d)


def _screen_cases(rng, t, d):
    """Sets on both sides of the screen and of TOL_RANK, at every scale."""
    sets = [_point_set(rng, kind, t, d) for kind in ("generic", "collinear", "duplicate", "equal")]
    if t > d:
        sets += [_conditioned_set(rng, t, d, r) for r in (1e-3, 1e-5, 1e-7, 1e-8, 1e-9, 0.0)]
    sets.append(np.zeros((t, d)))
    return [scale * s for s in sets for scale in (1.0, 1e-30, 1e30)]


@pytest.mark.parametrize("t, d", [(5, 4), (6, 4), (4, 3), (9, 2), (3, 1), (2, 4), (4, 4), (1, 3)])
def test_affine_ranks_screen_matches_pure_svd(t, d):
    # the determinant screen decides only sets with s_min / s_max >= 1e-5;
    # every other set, at any scale, gets the same SVD verdict as before
    rng = np.random.default_rng([t, d])
    for _ in range(5):
        stack = np.stack(_screen_cases(rng, t, d))
        order = rng.permutation(len(stack))
        assert affine_ranks(stack).tolist() == _svd_ranks(stack).tolist()
        assert affine_ranks(stack[order]).tolist() == _svd_ranks(stack[order]).tolist()
        scaled = rng.normal(size=(40, t, d)) * 10.0 ** rng.uniform(-6, 6, size=(40, 1, 1))
        assert affine_ranks(scaled).tolist() == _svd_ranks(scaled).tolist()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("t, d", [(5, 4), (3, 4)])
def test_affine_ranks_screen_keeps_non_finite_outcomes(bad, t, d):
    # one non-finite coordinate or a whole non-finite set, among finite sets:
    # the same exception as the pure SVD, and the screen itself never warns
    rng = np.random.default_rng(0)
    for whole in (False, True):
        stack = rng.normal(size=(4, t, d))
        if whole:
            stack[2] = bad
        else:
            stack[2, 0, 0] = bad
        assert _outcome(affine_ranks, stack) == _outcome(_svd_ranks, stack)


def test_affine_ranks_screen_spares_the_svd_for_sets_in_general_position(monkeypatch):
    # generic sets never reach the SVD; a dependent one does, alone
    svd_rows = []
    svd = geometry._singular_values
    monkeypatch.setattr(geometry, "_singular_values", lambda a: svd_rows.append(len(a)) or svd(a))
    rng = np.random.default_rng(1)
    stack = rng.normal(size=(50, 5, 4))
    stack[7, 4] = 0.5 * (stack[7, 0] + stack[7, 1])
    assert affine_ranks(stack).tolist() == [4] * 7 + [3] + [4] * 42
    assert svd_rows == [1]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5), d=st.integers(1, 5),
       on_unit_sphere=st.booleans())
# ill-conditioned: a solve in rotated hull coordinates misses by 1.1e-12 here
@example(seed=165, k=3, d=4, on_unit_sphere=True)
def test_circumradii_matches_circumsphere(seed, k, d, on_unit_sphere):
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(k, d + 1, d))
    if on_unit_sphere:
        stack /= np.linalg.norm(stack, axis=2, keepdims=True)
        stack += rng.normal(size=(k, 1, d))
    assume(all(affine_rank(s) == d for s in stack))  # two equal points on S^0
    radii = circumradii(stack)
    for s, r in zip(stack, radii):
        expected = minimal_sphere(s).radius  # the per-set solve on an independent set
        assert abs(r - expected) <= 1e-12 * max(1.0, expected)
        if on_unit_sphere:
            assert abs(r - 1.0) <= 1e-9


def test_circumradii_rejects_wrong_shape():
    with pytest.raises(ValueError):
        circumradii(np.zeros((2, 3, 3)))


def _circumsphere(pts):
    """Sphere through affinely independent points, inside their hull: one SVD
    of the differences to the first point, one solve in hull coordinates
    (ambient ones when the points span R^d)."""
    if len(pts) == 1:
        return pts[0].copy(), 0.0, np.zeros((0, pts.shape[1]))
    diffs = pts[1:] - pts[0]
    basis = np.linalg.svd(diffs, full_matrices=False)[2][: len(diffs)]
    if len(diffs) == pts.shape[1]:
        basis = np.eye(pts.shape[1])
    y = diffs @ basis.T
    c = np.linalg.solve(2.0 * y, np.sum(y * y, axis=1))
    return pts[0] + basis.T @ c, float(np.linalg.norm(c)), basis


def _minimal_sphere_reference(points, tol=1e-7):
    """Greedy spanning subset and a per-point containment check."""
    pts = as_points(points)
    chosen = [0]
    for i in range(1, pts.shape[0]):
        if _rank_reference(pts[chosen + [i]]) == len(chosen):
            chosen.append(i)
    center, radius, basis = _circumsphere(pts[chosen])
    for p in pts:
        r = p - center
        if not (np.linalg.norm(r - basis.T @ (basis @ r)) <= tol
                and abs(np.linalg.norm(r) - radius) <= tol):
            raise ValueError("points do not lie on a common sphere")
    return center, radius, basis


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), k=st.integers(1, 4),
       n=st.integers(1, 7), nudge=st.booleans())
def test_minimal_sphere_matches_greedy_reference(seed, d, k, n, nudge):
    # n points on a k-sphere in R^d (k <= d - 1 after clipping), so both
    # independent sets and redundant ones come up; a nudged point leaves it
    rng = np.random.default_rng(seed)
    k = min(k, d - 1)
    frame = np.linalg.qr(rng.normal(size=(d, d)))[0][: k + 1]
    dirs = rng.normal(size=(n, k + 1))
    pts = rng.normal(size=d) + 0.7 * (dirs / np.linalg.norm(dirs, axis=1, keepdims=True)) @ frame
    if nudge:
        pts[-1] += 1e-3 * rng.normal(size=d)
    try:
        expected = _minimal_sphere_reference(pts)
    except ValueError:
        with pytest.raises(ValueError):
            minimal_sphere(pts)
        return
    center, radius, basis = expected
    got = minimal_sphere(pts)
    assert got.radius == radius
    np.testing.assert_array_equal(got.center, center)
    np.testing.assert_array_equal(got.basis, basis)


def test_minimal_sphere_of_an_independent_set_takes_one_svd(monkeypatch):
    # 4 generic points in R^4: the SVD of the differences to the first point
    # decides independence, so the greedy extraction's affine_rank never runs
    pts = np.random.default_rng(3).normal(size=(4, 4))
    center, radius, basis = _minimal_sphere_reference(pts)

    def greedy(points):
        raise AssertionError("an independent set took the greedy path")

    monkeypatch.setattr("udgraph.geometry.affine_rank", greedy)
    got = minimal_sphere(pts)
    assert got.radius == radius
    np.testing.assert_array_equal(got.center, center)
    np.testing.assert_array_equal(got.basis, basis)


def test_minimal_sphere_of_concyclic_points_takes_the_greedy_path(monkeypatch):
    # n = d + 1 = 4 points on one circle in R^3 are dependent: the greedy
    # subset gives their circle, equal to the reference's
    rng = np.random.default_rng(4)
    frame = np.linalg.qr(rng.normal(size=(3, 3)))[0][:2]
    t = np.array([0.3, 1.4, 2.9, 4.4])
    pts = rng.normal(size=3) + 0.6 * np.column_stack([np.cos(t), np.sin(t)]) @ frame
    center, radius, basis = _minimal_sphere_reference(pts)
    ranks = []
    monkeypatch.setattr("udgraph.geometry.affine_rank",
                        lambda points: ranks.append(len(points)) or affine_rank(points))
    got = minimal_sphere(pts)
    assert ranks == [2, 3, 4]
    assert got.radius == radius and abs(radius - 0.6) < 1e-12
    assert got.basis.shape == (2, 3)
    np.testing.assert_array_equal(got.center, center)
    np.testing.assert_array_equal(got.basis, basis)


def test_minimal_sphere_rejects_a_point_off_the_flat():
    # a circle of radius 1000 in the plane z = 0 and a fifth point 1e-6 above
    # it at the right distance from the center: the relative rank cutoff calls
    # the five coplanar, but the point sits off the circle's plane by more
    # than tol
    angles = np.array([0.1, 1.2, 2.3, 3.4])
    pts = np.column_stack([1e3 * np.cos(angles), 1e3 * np.sin(angles), np.zeros(4)])
    lift = np.array([1e3 * np.cos(4.5), 1e3 * np.sin(4.5), 0.0])
    lift *= np.sqrt(1e6 - 1e-12) / 1e3
    lift[2] = 1e-6
    pts = np.vstack([pts, lift])
    assert affine_rank(pts) == 2
    for fn in (minimal_sphere, _minimal_sphere_reference):
        with pytest.raises(ValueError, match="common sphere"):
            fn(pts)


def _sphere_set(rng, kind, t, d):
    """t points in R^d: "generic" (independent up to t = d + 1), on one
    random circle ("concyclic", dependent from t = 4 on), with a repeated
    point ("dependent"), or on a circle but one point nudged off it
    ("off_sphere", on no common sphere from t = 4 on)."""
    if kind == "generic":
        return 0.3 * rng.normal(size=(t, d))
    if d == 1:  # a line holds no circle: two points and repeats of them
        pts = 0.3 * rng.normal(size=(t, 1))
        pts[2:] = pts[rng.integers(0, 2, size=max(t - 2, 0))]
        return pts
    frame = np.linalg.qr(rng.normal(size=(d, d)))[0][:2]
    angles = rng.uniform(0.0, 2.0 * np.pi, size=t)
    pts = rng.normal(size=d) + 0.4 * np.column_stack([np.cos(angles), np.sin(angles)]) @ frame
    if kind == "dependent" and t >= 2:
        pts[-1] = pts[0]
    if kind == "off_sphere":
        pts[-1] += 1e-3 * rng.normal(size=d)
    return pts


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5), d=st.integers(1, 5),
       extra=st.integers(0, 6),
       kinds=st.lists(st.sampled_from(["generic", "concyclic", "dependent", "off_sphere"]),
                      min_size=1, max_size=4))
def test_stacked_spheres_equal_the_per_set_spheres(seed, k, d, extra, kinds):
    # t = 1..d+1 points per set and beyond; a stack mixes full-dimensional,
    # independent, dependent and non-concyclic sets, and every entry is the
    # per-set sphere (or its ValueError) bit for bit
    rng = np.random.default_rng(seed)
    t = 1 + extra % (d + 2)
    stack = np.stack([_sphere_set(rng, kinds[i % len(kinds)], t, d) for i in range(k)])
    got = minimal_spheres(stack)
    assert len(got) == k
    by_rank: dict = {}
    for pts, sphere in zip(stack, got):
        try:
            want = minimal_sphere(pts)
        except ValueError as exc:
            assert isinstance(sphere, ValueError) and str(sphere) == str(exc)
            continue
        assert sphere.radius == want.radius
        assert np.array_equal(sphere.center, want.center)
        assert np.array_equal(sphere.basis, want.basis)
        if sphere.radius < 1.0 and len(sphere.basis) < d:
            by_rank.setdefault(len(sphere.basis), []).append(sphere)
    for group in by_rank.values():
        for comp, s in zip(complementary_spheres(group), group):
            want = complementary_sphere(s, d)
            assert comp.radius == want.radius
            assert np.array_equal(comp.center, want.center)
            assert np.array_equal(comp.basis, want.basis)


def test_complementary_spheres_reject_what_complementary_sphere_rejects():
    pair = minimal_sphere([[-0.5, 0.0], [0.5, 0.0]])
    wide = minimal_sphere([[-1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="radius < 1"):
        complementary_spheres([pair, wide])
    triangle = minimal_sphere([[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]])
    with pytest.raises(ValueError, match="spanning the ambient space"):
        complementary_spheres([triangle])
    with pytest.raises(ValueError, match="ambient space"):
        complementary_sphere(pair, 3)


def test_solve_stack_is_np_linalg_solve_bit_for_bit():
    # solve_stack calls numpy's private solve gufunc, so this guards the
    # installed numpy: the public wrapper's bits on random float64 stacks
    rng = np.random.default_rng(0)
    for _ in range(3000):
        k, m, cols = (int(v) for v in rng.integers((1, 1, 1), (41, 16, 3)))
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        a, b = scale * rng.normal(size=(k, m, m)), scale * rng.normal(size=(k, m, cols))
        got, want = solve_stack(a, b), np.linalg.solve(a, b)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_solve_stack_raises_on_a_singular_stack_as_np_linalg_solve_does():
    a, b = np.zeros((3, 4, 4)), np.ones((3, 4, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no RuntimeWarning on the way
        for solve in (np.linalg.solve, solve_stack):
            with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
                solve(a, b)


def _bits(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("k, t, d", [(6, 2, 4), (6, 4, 4), (6, 7, 4), (3, 1, 3), (3, 3, 1),
                                     (0, 2, 4), (0, 4, 4), (0, 7, 4)])
def test_lapack_kernels_are_np_linalg_bit_for_bit(k, t, d):
    # geometry calls numpy's private SVD and det gufuncs, so this guards the
    # installed numpy: the public functions' bits on random float64 stacks,
    # generic and rank-deficient, at scales from 1e-6 to 1e6
    rng = np.random.default_rng([k, t, d])
    for _ in range(60):
        a = 10.0 ** rng.uniform(-6.0, 6.0) * rng.normal(size=(k, t, d))
        if k and t > 1 and rng.random() < 0.5:
            a[:, -1] = a[:, 0]
        assert _bits(geometry._svd_reduced(a)) == _bits(np.linalg.svd(a, full_matrices=False))
        assert _bits(geometry._svd_full(a)) == _bits(np.linalg.svd(a))
        assert _bits([geometry._singular_values(a)]) == _bits([np.linalg.svd(a, compute_uv=False)])
        gram = a.transpose(0, 2, 1) @ a
        det = geometry._umath_linalg.det(gram, signature="d->d")
        assert _bits([det]) == _bits([np.linalg.det(gram)])


def test_svd_kernels_raise_on_a_non_finite_stack_as_np_linalg_svd_does():
    # nan only: LAPACK's SVD may never return on an infinite entry
    a = np.random.default_rng(0).normal(size=(3, 4, 5))
    a[1, 0, 0] = np.nan
    public = (np.linalg.svd, lambda a: np.linalg.svd(a, full_matrices=False),
              lambda a: np.linalg.svd(a, compute_uv=False))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no RuntimeWarning on the way
        for svd in (*public, geometry._svd_full, geometry._svd_reduced, geometry._singular_values):
            with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
                svd(a)


def test_inline_norms_and_means_are_numpy_s_bit_for_bit():
    # the norms and means geometry and embed write out as expressions
    rng = np.random.default_rng(0)
    for _ in range(500):
        k, t, d = (int(v) for v in rng.integers(1, 8, size=3))
        x = 10.0 ** rng.uniform(-6.0, 6.0) * rng.normal(size=(k, t, d))
        v, rows = x[0, 0], x[0]
        assert _bits([np.sqrt(v.dot(v))]) == _bits([np.linalg.norm(v)])
        assert (_bits([np.sqrt(np.add.reduce(rows * rows, axis=1))])
                == _bits([np.linalg.norm(rows, axis=1)]))
        assert (_bits([np.sqrt(np.add.reduce(rows * rows, axis=1, keepdims=True))])
                == _bits([np.linalg.norm(rows, axis=1, keepdims=True)]))
        assert _bits([np.sqrt(np.add.reduce(x * x, axis=2))]) == _bits([np.linalg.norm(x, axis=2)])
        assert (_bits([np.add.reduce(x, axis=1, keepdims=True) / t])
                == _bits([x.mean(axis=1, keepdims=True)]))
        assert _bits([np.add.reduce(rows, axis=0) / t]) == _bits([rows.mean(axis=0)])
