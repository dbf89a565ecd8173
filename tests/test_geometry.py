import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from udgraph.geometry import (
    TOL_RANK,
    AffineFlat,
    affine_rank,
    affine_ranks,
    as_points,
    circumradii,
    circumsphere,
    complementary_sphere,
    minimal_sphere,
    pairwise_distances,
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
    assert comp.dim == 0
    assert comp.radius == pytest.approx(np.sqrt(0.75), abs=1e-12)
    u = comp.flat.basis[0]
    for sign in (1.0, -1.0):
        apex = comp.center + sign * comp.radius * u
        for p in ([-0.5, 0.0], [0.5, 0.0]):
            assert np.linalg.norm(apex - p) == pytest.approx(1.0, abs=1e-12)


def test_complementary_sphere_rejects_too_large():
    base = minimal_sphere([[-1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        complementary_sphere(base, 2)


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


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5), d=st.integers(1, 5),
       on_unit_sphere=st.booleans())
def test_circumradii_matches_circumsphere(seed, k, d, on_unit_sphere):
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(k, d + 1, d))
    if on_unit_sphere:
        stack /= np.linalg.norm(stack, axis=2, keepdims=True)
        stack += rng.normal(size=(k, 1, d))
    assume(all(affine_rank(s) == d for s in stack))  # two equal points on S^0
    radii = circumradii(stack)
    for s, r in zip(stack, radii):
        expected = circumsphere(s).radius
        assert abs(r - expected) <= 1e-12 * max(1.0, expected)
        if on_unit_sphere:
            assert abs(r - 1.0) <= 1e-9


def test_circumradii_rejects_wrong_shape():
    with pytest.raises(ValueError):
        circumradii(np.zeros((2, 3, 3)))


def test_affine_flat_rejects_nearly_orthonormal_basis():
    # Gram diagonal 1 + 8e-6: within a 1e-5 relative tolerance, not within 1e-9
    with pytest.raises(ValueError, match="orthonormal"):
        AffineFlat(base=np.zeros(3), basis=[[1.0 + 4e-6, 0.0, 0.0], [0.0, 1.0, 0.0]])
    AffineFlat(base=np.zeros(3), basis=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def _minimal_sphere_reference(points, tol=1e-7):
    """Greedy spanning subset and a per-point containment check."""
    pts = as_points(points)
    chosen = [0]
    for i in range(1, pts.shape[0]):
        if _rank_reference(pts[chosen + [i]]) == len(chosen):
            chosen.append(i)
    sphere = circumsphere(pts[chosen])
    if not all(sphere.contains(p, tol=tol) for p in pts):
        raise ValueError("points do not lie on a common sphere")
    return sphere


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
    got = minimal_sphere(pts)
    assert got.radius == expected.radius
    np.testing.assert_array_equal(got.center, expected.center)
    np.testing.assert_array_equal(got.flat.basis, expected.flat.basis)


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
