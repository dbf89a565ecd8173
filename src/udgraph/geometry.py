"""Affine and spherical primitives in R^d.

Everything here works on plain float64 arrays: a point is a 1-d array, a point
set an (m, d) array of row vectors, and K point sets of t points each a
(K, t, d) stack. Rank decisions use a relative SVD cutoff (TOL_RANK), metric
comparisons an absolute tolerance (TOL_GEOM). Spheres of dimension -1 (single
points) are legal and appear as circumspheres of one point: empty-basis flat,
radius 0.

The subset-wise general-position tests run on stacks: affine_ranks takes the
affine rank of every set in a stack with one batched SVD (affine_rank is its
K = 1 case), and circumradii the circumradius of every full-dimensional
simplex in a stack with one batched linear solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL_RANK = 1e-8
TOL_GEOM = 1e-9
TOL_ORTHO = 1e-12


def as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2:
        raise ValueError("point set must be an (m, d) array")
    return pts


def affine_ranks(stack, tol: float = TOL_RANK) -> np.ndarray:
    """Affine rank of every (t, d) point set in a (K, t, d) stack.

    Each rank is the matrix rank of the centered set; singular values at or
    below tol * s_max count as zero, and an all-zero set has rank 0. Empty
    sets (t = 0) get the conventional -1. One batched SVD serves the stack.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3:
        raise ValueError("a stack of point sets must be a (K, t, d) array")
    k, t, d = stack.shape
    if t == 0:
        return np.full(k, -1)
    if d == 0 or k == 0:
        return np.zeros(k, dtype=int)
    centered = stack - stack.mean(axis=1, keepdims=True)
    sv = np.linalg.svd(centered, compute_uv=False)
    top = sv[:, :1]
    return np.where(top[:, 0] > 0.0, np.sum(sv > tol * top, axis=1), 0)


def affine_rank(points, tol: float = TOL_RANK) -> int:
    """Dimension of the affine hull: 0 for a point, 1 for a segment, and so
    on; -1 for the empty set. The one-set case of affine_ranks."""
    return int(affine_ranks(as_points(points)[None], tol)[0])


def circumradii(stack) -> np.ndarray:
    """Circumradius of every full-dimensional simplex in a (K, d+1, d) stack.

    The center of simplex y_0..y_d solves 2 (y_i - y_0) . c = |y_i - y_0|^2
    with c relative to y_0, so the radius is |c|; one batched solve serves the
    stack. An affinely dependent simplex makes the system singular: expect a
    huge radius or numpy.linalg.LinAlgError, so test independence first.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] + 1:
        raise ValueError("a stack of simplices must be a (K, d+1, d) array")
    diffs = stack[:, 1:] - stack[:, :1]
    rhs = np.sum(diffs * diffs, axis=2)
    # b carries an explicit trailing axis: a stack of (d, 1) right-hand sides
    # reads the same on numpy 1.x and 2.x
    c = np.linalg.solve(2.0 * diffs, rhs[..., None])[..., 0]
    return np.sqrt(np.sum(c * c, axis=1))


@dataclass(frozen=True, eq=False)
class AffineFlat:
    """Affine flat: a base point plus an orthonormal row basis of directions.

    dim == number of basis rows; a single point is the dim-0 flat with an
    empty (0, d) basis.
    """

    base: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float).reshape(-1)
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2 or basis.shape[1] != base.shape[0]:
            raise ValueError("basis must be (k, d) with d matching the base point")
        if basis.shape[0]:
            gram = basis @ basis.T
            if not np.abs(gram - np.eye(basis.shape[0])).max() <= 1e-9:
                raise ValueError("basis rows must be orthonormal")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.base.shape[0]

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of x onto the flat."""
        x = np.asarray(x, dtype=float)
        r = x - self.base
        return self.base + self.basis.T @ (self.basis @ r)

    def contains(self, x, tol: float = TOL_GEOM) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.linalg.norm(x - self.project(x)) <= tol)


def orthonormal_complement(basis: np.ndarray, ambient_dim: int) -> np.ndarray:
    """Orthonormal basis (rows) of the orthogonal complement of the row span."""
    basis = np.asarray(basis, dtype=float)
    if basis.shape[0] == 0:
        return np.eye(ambient_dim)
    if basis.shape[1] != ambient_dim:
        raise ValueError("basis ambient dimension mismatch")
    _, _, vt = np.linalg.svd(basis, full_matrices=True)
    return vt[basis.shape[0]:]


@dataclass(frozen=True, eq=False)
class Sphere:
    """Sphere of dimension flat.dim - 1 inside its supporting flat."""

    center: np.ndarray
    radius: float
    flat: AffineFlat

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).reshape(-1)
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if center.shape[0] != self.flat.ambient_dim:
            raise ValueError("center/flat ambient dimension mismatch")
        if not self.flat.contains(center, tol=1e-7):
            raise ValueError("center must lie on the supporting flat")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.flat.dim - 1

    @property
    def ambient_dim(self) -> int:
        return self.flat.ambient_dim

    def contains(self, x, tol: float = TOL_GEOM) -> bool:
        x = np.asarray(x, dtype=float)
        if not self.flat.contains(x, tol=tol):
            return False
        return bool(abs(np.linalg.norm(x - self.center) - self.radius) <= tol)


def circumsphere(points) -> Sphere:
    """Unique sphere through m affinely independent points, inside their hull.

    The center solves 2 (y_i - y_0) . c = |y_i|^2 - |y_0|^2 in hull
    coordinates. A single point yields the degenerate radius-0 sphere.

    Raises ValueError on affinely dependent input; callers holding redundant
    point sets should reduce first (see minimal_sphere).
    """
    pts = as_points(points)
    m, d = pts.shape
    if m == 0:
        raise ValueError("need at least one point")
    if m > d + 1:
        raise ValueError("more points than an affinely independent set allows")
    if m == 1:
        flat = AffineFlat(base=pts[0], basis=np.zeros((0, d)))
        return Sphere(center=pts[0], radius=0.0, flat=flat)
    diffs = pts[1:] - pts[0]
    _, sv, vt = np.linalg.svd(diffs, full_matrices=False)
    if sv[0] <= 0.0 or np.sum(sv > TOL_RANK * sv[0]) != m - 1:
        raise ValueError("points are affinely dependent; reduce first")
    basis = vt[: m - 1]
    y = diffs @ basis.T
    c = np.linalg.solve(2.0 * y, np.sum(y * y, axis=1))
    center = pts[0] + basis.T @ c
    radius = float(np.linalg.norm(c))
    flat = AffineFlat(base=center, basis=basis)
    return Sphere(center=center, radius=radius, flat=flat)


def minimal_sphere(points, tol: float = 1e-7) -> Sphere:
    """Smallest sphere through a point set that lies on a common sphere.

    An affinely independent set is its own spanning subset. Otherwise one is
    extracted greedily (first point first, then every point that raises the
    rank). The sphere is the circumsphere of that subset, and every point
    must sit on it within tol, off its flat and off its radius alike.
    Intended for subsets of a sampled sphere; raises ValueError if the points
    are not concyclic.
    """
    pts = as_points(points)
    n, d = pts.shape
    if n <= d + 1 and affine_rank(pts) == n - 1:
        chosen = list(range(n))
    else:
        chosen = [0]
        for i in range(1, n):
            trial = pts[chosen + [i]]
            if affine_rank(trial) == len(chosen):
                chosen.append(i)
    sphere = circumsphere(pts[chosen])
    basis = sphere.flat.basis
    rel = pts - sphere.flat.base
    off_flat = np.linalg.norm(rel - (rel @ basis.T) @ basis, axis=1)
    off_radius = np.abs(np.linalg.norm(pts - sphere.center, axis=1) - sphere.radius)
    if not (np.all(off_flat <= tol) and np.all(off_radius <= tol)):
        raise ValueError("points do not lie on a common sphere")
    return sphere


def complementary_sphere(s: Sphere, ambient_dim: int) -> Sphere:
    """All points of R^ambient_dim at unit distance from every point of s.

    For |x - p| = 1 to hold for all p on s, x must sit over the center in the
    orthogonal complement of s's flat, at height sqrt(1 - r^2). The result is
    the sphere with the same center, radius sqrt(1 - r^2), spanning that
    complement: dimension ambient_dim - dim(s) - 2.
    """
    if s.ambient_dim != ambient_dim:
        raise ValueError("sphere does not live in the requested ambient space")
    if s.radius >= 1.0:
        raise ValueError("complementary sphere requires radius < 1")
    comp = orthonormal_complement(s.flat.basis, ambient_dim)
    radius = math.sqrt(1.0 - s.radius**2)
    flat = AffineFlat(base=s.center, basis=comp)
    return Sphere(center=s.center, radius=radius, flat=flat)


def sphere_point(s: Sphere, rng: np.random.Generator) -> np.ndarray:
    """Uniform random point on a sphere (center point if dim is -1)."""
    k = s.flat.dim
    if k == 0:
        return s.center.copy()
    g = rng.normal(size=k)
    norm = np.linalg.norm(g)
    while norm < 1e-12:
        g = rng.normal(size=k)
        norm = np.linalg.norm(g)
    return s.center + s.radius * (s.flat.basis.T @ (g / norm))


def pairwise_distances(points) -> np.ndarray:
    """Full (m, m) matrix of Euclidean distances."""
    pts = as_points(points)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))
