"""Affine and spherical primitives in R^d.

Everything here works on plain float64 arrays: a point is a 1-d array, a point
set an (m, d) array of row vectors, and K point sets of t points each a
(K, t, d) stack. Rank decisions use a relative SVD cutoff (TOL_RANK). A
sphere is a plain (center, radius, basis) tuple whose orthonormal basis rows
span its flat; the minimal sphere of one point has radius 0 and an empty
basis.

The subset-wise general-position tests run on stacks: affine_ranks takes the
affine rank of every set in a stack with one batched SVD (affine_rank is its
K = 1 case), and circumradii the circumradius of every full-dimensional
simplex in a stack with one batched linear solve.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

TOL_RANK = 1e-8
TOL_SPHERE = 1e-7  # how far off its minimal sphere a point may sit


def as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2:
        raise ValueError("point set must be an (m, d) array")
    return pts


def affine_ranks(stack) -> np.ndarray:
    """Affine rank of every (t, d) point set in a (K, t, d) stack.

    Each rank is the matrix rank of the centered set; singular values at or
    below TOL_RANK * s_max count as zero, and an all-zero set has rank 0. Empty
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
    return np.where(top[:, 0] > 0.0, np.sum(sv > TOL_RANK * top, axis=1), 0)


def affine_rank(points) -> int:
    """Dimension of the affine hull: 0 for a point, 1 for a segment, and so
    on; -1 for the empty set. The one-set case of affine_ranks."""
    return int(affine_ranks(as_points(points)[None])[0])


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


class Sphere(NamedTuple):
    """Sphere about center whose flat the orthonormal rows of basis span."""

    center: np.ndarray
    radius: float
    basis: np.ndarray


def _independent_frame(diffs: np.ndarray):
    """The SVD frame vt of differences to a base point, or None if they are dependent."""
    _, sv, vt = np.linalg.svd(diffs, full_matrices=False)
    return vt if sv[0] > 0.0 and np.sum(sv > TOL_RANK * sv[0]) == len(diffs) else None


def minimal_sphere(points) -> Sphere:
    """Smallest sphere through a point set that lies on a common sphere.

    At most d + 1 points whose differences to the first point pass one SVD
    rank test (TOL_RANK) are their own spanning subset, and the solve reuses
    that SVD; otherwise one is extracted greedily (first point first, then
    every point that raises the rank). The sphere is the circumsphere of that
    subset, inside its affine hull: in hull coordinates y_i the center solves
    2 (y_i - y_0) . c = |y_i - y_0|^2; a subset that spans R^d keeps its
    ambient coordinates, as circumradii does. Every point must sit on it
    within TOL_SPHERE, off its flat and off its radius alike. Raises
    ValueError if the points are not concyclic.
    """
    pts = as_points(points)
    n, d = pts.shape
    if n == 0:
        raise ValueError("need at least one point")
    chosen = list(range(n))
    vt = _independent_frame(pts[1:] - pts[0]) if 1 < n <= d + 1 else None
    if vt is None and n > 1:
        chosen = [0]
        for i in range(1, n):
            if affine_rank(pts[chosen + [i]]) == len(chosen):
                chosen.append(i)
        if len(chosen) > 1 and (vt := _independent_frame(pts[chosen[1:]] - pts[0])) is None:
            raise ValueError("spanning subset is affinely dependent")
    if len(chosen) == 1:
        center, radius, basis = pts[0].copy(), 0.0, np.zeros((0, d))
    else:
        diffs = pts[chosen[1:]] - pts[0]
        # a subset spanning R^d is solved in ambient coordinates: rotating it
        # into hull coordinates only adds rounding that the solve amplifies
        basis = np.eye(d) if len(diffs) == d else vt
        y = diffs @ basis.T
        c = np.linalg.solve(2.0 * y, np.sum(y * y, axis=1))
        center = pts[0] + basis.T @ c
        radius = float(np.linalg.norm(c))
    rel = pts - center
    off_flat = np.linalg.norm(rel - (rel @ basis.T) @ basis, axis=1)
    off_radius = np.abs(np.linalg.norm(rel, axis=1) - radius)
    if not (np.all(off_flat <= TOL_SPHERE) and np.all(off_radius <= TOL_SPHERE)):
        raise ValueError("points do not lie on a common sphere")
    return Sphere(center, radius, basis)


def complementary_sphere(s: Sphere, ambient_dim: int) -> Sphere:
    """All points of R^ambient_dim at unit distance from every point of s.

    For |x - p| = 1 to hold for all p on s, x must sit over the center in the
    orthogonal complement of s's flat, at height sqrt(1 - r^2). The result is
    the sphere with the same center, radius sqrt(1 - r^2), spanning that
    complement: dimension ambient_dim - len(s.basis) - 1. The set is empty,
    and ValueError is raised, when r >= 1 or when s's flat is all of
    R^ambient_dim.
    """
    if len(s.center) != ambient_dim:
        raise ValueError("sphere does not live in the requested ambient space")
    if s.radius >= 1.0:
        raise ValueError("complementary sphere requires radius < 1")
    k = len(s.basis)
    if k == ambient_dim:
        raise ValueError("a sphere spanning the ambient space has no complementary sphere")
    comp = np.linalg.svd(s.basis, full_matrices=True)[2][k:] if k else np.eye(ambient_dim)
    return Sphere(s.center, math.sqrt(1.0 - s.radius**2), comp)


def sphere_point(s: Sphere, rng: np.random.Generator) -> np.ndarray:
    """Uniform random point on a sphere (its center if it is one point)."""
    k = len(s.basis)
    if k == 0:
        return s.center.copy()
    g = rng.normal(size=k)
    while np.linalg.norm(g) < 1e-12:
        g = rng.normal(size=k)
    return s.center + s.radius * (s.basis.T @ (g / np.linalg.norm(g)))


def pairwise_distances(points) -> np.ndarray:
    """Full (m, m) matrix of Euclidean distances."""
    pts = as_points(points)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))
