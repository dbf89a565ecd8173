"""Affine and spherical primitives in R^d.

Everything here works on plain float64 arrays: a point is a 1-d array, a point
set an (m, d) array of row vectors, and K point sets of t points each a
(K, t, d) stack. Rank decisions use a relative SVD cutoff (TOL_RANK). A
sphere is a plain (center, radius, basis) tuple whose orthonormal basis rows
span its flat; the minimal sphere of one point has radius 0 and an empty
basis.

Stacks take one batched SVD or solve: affine_ranks (affine ranks, less the
sets a Gram determinant bound settles), circumradii (of full-dimensional
simplices), minimal_spheres (an SVD and a solve) and complementary_spheres (a
full SVD); affine_rank, minimal_sphere and complementary_sphere are their
K = 1 cases. solve_stack is the batched solve, shared with the solver.

The factorizations call numpy.linalg._umath_linalg's LAPACK gufuncs directly,
with the float64 signature and the error state the public function sets:
solve (np.linalg.solve), svd_s, svd_f and svd (np.linalg.svd reduced, full and
values only) and det (np.linalg.det). The public functions add only checks and
no-op casts around the same call, so the bits are the same. Norms and means
are the expressions numpy evaluates for them: np.sqrt(x.dot(x)),
np.sqrt(np.add.reduce(x * x, axis)) and np.add.reduce(x, axis) / n.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

TOL_RANK = 1e-8
TOL_SPHERE = 1e-7  # how far off its minimal sphere a point may sit


def as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2:
        raise ValueError("point set must be an (m, d) array")
    return pts


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for a float64 (K, m, m) stack a and a (K, m, k)
    stack b: the gufunc, signature and floating-point error state that
    np.linalg.solve itself uses for them, without its wrapper, so the result
    is the same bits. A singular system raises LinAlgError("Singular matrix")."""
    return _umath_linalg.solve(a, b, signature="dd->d")


def _nonconvergence(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


# np.linalg.svd's error state; its three gufuncs return the same bits under it
_SVD_ERRSTATE = np.errstate(call=_nonconvergence, invalid="call", over="ignore",
                            divide="ignore", under="ignore")


@_SVD_ERRSTATE
def _svd_reduced(a: np.ndarray) -> tuple:
    """np.linalg.svd(a, full_matrices=False) for a float64 stack: (u, s, vt)."""
    return _umath_linalg.svd_s(a, signature="d->ddd")


@_SVD_ERRSTATE
def _svd_full(a: np.ndarray) -> tuple:
    """np.linalg.svd(a) for a float64 stack: (u, s, vt) with square u and vt."""
    return _umath_linalg.svd_f(a, signature="d->ddd")


@_SVD_ERRSTATE
def _singular_values(a: np.ndarray) -> np.ndarray:
    """np.linalg.svd(a, compute_uv=False) for a float64 stack."""
    return _umath_linalg.svd(a, signature="d->d")


def affine_ranks(stack) -> np.ndarray:
    """Affine rank of every (t, d) point set in a (K, t, d) stack.

    Each rank is the matrix rank of the centered set; singular values at or
    below TOL_RANK * s_max count as zero, and an all-zero set has rank 0. Empty
    sets (t = 0) get the conventional -1. When t > d, a set whose centred
    Gram matrix G has det(G / tr G) > 1e-10 has s_min / s_max > 1e-5 >>
    TOL_RANK, so rank d; only the others take the one batched SVD.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3:
        raise ValueError("a stack of point sets must be a (K, t, d) array")
    k, t, d = stack.shape
    if t == 0:
        return np.full(k, -1)
    if d == 0 or k == 0:
        return np.zeros(k, dtype=int)
    centered = stack - np.add.reduce(stack, axis=1, keepdims=True) / t
    ranks, rest = np.full(k, d), np.arange(k)
    if t > d:  # (s_min / s_max)^2 >= det G / (tr G)^d for G = C^T C
        with np.errstate(all="ignore"):  # zero, tiny, huge and non-finite sets read nan or 0
            gram = centered.transpose(0, 2, 1) @ centered
            det = _umath_linalg.det(gram / np.trace(gram, axis1=1, axis2=2)[:, None, None],
                                    signature="d->d")
        rest = np.flatnonzero(~(det > 1e-10))
    if len(rest):
        sv = _singular_values(centered[rest])
        top = sv[:, :1]
        ranks[rest] = np.where(top[:, 0] > 0.0, np.sum(sv > TOL_RANK * top, axis=1), 0)
    return ranks


def affine_rank(points) -> int:
    """Dimension of the affine hull: 0 for a point, 1 for a segment, and so
    on; -1 for the empty set. The one-set case of affine_ranks."""
    return int(affine_ranks(as_points(points)[None])[0])


def circumradii(stack) -> np.ndarray:
    """Circumradius of every full-dimensional simplex in a (K, d+1, d) stack.

    The center of simplex y_0..y_d solves 2 (y_i - y_0) . c = |y_i - y_0|^2
    with c relative to y_0, so the radius is |c|; one batched solve serves the
    stack. An affinely dependent simplex makes the system singular: expect a
    huge radius or LinAlgError, so test independence first.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] + 1:
        raise ValueError("a stack of simplices must be a (K, d+1, d) array")
    diffs = stack[:, 1:] - stack[:, :1]
    rhs = np.sum(diffs * diffs, axis=2)
    c = solve_stack(2.0 * diffs, rhs[..., None])[..., 0]
    return np.sqrt(np.sum(c * c, axis=1))


class Sphere(NamedTuple):
    """Sphere about center whose flat the orthonormal rows of basis span."""

    center: np.ndarray
    radius: float
    basis: np.ndarray


def _spheres_through(stack: np.ndarray, diffs: np.ndarray) -> list:
    """For each set of a (K, t, d) stack with first point p, the circumsphere
    of p and p + diffs in their hull (in hull coordinates y_i the center
    solves 2 (y_i - y_0) . c = |y_i - y_0|^2): a Sphere if every point of the
    set lies on it within TOL_SPHERE, off the flat and off the radius alike,
    else a ValueError; None where one stacked SVD finds diffs dependent."""
    k, r, d = diffs.shape
    ok, centers, radii, bases = np.ones(k, dtype=bool), stack[:, 0].copy(), np.zeros(k), diffs
    if r:  # one point's sphere is itself, with an empty basis
        _, sv, vt = _svd_reduced(diffs)
        ok = sv[:, -1] > TOL_RANK * sv[:, 0]
        stack, diffs = stack[ok], diffs[ok]
        # diffs spanning R^d keep ambient coordinates: rotating them into hull
        # coordinates only adds rounding that the solve amplifies
        bases = np.tile(np.eye(d), (len(diffs), 1, 1)) if r == d else vt[ok]
        y = diffs @ bases.transpose(0, 2, 1)
        c = solve_stack(2.0 * y, (y * y).sum(axis=2)[..., None])
        centers = stack[:, 0] + (bases.transpose(0, 2, 1) @ c)[..., 0]
        radii = np.sqrt(c.transpose(0, 2, 1) @ c)[:, 0, 0]  # one dot each, as np.linalg.norm
    rel = stack - centers[:, None]
    flat = rel - (rel @ bases.transpose(0, 2, 1)) @ bases
    on = ((np.sqrt((flat * flat).sum(axis=2)) <= TOL_SPHERE)
          & (np.abs(np.sqrt((rel * rel).sum(axis=2)) - radii[:, None]) <= TOL_SPHERE))
    spheres = iter([Sphere(*s) if on_it else ValueError("points do not lie on a common sphere")
                    for *s, on_it in zip(centers, radii.tolist(), bases, on.all(axis=1).tolist())])
    return [next(spheres) if solved else None for solved in ok.tolist()]


def minimal_spheres(stack) -> list:
    """Smallest sphere through each (t, d) set of a (K, t, d) stack: the
    circumsphere, inside its affine hull, of a spanning subset, or a
    ValueError where the set lies on no common sphere. Sets of at most d + 1
    points whose differences to the first point pass the TOL_RANK test are
    their own subsets, and one stacked solve reuses its SVD; any other set
    extracts one greedily (first point, then each point raising the rank)."""
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] == 0:
        raise ValueError("need a (K, t, d) stack of point sets with t >= 1")
    k, t, d = stack.shape
    solved = _spheres_through(stack, stack[:, 1:] - stack[:, :1]) if t <= d + 1 else [None] * k
    return [_greedy_sphere(pts) if s is None else s for s, pts in zip(solved, stack)]


def _greedy_sphere(pts: np.ndarray):
    chosen = [0]
    for j in range(1, len(pts)):
        if affine_rank(pts[chosen + [j]]) == len(chosen):
            chosen.append(j)
    sphere = _spheres_through(pts[None], (pts[chosen[1:]] - pts[0])[None])[0]
    return ValueError("spanning subset is affinely dependent") if sphere is None else sphere


def minimal_sphere(points) -> Sphere:
    """The one-set case of minimal_spheres; raises its ValueError."""
    if isinstance(sphere := minimal_spheres(as_points(points)[None])[0], ValueError):
        raise sphere
    return sphere


def complementary_spheres(spheres) -> list:
    """For each sphere s of a list whose bases share one (k, d) shape, all
    points of R^d at unit distance from every point of s, from one full SVD
    of the (K, k, d) stack of bases. For |x - p| = 1 to hold for all p on s,
    x must sit over the center in the orthogonal complement of s's flat, at
    height sqrt(1 - r^2): the sphere with s's center and radius
    sqrt(1 - r^2) spanning that complement, of dimension d - k - 1. It is
    empty, and ValueError is raised, when some r >= 1 or when k = d."""
    bases = np.array([s.basis for s in spheres])
    k, d = bases.shape[1:]
    if any(s.radius >= 1.0 for s in spheres):
        raise ValueError("complementary sphere requires radius < 1")
    if k == d:
        raise ValueError("a sphere spanning the ambient space has no complementary sphere")
    comps = _svd_full(bases)[2][:, k:] if k else [np.eye(d) for _ in spheres]
    return [Sphere(s.center, math.sqrt(1.0 - s.radius**2), c) for s, c in zip(spheres, comps)]


def complementary_sphere(s: Sphere, ambient_dim: int) -> Sphere:
    """The one-sphere case of complementary_spheres, in R^ambient_dim."""
    if len(s.center) != ambient_dim:
        raise ValueError("sphere does not live in the requested ambient space")
    return complementary_spheres([s])[0]


def sphere_point(s: Sphere, rng: np.random.Generator) -> np.ndarray:
    """Uniform random point on a sphere (its center if it is one point)."""
    k = len(s.basis)
    if k == 0:
        return s.center.copy()
    g = rng.normal(size=k)
    while np.sqrt(g.dot(g)) < 1e-12:
        g = rng.normal(size=k)
    return s.center + s.radius * (s.basis.T @ (g / np.sqrt(g.dot(g))))


def pairwise_distances(points) -> np.ndarray:
    """Full (m, m) matrix of Euclidean distances."""
    pts = as_points(points)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))
