"""Check realizations against graphs.

The induced unit-distance graph of a point set has an edge wherever the
distance is within tol of 1. Faithful verification demands that induced graph
equal the claimed graph; distance verification checks the claimed edges and
that the points are distinct.
Every vertex pair in the package is classified by classify_pairs, and accepts
is the one gate on the solver's candidates and the constructions' results.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import as_points, pairwise_distances
from .graphs import Graph

MODES = ("faithful", "distance")
TOL_GEOM = 1e-9  # default tolerance of verify and induced_udg
TOL_VERIFY = 1e-7  # the tolerance `udgraph verify` publishes as its default


class ToleranceCliffWarning(UserWarning):
    """A pair sits just outside the unit-distance band; the verdict would flip
    under a small tolerance change."""


class Pairs(NamedTuple):
    """One entry per vertex pair i < j, in row-major order."""

    i: np.ndarray
    j: np.ndarray
    dist: np.ndarray  # Euclidean distance
    edge: np.ndarray  # True where (i, j) is an edge of the graph
    dev: np.ndarray  # deviation |dist - 1| from unit length


@lru_cache(maxsize=64)
def _upper(n: int) -> tuple:
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def classify_pairs(g: Graph | None, points) -> Pairs:
    """Distances, edge mask and unit deviations of every vertex pair.

    The one pair classifier of the package: verification, the accept gate
    and the constructions' sampling checks all read their pairs from this
    table. g None means a graph without edges.
    """
    pts = as_points(points)
    n = pts.shape[0]
    if g is not None and g.n != n:
        raise ValueError(f"embedding has {n} points for a {g.n}-vertex graph")
    i, j = _upper(n)
    dist = pairwise_distances(pts)[i, j]
    if g is None or g.m == 0:
        edge = np.zeros(dist.shape, dtype=bool)
    else:
        adj = np.zeros((n, n), dtype=bool)
        u, v = np.array(list(g.edges)).T
        adj[u, v] = True
        edge = adj[i, j]
    return Pairs(i, j, dist, edge, np.abs(dist - 1.0))


def finite_points(points) -> np.ndarray:
    """points as an (m, d) array; ValueError unless every coordinate is finite."""
    pts = as_points(points)
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts


def accepts(g: Graph, points, separation: float, margin: float | None) -> bool:
    """The accept gate on a candidate realization of g.

    True when every pair of points is more than separation apart, every edge
    is within TOL_VERIFY of unit length and, unless margin is None (distance
    semantics), every non-edge is at least margin away from unit length. The
    test is that every pair is good, so a pair with a non-finite coordinate
    fails it.
    """
    p = classify_pairs(g, points)
    clear = True if margin is None else p.dev >= margin
    good = (p.dist > separation) & np.where(p.edge, p.dev <= TOL_VERIFY, clear)
    return bool(np.all(good))


def induced_udg(points, tol: float = TOL_GEOM) -> Graph:
    """Graph on the point indices whose edges are the unit-distance pairs.

    Coincident points (pairwise distance <= tol) and non-finite points raise
    ValueError, as does a tol that is not finite and >= 0. Pairs whose
    deviation from unit length falls in the ambiguity band (tol, 3*tol] emit
    a ToleranceCliffWarning.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    pts = finite_points(points)
    p = classify_pairs(None, pts)
    coincident = np.flatnonzero(p.dist <= tol)
    # pairs are taken in order, so none after the first coincident one counts
    stop = int(coincident[0]) if coincident.size else p.dist.size
    unit = p.dev[:stop] <= tol
    for k in np.flatnonzero(~unit & (p.dev[:stop] <= 3.0 * tol)):
        warnings.warn(
            f"pair ({p.i[k]}, {p.j[k]}) at distance {p.dist[k]!r} is within "
            f"(tol, 3*tol] of unit length",
            ToleranceCliffWarning,
            stacklevel=2,
        )
    if coincident.size:
        raise ValueError(
            f"points {p.i[stop]} and {p.j[stop]} coincide (distance {p.dist[stop]:.3e})"
        )
    edges = zip(p.i[:stop][unit].tolist(), p.j[:stop][unit].tolist())
    return Graph(pts.shape[0], frozenset(edges))


@dataclass(frozen=True)
class Report:
    passed: bool
    mode: str
    tol: float
    violations: tuple = ()
    ambiguous: tuple = ()

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "mode": self.mode,
            "tol": self.tol,
            "violations": [
                {"pair": list(v["pair"]), "distance": v["distance"], "kind": v["kind"]}
                for v in self.violations
            ],
            "ambiguous_pairs": [list(p) for p in self.ambiguous],
        }


def verify(g: Graph, embedding, mode: str = "faithful", tol: float = TOL_GEOM) -> Report:
    """Check an embedding of g. Returns a Report; raises on malformed input.

    Both modes place the vertices at distinct, finite points.
    mode "distance": every edge must have length within tol of 1, and no two
    points may lie within tol of each other.
    mode "faithful": additionally no non-edge may have length within tol of 1.
    Violations carry the offending pair, its distance, and a kind tag
    ("edge_not_unit", "coincident" or "nonedge_unit"), in pair order; an
    edge off unit length by more than tol is "edge_not_unit" even where its
    points coincide.
    tol must be finite and >= 0.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    p = classify_pairs(g, finite_points(getattr(embedding, "points", embedding)))
    off_unit = p.edge & (p.dev > tol)
    bad = off_unit | (p.dist <= tol)  # every pair, edge or not, keeps its points apart
    ambiguous = ()
    if mode == "faithful":
        non = ~p.edge
        bad |= non & (p.dev <= tol)
        # a non-edge that is neither coincident nor unit, but nearly unit
        amb = np.flatnonzero(non & ~bad & (p.dev <= 3.0 * tol))
        if amb.size:
            ambiguous = tuple(zip(p.i[amb].tolist(), p.j[amb].tolist()))
    violations = ()
    bad = np.flatnonzero(bad)
    if bad.size:
        violations = tuple(
            {"pair": (i, j), "distance": d,
             "kind": "edge_not_unit" if e else "coincident" if d <= tol else "nonedge_unit"}
            for i, j, d, e in zip(p.i[bad].tolist(), p.j[bad].tolist(),
                                  p.dist[bad].tolist(), off_unit[bad].tolist())
        )
    if ambiguous:
        warnings.warn(
            f"{len(ambiguous)} pair(s) within (tol, 3*tol] of unit length",
            ToleranceCliffWarning,
            stacklevel=2,
        )
    return Report(
        passed=not violations,
        mode=mode,
        tol=tol,
        violations=violations,
        ambiguous=ambiguous,
    )
