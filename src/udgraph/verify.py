"""Check realizations against graphs.

The induced unit-distance graph of a point set has an edge wherever the
distance is within tol of 1. Faithful verification demands that induced graph
equal the claimed graph; distance verification only checks the claimed edges.
Every vertex pair in the package is classified by classify_pairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import TOL_GEOM, as_points, pairwise_distances
from .graphs import Graph

MODES = ("faithful", "distance")


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

    The one pair classifier of the package: verification, the solver's accept
    gate, the constructions' margins and Embedding's distinctness check all
    read their pairs from this table. g None means a graph without edges.
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


def induced_udg(points, tol: float = TOL_GEOM) -> Graph:
    """Graph on the point indices whose edges are the unit-distance pairs.

    Coincident points (pairwise distance <= tol) raise ValueError. Pairs whose
    deviation from unit length falls in the ambiguity band (tol, 3*tol] emit a
    ToleranceCliffWarning.
    """
    pts = as_points(points)
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

    mode "distance": every edge must have length within tol of 1.
    mode "faithful": additionally no non-edge may, and points must be distinct.
    Violations carry the offending pair, its distance, and a kind tag
    ("edge_not_unit", "coincident" or "nonedge_unit"), in pair order.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    p = classify_pairs(g, getattr(embedding, "points", embedding))
    bad = p.edge & (p.dev > tol)
    ambiguous = ()
    if mode == "faithful":
        non = ~p.edge
        bad |= non & ((p.dist <= tol) | (p.dev <= tol))
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
                                  p.dist[bad].tolist(), p.edge[bad].tolist())
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
