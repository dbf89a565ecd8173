"""Multistart first-order solver for unit-distance realizations.

The objective is the quartic penalty F(X) = sum over edges of
(|x_i - x_j|^2 - 1)^2. Gradient descent with Armijo backtracking drives F to
(nearly) zero from random initializations; faithful solves then accept a
candidate only if non-edges clear unit length and points stay distinct,
otherwise the next restart runs. Everything is deterministic in (seed,
restart_index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import Embedding
from .graphs import Graph
from .verify import classify_pairs

_ARMIJO_C = 1e-4
_STALL_STEP = 1e-18


@dataclass(frozen=True)
class SolverConfig:
    restarts: int = 200
    max_iters: int = 2000
    tol_residual: float = 1e-12
    margin_nonedge: float = 1e-3
    # accept-gate separation between points. Must sit well above the point
    # drift that tol_residual permits (about 1e-5 here), or a pair of
    # vertices forced onto the same spot by the constraints can masquerade
    # as two "distinct" points and fake a realization.
    min_separation: float = 1e-3
    init_scale: float = 2.0
    seed: int = 0


@dataclass(frozen=True, eq=False)
class SolveResult:
    status: str  # "FOUND" or "NOT_FOUND"
    embedding: Embedding | None
    residual: float
    best_residual: float
    restarts_used: int

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "residual": self.residual,
            "best_residual": self.best_residual,
            "restarts_used": self.restarts_used,
            "embedding": None if self.embedding is None else self.embedding.to_dict(),
        }


def _edge_arrays(g: Graph):
    if g.m == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    e = np.asarray(g.sorted_edges(), dtype=int)
    return e[:, 0], e[:, 1]


def objective(g: Graph, points: np.ndarray) -> float:
    return _objective(points, *_edge_arrays(g))


def gradient(g: Graph, points: np.ndarray) -> np.ndarray:
    return _gradient(points, *_edge_arrays(g))


def _objective(points, ei, ej) -> float:
    diff = points[ei] - points[ej]
    p = np.einsum("ij,ij->i", diff, diff) - 1.0
    return float(np.dot(p, p))


def _gradient(points, ei, ej) -> np.ndarray:
    diff = points[ei] - points[ej]
    p = np.einsum("ij,ij->i", diff, diff) - 1.0
    grad = np.zeros_like(points)
    w = (4.0 * p)[:, None] * diff
    np.add.at(grad, ei, w)
    np.add.at(grad, ej, -w)
    return grad


def _descend(x0, ei, ej, max_iters, tol_residual):
    """Gradient descent with backtracking line search; returns (X, F(X))."""
    x = x0
    f = _objective(x, ei, ej)
    step = 1.0
    for _ in range(max_iters):
        if f <= tol_residual:
            break
        g = _gradient(x, ei, ej)
        gg = float(np.sum(g * g))
        if gg <= 1e-24:
            break
        t = min(step * 2.0, 1.0)
        while True:
            xn = x - t * g
            fn = _objective(xn, ei, ej)
            if fn <= f - _ARMIJO_C * t * gg:
                break
            t *= 0.5
            if t < _STALL_STEP:
                return x, f
        x, f, step = xn, fn, t
    return x, f


def _gate_passed(g: Graph, points, cfg: SolverConfig, faithful: bool) -> bool:
    """Points more than min_separation apart and, for faithful solves, every
    non-edge at least margin_nonedge away from unit length."""
    p = classify_pairs(g, points)
    if p.dist.min(initial=np.inf) <= cfg.min_separation:
        return False
    return not (faithful and bool(np.any(p.dev[~p.edge] < cfg.margin_nonedge)))


def _solve(g: Graph, d: int, cfg: SolverConfig, faithful: bool) -> SolveResult:
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    ei, ej = _edge_arrays(g)
    best = np.inf
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        x0 = cfg.init_scale * rng.normal(size=(g.n, d))
        x, f = _descend(x0, ei, ej, cfg.max_iters, cfg.tol_residual)
        best = min(best, f)
        if f > cfg.tol_residual or not _gate_passed(g, x, cfg, faithful):
            continue
        emb = Embedding(dim=d, points=x)
        return SolveResult("FOUND", emb, residual=f, best_residual=min(best, f),
                           restarts_used=r + 1)
    return SolveResult("NOT_FOUND", None, residual=float(best),
                       best_residual=float(best), restarts_used=cfg.restarts)


def solve_faithful(g: Graph, d: int, cfg: SolverConfig | None = None) -> SolveResult:
    """Search for a faithful realization of g in R^d.

    A restart is accepted only when the residual is below tol_residual, all
    points are pairwise distinct, and every non-edge distance differs from 1
    by at least margin_nonedge. NOT_FOUND results carry the best residual
    seen, which is evidence (not proof) of unrealizability.
    """
    return _solve(g, d, cfg or SolverConfig(), faithful=True)


def solve_distance(g: Graph, d: int, cfg: SolverConfig | None = None) -> SolveResult:
    """Search for a distance-graph realization (edges unit, non-edges free)."""
    return _solve(g, d, cfg or SolverConfig(), faithful=False)


def gradient_check(g: Graph, d: int, seed: int = 0, h: float = 1e-6) -> float:
    """Max relative error between the analytic gradient and central differences."""
    rng = np.random.default_rng([seed])
    x = 2.0 * rng.normal(size=(g.n, d))
    ei, ej = _edge_arrays(g)
    ga = _gradient(x, ei, ej)
    gfd = np.zeros_like(x)
    for i in range(g.n):
        for j in range(d):
            xp = x.copy()
            xp[i, j] += h
            xm = x.copy()
            xm[i, j] -= h
            gfd[i, j] = (_objective(xp, ei, ej) - _objective(xm, ei, ej)) / (2.0 * h)
    scale = max(1.0, float(np.abs(ga).max(initial=0.0)))
    return float(np.abs(ga - gfd).max(initial=0.0)) / scale
