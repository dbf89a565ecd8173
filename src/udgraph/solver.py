"""Batched multistart solver for unit-distance realizations.

The objective is F(X) = sum over edges of p_e^2, with the edge residuals
p_e = |x_i - x_j|^2 - 1. Restart r starts from INIT_SCALE times a normal draw
of default_rng([seed, r]), and restarts run in chunks of 1, 2, 4, ... up to
_CHUNK as one batch of shape (c, n, d). With B the n x m edge-incidence
matrix, the edge differences of the whole batch are B^T X, and the Jacobian J
of the residuals is read off them.

solve_many runs the restarts of many graphs on one vertex count through the
same batch. Each row carries its own graph's B^T, zero-padded to the widest
graph, and a unit target that is 1 on real edge slots and 0 on padded ones,
so p = |B^T X|^2 - target is exactly 0 on a padded slot, which then adds
nothing to J or F. All graphs take their chunks in lockstep waves. A
one-graph solve is a batch of one and carries no padding.

Every restart runs Levenberg-Marquardt from its first step (Levenberg 1944,
Marquardt 1963; Nocedal & Wright, Numerical Optimization, ch. 10): its
trial step is x - (J^T J + lambda I)^-1 J^T p, taken only when F drops, and
it keeps its own damping lambda and iteration count, so it follows the
trajectory it would follow alone. A restart runs until F stops dropping:
stopping at TOL_RESIDUAL would leave edges up to about 5e-7 off unit length,
and the gate refuses such a candidate. A candidate with a residual within
TOL_RESIDUAL then meets verify.accepts: points more than MIN_SEPARATION
apart, every edge within TOL_VERIFY of unit length (the tolerance `udgraph
verify` publishes) and, for faithful solves, every non-edge MARGIN_NONEDGE
clear of unit length.

A restart's gate is checked as soon as it finishes. The lowest-index accepted
restart of a graph wins, and its search stops once no restart below it is
unfinished, so the result depends on (seed, restart index) only, never on
the chunk size or on the other graphs in the batch (up to round-off: padding
changes the order of the sums in J^T J).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy._core.multiarray import c_einsum

from .embed import Embedding
from .geometry import solve_stack
from .graphs import Graph
from .verify import accepts

_CHUNK = 32  # largest number of restarts run as one batch
_LAMBDA0 = 10.0  # first damping: undamped first steps fold paths onto themselves
_LAMBDA_MIN = 1e-12
_LAMBDA_MAX = 1e12  # damping at which a restart counts as stalled

TOL_RESIDUAL = 1e-12  # largest F of an accepted candidate
MARGIN_NONEDGE = 1e-3  # non-edge clearance from unit length, faithful solves
# accept-gate separation between points. Must sit well above the point drift
# of a finished candidate, or a pair of vertices forced onto the same spot by
# the constraints can masquerade as two "distinct" points and fake a
# realization. Once the iteration has converged, such pairs sit at most about
# 3e-14 apart on the 4- and 5-vertex census graphs in R^2 and R^3.
MIN_SEPARATION = 1e-3
INIT_SCALE = 2.0  # standard deviation of a restart's starting coordinates


@dataclass(frozen=True)
class SolverConfig:
    restarts: int = 200
    max_iters: int = 2000  # trial steps per restart; 0 settles each start as drawn
    seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_iters", 0), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"SolverConfig.{name} must be at least {least}, "
                                 f"got {getattr(self, name)}")


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


def _incidence(g: Graph) -> np.ndarray:
    """B^T: a row per edge (i, j) with +1 at i and -1 at j."""
    bt = np.zeros((g.m, g.n))
    for row, (i, j) in enumerate(g.sorted_edges()):
        bt[row, i], bt[row, j] = 1.0, -1.0
    return bt


def _residuals(x, bt, target):
    """Edge differences (c, m, d), residuals |diff|^2 - target (c, m) and F (c,).

    c_einsum is what np.einsum calls without optimize, so the sums round as
    np.einsum's do; np.vecdot and (a * a).sum(-1) round differently."""
    diff = bt @ x
    p = c_einsum("...i,...i->...", diff, diff) - target
    return diff, p, c_einsum("...i,...i->...", p, p)


def _jacobian(diff, bt2):
    """Jacobian (c, m, n*d) of the residuals p with respect to the points,
    read off the edge differences and the doubled incidence bt2 = 2 B^T."""
    c, m, d = diff.shape
    return (bt2[..., None] * diff[:, :, None, :]).reshape(c, m, bt2.shape[-1] * d)


def objective(g: Graph, points: np.ndarray) -> float:
    return float(_residuals(np.asarray(points, dtype=float)[None], _incidence(g), 1.0)[2][0])


def gradient(g: Graph, points: np.ndarray) -> np.ndarray:
    """The gradient 2 J^T p of F, through the Jacobian the solver steps with."""
    x = np.asarray(points, dtype=float)[None]
    bt = _incidence(g)
    diff, p, _ = _residuals(x, bt, 1.0)
    return (2.0 * p[:, None, :] @ _jacobian(diff, 2.0 * bt)).reshape(x.shape)[0]


def _run_batch(x, rows, owner, bt, target, cfg: SolverConfig, settle) -> None:
    """Run restart rows[k] of graph owner[k] from x[k], for a batch x (c, n, d).

    Row k carries its graph's padded incidence bt[k] and unit target
    target[k]. Every iteration takes one Levenberg-Marquardt trial step per
    row, x - (J^T J + lambda I)^-1 J^T p. A step that lowers F is taken and
    divides lambda by 10; any other step is refused and multiplies it by 10.
    A refused step leaves the point where it was, so J^T J and J^T p are
    rebuilt only once some row has moved or left the batch. When every row
    takes its step, the iteration takes the trial state whole, and when
    every row refuses it, keeps the batch as it was. A row leaves
    the batch when F is 0, when a step is refused while F is within
    TOL_RESIDUAL (converged to round-off), when lambda reaches _LAMBDA_MAX
    (stalled), or after max_iters iterations. settle(graph, restart, point,
    F) is then called, in row order among those leaving together, and returns
    each graph's lowest restart index that can still win; rows at or above
    their graph's bound are dropped.
    """
    diff, p, f = _residuals(x, bt, target)
    bt2 = 2.0 * bt
    lam = np.full(rows.size, _LAMBDA0)
    out = f == 0.0
    stale = True  # J^T J and J^T p no longer describe the batch
    eye = np.eye(x.shape[1] * x.shape[2])
    for it in range(cfg.max_iters + 1):
        if it == cfg.max_iters:
            out[:] = True
        if out.any():
            for k in np.flatnonzero(out):
                bound = settle(int(owner[k]), int(rows[k]), x[k], float(f[k]))
            keep = ~out & (rows < bound[owner])
            if not keep.any():
                return
            x, diff, p, f, lam, rows, owner, bt, bt2, target = (
                a[keep] for a in (x, diff, p, f, lam, rows, owner, bt, bt2, target))
            stale = True
        if stale:
            jac = _jacobian(diff, bt2)
            jt = jac.transpose(0, 2, 1)
            jtj, jtp = jt @ jac, jt @ p[..., None]
        xn = x - solve_stack(jtj + lam[:, None, None] * eye, jtp).reshape(x.shape)
        dn, pn, fn = _residuals(xn, bt, target)
        took = fn < f
        moved = np.count_nonzero(took)  # cheaper than took.all() on a few rows
        if moved == took.size:
            # no step was refused and lambda fell, so only F == 0 ends a row
            x, diff, p, f = xn, dn, pn, fn
            lam = np.maximum(lam / 10.0, _LAMBDA_MIN)
            out = f == 0.0
            stale = True
            continue
        if moved == 0:
            lam = 10.0 * lam
            out = (f <= TOL_RESIDUAL) | (lam >= _LAMBDA_MAX)
            stale = False
            continue
        x = np.where(took[:, None, None], xn, x)
        diff = np.where(took[:, None, None], dn, diff)
        p = np.where(took[:, None], pn, p)
        f = np.where(took, fn, f)
        lam = np.where(took, np.maximum(lam / 10.0, _LAMBDA_MIN), 10.0 * lam)
        out = (f == 0.0) | (~took & (f <= TOL_RESIDUAL)) | (lam >= _LAMBDA_MAX)
        stale = True


def solve_many(graphs, d: int, cfg: SolverConfig | None = None, faithful: bool = True) -> list:
    """Search realizations of many graphs on one vertex count in one batch.

    Returns one SolveResult per graph, in order, each with the status,
    restarts_used and best_residual that solve_faithful (faithful=True) or
    solve_distance (faithful=False) gives on that graph alone. Every graph is
    padded to the edge slots of the widest graph in the call.
    """
    graphs = list(graphs)
    cfg = cfg or SolverConfig()
    if any(g.n < 1 for g in graphs):
        raise ValueError("graph must have at least one vertex")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if not graphs:
        return []
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("solve_many needs graphs on one vertex count")
    m = np.array([g.m for g in graphs])
    width = int(m.max())
    bts = np.zeros((len(graphs), width, n))
    for k, g in enumerate(graphs):
        bts[k, : g.m] = _incidence(g)
    targets = (np.arange(width) < m[:, None]).astype(float)
    final = np.full((len(graphs), cfg.restarts), np.inf)  # each finished restart's residual
    winner = np.full(len(graphs), cfg.restarts)  # each graph's lowest accepted restart so far
    found = [None] * len(graphs)
    margin = MARGIN_NONEDGE if faithful else None

    def settle(k, r, x, f):
        final[k, r] = f
        if r < winner[k] and f <= TOL_RESIDUAL and accepts(graphs[k], x, MIN_SEPARATION, margin):
            winner[k], found[k] = r, (x, f)
        return winner

    start, size = 0, 1
    while (live := np.flatnonzero(start < winner)).size:
        rows = np.arange(start, min(start + size, cfg.restarts))
        start, size = start + rows.size, min(2 * size, _CHUNK)
        x = INIT_SCALE * np.array([np.random.default_rng([cfg.seed, int(r)]).normal(size=(n, d))
                                   for r in rows])
        owner = np.repeat(live, rows.size)
        if live.size > 1:
            x, rows = np.tile(x, (live.size, 1, 1)), np.tile(rows, live.size)
        _run_batch(x, rows, owner, bts[owner], targets[owner], cfg, settle)
    return [_result(d, *args) for args in zip(found, final, winner.tolist())]


def _result(d: int, found, final: np.ndarray, winner: int) -> SolveResult:
    """One graph's SolveResult from its accepted (point, F) or None, the
    residuals of its finished restarts and its winning restart index."""
    if found is None:
        best = float(final.min(initial=np.inf))
        return SolveResult("NOT_FOUND", None, residual=best, best_residual=best,
                           restarts_used=final.size)
    x, f = found
    return SolveResult("FOUND", Embedding(dim=d, points=x), residual=f,
                       best_residual=float(final[: winner + 1].min()), restarts_used=winner + 1)


def solve_faithful(g: Graph, d: int, cfg: SolverConfig | None = None) -> SolveResult:
    """Search for a faithful realization of g in R^d.

    A restart is accepted only when the residual is within TOL_RESIDUAL, every
    edge is within TOL_VERIFY of unit length, all points are more than
    MIN_SEPARATION apart, and every non-edge distance differs from 1 by at
    least MARGIN_NONEDGE. NOT_FOUND results carry the best residual seen, which is
    evidence (not proof) of unrealizability.
    """
    return solve_many([g], d, cfg, faithful=True)[0]


def solve_distance(g: Graph, d: int, cfg: SolverConfig | None = None) -> SolveResult:
    """Search for a distance-graph realization (edges unit, non-edges free)."""
    return solve_many([g], d, cfg, faithful=False)[0]


def gradient_check(g: Graph, d: int, seed: int = 0, h: float = 1e-6) -> float:
    """Max relative error between the analytic gradient and central differences."""
    rng = np.random.default_rng([seed])
    x = 2.0 * rng.normal(size=(g.n, d))
    ga = gradient(g, x)
    gfd = np.zeros_like(x)
    for i in range(g.n):
        for j in range(d):
            xp = x.copy()
            xp[i, j] += h
            xm = x.copy()
            xm[i, j] -= h
            gfd[i, j] = (objective(g, xp) - objective(g, xm)) / (2.0 * h)
    scale = max(1.0, float(np.abs(ga).max(initial=0.0)))
    return float(np.abs(ga - gfd).max(initial=0.0)) / scale
