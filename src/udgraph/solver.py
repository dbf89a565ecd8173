"""Batched multistart solver for unit-distance realizations.

The objective is the quartic penalty F(X) = sum over edges of
(|x_i - x_j|^2 - 1)^2. Restart r starts from INIT_SCALE times a normal draw
of default_rng([seed, r]), and restarts run in chunks of 1, 2, 4, ... up to
_CHUNK as one batch of shape (c, n, d). With B the n x m edge-incidence
matrix, the edge differences of the whole batch are B^T X and the gradient
scatter is B W. Each restart keeps its own Armijo step, stall test and
iteration count, so it follows the trajectory it would follow alone.

A restart whose residual falls below _GN_SWITCH leaves the batch for a
Gauss-Newton finish (Nocedal & Wright, Numerical Optimization, ch. 10):
damped minimum-norm least-squares steps on the edge system J delta = -p,
falling back to a descent step when such a step does not lower F. Every
accepted candidate is finished this way. A candidate with a residual within
TOL_RESIDUAL then meets verify.accepts: points more than MIN_SEPARATION
apart, every edge within TOL_VERIFY of unit length (the tolerance `udgraph
verify` publishes) and, for faithful solves, every non-edge MARGIN_NONEDGE
clear of unit length.

A restart's gate is checked as soon as it finishes. The lowest-index accepted
restart wins, and the search stops once no restart below it is unfinished, so
the result depends on (seed, restart index) only, never on the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import Embedding
from .graphs import Graph
from .verify import accepts

_ARMIJO_C = 1e-4
_STALL_STEP = 1e-18
_FLAT_GRADIENT = 1e-24  # squared gradient norm at which a descent stops
_CHUNK = 32  # largest number of restarts run as one batch
_GN_SWITCH = 1e-6  # residual below which a restart takes Gauss-Newton steps
_GN_STEPS = 30  # Gauss-Newton (or fallback descent) steps of one finish
_GN_HALVINGS = 4  # damped trials of one Gauss-Newton step

TOL_RESIDUAL = 1e-12  # largest F of an accepted candidate
MARGIN_NONEDGE = 1e-3  # non-edge clearance from unit length, faithful solves
# accept-gate separation between points. Must sit well above the point drift
# of a finished candidate, or a pair of vertices forced onto the same spot by
# the constraints can masquerade as two "distinct" points and fake a
# realization. After the Gauss-Newton finish such pairs sit at most about
# 3e-14 apart on the 4- and 5-vertex census graphs.
MIN_SEPARATION = 1e-3
INIT_SCALE = 2.0  # standard deviation of a restart's starting coordinates


@dataclass(frozen=True)
class SolverConfig:
    restarts: int = 200
    max_iters: int = 2000
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


def _incidence(g: Graph):
    """(B^T, B): B^T has a row per edge (i, j) with +1 at i and -1 at j."""
    bt = np.zeros((g.m, g.n))
    if g.m:
        e = np.asarray(g.sorted_edges())
        rows = np.arange(g.m)
        bt[rows, e[:, 0]] = 1.0
        bt[rows, e[:, 1]] = -1.0
    return bt, np.ascontiguousarray(bt.T)


def _residuals(x, bt):
    """Edge differences (c, m, d), residuals |diff|^2 - 1 (c, m) and F (c,)."""
    diff = bt @ x
    p = np.einsum("...i,...i->...", diff, diff) - 1.0
    return diff, p, np.einsum("...i,...i->...", p, p)


def _gradient(b, diff, p):
    return b @ ((4.0 * p)[..., None] * diff)


def objective(g: Graph, points: np.ndarray) -> float:
    return float(_residuals(np.asarray(points, dtype=float)[None], _incidence(g)[0])[2][0])


def gradient(g: Graph, points: np.ndarray) -> np.ndarray:
    bt, b = _incidence(g)
    diff, p, _ = _residuals(np.asarray(points, dtype=float)[None], bt)
    return _gradient(b, diff, p)[0]


def _descent_step(x, diff, p, f, step, bt, b):
    """One Armijo-backtracked gradient step for every restart of a batch.

    Returns the trial batch (x, diff, p, f), the accepted steps and a done
    mask. A done restart (vanishing gradient, or a step below _STALL_STEP)
    keeps its old point; its trial entries are meaningless.
    """
    grad = _gradient(b, diff, p)
    flat = grad.reshape(grad.shape[0], -1)
    gg = np.einsum("...i,...i->...", flat, flat)
    done = gg <= _FLAT_GRADIENT
    cgg = _ARMIJO_C * gg
    t = np.minimum(2.0 * step, 1.0)
    todo = ~done
    while True:
        # restarts that met the Armijo condition keep t, so recomputing their
        # trial point reproduces it bit for bit
        xn = x - t[:, None, None] * grad
        dn, pn, fn = _residuals(xn, bt)
        todo &= ~(fn <= f - t * cgg)
        if not np.count_nonzero(todo):
            break
        t = np.where(todo, 0.5 * t, t)
        # only this step's halvings can take t below the stall step
        stalled = t < _STALL_STEP
        if np.count_nonzero(stalled):
            done |= stalled
            todo &= ~stalled
            if not np.count_nonzero(todo):
                break
    return xn, dn, pn, fn, t, done


def _finish(x, diff, p, f, step, bt, b):
    """Gauss-Newton finish of one restart, given as a batch of one.

    A step solves J delta = -p in the minimum-norm least-squares sense and
    is halved up to _GN_HALVINGS times until F drops. When it never drops,
    the finish ends if F is within TOL_RESIDUAL and takes a descent step
    otherwise. Returns (point, F).
    """
    m, n = bt.shape
    for _ in range(_GN_STEPS):
        if f[0] == 0.0:
            break
        jac = 2.0 * (bt[:, :, None] * diff[0][:, None, :]).reshape(m, -1)
        delta = np.linalg.lstsq(jac, -p[0], rcond=None)[0].reshape(1, n, -1)
        t = 1.0
        for _ in range(_GN_HALVINGS):
            xn = x + t * delta
            dn, pn, fn = _residuals(xn, bt)
            if fn[0] < f[0]:
                break
            t *= 0.5
        else:
            if f[0] <= TOL_RESIDUAL:
                break
            xn, dn, pn, fn, step, done = _descent_step(x, diff, p, f, step, bt, b)
            if done[0]:
                break
        x, diff, p, f = xn, dn, pn, fn
    return x[0], float(f[0])


def _run_batch(x, rows, bt, b, cfg: SolverConfig, settle) -> None:
    """Run the restarts `rows`, started from the batch x of shape (c, n, d).

    A restart leaves the batch when its residual reaches the Gauss-Newton
    switch (and is finished), when its descent stalls, or after max_iters
    iterations. settle(r, point, F) is then called, in restart order among
    those leaving together, and returns the lowest restart index that can
    still win; restarts at or above it are dropped.
    """
    diff, p, f = _residuals(x, bt)
    step = np.ones(rows.size)
    for it in range(cfg.max_iters + 1):
        out = f <= _GN_SWITCH if it < cfg.max_iters else np.ones(rows.size, dtype=bool)
        if np.count_nonzero(out):
            bound = np.inf
            for k in np.flatnonzero(out):
                xk, fk = x[k], float(f[k])
                if fk <= _GN_SWITCH:
                    s = slice(k, k + 1)
                    xk, fk = _finish(x[s], diff[s], p[s], f[s], step[s], bt, b)
                bound = settle(int(rows[k]), xk, fk)
            keep = ~out & (rows < bound)
            x, diff, p, f, step, rows = (a[keep] for a in (x, diff, p, f, step, rows))
            if not rows.size:
                return
        xn, dn, pn, fn, t, done = _descent_step(x, diff, p, f, step, bt, b)
        if np.count_nonzero(done):
            for k in np.flatnonzero(done):
                settle(int(rows[k]), x[k], float(f[k]))
            keep = ~done
            xn, dn, pn, fn, t, rows = (a[keep] for a in (xn, dn, pn, fn, t, rows))
            if not rows.size:
                return
        x, diff, p, f, step = xn, dn, pn, fn, t


def _solve(g: Graph, d: int, cfg: SolverConfig, faithful: bool) -> SolveResult:
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    bt, b = _incidence(g)
    final = np.full(cfg.restarts, np.inf)  # each finished restart's residual
    winner, found = cfg.restarts, None  # the lowest accepted restart so far
    margin = MARGIN_NONEDGE if faithful else None

    def settle(r, x, f):
        nonlocal winner, found
        final[r] = f
        if r < winner and f <= TOL_RESIDUAL and accepts(g, x, MIN_SEPARATION, margin):
            winner, found = r, (x, f)
        return winner

    start, size = 0, 1
    while start < min(cfg.restarts, winner):
        rows = np.arange(start, min(start + size, cfg.restarts))
        start, size = start + rows.size, min(2 * size, _CHUNK)
        x = np.stack([INIT_SCALE * np.random.default_rng([cfg.seed, int(r)]).normal(size=(g.n, d))
                      for r in rows])
        _run_batch(x, rows, bt, b, cfg, settle)
    if found is None:
        best = float(final.min(initial=np.inf))
        return SolveResult("NOT_FOUND", None, residual=best, best_residual=best,
                           restarts_used=cfg.restarts)
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
    return _solve(g, d, cfg or SolverConfig(), faithful=True)


def solve_distance(g: Graph, d: int, cfg: SolverConfig | None = None) -> SolveResult:
    """Search for a distance-graph realization (edges unit, non-edges free)."""
    return _solve(g, d, cfg or SolverConfig(), faithful=False)


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
