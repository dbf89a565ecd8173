"""Constructive realizations.

Three constructions live here:

* embed_colorable: a proper coloring with k classes puts each class on its own
  circle of radius 1/sqrt(2); the circles share a center, are pairwise
  orthogonal, and span R^{2k}. Any two points on different circles are at
  distance exactly 1, so every cross-class pair (in particular every edge) is
  unit. Distance-graph semantics.
* realize_hsystem: incremental realization on spheres of a system of affine
  exclusion conditions, growing the sphere dimension only when a condition is
  too big to satisfy in general position.
* embed_bipartite_faithful: faithful realization in R^d of a bipartite graph
  whose A-side degrees are at most d. The B side is sampled as a small,
  nearly flat cluster in general position; every A vertex then sits on the
  complementary sphere of its neighborhood's circumsphere, so its neighbor
  distances are exactly 1 while rejection sampling keeps every non-edge away
  from unit length by a real margin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .geometry import (
    affine_ranks,
    as_points,
    circumradii,
    complementary_sphere,
    minimal_sphere,
    sphere_point,
)
from .graphs import Graph, bipartition_of, greedy_coloring, neighborhoods_in
from .verify import classify_pairs, verify

TOL_CONSTRUCT = 1e-7  # edge-length tolerance the constructions are held to
MARGIN_NONEDGE = 1e-4  # guaranteed non-edge clearance from unit length
TOL_DISTINCT = 1e-6  # minimum pairwise separation in a valid embedding
B_DIAMETER = 0.1  # diameter of the sampled B-side cluster

_SAMPLE_MARGIN = 2.5e-4  # rejection threshold, headroom over MARGIN_NONEDGE
_WORKING_SEP = 1e-4  # working pairwise separation during placement


class PreconditionError(ValueError):
    """Input violates a documented precondition; carries witness data."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class RealizationError(RuntimeError):
    """All retries exhausted without a numerically valid realization."""


@dataclass(frozen=True, eq=False)
class Embedding:
    dim: int
    points: np.ndarray

    def __post_init__(self):
        pts = as_points(self.points)
        if pts.shape[1] != self.dim:
            raise ValueError(f"points are {pts.shape[1]}-dimensional, dim says {self.dim}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        p = classify_pairs(None, pts)
        if p.dist.size and p.dist.min() <= TOL_DISTINCT:
            k = int(p.dist.argmin())
            raise ValueError(
                f"points {p.i[k]} and {p.j[k]} are not distinct (distance {p.dist[k]:.3e})"
            )
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def to_json(self) -> str:
        rows = ", ".join(
            "[" + ", ".join(format(float(v), ".17g") for v in row) + "]"
            for row in self.points
        )
        return '{"dim": %d, "points": [%s]}' % (self.dim, rows)

    def to_dict(self) -> dict:
        return {"dim": self.dim, "points": self.points.tolist()}


def embedding_from_json(text: str) -> Embedding:
    """Embedding from its JSON form; a malformed document raises ValueError."""
    d = json.loads(text)
    if not isinstance(d, dict) or not {"dim", "points"} <= d.keys():
        raise ValueError("an embedding document is an object with keys 'dim' and 'points'")
    if type(d["dim"]) is not int:
        raise ValueError(f"embedding 'dim' must be an integer, got {d['dim']!r}")
    pts = d["points"]
    if not isinstance(pts, list) or not all(isinstance(row, list) for row in pts):
        raise ValueError("embedding 'points' must be a 2-D list")
    return Embedding(dim=d["dim"], points=np.asarray(pts, dtype=float))


def _check_coloring(g: Graph, coloring) -> list:
    classes = [sorted(int(v) for v in cls) for cls in coloring]
    seen = [v for cls in classes for v in cls]
    if sorted(seen) != list(range(g.n)):
        raise PreconditionError("coloring must partition the vertex set", witness=seen)
    cls_of = {}
    for c, cls in enumerate(classes):
        for v in cls:
            cls_of[v] = c
    for u, v in g.edges:
        if cls_of[u] == cls_of[v]:
            raise PreconditionError(
                f"edge ({u}, {v}) inside color class {cls_of[u]}", witness=(u, v)
            )
    return classes


def _circle_points(count: int) -> np.ndarray:
    """`count` angles in [0, pi/2): same-circle chords stay strictly below 1."""
    angles = np.arange(count) * (math.pi / 2.0) / max(count, 1)
    r = 1.0 / math.sqrt(2.0)
    return np.stack([r * np.cos(angles), r * np.sin(angles)], axis=1)


def embed_colorable(g: Graph, coloring=None) -> Embedding:
    """Distance-graph embedding in R^{2k} from a proper k-coloring.

    Class c occupies coordinates (2c, 2c+1) on a circle of radius 1/sqrt(2)
    about the common center; cross-class distances are exactly 1 by
    orthogonality, and within-class angles are confined to a quarter turn so
    no same-class pair is unit. Edges of g are all cross-class, hence unit.
    """
    if coloring is None:
        coloring = greedy_coloring(g)
    classes = _check_coloring(g, coloring)
    k = len(classes)
    if k == 0:
        return Embedding(dim=0, points=np.zeros((0, 0)))
    points = np.zeros((g.n, 2 * k))
    for c, cls in enumerate(classes):
        circ = _circle_points(len(cls))
        for row, v in enumerate(cls):
            points[v, 2 * c : 2 * c + 2] = circ[row]
    return Embedding(dim=2 * k, points=points)


def embed_singleton_coloring(g: Graph, coloring) -> Embedding:
    """Distance-graph embedding in R^{a+2b} for a coloring with a singleton
    classes and b larger classes.

    Larger classes get orthogonal circles as in embed_colorable; each
    singleton sits at height 1/sqrt(2) on its own fresh axis. All supports are
    disjoint, so every cross-class distance is exactly 1.
    """
    classes = _check_coloring(g, coloring)
    big = [cls for cls in classes if len(cls) >= 2]
    single = [cls for cls in classes if len(cls) == 1]
    a, b = len(single), len(big)
    dim = a + 2 * b
    points = np.zeros((g.n, dim))
    for c, cls in enumerate(big):
        circ = _circle_points(len(cls))
        for row, v in enumerate(cls):
            points[v, 2 * c : 2 * c + 2] = circ[row]
    for t, cls in enumerate(single):
        points[cls[0], 2 * b + t] = 1.0 / math.sqrt(2.0)
    return Embedding(dim=dim, points=points)


# ---------------------------------------------------------------------------
# H-systems


@dataclass(frozen=True)
class HSystem:
    """Affine exclusion conditions over a ground set of m points.

    Each condition H demands that every point outside H avoid the affine hull
    of H's points. Conditions are proper subsets, stored sorted by
    nondecreasing size; the count s of full conditions (H = everything, which
    exclude nothing and only matter for bookkeeping) is held separately.
    """

    m: int
    conditions: tuple = ()
    s: int = 0

    def __post_init__(self):
        if self.m < 0 or self.s < 0:
            raise ValueError("m and s must be nonnegative")
        conds = []
        for H in self.conditions:
            h = frozenset(int(i) for i in H)
            if any(not (0 <= i < self.m) for i in h):
                raise ValueError("condition member out of range")
            if len(h) >= self.m:
                raise ValueError("conditions must be proper subsets; count full sets in s")
            conds.append(h)
        conds.sort(key=lambda h: (len(h), sorted(h)))
        object.__setattr__(self, "conditions", tuple(conds))

    @property
    def sizes(self) -> list:
        return [len(h) for h in self.conditions]


@dataclass(frozen=True)
class FlatnessBudget:
    """Rotation schedule for the incremental realization.

    angle(l) = eps * 2^(-l-4) for the 1-based step index l; the angles sum to
    eps/16, comfortably inside the eps/4 budget, so the point cloud stays
    eps-flat throughout.
    """

    eps: float = 0.01

    def angle(self, l: int) -> float:
        return self.eps * 2.0 ** (-l - 4)

    def total(self, steps: int) -> float:
        return sum(self.angle(l) for l in range(1, steps + 1))


def growth_dimension(sizes) -> int:
    """Sphere dimension realize_hsystem will reach for these condition sizes.

    The growth decision depends only on the size sequence: dimension k starts
    at 1 and increments exactly when a condition of size at least k+2 comes
    up (smaller ones are satisfiable in general position without growing).
    """
    k = 1
    for size in sizes:
        if size >= k + 2:
            k += 1
    return k


def _cap_sample(m: int, k: int, spread: float, rng: np.random.Generator) -> np.ndarray:
    """m distinct points on the unit S^k in a cap of chordal diameter <= spread."""
    min_sep = max(spread / (50.0 * max(m, 1)), 10.0 * TOL_DISTINCT)
    for _ in range(64):
        offsets = rng.uniform(-spread / 2.0, spread / 2.0, size=(m, k))
        pts = np.hstack([np.ones((m, 1)), offsets])
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        if classify_pairs(None, pts).dist.min(initial=np.inf) > min_sep:
            return pts
    raise RealizationError("could not sample distinct cap points")


def _conditions_hold(points: np.ndarray, conditions, upto: int) -> bool:
    """Every point outside each of the first upto conditions H raises the
    affine rank of H's points by one, i.e. avoids their affine hull.

    Conditions of one size t share two stacked rank tests: one over the
    (G, t) member sets, one over the G (m - t) sets H + {i} with i outside H.
    """
    m, dim = points.shape
    by_size: dict = {}
    for H in conditions[:upto]:
        if H:
            by_size.setdefault(len(H), []).append(H)
    for t, group in by_size.items():
        inside = np.array([sorted(H) for H in group])
        outside = np.array([[i for i in range(m) if i not in H] for H in group])
        members = points[inside]
        grown = np.concatenate([
            np.broadcast_to(members[:, None], outside.shape + (t, dim)),
            points[outside][:, :, None],
        ], axis=2).reshape(-1, t + 1, dim)
        base = affine_ranks(members)
        if np.any(affine_ranks(grown).reshape(outside.shape) != base[:, None] + 1):
            return False
    return True


def realize_hsystem(h: HSystem, budget: FlatnessBudget | None = None, seed: int = 0,
                    max_retries: int = 50):
    """Realize the conditions by m distinct points on a unit sphere S^k.

    Starts on the circle (k = 1) and walks the conditions in nondecreasing
    size order. A condition of size at most k+1 is satisfiable in general
    position, so the whole cloud is resampled as a flat cap and rechecked.
    A larger condition forces k to grow by one: a fresh coordinate is added
    and every point is rotated by angle(l) into it, positively for members of
    the condition and negatively for the rest, which parks the members on a
    hyperplane the others provably avoid. Returns (k, points) with points of
    shape (m, k+1); k never exceeds the subsequence guarantee s+1 of
    lemedge2_guarantee.
    """
    if budget is None:
        budget = FlatnessBudget()
    if h.m == 0:
        return 1, np.zeros((0, 2))
    for attempt in range(max_retries):
        rng = np.random.default_rng([seed, attempt])
        out = _realize_once(h, budget, rng)
        if out is not None:
            return out
    raise RealizationError(
        f"H-system realization failed numerically after {max_retries} attempts"
    )


def _realize_once(h: HSystem, budget: FlatnessBudget, rng: np.random.Generator):
    k = 1
    pts = _cap_sample(h.m, k, budget.eps / 2.0, rng)
    for l, H in enumerate(h.conditions, start=1):
        if len(H) >= k + 2:
            k += 1
            phi = budget.angle(l)
            signs = np.array([1.0 if i in H else -1.0 for i in range(h.m)])
            pts = np.hstack([math.cos(phi) * pts, math.sin(phi) * signs[:, None]])
            if not _conditions_hold(pts, h.conditions, l):
                return None
        else:
            ok = False
            for _ in range(50):
                pts = _cap_sample(h.m, k, budget.eps / 2.0, rng)
                if _conditions_hold(pts, h.conditions, l):
                    ok = True
                    break
            if not ok:
                return None
    return k, pts


# ---------------------------------------------------------------------------
# faithful bipartite construction


def _ball_sample(radius: float, dim: int, rng: np.random.Generator) -> np.ndarray:
    if dim == 0:
        return np.zeros(0)
    g = rng.normal(size=dim)
    norm = np.linalg.norm(g)
    while norm < 1e-12:
        g = rng.normal(size=dim)
        norm = np.linalg.norm(g)
    return (radius * rng.uniform() ** (1.0 / dim)) * g / norm


def _sample_b_cluster(m: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """B-side cluster: diameter <= B_DIAMETER, flattened against a hyperplane."""
    pts = np.zeros((m, d))
    for j in range(m):
        if d == 1:
            pts[j, 0] = rng.uniform(-0.045, 0.045)
        else:
            pts[j, : d - 1] = _ball_sample(0.045, d - 1, rng)
            pts[j, d - 1] = rng.uniform(-0.0045, 0.0045)
    return pts


_SUBSET_BLOCK = 4096  # subsets per stacked test; bounds memory on big clusters


def _subset_blocks(m: int, t: int):
    """The t-subsets of range(m) in combinations order, as (k, t) index
    arrays of at most _SUBSET_BLOCK rows each."""
    flat = chain.from_iterable(combinations(range(m), t))
    while (block := np.fromiter(islice(flat, _SUBSET_BLOCK * t), dtype=np.intp)).size:
        yield block.reshape(-1, t)


def _b_cluster_ok(pts: np.ndarray, nbhds: list, d: int) -> bool:
    """Numeric general-position checks on the B cluster.

    (a) every subset of size <= d+1 is affinely independent (one stacked
        rank test per subset size);
    (b) no d+1 points lie within 1e-3 of a common unit sphere (one stacked
        circumradius solve);
    (c) the two-point complementary spheres of any two size-d neighborhoods
        keep all cross distances at least 1e-3 away from 1;
    (d) for size-d neighborhoods B1, the points of S'(B1) stay off the
        circumspheres of all other neighborhoods; smaller B1 are safe because
        S'(B1) has radius near 1 while every S(B2) is cluster-sized.
    """
    m = pts.shape[0]
    if m == 0:
        return True
    dist = classify_pairs(None, pts).dist
    if dist.min(initial=np.inf) < 1e-3 or dist.max(initial=0.0) > B_DIAMETER:
        return False
    # enclosing radius must stay clear of 1/2 (it is cluster-sized anyway)
    radius_hat = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).max())
    if abs(radius_hat - 0.5) < 0.05:
        return False
    for t in range(3, min(d + 1, m) + 1):
        for sub in _subset_blocks(m, t):
            if np.any(affine_ranks(pts[sub]) != t - 1):
                return False
    if m >= d + 1:
        for sub in _subset_blocks(m, d + 1):
            if np.any(np.abs(circumradii(pts[sub]) - 1.0) < 1e-3):
                return False
    full = sorted({hb for hb in nbhds if len(hb) == d}, key=sorted)
    spheres = {}
    for hb in set(nbhds):
        idx = sorted(hb)
        sph = minimal_sphere(pts[idx]) if idx else None
        if sph is not None and sph.radius > 0.9:
            # near-degenerate neighborhood: circumradius blown up toward 1,
            # complementary sphere would be thin or undefined
            return False
        spheres[hb] = sph
    poles = {}
    for hb in full:
        comp = complementary_sphere(spheres[hb], d)
        u = comp.flat.basis[0]
        poles[hb] = (comp.center + comp.radius * u, comp.center - comp.radius * u)
    for h1, h2 in combinations(full, 2):
        for y1 in poles[h1]:
            for y2 in poles[h2]:
                gap = np.linalg.norm(y1 - y2)
                if abs(gap - 1.0) < 1e-3 or gap < 1e-3:
                    return False
    for h1 in full:
        for h2, sph in spheres.items():
            if h1 == h2 or sph is None or sph.flat.dim == 0:
                continue
            for y in poles[h1]:
                proj = sph.flat.project(y)
                off_flat = np.linalg.norm(y - proj)
                on_flat = abs(np.linalg.norm(proj - sph.center) - sph.radius)
                if math.hypot(off_flat, on_flat) < 1e-3:
                    return False
    return True


def _margins_ok(y: np.ndarray, others: np.ndarray) -> bool:
    """y keeps _WORKING_SEP from every row of others and _SAMPLE_MARGIN away
    from unit distance to each."""
    if others.shape[0] == 0:
        return True
    dd = np.linalg.norm(others - y, axis=1)
    return bool(dd.min() >= _WORKING_SEP and np.abs(dd - 1.0).min() >= _SAMPLE_MARGIN)


def place_on_spheres(nbhds: dict, bpts: np.ndarray, dim: int,
                     rng: np.random.Generator) -> dict | None:
    """Place each vertex v at unit distance from the points bpts[nbhds[v]].

    A neighborhood whose minimal sphere has radius 1 spans a great sphere,
    and its one vertex goes to the center. A zero-dimensional complementary
    sphere offers two poles: a lone vertex takes the first that clears the
    margins, twins split them in vertex order. Every other vertex is sampled
    on its complementary sphere, and one with an empty neighborhood far from
    the cluster, up to 200 tries each. Each point must keep _WORKING_SEP from
    and _SAMPLE_MARGIN off unit distance to its non-neighbors in bpts and to
    everything placed before it. Returns {v: point}, or None when some vertex
    finds no place.
    """
    m = bpts.shape[0]
    placed: dict = {}

    def surroundings(v) -> np.ndarray:
        rows = [bpts[i] for i in range(m) if i not in nbhds[v]] + list(placed.values())
        return np.asarray(rows).reshape(len(rows), dim)

    groups: dict = {}
    for v in sorted(nbhds):
        groups.setdefault(nbhds[v], []).append(v)
    forced = []
    sampled = []
    for nb, verts in sorted(groups.items(), key=lambda kv: kv[1]):
        if not nb:
            sampled.extend((v, None) for v in verts)
            continue
        ms = minimal_sphere(bpts[sorted(nb)])
        if ms.radius >= 1.0 - 1e-9:
            if len(verts) > 1:
                return None
            forced.append((verts[0], [ms.center]))
            continue
        comp = complementary_sphere(ms, dim)
        if comp.dim != 0:
            sampled.extend((v, comp) for v in verts)
            continue
        u = comp.flat.basis[0]
        poles = [comp.center + comp.radius * u, comp.center - comp.radius * u]
        if len(verts) > 2:
            return None
        if len(verts) == 2:
            forced.extend([(verts[0], poles[:1]), (verts[1], poles[1:])])
        else:
            forced.append((verts[0], poles))

    for v, candidates in forced:
        others = surroundings(v)
        y = next((c for c in candidates if _margins_ok(c, others)), None)
        if y is None:
            return None
        placed[v] = y

    far = (bpts.mean(axis=0) if m else np.zeros(dim)) + 3.0 * np.eye(dim)[0]
    for v, comp in sorted(sampled, key=lambda vc: vc[0]):
        others = surroundings(v)
        for _ in range(200):
            y = far + _ball_sample(0.3, dim, rng) if comp is None else sphere_point(comp, rng)
            if _margins_ok(y, others):
                placed[v] = y
                break
        else:
            return None
    return placed


def verified_witness(g: Graph, dim: int, ground, bpts: np.ndarray,
                     placed: dict) -> Embedding | None:
    """g's embedding in R^dim with the ground vertices at the rows of bpts and
    the placed ones at theirs, zero-padded; None unless it verifies faithfully
    at TOL_CONSTRUCT with every non-edge MARGIN_NONEDGE clear of unit length."""
    points = np.zeros((g.n, dim))
    k = bpts.shape[1]
    points[np.asarray(ground, dtype=int), :k] = bpts
    for v, y in placed.items():
        points[v, :k] = y
    try:
        emb = Embedding(dim=dim, points=points)
    except ValueError:
        return None
    if not verify(g, emb, mode="faithful", tol=TOL_CONSTRUCT).passed:
        return None
    p = classify_pairs(g, emb.points)
    return emb if p.dev[~p.edge].min(initial=math.inf) >= MARGIN_NONEDGE else None


def check_bipartite_preconditions(g: Graph, d: int):
    """Return (A, B) sides for the faithful construction, validating degrees.

    A-side degrees must be at most d and no three A vertices of degree
    exactly d may share a neighborhood. If the stored/derived A side fails
    but the swap works, the sides are swapped. Raises PreconditionError with
    witnesses otherwise.
    """
    try:
        a, b = bipartition_of(g)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc

    deg = g.degrees()

    def violation(side_a):
        deg_bad = [(v, deg[v]) for v in side_a if deg[v] > d]
        if deg_bad:
            return ("degree", deg_bad)
        groups = {}
        for v in side_a:
            if deg[v] == d:
                groups.setdefault(frozenset(g.neighbors(v)), []).append(v)
        twins = [vs for vs in groups.values() if len(vs) >= 3]
        if twins:
            return ("twins", twins)
        return None

    first = violation(a)
    if first is None:
        return a, b
    if g.bipartition_a is None and violation(b) is None:
        return b, a
    kind, witness = first
    if kind == "degree":
        raise PreconditionError(
            f"A-side degrees exceed d={d}: {witness}", witness=witness
        )
    raise PreconditionError(
        f"three or more degree-{d} A vertices share a neighborhood: {witness}",
        witness=witness,
    )


def embed_bipartite_faithful(g: Graph, d: int, seed: int = 0,
                             max_retries: int = 50) -> Embedding:
    """Faithful realization in R^d of a bipartite graph with A-degrees <= d.

    The B side becomes a flat cluster of diameter B_DIAMETER passing the
    general-position checks of _b_cluster_ok. place_on_spheres then puts each
    A vertex on the complementary sphere of its neighborhood's circumsphere,
    so neighbor distances are exactly 1; degree-d vertices get its two poles.
    The result is verified faithfully at TOL_CONSTRUCT, with every non-edge
    MARGIN_NONEDGE clear of unit length, before being returned.
    """
    if d < 2:
        raise PreconditionError("d must be at least 2")
    side_a, side_b = check_bipartite_preconditions(g, d)
    nbhds = neighborhoods_in(g, side_a, side_b)
    nbhd_list = [nbhds[v] for v in sorted(side_a) if nbhds[v]]

    for attempt in range(max_retries):
        rng = np.random.default_rng([seed, attempt])
        bpts = _sample_b_cluster(len(side_b), d, rng)
        if not _b_cluster_ok(bpts, nbhd_list, d):
            continue
        placed = place_on_spheres(nbhds, bpts, d, rng)
        if placed is None:
            continue
        emb = verified_witness(g, d, side_b, bpts, placed)
        if emb is not None:
            return emb
    raise RealizationError(
        f"faithful embedding failed after {max_retries} attempts (seed {seed})"
    )
