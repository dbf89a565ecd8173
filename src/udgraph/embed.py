"""Constructive realizations.

Three constructions live here:

* embed_colorable: a proper coloring with k classes puts each class on its own
  circle of radius 1/sqrt(2); the circles share a center, are pairwise
  orthogonal, and span R^{2k}. Any two points on different circles are at
  distance exactly 1, so every cross-class pair (in particular every edge) is
  unit. Distance-graph semantics.
* realize_hsystem: incremental realization on spheres of a system of affine
  exclusion conditions, growing the sphere dimension only when a condition is
  too big to satisfy in general position (_hsystem_cloud), then checked.
* embed_bipartite_faithful: faithful realization in R^d of a bipartite graph
  whose A-side degrees are at most d, on a small, nearly flat B cluster.
  verified_witness has place_on_spheres put every A vertex on its
  neighborhood's locus (_loci, one stacked sphere pass per neighborhood size
  and per basis rank: a great sphere's center, two poles, or a sphere of
  dimension >= 1) and passes the result through verify.accepts; only then
  does _b_cluster_ok certify the cluster. A center or poles are taken as
  their group is reached; the rest are rejection sampled for a real margin
  between every non-edge and unit length, one draw at a time; a locus that
  one point keeps inside its margin gives up after the first draw.

Norms and means are written as the expressions np.linalg.norm and
ndarray.mean evaluate, as in geometry: the same bits without the wrappers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .geometry import (
    Sphere,
    affine_ranks,
    circumradii,
    complementary_spheres,
    minimal_spheres,
    sphere_point,
)
from .graphs import Graph, bipartition_of, greedy_coloring, neighborhoods_in
# verify is unused here; bench/test_bench.py checks tracing restores embed.verify
from .verify import accepts, classify_pairs, finite_points, verify  # noqa: F401

MARGIN_NONEDGE = 1e-4  # guaranteed non-edge clearance from unit length
TOL_DISTINCT = 1e-6  # the constructions' accept-gate separation (verify.accepts)
B_DIAMETER = 0.1  # diameter of the sampled B-side cluster

_SAMPLE_MARGIN = 2.5e-4  # rejection threshold, headroom over MARGIN_NONEDGE
_WORKING_SEP = 1e-4  # working pairwise separation during placement
_MAX_RETRIES = 50  # seeded attempts of embed_bipartite_faithful
# a minimal sphere this large is a great sphere: its centre is the one point
# at unit distance, and it has no complementary sphere (one value for both)
_GREAT_SPHERE = 1.0 - 1e-9


class PreconditionError(ValueError):
    """Input violates a documented precondition; carries witness data."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class RealizationError(RuntimeError):
    """A construction found no numerically valid realization for its seed(s)."""


@dataclass(frozen=True, eq=False)
class Embedding:
    """n finite points in R^dim; whether they are distinct is verify's call."""

    dim: int
    points: np.ndarray

    def __post_init__(self):
        pts = finite_points(self.points)
        if pts.shape[1] != self.dim:
            raise ValueError(f"points are {pts.shape[1]}-dimensional, dim says {self.dim}")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def to_json(self) -> str:
        rows = ", ".join("[" + ", ".join(map("{:.17g}".format, row)) + "]"
                         for row in self.points.tolist())
        return '{"dim": %d, "points": [%s]}' % (self.dim, rows)

    def to_dict(self) -> dict:
        return {"dim": self.dim, "points": self.points.tolist()}


def embedding_from_dict(d) -> Embedding:
    """Embedding from its dict form, points shaped (len(points), dim); a
    malformed document raises ValueError."""
    if not isinstance(d, dict) or not {"dim", "points"} <= d.keys():
        raise ValueError("an embedding document is an object with keys 'dim' and 'points'")
    dim, pts = d["dim"], d["points"]
    if type(dim) is not int or dim < 0:
        raise ValueError(f"embedding 'dim' must be a nonnegative integer, got {dim!r}")
    if not isinstance(pts, list) or not all(isinstance(row, list) for row in pts):
        raise ValueError("embedding 'points' must be a 2-D list")
    if len({len(row) for row in pts}) > 1:
        raise ValueError("embedding 'points' rows differ in length")
    if not all(type(v) in (int, float) for row in pts for v in row):
        raise ValueError("embedding coordinates must be numbers")
    try:
        points = np.asarray(pts, dtype=float) if pts else np.zeros((0, dim))
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError("embedding coordinates must fit in a float") from None
    return Embedding(dim=dim, points=points)


def embedding_from_json(text: str) -> Embedding:
    """Embedding from its JSON form; a malformed document raises ValueError."""
    return embedding_from_dict(json.loads(text))


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
    points = np.zeros((g.n, 2 * k))
    for c, cls in enumerate(classes):
        points[cls, 2 * c : 2 * c + 2] = _circle_points(len(cls))
    return Embedding(dim=2 * k, points=points)


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
    """m distinct points on the unit S^k, offset from the pole e_0 by a cube
    of side spread; radial projection shortens chords, so the cap's chordal
    diameter is at most spread * sqrt(k), and spread on the circle."""
    min_sep = max(spread / (50.0 * max(m, 1)), 10.0 * TOL_DISTINCT)
    for _ in range(64):
        offsets = rng.uniform(-spread / 2.0, spread / 2.0, size=(m, k))
        pts = np.hstack([np.ones((m, 1)), offsets])
        pts /= np.sqrt(np.add.reduce(pts * pts, axis=1, keepdims=True))
        if classify_pairs(None, pts).dist.min(initial=np.inf) > min_sep:
            return pts
    raise RealizationError("could not sample distinct cap points")


def _grouped(items, key) -> dict:
    """{key(x): [x, ...]} over items, in their order."""
    groups: dict = {}
    for x in items:
        groups.setdefault(key(x), []).append(x)
    return groups


def _conditions_hold(points: np.ndarray, conditions) -> bool:
    """Every point outside each condition H raises the affine rank of H's
    points by one, i.e. avoids their affine hull.

    Conditions of one size t share two stacked rank tests: one over the
    (G, t) member sets, one over the G (m - t) sets H + {i} with i outside H.
    """
    m, dim = points.shape
    for t, group in _grouped(filter(None, conditions), len).items():
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


def realize_hsystem(h: HSystem, eps: float = 0.01, seed: int = 0):
    """Realize the conditions by m distinct points on a unit sphere S^k, in
    one pass from one seeded draw.

    Starts on the circle (k = 1) and walks the conditions in nondecreasing
    size order. A condition of size at most k+1 holds in general position,
    so the whole cloud is resampled once as a flat cap. A larger condition
    forces k to grow by one: a fresh coordinate is added and every point is
    rotated into it by the angle phi, positively for members of the
    condition and negatively for the rest, which parks the members on a
    hyperplane the others provably avoid. growth_dimension fixes the number
    of growth steps in advance, so every step uses the same
    phi = eps / (4 * steps) and the angles sum to eps/4. The cap on the
    circle has chordal diameter at most eps/2 and each step moves two points
    apart by at most 2 * phi, so the cloud's chordal diameter stays within
    eps/2 + 2 * eps/4 = eps. (A resample after a growth step draws its cap
    on S^k, up to (eps/2) * sqrt(k) across, and only the later steps add to
    that.) Every condition is checked once, on the finished cloud; a failure
    raises RealizationError naming the seed. (The audit's construction draws
    the cloud alone and checks it last, on an accepted witness.) Returns
    (k, points) with points of shape (m, k+1); k never exceeds the
    subsequence guarantee s+1 of lemedge2_guarantee.
    """
    k, pts = _hsystem_cloud(h, eps, seed)
    if not _conditions_hold(pts, h.conditions):
        raise RealizationError(f"H-system realization failed its conditions (seed {seed})")
    return k, pts


def _hsystem_cloud(h: HSystem, eps: float, seed: int) -> tuple:
    """realize_hsystem's (k, points), before its check of the conditions."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got eps={eps}")
    rng = np.random.default_rng([seed, 0])
    k = 1
    phi = eps / (4.0 * max(growth_dimension(h.sizes) - 1, 1))
    pts = _cap_sample(h.m, k, eps / 2.0, rng)
    for H in h.conditions:
        if len(H) >= k + 2:
            k += 1
            signs = np.array([1.0 if i in H else -1.0 for i in range(h.m)])
            pts = np.hstack([math.cos(phi) * pts, math.sin(phi) * signs[:, None]])
        else:
            pts = _cap_sample(h.m, k, eps / 2.0, rng)
    return k, pts


# ---------------------------------------------------------------------------
# faithful bipartite construction


def _ball_sample(radius: float, dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=dim)
    norm = np.sqrt(g.dot(g))
    while norm < 1e-12:
        g = rng.normal(size=dim)
        norm = np.sqrt(g.dot(g))
    return (radius * rng.uniform() ** (1.0 / dim)) * g / norm


def _sample_b_cluster(m: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """B-side cluster: diameter <= B_DIAMETER, flattened against a hyperplane."""
    pts = np.zeros((m, d))
    for j in range(m):
        pts[j, : d - 1] = _ball_sample(0.045, d - 1, rng)
        pts[j, d - 1] = rng.uniform(-0.0045, 0.0045)
    return pts


_SUBSET_BLOCK = 4096  # subsets per stacked test; bounds memory on big clusters


def _subset_blocks(m: int, t: int):
    """The t-subsets of range(m) in combinations order, as read-only (k, t)
    index arrays of at most _SUBSET_BLOCK rows each: views of _subsets(m, t)."""
    subsets = _subsets(m, t)
    return (subsets[i:i + _SUBSET_BLOCK] for i in range(0, len(subsets), _SUBSET_BLOCK))


@lru_cache(maxsize=16)
def _subsets(m: int, t: int) -> np.ndarray:
    flat = np.fromiter(chain.from_iterable(combinations(range(m), t)), dtype=np.intp)
    flat.flags.writeable = False
    return flat.reshape(-1, t)


def _b_cluster_ok(pts: np.ndarray, d: int) -> bool:
    """General position of the B cluster alone: points 1e-3 apart within
    B_DIAMETER, and
    (a) every subset of size <= d+1 is affinely independent (one stacked
        rank test of the subsets of size min(d+1, m), which hold the rest);
    (b) no d+1 points lie within 1e-3 of a common unit sphere (one stacked
        circumradius solve, on the simplices gathered for (a)).
    embed_bipartite_faithful asks once a witness on the cluster is accepted.
    """
    m = pts.shape[0]
    dist = classify_pairs(None, pts).dist
    if dist.min(initial=np.inf) < 1e-3 or dist.max(initial=0.0) > B_DIAMETER:
        return False
    t = min(d + 1, m)  # pairs and single points are independent once 1e-3 apart
    for sub in _subset_blocks(m, t) if t >= 3 or t == d + 1 else ():
        simplices = pts[sub]  # (b) tests the simplices (a) gathered, once m >= d + 1
        if ((t >= 3 and np.any(affine_ranks(simplices) != t - 1))
                or (t == d + 1 and np.any(np.abs(circumradii(simplices) - 1.0) < 1e-3))):
            return False
    return True


def _margins_ok(y: np.ndarray, others: np.ndarray) -> bool:
    """y keeps _WORKING_SEP from every row of others and _SAMPLE_MARGIN away
    from unit distance to each."""
    if others.shape[0] == 0:
        return True
    rel = others - y
    dd = np.sqrt(np.add.reduce(rel * rel, axis=1))
    return bool(dd.min() >= _WORKING_SEP and np.abs(dd - 1.0).min() >= _SAMPLE_MARGIN)


def _sphere_sample(locus: Sphere, others: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray | None:
    """The first of up to 200 sphere_point draws on locus that passes
    _margins_ok against others, or None.

    After a miss on the first draw, a row p of others whose squared distance
    over the whole locus, |c - p|^2 + R^2 +- 2R |basis (c - p)|, stays 1e-9
    inside p's unit margin or below _WORKING_SEP fails every draw: the other
    199 normals are drawn at once and None is returned. rng then ends where
    199 more sphere_point calls would leave it, unless one of those normals
    is shorter than 1e-12, which sphere_point would redraw (at most about
    5e-25 per draw on a locus of two or more basis rows).
    """
    y = sphere_point(locus, rng)
    if _margins_ok(y, others):
        return y
    rel = locus.center - others  # |y - p|^2 = |rel|^2 + R^2 + 2R u.(basis rel), |u| = 1
    mid = (rel * rel).sum(axis=1) + locus.radius ** 2
    along = rel @ locus.basis.T
    half = 2.0 * locus.radius * np.sqrt(np.add.reduce(along * along, axis=1))
    if np.any(((mid - half > (1.0 - _SAMPLE_MARGIN + 1e-9) ** 2)
               & (mid + half < (1.0 + _SAMPLE_MARGIN - 1e-9) ** 2))
              | (mid + half < (_WORKING_SEP - 1e-9) ** 2)):
        rng.normal(size=(199, len(locus.basis)))  # no draw can pass
        return None
    draws = (sphere_point(locus, rng) for _ in range(199))
    return next((y for y in draws if _margins_ok(y, others)), None)


def _loci(nbs, bpts: np.ndarray) -> dict:
    """{nb: locus} for the nonempty nb in nbs: the points at unit distance
    from every point of bpts[sorted(nb)], as a Sphere. The minimal sphere of
    each neighbourhood comes from one stacked pass per size. A great sphere
    (radius >= _GREAT_SPHERE) has one such point, its centre, given as a
    radius-0 sphere with an empty basis; any other has its complementary
    sphere, from one stacked pass per basis rank. A neighbourhood on no
    common sphere, or one that spans R^dim, has no locus and no entry."""
    dim = bpts.shape[1]
    loci, minimal = {}, {}
    for group in _grouped(filter(None, nbs), len).values():
        for nb, ms in zip(group, minimal_spheres(bpts[[sorted(nb) for nb in group]])):
            if not isinstance(ms, Sphere):
                continue
            if ms.radius >= _GREAT_SPHERE:
                loci[nb] = Sphere(ms.center, 0.0, np.empty((0, dim)))
            elif len(ms.basis) < dim:
                minimal[nb] = ms
    for group in _grouped(minimal, lambda nb: len(minimal[nb].basis)).values():
        loci.update(zip(group, complementary_spheres([minimal[nb] for nb in group])))
    return loci


def place_on_spheres(nbhds: dict, bpts: np.ndarray,
                     rng: np.random.Generator) -> dict | None:
    """Place each vertex v at unit distance from the points bpts[nbhds[v]].

    Every neighbourhood's locus comes first (_loci), and the groups of
    vertices sharing a neighbourhood are then taken in order of their first
    vertex. A locus of finitely many places, a great sphere's centre or the
    two poles of a zero-dimensional complementary sphere, takes its group
    there and then: more vertices than places fail, a lone vertex takes the
    first place that clears the margins, and twins split the places in
    vertex order. A forced vertex that finds no place ends the call before
    any later group is looked at. Then, in vertex order, every other vertex
    is sampled on its locus (_sphere_sample), and one with an empty
    neighbourhood far from the cluster, up to 200 draws each. Each point
    must keep _WORKING_SEP from and _SAMPLE_MARGIN off unit distance to its
    non-neighbours in bpts and to everything placed before it. Returns
    {v: point in bpts' dimension}, or None when some vertex finds no place
    or some nonempty neighbourhood has no locus.
    """
    m, dim = bpts.shape
    placed: dict = {}
    rows = np.empty((len(nbhds), dim))  # placed points in order: rows[len(placed)] fills first

    def surroundings(v) -> np.ndarray:
        outside = np.ones(m, dtype=bool)
        outside[list(nbhds[v])] = False
        return np.concatenate([bpts[outside], rows[:len(placed)]])

    groups = _grouped(sorted(nbhds), nbhds.get)
    loci = _loci(groups, bpts)
    sampled = []
    for nb, verts in sorted(groups.items(), key=lambda kv: kv[1]):
        locus = loci.get(nb)
        if locus is None and nb:
            return None
        if locus is None or len(locus.basis) >= 2:
            sampled.extend((v, locus) for v in verts)
            continue
        u = locus.basis  # no row for a centre, one for a pair of poles
        places = locus.center + locus.radius * np.concatenate([u, -u]) if len(u) else [locus.center]
        if len(verts) > len(places):
            return None
        for i, v in enumerate(verts):  # vertex i of k tries places i, i + k, ...
            others = surroundings(v)
            y = next((p for p in places[i::len(verts)] if _margins_ok(p, others)), None)
            if y is None:
                return None
            rows[len(placed)] = placed[v] = y

    far = (np.add.reduce(bpts, axis=0) / m if m else np.zeros(dim)) + 3.0 * np.eye(dim)[0]
    for v, locus in sorted(sampled, key=lambda vl: vl[0]):
        others = surroundings(v)
        if locus is not None:
            y = _sphere_sample(locus, others, rng)
        else:
            draws = (far + _ball_sample(0.3, dim, rng) for _ in range(200))
            y = next((y for y in draws if _margins_ok(y, others)), None)
        if y is None:
            return None
        rows[len(placed)] = placed[v] = y
    return placed


def verified_witness(g: Graph, dim: int, ground, bpts: np.ndarray, nbhds: dict,
                     rng: np.random.Generator) -> Embedding | None:
    """g's embedding in R^dim with the ground vertices at the rows of bpts and
    the others where place_on_spheres(nbhds, bpts, rng) puts them,
    zero-padded; None when placement fails or verify.accepts refuses the
    result, which asks for points more than TOL_DISTINCT apart and every
    non-edge MARGIN_NONEDGE clear of unit length. Both exceed TOL_VERIFY, so
    an accepted embedding verifies faithfully at TOL_VERIFY."""
    placed = place_on_spheres(nbhds, bpts, rng)
    if placed is None:
        return None
    points = np.zeros((g.n, dim))
    k = bpts.shape[1]
    points[np.asarray(ground, dtype=int), :k] = bpts
    for v, y in placed.items():
        points[v, :k] = y
    if not accepts(g, points, TOL_DISTINCT, MARGIN_NONEDGE):
        return None
    return Embedding(dim=dim, points=points)


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
        """The PreconditionError side_a would raise as the A side, or None."""
        deg_bad = [(v, deg[v]) for v in side_a if deg[v] > d]
        if deg_bad:
            return PreconditionError(f"A-side degrees exceed d={d}: {deg_bad}", witness=deg_bad)
        groups = _grouped((v for v in side_a if deg[v] == d), lambda v: frozenset(g.neighbors(v)))
        twins = [vs for vs in groups.values() if len(vs) >= 3]
        if twins:
            return PreconditionError(
                f"three or more degree-{d} A vertices share a neighborhood: {twins}", witness=twins)
        return None

    error = violation(a)
    if error is None:
        return a, b
    if g.bipartition_a is None and violation(b) is None:
        return b, a
    raise error


def embed_bipartite_faithful(g: Graph, d: int, seed: int = 0) -> Embedding:
    """Faithful realization in R^d of a bipartite graph with A-degrees <= d.

    Each attempt draws the B side as a flat cluster of diameter B_DIAMETER,
    and verified_witness has place_on_spheres put each A vertex on the
    complementary sphere of its neighborhood's minimal sphere (degree-d
    vertices get its two poles). An accepted witness is returned once its
    cluster passes the general-position checks of _b_cluster_ok.
    """
    if d < 2:
        raise PreconditionError("d must be at least 2")
    side_a, side_b = check_bipartite_preconditions(g, d)
    nbhds = neighborhoods_in(g, side_a, side_b)

    for attempt in range(_MAX_RETRIES):
        rng = np.random.default_rng([seed, attempt])
        bpts = _sample_b_cluster(len(side_b), d, rng)
        emb = verified_witness(g, d, side_b, bpts, nbhds, rng)
        if emb is not None and _b_cluster_ok(bpts, d):
            return emb
    raise RealizationError(
        f"faithful embedding failed after {_MAX_RETRIES} attempts (seed {seed})"
    )
