"""Exhaustive small-n censuses of realizable graphs and counting bounds.

Sorts every labelled graph on n vertices (n <= 6, at most 32768 graphs in
156 isomorphism classes) into its class, classifies each class as
realizable or not under the faithful or the plain distance semantics, and
keeps one row per class; the report expands the labelled entries and the
counts from those rows. Both semantics place the vertices at distinct
points, so a faithful realization is a distance realization and every
distance obstruction refutes both.

On the line the classifier is exact: a graph embeds in R^1 iff it is a
disjoint union of paths. In higher dimension each isomorphism class first
meets an ordered table of elementary obstructions (_RULES: simplex, lenz
and, in the plane, the rhombus closure of the unit 4-cycles), all three read
off one search for complete multipartite subgraphs; a rule that fires is a
proof, recorded on the class's row as {"rule", "params"}. Only a class no
rule refutes reaches the numeric solver, whose witness is checked by verify
and whose exhausted search is evidence, never proof; all those classes go
to the solver as one batch (solver.solve_many). The method tag on every row
keeps these three kinds of answer apart.

Also provides the zero-pattern counting bound C(n(n-1), nd) on the number
of faithfully realizable graphs and the Ramsey-style lower bound built on
it. The matching exact Ramsey search is trivial where a census can run it:
for s <= 3 every graph on s vertices or its complement is a linear forest,
faithful on the line and so in every R^d.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import NamedTuple

import numpy as np

from .graphs import Graph
from .solver import MARGIN_NONEDGE, TOL_RESIDUAL, SolverConfig, solve_many

_MAX_CENSUS_N = 6
_SCAN_WINDOW = 64  # masks the orbit sweep scans at once after a hit

STATUS_REALIZABLE = "REALIZABLE"
STATUS_NOT_REALIZABLE = "NOT_REALIZABLE"
STATUS_PRESUMED_NOT = "PRESUMED_NOT"

METHOD_EXACT = "EXACT_ORACLE"
METHOD_RULE = "CERTIFIED_RULE"
METHOD_FOUND = "SOLVER_FOUND"
METHOD_EXHAUSTED = "SOLVER_EXHAUSTED"


def zero_pattern_bound(n: int, d: int) -> int:
    """Upper bound C(n(n-1), nd) on the number of faithful distance graphs.

    The bound counts sign patterns of the n(n-1) polynomials
    |x_i - x_j|^2 - 1 in the nd coordinates, so it needs nd strictly below
    n(n-1) (and n >= 2d) to say anything; out-of-range inputs are rejected
    with the failing inequality, not computed.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got d={d}")
    if n < 2 * d:
        raise ValueError(f"zero-pattern bound needs n >= 2d, got n={n}, d={d}")
    if n * d >= n * (n - 1):
        raise ValueError(
            "zero-pattern bound needs nd < n(n-1), got "
            f"nd={n * d} >= n(n-1)={n * (n - 1)}"
        )
    return math.comb(n * (n - 1), n * d)


def linear_forest_oracle(g: Graph) -> bool:
    """Exact realizability test on the line.

    A graph embeds in R^1 (faithfully or not: the two notions coincide
    there) iff every component is a path: a vertex on the line has only
    the two unit slots x-1 and x+1, and a cycle would force its rightmost
    vertex's two neighbours onto the same slot.
    """
    if max(g.degrees(), default=0) > 2:
        return False
    label = list(range(g.n))  # union-find: each vertex holds its component's label
    for u, v in g.edges:
        if label[u] == label[v]:
            return False  # the edge closes a cycle
        old = label[u]
        label = [label[v] if x == old else x for x in label]
    return True


def _multipartite(g: Graph, sizes):
    """Yield each copy in g of the complete multipartite graph with the given
    part sizes once, as a tuple of increasing parts. Each part is drawn from
    the common neighbourhood of the vertices chosen before it, an intersection
    of neighbour sets; a part the size of the one before it starts above that
    part's least vertex, so equal parts come in one order only."""
    if sum(sizes) > g.n:  # no copy: build no neighbour sets
        return
    nbrs = [frozenset(nb) for nb in g.adjacency()]

    def extend(parts: tuple, pool: list):
        k = len(parts)
        if k == len(sizes):
            yield parts
        elif len(pool) >= sum(sizes[k:]):
            if k and sizes[k] == sizes[k - 1]:
                pool = [v for v in pool if v > parts[-1][0]]
            for part in combinations(pool, sizes[k]):
                common = nbrs[part[0]].intersection(*(nbrs[v] for v in part[1:]))
                yield from extend(parts + (part,), [v for v in pool if v in common])

    yield from extend((), list(range(g.n)))


def is_krt_obstructed(g: Graph, d: int) -> bool:
    """Check for a complete multipartite K_{3,...,3} with d//2 + 1 parts.

    Containing one as a subgraph rules out any distance realization in R^d:
    three distinct points at unit distance from a common point are not
    collinear, so each part spans a 2-plane, and the points equidistant from
    it lie in an orthogonal flat; d//2 + 1 pairwise orthogonal 2-planes do not
    fit in R^d. With a single part there is nothing to check (no cross
    edges), so the test only fires for d >= 2.
    """
    parts = d // 2 + 1
    return parts >= 2 and next(_multipartite(g, (3,) * parts), None) is not None


def _simplex(g: Graph, d: int):
    """At most d + 1 points of R^d are pairwise at unit distance."""
    return {"k": d + 2} if next(_multipartite(g, (1,) * (d + 2)), None) else None


def _lenz(g: Graph, d: int):
    return {"parts": d // 2 + 1} if is_krt_obstructed(g, d) else None


def _reduce(vec: list, rows: dict) -> list:
    """vec reduced by the integer echelon rows (pivot -> row), exactly: each
    step cross-multiplies to clear a pivot, then divides by the gcd."""
    for p in sorted(rows):
        row, f = rows[p], vec[p]
        if f:
            vec = [row[p] * x - f * y for x, y in zip(vec, row)]
            k = math.gcd(*vec) or 1
            vec = [x // k for x in vec]
    return vec


def _plane_rhombus(g: Graph, d: int):
    """A unit 4-cycle a-b-c-e on distinct points of the plane is a rhombus: b
    and e are the two crossing points of the unit circles about a and c, so
    x_a + x_c = x_b + x_e. The rule reads each 4-cycle once, as the K_{2,2}
    copy ((a, c), (b, e)) with a < b, reduces its relation, and fires when
    their whole span forces x_u = x_v for u != v; its params give only the
    span's rank, a class invariant. K_{2,3} and a neighbourhood no hexagon
    holds (unit chords span 60 degrees) are special cases."""
    if d != 2:
        return None
    rows = {}
    for (a, c), (b, e) in _multipartite(g, (2, 2)):
        rel = _reduce([(v in (a, c)) - (v in (b, e)) for v in range(g.n)], rows)
        if any(rel):
            rows[next(i for i, x in enumerate(rel) if x)] = rel
    forced = (not any(_reduce([(w == u) - (w == v) for w in range(g.n)], rows))
              for u, v in combinations(range(g.n), 2))
    return {"rank": len(rows)} if any(forced) else None


# The refutation rules in the order they are tried; the first that fires wins.
# Each is sound for distance realizations with distinct points, hence for
# faithful ones. A rule runs on a class representative and every labelled
# copy shares its entry, so params describe the obstruction, never its
# vertices.
_RULES = (
    ("simplex", _simplex),
    ("lenz", _lenz),
    ("plane_rhombus", _plane_rhombus),
)


def _refuting_rule(g: Graph, d: int):
    """The first rule of the table that proves g has no distance realization
    in R^d (d >= 2), as {"rule": name, "params": {...}}, or None."""
    for name, test in _RULES:
        params = test(g, d)
        if params is not None:
            return {"rule": name, "params": params}
    return None


def _pairs(n: int) -> tuple:
    """The vertex pairs i < j in the order of their bits in a mask."""
    return tuple(combinations(range(n), 2))


def _edge_table(n: int) -> list:
    """The edges of every n-vertex mask, in mask order: a mask's edges are
    those of the mask without its top bit, then the top bit's pair."""
    pairs = _pairs(n)
    table = [()]
    for mask in range(1, 1 << len(pairs)):
        top = mask.bit_length() - 1
        table.append(table[mask ^ 1 << top] + (pairs[top],))
    return table


def _graph_of_mask(mask: int, n: int) -> Graph:
    return Graph(n, (p for i, p in enumerate(_pairs(n)) if mask >> i & 1))


def _canonical_masks(n: int) -> np.ndarray:
    """The least mask isomorphic to each n-vertex mask, as an int64 array
    indexed by mask, by an orbit sweep.

    Row p of the (n!, C(n,2)) weight table holds, for each pair, the bit
    weight of its image under the p-th relabeling, read off a symmetric
    (n, n) table of pair slots by indexing it with the permuted endpoints;
    so weight @ bits(mask) lists every relabeled copy of mask. Masks are
    walked in ascending order, so the first one not yet labelled is the
    least of its class and labels all its images. The walk looks for that
    mask in a window of canon, doubling the window while it finds none and
    shrinking it back to _SCAN_WINDOW after each hit.
    """
    u, v = np.array(_pairs(n), dtype=np.intp).reshape(-1, 2).T
    slot = np.zeros((n, n), dtype=np.int64)
    slot[u, v] = slot[v, u] = np.arange(u.size)
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    weight = 1 << slot[perms[:, u], perms[:, v]]
    shifts = np.arange(u.size)
    canon = np.full(1 << u.size, -1, dtype=np.int64)
    mask, w = 0, _SCAN_WINDOW
    while mask < canon.size:
        hits = np.flatnonzero(canon[mask:mask + w] < 0)
        if hits.size:
            mask += int(hits[0])
            canon[weight @ (mask >> shifts & 1)] = mask
            mask, w = mask + 1, _SCAN_WINDOW
        else:
            mask, w = mask + w, 2 * w
    return canon


def _classify(reps: list, n: int, d: int, semantics: str, cfg: SolverConfig) -> dict:
    """Classify the representatives: rep -> (status, method, residual, rule).

    The rules run on every representative first; the classes no rule refutes
    then go to the solver together, as one solve_many batch.
    """
    graphs = [_graph_of_mask(rep, n) for rep in reps]
    if d == 1:
        return {rep: ((STATUS_REALIZABLE if linear_forest_oracle(g) else STATUS_NOT_REALIZABLE),
                      METHOD_EXACT, None, None) for rep, g in zip(reps, graphs)}
    out, todo = {}, []
    for rep, g in zip(reps, graphs):
        rule = _refuting_rule(g, d)
        if rule is None:
            todo.append((rep, g))
        else:
            out[rep] = STATUS_NOT_REALIZABLE, METHOD_RULE, None, rule
    solved = solve_many([g for _, g in todo], d, cfg, faithful=semantics == "faithful")
    for (rep, _), res in zip(todo, solved):
        if res.status == "FOUND":
            out[rep] = STATUS_REALIZABLE, METHOD_FOUND, res.residual, None
        else:
            out[rep] = STATUS_PRESUMED_NOT, METHOD_EXHAUSTED, res.best_residual, None
    return out


class GraphEntry(NamedTuple):
    """Classification of one labelled graph in a census."""

    mask: int
    edges: tuple
    status: str
    method: str
    residual: float | None
    rule: dict | None = None  # the refuting {"rule", "params"} of a CERTIFIED_RULE entry


@dataclass(frozen=True, eq=False)
class CensusReport:
    """Classification of the labelled graphs on n vertices in R^d.

    The report holds one row per isomorphism class: canon, an int64 array,
    holds at index mask the least mask of mask's class, and classes maps that
    least mask to the class's (status, method, residual, rule). The entries,
    counts, JSON and CSV are read off these two (the writers never build
    entries, which are a view for callers). count_presumed_not is
    the complement of count_realizable: it takes in the count_refuted graphs a
    proof rules out as well as the SOLVER_EXHAUSTED ones.
    """

    n: int
    d: int
    semantics: str
    canon: np.ndarray
    classes: dict
    config: dict

    def _labelled(self):
        """(mask, edges, rep) for every labelled graph in mask order, rep being
        the least mask of its class: the one walk entries and the writers read."""
        return zip(range(self.canon.size), _edge_table(self.n), self.canon.tolist())

    @cached_property
    def entries(self) -> tuple:
        """One GraphEntry per labelled graph, in mask order, carrying its class's
        row; built on first access."""
        return tuple(GraphEntry(mask, edges, *self.classes[rep])
                     for mask, edges, rep in self._labelled())

    @cached_property
    def _orbit_sizes(self) -> np.ndarray:
        """Entry rep is the size of rep's class: one np.bincount(canon) per report."""
        return np.bincount(self.canon)

    def _count(self, status: str) -> int:
        """Labelled graphs with the given status: orbit sizes summed over the classes."""
        size = self._orbit_sizes
        return sum(int(size[rep]) for rep, row in self.classes.items() if row[0] == status)

    @property
    def count_realizable(self) -> int:
        return self._count(STATUS_REALIZABLE)

    @property
    def count_refuted(self) -> int:
        return self._count(STATUS_NOT_REALIZABLE)

    @property
    def count_presumed_not(self) -> int:
        return self.canon.size - self.count_realizable

    @property
    def exact(self) -> bool:
        """True when every class is oracle-backed (counts carry no uncertainty)."""
        return all(row[1] == METHOD_EXACT for row in self.classes.values())

    def _summary(self) -> dict:
        """Every top-level field of the report but its entries."""
        return {"n": self.n, "d": self.d, "semantics": self.semantics,
                "count_realizable": self.count_realizable,
                "count_presumed_not": self.count_presumed_not,
                "count_refuted": self.count_refuted, "exact": self.exact, "config": self.config}

    def to_dict(self) -> dict:
        rows = {rep: dict(zip(GraphEntry._fields[2:], row)) for rep, row in self.classes.items()}
        return {**self._summary(),
                "entries": [{"mask": mask, "edges": list(map(list, edges)), **rows[rep]}
                            for mask, edges, rep in self._labelled()]}

    def to_json(self) -> str:
        """json.dumps(to_dict(), sort_keys=True), written like to_csv: each
        class's row is formatted once, and no dict is built per labelled graph."""
        tails = {rep: json.dumps(dict(zip(GraphEntry._fields[2:], row)), sort_keys=True)[1:]
                 for rep, row in self.classes.items()}
        entries = ", ".join(
            '{"edges": [' + ", ".join(f"[{u}, {v}]" for u, v in edges) + f'], "mask": {mask}, '
            + tails[rep] for mask, edges, rep in self._labelled())
        fields = {**self._summary(), "entries": None}
        return "{" + ", ".join(
            f'"{key}": ' + (f"[{entries}]" if key == "entries" else json.dumps(value, sort_keys=True))
            for key, value in sorted(fields.items())) + "}"

    def to_csv(self) -> str:
        tails = {rep: ",".join((status, method,
                                "" if residual is None else format(residual, ".17g"),
                                "" if rule is None else rule["rule"]))
                 for rep, (status, method, residual, rule) in self.classes.items()}
        lines = ["graph_id,edges,status,method,residual,rule"]
        lines += [f"n{self.n}-mask{mask},{' '.join(f'{u}-{v}' for u, v in edges)},{tails[rep]}"
                  for mask, edges, rep in self._labelled()]
        return "\n".join(lines) + "\n"


def _run_census(n: int, d: int, semantics: str, cfg: SolverConfig, jobs: int) -> CensusReport:
    if not 1 <= n <= _MAX_CENSUS_N:
        raise ValueError(f"census supports 1 <= n <= {_MAX_CENSUS_N}, got n={n}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got d={d}")
    if jobs != 1:
        raise ValueError(f"the census runs in one process: jobs must be 1, got jobs={jobs}")
    if cfg is None:
        cfg = SolverConfig()

    canon = _canonical_masks(n)
    reps = np.flatnonzero(canon == np.arange(canon.size))  # a least mask labels itself
    classes = _classify(reps.tolist(), n, d, semantics, cfg)
    config = {
        "solver": {
            "restarts": cfg.restarts,
            "max_iters": cfg.max_iters,
            "tol_residual": TOL_RESIDUAL,
            "margin_nonedge": MARGIN_NONEDGE,
            "seed": cfg.seed,
        },
        "isomorphism_classes": len(classes),
    }
    return CensusReport(n, d, semantics, canon, classes, config)


def count_faithful(n: int, d: int, cfg: SolverConfig = None, jobs: int = 1) -> CensusReport:
    """Census of faithfully realizable labelled graphs on n vertices in R^d
    (in one process: jobs remains only for existing callers and must be 1)."""
    return _run_census(n, d, "faithful", cfg, jobs)


def count_distance(n: int, d: int, cfg: SolverConfig = None, jobs: int = 1) -> CensusReport:
    """Census of distance-realizable labelled graphs on n vertices in R^d
    (in one process: jobs remains only for existing callers and must be 1)."""
    return _run_census(n, d, "distance", cfg, jobs)


def ramsey_fd_lower(s: int, d: int) -> int:
    """Largest m certified below the faithful-distance Ramsey number.

    Uses the counting argument: if C(m,s) * 2^(1-C(s,2)) * B < 1 where B
    bounds the number of faithful distance graphs on s vertices, then some
    graph on m vertices avoids realizable induced s-subgraphs in both the
    graph and its complement. B is the smaller of 2^C(s,2) and the
    zero-pattern bound (falling back to 2^C(s,2) alone when the bound's
    hypothesis fails); weakening B only weakens the conclusion, never
    breaks it.
    """
    if s < 2:
        raise ValueError(f"need s >= 2, got s={s}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got d={d}")
    if s < 2 * d:
        raise ValueError(f"need s >= 2d, got s={s}, d={d}")
    full = 1 << math.comb(s, 2)
    try:
        bound = min(full, zero_pattern_bound(s, d))
    except ValueError:
        bound = full

    def holds(m):
        return math.comb(m + 1, s) * 2 * bound < full

    # holds is monotone in m and true at s - 2, where C(s - 1, s) = 0. The answer
    # is the first m where it fails: gallop up by doubling steps, then bisect.
    lo, step = s - 2, 1
    while holds(lo + step):
        lo, step = lo + step, 2 * step
    while step > 1:
        step //= 2
        if holds(lo + step):
            lo += step
    return lo + 1
