"""Certified dimension bounds for faithful realizability of bipartite graphs.

The lower-bound side is a small rule engine. In any faithful realization,
each full-degree A vertex forces the whole B side onto a unit sphere around
it. With B on a sphere S^k of radius at most 1, the s such vertices sit at
its centre (radius 1) or on a sphere of dimension d - k - 2, so they need
d >= k + min(s, 3). A one-vertex B side is the case k = -1, radius 0: they
lie on S^(d-1) about it, so one or two need d >= 1 and three need d >= 2.
Within a common sphere, an independence chain (three distinct starting
points, then repeated extension by a vertex excluded from a condition that
contains the whole prefix) forces affine rank to grow, which bounds k from
below. These rules are deliberately incomplete; UNDECIDED is an honest verdict.

The upper-bound side realizes the H-system on a sphere (realize_hsystem),
scales it, and places the A vertices on complementary spheres, producing a
verified witness embedding whenever the numbers cooperate. On K'_d (d = 3..10),
K''_d (d = 3..8) and the remark graphs (d = 3..5) it does so at d + 1, one
dimension above the refutation. An edgeless graph
the construction does not reach (it never builds in fewer than two
dimensions) is placed on the line, where distinct points realize it.

With no full-degree vertex (s = 0) there is no common sphere and the chain
rule does not apply to realizations, so the audit never claims
NOT_REALIZABLE in that case: the path on five vertices is faithful on the
integer line yet its H-system would naively suggest a 2-dimensional bound.

R^0 is a single point, so d = 0 is decided outright once the offset rule
has had its say: at most one vertex fits and two never do.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .embed import (
    Embedding,
    HSystem,
    RealizationError,
    growth_dimension,
    realize_hsystem,
    verified_witness,
)
from .graphs import Graph, bipartition_of, graph_to_json, neighborhoods_in

_CHAIN_NODE_CAP = 100_000


@dataclass(frozen=True, eq=False)
class AuditReport:
    graph_id: str
    d_queried: int
    verdict: str  # NOT_REALIZABLE | REALIZABLE | UNDECIDED
    k_lower: int
    k_upper: int
    s: int
    rule_chain: tuple
    embedding: Embedding | None = None

    def to_dict(self) -> dict:
        return {
            "graph_id": self.graph_id,
            "d_queried": self.d_queried,
            "verdict": self.verdict,
            "k_lower": self.k_lower,
            "k_upper": self.k_upper,
            "s": self.s,
            "rule_chain": [dict(r) for r in self.rule_chain],
            "embedding": None if self.embedding is None else self.embedding.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def graph_id(g: Graph) -> str:
    digest = hashlib.sha1(graph_to_json(g).encode()).hexdigest()[:10]
    return f"n{g.n}-m{g.m}-{digest}"


def hsystem_of(g: Graph, side: str = "A") -> HSystem:
    """Neighborhood system of one side of a bipartite graph.

    side names the condition side: its vertices' neighborhoods become subsets
    of the other (ground) side, indexed in sorted vertex order. Full
    neighborhoods are counted in s, the rest are the conditions. Over an
    empty ground side every neighborhood is empty and excludes nothing, so
    it is neither a condition nor counted in s.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    a, b = bipartition_of(g)
    cond_side, ground = (a, b) if side == "A" else (b, a)
    return _hsystem(neighborhoods_in(g, cond_side, ground), len(ground))


def _hsystem(nbhds: dict, m: int) -> HSystem:
    """hsystem_of for neighborhoods over a ground side of m vertices."""
    nbs = nbhds.values()
    return HSystem(m=m, conditions=tuple(nb for nb in nbs if len(nb) < m),
                   s=sum(len(nb) == m for nb in nbs) if m else 0)


def lemedge_bound(k: int) -> int:
    """Minimum total condition size that can force dimension beyond k:
    C(k+3, 2) - 3."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return math.comb(k + 3, 2) - 3


def lemedge2_guarantee(sizes) -> tuple:
    """Greedy maximal subsequence with |H_{i_j}| >= j+2; returns (s, s+1).

    The greedy walk is growth_dimension's, with s its number of growth
    steps. The system is realizable on S^k for every k >= s+1, so s+1 is the
    guaranteed sphere dimension. Expects sizes nondecreasing.
    """
    sizes = list(sizes)
    if any(sizes[i] > sizes[i + 1] for i in range(len(sizes) - 1)):
        raise ValueError("sizes must be nondecreasing")
    k = growth_dimension(sizes)
    return k - 1, k


def edge_sum(h: HSystem) -> int:
    """Sum of |H_i| over all conditions, full ones included; equals the edge
    count of the bipartite graph the system came from."""
    return sum(len(c) for c in h.conditions) + h.s * h.m


def _chain_search(h: HSystem, node_cap: int) -> tuple:
    """(chain, truncated): the longest independence chain found within the
    node budget, and whether the cap stopped the search short of a chain
    through all m elements.

    A chain starts with up to three free elements (three distinct points on
    a sphere are never collinear) and extends by any j outside some condition
    that contains the entire current chain. Sets of elements are int
    bitmasks, bit i for element i: the conditions are masks, a chain's set
    is one, and the elements that may extend it are the OR of full & ~c over
    the conditions c that contain it, taken in increasing order. Extension
    validity depends only on the chain as a set, so the search memoizes on
    those masks. The result is a valid chain even when the cap truncates the
    search.
    """
    m = h.m
    if m <= 3:
        return list(range(m)), False
    full = (1 << m) - 1
    conds = [sum(1 << i for i in c) for c in h.conditions]
    best: list = [0, 1, 2]
    seen: set = set()
    nodes = 0

    def extend(chain: int, order: list):
        nonlocal best, nodes
        if len(order) > len(best):
            best = list(order)
        if len(order) == m or nodes > node_cap:
            return
        free = 0
        for c in conds:
            if chain & c == chain:
                free |= full & ~c
        while free:
            low = free & -free
            free ^= low
            grown = chain | low
            if grown in seen:
                continue
            seen.add(grown)
            nodes += 1
            extend(grown, order + [low.bit_length() - 1])

    # a start triple that no condition contains never extends, so past the
    # first triple, which seeds best, only the contained ones are tried
    for start in _contained_triples(m, conds):
        if nodes > node_cap or len(best) == m:
            break
        extend(sum(1 << i for i in start), list(start))
    return best, nodes > node_cap and len(best) < m


def _contained_triples(m: int, conds: list):
    """The triples of range(m) that some condition mask of conds contains,
    in lexicographic order."""
    for a in range(m):
        with_a = [c for c in conds if c >> a & 1]
        for b in range(a + 1, m):
            third = 0
            for c in with_a:
                if c >> b & 1:
                    third |= c
            yield from ((a, b, x) for x in range(b + 1, m) if third >> x & 1)


def k_lower_bound(h: HSystem) -> int:
    """Certified lower bound on the sphere dimension of any realization."""
    return _lower_rules(h, "A")[0]


def _lower_rules(h: HSystem, side: str) -> tuple:
    """(k_lower, rule entries) with the witnesses that produced the bound."""
    rules = []
    best = 0
    if h.m >= 3:
        best = 1
        rules.append({"rule": "R1", "params": {"side": side, "m": h.m}})
    chain, truncated = _chain_search(h, _CHAIN_NODE_CAP)
    if len(chain) - 2 > best:
        best = len(chain) - 2
        params = {"side": side, "chain": chain, "length": len(chain)}
        if truncated:
            params["truncated"] = True
        rules.append({"rule": "R2_chain", "params": params})
    return best, rules


def _offset(s: int) -> int:
    """Dimensions the s >= 1 full-degree vertices add above the B sphere's:
    one centre, two poles of a 0-sphere, or three points of a circle."""
    return min(max(s, 1), 3)


class _Side(NamedTuple):
    """One side's neighborhoods over the ground side, with what they certify;
    required is None when s = 0, where there is no common sphere."""

    name: str
    ground: list
    nbhds: dict
    h: HSystem
    k_lower: int
    rules: list
    required: int | None


def _sides(g: Graph) -> tuple:
    """(_Side A, _Side B) from one bipartition of g."""
    a, b = bipartition_of(g)
    out = []
    for name, cond, ground in (("A", a, b), ("B", b, a)):
        nbhds = neighborhoods_in(g, cond, ground)
        h = _hsystem(nbhds, len(ground))
        k_low, rules = _lower_rules(h, name)
        # one ground vertex: k = -1 and radius 0, no centre for a lone one
        k, s = (-1, max(h.s, 2)) if h.m == 1 else (k_low, h.s)
        required = k + _offset(s) if h.s else None
        out.append(_Side(name, ground, nbhds, h, k_low, rules, required))
    return tuple(out)


# ---------------------------------------------------------------------------
# upper side: witness construction


def _construct_side(g: Graph, d_query: int, side: _Side, seed: int):
    """Witness embedding via H-system realization plus sphere placement.

    Returns (embedding at dim d_query, params dict) or None. The ground side
    is the realized H-system scaled by r in k + _offset(s) dimensions. With
    exactly one full-degree vertex the sphere stays at radius 1 so that
    vertex can sit at the center; otherwise r = 0.3, which fattens every
    complementary sphere (radius sqrt(1-r^2) instead of near zero) and, for
    s >= 2, splits the full-degree centers off the sphere onto fresh axes.
    Every other vertex goes to the complementary sphere of its
    neighborhood's minimal sphere.
    """
    s = side.h.s
    k = growth_dimension(side.h.sizes)
    d_up = k + _offset(s)
    if d_up > d_query:
        return None
    r = 1.0 if s == 1 else 0.3
    for attempt in range(20):
        try:
            _, unit_pts = realize_hsystem(side.h, eps=0.2, seed=seed * 1009 + attempt)
        except RealizationError:
            continue
        rng = np.random.default_rng([seed, attempt, 77])
        bpts = np.pad(r * unit_pts, ((0, 0), (0, d_up - unit_pts.shape[1])))
        emb = verified_witness(g, d_query, side.ground, bpts, side.nbhds, rng)
        if emb is not None:
            return emb, {"k": k, "s": s, "dim_constructed": d_up, "r": r}
    return None


def faithful_dim_audit(g: Graph, d: int) -> AuditReport:
    """Audit faithful realizability of a bipartite graph in R^d.

    NOT_REALIZABLE comes with a rule chain proving d is below the certified
    requirement; REALIZABLE comes with a verified witness embedding padded to
    dimension d; UNDECIDED is returned whenever the bounds do not meet.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    sides = _sides(g)
    lead = max(sides, key=lambda sd: -1 if sd.required is None else sd.required)
    chain = list(lead.rules)
    if lead.required is not None:
        chain.append({"rule": "s_offset", "params": {
            "side": lead.name, "s": lead.h.s, "offset": lead.required - lead.k_lower,
            "required_d": lead.required}})
    report = AuditReport(
        graph_id=graph_id(g), d_queried=d, verdict="UNDECIDED",
        k_lower=lead.k_lower, k_upper=growth_dimension(lead.h.sizes),
        s=lead.h.s, rule_chain=tuple(chain),
    )
    if lead.required is not None and d < lead.required:
        return replace(report, verdict="NOT_REALIZABLE")
    if d == 0:
        # R^0 is one point: it holds one vertex and no two distinct ones
        point_chain = report.rule_chain + ({"rule": "point_space", "params": {"n": g.n}},)
        if g.n >= 2:
            return replace(report, verdict="NOT_REALIZABLE", rule_chain=point_chain)
        return replace(report, verdict="REALIZABLE", rule_chain=point_chain,
                       embedding=Embedding(dim=0, points=np.zeros((g.n, 0))))

    for seed, side in enumerate(sides):
        out = _construct_side(g, d, side, seed)
        if out is not None:
            emb, params = out
            construction = {"rule": "construction", "params": {"side": side.name, **params}}
            return replace(
                report, verdict="REALIZABLE", k_lower=side.k_lower,
                k_upper=params["k"], s=side.h.s,
                rule_chain=(*side.rules, construction), embedding=emb,
            )

    if g.m == 0 and d >= 1:
        # any distinct points realize an edgeless graph faithfully; spaced 2
        # apart on the first axis, every pair is 1 clear of unit length
        points = np.zeros((g.n, d))
        points[:, 0] = 2.0 * np.arange(g.n)
        return replace(
            report, verdict="REALIZABLE", embedding=Embedding(dim=d, points=points),
            rule_chain=report.rule_chain + ({"rule": "edgeless_line", "params": {"spacing": 2.0}},),
        )

    return report
