"""Certified dimension bounds for faithful realizability of bipartite graphs.

The lower-bound side is a small rule engine. In any faithful realization,
each full-degree A vertex forces the whole B side onto a unit sphere around
it; s such vertices cut the ambient dimension down by an offset of min(s, 3).
Within a common sphere, an independence chain (three distinct starting
points, then repeated extension by a vertex excluded from a condition that
contains the whole prefix) forces affine rank to grow, which bounds the
sphere dimension from below. These rules are deliberately incomplete;
UNDECIDED is an honest verdict.

The upper-bound side realizes the H-system on a sphere (realize_hsystem),
scales it, and places the A vertices on complementary spheres, producing a
verified witness embedding whenever the numbers cooperate.

With no full-degree vertex (s = 0) there is no common sphere and the chain
rule does not apply to realizations, so the audit never claims
NOT_REALIZABLE in that case: the path on five vertices is faithful on the
integer line yet its H-system would naively suggest a 2-dimensional bound.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .embed import (
    Embedding,
    FlatnessBudget,
    HSystem,
    RealizationError,
    growth_dimension,
    place_on_spheres,
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
    m = len(ground)
    s = 0
    conditions = []
    for nb in neighborhoods_in(g, cond_side, ground).values():
        if len(nb) < m:
            conditions.append(nb)
        elif m > 0:
            s += 1
    return HSystem(m=m, conditions=tuple(conditions), s=s)


def lemedge_bound(k: int) -> int:
    """Minimum total condition size that can force dimension beyond k:
    C(k+3, 2) - 3."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return math.comb(k + 3, 2) - 3


def lemedge2_guarantee(sizes) -> tuple:
    """Greedy maximal subsequence with |H_{i_j}| >= j+2; returns (s, s+1).

    The system is realizable on S^k for every k >= s+1, so s+1 is the
    guaranteed sphere dimension. Expects sizes nondecreasing.
    """
    sizes = list(sizes)
    if any(sizes[i] > sizes[i + 1] for i in range(len(sizes) - 1)):
        raise ValueError("sizes must be nondecreasing")
    s = 0
    for size in sizes:
        if size >= s + 3:
            s += 1
    return s, s + 1


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
    that contains the entire current chain. Extension validity depends only
    on the chain as a set, so the search memoizes on frozensets. The result
    is a valid chain even when the cap truncates the search.
    """
    m = h.m
    if m <= 3:
        return list(range(m)), False
    conds = [frozenset(c) for c in h.conditions]
    best: list = []
    seen: set = set()
    nodes = 0

    def extend(chain_set: frozenset, order: list):
        nonlocal best, nodes
        if len(order) > len(best):
            best = list(order)
        if len(order) == m or nodes > node_cap:
            return
        for j in range(m):
            if j in chain_set:
                continue
            if not any(chain_set <= c and j not in c for c in conds):
                continue
            grown = chain_set | {j}
            if grown in seen:
                continue
            seen.add(grown)
            nodes += 1
            extend(grown, order + [j])

    for start in combinations(range(m), 3):
        if nodes > node_cap or len(best) == m:
            break
        extend(frozenset(start), list(start))
    return best, nodes > node_cap and len(best) < m


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


_S_OFFSET = {1: 1, 2: 2}  # s >= 3 gives offset 3


def _required_dimension(s: int, k_lower: int):
    """Certified minimum ambient dimension, or None when s = 0 (no common
    sphere, so the chain machinery says nothing about realizations)."""
    if s == 0:
        return None
    return k_lower + _S_OFFSET.get(s, 3)


# ---------------------------------------------------------------------------
# upper side: witness construction


def _construct_side(g: Graph, d_query: int, cond_side, ground, h: HSystem,
                    seed: int):
    """Witness embedding via H-system realization plus sphere placement.

    Returns (embedding at dim d_query, params dict) or None. The B side is
    the realized H-system scaled by r. With exactly one full-degree vertex
    the sphere stays at radius 1 so that vertex can sit at the center;
    otherwise r = 0.3, which fattens every complementary sphere (radius
    sqrt(1-r^2) instead of near zero) and, for s >= 2, splits the full-degree
    centers off the sphere onto fresh axes. Every other A vertex goes to the
    complementary sphere of its neighborhood's minimal sphere.
    """
    s = h.s
    extra = 0 if s <= 1 else (1 if s == 2 else 2)
    k = growth_dimension(h.sizes)
    d_up = k + 1 + extra
    if d_up > d_query:
        return None
    r = 1.0 if s == 1 else 0.3
    nbhds = neighborhoods_in(g, cond_side, ground)

    for attempt in range(20):
        try:
            k_alg, unit_pts = realize_hsystem(
                h, FlatnessBudget(eps=0.2), seed=seed * 1009 + attempt)
        except RealizationError:
            continue
        if k_alg != k:
            continue
        rng = np.random.default_rng([seed, attempt, 77])
        bpts = np.pad(r * unit_pts, ((0, 0), (0, d_up - unit_pts.shape[1])))
        placed = place_on_spheres(nbhds, bpts, d_up, rng)
        if placed is None:
            continue
        emb = verified_witness(g, d_query, ground, bpts, placed)
        if emb is not None:
            return emb, {"k": k_alg, "s": s, "dim_constructed": d_up, "r": r}
    return None


def faithful_dim_audit(g: Graph, d: int) -> AuditReport:
    """Audit faithful realizability of a bipartite graph in R^d.

    NOT_REALIZABLE comes with a rule chain proving d is below the certified
    requirement; REALIZABLE comes with a verified witness embedding padded to
    dimension d; UNDECIDED is returned whenever the bounds do not meet.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    a, b = bipartition_of(g)
    gid = graph_id(g)

    sides = {}
    for side, (cond, ground) in (("A", (a, b)), ("B", (b, a))):
        h = hsystem_of(g, side=side)
        k_low, rules = _lower_rules(h, side)
        req = _required_dimension(h.s, k_low)
        sides[side] = {
            "h": h, "k_lower": k_low, "rules": rules, "required": req,
            "cond": cond, "ground": ground,
        }

    lead = max(
        ("A", "B"),
        key=lambda nm: (-1 if sides[nm]["required"] is None
                        else sides[nm]["required"]),
    )
    required = sides[lead]["required"]

    def without_witness(verdict: str) -> AuditReport:
        info = sides[lead]
        chain = list(info["rules"])
        if required is not None:
            chain.append({
                "rule": "s_offset",
                "params": {"side": lead, "s": info["h"].s,
                           "offset": required - info["k_lower"],
                           "required_d": required},
            })
        return AuditReport(
            graph_id=gid, d_queried=d, verdict=verdict,
            k_lower=info["k_lower"], k_upper=lemedge2_guarantee(info["h"].sizes)[1],
            s=info["h"].s, rule_chain=tuple(chain),
        )

    if required is not None and d < required:
        return without_witness("NOT_REALIZABLE")

    for side in ("A", "B"):
        info = sides[side]
        out = _construct_side(g, d, info["cond"], info["ground"], info["h"],
                              seed=(0 if side == "A" else 1))
        if out is not None:
            emb, params = out
            chain = list(info["rules"])
            chain.append({"rule": "construction",
                          "params": {"side": side, **params}})
            return AuditReport(
                graph_id=gid, d_queried=d, verdict="REALIZABLE",
                k_lower=info["k_lower"], k_upper=params["k"], s=info["h"].s,
                rule_chain=tuple(chain), embedding=emb,
            )

    return without_witness("UNDECIDED")
