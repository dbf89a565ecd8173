"""Labelled graphs with an optional bipartition, generators and coloring.

Vertices are 0..n-1. Edges are stored as a frozenset of (u, v) pairs with
u < v; serialization sorts them lexicographically. The bipartition, when
present, names the A side of a bipartite graph (the side whose degrees the
faithful embedding construction constrains).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

# A document's n sizes the neighbour table before any other check (n = 10**9
# exhausts memory), and the audit's chain search grows steeply with n (10 s on
# 80 isolated vertices). The largest graph the package's tests, demos and
# benchmark build has 46 vertices.
MAX_DOCUMENT_N = 64
_MAX_EXACT_N = 16  # largest graph exact_coloring backtracks on


def _normalize_edges(n: int, edges) -> tuple:
    """The edge set as (u, v) pairs with u < v, and each vertex's sorted
    neighbours as a tuple of tuples."""
    out = set()
    nbrs = [[] for _ in range(n)]
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        pair = (u, v) if u < v else (v, u)
        if pair not in out:
            out.add(pair)
            nbrs[u].append(v)
            nbrs[v].append(u)
    return frozenset(out), tuple(tuple(sorted(nb)) for nb in nbrs)


@dataclass(frozen=True)
class Graph:
    """A labelled graph. Each vertex's sorted neighbours are tabled once at
    construction, outside the dataclass fields, so equality, hashing and repr
    see only n, edges and bipartition_a."""

    n: int
    edges: frozenset = field(default_factory=frozenset)
    bipartition_a: frozenset | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        edges, nbrs = _normalize_edges(self.n, self.edges)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_nbrs", nbrs)
        if self.bipartition_a is not None:
            a = frozenset(int(v) for v in self.bipartition_a)
            if any(not (0 <= v < self.n) for v in a):
                raise ValueError("bipartition_a vertex out of range")
            for u, v in self.edges:
                if (u in a) == (v in a):
                    raise ValueError(f"edge ({u}, {v}) does not cross the bipartition")
            object.__setattr__(self, "bipartition_a", a)

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def adjacency(self) -> list:
        return [list(nb) for nb in self._nbrs]

    def neighbors(self, v: int) -> list:
        return list(self._nbrs[v])

    def degree(self, v: int) -> int:
        return len(self._nbrs[v])

    def degrees(self) -> list:
        return [len(nb) for nb in self._nbrs]

    def complement(self) -> "Graph":
        non = [(u, v) for u, v in combinations(range(self.n), 2)
               if (u, v) not in self.edges]
        return Graph(self.n, frozenset(non))

    def to_dict(self) -> dict:
        d = {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}
        if self.bipartition_a is not None:
            d["bipartition_a"] = sorted(self.bipartition_a)
        return d


def graph_to_json(g: Graph) -> str:
    return json.dumps(g.to_dict(), separators=(", ", ": "))


def _ints(xs) -> bool:
    # type(x) is int: JSON true/false would pass isinstance(x, int)
    return isinstance(xs, (list, tuple)) and all(type(x) is int for x in xs)


def graph_from_dict(d: dict) -> Graph:
    """Graph from its dict form; a malformed document raises ValueError."""
    if not isinstance(d, dict) or not {"n", "edges"} <= d.keys():
        raise ValueError("a graph document is an object with keys 'n' and 'edges'")
    n, edges, bip = d["n"], d["edges"], d.get("bipartition_a")
    if type(n) is not int:
        raise ValueError(f"graph 'n' must be an integer, got {n!r}")
    if n > MAX_DOCUMENT_N:
        raise ValueError(f"graph 'n' is capped at {MAX_DOCUMENT_N}, got {n}")
    if not isinstance(edges, (list, tuple)) or not all(_ints(e) and len(e) == 2 for e in edges):
        raise ValueError("graph 'edges' must be a list of integer pairs")
    if bip is not None and not _ints(bip):
        raise ValueError("graph 'bipartition_a' must be a list of integers")
    return Graph(
        n=n,
        edges=frozenset(tuple(e) for e in edges),
        bipartition_a=frozenset(bip) if bip is not None else None,
    )


def graph_from_json(text: str) -> Graph:
    return graph_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# generators


def make_complete(n: int) -> Graph:
    return Graph(n, frozenset(combinations(range(n), 2)))


def make_complete_multipartite(sizes) -> Graph:
    """Complete multipartite graph; parts are consecutive vertex ranges."""
    sizes = [int(s) for s in sizes]
    if any(s <= 0 for s in sizes):
        raise ValueError("part sizes must be positive")
    n = sum(sizes)
    part = []
    for i, s in enumerate(sizes):
        part.extend([i] * s)
    edges = [(u, v) for u, v in combinations(range(n), 2) if part[u] != part[v]]
    bip = frozenset(range(sizes[0])) if len(sizes) == 2 else None
    return Graph(n, frozenset(edges), bipartition_a=bip)


def make_kprime(d: int) -> Graph:
    """K_{d,d} minus a matching of size d-3.

    A side is 0..d-1, B side d..2d-1. The first three A vertices keep all d
    neighbors; vertex a_i for i >= 3 (0-based) loses the edge to its matched
    b_i. Edge count d^2 - (d - 3).
    """
    if d < 3:
        raise ValueError("d must be at least 3")
    edges = [(i, d + j) for i in range(d) for j in range(d)
             if i < 3 or i != j]
    return Graph(2 * d, frozenset(edges), bipartition_a=frozenset(range(d)))


def make_kdoubleprime(d: int) -> Graph:
    """Bipartite graph on parts of size d with edges (a_i, b_j) for i > j
    together with all edges from the first three A vertices.

    Using 1-based part indices the edge set is {(a_i, b_j): i > j} joined with
    {(a_i, b_j): i <= 3}; the count comes to C(d+3, 2) - 6.
    """
    if d < 3:
        raise ValueError("d must be at least 3")
    edges = [(i, d + j) for i in range(d) for j in range(d)
             if i > j or i <= 2]
    return Graph(2 * d, frozenset(edges), bipartition_a=frozenset(range(d)))


def make_remark_graph(d: int) -> Graph:
    """Bipartite graph on parts of size d+2 with edges (a_i, b_j) for i >= j
    (1-based); C(d+3, 2) edges in total."""
    if d < 1:
        raise ValueError("d must be positive")
    p = d + 2
    edges = [(i, p + j) for i in range(p) for j in range(p) if i >= j]
    return Graph(2 * p, frozenset(edges), bipartition_a=frozenset(range(p)))


# ---------------------------------------------------------------------------
# coloring, bipartition


def greedy_coloring(g: Graph) -> list:
    """First-fit coloring in largest-degree-first vertex order (ties by id).

    Returns the color classes as a list of sorted vertex lists. Deterministic.
    """
    adj = g.adjacency()
    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    color = [-1] * g.n
    classes: list = []
    for v in order:
        used = {color[u] for u in adj[v] if color[u] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
        if c == len(classes):
            classes.append([])
        classes[c].append(v)
    return [sorted(cls) for cls in classes]


def _try_k_coloring(g: Graph, k: int) -> list | None:
    adj = g.adjacency()
    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    color = {}

    def extend(idx: int, used_colors: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        banned = {color[u] for u in adj[v] if u in color}
        # allowing at most one fresh color breaks color-permutation symmetry
        for c in range(min(used_colors + 1, k)):
            if c in banned:
                continue
            color[v] = c
            if extend(idx + 1, max(used_colors, c + 1)):
                return True
            del color[v]
        return False

    if not extend(0, 0):
        return None
    classes = [[] for _ in range(max(color.values(), default=-1) + 1)]
    for v, c in color.items():
        classes[c].append(v)
    return [sorted(cls) for cls in classes if cls]


def exact_coloring(g: Graph) -> list:
    """Optimal proper coloring by backtracking. Exponential; n capped."""
    if g.n > _MAX_EXACT_N:
        raise ValueError(f"exact coloring capped at n={_MAX_EXACT_N}")
    if g.n == 0:
        return []
    for k in range(1, g.n + 1):
        classes = _try_k_coloring(g, k)
        if classes is not None:
            return classes
    raise AssertionError("unreachable: n colors always suffice")


def bipartition_of(g: Graph) -> tuple:
    """(A, B) vertex sets: the stored bipartition if present, else a BFS
    2-coloring (isolated vertices go to A). Raises on odd cycles."""
    if g.bipartition_a is not None:
        a = set(g.bipartition_a)
        b = set(range(g.n)) - a
        return sorted(a), sorted(b)
    adj = g.adjacency()
    side = [-1] * g.n
    for root in range(g.n):
        if side[root] >= 0:
            continue
        side[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for w in adj[u]:
                    if side[w] < 0:
                        side[w] = 1 - side[u]
                        nxt.append(w)
                    elif side[w] == side[u]:
                        raise ValueError("graph is not bipartite")
            queue = nxt
    a = [v for v in range(g.n) if side[v] == 0]
    b = [v for v in range(g.n) if side[v] == 1]
    return a, b


def neighborhoods_in(g: Graph, side, ground) -> dict:
    """{v: frozenset of the positions in ground of v's neighbours} for each v
    in side; every neighbour of a side vertex must lie in ground."""
    index = {w: i for i, w in enumerate(ground)}
    return {v: frozenset(index[w] for w in g._nbrs[v]) for v in side}


def make_petersen() -> Graph:
    """Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, frozenset(edges))
