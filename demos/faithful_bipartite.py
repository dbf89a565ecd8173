"""
Faithful realization of a bipartite graph
==========================================

Faithful means both directions: edges at distance exactly one AND every
non-edge strictly away from one. For a bipartite graph whose A side has
maximum degree d and no three degree-d vertices sharing a neighborhood, the
construction samples the B side as a flat cluster of diameter 0.1 in
general position and puts each A vertex on the sphere of points at unit
distance from all of its neighbors.
"""

import numpy as np

from udgraph import Graph, embed_bipartite_faithful, make_kprime, verify

# K'_4 with one vertex removed per part keeps A-degrees at 3
g = make_kprime(4)
print("graph:", g.n, "vertices,", len(g.edges), "edges")

emb = embed_bipartite_faithful(g, 5, seed=7)
pts = np.asarray(emb.points)
print("realized in R^%d" % emb.dim)

edge_devs = []
nonedge_margins = []
edges = set(g.edges)
for i in range(g.n):
    for j in range(i + 1, g.n):
        dist = np.linalg.norm(pts[i] - pts[j])
        if (i, j) in edges:
            edge_devs.append(abs(dist - 1.0))
        else:
            nonedge_margins.append(abs(dist - 1.0))

print("worst edge deviation:   %.3g" % max(edge_devs))
print("worst non-edge margin:  %.3g" % min(nonedge_margins))

rep = verify(g, emb, mode="faithful", tol=1e-7)
print("faithful verification:", "PASS" if rep.passed else "FAIL")

# a second call with the same seed reproduces the coordinates bit for bit
emb2 = embed_bipartite_faithful(g, 5, seed=7)
print("deterministic:", emb.to_json() == emb2.to_json())

# a quick random instance, same shape as the stress tests use
rng = np.random.default_rng(3)
b_count = 6
rows = []
for a in range(9):
    deg = int(rng.integers(1, 4))
    nbrs = rng.choice(b_count, size=deg, replace=False)
    rows.append(sorted(int(x) for x in nbrs))
edges = [(a, 9 + b) for a, nbrs in enumerate(rows) for b in nbrs]
g2 = Graph(9 + b_count, edges)
emb3 = embed_bipartite_faithful(g2, 4, seed=1)
print("random instance:", "PASS" if verify(g2, emb3, "faithful", tol=1e-7).passed else "FAIL")
