"""
How the incremental sphere construction decides its dimension
==============================================================

The bipartite constructions reduce to one combinatorial object: a system of
subsets of the B side (the neighborhoods of the A vertices) that must each
be placed on a common sphere. The points start on a circle and the sphere
dimension grows only when a condition arrives that is too large for the
current dimension, so the final dimension is read off the sorted size
sequence alone.
"""

import numpy as np

from udgraph import (
    affine_rank,
    edge_sum,
    growth_dimension,
    hsystem_of,
    k_lower_bound,
    lemedge2_guarantee,
    make_kprime,
    realize_hsystem,
)

g = make_kprime(5)
h = hsystem_of(g)
print("m =", h.m, " condition sizes =", h.sizes, " presatisfied s =", h.s)
print("edge_sum =", edge_sum(h), " k lower bound =", k_lower_bound(h))

# the guarantee (s, k) says: s conditions come for free on the circle and
# the rest fit on S^k
print("guarantee (s, sphere dim):", lemedge2_guarantee(h.sizes))
print("growth_dimension:", growth_dimension(tuple(h.sizes)))

k, pts = realize_hsystem(h, seed=11)
pts = np.asarray(pts)
print("realized on S^%d, points shape %s" % (k, pts.shape))
print("norms all one:", np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9))

# each condition pins its members to a proper flat that every outsider
# avoids: appending any non-member strictly raises the affine rank, which
# is exactly what lets an extra sphere pass through the members only
for cond in h.conditions:
    members = pts[sorted(cond)]
    base = affine_rank(members)
    raised = all(
        affine_rank(np.vstack([members, pts[i]])) == base + 1
        for i in range(h.m) if i not in cond
    )
    print("condition", sorted(cond), " flat rank", base,
          " outsiders raise it:", raised)

# the rotation schedule keeps the cloud flat: each of the `steps` growth steps
# rotates by eps/(4*steps), so the angles sum to eps/4; the cloud is sampled
# in a cap of spread eps/2 and here ends under eps across
for eps in (0.01, 0.2):
    _, cloud = realize_hsystem(h, eps=eps, seed=11)
    diam = max(np.linalg.norm(p - q) for p in cloud for q in cloud)
    print("eps = %g: cloud diameter %.4f, under eps: %s" % (eps, diam, diam < eps))
