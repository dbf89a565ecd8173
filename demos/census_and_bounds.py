"""
Counting unit-distance graphs and comparing against the zero-pattern bound
===========================================================================
"""

import math
from collections import Counter
from itertools import combinations

from udgraph import (
    Graph,
    SolverConfig,
    count_distance,
    count_faithful,
    linear_forest_oracle,
    ramsey_fd_lower,
    zero_pattern_bound,
)

# on the line the census is exact: a graph embeds faithfully in R^1 iff
# it is a disjoint union of paths
rep = count_faithful(4, 1)
print("faithful on 4 labelled vertices in R^1:", rep.count_realizable)
print("exact (oracle backed):", rep.exact)

rep5 = count_faithful(5, 1)
print("faithful on 5 labelled vertices in R^1:", rep5.count_realizable)

# in the plane each class first meets a table of elementary obstructions;
# only what no rule refutes goes to the numeric solver
cfg = SolverConfig(seed=0, restarts=40, max_iters=800)
rep2 = count_faithful(3, 2, cfg=cfg)
print("faithful on 3 labelled vertices in R^2:", rep2.count_realizable,
      "of", 2 ** 3)

rep42 = count_faithful(4, 2, cfg=cfg)
# the last mask has every edge; its class row is (status, method, residual, rule)
k4_status, _, _, k4_rule = rep42.classes[int(rep42.canon[-1])]
print("faithful on 4 labelled vertices in R^2:", rep42.count_realizable,
      "of", 2 ** 6, "- K_4 is", k4_status, "by rule", k4_rule["rule"])

rep2d = count_distance(3, 2, cfg=cfg)
print("distance  on 3 labelled vertices in R^2:", rep2d.count_realizable)

# the report holds one (status, method, residual, rule) row per isomorphism
# class, keyed by the class's least mask. In the plane a unit 4-cycle on
# distinct points is a rhombus; the rhombi of mask 6010 force two of its
# vertices onto one point, so it is not even a distance graph
print()
faithful6, distance6 = count_faithful(6, 2), count_distance(6, 2)
for report in (faithful6, distance6):
    status, method, _, rule = report.classes[6010]
    print(f"mask 6010 in R^2, {report.semantics} semantics: {status} "
          f"({method}) by rule {rule['rule']}, params {rule['params']}")

# a class that is a distance graph but not a faithful one separates the two
# notions; while the faithful side is only an exhausted search, not a proof,
# the class is a candidate
orbits = Counter(faithful6.canon.tolist())
pairs6 = list(combinations(range(6), 2))
for rep, (status, method, _, _) in sorted(faithful6.classes.items()):
    if status != "REALIZABLE" and distance6.classes[rep][0] == "REALIZABLE":
        kind = "candidate" if method == "SOLVER_EXHAUSTED" else "proved"
        edges = ",".join(f"{u}{v}" for i, (u, v) in enumerate(pairs6) if rep >> i & 1)
        print(f"{kind} separating class on 6 vertices in R^2: mask {rep}, "
              f"orbit {orbits[rep]}, edges {{{edges}}} (faithful side {method})")

# the algebraic ceiling: number of zero-patterns of the distance polynomials
print()
for n, d in ((4, 1), (4, 2), (20, 2)):
    b = zero_pattern_bound(n, d)
    print("zero-pattern bound n=%-2d d=%d: %s" % (n, d, b))
print("check against binomial form:", zero_pattern_bound(20, 2) == math.comb(380, 40))

# Ramsey-style consequence: below the threshold every 2-coloring of a clique
# has a monochromatic unit-distance class
print()
for s, d in ((3, 1), (6, 1), (8, 2)):
    print("ramsey lower bound s=%d d=%d:" % (s, d), ramsey_fd_lower(s, d))
# the exact number is s itself for s <= 3 in every dimension: each graph on
# 3 vertices, or its complement, is a union of paths, faithful on the line
pairs = list(combinations(range(3), 2))
subsets = [list(e) for k in range(4) for e in combinations(pairs, k)]
print("every graph on 3 vertices or its complement is a linear forest:",
      all(linear_forest_oracle(Graph(3, e))
          or linear_forest_oracle(Graph(3, [p for p in pairs if p not in e]))
          for e in subsets))
