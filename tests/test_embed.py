"""Constructive embeddings: orthogonal circles, bipartite placement, H-systems."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udgraph.embed import (
    B_DIAMETER,
    Embedding,
    FlatnessBudget,
    HSystem,
    PreconditionError,
    RealizationError,
    embed_bipartite_faithful,
    embed_colorable,
    embed_singleton_coloring,
    embedding_from_json,
    growth_dimension,
    realize_hsystem,
    _b_cluster_ok,
    _cap_sample,
    _conditions_hold,
    _sample_b_cluster,
    _subset_blocks,
)
from udgraph.geometry import (
    affine_rank,
    circumsphere,
    complementary_sphere,
    minimal_sphere,
)
from udgraph.graphs import (
    Graph,
    exact_coloring,
    make_complete,
    make_complete_multipartite,
    make_kprime,
    make_petersen,
)
from udgraph.verify import verify


def _edge_devs(g, emb):
    return [abs(float(np.linalg.norm(emb.points[u] - emb.points[v])) - 1.0) for u, v in g.edges]


def test_embed_colorable_triangle():
    g = make_complete(3)
    emb = embed_colorable(g, [[0], [1], [2]])
    assert emb.dim == 6
    assert max(_edge_devs(g, emb)) < 1e-12
    assert verify(g, emb, mode="distance").passed


def test_cross_circle_distance_exact():
    r = 1 / np.sqrt(2)
    p = np.array([r, 0.0, 0.0, 0.0])
    q = np.array([0.0, 0.0, r, 0.0])
    assert np.linalg.norm(p - q) == pytest.approx(1.0, abs=1e-15)


def test_embed_colorable_petersen():
    g = make_petersen()
    classes = exact_coloring(g)
    emb = embed_colorable(g, classes)
    assert emb.dim == 6
    assert max(_edge_devs(g, emb)) <= 1e-9


def test_embed_colorable_rejects_improper():
    g = make_complete(3)
    with pytest.raises(PreconditionError):
        embed_colorable(g, [[0, 1], [2]])


def test_embed_singleton_star():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    emb = embed_singleton_coloring(g, [[0], [1, 2, 3, 4]])
    assert emb.dim == 3  # one singleton + one circle class
    assert max(_edge_devs(g, emb)) < 1e-12


def test_embed_singleton_two_singletons_distance():
    g = make_complete(2)
    emb = embed_singleton_coloring(g, [[0], [1]])
    assert emb.dim == 2
    assert np.linalg.norm(emb.points[0] - emb.points[1]) == pytest.approx(1.0, abs=1e-12)


def test_embedding_validation_and_json():
    with pytest.raises(ValueError):
        Embedding(2, np.zeros((2, 2)))  # coincident points
    emb = Embedding(2, np.array([[0.0, 0.0], [1.0, 0.0]]))
    text = emb.to_json()
    back = embedding_from_json(text)
    assert back.to_json() == text
    np.testing.assert_array_equal(back.points, emb.points)


def test_hsystem_sorting_and_s():
    h = HSystem(4, ((0, 1, 2), (3,), (0, 1)))
    assert tuple(h.sizes) == (1, 2, 3)
    assert h.s == 0
    with pytest.raises(ValueError):
        HSystem(3, ((0, 3),))  # index out of range


def test_realize_no_conditions_is_circle():
    h = HSystem(4, ())
    k, pts = realize_hsystem(h, seed=0)
    assert k == 1
    assert pts.shape == (4, 2)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # all distinct
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(pts[i] - pts[j]) > 1e-6


def test_realize_single_growth_step():
    h = HSystem(4, ((0, 1, 2),))
    k, pts = realize_hsystem(h, seed=0)
    assert k == 2
    assert pts.shape == (4, 3)
    # point 3 must sit strictly off the plane of the condition
    assert affine_rank(pts[[0, 1, 2]]) == 2
    assert affine_rank(pts) == 3


def test_realize_respects_lemedge2_cap():
    h = HSystem(5, ((0, 1, 2), (0, 1, 2, 3), (1, 2, 3, 4)))
    k, pts = realize_hsystem(h, seed=0)
    assert k <= 4


def test_realize_rejects_full_conditions():
    with pytest.raises(ValueError):
        realize_hsystem(HSystem(3, ((0, 1, 2),)))


def test_realize_deterministic():
    h = HSystem(5, ((0, 1), (0, 1, 2)))
    k1, p1 = realize_hsystem(h, seed=9)
    k2, p2 = realize_hsystem(h, seed=9)
    assert k1 == k2
    np.testing.assert_array_equal(p1, p2)


def test_growth_dimension_examples():
    assert growth_dimension(()) == 1
    assert growth_dimension((3,)) == 2
    assert growth_dimension((2, 2, 2)) == 1
    assert growth_dimension((3, 4, 5)) == 4


def test_flatness_budget_schedule():
    b = FlatnessBudget(eps=0.16)
    angles = [b.angle(l) for l in range(1, 30)]
    assert all(a > 0 for a in angles)
    assert all(angles[i] > angles[i + 1] for i in range(len(angles) - 1))
    assert sum(angles) <= 0.16 / 4


@st.composite
def _hsystems(draw):
    m = draw(st.integers(min_value=3, max_value=6))
    n_cond = draw(st.integers(min_value=0, max_value=3))
    conds = []
    for _ in range(n_cond):
        size = draw(st.integers(min_value=1, max_value=m - 1))
        cond = draw(st.permutations(range(m)))[:size]
        conds.append(tuple(sorted(cond)))
    return HSystem(m, tuple(conds))


@settings(max_examples=120, deadline=None)
@given(_hsystems(), st.integers(min_value=0, max_value=2**31 - 1))
def test_realize_dimension_never_exceeds_guarantee(h, seed):
    from udgraph.audit import lemedge2_guarantee

    k, pts = realize_hsystem(h, seed=seed)
    s, k_ok = lemedge2_guarantee(h.sizes)
    assert k <= k_ok
    assert pts.shape == (h.m, k + 1)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)


def test_realize_conditions_hold_as_rank_statements():
    h = HSystem(6, ((0, 1, 2), (1, 2, 3, 4)))
    k, pts = realize_hsystem(h, seed=4)
    for cond in h.conditions:
        rows = pts[list(cond)]
        base = affine_rank(rows)
        for i in range(6):
            if i not in cond:
                assert affine_rank(np.vstack([rows, pts[i]])) == base + 1


def test_bipartite_faithful_k33_minus_matching():
    g = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3) if i != j])
    emb = embed_bipartite_faithful(g, 3, seed=0)
    assert emb.dim == 3
    assert verify(g, emb, mode="faithful", tol=1e-7).passed


def test_bipartite_faithful_kprime_in_r5():
    g = make_kprime(4)
    emb = embed_bipartite_faithful(g, 5, seed=0)
    assert verify(g, emb, mode="faithful", tol=1e-7).passed


def test_bipartite_faithful_single_edge():
    emb = embed_bipartite_faithful(make_complete(2), 2, seed=0)
    assert np.linalg.norm(emb.points[0] - emb.points[1]) == pytest.approx(1.0, abs=1e-7)


def test_bipartite_preconditions():
    # degree above d on both sides
    g = make_complete_multipartite([5, 5])
    with pytest.raises(PreconditionError):
        embed_bipartite_faithful(g, 4, seed=0)
    # three degree-d twins
    twins = Graph(7, [(a, 4 + b) for a in range(3) for b in range(3)] + [(3, 4)])
    with pytest.raises(PreconditionError) as exc:
        embed_bipartite_faithful(twins, 3, seed=0)
    assert exc.value.witness is not None
    # not bipartite
    with pytest.raises(PreconditionError):
        embed_bipartite_faithful(make_complete(3), 3, seed=0)
    # dimension below the supported range
    with pytest.raises(PreconditionError):
        embed_bipartite_faithful(make_complete(2), 1, seed=0)


def test_bipartite_faithful_nonedge_margin():
    g = make_complete_multipartite([2, 4])
    emb = embed_bipartite_faithful(g, 4, seed=1)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if not g.has_edge(i, j):
                dev = abs(float(np.linalg.norm(emb.points[i] - emb.points[j])) - 1.0)
                assert dev >= 1e-4


def test_bipartite_faithful_random_instances():
    rng = np.random.default_rng(7)
    done = 0
    attempts = 0
    while done < 10 and attempts < 200:
        attempts += 1
        na = int(rng.integers(2, 8))
        nb = int(rng.integers(2, 6))
        d = int(rng.integers(3, 6))
        edges = []
        for a in range(na):
            deg = int(rng.integers(1, min(d, nb) + 1))
            for b in rng.choice(nb, size=deg, replace=False):
                edges.append((a, na + int(b)))
        g = Graph(na + nb, edges)
        try:
            emb = embed_bipartite_faithful(g, d, seed=done)
        except PreconditionError:
            continue
        assert verify(g, emb, mode="faithful", tol=1e-7).passed
        done += 1
    assert done == 10


def test_bipartite_faithful_places_isolated_a_vertex_far():
    # A = {0, 1, 2} with 2 isolated, B = {3, 4, 5, 6}
    g = Graph(7, [(0, 3), (0, 4), (1, 4), (1, 5), (1, 6)], bipartition_a=frozenset({0, 1, 2}))
    emb = embed_bipartite_faithful(g, 4, seed=0)
    assert verify(g, emb, mode="faithful", tol=1e-7).passed
    margins = [abs(float(np.linalg.norm(emb.points[i] - emb.points[j])) - 1.0)
               for i in range(g.n) for j in range(i + 1, g.n) if not g.has_edge(i, j)]
    assert min(margins) >= 1e-4
    # the isolated vertex sits about 3 away from the B cluster
    assert min(np.linalg.norm(emb.points[3:] - emb.points[2], axis=1)) > 2.0


def test_bipartite_faithful_edgeless_graph():
    # an empty B side: no cluster to check, and no RuntimeWarning (which the
    # test configuration turns into an error) from averaging zero points
    g = Graph(3, ())
    emb = embed_bipartite_faithful(g, 2, seed=0)
    assert emb.points.shape == (3, 2)
    assert verify(g, emb, mode="faithful", tol=1e-7).passed


# ---------------------------------------------------------------------------
# the stacked general-position tests against per-subset loops


def _conditions_hold_reference(points, conditions, upto):
    m = points.shape[0]
    for H in conditions[:upto]:
        if not H:
            continue
        idx = sorted(H)
        base = affine_rank(points[idx])
        for i in range(m):
            if i not in H and affine_rank(np.vstack([points[idx], points[i]])) != base + 1:
                return False
    return True


def _b_cluster_ok_reference(pts, nbhds, d):
    m = pts.shape[0]
    if m == 0:
        return True
    dist = [np.linalg.norm(pts[i] - pts[j]) for i, j in combinations(range(m), 2)]
    if min(dist, default=np.inf) < 1e-3 or max(dist, default=0.0) > B_DIAMETER:
        return False
    radius_hat = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).max())
    if abs(radius_hat - 0.5) < 0.05:
        return False
    for t in range(3, min(d + 1, m) + 1):
        for sub in combinations(range(m), t):
            if affine_rank(pts[list(sub)]) != t - 1:
                return False
    if m >= d + 1:
        for sub in combinations(range(m), d + 1):
            if abs(circumsphere(pts[list(sub)]).radius - 1.0) < 1e-3:
                return False
    full = sorted({hb for hb in nbhds if len(hb) == d}, key=sorted)
    spheres = {}
    for hb in set(nbhds):
        sph = minimal_sphere(pts[sorted(hb)]) if hb else None
        if sph is not None and sph.radius > 0.9:
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


def _cluster(kind, m, d, rng):
    """A sampled B cluster; "collinear" makes one random triple collinear,
    failing clause (a), and "unit_sphere" puts d+1 random points on a unit
    sphere, failing clause (b)."""
    pts = _sample_b_cluster(m, d, rng)
    if kind == "collinear" and m >= 3:
        a, b, c = rng.choice(m, size=3, replace=False)
        pts[c] = 0.5 * (pts[a] + pts[b])
    if kind == "unit_sphere" and m >= d + 1:
        up = np.zeros(d)
        up[-1] = 1.0
        dirs = up + rng.uniform(-0.04, 0.04, size=(d + 1, d))
        pts[rng.choice(m, size=d + 1, replace=False)] = (
            dirs / np.linalg.norm(dirs, axis=1, keepdims=True) - up)
    return pts


_CLUSTER_KINDS = ["sampled", "collinear", "unit_sphere"]


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 9), d=st.integers(2, 4),
       kind=st.sampled_from(_CLUSTER_KINDS), n_nbhds=st.integers(0, 5))
def test_b_cluster_ok_matches_loop_reference(seed, m, d, kind, n_nbhds):
    rng = np.random.default_rng(seed)
    pts = _cluster(kind, m, d, rng)
    nbhds = []
    for _ in range(n_nbhds if m else 0):
        size = int(rng.integers(1, min(d, m) + 1))
        nbhds.append(frozenset(int(i) for i in rng.choice(m, size=size, replace=False)))
    assert _b_cluster_ok(pts, nbhds, d) == _b_cluster_ok_reference(pts, nbhds, d)


@pytest.mark.parametrize("kind", _CLUSTER_KINDS)
def test_b_cluster_ok_streams_subsets_in_blocks(monkeypatch, kind):
    # blocks of 7 subsets split every subset size of a 9-point cluster in R^4
    # over several stacked tests, and the verdict stays the loop form's
    monkeypatch.setattr("udgraph.embed._SUBSET_BLOCK", 7)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pts = _cluster(kind, 9, 4, rng)
        nbhds = [frozenset(int(i) for i in rng.choice(9, size=4, replace=False))
                 for _ in range(3)]
        assert _b_cluster_ok(pts, nbhds, 4) == _b_cluster_ok_reference(pts, nbhds, 4)


def test_subset_blocks_cover_combinations_in_order(monkeypatch):
    monkeypatch.setattr("udgraph.embed._SUBSET_BLOCK", 4)
    blocks = list(_subset_blocks(6, 3))
    assert [len(b) for b in blocks] == [4, 4, 4, 4, 4]
    assert [tuple(r) for b in blocks for r in b] == list(combinations(range(6), 3))
    assert list(_subset_blocks(2, 3)) == []


@pytest.mark.parametrize("kind, expected", [
    ("sampled", True), ("collinear", False), ("unit_sphere", False)])
def test_b_cluster_ok_clauses(kind, expected):
    # 8 points in R^3; the sampled cluster passes, each doctored one fails
    # on its own clause, and the loop form agrees
    for seed in range(20):
        pts = _sample_b_cluster(8, 3, np.random.default_rng(seed))
        if _b_cluster_ok_reference(pts, [], 3):
            break
    pts = _cluster(kind, 8, 3, np.random.default_rng(seed))
    assert _b_cluster_ok(pts, [], 3) is expected
    assert _b_cluster_ok_reference(pts, [], 3) is expected


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=_hsystems(), k=st.integers(1, 3),
       dependent=st.sampled_from([None, "outside", "member"]), extra=st.integers(0, 1))
def test_conditions_hold_matches_loop_reference(seed, h, k, dependent, extra):
    # points on a cap of S^k; "outside" moves a point outside a condition into
    # the affine hull of two of its members, "member" moves a member there,
    # which lowers that condition's own rank
    rng = np.random.default_rng(seed)
    pts = _cap_sample(h.m, k, 0.1, rng)
    least = 2 if dependent == "outside" else 3
    big = [H for H in h.conditions if len(H) >= least]
    if dependent and big:
        H = big[int(rng.integers(len(big)))]
        a, b, *rest = rng.permutation(sorted(H))
        moved = rest[0] if dependent == "member" else min(set(range(h.m)) - H)
        pts[moved] = 0.3 * pts[a] + 0.7 * pts[b]
    upto = len(h.conditions) + extra
    for u in range(upto + 1):
        assert _conditions_hold(pts, h.conditions, u) == _conditions_hold_reference(
            pts, h.conditions, u)


def test_conditions_hold_reads_each_conditions_own_rank():
    # two conditions of size 3; the second one's members are collinear, so
    # its own rank is 1 and every point outside it must raise that to 2
    pts = _cap_sample(6, 2, 0.1, np.random.default_rng(5))
    pts[5] = 0.3 * pts[3] + 0.7 * pts[4]
    conditions = HSystem(6, ((0, 1, 2), (3, 4, 5))).conditions
    assert _conditions_hold_reference(pts, conditions, 2)
    assert _conditions_hold(pts, conditions, 2)
