"""Constructive embeddings: orthogonal circles, bipartite placement, H-systems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udgraph.embed import (
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
)
from udgraph.geometry import affine_rank
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
