"""Constructive embeddings: orthogonal circles, bipartite placement, H-systems."""

import hashlib
import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udgraph.embed import (
    B_DIAMETER,
    Embedding,
    HSystem,
    PreconditionError,
    RealizationError,
    check_bipartite_preconditions,
    embed_bipartite_faithful,
    embed_colorable,
    embedding_from_json,
    growth_dimension,
    place_on_spheres,
    realize_hsystem,
    _SAMPLE_MARGIN,
    _WORKING_SEP,
    _b_cluster_ok,
    _ball_sample,
    _cap_sample,
    _conditions_hold,
    _margins_ok,
    _sample_b_cluster,
    _sphere_sample,
    _subset_blocks,
)
from udgraph.audit import _offset, _sides, faithful_dim_audit
from udgraph.geometry import (
    Sphere,
    affine_rank,
    affine_ranks,
    circumradii,
    complementary_sphere,
    minimal_sphere,
    sphere_point,
)
from udgraph.graphs import (
    Graph,
    exact_coloring,
    make_complete,
    make_complete_multipartite,
    make_kprime,
    make_petersen,
    make_remark_graph,
    neighborhoods_in,
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
    with pytest.raises(PreconditionError, match="partition"):
        embed_colorable(g, [[0], [1]])


def test_embedding_validation_and_json():
    # coincident points are verify's to judge: Embedding holds them as given
    twin = Embedding(2, np.zeros((2, 2)))
    assert embedding_from_json(twin.to_json()).to_json() == twin.to_json()
    emb = Embedding(2, np.array([[0.0, 0.0], [1.0, 0.0]]))
    text = emb.to_json()
    back = embedding_from_json(text)
    assert back.to_json() == text
    np.testing.assert_array_equal(back.points, emb.points)


def test_embedding_json_text_is_pinned():
    # 17 significant digits without trailing zeros, which round-trips every
    # float64; signed zeros and extreme exponents included
    emb = Embedding(3, np.array([[0.0, -0.0, 1e300], [-1e-300, 5e-324, 0.1],
                                 [1.0 / 3.0, -2.0**60, 1e16]]))
    assert emb.to_json() == (
        '{"dim": 3, "points": [[0, -0, 1.0000000000000001e+300], '
        '[-1e-300, 4.9406564584124654e-324, 0.10000000000000001], '
        '[0.33333333333333331, -1.152921504606847e+18, 10000000000000000]]}')
    assert Embedding(2, np.zeros((0, 2))).to_json() == '{"dim": 2, "points": []}'


@pytest.mark.parametrize("dim", [0, 2])
def test_empty_embedding_round_trips(dim):
    emb = Embedding(dim=dim, points=np.zeros((0, dim)))
    back = embedding_from_json(emb.to_json())
    assert (back.dim, back.points.shape) == (dim, (0, dim))
    assert back.to_json() == emb.to_json()


@pytest.mark.parametrize("points", [
    [[0, 0], [True, 0]],
    [[0, 0], ["1", 0]],
    [[0, 0], [None, 0]],
])
def test_embedding_from_json_rejects_non_numeric_coordinates(points):
    with pytest.raises(ValueError, match="numbers"):
        embedding_from_json(json.dumps({"dim": 2, "points": points}))


@pytest.mark.parametrize("dim, points, message", [
    (2, [[0, 0], [1]], "embedding 'points' rows differ in length"),
    (5, [[1], []], "embedding 'points' rows differ in length"),
    (3, [[0, 0], [1, 0]], "points are 2-dimensional, dim says 3"),
    (2, 5, "embedding 'points' must be a 2-D list"),
    (2, [1.0, 2.0], "embedding 'points' must be a 2-D list"),
])
def test_embedding_from_json_names_a_points_shape_error(dim, points, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        embedding_from_json(json.dumps({"dim": dim, "points": points}))


def test_hsystem_sorting_and_s():
    h = HSystem(4, ((0, 1, 2), (3,), (0, 1)))
    assert tuple(h.sizes) == (1, 2, 3)
    assert h.s == 0
    with pytest.raises(ValueError):
        HSystem(3, ((0, 3),))  # index out of range
    with pytest.raises(ValueError, match="nonnegative"):
        HSystem(m=-1)


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


@pytest.mark.parametrize("eps", [0.0, -0.1, float("nan"), float("inf")])
def test_realize_rejects_a_bad_eps(eps):
    # before any sampling: a cap of width 0 or less, or not finite, is no cap
    with pytest.raises(ValueError, match="eps"):
        realize_hsystem(HSystem(5, ((0, 1), (0, 1, 2))), eps=eps)


def test_realize_deterministic():
    h = HSystem(5, ((0, 1), (0, 1, 2)))
    k1, p1 = realize_hsystem(h, seed=9)
    k2, p2 = realize_hsystem(h, seed=9)
    assert k1 == k2
    np.testing.assert_array_equal(p1, p2)


@pytest.mark.parametrize("h, eps, seed, digest", [
    # no condition: the first cap alone
    (HSystem(4, ()), 0.01, 0,
     "6206b3ad4541040e702be320125e3511c21dea5ec0fd7a1ac1bf62fd913e0a0c"),
    # small conditions only: two cap resamples on the circle
    (HSystem(5, ((0, 1), (2, 3))), 0.2, 3,
     "90fbec13a5fc1385039fa6b1a4673401c814c97de5044fe2a6b4fc7a56622222"),
    # one growth step
    (HSystem(4, ((0, 1, 2),)), 0.01, 0,
     "b535f515e34d8413176697bc84d8e1640f39fce3983e80ec8a43b6166f6cb385"),
    # a cap resample on S^2 after a growth step
    (HSystem(5, ((0, 1, 2), (1, 2, 3))), 0.2, 7,
     "443be46d9b1ee292cc30c51d0c7640b75110e8b3c55b66cda303c6a5f20f6bce"),
    # two growth steps
    (HSystem(6, ((0, 1, 2), (1, 2, 3, 4))), 0.01, 4,
     "3e3c74dafaa7ffde555c7ee3ca821bba2628bb9584ac98637006c6c2bdd59987"),
    # resample, growth, resample, growth
    (HSystem(6, ((0, 1), (0, 1, 2), (2, 3, 4), (1, 2, 3, 4))), 0.2, 11,
     "e031ef4ea9ea3c6cf448e4e8144add8fd36fde1c672c35a5042b7f53f822aa2b"),
])
def test_realize_hsystem_bytes_are_pinned(h, eps, seed, digest):
    # the audit's witnesses are built on these clouds, so a change to how
    # realize_hsystem draws or steps must be deliberate
    k, pts = realize_hsystem(h, eps=eps, seed=seed)
    assert hashlib.sha256(str(k).encode() + pts.tobytes()).hexdigest() == digest


def test_realize_hsystem_checks_its_conditions_once(monkeypatch):
    # one check of every condition on the finished cloud, not one per step
    calls = []
    monkeypatch.setattr("udgraph.embed._conditions_hold",
                        lambda pts, conds: calls.append(len(conds)) or _conditions_hold(pts, conds))
    h = HSystem(6, ((0, 1), (0, 1, 2), (2, 3, 4), (1, 2, 3, 4)))
    realize_hsystem(h, eps=0.2, seed=11)
    assert calls == [4]


def test_realize_hsystem_raises_after_one_failed_check(monkeypatch):
    # the retries are the callers': one seed gets one draw and one check
    calls = []
    monkeypatch.setattr("udgraph.embed._conditions_hold",
                        lambda pts, conds: calls.append(1) or False)
    with pytest.raises(RealizationError, match=r"\(seed 5\)"):
        realize_hsystem(HSystem(5, ((0, 1), (0, 1, 2))), seed=5)
    assert len(calls) == 1


def test_growth_dimension_examples():
    assert growth_dimension(()) == 1
    assert growth_dimension((3,)) == 2
    assert growth_dimension((2, 2, 2)) == 1
    assert growth_dimension((3, 4, 5)) == 4


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

    s, k_ok = lemedge2_guarantee(h.sizes)
    # 0.2 is the flatness the audit's construction asks for
    for eps in (0.01, 0.2):
        k, pts = realize_hsystem(h, eps=eps, seed=seed)
        assert k == growth_dimension(h.sizes)
        assert k <= k_ok
        assert pts.shape == (h.m, k + 1)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)
        # eps-flat: with at most three conditions a resample after a growth
        # step is on S^2 with one step after it, (eps/2) * sqrt(2) + eps/4
        # across, or on S^3 with none, (eps/2) * sqrt(3)
        assert np.linalg.norm(pts[:, None] - pts[None], axis=2).max() <= eps


def test_realize_conditions_hold_as_rank_statements():
    h = HSystem(6, ((0, 1, 2), (1, 2, 3, 4)))
    k, pts = realize_hsystem(h, seed=4)
    for cond in h.conditions:
        rows = pts[list(cond)]
        base = affine_rank(rows)
        for i in range(6):
            if i not in cond:
                assert affine_rank(np.vstack([rows, pts[i]])) == base + 1


_K33_MINUS_MATCHING = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3) if i != j])


def test_bipartite_faithful_k33_minus_matching():
    g = _K33_MINUS_MATCHING
    emb = embed_bipartite_faithful(g, 3, seed=0)
    assert emb.dim == 3
    assert verify(g, emb, mode="faithful", tol=1e-7).passed


def test_bipartite_faithful_retries_after_a_rejected_cluster(monkeypatch):
    # the first seeded B cluster is refused, and the next attempt's is used
    calls = []

    def reject_first(pts, d):
        calls.append(len(calls) > 0 and _b_cluster_ok(pts, d))
        return calls[-1]

    monkeypatch.setattr("udgraph.embed._b_cluster_ok", reject_first)
    g = _K33_MINUS_MATCHING
    emb = embed_bipartite_faithful(g, 3, seed=0)
    assert calls[:2] == [False, True]
    assert verify(g, emb, mode="faithful", tol=1e-7).passed


def test_bipartite_faithful_gives_up_after_its_attempts(monkeypatch):
    monkeypatch.setattr("udgraph.embed._b_cluster_ok", lambda pts, d: False)
    g = _K33_MINUS_MATCHING
    with pytest.raises(RealizationError,
                       match=r"^faithful embedding failed after 50 attempts \(seed 3\)$"):
        embed_bipartite_faithful(g, 3, seed=3)


def test_bipartite_faithful_gives_up_when_the_accept_gate_refuses(monkeypatch):
    # every placement puts one A vertex 1e-6 off unit length from a neighbour,
    # past TOL_VERIFY, so verified_witness refuses every attempt
    g = _K33_MINUS_MATCHING
    assert verify(g, embed_bipartite_faithful(g, 3, seed=0), tol=1e-7).passed
    calls = []

    def stretched(nbhds, bpts, rng):
        placed = place_on_spheres(nbhds, bpts, rng)
        if placed is not None:
            v = min(placed)
            b = bpts[min(nbhds[v])]
            placed[v] = b + (1.0 + 1e-6) * (placed[v] - b)
            calls.append(v)
        return placed

    monkeypatch.setattr("udgraph.embed.place_on_spheres", stretched)
    with pytest.raises(RealizationError, match="after 50 attempts"):
        embed_bipartite_faithful(g, 3, seed=0)
    assert calls


def test_cap_sample_raises_on_a_cap_too_narrow_for_its_points():
    # the points must be more than 10 * TOL_DISTINCT = 1e-5 apart, and a cap
    # 1e-6 across holds no two of them
    with pytest.raises(RealizationError, match="could not sample distinct cap points"):
        _cap_sample(3, 1, 1e-6, np.random.default_rng(0))


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
    assert str(exc.value) == (
        "three or more degree-3 A vertices share a neighborhood: [[0, 1, 2]]")
    assert exc.value.witness == [[0, 1, 2]]
    # not bipartite
    with pytest.raises(PreconditionError):
        embed_bipartite_faithful(make_complete(3), 3, seed=0)
    # dimension below the supported range
    with pytest.raises(PreconditionError):
        embed_bipartite_faithful(make_complete(2), 1, seed=0)


def test_bipartite_preconditions_swap_sides_unless_a_is_stored():
    # K_{1,3}: the BFS puts the centre on A, where its degree 3 exceeds d = 2;
    # the leaves make a valid A side, so the sides swap unless A is stored
    star = [(0, 1), (0, 2), (0, 3)]
    assert check_bipartite_preconditions(Graph(4, star), 2) == ([1, 2, 3], [0])
    with pytest.raises(PreconditionError) as exc:
        check_bipartite_preconditions(Graph(4, star, bipartition_a={0}), 2)
    assert str(exc.value) == "A-side degrees exceed d=2: [(0, 3)]"
    assert exc.value.witness == [(0, 3)]


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
# sphere placement


def _place_on_spheres_reference(nbhds, bpts, rng, draws=None):
    """place_on_spheres with one draw at a time and forced vertices placed
    after every group is read; draws, when given, collects the draw count of
    each vertex sampled on a sphere (201 for one that found no place)."""
    m, dim = bpts.shape
    placed: dict = {}

    def surroundings(v) -> np.ndarray:
        rows = [bpts[i] for i in range(m) if i not in nbhds[v]] + list(placed.values())
        return np.asarray(rows).reshape(len(rows), dim)

    groups: dict = {}
    for v in sorted(nbhds):
        groups.setdefault(nbhds[v], []).append(v)
    forced = []
    sampled = []
    for nb, verts in sorted(groups.items(), key=lambda kv: kv[1]):
        if not nb:
            sampled.extend((v, None) for v in verts)
            continue
        ms = minimal_sphere(bpts[sorted(nb)])
        if ms.radius >= 1.0 - 1e-9:
            if len(verts) > 1:
                return None
            forced.append((verts[0], [ms.center]))
            continue
        comp = complementary_sphere(ms, dim)
        if len(comp.basis) != 1:
            sampled.extend((v, comp) for v in verts)
            continue
        u = comp.basis[0]
        poles = [comp.center + comp.radius * u, comp.center - comp.radius * u]
        if len(verts) > 2:
            return None
        if len(verts) == 2:
            forced.extend([(verts[0], poles[:1]), (verts[1], poles[1:])])
        else:
            forced.append((verts[0], poles))

    for v, candidates in forced:
        others = surroundings(v)
        y = next((c for c in candidates if _margins_ok(c, others)), None)
        if y is None:
            return None
        placed[v] = y

    far = (bpts.mean(axis=0) if m else np.zeros(dim)) + 3.0 * np.eye(dim)[0]
    for v, comp in sorted(sampled, key=lambda vc: vc[0]):
        others = surroundings(v)
        for t in range(200):
            y = far + _ball_sample(0.3, dim, rng) if comp is None else sphere_point(comp, rng)
            if _margins_ok(y, others):
                placed[v] = y
                if comp is not None and draws is not None:
                    draws.append(t + 1)
                break
        else:
            if comp is not None and draws is not None:
                draws.append(201)
            return None
    return placed


def _random_audit_graph(rng):
    """4..8 A vertices over 4..7 B vertices, the first 1..3 of full degree,
    the others on random proper subsets of B."""
    na, nb, nfull = (int(rng.integers(lo, hi)) for lo, hi in ((4, 9), (4, 8), (1, 4)))
    edges = []
    for a in range(na):
        nbhd = range(nb) if a < nfull else rng.choice(nb, size=int(rng.integers(0, nb)),
                                                       replace=False)
        edges.extend((a, na + int(b)) for b in nbhd)
    return Graph(na + nb, edges, bipartition_a=frozenset(range(na)))


def _criterion_2_graph(seed):
    """The acceptance test's first draw of a 12 + 8 graph with A-degrees <= 4
    (it may hold three degree-4 twins, which the acceptance test redraws)."""
    rng = np.random.default_rng([977, seed])
    return Graph(20, [(a, 12 + int(b)) for a in range(12)
                      for b in rng.choice(8, size=int(rng.integers(1, 5)), replace=False)])


def _placement_cases():
    """(nbhds, bpts, rng seed) triples: the audit sides of kprime(4..10),
    remark(1..5) and 60 random audit graphs, realized as _construct_side
    does, and the B clusters of seeded criterion-2 graphs (12 + 8 vertices
    in R^4) that pass _b_cluster_ok."""
    rng = np.random.default_rng(5)
    graphs = ([make_kprime(d) for d in range(4, 11)] + [make_remark_graph(d) for d in range(1, 6)]
              + [_random_audit_graph(rng) for _ in range(60)])
    for g in graphs:
        for seed, side in enumerate(_sides(g)):
            k = growth_dimension(side.h.sizes)
            d_up = k + _offset(side.h.s)
            r = 1.0 if side.h.s == 1 else 0.3
            for attempt in range(3):
                try:
                    _, unit_pts = realize_hsystem(side.h, eps=0.2, seed=seed * 1009 + attempt)
                except RealizationError:
                    continue
                bpts = np.pad(r * unit_pts, ((0, 0), (0, d_up - unit_pts.shape[1])))
                yield side.nbhds, bpts, [seed, attempt, 77]
    for i in range(30):
        g = _criterion_2_graph(i)
        try:
            side_a, side_b = check_bipartite_preconditions(g, 4)
        except PreconditionError:
            continue
        nbhds = neighborhoods_in(g, side_a, side_b)
        for attempt in range(3):
            rng = np.random.default_rng([i, attempt])
            bpts = _sample_b_cluster(len(side_b), 4, rng)
            if _b_cluster_ok(bpts, 4):
                yield nbhds, bpts, [i, attempt, 1]


class _NormalRecorder:
    """A Generator stand-in that records the size of every normal draw; it
    has no bit_generator, so a sampler that saves or rewinds rng state fails."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def normal(self, size):
        self.sizes.append(size)
        return self.rng.normal(size=size)


def test_place_on_spheres_matches_loop_reference(monkeypatch):
    # the sampler with its hopeless-locus exit keeps the one-draw-at-a-time
    # loop's points, verdicts and rng stream bit for bit, after a failure as
    # after a success
    draws: list = []
    exits: list = []  # per sampled vertex: did its search end after one draw?

    def watched(locus, others, rng):
        recorder = _NormalRecorder(rng)
        y = _sphere_sample(locus, others, recorder)
        exits.append((199, len(locus.basis)) in recorder.sizes)
        return y

    monkeypatch.setattr("udgraph.embed._sphere_sample", watched)
    for nbhds, bpts, seed in _placement_cases():
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = place_on_spheres(nbhds, bpts, rng)
        want = _place_on_spheres_reference(nbhds, bpts, ref_rng, draws)
        assert (got is None) == (want is None)
        if want is not None:
            assert list(got) == list(want)
            assert all(np.array_equal(got[v], want[v]) for v in want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    # the cases reach past the tenth draw and exhaust the whole budget,
    # and some loci that one point keeps inside its margin end at once
    assert any(10 < t <= 200 for t in draws)
    assert 201 in draws
    assert any(exits) and not all(exits)


def _circle_locus(radius):
    """A circle about the origin of R^3 in the plane z = 0."""
    return Sphere(np.zeros(3), radius, np.eye(3)[:2])


def _at_range(radius, lo, hi):
    """A point whose distances to _circle_locus(radius) run over [lo, hi]:
    (a, 0, h) with a^2 + h^2 + radius^2 = (lo^2 + hi^2) / 2 and
    4 a radius = hi^2 - lo^2."""
    a = (hi * hi - lo * lo) / (4.0 * radius)
    return np.array([[a, 0.0, np.sqrt((lo * lo + hi * hi) / 2.0 - radius * radius - a * a)]])


def _sample_reference(locus, others, rng):
    return next((y for y in (sphere_point(locus, rng) for _ in range(200))
                 if _margins_ok(y, others)), None)


@pytest.mark.parametrize("radius, others", [
    (0.1, _at_range(0.1, 1.0, 1.0)),  # every point of the circle at unit distance
    (0.1, _at_range(0.1, 1.0 - _SAMPLE_MARGIN + 2e-9, 1.0 + _SAMPLE_MARGIN - 2e-9)),
    (0.3, np.vstack([[[5.0, 0.0, 0.0]], _at_range(0.3, 1.0 - 1e-4, 1.0 + 1e-4)])),
    (2e-5, np.array([[5.0, 0.0, 0.0], [0.0, 0.0, 1e-5]])),  # the circle hugs a point
])
def test_sphere_sample_ends_a_hopeless_search_at_once(monkeypatch, radius, others):
    # one point keeps the whole locus inside its margin: after the first
    # miss the other 199 normals come in one draw, and no draw is checked
    checks = []
    monkeypatch.setattr("udgraph.embed._margins_ok",
                        lambda y, o: checks.append(1) or _margins_ok(y, o))
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    recorder = _NormalRecorder(rng)
    assert _sphere_sample(_circle_locus(radius), others, recorder) is None
    assert recorder.sizes == [2, (199, 2)] and len(checks) == 1
    assert _sample_reference(_circle_locus(radius), others, ref_rng) is None
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _clearing(below, above):
    return 0.1, _at_range(0.1, 1.0 - _SAMPLE_MARGIN - below, 1.0 + _SAMPLE_MARGIN + above)


@pytest.mark.parametrize("radius, others, finds", [
    (*_clearing(0.0, 0.0), False), (*_clearing(1e-7, 1e-7), False),
    (*_clearing(1e-6, 1e-6), True), (*_clearing(-2e-9, 0.0), False),
    (*_clearing(-2e-9, 1e-6), True), (*_clearing(0.0, -2e-9), False),
    (*_clearing(1e-6, -2e-9), True),
    # a circle of radius 5e-5 through the point, reaching _WORKING_SEP from it or past
    (5e-5, np.array([[5e-5, 0.0, 0.0]]), False),
    (5e-5, np.array([[5e-5, 0.0, np.sqrt((_WORKING_SEP + 1e-6) ** 2 - 1e-8)]]), True),
])
def test_sphere_sample_searches_a_locus_that_clears_the_margin(radius, others, finds):
    # the distance range reaches a margin, or pokes out of it, at one end
    # or both: the draws are searched and match the one-at-a-time loop
    found = 0
    for seed in range(8):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        recorder = _NormalRecorder(rng)
        got = _sphere_sample(_circle_locus(radius), others, recorder)
        want = _sample_reference(_circle_locus(radius), others, ref_rng)
        assert (199, 2) not in recorder.sizes
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)
            found += 1
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert found or not finds


def test_place_on_spheres_rejects_a_neighborhood_spanning_the_space():
    # three points on a radius-0.5 circle span R^2: nothing is at unit
    # distance from all three
    t = np.array([0.0, 2.0, 4.0]) * np.pi / 3.0
    bpts = 0.5 * np.stack([np.cos(t), np.sin(t)], axis=1)
    assert place_on_spheres({0: frozenset({0, 1, 2})}, bpts, np.random.default_rng(0)) is None


def test_place_on_spheres_structural_failures():
    rng = np.random.default_rng(0)
    # twins on a radius-1 neighborhood: one center for two vertices
    bpts = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    both = frozenset({0, 1})
    assert place_on_spheres({0: both, 1: both}, bpts, rng) is None
    # three vertices on a zero-dimensional complementary sphere: two poles
    bpts = np.array([[-0.5, 0.0], [0.5, 0.0]])
    assert place_on_spheres({0: both, 1: both, 2: both}, bpts, rng) is None
    assert place_on_spheres({0: both, 1: both}, bpts, rng) is not None


def test_place_on_spheres_returns_none_for_a_neighborhood_on_no_sphere():
    # three collinear points lie on no common sphere; their group comes first
    bpts = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        minimal_sphere(bpts)
    nbhds = {0: frozenset({0, 1, 2}), 1: frozenset({0})}
    assert place_on_spheres(nbhds, bpts, np.random.default_rng(0)) is None


def test_one_place_rule_for_poles_and_centres():
    # (0, h) is a B point on the pole of {0, 1}'s complementary circle
    h = np.sqrt(0.75)
    bpts = np.array([[-0.5, 0.0], [0.5, 0.0], [0.0, h]])
    both = frozenset({0, 1})
    comp = complementary_sphere(minimal_sphere(bpts[[0, 1]]), 2)
    u = comp.basis[0]
    poles = [comp.center + comp.radius * u, comp.center - comp.radius * u]
    other = next(p for p in poles if p[1] < 0)
    # a lone vertex takes the pole that clears the margins, rounded as center +- radius * u
    placed = place_on_spheres({0: both}, bpts, np.random.default_rng(0))
    assert np.array_equal(placed[0], other)
    # twins split the poles in vertex order, and one of them lands on (0, h)
    assert place_on_spheres({0: both, 1: both}, bpts, np.random.default_rng(0)) is None
    # a radius-1 neighbourhood's one place is its centre, exactly
    bpts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.5]])
    placed = place_on_spheres({0: both}, bpts, np.random.default_rng(0))
    assert np.array_equal(placed[0], minimal_sphere(bpts[[0, 1]]).center)


def test_failing_forced_pole_ends_placement_before_later_groups():
    # vertex 0's poles (0, +-h) are blocked: +h by point 2 on it, -h by
    # point 3 at unit distance; vertex 1's neighborhood {2, 3, 4} is
    # collinear, so its minimal sphere raises, but it is never reached
    h = np.sqrt(0.75)
    bpts = np.array([[-0.5, 0.0], [0.5, 0.0], [0.0, h], [0.0, 1.0 - h], [0.0, 0.5]])
    nbhds = {0: frozenset({0, 1}), 1: frozenset({2, 3, 4})}
    with pytest.raises(ValueError):
        minimal_sphere(bpts[[2, 3, 4]])
    assert place_on_spheres(nbhds, bpts, np.random.default_rng(0)) is None
    # no rng is consumed on the way
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    place_on_spheres(nbhds, bpts, rng)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# the stacked general-position tests against per-subset loops


def _conditions_hold_reference(points, conditions):
    m = points.shape[0]
    for H in conditions:
        if not H:
            continue
        idx = sorted(H)
        base = affine_rank(points[idx])
        for i in range(m):
            if i not in H and affine_rank(np.vstack([points[idx], points[i]])) != base + 1:
                return False
    return True


def _b_cluster_ok_reference(pts, d):
    m = pts.shape[0]
    if m == 0:
        return True
    dist = [np.linalg.norm(pts[i] - pts[j]) for i, j in combinations(range(m), 2)]
    if min(dist, default=np.inf) < 1e-3 or max(dist, default=0.0) > B_DIAMETER:
        return False
    for t in range(3, min(d + 1, m) + 1):
        for sub in combinations(range(m), t):
            if affine_rank(pts[list(sub)]) != t - 1:
                return False
    if m >= d + 1:
        for sub in combinations(range(m), d + 1):
            if abs(minimal_sphere(pts[list(sub)]).radius - 1.0) < 1e-3:
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
       kind=st.sampled_from(_CLUSTER_KINDS))
def test_b_cluster_ok_matches_loop_reference(seed, m, d, kind):
    pts = _cluster(kind, m, d, np.random.default_rng(seed))
    assert _b_cluster_ok(pts, d) == _b_cluster_ok_reference(pts, d)


@pytest.mark.parametrize("kind", _CLUSTER_KINDS)
def test_b_cluster_ok_streams_subsets_in_blocks(monkeypatch, kind):
    # blocks of 7 subsets split every subset size of a 9-point cluster in R^4
    # over several stacked tests, and the verdict stays the loop form's
    monkeypatch.setattr("udgraph.embed._SUBSET_BLOCK", 7)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pts = _cluster(kind, 9, 4, rng)
        assert _b_cluster_ok(pts, 4) == _b_cluster_ok_reference(pts, 4)


def test_b_cluster_ok_takes_one_stacked_rank_test(monkeypatch):
    # clause (a) of a 9-point cluster in R^4 stacks its 126 5-subsets once;
    # the 3- and 4-subsets lie inside them and are not tested again
    for seed in range(20):
        pts = _sample_b_cluster(9, 4, np.random.default_rng(seed))
        if _b_cluster_ok_reference(pts, 4):
            break
    stacks = []
    monkeypatch.setattr("udgraph.embed.affine_ranks",
                        lambda stack: stacks.append(len(stack)) or affine_ranks(stack))
    assert _b_cluster_ok(pts, 4)
    assert stacks == [126]


def test_b_cluster_ok_gathers_each_block_once(monkeypatch):
    # with m >= d + 1 the rank test and the circumradius solve of a block
    # read one gathered (k, d + 1, d) array
    monkeypatch.setattr("udgraph.embed._SUBSET_BLOCK", 50)
    for seed in range(20):
        pts = _sample_b_cluster(9, 4, np.random.default_rng(seed))
        if _b_cluster_ok_reference(pts, 4):
            break
    seen = []
    monkeypatch.setattr("udgraph.embed.affine_ranks",
                        lambda stack: seen.append(("ranks", stack)) or affine_ranks(stack))
    monkeypatch.setattr("udgraph.embed.circumradii",
                        lambda stack: seen.append(("radii", stack)) or circumradii(stack))
    assert _b_cluster_ok(pts, 4)
    assert [(kind, len(stack)) for kind, stack in seen] == [
        ("ranks", 50), ("radii", 50), ("ranks", 50), ("radii", 50), ("ranks", 26), ("radii", 26)]
    assert all(seen[i][1] is seen[i + 1][1] for i in (0, 2, 4))


def test_b_cluster_ok_tests_the_whole_set_below_d_plus_one():
    # m = 4 <= d = 4: every triple is independent, but the fourth point lies
    # in the plane of the first three, so the whole set is the test's subset
    tri = np.array([[0.0, 0.0, 0.0, 0.0], [0.05, 0.01, 0.002, 0.0], [0.01, 0.04, -0.003, 0.001]])
    flat = np.vstack([tri, [0.35, 0.25] @ tri[1:]])
    lifted = flat.copy()
    lifted[3, 3] += 0.005
    assert all(affine_rank(flat[list(sub)]) == 2 for sub in combinations(range(4), 3))
    assert _b_cluster_ok(flat, 4) is _b_cluster_ok_reference(flat, 4) is False
    assert _b_cluster_ok(lifted, 4) is _b_cluster_ok_reference(lifted, 4) is True


def test_construction_bytes_match_the_loop_and_greedy_references(monkeypatch):
    # one rank decision per general-position test moves no emitted byte: the
    # per-size loop form of _b_cluster_ok and the greedy minimal sphere of
    # each set in place of the stacked pass give the same criterion-2
    # embeddings and the same audit report
    from test_geometry import _minimal_sphere_reference  # tests/ is on sys.path

    def emit():
        docs = [embed_bipartite_faithful(_criterion_2_graph(i), 4, seed=i).to_json()
                for i in range(5)]
        return docs + [faithful_dim_audit(make_kprime(4), 5).to_json()]

    fast = emit()
    calls = []
    monkeypatch.setattr("udgraph.embed._b_cluster_ok",
                        lambda pts, d: calls.append("b") or _b_cluster_ok_reference(pts, d))

    def greedy_spheres(stack):
        calls.append("s")
        out = []
        for pts in stack:
            try:
                out.append(Sphere(*_minimal_sphere_reference(pts)))
            except ValueError as exc:
                out.append(exc)
        return out

    monkeypatch.setattr("udgraph.embed.minimal_spheres", greedy_spheres)
    assert emit() == fast
    assert {"b", "s"} <= set(calls)


def test_construction_bytes_are_pinned(monkeypatch):
    # every criterion-2 embedding below and both audit reports are the bytes
    # of their sphere geometry, so any change to the float operations of
    # minimal_sphere, complementary_sphere or place_on_spheres must be
    # deliberate; K_{2,5} in R^3 sends its full-degree neighbourhood (five
    # points on a circle) down minimal_sphere's greedy path
    greedy = []
    monkeypatch.setattr("udgraph.geometry.affine_rank",
                        lambda points: greedy.append(len(points)) or affine_rank(points))
    docs = [embed_bipartite_faithful(_criterion_2_graph(i), 4, seed=i).to_json()
            for i in range(5)]
    docs.append(faithful_dim_audit(make_kprime(4), 5).to_json())
    assert not greedy
    docs.append(faithful_dim_audit(make_complete_multipartite([2, 5]), 3).to_json())
    assert greedy and json.loads(docs[-1])["verdict"] == "REALIZABLE"
    assert hashlib.sha256("\n".join(docs).encode()).hexdigest() == (
        "012fb27e9e58233aeb46c89690dc1229f3fc26c7c7c65bd3bce21e9ce266df25")


def test_subset_blocks_cover_combinations_in_order(monkeypatch):
    monkeypatch.setattr("udgraph.embed._SUBSET_BLOCK", 4)
    blocks = list(_subset_blocks(6, 3))
    assert [len(b) for b in blocks] == [4, 4, 4, 4, 4]
    assert [tuple(r) for b in blocks for r in b] == list(combinations(range(6), 3))
    assert list(_subset_blocks(2, 3)) == []


def test_subset_blocks_are_read_only_views_built_once():
    # every _b_cluster_ok call of one cluster size reads the same index array
    first, again = list(_subset_blocks(9, 5)), list(_subset_blocks(9, 5))
    assert np.vstack(first).tolist() == [list(c) for c in combinations(range(9), 5)]
    assert all(np.shares_memory(a, b) for a, b in zip(first, again))
    assert not any(b.flags.writeable for b in first)


@pytest.mark.parametrize("kind, expected", [
    ("sampled", True), ("collinear", False), ("unit_sphere", False)])
def test_b_cluster_ok_clauses(kind, expected):
    # 8 points in R^3; the sampled cluster passes, each doctored one fails
    # on its own clause, and the loop form agrees
    for seed in range(20):
        pts = _sample_b_cluster(8, 3, np.random.default_rng(seed))
        if _b_cluster_ok_reference(pts, 3):
            break
    pts = _cluster(kind, 8, 3, np.random.default_rng(seed))
    assert _b_cluster_ok(pts, 3) is expected
    assert _b_cluster_ok_reference(pts, 3) is expected


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
        assert _conditions_hold(pts, h.conditions[:u]) == _conditions_hold_reference(
            pts, h.conditions[:u])


def test_conditions_hold_reads_each_conditions_own_rank():
    # two conditions of size 3; the second one's members are collinear, so
    # its own rank is 1 and every point outside it must raise that to 2
    pts = _cap_sample(6, 2, 0.1, np.random.default_rng(5))
    pts[5] = 0.3 * pts[3] + 0.7 * pts[4]
    conditions = HSystem(6, ((0, 1, 2), (3, 4, 5))).conditions
    assert _conditions_hold_reference(pts, conditions[:2])
    assert _conditions_hold(pts, conditions[:2])
