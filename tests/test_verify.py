import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udgraph.embed import Embedding
from udgraph.geometry import pairwise_distances
from udgraph.graphs import Graph, make_complete
from udgraph.verify import ToleranceCliffWarning, induced_udg, verify


def _square_points():
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_verify_distance_mode_passes_square():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    report = verify(g, _square_points(), mode="distance", tol=1e-9)
    assert report.passed
    assert report.violations == ()


def test_verify_faithful_catches_nonedge_at_unit():
    # diagonal pairs are fine (sqrt 2), but adding a chord of length 1
    # between non-adjacent vertices must fail faithfully
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])  # (3,0) missing yet at distance 1
    report = verify(g, _square_points(), mode="faithful", tol=1e-9)
    assert not report.passed
    kinds = {v["kind"] for v in report.violations}
    assert kinds == {"nonedge_unit"}
    assert report.violations[0]["pair"] == (0, 3)


def test_verify_catches_stretched_edge():
    g = make_complete(2)
    pts = np.array([[0.0, 0.0], [1.5, 0.0]])
    report = verify(g, pts, mode="distance", tol=1e-9)
    assert not report.passed
    assert report.violations[0]["kind"] == "edge_not_unit"


def test_verify_warns_near_tolerance_cliff():
    g = Graph(2, [])
    pts = np.array([[0.0, 0.0], [1.0 + 2e-9, 0.0]])
    with pytest.warns(ToleranceCliffWarning):
        report = verify(g, pts, mode="faithful", tol=1e-9)
    assert report.passed  # ambiguous, not violating
    assert report.ambiguous == ((0, 1),)


def test_verify_distance_mode_rejects_coincident_nonadjacent_points():
    # K_{1,2} with both leaves on one point: every edge is unit, yet the
    # points are not distinct
    g = Graph(3, [(0, 1), (0, 2)])
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    for mode in ("distance", "faithful"):
        report = verify(g, pts, mode=mode, tol=1e-9)
        assert not report.passed
        assert report.violations == ({"pair": (1, 2), "distance": 0.0, "kind": "coincident"},)


def test_verify_checks_coincidence_on_edges_too():
    # at tol >= 0.5 an edge can be within tol of unit length and of zero
    # length at once; its points still have to be apart
    g = make_complete(2)
    for mode in ("faithful", "distance"):
        report = verify(g, np.zeros((2, 2)), mode=mode, tol=1.0)
        assert report.violations == ({"pair": (0, 1), "distance": 0.0, "kind": "coincident"},)
        report = verify(g, np.array([[0.0], [0.3]]), mode=mode, tol=0.7)
        assert [v["kind"] for v in report.violations] == ["coincident"]
    # an edge off unit length by more than tol stays edge_not_unit
    report = verify(g, np.zeros((2, 1)), mode="distance", tol=0.6)
    assert [v["kind"] for v in report.violations] == ["edge_not_unit"]


def test_verify_embedding_object_and_size_mismatch():
    g = make_complete(2)
    emb = Embedding(2, np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert verify(g, emb, mode="distance").passed
    with pytest.raises(ValueError):
        verify(make_complete(3), emb)
    with pytest.raises(ValueError, match="mode must be one of"):
        verify(g, emb, mode="x")


def test_induced_udg_recovers_square_cycle():
    got = induced_udg(_square_points(), tol=1e-9)
    assert got == Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_induced_udg_rejects_coincident_points():
    with pytest.raises(ValueError):
        induced_udg(np.zeros((2, 2)))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-7])
def test_verify_and_induced_udg_reject_a_tolerance_not_finite_and_nonnegative(tol):
    # an edge of length 5 would pass a NaN or infinite tolerance
    g = Graph(2, [(0, 1)])
    pts = np.array([[0.0], [5.0]])
    for mode in ("faithful", "distance"):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            verify(g, pts, mode=mode, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        induced_udg(pts, tol=tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_verify_and_induced_udg_reject_non_finite_points(bad):
    # a NaN coordinate compares false against every tolerance
    g = Graph(2, [(0, 1)])
    for mode in ("faithful", "distance"):
        with pytest.raises(ValueError, match="points must be finite"):
            verify(g, np.array([[0.0, 0.0], [bad, 0.0]]), mode=mode)
    with pytest.raises(ValueError, match="points must be finite"):
        induced_udg([[0.0], [bad], [1.0]])


def test_verify_accepts_a_zero_tolerance():
    assert verify(Graph(2, [(0, 1)]), np.array([[0.0], [1.0]]), tol=0.0).passed


def test_report_to_dict_shape():
    g = make_complete(2)
    report = verify(g, np.array([[0.0, 0.0], [2.0, 0.0]]), mode="distance")
    d = report.to_dict()
    assert d["passed"] is False
    assert d["mode"] == "distance"
    assert d["violations"][0]["pair"] == [0, 1]


# ---------------------------------------------------------------------------
# the vectorized pair classifier against a per-pair reference


def _reference_verify(g, pts, mode, tol):
    """(violations, ambiguous) pair by pair."""
    dist = pairwise_distances(pts)
    violations, ambiguous = [], []
    for i, j in combinations(range(g.n), 2):
        d = float(dist[i, j])
        dev = abs(d - 1.0)
        if g.has_edge(i, j):
            if dev > tol:
                violations.append({"pair": (i, j), "distance": d, "kind": "edge_not_unit"})
            elif d <= tol:  # a unit edge within a wide tol of zero length
                violations.append({"pair": (i, j), "distance": d, "kind": "coincident"})
        elif d <= tol:  # both semantics place vertices at distinct points
            violations.append({"pair": (i, j), "distance": d, "kind": "coincident"})
        elif mode == "faithful":
            if dev <= tol:
                violations.append({"pair": (i, j), "distance": d, "kind": "nonedge_unit"})
            elif dev <= 3.0 * tol:
                ambiguous.append((i, j))
    return tuple(violations), tuple(ambiguous)


def _reference_induced(pts, tol):
    """(edges, warned pairs, first coincident pair or None) pair by pair."""
    dist = pairwise_distances(pts)
    edges, warned = [], []
    for i, j in combinations(range(len(pts)), 2):
        if dist[i, j] <= tol:
            return edges, warned, (i, j)
        dev = abs(dist[i, j] - 1.0)
        if dev <= tol:
            edges.append((i, j))
        elif dev <= 3.0 * tol:
            warned.append((i, j))
    return edges, warned, None


@st.composite
def _layouts(draw):
    """Points on a line whose gaps hit 0, unit length, and the (tol, 3*tol]
    band around it, plus an arbitrary edge set."""
    tol = draw(st.sampled_from([1e-9, 1e-7, 1e-3, 0.6]))
    n = draw(st.integers(1, 6))
    base = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    shift = st.sampled_from([0.0, 0.5, -0.5, 2.0, -2.0, 2.9, 5.0])
    xs = [draw(base) + draw(shift) * tol for _ in range(n)]
    dim = draw(st.integers(1, 3))
    pts = np.zeros((n, dim))
    pts[:, 0] = xs
    pairs = list(combinations(range(n), 2))
    edges = [p for p in pairs if draw(st.booleans())]
    return Graph(n, edges), pts, tol


def _warned(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except ValueError as exc:
            out = exc
    return out, [str(w.message) for w in caught if w.category is ToleranceCliffWarning]


@settings(max_examples=300, deadline=None)
@given(_layouts(), st.sampled_from(["faithful", "distance"]))
def test_verify_matches_per_pair_reference(layout, mode):
    g, pts, tol = layout
    report, messages = _warned(verify, g, pts, mode, tol)
    violations, ambiguous = _reference_verify(g, pts, mode, tol)
    assert report.violations == violations
    assert report.ambiguous == ambiguous
    assert report.passed == (not violations)
    assert len(messages) == (1 if ambiguous else 0)


@settings(max_examples=300, deadline=None)
@given(_layouts())
def test_induced_udg_matches_per_pair_reference(layout):
    _, pts, tol = layout
    out, messages = _warned(induced_udg, pts, tol)
    edges, warned, coincident = _reference_induced(pts, tol)
    assert len(messages) == len(warned)
    assert all(m.startswith(f"pair ({i}, {j}) ") for m, (i, j) in zip(messages, warned))
    if coincident is None:
        assert out == Graph(len(pts), edges)
    else:
        assert isinstance(out, ValueError)
        assert str(out).startswith(f"points {coincident[0]} and {coincident[1]} coincide")
