"""Certify last: the faithful bipartite construction and the audit's
construction place and accept a witness before they run the general-position
check of its ground cluster (_b_cluster_ok, _conditions_hold), and emit the
bytes the check-first order emitted."""

import json
from collections import Counter

import numpy as np
import pytest

from udgraph import audit, embed
from udgraph.audit import _offset, _sides, faithful_dim_audit
from udgraph.embed import (
    Embedding,
    RealizationError,
    _conditions_hold,
    _hsystem_cloud,
    _sample_b_cluster,
    check_bipartite_preconditions,
    embed_bipartite_faithful,
    growth_dimension,
    realize_hsystem,
    verified_witness,
)
from udgraph.graphs import Graph, make_kprime, make_remark_graph, neighborhoods_in

from test_embed import _criterion_2_graph, _random_audit_graph  # tests/ is on sys.path


# ---------------------------------------------------------------------------
# the check-first order, kept as the reference


def _embed_bipartite_faithful_check_first(g, d, seed=0):
    """embed_bipartite_faithful with _b_cluster_ok run before placement."""
    side_a, side_b = check_bipartite_preconditions(g, d)
    nbhds = neighborhoods_in(g, side_a, side_b)
    for attempt in range(embed._MAX_RETRIES):
        rng = np.random.default_rng([seed, attempt])
        bpts = _sample_b_cluster(len(side_b), d, rng)
        if not embed._b_cluster_ok(bpts, d):
            continue
        emb = embed.verified_witness(g, d, side_b, bpts, nbhds, rng)
        if emb is not None:
            return emb
    raise RealizationError(
        f"faithful embedding failed after {embed._MAX_RETRIES} attempts (seed {seed})")


def _construct_side_check_first(g, d_query, side, seed):
    """audit._construct_side with the H-system check inside realize_hsystem,
    before placement."""
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
        emb = embed.verified_witness(g, d_query, side.ground, bpts, side.nbhds, rng)
        if emb is not None:
            return emb, {"k": k, "s": s, "dim_constructed": d_up, "r": r}
    return None


def _criterion_2_big(seed):
    """32 + 14 vertices with A-degrees 1..4 and no three degree-4 twins, the
    benchmark's large criterion-2 recipe."""
    rng = np.random.default_rng([977, 32, seed])
    while True:
        nbhds = [tuple(sorted(rng.choice(14, size=int(rng.integers(1, 5)), replace=False)))
                 for _ in range(32)]
        if max(Counter(nb for nb in nbhds if len(nb) == 4).values(), default=0) <= 2:
            return Graph(46, [(a, 32 + int(b)) for a, nb in enumerate(nbhds) for b in nb])


def _embed_cases():
    """(graph, d, seed): seeded 12 + 8 criterion-2 graphs and 32 + 14 ones, in R^4."""
    small = [(_criterion_2_graph(i), 4, seed) for i in range(8) for seed in (0, 3)]
    return small + [(_criterion_2_big(i), 4, i) for i in range(3)]


def _audit_cases():
    """(graph, d): K'_4..10 at d and d + 1, the remark graphs 3..5 at d..d + 2,
    and 60 random audit graphs at d 2..7."""
    rng = np.random.default_rng(61)
    cases = [(make_kprime(d), q) for d in range(4, 11) for q in (d, d + 1)]
    cases += [(make_remark_graph(d), q) for d in range(3, 6) for q in (d, d + 1, d + 2)]
    return cases + [(_random_audit_graph(rng), int(rng.integers(2, 8))) for _ in range(60)]


def _embed_doc(g, d, seed, embed_fn):
    try:
        return embed_fn(g, d, seed=seed).to_json()
    except (RealizationError, embed.PreconditionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _audit_docs(monkeypatch, cases, check_first):
    with monkeypatch.context() as m:
        if check_first:
            m.setattr(audit, "_construct_side", _construct_side_check_first)
        return [faithful_dim_audit(g, d).to_json() for g, d in cases]


# ---------------------------------------------------------------------------
# same bytes


def test_embed_bipartite_faithful_matches_the_check_first_order():
    for g, d, seed in _embed_cases():
        assert _embed_doc(g, d, seed, embed_bipartite_faithful) == _embed_doc(
            g, d, seed, _embed_bipartite_faithful_check_first)


def test_audit_json_matches_the_check_first_order(monkeypatch):
    cases = _audit_cases()
    docs = _audit_docs(monkeypatch, cases, check_first=False)
    assert docs == _audit_docs(monkeypatch, cases, check_first=True)
    verdicts = {json.loads(doc)["verdict"] for doc in docs}
    assert verdicts == {"REALIZABLE", "NOT_REALIZABLE", "UNDECIDED"}


def _refusing(check, refused: set):
    """check, except False on the point sets whose bytes are in refused."""
    return lambda pts, *args: pts.tobytes() not in refused and check(pts, *args)


def test_a_refused_cluster_sends_both_orders_to_the_same_later_attempt(monkeypatch):
    # refuse the cluster of the first accepted witness: the check-first order
    # skips it before placement, the check-last order after acceptance
    for g, d, seed in _embed_cases()[::4]:
        accepted = []

        def recorded(g_, dim, ground, bpts, nbhds, rng):
            emb = verified_witness(g_, dim, ground, bpts, nbhds, rng)
            if emb is not None:
                accepted.append(bpts.tobytes())
            return emb

        with monkeypatch.context() as m:
            m.setattr(embed, "verified_witness", recorded)
            first = embed_bipartite_faithful(g, d, seed=seed).to_json()
        with monkeypatch.context() as m:
            m.setattr(embed, "_b_cluster_ok", _refusing(embed._b_cluster_ok, {accepted[0]}))
            later = _embed_doc(g, d, seed, embed_bipartite_faithful)
            assert later == _embed_doc(g, d, seed, _embed_bipartite_faithful_check_first)
        assert later != first


def test_a_refused_cloud_sends_both_orders_to_the_same_later_attempt(monkeypatch):
    # refuse the H-system cloud of each side's first accepted witness, both
    # where the check-first order met it (inside realize_hsystem) and where
    # the check-last order does (in _construct_side)
    graphs = [(make_kprime(4), 5), (make_remark_graph(4), 5), (make_remark_graph(5), 6)]
    for g, d in graphs:
        refused = set()
        for seed, side in enumerate(_sides(g)):
            with monkeypatch.context() as m:
                m.setattr(audit, "_conditions_hold",
                          lambda pts, conds: refused.add(pts.tobytes()) or True)
                audit._construct_side(g, d, side, seed)
        first = faithful_dim_audit(g, d).to_json()
        with monkeypatch.context() as m:
            check = _refusing(_conditions_hold, refused)
            m.setattr(audit, "_conditions_hold", check)
            m.setattr(embed, "_conditions_hold", check)
            docs = _audit_docs(m, [(g, d)], check_first=False)
            assert docs == _audit_docs(m, [(g, d)], check_first=True)
        assert json.loads(docs[0])["verdict"] == "REALIZABLE" and docs[0] != first


def test_placement_on_an_uncertified_cluster_returns_none_or_a_witness():
    # the check now follows placement, so placement meets clusters the check
    # would have refused: coincident B points, a B point on the segment of
    # two others, and H-system clouds that fail a condition
    outcomes = Counter()
    for i in range(12):
        g = _criterion_2_graph(i)
        try:
            side_a, side_b = check_bipartite_preconditions(g, 4)
        except embed.PreconditionError:
            continue
        nbhds = neighborhoods_in(g, side_a, side_b)
        for kind in ("coincident", "all_coincident", "midpoint"):
            rng = np.random.default_rng([i, 0])
            bpts = _sample_b_cluster(len(side_b), 4, rng)
            if kind == "coincident":
                bpts[1] = bpts[0]
            elif kind == "all_coincident":
                bpts[:] = bpts[0]
            else:
                bpts[2] = 0.5 * (bpts[0] + bpts[1])
            assert not embed._b_cluster_ok(bpts, 4)
            emb = verified_witness(g, 4, side_b, bpts, nbhds, rng)
            assert emb is None or isinstance(emb, Embedding)
            outcomes[kind, emb is None] += 1
    assert outcomes["coincident", True] and outcomes["midpoint", False]
    for g in (make_kprime(4), make_remark_graph(4), make_remark_graph(5)):
        for seed, side in enumerate(_sides(g)):
            k, unit_pts = _hsystem_cloud(side.h, 0.2, seed * 1009)
            for H in side.h.conditions:
                outside = min(set(range(side.h.m)) - H)
                bad = unit_pts.copy()
                bad[outside] = np.add.reduce(bad[sorted(H)], axis=0) / len(H)
                assert not _conditions_hold(bad, side.h.conditions)
                d_up = k + _offset(side.h.s)
                bpts = np.pad(0.3 * bad, ((0, 0), (0, d_up - bad.shape[1])))
                emb = verified_witness(g, d_up, side.ground, bpts, side.nbhds,
                                       np.random.default_rng(0))
                assert emb is None or isinstance(emb, Embedding)


# ---------------------------------------------------------------------------
# traffic: place, accept, then check


def _recorded_traffic(monkeypatch, run):
    """The events of run(): place, accept (True or False), witness (True when
    verified_witness returned an embedding) and check, in call order."""
    events = []

    def recorder(module, name, event):
        fn = getattr(module, name)

        def wrapped(*args):
            out = fn(*args)
            events.append(event(out))
            return out

        monkeypatch.setattr(module, name, wrapped)

    recorder(embed, "place_on_spheres", lambda out: "place")
    recorder(embed, "accepts", lambda out: ("accept", out))
    for module in (embed, audit):
        recorder(module, "verified_witness", lambda out: ("witness", out is not None))
    recorder(embed, "_b_cluster_ok", lambda out: "check")
    recorder(audit, "_conditions_hold", lambda out: "check")
    run()
    return events


@pytest.mark.parametrize("run", [
    lambda: [embed_bipartite_faithful(g, d, seed=seed) for g, d, seed in _embed_cases()],
    lambda: [faithful_dim_audit(g, d) for g, d in _audit_cases()[:40]],
], ids=["embed", "audit"])
def test_checks_run_only_on_accepted_witnesses(monkeypatch, run):
    events = _recorded_traffic(monkeypatch, run)
    checks = [k for k, e in enumerate(events) if e == "check"]
    assert checks and ("witness", False) in events  # attempts ended unchecked too
    for k in checks:
        assert events[k - 3:k] == ["place", ("accept", True), ("witness", True)]
    witnessed = [k for k, e in enumerate(events) if e == ("witness", True)]
    assert [k + 1 for k in witnessed] == checks
