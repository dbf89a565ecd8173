"""Census counting, exact oracles, and the Ramsey-style lower bound."""

import gc
import hashlib
import json
import math
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest

from udgraph.census import (
    CensusReport,
    _canonical_masks,
    _graph_of_mask,
    _plane_rhombus,
    _RULES,
    _refuting_rule,
    count_distance,
    count_faithful,
    is_krt_obstructed,
    linear_forest_oracle,
    ramsey_fd_lower,
    zero_pattern_bound,
)
from udgraph.graphs import Graph, make_complete, make_complete_multipartite, make_kdoubleprime
from udgraph.solver import SolverConfig, solve_faithful, solve_many
from udgraph.verify import verify

_FAST = SolverConfig(restarts=30, max_iters=600)


def _pascal_binom(n, k):
    # independent cross-check for the big-integer binomial
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row[k] if 0 <= k <= n else 0


def test_zero_pattern_bound_values():
    assert zero_pattern_bound(4, 1) == 495
    assert zero_pattern_bound(4, 2) == 495
    assert zero_pattern_bound(6, 2) == 86493225
    assert isinstance(zero_pattern_bound(6, 2), int)


def test_zero_pattern_bound_matches_pascal():
    for n, d in ((4, 1), (4, 2), (5, 1), (6, 2), (6, 1)):
        assert zero_pattern_bound(n, d) == _pascal_binom(n * (n - 1), n * d)


def test_zero_pattern_bound_rejections():
    with pytest.raises(ValueError):
        zero_pattern_bound(2, 1)  # nd = n(n-1)
    with pytest.raises(ValueError):
        zero_pattern_bound(3, 2)  # n < 2d


@pytest.mark.parametrize("n, d", [(-1, -1), (3, -1), (4, 0)])
def test_zero_pattern_bound_rejects_dimension_below_1(n, d):
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        zero_pattern_bound(n, d)


def test_linear_forest_oracle():
    assert linear_forest_oracle(Graph(4, [(0, 1), (1, 2), (2, 3)]))  # P_4
    assert not linear_forest_oracle(Graph(4, [(0, 1), (0, 2), (0, 3)]))  # K_{1,3}
    assert not linear_forest_oracle(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))  # C_4
    assert linear_forest_oracle(Graph(3, []))
    assert not linear_forest_oracle(make_complete(3))


def test_count_faithful_on_the_line():
    r = count_faithful(4, 1)
    assert r.count_realizable == 34
    assert r.count_presumed_not == 64 - 34
    pairs = list(combinations(range(4), 2))
    assert [e.edges for e in r.entries] == [
        tuple(p for i, p in enumerate(pairs) if mask >> i & 1) for mask in range(64)]
    assert r.exact
    assert count_faithful(5, 1).count_realizable == 206


def _brute_canonical_mask(mask, n):
    # reference: the least relabeling of mask over all n! permutations
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    best = mask
    for perm in permutations(range(n)):
        relabeled = 0
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                a, b = perm[u], perm[v]
                relabeled |= 1 << index[(a, b) if a < b else (b, a)]
        best = min(best, relabeled)
    return best


@pytest.mark.parametrize("n, classes", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
def test_orbit_sweep_matches_brute_force_labels(n, classes):
    canon = _canonical_masks(n).tolist()
    assert canon == [_brute_canonical_mask(m, n) for m in range(1 << math.comb(n, 2))]
    assert len(set(canon)) == classes
    assert count_faithful(n, 1).config["isomorphism_classes"] == classes


@pytest.fixture(scope="module")
def canon7():
    return _canonical_masks(7)


def _canon_digest(canon):
    return hashlib.sha256(json.dumps(canon.tolist()).encode()).hexdigest()


def test_orbit_sweep_bytes_are_pinned_at_n6():
    canon = _canonical_masks(6)
    assert len(set(canon)) == 156
    assert _canon_digest(canon) == "5041175951654dad7b7ffbd72dd2ab3ac8c332a54550e588e7335683a8478084"


def test_orbit_sweep_bytes_are_pinned_at_n7(canon7):
    assert len(set(canon7)) == 1044
    assert _canon_digest(canon7) == "158b9c7773131d7f11c7950167675bc513aaa21ff8b4d9e19a0603f5162c7ee2"


def test_orbit_sweep_labels_are_least_at_n7(canon7):
    # beyond brute force over all 2^21 masks: each label is a lower bound
    # reached by its own class, and a dozen masks match the reference
    canon = np.array(canon7)
    assert (canon <= np.arange(canon.size)).all()
    reps = np.unique(canon)
    assert (canon[reps] == reps).all()
    for mask in (0, 1, 1 << 20, (1 << 21) - 1, (1 << 21) - 2, 1916, 40565, 114036,
                 259903, 452607, 454463, 454524, 1234567):
        assert canon7[mask] == _brute_canonical_mask(mask, 7)


def test_count_faithful_plane_n3():
    r = count_faithful(3, 2, _FAST)
    assert r.count_realizable == 8
    assert r.count_presumed_not == 0


def test_count_reports_are_well_formed():
    r = count_faithful(3, 1)
    assert r.count_realizable + r.count_presumed_not == 2 ** math.comb(3, 2)
    assert len(r.entries) == 8
    assert {e.method for e in r.entries} == {"EXACT_ORACLE"}
    # the oracle's negative (K_3 on the line) is a proof, not a presumption
    assert {e.status for e in r.entries if len(e.edges) == 3} == {"NOT_REALIZABLE"}
    assert r.count_refuted == 1
    assert all(e.rule is None for e in r.entries)
    csv = r.to_csv()
    assert csv.splitlines()[0] == "graph_id,edges,status,method,residual,rule"
    assert len(csv.splitlines()) == 9
    assert "isomorphism_classes" in r.config


def test_census_json_pins_the_solver_config():
    config = json.loads(count_faithful(3, 1).to_json())["config"]
    assert set(config) == {"solver", "isomorphism_classes"}  # no jobs: one process
    assert config["solver"] == {
        "restarts": 200, "max_iters": 2000, "tol_residual": 1e-12, "margin_nonedge": 1e-3,
        "seed": 0}
    cfg = SolverConfig(restarts=7, max_iters=9, seed=3)
    assert json.loads(count_distance(3, 1, cfg).to_json())["config"]["solver"] == {
        "restarts": 7, "max_iters": 9, "tol_residual": 1e-12, "margin_nonedge": 1e-3, "seed": 3}


@pytest.mark.parametrize("n, d", [(1, 1), (4, 1), (4, 2)])
def test_census_json_is_one_line_of_the_report_dict(n, d):
    r = count_faithful(n, d, _FAST)
    text = r.to_json()
    assert "\n" not in text
    assert json.loads(text) == r.to_dict()
    assert text == json.dumps(r.to_dict(), sort_keys=True)


def test_census_bytes_are_pinned():
    # the labelled JSON and CSV are expanded from one row per class; any
    # change to their bytes must be deliberate
    r = count_faithful(5, 1)
    assert hashlib.sha256(r.to_json().encode()).hexdigest() == (
        "fa0f603e4dfc78508d3eb406676c865e91fc8b0dad49a46229abc69c08860cc1")
    assert hashlib.sha256(r.to_csv().encode()).hexdigest() == (
        "001d9f1134aae057c48ed4f78737951f79e5c5ba6f47911dc22578fd10760196")
    # the plane at n = 4: solver witnesses and residuals, and K_4's simplex entry
    assert hashlib.sha256(count_faithful(4, 2).to_json().encode()).hexdigest() == (
        "9d39358b44618d15225aa80ab7706d78b8d77cea3a757278cb656b69d41f1b34")


# sha256 of to_json() and of to_csv() for the solver-backed censuses: both
# semantics at (5, 2), and the faithful plane census at n = 6
_REPORT_DIGESTS = {
    ("faithful", 5): ("94380a45bbaa2f517d797c21154af663eade2a08593f0510e53bce0f84d4277b",
                      "7f8d5ab426c84fe74c547b4f8d84b89a66dd446d06d88a198c4a834c98ba3240"),
    ("distance", 5): ("7db3a56f86dbf8de35207998fb6407efdc41eb9afc2720e350d62d9be1052fce",
                      "7f8d5ab426c84fe74c547b4f8d84b89a66dd446d06d88a198c4a834c98ba3240"),
    ("faithful", 6): ("8a6bf23e1f4600d427f3a1217ddb0426e54e8fb766aa7d5630c2c923f2196d41",
                      "4a10ba637fe172987fcbd92b6480008b9564b8fc218692993769d692aec5c87a"),
}


def test_census_report_bytes_are_pinned_in_the_plane(census6):
    for r in (count_faithful(5, 2), count_distance(5, 2), census6[2]):
        digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                        for text in (r.to_json(), r.to_csv()))
        assert digests == _REPORT_DIGESTS[r.semantics, r.n]


def test_entries_and_counts_expand_the_class_rows():
    r = count_faithful(5, 2, _FAST)
    entries = r.entries
    assert len(entries) == len(r.canon) == 2 ** math.comb(5, 2)
    assert sorted(r.classes) == sorted(set(r.canon))
    assert len(r.classes) == r.config["isomorphism_classes"] == 34
    for mask, e in enumerate(entries):
        assert e.mask == mask
        assert (e.status, e.method, e.residual, e.rule) == r.classes[r.canon[mask]]
    statuses = Counter(e.status for e in entries)
    assert r.count_realizable == statuses["REALIZABLE"]
    assert r.count_refuted == statuses["NOT_REALIZABLE"]
    assert r.count_presumed_not == statuses["NOT_REALIZABLE"] + statuses["PRESUMED_NOT"]
    assert not r.exact
    assert any(e.method != "EXACT_ORACLE" for e in entries)


def test_one_report_takes_its_orbit_sizes_once(monkeypatch):
    # to_dict reads three counts (count_presumed_not reads count_realizable
    # again), and every count sums the same orbit sizes, so one bincount over
    # canon serves the report however often it is read
    r = count_faithful(5, 2, _FAST)
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or bincount(*a, **k))
    doc = r.to_dict()
    assert len(calls) == 1
    assert r.to_json() == json.dumps(doc, sort_keys=True)
    assert (r.count_realizable, r.count_refuted, r.count_presumed_not) == (
        doc["count_realizable"], doc["count_refuted"], doc["count_presumed_not"])
    assert len(calls) == 1


def test_writers_read_the_class_rows_not_the_entries():
    r = count_faithful(5, 2, _FAST)
    text, csv = r.to_json(), r.to_csv()
    assert "entries" not in vars(r)
    # the entries view, built afterwards, holds the rows the writers wrote
    assert json.loads(text)["entries"] == [
        {**e._asdict(), "edges": [list(p) for p in e.edges]} for e in r.entries]
    assert csv.splitlines()[-1] == (
        "n5-mask1023,0-1 0-2 0-3 0-4 1-2 1-3 1-4 2-3 2-4 3-4,NOT_REALIZABLE,CERTIFIED_RULE,,simplex")


def test_to_json_builds_no_dict_per_labelled_graph(monkeypatch, census6):
    # to_json writes its text from the class rows alone, so the pinned bytes
    # come out with the dict view out of reach
    def refuse(self):
        raise AssertionError("to_json called to_dict")

    monkeypatch.setattr(CensusReport, "to_dict", refuse)
    assert hashlib.sha256(count_faithful(4, 2).to_json().encode()).hexdigest() == (
        "9d39358b44618d15225aa80ab7706d78b8d77cea3a757278cb656b69d41f1b34")
    assert hashlib.sha256(census6[2].to_json().encode()).hexdigest() == (
        _REPORT_DIGESTS["faithful", 6][0])


@pytest.mark.parametrize("enabled", [True, False])
def test_writers_leave_the_garbage_collector_as_it_was(enabled):
    r = count_faithful(4, 2, _FAST)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for write in (r.to_json, r.to_dict, r.to_csv):
            write()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_count_distance_small_cases():
    assert count_distance(3, 1).count_realizable == 7  # K_3 needs the plane
    assert count_distance(3, 2, _FAST).count_realizable == 8  # includes K_3


def test_distance_dominates_faithful():
    for n, d in ((3, 1), (4, 1)):
        assert count_distance(n, d).count_realizable >= count_faithful(n, d).count_realizable


def test_census_monotone_in_dimension():
    a = count_faithful(3, 1).count_realizable
    b = count_faithful(3, 2, _FAST).count_realizable
    assert a <= b


def test_census_rejects_out_of_range():
    with pytest.raises(ValueError):
        count_faithful(7, 1)
    with pytest.raises(ValueError):
        count_faithful(3, 0)
    # the census runs in one process: jobs=1 is the one value it takes
    for jobs in (0, -1, 2):
        with pytest.raises(ValueError, match="jobs"):
            count_faithful(3, 2, jobs=jobs)


def test_krt_obstruction():
    k33 = make_complete_multipartite([3, 3])
    assert is_krt_obstructed(k33, 2)
    assert is_krt_obstructed(k33, 3)
    assert not is_krt_obstructed(k33, 4)  # needs 3 parts = 9 vertices
    assert is_krt_obstructed(make_complete(6), 2)
    assert not is_krt_obstructed(make_complete(5), 2)
    assert not is_krt_obstructed(k33, 1)  # single part: nothing to check


def _wheel(k):
    """Hub 0 joined to every vertex of the rim cycle 1..k."""
    rim = [(i, i % k + 1) for i in range(1, k + 1)]
    return Graph(k + 1, rim + [(0, i) for i in range(1, k + 1)])


def _rules_firing(g, d):
    return [name for name, test in _RULES if test(g, d) is not None]


def test_rule_table_order_and_names():
    assert [name for name, _ in _RULES] == ["simplex", "lenz", "plane_rhombus"]
    assert _refuting_rule(make_complete(4), 2) == {"rule": "simplex", "params": {"k": 4}}
    assert _refuting_rule(make_complete(5), 3) == {"rule": "simplex", "params": {"k": 5}}
    k23 = make_complete_multipartite([2, 3])
    assert _refuting_rule(k23, 2) == {"rule": "plane_rhombus", "params": {"rank": 3}}
    assert _refuting_rule(k23, 3) is None


def _fan(k):
    """Hub 0 joined to every vertex of the path 1..k."""
    return Graph(k + 1, [(i, i + 1) for i in range(1, k)] + [(0, i) for i in range(1, k + 1)])


def test_plane_rhombus_alone_refutes_the_5_wheel():
    w5 = _wheel(5)
    assert _rules_firing(w5, 2) == ["plane_rhombus"]
    assert _refuting_rule(w5, 2) == {"rule": "plane_rhombus", "params": {"rank": 5}}
    assert _refuting_rule(w5, 3) is None


def test_plane_rhombus_bounds_each_link_component():
    # six unit steps of 60 degrees close the circle, so a path of 7 in the
    # link would put its ends on one point
    assert _rules_firing(_fan(7), 2) == ["plane_rhombus"]
    assert _refuting_rule(_fan(7), 2)["params"] == {"rank": 5}
    # a link vertex with three link neighbours, which also holds a K_{2,3}
    k113 = make_complete_multipartite([1, 1, 3])
    assert _rules_firing(k113, 2) == ["plane_rhombus"]
    assert _plane_rhombus(k113, 2) == {"rank": 3}


def test_plane_rhombus_reduces_exactly():
    # the three rhombi of K_4 sum two at a time to 2(x_u - x_v) = 0, so the
    # forced coincidence needs a coefficient 2, not just sums and differences
    assert _plane_rhombus(make_complete(4), 2) == {"rank": 3}
    assert _plane_rhombus(make_complete_multipartite([3, 3]), 2) == {"rank": 5}
    for g in (make_complete(4), make_complete_multipartite([3, 3]), _wheel(5)):
        assert _plane_rhombus(g, 3) is None


def test_faithful_plane_graphs_trip_no_rule():
    # the 6-wheel is a hexagon with its centre; K_{1,6} is a centre with six
    # unit spokes at generic angles; the 6-fan is five hexagon edges with the
    # centre: all three are faithful in the plane
    for g in (_wheel(6), make_complete_multipartite([1, 6]), _fan(6)):
        assert _rules_firing(g, 2) == []


def test_plane_rhombus_decides_class_b_and_not_class_a():
    # the two classes of the plane at n = 6 that the old rules left to the
    # solver: B's rhombi force x_2 = x_5, while A (a distance graph) needs a
    # faithful-only argument that the table does not make
    assert _refuting_rule(_graph_of_mask(6010, 6), 2) == {
        "rule": "plane_rhombus", "params": {"rank": 3}}
    assert _refuting_rule(_graph_of_mask(1916, 6), 2) is None


def _relabelings(g):
    return {frozenset(tuple(sorted((p[u], p[v]))) for u, v in g.edges)
            for p in permutations(range(g.n))}


def test_rule_params_describe_the_obstruction_never_its_vertices():
    # a rule runs on one class representative and all its labelled copies
    # share the entry, so every relabelling must get the same answer
    cases = [(Graph(6, make_complete_multipartite([2, 3]).edges), 2), (_wheel(5), 2),
             (_graph_of_mask(6010, 6), 2), (make_complete_multipartite([3, 3]), 3)]
    for g, d in cases:
        expected = _refuting_rule(g, d)
        assert expected is not None
        for edges in _relabelings(g):
            assert _refuting_rule(Graph(g.n, edges), d) == expected


def test_lenz_refutes_k33_below_dimension_four():
    k33 = make_complete_multipartite([3, 3])
    assert _refuting_rule(k33, 3) == {"rule": "lenz", "params": {"parts": 2}}
    assert _refuting_rule(k33, 2)["rule"] == "lenz"
    assert _refuting_rule(k33, 4) is None


# sha256 of the rows and the rule tally over the 1044 classes at n = 7:
# 710 refuted in the plane, 170 in space and 7 in R^4
_RULES_AT_N7 = {
    2: ("a68b5fa166ef7b9cefec18b99a6061b63b109e023d201c4ac8c1ee75c428e9ee",
        {"simplex": 359, "lenz": 41, "plane_rhombus": 310}),
    3: ("d391ab3f8368bc3931a77700efcbc9ff1958c46b039afbc9139625a94dc9bd1e",
        {"simplex": 58, "lenz": 112}),
    4: ("82ffff5f85b655c013495afcb593f71814b81b767201fa539b63e8b0d0f163f7",
        {"simplex": 7}),
}


@pytest.mark.parametrize("d", sorted(_RULES_AT_N7))
def test_rule_table_is_pinned_at_n7(canon7, d):
    digest, tally = _RULES_AT_N7[d]
    rows = [_refuting_rule(_graph_of_mask(r, 7), d) for r in sorted(set(canon7))]
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == digest
    assert Counter(row["rule"] for row in rows if row is not None) == tally


@pytest.mark.parametrize("d", [2, 3])
def test_rules_never_refute_a_solved_class(d):
    # soundness: a class with a verified faithful witness trips no rule
    cfg = SolverConfig(seed=0, restarts=20, max_iters=400)
    found = 0
    for mask in sorted(set(_canonical_masks(5))):
        g = _graph_of_mask(mask, 5)
        res = solve_faithful(g, d, cfg)
        if res.status == "FOUND" and verify(g, res.embedding, mode="faithful", tol=1e-7).passed:
            found += 1
            assert _refuting_rule(g, d) is None, f"rule refutes solved mask {mask} in R^{d}"
    assert found >= 20


@pytest.fixture(scope="module")
def census6():
    return {d: count_faithful(6, d) for d in (2, 3)}


@pytest.fixture(scope="module")
def distance62():
    return count_distance(6, 2)


def test_rules_never_refute_a_solved_class_at_n6(census6, distance62):
    # the census runs the table first, so no FOUND class may trip it; and
    # each class the table refutes must defeat a plain distance search too
    cfg = SolverConfig(seed=0, restarts=20, max_iters=400)
    for r in (census6[2], census6[3], distance62):
        found = [rep for rep, row in r.classes.items() if row[1] == "SOLVER_FOUND"]
        assert len(found) >= 84
        assert all(_refuting_rule(_graph_of_mask(rep, 6), r.d) is None for rep in found)
    for d, r in census6.items():
        refuted = [_graph_of_mask(rep, 6) for rep, row in r.classes.items()
                   if row[1] == "CERTIFIED_RULE"]
        assert len(refuted) >= 10
        assert all(res.status != "FOUND" for res in solve_many(refuted, d, cfg, faithful=False))


def _card(mask, v, n):
    """The subgraph of an n-vertex mask induced on every vertex but v, as an
    (n - 1)-vertex mask with the vertices above v shifted down by one."""
    slot = {p: i for i, p in enumerate(combinations(range(n - 1), 2))}
    return sum(1 << slot[a - (a > v), b - (b > v)]
               for i, (a, b) in enumerate(combinations(range(n), 2))
               if mask >> i & 1 and v not in (a, b))


def test_realizable_classes_are_hereditary_at_n6(census6, distance62):
    # a distance realization realizes every subgraph on its points, and a
    # faithful one every induced subgraph: the rules' refutations and the
    # solver's witnesses must agree with both, read off canon alone
    def realizable(r, mask):
        return r.classes[int(r.canon[mask])][0] == "REALIZABLE"

    found = [rep for rep in distance62.classes if realizable(distance62, rep)]
    smaller = [rep & ~(1 << i) for rep in found for i in range(15) if rep >> i & 1]
    assert len(found) == 85 and all(realizable(distance62, mask) for mask in smaller)
    for r, cards, classes in ((census6[2], count_faithful(5, 2), 84),
                              (census6[3], count_faithful(5, 3), 143),
                              (distance62, count_distance(5, 2), 85)):
        assert (cards.semantics, cards.d) == (r.semantics, r.d)
        found = [rep for rep in r.classes if realizable(r, rep)]
        assert len(found) == classes
        assert all(realizable(cards, _card(rep, v, 6)) for rep in found for v in range(6))


def _tally(report):
    methods = Counter(e.method for e in report.entries)
    rules = Counter(e.rule["rule"] for e in report.entries if e.rule is not None)
    return methods, rules


def test_census_n6_plane_counts(census6):
    r = census6[2]
    methods, rules = _tally(r)
    assert (r.count_realizable, r.count_refuted) == (20314, 12094)
    assert methods == {"SOLVER_FOUND": 20314, "CERTIFIED_RULE": 12094, "SOLVER_EXHAUSTED": 360}
    assert rules == {"simplex": 5142, "lenz": 130, "plane_rhombus": 6822}
    assert r.count_presumed_not == (1 << 15) - 20314
    # class A (mask 1916) is the one class left to the solver
    assert [rep for rep, row in r.classes.items() if row[1] == "SOLVER_EXHAUSTED"] == [1916]


def test_census_n6_plane_distance_counts(distance62):
    # the same table refutes the same graphs; the distance solver realizes A
    r = distance62
    methods, rules = _tally(r)
    assert (r.count_realizable, r.count_refuted) == (20674, 12094)
    assert methods == {"SOLVER_FOUND": 20674, "CERTIFIED_RULE": 12094}
    assert rules == {"simplex": 5142, "lenz": 130, "plane_rhombus": 6822}


def test_census_n6_space_counts(census6):
    r = census6[3]
    methods, rules = _tally(r)
    assert (r.count_realizable, r.count_refuted, r.count_presumed_not) == (32131, 637, 637)
    assert methods == {"SOLVER_FOUND": 32131, "CERTIFIED_RULE": 637}
    assert rules == {"simplex": 172, "lenz": 465}


def test_census_entries_carry_their_rule(census6):
    doc = json.loads(json.dumps(census6[2].to_dict()))
    assert doc["count_refuted"] == 12094
    for e in doc["entries"]:
        assert (e["rule"] is not None) == (e["method"] == "CERTIFIED_RULE")
        assert (e["status"] == "NOT_REALIZABLE") == (e["method"] == "CERTIFIED_RULE")
    # K_4 on vertices 0..3 plus two isolated vertices
    k4 = next(e.mask for e in census6[2].entries if set(e.edges) == set(combinations(range(4), 2)))
    assert doc["entries"][k4]["rule"] == {"rule": "simplex", "params": {"k": 4}}
    rows = census6[2].to_csv().splitlines()
    assert rows[1 + k4].endswith(",NOT_REALIZABLE,CERTIFIED_RULE,,simplex")


def test_fewest_edges_of_a_nonfaithful_graph(census6):
    # the paper's second-part quantity at small n: K_4 and K_{2,3} in the
    # plane (6 edges), K_{3,3} = K''_3 in space (9 edges)
    r52 = count_faithful(5, 2)
    for r in (r52, census6[2]):
        assert min(len(e.edges) for e in r.entries if e.status != "REALIZABLE") == 6
    six = {_refuting_rule(_graph_of_mask(e.mask, 6), 2)["rule"]
           for e in census6[2].entries if e.status != "REALIZABLE" and len(e.edges) == 6}
    assert six == {"simplex", "plane_rhombus"}
    exhausted = {len(e.edges) for e in census6[2].entries if e.method == "SOLVER_EXHAUSTED"}
    assert exhausted == {8}
    space = [e for e in census6[3].entries if e.status != "REALIZABLE"]
    fewest = min(len(e.edges) for e in space)
    assert fewest == make_kdoubleprime(3).m == 9
    assert {e.rule["rule"] for e in space if len(e.edges) == fewest} == {"lenz"}
    assert sum(len(e.edges) == fewest for e in space) == 10  # labelled copies of K_{3,3}


def test_ramsey_fd_lower_values():
    assert ramsey_fd_lower(3, 1) == 2
    assert ramsey_fd_lower(6, 1) == 5
    assert ramsey_fd_lower(8, 2) == 7


def _ramsey_sides(s, d):
    """(2^C(s,2), B) of the counting test that ramsey_fd_lower runs."""
    full = 1 << math.comb(s, 2)
    try:
        return full, min(full, zero_pattern_bound(s, d))
    except ValueError:
        return full, full


def test_ramsey_fd_lower_is_largest():
    # s = 64 puts the answer above 4 * 10^8, far past any walk one step at a time
    for s, d in ((3, 1), (6, 1), (8, 2), (64, 1)):
        m = ramsey_fd_lower(s, d)
        full, bound = _ramsey_sides(s, d)
        assert math.comb(m, s) * 2 * bound < full
        assert math.comb(m + 1, s) * 2 * bound >= full


def test_ramsey_fd_lower_matches_a_linear_walk():
    for s in range(2, 25):
        for d in range(1, s // 2 + 1):
            full, bound = _ramsey_sides(s, d)
            m = s - 1
            while math.comb(m + 1, s) * 2 * bound < full:
                m += 1
            assert ramsey_fd_lower(s, d) == m, (s, d)


def test_ramsey_fd_lower_growth_regime():
    assert ramsey_fd_lower(20, 1) > 2 ** 5


def test_ramsey_fd_lower_rejections():
    with pytest.raises(ValueError):
        ramsey_fd_lower(1, 1)
    with pytest.raises(ValueError):
        ramsey_fd_lower(3, 2)  # s < 2d


@pytest.mark.parametrize("d", [0, -1])
def test_ramsey_fd_lower_rejects_dimension_below_1(d):
    # not caught as the zero-pattern bound's hypothesis failing, which
    # falls back to 2^C(s,2) and answers
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        ramsey_fd_lower(3, d)


def test_small_graphs_or_complements_are_linear_forests():
    # why an exact faithful Ramsey number is trivial for s <= 3: every graph
    # on s vertices or its complement is a union of paths, faithful on the
    # line and hence in every R^d, so m = s vertices already force one
    for s in (2, 3):
        full = (1 << math.comb(s, 2)) - 1
        for mask in range(full + 1):
            assert (linear_forest_oracle(_graph_of_mask(mask, s))
                    or linear_forest_oracle(_graph_of_mask(full ^ mask, s))), (s, mask)
    claw = make_complete_multipartite([1, 3])
    co_claw = Graph(4, [(1, 2), (1, 3), (2, 3)])
    assert not linear_forest_oracle(claw) and not linear_forest_oracle(co_claw)
