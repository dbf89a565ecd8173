"""Census counting, exact oracles, and the Ramsey-style calculators."""

import math
from itertools import combinations, permutations

import pytest

from udgraph.census import (
    _canonical_masks,
    count_distance,
    count_faithful,
    is_krt_obstructed,
    linear_forest_oracle,
    ramsey_exact,
    ramsey_fd_lower,
    zero_pattern_bound,
)
from udgraph.graphs import Graph, make_complete, make_complete_multipartite
from udgraph.solver import SolverConfig

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
    canon = _canonical_masks(n)
    assert canon == [_brute_canonical_mask(m, n) for m in range(1 << math.comb(n, 2))]
    assert len(set(canon)) == classes
    assert count_faithful(n, 1).config["isomorphism_classes"] == classes


def test_count_faithful_plane_n3():
    r = count_faithful(3, 2, _FAST)
    assert r.count_realizable == 8
    assert r.count_presumed_not == 0


def test_count_reports_are_well_formed():
    r = count_faithful(3, 1)
    assert r.count_realizable + r.count_presumed_not == 2 ** math.comb(3, 2)
    assert len(r.entries) == 8
    assert {e.method for e in r.entries} == {"EXACT_ORACLE"}
    csv = r.to_csv()
    assert csv.splitlines()[0] == "graph_id,edges,status,method,residual"
    assert len(csv.splitlines()) == 9
    assert "isomorphism_classes" in r.config


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
        count_faithful(6, 1)
    with pytest.raises(ValueError):
        count_faithful(3, 0)


def test_census_parallel_jobs_agree():
    serial = count_faithful(4, 1, jobs=1)
    parallel = count_faithful(4, 1, jobs=2)
    assert serial.count_realizable == parallel.count_realizable
    assert [e.status for e in serial.entries] == [e.status for e in parallel.entries]


def test_krt_obstruction():
    k33 = make_complete_multipartite([3, 3])
    assert is_krt_obstructed(k33, 2)
    assert is_krt_obstructed(k33, 3)
    assert not is_krt_obstructed(k33, 4)  # needs 3 parts = 9 vertices
    assert is_krt_obstructed(make_complete(6), 2)
    assert not is_krt_obstructed(make_complete(5), 2)
    assert not is_krt_obstructed(k33, 1)  # single part: nothing to check


def test_ramsey_fd_lower_values():
    assert ramsey_fd_lower(3, 1) == 2
    assert ramsey_fd_lower(6, 1) == 5
    assert ramsey_fd_lower(8, 2) == 7


def test_ramsey_fd_lower_is_largest():
    for s, d in ((3, 1), (6, 1), (8, 2)):
        m = ramsey_fd_lower(s, d)
        full = 1 << math.comb(s, 2)
        try:
            bound = min(full, zero_pattern_bound(s, d))
        except ValueError:
            bound = full
        assert math.comb(m, s) * 2 * bound < full
        assert math.comb(m + 1, s) * 2 * bound >= full


def test_ramsey_fd_lower_growth_regime():
    assert ramsey_fd_lower(20, 1) > 2 ** 5


def test_ramsey_fd_lower_rejections():
    with pytest.raises(ValueError):
        ramsey_fd_lower(1, 1)
    with pytest.raises(ValueError):
        ramsey_fd_lower(3, 2)  # s < 2d


def test_ramsey_exact_values():
    assert ramsey_exact(2, 1) == 2
    assert ramsey_exact(2, 2, cfg=_FAST) == 2
    assert ramsey_exact(3, 1) == 3
    assert ramsey_exact(3, 2, cfg=_FAST) == 3


def test_ramsey_exact_range_guards():
    with pytest.raises(ValueError):
        ramsey_exact(4, 1)
    with pytest.raises(ValueError):
        ramsey_exact(3, 1, max_m=9)
    with pytest.raises(ValueError):
        ramsey_exact(3, 1, max_m=2)
