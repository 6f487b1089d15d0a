"""Sphere statistics and the counting identities.

Frozen c/d tables come from the independent rewriting oracle (all words
enumerated and canonicalized without the ball builder).
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import SCAN_BALLS, coxeter_matrices, get_ball
from coxgrowth import (
    DiagramNotCompleteError,
    LabelTooSmallError,
    NotUniformError,
    RangeEmptyError,
    RankTooSmallError,
    build_ball,
    compute_stats,
    descent_ratio_floor,
    path_matrix,
    uniform_matrix,
    validate_matrix,
    verify_descent_ratio,
    verify_descent_sum_lower,
    verify_growth_lower,
    verify_growth_upper,
    verify_two_descent_recursion,
    verify_up_edge_balance,
)

# oracle-derived descent tables
ORACLE_D = {
    (3, 4): [0, 3, 6, 12, 18, 33],
    (4, 3): [0, 4, 12, 24, 60],
    (2, 4): [0, 2, 2, 2, 0, 0],
    (3, 3): [0, 3, 6, 6, 9, 9],
}


def stats_for(rank, label, depth):
    return compute_stats(get_ball(uniform_matrix(rank, label), depth))


@pytest.mark.parametrize("key", sorted(ORACLE_D))
def test_descent_counts_match_oracle_tables(key):
    rank, label = key
    expected = ORACLE_D[key]
    stats = stats_for(rank, label, len(expected) - 1)
    assert list(stats.d) == expected


def test_base_schedule():
    for matrix in (uniform_matrix(3, 4), uniform_matrix(4, 3), path_matrix([3, 3])):
        stats = compute_stats(get_ball(matrix, 3))
        n = matrix.rank
        assert stats.c[0] == 1 and stats.d[0] == 0
        assert stats.c[1] == n and stats.d[1] == n


def test_d_bounded_by_c():
    for key in ORACLE_D:
        stats = stats_for(*key, depth=len(ORACLE_D[key]) - 1)
        assert all(0 <= d <= c for c, d in zip(stats.c, stats.d))


def unique_descents_by_scan(ball):
    """d_i recounted from every element's descent set, independent of the build."""
    return tuple(
        sum(1 for idx in ball.layer(i) if len(ball.descent_indices(idx)) == 1)
        for i in range(ball.depth + 1)
    )


@pytest.mark.parametrize("matrix, depth", SCAN_BALLS)
def test_fused_descent_census_matches_scan(matrix, depth):
    ball = get_ball(matrix, depth)
    assert compute_stats(ball).d == unique_descents_by_scan(ball)


@settings(max_examples=60, deadline=None)
@given(coxeter_matrices(max_rank=4))
def test_fused_descent_census_matches_scan_random(matrix):
    ball = build_ball(matrix, 5)
    assert compute_stats(ball).d == unique_descents_by_scan(ball)


def test_descent_partition():
    # every sphere splits into one-descent and two-descent elements
    ball = get_ball(uniform_matrix(3, 4), 8)
    stats = compute_stats(ball)
    for i in range(1, 9):
        two = sum(1 for idx in ball.layer(i) if len(ball.descent_indices(idx)) == 2)
        assert stats.c[i] == stats.d[i] + two


# -- the identities ---------------------------------------------------------


def test_two_descent_recursion_444():
    stats = stats_for(3, 4, 12)
    report = verify_two_descent_recursion(stats)
    assert report.holds
    assert (report.low, report.high) == (5, 12)
    # n=3 kills the binomial term: c_5 - d_5 = d_1 = 3
    assert stats.c[5] - stats.d[5] == 3


def test_two_descent_recursion_rank4():
    stats = stats_for(4, 3, 10)
    report = verify_two_descent_recursion(stats)
    assert report.holds
    # n=4, m=3 at i=4: c_4 - d_4 = 1*c_1 + 2*d_1 = 12
    assert stats.c[4] - stats.d[4] == 12


def test_up_edge_balance():
    for rank, label, depth in ((3, 4, 12), (4, 3, 10), (4, 4, 10)):
        report = verify_up_edge_balance(stats_for(rank, label, depth))
        assert report.holds
        assert report.high == depth - 1


def test_up_edge_balance_detects_corruption():
    stats = stats_for(3, 4, 8)
    broken = stats._replace(d=stats.d[:6] + (stats.d[6] + 1,) + stats.d[7:])
    report = verify_up_edge_balance(broken)
    assert not report.holds
    bad_is = {f.where["i"] for f in report.failures}
    assert bad_is <= {5, 6}
    first = report.failures[0]
    assert first.lhs != first.rhs


def test_growth_upper():
    for rank, label, depth in ((3, 4, 12), (4, 4, 10)):
        report = verify_growth_upper(stats_for(rank, label, depth))
        assert report.holds


def test_growth_upper_coarse_reduction():
    # when d_{i-m+1} = 0 the refined bound equals (n-1)c_i
    stats = stats_for(3, 4, 12)
    n, m = 3, 4
    for i in range(m + 1, 12):
        if stats.d[i - m + 1] == 0:
            assert stats.c[i + 1] <= (n - 1) * stats.c[i]


def test_growth_lower_needs_label_above_three():
    with pytest.raises(LabelTooSmallError):
        verify_growth_lower(stats_for(3, 3, 8))


def test_growth_lower_holds():
    for rank, label, depth in ((3, 4, 12), (4, 4, 10)):
        report = verify_growth_lower(stats_for(rank, label, depth))
        assert report.holds


def test_nonuniform_rejected():
    stats = compute_stats(get_ball(path_matrix([3, 4]), 6))
    with pytest.raises(NotUniformError):
        verify_two_descent_recursion(stats)


def test_descent_sum_lower():
    for rank, depth in ((4, 10), (5, 8)):
        report = verify_descent_sum_lower(stats_for(rank, 3, depth))
        assert report.holds
        assert (report.low, report.high) == (0, depth - 1)


def test_descent_sum_lower_base_case():
    stats = stats_for(4, 3, 4)
    assert (stats.n - 2) * stats.c[0] <= stats.d[0] + stats.d[1]


def test_descent_sum_lower_needs_rank_four():
    with pytest.raises(RankTooSmallError):
        verify_descent_sum_lower(stats_for(3, 4, 8))


def test_descent_sum_lower_needs_complete_diagram():
    matrix = validate_matrix(
        [[1, 3, 3, 2], [3, 1, 3, 3], [3, 3, 1, 3], [2, 3, 3, 1]]
    )
    stats = compute_stats(get_ball(matrix, 4))
    with pytest.raises(DiagramNotCompleteError):
        verify_descent_sum_lower(stats)


def test_ratio_floor_values():
    assert descent_ratio_floor(3, 4) == Fraction(1, 4)
    assert descent_ratio_floor(4, 4) == Fraction(7, 9)


def test_ratio_floor_rejects_small_label():
    with pytest.raises(LabelTooSmallError):
        descent_ratio_floor(3, 3)


def test_descent_ratio_holds():
    report = verify_descent_ratio(stats_for(3, 4, 12), Fraction(1, 4))
    assert report.holds
    assert (report.low, report.high) == (5, 12)
    report = verify_descent_ratio(stats_for(4, 4, 10), Fraction(7, 9))
    assert report.holds


def test_descent_ratio_k_one_fails():
    report = verify_descent_ratio(stats_for(3, 4, 12), Fraction(1))
    assert not report.holds
    first_bad = min(f.where["i"] for f in report.failures)
    stats = stats_for(3, 4, 12)
    assert stats.d[first_bad] < stats.c[first_bad]


def test_range_empty_when_depth_too_small():
    with pytest.raises(RangeEmptyError):
        verify_two_descent_recursion(stats_for(3, 4, 3))


def test_report_serialization():
    report = verify_two_descent_recursion(stats_for(3, 4, 8))
    data = report.to_dict()
    assert data["lemma"] == "L32"
    assert data["range"] == [5, 8]
    assert data["verdict"] == "holds"
    assert data["failures"] == []
    assert data["checked"] == 4


def test_monotonicity_under_preorder():
    pairs = [
        (uniform_matrix(3, 3), uniform_matrix(3, 4)),
        (uniform_matrix(4, 3), uniform_matrix(4, 4)),
    ]
    for small, big in pairs:
        c_small = compute_stats(get_ball(small, 8)).c
        c_big = compute_stats(get_ball(big, 8)).c
        assert all(a <= b for a, b in zip(c_small, c_big))
