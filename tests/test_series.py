from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from conftest import ORACLE_MATRICES, coxeter_matrices, get_ball
from coxgrowth import (
    NegativeCoefficientError,
    PoleAt,
    RationalFunction,
    SingularAtZeroError,
    SphereStats,
    classify_subset,
    compute_stats,
    finiteness_verdict,
    path_matrix,
    poincare_polynomial,
    polys,
    quotient_criterion,
    rational_growth_series,
    spherical_subsets,
    taylor_coefficients,
    uniform_matrix,
)

# frozen reduced forms of the growth series, ascending coefficients
FROZEN_SERIES = {
    (3, 4): ((1, 2, 2, 2, 1), (1, -1, -1, -1, 1)),
    (4, 3): ((1, 2, 2, 1), (1, -2, -2, 3)),
    (4, 4): ((1, 2, 2, 2, 1), (1, -2, -2, -2, 3)),
    (5, 3): ((1, 2, 2, 1), (1, -3, -3, 6)),
    (3, 3): ((1, 1, 1), (1, -2, 1)),
}


# -- rational function arithmetic -------------------------------------------


def test_normalization_reduces_common_factors():
    # (1 - t^2) / (1 - t) = 1 + t
    f = RationalFunction((1, 0, -1), (1, -1))
    assert f.num == (1, 1)
    assert f.den == (1,)


def test_normalization_clears_denominators_and_sign():
    f = RationalFunction((Fraction(1, 2),), (Fraction(-3, 2), Fraction(1, 2)))
    # scaled to integers with positive constant term downstairs
    assert f.den[0] > 0
    assert all(isinstance(c, int) for c in f.num + f.den)
    assert f.evaluate(0) == Fraction(-1, 3)
    # a rational numerator over an integral denominator keeps its value
    assert RationalFunction((Fraction(1, 2),), (1, 1)).evaluate(1) == Fraction(1, 4)


def test_singular_at_zero_rejected():
    with pytest.raises(SingularAtZeroError):
        RationalFunction((1,), (0, 1))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction((1,), ())


def test_immutable():
    f = RationalFunction((1,), (1, -1))
    with pytest.raises(AttributeError):
        f.num = (2,)


def test_equality_up_to_normal_form():
    assert RationalFunction((2,), (2, -2)) == RationalFunction((1,), (1, -1))
    assert hash(RationalFunction((2,), (2, -2))) == hash(
        RationalFunction((1,), (1, -1))
    )


def test_taylor_geometric():
    geom = RationalFunction((1,), (1, -1))
    assert geom.taylor(4) == [1, 1, 1, 1, 1]


def test_taylor_polynomial_pads_zeros():
    poly = RationalFunction((1, 2, 2, 2, 1))
    assert poly.taylor(6) == [1, 2, 2, 2, 1, 0, 0]


def test_evaluate_and_poles():
    assert RationalFunction((1, 2, 2, 2, 1)).evaluate(1) == 8
    geom = RationalFunction((1,), (1, -1))
    assert geom.evaluate(Fraction(1, 2)) == 2
    hit = RationalFunction((1,), (1, -2)).evaluate(Fraction(1, 2))
    assert hit == PoleAt(Fraction(1, 2))


# -- growth series ----------------------------------------------------------


def test_series_dihedral_is_polynomial():
    f = rational_growth_series(uniform_matrix(2, 4))
    assert f.num == (1, 2, 2, 2, 1)
    assert f.den == (1,)
    assert f.evaluate(1) == 8


def test_series_finite_value_at_one_is_group_order():
    for matrix, order in (
        (path_matrix([3, 3]), 24),
        (path_matrix([4, 3]), 48),
        (path_matrix([5, 3]), 120),
    ):
        f = rational_growth_series(matrix)
        assert f.den == (1,)
        assert f.evaluate(1) == order


@pytest.mark.parametrize("key", sorted(FROZEN_SERIES))
def test_series_frozen_forms(key):
    num, den = FROZEN_SERIES[key]
    f = rational_growth_series(uniform_matrix(*key))
    assert (f.num, f.den) == (num, den)


def subset_by_subset(matrix):
    """Reference: Steinberg's sum one spherical subset at a time, reduced after each."""
    acc = RationalFunction(())
    for subset, label in spherical_subsets(matrix):
        w = poincare_polynomial(label)
        acc = RationalFunction(
            polys.add(polys.mul(acc.num, w), polys.scale(acc.den, (-1) ** len(subset))),
            polys.mul(acc.den, w),
        )
    f = RationalFunction(tuple(reversed(acc.den)), tuple(reversed(acc.num)))
    return f.num, f.den


@pytest.mark.parametrize("matrix", ORACLE_MATRICES)
def test_series_matches_subset_by_subset(matrix):
    f = rational_growth_series(matrix)
    assert (f.num, f.den) == subset_by_subset(matrix)


@settings(max_examples=60, deadline=None)
@given(coxeter_matrices())
def test_series_matches_subset_by_subset_random(matrix):
    assume(not classify_subset(matrix, range(matrix.rank)).finite)
    f = rational_growth_series(matrix)
    assert (f.num, f.den) == subset_by_subset(matrix)


@pytest.mark.parametrize(
    "matrix_args,depth",
    [((3, 4), 12), ((4, 3), 10), ((4, 4), 10), ((5, 3), 8), ((3, 3), 15)],
)
def test_coefficients_agree_with_enumeration(matrix_args, depth):
    matrix = uniform_matrix(*matrix_args)
    f = rational_growth_series(matrix)
    stats = compute_stats(get_ball(matrix, depth))
    assert taylor_coefficients(f, depth) == list(stats.c)


def test_affine_coefficients_linear():
    f = rational_growth_series(uniform_matrix(3, 3))
    coeffs = taylor_coefficients(f, 10)
    assert coeffs[0] == 1
    assert coeffs[1:] == [3 * i for i in range(1, 11)]


# -- finiteness verdicts ----------------------------------------------------


def test_verdict_trivial_geometric():
    v = finiteness_verdict(RationalFunction((1,), (1, -1)), Fraction(1, 2))
    assert v.verdict == "finite"
    assert v.value == 2


def test_verdict_finite_instances():
    cases = [
        ((3, 4), Fraction(1, 2), Fraction(15)),
        ((4, 3), Fraction(1, 3), Fraction(26, 3)),
        ((4, 4), Fraction(1, 3), Fraction(80, 3)),
        ((5, 3), Fraction(1, 4), Fraction(21, 2)),
    ]
    for args, point, value in cases:
        v = finiteness_verdict(rational_growth_series(uniform_matrix(*args)), point)
        assert v.verdict == "finite"
        assert v.value == value
        assert v.pole_interval is None


def test_verdict_infinite_instances():
    for args, point in (((4, 3), Fraction(1, 2)), ((5, 3), Fraction(1, 3))):
        v = finiteness_verdict(rational_growth_series(uniform_matrix(*args)), point)
        assert v.verdict == "infinite"
        assert v.value is None
        lo, hi = v.pole_interval
        assert 0 < lo <= hi <= point
        assert hi - lo <= Fraction(1, 2**64)
        assert "nonnegative" in v.justification


def test_verdict_pole_exactly_at_point():
    # 1/(1-2t) diverges exactly at 1/2
    v = finiteness_verdict(RationalFunction((1,), (1, -2)), Fraction(1, 2))
    assert v.verdict == "infinite"
    assert v.pole_interval == (Fraction(1, 2), Fraction(1, 2))


def test_verdict_rejects_negative_coefficients():
    with pytest.raises(NegativeCoefficientError):
        finiteness_verdict(RationalFunction((1, -2), (1,)), Fraction(1, 2))


def test_verdict_rejects_points_outside_unit_interval():
    f = RationalFunction((1,), (1, -1))
    for bad in (0, 1, 2, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            finiteness_verdict(f, bad)


def test_partial_sums_monotone_below_value():
    f = rational_growth_series(uniform_matrix(3, 4))
    coeffs = taylor_coefficients(f, 12)
    t0 = Fraction(1, 2)
    value = f.evaluate(t0)
    partial = Fraction(0)
    previous = Fraction(-1)
    for i, c in enumerate(coeffs):
        partial += c * t0**i
        assert previous < partial <= value
        previous = partial


def test_verdict_serialization():
    v = finiteness_verdict(rational_growth_series(uniform_matrix(4, 3)), Fraction(1, 3))
    data = v.to_dict()
    assert data["point"] == "1/3"
    assert data["verdict"] == "finite"
    assert data["value"] == "26/3"


# -- quotient criterion -----------------------------------------------------


def test_quotient_convergence_444():
    stats = compute_stats(get_ball(uniform_matrix(3, 4), 12))
    report = quotient_criterion(stats, Fraction(1, 2))
    assert report.mode == "convergence"
    assert report.i_min == 8
    assert report.bound == Fraction(63, 64)
    assert report.satisfied
    assert all(r <= Fraction(63, 64) for _, r in report.ratios)


def test_quotient_divergence_rank4():
    stats = compute_stats(get_ball(uniform_matrix(4, 3), 10))
    report = quotient_criterion(stats, Fraction(1, 2))
    assert report.mode == "divergence"
    assert report.i_min == 4
    assert report.satisfied
    assert all(r >= 1 for _, r in report.ratios)


def test_quotient_constant_series():
    stats = SphereStats(uniform_matrix(2, 3), c=(1,) * 8, d=(0,) * 8)
    report = quotient_criterion(stats, Fraction(1, 2), i_min=0, mode=None)
    assert all(r == Fraction(1, 2) for _, r in report.ratios)
    assert report.bound is None


def test_quotient_depth_guard():
    stats = compute_stats(get_ball(uniform_matrix(3, 4), 6))
    from coxgrowth import RangeEmptyError

    with pytest.raises(RangeEmptyError):
        quotient_criterion(stats, Fraction(1, 2))  # needs depth >= 2m + 2


def test_verdict_consistency_with_criterion():
    # convergence bound satisfied and below 1 matches a finite verdict
    m = uniform_matrix(3, 4)
    stats = compute_stats(get_ball(m, 12))
    report = quotient_criterion(stats, Fraction(1, 2))
    verdict = finiteness_verdict(rational_growth_series(m), Fraction(1, 2))
    assert report.satisfied and report.bound < 1
    assert verdict.verdict == "finite"

    m4 = uniform_matrix(4, 3)
    stats4 = compute_stats(get_ball(m4, 10))
    report4 = quotient_criterion(stats4, Fraction(1, 2))
    verdict4 = finiteness_verdict(rational_growth_series(m4), Fraction(1, 2))
    assert report4.satisfied and report4.bound == 1
    assert verdict4.verdict == "infinite"
