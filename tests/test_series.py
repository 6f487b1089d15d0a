from collections import Counter
from fractions import Fraction
from itertools import combinations, zip_longest

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import ORACLE_MATRICES, affine_a, coxeter_matrices, get_ball
from coxgrowth import (
    INF,
    NegativeCoefficientError,
    RationalFunction,
    ResourceLimitError,
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
    validate_matrix,
)
from coxgrowth import coxmatrix, series

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
    f = RationalFunction((1,), (-3, 1))
    # integers with positive constant term downstairs
    assert f.den[0] > 0
    assert all(isinstance(c, int) for c in f.num + f.den)
    assert f.evaluate(0) == Fraction(-1, 3)
    # coefficients are integers only
    with pytest.raises(TypeError):
        RationalFunction((Fraction(1, 2),), (1, 1))


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
    assert taylor_coefficients(geom, 4) == [1, 1, 1, 1, 1]


def test_taylor_polynomial_pads_zeros():
    poly = RationalFunction((1, 2, 2, 2, 1))
    assert taylor_coefficients(poly, 6) == [1, 2, 2, 2, 1, 0, 0]


def test_evaluate_and_poles():
    assert RationalFunction((1, 2, 2, 2, 1)).evaluate(1) == 8
    geom = RationalFunction((1,), (1, -1))
    assert geom.evaluate(Fraction(1, 2)) == 2
    with pytest.raises(ZeroDivisionError):
        RationalFunction((1,), (1, -2)).evaluate(Fraction(1, 2))


@st.composite
def integer_polys(draw, max_degree=3, nonzero_at_zero=False):
    """A nonzero integer polynomial of degree <= max_degree, often non-monic."""
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=max_degree + 1))
    if nonzero_at_zero:
        coeffs[0] = coeffs[0] or 1
    return polys.trim(coeffs) or (draw(st.integers(1, 6)),)


@st.composite
def common_factors(draw):
    """A product of non-monic integer factors, some of them repeated."""
    h = (1,)
    for factor in draw(st.lists(integer_polys(max_degree=2), min_size=1, max_size=3)):
        for _ in range(draw(st.integers(1, 3))):
            h = polys.mul(h, factor)
    return h


@settings(max_examples=200, deadline=None)
@given(integer_polys(), integer_polys(nonzero_at_zero=True), common_factors())
def test_common_factors_cancel(p, q, h):
    f = RationalFunction(polys.mul(p, h), polys.mul(q, h))
    assert f == RationalFunction(p, q)
    # checked without the normaliser's gcd: same value, no larger denominator,
    # content 1 and a positive constant term downstairs
    assert polys.mul(f.num, q) == polys.mul(f.den, p)
    assert polys.degree(f.den) <= polys.degree(q)
    assert polys.content(f.num + f.den) == 1 and f.den[0] > 0


def two_pass_chain(den):
    """Reference: the verdict's Sturm chain as it was once built, in two passes.

    Euclid's loop gives gcd(den, den'), den over it is the square-free part,
    and a fresh remainder loop on that part and its derivative is the chain.
    """
    a, b = polys.primitive(den), polys.primitive(polys.derivative(den))
    while b:
        a, b = b, polys.primitive(polys.pseudo_remainder(a, b))
    part = polys.primitive(polys.quotient(den, a))
    chain = [part, polys.derivative(part)]
    while chain[-1]:
        chain.append(polys.neg(polys.primitive(polys.pseudo_remainder(chain[-2], chain[-1]))))
    return [c for c in chain if c]


def verdict_chain(den):
    """The chain `finiteness_verdict` counts roots with, caught as it counts.

    Its check of the coefficients' signs is skipped: these denominators need
    not give nonnegative ones, and the chain reads the denominator alone.
    """
    chains, count = [], polys.sign_variations
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "taylor_coefficients", lambda f, depth: [])
        patch.setattr(polys, "sign_variations",
                      lambda chain, a, b: chains.append(chain) or count(chain, a, b))
        finiteness_verdict(RationalFunction((1,), den), Fraction(1, 2))
    return chains[0]


def rational_roots(p):
    """The rational roots of an integer polynomial with p(0) != 0: each is +-a / b
    with a at most |p(0)| and b at most |lead|, by the rational root theorem."""
    return {Fraction(sign * a, b) for a in range(1, abs(p[0]) + 1)
            for b in range(1, abs(p[-1]) + 1) for sign in (1, -1)
            if polys.horner(p, sign * a, b) == 0}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(integer_polys(max_degree=2, nonzero_at_zero=True), st.integers(1, 3)),
             min_size=1, max_size=3),
    st.lists(st.fractions(min_value=-7, max_value=7, max_denominator=50), max_size=6),
)
def test_one_loop_chain_counts_roots_as_the_two_pass_route(factors, points):
    """Repeated non-monic factors, as in `common_factors`: the chain that one
    remainder loop gives and the two-pass one count the same roots in (a, b]
    for every pair of points, the factors' own rational roots among them."""
    den, points = (1,), set(points)
    for factor, k in factors:
        for _ in range(k):
            den = polys.mul(den, factor)
        points |= rational_roots(factor)
    one, two = verdict_chain(den), two_pass_chain(den)
    for a, b in combinations(sorted(points), 2):
        assert (polys.sign_variations(one, a.numerator, a.denominator)
                - polys.sign_variations(one, b.numerator, b.denominator)
                == polys.sign_variations(two, a.numerator, a.denominator)
                - polys.sign_variations(two, b.numerator, b.denominator))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 3)),
             min_size=1, max_size=3),
    st.fractions(min_value=0, max_value=1, max_denominator=50),
)
# a pole at the point above a smaller one, as for the product of the
# universal rank-3 and rank-4 groups: the interval must hold the smaller
@example(factors=[(2, 1, 1), (3, 1, 1)], point=Fraction(1, 2))
def test_verdict_isolates_smallest_pole(factors, point):
    """1 / prod (b_k - a_k t)^e_k has nonnegative coefficients and first pole min b_k/a_k."""
    assume(0 < point < 1)
    den = (1,)
    for a, b, e in factors:
        for _ in range(e):
            den = polys.mul(den, (b, -a))
    pole = min(Fraction(b, a) for a, b, _ in factors)
    v = finiteness_verdict(RationalFunction((1,), den), point)
    assert v.finite == (pole > point)
    if v.finite:
        assert v.value == 1 / polys.eval_at(den, point)
    else:
        lo, hi = v.pole_interval
        assert lo <= pole <= hi <= point
        assert hi - lo <= Fraction(1, 2**64)


# -- growth series ----------------------------------------------------------


def test_series_charges_its_denominator_degree_against_the_cap():
    # A~8's common denominator has degree 46; a label m makes it at least m - 1
    matrix = affine_a(9)
    assert rational_growth_series(matrix, cap=46) == rational_growth_series(matrix)
    with pytest.raises(ResourceLimitError, match="common denominator of degree 46$"):
        rational_growth_series(matrix, cap=45)
    with pytest.raises(ResourceLimitError, match=f"degree {10**20 - 1}$"):
        rational_growth_series(uniform_matrix(2, 10**20 - 1))


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
        w, sign = poincare_polynomial(label), (-1) ** len(subset)
        num = [a + sign * b for a, b in zip_longest(polys.mul(acc.num, w), acc.den, fillvalue=0)]
        acc = RationalFunction(num, polys.mul(acc.den, w))
    f = RationalFunction(tuple(reversed(acc.den)), tuple(reversed(acc.num)))
    return f.num, f.den


@pytest.mark.parametrize("matrix", ORACLE_MATRICES)
def test_series_matches_subset_by_subset(matrix):
    f = rational_growth_series(matrix)
    assert (f.num, f.den) == subset_by_subset(matrix)


def diagram(rank, edges):
    """The rank-rank matrix with label m on each edge (i, j, m) and 2 elsewhere."""
    rows = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for i, j, m in edges:
        rows[i][j] = rows[j][i] = m
    return validate_matrix(rows)


FINITE_TYPES = [
    pytest.param(diagram(0, []), id="rank0"),
    pytest.param(diagram(1, []), id="A1"),
    pytest.param(diagram(2, []), id="A1xA1"),
    pytest.param(path_matrix([3]), id="A2"),
    pytest.param(path_matrix([7]), id="I2(7)"),
    pytest.param(path_matrix([4, 3]), id="B3"),
    pytest.param(path_matrix([5, 3]), id="H3"),
    pytest.param(path_matrix([5, 3, 3]), id="H4"),
    pytest.param(path_matrix([3, 4, 3]), id="F4"),
    pytest.param(path_matrix([3, 3, 3, 3, 3]), id="A6"),
    pytest.param(path_matrix([4, 3, 3, 3, 3]), id="B6"),
    pytest.param(diagram(5, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (2, 4, 3)]), id="D5"),
    pytest.param(diagram(8, [(i, i + 1, 3) for i in range(6)] + [(2, 7, 3)]), id="E8"),
    pytest.param(diagram(5, [(0, 1, 3), (2, 3, 4), (3, 4, 3)]), id="A2xB3"),
]


@pytest.mark.parametrize("matrix", FINITE_TYPES)
def test_finite_series_is_the_exponent_product(matrix):
    """Steinberg's sum gives a finite group's polynomial too (Solomon's identity)."""
    f = rational_growth_series(matrix)
    assert f == RationalFunction(poincare_polynomial(classify_subset(matrix, range(matrix.rank))))
    assert (f.num, f.den) == subset_by_subset(matrix)


@settings(max_examples=60, deadline=None)
@given(coxeter_matrices())
def test_series_matches_subset_by_subset_random(matrix):
    f = rational_growth_series(matrix)
    assert (f.num, f.den) == subset_by_subset(matrix)


def counts_by_subset(matrix):
    """Reference: sum of (-1)^|J| over the listed spherical subsets, per exponent tuple."""
    counts = Counter()
    for subset, label in spherical_subsets(matrix):
        counts[label.exponents] += (-1) ** len(subset)
    return dict(counts)


@pytest.mark.parametrize("matrix", ORACLE_MATRICES + FINITE_TYPES)
def test_spherical_counts_match_the_subset_list(matrix):
    assert series.spherical_counts(matrix) == counts_by_subset(matrix)


@settings(max_examples=150, deadline=None)
@given(coxeter_matrices(max_rank=8, labels=(2, 2, 2, 3, 4, 5, 6, INF)))
def test_spherical_counts_match_the_subset_list_random(matrix):
    counts = series.spherical_counts(matrix)
    assert counts == counts_by_subset(matrix)
    assert all(n and (n < 0) == len(e) % 2 for e, n in counts.items())


@pytest.mark.parametrize("matrix", [
    pytest.param(diagram(16, []), id="A1^16"),
    pytest.param(path_matrix([3] * 15), id="A16"),
    pytest.param(path_matrix([4] + [3] * 12), id="B14"),
])
def test_series_classifies_connected_sets_only(matrix, monkeypatch):
    """2^rank subsets are spherical here, beyond the subset list's reach."""
    whole = RationalFunction(poincare_polynomial(classify_subset(matrix, range(matrix.rank))))
    calls = []
    for module in (coxmatrix, series):
        monkeypatch.setattr(
            module, "classify_subset", lambda m, s: calls.append(s) or classify_subset(m, s)
        )
    assert rational_growth_series(matrix) == whole
    assert len(calls) <= matrix.rank ** 2


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


MIXED = validate_matrix([[1, 3, 4, INF], [3, 1, 5, 4], [4, 5, 1, 3], [INF, 4, 3, 1]])


def universal_power(k):
    """The direct product of k universal rank-3 groups: ((1 + t) / (1 - 2t))^k."""
    return validate_matrix([[1 if i == j else INF if i // 3 == j // 3 else 2
                             for j in range(3 * k)] for i in range(3 * k)])


# the pole 1/2 of (1 - 2t)^2 and (1 - 2t)^3 is where bisection from 2/3 lands
BELOW_HALF = ["13835058055282163711/27670116110564327424", "1/2"]

# exact verdict output, pinned as strings: the bisection must take the same
# steps whatever arithmetic the Sturm chain is evaluated in
PINNED_VERDICTS = [
    pytest.param(uniform_matrix(4, 3), "1/2", "pole_interval",
                 ["8010656258235284655/18446744073709551616",
                  "500666016139705291/1152921504606846976"], id="uniform(4,3)@1/2"),
    pytest.param(uniform_matrix(4, 3), "1/3", "value", "26/3", id="uniform(4,3)@1/3"),
    pytest.param(uniform_matrix(5, 3), "1/3", "pole_interval",
                 ["342981471731786397/1152921504606846976",
                  "8231555321562873529/27670116110564327424"], id="uniform(5,3)@1/3"),
    pytest.param(MIXED, "1/3", "value", "125840/6673", id="mixed@1/3"),
    pytest.param(MIXED, "1/2", "pole_interval",
                 ["3354367283921897967/9223372036854775808",
                  "6708734567843795935/18446744073709551616"], id="mixed@1/2"),
    pytest.param(affine_a(9), "1/8", "value", "19173961/5764801", id="A~8@1/8"),
    pytest.param(universal_power(2), "2/3", "pole_interval", BELOW_HALF, id="U3^2@2/3"),
    pytest.param(universal_power(2), "1/2", "pole_interval", ["1/2", "1/2"], id="U3^2@1/2"),
    pytest.param(universal_power(3), "2/3", "pole_interval", BELOW_HALF, id="U3^3@2/3"),
    pytest.param(universal_power(3), "1/2", "pole_interval", ["1/2", "1/2"], id="U3^3@1/2"),
]


@pytest.mark.parametrize("matrix,point,key,expected", PINNED_VERDICTS)
def test_verdict_output_pinned(matrix, point, key, expected):
    data = finiteness_verdict(rational_growth_series(matrix), Fraction(point)).to_dict()
    assert data["point"] == point
    assert data["verdict"] == ("finite" if key == "value" else "infinite")
    assert data[key] == expected


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


def test_quotient_depth_guard():
    stats = compute_stats(get_ball(uniform_matrix(3, 4), 6))
    from coxgrowth import RangeEmptyError

    with pytest.raises(RangeEmptyError):
        quotient_criterion(stats, Fraction(1, 2))  # needs depth >= 2m + 2
    with pytest.raises(RangeEmptyError):  # no ratio test below rank 3
        quotient_criterion(SphereStats(uniform_matrix(2, 3), c=(1,) * 8, d=(0,) * 8), Fraction(1, 2))


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
