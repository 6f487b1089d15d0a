"""End-to-end acceptance gate.

Each test exercises one numbered criterion at full scale, records a single
PASS/FAIL line (printed in the terminal summary), and enforces the stated
wall-clock budget.
"""
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from conftest import get_ball
from coxgrowth import (
    INF,
    HypothesisError,
    classify_subset,
    cli,
    compute_stats,
    descent_ratio_floor,
    finiteness_verdict,
    oracle_reduce,
    path_matrix,
    quotient_criterion,
    rational_growth_series,
    taylor_coefficients,
    uniform_matrix,
    validate_matrix,
    verify_descent_ratio,
    verify_descent_sum_lower,
    verify_exit_ascent,
    verify_growth_lower,
    verify_growth_upper,
    verify_not_both_down,
    verify_projection_collapse,
    verify_two_descent_recursion,
    verify_up_edge_balance,
    verify_wall_pair_uniqueness,
)
from coxgrowth.ball import walk_ball

SYSTEMS = [
    ("I2(4)", validate_matrix([[1, 4], [4, 1]])),
    ("A3", path_matrix([3, 3])),
    ("(3,3,3)", uniform_matrix(3, 3)),
    ("(4,4,4)", uniform_matrix(3, 4)),
    ("rank-4 uniform-3", uniform_matrix(4, 3)),
    ("rank-4 uniform-4", uniform_matrix(4, 4)),
]


def stats_for(matrix, depth):
    return compute_stats(get_ball(matrix, depth))


def test_criterion_1_oracle_equivalence(criterion):
    start = time.monotonic()
    checked = 0
    bad = []
    for name, matrix in SYSTEMS:
        ball = get_ball(matrix, 6)
        for k in range(7):
            for word in product(matrix.generators(), repeat=k):
                w = 0
                for letter in word:
                    w = ball.step(w, letter)
                if ball.word(w) != oracle_reduce(word, matrix):
                    bad.append((name, word))
                checked += 1
    elapsed = time.monotonic() - start
    criterion(
        1,
        not bad and checked == 14328 and elapsed < 30.0,
        f"ball multiplication matches rewriting oracle on {checked} words "
        f"over 6 systems, {len(bad)} mismatches, {elapsed:.2f}s (< 30s)",
    )


def test_criterion_2_coefficient_cross_validation(criterion):
    start = time.monotonic()
    problems = []

    infinite_cases = [
        ("(4,4,4)", uniform_matrix(3, 4), 12),
        ("rank-4 uniform-3", uniform_matrix(4, 3), 10),
        ("rank-4 uniform-4", uniform_matrix(4, 4), 10),
        ("(3,3,3)", uniform_matrix(3, 3), 15),
    ]
    for name, matrix, depth in infinite_cases:
        coeffs = taylor_coefficients(rational_growth_series(matrix), depth)
        enumerated = list(stats_for(matrix, depth).c)
        if coeffs != enumerated:
            problems.append(f"{name}: series {coeffs} != counts {enumerated}")

    finite_cases = [
        (f"I2({m})", uniform_matrix(2, m), m + 2) for m in range(2, 9)
    ] + [
        ("A3", path_matrix([3, 3]), 8),
        ("B3", path_matrix([4, 3]), 11),
        ("H3", path_matrix([5, 3]), 17),
    ]
    for name, matrix, depth in finite_cases:
        order = classify_subset(matrix, matrix.generators()).order
        series = rational_growth_series(matrix)
        coeffs = taylor_coefficients(series, depth)
        enumerated = list(stats_for(matrix, depth).c)
        if coeffs != enumerated:
            problems.append(f"{name}: series != counts")
        if enumerated[-1] != 0 or sum(enumerated) != order:
            problems.append(f"{name}: ball does not exhaust {order} elements")
        if series.evaluate(Fraction(1)) != order:
            problems.append(f"{name}: value at one is not {order}")

    elapsed = time.monotonic() - start
    criterion(
        2,
        not problems and elapsed < 60.0,
        f"series coefficients equal sphere counts on 4 infinite systems and "
        f"exhaust 10 finite types; {problems or 'no mismatches'}, "
        f"{elapsed:.2f}s (< 1min)",
    )


def test_criterion_3_lemma_suite(criterion):
    start = time.monotonic()
    failed = []

    ranged = [
        ("(4,4,4)", stats_for(uniform_matrix(3, 4), 12)),
        ("rank-4 uniform-3", stats_for(uniform_matrix(4, 3), 10)),
        ("rank-4 uniform-4", stats_for(uniform_matrix(4, 4), 10)),
    ]
    lemmas = [
        ("L32", verify_two_descent_recursion),
        ("L33", verify_up_edge_balance),
        ("L34", verify_growth_upper),
    ]
    for name, stats in ranged:
        for token, verifier in lemmas:
            if not verifier(stats).holds:
                failed.append(f"{token}@{name}")

    floors = {(3, 4): Fraction(1, 4), (4, 4): Fraction(7, 9)}
    if descent_ratio_floor(3, 4) != floors[(3, 4)]:
        failed.append("floor(n=3,m=4)")
    if descent_ratio_floor(4, 4) != floors[(4, 4)]:
        failed.append("floor(n=4,m=4)")
    for name, stats in (ranged[0], ranged[2]):  # the label-4 systems
        if not verify_growth_lower(stats).holds:
            failed.append(f"L35@{name}")
        k = floors[(stats.n, stats.m)]
        if not verify_descent_ratio(stats, k).holds:
            failed.append(f"k-ratio@{name}")

    for name, stats in (
        ("rank-4 uniform-3", ranged[1][1]),
        ("rank-5 uniform-3", stats_for(uniform_matrix(5, 3), 8)),
    ):
        if not verify_descent_sum_lower(stats).holds:
            failed.append(f"L45@{name}")

    elapsed = time.monotonic() - start
    criterion(
        3,
        not failed and elapsed < 60.0,
        f"counting lemmas hold on their ranges with zero violations "
        f"({failed or 'L32/L33/L34 x3, L35+k-ratio x2, L45 x2'}), "
        f"{elapsed:.2f}s (< 1min)",
    )


def test_criterion_4_finite_verdicts(criterion):
    start = time.monotonic()
    problems = []

    expected = [
        ("(4,4,4)", uniform_matrix(3, 4), Fraction(1, 2), Fraction(15)),
        ("rank-4 uniform-3", uniform_matrix(4, 3), Fraction(1, 3), Fraction(26, 3)),
        ("rank-4 uniform-4", uniform_matrix(4, 4), Fraction(1, 3), Fraction(80, 3)),
        ("rank-5 uniform-3", uniform_matrix(5, 3), Fraction(1, 4), Fraction(21, 2)),
    ]
    for name, matrix, point, value in expected:
        verdict = finiteness_verdict(rational_growth_series(matrix), point)
        if not verdict.finite or verdict.value != value:
            problems.append(f"{name}@{point}: wanted {value}, got {verdict}")

    report = quotient_criterion(stats_for(uniform_matrix(3, 4), 12), Fraction(1, 2))
    bound = Fraction(63, 64)
    if not (
        report.mode == "convergence"
        and report.i_min == 8
        and report.bound == bound
        and report.satisfied
        and all(ratio <= bound for _, ratio in report.ratios)
    ):
        problems.append(f"quotient bound violated: {report}")

    elapsed = time.monotonic() - start
    criterion(
        4,
        not problems and elapsed < 60.0,
        f"exact finite values at t=1/(n-1) for 4 systems and all "
        f"(4,4,4) ratios <= 63/64 past i=7; {problems or 'all exact'}, "
        f"{elapsed:.2f}s (< 1min)",
    )


def test_criterion_5_infinite_verdicts(criterion):
    start = time.monotonic()
    problems = []

    for name, matrix, point in (
        ("rank-4 uniform-3", uniform_matrix(4, 3), Fraction(1, 2)),
        ("rank-5 uniform-3", uniform_matrix(5, 3), Fraction(1, 3)),
    ):
        verdict = finiteness_verdict(rational_growth_series(matrix), point)
        if verdict.finite:
            problems.append(f"{name}@{point}: expected divergence")
            continue
        lo, hi = verdict.pole_interval
        if not (0 < lo < hi <= point):
            problems.append(f"{name}: pole not isolated in (0, {point}]")

    report = quotient_criterion(stats_for(uniform_matrix(4, 3), 10), Fraction(1, 2))
    if not (
        report.mode == "divergence"
        and report.i_min == 4
        and report.bound == 1
        and report.satisfied
        and all(ratio >= 1 for _, ratio in report.ratios)
    ):
        problems.append(f"divergence ratios dipped below one: {report}")

    elapsed = time.monotonic() - start
    criterion(
        5,
        not problems and elapsed < 60.0,
        f"divergence certified at t=1/(n-2) with isolated poles and all "
        f"ratios >= 1 past i=3; {problems or 'all certified'}, "
        f"{elapsed:.2f}s (< 1min)",
    )


def test_criterion_6_monotonicity(criterion):
    start = time.monotonic()
    small3 = stats_for(uniform_matrix(3, 3), 15).c
    big3 = stats_for(uniform_matrix(3, 4), 12).c
    small4 = stats_for(uniform_matrix(4, 3), 10).c
    big4 = stats_for(uniform_matrix(4, 4), 10).c
    bad = [
        (label, i)
        for label, lo, hi in (("rank-3", small3, big3), ("rank-4", small4, big4))
        for i in range(11)
        if lo[i] > hi[i]
    ]
    elapsed = time.monotonic() - start
    criterion(
        6,
        not bad and elapsed < 60.0,
        f"sphere sizes weakly increase with the edge label through i=10 "
        f"({bad or 'both pairs'}), {elapsed:.2f}s (< 1min)",
    )


def test_criterion_7_geometry_suite(criterion):
    start = time.monotonic()
    problems = []
    skipped = 0

    # C210 and L211 take the walk's ball alone
    ball8, walk8 = get_ball(uniform_matrix(3, 4), 8), walk_ball(uniform_matrix(3, 4), 8)
    for token, verifier, ball in (
        ("P29", verify_projection_collapse, ball8),
        ("C210", verify_exit_ascent, walk8),
        ("L211", verify_not_both_down, walk8),
        ("L24", verify_wall_pair_uniqueness, ball8),
    ):
        report = verifier(ball)
        skipped += report.skipped
        if not report.holds or report.failures:
            problems.append(f"{token}@(4,4,4): {len(report.failures)} violations")

    ball6, walk6 = get_ball(uniform_matrix(4, 3), 6), walk_ball(uniform_matrix(4, 3), 6)
    for token, verifier, ball in (
        ("P29", verify_projection_collapse, ball6),
        ("C210", verify_exit_ascent, walk6),
        ("L24", verify_wall_pair_uniqueness, ball6),
    ):
        report = verifier(ball)
        skipped += report.skipped
        if not report.holds or report.failures:
            problems.append(f"{token}@rank-4: {len(report.failures)} violations")
    with pytest.raises(HypothesisError):
        verify_not_both_down(walk6)  # label 3 is outside the hypothesis

    diagnostic = verify_not_both_down(walk_ball(uniform_matrix(3, 3), 8), gate=False)
    if diagnostic.holds or len(diagnostic.failures) < 1:
        problems.append("diagnostic scan missed the affine counterexample")

    elapsed = time.monotonic() - start
    criterion(
        7,
        not problems and elapsed < 120.0,
        f"geometry scans hold with zero violations ({skipped} skips reported) "
        f"and the affine diagnostic finds {len(diagnostic.failures)} "
        f"counterexamples; {problems or 'clean'}, {elapsed:.2f}s (< 2min)",
    )


def test_criterion_8_determinism(criterion, tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text('{"rank": 3, "uniform": 4}', encoding="utf-8")
    outs = {name: tmp_path / name for name in ("s1", "s2", "g1", "g2")}
    codes = [
        cli.main(["stats", "--matrix", str(matrix), "--out", str(outs["s1"])]),
        cli.main(["stats", "--matrix", str(matrix), "--out", str(outs["s2"])]),
        cli.main(["series", "--matrix", str(matrix), "--out", str(outs["g1"])]),
        cli.main(["series", "--matrix", str(matrix), "--out", str(outs["g2"])]),
    ]
    stats_same = outs["s1"].read_bytes() == outs["s2"].read_bytes()
    series_same = outs["g1"].read_bytes() == outs["g2"].read_bytes()
    criterion(
        8,
        codes == [0, 0, 0, 0] and stats_same and series_same,
        f"consecutive stats and series runs byte-identical "
        f"(stats {len(outs['s1'].read_bytes())}B, "
        f"series {len(outs['g1'].read_bytes())}B)",
    )


def complete_two_spherical_classes(rank, labels):
    """Complete 2-spherical matrices with edge labels in labels, one per relabelling class."""
    edges = list(combinations(range(rank), 2))
    relabellings = [
        [edges.index(tuple(sorted((p[i], p[j])))) for i, j in edges]
        for p in permutations(range(rank))
    ]
    classes = {
        min(tuple(values[k] for k in relabelled) for relabelled in relabellings)
        for values in product(labels, repeat=len(edges))
    }
    return [edge_matrix(rank, edges, values) for values in sorted(classes)]


def edge_matrix(rank, edges, values):
    rows = [[1] * rank for _ in range(rank)]
    for (i, j), label in zip(edges, values):
        rows[i][j] = rows[j][i] = label
    return validate_matrix(rows)


def test_criterion_9_paper_census(criterion):
    """The paper's two claims on every small complete 2-spherical system.

    p(1/(n-1)) is finite for every class, and p(1/(n-2)) is infinite for
    n >= 4.  The universal group (all labels infinite) is the control: its
    series is (1+t)/(1-(n-1)t), which diverges at 1/(n-1), so the
    2-spherical hypothesis cannot be dropped.
    """
    start = time.monotonic()
    problems = []
    sizes = {}
    for rank, labels in ((3, range(3, 9)), (4, range(3, 7)), (5, (3, 4))):
        matrices = complete_two_spherical_classes(rank, labels)
        sizes[rank] = len(matrices)
        for matrix in matrices:
            series = rational_growth_series(matrix)
            if not finiteness_verdict(series, Fraction(1, rank - 1)).finite:
                problems.append(f"{matrix} diverges at 1/{rank - 1}")
            if rank >= 4 and finiteness_verdict(series, Fraction(1, rank - 2)).finite:
                problems.append(f"{matrix} converges at 1/{rank - 2}")
        universal = rational_growth_series(uniform_matrix(rank, INF))
        if (universal.num, universal.den) != ((1, 1), (1, 1 - rank)):
            problems.append(f"universal rank {rank}: series {universal}")
        if finiteness_verdict(universal, Fraction(1, rank - 1)).finite:
            problems.append(f"universal rank {rank} converges at 1/{rank - 1}")
    elapsed = time.monotonic() - start
    criterion(
        9,
        not problems and sizes == {3: 56, 4: 276, 5: 34} and elapsed < 10.0,
        f"p(1/(n-1)) finite on {sum(sizes.values())} complete 2-spherical classes "
        f"(rank 3/4/5: {sizes}), p(1/(n-2)) infinite for n >= 4, universal control "
        f"diverges; {problems or 'no counterexample'}, {elapsed:.2f}s (< 10s)",
    )
