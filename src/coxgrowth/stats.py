"""Sphere statistics and exact counting identities on them.

For a ball of depth N the sphere count c_i is the number of elements of
length i and d_i counts those with exactly one right descent.  All
verifiers compare exact integers (or Fractions) and report both sides of
every instance.  Identities that need a uniform edge label m assume every
off-diagonal order equals m; hypotheses are checked up front and raise
HypothesisError subclasses unless gate=False, which runs the arithmetic
anyway for diagnostic use.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .ball import Ball
from .coxmatrix import CoxeterMatrix, diagram_properties, require_complete_two_spherical
from .errors import (
    LabelTooSmallError,
    NotUniformError,
    RangeEmptyError,
    RankTooSmallError,
)
from .report import Comparison, VerificationReport


@dataclass(frozen=True)
class SphereStats:
    """Sphere and unique-descent counts of one ball."""

    matrix: CoxeterMatrix
    c: tuple[int, ...]
    d: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.matrix.rank

    @cached_property
    def m(self) -> int | None:
        return diagram_properties(self.matrix).uniform_label

    @property
    def depth(self) -> int:
        return len(self.c) - 1


def compute_stats(ball: Ball) -> SphereStats:
    c = ball.layer_sizes()
    d = []
    for i in range(ball.depth + 1):
        d.append(
            sum(1 for idx in ball.layer(i) if len(ball.descent_indices(idx)) == 1)
        )
    return SphereStats(ball.matrix, tuple(c), tuple(d))


def _need_uniform(stats: SphereStats, min_m: int, min_n: int, gate: bool) -> tuple[int, int]:
    n, m = stats.n, stats.m
    if gate:
        if m is None:
            raise NotUniformError("identity needs one uniform edge label")
        if m < min_m:
            raise LabelTooSmallError(f"identity needs uniform label >= {min_m}, got {m}")
        if n < min_n:
            raise RankTooSmallError(f"identity needs rank >= {min_n}, got {n}")
    if m is None:
        raise NotUniformError("no uniform edge label, nothing to compute")
    return n, m


def _span(low: int, high: int, what: str) -> range:
    if low > high:
        raise RangeEmptyError(f"{what}: empty index range {low}..{high}")
    return range(low, high + 1)


def verify_two_descent_recursion(stats: SphereStats, gate: bool = True) -> VerificationReport:
    """c_i - d_i == C(n-2,2) * c_{i-m} + (n-2) * d_{i-m} for m < i <= N.

    The left side counts elements with two right descents; each of those
    tops a unique rank-2 residue whose gate sits m levels down, and the
    right side is the census of gates weighted by how many residues they
    admit.
    """
    n, m = _need_uniform(stats, 3, 3, gate)
    N = stats.depth
    checks = []
    for i in _span(m + 1, N, "two-descent recursion"):
        lhs = stats.c[i] - stats.d[i]
        rhs = comb(n - 2, 2) * stats.c[i - m] + (n - 2) * stats.d[i - m]
        checks.append(Comparison({"i": i}, lhs, rhs, "==", lhs == rhs))
    return VerificationReport("L32", m + 1, N, tuple(checks), len(checks))


def verify_up_edge_balance(stats: SphereStats, gate: bool = True) -> VerificationReport:
    """2*c_{i+1} - d_{i+1} == (n-2)*c_i + d_i for m < i <= N-1.

    Both sides count the ascending edges between spheres i and i+1: from
    above, every element has n minus |descents| ascents below it; from
    below, n minus |descents| ascents above it.
    """
    n, m = _need_uniform(stats, 3, 3, gate)
    N = stats.depth
    checks = []
    for i in _span(m + 1, N - 1, "up-edge balance"):
        lhs = 2 * stats.c[i + 1] - stats.d[i + 1]
        rhs = (n - 2) * stats.c[i] + stats.d[i]
        checks.append(Comparison({"i": i}, lhs, rhs, "==", lhs == rhs))
    return VerificationReport("L33", m + 1, N - 1, tuple(checks), len(checks))


def verify_growth_upper(stats: SphereStats, gate: bool = True) -> VerificationReport:
    """c_{i+1} <= (n-1)*c_i - (n-2)*d_{i-m+1} <= (n-1)*c_i for m < i <= N-1."""
    n, m = _need_uniform(stats, 3, 3, gate)
    N = stats.depth
    checks = []
    for i in _span(m + 1, N - 1, "growth upper bound"):
        mid = (n - 1) * stats.c[i] - (n - 2) * stats.d[i - m + 1]
        hi = (n - 1) * stats.c[i]
        checks.append(
            Comparison({"i": i, "part": "refined"}, stats.c[i + 1], mid, "<=", stats.c[i + 1] <= mid)
        )
        checks.append(Comparison({"i": i, "part": "coarse"}, mid, hi, "<=", mid <= hi))
    return VerificationReport("L34", m + 1, N - 1, tuple(checks), len(checks))


def verify_growth_lower(stats: SphereStats, gate: bool = True) -> VerificationReport:
    """(n-2)*c_i <= c_{i+1} and (n-2)*d_i <= d_{i+1} for m < i <= N-1, m > 3."""
    n, m = _need_uniform(stats, 4, 3, gate)
    N = stats.depth
    checks = []
    for i in _span(m + 1, N - 1, "growth lower bound"):
        for seq_name, seq in (("c", stats.c), ("d", stats.d)):
            lhs = (n - 2) * seq[i]
            rhs = seq[i + 1]
            checks.append(
                Comparison({"i": i, "seq": seq_name}, lhs, rhs, "<=", lhs <= rhs)
            )
    return VerificationReport("L35", m + 1, N - 1, tuple(checks), len(checks))


def verify_descent_sum_lower(stats: SphereStats, gate: bool = True) -> VerificationReport:
    """(n-2)*c_i <= d_i + d_{i+1} for 0 <= i <= N-1.

    Needs rank >= 4 and every pairwise order finite and >= 3; holds from
    the very bottom of the ball, unlike the uniform-label identities.
    """
    n = stats.n
    if gate:
        if n < 4:
            raise RankTooSmallError(f"needs rank >= 4, got {n}")
        require_complete_two_spherical(stats.matrix)
    N = stats.depth
    checks = []
    for i in _span(0, N - 1, "descent sum lower bound"):
        lhs = (n - 2) * stats.c[i]
        rhs = stats.d[i] + stats.d[i + 1]
        checks.append(Comparison({"i": i}, lhs, rhs, "<=", lhs <= rhs))
    return VerificationReport("L45", 0, N - 1, tuple(checks), len(checks))


def descent_ratio_floor(n: int, m: int) -> Fraction:
    """Exact lower bound k with d_i >= k * c_i beyond level m (uniform label).

    k = (1 - 1/(2*(n-2)^(m-2))) / (1/(n-2)^(m-1) + 1); k = 1/4 at (n,m) =
    (3,4) and 7/9 at (4,4).
    """
    if n < 3:
        raise RankTooSmallError(f"needs rank >= 3, got {n}")
    if m < 4:
        raise LabelTooSmallError(f"needs uniform label >= 4, got {m}")
    top = 1 - Fraction(1, 2 * (n - 2) ** (m - 2))
    bottom = Fraction(1, (n - 2) ** (m - 1)) + 1
    return top / bottom


def verify_descent_ratio(stats: SphereStats, k: Fraction, gate: bool = True) -> VerificationReport:
    """d_i >= k * c_i for m < i <= N, exact rational comparison."""
    n, m = _need_uniform(stats, 4, 3, gate)
    N = stats.depth
    k = Fraction(k)
    checks = []
    for i in _span(m + 1, N, "descent ratio"):
        lhs = Fraction(stats.d[i])
        rhs = k * stats.c[i]
        checks.append(Comparison({"i": i}, lhs, rhs, ">=", lhs >= rhs))
    return VerificationReport("k-ratio", m + 1, N, tuple(checks), len(checks))
