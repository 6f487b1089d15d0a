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

from collections import namedtuple
from fractions import Fraction
from math import comb
from operator import eq, ge, le

from .coxmatrix import diagram_properties, require_complete_two_spherical
from .errors import (
    LabelTooSmallError,
    NotUniformError,
    RangeEmptyError,
    RankTooSmallError,
)
from .report import Comparison, VerificationReport


class SphereStats(namedtuple("SphereStats", "matrix c d")):
    """Sphere and unique-descent counts of one ball, as tuples c and d."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.matrix.rank

    @property
    def m(self) -> int | None:
        return diagram_properties(self.matrix).uniform_label

    @property
    def depth(self) -> int:
        return len(self.c) - 1


def compute_stats(ball) -> SphereStats:
    """c_i from a Ball's layer sizes, d_i from its descent masks with one bit set: the
    ball-side oracle of automaton.sphere_counts, which stats, series and verify count with."""
    d = tuple(list(map(int.bit_count, ball.descents[r.start:r.stop])).count(1)
              for r in map(ball.layer, range(ball.depth + 1)))
    return SphereStats(ball.matrix, tuple(ball.layer_sizes()), d)


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


_HOLDS = {"==": eq, "<=": le, ">=": ge}


def _counted(name: str, what: str, low: int, high: int, rows) -> VerificationReport:
    """The report of a counting identity: rows(i) lists its (where, lhs, relation,
    rhs) instances at i, for low <= i <= high, and every one is recorded."""
    if low > high:
        raise RangeEmptyError(f"{what}: empty index range {low}..{high}")
    checks = tuple(Comparison(where, lhs, rhs, rel, _HOLDS[rel](lhs, rhs))
                   for i in range(low, high + 1) for where, lhs, rel, rhs in rows(i))
    return VerificationReport(name, low, high, checks, len(checks))


def verify_two_descent_recursion(stats: SphereStats, gate: bool = True) -> VerificationReport:
    """c_i - d_i == C(n-2,2) * c_{i-m} + (n-2) * d_{i-m} for m < i <= N.

    The left side counts elements with two right descents; each of those
    tops a unique rank-2 residue whose gate sits m levels down, and the
    right side is the census of gates weighted by how many residues they
    admit.
    """
    n, m = _need_uniform(stats, 3, 3, gate)
    c, d = stats.c, stats.d
    return _counted("L32", "two-descent recursion", m + 1, stats.depth, lambda i: [
        ({"i": i}, c[i] - d[i], "==", comb(n - 2, 2) * c[i - m] + (n - 2) * d[i - m])])


def verify_up_edge_balance(stats: SphereStats, gate: bool = True) -> VerificationReport:
    """2*c_{i+1} - d_{i+1} == (n-2)*c_i + d_i for m < i <= N-1.

    Both sides count the ascending edges between spheres i and i+1: from
    above, every element has n minus |descents| ascents below it; from
    below, n minus |descents| ascents above it.
    """
    n, m = _need_uniform(stats, 3, 3, gate)
    c, d = stats.c, stats.d
    return _counted("L33", "up-edge balance", m + 1, stats.depth - 1, lambda i: [
        ({"i": i}, 2 * c[i + 1] - d[i + 1], "==", (n - 2) * c[i] + d[i])])


def verify_growth_upper(stats: SphereStats, gate: bool = True) -> VerificationReport:
    """c_{i+1} <= (n-1)*c_i - (n-2)*d_{i-m+1} <= (n-1)*c_i for m < i <= N-1."""
    n, m = _need_uniform(stats, 3, 3, gate)
    c, d = stats.c, stats.d

    def rows(i):
        mid = (n - 1) * c[i] - (n - 2) * d[i - m + 1]
        return [({"i": i, "part": "refined"}, c[i + 1], "<=", mid),
                ({"i": i, "part": "coarse"}, mid, "<=", (n - 1) * c[i])]

    return _counted("L34", "growth upper bound", m + 1, stats.depth - 1, rows)


def verify_growth_lower(stats: SphereStats, gate: bool = True) -> VerificationReport:
    """(n-2)*c_i <= c_{i+1} and (n-2)*d_i <= d_{i+1} for m < i <= N-1, m > 3."""
    n, m = _need_uniform(stats, 4, 3, gate)
    seqs = (("c", stats.c), ("d", stats.d))
    return _counted("L35", "growth lower bound", m + 1, stats.depth - 1, lambda i: [
        ({"i": i, "seq": name}, (n - 2) * seq[i], "<=", seq[i + 1]) for name, seq in seqs])


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
    c, d = stats.c, stats.d
    return _counted("L45", "descent sum lower bound", 0, stats.depth - 1, lambda i: [
        ({"i": i}, (n - 2) * c[i], "<=", d[i] + d[i + 1])])


def descent_ratio_floor(n: int, m: int | None) -> Fraction:
    """Exact lower bound k with d_i >= k * c_i beyond level m (uniform label).

    k = (1 - 1/(2*(n-2)^(m-2))) / (1/(n-2)^(m-1) + 1); k = 1/4 at (n,m) =
    (3,4) and 7/9 at (4,4).  m is None when the labels are not uniform.
    """
    if m is None:
        raise NotUniformError("descent ratio floor needs one uniform edge label")
    if n < 3:
        raise RankTooSmallError(f"needs rank >= 3, got {n}")
    if m < 4:
        raise LabelTooSmallError(f"needs uniform label >= 4, got {m}")
    top = 1 - Fraction(1, 2 * (n - 2) ** (m - 2))
    bottom = Fraction(1, (n - 2) ** (m - 1)) + 1
    return top / bottom


def verify_descent_ratio(stats: SphereStats, k: Fraction, gate: bool = True) -> VerificationReport:
    """d_i >= k * c_i for m < i <= N, exact rational comparison."""
    _, m = _need_uniform(stats, 4, 3, gate)
    k, c, d = Fraction(k), stats.c, stats.d
    return _counted("k-ratio", "descent ratio", m + 1, stats.depth, lambda i: [
        ({"i": i}, Fraction(d[i]), ">=", k * c[i])])
