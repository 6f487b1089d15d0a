"""Exact growth series: rational normal form, coefficients, convergence.

The growth series of the system is reconstructed from the finite standard
subsystems through the alternating sum over spherical subsets J of
(-1)^|J| / W_J(t), which equals the reciprocal growth series evaluated at
1/t whenever the whole group is infinite.  The sum is assembled per finite
type over one common denominator, a product of q-integers
[k] = 1 + t + ... + t^(k-1), and reduced once.  Finite groups short-circuit
to the exponent-product polynomial.  Everything downstream (coefficients,
evaluation, root isolation) is exact: integer polynomials, with Fractions
only for values that are fractions.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from . import polys
from .coxmatrix import (
    CoxeterMatrix,
    classify_subset,
    poincare_polynomial,
    spherical_subsets,
)
from .errors import (
    ClassificationError,
    NegativeCoefficientError,
    RangeEmptyError,
    SingularAtZeroError,
)
from .stats import SphereStats, descent_ratio_floor


@dataclass(frozen=True)
class PoleAt:
    """Returned by evaluation when the point is a pole."""

    point: Fraction


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of integer polynomials, reduced, with denominator(0) > 0.

    Coefficients ascend; gcd(num, den) = 1 and the pair has content 1.  The
    normalization makes Taylor expansion at 0 well defined and the printed
    form unique.  Rational input is scaled to integers first.
    """

    num: tuple
    den: tuple = (1,)

    def __post_init__(self):
        num, den = polys.trim(self.num), polys.trim(self.den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        # one scale for both, so the value of the fraction is kept
        both = polys.clear_denominators(num + den)
        num, den = both[: len(num)], both[len(num) :]
        if not num:
            den = (1,)  # canonical zero
        else:
            g = polys.gcd_poly(num, den)
            num, den = polys.quotient(num, g), polys.quotient(den, g)
            both = polys.primitive(num + den)
            num, den = both[: len(num)], both[len(num) :]
        if den[0] == 0:
            raise SingularAtZeroError("denominator vanishes at 0")
        if den[0] < 0:
            num, den = polys.neg(num), polys.neg(den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- analysis ---------------------------------------------------------

    def evaluate(self, point) -> Fraction | PoleAt:
        t0 = Fraction(point)
        bottom = polys.eval_at(self.den, t0)
        if bottom == 0:
            return PoleAt(t0)
        return polys.eval_at(self.num, t0) / bottom

    def taylor(self, count: int) -> list:
        """First count+1 series coefficients at 0, exact (ints when integral)."""
        b0 = self.den[0]
        out = []
        for k in range(count + 1):
            acc = self.num[k] if k < len(self.num) else 0
            for j in range(1, min(k, len(self.den) - 1) + 1):
                acc -= self.den[j] * out[k - j]
            q, r = divmod(acc, b0)
            out.append(Fraction(acc, b0) if r else q)
        return out


def rational_growth_series(matrix: CoxeterMatrix) -> RationalFunction:
    """Length generating series of the whole system, as a reduced fraction.

    Finite systems return their exponent-product polynomial over 1.  For
    infinite systems the alternating sum G(t) over spherical subsets is
    assembled by type: every subset of one finite type has the type's rank
    as its size, so those terms add up to (-1)^rank * count / W(t).  Each
    W is a product of q-integers [e + 1] = 1 + t + ... + t^e, so raising
    every [k] to its largest multiplicity among the types gives one common
    denominator D, and G is reduced once from sum(sign * D / W) / D.  The
    series is 1 / G(1/t), realized by reversing the coefficients of the
    reduced numerator and denominator (their degrees match because G tends
    to 1 at infinity).
    """
    full = classify_subset(matrix, tuple(matrix.generators()))
    if full.finite:
        return RationalFunction(poincare_polynomial(full))
    counts = Counter(label for _, label in spherical_subsets(matrix))
    power = Counter()
    for label in counts:
        power |= Counter(e + 1 for e in label.exponents)
    den = (1,)
    for k in power.elements():
        den = polys.mul(den, (1,) * k)
    num = ()
    for label, count in counts.items():
        quo = polys.quotient(den, poincare_polynomial(label))  # W is monic
        num = polys.add(num, polys.scale(quo, (-1) ** len(label.exponents) * count))
    acc = RationalFunction(num, den)
    p, q = acc.num, acc.den
    if polys.degree(p) != polys.degree(q):
        raise ClassificationError(
            "alternating sum should tend to 1 at infinity; degrees differ"
        )
    series = RationalFunction(tuple(reversed(q)), tuple(reversed(p)))
    if series.taylor(0)[0] != 1:
        raise ClassificationError("reconstructed series does not start at 1")
    return series


def taylor_coefficients(f: RationalFunction, count: int) -> list:
    return f.taylor(count)


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Whether the series converges at an exact point in (0, 1).

    finite=True carries the exact value; finite=False carries an interval
    around the smallest positive denominator root rho <= point, or
    (point, point) when that root is the point.  With nonnegative
    coefficients rho is the radius of convergence, so the series diverges
    at the point itself.
    """

    point: Fraction
    finite: bool
    value: Fraction | None
    pole_interval: tuple[Fraction, Fraction] | None
    justification: str
    ratio_window: "QuotientReport | None" = None

    @property
    def verdict(self) -> str:
        return "finite" if self.finite else "infinite"

    def to_dict(self) -> dict:
        out = {"point": str(self.point), "verdict": self.verdict,
               "justification": self.justification}
        if self.finite:
            out["value"] = str(self.value)
        else:
            out["pole_interval"] = [str(self.pole_interval[0]), str(self.pole_interval[1])]
        if self.ratio_window is not None:
            out["ratio_window"] = self.ratio_window.to_dict()
        return out


_WIDTH = Fraction(1, 2**64)
_SAMPLE_DEPTH = 64


def finiteness_verdict(f: RationalFunction, point) -> ConvergenceVerdict:
    """Exact convergence decision for a series with nonnegative coefficients.

    Nonnegativity is asserted on the first _SAMPLE_DEPTH coefficients.  The
    decision itself is exact: the denominator either has a real root in
    (0, point] or it does not, settled by sign-variation counts of an
    integer Sturm chain on the square-free part; the reported isolating
    interval is then narrowed below 2**-64 by bisection, which keeps the
    count at the end that does not move (the tolerance affects only the
    report, never the verdict).
    """
    t0 = Fraction(point)
    if not 0 < t0 < 1:
        raise ValueError(f"evaluation point must lie in (0, 1), got {t0}")
    for k, a in enumerate(f.taylor(_SAMPLE_DEPTH)):
        if a < 0:
            raise NegativeCoefficientError(f"coefficient {k} is negative: {a}")
    g = polys.square_free_part(f.den)
    chain = polys.sturm_chain(g)
    justification = (
        "nonnegative coefficients: the smallest positive denominator root "
        "is the radius of convergence, and divergence there propagates to "
        "every point at or beyond it"
    )

    def variations(x: Fraction) -> int:
        return polys.sign_variations(chain, x.numerator, x.denominator)

    # roots in (lo, hi] number v_lo - v_hi; g does not vanish at lo
    v_lo = variations(Fraction(0))
    count = v_lo - variations(t0)
    if count == 0:
        value = f.evaluate(t0)
        assert isinstance(value, Fraction)
        return ConvergenceVerdict(t0, True, value, None, justification)
    if count == 1 and polys.eval_at(g, t0) == 0:
        return ConvergenceVerdict(t0, False, None, (t0, t0), justification)
    lo, hi = Fraction(0), t0
    while hi - lo > _WIDTH:
        mid = (lo + hi) / 2
        v_mid = variations(mid)
        if v_lo > v_mid:
            hi = mid
        else:
            lo, v_lo = mid, v_mid
    return ConvergenceVerdict(t0, False, None, (lo, hi), justification)


@dataclass(frozen=True)
class QuotientReport:
    """Consecutive-term ratios c_{i+1}*t0/c_i with an optional bound check."""

    point: Fraction
    i_min: int
    i_max: int
    ratios: tuple[tuple[int, Fraction], ...]
    mode: str | None  # "convergence", "divergence", or None
    bound: Fraction | None
    satisfied: bool | None

    @property
    def window(self) -> tuple[Fraction, Fraction]:
        values = [r for _, r in self.ratios]
        return (min(values), max(values))

    def to_dict(self) -> dict:
        lo, hi = self.window if self.ratios else (None, None)
        out = {
            "point": str(self.point),
            "range": [self.i_min, self.i_max],
            "mode": self.mode,
            "ratios": [[i, str(r)] for i, r in self.ratios],
            "window": [str(lo), str(hi)] if self.ratios else None,
        }
        if self.bound is not None:
            out["bound"] = str(self.bound)
        if self.satisfied is not None:
            out["satisfied"] = self.satisfied
        return out


def quotient_criterion(
    stats: SphereStats, point, i_min: int | None = None, mode: str | None = "auto"
) -> QuotientReport:
    """Ratio test data from enumerated sphere sizes.

    In convergence mode (uniform label m >= 4) every ratio from i_min on is
    compared against rho = 1 - (n-2)*k/(n-1)^m with k the exact descent
    ratio floor; in divergence mode (uniform label 3, rank >= 3) against 1.
    Default i_min: 2m for convergence, m+1 for divergence.  mode=None skips
    the bound and just reports the ratios.
    """
    t0 = Fraction(point)
    n, m = stats.n, stats.m
    if mode == "auto":
        if m is not None and m >= 4 and n >= 3:
            mode = "convergence"
        elif m == 3 and n >= 3:
            mode = "divergence"
        else:
            mode = None
    if i_min is None:
        if mode == "convergence":
            i_min = 2 * m
        elif mode == "divergence":
            i_min = m + 1
        else:
            raise RangeEmptyError("i_min is required when no mode applies")
    if stats.depth < i_min + 2:
        raise RangeEmptyError(
            f"need depth >= {i_min + 2} for ratios from {i_min}, have {stats.depth}"
        )
    ratios = []
    for i in range(i_min, stats.depth):
        if stats.c[i] == 0 or stats.c[i + 1] == 0:
            break
        ratios.append((i, Fraction(stats.c[i + 1], stats.c[i]) * t0))
    if not ratios:
        raise RangeEmptyError(f"spheres are empty from index {i_min}")
    bound = None
    satisfied = None
    if mode == "convergence":
        k = descent_ratio_floor(n, m)
        bound = 1 - Fraction(n - 2, (n - 1) ** m) * k
        satisfied = all(r <= bound for _, r in ratios)
    elif mode == "divergence":
        bound = Fraction(1)
        satisfied = all(r >= bound for _, r in ratios)
    return QuotientReport(
        t0, i_min, ratios[-1][0], tuple(ratios), mode, bound, satisfied
    )


def attach_ratio_window(
    verdict: ConvergenceVerdict, window: QuotientReport
) -> ConvergenceVerdict:
    return replace(verdict, ratio_window=window)
