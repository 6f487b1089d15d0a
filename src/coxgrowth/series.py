"""Exact growth series: rational normal form, coefficients, convergence.

The growth series of the system is reconstructed from the finite standard
subsystems through Steinberg's alternating sum over spherical subsets J of
(-1)^|J| / W_J(t), which equals the reciprocal growth series evaluated at
1/t.  For an infinite group that is Steinberg's theorem; for a finite one
S itself is spherical, and Solomon's identity (J. Algebra 4, 1966) makes
the sum t^N / W(t), so the same route gives the exponent-product
polynomial.  The sum needs only the signed number of spherical subsets per
exponent multiset, and a subset is spherical exactly when each of its
diagram components is, so those numbers are built from the connected
spherical subsets (spherical_counts), not by listing every subset.  The
sum is assembled over one common denominator, a product of q-integers
[k] = 1 + t + ... + t^(k-1), and reduced once.  Everything downstream
(coefficients, evaluation, root isolation) is exact: integer polynomials,
with Fractions only for values that are fractions.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction

from . import polys
from .coxmatrix import INF, CoxeterMatrix, classify_subset
from .coxmatrix import poincare_polynomial  # noqa: F401  perfbench's tracer wraps this name
from .errors import (
    ClassificationError,
    NegativeCoefficientError,
    RangeEmptyError,
    SingularAtZeroError,
)
from .stats import SphereStats, descent_ratio_floor


class RationalFunction(namedtuple("RationalFunction", "num den")):
    """Quotient of integer polynomials, reduced, with denominator(0) > 0.

    Coefficients ascend and are ints; gcd(num, den) = 1 and the pair has
    content 1.  The normalization makes Taylor expansion at 0 well defined
    and the printed form unique.
    """

    __slots__ = ()

    def __new__(cls, num, den=(1,)):
        num, den = polys.trim(num), polys.trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
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
        return super().__new__(cls, num, den)

    # -- analysis ---------------------------------------------------------

    def evaluate(self, point) -> Fraction:
        """The exact value at a rational point; ZeroDivisionError at a pole."""
        t0 = Fraction(point)
        return polys.eval_at(self.num, t0) / polys.eval_at(self.den, t0)


def taylor_coefficients(f: RationalFunction, count: int) -> list:
    """First count+1 series coefficients of f at 0, exact (ints when integral)."""
    b0 = f.den[0]
    out = []
    for k in range(count + 1):
        acc = f.num[k] if k < len(f.num) else 0
        for j in range(1, min(k, len(f.den) - 1) + 1):
            acc -= f.den[j] * out[k - j]
        q, r = divmod(acc, b0)
        out.append(Fraction(acc, b0) if r else q)
    return out


def _members(mask: int):
    """The generators in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def spherical_counts(matrix: CoxeterMatrix) -> dict:
    """Signed number of spherical subsets per exponent multiset.

    Maps each sorted exponent tuple e to (-1)^len(e) times the number of
    spherical J whose W_J has the exponents e; the empty set counts under ().
    Every J with exponents e has len(e) generators, so the terms of one key
    share its sign and no count is ever 0.

    A subset is spherical exactly when each of its diagram components is,
    and then its exponents are theirs together.  So with v = min S, and N(C)
    every generator whose label with some member of C is not 2 (infinity
    included), the sum G(S) over the spherical subsets of S splits by the
    component C that holds v:
        G(S) = G(S - v) + sum over C of (-1)^|C| [C] x G(S - C - N(C)),
    where C runs over the connected spherical sets that contain v and x joins
    the exponents of C to each key.  Those C grow from {v} one finite-label
    neighbour at a time, since a subset of a spherical set is spherical; each
    is classified once.  G is memoised on the bitmask S; the masks it needs
    are found first, and then evaluated in ascending order, which puts every
    subset before its supersets, so no recursion deepens with the rank.
    """
    gens = matrix.generators()
    near = [sum(1 << u for u in gens if u != v and matrix.order(v, u) != 2) for v in gens]
    linked = [sum(1 << u for u in gens if u != v and 2 < matrix.order(v, u) < INF)
              for v in gens]
    exponents = {}  # connected mask -> exponents of its subsystem, None if infinite

    def connected(v, s):
        """(exponents of C, C | N(C)) per connected spherical C in s holding v."""
        out, level = [], [1 << v]
        while level:
            grown = set()
            for c in level:
                if c not in exponents:
                    exponents[c] = classify_subset(matrix, _members(c)).exponents
                if exponents[c] is None:
                    continue
                cover = edge = c
                for u in _members(c):
                    cover |= near[u]
                    edge |= linked[u]
                out.append((exponents[c], cover))
                grown.update(c | 1 << u for u in _members(edge & s & ~c))
            level = grown
        return out

    full = (1 << matrix.rank) - 1
    terms, todo = {}, [full]
    while todo:
        s = todo.pop()
        if s and s not in terms:
            v = (s & -s).bit_length() - 1
            terms[s] = [((), s & (s - 1))] + [
                (e, s & ~cover) for e, cover in connected(v, s)]
            todo.extend(rest for _, rest in terms[s])
    counts = {0: {(): 1}}
    for s in sorted(terms):
        total = {}
        for e, rest in terms[s]:
            sign = -1 if len(e) % 2 else 1
            for key, n in counts[rest].items():
                if e:
                    key = tuple(sorted(e + key))
                total[key] = total.get(key, 0) + sign * n
        counts[s] = total
    return counts[full]


def _over_q_integer(p: tuple, k: int) -> tuple:
    """p / [k] for a p that [k] divides.

    [k] = (1 - t^k) / (1 - t), so the quotient q has q (1 - t^k) = p (1 - t),
    that is q_i = p_i - p_(i-1) + q_(i-k).
    """
    q = []
    for i in range(len(p) - k + 1):
        q.append(p[i] - (p[i - 1] if i else 0) + (q[i - k] if i >= k else 0))
    return tuple(q)


def rational_growth_series(matrix: CoxeterMatrix) -> RationalFunction:
    """Length generating series of the whole system, as a reduced fraction.

    The alternating sum G(t) over spherical subsets is assembled per
    exponent multiset e from spherical_counts: the subsets with exponents e
    add up to count / W_e(t), where W_e is the product of the q-integers
    [e_i + 1] = 1 + t + ... + t^(e_i).  Raising every [k] to its largest
    multiplicity among the multisets gives one common denominator D, and
    G = sum(count * D / W_e) / D.  Each D / W_e is taken one q-integer at a
    time, from the quotient already taken for the longest prefix of e.
    The series is 1 / G(1/t), realized by reversing the coefficients of that
    numerator and denominator (their degrees match because G tends to 1 at
    infinity, and a common factor cancels from both alike) and reduced once.
    For a finite group S is among the subsets, and Solomon's identity makes
    G(t) = t^N / W(t), so the result is W(t) over 1.
    """
    counts = spherical_counts(matrix)
    power = Counter()
    for e in counts:
        power |= Counter(x + 1 for x in e)
    den = (1,)
    for k in power.elements():
        den = polys.mul(den, (1,) * k)
    num = [0] * len(den)
    quotients = {(): den}  # D / W_p for each prefix p of a multiset
    for e, count in counts.items():
        i = len(e)
        while e[:i] not in quotients:
            i -= 1
        for j in range(i, len(e)):
            quotients[e[:j + 1]] = _over_q_integer(quotients[e[:j]], e[j] + 1)
        for j, a in enumerate(quotients[e]):
            num[j] += count * a
    num = polys.trim(num)
    if polys.degree(num) != polys.degree(den):
        raise ClassificationError(
            "alternating sum should tend to 1 at infinity; degrees differ"
        )
    series = RationalFunction(tuple(reversed(den)), tuple(reversed(num)))
    if taylor_coefficients(series, 0)[0] != 1:
        raise ClassificationError("reconstructed series does not start at 1")
    return series


class ConvergenceVerdict(namedtuple(
        "ConvergenceVerdict", "point finite value pole_interval justification ratio_window",
        defaults=(None,))):
    """Whether the series converges at an exact point in (0, 1).

    finite=True carries the exact value; finite=False carries an interval
    around the smallest positive denominator root rho <= point, or
    (point, point) when that root is the point.  With nonnegative
    coefficients rho is the radius of convergence, so the series diverges
    at the point itself.  ratio_window is a QuotientReport, or None.
    """

    __slots__ = ()

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
    for k, a in enumerate(taylor_coefficients(f, _SAMPLE_DEPTH)):
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
        return ConvergenceVerdict(t0, True, f.evaluate(t0), None, justification)
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


class QuotientReport(namedtuple(
        "QuotientReport", "point i_min i_max ratios mode bound satisfied")):
    """Consecutive-term ratios c_{i+1}*t0/c_i as (i, ratio) pairs, checked against
    the bound of the mode, "convergence" or "divergence"."""

    __slots__ = ()

    @property
    def window(self) -> tuple[Fraction, Fraction]:
        values = [r for _, r in self.ratios]
        return (min(values), max(values))

    def to_dict(self) -> dict:
        lo, hi = self.window if self.ratios else (None, None)
        return {
            "point": str(self.point),
            "range": [self.i_min, self.i_max],
            "mode": self.mode,
            "ratios": [[i, str(r)] for i, r in self.ratios],
            "window": [str(lo), str(hi)] if self.ratios else None,
            "bound": str(self.bound),
            "satisfied": self.satisfied,
        }


def quotient_criterion(stats: SphereStats, point) -> QuotientReport:
    """Ratio test data from enumerated sphere sizes.

    In convergence mode (uniform label m >= 4, rank >= 3) every ratio from
    i_min = 2m on is compared against rho = 1 - (n-2)*k/(n-1)^m with k the
    exact descent ratio floor; in divergence mode (uniform label 3,
    rank >= 3) every ratio from i_min = m+1 on against 1.  Any other
    system raises RangeEmptyError.
    """
    t0 = Fraction(point)
    n, m = stats.n, stats.m
    if m is not None and m >= 4 and n >= 3:
        mode, i_min = "convergence", 2 * m
    elif m == 3 and n >= 3:
        mode, i_min = "divergence", m + 1
    else:
        raise RangeEmptyError("no ratio test applies: it needs rank >= 3 and one label m >= 3")
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
    if mode == "convergence":
        k = descent_ratio_floor(n, m)
        bound = 1 - Fraction(n - 2, (n - 1) ** m) * k
        satisfied = all(r <= bound for _, r in ratios)
    else:
        bound = Fraction(1)
        satisfied = all(r >= bound for _, r in ratios)
    return QuotientReport(
        t0, i_min, ratios[-1][0], tuple(ratios), mode, bound, satisfied
    )


def attach_ratio_window(
    verdict: ConvergenceVerdict, window: QuotientReport
) -> ConvergenceVerdict:
    return verdict._replace(ratio_window=window)
