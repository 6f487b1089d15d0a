"""Dense univariate polynomial helpers over exact coefficients.

Polynomials are tuples of coefficients in ascending degree order with no
trailing zeros; the zero polynomial is the empty tuple.  Coefficients are
ints or Fractions, and every routine here is exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd


def trim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: tuple) -> int:
    # degree of the zero polynomial is -1 by convention
    return len(p) - 1


def add(p: tuple, q: tuple) -> tuple:
    n = max(len(p), len(q))
    return trim(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def neg(p: tuple) -> tuple:
    return tuple(-a for a in p)


def mul(p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def scale(p: tuple, k) -> tuple:
    if k == 0:
        return ()
    return tuple(a * k for a in p)


def eval_at(p: tuple, x: Fraction):
    acc = Fraction(0)
    for a in reversed(p):
        acc = acc * x + a
    return acc


def derivative(p: tuple) -> tuple:
    return trim(i * a for i, a in enumerate(p) if i > 0)


def divmod_exact(p: tuple, q: tuple) -> tuple[tuple, tuple]:
    """Quotient and remainder over the rationals; q must be nonzero."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(a) for a in p]
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    lead = Fraction(q[-1])
    dq = len(q) - 1
    for i in range(len(rem) - 1, dq - 1, -1):
        if rem[i] == 0:
            continue
        f = rem[i] / lead
        quo[i - dq] = f
        for j, b in enumerate(q):
            rem[i - dq + j] -= f * b
    return trim(quo), trim(rem)


def gcd_poly(p: tuple, q: tuple) -> tuple:
    """Monic greatest common divisor over the rationals."""
    a = tuple(Fraction(x) for x in trim(p))
    b = tuple(Fraction(x) for x in trim(q))
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, r
    if not a:
        return ()
    lead = a[-1]
    return tuple(x / lead for x in a)


def content(p: tuple) -> int:
    """Positive gcd of the integer coefficients (0 for the zero polynomial)."""
    g = 0
    for a in p:
        g = gcd(g, int(a))
    return g


def primitive(p: tuple) -> tuple:
    g = content(p)
    if g in (0, 1):
        return tuple(int(a) for a in p)
    return tuple(int(a) // g for a in p)


def clear_denominators(p: tuple) -> tuple:
    """Scale a rational polynomial by a positive integer to get integer coefficients."""
    mult = 1
    for a in p:
        d = Fraction(a).denominator
        mult = mult * d // gcd(mult, d)
    return tuple(int(Fraction(a) * mult) for a in p)


def square_free_part(p: tuple) -> tuple:
    """p / gcd(p, p'), returned primitive with positive leading coefficient."""
    p = trim(p)
    if degree(p) < 1:
        return p
    g = gcd_poly(p, derivative(p))
    quo, rem = divmod_exact(p, g)
    if rem:
        raise ArithmeticError("square-free division left a remainder")
    out = primitive(clear_denominators(quo))
    if out and out[-1] < 0:
        out = neg(out)
    return out


def sturm_chain(p: tuple) -> list[tuple]:
    chain = [trim(p), derivative(p)]
    while chain[-1]:
        _, r = divmod_exact(chain[-2], chain[-1])
        if not r:
            break
        chain.append(neg(r))
    return [c for c in chain if c]


def sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_halfopen(chain: list[tuple], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b] for a square-free polynomial.

    Precondition: the polynomial does not vanish at a.
    """
    va = sign_variations(eval_at(c, a) for c in chain)
    vb = sign_variations(eval_at(c, b) for c in chain)
    return va - vb
