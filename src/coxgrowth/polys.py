"""Dense univariate polynomials over the integers.

Polynomials are tuples of int coefficients in ascending degree order with
no trailing zeros; the zero polynomial is the empty tuple.  Every routine
takes and returns ints, except at the boundary: clear_denominators takes
rational coefficients, and eval_at returns the exact value at a rational.

Exact quotients are integer long divisions by a divisor that divides: a
monic one, or a primitive one by Gauss's lemma.  The gcd and the Sturm
chain run on pseudo-remainders scaled by |lead|^(delta+1) > 0 and made
primitive, so each member is a positive multiple of its rational
counterpart.  The sign of a Sturm member at a/b (b > 0) is the sign of the
homogenised Horner sum sum c_i a^i b^(d-i), an integer.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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


def horner(p: tuple, a: int, b: int) -> int:
    """b^deg(p) * p(a/b), so its sign is the sign of p at a/b when b > 0."""
    acc, bpow = 0, 1
    for c in reversed(p):
        acc = acc * a + c * bpow
        bpow *= b
    return acc


def eval_at(p: tuple, x) -> Fraction:
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    return Fraction(horner(p, a, b), b ** max(degree(p), 0))


def derivative(p: tuple) -> tuple:
    return trim(i * a for i, a in enumerate(p) if i > 0)


def quotient(p: tuple, q: tuple) -> tuple:
    """p / q over Z for a q that divides p: monic, or primitive (Gauss's lemma)."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [0] * max(len(p) - len(q) + 1, 0)
    lead, dq = q[-1], len(q) - 1
    for i in range(len(rem) - 1, dq - 1, -1):
        f, r = divmod(rem[i], lead)
        if r:
            raise ArithmeticError("polynomial division is not exact over Z")
        if f:
            quo[i - dq] = f
            for j, b in enumerate(q):
                rem[i - dq + j] -= f * b
    if any(rem):
        raise ArithmeticError("polynomial division left a remainder")
    return trim(quo)


def pseudo_remainder(p: tuple, q: tuple) -> tuple:
    """Remainder of |lead q|^(deg p - deg q + 1) * p by q, for nonzero q."""
    rem = list(p)
    lead, dq = q[-1], len(q) - 1
    k, sign = abs(lead), 1 if lead > 0 else -1
    for i in range(len(rem) - 1, dq - 1, -1):
        f = rem[i] * sign
        rem = [a * k for a in rem]
        for j, b in enumerate(q):
            rem[i - dq + j] -= f * b
    return trim(rem)


def content(p: tuple) -> int:
    """Positive gcd of the coefficients (0 for the zero polynomial)."""
    return gcd(*p)


def primitive(p: tuple) -> tuple:
    g = content(p)
    if g in (0, 1):
        return p
    return tuple(a // g for a in p)


def gcd_poly(p: tuple, q: tuple) -> tuple:
    """Primitive greatest common divisor with positive leading coefficient."""
    a, b = primitive(trim(p)), primitive(trim(q))
    while b:
        a, b = b, primitive(pseudo_remainder(a, b))
    return neg(a) if a and a[-1] < 0 else a


def clear_denominators(p: tuple) -> tuple:
    """Scale a rational polynomial by a positive integer to get integer coefficients."""
    mult = lcm(*(a.denominator for a in p))
    return tuple(int(a * mult) for a in p)


def square_free_part(p: tuple) -> tuple:
    """p / gcd(p, p'), returned primitive with positive leading coefficient."""
    p = trim(p)
    if degree(p) < 1:
        return p
    out = primitive(quotient(p, gcd_poly(p, derivative(p))))
    return neg(out) if out[-1] < 0 else out


def sturm_chain(p: tuple) -> list[tuple]:
    chain = [trim(p), derivative(p)]
    while chain[-1]:
        r = pseudo_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(neg(primitive(r)))
    return [c for c in chain if c]


def sign_variations(chain: list[tuple], a: int, b: int) -> int:
    """Sign changes along the chain at a/b (b > 0), zeros dropped."""
    signs = [v > 0 for v in (horner(c, a, b) for c in chain) if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))
