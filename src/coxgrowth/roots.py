"""Roots of the geometric representation over the cyclotomic integers Z[zeta_N].

A wall of the Coxeter complex is named exactly by its root up to sign;
the arithmetic is integer only, so two walls are equal exactly when their
rendered keys are.  Only L24 loads this module.
"""
from __future__ import annotations

from math import inf as INF
from operator import add, itemgetter, mul, neg, sub

from .ball import Ball
from .coxmatrix import cyclotomic_ring, reflection_rows


class Roots:
    """The geometric representation over Z[zeta_N], in integers only.

    N is twice the lcm of the labels above 3, from `cyclotomic_ring`, so
    zeta^(N/2) = -1 and the arithmetic runs in Z[x]/(x^(N/2) + 1), where
    multiplication by c_st = -2B(alpha_s, alpha_t) = zeta^a + zeta^-a
    (a = N/2m_st) is two shifts that negate what wraps around; c_st is 1
    for m_st = 3, 0 for 2 and 2 for inf.  A vector is one flat list with
    coefficient e of coordinate j at e * rank + j, so a shift of the whole
    vector is one slice.  The reflection s maps alpha_s to -alpha_s and
    alpha_j to alpha_j + c_sj alpha_s, so `images` takes an element's images
    of the simple roots from its parent's.  Only `key` maps a root into
    Z[zeta_N] itself, to its one form in an integer basis.
    """

    def __init__(self, matrix):
        n = matrix.rank
        big, two, odd = cyclotomic_ring(matrix)
        self.big = big
        self.rank = n
        self.reflection = reflection_rows(matrix)
        # Z[x]/(x^(N/2) + 1) is Z[y]/(y^h + 1) (2h the power of 2 in N) times
        # Z[x]/(x^q - 1) for each odd prime power q || N: x^e goes to
        # +-y^(e mod h) times digit e mod q on the axis of q (the CRT), with
        # - when e mod 2h >= h.  Each odd axis in turn is brought outermost
        # by one permutation; then its Phi_q = sum of y^(v q/p) over v < p
        # drops the top chunk of q/p digits into the p - 1 below it.  What is
        # left is the integer basis of Z[zeta_N] made of the products of the
        # axes' power bases.
        h = two // 2
        cells = [(e % h, *(e % q for _, q in odd), j)
                 for e in range(big // 2) for j in range(n)]
        signs = [-1 if e % two >= h else 1 for e in range(big // 2) for _ in range(n)]
        self._signs = signs if -1 in signs else None
        self._stages = []
        for axis, (p, q) in enumerate(odd, 1):
            order = sorted(range(len(cells)), key=lambda c: (cells[c][axis], cells[c]))
            chunk = len(cells) // p
            self._stages.append((itemgetter(*order), p, chunk))
            cells = [cells[c] for c in order[:(p - 1) * chunk]]

    def times(self, m, w: list[int]) -> list[int]:
        """c_st w for the label m = m_st and a whole vector w.  May return w itself."""
        if m == INF:
            return list(map(add, w, w))
        if m == 3:
            return w
        if m == 2:
            return [0] * len(w)
        # x^a moves each coefficient a * rank places in the vector
        a = self.big // (2 * int(m)) * self.rank
        return list(map(add, list(map(neg, w[-a:])) + w[:-a], w[a:] + list(map(neg, w[:a]))))

    def images(self, ball: Ball):
        """A function g -> [g alpha_x for each letter x], for g in the ball.

        It keeps the images of the prefixes of the last element asked for,
        one list per length: g = p s gives g alpha_s = -p alpha_s and
        g alpha_j = p alpha_j + c_sj p alpha_s, so a call pops back to the
        longest prefix it shares with the last one and steps once for each
        letter after it.  Elements asked for in ShortLex order share long
        prefixes.  The lists returned are shared: do not change them.
        """
        n, half = self.rank, self.big // 2
        unit = []
        for x in range(n):
            v = [0] * (n * half)
            v[x] = 1
            unit.append(v)
        chain, stack = [0], [unit]  # the prefixes of the last element, by length
        parent, letter, lengths = ball.parent, ball.letter, ball.lengths

        def at(g: int) -> list[list[int]]:
            path, k = [], lengths[g]
            while k >= len(chain) or chain[k] != g:
                path.append(g)
                g, k = parent[g], k - 1
            del chain[k + 1:], stack[k + 1:]
            for g in reversed(path):
                s = letter[g]
                below = stack[-1]
                now = list(below)
                now[s] = list(map(neg, below[s]))
                for j, m in self.reflection[s]:
                    now[j] = list(map(add, below[j], self.times(m, below[s])))
                chain.append(g)
                stack.append(now)
            return stack[-1]

        return at

    def reduce(self, v: list[int]) -> list[int]:
        """The coefficients of v's image in Z[zeta_N]^rank, in the product basis."""
        if self._signs:
            v = list(map(mul, v, self._signs))
        for perm, p, chunk in self._stages:
            v = perm(v)
            top = v[(p - 1) * chunk:]
            out = []
            for start in range(0, (p - 1) * chunk, chunk):
                out += map(sub, v[start:start + chunk], top)
            v = out
        return v

    def key(self, root: list[int]) -> str:
        """The root up to sign, rendered with its first nonzero coefficient positive."""
        flat = self.reduce(root)
        for a in flat:
            if a:
                break
        return str(flat) if a > 0 else str(list(map(neg, flat)))
