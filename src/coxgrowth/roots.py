"""Roots of the geometric representation over the cyclotomic integers Z[zeta_N].

A wall of the Coxeter complex is named exactly by its root up to sign;
the arithmetic is integer only, so two walls are equal exactly when their
keys are.  Only L24 loads this module.
"""
from __future__ import annotations

import sys
from array import array
from itertools import compress
from math import inf as INF
from operator import neg

from .coxmatrix import cyclotomic_ring, reflection_rows


class Roots:
    """The geometric representation over Z[zeta_N], in integers only.

    N is twice the lcm of the labels above 3, from `cyclotomic_ring`, so
    zeta^(N/2) = -1 and the arithmetic runs in Z[x]/(x^(N/2) + 1), where
    multiplication by c_st = -2B(alpha_s, alpha_t) = zeta^a + zeta^-a
    (a = N/2m_st) is two shifts that negate what wraps around; c_st is 1
    for m_st = 3, 0 for 2 and 2 for inf.  A vector has coefficient e of
    coordinate j at digit e * rank + j, and is packed into one int as the
    sum of its digits times 2^(width * index), each digit a signed int of
    absolute value below 2^(width - 1).  Sums, differences and negations of
    vectors are then single int operations, and x^a of a whole vector is
    two splits and shifts.  The reflection s maps alpha_s to -alpha_s and
    alpha_j to alpha_j + c_sj alpha_s, so `images` takes an element's images
    of the simple roots from its parent's.  Only `key` maps a root into
    Z[zeta_N] itself, to its one form in an integer basis.

    The width holds every coefficient L24 forms on a ball whose longest
    element has length `longest` = L.  A reflection step adds c_sj times
    one coordinate to another, and c_sj has at most two terms of
    coefficient +-1 or one of 2, so it at most triples the largest
    coefficient: an element of length l has images of the simple roots
    with coefficients at most 3^l.  The walls of a residue g<s,t> follow
    gamma_(k+1) = c_st gamma_k - gamma_(k-1), which at most triples the
    largest coefficient again, from gamma_(-1) = -g alpha_t and gamma_0 =
    g alpha_s; the residue's top chamber has length l(g) + m_st <= L, so
    each gamma_k, k < m_st, stays within 3^(l(g) + k) <= 3^L.  A width w
    with 3^L <= 2^(w - 1) - 1 therefore keeps every digit apart from its
    neighbours.  It is found without forming 3^L: 1585/1000 > log2(3).
    A cell of `key` sums at most 2^k digits (`cyclotomic_ring`, k the odd
    prime powers of N), so w has k bits more, and a key packs its cells in
    fields of the same width.
    """

    def __init__(self, matrix, longest: int):
        n = matrix.rank
        big, phi, odd, self._cells = cyclotomic_ring(matrix)
        self.big = big
        self.rank = n
        self.reflection = reflection_rows(matrix)
        count = n * big // 2
        # bytes per digit: the bits of 3^longest, a sign bit and one to spare,
        # one per odd prime power of N for `key`, and 1, 2, 4 or 8 bytes where
        # that is enough, which memoryview.cast and array read
        size = ((longest * 1585 + 999) // 1000 + 2 + odd + 7) // 8
        if size <= 8:
            size = 1 << (size - 1).bit_length()
        self.width = 8 * size
        self._size = size
        self._count = count
        # the fields are written little-endian; memoryview.cast reads native order
        little = sys.byteorder == "little"
        self._format = {1: "b", 2: "h", 4: "i", 8: "q"}.get(size) if little else None
        # 2^(width - 1) in every digit, built as bytes: a sum of count shifted
        # ints costs count^2 digit copies
        self._bias = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
        # per label m above 3: x^a moves a digit a * rank places; low-part
        # masks for a split after a * rank and after count - a * rank digits
        self._shifts = {}
        for m in {m for row in self.reflection for _, m in row if 3 < m < INF}:
            up = big // (2 * int(m)) * n * self.width
            down = count * self.width - up
            self._shifts[m] = (up, down, 1 << (up - 1), (1 << up) - 1,
                               1 << (down - 1), (1 << down) - 1)
        # with N a power of 2 the digits are the cells, and `key` needs none of this
        self._reduced = n * phi if odd else None
        self._rows = {}  # per digit, its + and - cells in the key, as `key` meets it

    def unpack(self, root: int) -> list[int]:
        """The digits of a packed vector, each below 2^(width - 1) in size."""
        size = self._size
        raw = ((root + self._bias) ^ self._bias).to_bytes(self._count * size, "little")
        if self._format:
            return memoryview(raw).cast(self._format).tolist()
        return [int.from_bytes(raw[i:i + size], "little", signed=True)
                for i in range(0, len(raw), size)]

    def times(self, m, root: int) -> int:
        """c_st root for the label m = m_st and a packed vector."""
        if m == INF:
            return root << 1
        if m == 3:
            return root
        if m == 2:
            return 0
        # root = low + high 2^down with |low| < 2^(down - 1), so x^a root =
        # low 2^up - high, the top digits wrapping round negated; split at up
        # likewise, root = low' + high' 2^up, and x^-a root = high' - low' 2^down
        up, down, up_half, up_mask, down_half, down_mask = self._shifts[m]
        top = root + down_half
        bottom = root + up_half
        return ((((top & down_mask) - down_half) << up) - (top >> down)
                + (bottom >> up) - (((bottom & up_mask) - up_half) << down))

    def images(self, ball):
        """A function g -> [g alpha_x for each letter x], packed, for g in the ball.

        It keeps the images of the prefixes of the last element asked for,
        one list per length: g = p s gives g alpha_s = -p alpha_s and
        g alpha_j = p alpha_j + c_sj p alpha_s, so a call pops back to the
        longest prefix it shares with the last one and steps once for each
        letter after it.  Elements asked for in ShortLex order share long
        prefixes.  The lists returned are shared: do not change them.
        """
        unit = [1 << x * self.width for x in range(self.rank)]
        chain, stack = [0], [unit]  # the prefixes of the last element, by length
        parent, letter, lengths = ball.parent, ball.letter, ball.lengths
        times, reflection = self.times, self.reflection

        def at(g: int) -> list[int]:
            path, k = [], lengths[g]
            while k >= len(chain) or chain[k] != g:
                path.append(g)
                g, k = parent[g], k - 1
            del chain[k + 1:], stack[k + 1:]
            for g in reversed(path):
                s = letter[g]
                now = stack[-1][:]
                root = now[s]
                now[s] = -root
                for j, m in reflection[s]:
                    now[j] += times(m, root)
                chain.append(g)
                stack.append(now)
            return stack[-1]

        return at

    def key(self, root: int) -> int:
        """The root up to sign, as one int: its rank * phi(N) coefficients in the
        basis of `cyclotomic_ring`, the first nonzero made positive, packed in
        fields of the width.  With N a power of 2 they are its digits."""
        if self._reduced is None:
            return abs(root)
        v = self.unpack(root)
        flat, n, rows = [0] * self._reduced, self.rank, self._rows
        for i in compress(range(len(v)), v):
            row = rows.get(i)
            if row is None:
                e, j = divmod(i, n)
                cells = self._cells(e)
                row = rows[i] = (tuple(c * n + j for c, sign in cells if sign > 0),
                                 tuple(c * n + j for c, sign in cells if sign < 0))
            a = v[i]
            for t in row[0]:
                flat[t] += a
            for t in row[1]:
                flat[t] -= a
        if next(filter(None, flat), 0) < 0:
            flat = list(map(neg, flat))
        if self._format:
            raw = array(self._format, flat).tobytes()
        else:
            raw = b"".join(a.to_bytes(self._size, "little", signed=True) for a in flat)
        return int.from_bytes(raw, "little")
