"""Exact element arithmetic in a Coxeter system via layered Cayley balls.

An element is an index into a ball; outside the ball it is named by its
ShortLex-least reduced word, a plain tuple of generators (ball.index and
ball.words convert).  Two independent routes to that normal form live here
and are never merged:

* oracle_reduce -- exhaustive rewriting closure (braid moves plus deletion
  of equal adjacent letters).  Exponential, used as the ground-truth
  cross-check on short words.
* build_ball -- breadth-first construction of all elements up to a length
  bound, resolving products through already-built layers only.
"""
from __future__ import annotations

from math import inf as INF

from .coxmatrix import CoxeterMatrix
from .errors import (
    DepthExceededError,
    GeneratorOutOfRangeError,
    OracleBudgetError,
    ResourceLimitError,
)

def _alternating(first: int, second: int, length: int) -> tuple[int, ...]:
    pair = (first, second)
    return tuple(pair[i % 2] for i in range(length))


def _check_word(word, rank: int) -> tuple[int, ...]:
    w = tuple(word)
    for s in w:
        if not isinstance(s, int) or not 0 <= s < rank:
            raise GeneratorOutOfRangeError(f"letter {s!r} outside 0..{rank - 1}")
    return w


def oracle_reduce(word, matrix: CoxeterMatrix, budget: int = 200_000) -> tuple[int, ...]:
    """Canonical form of an arbitrary word by exhaustive rewriting.

    Keeps applying two moves: replace an alternating run st... of length
    m_st by its mirror ts..., and delete a pair of equal adjacent letters.
    A word is reduced once its braid-move closure contains no deletable
    pair, and the closure then holds every reduced word of the element, so
    the ShortLex minimum is just the smallest member.  The closure size is
    capped by `budget` across the whole call.
    """
    cur = _check_word(word, matrix.rank)
    spent = 0
    while True:
        seen = {cur}
        stack = [cur]
        shorter = None
        while stack and shorter is None:
            u = stack.pop()
            for p in range(len(u) - 1):
                if u[p] == u[p + 1]:
                    shorter = u[:p] + u[p + 2:]
                    break
            if shorter is not None:
                break
            for p in range(len(u) - 1):
                s, t = u[p], u[p + 1]
                if s == t:
                    continue
                m = matrix.order(s, t)
                if m == INF or p + m > len(u):
                    continue
                if u[p:p + m] == _alternating(s, t, m):
                    v = u[:p] + _alternating(t, s, m) + u[p + m:]
                    if v not in seen:
                        spent += 1
                        if spent > budget:
                            raise OracleBudgetError(
                                f"rewriting closure exceeded {budget} words"
                            )
                        seen.add(v)
                        stack.append(v)
        if shorter is None:
            return min(seen)
        cur = shorter


class Ball:
    """All elements of length <= depth with their full edge structure.

    Index order is by length, then ShortLex within a layer.  For every
    element all downward edges are stored, and upward edges are stored
    whenever the product still lies in the ball; a missing edge therefore
    always means the product has length depth + 1.
    """

    def __init__(self, matrix, depth, words, lengths, edges, offsets):
        self.matrix = matrix
        self.depth = depth
        self.words = words
        self.lengths = lengths
        self.edges = edges
        self._offsets = offsets
        self._by_word: dict | None = None
        self._inverse: list[int] | None = None

    # -- lookup ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.words)

    def layer_sizes(self) -> list[int]:
        return [
            self._offsets[i + 1] - self._offsets[i] for i in range(self.depth + 1)
        ]

    def layer(self, i: int) -> range:
        return range(self._offsets[i], self._offsets[i + 1])

    def index(self, word) -> int:
        """Index of the element whose canonical word is `word`."""
        if self._by_word is None:
            self._by_word = {word: i for i, word in enumerate(self.words)}
        word = tuple(word)
        try:
            return self._by_word[word]
        except KeyError:
            raise ValueError(f"{word} is not the canonical word of a ball element")

    # -- multiplication --------------------------------------------------

    def step(self, idx: int, s: int) -> int:
        """Index of (element idx) * s, or DepthExceededError at the rim."""
        if not 0 <= s < self.matrix.rank:
            raise GeneratorOutOfRangeError(f"generator {s} outside the system")
        j = self.edges[idx][s]
        if j < 0:
            raise DepthExceededError(
                f"product leaves the ball of depth {self.depth}"
            )
        return j

    def descent_indices(self, idx: int) -> tuple[int, ...]:
        """Generators s with length(w s) < length(w), w = element idx."""
        mine = self.lengths[idx]
        row = self.edges[idx]
        return tuple(
            s for s in range(self.matrix.rank)
            if row[s] >= 0 and self.lengths[row[s]] < mine
        )

    def inverse_index(self, idx: int) -> int:
        """Index of the inverse element (same length, so always in the ball)."""
        if self._inverse is None:
            inv = []
            for word in self.words:
                cur = 0
                for s in reversed(word):
                    cur = self.edges[cur][s]
                inv.append(cur)
            self._inverse = inv
        return self._inverse[idx]

    def fold_right(self, idx: int, letters) -> int | None:
        """Right-multiply by a word, None as soon as the path leaves the ball."""
        cur = idx
        for s in letters:
            cur = self.edges[cur][s]
            if cur < 0:
                return None
        return cur

    # -- export -----------------------------------------------------------

    def export_records(self):
        """One dict per element, in layer-then-ShortLex order."""
        for idx in range(self.size):
            yield {
                "i": self.lengths[idx],
                "w": "".join(map(str, self.words[idx])),
                "desc": list(self.descent_indices(idx)),
            }


def build_ball(matrix: CoxeterMatrix, depth: int, cap: int = 10_000_000) -> Ball:
    """Construct every element of length <= depth, layer by layer.

    A product w*s not already recorded is a genuinely new element one layer
    up: each new element registers all of its downward edges at creation,
    found by walking the two descending chains of each rank-2 residue it
    tops.  Words never enter the comparison; identity resolution is pure
    graph walking through layers already built.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    n = matrix.rank
    # rank-2 orders as ints, None when infinite (no finite chain to walk)
    orders = [
        [None if matrix.order(s, t) == INF else int(matrix.order(s, t)) for t in range(n)]
        for s in range(n)
    ]
    words: list[tuple[int, ...]] = [()]
    lengths = [0]
    edges: list[list[int]] = [[-1] * n]
    offsets = [0, 1]
    for layer in range(depth):
        for w in range(offsets[layer], offsets[layer + 1]):
            for s in range(n):
                if edges[w][s] != -1:
                    continue
                if len(words) >= cap:
                    raise ResourceLimitError(
                        f"element cap {cap} reached at length {layer + 1}"
                    )
                # new element x = w*s; find every other descent t by testing
                # whether the chain w, wt, wts, ... descends m_st - 1 times
                downs = [(w, s)]
                for t in range(n):
                    if t == s or orders[s][t] is None:
                        continue
                    m = orders[s][t]
                    cur, ok = w, True
                    a, b = t, s
                    for _ in range(m - 1):
                        nxt = edges[cur][a]
                        if nxt < 0 or lengths[nxt] > lengths[cur]:
                            ok = False
                            break
                        cur, a, b = nxt, b, a
                    if not ok:
                        continue
                    # cur is the residue gate; climb the opposite chain to x*t
                    a, b = (s, t) if m % 2 == 0 else (t, s)
                    v = cur
                    for _ in range(m - 1):
                        v = edges[v][a]
                        a, b = b, a
                    downs.append((v, t))
                x = len(words)
                # (w, s) is met first, so w is x's lowest-index lower neighbour;
                # layers are in ShortLex order, so this is x's least reduced word
                words.append(words[w] + (s,))
                lengths.append(layer + 1)
                row = [-1] * n
                for v, t in downs:
                    row[t] = v
                    edges[v][t] = x
                edges.append(row)
        offsets.append(len(words))
    return Ball(matrix, depth, words, lengths, edges, offsets)
