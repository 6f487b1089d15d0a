"""Exact element arithmetic in a Coxeter system via layered Cayley balls.

An element is an index into a ball; outside the ball it is named by its
ShortLex-least reduced word, a plain tuple of generators (ball.index and
ball.word convert).  Two independent routes to that normal form live here
and are never merged:

* oracle_reduce -- exhaustive rewriting closure (braid moves plus deletion
  of equal adjacent letters).  Exponential, used as the ground-truth
  cross-check on short words.
* build_ball -- breadth-first construction of all elements up to a length
  bound, resolving products through already-built layers only.

walk_ball fills the same arrays, without edges, from the ShortLex
automaton's count walk; build_ball is its oracle in the tests.
"""
from __future__ import annotations

from itertools import chain, repeat
from math import inf as INF

from .automaton import ShortLex, _layers, _tally
from .coxmatrix import CoxeterMatrix
from .errors import (
    DEFAULT_CAP,
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
    always means the product has length depth + 1.  Words are not stored:
    each element keeps its parent (the lower neighbour it was created from)
    and the letter leading up from it, and its canonical word is the
    parent's word plus that letter, rebuilt from the chain when asked for.
    `descents[idx]` is the element's right-descent mask, bit s for a
    descent s.

    A ball from walk_ball has no edges until `with_edges` asks for them;
    it keeps instead, in `spheres[i]`, the distinct states of length i of
    its ShortLex `automaton` and, in a parallel list, how many elements
    have each, and in `counts` the (c, d) of `sphere_counts`.  A ball from
    build_ball has all three None.
    """

    def __init__(self, matrix, depth, parent, letter, lengths, edges, offsets, descents,
                 spheres=None, automaton=None):
        self.matrix = matrix
        self.depth = depth
        self.parent = parent
        self.letter = letter
        self.lengths = lengths
        self.edges = edges
        self.descents = descents
        self.spheres = spheres
        self.automaton = automaton
        self.counts = None
        self._offsets = offsets

    # -- lookup ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.lengths)

    def layer_sizes(self) -> list[int]:
        return [
            self._offsets[i + 1] - self._offsets[i] for i in range(self.depth + 1)
        ]

    def layer(self, i: int) -> range:
        return range(self._offsets[i], self._offsets[i + 1])

    def check_index(self, idx: int) -> None:
        """Raise IndexError unless idx names an element of this ball."""
        if not 0 <= idx < len(self.lengths):
            raise IndexError(f"index {idx} outside the ball 0..{len(self.lengths) - 1}")

    def word(self, idx: int) -> tuple[int, ...]:
        """Canonical word of the element idx, read off its parent chain."""
        self.check_index(idx)
        letters = []
        while idx:
            letters.append(self.letter[idx])
            idx = self.parent[idx]
        letters.reverse()
        return tuple(letters)

    def index(self, word) -> int:
        """Index of the element whose canonical word is `word`."""
        word = tuple(word)
        got = self.fold_right(0, word)  # refuses a letter outside the system
        if got is None or self.word(got) != word:
            raise ValueError(f"{word} is not the canonical word of a ball element")
        return got

    def with_edges(self) -> Ball:
        """This ball, its edges first taken from build_ball's if it has none.

        build_ball makes the walk's elements in the walk's order, so its
        edges index this ball; the walk passed the cap with these elements,
        and so does the build.
        """
        if self.edges is None:
            self.edges = build_ball(self.matrix, self.depth, cap=self.size).edges
        return self

    # -- multiplication --------------------------------------------------

    def step(self, idx: int, s: int) -> int:
        """Index of (element idx) * s, or DepthExceededError at the rim."""
        self.check_index(idx)
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
        self.check_index(idx)
        return tuple(s for s in range(self.matrix.rank) if self.descents[idx] >> s & 1)

    def fold_right(self, idx: int, letters) -> int | None:
        """Right-multiply by a word, None as soon as the path leaves the ball."""
        self.check_index(idx)
        cur = idx
        for s in _check_word(letters, self.matrix.rank):
            cur = self.edges[cur][s]
            if cur < 0:
                return None
        return cur

    def fold_inverse(self, idx: int, g: int) -> int | None:
        """Index of (element idx) * g^-1, None as soon as the path leaves the ball.

        Folds the canonical word of g backwards: its letters in reverse are
        the letters met walking g, parent[g], ... down to the identity.
        """
        self.check_index(idx)
        self.check_index(g)
        edges, parent, letter = self.edges, self.parent, self.letter
        cur = idx
        while g:
            cur = edges[cur][letter[g]]
            if cur < 0:
                return None
            g = parent[g]
        return cur

    # -- export -----------------------------------------------------------

    def export_records(self):
        """One dict per element, in layer-then-ShortLex order."""
        digits = [str(s) for s in range(self.matrix.rank)]
        # only the layer below keeps its strings; each is its parent's plus a letter
        below, start = [""], 0
        yield {"i": 0, "w": "", "desc": []}
        for i in range(1, self.depth + 1):
            strings = []
            for idx in self.layer(i):
                w = below[self.parent[idx] - start] + digits[self.letter[idx]]
                strings.append(w)
                yield {"i": i, "w": w, "desc": list(self.descent_indices(idx))}
            below, start = strings, self._offsets[i]


def build_ball(matrix: CoxeterMatrix, depth: int, cap: int = DEFAULT_CAP) -> Ball:
    """Construct every element of length <= depth, layer by layer.

    A product w*s not already recorded is a genuinely new element one layer
    up: each new element registers all of its downward edges at creation,
    found by walking the two descending chains of each rank-2 residue it
    tops, each step down read from the descent mask of an element already
    built.  Words never enter the comparison; identity resolution is pure
    graph walking through layers already built.  No later element adds a
    downward edge to an earlier one, so the descents found at creation are
    final: each element's descent mask is recorded there.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    n = matrix.rank
    # per letter s, for each t with m_st <= depth: the m_st - 1 letters t, s, ...
    # that walk down from w to the gate of w<s,t> when x = ws tops that residue,
    # and the m_st - 1 letters of the opposite chain that climb from the gate to
    # xt; x then has length >= m_st, so a larger label never closes a residue
    # in the ball and is read as inf here
    chains = [[] for _ in range(n)]
    for s, row in enumerate(matrix.entries):
        for t, m in enumerate(row):
            if t != s and m <= depth:
                down = _alternating(t, s, int(m) - 1)
                chains[s].append((t, down, down if m % 2 else _alternating(s, t, int(m) - 1)))
    parent = [-1]
    letter = [-1]
    lengths = [0]
    edges: list[list[int]] = [[-1] * n]
    offsets = [0, 1]
    descents = [0]
    for layer in range(depth):
        for w in range(offsets[layer], offsets[layer + 1]):
            for s in range(n):
                if edges[w][s] != -1:
                    continue
                if len(lengths) >= cap:
                    raise ResourceLimitError(
                        f"element cap {cap} reached at length {layer + 1}"
                    )
                # new element x = w*s, whose other descents t are those where
                # the chain w, wt, wts, ... descends m_st - 1 times
                x = len(lengths)
                row = [-1] * n
                row[s] = w
                edges[w][s] = x
                mask = 1 << s
                for t, down, up in chains[s]:
                    cur = w
                    for a in down:
                        if not descents[cur] >> a & 1:
                            break
                        cur = edges[cur][a]
                    else:
                        # cur is the residue gate; climb the opposite chain to x*t
                        for a in up:
                            cur = edges[cur][a]
                        row[t] = cur
                        edges[cur][t] = x
                        mask |= 1 << t
                # (w, s) is met first, so w is x's lowest-index lower neighbour;
                # layers are in ShortLex order, so w's word plus s is x's least
                # reduced word
                parent.append(w)
                letter.append(s)
                lengths.append(layer + 1)
                edges.append(row)
                descents.append(mask)
        offsets.append(len(lengths))
    return Ball(matrix, depth, parent, letter, lengths, edges, offsets, descents)


def walk_ball(matrix: CoxeterMatrix, depth: int, cap: int = DEFAULT_CAP) -> Ball:
    """The ball's elements, with no edges, from the automaton's count walk.

    The walk `_layers` gives each length with the successors of the states
    of the length before, and raises ResourceLimitError, with its message,
    where build_ball does.  Each element of a length has its state's
    successors as children, in letter order, which is ShortLex order: the
    order of build_ball, whose parents and letters these are too.  So a
    length's arrays come from the states of the length before, one list
    per distinct state, joined with `chain` and `repeat`.  States are kept per
    element for one length at a time; the ball keeps per length their counts, and c and d.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    auto = ShortLex(matrix, depth, cap)
    parent, letter, lengths, offsets, descents = [-1], [-1], [0], [0, 1], [0]
    spheres = [([0], [1])]

    def lay_out():  # each length's arrays in turn, then its states and their counts
        below, masks = [0], {}  # the last length's state per element; masks by state
        for length, (layer, steps) in enumerate(_layers(auto, depth, cap), 1):
            letters = {state: [s for s, _ in successors] for state, successors in steps.items()}
            children = {state: [new for _, new in successors]
                        for state, successors in steps.items()}
            masks.update({state: sum(1 << s for s in auto.descents(state))
                          for state in layer.keys() - masks.keys()})
            parent.extend(chain.from_iterable(
                map(repeat, range(*offsets[-2:]), map(len, map(letters.__getitem__, below)))))
            letter.extend(chain.from_iterable(map(letters.__getitem__, below)))
            below = list(chain.from_iterable(map(children.__getitem__, below)))
            descents.extend(map(masks.__getitem__, below))
            lengths.extend(repeat(length, len(below)))
            offsets.append(len(lengths))
            spheres.append((list(layer), list(layer.values())))
            yield spheres[-1]

    # a finite group's rows of zeros meet the cap here, before its empty lengths are made
    counts = _tally(auto, lay_out(), depth, cap)
    offsets.extend(repeat(len(lengths), depth + 2 - len(offsets)))
    spheres.extend(([], []) for _ in range(depth + 1 - len(spheres)))
    ball = Ball(matrix, depth, parent, letter, lengths, None, offsets, descents, spheres, auto)
    ball.counts = counts
    return ball
