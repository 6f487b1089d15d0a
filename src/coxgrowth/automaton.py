"""Small roots and the ShortLex automaton: sphere counts and the ball export without a ball.

Brink and Howlett (Math. Ann. 296, 1993; see also Casselman, Invent. Math.
116, 1994, and Bjorner-Brenti ch. 4) show that the small roots E are
finite.  E is the least set that holds the simple roots and holds s beta
whenever it holds beta and -1 < B(alpha_s, beta) < 0.  For a word w read
left to right the automaton keeps two subsets of E:

* D(ws) = ({alpha_s} u s D(w)) n E, so the right descents of w are the
  simple roots in D(w);
* L(ws) = ({alpha_s} u s L(w) u {s alpha_t : t < s}) n E, and the letter s
  may follow w exactly when alpha_s is not in L(w).

The accepted words are the ShortLex normal forms, one per element, so c_i
and d_i are path counts.  Roots are kept exactly, with sparse coordinates
in Z[zeta_N], so their cost follows their terms and not N, and they are
the only copy.  2B(alpha_s, beta) is the exact difference beta_s -
(s beta)_s, and `_Ring.sign` reads the signs of B(alpha_s, beta) and
B(alpha_s, beta) + 1 from enclosures of 2B and 2B + 2 held as integers
scaled by 2^p, made from the cosines of their terms; p is doubled until
they decide, after an exact zero test has excluded 0.  The roots are
found one depth at a time, as the walk reaches them.
"""
from __future__ import annotations

from itertools import chain, repeat
from math import inf as INF

from .coxmatrix import CoxeterMatrix, cyclotomic_ring, reflection_rows, truncate_labels
from .errors import DEFAULT_CAP, ResourceLimitError

START_BITS = 64
# Terms the small roots may keep under any cap.  A term costs about 100 B,
# so this is a few MB, less than the interpreter itself; a smaller cap is
# left to the element count, which trips where the ball's would.
FREE_TERMS = 1 << 16
# the set bits of each byte value
_BITS = [[b for b in range(8) if v >> b & 1] for v in range(256)]


def _atan_inverse(k: int, q: int) -> tuple[int, int]:
    """(lo, hi) with lo < 2^q atan(1/k) < hi, for an integer k >= 2.

    The series sum over j of (-1)^j / ((2j + 1) k^(2j + 1)) is summed with
    each term floored until one floors to 0: each floor is off by less
    than 1, and the alternating tail is smaller than that last term.
    """
    total, j, power = 0, 0, k
    while term := (1 << q) // ((2 * j + 1) * power):
        total += -term if j % 2 else term
        j += 1
        power *= k * k
    return total - j - 1, total + j + 1


def _cos_bound(t: int, q: int, upper: bool) -> int:
    """A bound on 2^q cos(t / 2^q) for 0 <= t <= 2^q: above it when upper, else below.

    For such t the Taylor terms x^(2j) / (2j)! fall, so a partial sum that
    ends on an added term lies above cos x and one that ends on a
    subtracted term below it.  Each term comes from the one before, once
    rounded down and once up, and the sum takes whichever keeps the bound.
    """
    square = t * t
    down = up = total = 1 << q
    j = 0
    while True:
        j += 1
        added = j % 2 == 0
        den = (2 * j - 1) * (2 * j) << 2 * q
        down, up = down * square // den, -(-up * square // den)
        term = up if added == upper else down
        total += term if added else -term
        if term <= 1 and added == upper:
            return total


class _Ring:
    """Z[zeta_N], N twice the lcm of the labels above 3, one sparse coordinate at a time.

    N comes from `cyclotomic_ring`, as for L24's dense roots.  A coordinate
    is a dict {e: a} for the sum of a x^e over 0 <= e < N/2 in
    Z[x]/(x^(N/2) + 1) that holds only its nonzero terms, so its cost
    follows the terms and not N.  c_sj = -2B(alpha_s, alpha_j) is
    x^a + x^-a, a = N/2m_sj, and 1 for m_sj = 3, 2 for inf.  `key` maps a
    coordinate into Z[zeta_N] itself, term by term through the basis of
    `cyclotomic_ring`.  x maps to zeta_N = e^(i pi / (N/2)), so a real
    coordinate is the sum of a cos(pi e / (N/2)) over its terms, which
    `bounds` encloses, and `sign` decides from those enclosures, with `key`
    as the exact zero test.

    Every term kept, in a root or in the table of basis images, counts as
    one element against max(cap, FREE_TERMS), about what it costs in memory.
    """

    def __init__(self, matrix: CoxeterMatrix, cap: int):
        big, _, _, self.basis = cyclotomic_ring(matrix)
        self.half = big // 2
        self.cells = {}  # x^e in the basis, by e, as `key` meets it
        self.pi = {}  # enclosures of 2^q pi, by q, as `_cos` meets them
        self.cos = {}  # cosines of x^e, by p and e, as `bounds` meets them
        self.cap, self.left = cap, max(cap, FREE_TERMS)
        self.reflection = reflection_rows(matrix)
        # c_m as (shift, coefficient) terms
        self.c = {m: ((0, 2),) if m == INF else ((0, 1),) if m == 3
                  else ((self.half // int(m), 1), (-self.half // int(m), 1))
                  for row in self.reflection for _, m in row}

    def spend(self, terms: int) -> None:
        self.left -= terms
        if self.left < 0:
            raise ResourceLimitError(f"element cap {self.cap} reached by the terms of the small roots")

    def bounds(self, x: dict, p: int) -> tuple[int, int]:
        """(lo, hi) with lo <= 2^p x <= hi, for a real x, from the cosines of its terms."""
        cos = self.cos.setdefault(p, {})
        lo = hi = 0
        for e, a in x.items():
            c = cos.get(e)
            if c is None:
                c = cos[e] = self._cos(e, p + 20)
            below, above = c if a > 0 else c[::-1]
            lo += a * below
            hi += a * above
        return lo >> 20, -(-hi >> 20)

    def sign(self, x: dict) -> int:
        """The sign of a real x, -1, 0 or 1.

        x is enclosed by `bounds` from p = START_BITS.  x == 0 is decided
        exactly by `key`, asked only when the first enclosure straddles 0
        with some width.  Once 0 is excluded, doubling p must separate x
        from 0, so the loop ends.
        """
        p = START_BITS
        lo, hi = self.bounds(x, p)
        if lo <= 0 <= hi and (lo == hi or not self.key(x)):
            return 0
        while lo <= 0 <= hi:
            p *= 2
            lo, hi = self.bounds(x, p)
        return 1 if lo > 0 else -1

    def _cos(self, e: int, q: int) -> tuple[int, int]:
        """(below, above) around 2^q cos(pi e / (N/2)), 20 bits finer than `bounds` asks.

        pi comes from Machin's formula pi = 16 atan(1/5) - 4 atan(1/239),
        cos of a quarter of the angle from its Taylor series, then two
        doublings cos 2y = 2cos^2 y - 1 widen the enclosure at most 16-fold.
        So the cost does not grow with e, N or the labels, and `bounds`
        gives one cosine with hi - lo <= 2 for p up to 1000.
        """
        pi = self.pi.get(q)
        if pi is None:
            lo5, hi5 = _atan_inverse(5, q)
            lo239, hi239 = _atan_inverse(239, q)
            pi = self.pi[q] = 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239
        # a quarter of pi e / (N/2) lies in [0, pi/4), where cos falls
        quarter = 4 * self.half
        below = _cos_bound(-(-pi[1] * e // quarter), q, False)
        above = _cos_bound(pi[0] * e // quarter, q, True)
        for _ in range(2):
            # 2c^2 - 1 rises with c >= 0, and cos of half the angle is >= 0
            below = (max(below, 0) ** 2 >> q - 1) - (1 << q)
            above = -(-above ** 2 >> q - 1) - (1 << q)
        return below, above

    def reflect(self, root, s: int) -> dict:
        """Coordinate s of s root, -root_s + sum over j of c_sj root_j; the rest are root's."""
        half = self.half
        out = {e: -a for e, a in root[s].items()}
        for j, m in self.reflection[s]:
            for e, a in root[j].items():
                for shift, k in self.c[m]:
                    f = e + shift
                    if 0 <= f < half:
                        out[f] = out.get(f, 0) + k * a
                    else:  # x^(N/2) = -1
                        f %= half
                        out[f] = out.get(f, 0) - k * a
        return {e: a for e, a in out.items() if a}

    def key(self, x: dict) -> frozenset:
        """x's coefficients in the basis of Z[zeta_N], empty exactly when x = 0."""
        out = {}
        for e, a in x.items():
            cells = self.cells.get(e)
            if cells is None:
                cells = self.cells[e] = self.basis(e)
                self.spend(len(cells))
            for cell, b in cells:
                out[cell] = out.get(cell, 0) + a * b
        return frozenset(item for item in out.items() if item[1])


class SmallRoots:
    """The small roots of depth <= depth + 1, found one depth at a time.

    Those are all the roots that the states of elements of length <= depth
    hold: by the recursions, a root in D(w) or L(w) has depth at most
    length(w) + 1.  act[s][i] is the index of s beta_i, or -1 when s beta_i
    is not one of them: negative (beta_i = alpha_s), not small
    (B(alpha_s, beta_i) <= -1), deeper, or not found yet.  beta_0 ..
    beta_{n-1} are the simple roots, the rest follow in the order found,
    one depth at a time.  A root enters from beta with
    -1 < B(alpha_s, beta) < 0, one deeper.  A root with B(alpha_s, beta) > 0
    is the image of a shallower small root and is paired with it from
    there, since s acts as an involution.  Both signs are read from
    2B(alpha_s, beta), which `_Ring.reflect` gives exactly as
    beta_s - (s beta)_s, so a sign test costs the terms of 2B.

    The roots are those of the matrix with every label above depth made
    inf.  By Tits' and Matsumoto's theorems both groups then have the same
    reduced words of length <= depth + 1 and the same equal pairs among
    those of length <= depth, since these follow from braid moves inside
    such words, and a move on a label above depth would take a whole word
    of length depth + 1 to the other reduced word of a dihedral longest
    element.  So the elements of length <= depth, their ShortLex words and
    their descents are the same, and a long label costs nothing.
    """

    def __init__(self, matrix: CoxeterMatrix, depth: int, cap: int):
        n = matrix.rank
        matrix = truncate_labels(matrix, depth)
        self.rank, self.depth = n, depth
        self.ring = _Ring(matrix, cap)
        # a root is a tuple of sparse coordinates, with the tuple of their keys
        self.vectors = [tuple({0: 1} if j == s else {} for j in range(n)) for s in range(n)]
        self.keys = [tuple(map(self.ring.key, v)) for v in self.vectors]
        self.index = {key: s for s, key in enumerate(self.keys)}
        self.levels = [1] * n
        self.act = [[-1] * n for _ in range(n)]
        self.done = 0  # roots whose images are all known

    def extend(self, level: int) -> list[list[int]]:
        """act, once the images of every root of depth <= level are known.

        Raises ResourceLimitError when the terms kept pass the cap.
        """
        while self.done < len(self.vectors) and self.levels[self.done] <= level:
            self._visit(self.done)
            self.done += 1
        return self.act

    def _visit(self, i: int) -> None:
        ring, act, v = self.ring, self.act, self.vectors[i]
        for s in range(self.rank):
            if s == i:
                continue
            image = ring.reflect(v, s)
            # 2B(alpha_s, beta) = beta_s - (s beta)_s
            two_b = dict(v[s])
            for e, a in image.items():
                two_b[e] = two_b.get(e, 0) - a
            b = ring.sign(two_b)
            if b == 0:
                act[s][i] = i
            if b >= 0 or self.levels[i] > self.depth:
                continue
            two_b[0] = two_b.get(0, 0) + 2  # 2B + 2 > 0 exactly when B > -1
            if ring.sign(two_b) > 0:
                new = ring.key(image)
                key = (*self.keys[i][:s], new, *self.keys[i][s + 1:])
                j = self.index.get(key)
                if j is None:
                    ring.spend(len(image) + len(new))
                    j = self.index[key] = len(self.vectors)
                    self.vectors.append((*v[:s], image, *v[s + 1:]))
                    self.keys.append(key)
                    self.levels.append(self.levels[i] + 1)
                    for row in act:
                        row.append(-1)
                act[s][i], act[s][j] = j, i


class ShortLex:
    """The automaton for elements of length <= depth, a state (D, L) packed in one int.

    Bit 2i of a state says that the small root beta_i of `SmallRoots` is in
    D, and bit 2i + 1 that it is in L.  Roots come by depth, so a state of a
    short element has only low bits, and `grow` finds the roots a layer
    needs just before it.  Per letter s an append-only list holds the
    images of the bits: entry 2i + b is 1 << 2 act[s][i] + b, or 0 when
    act[s][i] is -1.  `grow` appends the entries of the roots just visited
    and never rewrites one, since a visited root's images are final: its
    own visit sets them, or a shallower root's visit already did, and a
    later visit only pairs a root with a deeper one.  A bit of a root not
    yet visited has no entry, so it raises IndexError.  The images of
    distinct roots are distinct, so a state's image is the sum of its
    bits' images.
    """

    def __init__(self, matrix: CoxeterMatrix, depth: int, cap: int):
        self.roots = SmallRoots(matrix, depth, cap)
        self.rank = n = matrix.rank
        self.simple = sum(1 << 2 * s for s in range(n))
        self.forbidding = self.simple << 1
        self.letters = []

    def grow(self, length: int) -> None:
        """Ready the step from length - 1 to length: find the images of the roots it meets."""
        act = self.roots.extend(length)
        if not self.letters:
            # per letter: its L bit, what it adds (alpha_s to D; alpha_s and
            # each small s alpha_t, t < s, to L) and the images of the bits
            self.letters = [(s, 2 << 2 * s, 1 << 2 * s | sum(2 << 2 * j for j in [s] + row[:s] if j >= 0),
                             []) for s, row in enumerate(act)]
        for s, _, _, images in self.letters:
            for j in act[s][len(images) // 2:self.roots.done]:
                x = 1 << 2 * j if j >= 0 else 0
                images += x, 2 * x

    def successors(self, state: int) -> list[tuple[int, int]]:
        """(s, state after s) for each letter s allowed after the state, s ascending."""
        data = state.to_bytes((state.bit_length() + 7) // 8, "little")
        bits = [k + b for k, byte in zip(range(0, 8 * len(data), 8), data) for b in _BITS[byte]]
        return [(s, base | sum(map(images.__getitem__, bits)))
                for s, in_l, base, images in self.letters if not state & in_l]

    def descents(self, state: int) -> tuple[int, ...]:
        return tuple(s for s in range(self.rank) if state >> 2 * s & 1)


def _layers(auto: ShortLex, depth: int, cap: int):
    """The count walk: for each length 1..depth, how many elements reach each state.

    A layer maps states to counts, so it never holds more states than
    elements.  Each layer comes with the successors of the states of the
    layer before it.  The walk keeps those, so a state that recurs from one
    length to the next is stepped once while it recurs, and it holds the
    states of two lengths.  The walk stops before the first empty length,
    where a finite group's ball ends.  Raises ResourceLimitError, as
    build_ball does, at the first length whose running total of elements
    exceeds cap.  A layer is counted before the roots it needs are found,
    so the cap stops the walk there; the roots found by then raise it only
    if their terms pass max(cap, FREE_TERMS).
    """
    n = auto.rank
    layer, total, steps = {0: 1}, 1, {}
    for length in range(1, depth + 1):
        # the letters allowed after a state are those whose simple root is not in L
        size = sum(count * (n - (state & auto.forbidding).bit_count())
                   for state, count in layer.items())
        if not size:
            return
        total += size
        if total > cap:
            raise ResourceLimitError(f"element cap {cap} reached at length {length}")
        auto.grow(length)
        steps = {state: steps[state] if state in steps else auto.successors(state)
                 for state in layer}
        below, layer = layer, {}
        for state, count in below.items():
            for _, new in steps[state]:
                layer[new] = layer.get(new, 0) + count
        yield layer, steps


def export_lines(matrix: CoxeterMatrix, depth: int, cap: int = DEFAULT_CAP):
    """The `ball` export: one string of JSON lines per nonempty length 0..depth.

    Each line is json.dumps({"i": i, "w": word, "desc": descents},
    sort_keys=True) for one element, in the ball's order: each element's
    children follow in letter order, and a word is its parent's word
    followed by the letter's decimal digits.

    The count walk of sphere_counts, `_layers`, runs before the generator
    is returned, so the cap raises ResourceLimitError, with sphere_counts'
    message at the same length, before any line is asked for.  The walk
    also leaves what `_anchors` needs to cut the lengths into chunks: each
    length's count and, where its states recur (it has fewer distinct
    states than elements), their successors.  A length whose states do not
    recur keeps nothing, so a finite group's walk holds what it holds for
    sphere_counts.  `_lines` then reads the lines from the same automaton,
    a chunk at a time.
    """
    auto = ShortLex(matrix, depth, cap)
    counts, steps, recurs = [1], [], False
    for layer, below in _layers(auto, depth, cap):
        steps.append(below if recurs else None)
        counts.append(sum(layer.values()))
        recurs = len(layer) < counts[-1]
    return _lines(auto, _anchors(counts, steps))


def _anchors(counts: list[int], steps: list) -> list[tuple[int, int]]:
    """Lengths 1..last cut into chunks (anchor, top), in order.

    counts[i] is the count of length i, and steps[i] the successors of its
    states where they recur, else None.  `_lines` writes the lengths
    anchor + 1..top of a chunk from the anchor's words, with one template
    per distinct state of the anchor, so the templates of top hold a line
    per path from a distinct state of the anchor to top.  Working back
    from the last length, a chunk holds at least its top, and its anchor
    moves one length back while that length's states recur and the paths
    from them to top are no more than its elements.  A length whose states
    do not recur shares nothing as an anchor: its templates would hold a
    line per element of each length they write, as a walk parent by
    parent does.

    The paths are counted one length further back per step, each step
    from the one before: with p(q) the paths from a state q to top, p(q)
    is the sum of p over q's successors, and p is 1 on the states of top.
    A chunk's steps read each of its lengths once, and the step that
    fails is read again as the next chunk's first, so the choice is
    linear in the depth.
    """
    chunks, top = [], len(counts) - 1
    while top:
        anchor = top - 1
        if steps[anchor] is not None:
            # per state of the anchor: its paths to top
            paths = {state: len(successors) for state, successors in steps[anchor].items()}
            # length 0 never recurs, so the anchor stays above it
            while steps[anchor - 1] is not None:
                below = anchor - 1
                paths = {state: sum(paths[new] for _, new in successors)
                         for state, successors in steps[below].items()}
                if sum(paths.values()) > counts[below]:
                    break
                anchor = below
        chunks.append((anchor, top))
        top = anchor
    chunks.reverse()
    return chunks


# In a chunk's templates _MARK stands where the anchor's word goes, and
# _BOUND closes the descendants of one distinct state of the anchor; the
# JSON lines, of digits and keys, hold neither.
_MARK, _BOUND = "\0", "\1"


def _lines(auto: ShortLex, chunks: list[tuple[int, int]]):
    """The lines of length 0 and of each length of the chunks, from the chunks' anchors.

    A length holds its distinct states, and the next length's are numbered
    as found.  Per distinct state of the length before, its children's
    lines are split where the parent's word goes.  In a chunk's first
    length those are the templates, one per distinct state of the anchor,
    and the length's text is one `str.join` per element of the anchor, as
    it is for every length of a one-length chunk.

    Deeper in a chunk, a path stands for one descendant of a distinct
    state of the anchor: it keeps its word's tail past the anchor's word,
    after a _MARK, and the index of its state.  The paths run in the order
    of their anchor states, each state's closed by a path of a _BOUND.
    One `str.join` over the paths writes every template at once, with a
    _MARK where the anchor's word goes, one more writes the next length's
    tails, and the length's text is again one `str.join` per element of
    the anchor.  Words are made, and split, only at a chunk's top, for the
    next chunk's anchor.

    The lines are those a walk parent by parent writes: an element's
    descendants at a length, in its template's order, are the children of
    its descendants one length shorter, each in letter order, which is the
    ball's order; and the lines of two elements of the anchor with the same
    state differ only in their words.
    """
    yield '{"desc": [], "i": 0, "w": ""}\n'
    # the anchor: its words, each word's index into its distinct states, and those states
    words, ids, states, steps = [""], [0], [0], {}
    # the start of a line, up to its length, by its descents: at most one
    # per spherical subset, since an element's descents generate a finite group
    simple, heads = auto.simple, {}
    for anchor, top in chunks:
        deep = top > anchor + 1
        for length in range(anchor + 1, top + 1):
            index = {}  # this length's distinct states, numbered as found
            # per state of the length before: its children's lines split where
            # its word goes, their last letters, and their indices
            pieces, letters, children = [], [], []
            # as in `_layers`, a state of the last length keeps its successors
            steps = {state: steps[state] if state in steps else auto.successors(state)
                     for state in states}
            middle = '%d, "w": "' % length
            for successors in steps.values():
                line, letter, kids = [""], [""], []
                for s, new in successors:
                    head = heads.get(new & simple)
                    if head is None:
                        head = heads[new & simple] = '{"desc": [%s], "i": ' % (
                            ", ".join(map(str, auto.descents(new))))
                    line[-1] += head + middle
                    line.append('%d"}\n' % s)
                    letter.append("%d\n" % s)
                    kids.append(index.setdefault(new, len(index)))
                pieces.append(line)
                letters.append(letter)
                children.append(kids)
            if deep:
                # a bound's path stays a bound: index -1 at every length
                pieces.append([_BOUND])
                letters.append([_BOUND + "\n"])
                children.append([-1])
                if length == anchor + 1:
                    # a path per distinct state of the anchor, each then a bound's
                    tails = [_MARK, _BOUND] * len(states)
                    ends = [end for j in range(len(states)) for end in (j, -1)]
                else:
                    # tail.join(pieces) puts a mark and the tail in each line
                    marked = "".join(map(str.join, tails, map(pieces.__getitem__, ends)))
                    pieces = [template.split(_MARK) for template in marked.split(_BOUND)]
                    del marked
            # word.join(pieces) puts the anchor's word in each line
            text = "".join(map(str.join, words, map(pieces.__getitem__, ids)))
            yield text
            del text  # before the next anchor's words are made
            if deep:
                # the paths one length on: their marked tails, and their states
                marked = "".join(map(str.join, tails, map(letters.__getitem__, ends)))
                ends = list(chain.from_iterable(map(children.__getitem__, ends)))
                if length < top:
                    tails = marked.split("\n")
                    tails.pop()
            states = index
        if top == chunks[-1][1]:
            return
        if deep:
            # per distinct state of the anchor: its paths' tails, and their states
            letters = [template.split(_MARK) for template in marked.split(_BOUND + "\n")]
            rest = iter(ends)
            children = [list(iter(rest.__next__, -1)) for _ in letters]
        words = "".join(map(str.join, words, map(letters.__getitem__, ids))).split("\n")
        words.pop()
        ids = list(chain.from_iterable(map(children.__getitem__, ids)))


def _tally(auto: ShortLex, spheres, depth: int, cap: int):
    """(c, d) for lengths 0..depth from the walk's lengths 1.., each as (states, counts).

    The lengths are read as the walk makes them, so its cap trips first.
    Past a finite group's longest element the rows are zeros, one per
    length, and they count against the cap too: when depth + 1 rows pass
    it, ResourceLimitError is raised before any is made.
    """
    c, d = [1], [0]
    for states, counts in spheres:
        c.append(sum(counts))
        d.append(sum(count for state, count in zip(states, counts)
                     if (state & auto.simple).bit_count() == 1))
    if len(c) <= depth:
        if depth + 1 > cap:
            raise ResourceLimitError(
                f"element cap {cap} reached by the {depth + 1} rows of lengths 0..{depth}")
        c.extend(repeat(0, depth + 1 - len(c)))
        d.extend(repeat(0, depth + 1 - len(d)))
    return c, d


def sphere_counts(matrix: CoxeterMatrix, depth: int, cap: int = DEFAULT_CAP):
    """(c, d) for lengths 0..depth: c_i elements of length i, d_i those with one right descent.

    The walk `_layers` and `_tally` raise ResourceLimitError where the
    elements, the small roots' terms or a finite group's rows pass the cap.
    """
    auto = ShortLex(matrix, depth, cap)
    layers = ((layer.keys(), layer.values()) for layer, _ in _layers(auto, depth, cap))
    return _tally(auto, layers, depth, cap)
