"""Chamber-level geometry over a finite ball: residues, reflections, walls.

Chambers are ball elements, named by ball index in every argument and
result; s-adjacency is right multiplication.  Every computation is
exact.  Walls are named exactly by their roots over Z[zeta_N] (see
`roots`), so the wall scan L24 decides every complete residue from the
ball's parents, letters and descent masks.  The rank-2 residues of L24
are their gates and pairs, found with no walk.

The scans take a ball from walk_ball, which has no edges, or one from
build_ball.  On the walk's ball P29, C210 and L211 decide per D-set, the
small roots that an element makes negative, which its automaton state
holds, weighted by the walk's count of elements per length and state,
so a passing run reads no per-element array; edges are built, with
build_ball, only to name a failure, or where P29 cannot decide.  Then,
as on a built ball, each reads the right-descent masks and walks edges
where a mask cannot decide: C210's words and P29's gates at two
descents.  Only C210 is still ball-scoped: a case whose chambers
would leave the ball is counted as skipped rather than guessed, and its
report carries both a checked and a skipped count.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from itertools import combinations, groupby
from math import inf as INF

from .ball import Ball, _alternating
from .coxmatrix import classify_subset, require_complete_two_spherical, truncate_labels
from .errors import GeneratorOutOfRangeError, HypothesisError
from .report import Comparison, VerificationReport


class Residue(namedtuple("Residue", "gens gate members complete")):
    """A standard coset w<J> restricted to the ball.

    The gate is the unique member of smallest length and is always inside
    the ball; `complete` says whether every member of the coset is.
    """

    __slots__ = ()


def residue(ball: Ball, chamber: int, gens) -> Residue:
    """The J-residue through a chamber, as far as the ball can see."""
    ball.check_index(chamber)
    gens = tuple(sorted(set(gens)))
    if gens and (gens[0] < 0 or gens[-1] >= ball.matrix.rank):
        raise GeneratorOutOfRangeError(f"generators {gens} outside the system")
    seen = {chamber}
    frontier = [chamber]
    while frontier:
        cur = frontier.pop()
        for s in gens:
            nxt = ball.edges[cur][s]
            if nxt >= 0 and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    members = tuple(sorted(seen))
    gate = min(members, key=lambda i: ball.lengths[i])
    label = classify_subset(ball.matrix, gens)
    complete = label.finite and len(members) == label.order
    return Residue(gens, gate, members, complete)


# -- reflections and rank-2 residues ---------------------------------------


def reflections(ball: Ball) -> list[int]:
    """Every reflection of length <= depth, as the conjugates u s u^{-1}.

    Each reflection of length 2k+1 has a reduced expression u s u^{-1} with
    length(u) = k.  Conversely every u s u^{-1} with 2*length(u) + 1 <=
    depth is a reflection whose fold, and each step of it, stays within
    that length, so taking all of them finds exactly the reflections in
    the ball.  L24 names walls by their roots and does not call this; it
    stays as the ball-side list that the reflection-scan oracle of L24 in
    the tests starts from, and `perfbench/tracer.py` counts it by name.
    """
    out = set()
    for u in range(ball.size):
        if 2 * ball.lengths[u] + 1 <= ball.depth:
            for s in range(ball.matrix.rank):
                out.add(ball.fold_inverse(ball.edges[u][s], u))
    return sorted(out)


def _pairs(ball: Ball):
    """(s, t, bits of s and t, bits of every other letter, m_st) per pair s < t."""
    full = (1 << ball.matrix.rank) - 1
    return [(s, t, 1 << s | 1 << t, full & ~(1 << s | 1 << t), ball.matrix.order(s, t))
            for s, t in combinations(range(ball.matrix.rank), 2)]


class _DSets:
    """The D-sets of a ball from walk_ball, stepped through ascents.

    The even bits of an element's automaton state are D(w), the small roots
    that w makes negative, and w's descents are the simple roots among
    them.  For an ascent s, D(ws) = ({alpha_s} u s D(w)) n E (Brink-Howlett,
    Math. Ann. 296, 1993; Bjorner-Brenti ch. 4), and the automaton's images
    of the bits under s give s D(w) n E.  Those images are known for the
    roots of depth up to the longest length walked, so D(w) steps from any
    w below the rim.  Steps and masks are memoised.
    """

    def __init__(self, ball: Ball):
        auto = ball.automaton
        self.descents = auto.descents
        self.images = [images for *_, images in auto.letters]
        self.act = auto.roots.act
        self.even = (1 << 2 * len(auto.roots.vectors)) // 3  # bit 2i of every root i
        self.steps, self.masks = {}, {}

    def weights(self, spheres):
        """(D-set, elements) per D-set of the walk's spheres, from their counts per state."""
        out = {}
        for states, counts in spheres:
            for state, count in zip(states, counts):
                d = state & self.even
                out[d] = out.get(d, 0) + count
        return out.items()

    def step(self, d: int, s: int) -> int:
        """D(ws) from D(w) = d, for an ascent s of w."""
        got = self.steps.get((d, s))
        if got is None:
            images, got, rest = self.images[s], 1 << 2 * s, d
            while rest:
                low = rest & -rest
                got |= images[low.bit_length() - 1]
                rest ^= low
            self.steps[d, s] = got
        return got

    def mask(self, d: int) -> int:
        """The descent mask of w, from D(w) = d."""
        got = self.masks.get(d)
        if got is None:
            got = self.masks[d] = sum(1 << s for s in self.descents(d))
        return got

    def dihedral(self, s: int, t: int, m) -> int | None:
        """The bits of the positive roots of <s,t>, or None unless all m are known.

        They are the closure of alpha_s and alpha_t under s and t.  A label
        m above the walk's depth is inf to the small roots, which then hold
        only alpha_s and alpha_t of <s,t>, and an inf label has infinitely
        many roots; either way fewer than m are found.
        """
        found, todo = {s, t}, [s, t]
        while todo:
            i = todo.pop()
            for x in (s, t):
                j = self.act[x][i]
                if j >= 0 and j not in found:
                    found.add(j)
                    todo.append(j)
        return sum(1 << 2 * i for i in found) if len(found) == m else None


def rank2_complete_residues(ball: Ball) -> list[tuple[int, int, int]]:
    """Every spherical rank-2 residue that fits inside the ball, as (gate, s, t).

    The gate g has no descent in {s, t} and length(g) + m_st <= depth.  The
    triples come in gate order, then in pair order; `residue(ball, g, (s, t))`
    gives the members of one.
    """
    pairs = [(s, t, bits, m) for s, t, bits, _, m in _pairs(ball) if m <= ball.depth]
    stop = ball.layer(ball.depth - min(m for *_, m in pairs)).stop if pairs else 0
    lengths, descents = ball.lengths, ball.descents
    out = []
    for g in range(stop):
        room = ball.depth - lengths[g]
        out.extend((g, s, t) for s, t, bits, m in pairs
                   if m <= room and not descents[g] & bits)
    return out


# -- scans ----------------------------------------------------------------


def _word_str(ball: Ball, idx: int) -> str:
    return "".join(map(str, ball.word(idx))) or "e"


def _reflection_word(ball: Ball, residues, origin: int) -> str:
    """The word p x p^-1 of the wall coded r * depth + k: the wall between
    p = g(st...)_k and px in the r-th residue g<s,t>."""
    r, k = divmod(origin, ball.depth)
    g, s, t = residues[r]
    w = ball.word(ball.with_edges().fold_right(g, _alternating(s, t, k)))
    return "".join(map(str, w + ((s, t)[k % 2],) + w[::-1]))


def verify_wall_pair_uniqueness(ball: Ball, gate: bool = True) -> VerificationReport:
    """Two distinct walls share at most one complete rank-2 residue.

    Each wall is named by its root over Z[zeta_N] up to sign, so every
    complete residue is decided and nothing is skipped.  The walls of
    g<s,t> are g gamma_k for the m positive roots gamma_0 = alpha_s,
    gamma_1 = s alpha_t, gamma_2 = st alpha_s, ... of <s,t>, and g gamma_k
    is the wall between the chamber g(st...)_k and its next neighbour.  The
    gamma_k lie pi/m apart, so gamma_{k+1} = c_st gamma_k - gamma_{k-1} with
    gamma_{-1} = -alpha_t, so only g alpha_s and g alpha_t are needed.  The
    (g, s, t) triples come in ShortLex gate order, and `Roots.images` steps
    each new gate's images from the prefix it shares with the gate before.
    `checked` counts the distinct wall pairs seen; a failure names each wall
    by a reflection word.  Needs every rank-3 subsystem infinite.

    The roots are those of the matrix with every label above 4 depth made
    inf, as `SmallRoots` does with labels above depth; the rank-3 gate
    reads the true labels.  Each wall is a reflection c x c^-1 with
    length(c) <= depth - 1, so two walls are equal exactly when a word of
    length <= 4 depth - 2 is trivial.  By Tits' word property
    (Bjorner-Brenti Thm 3.3.1) such a word reaches the empty word by
    deletions of ss and braid moves that never lengthen it, so each move
    has a label of at most 4 depth - 2 and holds in both groups; and a
    word trivial in the group with more labels inf is trivial in the
    original, which is its quotient.  So both groups have the same equal
    walls, and a label that no residue can reach never enters the ring.
    """
    if gate:
        for subset in combinations(range(ball.matrix.rank), 3):
            if classify_subset(ball.matrix, subset).finite:
                raise HypothesisError(
                    f"rank-3 subsystem {subset} is finite; wall pairs may collide"
                )
    from .roots import Roots  # only L24 needs the ring; other commands never load it

    roots = Roots(truncate_labels(ball.matrix, 4 * ball.depth), ball.lengths[-1])
    images_of = roots.images(ball)
    residues = rank2_complete_residues(ball)
    walls = {}  # root key -> wall id
    origins = []  # wall id -> r * depth + k for the k-th wall of its first residue, the r-th
    pairs = []  # a << 32 | b for walls a < b, once per residue
    for r, (g, s, t) in enumerate(residues):
        images = images_of(g)
        m = ball.matrix.order(s, t)
        prev, cur = -images[t], images[s]
        ids = []
        for k in range(m):
            if k:
                prev, cur = cur, roots.times(m, cur) - prev
            key = roots.key(cur)
            wall = walls.get(key)
            if wall is None:
                wall = walls[key] = len(origins)
                origins.append(r * ball.depth + k)
            ids.append(wall)
        assert len(set(ids)) == m, "a residue's walls must be distinct"
        for a, b in combinations(sorted(ids), 2):
            pairs.append(a << 32 | b)
    del walls  # the roots are not needed to count pairs; free them first
    pairs.sort()
    checks = []
    checked = 0
    for pair, run in groupby(pairs):
        checked += 1
        count = sum(1 for _ in run)
        if count > 1:
            alpha, beta = (_reflection_word(ball, residues, origins[wall])
                           for wall in (pair >> 32, pair & 0xFFFFFFFF))
            checks.append(Comparison({"alpha": alpha, "beta": beta}, count, 1, "<=", False))
    return VerificationReport("L24", 0, ball.depth, tuple(checks), checked, 0)


def _gate_of(ball: Ball, start: int, s: int, t: int) -> int:
    """The gate of start<s,t> when s ascends from start.

    Below start the coset holds one chain, so the suffix alternates t, s, ...
    and each step down has just one letter to try.
    """
    while ball.descents[start] >> t & 1:
        start = ball.edges[start][t]
        s, t = t, s
    return start


def verify_projection_collapse(ball: Ball, gate: bool = True) -> VerificationReport:
    """Of two rank-2 residues meeting in a panel, the farther one projects
    the identity onto that panel's nearer chamber.

    For residues R, T with panel P = R intersect T and the gate of R
    strictly closer to the identity than the gate of T, the gate of T must
    be the shorter chamber of P.  Needs every pairwise order finite and
    >= 3.  With P = {w, ws}, w the nearer chamber, the gate of w<s,t> lies
    below w exactly when t is a descent of w.  So a pair {t, u} with one
    descent of w is checked and holds, one with none is not checked, and
    one with two is checked and fails when its two gates differ in length.

    On the walk's ball the gate of w<s,t> has length
    length(w) - |D(w) n Phi+_st|.  That holds only while m_st <= depth:
    the small roots are those of the matrix with every label above the
    depth made inf, whose Phi+_st has no root in E but alpha_s and alpha_t.
    There, and for m_st = inf, the gates are walked on the built ball.
    """
    if gate:
        require_complete_two_spherical(ball.matrix)
    n = ball.matrix.rank
    if ball.edges is None and (checked := _gates_level(ball)) is not None:
        return VerificationReport("P29", 0, ball.depth, (), checked)
    ball.with_edges()  # to name the failures, or where the D-sets cannot decide
    below_rim = ball.descents[:ball.layer(ball.depth).start]  # every ascent is inside
    # (n - k) ascents s, each with k * (n - 1 - k) pairs {t, u} holding one descent
    checked = sum(c * (n - k) * k * (n - 1 - k)
                  for k, c in Counter(map(int.bit_count, below_rim)).items())
    checks = []
    for w, mask in enumerate(below_rim):
        if mask & (mask - 1):  # two descents or more
            downs = [t for t in range(n) if mask >> t & 1]
            for s in range(n):
                if mask >> s & 1:
                    continue
                gates = {t: _gate_of(ball, w, s, t) for t in downs}
                for t, u in combinations(downs, 2):
                    if ball.lengths[gates[t]] != ball.lengths[gates[u]]:
                        checked += 1
                        far = max(gates[t], gates[u], key=ball.lengths.__getitem__)
                        checks.append(Comparison(
                            {"panel": _word_str(ball, w), "letter": s, "pair": f"{t},{u}"},
                            _word_str(ball, far), _word_str(ball, w), "==", False))
    return VerificationReport("P29", 0, ball.depth, tuple(checks), checked)


def _gates_level(ball: Ball) -> int | None:
    """P29's checked count on a walk's ball, per D-set below the rim, or None
    when it does not hold there.

    The gate of w<s,t> is w shortened by the roots of <s,t> that w makes
    negative, |D(w) n Phi+_st| of them, for Phi+_st lies in E when m_st is
    finite.  So P29 holds when, per ascent s, every descent t gives one
    count.  None when it fails, and where a label above the depth, read as
    inf by the small roots, or an inf one leaves the count unknown.
    """
    d_sets, n = _DSets(ball), ball.matrix.rank
    roots = {(s, t): d_sets.dihedral(s, t, ball.matrix.order(s, t))
             for s in range(n) for t in range(n) if s != t}
    checked = 0
    for d, count in d_sets.weights(ball.spheres[:ball.depth]):
        mask = d_sets.mask(d)
        k = mask.bit_count()
        checked += count * (n - k) * k * (n - 1 - k)
        if not mask & (mask - 1):
            continue
        downs = [t for t in range(n) if mask >> t & 1]
        for s in range(n):
            if mask >> s & 1:
                continue
            sizes = {None if roots[s, t] is None else (d & roots[s, t]).bit_count()
                     for t in downs}
            if None in sizes or len(sizes) > 1:
                return None
    return checked


def _exit_plan(ball: Ball, pairs, i: int):
    """C210's work at the gates of length i, per pair {s, t}: its bits, those of
    every other letter, the inner words whose exits stay inside, and the
    instances inside and past the rim."""
    n = ball.matrix.rank
    room = ball.depth - i - 1  # the longest w' whose exits stay inside
    plan = []
    for s, t, bits, third, m in pairs:
        # the longest word of <s, t> is checked once, from s
        words = [_alternating(s, t, min(m, room)), _alternating(t, s, min(m - 1, room))]
        inside = sum(max(0, len(word) - 1) for word in words) * (n - 2)
        plan.append((bits, third, [word for word in words if len(word) > 1],
                     inside, (2 * m - 3) * (n - 2) - inside))
    return plan


def _exit_counts(ball: Ball, plans) -> tuple[int, int] | None:
    """C210's (checked, skipped) on a walk's ball, per length and D-set, or
    None when an instance fails."""
    d_sets = _DSets(ball)
    checked = skipped = 0
    passed = set()  # (D(w), word) whose instances hold
    for plan, sphere in zip(plans, ball.spheres):
        for d, count in d_sets.weights([sphere]):
            mask = d_sets.mask(d)
            for bits, third, words, inside, outside in plan:
                if mask & bits:
                    continue
                checked += count * inside
                skipped += count * outside
                for word in words:
                    if (d, word) in passed:
                        continue
                    mid = d_sets.step(d, word[0])
                    for a in word[1:]:
                        mid = d_sets.step(mid, a)
                        if d_sets.mask(mid) & third:
                            return None
                    passed.add((d, word))
    return checked, skipped


def verify_exit_ascent(ball: Ball, gate: bool = True) -> VerificationReport:
    """Leaving a rank-2 residue above its gate ascends.

    If both ws and wt ascend from w, then for every w' in <s, t> of length
    at least 2 and every third generator r the product w w' r has length
    length(w) + length(w') + 1.  Needs every pairwise order finite and
    >= 3.  w is the gate of w<s,t>, so w w' has length length(w) + k, and
    the claim is that no third letter is a descent of w w'.  An instance
    whose product w w' r would leave the ball is counted as skipped.
    """
    if gate:
        require_complete_two_spherical(ball.matrix)
    n = ball.matrix.rank
    pairs = [pair for pair in _pairs(ball) if pair[-1] != INF]
    plans = [_exit_plan(ball, pairs, i) for i in range(ball.depth)]
    if ball.edges is None and (counts := _exit_counts(ball, plans)) is not None:
        return VerificationReport("C210", 0, ball.depth, (), *counts)
    edges, descents = ball.with_edges().edges, ball.descents  # to name the failures
    checks, checked, skipped = [], 0, 0
    for i, plan in enumerate(plans):
        for w in ball.layer(i):
            for bits, third, words, inside, outside in plan:
                if descents[w] & bits:
                    continue
                checked += inside
                skipped += outside
                for word in words:
                    mid = edges[w][word[0]]
                    for k in range(2, len(word) + 1):
                        mid = edges[mid][word[k - 1]]
                        bad = descents[mid] & third
                        if bad:
                            checks.extend(Comparison(
                                {"w": _word_str(ball, w), "inner": "".join(map(str, word[:k])),
                                 "r": r}, i + k - 1, i + k + 1, "==", False)
                                for r in range(n) if bad >> r & 1)
    return VerificationReport("C210", 0, ball.depth, tuple(checks), checked, skipped)


def verify_not_both_down(ball: Ball, gate: bool = True) -> VerificationReport:
    """If ws and wt both ascend, no third letter r descends from both.

    Checks length(w s r) = length(w) + 2 or length(w t r) = length(w) + 2
    whenever both ws and wt ascend.  Needs every pairwise order >= 4; run
    with gate=False to hunt counterexamples on systems with triple edges.
    A letter r passes when it ascends from ws or wt and fails when it
    descends from both.  The ball records a mask when it makes the element,
    and no later element adds a downward edge, so the masks of ws and wt
    decide every r, at the rim too, and nothing is skipped.
    """
    if gate:
        for s, t in combinations(range(ball.matrix.rank), 2):
            if ball.matrix.order(s, t) < 4:
                raise HypothesisError(
                    f"pair ({s},{t}) has order {ball.matrix.order(s, t)} < 4"
                )
    n = ball.matrix.rank
    pairs = _pairs(ball)
    if ball.edges is None and (checked := _not_both_down_checked(ball, pairs)) is not None:
        return VerificationReport("L211", 0, ball.depth, (), checked)
    descents = ball.with_edges().descents  # to name the failures
    checks, checked = [], 0
    for w in range(ball.layer(ball.depth).start):
        lw, row = ball.lengths[w], ball.edges[w]
        for s, t, bits, third, _ in pairs:
            if descents[w] & bits:
                continue
            checked += n - 2
            both = descents[row[s]] & descents[row[t]] & third
            if both:
                checks.extend(Comparison({"w": _word_str(ball, w), "s": s, "t": t, "r": r},
                                         (lw, lw), lw + 2, "in", False)
                              for r in range(n) if both >> r & 1)
    return VerificationReport("L211", 0, ball.depth, tuple(checks), checked)


def _not_both_down_checked(ball: Ball, pairs) -> int | None:
    """L211's checked count on a walk's ball, per D-set below the rim, or None
    when an instance fails: the masks of ws and wt are those of D(ws), D(wt)."""
    d_sets, n = _DSets(ball), ball.matrix.rank
    checked = 0
    for d, count in d_sets.weights(ball.spheres[:ball.depth]):
        mask = d_sets.mask(d)
        for s, t, bits, third, _ in pairs:
            if mask & bits:
                continue
            checked += count * (n - 2)
            if d_sets.mask(d_sets.step(d, s)) & d_sets.mask(d_sets.step(d, t)) & third:
                return None
    return checked
