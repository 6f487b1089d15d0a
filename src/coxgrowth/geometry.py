"""Chamber-level geometry over a finite ball: residues, projections, walls.

Chambers are ball elements, named by ball index in every argument and
result; s-adjacency is right multiplication.  Every computation is exact
but ball-scoped: products are folded through stored edges, and a scan
instance whose chambers would leave the ball is counted as skipped rather
than guessed.  Verifier reports therefore carry both a checked and a
skipped count.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from math import inf as INF
from operator import neg, sub

from .ball import Ball, _alternating
from .coxmatrix import classify_subset, require_complete_two_spherical
from .errors import (
    DepthExceededError,
    GeneratorOutOfRangeError,
    HypothesisError,
    ResidueIncompleteError,
)
from .report import Comparison, VerificationReport

INSIDE_ALPHA = "inside_alpha"
INSIDE_MINUS_ALPHA = "inside_minus_alpha"
IN_BOUNDARY = "in_boundary"


@dataclass(frozen=True)
class Residue:
    """A standard coset w<J> restricted to the ball.

    The gate is the unique member of smallest length and is always inside
    the ball; `complete` says whether every member of the coset is.
    """

    gens: tuple[int, ...]
    gate: int
    members: tuple[int, ...]
    complete: bool

    @property
    def rank(self) -> int:
        return len(self.gens)


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


def _residue_distances(ball: Ball, res: Residue, start: int) -> dict[int, int]:
    """Gallery distances within the residue (cosets are convex)."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt_frontier = []
        for cur in frontier:
            for s in res.gens:
                nxt = ball.edges[cur][s]
                if nxt >= 0 and nxt in res.members and nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    nxt_frontier.append(nxt)
        frontier = nxt_frontier
    return dist


def gallery_distance(ball: Ball, x: int, y: int) -> int:
    """Length of x^{-1} y, folded through the ball from either end."""
    if x == y:
        return 0
    got = ball.fold_right(ball.inverse_index(x), ball.word(y))
    if got is None:
        got = ball.fold_right(ball.inverse_index(y), ball.word(x))
    if got is None:
        raise DepthExceededError("gallery distance leaves the ball")
    return ball.lengths[got]


def projection(ball: Ball, chamber: int, res: Residue) -> int:
    """The gate of the residue as seen from a chamber.

    Returns the unique member z minimizing gallery distance, after checking
    the gate identity d(x, y) = d(x, z) + d(z, y) against every member.
    """
    if not res.complete:
        raise ResidueIncompleteError("projection needs the whole residue in the ball")
    dist = {m: gallery_distance(ball, chamber, m) for m in res.members}
    z = min(res.members, key=lambda m: (dist[m], m))
    ties = [m for m in res.members if dist[m] == dist[z]]
    if len(ties) != 1:
        raise ArithmeticError(f"projection is not unique: {ties}")
    inner = _residue_distances(ball, res, z)
    for y in res.members:
        if dist[y] != dist[z] + inner[y]:
            raise ArithmeticError("gate identity failed; ball data inconsistent")
    return z


def parallel_check(ball: Ball, first: Residue, second: Residue) -> bool:
    """Whether each residue projects onto the whole of the other."""
    if not (first.complete and second.complete):
        raise ResidueIncompleteError("parallelism needs both residues in the ball")
    onto_second = {projection(ball, m, second) for m in first.members}
    if onto_second != set(second.members):
        return False
    onto_first = {projection(ball, m, first) for m in second.members}
    return onto_first == set(first.members)


# -- roots and walls ------------------------------------------------------


@dataclass(frozen=True)
class RootHandle:
    """A half-space: a reflection (by ball index) plus a chosen side.

    positive=True names the side containing the identity chamber.
    """

    reflection: int
    positive: bool = True


def simple_root(ball: Ball, s: int) -> RootHandle:
    return RootHandle(ball.step(0, s), True)


def reflections(ball: Ball) -> list[int]:
    """Every reflection of length <= depth, as the conjugates u s u^{-1}.

    Each reflection of length 2k+1 has a reduced expression u s u^{-1} with
    length(u) = k.  Conversely every u s u^{-1} with 2*length(u) + 1 <=
    depth is a reflection whose fold, and each step of it, stays within
    that length, so taking all of them finds exactly the reflections in
    the ball.
    """
    out = set()
    for u in range(ball.size):
        if 2 * ball.lengths[u] + 1 <= ball.depth:
            for s in range(ball.matrix.rank):
                out.add(ball.fold_inverse(ball.edges[u][s], u))
    return sorted(out)


def left_apply(ball: Ball, g: int, x: int) -> int | None:
    """Index of g * x, or None when an intermediate leaves the ball.

    Folds x^{-1} g^{-1} through the ball and inverts once; its intermediates
    are the inverses of those of g * x built letter by letter on the left,
    so both leave the ball at the same step.
    """
    got = ball.fold_inverse(ball.inverse_index(x), g)
    return None if got is None else ball.inverse_index(got)


def root_membership(ball: Ball, root: RootHandle, chamber: int) -> bool | None:
    """Whether the chamber lies on the root's side; None if undecidable here.

    A chamber w is on the positive side of the reflection r exactly when
    r*w is longer than w.
    """
    image = left_apply(ball, root.reflection, chamber)
    if image is None:
        return None
    raised = ball.lengths[image] > ball.lengths[chamber]
    return raised == root.positive


def rank2_complete_residues(ball: Ball) -> list[Residue]:
    """Every spherical rank-2 residue that fits inside the ball."""
    out = []
    n = ball.matrix.rank
    for s, t in combinations(range(n), 2):
        m = ball.matrix.order(s, t)
        if m == INF:
            continue
        m = int(m)
        for g in range(ball.size):
            if ball.lengths[g] + m > ball.depth:
                continue
            row = ball.edges[g]
            lg = ball.lengths[g]
            up_s = row[s] >= 0 and ball.lengths[row[s]] > lg
            up_t = row[t] >= 0 and ball.lengths[row[t]] > lg
            if not (up_s and up_t):
                continue
            res = residue(ball, g, (s, t))
            assert res.complete and res.gate == g
            out.append(res)
    return out


def _cuts(ball: Ball, refl: int, chambers) -> bool | None:
    """Whether the reflection's wall cuts the residue with these chambers.

    The wall of r cuts a spherical residue R exactly when r maps some
    chamber of R into R, and then r maps all of R onto itself.  So the
    first image that folds inside the ball decides; None when none folds.
    """
    for x in chambers:
        image = left_apply(ball, refl, x)
        if image is not None:
            return image in chambers
    return None


def residue_root_trichotomy(ball: Ball, res: Residue, root: RootHandle) -> str:
    """Classify a spherical rank-2 residue against a half-space.

    Exactly one holds: all chambers inside the root, all inside its
    opposite, or the residue is stabilized by the reflection (its wall cuts
    the residue).  A wall that does not cut the residue leaves it on one
    side, so the first chamber whose image folds decides every case.
    """
    if not res.complete:
        raise ResidueIncompleteError("trichotomy needs the whole residue")
    cut = _cuts(ball, root.reflection, res.members)
    if cut is None:
        raise DepthExceededError("no chamber of the residue folds under the reflection")
    if cut:
        return IN_BOUNDARY
    side = next(v for m in res.members
                if (v := root_membership(ball, root, m)) is not None)
    return INSIDE_ALPHA if side else INSIDE_MINUS_ALPHA


@dataclass(frozen=True)
class WallSample:
    """Ball-restricted wall data of one root: panels cut and residues stabilized."""

    root: RootHandle
    panels: tuple[tuple[int, int], ...]
    residues: tuple[Residue, ...]
    skipped_panels: int
    skipped_residues: int


def wall_sample(ball: Ball, root: RootHandle,
                residues: list[Residue] | None = None) -> WallSample:
    refl = root.reflection
    panels = []
    skipped_panels = 0
    for w in range(ball.size):
        lw = ball.lengths[w]
        for s in range(ball.matrix.rank):
            x = ball.edges[w][s]
            if x < 0 or ball.lengths[x] < lw:
                continue
            got = _cuts(ball, refl, (w, x))
            if got is None:
                skipped_panels += 1
            elif got:
                panels.append((w, x))
    if residues is None:
        residues = rank2_complete_residues(ball)
    cut = []
    skipped_res = 0
    for res in residues:
        got = _cuts(ball, refl, res.members)
        if got is None:
            skipped_res += 1
        elif got:
            cut.append(res)
    return WallSample(root, tuple(panels), tuple(cut), skipped_panels, skipped_res)


# -- scans ----------------------------------------------------------------


def _word_str(ball: Ball, idx: int) -> str:
    return "".join(map(str, ball.word(idx))) or "e"


def _reflection_word(ball: Ball, wall: int) -> str:
    """The word p x p^-1 of the wall coded chamber * rank + letter."""
    chamber, x = divmod(wall, ball.matrix.rank)
    w = ball.word(chamber)
    return "".join(map(str, w + (x,) + w[::-1]))


def verify_wall_pair_uniqueness(ball: Ball, gate: bool = True) -> VerificationReport:
    """Two distinct walls share at most one complete rank-2 residue.

    Each wall is named by its root over Z[zeta_N] up to sign, so every
    complete residue is decided and nothing is skipped.  The walls of
    g<s,t> are g gamma_k for the m positive roots gamma_0 = alpha_s,
    gamma_1 = s alpha_t, gamma_2 = st alpha_s, ... of <s,t>, and g gamma_k
    is the wall between the chamber g(st...)_k and its next neighbour.  The
    gamma_k lie pi/m apart, so gamma_{k+1} = c_st gamma_k - gamma_{k-1} with
    gamma_{-1} = -alpha_t, and only g alpha_s and g alpha_t are folded.
    `checked` counts the distinct wall pairs seen; a failure names each wall
    by a reflection word.  Needs every rank-3 subsystem infinite.
    """
    if gate:
        for subset in combinations(range(ball.matrix.rank), 3):
            if classify_subset(ball.matrix, subset).finite:
                raise HypothesisError(
                    f"rank-3 subsystem {subset} is finite; wall pairs may collide"
                )
    from .roots import Roots  # only L24 needs the ring; other commands never load it

    n = ball.matrix.rank
    # one int per residue, gate first, so the residues of a gate come together
    residues = sorted((res.gate * n + res.gens[0]) * n + res.gens[1]
                      for res in rank2_complete_residues(ball))
    roots = Roots(ball.matrix)
    walls = {}  # rendered root -> wall id
    origins = []  # wall id -> chamber * n + letter of its first residue
    pairs = []  # a << 32 | b for walls a < b, once per residue
    for g, group in groupby(residues, key=lambda code: code // (n * n)):
        gens = [divmod(code % (n * n), n) for code in group]
        letters = sorted({x for st in gens for x in st})
        images = dict(zip(letters, roots.fold(ball, g, letters)))
        for s, t in gens:
            m = ball.matrix.order(s, t)
            prev, cur = list(map(neg, images[t])), images[s]
            chamber, x, y = g, s, t
            ids = []
            for k in range(m):
                if k:
                    prev, cur = cur, list(map(sub, roots.times(m, cur), prev))
                key = roots.key(cur)
                wall = walls.get(key)
                if wall is None:
                    wall = walls[key] = len(origins)
                    origins.append(chamber * n + x)
                ids.append(wall)
                chamber, x, y = ball.edges[chamber][x], y, x
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
            alpha, beta = origins[pair >> 32], origins[pair & 0xFFFFFFFF]
            checks.append(
                Comparison(
                    {"alpha": _reflection_word(ball, alpha),
                     "beta": _reflection_word(ball, beta)},
                    count, 1, "<=", False,
                )
            )
    return VerificationReport("L24", 0, ball.depth, tuple(checks), checked, 0)


def _gate_of(ball: Ball, start: int, s: int, t: int) -> int:
    cur = start
    while True:
        row = ball.edges[cur]
        lc = ball.lengths[cur]
        stepped = False
        for letter in (s, t):
            j = row[letter]
            if j >= 0 and ball.lengths[j] < lc:
                cur = j
                stepped = True
                break
        if not stepped:
            return cur


def verify_projection_collapse(ball: Ball, gate: bool = True) -> VerificationReport:
    """Of two rank-2 residues meeting in a panel, the farther one projects
    the identity onto that panel's nearer chamber.

    For residues R, T with panel P = R intersect T and the gate of R
    strictly closer to the identity than the gate of T, the gate of T must
    be the shorter chamber of P.  Needs every pairwise order finite and
    >= 3.
    """
    if gate:
        require_complete_two_spherical(ball.matrix)
    n = ball.matrix.rank
    checks = []
    checked = 0
    for w in range(ball.size):
        lw = ball.lengths[w]
        for s in range(n):
            x = ball.edges[w][s]
            if x < 0 or ball.lengths[x] < lw:
                continue
            # panel {w, x} with w the chamber nearer the identity
            others = [t for t in range(n) if t != s]
            for t, u in combinations(others, 2):
                g1 = _gate_of(ball, w, s, t)
                g2 = _gate_of(ball, w, s, u)
                l1, l2 = ball.lengths[g1], ball.lengths[g2]
                if l1 == l2:
                    continue
                far = g2 if l1 < l2 else g1
                checked += 1
                if far != w:
                    checks.append(
                        Comparison(
                            {"panel": _word_str(ball, w), "letter": s,
                             "pair": f"{t},{u}"},
                            _word_str(ball, far), _word_str(ball, w), "==", False,
                        )
                    )
    return VerificationReport("P29", 0, ball.depth, tuple(checks), checked)


def verify_exit_ascent(ball: Ball, gate: bool = True) -> VerificationReport:
    """Leaving a rank-2 residue above its gate ascends.

    If both ws and wt ascend from w, then for every w' in <s, t> of length
    at least 2 and every third generator r the product w w' r has length
    length(w) + length(w') + 1.  Needs every pairwise order finite and
    >= 3.
    """
    if gate:
        require_complete_two_spherical(ball.matrix)
    n = ball.matrix.rank
    checks = []
    checked = 0
    skipped = 0
    for w in range(ball.size):
        lw = ball.lengths[w]
        row = ball.edges[w]
        for s, t in combinations(range(n), 2):
            if row[s] < 0 or ball.lengths[row[s]] < lw:
                continue
            if row[t] < 0 or ball.lengths[row[t]] < lw:
                continue
            m = ball.matrix.order(s, t)
            if m == INF:
                continue
            m = int(m)
            third = [r for r in range(n) if r != s and r != t]
            for first in (s, t):
                second = t if first == s else s
                top = m if first == s else m - 1  # the longest word only once
                for k in range(2, top + 1):
                    if lw + k + 1 > ball.depth:
                        skipped += len(third)
                        continue
                    inner = _alternating(first, second, k)
                    mid = w
                    for letter in inner:
                        mid = ball.edges[mid][letter]
                        assert mid >= 0, "ascent within a residue left the ball"
                    for r in third:
                        checked += 1
                        target = ball.edges[mid][r]
                        if ball.lengths[target] != lw + k + 1:
                            checks.append(
                                Comparison(
                                    {"w": _word_str(ball, w),
                                     "inner": "".join(map(str, inner)),
                                     "r": r},
                                    ball.lengths[target], lw + k + 1, "==", False,
                                )
                            )
    return VerificationReport("C210", 0, ball.depth, tuple(checks), checked, skipped)


def verify_not_both_down(ball: Ball, gate: bool = True) -> VerificationReport:
    """If ws and wt both ascend, no third letter r descends from both.

    Checks length(w s r) = length(w) + 2 or length(w t r) = length(w) + 2
    whenever both ws and wt ascend.  Needs every pairwise order >= 4; run
    with gate=False to hunt counterexamples on systems with triple edges.
    """
    if gate:
        for s, t in combinations(range(ball.matrix.rank), 2):
            if ball.matrix.order(s, t) < 4:
                raise HypothesisError(
                    f"pair ({s},{t}) has order {ball.matrix.order(s, t)} < 4"
                )
    n = ball.matrix.rank
    checks = []
    checked = 0
    skipped = 0
    for w in range(ball.size):
        lw = ball.lengths[w]
        row = ball.edges[w]
        for s, t in combinations(range(n), 2):
            ws, wt = row[s], row[t]
            if ws < 0 or ball.lengths[ws] < lw:
                continue
            if wt < 0 or ball.lengths[wt] < lw:
                continue
            for r in range(n):
                if r == s or r == t:
                    continue
                a = ball.edges[ws][r]
                b = ball.edges[wt][r]
                la = ball.lengths[a] if a >= 0 else None
                lb = ball.lengths[b] if b >= 0 else None
                if la == lw + 2 or lb == lw + 2:
                    checked += 1
                    continue
                if la is None or lb is None:
                    skipped += 1
                    continue
                checked += 1
                checks.append(
                    Comparison(
                        {"w": _word_str(ball, w), "s": s, "t": t, "r": r},
                        (la, lb), lw + 2, "in", False,
                    )
                )
    return VerificationReport("L211", 0, ball.depth, tuple(checks), checked, skipped)


def gallery_crossings(ball: Ball, chamber: int) -> list[int]:
    """Reflections of the walls crossed by the canonical minimal gallery.

    Wall-crossing sets are gallery independent, so any minimal gallery
    would do; this one follows the canonical word.  Raises when a crossing
    reflection cannot be folded inside the ball.
    """
    out = []
    prefix = 0
    for s in ball.word(chamber):
        cur = ball.edges[prefix][s]
        refl = ball.fold_inverse(cur, prefix)
        if refl is None:
            raise DepthExceededError("crossing reflection leaves the ball")
        out.append(refl)
        prefix = cur
    return out
