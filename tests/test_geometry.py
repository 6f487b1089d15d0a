import random
import time
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import coxeter_matrices, cyclotomic_by_division, get_ball, perfbench_matrices
from coxgrowth import (
    INF,
    DiagramNotCompleteError,
    GeneratorOutOfRangeError,
    HypothesisError,
    build_ball,
    compute_stats,
    oracle_reduce,
    path_matrix,
    rank2_complete_residues,
    reflections,
    residue,
    uniform_matrix,
    validate_matrix,
    verify_exit_ascent,
    verify_not_both_down,
    verify_projection_collapse,
    verify_wall_pair_uniqueness,
)
from coxgrowth import roots as roots_module
from coxgrowth.ball import _alternating, walk_ball
from coxgrowth.coxmatrix import cyclotomic_ring
from coxgrowth.geometry import _word_str
from coxgrowth.report import Comparison, VerificationReport
from coxgrowth.roots import Roots


# -- residues ---------------------------------------------------------------


def test_residue_of_identity_is_dihedral():
    ball = get_ball(uniform_matrix(3, 4), 6)
    res = residue(ball, 0, (0, 1))
    assert res.complete
    assert len(res.members) == 8
    assert res.gate == 0


def test_residue_rejects_generators_outside_the_system():
    ball = get_ball(uniform_matrix(3, 4), 6)
    for gens in ((-1,), (3,), (0, 5)):
        with pytest.raises(GeneratorOutOfRangeError):
            residue(ball, 0, gens)


def test_residue_rejects_chambers_outside_the_ball():
    ball = get_ball(uniform_matrix(3, 4), 4)
    for chamber in (-1, ball.size):
        with pytest.raises(IndexError, match="outside the ball"):
            residue(ball, chamber, (0, 1))


def test_residue_membership_and_connectivity():
    ball = get_ball(uniform_matrix(3, 4), 6)
    start = ball.index((2, 0))
    res = residue(ball, start, (0, 1))
    assert start in res.members
    # every member reaches the gate by descending inside the residue
    assert ball.lengths[res.gate] == min(ball.lengths[m] for m in res.members)
    gates = [m for m in res.members
             if ball.lengths[m] == ball.lengths[res.gate]]
    assert gates == [res.gate]


def test_residue_incomplete_near_rim():
    ball = build_ball(uniform_matrix(3, 4), 3)
    start = ball.index((2,))
    res = residue(ball, start, (0, 1))
    assert not res.complete
    assert len(res.members) < 8


def test_rank2_enumeration_counts():
    ball = get_ball(uniform_matrix(3, 4), 6)
    triples = rank2_complete_residues(ball)
    assert triples == sorted(triples)  # gate order, then pair order
    for g, s, t in triples:
        res = residue(ball, g, (s, t))
        assert res.complete and len(res.members) == 8 and res.gate == g
    # gates are exactly the chambers with no descent in the pair, low enough
    for pair in ((0, 1), (0, 2), (1, 2)):
        expected = sum(
            1
            for idx in range(ball.size)
            if ball.lengths[idx] + 4 <= 6
            and not (set(ball.descent_indices(idx)) & set(pair))
        )
        got = sum(1 for _, s, t in triples if (s, t) == pair)
        assert got == expected


# -- reflections and left multiplication ---------------------------------------


def test_reflections_match_oracle_conjugates():
    matrix = uniform_matrix(3, 4)
    ball = get_ball(matrix, 5)
    expected = set()
    for k in range(3):
        for u in product(range(3), repeat=k):
            for s in range(3):
                w = oracle_reduce(u + (s,) + tuple(reversed(u)), matrix)
                if len(w) <= 5:
                    expected.add(w)
    got = {ball.word(idx) for idx in reflections(ball)}
    assert got == expected


_INVERSES = weakref.WeakKeyDictionary()


def inverse_table(ball):
    """Each element's inverse, folded onto the identity (same length, so in the ball)."""
    table = _INVERSES.get(ball)
    if table is None:
        table = _INVERSES[ball] = [ball.fold_inverse(0, g) for g in range(ball.size)]
    return table


def left_apply(ball, g, x):
    """Index of g * x, or None when an intermediate leaves the ball.

    Folds x^{-1} g^{-1} through the ball and inverts once; its intermediates
    are the inverses of those of g * x built letter by letter on the left,
    so both leave the ball at the same step.
    """
    inverse = inverse_table(ball)
    got = ball.fold_inverse(inverse[x], g)
    return None if got is None else inverse[got]


def left_apply_by_letters(ball, inverse, word, x):
    """g * x built one letter at a time on the left: s * y = (y^{-1} s)^{-1}.

    `word` is the canonical word of g and `inverse` the ball's inverse table.
    """
    cur = x
    for s in reversed(word):
        j = ball.edges[inverse[cur]][s]
        if j < 0:
            return None
        cur = inverse[j]
    return cur


def assert_left_apply_matches_letters(ball):
    inverse = inverse_table(ball)
    words = [ball.word(idx) for idx in range(ball.size)]
    for g, word in enumerate(words):
        for x in range(ball.size):
            got = left_apply(ball, g, x)
            assert got == left_apply_by_letters(ball, inverse, word, x)
            if got is not None:
                assert words[got] == oracle_reduce(word + words[x], ball.matrix)


@pytest.mark.parametrize("matrix_args,depth", [((3, 4), 6), ((4, 3), 5)])
def test_left_apply_matches_letter_by_letter(matrix_args, depth):
    assert_left_apply_matches_letters(get_ball(uniform_matrix(*matrix_args), depth))


@settings(max_examples=40, deadline=None)
@given(coxeter_matrices(max_rank=4))
def test_left_apply_matches_letter_by_letter_random(matrix):
    assert_left_apply_matches_letters(build_ball(matrix, 5))


def test_reflections_are_involutions():
    ball = get_ball(uniform_matrix(3, 4), 6)
    for refl in reflections(ball):
        assert left_apply(ball, refl, refl) == 0


# -- galleries ---------------------------------------------------------------


def gallery_walls(ball, roots, word):
    """Keys of the walls p_k alpha_{s_k} that the gallery of `word` crosses."""
    out = []
    prefix = 0
    for s in word:
        out.append(roots.key(fold(roots, ball, prefix, (s,))[0]))
        prefix = ball.edges[prefix][s]
    return out


def test_crossings_walk_the_panels():
    # the k-th wall of a gallery is that of the panel {p_k, p_k s_k}: seen
    # from p_k s_k its root is p_k s_k alpha_{s_k} = -p_k alpha_{s_k}
    for matrix in (uniform_matrix(3, 4), validate_matrix([[1, 5, 6], [5, 1, 7], [6, 7, 1]])):
        ball = get_ball(matrix, 8)
        roots = Roots(ball.matrix, ball.lengths[-1])
        word = (0, 1, 2, 0)
        prefix = 0
        for s in word:
            nxt = ball.edges[prefix][s]
            near = reduce(matrix, roots.unpack(fold(roots, ball, prefix, (s,))[0]))
            far = reduce(matrix, roots.unpack(fold(roots, ball, nxt, (s,))[0]))
            assert any(near) and far == [-a for a in near]
            prefix = nxt
        assert prefix == ball.index(word)


def test_minimal_gallery_crosses_each_wall_once():
    # the walls crossed along a reduced word are distinct, one per letter,
    # on every element of (4,4,4) to depth 9 and on the whole of H3
    h3 = validate_matrix([[1, 3, 2], [3, 1, 5], [2, 5, 1]])
    for matrix, depth in ((uniform_matrix(3, 4), 9), (h3, 15)):
        ball = get_ball(matrix, depth)
        roots = Roots(matrix, ball.lengths[-1])
        for idx in range(ball.size):
            walls = gallery_walls(ball, roots, ball.word(idx))
            assert len(set(walls)) == ball.lengths[idx]
    # a word that is not reduced crosses a wall twice: (0, 1, 1) only two
    assert len(set(gallery_walls(ball, roots, (0, 1, 1)))) == 2


# -- verifier scans ----------------------------------------------------------


def test_projection_collapse_scans():
    report = verify_projection_collapse(get_ball(uniform_matrix(3, 4), 8))
    assert report.holds and report.checked > 0
    report = verify_projection_collapse(get_ball(uniform_matrix(4, 3), 6))
    assert report.holds and report.checked > 0


def test_projection_collapse_gate():
    with pytest.raises(DiagramNotCompleteError):
        verify_projection_collapse(get_ball(path_matrix([3, 3]), 4))
    loose = validate_matrix([[1, 4, 0], [4, 1, 4], [0, 4, 1]])
    with pytest.raises(HypothesisError):
        verify_projection_collapse(build_ball(loose, 4))


def test_exit_ascent_scans():
    report = verify_exit_ascent(get_ball(uniform_matrix(3, 4), 8))
    assert report.holds and report.checked > 0 and report.skipped > 0
    report = verify_exit_ascent(get_ball(uniform_matrix(4, 3), 6))
    assert report.holds


def test_exit_ascent_base_example():
    # from the identity with w' = st and the third letter r: length 3
    ball = get_ball(uniform_matrix(3, 4), 6)
    idx = ball.index((0, 1, 2))
    assert ball.lengths[idx] == 3


def test_not_both_down_holds_with_label_four():
    report = verify_not_both_down(get_ball(uniform_matrix(3, 4), 8))
    assert report.holds and report.checked > 0


def test_not_both_down_holds_with_label_five():
    report = verify_not_both_down(get_ball(uniform_matrix(3, 5), 8))
    assert report.holds and report.checked > 0


def test_not_both_down_gate():
    with pytest.raises(HypothesisError):
        verify_not_both_down(get_ball(uniform_matrix(3, 3), 6))


def test_not_both_down_affine_counterexample():
    report = verify_not_both_down(get_ball(uniform_matrix(3, 3), 8), gate=False)
    assert not report.holds
    assert len(report.failures) >= 1
    # a violation pins a chamber where both continuations drop
    bad = report.failures[0]
    assert bad.relation == "in"
    assert bad.ok is False


def test_wall_pair_uniqueness_scans():
    # checked counts wall pairs, six per residue when no pair repeats
    report = verify_wall_pair_uniqueness(get_ball(uniform_matrix(3, 4), 8))
    assert report.holds
    assert (report.checked, report.skipped) == (252, 0)
    report = verify_wall_pair_uniqueness(get_ball(uniform_matrix(4, 3), 6))
    assert report.holds
    assert (report.checked, report.skipped) == (396, 0)


# -- walls as roots against the reflection scan --------------------------------


def _cuts(ball, refl, chambers):
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


def cut_scan(ball, residues):
    """The former L24 scan: _cuts of every in-ball reflection on every residue.

    Maps (reflection, residue position) to whether the reflection's wall
    cuts the residue, for every pair that _cuts decides.
    """
    return {(refl, pos): got
            for refl in reflections(ball)
            for pos, res in enumerate(residues)
            if (got := _cuts(ball, refl, res.members)) is not None}


def complete_residues(ball):
    """Each (gate, s, t) of rank2_complete_residues as the `residue` walked from its gate."""
    return [residue(ball, g, (s, t)) for g, s, t in rank2_complete_residues(ball)]


def cut_scan_failures(ball):
    """Reflection pairs whose walls the scan finds cutting two or more residues."""
    residues = complete_residues(ball)
    cut_sets = {}
    for (refl, pos), cut in cut_scan(ball, residues).items():
        if cut:
            cut_sets.setdefault(refl, set()).add(pos)
    return [(a, b) for a, b in combinations(sorted(cut_sets), 2)
            if len(cut_sets[a] & cut_sets[b]) > 1]


def reflection_keys(ball, roots):
    """Root key of each in-ball reflection u s u^-1, alike for every (u, s) giving it."""
    keys = {}
    for u in range(ball.size):
        if 2 * ball.lengths[u] + 1 <= ball.depth:
            for s in range(ball.matrix.rank):
                refl = ball.fold_inverse(ball.edges[u][s], u)
                key = roots.key(fold(roots, ball, u, (s,))[0])
                assert keys.setdefault(refl, key) == key
    assert len(set(keys.values())) == len(keys)
    return keys


def chain_walls(ball, roots, res):
    """Keys of p_k alpha_{x_k} along the chain g, gs, gst, ..., each folded alone."""
    chamber, x, y = res.gate, *res.gens
    out = []
    for _ in range(len(res.members) // 2):
        out.append(roots.key(fold(roots, ball, chamber, (x,))[0]))
        chamber, x, y = ball.edges[chamber][x], y, x
    assert len(set(out)) == len(out)
    return out


def wall_of(ball, roots, word):
    """Root key of the wall named by a failure's reflection word p x p^-1."""
    half = len(word) // 2
    chamber = ball.index(tuple(map(int, word[:half])))
    return roots.key(fold(roots, ball, chamber, (int(word[half]),))[0])


def reported_failures(ball, roots, report):
    """The failing wall pairs of an L24 report, as sets of root keys."""
    return {frozenset((wall_of(ball, roots, c.where["alpha"]),
                       wall_of(ball, roots, c.where["beta"]))): c.lhs
            for c in report.failures}


def assert_root_walls_match_cut_scan(ball):
    """Root keys agree with _cuts wherever it decides, and L24 counts their pairs."""
    roots = Roots(ball.matrix, ball.lengths[-1])
    keys = reflection_keys(ball, roots)
    residues = complete_residues(ball)
    walls = [chain_walls(ball, roots, res) for res in residues]
    decided = cut_scan(ball, residues)
    for (refl, pos), cut in decided.items():
        assert (keys[refl] in walls[pos]) == cut
    pairs = Counter(frozenset(pair) for w in walls for pair in combinations(w, 2))
    report = verify_wall_pair_uniqueness(ball, gate=False)
    assert report.skipped == 0
    assert report.checked == len(pairs)
    assert reported_failures(ball, roots, report) == {
        pair: count for pair, count in pairs.items() if count > 1}
    return len(decided), len(keys) * len(residues)


def reduce(matrix, v):
    """A vector laid out as `Roots` lays it out, in Z[zeta_N]^rank: rank * phi(N)
    coefficients, cell c of coordinate j at c * rank + j, through `cyclotomic_ring`."""
    _, phi, _, cells = cyclotomic_ring(matrix)
    n = matrix.rank
    out = [0] * (n * phi)
    for i, a in enumerate(v):
        if a:
            e, j = divmod(i, n)
            for cell, sign in cells(e):
                out[cell * n + j] += sign * a
    return out


def exact_det(rows):
    """Determinant over the rationals, by elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for i in range(len(a)):
        pivot = next((r for r in range(i, len(a)) if a[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, len(a)):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return det


@pytest.mark.parametrize("m", [INF, 2, 3, 4, 5, 6, 8, 9, 12, 15, 35, 105])
def test_root_reduction_is_a_basis_of_the_cyclotomic_integers(m):
    # the map of `cyclotomic_ring`, which L24 and the small roots share, kills
    # every multiple of Phi_N and is unimodular on the powers x^e e_j
    # (e < phi(N)), so it is the coordinate map of Z[zeta_N]^rank in an
    # integer basis: two roots get the same key exactly when they are equal.
    # N is 2 for I2(2) and I2(3), so their shortcuts are checked where a
    # label of 6 makes N = 12, which holds 2m for both
    rows = [[1, m], [m, 1]] if m not in (2, 3) else [[1, m, 6], [m, 1, 6], [6, 6, 1]]
    matrix = validate_matrix(rows)
    roots = Roots(matrix, 1)
    n, half = len(rows), roots.big // 2
    phi = cyclotomic_by_division(roots.big)
    d = len(phi) - 1
    assert cyclotomic_ring(matrix)[1] == d

    def vector(poly, j):
        # a polynomial in coordinate j, with x^half = -1
        v = [0] * (n * half)
        for e, c in enumerate(poly):
            v[e % half * n + j] += -c if e // half % 2 else c
        return v

    for e in range(half):
        assert not any(reduce(matrix, vector((0,) * e + phi, 1)))
    basis = [reduce(matrix, vector((0,) * e + (1,), j)) for e in range(d) for j in range(n)]
    assert len(basis[0]) == n * d
    assert abs(exact_det(basis)) == 1
    if m != INF:
        # the shortcuts for m = 2 and 3 are zeta^a + zeta^-a as well
        a = roots.big // (2 * m)
        unit = vector((1,), 0)
        generic = vector((0,) * a + (1,), 0)
        generic = [x + y for x, y in zip(generic, vector((0,) * (roots.big - a) + (1,), 0))]
        assert reduce(matrix, roots.unpack(roots.times(m, pack(roots, unit)))) == reduce(matrix, generic)


FINITE_RANK3 = validate_matrix([[1, 3, 2, 4], [3, 1, 3, 4], [2, 3, 1, 4], [4, 4, 4, 1]])


def sparse_fold(ball, half, g, letters):
    """g alpha_x for each letter x, folding g's parent chain onto alpha_x.

    The oracle of `Roots.images`, written apart from `Roots.times` and
    `Roots.reflection`.  A root is a list of sparse coordinates {e: a}, each
    the sum of a x^e in Z[x]/(x^half + 1), so a step costs the terms it
    reads and not half.  c_sj = -2B(alpha_s, alpha_j) is x^a + x^-a =
    x^a - x^(half - a) with a = half/m_sj, 1 for m_sj = 3 and 2 for inf.
    """
    def terms(m):
        # c for the label m, as (shift, coefficient) pairs
        if m == INF:
            return [(0, 2)]
        if m == 3:
            return [(0, 1)]
        return [(half // m, 1), (half - half // m, -1)]

    n = ball.matrix.rank
    rows = [[(j, terms(m)) for j, m in enumerate(row) if j != s and m != 2]
            for s, row in enumerate(ball.matrix.entries)]
    out = [[{0: 1} if j == x else {} for j in range(n)] for x in letters]
    parent, letter = ball.parent, ball.letter
    while g:
        s = letter[g]
        for root in out:
            # s maps coordinate s to -root_s + sum over j of c_sj root_j
            new = {e: -a for e, a in root[s].items()}
            for j, c in rows[s]:
                for shift, k in c:
                    for e, a in root[j].items():
                        f, b = e + shift, k * a
                        if f >= half:  # x^half = -1
                            f, b = f - half, -b
                        new[f] = new.get(f, 0) + b
            root[s] = {e: a for e, a in new.items() if a}
        g = parent[g]
    return out


def dense(root, half):
    """A sparse root as `Roots` lays it out: coefficient e of coordinate j at e * rank + j."""
    n = len(root)
    v = [0] * (n * half)
    for j, coordinate in enumerate(root):
        for e, a in coordinate.items():
            v[e * n + j] = a
    return v


def pack(roots, v):
    """A vector of digits packed as `Roots` packs it: digit i times 2^(width * i)."""
    return sum(a << roots.width * i for i, a in enumerate(v))


def fold(roots, ball, g, letters):
    """`sparse_fold`'s roots, packed as `Roots` packs them."""
    half = roots.big // 2
    return [pack(roots, dense(root, half)) for root in sparse_fold(ball, half, g, letters)]


def assert_images_match_fold(ball, seed):
    """`Roots.images` equals the fold of every element, asked for in index
    order and then in a shuffled order, so that it pops back to short prefixes."""
    roots = Roots(ball.matrix, ball.lengths[-1])
    images = roots.images(ball)
    half = roots.big // 2
    letters = range(ball.matrix.rank)
    folds = [sparse_fold(ball, half, g, letters) for g in range(ball.size)]
    order = list(range(ball.size))
    for g in order:
        assert list(map(roots.unpack, images(g))) == [dense(root, half) for root in folds[g]]
    random.Random(seed).shuffle(order)
    for g in order:
        assert list(map(roots.unpack, images(g))) == [dense(root, half) for root in folds[g]]


@pytest.mark.parametrize("matrix,depth", [
    pytest.param(uniform_matrix(4, 4), 6, id="u44"),
    pytest.param(uniform_matrix(3, 4), 9, id="(4,4,4)"),
    pytest.param(FINITE_RANK3, 7, id="finite-rank-3"),
    pytest.param(validate_matrix([[1, 5, 7], [5, 1, 11], [7, 11, 1]]), 8, id="(5,7,11)"),
    pytest.param(perfbench_matrices()["mixed"], 6, id="perfbench-mixed"),
])
def test_images_match_fold(matrix, depth):
    assert_images_match_fold(get_ball(matrix, depth), depth)


@settings(max_examples=30, deadline=None)
@given(coxeter_matrices(max_rank=5, labels=(2, 3, 4, 5, 6, 7, INF)), st.integers(0, 5),
       st.integers(0, 2**32))
def test_images_match_fold_random(matrix, depth, seed):
    assert_images_match_fold(build_ball(matrix, depth), seed)


@pytest.mark.parametrize("longest", [0, 5, 12, 39, 40, 100])
@pytest.mark.parametrize("matrix", [
    pytest.param(uniform_matrix(3, 4), id="(4,4,4)"),
    pytest.param(validate_matrix([[1, 5, 7], [5, 1, INF], [7, INF, 1]]), id="(5,7,inf)"),
])
def test_pack_round_trips_at_the_widest_digits(matrix, longest):
    # widths of 8, 16, 32 and 64 bits are read by memoryview.cast, wider ones
    # digit by digit; each holds 3^longest
    roots = Roots(matrix, longest)
    width = roots.width
    assert 3 ** longest <= 2 ** (width - 1) - 1
    edge = 2 ** (width - 1) - 1
    count = matrix.rank * roots.big // 2
    rng = random.Random(longest)
    for v in ([edge] * count, [-edge] * count,
              [rng.choice((edge, -edge, 0, 1, -1)) for _ in range(count)]):
        packed = pack(roots, v)
        assert roots.unpack(packed) == v
        assert roots.unpack(-packed) == [-a for a in v]


def test_width_follows_the_longest_element_not_the_depth():
    # I2(5) has 10 elements, the longest of length 5, however deep the ball
    matrix = uniform_matrix(2, 5)
    made = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roots_module, "Roots", lambda *args: made.append(Roots(*args)) or made[-1])
        report = verify_wall_pair_uniqueness(build_ball(matrix, 10_000))
    assert report.holds and report.checked == 10
    assert made[0].width == Roots(matrix, 5).width == 16


@settings(max_examples=40, deadline=None)
@given(coxeter_matrices(max_rank=4, labels=(2, 3, 5, 7, INF)), st.integers(4, 7))
@example(validate_matrix([[1, 5, 7], [5, 1, INF], [7, INF, 1]]), 9)
def test_keyed_digits_stay_within_three_to_the_longest(matrix, depth):
    # the bound the width of `Roots` rests on: every root L24 keys has its
    # coefficients within 3^L, L the ball's longest length; read with room to spare
    ball = build_ball(matrix, depth)
    top = [0]

    class Wide(Roots):
        def __init__(self, matrix, longest):
            super().__init__(matrix, longest + 64)

        def key(self, root):
            top[0] = max(top[0], *map(abs, self.unpack(root)))
            return super().key(root)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roots_module, "Roots", Wide)
        wide = verify_wall_pair_uniqueness(ball, gate=False)
    assert top[0] <= 3 ** ball.lengths[-1]
    assert wide == verify_wall_pair_uniqueness(ball, gate=False)


@settings(max_examples=40, deadline=None)
@given(coxeter_matrices(max_rank=4, labels=(2, 3, 4, 5, 6, 8, INF)), st.integers(4, 7))
@example(uniform_matrix(4, 4), 7)
@example(validate_matrix([[1, 5, 6], [5, 1, 4], [6, 4, 1]]), 7)
def test_int_keys_split_walls_as_the_reduction_does(matrix, depth):
    # a key is one int: the packed root up to sign when N is a power of 2,
    # else its packed reduction.  It must split the walls L24
    # keys as the reduction through `cyclotomic_ring` does, with its first
    # nonzero coefficient made positive.  L24's roots are all positive (a
    # gate maps the positive roots of its pair to positive roots), so each
    # is keyed with its negation as well
    ball = build_ball(matrix, depth)
    split = {}

    class Both(Roots):
        def __init__(self, matrix, longest):
            super().__init__(matrix, longest)
            self.matrix = matrix

        def key(self, root):
            flat = reduce(self.matrix, self.unpack(root))
            sign = 1 if next(a for a in flat if a) > 0 else -1
            got = super().key(root)
            assert super().key(-root) == got
            split.setdefault(got, set()).add(tuple(sign * a for a in flat))
            return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roots_module, "Roots", Both)
        verify_wall_pair_uniqueness(ball, gate=False)
    assert all(len(reduced) == 1 for reduced in split.values())
    assert len(set().union(*split.values())) == len(split)


@pytest.mark.parametrize("longest", [3, 18, 39, 44])
@pytest.mark.parametrize("labels", [(5, 7, 11), (9, 4, 15), (6, 10, 15), (12, 8, 25)], ids=str)
def test_keys_stay_distinct_at_the_widest_reduced_coefficient(labels, longest):
    # a cell gathers at most 2^k digits, k the odd prime powers of N (3 for
    # (5,7,11), 2 for the others), so with each at 3^L, the widest digit L24
    # forms, the cell's coefficient reaches 2^k 3^L.  Its field must hold it
    # apart from its neighbours.  At these lengths the k bits take the field
    # past 1, 4 and 8 bytes (3 and 18 only for k = 3), and to 10 bytes at 44
    matrix = validate_matrix([[1, labels[0], labels[1]], [labels[0], 1, labels[2]],
                              [labels[1], labels[2], 1]])
    roots = Roots(matrix, longest)
    big, _, k, cells = cyclotomic_ring(matrix)
    n, half, widest = 3, big // 2, 3 ** longest
    into = {}
    for e in range(half):
        for cell, sign in cells(e):
            into.setdefault(cell, []).append((e, sign))
    assert max(map(len, into.values())) == 2 ** k
    full = [cell for cell, found in into.items() if len(found) == 2 ** k]
    variants = []
    for cell, j in ((full[0], 1), (full[-1], 1)):
        v = [0] * (n * half)
        for e, sign in into[cell]:
            v[e * n + j] = sign * widest
        assert reduce(matrix, v)[cell * n + j] == 2 ** k * widest
        variants.append(v)
        for e, sign in into[cell][:2]:  # one digit less, or one neighbour more
            for i, step in ((e * n + j, -sign), (e * n + j - 1, 1), (e * n + j + 1, -1)):
                w = v[:]
                w[i] += step
                variants.append(w)
    keys = [roots.key(pack(roots, v)) for v in variants]
    assert keys == [roots.key(-pack(roots, v)) for v in variants]
    reduced = {tuple(reduce(matrix, v)) for v in variants}
    assert len(set(keys)) == len(reduced) == len(variants)


@pytest.mark.parametrize("labels,depth,checked", [
    pytest.param((5, 7, 11), 12, 1_991, id="(5,7,11)"),
    pytest.param((7, 9, 11), 12, 1_070, id="(7,9,11)"),
    pytest.param((11, 13, 17), 12, 110, id="(11,13,17)"),
    pytest.param((2, 3, 6), 45, 4_455, id="(2,3,6)"),
])
def test_wall_pair_counts_on_multi_prime_rings(labels, depth, checked):
    # N = 770, 1386, 4862 and 12; at depth 45 the digits of (2,3,6) are wider
    # than 8 bytes and the key takes the to_bytes path
    a, b, c = labels
    ball = get_ball(validate_matrix([[1, a, b], [a, 1, c], [b, c, 1]]), depth)
    report = verify_wall_pair_uniqueness(ball, gate=False)
    assert report.holds and (report.checked, report.skipped) == (checked, 0)


@pytest.mark.parametrize("matrix,depth", [
    pytest.param(uniform_matrix(3, 4), 8, id="(4,4,4)"),
    pytest.param(uniform_matrix(4, 4), 7, id="uniform(4,4)"),
    pytest.param(validate_matrix([[1, 4, 5], [4, 1, 6], [5, 6, 1]]), 9, id="(4,5,6)"),
    pytest.param(
        validate_matrix([[1, 3, 4, INF], [3, 1, 5, 4], [4, 5, 1, 3], [INF, 4, 3, 1]]),
        7, id="mixed",
    ),
    pytest.param(uniform_matrix(3, 3), 8, id="(3,3,3)"),
    pytest.param(FINITE_RANK3, 7, id="finite-rank-3"),
])
def test_root_walls_match_cut_scan(matrix, depth):
    decided, pairs = assert_root_walls_match_cut_scan(get_ball(matrix, depth))
    assert 0 < decided < pairs  # the scan skips some pairs the roots decide


@pytest.mark.parametrize("labels,depth", [
    pytest.param((5, 7, 11), 10, id="(5,7,11)"),
    pytest.param((11, 13, 17), 12, id="(11,13,17)"),
])
def test_root_walls_with_large_labels_stay_cheap(labels, depth):
    # N = 770 and 4862: each wall costs O(N), where a dense product mod
    # Phi_N cost phi(N)^2 per coordinate and its tables took minutes to build
    a, b, c = labels
    ball = get_ball(validate_matrix([[1, a, b], [a, 1, c], [b, c, 1]]), depth)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = verify_wall_pair_uniqueness(ball)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds and report.checked > 0 and report.skipped == 0
    assert peak <= 4 * 1024 * 1024
    assert seconds < 10
    assert_root_walls_match_cut_scan(ball)


@settings(max_examples=60, deadline=None)
@given(coxeter_matrices(max_rank=4))
def test_root_walls_match_cut_scan_random(matrix):
    assert_root_walls_match_cut_scan(build_ball(matrix, 6))


def test_wall_pair_uniqueness_diagnostic():
    # a finite rank-3 subsystem: wall pairs collide, and the roots see every
    # collision the reflection scan sees, plus those it cannot decide
    ball = get_ball(FINITE_RANK3, 7)
    roots = Roots(ball.matrix, ball.lengths[-1])
    report = verify_wall_pair_uniqueness(ball, gate=False)
    assert not report.holds and report.skipped == 0
    found = reported_failures(ball, roots, report)
    assert len(found) == len(report.failures) == 62
    keys = reflection_keys(ball, roots)
    scanned = {frozenset((keys[a], keys[b])) for a, b in cut_scan_failures(ball)}
    assert len(scanned) == 39
    assert scanned <= set(found)


def test_wall_pair_uniqueness_memory():
    # one rendered root per wall and one int per wall pair peak at about
    # 440 KB here; a dict counting the pairs beside the roots took 600 KB
    ball = build_ball(uniform_matrix(4, 4), 8)
    tracemalloc.start()
    try:
        report = verify_wall_pair_uniqueness(ball)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds
    assert peak <= 640 * 1024


def test_wall_pair_uniqueness_memory_with_large_labels():
    # N = 770: the ball (1.6 MB) and L24 peak at about 3.9 MB together, with
    # the images of one gate's prefixes at a time; keeping every gate's
    # images instead took 8.1 MB
    matrix = validate_matrix([[1, 5, 7], [5, 1, 11], [7, 11, 1]])
    tracemalloc.start()
    try:
        report = verify_wall_pair_uniqueness(build_ball(matrix, 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds and report.checked == 1_991
    assert peak <= 4.5 * 1024 * 1024


@settings(max_examples=40, deadline=None)
@given(coxeter_matrices(max_rank=4, labels=(2, 3, 4, 13, 16, INF)), st.integers(3, 4))
@example(validate_matrix([[1, 13, 16, 3], [13, 1, 4, INF], [16, 4, 1, 2], [3, INF, 2, 1]]), 3)
def test_walls_in_the_bounded_ring_match_the_full_ring(matrix, depth):
    # L24 reads labels above 4 depth as inf: at depth 3 the ring of 13 and 16
    # (N = 416) is not built, and the full ring must find the same equal walls
    ball = build_ball(matrix, depth)
    bounded = verify_wall_pair_uniqueness(ball, gate=False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roots_module, "Roots", lambda _, longest: Roots(matrix, longest))
        full = verify_wall_pair_uniqueness(ball, gate=False)
    assert bounded == full


def test_wall_pair_uniqueness_gate():
    with pytest.raises(HypothesisError):
        verify_wall_pair_uniqueness(get_ball(path_matrix([3, 3]), 4))


def test_scan_reports_serialize_with_skips():
    report = verify_exit_ascent(get_ball(uniform_matrix(3, 4), 8))
    data = report.to_dict()
    assert data["lemma"] == "C210"
    assert data["verdict"] == "holds"
    assert data["skipped"] == report.skipped
    assert data["checked"] == report.checked


# -- mask-driven scans against the edge walks they replaced -------------------


def gate_by_edges(ball, start, s, t):
    """The gate of start<s,t>, walked down by whichever of s, t descends."""
    cur = start
    while True:
        row = ball.edges[cur]
        down = [j for j in (row[s], row[t]) if j >= 0 and ball.lengths[j] < ball.lengths[cur]]
        if not down:
            return cur
        cur = down[0]


def ascends(ball, w, s):
    """Whether ws lies in the ball one layer above w."""
    j = ball.edges[w][s]
    return j >= 0 and ball.lengths[j] > ball.lengths[w]


def p29_by_edges(ball):
    """The former P29 scan: two gate walks per panel and pair of residues."""
    n = ball.matrix.rank
    checks, checked = [], 0
    for w in range(ball.size):
        for s in range(n):
            if not ascends(ball, w, s):
                continue
            for t, u in combinations([x for x in range(n) if x != s], 2):
                g1, g2 = gate_by_edges(ball, w, s, t), gate_by_edges(ball, w, s, u)
                l1, l2 = ball.lengths[g1], ball.lengths[g2]
                if l1 == l2:
                    continue
                far = g2 if l1 < l2 else g1
                checked += 1
                if far != w:
                    checks.append(Comparison(
                        {"panel": _word_str(ball, w), "letter": s, "pair": f"{t},{u}"},
                        _word_str(ball, far), _word_str(ball, w), "==", False))
    return VerificationReport("P29", 0, ball.depth, tuple(checks), checked)


def c210_by_edges(ball):
    """The former C210 scan: each inner word folded from w, each third letter stepped."""
    n = ball.matrix.rank
    checks, checked, skipped = [], 0, 0
    for w in range(ball.size):
        lw = ball.lengths[w]
        for s, t in combinations(range(n), 2):
            m = ball.matrix.order(s, t)
            if not (ascends(ball, w, s) and ascends(ball, w, t)) or m == INF:
                continue
            third = [r for r in range(n) if r not in (s, t)]
            for first, second, top in ((s, t, m), (t, s, m - 1)):
                for k in range(2, top + 1):
                    if lw + k + 1 > ball.depth:
                        skipped += len(third)
                        continue
                    inner = _alternating(first, second, k)
                    mid = ball.fold_right(w, inner)
                    for r in third:
                        checked += 1
                        got = ball.lengths[ball.edges[mid][r]]
                        if got != lw + k + 1:
                            checks.append(Comparison(
                                {"w": _word_str(ball, w), "inner": "".join(map(str, inner)),
                                 "r": r}, got, lw + k + 1, "==", False))
    return VerificationReport("C210", 0, ball.depth, tuple(checks), checked, skipped)


def l211_by_edges(ball):
    """L211 by edges: the lengths of wsr and wtr read through the stored edges
    of a ball one layer deeper, where none of them is missing."""
    deeper = build_ball(ball.matrix, ball.depth + 1)
    # the deeper ball indexes the same elements first, with the same masks
    assert list(deeper.descents[:ball.size]) == list(ball.descents)
    n = ball.matrix.rank
    checks, checked = [], 0
    for w in range(ball.size):
        lw = ball.lengths[w]
        for s, t in combinations(range(n), 2):
            if not (ascends(ball, w, s) and ascends(ball, w, t)):
                continue
            ws, wt = ball.edges[w][s], ball.edges[w][t]
            for r in range(n):
                if r in (s, t):
                    continue
                checked += 1
                la, lb = (deeper.lengths[deeper.edges[x][r]] for x in (ws, wt))
                if lw + 2 not in (la, lb):
                    checks.append(Comparison({"w": _word_str(ball, w), "s": s, "t": t, "r": r},
                                             (la, lb), lw + 2, "in", False))
    return VerificationReport("L211", 0, ball.depth, tuple(checks), checked)


def residues_by_bfs(ball):
    """The former rank-2 enumeration: `residue`, a walk, at every in-ball gate."""
    out = []
    for s, t in combinations(range(ball.matrix.rank), 2):
        m = ball.matrix.order(s, t)
        out += [residue(ball, g, (s, t)) for g in range(ball.size)
                if ball.lengths[g] + m <= ball.depth and ascends(ball, g, s) and ascends(ball, g, t)]
    return out


SCANS = [(verify_projection_collapse, p29_by_edges),
         (verify_exit_ascent, c210_by_edges),
         (verify_not_both_down, l211_by_edges)]


def assert_scans_match_edge_walks(ball):
    """Each mask-driven scan reports what its edge walk reports, failures in order,
    and the rank-2 triples are the (gate, s, t) of the residues `residue` walks,
    each of them complete with 2m members."""
    reports = []
    for scan, oracle in SCANS:
        report = scan(ball, gate=False)
        assert report.to_dict() == oracle(ball).to_dict()
        reports.append(report)
    walked = residues_by_bfs(ball)
    for res in walked:
        assert res.complete and len(res.members) == 2 * ball.matrix.order(*res.gens)
    assert rank2_complete_residues(ball) == sorted((res.gate, *res.gens) for res in walked)
    return reports


GEOMETRY_SYSTEMS = [
    pytest.param(uniform_matrix(4, 4), 7, id="u44"),
    pytest.param(uniform_matrix(3, 4), 11, id="t444"),
    pytest.param(uniform_matrix(4, 3), 7, id="u43"),
    pytest.param(uniform_matrix(3, 3), 10, id="(3,3,3)"),
    pytest.param(FINITE_RANK3, 8, id="finite-rank-3"),
    pytest.param(perfbench_matrices()["mixed"], 7, id="perfbench-mixed"),
    pytest.param(validate_matrix([[1, 4, INF, 3], [4, 1, 5, INF], [INF, 5, 1, 2],
                                  [3, INF, 2, 1]]), 8, id="inf-labels"),
]


@pytest.mark.parametrize("matrix,depth", GEOMETRY_SYSTEMS)
def test_scans_match_edge_walks(matrix, depth):
    assert_scans_match_edge_walks(get_ball(matrix, depth))


@settings(max_examples=40, deadline=None)
@given(coxeter_matrices(max_rank=5, labels=(2, 3, 4, 5, 6, 7, INF)), st.integers(0, 7))
def test_scans_match_edge_walks_random(matrix, depth):
    assert_scans_match_edge_walks(build_ball(matrix, depth))


@pytest.mark.parametrize("rows,depth,failures", [
    pytest.param([[1, INF, 2], [INF, 1, 2], [2, 2, 1]], 300, 594, id="Dinf x A1"),
    pytest.param([[1, 300, 2], [300, 1, 2], [2, 2, 1]], 310, 596, id="I2(300) x A1"),
])
def test_scans_with_gate_distances_past_one_byte(rows, depth, failures):
    # suffixes in <s,t> reach 299 letters and more, past what one byte holds
    ball = build_ball(validate_matrix(rows), depth)
    assert max(ball.lengths[w] - ball.lengths[gate_by_edges(ball, w, 0, 1)]
               for w in range(ball.size)) > 255
    p29 = assert_scans_match_edge_walks(ball)[0]
    assert len(p29.failures) == failures


# (checked, skipped) per suite on the full verify jobs of the benchmark
VERIFY_COUNTS = {
    ("u44", 8): {"P29": (21_048, 0), "C210": (7_332, 96_348),
                 "L211": (20_736, 0), "L24": (2_736, 0)},
    ("t444", 13): {"P29": (7_002, 0), "C210": (4_122, 13_398),
                   "L211": (3_504, 0), "L24": (4_104, 0)},
}


@pytest.mark.parametrize("name,depth,counts", [
    pytest.param(name, depth, counts, id=name) for (name, depth), counts in VERIFY_COUNTS.items()
])
def test_benchmark_verify_counts(name, depth, counts):
    # the full verify jobs of the benchmark, whose checker reads verdicts only, on the
    # built ball and on the walk's, which must decide them without edges
    matrix = perfbench_matrices()[name]
    for ball in (get_ball(matrix, depth), walk_ball(matrix, depth)):
        got = {report.name: (report.checked, report.skipped)
               for scan in GEOMETRY_SCANS for report in [scan(ball)]}
        assert got == counts
    assert ball.edges is None


class Unread:
    """A sequence that refuses every read: an index, a slice, or iteration."""

    def __getitem__(self, key):
        raise AssertionError(f"read at {key!r}")


@pytest.mark.parametrize("name,depth", VERIFY_COUNTS, ids=[name for name, _ in VERIFY_COUNTS])
def test_walk_routes_read_no_element(name, depth):
    # a passing run of P29, C210 and L211 decides from the walk's counts per
    # length and state, and reads none of the per-element arrays
    ball = walk_ball(perfbench_matrices()[name], depth)
    ball.descents = ball.parent = ball.letter = ball.lengths = Unread()
    for scan in (verify_projection_collapse, verify_exit_ascent, verify_not_both_down):
        report = scan(ball)
        assert (report.checked, report.skipped) == VERIFY_COUNTS[name, depth][report.name]
    assert ball.edges is None


# -- the walk's ball against the built one -------------------------------------


GEOMETRY_SCANS = (verify_projection_collapse, verify_exit_ascent,
                  verify_not_both_down, verify_wall_pair_uniqueness)


def assert_walk_matches_build(matrix, depth, gate=True):
    """walk_ball holds build_ball's arrays and counts its spheres as the built
    ball does, and each geometry scan reports on it what it reports on the
    built ball, or refuses the same hypothesis.  Returns the walk's ball and
    the verdicts."""
    walked, built = walk_ball(matrix, depth), build_ball(matrix, depth)
    for name in ("parent", "letter", "lengths", "descents", "_offsets"):
        assert getattr(walked, name) == getattr(built, name), name
    # per length, the states' counts sum to c_i, and those of one descent to d_i
    stats = compute_stats(built)
    assert len(walked.spheres) == depth + 1
    for i, (states, counts) in enumerate(walked.spheres):
        assert len(set(states)) == len(states) == len(counts) and 0 not in counts
        assert sum(counts) == stats.c[i]
        assert sum(count for state, count in zip(states, counts)
                   if len(walked.automaton.descents(state)) == 1) == stats.d[i]
    verdicts = []
    for scan in GEOMETRY_SCANS:
        try:
            want = scan(built, gate=gate).to_dict()
        except HypothesisError:
            with pytest.raises(HypothesisError):
                scan(walked, gate=gate)
            continue
        assert scan(walked, gate=gate).to_dict() == want
        verdicts.append((want["lemma"], want["verdict"]))
    return walked, verdicts


@pytest.mark.parametrize("rows,depth,failing,built", [
    pytest.param([[1, 2, 4], [2, 1, 4], [4, 4, 1]], 6, ["P29", "C210", "L211"], True,
                 id="(2,4,4)"),
    pytest.param([[1, 3, 3], [3, 1, 3], [3, 3, 1]], 6, ["L211"], True, id="A~2"),
    pytest.param([[1, 3, 2], [3, 1, 3], [2, 3, 1]], 8, ["P29", "C210", "L211", "L24"], True,
                 id="A3"),
    # P29 meets a label above the depth, which the small roots read as inf
    pytest.param([[1, 4, 4], [4, 1, 11], [4, 11, 1]], 6, [], True, id="(4,4,11)@6"),
    pytest.param([[1, 4, 4], [4, 1, 11], [4, 11, 1]], 12, [], False, id="(4,4,11)@12"),
])
def test_walk_matches_build_where_it_falls_back(rows, depth, failing, built):
    # a ball is built, once, only to name a failure or where P29 cannot decide
    walked, verdicts = assert_walk_matches_build(validate_matrix(rows), depth, gate=False)
    assert [name for name, verdict in verdicts if verdict == "fails"] == failing
    assert (walked.edges is not None) == built


def test_walk_names_every_wall_pair_failure():
    # A3: all 15 wall pairs of L24 fail, each named by its two reflection words
    ball = walk_ball(validate_matrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]]), 8)
    report = verify_wall_pair_uniqueness(ball, gate=False)
    assert report.checked == len(report.failures) == 15


@pytest.mark.parametrize("name,depth", [("u44", 8), ("t444", 13), ("u44", 5), ("t444", 8)])
def test_walk_matches_build_on_the_benchmark_jobs(name, depth):
    walked, verdicts = assert_walk_matches_build(perfbench_matrices()[name], depth)
    assert all(verdict == "holds" for _, verdict in verdicts) and len(verdicts) == 4
    assert walked.edges is None


def test_walk_matches_build_random():
    # seeded draws: rank 2..5, labels that the small roots read as inf past the
    # depth, depths 0..9, the hypothesis gates on and off
    rng = random.Random(35)
    labels = (2, 3, 4, 5, 6, 7, 9, 13, INF)
    deepest = {2: 9, 3: 9, 4: 7, 5: 5}
    for _ in range(150):
        n = rng.randint(2, 5)
        rows = [[1] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            rows[i][j] = rows[j][i] = rng.choice(labels)
        assert_walk_matches_build(validate_matrix(rows), rng.randint(0, deepest[n]),
                                  gate=rng.random() < 0.5)


def test_walk_ball_memory():
    for matrix, depth, size, per_element in [
        # u44: the walk's arrays and counts per state keep 45.0 B per element,
        # and build_ball's arrays, with their edges, about 170 B
        (uniform_matrix(4, 4), 10, 80_441, 47),
        # A7, the whole group: its states never recur, so each length keeps one
        # state and one count per element, 126.2 B per element in all
        (path_matrix([3] * 6), 40, 40_320, 126.8),
    ]:
        tracemalloc.start()
        try:
            ball = walk_ball(matrix, depth)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ball.size == size and ball.edges is None
        assert kept <= per_element * ball.size
