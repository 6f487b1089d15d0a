import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings

from conftest import coxeter_matrices, get_ball
from coxgrowth import (
    INF,
    DepthExceededError,
    DiagramNotCompleteError,
    GeneratorOutOfRangeError,
    HypothesisError,
    ResidueIncompleteError,
    build_ball,
    gallery_distance,
    oracle_reduce,
    parallel_check,
    path_matrix,
    projection,
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
from coxgrowth import polys
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
    residues = rank2_complete_residues(ball)
    assert all(len(r.members) == 8 for r in residues)
    assert all(r.complete for r in residues)
    # gates are exactly the chambers with no descent in the pair, low enough
    for pair in ((0, 1), (0, 2), (1, 2)):
        expected = sum(
            1
            for idx in range(ball.size)
            if ball.lengths[idx] + 4 <= 6
            and not (set(ball.descent_indices(idx)) & set(pair))
        )
        got = sum(1 for r in residues if r.gens == pair)
        assert got == expected


# -- distances and projections ----------------------------------------------


def test_gallery_distance_examples():
    ball = get_ball(uniform_matrix(3, 4), 6)
    e, s, t = 0, ball.index((0,)), ball.index((1,))
    assert gallery_distance(ball, e, s) == 1
    assert gallery_distance(ball, s, t) == 2
    assert gallery_distance(ball, s, s) == 0
    st = ball.index((0, 1))
    assert gallery_distance(ball, st, e) == 2


def test_gallery_distance_beyond_ball():
    ball = build_ball(uniform_matrix(3, 4), 2)
    x = ball.index((0, 1))
    y = ball.index((1, 0))
    with pytest.raises(DepthExceededError):
        gallery_distance(ball, x, y)


def test_projection_fixes_members():
    ball = get_ball(uniform_matrix(3, 4), 6)
    res = residue(ball, 0, (0, 1))
    for member in res.members:
        assert projection(ball, member, res) == member


def test_projection_of_identity_is_gate():
    ball = get_ball(uniform_matrix(3, 4), 8)
    start = ball.index((2, 0, 1))
    res = residue(ball, start, (0, 1))
    assert res.complete
    assert projection(ball, 0, res) == res.gate


def test_projection_two_candidate_panel():
    # x = s against the {t}-panel of the identity: the identity is closer
    ball = get_ball(uniform_matrix(3, 4), 6)
    panel = residue(ball, 0, (1,))
    assert projection(ball, ball.index((0,)), panel) == 0


def test_projection_needs_complete_residue():
    ball = build_ball(uniform_matrix(3, 4), 3)
    res = residue(ball, ball.index((2,)), (0, 1))
    with pytest.raises(ResidueIncompleteError):
        projection(ball, 0, res)


def test_parallel_self():
    ball = get_ball(uniform_matrix(3, 4), 6)
    res = residue(ball, 0, (0, 1))
    assert parallel_check(ball, res, res)


def test_parallel_opposite_panels():
    # {e, s} and {tsts, tst} are opposite panels of one dihedral residue
    ball = get_ball(uniform_matrix(3, 4), 6)
    near = residue(ball, 0, (0,))
    far = residue(ball, ball.index((1, 0, 1)), (0,))
    assert set(map(ball.word, far.members)) == {
        (0, 1, 0, 1), (1, 0, 1)
    }
    assert parallel_check(ball, near, far)


def test_not_parallel_panels():
    # {e, s} and the {u}-panel at t project to single chambers
    ball = get_ball(uniform_matrix(3, 4), 6)
    one = residue(ball, 0, (0,))
    other = residue(ball, ball.index((1,)), (2,))
    assert not parallel_check(ball, one, other)


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


def left_apply(ball, g, x):
    """Index of g * x, or None when an intermediate leaves the ball.

    Folds x^{-1} g^{-1} through the ball and inverts once; its intermediates
    are the inverses of those of g * x built letter by letter on the left,
    so both leave the ball at the same step.
    """
    got = ball.fold_inverse(ball.inverse_index(x), g)
    return None if got is None else ball.inverse_index(got)


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
    inverse = [ball.inverse_index(idx) for idx in range(ball.size)]
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


def test_left_apply_rejects_indices_outside_the_ball():
    # both gave 42, the last element, for -1 on this ball
    ball = get_ball(uniform_matrix(3, 4), 4)
    for idx in (-1, ball.size):
        with pytest.raises(IndexError, match="outside the ball"):
            left_apply(ball, 0, idx)
        with pytest.raises(IndexError, match="outside the ball"):
            left_apply(ball, idx, 0)


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
        out.append(roots.key(roots.fold(ball, prefix, (s,))[0]))
        prefix = ball.edges[prefix][s]
    return out


def test_crossings_walk_the_panels():
    # the k-th wall of a gallery is that of the panel {p_k, p_k s_k}: seen
    # from p_k s_k its root is p_k s_k alpha_{s_k} = -p_k alpha_{s_k}
    ball = get_ball(uniform_matrix(3, 4), 8)
    roots = Roots(ball.matrix)
    word = (0, 1, 2, 0)
    prefix = 0
    for s in word:
        nxt = ball.edges[prefix][s]
        near = roots.reduce(roots.fold(ball, prefix, (s,))[0])
        far = roots.reduce(roots.fold(ball, nxt, (s,))[0])
        assert any(near) and far == [-a for a in near]
        prefix = nxt
    assert prefix == ball.index(word)


def test_minimal_gallery_crosses_each_wall_once():
    # the walls crossed along a reduced word are distinct, one per letter,
    # on every element of (4,4,4) to depth 9 and on the whole of H3
    h3 = validate_matrix([[1, 3, 2], [3, 1, 5], [2, 5, 1]])
    for matrix, depth in ((uniform_matrix(3, 4), 9), (h3, 15)):
        ball = get_ball(matrix, depth)
        roots = Roots(matrix)
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


def cut_scan_failures(ball):
    """Reflection pairs whose walls the scan finds cutting two or more residues."""
    residues = rank2_complete_residues(ball)
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
                key = roots.key(roots.fold(ball, u, (s,))[0])
                assert keys.setdefault(refl, key) == key
    assert len(set(keys.values())) == len(keys)
    return keys


def chain_walls(ball, roots, res):
    """Keys of p_k alpha_{x_k} along the chain g, gs, gst, ..., each folded alone."""
    chamber, x, y = res.gate, *res.gens
    out = []
    for _ in range(len(res.members) // 2):
        out.append(roots.key(roots.fold(ball, chamber, (x,))[0]))
        chamber, x, y = ball.edges[chamber][x], y, x
    assert len(set(out)) == len(out)
    return out


def wall_of(ball, roots, word):
    """Root key of the wall named by a failure's reflection word p x p^-1."""
    half = len(word) // 2
    chamber = ball.index(tuple(map(int, word[:half])))
    return roots.key(roots.fold(ball, chamber, (int(word[half]),))[0])


def reported_failures(ball, roots, report):
    """The failing wall pairs of an L24 report, as sets of root keys."""
    return {frozenset((wall_of(ball, roots, c.where["alpha"]),
                       wall_of(ball, roots, c.where["beta"]))): c.lhs
            for c in report.failures}


def assert_root_walls_match_cut_scan(ball):
    """Root keys agree with _cuts wherever it decides, and L24 counts their pairs."""
    roots = Roots(ball.matrix)
    keys = reflection_keys(ball, roots)
    residues = rank2_complete_residues(ball)
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


def cyclotomic_by_division(n):
    """Phi_n as x^n - 1 over Phi_k for every proper divisor k, exact over Z (Phi_k is monic)."""
    phi = {}
    for k in range(1, n + 1):
        if n % k == 0:
            p = (-1,) + (0,) * (k - 1) + (1,)
            for j, q in phi.items():
                if k % j == 0:
                    p = polys.quotient(p, q)
            phi[k] = p
    return phi[n]


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
    # reduce kills every multiple of Phi_N and is unimodular on the powers
    # x^e e_j (e < phi(N)), so it is the coordinate map of Z[zeta_N]^rank in
    # an integer basis: two roots get the same key exactly when they are equal
    roots = Roots(validate_matrix([[1, m], [m, 1]]))
    half = roots.big // 2
    phi = cyclotomic_by_division(roots.big)
    d = len(phi) - 1

    def vector(poly, j):
        # a polynomial in coordinate j, with x^half = -1
        v = [0] * (2 * half)
        for e, c in enumerate(poly):
            v[e % half * 2 + j] += -c if e // half % 2 else c
        return v

    for e in range(half):
        assert not any(roots.reduce(vector((0,) * e + phi, 1)))
    basis = [roots.reduce(vector((0,) * e + (1,), j)) for e in range(d) for j in range(2)]
    assert len(basis[0]) == 2 * d
    assert abs(exact_det(basis)) == 1
    if m != INF:
        # the shortcuts for m = 2 and 3 are zeta^a + zeta^-a as well
        a = roots.big // (2 * m)
        unit = vector((1,), 0)
        generic = vector((0,) * a + (1,), 0)
        generic = [x + y for x, y in zip(generic, vector((0,) * (roots.big - a) + (1,), 0))]
        assert roots.reduce(roots.times(m, unit)) == roots.reduce(generic)


FINITE_RANK3 = validate_matrix([[1, 3, 2, 4], [3, 1, 3, 4], [2, 3, 1, 4], [4, 4, 4, 1]])


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
    roots = Roots(ball.matrix)
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
