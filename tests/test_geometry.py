from itertools import product

import pytest
from hypothesis import given, settings

from conftest import coxeter_matrices, get_ball
from coxgrowth import (
    IN_BOUNDARY,
    INSIDE_ALPHA,
    INSIDE_MINUS_ALPHA,
    DepthExceededError,
    DiagramNotCompleteError,
    GeneratorOutOfRangeError,
    HypothesisError,
    ResidueIncompleteError,
    RootHandle,
    build_ball,
    gallery_crossings,
    gallery_distance,
    left_apply,
    oracle_reduce,
    parallel_check,
    path_matrix,
    projection,
    rank2_complete_residues,
    reflections,
    residue,
    residue_root_trichotomy,
    root_membership,
    simple_root,
    uniform_matrix,
    validate_matrix,
    verify_exit_ascent,
    verify_not_both_down,
    verify_projection_collapse,
    verify_wall_pair_uniqueness,
    wall_sample,
)
from coxgrowth.geometry import _cuts


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
    assert set(map(ball.words.__getitem__, far.members)) == {
        (0, 1, 0, 1), (1, 0, 1)
    }
    assert parallel_check(ball, near, far)


def test_not_parallel_panels():
    # {e, s} and the {u}-panel at t project to single chambers
    ball = get_ball(uniform_matrix(3, 4), 6)
    one = residue(ball, 0, (0,))
    other = residue(ball, ball.index((1,)), (2,))
    assert not parallel_check(ball, one, other)


# -- roots and walls --------------------------------------------------------


def test_simple_root_matches_length_test():
    # membership in alpha_s is the ascent test for left multiplication
    matrix = uniform_matrix(3, 4)
    ball = get_ball(matrix, 6)
    for s in range(3):
        root = simple_root(ball, s)
        for idx in range(ball.size):
            got = root_membership(ball, root, idx)
            expected = (
                len(oracle_reduce((s,) + ball.words[idx], matrix)) > ball.lengths[idx]
            )
            if got is not None:
                assert got == expected


def test_simple_root_membership_always_defined_inside():
    ball = get_ball(uniform_matrix(3, 4), 6)
    root = simple_root(ball, 0)
    for idx in range(ball.size):
        if ball.lengths[idx] < ball.depth:
            assert root_membership(ball, root, idx) is not None


def test_root_sides_swap_under_reflection():
    ball = get_ball(uniform_matrix(3, 4), 8)
    for refl in reflections(ball):
        root = RootHandle(refl, True)
        for idx in range(ball.size):
            image = left_apply(ball, refl, idx)
            if image is None:
                continue
            mine = root_membership(ball, root, idx)
            theirs = root_membership(ball, root, image)
            assert mine is not None and theirs is not None
            assert mine != theirs


def test_negative_side_flips_membership():
    ball = get_ball(uniform_matrix(3, 4), 6)
    pos = simple_root(ball, 1)
    neg = RootHandle(pos.reflection, False)
    for idx in range(ball.size):
        got = root_membership(ball, pos, idx)
        if got is not None:
            assert root_membership(ball, neg, idx) == (not got)


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
    got = {ball.words[idx] for idx in reflections(ball)}
    assert got == expected


def left_apply_by_letters(ball, g, x):
    """g * x built one letter at a time on the left: s * y = (y^{-1} s)^{-1}."""
    cur = x
    for s in reversed(ball.words[g]):
        j = ball.edges[ball.inverse_index(cur)][s]
        if j < 0:
            return None
        cur = ball.inverse_index(j)
    return cur


def assert_left_apply_matches_letters(ball):
    for g in range(ball.size):
        for x in range(ball.size):
            got = left_apply(ball, g, x)
            assert got == left_apply_by_letters(ball, g, x)
            if got is not None:
                expected = oracle_reduce(ball.words[g] + ball.words[x], ball.matrix)
                assert ball.words[got] == expected


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


def test_wall_sample_panel_criterion():
    ball = get_ball(uniform_matrix(3, 4), 6)
    root = simple_root(ball, 0)
    sample = wall_sample(ball, root)
    in_sample = set(sample.panels)
    for w, x in in_sample:
        sides = (
            root_membership(ball, root, w),
            root_membership(ball, root, x),
        )
        assert None not in sides
        assert sides[0] != sides[1]
    # converse: any panel with defined, differing memberships is sampled
    for w in range(ball.size):
        for s in range(3):
            x = ball.edges[w][s]
            if x < 0 or ball.lengths[x] < ball.lengths[w]:
                continue
            a = root_membership(ball, root, w)
            b = root_membership(ball, root, x)
            if a is not None and b is not None and a != b:
                assert (w, x) in in_sample


def test_wall_sample_residues_are_stabilized():
    ball = get_ball(uniform_matrix(3, 4), 8)
    root = simple_root(ball, 2)
    sample = wall_sample(ball, root)
    assert sample.residues
    for res in sample.residues:
        vals = {root_membership(ball, root, m) for m in res.members}
        assert True in vals and False in vals


def test_trichotomy_cases():
    ball = get_ball(uniform_matrix(3, 4), 6)
    res = residue(ball, 0, (0, 1))
    third = simple_root(ball, 2)
    assert residue_root_trichotomy(ball, res, third) == INSIDE_ALPHA

    mirrored = residue(ball, ball.index((2,)), (0, 1))
    assert residue_root_trichotomy(ball, mirrored, third) == INSIDE_MINUS_ALPHA

    inside = simple_root(ball, 0)  # its wall cuts the residue at the identity
    assert residue_root_trichotomy(ball, res, inside) == IN_BOUNDARY


def test_trichotomy_is_exclusive():
    ball = get_ball(uniform_matrix(3, 4), 8)
    residues = rank2_complete_residues(ball)
    outcomes = {INSIDE_ALPHA: 0, INSIDE_MINUS_ALPHA: 0, IN_BOUNDARY: 0}
    for s in range(3):
        root = simple_root(ball, s)
        for res in residues:
            try:
                outcomes[residue_root_trichotomy(ball, res, root)] += 1
            except DepthExceededError:
                pass
    assert all(outcomes.values())


def membership_scan(ball, res, root):
    """Wall test by membership: the side of every member; mixed sides mean a cut."""
    vals = [root_membership(ball, root, m) for m in res.members]
    if True in vals and False in vals:
        return IN_BOUNDARY
    if None in vals:
        return None
    return INSIDE_ALPHA if vals[0] else INSIDE_MINUS_ALPHA


def assert_cuts_extend_membership_scan(ball):
    """_cuts and the trichotomy agree with the scan and decide all it decides.

    Returns how many (reflection, residue) pairs the scan and _cuts decide.
    """
    residues = rank2_complete_residues(ball)
    by_scan = by_cuts = 0
    for refl in reflections(ball):
        for res in residues:
            cut = _cuts(ball, refl, res.members)
            by_cuts += cut is not None
            for root in (RootHandle(refl, True), RootHandle(refl, False)):
                old = membership_scan(ball, res, root)
                try:
                    new = residue_root_trichotomy(ball, res, root)
                except DepthExceededError:
                    new = None
                assert (new is None) == (cut is None)
                assert cut is None or cut == (new == IN_BOUNDARY)
                if old is not None:
                    assert new == old
            by_scan += old is not None
    return by_scan, by_cuts


@pytest.mark.parametrize(
    "matrix_args,depth", [((3, 4), 8), ((4, 3), 6), ((3, 5), 8)]
)
def test_cuts_extend_membership_scan(matrix_args, depth):
    ball = get_ball(uniform_matrix(*matrix_args), depth)
    by_scan, by_cuts = assert_cuts_extend_membership_scan(ball)
    assert 0 < by_scan < by_cuts


@settings(max_examples=60, deadline=None)
@given(coxeter_matrices(max_rank=4))
def test_cuts_extend_membership_scan_random(matrix):
    assert_cuts_extend_membership_scan(build_ball(matrix, 6))


# -- galleries ---------------------------------------------------------------


def test_crossings_walk_the_panels():
    ball = get_ball(uniform_matrix(3, 4), 8)
    word = (0, 1, 2, 0)
    idx = ball.index(word)
    crossings = gallery_crossings(ball, idx)
    assert len(crossings) == 4
    prefix = 0
    for k, refl in enumerate(crossings):
        nxt = ball.edges[prefix][word[k]]
        assert left_apply(ball, refl, prefix) == nxt
        prefix = nxt


def test_minimal_gallery_crosses_each_wall_once():
    ball = get_ball(uniform_matrix(3, 4), 9)
    for idx in range(ball.size):
        if 2 * ball.lengths[idx] - 1 > ball.depth:
            continue
        crossings = gallery_crossings(ball, idx)
        assert len(set(crossings)) == len(crossings) == ball.lengths[idx]


def test_roots_are_convex_along_canonical_galleries():
    ball = get_ball(uniform_matrix(3, 4), 8)
    for s in range(3):
        root = simple_root(ball, s)
        for idx in range(ball.size):
            if root_membership(ball, root, idx) is not True:
                continue
            # walk the canonical gallery from the identity side
            prefix = 0
            for letter in ball.words[idx]:
                prefix = ball.edges[prefix][letter]
                assert root_membership(ball, root, prefix) is not False or (
                    prefix == idx
                )
    # the identity itself lies in every simple root
    assert all(
        root_membership(ball, simple_root(ball, s), 0) for s in range(3)
    )


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
    report = verify_wall_pair_uniqueness(get_ball(uniform_matrix(3, 4), 8))
    assert report.holds
    assert (report.checked, report.skipped) == (351, 342)
    report = verify_wall_pair_uniqueness(get_ball(uniform_matrix(4, 3), 6))
    assert report.holds
    assert (report.checked, report.skipped) == (231, 768)


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
