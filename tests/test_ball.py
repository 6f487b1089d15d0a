"""Element engine tests.

The frozen tables below were produced by exhaustive Tits-rewriting
(oracle_reduce over all words up to the stated length) before the ball
builder existed; the ball must reproduce them.
"""
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SCAN_BALLS, coxeter_matrices, get_ball
from coxgrowth import (
    INF,
    DepthExceededError,
    GeneratorOutOfRangeError,
    OracleBudgetError,
    ResourceLimitError,
    build_ball,
    oracle_reduce,
    path_matrix,
    uniform_matrix,
    validate_matrix,
)

# sphere sizes from pure word-rewriting enumeration
ORACLE_C = {
    (3, 4): [1, 3, 6, 12, 21, 36],
    (4, 3): [1, 4, 12, 30, 72],
    (2, 4): [1, 2, 2, 2, 1, 0],
    (3, 3): [1, 3, 6, 9, 12, 15],
}


def test_identity_element():
    ball = get_ball(uniform_matrix(3, 4), 6)
    assert ball.word(0) == ()
    assert ball.lengths[0] == 0


def test_oracle_squares_cancel():
    m = uniform_matrix(3, 4)
    assert oracle_reduce((0, 0), m) == ()
    assert oracle_reduce((2, 1, 1, 2), m) == ()


def test_oracle_braid_identification():
    m = uniform_matrix(2, 3)
    assert oracle_reduce((0, 1, 0), m) == oracle_reduce((1, 0, 1), m)


def test_oracle_dihedral_longest():
    # in I2(4), stst = tsts; ShortLex picks the word starting with 0
    m = uniform_matrix(2, 4)
    assert oracle_reduce((0, 1, 0, 1), m) == oracle_reduce((1, 0, 1, 0), m)
    assert oracle_reduce((1, 0, 1, 0), m) == (0, 1, 0, 1)


def test_oracle_generator_range():
    with pytest.raises(GeneratorOutOfRangeError):
        oracle_reduce((0, 3), uniform_matrix(3, 4))


def test_oracle_budget():
    # the longest element of the order-24 path system has 16 reduced words
    m = path_matrix([3, 3])
    with pytest.raises(OracleBudgetError):
        oracle_reduce((0, 1, 0, 2, 1, 0), m, budget=10)


@pytest.mark.parametrize("key", sorted(ORACLE_C))
def test_layer_sizes_match_oracle_tables(key):
    rank, label = key
    expected = ORACLE_C[key]
    ball = get_ball(uniform_matrix(rank, label), len(expected) - 1)
    assert ball.layer_sizes() == expected


def test_step_from_identity():
    ball = get_ball(uniform_matrix(3, 4), 6)
    for s in range(3):
        got = ball.step(0, s)
        assert ball.word(got) == (s,)
        assert ball.lengths[got] > ball.lengths[0]


def test_step_dihedral_examples():
    # with s=0, t=1: sts * t climbs to the longest element, canonical 0101;
    # the longest element * s descends to tst = 101
    ball = get_ball(uniform_matrix(2, 4), 4)
    sts = ball.index((0, 1, 0))
    top = ball.step(sts, 1)
    assert ball.word(top) == (0, 1, 0, 1)
    assert ball.lengths[top] > ball.lengths[sts]
    down = ball.step(ball.index((0, 1, 0, 1)), 0)
    assert ball.word(down) == (1, 0, 1)
    assert ball.lengths[down] < ball.lengths[top]


def test_descents_of_identity_and_generators():
    ball = get_ball(uniform_matrix(3, 4), 6)
    assert ball.descent_indices(0) == ()
    for s in range(3):
        assert ball.descent_indices(ball.index((s,))) == (s,)


def test_descents_of_dihedral_top():
    # stst has both letters of its pair as descents
    ball = get_ball(uniform_matrix(3, 4), 6)
    assert ball.descent_indices(ball.index((0, 1, 0, 1))) == (0, 1)


@pytest.mark.parametrize("matrix, depth", SCAN_BALLS)
def test_descent_masks_match_the_edges(matrix, depth):
    # each mask is recorded at creation; the stored edges must agree with it
    # later, down to every letter of elements at the rim
    ball = get_ball(matrix, depth)
    for idx in range(ball.size):
        row, mine = ball.edges[idx], ball.lengths[idx]
        assert ball.descents[idx] == sum(
            1 << s for s in range(matrix.rank) if row[s] >= 0 and ball.lengths[row[s]] < mine)
        # below the rim every other letter ascends inside the ball; at it none is stored
        ups = [s for s in range(matrix.rank) if not ball.descents[idx] >> s & 1]
        assert all((row[s] >= 0) == (mine < depth) for s in ups)


def test_oracle_equivalence_words_up_to_six():
    matrices = [
        uniform_matrix(2, 4),
        path_matrix([3, 3]),
        uniform_matrix(3, 3),
        uniform_matrix(3, 4),
    ]
    for matrix in matrices:
        ball = get_ball(matrix, 7)
        for length in range(5):
            for word in product(range(matrix.rank), repeat=length):
                folded = 0
                for s in word:
                    folded = ball.step(folded, s)
                assert ball.word(folded) == oracle_reduce(word, matrix)


def test_layers_sorted_shortlex():
    ball = get_ball(uniform_matrix(3, 4), 6)
    for i in range(ball.depth + 1):
        words = [ball.word(idx) for idx in ball.layer(i)]
        assert words == sorted(words)
        assert all(len(w) == i for w in words)


@settings(max_examples=60, deadline=None)
@given(coxeter_matrices(max_rank=4), st.just(4))
@example(uniform_matrix(3, 4), 5)
def test_element_words_are_reduced_and_least(matrix, depth):
    # every stored word re-reduces to itself through the oracle
    ball = build_ball(matrix, depth)
    for idx in range(ball.size):
        assert oracle_reduce(ball.word(idx), ball.matrix) == ball.word(idx)


def test_no_level_edges():
    ball = get_ball(uniform_matrix(4, 3), 5)
    for idx in range(ball.size):
        for s in range(4):
            j = ball.edges[idx][s]
            if j >= 0:
                assert abs(ball.lengths[j] - ball.lengths[idx]) == 1


def test_involution_closure():
    ball = get_ball(uniform_matrix(3, 4), 6)
    for idx in range(ball.size):
        for s in range(3):
            if ball.edges[idx][s] < 0:
                continue  # product leaves the ball
            once = ball.step(idx, s)
            twice = ball.step(once, s)
            assert twice == idx


def test_descent_cardinality_bound():
    # uniform label >= 3 and rank >= 3 force at most two descents
    for matrix in (uniform_matrix(3, 4), uniform_matrix(4, 3)):
        ball = get_ball(matrix, 6)
        for idx in range(ball.size):
            assert len(ball.descent_indices(idx)) <= 2


def test_finite_type_exhaustion():
    ball = get_ball(uniform_matrix(2, 4), 10)
    assert ball.layer_sizes() == [1, 2, 2, 2, 1, 0, 0, 0, 0, 0, 0]
    assert ball.size == 8

    a3 = get_ball(path_matrix([3, 3]), 8)
    assert sum(a3.layer_sizes()) == 24
    assert a3.layer_sizes()[:7] == [1, 3, 5, 6, 5, 3, 1]


def test_depth_zero():
    ball = build_ball(uniform_matrix(3, 4), 0)
    assert ball.size == 1
    assert ball.layer_sizes() == [1]


def test_step_beyond_depth_raises():
    ball = build_ball(uniform_matrix(3, 4), 2)
    # some element on the rim must have an unexplored ascent
    rim = next(iter(ball.layer(2)))
    ups = [s for s in range(3) if ball.edges[rim][s] < 0]
    assert ups
    with pytest.raises(DepthExceededError):
        ball.step(rim, ups[0])


def test_cap_enforced():
    with pytest.raises(ResourceLimitError):
        build_ball(uniform_matrix(3, 4), 6, cap=20)


def test_index_of_unknown_word():
    ball = build_ball(uniform_matrix(3, 4), 2)
    with pytest.raises(ValueError):
        ball.index((0, 1, 0))
    # both fold inside the ball, but 00 is not reduced and 1010 is the
    # other reduced word of 0101
    deeper = get_ball(uniform_matrix(3, 4), 4)
    for word in ((0, 0), (1, 0, 1, 0)):
        with pytest.raises(ValueError):
            deeper.index(word)


def test_export_records_shape():
    ball = build_ball(uniform_matrix(3, 4), 2)
    records = list(ball.export_records())
    assert len(records) == ball.size
    assert records[0] == {"i": 0, "w": "", "desc": []}
    assert records[1] == {"i": 1, "w": "0", "desc": [0]}
    lengths = [r["i"] for r in records]
    assert lengths == sorted(lengths)


def export_by_words(ball):
    """Export records built from each element's whole word."""
    for idx in range(ball.size):
        yield {
            "i": ball.lengths[idx],
            "w": "".join(map(str, ball.word(idx))),
            "desc": list(ball.descent_indices(idx)),
        }


@pytest.mark.parametrize(
    "matrix, depth",
    SCAN_BALLS + [pytest.param(uniform_matrix(12, INF), 2, id="rank12-letters")],
)
def test_streamed_export_matches_word_export(matrix, depth):
    ball = get_ball(matrix, depth)
    assert list(ball.export_records()) == list(export_by_words(ball))


@pytest.mark.parametrize(
    "matrix, depth",
    [(uniform_matrix(3, 4), 6), (uniform_matrix(4, 3), 4), (path_matrix([5, 3]), 16)],
)
def test_word_matches_oracle_on_every_element(matrix, depth):
    # reach each element from its last lower neighbour, not from its parent,
    # and let the rewriting oracle name the product
    ball = get_ball(matrix, depth)
    for idx in range(1, ball.size):
        t = ball.descent_indices(idx)[-1]
        below = ball.step(idx, t)
        assert ball.word(idx) == oracle_reduce(ball.word(below) + (t,), matrix)
        assert ball.index(ball.word(idx)) == idx


def test_indices_outside_the_ball_are_rejected():
    ball = get_ball(uniform_matrix(3, 4), 4)
    for idx in (-1, ball.size):
        with pytest.raises(IndexError, match="outside the ball"):
            ball.step(idx, 0)
        with pytest.raises(IndexError, match="outside the ball"):
            ball.descent_indices(idx)
        with pytest.raises(IndexError, match="outside the ball"):
            ball.word(idx)


def test_folds_reject_indices_outside_the_ball():
    # -1 used to read as the last element: on this ball fold_right(-1, (0,))
    # and fold_inverse(-1, 1) gave 21
    ball = get_ball(uniform_matrix(3, 4), 4)
    for idx in (-1, ball.size):
        calls = (lambda: ball.fold_right(idx, (0,)), lambda: ball.fold_right(idx, ()),
                 lambda: ball.fold_inverse(idx, 1), lambda: ball.fold_inverse(1, idx))
        for call in calls:
            with pytest.raises(IndexError, match="outside the ball"):
                call()


@pytest.mark.parametrize("letters", [(-1,), (3,), (0, 3), (True, 4)])
def test_fold_right_rejects_letters_outside_the_system(letters):
    # -1 used to read as the last letter, so fold_right(0, (-1,)) gave the
    # element (2,), and 3 raised a bare IndexError
    ball = get_ball(uniform_matrix(3, 4), 3)
    with pytest.raises(GeneratorOutOfRangeError, match="outside 0..2"):
        ball.fold_right(0, letters)


def test_ball_memory_per_element():
    # parent and letter in place of a stored word: about 160 B per element
    # on (4,4,4), where a tuple per word made it about 300 B
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ball = build_ball(uniform_matrix(3, 4), 16)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert ball.size == 34_342
    assert grown / ball.size <= 200


def test_ball_rejects_negative_depth():
    with pytest.raises(ValueError):
        build_ball(uniform_matrix(3, 4), -1)


@pytest.mark.parametrize("label,depth", [(10**8, 3), (10**20 - 1, 6), (7, 6)])
def test_labels_above_the_depth_build_as_inf(label, depth):
    # a residue of label m closes at length m, so a label above the depth makes
    # no chain table: I2(10^8) at depth 3 took 2 s, and a label of 10^20 never
    # returned.  The ball is that of the matrix with the label made inf
    matrix = validate_matrix([[1, label, 4], [label, 1, 4], [4, 4, 1]])
    start = time.perf_counter()
    ball = build_ball(matrix, depth)
    assert time.perf_counter() - start < 5
    inf = build_ball(validate_matrix([[1, INF, 4], [INF, 1, 4], [4, 4, 1]]), depth)
    assert (ball.parent, ball.letter, ball.lengths, ball.edges, ball.descents) == (
        inf.parent, inf.letter, inf.lengths, inf.edges, inf.descents)
