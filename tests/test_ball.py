"""Element engine tests.

The frozen tables below were produced by exhaustive Tits-rewriting
(oracle_reduce over all words up to the stated length) before the ball
builder existed; the ball must reproduce them.
"""
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import coxeter_matrices, get_ball
from coxgrowth import (
    DepthExceededError,
    GeneratorOutOfRangeError,
    OracleBudgetError,
    ResourceLimitError,
    build_ball,
    oracle_reduce,
    path_matrix,
    uniform_matrix,
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
    assert ball.words[0] == ()
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
        assert ball.words[got] == (s,)
        assert ball.lengths[got] > ball.lengths[0]


def test_step_dihedral_examples():
    # with s=0, t=1: sts * t climbs to the longest element, canonical 0101;
    # the longest element * s descends to tst = 101
    ball = get_ball(uniform_matrix(2, 4), 4)
    sts = ball.index((0, 1, 0))
    top = ball.step(sts, 1)
    assert ball.words[top] == (0, 1, 0, 1)
    assert ball.lengths[top] > ball.lengths[sts]
    down = ball.step(ball.index((0, 1, 0, 1)), 0)
    assert ball.words[down] == (1, 0, 1)
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
                assert ball.words[folded] == oracle_reduce(word, matrix)


def test_layers_sorted_shortlex():
    ball = get_ball(uniform_matrix(3, 4), 6)
    for i in range(ball.depth + 1):
        words = [ball.words[idx] for idx in ball.layer(i)]
        assert words == sorted(words)
        assert all(len(w) == i for w in words)


@settings(max_examples=60, deadline=None)
@given(coxeter_matrices(max_rank=4), st.just(4))
@example(uniform_matrix(3, 4), 5)
def test_element_words_are_reduced_and_least(matrix, depth):
    # every stored word re-reduces to itself through the oracle
    ball = build_ball(matrix, depth)
    for idx in range(ball.size):
        assert oracle_reduce(ball.words[idx], ball.matrix) == ball.words[idx]


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


def test_inverse_index():
    ball = get_ball(uniform_matrix(3, 4), 6)
    for idx in range(ball.size):
        inv = ball.inverse_index(idx)
        assert ball.lengths[inv] == ball.lengths[idx]
        assert ball.inverse_index(inv) == idx
    # a concrete non-involution: (01)^-1 = 10
    idx01 = ball.index((0, 1))
    assert ball.words[ball.inverse_index(idx01)] == (1, 0)


def test_export_records_shape():
    ball = build_ball(uniform_matrix(3, 4), 2)
    records = list(ball.export_records())
    assert len(records) == ball.size
    assert records[0] == {"i": 0, "w": "", "desc": []}
    assert records[1] == {"i": 1, "w": "0", "desc": [0]}
    lengths = [r["i"] for r in records]
    assert lengths == sorted(lengths)


def test_ball_rejects_negative_depth():
    with pytest.raises(ValueError):
        build_ball(uniform_matrix(3, 4), -1)
