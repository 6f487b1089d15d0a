import json
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import ORACLE_MATRICES, coxeter_matrices
from coxgrowth import (
    INF,
    BadDiagonalError,
    BadOffDiagonalError,
    NonSymmetricError,
    NotSphericalError,
    NotSquareError,
    classify_subset,
    coxmatrix,
    diagram_properties,
    load_matrix,
    matrix_to_data,
    parse_matrix_data,
    path_matrix,
    poincare_polynomial,
    spherical_subsets,
    uniform_matrix,
    validate_matrix,
)


def test_valid_dihedral():
    m = validate_matrix([[1, 4], [4, 1]])
    assert m.rank == 2
    assert m.order(0, 1) == 4


def test_valid_444():
    m = validate_matrix([[1, 4, 4], [4, 1, 4], [4, 4, 1]])
    assert m == uniform_matrix(3, 4)


def test_nonsymmetric_rejected():
    with pytest.raises(NonSymmetricError):
        validate_matrix([[1, 3], [4, 1]])


def test_not_square_rejected():
    with pytest.raises(NotSquareError):
        validate_matrix([[1, 3, 3], [3, 1, 3]])


def test_bad_diagonal_rejected():
    with pytest.raises(BadDiagonalError):
        validate_matrix([[2, 3], [3, 1]])


def test_off_diagonal_one_rejected():
    with pytest.raises(BadOffDiagonalError):
        validate_matrix([[1, 1], [1, 1]])


@pytest.mark.parametrize("data, error", [
    ({"m": [[True, 3], [3, 1]]}, BadDiagonalError),  # True == 1
    ({"m": [[False, 3], [3, 1]]}, BadDiagonalError),
    ({"m": [[1, False], [False, 1]]}, BadOffDiagonalError),  # False == 0, a spelling of inf
    ({"m": [[1, True], [True, 1]]}, BadOffDiagonalError),
    ({"rank": 3, "uniform": False}, BadOffDiagonalError),
    ({"rank": 3, "uniform": True}, BadOffDiagonalError),
])
def test_booleans_are_not_entries(data, error):
    with pytest.raises(error):
        parse_matrix_data(data)


def test_infinity_spellings():
    # "inf", 0, and float infinity all mean the same unbounded order
    for spelling in ("inf", 0, INF):
        m = validate_matrix([[1, spelling], [spelling, 1]])
        assert m.order(0, 1) == INF


def test_round_trip_serialization(tmp_path):
    m = validate_matrix([[1, 3, INF], [3, 1, 2], [INF, 2, 1]])
    data = matrix_to_data(m)
    assert data["m"][0][2] == "inf"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert load_matrix(path) == m


def test_parse_uniform_shorthand():
    assert parse_matrix_data({"rank": 3, "uniform": 4}) == uniform_matrix(3, 4)


@pytest.mark.parametrize("rank", [-3, 2.5, None, True, "3"])
def test_uniform_rank_is_checked_as_the_json_rank_is(rank):
    # uniform_matrix(-3, 4) used to give CoxeterMatrix([]) and 2.5 a bare TypeError
    message = f'"rank" must be a non-negative integer, got {rank!r}'
    for build in (lambda: uniform_matrix(rank, 4),
                  lambda: parse_matrix_data({"rank": rank, "uniform": 4})):
        with pytest.raises(NotSquareError) as err:
            build()
        assert str(err.value) == message


@pytest.mark.parametrize("rank, label", [
    (1, "abc"), (1, False), (1, True), (1, 1), (1, 2.5), (0, [1]), (0, {}), (0, -3),
])
def test_uniform_label_is_checked_below_rank_two(rank, label):
    # no off-diagonal entry holds the label, so it is checked on its own
    with pytest.raises(BadOffDiagonalError, match="uniform label must be"):
        parse_matrix_data({"rank": rank, "uniform": label})


@pytest.mark.parametrize("rank, label", [(1, 3), (0, 3), (1, 0), (1, "inf"), (0, INF)])
def test_uniform_label_below_rank_two_accepts_what_an_entry_would(rank, label):
    assert uniform_matrix(rank, label).rank == rank


def test_uniform_label_message_from_rank_two_names_the_entry():
    with pytest.raises(BadOffDiagonalError) as err:
        uniform_matrix(2, "abc")
    assert str(err.value) == "entry (0,1) must be an integer >= 2 or inf, got abc"


def test_properties_444():
    props = diagram_properties(uniform_matrix(3, 4))
    assert props.two_spherical
    assert props.complete_diagram
    assert props.uniform_label == 4


def test_properties_with_infinity():
    m = validate_matrix([[1, 3, INF], [3, 1, 3], [INF, 3, 1]])
    props = diagram_properties(m)
    assert not props.two_spherical
    # an unbounded order still draws an edge, so the diagram stays complete
    assert props.complete_diagram
    assert props.uniform_label is None


def test_properties_rank4_uniform3():
    props = diagram_properties(uniform_matrix(4, 3))
    assert props.two_spherical
    assert props.complete_diagram
    assert props.uniform_label == 3


# each record: how to build it twice, a different value, its repr, one field
RECORDS = [
    (lambda: uniform_matrix(2, 4), uniform_matrix(2, 5), "CoxeterMatrix([1,4;4,1])", "entries"),
    (lambda: path_matrix([5, "inf"]), path_matrix([5, 3]),
     "CoxeterMatrix([1,5,2;5,1,inf;2,inf,1])", "entries"),
    (lambda: diagram_properties(uniform_matrix(2, 4)), diagram_properties(uniform_matrix(2, 5)),
     "DiagramProperties(two_spherical=True, complete_diagram=True, uniform_label=4)",
     "two_spherical"),
    (lambda: diagram_properties(path_matrix([5, "inf"])), diagram_properties(path_matrix([5, 3])),
     "DiagramProperties(two_spherical=False, complete_diagram=False, uniform_label=None)",
     "uniform_label"),
    (lambda: classify_subset(uniform_matrix(2, 4), (0, 1)),
     classify_subset(uniform_matrix(2, 5), (0, 1)),
     "FiniteTypeLabel(name='I2(4)', exponents=(1, 3))", "name"),
    (lambda: coxmatrix.FiniteTypeLabel("infinite", None), classify_subset(path_matrix([3]), (0, 1)),
     "FiniteTypeLabel(name='infinite', exponents=None)", "exponents"),
]


@pytest.mark.parametrize("make, other, text, field", RECORDS)
def test_records_are_immutable_values(make, other, text, field):
    record, again = make(), make()
    assert repr(record) == text
    assert record == again and hash(record) == hash(again) and record is not again
    assert record != other
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


def test_path_matrix_a3():
    m = path_matrix([3, 3])
    assert m.order(0, 1) == 3
    assert m.order(1, 2) == 3
    assert m.order(0, 2) == 2


# -- classification --------------------------------------------------------


@pytest.mark.parametrize(
    "matrix,name,order",
    [
        (uniform_matrix(1, 3), "A1", 2),
        (uniform_matrix(2, 4), "I2(4)", 8),
        (uniform_matrix(2, 7), "I2(7)", 14),
        (path_matrix([3]), "A2", 6),
        (path_matrix([3, 3]), "A3", 24),
        (path_matrix([3, 3, 3]), "A4", 120),
        (path_matrix([4, 3]), "B3", 48),
        (path_matrix([4, 3, 3]), "B4", 384),
        (path_matrix([5, 3]), "H3", 120),
        (path_matrix([5, 3, 3]), "H4", 14400),
        (path_matrix([3, 4, 3]), "F4", 1152),
    ],
)
def test_classify_irreducible(matrix, name, order):
    label = classify_subset(matrix, range(matrix.rank))
    assert label.name == name
    assert label.finite
    assert label.order == order


def test_classify_d4():
    # star with three arms of length 1
    m = validate_matrix(
        [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]
    )
    label = classify_subset(m, range(4))
    assert label.name == "D4"
    assert label.order == 192


def test_classify_e6():
    edges = {(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)}
    rows = [
        [1 if i == j else (3 if (min(i, j), max(i, j)) in edges else 2) for j in range(6)]
        for i in range(6)
    ]
    label = classify_subset(validate_matrix(rows), range(6))
    assert label.name == "E6"
    assert label.order == 51840


def test_classify_product():
    # A2 x A1 inside A3 x A1: subset {0,1,3} of a path plus isolated node
    m = validate_matrix(
        [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 2], [2, 2, 2, 1]]
    )
    label = classify_subset(m, (0, 1, 3))
    assert label.name == "A1xA2"
    assert label.order == 12


def test_classify_triangle_infinite():
    label = classify_subset(uniform_matrix(3, 4), range(3))
    assert not label.finite
    assert label.order is None


def test_classify_empty_is_trivial():
    label = classify_subset(uniform_matrix(3, 4), ())
    assert label.name == "1"
    assert label.order == 1


def test_spherical_subsets_444():
    got = spherical_subsets(uniform_matrix(3, 4))
    by_size = {}
    for gens, label in got:
        by_size.setdefault(len(gens), []).append(label)
    assert len(by_size[0]) == 1
    assert len(by_size[1]) == 3
    assert len(by_size[2]) == 3
    assert all(lab.name == "I2(4)" for lab in by_size[2])
    assert 3 not in by_size  # the full triangle group is infinite


def test_spherical_subsets_rank4_uniform3():
    got = spherical_subsets(uniform_matrix(4, 3))
    sizes = [len(gens) for gens, _ in got]
    assert sizes.count(2) == 6
    assert all(size <= 2 for size in sizes)  # every triple is an infinite triangle


def test_spherical_subsets_a3_full():
    got = dict(spherical_subsets(path_matrix([3, 3])))
    assert got[(0, 1, 2)].name == "A3"
    assert got[(0, 1, 2)].order == 24


def brute_force_spherical(matrix):
    """Reference: classify every subset, by size and then lexicographically."""
    out = []
    for size in range(matrix.rank + 1):
        for subset in combinations(range(matrix.rank), size):
            label = classify_subset(matrix, subset)
            if label.finite:
                out.append((subset, label))
    return out


@pytest.mark.parametrize("matrix", ORACLE_MATRICES)
def test_spherical_subsets_match_brute_force(matrix):
    assert spherical_subsets(matrix) == brute_force_spherical(matrix)


@settings(max_examples=100, deadline=None)
@given(coxeter_matrices())
def test_spherical_subsets_match_brute_force_random(matrix):
    assert spherical_subsets(matrix) == brute_force_spherical(matrix)


def test_spherical_subsets_scale_with_output(monkeypatch):
    calls = []
    classify = coxmatrix.classify_subset
    monkeypatch.setattr(
        coxmatrix, "classify_subset", lambda m, s: calls.append(s) or classify(m, s)
    )
    # a path of 3-labels with infinity between non-neighbours: 32 spherical sets
    n = 16
    matrix = validate_matrix(
        [[1 if i == j else 3 if abs(i - j) == 1 else INF for j in range(n)]
         for i in range(n)]
    )
    got = spherical_subsets(matrix)
    assert len(got) == 1 + n + (n - 1)
    assert len(calls) <= n * len(got)


# -- Poincare polynomials ---------------------------------------------------


def test_poincare_i24():
    label = classify_subset(uniform_matrix(2, 4), (0, 1))
    # (1+t)(1+t+t^2+t^3)
    assert poincare_polynomial(label) == (1, 2, 2, 2, 1)


def test_poincare_a2():
    label = classify_subset(path_matrix([3]), (0, 1))
    assert poincare_polynomial(label) == (1, 2, 2, 1)
    assert sum(poincare_polynomial(label)) == 6


def test_poincare_trivial():
    label = classify_subset(uniform_matrix(3, 4), ())
    assert poincare_polynomial(label) == (1,)


def test_poincare_rejects_infinite():
    label = classify_subset(uniform_matrix(3, 4), range(3))
    with pytest.raises(NotSphericalError):
        poincare_polynomial(label)


def test_poincare_palindrome_and_order():
    for labels in ([3, 3], [4, 3], [5, 3], [3, 4, 3]):
        m = path_matrix(labels)
        label = classify_subset(m, range(m.rank))
        poly = poincare_polynomial(label)
        assert poly == tuple(reversed(poly))
        assert sum(poly) == label.order
