"""The small-root automaton against its oracles.

The ball gives every element's word and descents, written by json.dumps as
the lines of the `ball` export, and its sphere and descent counts;
Steinberg's series gives c_i to any depth; and the parabolic quotients give
d_i as D(t) = sum over s of (W(t) / W_{S-s}(t) - 1), a route that shares no
code with the automaton or the ball.  Division by the cyclotomic polynomial
is the oracle for the keys of the sparse ring of the small roots.
"""
import json
import math
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    SCAN_BALLS,
    coxeter_matrices,
    cyclotomic_by_division,
    export_by_ball,
    get_ball,
    perfbench_matrices,
)
from coxgrowth import (
    INF,
    RationalFunction,
    build_ball,
    compute_stats,
    path_matrix,
    rational_growth_series,
    taylor_coefficients,
    uniform_matrix,
    validate_matrix,
)
from coxgrowth import polys
from coxgrowth import automaton
from coxgrowth.automaton import (
    FREE_TERMS,
    START_BITS,
    ShortLex,
    SmallRoots,
    _Ring,
    _anchors,
    _layers,
    export_lines,
    sphere_counts,
)
from coxgrowth.errors import ResourceLimitError


def small_roots(matrix, depth):
    """The action on all the small roots of depth <= depth + 1."""
    return SmallRoots(matrix, depth, cap=INF).extend(depth + 1)


def triangle(a, b, c):
    return validate_matrix([[1, a, b], [a, 1, c], [b, c, 1]])


MIXED = validate_matrix([[1, 3, 4, INF], [3, 1, 5, 4], [4, 5, 1, 3], [INF, 4, 3, 1]])

# systems whose counts are checked far past any ball
DEEP_SYSTEMS = [
    pytest.param(uniform_matrix(3, 4), id="(4,4,4)"),
    pytest.param(uniform_matrix(4, 4), id="uniform(4,4)"),
    pytest.param(MIXED, id="mixed"),
    pytest.param(path_matrix([5, 3, 3]), id="H4"),
    pytest.param(triangle(5, 7, 11), id="(5,7,11)"),
]

# depth of the ball each perfbench matrix is compared on
PERFBENCH_DEPTHS = {"t444": 12, "u44": 7, "u43": 7, "mixed": 7,
                    "a8": 5, "a4": 8, "path16": 3, "path6": 5}


def assert_walk_matches_ball(matrix, depth, ball):
    """export_lines writes the ball's export, and sphere_counts counts its layers and masks."""
    # as lists, so that a failure is reported without diffing two long strings
    lines = "".join(export_lines(matrix, depth)).splitlines(keepends=True)
    assert lines == export_by_ball(ball).splitlines(keepends=True)
    assert sphere_counts(matrix, depth) == (ball.layer_sizes(), list(compute_stats(ball).d))


def deepest_within(rank, size=1500, most=8):
    """The largest depth <= most whose ball holds at most size elements for any labels."""
    depth, total, sphere = 0, 1, 1
    while depth < most:
        sphere *= rank if depth == 0 else rank - 1
        if total + sphere > size:
            break
        total += sphere
        depth += 1
    return depth


@pytest.mark.parametrize("matrix, depth", SCAN_BALLS + [
    pytest.param(matrix, PERFBENCH_DEPTHS[name], id=f"perfbench-{name}")
    for name, matrix in perfbench_matrices().items()
])
def test_walk_matches_ball(matrix, depth):
    assert_walk_matches_ball(matrix, depth, get_ball(matrix, depth))


@settings(max_examples=40, deadline=None)
@given(coxeter_matrices(max_rank=5, labels=(2, 3, 4, 5, 6, 7, INF)))
def test_walk_matches_ball_random(matrix):
    depth = deepest_within(matrix.rank)
    assert_walk_matches_ball(matrix, depth, build_ball(matrix, depth))


@pytest.mark.parametrize("matrix, depth, most", [
    pytest.param(validate_matrix([]), 3, 0, id="rank0"),
    pytest.param(validate_matrix([[1]]), 3, 1, id="rank1"),
    pytest.param(uniform_matrix(3, 4), 0, 0, id="depth0"),
    # letters 10..15 have two digits
    pytest.param(perfbench_matrices()["path16"], 3, 2, id="perfbench-path16"),
    # finite groups, to past their longest elements, whose descents are every letter
    pytest.param(path_matrix([5, 3]), 16, 3, id="H3"),
    pytest.param(path_matrix([3, 3, 3]), 11, 4, id="A4"),
    pytest.param(validate_matrix([[1, 3, 2, 2, 2], [3, 1, 3, 2, 2], [2, 3, 1, 2, 2],
                                  [2, 2, 2, 1, 5], [2, 2, 2, 5, 1]]), 11, 5, id="A3xI2(5)"),
    pytest.param(uniform_matrix(2, 7), 10, 2, id="I2(7)"),
    # chunks of several lengths: (4,4,4) and A~2 write lengths from anchors
    # up to seven and thirty lengths back
    pytest.param(uniform_matrix(3, 4), 16, 2, id="(4,4,4)"),
    pytest.param(uniform_matrix(3, 3), 40, 2, id="A~2"),
    pytest.param(uniform_matrix(2, INF), 300, 1, id="I2(inf)"),
])
def test_export_lines_are_what_json_dumps_writes(matrix, depth, most):
    # as lists, so that a failure is reported without diffing two long strings
    lines = "".join(export_lines(matrix, depth)).splitlines(keepends=True)
    assert lines == export_by_ball(get_ball(matrix, depth)).splitlines(keepends=True)
    sizes = {len(json.loads(line)["desc"]) for line in lines}
    assert sizes == set(range(most + 1))


@pytest.mark.parametrize("m", [4, 5, 7, 9])
def test_labels_above_the_depth_act_as_inf(m):
    # the walk to depth uses the matrix with labels > depth made inf
    for matrix in (uniform_matrix(2, m), triangle(m, 3, 4), triangle(m, m + 1, INF)):
        for depth in range(m - 3, m + 2):
            assert_walk_matches_ball(matrix, depth, build_ball(matrix, depth))


@pytest.mark.parametrize("matrix", DEEP_SYSTEMS)
def test_sphere_counts_match_steinberg_series(matrix):
    c, _ = sphere_counts(matrix, 200, cap=10**200)
    assert c == taylor_coefficients(rational_growth_series(matrix), 200)


def quotient_descents(matrix, depth):
    """sum over s of (W(t) / W_{S-s}(t) - 1) to depth: elements whose one descent is s."""
    n = matrix.rank
    whole = rational_growth_series(matrix)
    total = [-n] + [0] * depth
    for s in range(n):
        rest = [j for j in range(n) if j != s]
        part = rational_growth_series(
            validate_matrix([[matrix.order(i, j) for j in rest] for i in rest]))
        quotient = RationalFunction(polys.mul(whole.num, part.den),
                                    polys.mul(whole.den, part.num))
        total = [a + b for a, b in zip(total, taylor_coefficients(quotient, depth))]
    return total


@pytest.mark.parametrize("matrix", DEEP_SYSTEMS)
def test_descent_counts_match_parabolic_quotients(matrix):
    _, d = sphere_counts(matrix, 80, cap=10**80)
    assert d == quotient_descents(matrix, 80)


@pytest.mark.parametrize("matrix, positive_roots", [
    pytest.param(path_matrix([3, 3]), 6, id="A3"),
    pytest.param(path_matrix([4, 3]), 9, id="B3"),
    pytest.param(path_matrix([5, 3]), 15, id="H3"),
    pytest.param(path_matrix([3, 4, 3]), 24, id="F4"),
    pytest.param(path_matrix([5, 3, 3]), 60, id="H4"),
    pytest.param(uniform_matrix(2, 7), 7, id="I2(7)"),
])
def test_small_roots_of_a_finite_group_are_its_positive_roots(matrix, positive_roots):
    act = small_roots(matrix, positive_roots)
    assert all(len(row) == positive_roots for row in act)
    for s, row in enumerate(act):
        assert row[s] == -1
        # s permutes the positive roots other than alpha_s
        assert sorted(j for j in row if j >= 0) == [i for i in range(positive_roots) if i != s]
        assert all(row[j] == i for i, j in enumerate(row) if j >= 0)


@pytest.mark.parametrize("matrix, size", [
    pytest.param(uniform_matrix(3, 4), 9, id="(4,4,4)"),
    pytest.param(uniform_matrix(4, 4), 16, id="uniform(4,4)"),
    pytest.param(uniform_matrix(4, 3), 10, id="uniform(4,3)"),
    pytest.param(MIXED, 13, id="mixed"),
    pytest.param(triangle(5, 7, 11), 20, id="(5,7,11)"),
    pytest.param(uniform_matrix(5, 3), 15, id="uniform(5,3)"),
    pytest.param(uniform_matrix(5, 5), 35, id="uniform(5,5)"),
])
def test_small_root_counts_of_infinite_groups(matrix, size):
    # sizes of E found independently, in floating point
    assert len(small_roots(matrix, 40)[0]) == size


def test_small_roots_stop_at_b_minus_one():
    # B(alpha_0, alpha_1) = -1 for the label inf, so s_0 alpha_1 is not small
    assert small_roots(uniform_matrix(2, INF), 10) == [[-1, -1], [-1, -1]]
    assert small_roots(validate_matrix([[1]]), 10) == [[-1]]
    assert small_roots(validate_matrix([]), 10) == []


# -- exact signs --------------------------------------------------------------


def golden_ring():
    """The ring of I2(5), and multiplication by phi = 2cos(pi/5) = x + x^-1 in it."""
    ring = _Ring(uniform_matrix(2, 5), INF)

    def times_phi(x):
        # coordinate 0 of s_0 (0, x) is c_01 x
        return ring.reflect(({}, x), 0)

    return ring, times_phi


def combine(*pairs):
    """The sum of k x over the (k, x) pairs, x sparse."""
    out = {}
    for k, x in pairs:
        for e, a in x.items():
            out[e] = out.get(e, 0) + k * a
    return out


def test_golden_ratio_is_exact():
    ring, times_phi = golden_ring()
    one = {0: 1}
    phi = times_phi(one)
    square = times_phi(phi)
    assert not ring.key(combine((1, square), (-1, phi), (-1, one)))
    assert ring.key(combine((1, square), (-1, phi)))
    for p in (8, 64, 300):
        lo, hi = ring.bounds(phi, p)
        assert hi - lo <= 2
        # x^2 - x - 1 rises through its root phi
        assert lo * lo - (lo << p) - (1 << 2 * p) < 0 < hi * hi - (hi << p) - (1 << 2 * p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_keys_match_the_dense_reduction(data):
    # x is 0 in Z[zeta_N] exactly when Phi_N divides it as a polynomial of
    # degree < N/2, which is the oracle for _Ring.key
    matrix = data.draw(st.sampled_from([triangle(5, 7, 11), triangle(9, 4, 15), triangle(8, 12, 25)]))
    ring = _Ring(matrix, INF)
    half = ring.half
    phi = cyclotomic_by_division(2 * half)

    def divides(x):
        try:
            polys.quotient(polys.trim([x.get(e, 0) for e in range(half)]), phi)
        except ArithmeticError:
            return False
        return True

    def terms():
        x = {}
        for _ in range(data.draw(st.integers(0, 6))):
            e = data.draw(st.integers(0, half - 1))
            x[e] = x.get(e, 0) + data.draw(st.integers(-3, 3))
        return x

    def zero():
        # multiples of zeta^e (1 + zeta^(N/p) + ... + zeta^((p-1) N/p)), which are 0
        x = {}
        for _ in range(data.draw(st.integers(1, 3))):
            p = data.draw(st.sampled_from([p for p in (2, 3, 5, 7, 11) if 2 * half % p == 0]))
            e, k = data.draw(st.integers(0, half - 1)), data.draw(st.integers(-2, 2))
            for v in range(p):
                f = (e + v * (2 * half // p)) % (2 * half)  # x^(N/2) = -1
                x[f % half] = x.get(f % half, 0) + (-k if f >= half else k)
        return x

    z = zero()
    assert divides(z) and not ring.key(z)
    x = combine((1, terms()), (1, zero()))
    if data.draw(st.booleans()):
        y = combine((1, x), (1, zero()))  # equal to x, though not term by term
    else:
        y = combine((1, terms()), (1, zero()))
    difference = combine((1, x), (-1, y))
    assert (not ring.key(x)) == divides(x)
    assert (ring.key(x) == ring.key(y)) == divides(difference)
    assert (not ring.key(difference)) == (ring.key(x) == ring.key(y))


def two_cos(m):
    """The ring of I2(m), N = 2m, and 2cos(pi/m) = x + x^-1 in it, x^-1 = -x^(m - 1)."""
    return _Ring(uniform_matrix(2, m), INF), {1: 1, m - 1: -1}


@pytest.mark.parametrize("m, square", [(4, 2), (6, 3)])
def test_two_cos_bounds_bracket_square_roots(m, square):
    ring, x = two_cos(m)
    for p in (8, 64, 300):
        lo, hi = ring.bounds(x, p)
        assert lo * lo < square << 2 * p < hi * hi and hi - lo <= 2


@pytest.mark.parametrize("m", [5, 7, 11, 1001, 10**9 + 7])
def test_two_cos_bounds_keep_the_half_angle_formula(m):
    # (2cos(pi/2m))^2 = 2 + 2cos(pi/m), at a cost that does not grow with m
    ring, x = two_cos(2 * m)
    y = {2: 1, 2 * m - 2: -1}  # x^2 + x^-2
    for p in (64, 1000):
        lo, hi = ring.bounds(x, p)
        below, above = ring.bounds(y, p)
        assert lo * lo < (2 << 2 * p) + (above << p) and (2 << 2 * p) + (below << p) < hi * hi
        assert hi - lo <= 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bounds_bracket_a_float_reference(data):
    matrix = data.draw(st.sampled_from([triangle(5, 7, 11), triangle(9, 4, 15), triangle(8, 12, 25)]))
    ring = _Ring(matrix, INF)
    half = ring.half
    x, reference = {}, 0.0
    for _ in range(data.draw(st.integers(0, 6))):
        a, k = data.draw(st.integers(0, half - 1)), data.draw(st.integers(-3, 3))
        # k (x^a + x^-a), x^-a = -x^(N/2 - a)
        for e, b in ((a, k), (half - a, -k)) if a else ((0, 2 * k),):
            x[e] = x.get(e, 0) + b
        reference += 2 * k * math.cos(math.pi * a / half)
    # the float is good to far better than 10^-3 of a unit of 2^-30
    lo, hi = ring.bounds(x, 30)
    assert lo - 1e-3 <= reference * 2**30 <= hi + 1e-3
    # the width, in units of 2^-p, does not grow as p doubles
    for p in (30, 60, 120, 240):
        lo, hi = ring.bounds(x, p)
        assert hi - lo <= 2, p


def test_sign_refines_until_it_decides():
    ring, times_phi = golden_ring()
    one = {0: 1}
    phi = times_phi(one)
    fib = [0, 1]
    while len(fib) < 102:
        fib.append(fib[-1] + fib[-2])
    asked = []
    bounds = ring.bounds
    ring.bounds = lambda x, p: asked.append(p) or bounds(x, p)
    for k in range(1, 101):
        asked.clear()
        # F_k phi - F_(k+1) = -(1 - phi)^k
        assert ring.sign(combine((fib[k], phi), (-fib[k + 1], one))) == (-1) ** (k + 1), k
    assert max(asked) > START_BITS  # |F_100 phi - F_101| < 2^-64
    # phi^2 - phi - 1 = 0, which only the exact zero test can tell
    zero = combine((1, times_phi(phi)), (-1, phi), (-1, one))
    lo, hi = bounds(zero, START_BITS)
    assert lo < 0 < hi and ring.sign(zero) == 0


def test_large_labels_cost_their_terms_not_their_lcm():
    # lcm(97, 89, 83) = 716,539: a dense root would hold over 2 million integers
    roots = SmallRoots(triangle(97, 89, 83), 100, cap=INF)
    act = roots.extend(101)
    assert len(act[0]) == 97 + 89 + 83 - 3  # the roots of the three dihedral subsystems
    kept = sum(len(x) for v in roots.vectors for x in v)
    assert kept < 20_000 and len(roots.ring.cells) < 1_000
    matrix = triangle(11, 13, 17)  # at depth >= 17 every label is kept
    start = time.perf_counter()
    c, d = sphere_counts(matrix, 30, cap=INF)
    assert time.perf_counter() - start < 1  # about 0.015 s
    assert c == taylor_coefficients(rational_growth_series(matrix), 30)
    assert d == quotient_descents(matrix, 30)


def test_labels_beyond_the_depth_need_no_ring():
    matrix = triangle(997, 991, 983)
    roots = SmallRoots(matrix, 12, cap=INF)
    assert len(roots.extend(13)[0]) == 3 and roots.ring.half == 1
    assert_walk_matches_ball(matrix, 12, build_ball(matrix, 12))


def test_small_roots_find_only_what_the_walk_reaches():
    # roots come one depth at a time: a walk stopped by the cap finds no deeper ones
    matrix = triangle(97, 89, 83)
    roots = SmallRoots(matrix, 200, cap=INF)
    roots.extend(5)
    assert max(roots.levels) == 6 and roots.done == len(roots.vectors) - 3 * 2
    with pytest.raises(ResourceLimitError) as ours:
        sphere_counts(matrix, 200, cap=10_000)
    with pytest.raises(ResourceLimitError) as ball:
        build_ball(matrix, 200, cap=10_000)
    assert str(ours.value) == str(ball.value)


def test_small_root_terms_count_against_the_cap():
    # I2(m) keeps m roots of up to m terms each, where its ball has 2m elements
    matrix = uniform_matrix(2, 400)
    with pytest.raises(ResourceLimitError, match="element cap 1000 reached by the terms of the small roots"):
        SmallRoots(matrix, 400, cap=1000).extend(401)
    roots = SmallRoots(matrix, 400, cap=10**6)
    assert len(roots.extend(401)[0]) == 400
    assert FREE_TERMS < 10**6 - roots.ring.left < 10**6


def count_successors(monkeypatch):
    calls = []
    successors = ShortLex.successors
    monkeypatch.setattr(ShortLex, "successors",
                        lambda self, state: calls.append(state) or successors(self, state))
    return calls


def test_a_recurring_state_is_stepped_once(monkeypatch):
    # u44 has 66 states; stepping every state of every layer took 1,580 calls
    calls = count_successors(monkeypatch)
    sphere_counts(uniform_matrix(4, 4), 30, cap=10**30)
    assert len(calls) == len(set(calls)) == 66


def test_the_lines_walk_steps_a_recurring_state_once(monkeypatch):
    # the count walk and the lines walk each step a state once; stepping
    # every state of every layer took 598 calls
    calls = count_successors(monkeypatch)
    list(export_lines(uniform_matrix(4, 4), 9))
    assert len(calls) <= 2 * 66


def walk_and_chunks(monkeypatch, matrix, depth):
    """The lengths' counts and recurring successors that export_lines gives `_anchors`, and its chunks."""
    seen = []

    def spy(counts, steps):
        seen.extend((counts, steps, _anchors(counts, steps)))
        return seen[-1]

    monkeypatch.setattr(automaton, "_anchors", spy)
    export_lines(matrix, depth)
    return seen


CHUNKED_SYSTEMS = [
    pytest.param(uniform_matrix(3, 4), 19, id="(4,4,4)"),
    pytest.param(uniform_matrix(4, 4), 10, id="uniform(4,4)"),
    pytest.param(MIXED, 10, id="mixed"),
    pytest.param(uniform_matrix(3, 3), 60, id="A~2"),
    pytest.param(uniform_matrix(4, 3), 9, id="uniform(4,3)"),
    pytest.param(path_matrix([5, 3]), 20, id="H3"),
    pytest.param(uniform_matrix(2, INF), 50, id="I2(inf)"),
]


@pytest.mark.parametrize("matrix, depth", CHUNKED_SYSTEMS)
def test_no_chunk_holds_more_template_lines_than_its_anchor_has_elements(monkeypatch, matrix, depth):
    # paths from the anchor's distinct states to top, counted forward from
    # the states of a separate count walk, are the lines of top's templates
    counts, _, chunks = walk_and_chunks(monkeypatch, matrix, depth)
    auto = ShortLex(matrix, depth, cap=INF)
    layers = [{0: 1}] + [layer for layer, _ in _layers(auto, depth, INF)]
    assert [sum(layer.values()) for layer in layers] == counts

    def recurs(i):
        return len(layers[i]) < counts[i]

    def paths(anchor, top):
        walk = dict.fromkeys(layers[anchor], 1)
        for _ in range(anchor, top):
            step = {}
            for state, count in walk.items():
                for _, new in auto.successors(state):
                    step[new] = step.get(new, 0) + count
            walk = step
        return sum(walk.values())

    # the chunks cover lengths 1..last in order, each from the top before it
    assert [anchor for anchor, _ in chunks] == [0] + [top for _, top in chunks[:-1]]
    assert chunks[-1][1] == len(counts) - 1
    assert all(anchor < top for anchor, top in chunks)
    for anchor, top in chunks:
        if top > anchor + 1:
            assert recurs(anchor) and paths(anchor, top) <= counts[anchor]
        # and each reaches back as far as the rule lets it
        below = anchor - 1
        assert not (below >= 0 and recurs(anchor) and recurs(below)
                    and paths(below, top) <= counts[below])


def test_444_is_written_from_three_anchors_of_several_lengths(monkeypatch):
    _, _, chunks = walk_and_chunks(monkeypatch, uniform_matrix(3, 4), 19)
    assert [chunk for chunk in chunks if chunk[1] > chunk[0] + 1] == [(7, 9), (9, 12), (12, 19)]


class _CountingSteps(dict):
    """A length's successors that count, into `read`, the states a caller walks."""

    def __init__(self, steps, read):
        super().__init__(steps)
        self.read = read

    def items(self):
        self.read.append(len(self))
        return super().items()


def test_the_anchor_choice_is_linear_in_the_depth(monkeypatch):
    # A~2 at depth 400 has 8,669 distinct states over its lengths and a chunk
    # of 235 lengths; a search that counted the paths again from every
    # candidate anchor walked 736,726 states here
    counts, steps, chunks = walk_and_chunks(monkeypatch, uniform_matrix(3, 3), 400)
    assert max(top - anchor for anchor, top in chunks) > 50
    read = []
    counting = [None if below is None else _CountingSteps(below, read) for below in steps]
    assert _anchors(counts, counting) == chunks
    assert sum(read) <= 2 * sum(len(below) for below in steps if below is not None)


def test_the_lines_need_no_recursion():
    # every walk is a loop: I2(inf) to depth 5,000 is written under a
    # recursion limit of 50 frames past the caller's
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        lines = "".join(export_lines(uniform_matrix(2, INF), 5000)).splitlines()
    finally:
        sys.setrecursionlimit(limit)
    assert len(lines) == 10_001
    assert lines[-1] == '{"desc": [0], "i": 5000, "w": "%s"}' % ("10" * 2500)


def test_a_bit_of_an_unvisited_root_raises():
    # a root's images come when it is visited, so a bit of a root not yet
    # visited raises rather than read an image that a later visit could change
    auto = ShortLex(uniform_matrix(3, 4), 10, cap=INF)
    auto.grow(1)
    assert auto.successors(1)
    with pytest.raises(IndexError):
        auto.successors(1 << 2 * auto.roots.done)
