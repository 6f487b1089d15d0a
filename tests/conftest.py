import importlib.util
import json
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

from coxgrowth import (
    INF,
    build_ball,
    parse_matrix_data,
    path_matrix,
    uniform_matrix,
    validate_matrix,
)
from coxgrowth import polys

ACCEPTANCE_LINES = []

_CACHE = {}


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


def get_ball(matrix, depth):
    """Session-wide ball cache; balls are immutable so sharing is safe."""
    key = (matrix, depth)
    if key not in _CACHE:
        _CACHE[key] = build_ball(matrix, depth)
    return _CACHE[key]


def affine_a(rank):
    """Affine type A~_{rank-1}: a cycle of 3-labels, 2 elsewhere."""
    return validate_matrix(
        [[1 if i == j else 3 if (i - j) % rank in (1, rank - 1) else 2
          for j in range(rank)] for i in range(rank)]
    )


# A~3..A~9 and the uniform systems with frozen series, for the oracle tests
ORACLE_MATRICES = [
    pytest.param(affine_a(rank), id=f"A~{rank - 1}") for rank in range(4, 11)
] + [
    pytest.param(uniform_matrix(*key), id=f"uniform{key}")
    for key in ((3, 3), (3, 4), (4, 3), (4, 4), (5, 3))
]


# balls on which the fused build data is compared with the per-element scans
SCAN_BALLS = [
    pytest.param(uniform_matrix(3, 4), 12, id="(4,4,4)"),
    pytest.param(uniform_matrix(4, 3), 7, id="uniform(4,3)"),
    pytest.param(uniform_matrix(4, 4), 7, id="uniform(4,4)"),
    pytest.param(
        validate_matrix([[1, 3, 4, INF], [3, 1, 5, 4], [4, 5, 1, 3], [INF, 4, 3, 1]]),
        7, id="mixed",
    ),
    pytest.param(path_matrix([5, 3]), 16, id="H3"),
]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    """A module of the benchmark, such as its fixed jobs (workloads) or its checker (check)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perfbench_matrices():
    return {name: parse_matrix_data(data)
            for name, data in perfbench_module("workloads").MATRICES.items()}


def export_by_ball(ball):
    """`ball`'s JSON lines as written from the ball, one json.dumps per record."""
    return "\n".join(json.dumps(rec, sort_keys=True) for rec in ball.export_records()) + "\n"


@st.composite
def coxeter_matrices(draw, max_rank=6, labels=(2, 3, 4, 5, 6, INF)):
    """Random Coxeter matrices of rank 1..max_rank with off-diagonal labels drawn from labels."""
    n = draw(st.integers(1, max_rank))
    rows = [[1] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        rows[i][j] = rows[j][i] = draw(st.sampled_from(labels))
    return validate_matrix(rows)


@pytest.fixture(scope="session")
def criterion():
    """Records one PASS/FAIL line per acceptance criterion."""

    def record(num: int, ok: bool, detail: str) -> None:
        line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        ACCEPTANCE_LINES.append(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
