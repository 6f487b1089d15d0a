"""Coxeter matrices, diagram properties, and the finite-type classification.

A Coxeter matrix is symmetric with 1 on the diagonal and entries >= 2 (or
infinity) elsewhere.  Generators are the indices 0..rank-1.  The infinite
entry is kept as the float sentinel INF, which orders above every integer;
files may spell it "inf" or 0, and we always emit "inf".
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, permutations
from math import inf as INF

from .errors import (
    BadDiagonalError,
    BadOffDiagonalError,
    ClassificationError,
    DiagramNotCompleteError,
    HypothesisError,
    NonSymmetricError,
    NotSphericalError,
    NotSquareError,
)
from . import polys


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric order matrix of a finitely generated Coxeter system."""

    entries: tuple[tuple[object, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.entries)

    def order(self, s: int, t: int):
        """Order m_st of the product of two generators (INF allowed)."""
        return self.entries[s][t]

    def generators(self) -> range:
        return range(self.rank)

    def __repr__(self) -> str:  # compact, mostly for test failure output
        rows = ";".join(
            ",".join("inf" if x == INF else str(x) for x in row)
            for row in self.entries
        )
        return f"CoxeterMatrix([{rows}])"


def _normalize_entry(x):
    if x == "inf":
        return INF
    if x == 0:
        return INF
    if isinstance(x, float):
        if x == INF:
            return INF
        if x.is_integer():
            return int(x)
        return x
    return x


def validate_matrix(raw) -> CoxeterMatrix:
    """Check shape and entry constraints, returning the validated matrix."""
    if not isinstance(raw, (list, tuple)) or not all(
        isinstance(r, (list, tuple)) for r in raw
    ):
        raise NotSquareError("a matrix must be a list of rows, each a list")
    rows = [list(r) for r in raw]
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise NotSquareError(f"expected {n} columns per row, got {len(r)}")
    m = [[_normalize_entry(x) for x in r] for r in rows]
    for i in range(n):
        if m[i][i] != 1:
            raise BadDiagonalError(f"entry ({i},{i}) must be 1, got {m[i][i]}")
        for j in range(n):
            if i == j:
                continue
            x = m[i][j]
            if x != INF and (not isinstance(x, int) or x < 2):
                raise BadOffDiagonalError(
                    f"entry ({i},{j}) must be an integer >= 2 or inf, got {x}"
                )
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise NonSymmetricError(
                    f"entries ({i},{j}) and ({j},{i}) differ: {m[i][j]} vs {m[j][i]}"
                )
    return CoxeterMatrix(tuple(tuple(r) for r in m))


def uniform_matrix(rank: int, label) -> CoxeterMatrix:
    """Matrix with every off-diagonal order equal to label."""
    label = _normalize_entry(label)
    rows = [
        [1 if i == j else label for j in range(rank)] for i in range(rank)
    ]
    return validate_matrix(rows)


def path_matrix(labels) -> CoxeterMatrix:
    """Rank len(labels)+1 matrix whose diagram is a path with the given labels."""
    labels = [_normalize_entry(x) for x in labels]
    n = len(labels) + 1
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, m in enumerate(labels):
        rows[i][i + 1] = m
        rows[i + 1][i] = m
    return validate_matrix(rows)


def _declared_rank(data) -> int:
    """The "rank" value: a non-negative whole number (3.0 is read as 3)."""
    rank = data.get("rank")
    if isinstance(rank, float) and rank.is_integer():
        rank = int(rank)
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 0:
        raise NotSquareError(f'"rank" must be a non-negative integer, got {rank!r}')
    return rank


def parse_matrix_data(data) -> CoxeterMatrix:
    """Build a matrix from decoded JSON: {"rank", "m"} or {"rank", "uniform"}."""
    if not isinstance(data, dict):
        raise BadOffDiagonalError("matrix file must decode to a JSON object")
    if "uniform" in data:
        return uniform_matrix(_declared_rank(data), data["uniform"])
    rows = data.get("m")
    if rows is None:
        raise BadOffDiagonalError('matrix object needs an "m" or "uniform" key')
    mat = validate_matrix(rows)
    if "rank" in data and _declared_rank(data) != mat.rank:
        raise NotSquareError(
            f'declared rank {data["rank"]} does not match {mat.rank} rows'
        )
    return mat


def load_matrix(path) -> CoxeterMatrix:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_matrix_data(json.load(fp))


def matrix_to_data(matrix: CoxeterMatrix) -> dict:
    """JSON-ready form; infinite entries become the string "inf"."""
    return {
        "rank": matrix.rank,
        "m": [
            ["inf" if x == INF else x for x in row] for row in matrix.entries
        ],
    }


@dataclass(frozen=True)
class DiagramProperties:
    two_spherical: bool
    complete_diagram: bool
    uniform_label: int | None


def diagram_properties(matrix: CoxeterMatrix) -> DiagramProperties:
    off = [
        matrix.order(i, j)
        for i in matrix.generators()
        for j in matrix.generators()
        if i < j
    ]
    two_spherical = all(x != INF for x in off)
    complete = all(x == INF or x >= 3 for x in off)
    uniform = None
    if off and all(x == off[0] for x in off) and off[0] != INF:
        uniform = off[0]
    return DiagramProperties(two_spherical, complete, uniform)


def require_complete_two_spherical(matrix: CoxeterMatrix) -> None:
    """Raise unless every pairwise order is finite and >= 3."""
    props = diagram_properties(matrix)
    if not props.two_spherical:
        raise HypothesisError("needs every pairwise order finite")
    if not props.complete_diagram:
        raise DiagramNotCompleteError("needs every pairwise order >= 3")


@dataclass(frozen=True)
class FiniteTypeLabel:
    """Isomorphism type of a standard subsystem: a name plus its exponents.

    exponents is None exactly when the subsystem is infinite.  For finite
    types the order of the group is the product of (e + 1) over exponents.
    """

    name: str
    exponents: tuple[int, ...] | None

    @property
    def finite(self) -> bool:
        return self.exponents is not None

    @property
    def order(self) -> int | None:
        if self.exponents is None:
            return None
        out = 1
        for e in self.exponents:
            out *= e + 1
        return out


INFINITE = FiniteTypeLabel("infinite", None)
TRIVIAL = FiniteTypeLabel("1", ())

_E_EXPONENTS = {6: (1, 4, 5, 7, 8, 11), 7: (1, 5, 7, 9, 11, 13, 17), 8: (1, 7, 11, 13, 17, 19, 23, 29)}


def _classify_component(matrix: CoxeterMatrix, nodes: list[int]):
    """(name, exponents) of one connected diagram component, or None if infinite."""
    k = len(nodes)
    if k == 1:
        return "A1", (1,)
    edges = [
        (i, j, matrix.order(i, j))
        for i, j in combinations(nodes, 2)
        if matrix.order(i, j) > 2
    ]
    if any(m == INF for _, _, m in edges):
        return None
    if k == 2:
        m = edges[0][2]
        name = "A2" if m == 3 else f"I2({m})"
        return name, (1, m - 1)
    if len(edges) != k - 1:
        return None  # a cycle; no finite diagram has one
    adj = {v: [] for v in nodes}
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    degrees = sorted(len(adj[v]) for v in nodes)
    if degrees[-1] >= 4 or (len(degrees) >= 2 and degrees[-2] >= 3):
        return None
    if degrees[-1] == 3:
        if any(m != 3 for _, _, m in edges):
            return None
        branch = next(v for v in nodes if len(adj[v]) == 3)
        arms = []
        for start in adj[branch]:
            length, prev, cur = 1, branch, start
            while True:
                nxt = [u for u in adj[cur] if u != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                length += 1
            arms.append(length)
        arms.sort()
        if arms[0] == 1 and arms[1] == 1:
            exps = tuple(range(1, 2 * k - 2, 2)) + (k - 1,)
            return f"D{k}", tuple(sorted(exps))
        if arms == [1, 2, 2]:
            return "E6", _E_EXPONENTS[6]
        if arms == [1, 2, 3]:
            return "E7", _E_EXPONENTS[7]
        if arms == [1, 2, 4]:
            return "E8", _E_EXPONENTS[8]
        return None
    # a path: order the nodes from one end and read off the labels
    end = next(v for v in nodes if len(adj[v]) == 1)
    seq, prev = [end], None
    while len(seq) < k:
        nxt = [u for u in adj[seq[-1]] if u != prev]
        prev = seq[-1]
        seq.append(nxt[0])
    labels = [matrix.order(a, b) for a, b in zip(seq, seq[1:])]
    big = [m for m in labels if m > 3]
    if not big:
        return f"A{k}", tuple(range(1, k + 1))
    if len(big) > 1:
        return None
    m = big[0]
    at_end = labels[0] == m or labels[-1] == m
    if m == 4 and at_end:
        return f"B{k}", tuple(range(1, 2 * k, 2))
    if m == 4 and k == 4:
        return "F4", (1, 5, 7, 11)
    if m == 5 and at_end and k == 3:
        return "H3", (1, 5, 9)
    if m == 5 and at_end and k == 4:
        return "H4", (1, 11, 19, 29)
    return None


def classify_subset(matrix: CoxeterMatrix, subset) -> FiniteTypeLabel:
    """Finite-type label of the standard subsystem on the given generators."""
    nodes = sorted(subset)
    if not nodes:
        return TRIVIAL
    # split into diagram components (edges where the order exceeds 2)
    remaining = set(nodes)
    parts = []
    while remaining:
        seed = min(remaining)
        comp, frontier = {seed}, [seed]
        while frontier:
            v = frontier.pop()
            for u in remaining - comp:
                if matrix.order(v, u) > 2:
                    comp.add(u)
                    frontier.append(u)
        parts.append(sorted(comp))
        remaining -= comp
    labels = []
    for part in parts:
        got = _classify_component(matrix, part)
        if got is None:
            return INFINITE
        labels.append(got)
    if len(labels) == 1:
        return FiniteTypeLabel(labels[0][0], labels[0][1])
    names = sorted(name for name, _ in labels)
    exps = []
    for _, e in labels:
        exps.extend(e)
    return FiniteTypeLabel("x".join(names), tuple(sorted(exps)))


def spherical_subsets(matrix: CoxeterMatrix) -> list[tuple[tuple[int, ...], FiniteTypeLabel]]:
    """All subsets J (including the empty set) generating a finite subsystem.

    Every subset of a spherical set is spherical, so each size extends only
    the spherical sets one smaller, by generators above their largest.  The
    output is ordered by size, then lexicographically.
    """
    out = []
    level = [()]
    while level:
        found = [(subset, classify_subset(matrix, subset)) for subset in level]
        found = [(subset, label) for subset, label in found if label.finite]
        out.extend(found)
        level = [
            subset + (s,)
            for subset, _ in found
            for s in range(subset[-1] + 1 if subset else 0, matrix.rank)
        ]
    return out


def poincare_polynomial(label: FiniteTypeLabel) -> tuple[int, ...]:
    """Length generating polynomial of a finite subsystem from its exponents.

    The product of (1 + t + ... + t^e) over the exponents; evaluating at 1
    recovers the group order and the degree is the longest element's length.
    """
    if not label.finite:
        raise NotSphericalError(f"no finite Poincare polynomial for {label.name}")
    out = (1,)
    for e in label.exponents:
        out = polys.mul(out, (1,) * (e + 1))
    if label.order is not None and sum(out) != label.order:
        raise ClassificationError("exponent product disagrees with the order")
    return out


def compare_preorder(small: CoxeterMatrix, big: CoxeterMatrix) -> bool:
    """Entrywise-domination preorder, taken over all generator injections.

    True when some injection phi of the first generator set into the second
    has m_st <= m'_{phi(s)phi(t)} for every pair.  Exhaustive search; fine
    at desk-scale ranks.
    """
    n, n2 = small.rank, big.rank
    if n > n2:
        return False
    idx = list(range(n))
    for image in permutations(range(n2), n):
        ok = True
        for i in idx:
            for j in range(i + 1, n):
                if not small.order(i, j) <= big.order(image[i], image[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False
