import csv
import hashlib
import io
import json
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import PERFBENCH, coxeter_matrices, export_by_ball, perfbench_module
from coxgrowth import (
    INF,
    automaton,
    ResourceLimitError,
    build_ball,
    cli,
    compute_stats,
    load_matrix,
    matrix_to_data,
    rational_growth_series,
    taylor_coefficients,
    uniform_matrix,
)
from coxgrowth import ball as ball_module
from coxgrowth.automaton import sphere_counts
from coxgrowth.stats import verify_descent_ratio

M344 = {"rank": 3, "uniform": 4}
M4U3 = {"rank": 4, "uniform": 3}
M333 = {"rank": 3, "uniform": 3}
MI24 = {"m": [[1, 4], [4, 1]]}


def matrix_file(tmp_path, data, name="matrix.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


# -- info ---------------------------------------------------------------------


def test_info_payload(tmp_path, capsys):
    code, payload, _ = run_json(
        capsys, ["info", "--matrix", matrix_file(tmp_path, M4U3)]
    )
    assert code == 0
    assert payload["rank"] == 4
    assert payload["two_spherical"] is True
    assert payload["complete_diagram"] is True
    assert payload["uniform_label"] == 3
    subsets = payload["spherical_subsets"]
    singles = [s for s in subsets if len(s["gens"]) == 1]
    pairs = [s for s in subsets if len(s["gens"]) == 2]
    assert len(singles) == 4 and all(s["type"] == "A1" for s in singles)
    assert len(pairs) == 6 and all(s["order"] == 6 for s in pairs)
    assert all(len(s["gens"]) <= 2 for s in subsets)


def test_info_serializes_unbounded_orders(tmp_path, capsys):
    data = {"m": [[1, "inf"], ["inf", 1]]}
    code, payload, _ = run_json(
        capsys, ["info", "--matrix", matrix_file(tmp_path, data)]
    )
    assert code == 0
    assert payload["two_spherical"] is False
    assert payload["matrix"]["m"][0][1] == "inf"


# -- ball ---------------------------------------------------------------------


def test_ball_jsonl(tmp_path, capsys):
    code = cli.main(
        ["ball", "--matrix", matrix_file(tmp_path, MI24), "--depth", "10"]
    )
    out = capsys.readouterr().out
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 8
    assert records[0] == {"desc": [], "i": 0, "w": ""}
    assert [r["i"] for r in records] == [0, 1, 1, 2, 2, 3, 3, 4]
    assert [len(r["w"]) for r in records] == [r["i"] for r in records]
    assert records[-1]["w"] == "0101"


# -- stats --------------------------------------------------------------------


def test_stats_csv_golden(tmp_path, capsys):
    code = cli.main(
        ["stats", "--matrix", matrix_file(tmp_path, M344),
         "--depth", "5", "--format", "csv"]
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "i,c,d\n"
        "0,1,0\n"
        "1,3,3\n"
        "2,6,6\n"
        "3,12,12\n"
        "4,21,18\n"
        "5,36,33\n"
    )


def test_stats_json_table(tmp_path, capsys):
    code, payload, _ = run_json(
        capsys,
        ["stats", "--matrix", matrix_file(tmp_path, M4U3), "--depth", "4"],
    )
    assert code == 0
    assert payload["depth"] == 4
    assert payload["matrix"]["rank"] == 4
    assert [row["c"] for row in payload["table"]] == [1, 4, 12, 30, 72]
    assert [row["d"] for row in payload["table"]] == [0, 4, 12, 24, 60]


def test_stats_default_depth_by_rank(tmp_path, capsys):
    code, payload, _ = run_json(
        capsys, ["stats", "--matrix", matrix_file(tmp_path, M344)]
    )
    assert code == 0 and payload["depth"] == 12
    code, payload, _ = run_json(
        capsys, ["stats", "--matrix", matrix_file(tmp_path, M4U3)]
    )
    assert code == 0 and payload["depth"] == 10


def test_stats_writes_file(tmp_path, capsys):
    out = tmp_path / "stats.json"
    code = cli.main(
        ["stats", "--matrix", matrix_file(tmp_path, M344),
         "--depth", "3", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["depth"] == 3


def stats_csv(c, d):
    """The CSV table of `stats`, written by the csv module."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "c", "d"])
    writer.writerows(zip(range(len(c)), c, d))
    return buf.getvalue()


def rows_over_cap(c, cap):
    """The error of a finite group's table, whose depth + 1 rows count against the cap."""
    if c[-1] == 0 and len(c) > cap:
        return ResourceLimitError(
            f"element cap {cap} reached by the {len(c)} rows of lengths 0..{len(c) - 1}")
    return None


def stats_by_ball(matrix, depth, cap, fmt):
    """(exit code, stdout, stderr) of `stats` when it built the ball to count."""
    try:
        ball = build_ball(matrix, depth, cap=cap)
    except ResourceLimitError as err:
        return 4, "", f"error: {err}\n"
    stats = compute_stats(ball)
    if err := rows_over_cap(stats.c, cap):
        return 4, "", f"error: {err}\n"
    if fmt == "csv":
        return 0, stats_csv(stats.c, stats.d), ""
    return 0, cli._stats_text(matrix, stats.c, stats.d, fmt), ""


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def random_matrix_data(rng, rank):
    rows = [[1] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            rows[i][j] = rows[j][i] = rng.choice([2, 3, 4, 5, 6, 7, "inf"])
    return {"m": rows}


STATS_SYSTEMS = [
    pytest.param({"m": []}, 3, id="rank0"),
    pytest.param({"m": [[1]]}, 3, id="rank1"),
    pytest.param({"m": [[1, 5], [5, 1]]}, 12, id="I2(5)"),
    pytest.param({"m": [[1, "inf"], ["inf", 1]]}, 12, id="I2(inf)"),
    pytest.param({"m": [[1, 5, 2], [5, 1, 3], [2, 3, 1]]}, 17, id="H3"),
    pytest.param({"m": [[1, 3, 2, 2, 3], [3, 1, 3, 2, 2], [2, 3, 1, 3, 2],
                        [2, 2, 3, 1, 3], [3, 2, 2, 3, 1]]}, 7, id="A~4"),
] + [
    pytest.param(random_matrix_data(random.Random(seed), 3 + seed % 3), 6 - seed % 3,
                 id=f"random{seed}")
    for seed in range(20)
]


@pytest.mark.parametrize("data, depth", STATS_SYSTEMS)
def test_stats_prints_what_the_ball_counts(tmp_path, capsys, data, depth):
    path = matrix_file(tmp_path, data)
    matrix = load_matrix(path)
    for fmt in ("json", "csv"):
        got = run_cli(capsys, ["stats", "--matrix", path, "--depth", str(depth),
                               "--format", fmt])
        assert got == stats_by_ball(matrix, depth, 10_000_000, fmt)
    # the cap trips exactly when the ball, or a finite group's depth + 1 rows,
    # would outgrow it, with its message
    need = max(build_ball(matrix, depth).size, depth + 1)
    for cap in (need, need - 1):
        if cap >= 1:
            got = run_cli(capsys, ["stats", "--matrix", path, "--depth", str(depth),
                                   "--cap", str(cap)])
            assert got == stats_by_ball(matrix, depth, cap, "json")
            assert got[0] == (0 if cap == need else 4)


@pytest.mark.parametrize("size", ["tiny", "full"])
def test_stats_on_the_benchmark_jobs(tmp_path, capsys, size):
    refs = json.loads((PERFBENCH / "refs.json").read_text(encoding="utf-8"))[size]
    for job, _, argv in perfbench_module("workloads").make_jobs("enumerate", size, 1, tmp_path):
        matrix = load_matrix(argv[argv.index("--matrix") + 1])
        depth = int(argv[argv.index("--depth") + 1])
        for fmt in ("json", "csv"):
            got = run_cli(capsys, argv + ["--format", fmt])
            if size == "tiny":
                assert got == stats_by_ball(matrix, depth, 10_000_000, fmt)
            else:  # the full balls take seconds; the benchmark's references hold their counts
                c, d = refs[job]["c"], refs[job]["d"]
                text = (stats_csv(c, d) if fmt == "csv"
                        else cli._stats_text(matrix, c, d, fmt))
                assert got == (0, text, "")


def test_stats_runs_deep_in_little_memory(tmp_path, capsys):
    path = matrix_file(tmp_path, {"rank": 4, "uniform": 4})
    argv = ["stats", "--matrix", path, "--depth", "60", "--cap", str(10**40)]
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start  # about 0.02 s
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and elapsed < 2
    series = rational_growth_series(uniform_matrix(4, 4))
    assert [row["c"] for row in out["table"]] == taylor_coefficients(series, 60)
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out) == out and peak <= 5_000_000


def test_stats_on_large_coprime_labels(tmp_path, capsys):
    # lcm(997, 991, 983) is about 10^9; labels above the depth act as inf
    data = {"m": [[1, 997, 991], [997, 1, 983], [991, 983, 1]]}
    path = matrix_file(tmp_path, data)
    matrix = load_matrix(path)
    for fmt in ("json", "csv"):
        got = run_cli(capsys, ["stats", "--matrix", path, "--format", fmt])
        assert got == stats_by_ball(matrix, 12, 10_000_000, fmt)
    # past the labels, the cap stops the walk where it stops the ball
    got = run_cli(capsys, ["stats", "--matrix", path, "--depth", "2000", "--cap", "100000"])
    assert got == stats_by_ball(matrix, 2000, 100_000, "json") and got[0] == 4


def test_stats_stops_on_the_terms_of_the_small_roots(tmp_path, capsys):
    # I2(400) to depth 400 keeps 400 roots of up to 400 terms, more than a cap of 1000
    # allows, though its ball has only 800 elements
    path = matrix_file(tmp_path, {"m": [[1, 400], [400, 1]]})
    got = run_cli(capsys, ["stats", "--matrix", path, "--depth", "400", "--cap", "1000"])
    assert got == (4, "", "error: element cap 1000 reached by the terms of the small roots\n")
    code, out, _ = run_cli(capsys, ["stats", "--matrix", path, "--depth", "400"])
    assert code == 0 and [row["c"] for row in json.loads(out)["table"]] == [1] + [2] * 399 + [1]


# -- ball, written from the automaton -----------------------------------------


def ball_by_ball(matrix, depth, cap):
    """(exit code, stdout, stderr) of `ball` when it wrote from the ball."""
    try:
        ball = build_ball(matrix, depth, cap=cap)
    except ResourceLimitError as err:
        return 4, "", f"error: {err}\n"
    return 0, export_by_ball(ball), ""


@pytest.mark.parametrize("data, depth", STATS_SYSTEMS)
def test_ball_prints_what_the_ball_holds(tmp_path, capsys, data, depth):
    path = matrix_file(tmp_path, data)
    matrix = load_matrix(path)
    argv = ["ball", "--matrix", path, "--depth", str(depth)]
    assert run_cli(capsys, argv) == ball_by_ball(matrix, depth, 10_000_000)
    # the cap trips exactly when the ball would outgrow it, with its message
    total = build_ball(matrix, depth).size
    for cap in (total, total - 1):
        if cap >= 1:
            got = run_cli(capsys, argv + ["--cap", str(cap)])
            assert got == ball_by_ball(matrix, depth, cap)
            assert got[0] == (0 if cap == total else 4)


@settings(max_examples=40, deadline=None)
@given(coxeter_matrices(max_rank=5, labels=(2, 3, 4, 5, 6, 7, INF)),
       st.integers(0, 4), st.integers(1, 500))
def test_ball_prints_what_the_ball_holds_random(tmp_path_factory, matrix, depth, cap):
    path = tmp_path_factory.mktemp("ball") / "matrix.json"
    path.write_text(json.dumps(matrix_to_data(matrix)), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["ball", "--matrix", str(path), "--depth", str(depth),
                         "--cap", str(cap)])
    assert (code, out.getvalue(), err.getvalue()) == ball_by_ball(matrix, depth, cap)


# sha256 of the full `export` jobs' stdout at seed 1, taken from json.dumps line by
# line; comparing with the ball itself, as the tiny jobs do, takes seconds here
FULL_EXPORT_SHA256 = {
    "ball t444 --depth 19": "a2819f6e460cf8a27f846cb5744365a13def280c65c6b7cbb207f765783076de",
    "ball u44 --depth 10": "4fcb3d43cb7a20321495209a4af909c5f8c9aaf066190a40902c501e996911b9",
    "ball mixed --depth 10": "6e8af434123193154f6d42bd3eadc029a64d42bd6aeb2bd326d734503af0fedf",
}


@pytest.mark.parametrize("size", ["tiny", "full"])
def test_ball_on_the_benchmark_jobs(tmp_path, capsys, size):
    refs = json.loads((PERFBENCH / "refs.json").read_text(encoding="utf-8"))[size]
    summarize = perfbench_module("check").summarize
    for job, kind, argv in perfbench_module("workloads").make_jobs("export", size, 1, tmp_path):
        got = run_cli(capsys, argv)
        assert got[0] == 0 and summarize(kind, got[1]) == refs[job]
        if size == "tiny":  # the full balls take seconds; their bytes are pinned instead
            matrix = load_matrix(argv[argv.index("--matrix") + 1])
            depth = int(argv[argv.index("--depth") + 1])
            assert got == ball_by_ball(matrix, depth, 10_000_000)
        else:
            assert hashlib.sha256(got[1].encode()).hexdigest() == FULL_EXPORT_SHA256[job]


def test_ball_out_file_and_cap(tmp_path, capsys):
    path = matrix_file(tmp_path, M344)
    matrix = load_matrix(path)
    argv = ["ball", "--matrix", path, "--depth", "8"]
    _, text, _ = run_cli(capsys, argv)
    total = sum(sphere_counts(matrix, 8)[0])
    out = tmp_path / "ball.jsonl"
    assert run_cli(capsys, argv + ["--cap", str(total), "--out", str(out)]) == (0, "", "")
    assert out.read_bytes() == text.encode("utf-8")
    out.unlink()
    # over the cap nothing is written, not even an empty --out file
    got = run_cli(capsys, argv + ["--cap", str(total - 1), "--out", str(out)])
    assert got == ball_by_ball(matrix, 8, total - 1) and got[0] == 4
    assert not out.exists()
    missing = tmp_path / "no" / "dir" / "ball.jsonl"
    assert run_cli(capsys, argv + ["--out", str(missing)]) == (
        2, "", f"error: [Errno 2] No such file or directory: '{missing}'\n")


def test_ball_streams_in_little_memory(tmp_path, capsys):
    path = matrix_file(tmp_path, M344)
    out = tmp_path / "ball.jsonl"
    argv = ["ball", "--matrix", path, "--depth", "16", "--out", str(out)]
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start  # about 0.03 s
    assert code == 0 and elapsed < 5
    text = out.read_bytes()
    c, d = sphere_counts(load_matrix(path), 16)
    assert perfbench_module("check").summarize("ball", text.decode()) == {"c": c, "d": d}
    # only a layer's words and text are live, about 2.7 MB; a built ball of this size takes 12.4 MB
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_500_000
    assert out.read_bytes().splitlines(keepends=True) == text.splitlines(keepends=True)
    assert capsys.readouterr().out == ""


def test_ball_ends_with_a_finite_group(tmp_path):
    # past its longest element a finite group's layers are empty, and neither
    # the cap walk nor the lines walk steps through them
    for data, depth, last in (({"m": [[1, 3], [3, 1]]}, 10**9, 3),
                              ({"m": [[1, 5, 2], [5, 1, 3], [2, 3, 1]]}, 10**6, 15)):
        path = matrix_file(tmp_path, data)
        outs = [subprocess.run([sys.executable, "-m", "coxgrowth.cli", "ball", "--matrix", path,
                                "--depth", str(d)], capture_output=True, timeout=20)
                for d in (depth, last)]
        assert [(p.returncode, p.stderr) for p in outs] == [(0, b""), (0, b"")]
        assert outs[0].stdout == outs[1].stdout


def test_finite_rows_count_against_the_cap(tmp_path, capsys):
    # past A2's longest element every row is 0, but each is still printed
    path = matrix_file(tmp_path, {"m": [[1, 3], [3, 1]]})
    for command in ("stats", "series"):
        got = run_cli(capsys, [command, "--matrix", path, "--depth", "200", "--cap", "100"])
        assert got == (4, "", "error: element cap 100 reached by the 201 rows of lengths 0..200\n")
    code, out, _ = run_cli(capsys, ["stats", "--matrix", path, "--depth", "200", "--cap", "201"])
    assert code == 0 and [row["c"] for row in json.loads(out)["table"]] == [1, 2, 2, 1] + [0] * 197


def test_finite_counts_stop_at_the_longest_element(tmp_path, capsys, monkeypatch):
    grown = []
    grow = automaton.ShortLex.grow
    monkeypatch.setattr(automaton.ShortLex, "grow",
                        lambda self, length: grown.append(length) or grow(self, length))
    path = matrix_file(tmp_path, {"m": [[1, 3], [3, 1]]})
    code, out, _ = run_cli(capsys, ["stats", "--matrix", path, "--depth", "1000"])
    assert code == 0 and len(json.loads(out)["table"]) == 1001
    assert len(grown) <= 4


def test_finite_group_at_a_huge_depth_exits_four(tmp_path):
    path = matrix_file(tmp_path, {"m": [[1, 3], [3, 1]]})
    proc = subprocess.run([sys.executable, "-m", "coxgrowth.cli", "stats", "--matrix", path,
                           "--depth", str(10**9)], capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == ("error: element cap 10000000 reached by the 1000000001 rows "
                           "of lengths 0..1000000000\n")


def test_ball_builds_one_automaton(tmp_path, capsys, monkeypatch):
    built = []

    class Counted(automaton.SmallRoots):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(automaton, "SmallRoots", Counted)
    argv = ["ball", "--matrix", matrix_file(tmp_path, M344), "--depth", "6"]
    assert run_cli(capsys, argv)[0] == 0
    assert len(built) == 1


def test_ball_stops_on_the_terms_of_the_small_roots(tmp_path, capsys):
    # the 801 elements fit a cap of 1000, but the terms of the 400 small roots
    # that `ball` walks, as `stats` does, do not
    path = matrix_file(tmp_path, {"m": [[1, 400], [400, 1]]})
    argv = ["ball", "--matrix", path, "--depth", "400"]
    assert run_cli(capsys, argv + ["--cap", "1000"]) == (
        4, "", "error: element cap 1000 reached by the terms of the small roots\n")
    assert run_cli(capsys, argv) == ball_by_ball(load_matrix(path), 400, 10_000_000)


@pytest.mark.parametrize("argv", [
    ["info"],
    ["ball", "--depth", "6"],
    ["stats", "--depth", "6"],
    ["stats", "--depth", "6", "--format", "csv"],
    ["verify", "--depth", "6"],
    ["series", "--depth", "6"],
], ids=lambda argv: " ".join(argv))
def test_out_file_holds_what_stdout_prints(tmp_path, capsys, argv):
    argv = [*argv, "--matrix", matrix_file(tmp_path, M344)]
    code, text, err = run_cli(capsys, argv)
    assert code == 0 and text
    out = tmp_path / "out.txt"
    assert run_cli(capsys, argv + ["--out", str(out)]) == (code, "", err)
    assert out.read_bytes() == text.encode("utf-8")


def test_repeat_runs_byte_identical(tmp_path):
    matrix = matrix_file(tmp_path, M344)
    outs = [tmp_path / name for name in ("a", "b", "c", "d")]
    assert cli.main(["stats", "--matrix", matrix, "--depth", "8",
                     "--out", str(outs[0])]) == 0
    assert cli.main(["stats", "--matrix", matrix, "--depth", "8",
                     "--out", str(outs[1])]) == 0
    assert cli.main(["series", "--matrix", matrix, "--depth", "8",
                     "--out", str(outs[2])]) == 0
    assert cli.main(["series", "--matrix", matrix, "--depth", "8",
                     "--out", str(outs[3])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[2].read_bytes() == outs[3].read_bytes()


# -- verify -------------------------------------------------------------------


def test_verify_default_suites(tmp_path, capsys):
    code, payload, err = run_json(
        capsys,
        ["verify", "--matrix", matrix_file(tmp_path, M4U3), "--depth", "6"],
    )
    assert code == 0
    assert payload["all_hold"] is True
    assert payload["diagnostic"] is False
    ran = [entry["lemma"] for entry in payload["suites"]]
    assert ran == ["L32", "L33", "L34", "L45", "P29", "C210", "L24"]
    skipped = {entry["suite"] for entry in payload["skipped"]}
    assert skipped == {"L35", "k-ratio", "L211"}
    assert all(entry["kind"] == "hypothesis" for entry in payload["skipped"])
    assert "L35: skipped (hypothesis)" in err


def test_verify_hypothesis_reasons(tmp_path, capsys):
    uniform = "identity needs one uniform edge label"
    ratio = "descent ratio floor needs one uniform edge label"
    cases = (
        ({"m": [[1, 3, 4, "inf"], [3, 1, 5, 4], [4, 5, 1, 3], ["inf", 4, 3, 1]]},
         "needs every pairwise order finite",
         [("L211", "pair (0,1) has order 3 < 4")]),
        ({"m": [[1, 2, 3, 3], [2, 1, 3, 3], [3, 3, 1, 3], [3, 3, 3, 1]]},
         "needs every pairwise order >= 3",
         [("L211", "pair (0,1) has order 2 < 4"),
          ("L24", "rank-3 subsystem (0, 1, 2) is finite; wall pairs may collide")]),
        # an order 2 and an infinite order: finiteness is tested first
        ({"m": [[1, 2, 3, "inf"], [2, 1, 3, 3], [3, 3, 1, 3], ["inf", 3, 3, 1]]},
         "needs every pairwise order finite",
         [("L211", "pair (0,1) has order 2 < 4"),
          ("L24", "rank-3 subsystem (0, 1, 2) is finite; wall pairs may collide")]),
    )
    for data, diagram, rest in cases:
        code, payload, _ = run_json(
            capsys, ["verify", "--matrix", matrix_file(tmp_path, data), "--depth", "5"],
        )
        assert code == 0
        expected = [
            ("L32", uniform), ("L33", uniform), ("L34", uniform), ("L35", uniform),
            ("L45", diagram), ("k-ratio", ratio), ("P29", diagram), ("C210", diagram),
        ] + rest
        assert payload["skipped"] == [
            {"kind": "hypothesis", "reason": reason, "suite": suite}
            for suite, reason in expected
        ]


def test_verify_suite_selection(tmp_path, capsys):
    path = matrix_file(tmp_path, M344)
    # a repeated suite runs once, at its first position
    for suite in ("L32,L33", "L32,L33,L32"):
        code, payload, err = run_json(
            capsys, ["verify", "--matrix", path, "--depth", "8", "--suite", suite],
        )
        assert code == 0
        assert [entry["lemma"] for entry in payload["suites"]] == ["L32", "L33"]
        assert len(err.splitlines()) == 2
        assert payload["skipped"] == []
        assert payload["all_hold"] is True


def test_verify_unknown_suite(tmp_path, capsys):
    path = matrix_file(tmp_path, M344)
    for suite, message in (("L99", "unknown suite"), ("", "no suite selected"),
                           (" , ", "no suite selected")):
        code = cli.main(["verify", "--matrix", path, "--suite", suite])
        assert code == 3
        assert message in capsys.readouterr().err


def test_verify_diagnostic_counterexamples_exit_zero(tmp_path, capsys):
    code, payload, err = run_json(
        capsys,
        ["verify", "--matrix", matrix_file(tmp_path, M333), "--depth", "8",
         "--suite", "L211", "--no-hypothesis-gate"],
    )
    assert code == 0
    assert payload["diagnostic"] is True
    assert payload["all_hold"] is False
    report = payload["suites"][0]
    assert report["verdict"] == "fails"
    assert report["checked"] == 60
    assert len(report["failures"]) == 18
    assert "FAILS" in err


def test_verify_gated_failure_exits_five(tmp_path, capsys, monkeypatch):
    # force one registered suite to report a real failure
    monkeypatch.setitem(
        cli._SUITES,
        "L32",
        lambda stats, ball, gate: verify_descent_ratio(stats, Fraction(1), gate=gate),
    )
    code, payload, err = run_json(
        capsys,
        ["verify", "--matrix", matrix_file(tmp_path, M344),
         "--depth", "8", "--suite", "L32"],
    )
    assert code == 5
    assert payload["all_hold"] is False
    assert "FAILS" in err


COUNTING = "L32,L33,L34,L35,L45,k-ratio"


@pytest.mark.parametrize("data, depth", STATS_SYSTEMS)
def test_verify_prints_what_the_ball_counts(tmp_path, capsys, data, depth):
    path = matrix_file(tmp_path, data)
    need = max(build_ball(load_matrix(path), depth).size, depth + 1)
    for flags in ([], ["--suite", COUNTING], ["--no-hypothesis-gate"]):
        argv = ["verify", "--matrix", path, "--depth", str(depth), *flags]
        got = run_cli(capsys, argv)
        assert got == verify_by_ball(argv) and got[0] == 0
        # the cap trips exactly when the ball, or a finite group's depth + 1 rows,
        # would outgrow it, with its message
        for cap in (need, need - 1):
            if cap >= 1:
                got = run_cli(capsys, argv + ["--cap", str(cap)])
                assert got == verify_by_ball(argv + ["--cap", str(cap)])
                assert got[0] == (0 if cap == need else 4)


@settings(max_examples=40, deadline=None)
@given(coxeter_matrices(max_rank=5, labels=(2, 3, 4, 5, 6, 7, INF)),
       st.integers(0, 6), st.integers(1, 500),
       st.sampled_from([[], ["--suite", COUNTING], ["--no-hypothesis-gate"]]))
def test_verify_prints_what_the_ball_counts_random(tmp_path_factory, matrix, depth, cap,
                                                   flags):
    path = tmp_path_factory.mktemp("verify") / "matrix.json"
    path.write_text(json.dumps(matrix_to_data(matrix)), encoding="utf-8")
    argv = ["verify", "--matrix", str(path), "--depth", str(depth), "--cap", str(cap),
            *flags]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue(), err.getvalue()) == verify_by_ball(argv)


def test_verify_builds_a_ball_for_the_geometry_suites_only(tmp_path, capsys, monkeypatch):
    def no_ball(*args, **kwargs):
        raise AssertionError("the counting suites built a ball")

    jobs = perfbench_module("workloads").make_jobs("verify", "tiny", 1, tmp_path)
    monkeypatch.setattr(cli, "build_ball", no_ball)
    for _, _, argv in jobs:
        code, payload, _ = run_json(capsys, argv + ["--suite", COUNTING])
        assert code == 0 and payload["all_hold"] and payload["suites"]
    # the geometry suites decide on the automaton walk: a passing run builds no
    # ball, by either name, and a run that fails, or that P29 cannot decide,
    # builds one for all its suites
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return build_ball(*args, **kwargs)

    monkeypatch.setattr(cli, "build_ball", counted)
    monkeypatch.setattr(ball_module, "build_ball", counted)
    for size in ("full", "tiny"):
        for _, _, argv in perfbench_module("workloads").make_jobs("verify", size, 1, tmp_path):
            code, payload, _ = run_json(capsys, argv)
            assert code == 0 and payload["all_hold"] and not built
    for data, flags, failing in (
            ({"m": [[1, 2, 4], [2, 1, 4], [4, 4, 1]]}, ["--no-hypothesis-gate"],
             ["P29", "C210", "L211"]),
            ({"m": [[1, 4, 4], [4, 1, 11], [4, 11, 1]]}, ["--suite", "P29"], [])):
        argv = ["verify", "--matrix", matrix_file(tmp_path, data), "--depth", "6", *flags]
        code, payload, _ = run_json(capsys, argv)
        assert code == 0 and len(built) == 1
        assert [entry["lemma"] for entry in payload["suites"]
                if entry["verdict"] == "fails"] == failing
        built.clear()


@pytest.mark.parametrize("data, depth, checked", [
    ({"rank": 4, "uniform": 4}, 40,
     [("L32", 36), ("L33", 35), ("L34", 70), ("L35", 70), ("L45", 40), ("k-ratio", 36)]),
    ({"rank": 3, "uniform": 4}, 60,
     [("L32", 56), ("L33", 55), ("L34", 110), ("L35", 110), ("k-ratio", 56)]),
], ids=["u44", "t444"])
def test_counting_lemmas_hold_past_the_balls_reach(tmp_path, capsys, monkeypatch, data, depth,
                                                   checked):
    # these balls hold 2.7e18 and 8.4e14 elements, which no memory holds; the automaton
    # counts them in about 0.1 s, and a run that tried to build one fails at once
    monkeypatch.setattr(cli, "build_ball", lambda *args, **kwargs: pytest.fail("built a ball"))
    argv = ["verify", "--matrix", matrix_file(tmp_path, data), "--depth", str(depth),
            "--suite", COUNTING, "--cap", str(10**30)]
    code, payload, _ = run_json(capsys, argv)
    assert code == 0 and payload["all_hold"]
    assert [(entry["lemma"], entry["checked"]) for entry in payload["suites"]] == checked


def test_verify_counts_a_finite_groups_rows_against_the_cap(tmp_path, capsys):
    path = matrix_file(tmp_path, {"m": [[1, 3], [3, 1]]})
    got = run_cli(capsys, ["verify", "--matrix", path, "--depth", "200", "--cap", "100"])
    assert got == (4, "", "error: element cap 100 reached by the 201 rows of lengths 0..200\n")
    # the rows are refused before any is made, so a huge depth exits at once
    proc = subprocess.run([sys.executable, "-m", "coxgrowth.cli", "verify", "--matrix", path,
                           "--depth", str(10**9), "--suite", "L32"],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == ("error: element cap 10000000 reached by the 1000000001 rows "
                           "of lengths 0..1000000000\n")


def test_verify_stops_on_the_terms_of_the_small_roots(tmp_path, capsys):
    # the 801 elements fit a cap of 1000, but the terms of the 400 small roots
    # that `verify` walks, as `stats` does, do not
    path = matrix_file(tmp_path, {"m": [[1, 400], [400, 1]]})
    argv = ["verify", "--matrix", path, "--depth", "400"]
    assert run_cli(capsys, argv + ["--cap", "1000"]) == (
        4, "", "error: element cap 1000 reached by the terms of the small roots\n")
    got = run_cli(capsys, argv)
    assert got == verify_by_ball(argv) and got[0] == 0


# -- series -------------------------------------------------------------------


def test_series_finite_point(tmp_path, capsys):
    code, payload, _ = run_json(
        capsys,
        ["series", "--matrix", matrix_file(tmp_path, M344), "--depth", "8"],
    )
    assert code == 0
    assert payload["num"] == [1, 2, 2, 2, 1]
    assert payload["den"] == [1, -1, -1, -1, 1]
    assert payload["coeffs"] == [1, 3, 6, 12, 21, 36, 63, 108, 186]
    assert payload["enumerated"] == payload["coeffs"]
    assert payload["agreement"] is True
    (verdict,) = payload["verdicts"]
    assert verdict["point"] == "1/2"
    assert verdict["verdict"] == "finite"
    assert verdict["value"] == "15"


def test_series_eval_points(tmp_path, capsys):
    code, payload, _ = run_json(
        capsys,
        ["series", "--matrix", matrix_file(tmp_path, M4U3),
         "--depth", "6", "--eval", "1/3,1/2"],
    )
    assert code == 0
    finite, infinite = payload["verdicts"]
    assert finite["verdict"] == "finite" and finite["value"] == "26/3"
    assert infinite["verdict"] == "infinite"
    lo, hi = (Fraction(x) for x in infinite["pole_interval"])
    assert 0 < lo < hi <= Fraction(1, 2)
    assert hi - lo <= Fraction(1, 2 ** 64)


def test_series_rejects_points_outside_unit_interval(tmp_path, capsys):
    matrix = matrix_file(tmp_path, M344)
    for bad in ("3/2", "0", "1", "-1/2"):
        assert cli.main(["series", "--matrix", matrix, f"--eval={bad}"]) == 3
        assert "error:" in capsys.readouterr().err


def test_series_refuses_a_huge_point_from_its_text(tmp_path, capsys, monkeypatch):
    def no_series(matrix):
        raise AssertionError("series work began")

    monkeypatch.setattr(cli, "rational_growth_series", no_series)
    matrix = matrix_file(tmp_path, M344)
    # building 1e-9999999 as a Fraction alone takes seconds
    long = "0." + "0" * 4299 + "1"
    for points, named in (("1e-9999999", "1e-9999999"), ("1/3, 1E-4300", "1E-4300"),
                          ("1e-00000000000000000000005000", "1e-00000000000000000000005000"),
                          (long, long)):
        assert run_cli(capsys, ["series", "--matrix", matrix, "--eval", points]) == (
            3, "", f"error: evaluation point {named} has more than 4300 digits\n")
    for text, digits in (("1/3", 3), ("1e-4300", 4301), ("1e-4299", 4300), ("2.5E+3", 6),
                         ("1e0", 1), ("abc", 3)):
        assert cli._point_digits(text) == digits, text


def test_series_refuses_an_eval_that_names_no_point(tmp_path, capsys, monkeypatch):
    def no_series(matrix):
        raise AssertionError("series work began")

    monkeypatch.setattr(cli, "rational_growth_series", no_series)
    matrix = matrix_file(tmp_path, M344)
    for points in (",", "", " , "):
        assert run_cli(capsys, ["series", "--matrix", matrix, "--eval", points]) == (
            3, "", f"error: --eval {points!r} names no evaluation point\n")


def test_series_refuses_a_bad_point_before_any_series_work(tmp_path, capsys, monkeypatch):
    # a bad point is input error 3 even where the series or the element cap would fail
    def no_series(matrix):
        raise AssertionError("series work began")

    monkeypatch.setattr(cli, "rational_growth_series", no_series)
    matrix = matrix_file(tmp_path, M344)
    for points, message in (("3/2", "evaluation points must lie in (0, 1), got 3/2"),
                            ("1/3, 0", "evaluation points must lie in (0, 1), got 0"),
                            ("abc", "Invalid literal for Fraction: 'abc'")):
        assert run_cli(capsys, ["series", "--matrix", matrix, "--eval", points]) == (
            3, "", f"error: {message}\n")


def test_series_refuses_a_verdict_too_long_to_print(tmp_path, capsys):
    # 1e-2000 passes the text bound, but the value at it has about the series'
    # degree times 2000 digits; at 0.99...9 the value is infinite and the
    # ratios c_{i+1} t / c_i outgrow the point's 4298-digit denominator
    near_one = "0." + "9" * 4298
    for data, point in ((M344, "1e-2000"), (M4U3, near_one)):
        argv = ["series", "--matrix", matrix_file(tmp_path, data), "--eval", point]
        assert run_cli(capsys, argv) == (
            3, "", f"error: the verdict at {point} has a number of more than 4300 digits,"
                   " too long to print\n")


def test_series_rejects_malformed_point(tmp_path, capsys):
    code = cli.main(
        ["series", "--matrix", matrix_file(tmp_path, M344), "--eval", "abc"]
    )
    assert code == 3


def test_series_disagreement_exits_six(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "taylor_coefficients", lambda series, depth: [0] * (depth + 1)
    )
    code, payload, err = run_json(
        capsys,
        ["series", "--matrix", matrix_file(tmp_path, M344), "--depth", "4"],
    )
    assert code == 6
    assert payload["agreement"] is False
    assert "disagree" in err


def counts_by_ball(matrix, depth, cap=10_000_000):
    """sphere_counts as build_ball and compute_stats gave them, with the ball's cap
    and then a finite group's depth + 1 rows counted against it."""
    stats = compute_stats(build_ball(matrix, depth, cap=cap))
    if err := rows_over_cap(stats.c, cap):
        raise err
    return list(stats.c), list(stats.d)


def counted_by_ball(argv):
    """(exit code, stdout, stderr) of `series` or `verify` when the ball gave the counts.

    counts_by_ball stands in for automaton.sphere_counts, so the command runs
    as it did when it built the ball to count.
    """
    calls = []

    def counts(*args, **kwargs):
        calls.append(args)
        return counts_by_ball(*args, **kwargs)

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
        patch.setattr(automaton, "sphere_counts", counts)
        code = cli.main(argv)
    assert calls, f"{argv[0]} no longer counts through automaton.sphere_counts"
    return code, out.getvalue(), err.getvalue()


series_by_ball = verify_by_ball = counted_by_ball


@pytest.mark.parametrize("data, depth", STATS_SYSTEMS)
def test_series_prints_what_the_ball_counts(tmp_path, capsys, data, depth):
    path = matrix_file(tmp_path, data)
    need = max(build_ball(load_matrix(path), depth).size, depth + 1)
    for points in ([], ["--eval", "1/2,1/3"]):
        argv = ["series", "--matrix", path, "--depth", str(depth), *points]
        got = run_cli(capsys, argv)
        assert got == series_by_ball(argv) and got[0] == 0
        # the cap trips exactly when the ball, or a finite group's depth + 1 rows,
        # would outgrow it, with its message
        for cap in (need, need - 1):
            if cap >= 1:
                got = run_cli(capsys, argv + ["--cap", str(cap)])
                assert got == series_by_ball(argv + ["--cap", str(cap)])
                assert got[0] == (0 if cap == need else 4)


@settings(max_examples=40, deadline=None)
@given(coxeter_matrices(max_rank=5, labels=(2, 3, 4, 5, 6, 7, INF)),
       st.integers(0, 6), st.integers(1, 500), st.sampled_from([[], ["--eval", "1/2,1/3"]]))
def test_series_prints_what_the_ball_counts_random(tmp_path_factory, matrix, depth, cap,
                                                   points):
    path = tmp_path_factory.mktemp("series") / "matrix.json"
    path.write_text(json.dumps(matrix_to_data(matrix)), encoding="utf-8")
    argv = ["series", "--matrix", str(path), "--depth", str(depth), "--cap", str(cap),
            *points]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue(), err.getvalue()) == series_by_ball(argv)


@pytest.mark.parametrize("size", ["tiny", "full"])
def test_series_on_the_benchmark_jobs(tmp_path, capsys, size):
    refs = json.loads((PERFBENCH / "refs.json").read_text(encoding="utf-8"))[size]
    summarize = perfbench_module("check").summarize
    for job, kind, argv in perfbench_module("workloads").make_jobs("series", size, 1, tmp_path):
        got = run_cli(capsys, argv)
        assert got[0] == 0 and summarize(kind, got[1]) == refs[job]
        if size == "tiny" and kind == "series":  # the full balls are in the references
            assert got == series_by_ball(argv)


def test_series_builds_no_ball(tmp_path, capsys, monkeypatch):
    def no_ball(*args, **kwargs):
        raise AssertionError("series built a ball")

    monkeypatch.setattr(cli, "build_ball", no_ball)
    for _, _, argv in perfbench_module("workloads").make_jobs("series", "tiny", 1, tmp_path):
        assert run_cli(capsys, argv)[0] == 0


def test_series_checks_the_cap_before_expanding(tmp_path, capsys, monkeypatch):
    expanded = []
    monkeypatch.setattr(cli, "taylor_coefficients", lambda *args: expanded.append(args))
    path = matrix_file(tmp_path, {"rank": 4, "uniform": 4})
    got = run_cli(capsys, ["series", "--matrix", path, "--depth", "30", "--cap", "50"])
    assert got == (4, "", "error: element cap 50 reached at length 3\n")
    assert expanded == []


def test_series_checks_the_cap_before_building_the_series(tmp_path):
    # the I2(10^6) factor makes the series degree about 10^6, far too slow to
    # build, but the counts exceed a cap of 5 at length 2
    path = matrix_file(tmp_path, {"m": [[1, 2, 7], [2, 1, 10**6], [7, 10**6, 1]]})
    proc = subprocess.run([sys.executable, "-m", "coxgrowth.cli", "series", "--matrix", path,
                           "--depth", "2", "--cap", "5"],
                          capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        4, "", "error: element cap 5 reached at length 2\n")


@pytest.mark.parametrize("data,flags,message", [
    pytest.param({"m": [[1, 10**20 - 1], [10**20 - 1, 1]]}, ["--depth", "3"],
                 f"element cap 10000000 reached by the series' common denominator of degree {10**20 - 1}",
                 id="I2(10^20 - 1)"),
    pytest.param({"m": [[1, 4_300_000_000], [4_300_000_000, 1]]}, ["--depth", "3"],
                 "element cap 10000000 reached by the series' common denominator of degree 4300000000",
                 id="I2(4.3e9)"),
    pytest.param({"m": [[1, 2, 7], [2, 1, 10**6], [7, 10**6, 1]]}, ["--depth", "2", "--cap", "10000"],
                 "element cap 10000 reached by the series' common denominator of degree 1000007",
                 id="(2,7,10^6)"),
])
def test_series_charges_the_denominator_degree_against_the_cap(tmp_path, data, flags, message):
    # the counts fit the cap, but the series' common denominator does not: I2(10^20 - 1)
    # raised OverflowError and I2(4.3e9) MemoryError, and the (2, 7, 10^6) triangle
    # ran past 20 s under a cap of 10^4
    path = matrix_file(tmp_path, data)
    proc = subprocess.run([sys.executable, "-m", "coxgrowth.cli", "series", "--matrix", path,
                           *flags], capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", f"error: {message}\n")


def test_verify_builds_a_ball_past_a_huge_label(tmp_path):
    # build_ball reads a label above the depth as inf: one of 10^20 - 1 hung it
    path = matrix_file(tmp_path, {"m": [[1, 10**20 - 1, 4], [10**20 - 1, 1, 4], [4, 4, 1]]})
    proc = subprocess.run([sys.executable, "-m", "coxgrowth.cli", "verify", "--matrix", path,
                           "--depth", "6", "--no-hypothesis-gate"],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0 and json.loads(proc.stdout)["all_hold"]


def test_series_stops_on_the_terms_of_the_small_roots(tmp_path, capsys):
    # the 801 elements fit a cap of 1000, but the terms of the 400 small roots
    # that `series` walks, as `stats` and `ball` do, do not
    path = matrix_file(tmp_path, {"m": [[1, 400], [400, 1]]})
    argv = ["series", "--matrix", path, "--depth", "400"]
    assert run_cli(capsys, argv + ["--cap", "1000"]) == (
        4, "", "error: element cap 1000 reached by the terms of the small roots\n")
    got = run_cli(capsys, argv)
    assert got == series_by_ball(argv) and got[0] == 0


# -- failure modes ------------------------------------------------------------


def test_missing_matrix_file_exits_two(tmp_path, capsys):
    code = cli.main(["info", "--matrix", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unwritable_out_exits_two(tmp_path, capsys):
    code = cli.main(
        ["stats", "--matrix", matrix_file(tmp_path, MI24),
         "--depth", "2", "--out", str(tmp_path / "no" / "dir" / "x.json")]
    )
    assert code == 2


@pytest.mark.parametrize("command", ["info", "ball", "stats", "verify", "series"])
def test_empty_out_exits_two_before_any_work(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    # the matrix is never read: an empty --out is refused first
    got = run_cli(capsys, [command, "--matrix", "absent.json", "--out", ""])
    assert got == (2, "", "error: --out needs a file path, got an empty string\n")
    assert list(tmp_path.iterdir()) == []


def test_invalid_matrix_exits_three(tmp_path, capsys):
    bad = matrix_file(tmp_path, {"m": [[1, 2], [3, 1]]})
    assert cli.main(["info", "--matrix", bad]) == 3
    text = tmp_path / "garbled.json"
    text.write_text("not json", encoding="utf-8")
    assert cli.main(["info", "--matrix", str(text)]) == 3
    # false == 0, a spelling of inf, and true == 1, the diagonal entry, are no entries
    for data in ({"m": 5}, {"m": [5]}, {"rank": -1, "uniform": 3},
                 {"rank": 2.5, "uniform": 3}, {"rank": True, "uniform": 3},
                 {"rank": 3, "uniform": False}, {"m": [[True, 3], [3, 1]]}):
        assert cli.main(["info", "--matrix", matrix_file(tmp_path, data)]) == 3
    capsys.readouterr()


def test_invalid_uniform_label_below_rank_two_exits_three(tmp_path, capsys):
    for data in ({"rank": 1, "uniform": "abc"}, {"rank": 1, "uniform": False},
                 {"rank": 1, "uniform": 1}, {"rank": 0, "uniform": [1]}):
        assert run_cli(capsys, ["info", "--matrix", matrix_file(tmp_path, data)]) == (
            3, "", f"error: uniform label must be an integer >= 2 or inf, got {data['uniform']}\n")


def test_invalid_flags_exit_three(tmp_path, capsys):
    matrix = matrix_file(tmp_path, MI24)
    assert cli.main(["stats", "--matrix", matrix, "--depth", "-1"]) == 3
    assert cli.main(["stats", "--matrix", matrix, "--cap", "0"]) == 3
    capsys.readouterr()


def test_cap_exhaustion_exits_four(tmp_path, capsys):
    code = cli.main(
        ["ball", "--matrix", matrix_file(tmp_path, M4U3),
         "--depth", "4", "--cap", "1"]
    )
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "coxgrowth.cli", "info",
         "--matrix", matrix_file(tmp_path, MI24)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["rank"] == 2
    assert payload["spherical_subsets"][-1] == {
        "gens": [0, 1], "type": "I2(4)", "order": 8
    }


def test_l24_builds_no_ring_for_labels_no_residue_reaches(tmp_path):
    # at depth 4 no residue reaches a label of 101, 103 or 107; their ring
    # has N = 2,226,242, and building it took 20 s and 1 GB for 0 wall pairs
    path = matrix_file(tmp_path, {"m": [[1, 101, 103], [101, 1, 107], [103, 107, 1]]})
    proc = subprocess.run([sys.executable, "-m", "coxgrowth.cli", "verify", "--matrix", path,
                           "--depth", "4", "--suite", "L24"],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "L24: holds (0 checked)\n")
    assert json.loads(proc.stdout)["suites"][0]["checked"] == 0


def test_only_verify_loads_the_roots_of_l24(tmp_path):
    # each command runs in a fresh interpreter, so sys.modules shows what it imported
    script = ("import contextlib, io, sys\n"
              "from coxgrowth import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cli.main(sys.argv[1:])\n"
              "print(code, 'coxgrowth.roots' in sys.modules)\n")
    matrix = matrix_file(tmp_path, M344)
    for command, loaded in (("stats", False), ("ball", False), ("series", False),
                            ("verify", True)):
        proc = subprocess.run(
            [sys.executable, "-c", script, command, "--matrix", matrix, "--depth", "6"],
            capture_output=True, text=True,
        )
        assert proc.stdout.split() == ["0", str(loaded)], (command, proc.stderr)


def test_traced_jobs_have_a_span_for_every_layer(tmp_path):
    # the benchmark's tracer rebinds names in cli; a runner that bound one early
    # would leave its layer without a span, and its time at 0, and fail nothing else
    script = f"""
import contextlib, io, json, sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
from conftest import perfbench_module
from coxgrowth import cli
tracer = perfbench_module("tracer")
spans = tracer.Tracer()
tracer.install(spans)
make_jobs = perfbench_module("workloads").make_jobs
jobs = make_jobs("verify", "tiny", 1, sys.argv[1]) + make_jobs("series", "tiny", 1, sys.argv[1])
jid, _, argv = jobs[0]
jobs.append((jid + " --suite k-ratio", "verify", [*argv, "--suite", "k-ratio"]))
seen = {{}}
for jid, _, argv in jobs:
    spans.job = jid
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    mine = [s for s in spans.spans if s["job"] == jid]
    seen[jid] = [code, sorted({{s["name"] for s in mine}}),
                 sum(s["attrs"].get("residues", 0) for s in mine if s["name"] == "geometry.L24")]
print(json.dumps(seen))
"""
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    geometry = {f"geometry.{suite}" for suite in ("L24", "P29", "C210", "L211")}
    series = {"series.taylor", "series.verdict", "series.quotient"}
    k_ratio = set(seen["verify u44 --depth 5 --suite k-ratio"][1])
    assert "stats.counting_suites" in k_ratio and not k_ratio & geometry
    for jid, (code, names, _) in seen.items():
        assert code == 0, jid
        if jid.startswith("verify") and "--suite" not in jid:
            assert {"stats.counting_suites", *geometry} <= set(names), jid
        elif jid.startswith("series"):
            assert series <= set(names), jid
    assert sum(jid.startswith("series") for jid in seen) == 3
    # the tiny verify jobs have 60 complete rank-2 residues; 0 would mean that
    # L24 no longer reaches them through the traced name
    assert sum(residues for _, _, residues in seen.values()) == 60


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        cli.main([])
