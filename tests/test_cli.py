import json
import subprocess
import sys
from fractions import Fraction

import pytest

from coxgrowth import cli
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
    assert report["checked"] == 54
    assert len(report["failures"]) == 18
    assert "FAILS" in err


def test_verify_gated_failure_exits_five(tmp_path, capsys, monkeypatch):
    # force one registered suite to report a real failure
    monkeypatch.setitem(
        cli._COUNTING_SUITES,
        "L32",
        lambda stats, gate: verify_descent_ratio(stats, Fraction(1), gate=gate),
    )
    code, payload, err = run_json(
        capsys,
        ["verify", "--matrix", matrix_file(tmp_path, M344),
         "--depth", "8", "--suite", "L32"],
    )
    assert code == 5
    assert payload["all_hold"] is False
    assert "FAILS" in err


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


def test_invalid_matrix_exits_three(tmp_path, capsys):
    bad = matrix_file(tmp_path, {"m": [[1, 2], [3, 1]]})
    assert cli.main(["info", "--matrix", bad]) == 3
    text = tmp_path / "garbled.json"
    text.write_text("not json", encoding="utf-8")
    assert cli.main(["info", "--matrix", str(text)]) == 3
    for data in ({"m": 5}, {"m": [5]}, {"rank": -1, "uniform": 3},
                 {"rank": 2.5, "uniform": 3}, {"rank": True, "uniform": 3}):
        assert cli.main(["info", "--matrix", matrix_file(tmp_path, data)]) == 3
    capsys.readouterr()


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


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        cli.main([])
