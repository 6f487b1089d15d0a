"""Self-test of the benchmark on tiny inputs.

Every workload must print each metric of BENCHMARK.json by name with its
unit, the checker must reject a corrupted reference, and the benchmark must
refuse to report anything when the package sources are missing.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(*args, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--size", "tiny", "--seed", "7",
         "--seconds", "0.05", *args],
        capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def _printed(lines):
    """name -> (value, unit) from the human-readable lines before the JSON."""
    out = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and line.startswith("  ") and parts[0] != "error:":
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    code, lines, err = _run("--workload", workload, "--trace", str(trace))
    assert code == 0, err
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = _printed(lines)
    for name, unit in expected.items():
        assert printed[name] == (pytest.approx(result["metrics"][name]["value"], rel=1e-5), unit)
    assert printed["error_rate"] == (0.0, "ratio")


def test_corrupted_reference_fails_every_job(tmp_path):
    refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
    for jid, ref in refs["tiny"].items():
        if jid.startswith("stats "):
            ref["c"][-1] += 1
    corrupted = tmp_path / "refs.json"
    corrupted.write_text(json.dumps(refs), encoding="utf-8")
    code, lines, err = _run("--workload", "enumerate", "--refs", str(corrupted))
    assert code == 0, err
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1
    assert _printed(lines)["error_rate"] == (1.0, "ratio")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    code, lines, _ = _run("--workload", "enumerate", script=tmp_path / "perfbench" / "run.py")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
