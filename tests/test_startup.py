"""Each command loads only the modules it runs; the package serves its names on use.

Every check runs in a new interpreter, started without `site` so that no
module of the environment is loaded before the package's own.
"""
import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import coxgrowth

SRC = str(Path(__file__).resolve().parent.parent / "src")
PACKAGE = Path(SRC) / "coxgrowth"

RUN_COMMAND = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from coxgrowth import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(json.dumps([code, sorted(sys.modules)]))
"""

LAZY_EXPORTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import coxgrowth
alone = sorted(name for name in sys.modules if name.startswith("coxgrowth"))
listed = dir(coxgrowth)
namespace = {}
exec("from coxgrowth import *", namespace)
same = all(namespace[name] is getattr(coxgrowth, name) for name in coxgrowth.__all__)
print(json.dumps({"alone": alone, "listed": listed, "star": sorted(namespace), "same": same}))
"""

CLI_EXPORTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import coxgrowth
from coxgrowth import cli
print(json.dumps([name for name in coxgrowth.__all__
                  if getattr(cli, name) is not getattr(coxgrowth, name)]))
"""

# the top-level parsers that three cli.main calls build
PARSERS_BUILT = """
import argparse, contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from coxgrowth import cli
built = []
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(sys.argv[2:]) for _ in range(3)]
print(json.dumps([codes, built.count("coxgrowth")]))
"""


def fresh(script, *args):
    proc = subprocess.run([sys.executable, "-S", "-c", script, SRC, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded(tmp_path, command, *flags):
    """The modules loaded by one cli.main call on (4,4,4), which must succeed."""
    path = tmp_path / "t444.json"
    path.write_text('{"rank": 3, "uniform": 4}', encoding="utf-8")
    code, modules = fresh(RUN_COMMAND, command, "--matrix", str(path), *flags)
    assert code == 0
    return set(modules)


def package(modules):
    """The package's own modules among modules, named without the package prefix."""
    return {name.removeprefix("coxgrowth.") for name in modules
            if name.partition(".")[0] == "coxgrowth"}


def test_info_and_ball_load_only_what_they_run(tmp_path):
    info = loaded(tmp_path, "info")
    ball = loaded(tmp_path, "ball", "--depth", "4")
    assert package(info) == {"coxgrowth", "cli", "coxmatrix", "errors"}
    assert package(ball) == package(info) | {"automaton"}


@pytest.mark.parametrize("argv", [["info"], ["ball", "--depth", "4"], ["stats", "--depth", "6"],
                                  ["series", "--depth", "6"], ["verify", "--depth", "6"],
                                  ["verify", "--depth", "6", "--suite", "k-ratio"]],
                         ids=["info", "ball", "stats", "series", "verify", "verify-k-ratio"])
def test_no_command_loads_dataclasses(tmp_path, argv):
    assert "dataclasses" not in loaded(tmp_path, *argv)


def test_stats_loads_what_ball_loads(tmp_path):
    # stats prints the counts it took from the automaton; it runs no lemma code
    stats = package(loaded(tmp_path, "stats", "--depth", "6"))
    assert stats == package(loaded(tmp_path, "ball", "--depth", "6"))


@pytest.mark.parametrize("command", ["stats", "series"])
def test_counting_commands_load_no_geometry(tmp_path, command):
    assert not package(loaded(tmp_path, command, "--depth", "6")) & {"ball", "geometry", "roots"}


def test_counting_suites_load_no_ball_geometry_or_series(tmp_path):
    # they read the automaton's counts, as stats does; only the geometry suites read a ball
    modules = package(loaded(tmp_path, "verify", "--depth", "6", "--suite", "L32"))
    assert {"stats", "automaton"} <= modules
    assert not modules & {"ball", "geometry", "roots", "series"}


def test_main_builds_one_parser_across_calls(tmp_path):
    path = tmp_path / "t444.json"
    path.write_text('{"rank": 3, "uniform": 4}', encoding="utf-8")
    assert fresh(PARSERS_BUILT, "stats", "--matrix", str(path), "--depth", "3") == [[0, 0, 0], 1]


def test_every_export_resolves_on_use():
    got = fresh(LAZY_EXPORTS)
    assert got["alone"] == ["coxgrowth"]
    assert set(coxgrowth.__all__) <= set(got["listed"])
    assert set(coxgrowth.__all__) <= set(got["star"]) and got["same"]


def test_exports_are_one_table():
    assert coxgrowth.__all__ == sorted(coxgrowth._HOME)
    assert len(coxgrowth._HOME) == sum(map(len, coxgrowth._EXPORTS.values()))


def test_unknown_names_raise_attribute_error():
    from coxgrowth import cli

    for module in (coxgrowth, cli):
        message = f"module '{module.__name__}' has no attribute 'nope'"
        with pytest.raises(AttributeError, match=message):
            module.nope


def test_every_export_resolves_on_cli_as_on_the_package():
    # cli binds through the package's own table, so no export is missing there
    assert fresh(CLI_EXPORTS) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_runtime_imports_only_the_standard_library(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            tops = [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            tops = [node.module.partition(".")[0]]
        else:
            continue
        outside += [top for top in tops if top not in sys.stdlib_module_names]
    assert outside == []
