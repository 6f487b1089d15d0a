"""Every command, in a subprocess, on random matrices: a documented exit, never a
traceback or a hang.

The draws are fixed by one seed: ranks 0-4, mostly 3 and 4, labels from LABELS, depths 0-6
and caps up to 10^4, five runs per command.  Each run must exit 0, 3 or 4
within 20 s with no traceback on stderr.  An exit of 5 (a suite fails inside
its hypotheses) or 6 (the series disagrees with the counts) is a fault to
report, not a pass.  A run may use at most 1 GB of address space where the
platform can limit it, so a fault that allocates without bound fails at once.
"""
import json
import random
import subprocess
import sys
from itertools import combinations

import pytest

LABELS = (2, 3, 4, 5, 7, "inf", 10**8, 10**20)
COMMANDS = ("info", "ball", "stats", "verify", "series")
MEMORY = 1 << 30


def _draws(seed=32, per_command=5):
    rng = random.Random(seed)
    out = []
    for i in range(per_command * len(COMMANDS)):
        command = COMMANDS[i % len(COMMANDS)]
        rank = rng.choice((0, 1, 2, 3, 3, 4, 4, 4))
        rows = [[1] * rank for _ in range(rank)]
        for s, t in combinations(range(rank), 2):
            rows[s][t] = rows[t][s] = rng.choice(LABELS)
        flags = []
        if command != "info":
            flags = ["--depth", str(rng.randint(0, 6)), "--cap", str(rng.randint(1, 10**4))]
        if command == "verify" and rng.random() < 0.5:
            flags.append("--no-hypothesis-gate")
        out.append(pytest.param(command, rows, flags, id=f"{i}-{command}"))
    return out


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


@pytest.mark.parametrize("command,rows,flags", _draws())
def test_every_command_exits_cleanly(tmp_path, command, rows, flags):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"m": rows}), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "coxgrowth.cli", command, "--matrix", str(path),
                           *flags], capture_output=True, text=True, timeout=20,
                          preexec_fn=_limit_memory if sys.platform.startswith("linux") else None)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode in (0, 3, 4), (proc.returncode, proc.stderr)
