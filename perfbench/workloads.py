"""The benchmark's fixed inputs: matrices, jobs per workload, seeded relabelling.

Every job is one `coxgrowth` command line.  The inputs never change with
the seed except through a generator permutation applied to each
non-uniform matrix, so every seed hands the program an isomorphic system
with the same label-invariant results and the same cost.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

INF = "inf"


def _cycle(rank):
    """Affine type A~_{rank-1}: a cycle of 3-labels, 2 elsewhere."""
    return [[1 if i == j else 3 if (i - j) % rank in (1, rank - 1) else 2
             for j in range(rank)] for i in range(rank)]


def _path_inf(rank):
    """A path of 3-labels with infinity between non-neighbours."""
    return [[1 if i == j else 3 if abs(i - j) == 1 else INF
             for j in range(rank)] for i in range(rank)]


MIXED = [[1, 3, 4, INF], [3, 1, 5, 4], [4, 5, 1, 3], [INF, 4, 3, 1]]

# name -> matrix data; explicit "m" matrices are relabelled by the seed
MATRICES = {
    "t444": {"rank": 3, "uniform": 4},
    "u44": {"rank": 4, "uniform": 4},
    "u43": {"rank": 4, "uniform": 3},
    "mixed": {"m": MIXED},
    "a8": {"m": _cycle(9)},
    "a4": {"m": _cycle(5)},
    "path16": {"m": _path_inf(16)},
    "path6": {"m": _path_inf(6)},
}

# workload -> size -> jobs; a job is (command, matrix name, extra args)
WORKLOADS = {
    "enumerate": {
        "full": [("stats", "t444", ["--depth", "21"]),
                 ("stats", "u44", ["--depth", "11"]),
                 ("stats", "mixed", ["--depth", "11"])],
        "tiny": [("stats", "t444", ["--depth", "6"]),
                 ("stats", "u44", ["--depth", "4"]),
                 ("stats", "mixed", ["--depth", "4"])],
    },
    "export": {
        "full": [("ball", "t444", ["--depth", "19"]),
                 ("ball", "u44", ["--depth", "10"]),
                 ("ball", "mixed", ["--depth", "10"])],
        "tiny": [("ball", "t444", ["--depth", "6"]),
                 ("ball", "u44", ["--depth", "4"]),
                 ("ball", "mixed", ["--depth", "4"])],
    },
    "verify": {
        "full": [("verify", "u44", ["--depth", "8"]),
                 ("verify", "t444", ["--depth", "13"])],
        "tiny": [("verify", "u44", ["--depth", "5"]),
                 ("verify", "t444", ["--depth", "8"])],
    },
    "series": {
        "full": [("series", "a8", ["--depth", "4"]),
                 ("series", "u43", ["--eval", "1/2,1/3"]),
                 ("series", "mixed", []),
                 ("info", "path16", [])],
        "tiny": [("series", "a4", ["--depth", "4"]),
                 ("series", "u43", ["--depth", "6", "--eval", "1/2,1/3"]),
                 ("series", "mixed", ["--depth", "5"]),
                 ("info", "path6", [])],
    },
}

SIZES = ("full", "tiny")


def job_id(command, name, extra):
    """Stable key of a job in the reference file, e.g. 'stats t444 --depth 21'."""
    return " ".join([command, name, *extra])


def relabel(data, rng):
    """The matrix with its generators permuted; uniform matrices are unchanged."""
    if "m" not in data:
        return data
    rows = data["m"]
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return {"m": [[rows[p][q] for q in perm] for p in perm]}


def make_jobs(workload, size, seed, workdir):
    """Write the workload's matrices under workdir and return its jobs.

    Each job is (job id, command kind, argv for coxgrowth.cli.main).  The
    seed only picks the generator permutation of each non-uniform matrix.
    """
    rng = random.Random(seed)
    specs = WORKLOADS[workload][size]
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in sorted({name for _, name, _ in specs}):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(relabel(MATRICES[name], rng)), encoding="utf-8")
        paths[name] = str(path)
    return [(job_id(command, name, extra), command,
             [command, "--matrix", paths[name], *extra])
            for command, name, extra in specs]
