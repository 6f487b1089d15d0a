"""Write refs.json: the label-invariant results every benchmark job must reproduce.

    python3 perfbench/make_refs.py

Run it only on a commit whose outputs are trusted; the stored file was
made on the commit that introduced the benchmark.  A `ball` job's reference
is the `stats` table of the same matrix and depth, so the export is checked
against the independent compute_stats path.  Each job is summarized under
two seeds, and the two summaries must agree.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from coxgrowth.cli import main as cli_main  # noqa: E402
from check import summarize  # noqa: E402
from workloads import SIZES, WORKLOADS, make_jobs  # noqa: E402


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    return out.getvalue()


def _reference(kind, argv):
    if kind == "ball":
        ref = summarize("stats", _stdout(["stats", *argv[1:]]))
        if summarize("ball", _stdout(argv)) != ref:
            raise SystemExit(f"{argv}: export disagrees with stats")
        return ref
    return summarize(kind, _stdout(argv))


def main():
    refs = {size: {} for size in SIZES}
    with tempfile.TemporaryDirectory() as tmp:
        for size in SIZES:
            for workload in WORKLOADS:
                for seed in (0, 1):
                    jobs = make_jobs(workload, size, seed, Path(tmp) / f"{workload}-{seed}")
                    for jid, kind, argv in jobs:
                        ref = _reference(kind, argv)
                        if refs[size].setdefault(jid, ref) != ref:
                            raise SystemExit(f"{jid}: summary depends on the labelling")
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")


if __name__ == "__main__":
    main()
