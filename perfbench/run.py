"""coxgrowth benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Each run is a closed loop with one client: a fresh child process (child.py)
calls coxgrowth.cli.main for each job of the workload in turn, repeating
the job list until --seconds are spent.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 an untraced child and a traced child
each take half the time, and the per-layer metrics come from the traced
one.  The last line of stdout is one JSON object with the results; the
lines before it show the same figures for a reader.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import calibrate  # noqa: E402
from tracer import COUNTS, PER_LAYER  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
SETUPS = 9  # set-up-only children per run, besides the measuring child
# seconds calibrate.py takes on the reference machine; every reported time
# is rescaled to that speed by the run's median calibration (README.md)
CALIBRATION_REF_S = 0.06
CHILD_TIMEOUT = 170


class BenchError(Exception):
    """A child process failed before it could report results."""


def _spawn(cfg):
    """Run child.py; return (seconds from spawn to "ready", its result or None)."""
    # the benchmark writes no bytecode cache, so set-up compiles coxgrowth from source
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT, env=env)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"child in {cfg['mode']} mode exited with {proc.returncode}")
    return setup, json.loads(rest) if cfg["mode"] != "setup" else None


def _scaled(value, calibrations):
    """A time rescaled from the measured to the reference speed."""
    return value * CALIBRATION_REF_S / statistics.median(calibrations)


def _fast_quartile(walls):
    """Lower quartile of the cycle times.

    Other tenants' load only ever slows a cycle down, and it comes in
    episodes that can span half a run, so the faster cycles show the
    program's own cost more steadily than the median does.
    """
    if len(walls) == 1:
        return walls[0]
    return statistics.quantiles(walls, n=4, method="inclusive")[0]


def _merge(runs):
    """correct/attempted/failed over child results, with their error lines."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    return attempted, failed, errors


def run_workload(args, workload, workdir):
    cfg = {"root": str(ROOT), "workload": workload, "size": args.size,
           "seed": args.seed, "refs": str(args.refs), "workdir": str(workdir)}
    if not args.trace:
        cals = [calibrate()]
        setups = [_spawn({**cfg, "mode": "setup"})[0] for _ in range(SETUPS)]
        cals.append(calibrate())
        setup, res = _spawn({**cfg, "mode": "run", "seconds": args.seconds})
        setups.append(setup)
        cals += res["calibrations"]
        attempted, failed, errors = _merge([res])
        metrics = {"wall_s": _scaled(_fast_quartile(res["walls"]), cals),
                   "setup_s": _scaled(statistics.median(setups), cals),
                   "peak_rss_mb": res["peak_rss_mb"]}
        notes = {"wall_s": f"lower quartile of {len(res['walls'])} cycles; unscaled "
                           f"{_fast_quartile(res['walls']):.4g} s",
                 "setup_s": f"median of {len(setups)} set-ups; unscaled "
                            f"{statistics.median(setups):.4g} s"}
        units = END_TO_END
    else:
        half = args.seconds / 2
        trace_out = workdir.parent / f"trace-{workload}-seed{args.seed}.json"
        _, plain = _spawn({**cfg, "mode": "run", "seconds": half})
        _, traced = _spawn({**cfg, "mode": "trace", "seconds": half,
                            "trace_out": str(trace_out)})
        attempted, failed, errors = _merge([plain, traced])
        for jid, digest in plain["digests"].items():
            if traced["digests"][jid] != digest:
                failed += 1
                errors.append(f"{jid}: traced output differs from untraced output")
        cycles, cals = traced["layers"], traced["calibrations"]
        metrics = {name: cycles[0][name] if name in COUNTS
                   else _scaled(statistics.median(c[name] for c in cycles), cals)
                   for name, _ in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (
            _scaled(_fast_quartile(traced["walls"]), cals)
            - _scaled(_fast_quartile(plain["walls"]), plain["calibrations"]))
        notes = {"trace.overhead_s": f"traced minus untraced wall_s, "
                                     f"{len(traced['walls'])} vs {len(plain['walls'])} cycles",
                 "trace.job_s": f"spans written to {trace_out.relative_to(ROOT)}"}
        units = PER_LAYER
    print(f"workload {workload} (size {args.size}, seed {args.seed}, "
          f"trace {int(args.trace)}): {failed} of {attempted} jobs failed; "
          f"times in s at reference speed")
    for line in errors[:10]:
        print(f"  error: {line}")
    for name, unit in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}{note}")
    print(f"  {'error_rate':32s} {failed / attempted:14.6g} ratio")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'tiny' runs small inputs, for the self-test")
    parser.add_argument("--refs", type=Path, default=HERE / "refs.json",
                        help="reference results to check outputs against")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coxgrowth" / "cli.py").is_file():
        sys.exit(f"error: no coxgrowth sources under {ROOT / 'src'}")
    workdir = ROOT / ".perfbench_run" / f"work-{os.getpid()}"
    try:
        if args.workload != "all":
            result = run_workload(args, args.workload, workdir)
        else:
            results = {w: run_workload(args, w, workdir) for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{name}": m for w, r in results.items()
                            for name, m in r["metrics"].items()},
            }
    except BenchError as err:
        sys.exit(f"error: {err}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
