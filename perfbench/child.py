"""One benchmark process: set up a workload, then run its jobs in cycles.

Started by run.py with one JSON argument.  It imports coxgrowth from the
checkout's src/, writes the workload's matrices and parses them, and prints
"ready".  In "setup" mode it stops there.  Otherwise it calls
coxgrowth.cli.main once per job, with stdout and stderr captured in memory,
repeating the whole job list until the run's seconds are spent, and timing
calibrate.py before the first cycle and after each one.  The first
cycle's outputs are checked against the references; later cycles must
repeat them byte for byte.  One JSON line with the results ends its stdout.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _run_cycle(jobs, main, tracer):
    """Run every job once; return (wall seconds, [(exit code, stdout, stderr)])."""
    outcomes = []
    spans = []
    start = time.perf_counter()
    for jid, _, argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = jid
            spans.append(tracer.open("cli.job"))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash counts as a failed job
                code = None
                err.write(f"{type(exc).__name__}: {exc}")
        if tracer is not None:
            tracer.close(spans[-1])
        outcomes.append((code, out.getvalue(), err.getvalue()))
    wall = time.perf_counter() - start
    for span, (_, text, _) in zip(spans, outcomes):
        span["attrs"]["output_bytes"] = len(text.encode("utf-8"))
    return wall, outcomes


def main():
    cfg = json.loads(sys.argv[1])
    src = (Path(cfg["root"]) / "src").resolve()
    sys.path.insert(0, str(src))
    import coxgrowth.cli

    if not Path(coxgrowth.__file__).resolve().is_relative_to(src):
        sys.exit(f"coxgrowth was imported from {coxgrowth.__file__}, not from {src}")
    from workloads import make_jobs

    jobs = make_jobs(cfg["workload"], cfg["size"], cfg["seed"], cfg["workdir"])
    for _, _, argv in jobs:
        coxgrowth.load_matrix(argv[2])
    print("ready", flush=True)
    if cfg["mode"] == "setup":
        return

    from calibrate import calibrate
    from check import CheckError, check
    from tracer import Tracer, install, layer_metrics

    with open(cfg["refs"], encoding="utf-8") as fp:
        refs = json.load(fp)[cfg["size"]]
    tracer = None
    if cfg["mode"] == "trace":
        tracer = Tracer()
        install(tracer)

    walls, layers, errors = [], [], []
    calibrations = [calibrate()]
    digests, good = {}, {}
    attempted = failed = 0
    start = time.perf_counter()
    # start a cycle only if it should end within the run's seconds
    while not walls or time.perf_counter() - start + walls[-1] <= cfg["seconds"]:
        first_span = len(tracer.spans) if tracer else 0
        wall, outcomes = _run_cycle(jobs, coxgrowth.cli.main, tracer)
        walls.append(wall)
        calibrations.append(calibrate())
        if tracer is not None:
            layers.append(layer_metrics(tracer.spans[first_span:]))
        for (jid, kind, _), (code, text, err) in zip(jobs, outcomes):
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if jid not in digests:
                digests[jid] = digest
                try:
                    if code != 0:
                        raise CheckError(f"exit code {code}: {err.strip()[-300:]}")
                    check(kind, text, refs[jid])
                    good[jid] = True
                except CheckError as exc:
                    good[jid] = False
                    errors.append(f"{jid}: {exc}")
            ok = good[jid] and code == 0 and digest == digests[jid]
            if good[jid] and not ok:
                errors.append(f"{jid}: cycle {len(walls)} differs from the first "
                              f"(exit code {code})")
            attempted += 1
            failed += not ok
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        with open(cfg["trace_out"], "w", encoding="utf-8") as fp:
            json.dump({"workload": cfg["workload"], "seed": cfg["seed"],
                       "size": cfg["size"], "spans": tracer.spans}, fp)
    print(json.dumps({"walls": walls, "calibrations": calibrations,
                      "attempted": attempted, "failed": failed, "errors": errors[:10],
                      "peak_rss_mb": peak_mb, "digests": digests, "layers": layers}))


if __name__ == "__main__":
    main()
