"""Spans around the layer functions that coxgrowth.cli and coxgrowth.series call.

`install` replaces those functions, at run time and only inside the traced
process, with wrappers that record a span per call: name, start, end,
parent span and job.  Spans stay in memory; the caller writes them out when
the run ends.  Counts are noted on the innermost open span, so a ratio is
measured where the work happens.  No source file of the package changes.
"""
from __future__ import annotations

import functools
import os
import time

# span name -> per-layer metric holding the summed self time of such spans
SELF_TIME = {
    "coxmatrix.load": "coxmatrix.load_s",
    "coxmatrix.spherical_subsets": "coxmatrix.spherical_subsets_s",
    "ball.build": "ball.build_s",
    "ball.export": "ball.export_s",
    "stats.compute": "stats.compute_s",
    "stats.counting_suites": "stats.counting_suites_s",
    "geometry.L24": "geometry.L24_s",
    "geometry.P29": "geometry.P29_s",
    "geometry.C210": "geometry.C210_s",
    "geometry.L211": "geometry.L211_s",
    "series.assemble": "series.assemble_s",
    "series.taylor": "series.taylor_s",
    "series.verdict": "series.verdict_s",
    "series.quotient": "series.quotient_s",
    "cli.job": "cli.self_s",
    "trace.counters": "trace.counters_s",
}
GEOMETRY_SUITES = ("L24", "P29", "C210", "L211")

# every per-layer metric with its unit, in the order they are printed
PER_LAYER = [
    ("coxmatrix.load_s", "s"),
    ("coxmatrix.spherical_subsets_s", "s"),
    ("coxmatrix.subsets_examined", "count"),
    ("coxmatrix.spherical_found", "count"),
    ("coxmatrix.spherical_yield", "ratio"),
    ("ball.build_s", "s"),
    ("ball.elements", "count"),
    ("ball.edges", "count"),
    ("ball.us_per_element", "us"),
    ("ball.bytes_per_element", "B"),
    ("ball.export_s", "s"),
    ("stats.compute_s", "s"),
    ("stats.counting_suites_s", "s"),
    *[(f"geometry.{suite}_s", "s") for suite in GEOMETRY_SUITES],
    ("geometry.reflections", "count"),
    ("geometry.rank2_residues", "count"),
    ("geometry.L24_pairs_tested", "count"),
    *[(f"geometry.{suite}_skip_ratio", "ratio") for suite in GEOMETRY_SUITES],
    ("series.assemble_s", "s"),
    ("series.taylor_s", "s"),
    ("series.verdict_s", "s"),
    ("series.quotient_s", "s"),
    ("series.terms", "count"),
    ("series.den_degree", "count"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "B"),
    ("trace.job_s", "s"),
    ("trace.counters_s", "s"),
    ("trace.overhead_s", "s"),
]
# metrics that are deterministic counts, taken from the first traced cycle
COUNTS = {name for name, unit in PER_LAYER if unit in ("count", "ratio", "B")}


def _rss_bytes():
    with open("/proc/self/statm", encoding="ascii") as fp:
        return int(fp.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._t0 = time.perf_counter()

    def open(self, name):
        span = {"id": len(self.spans), "name": name,
                "start": time.perf_counter() - self._t0, "end": None,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "job": self.job, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter() - self._t0
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def note(self, key, value):
        """Add value to a count on the innermost open span."""
        if self._stack:
            attrs = self._stack[-1]["attrs"]
            attrs[key] = attrs.get(key, 0) + value

    def timed(self, name, fn, after=None):
        """fn wrapped in a span; after(span, result) runs once it has closed."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, result)
            return result
        return wrapper

    def counted(self, key, fn, size=False):
        """fn noting one call, or the length of its result, on the open span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.note(key, len(result) if size else 1)
            return result
        return wrapper


def _suite_counts(span, report):
    span["attrs"].update(checked=report.checked, skipped=report.skipped)


def install(tracer):
    """Wrap the layer functions of the imported coxgrowth package."""
    from coxgrowth import ball, cli, coxmatrix, geometry, series

    build_ball = cli.build_ball

    def traced_build(*args, **kwargs):
        before = _rss_bytes()
        span = tracer.open("ball.build")
        try:
            result = build_ball(*args, **kwargs)
        finally:
            tracer.close(span)
        grown = _rss_bytes() - before
        # per-sphere elements and stored edges, scanned outside the build span
        inner = tracer.open("trace.counters")
        layer_edges = [sum(1 for idx in result.layer(i) for j in result.edges[idx] if j >= 0)
                       for i in range(result.depth + 1)]
        span["attrs"].update(depth=result.depth, elements=result.size,
                             edges=sum(layer_edges), rss_growth=grown,
                             layer_sizes=result.layer_sizes(), layer_edges=layer_edges)
        tracer.close(inner)
        return result

    export_records = ball.Ball.export_records

    def traced_export(self):
        # open while the caller serializes each record, so the span covers both
        span = tracer.open("ball.export")
        try:
            yield from export_records(self)
        finally:
            tracer.close(span)

    def found(span, result):
        span["attrs"]["found"] = len(result)

    def den_degree(span, result):
        span["attrs"]["den_degree"] = len(result.den) - 1

    spherical = tracer.timed("coxmatrix.spherical_subsets", coxmatrix.spherical_subsets, found)
    coxmatrix.classify_subset = tracer.counted("examined", coxmatrix.classify_subset)
    cli.load_matrix = tracer.timed("coxmatrix.load", cli.load_matrix)
    cli.spherical_subsets = spherical
    series.spherical_subsets = spherical
    cli.build_ball = traced_build
    ball.Ball.export_records = traced_export
    cli.compute_stats = tracer.timed("stats.compute", cli.compute_stats)
    for name in ("verify_two_descent_recursion", "verify_up_edge_balance",
                 "verify_growth_upper", "verify_growth_lower",
                 "verify_descent_sum_lower", "verify_descent_ratio",
                 "descent_ratio_floor"):
        setattr(cli, name, tracer.timed("stats.counting_suites", getattr(cli, name)))
    for suite, name in (("L24", "verify_wall_pair_uniqueness"),
                        ("P29", "verify_projection_collapse"),
                        ("C210", "verify_exit_ascent"),
                        ("L211", "verify_not_both_down")):
        setattr(cli, name, tracer.timed(f"geometry.{suite}", getattr(cli, name), _suite_counts))
    geometry.reflections = tracer.counted("reflections", geometry.reflections, size=True)
    geometry.rank2_complete_residues = tracer.counted(
        "residues", geometry.rank2_complete_residues, size=True)
    cli.rational_growth_series = tracer.timed(
        "series.assemble", cli.rational_growth_series, den_degree)
    series.poincare_polynomial = tracer.counted("terms", series.poincare_polynomial)
    cli.taylor_coefficients = tracer.timed("series.taylor", cli.taylor_coefficients)
    cli.finiteness_verdict = tracer.timed("series.verdict", cli.finiteness_verdict)
    cli.quotient_criterion = tracer.timed("series.quotient", cli.quotient_criterion)
    cli.attach_ratio_window = tracer.timed("series.quotient", cli.attach_ratio_window)


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_metrics(spans):
    """Per-layer metrics of one cycle's spans (trace.overhead_s excepted)."""
    own = self_times(spans)
    out = {name: 0.0 for name, _ in PER_LAYER}
    for span in spans:
        out[SELF_TIME[span["name"]]] += own[span["id"]]

    def total(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    out["coxmatrix.subsets_examined"] = total("coxmatrix.spherical_subsets", "examined")
    out["coxmatrix.spherical_found"] = total("coxmatrix.spherical_subsets", "found")
    if out["coxmatrix.subsets_examined"]:
        out["coxmatrix.spherical_yield"] = (
            out["coxmatrix.spherical_found"] / out["coxmatrix.subsets_examined"])
    builds = [s for s in spans if s["name"] == "ball.build"]
    out["ball.elements"] = total("ball.build", "elements")
    out["ball.edges"] = total("ball.build", "edges")
    if builds:
        out["ball.us_per_element"] = 1e6 * sum(
            s["end"] - s["start"] for s in builds) / out["ball.elements"]
        largest = max(builds, key=lambda s: s["attrs"]["elements"])
        out["ball.bytes_per_element"] = (
            largest["attrs"]["rss_growth"] / largest["attrs"]["elements"])
    l24 = [s["attrs"] for s in spans if s["name"] == "geometry.L24"]
    out["geometry.reflections"] = sum(a.get("reflections", 0) for a in l24)
    out["geometry.rank2_residues"] = sum(a.get("residues", 0) for a in l24)
    out["geometry.L24_pairs_tested"] = sum(
        a.get("reflections", 0) * a.get("residues", 0) for a in l24)
    for suite in GEOMETRY_SUITES:
        checked = total(f"geometry.{suite}", "checked")
        skipped = total(f"geometry.{suite}", "skipped")
        if checked + skipped:
            out[f"geometry.{suite}_skip_ratio"] = skipped / (checked + skipped)
    out["series.terms"] = total("series.assemble", "terms")
    out["series.den_degree"] = total("series.assemble", "den_degree")
    out["cli.output_bytes"] = total("cli.job", "output_bytes")
    out["trace.job_s"] = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.job")
    return out
