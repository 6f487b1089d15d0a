"""Command-line front end.

Subcommands: info, ball, stats, verify, series.  Every output is
deterministic: the same invocation produces byte-identical files.

Exit codes: 0 success, 2 unreadable input or output path, 3 invalid
matrix or flag value, 4 element cap exceeded, 5 a verification suite
failed on its validity range, 6 series coefficients disagree with the
enumerated sphere sizes.

stats, series and verify count with automaton.sphere_counts under one cap rule,
which verify meets before it walks the automaton again for its geometry suites
alone; those build a ball only to name a failure.
verify and series bind the modules only they run with the package's `_bind`,
and every package export resolves as cli.<name> before that; a name set on cli
first, by a tracer or by monkeypatch, is the one the command calls.  main
builds the parser once, and set_defaults binds the cmd_* functions then.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import _bind, _lazy
from .coxmatrix import (
    diagram_properties,
    load_matrix,
    matrix_to_data,
    spherical_subsets,
)
from .errors import (
    DEFAULT_CAP,
    ClassificationError,
    HypothesisError,
    RangeEmptyError,
    ResourceLimitError,
)

__getattr__ = _lazy(globals())

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_RESOURCE = 4
EXIT_VERIFY = 5
EXIT_COEFF = 6

# each suite as runner(stats, ball, gate), in the order they run, the geometry suites
# (which alone read a ball, the walk's) last; the lambdas look their names up at call
# time, so a timer rebound onto those names sees the calls
_GEOMETRY = {
    "P29": lambda stats, ball, gate: verify_projection_collapse(ball, gate=gate),
    "C210": lambda stats, ball, gate: verify_exit_ascent(ball, gate=gate),
    "L211": lambda stats, ball, gate: verify_not_both_down(ball, gate=gate),
    "L24": lambda stats, ball, gate: verify_wall_pair_uniqueness(ball, gate=gate),
}
_SUITES = {
    "L32": lambda stats, ball, gate: verify_two_descent_recursion(stats, gate=gate),
    "L33": lambda stats, ball, gate: verify_up_edge_balance(stats, gate=gate),
    "L34": lambda stats, ball, gate: verify_growth_upper(stats, gate=gate),
    "L35": lambda stats, ball, gate: verify_growth_lower(stats, gate=gate),
    "L45": lambda stats, ball, gate: verify_descent_sum_lower(stats, gate=gate),
    "k-ratio": lambda stats, ball, gate: verify_descent_ratio(
        stats, descent_ratio_floor(stats.n, stats.m), gate=gate),
    **_GEOMETRY,
}


def _default_depth(rank: int) -> int:
    if rank <= 3:
        return 12
    if rank == 4:
        return 10
    return 8


def _emit(chunks, out: str | None) -> None:
    """Write the strings in turn to stdout, or to the file out."""
    if out is None:
        sys.stdout.writelines(chunks)
        return
    with open(out, "w", encoding="utf-8") as fp:
        fp.writelines(chunks)


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _load(args):
    matrix = load_matrix(args.matrix)
    depth = args.depth if args.depth is not None else _default_depth(matrix.rank)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if args.cap < 1:
        raise ValueError(f"cap must be >= 1, got {args.cap}")
    return matrix, depth


def cmd_info(args) -> int:
    matrix = load_matrix(args.matrix)
    props = diagram_properties(matrix)
    subsets = [
        {"gens": list(gens), "type": label.name, "order": label.order}
        for gens, label in spherical_subsets(matrix)
        if gens
    ]
    payload = {
        "matrix": matrix_to_data(matrix),
        "rank": matrix.rank,
        "two_spherical": props.two_spherical,
        "complete_diagram": props.complete_diagram,
        "uniform_label": props.uniform_label,
        "spherical_subsets": subsets,
    }
    _emit([_dumps(payload)], args.out)
    return EXIT_OK


def cmd_ball(args) -> int:
    from .automaton import export_lines

    matrix, depth = _load(args)
    # export_lines checks the cap, as the ball did, before any output or --out file exists
    _emit(export_lines(matrix, depth, cap=args.cap), args.out)
    return EXIT_OK


def _stats_text(matrix, c, d, fmt: str) -> str:
    """The table of sphere counts c and single-descent counts d, as CSV or JSON."""
    rows = range(len(c))
    if fmt == "csv":
        return "i,c,d\n" + "".join(f"{i},{c[i]},{d[i]}\n" for i in rows)
    payload = {
        "matrix": matrix_to_data(matrix),
        "depth": len(c) - 1,
        "table": [{"i": i, "c": c[i], "d": d[i]} for i in rows],
    }
    return _dumps(payload)


def cmd_stats(args) -> int:
    from .automaton import sphere_counts

    matrix, depth = _load(args)
    c, d = sphere_counts(matrix, depth, cap=args.cap)
    _emit([_stats_text(matrix, c, d, args.format)], args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .automaton import sphere_counts

    matrix, depth = _load(args)
    if args.suite is None:
        tokens = list(_SUITES)
    else:
        # a repeated suite runs once, at its first position
        tokens = list(dict.fromkeys(
            tok.strip() for tok in args.suite.split(",") if tok.strip()))
        unknown = [tok for tok in tokens if tok not in _SUITES]
        if unknown or not tokens:
            what = f"unknown suite {unknown}" if unknown else "no suite selected"
            raise ValueError(f"{what}; choose from {', '.join(_SUITES)}")
    _bind(globals(), "stats")
    c, d = sphere_counts(matrix, depth, cap=args.cap)
    stats, ball = SphereStats(matrix, tuple(c), tuple(d)), None
    if any(token in _GEOMETRY for token in tokens):
        from .ball import walk_ball

        _bind(globals(), "geometry")
        ball = walk_ball(matrix, depth, cap=args.cap)
    gate = not args.no_hypothesis_gate

    reports = []
    skipped = []
    lines = []
    for token in tokens:
        try:
            report = _SUITES[token](stats, ball, gate)
        except (HypothesisError, RangeEmptyError) as reason:
            kind = "hypothesis" if isinstance(reason, HypothesisError) else "range"
            skipped.append({"suite": token, "reason": str(reason), "kind": kind})
            lines.append(f"{token}: skipped ({kind}) - {reason}")
            continue
        reports.append(report)
        lines.append(report.summary())

    failed = [r for r in reports if not r.holds]
    payload = {
        "matrix": matrix_to_data(matrix),
        "depth": depth,
        "diagnostic": not gate,
        "suites": [r.to_dict() for r in reports],
        "skipped": skipped,
        "all_hold": not failed,
    }
    _emit([_dumps(payload)], args.out)
    print("\n".join(lines), file=sys.stderr)
    if failed and gate:
        return EXIT_VERIFY
    return EXIT_OK


# CPython's default limit on the digits of an int read or printed as text: a
# longer point cannot be printed in its verdict, and building it can take longer
# than any series
_MAX_POINT_DIGITS = 4300


def _point_digits(text: str) -> int:
    """The length of a point's text once its exponent is written out as zeros."""
    mantissa, _, exp = text.lower().partition("e")
    exp = exp.lstrip("+-").replace("_", "").lstrip("0")
    if not exp.isdecimal():  # no exponent, a zero one, or one that Fraction refuses
        return len(mantissa)
    return len(mantissa) + (int(exp) if len(exp) < 6 else _MAX_POINT_DIGITS + 1)


def cmd_series(args) -> int:
    from fractions import Fraction

    from .automaton import sphere_counts

    matrix, depth = _load(args)
    texts = [text for text in map(str.strip, (args.eval or "").split(",")) if text]
    if args.eval is not None and not texts:
        raise ValueError(f"--eval {args.eval!r} names no evaluation point")
    for text in texts:  # refused from the text, before any Fraction or series work
        if _point_digits(text) > _MAX_POINT_DIGITS:
            raise ValueError(
                f"evaluation point {text} has more than {_MAX_POINT_DIGITS} digits")
    points = [Fraction(text) for text in texts]
    for point in points:  # a bad point is refused before the series or the cap can trip
        if not 0 < point < 1:
            raise ValueError(f"evaluation points must lie in (0, 1), got {point}")
    _bind(globals(), "stats", "series")
    # the enumerated sizes come from the small roots, a route that shares no code
    # with the series' sum over spherical subsets
    c, d = sphere_counts(matrix, depth, cap=args.cap)
    series = rational_growth_series(matrix, cap=args.cap)
    coeffs = taylor_coefficients(series, depth)
    stats = SphereStats(matrix, tuple(c), tuple(d))
    agreement = coeffs == c

    if not texts:
        points = [Fraction(1, q) for q in (matrix.rank - 1, matrix.rank - 2) if q >= 2]
        texts = list(map(str, points))
    limit = 10 ** _MAX_POINT_DIGITS
    verdicts = []
    for text, point in zip(texts, points):
        verdict = finiteness_verdict(series, point)
        try:
            verdict = attach_ratio_window(verdict, quotient_criterion(stats, point))
        except (RangeEmptyError, HypothesisError):
            pass
        # the point's own text is bounded above; its value and ratios are not
        numbers = [verdict.value or 0]
        if verdict.ratio_window is not None:
            numbers += [r for _, r in verdict.ratio_window.ratios]
        if any(abs(x.numerator) >= limit or x.denominator >= limit for x in numbers):
            raise ValueError(f"the verdict at {text} has a number of more than "
                             f"{_MAX_POINT_DIGITS} digits, too long to print")
        verdicts.append(verdict.to_dict())

    payload = {
        "matrix": matrix_to_data(matrix),
        "num": list(series.num),
        "den": list(series.den),
        "depth": depth,
        "coeffs": coeffs,
        "enumerated": c,
        "agreement": agreement,
        "verdicts": verdicts,
    }
    _emit([_dumps(payload)], args.out)
    if not agreement:
        print(
            "error: series coefficients disagree with enumeration", file=sys.stderr
        )
        return EXIT_COEFF
    return EXIT_OK


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxgrowth",
        description="Exact growth data for finitely generated Coxeter systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_depth=True):
        p.add_argument("--matrix", required=True, help="path to a matrix JSON file")
        if need_depth:
            p.add_argument("--depth", type=int, default=None,
                           help="ball radius (default 12/10/8 by rank)")
            p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                           help="element cap for enumeration, and for the "
                                "degree of the series' denominator")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_info = sub.add_parser("info", help="diagram properties and spherical subsets")
    common(p_info, need_depth=False)
    p_info.set_defaults(func=cmd_info)

    p_ball = sub.add_parser("ball", help="enumerate the ball as JSON lines")
    common(p_ball)
    p_ball.set_defaults(func=cmd_ball)

    p_stats = sub.add_parser("stats", help="sphere and descent counts per length")
    common(p_stats)
    p_stats.add_argument("--format", choices=("json", "csv"), default="json")
    p_stats.set_defaults(func=cmd_stats)

    p_verify = sub.add_parser("verify", help="run verification suites")
    common(p_verify)
    p_verify.add_argument("--suite", default=None,
                          help=f"comma list from: {', '.join(_SUITES)}")
    p_verify.add_argument("--no-hypothesis-gate", action="store_true",
                          help="run suites outside their hypotheses; "
                               "counterexamples are reported, not fatal")
    p_verify.set_defaults(func=cmd_verify)

    p_series = sub.add_parser("series", help="growth series and finiteness verdicts")
    common(p_series)
    p_series.add_argument("--eval", default=None,
                          help="comma list of rational points like 1/2,1/3")
    p_series.set_defaults(func=cmd_series)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.out == "":  # refused by name, before any work, rather than by the OS
        print("error: --out needs a file path, got an empty string", file=sys.stderr)
        return EXIT_IO
    try:
        return args.func(args)
    except ResourceLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, ZeroDivisionError, ClassificationError) as err:  # MatrixError too
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
