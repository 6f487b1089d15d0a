"""Exact growth data for finitely generated Coxeter systems.

Everything is integer or rational arithmetic: canonical-word enumeration
of metric balls, sphere and descent statistics with their counting
identities, rational growth series with finiteness verdicts at rational
points, and chamber-level geometry checks (residues, walls).

Each exported name is imported from its module on first use (PEP 562), so
importing the package, or one command of `coxgrowth.cli`, loads no module
that it does not run.  `_EXPORTS` is the one table of modules and names;
one binder, `_bind`, and the `_lazy` hook serve it to the package and `cli`.
"""
from importlib import import_module

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "ball": ("Ball", "build_ball", "oracle_reduce"),
    "coxmatrix": (
        "INF", "INFINITE", "CoxeterMatrix", "DiagramProperties", "FiniteTypeLabel",
        "classify_subset", "diagram_properties", "load_matrix", "matrix_to_data",
        "parse_matrix_data", "path_matrix", "poincare_polynomial", "spherical_subsets",
        "uniform_matrix", "validate_matrix",
    ),
    "errors": (
        "BadDiagonalError", "BadOffDiagonalError", "ClassificationError",
        "DepthExceededError", "DiagramNotCompleteError", "GeneratorOutOfRangeError",
        "HypothesisError", "LabelTooSmallError", "MatrixError", "NegativeCoefficientError",
        "NonSymmetricError", "NotSphericalError", "NotSquareError", "NotUniformError",
        "OracleBudgetError", "RangeEmptyError", "RankTooSmallError", "ResourceLimitError",
        "SingularAtZeroError",
    ),
    "geometry": (
        "Residue", "rank2_complete_residues", "reflections", "residue", "verify_exit_ascent",
        "verify_not_both_down", "verify_projection_collapse", "verify_wall_pair_uniqueness",
    ),
    "report": ("Comparison", "VerificationReport"),
    "series": (
        "ConvergenceVerdict", "QuotientReport", "RationalFunction",
        "attach_ratio_window", "finiteness_verdict", "quotient_criterion",
        "rational_growth_series", "taylor_coefficients",
    ),
    "stats": (
        "SphereStats", "compute_stats", "descent_ratio_floor", "verify_descent_ratio",
        "verify_descent_sum_lower", "verify_growth_lower", "verify_growth_upper",
        "verify_two_descent_recursion", "verify_up_edge_balance",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _bind(scope, *modules):
    """Import the modules and bind their _EXPORTS names into scope; a bound name stays."""
    for module in modules:
        found = import_module(f"{__name__}.{module}")
        for name in _EXPORTS[module]:
            scope.setdefault(name, getattr(found, name))


def _lazy(scope):
    """A PEP 562 module __getattr__ that binds an exported name's module into scope."""
    def __getattr__(name):
        if name not in _HOME:
            raise AttributeError(f"module {scope['__name__']!r} has no attribute {name!r}")
        _bind(scope, _HOME[name])
        return scope[name]
    return __getattr__


__getattr__ = _lazy(globals())


def __dir__():
    return sorted({*globals(), *__all__})
