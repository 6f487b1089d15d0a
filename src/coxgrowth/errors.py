"""Exception types shared across the package, and the element cap that
ResourceLimitError enforces by default."""

# the default of every `cap`: elements, small-root terms and series degree
DEFAULT_CAP = 10_000_000


class MatrixError(ValueError):
    """Invalid Coxeter matrix data."""


class NotSquareError(MatrixError):
    pass


class NonSymmetricError(MatrixError):
    pass


class BadDiagonalError(MatrixError):
    pass


class BadOffDiagonalError(MatrixError):
    pass


class NotSphericalError(ValueError):
    """A finite-type operation was applied to an infinite subsystem."""


class ClassificationError(RuntimeError):
    """Internal inconsistency while assembling a type label."""


class GeneratorOutOfRangeError(IndexError):
    pass


class ResourceLimitError(RuntimeError):
    """Element cap exceeded during ball construction."""


class OracleBudgetError(RuntimeError):
    """Rewriting closure grew past its word budget."""


class HypothesisError(ValueError):
    """A verifier's hypotheses do not hold for the given system."""


class NotUniformError(HypothesisError):
    pass


class LabelTooSmallError(HypothesisError):
    pass


class RankTooSmallError(HypothesisError):
    pass


class DiagramNotCompleteError(HypothesisError):
    pass


class RangeEmptyError(ValueError):
    """The requested index range contains nothing to check."""


class SingularAtZeroError(ZeroDivisionError):
    """Denominator vanishes at 0, so no series expansion exists there."""


class NegativeCoefficientError(ValueError):
    pass


class DepthExceededError(RuntimeError):
    """An intermediate product left the ball, so the result is unknown."""
