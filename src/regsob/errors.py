"""Exception types shared across the package."""


class RegsobError(Exception):
    """Base class for all package errors."""


class InvalidParams(RegsobError):
    pass


class DiagonalSingularity(RegsobError):
    """Kernel requested exactly on the diagonal r = s, t = 0."""


class InvalidGrading(RegsobError):
    pass


class GridMismatch(RegsobError):
    pass


class TableExponentMismatch(RegsobError):
    pass


class UnknownKind(RegsobError):
    pass


class ZeroField(RegsobError):
    pass


class NonCompactSupport(RegsobError):
    pass


class SingularAtZeroSeparation(RegsobError):
    pass


class InvalidGamma(RegsobError):
    pass


class InsufficientConvergence(RegsobError):
    pass


class OutsideChart(RegsobError):
    pass


class CoincidentPoints(RegsobError):
    pass


class MissingGamma0(RegsobError):
    pass


class MonteCarloVarianceTooHigh(RegsobError):
    pass


class DivergentStep(RegsobError):
    pass


class OutOfMemoryEstimate(RegsobError):
    pass


class CorruptHeader(RegsobError):
    pass


class VersionMismatch(RegsobError):
    pass


class ChecksumFailure(RegsobError):
    pass


class ConfigError(RegsobError):
    """Configuration file parse or validation failure."""
