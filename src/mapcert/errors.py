"""Exception types shared across the package."""

__all__ = [
    "MapcertError",
    "DimensionMismatch",
    "ZeroOperator",
    "ZeroMap",
    "KernelInclusionViolated",
    "EmptyZeroSet",
    "RankInfeasible",
    "CrossCheckError",
    "OracleUnstable",
    "ParseError",
    "SchemaError",
]


class MapcertError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(MapcertError):
    """Operands have incompatible shapes or lengths."""


class ZeroOperator(MapcertError):
    """A construction received an identically zero operator."""


class ZeroMap(MapcertError):
    """The map sends the identity to zero, so no unital normal form exists."""


class KernelInclusionViolated(MapcertError):
    """ker(B) is not contained in ker(A) within tolerance."""

    def __init__(self, message, worst_vector=None, worst_residual=None):
        super().__init__(message)
        self.worst_vector = worst_vector
        self.worst_residual = worst_residual


class EmptyZeroSet(MapcertError):
    """An operation that needs at least one zero pair received none."""


class RankInfeasible(MapcertError):
    """Requested rank exceeds what the requested dimensions allow."""


class CrossCheckError(MapcertError):
    """Two independent computation routes disagreed; indicates a bug."""


class OracleUnstable(MapcertError):
    """Brute-force dimension did not stabilize under grid refinement."""


class ParseError(MapcertError):
    """Input document is not valid UTF-8 JSON."""


class SchemaError(MapcertError):
    """Input document violates the map-document schema."""

    def __init__(self, field, constraint):
        super().__init__(f"{field}: {constraint}")
        self.field = field
        self.constraint = constraint
