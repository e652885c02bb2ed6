"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class PrecisionError(ArithmeticError):
    """Result cannot be certified at the requested precision."""


class UnsupportedOrderError(ValueError):
    """Expansion order beyond the coefficients this package hard-codes."""


class RateInconclusiveError(ArithmeticError):
    """Difference series vanishes through its truncation order."""


class NoOptimumError(ArithmeticError):
    """The linear system for the optimal parameters is singular."""


class CertificateError(ArithmeticError):
    """A required positivity certificate could not be produced."""
