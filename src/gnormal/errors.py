"""Exception hierarchy shared by all gnormal modules."""


class GNormalError(Exception):
    """Base class for every error raised by this package."""


class DomainError(GNormalError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigurationError(GNormalError, ValueError):
    """A grid, policy or simulation configuration violates its contract."""


class NumericalError(GNormalError, ArithmeticError):
    """A solve produced NaN or otherwise failed numerically."""

