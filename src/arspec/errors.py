"""Exception types shared across the estimators."""

__all__ = ["DegenerateSignalError", "NumericalError", "SingularityError"]


class NumericalError(Exception):
    """Base class for numerical failures (as opposed to usage errors)."""


class SingularityError(NumericalError):
    """A matrix or denominator became singular within the pivot tolerance."""


class DegenerateSignalError(NumericalError):
    """The input carries no usable energy (zero signal, nonpositive r_0, ...)."""
