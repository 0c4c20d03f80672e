"""Exception hierarchy shared by all solver and I/O modules."""

from __future__ import annotations


class BalancedTransportError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BalancedTransportError, ValueError):
    """A problem, plan, or parameter violates its contract."""


class NonPositiveMarginal(ValidationError):
    """Some prescribed row or column sum is zero or negative."""


class GlobalFeasibilityViolation(ValidationError):
    """Total row mass and total column mass differ beyond tolerance."""


class NonPositiveCoefficient(ValidationError):
    """A multiplicative reward coefficient is zero or negative."""


class NonFiniteEntry(ValidationError):
    """An input array contains NaN or infinity."""


class NonPositiveEntry(ValidationError):
    """A matrix or vector required to be strictly positive is not."""


class LengthMismatch(ValidationError):
    """Two arrays that must agree in shape or length do not."""


class Overflow(BalancedTransportError):
    """An exp/log conversion, or the exact oracle's dual arithmetic, would
    produce a non-representable value."""


class NumericalDegeneracy(BalancedTransportError):
    """The temperature is so small that updates freeze below resolution."""


class MaxItersExceeded(BalancedTransportError):
    """An iteration budget ran out before the stopping rule fired.

    The partial result, when one exists, is attached as ``partial``.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class DivisionDegeneracy(BalancedTransportError):
    """A scaling denominator underflowed to zero."""


class RootBracketFailure(BalancedTransportError):
    """A monotone scalar root could not be bracketed."""


class ZeroLine(ValidationError):
    """A matrix row or column that must contain mass is entirely zero."""


class ZeroMarginal(ValidationError):
    """A generated marginal vanishes (for example, odd grid sizes)."""


class InconsistentSupport(BalancedTransportError):
    """The support graph of a plan forces contradictory dual potentials.

    This certifies that the plan is not optimal.  ``entry`` holds the
    1-based (i, j) cell at which the contradiction surfaced.
    """

    def __init__(self, message: str, entry=None):
        super().__init__(message)
        self.entry = entry


class SizeGuardExceeded(BalancedTransportError):
    """The exact oracle was asked for a problem above its size guard."""


class DimensionMismatch(ValidationError):
    """A plan's shape does not match its problem."""
