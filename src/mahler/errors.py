"""Exception types shared across the package.

All numerical routines raise subclasses of :class:`MahlerError` so callers can
distinguish domain problems (bad parameters) from numerical failures
(quadrature that did not converge, residuals that are too large).
"""

from __future__ import annotations


class MahlerError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MahlerError, ValueError):
    """An argument lies outside the domain of the requested quantity."""


class PoleError(DomainError):
    """A gamma-function ratio or series coefficient hits a pole."""


class IntegrabilityError(DomainError):
    """A weighted integral diverges for the given decay exponent."""


class InfiniteValueError(MahlerError, ArithmeticError):
    """The requested quantity is genuinely infinite at this point."""


class QuadratureError(MahlerError, ArithmeticError):
    """Adaptive quadrature failed to reach the requested accuracy."""


class NotAntisymmetricError(MahlerError, ValueError):
    """A matrix expected to be antisymmetric is not, beyond tolerance."""


class OddDimensionError(MahlerError, ValueError):
    """A Pfaffian was requested for an odd-dimensional matrix."""


class ResidualError(MahlerError, ArithmeticError):
    """A quantity expected to be real (or zero) has a residual that is too large."""


class ConditioningError(MahlerError, ArithmeticError):
    """A root-finding or cross-validation step signals ill-conditioning."""


class PairingError(MahlerError, ValueError):
    """Non-real roots of a real polynomial could not be matched into conjugate pairs."""
