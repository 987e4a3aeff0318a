"""Gauss–Legendre panel quadrature with adaptive bisection.

Conventions used throughout the package:

* finite intervals are integrated with fixed-order Gauss–Legendre panels,
  refined by bisection until the panel-sum error estimate meets the target;
* half-lines ``[a, inf)`` with ``a > 0`` are mapped to ``(0, 1/a]`` through
  ``x = 1/t``;
* the limit kernels of :mod:`mahler.limits` use fixed rules instead: circle
  averages take Gauss–Legendre panels in the angle, split where a branch
  point comes near the circle, and the tails beyond the disk a Gauss–Jacobi
  rule that absorbs their endpoint power.

Integrands must be vectorized over numpy arrays (real or complex output).
The panel order is ``DEFAULT_ORDER`` (64) unless a call passes ``order``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureError

DEFAULT_ORDER = 64
_MAX_PANELS = 4096


@lru_cache(maxsize=32)
def leg_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def fixed_panel(f, a: float, b: float, order: int | None = None):
    """One Gauss–Legendre panel for ``f`` over ``[a, b]``."""
    order = order or DEFAULT_ORDER
    x, w = leg_nodes(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * np.sum(w * f(mid + half * x))


def adaptive(f, a: float, b: float, tol: float = 1e-12, order: int | None = None):
    """Adaptive Gauss–Legendre integral of ``f`` over ``[a, b]``.

    Bisects the panel with the largest error estimate (difference between the
    panel value and the sum over its two halves) until the global estimate is
    below ``tol`` (absolute, scaled by the integral magnitude when that is
    larger than one). Returns ``(value, error_estimate)``. A panel whose
    value or halves are not finite raises at once: bisection cannot remove
    a non-finite value from the running total. Each panel keeps its two
    half values, which are the whole values of its children. A ``tol``
    that is not positive can never be met and raises :class:`DomainError`.
    """
    if not tol > 0.0:
        raise DomainError(f"adaptive quadrature needs tol > 0, got {tol}")
    order = order or DEFAULT_ORDER

    def panel(lo, hi, whole):
        mid = 0.5 * (lo + hi)
        left, right = fixed_panel(f, lo, mid, order), fixed_panel(f, mid, hi, order)
        halves = left + right
        if not (np.isfinite(whole) and np.isfinite(halves)):
            raise QuadratureError(
                f"non-finite integrand on [{lo}, {hi}]: panel {whole}, "
                f"halves {halves}")
        return abs(whole - halves), lo, hi, halves, left, right

    panels = [panel(a, b, fixed_panel(f, a, b, order))]
    while True:
        total = sum(p[3] for p in panels)
        total_err = sum(p[0] for p in panels)
        scale = max(1.0, abs(total))
        if total_err <= tol * scale:
            return total, total_err
        if len(panels) >= _MAX_PANELS:
            raise QuadratureError(
                f"adaptive quadrature did not converge: error {total_err:.3e} "
                f"with {len(panels)} panels")
        panels.sort(key=lambda p: p[0])
        _, lo, hi, _, left, right = panels.pop()
        mid = 0.5 * (lo + hi)
        panels.append(panel(lo, mid, left))
        panels.append(panel(mid, hi, right))


def _check_quad(val, err):
    """Raise when an error estimate exceeds ``1e-6 * max(1, |val|)``."""
    if err > 1e-6 * max(1.0, abs(val)):
        raise QuadratureError(f"quadrature error {err:.3e} too large for value {val:.3e}")


def halfline(f, a: float, tol: float = 1e-12, order: int | None = None):
    """Integral of ``f`` over ``[a, inf)`` for ``a > 0`` via ``x = 1/t``.

    The integrand must decay fast enough that ``f(1/t)/t^2`` is integrable
    at ``t = 0``; the substituted integrand is evaluated on ``(0, 1/a]`` where
    Gauss nodes never touch the endpoint.
    """
    if a <= 0:
        raise ValueError("halfline requires a > 0")

    def g(t):
        return f(1.0 / t) / t**2

    return adaptive(g, 0.0, 1.0 / a, tol=tol, order=order)

