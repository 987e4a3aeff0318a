"""Gauss–Legendre panel quadrature with adaptive bisection.

The library computes no quantity by adaptive quadrature: its counts, skew
forms and endpoint moments are closed forms. The limit kernels of
:mod:`mahler.limits` take fixed rules built on :func:`leg_nodes`: circle
averages take Gauss–Legendre panels in the angle, split where a branch point
comes near the circle, and the tails beyond the disk a Gauss–Jacobi rule
that absorbs their endpoint power. :func:`adaptive` and :func:`fixed_panel`
serve the declared second routes in the tests, the scripts and the
benchmark's checks: finite intervals in fixed-order panels, refined by
bisection until the panel-sum error estimate meets the target.

Integrands must be vectorized over numpy arrays (real or complex output);
``adaptive`` calls one once per step, on the stacked nodes of that step's
panels. Every panel has ``DEFAULT_ORDER`` (64) nodes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureError
from .specfun import _frozen

DEFAULT_ORDER = 64
_MAX_PANELS = 4096


@lru_cache(maxsize=32)
def leg_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights on [-1, 1], read-only."""
    return _frozen(*np.polynomial.legendre.leggauss(order))


def fixed_panel(f, a, b):
    """One Gauss–Legendre panel for ``f`` over ``[a, b]``; for arrays of bounds, one
    sum per panel from one call of ``f``, bit-identical to the scalar calls."""
    x, w = leg_nodes(DEFAULT_ORDER)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = f((mid[..., None] + half[..., None] * x).ravel())
    return half * np.sum(w * np.reshape(vals, mid.shape + x.shape), axis=-1)


def adaptive(f, a: float, b: float, tol: float = 1e-12):
    """Adaptive Gauss–Legendre integral of ``f`` over ``[a, b]``.

    Bisects the panel with the largest error estimate (difference between the
    panel value and the sum over its two halves) until the global estimate is
    below ``tol`` (absolute, scaled by the integral magnitude when that is
    larger than one). Returns ``(value, error_estimate)``. A panel whose
    value or halves are not finite raises at once: bisection cannot remove
    a non-finite value from the running total. Each panel keeps its two half
    values, its children's whole values, so a bisection takes one call of
    ``f`` for their four quarter panels. A ``tol`` that is not positive can
    never be met and raises :class:`DomainError`.
    """
    if not tol > 0.0:
        raise DomainError(f"adaptive quadrature needs tol > 0, got {tol}")

    def panel(lo, hi, whole, left, right):
        halves = left + right
        if not (np.isfinite(whole) and np.isfinite(halves)):
            raise QuadratureError(
                f"non-finite integrand on [{lo}, {hi}]: panel {whole}, "
                f"halves {halves}")
        return abs(whole - halves), lo, hi, halves, left, right

    mid = 0.5 * (a + b)
    panels = [panel(a, b, *fixed_panel(f, [a, a, mid], [b, mid, b]))]
    while True:
        total = sum(p[3] for p in panels)
        total_err = sum(p[0] for p in panels)
        if total_err <= tol * max(1.0, abs(total)):
            return total, total_err
        if len(panels) >= _MAX_PANELS:
            raise QuadratureError(
                f"adaptive quadrature did not converge: error {total_err:.3e} "
                f"with {len(panels)} panels")
        panels.sort(key=lambda p: p[0])
        _, lo, hi, _, left, right = panels.pop()
        mid = 0.5 * (lo + hi)
        q1, q3 = 0.5 * (lo + mid), 0.5 * (mid + hi)
        quarters = fixed_panel(f, [lo, q1, mid, q3], [q1, mid, q3, hi])
        panels += [panel(lo, mid, left, *quarters[:2]), panel(mid, hi, right, *quarters[2:])]
