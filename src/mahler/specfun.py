"""Special functions used by the polynomial and kernel layers.

Everything here is a pure function. This is the one Gamma layer of the
package: :func:`gammaln_signed` applies ``math.lgamma`` elementwise and keeps
the sign of ``Gamma`` apart, and Gamma quotients are summed in log space so
they stay finite for large indices. Power series are truncated once the term
magnitude stays below ``1e-16`` times the partial sum for three consecutive
terms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InfiniteValueError, PoleError
from .quadrature import adaptive

_TRUNC = 1e-16
_TINY = 1e-300
_MAX_TERMS = 100000


def _is_nonpositive_integer(x: float, tol: float = 1e-12) -> bool:
    return x < 0.5 and abs(x - round(x)) < tol and round(x) <= 0


def _lgamma_one(x: float) -> tuple[float, float]:
    # Gamma(x) < 0 exactly on the intervals (-2k - 1, -2k), k >= 0
    if x > 0.0:
        return math.lgamma(x), 1.0
    if x % 1.0 == 0.0:
        return math.inf, 0.0
    return math.lgamma(x), 1.0 if x % 2.0 < 1.0 else -1.0


def gammaln_signed(x):
    """``(log|Gamma(x)|, sign(Gamma(x)))`` elementwise from ``math.lgamma``.

    At the poles ``x = 0, -1, -2, ...`` these are ``inf`` and 0, so
    ``sign * exp(-log)`` is ``1/Gamma(x)`` everywhere.
    """
    if isinstance(x, (int, float)):
        return _lgamma_one(x)
    x = np.asarray(x, dtype=float)
    out = np.array([_lgamma_one(v) for v in x.ravel().tolist()]).reshape(-1, 2)
    return out[:, 0].reshape(x.shape), out[:, 1].reshape(x.shape)


def _gamma_quotient(num, den):
    """``prod Gamma(num) / prod Gamma(den)`` summed in log space, the signs
    kept apart; arguments broadcast, and a pole in ``den`` gives 0."""
    log_val, sign = 0.0, 1.0
    for args, k in ((num, 1.0), (den, -1.0)):
        for a in args:
            lg, sg = gammaln_signed(a)
            log_val, sign = log_val + k * lg, sign * sg
    return sign * np.exp(log_val)


def gamma_ratio(x, alpha: float):
    """The normalized Gamma ratio ``Gamma(x+1+alpha) / (Gamma(1+alpha) Gamma(x+1))``.

    For integer ``x = n`` this is the generalized binomial coefficient
    ``(1+alpha)(2+alpha)...(n+alpha)/n!`` that appears as a polynomial
    coefficient throughout the package. Vectorized over ``x``.
    """
    args = (x + 1.0 + alpha, 1.0 + alpha, x + 1.0)
    for a in args:
        for v in np.ravel(a).tolist():
            if _is_nonpositive_integer(v):
                raise PoleError(f"gamma_ratio: Gamma pole at argument {v}")
    return _gamma_quotient(args[:1], args[1:])


def gamma_ratio_table(n: int, alpha: float) -> np.ndarray:
    """Vectorized ``gamma_ratio(k, alpha)`` for ``k = 0..n`` (inclusive)."""
    return gamma_ratio(np.arange(n + 1, dtype=float), alpha)


def _finite(z) -> np.ndarray:
    """``z`` as a complex128 array if it is complex, else as a float64 one."""
    z = np.asarray(z)
    z = z.astype(complex if np.iscomplexobj(z) else float, copy=False)
    if not np.isfinite(z).all():
        raise DomainError("confluent functions need finite arguments")
    return z


def _split(mask, z, first, rest):
    """``first`` on ``z[mask]`` and ``rest`` on the other points; each gives a pair."""
    if mask.all() or not mask.any():
        return (first if mask.all() else rest)(z)
    out = np.empty((2,) + z.shape, dtype=z.dtype)
    out[:, mask], out[:, ~mask] = first(z[mask]), rest(z[~mask])
    return out[0], out[1]


def _in_double_range(name: str, z, pair):
    """``pair()`` with overflow quiet; :class:`InfiniteValueError` where it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        first, second = pair()
    bad = ~(np.isfinite(first) & np.isfinite(second))
    if bad.any():
        raise InfiniteValueError(f"{name} leaves the double range at z = {z[bad][0]}")
    return first, second


def _series(a: float, b: float, top: float, step: float, w):
    """Sums of ``t_n`` and ``t_n (n*step+a)/(n+b)``, ``t_{n+1} = t_n (n+top)/((n+b)(n+1)) w``,
    until the terms stay below ``1e-16`` of the largest partial sum for three terms:
    ``1F1(a; b; w)`` and its derivative for ``top = a, step = 1``, and ``e^w`` times
    ``1F1(a; b; -w)`` and its derivative for ``top = b - a, step = 0`` (DLMF 13.2.39)."""
    term, der, tmp, mag = np.ones_like(w), np.zeros_like(w), np.empty_like(w), np.empty(w.shape)
    val, quiet, bound = term.copy(), 0, 1.0
    for n in range(_MAX_TERMS):
        der += np.multiply(term, (n * step + a) / (n + b), out=tmp)
        term *= (n + top) / ((n + b) * (n + 1.0))
        term *= w
        val += term
        small = np.abs(term, out=mag).max()
        bound += small        # still >= max|val|; made exact only when it matters
        if small <= _TRUNC * max(bound, _TINY):
            bound = np.abs(val, out=mag).max()
        quiet = quiet + 1 if small <= _TRUNC * max(bound, _TINY) else 0
        if quiet >= 3 or not math.isfinite(small):
            break
    return val, der


def hyp1f1_M(alpha: float, beta: float, z):
    """Confluent-hypergeometric family ``M_{alpha,beta}(z)``.

    Defined by the normalized series with coefficient ratio
    ``(n+1+alpha)/((n+1+gamma)(n+1))`` where ``gamma = 1+alpha+beta``, that is
    ``1F1(1+alpha; 1+gamma; z)``; the value at 0 is 1. The special case
    ``(1/2, -3/2)`` is the kernel of the circle scaling limits. Points with
    ``Re z < 0`` sum Kummer's transformation ``e^z 1F1(b-a; b; -z)`` (DLMF
    13.2.39) in a loop of their own, so neither series alternates. Accepts
    scalars or numpy arrays and keeps their dtype as :func:`big_m_pair` does.
    A non-finite ``z`` raises :class:`DomainError`,
    and one where a series leaves the double range :class:`InfiniteValueError`.
    """
    g = 1.0 + alpha + beta
    if _is_nonpositive_integer(g + 1.0):
        # poles occur when 1+gamma hits a non-positive integer, i.e. gamma in {-1,-2,...}
        raise PoleError(f"hyp1f1_M: parameter gamma = {g} is a negative integer")
    a, b, z = 1.0 + alpha, 1.0 + g, _finite(z)
    val, _ = _in_double_range("hyp1f1_M", z, lambda: _split(
        z.real >= 0.0, z, lambda x: _series(a, b, a, 1.0, x),
        lambda x: np.exp(x) * np.array(_series(a, b, b - a, 0.0, -x))))
    return val.item() if val.ndim == 0 else val


def _m_pair_integral(z):
    """``(M(z), M'(z))`` for ``M = 1F1(3/2; 1; z)`` by the midpoint rule in ``theta``.

    With ``c = cos^2(theta/2)``, DLMF 13.4.1 and ``M = 1F1(1/2; 1) + 2z
    1F1'(1/2; 1)`` give ``M = (1/pi) int_0^pi e^{zc} (1 + 2zc) dtheta``. Adding
    the derivative of ``sin(theta) (1 + c + c^2 + c^3) e^{zc}`` (integral 0)
    makes the integrand ``e^{zc} (8c^4 - c^3 - c^2 - c + 2zc^5)``, which does
    not cancel at ``c = 0`` when ``Re z < 0``; ``M'`` integrates its
    ``z``-derivative. The error falls geometrically in ``k`` (Trefethen &
    Weideman, SIAM Rev. 56 (2014)).
    """
    r = float(np.max(np.abs(z)))
    k = int(r / 2.0 + 3.0 * math.sqrt(r / 2.0 + 1.0) + 14.0)
    c = np.cos((np.arange(k) + 0.5) * (0.5 * math.pi / k)) ** 2
    base = c * (((8.0 * c - 1.0) * c - 1.0) * c - 1.0)
    m, d, zc, e = (np.zeros_like(z) for _ in range(4))
    for ci, bi, slope, extra in zip(c.tolist(), base.tolist(), (2.0 * c ** 4).tolist(),
                                    (2.0 * c ** 5).tolist()):
        np.exp(np.multiply(z, ci, out=zc), out=e)
        zc *= slope
        zc += bi
        zc *= e                 # the integrand of M; that of M' is c times it + 2c^5 e^{zc}
        m += zc
        d += np.multiply(zc, ci, out=zc)
        d += np.multiply(e, extra, out=e)
    return m / k, d / k


def big_m_pair(z):
    """``(M(z), M'(z))`` for ``M = M_{1/2,-3/2} = 1F1(3/2, 1; z)``, vectorized.

    The series sums terms up to ``e^{|z|}`` to a value near ``e^{Re z}``, so
    only points with ``|z| - Re z <= 6`` use it; the others use
    :func:`_m_pair_integral`. Both are within 1e-12 relative of a 40-digit
    oracle for ``|Re z|, |Im z| <= 40`` and ``|z| <= 200``.

    The result keeps the kind of ``z``: a complex ``z`` gives complex values,
    any other is evaluated in float64 and gives real ones (Python scalars for
    a scalar ``z``). Both kinds run the same code. On the series path a real
    value is bit for bit the real part of the complex route's value; on the
    integral path the two differ by the rounding of a real against a complex
    ``exp``, at most 3.4e-16 relative on ``[-40, 700]``. A non-finite
    ``z`` raises :class:`DomainError`, and a ``z`` where ``M`` or ``M'`` leaves
    the double range (``Re z`` near 709) raises :class:`InfiniteValueError`.
    """
    z = _finite(z)
    m_val, d_val = _in_double_range("big_m_pair", z, lambda: _split(
        np.abs(z) - z.real > 6.0, z, _m_pair_integral,
        lambda x: _series(1.5, 1.0, 1.5, 1.0, x)))
    return (m_val.item(), d_val.item()) if z.ndim == 0 else (m_val, d_val)


def _endpoint_moment(g: float, core, tol: float) -> complex:
    """``(1+g) \\int_0^1 x^g core(x) dx`` for ``g > -1``.

    For ``g < 0`` the algebraic endpoint singularity is removed with the
    substitution ``x = t^{2/(1+g)}`` before Gauss–Legendre integration.
    """
    if g < 0.0:
        p = 2.0 / (1.0 + g)

        def f(t):
            return p * t * core(t**p)
    else:

        def f(x):
            return x**g * core(x)

    val, _ = adaptive(f, 0.0, 1.0, tol=tol)
    return (1.0 + g) * val


def e_gamma(g: float, tau) -> complex:
    """``(1+g) \\int_0^1 x^g e^{tau x} dx = 1F1(1+g; 2+g; tau)`` (DLMF 13.4.1),
    normalized so the value at 0 is 1."""
    if g <= -1.0:
        raise DomainError(f"e_gamma requires g > -1, got {g}")
    return hyp1f1_M(g, 0.0, complex(tau))


def e_pair(a1: float, b1: float, a2: float, b2: float, t1, t2,
           tol: float = 1e-12) -> complex:
    """``(1+g) \\int_0^1 x^g M_{a1,b1}(t1 x) M_{a2,b2}(t2 x) dx``, ``g = 2+a1+b1+a2+b2``."""
    g = 2.0 + a1 + b1 + a2 + b2
    if g <= -1.0:
        raise DomainError(f"e_pair requires 2+a1+b1+a2+b2 > -1, got {g}")
    t1, t2 = complex(t1), complex(t2)
    return _endpoint_moment(
        g, lambda x: hyp1f1_M(a1, b1, t1 * x) * hyp1f1_M(a2, b2, t2 * x), tol)


def omega(lam: float, tau) -> float:
    """Exponential damping factor ``min(1, e^{-Re(tau)/lam})``.

    At ``lam = 0`` this degenerates to the characteristic function of the
    closed half-plane ``Re(tau) <= 0`` (closed unit disk after the change of
    variables that produces it).
    """
    if lam < 0.0 or lam > 1.0:
        raise DomainError(f"omega requires lam in [0, 1], got {lam}")
    if np.ndim(tau) == 0:
        re = complex(tau).real
        if lam == 0.0:
            return 1.0 if re <= 0.0 else 0.0
        return 1.0 if re <= 0.0 else math.exp(-re / lam)
    re = np.real(np.asarray(tau))
    if lam == 0.0:
        return (re <= 0.0).astype(float)
    return np.where(re <= 0.0, 1.0, np.exp(-np.maximum(re, 0.0) / lam))


def iota(z):
    """``i sgn(Im z)``: the phase attached to conjugating a nonreal argument.
    A complex for a scalar ``z``, an array for an array."""
    phase = 1j * np.sign(np.imag(z))
    return complex(phase) if np.ndim(phase) == 0 else phase
