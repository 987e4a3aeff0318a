"""Special functions used by the polynomial and kernel layers.

Everything here is a pure function. This is the one Gamma layer of the package:
:func:`gammaln_signed` applies ``math.lgamma`` elementwise and keeps the sign of
``Gamma`` apart, and Gamma quotients are summed in log space so they stay finite
for large indices. The confluent functions pick a route per point: a power series,
a large-``|z|`` expansion, or (``big_m_pair`` only) a midpoint rule, the one
numerical integral here. The endpoint moments are closed forms: ``e_gamma`` is a
``1F1``, and ``e_pair`` integrates two series term by term on a bounded disk.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import DomainError, InfiniteValueError, PoleError

_TRUNC = 1e-16
_R, _R_TERMS = 60.0, 40       # past |z| = _R: DLMF 13.7.2 with this many terms per exponential
_CANCEL = 6.0                 # a series summed to e^6 ulps of its terms' sum: 1e-13 relative
_E_PAIR_TERMS, _E_PAIR_RADIUS = 48, 2.0   # e_pair: double-series terms, largest |t|


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
    """``z`` as a complex128 or float64 array; :class:`DomainError` unless finite."""
    z = np.asarray(z)
    z = z.astype(complex if z.dtype.kind == "c" else float, copy=False)
    if np.count_nonzero(np.isfinite(z)) < z.size:
        raise DomainError(f"arguments must be finite, got {z[~np.isfinite(z)][0]}")
    return z


def _evaluate(name: str, z, route, fns, count: int):
    """``fns[k]`` on the points where ``route == k``, in complex arithmetic (a real ``z`` gets the
    real parts), ``count`` rows each, overflow quiet; :class:`InfiniteValueError` where not finite.
    A route multiplies complex arrays only as contiguous operands of one shape into a separate
    output, so numpy takes one kernel at any size."""
    flat, route = z.ravel(), route.ravel()
    w, out = flat.astype(complex, copy=False), np.empty((count, flat.size), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, fn in enumerate(fns):
            idx = np.flatnonzero(route == k)
            if idx.size == flat.size:
                out = fn(w)
                break
            if idx.size:
                out[:, idx] = fn(w[idx])
    bad = ~np.isfinite(out).all(axis=0)
    if bad.any():
        raise InfiniteValueError(f"{name} leaves the double range at z = {flat[bad][0]}")
    return (out if np.iscomplexobj(z) else out.real.copy()).reshape((count,) + z.shape)


@functools.lru_cache(maxsize=32)
def _series_table(a: float, b: float, top: float, step: float):
    """The last term the series sums at ``|w|`` up to each radius ``r = j/8 <= 60``: the first
    ``n`` where three terms in a row of ``m_{n+1} = m_n |(n+top)/((n+b)(n+1))| r``, ``m_0 = 1``,
    are at most ``1e-16`` of their running bound ``1 + sum m_n``. Also the coefficients
    ``(n*step+a)/(n+b)`` and ``(n+top)/((n+b)(n+1))`` as complex ``(2, 1)`` columns."""
    r = np.arange(8.0 * _R + 1.0) / 8.0
    m, bound, loud = np.ones_like(r), np.ones_like(r), np.full(r.shape, -1)
    last = np.full(r.shape, -1, dtype=np.int16)       # loud: the last term failing the test
    for n in itertools.count():
        m *= abs((n + top) / ((n + b) * (n + 1.0))) * r
        bound += m
        np.putmask(loud, m > _TRUNC * bound, n)
        np.putmask(last, (loud == n - 3) & (last < 0), n)
        if last.min() >= 0:
            n = np.arange(n + 1.0)
            coefs = np.array([(n * step + a) / (n + b), (n + top) / ((n + b) * (n + 1.0))],
                             dtype=complex).T[:, :, None]
            last.flags.writeable = coefs.flags.writeable = False
            return last, coefs


def _series(a: float, b: float, top: float, step: float, w):
    """Sums of ``t_n`` and ``t_n (n*step+a)/(n+b)``, ``t_{n+1} = t_n (n+top)/((n+b)(n+1)) w``:
    ``1F1(a; b; w)`` and its derivative for ``top = a, step = 1``, and ``e^w`` times
    ``1F1(a; b; -w)`` and its derivative for ``top = b - a, step = 0`` (DLMF 13.2.39), each
    point to the last term :func:`_series_table` gives at its ``|w| <= 60``."""
    last, coefs = _series_table(a, b, top, step)
    last = last[np.ceil(8.0 * np.abs(w)).astype(int)]
    order = np.argsort(-last, kind="stable")
    sizes = np.searchsorted(-last[order], -np.arange(last.max(initial=-1) + 1), side="right")
    x, buf, k = w[order], np.zeros((5,) + w.shape, dtype=w.dtype), -1  # 2 sums, t_n, t_n * coefs
    buf[0] = buf[2] = 1.0
    for size, coef in zip(sizes.tolist(), coefs):
        if size != k:
            k, x, part = size, x[:size], buf[:, :size]
            sums, inc, term, scaled, lead = part[:2], part[2:4], part[2], part[3:], part[4]
        np.multiply(term, coef, out=scaled)
        np.multiply(lead, x, out=term)
        sums += inc
    out = np.empty((2,) + w.shape, dtype=w.dtype)
    out[0, order], out[1, order] = buf[:2]
    return out


def _large(params, z):
    """``1F1(a; b; z)`` at ``|z| > 60`` for each ``(a, b)`` in ``params``, DLMF 13.7.2 times
    ``Gamma(b)``: ``e^z z^(a-b) S1 / Gamma(a) + (-z)^-a S2 / Gamma(b-a)``, the sums of
    ``(1-a)_s (b-a)_s / s! z^-s`` and ``(a)_s (a-b+1)_s / s! (-z)^-s`` over ``s < 40``.
    :class:`DomainError` where a 40th term at ``|z| = 60`` exceeds ``1e-16``."""
    s = np.arange(1.0, _R_TERMS)
    ratios = np.array([[(s - a) * (s - 1.0 + b - a), -(s - 1.0 + a) * (s + a - b)]
                       for a, b in params]).reshape(-1, s.size) / s
    coef = np.cumprod(np.c_[np.ones(len(ratios)), ratios], axis=1)
    if np.abs(coef[:, -1]).max() > _TRUNC * _R ** (_R_TERMS - 1):
        raise DomainError(f"1F1 at {params} has no large-|z| expansion to double precision")
    u, e = np.tile(1.0 / z, len(ratios)), np.exp(z)
    acc, tmp = np.zeros((2, len(ratios), z.size), dtype=complex)
    for c in coef.T[::-1, :, None]:
        np.add(np.multiply(acc.ravel(), u, out=tmp.ravel()).reshape(acc.shape), c, out=acc)
    return np.array([_gamma_quotient([b], [a]) * e * z ** (a - b) * s1
                     + _gamma_quotient([b], [b - a]) * (-z) ** -a * s2
                     for (a, b), s1, s2 in zip(params, acc[::2], acc[1::2])])


def _gamma_param(alpha: float, beta: float) -> float:
    """``gamma = 1+alpha+beta``; the series has a pole where ``1+gamma <= 0`` is an integer."""
    g = 1.0 + alpha + beta
    if _is_nonpositive_integer(g + 1.0):
        raise PoleError(f"hyp1f1_M: parameter gamma = {g} is a negative integer")
    return g


def hyp1f1_M(alpha: float, beta: float, z):
    """Confluent-hypergeometric family ``M_{alpha,beta}(z)``.

    Defined by the normalized series with coefficient ratio
    ``(n+1+alpha)/((n+1+gamma)(n+1))`` where ``gamma = 1+alpha+beta``, that is
    ``1F1(1+alpha; 1+gamma; z)``; the value at 0 is 1. The special case ``(1/2, -3/2)``
    is the kernel of the circle scaling limits. Past ``|z| = 60`` :func:`_large`, below
    it the series, at ``Re z < 0`` of Kummer's ``e^z 1F1(b-a; b; -z)`` (DLMF 13.2.39).
    Both cancel ``e^(|z| - |Re z|)`` ulps; where that exceeds ``e^6``, :class:`DomainError`.
    Keeps the dtype of ``z`` and raises as :func:`big_m_pair` and :func:`_large` do.
    """
    g = _gamma_param(alpha, beta)
    a, b, z = 1.0 + alpha, 1.0 + g, _finite(z)
    bad = z[(np.abs(z) <= _R) & (np.abs(z) - np.abs(z.real) > _CANCEL)]
    if bad.size:
        raise DomainError(f"hyp1f1_M: its series cancel past e^{_CANCEL:g} ulps at {bad[0]}")
    val, = _evaluate("hyp1f1_M", z, (np.abs(z) <= _R) * (1 + (z.real < 0.0)), (
        lambda x: _large([(a, b)], x), lambda x: _series(a, b, a, 1.0, x)[:1],
        lambda x: (np.exp(x) * _series(a, b, b - a, 0.0, -x)[0])[None]), 1)
    return val.item() if val.ndim == 0 else val


def _m_pair_integral(z):
    """``(M(z), M'(z))`` for ``M = 1F1(3/2; 1; z)`` by the midpoint rule in ``theta``.

    With ``c = cos^2(theta/2)``, DLMF 13.4.1 and ``M = 1F1(1/2; 1) + 2z 1F1'(1/2; 1)``
    give ``M = (1/pi) int_0^pi e^{zc} (1 + 2zc) dtheta``. Adding the derivative of
    ``sin(theta) (1 + c + c^2 + c^3) e^{zc}`` (integral 0) makes the integrand
    ``e^{zc} (8c^4 - c^3 - c^2 - c + 2zc^5)``, which does not cancel at ``c = 0`` when
    ``Re z < 0``; ``M'`` integrates its ``z``-derivative. The error falls geometrically
    in the node count (Trefethen & Weideman, SIAM Rev. 56 (2014)), here ``|z|/2 +
    3 sqrt(|z|/2 + 1) + 14`` at the point's own ``|z|`` up to a multiple of 8.
    """
    r = np.abs(z)
    k = -(-(r / 2.0 + 3.0 * np.sqrt(r / 2.0 + 1.0) + 14.0).astype(int) // 8) * 8
    m, d = np.empty_like(z), np.empty_like(z)
    for nodes in range(k.min(), k.max() + 1, 8):
        c = np.cos((np.arange(nodes) + 0.5) * (0.5 * math.pi / nodes)) ** 2
        base, top = c * (((8.0 * c - 1.0) * c - 1.0) * c - 1.0), 2.0 * c ** 5
        idx = np.flatnonzero(k == nodes)
        for lo in range(0, idx.size, 16384 // nodes):    # (points x nodes) arrays of 256 KB
            sel = idx[lo:lo + 16384 // nodes]
            x = z[sel, None]
            e = np.exp(x * c)
            f = (x * top + base) * e      # the integrand of M; that of M' is c f + 2c^5 e
            m[sel], d[sel] = f.sum(axis=-1), (f * c + e * top).sum(axis=-1)
    return np.stack((m, d)) / k


def big_m_pair(z):
    """``(M(z), M'(z))`` for ``M = M_{1/2,-3/2} = 1F1(3/2, 1; z)``, vectorized.

    Each point takes a route by its own ``z``, so its values do not depend on the other points
    of the call: past ``|z| = 60`` :func:`_large` (``M' = (3/2) 1F1(5/2; 2; z)``); below, where
    ``|z| - Re z <= 6``, the series (it sums terms up to ``e^{|z|}`` to a value near ``e^{Re z}``;
    at most 137 terms), elsewhere :func:`_m_pair_integral` (at most 64 nodes). Within 1e-12
    relative of a 40-digit oracle on ``|z| <= 1e5``.

    A complex ``z`` gives complex values, any other float64 ones (Python scalars for a
    scalar ``z``), bit for bit the real parts of the values at ``z + 0j``. A non-finite
    ``z`` raises :class:`DomainError`, and one where ``M`` or ``M'`` leaves the double
    range (``Re z`` near 709) :class:`InfiniteValueError`.
    """
    z = _finite(z)
    r = np.abs(z)
    m_val, d_val = _evaluate("big_m_pair", z, (r <= _R) * (1 + (r - z.real > _CANCEL)), (
        lambda x: _large([(1.5, 1.0), (2.5, 2.0)], x) * [[1.0], [1.5]],
        lambda x: _series(1.5, 1.0, 1.5, 1.0, x), _m_pair_integral), 2)
    return (m_val.item(), d_val.item()) if z.ndim == 0 else (m_val, d_val)


def e_gamma(g: float, tau) -> complex:
    """``(1+g) \\int_0^1 x^g e^{tau x} dx = 1F1(1+g; 2+g; tau)`` (DLMF 13.4.1),
    normalized so the value at 0 is 1."""
    if g <= -1.0:
        raise DomainError(f"e_gamma requires g > -1, got {g}")
    return hyp1f1_M(g, 0.0, complex(tau))


def e_pair(a1: float, b1: float, a2: float, b2: float, t1, t2) -> complex:
    """``(1+g) \\int_0^1 x^g M_{a1,b1}(t1 x) M_{a2,b2}(t2 x) dx``, ``g = 2+a1+b1+a2+b2``.

    Both factors are their series in :func:`hyp1f1_M`, integrated term by
    term: ``(1+g) sum_{m,n} c1_m c2_n t1^m t2^n / (1+g+m+n)`` over ``m, n <
    48``. For ``|t1|, |t2| <= 2`` the dropped terms are negligible and the
    cancellation at a negative ``t`` is at most a factor ``e^4``; the value
    was within 1e-14 relative of a 30-digit mpmath integral there. A larger
    ``|t|`` raises :class:`DomainError`.
    """
    g = 2.0 + a1 + b1 + a2 + b2
    if g <= -1.0:
        raise DomainError(f"e_pair requires 2+a1+b1+a2+b2 > -1, got {g}")
    t1, t2 = complex(t1), complex(t2)
    if max(abs(t1), abs(t2)) > _E_PAIR_RADIUS:
        raise DomainError(f"e_pair requires |t1|, |t2| <= {_E_PAIR_RADIUS}, got {t1}, {t2}")

    def terms(alpha, beta, t):          # c_n t^n, from the series' term ratio
        k = np.arange(1.0, _E_PAIR_TERMS)
        return np.cumprod(np.r_[1.0, (k + alpha) * t / ((k + _gamma_param(alpha, beta)) * k)])

    n = np.arange(_E_PAIR_TERMS)
    inv = 1.0 / (1.0 + g + np.add.outer(n, n))
    return complex((1.0 + g) * (terms(a1, b1, t1) @ inv @ terms(a2, b2, t2)))


def omega(lam: float, tau) -> float:
    """Exponential damping factor ``min(1, e^{-Re(tau)/lam})``, a numpy
    scalar for a scalar ``tau``.

    At ``lam = 0`` this degenerates to the characteristic function of the
    closed half-plane ``Re(tau) <= 0`` (closed unit disk after the change of
    variables that produces it).
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"omega requires lam in [0, 1], got {lam}")
    re = np.real(tau)
    if lam == 0.0:
        return np.where(re <= 0.0, 1.0, 0.0)[()]
    return np.exp(np.maximum(re, 0.0) / -lam)[()]


def iota(z):
    """``i sgn(Im z)``: the phase attached to conjugating a nonreal argument.
    A complex for a scalar ``z``, an array for an array."""
    phase = 1j * np.sign(np.imag(z))
    return complex(phase) if np.ndim(phase) == 0 else phase
