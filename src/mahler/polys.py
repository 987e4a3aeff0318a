"""Polynomial layer: the two-parameter family ``P_n``, the skew-orthogonal
family ``pi_n``, weighted variants, closed-form eps-transforms, and norms.

``P_n^{a,b}(z) = sum_k c_k(a) c_{n-k}(b) z^k`` with ``c_x(a)`` the normalized
Gamma ratio of :func:`mahler.specfun.gamma_ratio`. The skew-orthogonal family
attached to the weight ``max(1,|x|)^{-s}`` is

* ``pi_{2n}(z)   = P_n^{1/2,-1/2}(z^2)`` (even, degree 2n),
* ``pi_{2n+1}(z) = (1/4s) sum_k (s-2k-2) c_k(1/2) c_{n-k}(-3/2) z^{2k+1}``
  (odd, degree 2n+1), where ``(s-2k-2)/s`` is read as 1 when s is infinite.

One builder, :func:`_p_table`, makes every coefficient: row ``j`` of its one
table per parameter pair is ``P_j``. ``p_poly`` and the ``pi`` cores read one
row, and the kernel's matrices per ``(N, s)`` are leading blocks.

The eps-transform ``eps f(y) = (1/2) int f(t) sgn(t-y) dt`` of a weighted
monomial has elementary closed forms on both sides of ``|y| = 1``; all
eps-evaluations here reduce to those, and so do the skew form's region
moment tables, :func:`region_moments`, read by the counts and the form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConditioningError, DomainError, IntegrabilityError
from .specfun import _finite, _gamma_quotient, gamma_ratio_table

_CLUSTER_TOL = 1e-6  # zero_check: closer roots are not simple; 10x it from 1 is at 1


@dataclass(frozen=True)
class PolyCoeffs:
    """Dense real polynomial, coefficients in ascending degree order."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise DomainError("empty coefficient list")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def roots(self) -> np.ndarray:
        """Read-only roots, as ``np.roots`` of the trimmed coefficients; a
        caller that has solved the polynomial may fill it in (``mc.sample``)."""
        c = np.trim_zeros(_finite(np.asarray(self.coeffs, dtype=float)), trim="b")
        if c.size == 0:
            raise DomainError("roots of the zero polynomial")
        roots = np.roots(c[::-1])
        roots.flags.writeable = False
        return roots

    def __call__(self, z):
        """Horner evaluation by numpy's ``polyval``; accepts scalars or arrays."""
        return np.polynomial.polynomial.polyval(np.asarray(z), self.coeffs)[()]


def _degree(n, name: str = "n") -> int:
    """``n`` as an int; :class:`DomainError` unless a nonnegative integer, not bool."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {n!r}")
    return int(n)


@lru_cache(maxsize=8)
def _grown(alpha: float, beta: float) -> list:
    """The one table of a parameter pair, as a list :func:`_p_table` refills."""
    return [np.zeros((0, 0))]


def _p_table(n: int, alpha: float, beta: float) -> np.ndarray:
    """Coefficients of ``P_j^{alpha,beta}`` for ``j = 0..n``: row ``j`` holds
    ``c_k(alpha) c_{j-k}(beta)`` in column ``k <= j``, zeros above. No entry
    depends on ``n``: a read-only view of the largest table built."""
    held = _grown(alpha, beta)
    if len(held[0]) <= _degree(n):
        ca = gamma_ratio_table(n, alpha)
        cb = gamma_ratio_table(n, beta)
        # row j of the lower-triangular Toeplitz view is c_{j-k}(beta), k <= j
        toeplitz = sliding_window_view(np.concatenate([cb[::-1], np.zeros(n)]), n + 1)[::-1]
        held[0] = toeplitz * ca
        held[0].flags.writeable = False
    return held[0][:n + 1, :n + 1]


def p_poly(n: int, alpha: float, beta: float) -> PolyCoeffs:
    """Coefficients of ``P_n^{alpha,beta}``."""
    if math.isnan(alpha) or math.isnan(beta):
        raise DomainError(f"alpha and beta must not be NaN, got {alpha}, {beta}")
    return PolyCoeffs(tuple(_p_table(n, alpha, beta)[n]))


def p_eval(n: int, alpha: float, beta: float, z):
    """Evaluate ``P_n^{alpha,beta}(z)`` by the recurrence of :func:`p_eval_sequence`."""
    return p_eval_sequence(_degree(n) + 1, alpha, beta, z)[n]


def p_eval_sequence(count: int, alpha: float, beta: float, z) -> np.ndarray:
    """Stack ``[P_0(z), ..., P_{count-1}(z)]`` along a new leading axis.

    Three-term recurrence: ``P_0 = 1``, ``P_1 = (1+beta) + (1+alpha) z`` and
    for ``n >= 2``
    ``P_n = [((n+alpha)/n) z + (n+beta)/n] P_{n-1} - ((n+alpha+beta)/n) z P_{n-2}``.
    """
    if _degree(count, "count") < 1:
        raise DomainError(f"count must be positive, got {count}")
    if math.isnan(alpha) or math.isnan(beta):
        raise DomainError(f"alpha and beta must not be NaN, got {alpha}, {beta}")
    z = _finite(np.asarray(z, dtype=complex))
    out = np.empty((count,) + z.shape, dtype=complex)
    p_prev = np.ones_like(z)
    out[0] = p_prev
    if count == 1:
        return out
    p = (1.0 + beta) + (1.0 + alpha) * z
    out[1] = p
    for k in range(2, count):
        p, p_prev = (((k + alpha) / k) * z + (k + beta) / k) * p \
            - ((k + alpha + beta) / k) * z * p_prev, p
        out[k] = p
    return out


# ---------------------------------------------------------------------------
# skew-orthogonal family
# ---------------------------------------------------------------------------


def pi_even_core(n: int) -> np.ndarray:
    """Coefficients of ``pi_{2n}`` in ``t = z^2`` (length n+1), read-only."""
    return _p_table(n, 0.5, -0.5)[n]


def _odd_factor(n: int, s: float):
    """The column factors ``(s-2k-2)/(4s)``, ``k = 0..n`` (``1/4`` at ``s =
    inf``), that turn the ``P^{1/2,-3/2}`` table into the cores of
    ``pi_{2j+1}/z`` in ``t = z^2``."""
    if not (s > 0):
        raise DomainError("pi_pair requires s > 0")
    k = np.arange(n + 1, dtype=float)
    return 0.25 if math.isinf(s) else (s - 2.0 * k - 2.0) / (4.0 * s)


def pi_odd_core(n: int, s: float) -> np.ndarray:
    """Coefficients of ``pi_{2n+1}/z`` in ``t = z^2`` (length n+1)."""
    return _p_table(n, 0.5, -1.5)[n] * _odd_factor(n, s)


def pi_pair(n: int, s: float) -> tuple[PolyCoeffs, PolyCoeffs]:
    """The skew-orthonormal pair ``(pi_{2n}, pi_{2n+1})`` as dense polynomials."""
    even_core = pi_even_core(n)
    odd_core = pi_odd_core(n, s)
    even = np.zeros(2 * n + 1)
    even[::2] = even_core
    odd = np.zeros(2 * n + 2)
    odd[1::2] = odd_core
    return PolyCoeffs(tuple(even)), PolyCoeffs(tuple(odd))


def weight(s: float, z):
    """The ensemble weight ``max(1, |z|)^{-s}`` (vectorized, s may be inf)."""
    if math.isnan(s):
        raise DomainError("the weight's s must not be NaN")
    if math.isinf(s):
        return np.where(np.abs(z) <= 1.0 + 1e-15, 1.0, 0.0)
    return np.maximum(1.0, np.abs(z)) ** (-s)


# ---------------------------------------------------------------------------
# eps-transforms
# ---------------------------------------------------------------------------


def eps_monomials(degrees, s: float, y) -> np.ndarray:
    """``eps(x^m max(1,|x|)^{-s})(y)`` for each ``m`` in ``degrees``, real ``y``.

    Stacked along a new leading axis; requires ``s > m + 1`` for every ``m``.
    With ``G_m(t) = int_0^t x^m max(1,x)^{-s} dx`` the transform is
    ``-sgn(y) G_m(|y|)`` for even ``m`` (the half-line masses cancel) and
    ``G_m(inf) - G_m(|y|)`` for odd ``m``. A non-finite ``y`` raises
    :class:`DomainError`.
    """
    if np.iscomplexobj(y):
        raise DomainError("eps transforms take real points")
    m = np.asarray(degrees, dtype=int)
    if not math.isinf(s) and m.size and s <= m.max() + 1:
        bad = int(m[m + 1 >= s][0])
        raise IntegrabilityError(f"eps of x^{bad} requires s > {bad + 1}, got {s}")
    y = _finite(np.asarray(y, dtype=float))
    return _eps_at(_eps_consts(m.ravel(), s), y.ravel()).reshape(m.shape + y.shape)


def _eps_consts(m, s: float):
    """The point-free columns of :func:`eps_monomials` at the 1-D degrees
    ``m``: ``e = m+1``, ``e - s`` (None at ``s = inf``), ``G_m(inf)``, odd ``e``."""
    e = (m + 1).astype(float)[:, None]
    es = None if math.isinf(s) else e - s
    return e, es, 1.0 / e if es is None else 1.0 / e + 1.0 / (s - e), e % 2 == 1


def _eps_at(consts, y) -> np.ndarray:
    """:func:`eps_monomials` at the 1-D real points ``y``, not checked."""
    e, es, g_inf, odd = consts
    t = np.abs(y)
    g = np.minimum(t, 1.0) ** e / e
    if es is not None:
        g = g + (np.maximum(t, 1.0) ** es - 1.0) / es
    return np.where(odd, -np.sign(y) * g, g_inf - g)


def region_moments(e, o, s: float, region):
    """Twice a part of the skew form of ``x^e`` (even ``e``) against ``x^o``
    (odd ``o``), broadcast over integer arrays ``e``, ``o``: the real-line
    part over [-1, 1] (``region = 'inside'``) or beyond (``'outside'``), the
    non-real part within ``|z| < r`` (``region = r``, ``inf`` allowed), or
    the whole form in closed form (``region = 'all'``).

    Write ``a = e+1``, ``b = o+1``, ``n = a+b`` and ``t = 1/(s-b)`` (0 at
    ``s = inf``). The real part of the form is the integral over the line of
    ``d = x^e w eps(x^o w) - x^o w eps(x^e w)``. By :func:`eps_monomials` the
    eps rows are ``G_o(inf) - G_o(|x|)`` and ``-sgn(x) G_e(|x|)``, so ``d``
    is even, and twice its integral is ``4 (2/n + t)/a`` over [-1, 1] and
    ``4 (2/(2s-n) + 1/a) t`` over ``|x| > 1``. The complex part is ``4 int_H
    Im(conj(z^e) z^o) w^2 dA``. With ``z = r e^{i theta}`` and ``int_0^pi
    sin(m theta) d theta = 2/m`` for odd ``m``, twice its part within
    ``|z| < r`` is ``-16 mu_n/(a-b)`` with ``mu_n = int_0^r w(r)^2 r^{n-1}
    dr``. The two real parts and the complex part at ``r = inf`` add up to
    ``8 (s/(s-b))/(a (b-a))``, with ``s/(s-b)`` read as 1 at ``s = inf``. The
    real parts and the whole form need ``s > b`` and ``2s > n``, the complex
    part ``2s > n`` when ``r > 1``; ``s > N`` gives both for the degree-N
    counts, and :mod:`mahler.volume` checks them for the skew form.
    """
    a, b = e + 1.0, o + 1.0
    if region == "all":
        return 8.0 * (1.0 if math.isinf(s) else s / (s - b)) / (a * (b - a))
    n, t = a + b, 1.0 / (s - b)
    if region == "inside":
        return 4.0 * (2.0 / n + t) / a
    if region == "outside":
        return 4.0 * (2.0 / (2.0 * s - n) + 1.0 / a) * t
    mu = min(region, 1.0) ** n / n
    if region > 1.0 and not math.isinf(s):
        mu = mu + (1.0 - region ** (n - 2.0 * s)) / (2.0 * s - n)
    return -16.0 * mu / (a - b)


def eps_pi(kind: str, n: int, s: float, y):
    """Closed-form ``eps`` of the weighted skew-orthogonal polynomials.

    ``kind='even'`` gives ``eps(pi_{2n} w)(y)`` (equal to
    ``-y P_n^{-1/2,-1/2}(y^2)`` inside [-1, 1]); ``kind='odd'`` gives
    ``eps(pi_{2n+1} w)(y)``. Vectorized over real ``y``; the :func:`eps_poly`
    of the member of :func:`pi_pair`.
    """
    if kind not in ("even", "odd"):
        raise DomainError(f"kind must be 'even' or 'odd', got {kind!r}")
    return eps_poly(pi_pair(n, s)[kind == "odd"].coeffs, s, y)


def eps_poly(coeffs, s: float, y):
    """``eps`` of a general weighted real polynomial given ascending coeffs."""
    coeffs = np.asarray(coeffs, dtype=float)
    degrees = np.flatnonzero(coeffs)
    return np.tensordot(coeffs[degrees], eps_monomials(degrees, s, y), axes=1)[()]


def s_norm(n: int, s: float) -> float:
    """Skew norm ``s_{2n}`` of the even family member (2 when s is infinite)."""
    n = _degree(n)
    if math.isinf(s):
        return 2.0
    if not (s > 2 * n + 1):
        raise DomainError(f"s_norm requires s > {2*n+1}, got {s}")
    return 2.0 * _gamma_quotient(((s + 2.0) / 2.0, (s - 2.0 * n - 1.0) / 2.0),
                                 ((s + 1.0) / 2.0, (s - 2.0 * n) / 2.0))


# ---------------------------------------------------------------------------
# zero behavior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroReport:
    order_at_1: int
    expected_order_at_1: int
    all_simple_away_from_1: bool
    location_class: str          # "disk_union_one" | "unit_circle" | "unclassified"
    location_ok: bool
    max_residual: float
    roots: tuple[complex, ...]


def _forced_order_at_1(n: int, alpha: float, beta: float, tol: float = 1e-9) -> int:
    """Order m >= 1 with m + 1 + alpha + beta = 0, capped at n; else 0."""
    m = -(1.0 + alpha + beta)
    if m >= 1.0 - tol and abs(m - round(m)) < tol:
        return min(n, int(round(m)))
    return 0


def zero_check(n: int, alpha: float, beta: float) -> ZeroReport:
    """Root locations of ``P_n^{alpha,beta}`` against their predicted behavior.

    Computes companion-matrix roots, counts the multiplicity of the root
    cluster at 1, checks simplicity elsewhere, and classifies the location:
    ``alpha > beta`` with ``2+alpha+beta > 0`` (or a forced integer-order root
    at 1) puts all zeros in the closed unit disk together with 1;
    ``alpha == beta`` with ``3+2*alpha > 0`` (or an even forced order at 1)
    puts them on the unit circle.
    """
    if n > 64:
        raise DomainError("zero_check limited to n <= 64 in double precision")
    poly = p_poly(n, alpha, beta)
    coeffs = np.asarray(poly.coeffs)
    roots = poly.roots
    scale = np.max(np.abs(coeffs))
    residuals = np.abs(poly(roots)) / (scale * np.maximum(1.0, np.abs(roots)) ** n)
    max_res = float(np.max(residuals)) if len(roots) else 0.0
    if max_res > 1e-6:
        raise ConditioningError(f"root residual {max_res:.3e} exceeds 1e-6")

    at_one = np.abs(roots - 1.0) < 10.0 * _CLUSTER_TOL
    order_at_1 = int(np.sum(at_one))
    others = roots[~at_one]
    gaps = np.abs(np.subtract.outer(others, others))[np.triu_indices(len(others), 1)]
    simple = not np.any(gaps < _CLUSTER_TOL)

    expected = _forced_order_at_1(n, alpha, beta)
    forced = expected > 0
    if alpha > beta and (2.0 + alpha + beta > 0 or forced):
        cls = "disk_union_one"
        ok = bool(np.all(np.abs(roots) <= 1.0 + 1e-6))
    elif alpha == beta and (3.0 + 2.0 * alpha > 0
                            or (forced and expected % 2 == 0)):
        cls = "unit_circle"
        ok = bool(np.all(np.abs(np.abs(roots) - 1.0) <= 1e-6))
    else:
        cls = "unclassified"
        ok = True
    return ZeroReport(order_at_1, expected, simple, cls, ok, max_res,
                      tuple(roots))
