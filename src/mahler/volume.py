"""Skew-symmetric bilinear form, Gram matrix, and the volume identity.

The form splits into a real part (a double integral against ``sgn(y - x)``,
reduced to one dimension through the eps antiderivative, by quadrature) and a
complex part (an area integral of ``Im(conj(f) g)`` against the squared weight
over the upper half-plane, in closed form). Monomial moments have closed
forms, checked by the real part's quadrature; general monic bases are handled
by bilinearity. The Pfaffian of the Gram matrix equals a finite rational
product in ``s`` — the star-body volume, up to the factor ``2/(N+1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrabilityError
from .kernel import pfaffian
from .polys import PolyCoeffs, eps_poly, weight
from .quadrature import _check_quad, adaptive, halfline


def skew_moment(n, m, s: float):
    """Skew product of ``z^{2n}`` against ``z^{2m+1}`` (both parts combined).

    ``(s/(s - 2m - 2)) / ((n + 1/2)(m - n + 1/2))``; the prefactor is 1 at
    ``s = inf``. Same-parity products vanish identically. Vectorized over
    integer arrays ``n``, ``m``.
    """
    n, m = np.asarray(n), np.asarray(m)
    if (n < 0).any() or (m < 0).any():
        raise DomainError("exponent indices must be nonnegative")
    if m.size and not (s > 2 * m.max() + 2):
        raise DomainError(f"requires s > 2m+2 = {2 * m.max() + 2}, got s={s}")
    pref = 1.0 if math.isinf(s) else s / (s - 2 * m - 2)
    val = pref / ((n + 0.5) * (m - n + 0.5))
    return float(val) if val.ndim == 0 else val


def monomial_moment(a, b, s: float):
    """Skew product of ``z^a`` against ``z^b`` for arbitrary parities;
    vectorized over integer arrays ``a``, ``b``."""
    a, b = np.broadcast_arrays(a, b)
    odd, swap = (a - b) % 2 == 1, a % 2 == 1
    val = np.zeros(a.shape)
    val[odd] = skew_moment(np.where(swap, b, a)[odd] // 2,      # the even exponent 2n
                           np.where(swap, a, b)[odd] // 2, s)   # the odd one 2m + 1
    val[odd & swap] *= -1.0                                     # a swap flips the sign
    return float(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class GramMatrix:
    N: int
    s: float
    entries: np.ndarray
    basis: tuple[PolyCoeffs, ...]


def _monomial_basis(N: int) -> tuple[PolyCoeffs, ...]:
    return tuple(PolyCoeffs((0.0,) * n + (1.0,)) for n in range(N))


def gram_matrix(N: int, s: float, basis=None) -> GramMatrix:
    """Gram matrix of a monic family under the skew form, by bilinearity."""
    if N % 2 != 0 or N < 2:
        raise DomainError("Gram matrix requires even positive N")
    if not s > N:
        raise DomainError(f"requires s > N, got s={s}")
    if basis is None:
        basis = _monomial_basis(N)
    basis = tuple(basis)
    if len(basis) != N:
        raise DomainError("basis must contain N polynomials")
    for n, p in enumerate(basis):
        if p.degree != n or abs(p.coeffs[-1] - 1.0) > 1e-12:
            raise DomainError(f"basis element {n} is not monic of degree {n}")
    # moment table <z^a | z^b> for a, b < N
    M = monomial_moment(np.arange(N)[:, None], np.arange(N), s)
    C = np.zeros((N, N))
    for n, p in enumerate(basis):
        C[n, :len(p.coeffs)] = p.coeffs
    U = C @ M @ C.T
    U = 0.5 * (U - U.T)       # exact antisymmetry
    return GramMatrix(N, s, U, basis)


def gram_pf(N: int, s: float, basis=None) -> tuple[GramMatrix, float]:
    """Gram matrix and its Pfaffian."""
    G = gram_matrix(N, s, basis)
    return G, float(pfaffian(G.entries).real)


def chern_vaaler_f(N: int, s: float) -> float:
    """The rational product ``F(s)``; at ``s = inf`` the constant ``C_N``.

    ``F(s) = C_N prod_{j=0}^J s/(s - (N - 2j))`` with ``J = floor(N/2)`` and
    ``C_N = 2^N prod_{j=1}^J (2j/(2j+1))^{N-2j}``. Equals the Pfaffian of the
    Gram matrix of any monic family; ``(2/(N+1)) F((N+1)/lambda)`` is the
    volume of the degree-N star body at inverse radius ``lambda``.
    """
    if N < 1:
        raise DomainError("N must be positive")
    if not s > N:
        raise DomainError(f"requires s > N, got s={s}")
    J = N // 2
    c = 2.0 ** N
    for j in range(1, J + 1):
        c *= (2.0 * j / (2.0 * j + 1.0)) ** (N - 2 * j)
    if math.isinf(s):
        return c
    prod = 1.0
    for j in range(J + 1):
        if N - 2 * j == 0:
            continue
        prod *= s / (s - (N - 2 * j))
    return c * prod


def volume_ball(N: int, lam: float) -> float:
    """Volume of the star body of degree-N polynomials at inverse radius
    ``lam``: ``(2/(N+1)) F((N+1)/lam)``."""
    if lam <= 0:
        raise DomainError("lam must be positive")
    s = (N + 1) / lam
    return 2.0 * chern_vaaler_f(N, s) / (N + 1)


# ---------------------------------------------------------------------------
# the form of two polynomials: real part by quadrature (oracle route), complex part exact
# ---------------------------------------------------------------------------


def bilinear_r(f: PolyCoeffs, g: PolyCoeffs, s: float, tol: float = 1e-10) -> float:
    """Real part of the skew form: ``2 int f~(x) (eps g~)(x) dx``.

    The double integral against ``sgn(y - x)`` collapses to one dimension via
    the eps antiderivative of the weighted polynomial. An overflow of the
    monomial basis (N = 128) raises :class:`QuadratureError`, not a warning.
    """
    def simple(x):
        xv = np.asarray(x, dtype=float)
        return 2.0 * f(xv) * weight(s, xv) * eps_poly(g.coeffs, s, xv)

    with np.errstate(over="ignore", invalid="ignore"):
        total, toterr = adaptive(simple, -1.0, 1.0, tol=tol)
        if not math.isinf(s):
            v1, e1 = halfline(simple, 1.0, tol=tol)
            v2, e2 = halfline(lambda x: simple(-x), 1.0, tol=tol)
            total, toterr = total + (v1 + v2), toterr + e1 + e2
    _check_quad(total, toterr)
    return total


def complex_moment(a, b, s: float):
    """Complex part of the skew product of ``z^a`` against ``z^b``: ``8 mu/(b - a)``
    for odd ``b - a``, 0 for even, with ``mu = 1/(a+b+2) + 1/(2s-a-b-2)`` (no
    second term at ``s = inf``). An odd pair with ``2s <= a+b+2`` diverges and
    raises :class:`IntegrabilityError`. Vectorized over integer arrays."""
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    if (a < 0).any() or (b < 0).any():
        raise DomainError("exponent indices must be nonnegative")
    odd = (b - a) % 2 == 1
    n = (a + b)[odd] + 2.0
    if not math.isinf(s) and (2.0 * s <= n).any():
        raise IntegrabilityError(f"complex moments need s > {n.max() / 2}, got {s}")
    val = np.zeros(a.shape)
    val[odd] = 8.0 * (1.0 / n + (0.0 if math.isinf(s) else 1.0 / (2.0 * s - n))) / (b - a)[odd]
    return float(val) if val.ndim == 0 else val


def bilinear_c(f: PolyCoeffs, g: PolyCoeffs, s: float) -> float:
    """Complex part ``4 int_H Im(conj(f) g) max(1,|z|)^{-2s} dA``: ``sum_{a,b}
    f_a g_b complex_moment(a, b, s)`` over the pairs with ``f_a g_b != 0``."""
    a, b = np.nonzero(fg := np.multiply.outer(f.coeffs, g.coeffs))
    return float(np.sum(fg[a, b] * complex_moment(a, b, s)))


def bilinear(f: PolyCoeffs, g: PolyCoeffs, s: float, tol: float = 1e-10) -> float:
    """Full skew form: the real part by quadrature to ``tol``, the complex exact."""
    return bilinear_r(f, g, s, tol) + bilinear_c(f, g, s)
