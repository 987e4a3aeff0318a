"""Skew-symmetric bilinear form, Gram matrix, and the volume identity.

The form splits into a real part (a double integral against ``sgn(y - x)``,
reduced to one dimension through the eps antiderivative) and a complex part
(an area integral of ``Im(conj(f) g)`` against the squared weight over the
upper half-plane). Each part of a monomial pair, and their sum (the region
``"all"``, which the Gram matrix and :func:`bilinear` read), is a closed form
from :func:`mahler.polys.region_moments`, the tables that the expected root
counts also read. Polynomials are handled by bilinearity.
The Pfaffian of the Gram matrix (bordered by the line masses at odd ``N``)
equals a finite rational product in ``s`` — the star-body volume, up to the
factor ``2/(N+1)``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, IntegrabilityError
from .kernel import EnsembleParams, pfaffian
from .polys import PolyCoeffs, _eps_consts, region_moments


def monomial_moment(a, b, s: float):
    """Skew product of ``z^a`` against ``z^b``, any parities: for even ``e``
    and odd ``o``, ``4 (s/(s-o-1)) / ((e+1)(o-e))``, the prefactor 1 at ``s =
    inf``. Same-parity products vanish identically."""
    return _region_part(a, b, s, ("all",))


def gram_matrix(N: int, s: float) -> np.ndarray:
    """Gram matrix of the monomials ``z^0 .. z^{N-1}`` under the skew form:
    the moment table, exactly antisymmetric, bordered at odd ``N`` by the
    column ``b_j = int x^j w dx`` (twice ``G_j(inf)`` of
    :func:`mahler.polys.eps_monomials` at even ``j``, 0 at odd ``j``) and the
    row ``-b``. A monic family ``p_n = sum_k C_nk z^k`` has the Gram matrix
    ``C U C^T``, and ``det C = 1`` gives ``Pf(C U C^T) = Pf U``: this table
    serves every monic family."""
    N = EnsembleParams(N, s).N
    U = monomial_moment(np.arange(N)[:, None], np.arange(N), s)
    if N % 2 == 0:
        return U
    _, _, g_inf, even = _eps_consts(np.arange(N), s)    # odd j + 1: even j
    b = 2.0 * np.where(even, g_inf, 0.0).ravel()
    return np.block([[U, b[:, None]], [-b, 0.0]])


def gram_pf(N: int, s: float) -> tuple[np.ndarray, float]:
    """Gram matrix and its Pfaffian."""
    G = gram_matrix(N, s)
    return G, float(pfaffian(G).real)


def chern_vaaler_f(N: int, s: float) -> float:
    """The rational product ``F(s)``; at ``s = inf`` the constant ``C_N``.

    ``F(s) = C_N prod_{j=0}^J s/(s - (N - 2j))`` with ``J = floor(N/2)`` and
    ``C_N = 2^N prod_{j=1}^J (2j/(2j+1))^{N-2j}``. Equals the Pfaffian of the
    Gram matrix of any monic family; ``(2/(N+1)) F((N+1)/lambda)`` is the
    volume of the degree-N star body at inverse radius ``lambda``.
    """
    J = EnsembleParams(N, s).N // 2
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
    if not (0 < lam < math.inf):
        raise DomainError(f"lam must be positive and finite, got {lam}")
    s = (N + 1) / lam
    return 2.0 * chern_vaaler_f(N, s) / (N + 1)


# ---------------------------------------------------------------------------
# the form of two polynomials: both parts as exact moment sums
# ---------------------------------------------------------------------------


def _region_part(a, b, s: float, regions):
    """Half the sum of the ``regions`` tables of
    :func:`mahler.polys.region_moments` at the pairs of ``z^a``, ``z^b`` with
    odd ``a - b``, read with ``e`` the even exponent and ``o`` the odd one;
    swapping a pair flips the sign, and same-parity pairs are 0. Vectorized
    over integer arrays ``a``, ``b``. An odd pair with ``2s <= e+o+2``, or for
    the real parts and the total with ``s <= o+1``, diverges and raises
    :class:`IntegrabilityError`."""
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    if (a < 0).any() or (b < 0).any():
        raise DomainError("exponent indices must be nonnegative")
    odd, swap = (a - b) % 2 == 1, a % 2 == 1
    e, o = np.where(swap, b, a)[odd], np.where(swap, a, b)[odd]
    # only the complex part alone converges for s <= o + 1
    bad = ~(2.0 * s > e + o + 2) | ((math.inf not in regions) & ~(s > o + 1))
    if bad.any():
        raise IntegrabilityError(f"z^{e[bad][0]} against z^{o[bad][0]} diverges at s={s}")
    val = np.zeros(a.shape)
    val[odd] = 0.5 * sum(region_moments(e, o, s, region) for region in regions)
    val[odd & swap] *= -1.0
    return float(val) if val.ndim == 0 else val


def real_moment(a, b, s: float):
    """Real part of the skew product of ``z^a`` against ``z^b``."""
    return _region_part(a, b, s, ("inside", "outside"))


def complex_moment(a, b, s: float):
    """Complex part of the skew product of ``z^a`` against ``z^b``: ``8
    mu/(b - a)`` for odd ``b - a``, with ``mu = 1/(a+b+2) + 1/(2s-a-b-2)``."""
    return _region_part(a, b, s, (math.inf,))


def _form(moment, f: PolyCoeffs, g: PolyCoeffs, s: float) -> float:
    """``sum_{a,b} f_a g_b moment(a, b, s)`` over the pairs with ``f_a g_b != 0``."""
    a, b = np.nonzero(fg := np.multiply.outer(f.coeffs, g.coeffs))
    return float(np.sum(fg[a, b] * moment(a, b, s)))


def bilinear_r(f: PolyCoeffs, g: PolyCoeffs, s: float) -> float:
    """Real part ``2 int f(x) w(x) eps(g w)(x) dx`` of the skew form."""
    return _form(real_moment, f, g, s)


def bilinear_c(f: PolyCoeffs, g: PolyCoeffs, s: float) -> float:
    """Complex part ``4 int_H Im(conj(f) g) max(1,|z|)^{-2s} dA`` of the skew form."""
    return _form(complex_moment, f, g, s)


def bilinear(f: PolyCoeffs, g: PolyCoeffs, s: float) -> float:
    """Full skew form of two polynomials: one contraction of the closed total,
    so a pair of monomials gives their :func:`gram_matrix` entry."""
    return _form(monomial_moment, f, g, s)
