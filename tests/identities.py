"""Finite Gamma identities, each with the sum side and the closed side
implemented independently (scipy log-Gamma only), for randomized checking;
the 2-D quadrature of the pair density, the second route of the
closed-form non-real root count; the block matrix of a correlation
assembled pair by pair, the second route of ``kernel.correlation``; and
the circle weight ``Lambda`` pointwise from Gauss hypergeometric functions
(DLMF 15), the second route of its Fourier coefficients
``limits._lambda_fourier``; and the +-1 limit handle on the full complex
grid, the second route of ``limits.xi_handle``'s real half-grid."""

import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, gammaln, rgamma

from mahler.errors import DomainError, InfiniteValueError, PoleError
from mahler.kernel import EnsembleParams, _is_real_arg, intensity_complex, matrix_kernel
from mahler.limits import _entries, _unit_nodes, _xi_side
from mahler.quadrature import _check_quad, adaptive, halfline, leg_nodes
from mahler.specfun import _gamma_quotient, _is_nonpositive_integer


class DivergenceError(ArithmeticError):
    """The ``hyp2f1`` series was requested where it does not converge."""


def _gamma(x: float) -> float:
    return math.gamma(x)


def partial_fraction_sum(n: int, a: float, b: float, x: float):
    """Sum and rational-product sides of the partial-fraction identity
    ``sum_k [G(k+a)G(n-k+b)/(G(k+1)G(n-k+1))] prod_j (j-b)/(j+a-1)
    / (x-k+b) / (G(a)G(b)) = x(x-1)...(x-n+1)/((x+b)...(x+b-n))``."""
    total = 0.0
    prod = 1.0
    for k in range(n + 1):
        if k > 0:
            prod *= (k - b) / (k + a - 1.0)
        total += (_gamma(k + a) * _gamma(n - k + b)
                  / (_gamma(k + 1) * _gamma(n - k + 1))) \
            * prod / (x - k + b)
    lhs = total / (_gamma(b) * _gamma(a))
    num = 1.0
    for j in range(n):
        num *= x - j
    den = 1.0
    for j in range(n + 1):
        den *= x + b - j
    return lhs, num / den


def alternating_binomial_sum(big_m: int, x: float, y: float):
    """Sum and closed sides of
    ``sum_m (-1)^m C(M,m) G(m+x)/G(m+x+y) = G(x)G(M+y)/(G(y)G(M+x+y))``."""
    total = 0.0
    for m in range(big_m + 1):
        total += (-1) ** m * math.comb(big_m, m) \
            * math.exp(gammaln(m + x) - gammaln(m + x + y))
    rhs = math.exp(gammaln(x) + gammaln(big_m + y)
                   - gammaln(y) - gammaln(big_m + x + y))
    return total, rhs


def power_sum_integral(big_n: int, gamma: float, eta: float):
    """Sum side of
    ``G(N)/G(N+1+gamma) sum_n G(n+1+gamma)/G(n+1) (1+eta)^n`` and the
    integral side ``int_0^1 x^gamma (1+eta x)^{N-1} dx``."""
    total = 0.0
    for n in range(big_n):
        total += math.exp(gammaln(n + 1 + gamma) - gammaln(n + 1)) \
            * (1.0 + eta) ** n
    lhs = math.exp(gammaln(big_n) - gammaln(big_n + 1 + gamma)) * total
    rhs, _ = quad(lambda t: t ** gamma * (1.0 + eta * t) ** (big_n - 1),
                  0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    return lhs, rhs


def half_integer_convolution(big_m: int, x: float):
    """Sum and closed sides of
    ``sum_m G(m+1/2)G(M-m+1+x)/(G(m+1)G(M-m+5/2+x))
    = 4/(2M+3+2x) G(M+3/2)G(1+x)/(G(M+1)G(3/2+x))``."""
    total = 0.0
    for m in range(big_m + 1):
        total += math.exp(gammaln(m + 0.5) - gammaln(m + 1)
                          + gammaln(big_m - m + 1 + x)
                          - gammaln(big_m - m + 2.5 + x))
    rhs = 4.0 / (2 * big_m + 3 + 2 * x) \
        * math.exp(gammaln(big_m + 1.5) - gammaln(big_m + 1)
                   + gammaln(1 + x) - gammaln(1.5 + x))
    return total, rhs


def half_integer_telescoping(big_j: int, x: float):
    """Sum and closed sides of
    ``sum_{j<J} G(j+1/2)G(j+x)/(G(j+1)G(j+3/2+x))
    = 2/x G(J+1/2)G(J+x)/(G(J)G(J+1/2+x))``."""
    total = 0.0
    for j in range(big_j):
        total += math.exp(gammaln(j + 0.5) - gammaln(j + 1)
                          + gammaln(j + x) - gammaln(j + 1.5 + x))
    rhs = 2.0 / x * math.exp(gammaln(big_j + 0.5) - gammaln(big_j)
                             + gammaln(big_j + x)
                             - gammaln(big_j + 0.5 + x))
    return total, rhs


def random_instances(rng: np.random.Generator, count: int):
    """Randomized admissible parameter draws, one tuple of (name, lhs, rhs,
    scale) per identity per draw."""
    out = []
    for _ in range(count):
        n = int(rng.integers(0, 9))
        a = float(rng.uniform(0.2, 4.0))
        b = float(rng.uniform(0.2, 4.0))
        x = float(rng.uniform(0.1, 5.0))
        # keep x away from the poles x = k - b of the sum side
        while min(abs(x - k + b) for k in range(n + 1)) < 0.05:
            x = float(rng.uniform(0.1, 5.0))
        lhs, rhs = partial_fraction_sum(n, a, b, x)
        out.append(("partial_fraction_sum", lhs, rhs))

        m = int(rng.integers(0, 12))
        lhs, rhs = alternating_binomial_sum(m, float(rng.uniform(0.2, 4.0)),
                                            float(rng.uniform(0.2, 4.0)))
        out.append(("alternating_binomial_sum", lhs, rhs))

        lhs, rhs = power_sum_integral(int(rng.integers(1, 20)),
                                      float(rng.uniform(-0.8, 3.0)),
                                      float(rng.uniform(-0.9, 1.5)))
        out.append(("power_sum_integral", lhs, rhs))

        lhs, rhs = half_integer_convolution(int(rng.integers(0, 15)),
                                            float(rng.uniform(-0.9, 5.0)))
        out.append(("half_integer_convolution", lhs, rhs))

        lhs, rhs = half_integer_telescoping(int(rng.integers(1, 15)),
                                            float(rng.uniform(0.05, 5.0)))
        out.append(("half_integer_telescoping", lhs, rhs))
    return out


def complex_count_quadrature(P: EnsembleParams, r_max: float | None,
                             tol: float = 1e-9, n_theta: int = 96,
                             order: int = 96) -> float:
    """Integral of the pair density over the upper half-plane (times two for
    the conjugate extension, times two again because each pair is 2 roots)...

    Counting convention: the integral of ``R_{0,1}`` over the conjugate-
    symmetric extension of the upper half-plane equals E[2M], the expected
    number of non-real roots. That is ``2 * int_H R_{0,1}``.
    """
    xg, wg = leg_nodes(n_theta)
    theta = 0.5 * np.pi * (xg + 1.0)
    wtheta = 0.5 * np.pi * wg

    def radial(r):
        # sum over theta of R_{0,1}(r e^{i theta}) r
        z = np.multiply.outer(r, np.exp(1j * theta))
        vals = intensity_complex(P, z)
        return (vals * wtheta).sum(axis=-1) * r

    upper_lim = 1.0 if r_max is None else min(1.0, r_max)
    val, err = adaptive(radial, 0.0, upper_lim, tol=tol, order=order)
    total, toterr = val, err
    if (r_max is None or r_max > 1.0) and not math.isinf(P.s):
        hi = math.inf if r_max is None else r_max
        if math.isinf(hi):
            v2, e2 = halfline(radial, 1.0, tol=tol, order=order)
        else:
            v2, e2 = adaptive(radial, 1.0, hi, tol=tol, order=order)
        total, toterr = total + v2, toterr + e2
    _check_quad(total, toterr)
    return 2.0 * total


def block_by_pairs(P: EnsembleParams, points) -> np.ndarray:
    """The ``2m x 2m`` antisymmetric block matrix of kernel values at
    ``points``, one :func:`matrix_kernel` call per pair ``i <= j``; the lower
    blocks follow by antisymmetry. Points may lie in either half-plane."""
    m = len(points)
    M = np.zeros((2 * m, 2 * m), dtype=complex)
    for i in range(m):
        for j in range(i, m):
            B = matrix_kernel(P, points[i], points[j]).as_array()
            M[2 * i:2 * i + 2, 2 * j:2 * j + 2] = B
            if j > i:
                M[2 * j:2 * j + 2, 2 * i:2 * i + 2] = -B.T
            else:
                # enforce exact antisymmetry of the diagonal block
                M[2 * i, 2 * i] = 0.0
                M[2 * i + 1, 2 * i + 1] = 0.0
                M[2 * i + 1, 2 * i] = -M[2 * i, 2 * i + 1]
    return M


def hyp2f1(a: float, b: float, c: float, z) -> complex:
    """Gauss hypergeometric series ``2F1(a, b; c; z)`` for ``|z| <= 1``.

    At ``z = 1`` with ``c - a - b > 0`` the exact Gauss sum
    ``Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b))`` is returned (the raw
    series converges far too slowly there to be summed term by term); on
    the rest of the circle a series still short of its tolerance after
    200000 terms is handed to mpmath.
    """
    for p in (a, b, c):
        if _is_nonpositive_integer(p):
            raise PoleError(f"hyp2f1: parameter {p} is a non-positive integer")
    z = complex(z)
    r = abs(z)
    if r > 1.0 + 1e-12:
        raise DomainError(f"hyp2f1 requires |z| <= 1, got |z| = {r}")
    on_circle = r > 1.0 - 1e-12
    if on_circle and c - a - b <= 0:
        raise DivergenceError(
            f"hyp2f1 series diverges on |z|=1 when c-a-b = {c - a - b} <= 0")
    if abs(z - 1.0) < 1e-12:
        return complex(_gamma_quotient((c, c - a - b), (c - a, c - b)))
    term = total = 1.0 + 0.0j
    quiet = 0
    for n in range(2_000_000):
        term = term * ((n + a) * (n + b) / ((n + c) * (n + 1.0))) * z
        total += term
        quiet = quiet + 1 if abs(term) <= 1e-16 * max(abs(total), 1e-300) else 0
        if quiet >= 3:
            return total
        if on_circle and n > 200000:
            return complex(mpmath.hyp2f1(a, b, c, mpmath.mpc(z.real, z.imag)))
    raise DivergenceError("hyp2f1 series failed to converge")


def lambda_weight(b1: float, b2: float, zeta) -> complex:
    """Circle weight ``Lambda_{b1,b2}(zeta)`` for ``b1 + b2 + 1 < 0``.

    Generic parameters give ``Gamma(-b1-b2-1)/(Gamma(-b1)Gamma(-b2))
    (2F1(1, 1+b1; -b2; conj zeta) + 2F1(1, 1+b2; -b1; zeta) - 1)``, the two
    series summed by mpmath, since on the circle they converge only
    conditionally for part of the range. For a non-negative integer
    ``b1 = n`` the weight is ``(-1)^{n+1} zeta^{1+n} (1-zeta)^{-q}``,
    ``q = 2+b1+b2`` (the general form's Gamma prefactor, by reflection),
    and likewise in ``conj zeta`` for a non-negative integer ``b2``. Raises
    :class:`InfiniteValueError` at ``zeta = 1`` in the parameter range
    where the weight has an integrable singularity there.
    """
    if b1 + b2 + 1.0 >= 0:
        raise DomainError(f"lambda_weight requires b1+b2+1 < 0, got {b1 + b2 + 1.0}")
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) > 1e-9:
        raise DomainError(f"lambda_weight requires |zeta| = 1, got {abs(zeta)}")
    zeta = zeta / abs(zeta)
    if abs(zeta - 1.0) < 1e-12 and b1 + b2 + 1.0 >= -1.0:
        raise InfiniteValueError(
            "lambda_weight has an integrable singularity at zeta = 1 "
            f"for b1+b2+1 = {b1 + b2 + 1.0} >= -1")
    q = 2.0 + b1 + b2
    for n, t in ((b1, zeta), (b2, zeta.conjugate())):
        if _is_nonpositive_integer(-n):
            return (-1.0) ** (round(n) + 1) * t ** (1.0 + n) * (1.0 - t) ** (-q)
    f1, f2 = (complex(mpmath.hyp2f1(1.0, 1.0 + c, -d, mpmath.mpc(t.real, t.imag)))
              for c, d, t in ((b1, b2, zeta.conjugate()), (b2, b1, zeta)))
    return gamma(-b1 - b2 - 1.0) * rgamma(-b1) * rgamma(-b2) * (f1 + f2 - 1.0)


def xi_handle_full_grid(lam: float, xi: float):
    """``limits.xi_handle`` with every side in complex arithmetic on the
    whole ``97 x 96`` grid: ``M, M'`` at ``u xi tau_k`` and, for a real
    point, at ``(x t_j) (xi tau_k)`` for every ``j`` and ``k``, with no use of
    the block's symmetry."""
    t, wt = _unit_nodes()
    core, edge = wt * t * (1.0 - lam * t), wt * (1.0 - lam * t)

    def side(u):
        x = complex(u).real
        w, M, Mp = _xi_side(lam, xi, np.append(x, x * t) if _is_real_arg(u) else [u])
        return w, M, Mp, w * (M @ edge) / 4.0, x * wt

    def A(u, v):
        (wu, Mu, Mpu, bu, uw), (wv, Mv, Mpv, bv, vw) = side(u), side(v)
        k = np.multiply.outer(wu, wv) * (xi / 4.0) \
            * ((Mpu * core) @ Mv.T - (Mu * core) @ Mpv.T)
        return _entries(
            u, v, lambda: uw @ k[1:, 1:] @ vw + float(np.real(vw @ bv[1:] - uw @ bu[1:])),
            lambda: k[0, 1:] @ vw - bu[0], lambda: uw @ k[1:, 0] + bv[0],
            lambda: k[0, 0])
    return A
