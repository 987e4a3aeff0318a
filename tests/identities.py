"""Finite Gamma identities, each with the sum side and the closed side
implemented independently (scipy log-Gamma only), for randomized checking;
the 2-D quadrature of the pair density, the second route of the
closed-form non-real root count; the block matrix of a correlation
assembled pair by pair, the second route of ``kernel.correlation``; and
the circle weight ``Lambda`` pointwise from Gauss hypergeometric functions
(DLMF 15), the second route of its Fourier coefficients
``limits._lambda_fourier``; and the 2x2 kernels entry by entry, the second
route of ``kernel.block``: the finite kernel's pair sums with their odd-N
``chi`` terms, and each limit regime as a handle ``A(u, v) -> (a, da, ad,
dad)`` with its species-dispatched assembly. The +-1 handle runs on the full
complex grid, so it is also the second route of ``limits.xi_handle``'s real
half-grid. The half-line rule ``x = 1/t`` and the error-estimate check of
the quadrature routes. The adaptive bisection with every panel evaluated
from scratch by scalar ``fixed_panel`` calls, the second route of
``quadrature.adaptive``'s one call per step; the real part of the skew form by adaptive quadrature of
the eps antiderivative, the second route of ``volume.real_moment``, and its
complex part by an angular Gauss rule inside an adaptive radial quadrature,
the second route of ``volume.complex_moment``; and the Mahler measure as the
circle average of ``log |p|`` (Jensen's formula), the second route of
``mc.mahler_measure``."""

import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, gammaln, rgamma

from mahler.errors import DomainError, InfiniteValueError, PoleError, QuadratureError
from mahler.kernel import (EnsembleParams, KernelValue2x2, _family, _is_real_arg, _tables,
                           intensity_complex, matrix_kernel)
from mahler.limits import (_check_disk, _core, _edge, _jacobi_rule, _unit_nodes, _xi_side,
                           sqrt_minus_tau)
from mahler.polys import PolyCoeffs, eps_monomials, eps_poly, weight
from mahler.quadrature import adaptive, fixed_panel, leg_nodes
from mahler.specfun import _gamma_quotient, _is_nonpositive_integer, iota


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
    return adaptive(lambda t: f(1.0 / t) / t**2, 0.0, 1.0 / a, tol=tol, order=order)


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


def adaptive_by_panels(f, a, b, tol):
    """The bisection loop of ``quadrature.adaptive`` with every panel
    evaluated from scratch: three scalar ``fixed_panel`` calls per panel.
    Returns ``(value, error, calls)``."""
    calls = 0

    def panel(lo, hi):
        nonlocal calls
        calls += 3
        mid = 0.5 * (lo + hi)
        whole = fixed_panel(f, lo, hi)
        halves = fixed_panel(f, lo, mid) + fixed_panel(f, mid, hi)
        return abs(whole - halves), lo, hi, halves

    panels = [panel(a, b)]
    while True:
        total = sum(p[3] for p in panels)
        total_err = sum(p[0] for p in panels)
        if total_err <= tol * max(1.0, abs(total)):
            return total, total_err, calls
        panels.sort(key=lambda p: p[0])
        _, lo, hi, _ = panels.pop()
        mid = 0.5 * (lo + hi)
        panels += [panel(lo, mid), panel(mid, hi)]


def bilinear_r_quadrature(f: PolyCoeffs, g: PolyCoeffs, s: float, tol: float = 1e-10) -> float:
    """Real part of the skew form, ``2 int f(x) w(x) eps(g w)(x) dx``: the
    double integral against ``sgn(y - x)`` collapsed to one dimension by the
    eps antiderivative, by adaptive quadrature over [-1, 1] and the two
    half-lines. An overflow of the monomial basis (N = 128) raises
    :class:`QuadratureError`, not a warning."""
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


def bilinear_c_quadrature(f: PolyCoeffs, g: PolyCoeffs, s: float, tol: float = 1e-10) -> float:
    """Complex part of the skew form, ``4 int_H Im(conj(f) g) max(1,|z|)^{-2s}
    dA``, in polar coordinates: 96 Gauss–Legendre nodes in the angle inside an
    adaptive radial quadrature, split at the unit circle."""
    xg, wg = leg_nodes(96)
    theta = 0.5 * math.pi * (xg + 1.0)
    wtheta = 0.5 * math.pi * wg
    etheta = np.exp(1j * theta)

    def radial(r):
        z = np.multiply.outer(np.asarray(r, dtype=float), etheta)
        w2 = weight(s, z) ** 2 if not math.isinf(s) else weight(s, z)
        vals = np.imag(np.conj(f(z)) * g(z)) * w2
        return 4.0 * (vals * wtheta).sum(axis=-1) * np.asarray(r)

    total, toterr = adaptive(radial, 0.0, 1.0, tol=tol)
    if not math.isinf(s):
        v1, e1 = halfline(radial, 1.0, tol=tol)
        total, toterr = total + v1, toterr + e1
    _check_quad(total, toterr)
    return total


def mahler_measure_jensen(p: PolyCoeffs, n: int = 512) -> float:
    """``exp`` of the circle average of ``log |p|`` on ``n`` midpoint nodes,
    Jensen's formula for the Mahler measure; it converges slowly when a root
    lies near the circle."""
    theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    return math.exp(float(np.mean(np.log(np.abs(p(np.exp(1j * theta)))))))


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


def matrix_kernel_by_entries(P: EnsembleParams, u, v) -> KernelValue2x2:
    """The finite 2x2 kernel entry by entry: ``kappa``, ``kappa eps`` and
    ``eps kappa eps`` as pair sums over the family and its eps-transforms at
    each point, each with its odd-N ``chi`` terms written out (``chi = 1`` at
    a real point, 0 at a non-real one), and ``e21 = -e12`` with the points
    swapped."""
    tab = _tables(P.N, P.s)
    J = tab.J

    def features(u):
        real = _is_real_arg(u)
        u = complex(u).real if real else complex(u)
        pe, po = _family(tab, u)
        if real:
            eps = eps_monomials(np.arange(tab.N), tab.s, u)
            return pe, po, tab.even @ eps[0::2], tab.odd @ eps[1::2], 1.0
        return pe, po, iota(u) * np.conj(pe), iota(u) * np.conj(po), 0.0

    def pair(au, bu, av, bv):
        return 2.0 * np.sum(au[:J] * bv - av[:J] * bu)

    def entry_12(fu, fv):
        val = pair(fu[0], fu[1], fv[2], fv[3])
        return val + fu[0][J] * fv[4] / tab.s2J if tab.odd_N else val

    fu, fv = features(u), features(v)
    e22 = pair(fu[2], fu[3], fv[2], fv[3])
    if tab.odd_N:
        e22 += (fu[2][J] * fv[4] - fv[2][J] * fu[4]) / tab.s2J
    if fu[4] and fv[4]:
        e22 += 0.5 * np.sign(complex(u).real - complex(v).real)
    return KernelValue2x2(complex(pair(fu[0], fu[1], fv[0], fv[1])), complex(entry_12(fu, fv)),
                          complex(-entry_12(fv, fu)), complex(e22))


def _entries(u, v, a, da, ad, dad):
    """A handle's ``(a, da, ad, dad)`` from zero-argument evaluators: a value
    that integrates along the real line in a slot holding a non-real point is
    ``None``, so ``a`` needs both points real, ``da`` needs ``v`` real and
    ``ad`` needs ``u`` real."""
    ur, vr = _is_real_arg(u), _is_real_arg(v)
    return (complex(a()) if ur and vr else None, complex(da()) if vr else None,
            complex(ad()) if ur else None, complex(dad()))


def assemble_by_entries(A, u, v) -> KernelValue2x2:
    """Species-dispatched 2x2 limit kernel from a handle ``A(u, v) -> (a, da,
    ad, dad)``: real/real is ``(dad, -da, -ad, a + sgn(u - v)/2)``; a complex
    first argument conjugates with the half-plane phase ``iota``;
    real-first/complex-second is the negated transpose of the swapped pair;
    complex/complex uses mixed derivatives only."""
    ur, vr = _is_real_arg(u), _is_real_arg(v)
    if ur and vr:
        x, y = complex(u).real, complex(v).real
        a, da, ad, dad = A(x, y)
        return KernelValue2x2(dad, -da, -ad, a + 0.5 * np.sign(x - y))
    if not ur and vr:
        z, y = complex(u), complex(v).real
        _, da, _, dad = A(z, y)
        _, dac, _, dadc = A(np.conj(z), y)
        return KernelValue2x2(dad, -da, iota(z) * dadc, -iota(z) * dac)
    if ur and not vr:
        K = assemble_by_entries(A, v, u)
        return KernelValue2x2(-K.e11, -K.e21, -K.e12, -K.e22)
    z, w = complex(u), complex(v)
    return KernelValue2x2(
        A(z, w)[3], iota(w) * A(z, np.conj(w))[3], iota(z) * A(np.conj(z), w)[3],
        iota(z) * iota(w) * A(np.conj(z), np.conj(w))[3])


def xi_handle_full_grid(lam: float, xi: float):
    """The +-1 regime as ``A(u, v) -> (a, da, ad, dad)`` with every side in
    complex arithmetic on the whole ``97 x 96`` grid: ``M, M'`` at ``u xi
    tau_k`` and, for a real point, at ``(x t_j) (xi tau_k)`` for every ``j``
    and ``k``, with no use of the block's symmetry. One kappa matrix between
    the two sides; ``a`` is the double integral of the scaled scalar kernel
    over ``[0,u] x [0,v]`` plus the anchoring boundary terms."""
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


def disk_entries(u, v):
    """The disk regime's ``(a, da, ad, dad)``: ``a`` is the circle average of
    ``g / sqrt((1-u^2 conj tau)(1-v^2 tau))``, ``g = v sqrt(-tau) - u
    sqrt(-conj tau)``, the others its derivatives under the integral sign, on
    Gauss–Legendre panels of the angle cut at ``0``, ``2 arg u`` and ``-2 arg
    v``."""
    _check_disk(True, u, v)
    turn = 2.0 * math.pi
    cuts = sorted({0.0, 2.0 * np.angle(u) % turn, -2.0 * np.angle(v) % turn})
    width = np.diff(cuts, append=turn)[:, None]
    x, w = _unit_nodes()
    tau = np.exp(1j * (np.array(cuts)[:, None] + width * x).ravel())
    wt, p, tc = (width * w).ravel() / (2.0 * turn), sqrt_minus_tau(tau), np.conj(tau)
    q, ru, rv = np.conj(p), 1.0 / np.sqrt(1.0 - u * u * tc), 1.0 / np.sqrt(1.0 - v * v * tau)
    g = v * p - u * q
    return (complex(wt @ (g * ru * rv)),
            complex(wt @ (-q * ru * rv + g * u * tc * ru ** 3 * rv)),
            complex(wt @ (p * ru * rv + g * v * tau * ru * rv ** 3)),
            complex(wt @ (p * u * tc * ru ** 3 * rv - q * v * tau * ru * rv ** 3
                          + g * u * v * ru ** 3 * rv ** 3)))


def outside_entries(c: float):
    """The outside regime as ``A(u, v) -> (a, da, ad, dad)``, from one 48-node
    Gauss–Jacobi tail rule per real point: with ``R = c core`` on the points
    and the tail nodes, ``a = W_u R W_v + C (sgn(v) sum W_u - sgn(u) sum
    W_v)``, ``da = -e(u) (R(u, .) W_v + C sgn(v))``, ``ad = e(v) (C sgn(u) -
    W_u R(., v))`` and ``dad = R(u, v) e(u) e(v)``; zeros at ``c = inf``."""
    def A(u, v):
        _check_disk(False, u, v)
        if math.isinf(c):
            return _entries(u, v, *(lambda: 0.0,) * 4)
        x, w = _jacobi_rule(c)
        C = _gamma_quotient(((c + 1.0) / 2.0,), (c / 2.0,)) / math.sqrt(math.pi)

        def side(z):
            if not _is_real_arg(z):
                return np.array([z]), np.zeros(0), 0.0
            y = complex(z).real
            e = math.exp(math.acosh(abs(y)))
            xu = 0.5 * (e + x * x / e)
            return np.append(y, math.copysign(1.0, y) * xu / x), w * xu ** -c, math.copysign(C, y)

        (pu, wu, cu), (pv, wv, cv) = side(u), side(v)
        R = c * _core(1.0 / c, pu[:, None], pv[None, :])
        eu, ev = _edge(c, pu[0]), _edge(c, pv[0])
        return _entries(
            u, v, lambda: (wu @ R[1:, 1:] @ wv + cv * wu.sum() - cu * wv.sum()).real,
            lambda: -eu * (R[0, 1:] @ wv + cv), lambda: ev * (cu - wu @ R[1:, 0]),
            lambda: R[0, 0] * eu * ev)
    return A
