import math
import warnings
from functools import lru_cache, partial

import mpmath
import numpy as np
import pytest

import mahler.limits as limits
from mahler.errors import DomainError, InfiniteValueError
from mahler.kernel import EnsembleParams, expected_counts, matrix_kernel, sum_k
from mahler.limits import (LimitKernelSpec, _lambda_fourier, a_disk,
                           a_outside, a_xi, a_xi_iform, assemble_matrix,
                           b_outside, compare_report,
                           convergence_report, dad_disk, disk_handle, dsn_limit,
                           k_zeta, kappa_xi, kasymp_report, outside_handle,
                           ratio_sums_report, sqrt_minus_tau,
                           sum_inside_limit, xi_handle)
from mahler.quadrature import leg_nodes
from mahler.specfun import iota

from identities import (assemble_by_entries, disk_entries, lambda_weight,
                        matrix_kernel_by_entries, outside_entries, xi_handle_full_grid)


class TestCircleComplexKernel:
    def test_at_origin(self):
        for lam in (0.0, 0.5, 1.0):
            val = k_zeta(lam, 1j, 0.0, 0.0)
            assert val == pytest.approx((0.5 - lam / 3.0) / math.pi,
                                        rel=1e-12)

    def test_hermitian_symmetry(self):
        lam, zeta = 0.7, 1j
        z, w = 0.4 + 0.3j, -0.2 + 0.6j
        assert k_zeta(lam, zeta, z, w) == pytest.approx(
            np.conj(k_zeta(lam, zeta, w, z)), rel=1e-13)

    def test_rotation_covariance(self):
        lam = 1.0
        zeta = complex(math.cos(1.0), math.sin(1.0))
        z, w = 0.4 + 0.3j, -0.2 + 0.6j
        base = abs(k_zeta(lam, zeta, z, w))
        for theta in (0.7, 2.3):
            rot = complex(math.cos(theta), math.sin(theta))
            val = abs(k_zeta(lam, zeta * rot, z * rot, w * rot))
            assert val == pytest.approx(base, rel=1e-12, abs=1e-15)


@lru_cache(maxsize=None)
def _far_real_rows(xi, tau):
    """``-int_0^x (M', M)(xi tau y) dy`` at ``x = -40 xi`` by a 30-digit mpmath
    quadrature, ``M = 1F1(3/2; 1; .)`` and ``M' = (3/2) 1F1(5/2; 2; .)``."""
    x = -40.0 * xi
    with mpmath.workdps(30):
        rows = [-mpmath.quad(lambda y: c * mpmath.hyp1f1(a, b, xi * tau * y),
                             mpmath.linspace(0.0, x, 5))
                for c, a, b in ((1.5, 2.5, 2.0), (1.0, 1.5, 1.0))]
    return float(rows[0]), float(rows[1])


class TestCircleRealKernel:
    def test_diagonal_vanishes(self):
        assert kappa_xi(1.0, 1.0, 0.4, 0.4) == pytest.approx(0.0, abs=1e-15)

    def test_antisymmetry(self):
        u, v = 0.5, -0.3 + 0.4j
        assert kappa_xi(0.5, -1.0, u, v) == pytest.approx(
            -kappa_xi(0.5, -1.0, v, u), rel=1e-14)

    def test_complex_intensity_vanishes_toward_axis(self):
        vals = []
        for im in (0.4, 0.2, 0.1):
            z = complex(0.3, im)
            vals.append((iota(z) * kappa_xi(1.0, 1.0, z, np.conj(z))).real)
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_antiderivative_diagonal_vanishes(self):
        assert a_xi(0.5, 1.0, -0.4, -0.4) == pytest.approx(0.0, abs=1e-13)

    def test_antiderivative_integral_form(self):
        # the single-integral form needs a*xi, b*xi < 0
        for xi, a, b in ((1.0, -0.7, -0.2), (-1.0, 0.7, 0.2)):
            assert a_xi(0.5, xi, a, b) == pytest.approx(
                a_xi_iform(0.5, xi, a, b), abs=1e-8)

    def test_slot_derivatives_match_finite_differences(self):
        # a*xi > 0 puts the damped side omega < 1 into play when lam > 0
        h = 1e-5
        for xi in (1.0, -1.0):
            for lam in (0.5, 1.0):
                A = xi_handle(lam, xi)
                for a, b in ((-0.6, -0.25), (0.7, -0.4), (-1.5, 2.0),
                             (3.0, 1.2)):
                    fd_da = (a_xi(lam, xi, a + h, b)
                             - a_xi(lam, xi, a - h, b)) / (2 * h)
                    fd_ad = (a_xi(lam, xi, a, b + h)
                             - a_xi(lam, xi, a, b - h)) / (2 * h)
                    K = assemble_matrix(A, a, b)
                    assert -K.e12 == pytest.approx(fd_da, abs=1e-8)
                    assert -K.e21 == pytest.approx(fd_ad, abs=1e-8)

    def test_handle_entries_match_scalar_kernels(self):
        K = assemble_matrix(xi_handle(0.5, -1.0), 0.7, -0.4)
        assert K.e22 - 0.5 == a_xi(0.5, -1.0, 0.7, -0.4)
        assert K.e11 == pytest.approx(kappa_xi(0.5, -1.0, 0.7, -0.4), rel=1e-14)

    @pytest.mark.parametrize("xi", [1.0, -1.0])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 8.0 / 9.0, 1.0])
    def test_real_side_matches_full_grid(self, lam, xi):
        # real/real, real/complex and complex/complex pairs, the circle_real
        # grid points and |x| up to 8 on both sides of the anchor; then, against
        # a few partners, |x| up to 20 and both sides of xi x = -3, where a
        # real side leaves its Taylor sums for the exact antiderivatives
        pts = [0.5, -0.3, -0.4, 0.2, -xi * 8.0, -xi * 0.2, xi * 7.5, 0.0,
               -0.3 + 0.4j, 1.2 - 0.7j]
        more = [1e-12, -1e-12, -3.0 * xi + 1e-9, -3.0 * xi - 1e-9, 12.0, -12.0, 20.0, -20.0]
        pairs = [(u, v) for u in pts for v in pts]
        pairs += [p for u in more for v in (0.5, -xi * 8.0, -0.3 + 0.4j) for p in ((u, v), (v, u))]
        A, B = xi_handle(lam, xi), xi_handle_full_grid(lam, xi)
        for u, v in pairs:
            K = assemble_matrix(A, u, v).as_array()
            ref = assemble_by_entries(B, u, v).as_array()
            assert np.all(np.abs(K - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref))), (u, v)
        reals = [p for p in pts + more if isinstance(p, float)]
        for u in reals:
            for v in reals:
                a = assemble_matrix(A, u, v).e22
                assert abs(a + assemble_matrix(A, v, u).e22) <= 1e-14 * max(1.0, abs(a)), (u, v)
        # at x = -40 xi the full grid's own [0, x] rule is 6e-13 off, so the
        # rows there are checked against mpmath
        t, wt = limits._unit_nodes()
        side = A([-40.0 * xi])[0].at(0)
        P, Q = side.P[1], side.Q[1] / ((xi / 4.0) * wt * (1.0 - lam * t) * t)
        for k in (0, 40, 95):
            ref_p, ref_q = _far_real_rows(xi, t[k])
            assert abs(P[k] - ref_p) <= 1e-14 * abs(ref_p), k
            assert abs(Q[k] - ref_q) <= 1e-14 * abs(ref_q), k

    def test_non_real_argument_raises(self):
        # a_xi returned None here
        for a, b in ((0.3 + 0.1j, 0.2), (0.3, -0.2 - 0.5j)):
            with pytest.raises(DomainError, match="real"):
                a_xi(1.0, 1.0, a, b)

    @pytest.mark.parametrize("xi", [1.0, -1.0])
    def test_real_point_guards(self, xi):
        # a real side with xi x >= -3 sums its Taylor series and one with
        # xi x < -3 calls no omega; each must still fail fast and quietly
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                assemble_matrix(xi_handle(0.5, xi), x, 0.3)
        for lam in (-0.5, 1.5):
            for u in (0.5 * xi, -8.0 * xi, 0.3 + 0.2j):
                with pytest.raises(DomainError):
                    assemble_matrix(xi_handle(lam, xi), u, -9.0 * xi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in (0.0, 0.5, 1.0):
                with pytest.raises(InfiniteValueError):
                    assemble_matrix(xi_handle(lam, xi), 712.0 * xi, 0.3)

    def test_anchor_must_be_plus_or_minus_one(self):
        # kappa_xi(1.0, 0.5, 0.3, -0.2) used to return -8.6e-4
        for call in (lambda: kappa_xi(1.0, 0.5, 0.3, -0.2),
                     lambda: a_xi(1.0, 0.0, 0.3, -0.2),
                     lambda: xi_handle(1.0, -2.0)(0.3, 0.1j)):
            with pytest.raises(DomainError):
                call()


class TestInsideDiskKernel:
    def test_diagonal_vanishes(self):
        assert a_disk(0.3, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_branch_matches_defining_series(self):
        # -(2/pi) sum tau^m / (2m-1) converges conditionally on the circle;
        # averaging the symmetric partial sums over one period of the
        # coefficient oscillation gives a stable evaluation
        tau = 1j
        total = -2.0 / math.pi * sum((tau ** m + tau ** (-m) * (2 * m - 1)
                                      / (-2 * m - 1)) / (2 * m - 1)
                                     for m in range(1, 1997))
        total += -2.0 / math.pi * (1.0 / -1.0)
        partials = []
        for m in range(1997, 2001):
            total += -2.0 / math.pi * (tau ** m / (2 * m - 1)
                                       + tau ** (-m) / (-2 * m - 1))
            partials.append(total)
        series = sum(partials) / 4.0
        assert sqrt_minus_tau(tau) == pytest.approx(series, abs=1e-6)

    def test_slot_derivatives_match_finite_differences(self):
        h = 1e-5
        u, v = 0.3, -0.45
        A = disk_handle()
        fd_da = (a_disk(u + h, v) - a_disk(u - h, v)) / (2 * h)
        fd_ad = (a_disk(u, v + h) - a_disk(u, v - h)) / (2 * h)
        fd_dad = (assemble_matrix(A, u, v - h).e12 - assemble_matrix(A, u, v + h).e12) / (2 * h)
        K = assemble_matrix(A, u, v)
        assert -K.e12 == pytest.approx(fd_da, abs=1e-8)
        assert -K.e21 == pytest.approx(fd_ad, abs=1e-8)
        assert K.e11 == pytest.approx(fd_dad, abs=1e-7)
        assert K.e11 == dad_disk(u, v)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            a_disk(1.2, 0.3)

    @staticmethod
    def _mpmath_disk(u, v):
        """``a_disk`` and ``dad_disk`` by mpmath ``quad`` at 20 digits; the
        cuts at the branch points' real parts only speed it up."""
        with mpmath.workdps(20):
            u, v = mpmath.mpmathify(u), mpmath.mpmathify(v)

            def parts(t):
                tau, p = mpmath.expj(t), mpmath.expj((t - mpmath.pi) / 2)
                return (tau, p, mpmath.conj(p), 1 / mpmath.sqrt(1 - u * u / tau),
                        1 / mpmath.sqrt(1 - v * v * tau))

            def a(t):
                _, p, q, ru, rv = parts(t)
                return (v * p - u * q) * ru * rv

            def dad(t):
                tau, p, q, ru, rv = parts(t)
                return (p * u / tau * ru ** 3 * rv - q * v * tau * ru * rv ** 3
                        + (v * p - u * q) * u * v * ru ** 3 * rv ** 3)

            cuts = sorted({0.0, 2 * math.pi} | {
                float(c) % (2 * math.pi)
                for c in (2 * mpmath.arg(u), -2 * mpmath.arg(v))})
            return [complex(mpmath.quad(f, cuts) / (4 * mpmath.pi)) for f in (a, dad)]

    @pytest.mark.parametrize("u,v", [
        (0.5, -0.3), (0.95, 0.3), (-0.95, 0.9), (0.3 + 0.4j, -0.5),
        (0.67 + 0.67j, -0.3), (0.9j, 0.5), (0.2 - 0.8j, 0.7 + 0.5j),
        (-0.6 + 0.3j, 0.95j)])
    def test_kernels_match_mpmath_quadrature(self, u, v):
        # the 1024-node midpoint rule this replaced was off by 1.3e-7 at
        # (0.5, -0.3) and 1.7e-4 in dad_disk at (0.95, 0.3)
        ref_a, ref_dad = self._mpmath_disk(u, v)
        assert abs(a_disk(u, v) - ref_a) <= 1e-13 * max(1.0, abs(ref_a))
        assert abs(dad_disk(u, v) - ref_dad) <= 1e-13 * max(1.0, abs(ref_dad))


class TestOutsideKernel:
    def test_antisymmetry(self):
        c = 1.0
        u, v = 1.4, 1.9
        assert b_outside(c, u, v) == pytest.approx(-b_outside(c, v, u),
                                                   rel=1e-13)

    def test_infinite_c_vanishes(self):
        assert a_outside(math.inf, 1.5, 2.0) == 0.0
        assert b_outside(math.inf, 1.5, 2.0) == 0.0

    def test_dsn_infinite_c(self):
        val = dsn_limit(1.0, math.inf, 1.4, 1.8)
        ref = (1.0 / math.pi) / (1.4 * 1.8 - 1.0) * (1.8 - 1.4) \
            / (math.sqrt(1.4 ** 2 - 1) * math.sqrt(1.8 ** 2 - 1))
        assert val == pytest.approx(ref, rel=1e-12)

    def test_slot_derivatives_match_finite_differences(self):
        h = 1e-5
        for c in (1.0, 2.5):
            A = outside_handle(c)
            for x, y in ((1.5, 2.0), (-1.5, 2.0), (1.5, -2.0), (-1.5, -2.0)):
                fd_da = (a_outside(c, x + h, y) - a_outside(c, x - h, y)) / (2 * h)
                fd_ad = (a_outside(c, x, y + h) - a_outside(c, x, y - h)) / (2 * h)
                K = assemble_matrix(A, x, y)
                assert -K.e12 == pytest.approx(fd_da, abs=1e-7)
                assert -K.e21 == pytest.approx(fd_ad, abs=1e-7)

    @staticmethod
    def _mpmath_outside(c, u, v):
        """The outside kernel's ``(a, da, ad, dad)`` by mpmath ``quad`` at 20
        digits in ``t = arccosh|u|``, where ``du / sqrt(u^2-1) = dt`` on the
        trace branch; ``None`` for a value that integrates along the real
        line through a non-real point. The double integral
        runs in ``x = e^{arccosh|y| - t}`` over ``(0, 1]^2`` instead: there
        tanh-sinh meets the endpoint power ``x^(c-1)`` with about a fifth of
        the points it needs on the two half-lines."""
        with mpmath.workdps(20):
            c = mpmath.mpf(c)
            C = mpmath.gamma((c + 1) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(c / 2))

            def core(p, q):     # B(p, q) without its two edge factors
                d = p * q - 1
                return (c + 1 / d) * (q - p) / (mpmath.pi * d)

            def edge(z):
                return abs(z) ** -c / (z * mpmath.sqrt(1 - 1 / (z * z)))

            def tail(y, f):     # int_{sgn(y) inf}^y |u|^{-c} f(u) du / sqrt(u^2-1)
                y = mpmath.mpf(y)
                return -mpmath.quad(lambda t: mpmath.cosh(t) ** -c
                                    * f(mpmath.sign(y) * mpmath.cosh(t)),
                                    [mpmath.acosh(abs(y)), mpmath.inf])

            def double(x, y):
                (x, sx), (y, sy) = [(mpmath.mpf(abs(z)), mpmath.sign(z)) for z in (x, y)]
                ex, ey = x + mpmath.sqrt(x * x - 1), y + mpmath.sqrt(y * y - 1)

                def f(p, q):    # |u| = cosh(arccosh|x| - log p) = (ex/p + p/ex)/2
                    pu, qu = (ex + p * p / ex) / 2, (ey + q * q / ey) / 2
                    return p ** (c - 1) * q ** (c - 1) * (pu * qu) ** -c \
                        * core(sx * pu / p, sy * qu / q)
                return mpmath.quad(f, [0, 1], [0, 1])

            ur, vr = complex(u).imag == 0.0, complex(v).imag == 0.0
            x, y = complex(u).real, complex(v).real
            u, v = mpmath.mpmathify(u), mpmath.mpmathify(v)
            a = double(x, y) + C * (mpmath.sign(x) * tail(y, lambda q: 1)
                                    - mpmath.sign(y) * tail(x, lambda p: 1)) \
                if ur and vr else None
            da = edge(u) * (tail(y, lambda q: core(u, q)) - C * mpmath.sign(y)) if vr else None
            ad = edge(v) * (tail(x, lambda p: core(p, v)) + C * mpmath.sign(x)) if ur else None
            return [None if e is None else complex(e)
                    for e in (a, da, ad, core(u, v) * edge(u) * edge(v))]

    @pytest.mark.parametrize("c", [1.0, 1.2, 2.5])
    @pytest.mark.parametrize("u,v", [
        (1.4, 1.8), (-1.5, 2.0), (1.5 + 0.5j, -2.0), (1.3, -1.1 - 0.7j)])
    def test_handle_matches_mpmath_quadrature(self, c, u, v):
        # the two Gauss–Legendre tail rules this replaced were off by 3.6e-7
        # in a at (1.4, 1.8), c = 1.2, and by 1.6e-12 at (-1.5, 2.0), c = 2.5
        a, da, ad, dad = self._mpmath_outside(c, u, v)
        refs = (dad, None if da is None else -da, None if ad is None else -ad,
                None if a is None else a + 0.5 * np.sign(u - v))
        for got, ref in zip(assemble_matrix(outside_handle(c), u, v).as_array().ravel(), refs):
            if ref is not None:
                assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_negative_trace_sign(self):
        # the square-root trace is negative on the negative real axis, so
        # the diagonal-limit density stays positive on both sides
        for x in (1.5, -1.5):
            z = complex(x, 0.3)
            val = (iota(z) * b_outside(1.0, z, np.conj(z))).real
            assert val > 0.0

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            b_outside(1.0, 0.5, 1.5)

    def test_non_real_argument_raises(self):
        # a bare AttributeError came from the handle's None slot here
        for x, y in ((1.5 + 0.5j, 2.0), (1.5, -2.0 + 0.1j)):
            with pytest.raises(DomainError, match="real"):
                a_outside(1.0, x, y)

    def test_arrays_match_scalars(self):
        u = np.array([1.4, -2.0 + 0.5j, 1.1j])
        v = np.array([1.9, 1.5, -3.0])
        got = b_outside(1.0, u, v)
        assert got == pytest.approx([b_outside(1.0, x, y) for x, y in zip(u, v)],
                                    rel=1e-15)
        with pytest.raises(DomainError):
            b_outside(1.0, np.array([1.4, 0.5j]), v[:2])


class TestAssembly:
    def test_real_diagonal_vanishes(self):
        K = assemble_matrix(xi_handle(0.5, 1.0), -0.4, -0.4)
        assert K.e11 == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("handle,z,y", [
        (xi_handle(0.5, 1.0), 0.2 + 0.3j, -0.4), (xi_handle(1.0, -1.0), -0.6 - 0.5j, 1.1),
        (disk_handle(), 0.2 + 0.3j, -0.4), (outside_handle(2.5), 1.5 + 0.5j, -2.0)],
        ids=["plus_one", "minus_one", "disk", "outside"])
    def test_transpose_rule(self, handle, z, y):
        K1 = assemble_matrix(handle, z, y)
        K2 = assemble_matrix(handle, y, z)
        assert K1.e11 == pytest.approx(-K2.e11, rel=1e-13, abs=1e-15)
        assert K1.e12 == pytest.approx(-K2.e21, rel=1e-13, abs=1e-15)
        assert K1.e21 == pytest.approx(-K2.e12, rel=1e-13, abs=1e-15)
        assert K1.e22 == pytest.approx(-K2.e22, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("handle,x,y", [
        (xi_handle(0.5, 1.0), 0.3, -0.7), (xi_handle(1.0, -1.0), 0.4, 1.2),
        (disk_handle(), 0.3, -0.2), (outside_handle(1.0), 1.4, -2.0)],
        ids=["handle0-0.3--0.7", "handle1-0.4-1.2", "handle2-0.3--0.2", "handle3-1.4--2.0"])
    def test_real_transpose_rule(self, handle, x, y):
        # e21 was +ad: at (0.3, 0.3) on the +1 handle e21 = e12 = 0.1266
        K = assemble_matrix(handle, x, y).as_array()
        assert np.max(np.abs(K + assemble_matrix(handle, y, x).as_array().T)) <= 1e-15

    def test_disk_real_entries_match_finite_kernel(self):
        # N = 256 at s = inf: e21 is -0.2916 there, and was +0.2924 here
        K = assemble_matrix(disk_handle(), 0.3, -0.2)
        F = matrix_kernel(EnsembleParams(256, math.inf), 0.3, -0.2)
        for e in ("e11", "e12", "e21", "e22"):
            assert abs(getattr(K, e) - getattr(F, e)) <= 2e-3, e

    def test_complex_diagonal_intensity(self):
        handle = xi_handle(1.0, 1.0)
        from mahler.kernel import pfaffian
        for z in (0.3 + 0.4j, -0.5 + 0.2j):
            K = assemble_matrix(handle, z, z)
            A = np.array([[K.e11, K.e12], [K.e21, K.e22]])
            pf = pfaffian(0.5 * (A - A.T))
            ref = (iota(z) * kappa_xi(1.0, 1.0, z, np.conj(z))).real
            assert pf.real == pytest.approx(ref, rel=1e-10)
            assert pf.real >= 0.0


def _rules():
    """The block rule and the per-entry rule of every kernel, with real and
    non-real points of its domain and the tolerance of the comparison."""
    reals, uppers = (0.3, -1.2, 2.5), (0.4 + 0.7j, -0.6 + 1.1j)
    for N, s in ((8, 9.0), (9, 10.5), (16, math.inf), (15, math.inf), (33, 34.0), (64, 65.5)):
        P = EnsembleParams(N, s)
        yield pytest.param(partial(matrix_kernel, P), partial(matrix_kernel_by_entries, P),
                           reals, uppers, 1e-14, id=f"finite_N{N}_s{s}")

    def limit(handle, entries):
        return partial(assemble_matrix, handle), partial(assemble_by_entries, entries)
    for lam, xi in ((0.5, 1.0), (1.0, -1.0)):
        yield pytest.param(*limit(xi_handle(lam, xi), xi_handle_full_grid(lam, xi)),
                           (0.5, -0.3, -8.0 * xi), (-0.3 + 0.4j, 1.2 - 0.7j), 1e-14,
                           id=f"xi{xi:+g}_lam{lam}")
    yield pytest.param(*limit(disk_handle(), disk_entries), (0.3, -0.5, 0.95),
                       (0.3 + 0.4j, 0.2 - 0.8j, 0.9j), 1e-13, id="disk")
    for c in (1.0, 2.5, math.inf):
        yield pytest.param(*limit(outside_handle(c), outside_entries(c)), (1.4, -2.0, 1.3),
                           (1.5 + 0.5j, -1.1 - 0.7j), 1e-14, id=f"outside_c{c}")


class TestBlockRule:
    @pytest.mark.parametrize("species", ["rr", "rc", "cr", "cc"])
    @pytest.mark.parametrize("new,old,reals,uppers,tol", list(_rules()))
    def test_matches_per_entry_rule(self, new, old, reals, uppers, tol, species):
        pts = {"r": reals, "c": uppers}
        for u in pts[species[0]]:
            for v in pts[species[1]]:
                K, ref = new(u, v).as_array(), old(u, v).as_array()
                assert np.max(np.abs(K - ref)) <= tol * max(1.0, np.max(np.abs(ref))), (u, v)

    @pytest.mark.parametrize("u,v,sizes", [(0.5, -0.3, ()), (-5.0, 0.5, (96,)),
                                           (0.5, -0.3 + 0.4j, (192,)),
                                           (0.2 + 0.3j, -0.3 + 0.4j, (192, 192))],
                             ids=["rr", "rr_far", "rc", "cc"])
    def test_one_side_build_per_point(self, monkeypatch, u, v, sizes):
        # a real point with xi x >= -3 sums Taylor series and calls no
        # big_m_pair; one with xi x < -3 makes one call on the 96 nodes, and a
        # non-real point one on its 96 nodes and their conjugates
        calls = []
        big_m_pair = limits.big_m_pair
        monkeypatch.setattr(limits, "big_m_pair", lambda z: calls.append(np.size(z)) or big_m_pair(z))
        assemble_matrix(xi_handle(1.0, 1.0), u, v)
        assert tuple(calls) == sizes


def _log_slope(region, s_of, n=512):
    """``pi (E(2n) - E(n)) / log 2`` for the exact count of a region at
    ``s = s_of(N)``: ``c`` for a count that grows like ``(c/pi) log N``."""
    low, high = (expected_counts(EnsembleParams(N, float(s_of(N))), region) for N in (n, 2 * n))
    return math.pi * (high - low) / math.log(2.0)


class TestAsymptoticCounts:
    """The paper's growth claims for the real-root counts, on the exact counts."""

    @pytest.mark.parametrize("s_of", [lambda N: math.inf, lambda N: N + 1,
                                      lambda N: 2 * N, lambda N: 4 * N],
                             ids=["inf", "N+1", "2N", "4N"])
    def test_inside_count_grows_like_log_n(self, s_of):
        assert _log_slope("inside", s_of) == pytest.approx(1.0, rel=0.01)

    def test_bounded_gap_regime(self):
        # s - N bounded: the outside count grows as the inside one does
        assert _log_slope("outside", lambda N: N + 1) == pytest.approx(1.0, rel=0.01)

    def test_power_gap_regime(self):
        # s = N + N^(1 - alpha): the outside count grows like (alpha/pi) log N;
        # the slope nears alpha slowly (0.93, 0.95 and 0.96 of it from
        # N = 256, 512 and 1024)
        alpha = 0.5
        assert _log_slope("outside", lambda N: N + N ** (1 - alpha)) == pytest.approx(
            alpha, rel=0.1)

    def test_bounded_ratio_regime(self):
        # N/s fixed below 1: the outside count converges to a positive number
        for k in (2, 4):
            low, high = (expected_counts(EnsembleParams(N, k * N), "outside") for N in (512, 1024))
            assert abs(high - low) < 2e-4
            assert high > 0.1


class TestCircleWeightCoefficients:
    @pytest.mark.parametrize("b1,b2", [(-0.6, -1.4), (0.5, -2.3), (1.5, -3.2)])
    def test_fourier_coefficients_match_mpmath(self, b1, b2):
        # Gamma(m+1+b2) is negative at m = 1 for b2 = -2.3 and at m = 2 for
        # b2 = -3.2, so these coefficients check the sign of the quotient
        m = np.arange(-8, 9)
        got = _lambda_fourier(b1, b2, m)
        G = mpmath.gamma
        with mpmath.workdps(30):
            for mm, val in zip(m.tolist(), got):
                c1, c2, k = (b2, b1, -mm) if mm < 0 else (b1, b2, mm)
                ref = G(-c1 - c2 - 1) * G(k + 1 + c2) \
                    / (G(-c2) * G(1 + c2) * G(k - c1))
                assert val == pytest.approx(float(ref), rel=1e-13)

    @staticmethod
    def _fft(b1, b2, n, m):
        """Coefficients of ``tau^m`` of the pointwise weight by the midpoint
        rule on ``n`` nodes, none at the singular point ``tau = 1``."""
        tau = np.exp(1j * (np.arange(n) + 0.5) * (2 * math.pi / n))
        vals = np.array([lambda_weight(b1, b2, t) for t in tau])
        return (vals * tau ** -m[:, None]).mean(axis=1)

    def test_fourier_coefficients_match_weight_fft(self):
        # generic branch; Gamma(m+1+b2) changes sign at m = 1, 2, 3. The
        # midpoint rule meets the (1-tau)^{-q}, q = 2+b1+b2 = -1.3, at the
        # rate n^{q-1}: 1.5e-6 at n = 256
        b1, b2, m = 0.5, -3.8, np.arange(-8, 9)
        err = np.abs(self._fft(b1, b2, 256, m) - _lambda_fourier(b1, b2, m))
        assert err.max() <= 1e-5

    @pytest.mark.parametrize("b1,b2", [(1.0, -3.5), (-4.5, 2.0), (2.0, -4.0)])
    def test_degenerate_weight_fft(self, b1, b2):
        # a non-negative integer parameter; at (2, -4) the weight is -tau^3
        # and the rule is exact, at q = -1/2 it is 1.0e-7 off at n = 16384
        m = np.arange(-8, 9)
        err = np.abs(self._fft(b1, b2, 16384, m) - _lambda_fourier(b1, b2, m))
        assert err.max() <= 3e-7

    @pytest.mark.parametrize("args", [(0.5, -0.6, 1.5, -1.9, 0.3 + 0.4j, -0.5),
                                      (0.5, 0.5, 1.5, -3.0, 0.3, 0.2)])
    def test_inside_limit_is_circle_average(self, args):
        # the mean of Lambda(tau) (1 - z conj tau)^{-1-a1} (1 - w tau)^{-1-a2}
        # over the circle; theta = pi t^2 from each end makes the weight's
        # |theta|^{-q} analytic in t for q = 2+b1+b2 in {-1/2, 0}
        a1, b1, a2, b2, z, w = args
        x, wx = leg_nodes(48)
        t, wt = 0.5 * (x + 1.0), math.pi * (x + 1.0) * 0.5 * wx
        theta = np.concatenate([math.pi * t ** 2, 2 * math.pi - math.pi * t ** 2])
        tau = np.exp(1j * theta)
        vals = np.array([lambda_weight(b1, b2, v) for v in tau]) \
            * (1 - z * np.conj(tau)) ** (-1 - a1) * (1 - w * tau) ** (-1 - a2)
        mean = np.sum(vals * np.concatenate([wt, wt])) / (2 * math.pi)
        assert abs(mean - sum_inside_limit(*args)) <= 1e-12

    def test_inside_limit_matches_finite_sums(self):
        a1, b1, a2, b2, z, w = 0.5, 0.5, 1.5, -2.3, 0.3, 0.2
        lim = sum_inside_limit(a1, b1, a2, b2, z, w)
        err = {N: abs(sum_k(N, a1, b1, a2, b2, z, w) - lim) for N in (256, 1024)}
        assert err[1024] < 0.01
        assert err[1024] < err[256]

    def test_integer_b2_is_continuous(self):
        # Gamma(m+1+b2)/Gamma(1+b2) is the terminating Pochhammer (1+b2)_m
        # at b2 = -2, so the limit is continuous through the Gamma pole
        args = (0.5, 0.5, 1.5)
        val = sum_inside_limit(*args, -2.0, 0.3, 0.2)
        assert val.real == pytest.approx(-1.4800146, abs=1e-7)
        for d in (1e-9, -1e-9):
            assert abs(val - sum_inside_limit(*args, -2.0 + d, 0.3, 0.2)) < 1e-7

    @pytest.mark.parametrize("b1,b2", [(0.5, -2.0), (0.5, -3.0), (-3.0, 0.5)])
    def test_integer_b2_coefficients_match_mpmath(self, b1, b2):
        m = np.arange(-8, 9)
        got = _lambda_fourier(b1, b2, m)
        G = mpmath.gamma
        with mpmath.workdps(30):
            for mm, val in zip(m.tolist(), got):
                c1, c2, k = (b2, b1, -mm) if mm < 0 else (b1, b2, mm)
                ref = G(-c1 - c2 - 1) * mpmath.rf(1 + c2, k) \
                    / (G(-c2) * G(k - c1))
                assert val == pytest.approx(float(ref), rel=1e-13, abs=1e-300)


_REAL_ANCHOR_GRID = [(0.5, -0.3), (-0.4, 0.2), (0.5, -0.3 + 0.4j), (0.2 + 0.3j, -0.1 + 0.5j)]
# the regimes whose convergence report takes any N
_UNCAPPED = [
    pytest.param(LimitKernelSpec("circle_real", lam=1.0, anchor=1.0), _REAL_ANCHOR_GRID,
                 id="plus_one"),
    pytest.param(LimitKernelSpec("circle_real", lam=0.5, anchor=-1.0), _REAL_ANCHOR_GRID,
                 id="minus_one"),
    pytest.param(LimitKernelSpec("inside_disk", lam=0.0),
                 [(0.3, -0.5), (0.1, 0.4), (0.2 + 0.3j, -0.4), (0.3 - 0.2j, 0.1 + 0.5j)],
                 id="inside_disk")]

_OUTSIDE = (LimitKernelSpec("outside_disk", lam=1.0, c=1.0),
            [(1.4, 1.8), (-1.5, 2.0), (1.5 + 0.5j, 2.0)])


class TestConvergenceHarness:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            LimitKernelSpec("circle_complex", lam=1.0, anchor=1.0)  # +-1
        with pytest.raises(DomainError):
            LimitKernelSpec("circle_real", lam=1.0, anchor=0.5)

    def test_report_errors_decrease(self):
        spec = LimitKernelSpec("circle_real", lam=1.0, anchor=1.0)
        rows = convergence_report(spec, [(0.5, -0.3)], (8, 16))
        assert rows[0]["sup_error"] > rows[1]["sup_error"]

    @pytest.mark.parametrize("spec,grid,n_list", [
        pytest.param(*case.values, (16, 32, 64), id=case.id) for case in _UNCAPPED] + [
        pytest.param(*_OUTSIDE, (16, 32, 64), id="outside_disk"),
        pytest.param(*_OUTSIDE, (15, 31, 63), id="outside_disk_odd_n")])
    def test_whole_blocks_converge_at_rate_one(self, spec, grid, n_list):
        """Rate one at every pair of the grid, real and non-real.

        With the (2,1) entry's old sign, +ad, the fitted rate is 0.02 at +1
        and -0.01 inside the disk. Outside, the finite blocks keep the phase
        ``(z/|z|)^N``: compared without dividing it out, the odd-N errors
        stall at 0.33, since a real point's ``sgn(x)^N`` flips sign.
        """
        rows = convergence_report(spec, grid, n_list)
        assert all("entry21" in row for row in rows)
        errs = [row["sup_error"] for row in rows]
        rate = -np.polyfit(np.log(n_list), np.log(errs), 1)[0]
        assert 0.8 <= rate <= 1.2

    def test_ratio_sums_errors_decrease(self):
        rows = ratio_sums_report((8, 16))
        assert rows[0]["sup_error"] > rows[1]["sup_error"]

    def test_partial_sum_limits_errors_decrease(self):
        rows = kasymp_report((8, 16))
        assert rows[0]["sup_error"] > rows[1]["sup_error"]

    def test_n_list_guard(self):
        spec = LimitKernelSpec("circle_real", lam=1.0, anchor=1.0)
        with pytest.raises(DomainError):
            convergence_report(spec, [(0.5, -0.3)], (16, 8))
        for bad in ([], (8, 8)):
            with pytest.raises(DomainError):
                convergence_report(spec, [(0.5, -0.3)], bad)
        # only the outside regime keeps the cap N <= 64: |uv|^s overflows
        # past it
        outside = LimitKernelSpec("outside_disk", lam=1.0, c=1.0)
        with pytest.raises(DomainError, match="outside_disk"):
            convergence_report(outside, [(1.4, 1.8)], (8, 128))

    @pytest.mark.parametrize("spec,grid", _UNCAPPED)
    def test_rate_one_up_to_n_1024(self, spec, grid):
        # N <= 64 was the cap of every regime
        rows = convergence_report(spec, grid, (64, 256, 1024))
        errs = [row["sup_error"] for row in rows]
        rate = -np.polyfit(np.log([64, 256, 1024]), np.log(errs), 1)[0]
        assert 0.8 <= rate <= 1.2

    def test_oscillatory_comparison_converges_along_doublings(self):
        # the large-height limit of the paired-confluent expression is
        # approached in an oscillating fashion (period 2 pi in the height);
        # the doubling subsequence {10, 20, 40} decreases only because of
        # where the oscillation's phase falls at these heights (at Re z = 0
        # the error is 0.00056 at height 30 but 0.0025 at height 40)
        rows = compare_report(im_list=(10.0, 20.0, 40.0), re_list=(0.0, 0.5))
        errs = [r["sup_error"] for r in rows]
        assert errs[0] > errs[1] > errs[2]
        # the oscillation belongs to the quantity, not to the implementation:
        # high-precision evaluation gives the same errors, equally not
        # monotone along {5, 10, 20}
        heights = (5.0, 10.0, 20.0)
        lib = [r["sup_error"]
               for r in compare_report(im_list=heights, re_list=(0.0, 0.5))]
        ref = []
        with mpmath.workdps(30):
            for h in heights:
                errs_h = []
                for x in (0.0, 0.5):
                    z = mpmath.mpc(x, h)
                    zc = mpmath.conj(z)
                    M, Mc = mpmath.hyp1f1(1.5, 1, z), mpmath.hyp1f1(1.5, 1, zc)
                    Mp = 1.5 * mpmath.hyp1f1(2.5, 2, z)
                    Mpc = 1.5 * mpmath.hyp1f1(2.5, 2, zc)
                    val = 1j / 4 * (Mp * Mc - M * Mpc)
                    errs_h.append(abs(val - mpmath.exp(2 * x) / mpmath.pi))
                ref.append(float(max(errs_h)))
        assert lib == pytest.approx(ref, abs=1e-12)
        assert not ref[0] > ref[1] > ref[2]
